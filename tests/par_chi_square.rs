//! Statistical acceptance tests for the chunked local scan: drawing each
//! chunk's keys from its own per-(batch, chunk) RNG stream must realize
//! **exactly the weighted sampling law** — locally (threshold scan and
//! growing mode) and end-to-end through both distributed backends
//! (`DistributedSampler` and the `GatherSampler` baseline) at both scan
//! widths — plus the fixed-seed determinism of the pooled merge epilogue.
//!
//! Every reference is independent of the scan under test: the threshold
//! scan's per-item inclusion probability `1 − e^{−t·wᵢ}` in closed form
//! (a one-sample χ² test), and the heap-based sequential
//! `seq::WeightedJumpSampler` for growing mode and the pipelines (a
//! two-sample χ² test over per-item inclusion counts).
//!
//! The `par_` variants run the chunk kernels inline, on one worker; the
//! `conc_` variants run them concurrently on a four-worker crew shared by
//! every trial (the pipelines: each PE's crew at `threads_per_pe = 4`).
//!
//! The always-on tests keep trial counts modest; the `stats_`-prefixed
//! tests behind the `stats` feature run the same laws at CI scale
//! (`cargo test --release --features stats -- stats_`).

mod common;

use common::{bernoulli_chi_square, chi_square_upper, skewed_weight, two_sample_chi_square};
use reservoir::comm::run_threads;
use reservoir::dist::gather::GatherSampler;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::{DistConfig, LocalReservoir};
use reservoir::par::Pool;
use reservoir::rng::{default_rng, test_base_seed};
use reservoir::seq::WeightedJumpSampler;
use reservoir::stream::Item;

/// Moderate weights so every item's threshold-mode inclusion probability
/// lands in a chi-square-friendly band (no near-empty cells).
fn moderate_weight(i: u64) -> f64 {
    1.0 + (i % 10) as f64
}

fn batch(n: u64, weight: impl Fn(u64) -> f64) -> Vec<Item> {
    (0..n).map(|i| Item::new(i, weight(i))).collect()
}

/// Deal items 0..n round-robin over `p` PEs, split into `batches`
/// mini-batches per PE (the dist_chi_square layout).
fn batches_for(rank: usize, p: usize, n: u64, batches: usize) -> Vec<Vec<Item>> {
    let mine: Vec<Item> = (0..n)
        .filter(|i| *i as usize % p == rank)
        .map(|i| Item::new(i, skewed_weight(i)))
        .collect();
    let per = mine.len().div_ceil(batches).max(1);
    mine.chunks(per).map(<[Item]>::to_vec).collect()
}

/// Per-item inclusion counts of the heap-based sequential sampler keeping
/// `k` of items 0..n under skewed weights — the reference law.
fn reference_counts(n: u64, k: usize, trials: u64, seed_base: u64) -> Vec<u64> {
    let mut counts = vec![0u64; n as usize];
    let items = batch(n, skewed_weight);
    for trial in 0..trials {
        let mut s = WeightedJumpSampler::new(k, default_rng(seed_base.wrapping_add(trial)));
        s.process_batch(&items);
        for m in s.sample() {
            counts[m.id as usize] += 1;
        }
    }
    counts
}

/// Per-item inclusion counts of the threshold scan on `pool`'s workers
/// (small chunks so even these batch sizes span many chunks — and a crew
/// really steals).
fn scan_counts(n: u64, t: f64, pool: &Pool, trials: u64, seed_base: u64) -> Vec<u64> {
    let mut counts = vec![0u64; n as usize];
    for trial in 0..trials {
        let mut r = LocalReservoir::new(8, 32, pool.clone(), seed_base.wrapping_add(trial))
            .with_chunk_items(64);
        r.process_weighted(&batch(n, moderate_weight), Some(t));
        for (k, _) in r.tree().iter() {
            counts[k.id as usize] += 1;
        }
    }
    counts
}

/// End-to-end per-item inclusion counts through `DistributedSampler` (or
/// the `GatherSampler` baseline) under the scan knobs `scan` sets.
fn pipeline_counts(
    gather_backend: bool,
    scan: impl Fn(DistConfig) -> DistConfig,
    n: u64,
    k: usize,
    p: usize,
    trials: u64,
    seed_base: u64,
) -> Vec<u64> {
    let mut counts = vec![0u64; n as usize];
    for trial in 0..trials {
        let cfg = scan(DistConfig::weighted(k, seed_base.wrapping_add(trial)));
        let ids = run_threads(p, |comm| {
            use reservoir::comm::Communicator;
            let ids: Vec<u64> = if gather_backend {
                let mut s = GatherSampler::new(&comm, cfg);
                for b in batches_for(comm.rank(), p, n, 2) {
                    s.process_batch(&b);
                }
                let handle = s.collect_output();
                handle.local_items().iter().map(|m| m.id).collect()
            } else {
                let mut s = DistributedSampler::new(&comm, cfg);
                for b in batches_for(comm.rank(), p, n, 2) {
                    s.process_batch(&b);
                }
                let handle = s.collect_output();
                handle.local_items().iter().map(|m| m.id).collect()
            };
            ids
        });
        let total: usize = ids.iter().map(Vec::len).sum();
        assert_eq!(total, k, "trial {trial} produced {total} members, not k");
        for pe_ids in ids {
            for id in pe_ids {
                counts[id as usize] += 1;
            }
        }
    }
    counts
}

fn assert_same_law(reference: &[u64], observed: &[u64], z: f64, what: &str) {
    let base = test_base_seed();
    let (stat, df) = two_sample_chi_square(reference, observed);
    let limit = chi_square_upper(df, z);
    assert!(
        stat < limit,
        "{what}: chi-square {stat:.1} exceeds χ²({df}) limit {limit:.1} — the scan \
         and the sequential reference sampler draw different laws (base seed {base}; \
         set RESERVOIR_TEST_SEED to reproduce/vary)"
    );
}

// --- threshold-mode local law ------------------------------------------

/// One-sample χ² of threshold-scan counts against the analytic law at
/// threshold `t`: item i enters with probability `1 − e^{−t·wᵢ}`,
/// independently of every other item.
fn threshold_law_statistic(counts: &[u64], t: f64, trials: u64, z: f64) -> (f64, f64, usize) {
    let (stat, df) =
        bernoulli_chi_square(counts, trials, |i| 1.0 - (-t * moderate_weight(i)).exp());
    (stat, chi_square_upper(df, z), df)
}

/// The scan on `pool`, seeded from `salt`, against the analytic law.
fn check_threshold_scan_law(pool: &Pool, salt: u64, n: u64, t: f64, trials: u64, z: f64) {
    let base = test_base_seed();
    let counts = scan_counts(n, t, pool, trials, base.wrapping_add(salt));
    // Heavier items must be included more often.
    assert!(counts[9] > counts[0], "{} vs {}", counts[9], counts[0]);
    let (stat, limit, df) = threshold_law_statistic(&counts, t, trials, z);
    assert!(
        stat < limit,
        "threshold scan on {} worker(s): chi-square {stat:.1} exceeds χ²({df}) \
         limit {limit:.1} against 1 − e^(−t·w) (base seed {base}; set \
         RESERVOIR_TEST_SEED to reproduce/vary)",
        pool.threads()
    );
}

#[test]
fn par_threshold_scan_matches_sequential_law() {
    check_threshold_scan_law(&Pool::new(1), 22_000_000, 512, 0.1, 200, 4.0);
}

#[test]
fn conc_threshold_scan_matches_sequential_law() {
    check_threshold_scan_law(&Pool::new(4), 26_000_000, 512, 0.1, 200, 4.0);
}

#[test]
fn par_chi_square_detects_a_genuinely_different_law() {
    // Positive control: scanning under a 60% larger threshold is a
    // different inclusion law and must blow past the same limit.
    let base = test_base_seed();
    let (n, trials) = (512u64, 200u64);
    let counts = scan_counts(
        n,
        0.16,
        &Pool::new(1),
        trials,
        base.wrapping_add(24_000_000),
    );
    let (stat, limit, _) = threshold_law_statistic(&counts, 0.1, trials, 2.33);
    assert!(
        stat > limit,
        "control failed: {stat:.1} should exceed {limit:.1} for different \
         thresholds (base seed {base})"
    );
}

// --- growing-mode local law --------------------------------------------

/// No global threshold: keep the cap smallest keys. The chunked
/// draw-and-prune scan on `pool` against the heap-based sequential sampler
/// — the same weighted law. The reference seeds from `salt`, the scan from
/// `salt + 1_000_000`.
fn check_growing_mode_law(pool: &Pool, salt: u64, what: &str) {
    let base = test_base_seed();
    let (n, cap, trials) = (256u64, 32usize, 300u64);
    let reference = reference_counts(n, cap, trials, base.wrapping_add(salt));
    let mut scan = vec![0u64; n as usize];
    for trial in 0..trials {
        let seed = base.wrapping_add(salt + 1_000_000 + trial);
        let mut r = LocalReservoir::new(cap, 32, pool.clone(), seed).with_chunk_items(48);
        r.process_weighted(&batch(n, skewed_weight), None);
        assert_eq!(r.len(), cap as u64);
        for (k, _) in r.tree().iter() {
            scan[k.id as usize] += 1;
        }
    }
    assert_same_law(&reference, &scan, 4.0, what);
}

#[test]
fn par_growing_mode_matches_sequential_law() {
    check_growing_mode_law(
        &Pool::new(1),
        31_000_000,
        "growing mode (one worker vs the sequential sampler)",
    );
}

#[test]
fn conc_growing_mode_matches_sequential_law() {
    check_growing_mode_law(
        &Pool::new(4),
        33_000_000,
        "growing mode on a crew (four workers vs the sequential sampler)",
    );
}

// --- end-to-end law on both backends -----------------------------------

/// The pipeline law at one scan thread per PE or (`crew`) on each PE's
/// four-worker crew, against the sequential sampler over the same items.
fn check_pipeline_law(gather_backend: bool, crew: bool, trials: u64, z: f64) {
    let base = test_base_seed();
    let (n, k, p) = (96u64, 16usize, 2usize);
    // Distinct salt per (backend, width) cell so the cells stay
    // independent trials of the law.
    let salt = match (gather_backend, crew) {
        (true, false) => 41_000_000,
        (false, false) => 45_000_000,
        (true, true) => 51_000_000,
        (false, true) => 55_000_000,
    };
    let threads = if crew { 4 } else { 1 };
    let reference = reference_counts(n, k, trials, base.wrapping_add(salt));
    let observed = pipeline_counts(
        gather_backend,
        |cfg| cfg.with_threads(threads),
        n,
        k,
        p,
        trials,
        base.wrapping_add(salt + 2_000_000),
    );
    assert_eq!(reference.iter().sum::<u64>(), trials * k as u64);
    assert_eq!(observed.iter().sum::<u64>(), trials * k as u64);
    let backend = if gather_backend {
        "GatherSampler"
    } else {
        "DistributedSampler"
    };
    let name = format!("{backend} backend at {threads} thread(s) vs the sequential sampler");
    assert_same_law(&reference, &observed, z, &name);
}

#[test]
fn par_matches_sequential_law_on_distributed_backend() {
    check_pipeline_law(false, false, 250, 4.0);
}

#[test]
fn par_matches_sequential_law_on_gather_backend() {
    check_pipeline_law(true, false, 250, 4.0);
}

#[test]
fn conc_matches_sequential_law_on_distributed_backend() {
    check_pipeline_law(false, true, 250, 4.0);
}

#[test]
fn conc_matches_sequential_law_on_gather_backend() {
    check_pipeline_law(true, true, 250, 4.0);
}

// --- determinism of the merge epilogue ---------------------------------

#[test]
fn par_merge_epilogue_is_deterministic_for_fixed_seed_and_threads() {
    // Same seed + same thread count ⇒ bitwise the same reservoir, across
    // a growing phase, a threshold transition, and steady-state batches —
    // even though chunk-to-worker assignment (stealing) varies run to run.
    let run = |threads: usize| {
        let mut r = LocalReservoir::new(64, 32, Pool::new(threads), 0xD15C0).with_chunk_items(128);
        r.process_weighted(&batch(2_000, skewed_weight), None);
        let t = {
            let (key, _) = r.tree().max().expect("filled");
            key.key
        };
        r.process_weighted(&batch(4_000, skewed_weight), Some(t));
        r.process_uniform(&batch(4_000, |_| 1.0), Some(0.01));
        let mut entries: Vec<(u64, u64)> = r
            .tree()
            .iter()
            .map(|(k, _)| (k.id, k.key.to_bits()))
            .collect();
        entries.sort_unstable();
        entries
    };
    let a = run(4);
    let b = run(4);
    assert_eq!(a, b, "fixed seed + fixed threads must reproduce exactly");
    // Stronger: the fixed chunk geometry makes the result independent of
    // the thread count entirely, inline scan included.
    assert_eq!(a, run(1), "thread count must not change the sample");
    assert_eq!(a, run(3));
}

#[test]
fn par_distributed_sampler_is_deterministic_for_fixed_seed_and_threads() {
    let run = || {
        run_threads(2, |comm| {
            use reservoir::comm::Communicator;
            let cfg = DistConfig::weighted(24, 0xFEED).with_threads(4);
            let mut s = DistributedSampler::new(&comm, cfg);
            for b in batches_for(comm.rank(), 2, 200, 3) {
                s.process_batch(&b);
            }
            let mut ids: Vec<u64> = s.local_sample().iter().map(|m| m.id).collect();
            ids.sort_unstable();
            (ids, s.threshold())
        })
    };
    assert_eq!(run(), run(), "distributed parallel scan must reproduce");
}

// --- CI-scale variants (release build, `stats` feature) ----------------

#[cfg(feature = "stats")]
#[test]
fn stats_par_threshold_scan_matches_sequential_law_at_scale() {
    check_threshold_scan_law(&Pool::new(1), 22_000_000, 1024, 0.1, 2_000, 2.33);
}

#[cfg(feature = "stats")]
#[test]
fn stats_par_matches_sequential_law_on_distributed_backend_at_scale() {
    check_pipeline_law(false, false, 1_500, 2.33);
}

#[cfg(feature = "stats")]
#[test]
fn stats_par_matches_sequential_law_on_gather_backend_at_scale() {
    check_pipeline_law(true, false, 1_500, 2.33);
}
