//! Statistical acceptance tests for the parallel local scan
//! (`reservoir-par`): the chunked work-stealing scan must draw from
//! **exactly the same weighted law** as the sequential `LocalReservoir` —
//! locally (threshold scan and growing mode) and end-to-end through both
//! distributed backends (`DistributedSampler` and the `GatherSampler`
//! baseline) under the `threads_per_pe` knob — plus the fixed-seed
//! determinism guarantees of the merge epilogue.
//!
//! The persistent worker crew (`Pool::persistent`, helpers spawned once
//! and woken per scope, running concurrently with the caller across
//! batches) is held to the same bar: the `conc_` variants run the local
//! scans on one crew shared by every trial's reservoir and the pipelines
//! with `with_persistent_pool(true)`, two-sample-χ²-tested against the
//! sequential law on both backends.
//!
//! The always-on tests keep trial counts modest; the `stats_`-prefixed
//! tests behind the `stats` feature run the same laws at CI scale
//! (`cargo test --release --features stats -- stats_`).

mod common;

use common::{chi_square_upper, skewed_weight, two_sample_chi_square};
use reservoir::comm::run_threads;
use reservoir::dist::gather::GatherSampler;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::{DistConfig, LocalReservoir};
use reservoir::par::{ParLocalReservoir, Pool};
use reservoir::rng::{default_rng, test_base_seed};
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

/// Per-item inclusion counts of the *sequential* threshold scan.
fn seq_scan_counts(n: u64, t: f64, trials: u64, seed_base: u64) -> Vec<u64> {
    let mut counts = vec![0u64; n as usize];
    for trial in 0..trials {
        let mut r = LocalReservoir::new(8, 32);
        let mut rng = default_rng(seed_base.wrapping_add(trial));
        r.process_weighted(&batch(n, moderate_weight), Some(t), &mut rng);
        for m in r.items() {
            counts[m.id as usize] += 1;
        }
    }
    counts
}

/// Per-item inclusion counts of the *parallel* threshold scan on `pool`'s
/// workers (small chunks so even these batch sizes span many chunks — and
/// real steals happen).
fn par_scan_counts(n: u64, t: f64, pool: &Pool, trials: u64, seed_base: u64) -> Vec<u64> {
    let mut counts = vec![0u64; n as usize];
    for trial in 0..trials {
        let mut r = ParLocalReservoir::new(8, 32, pool.threads(), seed_base.wrapping_add(trial))
            .with_chunk_items(64)
            .with_pool(pool.clone());
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

fn assert_same_law(a: &[u64], b: &[u64], z: f64, what: &str) {
    let base = test_base_seed();
    let (stat, df) = two_sample_chi_square(a, b);
    let limit = chi_square_upper(df, z);
    assert!(
        stat < limit,
        "{what}: chi-square {stat:.1} exceeds χ²({df}) limit {limit:.1} — parallel \
         and sequential laws differ (base seed {base}; set RESERVOIR_TEST_SEED to \
         reproduce/vary)"
    );
}

// --- threshold-mode local law ------------------------------------------

fn check_threshold_scan_law(n: u64, t: f64, trials: u64, z: f64) {
    let base = test_base_seed();
    let seq = seq_scan_counts(n, t, trials, base.wrapping_add(21_000_000));
    let par = par_scan_counts(n, t, &Pool::new(4), trials, base.wrapping_add(22_000_000));
    // Heavier items must be included more often in both.
    assert!(seq[9] > seq[0], "{} vs {}", seq[9], seq[0]);
    assert!(par[9] > par[0], "{} vs {}", par[9], par[0]);
    assert_same_law(&seq, &par, z, "threshold scan (t=4 vs sequential)");
}

fn check_conc_threshold_scan_law(n: u64, t: f64, trials: u64, z: f64) {
    let base = test_base_seed();
    let seq = seq_scan_counts(n, t, trials, base.wrapping_add(25_000_000));
    let conc = par_scan_counts(
        n,
        t,
        &Pool::persistent(4),
        trials,
        base.wrapping_add(26_000_000),
    );
    assert!(conc[9] > conc[0], "{} vs {}", conc[9], conc[0]);
    assert_same_law(
        &seq,
        &conc,
        z,
        "threshold scan on a persistent crew (t=4 vs sequential)",
    );
}

#[test]
fn par_threshold_scan_matches_sequential_law() {
    check_threshold_scan_law(512, 0.1, 200, 4.0);
}

#[test]
fn conc_threshold_scan_matches_sequential_law() {
    check_conc_threshold_scan_law(512, 0.1, 200, 4.0);
}

#[test]
fn par_chi_square_detects_a_genuinely_different_law() {
    // Positive control: scanning under a 60% larger threshold is a
    // different inclusion law and must blow past the same limit.
    let base = test_base_seed();
    let (n, trials) = (512u64, 200u64);
    let seq = seq_scan_counts(n, 0.1, trials, base.wrapping_add(23_000_000));
    let par = par_scan_counts(
        n,
        0.16,
        &Pool::new(4),
        trials,
        base.wrapping_add(24_000_000),
    );
    let (stat, df) = two_sample_chi_square(&seq, &par);
    let limit = chi_square_upper(df, 2.33);
    assert!(
        stat > limit,
        "control failed: {stat:.1} should exceed {limit:.1} for different \
         thresholds (base seed {base})"
    );
}

// --- growing-mode local law --------------------------------------------

/// No global threshold: keep the cap smallest keys. Sequential jump
/// reservoir vs parallel draw-and-re-prune on `pool` — same weighted law.
/// The sequential side seeds from `salt`, the parallel side from
/// `salt + 1_000_000`.
fn check_growing_mode_law(pool: &Pool, salt: u64, what: &str) {
    let base = test_base_seed();
    let (n, cap, trials) = (256u64, 32usize, 300u64);
    let mut seq = vec![0u64; n as usize];
    let mut par = vec![0u64; n as usize];
    for trial in 0..trials {
        let mut r = LocalReservoir::new(cap, 32);
        let mut rng = default_rng(base.wrapping_add(salt + trial));
        r.process_weighted(&batch(n, skewed_weight), None, &mut rng);
        assert_eq!(r.len(), cap as u64);
        for m in r.items() {
            seq[m.id as usize] += 1;
        }
        let seed = base.wrapping_add(salt + 1_000_000 + trial);
        let mut r = ParLocalReservoir::new(cap, 32, pool.threads(), seed)
            .with_chunk_items(48)
            .with_pool(pool.clone());
        r.process_weighted(&batch(n, skewed_weight), None);
        assert_eq!(r.len(), cap as u64);
        for (k, _) in r.tree().iter() {
            par[k.id as usize] += 1;
        }
    }
    assert_same_law(&seq, &par, 4.0, what);
}

#[test]
fn par_growing_mode_matches_sequential_law() {
    check_growing_mode_law(
        &Pool::new(4),
        31_000_000,
        "growing mode (t=4 vs sequential)",
    );
}

#[test]
fn conc_growing_mode_matches_sequential_law() {
    check_growing_mode_law(
        &Pool::persistent(4),
        33_000_000,
        "growing mode on a persistent crew (t=4 vs sequential)",
    );
}

// --- end-to-end law on both backends -----------------------------------

/// The `threads = 4` pipeline law, its scans on per-scope helpers or
/// (`persistent`) on each PE's persistent crew.
fn check_pipeline_law(gather_backend: bool, persistent: bool, trials: u64, z: f64) {
    let base = test_base_seed();
    let (n, k, p) = (96u64, 16usize, 2usize);
    // Distinct salt per (backend, crew) cell so the cells stay
    // independent trials of the law.
    let salt = match (gather_backend, persistent) {
        (true, false) => 41_000_000,
        (false, false) => 45_000_000,
        (true, true) => 51_000_000,
        (false, true) => 55_000_000,
    };
    let seq = pipeline_counts(
        gather_backend,
        |cfg| cfg.with_threads(1),
        n,
        k,
        p,
        trials,
        base.wrapping_add(salt),
    );
    let par = pipeline_counts(
        gather_backend,
        |cfg| cfg.with_threads(4).with_persistent_pool(persistent),
        n,
        k,
        p,
        trials,
        base.wrapping_add(salt + 2_000_000),
    );
    assert_eq!(seq.iter().sum::<u64>(), trials * k as u64);
    assert_eq!(par.iter().sum::<u64>(), trials * k as u64);
    let backend = if gather_backend {
        "GatherSampler"
    } else {
        "DistributedSampler"
    };
    let crew = if persistent { ", persistent crew" } else { "" };
    let name = format!("{backend} backend{crew} (threads 4 vs 1)");
    assert_same_law(&seq, &par, z, &name);
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
        let mut r = ParLocalReservoir::new(64, 32, threads, 0xD15C0).with_chunk_items(128);
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
    // the thread count entirely.
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
    check_threshold_scan_law(1024, 0.1, 2_000, 2.33);
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
