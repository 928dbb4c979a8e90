//! Statistical goodness of fit for the always-fresh snapshot service: a
//! published [`SampleEpoch`](reservoir::dist::SampleEpoch) is not merely
//! un-torn, it is a *correct sample* — each epoch must obey the weighted
//! without-replacement inclusion law over exactly the stream prefix it
//! was published at, as if the stream had ended there and
//! `collect_output` had run.
//!
//! Three laws, each over many independent seeded trials:
//!
//! 1. Mid-stream epochs vs a reference sampler run on just the prefix —
//!    two-sample chi-square must accept (same law).
//! 2. Positive control: the same mid-stream epochs against the *full*
//!    stream's law must blow the limit — otherwise the statistic has no
//!    power at these trial counts.
//! 3. Final epoch reads vs an independent non-continuous run's
//!    `collect_output` — the read path serves the true sample law.
//!
//! The always-on tests keep trial counts modest; the `stats_`-prefixed
//! variants behind the `stats` feature run CI-scale trial counts
//! (`cargo test --release --features stats -- stats_`).

mod common;

use common::{chi_square_upper, skewed_weight, two_sample_chi_square};
use reservoir::comm::run_threads;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::{ContinuousMode, DistConfig};
use reservoir::rng::test_base_seed;
use reservoir::stream::Item;

/// Deal items 0..n round-robin over `p` PEs, split each PE's share into
/// `batches` mini-batches (same scheme as the dist chi-square suite).
fn batches_for(rank: usize, p: usize, n: u64, batches: usize) -> Vec<Vec<Item>> {
    let mine: Vec<Item> = (0..n)
        .filter(|i| *i as usize % p == rank)
        .map(|i| Item::new(i, skewed_weight(i)))
        .collect();
    let per = mine.len().div_ceil(batches).max(1);
    mine.chunks(per).map(<[Item]>::to_vec).collect()
}

/// Per-item inclusion counts of the epoch published after mini-batch
/// `cut`, read through `SnapshotReader` while ingestion *continues* to
/// the end of the stream — the epoch is immutable, so the counts are a
/// clean snapshot of the prefix sample even though the pipeline keeps
/// running past the read.
fn epoch_counts(
    n: u64,
    k: usize,
    p: usize,
    batches: usize,
    cut: usize,
    trials: u64,
    seed_base: u64,
) -> Vec<u64> {
    assert!(cut <= batches);
    let mut counts = vec![0u64; n as usize];
    for t in 0..trials {
        let ids = run_threads(p, |comm| {
            use reservoir::comm::Communicator;
            let cfg = DistConfig::weighted(k, seed_base.wrapping_add(t))
                .with_continuous(ContinuousMode::EveryBatch);
            let mut s = DistributedSampler::new(&comm, cfg);
            let reader = s.snapshot_reader();
            let mut mid: Vec<u64> = Vec::new();
            for (j, batch) in batches_for(comm.rank(), p, n, batches).iter().enumerate() {
                s.process_batch(batch);
                if j + 1 == cut {
                    let e = reader.read();
                    assert!(e.verify(), "torn epoch (trial {t})");
                    assert_eq!(e.epoch, cut as u64, "one publication per batch");
                    mid = e.handle.local_items().iter().map(|m| m.id).collect();
                }
            }
            let _ = s.collect_output();
            mid
        });
        let picked: usize = ids.iter().map(Vec::len).sum();
        assert_eq!(picked, k, "mid-stream epoch must be finalized to k");
        for rank_ids in ids {
            for id in rank_ids {
                counts[id as usize] += 1;
            }
        }
    }
    counts
}

/// Reference law: a plain (non-continuous) sampler run over only the
/// first `cut` mini-batches per PE, read through `collect_output`.
fn prefix_reference_counts(
    n: u64,
    k: usize,
    p: usize,
    batches: usize,
    cut: usize,
    trials: u64,
    seed_base: u64,
) -> Vec<u64> {
    let mut counts = vec![0u64; n as usize];
    for t in 0..trials {
        let ids = run_threads(p, |comm| {
            use reservoir::comm::Communicator;
            let mut s =
                DistributedSampler::new(&comm, DistConfig::weighted(k, seed_base.wrapping_add(t)));
            for batch in batches_for(comm.rank(), p, n, batches).iter().take(cut) {
                s.process_batch(batch);
            }
            let handle = s.collect_output();
            handle
                .local_items()
                .iter()
                .map(|m| m.id)
                .collect::<Vec<u64>>()
        });
        for rank_ids in ids {
            for id in rank_ids {
                counts[id as usize] += 1;
            }
        }
    }
    counts
}

/// The body shared by the quick and the CI-scale variants of law 1.
fn check_mid_stream_epoch_law(n: u64, k: usize, p: usize, trials: u64, z: f64) {
    let base = test_base_seed();
    let (batches, cut) = (4usize, 2usize);
    let epochs = epoch_counts(n, k, p, batches, cut, trials, base.wrapping_add(21_000_000));
    let prefix =
        prefix_reference_counts(n, k, p, batches, cut, trials, base.wrapping_add(23_000_000));
    assert_eq!(epochs.iter().sum::<u64>(), trials * k as u64);
    assert_eq!(prefix.iter().sum::<u64>(), trials * k as u64);
    // The epoch can only contain prefix items: anything drawn past the
    // cut would be a leak from the sample's own future.
    for (i, &c) in epochs.iter().enumerate() {
        if c > 0 {
            assert!(
                prefix_member(i as u64, p, n, batches, cut),
                "item {i} from beyond the publication prefix appeared in an epoch"
            );
        }
    }
    let (stat, df) = two_sample_chi_square(&epochs, &prefix);
    let limit = chi_square_upper(df, z);
    assert!(
        stat < limit,
        "chi-square {stat:.1} exceeds χ²({df}) limit {limit:.1}: mid-stream epochs \
         do not follow the prefix sample law (base seed {base}; set \
         RESERVOIR_TEST_SEED to reproduce/vary)"
    );
}

/// Whether item `i` lies in the first `cut` of `batches` mini-batches of
/// its PE's share under the round-robin deal.
fn prefix_member(i: u64, p: usize, n: u64, batches: usize, cut: usize) -> bool {
    let rank = i as usize % p;
    let share = (0..n).filter(|j| *j as usize % p == rank).count();
    let per = share.div_ceil(batches).max(1);
    let pos = (0..n).filter(|j| *j as usize % p == rank && *j < i).count();
    pos / per < cut
}

#[test]
fn mid_stream_epochs_obey_the_prefix_sample_law() {
    // z = 2.33 is the 99th χ² percentile (p > 0.01). Deterministic under
    // the default base seed.
    check_mid_stream_epoch_law(96, 16, 2, 600, 2.33);
}

#[test]
fn epoch_chi_square_detects_the_wrong_prefix() {
    // Positive control: the mid-stream epoch law against the full
    // stream's law. Half the items never even reach the prefix, so the
    // statistic must blow far past the limit — otherwise these trial
    // counts prove nothing.
    let base = test_base_seed();
    let (n, k, p, trials) = (96u64, 16usize, 2usize, 300u64);
    let epochs = epoch_counts(n, k, p, 4, 2, trials, base.wrapping_add(25_000_000));
    let full = prefix_reference_counts(n, k, p, 4, 4, trials, base.wrapping_add(27_000_000));
    let (stat, df) = two_sample_chi_square(&epochs, &full);
    let limit = chi_square_upper(df, 2.33);
    assert!(
        stat > limit,
        "control failed: {stat:.1} should exceed {limit:.1} — a prefix sample is \
         not a full-stream sample (base seed {base})"
    );
}

/// Law 3: reading the sample through the final published epoch follows
/// the same inclusion law as an independent non-continuous run's
/// `collect_output` (exact same-seed equality is pinned separately in
/// `engine_equivalence`; this checks the *law* with disjoint seeds).
fn check_final_epoch_read_law(n: u64, k: usize, p: usize, trials: u64, z: f64) {
    let base = test_base_seed();
    let batches = 4usize;
    // Reading the epoch after the last batch plus collect_output's final
    // publication: cut = batches reads the last per-batch epoch.
    let via_epochs = epoch_counts(
        n,
        k,
        p,
        batches,
        batches,
        trials,
        base.wrapping_add(31_000_000),
    );
    let via_collect = prefix_reference_counts(
        n,
        k,
        p,
        batches,
        batches,
        trials,
        base.wrapping_add(33_000_000),
    );
    let (stat, df) = two_sample_chi_square(&via_epochs, &via_collect);
    let limit = chi_square_upper(df, z);
    assert!(
        stat < limit,
        "chi-square {stat:.1} exceeds χ²({df}) limit {limit:.1}: the epoch read \
         path distorts the sample law (base seed {base})"
    );
}

#[test]
fn final_epoch_reads_follow_the_collect_output_law() {
    check_final_epoch_read_law(96, 16, 2, 600, 2.33);
}

/// CI-scale versions (release build, `stats` feature): more items, more
/// PEs, an order of magnitude more trials.
#[cfg(feature = "stats")]
#[test]
fn stats_mid_stream_epoch_law_at_scale() {
    check_mid_stream_epoch_law(240, 30, 3, 4_000, 2.33);
}

#[cfg(feature = "stats")]
#[test]
fn stats_final_epoch_read_law_at_scale() {
    check_final_epoch_read_law(240, 30, 3, 4_000, 2.33);
}
