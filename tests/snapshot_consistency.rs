//! Consistency-first stress suite for the always-fresh snapshot service
//! (`dist::snapshot`): readers racing live ingestion must never observe a
//! torn epoch — epoch id, placement, and the item checksum always
//! mutually consistent — every publication must become readable, and a
//! publisher that dies must leave the last epoch served forever.
//!
//! The seqlock behind the epoch slot fires the `reservoir_btree::sched`
//! hooks, so the seeded [`YieldInjector`] drives genuine reader/writer
//! interleavings here: normal mode sprays yields at every hook,
//! aggressive mode parks the publisher mid-critical-section for ~120µs
//! while readers hammer the slot.
//!
//! Scaled by `RESERVOIR_STRESS_ROUNDS` (batches per run); CI's
//! snapshot-stress step sweeps four seed families at 40 rounds each via
//! `RESERVOIR_TEST_SEED`.

use std::sync::atomic::{AtomicBool, Ordering};

use reservoir::btree::sched::YieldInjector;
use reservoir::comm::{run_threads, Communicator};
use reservoir::dist::gather::GatherSampler;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::{ContinuousMode, DistConfig, SnapshotReader};
use reservoir::rng::test_base_seed;
use reservoir::stream::Item;

fn stress_rounds(default: u64) -> u64 {
    std::env::var("RESERVOIR_STRESS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn unit_batch(rank: usize, batch: u64, n: u64) -> Vec<Item> {
    (0..n)
        .map(|i| {
            Item::new(
                ((rank as u64) << 40) | (batch << 20) | i,
                1.0 + (i % 5) as f64,
            )
        })
        .collect()
}

/// Per-read invariants every stress reader enforces. `probe` is
/// `latest_epoch()` sampled *before* the read: the publisher bumps the
/// counter only after the swap completes, so a read that starts after
/// observing `probe = n` must return epoch `>= n` — the "never stale
/// beyond a concurrent publication" guarantee, checked on every read.
fn check_read(reader: &SnapshotReader, last: &mut u64) -> u64 {
    let probe = reader.latest_epoch();
    let e = reader.read();
    assert!(
        e.verify(),
        "torn epoch {}: checksum does not cover the payload read",
        e.epoch
    );
    assert!(
        e.epoch >= probe,
        "stale read: epoch {} after observing publication {probe}",
        e.epoch
    );
    assert!(
        e.epoch >= *last,
        "epoch went backwards: {} after {}",
        e.epoch,
        *last
    );
    assert!(
        e.offset + e.local_len() <= e.total,
        "epoch {}: placement {}+{} overruns total {}",
        e.epoch,
        e.offset,
        e.local_len(),
        e.total
    );
    if let Some(t) = e.threshold {
        assert!(
            e.items.iter().all(|m| m.key <= t),
            "epoch {}: item key above the finalization threshold",
            e.epoch
        );
    }
    *last = e.epoch;
    e.epoch
}

/// Spawn `readers` threads hammering `reader` until `stop`; each returns
/// its read count and the highest epoch it saw.
fn spawn_readers<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    reader: &SnapshotReader,
    stop: &'s AtomicBool,
    readers: usize,
) -> Vec<std::thread::ScopedJoinHandle<'s, (u64, u64)>> {
    (0..readers)
        .map(|_| {
            let r = reader.clone();
            scope.spawn(move || {
                let (mut reads, mut last) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    check_read(&r, &mut last);
                    reads += 1;
                    std::thread::yield_now();
                }
                // One read after quiescence: must serve the final epoch.
                let last_epoch = check_read(&r, &mut last);
                (reads + 1, last_epoch)
            })
        })
        .collect()
}

/// The acceptance-criterion race: 4 reader threads per PE against live
/// ingestion at 2 scan threads, with the yield injector widening every
/// seqlock window. Distributed policy;
/// each batch publishes an epoch and `collect_output` publishes the
/// final one, so readers must converge on epoch `batches + 1`.
#[test]
fn live_ingestion_never_serves_torn_epochs() {
    let batches = stress_rounds(10).max(4);
    let base = test_base_seed();
    for round in 0..2u64 {
        let seed = base.wrapping_add(0x51AB_0000).wrapping_add(round);
        let _guard = if round % 2 == 0 {
            YieldInjector::install(seed)
        } else {
            YieldInjector::install_aggressive(seed)
        };
        let p = 3;
        let cfg = DistConfig::weighted(48, seed)
            .with_threads(2)
            .with_continuous(ContinuousMode::EveryBatch);
        let results = run_threads(p, |comm| {
            let mut s = DistributedSampler::new(&comm, cfg);
            let reader = s.snapshot_reader();
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let handles = spawn_readers(scope, &reader, &stop, 4);
                for b in 0..batches {
                    s.process_batch(&unit_batch(comm.rank(), b, 120));
                }
                let handle = s.collect_output();
                stop.store(true, Ordering::Relaxed);
                let mut reads = 0;
                for h in handles {
                    let (n, last) = h.join().expect("reader panicked");
                    assert_eq!(
                        last,
                        batches + 1,
                        "reader quiesced before the final epoch became visible"
                    );
                    reads += n;
                }
                let e = reader.read();
                (e.local_len(), e.total, handle.total_len(), reads)
            })
        });
        let total = results[0].1;
        assert_eq!(
            results.iter().map(|r| r.0).sum::<u64>(),
            total,
            "per-PE epoch slices must tile the global sample"
        );
        for (_, epoch_total, handle_total, reads) in &results {
            assert_eq!(*epoch_total, *handle_total);
            assert!(*reads >= 4, "readers never ran");
        }
    }
}

/// Same race through the gather policy: the root's epochs carry the
/// whole sample, every other rank publishes empty slices — and none of
/// them may tear.
#[test]
fn gather_policy_publishes_readably_under_stress() {
    let batches = stress_rounds(8).max(4);
    let seed = test_base_seed().wrapping_add(0x6A77);
    let _guard = YieldInjector::install_aggressive(seed);
    let p = 3;
    let cfg = DistConfig::weighted(32, seed)
        .with_threads(2)
        .with_continuous(ContinuousMode::EveryBatch);
    let results = run_threads(p, |comm| {
        let mut s = GatherSampler::new(&comm, cfg);
        let reader = s.snapshot_reader();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handles = spawn_readers(scope, &reader, &stop, 4);
            for b in 0..batches {
                s.process_batch(&unit_batch(comm.rank(), b, 90));
            }
            let handle = s.collect_output();
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                let (_, last) = h.join().expect("reader panicked");
                assert_eq!(last, batches + 1);
            }
            let e = reader.read();
            (comm.rank(), e.local_len(), e.total, handle.total_len())
        })
    });
    for (rank, local, total, handle_total) in &results {
        assert_eq!(*total, *handle_total);
        if *rank == 0 {
            assert_eq!(*local, *total, "root epochs carry the whole sample");
        } else {
            assert_eq!(*local, 0, "non-root gather epochs are empty slices");
        }
    }
}

/// Every publication becomes readable: a lone publisher drives numbered
/// epochs through the slot while readers track the publication counter;
/// whenever a reader has seen `latest_epoch() = n`, its next read
/// returns at least `n` (checked inside `check_read`), and once the
/// writer quiesces every reader's final read is exactly the last epoch.
#[test]
fn every_publication_is_eventually_readable() {
    use reservoir::dist::{EpochPublisher, SampleEpoch};
    let publications = stress_rounds(10).max(4) * 25;
    let base = test_base_seed();
    for round in 0..2u64 {
        let seed = base.wrapping_add(0xEB0C).wrapping_add(round);
        let _guard = if round % 2 == 0 {
            YieldInjector::install(seed)
        } else {
            YieldInjector::install_aggressive(seed)
        };
        let mut p = EpochPublisher::new(0, 1);
        let reader = p.reader();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handles = spawn_readers(scope, &reader, &stop, 4);
            for n in 1..=publications {
                let items = (0..n % 9)
                    .map(|i| reservoir::SampleItem {
                        id: n * 100 + i,
                        weight: 1.0,
                        key: i as f64 / 9.0,
                    })
                    .collect();
                p.publish(SampleEpoch::new(
                    p.next_epoch(),
                    items,
                    0,
                    n % 9,
                    0,
                    1,
                    Some(1.0),
                    0,
                ));
            }
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                let (_, last) = h.join().expect("reader panicked");
                assert_eq!(last, publications, "a publication never became readable");
            }
        });
        assert_eq!(p.published(), publications);
    }
}

/// A publisher that dies must not take the sample service down with it:
/// the seqlock's write guard releases the version word on unwind and the
/// previously installed epoch stays behind the pointer, so readers keep
/// being served the last successful publication forever.
#[test]
fn writer_panic_leaves_the_last_epoch_readable() {
    use reservoir::dist::{EpochPublisher, SampleEpoch};
    let seed = test_base_seed().wrapping_add(0xDEAD);
    let _guard = YieldInjector::install_aggressive(seed);
    let mut p = EpochPublisher::new(0, 1);
    let reader = p.reader();
    let writer = std::thread::spawn(move || {
        for n in 1..=3u64 {
            p.publish(SampleEpoch::new(n, Vec::new(), 0, 0, 0, 1, None, 0));
        }
        panic!("publisher dies after epoch 3");
    });
    assert!(writer.join().is_err(), "writer must have panicked");
    // The slot outlives its publisher: still consistent, still current.
    for _ in 0..100 {
        let e = reader.read();
        assert!(e.verify());
        assert_eq!(e.epoch, 3, "last epoch must survive the writer's death");
    }
    assert_eq!(reader.latest_epoch(), 3);
    let another = reader.clone();
    assert_eq!(another.read().epoch, 3);
}
