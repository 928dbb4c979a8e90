//! Consistency-first stress suite for the always-fresh snapshot service
//! (`dist::snapshot`): readers racing live ingestion must never observe a
//! torn epoch — epoch id, placement, and the item checksum always
//! mutually consistent — every publication must become readable, and a
//! publisher that dies must leave the last epoch served forever.
//!
//! The races are real threads on the OS scheduler: four readers per
//! slot hammer it while the publisher runs, and each reader reports how
//! many distinct epochs it saw (printed, not asserted: on one core a
//! reader may be scheduled only once the stream is over).
//!
//! Scaled by `RESERVOIR_STRESS_ROUNDS` (batches per run).
//! `RESERVOIR_TEST_SEED` varies the samples, thresholds and epoch sizes
//! through the seeds derived from it, not the schedule; CI's
//! snapshot-stress step sweeps four seeds at 40 rounds each, two of them
//! pinned to one core.

use std::sync::atomic::{AtomicBool, Ordering};

use reservoir::comm::{run_threads, Communicator};
use reservoir::dist::gather::GatherSampler;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::{ContinuousMode, DistConfig, SnapshotReader};
use reservoir::rng::{splitmix64, test_base_seed};
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

/// What one stress reader saw.
#[derive(Default)]
struct Tally {
    reads: u64,
    /// The epoch of its latest read.
    last: u64,
    /// Distinct epochs among its reads.
    distinct: u64,
}

impl Tally {
    fn read(&mut self, reader: &SnapshotReader) {
        let before = self.last;
        let epoch = check_read(reader, &mut self.last);
        // Epochs never go backwards, so each new one differs from the
        // epoch of the read before it.
        if self.reads == 0 || epoch != before {
            self.distinct += 1;
        }
        self.reads += 1;
    }
}

/// Spawn `readers` threads hammering `reader` until `stop`, each ending
/// with one read after quiescence.
fn spawn_readers<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    reader: &SnapshotReader,
    stop: &'s AtomicBool,
    readers: usize,
) -> Vec<std::thread::ScopedJoinHandle<'s, Tally>> {
    (0..readers)
        .map(|_| {
            let r = reader.clone();
            scope.spawn(move || {
                let mut tally = Tally::default();
                while !stop.load(Ordering::Relaxed) {
                    tally.read(&r);
                    std::thread::yield_now();
                }
                // One read after quiescence: must serve the final epoch.
                tally.read(&r);
                tally
            })
        })
        .collect()
}

/// Join the readers of [`spawn_readers`] and print how many distinct
/// epochs each saw, genesis included, beside the number published.
fn join_readers(
    test: &str,
    handles: Vec<std::thread::ScopedJoinHandle<'_, Tally>>,
    published: u64,
) -> Vec<Tally> {
    let tallies: Vec<Tally> = handles
        .into_iter()
        .map(|h| h.join().expect("reader panicked"))
        .collect();
    let distinct: Vec<u64> = tallies.iter().map(|t| t.distinct).collect();
    println!("{test}: distinct epochs per reader {distinct:?}, {published} published");
    tallies
}

/// The acceptance-criterion race: 4 reader threads per PE against live
/// ingestion at 2 scan threads, in two rounds with different sampler
/// seeds. Distributed policy; each batch publishes an epoch and
/// `collect_output` publishes the final one, so readers must converge on
/// epoch `batches + 1`.
#[test]
fn live_ingestion_never_serves_torn_epochs() {
    let batches = stress_rounds(10).max(4);
    let base = test_base_seed();
    for round in 0..2u64 {
        let seed = base.wrapping_add(0x51AB_0000).wrapping_add(round);
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
                let test = format!("live_ingestion round {round} pe {}", comm.rank());
                let mut reads = 0;
                for tally in join_readers(&test, handles, batches + 1) {
                    assert_eq!(
                        tally.last,
                        batches + 1,
                        "reader quiesced before the final epoch became visible"
                    );
                    reads += tally.reads;
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
            let test = format!("gather_policy pe {}", comm.rank());
            for tally in join_readers(&test, handles, batches + 1) {
                assert_eq!(tally.last, batches + 1);
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
/// Each round draws its epochs' sizes (0 to 8 items) from its own seed.
#[test]
fn every_publication_is_eventually_readable() {
    use reservoir::dist::{EpochPublisher, SampleEpoch};
    let publications = stress_rounds(10).max(4) * 25;
    let base = test_base_seed();
    for round in 0..2u64 {
        let mut size_rng = base.wrapping_add(0xEB0C).wrapping_add(round);
        let mut p = EpochPublisher::new(0, 1);
        let reader = p.reader();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handles = spawn_readers(scope, &reader, &stop, 4);
            for n in 1..=publications {
                let len = splitmix64(&mut size_rng) % 9;
                let items = (0..len)
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
                    len,
                    0,
                    1,
                    Some(1.0),
                    0,
                ));
                // Hand the CPU to the readers, so that they race the
                // publications instead of reading after the last one.
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
            let test = format!("every_publication round {round}");
            for tally in join_readers(&test, handles, publications) {
                assert_eq!(
                    tally.last, publications,
                    "a publication never became readable"
                );
            }
        });
        assert_eq!(p.published(), publications);
    }
}

/// A publisher that dies must not take the sample service down with it:
/// it holds the slot's mutex only for a pointer swap, which cannot
/// panic, so the previously installed epoch stays behind the pointer and
/// readers keep being served the last successful publication forever.
#[test]
fn writer_panic_leaves_the_last_epoch_readable() {
    use reservoir::dist::{EpochPublisher, SampleEpoch};
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
