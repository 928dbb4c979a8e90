//! Always-fresh snapshot reads: an epoch-versioned view of the sample
//! published by the protocol while ingestion keeps running.
//!
//! Algorithm 1 leaves the sample implicit between `collect_output` calls;
//! a production sampler wants the opposite — a valid, consistent sample
//! *always* available, in the spirit of Jayaram et al.'s continuous
//! distributed sampling. This module supplies the read side: each
//! selection round (under [`ContinuousMode::EveryBatch`](crate::dist::ContinuousMode))
//! the engine assembles a finalized-to-`k` view through the existing
//! Section 5 finalize/place path and *publishes* it here as an immutable
//! [`SampleEpoch`] by swapping one `Arc` pointer under a mutex.
//!
//! The slot is a `Mutex<Arc<SampleEpoch>>` beside a publication counter:
//!
//! ```text
//!   publisher                          readers (any thread, any number)
//!   ─────────                          ────────────────────────────────
//!   next = Arc::new(epoch)             lock
//!   lock                               arc = cur.clone()     // Arc bump
//!   old = replace(cur, next)           unlock
//!   unlock; drop(old)
//!   latest.store(n, Release)
//! ```
//!
//! An epoch never changes once published, so a reader that cloned the
//! pointer holds a whole epoch for as long as it keeps it, and the lock
//! is held for one pointer clone or one pointer swap, never for an
//! allocation or a free. Neither can panic, so a publisher that dies
//! leaves the previous `Arc` installed and the last epoch readable
//! forever. The counter is stored only after the unlock, so a read that
//! starts after [`SnapshotReader::latest_epoch`] returned `n` returns an
//! epoch of at least `n`.
//!
//! Every epoch carries a checksum over its entire payload, which the
//! stress suite and the benchmark's reader recompute on every read. It
//! runs four independent multiply chains, so stamping or verifying a
//! k = 10⁴ epoch costs less than extracting that epoch's items from the
//! tree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use reservoir_obs::{LazyCounter, LazyGauge};

use crate::sample::SampleItem;

/// Epochs swapped into snapshot slots (all publishers in-process; the
/// engine's `engine_epochs_published_total` counts the protocol-level
/// publications that feed them).
static SNAPSHOT_PUBLICATIONS: LazyCounter = LazyCounter::new(
    "snapshot_publications_total",
    "sample epochs swapped into snapshot slots",
);
static SNAPSHOT_READS: LazyCounter = LazyCounter::new(
    "snapshot_reads_total",
    "consistent epoch reads served to snapshot readers",
);
static SNAPSHOT_READER_STALENESS: LazyGauge = LazyGauge::new(
    "snapshot_reader_staleness",
    "epochs behind the latest publication of the most recent snapshot read",
);

/// One immutable published view of the sample, as seen by this protocol
/// endpoint: its own finalized slice plus the global placement agreed by
/// the finalize/place collectives (the simulated conductor publishes the
/// whole cluster's sample with `pes` endpoint slices folded in).
#[derive(Clone, Debug, PartialEq)]
pub struct SampleEpoch {
    /// Publication counter, 1-based; 0 is the pre-publication genesis
    /// epoch (empty sample).
    pub epoch: u64,
    /// This endpoint's sample members at publication time, key-sorted,
    /// finalized to the global sample size (every key is at or below
    /// `threshold` when one exists).
    pub items: Vec<SampleItem>,
    /// Global output position of `items[0]` (exclusive prefix count).
    pub offset: u64,
    /// Global sample size across all endpoints.
    pub total: u64,
    /// This endpoint's rank and the number of endpoints.
    pub pe: usize,
    /// See [`Self::pe`].
    pub pes: usize,
    /// The finalization threshold, if one was established.
    pub threshold: Option<f64>,
    /// Selection rounds the finalization spent producing this epoch (0
    /// when the union already fit in `k`).
    pub rounds: u32,
    /// Four-lane multiply-rotate checksum over every field above: nine
    /// head words, then each item's id, weight bits and key bits. Any single
    /// changed word changes it with certainty, so a reader that recomputes
    /// it and matches holds an internally consistent epoch — the stress
    /// suite's torn-read oracle. A consistency witness, not a defence
    /// against deliberate forgery.
    pub checksum: u64,
}

/// Odd multiplier (⌊2⁶⁴/φ⌋), so multiplying by it permutes the `u64`s.
const LANE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Independent multiply chains; item `i` feeds lane `i % LANES`.
const LANES: usize = 4;
/// Distinct lane starting states (hex digits of π), plus one for the
/// head chain the lanes fold into.
const LANE_SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
const HEAD_SEED: u64 = 0x4528_21E6_38D0_1377;

/// Absorb word `w` into lane state `h`. For a fixed `w` this is a
/// bijection of `h` (xor, odd multiply and rotate all invert), so once a
/// word differs the lane state differs through every later step; the
/// rotate carries the product's well-mixed high bits down to where the
/// next multiply spreads them.
fn lane_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(LANE_MUL).rotate_left(29)
}

fn absorb_item(h: u64, s: &SampleItem) -> u64 {
    let h = lane_step(h, s.id);
    let h = lane_step(h, s.weight.to_bits());
    lane_step(h, s.key.to_bits())
}

/// The epoch checksum: the head words run through one chain, the items
/// through [`LANES`] interleaved chains (a quarter of the serial multiply
/// latency of one chain), and the lanes fold into the head chain in lane
/// order. A step is a bijection of the chain state for a fixed word and of
/// the word for a fixed state, so one changed word changes its chain's
/// state from there on, and with it the result.
fn lane_checksum(head: &[u64], items: &[SampleItem]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut quads = items.chunks_exact(LANES);
    for quad in &mut quads {
        for (h, s) in lanes.iter_mut().zip(quad) {
            *h = absorb_item(*h, s);
        }
    }
    for (h, s) in lanes.iter_mut().zip(quads.remainder()) {
        *h = absorb_item(*h, s);
    }
    let head = head.iter().fold(HEAD_SEED, |h, &w| lane_step(h, w));
    lanes.into_iter().fold(head, lane_step)
}

impl SampleEpoch {
    /// Assemble an epoch and stamp its checksum.
    #[allow(clippy::too_many_arguments)] // one field per parameter, in order
    pub fn new(
        epoch: u64,
        items: Vec<SampleItem>,
        offset: u64,
        total: u64,
        pe: usize,
        pes: usize,
        threshold: Option<f64>,
        rounds: u32,
    ) -> Self {
        let mut e = SampleEpoch {
            epoch,
            items,
            offset,
            total,
            pe,
            pes,
            threshold,
            rounds,
            checksum: 0,
        };
        e.checksum = e.compute_checksum();
        e
    }

    /// The epoch every slot starts from: number 0, empty sample.
    pub fn genesis(pe: usize, pes: usize) -> Self {
        Self::new(0, Vec::new(), 0, 0, pe, pes, None, 0)
    }

    /// Members this endpoint holds in this epoch.
    pub fn local_len(&self) -> u64 {
        self.items.len() as u64
    }

    /// The nine head words the checksum covers, in order.
    fn head_words(&self) -> [u64; 9] {
        [
            self.epoch,
            self.offset,
            self.total,
            self.pe as u64,
            self.pes as u64,
            // A separate discriminant word: folding `None` into a
            // sentinel bit pattern would collide with a real threshold
            // carrying that same pattern (u64::MAX is a NaN encoding),
            // letting two different epochs share a checksum.
            self.threshold.is_some() as u64,
            self.threshold.map_or(0, f64::to_bits),
            self.rounds as u64,
            self.items.len() as u64,
        ]
    }

    fn compute_checksum(&self) -> u64 {
        lane_checksum(&self.head_words(), &self.items)
    }

    /// Whether the stored checksum matches the payload — `false` means a
    /// torn or corrupted view. A published epoch never changes, so every
    /// epoch a [`SnapshotReader`] returns must verify.
    pub fn verify(&self) -> bool {
        self.checksum == self.compute_checksum()
    }
}

/// The shared slot: the current epoch's pointer, swapped and cloned
/// under one mutex.
struct Slot {
    cur: Mutex<Arc<SampleEpoch>>,
    /// Published-epoch counter, readable without touching the slot (the
    /// readers' staleness probe).
    latest: AtomicU64,
}

impl Slot {
    fn new(genesis: SampleEpoch) -> Self {
        Slot {
            cur: Mutex::new(Arc::new(genesis)),
            latest: AtomicU64::new(0),
        }
    }
}

/// The write side, owned by the protocol endpoint: swaps in a fresh
/// epoch per publication. One publisher per endpoint; the slot's mutex
/// orders each swap against every read.
pub struct EpochPublisher {
    slot: Arc<Slot>,
    published: u64,
}

impl EpochPublisher {
    /// A publisher over a fresh slot holding the genesis epoch for
    /// endpoint `pe` of `pes`.
    pub fn new(pe: usize, pes: usize) -> Self {
        EpochPublisher {
            slot: Arc::new(Slot::new(SampleEpoch::genesis(pe, pes))),
            published: 0,
        }
    }

    /// The next epoch number this publisher will assign.
    pub fn next_epoch(&self) -> u64 {
        self.published + 1
    }

    /// Epochs published so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Swap `epoch` in as the current view. A read racing this swap gets
    /// either the old epoch or the new one, never a mix. The epoch is
    /// boxed before the lock and the replaced one freed after it, so the
    /// critical section is one pointer swap.
    pub fn publish(&mut self, epoch: SampleEpoch) {
        debug_assert!(epoch.verify(), "publishing an inconsistent epoch");
        let next = Arc::new(epoch);
        // Poison-tolerant like `read`: neither critical section can
        // panic, and a swap leaves the slot valid at every step anyway.
        let mut cur = self.slot.cur.lock().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *cur, next);
        drop(cur);
        drop(old);
        self.published += 1;
        // After the unlock: a reader that sees `published` here locks
        // after this swap, so it reads this epoch or a later one.
        self.slot.latest.store(self.published, Ordering::Release);
        SNAPSHOT_PUBLICATIONS.inc();
    }

    /// A read handle over the same slot; clone freely across threads.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            slot: Arc::clone(&self.slot),
        }
    }
}

/// The read side: grab a consistent [`SampleEpoch`] at any time, from
/// any thread, without stopping ingestion. Cheap to clone; all clones
/// observe the same publication order.
#[derive(Clone)]
pub struct SnapshotReader {
    slot: Arc<Slot>,
}

impl SnapshotReader {
    /// The current epoch: a shared handle on the immutable epoch, no copy
    /// of the items. Takes the slot's mutex for one `Arc` clone, so it
    /// waits only while another thread holds the slot for its own clone
    /// or swap.
    pub fn read(&self) -> Arc<SampleEpoch> {
        let arc = Arc::clone(&self.slot.cur.lock().unwrap_or_else(PoisonError::into_inner));
        if reservoir_obs::enabled() {
            SNAPSHOT_READS.inc();
            let latest = self.slot.latest.load(Ordering::Acquire);
            SNAPSHOT_READER_STALENESS.set(latest.saturating_sub(arc.epoch) as f64);
        }
        arc
    }

    /// The number of the most recently published epoch, without reading
    /// it — a free staleness probe (`read().epoch` is at least this by
    /// the time the read returns, never more than one publication
    /// behind a concurrent publish).
    pub fn latest_epoch(&self) -> u64 {
        self.slot.latest.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn item(id: u64, key: f64) -> SampleItem {
        SampleItem {
            id,
            weight: 1.0,
            key,
        }
    }

    fn epoch(n: u64, len: u64) -> SampleEpoch {
        let items = (0..len).map(|i| item(n * 1000 + i, i as f64)).collect();
        SampleEpoch::new(n, items, 0, len, 0, 1, Some(0.5), 1)
    }

    #[test]
    fn genesis_is_readable_and_verifies() {
        let p = EpochPublisher::new(2, 8);
        let r = p.reader();
        let e = r.read();
        assert_eq!(e.epoch, 0);
        assert_eq!(e.local_len(), 0);
        assert_eq!((e.pe, e.pes), (2, 8));
        assert!(e.verify());
        assert_eq!(r.latest_epoch(), 0);
    }

    #[test]
    fn publish_then_read_round_trips() {
        let mut p = EpochPublisher::new(0, 1);
        let r = p.reader();
        for n in 1..=5u64 {
            p.publish(epoch(n, 10));
            let e = r.read();
            assert_eq!(e.epoch, n);
            assert_eq!(e.local_len(), 10);
            assert!(e.verify());
            assert_eq!(r.latest_epoch(), n);
        }
        assert_eq!(p.published(), 5);
        assert_eq!(p.next_epoch(), 6);
    }

    #[test]
    fn checksum_detects_tampering() {
        let mut e = epoch(3, 4);
        assert!(e.verify());
        e.items[2].key += 1.0;
        assert!(!e.verify(), "checksum must witness a torn payload");
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Exhaustive over a 5-item epoch: every bit of the 9 head words
        // and the 15 item words. Head words such as the threshold-present
        // flag or the item count have no field of their own to flip, so
        // the head is flipped at the word level `verify` hashes.
        let e = epoch(3, 5);
        assert!(e.verify());
        let head = e.head_words();
        let mut flips = 0;
        for word in 0..head.len() {
            for bit in 0..64 {
                let mut h = head;
                h[word] ^= 1 << bit;
                assert_ne!(
                    lane_checksum(&h, &e.items),
                    e.checksum,
                    "head word {word} bit {bit}"
                );
                flips += 1;
            }
        }
        for i in 0..e.items.len() {
            for field in 0..3 {
                for bit in 0..64 {
                    let mut torn = e.clone();
                    let s = &mut torn.items[i];
                    match field {
                        0 => s.id ^= 1 << bit,
                        1 => s.weight = f64::from_bits(s.weight.to_bits() ^ 1 << bit),
                        _ => s.key = f64::from_bits(s.key.to_bits() ^ 1 << bit),
                    }
                    assert!(!torn.verify(), "item {i} field {field} bit {bit}");
                    flips += 1;
                }
            }
        }
        assert_eq!(flips, (9 + 15) * 64);
    }

    #[test]
    fn reordered_items_are_detected() {
        let e = epoch(4, 6);
        let mut swapped = e.clone();
        swapped.items.swap(1, 2);
        assert!(!swapped.verify(), "neighbours in different lanes");
        let mut swapped = e.clone();
        swapped.items.swap(0, 4);
        assert!(!swapped.verify(), "two items of the same lane");
        let mut rotated = e.clone();
        rotated.items.rotate_right(1);
        assert!(!rotated.verify(), "last item moved to the front");
    }

    #[test]
    fn every_lane_remainder_verifies_and_covers_its_tail() {
        for len in [0, 1, 3, 4, 5, 7] {
            let e = epoch(9, len);
            assert!(e.verify(), "{len} items");
            if let Some(last) = e.items.len().checked_sub(1) {
                let mut torn = e.clone();
                torn.items[last].key += 1.0;
                assert!(!torn.verify(), "{len} items: last item unchecked");
            }
        }
    }

    #[test]
    fn checksum_distinguishes_absent_threshold_from_nan_patterns() {
        // Regression: `None` used to hash as the sentinel u64::MAX, which
        // is also a NaN bit pattern — an epoch whose threshold *is* that
        // NaN checksummed identically to one with no threshold at all.
        let items: Vec<SampleItem> = (0..4).map(|i| item(i, i as f64)).collect();
        let none = SampleEpoch::new(7, items.clone(), 0, 4, 0, 1, None, 1);
        let nan = SampleEpoch::new(
            7,
            items.clone(),
            0,
            4,
            0,
            1,
            Some(f64::from_bits(u64::MAX)),
            1,
        );
        assert!(none.verify() && nan.verify());
        assert_ne!(
            none.checksum, nan.checksum,
            "absent threshold must not collide with a NaN-threshold epoch"
        );
        // And a zero-bits threshold (+0.0) must not collide with `None`
        // either, now that the value word defaults to 0 for `None`.
        let zero = SampleEpoch::new(7, items, 0, 4, 0, 1, Some(0.0), 1);
        assert_ne!(none.checksum, zero.checksum);
    }

    #[test]
    fn a_held_epoch_outlives_later_publications() {
        let mut p = EpochPublisher::new(0, 1);
        let r = p.reader();
        p.publish(epoch(1, 10));
        let held = r.read();
        let at_read = SampleEpoch::clone(&held);
        for n in 2..=100u64 {
            p.publish(epoch(n, n % 13));
        }
        assert_eq!(
            *held, at_read,
            "a held epoch changed under later publications"
        );
        assert!(held.verify());
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the slot must release an epoch it replaced"
        );
        assert_eq!(r.read().epoch, 100);
    }

    #[test]
    fn latest_never_runs_ahead_of_the_slot() {
        // A reader holds the slot while a publication is under way. Had
        // the publisher advanced `latest` before its swap, a reader that
        // saw the new number could lock first and read the old epoch.
        let mut p = EpochPublisher::new(0, 1);
        let r = p.reader();
        let held = r.slot.cur.lock().unwrap();
        let started = std::sync::Barrier::new(2);
        let seen = std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                p.publish(epoch(1, 3));
            });
            started.wait();
            // Nothing marks the publisher as blocked on the lock, so give
            // it time to get there: a slow start can only let this test
            // pass without checking, never fail it.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let seen = r.latest_epoch();
            drop(held);
            seen
        });
        assert_eq!(seen, 0, "latest advanced while the swap was blocked");
        assert_eq!((r.latest_epoch(), r.read().epoch), (1, 1));
    }

    #[test]
    fn readers_race_publisher_without_torn_views() {
        let mut p = EpochPublisher::new(0, 1);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = p.reader();
                let stop = &stop;
                s.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let e = r.read();
                        assert!(e.verify(), "torn epoch {}", e.epoch);
                        assert!(e.epoch >= last, "epoch went backwards");
                        assert_eq!(e.local_len(), e.total, "mixed epochs");
                        last = e.epoch;
                    }
                });
            }
            for n in 1..=200u64 {
                p.publish(epoch(n, n % 7));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(p.reader().read().epoch, 200);
    }
}
