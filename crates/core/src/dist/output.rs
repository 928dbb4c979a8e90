//! Fully distributed output collection (paper Section 5).
//!
//! Algorithm 1 leaves the sample *distributed*: every PE holds the subset
//! of sample members whose keys its own stream produced. Funnelling those
//! members through a root (`gather_sample`) re-introduces exactly the
//! Θ(β·k) bottleneck the algorithm's per-batch protocol avoids, so the
//! paper's Section 5 keeps the output where it is and instead makes the
//! *locations* globally known:
//!
//! 1. **finalize** — if the union of local reservoirs currently exceeds the
//!    sample size `k` (variable-size mode between selections, or a stream
//!    cut mid-window), one distributed selection for exact rank `k` fixes
//!    the final threshold; each PE's contribution is its keys at or below
//!    it. No items move.
//! 2. **place** — one 1-word all-reduce agrees on the global sample size
//!    and one 1-word exclusive prefix sum (`exscan`) gives every PE the
//!    offset of its slice: PE `i` owns global output positions
//!    `[offset_i, offset_i + n_i)`, where slices are ordered by PE rank and
//!    by key within a PE.
//!
//! Total communication: O(d · selection rounds + 1) words per PE at
//! O(α log p) latency — independent of both `k` and the stream length,
//! versus Θ(β·k + α log p) for the centralized gather. The result is a
//! [`SampleHandle`]: a root-free view through which the caller can
//! enumerate its slice with global indices, route members to output shards,
//! or spill them to local storage. Collecting the whole sample on one PE
//! (or on all PEs) remains available as an explicit, costed choice.

use std::io::{self, Write};
use std::ops::Range;
use std::sync::Arc;

use reservoir_comm::{Collectives, Communicator};

use crate::sample::SampleItem;

/// Wire representation of one sample member: `(id, weight, key)`.
type WireItem = (u64, f64, f64);

/// One PE's root-free view of the finalized distributed sample.
///
/// Produced collectively by
/// [`DistributedSampler::collect_output`](crate::dist::threaded::DistributedSampler::collect_output)
/// (and, for baseline comparisons,
/// [`GatherSampler::collect_output`](crate::dist::gather::GatherSampler::collect_output)).
/// The handle holds this PE's slice of the sample plus the global placement
/// metadata; all its inspection methods are local. [`Self::all_items`] and
/// [`Self::gather_to`] are collective conveniences that *do* move the
/// sample and are priced accordingly.
///
/// The slice lives in a buffer the sampler owns and shares with the
/// handle and its clones; cloning a handle copies no members. The
/// sampler refills that buffer at a later collection only once no handle
/// holds it any more, so a handle never changes: one kept across later
/// collections keeps its members, and those collections fill a new
/// buffer instead.
#[derive(Clone, Debug)]
pub struct SampleHandle {
    /// This PE's sample members, sorted by key.
    items: Arc<Vec<SampleItem>>,
    /// Global output position of `items[0]` (exclusive prefix count).
    offset: u64,
    /// Global sample size (sum of all PEs' slice lengths).
    total: u64,
    /// This PE's rank and the communicator size, for shard bookkeeping.
    pe: usize,
    pes: usize,
    /// The final insertion threshold, if one was established.
    threshold: Option<f64>,
}

impl SampleHandle {
    /// Assemble the handle collectively: agree on the global size and this
    /// PE's offset for its (key-sorted) `items`. Two 1-word collectives —
    /// the reference implementation of the engine's place step (which the
    /// production path runs through [`Self::from_parts`]).
    #[cfg(test)]
    pub(crate) fn assemble<C: Communicator>(
        comm: &C,
        items: Vec<SampleItem>,
        threshold: Option<f64>,
    ) -> SampleHandle {
        let local = items.len() as u64;
        let placement = crate::dist::engine::Placement {
            offset: comm.exscan_sum_u64(local),
            total: comm.sum_u64(local),
        };
        Self::from_parts(
            Arc::new(items),
            placement,
            comm.rank(),
            comm.size(),
            threshold,
        )
    }

    /// Build the handle over `items` from an already-agreed
    /// [`Placement`] — the engine's place step ran the collectives (or
    /// charged them, on the simulated backend).
    pub(crate) fn from_parts(
        items: Arc<Vec<SampleItem>>,
        placement: crate::dist::engine::Placement,
        pe: usize,
        pes: usize,
        threshold: Option<f64>,
    ) -> SampleHandle {
        debug_assert!(placement.offset + items.len() as u64 <= placement.total);
        SampleHandle {
            items,
            offset: placement.offset,
            total: placement.total,
            pe,
            pes,
            threshold,
        }
    }

    /// This PE's sample members, sorted by key.
    pub fn local_items(&self) -> &[SampleItem] {
        &self.items
    }

    /// Number of sample members on this PE.
    pub fn local_len(&self) -> u64 {
        self.items.len() as u64
    }

    /// Global sample size.
    pub fn total_len(&self) -> u64 {
        self.total
    }

    /// Whether the global sample is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Global output position of this PE's first member.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The half-open range of global output positions this PE owns.
    /// Ranges of different PEs partition `0..total_len()` in rank order.
    pub fn global_range(&self) -> Range<u64> {
        self.offset..self.offset + self.local_len()
    }

    /// This PE's rank.
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// Number of PEs the sample is distributed over.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// The final insertion threshold (`None` while the stream was still
    /// shorter than `k`). Every member's key is at or below it.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// Enumerate this PE's members with their global output positions.
    pub fn enumerate(&self) -> impl Iterator<Item = (u64, &SampleItem)> {
        self.items
            .iter()
            .enumerate()
            .map(move |(i, s)| (self.offset + i as u64, s))
    }

    /// Route this PE's members to `shards` output shards: yields
    /// `(shard, item)` with shards balanced by contiguous global position
    /// (shard `s` owns positions `[s·⌈total/shards⌉, …)`). No PE needs to
    /// see any other PE's members to compute a globally consistent routing.
    pub fn shards(&self, shards: u64) -> impl Iterator<Item = (u64, &SampleItem)> {
        assert!(shards >= 1, "at least one output shard");
        let per_shard = self.total.div_ceil(shards).max(1);
        self.enumerate()
            .map(move |(pos, s)| ((pos / per_shard).min(shards - 1), s))
    }

    /// Spill this PE's slice as tab-separated `position  id  weight  key`
    /// lines — the "write your part to local storage" exit of Section 5.
    /// Returns the number of members written.
    pub fn spill<W: Write>(&self, out: &mut W) -> io::Result<u64> {
        for (pos, s) in self.enumerate() {
            writeln!(out, "{pos}\t{}\t{}\t{}", s.id, s.weight, s.key)?;
        }
        Ok(self.local_len())
    }

    /// Collective: every PE receives the full sample in global output
    /// order. Moves Θ(β·k) words per PE (segmented all-gather) — the
    /// explicit, costed alternative to staying distributed.
    pub fn all_items<C: Communicator>(&self, comm: &C) -> Vec<SampleItem> {
        let wire: Vec<WireItem> = self.items.iter().map(|s| (s.id, s.weight, s.key)).collect();
        let (flat, counts) = comm.allgatherv(wire);
        debug_assert_eq!(counts.iter().sum::<u64>(), self.total);
        flat.into_iter()
            .map(|(id, weight, key)| SampleItem { id, weight, key })
            .collect()
    }

    /// Collective: gather the full sample at `root` (in global output
    /// order): `Some(sample)` there, `None` elsewhere. The Section 4.5-style
    /// root funnel, kept for comparison and for genuinely centralized sinks.
    pub fn gather_to<C: Communicator>(&self, comm: &C, root: usize) -> Option<Vec<SampleItem>> {
        let wire: Vec<WireItem> = self.items.iter().map(|s| (s.id, s.weight, s.key)).collect();
        comm.gather(root, wire).map(|parts| {
            parts
                .into_iter()
                .flatten()
                .map(|(id, weight, key)| SampleItem { id, weight, key })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reservoir_comm::run_threads;

    fn item(id: u64, key: f64) -> SampleItem {
        SampleItem {
            id,
            weight: 1.0,
            key,
        }
    }

    /// PE r holds r+1 items; offsets must form the exclusive prefix sums.
    fn handles(p: usize) -> Vec<SampleHandle> {
        run_threads(p, |comm| {
            let r = comm.rank() as u64;
            let items: Vec<SampleItem> = (0..=r).map(|i| item((r << 8) | i, i as f64)).collect();
            SampleHandle::assemble(&comm, items, Some(9.0))
        })
    }

    #[test]
    fn offsets_partition_the_global_range() {
        for p in [1usize, 2, 3, 5] {
            let hs = handles(p);
            let total = (p * (p + 1) / 2) as u64;
            let mut next = 0u64;
            for (r, h) in hs.iter().enumerate() {
                assert_eq!(h.total_len(), total);
                assert_eq!(h.offset(), next, "p={p} rank={r}");
                assert_eq!(h.global_range(), next..next + r as u64 + 1);
                assert_eq!(h.pe(), r);
                assert_eq!(h.pes(), p);
                next += h.local_len();
            }
            assert_eq!(next, total);
        }
    }

    #[test]
    fn enumerate_assigns_global_positions() {
        let hs = handles(3);
        let mut seen = Vec::new();
        for h in &hs {
            for (pos, s) in h.enumerate() {
                seen.push((pos, s.id));
            }
        }
        seen.sort_unstable();
        let positions: Vec<u64> = seen.iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn shards_are_contiguous_and_complete() {
        let hs = handles(4); // total = 10 members
        for shards in [1u64, 2, 3, 10, 64] {
            let mut per_shard = vec![0u64; shards as usize];
            let mut assignment = Vec::new();
            for h in &hs {
                for (shard, s) in h.shards(shards) {
                    assert!(shard < shards);
                    per_shard[shard as usize] += 1;
                    assignment.push((shard, s.id));
                }
            }
            assert_eq!(per_shard.iter().sum::<u64>(), 10);
            // Contiguity: shard indices are monotone in global position.
            let mut by_pos: Vec<(u64, u64)> = hs
                .iter()
                .flat_map(|h| h.enumerate().zip(h.shards(shards)))
                .map(|((pos, _), (shard, _))| (pos, shard))
                .collect();
            by_pos.sort_unstable();
            assert!(by_pos.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn spill_writes_one_line_per_member() {
        let hs = handles(2);
        let mut buf = Vec::new();
        let written = hs[1].spill(&mut buf).expect("in-memory write");
        assert_eq!(written, 2);
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("1\t")); // global position 1
        assert_eq!(lines[0].split('\t').count(), 4);
    }

    #[test]
    fn all_items_and_gather_to_agree_with_enumeration() {
        let p = 3;
        let results = run_threads(p, |comm| {
            let r = comm.rank() as u64;
            let items: Vec<SampleItem> = (0..=r).map(|i| item((r << 8) | i, i as f64)).collect();
            let h = SampleHandle::assemble(&comm, items, None);
            (h.clone(), h.all_items(&comm), h.gather_to(&comm, 0))
        });
        let (h0, all0, rooted) = &results[0];
        assert_eq!(all0.len() as u64, h0.total_len());
        // Every PE got the identical global order.
        for (_, all, _) in &results[1..] {
            assert_eq!(all, all0);
        }
        // The gathered copy at the root matches the all-gathered one.
        assert_eq!(rooted.as_ref().expect("root"), all0);
        assert!(results[1..].iter().all(|(_, _, g)| g.is_none()));
        // Positions line up with the concatenation order.
        for h in results.iter().map(|(h, _, _)| h) {
            for (pos, s) in h.enumerate() {
                assert_eq!(all0[pos as usize].id, s.id);
            }
        }
    }
}
