//! The per-PE local reservoir: an augmented B+ tree fed by jump scans.
//!
//! Two insertion regimes, matching Algorithm 1:
//!
//! * **Threshold mode** (`threshold = Some(t)`, the steady state): every
//!   item whose key falls below the globally agreed threshold `t` enters
//!   the tree. The scan never draws a key per item — it skips
//!   `Exp(t)`-distributed amounts of *weight* (weighted) or geometrically
//!   many *items* (uniform) between insertions, and gives each inserted
//!   item a key drawn from its conditional distribution given `key < t`.
//!   The tree grows during the batch; the caller prunes it after the next
//!   distributed selection.
//! * **Growing mode** (`threshold = None`): the global sample has not
//!   reached the target size yet, so no global threshold exists. The PE
//!   keeps its local `cap` smallest keys (a plain sequential reservoir) —
//!   a superset of this PE's contribution to any future global sample.
//!
//! The weighted scan processes items in blocks of 32, summing whole blocks
//! against the remaining skip before touching individual weights (the
//! Section 5 implementation trick; `benches/micro.rs` measures the gain).

use reservoir_btree::{BPlusTree, SampleKey};
use reservoir_rng::Rng64;
use reservoir_stream::Item;

use crate::sample::SampleItem;

/// Block width of the weighted skip scan.
const SCAN_BLOCK: usize = 32;

/// Work counters for one scan call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Items offered.
    pub processed: u64,
    /// Items that entered the reservoir.
    pub inserted: u64,
    /// Skip values drawn.
    pub jumps: u64,
    /// Chunks the parallel scan split the batch into (0 on the sequential
    /// path, which scans the batch in one piece).
    pub chunks: u64,
    /// Chunk tasks a pool worker took from another worker's queue
    /// (parallel scan only; 0 on the sequential path).
    pub steals: u64,
    /// OS threads spawned for this scan: `threads − 1` per batch on the
    /// default per-scope pool, 0 on the sequential path *and* on a
    /// persistent crew (`DistConfig::with_persistent_pool`), which is
    /// exactly the saving the persistent option buys.
    pub spawns: u64,
}

/// A PE's local reservoir over the augmented B+ tree.
pub struct LocalReservoir {
    cap: usize,
    tree: BPlusTree<SampleKey, f64>,
}

impl LocalReservoir {
    /// Reservoir capped at `cap` entries in growing mode, with B+ tree node
    /// degree `degree`.
    pub fn new(cap: usize, degree: usize) -> Self {
        assert!(cap >= 1, "reservoir capacity must be at least 1");
        LocalReservoir {
            cap,
            tree: BPlusTree::with_degree(degree),
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> u64 {
        self.tree.len() as u64
    }

    /// Whether the reservoir holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The underlying tree (a [`reservoir_select::CandidateSet`] for the
    /// distributed selection).
    pub fn tree(&self) -> &BPlusTree<SampleKey, f64> {
        &self.tree
    }

    /// Drop every entry with a key strictly above `t`.
    pub fn prune_above(&mut self, t: &SampleKey) {
        let _ = self.tree.split_at_key(t, true);
    }

    /// Current entries as sample items.
    pub fn items(&self) -> Vec<SampleItem> {
        let mut out = Vec::with_capacity(self.tree.len());
        self.items_into(&mut out);
        out
    }

    /// Write the current entries into `buf` (cleared first), reusing its
    /// allocation — the counterpart of `StreamSource::next_batch_of_into`
    /// for the finalize/output path, where the same buffer is refilled
    /// every batch.
    pub fn items_into(&self, buf: &mut Vec<SampleItem>) {
        buf.clear();
        extend_le(&self.tree, None, buf);
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.tree.clear();
    }

    /// Remove and return all entries.
    pub fn drain(&mut self) -> Vec<SampleItem> {
        let out = self.items();
        self.clear();
        out
    }

    /// Move all entries into `buf` (cleared first), reusing its
    /// allocation; the reservoir is left empty.
    pub fn drain_into(&mut self, buf: &mut Vec<SampleItem>) {
        self.items_into(buf);
        self.clear();
    }

    /// Scan a weighted mini-batch. With `threshold = Some(t)`, insert every
    /// item whose key falls below `t` (exponential jumps, conditional
    /// keys); with `None`, keep the local `cap` smallest keys.
    pub fn process_weighted(
        &mut self,
        items: &[Item],
        threshold: Option<f64>,
        rng: &mut impl Rng64,
    ) -> ScanStats {
        match threshold {
            Some(t) => self.scan_weighted_threshold(items, t, rng),
            None => self.grow_weighted(items, rng),
        }
    }

    /// Scan a uniform mini-batch (all weights 1). Same regimes as
    /// [`Self::process_weighted`], with geometric jumps and `U(0, t]`
    /// conditional keys.
    pub fn process_uniform(
        &mut self,
        items: &[Item],
        threshold: Option<f64>,
        rng: &mut impl Rng64,
    ) -> ScanStats {
        match threshold {
            Some(t) => self.scan_uniform_threshold(items, t, rng),
            None => self.grow_uniform(items, rng),
        }
    }

    /// Fixed-threshold weighted scan: blocked exponential jumps.
    fn scan_weighted_threshold(
        &mut self,
        items: &[Item],
        t: f64,
        rng: &mut impl Rng64,
    ) -> ScanStats {
        debug_assert!(t > 0.0, "threshold must be positive");
        let mut stats = ScanStats {
            processed: items.len() as u64,
            ..ScanStats::default()
        };
        if items.is_empty() {
            // Draw-free on empty batches: the exponential jump sequence is
            // drawn fresh each batch, so skipping the initial draw changes
            // no insertion law — and it makes an empty batch consume zero
            // randomness on every scan path (the sharded sparse-batch fast
            // path leans on this to skip fleet-empty shards entirely).
            return stats;
        }
        let mut skip = rng.exponential(t);
        stats.jumps += 1;
        let mut i = 0;
        while i < items.len() {
            let end = (i + SCAN_BLOCK).min(items.len());
            let block_weight: f64 = items[i..end].iter().map(|it| it.weight).sum();
            if skip > block_weight {
                // The whole block is skipped: one subtraction, no keys.
                skip -= block_weight;
                i = end;
                continue;
            }
            for item in &items[i..end] {
                skip -= item.weight;
                if skip <= 0.0 {
                    // This item crosses the jump boundary: its key is
                    // conditioned on beating the threshold (Section 4.1).
                    let x = (-t * item.weight).exp();
                    let v = -rng.rand_range_oc(x, 1.0).ln() / item.weight;
                    self.tree.insert(SampleKey::new(v, item.id), item.weight);
                    stats.inserted += 1;
                    skip = rng.exponential(t);
                    stats.jumps += 1;
                }
            }
            i = end;
        }
        stats
    }

    /// Fixed-threshold uniform scan: geometric jumps over item counts.
    fn scan_uniform_threshold(
        &mut self,
        items: &[Item],
        t: f64,
        rng: &mut impl Rng64,
    ) -> ScanStats {
        debug_assert!(t > 0.0);
        let mut stats = ScanStats {
            processed: items.len() as u64,
            ..ScanStats::default()
        };
        if t >= 1.0 {
            // Degenerate threshold: every key qualifies.
            for item in items {
                let v = rng.rand_oc();
                self.tree.insert(SampleKey::new(v, item.id), item.weight);
                stats.inserted += 1;
            }
            return stats;
        }
        let mut next = 0u64;
        let n = items.len() as u64;
        while next < n {
            let skip = rng.geometric_skips(t);
            stats.jumps += 1;
            if skip >= n - next {
                break;
            }
            next += skip;
            let item = &items[next as usize];
            // Key conditioned on < t: uniform in (0, t].
            let v = rng.rand_oc() * t;
            self.tree.insert(SampleKey::new(v, item.id), item.weight);
            stats.inserted += 1;
            next += 1;
        }
        stats
    }

    /// Growing-phase weighted scan: a sequential jump reservoir over the
    /// local `cap` smallest keys.
    fn grow_weighted(&mut self, items: &[Item], rng: &mut impl Rng64) -> ScanStats {
        let mut stats = ScanStats {
            processed: items.len() as u64,
            ..ScanStats::default()
        };
        let mut iter = items.iter();
        // Fill phase: every item draws a key and enters.
        for item in iter.by_ref() {
            if self.tree.len() >= self.cap {
                // Un-consume is impossible; handle this item in the jump
                // phase by seeding the scan with it.
                self.grow_weighted_jump(item, iter.as_slice(), rng, &mut stats);
                return stats;
            }
            let v = rng.exponential(item.weight);
            self.tree.insert(SampleKey::new(v, item.id), item.weight);
            stats.inserted += 1;
        }
        stats
    }

    /// Jump phase of the growing weighted scan, starting at `first` then
    /// continuing over `rest`.
    fn grow_weighted_jump(
        &mut self,
        first: &Item,
        rest: &[Item],
        rng: &mut impl Rng64,
        stats: &mut ScanStats,
    ) {
        let mut t = self.local_threshold().expect("tree at capacity");
        let mut skip = rng.exponential(t);
        stats.jumps += 1;
        for item in std::iter::once(first).chain(rest) {
            skip -= item.weight;
            if skip > 0.0 {
                continue;
            }
            let x = (-t * item.weight).exp();
            let v = -rng.rand_range_oc(x, 1.0).ln() / item.weight;
            self.replace_max(SampleKey::new(v, item.id), item.weight);
            stats.inserted += 1;
            t = self.local_threshold().expect("tree at capacity");
            skip = rng.exponential(t);
            stats.jumps += 1;
        }
    }

    /// Growing-phase uniform scan.
    fn grow_uniform(&mut self, items: &[Item], rng: &mut impl Rng64) -> ScanStats {
        let mut stats = ScanStats {
            processed: items.len() as u64,
            ..ScanStats::default()
        };
        let mut idx = 0usize;
        // Fill phase.
        while idx < items.len() && self.tree.len() < self.cap {
            let item = &items[idx];
            let v = rng.rand_oc();
            self.tree.insert(SampleKey::new(v, item.id), item.weight);
            stats.inserted += 1;
            idx += 1;
        }
        // Jump phase against the evolving local threshold.
        while idx < items.len() {
            let t = self.local_threshold().expect("tree at capacity");
            if t >= 1.0 {
                // Cannot skip; fall back to a direct draw.
                let item = &items[idx];
                let v = rng.rand_oc();
                if v < t {
                    self.replace_max(SampleKey::new(v, item.id), item.weight);
                    stats.inserted += 1;
                }
                idx += 1;
                continue;
            }
            let skip = rng.geometric_skips(t);
            stats.jumps += 1;
            let remaining = (items.len() - idx) as u64;
            if skip >= remaining {
                break;
            }
            idx += skip as usize;
            let item = &items[idx];
            let v = rng.rand_oc() * t;
            self.replace_max(SampleKey::new(v, item.id), item.weight);
            stats.inserted += 1;
            idx += 1;
        }
        stats
    }

    /// The local threshold in growing mode: the largest key held, once the
    /// tree is at capacity.
    fn local_threshold(&self) -> Option<f64> {
        (self.tree.len() >= self.cap).then(|| self.tree.max().expect("at capacity").0.key)
    }

    /// Insert `key` and evict the largest entry (growing mode at capacity).
    fn replace_max(&mut self, key: SampleKey, weight: f64) {
        let max = *self.tree.max().expect("nonempty").0;
        debug_assert!(key <= max, "replacement key must beat the local threshold");
        self.tree.insert(key, weight);
        self.tree.remove(&max);
    }
}

/// Append `tree`'s entries with keys at or below `t` (`None` = all) to
/// `buf`, one leaf slice at a time; the walk ends at the first leaf that
/// holds a key above `t`. Only that leaf is searched: every leaf before it
/// is kept whole on one comparison with its last key, which costs far less
/// than a binary search per leaf.
fn extend_le(tree: &BPlusTree<SampleKey, f64>, t: Option<&SampleKey>, buf: &mut Vec<SampleItem>) {
    for leaf in tree.leaves() {
        let keep = match t {
            Some(t) if leaf.last().is_some_and(|(k, _)| k > t) => {
                leaf.partition_point(|(k, _)| k <= t)
            }
            _ => leaf.len(),
        };
        buf.extend(
            leaf[..keep]
                .iter()
                .map(|(k, w)| SampleItem::from_entry(k, *w)),
        );
        if keep < leaf.len() {
            break;
        }
    }
}

/// What one [`PeReservoir::process`] call did: the scan counters plus the
/// parallel path's timing detail.
pub(crate) struct ScanOutcome {
    /// The (backend-agnostic) scan counters.
    pub stats: ScanStats,
    /// Busiest worker's seconds inside the parallel scan region (0 on the
    /// sequential path); accrues into [`crate::metrics::PhaseTimes::par_scan`].
    pub par_scan_max_s: f64,
    /// The full per-worker breakdown (parallel path only).
    pub par: Option<reservoir_par::ParScanStats>,
}

/// A PE's local reservoir behind the `threads_per_pe` knob: the
/// sequential [`LocalReservoir`] at one thread, `reservoir_par`'s chunked
/// work-stealing scan above that. Both realize the identical sampling law
/// (the paper's Section 4 regimes) over the same `Box`-node B+ tree; only
/// the scan schedule differs.
pub(crate) enum PeReservoir {
    /// `threads_per_pe == 1`: the classic sequential jump scan, drawing
    /// from the caller's key RNG.
    Seq(LocalReservoir),
    /// `threads_per_pe > 1`: chunked parallel scans with per-chunk RNG
    /// streams rooted at the PE's dedicated parallel-scan seed, merged by
    /// a sequential epilogue.
    Par(reservoir_par::ParLocalReservoir),
}

impl PeReservoir {
    /// Build from a [`DistConfig`](crate::dist::DistConfig)'s scan knobs
    /// with capacity `cap`. `par_seed` roots the parallel path's
    /// per-chunk streams (unused sequentially); `persistent_pool` keeps
    /// one worker crew alive across batches instead of spawning helpers
    /// per scan (`reservoir_par::Pool::persistent`).
    pub fn for_config(cfg: &crate::dist::DistConfig, cap: usize, par_seed: u64) -> Self {
        let degree = reservoir_btree::DEFAULT_DEGREE;
        let threads = cfg.threads_per_pe;
        if threads <= 1 {
            return PeReservoir::Seq(LocalReservoir::new(cap, degree));
        }
        let mut par = reservoir_par::ParLocalReservoir::new(cap, degree, threads, par_seed);
        if cfg.persistent_pool {
            par = par.with_pool(reservoir_par::Pool::persistent(threads));
        }
        PeReservoir::Par(par)
    }

    /// The local tree: the candidate set the distributed selection runs
    /// over.
    pub fn tree(&self) -> &BPlusTree<SampleKey, f64> {
        match self {
            PeReservoir::Seq(r) => r.tree(),
            PeReservoir::Par(r) => r.tree(),
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> u64 {
        self.tree().len() as u64
    }

    /// Number of keys at or below `t`.
    pub fn count_le(&self, t: &SampleKey) -> u64 {
        self.tree().count_le(t) as u64
    }

    /// Drop every entry with a key strictly above `t`.
    pub fn prune_above(&mut self, t: &SampleKey) {
        match self {
            PeReservoir::Seq(r) => r.prune_above(t),
            PeReservoir::Par(r) => r.prune_above(t),
        }
    }

    /// Current entries as sample items.
    pub fn items(&self) -> Vec<SampleItem> {
        let mut out = Vec::with_capacity(self.len() as usize);
        self.items_le_into(None, &mut out);
        out
    }

    /// Write the entries with keys at or below `t` (`None` = all) into
    /// `buf` (cleared first), reusing its allocation — the output
    /// extraction. The leaf walk emits in ascending key order and stops at
    /// the first key past `t`, so no entry above it is copied.
    pub fn items_le_into(&self, t: Option<&SampleKey>, buf: &mut Vec<SampleItem>) {
        buf.clear();
        extend_le(self.tree(), t, buf);
    }

    /// Move all entries into `buf` (cleared first), reusing its allocation.
    pub fn drain_into(&mut self, buf: &mut Vec<SampleItem>) {
        self.items_le_into(None, buf);
        match self {
            PeReservoir::Seq(r) => r.clear(),
            PeReservoir::Par(r) => r.clear(),
        }
    }

    /// Scan one mini-batch in the given sampling mode. The sequential path
    /// consumes `rng`; the parallel path uses its own per-chunk streams.
    pub fn process(
        &mut self,
        mode: crate::dist::SamplingMode,
        items: &[Item],
        threshold: Option<f64>,
        rng: &mut impl Rng64,
    ) -> ScanOutcome {
        use crate::dist::SamplingMode;
        match self {
            PeReservoir::Seq(r) => {
                let stats = match mode {
                    SamplingMode::Weighted => r.process_weighted(items, threshold, rng),
                    SamplingMode::Uniform => r.process_uniform(items, threshold, rng),
                };
                ScanOutcome {
                    stats,
                    par_scan_max_s: 0.0,
                    par: None,
                }
            }
            PeReservoir::Par(r) => {
                let par = match mode {
                    SamplingMode::Weighted => r.process_weighted(items, threshold),
                    SamplingMode::Uniform => r.process_uniform(items, threshold),
                };
                Self::par_outcome(par)
            }
        }
    }

    /// Account for a mini-batch this reservoir never saw — the sharded
    /// sparse-batch fast path, which skips the scan (and the engine step)
    /// for shards whose bucket is empty fleet-wide. Equivalent to
    /// `process` on an empty slice: the sequential scan draws nothing on
    /// an empty batch, and the parallel path only advances its batch
    /// counter (which roots the per-chunk RNG streams), so the sampling
    /// trajectory stays byte-identical to processing the empty bucket.
    pub fn skip_batch(&mut self) {
        if let PeReservoir::Par(r) = self {
            r.note_empty_batch();
        }
    }

    fn par_outcome(par: reservoir_par::ParScanStats) -> ScanOutcome {
        ScanOutcome {
            stats: ScanStats {
                processed: par.processed,
                inserted: par.inserted,
                jumps: par.jumps,
                chunks: par.chunks,
                steals: par.steals,
                spawns: par.spawns,
            },
            par_scan_max_s: par.max_worker_scan_s(),
            par: Some(par),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reservoir_rng::default_rng;

    fn batch(n: u64, weight: impl Fn(u64) -> f64) -> Vec<Item> {
        (0..n).map(|i| Item::new(i, weight(i))).collect()
    }

    #[test]
    fn threshold_scan_inserts_only_below_threshold() {
        let mut r = LocalReservoir::new(8, 32);
        let mut rng = default_rng(1);
        let t = 0.01;
        let stats = r.process_weighted(&batch(10_000, |_| 1.0), Some(t), &mut rng);
        assert_eq!(stats.processed, 10_000);
        assert_eq!(stats.inserted, r.len());
        // E[inserted] = n (1 - e^{-t}) ≈ 99.5.
        assert!((30..300).contains(&stats.inserted), "{}", stats.inserted);
        assert!(r.items().iter().all(|s| s.key <= t));
    }

    #[test]
    fn threshold_scan_matches_bernoulli_rate() {
        // P(key < t) = 1 - e^{-t w}; check the aggregate insertion rate.
        let t = 0.05;
        let w = 2.0f64;
        let expect = 1.0 - (-t * w).exp();
        let mut total = 0u64;
        let n = 20_000u64;
        for seed in 0..10 {
            let mut r = LocalReservoir::new(8, 32);
            let mut rng = default_rng(seed);
            total += r
                .process_weighted(&batch(n, |_| w), Some(t), &mut rng)
                .inserted;
        }
        let rate = total as f64 / (10 * n) as f64;
        assert!(
            (rate - expect).abs() < 0.1 * expect,
            "rate {rate} vs {expect}"
        );
    }

    #[test]
    fn growing_mode_keeps_cap_smallest() {
        let mut r = LocalReservoir::new(50, 32);
        let mut rng = default_rng(3);
        let stats = r.process_weighted(&batch(5_000, |i| 1.0 + (i % 7) as f64), None, &mut rng);
        assert_eq!(r.len(), 50);
        assert_eq!(stats.processed, 5_000);
        // Jump scanning touches far fewer items than it processes.
        assert!(stats.inserted < 1_500, "{}", stats.inserted);
        let items = r.items();
        let max = items.iter().map(|s| s.key).fold(f64::MIN, f64::max);
        assert_eq!(r.local_threshold(), Some(max));
    }

    #[test]
    fn growing_mode_partial_fill() {
        let mut r = LocalReservoir::new(100, 32);
        let mut rng = default_rng(4);
        r.process_weighted(&batch(30, |_| 1.0), None, &mut rng);
        assert_eq!(r.len(), 30);
        // A second batch continues filling, then spills into jumps.
        r.process_weighted(&batch(500, |_| 1.0), None, &mut rng);
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn uniform_threshold_scan_rate_and_range() {
        let t = 0.02;
        let n = 50_000u64;
        let mut r = LocalReservoir::new(8, 32);
        let mut rng = default_rng(5);
        let stats = r.process_uniform(&batch(n, |_| 1.0), Some(t), &mut rng);
        let expect = n as f64 * t;
        assert!(
            (stats.inserted as f64 - expect).abs() < 6.0 * expect.sqrt() + 10.0,
            "inserted {} vs {expect}",
            stats.inserted
        );
        assert!(r.items().iter().all(|s| s.key > 0.0 && s.key <= t));
    }

    #[test]
    fn uniform_growing_mode_inclusion() {
        // Inclusion of the last item must be cap/n.
        let n = 400u64;
        let cap = 20usize;
        let trials = 3_000u64;
        let mut hits = 0u32;
        for seed in 0..trials {
            let mut r = LocalReservoir::new(cap, 32);
            let mut rng = default_rng(seed);
            r.process_uniform(&batch(n, |_| 1.0), None, &mut rng);
            if r.items().iter().any(|s| s.id == n - 1) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        let expect = cap as f64 / n as f64;
        assert!((frac - expect).abs() < 0.015, "{frac} vs {expect}");
    }

    #[test]
    fn prune_and_drain() {
        let mut r = LocalReservoir::new(10, 32);
        let mut rng = default_rng(6);
        r.process_weighted(&batch(200, |_| 1.0), None, &mut rng);
        let items = r.items();
        let mut keys: Vec<f64> = items.iter().map(|s| s.key).collect();
        keys.sort_by(f64::total_cmp);
        let cut = SampleKey::new(keys[4], u64::MAX);
        r.prune_above(&cut);
        assert_eq!(r.len(), 5);
        let drained = r.drain();
        assert_eq!(drained.len(), 5);
        assert!(r.is_empty());
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut r = LocalReservoir::new(10, 32);
        let mut rng = default_rng(7);
        let s1 = r.process_weighted(&[], Some(0.5), &mut rng);
        let s2 = r.process_weighted(&[], None, &mut rng);
        let s3 = r.process_uniform(&[], Some(0.5), &mut rng);
        assert_eq!(s1.inserted + s2.inserted + s3.inserted, 0);
        assert!(r.is_empty());
    }
}
