//! The per-PE local reservoir: an augmented B+ tree fed by chunked jump
//! scans.
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
//!   draws every item's key and keeps its local `cap` smallest — a
//!   superset of this PE's contribution to any future global sample.
//!
//! The weighted scan processes items in blocks of 32, summing whole blocks
//! against the remaining skip before touching individual weights (the
//! Section 5 implementation trick; no benchmark in the tree isolates its
//! gain).
//!
//! ## One scan at every width
//!
//! A batch splits into fixed [`DEFAULT_CHUNK_ITEMS`] chunks, and chunk `c`
//! of the reservoir's `b`-th batch draws from its own RNG stream, derived
//! from `(seed, b, c)` through [`SeedSequence`]. Exponential and geometric
//! skips are **memoryless**, so a scan that restarts its skip clock at a
//! chunk boundary draws each item's inclusion from exactly the same law
//! (Hübschle-Schneider & Sanders, *Parallel Weighted Random Sampling*):
//! the partition changes which stream serves an item, never its inclusion
//! probability or conditional key law. The candidates therefore depend on
//! the seed and the batch sequence alone, and one chunk kernel per regime
//! serves every width, generic over where a candidate goes:
//!
//! * **Inline** — on a one-worker [`Pool`], or for a one-chunk batch, the
//!   kernels run chunk after chunk on the calling thread, straight into
//!   the tree: no pool run, no lock, no buffer. Growing mode keeps the
//!   tree at `cap` by evicting its largest entry, so the bound a key must
//!   beat is always the exact local threshold. The eviction is
//!   [`BPlusTree::pop_max`], in place and O(log n) per kept key.
//! * **Pooled** — a multi-chunk batch on a pool with helpers runs one task
//!   per chunk ([`Pool::run`]) into a per-chunk buffer, and a sequential
//!   epilogue merges the buffers in chunk order. In threshold mode that is
//!   the inline insertion sequence exactly. In growing mode the chunks
//!   filter against a **relaxed snapshot of a shared bound**: an
//!   `AtomicU64` (f64 bits — bit order equals numeric order for the
//!   positive keys) that starts at the pre-batch local threshold (or +∞)
//!   and is `fetch_min`-lowered to each buffer's own `cap`-th smallest key
//!   as buffers fill. Every published value is the `cap`-th smallest of a
//!   *subset* of the final key multiset, hence an upper bound on the final
//!   threshold, so the filter only discards keys that cannot be among the
//!   final `cap` smallest, however stale the snapshot a worker read; the
//!   epilogue re-prunes to the `cap` smallest.
//!
//! Either way the reservoir ends as the same key set — independent of
//! snapshot timing, of which worker ran which chunk and of the thread
//! count — so a fixed seed gives one sample at every `threads_per_pe`.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use reservoir_btree::{BPlusTree, SampleKey};
use reservoir_par::{Pool, ScopeReport};
use reservoir_rng::{DefaultRng, Rng64, SeedSequence, StreamKind};
use reservoir_stream::Item;

use crate::dist::SamplingMode;
use crate::sample::SampleItem;

/// Block width of the weighted skip scan.
const SCAN_BLOCK: usize = 32;

/// Items per chunk. Fixed (not derived from the thread count) so the
/// candidate set — and therefore the reservoir — is identical for every
/// thread count under the same seed.
pub const DEFAULT_CHUNK_ITEMS: usize = 4096;

/// Stream tag of a PE's scan root, below the sampler's master seed.
const PAR_SCAN_STREAM: u16 = 0x5041; // "PA"
/// Stream tag for the per-batch seed derivation level.
const BATCH_STREAM: u16 = 0x7062;
/// Stream tag for the per-chunk seed derivation level.
const CHUNK_STREAM: u16 = 0x7063;

/// Work counters for one scan call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Items offered.
    pub processed: u64,
    /// Items that entered the reservoir (in growing mode, counted before
    /// evictions and the pooled epilogue's re-prune to `cap`).
    pub inserted: u64,
    /// Skip values drawn.
    pub jumps: u64,
    /// Chunks the batch was split into, one RNG stream each.
    pub chunks: u64,
}

/// A PE's local reservoir over the augmented B+ tree.
pub struct LocalReservoir {
    cap: usize,
    tree: BPlusTree<SampleKey, f64>,
    pool: Pool,
    chunk_items: usize,
    seeds: SeedSequence,
    batch_no: u64,
    /// The pool's report for the most recent batch, if it ran pooled.
    last_scope: Option<ScopeReport>,
}

impl LocalReservoir {
    /// Reservoir capped at `cap` entries in growing mode, B+ tree node
    /// degree `degree`, multi-chunk scans on `pool`'s workers (pass a
    /// clone to share one crew across reservoirs), RNG streams rooted at
    /// `seed` (derive it per PE so PEs stay independent).
    pub fn new(cap: usize, degree: usize, pool: Pool, seed: u64) -> Self {
        assert!(cap >= 1, "reservoir capacity must be at least 1");
        LocalReservoir {
            cap,
            tree: BPlusTree::with_degree(degree),
            pool,
            chunk_items: DEFAULT_CHUNK_ITEMS,
            seeds: SeedSequence::new(seed),
            batch_no: 0,
            last_scope: None,
        }
    }

    /// PE `rank`'s reservoir under a sampler's master seed sequence
    /// `master`: default node degree, RNG streams rooted at the PE's scan
    /// stream — the one derivation every real backend uses.
    pub(crate) fn for_pe(cap: usize, pool: Pool, master: &SeedSequence, rank: usize) -> Self {
        let seed = master.seed_for(rank, StreamKind::Custom(PAR_SCAN_STREAM));
        Self::new(cap, reservoir_btree::DEFAULT_DEGREE, pool, seed)
    }

    /// Override the items-per-chunk granularity (testing / benchmarking).
    /// The chunk size is part of the sample's derivation: the same seed
    /// gives the same sample only at the same chunk size.
    pub fn with_chunk_items(mut self, chunk_items: usize) -> Self {
        assert!(chunk_items >= 1, "chunks must hold at least one item");
        self.chunk_items = chunk_items;
        self
    }

    /// The pool multi-chunk scans run on.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Number of entries currently held.
    pub fn len(&self) -> u64 {
        self.tree.len() as u64
    }

    /// Whether the reservoir holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The underlying tree: the candidate set the distributed selection
    /// runs over.
    pub fn tree(&self) -> &BPlusTree<SampleKey, f64> {
        &self.tree
    }

    /// Number of keys at or below `t`.
    pub fn count_le(&self, t: &SampleKey) -> u64 {
        self.tree.count_le(t) as u64
    }

    /// Drop every entry with a key strictly above `t`.
    pub fn prune_above(&mut self, t: &SampleKey) {
        let _ = self.tree.split_at_key(t, true);
    }

    /// Current entries as sample items.
    pub fn items(&self) -> Vec<SampleItem> {
        let mut out = Vec::with_capacity(self.tree.len());
        self.items_le_into(None, &mut out);
        out
    }

    /// Write the entries with keys at or below `t` (`None` = all) into
    /// `buf` (cleared first), reusing its allocation — the output
    /// extraction. The leaf walk emits in ascending key order and stops at
    /// the first key past `t`, so no entry above it is copied.
    pub fn items_le_into(&self, t: Option<&SampleKey>, buf: &mut Vec<SampleItem>) {
        buf.clear();
        extend_le(&self.tree, t, buf);
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.tree.clear();
    }

    /// Move all entries into `buf` (cleared first), reusing its
    /// allocation; the reservoir is left empty.
    pub fn drain_into(&mut self, buf: &mut Vec<SampleItem>) {
        self.items_le_into(None, buf);
        self.clear();
    }

    /// The pool's report (tasks, per-worker busy seconds) for the most
    /// recent batch; `None` when it ran inline or before the first batch.
    pub fn last_scope(&self) -> Option<&ScopeReport> {
        self.last_scope.as_ref()
    }

    /// The busiest worker's seconds in the most recent batch's pool scope
    /// (0 when it ran inline): its share of `PhaseTimes::par_scan`.
    pub(crate) fn last_scope_max_busy_s(&self) -> f64 {
        self.last_scope
            .as_ref()
            .map_or(0.0, ScopeReport::max_busy_s)
    }

    /// Account for a mini-batch this reservoir never saw — the sharded
    /// sparse-batch fast path. Advances the batch counter that roots the
    /// per-chunk RNG streams, exactly as processing an empty slice would,
    /// so a skipped shard's later samples stay byte-identical to a
    /// scanned-empty one's. O(1): no RNG draws.
    pub fn skip_batch(&mut self) {
        self.batch_no += 1;
        self.last_scope = None;
    }

    /// Scan a weighted mini-batch: with `threshold = Some(t)` insert every
    /// item whose key falls below `t` (exponential jumps, conditional
    /// keys); with `None` keep the local `cap` smallest keys.
    pub fn process_weighted(&mut self, items: &[Item], threshold: Option<f64>) -> ScanStats {
        self.process(SamplingMode::Weighted, items, threshold)
    }

    /// Scan a uniform mini-batch (all weights 1): geometric jumps and
    /// `U(0, t]` conditional keys; same regimes as
    /// [`Self::process_weighted`].
    pub fn process_uniform(&mut self, items: &[Item], threshold: Option<f64>) -> ScanStats {
        self.process(SamplingMode::Uniform, items, threshold)
    }

    /// Scan one mini-batch in the given sampling mode: inline when the
    /// pool has one worker or the batch one chunk, pooled otherwise.
    pub fn process(
        &mut self,
        mode: SamplingMode,
        items: &[Item],
        threshold: Option<f64>,
    ) -> ScanStats {
        self.batch_no += 1;
        self.last_scope = None;
        let mut stats = ScanStats {
            processed: items.len() as u64,
            ..ScanStats::default()
        };
        if items.is_empty() {
            return stats;
        }
        if let Some(t) = threshold {
            debug_assert!(t > 0.0, "threshold must be positive");
        }
        let batch = SeedSequence::new(
            self.seeds
                .seed_for(self.batch_no as usize, StreamKind::Custom(BATCH_STREAM)),
        );
        let uniform = mode == SamplingMode::Uniform;
        // Threshold mode never evicts: its tree grows until the next prune.
        let cap = if threshold.is_some() {
            usize::MAX
        } else {
            self.cap
        };
        let chunks = items.chunks(self.chunk_items);

        if self.pool.threads() == 1 || items.len() <= self.chunk_items {
            let mut sink = TreeSink::new(&mut self.tree, cap);
            for (c, chunk) in chunks.enumerate() {
                let mut rng = batch.rng_for(c, StreamKind::Custom(CHUNK_STREAM));
                stats.jumps += scan_chunk(chunk, threshold, uniform, &mut rng, &mut sink);
                stats.chunks += 1;
            }
            stats.inserted = sink.inserted;
            return stats;
        }

        let shared = AtomicU64::new(local_threshold(&self.tree, cap).to_bits());
        let slots: Vec<Mutex<ChunkOut>> = (0..chunks.len()).map(|_| Mutex::default()).collect();
        stats.chunks = slots.len() as u64;
        let report = self.pool.run(chunks.len(), |c| {
            // `Chunks::nth` computes the chunk's bounds: O(1), no walk.
            let chunk = chunks.clone().nth(c).expect("one task per chunk");
            let mut rng = batch.rng_for(c, StreamKind::Custom(CHUNK_STREAM));
            let mut buf = ChunkBuf::new(&shared, cap);
            let jumps = scan_chunk(chunk, threshold, uniform, &mut rng, &mut buf);
            *slots[c].lock().expect("chunk slot poisoned") = (buf.candidates, jumps);
        });
        // Sequential epilogue: merge every chunk's survivors in chunk
        // order, then re-prune growing mode to the cap smallest of the
        // merged multiset.
        for slot in slots {
            let (candidates, jumps) = slot.into_inner().expect("chunk slot poisoned");
            stats.jumps += jumps;
            stats.inserted += candidates.len() as u64;
            for (key, weight) in candidates {
                self.tree.insert(key, weight);
            }
        }
        if self.tree.len() > cap {
            let _ = self.tree.split_at_rank(cap);
        }
        self.last_scope = Some(report);
        stats
    }
}

/// One pooled chunk's survivors and its skip count.
type ChunkOut = (Vec<(SampleKey, f64)>, u64);

/// The growing-mode bound of a reservoir capped at `cap`: its largest key
/// once it holds `cap` entries, +∞ before.
fn local_threshold(tree: &BPlusTree<SampleKey, f64>, cap: usize) -> f64 {
    if tree.len() >= cap {
        tree.max().expect("at capacity").0.key
    } else {
        f64::INFINITY
    }
}

/// Where a chunk kernel sends its candidates.
trait Sink {
    /// Growing mode: an upper bound on the reservoir's final `cap`-th
    /// smallest key. A key at or above it can never be kept.
    fn bound(&self) -> f64;
    /// Take one candidate.
    fn push(&mut self, key: SampleKey, weight: f64);
}

/// The inline sink: candidates go straight into the tree, which growing
/// mode holds at `cap` by evicting its largest entry.
struct TreeSink<'a> {
    tree: &'a mut BPlusTree<SampleKey, f64>,
    cap: usize,
    bound: f64,
    inserted: u64,
}

impl<'a> TreeSink<'a> {
    fn new(tree: &'a mut BPlusTree<SampleKey, f64>, cap: usize) -> Self {
        let bound = local_threshold(tree, cap);
        TreeSink {
            tree,
            cap,
            bound,
            inserted: 0,
        }
    }
}

impl Sink for TreeSink<'_> {
    fn bound(&self) -> f64 {
        self.bound
    }

    fn push(&mut self, key: SampleKey, weight: f64) {
        self.tree.insert(key, weight);
        self.inserted += 1;
        if self.tree.len() > self.cap {
            self.tree.pop_max();
        }
        if self.tree.len() >= self.cap {
            self.bound = self.tree.max().expect("at capacity").0.key;
        }
    }
}

/// The pooled sink: one chunk's candidate buffer. In growing mode it
/// prunes itself to `cap` when it spills and publishes its own `cap`-th
/// smallest key into the shared bound.
struct ChunkBuf<'a> {
    shared: &'a AtomicU64,
    cap: usize,
    spill: usize,
    candidates: Vec<(SampleKey, f64)>,
}

impl<'a> ChunkBuf<'a> {
    fn new(shared: &'a AtomicU64, cap: usize) -> Self {
        ChunkBuf {
            shared,
            cap,
            spill: cap.saturating_add(cap / 2 + 64),
            candidates: Vec::new(),
        }
    }
}

impl Sink for ChunkBuf<'_> {
    fn bound(&self) -> f64 {
        f64::from_bits(self.shared.load(Ordering::Relaxed))
    }

    fn push(&mut self, key: SampleKey, weight: f64) {
        self.candidates.push((key, weight));
        if self.candidates.len() >= self.spill {
            // Keep the cap smallest; select_nth leaves the largest of them
            // last — the publishable cap-th smallest.
            let cap = self.cap;
            self.candidates
                .select_nth_unstable_by(cap - 1, |a, b| a.0.cmp(&b.0));
            self.candidates.truncate(cap);
            let top = self.candidates[cap - 1].0.key;
            self.shared.fetch_min(top.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Scan one chunk in the regime `threshold` selects; returns the skip
/// values drawn.
fn scan_chunk(
    items: &[Item],
    threshold: Option<f64>,
    uniform: bool,
    rng: &mut DefaultRng,
    sink: &mut impl Sink,
) -> u64 {
    match threshold {
        None => {
            grow_chunk(items, uniform, rng, sink);
            0
        }
        Some(t) if uniform => scan_chunk_uniform(items, t, rng, sink),
        Some(t) => scan_chunk_weighted(items, t, rng, sink),
    }
}

/// Fixed-threshold weighted chunk scan: blocked exponential jumps.
fn scan_chunk_weighted(items: &[Item], t: f64, rng: &mut DefaultRng, sink: &mut impl Sink) -> u64 {
    let mut skip = rng.exponential(t);
    let mut jumps = 1;
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
                sink.push(SampleKey::new(v, item.id), item.weight);
                skip = rng.exponential(t);
                jumps += 1;
            }
        }
        i = end;
    }
    jumps
}

/// Fixed-threshold uniform chunk scan: geometric jumps over item counts.
fn scan_chunk_uniform(items: &[Item], t: f64, rng: &mut DefaultRng, sink: &mut impl Sink) -> u64 {
    if t >= 1.0 {
        // Degenerate threshold: every key qualifies.
        for item in items {
            sink.push(SampleKey::new(rng.rand_oc(), item.id), item.weight);
        }
        return 0;
    }
    let mut jumps = 0;
    let mut next = 0u64;
    let n = items.len() as u64;
    while next < n {
        let skip = rng.geometric_skips(t);
        jumps += 1;
        if skip >= n - next {
            break;
        }
        next += skip;
        let item = &items[next as usize];
        // Key conditioned on < t: uniform in (0, t].
        sink.push(SampleKey::new(rng.rand_oc() * t, item.id), item.weight);
        next += 1;
    }
    jumps
}

/// Growing-mode chunk scan: draw every item's unconditioned key and keep
/// the ones below the sink's bound.
fn grow_chunk(items: &[Item], uniform: bool, rng: &mut DefaultRng, sink: &mut impl Sink) {
    let mut bound = sink.bound();
    for item in items {
        // Every item draws exactly one key, kept or not, so the RNG stream
        // — and hence the candidate law — is deterministic even though a
        // pooled bound evolves with arbitrary timing.
        let key = if uniform {
            rng.rand_oc()
        } else {
            rng.exponential(item.weight)
        };
        if key < bound {
            sink.push(SampleKey::new(key, item.id), item.weight);
        }
        // The bound only ever tightens, so a refresh never rescues a
        // discarded key.
        bound = sink.bound();
    }
}

/// Append `tree`'s entries with keys at or below `t` (`None` = all) to
/// `buf`, one leaf slice at a time; the walk ends at the first leaf that
/// holds a key above `t`. Only that leaf is searched: every leaf before it
/// is kept whole on one comparison with its last key, which costs far less
/// than a binary search per leaf.
fn extend_le(tree: &BPlusTree<SampleKey, f64>, t: Option<&SampleKey>, buf: &mut Vec<SampleItem>) {
    let _ = tree.for_each_leaf(|leaf| {
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
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
}

#[cfg(test)]
mod tests {
    //! The inline path: every scan on a one-worker pool. The pooled path
    //! (multi-chunk batches on pools with helpers) is tested in the
    //! crate's `reservoir` test module.
    use super::*;

    fn batch(n: u64, weight: impl Fn(u64) -> f64) -> Vec<Item> {
        (0..n).map(|i| Item::new(i, weight(i))).collect()
    }

    /// A reservoir on a one-worker pool: every scan runs inline.
    fn inline(cap: usize, seed: u64) -> LocalReservoir {
        LocalReservoir::new(cap, 32, Pool::new(1), seed)
    }

    #[test]
    fn threshold_scan_inserts_only_below_threshold() {
        let mut r = inline(8, 1);
        let t = 0.01;
        let stats = r.process_weighted(&batch(10_000, |_| 1.0), Some(t));
        assert_eq!(stats.processed, 10_000);
        assert_eq!(stats.inserted, r.len());
        assert_eq!(stats.chunks, 3, "10,000 items in 4,096-item chunks");
        // E[inserted] = n (1 - e^{-t}) ≈ 99.5.
        assert!((30..300).contains(&stats.inserted), "{}", stats.inserted);
        assert!(r.items().iter().all(|s| s.key <= t));
        assert!(r.last_scope().is_none(), "one worker scans inline");
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
            let mut r = inline(8, seed);
            total += r.process_weighted(&batch(n, |_| w), Some(t)).inserted;
        }
        let rate = total as f64 / (10 * n) as f64;
        assert!(
            (rate - expect).abs() < 0.1 * expect,
            "rate {rate} vs {expect}"
        );
    }

    #[test]
    fn growing_mode_keeps_cap_smallest() {
        let mut r = inline(50, 3);
        let stats = r.process_weighted(&batch(5_000, |i| 1.0 + (i % 7) as f64), None);
        assert_eq!(r.len(), 50);
        assert_eq!(stats.processed, 5_000);
        // Jump scanning against the exact local bound touches far fewer
        // items than it processes.
        assert!(stats.inserted < 1_500, "{}", stats.inserted);
        let items = r.items();
        let max = items.iter().map(|s| s.key).fold(f64::MIN, f64::max);
        assert_eq!(local_threshold(r.tree(), 50), max);
    }

    #[test]
    fn growing_mode_partial_fill() {
        let mut r = inline(100, 4);
        r.process_weighted(&batch(30, |_| 1.0), None);
        assert_eq!(r.len(), 30);
        // A second batch continues filling, then spills into jumps.
        r.process_weighted(&batch(500, |_| 1.0), None);
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn uniform_threshold_scan_rate_and_range() {
        let t = 0.02;
        let n = 50_000u64;
        let mut r = inline(8, 5);
        let stats = r.process_uniform(&batch(n, |_| 1.0), Some(t));
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
            let mut r = inline(cap, seed);
            r.process_uniform(&batch(n, |_| 1.0), None);
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
        let mut r = inline(10, 6);
        r.process_weighted(&batch(200, |_| 1.0), None);
        let items = r.items();
        let mut keys: Vec<f64> = items.iter().map(|s| s.key).collect();
        keys.sort_by(f64::total_cmp);
        let cut = SampleKey::new(keys[4], u64::MAX);
        assert_eq!(r.count_le(&cut), 5);
        r.prune_above(&cut);
        assert_eq!(r.len(), 5);
        let mut drained = Vec::new();
        r.drain_into(&mut drained);
        assert_eq!(drained.len(), 5);
        assert!(r.is_empty());
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut r = inline(10, 7);
        let s1 = r.process_weighted(&[], Some(0.5));
        let s2 = r.process_weighted(&[], None);
        let s3 = r.process_uniform(&[], Some(0.5));
        assert_eq!(s1.inserted + s2.inserted + s3.inserted, 0);
        assert_eq!(s1.chunks + s2.chunks + s3.chunks, 0);
        assert!(r.is_empty());
    }
}
