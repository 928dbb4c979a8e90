//! The parallel per-PE local reservoir: chunked jump scans on the
//! work-stealing pool, merged into the B+ tree by a sequential epilogue.
//!
//! ## Why chunking preserves the sampling law
//!
//! In threshold mode the sequential scan realizes, for every item `i`, the
//! event `key_i < T` with probability `1 − e^{−T·w_i}` (weighted) or `T`
//! (uniform), independently across items, and gives each survivor a key
//! from the conditional law given `key < T`. Exponential and geometric
//! skips are **memoryless**, so a scan that restarts its skip clock at a
//! chunk boundary draws each item's inclusion from exactly the same law —
//! the chunk partition changes which RNG stream serves an item, never the
//! item's inclusion probability or conditional key law. Each chunk owns a
//! dedicated RNG stream derived from `(seed, batch, chunk)` through
//! [`SeedSequence`], so the candidate set depends only on the seed and the
//! batch sequence — **not** on the worker that ran the chunk or on the
//! thread count. That is what the fixed-seed determinism tests pin.
//!
//! ## Growing mode and the shared threshold snapshot
//!
//! Before a global threshold exists, the reservoir keeps its local `cap`
//! smallest keys. Each chunk draws every item's unconditioned key and
//! keeps candidates below a **relaxed snapshot of the shared threshold**:
//! an `AtomicU64` (f64 bits — bit order equals numeric order for the
//! positive keys) that starts at the pre-batch local threshold (or +∞) and
//! is `fetch_min`-lowered to each chunk buffer's own `cap`-th smallest key
//! as buffers fill. Every published value is the `cap`-th smallest of a
//! *subset* of the final merged key multiset, hence an upper bound on the
//! final threshold — so the filter only ever discards items that cannot be
//! among the final `cap` smallest, no matter how stale the snapshot a
//! worker read. The sequential epilogue merges all surviving candidates
//! into the tree and re-prunes it to the `cap` smallest (the post-merge
//! threshold), which makes the final reservoir *exactly* the `cap`
//! smallest of the full key multiset — independent of snapshot timing,
//! steal order, and thread count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use reservoir_btree::{BPlusTree, SampleKey};
use reservoir_rng::{DefaultRng, Rng64, SeedSequence, StreamKind};
use reservoir_stream::Item;

use crate::pool::{chunk_ranges, Pool};

/// Block width of the weighted skip scan (matches the sequential scan).
const SCAN_BLOCK: usize = 32;

/// Items per chunk. Fixed (not derived from the thread count) so the
/// candidate set — and therefore the merged reservoir — is identical for
/// every thread count under the same seed.
pub const DEFAULT_CHUNK_ITEMS: usize = 4096;

/// Stream tag for the per-batch seed derivation level.
const BATCH_STREAM: u16 = 0x7062;
/// Stream tag for the per-chunk seed derivation level.
const CHUNK_STREAM: u16 = 0x7063;

/// Work counters and timings for one parallel scan call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParScanStats {
    /// Items offered.
    pub processed: u64,
    /// Candidates merged into the tree (in growing mode, counted before
    /// the epilogue's re-prune to `cap`).
    pub inserted: u64,
    /// Skip values drawn across all chunks.
    pub jumps: u64,
    /// Chunks the batch was split into.
    pub chunks: u64,
    /// Chunk tasks executed by a worker other than the one they were
    /// queued on.
    pub steals: u64,
    /// OS threads spawned for this scan's scope: `threads − 1` on a
    /// per-scope pool, 0 on a persistent crew ([`Pool::persistent`]) —
    /// the counter that shows what the persistent pool saves per batch.
    pub spawns: u64,
    /// Seconds each worker spent scanning (index = worker id; worker 0 is
    /// the calling thread).
    pub worker_scan_s: Vec<f64>,
    /// Seconds of the sequential merge epilogue (tree insertion and the
    /// growing-mode re-prune).
    pub merge_s: f64,
}

impl ParScanStats {
    /// The busiest worker's scan seconds — the parallel region's critical
    /// path.
    pub fn max_worker_scan_s(&self) -> f64 {
        self.worker_scan_s.iter().copied().fold(0.0, f64::max)
    }
}

/// Per-chunk scan output, written once by whichever worker ran the chunk.
#[derive(Default)]
struct ChunkOut {
    candidates: Vec<(SampleKey, f64)>,
    jumps: u64,
}

/// The multicore counterpart of `reservoir_core::dist::LocalReservoir`:
/// same regimes (threshold scan / growing mode), same sampling law, but
/// the batch scan runs chunked across a [`Pool`]'s workers and owns its
/// RNG streams (derived per `(seed, batch, chunk)`) instead of consuming a
/// caller-supplied generator.
pub struct ParLocalReservoir {
    cap: usize,
    tree: BPlusTree<SampleKey, f64>,
    pool: Pool,
    chunk_items: usize,
    seeds: SeedSequence,
    batch_no: u64,
}

impl ParLocalReservoir {
    /// Reservoir capped at `cap` entries in growing mode, B+ tree node
    /// degree `degree`, scans run on `threads` workers, RNG streams rooted
    /// at `seed` (derive it per PE so PEs stay independent).
    pub fn new(cap: usize, degree: usize, threads: usize, seed: u64) -> Self {
        assert!(cap >= 1, "reservoir capacity must be at least 1");
        ParLocalReservoir {
            cap,
            tree: BPlusTree::with_degree(degree),
            pool: Pool::new(threads),
            chunk_items: DEFAULT_CHUNK_ITEMS,
            seeds: SeedSequence::new(seed),
            batch_no: 0,
        }
    }

    /// Override the items-per-chunk granularity (testing / benchmarking).
    pub fn with_chunk_items(mut self, chunk_items: usize) -> Self {
        assert!(chunk_items >= 1, "chunks must hold at least one item");
        self.chunk_items = chunk_items;
        self
    }

    /// Run the scans on `pool` instead of the default per-scope pool —
    /// pass [`Pool::persistent`] to reuse one helper crew across every
    /// `process_*` call, removing the per-batch thread-spawn cost. The
    /// pool's worker count must match the reservoir's `threads` (the
    /// per-worker stat widths are sized at construction).
    pub fn with_pool(mut self, pool: Pool) -> Self {
        assert_eq!(
            pool.threads(),
            self.pool.threads(),
            "replacement pool must keep the worker count"
        );
        self.pool = pool;
        self
    }

    /// Whether the scans reuse a persistent helper crew.
    pub fn pool_is_persistent(&self) -> bool {
        self.pool.is_persistent()
    }

    /// Worker count the scans run on.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> u64 {
        self.tree.len() as u64
    }

    /// Whether the reservoir holds no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The underlying tree (a `reservoir_select::CandidateSet` for the
    /// distributed selection).
    pub fn tree(&self) -> &BPlusTree<SampleKey, f64> {
        &self.tree
    }

    /// Drop every entry with a key strictly above `t`.
    pub fn prune_above(&mut self, t: &SampleKey) {
        let _ = self.tree.split_at_key(t, true);
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.tree.clear();
    }

    /// Account for a mini-batch this reservoir never saw (the sharded
    /// sparse-batch fast path): advances the per-batch RNG stream index
    /// exactly as processing an empty `items` slice would, so a skipped
    /// shard's future samples stay byte-identical to a scanned-empty
    /// one's. O(1) — no scan scope, no RNG draws.
    pub fn note_empty_batch(&mut self) {
        self.batch_no += 1;
    }

    /// Scan a weighted mini-batch: with `threshold = Some(t)` insert every
    /// item whose key falls below `t` (chunked exponential jumps,
    /// conditional keys); with `None` keep the local `cap` smallest keys.
    pub fn process_weighted(&mut self, items: &[Item], threshold: Option<f64>) -> ParScanStats {
        self.process(items, threshold, false)
    }

    /// Scan a uniform mini-batch (all weights 1): geometric jumps and
    /// `U(0, t]` conditional keys; same regimes as
    /// [`Self::process_weighted`].
    pub fn process_uniform(&mut self, items: &[Item], threshold: Option<f64>) -> ParScanStats {
        self.process(items, threshold, true)
    }

    fn process(&mut self, items: &[Item], threshold: Option<f64>, uniform: bool) -> ParScanStats {
        self.batch_no += 1;
        let mut stats = ParScanStats {
            processed: items.len() as u64,
            worker_scan_s: vec![0.0; self.pool.threads()],
            ..ParScanStats::default()
        };
        if items.is_empty() {
            return stats;
        }
        if let Some(t) = threshold {
            debug_assert!(t > 0.0, "threshold must be positive");
        }

        // The shared threshold: the fixed global T in threshold mode, or
        // the monotonically lowered growing-mode upper bound (pre-batch
        // local threshold when the tree is at capacity, +∞ otherwise).
        let shared = AtomicU64::new(
            match threshold {
                Some(t) => t,
                None if self.tree.len() >= self.cap => self.tree.max().expect("at capacity").0.key,
                None => f64::INFINITY,
            }
            .to_bits(),
        );

        let nchunks = items.len().div_ceil(self.chunk_items);
        let slots: Vec<Mutex<ChunkOut>> = (0..nchunks)
            .map(|_| Mutex::new(ChunkOut::default()))
            .collect();
        let batch_seeds = SeedSequence::new(
            self.seeds
                .seed_for(self.batch_no as usize, StreamKind::Custom(BATCH_STREAM)),
        );
        let growing = threshold.is_none();
        let cap = self.cap;

        let (_, report) = self.pool.scope(|s| {
            for (c, range) in chunk_ranges(items.len(), self.chunk_items).enumerate() {
                let slot = &slots[c];
                let shared = &shared;
                let chunk = &items[range];
                s.spawn(move |_| {
                    let mut rng = batch_seeds.rng_for(c, StreamKind::Custom(CHUNK_STREAM));
                    let mut out = ChunkOut::default();
                    match (growing, uniform) {
                        (true, _) => grow_chunk(chunk, cap, shared, uniform, &mut rng, &mut out),
                        (false, false) => {
                            let t = f64::from_bits(shared.load(Ordering::Relaxed));
                            scan_chunk_weighted(chunk, t, &mut rng, &mut out);
                        }
                        (false, true) => {
                            let t = f64::from_bits(shared.load(Ordering::Relaxed));
                            scan_chunk_uniform(chunk, t, &mut rng, &mut out);
                        }
                    }
                    *slot.lock().expect("chunk slot poisoned") = out;
                });
            }
        });

        // Sequential epilogue: merge every chunk's survivors (chunk order)
        // into the tree, then re-prune growing mode to the post-merge
        // threshold — the cap-th smallest key of the merged multiset.
        let t0 = Instant::now();
        for slot in &slots {
            let out = std::mem::take(&mut *slot.lock().expect("chunk slot poisoned"));
            stats.jumps += out.jumps;
            stats.inserted += out.candidates.len() as u64;
            for (key, weight) in out.candidates {
                self.tree.insert(key, weight);
            }
        }
        if growing && self.tree.len() > self.cap {
            let _ = self.tree.split_at_rank(self.cap);
        }
        stats.merge_s = t0.elapsed().as_secs_f64();
        stats.chunks = nchunks as u64;
        stats.steals = report.steals;
        stats.spawns = report.spawns;
        stats.worker_scan_s = report.worker_busy_s;
        stats
    }
}

/// Fixed-threshold weighted chunk scan: blocked exponential jumps, the
/// same kernel as the sequential scan but emitting into the chunk buffer.
fn scan_chunk_weighted(items: &[Item], t: f64, rng: &mut DefaultRng, out: &mut ChunkOut) {
    let mut skip = rng.exponential(t);
    out.jumps += 1;
    let mut i = 0;
    while i < items.len() {
        let end = (i + SCAN_BLOCK).min(items.len());
        let block_weight: f64 = items[i..end].iter().map(|it| it.weight).sum();
        if skip > block_weight {
            skip -= block_weight;
            i = end;
            continue;
        }
        for item in &items[i..end] {
            skip -= item.weight;
            if skip <= 0.0 {
                // Conditional key given `key < t` (paper Section 4.1).
                let x = (-t * item.weight).exp();
                let v = -rng.rand_range_oc(x, 1.0).ln() / item.weight;
                out.candidates
                    .push((SampleKey::new(v, item.id), item.weight));
                skip = rng.exponential(t);
                out.jumps += 1;
            }
        }
        i = end;
    }
}

/// Fixed-threshold uniform chunk scan: geometric jumps over item counts.
fn scan_chunk_uniform(items: &[Item], t: f64, rng: &mut DefaultRng, out: &mut ChunkOut) {
    if t >= 1.0 {
        // Degenerate threshold: every key qualifies.
        for item in items {
            let v = rng.rand_oc();
            out.candidates
                .push((SampleKey::new(v, item.id), item.weight));
        }
        return;
    }
    let mut next = 0u64;
    let n = items.len() as u64;
    while next < n {
        let skip = rng.geometric_skips(t);
        out.jumps += 1;
        if skip >= n - next {
            break;
        }
        next += skip;
        let item = &items[next as usize];
        let v = rng.rand_oc() * t;
        out.candidates
            .push((SampleKey::new(v, item.id), item.weight));
        next += 1;
    }
}

/// Growing-mode chunk scan: draw every item's unconditioned key, keep the
/// candidates below the relaxed shared-threshold snapshot, prune the local
/// buffer to `cap` when it spills and publish its own cap-th smallest key
/// back into the shared bound.
fn grow_chunk(
    items: &[Item],
    cap: usize,
    shared: &AtomicU64,
    uniform: bool,
    rng: &mut DefaultRng,
    out: &mut ChunkOut,
) {
    let spill = cap + cap / 2 + 64;
    let mut snapshot = f64::from_bits(shared.load(Ordering::Relaxed));
    for item in items {
        // Every item draws exactly one key, filtered or not, so the RNG
        // stream — and hence the candidate law — is deterministic even
        // though the snapshot evolves with arbitrary timing.
        let key = if uniform {
            rng.rand_oc()
        } else {
            rng.exponential(item.weight)
        };
        if key >= snapshot {
            // The shared bound only ever tightens, so a refreshed snapshot
            // cannot rescue this key — re-cache it and discard.
            snapshot = f64::from_bits(shared.load(Ordering::Relaxed));
            continue;
        }
        out.candidates
            .push((SampleKey::new(key, item.id), item.weight));
        if out.candidates.len() >= spill {
            prune_to_cap(&mut out.candidates, cap);
            let top = out.candidates.last().expect("cap >= 1").0.key;
            shared.fetch_min(top.to_bits(), Ordering::Relaxed);
            snapshot = f64::from_bits(shared.load(Ordering::Relaxed));
        }
    }
}

/// Keep the `cap` smallest candidates; afterwards the buffer's last entry
/// is its largest (the publishable cap-th smallest).
fn prune_to_cap(buf: &mut Vec<(SampleKey, f64)>, cap: usize) {
    debug_assert!(buf.len() > cap);
    buf.select_nth_unstable_by(cap - 1, |a, b| a.0.cmp(&b.0));
    buf.truncate(cap);
    // select_nth leaves the maximum at position cap-1.
    debug_assert!(buf[..buf.len() - 1]
        .iter()
        .all(|(k, _)| k <= &buf[buf.len() - 1].0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: u64, weight: impl Fn(u64) -> f64) -> Vec<Item> {
        (0..n).map(|i| Item::new(i, weight(i))).collect()
    }

    fn ids(r: &ParLocalReservoir) -> Vec<u64> {
        let mut v: Vec<u64> = r.tree().iter().map(|(k, _)| k.id).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn threshold_scan_matches_bernoulli_rate() {
        // P(key < t) = 1 - e^{-t w}; aggregate insertion rate must track it.
        let t = 0.05;
        let w = 2.0f64;
        let expect = 1.0 - (-t * w).exp();
        let n = 20_000u64;
        let mut total = 0u64;
        for seed in 0..10 {
            let mut r = ParLocalReservoir::new(8, 32, 4, seed).with_chunk_items(1024);
            total += r.process_weighted(&batch(n, |_| w), Some(t)).inserted;
        }
        let rate = total as f64 / (10 * n) as f64;
        assert!(
            (rate - expect).abs() < 0.1 * expect,
            "rate {rate} vs {expect}"
        );
    }

    #[test]
    fn threshold_scan_keys_below_threshold_and_stats_consistent() {
        let mut r = ParLocalReservoir::new(8, 32, 3, 1).with_chunk_items(512);
        let t = 0.01;
        let stats = r.process_weighted(&batch(10_000, |_| 1.0), Some(t));
        assert_eq!(stats.processed, 10_000);
        assert_eq!(stats.inserted, r.len());
        assert_eq!(stats.chunks, 20);
        assert_eq!(stats.worker_scan_s.len(), 3);
        assert!(r.tree().iter().all(|(k, _)| k.key <= t));
    }

    #[test]
    fn results_are_deterministic_and_thread_count_independent() {
        let run = |threads: usize| {
            let mut r = ParLocalReservoir::new(50, 32, threads, 99).with_chunk_items(256);
            // Growing phase first, then threshold scans.
            r.process_weighted(&batch(3_000, |i| 1.0 + (i % 7) as f64), None);
            let t = r.tree().max().unwrap().0.key;
            r.process_weighted(&batch(5_000, |i| 1.0 + (i % 5) as f64), Some(t));
            ids(&r)
        };
        let four_a = run(4);
        let four_b = run(4);
        assert_eq!(four_a, four_b, "same seed + threads must reproduce");
        let one = run(1);
        let two = run(2);
        assert_eq!(
            four_a, one,
            "chunk streams make results thread-count independent"
        );
        assert_eq!(four_a, two);
    }

    #[test]
    fn growing_mode_keeps_cap_smallest() {
        let mut r = ParLocalReservoir::new(50, 32, 4, 3).with_chunk_items(300);
        let stats = r.process_weighted(&batch(5_000, |i| 1.0 + (i % 7) as f64), None);
        assert_eq!(r.len(), 50);
        assert_eq!(stats.processed, 5_000);
        // The shared-threshold filter keeps candidate counts far below n.
        assert!(stats.inserted < 3_000, "{}", stats.inserted);
        // The kept keys are exactly the 50 smallest drawn: every key in the
        // tree is at most the tree's max, and the tree holds exactly cap.
        let max = r.tree().max().unwrap().0.key;
        assert!(r.tree().iter().all(|(k, _)| k.key <= max));
    }

    #[test]
    fn growing_mode_partial_fill_then_spill() {
        let mut r = ParLocalReservoir::new(100, 32, 2, 4).with_chunk_items(64);
        r.process_weighted(&batch(30, |_| 1.0), None);
        assert_eq!(r.len(), 30);
        r.process_weighted(&batch(500, |_| 1.0), None);
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn uniform_threshold_scan_rate_and_range() {
        let t = 0.02;
        let n = 50_000u64;
        let mut r = ParLocalReservoir::new(8, 32, 4, 5).with_chunk_items(2048);
        let stats = r.process_uniform(&batch(n, |_| 1.0), Some(t));
        let expect = n as f64 * t;
        assert!(
            (stats.inserted as f64 - expect).abs() < 6.0 * expect.sqrt() + 10.0,
            "inserted {} vs {expect}",
            stats.inserted
        );
        assert!(r.tree().iter().all(|(k, _)| k.key > 0.0 && k.key <= t));
    }

    #[test]
    fn uniform_growing_inclusion_is_cap_over_n() {
        let n = 400u64;
        let cap = 20usize;
        let trials = 2_000u64;
        let mut hits = 0u32;
        for seed in 0..trials {
            let mut r = ParLocalReservoir::new(cap, 32, 4, seed).with_chunk_items(96);
            r.process_uniform(&batch(n, |_| 1.0), None);
            if r.tree().iter().any(|(k, _)| k.id == n - 1) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        let expect = cap as f64 / n as f64;
        assert!((frac - expect).abs() < 0.02, "{frac} vs {expect}");
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut r = ParLocalReservoir::new(10, 32, 4, 7);
        let s1 = r.process_weighted(&[], Some(0.5));
        let s2 = r.process_weighted(&[], None);
        let s3 = r.process_uniform(&[], Some(0.5));
        assert_eq!(s1.inserted + s2.inserted + s3.inserted, 0);
        assert!(r.is_empty());
        assert_eq!(s1.chunks, 0);
    }

    #[test]
    fn persistent_pool_same_sample_zero_spawns() {
        // The worker strategy may not touch the sampling law: chunk RNG
        // streams carry the randomness, so per-scope and persistent pools
        // must produce the identical reservoir under one seed — only the
        // spawn accounting differs.
        let run = |persistent: bool| {
            let mut r = ParLocalReservoir::new(50, 32, 4, 99).with_chunk_items(256);
            if persistent {
                r = r.with_pool(Pool::persistent(4));
            }
            r.process_weighted(&batch(3_000, |i| 1.0 + (i % 7) as f64), None);
            let t = r.tree().max().unwrap().0.key;
            let stats = r.process_weighted(&batch(5_000, |i| 1.0 + (i % 5) as f64), Some(t));
            (ids(&r), stats.spawns)
        };
        let (per_scope_ids, per_scope_spawns) = run(false);
        let (crew_ids, crew_spawns) = run(true);
        assert_eq!(
            per_scope_ids, crew_ids,
            "worker strategy changed the sample"
        );
        assert_eq!(per_scope_spawns, 3, "per-scope pool spawns threads − 1");
        assert_eq!(crew_spawns, 0, "persistent crew spawns nothing per batch");
    }

    #[test]
    fn prune_above_and_clear() {
        let mut r = ParLocalReservoir::new(10, 32, 2, 6).with_chunk_items(50);
        r.process_weighted(&batch(200, |_| 1.0), None);
        let mut keys: Vec<f64> = r.tree().iter().map(|(k, _)| k.key).collect();
        keys.sort_by(f64::total_cmp);
        let cut = SampleKey::new(keys[4], u64::MAX);
        r.prune_above(&cut);
        assert_eq!(r.len(), 5);
        r.clear();
        assert!(r.is_empty());
    }
}
