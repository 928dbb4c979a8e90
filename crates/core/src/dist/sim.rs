//! The cluster simulator: Algorithm 1's observable behaviour for thousands
//! of PEs inside one process — as a **backend of the shared engine**.
//!
//! [`SimBackend`] implements [`SamplerBackend`] as a whole-cluster
//! conductor: the engine's step sequence (the *same* code the threaded
//! backends execute) drives it, and each step **charges** time instead of
//! measuring it — local work through the per-operation constants of
//! [`AnalyticLocalCosts`] (a generic ~3 GHz core, not a measured fit of
//! any machine), communication through the α–β [`CostModel`] of
//! `reservoir-comm` (the substitution documented in `DESIGN.md`). Because
//! the costs are charged by the steps the real protocol actually executes,
//! a protocol change made in the engine is automatically reflected in the
//! simulated costs — there is no hand-ported statistical re-implementation
//! to keep in sync, and window-mode finalization rounds fall out of the
//! shared finalize step.
//!
//! Why the statistical insertion is sound: with threshold `T`, a PE's
//! batch contributes each item independently with probability
//! `q(T) = P(key < T)`, so the number of reservoir insertions is
//! Binomial(b, q(T)) (Poissonized here) and the inserted keys are i.i.d.
//! draws from the conditional key distribution given `key < T`. The
//! backend draws exactly that — per PE — and then the engine runs the
//! *identical* selection state machine as the real backend through
//! [`reservoir_select::select_conductor`], so pivot choices, round counts
//! and the final threshold have the protocol's true distribution.
//!
//! The simulated workload is the paper's: weights uniform on `(0, 100]`
//! (Section 6.1) for [`SamplingMode::Weighted`], unit weights for
//! [`SamplingMode::Uniform`].

use reservoir_btree::SampleKey;
use reservoir_comm::CostModel;
use reservoir_rng::{DefaultRng, Rng64, SeedSequence, StreamKind};
use reservoir_select::{select_conductor, CandidateSet, SelectParams, SelectResult, TargetRank};

use crate::dist::engine::{Charge, InsertOutcome, Placement, ReservoirProtocol, SamplerBackend};
use crate::dist::local::ScanStats;
use crate::dist::{DistConfig, SamplingMode};
use crate::metrics::PhaseTimes;
use crate::sample::SampleItem;

/// Maximum weight of the paper's uniform-weight workload.
const MAX_WEIGHT: f64 = 100.0;

/// Up to this many simulated items per batch, the growing phase draws
/// every key individually (exactly matching the threaded backend); above
/// it, a bootstrap threshold with the same selection law is used instead.
const FAITHFUL_GROWING_LIMIT: u64 = 4_000_000;

/// Amdahl's-law speedup of the local scan at `threads` workers given the
/// fraction `serial_frac` of the scan that stays sequential (the merge
/// epilogue's bookkeeping, chunk dispatch, memory-bandwidth ceiling).
fn amdahl_speedup(serial_frac: f64, threads: u64) -> f64 {
    let s = serial_frac.clamp(0.0, 1.0);
    let t = threads.max(1) as f64;
    1.0 / (s + (1.0 - s) / t)
}

/// Per-operation local-work costs (seconds) the simulator charges, for a
/// generic ~3 GHz core. The constants are analytic, not fitted to a
/// machine: the cost goldens and the Section 6 reproduction are priced
/// with the defaults, so they read the same on every host.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticLocalCosts {
    /// Seconds per scanned item (weighted scan).
    pub scan_item_s: f64,
    /// Seconds per tree insertion per log₂(tree size).
    pub insert_s: f64,
    /// Seconds per generated key.
    pub keygen_s: f64,
    /// Seconds per element of a sequential quickselect.
    pub quickselect_s: f64,
    /// Seconds per rank query per log₂(tree size).
    pub rank_s: f64,
    /// Serial fraction of the parallel local scan (the Amdahl's-law input
    /// of the modeled scan speedup at `threads_per_pe` workers).
    pub par_serial_frac: f64,
}

impl Default for AnalyticLocalCosts {
    fn default() -> Self {
        AnalyticLocalCosts {
            scan_item_s: 1.5e-9,
            insert_s: 1.5e-8,
            keygen_s: 1.5e-8,
            quickselect_s: 4.0e-9,
            rank_s: 3.0e-8,
            par_serial_frac: 0.05,
        }
    }
}

impl AnalyticLocalCosts {
    /// One weighted jump scan over `items` batch items.
    fn scan_weighted(&self, items: u64) -> f64 {
        items as f64 * self.scan_item_s
    }

    /// One uniform jump scan that performed `inserted` insertions (the
    /// scan itself is O(inserted): geometric jumps skip for free).
    fn scan_uniform(&self, inserted: u64) -> f64 {
        2.0e-8 + inserted as f64 * self.keygen_s
    }

    /// `count` B+ tree insertions into a tree of `tree_size` entries.
    fn tree_inserts(&self, count: u64, tree_size: u64) -> f64 {
        count as f64 * self.insert_s * ((tree_size + 2) as f64).log2()
    }

    /// Generating `count` candidate keys.
    fn keygen(&self, count: u64) -> f64 {
        count as f64 * self.keygen_s
    }

    /// A sequential quickselect over `n` keys (gather baseline's root).
    fn quickselect(&self, n: u64) -> f64 {
        n as f64 * self.quickselect_s
    }

    /// One selection round's local work: pivot sampling plus rank queries
    /// on a tree of `tree_size` entries with `pivots` pivots.
    fn select_round_local(&self, tree_size: u64, pivots: u64) -> f64 {
        pivots.max(1) as f64 * self.rank_s * ((tree_size + 2) as f64).log2()
    }

    /// Modeled speedup of the scan + key-generation phase when a PE runs
    /// its local scan on `threads` workers (`reservoir_par`); 1.0 at one
    /// thread.
    fn scan_speedup(&self, threads: u64) -> f64 {
        amdahl_speedup(self.par_serial_frac, threads)
    }
}

/// Which algorithm the simulated cluster runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimAlgo {
    /// Algorithm 1 with `pivots` pivot candidates per selection round.
    Ours {
        /// The paper's `d`.
        pivots: usize,
    },
    /// The centralized gathering baseline (Section 4.5).
    Gather,
}

/// A simulated cluster configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of simulated PEs.
    pub p: usize,
    /// Sample size.
    pub k: usize,
    /// Items per PE per mini-batch.
    pub b_per_pe: u64,
    /// Weighted or uniform sampling.
    pub mode: SamplingMode,
    /// Algorithm under simulation.
    pub algo: SimAlgo,
    /// Master seed.
    pub seed: u64,
    /// Worker threads each simulated PE's local scan runs on: the scan +
    /// key-generation charge is divided by the Amdahl's-law speedup at
    /// [`AnalyticLocalCosts::par_serial_frac`], modeling multicore PEs
    /// running the chunked local scan on their worker crews. The statistical
    /// behaviour is unchanged (the real scan draws the same sample at
    /// every width).
    pub threads_per_pe: usize,
    /// Variable-size window `(k, k̄)` of Section 4.4: the sample may grow
    /// to `k̄` before an *approximate* selection shrinks it back into the
    /// window, and output collection pays a finalization selection to
    /// exact rank `k`. `None` keeps the size exactly `k`. Only
    /// [`SimAlgo::Ours`] supports it (as on the real backends).
    pub size_window: Option<(u64, u64)>,
    /// Whether the simulated cluster publishes an always-fresh sample
    /// epoch per batch. Each publication drives the engine's real
    /// finalize/place sequence, so its count/select/place collectives are
    /// charged to the α–β model under the `output` phase — the modeled
    /// price of continuous reads. Defaults to `RESERVOIR_CONTINUOUS`.
    pub continuous: super::ContinuousMode,
}

impl SimConfig {
    /// An exact-size configuration (the historical constructor shape).
    pub fn new(
        p: usize,
        k: usize,
        b_per_pe: u64,
        mode: SamplingMode,
        algo: SimAlgo,
        seed: u64,
    ) -> Self {
        // Only the continuous default comes from the environment: the
        // modeled scan width stays 1 unless `with_threads` says otherwise,
        // so the cost goldens do not follow `RESERVOIR_THREADS`.
        let (_, continuous) = super::env_defaults();
        SimConfig {
            p,
            k,
            b_per_pe,
            mode,
            algo,
            seed,
            threads_per_pe: 1,
            size_window: None,
            continuous,
        }
    }

    /// Model `t` scan workers per PE.
    pub fn with_threads(mut self, t: usize) -> Self {
        assert!(t >= 1, "at least one scan thread per PE");
        self.threads_per_pe = t;
        self
    }

    /// Tolerate any sample size in `lo..=hi` (Section 4.4).
    pub fn with_size_window(mut self, lo: u64, hi: u64) -> Self {
        assert!(1 <= lo && lo <= hi, "invalid size window {lo}..{hi}");
        self.size_window = Some((lo, hi));
        self
    }

    /// Publish always-fresh sample epochs per the given
    /// [`ContinuousMode`](super::ContinuousMode) (overrides the
    /// `RESERVOIR_CONTINUOUS` default).
    pub fn with_continuous(mut self, continuous: super::ContinuousMode) -> Self {
        self.continuous = continuous;
        self
    }

    /// The engine configuration this cluster's protocol endpoint runs
    /// with: the same `DistConfig` shape the real backends take.
    fn engine_config(&self) -> DistConfig {
        DistConfig {
            mode: self.mode,
            pivots: match self.algo {
                SimAlgo::Ours { pivots } => pivots,
                SimAlgo::Gather => 1,
            },
            size_window: self.size_window,
            ..DistConfig::base(self.k, self.seed, self.threads_per_pe, self.continuous)
        }
    }
}

/// What one simulated mini-batch did.
#[derive(Clone, Copy, Debug)]
pub struct SimBatchReport {
    /// Selection rounds used (0 when no selection ran — or always for the
    /// gather baseline, whose root selects sequentially).
    pub rounds: u32,
    /// Modeled per-batch wall time, decomposed by phase. Parallel local
    /// work is charged as the maximum over PEs.
    pub times: PhaseTimes,
}

/// How the finalized sample leaves the cluster (paper Sections 4.5 vs 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputPath {
    /// Section 5: finalize in place — a distributed selection to rank `k`
    /// (only if the union currently exceeds `k`) plus one all-reduce and
    /// one exclusive prefix sum; no sample member moves.
    Distributed,
    /// Funnel every surviving member through a root gather (the output
    /// analogue of the Section 4.5 baseline).
    Gather,
}

/// Modeled cost of one output collection.
#[derive(Clone, Copy, Debug)]
pub struct SimOutputReport {
    /// Modeled wall time. Everything — including the finalization
    /// selection rounds on the distributed path — is charged to the
    /// `output` phase, matching the threaded backend's `collect_output`.
    pub times: PhaseTimes,
    /// Selection rounds the distributed finalization used (0 when the
    /// sample was already at `k`, and always 0 for the gather path).
    pub rounds: u32,
    /// Global sample size of the collected output.
    pub total: u64,
    /// Words through the busiest endpoint — the root's downlink for the
    /// gather path, one PE's collective payloads for the distributed path.
    /// This is the communication-volume bottleneck the paper compares.
    pub bottleneck_words: u64,
}

/// One simulated PE's reservoir: `(key, weight)` entries sorted by key.
#[derive(Debug, Default)]
struct SimPe {
    entries: Vec<(SampleKey, f64)>,
}

impl SimPe {
    fn keys(&self) -> impl Iterator<Item = &SampleKey> {
        self.entries.iter().map(|(k, _)| k)
    }

    fn merge_sorted(&mut self, mut new: Vec<(SampleKey, f64)>) {
        new.sort_unstable_by_key(|(k, _)| *k);
        let old = std::mem::take(&mut self.entries);
        self.entries = Vec::with_capacity(old.len() + new.len());
        let (mut a, mut b) = (old.into_iter().peekable(), new.into_iter().peekable());
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => x.0 <= y.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let item = if take_a { a.next() } else { b.next() };
            self.entries.push(item.expect("peeked"));
        }
    }

    fn prune_above(&mut self, t: &SampleKey) {
        let cut = self.entries.partition_point(|(k, _)| k <= t);
        self.entries.truncate(cut);
    }

    /// Keep only the `cap` smallest entries.
    fn truncate_to(&mut self, cap: usize) {
        self.entries.truncate(cap);
    }
}

impl CandidateSet for SimPe {
    fn total(&self) -> u64 {
        self.entries.len() as u64
    }

    fn count_le(&self, k: &SampleKey) -> u64 {
        self.entries.partition_point(|(x, _)| x <= k) as u64
    }

    fn count_less(&self, k: &SampleKey) -> u64 {
        self.entries.partition_point(|(x, _)| x < k) as u64
    }

    fn select_above(&self, lo: Option<&SampleKey>, r: u64) -> Option<SampleKey> {
        let base = match lo {
            Some(l) => self.count_le(l),
            None => 0,
        };
        self.entries.get((base + r) as usize).map(|(k, _)| *k)
    }

    fn select_below(&self, hi: Option<&SampleKey>, r: u64) -> Option<SampleKey> {
        let below = match hi {
            Some(h) => self.count_less(h),
            None => self.entries.len() as u64,
        };
        below
            .checked_sub(1 + r)
            .and_then(|idx| self.entries.get(idx as usize).map(|(k, _)| *k))
    }
}

/// The engine's substrate for the cluster simulator: statistical per-PE
/// state plus cost accounting, conducted for all `p` PEs inside one
/// process. Every [`SamplerBackend`] step charges exactly what the real
/// protocol would pay for it.
pub struct SimBackend {
    cfg: SimConfig,
    net: CostModel,
    costs: AnalyticLocalCosts,
    pes: Vec<SimPe>,
    work_rngs: Vec<DefaultRng>,
    select_rngs: Vec<DefaultRng>,
    items_seen: u64,
    next_local_id: Vec<u64>,
    /// Candidates the last insert step produced (the gather policy's
    /// shipping payload).
    last_inserted: u64,
    /// Words through the busiest endpoint, accumulated by Output-charged
    /// steps; reset per output collection.
    output_words: u64,
    /// Per-round payload words of the most recent distributed selection
    /// (empty until one runs, or when the last one was the gather
    /// funnel). [`SimShardedCluster`] reads these to price a joint
    /// cross-shard schedule against per-shard launches.
    last_select_payloads: Vec<u64>,
}

impl SimBackend {
    /// Build the conductor for `cfg`, charging communication to `net` and
    /// local work to `costs`.
    pub fn new(cfg: SimConfig, net: CostModel, costs: AnalyticLocalCosts) -> Self {
        assert!(cfg.p >= 1 && cfg.k >= 1 && cfg.b_per_pe >= 1 && cfg.threads_per_pe >= 1);
        assert!(
            cfg.size_window.is_none() || matches!(cfg.algo, SimAlgo::Ours { .. }),
            "the gather baseline has no variable-size mode"
        );
        let seq = SeedSequence::new(cfg.seed);
        SimBackend {
            pes: (0..cfg.p).map(|_| SimPe::default()).collect(),
            work_rngs: (0..cfg.p)
                .map(|pe| seq.rng_for(pe, StreamKind::Workload))
                .collect(),
            select_rngs: (0..cfg.p)
                .map(|pe| seq.rng_for(pe, StreamKind::Selection))
                .collect(),
            items_seen: 0,
            next_local_id: vec![0; cfg.p],
            last_inserted: 0,
            output_words: 0,
            last_select_payloads: Vec::new(),
            cfg,
            net,
            costs,
        }
    }

    /// Total items the simulated stream has produced.
    pub fn items_seen(&self) -> u64 {
        self.items_seen
    }

    /// Per-round payload words of the most recent distributed selection
    /// (empty until one runs). One entry per round, in order — the words
    /// the conductor's combined candidate + count exchange of that round
    /// carried.
    pub fn last_select_payloads(&self) -> &[u64] {
        &self.last_select_payloads
    }

    /// The configuration under simulation.
    pub fn sim_config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The current global sample (union of the per-PE reservoirs).
    pub fn sample(&self) -> Vec<SampleItem> {
        self.pes
            .iter()
            .flat_map(|pe| pe.entries.iter())
            .map(|(k, w)| SampleItem::from_entry(k, *w))
            .collect()
    }

    fn union(&self) -> u64 {
        self.pes.iter().map(|pe| pe.total()).sum()
    }

    fn charge(times: &mut PhaseTimes, charge: Charge, seconds: f64) {
        *charge.slot(times) += seconds;
    }

    // --- workload -------------------------------------------------------

    /// Inclusion probability `q(t) = P(key < t)` under the workload.
    fn q_of(&self, t: f64) -> f64 {
        match self.cfg.mode {
            // E_w[1 - e^{-t w}] for w ~ U(0, 100].
            SamplingMode::Weighted => {
                if t <= 0.0 {
                    0.0
                } else {
                    let x = MAX_WEIGHT * t;
                    1.0 + (-x).exp_m1() / x
                }
            }
            SamplingMode::Uniform => t.clamp(0.0, 1.0),
        }
    }

    /// Invert `q` by bisection: the threshold with inclusion probability
    /// `target`.
    fn q_inverse(&self, target: f64) -> f64 {
        match self.cfg.mode {
            SamplingMode::Uniform => target.clamp(0.0, 1.0),
            SamplingMode::Weighted => {
                let (mut lo, mut hi) = (0.0f64, 1.0f64);
                while self.q_of(hi) < target {
                    hi *= 2.0;
                    if hi > 1e12 {
                        return hi;
                    }
                }
                for _ in 0..80 {
                    let mid = 0.5 * (lo + hi);
                    if self.q_of(mid) < target {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                hi
            }
        }
    }

    /// Draw one `(key, weight)` with the key conditioned on `key < t`.
    fn conditional_key(mode: SamplingMode, t: f64, rng: &mut DefaultRng) -> (f64, f64) {
        match mode {
            SamplingMode::Uniform => (rng.rand_oc() * t.min(1.0), 1.0),
            SamplingMode::Weighted => {
                // Rejection on the weight marginal, tilted by the
                // per-weight inclusion probability 1 - e^{-t w} (maximal
                // at w = MAX_WEIGHT). Acceptance ≥ ~1/2.
                let bound = -(-t * MAX_WEIGHT).exp_m1();
                loop {
                    let w = rng.rand_oc() * MAX_WEIGHT;
                    let accept = -(-t * w).exp_m1();
                    if rng.rand_co() * bound < accept {
                        let floor = (-t * w).exp();
                        let v = -rng.rand_range_oc(floor, 1.0).ln() / w;
                        return (v, w);
                    }
                }
            }
        }
    }

    /// Draw one unconditioned `(key, weight)`.
    fn fresh_key(mode: SamplingMode, rng: &mut DefaultRng) -> (f64, f64) {
        match mode {
            SamplingMode::Uniform => (rng.rand_oc(), 1.0),
            SamplingMode::Weighted => {
                let w = rng.rand_oc() * MAX_WEIGHT;
                (rng.exponential(w), w)
            }
        }
    }

    fn make_id(&mut self, pe: usize) -> u64 {
        let id = ((pe as u64) << 44) | self.next_local_id[pe];
        self.next_local_id[pe] += 1;
        id
    }

    /// Steady state: per PE, Poissonized candidate counts and conditional
    /// keys below the agreed threshold `t`.
    fn steady_insert(&mut self, mode: SamplingMode, t: SampleKey, times: &mut PhaseTimes) -> u64 {
        let b = self.cfg.b_per_pe;
        let lambda = b as f64 * self.q_of(t.key);
        // Scan + keygen run inside the parallel region; the tree merge is
        // the sequential epilogue (matching the real parallel scan).
        let sp = self.costs.scan_speedup(self.cfg.threads_per_pe as u64);
        let mut max_cost = 0.0f64;
        let mut total_inserted = 0u64;
        for pe in 0..self.cfg.p {
            let count = {
                let rng = &mut self.work_rngs[pe];
                rng.poisson(lambda).min(b)
            };
            let mut new = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let (key, w) = {
                    let rng = &mut self.work_rngs[pe];
                    Self::conditional_key(mode, t.key, rng)
                };
                let id = self.make_id(pe);
                new.push((SampleKey::new(key, id), w));
            }
            let tree_size = self.pes[pe].total();
            self.pes[pe].merge_sorted(new);
            let scan = match mode {
                SamplingMode::Weighted => self.costs.scan_weighted(b),
                SamplingMode::Uniform => self.costs.scan_uniform(count),
            };
            let cost =
                (scan + self.costs.keygen(count)) / sp + self.costs.tree_inserts(count, tree_size);
            max_cost = max_cost.max(cost);
            total_inserted += count;
        }
        times.insert += max_cost;
        total_inserted
    }

    /// Growing phase: no threshold yet. Small batches draw every key
    /// (exactly the threaded backend's behaviour); large ones draw only
    /// the keys below a bootstrap threshold whose inclusion count is
    /// comfortably above `k` — the k smallest keys, and hence the
    /// selection input and the threshold law, are unaffected.
    fn growing_insert(&mut self, mode: SamplingMode, times: &mut PhaseTimes) -> u64 {
        let b = self.cfg.b_per_pe;
        let total_batch = self.cfg.p as u64 * b;
        let cap = self.cfg.engine_config().local_cap();
        let sp = self.costs.scan_speedup(self.cfg.threads_per_pe as u64);
        let mut max_cost = 0.0f64;
        let mut total_inserted = 0u64;
        if total_batch <= FAITHFUL_GROWING_LIMIT {
            for pe in 0..self.cfg.p {
                let mut new = Vec::with_capacity(b as usize);
                for _ in 0..b {
                    let (key, w) = {
                        let rng = &mut self.work_rngs[pe];
                        Self::fresh_key(mode, rng)
                    };
                    let id = self.make_id(pe);
                    new.push((SampleKey::new(key, id), w));
                }
                let tree_size = self.pes[pe].total();
                self.pes[pe].merge_sorted(new);
                // Local reservoirs never need more than the cap smallest.
                self.pes[pe].truncate_to(cap);
                let kept = self.pes[pe].total();
                let scan = match mode {
                    SamplingMode::Weighted => self.costs.scan_weighted(b),
                    SamplingMode::Uniform => self.costs.scan_uniform(kept.min(b)),
                };
                let cost = (scan + self.costs.keygen(kept.min(b))) / sp
                    + self.costs.tree_inserts(kept.min(b), tree_size);
                max_cost = max_cost.max(cost);
                total_inserted += kept.min(b);
            }
        } else {
            // Bootstrap threshold: expected candidates ≈ 3·cap + 6√cap over
            // the whole stream seen after this batch.
            let n_after = self.items_seen + total_batch;
            let want = 3.0 * cap as f64 + 6.0 * (cap as f64).sqrt() + 16.0;
            let t0 = self.q_inverse((want / n_after as f64).min(0.9));
            let lambda = b as f64 * self.q_of(t0);
            for pe in 0..self.cfg.p {
                let count = {
                    let rng = &mut self.work_rngs[pe];
                    rng.poisson(lambda).min(b)
                };
                let mut new = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let (key, w) = {
                        let rng = &mut self.work_rngs[pe];
                        Self::conditional_key(mode, t0, rng)
                    };
                    let id = self.make_id(pe);
                    new.push((SampleKey::new(key, id), w));
                }
                let tree_size = self.pes[pe].total();
                self.pes[pe].merge_sorted(new);
                self.pes[pe].truncate_to(cap);
                let scan = match mode {
                    SamplingMode::Weighted => self.costs.scan_weighted(b),
                    SamplingMode::Uniform => self.costs.scan_uniform(count),
                };
                let cost = (scan + self.costs.keygen(count)) / sp
                    + self.costs.tree_inserts(count, tree_size);
                max_cost = max_cost.max(cost);
                total_inserted += count;
            }
        }
        times.insert += max_cost;
        total_inserted
    }
}

impl SamplerBackend for SimBackend {
    /// Statistical insertion for every simulated PE; `items` is ignored —
    /// the workload is the configured `b_per_pe` draw per PE.
    fn insert(
        &mut self,
        mode: SamplingMode,
        _items: &[reservoir_stream::Item],
        threshold: Option<SampleKey>,
        times: &mut PhaseTimes,
    ) -> InsertOutcome {
        let inserted = match threshold {
            Some(t) => self.steady_insert(mode, t, times),
            None => self.growing_insert(mode, times),
        };
        self.items_seen += self.cfg.p as u64 * self.cfg.b_per_pe;
        self.last_inserted = inserted;
        InsertOutcome {
            stats: ScanStats {
                processed: self.cfg.p as u64 * self.cfg.b_per_pe,
                inserted,
                ..ScanStats::default()
            },
        }
    }

    fn count(&mut self, times: &mut PhaseTimes, charge: Charge) -> u64 {
        Self::charge(times, charge, self.net.allreduce(self.cfg.p, 1).seconds());
        if charge == Charge::Output {
            self.output_words += 2 * CostModel::tree_rounds(self.cfg.p) as u64;
        }
        self.union()
    }

    /// Selection under the configured algorithm: [`SimAlgo::Ours`] runs
    /// the real protocol through the conductor and charges its rounds;
    /// [`SimAlgo::Gather`] charges the root funnel (candidate shipping,
    /// sequential quickselect, threshold broadcast) and computes the
    /// exact k-th smallest directly, as the root would.
    fn select(
        &mut self,
        target: TargetRank,
        union: u64,
        pivots: usize,
        times: &mut PhaseTimes,
        charge: Charge,
    ) -> SelectResult {
        match (self.cfg.algo, charge) {
            // The batch-step selection of the gather baseline is the
            // funnel; output-collection finalization always runs the
            // distributed protocol (the paper compares output designs
            // independently of the batch algorithm).
            (SimAlgo::Gather, Charge::Select) => {
                times.gather += self
                    .net
                    .gather(self.cfg.p, 3 * self.last_inserted + self.cfg.p as u64)
                    .seconds();
                times.select += self.costs.quickselect(union);
                times.threshold += self.net.tree_collective(self.cfg.p, 3).seconds();
                // The exact k-th smallest of the union.
                let mut keys: Vec<SampleKey> =
                    self.pes.iter().flat_map(|pe| pe.keys().copied()).collect();
                let k = self.cfg.k;
                let (_, cut, _) = keys.select_nth_unstable(k - 1);
                SelectResult {
                    threshold: *cut,
                    rank: k as u64,
                    rounds: 0,
                }
            }
            _ => {
                let refs: Vec<&SimPe> = self.pes.iter().collect();
                let report = select_conductor(
                    &refs,
                    target,
                    SelectParams::with_pivots(pivots),
                    &mut self.select_rngs,
                );
                debug_assert_eq!(union, refs.iter().map(|s| s.total()).sum::<u64>());
                self.last_select_payloads = report.round_payload_words.clone();
                let max_tree = self.pes.iter().map(|pe| pe.total()).max().unwrap_or(0);
                let tree = CostModel::tree_rounds(self.cfg.p) as u64;
                for &words in &report.round_payload_words {
                    Self::charge(
                        times,
                        charge,
                        self.net.allreduce(self.cfg.p, words).seconds()
                            + self.costs.select_round_local(max_tree, pivots as u64),
                    );
                    if charge == Charge::Output {
                        // Busiest endpoint: forwards the combined payload
                        // once per broadcast tree level.
                        self.output_words += words * (1 + tree);
                    }
                }
                report.result
            }
        }
    }

    /// Pruning is local bookkeeping; the model charges nothing for it (as
    /// it never has).
    fn prune(&mut self, t: &SampleKey, _times: &mut PhaseTimes, _charge: Charge) {
        for pe in &mut self.pes {
            pe.prune_above(t);
        }
    }

    /// The exclusive prefix sum that places every PE's slice. The
    /// conductor owns all slices, so the placement itself is trivial —
    /// only the cost is interesting.
    fn place(&mut self, local: u64, times: &mut PhaseTimes) -> Placement {
        times.output += self.net.exscan(self.cfg.p, 1).seconds();
        self.output_words += CostModel::tree_rounds(self.cfg.p) as u64;
        Placement {
            offset: 0,
            total: local,
        }
    }

    fn local_len(&self) -> u64 {
        self.union()
    }

    fn local_count_le(&self, t: &SampleKey) -> u64 {
        self.pes.iter().map(|pe| pe.count_le(t)).sum()
    }

    fn local_items_le(
        &self,
        t: Option<&SampleKey>,
        buf: &mut Vec<SampleItem>,
        _times: &mut PhaseTimes,
    ) {
        buf.clear();
        for pe in &self.pes {
            let take = match t {
                Some(t) => pe.count_le(t) as usize,
                None => pe.entries.len(),
            };
            buf.extend(
                pe.entries[..take]
                    .iter()
                    .map(|(k, w)| SampleItem::from_entry(k, *w)),
            );
        }
    }

    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        self.cfg.p
    }

    fn select_rng_state(&self) -> Vec<DefaultRng> {
        self.select_rngs.clone()
    }

    fn restore_select_rng(&mut self, state: Vec<DefaultRng>) {
        debug_assert_eq!(state.len(), self.select_rngs.len());
        self.select_rngs = state;
    }
}

/// The simulated cluster: the shared engine over a [`SimBackend`].
pub struct SimCluster {
    engine: ReservoirProtocol<SimBackend>,
}

impl SimCluster {
    /// Build a cluster for `cfg`, charging communication to `net` and
    /// local work to `costs`.
    pub fn new(cfg: SimConfig, net: CostModel, costs: AnalyticLocalCosts) -> Self {
        let ecfg = cfg.engine_config();
        SimCluster {
            engine: ReservoirProtocol::new(SimBackend::new(cfg, net, costs), ecfg),
        }
    }

    /// Simulate one mini-batch on every PE (one engine step).
    pub fn process_batch(&mut self) -> SimBatchReport {
        let r = self.engine.step(&[]);
        SimBatchReport {
            rounds: r.select_rounds,
            times: r.times,
        }
    }

    /// Model one output collection (paper Section 5 vs the root funnel)
    /// over the current sample, without disturbing the cluster state —
    /// like the threaded backend's `collect_output`, this is a snapshot:
    /// streaming can continue afterwards.
    ///
    /// The distributed path drives the engine's *actual* finalize + place
    /// steps (a finalization selection to exact rank `k` only when the
    /// union currently exceeds `k` — variable-size mode or a mid-window
    /// cut — then one 1-word all-reduce and one 1-word exscan), so its
    /// charges follow the protocol by construction. The gather path
    /// charges shipping every surviving member (3 words each) through the
    /// root's downlink plus a sequential final quickselect there.
    /// `bottleneck_words` reports the busiest endpoint's traffic for the
    /// same two designs.
    pub fn collect_output(&mut self, path: OutputPath) -> SimOutputReport {
        match path {
            OutputPath::Distributed => {
                self.engine.backend_mut().output_words = 0;
                let (handle, times, rounds) = self.engine.collect_output();
                SimOutputReport {
                    times,
                    rounds,
                    total: handle.total_len(),
                    bottleneck_words: self.engine.backend().output_words,
                }
            }
            OutputPath::Gather => {
                let backend = self.engine.backend_mut();
                let p = backend.cfg.p;
                let k = backend.cfg.k as u64;
                let union = backend.union();
                let tree = CostModel::tree_rounds(p) as u64;
                let mut times = PhaseTimes::default();
                // Agree on the union size first (1-word all-reduce), then
                // move every surviving member: 3 words each, plus one
                // count word per PE, through the root's downlink.
                times.output += backend.net.allreduce(p, 1).seconds();
                let payload = 3 * union + p as u64;
                times.output += backend.net.gather(p, payload).seconds();
                if union > k {
                    times.output += backend.costs.quickselect(union);
                }
                // Announce the finalized threshold back.
                times.output += backend.net.tree_collective(p, 3).seconds();
                SimOutputReport {
                    times,
                    rounds: 0,
                    total: union.min(k),
                    bottleneck_words: 2 * tree + payload + 3 * tree,
                }
            }
        }
    }

    /// A read handle on the simulated cluster's always-fresh sample slot
    /// (see [`crate::dist::snapshot`]): the conductor publishes the
    /// *whole cluster's* finalized sample per epoch, so readers see what
    /// a real deployment's union view would serve.
    pub fn snapshot_reader(&self) -> crate::dist::snapshot::SnapshotReader {
        self.engine.snapshot_reader()
    }

    /// The current global threshold, once established.
    pub fn threshold(&self) -> Option<f64> {
        self.engine.threshold()
    }

    /// Total items the simulated stream has produced.
    pub fn items_seen(&self) -> u64 {
        self.engine.backend().items_seen()
    }

    /// The current global sample (union of the per-PE reservoirs).
    pub fn sample(&self) -> Vec<SampleItem> {
        self.engine.backend().sample()
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &SimConfig {
        self.engine.backend().sim_config()
    }

    /// The protocol engine underneath (the same type the real backends
    /// drive — the point of the exercise).
    pub fn engine(&mut self) -> &mut ReservoirProtocol<SimBackend> {
        &mut self.engine
    }
}

/// Cross-shard collective accounting for one mini-batch of a simulated
/// multi-tenant fleet (see [`SimShardedCluster`]).
///
/// Both schedules price a selection round as **one** collective launch —
/// the conductor's combined candidate + count payload — so the comparison
/// is purely about launches per shard vs launches per fleet.
#[derive(Clone, Debug)]
pub struct ShardedSimReport {
    /// Per-shard engine reports (each shard's own `times` are charged
    /// as-if independent, i.e. under the naive schedule).
    pub per_shard: Vec<SimBatchReport>,
    /// Shards whose selection fired this batch.
    pub shards_selected: usize,
    /// Collective launches under the naive schedule: one 1-word count
    /// all-reduce per shard, plus one all-reduce per selection round per
    /// selecting shard. Grows linearly with the shard count.
    pub naive_collectives: u64,
    /// Collective launches under the batched schedule: one vectorized
    /// count all-reduce for the whole fleet, plus one combined all-reduce
    /// per *joint* selection round (shards drop out as they decide).
    /// Bounded by `1 + max_s rounds_s` — independent of the shard count.
    pub batched_collectives: u64,
    /// α–β network seconds of the naive schedule's collectives.
    pub naive_net_s: f64,
    /// α–β network seconds of the batched schedule's collectives.
    pub batched_net_s: f64,
}

/// A simulated multi-tenant fleet: `S` per-shard [`SimCluster`]s (seeded
/// with [`shard_seed`](crate::dist::sharded::shard_seed), exactly like the
/// threaded [`ShardedSampler`](crate::dist::ShardedSampler)) stepped in
/// lockstep, with each batch's cross-shard collectives priced two ways —
/// naively (every shard launches its own) and batched (the sharded
/// backend's single vectorized count + joint selection schedule). The
/// per-shard statistical behaviour is untouched; only the accounting of
/// who pays α for which launch differs.
pub struct SimShardedCluster {
    shards: Vec<SimCluster>,
    net: CostModel,
    p: usize,
}

impl SimShardedCluster {
    /// Build a fleet of `shards` clusters over `cfg` (its `seed` is
    /// re-derived per shard). Requires [`SimAlgo::Ours`] — the joint
    /// schedule batches the distributed selection protocol, which the
    /// gather funnel does not run — and no continuous publication (the
    /// threaded sharded backend batches epoch placement separately).
    pub fn new(cfg: SimConfig, shards: usize, net: CostModel, costs: AnalyticLocalCosts) -> Self {
        assert!(shards >= 1, "at least one shard");
        assert!(
            matches!(cfg.algo, SimAlgo::Ours { .. }),
            "the sharded schedule batches the distributed selection protocol"
        );
        assert!(
            cfg.continuous == super::ContinuousMode::Disabled,
            "sharded simulation models batch steps only"
        );
        let fleet = (0..shards)
            .map(|s| {
                let scfg = SimConfig {
                    seed: crate::dist::sharded::shard_seed(cfg.seed, s),
                    ..cfg
                };
                SimCluster::new(scfg, net, costs)
            })
            .collect();
        SimShardedCluster {
            shards: fleet,
            net,
            p: cfg.p,
        }
    }

    /// Number of shards in the fleet.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's cluster, for inspection (threshold, sample, ...).
    pub fn shard(&mut self, s: usize) -> &mut SimCluster {
        &mut self.shards[s]
    }

    /// Step every shard one mini-batch and account the cross-shard
    /// collectives both ways.
    pub fn process_batch(&mut self) -> ShardedSimReport {
        let s_count = self.shards.len() as u64;
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut round_payloads: Vec<Vec<u64>> = Vec::with_capacity(self.shards.len());
        for cluster in &mut self.shards {
            let r = cluster.process_batch();
            let payloads = if r.rounds > 0 {
                cluster.engine().backend().last_select_payloads().to_vec()
            } else {
                Vec::new()
            };
            debug_assert_eq!(payloads.len(), r.rounds as usize);
            round_payloads.push(payloads);
            per_shard.push(r);
        }

        // Naive: every shard launches its own 1-word count all-reduce
        // plus one all-reduce per selection round.
        let mut naive_collectives = s_count;
        let mut naive_net_s = s_count as f64 * self.net.allreduce(self.p, 1).seconds();
        for payloads in &round_payloads {
            naive_collectives += payloads.len() as u64;
            for &words in payloads {
                naive_net_s += self.net.allreduce(self.p, words).seconds();
            }
        }

        // Batched: ONE vectorized count all-reduce (`S` words), then one
        // combined all-reduce per joint round carrying every still-active
        // shard's payload side by side. Latency per round is paid once
        // for the fleet; the payloads only widen β terms.
        let max_rounds = round_payloads.iter().map(Vec::len).max().unwrap_or(0);
        let batched_collectives = 1 + max_rounds as u64;
        let mut batched_net_s = self.net.allreduce(self.p, s_count).seconds();
        for j in 0..max_rounds {
            let words: u64 = round_payloads.iter().filter_map(|p| p.get(j)).sum();
            batched_net_s += self.net.allreduce(self.p, words).seconds();
        }

        let shards_selected = round_payloads.iter().filter(|p| !p.is_empty()).count();
        ShardedSimReport {
            per_shard,
            shards_selected,
            naive_collectives,
            batched_collectives,
            naive_net_s,
            batched_net_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(p: usize, k: usize, b: u64, algo: SimAlgo, seed: u64) -> SimConfig {
        SimConfig::new(p, k, b, SamplingMode::Weighted, algo, seed)
    }

    #[test]
    fn sample_reaches_k_and_threshold_brackets_it() {
        let mut sim = SimCluster::new(
            cfg(4, 100, 1_000, SimAlgo::Ours { pivots: 1 }, 1),
            CostModel::infiniband_edr(),
            AnalyticLocalCosts::default(),
        );
        for _ in 0..3 {
            sim.process_batch();
        }
        let sample = sim.sample();
        assert_eq!(sample.len(), 100);
        let t = sim.threshold().expect("established");
        assert!(sample.iter().all(|s| s.key <= t));
        assert_eq!(sim.items_seen(), 3 * 4 * 1_000);
        let mut ids: Vec<u64> = sample.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn bootstrap_growing_matches_faithful_law() {
        // Same configuration just above/below the faithful limit must give
        // thresholds with the same law. Compare means over seeds.
        let mean_threshold = |b: u64, trials: u64| -> f64 {
            let mut acc = 0.0;
            for s in 0..trials {
                let mut sim = SimCluster::new(
                    cfg(8, 200, b, SimAlgo::Ours { pivots: 2 }, 100 + s),
                    CostModel::infiniband_edr(),
                    AnalyticLocalCosts::default(),
                );
                for _ in 0..2 {
                    sim.process_batch();
                }
                acc += sim.threshold().expect("established");
            }
            acc / trials as f64
        };
        // The theoretical threshold for n items solves n q(t) = k; compare
        // both paths against it at equal n.
        let faithful = mean_threshold(10_000, 20);
        // Force the bootstrap path via a tiny FAITHFUL limit stand-in: use
        // a batch size above the limit / p.
        let big_b = FAITHFUL_GROWING_LIMIT / 8 + 1;
        let boot = {
            let mut acc = 0.0;
            let trials = 10;
            for s in 0..trials {
                let mut sim = SimCluster::new(
                    cfg(8, 200, big_b, SimAlgo::Ours { pivots: 2 }, 500 + s),
                    CostModel::infiniband_edr(),
                    AnalyticLocalCosts::default(),
                );
                sim.process_batch();
                acc += sim.threshold().expect("established");
            }
            acc / trials as f64
        };
        // Both must track k/(50 n) for their own n (weighted q(t) ≈ 50t).
        let expect_small = 200.0 / (50.0 * (2.0 * 8.0 * 10_000.0));
        let expect_big = 200.0 / (50.0 * (8.0 * big_b as f64));
        assert!(
            (faithful - expect_small).abs() < 0.25 * expect_small,
            "faithful {faithful:.3e} vs {expect_small:.3e}"
        );
        assert!(
            (boot - expect_big).abs() < 0.25 * expect_big,
            "bootstrap {boot:.3e} vs {expect_big:.3e}"
        );
    }

    #[test]
    fn gather_and_ours_agree_on_threshold() {
        let mk = |algo| {
            SimCluster::new(
                cfg(4, 300, 5_000, algo, 7),
                CostModel::infiniband_edr(),
                AnalyticLocalCosts::default(),
            )
        };
        let mut ours = mk(SimAlgo::Ours { pivots: 1 });
        let mut gather = mk(SimAlgo::Gather);
        for _ in 0..3 {
            ours.process_batch();
            gather.process_batch();
        }
        let (a, b) = (ours.threshold().unwrap(), gather.threshold().unwrap());
        assert!(
            (a - b).abs() < 0.5 * a.max(b),
            "ours {a:.3e} gather {b:.3e}"
        );
        assert_eq!(gather.sample().len(), 300);
    }

    #[test]
    fn gather_charges_gather_phase_ours_does_not() {
        let mut ours = SimCluster::new(
            cfg(8, 100, 2_000, SimAlgo::Ours { pivots: 1 }, 3),
            CostModel::infiniband_edr(),
            AnalyticLocalCosts::default(),
        );
        let mut gather = SimCluster::new(
            cfg(8, 100, 2_000, SimAlgo::Gather, 3),
            CostModel::infiniband_edr(),
            AnalyticLocalCosts::default(),
        );
        let (mut ours_t, mut gather_t) = (PhaseTimes::default(), PhaseTimes::default());
        for _ in 0..3 {
            ours_t.accumulate(&ours.process_batch().times);
            gather_t.accumulate(&gather.process_batch().times);
        }
        assert_eq!(ours_t.gather, 0.0);
        assert!(ours_t.select > 0.0);
        assert!(gather_t.gather > 0.0);
    }

    #[test]
    fn distributed_output_beats_gather_at_scale() {
        // The Section 5 crossover: for a large machine and a large sample,
        // the root funnel pays Θ(β·k) on its downlink while the
        // distributed path pays O(α log p) — both in time and in words.
        let mut sim = SimCluster::new(
            cfg(1024, 50_000, 2_000, SimAlgo::Ours { pivots: 8 }, 5),
            CostModel::infiniband_edr(),
            AnalyticLocalCosts::default(),
        );
        for _ in 0..3 {
            sim.process_batch();
        }
        let dist = sim.collect_output(OutputPath::Distributed);
        let gather = sim.collect_output(OutputPath::Gather);
        assert_eq!(dist.total, 50_000);
        assert_eq!(gather.total, 50_000);
        assert!(
            dist.bottleneck_words * 10 < gather.bottleneck_words,
            "distributed {d} words should be far below gather {g}",
            d = dist.bottleneck_words,
            g = gather.bottleneck_words
        );
        assert!(
            dist.times.output < gather.times.output,
            "distributed {d:.2e}s should beat gather {g:.2e}s",
            d = dist.times.output,
            g = gather.times.output
        );
    }

    #[test]
    fn output_is_a_snapshot_and_finalizes_only_above_k() {
        let mut sim = SimCluster::new(
            cfg(8, 500, 2_000, SimAlgo::Ours { pivots: 2 }, 9),
            CostModel::infiniband_edr(),
            AnalyticLocalCosts::default(),
        );
        for _ in 0..2 {
            sim.process_batch();
        }
        let before = sim.sample().len();
        // Steady state: the sample is already exactly k, so the distributed
        // path needs no finalization selection.
        let out = sim.collect_output(OutputPath::Distributed);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.total, 500);
        assert_eq!(sim.sample().len(), before, "collect_output must not prune");
        assert!(out.times.output > 0.0);
        assert!(out.times.insert == 0.0 && out.times.gather == 0.0);
    }

    #[test]
    fn window_mode_selects_into_window_and_finalizes_to_k() {
        // The engine's window support carries straight over to the
        // simulated backend: batch selections target the whole window,
        // and output collection pays a real finalization selection.
        let (k, hi) = (500u64, 1_000u64);
        let mut sim = SimCluster::new(
            cfg(8, k as usize, 2_000, SimAlgo::Ours { pivots: 2 }, 13).with_size_window(k, hi),
            CostModel::infiniband_edr(),
            AnalyticLocalCosts::default(),
        );
        let mut sizes = Vec::new();
        for _ in 0..4 {
            sim.process_batch();
            sizes.push(sim.sample().len() as u64);
        }
        // After the first selection the size stays within the window.
        assert!(
            sizes.iter().skip(1).all(|s| (k..=hi).contains(s)),
            "sizes {sizes:?} left the window"
        );
        let held = sim.sample().len();
        let out = sim.collect_output(OutputPath::Distributed);
        assert_eq!(out.total, k, "finalization must cut the window back to k");
        assert!(
            out.rounds >= 1,
            "a mid-window output must pay finalization selection rounds"
        );
        assert_eq!(sim.sample().len(), held, "output must stay a snapshot");
        // The window needs *fewer* batch selections than exact mode: the
        // approximate target window gives every selection slack.
        assert!(sim.threshold().is_some());
    }

    #[test]
    fn window_mode_charges_more_output_than_exact_mode() {
        let mk = |window: bool| {
            let mut c = cfg(64, 1_000, 5_000, SimAlgo::Ours { pivots: 2 }, 21);
            if window {
                c = c.with_size_window(1_000, 2_000);
            }
            let mut sim = SimCluster::new(
                c,
                CostModel::infiniband_edr(),
                AnalyticLocalCosts::default(),
            );
            for _ in 0..3 {
                sim.process_batch();
            }
            sim.collect_output(OutputPath::Distributed)
        };
        let exact = mk(false);
        let window = mk(true);
        assert_eq!(exact.rounds, 0, "exact mode is already finalized");
        assert!(window.rounds >= 1);
        assert!(
            window.times.output > exact.times.output,
            "finalization rounds must show up in the modeled output cost"
        );
        assert_eq!(window.total, exact.total);
    }

    #[test]
    fn amdahl_speedup_shapes() {
        assert_eq!(amdahl_speedup(0.0, 1), 1.0);
        assert_eq!(amdahl_speedup(0.0, 4), 4.0);
        assert_eq!(amdahl_speedup(1.0, 8), 1.0);
        let s = amdahl_speedup(0.05, 4);
        assert!(s > 3.0 && s < 4.0, "{s}");
        // Clamps out-of-range fractions.
        assert_eq!(amdahl_speedup(-3.0, 2), 2.0);
    }

    #[test]
    fn multicore_pes_shrink_the_insert_phase_only() {
        let run = |threads: usize| {
            let mut sim = SimCluster::new(
                cfg(8, 500, 50_000, SimAlgo::Ours { pivots: 2 }, 17).with_threads(threads),
                CostModel::infiniband_edr(),
                AnalyticLocalCosts::default(),
            );
            let mut times = PhaseTimes::default();
            for _ in 0..3 {
                times.accumulate(&sim.process_batch().times);
            }
            (times, sim.threshold().expect("established"))
        };
        let (t1, thr1) = run(1);
        let (t4, thr4) = run(4);
        // Multicore is a pure cost-model change: identical trajectory.
        assert_eq!(thr1, thr4, "thread count must not alter the sample law");
        assert!(
            t4.insert < t1.insert,
            "4 threads should shrink insert: {} vs {}",
            t4.insert,
            t1.insert
        );
        let speedup = t1.insert / t4.insert;
        let model = amdahl_speedup(AnalyticLocalCosts::default().par_serial_frac, 4);
        // The scan dominates this configuration's insert phase, so the
        // observed ratio lands near (below) the modeled scan speedup.
        assert!(
            speedup > 1.5 && speedup <= model + 0.3,
            "speedup {speedup} vs model {model}"
        );
        assert_eq!(t1.select > 0.0, t4.select > 0.0);
    }

    #[test]
    fn uniform_mode_threshold_tracks_k_over_n() {
        let mut sim = SimCluster::new(
            SimConfig::new(
                8,
                500,
                5_000,
                SamplingMode::Uniform,
                SimAlgo::Ours { pivots: 4 },
                11,
            ),
            CostModel::infiniband_edr(),
            AnalyticLocalCosts::default(),
        );
        for _ in 0..4 {
            sim.process_batch();
        }
        let n = sim.items_seen() as f64;
        let t = sim.threshold().expect("established");
        let expect = 500.0 / n;
        assert!((t - expect).abs() < 0.2 * expect, "{t:.3e} vs {expect:.3e}");
    }

    #[test]
    #[should_panic(expected = "no variable-size mode")]
    fn gather_algo_rejects_windows() {
        let _ = SimCluster::new(
            cfg(4, 100, 1_000, SimAlgo::Gather, 1).with_size_window(100, 200),
            CostModel::infiniband_edr(),
            AnalyticLocalCosts::default(),
        );
    }
}
