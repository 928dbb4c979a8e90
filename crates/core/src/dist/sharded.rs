//! Multi-tenant sharded sampling: many independent weighted reservoirs
//! behind **one** collective schedule.
//!
//! The paper's per-batch communication bound — O(α log p) latency,
//! independent of the stream length — is paid *per sample*. Serving a
//! sample per key (per user, per tenant, per flow) naively multiplies
//! that latency by the key cardinality: S shards would pay S count
//! all-reduces and S independent selection protocols per mini-batch.
//! [`ShardedSampler`] collapses that to a **batched schedule**:
//!
//! 1. **route + scan** — each record goes to its shard's
//!    [`PeReservoir`] (sequential, parallel, or concurrent local scan —
//!    each shard is a full per-PE reservoir) below that shard's own
//!    threshold. Local, no communication.
//! 2. **batched count** — ONE vectorized all-reduce
//!    (`sum_u64_vec` over the `S`-entry vector of per-shard local
//!    sizes) replaces S scalar count rounds.
//! 3. **batched select/prune** — every shard whose union outgrew its
//!    limit joins ONE joint selection
//!    ([`select_threaded_many`]): per joint round, all active shards'
//!    pivot candidates ride one all-reduce and all their pivot counts
//!    ride one `sum_u64_vec`, so the whole fleet pays
//!    `max` (not `sum`) of the per-shard round counts. Pruning stays
//!    local per shard.
//! 4. **batched publish** (continuous mode) — the per-shard epoch
//!    placements ride ONE vectorized exclusive prefix sum.
//!
//! Each shard is driven by its own unmodified
//! [`ReservoirProtocol`] engine, so the protocol body — threshold
//! bookkeeping, continuous publication, Section 5 output — exists once
//! and is reused verbatim. The trick is the backend:
//! [`ShardEndpoint`] serves the engine's collective steps from a **plan**
//! the driver computed with the batched collectives above, instead of
//! issuing per-shard collectives. Every planned value is consumed
//! exactly once; a plan miss panics ("schedule drift") rather than
//! silently desynchronizing the fleet.
//!
//! **The law is unchanged per shard.** Shard `s` draws its RNG streams
//! through the same derivation a standalone
//! [`DistributedSampler`](crate::dist::threaded::DistributedSampler)
//! with seed [`shard_seed`]`(seed, s)` would use, and the joint
//! selection reproduces each shard's standalone selection trajectory
//! byte-for-byte — so a shard's sample is *byte-identical* to the
//! single-tenant sampler fed exactly that shard's records
//! (`tests/sharded.rs` pins this, and the χ² suites pin the law).

use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use reservoir_btree::{NodePool, SampleKey};
use reservoir_comm::{Collectives, Communicator};
use reservoir_rng::{DefaultRng, StreamKind};
use reservoir_select::{
    select_threaded_many, CandidateSet, SelectParams, SelectResult, TargetRank,
};
use reservoir_stream::ingest::MiniBatch;
use reservoir_stream::{Item, ShardRouter};

use reservoir_obs::LazyCounter;

use crate::dist::engine::{Charge, InsertOutcome, Placement, ReservoirProtocol, SamplerBackend};
use crate::dist::local::{PeReservoir, ScanStats};

/// Batched supersteps driven across whole shard fleets.
static SHARDED_BATCHES: LazyCounter = LazyCounter::new(
    "sharded_batches_total",
    "batched supersteps driven across shard fleets",
);
static SHARDED_JOINT_ROUNDS: LazyCounter = LazyCounter::new(
    "sharded_joint_rounds_total",
    "joint selection rounds paid on the wire by batched supersteps",
);
static SHARDED_SOLO_ROUNDS: LazyCounter = LazyCounter::new(
    "sharded_solo_rounds_total",
    "per-shard selection rounds solo scheduling would have paid instead",
);
static SHARDED_COLLECTIVE_LAUNCHES: LazyCounter = LazyCounter::new(
    "sharded_collective_launches_total",
    "collective launches amortized across shard fleets by batched supersteps",
);
static SHARDED_SPARSE_SKIPS: LazyCounter = LazyCounter::new(
    "shards_skipped_sparse_total",
    "shard engine steps skipped because the shard's bucket was empty fleet-wide",
);
use crate::dist::output::SampleHandle;
use crate::dist::snapshot::SnapshotReader;
use crate::dist::threaded::stream_seq;
use crate::dist::{
    BatchReport, ContinuousMode, DistConfig, MergeMode, SamplingMode, PAR_SCAN_STREAM,
};
use crate::metrics::PhaseTimes;
use crate::sample::SampleItem;

/// Shard `s`'s sampler seed under master seed `seed`: golden-ratio
/// salted so shard streams are pairwise independent, and exposed so a
/// reference single-tenant sampler can reproduce any one shard exactly.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Elementwise sum — the combine of the vectorized place collectives.
fn add_vecs(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// What the driver's real scan measured for one shard, replayed when
/// the engine's step reaches that shard.
struct PlannedScan {
    stats: ScanStats,
    insert_s: f64,
    par_scan_max_s: f64,
}

/// The per-superstep plan one shard's endpoint serves to its engine.
/// Each field is the result of a *batched* collective (or a value
/// derivable from one) plus this shard's amortized share of the
/// collective's measured wall time; each is taken exactly once.
#[derive(Default)]
struct ShardPlan {
    scan: Option<PlannedScan>,
    /// Served on `count(Charge::Threshold)`: this shard's slice of the
    /// batched pre-select union count.
    pre_union: Option<(u64, f64)>,
    /// Served on `select(Charge::Select)`: this shard's result from the
    /// joint batched selection.
    batch_select: Option<(SelectResult, f64)>,
    /// Served on `count(Charge::Output)`: the post-step (or collection
    /// time) union, known from the batched count + selection ranks.
    fin_union: Option<(u64, f64)>,
    /// Served on `select(Charge::Output)`: this shard's result from the
    /// joint finalize selection of `collect_output`.
    fin_select: Option<(SelectResult, f64)>,
    /// Served on `place`: `(expected keep, placement, time share)` from
    /// the vectorized exclusive prefix sum.
    placement: Option<(u64, Placement, f64)>,
}

/// One shard's endpoint of the engine: a real [`PeReservoir`] and real
/// RNG streams (byte-compatible with a standalone sampler under
/// [`shard_seed`]), but every collective step served from the driver's
/// batched [`ShardPlan`] instead of a per-shard wire round.
pub struct ShardEndpoint<'a, C: Communicator> {
    comm: &'a C,
    local: PeReservoir,
    key_rng: DefaultRng,
    select_rng: DefaultRng,
    plan: ShardPlan,
}

impl<'a, C: Communicator> ShardEndpoint<'a, C> {
    fn new(comm: &'a C, cfg: &DistConfig, node_pool: Option<Arc<NodePool>>) -> Self {
        let seq = stream_seq(cfg);
        ShardEndpoint {
            local: PeReservoir::for_config_pooled(
                cfg,
                cfg.local_cap(),
                seq.seed_for(comm.rank(), StreamKind::Custom(PAR_SCAN_STREAM)),
                node_pool,
            ),
            key_rng: seq.rng_for(comm.rank(), StreamKind::Keys),
            select_rng: seq.rng_for(comm.rank(), StreamKind::Selection),
            plan: ShardPlan::default(),
            comm,
        }
    }

    /// The driver-side real scan, run *before* the engine steps so the
    /// batched count collective can cover every shard's post-scan size.
    fn scan(&mut self, mode: SamplingMode, items: &[Item], threshold: Option<SampleKey>) {
        let t0 = Instant::now();
        let outcome = self
            .local
            .process(mode, items, threshold.map(|k| k.key), &mut self.key_rng);
        let planned = PlannedScan {
            stats: outcome.stats,
            insert_s: t0.elapsed().as_secs_f64(),
            par_scan_max_s: outcome.par_scan_max_s,
        };
        let stale = self.plan.scan.replace(planned);
        assert!(
            stale.is_none(),
            "sharded schedule drift: shard scanned twice without a step"
        );
    }
}

impl<C: Communicator> SamplerBackend for ShardEndpoint<'_, C> {
    fn insert(
        &mut self,
        _mode: SamplingMode,
        items: &[Item],
        _threshold: Option<SampleKey>,
        times: &mut PhaseTimes,
    ) -> InsertOutcome {
        debug_assert!(
            items.is_empty(),
            "the sharded driver scans shard buckets before stepping"
        );
        let planned = self
            .plan
            .scan
            .take()
            .expect("sharded schedule drift: step without a planned scan");
        times.insert += planned.insert_s;
        times.par_scan += planned.par_scan_max_s;
        InsertOutcome {
            stats: planned.stats,
        }
    }

    fn count(&mut self, times: &mut PhaseTimes, charge: Charge) -> u64 {
        let (union, share) = match charge {
            Charge::Threshold => self
                .plan
                .pre_union
                .take()
                .expect("sharded schedule drift: step without a batched union count"),
            Charge::Output => self
                .plan
                .fin_union
                .take()
                .expect("sharded schedule drift: finalize without a planned union"),
            Charge::Select => unreachable!("the engine never bills a count to Select"),
        };
        *charge.slot(times) += share;
        union
    }

    fn select(
        &mut self,
        target: TargetRank,
        _union: u64,
        _pivots: usize,
        times: &mut PhaseTimes,
        charge: Charge,
    ) -> SelectResult {
        let (res, share) = match charge {
            Charge::Select => self
                .plan
                .batch_select
                .take()
                .expect("sharded schedule drift: unplanned batch selection"),
            Charge::Output => self
                .plan
                .fin_select
                .take()
                .expect("sharded schedule drift: unplanned finalize selection"),
            Charge::Threshold => unreachable!("the engine never bills a selection to Threshold"),
        };
        debug_assert!(
            target.lo <= res.rank && res.rank <= target.hi,
            "planned selection rank {} outside the engine's target {target:?}",
            res.rank
        );
        *charge.slot(times) += share;
        res
    }

    fn prune(&mut self, t: &SampleKey, times: &mut PhaseTimes, charge: Charge) {
        let t0 = Instant::now();
        self.local.prune_above(t);
        *charge.slot(times) += t0.elapsed().as_secs_f64();
    }

    fn place(&mut self, local: u64, times: &mut PhaseTimes) -> Placement {
        let (keep, placement, share) = self
            .plan
            .placement
            .take()
            .expect("sharded schedule drift: place without a planned placement");
        debug_assert_eq!(
            local, keep,
            "planned placement disagrees with the engine's keep count"
        );
        times.output += share;
        placement
    }

    fn local_len(&self) -> u64 {
        self.local.len()
    }

    fn local_count_le(&self, t: &SampleKey) -> u64 {
        self.local.count_le(t)
    }

    fn local_items_le(
        &self,
        t: Option<&SampleKey>,
        buf: &mut Vec<SampleItem>,
        times: &mut PhaseTimes,
    ) {
        let t0 = Instant::now();
        self.local.items_le_into(t, buf);
        times.output += t0.elapsed().as_secs_f64();
    }

    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn size(&self) -> usize {
        self.comm.size()
    }

    fn select_rng_state(&self) -> Vec<DefaultRng> {
        vec![self.select_rng.clone()]
    }

    fn restore_select_rng(&mut self, mut state: Vec<DefaultRng>) {
        self.select_rng = state.pop().expect("one shard, one selection generator");
    }
}

/// What one batched superstep did across the whole shard fleet.
#[derive(Clone, Debug)]
pub struct ShardedBatchReport {
    /// Per-shard step reports, in shard order (the same [`BatchReport`]
    /// a standalone sampler would emit for that shard's bucket).
    pub per_shard: Vec<BatchReport>,
    /// Shards that ran a selection this superstep.
    pub shards_selected: usize,
    /// Shards the sparse-batch fast path skipped this superstep: their
    /// bucket was empty on **every** PE and their union did not trigger
    /// a selection, so no scan ran, no plan entries were made, and their
    /// engine did not step (their synthesized [`BatchReport`] carries
    /// only the known union size).
    pub shards_skipped: usize,
    /// Joint selection rounds the whole fleet paid (the **max** over
    /// the active shards' round counts — the amortization witness; a
    /// per-shard schedule would have paid their **sum**).
    pub joint_select_rounds: u32,
    /// Per-shard selection rounds summed — what S independent samplers
    /// would have paid (compare with `joint_select_rounds`).
    pub solo_select_rounds: u64,
    /// Vectorized collective calls this superstep issued: 1 batched
    /// count + 2 per joint selection round + 1 batched placement per
    /// continuous publication — independent of the shard count.
    pub collective_calls: u32,
}

/// The sharded pipeline's summary: per-shard Section 5 handles plus the
/// fleet-level round accounting.
#[derive(Debug)]
pub struct ShardedPipelineReport {
    /// Mini-batches this PE drained from its channel.
    pub batches: u64,
    /// Collective supersteps (max batches over PEs; every PE steps the
    /// same number of times).
    pub rounds: u64,
    /// Records this PE routed.
    pub records: u64,
    /// Total joint selection rounds across the run.
    pub joint_select_rounds: u64,
    /// Total per-shard selection rounds (what independent samplers
    /// would have paid).
    pub solo_select_rounds: u64,
    /// Total vectorized collective calls across the run.
    pub collective_calls: u64,
    /// One root-free output handle per shard, in shard order.
    pub handles: Vec<SampleHandle>,
}

/// Many independent per-key weighted reservoirs behind one collective
/// schedule. See the module docs for the batched superstep; see
/// [`shard_seed`] for the per-shard law guarantee.
///
/// Construction is collective (every PE passes the same `cfg` and
/// `shards`); `process_batch`, `run_pipeline` and `collect_output` are
/// collective; the accessors are local. Variable-size windows are
/// supported, but not combined with continuous snapshots (the step-time
/// publication of an over-`k` window would need an extra planned
/// selection; single-tenant samplers cover that case).
pub struct ShardedSampler<'a, C: Communicator> {
    comm: &'a C,
    engines: Vec<ReservoirProtocol<ShardEndpoint<'a, C>>>,
    /// One page-granular node pool shared by every shard's concurrent
    /// tree on this PE (`MergeMode::Concurrent` only): fleet
    /// construction costs O(pages) heap allocations instead of one
    /// arena per shard, and pruned shards recycle slots to growing ones.
    node_pool: Option<Arc<NodePool>>,
    /// Skip scan/plan/step for shards whose bucket is empty fleet-wide
    /// (on by default; [`Self::with_sparse_skip`]).
    sparse_skip: bool,
}

impl<'a, C: Communicator> ShardedSampler<'a, C> {
    /// One sampler fleet of `shards` shards, each configured as `cfg`
    /// except for its [`shard_seed`]-derived seed.
    pub fn new(comm: &'a C, cfg: DistConfig, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        assert!(
            cfg.size_window.is_none() || cfg.continuous == ContinuousMode::Disabled,
            "sharded sampling supports a size window or continuous snapshots, not both"
        );
        // Under the concurrent merge every shard's tree borrows node
        // slots from one shared pool; the epilogue-merge arms use the
        // Box-node sequential tree, which has no pool to share.
        let node_pool = (cfg.merge == MergeMode::Concurrent).then(|| Arc::new(NodePool::new()));
        let engines = (0..shards)
            .map(|s| {
                let shard_cfg = DistConfig {
                    seed: shard_seed(cfg.seed, s),
                    ..cfg
                };
                ReservoirProtocol::new(
                    ShardEndpoint::new(comm, &shard_cfg, node_pool.clone()),
                    shard_cfg,
                )
            })
            .collect();
        ShardedSampler {
            comm,
            engines,
            node_pool,
            sparse_skip: true,
        }
    }

    /// Toggle the sparse-batch fast path (default **on**). Collective:
    /// every PE must pass the same value, since the skip decision gates
    /// which shards join the planned collectives. Turning it off makes
    /// every superstep step every engine, exactly the pre-skip schedule;
    /// the per-shard samples are byte-identical either way.
    pub fn with_sparse_skip(mut self, on: bool) -> Self {
        self.sparse_skip = on;
        self
    }

    /// The node pool every shard's concurrent tree draws from on this PE
    /// (`None` under the epilogue merge modes, whose sequential trees
    /// own their nodes directly).
    pub fn node_pool(&self) -> Option<&Arc<NodePool>> {
        self.node_pool.as_ref()
    }

    /// Number of shards in the fleet.
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// Shard `s`'s current insertion threshold, once established.
    pub fn threshold(&self, shard: usize) -> Option<f64> {
        self.engines[shard].threshold()
    }

    /// Members shard `s` holds on this PE.
    pub fn local_len(&self, shard: usize) -> u64 {
        self.engines[shard].backend().local.len()
    }

    /// Shard `s`'s sample members on this PE.
    pub fn local_sample(&self, shard: usize) -> Vec<SampleItem> {
        self.engines[shard].backend().local.items()
    }

    /// A snapshot reader over shard `s`'s always-fresh epoch slot
    /// (publishes under [`ContinuousMode::EveryBatch`]).
    pub fn snapshot_reader(&self, shard: usize) -> SnapshotReader {
        self.engines[shard].snapshot_reader()
    }

    /// One batched superstep over pre-routed buckets (collective; one
    /// bucket per shard, empty buckets fine — and required on PEs whose
    /// channel ran dry, since every PE must step every shard equally).
    pub fn process_batch(&mut self, buckets: &[Vec<Item>]) -> ShardedBatchReport {
        let s_count = self.engines.len();
        assert_eq!(buckets.len(), s_count, "one bucket per shard");

        // Phase 1 — real per-shard scans, local. Under the sparse fast
        // path a shard with an empty *local* bucket defers its scan: the
        // batched count below reveals whether the bucket was empty
        // fleet-wide (skip the shard entirely) or only here (run the
        // empty scan then, to keep the engine schedule aligned with the
        // standalone sampler). An empty scan never changes the local
        // length, so the deferred shards' count words are still correct.
        for (s, bucket) in buckets.iter().enumerate() {
            if self.sparse_skip && bucket.is_empty() {
                continue;
            }
            let threshold = self.engines[s].threshold_key();
            let mode = self.engines[s].config().mode;
            self.engines[s].backend_mut().scan(mode, bucket, threshold);
        }

        // Phase 2 — ONE vectorized count across all shards. With the
        // sparse fast path the same launch also carries the per-shard
        // bucket lengths (2S words instead of S, still one collective),
        // so every PE agrees on which shards saw no records anywhere.
        let t0 = Instant::now();
        let mut words: Vec<u64> = self
            .engines
            .iter()
            .map(|e| e.backend().local.len())
            .collect();
        if self.sparse_skip {
            words.extend(buckets.iter().map(|b| b.len() as u64));
        }
        let sums = self.comm.sum_u64_vec(words);
        let unions = &sums[..s_count];
        let count_share = t0.elapsed().as_secs_f64() / s_count as f64;
        let mut collective_calls = 1u32;

        // A shard skips when its bucket is empty on every PE *and* its
        // (unchanged) union does not trigger a selection — deterministic
        // from collective data, so the fleet agrees without extra wire.
        let skipped: Vec<bool> = (0..s_count)
            .map(|s| {
                self.sparse_skip && sums[s_count + s] == 0 && !self.engines[s].select_now(unions[s])
            })
            .collect();
        for s in 0..s_count {
            if skipped[s] {
                continue;
            }
            if self.sparse_skip && buckets[s].is_empty() {
                // Deferred in phase 1 but not skipped (nonempty
                // elsewhere, or a pending selection): run the empty scan
                // now so the engine's insert step finds its plan.
                let threshold = self.engines[s].threshold_key();
                let mode = self.engines[s].config().mode;
                self.engines[s]
                    .backend_mut()
                    .scan(mode, &buckets[s], threshold);
            }
            self.engines[s].backend_mut().plan.pre_union = Some((unions[s], count_share));
        }

        // Phase 3 — ONE joint selection for every shard over its limit.
        let active: Vec<usize> = (0..s_count)
            .filter(|&s| self.engines[s].select_now(unions[s]))
            .collect();
        let mut joint_rounds = 0u32;
        let mut solo_rounds = 0u64;
        if !active.is_empty() {
            let t0 = Instant::now();
            let pivots = self.engines[0].config().pivots;
            let targets: Vec<TargetRank> = active
                .iter()
                .map(|&s| self.engines[s].select_target())
                .collect();
            let totals: Vec<u64> = active.iter().map(|&s| unions[s]).collect();
            let mut rngs: Vec<DefaultRng> = active
                .iter()
                .map(|&s| self.engines[s].backend().select_rng.clone())
                .collect();
            let outcome = {
                let sets: Vec<&dyn CandidateSet> = active
                    .iter()
                    .map(|&s| self.engines[s].backend().local.candidates())
                    .collect();
                select_threaded_many(
                    self.comm,
                    &sets,
                    &targets,
                    &totals,
                    SelectParams::with_pivots(pivots),
                    &mut rngs,
                )
            };
            let select_share = t0.elapsed().as_secs_f64() / active.len() as f64;
            joint_rounds = outcome.joint_rounds;
            collective_calls += 2 * outcome.joint_rounds;
            let mut rngs = rngs.into_iter();
            for (i, &s) in active.iter().enumerate() {
                let be = self.engines[s].backend_mut();
                be.select_rng = rngs.next().expect("one stream per active shard");
                be.plan.batch_select = Some((outcome.results[i], select_share));
                solo_rounds += outcome.results[i].rounds as u64;
            }
        }

        // Phase 4 (continuous only) — plan each shard's epoch
        // publication: the post-step union is already known (selection
        // rank, or the batched count), so only the placement offsets
        // need a wire round — ONE vectorized exclusive prefix sum.
        if self.engines[0].config().continuous == ContinuousMode::EveryBatch {
            let mut keeps = Vec::with_capacity(s_count);
            let mut posts = Vec::with_capacity(s_count);
            for (s, engine) in self.engines.iter().enumerate() {
                if skipped[s] {
                    // A skipped shard keeps its previous epoch (its
                    // sample is unchanged this superstep — readers see a
                    // stale epoch number, same members); it neither
                    // publishes nor places, so it rides the collective
                    // with zero words.
                    keeps.push(0);
                    posts.push(0);
                    continue;
                }
                let be = engine.backend();
                match be.plan.batch_select {
                    Some((res, _)) => {
                        keeps.push(be.local.count_le(&res.threshold));
                        posts.push(res.rank);
                    }
                    None => {
                        keeps.push(be.local.len());
                        posts.push(unions[s]);
                    }
                }
            }
            let t0 = Instant::now();
            let offsets = self
                .comm
                .exscan(keeps.clone(), add_vecs)
                .unwrap_or_else(|| vec![0; s_count]);
            let output_share = t0.elapsed().as_secs_f64() / s_count as f64;
            collective_calls += 1;
            for s in 0..s_count {
                if skipped[s] {
                    continue;
                }
                let be = self.engines[s].backend_mut();
                be.plan.fin_union = Some((posts[s], output_share));
                be.plan.placement = Some((
                    keeps[s],
                    Placement {
                        offset: offsets[s],
                        total: posts[s],
                    },
                    output_share,
                ));
            }
        }

        // Phase 5 — every *active* engine steps; endpoints serve the
        // plan. The only remaining work is local (replayed insert,
        // prune, publication extract). A skipped shard's engine does not
        // step at all — its reservoir just accounts for the empty batch
        // (a batch-counter bump on the parallel paths, nothing on the
        // sequential one), which is exactly the state change processing
        // the empty bucket would have caused.
        let mut shards_skipped = 0usize;
        let per_shard: Vec<BatchReport> = (0..s_count)
            .map(|s| {
                if skipped[s] {
                    shards_skipped += 1;
                    self.engines[s].backend_mut().local.skip_batch();
                    return BatchReport {
                        sample_size: unions[s],
                        ..BatchReport::default()
                    };
                }
                self.engines[s].step(&[])
            })
            .collect();
        SHARDED_BATCHES.inc();
        SHARDED_JOINT_ROUNDS.add(joint_rounds as u64);
        SHARDED_SOLO_ROUNDS.add(solo_rounds);
        SHARDED_COLLECTIVE_LAUNCHES.add(collective_calls as u64);
        SHARDED_SPARSE_SKIPS.add(shards_skipped as u64);
        ShardedBatchReport {
            per_shard,
            shards_selected: active.len(),
            shards_skipped,
            joint_select_rounds: joint_rounds,
            solo_select_rounds: solo_rounds,
            collective_calls,
        }
    }

    /// Section 5 output for the whole fleet (collective): ONE batched
    /// union count, ONE joint finalize selection over every shard still
    /// above `k`, and ONE vectorized placement prefix sum — then each
    /// engine's unmodified `collect_output` serves its shard's handle.
    pub fn collect_output(&mut self) -> Vec<SampleHandle> {
        let s_count = self.engines.len();
        // Batched finalize count.
        let t0 = Instant::now();
        let lens: Vec<u64> = self
            .engines
            .iter()
            .map(|e| e.backend().local.len())
            .collect();
        let unions = self.comm.sum_u64_vec(lens);
        let count_share = t0.elapsed().as_secs_f64() / s_count as f64;
        // Joint finalize selection for shards whose union exceeds k.
        let need: Vec<usize> = (0..s_count)
            .filter(|&s| unions[s] > self.engines[s].config().k as u64)
            .collect();
        let mut fin_threshold: Vec<Option<SampleKey>> = vec![None; s_count];
        if !need.is_empty() {
            let t0 = Instant::now();
            let pivots = self.engines[0].config().pivots;
            let targets: Vec<TargetRank> = need
                .iter()
                .map(|&s| TargetRank::exact(self.engines[s].config().k as u64))
                .collect();
            let totals: Vec<u64> = need.iter().map(|&s| unions[s]).collect();
            let mut rngs: Vec<DefaultRng> = need
                .iter()
                .map(|&s| self.engines[s].backend().select_rng.clone())
                .collect();
            let outcome = {
                let sets: Vec<&dyn CandidateSet> = need
                    .iter()
                    .map(|&s| self.engines[s].backend().local.candidates())
                    .collect();
                select_threaded_many(
                    self.comm,
                    &sets,
                    &targets,
                    &totals,
                    SelectParams::with_pivots(pivots),
                    &mut rngs,
                )
            };
            let select_share = t0.elapsed().as_secs_f64() / need.len() as f64;
            let mut rngs = rngs.into_iter();
            for (i, &s) in need.iter().enumerate() {
                let be = self.engines[s].backend_mut();
                // The standalone finalize consumes the selection stream
                // (no checkpoint on the output path); match it.
                be.select_rng = rngs.next().expect("one stream per finalizing shard");
                be.plan.fin_select = Some((outcome.results[i], select_share));
                fin_threshold[s] = Some(outcome.results[i].threshold);
            }
        }
        // Vectorized placement.
        let keeps: Vec<u64> = (0..s_count)
            .map(|s| {
                let be = self.engines[s].backend();
                match &fin_threshold[s] {
                    Some(t) => be.local.count_le(t),
                    None => be.local.len(),
                }
            })
            .collect();
        let t0 = Instant::now();
        let offsets = self
            .comm
            .exscan(keeps.clone(), add_vecs)
            .unwrap_or_else(|| vec![0; s_count]);
        let output_share = t0.elapsed().as_secs_f64() / s_count as f64;
        for s in 0..s_count {
            let k = self.engines[s].config().k as u64;
            let be = self.engines[s].backend_mut();
            be.plan.fin_union = Some((unions[s], count_share));
            be.plan.placement = Some((
                keeps[s],
                Placement {
                    offset: offsets[s],
                    total: unions[s].min(k),
                },
                output_share,
            ));
        }
        self.engines
            .iter_mut()
            .map(|e| e.collect_output().0)
            .collect()
    }

    /// The sharded pipeline driver (collective): drain mini-batches
    /// from this PE's ingestion channel, route each record to its shard
    /// with `router`, run one batched superstep per drain round (ONE
    /// 1-word continue/stop vote per round fleet-wide, exactly like the
    /// single-tenant drain), and finish with [`Self::collect_output`].
    pub fn run_pipeline<F: Fn(&Item) -> u64>(
        &mut self,
        batches: &Receiver<MiniBatch>,
        router: &ShardRouter<F>,
    ) -> ShardedPipelineReport {
        assert_eq!(
            router.shards(),
            self.engines.len(),
            "router and sampler disagree on the shard count"
        );
        let mut buckets: Vec<Vec<Item>> = vec![Vec::new(); self.engines.len()];
        let (mut drained, mut rounds, mut records) = (0u64, 0u64, 0u64);
        let (mut joint, mut solo, mut calls) = (0u64, 0u64, 0u64);
        let mut open = true;
        loop {
            let next = if open {
                match batches.recv() {
                    Ok(batch) => Some(batch),
                    Err(_) => {
                        open = false;
                        None
                    }
                }
            } else {
                None
            };
            let active = self.comm.sum_u64(next.is_some() as u64);
            if active == 0 {
                break;
            }
            for bucket in &mut buckets {
                bucket.clear();
            }
            if let Some(batch) = next {
                drained += 1;
                records += batch.items.len() as u64;
                router.route_into(batch.items, &mut buckets);
            }
            let report = self.process_batch(&buckets);
            rounds += 1;
            joint += report.joint_select_rounds as u64;
            solo += report.solo_select_rounds;
            calls += report.collective_calls as u64;
        }
        let handles = self.collect_output();
        ShardedPipelineReport {
            batches: drained,
            rounds,
            records,
            joint_select_rounds: joint,
            solo_select_rounds: solo,
            collective_calls: calls,
            handles,
        }
    }
}
