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
//!    [`LocalReservoir`](crate::dist::local::LocalReservoir) (each shard
//!    is a full per-PE reservoir; all of a PE's shards scan on its one
//!    worker crew) below that shard's own threshold. Local, no
//!    communication. A shard whose bucket is empty on every PE skips its
//!    step altogether (the sparse-batch fast path, below).
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
//! Each shard is an ordinary [`ReservoirProtocol`] over a
//! [`CommBackend`], so the protocol body — when to select and for which
//! rank, the post-step union, the finalized keep count and total,
//! continuous publication, Section 5 output — exists once, in the
//! engine. The fleet drives the engines' local phases itself and issues
//! only the batched collectives above in place of the engines'
//! per-shard ones.
//!
//! **The law is unchanged per shard.** Shard `s` draws its RNG streams
//! through the same derivation a standalone
//! [`DistributedSampler`](crate::dist::threaded::DistributedSampler)
//! with seed [`shard_seed`]`(seed, s)` would use, and the joint
//! selection reproduces each shard's standalone selection trajectory
//! byte-for-byte — so a shard's sample is *byte-identical* to the
//! single-tenant sampler fed exactly that shard's records, batch report
//! by batch report and epoch by epoch (`tests/sharded.rs` pins this, and
//! the χ² suites pin the law).

use std::sync::mpsc::Receiver;
use std::time::Instant;

use reservoir_comm::{Collectives, Communicator};
use reservoir_obs::LazyCounter;
use reservoir_par::Pool;
use reservoir_select::{select_threaded_many, SelectParams, SelectResult, TargetRank};
use reservoir_stream::ingest::MiniBatch;
use reservoir_stream::{Item, ShardRouter};

use crate::dist::engine::{drain, Finalized, Placement, ReservoirProtocol, SamplerBackend};
use crate::dist::output::SampleHandle;
use crate::dist::snapshot::SnapshotReader;
use crate::dist::threaded::CommBackend;
use crate::dist::{BatchReport, ContinuousMode, DistConfig};
use crate::metrics::PhaseTimes;
use crate::sample::SampleItem;

/// Batched supersteps driven across whole shard fleets.
static SHARDED_BATCHES: LazyCounter = LazyCounter::new(
    "sharded_batches_total",
    "batched supersteps driven across shard fleets",
);
static SHARDED_JOINT_ROUNDS: LazyCounter = LazyCounter::new(
    "sharded_joint_rounds_total",
    "joint selection rounds paid on the wire by batched supersteps",
);
static SHARDED_COLLECTIVE_LAUNCHES: LazyCounter = LazyCounter::new(
    "sharded_collective_launches_total",
    "collective launches amortized across shard fleets by batched supersteps",
);
static SHARDED_SPARSE_SKIPS: LazyCounter = LazyCounter::new(
    "shards_skipped_sparse_total",
    "shard engine steps skipped because the shard's bucket was empty fleet-wide",
);

/// Shard `s`'s sampler seed under master seed `seed`: golden-ratio
/// salted so shard streams are pairwise independent, and exposed so a
/// reference single-tenant sampler can reproduce any one shard exactly.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Elementwise sum — the combine of the vectorized place collective.
fn add_vecs(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// What one joint selection returned to the fleet.
struct JointSelection {
    /// Each shard's result, `None` for shards that did not select.
    results: Vec<Option<SelectResult>>,
    /// Joint rounds paid on the wire (2 collectives each).
    rounds: u32,
    /// Each selecting shard's share of the measured wall time.
    share: f64,
}

/// One shard's finalized and placed output slice.
struct Finalization {
    fin: Finalized,
    placement: Placement,
    /// Its share of the batched collectives' wall time.
    output_s: f64,
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
    /// a selection, so no scan ran and their engine did not step (their
    /// [`BatchReport`] carries only the known union size).
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
    /// continuous publication (+ 2 per joint round of its finalize
    /// selection, which only a size window needs) — independent of the
    /// shard count.
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
/// collective; the accessors are local.
///
/// The fleet steps its shards one at a time, so each PE builds one pool
/// of `cfg.threads_per_pe` workers and every shard's reservoir scans on
/// its crew: `threads_per_pe − 1` helper threads per PE, whatever the
/// shard count.
pub struct ShardedSampler<'a, C: Communicator> {
    comm: &'a C,
    engines: Vec<ReservoirProtocol<CommBackend<'a, C>>>,
}

impl<'a, C: Communicator> ShardedSampler<'a, C> {
    /// One sampler fleet of `shards` shards, each configured as `cfg`
    /// except for its [`shard_seed`]-derived seed.
    pub fn new(comm: &'a C, cfg: DistConfig, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        let pool = Pool::new(cfg.threads_per_pe);
        let engines = (0..shards)
            .map(|s| {
                let shard_cfg = DistConfig {
                    seed: shard_seed(cfg.seed, s),
                    ..cfg
                };
                let backend = CommBackend::with_pool(comm, &shard_cfg, pool.clone());
                ReservoirProtocol::new(backend, shard_cfg)
            })
            .collect();
        ShardedSampler { comm, engines }
    }

    /// Retired and inert (the sparse skip is unconditional); the frozen
    /// benchmark harness is its only user.
    #[doc(hidden)]
    pub fn with_sparse_skip(self, _on: bool) -> Self {
        self
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
        self.engines[shard].backend().local_len()
    }

    /// Shard `s`'s sample members on this PE.
    pub fn local_sample(&self, shard: usize) -> Vec<SampleItem> {
        self.engines[shard].backend().local_items()
    }

    /// A snapshot reader over shard `s`'s always-fresh epoch slot
    /// (publishes under [`ContinuousMode::EveryBatch`]).
    pub fn snapshot_reader(&self, shard: usize) -> SnapshotReader {
        self.engines[shard].snapshot_reader()
    }

    /// ONE vectorized all-reduce of every shard's local size, with the
    /// `extra` words riding the same launch; returns the sums and the
    /// wall time.
    fn count(&self, extra: impl Iterator<Item = u64>) -> (Vec<u64>, f64) {
        let t0 = Instant::now();
        let words: Vec<u64> = self
            .engines
            .iter()
            .map(|e| e.backend().local_len())
            .chain(extra)
            .collect();
        let sums = self.comm.sum_u64_vec(words);
        (sums, t0.elapsed().as_secs_f64())
    }

    /// ONE joint selection (collective) for every shard `tasks` names,
    /// with its target and agreed union. Each shard selects on its own
    /// selection stream, which advances only when `commit` (epoch
    /// publication selects on a copy, as the engine's checkpoint does).
    fn joint_select(
        &mut self,
        tasks: &[Option<(TargetRank, u64)>],
        commit: bool,
    ) -> JointSelection {
        let mut results = vec![None; tasks.len()];
        let active: Vec<usize> = (0..tasks.len()).filter(|&s| tasks[s].is_some()).collect();
        if active.is_empty() {
            return JointSelection {
                results,
                rounds: 0,
                share: 0.0,
            };
        }
        let t0 = Instant::now();
        let (targets, totals): (Vec<TargetRank>, Vec<u64>) =
            active.iter().filter_map(|&s| tasks[s]).unzip();
        let mut rngs: Vec<_> = active
            .iter()
            .map(|&s| self.engines[s].backend().select_rng.clone())
            .collect();
        let outcome = {
            let sets: Vec<_> = active
                .iter()
                .map(|&s| self.engines[s].backend().local.tree())
                .collect();
            select_threaded_many(
                self.comm,
                &sets,
                &targets,
                &totals,
                SelectParams::with_pivots(self.engines[0].config().pivots),
                &mut rngs,
            )
        };
        let share = t0.elapsed().as_secs_f64() / active.len() as f64;
        for ((&s, res), rng) in active.iter().zip(outcome.results).zip(rngs) {
            results[s] = Some(res);
            if commit {
                self.engines[s].backend_mut().select_rng = rng;
            }
        }
        JointSelection {
            results,
            rounds: outcome.joint_rounds,
            share,
        }
    }

    /// The Section 5 finalize → place sequence (collective) for every
    /// shard with a union in `unions` (`None` sits out): ONE
    /// joint finalize selection and ONE vectorized exclusive prefix sum,
    /// whatever the shard count. `commit` as in [`Self::joint_select`].
    /// Also returns the collective launches it issued.
    fn finalize(
        &mut self,
        unions: &[Option<u64>],
        commit: bool,
    ) -> (Vec<Option<Finalization>>, u32) {
        let n = self.engines.len();
        let tasks: Vec<_> = self
            .engines
            .iter()
            .zip(unions)
            .map(|(e, u)| u.and_then(|u| e.finalize_target(u).map(|t| (t, u))))
            .collect();
        let sel = self.joint_select(&tasks, commit);
        let mut outs: Vec<Option<Finalization>> = (0..n)
            .map(|s| {
                let fin = self.engines[s].finalized(unions[s]?, sel.results[s]);
                Some(Finalization {
                    placement: Placement {
                        offset: 0,
                        total: fin.total,
                    },
                    output_s: if sel.results[s].is_some() {
                        sel.share
                    } else {
                        0.0
                    },
                    fin,
                })
            })
            .collect();
        let t0 = Instant::now();
        let keeps = outs
            .iter()
            .map(|o| o.as_ref().map_or(0, |o| o.fin.keep))
            .collect();
        let offsets = self
            .comm
            .exscan(keeps, add_vecs)
            .unwrap_or_else(|| vec![0; n]);
        let placed = outs.iter().flatten().count().max(1);
        let place_share = t0.elapsed().as_secs_f64() / placed as f64;
        for (out, offset) in outs.iter_mut().zip(offsets) {
            if let Some(out) = out {
                out.placement.offset = offset;
                out.output_s += place_share;
            }
        }
        (outs, 1 + 2 * sel.rounds)
    }

    /// One batched superstep over pre-routed buckets (collective; one
    /// bucket per shard, empty buckets fine — and required on PEs whose
    /// channel ran dry, since every PE must step every shard equally).
    pub fn process_batch(&mut self, buckets: &[Vec<Item>]) -> ShardedBatchReport {
        let s_count = self.engines.len();
        assert_eq!(buckets.len(), s_count, "one bucket per shard");

        // Phase 1 — per-shard scans, local. Scanning an empty bucket only
        // advances the reservoir's batch counter, so an empty bucket takes
        // that O(1) path instead of a scan call.
        let mut per_shard: Vec<BatchReport> = self
            .engines
            .iter_mut()
            .zip(buckets)
            .map(|(engine, bucket)| {
                if bucket.is_empty() {
                    engine.backend_mut().local.skip_batch();
                    BatchReport::default()
                } else {
                    engine.scan(bucket)
                }
            })
            .collect();

        // Phase 2 — ONE vectorized count across all shards. The same
        // launch also carries the per-shard bucket lengths (2S words, still
        // one collective), so every PE agrees on which shards saw no
        // records anywhere.
        let (sums, count_s) = self.count(buckets.iter().map(|b| b.len() as u64));
        let (unions, fleet_records) = sums.split_at(s_count);

        // Phase 3 — ONE joint selection for every shard over its limit.
        let tasks: Vec<_> = (0..s_count)
            .map(|s| {
                self.engines[s]
                    .step_target(unions[s])
                    .map(|t| (t, unions[s]))
            })
            .collect();
        let sel = self.joint_select(&tasks, true);
        let mut collective_calls = 1 + 2 * sel.rounds;

        // A shard skips when its bucket is empty on every PE *and* its
        // (unchanged) union calls for no selection — deterministic from
        // collective data, so the fleet agrees without extra wire. Its
        // engine does not step: the batch-counter bump above is exactly
        // the state change processing the empty bucket would have made,
        // and its report carries only the union.
        let stepped: Vec<bool> = (0..s_count)
            .map(|s| fleet_records[s] > 0 || tasks[s].is_some())
            .collect();
        let shards_skipped = stepped.iter().filter(|&&on| !on).count();
        let count_share = count_s / (s_count - shards_skipped).max(1) as f64;
        for (s, report) in per_shard.iter_mut().enumerate() {
            if stepped[s] {
                report.times.threshold += count_share;
                if sel.results[s].is_some() {
                    report.times.select += sel.share;
                }
            }
            self.engines[s].adopt(unions[s], sel.results[s], report);
        }

        // Phase 4 (continuous only) — every stepped shard publishes an
        // epoch over its post-step union: the batched finalize sequence,
        // on checkpointed selection streams.
        if self.engines[0].config().continuous == ContinuousMode::EveryBatch {
            let posts: Vec<Option<u64>> = (0..s_count)
                .map(|s| stepped[s].then_some(per_shard[s].sample_size))
                .collect();
            let (outs, calls) = self.finalize(&posts, false);
            collective_calls += calls;
            for (s, out) in outs.into_iter().enumerate() {
                if let Some(out) = out {
                    let times = &mut per_shard[s].times;
                    times.output += out.output_s;
                    let items = self.engines[s].extract(&out.fin, times);
                    self.engines[s].publish(items, out.placement, &out.fin);
                }
            }
        }

        // Phase 5 — every stepped engine closes its step.
        let mut solo_rounds = 0u64;
        for (s, report) in per_shard.iter().enumerate() {
            if stepped[s] {
                self.engines[s].close_step(buckets[s].len() as u64, report);
                solo_rounds += report.select_rounds as u64;
            }
        }
        SHARDED_BATCHES.inc();
        SHARDED_JOINT_ROUNDS.add(sel.rounds as u64);
        SHARDED_COLLECTIVE_LAUNCHES.add(collective_calls as u64);
        SHARDED_SPARSE_SKIPS.add(shards_skipped as u64);
        ShardedBatchReport {
            per_shard,
            shards_selected: sel.results.iter().flatten().count(),
            shards_skipped,
            joint_select_rounds: sel.rounds,
            solo_select_rounds: solo_rounds,
            collective_calls,
        }
    }

    /// Section 5 output for the whole fleet (collective): ONE batched
    /// union count, ONE joint finalize selection over every shard still
    /// above `k`, and ONE vectorized placement prefix sum; each engine
    /// then builds its shard's handle.
    pub fn collect_output(&mut self) -> Vec<SampleHandle> {
        let (unions, count_s) = self.count(std::iter::empty());
        let count_share = count_s / self.engines.len() as f64;
        let unions: Vec<Option<u64>> = unions.into_iter().map(Some).collect();
        let (outs, _) = self.finalize(&unions, true);
        self.engines
            .iter_mut()
            .zip(outs.into_iter().flatten())
            .map(|(engine, out)| {
                let mut times = PhaseTimes {
                    output: count_share + out.output_s,
                    ..PhaseTimes::default()
                };
                let items = engine.extract(&out.fin, &mut times);
                engine.output(items, out.placement, &out.fin, times).0
            })
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
        let (mut joint, mut solo, mut calls) = (0u64, 0u64, 0u64);
        let tally = drain(
            batches,
            self,
            |fleet, active| fleet.comm.sum_u64(active),
            |fleet, items| {
                for bucket in &mut buckets {
                    bucket.clear();
                }
                router.route_into(items.iter().copied(), &mut buckets);
                let report = fleet.process_batch(&buckets);
                joint += report.joint_select_rounds as u64;
                solo += report.solo_select_rounds;
                calls += report.collective_calls as u64;
            },
        );
        let handles = self.collect_output();
        ShardedPipelineReport {
            batches: tally.batches,
            rounds: tally.rounds,
            records: tally.records,
            joint_select_rounds: joint,
            solo_select_rounds: solo,
            collective_calls: calls,
            handles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reservoir_comm::run_threads;

    #[test]
    fn every_shard_of_a_fleet_scans_on_the_pes_one_crew() {
        // Pointer equality, not an OS thread count: the harness runs
        // tests concurrently.
        for threads in [1usize, 4] {
            run_threads(1, |comm| {
                let cfg = DistConfig::weighted(8, 3).with_threads(threads);
                let fleet = ShardedSampler::new(&comm, cfg, 16);
                let first = fleet.engines[0].backend().local.pool();
                assert_eq!(first.helpers(), threads - 1);
                for engine in &fleet.engines {
                    let pool = engine.backend().local.pool();
                    assert_eq!(
                        pool.shares_crew_with(first),
                        threads > 1,
                        "threads={threads}: a shard scans outside the PE's crew"
                    );
                }
            });
        }
    }
}
