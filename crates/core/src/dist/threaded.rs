//! Algorithm 1 on the real message-passing substrate: every PE runs one
//! [`DistributedSampler`] over a shared [`Communicator`].
//!
//! The protocol body lives in [`crate::dist::engine`]; this module
//! supplies the substrate — [`CommBackend`], which scans a real
//! [`LocalReservoir`] and runs each engine step over the wire (`sum_u64`,
//! one-task `select_threaded_many`, `exscan`), measuring wall-clock into
//! the phase slot the engine names — and keeps `DistributedSampler` as
//! the thin stable-API wrapper over `ReservoirProtocol<CommBackend>`.
//!
//! `process_batch` must be called collectively (same number of calls on
//! every PE, empty slices allowed); all other methods are local except
//! [`DistributedSampler::gather_sample`] and
//! [`DistributedSampler::collect_output`], which are also collective.

use std::sync::mpsc::Receiver;
use std::time::Instant;

use reservoir_btree::SampleKey;
use reservoir_comm::{Collectives, Communicator};
use reservoir_par::{Pool, ScopeReport};
use reservoir_rng::{DefaultRng, SeedSequence, StreamKind};
use reservoir_select::{select_threaded_many, SelectParams, SelectResult, TargetRank};
use reservoir_stream::ingest::MiniBatch;
use reservoir_stream::Item;

use crate::dist::engine::{Charge, InsertOutcome, Placement, ReservoirProtocol, SamplerBackend};
use crate::dist::local::LocalReservoir;
use crate::dist::output::SampleHandle;
use crate::dist::{BatchReport, DistConfig, PipelineReport, SamplingMode};
use crate::metrics::PhaseTimes;
use crate::sample::SampleItem;

/// Wire representation of one sample member: `(id, weight, key)`.
type WireItem = (u64, f64, f64);

/// The master seed-stream derivation of [`CommBackend`]: the user seed
/// salted with the sample size, so samplers of different geometry draw
/// independent streams even under the same user seed.
fn stream_seq(cfg: &DistConfig) -> SeedSequence {
    SeedSequence::new(cfg.seed ^ (cfg.k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One PE's endpoint of the engine over real collectives: a
/// [`LocalReservoir`] fed by jump scans, distributed selection over the
/// wire, wall-clock phase measurement.
pub struct CommBackend<'a, C: Communicator> {
    comm: &'a C,
    pub(crate) local: LocalReservoir,
    pub(crate) select_rng: DefaultRng,
}

impl<'a, C: Communicator> CommBackend<'a, C> {
    /// Build this PE's backend for `cfg`. The master seed is salted with
    /// the sample size so samplers of different geometry draw independent
    /// streams even under the same user seed (the derivation
    /// [`DistributedSampler`] has always used). The PE's scans run on a
    /// pool of `cfg.threads_per_pe` workers.
    pub fn new(comm: &'a C, cfg: &DistConfig) -> Self {
        Self::with_pool(comm, cfg, Pool::new(cfg.threads_per_pe))
    }

    /// [`Self::new`] scanning on an existing `pool`: every shard of a
    /// fleet scans on its PE's one crew.
    pub(crate) fn with_pool(comm: &'a C, cfg: &DistConfig, pool: Pool) -> Self {
        let seq = stream_seq(cfg);
        CommBackend {
            local: LocalReservoir::for_pe(cfg.local_cap(), pool, &seq, comm.rank()),
            select_rng: seq.rng_for(comm.rank(), StreamKind::Selection),
            comm,
        }
    }

    /// The communicator this endpoint runs over.
    pub fn comm(&self) -> &'a C {
        self.comm
    }

    /// The pool's per-worker report for the most recent batch (`None`
    /// when the batch was scanned inline — one thread per PE or one chunk
    /// — or before the first batch).
    pub fn last_par_scan(&self) -> Option<&ScopeReport> {
        self.local.last_scope()
    }

    /// This PE's sample members.
    pub fn local_items(&self) -> Vec<SampleItem> {
        self.local.items()
    }
}

impl<C: Communicator> SamplerBackend for CommBackend<'_, C> {
    fn insert(
        &mut self,
        mode: SamplingMode,
        items: &[Item],
        threshold: Option<SampleKey>,
        times: &mut PhaseTimes,
    ) -> InsertOutcome {
        let t0 = Instant::now();
        let stats = self.local.process(mode, items, threshold.map(|k| k.key));
        times.insert += t0.elapsed().as_secs_f64();
        times.par_scan += self.local.last_scope_max_busy_s();
        InsertOutcome { stats }
    }

    fn count(&mut self, times: &mut PhaseTimes, charge: Charge) -> u64 {
        let t0 = Instant::now();
        let union = self.comm.sum_u64(self.local.len());
        *charge.slot(times) += t0.elapsed().as_secs_f64();
        union
    }

    fn select(
        &mut self,
        target: TargetRank,
        union: u64,
        pivots: usize,
        times: &mut PhaseTimes,
        charge: Charge,
    ) -> SelectResult {
        let t0 = Instant::now();
        let many = select_threaded_many(
            self.comm,
            &[self.local.tree()],
            &[target],
            &[union],
            SelectParams::with_pivots(pivots),
            std::slice::from_mut(&mut self.select_rng),
        );
        *charge.slot(times) += t0.elapsed().as_secs_f64();
        many.results[0]
    }

    fn prune(&mut self, t: &SampleKey, times: &mut PhaseTimes, charge: Charge) {
        let t0 = Instant::now();
        self.local.prune_above(t);
        *charge.slot(times) += t0.elapsed().as_secs_f64();
    }

    fn place(&mut self, local: u64, times: &mut PhaseTimes) -> Placement {
        crate::dist::engine::place_over_collectives(self.comm, local, times)
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

    fn vote(&mut self, active: u64) -> u64 {
        crate::dist::engine::vote_over_collectives(self.comm, active)
    }

    fn select_rng_state(&self) -> Vec<DefaultRng> {
        vec![self.select_rng.clone()]
    }

    fn restore_select_rng(&mut self, mut state: Vec<DefaultRng>) {
        self.select_rng = state.pop().expect("one PE, one selection generator");
    }
}

/// One PE's endpoint of the distributed mini-batch sampler (Algorithm 1):
/// the stable API over `ReservoirProtocol<CommBackend>`.
pub struct DistributedSampler<'a, C: Communicator> {
    engine: ReservoirProtocol<CommBackend<'a, C>>,
}

impl<'a, C: Communicator> DistributedSampler<'a, C> {
    /// Create this PE's endpoint. Every PE of `comm` must construct its
    /// sampler with an identical `cfg` (including `threads_per_pe` — the
    /// scan schedule is local, but reports should be comparable).
    pub fn new(comm: &'a C, cfg: DistConfig) -> Self {
        DistributedSampler {
            engine: ReservoirProtocol::new(CommBackend::new(comm, &cfg), cfg),
        }
    }

    /// Process one mini-batch (collective). Returns what happened.
    pub fn process_batch(&mut self, items: &[Item]) -> BatchReport {
        self.engine.step(items)
    }

    /// The pool's per-worker report for the most recent batch (`None`
    /// when the batch was scanned inline, or before the first batch).
    pub fn last_par_scan(&self) -> Option<&ScopeReport> {
        self.engine.backend().last_par_scan()
    }

    /// Drive the sampler from a push-based ingestion channel (collective):
    /// the engine's unified pipeline driver drains mini-batches cut by a
    /// `reservoir_stream::ingest::Batcher`, [`Self::process_batch`]s each,
    /// and finishes with one collective [`Self::collect_output`]. See
    /// [`ReservoirProtocol::run_pipeline`] for the drain protocol.
    pub fn run_pipeline(&mut self, batches: &Receiver<MiniBatch>) -> PipelineReport {
        self.engine.run_pipeline(batches)
    }

    /// Fully distributed output collection (collective; paper Section 5):
    /// the engine's finalize + place steps. Finalizes the sample to
    /// exactly `min(k, items seen)` members — in variable-size mode (or
    /// after a mid-window stream cut) one distributed selection for rank
    /// `k` fixes the final threshold; no items move — and assigns every
    /// PE the global output positions of its slice via an exclusive
    /// prefix count. O(d · rounds + 1) words per PE at O(α log p)
    /// latency, independent of `k` and the stream length.
    ///
    /// The sampler itself is left untouched (its local reservoir keeps any
    /// members above the finalization threshold), so streaming may continue
    /// afterwards; the handle is a consistent snapshot.
    pub fn collect_output(&mut self) -> SampleHandle {
        self.engine.collect_output().0
    }

    /// The current global insertion threshold, once established.
    pub fn threshold(&self) -> Option<f64> {
        self.engine.threshold()
    }

    /// Number of sample members held by this PE.
    pub fn local_len(&self) -> u64 {
        self.engine.backend().local_len()
    }

    /// This PE's sample members.
    pub fn local_sample(&self) -> Vec<SampleItem> {
        self.engine.backend().local_items()
    }

    /// Gather the full sample at PE 0 (collective): `Some(sample)` there,
    /// `None` elsewhere.
    pub fn gather_sample(&self) -> Option<Vec<SampleItem>> {
        let backend = self.engine.backend();
        let wire: Vec<WireItem> = backend
            .local_items()
            .into_iter()
            .map(|s| (s.id, s.weight, s.key))
            .collect();
        backend.comm().gather(0, wire).map(|parts| {
            parts
                .into_iter()
                .flatten()
                .map(|(id, weight, key)| SampleItem { id, weight, key })
                .collect()
        })
    }

    /// A read handle on this PE's always-fresh sample slot (see
    /// [`crate::dist::snapshot`]): clone it into any number of reader
    /// threads to query the live sample while ingestion runs. Fresh
    /// epochs appear per batch under
    /// [`ContinuousMode::EveryBatch`](crate::dist::ContinuousMode), plus
    /// one final epoch at [`Self::collect_output`].
    pub fn snapshot_reader(&self) -> crate::dist::snapshot::SnapshotReader {
        self.engine.snapshot_reader()
    }

    /// Accumulated wall-clock seconds per algorithm phase.
    pub fn phase_totals(&self) -> PhaseTimes {
        self.engine.phase_totals()
    }

    /// The configuration this sampler runs with.
    pub fn config(&self) -> &DistConfig {
        self.engine.config()
    }

    /// The protocol engine underneath (direct step access; the wrapper
    /// adds nothing but naming).
    pub fn engine(&mut self) -> &mut ReservoirProtocol<CommBackend<'a, C>> {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reservoir_comm::run_threads;
    use reservoir_stream::ingest::{spawn_source, BatchPolicy, ReplayRecords};

    fn unit_batch(rank: usize, batch: u64, n: u64) -> Vec<Item> {
        (0..n)
            .map(|i| Item::new(((rank as u64) << 40) | (batch << 20) | i, 1.0))
            .collect()
    }

    #[test]
    fn single_pe_matches_sequential_law() {
        // p = 1 distributed sampling is just reservoir sampling.
        let results = run_threads(1, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::weighted(20, 5));
            for b in 0..4u64 {
                s.process_batch(&unit_batch(0, b, 100));
            }
            (s.local_len(), s.threshold(), s.gather_sample())
        });
        let (len, t, sample) = &results[0];
        assert_eq!(*len, 20);
        let sample = sample.as_ref().expect("root");
        assert_eq!(sample.len(), 20);
        let max_key = sample.iter().map(|s| s.key).fold(f64::MIN, f64::max);
        assert_eq!(*t, Some(max_key));
    }

    #[test]
    fn threshold_is_agreed_and_monotone() {
        let results = run_threads(3, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::weighted(50, 9));
            let mut history = Vec::new();
            for b in 0..5u64 {
                s.process_batch(&unit_batch(comm.rank(), b, 200));
                history.push(s.threshold());
            }
            history
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        let established: Vec<f64> = results[0].iter().flatten().copied().collect();
        assert!(!established.is_empty());
        assert!(established.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn phase_totals_accumulate() {
        let results = run_threads(2, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::uniform(10, 3));
            for b in 0..3u64 {
                s.process_batch(&unit_batch(comm.rank(), b, 500));
            }
            s.phase_totals()
        });
        assert!(results[0].total() > 0.0);
        assert!(results[0].gather == 0.0);
    }

    #[test]
    fn collect_output_matches_gather_sample() {
        // The distributed output must contain exactly the members the root
        // funnel would collect — same ids, same keys, no movement needed.
        let results = run_threads(3, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::weighted(40, 21));
            for b in 0..4u64 {
                s.process_batch(&unit_batch(comm.rank(), b, 120));
            }
            let gathered = s.gather_sample();
            let handle = s.collect_output();
            let all = handle.all_items(&comm);
            (gathered, handle, all)
        });
        let rooted = results[0].0.as_ref().expect("root");
        let mut rooted_ids: Vec<u64> = rooted.iter().map(|s| s.id).collect();
        rooted_ids.sort_unstable();
        for (_, handle, all) in &results {
            assert_eq!(handle.total_len(), 40);
            let mut ids: Vec<u64> = all.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, rooted_ids, "distributed output lost/changed members");
        }
        // Offsets partition 0..total in rank order.
        let mut next = 0u64;
        for (_, handle, _) in &results {
            assert_eq!(handle.offset(), next);
            next += handle.local_len();
        }
        assert_eq!(next, 40);
    }

    #[test]
    fn collect_output_finalizes_window_mode_to_exactly_k() {
        let (lo, hi) = (25u64, 60u64);
        let results = run_threads(2, |comm| {
            let cfg = DistConfig::weighted(25, 13).with_size_window(lo, hi);
            let mut s = DistributedSampler::new(&comm, cfg);
            for b in 0..5u64 {
                s.process_batch(&unit_batch(comm.rank(), b, 200));
            }
            let before = s.local_len();
            let handle = s.collect_output();
            // The sampler keeps streaming state: nothing was pruned.
            assert_eq!(s.local_len(), before);
            let t = handle.threshold().expect("finalized");
            assert!(handle.local_items().iter().all(|m| m.key <= t));
            (handle, s.phase_totals())
        });
        let total: u64 = results.iter().map(|(h, _)| h.local_len()).sum();
        assert_eq!(total, lo, "finalization must cut the window back to k");
        assert_eq!(results[0].0.total_len(), lo);
        // Output phase time was recorded.
        assert!(results.iter().all(|(_, p)| p.output > 0.0));
    }

    #[test]
    fn window_extraction_stops_at_the_threshold_on_every_arm() {
        // Mid-window the union sits above k, so finalization cuts into the
        // reservoirs. Each arm's bounded extraction must return exactly the
        // copy-everything-then-truncate reference: the key-sorted prefix at
        // or below the threshold, with everything after it above.
        for threads in [1, 4] {
            let results = run_threads(2, |comm| {
                let cfg = DistConfig::weighted(25, 13)
                    .with_size_window(25, 60)
                    .with_threads(threads);
                let mut s = DistributedSampler::new(&comm, cfg);
                for b in 0..5u64 {
                    s.process_batch(&unit_batch(comm.rank(), b, 200));
                }
                let mut all = s.local_sample();
                let handle = s.collect_output();
                let t = handle.threshold().expect("finalized");
                let keep = all.iter().filter(|m| m.key <= t).count();
                all.truncate(keep);
                (all, handle, s.local_len())
            });
            assert!(
                results.iter().any(|(_, h, held)| *held > h.local_len()),
                "{threads} threads: no PE held members above the cut"
            );
            let mut offset = 0;
            for (reference, handle, _) in &results {
                assert_eq!(handle.local_items(), &reference[..]);
                assert_eq!((handle.offset(), handle.total_len()), (offset, 25));
                offset += handle.local_len();
            }
        }
    }

    #[test]
    fn collect_output_before_fill_keeps_everything() {
        let results = run_threads(2, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::uniform(100, 5));
            s.process_batch(&unit_batch(comm.rank(), 0, 20));
            s.collect_output()
        });
        let total: u64 = results.iter().map(|h| h.local_len()).sum();
        assert_eq!(total, 40);
        assert_eq!(results[0].total_len(), 40);
        assert_eq!(results[0].threshold(), None);
    }

    #[test]
    fn pipeline_matches_direct_batch_feeding() {
        // Pushing records through the ingestion runtime with count-driven
        // cuts of the same size must reproduce the direct process_batch
        // path bit for bit: same batches, same randomness, same sample.
        let p = 3;
        let b = 120;
        let direct = run_threads(p, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::weighted(40, 77));
            for batch in 0..4u64 {
                s.process_batch(&unit_batch(comm.rank(), batch, b));
            }
            let handle = s.collect_output();
            let mut ids: Vec<u64> = handle.local_items().iter().map(|m| m.id).collect();
            ids.sort_unstable();
            ids
        });
        let piped = run_threads(p, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::weighted(40, 77));
            let records: Vec<Item> = (0..4u64)
                .flat_map(|batch| unit_batch(comm.rank(), batch, b))
                .collect();
            let mut ingest = spawn_source(
                ReplayRecords::new(records),
                BatchPolicy::by_size(b as usize),
                2,
            );
            let rx = ingest.take_receiver();
            let report = s.run_pipeline(&rx);
            let counters = ingest.join();
            assert_eq!(counters.records_in, 4 * b);
            assert_eq!(counters.batches_cut, 4);
            assert_eq!(report.batches, 4);
            assert_eq!(report.rounds, 4);
            assert_eq!(report.records, 4 * b);
            assert_eq!(report.sample_size(), 40);
            assert!(s.phase_totals().ingest > 0.0, "ingest wait not recorded");
            // The report's phase decomposition covers this drain: the
            // ingest wait and the algorithm phases.
            let t = &report.times;
            assert!(t.ingest > 0.0 && t.insert > 0.0 && t.output > 0.0);
            let mut ids: Vec<u64> = report.handle.local_items().iter().map(|m| m.id).collect();
            ids.sort_unstable();
            ids
        });
        assert_eq!(direct, piped, "pipeline path diverged from direct path");
    }

    #[test]
    fn pipeline_survives_unequal_stream_lengths() {
        // PE r produces r+1 batches; the drain must keep process_batch
        // collective (empty contributions) until every channel is dry.
        let p = 3;
        let results = run_threads(p, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::uniform(25, 5));
            let mine: Vec<Item> = (0..=comm.rank() as u64)
                .flat_map(|batch| unit_batch(comm.rank(), batch, 60))
                .collect();
            let mut ingest = spawn_source(ReplayRecords::new(mine), BatchPolicy::by_size(60), 1);
            let rx = ingest.take_receiver();
            let report = s.run_pipeline(&rx);
            ingest.join();
            (report.batches, report.rounds, report.handle.total_len())
        });
        for (rank, (batches, rounds, total)) in results.iter().enumerate() {
            assert_eq!(*batches, rank as u64 + 1);
            assert_eq!(*rounds, 3, "every PE must run the longest stream's rounds");
            assert_eq!(*total, 25);
        }
    }

    #[test]
    fn pipeline_on_empty_streams_yields_an_empty_sample() {
        let results = run_threads(2, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::weighted(10, 3));
            let mut ingest =
                spawn_source(ReplayRecords::new(Vec::new()), BatchPolicy::by_size(8), 1);
            let rx = ingest.take_receiver();
            let report = s.run_pipeline(&rx);
            assert_eq!(ingest.join().records_in, 0);
            (report.rounds, report.handle.total_len())
        });
        assert!(results.iter().all(|r| *r == (0, 0)));
    }

    #[test]
    fn window_mode_keeps_size_in_window() {
        let (lo, hi) = (30u64, 60u64);
        let results = run_threads(2, |comm| {
            let cfg = DistConfig::weighted(30, 11).with_size_window(lo, hi);
            let mut s = DistributedSampler::new(&comm, cfg);
            let mut sizes = Vec::new();
            for b in 0..6u64 {
                let rep = s.process_batch(&unit_batch(comm.rank(), b, 300));
                sizes.push(rep.sample_size);
            }
            sizes
        });
        // After the first selection the size stays within the window.
        assert!(results[0].iter().skip(1).all(|s| (lo..=hi).contains(s)));
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn persistent_pool_matches_per_scope_pool_bit_for_bit() {
        // The worker crew is invisible to the protocol: three-chunk batches
        // run pooled at 4 threads and inline at 1, and the same seed draws
        // the same sample bit for bit. A one-thread PE starts no helper
        // thread; a four-thread PE keeps one crew of three.
        let run = |threads: usize| {
            run_threads(2, move |comm| {
                let cfg = DistConfig::weighted(30, 41).with_threads(threads);
                let mut s = DistributedSampler::new(&comm, cfg);
                assert_eq!(s.engine().backend().local.pool().helpers(), threads - 1);
                let mut pooled = 0;
                for b in 0..3u64 {
                    s.process_batch(&unit_batch(comm.rank(), b, 10_000));
                    pooled += s.last_par_scan().is_some() as u32;
                }
                assert_eq!(pooled, if threads > 1 { 3 } else { 0 });
                let mut members: Vec<(u64, u64)> = s
                    .local_sample()
                    .iter()
                    .map(|m| (m.id, m.key.to_bits()))
                    .collect();
                members.sort_unstable();
                (members, s.threshold().map(f64::to_bits))
            })
        };
        assert_eq!(run(1), run(4), "the pool changed the sample");
    }
}
