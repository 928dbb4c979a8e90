//! The centralized gathering baseline (paper Section 4.5) as a **backend
//! policy** of the shared engine — not a parallel protocol copy.
//!
//! Every PE scans its batch exactly like the distributed algorithm —
//! jump-scanning below the current threshold — but [`GatherBackend`]
//! realizes the engine's steps through a root funnel: **insert** ships
//! every candidate to a root PE that merges them into the one true
//! reservoir, **count** broadcasts the root's reservoir size, **select**
//! re-computes the threshold with a sequential quickselect at the root and
//! broadcasts it, and **prune** is a no-op (the root pruned inside its
//! selection; the other PEs hold no reservoir). The root's downlink
//! carries Θ(candidates) words per batch (Θ(p·k) in the worst case), which
//! is the bottleneck the paper's algorithm removes.
//!
//! [`GatherSampler`] is the thin stable-API wrapper over
//! `ReservoirProtocol<GatherBackend>`.

use std::sync::mpsc::Receiver;
use std::time::Instant;

use reservoir_btree::SampleKey;
use reservoir_comm::{Collectives, Communicator};
use reservoir_par::Pool;
use reservoir_rng::{DefaultRng, SeedSequence, StreamKind};
use reservoir_select::{kth_smallest, SelectResult, TargetRank};
use reservoir_stream::ingest::MiniBatch;
use reservoir_stream::Item;

use crate::dist::engine::{Charge, InsertOutcome, Placement, ReservoirProtocol, SamplerBackend};
use crate::dist::local::LocalReservoir;
use crate::dist::output::SampleHandle;
use crate::dist::{DistConfig, PipelineReport, SamplingMode};
use crate::metrics::PhaseTimes;
use crate::sample::SampleItem;

/// Wire representation of one candidate: `(id, weight, key)`.
type WireItem = (u64, f64, f64);

/// The root PE holding the global reservoir.
const ROOT: usize = 0;

/// The engine's substrate under the Section 4.5 root-funnel policy.
pub struct GatherBackend<'a, C: Communicator> {
    comm: &'a C,
    /// Per-batch candidate buffer (drained after every gather), scanned
    /// on a pool of `threads_per_pe` workers.
    scratch: LocalReservoir,
    /// Reused per batch to drain `scratch` without a fresh allocation.
    drain_buf: Vec<SampleItem>,
    /// The global reservoir; non-empty only at the root.
    reservoir: Vec<(SampleKey, f64)>,
    select_rng: DefaultRng,
    k: usize,
}

impl<'a, C: Communicator> GatherBackend<'a, C> {
    /// Build this PE's backend for `cfg` (the unsalted seed derivation
    /// [`GatherSampler`] has always used).
    pub fn new(comm: &'a C, cfg: &DistConfig) -> Self {
        assert!(
            cfg.size_window.is_none(),
            "the gather baseline has no variable-size mode (GatherSampler::new strips it)"
        );
        let seq = SeedSequence::new(cfg.seed);
        GatherBackend {
            scratch: LocalReservoir::for_pe(
                cfg.k,
                Pool::new(cfg.threads_per_pe),
                &seq,
                comm.rank(),
            ),
            drain_buf: Vec::new(),
            reservoir: Vec::new(),
            select_rng: seq.rng_for(comm.rank(), StreamKind::Selection),
            k: cfg.k,
            comm,
        }
    }

    /// The sample: the full reservoir at the root, empty elsewhere.
    pub fn sample(&self) -> Vec<SampleItem> {
        self.reservoir
            .iter()
            .map(|(k, w)| SampleItem::from_entry(k, *w))
            .collect()
    }
}

impl<C: Communicator> SamplerBackend for GatherBackend<'_, C> {
    /// Local candidate generation — identical scan to the distributed
    /// algorithm, into a throwaway buffer — followed by the policy's
    /// defining move: every candidate ships to the root, which merges
    /// them into the global reservoir. Bills the scan to `insert` and the
    /// funnel to `gather`.
    fn insert(
        &mut self,
        mode: SamplingMode,
        items: &[Item],
        threshold: Option<SampleKey>,
        times: &mut PhaseTimes,
    ) -> InsertOutcome {
        let t0 = Instant::now();
        let mut stats = self.scratch.process(mode, items, threshold.map(|k| k.key));
        self.scratch.drain_into(&mut self.drain_buf);
        // The policy's contribution count is what ships to the root, not
        // the scan's gross insertion count (growing-phase evictions never
        // leave the scratch buffer).
        stats.inserted = self.drain_buf.len() as u64;
        times.insert += t0.elapsed().as_secs_f64();
        times.par_scan += self.scratch.last_scope_max_busy_s();
        let t1 = Instant::now();
        let wire: Vec<WireItem> = self
            .drain_buf
            .iter()
            .map(|s| (s.id, s.weight, s.key))
            .collect();
        if let Some(parts) = self.comm.gather(ROOT, wire) {
            for (id, weight, key) in parts.into_iter().flatten() {
                self.reservoir.push((SampleKey::new(key, id), weight));
            }
        }
        times.gather += t1.elapsed().as_secs_f64();
        InsertOutcome { stats }
    }

    /// The union size is whatever the root's reservoir holds: one
    /// broadcast instead of an all-reduce.
    fn count(&mut self, times: &mut PhaseTimes, charge: Charge) -> u64 {
        let t0 = Instant::now();
        let announced = (self.comm.rank() == ROOT).then_some(self.reservoir.len() as u64);
        let union = self.comm.broadcast(ROOT, announced);
        *charge.slot(times) += t0.elapsed().as_secs_f64();
        union
    }

    /// Sequential selection at the root: quickselect the k-th smallest
    /// key when the reservoir overflowed (prune to it in place), take the
    /// maximum when it just filled, broadcast the result. Always reports
    /// 0 distributed rounds — that is the baseline's point.
    fn select(
        &mut self,
        target: TargetRank,
        union: u64,
        _pivots: usize,
        times: &mut PhaseTimes,
        charge: Charge,
    ) -> SelectResult {
        let t0 = Instant::now();
        let k = self.k;
        debug_assert_eq!(
            (target.lo, target.hi),
            (k as u64, k as u64),
            "the root funnel only performs exact-k selection"
        );
        let announced = (self.comm.rank() == ROOT).then(|| {
            if union > k as u64 {
                let mut keys: Vec<SampleKey> = self.reservoir.iter().map(|(k, _)| *k).collect();
                let cut = kth_smallest(&mut keys, k - 1, &mut self.select_rng);
                self.reservoir.retain(|(key, _)| *key <= cut);
                debug_assert_eq!(self.reservoir.len(), k);
            }
            let t = self
                .reservoir
                .iter()
                .map(|(key, _)| *key)
                .max()
                .expect("selection only runs once the reservoir filled");
            (t.key, t.id)
        });
        let (key, id) = self.comm.broadcast(ROOT, announced);
        *charge.slot(times) += t0.elapsed().as_secs_f64();
        SelectResult {
            threshold: SampleKey::new(key, id),
            rank: k as u64,
            rounds: 0,
        }
    }

    /// The root already pruned inside its selection; non-roots hold no
    /// reservoir.
    fn prune(&mut self, _t: &SampleKey, _times: &mut PhaseTimes, _charge: Charge) {}

    fn place(&mut self, local: u64, times: &mut PhaseTimes) -> Placement {
        crate::dist::engine::place_over_collectives(self.comm, local, times)
    }

    fn local_len(&self) -> u64 {
        self.reservoir.len() as u64
    }

    fn local_count_le(&self, t: &SampleKey) -> u64 {
        self.reservoir.iter().filter(|(k, _)| k <= t).count() as u64
    }

    fn local_items_le(
        &self,
        t: Option<&SampleKey>,
        buf: &mut Vec<SampleItem>,
        times: &mut PhaseTimes,
    ) {
        let t0 = Instant::now();
        buf.clear();
        let mut members: Vec<&(SampleKey, f64)> = self
            .reservoir
            .iter()
            .filter(|(k, _)| t.is_none_or(|t| *k <= *t))
            .collect();
        members.sort_unstable_by_key(|(k, _)| *k);
        buf.extend(
            members
                .into_iter()
                .map(|(k, w)| SampleItem::from_entry(k, *w)),
        );
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

/// One PE's endpoint of the centralized gathering sampler: the stable API
/// over `ReservoirProtocol<GatherBackend>`.
pub struct GatherSampler<'a, C: Communicator> {
    engine: ReservoirProtocol<GatherBackend<'a, C>>,
}

impl<'a, C: Communicator> GatherSampler<'a, C> {
    /// Create this PE's endpoint. Every PE must pass an identical `cfg`.
    /// The baseline has no variable-size mode: any `size_window` is
    /// ignored (the root always prunes to exactly `k`), as it always was.
    pub fn new(comm: &'a C, cfg: DistConfig) -> Self {
        let cfg = DistConfig {
            size_window: None,
            ..cfg
        };
        GatherSampler {
            engine: ReservoirProtocol::new(GatherBackend::new(comm, &cfg), cfg),
        }
    }

    /// Process one mini-batch (collective). Returns the number of
    /// candidates this PE generated (and shipped to the root).
    pub fn process_batch(&mut self, items: &[Item]) -> u64 {
        self.engine.step(items).inserted
    }

    /// Drive the baseline from a push-based ingestion channel
    /// (collective): the same unified engine driver as
    /// [`crate::dist::threaded::DistributedSampler::run_pipeline`] — one
    /// 1-word vote per round keeps the drain collective across unequal
    /// stream lengths, and a final collective [`Self::collect_output`]
    /// yields the handle (the whole sample at the root, empty slices
    /// elsewhere). `report.inserted` counts the candidates this PE
    /// shipped; `report.times` now carries the full measured phase
    /// decomposition, including the root funnel under `gather`.
    pub fn run_pipeline(&mut self, batches: &Receiver<MiniBatch>) -> PipelineReport {
        self.engine.run_pipeline(batches)
    }

    /// The current insertion threshold, once the reservoir filled.
    pub fn threshold(&self) -> Option<f64> {
        self.engine.threshold()
    }

    /// The sample: the full reservoir at the root, empty elsewhere.
    pub fn sample(&self) -> Vec<SampleItem> {
        self.engine.backend().sample()
    }

    /// Number of sample members held by this PE (root: the whole sample).
    pub fn local_len(&self) -> u64 {
        self.engine.backend().local_len()
    }

    /// A read handle on this PE's always-fresh sample slot (see
    /// [`crate::dist::snapshot`]). Under
    /// [`ContinuousMode::EveryBatch`](crate::dist::ContinuousMode) the
    /// root's epochs carry the whole sample; non-root epochs hold empty
    /// slices with the agreed global placement — the same shape
    /// [`Self::collect_output`] produces.
    pub fn snapshot_reader(&self) -> crate::dist::snapshot::SnapshotReader {
        self.engine.snapshot_reader()
    }

    /// Accumulated wall-clock seconds per algorithm phase (the funnel's
    /// candidate shipping accrues under `gather`).
    pub fn phase_totals(&self) -> PhaseTimes {
        self.engine.phase_totals()
    }

    /// Output collection for the centralized baseline (collective): the
    /// engine's finalize + place steps over the root-funnel backend. The
    /// root already holds the whole reservoir, so the returned
    /// [`SampleHandle`] simply places the root's slice at offset 0 and
    /// gives every other PE an empty slice. This is the comparison point
    /// for the Section 5 distributed output — here all Θ(β·k) words
    /// already moved through the root's downlink during the batches.
    pub fn collect_output(&mut self) -> SampleHandle {
        self.engine.collect_output().0
    }

    /// The protocol engine underneath.
    pub fn engine(&mut self) -> &mut ReservoirProtocol<GatherBackend<'a, C>> {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reservoir_comm::run_threads;

    fn unit_batch(rank: usize, batch: u64, n: u64) -> Vec<Item> {
        (0..n)
            .map(|i| Item::new(((rank as u64) << 40) | (batch << 20) | i, 1.0))
            .collect()
    }

    #[test]
    fn root_holds_k_distinct_members() {
        let k = 40;
        let results = run_threads(3, |comm| {
            let mut s = GatherSampler::new(&comm, DistConfig::weighted(k, 7));
            for b in 0..4u64 {
                s.process_batch(&unit_batch(comm.rank(), b, 100));
            }
            (s.sample(), s.threshold())
        });
        let (sample, t) = &results[0];
        assert_eq!(sample.len(), k);
        let mut ids: Vec<u64> = sample.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), k);
        let t = t.expect("threshold established");
        assert!(sample.iter().all(|s| s.key <= t));
        // Non-roots hold nothing but agree on the threshold.
        for (sample, other_t) in &results[1..] {
            assert!(sample.is_empty());
            assert_eq!(other_t, &Some(t));
        }
    }

    #[test]
    fn collect_output_places_everything_at_the_root() {
        let k = 30;
        let results = run_threads(3, |comm| {
            let mut s = GatherSampler::new(&comm, DistConfig::weighted(k, 19));
            for b in 0..3u64 {
                s.process_batch(&unit_batch(comm.rank(), b, 80));
            }
            s.collect_output()
        });
        assert_eq!(results[0].local_len(), k as u64);
        assert_eq!(results[0].offset(), 0);
        for h in &results {
            assert_eq!(h.total_len(), k as u64);
        }
        assert!(results[1..].iter().all(|h| h.local_len() == 0));
        // The root's slice is key-sorted, as the handle contract requires.
        let keys: Vec<f64> = results[0].local_items().iter().map(|s| s.key).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn pipeline_places_the_sample_at_the_root() {
        use reservoir_stream::ingest::{spawn_source, BatchPolicy, ReplayRecords};
        let k = 20;
        let results = run_threads(3, |comm| {
            let mut s = GatherSampler::new(&comm, DistConfig::weighted(k, 23));
            // Unequal stream lengths: PE r pushes (r+1)·50 records.
            let mine: Vec<Item> = (0..=comm.rank() as u64)
                .flat_map(|batch| unit_batch(comm.rank(), batch, 50))
                .collect();
            let mut ingest = spawn_source(ReplayRecords::new(mine), BatchPolicy::by_size(50), 2);
            let rx = ingest.take_receiver();
            let report = s.run_pipeline(&rx);
            let counters = ingest.join();
            assert_eq!(counters.records_in, (comm.rank() as u64 + 1) * 50);
            // The unified driver instruments the funnel's phases too.
            assert!(report.times.ingest > 0.0 && report.times.gather > 0.0);
            (report.rounds, report.records, report.handle)
        });
        for (rank, (rounds, records, handle)) in results.iter().enumerate() {
            assert_eq!(*rounds, 3);
            assert_eq!(*records, (rank as u64 + 1) * 50);
            assert_eq!(handle.total_len(), k as u64);
        }
        assert_eq!(results[0].2.local_len(), k as u64, "root holds everything");
        assert!(results[1..].iter().all(|(_, _, h)| h.local_len() == 0));
    }

    #[test]
    fn growing_phase_keeps_everything() {
        let results = run_threads(2, |comm| {
            let mut s = GatherSampler::new(&comm, DistConfig::uniform(100, 3));
            s.process_batch(&unit_batch(comm.rank(), 0, 20));
            (s.sample().len(), s.threshold())
        });
        assert_eq!(results[0].0, 40);
        assert_eq!(results[0].1, None);
    }
}
