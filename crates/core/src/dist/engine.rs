//! The backend-agnostic protocol engine: **one** implementation of the
//! Algorithm 1 step sequence and the Section 5 finalize/place sequence,
//! parameterized by the communication substrate.
//!
//! The paper defines a single collective protocol whose only variable is
//! the machine underneath it (and its companion *Parallel Weighted Random
//! Sampling* factoring makes the same algorithm-over-abstract-machine
//! move). This module mirrors that: [`ReservoirProtocol`] owns the
//! protocol state — the insertion threshold, the configuration, the phase
//! accounting — and drives the per-batch step sequence
//!
//! 1. **insert_scan** — scan this endpoint's share of the batch below the
//!    current threshold (no communication);
//! 2. **count** — agree on the union size (one 1-word all-reduce);
//! 3. **select_prune** — when the union outgrew the limit, select the new
//!    threshold over the union and prune every local reservoir to it;
//!
//! plus the Section 5 output sequence
//!
//! 4. **finalize** — if the union currently exceeds `k`, one selection to
//!    exact rank `k` fixes the final threshold; no items move;
//! 5. **place** — an exclusive prefix count assigns every endpoint the
//!    global output positions of its slice.
//!
//! What varies between execution, baseline comparison, and cost modeling
//! is confined to the [`SamplerBackend`] trait:
//!
//! | backend | substrate | insert | select |
//! |---|---|---|---|
//! | [`CommBackend`](crate::dist::threaded::CommBackend) | real [`Collectives`](reservoir_comm::Collectives) | jump scans into a [`LocalReservoir`](crate::dist::local::LocalReservoir) | one-task `select_threaded_many` over the wire |
//! | [`GatherBackend`](crate::dist::gather::GatherBackend) | real collectives, root-funnel *policy* | jump scans + ship candidates to the root | sequential quickselect at the root, broadcast |
//! | [`SimBackend`](crate::dist::sim::SimBackend) | α–β [`CostModel`](reservoir_comm::CostModel) | statistical (Poissonized) insertion, costs charged | `select_conductor` folds, costs charged |
//!
//! Because the simulator drives the *same* engine code, every cost it
//! charges corresponds to a step the real protocol actually executes —
//! and window-mode finalization rounds fall out of the shared
//! [`ReservoirProtocol::finalize`] instead of needing a fourth protocol
//! copy.
//!
//! Each collective sequence is composed of crate-internal local phases:
//! the scan, the step's and the finalization's selection targets,
//! adopting a selection and pruning, the finalized view, extraction,
//! publication, closing the step and building the handle.
//! [`ReservoirProtocol::step`], [`ReservoirProtocol::finalize`] and
//! [`ReservoirProtocol::collect_output`] interleave them with the
//! backend's collectives; the sharded fleet
//! ([`ShardedSampler`](crate::dist::sharded::ShardedSampler)) interleaves
//! the same phases of many `ReservoirProtocol<CommBackend>` engines with
//! its batched collectives instead. Either way each protocol rule — when
//! to select and for which rank, the post-step union, the finalized keep
//! count and total — is written once, here.
//!
//! Cost/time attribution is the backend's job, not the engine's: each
//! step hands the backend a [`PhaseTimes`] and a [`Charge`] naming the
//! slot to bill, so the threaded backends bill measured wall-clock and
//! the simulated backend bills modeled time into the identical structure.

use std::sync::mpsc::Receiver;
use std::time::Instant;

use reservoir_btree::SampleKey;
use reservoir_select::{SelectResult, TargetRank};
use reservoir_stream::ingest::MiniBatch;
use reservoir_stream::Item;

use crate::dist::local::ScanStats;
use crate::dist::obs_metrics;
use crate::dist::output::SampleHandle;
use crate::dist::snapshot::{EpochPublisher, SampleEpoch, SnapshotReader};
use crate::dist::{BatchReport, ContinuousMode, DistConfig, PipelineReport, SamplingMode};
use crate::metrics::PhaseTimes;
use crate::sample::SampleItem;

/// Which phase slot a backend bills a step's cost to. The same collective
/// is charged differently depending on where the protocol stands: the
/// union count bills `threshold` inside a batch step but `output` inside
/// the Section 5 collection, exactly as the paper's Figure 6 decomposes
/// running time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Charge {
    /// Batch-step selection (`PhaseTimes::select`, plus `gather` /
    /// `threshold` for the root-funnel policy's shipping and broadcast).
    Select,
    /// Threshold agreement and pruning (`PhaseTimes::threshold`).
    Threshold,
    /// Section 5 output collection (`PhaseTimes::output`).
    Output,
}

impl Charge {
    /// The slot of `times` this charge bills — the one mapping every
    /// backend uses, so a new phase or charge kind is wired in one place.
    pub fn slot(self, times: &mut PhaseTimes) -> &mut f64 {
        match self {
            Charge::Select => &mut times.select,
            Charge::Threshold => &mut times.threshold,
            Charge::Output => &mut times.output,
        }
    }
}

/// What one backend insert step did on this endpoint.
#[derive(Clone, Debug, Default)]
pub struct InsertOutcome {
    /// Scan counters (the simulated backend fills `processed`/`inserted`;
    /// the threaded backends fill everything, the jump and chunk counts
    /// included). `inserted` counts this endpoint's *contribution* —
    /// reservoir insertions on the distributed policy, candidates shipped
    /// to the root on the gather policy.
    pub stats: ScanStats,
}

/// Where this endpoint's output slice lands in the global sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Global output position of the slice's first member (exclusive
    /// prefix count over endpoint ranks).
    pub offset: u64,
    /// Global sample size.
    pub total: u64,
}

/// Outcome of the Section 5 finalize step on this endpoint.
#[derive(Clone, Copy, Debug)]
pub struct Finalized {
    /// The finalization threshold: the key of exact global rank `k` when
    /// the union exceeded `k`, otherwise the protocol's current
    /// threshold. Every output member's key is at or below it.
    pub threshold: Option<SampleKey>,
    /// Members of this endpoint's slice (keys at or below `threshold`).
    pub keep: u64,
    /// Global size of the finalized sample: `k` when the union exceeded
    /// `k`, otherwise the whole union.
    pub total: u64,
    /// Selection rounds the finalization used (0 when the sample already
    /// fit in `k`).
    pub rounds: u32,
}

/// The communication substrate one protocol endpoint runs on.
///
/// A real backend ([`CommBackend`](crate::dist::threaded::CommBackend),
/// [`GatherBackend`](crate::dist::gather::GatherBackend)) is one PE's
/// endpoint over a [`Communicator`](reservoir_comm::Communicator) and
/// *measures* wall-clock into the [`PhaseTimes`] slot the [`Charge`]
/// names; the simulated backend
/// ([`SimBackend`](crate::dist::sim::SimBackend)) is the whole cluster's
/// conductor and *charges* the α–β model instead. Either way, the engine
/// calls the steps in the same order, so the protocol body exists once.
pub trait SamplerBackend {
    /// **insert_scan**: process this endpoint's share of one mini-batch
    /// below `threshold` (`None` = growing mode). The simulated backend
    /// ignores `items` and draws its configured workload statistically.
    /// Bills `times.insert` (and `times.par_scan` for the overlap).
    fn insert(
        &mut self,
        mode: SamplingMode,
        items: &[Item],
        threshold: Option<SampleKey>,
        times: &mut PhaseTimes,
    ) -> InsertOutcome;

    /// **count**: the 1-word all-reduce agreeing on the union size.
    fn count(&mut self, times: &mut PhaseTimes, charge: Charge) -> u64;

    /// **select**: find the key whose global rank lies in `target` over
    /// the union of all endpoints' reservoirs (`union` keys, agreed by
    /// [`Self::count`]). Collective; all endpoints return the same
    /// result.
    fn select(
        &mut self,
        target: TargetRank,
        union: u64,
        pivots: usize,
        times: &mut PhaseTimes,
        charge: Charge,
    ) -> SelectResult;

    /// **prune**: drop every local reservoir entry above `t` (local).
    fn prune(&mut self, t: &SampleKey, times: &mut PhaseTimes, charge: Charge);

    /// **place**: agree on the global sample size and this endpoint's
    /// output offset for a slice of `local` members. Bills
    /// `times.output`.
    fn place(&mut self, local: u64, times: &mut PhaseTimes) -> Placement;

    /// Members this endpoint's reservoir currently holds (local, free).
    fn local_len(&self) -> u64;

    /// How many of this endpoint's members have keys at or below `t`
    /// (local, free).
    fn local_count_le(&self, t: &SampleKey) -> u64;

    /// **extract**: write this endpoint's members with keys at or below
    /// `t` (`None` = all), key-sorted within the endpoint's output order,
    /// into `buf` (cleared first). The O(k) local copy is part of the
    /// output collection: real backends bill `times.output` wall-clock;
    /// the simulated conductor charges nothing (the cost model has no
    /// extraction term — local output bookkeeping is free, as it always
    /// was).
    fn local_items_le(
        &self,
        t: Option<&SampleKey>,
        buf: &mut Vec<SampleItem>,
        times: &mut PhaseTimes,
    );

    /// This endpoint's rank and the number of endpoints, for output
    /// placement bookkeeping (the simulated conductor reports `(0, p)`).
    fn rank(&self) -> usize;
    /// See [`Self::rank`].
    fn size(&self) -> usize;

    /// Checkpoint the selection RNG state (one generator per endpoint
    /// this backend drives; the conductor-style simulator returns all
    /// `p`). Continuous-mode epoch publication brackets its finalize
    /// selection with checkpoint/restore so the publication consumes no
    /// randomness the batch protocol would otherwise see — the key to
    /// byte-identical fixed-seed samples with publication on or off.
    fn select_rng_state(&self) -> Vec<reservoir_rng::DefaultRng>;

    /// Restore a checkpoint taken by [`Self::select_rng_state`].
    fn restore_select_rng(&mut self, state: Vec<reservoir_rng::DefaultRng>);

    /// One 1-word all-reduce outside the phase accounting — the
    /// ingestion drain's continue/stop vote. Only the real backends
    /// drive pipelines; the conductor-style simulator has no ingestion
    /// substrate.
    fn vote(&mut self, active: u64) -> u64 {
        let _ = active;
        unimplemented!("this backend has no ingestion substrate")
    }
}

/// The place step over real collectives — one exclusive prefix sum plus
/// one sum, billed to `output` — shared by every `Communicator`-based
/// backend policy so the output placement cannot drift between them.
pub(crate) fn place_over_collectives<C: reservoir_comm::Communicator>(
    comm: &C,
    local: u64,
    times: &mut PhaseTimes,
) -> Placement {
    use reservoir_comm::Collectives;
    let t0 = Instant::now();
    let placement = Placement {
        offset: comm.exscan_sum_u64(local),
        total: comm.sum_u64(local),
    };
    times.output += t0.elapsed().as_secs_f64();
    placement
}

/// The drain vote over real collectives, shared by the same policies.
pub(crate) fn vote_over_collectives<C: reservoir_comm::Communicator>(comm: &C, active: u64) -> u64 {
    use reservoir_comm::Collectives;
    comm.sum_u64(active)
}

/// One endpoint of the Algorithm 1 + Section 5 protocol over any
/// [`SamplerBackend`]: the single copy of the step sequence that
/// [`DistributedSampler`](crate::dist::threaded::DistributedSampler),
/// [`GatherSampler`](crate::dist::gather::GatherSampler) and
/// [`SimCluster`](crate::dist::sim::SimCluster) all drive.
pub struct ReservoirProtocol<B: SamplerBackend> {
    backend: B,
    cfg: DistConfig,
    threshold: Option<SampleKey>,
    phases: PhaseTimes,
    /// Batch steps driven so far — the `a` payload of this endpoint's
    /// `BatchStart`/`BatchEnd` flight-recorder events.
    steps: u64,
    /// The always-fresh read slot this endpoint publishes into. Always
    /// present (readers can be handed out before the first publication);
    /// publication itself only runs under [`ContinuousMode::EveryBatch`]
    /// plus once per `collect_output`.
    publisher: EpochPublisher,
}

impl<B: SamplerBackend> ReservoirProtocol<B> {
    /// Wrap `backend` in a protocol endpoint. Every endpoint of the same
    /// cluster must use an identical `cfg`.
    pub fn new(backend: B, cfg: DistConfig) -> Self {
        let publisher = EpochPublisher::new(backend.rank(), backend.size());
        ReservoirProtocol {
            backend,
            cfg,
            threshold: None,
            phases: PhaseTimes::default(),
            steps: 0,
            publisher,
        }
    }

    /// A read handle on this endpoint's always-fresh sample slot; clone
    /// freely across threads. Before the first publication it serves the
    /// empty genesis epoch.
    pub fn snapshot_reader(&self) -> SnapshotReader {
        self.publisher.reader()
    }

    /// The substrate underneath (reservoir inspection, simulator cost
    /// counters, …).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the substrate.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The configuration this endpoint runs with.
    pub fn config(&self) -> &DistConfig {
        &self.cfg
    }

    /// The current global insertion threshold, once established.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold.map(|k| k.key)
    }

    /// The current threshold with its tie-breaking id.
    pub fn threshold_key(&self) -> Option<SampleKey> {
        self.threshold
    }

    /// Accumulated time per phase across every step this endpoint ran
    /// (measured on real backends, modeled on the simulated one).
    pub fn phase_totals(&self) -> PhaseTimes {
        self.phases
    }

    /// **insert_scan** (local): scan this endpoint's share of one
    /// mini-batch below the current threshold. The returned report
    /// accumulates the rest of the step.
    pub(crate) fn scan(&mut self, items: &[Item]) -> BatchReport {
        let mut times = PhaseTimes::default();
        let scan = self
            .backend
            .insert(self.cfg.mode, items, self.threshold, &mut times)
            .stats;
        BatchReport {
            inserted: scan.inserted,
            scan,
            times,
            ..BatchReport::default()
        }
    }

    /// The batch-step selection a union of `union` keys calls for, if
    /// any. It is due once the sample outgrew its limit (`k`, or `k̄` in
    /// window mode), or when the reservoir just filled for the first
    /// time and the insertion threshold comes into existence (exact-size
    /// mode only — window mode waits for the overflow). It targets exact
    /// rank `k`, or the whole window in variable-size mode (Section 4.4's
    /// far cheaper approximate selection).
    pub(crate) fn step_target(&self, union: u64) -> Option<TargetRank> {
        let k = self.cfg.k as u64;
        let due = union > self.cfg.size_limit()
            || (self.threshold.is_none() && self.cfg.size_window.is_none() && union >= k);
        due.then(|| match self.cfg.size_window {
            Some((lo, hi)) => TargetRank::range(lo, hi),
            None => TargetRank::exact(k),
        })
    }

    /// **prune** (local): adopt the step's selection over a union of
    /// `union` keys, if one ran, as the new threshold and prune to it.
    /// Records the post-step union and the rounds in `report`.
    pub(crate) fn adopt(
        &mut self,
        union: u64,
        sel: Option<SelectResult>,
        report: &mut BatchReport,
    ) {
        report.sample_size = union;
        if let Some(res) = sel {
            self.threshold = Some(res.threshold);
            self.backend
                .prune(&res.threshold, &mut report.times, Charge::Threshold);
            report.sample_size = res.rank;
            report.select_rounds = res.rounds;
        }
    }

    /// Fold one finished step (of `offered` records) into the phase
    /// totals and the registry.
    pub(crate) fn close_step(&mut self, offered: u64, report: &BatchReport) {
        self.phases.accumulate(&report.times);
        obs_metrics::record_step(
            self.backend.rank(),
            self.steps,
            offered,
            report.sample_size,
            report.select_rounds,
            &report.scan,
            &report.times,
        );
        self.steps += 1;
    }

    /// One collective mini-batch step: **insert_scan → count →
    /// select_prune** (Algorithm 1). Every endpoint must call this the
    /// same number of times; empty batches are fine.
    pub fn step(&mut self, items: &[Item]) -> BatchReport {
        let mut report = self.scan(items);
        let union = self.backend.count(&mut report.times, Charge::Threshold);
        let sel = self.step_target(union).map(|target| {
            self.backend.select(
                target,
                union,
                self.cfg.pivots,
                &mut report.times,
                Charge::Select,
            )
        });
        self.adopt(union, sel, &mut report);
        if self.cfg.continuous == ContinuousMode::EveryBatch {
            self.publish_epoch(&mut report.times);
        }
        self.close_step(items.len() as u64, &report);
        report
    }

    /// Continuous-mode publication (collective): run the Section 5
    /// finalize → extract → place sequence and swap the resulting
    /// finalized-to-`k` view into this endpoint's snapshot slot. Billed
    /// entirely to `times.output` (the simulated backend charges the
    /// count/select/place collectives to its α–β model, so per-epoch cost
    /// shows up in the cost report). The selection RNG is checkpointed
    /// around the finalize selection, so publication leaves the batch
    /// protocol's random schedule untouched — streaming state (reservoirs,
    /// threshold) is never modified here.
    fn publish_epoch(&mut self, times: &mut PhaseTimes) {
        let rng = self.backend.select_rng_state();
        let fin = self.finalize(times);
        let items = self.extract(&fin, times);
        let placement = self.backend.place(fin.keep, times);
        self.backend.restore_select_rng(rng);
        self.publish(items, placement, &fin);
    }

    /// Swap `items`, placed at `placement`, into this endpoint's snapshot
    /// slot as the next epoch (local).
    pub(crate) fn publish(
        &mut self,
        items: Vec<SampleItem>,
        placement: Placement,
        fin: &Finalized,
    ) {
        let epoch_no = self.publisher.next_epoch();
        self.publisher.publish(SampleEpoch::new(
            epoch_no,
            items,
            placement.offset,
            placement.total,
            self.backend.rank(),
            self.backend.size(),
            fin.threshold.map(|t| t.key),
            fin.rounds,
        ));
        obs_metrics::record_epoch(self.backend.rank(), epoch_no, placement.total);
    }

    /// The finalization selection a union of `union` keys calls for: one
    /// to exact rank `k` when the union currently exceeds `k`.
    pub(crate) fn finalize_target(&self, union: u64) -> Option<TargetRank> {
        let k = self.cfg.k as u64;
        (union > k).then(|| TargetRank::exact(k))
    }

    /// The finalized view of a union of `union` keys (local), given the
    /// finalization selection [`Self::finalize_target`] called for.
    pub(crate) fn finalized(&self, union: u64, sel: Option<SelectResult>) -> Finalized {
        match sel {
            Some(res) => Finalized {
                threshold: Some(res.threshold),
                keep: self.backend.local_count_le(&res.threshold),
                total: res.rank,
                rounds: res.rounds,
            },
            None => Finalized {
                threshold: self.threshold,
                keep: self.backend.local_len(),
                total: union,
                rounds: 0,
            },
        }
    }

    /// Section 5 step 1, **finalize** (collective): if the union currently
    /// exceeds `k` (variable-size mode between selections, or a stream cut
    /// mid-window), one selection for exact rank `k` fixes the final
    /// threshold. No reservoir is pruned — the protocol keeps streaming
    /// state and the output is a consistent snapshot.
    pub fn finalize(&mut self, times: &mut PhaseTimes) -> Finalized {
        let union = self.backend.count(times, Charge::Output);
        let sel = self.finalize_target(union).map(|target| {
            self.backend
                .select(target, union, self.cfg.pivots, times, Charge::Output)
        });
        self.finalized(union, sel)
    }

    /// **extract** (local): this endpoint's finalized slice, key-sorted.
    pub(crate) fn extract(&self, fin: &Finalized, times: &mut PhaseTimes) -> Vec<SampleItem> {
        let mut items = Vec::with_capacity(fin.keep as usize);
        self.backend
            .local_items_le(fin.threshold.as_ref(), &mut items, times);
        items
    }

    /// The full Section 5 output collection — **finalize → extract →
    /// place** — yielding this endpoint's root-free [`SampleHandle`].
    /// Collective; O(d · rounds + 1) words per endpoint at O(α log p)
    /// latency on the distributed backends. Also returns this
    /// collection's phase times and the finalization round count (the
    /// simulator's cost report reads both).
    pub fn collect_output(&mut self) -> (SampleHandle, PhaseTimes, u32) {
        let mut times = PhaseTimes::default();
        let fin = self.finalize(&mut times);
        let items = self.extract(&fin, &mut times);
        let placement = self.backend.place(fin.keep, &mut times);
        self.output(items, placement, &fin, times)
    }

    /// Build this endpoint's handle over its extracted, placed slice and
    /// account for the collection (local).
    pub(crate) fn output(
        &mut self,
        items: Vec<SampleItem>,
        placement: Placement,
        fin: &Finalized,
        times: PhaseTimes,
    ) -> (SampleHandle, PhaseTimes, u32) {
        debug_assert_eq!(items.len() as u64, fin.keep);
        let handle = SampleHandle::from_parts(
            items,
            placement,
            self.backend.rank(),
            self.backend.size(),
            fin.threshold.map(|t| t.key),
        );
        if self.cfg.continuous == ContinuousMode::EveryBatch {
            // The collection itself is the freshest possible view; expose
            // it to snapshot readers too, reusing the collectives already
            // run (a local copy of the slice, checksummed, then the
            // pointer swap).
            self.publish(handle.local_items().to_vec(), placement, fin);
        }
        self.phases.accumulate(&times);
        obs_metrics::record_phases(&times);
        (handle, times, fin.rounds)
    }

    /// The unified pipeline driver: drain mini-batches from a push-based
    /// ingestion channel (`reservoir_stream::ingest`), [`Self::step`]
    /// each, and finish with one [`Self::collect_output`].
    ///
    /// The drain is collective via one 1-word vote per round (the same
    /// drain loop the sharded fleet runs), so `step`'s
    /// same-number-of-calls-everywhere contract holds across unequal
    /// stream lengths. Time blocked on the channel plus the vote accrues
    /// in [`PhaseTimes::ingest`]; the report's `times` carries this
    /// drain's full phase decomposition on every backend policy.
    pub fn run_pipeline(&mut self, batches: &Receiver<MiniBatch>) -> PipelineReport {
        let before = self.phases;
        let (mut inserted, mut select_rounds) = (0u64, 0u64);
        let tally = drain(
            batches,
            self,
            |engine, active| engine.backend.vote(active),
            |engine, items| {
                let report = engine.step(items);
                inserted += report.inserted;
                select_rounds += report.select_rounds as u64;
            },
        );
        self.phases.ingest += tally.wait_s;
        let (handle, _, _) = self.collect_output();
        PipelineReport {
            batches: tally.batches,
            rounds: tally.rounds,
            records: tally.records,
            inserted,
            select_rounds,
            times: self.phases.delta_since(&before),
            handle,
        }
    }
}

/// What one collective drain did on this endpoint.
#[derive(Default)]
pub(crate) struct DrainTally {
    /// Mini-batches drained from this endpoint's channel.
    pub batches: u64,
    /// Collective rounds (identical on every endpoint).
    pub rounds: u64,
    /// Records in the drained batches.
    pub records: u64,
    /// Seconds blocked on the channel plus in the votes.
    pub wait_s: f64,
}

/// The collective drain loop every pipeline driver shares: receive this
/// endpoint's next mini-batch (or learn its channel closed), agree by one
/// 1-word `vote` whether any endpoint still has input, and `step` the
/// batch — an empty one on an endpoint whose channel is closed and
/// drained. The loop ends only when every channel is exhausted, so each
/// endpoint steps the same number of times across unequal stream lengths.
pub(crate) fn drain<S>(
    batches: &Receiver<MiniBatch>,
    state: &mut S,
    vote: impl Fn(&mut S, u64) -> u64,
    mut step: impl FnMut(&mut S, &[Item]),
) -> DrainTally {
    let mut tally = DrainTally::default();
    let mut open = true;
    loop {
        let t0 = Instant::now();
        // `recv` blocks until the producer cuts the next batch or closes;
        // after a close the channel stays empty forever, so skip straight
        // to empty contributions.
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
        let active = vote(state, next.is_some() as u64);
        tally.wait_s += t0.elapsed().as_secs_f64();
        if active == 0 {
            return tally;
        }
        if let Some(batch) = &next {
            tally.batches += 1;
            tally.records += batch.items.len() as u64;
        }
        step(state, next.as_ref().map_or(&[], |b| &b.items));
        tally.rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reservoir_select::SelectParams;

    /// A minimal in-process backend over one sorted key set: enough to
    /// exercise the engine's step sequencing without a communicator.
    struct LoneBackend {
        keys: Vec<(SampleKey, f64)>,
        next_id: u64,
        rng: reservoir_rng::DefaultRng,
    }

    impl LoneBackend {
        fn new(seed: u64) -> Self {
            LoneBackend {
                keys: Vec::new(),
                next_id: 0,
                rng: reservoir_rng::default_rng(seed),
            }
        }
    }

    impl SamplerBackend for LoneBackend {
        fn insert(
            &mut self,
            _mode: SamplingMode,
            items: &[Item],
            threshold: Option<SampleKey>,
            _times: &mut PhaseTimes,
        ) -> InsertOutcome {
            use reservoir_rng::Rng64;
            let mut stats = ScanStats {
                processed: items.len() as u64,
                ..ScanStats::default()
            };
            for _ in items {
                let key = SampleKey::new(self.rng.rand_oc(), self.next_id);
                self.next_id += 1;
                if threshold.is_none_or(|t| key <= t) {
                    self.keys.push((key, 1.0));
                    stats.inserted += 1;
                }
            }
            self.keys.sort_unstable_by_key(|(k, _)| *k);
            InsertOutcome { stats }
        }

        fn count(&mut self, _times: &mut PhaseTimes, _charge: Charge) -> u64 {
            self.keys.len() as u64
        }

        fn select(
            &mut self,
            target: TargetRank,
            union: u64,
            pivots: usize,
            _times: &mut PhaseTimes,
            _charge: Charge,
        ) -> SelectResult {
            let set =
                reservoir_select::SortedKeys::new(self.keys.iter().map(|(k, _)| *k).collect());
            let report = reservoir_select::select_conductor(
                &[&set],
                target,
                SelectParams::with_pivots(pivots),
                std::slice::from_mut(&mut self.rng),
            );
            assert_eq!(union, self.keys.len() as u64);
            report.result
        }

        fn prune(&mut self, t: &SampleKey, _times: &mut PhaseTimes, _charge: Charge) {
            self.keys.retain(|(k, _)| k <= t);
        }

        fn place(&mut self, local: u64, _times: &mut PhaseTimes) -> Placement {
            Placement {
                offset: 0,
                total: local,
            }
        }

        fn local_len(&self) -> u64 {
            self.keys.len() as u64
        }

        fn local_count_le(&self, t: &SampleKey) -> u64 {
            self.keys.iter().filter(|(k, _)| k <= t).count() as u64
        }

        fn local_items_le(
            &self,
            t: Option<&SampleKey>,
            buf: &mut Vec<SampleItem>,
            _times: &mut PhaseTimes,
        ) {
            buf.clear();
            buf.extend(
                self.keys
                    .iter()
                    .filter(|(k, _)| t.is_none_or(|t| *k <= *t))
                    .map(|(k, w)| SampleItem::from_entry(k, *w)),
            );
        }

        fn rank(&self) -> usize {
            0
        }

        fn size(&self) -> usize {
            1
        }

        fn select_rng_state(&self) -> Vec<reservoir_rng::DefaultRng> {
            vec![self.rng.clone()]
        }

        fn restore_select_rng(&mut self, mut state: Vec<reservoir_rng::DefaultRng>) {
            self.rng = state.pop().expect("one endpoint, one generator");
        }
    }

    fn items(n: u64) -> Vec<Item> {
        (0..n).map(|i| Item::new(i, 1.0)).collect()
    }

    #[test]
    fn step_establishes_and_tightens_the_threshold() {
        let cfg = DistConfig::weighted(10, 1);
        let mut p = ReservoirProtocol::new(LoneBackend::new(7), cfg);
        assert!(p.threshold().is_none());
        let r1 = p.step(&items(50));
        assert_eq!(r1.sample_size, 10);
        let t1 = p.threshold().expect("filled past k");
        let r2 = p.step(&items(200));
        assert!(r2.select_rounds >= 1);
        let t2 = p.threshold().expect("still established");
        assert!(t2 <= t1, "threshold must tighten: {t2} vs {t1}");
        assert_eq!(p.backend().local_len(), 10);
    }

    #[test]
    fn window_mode_waits_for_overflow_then_selects_into_window() {
        let cfg = DistConfig::weighted(10, 1).with_size_window(10, 30);
        let mut p = ReservoirProtocol::new(LoneBackend::new(3), cfg);
        let r = p.step(&items(25));
        // 25 keys ≤ k̄ = 30: no selection yet, no threshold.
        assert_eq!(r.select_rounds, 0);
        assert!(p.threshold().is_none());
        let r = p.step(&items(25));
        assert!(r.select_rounds >= 1, "50 keys overflow the window");
        assert!((10..=30).contains(&r.sample_size));
    }

    #[test]
    fn finalize_cuts_a_window_sample_to_exactly_k_without_pruning() {
        let cfg = DistConfig::weighted(10, 1).with_size_window(10, 40);
        let mut p = ReservoirProtocol::new(LoneBackend::new(5), cfg);
        p.step(&items(30));
        let held = p.backend().local_len();
        assert!(held > 10, "mid-window state expected, got {held}");
        let (handle, times, rounds) = p.collect_output();
        assert_eq!(handle.total_len(), 10);
        assert_eq!(handle.local_len(), 10);
        assert!(rounds >= 1, "mid-window finalization must select");
        assert!(times.select == 0.0, "finalization bills output, not select");
        assert_eq!(p.backend().local_len(), held, "snapshot must not prune");
        let t = handle.threshold().expect("finalized");
        assert!(handle.local_items().iter().all(|m| m.key <= t));
    }

    #[test]
    fn collect_output_before_fill_keeps_everything() {
        let cfg = DistConfig::uniform(100, 1);
        let mut p = ReservoirProtocol::new(LoneBackend::new(9), cfg);
        p.step(&items(20));
        let (handle, _, rounds) = p.collect_output();
        assert_eq!(handle.total_len(), 20);
        assert_eq!(rounds, 0);
        assert_eq!(handle.threshold(), None);
    }
}
