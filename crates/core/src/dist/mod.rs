//! The distributed mini-batch reservoir sampler — Algorithm 1 of the paper.
//!
//! Every PE keeps its part of the global sample in a local reservoir (an
//! augmented B+ tree, [`local::LocalReservoir`]) and agrees with all other
//! PEs on a single **insertion threshold**: the key of global rank `k`
//! over the union of the local reservoirs. A mini-batch step is
//!
//! 1. **insert** — scan the local batch with exponential (weighted) or
//!    geometric (uniform) jumps, inserting every item whose key beats the
//!    current threshold (no communication);
//! 2. **count** — one `O(α log p)` all-reduce agrees on the union size;
//! 3. **select** — if the union outgrew `k`, communication-efficient
//!    distributed selection ([`reservoir_select`]) finds the key of rank
//!    `k`; it becomes the new threshold and every PE prunes its local
//!    reservoir to the keys at or below it.
//!
//! Per batch the algorithm moves `O(d)`-word payloads for an expected
//! logarithmic number of selection rounds — independent of the batch size,
//! which is the paper's headline claim.
//!
//! The step sequence itself — and the Section 5 finalize/place sequence —
//! is implemented exactly once, in [`engine::ReservoirProtocol`], over the
//! [`engine::SamplerBackend`] substrate trait. Three backends drive it:
//! [`threaded`] on real threads over real collectives, [`gather`] — the
//! same collectives under the centralized root-funnel *policy* of Section
//! 4.5 — and [`sim`], a statistical cluster simulator that reproduces the
//! algorithm's observable behaviour (sample law, threshold law, selection
//! round counts) for thousands of PEs in one process while charging the
//! very steps the engine executes to an α–β cost model.
//!
//! The sample itself stays distributed: [`output`] implements the Section 5
//! output collection, which finalizes the sample to exactly `k` members and
//! hands every PE a root-free [`output::SampleHandle`] over its slice of
//! the global output — O(log p) small messages instead of a Θ(β·k) root
//! funnel.
//!
//! Batches may be handed in directly (`process_batch`) or pushed through
//! the ingestion runtime of `reservoir_stream::ingest`: `run_pipeline` on
//! either backend drains a bounded batch channel collectively (empty
//! contributions keep lagging PEs in step), processes every batch, and
//! finishes with one `collect_output` — see [`PipelineReport`].

pub mod engine;
pub mod gather;
pub mod local;
pub(crate) mod obs_metrics;
pub mod output;
pub mod sharded;
pub mod sim;
pub mod snapshot;
pub mod threaded;

/// Whether items carry weights or are sampled uniformly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingMode {
    /// Weighted sampling: keys are `Exp(weight)` variates (Section 4.1).
    Weighted,
    /// Uniform sampling: keys are `U(0, 1]` variates (Section 4.3).
    Uniform,
}

/// Retired and inert; the frozen benchmark harness is its only user
/// (`tests/engine_equivalence.rs` checks that its pin changes no sample).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeMode {
    #[default]
    Epilogue,
}

/// Whether the engine publishes an always-fresh [`snapshot::SampleEpoch`]
/// while ingestion runs. Publication rides the existing Section 5
/// finalize/place path and restores the selection RNG afterwards, so the
/// fixed-seed final sample is byte-identical in both modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ContinuousMode {
    /// Classic semantics: the sample only materializes at
    /// `collect_output`, as the returned handle. Nothing is published:
    /// snapshot readers keep the genesis (empty) epoch throughout.
    #[default]
    Disabled,
    /// Publish a finalized-to-`k` epoch after every collective batch
    /// step, so concurrent [`snapshot::SnapshotReader`]s always hold a
    /// sample at most one batch stale. Costs one finalize/place sequence
    /// per batch (the simulator charges it to the α–β model).
    EveryBatch,
}

/// Configuration shared by the distributed samplers.
#[derive(Clone, Copy, Debug)]
pub struct DistConfig {
    /// Sample size `k` (the lower bound `k` in variable-size mode).
    pub k: usize,
    /// Master seed; per-PE streams are derived deterministically.
    pub seed: u64,
    /// Weighted or uniform sampling.
    pub mode: SamplingMode,
    /// Pivot candidates per selection round (the paper's `d`).
    pub pivots: usize,
    /// Variable-size window `(k, k̄)` of Section 4.4: the sample may grow
    /// to `k̄` before an *approximate* selection shrinks it back into the
    /// window. `None` keeps the size exactly `k`.
    pub size_window: Option<(u64, u64)>,
    /// Worker threads each PE's local scan runs on: the calling thread
    /// plus one crew of `threads_per_pe − 1` helpers per PE, shared by
    /// every reservoir the PE drives. Batches of more than one chunk are
    /// scanned chunk-parallel on the crew; at 1 (or for a one-chunk batch)
    /// the same chunk kernels run inline on the calling thread. Chunks,
    /// not workers, carry the RNG streams, so a fixed seed gives the same
    /// sample at every value. Constructors default this to 1.
    pub threads_per_pe: usize,
    /// Retired and inert; the frozen benchmark harness is its only user.
    #[doc(hidden)]
    pub persistent_pool: bool,
    /// Whether the engine publishes an always-fresh sample epoch per
    /// batch step for concurrent snapshot readers. Constructors default
    /// this to [`ContinuousMode::Disabled`]. The fixed-seed final sample
    /// is identical in both modes.
    pub continuous: ContinuousMode,
    /// Retired and inert; the frozen benchmark harness is its only user.
    #[doc(hidden)]
    pub merge: MergeMode,
    /// Retired and inert; the frozen benchmark harness is its only user.
    #[doc(hidden)]
    pub leaf_affinity: bool,
}

impl DistConfig {
    /// Weighted sampling with sample size `k`: one pivot per round, exact
    /// size, one scan thread per PE and no continuous publication.
    pub fn weighted(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "sample size must be at least 1");
        DistConfig {
            k,
            seed,
            mode: SamplingMode::Weighted,
            pivots: 1,
            size_window: None,
            threads_per_pe: 1,
            persistent_pool: false,
            continuous: ContinuousMode::Disabled,
            merge: Default::default(),
            leaf_affinity: true,
        }
    }

    /// Uniform (unweighted) sampling with sample size `k`.
    pub fn uniform(k: usize, seed: u64) -> Self {
        DistConfig {
            mode: SamplingMode::Uniform,
            ..Self::weighted(k, seed)
        }
    }

    /// Use `d` pivot candidates per selection round.
    pub fn with_pivots(mut self, d: usize) -> Self {
        assert!(d >= 1, "at least one pivot per round");
        self.pivots = d;
        self
    }

    /// Run every PE's local scan on `t` worker threads. `1`, the
    /// default, scans on the calling thread only.
    pub fn with_threads(mut self, t: usize) -> Self {
        assert!(t >= 1, "at least one scan thread per PE");
        self.threads_per_pe = t;
        self
    }

    /// Retired and inert; the frozen benchmark harness is its only user.
    #[doc(hidden)]
    pub fn with_persistent_pool(mut self, persistent: bool) -> Self {
        self.persistent_pool = persistent;
        self
    }

    /// Retired and inert; the frozen benchmark harness is its only user
    /// (`tests/engine_equivalence.rs` checks that its pin changes no sample).
    #[doc(hidden)]
    pub fn with_merge(mut self, merge: MergeMode) -> Self {
        self.merge = merge;
        self
    }

    /// Publish always-fresh sample epochs per the given
    /// [`ContinuousMode`] (default [`ContinuousMode::Disabled`]).
    pub fn with_continuous(mut self, continuous: ContinuousMode) -> Self {
        self.continuous = continuous;
        self
    }

    /// Retired and inert; the frozen benchmark harness is its only user
    /// (`tests/engine_equivalence.rs` checks that its pin changes no sample).
    #[doc(hidden)]
    pub fn with_leaf_affinity(mut self, on: bool) -> Self {
        self.leaf_affinity = on;
        self
    }

    /// Tolerate any sample size in `lo..=hi` (Section 4.4). Selection only
    /// runs once the sample outgrows `hi`, and it targets the whole window
    /// instead of an exact rank — far fewer selection rounds.
    pub fn with_size_window(mut self, lo: u64, hi: u64) -> Self {
        assert!(1 <= lo && lo <= hi, "invalid size window {lo}..{hi}");
        self.size_window = Some((lo, hi));
        self
    }

    /// The size the local reservoirs must retain during the growing phase:
    /// the union of per-PE `cap`-smallest sets must contain the global
    /// `cap`-smallest set for the largest rank selection may target.
    pub(crate) fn local_cap(&self) -> usize {
        match self.size_window {
            Some((_, hi)) => (hi as usize).max(self.k),
            None => self.k,
        }
    }

    /// The union size above which a selection is triggered.
    pub(crate) fn size_limit(&self) -> u64 {
        match self.size_window {
            Some((_, hi)) => hi,
            None => self.k as u64,
        }
    }
}

/// What one [`threaded::DistributedSampler::process_batch`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchReport {
    /// Global sample size after the batch (union of the local reservoirs).
    pub sample_size: u64,
    /// Selection rounds used this batch (0 when no selection ran).
    pub select_rounds: u32,
    /// Items inserted into *this PE's* local reservoir during the batch.
    pub inserted: u64,
    /// The local scan's work counters for this batch, including its
    /// jump and chunk counts.
    pub scan: local::ScanStats,
    /// Wall-clock seconds this batch spent per algorithm phase on this PE
    /// (`ingest` is always 0 here; it accrues in the `run_pipeline`
    /// drain. `output` is 0 except under
    /// [`ContinuousMode::EveryBatch`], where each step's epoch
    /// publication bills its finalize/place sequence here).
    /// `times.par_scan` carries the busiest scan worker's seconds when
    /// the batch was scanned on the PE's pool (0 for inline scans).
    pub times: crate::metrics::PhaseTimes,
}

/// What one `run_pipeline` drain did on this PE: the samplers' driver for
/// the push-based ingestion runtime (`reservoir_stream::ingest`). The
/// drain is collective — every PE executes the same number of
/// `process_batch` rounds (PEs whose channel ran dry contribute empty
/// batches until every channel is closed and drained), then one
/// collective `collect_output` produces the final [`SampleHandle`].
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Mini-batches this PE actually drained from its channel.
    pub batches: u64,
    /// Collective `process_batch` rounds executed (identical on every PE;
    /// at least `batches`, more when other PEs had longer streams).
    pub rounds: u64,
    /// Records this PE pushed through the sampler.
    pub records: u64,
    /// Items this PE contributed across the drain: reservoir insertions
    /// on the distributed backend; candidates generated for the root on
    /// the gather baseline (whose non-root PEs hold no local reservoir).
    pub inserted: u64,
    /// Distributed selection rounds summed over all batches (always 0 on
    /// the gather baseline, which selects sequentially at the root).
    pub select_rounds: u64,
    /// Phase times of this drain on this PE, including the ingest wait
    /// (`times.ingest`: seconds blocked on the ingestion channel plus in
    /// the drain's own continue/stop agreement) — the engine's unified
    /// pipeline driver fills every phase on both backend policies (the
    /// same accounting as
    /// [`threaded::DistributedSampler::phase_totals`], restricted to this
    /// drain).
    pub times: crate::metrics::PhaseTimes,
    /// The Section 5 output handle over the final sample.
    pub handle: SampleHandle,
}

impl PipelineReport {
    /// Global size of the final sample.
    pub fn sample_size(&self) -> u64 {
        self.handle.total_len()
    }
}

pub use engine::{ReservoirProtocol, SamplerBackend};
pub use gather::GatherSampler;
pub use local::LocalReservoir;
pub use output::SampleHandle;
pub use sharded::{shard_seed, ShardedBatchReport, ShardedPipelineReport, ShardedSampler};
pub use snapshot::{EpochPublisher, SampleEpoch, SnapshotReader};
pub use threaded::DistributedSampler;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        let w = DistConfig::weighted(10, 1);
        assert_eq!(w.mode, SamplingMode::Weighted);
        assert_eq!(w.pivots, 1);
        assert_eq!(w.local_cap(), 10);
        assert_eq!(w.size_limit(), 10);
        assert_eq!(w.threads_per_pe, 1);
        assert_eq!(w.continuous, ContinuousMode::Disabled);
        let u = DistConfig::uniform(10, 1).with_pivots(8);
        assert_eq!(u.mode, SamplingMode::Uniform);
        assert_eq!(u.pivots, 8);
        let v = DistConfig::weighted(10, 1).with_size_window(10, 25);
        assert_eq!(v.local_cap(), 25);
        assert_eq!(v.size_limit(), 25);
        let t = DistConfig::weighted(10, 1).with_threads(4);
        assert_eq!(t.threads_per_pe, 4);
        let s = t.with_continuous(ContinuousMode::EveryBatch);
        assert_eq!(s.continuous, ContinuousMode::EveryBatch);
        assert_eq!(
            s.with_continuous(ContinuousMode::Disabled).continuous,
            ContinuousMode::Disabled
        );
    }

    #[test]
    #[should_panic(expected = "at least one scan thread")]
    fn zero_threads_rejected() {
        let _ = DistConfig::weighted(10, 1).with_threads(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        let _ = DistConfig::weighted(0, 1);
    }

    #[test]
    #[should_panic(expected = "invalid size window")]
    fn inverted_window_rejected() {
        let _ = DistConfig::weighted(10, 1).with_size_window(20, 10);
    }
}
