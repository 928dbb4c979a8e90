//! The engine layer's registry names: per-batch protocol counters, the
//! local-scan tallies (views of [`ScanStats`]), and the accumulated
//! per-phase seconds (views of [`PhaseTimes`]). One `record_step` hook
//! keeps the engine's hot path to a single early-out branch when
//! observability is disarmed.

use reservoir_obs::{trace, LazyCounter, LazyGauge, TraceKind};

use crate::dist::local::ScanStats;
use crate::metrics::PhaseTimes;

pub(crate) static ENGINE_BATCHES: LazyCounter = LazyCounter::new(
    "engine_batches_total",
    "collective mini-batch steps driven through the protocol engine",
);
pub(crate) static ENGINE_ITEMS: LazyCounter = LazyCounter::new(
    "engine_items_total",
    "stream items offered to the protocol engine (all endpoints in-process)",
);
pub(crate) static ENGINE_EPOCHS: LazyCounter = LazyCounter::new(
    "engine_epochs_published_total",
    "sample epochs published to snapshot readers",
);

pub(crate) static SCAN_CHUNKS: LazyCounter = LazyCounter::new(
    "scan_chunks_total",
    "chunks the local scans split batches into, one RNG stream each",
);
pub(crate) static SCAN_INSERTED: LazyCounter = LazyCounter::new(
    "scan_inserted_total",
    "items that entered a local reservoir during scans",
);

static PHASE_INGEST: LazyGauge = LazyGauge::new(
    "phase_ingest_seconds",
    "accumulated seconds in the ingest phase (all endpoints in-process)",
);
static PHASE_INSERT: LazyGauge = LazyGauge::new(
    "phase_insert_seconds",
    "accumulated seconds in the insert_scan phase",
);
static PHASE_SELECT: LazyGauge = LazyGauge::new(
    "phase_select_seconds",
    "accumulated seconds in batch-step selection",
);
static PHASE_THRESHOLD: LazyGauge = LazyGauge::new(
    "phase_threshold_seconds",
    "accumulated seconds agreeing on and pruning to thresholds",
);
static PHASE_GATHER: LazyGauge = LazyGauge::new(
    "phase_gather_seconds",
    "accumulated seconds in gather-policy candidate funnels",
);
static PHASE_OUTPUT: LazyGauge = LazyGauge::new(
    "phase_output_seconds",
    "accumulated seconds in Section 5 output collection",
);
static PHASE_PAR_SCAN: LazyGauge = LazyGauge::new(
    "phase_par_scan_seconds",
    "accumulated seconds inside parallel scan scopes (overlaps insert)",
);

/// Fold one batch step's accounting into the registry and emit the
/// flight-recorder `BatchStart`/`SelectRound`/`BatchEnd` triple. Called
/// once per [`ReservoirProtocol::step`](crate::dist::engine::ReservoirProtocol::step)
/// after the collectives ran, so it can never perturb the protocol
/// schedule; one early-out branch when disarmed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_step(
    rank: usize,
    seq: u64,
    offered: u64,
    union: u64,
    rounds: u32,
    stats: &ScanStats,
    times: &PhaseTimes,
) {
    if !reservoir_obs::enabled() {
        return;
    }
    let pe = rank as u32;
    trace::emit(pe, TraceKind::BatchStart, seq, offered);
    ENGINE_BATCHES.inc();
    ENGINE_ITEMS.add(offered);
    if rounds > 0 {
        trace::emit(pe, TraceKind::SelectRound, rounds as u64, union);
    }
    SCAN_CHUNKS.add(stats.chunks);
    SCAN_INSERTED.add(stats.inserted);
    record_phases(times);
    trace::emit(pe, TraceKind::BatchEnd, seq, union);
}

/// Fold one [`PhaseTimes`] delta into the per-phase gauges (also used by
/// the output-collection path, whose seconds accrue outside `step`).
pub(crate) fn record_phases(times: &PhaseTimes) {
    if !reservoir_obs::enabled() {
        return;
    }
    PHASE_INGEST.add(times.ingest);
    PHASE_INSERT.add(times.insert);
    PHASE_SELECT.add(times.select);
    PHASE_THRESHOLD.add(times.threshold);
    PHASE_GATHER.add(times.gather);
    PHASE_OUTPUT.add(times.output);
    PHASE_PAR_SCAN.add(times.par_scan);
}

/// Count one epoch publication and emit its `EpochPublish` event.
pub(crate) fn record_epoch(rank: usize, epoch: u64, total: u64) {
    if !reservoir_obs::enabled() {
        return;
    }
    ENGINE_EPOCHS.inc();
    trace::emit(rank as u32, TraceKind::EpochPublish, epoch, total);
}
