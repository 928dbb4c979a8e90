//! # reservoir-obs — unified observability for the reservoir workspace
//!
//! The paper's evaluation (Sections 5–6.5) is entirely about *accounting*:
//! per-phase running time and per-collective word counts. This crate turns
//! the workspace's scattered hand-rolled counters (`PhaseTimes`,
//! `IngestCounters`, `ScanStats`, per-report `collective_calls`) into one
//! always-on, pollable surface:
//!
//! * a [`Registry`] of named metrics — atomic [`Counter`]s, f64
//!   [`Gauge`]s and log2-bucket [`Histogram`]s — registered once by static
//!   name and **near-zero cost when unobserved** (one relaxed load and a
//!   predictable branch on instrumented paths; nothing at all on the
//!   hottest paths, which only count on their slow branches);
//! * a bounded **flight recorder** ([`trace::TraceRing`]): a per-PE
//!   lock-free ring of structured [`TraceEvent`]s (batch start/end,
//!   collective launches with op + words, selection rounds, epoch
//!   publications, deadline flushes) that a crashed or wedged run can
//!   dump for post-mortem;
//! * exporters — Prometheus text format and JSON — behind a
//!   [`MetricsReader`] that dashboard threads can poll mid-ingestion:
//!   a brief directory refresh only when the registry's version word
//!   moved, lock-free atomic loads in the steady state.
//!
//! ## The enable gate
//!
//! Instrumentation is armed by the `RESERVOIR_OBS` environment variable
//! (accepted spellings: `0`/`off`/`false`/`no`/`disabled` and
//! `1`/`on`/`true`/`yes`/`enabled`) or programmatically with
//! [`set_enabled`]. Disabled is the default and is *observationally free*:
//! no metric registers, no event records, no collective launches, and —
//! because instrumentation never touches an RNG or a collective — a fixed
//! seed draws the byte-identical sample whether the gate is armed or not
//! (pinned by the workspace engine-equivalence grid).
//!
//! ```
//! use reservoir_obs as obs;
//!
//! obs::set_enabled(true);
//! static BATCHES: obs::LazyCounter =
//!     obs::LazyCounter::new("doc_batches_total", "batches processed");
//! BATCHES.inc();
//!
//! let mut reader = obs::global().reader();
//! assert!(reader.prometheus().contains("doc_batches_total 1"));
//! ```

mod export;
mod hist;
mod registry;
pub mod trace;

pub use export::{render_json, render_prometheus};
pub use hist::{bucket_bound, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{
    global, Counter, Gauge, LazyCounter, LazyGauge, LazyHistogram, MetricData, MetricValue,
    MetricsReader, MetricsSnapshot, Registry,
};
pub use trace::{recorder, FlightRecorder, TraceEvent, TraceKind, PE_UNRANKED};

use std::sync::atomic::{AtomicU8, Ordering};

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Process-wide gate. Unset until the first [`enabled`] or
/// [`set_enabled`] touch.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Every spelling `RESERVOIR_OBS` accepts (named in full in parse errors).
pub const ACCEPTED_SPELLINGS: &str = "0/off/false/no/disabled or 1/on/true/yes/enabled";

/// Parse a `RESERVOIR_OBS` value; case-insensitive, surrounding whitespace
/// tolerated. Pure, so the spellings are testable without touching the
/// process environment.
pub fn parse_obs(v: &str) -> Result<bool, String> {
    match v.trim().to_ascii_lowercase().as_str() {
        "0" | "off" | "false" | "no" | "disabled" => Ok(false),
        "1" | "on" | "true" | "yes" | "enabled" => Ok(true),
        _ => Err(format!(
            "RESERVOIR_OBS accepts {ACCEPTED_SPELLINGS}, got {v:?}"
        )),
    }
}

/// Whether instrumentation is armed. The first call reads `RESERVOIR_OBS`
/// (panicking on a malformed value); later calls are one relaxed load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_env(),
    }
}

/// Arm the still-unset gate from `RESERVOIR_OBS` (absent means disabled).
/// A gate that [`set_enabled`] set meanwhile is left alone.
fn init_env() -> bool {
    let parsed = match std::env::var("RESERVOIR_OBS") {
        Ok(v) => parse_obs(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => false,
    };
    let target = if parsed { STATE_ON } else { STATE_OFF };
    let _ = STATE.compare_exchange(STATE_UNSET, target, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Arm or disarm instrumentation for the whole process, overriding the
/// environment. Metrics registered while armed keep their values across a
/// disarm/re-arm cycle; they just stop (and resume) accumulating.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_obs_accepts_every_spelling() {
        for v in ["0", "off", "FALSE", " no ", "Disabled"] {
            assert_eq!(parse_obs(v), Ok(false), "{v}");
        }
        for v in ["1", "ON", "true", " yes", "enabled "] {
            assert_eq!(parse_obs(v), Ok(true), "{v}");
        }
    }

    #[test]
    fn parse_obs_error_names_every_spelling() {
        let err = parse_obs("maybe").unwrap_err();
        for spelling in [
            "0", "off", "false", "no", "disabled", "1", "on", "true", "yes", "enabled",
        ] {
            assert!(err.contains(spelling), "{err:?} missing {spelling}");
        }
        assert!(err.contains("maybe"));
    }

    #[test]
    fn set_enabled_round_trips() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
