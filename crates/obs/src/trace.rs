//! The flight recorder: bounded, lock-free, per-PE rings of structured
//! trace events for post-mortem analysis of a crashed or wedged run.
//!
//! Each PE gets a power-of-two [`TraceRing`]; recording claims a slot with
//! one `fetch_add` and publishes it under a per-slot version tag (the
//! seqlock idea shrunk to one slot), so writers never block and a
//! concurrent [`FlightRecorder::dump`] simply skips the one slot that is
//! mid-write. Old events are overwritten — a flight recorder keeps the
//! *recent* past, which is the part a post-mortem needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events per ring; power of two so slot selection is a mask.
const RING_CAP: usize = 1024;

/// The `pe` recorded by call sites that run below the PE layer and do not
/// know their rank (the ingestion batcher).
pub const PE_UNRANKED: u32 = u32::MAX;

/// What happened. `a`/`b` payload meaning per kind is documented on each
/// variant (and mirrored in DESIGN.md's event-schema table). Codes are
/// stable: a retired kind leaves its number unused (6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A mini-batch step began: `a` = batch index, `b` = items in the
    /// local batch.
    BatchStart = 1,
    /// The step finished: `a` = batch index, `b` = global union size
    /// after the step.
    BatchEnd = 2,
    /// A collective primitive launched: `a` = op code
    /// (1 broadcast, 2 reduce, 3 gather, 4 exscan), `b` = local payload
    /// words.
    Collective = 3,
    /// A distributed selection finished: `a` = pivot rounds used,
    /// `b` = union size selected over.
    SelectRound = 4,
    /// A sample epoch published: `a` = epoch number, `b` = sample size.
    EpochPublish = 5,
    /// The ingestion batcher cut a batch on deadline rather than size:
    /// `a` = records in the cut batch, `b` = 0.
    DeadlineFlush = 7,
}

impl TraceKind {
    fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            1 => TraceKind::BatchStart,
            2 => TraceKind::BatchEnd,
            3 => TraceKind::Collective,
            4 => TraceKind::SelectRound,
            5 => TraceKind::EpochPublish,
            7 => TraceKind::DeadlineFlush,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::BatchStart => "batch_start",
            TraceKind::BatchEnd => "batch_end",
            TraceKind::Collective => "collective",
            TraceKind::SelectRound => "select_round",
            TraceKind::EpochPublish => "epoch_publish",
            TraceKind::DeadlineFlush => "deadline_flush",
        }
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record order across all rings (1-based; gaps mean the event
    /// between was overwritten or torn).
    pub seq: u64,
    /// Microseconds since the recorder's first event.
    pub at_micros: u64,
    /// Recording PE, or [`PE_UNRANKED`].
    pub pe: u32,
    pub kind: TraceKind,
    pub a: u64,
    pub b: u64,
}

/// `tag == 0` marks a slot that is empty or mid-write; a published slot
/// carries the event's global `seq` (≥ 1).
struct Slot {
    tag: AtomicU64,
    time: AtomicU64,
    /// `pe << 8 | kind`.
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            tag: AtomicU64::new(0),
            time: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// One PE's bounded event ring. Writers are lock-free; torn slots (a
/// writer mid-overwrite during a dump) are skipped, never misread.
pub struct TraceRing {
    pe: u32,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl TraceRing {
    fn new(pe: u32) -> TraceRing {
        TraceRing {
            pe,
            head: AtomicU64::new(0),
            slots: (0..RING_CAP).map(|_| Slot::new()).collect(),
        }
    }

    /// Record an event (unconditionally — [`emit`] is the gated front
    /// door). Lock-free: one `fetch_add` claims a slot, the tag publishes
    /// it.
    pub fn record(&self, kind: TraceKind, a: u64, b: u64) {
        let seq = recorder().seq.fetch_add(1, Ordering::Relaxed) + 1;
        let at = recorder().micros();
        let i = self.head.fetch_add(1, Ordering::Relaxed) as usize & (RING_CAP - 1);
        let s = &self.slots[i];
        s.tag.store(0, Ordering::Release);
        s.time.store(at, Ordering::Relaxed);
        s.meta
            .store((self.pe as u64) << 8 | kind as u64, Ordering::Relaxed);
        s.a.store(a, Ordering::Relaxed);
        s.b.store(b, Ordering::Relaxed);
        s.tag.store(seq, Ordering::Release);
    }

    /// Copy out every published event (unordered; the recorder's dump
    /// sorts globally by `seq`).
    fn dump_into(&self, out: &mut Vec<TraceEvent>) {
        for s in self.slots.iter() {
            let tag = s.tag.load(Ordering::Acquire);
            if tag == 0 {
                continue;
            }
            let time = s.time.load(Ordering::Relaxed);
            let meta = s.meta.load(Ordering::Relaxed);
            let a = s.a.load(Ordering::Relaxed);
            let b = s.b.load(Ordering::Relaxed);
            if s.tag.load(Ordering::Acquire) != tag {
                continue; // torn by a concurrent overwrite
            }
            let kind = match TraceKind::from_u8((meta & 0xff) as u8) {
                Some(k) => k,
                None => continue,
            };
            out.push(TraceEvent {
                seq: tag,
                at_micros: time,
                pe: (meta >> 8) as u32,
                kind,
                a,
                b,
            });
        }
    }
}

/// The process-wide set of per-PE rings.
pub struct FlightRecorder {
    rings: Mutex<Vec<Arc<TraceRing>>>,
    seq: AtomicU64,
    start: OnceLock<Instant>,
}

impl FlightRecorder {
    const fn new() -> FlightRecorder {
        FlightRecorder {
            rings: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            start: OnceLock::new(),
        }
    }

    fn micros(&self) -> u64 {
        self.start.get_or_init(Instant::now).elapsed().as_micros() as u64
    }

    /// Get-or-create the ring for a PE. Takes a short mutex — per-batch
    /// call sites just call [`emit`]; per-message call sites cache the
    /// returned `Arc`.
    pub fn ring(&self, pe: u32) -> Arc<TraceRing> {
        let mut rings = self.rings.lock().unwrap();
        if let Some(r) = rings.iter().find(|r| r.pe == pe) {
            return Arc::clone(r);
        }
        let r = Arc::new(TraceRing::new(pe));
        rings.push(Arc::clone(&r));
        r
    }

    /// Every surviving event across all rings, in global record order.
    pub fn dump(&self) -> Vec<TraceEvent> {
        let rings: Vec<Arc<TraceRing>> = self.rings.lock().unwrap().clone();
        let mut out = Vec::new();
        for r in &rings {
            r.dump_into(&mut out);
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// The dump as JSON lines — one event object per line, ready to ship
    /// as a CI artifact.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for e in self.dump() {
            let pe: i64 = if e.pe == PE_UNRANKED { -1 } else { e.pe as i64 };
            writeln!(
                s,
                "{{\"seq\":{},\"at_micros\":{},\"pe\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                e.seq,
                e.at_micros,
                pe,
                e.kind.name(),
                e.a,
                e.b
            )
            .unwrap();
        }
        s
    }
}

/// The process-wide recorder.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: FlightRecorder = FlightRecorder::new();
    &RECORDER
}

/// Record an event if instrumentation is armed — the one-line call site
/// API. Looks the ring up per call; structs on per-message paths should
/// hold `recorder().ring(pe)` instead.
#[inline]
pub fn emit(pe: u32, kind: TraceKind, a: u64, b: u64) {
    if crate::enabled() {
        recorder().ring(pe).record(kind, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_dump_in_order() {
        let ring = recorder().ring(7001);
        ring.record(TraceKind::BatchStart, 0, 100);
        ring.record(TraceKind::BatchEnd, 0, 100);
        let evs: Vec<TraceEvent> = recorder()
            .dump()
            .into_iter()
            .filter(|e| e.pe == 7001)
            .collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, TraceKind::BatchStart);
        assert_eq!(evs[1].kind, TraceKind::BatchEnd);
        assert!(evs[0].seq < evs[1].seq);
        assert!(evs[0].at_micros <= evs[1].at_micros);
    }

    #[test]
    fn ring_overwrites_but_never_grows() {
        let ring = recorder().ring(7002);
        for i in 0..(RING_CAP as u64 * 2) {
            ring.record(TraceKind::Collective, i, 0);
        }
        let evs: Vec<TraceEvent> = recorder()
            .dump()
            .into_iter()
            .filter(|e| e.pe == 7002)
            .collect();
        assert_eq!(evs.len(), RING_CAP);
        // Only the most recent RING_CAP events survive.
        assert!(evs.iter().all(|e| e.a >= RING_CAP as u64));
    }

    #[test]
    fn jsonl_maps_unranked_to_minus_one() {
        recorder()
            .ring(PE_UNRANKED)
            .record(TraceKind::DeadlineFlush, 9, 0);
        assert!(recorder().to_jsonl().contains("\"pe\":-1"));
    }
}
