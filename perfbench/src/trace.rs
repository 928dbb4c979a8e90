//! Spans recorded from the benchmark's own files around the calls into
//! each layer, kept in memory and written out as Chrome Trace Event JSON
//! when the run ends.
//!
//! Two pass-through wrappers put the boundaries in place without touching
//! the library: [`TracingBackend`] times every [`SamplerBackend`] call the
//! engine makes (splitting `count`/`select` by their [`Charge`]), and
//! [`TracedComm`] times every blocking `recv_raw` underneath the
//! collectives.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use reservoir::btree::SampleKey;
use reservoir::comm::{CommStats, Communicator};
use reservoir::dist::engine::{Charge, InsertOutcome, Placement};
use reservoir::dist::{SamplerBackend, SamplingMode};
use reservoir::metrics::PhaseTimes;
use reservoir::rng::DefaultRng;
use reservoir::select::{SelectResult, TargetRank};
use reservoir::stream::Item;
use reservoir::SampleItem;

/// The layer call a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `ReservoirProtocol::step`: one collective batch step.
    Step,
    /// `SamplerBackend::insert`: the local jump scan and tree insert.
    Insert,
    /// `SamplerBackend::count` billed to the batch step.
    Count,
    /// `SamplerBackend::select` billed to the batch step.
    Select,
    /// `SamplerBackend::prune`.
    Prune,
    /// `count`/`select` billed to output: the Section 5 finalize.
    Finalize,
    /// `SamplerBackend::local_items_le`: output extraction.
    Extract,
    /// `SamplerBackend::place`: the output prefix count.
    Place,
    /// `Communicator::recv_raw`: time blocked waiting for a peer.
    Recv,
    /// `Batcher::push` calls up to and including the cutting one.
    Push,
    /// Bucket reset plus `ShardRouter::route_into`.
    Route,
    /// `ShardedSampler::process_batch`.
    Process,
    /// One `collect_output` call.
    Collect,
    /// `SnapshotReader::read`.
    Read,
}

const KINDS: usize = 14;

impl Kind {
    /// The span name in the exported trace.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Step => "engine.step",
            Kind::Insert => "local.insert",
            Kind::Count => "comm.count",
            Kind::Select => "select.select",
            Kind::Prune => "btree.prune",
            Kind::Finalize => "output.finalize",
            Kind::Extract => "output.extract",
            Kind::Place => "output.place",
            Kind::Recv => "comm.recv",
            Kind::Push => "ingest.push",
            Kind::Route => "route.route",
            Kind::Process => "sharded.process",
            Kind::Collect => "output.collect",
            Kind::Read => "snapshot.read",
        }
    }
}

/// Which part of a repetition is running; per-layer sums cover the
/// measured batches and the collections, never the warm-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Construction, warm-up and post-stream reads.
    Other,
    /// The measured batches.
    Batch,
    /// The repeated collections after the stream.
    Collect,
}

const PHASES: usize = 3;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    kind: Kind,
    start_ns: u64,
    dur_ns: u64,
    arg: u64,
}

/// Seconds and call counts per phase and kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sums {
    secs: [[f64; KINDS]; PHASES],
    calls: [[u64; KINDS]; PHASES],
}

impl Sums {
    /// Seconds spent in `kind` calls during `phase`.
    pub fn secs(&self, phase: Phase, kind: Kind) -> f64 {
        self.secs[phase as usize][kind as usize]
    }

    /// Number of `kind` calls during `phase`.
    pub fn calls(&self, phase: Phase, kind: Kind) -> u64 {
        self.calls[phase as usize][kind as usize]
    }

    /// Seconds in `kind` calls over the measured batches and collections.
    pub fn measured_secs(&self, kind: Kind) -> f64 {
        self.secs(Phase::Batch, kind) + self.secs(Phase::Collect, kind)
    }

    /// Calls of `kind` over the measured batches and collections.
    pub fn measured_calls(&self, kind: Kind) -> u64 {
        self.calls(Phase::Batch, kind) + self.calls(Phase::Collect, kind)
    }

    /// Add another thread's sums.
    pub fn add(&mut self, other: &Sums) {
        for p in 0..PHASES {
            for k in 0..KINDS {
                self.secs[p][k] += other.secs[p][k];
                self.calls[p][k] += other.calls[p][k];
            }
        }
    }
}

/// One thread's span track. Spans go into a buffer sized before the heap
/// baseline is taken; spans past its capacity are counted, not stored.
pub struct Recorder {
    origin: Instant,
    phase: Cell<Phase>,
    spans: RefCell<Vec<Span>>,
    dropped: Cell<u64>,
    sums: RefCell<Sums>,
}

impl Recorder {
    /// A track whose timestamps count from `origin`, holding up to
    /// `capacity` spans.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Recorder {
            origin,
            phase: Cell::new(Phase::Other),
            spans: RefCell::new(Vec::with_capacity(capacity)),
            dropped: Cell::new(0),
            sums: RefCell::new(Sums::default()),
        }
    }

    /// Enter `phase`.
    pub fn set_phase(&self, phase: Phase) {
        self.phase.set(phase);
    }

    /// Run `f` inside a `kind` span carrying `arg` (a record or byte count).
    pub fn time<R>(&self, kind: Kind, arg: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let dur = t0.elapsed();
        let (p, k) = (self.phase.get() as usize, kind as usize);
        {
            let mut sums = self.sums.borrow_mut();
            sums.secs[p][k] += dur.as_secs_f64();
            sums.calls[p][k] += 1;
        }
        let mut spans = self.spans.borrow_mut();
        if spans.len() < spans.capacity() {
            spans.push(Span {
                kind,
                start_ns: t0.duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                arg,
            });
        } else {
            self.dropped.set(self.dropped.get() + 1);
        }
        r
    }

    /// The per-phase sums so far.
    pub fn sums(&self) -> Sums {
        *self.sums.borrow()
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Move the recorded spans out.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Run `f`, inside a span when a recorder is present.
pub fn maybe_time<R>(rec: Option<&Recorder>, kind: Kind, arg: u64, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.time(kind, arg, f),
        None => f(),
    }
}

/// A [`SamplerBackend`] that times every call into the backend it wraps.
pub struct TracingBackend<'r, B> {
    inner: B,
    rec: &'r Recorder,
}

impl<'r, B> TracingBackend<'r, B> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: B, rec: &'r Recorder) -> Self {
        TracingBackend { inner, rec }
    }
}

fn output_or(charge: Charge, kind: Kind) -> Kind {
    if charge == Charge::Output {
        Kind::Finalize
    } else {
        kind
    }
}

impl<B: SamplerBackend> SamplerBackend for TracingBackend<'_, B> {
    fn insert(
        &mut self,
        mode: SamplingMode,
        items: &[Item],
        threshold: Option<SampleKey>,
        times: &mut PhaseTimes,
    ) -> InsertOutcome {
        let inner = &mut self.inner;
        self.rec.time(Kind::Insert, items.len() as u64, || {
            inner.insert(mode, items, threshold, times)
        })
    }

    fn count(&mut self, times: &mut PhaseTimes, charge: Charge) -> u64 {
        let inner = &mut self.inner;
        self.rec.time(output_or(charge, Kind::Count), 0, || {
            inner.count(times, charge)
        })
    }

    fn select(
        &mut self,
        target: TargetRank,
        union: u64,
        pivots: usize,
        times: &mut PhaseTimes,
        charge: Charge,
    ) -> SelectResult {
        let inner = &mut self.inner;
        self.rec.time(output_or(charge, Kind::Select), union, || {
            inner.select(target, union, pivots, times, charge)
        })
    }

    fn prune(&mut self, t: &SampleKey, times: &mut PhaseTimes, charge: Charge) {
        let inner = &mut self.inner;
        self.rec
            .time(Kind::Prune, 0, || inner.prune(t, times, charge))
    }

    fn place(&mut self, local: u64, times: &mut PhaseTimes) -> Placement {
        let inner = &mut self.inner;
        self.rec
            .time(Kind::Place, local, || inner.place(local, times))
    }

    fn local_len(&self) -> u64 {
        self.inner.local_len()
    }

    fn local_count_le(&self, t: &SampleKey) -> u64 {
        self.inner.local_count_le(t)
    }

    fn local_items_le(
        &self,
        t: Option<&SampleKey>,
        buf: &mut Vec<SampleItem>,
        times: &mut PhaseTimes,
    ) {
        self.rec.time(Kind::Extract, 0, || {
            self.inner.local_items_le(t, buf, times)
        })
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn select_rng_state(&self) -> Vec<DefaultRng> {
        self.inner.select_rng_state()
    }

    fn restore_select_rng(&mut self, state: Vec<DefaultRng>) {
        self.inner.restore_select_rng(state)
    }

    fn vote(&mut self, active: u64) -> u64 {
        self.inner.vote(active)
    }
}

/// A [`Communicator`] that times every blocking receive of the endpoint it
/// wraps. The library's collectives are blanket-implemented over
/// `send_raw`/`recv_raw`, so every collective wait lands in a span.
pub struct TracedComm<'r, C> {
    inner: C,
    rec: &'r Recorder,
}

impl<'r, C> TracedComm<'r, C> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: C, rec: &'r Recorder) -> Self {
        TracedComm { inner, rec }
    }
}

impl<C: Communicator> Communicator for TracedComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_raw(&self, to: usize, tag: u64, msg: Box<dyn Any + Send>, words: u64) {
        self.inner.send_raw(to, tag, msg, words)
    }

    fn recv_raw(&self, from: usize, tag: u64) -> Box<dyn Any + Send> {
        self.rec
            .time(Kind::Recv, from as u64, || self.inner.recv_raw(from, tag))
    }

    fn record(&self, messages: u64, words: u64) {
        self.inner.record(messages, words)
    }

    fn next_collective_seq(&self) -> u64 {
        self.inner.next_collective_seq()
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
}

/// One exported track: a thread name and its spans.
pub struct Track {
    /// Shown as the thread name in the trace viewer.
    pub name: String,
    /// The track's spans.
    pub spans: Vec<Span>,
}

/// Write `tracks` as Chrome Trace Event JSON (one `X` event per span, one
/// thread per track), which Perfetto and chrome://tracing open directly.
pub fn write_chrome(path: &std::path::Path, tracks: &[Track]) -> std::io::Result<()> {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (tid, track) in tracks.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            track.name
        );
        for s in &track.spans {
            let name = s.kind.name();
            let cat = name.split('.').next().unwrap_or(name);
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"{cat}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"n\":{}}}}}",
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.arg
            );
        }
        out.push_str(if tid + 1 < tracks.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(out.as_bytes())?;
    f.flush()
}
