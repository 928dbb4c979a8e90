//! The metrics registry: named atomic counters, gauges and histograms
//! registered once by static name, plus the [`MetricsReader`] dashboards
//! poll mid-ingestion.
//!
//! Registration is rare (a handful of static names per process) and takes
//! a mutex; *recording* is a relaxed atomic op on a handle, and *reading*
//! in the steady state is lock-free: a [`MetricsReader`] caches the
//! metric directory and only re-locks when the registry's version word
//! moved.

use crate::hist::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotone event count. Recording is a relaxed `fetch_add`; handles do
/// not gate on [`crate::enabled`] — use the `Lazy*` statics for gated
/// call-site instrumentation.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-written or accumulated `f64` (stored as bits in an `AtomicU64`).
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Accumulate (CAS loop; contention is per-metric and rare).
    pub fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Clone)]
struct Entry {
    name: &'static str,
    help: &'static str,
    metric: Metric,
}

/// A directory of named metrics. Usually accessed through [`global`]; a
/// private instance is handy in tests that want full control of the
/// directory (the export-format goldens build one).
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
    /// Bumped once per registration; [`MetricsReader`]s compare it to
    /// decide whether their cached directory is stale.
    version: AtomicU64,
}

impl Registry {
    pub const fn new() -> Registry {
        Registry {
            entries: Mutex::new(Vec::new()),
            version: AtomicU64::new(0),
        }
    }

    fn register(
        &self,
        name: &'static str,
        help: &'static str,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut entries = self.entries.lock().unwrap();
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            name,
            help,
            metric: metric.clone(),
        });
        self.version.fetch_add(1, Ordering::Release);
        metric
    }

    /// Get-or-register a counter. Panics if `name` is already registered
    /// as a different kind (static names make that a programming error).
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        match self.register(name, help, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get-or-register a gauge (same name discipline as [`Self::counter`]).
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        match self.register(name, help, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Get-or-register a histogram (same name discipline as
    /// [`Self::counter`]).
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        match self.register(name, help, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The registration version word (the staleness probe — compare two
    /// values to learn whether the directory changed in between).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// A reader for dashboard threads: caches the directory, refreshes it
    /// only when [`Self::version`] moved, loads values lock-free.
    pub fn reader(&self) -> MetricsReader<'_> {
        MetricsReader {
            registry: self,
            directory: Vec::new(),
            seen: u64::MAX, // force the first refresh
        }
    }

    /// One-shot snapshot (locks the directory briefly; polling loops
    /// should hold a [`MetricsReader`] instead).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.reader().snapshot()
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

/// The process-wide registry every `Lazy*` static records into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// The value side of a snapshot entry.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricData {
    Counter(u64),
    Gauge(f64),
    /// Boxed: a [`HistogramSnapshot`] is 65 buckets wide and would bloat
    /// every entry of a snapshot otherwise.
    Histogram(Box<HistogramSnapshot>),
}

/// One metric in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    pub name: &'static str,
    pub help: &'static str,
    pub data: MetricData,
}

/// A point-in-time copy of every registered metric, sorted by name (so
/// exports are stable regardless of registration order, which is
/// scheduling-dependent).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub metrics: Vec<MetricValue>,
}

impl MetricsSnapshot {
    /// Keep only the metrics whose name the predicate accepts (e.g. the
    /// deterministic-counter allowlist of the export golden test).
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.metrics.retain(|m| keep(m.name));
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricData> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.data)
    }

    /// A counter's value, `0` when absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricData::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Render in Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        crate::export::render_prometheus(self)
    }

    /// Render as a JSON document.
    pub fn json(&self) -> String {
        crate::export::render_json(self)
    }
}

/// A poll handle safe to use from dashboard threads mid-ingestion: value
/// loads are lock-free; the directory mutex is taken only on the polls
/// where [`Registry::version`] moved since the cache was built (i.e. a
/// new metric registered — rare after warm-up). The directory may trail a
/// registration by one poll; values are always fresh.
pub struct MetricsReader<'a> {
    registry: &'a Registry,
    directory: Vec<Entry>,
    seen: u64,
}

impl MetricsReader<'_> {
    /// The registry version the cached directory reflects — diff two
    /// polls to detect new registrations, as `SnapshotReader::latest_epoch`
    /// detects new publications.
    pub fn version(&self) -> u64 {
        self.registry.version()
    }

    /// Copy every metric's current value.
    pub fn snapshot(&mut self) -> MetricsSnapshot {
        let version = self.registry.version();
        if version != self.seen {
            self.directory = self.registry.entries.lock().unwrap().clone();
            self.directory.sort_by_key(|e| e.name);
            self.seen = version;
        }
        let metrics = self
            .directory
            .iter()
            .map(|e| MetricValue {
                name: e.name,
                help: e.help,
                data: match &e.metric {
                    Metric::Counter(c) => MetricData::Counter(c.get()),
                    Metric::Gauge(g) => MetricData::Gauge(g.get()),
                    Metric::Histogram(h) => MetricData::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// Snapshot and render in Prometheus text format.
    pub fn prometheus(&mut self) -> String {
        self.snapshot().prometheus()
    }

    /// Snapshot and render as JSON.
    pub fn json(&mut self) -> String {
        self.snapshot().json()
    }
}

/// A lazily registered counter for `static` call-site instrumentation.
/// Recording gates on [`crate::enabled`]: while disarmed nothing registers
/// and nothing accumulates, so an unobserved process carries no registry
/// at all.
pub struct LazyCounter {
    name: &'static str,
    help: &'static str,
    slot: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    pub const fn new(name: &'static str, help: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            help,
            slot: OnceLock::new(),
        }
    }

    #[inline]
    fn handle(&self) -> &Counter {
        self.slot
            .get_or_init(|| global().counter(self.name, self.help))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.handle().add(n);
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value; `0` if never recorded (does not register).
    pub fn get(&self) -> u64 {
        self.slot.get().map_or(0, |c| c.get())
    }
}

/// A lazily registered gauge (see [`LazyCounter`] for the gating rules).
pub struct LazyGauge {
    name: &'static str,
    help: &'static str,
    slot: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    pub const fn new(name: &'static str, help: &'static str) -> LazyGauge {
        LazyGauge {
            name,
            help,
            slot: OnceLock::new(),
        }
    }

    #[inline]
    fn handle(&self) -> &Gauge {
        self.slot
            .get_or_init(|| global().gauge(self.name, self.help))
    }

    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.handle().set(v);
        }
    }

    #[inline]
    pub fn add(&self, v: f64) {
        if crate::enabled() {
            self.handle().add(v);
        }
    }

    /// Current value; `0.0` if never recorded (does not register).
    pub fn get(&self) -> f64 {
        self.slot.get().map_or(0.0, |g| g.get())
    }
}

/// A lazily registered histogram (see [`LazyCounter`] for the gating
/// rules).
pub struct LazyHistogram {
    name: &'static str,
    help: &'static str,
    slot: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    pub const fn new(name: &'static str, help: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            help,
            slot: OnceLock::new(),
        }
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        if crate::enabled() {
            self.slot
                .get_or_init(|| global().histogram(self.name, self.help))
                .observe(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_once_by_name() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(r.version(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x_total", "x");
        let _ = r.gauge("x_total", "x");
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("g", "g");
        g.set(1.5);
        g.add(0.25);
        assert_eq!(g.get(), 1.75);
    }

    #[test]
    fn reader_refreshes_only_on_version_moves() {
        let r = Registry::new();
        let c = r.counter("a_total", "a");
        let mut reader = r.reader();
        let v0 = reader.version();
        c.add(7);
        assert_eq!(reader.snapshot().counter("a_total"), 7);
        // New registration moves the version; the reader picks it up.
        let _ = r.gauge("b", "b");
        assert!(reader.version() > v0);
        assert_eq!(reader.snapshot().metrics.len(), 2);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        let _ = r.counter("z_total", "z");
        let _ = r.counter("a_total", "a");
        let names: Vec<_> = r.snapshot().metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["a_total", "z_total"]);
    }
}
