//! The four workloads: their inputs, the closed-loop PE programs that drive
//! the sampler through its public API, and the correctness checks behind
//! `error_rate`. `BENCHMARK.json` gates `live_reads` and `tenant_fleet`.
//! `bulk_stream` streams from DRAM, and `small_batch` keeps a 6 MiB sample
//! in the shared L3 and waits on 34 collectives per batch; both swing with
//! the host's load by more than the gate allows, so they are run by name
//! only.
//!
//! A run is a sequence of identical fixed-work repetitions. Each one builds
//! a fresh communicator and sampler, runs a fixed warm-up prefix, then a
//! fixed number of measured batches, then repeated collections. Per-batch
//! insert work falls as the stream grows (insertion probability ≈ k/n), so
//! a time window would hand a faster program cheaper batches; a fixed batch
//! count keeps the work identical.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use reservoir::comm::{Collectives, CommStats, Communicator, ThreadComm};
use reservoir::dist::sharded::ShardedBatchReport;
use reservoir::dist::threaded::CommBackend;
use reservoir::dist::{
    BatchReport, ContinuousMode, DistConfig, DistributedSampler, MergeMode, ReservoirProtocol,
    SampleEpoch, SampleHandle, SamplerBackend, ShardedSampler, SnapshotReader,
};
use reservoir::rng::{Rng64, SeedSequence, StreamKind};
use reservoir::stream::ingest::{BatchPolicy, Batcher, MiniBatch};
use reservoir::stream::{Item, ShardRouter, StreamSpec, WeightGen};

use crate::alloc;
use crate::stats::thread_cpu_ns;
use crate::trace::{maybe_time, Kind, Phase, Recorder, Sums, TracedComm, TracingBackend, Track};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's long-stream regime: big batches streamed from DRAM.
    BulkStream,
    /// Small batches and a large sample, pushed through the ingest batcher.
    SmallBatch,
    /// Per-batch publication beside a closed-loop snapshot reader.
    LiveReads,
    /// Hundreds of tiny per-tenant reservoirs behind one schedule, fed
    /// through the ingest batcher and the router.
    TenantFleet,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::BulkStream,
        Workload::SmallBatch,
        Workload::LiveReads,
        Workload::TenantFleet,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkStream => "bulk_stream",
            Workload::SmallBatch => "small_batch",
            Workload::LiveReads => "live_reads",
            Workload::TenantFleet => "tenant_fleet",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed shape. Every workload keeps at most two busy
    /// threads, so it fits a two-core machine.
    pub fn spec(self) -> Spec {
        let base = Spec {
            workload: self,
            pes: 2,
            k: 0,
            batch: 0,
            shards: 1,
            ring: 0,
            warmup: 16,
            measured: 0,
            collections: 16,
        };
        match self {
            // 16 batches of 16 MiB per PE: the ring is larger than the L3,
            // so every batch streams from DRAM.
            Workload::BulkStream => Spec {
                k: 1000,
                batch: 1 << 20,
                ring: 16,
                measured: 256,
                ..base
            },
            Workload::SmallBatch => Spec {
                k: 100_000,
                batch: 10_000,
                ring: 64,
                warmup: 32,
                measured: 1024,
                ..base
            },
            // One PE plus the reader thread.
            Workload::LiveReads => Spec {
                pes: 1,
                k: 10_000,
                batch: 100_000,
                ring: 16,
                measured: 512,
                ..base
            },
            // 512 shards keep each PE's fleet state (about 1.7 MiB) inside
            // its L2, so neighbours on the shared L3 do not swing the
            // figures; at 1024 records/PE per superstep about 15% of the
            // shards still take the sparse fast path. Records are pushed one
            // at a time through the batcher, so the gated workloads reach
            // the ingest layer too.
            Workload::TenantFleet => Spec {
                k: 64,
                batch: 1024,
                shards: 512,
                ring: 64,
                measured: 256,
                collections: 32,
                ..base
            },
        }
    }
}

/// A workload's shape: PEs, sample size, batch size and fixed batch counts.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// PE threads.
    pub pes: usize,
    /// Sample size (per shard on `tenant_fleet`).
    pub k: usize,
    /// Records per PE per batch.
    pub batch: usize,
    /// Reservoirs (1 unless `tenant_fleet`).
    pub shards: usize,
    /// Batches per PE in the replayed input ring.
    pub ring: usize,
    /// Warm-up batches before the measured ones.
    pub warmup: usize,
    /// Measured batches per repetition.
    pub measured: usize,
    /// Collections after the stream.
    pub collections: usize,
}

/// Reads timed on an idle slot after the stream (non-`live_reads`), in
/// blocks of `READ_BLOCK`.
const IDLE_READS: usize = 8192;
const READ_BLOCK: usize = 16;
/// Read latencies kept per repetition on `live_reads`.
const LIVE_READS_CAP: usize = 1 << 16;
/// Span-buffer room per batch or collection (steps, backend calls, receives).
const SPANS_PER_STEP: usize = 64;

/// Zipf exponent and population of the tenant ids.
const ZIPF_S: f64 = 1.1;
const TENANTS: usize = 1 << 20;
/// Tenant ids live above this bit of a record id.
const TENANT_SHIFT: u32 = 32;

impl Spec {
    /// The sampler configuration: every knob set explicitly to the value a
    /// caller gets with no environment set, so CI's `RESERVOIR_*` legs
    /// cannot change what is measured. Only `live_reads` publishes.
    pub fn config(&self, seed: u64) -> DistConfig {
        let continuous = if self.workload == Workload::LiveReads {
            ContinuousMode::EveryBatch
        } else {
            ContinuousMode::Disabled
        };
        DistConfig::weighted(self.k, seed)
            .with_pivots(1)
            .with_threads(1)
            .with_persistent_pool(false)
            .with_merge(MergeMode::Epilogue)
            .with_leaf_affinity(true)
            .with_continuous(continuous)
    }

    /// Records handed in over one repetition's measured batches, all PEs.
    pub fn measured_records(&self) -> u64 {
        (self.pes * self.measured * self.batch) as u64
    }

    fn span_capacity(&self) -> usize {
        (self.warmup + self.measured + self.collections) * SPANS_PER_STEP + LIVE_READS_CAP
    }
}

/// The generated inputs of one seed, shared by every repetition.
pub struct Inputs {
    /// Per PE, the ring of batches replayed in order. Laps repeat record
    /// ids, so no check may assume unique ids.
    pub rings: Vec<Vec<Vec<Item>>>,
    /// Per shard: min(k, records routed to it over warm-up and measured
    /// batches), the sample size every collection must have.
    pub expected: Vec<u64>,
}

fn tenant_of(item: &Item) -> u64 {
    item.id >> TENANT_SHIFT
}

fn router(spec: &Spec) -> ShardRouter<fn(&Item) -> u64> {
    ShardRouter::new(spec.shards, tenant_of)
}

/// Generate every PE's input ring from `seed`, before anything is timed:
/// generating inline would cost several times the scan itself.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let cdf = if spec.workload == Workload::TenantFleet {
        zipf_cdf()
    } else {
        Vec::new()
    };
    let rings: Vec<Vec<Vec<Item>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.pes)
            .map(|pe| {
                let cdf = &cdf;
                s.spawn(move || {
                    if cdf.is_empty() {
                        paper_ring(spec, seed, pe)
                    } else {
                        tenant_ring(spec, seed, pe, cdf)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("input generator panicked"))
            .collect()
    });
    let batches = spec.warmup + spec.measured;
    let mut seen = vec![0u64; spec.shards];
    if spec.shards == 1 {
        seen[0] = (spec.pes * batches * spec.batch) as u64;
    } else {
        let router = router(spec);
        for ring in &rings {
            for i in 0..batches {
                for item in &ring[i % spec.ring] {
                    seen[router.shard_of(item)] += 1;
                }
            }
        }
    }
    let expected = seen.iter().map(|&n| n.min(spec.k as u64)).collect();
    Inputs { rings, expected }
}

/// The paper's default stream: weights U(0, 100].
fn paper_ring(spec: &Spec, seed: u64, pe: usize) -> Vec<Vec<Item>> {
    let mut src = StreamSpec {
        pes: spec.pes,
        batch_size: spec.batch,
        weights: WeightGen::paper_uniform(),
        seed,
    }
    .source_for(pe);
    (0..spec.ring).map(|_| src.next_batch()).collect()
}

fn zipf_cdf() -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=TENANTS)
        .map(|rank| {
            acc += (rank as f64).powf(-ZIPF_S);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Weights U(0, 100], tenant ids Zipf(1.1) over 2^20 tenants, encoded in
/// the id's high bits so the router can key on them.
fn tenant_ring(spec: &Spec, seed: u64, pe: usize, cdf: &[f64]) -> Vec<Vec<Item>> {
    let mut rng = SeedSequence::new(seed).rng_for(pe, StreamKind::Workload);
    let weights = WeightGen::paper_uniform();
    let mut serial = 0u64;
    (0..spec.ring)
        .map(|batch| {
            (0..spec.batch)
                .map(|_| {
                    let u = rng.rand_co();
                    let tenant = cdf.partition_point(|&c| c <= u).min(TENANTS - 1) as u64;
                    let weight = weights.sample(pe, batch as u64, &mut rng);
                    serial += 1;
                    Item::new(
                        (tenant << TENANT_SHIFT) | ((pe as u64) << 28) | serial,
                        weight,
                    )
                })
                .collect()
        })
        .collect()
}

/// Counters that repeat exactly for one seed, whatever the timing and
/// whether or not the run is traced. Summed over PEs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// 64-bit words sent over the measured batches (`CommStats`).
    pub words: u64,
    /// Messages sent over the measured batches.
    pub messages: u64,
    /// Collective primitive launches over the measured batches.
    pub launches: u64,
    /// Selection rounds (per shard on `tenant_fleet`).
    pub rounds: u64,
    /// Selections that ran (per shard on `tenant_fleet`).
    pub selects: u64,
    /// Skip values drawn by the local scans.
    pub jumps: u64,
    /// Records inserted into the local reservoirs.
    pub inserted: u64,
    /// Shards the sparse fast path skipped.
    pub shards_skipped: u64,
    /// Joint selection rounds paid by the fleet.
    pub joint_rounds: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.words += o.words;
        self.messages += o.messages;
        self.launches += o.launches;
        self.rounds += o.rounds;
        self.selects += o.selects;
        self.jumps += o.jumps;
        self.inserted += o.inserted;
        self.shards_skipped += o.shards_skipped;
        self.joint_rounds += o.joint_rounds;
    }

    fn add_report(&mut self, r: &BatchReport) {
        self.rounds += r.select_rounds as u64;
        self.selects += (r.select_rounds > 0) as u64;
        self.jumps += r.scan.jumps;
        self.inserted += r.inserted;
    }
}

/// Per-shard phase seconds summed from the fleet's `BatchReport`s.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardTimes {
    /// Local scan and insert (`times.insert`).
    pub insert_s: f64,
    /// Each shard's share of the joint selection (`times.select`).
    pub select_s: f64,
    /// Every phase the shard reports (`times.total()`).
    pub total_s: f64,
}

impl ShardTimes {
    pub fn add(&mut self, o: &ShardTimes) {
        self.insert_s += o.insert_s;
        self.select_s += o.select_s;
        self.total_s += o.total_s;
    }
}

fn add_fleet_report(counts: &mut Counts, times: &mut ShardTimes, r: &ShardedBatchReport) {
    for shard in &r.per_shard {
        counts.add_report(shard);
        times.insert_s += shard.times.insert;
        times.select_s += shard.times.select;
        times.total_s += shard.times.total();
    }
    counts.shards_skipped += r.shards_skipped as u64;
    counts.joint_rounds += r.joint_select_rounds as u64;
}

/// Correctness checks attempted and failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// Add another tally.
    pub fn add(&mut self, o: &Checks) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// One thread's snapshot reads.
struct ReadLog {
    ns: Vec<f64>,
    reads: u64,
    stale: u64,
    wall_s: f64,
    last_epoch: u64,
    checks: Checks,
}

impl ReadLog {
    fn with_capacity(cap: usize) -> Self {
        ReadLog {
            ns: Vec::with_capacity(cap),
            reads: 0,
            stale: 0,
            wall_s: 0.0,
            last_epoch: 0,
            checks: Checks::default(),
        }
    }

    /// Check one read: the checksum verifies and epochs never go
    /// backwards. A read is stale when a newer epoch was already published.
    fn check(&mut self, epoch: &SampleEpoch, latest: u64, measure: bool) {
        self.checks.check(epoch.verify());
        self.checks.check(epoch.epoch >= self.last_epoch);
        self.last_epoch = epoch.epoch;
        if measure {
            self.reads += 1;
            self.stale += (epoch.epoch < latest) as u64;
        }
    }

    fn sample(&mut self, ns: f64) {
        if self.ns.len() < self.ns.capacity() {
            self.ns.push(ns);
        }
    }
}

/// What one PE thread measured in one repetition. Buffers are sized before
/// the heap baseline, so the benchmark's own bookkeeping is not counted.
struct PeOut {
    setup_s: f64,
    wall_s: f64,
    batch_us: Vec<f64>,
    /// Closed-loop interval of each measured batch: previous step return
    /// (or window start) to this step return.
    interval_us: Vec<f64>,
    /// On-CPU time of the PE thread over the same intervals.
    cpu_ns: Vec<f64>,
    collect_us: Vec<f64>,
    counts: Counts,
    shard_times: ShardTimes,
    blocked_send_s: f64,
    /// `[offset, local length, global total]` per collection and shard.
    placements: Vec<[u64; 3]>,
    digest: u64,
    checks: Checks,
}

impl PeOut {
    fn new(spec: &Spec) -> Self {
        PeOut {
            setup_s: 0.0,
            wall_s: 0.0,
            batch_us: Vec::with_capacity(spec.measured),
            interval_us: Vec::with_capacity(spec.measured),
            cpu_ns: Vec::with_capacity(spec.measured),
            collect_us: Vec::with_capacity(spec.collections),
            counts: Counts::default(),
            shard_times: ShardTimes::default(),
            blocked_send_s: 0.0,
            placements: Vec::with_capacity(spec.collections * spec.shards),
            digest: 0,
            checks: Checks::default(),
        }
    }

    fn collected(&mut self, handle: &SampleHandle) {
        let t = handle.threshold();
        self.checks.check(
            handle
                .local_items()
                .iter()
                .all(|m| t.is_none_or(|t| m.key <= t)),
        );
        self.placements
            .push([handle.offset(), handle.local_len(), handle.total_len()]);
    }
}

/// Everything a repetition measured, combined over its threads.
#[derive(Default)]
pub struct Rep {
    /// Slowest PE's time from the start of the repetition to the end of
    /// its warm-up: communicator, sampler and warm-up prefix.
    pub setup_s: f64,
    /// Slowest PE's wall time over the measured batches.
    pub wall_s: f64,
    /// Batch latencies, all PEs in rank order.
    pub batch_us: Vec<f64>,
    /// Closed-loop batch intervals, all PEs in rank order.
    pub interval_us: Vec<f64>,
    /// On-CPU nanoseconds of each closed-loop interval, all PEs in rank
    /// order.
    pub cpu_ns: Vec<f64>,
    /// Collection latencies, all PEs.
    pub collect_us: Vec<f64>,
    /// Read latencies.
    pub read_ns: Vec<f64>,
    /// Reads counted, and how many returned an epoch behind the latest.
    pub reads: u64,
    /// See [`Self::reads`].
    pub stale_reads: u64,
    /// Wall time the counted reads spanned.
    pub read_wall_s: f64,
    /// Deterministic counters, summed over PEs.
    pub counts: Counts,
    /// Fleet per-shard phase seconds, summed over PEs.
    pub shard_times: ShardTimes,
    /// Seconds the batcher blocked on its channel, summed over PEs.
    pub blocked_send_s: f64,
    /// Digest of the last collection's sample, over PEs in rank order.
    pub digest: u64,
    /// Checks of this repetition.
    pub checks: Checks,
    /// Peak live heap above the pre-construction baseline (traced only).
    pub heap_peak_bytes: u64,
    /// Per-layer span sums over the PE threads (traced only).
    pub sums: Sums,
    /// The repetition's span tracks (traced only).
    pub tracks: Vec<Track>,
    /// Spans that did not fit their buffers.
    pub dropped_spans: u64,
}

/// One repetition's shared inputs.
pub struct Job<'a> {
    /// The workload shape.
    pub spec: &'a Spec,
    /// The sampler configuration.
    pub cfg: DistConfig,
    /// The generated inputs.
    pub inputs: &'a Inputs,
    /// Added to every expected sample size; nonzero only to prove that a
    /// wrong expectation fails the run.
    pub k_offset: i64,
}

/// Run one repetition, traced or not. A traced repetition also arms the
/// heap counter.
pub fn run_rep(job: &Job, traced: bool, origin: Instant) -> Rep {
    let spec = job.spec;
    let mut outs: Vec<PeOut> = (0..spec.pes).map(|_| PeOut::new(spec)).collect();
    let live = spec.workload == Workload::LiveReads;
    let mut logs: Vec<ReadLog> = (0..spec.pes)
        .map(|pe| match (live, pe) {
            (true, 0) => ReadLog::with_capacity(LIVE_READS_CAP),
            (false, 0) => ReadLog::with_capacity(IDLE_READS / READ_BLOCK),
            _ => ReadLog::with_capacity(0),
        })
        .collect();
    let threads = spec.pes + live as usize;
    let mut recs: Vec<Recorder> = if traced {
        (0..threads)
            .map(|_| Recorder::new(origin, spec.span_capacity()))
            .collect()
    } else {
        Vec::new()
    };
    if traced {
        alloc::arm();
    }
    let t_rep = Instant::now();
    let comms = ThreadComm::create(spec.pes);
    // Each thread owns its track for the repetition: a `&mut` moves into it.
    let split = spec.pes.min(recs.len());
    let (pe_recs, reader_recs) = recs.split_at_mut(split);
    let mut pe_recs = pe_recs.iter_mut();
    let mut reader_rec = reader_recs.first_mut();
    std::thread::scope(|s| {
        for (pe, ((comm, out), log)) in comms.into_iter().zip(&mut outs).zip(&mut logs).enumerate()
        {
            let rec = pe_recs.next();
            let reader_rec = if pe == 0 { reader_rec.take() } else { None };
            s.spawn(move || pe_main(job, comm, out, log, rec.as_deref(), reader_rec, t_rep));
        }
    });
    let mut rep = Rep {
        heap_peak_bytes: if traced { alloc::disarm() } else { 0 },
        ..Rep::default()
    };
    for out in &outs {
        rep.setup_s = rep.setup_s.max(out.setup_s);
        rep.wall_s = rep.wall_s.max(out.wall_s);
        rep.batch_us.extend_from_slice(&out.batch_us);
        rep.interval_us.extend_from_slice(&out.interval_us);
        rep.cpu_ns.extend_from_slice(&out.cpu_ns);
        rep.collect_us.extend_from_slice(&out.collect_us);
        rep.counts.add(&out.counts);
        rep.shard_times.add(&out.shard_times);
        rep.blocked_send_s += out.blocked_send_s;
        rep.digest = mix(rep.digest, out.digest);
        rep.checks.add(&out.checks);
    }
    for log in &logs {
        rep.read_ns.extend_from_slice(&log.ns);
        rep.reads += log.reads;
        rep.stale_reads += log.stale;
        rep.read_wall_s += log.wall_s;
        rep.checks.add(&log.checks);
    }
    check_placements(job, &outs, &mut rep.checks);
    for (tid, rec) in recs.iter().enumerate() {
        rep.sums.add(&rec.sums());
        rep.dropped_spans += rec.dropped();
        rep.tracks.push(Track {
            name: if tid < spec.pes {
                format!("PE {tid}")
            } else {
                "reader".to_string()
            },
            spans: rec.take_spans(),
        });
    }
    rep
}

/// Per collection and shard: the PEs' handle lengths sum to min(k, records
/// seen), every PE agrees on the total, and the offsets tile `0..total` in
/// rank order.
fn check_placements(job: &Job, outs: &[PeOut], checks: &mut Checks) {
    let shards = job.spec.shards;
    for c in 0..job.spec.collections {
        for s in 0..shards {
            let total = outs[0].placements[c * shards + s][2];
            let mut next = 0u64;
            for out in outs {
                let [offset, len, pe_total] = out.placements[c * shards + s];
                checks.check(offset == next);
                checks.check(pe_total == total);
                next += len;
            }
            checks.check(next == total);
            checks.check(next as i64 == job.inputs.expected[s] as i64 + job.k_offset);
        }
    }
}

/// Fold a word into a digest.
pub fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

/// Digest of one handle's members in global output order.
fn digest(handle: &SampleHandle) -> u64 {
    handle.enumerate().fold(0, |h, (pos, m)| {
        [pos, m.id, m.key.to_bits(), m.weight.to_bits()]
            .into_iter()
            .fold(h, mix)
    })
}

fn set_phase(rec: Option<&Recorder>, phase: Phase) {
    if let Some(r) = rec {
        r.set_phase(phase);
    }
}

fn pe_main(
    job: &Job,
    comm: ThreadComm,
    out: &mut PeOut,
    log: &mut ReadLog,
    rec: Option<&Recorder>,
    reader_rec: Option<&mut Recorder>,
    t_rep: Instant,
) {
    match (job.spec.workload, rec) {
        (Workload::TenantFleet, None) => fleet_pe(job, &comm, out, log, None, t_rep),
        (Workload::TenantFleet, Some(r)) => {
            fleet_pe(job, &TracedComm::new(comm, r), out, log, rec, t_rep)
        }
        (_, None) => {
            let mut sampler = DistributedSampler::new(&comm, job.cfg);
            engine_pe(job, &comm, sampler.engine(), out, log, None, None, t_rep)
        }
        (_, Some(r)) => {
            let comm = TracedComm::new(comm, r);
            let backend = TracingBackend::new(CommBackend::new(&comm, &job.cfg), r);
            let mut engine = ReservoirProtocol::new(backend, job.cfg);
            engine_pe(job, &comm, &mut engine, out, log, rec, reader_rec, t_rep)
        }
    }
}

/// How batches reach a PE: straight from the ring, or record by record
/// through an in-thread `Batcher` whose cuts are stepped (or routed) as they
/// come.
enum Feed<'a> {
    Ring {
        ring: &'a [Vec<Item>],
        next: usize,
    },
    Push {
        ring: &'a [Vec<Item>],
        batch: usize,
        pos: usize,
        batcher: Batcher,
        rx: Receiver<MiniBatch>,
    },
}

impl<'a> Feed<'a> {
    fn new(spec: &Spec, ring: &'a [Vec<Item>]) -> Self {
        if matches!(spec.workload, Workload::SmallBatch | Workload::TenantFleet) {
            let (batcher, rx) = Batcher::new(BatchPolicy::by_size(spec.batch), 1);
            Feed::Push {
                ring,
                batch: 0,
                pos: 0,
                batcher,
                rx,
            }
        } else {
            Feed::Ring { ring, next: 0 }
        }
    }

    /// The next batch and the instant it was complete: handed in, or cut
    /// by the batcher.
    fn next(&mut self, rec: Option<&Recorder>) -> (Cow<'a, [Item]>, Instant) {
        match self {
            Feed::Ring { ring, next } => {
                let ring: &'a [Vec<Item>] = ring;
                let items = &ring[*next % ring.len()];
                *next += 1;
                (Cow::Borrowed(items.as_slice()), Instant::now())
            }
            Feed::Push {
                ring,
                batch,
                pos,
                batcher,
                rx,
            } => {
                maybe_time(rec, Kind::Push, ring[*batch].len() as u64, || loop {
                    let src = &ring[*batch];
                    batcher
                        .push(src[*pos])
                        .expect("the receiver lives in this thread");
                    *pos += 1;
                    if *pos == src.len() {
                        *pos = 0;
                        *batch = (*batch + 1) % ring.len();
                    }
                    if batcher.buffered() == 0 {
                        break;
                    }
                });
                let cut = Instant::now();
                let batch = rx.recv().expect("the batcher lives in this thread");
                (Cow::Owned(batch.items), cut)
            }
        }
    }

    fn blocked_send_s(&self) -> f64 {
        match self {
            Feed::Ring { .. } => 0.0,
            Feed::Push { batcher, .. } => batcher.counters().blocked_send_s,
        }
    }
}

/// The measured window's start: communication and collective counters
/// plus the wall clock.
struct Probe {
    stats: CommStats,
    seq: u64,
    t0: Instant,
}

impl Probe {
    /// Reading the collective sequence number consumes one value; every PE
    /// does it at the same point, so collective tags stay aligned.
    fn start<C: Communicator>(comm: &C) -> Self {
        Probe {
            stats: comm.stats(),
            seq: comm.next_collective_seq(),
            t0: Instant::now(),
        }
    }

    fn finish<C: Communicator>(self, comm: &C, out: &mut PeOut) {
        out.wall_s = self.t0.elapsed().as_secs_f64();
        out.counts.launches = comm.next_collective_seq() - self.seq - 1;
        let sent = comm.stats().since(self.stats);
        out.counts.messages = sent.messages;
        out.counts.words = sent.words;
    }
}

/// The closed-loop clock of the measured batches: wall and CPU time at the
/// previous step return, or at the window start.
struct Lap {
    t: Instant,
    cpu_ns: u64,
}

impl Lap {
    fn start() -> Self {
        Lap {
            t: Instant::now(),
            cpu_ns: thread_cpu_ns(),
        }
    }

    /// Record a measured batch whose step just returned; it was complete
    /// (handed in, or cut by the batcher) at `complete`.
    fn record(&mut self, complete: Instant, out: &mut PeOut) {
        let now = Lap::start();
        out.batch_us.push((now.t - complete).as_secs_f64() * 1e6);
        out.interval_us.push((now.t - self.t).as_secs_f64() * 1e6);
        out.cpu_ns
            .push(now.cpu_ns.saturating_sub(self.cpu_ns) as f64);
        *self = now;
    }
}

/// Tells the reader thread when the measured window is open and when to
/// stop; the stop flag is raised on drop, so a panicking PE cannot leave
/// the reader spinning.
#[derive(Default)]
struct ReaderCtl {
    measuring: AtomicBool,
    stop: AtomicBool,
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The `live_reads` reader: `read`, then `verify`, in a closed loop while
/// the PE publishes; each read is timed on its own. Only reads inside the
/// measured window are recorded as spans.
fn read_loop(reader: &SnapshotReader, ctl: &ReaderCtl, log: &mut ReadLog, rec: Option<&Recorder>) {
    let mut window: Option<(Instant, Instant)> = None;
    while !ctl.stop.load(Ordering::Acquire) {
        let measure = ctl.measuring.load(Ordering::Acquire);
        let rec = rec.filter(|_| measure);
        let t = Instant::now();
        let epoch = maybe_time(rec, Kind::Read, 0, || reader.read());
        let ns = t.elapsed().as_nanos() as f64;
        log.check(&epoch, reader.latest_epoch(), measure);
        if measure {
            log.sample(ns);
            let w = window.get_or_insert((t, t));
            w.1 = Instant::now();
        }
    }
    log.wall_s = window.map_or(0.0, |(a, b)| (b - a).as_secs_f64());
}

/// Reads of an idle slot after the stream, on workloads that do not
/// publish while streaming. An idle read takes tens of nanoseconds, so
/// reads are timed in blocks and each sample is a block's mean.
fn idle_reads(reader: &SnapshotReader, log: &mut ReadLog, rec: Option<&Recorder>) {
    let t0 = Instant::now();
    for _ in 0..IDLE_READS / READ_BLOCK {
        let t = Instant::now();
        let epochs: [Arc<SampleEpoch>; READ_BLOCK] =
            std::array::from_fn(|_| maybe_time(rec, Kind::Read, 0, || reader.read()));
        log.sample(t.elapsed().as_nanos() as f64 / READ_BLOCK as f64);
        for epoch in &epochs {
            log.check(epoch, reader.latest_epoch(), true);
        }
    }
    log.wall_s = t0.elapsed().as_secs_f64();
}

#[allow(clippy::too_many_arguments)]
fn engine_pe<B: SamplerBackend, C: Communicator>(
    job: &Job,
    comm: &C,
    engine: &mut ReservoirProtocol<B>,
    out: &mut PeOut,
    log: &mut ReadLog,
    rec: Option<&Recorder>,
    reader_rec: Option<&mut Recorder>,
    t_rep: Instant,
) {
    let spec = job.spec;
    let mut feed = Feed::new(spec, &job.inputs.rings[comm.rank()]);
    let ctl = ReaderCtl::default();
    let reader = engine.snapshot_reader();
    let (reader_ref, ctl_ref, reader_log) = (&reader, &ctl, &mut *log);
    std::thread::scope(|s| {
        let _stop = StopOnDrop(&ctl.stop);
        if spec.workload == Workload::LiveReads {
            s.spawn(move || read_loop(reader_ref, ctl_ref, reader_log, reader_rec.as_deref()));
        }
        for _ in 0..spec.warmup {
            let (items, _) = feed.next(rec);
            engine.step(&items);
        }
        comm.barrier();
        out.setup_s = t_rep.elapsed().as_secs_f64();
        set_phase(rec, Phase::Batch);
        ctl.measuring.store(true, Ordering::Release);
        let blocked0 = feed.blocked_send_s();
        let probe = Probe::start(comm);
        let mut lap = Lap::start();
        for _ in 0..spec.measured {
            let (items, complete) = feed.next(rec);
            let report = maybe_time(rec, Kind::Step, items.len() as u64, || engine.step(&items));
            lap.record(complete, out);
            out.counts.add_report(&report);
        }
        probe.finish(comm, out);
        ctl.measuring.store(false, Ordering::Release);
        out.blocked_send_s = feed.blocked_send_s() - blocked0;
    });
    set_phase(rec, Phase::Collect);
    for _ in 0..spec.collections {
        let t = Instant::now();
        let (handle, _, _) = maybe_time(rec, Kind::Collect, 0, || engine.collect_output());
        out.collect_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.collected(&handle);
        out.digest = digest(&handle);
    }
    set_phase(rec, Phase::Other);
    if spec.workload != Workload::LiveReads && comm.rank() == 0 {
        idle_reads(&reader, log, rec);
    }
}

fn fleet_pe<C: Communicator>(
    job: &Job,
    comm: &C,
    out: &mut PeOut,
    log: &mut ReadLog,
    rec: Option<&Recorder>,
    t_rep: Instant,
) {
    let spec = job.spec;
    let mut feed = Feed::new(spec, &job.inputs.rings[comm.rank()]);
    let router = router(spec);
    let mut sampler = ShardedSampler::new(comm, job.cfg, spec.shards).with_sparse_skip(true);
    let mut buckets: Vec<Vec<Item>> = vec![Vec::new(); spec.shards];
    let route = |items: &[Item], buckets: &mut [Vec<Item>]| {
        for b in buckets.iter_mut() {
            b.clear();
        }
        router.route_into(items.iter().copied(), buckets);
    };
    for _ in 0..spec.warmup {
        let (items, _) = feed.next(rec);
        route(&items, &mut buckets);
        sampler.process_batch(&buckets);
    }
    comm.barrier();
    out.setup_s = t_rep.elapsed().as_secs_f64();
    set_phase(rec, Phase::Batch);
    let blocked0 = feed.blocked_send_s();
    let probe = Probe::start(comm);
    let mut lap = Lap::start();
    for _ in 0..spec.measured {
        let (items, complete) = feed.next(rec);
        maybe_time(rec, Kind::Route, spec.batch as u64, || {
            route(&items, &mut buckets)
        });
        let report = maybe_time(rec, Kind::Process, spec.shards as u64, || {
            sampler.process_batch(&buckets)
        });
        lap.record(complete, out);
        add_fleet_report(&mut out.counts, &mut out.shard_times, &report);
    }
    probe.finish(comm, out);
    out.blocked_send_s = feed.blocked_send_s() - blocked0;
    set_phase(rec, Phase::Collect);
    for _ in 0..spec.collections {
        let t = Instant::now();
        let handles = maybe_time(rec, Kind::Collect, 0, || sampler.collect_output());
        out.collect_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.digest = 0;
        for handle in &handles {
            out.collected(handle);
            out.digest = mix(out.digest, digest(handle));
        }
    }
    set_phase(rec, Phase::Other);
    if comm.rank() == 0 {
        idle_reads(&sampler.snapshot_reader(0), log, rec);
    }
}
