//! The repository benchmark: drives the threaded sampler through its public
//! API on one named workload and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk_stream|small_batch|live_reads|tenant_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload's fixed work for
//! `--seconds` and reports the end-to-end metrics. A traced run
//! (`--trace 1`) times every layer call from outside the library, reports
//! the per-layer metrics and writes the spans of its last repetition as
//! Chrome Trace Event JSON under `perfbench/out/`. Either run ends with one
//! repetition in the other mode: its sample and deterministic counters must
//! match, and the untraced/traced throughput ratio is the tracing overhead.
//! The last line of standard output is one JSON object; any failed check
//! makes the exit code nonzero.

mod alloc;
mod stats;
mod trace;
mod workload;

use std::sync::mpsc;
use std::time::{Duration, Instant};

use reservoir::comm::CostModel;
use reservoir::dist::sim::{AnalyticLocalCosts, SimAlgo, SimCluster, SimConfig};
use reservoir::dist::{ContinuousMode, DistConfig, SamplingMode};

use stats::{median, quantile, ratio};
use trace::{Kind, Phase};
use workload::{run_rep, Checks, Job, Rep, Spec, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Repetitions per run at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// A run that is still going after this long has a wedged PE.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    k_offset: i64,
}

const USAGE: &str =
    "usage: perfbench --workload <bulk_stream|small_batch|live_reads|tenant_fleet> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--check-k-offset <n>]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut k_offset) =
        (None, None, 10.0, false, 0);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            // Shifts every expected sample size, to prove that a wrong
            // expectation fails the run.
            "--check-k-offset" => k_offset = value.parse::<i64>().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        k_offset,
    })
}

fn main() {
    // The first touch of the observability gate wins over RESERVOIR_OBS,
    // so the metrics registry stays disarmed in every run.
    reservoir::obs::set_enabled(false);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (stop, stopped) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(WATCHDOG) {
            eprintln!("perfbench: no result after {WATCHDOG:?}; a PE is wedged");
            std::process::exit(3);
        }
    });
    let code = run(&args);
    drop(stop);
    watchdog.join().expect("watchdog thread panicked");
    std::process::exit(code);
}

/// One metric line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> i32 {
    let spec = args.workload.spec();
    let cfg = spec.config(args.seed);
    let steal0 = stats::steal_ticks();
    let speed0 = stats::host_ns_per_step();
    let t_gen = Instant::now();
    let inputs = workload::generate(&spec, args.seed);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let job = Job {
        spec: &spec,
        cfg,
        inputs: &inputs,
        k_offset: args.k_offset,
    };
    println!(
        "perfbench workload={} seed={} trace={} seconds={}",
        spec.workload.name(),
        args.seed,
        args.trace as u8,
        args.seconds
    );
    print_knobs(&spec, &cfg);
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("RESERVOIR_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if !env.is_empty() {
        println!("env (overridden by the knobs above): {}", env.join(" "));
    }
    println!(
        "inputs: {} PE ring(s) of {} batches x {} records, generated in {gen_s:.3} s",
        spec.pes, spec.ring, spec.batch
    );

    let origin = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut tracks = Vec::new();
    while reps.len() < MIN_REPS || origin.elapsed().as_secs_f64() < args.seconds {
        let mut rep = run_rep(&job, args.trace, origin);
        tracks = std::mem::take(&mut rep.tracks);
        reps.push(rep);
    }
    let other = run_rep(&job, !args.trace, origin);

    let mut checks = Checks::default();
    for rep in reps.iter().chain([&other]) {
        checks.add(&rep.checks);
        checks.check(rep.digest == reps[0].digest);
        checks.check(rep.counts == reps[0].counts);
    }

    let rate = |r: &Rep| spec.measured_records() as f64 / (spec.pes as f64 * r.wall_s);
    let rates: Vec<f64> = reps.iter().map(rate).collect();
    let overhead = if args.trace {
        rate(&other) / median(&rates) - 1.0
    } else {
        median(&rates) / rate(&other) - 1.0
    };
    let metrics = if args.trace {
        per_layer(&spec, &reps)
    } else {
        end_to_end(&spec, &reps, &other)
    };
    for (name, value, unit) in &metrics {
        checks.check(value.is_finite());
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let mut batch_us: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.batch_us.iter().copied())
        .collect();
    println!(
        "  {:<28} {:>16.6} us (n={}, not gated)",
        "batch_p99_us",
        quantile(&mut batch_us, 0.99),
        batch_us.len()
    );

    let mut sorted = rates.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    println!(
        "diag: records_per_s_per_pe of single repetitions: min={:.4e} median={:.4e} max={:.4e}",
        sorted[0],
        median(&sorted),
        sorted[sorted.len() - 1]
    );
    println!(
        "diag: sample_digest={:016x} (identical in every repetition of both modes)",
        reps[0].digest
    );
    println!(
        "diag: reps={} error_rate={} ({} of {} checks failed)",
        reps.len(),
        ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    println!(
        "diag: trace_overhead={:+.1}% (traced vs untraced records/s/PE, same process)",
        overhead * 100.0
    );
    let heap = if args.trace { &reps[0] } else { &other };
    println!(
        "diag: heap_peak_mb={:.4} (counted in a traced repetition)",
        heap.heap_peak_bytes as f64 / (1u64 << 20) as f64
    );
    if matches!(spec.workload, Workload::BulkStream | Workload::SmallBatch) {
        let c = &reps[0].counts;
        println!(
            "diag: sim.rounds_per_select={:.4} select.rounds_per_select={:.4} (not gated)",
            sim_rounds_per_select(&spec, args.seed),
            ratio(c.rounds as f64, c.selects as f64)
        );
    }
    if args.trace {
        let dropped: u64 = reps.iter().map(|r| r.dropped_spans).sum();
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.json",
            spec.workload.name(),
            args.seed
        ));
        match trace::write_chrome(&path, &tracks) {
            Ok(()) => println!(
                "diag: spans of the last repetition in {} ({dropped} dropped)",
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                checks.check(false);
            }
        }
    }
    println!(
        "diag: host_steal_s={:.2} host_ns_per_step={speed0:.4}..{:.4} available_parallelism={}",
        (stats::steal_ticks() - steal0) as f64 / 100.0,
        stats::host_ns_per_step(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("{}", json_line(&checks, &metrics));
    if checks.failed == 0 {
        0
    } else {
        1
    }
}

fn print_knobs(spec: &Spec, cfg: &DistConfig) {
    println!(
        "knobs: pes={} k={} shards={} threads_per_pe={} merge={:?} persistent_pool={} \
         leaf_affinity={} pivots={} continuous={:?} size_window={:?} sparse_skip=true obs={}",
        spec.pes,
        cfg.k,
        spec.shards,
        cfg.threads_per_pe,
        cfg.merge,
        cfg.persistent_pool,
        cfg.leaf_affinity,
        cfg.pivots,
        cfg.continuous,
        cfg.size_window,
        reservoir::obs::enabled()
    );
}

/// The end-to-end metrics, from the untraced repetitions; the heap peak
/// comes from the traced one, where the counter is armed.
///
/// Every repetition runs the same work, and host interference (CPU steal,
/// slow wake-ups of an idle vCPU, neighbours on the shared cores, cache and
/// memory bus) only ever adds time, often for seconds at a stretch. So each
/// timing is the fastest the run saw: for every position of a repetition's
/// series (a batch's latency, interval and CPU time, a collection) the
/// minimum over the repetitions, which keeps the positions' own spread of
/// work. Set-up is the fastest repetition's, and read latencies come from a
/// fast repetition (below). Lower quartiles and deciles in place of the
/// minimum moved as much or more with the host's load from run to run.
fn end_to_end(spec: &Spec, reps: &[Rep], traced: &Rep) -> Vec<Metric> {
    let p = spec.pes as f64;
    let (mut batch, mut collect) = (
        per_position(reps, |r| &r.batch_us),
        per_position(reps, |r| &r.collect_us),
    );
    // Reads are not aligned between repetitions, and the slow ones that
    // raced a publication belong in the figure: each repetition's own
    // quantile, from a fast repetition. The very fastest swung between runs
    // with how the reader and the publishing PE happened to line up, so it
    // is the first decile over the repetitions.
    let read = |q: f64| {
        let mut per_rep: Vec<f64> = reps
            .iter()
            .map(|r| quantile(&mut r.read_ns.clone(), q))
            .collect();
        quantile(&mut per_rep, 0.1)
    };
    let records = spec.measured_records() as f64;
    // The slowest PE's wall time over the per-position batch intervals.
    let wall_us = per_position(reps, |r| &r.interval_us)
        .chunks(spec.measured)
        .map(|pe| pe.iter().sum::<f64>())
        .fold(0.0, f64::max);
    vec![
        (
            "records_per_s_per_pe",
            records / (p * wall_us * 1e-6),
            "records/s",
        ),
        ("batch_p50_us", quantile(&mut batch, 0.5), "us"),
        ("batch_p90_us", quantile(&mut batch, 0.9), "us"),
        ("collect_p50_us", quantile(&mut collect, 0.5), "us"),
        ("read_p50_ns", read(0.5), "ns"),
        ("read_p90_ns", read(0.9), "ns"),
        (
            "collectives_per_batch",
            reps[0].counts.launches as f64 / (p * spec.measured as f64),
            "launches",
        ),
        (
            "cpu_ns_per_record",
            per_position(reps, |r| &r.cpu_ns).iter().sum::<f64>() / records,
            "ns",
        ),
        (
            "heap_peak_mb",
            traced.heap_peak_bytes as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
        ("setup_s", fastest(reps, |r| r.setup_s), "s"),
    ]
}

/// For each position of a repetition's series (a batch or a collection),
/// the minimum of its times over the repetitions.
fn per_position(reps: &[Rep], f: fn(&Rep) -> &Vec<f64>) -> Vec<f64> {
    (0..f(&reps[0]).len())
        .map(|j| fastest(reps, |r| f(r)[j]))
        .collect()
}

/// The smallest value of `f` over the repetitions.
fn fastest(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    reps.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The per-layer metrics, from the traced repetitions. Times are means per
/// PE per measured batch, so a step's layers add up to the step; output
/// times are means per output sequence (a collection, or a per-batch
/// publication). Layers a workload does not reach read 0. The fleet's shard
/// engines are private: on `tenant_fleet` the local and select figures come
/// from the per-shard `BatchReport`s (so `local.insert_us` equals
/// `sharded.scan_us`), and engine, count, prune and output read 0.
fn per_layer(spec: &Spec, reps: &[Rep]) -> Vec<Metric> {
    let mut sums = trace::Sums::default();
    let mut counts = workload::Counts::default();
    let mut shard = workload::ShardTimes::default();
    let (mut reads, mut read_wall, mut stale, mut blocked) = (0u64, 0.0, 0u64, 0.0);
    for r in reps {
        sums.add(&r.sums);
        counts.add(&r.counts);
        shard.add(&r.shard_times);
        reads += r.reads;
        read_wall += r.read_wall_s;
        stale += r.stale_reads;
        blocked += r.blocked_send_s;
    }
    let mut read_ns: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.read_ns.iter().copied())
        .collect();
    let n = reps.len() as f64;
    let batches = n * (spec.pes * spec.measured) as f64;
    let records = n * spec.measured_records() as f64;
    let us = |secs: f64| secs * 1e6 / batches;
    let batch = |k: Kind| sums.secs(Phase::Batch, k);
    let children: f64 = [
        Kind::Insert,
        Kind::Count,
        Kind::Select,
        Kind::Prune,
        Kind::Finalize,
        Kind::Extract,
        Kind::Place,
    ]
    .into_iter()
    .map(batch)
    .sum();
    let fleet = spec.workload == Workload::TenantFleet;
    let (insert_s, select_s) = if fleet {
        (shard.insert_s, shard.select_s)
    } else {
        (batch(Kind::Insert), batch(Kind::Select))
    };
    let sequences = sums.measured_calls(Kind::Place) as f64;
    let per_seq = |k: Kind| ratio(sums.measured_secs(k) * 1e6, sequences);
    let per_batch = |c: u64| c as f64 / batches;
    vec![
        (
            "ingest.push_ns_per_record",
            batch(Kind::Push) * 1e9 / records,
            "ns",
        ),
        (
            "ingest.blocked_send_s",
            blocked / (n * spec.pes as f64),
            "s",
        ),
        ("route.route_us", us(batch(Kind::Route)), "us"),
        ("engine.step_us", us(batch(Kind::Step)), "us"),
        (
            "engine.self_us",
            us(batch(Kind::Step) - children).max(0.0),
            "us",
        ),
        ("local.insert_us", us(insert_s), "us"),
        ("local.ns_per_record", insert_s * 1e9 / records, "ns"),
        (
            "local.inserted_per_batch",
            per_batch(counts.inserted),
            "count",
        ),
        ("local.jumps_per_batch", per_batch(counts.jumps), "count"),
        ("select.select_us", us(select_s), "us"),
        (
            "select.rounds_per_select",
            ratio(counts.rounds as f64, counts.selects as f64),
            "rounds",
        ),
        (
            "select.selects_per_batch",
            per_batch(counts.selects),
            "count",
        ),
        ("comm.recv_wait_us", us(batch(Kind::Recv)), "us"),
        ("comm.count_us", us(batch(Kind::Count)), "us"),
        (
            "comm.messages_per_batch",
            per_batch(counts.messages),
            "count",
        ),
        ("comm.words_per_batch", per_batch(counts.words), "words"),
        ("btree.prune_us", us(batch(Kind::Prune)), "us"),
        ("output.finalize_us", per_seq(Kind::Finalize), "us"),
        ("output.extract_us", per_seq(Kind::Extract), "us"),
        ("output.place_us", per_seq(Kind::Place), "us"),
        (
            "snapshot.reads_per_s",
            ratio(reads as f64, read_wall),
            "1/s",
        ),
        ("snapshot.read_p99_ns", quantile(&mut read_ns, 0.99), "ns"),
        ("snapshot.stale_reads", stale as f64 / n, "count"),
        ("sharded.process_us", us(batch(Kind::Process)), "us"),
        (
            "sharded.scan_us",
            if fleet { us(shard.insert_s) } else { 0.0 },
            "us",
        ),
        (
            "sharded.self_us",
            if fleet {
                us(batch(Kind::Process) - shard.total_s).max(0.0)
            } else {
                0.0
            },
            "us",
        ),
        (
            "sharded.shards_skipped",
            per_batch(counts.shards_skipped),
            "count",
        ),
        (
            "sharded.shards_selected",
            if fleet {
                per_batch(counts.selects)
            } else {
                0.0
            },
            "count",
        ),
        (
            "sharded.joint_rounds",
            per_batch(counts.joint_rounds),
            "rounds",
        ),
        (
            "sharded.solo_rounds",
            if fleet { per_batch(counts.rounds) } else { 0.0 },
            "rounds",
        ),
    ]
}

/// Selection rounds per selection that the cluster simulator predicts for
/// the same p, k, b, seed and batch count (a diagnostic, not gated).
fn sim_rounds_per_select(spec: &Spec, seed: u64) -> f64 {
    let cfg = SimConfig::new(
        spec.pes,
        spec.k,
        spec.batch as u64,
        SamplingMode::Weighted,
        SimAlgo::Ours { pivots: 1 },
        seed,
    )
    .with_continuous(ContinuousMode::Disabled);
    let mut sim = SimCluster::new(cfg, CostModel::default(), AnalyticLocalCosts::default());
    let (mut rounds, mut selects) = (0u64, 0u64);
    for i in 0..spec.warmup + spec.measured {
        let r = sim.process_batch();
        if i >= spec.warmup && r.rounds > 0 {
            rounds += r.rounds as u64;
            selects += 1;
        }
    }
    ratio(rounds as f64, selects as f64)
}

fn json_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}
