//! Parallel local-scan scaling through the **engine API**: real (not
//! simulated) throughput of a single-PE `ReservoirProtocol<CommBackend>`
//! batch step over 1..=8 scan threads, against a bare one-worker
//! `LocalReservoir` scan (the inline chunk kernels), on this machine —
//! the path every production batch takes, not a bare reservoir
//! micro-loop. Every width above one runs its multi-chunk batches on the
//! PE's worker crew.
//!
//! Emits a human-readable table on stdout and a machine-readable
//! `BENCH_par_scan.json` (override the path with `RESERVOIR_BENCH_OUT`) —
//! the recorded perf trajectory CI uploads as a non-gating artifact. Each
//! sweep row keeps the pre-engine fields `items_per_s`, `speedup_vs_seq`,
//! `modeled_speedup` and `worker_imbalance`, so the trajectory stays
//! comparable. Honours `RESERVOIR_BENCH_QUICK=1` for a reduced batch
//! size.

use std::fmt::Write as _;
use std::time::Instant;

use reservoir_bench::calibrate;
use reservoir_core::dist::engine::ReservoirProtocol;
use reservoir_core::dist::local::{LocalReservoir, DEFAULT_CHUNK_ITEMS};
use reservoir_core::dist::sim::LocalCostModel;
use reservoir_core::dist::threaded::CommBackend;
use reservoir_core::dist::DistConfig;
use reservoir_par::Pool;
use reservoir_rng::{default_rng, Rng64};
use reservoir_stream::Item;

/// A tiny sample size keeps the engine's per-batch collectives (count +
/// occasional selection on one PE) negligible against the jump scan —
/// the paper's long-stream regime, now measured through the real step
/// sequence.
const K: usize = 8;
const MAX_THREADS: usize = 8;

struct Sweep {
    threads: usize,
    items_per_s: f64,
    speedup_vs_seq: f64,
    worker_imbalance: f64,
}

fn time_reps(mut f: impl FnMut(), reps: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    // Arm observability so the emitted JSON carries the run's full
    // metrics snapshot next to the measured sweep.
    reservoir_obs::set_enabled(true);
    let quick = std::env::var_os("RESERVOIR_BENCH_QUICK").is_some();
    let b: u64 = if quick { 500_000 } else { 4_000_000 };
    let reps: u32 = if quick { 3 } else { 5 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!("calibrating local cost model (for the modeled-speedup column)...");
    let costs = calibrate(quick);

    let mut rng = default_rng(0xBA5E);
    let items: Vec<Item> = (0..b)
        .map(|i| Item::new(i, rng.rand_oc() * 100.0))
        .collect();

    // Baseline: a bare one-worker LocalReservoir scan, outside the
    // engine (the inline chunk kernels every width shares).
    let mut seq = LocalReservoir::new(K, 32, Pool::new(1), 1);
    let _ = seq.process_weighted(&items, Some(1e-6));
    let seq_s = time_reps(
        || {
            let _ = seq.process_weighted(&items, Some(1e-6));
        },
        reps,
    );
    let baseline = b as f64 / seq_s;

    let mut sweep = Vec::new();
    for threads in 1..=MAX_THREADS {
        // One PE over the engine: every measured batch runs the full
        // insert_scan → count → select_prune step.
        let items_ref = &items;
        let result = reservoir_comm::run_threads(1, move |comm| {
            let cfg = DistConfig::weighted(K, 1).with_threads(threads);
            let mut engine = ReservoirProtocol::new(CommBackend::new(&comm, &cfg), cfg);
            // Warm up: establishes the threshold and wakes the crew.
            let _ = engine.step(items_ref);
            let mut max_busy = 0.0f64;
            let mut sum_busy = 0.0f64;
            let per = time_reps(
                || {
                    let _ = engine.step(items_ref);
                    if let Some(par) = engine.backend().last_par_scan() {
                        max_busy += par.max_busy_s();
                        sum_busy += par.total_busy_s();
                    }
                },
                reps,
            );
            (per, max_busy, sum_busy)
        });
        let (per, max_busy, sum_busy) = result[0];
        let items_per_s = b as f64 / per;
        sweep.push(Sweep {
            threads,
            items_per_s,
            speedup_vs_seq: items_per_s / baseline,
            // max/mean worker busy time: 1.0 = perfectly balanced. One
            // worker (the inline scan, which reports no per-worker
            // breakdown) is trivially balanced.
            worker_imbalance: if threads == 1 || sum_busy <= 0.0 {
                1.0
            } else {
                max_busy / (sum_busy / threads as f64)
            },
        });
    }

    // --- stdout table ---------------------------------------------------
    println!("### fig_par_scaling — engine batch step, weighted, b = {b}, k = {K}");
    println!(
        "host cores: {cores}; one-worker reservoir baseline: {:.3e} items/s; \
         calibrated serial fraction: {:.3}",
        baseline, costs.par_serial_frac
    );
    println!("\n| threads | items/s | speedup vs seq | modeled | imbalance |");
    println!("|---|---|---|---|---|");
    for s in &sweep {
        println!(
            "| {} | {:.3e} | {:.2}x | {:.2}x | {:.2} |",
            s.threads,
            s.items_per_s,
            s.speedup_vs_seq,
            costs.scan_speedup(s.threads as u64),
            s.worker_imbalance,
        );
    }

    // --- machine-readable trajectory ------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"par_scan\",");
    let _ = writeln!(json, "  \"driver\": \"engine\",");
    let _ = writeln!(json, "  \"mode\": \"weighted\",");
    let _ = writeln!(json, "  \"batch_items\": {b},");
    let _ = writeln!(json, "  \"sample_k\": {K},");
    let _ = writeln!(json, "  \"chunk_items\": {DEFAULT_CHUNK_ITEMS},");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"baseline_seq_items_per_s\": {:.6e},", baseline);
    let _ = writeln!(
        json,
        "  \"calibrated_serial_frac\": {:.6},",
        costs.par_serial_frac
    );
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, s) in sweep.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"items_per_s\": {:.6e}, \
             \"speedup_vs_seq\": {:.4}, \"modeled_speedup\": {:.4}, \
             \"worker_imbalance\": {:.4}}}{}",
            s.threads,
            s.items_per_s,
            s.speedup_vs_seq,
            costs.scan_speedup(s.threads as u64),
            s.worker_imbalance,
            if i + 1 < sweep.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"obs\": {}",
        reservoir_obs::global().reader().json()
    );
    let _ = writeln!(json, "}}");

    let out = std::env::var("RESERVOIR_BENCH_OUT").unwrap_or_else(|_| "BENCH_par_scan.json".into());
    std::fs::write(&out, &json).expect("write BENCH_par_scan.json");
    eprintln!("wrote {out}");
}
