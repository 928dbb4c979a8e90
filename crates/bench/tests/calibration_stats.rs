//! Calibrated-vs-analytic cost-model comparison (CI stats job).
//!
//! The cluster simulator charges local work through a [`LocalCostModel`];
//! two implementations exist — `calibrate()`'s measured fit of *this*
//! machine, and the hardware-independent [`AnalyticLocalCosts`] defaults
//! the tests and the golden grid use. This suite keeps the two honest:
//!
//! * **predictive** — the measured fit must predict a fresh, independent
//!   measurement of the dominant operation (the weighted jump scan) on
//!   the same machine within a documented factor;
//! * **analytic** — every per-operation analytic constant must agree with
//!   the measured one within a documented tolerance of **two orders of
//!   magnitude** (|log₁₀ residual| ≤ 2), a bound loose enough for any
//!   plausible CPU yet tight enough to catch a misplaced exponent in
//!   either model;
//! * **artifact** — the full per-operation residual table is written to
//!   `target/calibration/residuals.tsv`, which CI uploads as a
//!   non-gating artifact so the fit's drift across runner generations
//!   stays visible.
//!
//! Gated behind the `stats` feature (timing-sensitive; meaningless in
//! debug builds): `cargo test --release -p reservoir-bench --features
//! stats -- stats_`.

#![cfg(feature = "stats")]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use reservoir_bench::calibrate;
use reservoir_core::dist::local::LocalReservoir;
use reservoir_core::dist::sim::{AnalyticLocalCosts, LocalCostModel};
use reservoir_par::Pool;
use reservoir_rng::{default_rng, Rng64};
use reservoir_stream::Item;

/// The measured fit must predict an independent re-measurement within
/// this factor (same machine, same operation — the slack absorbs cache
/// state, CPU-quota throttling and turbo wobble on shared runners).
const PREDICTIVE_FACTOR: f64 = 5.0;

/// Documented analytic-vs-measured tolerance: two orders of magnitude.
const ANALYTIC_LOG10_TOL: f64 = 2.0;

fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/calibration");
    fs::create_dir_all(&dir).expect("create target/calibration");
    dir
}

#[test]
fn stats_calibrated_fit_predicts_an_independent_scan_measurement() {
    let costs = calibrate(true);
    // Fresh probe, different seed and size than any calibration point.
    let b = 250_000u64;
    let mut rng = default_rng(0x5EED);
    let items: Vec<Item> = (0..b)
        .map(|i| Item::new(i, rng.rand_oc() * 100.0))
        .collect();
    let mut reservoir = LocalReservoir::new(8, 32, Pool::new(1), 9);
    let _ = reservoir.process_weighted(&items, Some(1e-7)); // warm-up
    let reps = 5;
    let start = Instant::now();
    for _ in 0..reps {
        let _ = reservoir.process_weighted(&items, Some(1e-7));
    }
    let measured = start.elapsed().as_secs_f64() / reps as f64;
    let predicted = costs.scan_weighted(b);
    let ratio = predicted / measured;
    assert!(
        (1.0 / PREDICTIVE_FACTOR..=PREDICTIVE_FACTOR).contains(&ratio),
        "calibrated fit predicts {predicted:.3e}s for a {b}-item weighted scan, \
         but an independent measurement took {measured:.3e}s (ratio {ratio:.2}, \
         tolerance {PREDICTIVE_FACTOR}x)"
    );
}

#[test]
fn stats_analytic_costs_within_two_orders_of_calibrated_fit() {
    let measured = calibrate(true);
    let analytic = AnalyticLocalCosts::default();

    // Per-operation comparison points: evaluate both models on the same
    // representative operation sizes (per-item / per-op rates).
    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "scan_weighted_per_item@100k",
            measured.scan_weighted(100_000) / 100_000.0,
            analytic.scan_weighted(100_000) / 100_000.0,
        ),
        (
            "tree_insert_per_op@tree=10k",
            measured.tree_inserts(1_000, 10_000) / 1_000.0,
            analytic.tree_inserts(1_000, 10_000) / 1_000.0,
        ),
        (
            "keygen_per_key",
            measured.keygen(100_000) / 100_000.0,
            analytic.keygen(100_000) / 100_000.0,
        ),
        (
            "quickselect_per_elem",
            measured.quickselect(100_000) / 100_000.0,
            analytic.quickselect(100_000) / 100_000.0,
        ),
        (
            "select_round_local@tree=10k,d=8",
            measured.select_round_local(10_000, 8),
            analytic.select_round_local(10_000, 8),
        ),
    ];

    let mut table = String::from("# calibrated-vs-analytic residuals\n");
    let _ = writeln!(table, "# op\tmeasured_s\tanalytic_s\tlog10_residual");
    let mut worst: Option<(&str, f64)> = None;
    for (op, m, a) in &rows {
        let residual = (m / a).log10();
        let _ = writeln!(table, "{op}\t{m:.6e}\t{a:.6e}\t{residual:+.3}");
        if worst.is_none_or(|(_, w)| residual.abs() > w.abs()) {
            worst = Some((op, residual));
        }
    }
    // Speedup-model comparison rides along in the artifact (it is a
    // ratio, not a rate — compared directly, not via the tolerance).
    let _ = writeln!(
        table,
        "scan_speedup@4t\t{:.4}\t{:.4}\t{:+.3}",
        measured.scan_speedup(4),
        analytic.scan_speedup(4),
        (measured.scan_speedup(4) / analytic.scan_speedup(4)).log10()
    );
    fs::write(artifact_dir().join("residuals.tsv"), &table).expect("write residuals artifact");
    eprintln!("{table}");

    let (op, residual) = worst.expect("nonempty comparison");
    assert!(
        residual.abs() <= ANALYTIC_LOG10_TOL,
        "analytic model for {op} is {residual:+.2} orders of magnitude off the \
         measured fit (documented tolerance ±{ANALYTIC_LOG10_TOL}); residual \
         table written to target/calibration/residuals.tsv:\n{table}"
    );
}

#[test]
fn stats_measured_and_analytic_agree_on_the_simulated_batch_shape() {
    // End-to-end guard: a simulated experiment priced by the measured fit
    // must land within the same two orders of magnitude of the
    // analytic-priced one — the grids CI pins with AnalyticLocalCosts
    // stay meaningful on real hardware.
    use reservoir_bench::harness::{run_sim_experiment, sim_config};
    use reservoir_comm::CostModel;
    use reservoir_core::dist::sim::SimAlgo;

    let measured = calibrate(true);
    let cfg = sim_config(1, 10_000, 100_000, SimAlgo::Ours { pivots: 8 }, 7);
    let net = CostModel::infiniband_edr();
    let with_measured = run_sim_experiment(cfg, net, measured, 0.05, 50);
    let with_analytic = run_sim_experiment(cfg, net, AnalyticLocalCosts::default(), 0.05, 50);
    let ratio = (with_measured.per_batch_s / with_analytic.per_batch_s).log10();
    let mut line = String::new();
    let _ = writeln!(
        line,
        "sim_per_batch_s\t{:.6e}\t{:.6e}\t{ratio:+.3}",
        with_measured.per_batch_s, with_analytic.per_batch_s
    );
    let path = artifact_dir().join("sim_batch_residual.tsv");
    fs::write(&path, &line).expect("write sim residual artifact");
    assert!(
        ratio.abs() <= ANALYTIC_LOG10_TOL,
        "measured-fit simulation is {ratio:+.2} orders of magnitude off the \
         analytic one ({line})"
    );
}
