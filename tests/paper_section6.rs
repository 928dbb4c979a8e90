//! The paper's evaluation (Section 6: Figures 3–6 and the Section 6.3
//! recursion-depth table) reproduced on `SimCluster` and pinned as one
//! golden table, `tests/golden/paper_section6.tsv`.
//!
//! Every row is one simulated run: 20 PEs per node as on ForHLR II, the
//! paper's weighted workload (weights uniform on (0, 100]),
//! `AnalyticLocalCosts`, the InfiniBand EDR α–β model, no continuous
//! publication and a fixed horizon of 2,000 batches. The paper instead
//! averages over a 30 s wall-clock window; a fixed horizon makes the d=1
//! and d=8 runs cover the same batches, which matters because selection
//! depth falls with the batch index (see the depth columns, and the
//! "Section 6 reproduction" notes in `DESIGN.md`). The grid:
//!
//! * weak scaling at b = 10⁵ items per PE and strong scaling at
//!   B = 1024·10⁵ items per batch, each on {1, 16, 256} nodes ×
//!   k ∈ {10³, 10⁵} × {ours, ours-8, gather} (Figures 3–6);
//! * depth runs on 256 nodes at b = 10⁶ with k ∈ {10³, 10⁴, 10⁵} and
//!   d ∈ {1, 8} (the Section 6.3 table).
//!
//! The figures are derived from the raw rows: Figure 3 from the weak runs,
//! Figures 4 and 5 from the strong runs, Figure 6 from the weak k = 10⁵
//! runs. The whole grid takes minutes in a debug build, so the full
//! comparison is a `stats_` test (`cargo test --release --features stats
//! -- stats_`); the default suite recomputes the rows at k = 10³ on at
//! most 16 nodes and asserts the paper's shape claims on the committed
//! table. Re-baseline after an intentional model or protocol change with
//!
//! ```text
//! UPDATE_SIM_GOLDEN=1 cargo test --release --features stats --test paper_section6 -- stats_
//! ```

use std::fmt::Write as _;

use reservoir::comm::CostModel;
use reservoir::dist::sim::{AnalyticLocalCosts, SimAlgo, SimCluster, SimConfig};
use reservoir::dist::SamplingMode;
use reservoir::metrics::PhaseTimes;

#[path = "common/golden.rs"]
mod golden;
use golden::{Golden, Tol};

const SEED: u64 = 42;
const BATCHES: u64 = 2_000;
/// PEs (MPI ranks) per node on the paper's machine.
const PES_PER_NODE: usize = 20;
const NODES: [usize; 3] = [1, 16, 256];
const ALGOS: [SimAlgo; 3] = [
    SimAlgo::Ours { pivots: 1 },
    SimAlgo::Ours { pivots: 8 },
    SimAlgo::Gather,
];
/// Batch-index buckets (1-based, inclusive) of the depth columns. Batch 1
/// fills the reservoirs, so the buckets start at batch 2.
const BUCKETS: [(u64, u64); 4] = [(2, 10), (11, 100), (101, 1_000), (1_001, 2_000)];
/// The paper's Section 6.3 mean depths on 256 nodes at b = 10⁶:
/// (k, d = 1, d = 8).
const PAPER_DEPTH: [(usize, f64, f64); 3] =
    [(1_000, 1.9, 1.1), (10_000, 4.3, 1.8), (100_000, 7.3, 2.7)];

/// Tolerances. A run is one fixed-seed trajectory, which the same
/// platform reproduces exactly; another platform's libm may fork it. Each
/// tolerance is about three standard deviations of its column across
/// seeds 42–49 (the worst configuration at 20 and 320 PEs), so even an
/// independent trajectory passes, while doubling
/// `AnalyticLocalCosts::rank_s` moves six rows' selection seconds by 7–16%.
const SECONDS_TOL: Tol = Tol::Rel(0.06);

const GOLDEN: Golden = Golden {
    file: "paper_section6.tsv",
    artifact: "paper-snapshot",
    regen:
        "UPDATE_SIM_GOLDEN=1 cargo test --release --features stats --test paper_section6 -- stats_",
    columns: &[
        ("exp", Tol::Key),
        ("nodes", Tol::Key),
        ("k", Tol::Key),
        ("algo", Tol::Key),
        ("b_per_pe", Tol::Key),
        ("batch_s", SECONDS_TOL),
        ("insert_s", SECONDS_TOL),
        ("select_s", SECONDS_TOL),
        ("threshold_s", SECONDS_TOL),
        ("gather_s", SECONDS_TOL),
        // A bucket's mean over fewer selections spreads wider.
        ("rounds_per_select", Tol::Abs(0.25)),
        ("depth_2_10", Tol::Abs(4.0)),
        ("depth_11_100", Tol::Abs(1.6)),
        ("depth_101_1000", Tol::Abs(0.4)),
        ("depth_1001_2000", Tol::Abs(0.35)),
    ],
};

/// One simulated run of the grid.
#[derive(Clone, Copy, Debug)]
struct Run {
    exp: &'static str,
    nodes: usize,
    k: usize,
    algo: SimAlgo,
    b_per_pe: u64,
}

fn grid() -> Vec<Run> {
    let mut runs = Vec::new();
    for (exp, batch) in [("weak", 100_000), ("strong", 1024 * 100_000)] {
        for nodes in NODES {
            for k in [1_000, 100_000] {
                for algo in ALGOS {
                    let b_per_pe = match exp {
                        "strong" => batch / (nodes * PES_PER_NODE) as u64,
                        _ => batch,
                    };
                    runs.push(Run {
                        exp,
                        nodes,
                        k,
                        algo,
                        b_per_pe,
                    });
                }
            }
        }
    }
    for k in [1_000, 10_000, 100_000] {
        for pivots in [1, 8] {
            runs.push(Run {
                exp: "depth",
                nodes: 256,
                k,
                algo: SimAlgo::Ours { pivots },
                b_per_pe: 1_000_000,
            });
        }
    }
    runs
}

/// The paper's legend for an algorithm.
fn label(algo: SimAlgo) -> String {
    match algo {
        SimAlgo::Ours { pivots: 1 } => "ours".into(),
        SimAlgo::Ours { pivots } => format!("ours-{pivots}"),
        SimAlgo::Gather => "gather".into(),
    }
}

/// One row of raw results.
#[derive(Clone, Debug)]
struct Row {
    exp: String,
    nodes: usize,
    k: usize,
    algo: String,
    b_per_pe: u64,
    /// Mean modeled seconds per batch and its split by phase.
    batch_s: f64,
    phases: PhaseTimes,
    /// Mean selection rounds over every selection of the run (the
    /// running mean at batch 2,000).
    rounds_per_select: f64,
    /// Mean selection rounds over the selections in each of [`BUCKETS`].
    depth: [f64; 4],
}

impl Row {
    fn cells(&self) -> Vec<String> {
        let mut cells = vec![
            self.exp.clone(),
            self.nodes.to_string(),
            self.k.to_string(),
            self.algo.clone(),
            self.b_per_pe.to_string(),
        ];
        let p = &self.phases;
        for s in [self.batch_s, p.insert, p.select, p.threshold, p.gather] {
            cells.push(format!("{s:.6e}"));
        }
        cells.push(format!("{:.3}", self.rounds_per_select));
        cells.extend(self.depth.iter().map(|d| format!("{d:.3}")));
        cells
    }

    fn from_cells(f: &[String]) -> Row {
        let num = |i: usize| -> f64 { f[i].parse().expect("numeric cell") };
        Row {
            exp: f[0].clone(),
            nodes: f[1].parse().expect("nodes"),
            k: f[2].parse().expect("k"),
            algo: f[3].clone(),
            b_per_pe: f[4].parse().expect("b_per_pe"),
            batch_s: num(5),
            phases: PhaseTimes {
                insert: num(6),
                select: num(7),
                threshold: num(8),
                gather: num(9),
                ..PhaseTimes::default()
            },
            rounds_per_select: num(10),
            depth: [num(11), num(12), num(13), num(14)],
        }
    }
}

fn simulate(run: &Run) -> Row {
    let cfg = SimConfig::new(
        run.nodes * PES_PER_NODE,
        run.k,
        run.b_per_pe,
        SamplingMode::Weighted,
        run.algo,
        SEED,
    );
    let mut sim = SimCluster::new(
        cfg,
        CostModel::infiniband_edr(),
        AnalyticLocalCosts::default(),
    );
    let mut phases = PhaseTimes::default();
    // (rounds, selections): the whole run, then per bucket.
    let mut all = (0u64, 0u64);
    let mut buckets = [(0u64, 0u64); 4];
    for batch in 1..=BATCHES {
        let r = sim.process_batch();
        phases.accumulate(&r.times);
        if r.rounds == 0 {
            continue;
        }
        let bucket = BUCKETS
            .iter()
            .position(|&(lo, hi)| (lo..=hi).contains(&batch));
        for acc in std::iter::once(&mut all).chain(bucket.map(|i| &mut buckets[i])) {
            acc.0 += r.rounds as u64;
            acc.1 += 1;
        }
    }
    let mean = |(rounds, selections): (u64, u64)| rounds as f64 / selections.max(1) as f64;
    let phases = phases.scaled(BATCHES as f64);
    Row {
        exp: run.exp.into(),
        nodes: run.nodes,
        k: run.k,
        algo: label(run.algo),
        b_per_pe: run.b_per_pe,
        batch_s: phases.total(),
        phases,
        rounds_per_select: mean(all),
        depth: buckets.map(mean),
    }
}

fn compute(runs: &[Run]) -> Vec<Vec<String>> {
    runs.iter().map(|r| simulate(r).cells()).collect()
}

fn committed() -> Vec<Row> {
    GOLDEN.read().iter().map(|f| Row::from_cells(f)).collect()
}

fn find<'a>(rows: &'a [Row], exp: &str, nodes: usize, k: usize, algo: &str) -> &'a Row {
    rows.iter()
        .find(|r| r.exp == exp && r.nodes == nodes && r.k == k && r.algo == algo)
        .unwrap_or_else(|| panic!("no {exp} row for {nodes} nodes, k={k}, {algo}"))
}

/// One value of a figure: for `rows`, `nodes`, `k` and an algorithm.
type Figure = fn(&[Row], usize, usize, &str) -> f64;

/// Figure 3: weak-scaling speedup, the throughput relative to `ours` on
/// one node at the same k (ideal = nodes).
fn weak_speedup(rows: &[Row], nodes: usize, k: usize, algo: &str) -> f64 {
    let base = find(rows, "weak", 1, k, "ours");
    nodes as f64 * base.batch_s / find(rows, "weak", nodes, k, algo).batch_s
}

/// Figure 4: strong-scaling speedup, the batch time of `ours` on one node
/// over this run's batch time, at the same k (ideal = nodes).
fn strong_speedup(rows: &[Row], nodes: usize, k: usize, algo: &str) -> f64 {
    find(rows, "strong", 1, k, "ours").batch_s / find(rows, "strong", nodes, k, algo).batch_s
}

/// Figure 5: strong-scaling throughput, million items/s per PE.
fn strong_throughput(rows: &[Row], nodes: usize, k: usize, algo: &str) -> f64 {
    let r = find(rows, "strong", nodes, k, algo);
    r.b_per_pe as f64 / r.batch_s / 1e6
}

/// The committed table as the paper's figures and depth table.
fn figures(rows: &[Row]) -> String {
    let mut out = String::new();
    let algos: Vec<String> = ALGOS.into_iter().map(label).collect();
    let series: Vec<(usize, &str)> = [1_000, 100_000]
        .into_iter()
        .flat_map(|k| algos.iter().map(move |a| (k, a.as_str())))
        .collect();
    let header: String = series
        .iter()
        .map(|(k, a)| format!(" {a} k={k} |"))
        .collect();
    let panels: [(&str, Figure); 3] = [
        (
            "Figure 3, weak scaling at b = 1e5: speedup (ideal = nodes)",
            weak_speedup,
        ),
        (
            "Figure 4, strong scaling at B = 1024e5: speedup (ideal = nodes)",
            strong_speedup,
        ),
        (
            "Figure 5, strong scaling: million items/s per PE",
            strong_throughput,
        ),
    ];
    for (title, value) in panels {
        let _ = writeln!(out, "\n{title}\n\n| nodes |{header}");
        for n in NODES {
            let cells: String = series
                .iter()
                .map(|&(k, a)| format!(" {:.2} |", value(rows, n, k, a)))
                .collect();
            let _ = writeln!(out, "| {n} |{cells}");
        }
    }
    let _ = writeln!(
        out,
        "\nFigure 6, weak scaling at k = 1e5: phase shares of the slower algorithm's batch\n\n\
         | nodes | ours-8 insert | ours-8 select | ours-8 threshold | gather insert | gather gather | gather select | gather threshold |"
    );
    for n in NODES {
        let (ours, gather) = (
            find(rows, "weak", n, 100_000, "ours-8"),
            find(rows, "weak", n, 100_000, "gather"),
        );
        let norm = ours.batch_s.max(gather.batch_s);
        let (o, g) = (&ours.phases, &gather.phases);
        let shares = [
            o.insert,
            o.select,
            o.threshold,
            g.insert,
            g.gather,
            g.select,
            g.threshold,
        ];
        let cells: String = shares
            .iter()
            .map(|s| format!(" {:.3} |", s / norm))
            .collect();
        let _ = writeln!(out, "| {n} |{cells}");
    }
    let _ = writeln!(
        out,
        "\nSection 6.3, 256 nodes at b = 1e6: mean depth over batches 1-2000 and per bucket\n\n\
         | k | d | paper | 1-2000 | 2-10 | 11-100 | 101-1000 | 1001-2000 |"
    );
    for (k, p1, p8) in PAPER_DEPTH {
        for (algo, paper) in [("ours", p1), ("ours-8", p8)] {
            let r = find(rows, "depth", 256, k, algo);
            let buckets: String = r.depth.iter().map(|d| format!(" {d:.2} |")).collect();
            let d = if algo == "ours" { 1 } else { 8 };
            let _ = writeln!(
                out,
                "| {k} | {d} | {paper} | {:.2} |{buckets}",
                r.rounds_per_select
            );
        }
    }
    out
}

/// The default suite's share of the golden check: the k = 10³ weak and
/// strong runs on at most 16 nodes, recomputed and compared with their
/// committed rows.
#[test]
fn small_section6_runs_match_golden_rows() {
    let small = |exp: &str, nodes: usize, k: usize| exp != "depth" && nodes <= 16 && k == 1_000;
    let runs: Vec<Run> = grid()
        .into_iter()
        .filter(|r| small(r.exp, r.nodes, r.k))
        .collect();
    assert_eq!(runs.len(), 12);
    GOLDEN.check_subset(&compute(&runs), |cells| {
        let r = Row::from_cells(cells);
        small(&r.exp, r.nodes, r.k)
    });
}

/// The paper's shape claims, read off the committed table (which the
/// `stats_` test keeps equal to the live computation).
#[test]
fn section6_shape_claims_hold_on_the_committed_table() {
    let rows = committed();
    assert_eq!(rows.len(), grid().len(), "grid changed; re-baseline");
    println!("{}", figures(&rows));
    // Figure 3: near-linear weak scaling on 256 nodes.
    for k in [1_000, 100_000] {
        for (algo, share) in [("ours-8", 0.8), ("ours", 0.5)] {
            let s = weak_speedup(&rows, 256, k, algo);
            assert!(
                s >= share * 256.0,
                "weak scaling, k={k}, {algo}: speedup {s:.1} on 256 nodes, \
                 below {share} of ideal"
            );
        }
    }
    // Figures 3 and 4: the gather baseline collapses at k = 1e5.
    for (exp, speedup) in [("weak", weak_speedup as Figure), ("strong", strong_speedup)] {
        let (ours, gather) = (
            speedup(&rows, 256, 100_000, "ours-8"),
            speedup(&rows, 256, 100_000, "gather"),
        );
        assert!(
            ours >= 1.5 * gather,
            "{exp} scaling, k=1e5, 256 nodes: gather {gather:.1} should trail \
             ours-8 {ours:.1} by at least 1.5x"
        );
    }
    // Section 6.3: eight pivots cut the depth by a factor that grows with
    // k (paper 1.7x, 2.4x, 2.7x).
    let cuts: Vec<f64> = PAPER_DEPTH
        .iter()
        .map(|&(k, _, _)| {
            find(&rows, "depth", 256, k, "ours").rounds_per_select
                / find(&rows, "depth", 256, k, "ours-8").rounds_per_select
        })
        .collect();
    assert!(
        cuts[0] > 1.0 && cuts.windows(2).all(|w| w[0] < w[1]),
        "d=8 should cut the depth of d=1 by a factor growing with k, got {cuts:.2?}"
    );
}

/// The whole grid against the committed table (release build, minutes).
#[cfg(feature = "stats")]
#[test]
fn stats_section6_grid_matches_golden() {
    GOLDEN.check(
        &format!(
            "The paper's Section 6 on SimCluster: seed {SEED}, {BATCHES} batches per run,\n\
             {PES_PER_NODE} PEs per node, weighted workload, InfiniBand EDR α–β model,\n\
             AnalyticLocalCosts, no continuous publication. Seconds are means per batch;\n\
             depth columns are mean selection rounds per selection over batch ranges.\n\
             Regenerate with {}",
            GOLDEN.regen
        ),
        &compute(&grid()),
    );
}
