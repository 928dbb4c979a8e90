//! Cost-model regression snapshots: fig4/5/6-style gather-vs-distributed
//! tables from `SimCluster`, pinned as a golden file so silent drift in
//! the α–β model, the local cost model, or the selection protocol fails
//! CI.
//!
//! The golden table lives in `tests/golden/sim_costs.tsv`. The whole grid
//! takes about 55 s in a debug build, so the full comparison is a `stats_`
//! test (`cargo test --release --features stats -- stats_`); the default
//! suite recomputes every row outside [`SLOW_BLOCKS`] and reads the shape
//! claims off the committed table. On mismatch either check writes the
//! freshly computed rows (and a cell-level diff) to `target/sim-snapshot/`
//! — CI uploads that directory as an artifact. To re-baseline after an
//! *intentional* cost-model change:
//!
//! ```text
//! UPDATE_SIM_GOLDEN=1 cargo test --release --features stats --test sim_snapshots -- stats_
//! ```
//!
//! The grid runs a fixed literal seed (not `RESERVOIR_TEST_SEED`): the
//! snapshot pins one concrete trajectory, it is not a statistical test.

use reservoir::comm::CostModel;
use reservoir::dist::sim::{AnalyticLocalCosts, OutputPath, SimAlgo, SimCluster, SimConfig};
use reservoir::dist::SamplingMode;

#[path = "common/golden.rs"]
mod golden;
use golden::{Golden, Tol};

/// PE counts (nodes × 20 as in the paper's grid), sample sizes, scan
/// threads per PE, and variable-size-window factors pinned by the
/// snapshot. The thread dimension models multicore PEs running
/// `reservoir_par`'s chunked scan (the cost model divides the scan +
/// keygen charge by the Amdahl speedup); the window dimension is the
/// Section 4.4 `k̄/k` ratio — `1` is exact-size mode, `2` runs with a
/// `(k, 2k)` window, whose mid-window output collections pay real
/// finalization selection rounds through the engine's shared finalize
/// step (visible in `dist_rounds` / `dist_out_s`).
const P_GRID: [usize; 3] = [20, 320, 5120];
const K_GRID: [usize; 3] = [1_000, 10_000, 100_000];
const T_GRID: [usize; 2] = [1, 4];
const W_GRID: [u64; 2] = [1, 2];
const SNAPSHOT_SEED: u64 = 0xC0FFEE;
const BATCHES: usize = 3;
/// The `(p, k)` blocks only the `stats_` test recomputes. Their cluster
/// batch `p·k` (2·10⁶ and 3.2·10⁶ items) is under the simulator's
/// exact-growing limit of 4·10⁶, so the growing phase draws every key:
/// the two blocks take about 43 of the whole grid's 55 s in a debug
/// build, while p = 5120 is sampled and cheap.
const SLOW_BLOCKS: [(usize, usize); 2] = [(20, 100_000), (320, 10_000)];

/// Relative tolerance for modeled seconds and word counts: wide enough to
/// absorb cross-platform libm wiggle shifting a selection by a round or
/// two, narrow enough that any real cost-model change trips it.
const REL_TOL: f64 = 0.35;
/// Selection rounds may drift by a couple across platforms.
const ROUNDS_TOL: f64 = 4.0;

const GOLDEN: Golden = Golden {
    file: "sim_costs.tsv",
    artifact: "sim-snapshot",
    regen:
        "UPDATE_SIM_GOLDEN=1 cargo test --release --features stats --test sim_snapshots -- stats_",
    columns: &[
        ("p", Tol::Key),
        ("k", Tol::Key),
        ("t", Tol::Key),
        ("w", Tol::Key),
        ("ours_batch_s", Tol::Rel(REL_TOL)),
        ("gather_batch_s", Tol::Rel(REL_TOL)),
        ("dist_out_s", Tol::Rel(REL_TOL)),
        ("dist_out_words", Tol::Rel(REL_TOL)),
        ("dist_rounds", Tol::Abs(ROUNDS_TOL)),
        ("gather_out_s", Tol::Rel(REL_TOL)),
        ("gather_out_words", Tol::Rel(REL_TOL)),
    ],
};

#[derive(Clone, Copy, Debug, PartialEq)]
struct Row {
    p: usize,
    k: usize,
    /// Scan threads per PE.
    t: usize,
    /// Variable-size window factor `k̄/k` (1 = exact-size mode).
    w: u64,
    /// Mean modeled seconds per mini-batch, Algorithm 1 (8 pivots).
    ours_batch_s: f64,
    /// Mean modeled seconds per mini-batch, gather baseline.
    gather_batch_s: f64,
    /// Output collection, Section 5 distributed path: seconds + busiest
    /// endpoint's words + finalization rounds.
    dist_out_s: f64,
    dist_out_words: u64,
    dist_rounds: u32,
    /// Output collection through the root funnel.
    gather_out_s: f64,
    gather_out_words: u64,
}

impl Row {
    fn cells(&self) -> Vec<String> {
        vec![
            self.p.to_string(),
            self.k.to_string(),
            self.t.to_string(),
            self.w.to_string(),
            format!("{:.6e}", self.ours_batch_s),
            format!("{:.6e}", self.gather_batch_s),
            format!("{:.6e}", self.dist_out_s),
            self.dist_out_words.to_string(),
            self.dist_rounds.to_string(),
            format!("{:.6e}", self.gather_out_s),
            self.gather_out_words.to_string(),
        ]
    }

    fn from_cells(f: &[String]) -> Row {
        Row {
            p: f[0].parse().expect("p"),
            k: f[1].parse().expect("k"),
            t: f[2].parse().expect("t"),
            w: f[3].parse().expect("w"),
            ours_batch_s: f[4].parse().expect("ours_batch_s"),
            gather_batch_s: f[5].parse().expect("gather_batch_s"),
            dist_out_s: f[6].parse().expect("dist_out_s"),
            dist_out_words: f[7].parse().expect("dist_out_words"),
            dist_rounds: f[8].parse().expect("dist_rounds"),
            gather_out_s: f[9].parse().expect("gather_out_s"),
            gather_out_words: f[10].parse().expect("gather_out_words"),
        }
    }
}

/// The committed table.
fn golden_rows() -> Vec<Row> {
    GOLDEN.read().iter().map(|f| Row::from_cells(f)).collect()
}

/// Every grid point `(p, k, t, w)`, in table order.
fn grid() -> Vec<(usize, usize, usize, u64)> {
    let mut points = Vec::new();
    for p in P_GRID {
        for k in K_GRID {
            for t in T_GRID {
                for w in W_GRID {
                    points.push((p, k, t, w));
                }
            }
        }
    }
    points
}

fn simulate((p, k, t, w): (usize, usize, usize, u64)) -> Row {
    let mk = |algo| {
        SimConfig::new(
            p,
            k,
            k as u64,
            SamplingMode::Weighted,
            algo,
            SNAPSHOT_SEED ^ ((p as u64) << 32) ^ k as u64,
        )
        .with_threads(t)
    };
    let net = CostModel::infiniband_edr();
    let costs = AnalyticLocalCosts::default();
    let mut ours_cfg = mk(SimAlgo::Ours { pivots: 8 });
    if w > 1 {
        ours_cfg = ours_cfg.with_size_window(k as u64, w * k as u64);
    }
    let mut ours = SimCluster::new(ours_cfg, net, costs);
    // The gather baseline has no variable-size mode; its batch column
    // stays the exact-size run on every row.
    let mut gather = SimCluster::new(mk(SimAlgo::Gather), net, costs);
    let mut ours_s = 0.0;
    let mut gather_s = 0.0;
    for _ in 0..BATCHES {
        ours_s += ours.process_batch().times.total();
        gather_s += gather.process_batch().times.total();
    }
    let dist_out = ours.collect_output(OutputPath::Distributed);
    let gather_out = ours.collect_output(OutputPath::Gather);
    Row {
        p,
        k,
        t,
        w,
        ours_batch_s: ours_s / BATCHES as f64,
        gather_batch_s: gather_s / BATCHES as f64,
        dist_out_s: dist_out.times.total(),
        dist_out_words: dist_out.bottleneck_words,
        dist_rounds: dist_out.rounds,
        gather_out_s: gather_out.times.total(),
        gather_out_words: gather_out.bottleneck_words,
    }
}

fn compute(points: &[(usize, usize, usize, u64)]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|&point| simulate(point).cells())
        .collect()
}

/// The default suite's share of the golden check: every row outside
/// [`SLOW_BLOCKS`], recomputed and compared with its committed row.
#[test]
fn sim_cost_tables_match_golden_snapshot() {
    let fast = |p: usize, k: usize| !SLOW_BLOCKS.contains(&(p, k));
    let points: Vec<_> = grid()
        .into_iter()
        .filter(|&(p, k, _, _)| fast(p, k))
        .collect();
    assert_eq!(points.len(), 28);
    GOLDEN.check_subset(&compute(&points), |cells| {
        let r = Row::from_cells(cells);
        fast(r.p, r.k)
    });
}

/// The whole grid against the committed table.
#[cfg(feature = "stats")]
#[test]
fn stats_sim_cost_grid_matches_golden() {
    GOLDEN.check(
        &format!(
            "SimCluster cost snapshot — seed {SNAPSHOT_SEED:#x}, {BATCHES} batches, b_per_pe = k,\n\
             InfiniBand EDR α–β model, AnalyticLocalCosts. Regenerate with\n{}",
            GOLDEN.regen
        ),
        &compute(&grid()),
    );
}

/// Multicore PEs (t = 4) must batch at least as fast as single-threaded
/// ones in the modeled grid — the thread dimension only divides the
/// scan + keygen charge, everything else is equal.
#[test]
fn sim_multicore_rows_are_no_slower() {
    let rows = golden_rows();
    // Rows per (p, k): t × w, with w innermost — pair equal-w rows across
    // the two thread counts.
    for block in rows.chunks(T_GRID.len() * W_GRID.len()) {
        for wi in 0..W_GRID.len() {
            let (one, four) = (&block[wi], &block[W_GRID.len() + wi]);
            assert_eq!((one.p, one.k, one.w, one.t), (four.p, four.k, four.w, 1));
            assert_eq!(four.t, 4);
            assert!(
                four.ours_batch_s <= one.ours_batch_s * 1.0001,
                "p={} k={} w={}: 4-thread batch {:.3e}s slower than 1-thread {:.3e}s",
                one.p,
                one.k,
                one.w,
                four.ours_batch_s,
                one.ours_batch_s
            );
        }
    }
}

/// The acceptance-criterion crossover, read off the pinned table (which
/// the `stats_` test keeps equal to the live computation): the Section 5
/// distributed output beats the root funnel — in bottleneck words
/// everywhere the sample is non-trivial, and in modeled time on large
/// machines.
#[test]
fn sim_distributed_output_beats_gather_for_large_p() {
    let rows = golden_rows();
    assert_eq!(rows.len(), grid().len(), "grid changed; re-baseline");
    for r in &rows {
        assert!(
            r.dist_out_words < r.gather_out_words,
            "p={} k={} w={}: distributed output moves {} bottleneck words, \
             gather {} — the funnel should always carry more",
            r.p,
            r.k,
            r.w,
            r.dist_out_words,
            r.gather_out_words
        );
    }
    // The paper's time crossover is about exact-size output (w = 1). A
    // mid-window output additionally pays O(α log p) finalization rounds,
    // so its time win over the funnel needs the bandwidth term to
    // dominate — which it does once k is large.
    for r in rows
        .iter()
        .filter(|r| (r.w == 1 && r.p >= 320 && r.k >= 10_000) || (r.w == 2 && r.k >= 100_000))
    {
        assert!(
            r.dist_out_s < r.gather_out_s,
            "p={} k={} w={}: distributed output {:.3e}s should beat gather {:.3e}s",
            r.p,
            r.k,
            r.w,
            r.dist_out_s,
            r.gather_out_s
        );
    }
}

/// The new window rows (w = 2) must show what exact-size rows cannot: a
/// mid-window output collection pays real finalization selection rounds,
/// charged through the engine's shared finalize step.
#[test]
fn sim_window_rows_pay_finalization_rounds() {
    let rows = golden_rows();
    for block in rows.chunks(W_GRID.len()) {
        let (exact, window) = (&block[0], &block[1]);
        assert_eq!((exact.w, window.w), (1, 2), "w must be the innermost dim");
        assert_eq!(
            exact.dist_rounds, 0,
            "p={} k={} t={}: exact-size mode is already finalized at output",
            exact.p, exact.k, exact.t
        );
        assert!(
            window.dist_rounds >= 1,
            "p={} k={} t={}: a (k, 2k) window must finalize at output",
            window.p,
            window.k,
            window.t
        );
        assert!(
            window.dist_out_s > exact.dist_out_s,
            "p={} k={} t={}: finalization rounds must cost output time \
             ({:.3e}s vs {:.3e}s)",
            window.p,
            window.k,
            window.t,
            window.dist_out_s,
            exact.dist_out_s
        );
    }
}
