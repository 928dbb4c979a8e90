//! Multi-tenant schedule accounting: `SimShardedCluster` prices one
//! mini-batch of an `S`-shard fleet under the naive schedule (every shard
//! launches its own collectives) and the batched schedule (the sharded
//! backend's single vectorized count + joint selection rounds), pinning
//! the acceptance claim in a golden grid: **batched cross-shard rounds
//! are O(1) per mini-batch — shard-count independent — while the naive
//! launch count grows linearly with `S`.**
//!
//! The golden table lives in `tests/golden/sim_sharded.tsv`. On mismatch
//! the test writes the fresh table and a cell diff to
//! `target/sim-sharded/` (CI uploads them). Re-baseline after an
//! intentional cost-model or protocol change with:
//!
//! ```text
//! UPDATE_SIM_GOLDEN=1 cargo test --test sim_sharded
//! ```

use reservoir::comm::CostModel;
use reservoir::dist::sim::{AnalyticLocalCosts, SimAlgo, SimConfig, SimShardedCluster};
use reservoir::dist::{ContinuousMode, SamplingMode};

#[path = "common/golden.rs"]
mod golden;
use golden::{Golden, Tol};

/// PE counts and fleet sizes pinned by the snapshot. Each shard samples
/// `k` from its own per-shard stream of `b_per_pe` items per PE per
/// batch — the multi-tenant workload of a per-key reservoir service.
const P_GRID: [usize; 2] = [20, 320];
const S_GRID: [usize; 4] = [1, 4, 16, 64];
const K: usize = 1_000;
const B_PER_PE: u64 = 250;
const SNAPSHOT_SEED: u64 = 0xC0FFEE;
const BATCHES: usize = 4;

/// Relative tolerance for modeled seconds and launch counts: selection
/// round counts wiggle by a round or two across platforms, which moves
/// both the collective tallies and the α terms.
const REL_TOL: f64 = 0.35;
/// The batched launch count is small (1 + max rounds per batch), so an
/// absolute slack is fairer than a relative one.
const BATCHED_TOL: f64 = 2.0 * BATCHES as f64;

const GOLDEN: Golden = Golden {
    file: "sim_sharded.tsv",
    artifact: "sim-sharded",
    regen: "UPDATE_SIM_GOLDEN=1 cargo test --test sim_sharded",
    columns: &[
        ("p", Tol::Key),
        ("s", Tol::Key),
        ("naive_coll", Tol::Rel(REL_TOL)),
        ("batched_coll", Tol::Abs(BATCHED_TOL)),
        ("naive_net_s", Tol::Rel(REL_TOL)),
        ("batched_net_s", Tol::Rel(REL_TOL)),
    ],
};

#[derive(Clone, Copy, Debug, PartialEq)]
struct Row {
    p: usize,
    s: usize,
    /// Collective launches over all batches, naive schedule.
    naive_coll: u64,
    /// Collective launches over all batches, batched schedule.
    batched_coll: u64,
    /// α–β network seconds over all batches, naive schedule.
    naive_net_s: f64,
    /// α–β network seconds over all batches, batched schedule.
    batched_net_s: f64,
}

impl Row {
    fn cells(&self) -> Vec<String> {
        vec![
            self.p.to_string(),
            self.s.to_string(),
            self.naive_coll.to_string(),
            self.batched_coll.to_string(),
            format!("{:.6e}", self.naive_net_s),
            format!("{:.6e}", self.batched_net_s),
        ]
    }
}

fn run_fleet(p: usize, shards: usize) -> Row {
    let cfg = SimConfig::new(
        p,
        K,
        B_PER_PE,
        SamplingMode::Weighted,
        SimAlgo::Ours { pivots: 8 },
        SNAPSHOT_SEED ^ ((p as u64) << 32),
    )
    // Pin the baseline trajectory even under RESERVOIR_CONTINUOUS=1
    // (and the sharded sim models batch steps only).
    .with_continuous(ContinuousMode::Disabled);
    let mut fleet = SimShardedCluster::new(
        cfg,
        shards,
        CostModel::infiniband_edr(),
        AnalyticLocalCosts::default(),
    );
    let mut row = Row {
        p,
        s: shards,
        naive_coll: 0,
        batched_coll: 0,
        naive_net_s: 0.0,
        batched_net_s: 0.0,
    };
    for _ in 0..BATCHES {
        let r = fleet.process_batch();
        // Structural invariants of the two schedules, per batch: the
        // naive one launches at least one count per shard; the batched
        // one launches one vectorized count plus the joint rounds, and
        // a joint round never exceeds the busiest shard's own rounds.
        assert!(r.naive_collectives >= shards as u64);
        let max_rounds = r
            .per_shard
            .iter()
            .map(|b| b.rounds as u64)
            .max()
            .unwrap_or(0);
        assert_eq!(r.batched_collectives, 1 + max_rounds);
        assert!(r.batched_net_s <= r.naive_net_s + 1e-12);
        row.naive_coll += r.naive_collectives;
        row.batched_coll += r.batched_collectives;
        row.naive_net_s += r.naive_net_s;
        row.batched_net_s += r.batched_net_s;
    }
    row
}

fn compute_table() -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in &P_GRID {
        for &s in &S_GRID {
            rows.push(run_fleet(p, s));
        }
    }
    rows
}

#[test]
fn sim_sharded_schedule_matches_golden_snapshot() {
    let rows: Vec<Vec<String>> = compute_table().iter().map(Row::cells).collect();
    GOLDEN.check(
        &format!(
            "SimShardedCluster schedule snapshot — seed {SNAPSHOT_SEED:#x}, {BATCHES} batches,\n\
             k = {K}, b_per_pe = {B_PER_PE}, 8 pivots, InfiniBand EDR α–β model.\n\
             Regenerate with {}",
            GOLDEN.regen
        ),
        &rows,
    );
}

/// The acceptance claim, asserted on the live computation (not the golden
/// file, so it can never be baselined away): growing the fleet 64× leaves
/// the batched launch count essentially flat — O(1) collective rounds per
/// mini-batch — while the naive launch count grows with the shard count.
#[test]
fn batched_rounds_are_shard_count_independent() {
    for &p in &P_GRID {
        let rows: Vec<Row> = S_GRID.iter().map(|&s| run_fleet(p, s)).collect();
        let single = &rows[0];
        let largest = rows.last().unwrap();
        // A 64× fleet may add a few joint rounds (the max over more
        // shards' round counts creeps up logarithmically) but never
        // multiplies: well under 2× where linear scaling would be 64×.
        assert!(
            largest.batched_coll < 2 * single.batched_coll,
            "p={p}: batched launches must not scale with shards \
             ({} at S={} vs {} at S={})",
            largest.batched_coll,
            largest.s,
            single.batched_coll,
            single.s,
        );
        // Naive launches scale linearly: each 4× fleet growth must cost
        // at least 3× the launches (slack for round-count variation).
        for pair in rows.windows(2) {
            assert!(
                pair[1].naive_coll >= 3 * pair[0].naive_coll,
                "p={p}: naive launches should grow ~linearly, got {} at S={} \
                 vs {} at S={}",
                pair[1].naive_coll,
                pair[1].s,
                pair[0].naive_coll,
                pair[0].s,
            );
        }
        // And the α savings are real: at S=64 the batched schedule's
        // network time is a small fraction of the naive schedule's.
        assert!(
            largest.batched_net_s < 0.25 * largest.naive_net_s,
            "p={p}: batched schedule should amortize latency, got \
             {:.3e}s vs naive {:.3e}s",
            largest.batched_net_s,
            largest.naive_net_s,
        );
    }
}
