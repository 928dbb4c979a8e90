//! Multi-tenant sharded sampling on the real threaded backend: one
//! [`ShardedSampler`] fleet (S per-key reservoirs behind one collective
//! schedule) against S independent [`DistributedSampler`]s over the same
//! routed buckets, swept over fleet sizes. The fleet pays one batched
//! count round and one *joint* selection round sequence per mini-batch;
//! the independent samplers pay a count and a full selection per shard —
//! the collective-launch gap is the tentpole claim, measured here on real
//! threads (wall time) and in launch counts (exact, from the reports).
//!
//! Emits a human-readable table on stdout and a machine-readable
//! `BENCH_sharded.json` (override the path with `RESERVOIR_BENCH_OUT`) —
//! CI uploads it as a non-gating artifact. Honours
//! `RESERVOIR_BENCH_QUICK=1` for a reduced sweep.

use std::fmt::Write as _;
use std::time::Instant;

use reservoir_comm::run_threads;
use reservoir_core::dist::threaded::DistributedSampler;
use reservoir_core::dist::{DistConfig, ShardedSampler};
use reservoir_stream::{route_by_id, Item};

/// PEs in the threaded cluster.
const P: usize = 4;
/// Per-shard sample size.
const K: usize = 32;

struct Sweep {
    shards: usize,
    /// Mean wall seconds per superstep, fleet (batched schedule).
    fleet_batch_s: f64,
    /// Mean wall seconds per superstep, S independent samplers.
    solo_batch_s: f64,
    /// Vectorized collective calls per superstep (fleet).
    fleet_collectives: f64,
    /// Collective launches per superstep the independent samplers pay:
    /// one count per shard + 2 per per-shard selection round.
    solo_collectives: f64,
    /// Joint selection rounds per superstep (max over active shards).
    joint_rounds: f64,
    /// Summed per-shard selection rounds per superstep.
    solo_rounds: f64,
}

fn items_for(rank: usize, batch: u64, per_pe: u64) -> Vec<Item> {
    (0..per_pe)
        .map(|i| {
            let seq = batch * per_pe + i;
            let id = ((rank as u64) << 40) | seq;
            Item::new(id, 0.5 + (seq % 97) as f64)
        })
        .collect()
}

fn main() {
    // Arm observability so the emitted JSON carries the run's full
    // metrics snapshot next to the measured sweep.
    reservoir_obs::set_enabled(true);
    let quick = std::env::var_os("RESERVOIR_BENCH_QUICK").is_some();
    let per_pe: u64 = if quick { 2_000 } else { 10_000 };
    let batches: u64 = if quick { 4 } else { 8 };
    let shard_grid: &[usize] = if quick { &[1, 8, 32] } else { &[1, 4, 16, 64] };

    let mut sweep = Vec::new();
    for &shards in shard_grid {
        // Fleet: one batched schedule for all shards.
        let fleet = run_threads(P, move |comm| {
            let router = route_by_id(shards);
            let mut fleet = ShardedSampler::new(&comm, DistConfig::weighted(K, 0xF1EE7), shards);
            let mut buckets: Vec<Vec<Item>> = vec![Vec::new(); shards];
            let mut collectives = 0u64;
            let mut joint = 0u64;
            let mut solo = 0u64;
            let start = Instant::now();
            for b in 0..batches {
                use reservoir_comm::Communicator;
                for bucket in &mut buckets {
                    bucket.clear();
                }
                router.route_into(items_for(comm.rank(), b, per_pe), &mut buckets);
                let rep = fleet.process_batch(&buckets);
                collectives += rep.collective_calls as u64;
                joint += rep.joint_select_rounds as u64;
                solo += rep
                    .per_shard
                    .iter()
                    .map(|r| r.select_rounds as u64)
                    .sum::<u64>();
            }
            (start.elapsed().as_secs_f64(), collectives, joint, solo)
        });
        let (fleet_s, fleet_coll, joint, solo) = fleet[0];

        // Independent samplers: same buckets, one sampler (and thus one
        // count + one selection schedule) per shard.
        let naive = run_threads(P, move |comm| {
            let router = route_by_id(shards);
            let cfg = DistConfig::weighted(K, 0xF1EE7);
            let mut samplers: Vec<DistributedSampler<_>> = (0..shards)
                .map(|_| DistributedSampler::new(&comm, cfg))
                .collect();
            let mut buckets: Vec<Vec<Item>> = vec![Vec::new(); shards];
            let start = Instant::now();
            for b in 0..batches {
                use reservoir_comm::Communicator;
                for bucket in &mut buckets {
                    bucket.clear();
                }
                router.route_into(items_for(comm.rank(), b, per_pe), &mut buckets);
                for (s, sampler) in samplers.iter_mut().enumerate() {
                    sampler.process_batch(&buckets[s]);
                }
            }
            start.elapsed().as_secs_f64()
        });
        let solo_s = naive[0];

        let b = batches as f64;
        sweep.push(Sweep {
            shards,
            fleet_batch_s: fleet_s / b,
            solo_batch_s: solo_s / b,
            fleet_collectives: fleet_coll as f64 / b,
            solo_collectives: (shards as u64 * batches + 2 * solo) as f64 / b,
            joint_rounds: joint as f64 / b,
            solo_rounds: solo as f64 / b,
        });
    }

    // --- stdout table ---------------------------------------------------
    println!(
        "### fig_sharded — {P} PEs, k = {K} per shard, {per_pe} records/PE/batch, \
         {batches} batches"
    );
    println!(
        "\n| shards | fleet s/batch | solo s/batch | fleet coll/batch | \
         solo coll/batch | joint rounds | solo rounds |"
    );
    println!("|---|---|---|---|---|---|---|");
    for s in &sweep {
        println!(
            "| {} | {:.3e} | {:.3e} | {:.1} | {:.1} | {:.1} | {:.1} |",
            s.shards,
            s.fleet_batch_s,
            s.solo_batch_s,
            s.fleet_collectives,
            s.solo_collectives,
            s.joint_rounds,
            s.solo_rounds,
        );
    }

    // --- machine-readable trajectory ------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sharded\",");
    let _ = writeln!(json, "  \"driver\": \"threaded\",");
    let _ = writeln!(json, "  \"pes\": {P},");
    let _ = writeln!(json, "  \"sample_k\": {K},");
    let _ = writeln!(json, "  \"records_per_pe_per_batch\": {per_pe},");
    let _ = writeln!(json, "  \"batches\": {batches},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, s) in sweep.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"shards\": {}, \"fleet_batch_s\": {:.6e}, \
             \"solo_batch_s\": {:.6e}, \"fleet_collectives_per_batch\": {:.2}, \
             \"solo_collectives_per_batch\": {:.2}, \
             \"joint_rounds_per_batch\": {:.2}, \
             \"solo_rounds_per_batch\": {:.2}}}{}",
            s.shards,
            s.fleet_batch_s,
            s.solo_batch_s,
            s.fleet_collectives,
            s.solo_collectives,
            s.joint_rounds,
            s.solo_rounds,
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

    let out = std::env::var("RESERVOIR_BENCH_OUT").unwrap_or_else(|_| "BENCH_sharded.json".into());
    std::fs::write(&out, &json).expect("write BENCH_sharded.json");
    eprintln!("wrote {out}");
}
