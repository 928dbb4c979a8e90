//! Fleet accounting in the metrics registry: every shard step is an
//! ordinary engine step, so the engine's counters count fleet records and
//! fleet selection rounds exactly once. A test binary of its own because
//! the registry is process-global: no other sampler may run beside it.

use reservoir::comm::run_threads;
use reservoir::dist::{ContinuousMode, DistConfig, ShardedSampler};
use reservoir::stream::{route_by_id, Item};

#[test]
fn fleet_steps_count_records_and_rounds_once() {
    reservoir::obs::set_enabled(true);
    let (pes, shards, batches, per_batch) = (2usize, 8usize, 4u64, 500u64);
    let cfg = DistConfig::weighted(16, 11)
        .with_threads(1)
        .with_continuous(ContinuousMode::Disabled);
    let rounds = run_threads(pes, |comm| {
        use reservoir::comm::Communicator;
        let router = route_by_id(shards);
        let mut fleet = ShardedSampler::new(&comm, cfg, shards);
        let mut rounds = 0u64;
        for b in 0..batches {
            let batch: Vec<Item> = (0..per_batch)
                .map(|i| {
                    let id = ((comm.rank() as u64) << 40) | (b << 20) | i;
                    Item::new(id, 1.0 + (i % 5) as f64)
                })
                .collect();
            rounds += fleet.process_batch(&router.route(batch)).solo_select_rounds;
        }
        fleet.collect_output();
        rounds
    });

    let snap = reservoir::obs::global().snapshot();
    assert_eq!(
        snap.counter("engine_items_total"),
        pes as u64 * batches * per_batch,
        "every routed record is offered to its shard's engine"
    );
    let rounds: u64 = rounds.iter().sum();
    assert!(
        rounds > 0,
        "the workload never selected; the test is vacuous"
    );
    assert_eq!(snap.counter("engine_select_rounds_total"), rounds);
    assert!(
        snap.get("sharded_solo_rounds_total").is_none(),
        "per-shard rounds are the engine's counter, not a second one"
    );
}
