//! A live dashboard over a running pipeline — the always-fresh snapshot
//! service in its natural habitat: every PE ingests a pushed event
//! stream through `run_pipeline` while dashboard threads on the same
//! machine query the *current* weighted sample at any moment, with no
//! coordination with the pipeline and no pause in ingestion.
//!
//! Under [`ContinuousMode::EveryBatch`] each selection round publishes
//! an immutable [`SampleEpoch`](reservoir::dist::SampleEpoch) — the
//! sample finalized to exactly `k` through the paper's Section 5
//! finalize/place path — by swapping one `Arc` pointer under a mutex. A
//! dashboard read locks that mutex for one `Arc` clone: it waits only
//! while another thread holds it for a clone or a swap, never for a
//! selection round, never sees a half-published view (every epoch
//! carries a verifiable checksum), and is never staler than the one
//! publication in flight.
//!
//! The dashboard here estimates the fraction of "alarm" events (the
//! heavy tail of the weight distribution) from each epoch it observes
//! and prints the estimate's trajectory as the stream unfolds.
//!
//! With `RESERVOIR_OBS=1` the dashboard threads also poll the process
//! metrics registry (same no-coordination discipline: an
//! [`obs::MetricsReader`](reservoir::obs::MetricsReader) refreshes its
//! directory only when the registry version moves), and the run dumps
//! `target/obs/metrics.prom`, `target/obs/metrics.json` and the flight
//! recorder's `target/obs/flight_recorder.jsonl` on exit — the artifacts
//! the CI obs job uploads.
//!
//! ```text
//! cargo run --release --example live_dashboard
//! RESERVOIR_OBS=1 cargo run --release --example live_dashboard
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use reservoir::comm::{run_threads, Communicator};
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::{ContinuousMode, DistConfig};
use reservoir::rng::{default_rng, Rng64};
use reservoir::stream::ingest::{spawn_source, BatchPolicy, ReplayRecords};
use reservoir::stream::Item;

/// One observation a dashboard thread took: which epoch it read and the
/// weighted alarm-share estimate it computed from that epoch's slice.
struct Observation {
    epoch: u64,
    total: u64,
    local_alarms: u64,
    local_members: u64,
}

fn main() {
    let pes = 4;
    let k = 4_000;
    let events_per_pe = 400_000u64;
    let batch_size = 50_000usize;
    // True alarm rate: 2% of events, but alarms carry 50x the weight of
    // routine events, so they should dominate the weighted sample.
    let alarm_rate = 0.02;

    let results = run_threads(pes, |comm| {
        let mut rng = default_rng(0xDA5B ^ comm.rank() as u64);
        let events: Vec<Item> = (0..events_per_pe)
            .map(|i| {
                let alarm = rng.rand_co() < alarm_rate;
                let uid = ((comm.rank() as u64) << 48) | (i << 1) | alarm as u64;
                Item::new(uid, if alarm { 50.0 } else { 1.0 })
            })
            .collect();
        let true_alarms = events.iter().filter(|e| e.id & 1 == 1).count() as u64;

        let cfg = DistConfig::weighted(k, 0xDA5B).with_continuous(ContinuousMode::EveryBatch);
        let mut sampler = DistributedSampler::new(&comm, cfg);
        let reader = sampler.snapshot_reader();
        let stop = AtomicBool::new(false);

        let (report, observations) = std::thread::scope(|scope| {
            // Two dashboard threads per PE, polling the live sample while
            // the pipeline below ingests at full speed.
            let dashboards: Vec<_> = (0..2)
                .map(|_| {
                    let r = reader.clone();
                    let stop = &stop;
                    scope.spawn(move || {
                        let mut seen: Vec<Observation> = Vec::new();
                        // Metrics ride the same polling loop as the
                        // sample: version-disciplined, never blocking
                        // the pipeline. (An empty render when
                        // RESERVOIR_OBS is off.)
                        let mut metrics = reservoir::obs::global().reader();
                        loop {
                            let e = r.read();
                            assert!(e.verify(), "torn epoch on the dashboard");
                            let _ = metrics.snapshot();
                            if seen.last().map_or(e.epoch > 0, |o| o.epoch < e.epoch) {
                                seen.push(Observation {
                                    epoch: e.epoch,
                                    total: e.total,
                                    local_alarms: e.items.iter().filter(|m| m.id & 1 == 1).count()
                                        as u64,
                                    local_members: e.local_len(),
                                });
                            }
                            if stop.load(Ordering::Relaxed) {
                                return seen;
                            }
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    })
                })
                .collect();

            let mut ingest = spawn_source(
                ReplayRecords::new(events),
                BatchPolicy::by_size(batch_size),
                4,
            );
            let rx = ingest.take_receiver();
            let report = sampler.run_pipeline(&rx);
            ingest.join();
            stop.store(true, Ordering::Relaxed);
            let observations: Vec<Vec<Observation>> = dashboards
                .into_iter()
                .map(|h| h.join().expect("dashboard thread"))
                .collect();
            (report, observations)
        });

        // After the pipeline ends, the slot keeps serving the final epoch
        // — which is exactly the collected output.
        let last = reader.read();
        assert_eq!(last.total, report.handle.total_len());
        assert_eq!(last.local_len(), report.handle.local_len());
        (report.sample_size(), true_alarms, observations)
    });

    let (sample_size, _, _) = &results[0];
    let true_alarms: u64 = results.iter().map(|r| r.1).sum();
    let true_rate = true_alarms as f64 / (pes as u64 * events_per_pe) as f64;

    println!("live dashboard over {pes} PEs, k = {sample_size}, {events_per_pe} events/PE");
    println!("true alarm rate {true_rate:.4} (weighted 50x — alarms dominate the sample)\n");

    // Fold rank 0's first dashboard trail into a trajectory (its slice
    // alone is an unbiased view of the alarm share at its epoch).
    let trail = &results[0].2[0];
    println!("| epoch | global sample | alarm share in rank 0's slice |");
    println!("|---|---|---|");
    for o in trail {
        let share = if o.local_members == 0 {
            0.0
        } else {
            o.local_alarms as f64 / o.local_members as f64
        };
        println!("| {} | {} | {:.3} |", o.epoch, o.total, share);
    }

    let epochs_seen: usize = results
        .iter()
        .flat_map(|r| r.2.iter())
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    assert!(
        epochs_seen >= 2,
        "the dashboard never saw the sample evolve"
    );
    println!(
        "\nthe busiest dashboard thread saw {epochs_seen} distinct epochs mid-flight, every one \
         checksum-consistent;"
    );
    println!("no read ever paused ingestion, and the final epoch equals the collected output");

    if reservoir::obs::enabled() {
        let dir = std::path::Path::new("target/obs");
        std::fs::create_dir_all(dir).expect("create target/obs");
        let mut reader = reservoir::obs::global().reader();
        std::fs::write(dir.join("metrics.prom"), reader.prometheus()).expect("write metrics.prom");
        std::fs::write(dir.join("metrics.json"), reader.json()).expect("write metrics.json");
        std::fs::write(
            dir.join("flight_recorder.jsonl"),
            reservoir::obs::recorder().to_jsonl(),
        )
        .expect("write flight_recorder.jsonl");
        let events = reservoir::obs::recorder().dump().len();
        println!(
            "\nobservability armed: metrics + {events}-event flight recorder dumped to target/obs/"
        );
    }
}
