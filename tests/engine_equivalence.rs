//! Engine equivalence: the stable sampler APIs are thin wrappers over
//! `ReservoirProtocol<Backend>`, and nothing may hide in the wrapping —
//! driving the engine directly must reproduce the wrapper's samples **byte
//! for byte** under a fixed seed, on both real backend policies, at scan
//! widths 1 and 4, and on the simulated backend. Plus the invariances
//! (scan width, continuous publication, the shared crew, the obs gate)
//! and the unified pipeline driver's unequal-stream-length edge cases,
//! which every policy shares through the engine's single drain loop.

use reservoir::comm::{run_threads, Communicator, CostModel};
use reservoir::dist::engine::ReservoirProtocol;
use reservoir::dist::gather::{GatherBackend, GatherSampler};
use reservoir::dist::sim::{AnalyticLocalCosts, SimAlgo, SimBackend, SimCluster, SimConfig};
use reservoir::dist::threaded::{CommBackend, DistributedSampler};
use reservoir::dist::{ContinuousMode, DistConfig, MergeMode, SamplingMode};
use reservoir::stream::ingest::{spawn_source, BatchPolicy, ReplayRecords};
use reservoir::stream::Item;

fn unit_batch(rank: usize, batch: u64, n: u64) -> Vec<Item> {
    (0..n)
        .map(|i| {
            Item::new(
                ((rank as u64) << 40) | (batch << 20) | i,
                1.0 + (i % 5) as f64,
            )
        })
        .collect()
}

/// Byte-exact fingerprint of a sample: sorted `(id, key bits)` pairs.
fn fingerprint(items: impl IntoIterator<Item = (u64, f64)>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = items
        .into_iter()
        .map(|(id, key)| (id, key.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn distributed_wrapper_equals_engine_driven_path_at_both_widths() {
    for &threads in &[1usize, 4] {
        let cfg = DistConfig::weighted(40, 2024).with_threads(threads);
        let p = 3;
        let wrapper = run_threads(p, |comm| {
            let mut s = DistributedSampler::new(&comm, cfg);
            for b in 0..4u64 {
                s.process_batch(&unit_batch(comm.rank(), b, 150));
            }
            let handle = s.collect_output();
            (
                fingerprint(handle.local_items().iter().map(|m| (m.id, m.key))),
                s.threshold().map(f64::to_bits),
            )
        });
        let engine = run_threads(p, |comm| {
            let mut e = ReservoirProtocol::new(CommBackend::new(&comm, &cfg), cfg);
            for b in 0..4u64 {
                e.step(&unit_batch(comm.rank(), b, 150));
            }
            let (handle, _, _) = e.collect_output();
            (
                fingerprint(handle.local_items().iter().map(|m| (m.id, m.key))),
                e.threshold().map(f64::to_bits),
            )
        });
        assert_eq!(
            wrapper, engine,
            "threads={threads}: wrapper and engine-driven samples diverged"
        );
    }
}

#[test]
fn gather_wrapper_equals_engine_driven_path_at_both_widths() {
    for &threads in &[1usize, 4] {
        let cfg = DistConfig::weighted(30, 77).with_threads(threads);
        let p = 3;
        let wrapper = run_threads(p, |comm| {
            let mut s = GatherSampler::new(&comm, cfg);
            let mut candidates = 0u64;
            for b in 0..4u64 {
                candidates += s.process_batch(&unit_batch(comm.rank(), b, 120));
            }
            let handle = s.collect_output();
            (
                fingerprint(handle.local_items().iter().map(|m| (m.id, m.key))),
                s.threshold().map(f64::to_bits),
                candidates,
            )
        });
        let engine = run_threads(p, |comm| {
            let mut e = ReservoirProtocol::new(GatherBackend::new(&comm, &cfg), cfg);
            let mut candidates = 0u64;
            for b in 0..4u64 {
                candidates += e.step(&unit_batch(comm.rank(), b, 120)).inserted;
            }
            let (handle, _, _) = e.collect_output();
            (
                fingerprint(handle.local_items().iter().map(|m| (m.id, m.key))),
                e.threshold().map(f64::to_bits),
                candidates,
            )
        });
        assert_eq!(
            wrapper, engine,
            "threads={threads}: gather wrapper and engine-driven samples diverged"
        );
    }
}

/// Neither the scan width nor the merge-mode pin may change the sample.
/// Every width draws its keys from the same per-(batch, chunk) RNG
/// streams — inline on one worker, chunk-parallel on a crew — so at every
/// thread count the fixed-seed output must be byte-identical to the
/// one-thread reference, with or without the retired
/// `with_merge(MergeMode::Epilogue)` pin the benchmark harness still sets,
/// on all three real samplers. The 20,000-record batches span several
/// chunks per PE (and per shard), so the wider runs really scan on their
/// crews, in growing mode and in threshold mode.
#[test]
fn merge_mode_and_thread_count_never_change_the_sample() {
    use reservoir::dist::ShardedSampler;
    const SHARDS: usize = 4;
    type Run = Vec<(Vec<(u64, u64)>, Option<u64>)>;
    let p = 3;
    let sizes = [20_000u64, 150, 20_000, 150];
    let run = |sampler: &str, threads: usize, pinned: bool| -> Vec<Run> {
        let mut cfg = DistConfig::weighted(40, 2024).with_threads(threads);
        if pinned {
            cfg = cfg.with_merge(MergeMode::Epilogue);
        }
        run_threads(p, |comm| {
            let batch = |b: usize| unit_batch(comm.rank(), b as u64, sizes[b]);
            let one = |handle: &reservoir::dist::SampleHandle, t: Option<f64>| {
                (
                    fingerprint(handle.local_items().iter().map(|m| (m.id, m.key))),
                    t.map(f64::to_bits),
                )
            };
            match sampler {
                "distributed" => {
                    let mut s = DistributedSampler::new(&comm, cfg);
                    for b in 0..sizes.len() {
                        s.process_batch(&batch(b));
                    }
                    vec![one(&s.collect_output(), s.threshold())]
                }
                "gather" => {
                    let mut s = GatherSampler::new(&comm, cfg);
                    for b in 0..sizes.len() {
                        s.process_batch(&batch(b));
                    }
                    vec![one(&s.collect_output(), s.threshold())]
                }
                _ => {
                    let mut fleet = ShardedSampler::new(&comm, cfg, SHARDS);
                    for b in 0..sizes.len() {
                        let mut buckets = vec![Vec::new(); SHARDS];
                        for item in batch(b) {
                            buckets[(item.id % SHARDS as u64) as usize].push(item);
                        }
                        fleet.process_batch(&buckets);
                    }
                    let thresholds: Vec<_> = (0..SHARDS).map(|s| fleet.threshold(s)).collect();
                    fleet
                        .collect_output()
                        .iter()
                        .zip(thresholds)
                        .map(|(h, t)| one(h, t))
                        .collect()
                }
            }
        })
    };
    for sampler in ["distributed", "gather", "sharded"] {
        let reference = run(sampler, 1, false);
        for &threads in &[2usize, 4, 8] {
            for pinned in [false, true] {
                assert_eq!(
                    run(sampler, threads, pinned),
                    reference,
                    "{sampler}: threads={threads} merge pin={pinned} diverged from \
                     the threads=1 reference"
                );
            }
        }
    }
}

/// Continuous epoch publication must be *observationally free*: each
/// publication runs a real finalize (whose selection consumes collective
/// RNG draws) bracketed by a checkpoint/restore of the selection
/// generators, so a fixed-seed run with per-batch publication enabled
/// must produce the byte-identical final sample to the same run without
/// it — on both real backend policies, at scan widths 1 and 4. The
/// continuous arm additionally checks the last published epoch against
/// the collected output: the snapshot service really serves the sample,
/// it does not just not-perturb it.
#[test]
fn continuous_publication_never_changes_the_final_sample() {
    let p = 3;
    for policy in ["distributed", "gather"] {
        for &threads in &[1usize, 4] {
            let run = |continuous: ContinuousMode| {
                let cfg = DistConfig::weighted(40, 2024)
                    .with_threads(threads)
                    .with_continuous(continuous);
                run_threads(p, |comm| {
                    let (handle, threshold, reader) = if policy == "distributed" {
                        let mut s = DistributedSampler::new(&comm, cfg);
                        let reader = s.snapshot_reader();
                        for b in 0..4u64 {
                            s.process_batch(&unit_batch(comm.rank(), b, 150));
                        }
                        (s.collect_output(), s.threshold(), reader)
                    } else {
                        let mut s = GatherSampler::new(&comm, cfg);
                        let reader = s.snapshot_reader();
                        for b in 0..4u64 {
                            s.process_batch(&unit_batch(comm.rank(), b, 150));
                        }
                        (s.collect_output(), s.threshold(), reader)
                    };
                    let fp = fingerprint(handle.local_items().iter().map(|m| (m.id, m.key)));
                    if continuous == ContinuousMode::EveryBatch {
                        // 4 batches + the final collect_output epoch.
                        let epoch = reader.read();
                        assert!(epoch.verify(), "{policy}: torn final epoch");
                        assert_eq!(epoch.epoch, 5, "{policy}: missing publications");
                        assert_eq!(
                            fingerprint(epoch.handle.local_items().iter().map(|m| (m.id, m.key))),
                            fp,
                            "{policy}: final epoch diverged from collected output"
                        );
                    } else {
                        assert_eq!(
                            reader.latest_epoch(),
                            0,
                            "{policy}: publication leaked into disabled mode"
                        );
                    }
                    (fp, threshold.map(f64::to_bits))
                })
            };
            assert_eq!(
                run(ContinuousMode::Disabled),
                run(ContinuousMode::EveryBatch),
                "{policy} threads={threads}: continuous publication \
                 changed the fixed-seed sample"
            );
        }
    }
}

/// The solo Section 5 wire schedule in collective launches: an exact-mode
/// collection is the count all-reduce (a reduce and a broadcast) plus one
/// exclusive prefix sum, and continuous publication adds exactly that to
/// every step. The global size is the count's, and the slices tile it.
#[test]
fn section5_output_is_one_count_and_one_exscan() {
    for p in [1usize, 3] {
        let run = |continuous: ContinuousMode| {
            run_threads(p, |comm| {
                let cfg = DistConfig::weighted(40, 2024).with_continuous(continuous);
                let mut s = DistributedSampler::new(&comm, cfg);
                // Reading the sequence number takes one value itself.
                let since = |before: u64| comm.next_collective_seq() - before - 1;
                let mut steps = Vec::new();
                for b in 0..4u64 {
                    let before = comm.next_collective_seq();
                    s.process_batch(&unit_batch(comm.rank(), b, 150));
                    steps.push(since(before));
                }
                let before = comm.next_collective_seq();
                let handle = s.collect_output();
                (steps, since(before), handle.local_len(), handle.total_len())
            })
        };
        let (off, on) = (
            run(ContinuousMode::Disabled),
            run(ContinuousMode::EveryBatch),
        );
        for (pe, (off, on)) in off.iter().zip(&on).enumerate() {
            assert_eq!((off.1, on.1), (3, 3), "p={p} pe={pe}: collect_output");
            for (b, (d, e)) in off.0.iter().zip(&on.0).enumerate() {
                assert_eq!(e - d, 3, "p={p} pe={pe} batch {b}: one publication");
            }
        }
        for results in [&off, &on] {
            let slices: u64 = results.iter().map(|r| r.2).sum();
            assert!(results.iter().all(|r| r.3 == slices), "p={p}: total_len");
            assert_eq!(slices, 40, "p={p}");
        }
    }
}

#[test]
fn sim_cluster_equals_engine_driven_sim_backend() {
    let mk_cfg = || {
        SimConfig::new(
            6,
            200,
            2_000,
            SamplingMode::Weighted,
            SimAlgo::Ours { pivots: 2 },
            909,
        )
    };
    let net = CostModel::infiniband_edr();
    let costs = AnalyticLocalCosts::default();

    let mut cluster = SimCluster::new(mk_cfg(), net, costs);
    let mut direct = ReservoirProtocol::new(
        SimBackend::new(mk_cfg(), net, costs),
        // The engine config SimCluster derives: same k/pivots/mode.
        DistConfig::weighted(200, 909).with_pivots(2),
    );
    let mut cluster_rounds = Vec::new();
    let mut direct_rounds = Vec::new();
    for _ in 0..4 {
        cluster_rounds.push(cluster.process_batch().rounds);
        direct_rounds.push(direct.step(&[]).select_rounds);
    }
    assert_eq!(cluster_rounds, direct_rounds);
    assert_eq!(
        cluster.threshold().map(f64::to_bits),
        direct.threshold().map(f64::to_bits),
        "same seed must give the identical simulated trajectory"
    );
    let a = fingerprint(cluster.sample().iter().map(|m| (m.id, m.key)));
    let b = fingerprint(direct.backend().sample().iter().map(|m| (m.id, m.key)));
    assert_eq!(a, b, "simulated samples diverged");
}

/// Unequal stream lengths through the engine's single drain loop, on both
/// real policies and in both publication modes: PE r gets r+1 batches;
/// everyone must run the longest stream's rounds and agree on the final
/// sample, and per-batch publication must change neither. Under
/// `EveryBatch` every PE's reader ends at epoch 4: three rounds plus the
/// collection.
#[test]
fn unified_drain_survives_unequal_streams_on_both_policies() {
    let p = 3;
    for policy in ["distributed", "gather"] {
        let run = |continuous: ContinuousMode| {
            run_threads(p, |comm| {
                let cfg = DistConfig::uniform(25, 5).with_continuous(continuous);
                let mine: Vec<Item> = (0..=comm.rank() as u64)
                    .flat_map(|batch| unit_batch(comm.rank(), batch, 60))
                    .collect();
                let mut ingest =
                    spawn_source(ReplayRecords::new(mine), BatchPolicy::by_size(60), 1);
                let rx = ingest.take_receiver();
                let (report, reader) = if policy == "distributed" {
                    let mut s = DistributedSampler::new(&comm, cfg);
                    let reader = s.snapshot_reader();
                    (s.run_pipeline(&rx), reader)
                } else {
                    let mut s = GatherSampler::new(&comm, cfg);
                    let reader = s.snapshot_reader();
                    (s.run_pipeline(&rx), reader)
                };
                ingest.join();
                let epoch = reader.read();
                let handle = &report.handle;
                (
                    (report.batches, report.rounds, handle.total_len()),
                    fingerprint(handle.local_items().iter().map(|m| (m.id, m.key))),
                    (epoch.epoch, epoch.handle.total_len()),
                )
            })
        };
        let (off, on) = (
            run(ContinuousMode::Disabled),
            run(ContinuousMode::EveryBatch),
        );
        for (rank, ((batches, rounds, total), _, _)) in off.iter().enumerate() {
            assert_eq!(*batches, rank as u64 + 1, "{policy}");
            assert_eq!(*rounds, 3, "{policy}: all PEs must run max rounds");
            assert_eq!(*total, 25, "{policy}");
        }
        for (rank, (a, b)) in off.iter().zip(&on).enumerate() {
            assert_eq!(
                (&a.0, &a.1),
                (&b.0, &b.1),
                "{policy} pe {rank}: publication"
            );
            assert_eq!(b.2, (4, 25), "{policy} pe {rank}: last epoch");
        }
    }
}

/// One PE's stream is completely empty: the drain must still terminate
/// collectively and produce the right sample, on both policies.
#[test]
fn unified_drain_tolerates_a_completely_empty_pe() {
    let p = 3;
    for policy in ["distributed", "gather"] {
        let results = run_threads(p, |comm| {
            use reservoir::comm::Communicator;
            let cfg = DistConfig::weighted(15, 31);
            let mine: Vec<Item> = if comm.rank() == 1 {
                Vec::new()
            } else {
                unit_batch(comm.rank(), 0, 80)
            };
            let mut ingest = spawn_source(ReplayRecords::new(mine), BatchPolicy::by_size(40), 1);
            let rx = ingest.take_receiver();
            let report = if policy == "distributed" {
                let mut s = DistributedSampler::new(&comm, cfg);
                s.run_pipeline(&rx)
            } else {
                let mut s = GatherSampler::new(&comm, cfg);
                s.run_pipeline(&rx)
            };
            ingest.join();
            (
                comm.rank(),
                report.batches,
                report.rounds,
                report.handle.total_len(),
            )
        });
        for (rank, batches, rounds, total) in &results {
            assert_eq!(*batches, if *rank == 1 { 0 } else { 2 }, "{policy}");
            assert_eq!(*rounds, 2, "{policy}");
            assert_eq!(*total, 15, "{policy}");
        }
    }
}

/// A pipeline drain mid-window must finalize its output to exactly k —
/// the engine's finalize step is the only implementation, so the window
/// path needs no pipeline-specific handling.
#[test]
fn unified_drain_finalizes_window_mode_output() {
    let p = 2;
    let (lo, hi) = (20u64, 50u64);
    let results = run_threads(p, |comm| {
        use reservoir::comm::Communicator;
        let cfg = DistConfig::weighted(20, 67).with_size_window(lo, hi);
        let mine: Vec<Item> = (0..3u64)
            .flat_map(|batch| unit_batch(comm.rank(), batch, 100))
            .collect();
        let mut ingest = spawn_source(ReplayRecords::new(mine), BatchPolicy::by_size(100), 1);
        let rx = ingest.take_receiver();
        let mut s = DistributedSampler::new(&comm, cfg);
        let report = s.run_pipeline(&rx);
        ingest.join();
        report.handle.total_len()
    });
    assert!(results.iter().all(|t| *t == lo));
}

/// The PE's shared scan crew and the sparse-batch fast path are invisible
/// to the sampling law: at scan widths 1 and 4, a shard fleet — every
/// shard scanning on its PE's one crew — reproduces byte for byte the
/// samples of standalone per-shard samplers. Shard 3 never receives a
/// record, so the fleet skips it every superstep while the standalone
/// reference processes its empty batches; identical output pins the skip
/// as law-free.
#[test]
fn pooled_fleet_and_sparse_skip_match_private_samplers_on_the_grid() {
    use reservoir::dist::{shard_seed, ShardedSampler};
    const SHARDS: usize = 4;
    fn route(batch: Vec<Item>) -> Vec<Vec<Item>> {
        let mut buckets = vec![Vec::new(); SHARDS];
        for item in batch {
            let s = (item.id % SHARDS as u64) as usize;
            if s < SHARDS - 1 {
                // Shard 3 stays empty fleet-wide: the sparse-skip arm.
                buckets[s].push(item);
            }
        }
        buckets
    }
    let p = 2;
    let private = run_threads(p, |comm| {
        (0..SHARDS)
            .map(|s| {
                let cfg = DistConfig::weighted(25, shard_seed(808, s));
                let mut solo = DistributedSampler::new(&comm, cfg);
                for b in 0..4u64 {
                    let buckets = route(unit_batch(comm.rank(), b, 120));
                    solo.process_batch(&buckets[s]);
                }
                let handle = solo.collect_output();
                (
                    fingerprint(handle.local_items().iter().map(|m| (m.id, m.key))),
                    solo.threshold().map(f64::to_bits),
                )
            })
            .collect::<Vec<_>>()
    });
    for &threads in &[1usize, 4] {
        let fleet = run_threads(p, |comm| {
            let cfg = DistConfig::weighted(25, 808).with_threads(threads);
            let mut fleet = ShardedSampler::new(&comm, cfg, SHARDS);
            let mut skipped = 0usize;
            for b in 0..4u64 {
                skipped += fleet
                    .process_batch(&route(unit_batch(comm.rank(), b, 120)))
                    .shards_skipped;
            }
            assert_eq!(
                skipped, 4,
                "the always-empty shard must skip every superstep"
            );
            let thresholds: Vec<_> = (0..SHARDS).map(|s| fleet.threshold(s)).collect();
            fleet
                .collect_output()
                .iter()
                .zip(thresholds)
                .map(|(h, t)| {
                    (
                        fingerprint(h.local_items().iter().map(|m| (m.id, m.key))),
                        t.map(f64::to_bits),
                    )
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(
            fleet, private,
            "threads={threads}: fleet diverged from private standalone samplers"
        );
    }
}

/// The retired leaf-affinity toggle, which the benchmark harness still
/// pins on, never changes the sample: the fixed-seed output is
/// byte-identical with it on or off, at scan widths 1 and 4.
#[test]
fn leaf_affinity_toggle_never_changes_the_sample() {
    let p = 3;
    let run = |threads: usize, affinity: bool| {
        let cfg = DistConfig::weighted(40, 2024)
            .with_threads(threads)
            .with_leaf_affinity(affinity);
        run_threads(p, |comm| {
            let mut s = DistributedSampler::new(&comm, cfg);
            for b in 0..4u64 {
                s.process_batch(&unit_batch(comm.rank(), b, 150));
            }
            let handle = s.collect_output();
            (
                fingerprint(handle.local_items().iter().map(|m| (m.id, m.key))),
                s.threshold().map(f64::to_bits),
            )
        })
    };
    for &threads in &[1usize, 4] {
        assert_eq!(
            run(threads, true),
            run(threads, false),
            "threads={threads}: leaf affinity changed the sample"
        );
    }
}

/// Observability must be observationally free: arming the metrics
/// registry + flight recorder changes neither a single sample byte nor
/// the wire traffic — a fixed seed draws the identical sample with the
/// identical point-to-point message/word counts whether `RESERVOIR_OBS`
/// is on or off, at both scan widths. (Instrumentation never touches an
/// RNG and never launches a collective; this is the test that keeps it
/// that way.)
#[test]
fn obs_gate_never_changes_samples_or_wire_traffic() {
    let run = |armed: bool, threads: usize| {
        reservoir::obs::set_enabled(armed);
        let cfg = DistConfig::weighted(40, 4242).with_threads(threads);
        run_threads(3, |comm| {
            let mut s = DistributedSampler::new(&comm, cfg);
            for b in 0..4u64 {
                s.process_batch(&unit_batch(comm.rank(), b, 150));
            }
            let handle = s.collect_output();
            let stats = comm.stats();
            (
                fingerprint(handle.local_items().iter().map(|m| (m.id, m.key))),
                s.threshold().map(f64::to_bits),
                stats.messages,
                stats.words,
            )
        })
    };
    for &threads in &[1usize, 4] {
        let off = run(false, threads);
        let on = run(true, threads);
        assert_eq!(
            off, on,
            "threads={threads}: arming observability changed the sample or wire traffic"
        );
    }
    // Leave the gate the way the environment wants it (the obs CI job
    // runs this binary with RESERVOIR_OBS=1).
    let armed = std::env::var("RESERVOIR_OBS")
        .ok()
        .and_then(|v| reservoir::obs::parse_obs(&v).ok())
        .unwrap_or(false);
    reservoir::obs::set_enabled(armed);
}
