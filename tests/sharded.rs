//! The multi-tenant sharded sampler: per-shard law, batched-schedule
//! amortization, and pipeline integration.
//!
//! The cornerstone is **byte-equivalence**: shard `s` of a
//! [`ShardedSampler`] must produce exactly the sample a standalone
//! [`DistributedSampler`] with seed `shard_seed(seed, s)` produces when
//! fed exactly that shard's records — the batched collective schedule
//! is a pure communication optimization, invisible to the law. On top
//! of that, a χ² goodness-of-fit pins a shard's inclusion law against
//! an *independently seeded* single-tenant reference at several shard
//! counts, and the round accounting asserts the fleet pays max (not
//! sum) of the per-shard selection rounds.

mod common;

use common::{chi_square_upper, skewed_weight, two_sample_chi_square};
use reservoir::comm::run_threads;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::{shard_seed, BatchReport, ContinuousMode, DistConfig, ShardedSampler};
use reservoir::metrics::PhaseTimes;
use reservoir::rng::test_base_seed;
use reservoir::stream::ingest::{spawn_source, BatchPolicy, SyntheticRecords};
use reservoir::stream::{route_by_id, Item, ShardRouter, StreamSpec, WeightGen};
use reservoir::SampleHandle;

/// This PE's slice of items 0..n (round-robin over `p`), split into
/// `batches` mini-batches, with the suite's skewed weight profile.
fn batches_for(rank: usize, p: usize, n: u64, batches: usize) -> Vec<Vec<Item>> {
    let mine: Vec<Item> = (0..n)
        .filter(|i| *i as usize % p == rank)
        .map(|i| Item::new(i, skewed_weight(i)))
        .collect();
    let per = mine.len().div_ceil(batches).max(1);
    mine.chunks(per).map(<[Item]>::to_vec).collect()
}

fn sorted_ids(items: &[reservoir::SampleItem]) -> Vec<u64> {
    let mut ids: Vec<u64> = items.iter().map(|m| m.id).collect();
    ids.sort_unstable();
    ids
}

/// A step report without its wall-clock `times`, the one field that
/// legitimately differs between a fleet shard and its standalone twin.
fn sans_times(r: &BatchReport) -> BatchReport {
    BatchReport {
        times: PhaseTimes::default(),
        ..*r
    }
}

/// Shard `s` of the fleet == a standalone sampler with `shard_seed(seed, s)`
/// fed exactly shard `s`'s bucket stream: byte-identical batch reports
/// (every field but the wall-clock times), local samples, thresholds,
/// and Section 5 handles, at several PE and shard counts.
#[test]
fn shard_matches_standalone_sampler_exactly() {
    let seed = test_base_seed();
    for (p, shards, k) in [(1usize, 4usize, 15usize), (3, 5, 20)] {
        let results = run_threads(p, |comm| {
            use reservoir::comm::Communicator;
            let router = route_by_id(shards);
            let cfg = DistConfig::weighted(k, seed);
            let mut fleet = ShardedSampler::new(&comm, cfg, shards);
            let mut solo: Vec<DistributedSampler<_>> = (0..shards)
                .map(|s| {
                    let cfg = DistConfig::weighted(k, shard_seed(seed, s));
                    DistributedSampler::new(&comm, cfg)
                })
                .collect();
            for (b, batch) in batches_for(comm.rank(), p, 4_000, 4)
                .into_iter()
                .enumerate()
            {
                let buckets = router.route(batch);
                let report = fleet.process_batch(&buckets);
                for (s, solo) in solo.iter_mut().enumerate() {
                    let r = solo.process_batch(&buckets[s]);
                    assert_eq!(
                        sans_times(&report.per_shard[s]),
                        sans_times(&r),
                        "batch report, batch {b} shard {s}"
                    );
                }
            }
            // Streaming state matches per shard...
            for (s, solo) in solo.iter().enumerate() {
                assert_eq!(fleet.threshold(s), solo.threshold(), "threshold, shard {s}");
                assert_eq!(
                    sorted_ids(&fleet.local_sample(s)),
                    sorted_ids(&solo.local_sample()),
                    "local sample, shard {s}"
                );
            }
            // ...and so do the Section 5 output handles.
            let handles = fleet.collect_output();
            for (s, solo) in solo.iter_mut().enumerate() {
                let h = &handles[s];
                let r = solo.collect_output();
                assert_eq!(h.local_items(), r.local_items(), "handle items, shard {s}");
                assert_eq!(h.offset(), r.offset(), "offset, shard {s}");
                assert_eq!(h.total_len(), r.total_len(), "total, shard {s}");
                assert_eq!(h.threshold(), r.threshold(), "fin threshold, shard {s}");
            }
            handles.len()
        });
        assert!(results.iter().all(|&n| n == shards), "p={p}");
    }
}

/// Under continuous publication, every shard's epoch after every batch
/// equals the epoch its standalone continuous twin published: same
/// epoch number, members, placement, total and threshold bits — for
/// exact-size shards and for size-window shards, whose publication runs
/// a joint finalize selection on checkpointed streams.
#[test]
fn continuous_shard_epochs_match_standalone_epochs() {
    let seed = test_base_seed() ^ 0xE90C;
    for window in [None, Some((20u64, 45u64))] {
        let mut fin_selects = 0u32;
        for (p, shards) in [(1usize, 4usize), (3, 5)] {
            fin_selects += run_threads(p, |comm| {
                use reservoir::comm::Communicator;
                let router = route_by_id(shards);
                let mut fin_selects = 0u32;
                let shaped = |cfg: DistConfig| {
                    let cfg = cfg.with_continuous(ContinuousMode::EveryBatch);
                    match window {
                        Some((lo, hi)) => cfg.with_size_window(lo, hi),
                        None => cfg,
                    }
                };
                let mut fleet =
                    ShardedSampler::new(&comm, shaped(DistConfig::weighted(20, seed)), shards);
                let mut solo: Vec<DistributedSampler<_>> = (0..shards)
                    .map(|s| {
                        let cfg = shaped(DistConfig::weighted(20, shard_seed(seed, s)));
                        DistributedSampler::new(&comm, cfg)
                    })
                    .collect();
                for (b, batch) in batches_for(comm.rank(), p, 4_000, 6)
                    .into_iter()
                    .enumerate()
                {
                    let buckets = router.route(batch);
                    // Every shard sees records in every batch, so none
                    // skips a publication its twin makes.
                    assert_eq!(fleet.process_batch(&buckets).shards_skipped, 0);
                    for (s, solo) in solo.iter_mut().enumerate() {
                        solo.process_batch(&buckets[s]);
                        let (got, want) = (
                            fleet.snapshot_reader(s).read(),
                            solo.snapshot_reader().read(),
                        );
                        let at = format!("window {window:?}, p {p}, batch {b}, shard {s}");
                        assert_eq!(got.epoch, want.epoch, "epoch number, {at}");
                        assert_eq!(got.items, want.items, "members, {at}");
                        assert_eq!(
                            (got.offset, got.total),
                            (want.offset, want.total),
                            "placement, {at}"
                        );
                        assert_eq!(
                            got.threshold.map(f64::to_bits),
                            want.threshold.map(f64::to_bits),
                            "threshold, {at}"
                        );
                        assert_eq!(got.rounds, want.rounds, "finalize rounds, {at}");
                        fin_selects += (got.rounds > 0) as u32;
                    }
                }
                fin_selects
            })[0];
        }
        assert_eq!(
            fin_selects > 0,
            window.is_some(),
            "only window shards finalize their epochs by selection"
        );
    }
}

/// A shard's sample does not depend on how many *other* shards exist:
/// the same buckets fed to a 4-shard fleet and to the first 4 shards of
/// an 8-shard fleet (rest idle) yield identical samples.
#[test]
fn shard_sample_independent_of_other_shard_count() {
    let seed = test_base_seed() ^ 0x5A;
    let results = run_threads(2, |comm| {
        use reservoir::comm::Communicator;
        let router = route_by_id(4);
        let cfg = DistConfig::weighted(12, seed);
        let mut small = ShardedSampler::new(&comm, cfg, 4);
        let mut big = ShardedSampler::new(&comm, cfg, 8);
        for batch in batches_for(comm.rank(), 2, 2_500, 3) {
            let buckets = router.route(batch);
            small.process_batch(&buckets);
            let mut wide = buckets.clone();
            wide.resize(8, Vec::new());
            big.process_batch(&wide);
        }
        (0..4)
            .map(|s| {
                assert_eq!(small.threshold(s), big.threshold(s), "shard {s}");
                sorted_ids(&small.local_sample(s))
            })
            .zip((0..4).map(|s| sorted_ids(&big.local_sample(s))))
            .all(|(a, b)| a == b)
    });
    assert!(results.into_iter().all(|same| same));
}

/// Per-item inclusion counts for one observed shard of a sharded fleet
/// over `trials` independently seeded runs.
fn sharded_counts(
    ids: &[u64],
    shards: usize,
    watch: usize,
    k: usize,
    p: usize,
    trials: u64,
    seed_base: u64,
) -> Vec<u64> {
    let mut counts = vec![0u64; ids.len()];
    let slot: std::collections::HashMap<u64, usize> =
        ids.iter().enumerate().map(|(j, &id)| (id, j)).collect();
    for t in 0..trials {
        let picked = run_threads(p, |comm| {
            use reservoir::comm::Communicator;
            let router = route_by_id(shards);
            let cfg = DistConfig::weighted(k, seed_base.wrapping_add(t));
            let mut fleet = ShardedSampler::new(&comm, cfg, shards);
            for batch in batches_for(comm.rank(), p, 1_500, 3) {
                fleet.process_batch(&router.route(batch));
            }
            let handles = fleet.collect_output();
            handles[watch].all_items(&comm)
        });
        for item in &picked[0] {
            counts[slot[&item.id]] += 1;
        }
    }
    counts
}

/// Single-tenant reference inclusion counts over the same item subset.
fn reference_counts(ids: &[u64], k: usize, p: usize, trials: u64, seed_base: u64) -> Vec<u64> {
    let members: std::collections::HashSet<u64> = ids.iter().copied().collect();
    let slot: std::collections::HashMap<u64, usize> =
        ids.iter().enumerate().map(|(j, &id)| (id, j)).collect();
    let mut counts = vec![0u64; ids.len()];
    for t in 0..trials {
        let picked = run_threads(p, |comm| {
            use reservoir::comm::Communicator;
            let cfg = DistConfig::weighted(k, seed_base.wrapping_add(t));
            let mut sampler = DistributedSampler::new(&comm, cfg);
            for batch in batches_for(comm.rank(), p, 1_500, 3) {
                let mine: Vec<Item> = batch
                    .into_iter()
                    .filter(|i| members.contains(&i.id))
                    .collect();
                sampler.process_batch(&mine);
            }
            sampler.collect_output().all_items(&comm)
        });
        for item in &picked[0] {
            counts[slot[&item.id]] += 1;
        }
    }
    counts
}

/// χ² goodness-of-fit: a shard's inclusion law equals the single-tenant
/// law over the same records, at three shard counts, under *different*
/// seed streams on the two sides (so this is a genuinely statistical
/// check, not the byte-equality above in disguise).
#[test]
fn per_shard_law_matches_single_tenant_reference() {
    let base = test_base_seed();
    let trials = 60u64;
    let (k, p) = (25usize, 2usize);
    for shards in [2usize, 3, 6] {
        let router = route_by_id(shards);
        let ids: Vec<u64> = (0..1_500u64)
            .filter(|&i| router.shard_of(&Item::new(i, 1.0)) == 0)
            .collect();
        let obs = sharded_counts(&ids, shards, 0, k, p, trials, base.wrapping_add(1_000));
        let exp = reference_counts(&ids, k, p, trials, base.wrapping_add(900_000));
        assert_eq!(
            obs.iter().sum::<u64>(),
            trials * k as u64,
            "shard 0 must finalize to k every run (shards={shards})"
        );
        assert_eq!(exp.iter().sum::<u64>(), trials * k as u64);
        let (stat, df) = two_sample_chi_square(&obs, &exp);
        let bar = chi_square_upper(df, 4.0);
        assert!(
            stat < bar,
            "sharded-vs-reference law diverges at shards={shards}: chi2 {stat:.1} > {bar:.1} \
             (df {df}, base seed {base})"
        );
    }
}

/// The fleet pays max (not sum) of the per-shard selection rounds, and
/// a fixed number of vectorized collectives per superstep regardless of
/// the shard count.
#[test]
fn batched_schedule_amortizes_rounds() {
    let seed = test_base_seed() ^ 0xA11;
    let per_batch = run_threads(2, |comm| {
        use reservoir::comm::Communicator;
        let shards = 12;
        let router = route_by_id(shards);
        let cfg = DistConfig::weighted(10, seed);
        let mut fleet = ShardedSampler::new(&comm, cfg, shards);
        let mut reports = Vec::new();
        for batch in batches_for(comm.rank(), 2, 6_000, 4) {
            reports.push(fleet.process_batch(&router.route(batch)));
        }
        reports
    });
    let mut saw_multi_select = false;
    for report in &per_batch[0] {
        assert!(
            report.collective_calls <= 2 + 2 * report.joint_select_rounds,
            "superstep issued {} collectives for {} joint rounds",
            report.collective_calls,
            report.joint_select_rounds
        );
        if report.shards_selected > 1 {
            saw_multi_select = true;
            let solo_rounds: u32 = report.per_shard.iter().map(|r| r.select_rounds).sum();
            assert!(
                report.joint_select_rounds < solo_rounds,
                "joint rounds {} not amortized vs per-shard sum {} ({} shards selecting)",
                report.joint_select_rounds,
                solo_rounds,
                report.shards_selected
            );
        }
    }
    assert!(
        saw_multi_select,
        "workload never made several shards select at once; the test is vacuous"
    );
}

/// Every superstep bills each shard for the work it did: a shard that
/// scanned a nonempty bucket has insert time, a selected shard has select
/// and threshold time, and a shard the sparse path skipped has no time at
/// all (with continuous publication, every stepped shard has output time
/// too). A collection bills output time to every shard. The fleet reads
/// the clock once per phase loop and splits it over those shards; a solo
/// sampler still times its own scan.
#[test]
fn fleet_phase_times_bill_the_shards_that_did_the_work() {
    let seed = test_base_seed() ^ 0x7153;
    let (p, shards) = (2usize, 48usize);
    for continuous in [ContinuousMode::Disabled, ContinuousMode::EveryBatch] {
        run_threads(p, |comm| {
            use reservoir::comm::Communicator;
            let router = route_by_id(shards);
            let cfg = DistConfig::weighted(6, seed).with_continuous(continuous);
            let mut fleet = ShardedSampler::new(&comm, cfg, shards);
            let mut solo = DistributedSampler::new(&comm, cfg);
            let (mut skipped, mut selected) = (0, 0);
            // Every PE routes the whole superstep, so it knows which
            // buckets are empty fleet-wide, then steps its own share.
            for (b, global) in batches_for(0, 1, 1_200, 12).into_iter().enumerate() {
                let fleet_buckets = router.route(global);
                let buckets: Vec<Vec<Item>> = fleet_buckets
                    .iter()
                    .map(|bucket| {
                        let mine = |i: &&Item| i.id as usize % p == comm.rank();
                        bucket.iter().filter(mine).copied().collect()
                    })
                    .collect();
                let report = fleet.process_batch(&buckets);
                let mut billed_select = 0;
                for (s, rep) in report.per_shard.iter().enumerate() {
                    let t = &rep.times;
                    let at = format!("continuous={continuous:?} batch {b} shard {s}");
                    if fleet_buckets[s].is_empty() {
                        assert_eq!(*t, PhaseTimes::default(), "skipped, {at}");
                        skipped += 1;
                        continue;
                    }
                    assert_eq!(t.insert > 0.0, !buckets[s].is_empty(), "insert, {at}");
                    assert!(t.threshold > 0.0, "count share, {at}");
                    if t.select > 0.0 {
                        billed_select += 1;
                        assert!(t.threshold > 0.0, "selected shard's prune, {at}");
                    }
                    if continuous == ContinuousMode::EveryBatch {
                        assert!(t.output > 0.0, "publication, {at}");
                    } else {
                        assert_eq!(t.output, 0.0, "no publication, {at}");
                    }
                }
                assert_eq!(billed_select, report.shards_selected, "batch {b}");
                selected += report.shards_selected;
                let r = solo.process_batch(&buckets[0]);
                if !buckets[0].is_empty() {
                    assert!(r.times.insert > 0.0, "solo scan, batch {b}");
                }
            }
            assert!(
                skipped > 0 && selected > 0,
                "skipped {skipped}, selected {selected}"
            );
            let before: Vec<f64> = (0..shards).map(|s| fleet.phase_totals(s).output).collect();
            fleet.collect_output();
            for (s, before) in before.iter().enumerate() {
                assert!(
                    fleet.phase_totals(s).output > *before,
                    "collection, shard {s}"
                );
            }
        });
    }
}

/// A handle never changes once returned: the engine refills its output
/// buffer in place only when no handle holds it. Handles (and clones)
/// kept from one collection keep their members, offset, total and
/// threshold across more streaming and a later collection, for a solo
/// sampler and a fleet, with continuous publication on and off; and a
/// collection into a refilled buffer equals the one before it.
#[test]
fn kept_handles_never_change() {
    let seed = test_base_seed() ^ 0xA11A5;
    let view = |h: &SampleHandle| {
        (
            h.local_items().to_vec(),
            h.offset(),
            h.total_len(),
            h.threshold().map(f64::to_bits),
        )
    };
    for continuous in [ContinuousMode::Disabled, ContinuousMode::EveryBatch] {
        for p in [1usize, 3] {
            run_threads(p, |comm| {
                use reservoir::comm::Communicator;
                let shards = 4;
                let router = route_by_id(shards);
                let cfg = DistConfig::weighted(20, seed).with_continuous(continuous);
                let mut solo = DistributedSampler::new(&comm, cfg);
                let mut fleet = ShardedSampler::new(&comm, cfg, shards);
                let batches = batches_for(comm.rank(), p, 6_000, 6);
                let (early, late) = batches.split_at(3);
                for batch in early {
                    solo.process_batch(batch);
                    fleet.process_batch(&router.route(batch.clone()));
                }
                let kept = solo.collect_output();
                let kept_clone = kept.clone();
                let kept_fleet = fleet.collect_output();
                let kept_fleet_clone = kept_fleet.clone();
                let want = view(&kept);
                let want_fleet: Vec<_> = kept_fleet.iter().map(view).collect();

                for batch in late {
                    solo.process_batch(batch);
                    fleet.process_batch(&router.route(batch.clone()));
                }
                let next = solo.collect_output();
                let next_fleet = fleet.collect_output();
                let at = format!("continuous={continuous:?} p={p}");
                assert_eq!(view(&kept), want, "kept handle, {at}");
                assert_eq!(view(&kept_clone), want, "kept clone, {at}");
                for s in 0..shards {
                    assert_eq!(view(&kept_fleet[s]), want_fleet[s], "shard {s}, {at}");
                    assert_eq!(view(&kept_fleet_clone[s]), want_fleet[s], "clone {s}, {at}");
                }
                // The later collection saw the later records.
                assert_ne!(next.threshold(), kept.threshold(), "{at}");
                assert!(
                    (0..shards).all(|s| next_fleet[s].threshold() != kept_fleet[s].threshold()),
                    "{at}"
                );

                // With every handle dropped, the next collections refill
                // the same buffers, and nothing streamed in between.
                let (again, again_fleet) =
                    (view(&next), next_fleet.iter().map(view).collect::<Vec<_>>());
                drop((
                    kept,
                    kept_clone,
                    kept_fleet,
                    kept_fleet_clone,
                    next,
                    next_fleet,
                ));
                for round in 0..2 {
                    assert_eq!(view(&solo.collect_output()), again, "refill {round}, {at}");
                    let refilled: Vec<_> = fleet.collect_output().iter().map(view).collect();
                    assert_eq!(refilled, again_fleet, "fleet refill {round}, {at}");
                }
            });
        }
    }
}

/// Continuous mode: every shard publishes a verifiable epoch per
/// superstep, and publication leaves the final samples byte-identical
/// to a continuous-off run (the single-tenant guarantee, per shard).
#[test]
fn continuous_sharded_snapshots_verify_and_do_not_perturb() {
    let seed = test_base_seed() ^ 0xC0;
    let results = run_threads(2, |comm| {
        use reservoir::comm::Communicator;
        let shards = 3;
        let router = route_by_id(shards);
        let cfg = DistConfig::weighted(15, seed);
        let mut plain = ShardedSampler::new(&comm, cfg, shards);
        let mut cont = ShardedSampler::new(
            &comm,
            cfg.with_continuous(ContinuousMode::EveryBatch),
            shards,
        );
        let readers: Vec<_> = (0..shards).map(|s| cont.snapshot_reader(s)).collect();
        let batches = batches_for(comm.rank(), 2, 3_000, 3);
        let total_batches = batches.len() as u64;
        for batch in batches {
            let buckets = router.route(batch);
            plain.process_batch(&buckets);
            cont.process_batch(&buckets);
        }
        for (s, reader) in readers.iter().enumerate() {
            let epoch = reader.read();
            assert!(epoch.verify(), "torn epoch, shard {s}");
            assert_eq!(epoch.epoch, total_batches, "one epoch per superstep");
            assert_eq!(epoch.total, 15, "finalized to k, shard {s}");
        }
        let plain_handles = plain.collect_output();
        let cont_handles = cont.collect_output();
        for s in 0..shards {
            assert_eq!(
                plain_handles[s].local_items(),
                cont_handles[s].local_items(),
                "continuous publication perturbed shard {s}"
            );
        }
        // After collection, the freshest epoch is the collection itself.
        for (s, reader) in readers.iter().enumerate() {
            assert_eq!(reader.read().epoch, total_batches + 1, "shard {s}");
        }
        true
    });
    assert!(results.into_iter().all(|ok| ok));
}

/// Variable-size windows work per shard behind the batched schedule.
#[test]
fn sharded_size_window_finalizes_to_k() {
    let seed = test_base_seed() ^ 0x11D0;
    let totals = run_threads(2, |comm| {
        use reservoir::comm::Communicator;
        let shards = 4;
        let router = route_by_id(shards);
        // Window mode is the subject here — pin continuous publication off
        // so the test is independent of the RESERVOIR_CONTINUOUS default.
        let cfg = DistConfig::weighted(10, seed)
            .with_size_window(10, 25)
            .with_continuous(ContinuousMode::Disabled);
        let mut fleet = ShardedSampler::new(&comm, cfg, shards);
        for batch in batches_for(comm.rank(), 2, 3_000, 3) {
            fleet.process_batch(&router.route(batch));
        }
        fleet
            .collect_output()
            .into_iter()
            .map(|h| h.total_len())
            .collect::<Vec<_>>()
    });
    for totals in &totals {
        assert_eq!(totals, &vec![10u64; 4], "every shard finalizes to k");
    }
}

/// The sharded pipeline: push-based ingestion, keyed routing, one
/// collective schedule, per-shard Section 5 handles.
#[test]
fn sharded_pipeline_end_to_end() {
    let seed = test_base_seed() ^ 0x1919;
    let p = 2;
    let spec = StreamSpec {
        pes: p,
        batch_size: 400,
        weights: WeightGen::paper_uniform(),
        seed,
    };
    let reports = run_threads(p, |comm| {
        use reservoir::comm::Communicator;
        let shards = 5;
        let source = SyntheticRecords::new(spec.source_for(comm.rank()), 2_400);
        let mut ingest = spawn_source(source, BatchPolicy::by_size(400), 4);
        let rx = ingest.take_receiver();
        let router = route_by_id(shards);
        let cfg = DistConfig::weighted(20, seed);
        let mut fleet = ShardedSampler::new(&comm, cfg, shards);
        let report = fleet.run_pipeline(&rx, &router);
        (report, ingest.join())
    });
    for (pe, (report, counters)) in reports.iter().enumerate() {
        assert_eq!(counters.records_in, 2_400, "pe {pe}");
        assert_eq!(report.records, 2_400, "pe {pe}");
        assert_eq!(report.handles.len(), 5, "pe {pe}");
        for (s, handle) in report.handles.iter().enumerate() {
            assert_eq!(handle.total_len(), 20, "pe {pe} shard {s}");
            if let Some(t) = handle.threshold() {
                assert!(
                    handle.local_items().iter().all(|m| m.key <= t),
                    "pe {pe} shard {s}: member above the finalize threshold"
                );
            }
        }
    }
    // The two PEs' handles describe the same global samples.
    let (a, b) = (&reports[0].0, &reports[1].0);
    for s in 0..5 {
        assert_eq!(a.handles[s].total_len(), b.handles[s].total_len());
        assert_eq!(
            a.handles[s].local_len() + b.handles[s].local_len(),
            a.handles[s].total_len(),
            "shard {s}: PE slices must partition the sample"
        );
    }
}

/// A 95%-sparse superstep over a 4096-shard fleet plans and steps only
/// the active shards: every fleet-empty shard is skipped, scans nothing
/// and selects nothing.
#[test]
fn sparse_supersteps_plan_active_shards_only() {
    let seed = test_base_seed() ^ 0x4096;
    run_threads(1, |comm| {
        use reservoir::comm::Communicator;
        let _ = comm.rank();
        let shards = 4096usize;
        let cfg = DistConfig::weighted(8, seed).with_threads(1);
        let mut fleet = ShardedSampler::new(&comm, cfg, shards);

        // A 95%-sparse superstep: records land in 5% of the shards.
        let active = shards / 20;
        let mut buckets = vec![Vec::new(); shards];
        for i in 0..4_000u64 {
            buckets[i as usize % active].push(Item::new(i, 1.0 + (i % 7) as f64));
        }
        let report = fleet.process_batch(&buckets);
        assert_eq!(
            report.shards_skipped,
            shards - active,
            "every fleet-empty shard must be skipped"
        );
        for (s, rep) in report.per_shard.iter().enumerate() {
            if s < active {
                assert!(rep.scan.processed > 0, "active shard {s} must scan");
            } else {
                assert_eq!(rep.scan.processed, 0, "skipped shard {s} must not scan");
                assert_eq!(rep.select_rounds, 0, "skipped shard {s} must not select");
            }
        }
        true
    });
}

/// Routing sanity at the integration level: every record lands in
/// exactly one shard, for any key extractor.
#[test]
fn routing_partitions_every_batch() {
    let router = ShardRouter::new(7, |item: &Item| item.id / 10);
    let items: Vec<Item> = (0..700).map(|i| Item::new(i, 1.0)).collect();
    let buckets = router.route(items.clone());
    assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), items.len());
    for (s, bucket) in buckets.iter().enumerate() {
        for item in bucket {
            assert_eq!(router.shard_of(item), s);
        }
    }
}
