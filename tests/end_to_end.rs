//! Cross-crate integration tests: full mini-batch pipelines through the
//! public API, checking the paper's correctness claims end to end.

use reservoir::comm::{run_threads, Collectives, Communicator};
use reservoir::dist::gather::GatherSampler;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::DistConfig;
use reservoir::rng::test_base_seed;
use reservoir::stream::{Item, StreamSpec, WeightGen};

/// The union of local reservoirs is a size-k sample with distinct ids and
/// all keys at or below the agreed threshold — across PE counts, modes and
/// pivot counts.
#[test]
fn distributed_sample_invariants() {
    for (p, pivots, uniform) in [(1, 1, false), (3, 1, false), (4, 8, false), (2, 2, true)] {
        let k = 150;
        let spec = StreamSpec {
            pes: p,
            batch_size: 400,
            weights: if uniform {
                WeightGen::Unit
            } else {
                WeightGen::paper_uniform()
            },
            seed: 31 + p as u64,
        };
        let results = run_threads(p, |comm| {
            let base = if uniform {
                DistConfig::uniform(k, 31)
            } else {
                DistConfig::weighted(k, 31)
            };
            let mut sampler = DistributedSampler::new(&comm, base.with_pivots(pivots));
            let mut src = spec.source_for(comm.rank());
            let mut buf = Vec::new();
            let mut thresholds = Vec::new();
            for _ in 0..5 {
                src.next_batch_into(&mut buf);
                sampler.process_batch(&buf);
                thresholds.push(sampler.threshold());
            }
            (sampler.gather_sample(), thresholds)
        });
        let sample = results[0].0.as_ref().expect("root");
        assert_eq!(sample.len(), k, "p={p} pivots={pivots}");
        let mut ids: Vec<u64> = sample.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), k, "duplicate ids in sample");
        let t = results[0]
            .1
            .last()
            .expect("batches ran")
            .expect("threshold");
        assert!(sample.iter().all(|s| s.key <= t));
        // Thresholds are non-increasing once established.
        let established: Vec<f64> = results[0].1.iter().flatten().copied().collect();
        assert!(established.windows(2).all(|w| w[1] <= w[0]));
        // Every PE reports the same threshold history.
        for r in &results[1..] {
            assert_eq!(r.1, results[0].1);
        }
    }
}

/// Uniform sampling: every item's inclusion probability is k/n, regardless
/// of which PE it arrived at or when.
#[test]
fn uniform_inclusion_probability_is_k_over_n() {
    let p = 2;
    let k = 30;
    let n_per_pe = 150u64; // n = 300, inclusion 0.1
    let trials = 500;
    let base = test_base_seed();
    let mut early_hits = 0u32; // an item from batch 1
    let mut late_hits = 0u32; // an item from the last batch
    for t in 0..trials {
        let results = run_threads(p, |comm| {
            let mut s =
                DistributedSampler::new(&comm, DistConfig::uniform(k, base.wrapping_add(1000 + t)));
            let rank = comm.rank() as u64;
            for b in 0..3u64 {
                let items: Vec<Item> = (0..n_per_pe / 3)
                    .map(|i| Item::new((rank << 32) | (b << 16) | i, 1.0))
                    .collect();
                s.process_batch(&items);
            }
            s.gather_sample()
        });
        let sample = results[0].as_ref().expect("root");
        assert_eq!(sample.len(), k);
        if sample.iter().any(|s| s.id == 0) {
            early_hits += 1; // PE0, batch 0, first item
        }
        if sample.iter().any(|s| s.id == (1 << 32) | (2 << 16) | 7) {
            late_hits += 1; // PE1, batch 2
        }
    }
    let expect = k as f64 / (p as f64 * n_per_pe as f64);
    for (name, hits) in [("early", early_hits), ("late", late_hits)] {
        let frac = hits as f64 / trials as f64;
        assert!(
            (frac - expect).abs() < 0.04,
            "{name} item inclusion {frac:.3} vs expected {expect:.3} \
             (base seed {base}; set RESERVOIR_TEST_SEED to reproduce/vary)"
        );
    }
}

/// The distributed algorithm and the centralized baseline agree on the
/// sample law: their thresholds over the same stream length concentrate on
/// the same value.
#[test]
fn gather_and_distributed_threshold_laws_agree() {
    let p = 2;
    let k = 100;
    let trials = 40;
    let base = test_base_seed();
    let mut dist_sum = 0.0;
    let mut gather_sum = 0.0;
    for t in 0..trials {
        let seed = base.wrapping_add(5_000 + t);
        let spec = StreamSpec {
            pes: p,
            batch_size: 1_000,
            weights: WeightGen::paper_uniform(),
            seed,
        };
        let d = run_threads(p, |comm| {
            let mut s = DistributedSampler::new(&comm, DistConfig::weighted(k, seed));
            let mut src = spec.source_for(comm.rank());
            let mut buf = Vec::new();
            for _ in 0..3 {
                src.next_batch_into(&mut buf);
                s.process_batch(&buf);
            }
            s.threshold()
        });
        let g = run_threads(p, |comm| {
            let mut s = GatherSampler::new(&comm, DistConfig::weighted(k, seed));
            let mut src = spec.source_for(comm.rank());
            let mut buf = Vec::new();
            for _ in 0..3 {
                src.next_batch_into(&mut buf);
                s.process_batch(&buf);
            }
            s.threshold()
        });
        dist_sum += d[0].expect("established");
        gather_sum += g[0].expect("established");
    }
    let (dm, gm) = (dist_sum / trials as f64, gather_sum / trials as f64);
    assert!(
        (dm - gm).abs() < 0.2 * dm.max(gm),
        "threshold means diverge: distributed {dm:.3e} vs gather {gm:.3e} \
         (base seed {base}; set RESERVOIR_TEST_SEED to reproduce/vary)"
    );
}

/// Communication efficiency (the paper's core claim): the distributed
/// algorithm's per-batch communication volume is tiny and independent of
/// the batch size; the centralized baseline's root volume is not.
#[test]
fn communication_volume_is_batch_size_independent() {
    let p = 4;
    let k = 200;
    let volume_for = |batch_size: usize, centralized: bool| -> u64 {
        let spec = StreamSpec {
            pes: p,
            batch_size,
            weights: WeightGen::paper_uniform(),
            seed: 77,
        };
        let words = run_threads(p, |comm| {
            let mut src = spec.source_for(comm.rank());
            let mut buf = Vec::new();
            // Skip the first batch (growing phase is special), then
            // measure three steady batches.
            if centralized {
                let mut s = GatherSampler::new(&comm, DistConfig::weighted(k, 77));
                src.next_batch_into(&mut buf);
                s.process_batch(&buf);
                let before = comm.stats().words;
                for _ in 0..3 {
                    src.next_batch_into(&mut buf);
                    s.process_batch(&buf);
                }
                comm.stats().words - before
            } else {
                let mut s = DistributedSampler::new(&comm, DistConfig::weighted(k, 77));
                src.next_batch_into(&mut buf);
                s.process_batch(&buf);
                let before = comm.stats().words;
                for _ in 0..3 {
                    src.next_batch_into(&mut buf);
                    s.process_batch(&buf);
                }
                comm.stats().words - before
            }
        });
        words.iter().sum()
    };
    let ours_small = volume_for(2_000, false);
    let ours_large = volume_for(40_000, false);
    // 20x more items per batch: communication must stay within a small
    // constant factor (selection rounds fluctuate a little).
    assert!(
        ours_large < ours_small * 4,
        "ours volume grew with batch size: {ours_small} -> {ours_large} words"
    );

    // The centralized baseline's bottleneck is the first batch, where every
    // PE ships its min(b, k) best candidates to the root — Θ(p·k) words —
    // while the distributed algorithm only runs its selection collectives.
    let first_batch_volume = |centralized: bool| -> u64 {
        let spec = StreamSpec {
            pes: p,
            batch_size: 40_000,
            weights: WeightGen::paper_uniform(),
            seed: 78,
        };
        let words = run_threads(p, |comm| {
            let mut src = spec.source_for(comm.rank());
            let mut buf = Vec::new();
            src.next_batch_into(&mut buf);
            if centralized {
                let mut s = GatherSampler::new(&comm, DistConfig::weighted(k, 78));
                s.process_batch(&buf);
            } else {
                let mut s = DistributedSampler::new(&comm, DistConfig::weighted(k, 78));
                s.process_batch(&buf);
            }
            comm.stats().words
        });
        words.iter().sum()
    };
    let ours_first = first_batch_volume(false);
    let gather_first = first_batch_volume(true);
    assert!(
        gather_first > ours_first * 2,
        "gather's first batch should move far more data: ours {ours_first}, gather {gather_first}"
    );
    // And it must at least carry the p·k candidate payload.
    assert!(gather_first as usize >= p * k * 3);
}

/// Collectives compose with sampling: a user can run their own reductions
/// on the same communicator between batches.
#[test]
fn user_collectives_interleave_with_sampling() {
    let p = 3;
    let results = run_threads(p, |comm| {
        let mut s = DistributedSampler::new(&comm, DistConfig::weighted(50, 9));
        let spec = StreamSpec {
            pes: p,
            batch_size: 300,
            weights: WeightGen::paper_uniform(),
            seed: 9,
        };
        let mut src = spec.source_for(comm.rank());
        let mut total_weight = 0.0f64;
        let mut buf = Vec::new();
        for _ in 0..3 {
            src.next_batch_into(&mut buf);
            let local: f64 = buf.iter().map(|it| it.weight).sum();
            total_weight = comm.allreduce(total_weight + local, f64::max);
            s.process_batch(&buf);
        }
        (s.local_len(), total_weight)
    });
    let union: u64 = results.iter().map(|(n, _)| n).sum();
    assert_eq!(union, 50);
    assert!(results.windows(2).all(|w| w[0].1 == w[1].1));
}

/// Section 6.1: skewed weights (normal, with a mean that grows with the
/// batch index and the PE rank) cost the sampler the same work as the
/// paper's uniform weights. The paper compares running times; on a
/// shared machine the wall-time ratio of this shape swung from 0.82 to
/// 0.99 over three runs, so the test compares the work behind it instead:
/// reservoir insertions per PE and selection rounds per batch, which
/// measured 1.03 and 1.05 (skewed over uniform) at this fixed seed.
#[test]
fn skewed_weights_cost_the_same_work_as_uniform() {
    let (p, b, k, batches) = (2, 50_000, 1_000, 8u64);
    let work = |weights: WeightGen| -> (f64, f64) {
        let spec = StreamSpec {
            pes: p,
            batch_size: b,
            weights,
            seed: 99,
        };
        let per_pe = run_threads(p, |comm| {
            let mut sampler = DistributedSampler::new(&comm, DistConfig::weighted(k, 99));
            let mut src = spec.source_for(comm.rank());
            let mut buf = Vec::new();
            let (mut inserted, mut rounds) = (0, 0);
            // Batch 0 fills the reservoirs; the comparison starts after it.
            for batch in 0..=batches {
                src.next_batch_into(&mut buf);
                let r = sampler.process_batch(&buf);
                if batch > 0 {
                    inserted += r.inserted;
                    rounds += r.select_rounds as u64;
                }
            }
            (inserted, rounds)
        });
        let per = (p as u64 * batches) as f64;
        let inserted: u64 = per_pe.iter().map(|r| r.0).sum();
        let rounds: u64 = per_pe.iter().map(|r| r.1).sum();
        (inserted as f64 / per, rounds as f64 / per)
    };
    let (uniform_ins, uniform_rounds) = work(WeightGen::paper_uniform());
    let (skewed_ins, skewed_rounds) = work(WeightGen::paper_skewed());
    for (what, ratio) in [
        ("insertions per batch per PE", skewed_ins / uniform_ins),
        ("selection rounds per batch", skewed_rounds / uniform_rounds),
    ] {
        println!("skewed / uniform {what}: {ratio:.2}");
        assert!(
            (0.8..=1.25).contains(&ratio),
            "{what}: skewed / uniform = {ratio:.2}, outside 0.8..=1.25"
        );
    }
}
