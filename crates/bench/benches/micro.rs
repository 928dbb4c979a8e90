//! Criterion micro-benchmarks and ablations for the design choices called
//! out in DESIGN.md:
//!
//! * jump-based vs naive sequential sampling (Section 4.1);
//! * blocked (32-at-a-time) vs scalar weighted skip scan (Section 5);
//! * B+ tree node degree;
//! * single- vs multi-pivot selection (Section 3.3);
//! * quickselect vs full sort (the gather baseline's root-side work);
//! * exact-k vs variable-size selection targets (Section 4.4).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use reservoir_btree::{BPlusTree, SampleKey};
use reservoir_core::dist::local::LocalReservoir;
use reservoir_core::seq::{UniformJumpSampler, WeightedJumpSampler, WeightedNaiveSampler};
use reservoir_par::Pool;
use reservoir_rng::{default_rng, Rng64};
use reservoir_select::{kth_smallest, select_conductor, SelectParams, SortedKeys, TargetRank};
use reservoir_stream::Item;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400))
}

fn seq_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("seq_sampling");
    let n = 1_000_000u64;
    let k = 1_000;
    let weights: Vec<f64> = {
        let mut rng = default_rng(1);
        (0..n).map(|_| rng.rand_oc() * 100.0).collect()
    };
    group.bench_function("weighted_jump", |b| {
        b.iter(|| {
            let mut s = WeightedJumpSampler::new(k, default_rng(2));
            for (i, &w) in weights.iter().enumerate() {
                s.process(i as u64, w);
            }
            s.sample().len()
        })
    });
    group.bench_function("weighted_naive", |b| {
        b.iter(|| {
            let mut s = WeightedNaiveSampler::new(k, default_rng(2));
            for (i, &w) in weights.iter().enumerate() {
                s.process(i as u64, w);
            }
            s.sample().len()
        })
    });
    group.bench_function("uniform_jump_run", |b| {
        b.iter(|| {
            let mut s = UniformJumpSampler::new(k, default_rng(2));
            s.process_run(0, n);
            s.sample().len()
        })
    });
    group.finish();
}

/// Scalar reference scan (no 32-item blocking) for the Section 5 ablation.
fn scalar_jump_scan(items: &[Item], t: f64, rng: &mut impl Rng64) -> u64 {
    let mut inserted = 0;
    let mut j = 0usize;
    while j < items.len() {
        let mut x = rng.exponential(t);
        loop {
            if j >= items.len() {
                return inserted;
            }
            x -= items[j].weight;
            j += 1;
            if x <= 0.0 {
                inserted += 1;
                break;
            }
        }
    }
    inserted
}

fn skip_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("skip_scan");
    let items: Vec<Item> = {
        let mut rng = default_rng(3);
        (0..1_000_000u64)
            .map(|i| Item::new(i, rng.rand_oc() * 100.0))
            .collect()
    };
    let t = 1e-6; // few insertions: the scan dominates
    group.bench_function("blocked_32", |b| {
        b.iter(|| {
            let mut r = LocalReservoir::new(8, 32, Pool::new(1), 4);
            r.process_weighted(&items, Some(t)).inserted
        })
    });
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut rng = default_rng(4);
            scalar_jump_scan(&items, t, &mut rng)
        })
    });
    group.finish();
}

fn btree_degree(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree_degree");
    let keys: Vec<SampleKey> = {
        let mut rng = default_rng(5);
        (0..100_000u64)
            .map(|i| SampleKey::new(rng.rand_oc(), i))
            .collect()
    };
    for degree in [8usize, 16, 32, 64] {
        group.bench_with_input(BenchmarkId::new("insert100k", degree), &degree, |b, &d| {
            b.iter(|| {
                let mut t: BPlusTree<SampleKey, ()> = BPlusTree::with_degree(d);
                for k in &keys {
                    t.insert(*k, ());
                }
                t.len()
            })
        });
    }
    // Split + rejoin at the default degree (the per-batch prune path).
    group.bench_function("split_rejoin_100k", |b| {
        let mut tree: BPlusTree<SampleKey, ()> = BPlusTree::new();
        for k in &keys {
            tree.insert(*k, ());
        }
        let mid = *tree.select(50_000).expect("exists").0;
        b.iter(|| {
            let mut t = std::mem::take(&mut tree);
            let right = t.split_at_key(&mid, true);
            tree = t.join(right);
            tree.len()
        })
    });
    group.finish();
}

fn selection_pivots(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection_pivots");
    let set = SortedKeys::new({
        let mut rng = default_rng(6);
        (0..1_000_000u64)
            .map(|i| SampleKey::new(rng.rand_oc(), i))
            .collect()
    });
    for d in [1usize, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::new("exact_k1e5", d), &d, |b, &d| {
            let mut rng = [default_rng(7)];
            b.iter(|| {
                select_conductor(
                    &[&set],
                    TargetRank::exact(100_000),
                    SelectParams::with_pivots(d),
                    &mut rng,
                )
                .result
                .rounds
            })
        });
    }
    // Ablation: exact rank vs a 10% window (variable-size reservoirs).
    group.bench_function("window_pm10pct", |b| {
        let mut rng = [default_rng(8)];
        b.iter(|| {
            select_conductor(
                &[&set],
                TargetRank::range(95_000, 105_000),
                SelectParams::with_pivots(1),
                &mut rng,
            )
            .result
            .rounds
        })
    });
    group.finish();
}

fn root_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("root_selection");
    let keys: Vec<SampleKey> = {
        let mut rng = default_rng(9);
        (0..200_000u64)
            .map(|i| SampleKey::new(rng.rand_oc(), i))
            .collect()
    };
    group.bench_function("quickselect_k1e5", |b| {
        let mut rng = default_rng(10);
        b.iter(|| {
            let mut work = keys.clone();
            kth_smallest(&mut work, 100_000, &mut rng)
        })
    });
    group.bench_function("full_sort", |b| {
        b.iter(|| {
            let mut work = keys.clone();
            work.sort_unstable();
            work[100_000]
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = seq_sampling, skip_scan, btree_degree, selection_pivots, root_selection
}
criterion_main!(benches);
