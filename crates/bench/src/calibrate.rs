//! Machine calibration: measure the local-work costs the cluster simulator
//! charges, on the machine the benchmarks actually run on.
//!
//! The paper's experiments measure wall-clock time on ForHLR II nodes; our
//! simulator separates *local* work (measured here, for real, on this CPU)
//! from *communication* (charged through the α–β model). Calibration takes
//! a couple of seconds and is run once per benchmark binary.

use std::time::Instant;

use reservoir_btree::{BPlusTree, SampleKey};
use reservoir_core::dist::local::LocalReservoir;
use reservoir_core::dist::sim::{amdahl_speedup, LocalCostModel};
use reservoir_par::Pool;
use reservoir_rng::{default_rng, Rng64};
use reservoir_select::kth_smallest;
use reservoir_stream::Item;

/// Measured per-operation costs with a piecewise scan-cost table
/// (log-linear interpolation over batch size, capturing the cache knee).
#[derive(Clone, Debug)]
pub struct MeasuredLocalCosts {
    /// `(batch_items, seconds_per_item)`, ascending in `batch_items`.
    pub scan_table: Vec<(u64, f64)>,
    /// Seconds per tree insert per log₂(tree size).
    pub insert_s: f64,
    /// Seconds per generated candidate key.
    pub keygen_s: f64,
    /// Seconds per element of a sequential quickselect.
    pub quickselect_s: f64,
    /// Seconds per rank query per log₂(tree size).
    pub rank_s: f64,
    /// Measured serial fraction of the parallel local scan (inverse-Amdahl
    /// fit of a real pooled `LocalReservoir` run against the inline scan
    /// on this machine; 1.0 when the host has a single core, i.e. no
    /// speedup available).
    pub par_serial_frac: f64,
    /// The thread count the serial fraction was measured at (0 when the
    /// probe was skipped on a single-core host).
    pub par_probe_threads: u64,
}

impl MeasuredLocalCosts {
    fn scan_per_item(&self, items: u64) -> f64 {
        let t = &self.scan_table;
        debug_assert!(!t.is_empty());
        if items <= t[0].0 {
            return t[0].1;
        }
        for w in t.windows(2) {
            let ((a, ca), (b, cb)) = (w[0], w[1]);
            if items <= b {
                // Interpolate linearly in log(items).
                let f =
                    ((items as f64).ln() - (a as f64).ln()) / ((b as f64).ln() - (a as f64).ln());
                return ca + f * (cb - ca);
            }
        }
        t.last().expect("nonempty").1
    }
}

impl LocalCostModel for MeasuredLocalCosts {
    fn scan_weighted(&self, items: u64) -> f64 {
        items as f64 * self.scan_per_item(items)
    }

    fn scan_uniform(&self, inserted: u64) -> f64 {
        20e-9 + inserted as f64 * self.keygen_s
    }

    fn tree_inserts(&self, count: u64, tree_size: u64) -> f64 {
        count as f64 * self.insert_s * ((tree_size + 2) as f64).log2()
    }

    fn keygen(&self, count: u64) -> f64 {
        count as f64 * self.keygen_s
    }

    fn quickselect(&self, n: u64) -> f64 {
        n as f64 * self.quickselect_s
    }

    fn select_round_local(&self, tree_size: u64, pivots: u64) -> f64 {
        pivots.max(1) as f64 * self.rank_s * ((tree_size + 2) as f64).log2()
    }

    fn scan_speedup(&self, threads: u64) -> f64 {
        amdahl_speedup(self.par_serial_frac, threads)
    }
}

fn time<F: FnMut()>(mut f: F, reps: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Measure this machine's costs. `quick` halves the probe sizes (used by
/// tests); benchmarks pass `false`.
pub fn calibrate(quick: bool) -> MeasuredLocalCosts {
    let mut rng = default_rng(0xCA11B);

    // --- Jump-scan cost across batch sizes (captures the cache knee) ----
    let sizes: &[u64] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 400_000, 1_000_000, 4_000_000]
    };
    let mut scan_table = Vec::with_capacity(sizes.len());
    for &b in sizes {
        let items: Vec<Item> = (0..b)
            .map(|i| Item::new(i, rng.rand_oc() * 100.0))
            .collect();
        // A tiny threshold makes insertions negligible: we time the scan.
        let mut reservoir = LocalReservoir::new(8, 32, Pool::new(1), 1);
        let reps = if b <= 100_000 { 8 } else { 2 };
        // Warm the cache/branch predictors before timing.
        let _ = reservoir.process_weighted(&items, Some(1e-7));
        let per = time(
            || {
                let _ = reservoir.process_weighted(&items, Some(1e-7));
            },
            reps,
        ) / b as f64;
        scan_table.push((b, per));
    }

    // --- Tree insertion cost ------------------------------------------
    let tree_size = if quick { 20_000 } else { 100_000 };
    let mut tree: BPlusTree<SampleKey, f64> = BPlusTree::new();
    for i in 0..tree_size {
        tree.insert(SampleKey::new(rng.rand_oc(), i), 1.0);
    }
    let inserts = if quick { 10_000 } else { 50_000 };
    let start = Instant::now();
    for i in 0..inserts {
        tree.insert(SampleKey::new(rng.rand_oc(), tree_size + i), 1.0);
    }
    let insert_s = start.elapsed().as_secs_f64() / inserts as f64 / ((tree_size + 2) as f64).log2();

    // --- Key generation cost ------------------------------------------
    let n = 200_000u64;
    let mut sink = 0.0f64;
    let keygen_s = time(
        || {
            for _ in 0..n {
                sink += rng.exponential(2.0);
            }
        },
        1,
    ) / n as f64;
    std::hint::black_box(sink);

    // --- Sequential quickselect cost -----------------------------------
    let m = if quick { 50_000 } else { 200_000 };
    let keys: Vec<SampleKey> = (0..m)
        .map(|i| SampleKey::new(rng.rand_oc(), i as u64))
        .collect();
    let mut qs_rng = default_rng(2);
    // Subtract the buffer-copy cost so only the selection itself is charged.
    let clone_s = time(
        || {
            std::hint::black_box(keys.clone());
        },
        4,
    );
    let quickselect_s = (time(
        || {
            let mut work = keys.clone();
            std::hint::black_box(kth_smallest(&mut work, m / 10, &mut qs_rng));
        },
        4,
    ) - clone_s)
        .max(1e-12 * m as f64)
        / m as f64;

    // --- Parallel-scan serial fraction ---------------------------------
    // Time the real chunked scan on a pool against the inline scan on the
    // same batch and invert Amdahl's law:
    //   S(t) = 1 / (s + (1-s)/t)  ⇒  s = (t/S - 1) / (t - 1).
    // Always measure rather than consult `available_parallelism`:
    // container CPU quotas routinely report one core while still running
    // threads concurrently, and a genuinely serial host simply measures
    // S ≈ 1 and records s ≈ 1.
    let probe_threads = 4u64;
    let (par_serial_frac, par_probe_threads) = {
        // Big enough that waking the crew and merging the chunk buffers
        // amortize — the regime the knob is for.
        let b = if quick { 1_000_000u64 } else { 4_000_000 };
        let items: Vec<Item> = (0..b)
            .map(|i| Item::new(i, rng.rand_oc() * 100.0))
            .collect();
        let reps = if quick { 3 } else { 5 };
        let mut seq_res = LocalReservoir::new(8, 32, Pool::new(1), 3);
        let _ = seq_res.process_weighted(&items, Some(1e-7));
        let seq_s = time(
            || {
                let _ = seq_res.process_weighted(&items, Some(1e-7));
            },
            reps,
        );
        let mut par_res = LocalReservoir::new(8, 32, Pool::new(probe_threads as usize), 3);
        let _ = par_res.process_weighted(&items, Some(1e-7));
        let par_s = time(
            || {
                let _ = par_res.process_weighted(&items, Some(1e-7));
            },
            reps,
        );
        let t = probe_threads as f64;
        let speedup = (seq_s / par_s).max(1e-6);
        let s = ((t / speedup - 1.0) / (t - 1.0)).clamp(0.0, 1.0);
        (s, probe_threads)
    };

    // --- Rank-query cost -----------------------------------------------
    let probes = 20_000u64;
    let mut acc = 0usize;
    let rank_s = time(
        || {
            for _ in 0..probes {
                let key = SampleKey::new(rng.rand_oc(), 0);
                acc += tree.count_le(&key);
            }
        },
        1,
    ) / probes as f64
        / ((tree_size + 2) as f64).log2();
    std::hint::black_box(acc);

    MeasuredLocalCosts {
        scan_table,
        insert_s,
        keygen_s,
        quickselect_s,
        rank_s,
        par_serial_frac,
        par_probe_threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_yields_positive_costs() {
        let c = calibrate(true);
        assert!(c.scan_table.iter().all(|&(_, s)| s > 0.0 && s < 1e-6));
        assert!(c.insert_s > 0.0 && c.insert_s < 1e-4);
        assert!(c.keygen_s > 0.0);
        assert!(c.quickselect_s > 0.0);
        assert!(c.rank_s > 0.0);
        assert!((0.0..=1.0).contains(&c.par_serial_frac));
        // The derived speedup model is well-formed whatever the host.
        let s4 = c.scan_speedup(4);
        assert!((1.0..=4.0).contains(&s4), "{s4}");
        assert_eq!(c.scan_speedup(1), 1.0);
    }

    #[test]
    fn scan_interpolation_monotone_in_bounds() {
        let c = MeasuredLocalCosts {
            scan_table: vec![(10_000, 1e-9), (1_000_000, 3e-9)],
            insert_s: 1e-8,
            keygen_s: 1e-8,
            quickselect_s: 1e-8,
            rank_s: 1e-8,
            par_serial_frac: 0.1,
            par_probe_threads: 4,
        };
        assert_eq!(c.scan_per_item(1_000), 1e-9);
        assert_eq!(c.scan_per_item(10_000_000), 3e-9);
        let mid = c.scan_per_item(100_000);
        assert!(mid > 1e-9 && mid < 3e-9);
        // Total scan time grows with batch size.
        assert!(c.scan_weighted(1_000_000) > c.scan_weighted(10_000));
    }
}
