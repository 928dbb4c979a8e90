//! Tests of the local reservoir's pooled scan: multi-chunk batches on
//! pools with helpers, where chunks run as pool tasks into per-chunk
//! buffers and a sequential epilogue merges them.
//!
//! These are the tests of the chunked reservoir that `reservoir-par`
//! held before its kernels moved into [`crate::dist::local`]; they keep
//! their module path. The inline path (one worker, or a one-chunk batch)
//! is tested next to the kernels, in `dist::local`.

mod tests {
    use reservoir_btree::SampleKey;
    use reservoir_par::Pool;
    use reservoir_stream::Item;

    use crate::dist::local::LocalReservoir;

    fn batch(n: u64, weight: impl Fn(u64) -> f64) -> Vec<Item> {
        (0..n).map(|i| Item::new(i, weight(i))).collect()
    }

    fn ids(r: &LocalReservoir) -> Vec<u64> {
        let mut v: Vec<u64> = r.tree().iter().map(|(k, _)| k.id).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn threshold_scan_matches_bernoulli_rate() {
        // P(key < t) = 1 - e^{-t w}; aggregate insertion rate must track it.
        let t = 0.05;
        let w = 2.0f64;
        let expect = 1.0 - (-t * w).exp();
        let n = 20_000u64;
        let pool = Pool::new(4);
        let mut total = 0u64;
        for seed in 0..10 {
            let mut r = LocalReservoir::new(8, 32, pool.clone(), seed).with_chunk_items(1024);
            total += r.process_weighted(&batch(n, |_| w), Some(t)).inserted;
            assert!(
                r.last_scope().is_some(),
                "20 chunks on 4 workers run pooled"
            );
        }
        let rate = total as f64 / (10 * n) as f64;
        assert!(
            (rate - expect).abs() < 0.1 * expect,
            "rate {rate} vs {expect}"
        );
    }

    #[test]
    fn threshold_scan_keys_below_threshold_and_stats_consistent() {
        let mut r = LocalReservoir::new(8, 32, Pool::new(3), 1).with_chunk_items(512);
        let t = 0.01;
        let stats = r.process_weighted(&batch(10_000, |_| 1.0), Some(t));
        assert_eq!(stats.processed, 10_000);
        assert_eq!(stats.inserted, r.len());
        assert_eq!(stats.chunks, 20);
        assert_eq!(r.last_scope().expect("pooled").worker_busy_s.len(), 3);
        assert!(r.tree().iter().all(|(k, _)| k.key <= t));
    }

    #[test]
    fn results_are_deterministic_and_thread_count_independent() {
        let run = |threads: usize| {
            let mut r = LocalReservoir::new(50, 32, Pool::new(threads), 99).with_chunk_items(256);
            // Growing phase first, then threshold scans.
            r.process_weighted(&batch(3_000, |i| 1.0 + (i % 7) as f64), None);
            let t = r.tree().max().unwrap().0.key;
            r.process_weighted(&batch(5_000, |i| 1.0 + (i % 5) as f64), Some(t));
            r.process_uniform(&batch(5_000, |_| 1.0), Some(0.01));
            let mut entries: Vec<(u64, u64)> = r
                .tree()
                .iter()
                .map(|(k, _)| (k.id, k.key.to_bits()))
                .collect();
            entries.sort_unstable();
            entries
        };
        let four = run(4);
        assert_eq!(four, run(4), "same seed + threads must reproduce");
        assert_eq!(four, run(1), "the inline scan draws the same sample");
        assert_eq!(four, run(2));
    }

    #[test]
    fn growing_mode_keeps_cap_smallest() {
        let mut r = LocalReservoir::new(50, 32, Pool::new(4), 3).with_chunk_items(300);
        let stats = r.process_weighted(&batch(5_000, |i| 1.0 + (i % 7) as f64), None);
        assert!(
            r.last_scope().is_some(),
            "17 chunks on 4 workers run pooled"
        );
        assert_eq!(r.len(), 50);
        assert_eq!(stats.processed, 5_000);
        // The shared-bound filter keeps candidate counts far below n.
        assert!(stats.inserted < 3_000, "{}", stats.inserted);
        // The kept keys are exactly the 50 smallest drawn: every key in the
        // tree is at most the tree's max, and the tree holds exactly cap.
        let max = r.tree().max().unwrap().0.key;
        assert!(r.tree().iter().all(|(k, _)| k.key <= max));
    }

    #[test]
    fn growing_mode_partial_fill_then_spill() {
        let mut r = LocalReservoir::new(100, 32, Pool::new(2), 4).with_chunk_items(64);
        r.process_weighted(&batch(30, |_| 1.0), None);
        assert_eq!(r.len(), 30);
        r.process_weighted(&batch(500, |_| 1.0), None);
        assert!(r.last_scope().is_some(), "8 chunks on 2 workers run pooled");
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn uniform_threshold_scan_rate_and_range() {
        let t = 0.02;
        let n = 50_000u64;
        let mut r = LocalReservoir::new(8, 32, Pool::new(4), 5).with_chunk_items(2048);
        let stats = r.process_uniform(&batch(n, |_| 1.0), Some(t));
        let expect = n as f64 * t;
        assert!(
            (stats.inserted as f64 - expect).abs() < 6.0 * expect.sqrt() + 10.0,
            "inserted {} vs {expect}",
            stats.inserted
        );
        assert!(r.tree().iter().all(|(k, _)| k.key > 0.0 && k.key <= t));
    }

    #[test]
    fn uniform_growing_inclusion_is_cap_over_n() {
        let n = 400u64;
        let cap = 20usize;
        let trials = 2_000u64;
        // One crew serves every trial, as a PE's crew serves its batches.
        let pool = Pool::new(4);
        let mut hits = 0u32;
        for seed in 0..trials {
            let mut r = LocalReservoir::new(cap, 32, pool.clone(), seed).with_chunk_items(96);
            r.process_uniform(&batch(n, |_| 1.0), None);
            if r.tree().iter().any(|(k, _)| k.id == n - 1) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        let expect = cap as f64 / n as f64;
        assert!((frac - expect).abs() < 0.02, "{frac} vs {expect}");
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut r = LocalReservoir::new(10, 32, Pool::new(4), 7);
        let s1 = r.process_weighted(&[], Some(0.5));
        let s2 = r.process_weighted(&[], None);
        let s3 = r.process_uniform(&[], Some(0.5));
        assert_eq!(s1.inserted + s2.inserted + s3.inserted, 0);
        assert!(r.is_empty());
        assert_eq!(s1.chunks + s2.chunks + s3.chunks, 0);
        assert!(r.last_scope().is_none(), "an empty batch opens no scope");
    }

    #[test]
    fn persistent_pool_same_sample_zero_spawns() {
        // The crew may not touch the sampling law, nor may sharing it:
        // two reservoirs taking turns on one crew (as a PE's shards do)
        // reproduce the reservoirs of private pools, and the crew keeps
        // its helpers — no thread is spawned per batch.
        let run = |a: &mut LocalReservoir, b: &mut LocalReservoir| {
            for r in [&mut *a, &mut *b] {
                r.process_weighted(&batch(3_000, |i| 1.0 + (i % 7) as f64), None);
            }
            for r in [&mut *a, &mut *b] {
                let t = r.tree().max().unwrap().0.key;
                r.process_weighted(&batch(5_000, |i| 1.0 + (i % 5) as f64), Some(t));
                assert!(r.last_scope().is_some(), "multi-chunk batches run pooled");
            }
            (ids(a), ids(b))
        };
        let make = |pool: &Pool, seed: u64| {
            LocalReservoir::new(50, 32, pool.clone(), seed).with_chunk_items(256)
        };
        let crew = Pool::new(4);
        let shared = run(&mut make(&crew, 98), &mut make(&crew, 99));
        let private = run(&mut make(&Pool::new(4), 98), &mut make(&Pool::new(4), 99));
        assert_eq!(shared, private, "sharing a crew changed the sample");
        assert_ne!(shared.0, shared.1, "distinct seeds, distinct samples");
        assert_eq!(crew.helpers(), 3);
    }

    #[test]
    fn prune_above_and_clear() {
        let mut r = LocalReservoir::new(10, 32, Pool::new(2), 6).with_chunk_items(50);
        r.process_weighted(&batch(200, |_| 1.0), None);
        assert!(r.last_scope().is_some(), "4 chunks on 2 workers run pooled");
        let mut keys: Vec<f64> = r.tree().iter().map(|(k, _)| k.key).collect();
        keys.sort_by(f64::total_cmp);
        let cut = SampleKey::new(keys[4], u64::MAX);
        r.prune_above(&cut);
        assert_eq!(r.len(), 5);
        r.clear();
        assert!(r.is_empty());
    }
}
