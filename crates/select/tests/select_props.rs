//! Property tests: every selection strategy must agree with the sort-based
//! oracle for arbitrary key sets, partitions and ranks.

use proptest::prelude::*;
use reservoir_btree::SampleKey;
use reservoir_rng::{default_rng, DefaultRng};
use reservoir_select::{kth_smallest, select_conductor, SelectParams, SortedKeys, TargetRank};

/// Arbitrary finite keys with unique ids; ties in the float part are
/// allowed and must be broken by id.
fn keys_strategy() -> impl Strategy<Value = Vec<SampleKey>> {
    prop::collection::vec((0u32..500, any::<u32>()), 1..300).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (coarse, _))| SampleKey::new(coarse as f64 / 7.0, i as u64))
            .collect()
    })
}

fn partition(keys: &[SampleKey], p: usize) -> Vec<SortedKeys> {
    (0..p)
        .map(|pe| {
            SortedKeys::new(
                keys.iter()
                    .enumerate()
                    .filter(|(i, _)| i % p == pe)
                    .map(|(_, k)| *k)
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pivot_selection_matches_oracle(
        keys in keys_strategy(),
        p in 1usize..6,
        d in 1usize..9,
        k_frac in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let mut oracle = keys.clone();
        oracle.sort_unstable();
        oracle.dedup();
        let n = oracle.len() as u64;
        let k = ((k_frac * n as f64) as u64).clamp(1, n);
        let sets = partition(&oracle, p);
        let refs: Vec<&SortedKeys> = sets.iter().collect();
        let mut rngs: Vec<DefaultRng> = (0..p).map(|i| default_rng(seed + i as u64)).collect();
        let report = select_conductor(
            &refs,
            TargetRank::exact(k),
            SelectParams::with_pivots(d),
            &mut rngs,
        );
        prop_assert_eq!(report.result.threshold, oracle[(k - 1) as usize]);
        prop_assert_eq!(report.result.rank, k);
    }

    #[test]
    fn window_selection_lands_inside(
        keys in keys_strategy(),
        p in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let mut oracle = keys.clone();
        oracle.sort_unstable();
        oracle.dedup();
        let n = oracle.len() as u64;
        prop_assume!(n >= 10);
        let lo = n / 4 + 1;
        let hi = (3 * n) / 4;
        prop_assume!(lo <= hi);
        let sets = partition(&oracle, p);
        let refs: Vec<&SortedKeys> = sets.iter().collect();
        let mut rngs: Vec<DefaultRng> = (0..p).map(|i| default_rng(seed + i as u64)).collect();
        let report = select_conductor(
            &refs,
            TargetRank::range(lo, hi),
            SelectParams::with_pivots(2),
            &mut rngs,
        );
        prop_assert!((lo..=hi).contains(&report.result.rank));
        prop_assert_eq!(
            report.result.threshold,
            oracle[(report.result.rank - 1) as usize]
        );
    }

    #[test]
    fn quickselect_matches_oracle(
        keys in keys_strategy(),
        k_frac in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let mut oracle = keys.clone();
        oracle.sort_unstable();
        let k = ((k_frac * keys.len() as f64) as usize).min(keys.len() - 1);
        let mut work = keys.clone();
        let mut rng = default_rng(seed);
        let got = kth_smallest(&mut work, k, &mut rng);
        prop_assert_eq!(got, oracle[k]);
    }
}
