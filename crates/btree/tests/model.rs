//! Property-based model tests: the B+ tree must behave exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences, and all
//! structural invariants must hold after every operation.

use proptest::prelude::*;
use reservoir_btree::{BPlusTree, SampleKey};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    SplitKeyInclusive(u64),
    SplitKeyExclusive(u64),
    SplitRank(usize),
    PopMin,
    PopMax,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..500, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0u64..500).prop_map(Op::Remove),
        1 => (0u64..500).prop_map(Op::SplitKeyInclusive),
        1 => (0u64..500).prop_map(Op::SplitKeyExclusive),
        1 => (0usize..600).prop_map(Op::SplitRank),
        1 => Just(Op::PopMin),
        2 => Just(Op::PopMax),
    ]
}

fn check_equal(tree: &BPlusTree<u64, u32>, model: &BTreeMap<u64, u32>) {
    tree.check_invariants();
    assert_eq!(tree.len(), model.len());
    let tree_pairs: Vec<(u64, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
    let model_pairs: Vec<(u64, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(tree_pairs, model_pairs);
    // The leaf-slice walk is the same sequence, cut at leaf boundaries,
    // with no empty slices (an empty tree yields none at all).
    let leaves: Vec<&[(u64, u32)]> = tree.leaves().collect();
    assert!(leaves.iter().all(|l| !l.is_empty()), "empty leaf slice");
    assert_eq!(leaves.concat(), tree_pairs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn behaves_like_btreemap(
        prefill in 0usize..600,
        ops in prop::collection::vec(op_strategy(), 1..120),
        degree in 4usize..33,
    ) {
        let mut tree: BPlusTree<u64, u32> = BPlusTree::with_degree(degree);
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        // Scrambled distinct keys below 1009 first, so small degrees start
        // at height >= 3 and the ops reach the repairs of a deep tree.
        for i in 0..prefill as u64 {
            let k = i * 7919 % 1009;
            prop_assert_eq!(tree.insert(k, i as u32), model.insert(k, i as u32));
        }
        check_equal(&tree, &model);
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                Op::SplitKeyInclusive(k) => {
                    // Split and immediately rejoin: contents must survive.
                    let right = tree.split_at_key(&k, true);
                    prop_assert!(tree.iter().all(|(kk, _)| *kk <= k));
                    prop_assert!(right.iter().all(|(kk, _)| *kk > k));
                    right.check_invariants();
                    tree = std::mem::take(&mut tree).join(right);
                }
                Op::SplitKeyExclusive(k) => {
                    let right = tree.split_at_key(&k, false);
                    prop_assert!(tree.iter().all(|(kk, _)| *kk < k));
                    prop_assert!(right.iter().all(|(kk, _)| *kk >= k));
                    right.check_invariants();
                    tree = std::mem::take(&mut tree).join(right);
                }
                Op::SplitRank(r) => {
                    let right = tree.split_at_rank(r);
                    prop_assert_eq!(tree.len(), r.min(model.len()));
                    right.check_invariants();
                    tree = std::mem::take(&mut tree).join(right);
                }
                Op::PopMin => {
                    let want = model.iter().next().map(|(k, v)| (*k, *v));
                    if let Some((k, _)) = want {
                        model.remove(&k);
                    }
                    prop_assert_eq!(tree.pop_min(), want);
                }
                Op::PopMax => {
                    prop_assert_eq!(tree.pop_max(), model.pop_last());
                }
            }
            check_equal(&tree, &model);
        }
    }

    #[test]
    fn rank_select_consistency(keys in prop::collection::btree_set(0u64..10_000, 0..400), degree in 4usize..17) {
        let mut tree: BPlusTree<u64, ()> = BPlusTree::with_degree(degree);
        for &k in &keys {
            tree.insert(k, ());
        }
        let sorted: Vec<u64> = keys.iter().copied().collect();
        for (i, &k) in sorted.iter().enumerate() {
            prop_assert_eq!(tree.rank(&k), i);
            prop_assert_eq!(tree.count_le(&k), i + 1);
            let (sk, _) = tree.select(i).expect("in range");
            prop_assert_eq!(*sk, k);
        }
        // rank of a key not in the tree equals the number of smaller keys.
        for probe in [0u64, 1, 4_999, 10_000, 20_000] {
            let expect = sorted.iter().filter(|&&k| k < probe).count();
            prop_assert_eq!(tree.rank(&probe), expect);
        }
        prop_assert_eq!(tree.select(sorted.len()), None);
    }

    #[test]
    fn split_rank_then_rejoin_is_identity(n in 0usize..500, r in 0usize..700, degree in 4usize..17) {
        let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 3, i)).collect();
        let mut tree = BPlusTree::from_sorted(entries.clone(), degree);
        let right = tree.split_at_rank(r);
        let rejoined = tree.join(right);
        rejoined.check_invariants();
        let got: Vec<(u64, u64)> = rejoined.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, entries);
    }

    #[test]
    fn from_sorted_equals_incremental(n in 0usize..800, degree in 4usize..33) {
        let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 7 + 1, i)).collect();
        let bulk = BPlusTree::from_sorted(entries.clone(), degree);
        bulk.check_invariants();
        let mut inc = BPlusTree::with_degree(degree);
        for (k, v) in &entries {
            inc.insert(*k, *v);
        }
        let a: Vec<_> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<_> = inc.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sample_key_order_is_total(pairs in prop::collection::vec((any::<f64>(), any::<u64>()), 0..100)) {
        // NaN never occurs in the samplers; filter it here.
        let mut keys: Vec<SampleKey> = pairs
            .into_iter()
            .filter(|(f, _)| !f.is_nan())
            .map(|(f, id)| SampleKey::new(f, id))
            .collect();
        keys.sort();
        for w in keys.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Insertion into the tree must succeed for arbitrary finite floats.
        let mut tree: BPlusTree<SampleKey, ()> = BPlusTree::with_degree(8);
        for k in &keys {
            tree.insert(*k, ());
        }
        tree.check_invariants();
    }
}
