//! Edge cases for the augmented B+ tree's rank/select/split/join surface:
//! empty trees, single elements, duplicate-key inserts, and splits that
//! land exactly on node or collection boundaries.

use reservoir_btree::{BPlusTree, SampleKey, DEFAULT_DEGREE, MIN_DEGREE};

fn tree_of(keys: impl IntoIterator<Item = u64>, degree: usize) -> BPlusTree<u64, u64> {
    let mut t = BPlusTree::with_degree(degree);
    for k in keys {
        t.insert(k, k);
    }
    t
}

#[test]
fn empty_tree_queries() {
    let t: BPlusTree<u64, u64> = BPlusTree::new();
    assert_eq!(t.len(), 0);
    assert!(t.is_empty());
    assert_eq!(t.degree(), DEFAULT_DEGREE);
    assert_eq!(t.get(&5), None);
    assert!(!t.contains(&5));
    assert_eq!(t.min(), None);
    assert_eq!(t.max(), None);
    assert_eq!(t.rank(&5), 0);
    assert_eq!(t.count_le(&5), 0);
    assert_eq!(t.select(0), None);
    assert_eq!(t.iter().count(), 0);
    t.check_invariants();
}

#[test]
fn empty_tree_split_and_join() {
    let mut t: BPlusTree<u64, u64> = BPlusTree::with_degree(MIN_DEGREE);
    let right = t.split_at_key(&10, true);
    assert!(t.is_empty() && right.is_empty());
    let right = t.split_at_rank(0);
    assert!(t.is_empty() && right.is_empty());
    // empty ⋈ empty, empty ⋈ nonempty, nonempty ⋈ empty.
    let joined = t.join(BPlusTree::with_degree(MIN_DEGREE));
    assert!(joined.is_empty());
    let joined = joined.join(tree_of(0..5, MIN_DEGREE));
    assert_eq!(joined.len(), 5);
    let joined = joined.join(BPlusTree::with_degree(MIN_DEGREE));
    assert_eq!(joined.len(), 5);
    joined.check_invariants();
    assert_eq!(joined.min().map(|(k, _)| *k), Some(0));
}

#[test]
fn empty_tree_pop_and_remove() {
    let mut t: BPlusTree<u64, u64> = BPlusTree::new();
    assert_eq!(t.pop_min(), None);
    assert_eq!(t.remove(&1), None);
    t.check_invariants();
}

#[test]
fn single_element_full_surface() {
    let mut t = tree_of([42], MIN_DEGREE);
    t.check_invariants();
    assert_eq!(t.len(), 1);
    assert_eq!(t.min(), t.max());
    assert_eq!(t.rank(&42), 0);
    assert_eq!(t.rank(&43), 1);
    assert_eq!(t.count_le(&42), 1);
    assert_eq!(t.select(0).map(|(k, _)| *k), Some(42));
    assert_eq!(t.select(1), None);
    // Split on either side of the only key.
    let right = t.split_at_key(&42, true);
    assert_eq!((t.len(), right.len()), (1, 0));
    let right = t.split_at_key(&42, false);
    assert_eq!((t.len(), right.len()), (0, 1));
    let mut t = right;
    let right = t.split_at_rank(1);
    assert_eq!((t.len(), right.len()), (1, 0));
    assert_eq!(t.pop_min(), Some((42, 42)));
    assert!(t.is_empty());
}

#[test]
fn duplicate_keys_replace_not_grow() {
    let mut t: BPlusTree<u64, u64> = BPlusTree::with_degree(MIN_DEGREE);
    for round in 0..5u64 {
        for k in 0..40u64 {
            assert_eq!(
                t.insert(k, k * 100 + round),
                (round > 0).then(|| k * 100 + round - 1),
                "round {round} key {k}"
            );
        }
        t.check_invariants();
        assert_eq!(t.len(), 40, "round {round}");
    }
    for k in 0..40u64 {
        assert_eq!(t.get(&k), Some(&(k * 100 + 4)));
    }
}

#[test]
fn duplicate_float_keys_distinguished_by_id() {
    // SampleKey ties on the float are broken by id, so "duplicates" are
    // distinct entries — the property the samplers rely on.
    let mut t: BPlusTree<SampleKey, u64> = BPlusTree::with_degree(MIN_DEGREE);
    for id in 0..100u64 {
        t.insert(SampleKey::new(1.0, id), id);
    }
    t.check_invariants();
    assert_eq!(t.len(), 100);
    assert_eq!(t.rank(&SampleKey::new(1.0, 50)), 50);
    assert_eq!(t.count_le(&SampleKey::new(1.0, 50)), 51);
    // Re-inserting an exact (key, id) pair replaces.
    assert_eq!(t.insert(SampleKey::new(1.0, 7), 700), Some(7));
    assert_eq!(t.len(), 100);
}

#[test]
fn split_at_every_boundary_of_a_multi_level_tree() {
    // With degree 4, 64 keys give a three-level tree; leaf boundaries sit
    // at multiples of small node sizes. Split at *every* rank and check
    // both halves plus the rejoin.
    let n = 64u64;
    for r in 0..=n {
        let mut left = tree_of(0..n, 4);
        let right = left.split_at_rank(r as usize);
        left.check_invariants();
        right.check_invariants();
        assert_eq!(left.len() as u64, r);
        assert_eq!(right.len() as u64, n - r);
        if r > 0 {
            assert_eq!(left.max().map(|(k, _)| *k), Some(r - 1));
        }
        if r < n {
            assert_eq!(right.min().map(|(k, _)| *k), Some(r));
        }
        let rejoined = left.join(right);
        rejoined.check_invariants();
        assert_eq!(rejoined.len() as u64, n);
    }
}

#[test]
fn split_at_key_below_min_and_above_max() {
    let mut t = tree_of(10..20, MIN_DEGREE);
    let right = t.split_at_key(&0, true);
    assert_eq!((t.len(), right.len()), (0, 10));
    right.check_invariants();
    let mut t = right;
    let right = t.split_at_key(&99, false);
    assert_eq!((t.len(), right.len()), (10, 0));
    t.check_invariants();
}

#[test]
fn split_at_rank_beyond_len_is_empty_right() {
    let mut t = tree_of(0..10, MIN_DEGREE);
    let right = t.split_at_rank(10);
    assert!(right.is_empty());
    assert_eq!(t.len(), 10);
    let right = t.split_at_rank(1_000);
    assert!(right.is_empty());
    assert_eq!(t.len(), 10);
}

#[test]
fn from_sorted_boundary_sizes() {
    // Sizes around the degree and the half-fill rule of `from_sorted`.
    for degree in [MIN_DEGREE, 8, DEFAULT_DEGREE] {
        for n in [
            0usize,
            1,
            degree - 1,
            degree,
            degree + 1,
            2 * degree,
            2 * degree + 1,
        ] {
            let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i, i)).collect();
            let t = BPlusTree::from_sorted(entries, degree);
            t.check_invariants();
            assert_eq!(t.len(), n, "degree {degree} n {n}");
        }
    }
}

#[test]
fn pop_max_on_empty_then_single_entry() {
    let mut t: BPlusTree<u64, u64> = BPlusTree::with_degree(MIN_DEGREE);
    assert_eq!(t.pop_max(), None);
    t.check_invariants();
    t.insert(7, 70);
    assert_eq!(t.pop_max(), Some((7, 70)));
    assert!(t.is_empty());
    t.check_invariants();
    assert_eq!(t.pop_max(), None);
}

#[test]
fn pop_max_drains_a_deep_tree_through_every_repair() {
    // A scrambled insertion order leaves nodes at assorted fills, so the
    // drain meets the borrow and the merge at both node kinds.
    let n = 300u64;
    let mut t = tree_of((0..n).map(|i| (i * 7919) % n), MIN_DEGREE);
    assert!(t.height() >= 3, "height {}", t.height());
    // Leaf borrow, leaf merge, inner borrow, inner merge, root collapse.
    let mut seen = [0usize; 5];
    let mut before = t.level_fills();
    for want in (0..n).rev() {
        assert_eq!(t.pop_max(), Some((want, want)));
        t.check_invariants();
        let after = t.level_fills();
        if after.len() < before.len() {
            seen[4] += 1;
        }
        // Compare level by level from the leaves up. A merge drops a node
        // from its level; a borrow shrinks the last node's left sibling,
        // which nothing else on that level touches.
        for (up, (b, a)) in before.iter().rev().zip(after.iter().rev()).enumerate() {
            let kind = if up == 0 { 0 } else { 2 };
            if a.len() < b.len() {
                seen[kind + 1] += 1;
            } else if b.len() >= 2 && a[b.len() - 2] < b[b.len() - 2] {
                seen[kind] += 1;
            }
        }
        before = after;
    }
    assert!(t.is_empty());
    assert_eq!(t.pop_max(), None);
    assert!(seen.iter().all(|&c| c > 0), "repairs seen: {seen:?}");
}
