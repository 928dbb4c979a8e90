//! In-order walks over the tree.
//!
//! The paper's B+ tree links leaves so neighbours are reachable in O(1).
//! Safe owned-`Box` trees cannot store sibling pointers, and neither walk
//! here keeps a cursor stack of its own. [`visit_leaves`] recurses down the
//! tree on the call stack and hands each nonempty leaf to a visitor as a
//! key-sorted slice, amortized O(1) per leaf; the visitor can stop the walk
//! early. That is how bulk extraction copies the sample out
//! ([`BPlusTree::for_each_leaf`](crate::BPlusTree::for_each_leaf)): a shard
//! fleet extracts hundreds of small trees per collection, so a walk must
//! cost no more than its leaves. [`Iter`] steps entry by entry; at each leaf
//! boundary it descends again from the root to the first leaf past the last
//! key it returned, O(log n) per leaf, which serves successor searches and
//! tests. Neither walk touches the allocator.

use std::ops::ControlFlow;

use crate::node::Node;

/// Hand `f`, in key order, every nonempty run of `node`'s subtree that
/// lies past `after` (`None` = the whole subtree): one slice per leaf,
/// until `f` breaks. Recursion depth is the subtree's height.
pub(crate) fn visit_leaves<'a, K: Ord, V, B>(
    node: &'a Node<K, V>,
    after: Option<&K>,
    f: &mut impl FnMut(&'a [(K, V)]) -> ControlFlow<B>,
) -> ControlFlow<B> {
    match node {
        Node::Leaf(entries) => {
            let from = after.map_or(0, |a| entries.partition_point(|(k, _)| k <= a));
            // Only the root of an empty tree, or the last leaf of a search
            // past the largest key, has nothing to hand out.
            if from < entries.len() {
                f(&entries[from..])
            } else {
                ControlFlow::Continue(())
            }
        }
        Node::Inner(inner) => {
            // `seps[i]` is the largest key under `children[i]`, so every
            // child before the first separator past `after` holds nothing
            // past it, and every child after that one holds only keys past
            // it.
            let first = after.map_or(0, |a| inner.seps.partition_point(|s| s <= a));
            let mut after = after;
            for child in &inner.children[first..] {
                visit_leaves(child, after, f)?;
                after = None;
            }
            ControlFlow::Continue(())
        }
    }
}

/// Borrowing in-order iterator over `(key, value)` pairs.
pub struct Iter<'a, K, V> {
    root: &'a Node<K, V>,
    /// The rest of the current leaf.
    leaf: std::slice::Iter<'a, (K, V)>,
    /// The current leaf's last key, where the search for the next leaf
    /// starts; `None` before the first leaf.
    last: Option<&'a K>,
}

impl<'a, K: Ord, V> Iter<'a, K, V> {
    pub(crate) fn new(root: &'a Node<K, V>) -> Self {
        Iter {
            root,
            leaf: [].iter(),
            last: None,
        }
    }
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                return Some((k, v));
            }
            let ControlFlow::Break(leaf) =
                visit_leaves(self.root, self.last, &mut ControlFlow::Break)
            else {
                return None;
            };
            self.last = leaf.last().map(|(k, _)| k);
            self.leaf = leaf.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;

    use crate::BPlusTree;

    #[test]
    fn iterates_in_order_across_levels() {
        let mut t = BPlusTree::with_degree(4);
        for k in (0..500u64).rev() {
            t.insert(k, ());
        }
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let t: BPlusTree<u64, ()> = BPlusTree::new();
        assert_eq!(t.iter().count(), 0);
        let mut leaves = 0;
        let walk = t.for_each_leaf(|_| {
            leaves += 1;
            ControlFlow::<()>::Continue(())
        });
        assert_eq!((walk, leaves), (ControlFlow::Continue(()), 0));
    }

    #[test]
    fn single_entry() {
        let mut t = BPlusTree::with_degree(4);
        t.insert(42u64, "x");
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all, vec![(&42, &"x")]);
    }

    #[test]
    fn iterator_is_resumable_midway() {
        let mut t = BPlusTree::with_degree(4);
        for k in 0..100u64 {
            t.insert(k, ());
        }
        let mut it = t.iter();
        for _ in 0..37 {
            it.next();
        }
        assert_eq!(it.next().map(|(k, _)| *k), Some(37));
    }
}
