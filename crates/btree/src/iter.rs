//! In-order iteration over the tree.
//!
//! The paper's B+ tree links leaves so neighbours are reachable in O(1).
//! Safe owned-`Box` trees cannot store sibling pointers, so the walk keeps
//! an explicit stack of child cursors instead. [`Leaves`] yields whole leaf
//! slices — amortized O(1) per leaf, worst-case O(log n) — which is how bulk
//! extraction copies the sample out; [`Iter`] flattens those slices for
//! per-entry walks (successor searches, tests).

use crate::node::Node;
use crate::tree::BPlusTree;

/// Borrowing in-order iterator over the tree's nonempty leaves, each as a
/// key-sorted `&[(key, value)]` slice. Concatenated, the slices are exactly
/// [`Iter`]'s sequence; an empty tree yields no slice at all.
pub struct Leaves<'a, K, V> {
    /// One cursor per level on the path to the next leaf: the siblings
    /// still to visit at that level.
    stack: Vec<std::slice::Iter<'a, Node<K, V>>>,
}

impl<'a, K: Ord + Clone, V> Leaves<'a, K, V> {
    pub(crate) fn new(root: &'a Node<K, V>) -> Self {
        Leaves {
            stack: vec![std::slice::from_ref(root).iter()],
        }
    }
}

impl<'a, K: Ord + Clone, V> Iterator for Leaves<'a, K, V> {
    type Item = &'a [(K, V)];

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(level) = self.stack.last_mut() {
            match level.next() {
                None => {
                    self.stack.pop();
                }
                // Only the root of an empty tree is an empty leaf.
                Some(Node::Leaf(entries)) if !entries.is_empty() => {
                    return Some(entries.as_slice())
                }
                Some(Node::Leaf(_)) => {}
                Some(Node::Inner(inner)) => self.stack.push(inner.children.iter()),
            }
        }
        None
    }
}

/// Borrowing in-order iterator over `(key, value)` pairs.
pub struct Iter<'a, K, V> {
    leaves: Leaves<'a, K, V>,
    /// The rest of the current leaf.
    leaf: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K: Ord + Clone, V> Iter<'a, K, V> {
    pub(crate) fn new(root: &'a Node<K, V>) -> Self {
        Iter {
            leaves: Leaves::new(root),
            leaf: [].iter(),
        }
    }
}

impl<'a, K: Ord + Clone, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                return Some((k, v));
            }
            self.leaf = self.leaves.next()?.iter();
        }
    }
}

/// Convenience: collect all keys of a tree (test helper used across crates).
pub fn keys_of<K: Ord + Clone, V>(tree: &BPlusTree<K, V>) -> Vec<K> {
    tree.iter().map(|(k, _)| k.clone()).collect()
}

#[cfg(test)]
mod tests {
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
        assert_eq!(t.leaves().count(), 0);
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
