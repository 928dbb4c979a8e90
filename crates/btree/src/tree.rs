//! The public B+ tree type and its algorithms.

use std::mem;
use std::ops::ControlFlow;

use crate::iter::{visit_leaves, Iter};
use crate::node::{split_inner, split_leaf, Inner, Node, Spill};
use crate::{DEFAULT_DEGREE, MIN_DEGREE};

/// An order-statistics B+ tree: a search tree over unique keys supporting
/// `insert`, `get`, `rank`, `select`, `pop_max`, `split_at_key`,
/// `split_at_rank` and `join`, all in O(log n) (splits: O(log² n) via
/// joins).
///
/// This is the local-reservoir structure of the paper (Section 3.2): each PE
/// keeps its part of the distributed sample in one of these, keyed by
/// [`SampleKey`](crate::SampleKey).
pub struct BPlusTree<K: Ord + Clone, V> {
    root: Node<K, V>,
    degree: usize,
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Empty tree with the default node degree.
    pub fn new() -> Self {
        Self::with_degree(DEFAULT_DEGREE)
    }

    /// Empty tree with maximum node degree `degree` (≥ [`MIN_DEGREE`]).
    pub fn with_degree(degree: usize) -> Self {
        assert!(
            degree >= MIN_DEGREE,
            "degree {degree} < MIN_DEGREE {MIN_DEGREE}"
        );
        BPlusTree {
            root: Node::empty_leaf(),
            degree,
        }
    }

    /// Build from strictly increasing `(key, value)` pairs in O(n).
    pub fn from_sorted(entries: Vec<(K, V)>, degree: usize) -> Self {
        assert!(degree >= MIN_DEGREE);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted requires strictly increasing keys"
        );
        if entries.is_empty() {
            return Self::with_degree(degree);
        }
        let min_fill = degree / 2;
        // Chunk entries into leaves, keeping every leaf at least half full.
        let mut level: Vec<Node<K, V>> = Vec::with_capacity(entries.len() / degree + 1);
        let mut entries = entries;
        while !entries.is_empty() {
            let take = if entries.len() > degree && entries.len() < degree + min_fill {
                // Splitting `degree..degree+min_fill` entries evenly keeps
                // both final leaves at least half full.
                entries.len() / 2
            } else {
                entries.len().min(degree)
            };
            let rest = entries.split_off(take);
            level.push(Node::Leaf(entries));
            entries = rest;
        }
        // Build inner levels until a single root remains.
        while level.len() > 1 {
            let mut next: Vec<Node<K, V>> = Vec::with_capacity(level.len() / 2 + 1);
            let mut nodes = level;
            while !nodes.is_empty() {
                let take = if nodes.len() > degree && nodes.len() < degree + min_fill {
                    nodes.len() / 2
                } else {
                    nodes.len().min(degree)
                };
                let rest = nodes.split_off(take);
                if nodes.len() == 1 {
                    // A single leftover child would make an invalid inner
                    // node; only possible when this is the final root level.
                    next.push(nodes.pop().expect("one node"));
                } else {
                    let seps = nodes[..nodes.len() - 1]
                        .iter()
                        .map(|c| c.max_key().expect("nonempty").clone())
                        .collect();
                    next.push(Node::Inner(Inner::from_parts(seps, nodes)));
                }
                nodes = rest;
            }
            level = next;
        }
        BPlusTree {
            root: level.pop().expect("nonempty level"),
            degree,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.root.size()
    }

    /// Levels below the root: 0 while the root is a leaf. O(log n).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// Whether the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The maximum node degree this tree was built with.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.root = Node::empty_leaf();
    }

    /// Insert `(k, v)`; returns the previous value if `k` was present.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let (replaced, spill) = insert_rec(&mut self.root, k, v, self.degree);
        if let Spill::Split { sep, right } = spill {
            let old_root = mem::replace(&mut self.root, Node::empty_leaf());
            self.root = Node::Inner(Inner::from_parts(vec![sep], vec![old_root, right]));
        }
        replaced
    }

    /// Look up the value stored under `k`.
    pub fn get(&self, k: &K) -> Option<&V> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(entries) => {
                    return entries
                        .binary_search_by(|(kk, _)| kk.cmp(k))
                        .ok()
                        .map(|i| &entries[i].1);
                }
                Node::Inner(inner) => {
                    let i = inner.route(k).min(inner.children.len() - 1);
                    node = &inner.children[i];
                }
            }
        }
    }

    /// Whether `k` is present.
    pub fn contains(&self, k: &K) -> bool {
        self.get(k).is_some()
    }

    /// Smallest entry, if any.
    pub fn min(&self) -> Option<(&K, &V)> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(entries) => return entries.first().map(|(k, v)| (k, v)),
                Node::Inner(inner) => node = inner.children.first().expect("children"),
            }
        }
    }

    /// Largest entry, if any.
    pub fn max(&self) -> Option<(&K, &V)> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(entries) => return entries.last().map(|(k, v)| (k, v)),
                Node::Inner(inner) => node = inner.children.last().expect("children"),
            }
        }
    }

    /// Number of entries with keys **strictly below** `k`. O(log n).
    pub fn rank(&self, k: &K) -> usize {
        let mut node = &self.root;
        let mut acc = 0;
        loop {
            match node {
                Node::Leaf(entries) => {
                    return acc + entries.partition_point(|(kk, _)| kk < k);
                }
                Node::Inner(inner) => {
                    let i = inner.seps.partition_point(|s| s < k);
                    acc += inner.children[..i].iter().map(Node::size).sum::<usize>();
                    node = &inner.children[i.min(inner.children.len() - 1)];
                    if i >= inner.children.len() {
                        // All separators < k and we already counted every
                        // child except the last; continue into the last.
                        unreachable!("route index bounded by children.len() - 1");
                    }
                }
            }
        }
    }

    /// Number of entries with keys `<= k`. O(log n).
    pub fn count_le(&self, k: &K) -> usize {
        let mut node = &self.root;
        let mut acc = 0;
        loop {
            match node {
                Node::Leaf(entries) => {
                    return acc + entries.partition_point(|(kk, _)| kk <= k);
                }
                Node::Inner(inner) => {
                    let i = inner
                        .seps
                        .partition_point(|s| s <= k)
                        .min(inner.children.len() - 1);
                    acc += inner.children[..i].iter().map(Node::size).sum::<usize>();
                    node = &inner.children[i];
                }
            }
        }
    }

    /// The entry with the `r`-th smallest key (0-based). O(log n).
    pub fn select(&self, r: usize) -> Option<(&K, &V)> {
        if r >= self.len() {
            return None;
        }
        let mut node = &self.root;
        let mut r = r;
        loop {
            match node {
                Node::Leaf(entries) => {
                    let (k, v) = &entries[r];
                    return Some((k, v));
                }
                Node::Inner(inner) => {
                    let mut i = 0;
                    while r >= inner.children[i].size() {
                        r -= inner.children[i].size();
                        i += 1;
                    }
                    node = &inner.children[i];
                }
            }
        }
    }

    /// Split off and return every entry with key above the cut:
    /// `self` keeps keys `<= k` when `inclusive`, `< k` otherwise.
    /// O(log² n) worst case.
    pub fn split_at_key(&mut self, k: &K, inclusive: bool) -> Self {
        let degree = self.degree;
        let root = mem::replace(&mut self.root, Node::empty_leaf());
        let (left, right) = split_node_key(root, k, inclusive, degree);
        self.root = left.map(Node::collapse).unwrap_or_else(Node::empty_leaf);
        BPlusTree {
            root: right.map(Node::collapse).unwrap_or_else(Node::empty_leaf),
            degree,
        }
    }

    /// Split off and return everything but the `r` smallest entries;
    /// `self` keeps exactly `min(r, len)` entries. O(log² n) worst case.
    pub fn split_at_rank(&mut self, r: usize) -> Self {
        let degree = self.degree;
        if r >= self.len() {
            return Self::with_degree(degree);
        }
        let root = mem::replace(&mut self.root, Node::empty_leaf());
        let (left, right) = split_node_rank(root, r, degree);
        self.root = left.map(Node::collapse).unwrap_or_else(Node::empty_leaf);
        BPlusTree {
            root: right.map(Node::collapse).unwrap_or_else(Node::empty_leaf),
            degree,
        }
    }

    /// Concatenate two trees; every key of `self` must be smaller than every
    /// key of `other` (checked in debug builds). O(log n).
    pub fn join(self, other: Self) -> Self {
        assert_eq!(
            self.degree, other.degree,
            "cannot join trees of different degree"
        );
        debug_assert!(
            self.is_empty()
                || other.is_empty()
                || self.max().expect("nonempty").0 < other.min().expect("nonempty").0,
            "join requires all left keys < all right keys"
        );
        let degree = self.degree;
        let root =
            join_nodes(Some(self.root), Some(other.root), degree).unwrap_or_else(Node::empty_leaf);
        BPlusTree {
            root: root.collapse(),
            degree,
        }
    }

    /// Remove the entry under `k`, if present. O(log² n) — composed from
    /// split and join. The one single-item delete on a hot path, the
    /// growing-mode eviction, uses the in-place [`Self::pop_max`]; bulk
    /// discards use `split_at_key`.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        if !self.contains(k) {
            return None;
        }
        let tail = self.split_at_key(k, false);
        let mut matched = tail;
        let rest = matched.split_at_rank(1);
        let value = matched
            .into_iter()
            .next()
            .map(|(_, v)| v)
            .expect("split_at_key(exclusive) put the matching key first");
        let left = mem::replace(self, Self::with_degree(self.degree));
        *self = left.join(rest);
        Some(value)
    }

    /// Remove and return the smallest entry. O(log² n).
    pub fn pop_min(&mut self) -> Option<(K, V)> {
        if self.is_empty() {
            return None;
        }
        let rest = {
            let mut head = mem::replace(self, Self::with_degree(self.degree));
            let rest = head.split_at_rank(1);
            let entry = head.into_iter().next().expect("nonempty head");
            *self = rest;
            entry
        };
        Some(rest)
    }

    /// Remove and return the largest entry. O(log n) and in place: one
    /// walk down the rightmost spine, with no split or join; it allocates
    /// only when a merge grows a left sibling. This is the growing-mode
    /// reservoir's eviction.
    pub fn pop_max(&mut self) -> Option<(K, V)> {
        let popped = pop_max_rec(&mut self.root, self.degree / 2);
        if let Node::Inner(inner) = &mut self.root {
            if inner.children.len() == 1 {
                self.root = inner.children.pop().expect("one child");
            }
        }
        popped
    }

    /// In-order iterator over `(key, value)` references.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::new(&self.root)
    }

    /// Hand `f` the nonempty leaves in key order, each as a key-sorted
    /// slice, until `f` breaks; returns the break, if any. This is the
    /// bulk-copy walk: a caller extends from one slice per leaf instead of
    /// stepping entry by entry, and stops at the first leaf it does not
    /// take whole. The walk recurses on the call stack, so it never
    /// allocates, and its cost is the leaves it visits.
    pub fn for_each_leaf<'a, B>(
        &'a self,
        mut f: impl FnMut(&'a [(K, V)]) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        visit_leaves(&self.root, None, &mut f)
    }

    /// Verify every structural invariant; panics on violation. Test helper.
    #[doc(hidden)]
    pub fn check_invariants(&self)
    where
        K: std::fmt::Debug,
    {
        let h = self.root.height();
        crate::node::check_node(&self.root, self.degree, true, h);
    }

    /// Each level's node fills in key order, root level first: children
    /// per inner node, entries per leaf. Test helper for tests that follow
    /// how an operation reshapes the tree.
    #[doc(hidden)]
    pub fn level_fills(&self) -> Vec<Vec<usize>> {
        let mut levels = Vec::new();
        let mut level = vec![&self.root];
        while !level.is_empty() {
            let mut fills = Vec::with_capacity(level.len());
            let mut below = Vec::new();
            for node in level {
                match node {
                    Node::Leaf(entries) => fills.push(entries.len()),
                    Node::Inner(inner) => {
                        fills.push(inner.children.len());
                        below.extend(&inner.children);
                    }
                }
            }
            levels.push(fills);
            level = below;
        }
        levels
    }
}

impl<'a, K: Ord + Clone, V> IntoIterator for &'a BPlusTree<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

/// Consuming iteration yields owned entries in key order.
impl<K: Ord + Clone, V> IntoIterator for BPlusTree<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;
    fn into_iter(self) -> Self::IntoIter {
        let mut out = Vec::with_capacity(self.len());
        drain_node(self.root, &mut out);
        out.into_iter()
    }
}

fn drain_node<K: Ord + Clone, V>(node: Node<K, V>, out: &mut Vec<(K, V)>) {
    match node {
        Node::Leaf(entries) => out.extend(entries),
        Node::Inner(inner) => {
            for child in inner.children {
                drain_node(child, out);
            }
        }
    }
}

/// Recursive insert; returns (replaced value, spill for the parent).
fn insert_rec<K: Ord + Clone, V>(
    node: &mut Node<K, V>,
    k: K,
    v: V,
    degree: usize,
) -> (Option<V>, Spill<K, V>) {
    match node {
        Node::Leaf(entries) => match entries.binary_search_by(|(kk, _)| kk.cmp(&k)) {
            Ok(i) => (Some(mem::replace(&mut entries[i].1, v)), Spill::None),
            Err(i) => {
                entries.insert(i, (k, v));
                if entries.len() > degree {
                    (None, split_leaf(entries))
                } else {
                    (None, Spill::None)
                }
            }
        },
        Node::Inner(inner) => {
            let i = inner.route(&k).min(inner.children.len() - 1);
            let (replaced, spill) = insert_rec(&mut inner.children[i], k, v, degree);
            if replaced.is_none() {
                inner.size += 1;
            }
            match spill {
                Spill::None => {
                    // The child may have grown a new max; the separator for
                    // the *last* child does not exist, and for others the
                    // separator only changes when the new key became the
                    // child's max, i.e. routed past the old separator —
                    // impossible by the routing rule. Nothing to fix.
                    (replaced, Spill::None)
                }
                Spill::Split { sep, right } => {
                    inner.seps.insert(i, sep);
                    inner.children.insert(i + 1, right);
                    if inner.children.len() > degree {
                        (replaced, split_inner(inner))
                    } else {
                        (replaced, Spill::None)
                    }
                }
            }
        }
    }
}

/// Pop the largest entry below `node`, decrementing the cached sizes on
/// the way back up. A last child the pop left underfull is repaired from
/// its left sibling: borrow that sibling's last entry (or child) and
/// refresh the one separator between them, or merge into the sibling. The
/// last child has no separator, so no other separator changes.
fn pop_max_rec<K: Ord + Clone, V>(node: &mut Node<K, V>, min_fill: usize) -> Option<(K, V)> {
    let inner = match node {
        Node::Leaf(entries) => return entries.pop(),
        Node::Inner(inner) => inner,
    };
    let popped = pop_max_rec(inner.children.last_mut().expect("children"), min_fill)?;
    inner.size -= 1;
    let [.., left, last] = inner.children.as_mut_slice() else {
        unreachable!("inner nodes have at least two children");
    };
    let sep = inner.seps.last_mut().expect("two children, one separator");
    match (left, last) {
        (Node::Leaf(l), Node::Leaf(r)) if r.len() < min_fill => {
            if l.len() > min_fill {
                r.insert(0, l.pop().expect("nonempty leaf"));
                *sep = l.last().expect("nonempty leaf").0.clone();
            } else {
                l.append(r);
                inner.children.pop();
                inner.seps.pop();
            }
        }
        (Node::Inner(l), Node::Inner(r)) if r.children.len() < min_fill => {
            if l.children.len() > min_fill {
                // Rotate `l`'s last child over: the parent separator (the
                // moved child's max) goes down into `r`, and `l`'s last
                // separator (its new max) comes up.
                let child = l.children.pop().expect("nonempty inner");
                l.size -= child.size();
                r.size += child.size();
                let up = l.seps.pop().expect("nonempty inner");
                r.seps.insert(0, mem::replace(sep, up));
                r.children.insert(0, child);
            } else {
                l.seps.push(inner.seps.pop().expect("two children"));
                l.seps.append(&mut r.seps);
                l.children.append(&mut r.children);
                l.size += r.size;
                inner.children.pop();
            }
        }
        _ => {}
    }
    Some(popped)
}

/// Result of attaching a subtree along a spine.
enum Attach<K, V> {
    Done(Node<K, V>),
    Split {
        left: Node<K, V>,
        sep: K,
        right: Node<K, V>,
    },
}

fn finish_attach<K: Ord + Clone, V>(attach: Attach<K, V>) -> Node<K, V> {
    match attach {
        Attach::Done(n) => n,
        Attach::Split { left, sep, right } => {
            Node::Inner(Inner::from_parts(vec![sep], vec![left, right]))
        }
    }
}

/// Combine sibling node contents at equal height into one or two valid
/// nodes. `sep` is the max key of `left`'s subtree.
fn merge_level<K: Ord + Clone, V>(
    left: Node<K, V>,
    sep: K,
    right: Node<K, V>,
    degree: usize,
) -> Attach<K, V> {
    match (left, right) {
        (Node::Leaf(mut l), Node::Leaf(r)) => {
            if l.len() + r.len() <= degree {
                l.extend(r);
                Attach::Done(Node::Leaf(l))
            } else {
                let mut combined = l;
                combined.extend(r);
                let mid = combined.len() / 2;
                let right_half = combined.split_off(mid);
                let sep = combined.last().expect("nonempty half").0.clone();
                Attach::Split {
                    left: Node::Leaf(combined),
                    sep,
                    right: Node::Leaf(right_half),
                }
            }
        }
        (Node::Inner(l), Node::Inner(r)) => {
            let mut children = l.children;
            let mut seps = l.seps;
            seps.push(sep);
            seps.extend(r.seps);
            children.extend(r.children);
            rebuild_or_split(seps, children, degree)
        }
        _ => unreachable!("merge_level called on nodes of different heights"),
    }
}

/// Build one inner node, or split into two if over capacity.
fn rebuild_or_split<K: Ord + Clone, V>(
    mut seps: Vec<K>,
    mut children: Vec<Node<K, V>>,
    degree: usize,
) -> Attach<K, V> {
    if children.len() <= degree {
        return Attach::Done(Node::Inner(Inner::from_parts(seps, children)));
    }
    let mid = children.len() / 2;
    let right_children: Vec<Node<K, V>> = children.split_off(mid);
    let mut right_seps = seps.split_off(mid - 1);
    let sep = right_seps.remove(0);
    Attach::Split {
        left: Node::Inner(Inner::from_parts(seps, children)),
        sep,
        right: Node::Inner(Inner::from_parts(right_seps, right_children)),
    }
}

/// Attach `attach` (whose height is `node.height() - depth`) at the right
/// end of `node`'s rightmost spine. `sep` is the max key left of `attach`.
fn attach_right<K: Ord + Clone, V>(
    node: Node<K, V>,
    sep: K,
    attach: Node<K, V>,
    depth: usize,
    degree: usize,
) -> Attach<K, V> {
    if depth == 0 {
        return merge_level(node, sep, attach, degree);
    }
    let Node::Inner(inner) = node else {
        unreachable!("positive depth implies an inner node");
    };
    let mut children = inner.children;
    let mut seps = inner.seps;
    let last = children.pop().expect("inner nodes have children");
    match attach_right(last, sep, attach, depth - 1, degree) {
        Attach::Done(child) => {
            children.push(child);
            Attach::Done(Node::Inner(Inner::from_parts(seps, children)))
        }
        Attach::Split { left, sep, right } => {
            children.push(left);
            seps.push(sep);
            children.push(right);
            rebuild_or_split(seps, children, degree)
        }
    }
}

/// Mirror of [`attach_right`]: attach at the left end of the leftmost spine.
fn attach_left<K: Ord + Clone, V>(
    node: Node<K, V>,
    sep: K,
    attach: Node<K, V>,
    depth: usize,
    degree: usize,
) -> Attach<K, V> {
    if depth == 0 {
        return merge_level(attach, sep, node, degree);
    }
    let Node::Inner(inner) = node else {
        unreachable!("positive depth implies an inner node");
    };
    let mut children = inner.children;
    let mut seps = inner.seps;
    let first = children.remove(0);
    match attach_left(first, sep, attach, depth - 1, degree) {
        Attach::Done(child) => {
            children.insert(0, child);
            Attach::Done(Node::Inner(Inner::from_parts(seps, children)))
        }
        Attach::Split { left, sep, right } => {
            children.insert(0, right);
            children.insert(0, left);
            seps.insert(0, sep);
            rebuild_or_split(seps, children, degree)
        }
    }
}

/// Join two (optional) subtrees; all keys in `l` must precede all keys in
/// `r`. Roots may be underfull; everything below must satisfy invariants.
fn join_nodes<K: Ord + Clone, V>(
    l: Option<Node<K, V>>,
    r: Option<Node<K, V>>,
    degree: usize,
) -> Option<Node<K, V>> {
    let l = l.filter(|n| n.size() > 0);
    let r = r.filter(|n| n.size() > 0);
    match (l, r) {
        (None, x) => x,
        (x, None) => x,
        (Some(l), Some(r)) => {
            let (hl, hr) = (l.height(), r.height());
            let sep = l.max_key().expect("nonempty").clone();
            let attach = if hl >= hr {
                attach_right(l, sep, r, hl - hr, degree)
            } else {
                attach_left(r, sep, l, hr - hl, degree)
            };
            Some(finish_attach(attach))
        }
    }
}

/// Turn a run of sibling children (with the separators between them) into a
/// standalone subtree root. The root may be underfull, which `join_nodes`
/// tolerates.
fn fragment<K: Ord + Clone, V>(seps: Vec<K>, mut children: Vec<Node<K, V>>) -> Option<Node<K, V>> {
    match children.len() {
        0 => None,
        1 => Some(children.pop().expect("one child")),
        _ => Some(Node::Inner(Inner::from_parts(seps, children))),
    }
}

/// The two (possibly empty) halves a split produces.
type SplitHalves<K, V> = (Option<Node<K, V>>, Option<Node<K, V>>);

/// Split `node` around key `k`. Left gets keys `<= k` (inclusive) or `< k`.
fn split_node_key<K: Ord + Clone, V>(
    node: Node<K, V>,
    k: &K,
    inclusive: bool,
    degree: usize,
) -> SplitHalves<K, V> {
    match node {
        Node::Leaf(mut entries) => {
            let idx = if inclusive {
                entries.partition_point(|(kk, _)| kk <= k)
            } else {
                entries.partition_point(|(kk, _)| kk < k)
            };
            let right = entries.split_off(idx);
            (
                (!entries.is_empty()).then_some(Node::Leaf(entries)),
                (!right.is_empty()).then_some(Node::Leaf(right)),
            )
        }
        Node::Inner(inner) => {
            let mut children = inner.children;
            let mut seps = inner.seps;
            // First child whose subtree max lands right of the cut.
            let i = if inclusive {
                seps.partition_point(|s| s <= k)
            } else {
                seps.partition_point(|s| s < k)
            }
            .min(children.len() - 1);
            let right_children = children.split_off(i + 1);
            let straddle = children.pop().expect("child i exists");
            let right_seps = if seps.len() > i + 1 {
                seps.split_off(i + 1)
            } else {
                Vec::new()
            };
            seps.truncate(i.saturating_sub(1));
            let left_frag = fragment(seps, children);
            let right_frag = fragment(right_seps, right_children);
            let (sl, sr) = split_node_key(straddle, k, inclusive, degree);
            (
                join_nodes(left_frag, sl, degree),
                join_nodes(sr, right_frag, degree),
            )
        }
    }
}

/// Split `node` by rank: left gets the `r` smallest entries.
fn split_node_rank<K: Ord + Clone, V>(
    node: Node<K, V>,
    r: usize,
    degree: usize,
) -> SplitHalves<K, V> {
    debug_assert!(r <= node.size());
    match node {
        Node::Leaf(mut entries) => {
            let right = entries.split_off(r.min(entries.len()));
            (
                (!entries.is_empty()).then_some(Node::Leaf(entries)),
                (!right.is_empty()).then_some(Node::Leaf(right)),
            )
        }
        Node::Inner(inner) => {
            let mut children = inner.children;
            let mut seps = inner.seps;
            // Find the child containing the r-th entry (cut may fall on a
            // boundary; descending with rem == 0 or rem == child size is
            // handled by the leaf base case).
            let mut i = 0;
            let mut rem = r;
            while i < children.len() - 1 && rem > children[i].size() {
                rem -= children[i].size();
                i += 1;
            }
            let right_children = children.split_off(i + 1);
            let straddle = children.pop().expect("child i exists");
            let right_seps = if seps.len() > i + 1 {
                seps.split_off(i + 1)
            } else {
                Vec::new()
            };
            seps.truncate(i.saturating_sub(1));
            let left_frag = fragment(seps, children);
            let right_frag = fragment(right_seps, right_children);
            let (sl, sr) = split_node_rank(straddle, rem, degree);
            (
                join_nodes(left_frag, sl, degree),
                join_nodes(sr, right_frag, degree),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_from(keys: impl IntoIterator<Item = u64>, degree: usize) -> BPlusTree<u64, u64> {
        let mut t = BPlusTree::with_degree(degree);
        for k in keys {
            t.insert(k, k * 10);
            t.check_invariants();
        }
        t
    }

    #[test]
    fn insert_get_len() {
        let t = tree_from([5, 1, 9, 3, 7], 4);
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(&3), Some(&30));
        assert_eq!(t.get(&4), None);
        assert_eq!(t.min().map(|(k, _)| *k), Some(1));
        assert_eq!(t.max().map(|(k, _)| *k), Some(9));
    }

    #[test]
    fn insert_replaces_existing() {
        let mut t = tree_from([1, 2, 3], 4);
        assert_eq!(t.insert(2, 99), Some(20));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&2), Some(&99));
    }

    #[test]
    fn many_inserts_stay_sorted_and_valid() {
        // Pseudorandom insertion order using a multiplicative permutation.
        let n = 5000u64;
        let mut t = BPlusTree::with_degree(8);
        for i in 0..n {
            let k = (i * 2654435761) % 1_000_003;
            t.insert(k, i);
        }
        t.check_invariants();
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn rank_select_agree_with_sorted_order() {
        let keys = [2u64, 4, 6, 8, 10, 12, 14];
        let t = tree_from(keys, 4);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.rank(k), i, "rank of {k}");
            assert_eq!(t.count_le(k), i + 1, "count_le of {k}");
            assert_eq!(t.select(i).map(|(kk, _)| *kk), Some(*k), "select {i}");
        }
        assert_eq!(t.rank(&0), 0);
        assert_eq!(t.rank(&100), keys.len());
        assert_eq!(t.rank(&5), 2); // between 4 and 6
        assert_eq!(t.count_le(&5), 2);
        assert_eq!(t.select(keys.len()), None);
    }

    #[test]
    fn split_at_key_partitions() {
        for inclusive in [true, false] {
            let mut t = tree_from(0..200, 6);
            let right = t.split_at_key(&100, inclusive);
            t.check_invariants();
            right.check_invariants();
            let cut = if inclusive { 101 } else { 100 };
            assert_eq!(t.len(), cut as usize);
            assert_eq!(right.len(), 200 - cut as usize);
            assert!(t.iter().all(|(k, _)| *k < cut));
            assert!(right.iter().all(|(k, _)| *k >= cut));
        }
    }

    #[test]
    fn split_at_key_extremes() {
        let mut t = tree_from(0..50, 4);
        let right = t.split_at_key(&1000, true);
        assert_eq!(t.len(), 50);
        assert!(right.is_empty());

        let mut t = tree_from(0..50, 4);
        let right = t.split_at_key(&0, false);
        assert!(t.is_empty());
        assert_eq!(right.len(), 50);
        right.check_invariants();
    }

    #[test]
    fn split_at_rank_partitions() {
        for r in [0usize, 1, 7, 63, 64, 65, 199, 200, 500] {
            let mut t = tree_from(0..200, 5);
            let right = t.split_at_rank(r);
            t.check_invariants();
            right.check_invariants();
            assert_eq!(t.len(), r.min(200));
            assert_eq!(right.len(), 200usize.saturating_sub(r));
            if r > 0 && r < 200 {
                assert_eq!(t.max().map(|(k, _)| *k), Some(r as u64 - 1));
                assert_eq!(right.min().map(|(k, _)| *k), Some(r as u64));
            }
        }
    }

    #[test]
    fn join_concatenates() {
        let a = tree_from(0..70, 4);
        let b = tree_from(100..105, 4);
        let j = a.join(b);
        j.check_invariants();
        assert_eq!(j.len(), 75);
        let keys: Vec<u64> = j.iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));

        // Joining in the other height order (small left, tall right).
        let a = tree_from(0..3, 4);
        let b = tree_from(10..300, 4);
        let j = a.join(b);
        j.check_invariants();
        assert_eq!(j.len(), 293);
        assert_eq!(j.min().map(|(k, _)| *k), Some(0));
    }

    #[test]
    fn join_with_empty() {
        let a = tree_from(0..10, 4);
        let e = BPlusTree::with_degree(4);
        let j = a.join(e);
        assert_eq!(j.len(), 10);
        let e = BPlusTree::with_degree(4);
        let b = tree_from(0..10, 4);
        let j = e.join(b);
        assert_eq!(j.len(), 10);
    }

    #[test]
    fn split_then_join_roundtrip() {
        for cut in [0u64, 1, 31, 32, 33, 97, 199] {
            let mut t = tree_from(0..200, 4);
            let right = t.split_at_key(&cut, false);
            let rejoined = std::mem::take(&mut t).join(right);
            rejoined.check_invariants();
            assert_eq!(rejoined.len(), 200);
            let keys: Vec<u64> = rejoined.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, (0..200).collect::<Vec<_>>());
        }
    }

    #[test]
    fn remove_and_pop_min() {
        let mut t = tree_from(0..100, 4);
        assert_eq!(t.remove(&50), Some(500));
        assert_eq!(t.remove(&50), None);
        t.check_invariants();
        assert_eq!(t.len(), 99);
        assert!(!t.contains(&50));
        assert_eq!(t.pop_min(), Some((0, 0)));
        assert_eq!(t.len(), 98);
        t.check_invariants();
    }

    #[test]
    fn from_sorted_matches_inserts() {
        for n in [0usize, 1, 3, 15, 16, 17, 100, 1000] {
            let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i, i * 2)).collect();
            let t = BPlusTree::from_sorted(entries, 8);
            t.check_invariants();
            assert_eq!(t.len(), n);
            for i in 0..n as u64 {
                assert_eq!(t.get(&i), Some(&(i * 2)), "n={n} key={i}");
            }
        }
    }

    #[test]
    fn into_iter_yields_sorted_owned() {
        let t = tree_from([9, 1, 5, 3, 7], 4);
        let pairs: Vec<(u64, u64)> = t.into_iter().collect();
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn degree_too_small_rejected() {
        let _ = BPlusTree::<u64, ()>::with_degree(3);
    }

    #[test]
    fn clear_empties() {
        let mut t = tree_from(0..10, 4);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }
}
