//! Augmented B+ tree — the local-reservoir data structure of the paper.
//!
//! Section 3.2 of the paper requires a search tree where
//!
//! * leaves store the items, inner nodes only route;
//! * `split` and `join` run in O(log n);
//! * subtree sizes are maintained so `rank` and `select` run in O(log n).
//!
//! The paper's C++ implementation augments Bingmann's TLX B+ tree; this crate
//! is a from-scratch Rust equivalent. Differences worth knowing:
//!
//! * **Leaf links.** TLX links leaf nodes so a scan can hop to the next leaf
//!   in O(1). Safe Rust with `Box`-owned children cannot hold sibling
//!   pointers without `unsafe` or `Rc<RefCell>`; instead,
//!   [`BPlusTree::for_each_leaf`] recurses down the tree, amortized O(1)
//!   per leaf, and hands each leaf to a visitor as a slice that may stop
//!   the walk (bulk extraction copies one slice at a time);
//!   [`BPlusTree::iter`] finds each next leaf by a descent from the root
//!   past the last key it returned, O(log n) per leaf, for successor
//!   searches and tests. Neither walk keeps a cursor stack, so neither
//!   allocates.
//! * **Split via join.** `split_at_key`/`split_at_rank` cut the tree along a
//!   root-to-leaf path and reassemble both sides with O(log n) `join`
//!   operations, exactly the classic B-tree split; total cost O(log² n)
//!   worst case, which is negligible at reservoir sizes (one split per
//!   mini-batch).
//! * **In-place eviction.** A growing-mode reservoir evicts its largest key
//!   once per kept key, so [`BPlusTree::pop_max`] is not built from split
//!   and join: one walk down the rightmost spine pops the last entry and
//!   repairs an underfull last child from its left sibling, O(log n) with
//!   no allocation unless a merge grows that sibling. `remove` and
//!   `pop_min` stay composed from split and join, off every hot path.
//!
//! The element type is generic, but the crate also ships [`SampleKey`] — the
//! `(f64 key, u64 item id)` composite key used by all the samplers, with a
//! total order (`f64::total_cmp`, then id) so keys are unique even in the
//! measure-zero event of equal floating-point keys.

mod iter;
mod key;
mod node;
mod tree;

pub use iter::Iter;
pub use key::SampleKey;
pub use tree::BPlusTree;

/// Default maximum node degree (max children of an inner node and max
/// entries of a leaf). 32 keeps inner nodes within one or two cache lines
/// for `SampleKey` keys.
pub const DEFAULT_DEGREE: usize = 32;

/// Minimum supported degree. Below 4, a node split could produce inner nodes
/// with fewer than two children.
pub const MIN_DEGREE: usize = 4;
