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
//!   [`BPlusTree::leaves`] walks an explicit stack, amortized O(1) per leaf,
//!   and hands out each leaf as a slice (bulk extraction copies one slice
//!   at a time); [`BPlusTree::iter`] flattens those slices — the same
//!   asymptotics for every use the algorithms make of the links.
//! * **Split via join.** `split_at_key`/`split_at_rank` cut the tree along a
//!   root-to-leaf path and reassemble both sides with O(log n) `join`
//!   operations, exactly the classic B-tree split; total cost O(log² n)
//!   worst case, which is negligible at reservoir sizes (one split per
//!   mini-batch).
//!
//! The element type is generic, but the crate also ships [`SampleKey`] — the
//! `(f64 key, u64 item id)` composite key used by all the samplers, with a
//! total order (`f64::total_cmp`, then id) so keys are unique even in the
//! measure-zero event of equal floating-point keys.
//!
//! A second, **concurrent** tree lives alongside the sequential one:
//! [`OlcTree`], a fixed-degree B+ tree over seqlock-based optimistic lock
//! coupling ([`seqlock`], [`sched`]), lets many scan workers insert into
//! one shared reservoir with no merge epilogue. See the [`olc`] module
//! docs for the protocol. Its node storage is a page-granular
//! [`NodePool`] ([`pool`]) that any number of trees can share — the
//! allocator lever that makes a multi-tenant shard fleet cost O(pages)
//! heap allocations instead of one arena per reservoir.

mod iter;
mod key;
mod node;
pub mod olc;
pub mod pool;
pub mod sched;
pub mod seqlock;
mod tree;

pub use iter::{keys_of, Iter, Leaves};
pub use key::SampleKey;
pub use olc::{OlcStats, OlcTree, OLC_DEGREE};
pub use pool::{NodePool, PoolStats, PAGE_NODES};
pub use seqlock::{SeqLock, WriteGuard};
pub use tree::BPlusTree;

/// Default maximum node degree (max children of an inner node and max
/// entries of a leaf). 32 keeps inner nodes within one or two cache lines
/// for `SampleKey` keys.
pub const DEFAULT_DEGREE: usize = 32;

/// Minimum supported degree. Below 4, a node split could produce inner nodes
/// with fewer than two children.
pub const MIN_DEGREE: usize = 4;
