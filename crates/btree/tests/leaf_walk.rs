//! The leaf walk never touches the allocator: [`BPlusTree::leaves`] and
//! [`BPlusTree::iter`] keep their cursor stack inside the iterator, so a
//! shard fleet can extract hundreds of small trees per collection without
//! one heap call per tree. A counting global allocator tallies the calling
//! thread's allocator calls around each walk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use reservoir_btree::{BPlusTree, SampleKey, MIN_DEGREE};

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread. Const-initialized and drop-free, so touching it from inside
    /// the allocator never allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Forwards every call to the system allocator, counting per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only a
// const-initialized thread local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`; the caller upholds the `new_size` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocator calls it made.
fn calls_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let r = f();
    (r, CALLS.with(Cell::get) - before)
}

#[test]
fn leaf_walks_allocate_nothing_at_any_depth() {
    // The tally sees a heap call at all.
    let (_, calls) = calls_during(|| black_box(Vec::<u64>::with_capacity(8)));
    assert_eq!(
        calls, 1,
        "the counting allocator must see this thread's calls"
    );

    // A multi-level reservoir tree at the samplers' default degree.
    let mut tree = BPlusTree::new();
    for i in 0..5_000u64 {
        let key = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
        tree.insert(SampleKey::new(key, i), 1.0 + (i % 7) as f64);
    }
    assert!(tree.height() >= 2, "height {}", tree.height());
    let ((slices, entries), calls) = calls_during(|| {
        tree.leaves()
            .fold((0usize, 0usize), |(s, e), leaf| (s + 1, e + leaf.len()))
    });
    assert_eq!(calls, 0, "a full leaves() walk allocated");
    assert!(slices > 1);
    assert_eq!(entries, tree.len());
    let (ids, calls) = calls_during(|| tree.iter().map(|(k, _)| k.id).sum::<u64>());
    assert_eq!(calls, 0, "a full iter() walk allocated");
    assert_eq!(ids, (0..5_000u64).sum::<u64>());

    // A deep tree at the minimum degree, far taller than any sampler
    // tree: ascending inserts leave every split-off node half full, so
    // the walk's cursor stack runs many levels deep. Its slices must
    // still concatenate to exactly the per-entry walk.
    let n = 1u64 << 17;
    let mut deep = BPlusTree::with_degree(MIN_DEGREE);
    for i in 0..n {
        deep.insert(i, !i);
    }
    deep.check_invariants();
    assert!(deep.height() >= 15, "height {}", deep.height());
    let (slices, calls) = calls_during(|| deep.leaves().count());
    assert_eq!(calls, 0, "a deep leaves() walk allocated");
    assert!(deep.leaves().all(|leaf| !leaf.is_empty()));
    let flat: Vec<(u64, u64)> = deep.leaves().flatten().map(|(k, v)| (*k, *v)).collect();
    let walked: Vec<(u64, u64)> = deep.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(flat, walked);
    assert_eq!(flat, (0..n).map(|i| (i, !i)).collect::<Vec<_>>());
    assert!(slices >= (n / MIN_DEGREE as u64) as usize);
}
