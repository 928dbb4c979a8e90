//! A steady fleet collection costs a fixed number of allocator calls,
//! whatever the shard count: every engine refills its output buffer in
//! place once the caller has dropped the last collection's handles, and
//! the leaf walk that fills it allocates nothing. A test binary of its
//! own because it installs a counting global allocator, which tallies
//! the calling thread's allocator calls around one collection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use reservoir::comm::run_threads;
use reservoir::dist::{ContinuousMode, DistConfig, ShardedSampler};
use reservoir::stream::{route_by_id, Item};

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

/// Allocator calls of one steady collection on a one-PE fleet of
/// `shards` shards of k = 64, each filled past `k`: one warm-up
/// collection runs first and its handles are dropped.
fn steady_collection_calls(shards: usize) -> u64 {
    let k = 64;
    let cfg = DistConfig::weighted(k, 0x0C01_1EC7)
        .with_threads(1)
        .with_continuous(ContinuousMode::Disabled);
    run_threads(1, move |comm| {
        let router = route_by_id(shards);
        let mut fleet = ShardedSampler::new(&comm, cfg, shards);
        for b in 0..4u64 {
            let batch: Vec<Item> = (0..(shards * k) as u64)
                .map(|i| Item::new((b << 32) | i, 1.0 + (i % 5) as f64))
                .collect();
            fleet.process_batch(&router.route(batch));
        }
        drop(fleet.collect_output());
        let (handles, calls) = calls_during(|| fleet.collect_output());
        assert_eq!(handles.len(), shards);
        assert!(
            handles.iter().all(|h| h.total_len() == k as u64),
            "every shard holds a full sample"
        );
        calls
    })[0]
}

#[test]
fn steady_fleet_collection_allocates_independent_of_shard_count() {
    // The tally sees a heap call at all.
    let (_, calls) = calls_during(|| black_box(Vec::<u64>::with_capacity(8)));
    assert_eq!(
        calls, 1,
        "the counting allocator must see this thread's calls"
    );

    let (few, many) = (steady_collection_calls(64), steady_collection_calls(512));
    assert_eq!(
        few, many,
        "a collection's allocator calls grew with the shard count (64 shards: {few}, 512: {many})"
    );
}
