//! Intra-PE parallelism: a scoped work-stealing thread pool plus the
//! parallel local scan ([`ParLocalReservoir`]).
//!
//! The distributed protocol (Algorithm 1) is communication-efficient per
//! *PE*, but each PE still scans its mini-batch sequentially. Its
//! companion work — *Parallel Weighted Random Sampling* (Hübschle-Schneider
//! & Sanders) — observes that the jump-scan/insertion phase parallelizes
//! cleanly across cores: exponential jumps are memoryless, so a scan that
//! restarts its skip clock at every chunk boundary draws each item's
//! inclusion from exactly the same law as one long sequential scan.
//!
//! Two layers live here:
//!
//! * [`pool`] — an offline dev-shim-style stand-in for the `rayon` API
//!   subset this workspace needs (`scope`, `join`, chunked `par_for`),
//!   built on `std::thread::scope` with per-worker deques and
//!   back-stealing. No crates.io access is assumed; swap for `rayon` by
//!   replacing the `Pool` internals when the registry is reachable.
//! * [`reservoir`] — [`ParLocalReservoir`], the multicore counterpart of
//!   `reservoir_core::dist::LocalReservoir`: split the batch into fixed
//!   `DEFAULT_CHUNK_ITEMS` chunks, jump-scan each chunk independently with
//!   a per-chunk RNG stream (derived through `reservoir_rng::seeding`, so
//!   results are reproducible and independent of the worker that ran the
//!   chunk), filter against a relaxed snapshot of the shared threshold,
//!   and merge the surviving candidates into the B+ tree in one short
//!   sequential epilogue that re-prunes against the post-merge threshold.
//!
//! This crate sits below `reservoir-core` (which selects between the
//! sequential and parallel reservoir behind its `threads_per_pe` knob), so
//! it only depends on `btree`, `rng` and `stream`.

pub mod pool;
pub mod reservoir;

pub use pool::{chunk_ranges, join, Pool, Scope, ScopeReport};
pub use reservoir::{ParLocalReservoir, ParScanStats, DEFAULT_CHUNK_ITEMS};
