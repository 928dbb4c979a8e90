//! Intra-PE parallelism: a scoped work-stealing thread pool.
//!
//! The distributed protocol (Algorithm 1) is communication-efficient per
//! *PE*, and its companion work — *Parallel Weighted Random Sampling*
//! (Hübschle-Schneider & Sanders) — observes that each PE's
//! jump-scan/insertion phase parallelizes cleanly across cores:
//! exponential jumps are memoryless, so a scan that restarts its skip
//! clock at every chunk boundary draws each item's inclusion from exactly
//! the same law as one long scan. `reservoir_core::dist::LocalReservoir`
//! owns that chunked scan; this crate supplies the workers it runs on.
//!
//! [`pool`] is an offline dev-shim-style stand-in for the `rayon` API
//! subset this workspace needs (`scope`, `join`, chunked `par_for`): a
//! crew of `threads − 1` helper threads spawned once per [`Pool`] and
//! parked between scopes, per-worker deques and back-stealing. No
//! crates.io access is assumed; swap for `rayon` by replacing the `Pool`
//! internals when the registry is reachable.
//!
//! This crate sits below `reservoir-core`, which builds one [`Pool`] per
//! PE from its `threads_per_pe` knob and shares its crew among every
//! reservoir the PE drives.

pub mod pool;

pub use pool::{chunk_ranges, join, Pool, Scope, ScopeReport};
