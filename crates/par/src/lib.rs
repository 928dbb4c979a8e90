//! Intra-PE parallelism: a thread pool that runs one flat task list.
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
//! [`pool`] holds the whole scheduler: [`Pool::run`] hands `0..tasks` to
//! the calling thread and a crew of `threads − 1` helper threads, spawned
//! once per [`Pool`] and parked between runs, which claim task indices
//! from one shared counter. Fixed chunks of equal size need nothing more:
//! no per-worker queues and no nested tasks.
//!
//! This crate sits below `reservoir-core`, which builds one [`Pool`] per
//! PE from its `threads_per_pe` knob and shares its crew among every
//! reservoir the PE drives.

pub mod pool;

pub use pool::{Pool, ScopeReport};
