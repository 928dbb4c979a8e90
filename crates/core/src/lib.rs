//! Communication-efficient (weighted) reservoir sampling — the algorithms
//! of Hübschle-Schneider & Sanders (SPAA 2020).
//!
//! The library maintains a uniform or weighted random sample **without
//! replacement** of size `k` over the union of data streams that arrive as
//! mini-batches at `p` processing elements, with no coordinator node.
//!
//! # Layers
//!
//! * [`seq`] — the sequential building blocks: weighted reservoir sampling
//!   with *exponential jumps* (Section 4.1) and uniform reservoir sampling
//!   with *geometric jumps* (Section 4.3), plus the naive
//!   key-per-item samplers they are distributionally equivalent to.
//! * [`dist`] — the distributed algorithm (Algorithm 1): per-PE local
//!   reservoirs in augmented B+ trees, a global insertion threshold
//!   maintained by communication-efficient distributed selection, the
//!   variable-size variant (Section 4.4), and the centralized gathering
//!   baseline (Section 4.5). The protocol body lives once, in
//!   [`dist::engine`], and three backends drive it: [`dist::threaded`] on
//!   real threads with real collectives, [`dist::gather`] — the same
//!   collectives under the root-funnel policy — and [`dist::sim`], a
//!   statistical cluster simulator that reproduces the paper's scaling
//!   experiments for thousands of PEs on one machine by charging the
//!   engine's steps to an α–β cost model.
//!
//! # Quick start
//!
//! ```
//! use reservoir_core::seq::WeightedJumpSampler;
//! use reservoir_rng::default_rng;
//!
//! let mut sampler = WeightedJumpSampler::new(10, default_rng(42));
//! for i in 0..10_000u64 {
//!     let weight = 1.0 + (i % 7) as f64;
//!     sampler.process(i, weight);
//! }
//! let sample = sampler.sample();
//! assert_eq!(sample.len(), 10);
//! ```

pub mod dist;
pub mod metrics;
pub mod sample;
pub mod seq;

#[cfg(test)]
mod reservoir;

pub use dist::{DistConfig, PipelineReport, SampleHandle, SamplingMode};
pub use metrics::PhaseTimes;
pub use sample::SampleItem;
