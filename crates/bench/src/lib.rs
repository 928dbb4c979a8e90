//! Benchmark harness reproducing every figure and in-text measurement of
//! the paper's evaluation (Section 6).
//!
//! One binary per experiment (see `src/bin/`); shared machinery here:
//!
//! * [`calibrate`](mod@calibrate) — measures this machine's local-work costs (jump-scan
//!   throughput with its cache knee, B+ tree insertion, quickselect) and
//!   builds a [`MeasuredLocalCosts`] for the cluster simulator, replacing
//!   the paper's ForHLR II compute nodes.
//! * [`harness`] — runs simulated experiments over the paper's parameter
//!   grids and formats the result tables.

pub mod calibrate;
pub mod figures;
pub mod harness;

pub use calibrate::{calibrate, MeasuredLocalCosts};
pub use figures::RunOpts;
pub use harness::{run_sim_experiment, ExperimentResult, NODE_GRID, PES_PER_NODE};
