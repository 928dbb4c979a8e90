//! The observability overhead guard: with the registry and flight
//! recorder fully armed, a fixed pipeline run must keep at least 0.9× of
//! its disarmed throughput. This is the teeth behind the "near-zero cost"
//! claim — the hot paths carry one relaxed load and a predictable branch
//! (or nothing at all inside the scan kernels), so losing more than 10%
//! means an instrumentation site leaked onto a hot path.
//!
//! `stats`-gated (run via `cargo test --release --features stats --
//! stats_`): a throughput ratio needs a release build and a quiet-ish
//! machine, like the chi-square suites. Each timed run streams 128M
//! records (about half a second on a 2-vCPU VM), and the disarmed and
//! armed runs alternate in pairs so a slow spell of the machine hits both
//! sides of a pair. The guard is the median of the per-pair armed/disarmed
//! ratios: a rare fast run on either side moves one pair's ratio, not the
//! median, where a best-of-N on each side was decided by such runs.

#![cfg(feature = "stats")]

use std::time::Instant;

use reservoir::comm::run_threads;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::{ContinuousMode, DistConfig};
use reservoir::stream::{StreamSpec, WeightGen};

/// One timed fixed-seed run; returns items/second.
fn throughput(seed: u64) -> f64 {
    let pes = 2;
    let batches = 1280u64;
    let batch_size = 50_000usize;
    let spec = StreamSpec {
        pes,
        batch_size,
        weights: WeightGen::paper_uniform(),
        seed,
    };
    let cfg = DistConfig::weighted(1_000, seed)
        .with_threads(1)
        .with_continuous(ContinuousMode::Disabled);
    let start = Instant::now();
    run_threads(pes, |comm| {
        use reservoir::comm::Communicator;
        let mut s = DistributedSampler::new(&comm, cfg);
        let mut source = spec.source_for(comm.rank());
        for _ in 0..batches {
            s.process_batch(&source.next_batch());
        }
        s.collect_output().total_len()
    });
    (pes as u64 * batches * batch_size as u64) as f64 / start.elapsed().as_secs_f64()
}

#[test]
fn stats_armed_observability_keeps_90_percent_throughput() {
    // Warm-up run so allocator and thread-spawn costs hit neither side.
    let _ = throughput(899);
    // Nine pairs: on a 2-vCPU VM one pair's ratio strays below 0.9 about
    // one time in six, so five pairs still lost the median a few times
    // in a hundred.
    let mut ratios: Vec<f64> = (0..9)
        .map(|rep| {
            reservoir::obs::set_enabled(false);
            let off = throughput(900 + rep);
            reservoir::obs::set_enabled(true);
            throughput(900 + rep) / off
        })
        .collect();
    reservoir::obs::set_enabled(false);
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    assert!(
        ratio >= 0.9,
        "armed observability lost too much throughput: median armed/disarmed \
         ratio {ratio:.3} over the pairs {ratios:.3?} (floor 0.9)"
    );
    eprintln!("obs overhead guard: median armed/disarmed ratio {ratio:.3} of {ratios:.3?}");
}
