//! Golden test for the observability exporters: a fixed-seed pipeline
//! run, with instrumentation armed, must render byte-identical
//! Prometheus text and JSON — pinning the export formats *and* the
//! deterministic subset of the metric values (collective launches,
//! message/word counts, engine batch accounting) against silent drift.
//!
//! The goldens live in `tests/golden/obs_export.{prom,json}`. On
//! mismatch the fresh renders are written to `target/obs-export/` for
//! diffing; regenerate deliberately with
//! `UPDATE_OBS_GOLDEN=1 cargo test --test obs_export`.
//!
//! Only deterministic metrics are pinned: the snapshot is filtered to an
//! explicit allowlist before rendering, excluding wall-clock gauges
//! (`phase_*`, `sim_collective_seconds`) and any tally that depends on
//! thread scheduling, which legitimately vary run to run.

use std::fs;
use std::path::PathBuf;

use reservoir::comm::run_threads;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::DistConfig;
use reservoir::stream::Item;

/// Metrics whose fixed-seed values are exactly reproducible. Everything
/// else (timings, contention) is dropped before rendering.
const DETERMINISTIC: &[&str] = &[
    "comm_bcast_total",
    "comm_collective_words",
    "comm_exscan_total",
    "comm_message_words",
    "comm_messages_total",
    "comm_reduce_total",
    "engine_batches_total",
    "engine_items_total",
    "scan_inserted_total",
    "select_rounds_total",
];

fn golden_path(ext: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/obs_export.{ext}"))
}

fn check(ext: &str, actual: &str) -> Result<(), String> {
    if std::env::var("UPDATE_OBS_GOLDEN").is_ok() {
        fs::write(golden_path(ext), actual).expect("write golden");
        eprintln!("obs golden rewritten at {:?}", golden_path(ext));
        return Ok(());
    }
    let golden = fs::read_to_string(golden_path(ext)).unwrap_or_else(|_| {
        panic!("missing tests/golden/obs_export.{ext} — run UPDATE_OBS_GOLDEN=1 once")
    });
    if golden == actual {
        return Ok(());
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/obs-export");
    fs::create_dir_all(&dir).expect("create target/obs-export");
    fs::write(dir.join(format!("actual.{ext}")), actual).expect("write actual");
    Err(format!(
        "obs {ext} export drifted from tests/golden/obs_export.{ext}; \
         fresh render at target/obs-export/actual.{ext} \
         (UPDATE_OBS_GOLDEN=1 to accept)"
    ))
}

#[test]
fn exports_match_golden_snapshot() {
    reservoir::obs::set_enabled(true);
    let cfg = DistConfig::weighted(16, 7);
    let totals = run_threads(2, |comm| {
        use reservoir::comm::Communicator;
        let mut s = DistributedSampler::new(&comm, cfg);
        for b in 0..3u64 {
            let batch: Vec<Item> = (0..200u64)
                .map(|i| {
                    Item::new(
                        ((comm.rank() as u64) << 40) | (b << 20) | i,
                        1.0 + (i % 5) as f64,
                    )
                })
                .collect();
            s.process_batch(&batch);
        }
        s.collect_output().total_len()
    });
    assert!(totals.iter().all(|&t| t == 16));

    let mut snap = reservoir::obs::global().snapshot();
    snap.retain(|name| DETERMINISTIC.contains(&name));
    let missing: Vec<&&str> = DETERMINISTIC
        .iter()
        .filter(|n| snap.get(n).is_none())
        .collect();
    assert!(
        missing.is_empty(),
        "pinned metrics never registered: {missing:?}"
    );

    let mut failures = Vec::new();
    if let Err(e) = check("prom", &snap.prometheus()) {
        failures.push(e);
    }
    if let Err(e) = check("json", &snap.json()) {
        failures.push(e);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
