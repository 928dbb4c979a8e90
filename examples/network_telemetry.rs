//! Network monitoring with a uniform distributed sample — the paper's
//! "network monitoring" application: switches **push** packet records into
//! the ingestion runtime, which cuts time/size-bounded mini-batches
//! (discretized streams) into a bounded channel per switch; the sampler
//! drains them collectively (`run_pipeline`) and the operator keeps a
//! fixed-size uniform sample of all packets ever seen to estimate
//! per-application traffic shares.
//!
//! Two things are fully distributed here:
//!
//! * **Ingestion** — each switch runs a producer thread
//!   ([`RecordSource`] → `Batcher` → bounded channel). If selection
//!   rounds ever fall behind the packet rate, the bounded channel blocks
//!   the producer (backpressure) instead of buffering without limit; the
//!   blocked time is reported per switch.
//! * **Output** (Section 5) — no switch ever ships its sample members
//!   anywhere. `run_pipeline` finalizes the sample in place, each switch
//!   learns which global output positions its members occupy, tallies its
//!   own slice, and one small all-reduce combines the per-application
//!   counts.
//!
//! ```text
//! cargo run --release --example network_telemetry
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use reservoir::comm::{run_threads, Collectives, Communicator};
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::DistConfig;
use reservoir::rng::{default_rng, DefaultRng, Rng64};
use reservoir::stream::ingest::{spawn_source, BatchPolicy, RecordSource};
use reservoir::stream::Item;

/// Application mix: (label, share of packets).
const APPS: [(&str, f64); 4] = [("video", 0.55), ("web", 0.25), ("dns", 0.15), ("ssh", 0.05)];

fn draw_app(rng: &mut impl Rng64) -> usize {
    let x = rng.rand_co();
    let mut acc = 0.0;
    for (i, (_, share)) in APPS.iter().enumerate() {
        acc += share;
        if x < acc {
            return i;
        }
    }
    APPS.len() - 1
}

/// One switch's packet feed: a custom [`RecordSource`] standing in for the
/// real workload that pushes records at the PE. Packet ids encode
/// (switch, seq, app); the true per-app send counts are shared back to the
/// driver through atomics (the producer runs on its own thread).
struct PacketSource {
    switch: usize,
    remaining: u64,
    seq: u64,
    rng: DefaultRng,
    sent_per_app: Arc<[AtomicU64; APPS.len()]>,
}

impl RecordSource for PacketSource {
    fn next_record(&mut self) -> Option<Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let app = draw_app(&mut self.rng);
        self.sent_per_app[app].fetch_add(1, Ordering::Relaxed);
        let uid = ((self.switch as u64) << 48) | (self.seq << 2) | app as u64;
        self.seq += 1;
        // Uniform sampling: every packet equally likely to be retained.
        Some(Item::new(uid, 1.0))
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

fn main() {
    let switches = 8; // PEs
    let k = 20_000;
    let packets_per_switch = 360_000u64;
    let batch_size = 30_000usize;

    let results = run_threads(switches, |comm| {
        let sent_per_app: Arc<[AtomicU64; APPS.len()]> = Arc::new(Default::default());
        let source = PacketSource {
            switch: comm.rank(),
            remaining: packets_per_switch,
            seq: 0,
            rng: default_rng(17 + comm.rank() as u64),
            sent_per_app: Arc::clone(&sent_per_app),
        };
        // Mini-batches are cut every `batch_size` packets or 50 ms,
        // whichever comes first, over a channel holding at most 4 batches
        // in flight — the backpressure bound.
        let policy = BatchPolicy::by_size(batch_size).with_deadline(Duration::from_millis(50));
        let mut ingest = spawn_source(source, policy, 4);
        let rx = ingest.take_receiver();

        let mut sampler = DistributedSampler::new(&comm, DistConfig::uniform(k, 99));
        let words_before = comm.stats().words;
        let report = sampler.run_pipeline(&rx);
        let words = comm.stats().words - words_before;
        let counters = ingest.join();
        assert_eq!(counters.records_in, packets_per_switch);
        assert_eq!(report.records, packets_per_switch);

        // Root-free estimator: tally the local slice, all-reduce the tally.
        let mut local_counts = vec![0u64; APPS.len()];
        for (_pos, member) in report.handle.enumerate() {
            local_counts[(member.id & 0x3) as usize] += 1;
        }
        let global_counts = comm.sum_u64_vec(local_counts);
        let sent: Vec<u64> = sent_per_app
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        (report, counters, global_counts, words, sent)
    });

    let totals: [u64; APPS.len()] = {
        let mut t = [0u64; APPS.len()];
        for (_, _, _, _, sent) in &results {
            for (i, s) in sent.iter().enumerate() {
                t[i] += s;
            }
        }
        t
    };
    let total_packets: u64 = totals.iter().sum();
    let (report0, _, sampled, _, _) = &results[0];
    let sample_len = report0.sample_size();
    // Every switch computed the identical global tally.
    for (_, _, counts, _, _) in &results[1..] {
        assert_eq!(counts, sampled);
    }

    println!("per-switch ingestion and output (none of the members moved):");
    for (report, counters, _, words, _) in &results {
        let range = report.handle.global_range();
        println!(
            "  slice {:>6}..{:<6} ({:>5} members) — {} batches ({} size cuts, {} deadline \
             flushes), blocked {:.1} ms in backpressure, pipeline moved {words} words",
            range.start,
            range.end,
            range.end - range.start,
            counters.batches_cut,
            counters.size_cuts,
            counters.deadline_flushes,
            counters.blocked_send_s * 1e3,
        );
    }
    let phases_note: f64 =
        results.iter().map(|(r, ..)| r.times.ingest).sum::<f64>() / results.len() as f64;
    println!("\nmean per-switch ingest wait (sampler faster than the feed): {phases_note:.3} s");

    println!(
        "\napplication traffic shares — stream vs sample (n = {total_packets} packets, k = {sample_len}):"
    );
    println!("| app | true share | sample share |");
    println!("|---|---|---|");
    for (i, (name, _)) in APPS.iter().enumerate() {
        let true_share = totals[i] as f64 / total_packets as f64;
        let est_share = sampled[i] as f64 / sample_len as f64;
        println!("| {name} | {true_share:.3} | {est_share:.3} |");
        assert!(
            (true_share - est_share).abs() < 0.02,
            "sample share diverges for {name}"
        );
    }
    println!("\nall estimates within ±0.02 — the sample is a faithful miniature of the stream,");
    println!("no switch ever transmitted a single sample member, and a slow sampler would");
    println!("throttle the switches through the bounded channels instead of running out of memory");
}
