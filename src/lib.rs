//! # reservoir — communication-efficient (weighted) reservoir sampling
//!
//! A Rust implementation of *Hübschle-Schneider & Sanders,
//! "Communication-Efficient (Weighted) Reservoir Sampling"* (SPAA 2020):
//! maintain a uniform or weighted random sample **without replacement** of
//! size `k` over the union of data streams arriving as mini-batches at `p`
//! processing elements — with no coordinator and only O(α log p)-latency
//! collectives per batch.
//!
//! This crate is the facade over the workspace:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | [`seq`] | `reservoir-core` | sequential samplers: exponential/geometric jumps + naive references |
//! | [`dist`] | `reservoir-core` | Algorithm 1 and Section 5 output as **one engine** (`dist::engine::ReservoirProtocol` over the `SamplerBackend` trait) with three backends — threaded execution, the gather baseline policy, the cost-charging simulator — plus the variable-size variant and [`SampleHandle`] |
//! | [`select`] | `reservoir-select` | distributed selection: single/multi-pivot, approximate (amsSelect), quickselect |
//! | [`btree`] | `reservoir-btree` | augmented B+ tree: rank/select/split/join local reservoirs, allocation-free leaf walk |
//! | [`comm`] | `reservoir-comm` | Communicator trait, threaded runtime, collectives, α–β cost model |
//! | [`stream`] | `reservoir-stream` | mini-batch model, workload generators, push-based ingestion runtime (`stream::ingest`: record sources, batchers, backpressure) |
//! | [`par`] | `reservoir-par` | a thread pool that runs one flat task list: the per-PE worker crew the chunked local scan runs on |
//! | [`rng`] | `reservoir-rng` | xoshiro256++, exponential/geometric deviates, per-PE seed derivation |
//!
//! ## Quick start (sequential)
//!
//! ```
//! use reservoir::seq::WeightedJumpSampler;
//! use reservoir::rng::default_rng;
//!
//! let mut sampler = WeightedJumpSampler::new(100, default_rng(7));
//! for id in 0..1_000_000u64 {
//!     sampler.process(id, 1.0 + (id % 10) as f64);
//! }
//! assert_eq!(sampler.sample().len(), 100);
//! ```
//!
//! ## Quick start (distributed, 4 PEs on threads)
//!
//! ```
//! use reservoir::comm::{run_threads, Communicator};
//! use reservoir::dist::threaded::DistributedSampler;
//! use reservoir::dist::DistConfig;
//! use reservoir::stream::{StreamSpec, WeightGen};
//!
//! let spec = StreamSpec { pes: 4, batch_size: 1000, weights: WeightGen::paper_uniform(), seed: 1 };
//! let samples = run_threads(4, |comm| {
//!     let mut sampler = DistributedSampler::new(&comm, DistConfig::weighted(50, 1));
//!     let mut source = spec.source_for(comm.rank());
//!     for _ in 0..5 {
//!         let batch = source.next_batch();
//!         sampler.process_batch(&batch);
//!     }
//!     sampler.gather_sample() // Some(sample) on PE 0
//! });
//! assert_eq!(samples[0].as_ref().map(Vec::len), Some(50));
//! ```
//!
//! ## Quick start (push-based ingestion with backpressure)
//!
//! Real workloads *push* records in rather than being pulled: adapt them
//! as a [`stream::ingest::RecordSource`], pump them through a per-PE
//! [`stream::ingest::Batcher`] (mini-batches cut on size or deadline over
//! a bounded channel — a slow sampler throttles the source instead of
//! buffering without limit), and let `run_pipeline` drain, sample, and
//! collect the Section 5 output:
//!
//! ```
//! use reservoir::comm::run_threads;
//! use reservoir::dist::threaded::DistributedSampler;
//! use reservoir::dist::DistConfig;
//! use reservoir::stream::ingest::{spawn_source, BatchPolicy, SyntheticRecords};
//! use reservoir::stream::{StreamSpec, WeightGen};
//!
//! let spec = StreamSpec { pes: 2, batch_size: 500, weights: WeightGen::paper_uniform(), seed: 3 };
//! let reports = run_threads(2, |comm| {
//!     use reservoir::comm::Communicator;
//!     let source = SyntheticRecords::new(spec.source_for(comm.rank()), 2_000);
//!     let mut ingest = spawn_source(source, BatchPolicy::by_size(500), 4);
//!     let rx = ingest.take_receiver();
//!     let mut sampler = DistributedSampler::new(&comm, DistConfig::weighted(50, 3));
//!     let report = sampler.run_pipeline(&rx); // drain → process_batch → collect_output
//!     (report, ingest.join())
//! });
//! let (report, counters) = &reports[0];
//! assert_eq!(report.sample_size(), 50);
//! assert_eq!(counters.records_in, 2_000);
//! ```
//!
//! ## Quick start (multi-tenant sharded sampling)
//!
//! One independent weighted sample *per key* — per flow, per customer —
//! behind **one** collective schedule: a [`dist::ShardedSampler`] keeps a
//! reservoir per shard on every PE but pays one vectorized count and one
//! joint selection round sequence per mini-batch, instead of a full
//! per-tenant protocol (`O(S)` collective launches). Route records to
//! shards up front with a [`stream::ShardRouter`]:
//!
//! ```
//! use reservoir::comm::run_threads;
//! use reservoir::dist::{DistConfig, ShardedSampler};
//! use reservoir::stream::{route_by_id, Item};
//!
//! let shards = 8;
//! let handles = run_threads(2, move |comm| {
//!     use reservoir::comm::Communicator;
//!     let router = route_by_id(shards);
//!     let mut fleet = ShardedSampler::new(&comm, DistConfig::weighted(16, 11), shards);
//!     for batch in 0..3u64 {
//!         let items: Vec<Item> = (0..500)
//!             .map(|i| {
//!                 let id = ((comm.rank() as u64) << 40) | (batch * 500 + i);
//!                 Item::new(id, 1.0 + (i % 7) as f64)
//!             })
//!             .collect();
//!         let buckets = router.route(items);
//!         fleet.process_batch(&buckets); // ONE batched schedule for all shards
//!     }
//!     fleet.collect_output() // one root-free SampleHandle per shard
//! });
//! assert_eq!(handles[0].len(), shards);
//! assert!(handles[0].iter().all(|h| h.total_len() == 16));
//! ```
//!
//! ## One protocol, many backends: the engine layer
//!
//! `DistributedSampler`, `GatherSampler` (Section 4.5 baseline) and
//! `SimCluster` (the α–β cost simulator) are thin wrappers over a single
//! [`dist::engine::ReservoirProtocol`], which owns the Algorithm 1 step
//! sequence (insert_scan → count → select_prune) and the Section 5
//! output sequence (finalize → place). What varies per backend —
//! executing a collective versus charging its modeled cost, scanning a
//! real B+ tree versus drawing Poissonized candidates — lives behind the
//! [`dist::engine::SamplerBackend`] trait, so a protocol change is made
//! once and is automatically executed, baselined *and* priced.
//! `tests/engine_equivalence.rs` pins the wrappers to byte-identical
//! samples against driving the engine directly.
//!
//! ## Multicore PEs: the `threads_per_pe` knob
//!
//! Each PE's local jump scan — the per-batch hot path once the ingestion
//! runtime pushes batches faster than one core can scan them — splits
//! every batch into fixed-size chunks, each scanned with its own RNG
//! stream. Chain `.with_threads(t)` onto any `DistConfig` (or set the
//! `RESERVOIR_THREADS` environment variable to switch a whole run) and
//! each PE keeps one crew of `t − 1` helper threads ([`par`]), parked
//! between batches: a batch of several chunks is scanned chunk-parallel on
//! the crew and merged in a short sequential epilogue, while one-chunk
//! batches (and every batch at `t = 1`) run the same chunk kernels inline.
//! Chunk streams, not worker streams, carry the randomness, so for a fixed
//! seed every thread count draws the *same sample* (pinned by
//! `tests/engine_equivalence.rs`; the `par_chi_square` acceptance tests pin
//! the law). A pooled batch's per-worker report is
//! `DistributedSampler::last_par_scan`:
//!
//! ```
//! use reservoir::comm::run_threads;
//! use reservoir::dist::threaded::DistributedSampler;
//! use reservoir::dist::DistConfig;
//! use reservoir::stream::{StreamSpec, WeightGen};
//!
//! let spec = StreamSpec { pes: 2, batch_size: 10_000, weights: WeightGen::paper_uniform(), seed: 9 };
//! let run = |threads: usize| run_threads(2, move |comm| {
//!     use reservoir::comm::Communicator;
//!     let cfg = DistConfig::weighted(40, 9).with_threads(threads);
//!     let mut sampler = DistributedSampler::new(&comm, cfg);
//!     let mut source = spec.source_for(comm.rank());
//!     for _ in 0..3 {
//!         sampler.process_batch(&source.next_batch());
//!         // 10,000 records span three chunks: pooled above one thread.
//!         assert_eq!(sampler.last_par_scan().is_some(), threads > 1);
//!     }
//!     let mut ids: Vec<u64> = sampler.local_sample().iter().map(|m| m.id).collect();
//!     ids.sort_unstable();
//!     ids
//! });
//! assert_eq!(run(4), run(1)); // same seed ⇒ same sample at every width
//! ```
//!
//! ## Always-fresh snapshots: reading the sample while it ingests
//!
//! With `.with_continuous(ContinuousMode::EveryBatch)` (or
//! `RESERVOIR_CONTINUOUS=1`) every selection round publishes an
//! immutable, checksummed [`dist::SampleEpoch`] — the sample finalized
//! to exactly `k` through the Section 5 path — by swapping one `Arc`
//! pointer under a mutex. A [`dist::SnapshotReader`] (cheap to clone,
//! send it to any thread) reads a consistent epoch at any moment without
//! pausing ingestion, and publication is observationally free: a fixed seed
//! yields the byte-identical final sample whether continuous mode is on
//! or off:
//!
//! ```
//! use reservoir::comm::run_threads;
//! use reservoir::dist::threaded::DistributedSampler;
//! use reservoir::dist::{ContinuousMode, DistConfig};
//! use reservoir::stream::{StreamSpec, WeightGen};
//!
//! let spec = StreamSpec { pes: 2, batch_size: 600, weights: WeightGen::paper_uniform(), seed: 5 };
//! let epochs = run_threads(2, |comm| {
//!     use reservoir::comm::Communicator;
//!     let cfg = DistConfig::weighted(30, 5).with_continuous(ContinuousMode::EveryBatch);
//!     let mut sampler = DistributedSampler::new(&comm, cfg);
//!     let reader = sampler.snapshot_reader(); // hand clones to reader threads
//!     let mut source = spec.source_for(comm.rank());
//!     for _ in 0..3 {
//!         sampler.process_batch(&source.next_batch());
//!     }
//!     let epoch = reader.read(); // consistent view, mid-ingestion
//!     assert!(epoch.verify() && epoch.epoch == 3 && epoch.total == 30);
//!     epoch.epoch
//! });
//! assert_eq!(epochs, vec![3, 3]);
//! ```
//!
//! ## Observability: metrics registry + flight recorder
//!
//! Set `RESERVOIR_OBS=1` (or call [`obs::set_enabled`]) and every layer
//! reports into one [`obs::Registry`] — collective launches and payload
//! words (`comm_*`, and `sim_*` for the α–β model's predictions), scan
//! chunks and insertions, snapshot reads and reader staleness, ingestion
//! backpressure, epoch publications — plus a bounded per-PE flight
//! recorder of structured events ([`obs::TraceKind`]) for post-mortems.
//! Disabled (the default) is observationally free: a fixed seed draws the
//! byte-identical sample either way, and no collective is added. A
//! dashboard thread polls an [`obs::MetricsReader`] mid-ingestion — it
//! re-reads the metric directory only when the registry's version word
//! moved, with no pause in ingestion — and renders Prometheus text or
//! JSON:
//!
//! ```
//! use reservoir::comm::run_threads;
//! use reservoir::dist::threaded::DistributedSampler;
//! use reservoir::dist::DistConfig;
//! use reservoir::stream::{StreamSpec, WeightGen};
//!
//! reservoir::obs::set_enabled(true);
//! let spec = StreamSpec { pes: 2, batch_size: 400, weights: WeightGen::paper_uniform(), seed: 21 };
//! let dash = std::thread::spawn(|| {
//!     // Any thread may poll at any time; the reader refreshes its
//!     // directory only when the registry version moves.
//!     let mut reader = reservoir::obs::global().reader();
//!     reader.prometheus()
//! });
//! run_threads(2, |comm| {
//!     use reservoir::comm::Communicator;
//!     let mut sampler = DistributedSampler::new(&comm, DistConfig::weighted(20, 21));
//!     let mut source = spec.source_for(comm.rank());
//!     for _ in 0..3 {
//!         sampler.process_batch(&source.next_batch());
//!     }
//! });
//! dash.join().unwrap(); // polled concurrently, no coordination needed
//! let snap = reservoir::obs::global().snapshot();
//! assert_eq!(snap.counter("engine_batches_total"), 6); // 3 batches × 2 PEs
//! assert!(!reservoir::obs::recorder().dump().is_empty());
//! ```

pub use reservoir_core::{
    dist, metrics, sample, seq, PhaseFractions, PhaseTimes, PipelineReport, SampleHandle,
    SampleItem,
};

/// Augmented B+ tree (rank/select/split/join) — the local reservoirs.
pub mod btree {
    pub use reservoir_btree::*;
}

/// Message-passing substrate: Communicator, threaded runtime, cost model.
pub mod comm {
    pub use reservoir_comm::*;
}

/// Random number generation: xoshiro256++, deviates, seed derivation.
pub mod rng {
    pub use reservoir_rng::*;
}

/// Intra-PE parallelism: the worker crew the chunked local scan runs on.
pub mod par {
    pub use reservoir_par::*;
}

/// Distributed selection algorithms.
pub mod select {
    pub use reservoir_select::*;
}

/// Mini-batch stream model and workload generators.
pub mod stream {
    pub use reservoir_stream::*;
}

/// Unified observability: metrics registry, exporters, flight recorder.
pub mod obs {
    pub use reservoir_obs::*;
}
