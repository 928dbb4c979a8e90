//! Message-passing substrate: the library's stand-in for MPI.
//!
//! The paper runs on a 256-node InfiniBand cluster with one MPI rank per
//! core. This crate reproduces the *protocol-level* behaviour of that stack
//! on a single machine:
//!
//! * [`Communicator`] — the abstract endpoint a PE program talks to:
//!   point-to-point `send`/`recv` plus the collectives the algorithms use
//!   (broadcast, reduce, all-reduce, gather, all-gather, barrier). The
//!   collectives are implemented **generically over send/recv** with
//!   binomial trees, so every implementation inherits the same
//!   O(βℓ + α log p) message pattern the paper assumes (Section 3,
//!   "Collective Communication").
//! * [`ThreadComm`] — a real parallel runtime: one OS thread per PE,
//!   `std::sync::mpsc` channels as the interconnect, typed mailboxes with
//!   tag matching, receives that poll briefly before they block, and a
//!   poison packet from any PE that panics. Used by tests, examples and
//!   the repository benchmark (`perfbench/`).
//! * [`CommStats`] — per-endpoint message/word/round counters, so
//!   experiments can report exact communication volumes.
//! * [`CostModel`] — the α–β (latency/bandwidth) model used by the cluster
//!   simulator to attribute time to communication when it emulates
//!   thousands of PEs (substitution documented in `DESIGN.md`).

mod collectives;
mod cost;
pub(crate) mod obs_metrics;
mod stats;
mod thread_comm;

pub use collectives::Collectives;
pub use cost::{CostModel, SimTime};
pub use stats::CommStats;
pub use thread_comm::{run_threads, ThreadComm};

use std::any::Any;

/// A payload that can travel between PEs.
///
/// `words()` reports the message size in 64-bit machine words, matching the
/// paper's cost accounting (time `α + βℓ` for `ℓ` machine words).
pub trait Message: Send + 'static {
    /// Size in 64-bit machine words.
    fn words(&self) -> u64;
}

macro_rules! scalar_message {
    ($($t:ty),*) => {$(
        impl Message for $t {
            #[inline]
            fn words(&self) -> u64 { 1 }
        }
    )*};
}
scalar_message!(u8, u16, u32, u64, usize, i32, i64, f32, f64, bool);

impl Message for () {
    fn words(&self) -> u64 {
        0
    }
}

impl<T: Message> Message for Option<T> {
    fn words(&self) -> u64 {
        1 + self.as_ref().map_or(0, Message::words)
    }
}

impl<T: Message> Message for Vec<T> {
    fn words(&self) -> u64 {
        1 + self.iter().map(Message::words).sum::<u64>()
    }
}

impl<A: Message, B: Message> Message for (A, B) {
    fn words(&self) -> u64 {
        self.0.words() + self.1.words()
    }
}

impl<A: Message, B: Message, C: Message> Message for (A, B, C) {
    fn words(&self) -> u64 {
        self.0.words() + self.1.words() + self.2.words()
    }
}

/// One endpoint of a `p`-PE communicator.
///
/// Collectives must be invoked by **all** PEs of the communicator in the
/// same order (the usual MPI contract); they are provided as default
/// methods in terms of `send_raw`/`recv_raw` — see [`Collectives`] for the
/// algorithms.
pub trait Communicator {
    /// This PE's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of PEs.
    fn size(&self) -> usize;

    /// Send `msg` to PE `to` under `tag`. Non-blocking (buffered).
    fn send_raw(&self, to: usize, tag: u64, msg: Box<dyn Any + Send>, words: u64);

    /// Receive the message sent by PE `from` under `tag`. Blocking.
    /// Messages from one sender under one tag are received in the order
    /// they were sent (MPI's non-overtaking rule).
    fn recv_raw(&self, from: usize, tag: u64) -> Box<dyn Any + Send>;

    /// Record communication for stats (called by provided methods).
    fn record(&self, messages: u64, words: u64);

    /// A per-endpoint sequence number used to separate successive
    /// collectives' tag spaces. Every call returns a fresh value, and all
    /// PEs observe the same sequence because collectives are globally
    /// ordered.
    fn next_collective_seq(&self) -> u64;

    /// Snapshot of this endpoint's communication statistics.
    fn stats(&self) -> CommStats;

    /// Typed send; counts the message in the stats (and, when
    /// observability is armed, in the process-wide metrics registry).
    fn send<T: Message>(&self, to: usize, tag: u64, msg: T) {
        let words = msg.words();
        self.record(1, words);
        obs_metrics::COMM_MESSAGES.inc();
        obs_metrics::COMM_MESSAGE_WORDS.observe(words);
        self.send_raw(to, tag, Box::new(msg), words);
    }

    /// Typed receive; panics if the arriving payload has a different type.
    fn recv<T: Message>(&self, from: usize, tag: u64) -> T {
        *self
            .recv_raw(from, tag)
            .downcast::<T>()
            .expect("received message of unexpected type")
    }
}
