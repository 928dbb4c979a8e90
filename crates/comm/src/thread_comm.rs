//! The threaded message-passing runtime: one OS thread per PE, `std::sync::mpsc`
//! channels as the wire.
//!
//! This is the "real" backend — every PE executes concurrently, every
//! collective really exchanges messages, and wall-clock measurements of PE
//! programs reflect true parallel behaviour (used by the real-speedup
//! benchmarks and all correctness tests of the distributed samplers).
//!
//! **Waiting.** A receive whose message has not arrived polls the channel,
//! yielding the core between polls, for a fixed window (`POLL_WINDOW`,
//! 50 µs) and only then blocks. The selection protocol's collectives are
//! latency-bound chains of tiny messages, and a peer usually answers within
//! microseconds: a blocking receive would pay an OS sleep and wake-up per
//! hop, while the yield keeps a poller from starving a peer that shares its
//! core.
//!
//! **Failure.** An endpoint dropped while its thread panics sends a poison
//! packet to every other endpoint; a receive that meets one panics with
//! "peer PE r failed", and so does every later receive on that endpoint (a
//! send to an endpoint that is already gone fails the same way).
//! The failure thus spreads through the collectives instead of leaving the
//! surviving PEs blocked, and [`run_threads`] re-raises the root cause.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use crate::stats::StatsCell;
use crate::{CommStats, Communicator};

/// How long a receive polls before it blocks. Long enough to cover a
/// peer's reply within a collective; 10, 50 and 200 µs measured the same
/// on the sharded fleet benchmark.
const POLL_WINDOW: Duration = Duration::from_micros(50);

/// Prefix of the panic message raised when a peer is known to have failed;
/// [`run_threads`] uses it to tell these panics from the root cause.
const PEER_FAILED: &str = "peer PE";

struct Packet {
    src: usize,
    tag: u64,
    /// `None` marks a poison packet: the sender's PE panicked.
    payload: Option<Box<dyn Any + Send>>,
}

/// One PE's endpoint of a threaded communicator.
///
/// Created in bulk with [`ThreadComm::create`] (one endpoint per PE) and
/// moved into per-PE threads, typically via [`run_threads`].
pub struct ThreadComm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    /// Messages that arrived before the PE asked for them (tag mismatch),
    /// in arrival order.
    pending: RefCell<Vec<Packet>>,
    /// The peer whose poison packet this endpoint received, if any.
    failed_peer: Cell<Option<usize>>,
    seq: Cell<u64>,
    stats: StatsCell,
}

impl ThreadComm {
    /// Build the `p` endpoints of a fully connected communicator.
    pub fn create(p: usize) -> Vec<ThreadComm> {
        assert!(p > 0, "communicator needs at least one PE");
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| ThreadComm {
                rank,
                size: p,
                senders: senders.clone(),
                receiver,
                pending: RefCell::new(Vec::new()),
                failed_peer: Cell::new(None),
                seq: Cell::new(0),
                stats: StatsCell::default(),
            })
            .collect()
    }

    /// The next packet off the wire: poll, yielding between polls, until
    /// `POLL_WINDOW` has passed since `start`, then block.
    fn next_packet(&self, start: Instant) -> Packet {
        loop {
            match self.receiver.try_recv() {
                Ok(packet) => return packet,
                Err(TryRecvError::Empty) if start.elapsed() < POLL_WINDOW => {
                    std::thread::yield_now()
                }
                Err(_) => {
                    return self
                        .receiver
                        .recv()
                        .expect("every endpoint holds a sender to itself")
                }
            }
        }
    }

    fn peer_failed(&self, peer: usize) -> ! {
        self.failed_peer.set(Some(peer));
        panic!("{PEER_FAILED} {peer} failed")
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_raw(&self, to: usize, tag: u64, msg: Box<dyn Any + Send>, _words: u64) {
        debug_assert!(to < self.size, "send to out-of-range PE {to}");
        let packet = Packet {
            src: self.rank,
            tag,
            payload: Some(msg),
        };
        if self.senders[to].send(packet).is_err() {
            // Only a PE that has left its program drops its endpoint.
            self.peer_failed(to);
        }
    }

    /// Receive the message sent by PE `from` under `tag`.
    ///
    /// **Order.** Messages from one sender under one tag are received in
    /// the order they were sent (MPI's non-overtaking rule); messages under
    /// other tags, or from other senders, may be received in any order.
    ///
    /// **Waiting.** Polls for a fixed window (50 µs), yielding between
    /// polls, then blocks until the message arrives.
    ///
    /// **Failure.** Panics with "peer PE r failed" if PE `r`'s endpoint
    /// reports that its thread panicked, whether the poison arrives while
    /// polling or while blocked; every later receive on this endpoint
    /// panics the same way at once.
    fn recv_raw(&self, from: usize, tag: u64) -> Box<dyn Any + Send> {
        if let Some(peer) = self.failed_peer.get() {
            self.peer_failed(peer);
        }
        // First serve from the out-of-order buffer; the earliest match
        // keeps same-tag messages in send order.
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|p| p.src == from && p.tag == tag) {
                let packet = pending.remove(pos);
                return packet.payload.expect("poison packets are never buffered");
            }
        }
        let start = Instant::now();
        loop {
            match self.next_packet(start) {
                Packet {
                    src, payload: None, ..
                } => self.peer_failed(src),
                Packet {
                    src,
                    tag: t,
                    payload: Some(payload),
                } if src == from && t == tag => return payload,
                packet => self.pending.borrow_mut().push(packet),
            }
        }
    }

    fn record(&self, messages: u64, words: u64) {
        self.stats.record(messages, words);
    }

    fn next_collective_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    fn stats(&self) -> CommStats {
        self.stats.snapshot()
    }
}

impl Drop for ThreadComm {
    /// If this PE is unwinding, poison every other endpoint so that no
    /// peer waits forever for a message this PE will never send.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        for (to, tx) in self.senders.iter().enumerate() {
            if to != self.rank {
                // A peer that already dropped its endpoint needs no poison;
                // `drop` must not panic.
                let _ = tx.send(Packet {
                    src: self.rank,
                    tag: 0,
                    payload: None,
                });
            }
        }
    }
}

/// Run one closure per PE on its own OS thread and collect the results in
/// rank order. The closure receives the PE's endpoint.
///
/// Panics in any PE propagate after all threads have been joined. A PE's
/// panic poisons its peers' receives, so they fail too instead of hanging;
/// the panic re-raised here is the root cause, not a peer's
/// "peer PE r failed".
pub fn run_threads<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
{
    let comms = ThreadComm::create(p);
    let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let f = &f;
                scope.spawn(move || f(comm))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut results = Vec::with_capacity(p);
    let mut panics = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(r) => results.push(r),
            Err(payload) => panics.push(payload),
        }
    }
    // The root cause is the first panic that is not a peer failure.
    if let Some(root) = panics.into_iter().min_by_key(|e| is_peer_failure(&**e)) {
        std::panic::resume_unwind(root);
    }
    results
}

/// Whether a PE's panic payload is a receive's "peer PE r failed" rather
/// than a root cause.
fn is_peer_failure(payload: &(dyn Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|m| m.starts_with(PEER_FAILED))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::Collectives;

    #[test]
    fn point_to_point_roundtrip() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 42u64);
                comm.recv::<u64>(1, 8)
            } else {
                let x = comm.recv::<u64>(0, 7);
                comm.send(0, 8, x * 2);
                x
            }
        });
        assert_eq!(results, vec![84, 42]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                comm.send(1, 2, 20u64);
                0
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv::<u64>(0, 2);
                let a = comm.recv::<u64>(0, 1);
                a + b
            }
        });
        assert_eq!(results[1], 30);
    }

    /// MPI's non-overtaking rule: buffering a later tag's message must not
    /// reorder the same-tag messages queued behind it.
    #[test]
    fn same_tag_messages_keep_send_order() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                for x in [10u64, 11, 12] {
                    comm.send(1, 1, x);
                }
                comm.send(1, 3, 99u64);
                Vec::new()
            } else {
                let first = comm.recv::<u64>(0, 3);
                let mut got = vec![first];
                got.extend((0..3).map(|_| comm.recv::<u64>(0, 1)));
                got
            }
        });
        assert_eq!(results[1], vec![99, 10, 11, 12]);
    }

    /// A PE that panics between two barriers must not hang its peers:
    /// they fail fast, and `run_threads` re-raises the dead PE's own panic.
    #[test]
    fn a_dead_pe_fails_its_peers_fast() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                run_threads(3, |comm| {
                    comm.barrier();
                    if comm.rank() == 1 {
                        panic!("PE 1 gave up");
                    }
                    comm.barrier();
                })
            });
            let _ = tx.send(outcome.map(|_| ()));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("peers of a dead PE hung instead of failing");
        let payload = outcome.expect_err("a PE panicked, so run_threads must panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"PE 1 gave up"));
    }

    /// Once poisoned, an endpoint fails every later receive at once, even
    /// for a message that is already buffered.
    #[test]
    fn a_poisoned_endpoint_fails_every_later_receive() {
        let mut comms = ThreadComm::create(2);
        let peer = comms.pop().expect("two endpoints");
        let comm = comms.pop().expect("two endpoints");
        peer.send(0, 2, 7u64);
        std::thread::spawn(move || {
            let _peer = peer;
            panic!("PE 1 gave up");
        })
        .join()
        .expect_err("the peer panicked");
        for tag in [1, 2] {
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| comm.recv::<u64>(1, tag)));
            let payload = caught.expect_err("the peer is dead");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("peer PE 1 failed"),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [1, 2, 3, 5, 8, 13] {
            for root in 0..p {
                let results = run_threads(p, |comm| {
                    let value = (comm.rank() == root).then_some(root as u64 * 100);
                    comm.broadcast(root, value)
                });
                assert!(
                    results.iter().all(|&v| v == root as u64 * 100),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn reduce_sums_at_root() {
        for p in [1, 2, 4, 7, 16] {
            let results = run_threads(p, |comm| {
                comm.reduce(0, comm.rank() as u64 + 1, |a, b| a + b)
            });
            let expect = (p as u64) * (p as u64 + 1) / 2;
            assert_eq!(results[0], Some(expect), "p={p}");
            assert!(results[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn allreduce_max_everywhere() {
        let results = run_threads(9, |comm| comm.max_f64(comm.rank() as f64));
        assert!(results.iter().all(|&v| v == 8.0));
    }

    #[test]
    fn allreduce_vector_sum() {
        let p = 6;
        let results = run_threads(p, |comm| comm.sum_u64_vec(vec![1, comm.rank() as u64, 100]));
        for r in &results {
            assert_eq!(r, &vec![p as u64, 15, 600]);
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        for p in [1, 3, 8] {
            let results = run_threads(p, |comm| comm.gather(0, comm.rank() as u64 * 2));
            assert_eq!(
                results[0],
                Some((0..p as u64).map(|r| r * 2).collect::<Vec<_>>()),
                "p={p}"
            );
        }
    }

    #[test]
    fn allgather_everywhere() {
        let p = 5;
        let results = run_threads(p, |comm| comm.allgather(comm.rank() as u64));
        for r in results {
            assert_eq!(r, (0..p as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn successive_collectives_do_not_collide() {
        // Stress the tag sequencing: many collectives back to back.
        let p = 4;
        let results = run_threads(p, |comm| {
            let mut acc = 0u64;
            for i in 0..50u64 {
                acc += comm.sum_u64(i + comm.rank() as u64);
                comm.barrier();
                let root = (i as usize) % p;
                let val = (comm.rank() == root).then_some(acc);
                acc = comm.broadcast(root, val);
            }
            acc
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn stats_count_messages() {
        let results = run_threads(4, |comm| {
            comm.barrier();
            comm.stats()
        });
        // Every PE except the tree root sends at least one message per
        // reduce, and roots send during broadcast.
        let total: u64 = results.iter().map(|s| s.messages).sum();
        assert!(total >= 6, "barrier exchanged {total} messages");
    }
}
