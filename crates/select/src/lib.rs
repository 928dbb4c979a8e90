//! Communication-efficient distributed selection (paper Section 3.3).
//!
//! Given `p` PEs each holding a *sorted* set of keys (their local reservoir
//! B+ trees), find the key of global rank `k` — the insertion threshold for
//! the next mini-batch — using only O(1) small collectives per round and an
//! expected O(log) number of rounds.
//!
//! The algorithm implemented here is the "universally applicable" selection
//! of Section 3.3.3 with the multi-pivot refinement of Section 3.3.2:
//!
//! 1. every PE draws `d` pivot candidates from its local set — each
//!    candidate is the first success of a Bernoulli(1/k̃) scan of the local
//!    keys in the active range, so the *global* minimum of the candidates is
//!    the first success over the global candidate multiset and has expected
//!    global rank k̃ (when k̃ is large relative to the range, the scan is
//!    mirrored from the top with success probability 1/(N−k̃+1));
//! 2. one all-reduce combines the candidates (elementwise min — or max in
//!    mirrored mode);
//! 3. every PE counts its local keys at or below each pivot; one all-reduce
//!    sums the counts;
//! 4. if some pivot's global count lands in the target rank window, it is
//!    the threshold; otherwise the active range shrinks to the bracketing
//!    pivot interval and the round repeats. Every round discards at least
//!    one key of the active range, so termination is guaranteed; expected
//!    round counts are small and are reported in [`SelectResult::rounds`].
//!
//! Exact selection is the special case of a width-zero target window; the
//! approximate `amsSelect` of Section 3.3.2 (used by the variable-size
//! reservoir of Section 4.4) passes a genuine window `k..k̄`.
//!
//! Two drivers share the same `SelectionState` machine:
//! [`threaded::select_threaded_many`] runs the real message-passing
//! protocol on a [`reservoir_comm::Communicator`] for any number of
//! independent selections behind one collective schedule (one task for a
//! sampler's per-batch threshold, one per shard for the sharded fleet's
//! joint rounds); [`conductor::select_conductor`] runs all PEs' steps
//! inside one thread (used by the cluster simulator, which charges
//! communication through a cost model instead of performing it).

mod candidates;
mod conductor;
mod quickselect;
mod state;
mod threaded;

pub use candidates::{CandidateSet, SortedKeys};
pub use conductor::{select_conductor, ConductorReport};
pub use quickselect::kth_smallest;
pub use state::{SelectParams, SelectResult, TargetRank};
pub use threaded::{select_threaded_many, MultiSelectResult};
