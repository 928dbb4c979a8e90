//! Selection driver for the real message-passing backend.

use reservoir_comm::{Collectives, Communicator};
use reservoir_rng::Rng64;

use crate::candidates::CandidateSet;
use crate::state::{combine_into, SelectParams, SelectResult, SelectionState, TargetRank};

/// Find the key whose global rank (over the union of all PEs' sets) lies in
/// `target`, using the pivot protocol of paper Section 3.3.3.
///
/// Must be called collectively: every PE passes its local `set`, the global
/// key count `total` (all PEs must agree on it — it is the sum of the local
/// set sizes, which the samplers already all-reduce), and identical
/// `target`/`params`. All PEs return the same result.
///
/// Each round costs two small all-reduces: O(d) words each, O(α log p)
/// latency.
pub fn select_threaded<C, S>(
    comm: &C,
    set: &S,
    target: TargetRank,
    total: u64,
    params: SelectParams,
    rng: &mut impl Rng64,
) -> SelectResult
where
    C: Communicator,
    S: CandidateSet + ?Sized,
{
    let mut st = SelectionState::new(target, total, params);
    // The vectors handed to the collectives come back combined and serve
    // as the next round's buffers.
    let (mut wire, mut counts) = (Vec::new(), Vec::new());
    loop {
        assert!(
            !st.over_budget(),
            "distributed selection exceeded its round budget"
        );
        wire.clear();
        st.propose(set, rng, &mut wire);
        let take_min = st.combine_is_min();
        wire = comm.allreduce(wire, |mut a, b| {
            combine_into(&mut a, &b, take_min);
            a
        });
        if !st.absorb(&wire) {
            continue; // no PE sampled a pivot this round; retry
        }
        counts.clear();
        st.count(set, &mut counts);
        counts = comm.sum_u64_vec(counts);
        if let Some(res) = st.decide(&counts) {
            return res;
        }
    }
}

/// Outcome of a batched multi-selection: one [`SelectResult`] per task plus
/// the number of *joint* pivot rounds the whole batch consumed.
///
/// `joint_rounds` is the amortization witness: it is the maximum of the
/// per-task round counts, not their sum, because every joint round serves
/// all still-undecided tasks with the same two collectives.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiSelectResult {
    /// Per-task results, in task order. Each is byte-identical to what a
    /// standalone [`select_threaded`] call with the same set/target/RNG
    /// would have produced.
    pub results: Vec<SelectResult>,
    /// Collective rounds spent by the batch as a whole (max over tasks).
    pub joint_rounds: u32,
}

/// Run many independent selections behind one collective schedule.
///
/// Task `i` selects `targets[i]` from the global union of `sets[i]`
/// (global size `totals[i]`, which all PEs must agree on), consuming
/// `rngs[i]`. Instead of paying two all-reduces per task per round, each
/// *joint* round concatenates every undecided task's pivot candidates into
/// a single vector for **one** all-reduce, and every absorbing task's pivot
/// counts into a single vector for **one** `sum_u64_vec` — so the α·log p
/// collective latency is amortized across all tasks.
///
/// Every per-task state trajectory (pivots proposed, candidates absorbed,
/// counts, decisions, RNG consumption) is exactly the trajectory
/// [`select_threaded`] would produce for that task alone: candidate
/// combination is elementwise, and each segment of the concatenated vector
/// combines under its own task's min/max direction. Tasks drop out of the
/// schedule as they decide; the batch runs until the slowest task finishes.
///
/// Must be called collectively with identical task lists on every PE.
pub fn select_threaded_many<C, S, R>(
    comm: &C,
    sets: &[&S],
    targets: &[TargetRank],
    totals: &[u64],
    params: SelectParams,
    rngs: &mut [R],
) -> MultiSelectResult
where
    C: Communicator,
    S: CandidateSet + ?Sized,
    R: Rng64,
{
    let n = sets.len();
    assert_eq!(targets.len(), n, "one target per task");
    assert_eq!(totals.len(), n, "one total per task");
    assert_eq!(rngs.len(), n, "one RNG stream per task");
    let d = params.num_pivots;
    let mut states: Vec<Option<SelectionState>> = (0..n)
        .map(|i| Some(SelectionState::new(targets[i], totals[i], params)))
        .collect();
    let mut results: Vec<Option<SelectResult>> = vec![None; n];
    let mut joint_rounds = 0u32;
    // Per-round buffers, reused across rounds: the combine direction of
    // each undecided task's `d`-slot candidate segment, the concatenated
    // candidates and the concatenated counts. The last two move into the
    // collectives and come back combined, ready for the next round.
    let mut take_min: Vec<bool> = Vec::with_capacity(n);
    let (mut wire, mut counts) = (Vec::new(), Vec::new());
    while states.iter().any(Option::is_some) {
        joint_rounds += 1;
        // Step 1+2: concatenate every undecided task's candidate proposals
        // and combine them in ONE all-reduce. Segment boundaries and
        // per-segment directions are globally agreed because the states
        // evolve deterministically from all-reduced values.
        wire.clear();
        take_min.clear();
        for (i, st) in states.iter().enumerate() {
            let Some(st) = st else { continue };
            assert!(
                !st.over_budget(),
                "distributed selection exceeded its round budget (task {i})"
            );
            st.propose(sets[i], &mut rngs[i], &mut wire);
            take_min.push(st.combine_is_min());
        }
        wire = comm.allreduce(wire, |mut a, b| {
            let segments = a.chunks_exact_mut(d).zip(b.chunks_exact(d));
            for ((a, b), &m) in segments.zip(&take_min) {
                combine_into(a, b, m);
            }
            a
        });
        // Step 3: absorb per task; a task whose candidate segment came back
        // empty wastes this round (exactly as standalone `continue` does),
        // keeps no pivots and contributes no counts.
        let mut any_absorbed = false;
        for (st, seg) in states.iter_mut().flatten().zip(wire.chunks_exact(d)) {
            any_absorbed |= st.absorb(seg);
        }
        if !any_absorbed {
            continue; // every active task wasted the round; no count needed
        }
        // Step 3b+4: concatenate per-pivot counts into ONE sum_u64_vec and
        // let each absorbing task decide on its own segment.
        counts.clear();
        for (st, set) in states.iter().zip(sets) {
            match st {
                Some(st) if st.round_pivots() > 0 => st.count(*set, &mut counts),
                _ => {}
            }
        }
        counts = comm.sum_u64_vec(counts);
        let mut off = 0usize;
        for (st, result) in states.iter_mut().zip(&mut results) {
            let Some(s) = st else { continue };
            let len = s.round_pivots();
            if len == 0 {
                continue; // this task wasted the round
            }
            *result = s.decide(&counts[off..off + len]);
            off += len;
            if result.is_some() {
                *st = None;
            }
        }
    }
    MultiSelectResult {
        results: results
            .into_iter()
            .map(|r| r.expect("loop exits only when every task decided"))
            .collect(),
        joint_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::SortedKeys;
    use reservoir_btree::SampleKey;
    use reservoir_comm::run_threads;
    use reservoir_rng::{default_rng, SeedSequence, StreamKind};

    /// Deal `n` keys round-robin over `p` PEs and select various ranks.
    fn harness(p: usize, n: u64, d: usize) {
        let all: Vec<SampleKey> = (0..n)
            .map(|i| SampleKey::new(((i * 7919) % n) as f64, i))
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        for &k in &[1u64, 2, n / 3, n / 2, n - 1, n] {
            let results = run_threads(p, |comm| {
                let rank = comm.rank();
                let local: Vec<SampleKey> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % p == rank)
                    .map(|(_, k)| *k)
                    .collect();
                let set = SortedKeys::new(local);
                let seq = SeedSequence::new(12345);
                let mut rng = seq.rng_for(rank, StreamKind::Selection);
                select_threaded(
                    &comm,
                    &set,
                    TargetRank::exact(k),
                    n,
                    SelectParams::with_pivots(d),
                    &mut rng,
                )
            });
            let expect = sorted[(k - 1) as usize];
            for (pe, res) in results.iter().enumerate() {
                assert_eq!(res.threshold, expect, "p={p} k={k} d={d} pe={pe}");
                assert_eq!(res.rank, k);
            }
            // All PEs agree on the round count.
            assert!(results.windows(2).all(|w| w[0].rounds == w[1].rounds));
        }
    }

    #[test]
    fn exact_selection_across_pe_counts() {
        for p in [1, 2, 4, 7] {
            harness(p, 500, 1);
        }
    }

    #[test]
    fn exact_selection_multi_pivot() {
        harness(4, 1000, 8);
    }

    #[test]
    fn skewed_distribution_across_pes() {
        // All small keys on PE 0, all large on PE 1: adversarial placement.
        let n = 400u64;
        let results = run_threads(2, |comm| {
            let rank = comm.rank();
            let local: Vec<SampleKey> = (0..n)
                .filter(|i| (*i < n / 2) == (rank == 0))
                .map(|i| SampleKey::new(i as f64, i))
                .collect();
            let set = SortedKeys::new(local);
            let mut rng = default_rng(99 + rank as u64);
            select_threaded(
                &comm,
                &set,
                TargetRank::exact(n / 2 + 10),
                n,
                SelectParams::default(),
                &mut rng,
            )
        });
        for res in &results {
            assert_eq!(res.threshold.key, (n / 2 + 9) as f64);
        }
    }

    #[test]
    fn window_target_across_pes() {
        let n = 10_000u64;
        let results = run_threads(4, |comm| {
            let rank = comm.rank();
            let local: Vec<SampleKey> = (0..n)
                .filter(|i| *i as usize % 4 == rank)
                .map(|i| SampleKey::new(i as f64, i))
                .collect();
            let set = SortedKeys::new(local);
            let mut rng = default_rng(7 + rank as u64);
            select_threaded(
                &comm,
                &set,
                TargetRank::range(4_500, 5_500),
                n,
                SelectParams::with_pivots(2),
                &mut rng,
            )
        });
        for res in &results {
            assert!((4_500..=5_500).contains(&res.rank));
            assert_eq!(res.threshold.key, (res.rank - 1) as f64);
        }
    }

    /// Per PE: the batched outcome, the standalone results, and each
    /// task's next RNG draw after the batched and after its standalone run.
    type Trial = (MultiSelectResult, Vec<SelectResult>, Vec<u64>, Vec<u64>);

    /// Run `targets` through one batched call and, on the same
    /// communicator, through one standalone [`select_threaded`] per task
    /// from an identical RNG stream. `keys(rank, t)` is PE `rank`'s share of
    /// task `t`.
    fn batched_vs_standalone(
        p: usize,
        keys: impl Fn(usize, usize) -> Vec<SampleKey> + Sync,
        targets: &[TargetRank],
        d: usize,
    ) -> Vec<Trial> {
        let tasks = targets.len();
        let totals: Vec<u64> = (0..tasks)
            .map(|t| (0..p).map(|r| keys(r, t).len() as u64).sum())
            .collect();
        let params = SelectParams::with_pivots(d);
        run_threads(p, |comm| {
            let rank = comm.rank();
            let sets: Vec<SortedKeys> =
                (0..tasks).map(|t| SortedKeys::new(keys(rank, t))).collect();
            let refs: Vec<&SortedKeys> = sets.iter().collect();
            let seq = SeedSequence::new(0xBEEF);
            let stream = |t: usize| seq.rng_for(rank * 64 + t, StreamKind::Selection);
            let mut rngs: Vec<_> = (0..tasks).map(stream).collect();
            let many = select_threaded_many(&comm, &refs, targets, &totals, params, &mut rngs);
            let many_next = rngs.iter_mut().map(|r| r.next_u64()).collect();
            let (solo, solo_next) = (0..tasks)
                .map(|t| {
                    let mut rng = stream(t);
                    let res =
                        select_threaded(&comm, &sets[t], targets[t], totals[t], params, &mut rng);
                    (res, rng.next_u64())
                })
                .unzip();
            (many, solo, many_next, solo_next)
        })
    }

    /// The amortized driver must reproduce each standalone trajectory
    /// byte-for-byte: same thresholds, same ranks, same per-task rounds,
    /// and the same RNG consumption, so later batches stay identical too.
    #[test]
    fn many_matches_standalone_per_task() {
        let p = 3;
        // A spread of ranks over a few hundred keys per task, d = 2.
        let spread: Vec<TargetRank> = (0..5).map(|t| TargetRank::exact(10 + t * 29)).collect();
        let spread_keys = |rank: usize, t: usize| {
            let t = t as u64;
            (0..200 + t * 37)
                .filter(|i| *i as usize % p == rank)
                .map(|i| SampleKey::new(((i * 7919 + t * 13) % 1000) as f64, i))
                .collect()
        };
        // The fleet's regime: exact rank k over a union of k + e keys
        // (a mirrored top scan), d = 1, and PE 0 holds no keys for every
        // third task, so wasted and absorbing tasks share joint rounds.
        let k = 16u64;
        let fleet: Vec<TargetRank> = (0..15).map(|_| TargetRank::exact(k)).collect();
        let fleet_keys = |rank: usize, t: usize| {
            let owners = if t.is_multiple_of(3) { 1..p } else { 0..p };
            let n = k + (t % 5) as u64;
            (0..n)
                .filter(|&i| owners.start + i as usize % owners.len() == rank)
                .map(|i| SampleKey::new(((i * 7919 + t as u64 * 13) % 1000) as f64, i))
                .collect()
        };
        for trials in [
            batched_vs_standalone(p, spread_keys, &spread, 2),
            batched_vs_standalone(p, fleet_keys, &fleet, 1),
        ] {
            for (pe, (many, solo, many_next, solo_next)) in trials.iter().enumerate() {
                assert_eq!(many.results, *solo, "pe={pe}");
                assert_eq!(many_next, solo_next, "RNG consumption differs, pe={pe}");
                let max_rounds = solo.iter().map(|r| r.rounds).max().unwrap();
                assert!(
                    many.joint_rounds >= max_rounds,
                    "joint rounds {} < slowest task {}",
                    many.joint_rounds,
                    max_rounds
                );
                // Amortization: the batch must not pay per-task rounds.
                let sum_rounds: u32 = solo.iter().map(|r| r.rounds).sum();
                assert!(
                    many.joint_rounds < sum_rounds,
                    "joint rounds {} not amortized vs per-task sum {}",
                    many.joint_rounds,
                    sum_rounds
                );
            }
            // Every PE agrees on the batched outcome.
            assert!(trials.windows(2).all(|w| w[0].0 == w[1].0));
        }
    }

    #[test]
    fn many_with_no_tasks_is_a_noop() {
        let results = run_threads(2, |comm| {
            let sets: Vec<&SortedKeys> = Vec::new();
            let mut rngs: Vec<reservoir_rng::DefaultRng> = Vec::new();
            select_threaded_many(&comm, &sets, &[], &[], SelectParams::default(), &mut rngs)
        });
        for r in &results {
            assert!(r.results.is_empty());
            assert_eq!(r.joint_rounds, 0);
        }
    }

    #[test]
    fn empty_pes_are_tolerated() {
        // Only PE 0 holds keys.
        let n = 100u64;
        let results = run_threads(3, |comm| {
            let rank = comm.rank();
            let local: Vec<SampleKey> = if rank == 0 {
                (0..n).map(|i| SampleKey::new(i as f64, i)).collect()
            } else {
                Vec::new()
            };
            let set = SortedKeys::new(local);
            let mut rng = default_rng(5 + rank as u64);
            select_threaded(
                &comm,
                &set,
                TargetRank::exact(42),
                n,
                SelectParams::default(),
                &mut rng,
            )
        });
        for res in &results {
            assert_eq!(res.threshold.key, 41.0);
        }
    }
}
