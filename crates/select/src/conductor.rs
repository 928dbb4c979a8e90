//! Selection driver for the cluster simulator: runs every PE's local steps
//! inside one thread and *reports* what the network would have carried.
//!
//! Runs the identical [`SelectionState`](crate::state::SelectionState)
//! machine as the threaded driver, so pivot choices, round counts and the
//! final threshold have exactly the protocol's distribution; only the
//! all-reduces are replaced by in-process folds. The caller (the simulator)
//! charges each reported round through its
//! [`CostModel`](reservoir_comm::CostModel).

use reservoir_rng::Rng64;

use crate::candidates::CandidateSet;
use crate::state::{combine_into, SelectParams, SelectResult, SelectionState, TargetRank};

/// What the conductor observed: the result plus, per round, the all-reduce
/// payload size in machine words (candidate vector + count vector; each
/// round performs two all-reduces of roughly this size).
#[derive(Clone, Debug)]
pub struct ConductorReport {
    pub result: SelectResult,
    /// Payload words moved per round (for cost accounting).
    pub round_payload_words: Vec<u64>,
}

/// Select the key of global rank `target` over the union of `sets`.
///
/// `rngs` supplies one generator per set (PE); pass a single set holding the
/// global key union to simulate an arbitrarily large machine — the pivot
/// distribution is identical because a Bernoulli sample of a disjoint union
/// is the union of Bernoulli samples.
pub fn select_conductor<S>(
    sets: &[&S],
    target: TargetRank,
    params: SelectParams,
    rngs: &mut [impl Rng64],
) -> ConductorReport
where
    S: CandidateSet + ?Sized,
{
    assert_eq!(sets.len(), rngs.len(), "one RNG per candidate set");
    let total: u64 = sets.iter().map(|s| s.total()).sum();
    let mut st = SelectionState::new(target, total, params);
    let mut round_payload_words = Vec::new();
    // `combined`/`counts` hold the folded values; `local` is one PE's share.
    let (mut combined, mut local) = (Vec::new(), Vec::new());
    let (mut counts, mut local_counts) = (Vec::new(), Vec::new());
    loop {
        assert!(
            !st.over_budget(),
            "conductor selection exceeded its round budget"
        );
        // Step 1+2: propose on every PE, fold as the all-reduce would
        // (`None` is the fold's identity).
        let take_min = st.combine_is_min();
        combined.clear();
        combined.resize(st.num_pivots(), None);
        for (set, rng) in sets.iter().zip(rngs.iter_mut()) {
            local.clear();
            st.propose(*set, rng, &mut local);
            combine_into(&mut combined, &local, take_min);
        }
        let candidate_words = 3 * st.num_pivots() as u64 + 1;
        if !st.absorb(&combined) {
            round_payload_words.push(candidate_words);
            continue;
        }
        // Step 3+4: count on every PE, fold, decide.
        counts.clear();
        counts.resize(st.round_pivots(), 0);
        for set in sets {
            local_counts.clear();
            st.count(*set, &mut local_counts);
            for (a, b) in counts.iter_mut().zip(&local_counts) {
                *a += b;
            }
        }
        round_payload_words.push(candidate_words + counts.len() as u64 + 1);
        if let Some(result) = st.decide(&counts) {
            return ConductorReport {
                result,
                round_payload_words,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::SortedKeys;
    use reservoir_btree::SampleKey;
    use reservoir_rng::{default_rng, DefaultRng};

    fn split_keys(n: u64, p: usize) -> Vec<SortedKeys> {
        (0..p)
            .map(|pe| {
                SortedKeys::new(
                    (0..n)
                        .filter(|i| *i as usize % p == pe)
                        .map(|i| SampleKey::new((i * 31 % n) as f64, i))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn conductor_matches_oracle() {
        let n = 2000u64;
        for p in [1usize, 3, 8] {
            let sets = split_keys(n, p);
            let refs: Vec<&SortedKeys> = sets.iter().collect();
            let mut all: Vec<SampleKey> = sets.iter().flat_map(|s| s.as_slice().to_vec()).collect();
            all.sort_unstable();
            let mut rngs: Vec<DefaultRng> = (0..p).map(|i| default_rng(100 + i as u64)).collect();
            for k in [1u64, 17, n / 2, n] {
                let report = select_conductor(
                    &refs,
                    TargetRank::exact(k),
                    SelectParams::with_pivots(2),
                    &mut rngs,
                );
                assert_eq!(
                    report.result.threshold,
                    all[(k - 1) as usize],
                    "p={p} k={k}"
                );
                assert_eq!(report.result.rank, k);
                assert_eq!(
                    report.round_payload_words.len(),
                    report.result.rounds as usize
                );
            }
        }
    }

    #[test]
    fn single_global_set_equals_partitioned_distributionally() {
        // Round counts over many seeds should have statistically
        // indistinguishable means whether keys sit on 1 or 8 PEs.
        let n = 50_000u64;
        let k = 5_000u64;
        let trials = 40;
        let mean_rounds = |p: usize| -> f64 {
            let sets = split_keys(n, p);
            let refs: Vec<&SortedKeys> = sets.iter().collect();
            let mut total = 0u32;
            for t in 0..trials {
                let mut rngs: Vec<DefaultRng> =
                    (0..p).map(|i| default_rng(t * 131 + i as u64)).collect();
                total += select_conductor(
                    &refs,
                    TargetRank::exact(k),
                    SelectParams::default(),
                    &mut rngs,
                )
                .result
                .rounds;
            }
            total as f64 / trials as f64
        };
        let m1 = mean_rounds(1);
        let m8 = mean_rounds(8);
        assert!(
            (m1 - m8).abs() < 0.35 * m1.max(m8),
            "round-count means diverge: p=1 {m1}, p=8 {m8}"
        );
    }

    #[test]
    fn payload_words_scale_with_pivots() {
        let n = 10_000u64;
        let sets = split_keys(n, 2);
        let refs: Vec<&SortedKeys> = sets.iter().collect();
        let mut rngs = vec![default_rng(1), default_rng(2)];
        let r8 = select_conductor(
            &refs,
            TargetRank::exact(500),
            SelectParams::with_pivots(8),
            &mut rngs,
        );
        assert!(r8.round_payload_words.iter().all(|&w| w > 3 * 8));
    }
}
