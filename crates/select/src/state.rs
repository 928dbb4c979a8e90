//! The round-state machine shared by all three selection drivers.
//!
//! One `SelectionState` instance evolves identically on every PE (threaded
//! drivers) or once in the conductor, because every transition depends only
//! on globally-agreed values (all-reduced pivot candidates and counts).
//!
//! A round allocates nothing of its own: `propose` appends to the caller's
//! wire vector, `absorb` refills the state's pivot buffer in place and
//! `count` appends to the caller's counts vector. A driver can therefore
//! concatenate many states' rounds into one buffer per collective and reuse
//! those buffers round after round.

use reservoir_btree::SampleKey;
use reservoir_obs::LazyCounter;
use reservoir_rng::Rng64;

use crate::candidates::CandidateSet;

/// Pivot rounds advanced by any selection driver in this process; each
/// participant counts its own state's rounds, so under the threaded driver
/// the total is `rounds × p` (the conductor counts once per round).
static SELECT_ROUNDS: LazyCounter = LazyCounter::new(
    "select_rounds_total",
    "distributed-selection pivot rounds advanced (per participating state)",
);

/// Target rank window, 1-based and inclusive: find a key whose global rank
/// lies in `lo..=hi`. Exact selection uses `lo == hi == k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetRank {
    pub lo: u64,
    pub hi: u64,
}

impl TargetRank {
    /// Exact rank `k` (1-based: `k = 1` selects the global minimum).
    pub fn exact(k: u64) -> Self {
        assert!(k >= 1, "ranks are 1-based");
        TargetRank { lo: k, hi: k }
    }

    /// A rank window for approximate selection (paper Section 3.3.2).
    pub fn range(lo: u64, hi: u64) -> Self {
        assert!(1 <= lo && lo <= hi, "invalid target window {lo}..{hi}");
        TargetRank { lo, hi }
    }
}

/// Tuning knobs for the selection protocol.
#[derive(Clone, Copy, Debug)]
pub struct SelectParams {
    /// Number of pivot candidates per round (the paper's `d`; `ours` uses 1,
    /// `ours-8` uses 8).
    pub num_pivots: usize,
    /// Safety valve: abort after this many rounds (termination is guaranteed
    /// in at most `N` rounds; expected rounds are logarithmic).
    pub max_rounds: u32,
}

impl Default for SelectParams {
    fn default() -> Self {
        SelectParams {
            num_pivots: 1,
            max_rounds: 100_000,
        }
    }
}

impl SelectParams {
    /// `d`-pivot parameters.
    pub fn with_pivots(d: usize) -> Self {
        assert!(d >= 1, "at least one pivot per round");
        SelectParams {
            num_pivots: d,
            ..Default::default()
        }
    }
}

/// Outcome of a distributed selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectResult {
    /// The selected key: the new insertion threshold.
    pub threshold: SampleKey,
    /// Global rank of `threshold` (1-based, i.e. the number of keys
    /// `<= threshold` across all PEs). Within the requested target window.
    pub rank: u64,
    /// Number of pivot rounds used (the paper reports averages of these).
    pub rounds: u32,
}

/// Scan direction for pivot sampling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Bernoulli(1/k̃) scan from the smallest key; combine with min.
    Bottom,
    /// Mirrored: Bernoulli(1/(N−k̃+1)) scan from the largest key; combine
    /// with max. Used when the target rank is in the upper half.
    Top,
}

/// A pivot candidate as the candidate all-reduce carries it: the
/// `(key, id)` of a [`SampleKey`], or `None` when a PE's scan ran past its
/// local keys.
pub(crate) type Candidate = Option<(f64, u64)>;

/// Fold another PE's candidates into `acc`, slot by slot: the smaller key
/// under a bottom scan (`take_min`), the larger under a mirrored top scan;
/// `None` is the identity.
pub(crate) fn combine_into(acc: &mut [Candidate], other: &[Candidate], take_min: bool) {
    debug_assert_eq!(acc.len(), other.len());
    for (x, y) in acc.iter_mut().zip(other) {
        *x = match (*x, *y) {
            (None, y) => y,
            (x, None) => x,
            (Some(a), Some(b)) => {
                let (a, b) = (SampleKey::new(a.0, a.1), SampleKey::new(b.0, b.1));
                let k = if take_min { a.min(b) } else { a.max(b) };
                Some((k.key, k.id))
            }
        };
    }
}

/// The evolving global state of one selection.
pub(crate) struct SelectionState {
    /// Active open interval `(lo, hi)`; `None` = unbounded.
    lo: Option<SampleKey>,
    hi: Option<SampleKey>,
    /// Number of keys in the active interval, globally.
    n: u64,
    /// Target window, 1-based ranks *within* the active interval.
    t_lo: u64,
    t_hi: u64,
    /// Keys excluded below `lo` so far (for reporting global ranks).
    offset: u64,
    direction: Direction,
    pub rounds: u32,
    params: SelectParams,
    /// Pivots of the current round, sorted ascending (deduplicated).
    pivots: Vec<SampleKey>,
}

impl SelectionState {
    /// `total` is the global number of keys (sum of `CandidateSet::total`
    /// over PEs); the caller knows it already and the window must fit.
    pub fn new(target: TargetRank, total: u64, params: SelectParams) -> Self {
        assert!(
            target.lo >= 1 && target.hi <= total,
            "target {target:?} outside 1..={total}"
        );
        assert!(params.num_pivots >= 1, "at least one pivot per round");
        let mut s = SelectionState {
            lo: None,
            hi: None,
            n: total,
            t_lo: target.lo,
            t_hi: target.hi,
            offset: 0,
            direction: Direction::Bottom,
            rounds: 0,
            params,
            pivots: Vec::new(),
        };
        s.pick_direction();
        s
    }

    fn pick_direction(&mut self) {
        let mid = (self.t_lo + self.t_hi) / 2;
        self.direction = if mid * 2 > self.n {
            Direction::Top
        } else {
            Direction::Bottom
        };
    }

    /// Per-PE step 1: append `d` local pivot candidates drawn from `set` to
    /// `out` (the caller's wire vector).
    ///
    /// Each candidate is the first success of an independent Bernoulli scan
    /// of the local keys in the active range (in the current direction). A
    /// `None` means this PE's scan ran past its local keys.
    pub fn propose<S: CandidateSet + ?Sized>(
        &self,
        set: &S,
        rng: &mut impl Rng64,
        out: &mut Vec<Candidate>,
    ) {
        let m = set.count_in(self.lo.as_ref(), self.hi.as_ref());
        let success = match self.direction {
            Direction::Bottom => 1.0 / self.t_hi.max(1) as f64,
            Direction::Top => 1.0 / (self.n - self.t_lo + 1).max(1) as f64,
        };
        out.extend((0..self.params.num_pivots).map(|_| {
            let g = if success >= 1.0 {
                0
            } else {
                rng.geometric_skips(success)
            };
            if g >= m {
                return None;
            }
            let key = match self.direction {
                Direction::Bottom => set.select_above(self.lo.as_ref(), g),
                Direction::Top => set.select_below(self.hi.as_ref(), g),
            };
            key.map(|k| (k.key, k.id))
        }));
    }

    /// Global step 2: fix this round's pivots from the combined candidate
    /// segment, refilling the state's own pivot buffer in place. Returns
    /// `false` if no PE produced any candidate (a wasted round; the caller
    /// simply loops).
    pub fn absorb(&mut self, combined: &[Candidate]) -> bool {
        self.rounds += 1;
        SELECT_ROUNDS.inc();
        self.pivots.clear();
        self.pivots.extend(
            combined
                .iter()
                .flatten()
                .map(|&(key, id)| SampleKey::new(key, id)),
        );
        self.pivots.sort_unstable();
        self.pivots.dedup();
        !self.pivots.is_empty()
    }

    /// Number of pivots the last [`absorb`](Self::absorb) kept: the length
    /// of this state's segment in the round's count vector.
    pub fn round_pivots(&self) -> usize {
        self.pivots.len()
    }

    /// Per-PE step 3: append the number of local keys at or below each
    /// pivot, within the active range, to `out`.
    pub fn count<S: CandidateSet + ?Sized>(&self, set: &S, out: &mut Vec<u64>) {
        let base = match &self.lo {
            Some(l) => set.count_le(l),
            None => 0,
        };
        out.extend(self.pivots.iter().map(|pv| set.count_le(pv) - base));
    }

    /// Global step 4: inspect the summed counts; either finish or narrow the
    /// active range. `counts[j]` is the global number of active-range keys
    /// `<= pivots[j]`.
    pub fn decide(&mut self, counts: &[u64]) -> Option<SelectResult> {
        debug_assert_eq!(counts.len(), self.pivots.len());
        // Accept the pivot whose count lands nearest the window centre.
        let mut best: Option<(u64, usize)> = None;
        for (j, &c) in counts.iter().enumerate() {
            if self.t_lo <= c && c <= self.t_hi {
                let mid = (self.t_lo + self.t_hi) / 2;
                let dist = c.abs_diff(mid);
                if best.is_none_or(|(d, _)| dist < d) {
                    best = Some((dist, j));
                }
            }
        }
        if let Some((_, j)) = best {
            return Some(SelectResult {
                threshold: self.pivots[j],
                rank: self.offset + counts[j],
                rounds: self.rounds,
            });
        }
        // Narrow: bracket the window between adjacent pivots.
        let mut below: Option<(SampleKey, u64)> = None; // largest pivot with c < t_lo
        let mut above: Option<(SampleKey, u64)> = None; // smallest pivot with c > t_hi
        for (j, &c) in counts.iter().enumerate() {
            if c < self.t_lo {
                below = Some((self.pivots[j], c));
            } else if c > self.t_hi && above.is_none() {
                above = Some((self.pivots[j], c));
            }
        }
        let cut_below = below.map(|(_, c)| c).unwrap_or(0);
        if let Some((pv, c)) = below {
            self.lo = Some(pv);
            self.offset += c;
            self.t_lo -= c;
            self.t_hi -= c;
            self.n -= c;
        }
        if let Some((pv, c)) = above {
            self.hi = Some(pv);
            // Keys in the new interval (lo, pv): those <= pv minus pv itself
            // minus the ones cut below.
            self.n = c - 1 - cut_below;
        }
        debug_assert!(
            self.t_lo >= 1 && self.t_hi <= self.n,
            "window {}..{} escaped active range of {} keys",
            self.t_lo,
            self.t_hi,
            self.n
        );
        self.pick_direction();
        None
    }

    pub fn over_budget(&self) -> bool {
        self.rounds >= self.params.max_rounds
    }

    /// Whether this round's candidates combine by minimum (bottom scans) or
    /// maximum (mirrored top scans).
    pub fn combine_is_min(&self) -> bool {
        self.direction == Direction::Bottom
    }

    pub fn num_pivots(&self) -> usize {
        self.params.num_pivots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::SortedKeys;
    use reservoir_rng::default_rng;

    fn keyset(n: u64) -> SortedKeys {
        SortedKeys::new((0..n).map(|i| SampleKey::new(i as f64, i)).collect())
    }

    /// Drive the state machine against a single local set (p = 1).
    fn run(total: u64, target: TargetRank, d: usize, seed: u64) -> SelectResult {
        let set = keyset(total);
        let mut rng = default_rng(seed);
        let mut st = SelectionState::new(target, total, SelectParams::with_pivots(d));
        let (mut cand, mut counts) = (Vec::new(), Vec::new());
        loop {
            assert!(!st.over_budget(), "selection did not terminate");
            cand.clear();
            st.propose(&set, &mut rng, &mut cand);
            if !st.absorb(&cand) {
                continue;
            }
            counts.clear();
            st.count(&set, &mut counts);
            if let Some(res) = st.decide(&counts) {
                return res;
            }
        }
    }

    #[test]
    fn exact_selection_all_ranks_small() {
        for k in 1..=20u64 {
            let res = run(20, TargetRank::exact(k), 1, 42 + k);
            assert_eq!(res.rank, k);
            assert_eq!(res.threshold.key, (k - 1) as f64, "rank {k}");
        }
    }

    #[test]
    fn exact_selection_larger_sets_multi_pivot() {
        for &d in &[1usize, 2, 8] {
            for &k in &[1u64, 7, 500, 999, 1000] {
                let res = run(1000, TargetRank::exact(k), d, 7 * k + d as u64);
                assert_eq!(res.threshold.key, (k - 1) as f64, "d={d} k={k}");
            }
        }
    }

    #[test]
    fn approximate_selection_lands_in_window() {
        for seed in 0..20 {
            let res = run(10_000, TargetRank::range(900, 1100), 2, seed);
            assert!(
                (900..=1100).contains(&res.rank),
                "rank {} outside window",
                res.rank
            );
            assert_eq!(res.threshold.key, (res.rank - 1) as f64);
        }
    }

    #[test]
    fn approximate_needs_fewer_rounds_than_exact() {
        let mut exact_rounds = 0u32;
        let mut approx_rounds = 0u32;
        for seed in 0..30 {
            exact_rounds += run(100_000, TargetRank::exact(50_000), 1, seed).rounds;
            approx_rounds += run(100_000, TargetRank::range(45_000, 55_000), 1, seed).rounds;
        }
        assert!(
            approx_rounds < exact_rounds,
            "approx {approx_rounds} !< exact {exact_rounds}"
        );
    }

    #[test]
    fn multi_pivot_reduces_rounds() {
        let mut r1 = 0u32;
        let mut r8 = 0u32;
        for seed in 0..30 {
            r1 += run(100_000, TargetRank::exact(10_000), 1, seed).rounds;
            r8 += run(100_000, TargetRank::exact(10_000), 8, seed).rounds;
        }
        assert!(r8 * 2 < r1 * 2, "d=8 rounds {r8} vs d=1 rounds {r1}");
        assert!(
            (r8 as f64) < (r1 as f64) * 0.8,
            "multi-pivot should cut rounds substantially: {r8} vs {r1}"
        );
    }

    #[test]
    fn top_direction_used_for_high_ranks() {
        let st = SelectionState::new(TargetRank::exact(95), 100, SelectParams::default());
        assert_eq!(st.direction, Direction::Top);
        let st = SelectionState::new(TargetRank::exact(5), 100, SelectParams::default());
        assert_eq!(st.direction, Direction::Bottom);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn target_beyond_total_rejected() {
        let _ = SelectionState::new(TargetRank::exact(11), 10, SelectParams::default());
    }
}
