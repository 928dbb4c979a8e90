//! The α–β communication cost model used by the cluster simulator.
//!
//! The paper's machine model (Section 3) charges `α + βℓ` for a message of
//! `ℓ` machine words — `α` is the startup latency, `β` the per-word cost —
//! and all collectives run in O(βℓ + α log p). When the benchmark harness
//! emulates more PEs than the laptop has cores, communication time is
//! *charged* through this model instead of measured; the defaults are
//! calibrated to the paper's InfiniBand 4X EDR interconnect.

/// Simulated wall-clock time in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct SimTime(pub f64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0.0);

    pub fn seconds(self) -> f64 {
        self.0
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

/// Latency/bandwidth parameters of the simulated interconnect.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Message startup latency in seconds (the paper's α).
    pub alpha: f64,
    /// Per-machine-word (8 byte) transfer time in seconds (the paper's β).
    pub beta: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::infiniband_edr()
    }
}

impl CostModel {
    /// InfiniBand 4X EDR-like parameters (ForHLR II, the paper's testbed):
    /// ~1.5 µs MPI latency, ~100 Gbit/s ≈ 12 GB/s effective bandwidth.
    pub fn infiniband_edr() -> Self {
        CostModel {
            alpha: 1.5e-6,
            beta: 8.0 / 12.0e9,
        }
    }

    /// Rounds of a binomial tree over `p` PEs.
    #[inline]
    pub fn tree_rounds(p: usize) -> u32 {
        debug_assert!(p > 0);
        usize::BITS - (p - 1).leading_zeros()
    }

    /// One point-to-point message of `words` machine words.
    #[inline]
    pub fn message(&self, words: u64) -> SimTime {
        SimTime(self.alpha + self.beta * words as f64)
    }

    /// Binomial-tree broadcast or reduction of a `words`-word payload:
    /// `⌈log₂ p⌉ · (α + β·words)`.
    #[inline]
    pub fn tree_collective(&self, p: usize, words: u64) -> SimTime {
        let rounds = Self::tree_rounds(p) as f64;
        SimTime(rounds * (self.alpha + self.beta * words as f64))
    }

    /// All-reduce / all-gather built as reduce + broadcast (2 tree passes),
    /// matching [`crate::collectives::Collectives`].
    #[inline]
    pub fn allreduce(&self, p: usize, words: u64) -> SimTime {
        let t = SimTime(2.0 * self.tree_collective(p, words).0);
        charged(&crate::obs_metrics::SIM_ALLREDUCE, words, t);
        t
    }

    /// Gather of `total_words` spread over `p` PEs at a single root: the
    /// root's downlink is the bottleneck (`β·total_words`), plus tree
    /// latency — the paper's O(βpℓ + α log p) gather bound.
    #[inline]
    pub fn gather(&self, p: usize, total_words: u64) -> SimTime {
        let t = SimTime(Self::tree_rounds(p) as f64 * self.alpha + self.beta * total_words as f64);
        charged(&crate::obs_metrics::SIM_GATHER, total_words, t);
        t
    }

    /// Exclusive prefix sum (exscan) of a `words`-word value: Hillis–Steele
    /// recursive doubling, `⌈log₂ p⌉` rounds of one message per PE —
    /// matching [`crate::collectives::Collectives::exscan`].
    #[inline]
    pub fn exscan(&self, p: usize, words: u64) -> SimTime {
        let t = self.tree_collective(p, words);
        charged(&crate::obs_metrics::SIM_EXSCAN, words, t);
        t
    }

    /// All-gather of `total_words` spread over `p` PEs: gather to a root
    /// then broadcast the concatenation — matching
    /// [`crate::collectives::Collectives::allgatherv`].
    #[inline]
    pub fn allgather(&self, p: usize, total_words: u64) -> SimTime {
        // Composed op: the inner `gather` charges its own launch, words
        // and seconds (mirroring how the threaded allgatherv launches a
        // real gather), so this only charges the broadcast half — the
        // payload crosses the wire once per half, exactly as the measured
        // `comm_*` counters see it, and seconds are never double-counted.
        let broadcast = self.tree_collective(p, total_words);
        charged(&crate::obs_metrics::SIM_ALLGATHER, total_words, broadcast);
        self.gather(p, total_words) + broadcast
    }
}

/// Mirror a predicted charge into the `sim_*` metrics namespace so the
/// cost model's accounting is pollable next to the measured `comm_*`
/// counters. One early-out branch when observability is disarmed.
fn charged(counter: &reservoir_obs::LazyCounter, words: u64, t: SimTime) {
    if !reservoir_obs::enabled() {
        return;
    }
    counter.inc();
    crate::obs_metrics::SIM_COLLECTIVE_WORDS.add(words);
    crate::obs_metrics::SIM_COLLECTIVE_SECONDS.add(t.seconds());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_rounds_examples() {
        assert_eq!(CostModel::tree_rounds(1), 0);
        assert_eq!(CostModel::tree_rounds(2), 1);
        assert_eq!(CostModel::tree_rounds(3), 2);
        assert_eq!(CostModel::tree_rounds(4), 2);
        assert_eq!(CostModel::tree_rounds(5), 3);
        assert_eq!(CostModel::tree_rounds(1024), 10);
        assert_eq!(CostModel::tree_rounds(5120), 13);
    }

    #[test]
    fn costs_scale_with_p_and_words() {
        let m = CostModel::infiniband_edr();
        assert!(m.tree_collective(1024, 1) > m.tree_collective(64, 1));
        assert!(m.allreduce(64, 100) > m.tree_collective(64, 100));
        // A big gather is bandwidth-bound: doubling the data roughly
        // doubles the time.
        let g1 = m.gather(256, 1_000_000).0;
        let g2 = m.gather(256, 2_000_000).0;
        assert!(g2 / g1 > 1.9 && g2 / g1 < 2.1);
    }

    #[test]
    fn simtime_arithmetic() {
        let mut t = SimTime(1.0) + SimTime(2.0);
        t += SimTime(0.5);
        assert!((t.seconds() - 3.5).abs() < 1e-12);
        let total: SimTime = [SimTime(1.0), SimTime(2.0)].into_iter().sum();
        assert_eq!(total, SimTime(3.0));
    }

    #[test]
    fn p1_collectives_are_free_of_latency() {
        let m = CostModel::default();
        assert_eq!(m.tree_collective(1, 10), SimTime(0.0));
    }
}
