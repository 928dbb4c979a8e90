//! Per-phase running-time accounting (paper Sections 5 and 6.5).
//!
//! The paper decomposes each algorithm's running time into **insert**
//! (local batch processing), **select** (distributed or sequential
//! selection), **threshold** (the final all-reduction / broadcast of the
//! new threshold), **output** (Section 5 sample finalization and output
//! collection) and — for the centralized baseline — **gather**. Both
//! backends fill the same structure: the threaded backend from wall-clock
//! measurements, the simulator from its cost model.

/// Accumulated seconds per algorithm phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// Waiting on the ingestion channel for the next mini-batch (pipeline
    /// drivers only; zero when batches are handed in directly). A large
    /// value means the front door, not the sampler, limits throughput.
    pub ingest: f64,
    /// Local batch processing: jump scans and reservoir insertions.
    pub insert: f64,
    /// Finding the new global threshold (distributed selection, or the
    /// root's sequential selection in the gathering baseline).
    pub select: f64,
    /// Distributing / agreeing on the new threshold.
    pub threshold: f64,
    /// Collecting candidates at the root (centralized baseline only).
    pub gather: f64,
    /// Output collection (Section 5): final top-k finalization plus the
    /// prefix counts that assign every PE its slice of the global sample.
    pub output: f64,
    /// Seconds the busiest worker spent jump-scanning inside the parallel
    /// region of the insert phase (batches scanned on the PE's pool only;
    /// 0 for inline scans). This time *overlaps* `insert` wall-clock time, so
    /// it is excluded from [`Self::total`] and [`Self::fractions`] — use
    /// `par_scan / insert` as the parallel region's share of the insert
    /// phase.
    pub par_scan: f64,
}

impl PhaseTimes {
    /// Total across the disjoint wall-clock phases (`par_scan` overlaps
    /// `insert` and is not added again).
    pub fn total(&self) -> f64 {
        self.ingest + self.insert + self.select + self.threshold + self.gather + self.output
    }

    /// Elementwise accumulation.
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.ingest += other.ingest;
        self.insert += other.insert;
        self.select += other.select;
        self.threshold += other.threshold;
        self.gather += other.gather;
        self.output += other.output;
        self.par_scan += other.par_scan;
    }

    /// Each disjoint wall-clock phase's share of [`Self::total`], by
    /// name; all zeros for an empty accumulator. `par_scan` has **no**
    /// fraction: it measures the busiest worker *inside* the `insert`
    /// phase's parallel region, so its seconds overlap `insert` and
    /// adding a seventh share would push the sum past 1. Compute
    /// `par_scan / insert` from the [`PhaseTimes`] fields instead when
    /// the parallel region's share of the insert phase is wanted.
    pub fn fractions(&self) -> PhaseFractions {
        let t = self.total();
        if t == 0.0 {
            return PhaseFractions::default();
        }
        PhaseFractions {
            ingest: self.ingest / t,
            insert: self.insert / t,
            select: self.select / t,
            threshold: self.threshold / t,
            gather: self.gather / t,
            output: self.output / t,
        }
    }

    /// Elementwise difference against an earlier snapshot of the same
    /// accumulator — the time spent per phase *since* that snapshot (e.g.
    /// the share of a sampler's totals attributable to one pipeline run).
    pub fn delta_since(&self, earlier: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            ingest: self.ingest - earlier.ingest,
            insert: self.insert - earlier.insert,
            select: self.select - earlier.select,
            threshold: self.threshold - earlier.threshold,
            gather: self.gather - earlier.gather,
            output: self.output - earlier.output,
            par_scan: self.par_scan - earlier.par_scan,
        }
    }

    /// Elementwise division by a scalar (e.g. to average over batches).
    pub fn scaled(&self, divisor: f64) -> PhaseTimes {
        PhaseTimes {
            ingest: self.ingest / divisor,
            insert: self.insert / divisor,
            select: self.select / divisor,
            threshold: self.threshold / divisor,
            gather: self.gather / divisor,
            output: self.output / divisor,
            par_scan: self.par_scan / divisor,
        }
    }
}

/// Named per-phase shares of a [`PhaseTimes`] total, as returned by
/// [`PhaseTimes::fractions`]. The six fields are the *disjoint* wall-clock
/// phases and sum to 1 for a non-empty accumulator; the overlapping
/// `par_scan` time is deliberately absent (see [`PhaseTimes::fractions`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseFractions {
    pub ingest: f64,
    pub insert: f64,
    pub select: f64,
    pub threshold: f64,
    pub gather: f64,
    pub output: f64,
}

impl PhaseFractions {
    /// Labeled `(phase, share)` pairs in the canonical reporting order —
    /// for callers that want to iterate without hard-coding positions.
    pub fn labeled(&self) -> [(&'static str, f64); 6] {
        [
            ("ingest", self.ingest),
            ("insert", self.insert),
            ("select", self.select),
            ("threshold", self.threshold),
            ("gather", self.gather),
            ("output", self.output),
        ]
    }

    /// Sum of the six shares: 1 for a non-empty accumulator, 0 otherwise.
    pub fn sum(&self) -> f64 {
        self.ingest + self.insert + self.select + self.threshold + self.gather + self.output
    }
}

impl std::ops::Add for PhaseTimes {
    type Output = PhaseTimes;
    fn add(mut self, rhs: PhaseTimes) -> PhaseTimes {
        self.accumulate(&rhs);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let t = PhaseTimes {
            ingest: 4.0,
            insert: 2.0,
            select: 1.0,
            threshold: 0.5,
            gather: 0.25,
            output: 0.25,
            // Overlaps insert: must not show up in total or fractions.
            par_scan: 1.5,
        };
        assert_eq!(t.total(), 8.0);
        let f = t.fractions();
        assert_eq!(
            f,
            PhaseFractions {
                ingest: 0.5,
                insert: 0.25,
                select: 0.125,
                threshold: 0.0625,
                gather: 0.03125,
                output: 0.03125,
            }
        );
        assert_eq!(f.sum(), 1.0);
        assert_eq!(f.labeled()[0], ("ingest", 0.5));
        assert_eq!(f.labeled()[5], ("output", 0.03125));
    }

    #[test]
    fn accumulate_adds_elementwise() {
        let mut a = PhaseTimes::default();
        a.accumulate(&PhaseTimes {
            insert: 1.0,
            ..Default::default()
        });
        let b = a + PhaseTimes {
            select: 2.0,
            ..Default::default()
        };
        assert_eq!(b.insert, 1.0);
        assert_eq!(b.select, 2.0);
        assert_eq!(PhaseTimes::default().fractions(), PhaseFractions::default());
        assert_eq!(PhaseTimes::default().fractions().sum(), 0.0);
    }

    #[test]
    fn delta_since_subtracts_elementwise() {
        let earlier = PhaseTimes {
            ingest: 1.0,
            insert: 2.0,
            ..Default::default()
        };
        let mut later = earlier;
        later.accumulate(&PhaseTimes {
            ingest: 0.5,
            select: 3.0,
            par_scan: 0.25,
            ..Default::default()
        });
        let d = later.delta_since(&earlier);
        assert_eq!(d.ingest, 0.5);
        assert_eq!(d.insert, 0.0);
        assert_eq!(d.select, 3.0);
        assert_eq!(d.par_scan, 0.25);
        assert_eq!(d.total(), 3.5);
    }

    #[test]
    fn scaled_divides_every_phase() {
        let t = PhaseTimes {
            ingest: 1.0,
            insert: 2.0,
            select: 4.0,
            threshold: 6.0,
            gather: 8.0,
            output: 10.0,
            par_scan: 12.0,
        };
        let half = t.scaled(2.0);
        assert_eq!(half.insert, 1.0);
        assert_eq!(half.output, 5.0);
        assert_eq!(half.par_scan, 6.0);
        assert_eq!(half.total(), t.total() / 2.0);
    }
}
