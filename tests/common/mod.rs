//! Helpers shared by the statistical integration tests.
//!
//! All randomized tests derive their seeds from
//! [`reservoir::rng::test_base_seed`] (override with `RESERVOIR_TEST_SEED`)
//! and print that base seed when an assertion fires, so every failure is
//! reproducible from the environment alone.

/// A strongly skewed weight profile: geometric decay over items, spanning
/// three orders of magnitude, with a few heavy hitters up front — the same
/// profile as the sequential jump-vs-naive goodness-of-fit test.
pub fn skewed_weight(i: u64) -> f64 {
    1000.0 * 0.9f64.powi((i % 60) as i32) + 0.5
}

/// Two-sample chi-square statistic between equal-trial count vectors:
/// Σ (a_i − b_i)² / (a_i + b_i) over items with a_i + b_i > 0.
///
/// Under H₀ (same inclusion law) this is asymptotically χ²(df) with
/// df = #used items − 1.
pub fn two_sample_chi_square(a: &[u64], b: &[u64]) -> (f64, usize) {
    assert_eq!(a.len(), b.len());
    let mut stat = 0.0;
    let mut df = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        let total = x + y;
        if total == 0 {
            continue;
        }
        let diff = x as f64 - y as f64;
        stat += diff * diff / total as f64;
        df += 1;
    }
    (stat, df.saturating_sub(1))
}

/// One-sample chi-square statistic of observed counts against a single
/// analytic expectation per item: Σ (o_i − e)² / e, df = #items − 1.
/// Used where the inclusion law is known in closed form (uniform
/// sampling: every item is included with probability k/n).
#[allow(dead_code)] // not every test binary links every helper
pub fn one_sample_chi_square(observed: &[u64], expected_per_item: f64) -> (f64, usize) {
    assert!(expected_per_item > 0.0);
    let stat = observed
        .iter()
        .map(|&o| {
            let diff = o as f64 - expected_per_item;
            diff * diff / expected_per_item
        })
        .sum();
    (stat, observed.len().saturating_sub(1))
}

/// One-sample chi-square statistic of per-item inclusion counts over
/// `trials` independent trials against analytic inclusion probabilities
/// `p(i)`, for laws where every item enters independently (threshold-mode
/// scans): Σ (o_i − T·p_i)² / (T·p_i·(1 − p_i)) — the two-cell
/// (in/out) Pearson statistic per item — with df = #items.
#[allow(dead_code)] // not every test binary links every helper
pub fn bernoulli_chi_square(observed: &[u64], trials: u64, p: impl Fn(u64) -> f64) -> (f64, usize) {
    let stat = observed
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            let p = p(i as u64);
            assert!(0.0 < p && p < 1.0, "item {i}: inclusion probability {p}");
            let expect = trials as f64 * p;
            let diff = o as f64 - expect;
            diff * diff / (expect * (1.0 - p))
        })
        .sum();
    (stat, observed.len())
}

/// Normal-approximation upper quantile of χ²(df): df + z·√(2df) + z²·2/3.
/// z = 2.33 is the 99th percentile (the "p > 0.01" acceptance bar);
/// z = 4 keeps the false-failure probability around 3e-5.
pub fn chi_square_upper(df: usize, z: f64) -> f64 {
    let df = df as f64;
    df + z * (2.0 * df).sqrt() + z * z * 2.0 / 3.0
}
