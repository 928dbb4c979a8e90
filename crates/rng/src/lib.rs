//! Random number generation substrate for the reservoir sampling library.
//!
//! The paper uses Intel MKL's Mersenne Twister for fast random number
//! generation. MKL is proprietary, so this crate provides the much faster
//! [xoshiro256++](Xoshiro256PlusPlus) generator instead, seeded through
//! SplitMix64; it is the library's [`DefaultRng`].
//!
//! On top of the raw generators, [`Rng64`] supplies exactly the primitives
//! the sampling algorithms need:
//!
//! * `rand()` draws from the **half-open interval (0, 1]** — the paper is
//!   explicit about this (Section 3.1) because keys are computed as
//!   `-ln(rand())/w` and `ln(0)` must never occur;
//! * [`Rng64::exponential`] — exponential deviates with a given rate, used
//!   both for item keys and for skip ("exponential jump") distances;
//! * [`Rng64::geometric_skips`] — geometric skip counts for the uniform
//!   sampler (Devroye / Vitter style jumps);
//! * [`Rng64::normal`] and [`Rng64::pareto`] — weight generators for the
//!   skewed-input experiments.
//!
//! Deterministic, independent per-PE streams are derived with
//! [`SeedSequence`], which is a SplitMix64-based key derivation so that
//! `(seed, pe, stream)` triples never collide in practice.

mod seeding;
mod xoshiro;

pub use seeding::{test_base_seed, SeedSequence, StreamKind};
pub use xoshiro::{splitmix64, Xoshiro256PlusPlus};

/// Scale factor mapping a 53-bit integer in `1..=2^53` onto `(0, 1]`.
const F64_FROM_53: f64 = 1.0 / 9007199254740992.0; // 2^-53

/// A 64-bit pseudorandom generator plus the derived deviates used throughout
/// the library.
///
/// All provided methods are implemented in terms of [`Rng64::next_u64`], so
/// any generator (xoshiro256++, counter-based test stubs) gets the full
/// API.
pub trait Rng64 {
    /// Return the next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// Uniform deviate from the **half-open interval `(0, 1]`**.
    ///
    /// This is the `rand()` of the paper: never zero, so `ln(rand())` is
    /// always finite. The top 53 bits of the raw output are used, giving a
    /// resolution of 2⁻⁵³.
    #[inline]
    fn rand_oc(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * F64_FROM_53
    }

    /// Uniform deviate from the half-open interval `[0, 1)`.
    #[inline]
    fn rand_co(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * F64_FROM_53
    }

    /// Uniform deviate from `(a, b]`, the paper's `rand(a, b)`
    /// (`rand(a,b) := a + rand()·(b−a)`, Section 4.1).
    #[inline]
    fn rand_range_oc(&mut self, a: f64, b: f64) -> f64 {
        debug_assert!(a <= b, "rand_range_oc requires a <= b, got ({a}, {b})");
        a + self.rand_oc() * (b - a)
    }

    /// Exponential deviate with rate parameter `rate`, i.e. mean `1/rate`.
    ///
    /// Computed as `−ln(rand())/rate`; this is the "exponential clocks"
    /// primitive of Section 3.1 and the skip-value generator of Section 4.1.
    #[inline]
    fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        -self.rand_oc().ln() / rate
    }

    /// Number of items skipped before the next insertion for the **uniform**
    /// sampler: `⌊ln(rand())/ln(1−t)⌋` for threshold `t ∈ (0, 1)`
    /// (Section 4.3, after Devroye).
    ///
    /// Returns `u64::MAX` when the skip does not fit in a `u64` (threshold so
    /// tiny that the jump is astronomically long).
    #[inline]
    fn geometric_skips(&mut self, t: f64) -> u64 {
        debug_assert!(
            t > 0.0 && t < 1.0,
            "geometric threshold must lie in (0,1), got {t}"
        );
        // ln_1p keeps full precision for tiny thresholds where `1.0 - t`
        // would round to 1.0 and the naive formula would divide by zero.
        let x = self.rand_oc().ln() / (-t).ln_1p();
        if x >= u64::MAX as f64 {
            u64::MAX
        } else {
            x as u64
        }
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.rand_co() < p
    }

    /// Uniform integer in `0..n`. `n` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased and
    /// avoids the modulo operation in the common case.
    #[inline]
    fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            // Rejection zone to remove bias.
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Standard normal deviate (Marsaglia polar method).
    fn normal_std(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.rand_co() - 1.0;
            let v = 2.0 * self.rand_co() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.normal_std()
    }

    /// Pareto deviate with the given scale (minimum value) and shape.
    ///
    /// Used to generate heavy-tailed weights for the skew experiments and
    /// the heavy-hitter example.
    #[inline]
    fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        debug_assert!(scale > 0.0 && shape > 0.0);
        scale / self.rand_oc().powf(1.0 / shape)
    }

    /// Poisson deviate with mean `lambda`.
    ///
    /// Knuth's product-of-uniforms method below λ = 64; above that, the
    /// normal approximation `max(0, ⌊N(λ, λ) + ½⌋)` (relative error well
    /// under a percent there, which is all the cluster simulator needs when
    /// Poissonizing per-batch candidate counts).
    fn poisson(&mut self, lambda: f64) -> u64 {
        debug_assert!(lambda >= 0.0, "poisson mean must be nonnegative");
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 64.0 {
            let limit = (-lambda).exp();
            let mut product = self.rand_oc();
            let mut count = 0u64;
            while product > limit {
                product *= self.rand_oc();
                count += 1;
            }
            count
        } else {
            let x = self.normal(lambda, lambda.sqrt());
            if x <= 0.0 {
                0
            } else {
                (x + 0.5) as u64
            }
        }
    }
}

impl<R: Rng64 + ?Sized> Rng64 for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// The default generator used by the library: xoshiro256++ seeded through
/// SplitMix64, matching the recommendation of its authors.
pub type DefaultRng = Xoshiro256PlusPlus;

/// Construct the library's default generator from a 64-bit seed.
pub fn default_rng(seed: u64) -> DefaultRng {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generator that plays back a fixed script of raw values; for testing
    /// the derived deviates deterministically.
    struct Script {
        values: Vec<u64>,
        pos: usize,
    }

    impl Rng64 for Script {
        fn next_u64(&mut self) -> u64 {
            let v = self.values[self.pos % self.values.len()];
            self.pos += 1;
            v
        }
    }

    #[test]
    fn rand_oc_is_never_zero_and_at_most_one() {
        let mut rng = Script {
            values: vec![0, u64::MAX, 1 << 11, u64::MAX - 1],
            pos: 0,
        };
        for _ in 0..8 {
            let x = rng.rand_oc();
            assert!(x > 0.0 && x <= 1.0, "rand_oc out of (0,1]: {x}");
        }
        // Raw zero must map to the smallest positive value 2^-53, raw max to 1.
        let mut rng = Script {
            values: vec![0],
            pos: 0,
        };
        assert_eq!(rng.rand_oc(), F64_FROM_53);
        let mut rng = Script {
            values: vec![u64::MAX],
            pos: 0,
        };
        assert_eq!(rng.rand_oc(), 1.0);
    }

    #[test]
    fn rand_co_is_never_one() {
        let mut rng = Script {
            values: vec![u64::MAX, 0],
            pos: 0,
        };
        let x = rng.rand_co();
        assert!(x < 1.0);
        assert_eq!(rng.rand_co(), 0.0);
    }

    #[test]
    fn rand_range_oc_brackets() {
        let mut rng = default_rng(42);
        for _ in 0..10_000 {
            let x = rng.rand_range_oc(2.0, 5.0);
            assert!(x > 2.0 && x <= 5.0);
        }
        // Degenerate interval collapses to the single point.
        assert_eq!(rng.rand_range_oc(3.0, 3.0), 3.0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = default_rng(1);
        let n = 200_000;
        for &rate in &[0.5, 1.0, 4.0] {
            let sum: f64 = (0..n).map(|_| rng.exponential(rate)).sum();
            let mean = sum / n as f64;
            let expect = 1.0 / rate;
            assert!(
                (mean - expect).abs() < 0.02 * expect.max(1.0),
                "rate {rate}: mean {mean} vs expected {expect}"
            );
        }
    }

    #[test]
    fn geometric_skips_mean() {
        // E[X] = (1-t)/t for X = #failures before first success.
        let mut rng = default_rng(7);
        let t = 0.05;
        let n = 200_000;
        let sum: u64 = (0..n).map(|_| rng.geometric_skips(t)).sum();
        let mean = sum as f64 / n as f64;
        let expect = (1.0 - t) / t;
        assert!(
            (mean - expect).abs() < 0.05 * expect,
            "mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn geometric_skips_handles_tiny_threshold() {
        let mut rng = default_rng(3);
        // With t extremely small the skip must be huge but not panic.
        let x = rng.geometric_skips(1e-300);
        assert!(x > 1_000_000);
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut rng = default_rng(1234);
        let n = 10u64;
        let mut counts = [0u32; 10];
        let trials = 100_000;
        for _ in 0..trials {
            let v = rng.next_below(n);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 0.1 * expect,
                "bucket {i} count {c} vs {expect}"
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = default_rng(99);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn pareto_is_at_least_scale() {
        let mut rng = default_rng(5);
        for _ in 0..10_000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn poisson_moments_small_and_large_lambda() {
        let mut rng = default_rng(21);
        for &lambda in &[0.5f64, 5.0, 40.0, 500.0, 20_000.0] {
            let n = 20_000;
            let samples: Vec<u64> = (0..n).map(|_| rng.poisson(lambda)).collect();
            let mean = samples.iter().sum::<u64>() as f64 / n as f64;
            let var = samples
                .iter()
                .map(|&x| (x as f64 - mean).powi(2))
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda.max(1.0),
                "lambda {lambda}: mean {mean}"
            );
            assert!(
                (var - lambda).abs() < 0.1 * lambda.max(1.0),
                "lambda {lambda}: var {var}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn bernoulli_probability() {
        let mut rng = default_rng(11);
        let trials = 200_000;
        let hits = (0..trials).filter(|_| rng.bernoulli(0.3)).count();
        let frac = hits as f64 / trials as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }
}
