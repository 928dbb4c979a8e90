//! Order statistics and host probes.

/// The `q`-quantile of `values` (sorted in place), smoothed as the mean of
/// the order statistics within one percent of the target rank. Latencies
/// come in whole nanoseconds, so a bare order statistic could read the
/// same on every run; the window keeps every digit of the measurement.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    let rank = ((n - 1) as f64 * q).round() as usize;
    let half = (n / 200).max(1);
    let lo = rank.saturating_sub(half);
    let hi = (rank + half).min(n - 1);
    values[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
}

/// The plain median, for per-repetition figures.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nanoseconds the calling thread has spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`). One cheap call that never touches the
/// counted heap, so it can bracket every measured batch.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time the hypervisor stole from this machine since boot, in ticks of
/// 10 ms (`/proc/stat`, all CPUs; USER_HZ is 100 on Linux).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds per step of a fixed chain of dependent multiplies, the
/// fastest of a few tries: how fast the host runs this vCPU right now. Its
/// clock and its SMT neighbours move every timing together, and steal time
/// does not show them.
pub fn host_ns_per_step() -> f64 {
    const STEPS: u32 = 1 << 20;
    (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..STEPS {
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (x >> 29);
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as f64 / f64::from(STEPS)
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_averages_the_window_around_the_rank() {
        let mut v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 500.0);
        assert!((quantile(&mut v, 0.9) - 899.0).abs() < 1e-9);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(quantile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
