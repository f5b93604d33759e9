//! Statistical microbench harness: warmup, fixed-iteration batches,
//! median/MAD outlier rejection, and bootstrap confidence intervals.
//!
//! The control flow is **deterministic in structure**: iteration counts
//! come from [`BenchConfig`] and are never adapted from elapsed time, and
//! the bootstrap resampling uses a splitmix64 stream seeded with
//! [`EXPERIMENT_SEED`] — so two runs of the same build execute the
//! identical sequence of work and differ only in the measured
//! nanoseconds. The statistics ([`summarize`]) are a pure function of the
//! sample vector, which is what the ledger's perf section and the
//! noise-aware gate consume.
//!
//! This file is the workspace's sanctioned wall-clock timer core outside
//! `nmt-obs` (named in nmt-lint's wallclock allow-list): everything else
//! that wants a duration either calls [`run`] or derives it from recorder
//! spans.

use crate::EXPERIMENT_SEED;
use std::time::Instant;

/// Bootstrap resamples behind every confidence interval.
pub const RESAMPLES: u32 = 200;

/// Outlier cut: samples farther than `MAD_K` scaled-MADs from the median
/// are rejected before the interval is computed.
pub const MAD_K: f64 = 5.0;

/// Iteration plan for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchConfig {
    /// Untimed warmup iterations (cache/branch-predictor settling).
    pub warmup: u32,
    /// Timed iterations; each contributes one sample.
    pub iters: u32,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: 3,
            iters: 30,
        }
    }
}

/// Summary statistics for one benchmark: medians and a bootstrap CI over
/// the outlier-filtered samples, all in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Median of the retained samples.
    pub median_ns: f64,
    /// Scaled median-absolute-deviation (MAD × 1.4826, the normal-
    /// consistency constant) of the retained samples.
    pub mad_ns: f64,
    /// Bootstrap 2.5th percentile of the resampled medians.
    pub ci_lo_ns: f64,
    /// Bootstrap 97.5th percentile of the resampled medians.
    pub ci_hi_ns: f64,
    /// Arithmetic mean of the retained samples.
    pub mean_ns: f64,
    /// Samples rejected as outliers.
    pub rejected: u64,
    /// Samples retained (so `rejected + samples` = total measured).
    pub samples: u64,
}

impl BenchStats {
    /// All-zero stats (used when a benchmark produced no samples).
    pub fn empty() -> Self {
        BenchStats {
            median_ns: 0.0,
            mad_ns: 0.0,
            ci_lo_ns: 0.0,
            ci_hi_ns: 0.0,
            mean_ns: 0.0,
            rejected: 0,
            samples: 0,
        }
    }
}

/// The splitmix64 step — the repo's standard deterministic PRNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a non-empty, already-sorted slice.
fn sorted_median(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median of an arbitrary slice (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted_median(&sorted)
}

/// Fold raw samples into [`BenchStats`]: median → MAD outlier cut →
/// bootstrap CI of the median over the survivors. Pure and deterministic
/// (the bootstrap stream is seeded with [`EXPERIMENT_SEED`]), so the
/// gate's behavior is reproducible from a ledger file alone.
pub fn summarize(samples: &[f64]) -> BenchStats {
    if samples.is_empty() {
        return BenchStats::empty();
    }
    let raw_median = median(samples);
    let abs_dev: Vec<f64> = samples.iter().map(|&x| (x - raw_median).abs()).collect();
    // 1.4826 makes the MAD estimate the standard deviation under
    // normality, so `MAD_K` reads in sigma-like units.
    let scaled_mad = median(&abs_dev) * 1.4826;

    // With a zero MAD (over half the samples identical) every deviation
    // would be "infinitely many MADs" out; keep everything instead.
    let retained: Vec<f64> = if scaled_mad > 0.0 {
        samples
            .iter()
            .copied()
            .filter(|&x| (x - raw_median).abs() <= MAD_K * scaled_mad)
            .collect()
    } else {
        samples.to_vec()
    };
    let rejected = (samples.len() - retained.len()) as u64;

    let mut sorted = retained.clone();
    sorted.sort_by(f64::total_cmp);
    let med = sorted_median(&sorted);
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;

    // Bootstrap: resample the retained set with replacement, take each
    // resample's median, and report the central 95% of those medians.
    let mut state = EXPERIMENT_SEED;
    let n = sorted.len();
    let mut boot_medians = Vec::with_capacity(RESAMPLES as usize);
    for _ in 0..RESAMPLES {
        let mut resample: Vec<f64> = (0..n)
            .map(|_| sorted[(splitmix64(&mut state) % n as u64) as usize])
            .collect();
        resample.sort_by(f64::total_cmp);
        boot_medians.push(sorted_median(&resample));
    }
    boot_medians.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        let idx = ((boot_medians.len() - 1) as f64 * p).round() as usize;
        boot_medians[idx.min(boot_medians.len() - 1)]
    };

    BenchStats {
        median_ns: med,
        mad_ns: scaled_mad,
        ci_lo_ns: pct(0.025).min(med),
        ci_hi_ns: pct(0.975).max(med),
        mean_ns: mean,
        rejected,
        samples: n as u64,
    }
}

/// Run `f` under the harness: `cfg.warmup` untimed calls, then
/// `cfg.iters` timed calls, then [`summarize`]. The iteration structure
/// depends only on `cfg`, never on the clock.
pub fn run<F: FnMut()>(cfg: &BenchConfig, mut f: F) -> BenchStats {
    for _ in 0..cfg.warmup {
        f();
    }
    let mut samples = Vec::with_capacity(cfg.iters as usize);
    for _ in 0..cfg.iters {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    summarize(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summarize_is_deterministic() {
        let samples: Vec<f64> = (0..40).map(|i| 1000.0 + (i * 37 % 97) as f64).collect();
        let a = summarize(&samples);
        let b = summarize(&samples);
        assert_eq!(a, b, "same samples + seed => identical stats");
    }

    #[test]
    fn outliers_are_rejected_by_mad() {
        let mut samples: Vec<f64> = (0..29).map(|i| 1000.0 + (i % 7) as f64).collect();
        samples.push(1_000_000.0); // a GC-pause-style spike
        let stats = summarize(&samples);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.samples, 29);
        assert!(stats.median_ns < 1010.0);
        assert!(stats.ci_hi_ns < 1010.0, "CI must not absorb the spike");
    }

    #[test]
    fn zero_mad_keeps_all_samples() {
        let samples = vec![500.0; 20];
        let stats = summarize(&samples);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.samples, 20);
        assert_eq!(stats.median_ns, 500.0);
        assert_eq!(stats.ci_lo_ns, 500.0);
        assert_eq!(stats.ci_hi_ns, 500.0);
    }

    #[test]
    fn ci_brackets_the_median() {
        let samples: Vec<f64> = (0..50).map(|i| 900.0 + (i * 53 % 211) as f64).collect();
        let stats = summarize(&samples);
        assert!(stats.ci_lo_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.ci_hi_ns);
        assert!(stats.mad_ns > 0.0);
    }

    #[test]
    fn wider_spread_means_wider_ci() {
        let tight: Vec<f64> = (0..30).map(|i| 1000.0 + (i % 3) as f64).collect();
        let wide: Vec<f64> = (0..30).map(|i| 1000.0 + (i * 97 % 500) as f64).collect();
        let t = summarize(&tight);
        let w = summarize(&wide);
        assert!(
            w.ci_hi_ns - w.ci_lo_ns > t.ci_hi_ns - t.ci_lo_ns,
            "bootstrap CI tracks dispersion"
        );
    }

    #[test]
    fn run_counts_iterations_exactly() {
        let cfg = BenchConfig {
            warmup: 2,
            iters: 9,
        };
        let mut calls = 0u32;
        let stats = run(&cfg, || calls += 1);
        assert_eq!(calls, 11, "warmup + timed, nothing adaptive");
        assert_eq!(stats.samples + stats.rejected, 9);
    }

    #[test]
    fn splitmix_stream_is_stable() {
        let mut s = 0x5C19u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
        let mut s2 = 0x5C19u64;
        assert_eq!(splitmix64(&mut s2), a, "seeded stream replays");
    }
}
