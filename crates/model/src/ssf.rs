//! The Sparsity Skewness Function (Eq. 2) and threshold learning (Fig. 4).
//!
//! ```text
//! SSF = (n_nnzrow / n) / mean(n_nnzrow_strip / n) · A.nnz · (1 - H_norm)
//! ```
//!
//! Larger SSF ⇒ B-stationary (online tiled DCSR) is predicted to win;
//! smaller ⇒ C-stationary (untiled CSR/DCSR). The threshold `SSF_th` is
//! learned by profiling a suite with both algorithms and picking the split
//! that maximizes classification accuracy — the paper reports >93 % on
//! ~4,000 SuiteSparse matrices, rising to ~96 % once online tiling removes
//! the DCSR metadata penalty the heuristic cannot see.

use crate::entropy::{for_each_segment, row_segments, EntropyAccumulator};
use nmt_formats::{Csr, SparseMatrix, StripStats};
use serde::{Deserialize, Serialize};

/// The SSF value of a matrix together with the terms it was built from
/// (useful for reports and debugging misclassifications).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsfProfile {
    /// Fraction of rows with ≥ 1 non-zero (`n_nnzrow / n`).
    pub nnzrow_frac: f64,
    /// Mean fraction of non-zero rows per strip.
    pub mean_strip_frac: f64,
    /// Non-zero count.
    pub nnz: f64,
    /// Normalized entropy `H_norm` (Eq. 1).
    pub h_norm: f64,
    /// The SSF value (Eq. 2).
    pub ssf: f64,
}

impl SsfProfile {
    /// Profile a matrix under `tile_w`-wide strips.
    pub fn compute(csr: &Csr, tile_w: usize) -> Self {
        Self::compute_with_strips(csr, tile_w).0
    }

    /// Profile a matrix and hand back the [`StripStats`] the profile's
    /// `mean_strip_frac` came from. One pass over the row segments yields
    /// both terms: a (row, strip) pair holds a non-zero exactly when it
    /// is a segment, so counting segments per strip counts each strip's
    /// non-zero rows.
    pub fn compute_with_strips(csr: &Csr, tile_w: usize) -> (Self, StripStats) {
        let shape = csr.shape();
        let mut strip_rows = vec![0usize; nmt_formats::strip_count(shape.ncols, tile_w)];
        let mut entropy = EntropyAccumulator::new(csr.nnz(), tile_w);
        for_each_segment(csr, tile_w, |strip, len| {
            strip_rows[strip] += 1;
            entropy.add(len);
        });
        let stats = StripStats::from_nonzero_rows(tile_w, shape.nrows, strip_rows);
        let n = shape.nrows.max(1) as f64;
        let nnzrow_frac = csr.nonzero_rows() as f64 / n;
        let mean_strip_frac = stats.mean_fraction;
        let nnz = csr.nnz() as f64;
        let h_norm = entropy.finish();
        let ssf = if mean_strip_frac > 0.0 {
            nnzrow_frac / mean_strip_frac * nnz * (1.0 - h_norm)
        } else {
            0.0
        };
        let profile = Self {
            nnzrow_frac,
            mean_strip_frac,
            nnz,
            h_norm,
            ssf,
        };
        (profile, stats)
    }
}

impl SsfProfile {
    /// Estimate the profile from a uniform sample of `sample_rows` rows —
    /// the paper's proposed profiling-cost reduction ("we believe these
    /// parameters can be obtained through sampling to minimize profiling
    /// time, but we leave it for future work", §3.1.4).
    ///
    /// Every SSF term is a per-row statistic, so a row sample estimates
    /// each unbiasedly: `n_nnzrow/n` from the sampled non-empty fraction,
    /// `nnz` from the sampled mean row population, the per-strip occupancy
    /// from sampled rows' strip hits, and `H_norm` from the sampled
    /// row-segment distribution. Cost is O(sample nnz) instead of O(nnz).
    pub fn compute_sampled(csr: &Csr, tile_w: usize, sample_rows: usize, seed: u64) -> Self {
        assert!(tile_w > 0, "tile width must be positive");
        let shape = csr.shape();
        let n = shape.nrows;
        if n == 0 || sample_rows == 0 {
            return Self {
                nnzrow_frac: 0.0,
                mean_strip_frac: 0.0,
                nnz: 0.0,
                h_norm: 0.0,
                ssf: 0.0,
            };
        }
        if sample_rows >= n {
            return Self::compute(csr, tile_w);
        }
        // Deterministic splitmix64 row sampler (without replacement via
        // index-stride shuffle: a fixed odd stride over Z_n visits n
        // distinct rows).
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let start = (next() % n as u64) as usize;
        // A stride coprime to n makes the walk visit `sample_rows` distinct
        // rows; retry a few draws, falling back to 1 (contiguous window).
        let mut stride = 1usize;
        for _ in 0..8 {
            let candidate = ((next() % n as u64) as usize) | 1;
            if gcd(candidate % n.max(1), n) == 1 {
                stride = candidate % n.max(1);
                break;
            }
        }

        let nstrips = nmt_formats::strip_count(shape.ncols, tile_w);
        let mut sampled_nonempty = 0usize;
        let mut sampled_nnz = 0usize;
        let mut strip_hits = vec![0usize; nstrips];
        let mut segments: Vec<usize> = Vec::new();
        let mut row = start;
        for _ in 0..sample_rows {
            let (cols, _) = csr.row(row);
            if !cols.is_empty() {
                sampled_nonempty += 1;
                sampled_nnz += cols.len();
                row_segments(cols, tile_w, |strip, len| {
                    strip_hits[strip] += 1;
                    segments.push(len);
                });
            }
            row = (row + stride.max(1)) % n;
        }
        let scale = n as f64 / sample_rows as f64;
        let nnzrow_frac = sampled_nonempty as f64 / sample_rows as f64;
        let nnz_est = sampled_nnz as f64 * scale;
        let mean_strip_frac = strip_hits
            .iter()
            .map(|&h| h as f64 / sample_rows as f64)
            .sum::<f64>()
            / nstrips as f64;
        // Sampled entropy: Shannon entropy of the sampled segment shares
        // normalized by Hartley entropy of the *estimated* total nnz.
        let h_norm = if nnz_est > 1.0 && !segments.is_empty() {
            let total: usize = segments.iter().sum();
            let totalf = total as f64;
            let h: f64 = segments
                .iter()
                .filter(|&&s| s > 0)
                .map(|&s| {
                    let p = s as f64 / totalf;
                    -p * p.ln()
                })
                .sum();
            // The sample sees segments.len() of an estimated
            // segments.len()·scale segments; extending the distribution
            // with scale-1 more copies of the same shape adds ln(scale).
            ((h + (scale.max(1.0)).ln()) / nnz_est.ln()).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let ssf = if mean_strip_frac > 0.0 {
            nnzrow_frac / mean_strip_frac * nnz_est * (1.0 - h_norm)
        } else {
            0.0
        };
        Self {
            nnzrow_frac,
            mean_strip_frac,
            nnz: nnz_est,
            h_norm,
            ssf,
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a.max(1), b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A learned SSF decision threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsfThreshold {
    /// SSF values strictly above this choose B-stationary.
    pub threshold: f64,
    /// Training classification accuracy in `[0, 1]`.
    pub accuracy: f64,
}

/// Algorithm choice produced by the heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Choice {
    /// B-stationary with (online-) tiled DCSR.
    BStationary,
    /// C-stationary with untiled CSR/DCSR.
    CStationary,
}

/// Classify a matrix given its SSF value and a threshold.
pub fn classify(ssf: f64, th: &SsfThreshold) -> Choice {
    if ssf > th.threshold {
        Choice::BStationary
    } else {
        Choice::CStationary
    }
}

/// Learn `SSF_th` from profiled `(ssf, t_c / t_b)` pairs, where `t_c / t_b`
/// is C-stationary time over B-stationary time (y-axis of Figure 4; > 1
/// means B-stationary is better). Sweeps every candidate split between
/// consecutive sorted SSF values and returns the accuracy-maximizing one.
/// Ties prefer the larger threshold (conservatively defaulting to
/// C-stationary, which never pays atomics).
pub fn learn_threshold(points: &[(f64, f64)]) -> SsfThreshold {
    if points.is_empty() {
        return SsfThreshold {
            threshold: 0.0,
            accuracy: 1.0,
        };
    }
    let mut sorted: Vec<(f64, bool)> = points
        .iter()
        .map(|&(ssf, ratio)| (ssf, ratio > 1.0)) // true = B-stationary wins
        .collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));

    let total = sorted.len();
    let total_b: usize = sorted.iter().filter(|&&(_, b)| b).count();
    // With threshold below everything, all classified B-stationary.
    let mut correct = total_b;
    let mut best = (f64::NEG_INFINITY, correct);
    // Moving the threshold past element i reclassifies it as C-stationary.
    for i in 0..total {
        if sorted[i].1 {
            correct -= 1; // was correctly B, now wrong
        } else {
            correct += 1; // was wrongly B, now correctly C
        }
        let candidate = if i + 1 < total {
            // midpoint in log space when both positive, else arithmetic
            let (a, b) = (sorted[i].0, sorted[i + 1].0);
            if a > 0.0 && b > 0.0 {
                ((a.ln() + b.ln()) / 2.0).exp() // geometric mean
            } else {
                (a + b) / 2.0
            }
        } else {
            sorted[i].0 + 1.0
        };
        if correct >= best.1 {
            best = (candidate, correct);
        }
    }
    SsfThreshold {
        threshold: best.0,
        accuracy: best.1 as f64 / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmt_formats::Coo;

    fn csr(n: usize, entries: &[(u32, u32)]) -> Csr {
        let rows: Vec<u32> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<u32> = entries.iter().map(|e| e.1).collect();
        let vals = vec![1.0f32; entries.len()];
        Csr::from_coo(&Coo::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    }

    #[test]
    fn profile_terms_match_hand_computation() {
        // 8x8, strips of 4. Entries: row0 cols {0,1}, row4 col 6.
        let m = csr(8, &[(0, 0), (0, 1), (4, 6)]);
        let p = SsfProfile::compute(&m, 4);
        assert!((p.nnzrow_frac - 2.0 / 8.0).abs() < 1e-12);
        // Strip 0: row 0 => 1/8; strip 1: row 4 => 1/8. Mean = 1/8.
        assert!((p.mean_strip_frac - 0.125).abs() < 1e-12);
        assert_eq!(p.nnz, 3.0);
        // Segments: {2, 1} => H = -(2/3 ln 2/3 + 1/3 ln 1/3)/ln 3.
        let h = -((2.0 / 3.0f64) * (2.0 / 3.0f64).ln() + (1.0 / 3.0) * (1.0 / 3.0f64).ln())
            / 3.0f64.ln();
        assert!((p.h_norm - h).abs() < 1e-12);
        let expected = (0.25 / 0.125) * 3.0 * (1.0 - h);
        assert!((p.ssf - expected).abs() < 1e-9);
    }

    #[test]
    fn clustered_matrix_scores_higher_than_scattered() {
        // Same nnz, same dimension; clustered (one dense row block) should
        // produce a larger SSF than perfectly scattered non-zeros.
        let clustered = csr(
            16,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 0),
                (1, 1),
                (1, 2),
                (1, 3),
            ],
        );
        let scattered = csr(
            16,
            &[
                (0, 0),
                (1, 4),
                (2, 8),
                (3, 12),
                (5, 1),
                (6, 5),
                (9, 9),
                (12, 13),
            ],
        );
        let pc = SsfProfile::compute(&clustered, 4);
        let ps = SsfProfile::compute(&scattered, 4);
        assert!(
            pc.ssf > ps.ssf,
            "clustered {} vs scattered {}",
            pc.ssf,
            ps.ssf
        );
    }

    #[test]
    fn empty_matrix_scores_zero() {
        let m = csr(8, &[]);
        assert_eq!(SsfProfile::compute(&m, 4).ssf, 0.0);
    }

    #[test]
    fn sampled_profile_tracks_full_profile() {
        use nmt_matgen::{generators, GenKind, MatrixDesc};
        let cases = [
            GenKind::Uniform { density: 0.01 },
            GenKind::ZipfRows {
                density: 0.01,
                exponent: 1.3,
            },
            GenKind::RowBursts {
                density: 0.02,
                burst_len: 16,
            },
        ];
        for (i, kind) in cases.into_iter().enumerate() {
            let a = generators::generate(&MatrixDesc::new("s", 1024, kind, i as u64 + 1));
            let full = SsfProfile::compute(&a, 16);
            let sampled = SsfProfile::compute_sampled(&a, 16, 256, 42);
            // Per-row statistics estimate within loose relative bounds.
            assert!(
                (sampled.nnz - full.nnz).abs() / full.nnz.max(1.0) < 0.3,
                "case {i}: nnz est {} vs {}",
                sampled.nnz,
                full.nnz
            );
            assert!(
                (sampled.nnzrow_frac - full.nnzrow_frac).abs() < 0.15,
                "case {i}: nnzrow {} vs {}",
                sampled.nnzrow_frac,
                full.nnzrow_frac
            );
            // SSF within an order of magnitude preserves classification
            // against any threshold not adjacent to the true value.
            let ratio = (sampled.ssf.max(1e-12) / full.ssf.max(1e-12)).ln().abs();
            assert!(
                ratio < std::f64::consts::LN_10,
                "case {i}: ssf {} vs {}",
                sampled.ssf,
                full.ssf
            );
        }
    }

    #[test]
    fn sampled_profile_ordering_preserved() {
        use nmt_matgen::{generators, GenKind, MatrixDesc};
        let scattered = generators::generate(&MatrixDesc::new(
            "u",
            1024,
            GenKind::Uniform { density: 0.01 },
            9,
        ));
        let clustered = generators::generate(&MatrixDesc::new(
            "rb",
            1024,
            GenKind::RowBursts {
                density: 0.02,
                burst_len: 16,
            },
            10,
        ));
        let s = SsfProfile::compute_sampled(&scattered, 16, 128, 7);
        let c = SsfProfile::compute_sampled(&clustered, 16, 128, 7);
        assert!(
            c.ssf > s.ssf,
            "sampled SSF must still rank clustered above scattered"
        );
    }

    #[test]
    fn sampled_profile_degenerate_inputs() {
        let empty = csr(16, &[]);
        let p = SsfProfile::compute_sampled(&empty, 4, 8, 1);
        assert_eq!(p.ssf, 0.0);
        let tiny = csr(4, &[(0, 0)]);
        // Sample larger than the matrix falls back to the exact profile.
        let exact = SsfProfile::compute(&tiny, 4);
        let p = SsfProfile::compute_sampled(&tiny, 4, 100, 1);
        assert_eq!(p, exact);
        let p = SsfProfile::compute_sampled(&tiny, 4, 0, 1);
        assert_eq!(p.ssf, 0.0);
    }

    #[test]
    fn learn_threshold_separable() {
        // Perfectly separable: ssf < 10 => C better, ssf > 10 => B better.
        let points: Vec<(f64, f64)> = (1..20)
            .map(|i| {
                let ssf = i as f64;
                let ratio = if ssf > 10.0 { 2.0 } else { 0.5 };
                (ssf, ratio)
            })
            .collect();
        let th = learn_threshold(&points);
        assert_eq!(th.accuracy, 1.0);
        assert!(
            th.threshold > 10.0 && th.threshold <= 11.0,
            "th = {}",
            th.threshold
        );
        assert_eq!(classify(5.0, &th), Choice::CStationary);
        assert_eq!(classify(15.0, &th), Choice::BStationary);
    }

    #[test]
    fn learn_threshold_with_noise() {
        // One mislabeled point on each side: accuracy (n-2)/n.
        let mut points: Vec<(f64, f64)> = (1..=20)
            .map(|i| {
                let ssf = i as f64;
                let ratio = if ssf > 10.0 { 2.0 } else { 0.5 };
                (ssf, ratio)
            })
            .collect();
        points[2].1 = 3.0; // ssf=3 claims B wins
        points[15].1 = 0.4; // ssf=16 claims C wins
        let th = learn_threshold(&points);
        assert!((th.accuracy - 18.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn learn_threshold_degenerate() {
        assert_eq!(learn_threshold(&[]).accuracy, 1.0);
        // All one class: threshold extreme, accuracy 1.
        let all_b: Vec<(f64, f64)> = (1..5).map(|i| (i as f64, 2.0)).collect();
        let th = learn_threshold(&all_b);
        assert_eq!(th.accuracy, 1.0);
        assert!(all_b
            .iter()
            .all(|&(s, _)| classify(s, &th) == Choice::BStationary));
        let all_c: Vec<(f64, f64)> = (1..5).map(|i| (i as f64, 0.5)).collect();
        let th = learn_threshold(&all_c);
        assert_eq!(th.accuracy, 1.0);
        assert!(all_c
            .iter()
            .all(|&(s, _)| classify(s, &th) == Choice::CStationary));
    }
}
