//! Vertical-strip statistics (Figure 5 of the paper).
//!
//! Figure 5 plots, over all 64-wide vertical strips of the SuiteSparse
//! suite, a histogram of the percentage of non-zero rows per strip,
//! observing that "the vast majority of rows in a strip of A are all
//! zeros" — the motivation for DCSR.

use crate::{Csr, SparseMatrix};

/// Number of vertical strips of width `tile_w` needed to cover `ncols`.
///
/// This is the single definition of the *phantom-strip convention*: a
/// degenerate matrix with `ncols == 0` still reports one (empty) strip, so
/// every per-strip loop — the converter farm, the online kernel, the SSF
/// model — runs at least once and produces well-formed (empty) output
/// instead of special-casing emptiness at each call site.
pub fn strip_count(ncols: usize, tile_w: usize) -> usize {
    assert!(tile_w > 0, "tile width must be positive");
    ncols.div_ceil(tile_w).max(1)
}

/// Number of horizontal tile bands of height `tile_h` needed to cover
/// `nrows`. Same phantom convention as [`strip_count`]: `nrows == 0`
/// still yields one (empty) band.
pub fn tile_count(nrows: usize, tile_h: usize) -> usize {
    assert!(tile_h > 0, "tile height must be positive");
    nrows.div_ceil(tile_h).max(1)
}

/// For each strip of width `tile_w`, the fraction of matrix rows that have
/// at least one non-zero inside the strip (`0.0 ..= 1.0`).
pub fn strip_nonzero_row_fraction(csr: &Csr, tile_w: usize) -> Vec<f64> {
    assert!(tile_w > 0, "tile width must be positive");
    let shape = csr.shape();
    let nstrips = strip_count(shape.ncols, tile_w);
    let mut nonzero_rows = vec![0usize; nstrips];
    let mut touched = vec![usize::MAX; nstrips]; // last row that touched strip s
    for r in 0..shape.nrows {
        let (cols, _) = csr.row(r);
        for &c in cols {
            let s = c as usize / tile_w;
            if touched[s] != r {
                touched[s] = r;
                nonzero_rows[s] += 1;
            }
        }
    }
    fractions_of(shape.nrows, nonzero_rows)
}

/// Per-strip counts of non-zero rows as fractions of `nrows` (all zero
/// when `nrows == 0`).
fn fractions_of(nrows: usize, nonzero_rows: Vec<usize>) -> Vec<f64> {
    if nrows == 0 {
        return vec![0.0; nonzero_rows.len()];
    }
    nonzero_rows
        .into_iter()
        .map(|n| n as f64 / nrows as f64)
        .collect()
}

/// Aggregate strip-sparsity statistics for one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StripStats {
    /// Strip width used.
    pub tile_w: usize,
    /// Number of strips.
    pub num_strips: usize,
    /// Per-strip fraction of non-zero rows.
    pub fractions: Vec<f64>,
    /// Mean fraction of non-zero rows across strips
    /// (`mean(n_nnzrow_strip / n)` in the SSF denominator, Eq. 2).
    pub mean_fraction: f64,
}

impl StripStats {
    /// Compute strip statistics for a CSR matrix.
    pub fn compute(csr: &Csr, tile_w: usize) -> Self {
        Self::from_fractions(tile_w, strip_nonzero_row_fraction(csr, tile_w))
    }

    /// Statistics from per-strip counts of rows with at least one
    /// non-zero in the strip, for a matrix of `nrows` rows — for callers
    /// that already counted them in their own pass. Equal to
    /// [`Self::compute`] given the same counts.
    pub fn from_nonzero_rows(tile_w: usize, nrows: usize, nonzero_rows: Vec<usize>) -> Self {
        Self::from_fractions(tile_w, fractions_of(nrows, nonzero_rows))
    }

    fn from_fractions(tile_w: usize, fractions: Vec<f64>) -> Self {
        let mean_fraction = if fractions.is_empty() {
            0.0
        } else {
            fractions.iter().sum::<f64>() / fractions.len() as f64
        };
        Self {
            tile_w,
            num_strips: fractions.len(),
            fractions,
            mean_fraction,
        }
    }

    /// Histogram of the per-strip fractions with the paper's Figure 5
    /// binning: 13 bins — [0,1%), [1,2%), … [9,10%), [10,25%), [25,50%),
    /// [50,100%]. Returns bin counts.
    pub fn figure5_histogram(&self) -> [usize; 13] {
        let mut bins = [0usize; 13];
        for &f in &self.fractions {
            let pct = f * 100.0;
            let bin = if pct < 10.0 {
                (pct.floor() as usize).min(9)
            } else if pct < 25.0 {
                10
            } else if pct < 50.0 {
                11
            } else {
                12
            };
            bins[bin] += 1;
        }
        bins
    }

    /// Human-readable labels for [`Self::figure5_histogram`] bins.
    pub fn figure5_labels() -> [&'static str; 13] {
        [
            "0-1%", "1-2%", "2-3%", "3-4%", "4-5%", "5-6%", "6-7%", "7-8%", "8-9%", "9-10%",
            "10-25%", "25-50%", "50-100%",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr {
        // 8x8; strip width 4 gives 2 strips.
        // Strip 0 touched by rows 0,1; strip 1 touched by row 0 only.
        let coo =
            Coo::from_triplets(8, 8, &[0, 0, 1, 0], &[0, 3, 2, 6], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn counts_strips() {
        assert_eq!(strip_count(8, 4), 2);
        assert_eq!(strip_count(9, 4), 3);
        assert_eq!(strip_count(0, 4), 1);
    }

    #[test]
    fn counts_tile_bands() {
        assert_eq!(tile_count(8, 4), 2);
        assert_eq!(tile_count(9, 4), 3);
        assert_eq!(tile_count(0, 4), 1, "phantom band for empty matrices");
    }

    #[test]
    fn fractions_per_strip() {
        let f = strip_nonzero_row_fraction(&sample(), 4);
        assert_eq!(f.len(), 2);
        assert!((f[0] - 2.0 / 8.0).abs() < 1e-12);
        assert!((f[1] - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn row_touching_strip_twice_counted_once() {
        // Row 0 has two entries in strip 0; must count as one non-zero row.
        let coo = Coo::from_triplets(4, 4, &[0, 0], &[0, 1], &[1.0, 2.0]).unwrap();
        let f = strip_nonzero_row_fraction(&Csr::from_coo(&coo), 2);
        assert!((f[0] - 0.25).abs() < 1e-12);
        assert_eq!(f[1], 0.0);
    }

    #[test]
    fn stats_mean() {
        let s = StripStats::compute(&sample(), 4);
        assert_eq!(s.num_strips, 2);
        assert!((s.mean_fraction - (0.25 + 0.125) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_binning() {
        let stats = StripStats {
            tile_w: 64,
            num_strips: 5,
            fractions: vec![0.005, 0.015, 0.095, 0.3, 0.99],
            mean_fraction: 0.0,
        };
        let h = stats.figure5_histogram();
        assert_eq!(h[0], 1); // 0.5%
        assert_eq!(h[1], 1); // 1.5%
        assert_eq!(h[9], 1); // 9.5%
        assert_eq!(h[11], 1); // 30%
        assert_eq!(h[12], 1); // 99%
        assert_eq!(h.iter().sum::<usize>(), 5);
        assert_eq!(StripStats::figure5_labels().len(), h.len());
    }

    #[test]
    fn empty_matrix_all_zero_fractions() {
        let m = Csr::new(4, 8, vec![0; 5], vec![], vec![]).unwrap();
        let f = strip_nonzero_row_fraction(&m, 4);
        assert_eq!(f, vec![0.0, 0.0]);
    }
}
