//! Normalized entropy of the non-zero distribution (Eq. 1, §3.1.4).
//!
//! `H_norm` divides Shannon's entropy of the per-row-segment nnz shares by
//! Hartley's entropy (`log A.nnz`), yielding a `[0, 1]` randomness measure:
//! 1 when every non-zero is its own row segment (perfectly scattered), 0
//! when a single row segment holds everything (maximally clustered). The
//! SSF heuristic uses `1 - H_norm` as its skewness term.

use nmt_formats::{Csr, SparseMatrix};

/// Per-row-segment non-zero counts for a tiling of width `tile_w`, in
/// row-major order.
///
/// A row segment is the run of one matrix row inside one vertical strip —
/// the granularity at which tiled DCSR stores rows (`t.rows` in Eq. 1; the
/// tile height does not split segments further because a row intersects
/// exactly one tile per strip).
pub fn row_segment_counts(csr: &Csr, tile_w: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for_each_segment(csr, tile_w, |_, len| out.push(len));
    out
}

/// Visit every row segment ([`row_segment_counts`]) of `csr` under
/// `tile_w`-wide strips, in row-major order, as `f(strip, len)`.
pub(crate) fn for_each_segment(csr: &Csr, tile_w: usize, mut f: impl FnMut(usize, usize)) {
    assert!(tile_w > 0, "tile width must be positive");
    for r in 0..csr.shape().nrows {
        row_segments(csr.row(r).0, tile_w, &mut f);
    }
}

/// Visit the segments of one row's columns, left to right. CSR rows hold
/// sorted, distinct columns, so each strip the row touches is exactly one
/// segment.
pub(crate) fn row_segments(cols: &[u32], tile_w: usize, mut f: impl FnMut(usize, usize)) {
    let mut i = 0;
    while i < cols.len() {
        let strip = cols[i] as usize / tile_w;
        let end = ((strip + 1) * tile_w) as u32;
        let mut len = 0;
        while i < cols.len() && cols[i] < end {
            len += 1;
            i += 1;
        }
        f(strip, len);
    }
}

/// Normalized entropy over arbitrary segment counts.
///
/// Returns 0 for degenerate inputs (≤ 1 non-zero), where randomness is
/// undefined and the matrix is trivially "clustered".
pub fn normalized_entropy_of(segments: &[usize]) -> f64 {
    let total: usize = segments.iter().sum();
    if total <= 1 {
        return 0.0;
    }
    let totalf = total as f64;
    let h: f64 = segments
        .iter()
        .filter(|&&s| s > 0)
        .map(|&s| {
            let p = s as f64 / totalf;
            -p * p.ln()
        })
        .sum();
    (h / totalf.ln()).clamp(0.0, 1.0)
}

/// Eq. 1 over a matrix's segments without materializing them.
///
/// Segments are at most `tile_w` long and their lengths sum to `nnz`, so
/// the `-p·ln p` term takes at most `min(tile_w, nnz)` distinct values:
/// they are tabulated once by length. [`Self::add`] folds the terms in the
/// order the segments arrive, from the start value `Iterator::sum` uses,
/// so the result is bit-identical to [`normalized_entropy_of`] over
/// [`row_segment_counts`].
pub(crate) struct EntropyAccumulator {
    /// `terms[len]` is `-p·ln p` for `p = len / nnz`; empty when the
    /// entropy is degenerate (≤ 1 non-zero).
    terms: Vec<f64>,
    totalf: f64,
    h: f64,
}

impl EntropyAccumulator {
    pub(crate) fn new(nnz: usize, tile_w: usize) -> Self {
        let totalf = nnz as f64;
        let terms = if nnz <= 1 {
            Vec::new()
        } else {
            (0..=tile_w.min(nnz))
                .map(|len| {
                    let p = len as f64 / totalf;
                    -p * p.ln()
                })
                .collect()
        };
        Self {
            terms,
            totalf,
            h: std::iter::empty::<f64>().sum(),
        }
    }

    /// Add one segment of `len` non-zeros.
    pub(crate) fn add(&mut self, len: usize) {
        if let Some(&t) = self.terms.get(len) {
            self.h += t;
        }
    }

    /// `H_norm` of the segments added so far.
    pub(crate) fn finish(&self) -> f64 {
        if self.terms.is_empty() {
            return 0.0;
        }
        (self.h / self.totalf.ln()).clamp(0.0, 1.0)
    }
}

/// `H_norm` of a matrix under `tile_w`-wide strips (Eq. 1).
pub fn normalized_entropy(csr: &Csr, tile_w: usize) -> f64 {
    let mut acc = EntropyAccumulator::new(csr.nnz(), tile_w);
    for_each_segment(csr, tile_w, |_, len| acc.add(len));
    acc.finish()
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
    fn segments_split_at_strip_boundaries() {
        // Row 0 has cols {1,2, 5,6}: two segments of 2 under 4-wide strips.
        let m = csr(8, &[(0, 1), (0, 2), (0, 5), (0, 6)]);
        assert_eq!(row_segment_counts(&m, 4), vec![2, 2]);
        // One 8-wide strip: a single segment of 4.
        assert_eq!(row_segment_counts(&m, 8), vec![4]);
    }

    #[test]
    fn scattered_matrix_has_entropy_one() {
        // Every non-zero in its own segment: p_i = 1/nnz, H = log nnz.
        let m = csr(8, &[(0, 0), (1, 4), (2, 2), (3, 6), (4, 1), (5, 5)]);
        let h = normalized_entropy(&m, 4);
        assert!((h - 1.0).abs() < 1e-12, "h = {h}");
    }

    #[test]
    fn clustered_matrix_has_low_entropy() {
        // All 4 entries in one row segment: H = 0.
        let m = csr(8, &[(0, 0), (0, 1), (0, 2), (0, 3)]);
        assert_eq!(normalized_entropy(&m, 4), 0.0);
    }

    #[test]
    fn entropy_monotone_in_scatter() {
        // One heavy segment + a few singletons sits between the extremes.
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
        let mixed = csr(
            16,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (0, 3),
                (4, 8),
                (5, 12),
                (6, 5),
                (7, 9),
            ],
        );
        let scattered = csr(
            16,
            &[
                (0, 0),
                (1, 4),
                (2, 8),
                (3, 12),
                (4, 1),
                (5, 5),
                (6, 9),
                (7, 13),
            ],
        );
        let hc = normalized_entropy(&clustered, 4);
        let hm = normalized_entropy(&mixed, 4);
        let hs = normalized_entropy(&scattered, 4);
        assert!(hc < hm && hm < hs, "hc={hc} hm={hm} hs={hs}");
        assert!((hs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = csr(4, &[]);
        assert_eq!(normalized_entropy(&empty, 4), 0.0);
        let single = csr(4, &[(1, 1)]);
        assert_eq!(normalized_entropy(&single, 4), 0.0);
        assert_eq!(normalized_entropy_of(&[]), 0.0);
        assert_eq!(normalized_entropy_of(&[0, 0]), 0.0);
    }

    #[test]
    fn entropy_bounded() {
        // Random-ish pattern stays within [0, 1].
        let entries: Vec<(u32, u32)> = (0..64u32).map(|i| ((i * 13) % 32, (i * 29) % 32)).collect();
        let m = csr(32, &entries);
        let h = normalized_entropy(&m, 8);
        assert!((0.0..=1.0).contains(&h), "h = {h}");
    }
}
