//! Densified CSR (DCSR) — CSR with empty rows compressed away.
//!
//! DCSR (Hong et al., cited as \[12\] in the paper) adds one level of
//! indirection: a `rowidx` vector listing only the rows that contain at
//! least one non-zero. `rowptr` then has one entry per *non-empty* row
//! instead of one per matrix row, which removes the redundant row pointers
//! that dominate tiled-CSR strips (Figure 6) and lets warps be devoted
//! exclusively to rows with actual work (Figure 7).

use crate::coo::check_dims;
use crate::{
    Csr, DenseMatrix, FormatError, Index, Shape, SparseMatrix, StorageSize, Value, INDEX_BYTES,
    VALUE_BYTES,
};

/// Densified CSR sparse matrix.
///
/// Invariants: `rowidx` strictly increasing (only non-empty rows, sorted),
/// `rowptr.len() == rowidx.len() + 1`, and every represented row has at
/// least one entry (otherwise it would not be "densified").
#[derive(Debug, Clone, PartialEq)]
pub struct Dcsr {
    nrows: usize,
    ncols: usize,
    rowidx: Vec<Index>,
    rowptr: Vec<Index>,
    colidx: Vec<Index>,
    values: Vec<Value>,
}

impl Dcsr {
    /// Build from raw arrays, checking all DCSR invariants via
    /// [`Dcsr::validate`].
    pub fn new(
        nrows: usize,
        ncols: usize,
        rowidx: Vec<Index>,
        rowptr: Vec<Index>,
        colidx: Vec<Index>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        let m = Self {
            nrows,
            ncols,
            rowidx,
            rowptr,
            colidx,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Build without per-call validation. Callers guarantee the invariants
    /// structurally (densification of an already-valid CSR); debug builds
    /// re-check them at every conversion boundary.
    pub(crate) fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        rowidx: Vec<Index>,
        rowptr: Vec<Index>,
        colidx: Vec<Index>,
        values: Vec<Value>,
    ) -> Self {
        let m = Self {
            nrows,
            ncols,
            rowidx,
            rowptr,
            colidx,
            values,
        };
        debug_assert!(
            m.validate().is_ok(),
            "unchecked DCSR constructor violated invariants: {:?}",
            m.validate().err()
        );
        m
    }

    /// Check every structural DCSR invariant: strictly increasing in-bounds
    /// `rowidx`, strictly increasing `rowptr` spanning `0..nnz` (densified
    /// rows may not be empty), sorted in-bounds columns per row.
    pub fn validate(&self) -> Result<(), FormatError> {
        check_dims(self.nrows, self.ncols)?;
        if self.rowptr.len() != self.rowidx.len() + 1 {
            return Err(FormatError::LengthMismatch {
                expected: self.rowidx.len() + 1,
                found: self.rowptr.len(),
                name: "rowptr",
            });
        }
        if self.colidx.len() != self.values.len() {
            return Err(FormatError::LengthMismatch {
                expected: self.colidx.len(),
                found: self.values.len(),
                name: "values",
            });
        }
        if self.rowptr.first().copied().unwrap_or(0) != 0 {
            return Err(FormatError::MalformedPointerArray {
                name: "rowptr",
                detail: "must start at 0".into(),
            });
        }
        if self.rowptr.last().copied().unwrap_or(0) as usize != self.colidx.len() {
            return Err(FormatError::MalformedPointerArray {
                name: "rowptr",
                detail: "last entry must equal nnz".into(),
            });
        }
        // Every densified row must be non-empty: strictly increasing rowptr.
        if self.rowptr.windows(2).any(|w| w[0] >= w[1]) && !self.colidx.is_empty() {
            return Err(FormatError::MalformedPointerArray {
                name: "rowptr",
                detail: "densified rows must be non-empty (strictly increasing rowptr)".into(),
            });
        }
        if self.rowidx.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FormatError::NotCanonical {
                detail: "rowidx must be strictly increasing".into(),
            });
        }
        if let Some(&last) = self.rowidx.last() {
            if last as usize >= self.nrows {
                return Err(FormatError::IndexOutOfBounds {
                    axis: "row",
                    index: last,
                    bound: self.nrows,
                });
            }
        }
        for (i, w) in self.rowptr.windows(2).enumerate() {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let row_cols = &self.colidx[lo..hi];
            for &c in row_cols {
                if c as usize >= self.ncols {
                    return Err(FormatError::IndexOutOfBounds {
                        axis: "col",
                        index: c,
                        bound: self.ncols,
                    });
                }
            }
            if row_cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err(FormatError::NotCanonical {
                    detail: format!("densified row {i} has unsorted or duplicate columns"),
                });
            }
        }
        Ok(())
    }

    /// Densify a CSR matrix: drop its empty rows into the `rowidx`
    /// indirection. This is the "straightforward" offline CSR→DCSR
    /// conversion the paper permits for the C-stationary baseline (§5.2).
    pub fn from_csr(csr: &Csr) -> Self {
        let shape = csr.shape();
        let mut rowidx = Vec::new();
        let mut rowptr = vec![0 as Index];
        let mut colidx = Vec::with_capacity(csr.nnz());
        let mut values = Vec::with_capacity(csr.nnz());
        for r in 0..shape.nrows {
            let (cols, vals) = csr.row(r);
            if cols.is_empty() {
                continue;
            }
            rowidx.push(r as Index);
            colidx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            rowptr.push(colidx.len() as Index);
        }
        Self::from_parts_unchecked(shape.nrows, shape.ncols, rowidx, rowptr, colidx, values)
    }

    /// Expand back to CSR (reinstating empty rows).
    pub fn to_csr(&self) -> Csr {
        let mut rowptr = vec![0 as Index; self.nrows + 1];
        for (i, &r) in self.rowidx.iter().enumerate() {
            rowptr[r as usize + 1] = self.rowptr[i + 1] - self.rowptr[i];
        }
        for i in 0..self.nrows {
            rowptr[i + 1] += rowptr[i];
        }
        Csr::from_parts_unchecked(
            self.nrows,
            self.ncols,
            rowptr,
            self.colidx.clone(),
            self.values.clone(),
        )
    }

    /// Row indices of the non-empty rows (the DCSR indirection vector).
    pub fn rowidx(&self) -> &[Index] {
        &self.rowidx
    }

    /// Row pointers over the densified rows (`rowidx.len() + 1` entries).
    pub fn rowptr(&self) -> &[Index] {
        &self.rowptr
    }

    /// Column index array.
    pub fn colidx(&self) -> &[Index] {
        &self.colidx
    }

    /// Value array.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of non-empty rows stored (`n_nnzrow`).
    pub fn num_dense_rows(&self) -> usize {
        self.rowidx.len()
    }

    /// The `i`-th densified row: `(global row index, columns, values)`.
    #[inline]
    pub fn dense_row(&self, i: usize) -> (Index, &[Index], &[Value]) {
        let (lo, hi) = (self.rowptr[i] as usize, self.rowptr[i + 1] as usize);
        (self.rowidx[i], &self.colidx[lo..hi], &self.values[lo..hi])
    }

    /// Iterate `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, Value)> + '_ {
        (0..self.rowidx.len()).flat_map(move |i| {
            let (r, cols, vals) = self.dense_row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Densify into a dense matrix (small matrices / tests).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d.set(r as usize, c as usize, v);
        }
        d
    }
}

impl SparseMatrix for Dcsr {
    fn shape(&self) -> Shape {
        Shape::new(self.nrows, self.ncols)
    }

    fn nnz(&self) -> usize {
        self.colidx.len()
    }
}

impl StorageSize for Dcsr {
    /// colidx + rowptr + the extra `rowidx` metadata ("paying the additional
    /// metadata cost for row indices to specify the non-zero rows", §3.2).
    fn metadata_bytes(&self) -> usize {
        (self.colidx.len() + self.rowptr.len() + self.rowidx.len()) * INDEX_BYTES
    }

    fn data_bytes(&self) -> usize {
        self.values.len() * VALUE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    /// Figure 6's strip: 16 rows, only rows 3, 9, 10, 12 are non-empty.
    fn figure6_csr() -> Csr {
        let coo = Coo::from_triplets(
            16,
            4,
            &[3, 9, 10, 10, 12],
            &[0, 1, 0, 2, 3],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn densify_keeps_only_nonzero_rows() {
        let dcsr = Dcsr::from_csr(&figure6_csr());
        assert_eq!(dcsr.rowidx(), &[3, 9, 10, 12]);
        assert_eq!(dcsr.num_dense_rows(), 4);
        assert_eq!(dcsr.nnz(), 5);
        // rowptr has one entry per non-empty row + 1, not nrows + 1.
        assert_eq!(dcsr.rowptr().len(), 5);
    }

    #[test]
    fn csr_roundtrip() {
        let csr = figure6_csr();
        assert_eq!(Dcsr::from_csr(&csr).to_csr(), csr);
    }

    #[test]
    fn dense_row_access() {
        let dcsr = Dcsr::from_csr(&figure6_csr());
        let (r, cols, vals) = dcsr.dense_row(2);
        assert_eq!(r, 10);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[3.0, 4.0]);
    }

    #[test]
    fn metadata_smaller_than_csr_when_sparse_rows() {
        // Figure 6's point: CSR pays 17 rowptr entries for 4 useful rows.
        let csr = figure6_csr();
        let dcsr = Dcsr::from_csr(&csr);
        assert!(dcsr.metadata_bytes() < csr.metadata_bytes());
        // CSR: (5 + 17) * 4 = 88; DCSR: (5 + 5 + 4) * 4 = 56.
        assert_eq!(csr.metadata_bytes(), 88);
        assert_eq!(dcsr.metadata_bytes(), 56);
    }

    #[test]
    fn metadata_larger_than_csr_when_all_rows_full() {
        // With no empty rows the rowidx indirection is pure overhead.
        let coo = Coo::from_triplets(3, 3, &[0, 1, 2], &[0, 1, 2], &[1.0; 3]).unwrap();
        let csr = Csr::from_coo(&coo);
        let dcsr = Dcsr::from_csr(&csr);
        assert!(dcsr.metadata_bytes() > csr.metadata_bytes());
    }

    #[test]
    fn validation_rejects_empty_densified_rows() {
        // rowptr must strictly increase: a densified row may not be empty.
        assert!(Dcsr::new(4, 4, vec![0, 2], vec![0, 0, 1], vec![1], vec![1.0]).is_err());
    }

    #[test]
    fn validation_rejects_unsorted_rowidx() {
        assert!(Dcsr::new(4, 4, vec![2, 0], vec![0, 1, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn validation_rejects_out_of_bounds() {
        assert!(Dcsr::new(2, 2, vec![5], vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Dcsr::new(2, 2, vec![0], vec![0, 1], vec![9], vec![1.0]).is_err());
    }

    #[test]
    fn empty_matrix() {
        let d = Dcsr::new(4, 4, vec![], vec![0], vec![], vec![]).unwrap();
        assert_eq!(d.nnz(), 0);
        assert_eq!(d.num_dense_rows(), 0);
        assert_eq!(d.to_csr().nnz(), 0);
    }

    #[test]
    fn iter_matches_csr_iter() {
        let csr = figure6_csr();
        let dcsr = Dcsr::from_csr(&csr);
        let a: Vec<_> = csr.iter().collect();
        let b: Vec<_> = dcsr.iter().collect();
        assert_eq!(a, b);
    }
}
