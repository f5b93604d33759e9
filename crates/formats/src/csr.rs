//! Compressed Sparse Row (CSR) — the community-standard storage format
//! (Figure 1 of the paper) and the input format of the cuSPARSE baseline.

use crate::coo::check_dims;
use crate::{
    Coo, CooEntry, Csc, DenseMatrix, FormatError, Index, Shape, SparseMatrix, StorageSize, Value,
    INDEX_BYTES, VALUE_BYTES,
};

/// CSR sparse matrix: `value`, `colidx` (one per non-zero, row-major) and
/// `rowptr` (row boundaries; `rowptr[i]..rowptr[i+1]` spans row `i`).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<Index>,
    colidx: Vec<Index>,
    values: Vec<Value>,
}

impl Csr {
    /// Build from raw arrays, checking every CSR invariant via
    /// [`Csr::validate`].
    pub fn new(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<Index>,
        colidx: Vec<Index>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        let m = Self {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Build without per-call validation. Callers guarantee the invariants
    /// structurally (counting transposes, canonical-order rebuilds); debug
    /// builds re-check them at every conversion boundary.
    pub(crate) fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<Index>,
        colidx: Vec<Index>,
        values: Vec<Value>,
    ) -> Self {
        let m = Self {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        };
        debug_assert!(
            m.validate().is_ok(),
            "unchecked CSR constructor violated invariants: {:?}",
            m.validate().err()
        );
        m
    }

    /// Check every structural CSR invariant:
    /// * `rowptr.len() == nrows + 1`, starts at 0, ends at nnz, monotone;
    /// * `colidx.len() == values.len() == nnz`, all indices `< ncols`;
    /// * within each row, columns strictly increase (canonical form).
    pub fn validate(&self) -> Result<(), FormatError> {
        check_dims(self.nrows, self.ncols)?;
        if self.rowptr.len() != self.nrows + 1 {
            return Err(FormatError::LengthMismatch {
                expected: self.nrows + 1,
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
        if self.rowptr.first() != Some(&0) {
            return Err(FormatError::MalformedPointerArray {
                name: "rowptr",
                detail: "must start at 0".into(),
            });
        }
        let last = self.rowptr.last().copied().unwrap_or(0);
        if last as usize != self.colidx.len() {
            return Err(FormatError::MalformedPointerArray {
                name: "rowptr",
                detail: format!("last entry {} must equal nnz {}", last, self.colidx.len()),
            });
        }
        if self.rowptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(FormatError::MalformedPointerArray {
                name: "rowptr",
                detail: "must be non-decreasing".into(),
            });
        }
        for (r, w) in self.rowptr.windows(2).enumerate() {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            // One pass per row. An out-of-bounds column is reported at
            // once; an unsorted pair only after the row has none, so a
            // row's bounds error wins over its order error.
            let mut prev = -1i64;
            let mut sorted = true;
            for &c in &self.colidx[lo..hi] {
                if c as usize >= self.ncols {
                    return Err(FormatError::IndexOutOfBounds {
                        axis: "col",
                        index: c,
                        bound: self.ncols,
                    });
                }
                sorted &= prev < i64::from(c);
                prev = i64::from(c);
            }
            if !sorted {
                return Err(FormatError::NotCanonical {
                    detail: format!("row {r} has unsorted or duplicate column indices"),
                });
            }
        }
        Ok(())
    }

    /// Build from a COO matrix (a canonicalized copy is made as needed).
    pub fn from_coo(coo: &Coo) -> Self {
        let shape = coo.shape();
        let mut sorted;
        let canonical: &Coo = if coo.is_canonical() {
            coo
        } else {
            sorted = coo.clone();
            sorted.canonicalize();
            &sorted
        };
        let nnz = canonical.nnz();
        let mut rowptr = vec![0 as Index; shape.nrows + 1];
        for e in canonical.entries() {
            rowptr[e.row as usize + 1] += 1;
        }
        for i in 0..shape.nrows {
            rowptr[i + 1] += rowptr[i];
        }
        let mut colidx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for e in canonical.entries() {
            colidx.push(e.col);
            values.push(e.val);
        }
        Self::from_parts_unchecked(shape.nrows, shape.ncols, rowptr, colidx, values)
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn rowptr(&self) -> &[Index] {
        &self.rowptr
    }

    /// Column index array (one per non-zero, row-major).
    pub fn colidx(&self) -> &[Index] {
        &self.colidx
    }

    /// Value array (one per non-zero, row-major).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[Index], &[Value]) {
        let (lo, hi) = (self.rowptr[r] as usize, self.rowptr[r + 1] as usize);
        (&self.colidx[lo..hi], &self.values[lo..hi])
    }

    /// Number of non-zeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.rowptr[r + 1] - self.rowptr[r]) as usize
    }

    /// Number of rows that contain at least one non-zero
    /// (`n_nnzrow` in the paper's Table 1 / SSF notation).
    pub fn nonzero_rows(&self) -> usize {
        (0..self.nrows).filter(|&r| self.row_nnz(r) > 0).count()
    }

    /// Number of columns that contain at least one non-zero (`n_nnzcol`).
    pub fn nonzero_cols(&self) -> usize {
        let mut seen = vec![false; self.ncols];
        for &c in &self.colidx {
            seen[c as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Iterate all `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, Value)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r as Index, c, v))
        })
    }

    /// Convert to COO (already canonical).
    pub fn to_coo(&self) -> Coo {
        let entries = self
            .iter()
            .map(|(r, c, v)| CooEntry::new(r, c, v))
            .collect();
        Coo::from_entries(self.nrows, self.ncols, entries)
            // nmt-lint: allow(panic) — row-major iteration over a valid CSR yields valid entries
            .expect("CSR invariants guarantee valid COO entries")
    }

    /// Convert to CSC via a counting transpose (O(nnz + n)).
    pub fn to_csc(&self) -> Csc {
        let nnz = self.nnz();
        let mut colptr = vec![0 as Index; self.ncols + 1];
        for &c in &self.colidx {
            colptr[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            colptr[i + 1] += colptr[i];
        }
        let mut rowidx = vec![0 as Index; nnz];
        let mut values = vec![0.0 as Value; nnz];
        let mut cursor = colptr.clone();
        for (r, c, v) in self.iter() {
            let slot = cursor[c as usize] as usize;
            rowidx[slot] = r;
            values[slot] = v;
            cursor[c as usize] += 1;
        }
        Csc::from_parts_unchecked(self.nrows, self.ncols, colptr, rowidx, values)
    }

    /// Transposed copy (rows become columns), still in CSR.
    pub fn transpose(&self) -> Csr {
        // The CSC of A laid over swapped dimensions *is* the CSR of Aᵀ.
        let csc = self.to_csc();
        Csr::from_parts_unchecked(
            self.ncols,
            self.nrows,
            csc.colptr().to_vec(),
            csc.rowidx().to_vec(),
            csc.values().to_vec(),
        )
    }

    /// Densify (for small test matrices).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d.set(r as usize, c as usize, v);
        }
        d
    }

    /// Histogram of per-row nnz counts — feeds the load-imbalance analyses.
    pub fn row_nnz_counts(&self) -> Vec<usize> {
        (0..self.nrows).map(|r| self.row_nnz(r)).collect()
    }
}

impl SparseMatrix for Csr {
    fn shape(&self) -> Shape {
        Shape::new(self.nrows, self.ncols)
    }

    fn nnz(&self) -> usize {
        self.colidx.len()
    }
}

impl StorageSize for Csr {
    /// `4 × nnz` (colidx) `+ 4 × (nrows + 1)` (rowptr) — exactly the
    /// `8·nnz + 4·(N+1)` total of the paper's §2 once values are added.
    fn metadata_bytes(&self) -> usize {
        self.colidx.len() * INDEX_BYTES + self.rowptr.len() * INDEX_BYTES
    }

    fn data_bytes(&self) -> usize {
        self.values.len() * VALUE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 3x4 example of the paper's Figure 1 (values a..y -> 1..5).
    pub(crate) fn figure1() -> Csr {
        Csr::new(
            3,
            4,
            vec![0, 3, 3, 5],
            vec![0, 1, 2, 1, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn figure1_matches_paper() {
        let m = figure1();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_nnz(0), 3);
        assert_eq!(m.row_nnz(1), 0); // rowptr[1] == rowptr[2] -> empty row
        assert_eq!(m.row_nnz(2), 2);
        assert_eq!(m.nonzero_rows(), 2);
        assert_eq!(m.nonzero_cols(), 4);
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[1, 3]);
        assert_eq!(vals, &[4.0, 5.0]);
    }

    #[test]
    fn validation_rejects_bad_rowptr() {
        assert!(Csr::new(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).is_err()); // no 0 start
        assert!(Csr::new(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).is_err()); // decreasing
        assert!(Csr::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err()); // short
        assert!(Csr::new(2, 2, vec![0, 0, 2], vec![0], vec![1.0]).is_err()); // end != nnz
    }

    #[test]
    fn validation_reports_the_first_row_fault_bounds_before_order() {
        let oob = |e: FormatError| matches!(e, FormatError::IndexOutOfBounds { index: 7, .. });
        let unsorted_row = |r: usize, e: FormatError| {
            matches!(e, FormatError::NotCanonical { ref detail }
                if detail.starts_with(&format!("row {r} ")))
        };
        let err = |rowptr: Vec<Index>, colidx: Vec<Index>| {
            let values = vec![1.0; colidx.len()];
            Csr::new(3, 4, rowptr, colidx, values).unwrap_err()
        };
        // Within a row, an out-of-bounds column wins over an unsorted
        // pair on either side of it.
        assert!(oob(err(vec![0, 3, 3, 3], vec![2, 1, 7])));
        assert!(oob(err(vec![0, 3, 3, 3], vec![7, 2, 1])));
        assert!(oob(err(vec![0, 3, 3, 3], vec![1, 1, 7])));
        // Across rows, the earlier row's fault wins, whichever kind.
        assert!(unsorted_row(0, err(vec![0, 2, 3, 3], vec![2, 1, 7])));
        assert!(oob(err(vec![0, 1, 3, 3], vec![7, 2, 1])));
        assert!(unsorted_row(2, err(vec![0, 1, 1, 3], vec![3, 3, 3])));
    }

    #[test]
    fn validation_rejects_bad_columns() {
        // out of bounds
        assert!(Csr::new(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // unsorted within row
        assert!(Csr::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // duplicate within row
        assert!(Csr::new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // colidx/values mismatch
        assert!(Csr::new(1, 3, vec![0, 2], vec![0, 1], vec![1.0]).is_err());
    }

    #[test]
    fn from_coo_roundtrip() {
        let m = figure1();
        let coo = m.to_coo();
        let back = Csr::from_coo(&coo);
        assert_eq!(back, m);
    }

    #[test]
    fn from_unsorted_coo() {
        let coo = Coo::from_triplets(
            3,
            4,
            &[2, 0, 2, 0, 0],
            &[3, 2, 1, 0, 1],
            &[5.0, 3.0, 4.0, 1.0, 2.0],
        )
        .unwrap();
        assert_eq!(Csr::from_coo(&coo), figure1());
    }

    #[test]
    fn csc_roundtrip_preserves_dense() {
        let m = figure1();
        let csc = m.to_csc();
        assert_eq!(csc.to_dense(), m.to_dense());
        assert_eq!(csc.to_csr(), m);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = figure1();
        assert_eq!(m.transpose().transpose(), m);
        let t = m.transpose();
        assert_eq!(t.shape(), Shape::new(4, 3));
        assert_eq!(t.to_dense().get(1, 0), 2.0); // (0,1) -> (1,0)
    }

    #[test]
    fn storage_matches_section2_model() {
        // §2: CSR of an N x N matrix costs 8·nnz + 4·(N+1) bytes.
        let m = figure1();
        let expected = 8 * m.nnz() + 4 * (m.shape().nrows + 1);
        assert_eq!(m.storage_bytes(), expected);
    }

    #[test]
    fn nnz_count_vectors() {
        let m = figure1();
        assert_eq!(m.row_nnz_counts(), vec![3, 0, 2]);
    }

    #[test]
    fn empty_matrix_ok() {
        let m = Csr::new(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.nonzero_rows(), 0);
    }
}
