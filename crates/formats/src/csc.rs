//! Compressed Sparse Column (CSC) — the engine's baseline storage format.
//!
//! §4.1 of the paper argues CSC is the right in-memory representation for
//! online strip extraction: a vertical strip of columns `c .. c+N` is reached
//! directly through `colptr`, so the conversion engine "just has to walk down
//! the columns" — no per-row binary scans (stateless CSR) and no jagged
//! frontier metadata (stateful CSR).

use crate::coo::check_dims;
use crate::{
    Coo, CooEntry, Csr, DenseMatrix, FormatError, Index, Shape, SparseMatrix, StorageSize, Value,
    INDEX_BYTES, VALUE_BYTES,
};

/// CSC sparse matrix: `value`, `rowidx` (one per non-zero, column-major) and
/// `colptr` (column boundaries; `colptr[j]..colptr[j+1]` spans column `j`).
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    nrows: usize,
    ncols: usize,
    colptr: Vec<Index>,
    rowidx: Vec<Index>,
    values: Vec<Value>,
}

impl Csc {
    /// Build from raw arrays, checking every CSC invariant via
    /// [`Csc::validate`] (mirror image of the CSR invariants).
    pub fn new(
        nrows: usize,
        ncols: usize,
        colptr: Vec<Index>,
        rowidx: Vec<Index>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        let m = Self {
            nrows,
            ncols,
            colptr,
            rowidx,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Build without per-call validation. Callers guarantee the invariants
    /// structurally (counting transposes); debug builds re-check them at
    /// every conversion boundary.
    pub(crate) fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        colptr: Vec<Index>,
        rowidx: Vec<Index>,
        values: Vec<Value>,
    ) -> Self {
        let m = Self {
            nrows,
            ncols,
            colptr,
            rowidx,
            values,
        };
        debug_assert!(
            m.validate().is_ok(),
            "unchecked CSC constructor violated invariants: {:?}",
            m.validate().err()
        );
        m
    }

    /// Check every structural CSC invariant: monotone `colptr` spanning
    /// `0..nnz`, bounded and strictly increasing row indices within each
    /// column, and matching `rowidx`/`values` lengths.
    pub fn validate(&self) -> Result<(), FormatError> {
        let (nrows, ncols) = (self.nrows, self.ncols);
        let (colptr, rowidx, values_len) = (&self.colptr, &self.rowidx, self.values.len());
        check_dims(nrows, ncols)?;
        if colptr.len() != ncols + 1 {
            return Err(FormatError::LengthMismatch {
                expected: ncols + 1,
                found: colptr.len(),
                name: "colptr",
            });
        }
        if rowidx.len() != values_len {
            return Err(FormatError::LengthMismatch {
                expected: rowidx.len(),
                found: values_len,
                name: "values",
            });
        }
        if colptr.first() != Some(&0) {
            return Err(FormatError::MalformedPointerArray {
                name: "colptr",
                detail: "must start at 0".into(),
            });
        }
        let last = colptr.last().copied().unwrap_or(0);
        if last as usize != rowidx.len() {
            return Err(FormatError::MalformedPointerArray {
                name: "colptr",
                detail: format!("last entry {} must equal nnz {}", last, rowidx.len()),
            });
        }
        if colptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(FormatError::MalformedPointerArray {
                name: "colptr",
                detail: "must be non-decreasing".into(),
            });
        }
        for (c, w) in colptr.windows(2).enumerate() {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let col_rows = &rowidx[lo..hi];
            for &r in col_rows {
                if r as usize >= nrows {
                    return Err(FormatError::IndexOutOfBounds {
                        axis: "row",
                        index: r,
                        bound: nrows,
                    });
                }
            }
            if col_rows.windows(2).any(|w| w[0] >= w[1]) {
                return Err(FormatError::NotCanonical {
                    detail: format!("column {c} has unsorted or duplicate row indices"),
                });
            }
        }
        Ok(())
    }

    /// Build from a COO matrix.
    pub fn from_coo(coo: &Coo) -> Self {
        // Column-major canonical order is row-major order of the transpose.
        Csr::from_coo(coo).to_csc()
    }

    /// Column pointer array (`ncols + 1` entries).
    pub fn colptr(&self) -> &[Index] {
        &self.colptr
    }

    /// Row index array (one per non-zero, column-major).
    pub fn rowidx(&self) -> &[Index] {
        &self.rowidx
    }

    /// Value array (one per non-zero, column-major).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The row indices and values of column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> (&[Index], &[Value]) {
        let (lo, hi) = (self.colptr[c] as usize, self.colptr[c + 1] as usize);
        (&self.rowidx[lo..hi], &self.values[lo..hi])
    }

    /// Number of non-zeros in column `c`.
    #[inline]
    pub fn col_nnz(&self, c: usize) -> usize {
        (self.colptr[c + 1] - self.colptr[c]) as usize
    }

    /// Number of columns containing at least one non-zero (`n_nnzcol`).
    pub fn nonzero_cols(&self) -> usize {
        (0..self.ncols).filter(|&c| self.col_nnz(c) > 0).count()
    }

    /// Iterate all `(row, col, value)` triplets in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, Value)> + '_ {
        (0..self.ncols).flat_map(move |c| {
            let (rows, vals) = self.col(c);
            rows.iter()
                .zip(vals)
                .map(move |(&r, &v)| (r, c as Index, v))
        })
    }

    /// Convert to CSR via a counting transpose (O(nnz + n)).
    pub fn to_csr(&self) -> Csr {
        let nnz = self.nnz();
        let mut rowptr = vec![0 as Index; self.nrows + 1];
        for &r in &self.rowidx {
            rowptr[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            rowptr[i + 1] += rowptr[i];
        }
        let mut colidx = vec![0 as Index; nnz];
        let mut values = vec![0.0 as Value; nnz];
        let mut cursor = rowptr.clone();
        for (r, c, v) in self.iter() {
            let slot = cursor[r as usize] as usize;
            colidx[slot] = c;
            values[slot] = v;
            cursor[r as usize] += 1;
        }
        Csr::from_parts_unchecked(self.nrows, self.ncols, rowptr, colidx, values)
    }

    /// Convert to COO in column-major order.
    pub fn to_coo(&self) -> Coo {
        let entries = self
            .iter()
            .map(|(r, c, v)| CooEntry::new(r, c, v))
            .collect();
        Coo::from_entries(self.nrows, self.ncols, entries)
            // nmt-lint: allow(panic) — column-major iteration over a valid CSC yields valid entries
            .expect("CSC invariants guarantee valid COO entries")
    }

    /// Densify (for small test matrices).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d.set(r as usize, c as usize, v);
        }
        d
    }

    /// For the engine: the slice of entries of column `c` whose row index is
    /// at least `row_start`, found by binary search. This is how the
    /// conversion unit positions `col_frontier` for a random tile access
    /// (random access "can also be efficiently supported", §4.1).
    pub fn col_frontier_at(&self, c: usize, row_start: Index) -> usize {
        let (lo, hi) = (self.colptr[c] as usize, self.colptr[c + 1] as usize);
        lo + self.rowidx[lo..hi].partition_point(|&r| r < row_start)
    }
}

impl SparseMatrix for Csc {
    fn shape(&self) -> Shape {
        Shape::new(self.nrows, self.ncols)
    }

    fn nnz(&self) -> usize {
        self.rowidx.len()
    }
}

impl StorageSize for Csc {
    /// `4 × nnz` (rowidx) `+ 4 × (ncols + 1)` (colptr). "CSC is
    /// approximately the same size as CSR for square matrices" (§4.1).
    fn metadata_bytes(&self) -> usize {
        self.rowidx.len() * INDEX_BYTES + self.colptr.len() * INDEX_BYTES
    }

    fn data_bytes(&self) -> usize {
        self.values.len() * VALUE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 13's example strip in CSC form: 3 columns,
    /// col0 = {a0@r0, a2@r2, a4@r4}, col1 = {b0@r0, b1@r1, b4@r4},
    /// col2 = {c0@r0, c2@r2}.
    pub(crate) fn figure13() -> Csc {
        Csc::new(
            5,
            3,
            vec![0, 3, 6, 8],
            vec![0, 2, 4, 0, 1, 4, 0, 2],
            vec![10.0, 12.0, 14.0, 20.0, 21.0, 24.0, 30.0, 32.0],
        )
        .unwrap()
    }

    #[test]
    fn figure13_shape_and_columns() {
        let m = figure13();
        assert_eq!(m.nnz(), 8);
        assert_eq!(m.col_nnz(0), 3);
        assert_eq!(m.col_nnz(1), 3);
        assert_eq!(m.col_nnz(2), 2);
        let (rows, vals) = m.col(2);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[30.0, 32.0]);
        assert_eq!(m.nonzero_cols(), 3);
    }

    #[test]
    fn validation_mirrors_csr() {
        assert!(Csc::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err()); // short colptr
        assert!(Csc::new(2, 2, vec![0, 2, 1], vec![0], vec![1.0]).is_err()); // decreasing
        assert!(Csc::new(2, 1, vec![0, 1], vec![7], vec![1.0]).is_err()); // row oob
        assert!(Csc::new(3, 1, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).is_err()); // unsorted
        assert!(Csc::new(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // dup
    }

    #[test]
    fn csr_roundtrip() {
        let m = figure13();
        let rt = m.to_csr().to_csc();
        assert_eq!(rt, m);
    }

    #[test]
    fn coo_roundtrip() {
        let m = figure13();
        assert_eq!(Csc::from_coo(&m.to_coo()), m);
    }

    #[test]
    fn frontier_binary_search() {
        let m = figure13();
        // col0 rows = [0,2,4]; first entry with row >= 3 is index 2 (row 4).
        assert_eq!(m.col_frontier_at(0, 0), 0);
        assert_eq!(m.col_frontier_at(0, 1), 1);
        assert_eq!(m.col_frontier_at(0, 3), 2);
        assert_eq!(m.col_frontier_at(0, 5), 3); // past the end
                                                // col2 rows = [0,2] live at global slots 6..8.
        assert_eq!(m.col_frontier_at(2, 1), 7);
    }

    #[test]
    fn storage_close_to_csr_for_square() {
        // §4.1: CSC ≈ CSR in size for square matrices.
        let coo = Coo::from_triplets(4, 4, &[0, 1, 2, 3], &[1, 2, 3, 0], &[1.0; 4]).unwrap();
        let csr = Csr::from_coo(&coo);
        let csc = Csc::from_coo(&coo);
        assert_eq!(csr.storage_bytes(), csc.storage_bytes());
    }

    #[test]
    fn wide_matrix_has_larger_colptr() {
        // §4.1: CSC becomes larger when the sparse matrix is wide.
        let coo = Coo::from_triplets(2, 100, &[0, 1], &[5, 50], &[1.0, 2.0]).unwrap();
        let csr = Csr::from_coo(&coo);
        let csc = Csc::from_coo(&coo);
        assert!(csc.metadata_bytes() > csr.metadata_bytes());
    }
}
