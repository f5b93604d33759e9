//! Zero-copy borrowed views of sparse formats.
//!
//! The conversion engine reads a CSC image — it never mutates or keeps
//! it — so handing it owned arrays forces copies exactly where the paper
//! wants streaming. [`CscView`] borrows the three CSC arrays instead:
//! a [`Csc`] lends itself via [`Csc::view`] at zero cost.
//!
//! Borrowing rules: views are read-only, short-lived (the borrow pins
//! the source for the conversion call), and carry the same structural
//! invariants as the owned type — checked constructors validate, the
//! `from_validated` fast path inherits validity from a source that
//! already proved it (re-checked in debug builds).

use crate::csc::validate_csc_parts;
use crate::{Csc, FormatError, Index, Shape, SparseMatrix, Value};

/// A borrowed CSC image: `colptr`/`rowidx`/`values` slices plus the
/// dimensions, upholding every [`Csc`] invariant.
#[derive(Debug, Clone, Copy)]
pub struct CscView<'a> {
    nrows: usize,
    ncols: usize,
    colptr: &'a [Index],
    rowidx: &'a [Index],
    values: &'a [Value],
}

impl<'a> CscView<'a> {
    /// Build from borrowed arrays, checking every CSC invariant (the
    /// same checks as [`Csc::new`], without taking ownership).
    pub fn new(
        nrows: usize,
        ncols: usize,
        colptr: &'a [Index],
        rowidx: &'a [Index],
        values: &'a [Value],
    ) -> Result<Self, FormatError> {
        validate_csc_parts(nrows, ncols, colptr, rowidx, values.len())?;
        Ok(Self {
            nrows,
            ncols,
            colptr,
            rowidx,
            values,
        })
    }

    /// Build from arrays whose invariants the caller has already proved
    /// (a validated `Csc`). Debug builds re-check.
    pub(crate) fn from_validated(
        nrows: usize,
        ncols: usize,
        colptr: &'a [Index],
        rowidx: &'a [Index],
        values: &'a [Value],
    ) -> Self {
        debug_assert!(
            validate_csc_parts(nrows, ncols, colptr, rowidx, values.len()).is_ok(),
            "CscView::from_validated given invalid arrays"
        );
        Self {
            nrows,
            ncols,
            colptr,
            rowidx,
            values,
        }
    }

    /// Column pointer array (`ncols + 1` entries).
    pub fn colptr(&self) -> &'a [Index] {
        self.colptr
    }

    /// Row index array (one per non-zero, column-major).
    pub fn rowidx(&self) -> &'a [Index] {
        self.rowidx
    }

    /// Value array (one per non-zero, column-major).
    pub fn values(&self) -> &'a [Value] {
        self.values
    }

    /// Copy into an owned [`Csc`] (test/interop convenience; the point
    /// of the view is to avoid this on hot paths).
    pub fn to_owned_csc(&self) -> Csc {
        Csc::from_parts_unchecked(
            self.nrows,
            self.ncols,
            self.colptr.to_vec(),
            self.rowidx.to_vec(),
            self.values.to_vec(),
        )
    }

    /// See [`Csc::col_frontier_at`]: first element of column `c` with
    /// row ≥ `row_start`, by binary search.
    pub fn col_frontier_at(&self, c: usize, row_start: Index) -> usize {
        let (lo, hi) = (self.colptr[c] as usize, self.colptr[c + 1] as usize);
        lo + self.rowidx[lo..hi].partition_point(|&r| r < row_start)
    }
}

impl SparseMatrix for CscView<'_> {
    fn shape(&self) -> Shape {
        Shape::new(self.nrows, self.ncols)
    }

    fn nnz(&self) -> usize {
        self.rowidx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csc() -> Csc {
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
    fn view_borrows_without_copying() {
        let csc = sample_csc();
        let v = csc.view();
        assert_eq!(v.shape(), csc.shape());
        assert_eq!(v.nnz(), csc.nnz());
        assert!(std::ptr::eq(v.colptr(), csc.colptr()), "no copy");
        assert!(std::ptr::eq(v.values(), csc.values()), "no copy");
        assert_eq!(v.to_owned_csc(), csc);
    }

    #[test]
    fn checked_constructor_validates() {
        assert!(CscView::new(2, 2, &[0, 1], &[0], &[1.0]).is_err()); // short colptr
        assert!(CscView::new(2, 2, &[0, 2, 1], &[0], &[1.0]).is_err()); // decreasing
        assert!(CscView::new(2, 1, &[0, 1], &[7], &[1.0]).is_err()); // row oob
        assert!(CscView::new(3, 1, &[0, 2], &[1, 1], &[1.0, 2.0]).is_err()); // dup
        assert!(CscView::new(5, 0, &[0], &[], &[]).is_ok());
    }

    #[test]
    fn frontier_search_matches_owned() {
        let csc = sample_csc();
        let v = csc.view();
        for c in 0..3 {
            for row in 0..6 {
                assert_eq!(v.col_frontier_at(c, row), csc.col_frontier_at(c, row));
            }
        }
    }
}
