//! Sparse matrix storage formats for the near-memory-transform SpMM system.
//!
//! This crate provides the complete format zoo used by the SC'19 paper
//! *Near-Memory Data Transformation for Efficient Sparse Matrix Multi-Vector
//! Multiplication*:
//!
//! * [`Coo`] — coordinate list, the deserialization/interchange format
//!   (Matrix Market files decode to this).
//! * [`Csr`] — compressed sparse row, the community-standard storage format
//!   and the cuSPARSE baseline's input.
//! * [`Csc`] — compressed sparse column, the storage- and bandwidth-efficient
//!   *baseline format* of the near-memory transform engine (§4.1): extracting
//!   a vertical strip from CSC only requires walking down columns from
//!   `colptr`, no per-row scan or jagged-frontier state.
//! * [`Dcsr`] — densified CSR (Hong et al.): only non-empty rows are
//!   represented, via an extra `rowidx` indirection.
//! * [`TiledCsr`] / [`TiledDcsr`] — the matrix cut into vertical strips
//!   (default width 64) and, for DCSR, strips cut into tiles (default height
//!   64). Tiled DCSR is the *compute-efficient* format the engine produces.
//! * [`DenseMatrix`] — row-major dense matrices for the multi-vector operand
//!   `B` and the output `C`.
//!
//! All formats carry explicit storage accounting ([`StorageSize`]) because
//! the paper's Figures 8 and 9 are entirely about metadata footprint, and
//! every conversion is lossless and validated.
//!
//! Indices are `u32` ([`Index`]) and values `f32` ([`Value`]), matching the
//! paper's 4-byte-per-element storage model (§2) and fp32 datatype (§5.1).

#![warn(missing_docs)]

pub mod arbitrary;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dcsr;
pub mod dense;
pub mod error;
pub mod market;
pub mod ops;
pub mod storage;
pub mod strips;
pub mod tiled;

pub use coo::{Coo, CooEntry};
pub use csc::Csc;
pub use csr::Csr;
pub use dcsr::Dcsr;
pub use dense::DenseMatrix;
pub use error::FormatError;
pub use storage::{size_ratio, StorageSize};
pub use strips::{strip_count, strip_nonzero_row_fraction, tile_count, StripStats};
pub use tiled::{
    CsrStrip, DcsrStrip, DcsrTileView, StripSize, StripWriter, TiledCsr, TiledDcsr, DEFAULT_TILE,
};

/// Row/column index type. 4 bytes, matching the paper's storage model where
/// each `rowptr`/`colidx` entry costs 4 bytes (§2).
pub type Index = u32;

/// Matrix element type. The paper evaluates with 32-bit floating point
/// multiplication (§5.1).
pub type Value = f32;

/// Size in bytes of one stored index.
pub const INDEX_BYTES: usize = core::mem::size_of::<Index>();

/// Size in bytes of one stored value.
pub const VALUE_BYTES: usize = core::mem::size_of::<Value>();

/// Shape of a matrix: `(rows, cols)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
}

impl Shape {
    /// Create a shape.
    pub const fn new(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols }
    }

    /// Total number of (dense) cells.
    pub fn cells(&self) -> usize {
        self.nrows * self.ncols
    }
}

impl core::fmt::Display for Shape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{}", self.nrows, self.ncols)
    }
}

/// Common interface over every sparse format in the crate.
pub trait SparseMatrix {
    /// Matrix shape.
    fn shape(&self) -> Shape;

    /// Number of explicitly stored non-zero entries.
    fn nnz(&self) -> usize;

    /// Density `nnz / (nrows * ncols)`; 0 for an empty shape.
    fn density(&self) -> f64 {
        let cells = self.shape().cells();
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_display_and_cells() {
        let s = Shape::new(3, 4);
        assert_eq!(s.cells(), 12);
        assert_eq!(s.to_string(), "3x4");
    }

    #[test]
    fn index_and_value_are_four_bytes() {
        // The paper's §2 byte/FLOP model assumes 4 bytes per rowptr, colidx
        // and value entry; the storage accounting relies on this.
        assert_eq!(INDEX_BYTES, 4);
        assert_eq!(VALUE_BYTES, 4);
    }
}
