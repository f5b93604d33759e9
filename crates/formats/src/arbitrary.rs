//! Proptest strategies over the format zoo, plus deterministic corruption
//! helpers for negative property tests.
//!
//! The positive strategies ([`coo_strategy`], [`csr_strategy`],
//! [`csc_strategy`], [`tiled_dcsr_strategy`]) generate arbitrary *valid*
//! matrices — every value they produce must pass its format's
//! `validate()`. The [`Corruption`] helpers take a valid matrix and break
//! exactly one structural invariant, so tests can assert the validators
//! reject every corrupted variant with a typed [`FormatError`] and never
//! panic. Corruptions are deterministic functions of the input (no RNG):
//! the same matrix corrupted the same way yields the same rejection.

use crate::{Coo, Csc, Csr, DcsrTileView, FormatError, Index, SparseMatrix, TiledDcsr};
use proptest::Strategy;

/// Strategy: a canonical COO matrix with dims in `[1, 64]` and up to 200
/// entries (duplicates merged by canonicalization).
pub fn coo_strategy() -> impl Strategy<Value = Coo> {
    (1usize..=64, 1usize..=64).prop_flat_map(|(nrows, ncols)| {
        let entry = (0..nrows as u32, 0..ncols as u32, 1i32..100);
        proptest::collection::vec(entry, 0..200).prop_map(move |entries| {
            // nmt-lint: allow(panic) — dims and indices are drawn in bounds
            let mut coo = Coo::new(nrows, ncols).expect("dims within u32 space");
            for (r, c, v) in entries {
                // Strictly positive values: duplicate coordinates merge by
                // summing and must not cancel to an explicit zero.
                // nmt-lint: allow(panic) — indices drawn below the dims
                coo.push(r, c, v as f32).expect("entry in bounds");
            }
            coo.canonicalize();
            coo
        })
    })
}

/// Strategy: an arbitrary valid [`Csr`].
pub fn csr_strategy() -> impl Strategy<Value = Csr> {
    coo_strategy().prop_map(|coo| Csr::from_coo(&coo))
}

/// Strategy: an arbitrary valid [`Csc`].
pub fn csc_strategy() -> impl Strategy<Value = Csc> {
    coo_strategy().prop_map(|coo| Csc::from_coo(&coo))
}

/// Strategy: an arbitrary valid [`TiledDcsr`] with tile edges in `[1, 32]`.
pub fn tiled_dcsr_strategy() -> impl Strategy<Value = TiledDcsr> {
    (csr_strategy(), 1usize..=32, 1usize..=32).prop_map(|(csr, tile_w, tile_h)| {
        // nmt-lint: allow(panic) — nonzero tile edges over a valid CSR cannot fail
        TiledDcsr::from_csr(&csr, tile_w, tile_h).expect("valid tiling parameters")
    })
}

/// One way to break a structurally valid matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Swap two index entries so a sorted run becomes unsorted.
    ShuffledIndices,
    /// Drop the last pointer-array entry (wrong length).
    TruncatedPtr,
    /// Bump the final pointer past nnz (dangling span).
    DanglingPtr,
    /// Push one stored index past its dimension bound.
    OutOfBoundsIndex,
}

impl Corruption {
    /// Every corruption kind, for exhaustive sweeps.
    pub const ALL: [Corruption; 4] = [
        Corruption::ShuffledIndices,
        Corruption::TruncatedPtr,
        Corruption::DanglingPtr,
        Corruption::OutOfBoundsIndex,
    ];
}

/// Apply `kind` to a copy of `csr`'s raw arrays and re-run the validating
/// constructor. Returns `None` when the matrix is too small to express the
/// corruption (e.g. no row has two entries to shuffle), otherwise the
/// constructor's verdict — which a correct validator makes `Err` with a
/// typed [`FormatError`], never a panic.
pub fn corrupt_csr(csr: &Csr, kind: Corruption) -> Option<Result<Csr, FormatError>> {
    let shape = csr.shape();
    let (rowptr, colidx, values) = corrupt_csr_parts(csr, kind)?;
    Some(Csr::new(shape.nrows, shape.ncols, rowptr, colidx, values))
}

/// The raw-array form of [`corrupt_csr`]: apply `kind` to a copy of
/// `csr`'s arrays and return them *without* re-validating, as
/// `(rowptr, colidx, values)`. Negative tests that must observe the
/// corrupted content itself — e.g. proving a content fingerprint moves
/// under every mutation even though the validating constructor would
/// reject it — use this; [`corrupt_csr`] layers the constructor verdict
/// on top.
pub fn corrupt_csr_parts(csr: &Csr, kind: Corruption) -> Option<(Vec<u32>, Vec<u32>, Vec<f32>)> {
    let shape = csr.shape();
    let mut rowptr = csr.rowptr().to_vec();
    let mut colidx = csr.colidx().to_vec();
    let values = csr.values().to_vec();
    match kind {
        Corruption::ShuffledIndices => {
            let row = (0..shape.nrows).find(|&r| csr.row_nnz(r) >= 2)?;
            let lo = rowptr[row] as usize;
            colidx.swap(lo, lo + 1);
        }
        Corruption::TruncatedPtr => {
            rowptr.pop()?;
        }
        Corruption::DanglingPtr => {
            *rowptr.last_mut()? += 1;
        }
        Corruption::OutOfBoundsIndex => {
            if colidx.is_empty() {
                return None;
            }
            colidx[0] = shape.ncols as u32;
        }
    }
    Some((rowptr, colidx, values))
}

/// [`corrupt_csr`]'s column-major mirror for [`Csc`].
pub fn corrupt_csc(csc: &Csc, kind: Corruption) -> Option<Result<Csc, FormatError>> {
    let shape = csc.shape();
    let mut colptr = csc.colptr().to_vec();
    let mut rowidx = csc.rowidx().to_vec();
    let values = csc.values().to_vec();
    match kind {
        Corruption::ShuffledIndices => {
            let col = (0..shape.ncols).find(|&c| (colptr[c + 1] - colptr[c]) >= 2)?;
            let lo = colptr[col] as usize;
            rowidx.swap(lo, lo + 1);
        }
        Corruption::TruncatedPtr => {
            colptr.pop()?;
        }
        Corruption::DanglingPtr => {
            *colptr.last_mut()? += 1;
        }
        Corruption::OutOfBoundsIndex => {
            if rowidx.is_empty() {
                return None;
            }
            rowidx[0] = shape.nrows as u32;
        }
    }
    Some(Csc::new(shape.nrows, shape.ncols, colptr, rowidx, values))
}

/// Apply `kind` to one tile and return `validate()`'s verdict on a view
/// whose one corrupted slice is a copy (`None` when the tile cannot
/// express the corruption).
pub fn corrupt_tile(tile: DcsrTileView<'_>, kind: Corruption) -> Option<Result<(), FormatError>> {
    let verdict = match kind {
        Corruption::ShuffledIndices if tile.rowidx.len() >= 2 => {
            let mut rowidx = tile.rowidx.to_vec();
            rowidx.swap(0, 1);
            DcsrTileView {
                rowidx: &rowidx,
                ..tile
            }
            .validate()
        }
        Corruption::ShuffledIndices => {
            let seg =
                (0..tile.rowidx.len()).find(|&i| (tile.rowptr[i + 1] - tile.rowptr[i]) >= 2)?;
            let lo = tile.rowptr[seg] as usize;
            let mut colidx = tile.colidx.to_vec();
            colidx.swap(lo, lo + 1);
            DcsrTileView {
                colidx: &colidx,
                ..tile
            }
            .validate()
        }
        Corruption::TruncatedPtr => {
            let (_, rowptr) = tile.rowptr.split_last()?;
            DcsrTileView { rowptr, ..tile }.validate()
        }
        Corruption::DanglingPtr => {
            let mut rowptr = tile.rowptr.to_vec();
            *rowptr.last_mut()? += 1;
            DcsrTileView {
                rowptr: &rowptr,
                ..tile
            }
            .validate()
        }
        Corruption::OutOfBoundsIndex => {
            let mut rowidx = tile.rowidx.to_vec();
            *rowidx.first_mut()? = tile.height as Index;
            DcsrTileView {
                rowidx: &rowidx,
                ..tile
            }
            .validate()
        }
    };
    Some(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn generated_matrices_validate(csr in csr_strategy(), csc in csc_strategy()) {
            prop_assert!(csr.validate().is_ok());
            prop_assert!(csc.validate().is_ok());
        }

        #[test]
        fn generated_tilings_validate(tdcsr in tiled_dcsr_strategy()) {
            prop_assert!(tdcsr.validate().is_ok());
            for (_, _, tile) in tdcsr.iter_tiles() {
                prop_assert!(tile.validate().is_ok());
            }
        }

        #[test]
        fn corruptions_are_always_rejected(csr in csr_strategy()) {
            let csc = csr.to_csc();
            for kind in Corruption::ALL {
                if let Some(verdict) = corrupt_csr(&csr, kind) {
                    prop_assert!(verdict.is_err(), "CSR accepted {kind:?}");
                }
                if let Some(verdict) = corrupt_csc(&csc, kind) {
                    prop_assert!(verdict.is_err(), "CSC accepted {kind:?}");
                }
            }
        }
    }

    #[test]
    fn corruption_kinds_yield_expected_variants() {
        // A concrete anchor so variant drift is visible, not just "some Err".
        let csr = Csr::new(2, 4, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(
            corrupt_csr(&csr, Corruption::ShuffledIndices),
            Some(Err(FormatError::NotCanonical { .. }))
        ));
        assert!(matches!(
            corrupt_csr(&csr, Corruption::TruncatedPtr),
            Some(Err(FormatError::LengthMismatch { .. }))
        ));
        assert!(matches!(
            corrupt_csr(&csr, Corruption::DanglingPtr),
            Some(Err(FormatError::MalformedPointerArray { .. }))
        ));
        assert!(matches!(
            corrupt_csr(&csr, Corruption::OutOfBoundsIndex),
            Some(Err(FormatError::IndexOutOfBounds { .. }))
        ));
    }
}
