//! Reusable conversion artifacts: the unit a plan cache stores.
//!
//! The planner's expensive, reusable work is (a) the dataflow decision
//! and (b) the format conversion behind it — `Dcsr::from_csr` for the
//! C-stationary path, the CSC → tiled-DCSR transform for the
//! B-stationary path. A [`ConversionArtifact`] owns the converted
//! operand so a serve layer can execute repeat requests against it
//! directly (via the *offline* kernels, which take a pre-converted
//! operand) and skip the conversion entirely.
//!
//! Artifacts know their byte footprint (the cache's eviction currency,
//! from the same [`StorageSize`] accounting Figures 8/9 use). An evicted
//! artifact is dropped, not shelved in the engine pools: nothing on the
//! serve path takes artifact-sized buffers from those pools, so shelving
//! would only keep every evicted artifact's memory alive.

use nmt_formats::{Csr, Dcsr, FormatError, StorageSize, TiledDcsr};

/// A pre-converted SpMM operand, ready for the offline kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum ConversionArtifact {
    /// Untiled DCSR for the C-stationary row-per-warp kernel.
    RowMajor(Dcsr),
    /// Tiled DCSR for the B-stationary offline-tiled kernel.
    Tiled(TiledDcsr),
}

impl ConversionArtifact {
    /// Convert for the C-stationary path.
    pub fn row_major(a: &Csr) -> Self {
        ConversionArtifact::RowMajor(Dcsr::from_csr(a))
    }

    /// Convert for the B-stationary path: `tile_h × tile_w` DCSR tiles.
    pub fn tiled(a: &Csr, tile_w: usize, tile_h: usize) -> Result<Self, FormatError> {
        Ok(ConversionArtifact::Tiled(TiledDcsr::from_csr(
            a, tile_w, tile_h,
        )?))
    }

    /// Storage footprint in bytes — what a byte-budgeted cache charges.
    pub fn storage_bytes(&self) -> usize {
        match self {
            ConversionArtifact::RowMajor(d) => d.storage_bytes(),
            ConversionArtifact::Tiled(t) => t.storage_bytes(),
        }
    }

    /// Short label for ledgers and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            ConversionArtifact::RowMajor(_) => "dcsr",
            ConversionArtifact::Tiled(_) => "tiled-dcsr",
        }
    }

    /// Release an evicted artifact: its buffers are freed, not returned
    /// to the engine pools (see the module docs).
    pub fn recycle(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmt_formats::Coo;

    fn sample() -> Csr {
        let coo = Coo::from_triplets(
            16,
            16,
            &[0, 0, 3, 7, 9, 15],
            &[0, 9, 2, 6, 11, 15],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn footprint_matches_the_format_accounting() {
        let a = sample();
        let row = ConversionArtifact::row_major(&a);
        assert_eq!(row.storage_bytes(), Dcsr::from_csr(&a).storage_bytes());
        assert_eq!(row.kind(), "dcsr");
        let tiled = ConversionArtifact::tiled(&a, 4, 4).unwrap();
        assert_eq!(
            tiled.storage_bytes(),
            TiledDcsr::from_csr(&a, 4, 4).unwrap().storage_bytes()
        );
        assert_eq!(tiled.kind(), "tiled-dcsr");
    }

    #[test]
    fn zero_tile_dims_are_rejected() {
        assert!(ConversionArtifact::tiled(&sample(), 0, 4).is_err());
    }
}
