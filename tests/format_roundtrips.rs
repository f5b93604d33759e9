//! Property-based round-trip tests across every sparse format.
//!
//! The whole system depends on the formats being faithful encodings: the
//! engine's output is validated against offline tiling, which is validated
//! against CSR, which is validated against COO/dense. These properties pin
//! the bottom of that chain.

use proptest::prelude::*;
use spmm_nmt::formats::arbitrary::{self, Corruption};
use spmm_nmt::formats::{
    market, Coo, Csc, Csr, Dcsr, FormatError, SparseMatrix, StorageSize, TiledCsr, TiledDcsr,
};

/// Strategy: a random COO matrix with dims in [1, 64] and up to 200
/// (possibly duplicate) entries.
fn coo_strategy() -> impl Strategy<Value = Coo> {
    (1usize..=64, 1usize..=64).prop_flat_map(|(nrows, ncols)| {
        let entry = (0..nrows as u32, 0..ncols as u32, -100i32..100);
        proptest::collection::vec(entry, 0..200).prop_map(move |entries| {
            let mut coo = Coo::new(nrows, ncols).expect("small dims");
            for (r, c, v) in entries {
                // Avoid exact duplicate-cancellation flakiness: strictly
                // positive values.
                coo.push(r, c, v.abs() as f32 + 1.0).expect("in bounds");
            }
            coo.canonicalize();
            coo
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coo_csr_roundtrip(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        prop_assert_eq!(csr.nnz(), coo.nnz());
        prop_assert_eq!(csr.to_coo().to_dense(), coo.to_dense());
    }

    #[test]
    fn csr_csc_roundtrip(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        let csc = csr.to_csc();
        prop_assert_eq!(csc.to_csr(), csr.clone());
        prop_assert_eq!(Csc::from_coo(&coo), csc);
    }

    #[test]
    fn dcsr_roundtrip_and_no_empty_rows(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        let dcsr = Dcsr::from_csr(&csr);
        prop_assert_eq!(dcsr.to_csr(), csr.clone());
        // Densified rows are exactly the non-empty rows, in order.
        let nonempty: Vec<u32> = (0..csr.shape().nrows)
            .filter(|&r| csr.row_nnz(r) > 0)
            .map(|r| r as u32)
            .collect();
        prop_assert_eq!(dcsr.rowidx().to_vec(), nonempty);
    }

    #[test]
    fn tiled_roundtrips(coo in coo_strategy(), tile_w in 1usize..=32, tile_h in 1usize..=32) {
        let csr = Csr::from_coo(&coo);
        let tcsr = TiledCsr::from_csr(&csr, tile_w).expect("valid tiling");
        prop_assert_eq!(tcsr.to_csr(), csr.clone());
        let tdcsr = TiledDcsr::from_csr(&csr, tile_w, tile_h).expect("valid tiling");
        prop_assert_eq!(tdcsr.to_csr(), csr.clone());
        for (_, _, tile) in tdcsr.iter_tiles() {
            prop_assert!(tile.validate().is_ok());
        }
    }

    #[test]
    fn nnz_is_conserved_by_every_format(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        let nnz = csr.nnz();
        prop_assert_eq!(csr.to_csc().nnz(), nnz);
        prop_assert_eq!(Dcsr::from_csr(&csr).nnz(), nnz);
        prop_assert_eq!(TiledCsr::from_csr(&csr, 8).expect("tiling").nnz(), nnz);
        prop_assert_eq!(TiledDcsr::from_csr(&csr, 8, 8).expect("tiling").nnz(), nnz);
    }

    #[test]
    fn storage_accounting_is_consistent(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        // metadata + data == total for every format.
        let tdcsr = TiledDcsr::from_csr(&csr, 8, 8).expect("tiling");
        prop_assert_eq!(
            tdcsr.storage_bytes(),
            tdcsr.metadata_bytes() + tdcsr.data_bytes()
        );
        // Values always cost 4 bytes each.
        prop_assert_eq!(csr.data_bytes(), csr.nnz() * 4);
        prop_assert_eq!(tdcsr.data_bytes(), csr.nnz() * 4);
        // DCSR never stores more rowptr entries than CSR.
        let dcsr = Dcsr::from_csr(&csr);
        prop_assert!(dcsr.rowptr().len() <= csr.rowptr().len());
    }

    #[test]
    fn market_io_roundtrip(coo in coo_strategy()) {
        let mut buf = Vec::new();
        market::write_market(&mut buf, &coo).expect("write to memory");
        let (back, _) = market::read_market(buf.as_slice()).expect("parse what we wrote");
        prop_assert_eq!(back.to_dense(), coo.to_dense());
    }

    #[test]
    fn transpose_is_involutive(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn arbitrary_matrices_validate_and_roundtrip(csr in arbitrary::csr_strategy()) {
        prop_assert!(csr.validate().is_ok());
        prop_assert_eq!(csr.to_csc().to_csr(), csr.clone());
        prop_assert_eq!(Csr::from_coo(&csr.to_coo()), csr);
    }

    #[test]
    fn arbitrary_csc_validates_and_roundtrips(csc in arbitrary::csc_strategy()) {
        prop_assert!(csc.validate().is_ok());
        prop_assert_eq!(csc.to_csr().to_csc(), csc);
    }

    #[test]
    fn arbitrary_tilings_validate_and_roundtrip(tdcsr in arbitrary::tiled_dcsr_strategy()) {
        prop_assert!(tdcsr.validate().is_ok());
        // Untile then re-tile at the same edges: identity. The first
        // tile's height is the nominal one, clamped only when the matrix
        // is shorter than a tile, where it re-tiles identically.
        let back = TiledDcsr::from_csr(
            &tdcsr.to_csr(),
            tdcsr.tile_width(),
            tdcsr.strips()[0].headers()[0].height,
        ).expect("retiling a valid matrix succeeds");
        prop_assert_eq!(back, tdcsr);
    }

    #[test]
    fn corrupted_variants_reject_without_panicking(
        csr in arbitrary::csr_strategy(),
        tdcsr in arbitrary::tiled_dcsr_strategy(),
    ) {
        let csc = csr.to_csc();
        for kind in Corruption::ALL {
            if let Some(verdict) = arbitrary::corrupt_csr(&csr, kind) {
                prop_assert!(
                    matches!(verdict, Err(FormatError::NotCanonical { .. })
                        | Err(FormatError::LengthMismatch { .. })
                        | Err(FormatError::MalformedPointerArray { .. })
                        | Err(FormatError::IndexOutOfBounds { .. })),
                    "CSR validator accepted or mis-typed {kind:?}"
                );
            }
            if let Some(verdict) = arbitrary::corrupt_csc(&csc, kind) {
                prop_assert!(verdict.is_err(), "CSC validator accepted {kind:?}");
            }
            for (_, _, tile) in tdcsr.iter_tiles() {
                if let Some(verdict) = arbitrary::corrupt_tile(tile, kind) {
                    prop_assert!(verdict.is_err(), "tile validator accepted {kind:?}");
                }
            }
        }
    }
}

#[test]
fn empty_and_single_cell_edge_cases() {
    for (nrows, ncols) in [(1usize, 1usize), (1, 64), (64, 1)] {
        let coo = Coo::new(nrows, ncols).expect("valid dims");
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.to_csc().to_csr(), csr);
        let tiled = TiledDcsr::from_csr(&csr, 8, 8).expect("tiling");
        assert_eq!(tiled.to_csr(), csr);
    }
}
