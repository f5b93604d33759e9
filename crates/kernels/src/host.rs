//! Host (CPU) reference SpMM implementations — the correctness oracles.
//!
//! Every simulated GPU kernel is verified against these. The CSR reference
//! is rayon-parallel over output rows (C-stationary on the CPU: each worker
//! owns disjoint rows of C, so no synchronization is needed — the same
//! property that makes GPU C-stationary atomic-free).

use nmt_formats::{Csr, DenseMatrix, SparseMatrix};
use rayon::prelude::*;

/// Dense reference: `C = A_dense × B` (O(n²·k); tests only).
pub fn spmm_dense(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let mut c = DenseMatrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            let v = a.get(i, j);
            if v != 0.0 {
                for k in 0..b.ncols() {
                    c.add(i, k, v * b.get(j, k));
                }
            }
        }
    }
    c
}

/// CSR SpMM (Algorithm 1), parallel over rows.
pub fn spmm_csr(a: &Csr, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.shape().ncols, b.nrows(), "inner dimensions must agree");
    let k = b.ncols();
    let mut c = DenseMatrix::zeros(a.shape().nrows, k);
    let rows: Vec<(usize, &mut [f32])> = c.par_row_chunks_mut(1);
    rows.into_par_iter().for_each(|(r, out)| {
        let (cols, vals) = a.row(r);
        for (&col, &v) in cols.iter().zip(vals) {
            let brow = b.row(col as usize);
            for (o, &bv) in out.iter_mut().zip(brow) {
                *o += v * bv;
            }
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmt_formats::Coo;
    use nmt_matgen::random_dense;

    fn sample_csr() -> Csr {
        let coo = Coo::from_triplets(
            4,
            4,
            &[0, 0, 1, 3, 3],
            &[0, 2, 1, 0, 3],
            &[2.0, -1.0, 3.0, 0.5, 1.5],
        )
        .unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn csr_matches_dense_reference() {
        let a = sample_csr();
        let b = random_dense(4, 3, 1);
        let got = spmm_csr(&a, &b);
        let want = spmm_dense(&a.to_dense(), &b);
        assert!(got.approx_eq(&want, 1e-5));
    }

    #[test]
    fn empty_matrix_gives_zero_output() {
        let a = Csr::new(4, 4, vec![0; 5], vec![], vec![]).unwrap();
        let b = random_dense(4, 4, 3);
        let c = spmm_csr(&a, &b);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matrix_copies_b() {
        let coo = Coo::from_triplets(3, 3, &[0, 1, 2], &[0, 1, 2], &[1.0; 3]).unwrap();
        let a = Csr::from_coo(&coo);
        let b = random_dense(3, 5, 7);
        assert!(spmm_csr(&a, &b).approx_eq(&b, 1e-6));
    }

    #[test]
    fn single_vector_case() {
        // K = 1: SpMM degenerates to SpMV.
        let a = sample_csr();
        let b = random_dense(4, 1, 9);
        let got = spmm_csr(&a, &b);
        let want = spmm_dense(&a.to_dense(), &b);
        assert!(got.approx_eq(&want, 1e-5));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = sample_csr();
        let b = random_dense(5, 3, 1);
        let _ = spmm_csr(&a, &b);
    }
}
