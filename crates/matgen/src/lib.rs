//! Deterministic synthetic sparse-matrix generators.
//!
//! The paper evaluates on ~3,500 SuiteSparse matrices with "divergent
//! non-zero distribution and density" (§5.1), filtered to 4 k ≤ rows ≤ 44 k.
//! That collection is not available offline, so this crate generates a
//! synthetic suite that systematically sweeps the properties the paper's
//! analyses actually depend on:
//!
//! * **density** — real sparse matrices have density below 10 %, typically
//!   around 0.1 % (§2);
//! * **row-wise skew** — Zipf/power-law per-row nnz, which drives
//!   `n_nnzrow` and the entropy term of the SSF heuristic (§3.1.4);
//! * **clustering** — banded and block-diagonal structure, which produces
//!   the "heavy row segments and empty row segments" the paper associates
//!   with high locality;
//! * **graph structure** — RMAT adjacency matrices, standing in for the
//!   graph-analytics members of SuiteSparse.
//!
//! Every generator is seeded and reproducible.

#![warn(missing_docs)]

pub mod generators;
pub mod perturb;
pub mod suite;

pub use generators::{generate, try_generate, GenKind, MatgenError, MatrixDesc};
pub use suite::{SuiteScale, SuiteSpec};

use nmt_formats::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate a random dense matrix with entries uniform in `[-1, 1)` —
/// the multi-vector operand `B` of SpMM.
pub fn random_dense(nrows: usize, ncols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DenseMatrix::zeros(nrows, ncols);
    for v in b.as_mut_slice() {
        *v = rng.random_range(-1.0f32..1.0);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_dense_is_deterministic() {
        let a = random_dense(8, 8, 42);
        let b = random_dense(8, 8, 42);
        assert_eq!(a, b);
        let c = random_dense(8, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn random_dense_in_range() {
        let m = random_dense(16, 16, 1);
        assert!(m.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }
}
