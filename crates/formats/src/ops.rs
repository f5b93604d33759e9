//! Structural operations on CSR matrices.
//!
//! Row/column permutation (the knob that moves a matrix between the
//! clustered and scattered regimes of the SSF heuristic) and entry
//! filtering (magnitude pruning), as the matrix perturbations use them.

use crate::{Coo, Csr, FormatError, Index, SparseMatrix, Value};

/// Permute rows: output row `i` is input row `perm[i]`. `perm` must be a
/// permutation of `0..nrows`.
pub fn permute_rows(csr: &Csr, perm: &[usize]) -> Result<Csr, FormatError> {
    let shape = csr.shape();
    validate_permutation(perm, shape.nrows)?;
    let mut rowptr = vec![0 as Index; shape.nrows + 1];
    let mut colidx = Vec::with_capacity(csr.nnz());
    let mut values = Vec::with_capacity(csr.nnz());
    for (out_r, &src) in perm.iter().enumerate() {
        let (cs, vs) = csr.row(src);
        colidx.extend_from_slice(cs);
        values.extend_from_slice(vs);
        rowptr[out_r + 1] = colidx.len() as Index;
    }
    Csr::new(shape.nrows, shape.ncols, rowptr, colidx, values)
}

/// Permute columns: output column `perm_inv[c]` receives input column `c`;
/// `perm` is interpreted like [`permute_rows`] (output col `i` = input col
/// `perm[i]`).
pub fn permute_cols(csr: &Csr, perm: &[usize]) -> Result<Csr, FormatError> {
    let shape = csr.shape();
    validate_permutation(perm, shape.ncols)?;
    // Invert: input column c lands at output position inv[c].
    let mut inv = vec![0 as Index; shape.ncols];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i as Index;
    }
    let mut coo = Coo::new(shape.nrows, shape.ncols)?;
    for (r, c, v) in csr.iter() {
        coo.push(r, inv[c as usize], v)?;
    }
    coo.canonicalize();
    Ok(Csr::from_coo(&coo))
}

/// Drop entries for which `keep` returns false (e.g. magnitude pruning).
pub fn filter(csr: &Csr, mut keep: impl FnMut(Index, Index, Value) -> bool) -> Csr {
    let shape = csr.shape();
    let mut rowptr = vec![0 as Index; shape.nrows + 1];
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    for r in 0..shape.nrows {
        let (cs, vs) = csr.row(r);
        for (&c, &v) in cs.iter().zip(vs) {
            if keep(r as Index, c, v) {
                colidx.push(c);
                values.push(v);
            }
        }
        rowptr[r + 1] = colidx.len() as Index;
    }
    Csr::from_parts_unchecked(shape.nrows, shape.ncols, rowptr, colidx, values)
}

fn validate_permutation(perm: &[usize], n: usize) -> Result<(), FormatError> {
    if perm.len() != n {
        return Err(FormatError::LengthMismatch {
            expected: n,
            found: perm.len(),
            name: "perm",
        });
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return Err(FormatError::NotCanonical {
                detail: format!("perm is not a permutation of 0..{n}"),
            });
        }
        seen[p] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 4x4:
        //  1 . 2 .
        //  . 3 . .
        //  . . . .
        //  4 . . 5
        Csr::new(
            4,
            4,
            vec![0, 2, 3, 3, 5],
            vec![0, 2, 1, 0, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn permute_rows_roundtrip() {
        let a = sample();
        let perm = vec![3, 1, 0, 2];
        let p = permute_rows(&a, &perm).unwrap();
        assert_eq!(p.row(0).1, a.row(3).1);
        assert_eq!(p.row(2).1, a.row(0).1);
        // Applying the inverse restores the original.
        let mut inv = vec![0usize; 4];
        for (i, &x) in perm.iter().enumerate() {
            inv[x] = i;
        }
        assert_eq!(permute_rows(&p, &inv).unwrap(), a);
    }

    #[test]
    fn permute_cols_moves_entries() {
        let a = sample();
        // Output col i = input col perm[i]: swap columns 0 and 3.
        let p = permute_cols(&a, &[3, 1, 2, 0]).unwrap();
        let d = p.to_dense();
        assert_eq!(d.get(3, 3), 4.0); // was (3,0)
        assert_eq!(d.get(3, 0), 5.0); // was (3,3)
        assert_eq!(d.get(0, 2), 2.0); // unmoved
        assert_eq!(p.nnz(), a.nnz());
    }

    #[test]
    fn bad_permutations_rejected() {
        let a = sample();
        assert!(permute_rows(&a, &[0, 1, 2]).is_err()); // short
        assert!(permute_rows(&a, &[0, 1, 2, 2]).is_err()); // duplicate
        assert!(permute_rows(&a, &[0, 1, 2, 9]).is_err()); // out of range
        assert!(permute_cols(&a, &[0, 0, 2, 3]).is_err());
    }

    #[test]
    fn filter_prunes_by_magnitude() {
        let f = filter(&sample(), |_, _, v| v.abs() >= 3.0);
        assert_eq!(f.nnz(), 3);
        assert_eq!(f.values(), &[3.0, 4.0, 5.0]);
        let none = filter(&sample(), |_, _, _| false);
        assert_eq!(none.nnz(), 0);
    }
}
