//! Structural and algebraic operations on CSR matrices.
//!
//! Utilities a downstream SpMM user needs around the core formats:
//! scaling, sparse addition, row/column permutation (the knob that moves
//! a matrix between the clustered and scattered regimes of the SSF
//! heuristic), filtering and diagonal access.

use crate::{Coo, Csr, FormatError, Index, SparseMatrix, Value};

/// Multiply every stored value by `factor` (structure unchanged).
pub fn scale(csr: &Csr, factor: Value) -> Csr {
    Csr::from_parts_unchecked(
        csr.shape().nrows,
        csr.shape().ncols,
        csr.rowptr().to_vec(),
        csr.colidx().to_vec(),
        csr.values().iter().map(|v| v * factor).collect(),
    )
}

/// Sparse matrix addition `A + B` (shapes must match). Coincident entries
/// sum; zeros arising from cancellation are kept as explicit entries,
/// matching Matrix Market semantics.
pub fn add(a: &Csr, b: &Csr) -> Result<Csr, FormatError> {
    if a.shape() != b.shape() {
        return Err(FormatError::ShapeMismatch {
            detail: format!("{} + {}", a.shape(), b.shape()),
        });
    }
    let shape = a.shape();
    let mut rowptr = vec![0 as Index; shape.nrows + 1];
    let mut colidx = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    for r in 0..shape.nrows {
        let (ac, av) = a.row(r);
        let (bc, bv) = b.row(r);
        let (mut i, mut j) = (0, 0);
        while i < ac.len() || j < bc.len() {
            let next = match (ac.get(i), bc.get(j)) {
                (Some(&ca), Some(&cb)) if ca == cb => {
                    let e = (ca, av[i] + bv[j]);
                    i += 1;
                    j += 1;
                    e
                }
                (Some(&ca), Some(&cb)) if ca < cb => {
                    let e = (ca, av[i]);
                    i += 1;
                    e
                }
                (Some(_), Some(&cb)) => {
                    let e = (cb, bv[j]);
                    j += 1;
                    e
                }
                (Some(&ca), None) => {
                    let e = (ca, av[i]);
                    i += 1;
                    e
                }
                (None, Some(&cb)) => {
                    let e = (cb, bv[j]);
                    j += 1;
                    e
                }
                // nmt-lint: allow(panic) — the while condition guarantees i or j is in range
                (None, None) => unreachable!("loop condition guarantees one side"),
            };
            colidx.push(next.0);
            values.push(next.1);
        }
        rowptr[r + 1] = colidx.len() as Index;
    }
    Csr::new(shape.nrows, shape.ncols, rowptr, colidx, values)
}

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

/// The main diagonal as a dense vector (`min(nrows, ncols)` entries,
/// zero where absent).
pub fn diagonal(csr: &Csr) -> Vec<Value> {
    let shape = csr.shape();
    let n = shape.nrows.min(shape.ncols);
    let mut d = vec![0.0; n];
    #[allow(clippy::needless_range_loop)] // r is also the diagonal column key
    for r in 0..n {
        let (cs, vs) = csr.row(r);
        if let Ok(k) = cs.binary_search(&(r as Index)) {
            d[r] = vs[k];
        }
    }
    d
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
    fn scale_preserves_structure() {
        let s = scale(&sample(), 2.0);
        assert_eq!(s.rowptr(), sample().rowptr());
        assert_eq!(s.values(), &[2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn add_merges_and_sums() {
        let a = sample();
        let b = Csr::new(4, 4, vec![0, 1, 1, 2, 2], vec![0, 2], vec![10.0, 7.0]).unwrap();
        let c = add(&a, &b).unwrap();
        let d = c.to_dense();
        assert_eq!(d.get(0, 0), 11.0); // merged
        assert_eq!(d.get(2, 2), 7.0); // from b only
        assert_eq!(d.get(3, 3), 5.0); // from a only
        assert_eq!(c.nnz(), 6);
        // Shape mismatch rejected.
        let wrong = Csr::new(3, 4, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        assert!(add(&a, &wrong).is_err());
    }

    #[test]
    fn add_is_commutative() {
        let a = sample();
        let b = Csr::new(
            4,
            4,
            vec![0, 1, 2, 2, 3],
            vec![3, 1, 0],
            vec![1.5, -3.0, 2.5],
        )
        .unwrap();
        assert_eq!(
            add(&a, &b).unwrap().to_dense(),
            add(&b, &a).unwrap().to_dense()
        );
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

    #[test]
    fn diagonal_reads_stored_diagonal() {
        assert_eq!(diagonal(&sample()), vec![1.0, 3.0, 0.0, 5.0]);
    }
}
