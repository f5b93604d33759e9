//! Content fingerprints for matrices: the plan-cache key.
//!
//! A serve-layer plan cache must key on *what the planner saw*, not on a
//! caller-supplied name: two tenants submitting the same matrix under
//! different names must share one cached plan, and a matrix that changed
//! by a single entry must never hit a stale one. The fingerprint
//! therefore combines
//!
//! * the **structural identity** — shape, nnz, and the strip/tile width
//!   the planner profiles under (the same plan is *not* reusable across
//!   tile widths: SSF inputs change),
//! * the **decision inputs** — every [`SsfProfile`] field plus the
//!   Figure-5 strip-occupancy histogram, i.e. exactly the quantities a
//!   [`DecisionAudit`](crate::DecisionAudit) records for the decision,
//! * a **raw-content digest** — FNV-1a over the CSR arrays (`rowptr`,
//!   `colidx`, value bits), which catches mutations the derived inputs
//!   can miss (a value edit leaves nnz and the histogram untouched).
//!
//! Everything hashed is either an integer or the IEEE bit pattern of a
//! deterministic float, so the fingerprint is bitwise-reproducible
//! across runs, thread counts, and platforms.

use nmt_formats::{Csr, Index, SparseMatrix, Value};
use nmt_model::SsfProfile;

use crate::fnv::Fnv;

/// A matrix's content fingerprint under one profiling tile width.
///
/// The displayed/serialized form ([`MatrixFingerprint::key`]) is the
/// cache key: it embeds the structural identity in clear (debuggable
/// from a ledger alone) and the content digest in hex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MatrixFingerprint {
    /// Rows of A.
    pub nrows: usize,
    /// Columns of A.
    pub ncols: usize,
    /// Non-zeros of A.
    pub nnz: usize,
    /// Strip/tile width the profile (and any cached conversion) used.
    pub tile_w: usize,
    /// FNV-1a digest over the raw arrays and the decision inputs.
    pub digest: u64,
}

impl MatrixFingerprint {
    /// Fingerprint a matrix as the planner would see it under `tile_w`
    /// strips: profiles it ([`SsfProfile::compute_with_strips`]), bins the
    /// strip occupancy histogram
    /// ([`StripStats::figure5_histogram`](nmt_formats::StripStats::figure5_histogram)), and
    /// digests both together with the raw CSR arrays.
    pub fn of(a: &Csr, tile_w: usize) -> Self {
        Self::profiled(a, tile_w).0
    }

    /// [`Self::of`], also handing back the profile it digested, so a
    /// caller that goes on to plan the matrix profiles it once.
    pub fn profiled(a: &Csr, tile_w: usize) -> (Self, SsfProfile) {
        let shape = a.shape();
        let (profile, strips) = SsfProfile::compute_with_strips(a, tile_w);
        let hist = strips.figure5_histogram();
        let mut h = content_digest(
            shape.nrows,
            shape.ncols,
            tile_w,
            a.rowptr(),
            a.colidx(),
            a.values(),
        );
        digest_profile(&mut h, &profile, &hist);
        let fp = MatrixFingerprint {
            nrows: shape.nrows,
            ncols: shape.ncols,
            nnz: a.nnz(),
            tile_w,
            digest: h.0,
        };
        (fp, profile)
    }

    /// Fingerprint raw CSR arrays *without validating them* — the
    /// negative-test path: corruption helpers produce arrays a validating
    /// constructor rejects, and sensitivity tests must still show the
    /// digest moves. No derived inputs are mixed in (they are undefined
    /// for invalid arrays); the raw-content digest alone must separate
    /// any mutation.
    pub fn of_parts(
        nrows: usize,
        ncols: usize,
        tile_w: usize,
        rowptr: &[Index],
        colidx: &[Index],
        values: &[Value],
    ) -> Self {
        let h = content_digest(nrows, ncols, tile_w, rowptr, colidx, values);
        MatrixFingerprint {
            nrows,
            ncols,
            nnz: colidx.len(),
            tile_w,
            digest: h.0,
        }
    }

    /// The cache-key string: structural identity in clear, digest in hex.
    pub fn key(&self) -> String {
        format!(
            "fp-{}x{}-nnz{}-w{}-{:016x}",
            self.nrows, self.ncols, self.nnz, self.tile_w, self.digest
        )
    }
}

/// Digest the structural identity and raw arrays.
fn content_digest(
    nrows: usize,
    ncols: usize,
    tile_w: usize,
    rowptr: &[Index],
    colidx: &[Index],
    values: &[Value],
) -> Fnv {
    let mut h = Fnv::new();
    h.write_u64(nrows as u64);
    h.write_u64(ncols as u64);
    h.write_u64(tile_w as u64);
    // Array lengths are hashed explicitly so concatenation boundaries
    // cannot alias (e.g. an entry migrating between rowptr and colidx).
    h.write_u64(rowptr.len() as u64);
    for &p in rowptr {
        h.write_u64(u64::from(p));
    }
    h.write_u64(colidx.len() as u64);
    for &c in colidx {
        h.write_u64(u64::from(c));
    }
    h.write_u64(values.len() as u64);
    for &v in values {
        h.write_u64(u64::from(v.to_bits()));
    }
    h
}

/// Mix the decision inputs (SSF profile + Figure-5 histogram) into `h`.
fn digest_profile(h: &mut Fnv, profile: &SsfProfile, hist: &[usize; 13]) {
    h.write_u64(profile.nnzrow_frac.to_bits());
    h.write_u64(profile.mean_strip_frac.to_bits());
    h.write_u64(profile.nnz.to_bits());
    h.write_u64(profile.h_norm.to_bits());
    h.write_u64(profile.ssf.to_bits());
    for &bin in hist {
        h.write_u64(bin as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmt_formats::Coo;

    fn sample() -> Csr {
        let coo = Coo::from_triplets(
            8,
            8,
            &[0, 0, 1, 3, 7],
            &[0, 3, 2, 6, 7],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn same_matrix_same_key() {
        let a = sample();
        let f1 = MatrixFingerprint::of(&a, 4);
        let f2 = MatrixFingerprint::of(&a.clone(), 4);
        assert_eq!(f1, f2);
        assert_eq!(f1.key(), f2.key());
    }

    #[test]
    fn tile_width_is_part_of_the_key() {
        let a = sample();
        assert_ne!(
            MatrixFingerprint::of(&a, 4).digest,
            MatrixFingerprint::of(&a, 8).digest,
            "a plan profiled under one strip width must not be served under another"
        );
    }

    #[test]
    fn value_edit_moves_the_digest() {
        let a = sample();
        let coo = Coo::from_triplets(
            8,
            8,
            &[0, 0, 1, 3, 7],
            &[0, 3, 2, 6, 7],
            &[1.0, 2.0, 3.0, 4.0, 6.0], // one value changed
        )
        .unwrap();
        let b = Csr::from_coo(&coo);
        // Shape, nnz, and the whole SSF profile are identical…
        assert_eq!(a.nnz(), b.nnz());
        // …so only the raw-content digest can tell them apart.
        assert_ne!(
            MatrixFingerprint::of(&a, 4).digest,
            MatrixFingerprint::of(&b, 4).digest
        );
    }

    #[test]
    fn parts_digest_is_order_sensitive() {
        let a = sample();
        let mut colidx = a.colidx().to_vec();
        colidx.swap(0, 1);
        let f_ok = MatrixFingerprint::of_parts(8, 8, 4, a.rowptr(), a.colidx(), a.values());
        let f_swapped = MatrixFingerprint::of_parts(8, 8, 4, a.rowptr(), &colidx, a.values());
        assert_ne!(f_ok.digest, f_swapped.digest);
    }

    #[test]
    fn key_embeds_structure() {
        let f = MatrixFingerprint::of(&sample(), 4);
        let key = f.key();
        assert!(key.starts_with("fp-8x8-nnz5-w4-"), "key = {key}");
        assert_eq!(key.len(), "fp-8x8-nnz5-w4-".len() + 16);
    }
}
