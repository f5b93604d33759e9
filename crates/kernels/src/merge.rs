//! Merge-based load-balanced C-stationary SpMM (Merrill & Garland,
//! SC '16 — the paper's reference \[21\]).
//!
//! §5.2 observes that matrices with "imbalances of non-zero distribution
//! across rows" cause "longer critical latency for a group of threads in
//! a warp" under row-per-warp, and points to the merge-based approach as
//! the orthogonal fix: partition the *work* (row boundaries ∪ non-zeros)
//! evenly across execution units instead of partitioning rows.
//!
//! This implementation balances non-zero elements exactly: every warp
//! receives a contiguous `ceil(nnz / warps)` slice of the element array,
//! located in the row structure by binary search on `rowptr` (the
//! merge-path diagonal search collapses to this when row items are given
//! zero weight). Rows split across warp boundaries commit their partial
//! sums with atomics — the merge-path "carry-out" fixup.

use crate::device::{CsrDevice, DenseDevice, WORD};
use crate::KernelRun;
use nmt_formats::{Csr, DenseMatrix, SparseMatrix};
use nmt_sim::{Gpu, InstrClass, SimError, TrafficClass};

/// Warps per thread block (matches the row-per-warp kernels).
const WARPS_PER_BLOCK: usize = 8;

/// Merge-based C-stationary CSR SpMM: element-balanced warp assignment
/// with atomic carry-out for rows that straddle warp boundaries.
pub fn csrmm_merge_based(gpu: &mut Gpu, a: &Csr, b: &DenseMatrix) -> Result<KernelRun, SimError> {
    crate::check_inner_dims(a.shape().ncols, b.nrows())?;
    let n = a.shape().nrows;
    let k = b.ncols();
    let nnz = a.nnz();
    let a_dev = CsrDevice::upload(gpu, a);
    let b_dev = DenseDevice::upload(gpu, b, TrafficClass::MatB);
    let c_dev = DenseDevice::alloc(gpu, n, k, TrafficClass::MatC);

    // Size the grid like the row-per-warp kernels would for this matrix,
    // then hand each warp an equal element share.
    let total_warps = n.div_ceil(WARPS_PER_BLOCK).max(1) * WARPS_PER_BLOCK;
    let chunk = nnz.div_ceil(total_warps).max(1);
    let num_blocks = total_warps.div_ceil(WARPS_PER_BLOCK);

    let mut c = DenseMatrix::zeros(n, k);
    let rowptr = a.rowptr();
    let stats = gpu.launch(0, num_blocks, |ctx| {
        let warp = ctx.warp_size();
        for w in 0..WARPS_PER_BLOCK {
            let warp_id = ctx.block_id * WARPS_PER_BLOCK + w;
            let elem_lo = warp_id * chunk;
            if elem_lo >= nnz {
                break;
            }
            let elem_hi = (elem_lo + chunk).min(nnz);
            // Merge-path diagonal search: locate the first row whose span
            // contains elem_lo (two binary searches on device = O(log n)
            // integer work).
            let mut row = rowptr.partition_point(|&p| (p as usize) <= elem_lo) - 1;
            ctx.warp_instr(InstrClass::Integer, 1, (n.ilog2().max(1)) as u64);
            // Stream this warp's element slice (coalesced).
            ctx.ld_global(
                &a_dev.colidx,
                elem_lo as u64 * WORD,
                (elem_hi - elem_lo) as u64 * WORD,
                false,
            );
            ctx.ld_global(
                &a_dev.values,
                elem_lo as u64 * WORD,
                (elem_hi - elem_lo) as u64 * WORD,
                false,
            );

            let mut e = elem_lo;
            while e < elem_hi {
                let row_end = rowptr[row + 1] as usize;
                let seg_end = row_end.min(elem_hi);
                let seg_started_here = e == rowptr[row] as usize || e == elem_lo;
                debug_assert!(seg_started_here);
                let mut acc = vec![0.0f32; k];
                for j in e..seg_end {
                    let col = a.colidx()[j] as usize;
                    let v = a.values()[j];
                    ctx.warp_instr(InstrClass::Integer, k.min(warp), 1);
                    let mut kc = 0;
                    while kc < k {
                        let cw = (k - kc).min(warp);
                        let (off, bytes) = b_dev.row_segment(col as u64, kc as u64, cw as u64);
                        ctx.ld_global(&b_dev.buf, off, bytes, true);
                        ctx.fma(cw, 1);
                        let brow = b.row(col);
                        for x in kc..kc + cw {
                            acc[x] += v * brow[x];
                        }
                        kc += cw;
                    }
                }
                // Row complete within this warp: plain store. Row split
                // across warps: atomic carry-out.
                let whole_row =
                    e == rowptr[row] as usize && seg_end == row_end && row_end <= elem_hi;
                let (off, bytes) = c_dev.row_segment(row as u64, 0, k as u64);
                if whole_row {
                    ctx.st_global(&c_dev.buf, off, bytes);
                } else {
                    ctx.atomic_add_global(&c_dev.buf, off, bytes);
                }
                let out = c.row_mut(row);
                for (o, v) in out.iter_mut().zip(&acc) {
                    *o += v;
                }
                e = seg_end;
                if e == row_end {
                    // Advance over the next row (and any empty rows).
                    row += 1;
                    while row < n && rowptr[row + 1] as usize == rowptr[row] as usize {
                        row += 1;
                    }
                    ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
                }
            }
        }
    })?;
    Ok(KernelRun { c, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cstationary::csrmm_row_per_warp;
    use crate::host;
    use nmt_matgen::{generators, random_dense, GenKind, MatrixDesc};
    use nmt_sim::GpuConfig;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::test_small()).unwrap()
    }

    #[test]
    fn matches_reference_on_uniform() {
        let a = generators::generate(&MatrixDesc::new(
            "u",
            128,
            GenKind::Uniform { density: 0.03 },
            1,
        ));
        let b = random_dense(128, 16, 2);
        let run = csrmm_merge_based(&mut gpu(), &a, &b).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
    }

    #[test]
    fn matches_reference_on_skewed() {
        let a = generators::generate(&MatrixDesc::new(
            "z",
            192,
            GenKind::ZipfRows {
                density: 0.02,
                exponent: 1.6,
            },
            3,
        ));
        let b = random_dense(192, 8, 4);
        let run = csrmm_merge_based(&mut gpu(), &a, &b).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
    }

    #[test]
    fn matches_reference_with_empty_rows_and_tiny_nnz() {
        // 3 non-zeros over 64 rows: most warps get nothing.
        let coo =
            nmt_formats::Coo::from_triplets(64, 64, &[0, 31, 63], &[5, 20, 63], &[1.0, 2.0, 3.0])
                .unwrap();
        let a = Csr::from_coo(&coo);
        let b = random_dense(64, 4, 5);
        let run = csrmm_merge_based(&mut gpu(), &a, &b).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-5));
    }

    #[test]
    fn balances_skewed_rows_better_than_row_per_warp() {
        // One monster row plus many light rows: row-per-warp serializes
        // the monster row on one warp (long critical path); merge-based
        // splits it.
        let n = 256;
        let mut rows = vec![];
        let mut cols = vec![];
        for c in 0..200u32 {
            rows.push(0u32);
            cols.push(c);
        }
        for r in 1..64u32 {
            rows.push(r);
            cols.push(r);
        }
        let vals = vec![1.0f32; rows.len()];
        let a = Csr::from_coo(&nmt_formats::Coo::from_triplets(n, n, &rows, &cols, &vals).unwrap());
        let b = random_dense(n, 16, 7);
        let rpw = csrmm_row_per_warp(&mut gpu(), &a, &b).unwrap();
        let merge = csrmm_merge_based(&mut gpu(), &a, &b).unwrap();
        assert!(merge.c.approx_eq(&rpw.c, 1e-4));
        assert!(
            merge.stats.t_compute_ns < rpw.stats.t_compute_ns,
            "merge {} should beat row-per-warp {} on the skewed critical path",
            merge.stats.t_compute_ns,
            rpw.stats.t_compute_ns
        );
        // The price: carry-out atomics.
        assert!(merge.stats.atomics > 0);
        assert_eq!(rpw.stats.atomics, 0);
    }

    #[test]
    fn empty_matrix_is_a_noop() {
        let a = Csr::new(32, 32, vec![0; 33], vec![], vec![]).unwrap();
        let b = random_dense(32, 4, 9);
        let run = csrmm_merge_based(&mut gpu(), &a, &b).unwrap();
        assert!(run.c.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(run.stats.flops, 0);
    }
}
