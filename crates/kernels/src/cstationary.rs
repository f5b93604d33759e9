//! C-stationary kernels (§3.1.1): each warp owns rows of the output, so no
//! atomics are needed; B enjoys only whatever reuse the L2 provides.
//!
//! * [`csrmm_row_per_warp`] — the cuSPARSE-baseline stand-in: untiled CSR,
//!   one row per warp, lanes spread across the K columns of B.
//! * [`dcsrmm_row_per_warp`] — untiled DCSR: warps are devoted to non-empty
//!   rows only (the orange-dot configuration of Figure 16).
//!
//! The two row-per-warp kernels differ only in how a warp finds its row;
//! they share one launch and row body. The cuSPARSE stand-in
//! [`csrmm_cusparse`] keeps its own, because its column-major gathers are
//! the point of the baseline.

use crate::device::{CsrDevice, DcsrDevice, DenseDevice, WORD};
use crate::KernelRun;
use nmt_formats::{Csr, Dcsr, DenseMatrix, Index, SparseMatrix, Value};
use nmt_sim::{BlockCtx, Buffer, Gpu, InstrClass, SimError, TrafficClass};

/// Rows (= warps) per thread block for the row-per-warp kernels.
const WARPS_PER_BLOCK: usize = 8;

/// The cuSPARSE v9 `csrmm` stand-in — the paper's baseline (speedup = 1).
///
/// cuSPARSE's csrmm requires **column-major** B and C. A warp owning one A
/// row and spreading its lanes over K therefore loads `B[col][k..k+32]` at
/// a stride of `n` elements: one cache line *per lane* instead of per
/// warp. This uncoalesced B access is the documented inefficiency that
/// hand-written row-major SpMM kernels (the paper's, Hong et al.'s, Yang
/// et al.'s) beat, and it is why the paper's Figure 16 baseline loses to
/// even the untiled custom kernels on most matrices.
pub fn csrmm_cusparse(gpu: &mut Gpu, a: &Csr, b: &DenseMatrix) -> Result<KernelRun, SimError> {
    crate::check_inner_dims(a.shape().ncols, b.nrows())?;
    let n = a.shape().nrows;
    let k = b.ncols();
    let a_dev = CsrDevice::upload(gpu, a);
    // Column-major images of B and C: element (row, col) lives at
    // (col * nrows + row) * 4.
    let b_dev = DenseDevice::upload(gpu, b, TrafficClass::MatB);
    let c_dev = DenseDevice::alloc(gpu, n, k, TrafficClass::MatC);
    // One column of the column-major B apart.
    let k_stride = b.nrows() as u64 * WORD;

    let mut c = DenseMatrix::zeros(n, k);
    let num_blocks = n.div_ceil(WARPS_PER_BLOCK).max(1);
    // The lanes' gather offsets, reused by every chunk of every row.
    let mut offsets: Vec<u64> = Vec::with_capacity(gpu.config().warp_size);
    let stats = gpu.launch(0, num_blocks, |ctx| {
        let warp = ctx.warp_size();
        let row_lo = ctx.block_id * WARPS_PER_BLOCK;
        let row_hi = (row_lo + WARPS_PER_BLOCK).min(n);
        for r in row_lo..row_hi {
            ctx.ld_global(&a_dev.rowptr, r as u64 * WORD, 2 * WORD, false);
            ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
            let (cols, vals) = a.row(r);
            if cols.is_empty() {
                ctx.warp_instr(InstrClass::Integer, 1, 1);
                continue;
            }
            let lo = (a.rowptr()[r] as u64) * WORD;
            let len = cols.len() as u64 * WORD;
            ctx.ld_global(&a_dev.colidx, lo, len, false);
            ctx.ld_global(&a_dev.values, lo, len, false);
            let out = c.row_mut(r);
            // Vector kernel: warp lanes own the row's non-zeros, and one
            // strided gather per chunk walks the K columns of the
            // column-major B. Lane `i` gathers B[cols[i]][kc] at address
            // (kc·n + cols[i])·4 — coalesced only when the column indices
            // are clustered.
            for chunk in cols.chunks(warp) {
                ctx.warp_instr(InstrClass::Integer, chunk.len(), 1);
                offsets.clear();
                offsets.extend(chunk.iter().map(|&col| col as u64 * WORD));
                ctx.ld_global_gather(&b_dev.buf, &offsets, k_stride, k, WORD, true);
                ctx.fma(chunk.len(), k as u64);
            }
            for (&col, &v) in cols.iter().zip(vals) {
                let brow = b.row(col as usize);
                for (o, &bv) in out.iter_mut().zip(brow) {
                    *o += v * bv;
                }
            }
            // Column-major C store: one lane per k, stride-n addresses.
            ctx.st_global_strided(&c_dev.buf, r as u64 * WORD, n as u64 * WORD, k, WORD);
        }
    })?;
    Ok(KernelRun { c, stats })
}

/// The best untiled CSR kernel: C-stationary, row-per-warp, row-major B.
///
/// Per row: read `rowptr[r..=r+1]`, stream the row's `colidx`/`values`,
/// and for each non-zero fetch the corresponding row of B (a *dependent*
/// access — its address comes from `colidx`, the §2 indirection), FMA into
/// per-lane accumulators, then write the C row once.
pub fn csrmm_row_per_warp(gpu: &mut Gpu, a: &Csr, b: &DenseMatrix) -> Result<KernelRun, SimError> {
    crate::check_inner_dims(a.shape().ncols, b.nrows())?;
    let n = a.shape().nrows;
    let a_dev = CsrDevice::upload(gpu, a);
    row_per_warp(gpu, [a_dev.colidx, a_dev.values], n, n, b, |ctx, r| {
        // Row bounds from rowptr (two adjacent words).
        ctx.ld_global(&a_dev.rowptr, r as u64 * WORD, 2 * WORD, false);
        ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
        let (cols, vals) = a.row(r);
        if cols.is_empty() {
            // One lane discovers the row is empty; 31 lanes idle — the
            // CSR inefficiency of Figure 6 ②.
            ctx.warp_instr(InstrClass::Integer, 1, 1);
            return None;
        }
        Some((r, a.rowptr()[r] as usize, cols, vals))
    })
}

/// Untiled DCSR, C-stationary, row-per-warp: identical to the baseline but
/// warps enumerate only the non-empty rows through the `rowidx`
/// indirection — no cycles are spent discovering empty rows.
pub fn dcsrmm_row_per_warp(
    gpu: &mut Gpu,
    a: &Dcsr,
    b: &DenseMatrix,
) -> Result<KernelRun, SimError> {
    crate::check_inner_dims(a.shape().ncols, b.nrows())?;
    let (rows, n) = (a.num_dense_rows(), a.shape().nrows);
    let a_dev = DcsrDevice::upload(gpu, a);
    let elems = [a_dev.colidx, a_dev.values];
    row_per_warp(gpu, elems, rows, n, b, |ctx, i| {
        // rowidx + rowptr pair for this densified row.
        ctx.ld_global(&a_dev.rowidx, i as u64 * WORD, WORD, false);
        ctx.ld_global(&a_dev.rowptr, i as u64 * WORD, 2 * WORD, false);
        ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
        let (r, cols, vals) = a.dense_row(i);
        Some((r as usize, a.rowptr()[i] as usize, cols, vals))
    })
}

/// The launch both row-per-warp kernels share, [`WARPS_PER_BLOCK`] of A's
/// `rows` stored rows per block. `row(ctx, i)` charges stored row `i`'s
/// index loads and returns its output row, the offset of its first
/// element in `colidx`/`values` (`a_elems`) and its elements, or `None`
/// for an empty row. The row body then streams the row's `colidx`/`values`
/// (coalesced), fetches for each non-zero the B row in warp-wide column
/// chunks — a *dependent* load, its address comes from `colidx` (the §2
/// indirection) — FMAs into per-lane accumulators, and writes the finished
/// C row once.
fn row_per_warp<'a>(
    gpu: &mut Gpu,
    a_elems: [Buffer; 2],
    rows: usize,
    n: usize,
    b: &DenseMatrix,
    mut row: impl FnMut(&mut BlockCtx<'_>, usize) -> Option<(usize, usize, &'a [Index], &'a [Value])>,
) -> Result<KernelRun, SimError> {
    let k = b.ncols();
    let b_dev = DenseDevice::upload(gpu, b, TrafficClass::MatB);
    let c_dev = DenseDevice::alloc(gpu, n, k, TrafficClass::MatC);
    let mut c = DenseMatrix::zeros(n, k);
    let num_blocks = rows.div_ceil(WARPS_PER_BLOCK).max(1);
    let stats = gpu.launch(0, num_blocks, |ctx| {
        let warp = ctx.warp_size();
        let i_lo = ctx.block_id * WARPS_PER_BLOCK;
        for i in i_lo..(i_lo + WARPS_PER_BLOCK).min(rows) {
            let Some((r, first, cols, vals)) = row(ctx, i) else {
                continue;
            };
            let (lo, len) = (first as u64 * WORD, cols.len() as u64 * WORD);
            for buf in &a_elems {
                ctx.ld_global(buf, lo, len, false);
            }
            let out = c.row_mut(r);
            for (&col, &v) in cols.iter().zip(vals) {
                ctx.warp_instr(InstrClass::Integer, k.min(warp), 1);
                let brow = b.row(col as usize);
                let mut kc = 0;
                while kc < k {
                    let chunk = (k - kc).min(warp);
                    let (off, bytes) = b_dev.row_segment(col as u64, kc as u64, chunk as u64);
                    ctx.ld_global(&b_dev.buf, off, bytes, true);
                    ctx.fma(chunk, 1);
                    for (o, &bv) in out[kc..kc + chunk].iter_mut().zip(&brow[kc..kc + chunk]) {
                        *o += v * bv;
                    }
                    kc += chunk;
                }
            }
            let (off, bytes) = c_dev.row_segment(r as u64, 0, k as u64);
            ctx.st_global(&c_dev.buf, off, bytes);
        }
    })?;
    Ok(KernelRun { c, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host;
    use nmt_matgen::{generators, random_dense, GenKind, MatrixDesc};
    use nmt_sim::GpuConfig;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::test_small()).unwrap()
    }

    fn matrix(n: usize, density: f64, seed: u64) -> Csr {
        generators::generate(&MatrixDesc::new("t", n, GenKind::Uniform { density }, seed))
    }

    #[test]
    fn row_per_warp_matches_host_reference() {
        let a = matrix(128, 0.03, 1);
        let b = random_dense(128, 32, 2);
        let run = csrmm_row_per_warp(&mut gpu(), &a, &b).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
        assert!(run.stats.flops > 0);
        assert!(run.stats.dram_traffic.get(TrafficClass::MatB) > 0);
    }

    #[test]
    fn dcsr_matches_host_reference() {
        let a = matrix(128, 0.01, 5);
        let d = Dcsr::from_csr(&a);
        let b = random_dense(128, 32, 6);
        let run = dcsrmm_row_per_warp(&mut gpu(), &d, &b).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
    }

    #[test]
    fn baseline_is_memory_bound_like_figure2() {
        // Figure 2: ~75% of SpMM stall time is memory.
        let a = matrix(256, 0.02, 7);
        let b = random_dense(256, 64, 8);
        let run = csrmm_row_per_warp(&mut gpu(), &a, &b).unwrap();
        let s = run.stats.stall_breakdown();
        assert!(s.memory > 0.5, "expected memory-bound: {s:?}");
    }

    #[test]
    fn dcsr_skips_empty_row_overhead() {
        // A matrix where 7/8 of rows are empty: CSR burns scalar checks,
        // DCSR does not.
        let a = generators::generate(&MatrixDesc::new(
            "skew",
            256,
            GenKind::ZipfRows {
                density: 0.004,
                exponent: 1.6,
            },
            11,
        ));
        let d = Dcsr::from_csr(&a);
        let b = random_dense(256, 32, 12);
        let csr_run = csrmm_row_per_warp(&mut gpu(), &a, &b).unwrap();
        let dcsr_run = dcsrmm_row_per_warp(&mut gpu(), &d, &b).unwrap();
        assert!(dcsr_run.c.approx_eq(&csr_run.c, 1e-4));
        assert!(
            dcsr_run.stats.warp_exec.inactive < csr_run.stats.warp_exec.inactive,
            "DCSR must reduce inactive slots: {} vs {}",
            dcsr_run.stats.warp_exec.inactive,
            csr_run.stats.warp_exec.inactive
        );
        // DCSR also reads less rowptr metadata.
        assert!(
            dcsr_run.stats.requested_traffic.get(TrafficClass::MatA)
                <= csr_run.stats.requested_traffic.get(TrafficClass::MatA)
        );
    }

    #[test]
    fn empty_matrix_runs() {
        let a = Csr::new(64, 64, vec![0; 65], vec![], vec![]).unwrap();
        let b = random_dense(64, 8, 1);
        let run = csrmm_row_per_warp(&mut gpu(), &a, &b).unwrap();
        assert!(run.c.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(run.stats.flops, 0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use nmt_matgen::{generators, random_dense, GenKind, MatrixDesc};
    use nmt_sim::{detect_stride, AccessKind, GpuConfig, TrafficClass};

    /// The access-pattern contract of the two baselines, asserted on the
    /// actual address streams: the custom kernel reads B in coalesced
    /// row segments; the cuSPARSE model walks B at a row-length stride
    /// (column-major layout).
    #[test]
    fn traces_show_coalesced_vs_strided_b_access() {
        let n = 64;
        // One row with a burst of nnz so the per-nnz B pattern is clean.
        let a = generators::generate(&MatrixDesc::new(
            "t",
            n,
            GenKind::RowBursts {
                density: 0.004,
                burst_len: 8,
            },
            5,
        ));
        let b = random_dense(n, 8, 6);

        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        gpu.enable_trace();
        csrmm_row_per_warp(&mut gpu, &a, &b).unwrap();
        let trace = gpu.take_trace();
        // Every B access in the custom kernel is one whole K-row: 32 bytes.
        let b_events: Vec<_> = trace
            .iter()
            .filter(|e| e.class == TrafficClass::MatB)
            .collect();
        assert!(!b_events.is_empty());
        assert!(
            b_events.iter().all(|e| e.bytes == 8 * 4),
            "coalesced row reads"
        );

        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        gpu.enable_trace();
        csrmm_cusparse(&mut gpu, &a, &b).unwrap();
        let trace = gpu.take_trace();
        // The column-major model issues 4-byte element gathers; for one
        // non-zero the per-k addresses stride by n rows.
        let b4: Vec<u64> = trace
            .iter()
            .filter(|e| e.class == TrafficClass::MatB && e.bytes == 4)
            .map(|e| e.addr)
            .collect();
        assert!(b4.len() >= 8, "per-element gathers recorded");
        // Consecutive k-gathers of one non-zero: stride = n * 4 bytes.
        let k_stride = detect_stride(&b4[..8]);
        assert_eq!(k_stride, Some(n as i64 * 4), "column-major stride");
        // Atomics never appear in either C-stationary baseline.
        assert!(trace.iter().all(|e| e.kind != AccessKind::Atomic));
    }
}
