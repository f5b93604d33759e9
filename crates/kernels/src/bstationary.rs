//! B-stationary tiled kernels (§3.1.1): a 64×K tile of B lives in shared
//! memory; thread blocks walk the tiles of a vertical strip of A
//! (column-major traversal, §3.1.3) and commit partial sums of C with
//! atomics (2× channel occupancy).
//!
//! Three variants of the A-side tile format:
//! * [`bstat_tiled_csr`] — strips kept in CSR: every tile scans a full
//!   `tile_h + 1` row-pointer window and burns a 1-active-lane check per
//!   empty row (the Figure 6/7 pathology).
//! * [`bstat_tiled_dcsr_offline`] — tiles pre-converted to DCSR and stored
//!   in DRAM: compute-efficient but pays the tiled-metadata footprint of
//!   Figure 9 on every read (and, in reality, an offline conversion pass
//!   this kernel does not charge — §5.2 calls its results optimistic).
//! * [`bstat_tiled_dcsr_online`] — the paper's proposal: DRAM holds only
//!   the compact CSC; the near-memory engine streams freshly-minted DCSR
//!   tiles to the SM over the crossbar, so the DRAM-side cost is the CSC
//!   elements themselves.

use crate::device::{CscDevice, DenseDevice, TiledDcsrDevice, WORD};
use crate::KernelRun;
use nmt_engine::{
    convert_matrix_farm_obs, publish_conversion, publish_farm, publish_pipeline, simulate_strip,
    ConversionStats, FarmConfig, PipelineConfig, PipelineResult,
};
use nmt_formats::{Csc, DenseMatrix, SparseMatrix, TiledCsr, TiledDcsr};
use nmt_obs::ObsContext;
use nmt_sim::{BlockCtx, Gpu, InstrClass, SimError, TrafficClass};

/// Per-row inner loop shared by every B-stationary variant: FMA the row
/// segment against the shared-memory B tile and atomically add the partial
/// C row. Returns nothing; updates the functional output.
///
/// `cols` are tile-local column indices; `col_base` rebases them to global
/// columns in-register, so callers hand the tile's `colidx` slice straight
/// through instead of materializing a rebased copy per row. `acc` is
/// caller-provided scratch (cleared and refilled here) so the per-row
/// accumulator costs zero allocations across the whole launch.
#[allow(clippy::too_many_arguments)]
fn process_tile_row(
    ctx: &mut BlockCtx<'_>,
    c: &mut DenseMatrix,
    c_dev: &DenseDevice,
    b: &DenseMatrix,
    global_row: usize,
    cols: &[u32],
    col_base: u32,
    vals: &[f32],
    k: usize,
    acc: &mut Vec<f32>,
) {
    let warp = ctx.warp_size();
    acc.clear();
    acc.resize(k, 0.0);
    for (&cl, &v) in cols.iter().zip(vals) {
        let col = (col_base + cl) as usize;
        ctx.warp_instr(InstrClass::Integer, k.min(warp), 1);
        let mut kc = 0;
        while kc < k {
            let chunk = (k - kc).min(warp);
            // B comes from shared memory: issue cost only, no global traffic.
            ctx.shared_op(chunk as u64 * WORD, chunk);
            ctx.fma(chunk, 1);
            let brow = b.row(col);
            for x in kc..kc + chunk {
                acc[x] += v * brow[x];
            }
            kc += chunk;
        }
    }
    // Partial contribution: atomic adds over the C row (Table 1's 2x).
    let (off, bytes) = c_dev.row_segment(global_row as u64, 0, k as u64);
    ctx.atomic_add_global(&c_dev.buf, off, bytes);
    let out = c.row_mut(global_row);
    for (o, a) in out.iter_mut().zip(acc.iter()) {
        *o += a;
    }
}

/// Load the strip's B tile (tile_w rows × K columns) into shared memory.
fn load_b_tile(
    ctx: &mut BlockCtx<'_>,
    b_dev: &DenseDevice,
    strip_row0: usize,
    rows: usize,
    k: usize,
) {
    for i in 0..rows {
        let (off, bytes) = b_dev.row_segment((strip_row0 + i) as u64, 0, k as u64);
        ctx.ld_global(&b_dev.buf, off, bytes, false);
        ctx.shared_op(bytes, ctx.warp_size().min(k));
    }
}

fn check_dims(
    a_shape: nmt_formats::Shape,
    b: &DenseMatrix,
    tile_w: usize,
) -> Result<(), SimError> {
    crate::check_inner_dims(a_shape.ncols, b.nrows())?;
    // The B tile (tile_w rows x K columns) must be a plausible shared-
    // memory resident; the launch itself enforces the hard capacity limit.
    if tile_w == 0 {
        return Err(SimError::ShapeMismatch {
            detail: "tile width must be positive".into(),
        });
    }
    Ok(())
}

/// B-stationary over offline-tiled **CSR** strips.
pub fn bstat_tiled_csr(
    gpu: &mut Gpu,
    tiled: &TiledCsr,
    b: &DenseMatrix,
    tile_h: usize,
) -> Result<KernelRun, SimError> {
    let shape = tiled.shape();
    check_dims(shape, b, tiled.tile_width())?;
    let n = shape.nrows;
    let k = b.ncols();
    let tile_w = tiled.tile_width();
    // Device image: per strip, a full rowptr plus the strip's elements.
    // Strip count is known up front — reserve once instead of growing.
    let mut strip_rowptr = Vec::with_capacity(tiled.strips().len());
    let mut strip_elems = Vec::with_capacity(tiled.strips().len());
    for strip in tiled.strips() {
        strip_rowptr.push(gpu.alloc((n as u64 + 1) * WORD, TrafficClass::MatA));
        strip_elems.push(gpu.alloc((strip.nnz().max(1) as u64) * 2 * WORD, TrafficClass::MatA));
    }
    let b_dev = DenseDevice::upload(gpu, b, TrafficClass::MatB);
    let c_dev = DenseDevice::upload(gpu, &DenseMatrix::zeros(n, k), TrafficClass::MatC);

    let mut c = DenseMatrix::zeros(n, k);
    let tiles_per_strip = nmt_formats::tile_count(n, tile_h);
    // One thread block per strip: the B tile is loaded into shared memory
    // once and every tile of the strip streams past it (§3.1.1: "a tile
    // of B is loaded into the shared memory only once").
    let num_blocks = tiled.strips().len();
    let shared = tile_w * k * WORD as usize;
    let mut acc = nmt_engine::mem::take_val(true, k);
    let stats = gpu.launch(shared, num_blocks, |ctx| {
        let s = ctx.block_id;
        let strip = &tiled.strips()[s];
        load_b_tile(
            ctx,
            &b_dev,
            s * tile_w,
            strip.width.min(b.nrows() - s * tile_w),
            k,
        );
        for t in 0..tiles_per_strip {
            let row0 = t * tile_h;
            let row1 = (row0 + tile_h).min(n);
            // Full rowptr window for this tile: tile_h + 1 words, present
            // for every row whether or not it has non-zeros.
            ctx.ld_global(
                &strip_rowptr[s],
                row0 as u64 * WORD,
                (row1 - row0 + 1) as u64 * WORD,
                false,
            );
            for r in row0..row1 {
                // One lane inspects rowptr[r..r+2]; empty rows waste the warp.
                ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
                let (lo, hi) = (strip.rowptr[r] as usize, strip.rowptr[r + 1] as usize);
                if lo == hi {
                    ctx.warp_instr(InstrClass::Integer, 1, 1);
                    continue;
                }
                let seg = hi - lo;
                ctx.ld_global(
                    &strip_elems[s],
                    lo as u64 * 2 * WORD,
                    seg as u64 * 2 * WORD,
                    false,
                );
                process_tile_row(
                    ctx,
                    &mut c,
                    &c_dev,
                    b,
                    r,
                    &strip.colidx[lo..hi],
                    strip.col_start,
                    &strip.values[lo..hi],
                    k,
                    &mut acc,
                );
            }
        }
    })?;
    nmt_engine::mem::put_val(true, acc);
    Ok(KernelRun { c, stats })
}

/// B-stationary over offline-tiled **DCSR** (stored pre-tiled in DRAM).
pub fn bstat_tiled_dcsr_offline(
    gpu: &mut Gpu,
    tiled: &TiledDcsr,
    b: &DenseMatrix,
) -> Result<KernelRun, SimError> {
    let shape = tiled.shape();
    check_dims(shape, b, tiled.tile_width())?;
    let n = shape.nrows;
    let k = b.ncols();
    let tile_w = tiled.tile_width();
    let a_dev = TiledDcsrDevice::upload(gpu, tiled);
    let b_dev = DenseDevice::upload(gpu, b, TrafficClass::MatB);
    let c_dev = DenseDevice::upload(gpu, &DenseMatrix::zeros(n, k), TrafficClass::MatC);

    let mut c = DenseMatrix::zeros(n, k);
    let tiles_per_strip = tiled.tiles_per_strip();
    // One block per strip: B tile resident in shared memory across all of
    // the strip's tiles.
    let num_blocks = tiled.num_strips();
    let shared = tile_w * k * WORD as usize;
    let mut acc = nmt_engine::mem::take_val(true, k);
    let stats = gpu.launch(shared, num_blocks, |ctx| {
        let s = ctx.block_id;
        let first_width = tiled.strips()[s].first().map_or(tile_w, |t| t.width);
        let b_rows = first_width.min(b.nrows().saturating_sub(s * tile_w));
        load_b_tile(ctx, &b_dev, s * tile_w, b_rows, k);
        for t in 0..tiles_per_strip {
            let tile = &tiled.strips()[s][t];
            // Tile directory entry + the tile's packed bytes.
            let (off, len) = a_dev.offsets[s][t];
            let dir_bytes = 8.min(a_dev.data.len);
            ctx.ld_global(
                &a_dev.data,
                off.min(a_dev.data.len - dir_bytes),
                dir_bytes,
                false,
            );
            if len > 0 {
                ctx.ld_global(&a_dev.data, off, len, false);
            }
            for i in 0..tile.nnz_rows() {
                let (lo, hi) = (tile.rowptr[i] as usize, tile.rowptr[i + 1] as usize);
                ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
                let global_row = (tile.row_start + tile.rowidx[i]) as usize;
                process_tile_row(
                    ctx,
                    &mut c,
                    &c_dev,
                    b,
                    global_row,
                    &tile.colidx[lo..hi],
                    tile.col_start,
                    &tile.values[lo..hi],
                    k,
                    &mut acc,
                );
            }
        }
    })?;
    nmt_engine::mem::put_val(true, acc);
    Ok(KernelRun { c, stats })
}

/// Order in which the grid of B tiles is traversed (§3.1.3).
///
/// B tiles form a grid: row index = vertical strip `s` (a block of B's
/// rows), column index = output-column tile `kc`. The traversal order
/// decides C's reuse distance: column-major (all strips for one `kc`
/// before the next) keeps one column slice of C hot in the LLC "by
/// writing back to the same tiles until all partial sums are
/// accumulated"; row-major touches the entire C once per strip, which
/// "is rather expensive".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// For each strip, sweep every output-column tile (C thrashes).
    RowMajor,
    /// For each output-column tile, sweep every strip (C slice stays hot).
    ColumnMajor,
}

/// B-stationary over offline-tiled DCSR with an explicit B-tile traversal
/// order and `K` split into `tile_w`-wide output-column tiles — the
/// experiment kernel behind §3.1.3's row- vs column-major comparison.
pub fn bstat_tiled_dcsr_traversal(
    gpu: &mut Gpu,
    tiled: &TiledDcsr,
    b: &DenseMatrix,
    traversal: Traversal,
) -> Result<KernelRun, SimError> {
    let shape = tiled.shape();
    check_dims(shape, b, tiled.tile_width())?;
    let n = shape.nrows;
    let k = b.ncols();
    let tile_w = tiled.tile_width();
    let kc_tiles = k.div_ceil(tile_w).max(1);
    let a_dev = TiledDcsrDevice::upload(gpu, tiled);
    let b_dev = DenseDevice::upload(gpu, b, TrafficClass::MatB);
    let c_dev = DenseDevice::upload(gpu, &DenseMatrix::zeros(n, k), TrafficClass::MatC);

    let mut c = DenseMatrix::zeros(n, k);
    let nstrips = tiled.num_strips();
    let tiles_per_strip = tiled.tiles_per_strip();
    let num_blocks = nstrips * kc_tiles;
    let shared = tile_w * tile_w * WORD as usize;
    let mut acc = nmt_engine::mem::take_val(true, tile_w);
    let stats = gpu.launch(shared, num_blocks, |ctx| {
        // Block order implements the traversal.
        let (s, kc) = match traversal {
            Traversal::RowMajor => (ctx.block_id / kc_tiles, ctx.block_id % kc_tiles),
            Traversal::ColumnMajor => (ctx.block_id % nstrips, ctx.block_id / nstrips),
        };
        let warp = ctx.warp_size();
        let k_lo = kc * tile_w;
        let k_hi = (k_lo + tile_w).min(k);
        let kw = k_hi - k_lo;
        // Load the (s, kc) tile of B into shared memory.
        let first_width = tiled.strips()[s].first().map_or(tile_w, |t| t.width);
        let b_rows = first_width.min(b.nrows().saturating_sub(s * tile_w));
        for i in 0..b_rows {
            let (off, bytes) = b_dev.row_segment((s * tile_w + i) as u64, k_lo as u64, kw as u64);
            ctx.ld_global(&b_dev.buf, off, bytes, false);
            ctx.shared_op(bytes, warp.min(kw));
        }
        for t in 0..tiles_per_strip {
            let tile = &tiled.strips()[s][t];
            let (off, len) = a_dev.offsets[s][t];
            let dir_bytes = 8.min(a_dev.data.len);
            ctx.ld_global(
                &a_dev.data,
                off.min(a_dev.data.len - dir_bytes),
                dir_bytes,
                false,
            );
            if len > 0 {
                ctx.ld_global(&a_dev.data, off, len, false);
            }
            for i in 0..tile.nnz_rows() {
                let (lo, hi) = (tile.rowptr[i] as usize, tile.rowptr[i + 1] as usize);
                ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
                let global_row = (tile.row_start + tile.rowidx[i]) as usize;
                acc.clear();
                acc.resize(kw, 0.0);
                for e in lo..hi {
                    let col = (tile.col_start + tile.colidx[e]) as usize;
                    let v = tile.values[e];
                    ctx.warp_instr(InstrClass::Integer, kw.min(warp), 1);
                    let mut x = 0;
                    while x < kw {
                        let chunk = (kw - x).min(warp);
                        ctx.shared_op(chunk as u64 * WORD, chunk);
                        ctx.fma(chunk, 1);
                        let brow = b.row(col);
                        for j in x..x + chunk {
                            acc[j] += v * brow[k_lo + j];
                        }
                        x += chunk;
                    }
                }
                // Atomic update of this row's kc column slice.
                let (off, bytes) = c_dev.row_segment(global_row as u64, k_lo as u64, kw as u64);
                ctx.atomic_add_global(&c_dev.buf, off, bytes);
                let out = c.row_mut(global_row);
                for (j, a) in acc.iter().enumerate() {
                    out[k_lo + j] += a;
                }
            }
        }
    })?;
    nmt_engine::mem::put_val(true, acc);
    Ok(KernelRun { c, stats })
}

/// Result of the online kernel: the run plus the engine activity.
#[derive(Debug, Clone)]
pub struct OnlineRun {
    /// The kernel run (output + GPU-side stats).
    pub run: KernelRun,
    /// Aggregated conversion-engine counters across all strips.
    pub engine: ConversionStats,
}

/// The paper's proposal: B-stationary tiled DCSR **converted online** from
/// CSC by the near-memory engine (`GetDCSRTile`, Figure 11).
///
/// DRAM-side cost is the CSC stream the engine consumes inside the FB
/// partition (accounted as `MatA`); the produced DCSR rows ride the
/// crossbar into the SM's shared memory (accounted as issue cost and
/// [`TrafficClass::Engine`] request traffic, not DRAM).
pub fn bstat_tiled_dcsr_online(
    gpu: &mut Gpu,
    csc: &Csc,
    b: &DenseMatrix,
    tile_w: usize,
    tile_h: usize,
) -> Result<OnlineRun, SimError> {
    bstat_tiled_dcsr_online_obs(gpu, csc, b, tile_w, tile_h, &ObsContext::disabled())
}

/// [`bstat_tiled_dcsr_online`] with an observability context threaded
/// through: the conversion pre-run and the kernel launch are wrapped in
/// spans (`engine.convert` with one child per strip, `kernels.launch`),
/// per-strip FLOP/element/stream-byte histograms land in the metric
/// registry, and — when the context is enabled — each strip additionally
/// runs the cycle-level prefetch pipeline so
/// `engine.pipeline.prefetch_hit_rate` reflects this matrix.
pub fn bstat_tiled_dcsr_online_obs(
    gpu: &mut Gpu,
    csc: &Csc,
    b: &DenseMatrix,
    tile_w: usize,
    tile_h: usize,
    obs: &ObsContext,
) -> Result<OnlineRun, SimError> {
    let shape = csc.shape();
    check_dims(shape, b, tile_w)?;
    let n = shape.nrows;
    let k = b.ncols();
    let a_dev = CscDevice::upload(gpu, csc);
    let b_dev = DenseDevice::upload(gpu, b, TrafficClass::MatB);
    let c_dev = DenseDevice::upload(gpu, &DenseMatrix::zeros(n, k), TrafficClass::MatC);

    // Pre-run the functional converters: one engine per FB partition,
    // strips sharded rayon-parallel across the farm (§6.1). The farm's
    // reduction is partition-index-ordered, so `engine` and every obs
    // counter below are byte-identical at any thread count.
    let nstrips = nmt_formats::strip_count(shape.ncols, tile_w);
    let tiles_per_strip = nmt_formats::tile_count(n, tile_h);
    let farm_cfg =
        FarmConfig::for_partitions(gpu.config().num_partitions).with_fault(gpu.fault_plan());
    let farm = convert_matrix_farm_obs(csc.view(), tile_w, tile_h, farm_cfg, obs);
    let farm = farm.map_err(|e| match e {
        nmt_engine::FarmError::Fault { site, key, detail } => {
            SimError::InjectedFault { site, key, detail }
        }
        other => SimError::BadConfig(other.to_string()),
    })?;
    let engine = farm.stats;
    {
        let mut convert_span = obs.span("engine.convert");
        // The discrete prefetch-pipeline model is priced per strip only
        // when someone is watching; it does not change the run. It is pure
        // per strip, so it runs in the same parallel fashion as the farm
        // and publishes serially below in strip order.
        let pipeline_runs: Vec<PipelineResult> = if obs.is_enabled() {
            use rayon::prelude::*;
            let pipe_cfg = PipelineConfig::paper_fp32(tile_w.clamp(1, 64));
            (0..nstrips)
                .into_par_iter()
                .map(|s| simulate_strip(csc, s, &pipe_cfg))
                .collect()
        } else {
            // nmt-lint: allow(hot-alloc) — cold branch, empty Vec never allocates
            Vec::new()
        };
        // Record spans and histograms serially, strips ascending: span
        // parentage and histogram contents stay identical to a serial run.
        for (s, st) in farm.per_strip.iter().enumerate() {
            let mut strip_span = obs.span("engine.convert.strip");
            strip_span.counter("strip", s as f64);
            strip_span.counter("elements", st.elements as f64);
            strip_span.counter("output_bytes", st.output_bytes as f64);
            obs.flight
                .record(nmt_obs::EventSite::KernelStrip, 0, s as u64, st.elements);
            let m = &obs.metrics;
            m.histogram_record("kernels.bstat_online.strip_elements", st.elements);
            m.histogram_record("kernels.bstat_online.strip_flops", 2 * k as u64 * st.elements);
            m.histogram_record("kernels.bstat_online.strip_stream_bytes", st.output_bytes);
            if let Some(pipe) = pipeline_runs.get(s) {
                publish_pipeline(obs, pipe);
            }
        }
        convert_span.counter("strips", nstrips as f64);
    }
    publish_conversion(obs, &engine);
    publish_farm(obs, &farm);
    let strips = farm.strips;

    let mut c = DenseMatrix::zeros(n, k);
    // One block per strip, exactly the device loop of Figure 11: the block
    // initializes col_frontier, loads its B tile once, then issues one
    // GetDCSRTile per DCSR_HEIGHT rows.
    let num_blocks = nstrips;
    let shared = tile_w * k * WORD as usize;
    let launch_span = obs.span("kernels.launch");
    obs.flight
        .record(nmt_obs::EventSite::KernelLaunch, 0, nstrips as u64, k as u64);
    let mut acc = nmt_engine::mem::take_val(farm_cfg.pool, k);
    let stats = gpu.launch(shared, num_blocks, |ctx| {
        let s = ctx.block_id;
        let strip = &strips[s];
        let first_width = strip.width();
        let b_rows = first_width.min(b.nrows().saturating_sub(s * tile_w));
        load_b_tile(ctx, &b_dev, s * tile_w, b_rows, k);
        // Engine loads boundary/frontier pointers from col_ptr once per
        // strip (Figure 14 ❶).
        ctx.ld_global(
            &a_dev.colptr,
            (s * tile_w) as u64 * WORD,
            (first_width as u64 + 1) * WORD,
            false,
        );
        let mut consumed_before = 0u64;
        for t in 0..tiles_per_strip {
            let tile = strip.tile(t);
            // GetDCSRTile request: much like a warp vector store (Fig. 11).
            ctx.warp_instr(InstrClass::Memory, ctx.warp_size(), 1);
            // Engine streams the tile's CSC elements from DRAM inside the
            // FB partition: rowidx + value per element. The strip's
            // elements are contiguous; this tile consumes the next `nnz`
            // of them (sequential frontier advance).
            if tile.nnz() > 0 {
                let first = csc.colptr()[s * tile_w] as u64;
                let lo = (first + consumed_before) * WORD;
                let bytes = tile.nnz() as u64 * WORD;
                ctx.ld_global(&a_dev.rowidx, lo, bytes, false);
                ctx.ld_global(&a_dev.values, lo, bytes, false);
                consumed_before += tile.nnz() as u64;
            }
            // Converted rows arrive over the Xbar into shared memory: they
            // consume crossbar bandwidth and issue slots, but no DRAM
            // bandwidth — the engine's whole point.
            let stream_bytes = (tile.metadata_bytes() + tile.data_bytes()) as u64;
            ctx.xbar_stream(stream_bytes);
            for i in 0..tile.nnz_rows() {
                let (lo, hi) = (tile.rowptr[i] as usize, tile.rowptr[i + 1] as usize);
                ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
                let global_row = (tile.row_start + tile.rowidx[i]) as usize;
                process_tile_row(
                    ctx,
                    &mut c,
                    &c_dev,
                    b,
                    global_row,
                    &tile.colidx[lo..hi],
                    tile.col_start,
                    &tile.values[lo..hi],
                    k,
                    &mut acc,
                );
            }
        }
    })?;
    nmt_engine::mem::put_val(farm_cfg.pool, acc);
    // The freshly-minted strips have been consumed; hand their buffers
    // back so the next online conversion of a similar matrix allocates
    // nothing.
    if farm_cfg.pool {
        nmt_engine::mem::recycle_strips(strips);
    }
    drop(launch_span);
    Ok(OnlineRun {
        run: KernelRun { c, stats },
        engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host;
    use nmt_formats::Csr;
    use nmt_matgen::{generators, random_dense, GenKind, MatrixDesc};
    use nmt_sim::GpuConfig;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::test_small()).unwrap()
    }

    fn matrix(n: usize, density: f64, seed: u64) -> Csr {
        generators::generate(&MatrixDesc::new("t", n, GenKind::Uniform { density }, seed))
    }

    #[test]
    fn tiled_csr_matches_reference() {
        let a = matrix(128, 0.02, 1);
        let tiled = TiledCsr::from_csr(&a, 16).unwrap();
        let b = random_dense(128, 16, 2);
        let run = bstat_tiled_csr(&mut gpu(), &tiled, &b, 16).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
        assert!(run.stats.atomics > 0, "B-stationary must use atomics");
    }

    #[test]
    fn tiled_dcsr_offline_matches_reference() {
        let a = matrix(128, 0.02, 3);
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let b = random_dense(128, 16, 4);
        let run = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b).unwrap();
        assert!(run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
    }

    #[test]
    fn online_matches_reference_and_offline() {
        let a = matrix(128, 0.02, 5);
        let csc = a.to_csc();
        let b = random_dense(128, 16, 6);
        let online = bstat_tiled_dcsr_online(&mut gpu(), &csc, &b, 16, 16).unwrap();
        assert!(online.run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let offline = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b).unwrap();
        assert!(online.run.c.approx_eq(&offline.c, 1e-5));
        assert_eq!(online.engine.elements as usize, a.nnz());
    }

    #[test]
    fn dcsr_reduces_inactive_slots_vs_tiled_csr() {
        // Figure 7: tiled DCSR cuts inactive thread executions ~90%.
        let a = matrix(256, 0.002, 7);
        let b = random_dense(256, 16, 8);
        let tcsr = TiledCsr::from_csr(&a, 16).unwrap();
        let tdcsr = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let csr_run = bstat_tiled_csr(&mut gpu(), &tcsr, &b, 16).unwrap();
        let dcsr_run = bstat_tiled_dcsr_offline(&mut gpu(), &tdcsr, &b).unwrap();
        let csr_inact = csr_run.stats.warp_exec.inactive_fraction();
        let dcsr_inact = dcsr_run.stats.warp_exec.inactive_fraction();
        assert!(
            dcsr_inact < csr_inact,
            "tiled DCSR should reduce inactive fraction: {dcsr_inact} vs {csr_inact}"
        );
    }

    #[test]
    fn online_reads_less_dram_metadata_than_offline() {
        // The whole point: online pays CSC-sized A traffic, offline pays
        // the tiled-DCSR footprint (Figure 9's overhead).
        let a = matrix(256, 0.002, 9);
        let csc = a.to_csc();
        let b = random_dense(256, 16, 10);
        let online = bstat_tiled_dcsr_online(&mut gpu(), &csc, &b, 16, 16).unwrap();
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let offline = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b).unwrap();
        let online_a = online.run.stats.requested_traffic.get(TrafficClass::MatA);
        let offline_a = offline.stats.requested_traffic.get(TrafficClass::MatA);
        assert!(
            online_a < offline_a,
            "online A traffic {online_a} should undercut offline {offline_a}"
        );
    }

    #[test]
    fn traversal_kernel_matches_reference_both_orders() {
        let a = matrix(128, 0.02, 21);
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let b = random_dense(128, 64, 22); // 4 output-column tiles
        let reference = host::spmm_csr(&a, &b);
        for order in [Traversal::RowMajor, Traversal::ColumnMajor] {
            let run = bstat_tiled_dcsr_traversal(&mut gpu(), &tiled, &b, order).unwrap();
            assert!(run.c.approx_eq(&reference, 1e-4), "{order:?} diverged");
        }
    }

    #[test]
    fn column_major_traversal_has_better_c_locality() {
        // §3.1.3: column-major keeps a C column slice hot across strips;
        // row-major cycles the whole C per strip. With C larger than the
        // test L2, column-major must see fewer C DRAM bytes.
        let a = matrix(256, 0.03, 23);
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let b = random_dense(256, 64, 24);
        let row = bstat_tiled_dcsr_traversal(&mut gpu(), &tiled, &b, Traversal::RowMajor).unwrap();
        let col =
            bstat_tiled_dcsr_traversal(&mut gpu(), &tiled, &b, Traversal::ColumnMajor).unwrap();
        assert!(col.c.approx_eq(&row.c, 1e-4));
        let row_c = row.stats.dram_traffic.get(TrafficClass::MatC);
        let col_c = col.stats.dram_traffic.get(TrafficClass::MatC);
        assert!(
            col_c <= row_c,
            "column-major C traffic {col_c} should not exceed row-major {row_c}"
        );
    }

    #[test]
    fn empty_matrix_runs() {
        let a = Csr::new(32, 32, vec![0; 33], vec![], vec![]).unwrap();
        let b = random_dense(32, 8, 1);
        let online = bstat_tiled_dcsr_online(&mut gpu(), &a.to_csc(), &b, 16, 16).unwrap();
        assert!(online.run.c.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(online.engine.elements, 0);
    }

    #[test]
    fn online_obs_records_spans_and_strip_histograms() {
        let a = matrix(128, 0.02, 11);
        let csc = a.to_csc();
        let b = random_dense(128, 16, 12);
        let obs = ObsContext::enabled();
        let online = bstat_tiled_dcsr_online_obs(&mut gpu(), &csc, &b, 16, 16, &obs).unwrap();
        assert!(online.run.c.approx_eq(&host::spmm_csr(&a, &b), 1e-4));
        // lane_slots flows through the merge, so occupancy is computable.
        assert!(online.engine.lane_slots > 0);
        assert!(online.engine.comparator_occupancy() > 0.0);

        let spans = obs.recorder.snapshot();
        let convert = spans
            .iter()
            .find(|s| s.name == "engine.convert")
            .expect("engine.convert span");
        let nstrips = 128usize.div_ceil(16);
        let strips: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "engine.convert.strip")
            .collect();
        assert_eq!(strips.len(), nstrips);
        assert!(strips.iter().all(|s| s.parent == Some(convert.id)));
        assert!(spans.iter().any(|s| s.name == "kernels.launch"));

        let snap = obs.metrics.snapshot();
        let h = &snap.histograms["kernels.bstat_online.strip_elements"];
        assert_eq!(h.count, nstrips as u64);
        assert_eq!(h.sum, a.nnz() as u64);
        let flops = &snap.histograms["kernels.bstat_online.strip_flops"];
        assert_eq!(flops.sum, 2 * 16 * a.nnz() as u64);
        // The enabled context priced the prefetch pipeline per strip.
        assert!(obs.metrics.counter("engine.pipeline.cycles") > 0);
        let rate = obs
            .metrics
            .gauge("engine.pipeline.prefetch_hit_rate")
            .unwrap();
        assert!((0.0..=1.0).contains(&rate));
        // ...and the conversion bridge published whole-matrix totals.
        assert_eq!(
            obs.metrics.counter("engine.convert.elements"),
            a.nnz() as u64
        );
    }

    #[test]
    fn online_obs_disabled_context_skips_spans_but_keeps_results() {
        let a = matrix(64, 0.05, 13);
        let csc = a.to_csc();
        let b = random_dense(64, 8, 14);
        let with_obs =
            bstat_tiled_dcsr_online_obs(&mut gpu(), &csc, &b, 16, 16, &ObsContext::disabled())
                .unwrap();
        let plain = bstat_tiled_dcsr_online(&mut gpu(), &csc, &b, 16, 16).unwrap();
        assert!(with_obs.run.c.approx_eq(&plain.run.c, 1e-6));
        assert_eq!(with_obs.engine.elements, plain.engine.elements);
        assert_eq!(with_obs.engine.lane_slots, plain.engine.lane_slots);
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::KernelRun;
    use nmt_formats::Csr;
    use nmt_matgen::random_dense;
    use nmt_sim::GpuConfig;

    /// Review regression: the offline/traversal kernels' tile-directory
    /// read used to underflow on an all-empty matrix.
    #[test]
    fn offline_kernels_handle_empty_matrix() {
        let a = Csr::new(32, 32, vec![0; 33], vec![], vec![]).unwrap();
        let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
        let b = random_dense(32, 8, 1);
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let run: KernelRun = bstat_tiled_dcsr_offline(&mut gpu, &tiled, &b).unwrap();
        assert!(run.c.as_slice().iter().all(|&v| v == 0.0));
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let run = bstat_tiled_dcsr_traversal(&mut gpu, &tiled, &b, Traversal::ColumnMajor).unwrap();
        assert!(run.c.as_slice().iter().all(|&v| v == 0.0));
    }
}
