//! B-stationary tiled kernels (§3.1.1): a 64×K tile of B lives in shared
//! memory; thread blocks walk the tiles of a vertical strip of A
//! (column-major traversal, §3.1.3) and commit partial sums of C with
//! atomics (2× channel occupancy).
//!
//! Every DCSR variant is one strip loop over `&[DcsrStrip]` that differs
//! only in where A's bytes come from (a private `ASource`):
//! * [`bstat_tiled_dcsr_offline`] — tiles pre-converted to DCSR and stored
//!   in DRAM, each read as a directory word plus its packed bytes:
//!   compute-efficient but pays the tiled-metadata footprint of Figure 9
//!   on every read (and, in reality, an offline conversion pass this
//!   kernel does not charge — §5.2 calls its results optimistic).
//! * [`bstat_tiled_dcsr_traversal`] — the same packed tiles with `K` split
//!   into `tile_w`-wide tiles and an explicit B-tile [`Traversal`] order;
//!   the offline kernel is this loop with one K tile.
//! * [`bstat_tiled_dcsr_online`] — the paper's proposal: DRAM holds only
//!   the compact CSC; the near-memory engine streams freshly-minted DCSR
//!   tiles to the SM over the crossbar, so the DRAM-side cost is the CSC
//!   elements themselves.
//!
//! [`bstat_tiled_csr`] keeps strips in CSR and has its own launch: every
//! tile scans a full `tile_h + 1` row-pointer window and burns a
//! 1-active-lane check per empty row (the Figure 6/7 pathology).

use crate::device::{CscDevice, DenseDevice, TiledDcsrDevice, WORD};
use crate::KernelRun;
use nmt_engine::{
    convert_matrix_farm_obs, publish_conversion, publish_farm, ConversionStats, FarmConfig,
};
use nmt_formats::{Csc, DcsrStrip, DenseMatrix, SparseMatrix, TiledCsr, TiledDcsr};
use nmt_obs::ObsContext;
use nmt_sim::{BlockCtx, Gpu, InstrClass, SimError, TrafficClass};

/// B and C as a B-stationary launch sees them: B's values, the device
/// images of both, and C's row count.
struct Operands<'a> {
    b: &'a DenseMatrix,
    b_dev: DenseDevice,
    c_dev: DenseDevice,
    n: usize,
}

impl<'a> Operands<'a> {
    /// Allocate B's and then C's (`n × K`) device images.
    fn upload(gpu: &mut Gpu, b: &'a DenseMatrix, n: usize) -> Self {
        Self {
            b,
            b_dev: DenseDevice::upload(gpu, b, TrafficClass::MatB),
            c_dev: DenseDevice::alloc(gpu, n, b.ncols(), TrafficClass::MatC),
            n,
        }
    }
}

/// Per-row inner loop shared by every B-stationary variant: FMA the row
/// segment against the shared-memory B tile, which holds output columns
/// `k_lo .. k_lo + kw`, and atomically add that slice of the partial C
/// row.
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
    ops: &Operands<'_>,
    global_row: usize,
    cols: &[u32],
    col_base: u32,
    vals: &[f32],
    (k_lo, kw): (usize, usize),
    acc: &mut Vec<f32>,
) {
    let warp = ctx.warp_size();
    acc.clear();
    acc.resize(kw, 0.0);
    for (&cl, &v) in cols.iter().zip(vals) {
        let brow = &ops.b.row((col_base + cl) as usize)[k_lo..k_lo + kw];
        ctx.warp_instr(InstrClass::Integer, kw.min(warp), 1);
        let mut x = 0;
        while x < kw {
            let chunk = (kw - x).min(warp);
            // B comes from shared memory: issue cost only, no global traffic.
            ctx.shared_op(chunk as u64 * WORD, chunk);
            ctx.fma(chunk, 1);
            for (a, &bv) in acc[x..x + chunk].iter_mut().zip(&brow[x..x + chunk]) {
                *a += v * bv;
            }
            x += chunk;
        }
    }
    // Partial contribution: atomic adds over the C row slice (Table 1's 2x).
    let c_dev = &ops.c_dev;
    let (off, bytes) = c_dev.row_segment(global_row as u64, k_lo as u64, kw as u64);
    ctx.atomic_add_global(&c_dev.buf, off, bytes);
    let out = &mut c.row_mut(global_row)[k_lo..k_lo + kw];
    for (o, a) in out.iter_mut().zip(acc.iter()) {
        *o += a;
    }
}

/// Load the `rows × kw` B tile at (`strip_row0`, `k_lo`) into shared memory.
fn load_b_tile(
    ctx: &mut BlockCtx<'_>,
    b_dev: &DenseDevice,
    strip_row0: usize,
    rows: usize,
    (k_lo, kw): (usize, usize),
) {
    for i in 0..rows {
        let (off, bytes) = b_dev.row_segment((strip_row0 + i) as u64, k_lo as u64, kw as u64);
        ctx.ld_global(&b_dev.buf, off, bytes, false);
        ctx.shared_op(bytes, ctx.warp_size().min(kw));
    }
}

fn check_dims(a_shape: nmt_formats::Shape, b: &DenseMatrix, tile_w: usize) -> Result<(), SimError> {
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
    let ops = Operands::upload(gpu, b, n);

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
        let b_rows = strip.width.min(b.nrows() - s * tile_w);
        load_b_tile(ctx, &ops.b_dev, s * tile_w, b_rows, (0, k));
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
                    &ops,
                    r,
                    &strip.colidx[lo..hi],
                    strip.col_start,
                    &strip.values[lo..hi],
                    (0, k),
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

/// Where the strip loop's A tiles come from; the only thing the offline
/// and online kernels do differently.
#[derive(Clone, Copy)]
enum ASource<'a> {
    /// Offline tiles packed in DRAM: each is read as a directory word plus
    /// its packed bytes.
    Packed(&'a TiledDcsrDevice),
    /// The near-memory engine over the CSC in DRAM: the strip's `colptr`
    /// window is read once, then each tile is one `GetDCSRTile` request,
    /// its CSC elements streamed inside the FB partition and its DCSR
    /// bytes over the crossbar (Figure 11).
    Engine { csc: &'a Csc, dev: &'a CscDevice },
}

/// The one B-stationary launch over DCSR strips: one block per (strip,
/// `k_tile`-wide output-column tile) pair, ordered by `traversal`. Each
/// block loads its B tile into shared memory once, then fetches the
/// strip's tiles top to bottom from `a` and runs [`process_tile_row`]
/// over their rows.
fn launch_strips(
    gpu: &mut Gpu,
    strips: &[DcsrStrip],
    a: ASource<'_>,
    ops: &Operands<'_>,
    tile_w: usize,
    k_tile: usize,
    traversal: Traversal,
) -> Result<KernelRun, SimError> {
    let b = ops.b;
    let k = b.ncols();
    let nstrips = strips.len();
    let k_tiles = k.div_ceil(k_tile.max(1)).max(1);
    let shared = tile_w * k_tile * WORD as usize;
    let mut c = DenseMatrix::zeros(ops.n, k);
    let mut acc = nmt_engine::mem::take_val(true, k_tile);
    let stats = gpu.launch(shared, nstrips * k_tiles, |ctx| {
        // Block order implements the traversal.
        let (s, kt) = match traversal {
            Traversal::RowMajor => (ctx.block_id / k_tiles, ctx.block_id % k_tiles),
            Traversal::ColumnMajor => (ctx.block_id % nstrips, ctx.block_id / nstrips),
        };
        let k_lo = kt * k_tile;
        let k_range = (k_lo, k_tile.min(k - k_lo));
        let strip = &strips[s];
        let b_rows = strip.width().min(b.nrows().saturating_sub(s * tile_w));
        load_b_tile(ctx, &ops.b_dev, s * tile_w, b_rows, k_range);
        // The engine's cursor into the strip's contiguous CSC elements.
        let mut elem = 0;
        if let ASource::Engine { csc, dev } = a {
            // Boundary/frontier pointers come from col_ptr once per strip
            // (Figure 14 ❶).
            ctx.ld_global(
                &dev.colptr,
                (s * tile_w) as u64 * WORD,
                (strip.width() as u64 + 1) * WORD,
                false,
            );
            elem = csc.colptr()[s * tile_w] as u64;
        }
        for (t, tile) in strip.tiles().enumerate() {
            match a {
                ASource::Packed(dev) => {
                    let (off, len) = dev.offsets[s][t];
                    let dir_bytes = 8.min(dev.data.len);
                    let dir_off = off.min(dev.data.len - dir_bytes);
                    ctx.ld_global(&dev.data, dir_off, dir_bytes, false);
                    if len > 0 {
                        ctx.ld_global(&dev.data, off, len, false);
                    }
                }
                ASource::Engine { dev, .. } => {
                    // GetDCSRTile request: much like a warp vector store.
                    ctx.warp_instr(InstrClass::Memory, ctx.warp_size(), 1);
                    // The tile consumes the strip's next `nnz` elements,
                    // rowidx + value each (sequential frontier advance).
                    if tile.nnz() > 0 {
                        let bytes = tile.nnz() as u64 * WORD;
                        ctx.ld_global(&dev.rowidx, elem * WORD, bytes, false);
                        ctx.ld_global(&dev.values, elem * WORD, bytes, false);
                        elem += tile.nnz() as u64;
                    }
                    // Converted rows arrive over the Xbar into shared
                    // memory: crossbar bandwidth and issue slots, but no
                    // DRAM bandwidth — the engine's whole point.
                    ctx.xbar_stream((tile.metadata_bytes() + tile.data_bytes()) as u64);
                }
            }
            for i in 0..tile.nnz_rows() {
                let (lo, hi) = (tile.rowptr[i] as usize, tile.rowptr[i + 1] as usize);
                ctx.warp_instr(InstrClass::ControlFlow, 1, 1);
                process_tile_row(
                    ctx,
                    &mut c,
                    ops,
                    (tile.row_start + tile.rowidx[i]) as usize,
                    &tile.colidx[lo..hi],
                    tile.col_start,
                    &tile.values[lo..hi],
                    k_range,
                    &mut acc,
                );
            }
        }
    })?;
    nmt_engine::mem::put_val(true, acc);
    Ok(KernelRun { c, stats })
}

/// The strip loop over offline-tiled DCSR packed in DRAM.
fn launch_packed(
    gpu: &mut Gpu,
    tiled: &TiledDcsr,
    b: &DenseMatrix,
    k_tile: usize,
    traversal: Traversal,
) -> Result<KernelRun, SimError> {
    let tile_w = tiled.tile_width();
    check_dims(tiled.shape(), b, tile_w)?;
    let a_dev = TiledDcsrDevice::upload(gpu, tiled);
    let ops = Operands::upload(gpu, b, tiled.shape().nrows);
    let a = ASource::Packed(&a_dev);
    launch_strips(gpu, tiled.strips(), a, &ops, tile_w, k_tile, traversal)
}

/// B-stationary over offline-tiled **DCSR** (stored pre-tiled in DRAM):
/// one block per strip, its B tile resident in shared memory across all
/// of the strip's tiles.
pub fn bstat_tiled_dcsr_offline(
    gpu: &mut Gpu,
    tiled: &TiledDcsr,
    b: &DenseMatrix,
) -> Result<KernelRun, SimError> {
    launch_packed(gpu, tiled, b, b.ncols(), Traversal::ColumnMajor)
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
    launch_packed(gpu, tiled, b, tiled.tile_width(), traversal)
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
/// through: the farm records its own spans (`engine.farm`, one
/// `engine.farm.strip` per strip on the worker that ran it), the
/// post-farm bookkeeping runs under `engine.convert` and the launch under
/// `kernels.launch`; each strip records a `KernelStrip` flight event and
/// per-strip FLOP/element/stream-byte histograms in the metric registry.
/// An enabled and a disabled context run the same simulation and publish
/// the same metrics; they differ only in span events.
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
    let k = b.ncols();
    let a_dev = CscDevice::upload(gpu, csc);
    let ops = Operands::upload(gpu, b, shape.nrows);

    // Pre-run the functional converters: one engine per FB partition,
    // strips sharded rayon-parallel across the farm (§6.1). The farm's
    // reduction is partition-index-ordered, so `engine` and every obs
    // counter below are byte-identical at any thread count.
    let nstrips = nmt_formats::strip_count(shape.ncols, tile_w);
    let farm_cfg =
        FarmConfig::for_partitions(gpu.config().num_partitions).with_fault(gpu.fault_plan());
    let farm = convert_matrix_farm_obs(csc, tile_w, tile_h, farm_cfg, obs);
    let farm = farm.map_err(|e| match e {
        nmt_engine::FarmError::Fault { site, key, detail } => {
            SimError::InjectedFault { site, key, detail }
        }
        other => SimError::BadConfig(other.to_string()),
    })?;
    let engine = farm.stats;
    {
        let _convert_span = obs.span("engine.convert");
        // Record events and histograms serially, strips ascending: their
        // order and contents stay identical to a serial run.
        for (s, st) in farm.per_strip.iter().enumerate() {
            obs.flight
                .record(nmt_obs::EventSite::KernelStrip, 0, s as u64, st.elements);
            let m = &obs.metrics;
            m.histogram_record("kernels.bstat_online.strip_elements", st.elements);
            m.histogram_record(
                "kernels.bstat_online.strip_flops",
                2 * k as u64 * st.elements,
            );
            m.histogram_record("kernels.bstat_online.strip_stream_bytes", st.output_bytes);
        }
    }
    publish_conversion(obs, &engine);
    publish_farm(obs, &farm);
    let strips = farm.strips;

    // One block per strip, exactly the device loop of Figure 11: the block
    // initializes col_frontier, loads its B tile once, then issues one
    // GetDCSRTile per DCSR_HEIGHT rows.
    let launch_span = obs.span("kernels.launch");
    obs.flight.record(
        nmt_obs::EventSite::KernelLaunch,
        0,
        nstrips as u64,
        k as u64,
    );
    let a = ASource::Engine { csc, dev: &a_dev };
    let run = launch_strips(gpu, &strips, a, &ops, tile_w, k, Traversal::ColumnMajor)?;
    // The freshly-minted strips have been consumed; hand their buffers
    // back so the next online conversion of a similar matrix allocates
    // nothing.
    if farm_cfg.pool {
        nmt_engine::mem::recycle_strips(strips);
    }
    drop(launch_span);
    Ok(OnlineRun { run, engine })
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

    /// An output's bit patterns (`==` on `f32` would let -0.0 match 0.0).
    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
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
    fn online_and_offline_differ_only_on_the_a_side() {
        // Same tiles, same B, same C: only where A's bytes come from (the
        // packed DRAM tiles vs the engine's CSC stream) may differ.
        for (n, density, seed) in [(128, 0.02, 31), (200, 0.01, 32), (96, 0.1, 33)] {
            let a = matrix(n, density, seed);
            let b = random_dense(n, 24, seed + 100);
            let online = bstat_tiled_dcsr_online(&mut gpu(), &a.to_csc(), &b, 16, 16).unwrap();
            let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
            let offline = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b).unwrap();
            let (on, off) = (&online.run.stats, &offline.stats);
            let same = bits(&online.run.c) == bits(&offline.c);
            assert!(same, "n={n}: C bits differ");
            for class in [TrafficClass::MatB, TrafficClass::MatC] {
                assert_eq!(
                    on.requested_traffic.get(class),
                    off.requested_traffic.get(class),
                    "n={n}: requested {class:?} bytes differ"
                );
            }
            assert_eq!(on.atomics, off.atomics, "n={n}");
            assert_eq!(on.flops, off.flops, "n={n}");
        }
    }

    #[test]
    fn offline_is_traversal_with_one_k_tile() {
        // For k <= tile_w both traversal orders map block b to (b, 0), so
        // the traversal kernel computes exactly what the offline one does.
        for (k, seed) in [(16, 41), (9, 42), (1, 43)] {
            let a = matrix(144, 0.03, seed);
            let tiled = TiledDcsr::from_csr(&a, 16, 16).unwrap();
            let b = random_dense(144, k, seed + 100);
            let offline = bstat_tiled_dcsr_offline(&mut gpu(), &tiled, &b).unwrap();
            for order in [Traversal::RowMajor, Traversal::ColumnMajor] {
                let run = bstat_tiled_dcsr_traversal(&mut gpu(), &tiled, &b, order).unwrap();
                assert_eq!(run.stats, offline.stats, "k={k} {order:?}: stats differ");
                let same = bits(&run.c) == bits(&offline.c);
                assert!(same, "k={k} {order:?}: C bits differ");
            }
        }
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

        // One kernel-strip event per strip, recorded inside the
        // engine.convert span on its thread, carrying the strip's elements.
        let mut convert = None;
        let mut launched = false;
        let mut strips = Vec::new();
        nmt_obs::span::walk(&obs.flight.lanes(), |step| match step {
            nmt_obs::span::Step::End { span, .. } if span.name == "engine.convert" => {
                convert = Some(span);
            }
            nmt_obs::span::Step::End { span, .. } => launched |= span.name == "kernels.launch",
            nmt_obs::span::Step::Event(e) if e.site == nmt_obs::EventSite::KernelStrip => {
                strips.push(*e);
            }
            _ => {}
        });
        let convert = convert.expect("engine.convert span");
        let nstrips = 128usize.div_ceil(16);
        assert_eq!(strips.len(), nstrips);
        assert!(strips.iter().all(
            |e| e.tid == convert.tid && (convert.start_ns..=convert.end_ns).contains(&e.ts_ns)
        ));
        assert_eq!(strips.iter().map(|e| e.b).sum::<u64>(), a.nnz() as u64);
        assert!(launched, "kernels.launch span");

        let snap = obs.metrics.snapshot();
        let h = &snap.histograms["kernels.bstat_online.strip_elements"];
        assert_eq!(h.count, nstrips as u64);
        assert_eq!(h.sum, a.nnz() as u64);
        let flops = &snap.histograms["kernels.bstat_online.strip_flops"];
        assert_eq!(flops.sum, 2 * 16 * a.nnz() as u64);
        // A disabled context publishes exactly the same metrics: observing
        // the run adds span events and nothing else.
        let quiet = ObsContext::disabled();
        bstat_tiled_dcsr_online_obs(&mut gpu(), &csc, &b, 16, 16, &quiet).unwrap();
        assert_eq!(quiet.metrics.snapshot().flat(), snap.flat());
        // The conversion bridge published whole-matrix totals.
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
