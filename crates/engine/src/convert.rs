//! Functional model of the CSC → tiled-DCSR conversion unit (Figures 13–14).
//!
//! One [`StripConverter`] models the engine state for one vertical strip:
//!
//! 1. `boundary_ptr` and `frontier_ptr` are loaded from the CSC `col_ptr`
//!    (step ① of Figure 13) — two N-element pointer arrays (Figure 14 ❶);
//! 2. each step, lanes with remaining elements present their frontier row
//!    coordinate to the comparator tree, which returns the minimum row and
//!    the set of lanes holding it (❷–❸);
//! 3. the winning lanes' elements are copied out as one DCSR row (value,
//!    col_idx; row_ptr incremented by the lane count; row_idx = the minimum
//!    row coordinate), and their frontiers advance (❹–❺);
//! 4. repeat until the lanes sweep the designated tile, then return the
//!    tile (④ of Figure 13).
//!
//! The converter is *stateful across tiles* in a strip: walking tiles
//! top-to-bottom needs no re-scanning (sequential access), and random tile
//! access repositions the frontier by binary search on the CSC columns —
//! both properties §4.1 credits to the CSC baseline format.

use crate::comparator::{ComparatorTree, MinScratch, MAX_LANES};
use crate::farm::{convert_matrix_farm_obs, FarmConfig, FarmError, FarmRun};
use crate::mem;
use crate::placement::Layout;
use nmt_formats::{
    Csc, CscView, DcsrTile, FormatError, Index, SparseMatrix, Value, INDEX_BYTES, VALUE_BYTES,
};
use std::ops::Range;

/// Byte cost of one streamed CSC element: a 4-byte row index plus a 4-byte
/// fp32 value ("8-byte input data", §5.3).
pub const INPUT_BYTES_PER_ELEM: u64 = 8;

/// Running hardware-activity counters for one converter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionStats {
    /// Comparator-tree passes performed (one per emitted DCSR row, plus
    /// one concluding pass that finds the tile exhausted).
    pub comparator_passes: u64,
    /// Elements converted (CSC entries consumed = DCSR entries produced).
    pub elements: u64,
    /// DCSR rows emitted (non-empty row segments).
    pub rows_emitted: u64,
    /// Tiles produced.
    pub tiles: u64,
    /// Bytes read from DRAM: column-pointer loads + streamed elements.
    pub input_bytes: u64,
    /// Bytes of tiled-DCSR stream sent to the requesting SM over the Xbar.
    pub output_bytes: u64,
    /// Comparator-lane slots offered across all passes (passes × lanes) —
    /// the denominator of [`ConversionStats::comparator_occupancy`].
    pub lane_slots: u64,
}

impl ConversionStats {
    /// Accumulate another converter's counters into this one.
    pub fn merge(&mut self, other: &ConversionStats) {
        self.comparator_passes += other.comparator_passes;
        self.elements += other.elements;
        self.rows_emitted += other.rows_emitted;
        self.tiles += other.tiles;
        self.input_bytes += other.input_bytes;
        self.output_bytes += other.output_bytes;
        self.lane_slots += other.lane_slots;
    }

    /// Counter-wise difference `self - before`, for attributing the work
    /// of one tile (or one drain step) out of a cumulative counter. All
    /// counters are monotone, so `before` must be an earlier snapshot of
    /// the same converter.
    pub fn delta(&self, before: &ConversionStats) -> ConversionStats {
        ConversionStats {
            comparator_passes: self.comparator_passes - before.comparator_passes,
            elements: self.elements - before.elements,
            rows_emitted: self.rows_emitted - before.rows_emitted,
            tiles: self.tiles - before.tiles,
            input_bytes: self.input_bytes - before.input_bytes,
            output_bytes: self.output_bytes - before.output_bytes,
            lane_slots: self.lane_slots - before.lane_slots,
        }
    }

    /// Fraction of comparator-lane slots that emitted an element — how
    /// full the tree's input registers ran (1.0 = every lane contributed
    /// on every pass; low values mean tall, sparse columns).
    pub fn comparator_occupancy(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.elements as f64 / self.lane_slots as f64
        }
    }
}

/// Bridge a conversion's [`ConversionStats`] into the observability
/// registry under `engine.convert.*` / `engine.comparator.*`.
pub fn publish_conversion(obs: &nmt_obs::ObsContext, stats: &ConversionStats) {
    let m = &obs.metrics;
    m.counter_add("engine.convert.elements", stats.elements);
    m.counter_add("engine.convert.rows_emitted", stats.rows_emitted);
    m.counter_add("engine.convert.tiles", stats.tiles);
    m.counter_add("engine.convert.input_bytes", stats.input_bytes);
    m.counter_add("engine.convert.output_bytes", stats.output_bytes);
    m.counter_add("engine.comparator.passes", stats.comparator_passes);
    m.counter_add("engine.comparator.lane_slots", stats.lane_slots);
    m.gauge_set(
        "engine.comparator.occupancy",
        stats.comparator_occupancy(),
    );
}

/// Where one tile sits inside its [`DcsrStrip`], plus the converter work
/// spent on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileHeader {
    /// First global row covered by the tile.
    pub row_start: Index,
    /// Tile height (rows covered; ≤ nominal tile height at the bottom edge).
    pub height: usize,
    /// The tile's entries in the strip's `rowidx`; its `rowptr` segment
    /// is the same range shifted by the tile index (one extra entry each).
    rows: Range<usize>,
    /// The tile's entries in the strip's `colidx` and `values`.
    elems: Range<usize>,
    /// Converter counters spent on this tile. The first tile also carries
    /// the strip's pointer loads (Figure 14 ❶), so a strip's deltas sum
    /// to its converter's total.
    pub stats: ConversionStats,
}

/// One strip's converted tiles, stored back to back in one set of
/// buffers — the unit an SM consumes (one block per strip, `GetDCSRTile`
/// per tile, Figure 11). Tile `t`'s `rowptr` segment starts at 0, exactly
/// as in a standalone [`DcsrTile`]; [`Self::tile`] borrows it as a
/// [`DcsrTileView`] and [`Self::to_tiles`] copies the strip out as owned
/// tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct DcsrStrip {
    col_start: Index,
    width: usize,
    rowidx: Vec<Index>,
    rowptr: Vec<Index>,
    colidx: Vec<Index>,
    values: Vec<Value>,
    tiles: Vec<TileHeader>,
}

/// A borrowed tile of a [`DcsrStrip`], with [`DcsrTile`]'s field names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcsrTileView<'a> {
    /// First global row covered by the tile.
    pub row_start: Index,
    /// First global column covered by the tile.
    pub col_start: Index,
    /// Tile height (rows covered).
    pub height: usize,
    /// Tile width (columns covered).
    pub width: usize,
    /// Local indices of non-empty rows within the tile.
    pub rowidx: &'a [Index],
    /// Row pointers over the densified rows (`rowidx.len() + 1` entries).
    pub rowptr: &'a [Index],
    /// Local column indices (`0 .. width`).
    pub colidx: &'a [Index],
    /// Values.
    pub values: &'a [Value],
}

impl DcsrTileView<'_> {
    /// Number of non-zeros in the tile.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Number of non-empty row segments.
    pub fn nnz_rows(&self) -> usize {
        self.rowidx.len()
    }

    /// Metadata bytes: colidx + rowptr + rowidx, all 4-byte entries.
    pub fn metadata_bytes(&self) -> usize {
        (self.colidx.len() + self.rowptr.len() + self.rowidx.len()) * INDEX_BYTES
    }

    /// Value payload bytes.
    pub fn data_bytes(&self) -> usize {
        self.values.len() * VALUE_BYTES
    }

    /// An owned copy of the tile.
    pub fn to_tile(&self) -> DcsrTile {
        DcsrTile {
            row_start: self.row_start,
            col_start: self.col_start,
            height: self.height,
            width: self.width,
            rowidx: self.rowidx.to_vec(),
            rowptr: self.rowptr.to_vec(),
            colidx: self.colidx.to_vec(),
            values: self.values.to_vec(),
        }
    }

    /// [`DcsrTile::validate`] on this tile (checks an owned copy).
    pub fn validate(&self) -> Result<(), FormatError> {
        self.to_tile().validate()
    }
}

impl DcsrStrip {
    /// An empty strip whose buffers hold `elems` elements, `rows`
    /// non-empty rows and `ntiles` tiles without growing — checked out of
    /// the engine pools when `pooled`.
    fn with_capacity(
        pooled: bool,
        col_start: Index,
        width: usize,
        elems: usize,
        rows: usize,
        ntiles: usize,
    ) -> Self {
        DcsrStrip {
            col_start,
            width,
            rowidx: mem::take_idx(pooled, rows),
            rowptr: mem::take_idx(pooled, rows + ntiles),
            colidx: mem::take_idx(pooled, elems),
            values: mem::take_val(pooled, elems),
            tiles: mem::take_headers(pooled, ntiles),
        }
    }

    /// Return the strip's buffers to the engine pools.
    pub(crate) fn recycle(self) {
        mem::put_idx(true, self.rowidx);
        mem::put_idx(true, self.rowptr);
        mem::put_idx(true, self.colidx);
        mem::put_val(true, self.values);
        mem::put_headers(true, self.tiles);
    }

    /// Number of tiles in the strip.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Strip width (columns covered; ≤ nominal width at the right edge).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Per-tile headers, top to bottom.
    pub fn headers(&self) -> &[TileHeader] {
        &self.tiles
    }

    /// Tile `t` (top to bottom), borrowed. Panics if `t` is out of range.
    pub fn tile(&self, t: usize) -> DcsrTileView<'_> {
        let h = &self.tiles[t];
        DcsrTileView {
            row_start: h.row_start,
            col_start: self.col_start,
            height: h.height,
            width: self.width,
            rowidx: &self.rowidx[h.rows.clone()],
            rowptr: &self.rowptr[h.rows.start + t..h.rows.end + t + 1],
            colidx: &self.colidx[h.elems.clone()],
            values: &self.values[h.elems.clone()],
        }
    }

    /// Owned copies of every tile, top to bottom.
    pub fn to_tiles(&self) -> Vec<DcsrTile> {
        (0..self.num_tiles())
            .map(|t| self.tile(t).to_tile())
            .collect()
    }
}

/// Stateful converter for one vertical strip of a CSC matrix.
#[derive(Debug, Clone)]
pub struct StripConverter<'a> {
    csc: CscView<'a>,
    strip_id: usize,
    col_start: usize,
    width: usize,
    /// Live lanes: `width`, or 0 for the phantom strip of a zero-column
    /// matrix.
    lanes: usize,
    /// Absolute index of each lane's next element in the CSC arrays.
    frontier: [usize; MAX_LANES],
    /// Absolute end index of each lane's column.
    boundary: [usize; MAX_LANES],
    /// Lane-coordinate staging reused across every comparator pass.
    coords: [Option<u32>; MAX_LANES],
    /// Comparator reduction scratch (fixed-size, stack-style).
    min_scratch: MinScratch,
    /// Whether [`Self::convert_strip`] checks its strip buffers out of
    /// the engine pools ([`crate::mem`]).
    pooled: bool,
    tree: ComparatorTree,
    stats: ConversionStats,
    /// `stats` when the last tile was emitted: each tile's header records
    /// the difference.
    mark: ConversionStats,
}

impl<'a> StripConverter<'a> {
    /// Position a converter at the top of strip `strip_id` (width
    /// `tile_w`). Panics if the strip is outside the matrix.
    /// Unpooled: strip buffers are freshly allocated (the farm's hot path
    /// uses [`Self::with_view`]).
    pub fn new(csc: &'a Csc, strip_id: usize, tile_w: usize) -> Self {
        Self::with_view(csc.view(), strip_id, tile_w, false)
    }

    /// [`Self::new`] over a borrowed [`CscView`]; with `pooled`,
    /// [`Self::convert_strip`] checks its buffers out of the global
    /// pools — return them with [`crate::mem::recycle_strips`].
    pub fn with_view(csc: CscView<'a>, strip_id: usize, tile_w: usize, pooled: bool) -> Self {
        assert!(
            tile_w > 0 && tile_w <= MAX_LANES,
            "engine width is 1..=64 columns"
        );
        let ncols = csc.shape().ncols;
        let col_start = strip_id * tile_w;
        assert!(col_start < ncols.max(1), "strip {strip_id} beyond matrix");
        // A zero-column matrix yields a zero-lane converter that emits
        // only empty tiles (the comparator tree still needs >= 1 lane, so
        // clamp and guard the pointer loads).
        let width = tile_w
            .min(ncols.saturating_sub(col_start))
            .max(1)
            .min(ncols.max(1));
        let lanes = width.min(ncols.saturating_sub(col_start));
        let mut frontier = [0; MAX_LANES];
        let mut boundary = [0; MAX_LANES];
        let lane_ptrs = csc.colptr().get(col_start..).unwrap_or_default().windows(2);
        for ((f, b), ptr) in frontier
            .iter_mut()
            .zip(&mut boundary)
            .zip(lane_ptrs)
            .take(lanes)
        {
            *f = ptr[0] as usize;
            *b = ptr[1] as usize;
        }
        let mut stats = ConversionStats::default();
        // Loading boundary_ptr + frontier_ptr from col_ptr: 2 N-element
        // 4-byte arrays (Figure 14 ❶).
        stats.input_bytes += 2 * width as u64 * 4;
        Self {
            csc,
            strip_id,
            col_start,
            width,
            lanes,
            frontier,
            boundary,
            coords: [None; MAX_LANES],
            min_scratch: MinScratch::new(),
            pooled,
            // nmt-lint: allow(panic) — lanes is clamped to 1..=64 two lines up, within ComparatorTree's bound
            tree: ComparatorTree::new(lanes.max(1)).expect("lanes clamped to 1..=64"),
            stats,
            mark: ConversionStats::default(),
        }
    }

    /// The strip index this converter serves.
    pub fn strip_id(&self) -> usize {
        self.strip_id
    }

    /// Activity counters so far.
    pub fn stats(&self) -> ConversionStats {
        self.stats
    }

    /// Reposition every lane to the first element with row ≥ `row_start`
    /// (random tile access; binary search per column, §4.1).
    pub fn seek(&mut self, row_start: Index) {
        for (lane, f) in self.frontier.iter_mut().enumerate().take(self.lanes) {
            *f = self.csc.col_frontier_at(self.col_start + lane, row_start);
        }
    }

    /// Elements left between the lanes' frontiers and their column ends —
    /// an upper bound on what the converter can still emit, and exactly
    /// the strip's element count on a fresh converter.
    fn remaining(&self) -> usize {
        (0..self.lanes)
            .map(|lane| self.boundary[lane] - self.frontier[lane])
            .sum()
    }

    /// Convert the next `tile_h` rows starting at `row_start` into one
    /// DCSR tile (the `GetDCSRTile` operation of Figure 11, minus the
    /// request plumbing). Lanes must already be at or past `row_start`
    /// (they are, after sequential use or `seek`).
    pub fn next_tile(&mut self, row_start: Index, tile_h: usize) -> DcsrTile {
        let elems = self.remaining();
        let mut strip = DcsrStrip::with_capacity(
            false,
            self.col_start as Index,
            self.width,
            elems,
            elems.min(tile_h),
            1,
        );
        self.push_tile(row_start, tile_h, &mut strip);
        strip.tile(0).to_tile()
    }

    /// Convert the whole strip as consecutive `tile_h`-tall tiles into
    /// one set of buffers, sized up front: the element count is exact
    /// from `col_ptr`, and a tile emits at most one row per element and
    /// per covered row, so the rows total at most `min(nnz, nrows)`.
    pub fn convert_strip(&mut self, tile_h: usize) -> DcsrStrip {
        let nrows = self.csc.shape().nrows;
        let ntiles = nmt_formats::tile_count(nrows, tile_h);
        let elems = self.remaining();
        let mut strip = DcsrStrip::with_capacity(
            self.pooled,
            self.col_start as Index,
            self.width,
            elems,
            elems.min(nrows),
            ntiles,
        );
        for t in 0..ntiles {
            self.push_tile((t * tile_h) as Index, tile_h, &mut strip);
        }
        strip
    }

    /// The converter loop: append the tile of `tile_h` rows starting at
    /// `row_start` to `strip`, one comparator pass per emitted row.
    fn push_tile(&mut self, row_start: Index, tile_h: usize, strip: &mut DcsrStrip) {
        let nrows = self.csc.shape().nrows;
        let height = tile_h.min(nrows.saturating_sub(row_start as usize)).max(1);
        let row_end = row_start + height as Index;
        let (rows_lo, elems_lo) = (strip.rowidx.len(), strip.colidx.len());
        let rowidx = self.csc.rowidx();
        let values = self.csc.values();
        let lanes = self.lanes;
        strip.rowptr.push(0);
        loop {
            self.stats.comparator_passes += 1;
            self.stats.lane_slots += lanes as u64;
            // Present each lane's frontier row (masked to the tile) to
            // the tree. A zero-lane converter keeps its one `None`.
            for lane in 0..lanes {
                let f = self.frontier[lane];
                self.coords[lane] = (f < self.boundary[lane])
                    .then(|| rowidx[f])
                    .filter(|&r| r < row_end);
            }
            let Some(min) = self
                .tree
                .find_min_in(&self.coords[..lanes.max(1)], &mut self.min_scratch)
            else {
                break;
            };
            // Emit one DCSR row: all lanes at the minimum row coordinate,
            // in ascending lane (= column) order.
            strip.rowidx.push(min.min - row_start);
            let mut mask = min.mask;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                strip.colidx.push(lane as Index);
                strip.values.push(values[self.frontier[lane]]);
                self.frontier[lane] += 1;
            }
            let emitted = min.mask.count_ones() as u64;
            self.stats.elements += emitted;
            self.stats.input_bytes += emitted * INPUT_BYTES_PER_ELEM;
            strip.rowptr.push((strip.colidx.len() - elems_lo) as Index);
            self.stats.rows_emitted += 1;
        }
        let (rows, elems) = (strip.rowidx.len() - rows_lo, strip.colidx.len() - elems_lo);
        self.stats.tiles += 1;
        // values + colidx + rowidx + rowptr, 4 bytes each.
        self.stats.output_bytes += 4 * (2 * elems + 2 * rows + 1) as u64;
        strip.tiles.push(TileHeader {
            row_start,
            height,
            rows: rows_lo..rows_lo + rows,
            elems: elems_lo..elems_lo + elems,
            stats: self.stats.delta(&self.mark),
        });
        self.mark = self.stats;
        debug_assert!(
            strip.tile(strip.num_tiles() - 1).validate().is_ok(),
            "engine produced an invalid tile"
        );
    }
}

/// One engine, fresh buffers, no fault plan: the farm configuration behind
/// the owned-tile conversions below.
const SINGLE_ENGINE: FarmConfig = FarmConfig {
    partitions: 1,
    layout: Layout::TileRotated,
    fault: None,
    pool: false,
};

/// Copy a [`SINGLE_ENGINE`] farm run out as owned tiles per strip.
fn owned_tiles(run: Result<FarmRun, FarmError>) -> (Vec<Vec<DcsrTile>>, ConversionStats) {
    let run = run.expect("a one-engine farm without a fault plan cannot fail");
    (
        run.strips.iter().map(DcsrStrip::to_tiles).collect(),
        run.stats,
    )
}

/// Convert an entire CSC matrix to tiled DCSR through the engine model —
/// the online equivalent of [`nmt_formats::TiledDcsr::from_csr`]. Returns
/// the tiles per strip and the merged hardware-activity counters.
///
/// Runs the engine farm ([`convert_matrix_farm_obs`]) with one engine and
/// copies its strips out as owned tiles, so the output is identical at
/// any thread count.
pub fn convert_matrix(
    csc: &Csc,
    tile_w: usize,
    tile_h: usize,
) -> (Vec<Vec<DcsrTile>>, ConversionStats) {
    owned_tiles(convert_matrix_farm_obs(
        csc.view(),
        tile_w,
        tile_h,
        SINGLE_ENGINE,
        &nmt_obs::ObsContext::disabled(),
    ))
}

/// CSR → tiled-**DCSC** conversion "using the same engine" (§4.1).
///
/// A CSR image of `A` is, byte for byte, a CSC image of `Aᵀ`
/// (`rowptr → colptr`, `colidx → rowidx`), so feeding it to the engine
/// produces DCSR tiles of `Aᵀ` — which are exactly DCSC tiles of `A` with
/// the roles of `rowidx`/`colidx` swapped. This is the escape hatch for
/// wide matrices whose CSC `colptr` would dominate storage: keep CSR in
/// memory and let SM-side DCSC kernels consume the engine's output.
///
/// Returns the tiles of `Aᵀ` (strip-major over `A`'s *rows*) plus the
/// engine counters; interpret each [`DcsrTile`]'s `rowidx` as non-empty
/// **columns** of `A` and `colidx` as **rows** of `A`. Runs through the
/// farm exactly as [`convert_matrix`] does.
pub fn convert_matrix_dcsc(
    csr: &nmt_formats::Csr,
    tile_w: usize,
    tile_h: usize,
) -> (Vec<Vec<DcsrTile>>, ConversionStats) {
    // Reinterpret the CSR arrays as CSC of the transpose — a zero-copy
    // borrow, exactly what the hardware would see.
    owned_tiles(convert_matrix_farm_obs(
        CscView::transpose_of_csr(csr),
        tile_w,
        tile_h,
        SINGLE_ENGINE,
        &nmt_obs::ObsContext::disabled(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmt_formats::{Coo, Csr, SparseMatrix, TiledDcsr};

    /// The Figure 13 walk-through strip: 5 rows x 3 cols,
    /// col0 = {a0@0, a2@2, a4@4}, col1 = {b0@0, b1@1, b4@4},
    /// col2 = {c0@0, c2@2}.
    fn figure13_csc() -> Csc {
        Csc::new(
            5,
            3,
            vec![0, 3, 6, 8],
            vec![0, 2, 4, 0, 1, 4, 0, 2],
            vec![10.0, 12.0, 14.0, 20.0, 21.0, 24.0, 30.0, 32.0],
        )
        .unwrap()
    }

    #[test]
    fn figure13_walkthrough() {
        let csc = figure13_csc();
        let mut conv = StripConverter::new(&csc, 0, 3);
        let tile = conv.next_tile(0, 5);
        // Expected DCSR (Figure 13, bottom right):
        // value  = a0 b0 c0 | b1 | a2 c2 | a4 b4
        // colidx = 0  1  2  | 1  | 0  2  | 0  1
        // rowptr = 0 3 4 6 8 ; rowidx = 0 1 2 4
        assert_eq!(
            tile.values,
            vec![10.0, 20.0, 30.0, 21.0, 12.0, 32.0, 14.0, 24.0]
        );
        assert_eq!(tile.colidx, vec![0, 1, 2, 1, 0, 2, 0, 1]);
        assert_eq!(tile.rowptr, vec![0, 3, 4, 6, 8]);
        assert_eq!(tile.rowidx, vec![0, 1, 2, 4]);
        let st = conv.stats();
        assert_eq!(st.elements, 8);
        assert_eq!(st.rows_emitted, 4);
        // 4 emitting passes + 1 concluding pass.
        assert_eq!(st.comparator_passes, 5);
        // 2 pointer arrays of 3 lanes + 8 elements x 8 bytes.
        assert_eq!(st.input_bytes, 24 + 64);
        // 5 passes x 3 lanes offered, 8 slots emitted.
        assert_eq!(st.lane_slots, 15);
        assert!((st.comparator_occupancy() - 8.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn stats_merge_accumulates_all_fields() {
        let csc = figure13_csc();
        let mut a = StripConverter::new(&csc, 0, 3);
        a.next_tile(0, 5);
        let st = a.stats();
        let mut merged = ConversionStats::default();
        merged.merge(&st);
        merged.merge(&st);
        assert_eq!(merged.elements, 2 * st.elements);
        assert_eq!(merged.comparator_passes, 2 * st.comparator_passes);
        assert_eq!(merged.lane_slots, 2 * st.lane_slots);
        assert_eq!(merged.input_bytes, 2 * st.input_bytes);
        assert_eq!(merged.output_bytes, 2 * st.output_bytes);
        assert_eq!(merged.rows_emitted, 2 * st.rows_emitted);
        assert_eq!(merged.tiles, 2 * st.tiles);
        // Occupancy is scale-invariant under merge of identical runs.
        assert!((merged.comparator_occupancy() - st.comparator_occupancy()).abs() < 1e-12);
        assert_eq!(ConversionStats::default().comparator_occupancy(), 0.0);
    }

    #[test]
    fn publish_conversion_bridges_to_registry() {
        let csc = figure13_csc();
        let (_, stats) = convert_matrix(&csc, 3, 5);
        let obs = nmt_obs::ObsContext::disabled();
        publish_conversion(&obs, &stats);
        assert_eq!(obs.metrics.counter("engine.convert.elements"), 8);
        assert_eq!(obs.metrics.counter("engine.comparator.passes"), 5);
        assert_eq!(
            obs.metrics.gauge("engine.comparator.occupancy"),
            Some(stats.comparator_occupancy())
        );
    }

    fn random_csr(n: usize, nnz: usize, seed: u64) -> Csr {
        // Simple LCG-based deterministic scatter.
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut coo = Coo::new(n, n).unwrap();
        for _ in 0..nnz {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let r = ((state >> 33) as usize) % n;
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let c = ((state >> 33) as usize) % n;
            coo.push(r as u32, c as u32, (r * n + c) as f32 + 0.5)
                .unwrap();
        }
        coo.canonicalize();
        Csr::from_coo(&coo)
    }

    #[test]
    fn online_conversion_matches_offline_tiling() {
        // The engine's output must be bit-identical to offline tiling.
        for &(n, nnz, tile) in &[(60usize, 200usize, 16usize), (100, 50, 32), (64, 64, 64)] {
            let csr = random_csr(n, nnz, n as u64);
            let csc = csr.to_csc();
            let offline = TiledDcsr::from_csr(&csr, tile, tile).unwrap();
            let (online, stats) = convert_matrix(&csc, tile, tile);
            assert_eq!(online.len(), offline.strips().len());
            for (s, strip) in offline.strips().iter().enumerate() {
                assert_eq!(&online[s], strip, "strip {s} differs (n={n})");
            }
            assert_eq!(stats.elements as usize, csr.nnz());
        }
    }

    #[test]
    fn sequential_tiles_share_frontier_state() {
        let csc = figure13_csc();
        let mut conv = StripConverter::new(&csc, 0, 3);
        let t0 = conv.next_tile(0, 2); // rows 0..2
        let t1 = conv.next_tile(2, 2); // rows 2..4
        let t2 = conv.next_tile(4, 2); // row 4
        assert_eq!(t0.rowidx, vec![0, 1]);
        assert_eq!(t1.rowidx, vec![0]); // row 2 local
        assert_eq!(t2.rowidx, vec![0]); // row 4 local
        assert_eq!(
            t0.nnz() + t1.nnz() + t2.nnz(),
            csc.nnz(),
            "tiles must partition the strip"
        );
    }

    #[test]
    fn seek_supports_random_tile_access() {
        let csc = figure13_csc();
        // Jump straight to the tile at rows 2..4 without converting 0..2.
        let mut conv = StripConverter::new(&csc, 0, 3);
        conv.seek(2);
        let tile = conv.next_tile(2, 2);
        assert_eq!(tile.rowidx, vec![0]);
        assert_eq!(tile.values, vec![12.0, 32.0]); // a2, c2
                                                   // Seek back to the top reproduces the first tile.
        conv.seek(0);
        let t0 = conv.next_tile(0, 2);
        assert_eq!(t0.values, vec![10.0, 20.0, 30.0, 21.0]);
    }

    #[test]
    fn second_strip_has_local_columns() {
        let csr = random_csr(40, 120, 9);
        let csc = csr.to_csc();
        let mut conv = StripConverter::new(&csc, 1, 16);
        let strip = conv.convert_strip(16);
        for t in 0..strip.num_tiles() {
            let tile = strip.tile(t);
            assert_eq!(tile.col_start, 16);
            tile.validate().unwrap();
        }
    }

    #[test]
    fn empty_strip_produces_empty_tiles() {
        // Matrix with entries only in column 0; strip 1 is empty.
        let coo = Coo::from_triplets(8, 8, &[0, 3], &[0, 0], &[1.0, 2.0]).unwrap();
        let csc = Csc::from_coo(&coo);
        let mut conv = StripConverter::new(&csc, 1, 4);
        let tiles = conv.convert_strip(4).to_tiles();
        assert_eq!(tiles.len(), 2);
        assert!(tiles.iter().all(nmt_formats::DcsrTile::is_empty));
        assert_eq!(conv.stats().elements, 0);
        // Still pays the pointer-array load and one concluding pass/tile.
        assert_eq!(conv.stats().comparator_passes, 2);
    }

    #[test]
    fn output_bytes_match_tile_footprint() {
        let csc = figure13_csc();
        let mut conv = StripConverter::new(&csc, 0, 3);
        let tile = conv.next_tile(0, 5);
        let expected = tile.metadata_bytes() + tile.data_bytes();
        assert_eq!(conv.stats().output_bytes as usize, expected);
    }

    #[test]
    fn dcsc_conversion_is_tiling_of_the_transpose() {
        let csr = random_csr(48, 150, 21);
        let (tiles, stats) = convert_matrix_dcsc(&csr, 16, 16);
        let expected = TiledDcsr::from_csr(&csr.transpose(), 16, 16).unwrap();
        assert_eq!(tiles.len(), expected.strips().len());
        for (s, strip) in expected.strips().iter().enumerate() {
            assert_eq!(&tiles[s], strip, "strip {s}");
        }
        assert_eq!(stats.elements as usize, csr.nnz());
        // Reassembling the tiles yields A transposed; its non-empty rows
        // are A's non-empty columns (the DCSC semantics).
        let back = expected.to_csr();
        assert_eq!(back.transpose(), csr);
    }

    #[test]
    fn dcsc_of_wide_matrix() {
        // The §4.1 motivation: a wide matrix whose CSC colptr would be
        // large converts through its compact CSR image instead.
        let coo = Coo::from_triplets(4, 200, &[0, 1, 3], &[5, 150, 5], &[1.0, 2.0, 3.0]).unwrap();
        let csr = Csr::from_coo(&coo);
        let (tiles, stats) = convert_matrix_dcsc(&csr, 4, 64);
        assert_eq!(stats.elements, 3);
        // One strip over A's 4 rows; tiles cover A's 200 columns.
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].len(), 200usize.div_ceil(64));
        let nnz: usize = tiles[0].iter().map(nmt_formats::DcsrTile::nnz).sum();
        assert_eq!(nnz, 3);
    }

    #[test]
    fn ragged_last_strip() {
        let csr = random_csr(20, 60, 3);
        let csc = csr.to_csc();
        // 20 cols with 16-wide strips: strip 1 is 4 wide.
        let (tiles, _) = convert_matrix(&csc, 16, 16);
        assert_eq!(tiles.len(), 2);
        let offline = TiledDcsr::from_csr(&csr, 16, 16).unwrap();
        assert_eq!(tiles[1], offline.strips()[1]);
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use nmt_formats::Csc;

    #[test]
    fn zero_column_matrix_converts_to_empty_tiles() {
        // Review regression: a zero-column CSC used to panic initializing
        // the frontier pointers.
        let csc = Csc::new(4, 0, vec![0], vec![], vec![]).unwrap();
        let (tiles, stats) = convert_matrix(&csc, 16, 16);
        assert_eq!(tiles.len(), 1);
        assert!(tiles[0].iter().all(nmt_formats::DcsrTile::is_empty));
        assert_eq!(stats.elements, 0);
    }

    #[test]
    fn zero_row_matrix_converts_to_empty_tiles() {
        let csc = Csc::new(0, 8, vec![0; 9], vec![], vec![]).unwrap();
        let (tiles, stats) = convert_matrix(&csc, 4, 4);
        assert_eq!(tiles.len(), 2);
        assert_eq!(stats.elements, 0);
    }
}
