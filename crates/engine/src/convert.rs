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
use crate::farm::{convert_matrix_farm_obs, FarmConfig, FarmError};
use crate::mem;
use crate::placement::Layout;
use nmt_formats::{Csc, DcsrStrip, DcsrTileView, Index, SparseMatrix, TiledDcsr};

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

    /// The converter work behind one converted tile, in closed form: one
    /// comparator pass per emitted row plus a concluding one, each
    /// offering `lanes` slots; 8 input bytes per element; 4 output bytes
    /// per `values`/`colidx`/`rowidx`/`rowptr` entry. The strip's first
    /// tile also carries its pointer loads (Figure 14 ❶), so a strip's
    /// tiles sum to its [`StripConverter::stats`].
    pub fn of_tile(tile: &DcsrTileView<'_>, lanes: usize, first: bool) -> ConversionStats {
        let (rows, elems) = (tile.nnz_rows() as u64, tile.nnz() as u64);
        let passes = rows + 1;
        let pointer_loads = if first { 2 * tile.width as u64 * 4 } else { 0 };
        ConversionStats {
            comparator_passes: passes,
            elements: elems,
            rows_emitted: rows,
            tiles: 1,
            input_bytes: elems * INPUT_BYTES_PER_ELEM + pointer_loads,
            output_bytes: 4 * (2 * elems + 2 * rows + 1),
            lane_slots: passes * lanes as u64,
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

/// Stateful converter for one vertical strip of a CSC matrix.
#[derive(Debug, Clone)]
pub struct StripConverter<'a> {
    csc: &'a Csc,
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
}

impl<'a> StripConverter<'a> {
    /// Position a converter at the top of strip `strip_id` (width
    /// `tile_w`). Panics if the strip is outside the matrix. With
    /// `pooled`, [`Self::convert_strip`] checks its buffers out of the
    /// global pools — return them with [`crate::mem::recycle_strips`];
    /// otherwise they are freshly allocated.
    pub fn new(csc: &'a Csc, strip_id: usize, tile_w: usize, pooled: bool) -> Self {
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

    /// Convert the next `tile_h` rows starting at `row_start` into a
    /// one-tile strip (the `GetDCSRTile` operation of Figure 11, minus
    /// the request plumbing). Lanes must already be at or past
    /// `row_start` (they are, after sequential use or `seek`).
    pub fn next_tile(&mut self, row_start: Index, tile_h: usize) -> DcsrStrip {
        let elems = self.remaining();
        let buffers = mem::take_strip(false, elems, elems.min(tile_h), 1);
        let mut strip = DcsrStrip::new(self.col_start as Index, self.width, buffers);
        self.push_tile(row_start, tile_h, &mut strip);
        strip
    }

    /// Convert the whole strip as consecutive `tile_h`-tall tiles into
    /// one set of buffers, sized up front: the element count is exact
    /// from `col_ptr`, and a tile emits at most one row per element and
    /// per covered row, so the rows total at most `min(nnz, nrows)`.
    pub fn convert_strip(&mut self, tile_h: usize) -> DcsrStrip {
        let nrows = self.csc.shape().nrows;
        let ntiles = nmt_formats::tile_count(nrows, tile_h);
        let elems = self.remaining();
        let buffers = mem::take_strip(self.pooled, elems, elems.min(nrows), ntiles);
        let mut strip = DcsrStrip::new(self.col_start as Index, self.width, buffers);
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
        let (mut rows, mut elems) = (0usize, 0usize);
        let rowidx = self.csc.rowidx();
        let values = self.csc.values();
        let lanes = self.lanes;
        strip.start_tile(row_start, height);
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
            strip.push_row(min.min - row_start);
            let mut mask = min.mask;
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                strip.push_elem(lane as Index, values[self.frontier[lane]]);
                self.frontier[lane] += 1;
            }
            let emitted = min.mask.count_ones() as usize;
            self.stats.elements += emitted as u64;
            self.stats.input_bytes += emitted as u64 * INPUT_BYTES_PER_ELEM;
            self.stats.rows_emitted += 1;
            rows += 1;
            elems += emitted;
        }
        strip.finish_tile();
        self.stats.tiles += 1;
        // values + colidx + rowidx + rowptr, 4 bytes each.
        self.stats.output_bytes += 4 * (2 * elems + 2 * rows + 1) as u64;
        debug_assert!(
            strip.tile(strip.num_tiles() - 1).validate().is_ok(),
            "engine produced an invalid tile"
        );
    }
}

/// One engine, fresh buffers, no fault plan: the farm configuration behind
/// the whole-matrix conversions below.
const SINGLE_ENGINE: FarmConfig = FarmConfig {
    partitions: 1,
    layout: Layout::TileRotated,
    fault: None,
    pool: false,
};

/// Convert an entire CSC matrix to tiled DCSR through the engine model —
/// the online equivalent of [`TiledDcsr::from_csr`]. Returns the tiling
/// and the merged hardware-activity counters.
///
/// Runs the engine farm ([`convert_matrix_farm_obs`]) with one engine, so
/// the output is identical at any thread count. Fails only on a tile
/// geometry the engine cannot convert (`tile_w ∉ 1..=64`, `tile_h == 0`).
pub fn convert_matrix(
    csc: &Csc,
    tile_w: usize,
    tile_h: usize,
) -> Result<(TiledDcsr, ConversionStats), FarmError> {
    let shape = csc.shape();
    let run = convert_matrix_farm_obs(
        csc,
        tile_w,
        tile_h,
        SINGLE_ENGINE,
        &nmt_obs::ObsContext::disabled(),
    )?;
    let tiled = TiledDcsr::from_strips_unchecked(shape.nrows, shape.ncols, tile_w, run.strips);
    Ok((tiled, run.stats))
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
        let mut conv = StripConverter::new(&csc, 0, 3, false);
        let strip = conv.next_tile(0, 5);
        let tile = strip.tile(0);
        // Expected DCSR (Figure 13, bottom right):
        // value  = a0 b0 c0 | b1 | a2 c2 | a4 b4
        // colidx = 0  1  2  | 1  | 0  2  | 0  1
        // rowptr = 0 3 4 6 8 ; rowidx = 0 1 2 4
        assert_eq!(
            tile.values,
            [10.0, 20.0, 30.0, 21.0, 12.0, 32.0, 14.0, 24.0]
        );
        assert_eq!(tile.colidx, [0, 1, 2, 1, 0, 2, 0, 1]);
        assert_eq!(tile.rowptr, [0, 3, 4, 6, 8]);
        assert_eq!(tile.rowidx, [0, 1, 2, 4]);
        assert_eq!(ConversionStats::of_tile(&tile, 3, true), conv.stats());
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
        let mut a = StripConverter::new(&csc, 0, 3, false);
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
        let (_, stats) = convert_matrix(&csc, 3, 5).unwrap();
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
            let (online, stats) = convert_matrix(&csc, tile, tile).unwrap();
            assert_eq!(online, offline, "n={n}");
            assert_eq!(stats.elements as usize, csr.nnz());
        }
    }

    #[test]
    fn sequential_tiles_share_frontier_state() {
        let csc = figure13_csc();
        let mut conv = StripConverter::new(&csc, 0, 3, false);
        let s0 = conv.next_tile(0, 2); // rows 0..2
        let s1 = conv.next_tile(2, 2); // rows 2..4
        let s2 = conv.next_tile(4, 2); // row 4
        let (t0, t1, t2) = (s0.tile(0), s1.tile(0), s2.tile(0));
        assert_eq!(t0.rowidx, [0, 1]);
        assert_eq!(t1.rowidx, [0]); // row 2 local
        assert_eq!(t2.rowidx, [0]); // row 4 local
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
        let mut conv = StripConverter::new(&csc, 0, 3, false);
        conv.seek(2);
        let strip = conv.next_tile(2, 2);
        assert_eq!(strip.tile(0).rowidx, [0]);
        assert_eq!(strip.tile(0).values, [12.0, 32.0]); // a2, c2

        // Seek back to the top reproduces the first tile.
        conv.seek(0);
        let strip = conv.next_tile(0, 2);
        assert_eq!(strip.tile(0).values, [10.0, 20.0, 30.0, 21.0]);
    }

    #[test]
    fn second_strip_has_local_columns() {
        let csr = random_csr(40, 120, 9);
        let csc = csr.to_csc();
        let mut conv = StripConverter::new(&csc, 1, 16, false);
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
        let mut conv = StripConverter::new(&csc, 1, 4, false);
        let strip = conv.convert_strip(4);
        assert_eq!(strip.num_tiles(), 2);
        assert!(strip.tiles().all(|t| t.nnz() == 0));
        assert_eq!(conv.stats().elements, 0);
        // Still pays the pointer-array load and one concluding pass/tile.
        assert_eq!(conv.stats().comparator_passes, 2);
    }

    #[test]
    fn output_bytes_match_tile_footprint() {
        let csc = figure13_csc();
        let mut conv = StripConverter::new(&csc, 0, 3, false);
        let strip = conv.next_tile(0, 5);
        let tile = strip.tile(0);
        let expected = tile.metadata_bytes() + tile.data_bytes();
        assert_eq!(conv.stats().output_bytes as usize, expected);
    }

    #[test]
    fn ragged_last_strip() {
        let csr = random_csr(20, 60, 3);
        let csc = csr.to_csc();
        // 20 cols with 16-wide strips: strip 1 is 4 wide.
        let (tiles, _) = convert_matrix(&csc, 16, 16).unwrap();
        assert_eq!(tiles.num_strips(), 2);
        assert_eq!(tiles.strips()[1].width(), 4);
        let offline = TiledDcsr::from_csr(&csr, 16, 16).unwrap();
        assert_eq!(tiles.strips()[1], offline.strips()[1]);
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
        let (tiles, stats) = convert_matrix(&csc, 16, 16).unwrap();
        assert_eq!(tiles.num_strips(), 1);
        assert!(tiles.strips()[0].tiles().all(|t| t.nnz() == 0));
        assert_eq!(stats.elements, 0);
    }

    #[test]
    fn zero_row_matrix_converts_to_empty_tiles() {
        let csc = Csc::new(0, 8, vec![0; 9], vec![], vec![]).unwrap();
        let (tiles, stats) = convert_matrix(&csc, 4, 4).unwrap();
        assert_eq!(tiles.num_strips(), 2);
        assert_eq!(stats.elements, 0);
    }
}
