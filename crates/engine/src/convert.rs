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
//! The model emits that sequence without stepping the tree. A *bucket
//! pass* walks each lane's frontier through a window of at most 64 tile
//! rows, setting the lane's bit in a row → lane-mask table. It then emits
//! the window's non-empty rows in ascending order, each row's lanes
//! ascending. Every lane's column is sorted, so this is exactly the
//! (minimum row, tie mask) sequence the tree yields, one pass per row.
//! [`ConversionStats::of_tile`] prices the passes the hardware makes, and
//! [`crate::comparator::ComparatorTree`] stays as the reference the tests
//! replay each tile's frontiers through.
//!
//! The converter is *stateful across tiles* in a strip: walking tiles
//! top-to-bottom needs no re-scanning (sequential access), and random tile
//! access repositions the frontier by binary search on the CSC columns —
//! both properties §4.1 credits to the CSC baseline format.

use crate::comparator::MAX_LANES;
use crate::farm::{convert_matrix_farm_obs, FarmConfig, FarmError};
use crate::placement::Layout;
use nmt_formats::{
    Csc, DcsrTileView, Index, SparseMatrix, StripSize, StripWriter, TiledDcsr, Value,
};

/// Byte cost of one streamed CSC element: a 4-byte row index plus a 4-byte
/// fp32 value ("8-byte input data", §5.3).
pub const INPUT_BYTES_PER_ELEM: u64 = 8;

/// Rows one bucket pass covers: one bit each in the occupancy mask.
const WINDOW: usize = 64;

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
        let pointer_loads = if first { 2 * tile.width as u64 * 4 } else { 0 };
        let mut stats = Self::of_rows(tile.nnz_rows(), tile.nnz(), lanes);
        stats.input_bytes += pointer_loads;
        stats
    }

    /// [`Self::of_tile`] for a tile of `rows` rows and `elems` elements,
    /// without the pointer loads.
    fn of_rows(rows: usize, elems: usize, lanes: usize) -> ConversionStats {
        let (rows, elems) = (rows as u64, elems as u64);
        let passes = rows + 1;
        ConversionStats {
            comparator_passes: passes,
            elements: elems,
            rows_emitted: rows,
            tiles: 1,
            input_bytes: elems * INPUT_BYTES_PER_ELEM,
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
    m.gauge_set("engine.comparator.occupancy", stats.comparator_occupancy());
}

/// Where the converter writes a tile's rows: a strip of the farm's arena,
/// or the converter's own buffers for one random-access tile.
trait RowSink {
    fn push_row(&mut self, local_row: Index);
    fn push_elem(&mut self, lane: Index, value: Value);
}

impl RowSink for StripWriter<'_> {
    fn push_row(&mut self, local_row: Index) {
        StripWriter::push_row(self, local_row);
    }

    fn push_elem(&mut self, lane: Index, value: Value) {
        StripWriter::push_elem(self, lane, value);
    }
}

/// The arrays of one tile [`StripConverter::next_tile`] converts.
#[derive(Debug, Clone, Default)]
struct TileBuf {
    rowidx: Vec<Index>,
    rowptr: Vec<Index>,
    colidx: Vec<Index>,
    values: Vec<Value>,
}

impl RowSink for TileBuf {
    fn push_row(&mut self, local_row: Index) {
        self.rowidx.push(local_row);
        self.rowptr.push(self.colidx.len() as Index);
    }

    fn push_elem(&mut self, lane: Index, value: Value) {
        self.colidx.push(lane);
        self.values.push(value);
    }
}

/// One bucket pass over rows `lo..hi`: advance each lane's `scan` cursor
/// past its rows there, setting the lane's bit in `masks[row - lo]` and
/// bit `row - lo` of the returned occupancy. Also returns the smallest
/// row a lane holds at or past `hi` (`Index::MAX` when none does).
fn bucket(
    rowidx: &[Index],
    scan: &mut [usize],
    ends: &[usize],
    (lo, hi): (Index, Index),
    masks: &mut [u64; WINDOW],
) -> (u64, Index) {
    let (mut occupied, mut next) = (0u64, Index::MAX);
    for (lane, (f, &end)) in scan.iter_mut().zip(ends).enumerate() {
        while *f < end && rowidx[*f] < hi {
            let r = (rowidx[*f] - lo) as usize;
            masks[r] |= 1 << lane;
            occupied |= 1 << r;
            *f += 1;
        }
        if *f < end {
            next = next.min(rowidx[*f]);
        }
    }
    (occupied, next)
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
    /// Each lane's bucket-pass cursor: equal to its frontier between
    /// windows, ahead of it while a window's rows are emitted.
    scan: [usize; MAX_LANES],
    /// Absolute end index of each lane's column.
    boundary: [usize; MAX_LANES],
    /// The smallest row any lane's frontier holds (`Index::MAX` once all
    /// are exhausted): where the next non-empty row can start.
    next_row: Index,
    /// The bucket pass's row → lane-mask table, window-relative; entries
    /// are cleared as their rows are emitted.
    masks: [u64; WINDOW],
    /// Buffers behind [`Self::next_tile`]'s tile.
    tile: TileBuf,
    stats: ConversionStats,
}

impl<'a> StripConverter<'a> {
    /// Position a converter at the top of strip `strip_id` (width
    /// `tile_w`). Panics if the strip is outside the matrix.
    pub fn new(csc: &'a Csc, strip_id: usize, tile_w: usize) -> Self {
        assert!(
            tile_w > 0 && tile_w <= MAX_LANES,
            "engine width is 1..=64 columns"
        );
        let ncols = csc.shape().ncols;
        let col_start = strip_id * tile_w;
        assert!(col_start < ncols.max(1), "strip {strip_id} beyond matrix");
        // A zero-column matrix yields a zero-lane converter that emits
        // only empty tiles (clamp the width and guard the pointer loads).
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
        let mut conv = Self {
            csc,
            strip_id,
            col_start,
            width,
            lanes,
            frontier,
            scan: frontier,
            boundary,
            next_row: Index::MAX,
            masks: [0; WINDOW],
            tile: TileBuf::default(),
            stats,
        };
        conv.find_next_row();
        conv
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
        self.scan = self.frontier;
        self.find_next_row();
    }

    fn find_next_row(&mut self) {
        let rowidx = self.csc.rowidx();
        self.next_row = (0..self.lanes)
            .filter(|&lane| self.frontier[lane] < self.boundary[lane])
            .map(|lane| rowidx[self.frontier[lane]])
            .min()
            .unwrap_or(Index::MAX);
    }

    /// The strip's exact share of a [`TiledDcsr`]'s arrays, from a fresh
    /// converter: its elements come from `col_ptr`, and its non-empty rows
    /// are the bits the bucket pass's occupancy masks set. A row lands in
    /// exactly one tile, so the count does not depend on the tile height.
    pub fn size(&self) -> StripSize {
        let rowidx = self.csc.rowidx();
        let mut scan = self.frontier;
        let mut masks = [0; WINDOW];
        let (mut lo, mut rows) = (self.next_row, 0);
        while lo != Index::MAX {
            let window = (lo, lo.saturating_add(WINDOW as Index));
            let ends = &self.boundary[..self.lanes];
            let (occupied, next) =
                bucket(rowidx, &mut scan[..self.lanes], ends, window, &mut masks);
            rows += occupied.count_ones() as usize;
            lo = next;
        }
        let elems = (0..self.lanes)
            .map(|lane| self.boundary[lane] - self.frontier[lane])
            .sum();
        StripSize { rows, elems }
    }

    /// Convert the `tile_h` rows starting at `row_start` as one tile (the
    /// `GetDCSRTile` operation of Figure 11, minus the request plumbing)
    /// into buffers this converter keeps for it. Lanes must already be at
    /// or past `row_start` (they are, after sequential use or `seek`).
    pub fn next_tile(&mut self, row_start: Index, tile_h: usize) -> DcsrTileView<'_> {
        let mut tile = std::mem::take(&mut self.tile);
        tile.rowidx.clear();
        tile.rowptr.clear();
        tile.colidx.clear();
        tile.values.clear();
        let height = self.push_tile(row_start, tile_h, &mut tile);
        tile.rowptr.push(tile.colidx.len() as Index);
        self.tile = tile;
        DcsrTileView {
            row_start,
            col_start: self.col_start as Index,
            height,
            width: self.width,
            rowidx: &self.tile.rowidx,
            rowptr: &self.tile.rowptr,
            colidx: &self.tile.colidx,
            values: &self.tile.values,
        }
    }

    /// Convert the whole strip as consecutive `tile_h`-tall tiles into
    /// `out`, which must be sized by [`Self::size`].
    pub fn convert_strip(&mut self, tile_h: usize, out: &mut StripWriter<'_>) {
        let ntiles = nmt_formats::tile_count(self.csc.shape().nrows, tile_h);
        for t in 0..ntiles {
            self.push_tile((t * tile_h) as Index, tile_h, out);
            out.finish_tile();
        }
    }

    /// The converter loop: write the rows of the tile of `tile_h` rows
    /// starting at `row_start` to `out`, one bucket pass per window of at
    /// most 64 rows from the next non-empty row. Returns the tile height.
    fn push_tile(&mut self, row_start: Index, tile_h: usize, out: &mut impl RowSink) -> usize {
        let nrows = self.csc.shape().nrows;
        let height = tile_h.min(nrows.saturating_sub(row_start as usize)).max(1);
        let row_end = row_start + height as Index;
        let (rowidx, values) = (self.csc.rowidx(), self.csc.values());
        let lanes = self.lanes;
        let (mut rows, mut elems) = (0usize, 0usize);
        while self.next_row < row_end {
            let lo = self.next_row;
            let window = (lo, row_end.min(lo.saturating_add(WINDOW as Index)));
            let (mut occupied, next) = bucket(
                rowidx,
                &mut self.scan[..lanes],
                &self.boundary[..lanes],
                window,
                &mut self.masks,
            );
            self.next_row = next;
            // Emit the window's rows ascending, each row's lanes (=
            // columns) ascending.
            while occupied != 0 {
                let r = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                let mut mask = std::mem::take(&mut self.masks[r]);
                out.push_row(lo - row_start + r as Index);
                elems += mask.count_ones() as usize;
                while mask != 0 {
                    let lane = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    out.push_elem(lane as Index, values[self.frontier[lane]]);
                    self.frontier[lane] += 1;
                }
                rows += 1;
            }
        }
        self.stats
            .merge(&ConversionStats::of_rows(rows, elems, lanes));
        height
    }
}

/// One engine, no fault plan: the farm configuration behind the
/// whole-matrix conversions below.
const SINGLE_ENGINE: FarmConfig = FarmConfig {
    partitions: 1,
    layout: Layout::TileRotated,
    fault: None,
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
    let run = convert_matrix_farm_obs(
        csc,
        tile_w,
        tile_h,
        SINGLE_ENGINE,
        &nmt_obs::ObsContext::disabled(),
    )?;
    Ok((run.strips, run.stats))
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
        let derived = ConversionStats::of_tile(&tile, 3, true);
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
        assert_eq!(derived, conv.stats());
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
        let mut conv = StripConverter::new(&csc, 0, 3);
        let mut nnz = 0;
        // Rows 0..2, then 2..4 (row 2 local 0), then row 4 (local 0).
        for (row_start, rowidx) in [(0, &[0, 1][..]), (2, &[0]), (4, &[0])] {
            let tile = conv.next_tile(row_start, 2);
            assert_eq!(tile.rowidx, rowidx);
            nnz += tile.nnz();
        }
        assert_eq!(nnz, csc.nnz(), "tiles must partition the strip");
    }

    #[test]
    fn seek_supports_random_tile_access() {
        let csc = figure13_csc();
        // Jump straight to the tile at rows 2..4 without converting 0..2.
        let mut conv = StripConverter::new(&csc, 0, 3);
        conv.seek(2);
        let tile = conv.next_tile(2, 2);
        assert_eq!(tile.rowidx, [0]);
        assert_eq!(tile.values, [12.0, 32.0]); // a2, c2

        // Seek back to the top reproduces the first tile.
        conv.seek(0);
        let tile = conv.next_tile(0, 2);
        assert_eq!(tile.values, [10.0, 20.0, 30.0, 21.0]);
    }

    #[test]
    fn second_strip_has_local_columns() {
        let csr = random_csr(40, 120, 9);
        let csc = csr.to_csc();
        let (tiles, _) = convert_matrix(&csc, 16, 16).unwrap();
        for tile in tiles.strip(1).tiles() {
            assert_eq!(tile.col_start, 16);
            tile.validate().unwrap();
        }
    }

    #[test]
    fn empty_strip_produces_empty_tiles() {
        // Matrix with entries only in column 0; strip 1 is empty.
        let coo = Coo::from_triplets(8, 8, &[0, 3], &[0, 0], &[1.0, 2.0]).unwrap();
        let csc = Csc::from_coo(&coo);
        let sizes = [0, 1].map(|s| StripConverter::new(&csc, s, 4).size());
        assert_eq!(
            sizes,
            [StripSize { rows: 2, elems: 2 }, StripSize::default()]
        );
        let (tiles, stats) = TiledDcsr::build(csc.shape(), 4, 4, &sizes, |mut strips| {
            StripConverter::new(&csc, 0, 4).convert_strip(4, &mut strips[0]);
            let mut conv = StripConverter::new(&csc, 1, 4);
            conv.convert_strip(4, &mut strips[1]);
            conv.stats()
        });
        assert_eq!(tiles.strip(1).num_tiles(), 2);
        assert!(tiles.strip(1).tiles().all(|t| t.nnz() == 0));
        assert_eq!(stats.elements, 0);
        // Still pays the pointer-array load and one concluding pass/tile.
        assert_eq!(stats.comparator_passes, 2);
        assert_eq!(stats.input_bytes, 2 * 4 * 4);
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
    fn ragged_last_strip() {
        let csr = random_csr(20, 60, 3);
        let csc = csr.to_csc();
        // 20 cols with 16-wide strips: strip 1 is 4 wide.
        let (tiles, _) = convert_matrix(&csc, 16, 16).unwrap();
        assert_eq!(tiles.num_strips(), 2);
        assert_eq!(tiles.strip(1).width(), 4);
        let offline = TiledDcsr::from_csr(&csr, 16, 16).unwrap();
        assert_eq!(tiles.strip(1), offline.strip(1));
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
        assert!(tiles.strip(0).tiles().all(|t| t.nnz() == 0));
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
