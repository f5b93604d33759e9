//! Tiled formats: vertical strips of CSR and strip×tile DCSR.
//!
//! Tiling cuts the sparse matrix `A` into vertical strips as wide as a `B`
//! tile (64 columns in the paper, §5.1) so that a thread block can keep a
//! 64×64 tile of `B` in shared memory. A *tiled CSR* strip still carries a
//! full `rowptr` with one entry per matrix row — even though ~99 % of rows
//! in a typical strip are empty (Figure 5) — which is exactly the redundancy
//! *tiled DCSR* removes (Figure 6).

use crate::{
    Csc, Csr, FormatError, Index, Shape, SparseMatrix, StorageSize, Value, INDEX_BYTES, VALUE_BYTES,
};
use std::ops::Range;

/// Default tile edge used throughout the paper: "We use B tile dimension of
/// 64 × 64 to fully utilize the shared memory of an SM" (§5.1).
pub const DEFAULT_TILE: usize = 64;

// ---------------------------------------------------------------------------
// Tiled CSR
// ---------------------------------------------------------------------------

/// One vertical strip of a [`TiledCsr`]: a full-height CSR whose columns are
/// re-based to the strip (`0 .. width`).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrStrip {
    /// First global column covered by this strip.
    pub col_start: Index,
    /// Number of columns in this strip (≤ tile width at the right edge).
    pub width: usize,
    /// Full row pointer: `nrows + 1` entries, one per matrix row.
    pub rowptr: Vec<Index>,
    /// Local column indices (`0 .. width`).
    pub colidx: Vec<Index>,
    /// Values.
    pub values: Vec<Value>,
}

impl CsrStrip {
    /// Number of non-zeros in the strip.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Number of rows with at least one non-zero inside this strip.
    pub fn nonzero_rows(&self) -> usize {
        self.rowptr.windows(2).filter(|w| w[0] < w[1]).count()
    }
}

/// CSR cut into vertical strips, each retaining a full row pointer.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledCsr {
    nrows: usize,
    ncols: usize,
    tile_w: usize,
    strips: Vec<CsrStrip>,
}

impl TiledCsr {
    /// Slice a CSR matrix into vertical strips of `tile_w` columns.
    pub fn from_csr(csr: &Csr, tile_w: usize) -> Result<Self, FormatError> {
        if tile_w == 0 {
            return Err(FormatError::ShapeMismatch {
                detail: "tile width must be > 0".into(),
            });
        }
        let shape = csr.shape();
        let nstrips = crate::strip_count(shape.ncols, tile_w);
        let mut builders: Vec<(Vec<Index>, Vec<Index>, Vec<Value>)> = (0..nstrips)
            .map(|_| (Vec::with_capacity(shape.nrows + 1), Vec::new(), Vec::new()))
            .collect();
        for b in &mut builders {
            b.0.push(0);
        }
        for r in 0..shape.nrows {
            let (cols, vals) = csr.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let s = c as usize / tile_w;
                builders[s].1.push(c - (s * tile_w) as Index);
                builders[s].2.push(v);
            }
            for b in &mut builders {
                b.0.push(b.1.len() as Index);
            }
        }
        let strips = builders
            .into_iter()
            .enumerate()
            .map(|(s, (rowptr, colidx, values))| CsrStrip {
                col_start: (s * tile_w) as Index,
                width: tile_w.min(shape.ncols.saturating_sub(s * tile_w)).max(1),
                rowptr,
                colidx,
                values,
            })
            .collect();
        Ok(Self {
            nrows: shape.nrows,
            ncols: shape.ncols,
            tile_w,
            strips,
        })
    }

    /// The strips, left to right.
    pub fn strips(&self) -> &[CsrStrip] {
        &self.strips
    }

    /// Strip (tile) width.
    pub fn tile_width(&self) -> usize {
        self.tile_w
    }

    /// Reassemble the original CSR (inverse of `from_csr`).
    pub fn to_csr(&self) -> Csr {
        let mut rowptr = vec![0 as Index; self.nrows + 1];
        let mut colidx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            for strip in &self.strips {
                let (lo, hi) = (strip.rowptr[r] as usize, strip.rowptr[r + 1] as usize);
                for k in lo..hi {
                    colidx.push(strip.col_start + strip.colidx[k]);
                    values.push(strip.values[k]);
                }
            }
            rowptr[r + 1] = colidx.len() as Index;
        }
        Csr::from_parts_unchecked(self.nrows, self.ncols, rowptr, colidx, values)
    }
}

impl SparseMatrix for TiledCsr {
    fn shape(&self) -> Shape {
        Shape::new(self.nrows, self.ncols)
    }

    fn nnz(&self) -> usize {
        self.strips.iter().map(CsrStrip::nnz).sum()
    }
}

impl StorageSize for TiledCsr {
    /// Each strip pays a full `rowptr` (`nrows + 1` entries) — the
    /// "redundant row pointer data" of Figure 6 that makes tiled CSR
    /// bandwidth-intensive for low information content.
    fn metadata_bytes(&self) -> usize {
        self.strips
            .iter()
            .map(|s| (s.rowptr.len() + s.colidx.len()) * INDEX_BYTES)
            .sum()
    }

    fn data_bytes(&self) -> usize {
        self.strips
            .iter()
            .map(|s| s.values.len() * VALUE_BYTES)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Tiled DCSR
// ---------------------------------------------------------------------------

/// Where one tile sits inside its [`DcsrStrip`].
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
}

/// The five buffers behind a [`DcsrStrip`]. Producers pass them in, so a
/// caller with a buffer pool (the engine's `mem` module) can hand the
/// strip recycled allocations and take them back with
/// [`DcsrStrip::into_buffers`]; contents are cleared, capacity is kept.
#[derive(Debug, Default)]
pub struct StripBuffers {
    /// Local indices of non-empty rows, tile after tile.
    pub rowidx: Vec<Index>,
    /// Per-tile row pointers, each tile's segment starting at 0.
    pub rowptr: Vec<Index>,
    /// Local column indices.
    pub colidx: Vec<Index>,
    /// Values.
    pub values: Vec<Value>,
    /// One header per tile.
    pub tiles: Vec<TileHeader>,
}

/// One vertical strip of tiled DCSR: its tiles, top to bottom, stored
/// back to back in one set of buffers. This is the unit an SM consumes
/// (one block per strip, `GetDCSRTile` per tile, Figure 11), and the one
/// layout both producers write: offline tiling ([`TiledDcsr::from_csr`])
/// and the near-memory engine's strip converter. Tile `t`'s `rowptr`
/// segment starts at 0, so [`Self::tile`] borrows it as a standalone
/// DCSR tile.
///
/// Producers append through [`Self::start_tile`], [`Self::push_row`],
/// [`Self::push_elem`] and [`Self::finish_tile`], in that nesting.
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

impl DcsrStrip {
    /// An empty strip covering `width` columns from `col_start`, writing
    /// into `buffers` (cleared first; their capacity is kept).
    pub fn new(col_start: Index, width: usize, buffers: StripBuffers) -> Self {
        let StripBuffers {
            mut rowidx,
            mut rowptr,
            mut colidx,
            mut values,
            mut tiles,
        } = buffers;
        rowidx.clear();
        rowptr.clear();
        colidx.clear();
        values.clear();
        tiles.clear();
        DcsrStrip {
            col_start,
            width,
            rowidx,
            rowptr,
            colidx,
            values,
            tiles,
        }
    }

    /// Open the next tile: `height` rows from global row `row_start`.
    pub fn start_tile(&mut self, row_start: Index, height: usize) {
        let (rows, elems) = (self.rowidx.len(), self.colidx.len());
        self.rowptr.push(0);
        self.tiles.push(TileHeader {
            row_start,
            height,
            rows: rows..rows,
            elems: elems..elems,
        });
    }

    /// Open a non-empty row of the current tile (`local_row` is relative
    /// to the tile's `row_start`); its elements follow via
    /// [`Self::push_elem`].
    pub fn push_row(&mut self, local_row: Index) {
        self.rowidx.push(local_row);
        let end = self.rowptr.last().copied().unwrap_or(0);
        self.rowptr.push(end);
    }

    /// Append one element to the current row (`local_col` is relative to
    /// the strip's `col_start`).
    pub fn push_elem(&mut self, local_col: Index, value: Value) {
        self.colidx.push(local_col);
        self.values.push(value);
        if let Some(end) = self.rowptr.last_mut() {
            *end += 1;
        }
    }

    /// Close the current tile.
    pub fn finish_tile(&mut self) {
        let (rows, elems) = (self.rowidx.len(), self.colidx.len());
        if let Some(h) = self.tiles.last_mut() {
            h.rows.end = rows;
            h.elems.end = elems;
        }
    }

    /// Give the strip's buffers back (for a pool to reshelve).
    pub fn into_buffers(self) -> StripBuffers {
        StripBuffers {
            rowidx: self.rowidx,
            rowptr: self.rowptr,
            colidx: self.colidx,
            values: self.values,
            tiles: self.tiles,
        }
    }

    /// Strip width (columns covered; ≤ nominal width at the right edge).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of tiles in the strip.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
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

    /// Every tile, top to bottom.
    pub fn tiles(&self) -> impl Iterator<Item = DcsrTileView<'_>> {
        (0..self.tiles.len()).map(move |t| self.tile(t))
    }
}

/// One `height × width` DCSR tile of a [`DcsrStrip`], borrowed: only
/// non-empty row segments are stored, with row and column indices local
/// to the tile. These are exactly the arrays the near-memory engine
/// streams to shared memory: `value`, `col_idx`, `row_ptr`, `row_idx`
/// (Figure 11's outputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcsrTileView<'a> {
    /// First global row covered by the tile.
    pub row_start: Index,
    /// First global column covered by the tile.
    pub col_start: Index,
    /// Tile height (rows covered; ≤ nominal tile height at the bottom edge).
    pub height: usize,
    /// Tile width (columns covered; ≤ nominal width at the right edge).
    pub width: usize,
    /// Local indices of non-empty rows within the tile, strictly increasing.
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

    /// Number of non-empty row segments (`nnzrows` in the API of Fig. 11).
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

    /// Validate the tile's internal invariants — the one tile validator,
    /// used by tests, the engine's self-checks and its fault drills.
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.rowptr.len() != self.rowidx.len() + 1 {
            return Err(FormatError::LengthMismatch {
                expected: self.rowidx.len() + 1,
                found: self.rowptr.len(),
                name: "tile rowptr",
            });
        }
        if self.colidx.len() != self.values.len() {
            return Err(FormatError::LengthMismatch {
                expected: self.colidx.len(),
                found: self.values.len(),
                name: "tile values",
            });
        }
        if self.rowptr.first().copied().unwrap_or(0) != 0
            || self.rowptr.last().copied().unwrap_or(0) as usize != self.colidx.len()
        {
            return Err(FormatError::MalformedPointerArray {
                name: "tile rowptr",
                detail: "must span 0..nnz".into(),
            });
        }
        if self.rowptr.windows(2).any(|w| w[0] >= w[1]) && !self.colidx.is_empty() {
            return Err(FormatError::MalformedPointerArray {
                name: "tile rowptr",
                detail: "densified tile rows must be non-empty".into(),
            });
        }
        if self.rowidx.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FormatError::NotCanonical {
                detail: "tile rowidx unsorted".into(),
            });
        }
        if let Some(&r) = self.rowidx.iter().find(|&&r| r as usize >= self.height) {
            return Err(FormatError::IndexOutOfBounds {
                axis: "row",
                index: r,
                bound: self.height,
            });
        }
        if let Some(&c) = self.colidx.iter().find(|&&c| c as usize >= self.width) {
            return Err(FormatError::IndexOutOfBounds {
                axis: "col",
                index: c,
                bound: self.width,
            });
        }
        for i in 0..self.rowidx.len() {
            let (lo, hi) = (self.rowptr[i] as usize, self.rowptr[i + 1] as usize);
            if self.colidx[lo..hi].windows(2).any(|w| w[0] >= w[1]) {
                return Err(FormatError::NotCanonical {
                    detail: format!("tile row segment {i} has unsorted columns"),
                });
            }
        }
        Ok(())
    }

    /// Iterate `(global_row, global_col, value)` triplets.
    pub fn iter_global(&self) -> impl Iterator<Item = (Index, Index, Value)> + '_ {
        (0..self.rowidx.len()).flat_map(move |i| {
            let (lo, hi) = (self.rowptr[i] as usize, self.rowptr[i + 1] as usize);
            let r = self.row_start + self.rowidx[i];
            self.colidx[lo..hi]
                .iter()
                .zip(&self.values[lo..hi])
                .map(move |(&c, &v)| (r, self.col_start + c, v))
        })
    }
}

/// The full matrix as DCSR strips: `strips()[s].tile(t)` is the tile at
/// strip `s` (column block) and vertical position `t` (row block).
#[derive(Debug, Clone, PartialEq)]
pub struct TiledDcsr {
    nrows: usize,
    ncols: usize,
    tile_w: usize,
    strips: Vec<DcsrStrip>,
}

impl TiledDcsr {
    /// Offline tiling of a CSR matrix into `tile_h × tile_w` DCSR tiles,
    /// in one pass over the CSR rows.
    ///
    /// This is the *offline tiled-DCSR* configuration of §5.2 (2.03×
    /// speedup, preprocessing cost not counted); the engine produces the
    /// same strips online from CSC.
    pub fn from_csr(csr: &Csr, tile_w: usize, tile_h: usize) -> Result<Self, FormatError> {
        if tile_w == 0 || tile_h == 0 {
            return Err(FormatError::ShapeMismatch {
                detail: "tile dims must be > 0".into(),
            });
        }
        let shape = csr.shape();
        let nstrips = crate::strip_count(shape.ncols, tile_w);
        let ntiles = crate::tile_count(shape.nrows, tile_h);
        // Element counts per strip size the value arrays exactly.
        let mut elems = vec![0usize; nstrips];
        for &c in csr.colidx() {
            elems[c as usize / tile_w] += 1;
        }
        let mut strips: Vec<DcsrStrip> = elems
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                let buffers = StripBuffers {
                    colidx: Vec::with_capacity(n),
                    values: Vec::with_capacity(n),
                    tiles: Vec::with_capacity(ntiles),
                    ..StripBuffers::default()
                };
                let width = tile_w.min(shape.ncols.saturating_sub(s * tile_w)).max(1);
                DcsrStrip::new((s * tile_w) as Index, width, buffers)
            })
            .collect();
        for t in 0..ntiles {
            let row_start = t * tile_h;
            let height = tile_h.min(shape.nrows.saturating_sub(row_start)).max(1);
            for strip in &mut strips {
                strip.start_tile(row_start as Index, height);
            }
            for r in row_start..(row_start + height).min(shape.nrows) {
                let local_r = (r - row_start) as Index;
                let (cols, vals) = csr.row(r);
                // Row-major CSR gives columns sorted, so per-strip segments
                // are contiguous runs; emit one densified row per touched
                // strip.
                let mut k = 0;
                while k < cols.len() {
                    let s = cols[k] as usize / tile_w;
                    let col_start = s * tile_w;
                    let strip = &mut strips[s];
                    strip.push_row(local_r);
                    while k < cols.len() && (cols[k] as usize) < col_start + tile_w {
                        strip.push_elem(cols[k] - col_start as Index, vals[k]);
                        k += 1;
                    }
                }
            }
            for strip in &mut strips {
                strip.finish_tile();
            }
        }
        let out = Self {
            nrows: shape.nrows,
            ncols: shape.ncols,
            tile_w,
            strips,
        };
        debug_assert!(
            out.validate().is_ok(),
            "tiling produced an invalid TiledDcsr: {:?}",
            out.validate().err()
        );
        Ok(out)
    }

    /// Wrap strips a producer already wrote for an `nrows × ncols` matrix
    /// at strip width `tile_w` (the engine farm's output) without copying
    /// them. The grid is checked in debug builds only; call
    /// [`Self::validate`] on untrusted strips.
    pub fn from_strips_unchecked(
        nrows: usize,
        ncols: usize,
        tile_w: usize,
        strips: Vec<DcsrStrip>,
    ) -> Self {
        let out = Self {
            nrows,
            ncols,
            tile_w,
            strips,
        };
        debug_assert!(
            out.validate().is_ok(),
            "strips do not tile the matrix: {:?}",
            out.validate().err()
        );
        out
    }

    /// Check the whole tile grid: the strip/tile counts match the matrix
    /// dimensions, every strip and tile sits at its grid position with the
    /// correct (edge-clamped) extent, and every tile's internal invariants
    /// hold ([`DcsrTileView::validate`]). The nominal tile height is the
    /// first tile's.
    pub fn validate(&self) -> Result<(), FormatError> {
        let tile_h = self
            .strips
            .first()
            .and_then(|s| s.headers().first())
            .map_or(0, |h| h.height);
        if self.tile_w == 0 || tile_h == 0 {
            return Err(FormatError::ShapeMismatch {
                detail: "tile dims must be > 0".into(),
            });
        }
        let nstrips = crate::strip_count(self.ncols, self.tile_w);
        let ntiles = crate::tile_count(self.nrows, tile_h);
        if self.strips.len() != nstrips {
            return Err(FormatError::LengthMismatch {
                expected: nstrips,
                found: self.strips.len(),
                name: "strips",
            });
        }
        for (s, strip) in self.strips.iter().enumerate() {
            if strip.num_tiles() != ntiles {
                return Err(FormatError::LengthMismatch {
                    expected: ntiles,
                    found: strip.num_tiles(),
                    name: "tiles per strip",
                });
            }
            for (t, tile) in strip.tiles().enumerate() {
                let row_start = t * tile_h;
                let col_start = s * self.tile_w;
                let height = tile_h.min(self.nrows.saturating_sub(row_start)).max(1);
                let width = self.tile_w.min(self.ncols.saturating_sub(col_start)).max(1);
                if tile.row_start as usize != row_start
                    || tile.col_start as usize != col_start
                    || tile.height != height
                    || tile.width != width
                {
                    return Err(FormatError::ShapeMismatch {
                        detail: format!(
                            "tile ({s},{t}) covers ({},{})+{}x{}, grid expects \
                             ({row_start},{col_start})+{height}x{width}",
                            tile.row_start, tile.col_start, tile.height, tile.width
                        ),
                    });
                }
                tile.validate()?;
            }
        }
        Ok(())
    }

    /// Offline tiling from CSC (sanity mirror of the engine's online path).
    pub fn from_csc(csc: &Csc, tile_w: usize, tile_h: usize) -> Result<Self, FormatError> {
        Self::from_csr(&csc.to_csr(), tile_w, tile_h)
    }

    /// The strips, left to right.
    pub fn strips(&self) -> &[DcsrStrip] {
        &self.strips
    }

    /// Tile width.
    pub fn tile_width(&self) -> usize {
        self.tile_w
    }

    /// Number of vertical strips.
    pub fn num_strips(&self) -> usize {
        self.strips.len()
    }

    /// Number of tiles per strip.
    pub fn tiles_per_strip(&self) -> usize {
        self.strips.first().map_or(0, DcsrStrip::num_tiles)
    }

    /// Iterate all tiles with their `(strip, tile)` coordinates.
    pub fn iter_tiles(&self) -> impl Iterator<Item = (usize, usize, DcsrTileView<'_>)> {
        self.strips
            .iter()
            .enumerate()
            .flat_map(|(s, strip)| strip.tiles().enumerate().map(move |(t, tile)| (s, t, tile)))
    }

    /// Total number of non-empty row segments across all tiles — the
    /// quantity that inflates tiled metadata for scattered distributions.
    pub fn total_row_segments(&self) -> usize {
        self.strips.iter().map(|s| s.rowidx.len()).sum()
    }

    /// Reassemble the original CSR (inverse of `from_csr`).
    pub fn to_csr(&self) -> Csr {
        let mut triplets: Vec<(Index, Index, Value)> = self
            .iter_tiles()
            .flat_map(|(_, _, tile)| tile.iter_global().collect::<Vec<_>>())
            .collect();
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut rowptr = vec![0 as Index; self.nrows + 1];
        let mut colidx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            rowptr[r as usize + 1] += 1;
            colidx.push(c);
            values.push(v);
        }
        for i in 0..self.nrows {
            rowptr[i + 1] += rowptr[i];
        }
        Csr::from_parts_unchecked(self.nrows, self.ncols, rowptr, colidx, values)
    }
}

impl SparseMatrix for TiledDcsr {
    fn shape(&self) -> Shape {
        Shape::new(self.nrows, self.ncols)
    }

    fn nnz(&self) -> usize {
        self.strips.iter().map(|s| s.colidx.len()).sum()
    }
}

impl StorageSize for TiledDcsr {
    fn metadata_bytes(&self) -> usize {
        self.strips
            .iter()
            .map(|s| (s.colidx.len() + s.rowptr.len() + s.rowidx.len()) * INDEX_BYTES)
            .sum()
    }

    fn data_bytes(&self) -> usize {
        self.strips
            .iter()
            .map(|s| s.values.len() * VALUE_BYTES)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample(n: usize, entries: &[(u32, u32)]) -> Csr {
        let rows: Vec<u32> = entries.iter().map(|e| e.0).collect();
        let cols: Vec<u32> = entries.iter().map(|e| e.1).collect();
        let vals: Vec<f32> = (0..entries.len()).map(|i| i as f32 + 1.0).collect();
        Csr::from_coo(&Coo::from_triplets(n, n, &rows, &cols, &vals).unwrap())
    }

    #[test]
    fn tiled_csr_roundtrip() {
        let m = sample(10, &[(0, 0), (0, 9), (3, 4), (7, 2), (9, 9)]);
        let tiled = TiledCsr::from_csr(&m, 4).unwrap();
        assert_eq!(tiled.strips().len(), 3);
        assert_eq!(tiled.nnz(), m.nnz());
        assert_eq!(tiled.to_csr(), m);
    }

    #[test]
    fn tiled_csr_full_rowptr_per_strip() {
        let m = sample(10, &[(0, 0)]);
        let tiled = TiledCsr::from_csr(&m, 4).unwrap();
        for strip in tiled.strips() {
            assert_eq!(strip.rowptr.len(), 11); // nrows + 1 regardless of content
        }
        // Only the first strip has the non-zero.
        assert_eq!(tiled.strips()[0].nnz(), 1);
        assert_eq!(tiled.strips()[1].nnz(), 0);
        assert_eq!(tiled.strips()[0].nonzero_rows(), 1);
    }

    #[test]
    fn tiled_dcsr_roundtrip() {
        let m = sample(10, &[(0, 0), (0, 9), (3, 4), (7, 2), (9, 9), (5, 5)]);
        let tiled = TiledDcsr::from_csr(&m, 4, 4).unwrap();
        assert_eq!(tiled.num_strips(), 3);
        assert_eq!(tiled.tiles_per_strip(), 3);
        assert_eq!(tiled.nnz(), m.nnz());
        assert_eq!(tiled.to_csr(), m);
        for (_, _, tile) in tiled.iter_tiles() {
            tile.validate().unwrap();
        }
    }

    #[test]
    fn tiled_dcsr_local_indices() {
        let m = sample(8, &[(5, 6)]);
        let tiled = TiledDcsr::from_csr(&m, 4, 4).unwrap();
        // (5,6) lands in strip 1, tile 1, local (1, 2).
        let tile = tiled.strips()[1].tile(1);
        assert_eq!(tile.rowidx, [1]);
        assert_eq!(tile.colidx, [2]);
        assert_eq!(tile.row_start, 4);
        assert_eq!(tile.col_start, 4);
        let g: Vec<_> = tile.iter_global().collect();
        assert_eq!(g, vec![(5, 6, 1.0)]);
    }

    #[test]
    fn tiled_dcsr_metadata_beats_tiled_csr_for_sparse_strips() {
        // A large, very sparse matrix: tiled CSR pays nrows+1 pointers per
        // strip; tiled DCSR pays only for the few non-empty row segments.
        let n = 512;
        let entries: Vec<(u32, u32)> = (0..16u32)
            .map(|i| (i * 31 % n as u32, i * 17 % n as u32))
            .collect();
        let m = sample(n, &entries);
        let tcsr = TiledCsr::from_csr(&m, 64).unwrap();
        let tdcsr = TiledDcsr::from_csr(&m, 64, 64).unwrap();
        assert!(
            tdcsr.metadata_bytes() * 10 < tcsr.metadata_bytes(),
            "expected orders-of-magnitude reduction (Fig. 8): dcsr={} csr={}",
            tdcsr.metadata_bytes(),
            tcsr.metadata_bytes()
        );
    }

    #[test]
    fn tiled_dcsr_overhead_vs_untiled_csr_is_modest() {
        // Fig. 9: tiled DCSR is typically 1.3-2x the untiled CSR size.
        let n = 256;
        let entries: Vec<(u32, u32)> = (0..2000u32)
            .map(|i| ((i * 7919) % n as u32, (i * 104729) % n as u32))
            .collect();
        let m = sample(n, &entries);
        let tdcsr = TiledDcsr::from_csr(&m, 64, 64).unwrap();
        let ratio = tdcsr.storage_bytes() as f64 / m.storage_bytes() as f64;
        assert!(ratio > 1.0 && ratio < 3.0, "ratio = {ratio}");
    }

    #[test]
    fn row_spanning_multiple_strips_splits_segments() {
        let m = sample(8, &[(2, 1), (2, 5), (2, 7)]);
        let tiled = TiledDcsr::from_csr(&m, 4, 4).unwrap();
        // Row 2 contributes a row segment to strip 0 (col 1) and strip 1
        // (cols 5, 7).
        assert_eq!(tiled.strips()[0].tile(0).nnz(), 1);
        assert_eq!(tiled.strips()[1].tile(0).nnz(), 2);
        assert_eq!(tiled.total_row_segments(), 2);
    }

    #[test]
    fn zero_tile_dims_rejected() {
        let m = sample(4, &[(0, 0)]);
        assert!(TiledCsr::from_csr(&m, 0).is_err());
        assert!(TiledDcsr::from_csr(&m, 0, 4).is_err());
        assert!(TiledDcsr::from_csr(&m, 4, 0).is_err());
    }

    #[test]
    fn from_csc_equals_from_csr() {
        let m = sample(12, &[(0, 0), (11, 11), (5, 7), (7, 5), (3, 3)]);
        let a = TiledDcsr::from_csr(&m, 4, 4).unwrap();
        let b = TiledDcsr::from_csc(&m.to_csc(), 4, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ragged_edges_handled() {
        // 10x10 with 4-wide tiles -> last strip/tile is 2 wide/tall.
        let m = sample(10, &[(9, 9), (8, 8)]);
        let tiled = TiledDcsr::from_csr(&m, 4, 4).unwrap();
        let tile = tiled.strips()[2].tile(2);
        assert_eq!(tile.width, 2);
        assert_eq!(tile.height, 2);
        tile.validate().unwrap();
        assert_eq!(tiled.to_csr(), m);
    }
}
