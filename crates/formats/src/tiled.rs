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

/// Where one tile starts in its [`TiledDcsr`]'s arrays: `rows` in
/// `rowidx` and `elems` in `colidx`/`values`. Tile `i` (strip-major) runs
/// to header `i + 1`, and its `rowptr` segment is its `rows` range shifted
/// by `i` (one extra entry per tile). A last header closes the arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TileHeader {
    rows: Index,
    elems: Index,
}

impl TileHeader {
    fn rows(self) -> usize {
        self.rows as usize
    }

    fn elems(self) -> usize {
        self.elems as usize
    }
}

/// Exact sizes of one strip's share of a [`TiledDcsr`]'s arrays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StripSize {
    /// Non-empty row segments across the strip's tiles.
    pub rows: usize,
    /// Elements in the strip.
    pub elems: usize,
}

/// Writes one strip of a [`TiledDcsr`] under construction into the
/// strip's own ranges of the matrix-level arrays (see
/// [`TiledDcsr::build`]). Tiles are written top to bottom: per non-empty
/// row, [`Self::push_row`] and then its [`Self::push_elem`]s, and
/// [`Self::finish_tile`] after each tile, empty ones included.
#[derive(Debug)]
pub struct StripWriter<'a> {
    strip: usize,
    tile_w: usize,
    width: usize,
    /// Height of the strip's first tile.
    first_height: usize,
    /// Where the strip starts in the matrix-level arrays.
    base: TileHeader,
    rowidx: &'a mut [Index],
    rowptr: &'a mut [Index],
    colidx: &'a mut [Index],
    values: &'a mut [Value],
    /// The headers that close each of the strip's tiles.
    ends: &'a mut [TileHeader],
    rows: usize,
    elems: usize,
    tiles: usize,
    /// `elems` when the current tile started.
    tile_elems: usize,
}

impl StripWriter<'_> {
    /// Open a non-empty row of the current tile (`local_row` is relative
    /// to the tile's first row); its elements follow via
    /// [`Self::push_elem`].
    pub fn push_row(&mut self, local_row: Index) {
        self.rowptr[self.rows + self.tiles] = (self.elems - self.tile_elems) as Index;
        self.rowidx[self.rows] = local_row;
        self.rows += 1;
    }

    /// Append one element to the current row (`local_col` is relative to
    /// the strip's first column).
    pub fn push_elem(&mut self, local_col: Index, value: Value) {
        self.colidx[self.elems] = local_col;
        self.values[self.elems] = value;
        self.elems += 1;
    }

    /// Close the current tile.
    pub fn finish_tile(&mut self) {
        self.rowptr[self.rows + self.tiles] = (self.elems - self.tile_elems) as Index;
        self.ends[self.tiles] = TileHeader {
            rows: self.base.rows + self.rows as Index,
            elems: self.base.elems + self.elems as Index,
        };
        self.tiles += 1;
        self.tile_elems = self.elems;
    }

    /// The index of the strip this writer fills.
    pub fn strip(&self) -> usize {
        self.strip
    }

    /// The strip's first tile, borrowed. Panics before the first
    /// [`Self::finish_tile`].
    pub fn first_tile(&self) -> DcsrTileView<'_> {
        assert!(self.tiles > 0, "the first tile is not finished");
        let rows = self.ends[0].rows() - self.base.rows();
        let elems = self.ends[0].elems() - self.base.elems();
        DcsrTileView {
            row_start: 0,
            col_start: (self.strip * self.tile_w) as Index,
            height: self.first_height,
            width: self.width,
            rowidx: &self.rowidx[..rows],
            rowptr: &self.rowptr[..rows + 1],
            colidx: &self.colidx[..elems],
            values: &self.values[..elems],
        }
    }
}

/// One vertical strip of a [`TiledDcsr`], borrowed: its tiles, top to
/// bottom. This is the unit an SM consumes (one block per strip,
/// `GetDCSRTile` per tile, Figure 11). Two strips are equal when they
/// cover the same columns with equal tiles.
#[derive(Clone, Copy)]
pub struct DcsrStrip<'a> {
    tiled: &'a TiledDcsr,
    strip: usize,
}

impl<'a> DcsrStrip<'a> {
    /// First global column covered by the strip.
    pub fn col_start(&self) -> Index {
        (self.strip * self.tiled.tile_w) as Index
    }

    /// Strip width (columns covered; ≤ nominal width at the right edge).
    pub fn width(&self) -> usize {
        self.tiled.strip_width(self.strip)
    }

    /// Number of tiles in the strip.
    pub fn num_tiles(&self) -> usize {
        self.tiled.tiles_per_strip()
    }

    /// Tile `t` (top to bottom). Panics if `t` is out of range.
    pub fn tile(&self, t: usize) -> DcsrTileView<'a> {
        self.tiled.tile(self.strip, t)
    }

    /// Every tile, top to bottom.
    pub fn tiles(self) -> impl Iterator<Item = DcsrTileView<'a>> {
        (0..self.num_tiles()).map(move |t| self.tile(t))
    }
}

impl PartialEq for DcsrStrip<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.col_start() == other.col_start()
            && self.width() == other.width()
            && self.tiles().eq(other.tiles())
    }
}

impl std::fmt::Debug for DcsrStrip<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcsrStrip")
            .field("col_start", &self.col_start())
            .field("width", &self.width())
            .field("tiles", &self.tiles().collect::<Vec<_>>())
            .finish()
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

/// The full matrix as tiled DCSR: `tile_h × tile_w` tiles on a regular
/// grid (clamped at the bottom and right edges), stored strip after
/// strip and tile after tile in one set of matrix-level arrays. Every
/// strip and tile is an offset range into them, and each tile's `rowptr`
/// segment starts at 0, so [`Self::tile`] borrows it as a standalone
/// DCSR tile. Both producers write this layout: offline tiling
/// ([`Self::from_csr`]) and the near-memory engine's farm, through
/// [`Self::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct TiledDcsr {
    nrows: usize,
    ncols: usize,
    tile_w: usize,
    tile_h: usize,
    /// Local indices of non-empty rows, tile after tile.
    rowidx: Vec<Index>,
    /// Per-tile row pointers, each tile's segment starting at 0.
    rowptr: Vec<Index>,
    /// Local column indices.
    colidx: Vec<Index>,
    /// Values.
    values: Vec<Value>,
    /// One header per tile, strip-major, plus the closing one.
    headers: Vec<TileHeader>,
}

impl TiledDcsr {
    /// Allocate the arrays of a `shape` matrix tiled `tile_h × tile_w`
    /// whose strip `s` holds exactly `sizes[s]`, and hand `fill` one
    /// [`StripWriter`] per strip, left to right, over that strip's
    /// disjoint ranges. Writers may run in parallel. Returns the tiling
    /// and `fill`'s result.
    ///
    /// Each writer must write every tile of its strip; call
    /// [`Self::validate`] on the result of an untrusted producer. Panics
    /// if a tile dimension is 0 or `sizes` does not have one entry per
    /// strip.
    pub fn build<R>(
        shape: Shape,
        tile_w: usize,
        tile_h: usize,
        sizes: &[StripSize],
        fill: impl FnOnce(Vec<StripWriter<'_>>) -> R,
    ) -> (Self, R) {
        assert!(tile_w > 0 && tile_h > 0, "tile dims must be > 0");
        assert_eq!(sizes.len(), crate::strip_count(shape.ncols, tile_w));
        let ntiles = crate::tile_count(shape.nrows, tile_h);
        let rows: usize = sizes.iter().map(|s| s.rows).sum();
        let elems: usize = sizes.iter().map(|s| s.elems).sum();
        let mut out = Self {
            nrows: shape.nrows,
            ncols: shape.ncols,
            tile_w,
            tile_h,
            rowidx: vec![0; rows],
            rowptr: vec![0; rows + sizes.len() * ntiles],
            colidx: vec![0; elems],
            values: vec![0.0; elems],
            headers: vec![TileHeader::default(); sizes.len() * ntiles + 1],
        };
        let first_height = tile_h.min(shape.nrows).max(1);
        let mut rowidx = &mut out.rowidx[..];
        let mut rowptr = &mut out.rowptr[..];
        let mut colidx = &mut out.colidx[..];
        let mut values = &mut out.values[..];
        let mut ends = &mut out.headers[1..];
        let mut base = TileHeader::default();
        let mut writers = Vec::with_capacity(sizes.len());
        for (s, size) in sizes.iter().enumerate() {
            let strip_rowidx;
            let strip_rowptr;
            let strip_colidx;
            let strip_values;
            let strip_ends;
            (strip_rowidx, rowidx) = std::mem::take(&mut rowidx).split_at_mut(size.rows);
            (strip_rowptr, rowptr) = std::mem::take(&mut rowptr).split_at_mut(size.rows + ntiles);
            (strip_colidx, colidx) = std::mem::take(&mut colidx).split_at_mut(size.elems);
            (strip_values, values) = std::mem::take(&mut values).split_at_mut(size.elems);
            (strip_ends, ends) = std::mem::take(&mut ends).split_at_mut(ntiles);
            writers.push(StripWriter {
                strip: s,
                tile_w,
                width: tile_w.min(shape.ncols.saturating_sub(s * tile_w)).max(1),
                first_height,
                base,
                rowidx: strip_rowidx,
                rowptr: strip_rowptr,
                colidx: strip_colidx,
                values: strip_values,
                ends: strip_ends,
                rows: 0,
                elems: 0,
                tiles: 0,
                tile_elems: 0,
            });
            base.rows += size.rows as Index;
            base.elems += size.elems as Index;
        }
        let result = fill(writers);
        (out, result)
    }

    /// Offline tiling of a CSR matrix into `tile_h × tile_w` DCSR tiles,
    /// in one pass over the CSR rows after one that sizes each strip.
    ///
    /// This is the *offline tiled-DCSR* configuration of §5.2 (2.03×
    /// speedup, preprocessing cost not counted); the engine produces the
    /// same tiling online from CSC.
    pub fn from_csr(csr: &Csr, tile_w: usize, tile_h: usize) -> Result<Self, FormatError> {
        if tile_w == 0 || tile_h == 0 {
            return Err(FormatError::ShapeMismatch {
                detail: "tile dims must be > 0".into(),
            });
        }
        let shape = csr.shape();
        // A row adds one row segment to every strip it touches and one
        // element per entry. Row-major CSR gives columns sorted, so per-
        // strip segments are contiguous runs.
        let mut sizes = vec![StripSize::default(); crate::strip_count(shape.ncols, tile_w)];
        for r in 0..shape.nrows {
            let mut prev = usize::MAX;
            for &c in csr.row(r).0 {
                let s = c as usize / tile_w;
                sizes[s].elems += 1;
                if s != prev {
                    sizes[s].rows += 1;
                    prev = s;
                }
            }
        }
        let (out, ()) = Self::build(shape, tile_w, tile_h, &sizes, |mut strips| {
            for t in 0..crate::tile_count(shape.nrows, tile_h) {
                let row_start = t * tile_h;
                for r in row_start..(row_start + tile_h).min(shape.nrows) {
                    let local_r = (r - row_start) as Index;
                    let (cols, vals) = csr.row(r);
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
        });
        debug_assert!(
            out.validate().is_ok(),
            "tiling produced an invalid TiledDcsr: {:?}",
            out.validate().err()
        );
        Ok(out)
    }

    /// Check the arrays: one header per tile of the grid plus the closing
    /// one, headers rising from 0 to the array lengths, one `rowptr`
    /// entry per row segment and per tile, and every tile's internal
    /// invariants ([`DcsrTileView::validate`]).
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.tile_w == 0 || self.tile_h == 0 {
            return Err(FormatError::ShapeMismatch {
                detail: "tile dims must be > 0".into(),
            });
        }
        let ntiles = self.num_strips() * self.tiles_per_strip();
        for (found, expected, name) in [
            (self.headers.len(), ntiles + 1, "tile headers"),
            (self.rowptr.len(), self.rowidx.len() + ntiles, "rowptr"),
            (self.values.len(), self.colidx.len(), "values"),
        ] {
            if found != expected {
                return Err(FormatError::LengthMismatch {
                    expected,
                    found,
                    name,
                });
            }
        }
        let end = TileHeader {
            rows: self.rowidx.len() as Index,
            elems: self.colidx.len() as Index,
        };
        if self.headers.first() != Some(&TileHeader::default())
            || self.headers.last() != Some(&end)
            || self
                .headers
                .windows(2)
                .any(|w| w[1].rows < w[0].rows || w[1].elems < w[0].elems)
        {
            return Err(FormatError::MalformedPointerArray {
                name: "tile headers",
                detail: "must rise from 0 to the array lengths".into(),
            });
        }
        self.iter_tiles()
            .try_for_each(|(_, _, tile)| tile.validate())
    }

    /// Offline tiling from CSC (sanity mirror of the engine's online path).
    pub fn from_csc(csc: &Csc, tile_w: usize, tile_h: usize) -> Result<Self, FormatError> {
        Self::from_csr(&csc.to_csr(), tile_w, tile_h)
    }

    /// The strips, left to right.
    pub fn strips(&self) -> impl ExactSizeIterator<Item = DcsrStrip<'_>> {
        (0..self.num_strips()).map(move |strip| DcsrStrip { tiled: self, strip })
    }

    /// Strip `s`, borrowed. Panics if `s` is out of range.
    pub fn strip(&self, s: usize) -> DcsrStrip<'_> {
        assert!(s < self.num_strips(), "strip {s} out of range");
        DcsrStrip {
            tiled: self,
            strip: s,
        }
    }

    /// The tile at strip `s` (column block) and vertical position `t`
    /// (row block), borrowed. Panics if either is out of range.
    pub fn tile(&self, s: usize, t: usize) -> DcsrTileView<'_> {
        let ntiles = self.tiles_per_strip();
        assert!(t < ntiles, "tile {t} out of range");
        let i = s * ntiles + t;
        let (h, next) = (self.headers[i], self.headers[i + 1]);
        let (rows, elems) = (h.rows()..next.rows(), h.elems()..next.elems());
        let row_start = t * self.tile_h;
        DcsrTileView {
            row_start: row_start as Index,
            col_start: (s * self.tile_w) as Index,
            height: self.tile_h.min(self.nrows.saturating_sub(row_start)).max(1),
            width: self.strip_width(s),
            rowidx: &self.rowidx[rows.clone()],
            rowptr: &self.rowptr[rows.start + i..rows.end + i + 1],
            colidx: &self.colidx[elems.clone()],
            values: &self.values[elems],
        }
    }

    fn strip_width(&self, s: usize) -> usize {
        self.tile_w
            .min(self.ncols.saturating_sub(s * self.tile_w))
            .max(1)
    }

    /// Tile width.
    pub fn tile_width(&self) -> usize {
        self.tile_w
    }

    /// Nominal tile height.
    pub fn tile_height(&self) -> usize {
        self.tile_h
    }

    /// Number of vertical strips.
    pub fn num_strips(&self) -> usize {
        crate::strip_count(self.ncols, self.tile_w)
    }

    /// Number of tiles per strip.
    pub fn tiles_per_strip(&self) -> usize {
        crate::tile_count(self.nrows, self.tile_h)
    }

    /// Iterate all tiles with their `(strip, tile)` coordinates.
    pub fn iter_tiles(&self) -> impl Iterator<Item = (usize, usize, DcsrTileView<'_>)> {
        let ntiles = self.tiles_per_strip();
        (0..self.num_strips()).flat_map(move |s| (0..ntiles).map(move |t| (s, t, self.tile(s, t))))
    }

    /// Total number of non-empty row segments across all tiles — the
    /// quantity that inflates tiled metadata for scattered distributions.
    pub fn total_row_segments(&self) -> usize {
        self.rowidx.len()
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
        self.colidx.len()
    }
}

impl StorageSize for TiledDcsr {
    fn metadata_bytes(&self) -> usize {
        (self.colidx.len() + self.rowptr.len() + self.rowidx.len()) * INDEX_BYTES
    }

    fn data_bytes(&self) -> usize {
        self.values.len() * VALUE_BYTES
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
        let tile = tiled.tile(1, 1);
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
        assert_eq!(tiled.tile(0, 0).nnz(), 1);
        assert_eq!(tiled.tile(1, 0).nnz(), 2);
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
        let tile = tiled.tile(2, 2);
        assert_eq!(tile.width, 2);
        assert_eq!(tile.height, 2);
        tile.validate().unwrap();
        assert_eq!(tiled.to_csr(), m);
    }
}
