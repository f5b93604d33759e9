//! Tiled formats: vertical strips of CSR and strip×tile DCSR.
//!
//! Tiling cuts the sparse matrix `A` into vertical strips as wide as a `B`
//! tile (64 columns in the paper, §5.1) so that a thread block can keep a
//! 64×64 tile of `B` in shared memory. A *tiled CSR* strip still carries a
//! full `rowptr` with one entry per matrix row — even though ~99 % of rows
//! in a typical strip are empty (Figure 5) — which is exactly the redundancy
//! *tiled DCSR* removes (Figure 6).

use crate::{
    Csc, Csr, Dcsr, FormatError, Index, Shape, SparseMatrix, StorageSize, Value, INDEX_BYTES,
    VALUE_BYTES,
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

/// One `tile_h × tile_w` DCSR tile: only non-empty row segments are stored,
/// with row and column indices local to the tile.
///
/// This is exactly the structure the near-memory engine streams to shared
/// memory: `value`, `col_idx`, `row_ptr`, `row_idx` (Figure 11's outputs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DcsrTile {
    /// First global row covered by the tile.
    pub row_start: Index,
    /// First global column covered by the tile.
    pub col_start: Index,
    /// Tile height (rows covered; ≤ nominal tile height at the bottom edge).
    pub height: usize,
    /// Tile width (columns covered; ≤ nominal width at the right edge).
    pub width: usize,
    /// Local indices of non-empty rows within the tile, strictly increasing.
    pub rowidx: Vec<Index>,
    /// Row pointers over the densified rows (`rowidx.len() + 1` entries).
    pub rowptr: Vec<Index>,
    /// Local column indices (`0 .. width`).
    pub colidx: Vec<Index>,
    /// Values.
    pub values: Vec<Value>,
}

impl DcsrTile {
    /// Number of non-zeros in the tile.
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// Number of non-empty row segments (`nnzrows` in the API of Fig. 11).
    pub fn nnz_rows(&self) -> usize {
        self.rowidx.len()
    }

    /// True when the tile stores nothing.
    pub fn is_empty(&self) -> bool {
        self.colidx.is_empty()
    }

    /// Metadata bytes: colidx + rowptr + rowidx, all 4-byte entries.
    pub fn metadata_bytes(&self) -> usize {
        (self.colidx.len() + self.rowptr.len() + self.rowidx.len()) * INDEX_BYTES
    }

    /// Value payload bytes.
    pub fn data_bytes(&self) -> usize {
        self.values.len() * VALUE_BYTES
    }

    /// Validate the tile's internal invariants (used by tests and by the
    /// engine's self-checks).
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

/// The full matrix as strips of DCSR tiles: `strips[s][t]` is the tile at
/// strip `s` (column block) and vertical position `t` (row block).
#[derive(Debug, Clone, PartialEq)]
pub struct TiledDcsr {
    nrows: usize,
    ncols: usize,
    tile_w: usize,
    tile_h: usize,
    strips: Vec<Vec<DcsrTile>>,
}

impl TiledDcsr {
    /// Offline tiling of a CSR matrix into `tile_h × tile_w` DCSR tiles.
    ///
    /// This is the *offline tiled-DCSR* configuration of §5.2 (2.03×
    /// speedup, preprocessing cost not counted); the engine produces the
    /// same tiles online from CSC.
    pub fn from_csr(csr: &Csr, tile_w: usize, tile_h: usize) -> Result<Self, FormatError> {
        if tile_w == 0 || tile_h == 0 {
            return Err(FormatError::ShapeMismatch {
                detail: "tile dims must be > 0".into(),
            });
        }
        let shape = csr.shape();
        let nstrips = crate::strip_count(shape.ncols, tile_w);
        let ntiles = crate::tile_count(shape.nrows, tile_h);
        let mut strips: Vec<Vec<DcsrTile>> = (0..nstrips)
            .map(|s| {
                (0..ntiles)
                    .map(|t| DcsrTile {
                        row_start: (t * tile_h) as Index,
                        col_start: (s * tile_w) as Index,
                        height: tile_h.min(shape.nrows.saturating_sub(t * tile_h)).max(1),
                        width: tile_w.min(shape.ncols.saturating_sub(s * tile_w)).max(1),
                        ..DcsrTile::default()
                    })
                    .collect()
            })
            .collect();
        for r in 0..shape.nrows {
            let t = r / tile_h;
            let local_r = (r - t * tile_h) as Index;
            let (cols, vals) = csr.row(r);
            // Row-major CSR gives columns sorted, so per-strip segments are
            // contiguous runs; emit one densified row per touched strip.
            let mut k = 0;
            while k < cols.len() {
                let s = cols[k] as usize / tile_w;
                let strip_end = ((s + 1) * tile_w) as Index;
                let tile = &mut strips[s][t];
                tile.rowidx.push(local_r);
                while k < cols.len() && cols[k] < strip_end {
                    tile.colidx.push(cols[k] - (s * tile_w) as Index);
                    tile.values.push(vals[k]);
                    k += 1;
                }
                tile.rowptr.push(tile.colidx.len() as Index);
            }
        }
        for strip in &mut strips {
            for tile in strip {
                // rowptr built without the leading 0; prepend it.
                tile.rowptr.insert(0, 0);
                if tile.rowptr.len() == 1 {
                    // completely empty tile: canonical empty rowptr = [0]
                    debug_assert!(tile.rowidx.is_empty());
                }
            }
        }
        let out = Self {
            nrows: shape.nrows,
            ncols: shape.ncols,
            tile_w,
            tile_h,
            strips,
        };
        debug_assert!(
            out.validate().is_ok(),
            "tiling produced an invalid TiledDcsr: {:?}",
            out.validate().err()
        );
        Ok(out)
    }

    /// Check the whole tile grid: the strip/tile counts match the matrix
    /// dimensions, every tile sits at its grid position with the correct
    /// (edge-clamped) extent, and every tile's internal invariants hold
    /// ([`DcsrTile::validate`]).
    pub fn validate(&self) -> Result<(), FormatError> {
        if self.tile_w == 0 || self.tile_h == 0 {
            return Err(FormatError::ShapeMismatch {
                detail: "tile dims must be > 0".into(),
            });
        }
        let nstrips = crate::strip_count(self.ncols, self.tile_w);
        let ntiles = crate::tile_count(self.nrows, self.tile_h);
        if self.strips.len() != nstrips {
            return Err(FormatError::LengthMismatch {
                expected: nstrips,
                found: self.strips.len(),
                name: "strips",
            });
        }
        for (s, strip) in self.strips.iter().enumerate() {
            if strip.len() != ntiles {
                return Err(FormatError::LengthMismatch {
                    expected: ntiles,
                    found: strip.len(),
                    name: "tiles per strip",
                });
            }
            for (t, tile) in strip.iter().enumerate() {
                let row_start = t * self.tile_h;
                let col_start = s * self.tile_w;
                let height = self.tile_h.min(self.nrows.saturating_sub(row_start)).max(1);
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

    /// The strips, each a top-to-bottom vector of tiles.
    pub fn strips(&self) -> &[Vec<DcsrTile>] {
        &self.strips
    }

    /// Consume the tiling, returning the owned strips — the recycling
    /// path: evicted conversion artifacts hand their tile buffers back
    /// to the engine pools via `recycle_strips`.
    pub fn into_strips(self) -> Vec<Vec<DcsrTile>> {
        self.strips
    }

    /// Tile width.
    pub fn tile_width(&self) -> usize {
        self.tile_w
    }

    /// Tile height.
    pub fn tile_height(&self) -> usize {
        self.tile_h
    }

    /// Number of vertical strips.
    pub fn num_strips(&self) -> usize {
        self.strips.len()
    }

    /// Number of tiles per strip.
    pub fn tiles_per_strip(&self) -> usize {
        self.strips.first().map_or(0, Vec::len)
    }

    /// Iterate all tiles with their `(strip, tile)` coordinates.
    pub fn iter_tiles(&self) -> impl Iterator<Item = (usize, usize, &DcsrTile)> {
        self.strips
            .iter()
            .enumerate()
            .flat_map(|(s, tiles)| tiles.iter().enumerate().map(move |(t, tile)| (s, t, tile)))
    }

    /// Total number of non-empty row segments across all tiles — the
    /// quantity that inflates tiled metadata for scattered distributions.
    pub fn total_row_segments(&self) -> usize {
        self.iter_tiles().map(|(_, _, t)| t.nnz_rows()).sum()
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

    /// Reassemble one strip as an untiled [`Dcsr`] over local columns
    /// (used by tests comparing against the engine's per-strip output).
    pub fn strip_as_dcsr(&self, s: usize) -> Dcsr {
        let strip = &self.strips[s];
        let width = strip.first().map_or(1, |t| t.width);
        let mut rows: Vec<(Index, Vec<Index>, Vec<Value>)> = Vec::new();
        for tile in strip {
            for i in 0..tile.rowidx.len() {
                let (lo, hi) = (tile.rowptr[i] as usize, tile.rowptr[i + 1] as usize);
                rows.push((
                    tile.row_start + tile.rowidx[i],
                    tile.colidx[lo..hi].to_vec(),
                    tile.values[lo..hi].to_vec(),
                ));
            }
        }
        rows.sort_unstable_by_key(|&(r, _, _)| r);
        let mut rowidx = Vec::with_capacity(rows.len());
        let mut rowptr = vec![0 as Index];
        let mut colidx = Vec::new();
        let mut values = Vec::new();
        for (r, cols, vals) in rows {
            rowidx.push(r);
            colidx.extend(cols);
            values.extend(vals);
            rowptr.push(colidx.len() as Index);
        }
        Dcsr::from_parts_unchecked(self.nrows, width, rowidx, rowptr, colidx, values)
    }
}

impl SparseMatrix for TiledDcsr {
    fn shape(&self) -> Shape {
        Shape::new(self.nrows, self.ncols)
    }

    fn nnz(&self) -> usize {
        self.iter_tiles().map(|(_, _, t)| t.nnz()).sum()
    }
}

impl StorageSize for TiledDcsr {
    fn metadata_bytes(&self) -> usize {
        self.iter_tiles().map(|(_, _, t)| t.metadata_bytes()).sum()
    }

    fn data_bytes(&self) -> usize {
        self.iter_tiles().map(|(_, _, t)| t.data_bytes()).sum()
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
        let tile = &tiled.strips()[1][1];
        assert_eq!(tile.rowidx, vec![1]);
        assert_eq!(tile.colidx, vec![2]);
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
        assert_eq!(tiled.strips()[0][0].nnz(), 1);
        assert_eq!(tiled.strips()[1][0].nnz(), 2);
        assert_eq!(tiled.total_row_segments(), 2);
    }

    #[test]
    fn strip_as_dcsr_merges_tiles() {
        let m = sample(8, &[(1, 0), (6, 1), (3, 2)]);
        let tiled = TiledDcsr::from_csr(&m, 4, 4).unwrap();
        let strip = tiled.strip_as_dcsr(0);
        assert_eq!(strip.rowidx(), &[1, 3, 6]);
        assert_eq!(strip.nnz(), 3);
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
        let tile = &tiled.strips()[2][2];
        assert_eq!(tile.width, 2);
        assert_eq!(tile.height, 2);
        tile.validate().unwrap();
        assert_eq!(tiled.to_csr(), m);
    }
}
