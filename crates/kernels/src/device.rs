//! Device-memory images of the host formats.
//!
//! The simulator models addresses, not contents, so "uploading" a matrix
//! allocates appropriately sized, appropriately classed buffers whose
//! offsets the kernels use for traffic accounting while they compute the
//! result from the host-side structures.

use nmt_formats::{Csc, Csr, Dcsr, DenseMatrix, SparseMatrix, TiledDcsr};
use nmt_sim::{Buffer, Gpu, TrafficClass};

/// Bytes per stored index/value (fp32 + u32).
pub const WORD: u64 = 4;

/// Device image of a CSR matrix: `rowptr`, `colidx`, `values`.
#[derive(Debug, Clone, Copy)]
pub struct CsrDevice {
    /// Row-pointer array (`n + 1` words).
    pub rowptr: Buffer,
    /// Column-index array (`nnz` words).
    pub colidx: Buffer,
    /// Value array (`nnz` words).
    pub values: Buffer,
}

impl CsrDevice {
    /// Allocate buffers for `csr` under [`TrafficClass::MatA`].
    pub fn upload(gpu: &mut Gpu, csr: &Csr) -> Self {
        let n = csr.shape().nrows as u64;
        let nnz = csr.nnz() as u64;
        Self {
            rowptr: gpu.alloc((n + 1) * WORD, TrafficClass::MatA),
            colidx: gpu.alloc(nnz.max(1) * WORD, TrafficClass::MatA),
            values: gpu.alloc(nnz.max(1) * WORD, TrafficClass::MatA),
        }
    }
}

/// Device image of an untiled DCSR matrix.
#[derive(Debug, Clone, Copy)]
pub struct DcsrDevice {
    /// Non-empty-row index array.
    pub rowidx: Buffer,
    /// Row-pointer array over densified rows.
    pub rowptr: Buffer,
    /// Column-index array.
    pub colidx: Buffer,
    /// Value array.
    pub values: Buffer,
}

impl DcsrDevice {
    /// Allocate buffers for `dcsr` under [`TrafficClass::MatA`].
    pub fn upload(gpu: &mut Gpu, dcsr: &Dcsr) -> Self {
        let rows = dcsr.num_dense_rows() as u64;
        let nnz = dcsr.nnz() as u64;
        Self {
            rowidx: gpu.alloc(rows.max(1) * WORD, TrafficClass::MatA),
            rowptr: gpu.alloc((rows + 1) * WORD, TrafficClass::MatA),
            colidx: gpu.alloc(nnz.max(1) * WORD, TrafficClass::MatA),
            values: gpu.alloc(nnz.max(1) * WORD, TrafficClass::MatA),
        }
    }
}

/// Device image of a CSC matrix (the engine's input).
#[derive(Debug, Clone, Copy)]
pub struct CscDevice {
    /// Column-pointer array (`ncols + 1` words).
    pub colptr: Buffer,
    /// Row-index array (`nnz` words).
    pub rowidx: Buffer,
    /// Value array (`nnz` words).
    pub values: Buffer,
}

impl CscDevice {
    /// Allocate buffers for `csc` under [`TrafficClass::MatA`].
    pub fn upload(gpu: &mut Gpu, csc: &Csc) -> Self {
        let ncols = csc.shape().ncols as u64;
        let nnz = csc.nnz() as u64;
        Self {
            colptr: gpu.alloc((ncols + 1) * WORD, TrafficClass::MatA),
            rowidx: gpu.alloc(nnz.max(1) * WORD, TrafficClass::MatA),
            values: gpu.alloc(nnz.max(1) * WORD, TrafficClass::MatA),
        }
    }

    /// Byte range of the element arrays for columns `[c0, c1)`, relative
    /// to `rowidx`/`values`: CSC keeps a strip's elements contiguous —
    /// the property that makes online strip extraction cheap (§4.1).
    pub fn strip_elem_range(csc: &Csc, c0: usize, c1: usize) -> (u64, u64) {
        let lo = csc.colptr()[c0] as u64 * WORD;
        let hi = csc.colptr()[c1] as u64 * WORD;
        (lo, hi - lo)
    }
}

/// Device image of an offline-tiled DCSR matrix: one contiguous buffer with
/// per-tile byte offsets (strip-major).
#[derive(Debug, Clone)]
pub struct TiledDcsrDevice {
    /// The packed tile data.
    pub data: Buffer,
    /// `offsets[s][t]` = (byte offset, byte length) of tile `t` of strip `s`.
    pub offsets: Vec<Vec<(u64, u64)>>,
}

impl TiledDcsrDevice {
    /// Allocate and lay out `tiled` under [`TrafficClass::MatA`].
    pub fn upload(gpu: &mut Gpu, tiled: &TiledDcsr) -> Self {
        let mut offsets = Vec::with_capacity(tiled.num_strips());
        let mut cursor = 0u64;
        for strip in tiled.strips() {
            let mut row = Vec::with_capacity(strip.num_tiles());
            for tile in strip.tiles() {
                let bytes = (tile.metadata_bytes() + tile.data_bytes()) as u64;
                row.push((cursor, bytes));
                cursor += bytes;
            }
            offsets.push(row);
        }
        Self {
            data: gpu.alloc(cursor.max(1), TrafficClass::MatA),
            offsets,
        }
    }
}

/// Device image of a dense matrix (row-major).
#[derive(Debug, Clone, Copy)]
pub struct DenseDevice {
    /// The row-major payload.
    pub buf: Buffer,
    /// Row length in elements.
    pub ncols: u64,
}

impl DenseDevice {
    /// Allocate an `nrows × ncols` dense matrix under the given class (B
    /// or C) — only the shape matters, so an output needs no host copy.
    pub fn alloc(gpu: &mut Gpu, nrows: usize, ncols: usize, class: TrafficClass) -> Self {
        Self {
            buf: gpu.alloc((nrows * ncols) as u64 * WORD, class),
            ncols: ncols as u64,
        }
    }

    /// Allocate a dense matrix shaped like `m` under the given class.
    pub fn upload(gpu: &mut Gpu, m: &DenseMatrix, class: TrafficClass) -> Self {
        Self::alloc(gpu, m.nrows(), m.ncols(), class)
    }

    /// Byte offset of element `(row, col)`.
    #[inline]
    pub fn offset(&self, row: u64, col: u64) -> u64 {
        (row * self.ncols + col) * WORD
    }

    /// Byte offset and length of the row segment `(row, col..col+len)`.
    #[inline]
    pub fn row_segment(&self, row: u64, col: u64, len: u64) -> (u64, u64) {
        (self.offset(row, col), len * WORD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmt_formats::Coo;
    use nmt_sim::GpuConfig;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig::test_small()).unwrap()
    }

    fn sample() -> Csr {
        let coo =
            Coo::from_triplets(8, 8, &[0, 3, 5, 7], &[1, 4, 2, 7], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        Csr::from_coo(&coo)
    }

    #[test]
    fn csr_upload_sizes() {
        let mut g = gpu();
        let csr = sample();
        let d = CsrDevice::upload(&mut g, &csr);
        assert_eq!(d.rowptr.len, 9 * 4);
        assert_eq!(d.colidx.len, 4 * 4);
        assert_eq!(d.values.len, 4 * 4);
        assert_eq!(d.rowptr.class, TrafficClass::MatA);
    }

    #[test]
    fn csc_strip_ranges_are_contiguous() {
        let csc = sample().to_csc();
        let (lo0, len0) = CscDevice::strip_elem_range(&csc, 0, 4);
        let (lo1, len1) = CscDevice::strip_elem_range(&csc, 4, 8);
        assert_eq!(lo0, 0);
        assert_eq!(lo0 + len0, lo1);
        assert_eq!((len0 + len1) / 4, 4); // all nnz covered
    }

    #[test]
    fn tiled_upload_offsets_are_disjoint_and_ordered() {
        let mut g = gpu();
        let tiled = TiledDcsr::from_csr(&sample(), 4, 4).unwrap();
        let d = TiledDcsrDevice::upload(&mut g, &tiled);
        let mut cursor = 0;
        let mut total = 0;
        for strip in &d.offsets {
            for &(off, len) in strip {
                assert_eq!(off, cursor);
                cursor += len;
                total += len;
            }
        }
        use nmt_formats::StorageSize;
        assert_eq!(total as usize, tiled.storage_bytes());
        assert!(d.data.len >= total.max(1));
    }

    #[test]
    fn dense_offsets() {
        let mut g = gpu();
        let m = DenseMatrix::zeros(4, 8);
        let d = DenseDevice::upload(&mut g, &m, TrafficClass::MatB);
        assert_eq!(d.offset(0, 0), 0);
        assert_eq!(d.offset(1, 0), 32);
        assert_eq!(d.offset(2, 3), (2 * 8 + 3) * 4);
        assert_eq!(d.row_segment(1, 2, 4), (40, 16));
        assert_eq!(d.buf.len, 4 * 8 * 4);
    }

    #[test]
    fn empty_matrix_allocates_nonzero_buffers() {
        let mut g = gpu();
        let csr = Csr::new(4, 4, vec![0; 5], vec![], vec![]).unwrap();
        let d = CsrDevice::upload(&mut g, &csr);
        assert!(
            d.colidx.len > 0,
            "zero-length buffers would break alloc math"
        );
    }
}
