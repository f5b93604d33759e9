//! Global buffer pools for the conversion hot paths.
//!
//! One set of process-wide [`SharedSlicePool`]s backs every pooled
//! conversion. The farm converts each strip into one [`DcsrStrip`] — four
//! element/index arrays plus a tile-header array, checked out once per
//! strip with sizes known up front — and a consumer hands them back with
//! [`recycle_strips`]. In steady state (microbench iterations, repeated
//! sweep matrices) the farm therefore performs O(1) allocations per
//! matrix and takes each pool lock a handful of times per strip, never
//! per tile. Converter scratch lives in fixed arrays inside the
//! converter and needs no pool.
//!
//! The pools are deliberately *global* rather than thread-local: the
//! rayon shim's workers are scoped threads that live for one top-level
//! parallel call, so thread-local scratch would die between matrices and
//! reuse nothing.
//!
//! Every helper takes a `pooled` flag; with `pooled = false` it degrades
//! to plain allocation (and `put_*` drops), which is the reference path
//! the pooled-vs-unpooled determinism proptests compare against. The
//! pools are correctness-neutral: checked-out buffers are always empty,
//! so pooled and unpooled runs produce bitwise-identical output — only
//! capacities (never serialized) differ.

use nmt_formats::{DcsrStrip, StripBuffers, TileHeader};
use nmt_mem::{PoolStats, SharedSlicePool};

/// Strip index arrays (`rowidx`/`rowptr`/`colidx`, three per strip).
/// Sized generously: a matrix's worth of strip buffers must fit idle so
/// the next matrix reuses all of them.
static IDX_POOL: SharedSlicePool<u32> = SharedSlicePool::with_max_idle(8192);
/// Strip value arrays and kernel accumulators.
static VAL_POOL: SharedSlicePool<f32> = SharedSlicePool::with_max_idle(8192);
/// Strip tile-header arrays (one per strip).
static HEADER_POOL: SharedSlicePool<TileHeader> = SharedSlicePool::with_max_idle(2048);

macro_rules! pool_pair {
    ($vis:vis $take:ident, $put:ident, $pool:ident, $t:ty, $doc:literal) => {
        #[doc = concat!("Check out an empty ", $doc, " buffer (capacity ≥ `cap`).")]
        #[doc = ""]
        #[doc = "A zero-capacity request (an empty strip's arrays) allocates"]
        #[doc = "nothing, so it skips the pool lock and leaves the shelves alone."]
        $vis fn $take(pooled: bool, cap: usize) -> Vec<$t> {
            if pooled && cap > 0 {
                $pool.take(cap)
            } else {
                Vec::with_capacity(cap)
            }
        }

        #[doc = concat!("Return a ", $doc, " buffer to its pool (dropped when unpooled).")]
        $vis fn $put(pooled: bool, buf: Vec<$t>) {
            if pooled && buf.capacity() > 0 {
                $pool.put(buf);
            }
        }
    };
}

pool_pair!(pub take_idx, put_idx, IDX_POOL, u32, "tile-index (`u32`)");
pool_pair!(pub take_val, put_val, VAL_POOL, f32, "value (`f32`)");
pool_pair!(pub(crate) take_headers, put_headers, HEADER_POOL, TileHeader, "tile-header");

/// Buffers for one strip of `elems` elements, at most `rows` non-empty
/// rows and `ntiles` tiles, sized so the strip never grows.
pub(crate) fn take_strip(pooled: bool, elems: usize, rows: usize, ntiles: usize) -> StripBuffers {
    StripBuffers {
        rowidx: take_idx(pooled, rows),
        rowptr: take_idx(pooled, rows + ntiles),
        colidx: take_idx(pooled, elems),
        values: take_val(pooled, elems),
        tiles: take_headers(pooled, ntiles),
    }
}

/// Recycle a whole farm output (`FarmRun::strips`): every strip's buffers
/// go back to the pools, making the *next* conversion of a similar matrix
/// allocation-free. Call this when the tiles have been consumed (e.g.
/// after the online kernel's launch).
pub fn recycle_strips(strips: Vec<DcsrStrip>) {
    for strip in strips {
        let b = strip.into_buffers();
        put_idx(true, b.rowidx);
        put_idx(true, b.rowptr);
        put_idx(true, b.colidx);
        put_val(true, b.values);
        put_headers(true, b.tiles);
    }
}

/// Aggregate reuse counters across all engine pools (observability only;
/// hit/miss totals are schedule-dependent and must never be serialized).
pub fn pool_stats() -> PoolStats {
    let mut total = PoolStats::default();
    total.merge(&IDX_POOL.stats());
    total.merge(&VAL_POOL.stats());
    total.merge(&HEADER_POOL.stats());
    total
}

/// Total capacity (in elements) currently shelved idle across all engine
/// pools — how much allocation the next conversion can avoid. Like
/// [`pool_stats`], observability only: occupancy depends on schedule and
/// must never be serialized into a gated artifact.
pub fn pool_idle_capacity() -> usize {
    IDX_POOL.idle_capacity() + VAL_POOL.idle_capacity() + HEADER_POOL.idle_capacity()
}

/// Drop every shelved buffer and zero the counters in all engine pools.
///
/// Instrumented measurement passes call this first so their allocation
/// counts start from a reproducible (empty) pool state, independent of
/// whatever earlier parallel work left on the shelves.
pub fn reset_pools() {
    IDX_POOL.reset();
    VAL_POOL.reset();
    HEADER_POOL.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the pools are process-global and other engine tests run
    // concurrently in the same process, so assertions here are monotone
    // (>=) rather than exact — exact counter accounting is covered by
    // the nmt-mem unit tests on private pools.

    #[test]
    fn unpooled_take_is_plain_allocation() {
        let v = take_idx(false, 10);
        assert!(v.is_empty() && v.capacity() >= 10);
        put_idx(false, v); // dropped, not shelved
        let v = take_val(false, 7);
        assert!(v.is_empty() && v.capacity() >= 7);
        put_val(false, v);
    }

    #[test]
    fn recycle_strips_then_take_reuses() {
        let csc = nmt_formats::Csc::new(4, 2, vec![0, 2, 3], vec![0, 3, 1], vec![1.0, 2.0, 3.0])
            .expect("valid csc");
        let strip = crate::convert::StripConverter::new(&csc, 0, 2, true).convert_strip(2);
        let hits_before = pool_stats().hits;
        let reclaimed_before = pool_stats().reclaimed;
        recycle_strips(vec![strip]);
        assert!(
            pool_stats().reclaimed >= reclaimed_before + 5,
            "five buffers per strip"
        );
        let headers = take_headers(true, 2);
        assert!(headers.capacity() >= 2);
        assert!(pool_stats().hits > hits_before);
        put_headers(true, headers);
    }
}
