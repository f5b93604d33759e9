//! No-op stand-ins for the engine's retired buffer pools.
//!
//! The engine pools no buffers: a farm conversion sizes one arena per
//! matrix exactly and allocates it once (see [`crate::farm`]), and an
//! evicted artifact is dropped. The host-time benchmark (`hostbench/`)
//! still calls these three functions, so they stay until that benchmark
//! changes with them.

use nmt_formats::TiledDcsr;
use nmt_mem::PoolStats;

/// Drops a consumed farm run's strips.
pub fn recycle_strips(strips: TiledDcsr) {
    drop(strips);
}

/// Reuse counters of the engine's pools: always zero, as there are none.
pub fn pool_stats() -> PoolStats {
    PoolStats::default()
}

/// Does nothing: there are no pools to empty before a measurement.
pub fn reset_pools() {}
