//! Warp-level, cycle-approximate GPU timing simulator.
//!
//! The paper evaluates on a real NVIDIA GV100; this crate is the offline
//! substitute. It is *not* a functional ISA simulator — kernels compute
//! their results on the host — but a faithful first-order performance model
//! of the properties the paper's results hinge on:
//!
//! * **Partitioned memory system** ([`MemorySubsystem`]): 64 HBM2
//!   pseudo-channels of 13.6 GB/s each behind per-partition L2 slices, with
//!   address interleaving — so partition camping (§6.1) and bandwidth
//!   bottlenecks (Figure 2) emerge naturally.
//! * **Set-associative L2** ([`cache::L2Slice`]): hit/miss/writeback with
//!   LRU, so B-tile reuse and C-tile locality of the traversal strategies
//!   (§3.1.3) are captured.
//! * **Atomic bandwidth cost**: read-modify-writes occupy the channel 2×
//!   (Table 1), penalizing B-stationary exactly where the paper says.
//! * **Warp issue accounting** ([`stats::WarpExecStats`]): active/inactive
//!   lane tracking reproduces Figure 7's inactive-thread analysis, and
//!   per-SM issue totals give the compute-bound term.
//! * **Bottleneck timing**: `total = max(compute, memory, latency) +
//!   overhead`, with a latency term for dependent (indirect) loads.
//!
//! See [`Gpu::launch`] for the kernel execution interface.

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod machine;
pub mod memory;
pub mod stats;
pub mod trace;

pub use config::{ConfigError, GpuConfig};
pub use machine::{publish_kernel_stats, BlockCtx, Buffer, Gpu, SimError};
pub use memory::{FbPartition, MemorySubsystem, PartitionCounters};
pub use stats::{
    InstrClass, KernelStats, StallBreakdown, TrafficBytes, TrafficClass, WarpExecStats,
};
pub use trace::{detect_stride, AccessKind, TraceBuffer, TraceEvent};
