//! SpMM kernels for the GPU timing simulator, plus host reference
//! implementations.
//!
//! Every dataflow the paper analyzes is implemented against
//! [`nmt_sim::Gpu`]:
//!
//! | kernel | dataflow | A format | role in the paper |
//! |---|---|---|---|
//! | [`csrmm_cusparse`] | C-stationary | untiled CSR, col-major B/C | cuSPARSE-baseline stand-in |
//! | [`csrmm_row_per_warp`] | C-stationary | untiled CSR | best custom untiled CSR kernel |
//! | [`dcsrmm_row_per_warp`] | C-stationary | untiled DCSR | orange dots of Fig. 16 |
//! | [`bstat_tiled_csr`] | B-stationary | tiled CSR | Fig. 7's inactive-thread foil |
//! | [`bstat_tiled_dcsr_offline`] | B-stationary | tiled DCSR (DRAM) | 2.03× offline config (§5.2) |
//! | [`bstat_tiled_dcsr_traversal`] | B-stationary | tiled DCSR (DRAM), K tiled | §3.1.3 traversal orders |
//! | [`bstat_tiled_dcsr_online`] | B-stationary | CSC + engine | **the proposal** (blue dots) |
//! | [`astat_tiled`] | A-stationary | tiled DCSR | Table 1 completeness |
//!
//! Each dataflow has one kernel body. The two row-per-warp kernels share
//! one launch and row body and differ only in how a warp finds its row.
//! The three tiled-DCSR B-stationary kernels are one strip loop over
//! the strips of a `TiledDcsr` with a K-tile width, a [`Traversal`] and an A-side source:
//! packed tiles in DRAM (offline and traversal) or the near-memory engine
//! streaming the CSC (online). Offline is the traversal loop with one K
//! tile.
//!
//! All kernels functionally compute `C = A × B` (verified against
//! [`host`]) while recording traffic, warp occupancy and timing.

#![warn(missing_docs)]

pub mod astationary;
pub mod bstationary;
pub mod cstationary;
pub mod device;
pub mod host;

pub use astationary::astat_tiled;
pub use bstationary::{
    bstat_tiled_csr, bstat_tiled_dcsr_offline, bstat_tiled_dcsr_online,
    bstat_tiled_dcsr_online_obs, bstat_tiled_dcsr_traversal, OnlineRun, Traversal,
};
pub use cstationary::{csrmm_cusparse, csrmm_row_per_warp, dcsrmm_row_per_warp};

use nmt_engine::ConversionArtifact;
use nmt_formats::DenseMatrix;
use nmt_sim::{Gpu, KernelStats, SimError};

/// Validate the inner dimensions of `C = A × B`, as a typed error instead
/// of the old `assert!` so one malformed matrix becomes a per-matrix error
/// row in a corpus sweep rather than aborting the whole process.
pub(crate) fn check_inner_dims(a_ncols: usize, b_nrows: usize) -> Result<(), SimError> {
    if a_ncols != b_nrows {
        return Err(SimError::ShapeMismatch {
            detail: format!(
                "inner dimensions must agree: A has {a_ncols} cols, B has {b_nrows} rows"
            ),
        });
    }
    Ok(())
}

/// Result of one simulated kernel: the functional output and the
/// integrated hardware statistics.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The computed output matrix `C`.
    pub c: DenseMatrix,
    /// Timing/traffic/occupancy statistics for the launch.
    pub stats: KernelStats,
}

/// Run the kernel that matches a pre-converted operand: row-per-warp
/// DCSR C-stationary for a row-major artifact, offline tiled-DCSR
/// B-stationary for a tiled one. This is what a serve plan executes.
pub fn run_artifact(
    gpu: &mut Gpu,
    artifact: &ConversionArtifact,
    b: &DenseMatrix,
) -> Result<KernelRun, SimError> {
    match artifact {
        ConversionArtifact::RowMajor(d) => dcsrmm_row_per_warp(gpu, d, b),
        ConversionArtifact::Tiled(t) => bstat_tiled_dcsr_offline(gpu, t, b),
    }
}
