//! The near-memory CSC → tiled-DCSR transform engine — the paper's core
//! hardware contribution (§4).
//!
//! A conversion unit sits in each FB partition of the GPU memory
//! controller. A kernel running on an SM issues a `GetDCSRTile` request
//! (Figure 11); the unit walks the CSC columns of the requested strip with
//! per-column frontier pointers, finds the minimum row coordinate across
//! lanes with a hierarchical comparator tree, and streams out one tiled
//! DCSR row per pass — converting the storage/bandwidth-efficient format
//! into the compute-efficient one at memory speed, with no preprocessing
//! pass and no tiled-metadata footprint in DRAM.
//!
//! Modules:
//! * [`comparator`] — the 2-input/N-input minimum comparator (Figs 14–15),
//!   functional + structural.
//! * [`convert`] — the stateful strip converter (Fig 13 walk-through),
//!   verified bit-identical to offline tiling.
//! * [`timing`] — pipeline cycle model and prefetch-buffer sizing (§5.3).
//! * [`pipeline`] — cycle-level discrete simulation validating the timing
//!   model and the §5.3 buffer-sizing rule.
//! * [`area_energy`] — TSMC-16 nm-derived area/power model (§5.3).
//! * [`placement`] — FB-partition data layout and the tile-separation
//!   load-balancing scheme (§6.1, Fig 17).
//! * [`farm`] — the parallel engine farm: per-partition converters running
//!   rayon-parallel with a deterministic partition-ordered reduction; the
//!   one loop that converts a whole matrix.
//! * [`artifact`] — reusable conversion artifacts: pre-converted operands
//!   a serve-layer plan cache stores, byte-costed and pool-recyclable.

#![warn(missing_docs)]

pub mod area_energy;
pub mod artifact;
pub mod comparator;
pub mod convert;
pub mod farm;
pub mod mem;
pub mod pipeline;
pub mod placement;
pub mod timing;

pub use area_energy::{conversion_energy_pj, AreaEnergyModel};
pub use artifact::ConversionArtifact;
pub use comparator::{ComparatorError, ComparatorTree, MinResult, MinScratch, TreeStructure};
pub use convert::{
    convert_matrix, convert_matrix_dcsc, publish_conversion, ConversionStats, DcsrStrip,
    DcsrTileView, StripConverter, TileHeader,
};
pub use farm::{
    convert_matrix_farm, convert_matrix_farm_obs, publish_farm, FarmConfig, FarmError, FarmRun,
    PartitionWork,
};
pub use pipeline::{publish_pipeline, simulate_strip, PipelineConfig, PipelineResult};
pub use placement::{imbalance, partition_loads, Layout, PlacementError, SwitchCost};
pub use timing::{EngineTiming, PrefetchBuffer};

// The zero-allocation tests in [`comparator`] count through the real
// global allocator, so the engine's test binary installs the counting
// allocator (a pass-through unless counting is switched on).
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: nmt_obs::CountingAlloc = nmt_obs::CountingAlloc;
