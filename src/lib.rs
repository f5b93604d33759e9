//! `spmm-nmt` — workspace facade crate.
//!
//! Re-exports the public APIs of every member crate of the near-memory
//! sparse-transform SpMM system so examples and integration tests can use a
//! single dependency. See the individual crates for full documentation:
//!
//! * [`formats`] — sparse matrix formats (COO/CSR/CSC/DCSR, tiled variants).
//! * [`matgen`] — deterministic synthetic matrix suite generators.
//! * [`sim`] — warp-level, cycle-approximate GPU timing simulator.
//! * [`engine`] — the near-memory CSC→tiled-DCSR transform engine.
//! * [`fault`] — deterministic fault-injection plans, sites, and records.
//! * [`kernels`] — SpMM kernels (all dataflows) + host references.
//! * [`model`] — analytical traffic model, entropy, SSF heuristic.
//! * [`obs`] — flight-recorder event ring, spans, metric registry,
//!   Chrome-trace/flamegraph export.
//! * [`planner`] — the auto-tuned SpMM planner (core crate `nmt`).
//! * [`bench`] — experiment harness: suite sweeps, run ledger, gate.
//! * [`serve`] — SpMM-as-a-service broker: single-flight plan cache,
//!   admission control, deterministic replay ledger.

pub use nmt as planner;
pub use nmt_bench as bench;
pub use nmt_engine as engine;
pub use nmt_fault as fault;
pub use nmt_formats as formats;
pub use nmt_kernels as kernels;
pub use nmt_matgen as matgen;
pub use nmt_model as model;
pub use nmt_obs as obs;
pub use nmt_serve as serve;
pub use nmt_sim as sim;
