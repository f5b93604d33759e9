//! `nmt` — the auto-tuned SpMM planner: the paper's full system, end to end.
//!
//! Given a sparse matrix, the planner (a) profiles it with the SSF
//! heuristic (Eq. 2), (b) picks the algorithm the paper's Figure 16 hybrid
//! would pick — C-stationary untiled DCSR for low-SSF matrices,
//! B-stationary *online-tiled* DCSR (CSC in memory, near-memory transform
//! engine at the FB partitions) for high-SSF matrices — and (c) executes
//! the choice on the GPU timing simulator, reporting speedup over the
//! cuSPARSE-baseline stand-in along with traffic, stalls and engine
//! energy.
//!
//! * [`planner`] — profile → choose → execute → [`planner::PlanReport`].
//! * [`audit`] — the decision audit behind `nmt-cli audit`: SSF inputs,
//!   chosen-vs-oracle dataflow, mispick cost, and Table-1
//!   model-vs-measured traffic validation per matrix.
//! * [`fingerprint`] — content fingerprints over the audit's decision
//!   inputs: the serve-layer plan-cache key.
//! * [`fnv`] — the FNV-1a hash behind that key and the serve ledger's
//!   response checksums.
//! * [`multi_gpu`] — the §6.2 large-scale streaming model.

#![warn(missing_docs)]

pub mod audit;
pub mod fingerprint;
pub mod fnv;
pub mod multi_gpu;
pub mod planner;
pub mod report;

pub use audit::{DecisionAudit, KernelAudit, TrafficValidation};
pub use fingerprint::MatrixFingerprint;
pub use multi_gpu::{LargeSpmmProblem, MultiGpuConfig, MultiGpuReport};
pub use planner::{Algorithm, PlanReport, PlannerConfig, SpmmPlanner, DEFAULT_SSF_THRESHOLD};
pub use report::RunRecord;
