//! SpMM-as-a-service: a synchronous-core request broker over the
//! planner, with a single-flight plan cache and admission control.
//!
//! The stack underneath plans and executes *one* SpMM at a time; this
//! crate is the serving layer that makes repeated, concurrent traffic
//! cheap and — crucially for this repo — *replayable*:
//!
//! * [`trace`] — the request schema and seeded trace synthesis. A trace
//!   names matrices by generator spec, so a few hundred bytes of JSONL
//!   replay bit-identical workloads anywhere.
//! * [`cache`] — [`PlanCache`], the content-keyed single-flight cache:
//!   concurrent requests for one matrix cost one SSF profile + one
//!   conversion; LRU + byte-budget eviction drops the evicted
//!   artifacts.
//! * [`broker`] — [`serve_trace`]: deterministic admission (bounded
//!   queue, typed rejections, deficit-round-robin tenant fairness),
//!   then parallel execution over the cache.
//! * [`ledger`] — [`ServeLedger`], the schema-versioned response
//!   artifact. Its deterministic sections are byte-identical at any
//!   thread count; schedule-dependent measurements live in an optional
//!   stats section the gate ignores.
//!
//! The cache key is [`nmt::MatrixFingerprint`]: shape, nnz, tile width,
//! the SSF decision inputs, and an FNV digest of the raw CSR arrays —
//! derived from exactly what a `DecisionAudit` records, so a cached plan
//! is reused only when the planner would have decided identically.

pub mod broker;
pub mod cache;
pub mod ledger;
pub mod trace;

pub use broker::{serve_trace, BrokerConfig, CachedPlan, ServeError};
pub use cache::{Acquire, CacheStats, Lookup, PlanCache};
pub use ledger::{
    RejectionRow, ResponseRow, ServeConfigEcho, ServeCounts, ServeLedger, ServeStats,
    SERVE_SCHEMA_VERSION,
};
pub use trace::{parse_jsonl, synth_trace, to_jsonl, Request, SynthSpec};
