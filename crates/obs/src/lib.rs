//! Unified observability layer for the near-memory-transform SpMM stack.
//!
//! Five pieces, deliberately small and dependency-free:
//!
//! * **Flight recorder** ([`FlightRecorder`], [`recorder`]) — the one
//!   event ring: per-thread buffers of fixed-size [`Event`]s, plus crash
//!   diagnostics bundles for `nmt-cli doctor`.
//! * **Spans** ([`Span`], [`span!`], [`span`](mod@span)) — hierarchical wall-clock
//!   regions, recorded as begin/end events in the flight recorder.
//! * **Metrics** ([`MetricRegistry`]) — named monotonic counters, gauges,
//!   and log₂-bucketed histograms. Names follow
//!   `<crate>.<component>.<name>` (e.g. `engine.comparator.occupancy`).
//! * **Export** ([`export`]) — a Chrome trace-event file loadable in
//!   Perfetto / `chrome://tracing`, and a folded-stack flamegraph
//!   ([`flamegraph_folded`]).
//! * **Profiling** ([`profile`], [`alloc`]) — [`Profiler`] folds the spans
//!   into per-phase self-time, per-worker busy/idle, and farm
//!   concurrency; [`CountingAlloc`] optionally attributes allocation
//!   counts/bytes to spans.
//!
//! Instrumented code takes an [`ObsContext`] (cheaply cloneable); callers
//! that don't care pass [`ObsContext::disabled()`], which records no spans.
//! Only spans read that switch, so observing a run cannot change it.

pub mod alloc;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod span;
pub(crate) mod sync;

pub use alloc::{AllocScope, CountingAlloc};
pub use export::{chrome_trace_json, flamegraph_folded, write_chrome_trace, write_flamegraph};
pub use metrics::{HistogramSnapshot, MetricRegistry, MetricsSnapshot};
pub use profile::{Phase, PhaseTotals, Profile, Profiler, WorkerStats};
pub use recorder::{
    build_bundle, diagnostics_installed, install_diagnostics, uninstall_diagnostics,
    write_bundle_file, write_bundle_now, DiagScope, DiagnosticsBundle, Event, EventSite,
    FlightRecorder,
};
pub use span::{Clock, Span, SpanRecord};

use std::sync::Arc;

/// A metric registry and a flight recorder, threaded through the planner,
/// engine, and kernels, plus the one switch: whether spans are recorded.
#[derive(Clone)]
pub struct ObsContext {
    /// Metric sink.
    pub metrics: Arc<MetricRegistry>,
    /// Black-box event log. Always on — even for
    /// [`ObsContext::disabled`] — so a crash in an uninstrumented run
    /// still leaves a diagnosable trail (see [`recorder`]). Span events
    /// land here only when the context is enabled.
    pub flight: Arc<FlightRecorder>,
    enabled: bool,
}

impl ObsContext {
    fn new(enabled: bool) -> Self {
        ObsContext {
            metrics: Arc::new(MetricRegistry::new()),
            flight: Arc::new(FlightRecorder::new()),
            enabled,
        }
    }

    /// A context that records spans and metrics.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A context that records no span events (metrics and the other
    /// flight events stay live — they are a handful of slots, not a
    /// stream).
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Open a span named `name` (an entry of [`span::SPAN_NAMES`]);
    /// prefer the [`span!`] macro.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::open(name, self.enabled.then_some(&*self.flight))
    }
}

/// Open a hierarchical span on an [`ObsContext`] (or anything with a
/// `.span(name)` method). The span closes when the guard drops:
///
/// ```
/// let obs = nmt_obs::ObsContext::enabled();
/// {
///     let _s = nmt_obs::span!(obs, "planner.plan");
/// } // the end event is recorded here
/// assert_eq!(obs.flight.len(), 2);
/// ```
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        $obs.span($name)
    };
}
