//! Unified observability layer for the near-memory-transform SpMM stack.
//!
//! Three pieces, deliberately small and dependency-free:
//!
//! * **Spans** ([`Recorder`], [`Span`], [`span!`]) — hierarchical wall-clock
//!   regions with optional user counters, stored in a bounded ring buffer.
//! * **Metrics** ([`MetricRegistry`]) — named monotonic counters, gauges,
//!   and log₂-bucketed histograms. Names follow
//!   `<crate>.<component>.<name>` (e.g. `engine.pipeline.prefetch_miss`).
//! * **Export** ([`export`]) — a Chrome trace-event file loadable in
//!   Perfetto / `chrome://tracing`, and a folded-stack flamegraph
//!   ([`flamegraph_folded`]).
//! * **Profiling** ([`profile`], [`alloc`]) — [`Profiler`] folds the span
//!   tree into per-phase self-time, per-worker busy/idle, and farm
//!   concurrency; [`CountingAlloc`] optionally attributes allocation
//!   counts/bytes to spans.
//!
//! Instrumented code takes an [`ObsContext`] (cheaply cloneable); callers
//! that don't care pass [`ObsContext::disabled()`], which records nothing.

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
pub use span::{Recorder, Span, SpanRecord};

use std::sync::Arc;

/// Bundle of a span recorder, a metric registry, and a flight recorder,
/// threaded through the planner, engine, and kernels.
#[derive(Clone)]
pub struct ObsContext {
    /// Span sink.
    pub recorder: Arc<Recorder>,
    /// Metric sink.
    pub metrics: Arc<MetricRegistry>,
    /// Black-box event log. Always on — even for
    /// [`ObsContext::disabled`] — so a crash in an uninstrumented run
    /// still leaves a diagnosable trail (see [`recorder`]).
    pub flight: Arc<FlightRecorder>,
}

impl ObsContext {
    /// A context that records spans (up to `capacity` retained) and metrics.
    pub fn with_capacity(capacity: usize) -> Self {
        ObsContext {
            recorder: Arc::new(Recorder::with_capacity(capacity)),
            metrics: Arc::new(MetricRegistry::new()),
            flight: Arc::new(FlightRecorder::new()),
        }
    }

    /// A context with the default span capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(Recorder::DEFAULT_CAPACITY)
    }

    /// A context that drops every span (metrics stay live — they are a
    /// handful of map slots, not a stream).
    pub fn disabled() -> Self {
        Self::with_capacity(0)
    }

    /// Whether the span recorder retains anything.
    pub fn is_enabled(&self) -> bool {
        self.recorder.capacity() > 0
    }

    /// Open a span named `name`; prefer the [`span!`] macro.
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        self.recorder.span(name)
    }

    /// Publish the ring-buffer loss counters as gauges
    /// (`obs.dropped_spans`, `obs.dropped_events`) so silent data loss
    /// is visible on every metrics surface (metrics snapshots, bundles).
    pub fn publish_dropped(&self) {
        self.metrics
            .gauge_set("obs.dropped_spans", self.recorder.dropped() as f64);
        self.metrics
            .gauge_set("obs.dropped_events", self.flight.dropped() as f64);
    }
}

impl Default for ObsContext {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Open a hierarchical span on an [`ObsContext`] (or anything with a
/// `.span(name)` method). The span closes when the guard drops:
///
/// ```
/// let obs = nmt_obs::ObsContext::enabled();
/// {
///     let mut s = nmt_obs::span!(obs, "plan");
///     s.counter("rows", 128.0);
/// } // recorded here
/// assert_eq!(obs.recorder.snapshot().len(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        $obs.span($name)
    };
}
