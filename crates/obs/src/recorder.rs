//! Black-box flight recorder and crash diagnostics bundles.
//!
//! The flight recorder is the crate's one event ring. It is an always-on,
//! fixed-capacity event log: producers (engine farm, kernels, planner
//! fallback, fault injection, the sweep driver, the serve broker, and
//! every span of an enabled context) call [`FlightRecorder::record`] with
//! a tiny fixed-size [`Event`]. Each thread appends to its own private
//! ring buffer, a `VecDeque` that grows up to the capacity and then
//! evicts its oldest event; the hot path takes that buffer's uncontended
//! mutex. [`FlightRecorder::snapshot`] merges the buffers into a
//! deterministic, content-ordered view, and [`FlightRecorder::lanes`]
//! returns each buffer in ring order for the span readers
//! ([`crate::span::walk`]).
//!
//! On panic — or on demand, e.g. when a regression gate fires — the
//! active [`DiagnosticsBundle`] target serializes the retained events,
//! the panicking thread's live span stack, a metric snapshot, and the
//! fault identity into `nmt-diag-<pid>-<seq>-<ns>.json`. `nmt-cli doctor`
//! renders the bundle as a human-readable post-mortem
//! ([`DiagnosticsBundle::render_postmortem`]).
//!
//! Determinism contract: event *content* (`site`, `code`, `a`, `b`) for a
//! given seed is identical at any thread count; only `ts_ns` and `tid`
//! are schedule-dependent. [`FlightRecorder::snapshot`] therefore sorts
//! by content, so two runs of the same work agree event-for-event modulo
//! timestamps and thread ids. The one exception is a
//! [`EventSite::SpanEnd`]'s allocation delta while allocation counting is
//! on: it counts the allocations of the span's own thread, and how much
//! of a span's work stays on its thread depends on the pool size.
//! Timestamps come from a [`crate::Clock`], so this module never reads
//! the wall clock directly.

use crate::metrics::MetricsSnapshot;
use crate::span::{self, Clock};
use crate::sync::Mutex;
use crate::ObsContext;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, PoisonError, Weak};

/// Where in the stack a flight-recorder event was emitted. The numeric
/// code ([`EventSite::stable_code`]) and the kebab-case name are stable
/// identifiers: bundles are read across commits, so never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventSite {
    /// Sweep driver: one matrix's audit. `a` = suite ordinal;
    /// `code` 0 = started, 1 = finished, 2 = errored.
    SweepMatrix,
    /// Planner phase boundary. `code` = phase ordinal
    /// (0 plan, 1 baseline, 2 chosen); `a` = matrix rows, `b` = nnz.
    PlannerPhase,
    /// Planner degraded-mode fallback to untiled C-stationary.
    /// `code` = fault-site code ([`EventSite::from_fault_code`]),
    /// `a` = fault key (strip / partition / access ordinal).
    PlannerFallback,
    /// Engine farm strip conversion. `a` = strip index;
    /// `code` 0 = converted, 1 = retried, 2 = escalated.
    FarmStrip,
    /// Engine farm deterministic reduction. `a` = strip count,
    /// `b` = surviving partition count.
    FarmReduce,
    /// Online B-stationary kernel, one strip. `a` = strip index,
    /// `b` = elements produced.
    KernelStrip,
    /// Kernel launch over the converted operand. `a` = strip count,
    /// `b` = dense column count `k`.
    KernelLaunch,
    /// Injected fault: strip conversion scramble. `a` = strip index;
    /// `code` 1 = will retry, 2 = escalated after retry.
    FaultConvertStrip,
    /// Injected fault: tile-metadata corruption (caught by `validate()`).
    /// `a` = strip index.
    FaultMetadataCorruption,
    /// Injected fault: a partition dropped from the farm. `a` = partition.
    FaultPartitionDropout,
    /// Injected fault: prefetch billed as a miss. `a` = access ordinal.
    FaultPrefetchOverflow,
    /// Injected fault: DRAM latency spike. `a` = access ordinal.
    FaultDramLatencySpike,
    /// Serve broker admission verdict for one request. `a` = request id;
    /// `code` 0 = admitted, 1 = rejected (queue full), 2 = rejected
    /// (malformed); `b` = queue depth at the verdict.
    ServeAdmission,
    /// Serve plan-cache resolution. `a` = request id;
    /// `code` 0 = hit, 1 = computed (miss leader), 2 = waited on an
    /// in-flight compute, 3 = evicted an entry; `b` = resident bytes.
    ServePlanCache,
    /// Serve response completion. `a` = request id, `b` = simulated
    /// kernel ns; `code` 0 = cold plan, 1 = cached plan.
    ServeResponse,
    /// A span opened. `code` = the span name's index in
    /// [`span::SPAN_NAMES`]; `a` = `b` = 0.
    SpanBegin,
    /// A span closed. `code` as for [`EventSite::SpanBegin`]; `a`/`b` =
    /// allocations/bytes over the span on its thread (zero unless
    /// allocation counting is on).
    SpanEnd,
}

impl EventSite {
    /// Every site, in stable-code order (handy for tests and docs).
    pub const ALL: [EventSite; 17] = [
        EventSite::SweepMatrix,
        EventSite::PlannerPhase,
        EventSite::PlannerFallback,
        EventSite::FarmStrip,
        EventSite::FarmReduce,
        EventSite::KernelStrip,
        EventSite::KernelLaunch,
        EventSite::FaultConvertStrip,
        EventSite::FaultMetadataCorruption,
        EventSite::FaultPartitionDropout,
        EventSite::FaultPrefetchOverflow,
        EventSite::FaultDramLatencySpike,
        EventSite::ServeAdmission,
        EventSite::ServePlanCache,
        EventSite::ServeResponse,
        EventSite::SpanBegin,
        EventSite::SpanEnd,
    ];

    /// Stable numeric identity used as the primary merge-sort key.
    pub fn stable_code(self) -> u32 {
        match self {
            EventSite::SweepMatrix => 1,
            EventSite::PlannerPhase => 2,
            EventSite::PlannerFallback => 3,
            EventSite::FarmStrip => 4,
            EventSite::FarmReduce => 5,
            EventSite::KernelStrip => 6,
            EventSite::KernelLaunch => 7,
            EventSite::FaultConvertStrip => 8,
            EventSite::FaultMetadataCorruption => 9,
            EventSite::FaultPartitionDropout => 10,
            EventSite::FaultPrefetchOverflow => 11,
            EventSite::FaultDramLatencySpike => 12,
            EventSite::ServeAdmission => 13,
            EventSite::ServePlanCache => 14,
            EventSite::ServeResponse => 15,
            EventSite::SpanBegin => 16,
            EventSite::SpanEnd => 17,
        }
    }

    /// Kebab-case name for post-mortems and ledger error rows.
    pub fn name(self) -> &'static str {
        match self {
            EventSite::SweepMatrix => "sweep-matrix",
            EventSite::PlannerPhase => "planner-phase",
            EventSite::PlannerFallback => "planner-fallback",
            EventSite::FarmStrip => "farm-strip",
            EventSite::FarmReduce => "farm-reduce",
            EventSite::KernelStrip => "kernel-strip",
            EventSite::KernelLaunch => "kernel-launch",
            EventSite::FaultConvertStrip => "fault-convert-strip",
            EventSite::FaultMetadataCorruption => "fault-metadata-corruption",
            EventSite::FaultPartitionDropout => "fault-partition-dropout",
            EventSite::FaultPrefetchOverflow => "fault-prefetch-overflow",
            EventSite::FaultDramLatencySpike => "fault-dram-latency-spike",
            EventSite::ServeAdmission => "serve-admission",
            EventSite::ServePlanCache => "serve-plan-cache",
            EventSite::ServeResponse => "serve-response",
            EventSite::SpanBegin => "span-begin",
            EventSite::SpanEnd => "span-end",
        }
    }

    /// What the `a` operand denotes for this site (post-mortem wording).
    pub fn unit_label(self) -> &'static str {
        match self {
            EventSite::SweepMatrix => "matrix ordinal",
            EventSite::PlannerPhase => "rows",
            EventSite::PlannerFallback => "key",
            EventSite::FarmStrip
            | EventSite::KernelStrip
            | EventSite::FaultConvertStrip
            | EventSite::FaultMetadataCorruption => "strip",
            EventSite::FarmReduce | EventSite::KernelLaunch => "strips",
            EventSite::FaultPartitionDropout => "partition",
            EventSite::FaultPrefetchOverflow | EventSite::FaultDramLatencySpike => "access",
            EventSite::ServeAdmission | EventSite::ServePlanCache | EventSite::ServeResponse => {
                "request"
            }
            EventSite::SpanBegin | EventSite::SpanEnd => "allocations",
        }
    }

    /// True for sites that describe an injected fault firing.
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            EventSite::FaultConvertStrip
                | EventSite::FaultMetadataCorruption
                | EventSite::FaultPartitionDropout
                | EventSite::FaultPrefetchOverflow
                | EventSite::FaultDramLatencySpike
        )
    }

    /// True for the span boundary sites.
    pub fn is_span(self) -> bool {
        matches!(self, EventSite::SpanBegin | EventSite::SpanEnd)
    }

    /// Map an `nmt-fault` site code (`FaultSite::code()`, 1–5) to the
    /// flight-recorder site that mirrors it. The two crates do not depend
    /// on each other, so the numeric contract is pinned here and checked
    /// by an integration test against `FaultSite::name()`.
    pub fn from_fault_code(code: u64) -> Option<EventSite> {
        match code {
            1 => Some(EventSite::FaultConvertStrip),
            2 => Some(EventSite::FaultMetadataCorruption),
            3 => Some(EventSite::FaultPartitionDropout),
            4 => Some(EventSite::FaultPrefetchOverflow),
            5 => Some(EventSite::FaultDramLatencySpike),
            _ => None,
        }
    }
}

/// One flight-recorder event: 6 fixed-size fields, cheap to record and
/// stable to serialize. `ts_ns` is nanoseconds since the recorder's
/// creation; `tid` is the sequential thread id. Both are
/// schedule-dependent — everything else is deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Nanoseconds since the owning recorder was created.
    pub ts_ns: u64,
    /// Sequential thread id of the emitting thread.
    pub tid: u64,
    /// Emitting site.
    pub site: EventSite,
    /// Site-specific sub-code (see [`EventSite`] variant docs).
    pub code: u32,
    /// First operand (strip, partition, ordinal, … per site).
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

impl Event {
    /// The deterministic part of the event: everything except `ts_ns`
    /// and `tid`. Snapshot ordering and the 1-vs-N-thread agreement
    /// contract are defined over this key.
    pub fn content_key(&self) -> (u32, u32, u64, u64) {
        (self.site.stable_code(), self.code, self.a, self.b)
    }
}

#[derive(Default)]
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

/// One thread's private buffer. Only the owning thread pushes, so the
/// mutex is uncontended on the hot path; `snapshot()` briefly locks each
/// buffer during the merge.
struct ThreadBuf {
    ring: Mutex<Ring>,
}

static NEXT_FLIGHT_UID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Cache of (recorder uid → this thread's buffer). Weak so a dropped
    /// recorder's buffers can be reclaimed; pruned on miss.
    static FLIGHT_BUFS: RefCell<Vec<(u64, Weak<ThreadBuf>)>> = const { RefCell::new(Vec::new()) };
}

/// Always-on, fixed-capacity black-box event log. See the module docs
/// for the determinism contract.
pub struct FlightRecorder {
    uid: u64,
    /// Per-thread retained-event budget; 0 disables recording.
    capacity: usize,
    clock: Clock,
    bufs: Mutex<Vec<Arc<ThreadBuf>>>,
}

impl FlightRecorder {
    /// Default per-thread retained-event budget (40 B each, so at most
    /// 160 KiB per thread; a ring grows only as events arrive). Span
    /// events included, the busiest committed enabled run — a test, the
    /// CI trace smoke or a `bench --perf` repetition — peaks below 1,024
    /// events on one thread.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A recorder with the default per-thread capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A recorder retaining at most `capacity` events per thread
    /// (0 = disabled: `record` becomes a no-op).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            // ordering: monotone uid counter — only uniqueness matters,
            // no other data is published through it.
            uid: NEXT_FLIGHT_UID.fetch_add(1, Ordering::Relaxed),
            capacity,
            clock: Clock::start(),
            bufs: Mutex::new(Vec::new()),
        }
    }

    /// Per-thread retained-event budget; 0 means disabled.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since this recorder was created (the event clock).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Append one event to the calling thread's buffer. Negligible cost:
    /// a thread-local lookup plus an uncontended lock; no allocation
    /// after the first call per thread.
    pub fn record(&self, site: EventSite, code: u32, a: u64, b: u64) {
        if self.capacity == 0 {
            return;
        }
        let event = Event {
            ts_ns: self.clock.now_ns(),
            tid: span::thread_id(),
            site,
            code,
            a,
            b,
        };
        let buf = self.thread_buf();
        let mut ring = buf.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    fn thread_buf(&self) -> Arc<ThreadBuf> {
        FLIGHT_BUFS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(buf) = cache
                .iter()
                .find(|(uid, _)| *uid == self.uid)
                .and_then(|(_, weak)| weak.upgrade())
            {
                return buf;
            }
            // Miss: prune buffers of recorders that have been dropped,
            // then register a fresh buffer with this recorder.
            cache.retain(|(_, weak)| weak.strong_count() > 0);
            let buf = Arc::new(ThreadBuf {
                ring: Mutex::new(Ring::default()),
            });
            self.bufs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(buf.clone());
            cache.push((self.uid, Arc::downgrade(&buf)));
            buf
        })
    }

    /// Merge every thread's buffer into one deterministically ordered
    /// view: events are sorted by [`Event::content_key`] (stable), so
    /// for a given seed the sequence agrees at any thread count modulo
    /// `ts_ns`/`tid`. Use [`sort_by_time`] for a human timeline.
    pub fn snapshot(&self) -> Vec<Event> {
        let bufs = self.bufs.lock().unwrap_or_else(PoisonError::into_inner);
        let mut all: Vec<Event> = Vec::new();
        for buf in bufs.iter() {
            let ring = buf.ring.lock().unwrap_or_else(PoisonError::into_inner);
            all.extend(ring.events.iter().copied());
        }
        drop(bufs);
        all.sort_by_key(Event::content_key);
        all
    }

    /// Each thread's retained events in ring (recording) order, one lane
    /// per thread in ascending tid order — the input of the span readers.
    pub fn lanes(&self) -> Vec<Vec<Event>> {
        let bufs = self.bufs.lock().unwrap_or_else(PoisonError::into_inner);
        let mut lanes: Vec<Vec<Event>> = bufs
            .iter()
            .map(|b| {
                let ring = b.ring.lock().unwrap_or_else(PoisonError::into_inner);
                ring.events.iter().copied().collect()
            })
            .filter(|lane: &Vec<Event>| !lane.is_empty())
            .collect();
        drop(bufs);
        lanes.sort_by_key(|lane| lane[0].tid);
        lanes
    }

    /// Events evicted because a per-thread ring wrapped, summed over all
    /// threads that ever wrote to this recorder.
    pub fn dropped(&self) -> u64 {
        let bufs = self.bufs.lock().unwrap_or_else(PoisonError::into_inner);
        bufs.iter()
            .map(|b| {
                b.ring
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .dropped
            })
            .sum()
    }

    /// Retained events across all per-thread buffers.
    pub fn len(&self) -> usize {
        let bufs = self.bufs.lock().unwrap_or_else(PoisonError::into_inner);
        bufs.iter()
            .map(|b| {
                b.ring
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .events
                    .len()
            })
            .sum()
    }

    /// True when no thread has recorded anything (or all wrapped away).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("retained", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Sort events into wall-clock order (`ts_ns`, then `tid`) for timeline
/// rendering. The content order from [`FlightRecorder::snapshot`] is the
/// deterministic one; this order is schedule-dependent.
pub fn sort_by_time(events: &mut [Event]) {
    events.sort_by_key(|e| (e.ts_ns, e.tid, e.content_key()));
}

/// Everything a post-mortem needs, frozen at panic (or gate-failure)
/// time. Schema is versioned independently of the run ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosticsBundle {
    /// Bundle schema version; bump on any field change.
    pub schema_version: u32,
    /// Why the bundle was written (panic message + location, or the
    /// gate-failure reason).
    pub reason: String,
    /// Matrix being processed on the capturing thread, if a
    /// [`DiagScope`] was active ("" otherwise).
    pub matrix: String,
    /// Sequential thread id of the capturing thread.
    pub thread: u64,
    /// Spans open on the capturing thread, outermost first — recorded
    /// for disabled contexts too.
    pub active_spans: Vec<String>,
    /// Retained flight-recorder events in deterministic content order.
    pub events: Vec<Event>,
    /// Flight-recorder events lost to ring wrap-around.
    pub dropped_events: u64,
    /// Fault-injection seed, when a fault plan was active.
    pub fault_seed: Option<u64>,
    /// Fault-injection rate in parts-per-million, when active.
    pub fault_rate_ppm: Option<u32>,
    /// Metric snapshot at capture time.
    pub metrics: MetricsSnapshot,
}

/// Current [`DiagnosticsBundle`] schema version. v2 dropped the
/// `dropped_spans` field when spans moved into the flight recorder.
pub const BUNDLE_SCHEMA_VERSION: u32 = 2;

impl DiagnosticsBundle {
    /// Serialize to pretty JSON (the on-disk bundle format).
    pub fn to_json(&self) -> String {
        // nmt-lint: allow(panic) — serializing a plain data struct cannot fail
        serde_json::to_string_pretty(self).expect("bundle serializes")
    }

    /// Parse a bundle back from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let bundle: DiagnosticsBundle =
            serde_json::from_str(json).map_err(|e| format!("malformed bundle: {e:?}"))?;
        if bundle.schema_version != BUNDLE_SCHEMA_VERSION {
            return Err(format!(
                "bundle schema v{} (this build reads v{BUNDLE_SCHEMA_VERSION})",
                bundle.schema_version
            ));
        }
        Ok(bundle)
    }

    /// The most recent fault-class event (injected fault or planner
    /// fallback) — the prime suspect for a post-mortem.
    pub fn last_fault_event(&self) -> Option<&Event> {
        self.events
            .iter()
            .filter(|e| e.site.is_fault() || e.site == EventSite::PlannerFallback)
            .max_by_key(|e| (e.ts_ns, e.tid, e.content_key()))
    }

    /// Human-readable post-mortem: failing site, strip/partition, thread,
    /// open spans, and the recent event timeline.
    pub fn render_postmortem(&self) -> String {
        let mut out = String::new();
        out.push_str("== nmt diagnostics bundle ==\n");
        out.push_str(&format!("reason: {}\n", self.reason));
        if !self.matrix.is_empty() {
            out.push_str(&format!("matrix: {}\n", self.matrix));
        }
        out.push_str(&format!("thread: tid {}\n", self.thread));
        match (self.fault_seed, self.fault_rate_ppm) {
            (Some(seed), rate) => out.push_str(&format!(
                "fault identity: seed={seed:#x} rate={}ppm\n",
                rate.map_or_else(|| "?".to_string(), |r| r.to_string())
            )),
            (None, _) => out.push_str("fault identity: none (clean run)\n"),
        }
        if self.active_spans.is_empty() {
            out.push_str("active spans: (none)\n");
        } else {
            out.push_str(&format!(
                "active spans: {}\n",
                self.active_spans.join(" > ")
            ));
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "warning: {} flight-recorder event(s) dropped (ring wrapped)\n",
                self.dropped_events
            ));
        }
        if let Some(e) = self.last_fault_event() {
            let (site, unit) = if e.site == EventSite::PlannerFallback {
                match EventSite::from_fault_code(u64::from(e.code)) {
                    Some(s) => (s.name(), s.unit_label()),
                    None => (e.site.name(), e.site.unit_label()),
                }
            } else {
                (e.site.name(), e.site.unit_label())
            };
            out.push_str(&format!(
                "diagnosis: fault site {site} at {unit} {} on thread {}\n",
                e.a, e.tid
            ));
        } else {
            out.push_str("diagnosis: no fault-class events recorded\n");
        }
        let mut timeline = self.events.clone();
        sort_by_time(&mut timeline);
        let shown = timeline.len().min(20);
        out.push_str(&format!(
            "recent events ({} of {}, newest last):\n",
            shown,
            timeline.len()
        ));
        for e in timeline.iter().skip(timeline.len() - shown) {
            let code = if e.site.is_span() {
                span::span_name(e.code).to_string()
            } else {
                format!("code={}", e.code)
            };
            out.push_str(&format!(
                "  +{:>12} ns  tid {:>2}  {:<26} {code} a={} b={}\n",
                e.ts_ns,
                e.tid,
                e.site.name(),
                e.a,
                e.b
            ));
        }
        out
    }
}

/// Build a bundle from an observability context, without writing it.
pub fn build_bundle(
    reason: &str,
    matrix: &str,
    obs: &ObsContext,
    fault_seed: Option<u64>,
    fault_rate_ppm: Option<u32>,
) -> DiagnosticsBundle {
    let dropped_events = obs.flight.dropped();
    // Silent data loss stays visible on every metrics surface.
    obs.metrics
        .gauge_set("obs.dropped_events", dropped_events as f64);
    DiagnosticsBundle {
        schema_version: BUNDLE_SCHEMA_VERSION,
        reason: reason.to_string(),
        matrix: matrix.to_string(),
        thread: span::thread_id(),
        active_spans: span::open_spans(),
        events: obs.flight.snapshot(),
        dropped_events,
        fault_seed,
        fault_rate_ppm,
        metrics: obs.metrics.snapshot(),
    }
}

struct DiagTarget {
    dir: PathBuf,
    obs: ObsContext,
    fault_seed: Option<u64>,
    fault_rate_ppm: Option<u32>,
}

static DIAG_TARGET: Mutex<Option<DiagTarget>> = Mutex::new(None);
static HOOK_INSTALL: Once = Once::new();
static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of (matrix name, per-matrix context) set by [`DiagScope`]:
    /// lets the panic hook attribute the crash to the matrix the
    /// panicking thread was actually sweeping.
    static DIAG_SCOPES: RefCell<Vec<(String, ObsContext)>> = const { RefCell::new(Vec::new()) };
    /// Reentrancy guard: a panic inside the hook must not recurse.
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard scoping diagnostics capture to one unit of work (one
/// matrix of a sweep). While alive on a thread, bundles captured from
/// that thread use `obs` (and name `matrix`) instead of the process-wide
/// context passed to [`install_diagnostics`].
pub struct DiagScope {
    _private: (),
}

impl DiagScope {
    /// Enter a per-matrix diagnostics scope on the current thread.
    pub fn enter(matrix: impl Into<String>, obs: &ObsContext) -> DiagScope {
        DIAG_SCOPES.with(|s| s.borrow_mut().push((matrix.into(), obs.clone())));
        DiagScope { _private: () }
    }
}

impl Drop for DiagScope {
    fn drop(&mut self) {
        DIAG_SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Arm crash diagnostics: remember `dir` + a process-wide fallback
/// context + the fault identity, and (once per process) chain a panic
/// hook that writes a [`DiagnosticsBundle`] before the previous hook
/// runs. Calling again replaces the target (last install wins), so tests
/// and long-lived processes can re-arm with fresh contexts.
pub fn install_diagnostics(
    dir: impl Into<PathBuf>,
    obs: &ObsContext,
    fault_seed: Option<u64>,
    fault_rate_ppm: Option<u32>,
) {
    let target = DiagTarget {
        dir: dir.into(),
        obs: obs.clone(),
        fault_seed,
        fault_rate_ppm,
    };
    *DIAG_TARGET.lock().unwrap_or_else(PoisonError::into_inner) = Some(target);
    HOOK_INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reentered = IN_HOOK.with(|g| g.replace(true));
            if !reentered {
                let reason = panic_reason(info);
                let _ = write_bundle_now(&reason);
                IN_HOOK.with(|g| g.set(false));
            }
            previous(info);
        }));
    });
}

/// Whether [`install_diagnostics`] has armed a target.
pub fn diagnostics_installed() -> bool {
    DIAG_TARGET
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .is_some()
}

/// Disarm diagnostics (the panic hook stays chained but becomes a
/// no-op). Mainly for tests.
pub fn uninstall_diagnostics() {
    *DIAG_TARGET.lock().unwrap_or_else(PoisonError::into_inner) = None;
}

fn panic_reason(info: &std::panic::PanicHookInfo<'_>) -> String {
    let message = info
        .payload()
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| info.payload().downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic (non-string payload)".to_string());
    match info.location() {
        Some(loc) => format!("panic at {}:{}: {message}", loc.file(), loc.line()),
        None => format!("panic: {message}"),
    }
}

/// Capture and write a bundle immediately using the armed target (and
/// the calling thread's [`DiagScope`], if any). Returns the bundle path,
/// or `None` when diagnostics are not armed or the write failed — this
/// runs inside a panic hook, so it must never itself panic.
pub fn write_bundle_now(reason: &str) -> Option<PathBuf> {
    let guard = DIAG_TARGET.lock().unwrap_or_else(PoisonError::into_inner);
    let target = guard.as_ref()?;
    let scoped = DIAG_SCOPES.with(|s| s.borrow().last().cloned());
    let (matrix, obs) = match &scoped {
        Some((name, obs)) => (name.as_str(), obs),
        None => ("", &target.obs),
    };
    let bundle = build_bundle(
        reason,
        matrix,
        obs,
        target.fault_seed,
        target.fault_rate_ppm,
    );
    let ns = obs.flight.now_ns();
    let dir = target.dir.clone();
    drop(guard);
    write_bundle_file(&dir, &bundle, ns).ok()
}

/// Write `bundle` into `dir` as `nmt-diag-<pid>-<seq>-<ns>.json`.
pub fn write_bundle_file(
    dir: &Path,
    bundle: &DiagnosticsBundle,
    ns: u64,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    // ordering: monotone sequence counter — it only namespaces the file
    // name so concurrent writers never clobber each other.
    let seq = BUNDLE_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("nmt-diag-{}-{seq}-{ns}.json", std::process::id()));
    std::fs::write(&path, bundle.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_orders_by_content() {
        let fr = FlightRecorder::new();
        fr.record(EventSite::KernelStrip, 0, 2, 10);
        fr.record(EventSite::FarmStrip, 0, 1, 0);
        fr.record(EventSite::FarmStrip, 0, 0, 0);
        let events = fr.snapshot();
        let keys: Vec<_> = events.iter().map(Event::content_key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].site, EventSite::FarmStrip);
        assert_eq!(events[0].a, 0);
        assert_eq!(fr.dropped(), 0);
    }

    #[test]
    fn per_thread_ring_wraps_and_counts_drops() {
        let fr = FlightRecorder::with_capacity(2);
        for i in 0..5 {
            fr.record(EventSite::FarmStrip, 0, i, 0);
        }
        let events = fr.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(fr.dropped(), 3);
        // Oldest evicted first: strips 3 and 4 survive.
        assert_eq!(events[0].a, 3);
        assert_eq!(events[1].a, 4);
    }

    #[test]
    fn zero_capacity_is_a_noop() {
        let fr = FlightRecorder::with_capacity(0);
        fr.record(EventSite::FarmStrip, 0, 0, 0);
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 0);
    }

    #[test]
    fn threads_write_private_buffers_and_merge_deterministically() {
        let fr = Arc::new(FlightRecorder::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let fr = fr.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..8u64 {
                    fr.record(EventSite::FarmStrip, 0, t * 8 + i, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = fr.snapshot();
        assert_eq!(events.len(), 32);
        let strips: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(strips, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn fault_code_mapping_round_trips() {
        for code in 1..=5u64 {
            let site = EventSite::from_fault_code(code).unwrap();
            assert!(site.is_fault());
        }
        assert_eq!(EventSite::from_fault_code(0), None);
        assert_eq!(EventSite::from_fault_code(6), None);
    }

    #[test]
    fn stable_codes_are_unique_and_cover_all() {
        let mut codes: Vec<u32> = EventSite::ALL.iter().map(|s| s.stable_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), EventSite::ALL.len());
    }

    #[test]
    fn bundle_json_round_trips() {
        let obs = ObsContext::disabled();
        obs.flight.record(EventSite::FaultConvertStrip, 2, 4, 0);
        obs.metrics.counter_add("fault.injected", 1);
        let bundle = build_bundle("test reason", "mat-x", &obs, Some(0xcafe), Some(300_000));
        let parsed = DiagnosticsBundle::from_json(&bundle.to_json()).unwrap();
        assert_eq!(parsed, bundle);
        assert_eq!(parsed.matrix, "mat-x");
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.fault_seed, Some(0xcafe));
        assert_eq!(parsed.metrics.counters.get("fault.injected"), Some(&1));
    }

    #[test]
    fn bundle_rejects_unknown_schema() {
        let obs = ObsContext::disabled();
        let mut bundle = build_bundle("r", "", &obs, None, None);
        bundle.schema_version = 99;
        assert!(DiagnosticsBundle::from_json(&bundle.to_json()).is_err());
    }

    #[test]
    fn postmortem_names_fault_site_strip_and_thread() {
        let obs = ObsContext::disabled();
        obs.flight.record(EventSite::FarmStrip, 0, 3, 0);
        obs.flight.record(EventSite::FaultConvertStrip, 2, 3, 0);
        let bundle = build_bundle("boom", "mat-y", &obs, Some(1), Some(1000));
        let text = bundle.render_postmortem();
        assert!(text.contains("fault site fault-convert-strip"), "{text}");
        assert!(text.contains("strip 3"), "{text}");
        assert!(
            text.contains(&format!("on thread {}", bundle.thread)),
            "{text}"
        );
        assert!(text.contains("matrix: mat-y"), "{text}");
    }

    #[test]
    fn postmortem_warns_on_dropped_events_only() {
        let obs = ObsContext::disabled();
        drop(obs.span("planner.explain")); // disabled: nothing recorded, nothing lost
        let bundle = build_bundle("r", "", &obs, None, None);
        assert_eq!(bundle.dropped_events, 0);
        assert!(!bundle.render_postmortem().contains("dropped"));

        for i in 0..=FlightRecorder::DEFAULT_CAPACITY as u64 {
            obs.flight.record(EventSite::FarmStrip, 0, i, 0);
        }
        let bundle = build_bundle("r", "", &obs, None, None);
        assert_eq!(bundle.dropped_events, 1);
        let text = bundle.render_postmortem();
        assert!(
            text.contains("1 flight-recorder event(s) dropped"),
            "{text}"
        );
        // The dropped-event gauge was published into the snapshot too.
        assert_eq!(bundle.metrics.gauges.get("obs.dropped_events"), Some(&1.0));
    }

    #[test]
    fn postmortem_names_span_events() {
        let obs = ObsContext::enabled();
        drop(obs.span("engine.farm.reduce"));
        let text = build_bundle("r", "", &obs, None, None).render_postmortem();
        assert!(text.contains("span-begin"), "{text}");
        assert!(text.contains("span-end"), "{text}");
        assert!(text.contains("engine.farm.reduce"), "{text}");
    }

    #[test]
    fn lanes_keep_ring_order_per_thread() {
        let fr = FlightRecorder::new();
        fr.record(EventSite::KernelStrip, 0, 2, 0);
        fr.record(EventSite::FarmStrip, 0, 1, 0);
        std::thread::scope(|s| {
            s.spawn(|| fr.record(EventSite::FarmStrip, 0, 9, 0));
        });
        let lanes = fr.lanes();
        assert_eq!(lanes.len(), 2);
        assert!(lanes[0][0].tid < lanes[1][0].tid);
        let a: Vec<u64> = lanes[0].iter().map(|e| e.a).collect();
        assert_eq!(a, [2, 1], "recording order, not content order");
        assert_eq!(lanes[1][0].a, 9);
    }

    #[test]
    fn planner_fallback_diagnosis_maps_fault_code() {
        let obs = ObsContext::disabled();
        obs.flight.record(EventSite::PlannerFallback, 1, 7, 0);
        let bundle = build_bundle("r", "", &obs, None, None);
        let text = bundle.render_postmortem();
        assert!(text.contains("fault site fault-convert-strip"), "{text}");
        assert!(text.contains("strip 7"), "{text}");
    }
}
