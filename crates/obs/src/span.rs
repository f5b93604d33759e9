//! Hierarchical wall-clock spans, recorded as begin/end flight events.
//!
//! A [`Span`] is an RAII guard. Opening one pushes its name onto the
//! thread's open-span stack and, on an enabled [`crate::ObsContext`],
//! records an [`EventSite::SpanBegin`] event in the context's flight
//! recorder; dropping it records the matching [`EventSite::SpanEnd`] and
//! pops the name. Nothing else is stored: a thread's ring holds its
//! events in order, so [`walk`] rebuilds the `plan → convert → kernel`
//! nesting by pairing begins with ends. That one walk feeds the
//! profiler, the Chrome trace and the flamegraph.
//!
//! This module also owns the crate's one wall clock ([`Clock`]).

use crate::alloc::AllocScope;
use crate::profile::Phase;
use crate::recorder::{Event, EventSite, FlightRecorder};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Every span name with its pipeline phase. A span event's `code` is
/// the name's index here, and bundles are read across commits, so only
/// ever append.
pub const SPAN_NAMES: [(&str, Phase); 14] = [
    ("planner.execute", Phase::Other),
    ("planner.plan", Phase::Plan),
    ("planner.baseline", Phase::Baseline),
    ("planner.chosen", Phase::Other),
    ("planner.explain", Phase::Plan),
    ("audit.baseline", Phase::Baseline),
    ("audit.cstationary", Phase::Kernel),
    ("audit.bstationary", Phase::Kernel),
    ("matgen.generate", Phase::Parse),
    ("engine.convert", Phase::Convert),
    ("engine.farm", Phase::Convert),
    ("engine.farm.strip", Phase::Convert),
    ("engine.farm.reduce", Phase::Reduce),
    ("kernels.launch", Phase::Kernel),
];

/// The event code of a span name: its index in [`SPAN_NAMES`], or one
/// past the end for a name the table lacks.
pub(crate) fn span_code(name: &str) -> u32 {
    SPAN_NAMES
        .iter()
        .position(|&(n, _)| n == name)
        .unwrap_or(SPAN_NAMES.len()) as u32
}

/// The span name behind an event code (`"unknown"` off the table).
pub(crate) fn span_name(code: u32) -> &'static str {
    SPAN_NAMES.get(code as usize).map_or("unknown", |&(n, _)| n)
}

/// The phase of a span event code ([`Phase::Other`] off the table).
pub(crate) fn span_phase(code: u32) -> Phase {
    SPAN_NAMES
        .get(code as usize)
        .map_or(Phase::Other, |&(_, p)| p)
}

/// Nanoseconds since creation: the timestamp source of every flight
/// event, and the only wall-clock reader in the crate.
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock reading zero now.
    pub fn start() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Clock::start`].
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Open spans kept by name per thread; deeper ones are counted only.
const MAX_OPEN: usize = 32;

thread_local! {
    /// Sequential id of this thread, assigned on first use.
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    /// Names of the spans open on this thread, outermost first, and the
    /// open depth. A fixed array, so opening a span never allocates; the
    /// panic hook reads it to name the call path that was executing.
    static OPEN: RefCell<([&'static str; MAX_OPEN], usize)> =
        const { RefCell::new(([""; MAX_OPEN], 0)) };
}

pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == 0 {
            // ordering: monotone id counter — only uniqueness matters;
            // the id publishes no other data.
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Names of the spans open on the current thread, outermost first, from
/// every context, enabled or not.
pub(crate) fn open_spans() -> Vec<String> {
    OPEN.with(|o| {
        let (names, depth) = &*o.borrow();
        names[..(*depth).min(MAX_OPEN)]
            .iter()
            .map(|n| (*n).to_string())
            .collect()
    })
}

/// RAII guard for one open span; the end event is written when it drops.
pub struct Span<'a> {
    name: &'static str,
    /// The sink and the span's code and allocation scope, when the
    /// context records events.
    live: Option<(&'a FlightRecorder, u32, AllocScope)>,
}

impl<'a> Span<'a> {
    /// Open `name`, recording a begin event into `flight` when given.
    pub(crate) fn open(name: &'static str, flight: Option<&'a FlightRecorder>) -> Self {
        OPEN.with(|o| {
            let (names, depth) = &mut *o.borrow_mut();
            if *depth < MAX_OPEN {
                names[*depth] = name;
            }
            *depth += 1;
        });
        let live = flight.map(|f| {
            let code = span_code(name);
            f.record(EventSite::SpanBegin, code, 0, 0);
            // Begun after the begin event, so the ring's own growth is
            // not billed to this span.
            (f, code, AllocScope::begin())
        });
        Span { name, live }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((flight, code, alloc)) = &self.live {
            let (count, bytes) = alloc.finish();
            flight.record(EventSite::SpanEnd, *code, count, bytes);
        }
        // `try_*`: a drop must not panic, even during thread teardown.
        let _ = OPEN.try_with(|o| {
            let Ok(mut open) = o.try_borrow_mut() else {
                return;
            };
            let (names, depth) = &mut *open;
            // Normally ours is the innermost name; remove by name so a
            // guard dropped out of order leaves the others in place.
            if *depth <= MAX_OPEN {
                if let Some(i) = names[..*depth].iter().rposition(|n| *n == self.name) {
                    names.copy_within(i + 1..*depth, i);
                }
            }
            *depth = depth.saturating_sub(1);
        });
    }
}

/// One completed span, rebuilt by [`walk`] from a begin/end pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `"planner.execute"`.
    pub name: &'static str,
    /// Small sequential thread id (not the OS tid).
    pub tid: u64,
    /// Start, ns on the recorder's clock.
    pub start_ns: u64,
    /// End, ns on the recorder's clock. Always `>= start_ns`.
    pub end_ns: u64,
    /// Spans enclosing this one on its thread (0 = a root of its lane).
    pub depth: usize,
    /// Duration minus the durations of the spans directly inside it.
    pub self_ns: u64,
    /// Allocations over the span minus those of the spans directly
    /// inside it (zero unless allocation counting was on).
    pub self_alloc_count: u64,
    /// Allocated bytes, attributed like `self_alloc_count`.
    pub self_alloc_bytes: u64,
}

impl SpanRecord {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One step of [`walk`] over a lane, in ring order.
#[derive(Debug)]
pub enum Step<'s> {
    /// A span opens.
    Begin(&'s Event),
    /// A span closes. `path` names the spans enclosing it, outermost first.
    End {
        /// The completed span.
        span: SpanRecord,
        /// Enclosing span names, outermost first (`span.depth` of them).
        path: &'s [&'static str],
    },
    /// Any event that is not a span boundary.
    Event(&'s Event),
}

/// Walk each lane (one thread's events in ring order, as
/// [`FlightRecorder::lanes`] returns them), pairing every span end with
/// the innermost open begin of the same name. A begin whose end is not
/// in the ring (the span is still open) and an end whose begin wrapped
/// away are skipped, so `Begin` and `End` steps always balance.
pub fn walk(lanes: &[Vec<Event>], mut visit: impl FnMut(Step<'_>)) {
    struct Open {
        begin: usize,
        child_ns: u64,
        child_alloc: (u64, u64),
    }
    for lane in lanes {
        // Which begins have their end in the ring.
        let mut closed = vec![false; lane.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, e) in lane.iter().enumerate() {
            match e.site {
                EventSite::SpanBegin => stack.push(i),
                EventSite::SpanEnd => {
                    if let Some(k) = stack.iter().rposition(|&b| lane[b].code == e.code) {
                        closed[stack.remove(k)] = true;
                    }
                }
                _ => {}
            }
        }
        let mut open: Vec<Open> = Vec::new();
        let mut path: Vec<&'static str> = Vec::new();
        for (i, e) in lane.iter().enumerate() {
            match e.site {
                EventSite::SpanBegin => {
                    if closed[i] {
                        open.push(Open {
                            begin: i,
                            child_ns: 0,
                            child_alloc: (0, 0),
                        });
                        path.push(span_name(e.code));
                        visit(Step::Begin(e));
                    }
                }
                EventSite::SpanEnd => {
                    let Some(depth) = open.iter().rposition(|o| lane[o.begin].code == e.code)
                    else {
                        continue;
                    };
                    let o = open.remove(depth);
                    path.remove(depth);
                    let start_ns = lane[o.begin].ts_ns;
                    let end_ns = e.ts_ns.max(start_ns);
                    let duration = end_ns - start_ns;
                    if let Some(parent) = depth.checked_sub(1).map(|p| &mut open[p]) {
                        parent.child_ns += duration;
                        parent.child_alloc.0 += e.a;
                        parent.child_alloc.1 += e.b;
                    }
                    let span = SpanRecord {
                        name: span_name(e.code),
                        tid: e.tid,
                        start_ns,
                        end_ns,
                        depth,
                        self_ns: duration.saturating_sub(o.child_ns),
                        self_alloc_count: e.a.saturating_sub(o.child_alloc.0),
                        self_alloc_bytes: e.b.saturating_sub(o.child_alloc.1),
                    };
                    visit(Step::End {
                        span,
                        path: &path[..depth],
                    });
                }
                _ => visit(Step::Event(e)),
            }
        }
    }
}

/// Build lanes from scripted events, for the readers' tests.
#[cfg(test)]
pub(crate) mod script {
    use super::*;

    /// One lane's events: `(ts_ns, name, is_begin)` per span boundary,
    /// in ring order, all on thread `tid`.
    pub fn lane(tid: u64, steps: &[(u64, &str, bool)]) -> Vec<Event> {
        steps
            .iter()
            .map(|&(ts_ns, name, begin)| Event {
                ts_ns,
                tid,
                site: if begin {
                    EventSite::SpanBegin
                } else {
                    EventSite::SpanEnd
                },
                code: span_code(name),
                a: 0,
                b: 0,
            })
            .collect()
    }

    /// A lane holding one `[start, end]` span per entry, each a root.
    pub fn flat(tid: u64, spans: &[(&str, u64, u64)]) -> Vec<Event> {
        let steps: Vec<(u64, &str, bool)> = spans
            .iter()
            .flat_map(|&(n, s, e)| [(s, n, true), (e, n, false)])
            .collect();
        lane(tid, &steps)
    }

    /// `execute [0,100] > plan [10,30] + chosen [30,90] > launch [40,80]`.
    pub fn planner_lane(tid: u64) -> Vec<Event> {
        lane(
            tid,
            &[
                (0, "planner.execute", true),
                (10, "planner.plan", true),
                (30, "planner.plan", false),
                (30, "planner.chosen", true),
                (40, "kernels.launch", true),
                (80, "kernels.launch", false),
                (90, "planner.chosen", false),
                (100, "planner.execute", false),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsContext;

    fn spans_of(lanes: &[Vec<Event>]) -> Vec<(SpanRecord, Vec<&'static str>)> {
        let mut out = Vec::new();
        walk(lanes, |step| {
            if let Step::End { span, path } = step {
                out.push((span, path.to_vec()));
            }
        });
        out
    }

    #[test]
    fn span_table_round_trips_and_names_are_frame_safe() {
        for (code, &(name, phase)) in SPAN_NAMES.iter().enumerate() {
            assert_eq!(span_code(name), code as u32);
            assert_eq!(span_name(code as u32), name);
            assert_eq!(span_phase(code as u32), phase);
            // Folded stacks separate frames by ';' and counts by ' '.
            assert!(!name.contains([';', ' ']), "{name}");
        }
        let unknown = span_code("not.a.span");
        assert_eq!(span_name(unknown), "unknown");
        assert_eq!(span_phase(unknown), Phase::Other);
    }

    #[test]
    fn nested_spans_pair_and_nest_in_time() {
        let obs = ObsContext::enabled();
        {
            let _outer = obs.span("planner.execute");
            let _inner = obs.span("planner.plan");
        }
        let spans = spans_of(&obs.flight.lanes());
        assert_eq!(spans.len(), 2);
        // Children close first, so "planner.plan" is walked first.
        let ((inner, inner_path), (outer, outer_path)) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "planner.plan");
        assert_eq!(outer.name, "planner.execute");
        assert_eq!(inner_path, &["planner.execute"]);
        assert!(outer_path.is_empty());
        assert_eq!((inner.depth, outer.depth), (1, 0));
        // Timing monotonicity: child is contained in the parent.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert_eq!(inner.tid, outer.tid);
        assert_eq!(outer.self_ns, outer.duration_ns() - inner.duration_ns());
    }

    #[test]
    fn siblings_share_a_parent() {
        let obs = ObsContext::enabled();
        {
            let _outer = obs.span("planner.execute");
            drop(obs.span("planner.plan"));
            drop(obs.span("planner.chosen"));
        }
        for (span, path) in spans_of(&obs.flight.lanes()) {
            if span.name != "planner.execute" {
                assert_eq!(path, ["planner.execute"], "{} nests in the root", span.name);
            }
        }
    }

    #[test]
    fn two_contexts_do_not_cross_link() {
        let a = ObsContext::enabled();
        let b = ObsContext::enabled();
        {
            let _pa = a.span("planner.execute");
            drop(b.span("planner.plan")); // nothing open in b's ring => root
        }
        assert_eq!(spans_of(&b.flight.lanes())[0].0.depth, 0);
        assert_eq!(spans_of(&a.flight.lanes())[0].0.depth, 0);
    }

    #[test]
    fn disabled_context_records_nothing_and_drops_nothing() {
        let obs = ObsContext::disabled();
        drop(obs.span("planner.execute"));
        assert!(obs.flight.is_empty());
        assert_eq!(obs.flight.dropped(), 0);
    }

    #[test]
    fn open_spans_track_every_context_outermost_first() {
        let on = ObsContext::enabled();
        let off = ObsContext::disabled();
        assert!(open_spans().is_empty());
        {
            let _outer = on.span("planner.explain");
            let _inner = off.span("audit.baseline");
            assert_eq!(open_spans(), vec!["planner.explain", "audit.baseline"]);
        }
        assert!(open_spans().is_empty());
        // Out-of-order drops remove the right name.
        let a = off.span("engine.farm");
        let b = off.span("engine.farm.reduce");
        drop(a);
        assert_eq!(open_spans(), vec!["engine.farm.reduce"]);
        drop(b);
        assert!(open_spans().is_empty());
    }

    #[test]
    fn unpaired_events_are_skipped_and_instants_pass_through() {
        let mut lane = script::lane(
            1,
            &[
                (0, "engine.farm", false), // its begin wrapped away
                (5, "engine.farm.strip", true),
                (9, "engine.farm.strip", false),
                (12, "kernels.launch", true), // still open
            ],
        );
        lane.insert(
            2,
            Event {
                ts_ns: 7,
                tid: 1,
                site: EventSite::FarmStrip,
                code: 0,
                a: 3,
                b: 0,
            },
        );
        let mut steps = Vec::new();
        walk(&[lane], |step| {
            steps.push(match step {
                Step::Begin(e) => format!("B {}", span_name(e.code)),
                Step::End { span, .. } => format!("E {} {}", span.name, span.duration_ns()),
                Step::Event(e) => format!("i {} {}", e.site.name(), e.a),
            });
        });
        assert_eq!(
            steps,
            [
                "B engine.farm.strip",
                "i farm-strip 3",
                "E engine.farm.strip 4"
            ]
        );
    }

    #[test]
    fn spans_from_threads_get_distinct_lanes() {
        let obs = ObsContext::enabled();
        drop(obs.span("planner.execute"));
        std::thread::scope(|s| {
            s.spawn(|| drop(obs.span("engine.farm.strip")));
        });
        let spans = spans_of(&obs.flight.lanes());
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].0.tid, spans[1].0.tid);
    }
}
