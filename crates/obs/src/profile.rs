//! Phase-attributed profiling over the span tree.
//!
//! The [`Profiler`] folds flight-recorder lanes
//! ([`crate::FlightRecorder::lanes`]), walked by [`crate::span::walk`],
//! into:
//!
//! * **per-phase self-time** — every span name maps onto the pipeline
//!   phase taxonomy (parse → plan → convert → baseline → kernel →
//!   reduce, plus `other` for orchestration shells) through
//!   [`SPAN_NAMES`](crate::span::SPAN_NAMES), and each span contributes
//!   its *self* time (duration minus same-thread children) so nested
//!   spans never double-count;
//! * **per-worker busy/idle** — for every thread lane, busy is the union
//!   of its root spans and idle is the remainder of the profile window
//!   (the engine farm's rayon workers each get a lane);
//! * **farm concurrency / queue depth** — an event sweep over the
//!   `engine.farm.strip` worker spans yields the maximum number of strips
//!   in flight and the time-weighted mean (the queue depth an engine
//!   sees).
//!
//! Phase totals are summed across threads, so on a parallel run they are
//! CPU-seconds, not wall-clock: the convert phase of an 8-worker farm can
//! legitimately exceed the window. Wall-clock questions are answered by
//! the per-worker table and `window_ns`.
//!
//! When allocation counting is on (see [`crate::alloc`]), span end events
//! carry allocation deltas; these are attributed to phases with the same
//! self-time rule (parent deltas include children, so children are
//! subtracted).

use crate::recorder::Event;
use crate::span::{span_code, span_phase, walk, Step};
use std::collections::BTreeMap;

/// Pipeline phase taxonomy. Every span name maps to exactly one phase in
/// [`SPAN_NAMES`](crate::span::SPAN_NAMES); orchestration shells
/// (`planner.execute`, `planner.chosen`) land in [`Phase::Other`] and
/// contribute only their self-time (scheduling overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Matrix ingestion: synthesis (`matgen.generate`).
    Parse,
    /// SSF profiling and the hybrid decision (`planner.plan`,
    /// `planner.explain`).
    Plan,
    /// Near-memory strip conversion: the engine farm and its strips
    /// (`engine.farm`, `engine.farm.strip`) and `engine.convert`.
    Convert,
    /// The simulated cuSPARSE stand-in, the speedup baseline
    /// (`planner.baseline`, `audit.baseline`). Neither span has children,
    /// so its self time is the stand-in's whole run.
    Baseline,
    /// Simulated execution of the candidate kernels (`kernels.launch`,
    /// `audit.cstationary`, `audit.bstationary`).
    Kernel,
    /// The farm's deterministic index-ordered reduction
    /// (`engine.farm.reduce`).
    Reduce,
    /// Everything else: orchestration shells and unclassified spans.
    Other,
}

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::Parse,
        Phase::Plan,
        Phase::Convert,
        Phase::Baseline,
        Phase::Kernel,
        Phase::Reduce,
        Phase::Other,
    ];

    /// Stable lowercase name, used in metric names and ledger keys.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::Convert => "convert",
            Phase::Baseline => "baseline",
            Phase::Kernel => "kernel",
            Phase::Reduce => "reduce",
            Phase::Other => "other",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated totals for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Self-time summed over every span in the phase, across all threads
    /// (CPU-nanoseconds under parallelism).
    pub self_ns: u64,
    /// Number of spans attributed to the phase.
    pub spans: u64,
    /// Self-attributed allocation count (zero unless counting was on).
    pub alloc_count: u64,
    /// Self-attributed allocated bytes (zero unless counting was on).
    pub alloc_bytes: u64,
}

/// Busy/idle accounting for one thread lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Sequential thread id from the recorder.
    pub tid: u64,
    /// Union of this lane's root spans, ns.
    pub busy_ns: u64,
    /// `window_ns - busy_ns`.
    pub idle_ns: u64,
    /// Spans recorded on this lane (including nested ones).
    pub spans: u64,
}

/// The folded result of [`Profiler::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Profile window: latest span end minus earliest span start, ns.
    pub window_ns: u64,
    /// Totals per phase, in [`Phase::ALL`] order (every phase present,
    /// empty phases all-zero).
    pub phases: Vec<(Phase, PhaseTotals)>,
    /// Per-thread busy/idle, ascending tid.
    pub workers: Vec<WorkerStats>,
    /// Maximum `engine.farm.strip` spans in flight at once.
    pub farm_max_in_flight: u64,
    /// Time-weighted mean of in-flight farm strips over the farm window.
    pub farm_mean_queue_depth: f64,
}

impl Profile {
    /// Totals for one phase (always present).
    pub fn phase(&self, phase: Phase) -> PhaseTotals {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|&(_, t)| t)
            .unwrap_or_default()
    }

    /// Publish the profile as `perf.*` gauges on a metric registry.
    pub fn publish(&self, metrics: &crate::MetricRegistry) {
        metrics.gauge_set("perf.window_ns", self.window_ns as f64);
        for &(phase, totals) in &self.phases {
            metrics.gauge_set(
                &format!("perf.phase.{}.self_ns", phase.name()),
                totals.self_ns as f64,
            );
            if totals.alloc_count > 0 {
                metrics.gauge_set(
                    &format!("perf.phase.{}.alloc_count", phase.name()),
                    totals.alloc_count as f64,
                );
                metrics.gauge_set(
                    &format!("perf.phase.{}.alloc_bytes", phase.name()),
                    totals.alloc_bytes as f64,
                );
            }
        }
        metrics.gauge_set("perf.workers", self.workers.len() as f64);
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        let idle: u64 = self.workers.iter().map(|w| w.idle_ns).sum();
        metrics.gauge_set("perf.worker.busy_ns", busy as f64);
        metrics.gauge_set("perf.worker.idle_ns", idle as f64);
        metrics.gauge_set("perf.farm.max_in_flight", self.farm_max_in_flight as f64);
        metrics.gauge_set("perf.farm.mean_queue_depth", self.farm_mean_queue_depth);
    }
}

/// Folds flight-recorder lanes into [`Profile`]s. Stateless; the
/// methods are associated functions so call sites read
/// `Profiler::analyze(&obs.flight.lanes())`.
pub struct Profiler;

/// Union length of a set of `[start, end)` intervals.
fn interval_union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

impl Profiler {
    /// Fold flight-recorder lanes into per-phase, per-worker, and farm
    /// concurrency totals. Deterministic: output depends only on the
    /// events, and all orderings are by phase/tid/time, never map order.
    pub fn analyze(lanes: &[Vec<Event>]) -> Profile {
        let mut phases: BTreeMap<Phase, PhaseTotals> = Phase::ALL
            .iter()
            .map(|&p| (p, PhaseTotals::default()))
            .collect();
        let mut window_lo = u64::MAX;
        let mut window_hi = 0u64;
        let mut lane_roots: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        let mut lane_spans: BTreeMap<u64, u64> = BTreeMap::new();
        let mut farm_events: Vec<(u64, i64)> = Vec::new();

        walk(lanes, |step| {
            let Step::End { span: s, .. } = step else {
                return;
            };
            window_lo = window_lo.min(s.start_ns);
            window_hi = window_hi.max(s.end_ns);
            let slot = phases.entry(span_phase(span_code(s.name))).or_default();
            slot.self_ns += s.self_ns;
            slot.spans += 1;
            slot.alloc_count += s.self_alloc_count;
            slot.alloc_bytes += s.self_alloc_bytes;

            *lane_spans.entry(s.tid).or_default() += 1;
            // Roots only: a lane's busy time is the union of its top-level
            // spans (descendants are contained in them).
            if s.depth == 0 {
                lane_roots
                    .entry(s.tid)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
            if s.name == "engine.farm.strip" {
                farm_events.push((s.start_ns, 1));
                farm_events.push((s.end_ns, -1));
            }
        });

        let window_ns = if lane_spans.is_empty() {
            0
        } else {
            window_hi - window_lo
        };

        let workers: Vec<WorkerStats> = lane_spans
            .iter()
            .map(|(&tid, &count)| {
                let busy_ns = interval_union_ns(lane_roots.remove(&tid).unwrap_or_default());
                WorkerStats {
                    tid,
                    busy_ns,
                    idle_ns: window_ns.saturating_sub(busy_ns),
                    spans: count,
                }
            })
            .collect();

        // Event sweep over farm strip spans: ends sort before starts at
        // the same timestamp, so back-to-back strips don't inflate the
        // peak.
        farm_events.sort_unstable_by_key(|&(t, d)| (t, d));
        let mut in_flight = 0i64;
        let mut max_in_flight = 0i64;
        let mut weighted = 0.0f64;
        let mut prev_t: Option<u64> = None;
        let mut farm_lo = u64::MAX;
        let mut farm_hi = 0u64;
        for &(t, d) in &farm_events {
            if let Some(p) = prev_t {
                weighted += (t - p) as f64 * in_flight as f64;
            }
            in_flight += d;
            max_in_flight = max_in_flight.max(in_flight);
            prev_t = Some(t);
            farm_lo = farm_lo.min(t);
            farm_hi = farm_hi.max(t);
        }
        let farm_window = farm_hi.saturating_sub(farm_lo);
        let farm_mean_queue_depth = if farm_window > 0 {
            weighted / farm_window as f64
        } else {
            0.0
        };

        Profile {
            window_ns,
            phases: phases.into_iter().collect(),
            workers,
            farm_max_in_flight: max_in_flight.max(0) as u64,
            farm_mean_queue_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{script, SPAN_NAMES};

    #[test]
    fn phase_taxonomy_covers_known_span_names() {
        for (name, want) in [
            ("matgen.generate", Phase::Parse),
            ("planner.plan", Phase::Plan),
            ("planner.explain", Phase::Plan),
            ("engine.convert", Phase::Convert),
            ("engine.farm", Phase::Convert),
            ("engine.farm.strip", Phase::Convert),
            ("engine.farm.reduce", Phase::Reduce),
            ("kernels.launch", Phase::Kernel),
            ("planner.baseline", Phase::Baseline),
            ("audit.baseline", Phase::Baseline),
            ("audit.cstationary", Phase::Kernel),
            ("audit.bstationary", Phase::Kernel),
            ("planner.execute", Phase::Other),
            ("planner.chosen", Phase::Other),
        ] {
            assert_eq!(span_phase(span_code(name)), want, "{name}");
        }
        // Every phase has a span that lands in it.
        for phase in Phase::ALL {
            assert!(SPAN_NAMES.iter().any(|&(_, p)| p == phase), "{phase}");
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let p = Profiler::analyze(&[script::planner_lane(1)]);
        assert_eq!(p.window_ns, 100);
        assert_eq!(p.phase(Phase::Plan).self_ns, 20);
        assert_eq!(p.phase(Phase::Kernel).self_ns, 40);
        // execute self = 100 - (20 + 60); chosen self = 60 - 40.
        assert_eq!(p.phase(Phase::Other).self_ns, 20 + 20);
        let total: u64 = p.phases.iter().map(|&(_, t)| t.self_ns).sum();
        assert_eq!(total, 100, "self-times partition the root exactly");
    }

    #[test]
    fn workers_get_busy_and_idle_lanes() {
        let lanes = vec![
            script::flat(1, &[("planner.execute", 0, 100)]),
            script::flat(
                2,
                &[("engine.farm.strip", 10, 30), ("engine.farm.strip", 50, 70)],
            ),
            script::flat(3, &[("engine.farm.strip", 10, 70)]),
        ];
        let p = Profiler::analyze(&lanes);
        assert_eq!(p.workers.len(), 3);
        let lane = |tid| p.workers.iter().find(|w| w.tid == tid).unwrap();
        assert_eq!(lane(1).busy_ns, 100);
        assert_eq!(lane(1).idle_ns, 0);
        assert_eq!(lane(2).busy_ns, 40);
        assert_eq!(lane(2).idle_ns, 60);
        assert_eq!(lane(3).busy_ns, 60);
    }

    #[test]
    fn farm_concurrency_sweep() {
        let lanes = vec![
            script::flat(2, &[("engine.farm.strip", 0, 40)]),
            script::flat(3, &[("engine.farm.strip", 10, 30)]),
            script::flat(4, &[("engine.farm.strip", 20, 60)]),
        ];
        let p = Profiler::analyze(&lanes);
        assert_eq!(p.farm_max_in_flight, 3);
        // Integral: [0,10)=1, [10,20)=2, [20,30)=3, [30,40)=2, [40,60)=1
        // = (10 + 20 + 30 + 20 + 20) / 60
        assert!((p.farm_mean_queue_depth - 100.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn alloc_deltas_attribute_self_deltas() {
        let mut lane = script::lane(
            1,
            &[
                (0, "engine.convert", true),
                (10, "kernels.launch", true),
                (90, "kernels.launch", false),
                (100, "engine.convert", false),
            ],
        );
        // End events carry (count, bytes) over the whole span.
        (lane[2].a, lane[2].b) = (4, 400);
        (lane[3].a, lane[3].b) = (10, 1000);
        let p = Profiler::analyze(&[lane]);
        assert_eq!(p.phase(Phase::Convert).alloc_count, 6);
        assert_eq!(p.phase(Phase::Convert).alloc_bytes, 600);
        assert_eq!(p.phase(Phase::Kernel).alloc_count, 4);
        assert_eq!(p.phase(Phase::Kernel).alloc_bytes, 400);
    }

    #[test]
    fn empty_lanes_are_all_zero() {
        let p = Profiler::analyze(&[]);
        assert_eq!(p.window_ns, 0);
        assert!(p.workers.is_empty());
        assert_eq!(p.farm_max_in_flight, 0);
        assert_eq!(p.farm_mean_queue_depth, 0.0);
        assert_eq!(p.phases.len(), Phase::ALL.len());
        assert!(p.phases.iter().all(|&(_, t)| t == PhaseTotals::default()));
    }

    #[test]
    fn publish_emits_perf_gauges() {
        let lanes = vec![script::lane(
            1,
            &[
                (0, "planner.execute", true),
                (10, "engine.convert", true),
                (60, "engine.convert", false),
                (100, "planner.execute", false),
            ],
        )];
        let reg = crate::MetricRegistry::new();
        Profiler::analyze(&lanes).publish(&reg);
        let snap = reg.snapshot();
        let flat = snap.flat();
        let get = |n: &str| {
            flat.get(n)
                .copied()
                .unwrap_or_else(|| panic!("missing gauge {n}"))
        };
        assert_eq!(get("perf.window_ns"), 100.0);
        assert_eq!(get("perf.phase.convert.self_ns"), 50.0);
        assert_eq!(get("perf.phase.other.self_ns"), 50.0);
        assert_eq!(get("perf.workers"), 1.0);
    }
}
