//! Exporters: Chrome trace-event JSON and folded-stack flamegraph text.
//!
//! Both read flight-recorder lanes ([`crate::FlightRecorder::lanes`])
//! through [`walk`]. The Chrome format is the `traceEvents` array
//! understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`; timestamps are microseconds. Spans become
//! `"ph": "B"` / `"ph": "E"` pairs and every other flight event an
//! instant (`"ph": "i"`) carrying its `code`/`a`/`b`, each lane in ring
//! order, so begin/end events nest exactly as the thread ran them.

use crate::recorder::Event;
use crate::span::{span_name, walk, Step};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};

fn event(ph: &str, name: &str, ts_ns: u64, tid: u64, args: Option<Value>) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("cat".to_string(), Value::Str("nmt".to_string())),
        ("ph".to_string(), Value::Str(ph.to_string())),
        // Trace-event timestamps are in microseconds.
        ("ts".to_string(), Value::F64(ts_ns as f64 / 1000.0)),
        ("pid".to_string(), Value::U64(1)),
        ("tid".to_string(), Value::U64(tid)),
    ];
    if let Some(args) = args {
        fields.push(("args".to_string(), args));
    }
    Value::Object(fields)
}

/// Build the Chrome trace document as a JSON value tree.
pub fn chrome_trace_value(lanes: &[Vec<Event>]) -> Value {
    let mut events = Vec::new();
    walk(lanes, |step| match step {
        Step::Begin(e) => events.push(event("B", span_name(e.code), e.ts_ns, e.tid, None)),
        Step::End { span, .. } => events.push(event("E", span.name, span.end_ns, span.tid, None)),
        Step::Event(e) => {
            let args = Value::Object(vec![
                ("code".to_string(), Value::U64(u64::from(e.code))),
                ("a".to_string(), Value::U64(e.a)),
                ("b".to_string(), Value::U64(e.b)),
            ]);
            events.push(event("i", e.site.name(), e.ts_ns, e.tid, Some(args)));
        }
    });
    Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
    ])
}

/// Render the Chrome trace document as a JSON string.
pub fn chrome_trace_json(lanes: &[Vec<Event>]) -> String {
    // nmt-lint: allow(panic) — serializing a plain data struct cannot fail
    serde_json::to_string(&chrome_trace_value(lanes)).expect("trace serializes")
}

/// Write the Chrome trace document to `w`.
pub fn write_chrome_trace<W: Write>(mut w: W, lanes: &[Vec<Event>]) -> io::Result<()> {
    w.write_all(chrome_trace_json(lanes).as_bytes())?;
    w.write_all(b"\n")
}

/// Render spans as inferno-compatible folded stacks: one line per unique
/// call path, `frame;frame;... <self_ns>`, value = the path's **self**
/// time in nanoseconds (duration minus same-thread children). Each stack
/// is rooted at a `tid<N>` frame, one per thread lane, so farm workers
/// show up as separate towers. Because self-times partition every span
/// exactly, the values of all lines sum to the total wall-time of the
/// root spans — feed the text to `inferno-flamegraph` (or any
/// `flamegraph.pl`-compatible tool) unchanged. Span names are frame-safe
/// by construction (no `;` or space; see [`crate::span::SPAN_NAMES`]).
pub fn flamegraph_folded(lanes: &[Vec<Event>]) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    walk(lanes, |step| {
        if let Step::End { span, path } = step {
            if span.self_ns > 0 {
                let mut stack = format!("tid{}", span.tid);
                for frame in path.iter().chain([&span.name]) {
                    stack.push(';');
                    stack.push_str(frame);
                }
                *folded.entry(stack).or_default() += span.self_ns;
            }
        }
    });
    let mut out = String::new();
    for (stack, ns) in folded {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// Write the folded-stack flamegraph text to `w`.
pub fn write_flamegraph<W: Write>(mut w: W, lanes: &[Vec<Event>]) -> io::Result<()> {
    w.write_all(flamegraph_folded(lanes).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::script;
    use crate::{EventSite, ObsContext};

    fn sample_lanes() -> Vec<Vec<Event>> {
        let obs = ObsContext::enabled();
        {
            let _plan = obs.span("planner.plan");
            {
                let _convert = obs.span("engine.convert");
                obs.flight.record(EventSite::KernelStrip, 0, 3, 8);
            }
            drop(obs.span("kernels.launch"));
        }
        obs.flight.lanes()
    }

    #[test]
    fn chrome_trace_has_matched_nested_events() {
        let lanes = sample_lanes();
        let json = chrome_trace_json(&lanes);
        let doc: Value = serde_json::from_str(&json).expect("trace is valid JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), lanes[0].len());
        // Walk the stream: every E must close the innermost open B.
        let mut stack: Vec<&str> = Vec::new();
        for e in events {
            let name = e["name"].as_str().unwrap();
            match e["ph"].as_str().unwrap() {
                "B" => stack.push(name),
                "E" => assert_eq!(stack.pop(), Some(name), "E closes innermost B"),
                "i" => assert_eq!(stack.last(), Some(&"engine.convert")),
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(stack.is_empty(), "all B events closed");
        // The child opens inside its parent in stream order.
        let order: Vec<(&str, &str)> = events
            .iter()
            .map(|e| (e["ph"].as_str().unwrap(), e["name"].as_str().unwrap()))
            .collect();
        assert_eq!(order[0], ("B", "planner.plan"));
        assert_eq!(order[1], ("B", "engine.convert"));
        assert_eq!(order[2], ("i", "kernel-strip"));
        assert_eq!(order[3], ("E", "engine.convert"));
        assert_eq!(*order.last().unwrap(), ("E", "planner.plan"));
    }

    #[test]
    fn chrome_trace_instants_carry_event_content() {
        let doc: Value = serde_json::from_str(&chrome_trace_json(&sample_lanes())).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        let strip = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("i"))
            .unwrap();
        assert_eq!(strip["name"].as_str(), Some("kernel-strip"));
        assert_eq!(strip["args"]["code"].as_u64(), Some(0));
        assert_eq!(strip["args"]["a"].as_u64(), Some(3));
        assert_eq!(strip["args"]["b"].as_u64(), Some(8));
    }

    #[test]
    fn orphaned_ends_are_skipped() {
        // An end whose begin wrapped away exports nothing; the pair
        // after it still does.
        let lanes = vec![script::lane(
            1,
            &[
                (5, "engine.farm", false),
                (10, "kernels.launch", true),
                (20, "kernels.launch", false),
            ],
        )];
        let doc: Value = serde_json::from_str(&chrome_trace_json(&lanes)).unwrap();
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn flamegraph_lines_sum_to_root_wall_time() {
        let folded = flamegraph_folded(&[script::planner_lane(1)]);
        let mut total = 0u64;
        for line in folded.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("folded line");
            assert!(stack.starts_with("tid1;planner.execute"), "{stack}");
            total += ns.parse::<u64>().expect("integer self-time");
        }
        assert_eq!(total, 100, "self-times partition the root span");
        assert!(folded.contains("tid1;planner.execute;planner.chosen;kernels.launch 40"));
        assert!(folded.contains("tid1;planner.execute;planner.plan 20"));
        // Root self-time: 100 - (20 + 60) = 20.
        assert!(folded.lines().any(|l| l == "tid1;planner.execute 20"));
    }

    #[test]
    fn flamegraph_merges_identical_stacks() {
        let lanes = vec![script::lane(
            1,
            &[
                (0, "engine.farm", true),
                (0, "engine.farm.strip", true),
                (10, "engine.farm.strip", false),
                (10, "engine.farm.strip", true),
                (30, "engine.farm.strip", false),
                (100, "engine.farm", false),
            ],
        )];
        let folded = flamegraph_folded(&lanes);
        // Two same-named children fold into one line with summed time.
        assert!(
            folded.contains("tid1;engine.farm;engine.farm.strip 30"),
            "{folded}"
        );
        assert_eq!(folded.lines().filter(|l| l.contains("strip")).count(), 1);
    }

    #[test]
    fn flamegraph_separates_thread_lanes() {
        let lanes = vec![
            script::flat(1, &[("planner.execute", 0, 100)]),
            script::flat(2, &[("engine.farm.strip", 10, 40)]),
            script::flat(3, &[("engine.farm.strip", 10, 50)]),
        ];
        let folded = flamegraph_folded(&lanes);
        assert!(folded.contains("tid1;planner.execute 100"));
        assert!(folded.contains("tid2;engine.farm.strip 30"));
        assert!(folded.contains("tid3;engine.farm.strip 40"));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let lanes = vec![script::flat(1, &[("planner.plan", 1500, 2500)])];
        let doc: Value = serde_json::from_str(&chrome_trace_json(&lanes)).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events[0]["ts"].as_f64(), Some(1.5));
        assert_eq!(events[1]["ts"].as_f64(), Some(2.5));
    }
}
