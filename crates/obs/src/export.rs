//! Exporters: Chrome trace-event JSON and folded-stack flamegraph text.
//!
//! The Chrome format is the `traceEvents` array of `"ph": "B"` / `"ph": "E"`
//! pairs understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`; timestamps are microseconds. Spans are emitted
//! depth-first per thread so begin/end events always nest correctly, even
//! when adjacent spans share a timestamp.

use crate::span::SpanRecord;
use serde::{Serialize, Value};
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

fn push_span_events(spans: &[SpanRecord], children: &[Vec<usize>], i: usize, out: &mut Vec<Value>) {
    let s = &spans[i];
    out.push(event("B", &s.name, s.start_ns, s.tid, None));
    for &c in &children[i] {
        push_span_events(spans, children, c, out);
    }
    let args = if s.counters.is_empty() {
        None
    } else {
        Some(Value::Object(
            s.counters
                .iter()
                .map(|(k, v)| (k.clone(), Serialize::to_value(v)))
                .collect(),
        ))
    };
    out.push(event("E", &s.name, s.end_ns, s.tid, args));
}

/// Build the Chrome trace document as a JSON value tree.
pub fn chrome_trace_value(spans: &[SpanRecord]) -> Value {
    // Index spans, then emit each parent's subtree depth-first so B/E
    // events pair up by construction. Spans whose parent was evicted from
    // the ring buffer become roots.
    let index_of = |id: u64| spans.iter().position(|s| s.id == id);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent.and_then(index_of) {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let by_start = |a: &usize, b: &usize| {
        (spans[*a].start_ns, spans[*a].id).cmp(&(spans[*b].start_ns, spans[*b].id))
    };
    roots.sort_by(by_start);
    for c in &mut children {
        c.sort_by(by_start);
    }
    let mut events = Vec::with_capacity(spans.len() * 2);
    for r in roots {
        push_span_events(spans, &children, r, &mut events);
    }
    Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        (
            "displayTimeUnit".to_string(),
            Value::Str("ns".to_string()),
        ),
    ])
}

/// Render the Chrome trace document as a JSON string.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    // nmt-lint: allow(panic) — serializing a plain data struct cannot fail
    serde_json::to_string(&chrome_trace_value(spans)).expect("trace serializes")
}

/// Write the Chrome trace document to `w`.
pub fn write_chrome_trace<W: Write>(mut w: W, spans: &[SpanRecord]) -> io::Result<()> {
    w.write_all(chrome_trace_json(spans).as_bytes())?;
    w.write_all(b"\n")
}

/// Render spans as inferno-compatible folded stacks: one line per unique
/// call path, `frame;frame;... <self_ns>`, value = the path's **self**
/// time in nanoseconds (duration minus same-thread children). Each stack
/// is rooted at a `tid<N>` frame, one per thread lane, so farm workers
/// show up as separate towers. Because self-times partition every span
/// exactly, the values of all lines sum to the total wall-time of the
/// root spans — feed the text to `inferno-flamegraph` (or any
/// `flamegraph.pl`-compatible tool) unchanged.
pub fn flamegraph_folded(spans: &[SpanRecord]) -> String {
    let index_of = |id: u64| spans.iter().position(|s| s.id == id);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent.and_then(index_of) {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let by_start = |a: &usize, b: &usize| {
        (spans[*a].start_ns, spans[*a].id).cmp(&(spans[*b].start_ns, spans[*b].id))
    };
    roots.sort_by(by_start);
    for c in &mut children {
        c.sort_by(by_start);
    }

    // Frame separator is ';' and the count separator is the last space,
    // so both must be scrubbed from span names.
    let frame = |name: &str| name.replace([';', ' '], "_");

    fn walk(
        spans: &[SpanRecord],
        children: &[Vec<usize>],
        i: usize,
        path: &mut String,
        frame: &dyn Fn(&str) -> String,
        folded: &mut std::collections::BTreeMap<String, u64>,
    ) {
        let depth = path.len();
        path.push(';');
        path.push_str(&frame(&spans[i].name));
        let kids_ns: u64 = children[i].iter().map(|&c| spans[c].duration_ns()).sum();
        let self_ns = spans[i].duration_ns().saturating_sub(kids_ns);
        if self_ns > 0 {
            *folded.entry(path.clone()).or_default() += self_ns;
        }
        for &c in &children[i] {
            walk(spans, children, c, path, frame, folded);
        }
        path.truncate(depth);
    }

    let mut folded = std::collections::BTreeMap::new();
    for r in roots {
        let mut path = format!("tid{}", spans[r].tid);
        walk(spans, &children, r, &mut path, &frame, &mut folded);
    }
    let mut out = String::new();
    for (stack, ns) in folded {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// Write the folded-stack flamegraph text to `w`.
pub fn write_flamegraph<W: Write>(mut w: W, spans: &[SpanRecord]) -> io::Result<()> {
    w.write_all(flamegraph_folded(spans).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_spans() -> Vec<SpanRecord> {
        let rec = Recorder::with_capacity(16);
        {
            let _plan = rec.span("plan");
            {
                let mut convert = rec.span("convert");
                convert.counter("elements", 8.0);
            }
            drop(rec.span("kernel"));
        }
        rec.snapshot()
    }

    #[test]
    fn chrome_trace_has_matched_nested_events() {
        let spans = sample_spans();
        let json = chrome_trace_json(&spans);
        let doc: Value = serde_json::from_str(&json).expect("trace is valid JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), spans.len() * 2);
        // Walk the stream: every E must close the innermost open B.
        let mut stack: Vec<&str> = Vec::new();
        for e in events {
            let name = e["name"].as_str().unwrap();
            match e["ph"].as_str().unwrap() {
                "B" => stack.push(name),
                "E" => assert_eq!(stack.pop(), Some(name), "E closes innermost B"),
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(stack.is_empty(), "all B events closed");
        // The child opens inside its parent in stream order.
        let order: Vec<(&str, &str)> = events
            .iter()
            .map(|e| (e["ph"].as_str().unwrap(), e["name"].as_str().unwrap()))
            .collect();
        assert_eq!(order[0], ("B", "plan"));
        assert_eq!(order[1], ("B", "convert"));
        assert_eq!(order[2], ("E", "convert"));
        assert_eq!(*order.last().unwrap(), ("E", "plan"));
    }

    #[test]
    fn chrome_trace_counters_become_args() {
        let spans = sample_spans();
        let doc: Value = serde_json::from_str(&chrome_trace_json(&spans)).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        let end_convert = events
            .iter()
            .find(|e| {
                e["ph"].as_str() == Some("E") && e["name"].as_str() == Some("convert")
            })
            .unwrap();
        assert_eq!(end_convert["args"]["elements"].as_f64(), Some(8.0));
    }

    #[test]
    fn orphaned_children_become_roots() {
        // A child whose parent id is missing (evicted) must still export.
        let spans = vec![SpanRecord {
            id: 7,
            parent: Some(3),
            name: "orphan".into(),
            tid: 1,
            start_ns: 10,
            end_ns: 20,
            counters: vec![],
        }];
        let doc: Value = serde_json::from_str(&chrome_trace_json(&spans)).unwrap();
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn flamegraph_lines_sum_to_root_wall_time() {
        // execute [0,100] > plan [10,30] + chosen [30,90] > launch [40,80]
        let mk = |id, parent, name: &str, s, e| SpanRecord {
            id,
            parent,
            name: name.into(),
            tid: 1,
            start_ns: s,
            end_ns: e,
            counters: vec![],
        };
        let spans = vec![
            mk(1, None, "planner.execute", 0, 100),
            mk(2, Some(1), "planner.plan", 10, 30),
            mk(3, Some(1), "planner.chosen", 30, 90),
            mk(4, Some(3), "kernels.launch", 40, 80),
        ];
        let folded = flamegraph_folded(&spans);
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
    fn flamegraph_merges_identical_stacks_and_scrubs_frames() {
        let mk = |id, parent, name: &str, s, e| SpanRecord {
            id,
            parent,
            name: name.into(),
            tid: 1,
            start_ns: s,
            end_ns: e,
            counters: vec![],
        };
        let spans = vec![
            mk(1, None, "root", 0, 100),
            mk(2, Some(1), "strip; odd name", 0, 10),
            mk(3, Some(1), "strip; odd name", 10, 30),
        ];
        let folded = flamegraph_folded(&spans);
        // Two same-named children fold into one line with summed time,
        // and ';'/' ' in the name are scrubbed to keep the format parseable.
        assert!(folded.contains("tid1;root;strip__odd_name 30"), "{folded}");
        assert_eq!(
            folded.lines().filter(|l| l.contains("odd_name")).count(),
            1
        );
    }

    #[test]
    fn flamegraph_separates_thread_lanes() {
        let mk = |id, name: &str, tid, s, e| SpanRecord {
            id,
            parent: None,
            name: name.into(),
            tid,
            start_ns: s,
            end_ns: e,
            counters: vec![],
        };
        let spans = vec![
            mk(1, "planner.execute", 1, 0, 100),
            mk(2, "engine.farm.strip", 2, 10, 40),
            mk(3, "engine.farm.strip", 3, 10, 50),
        ];
        let folded = flamegraph_folded(&spans);
        assert!(folded.contains("tid1;planner.execute 100"));
        assert!(folded.contains("tid2;engine.farm.strip 30"));
        assert!(folded.contains("tid3;engine.farm.strip 40"));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let spans = vec![SpanRecord {
            id: 1,
            parent: None,
            name: "s".into(),
            tid: 1,
            start_ns: 1500,
            end_ns: 2500,
            counters: vec![],
        }];
        let doc: Value = serde_json::from_str(&chrome_trace_json(&spans)).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events[0]["ts"].as_f64(), Some(1.5));
        assert_eq!(events[1]["ts"].as_f64(), Some(2.5));
    }
}
