//! End-to-end observability acceptance: a planner run with an enabled
//! [`ObsContext`] must yield (a) a Chrome trace with nested
//! plan → convert → kernel spans, whose plan/baseline/chosen phases are the
//! per-phase wall clock, and (b) a metrics snapshot carrying the engine's
//! comparator occupancy and converted elements and per-traffic-class
//! bytes — both in-process and through the CLI `--trace-out` /
//! `--metrics-json` flags.

use spmm_nmt::fault::FaultPlan;
use spmm_nmt::formats::SparseMatrix;
use spmm_nmt::matgen::{generators, random_dense, GenKind, MatrixDesc, SuiteSpec};
use spmm_nmt::model::ssf::SsfThreshold;
use spmm_nmt::obs::span::{walk, Step};
use spmm_nmt::obs::{
    chrome_trace_json, flamegraph_folded, Event, ObsContext, Profiler, SpanRecord,
};
use spmm_nmt::planner::planner::{Algorithm, PlanReport, PlannerConfig, SpmmPlanner};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

fn bstationary_planner() -> SpmmPlanner {
    let mut cfg = PlannerConfig::test_small();
    // Force the online path: it exercises the engine's conversion farm
    // and the kernel launch in one run.
    cfg.threshold = SsfThreshold {
        threshold: -1.0,
        accuracy: 1.0,
    };
    SpmmPlanner::new(cfg)
}

fn demo_inputs() -> (spmm_nmt::formats::Csr, spmm_nmt::formats::DenseMatrix) {
    let a = generators::generate(&MatrixDesc::new(
        "obs",
        192,
        GenKind::ZipfRows {
            density: 0.02,
            exponent: 1.1,
        },
        41,
    ));
    let b = random_dense(192, 16, 42);
    (a, b)
}

/// Every completed span with the names enclosing it, outermost first.
fn spans_with_paths(lanes: &[Vec<Event>]) -> Vec<(SpanRecord, Vec<&'static str>)> {
    let mut spans = Vec::new();
    walk(lanes, |step| {
        if let Step::End { span, path } = step {
            spans.push((span, path.to_vec()));
        }
    });
    spans
}

#[test]
fn planner_run_produces_nested_trace_and_acceptance_metrics() {
    let (a, b) = demo_inputs();
    let obs = ObsContext::enabled();
    let report = bstationary_planner()
        .execute_with_obs(&a, &b, &obs)
        .expect("planner runs");
    assert_eq!(report.algorithm, Algorithm::BStationaryOnline);

    // --- Span hierarchy: plan/convert/kernel nested under the root. ---
    let lanes = obs.flight.lanes();
    let spans = spans_with_paths(&lanes);
    let find = |n: &str| {
        spans
            .iter()
            .find(|(s, _)| s.name == n)
            .unwrap_or_else(|| panic!("missing span {n}"))
    };
    let (root, root_path) = find("planner.execute");
    assert!(root_path.is_empty());
    for (name, parents) in [
        ("planner.plan", &["planner.execute"][..]),
        ("planner.chosen", &["planner.execute"][..]),
        ("engine.convert", &["planner.execute", "planner.chosen"][..]),
        ("kernels.launch", &["planner.execute", "planner.chosen"][..]),
    ] {
        let (s, path) = find(name);
        assert_eq!(path, parents, "{name}");
        assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
    }

    // --- Chrome trace: valid JSON, every B has a matching E. ---
    let trace: serde_json::Value =
        serde_json::from_str(&chrome_trace_json(&lanes)).expect("trace is valid JSON");
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    let mut stacks: std::collections::BTreeMap<u64, Vec<&str>> = std::collections::BTreeMap::new();
    let mut seen = Vec::new();
    for ev in events {
        let name = ev["name"].as_str().expect("name");
        let stack = stacks.entry(ev["tid"].as_u64().expect("tid")).or_default();
        match ev["ph"].as_str().expect("ph") {
            "B" => {
                stack.push(name);
                seen.push(name);
            }
            "E" => assert_eq!(stack.pop(), Some(name), "unbalanced E for {name}"),
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(
        stacks.values().all(Vec::is_empty),
        "unmatched B events: {stacks:?}"
    );
    assert!(seen.contains(&"planner.plan"));
    assert!(seen.contains(&"engine.convert"));
    assert!(seen.contains(&"kernels.launch"));

    // --- Metrics: the acceptance keys, with sane values. ---
    let m = &obs.metrics;
    // Every comparator pass emits one DCSR row or closes one tile.
    assert_eq!(
        m.counter("engine.comparator.passes"),
        m.counter("engine.convert.rows_emitted") + m.counter("engine.convert.tiles")
    );
    let occupancy = m
        .gauge("engine.comparator.occupancy")
        .expect("comparator occupancy");
    assert!(occupancy > 0.0 && occupancy <= 1.0);
    for class in ["mat_a", "mat_b", "mat_c", "engine", "other"] {
        let key = format!("kernels.chosen.dram_bytes.{class}");
        // Key must exist (zero is fine for classes the kernel never touches).
        let _ = m.counter(&key);
    }
    assert!(m.counter("kernels.chosen.dram_bytes.mat_a") > 0);
    assert!(m.counter("kernels.baseline.dram_bytes.mat_a") > 0);
    // Per-phase wall clock is the phase spans, which partition no more
    // than the root's time.
    let mut phases_ns = 0;
    for phase in ["plan", "baseline", "chosen"] {
        let (s, _) = find(&format!("planner.{phase}"));
        assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
        phases_ns += s.end_ns - s.start_ns;
    }
    assert!(phases_ns <= root.end_ns - root.start_ns);
    assert_eq!(
        m.counter("engine.convert.elements"),
        a.nnz() as u64,
        "engine converted every nonzero exactly once"
    );
}

/// What a run leaves behind apart from its span events: the flattened
/// metrics and the content keys of every other flight event, in content
/// order.
type Observed = (BTreeMap<String, f64>, Vec<(u32, u32, u64, u64)>);

fn observed(obs: &ObsContext) -> Observed {
    let events = obs
        .flight
        .snapshot()
        .iter()
        .filter(|e| !e.site.is_span())
        .map(Event::content_key)
        .collect();
    (obs.metrics.snapshot().flat(), events)
}

/// A report by bits: its `Debug` form prints every float in shortest
/// round-trip form, and C is compared element by element.
fn report_bits(r: &PlanReport) -> (String, Vec<u32>) {
    let c = r.c.as_slice().iter().map(|v| v.to_bits()).collect();
    (format!("{r:?}"), c)
}

#[test]
fn observing_a_run_changes_only_its_span_events() {
    let planner = SpmmPlanner::new(PlannerConfig::test_small());
    for (desc, a) in SuiteSpec::quick(29).build().iter() {
        let b = random_dense(a.shape().ncols, 8, desc.seed ^ 0x16);
        let (on, off) = (ObsContext::enabled(), ObsContext::disabled());
        let audit_on = planner.explain(&desc.name, a, &b, &on).expect("audit runs");
        let audit_off = planner
            .explain(&desc.name, a, &b, &off)
            .expect("audit runs");
        assert_eq!(audit_on, audit_off, "{}: audit", desc.name);
        assert_eq!(observed(&on), observed(&off), "{}: explain", desc.name);

        let (on, off) = (ObsContext::enabled(), ObsContext::disabled());
        let report_on = planner.execute_with_obs(a, &b, &on).expect("runs");
        let report_off = planner.execute_with_obs(a, &b, &off).expect("runs");
        assert_eq!(
            report_bits(&report_on),
            report_bits(&report_off),
            "{}: report",
            desc.name
        );
        assert_eq!(observed(&on), observed(&off), "{}: execute", desc.name);
        assert!(on.flight.snapshot().iter().any(|e| e.site.is_span()));
    }
}

/// Split one folded-flamegraph line into (stack, self_ns).
fn parse_folded(line: &str) -> (&str, u64) {
    let (stack, ns) = line.rsplit_once(' ').expect("folded line has a count");
    (stack, ns.parse().expect("count is integral ns"))
}

#[test]
fn trace_round_trips_nesting_lanes_and_flamegraph_totals() {
    let (a, b) = demo_inputs();
    let obs = ObsContext::enabled();
    bstationary_planner()
        .execute_with_obs(&a, &b, &obs)
        .expect("planner runs");
    let lanes = obs.flight.lanes();
    let spans = spans_with_paths(&lanes);

    // --- Chrome export re-parses and preserves the span forest. ---
    let trace: serde_json::Value =
        serde_json::from_str(&chrome_trace_json(&lanes)).expect("trace is valid JSON");
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    // Per-lane begin/end balance: nesting must hold within each thread.
    let mut stacks: std::collections::BTreeMap<u64, Vec<&str>> = std::collections::BTreeMap::new();
    let mut span_event_tids = BTreeSet::new();
    let mut instants = 0;
    for ev in events {
        let tid = ev["tid"].as_u64().expect("tid");
        let name = ev["name"].as_str().expect("name");
        let lane = stacks.entry(tid).or_default();
        match ev["ph"].as_str().expect("ph") {
            "B" => lane.push(name),
            "E" => assert_eq!(lane.pop(), Some(name), "unbalanced E on lane {tid}"),
            "i" => {
                instants += 1;
                continue;
            }
            other => panic!("unexpected phase {other}"),
        }
        span_event_tids.insert(tid);
    }
    for (tid, lane) in &stacks {
        assert!(
            lane.is_empty(),
            "unmatched B events on lane {tid}: {lane:?}"
        );
    }
    // The other flight events ride along as instants.
    assert!(instants > 0, "flight events export as instants");
    // Thread lanes survive the export: exactly the recorded tids appear.
    let span_tids: BTreeSet<u64> = spans.iter().map(|(s, _)| s.tid).collect();
    assert_eq!(
        span_event_tids, span_tids,
        "trace lanes must mirror span tids"
    );

    // --- Folded stacks partition the recorded time exactly. ---
    let folded = flamegraph_folded(&lanes);
    let mut by_lane_folded: std::collections::BTreeMap<&str, u64> =
        std::collections::BTreeMap::new();
    for line in folded.lines() {
        let (stack, ns) = parse_folded(line);
        let lane = stack.split(';').next().expect("lane frame");
        *by_lane_folded.entry(lane).or_default() += ns;
    }
    // Every lane's folded total equals that lane's root wall time: self
    // times are a partition of each root span.
    for &tid in &span_tids {
        let root_ns: u64 = spans
            .iter()
            .filter(|(s, path)| s.tid == tid && path.is_empty())
            .map(|(s, _)| s.end_ns - s.start_ns)
            .sum();
        let lane = format!("tid{tid}");
        assert_eq!(
            by_lane_folded.get(lane.as_str()).copied().unwrap_or(0),
            root_ns,
            "folded lines on {lane} must sum to its root wall time"
        );
    }
    assert!(
        folded.lines().any(|l| l.contains("planner.execute;")),
        "nested frames keep their path"
    );
}

#[test]
fn metrics_snapshot_holds_fault_counters_and_perf_gauges() {
    let (a, b) = demo_inputs();
    let obs = ObsContext::enabled();
    let mut cfg = PlannerConfig::test_small();
    cfg.threshold = SsfThreshold {
        threshold: -1.0,
        accuracy: 1.0,
    };
    // Seeded faults at a rate high enough that the conversion farm
    // records injections (deterministic: same seed, same faults).
    cfg.fault = Some(FaultPlan::from_rate(0xFA, 0.25));
    SpmmPlanner::new(cfg)
        .execute_with_obs(&a, &b, &obs)
        .expect("faults are absorbed by retry/fallback");

    // Fold the span tree into per-phase gauges alongside the counters.
    Profiler::analyze(&obs.flight.lanes()).publish(&obs.metrics);

    let snap = obs.metrics.snapshot();
    assert!(
        snap.counters.get("fault.injected").is_some_and(|&n| n > 0),
        "the seeded plan must actually fire: {:?}",
        snap.counters
    );
    for gauge in [
        "perf.window_ns",
        "perf.phase.kernel.self_ns",
        "perf.workers",
    ] {
        assert!(
            snap.gauges.contains_key(gauge),
            "missing gauge {gauge} in {:?}",
            snap.gauges.keys().collect::<Vec<_>>()
        );
    }
}

#[test]
fn cli_writes_trace_and_metrics_artifacts() {
    let dir = std::env::temp_dir().join("nmt_obs_artifacts");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mtx = dir.join("obs_demo.mtx");
    let (a, _) = demo_inputs();
    spmm_nmt::formats::market::write_market_file(&mtx, &a.to_coo()).expect("write mtx");
    let trace_path = dir.join("trace.json");
    let flame_path = dir.join("flame.folded");
    let metrics_path = dir.join("metrics.json");

    let out = Command::new(env!("CARGO_BIN_EXE_nmt-cli"))
        .args([
            "spmm",
            mtx.to_str().expect("utf8"),
            "--k",
            "16",
            "--tile",
            "16",
            "--json",
            "--trace-out",
            trace_path.to_str().expect("utf8"),
            "--flame-out",
            flame_path.to_str().expect("utf8"),
            "--metrics-json",
            metrics_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace artifact loads as Chrome trace JSON with our spans.
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).expect("trace file"))
            .expect("trace parses");
    let names: Vec<&str> = trace["traceEvents"]
        .as_array()
        .expect("traceEvents")
        .iter()
        .filter(|e| e["ph"].as_str() == Some("B"))
        .map(|e| e["name"].as_str().expect("name"))
        .collect();
    assert!(names.contains(&"planner.execute"));
    assert!(names.contains(&"planner.plan"));
    assert!(names.iter().any(|n| n.starts_with("engine.convert")));
    assert!(names.contains(&"kernels.launch"));

    // The folded-stack artifact from the same run: every line is
    // `lane;frames… <ns>`, and the grand total matches the root spans'
    // wall time as reported by the Chrome trace's B/E timestamps.
    let folded = std::fs::read_to_string(&flame_path).expect("flame file");
    let mut folded_total = 0u64;
    for line in folded.lines() {
        let (stack, ns) = parse_folded(line);
        assert!(stack.starts_with("tid"), "lane-prefixed stack: {line}");
        folded_total += ns;
    }
    let mut root_total = 0u64;
    let mut depth_by_tid: std::collections::BTreeMap<u64, (i64, u64)> =
        std::collections::BTreeMap::new();
    for ev in trace["traceEvents"].as_array().expect("traceEvents") {
        let tid = ev["tid"].as_u64().expect("tid");
        let ts = ev["ts"].as_f64().expect("ts");
        let entry = depth_by_tid.entry(tid).or_insert((0, 0));
        match ev["ph"].as_str().expect("ph") {
            "i" => {}
            "B" => {
                if entry.0 == 0 {
                    entry.1 = (ts * 1e3).round() as u64;
                }
                entry.0 += 1;
            }
            "E" => {
                entry.0 -= 1;
                if entry.0 == 0 {
                    root_total += (ts * 1e3).round() as u64 - entry.1;
                }
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(
        folded_total, root_total,
        "folded stacks must partition the traced wall time"
    );

    // The metrics artifact carries counters/gauges/histograms. The
    // engine-specific gauges only exist when the planner routed the matrix
    // to the online path, so gate those on the reported algorithm.
    let record: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("record parses");
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).expect("metrics file"))
            .expect("metrics parse");
    assert!(metrics["counters"]
        .get("kernels.chosen.dram_bytes.mat_a")
        .and_then(serde_json::Value::as_u64)
        .is_some());
    assert!(metrics["gauges"].get("kernels.chosen.total_ns").is_some());
    if record["algorithm"].as_str() == Some("bstat-online") {
        assert!(metrics["counters"]
            .get("engine.convert.elements")
            .and_then(serde_json::Value::as_u64)
            .is_some());
        assert!(metrics["gauges"]
            .get("engine.comparator.occupancy")
            .is_some());
    }

    // --json embedded the flattened metrics in the run record.
    let embedded = record["metrics"]
        .as_object()
        .expect("metrics embedded in --json record");
    assert!(embedded.iter().any(|(k, _)| k == "kernels.chosen.total_ns"));
}
