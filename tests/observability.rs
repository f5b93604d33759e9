//! End-to-end observability acceptance: a planner run with an enabled
//! [`ObsContext`] must yield (a) a Chrome trace with nested
//! plan → convert → kernel spans and (b) a metrics snapshot carrying the
//! engine prefetch hit rate, comparator occupancy, per-traffic-class
//! bytes, and per-phase wall clock — both in-process and through the CLI
//! `--trace-out` / `--metrics-json` flags.

use spmm_nmt::fault::FaultPlan;
use spmm_nmt::formats::SparseMatrix;
use spmm_nmt::matgen::{generators, random_dense, GenKind, MatrixDesc};
use spmm_nmt::model::ssf::SsfThreshold;
use spmm_nmt::obs::{chrome_trace_json, flamegraph_folded, ObsContext, Profiler};
use spmm_nmt::planner::planner::{Algorithm, PlannerConfig, SpmmPlanner};
use std::collections::BTreeSet;
use std::process::Command;

fn bstationary_planner() -> SpmmPlanner {
    let mut cfg = PlannerConfig::test_small();
    // Force the online path: it exercises the engine, the prefetch
    // pipeline, and the kernel launch in one run.
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

#[test]
fn planner_run_produces_nested_trace_and_acceptance_metrics() {
    let (a, b) = demo_inputs();
    let obs = ObsContext::enabled();
    let report = bstationary_planner()
        .execute_with_obs(&a, &b, &obs)
        .expect("planner runs");
    assert_eq!(report.algorithm, Algorithm::BStationaryOnline);

    // --- Span hierarchy: plan/convert/kernel nested under the root. ---
    let spans = obs.recorder.snapshot();
    let find = |n: &str| {
        spans
            .iter()
            .find(|s| s.name == n)
            .unwrap_or_else(|| panic!("missing span {n}"))
    };
    let root = find("planner.execute");
    let plan = find("planner.plan");
    let chosen = find("planner.chosen");
    let convert = find("engine.convert");
    let launch = find("kernels.launch");
    assert_eq!(root.parent, None);
    assert_eq!(plan.parent, Some(root.id));
    assert_eq!(chosen.parent, Some(root.id));
    assert_eq!(convert.parent, Some(chosen.id));
    assert_eq!(launch.parent, Some(chosen.id));
    for s in [plan, chosen, convert, launch] {
        assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
    }

    // --- Chrome trace: valid JSON, every B has a matching E. ---
    let trace: serde_json::Value =
        serde_json::from_str(&chrome_trace_json(&spans)).expect("trace is valid JSON");
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    let mut stack: Vec<&str> = Vec::new();
    let mut seen = Vec::new();
    for ev in events {
        let name = ev["name"].as_str().expect("name");
        match ev["ph"].as_str().expect("ph") {
            "B" => {
                stack.push(name);
                seen.push(name);
            }
            "E" => assert_eq!(stack.pop(), Some(name), "unbalanced E for {name}"),
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(stack.is_empty(), "unmatched B events: {stack:?}");
    assert!(seen.contains(&"planner.plan"));
    assert!(seen.contains(&"engine.convert"));
    assert!(seen.contains(&"kernels.launch"));

    // --- Metrics: the acceptance keys, with sane values. ---
    let m = &obs.metrics;
    let hit_rate = m
        .gauge("engine.pipeline.prefetch_hit_rate")
        .expect("prefetch hit rate");
    assert!((0.0..=1.0).contains(&hit_rate));
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
    for phase in ["plan", "baseline", "chosen"] {
        let g = m
            .gauge(&format!("planner.phase.{phase}_ns"))
            .unwrap_or_else(|| panic!("missing planner.phase.{phase}_ns"));
        assert!(g >= 0.0);
    }
    assert_eq!(
        m.counter("engine.convert.elements"),
        a.nnz() as u64,
        "engine converted every nonzero exactly once"
    );
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
    let spans = obs.recorder.snapshot();

    // --- Chrome export re-parses and preserves the span forest. ---
    let trace: serde_json::Value =
        serde_json::from_str(&chrome_trace_json(&spans)).expect("trace is valid JSON");
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    // Per-lane begin/end balance: nesting must hold within each thread.
    let mut stacks: std::collections::BTreeMap<u64, Vec<&str>> = std::collections::BTreeMap::new();
    let mut event_tids = BTreeSet::new();
    for ev in events {
        let tid = ev["tid"].as_u64().expect("tid");
        event_tids.insert(tid);
        let name = ev["name"].as_str().expect("name");
        let lane = stacks.entry(tid).or_default();
        match ev["ph"].as_str().expect("ph") {
            "B" => lane.push(name),
            "E" => assert_eq!(lane.pop(), Some(name), "unbalanced E on lane {tid}"),
            other => panic!("unexpected phase {other}"),
        }
    }
    for (tid, lane) in &stacks {
        assert!(lane.is_empty(), "unmatched B events on lane {tid}: {lane:?}");
    }
    // Thread lanes survive the export: exactly the recorded tids appear.
    let span_tids: BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    assert_eq!(event_tids, span_tids, "trace lanes must mirror span tids");

    // --- Folded stacks partition the recorded time exactly. ---
    let folded = flamegraph_folded(&spans);
    let mut by_lane_folded: std::collections::BTreeMap<&str, u64> =
        std::collections::BTreeMap::new();
    for line in folded.lines() {
        let (stack, ns) = parse_folded(line);
        let lane = stack.split(';').next().expect("lane frame");
        *by_lane_folded.entry(lane).or_default() += ns;
    }
    // Every lane's folded total equals that lane's root wall time: self
    // times are a partition of each root span.
    for &tid in stacks.keys() {
        let root_ns: u64 = spans
            .iter()
            .filter(|s| s.tid == tid && s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
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
    Profiler::analyze(&obs.recorder.snapshot()).publish(&obs.metrics);

    let snap = obs.metrics.snapshot();
    assert!(
        snap.counters.get("fault.injected").is_some_and(|&n| n > 0),
        "the seeded plan must actually fire: {:?}",
        snap.counters
    );
    for gauge in ["perf.window_ns", "perf.phase.kernel.self_ns", "perf.workers"] {
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
    assert!(metrics["gauges"].get("planner.phase.chosen_ns").is_some());
    if record["algorithm"].as_str() == Some("bstat-online") {
        assert!(metrics["gauges"]
            .get("engine.pipeline.prefetch_hit_rate")
            .is_some());
        assert!(metrics["gauges"]
            .get("engine.comparator.occupancy")
            .is_some());
    }

    // --json embedded the flattened metrics in the run record.
    let embedded = record["metrics"]
        .as_object()
        .expect("metrics embedded in --json record");
    assert!(embedded.iter().any(|(k, _)| k == "planner.phase.plan_ns"));
}
