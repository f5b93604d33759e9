//! Flight recorder + crash diagnostics end-to-end: a panic injected in
//! the middle of faulted parallel work leaves an `nmt-diag-*.json`
//! bundle that `nmt-cli doctor` turns into a post-mortem naming the
//! fault site, the strip, and the thread; a panic inside an
//! uninstrumented span names that span; recorded event *content*, span
//! events included, is identical at 1 and 4 threads; and `nmt-cli diff` on the committed
//! baseline vs a doctored copy flags exactly the doctored
//! matrices/phases — and nothing else.

use rayon::prelude::*;
use spmm_nmt::bench::{DiffReport, Ledger};
use spmm_nmt::fault::FaultPlan;
use spmm_nmt::formats::SparseMatrix;
use spmm_nmt::matgen::{random_dense, SuiteScale, SuiteSpec};
use spmm_nmt::obs::{
    install_diagnostics, uninstall_diagnostics, DiagScope, DiagnosticsBundle, EventSite,
    ObsContext,
};
use spmm_nmt::planner::planner::{PlannerConfig, SpmmPlanner};
use std::path::{Path, PathBuf};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nmt-cli"))
}

/// Re-point the global pool (the shim allows overriding, unlike real
/// rayon) and run `f` under exactly `n` workers.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim pool re-points");
    f()
}

/// Bundle files written under `dir`, oldest first.
fn bundle_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("diag dir readable")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("nmt-diag-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

// One test function on purpose for everything that touches process-wide
// state (the global rayon pool, the panic hook): the test harness runs
// sibling tests concurrently.
#[test]
fn panic_bundle_doctor_and_thread_invariant_event_content() {
    // --- 1. Panic during faulted parallel work → doctorable bundle. ---
    // Silence the default hook BEFORE arming diagnostics: the diagnostics
    // hook chains to whatever was installed, and eight workers' panic
    // backtraces would drown the test output.
    std::panic::set_hook(Box::new(|_| {}));
    let dir = std::env::temp_dir().join(format!("nmt-diag-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("diag dir");
    install_diagnostics(&dir, &ObsContext::disabled(), Some(0xFA117), Some(300_000));

    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        with_threads(4, || {
            let strips: Vec<u64> = (0..8).collect();
            strips.par_iter().for_each(|&strip| {
                // Mirrors the farm's per-matrix wiring: scoped context,
                // per-strip events, a fault event right before the blast.
                let obs = ObsContext::disabled();
                let _scope = DiagScope::enter("rmat-crash", &obs);
                obs.flight.record(EventSite::FarmStrip, 0, strip, 0);
                if strip == 5 {
                    obs.flight
                        .record(EventSite::FaultConvertStrip, 2, strip, 0xFA117);
                    panic!("injected crash at strip 5");
                }
            });
        });
    }));
    assert!(crashed.is_err(), "the injected panic must propagate");
    uninstall_diagnostics();

    let files = bundle_files(&dir);
    assert!(!files.is_empty(), "panic hook must write at least one bundle");
    // The worker-thread bundle is the one that saw the fault event.
    let bundle = files
        .iter()
        .map(|p| {
            let json = std::fs::read_to_string(p).expect("bundle readable");
            (p.clone(), DiagnosticsBundle::from_json(&json).expect("parses"))
        })
        .find(|(_, b)| b.last_fault_event().is_some())
        .expect("one bundle carries the fault event");
    let (bundle_path, bundle) = bundle;
    assert_eq!(bundle.matrix, "rmat-crash", "DiagScope names the matrix");
    assert!(
        bundle.reason.contains("injected crash at strip 5"),
        "reason carries the panic message: {}",
        bundle.reason
    );
    assert_eq!(bundle.fault_seed, Some(0xFA117));
    assert_eq!(bundle.fault_rate_ppm, Some(300_000));
    let fault = bundle.last_fault_event().expect("fault event present");
    assert_eq!(fault.site, EventSite::FaultConvertStrip);
    assert_eq!(fault.a, 5, "the faulting strip is named");
    assert!(fault.tid > 0, "the faulting thread is named");
    let post = bundle.render_postmortem();
    assert!(
        post.contains("fault site fault-convert-strip at strip 5"),
        "post-mortem names site + strip: {post}"
    );
    assert!(post.contains(&format!("on thread {}", fault.tid)));

    // The real `nmt-cli doctor` renders the same post-mortem.
    let out = cli()
        .args(["doctor", bundle_path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn doctor");
    assert!(
        out.status.success(),
        "doctor stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rmat-crash"), "{text}");
    assert!(text.contains("fault site fault-convert-strip at strip 5"), "{text}");
    assert!(text.contains("seed=0xfa117"), "{text}");

    // --- 1b. A disabled context still names its open spans. ---
    // The sweep runs `planner.explain` under a disabled context and a
    // DiagScope; a panic inside that span must name it in the bundle.
    install_diagnostics(&dir, &ObsContext::disabled(), None, None);
    let before = bundle_files(&dir).len();
    let crashed = std::panic::catch_unwind(|| {
        let obs = ObsContext::disabled();
        let _scope = DiagScope::enter("explain-crash", &obs);
        let _explain = obs.span("planner.explain");
        panic!("injected crash inside planner.explain");
    });
    assert!(crashed.is_err());
    uninstall_diagnostics();
    let files = bundle_files(&dir);
    assert_eq!(files.len(), before + 1, "one bundle for the one panic");
    let bundle = files
        .iter()
        .map(|p| DiagnosticsBundle::from_json(&std::fs::read_to_string(p).expect("readable")))
        .map(|b| b.expect("parses"))
        .find(|b| b.matrix == "explain-crash")
        .expect("the explain bundle");
    assert!(
        bundle.active_spans.iter().any(|s| s == "planner.explain"),
        "{:?}",
        bundle.active_spans
    );
    let post = bundle.render_postmortem();
    assert!(post.contains("active spans: planner.explain"), "{post}");
    assert!(!post.contains("dropped"), "no ring wrapped: {post}");

    // --- 2. Event content is thread-count invariant. ---
    // Sweep a slice of the quick suite through the faulted planner with
    // a shared recorder at 1 and at 4 threads: timestamps and tids move,
    // the content-ordered (site, code, a, b) stream must not — with span
    // events (an enabled context, allocation counting off) and without.
    let plan = FaultPlan::new(0xFA117, 300_000);
    let sweep_content = |threads: usize, obs: ObsContext| -> Vec<(String, u32, u64, u64)> {
        with_threads(threads, || {
            let config = PlannerConfig::test_small().with_fault(Some(plan));
            let suite: Vec<_> = SuiteSpec::quick(31).build().into_iter().take(4).collect();
            suite.par_iter().for_each(|(desc, a)| {
                let b = random_dense(a.shape().ncols, 8, desc.seed ^ 0x16);
                SpmmPlanner::new(config.clone())
                    .explain(&desc.name, a, &b, &obs)
                    .expect("faulted audit completes");
            });
            assert_eq!(obs.flight.dropped(), 0, "slice must fit the ring");
            obs.flight
                .snapshot()
                .iter()
                .map(|e| (e.site.name().to_string(), e.code, e.a, e.b))
                .collect()
        })
    };
    let serial = sweep_content(1, ObsContext::disabled());
    let parallel = sweep_content(4, ObsContext::disabled());
    assert!(!serial.is_empty(), "planner and farm must emit events");
    assert_eq!(
        serial, parallel,
        "event content must be identical at 1 vs 4 threads"
    );
    assert!(!spmm_nmt::obs::alloc::counting_enabled());
    let serial = sweep_content(1, ObsContext::enabled());
    let parallel = sweep_content(4, ObsContext::enabled());
    assert!(
        serial.iter().any(|(site, ..)| site == "span-end"),
        "an enabled context records span events"
    );
    assert_eq!(
        serial, parallel,
        "event content, span events included, must be identical at 1 vs 4 threads"
    );

    // --- 3. The instrumented sweep (DiagScope + sweep events + error-row
    // harvesting in the closure) stays byte-identical across thread
    // counts, clean and faulted. ---
    let faulted_1 = with_threads(1, || {
        spmm_nmt::bench::sweep_ledger(spmm_nmt::bench::Sweep {
            fault: Some(plan),
            ..SuiteScale::Small.into()
        })
        .expect("sweeps")
    });
    let faulted_4 = with_threads(4, || {
        spmm_nmt::bench::sweep_ledger(spmm_nmt::bench::Sweep {
            fault: Some(plan),
            ..SuiteScale::Small.into()
        })
        .expect("sweeps")
    });
    assert_eq!(
        faulted_1.to_json(),
        faulted_4.to_json(),
        "faulted ledger bytes must not depend on the schedule"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::panic::take_hook();
}

/// `nmt-cli diff` on the committed baseline vs a doctored copy reports
/// exactly the doctored (matrix, phase) pairs as CI-significant
/// regressions — and nothing else — in both text and `--json` modes.
#[test]
fn diff_flags_exactly_the_doctored_matrices_and_phases() {
    let baseline_path = "results/BENCH_small.json";
    let json = std::fs::read_to_string(baseline_path).expect("committed baseline readable");
    let baseline = Ledger::from_json(&json).expect("baseline parses");
    let perf = baseline.perf.as_ref().expect("committed baseline has perf");
    assert!(perf.matrices.len() >= 2, "need two matrices to doctor");

    // Doctor matrix 0's kernel phase and matrix 1's total, x1000 each.
    let mut doctored = baseline.clone();
    let (m0_name, m1_name);
    {
        let perf = doctored.perf.as_mut().expect("perf present");
        let m0 = &mut perf.matrices[0];
        m0_name = m0.matrix.clone();
        let kernel = m0
            .phases
            .iter_mut()
            .find(|p| p.phase == "kernel")
            .expect("kernel phase present");
        kernel.median_ns *= 1000.0;
        kernel.ci_lo_ns *= 1000.0;
        kernel.ci_hi_ns *= 1000.0;
        let m1 = &mut perf.matrices[1];
        m1_name = m1.matrix.clone();
        m1.total_median_ns *= 1000.0;
        m1.total_ci_lo_ns *= 1000.0;
        m1.total_ci_hi_ns *= 1000.0;
    }
    let dir = std::env::temp_dir().join(format!("nmt-diff-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let doctored_path = dir.join("doctored.json");
    std::fs::write(&doctored_path, doctored.to_json()).expect("write doctored");

    // JSON mode: exactly the doctored pairs, machine-checkable.
    let out = cli()
        .args([
            "diff",
            baseline_path,
            doctored_path.to_str().expect("utf8 path"),
            "--json",
        ])
        .output()
        .expect("spawn diff");
    assert!(
        out.status.success(),
        "diff stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: DiffReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("diff JSON parses");
    let mut flagged: Vec<(String, String)> = report
        .perf_regressions
        .iter()
        .map(|f| (f.matrix.clone(), f.phase.clone()))
        .collect();
    flagged.sort();
    let mut expected = vec![
        (m0_name.clone(), "kernel".to_string()),
        (m1_name.clone(), "total".to_string()),
    ];
    expected.sort();
    assert_eq!(flagged, expected, "exactly the doctored pairs flag");
    assert!(
        report.perf_improvements.is_empty(),
        "nothing got faster: {:?}",
        report.perf_improvements
    );
    assert!(report.identity_notes.is_empty(), "same suite identity");
    // Functional rows were untouched, so the geomean did not move.
    assert!((report.geomean.ratio - 1.0).abs() < 1e-12);

    // Text mode names the same pairs, and only them.
    let out = cli()
        .args([
            "diff",
            baseline_path,
            doctored_path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn diff");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.matches("REGRESSED").count(),
        2,
        "two regression lines: {text}"
    );
    assert!(text.contains(&m0_name), "{text}");
    assert!(text.contains(&m1_name), "{text}");

    // Control: a self-diff flags nothing — a median always sits inside
    // its own bootstrap CI.
    let out = cli()
        .args(["diff", baseline_path, baseline_path, "--json"])
        .output()
        .expect("spawn diff");
    assert!(out.status.success());
    let clean: DiffReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("parses");
    assert!(clean.perf_regressions.is_empty());
    assert!(clean.perf_improvements.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}
