//! End-to-end smoke test of the `nmt-cli` binary: write a Matrix Market
//! file, then run every subcommand against it as a user would.

use spmm_nmt::formats::{strip_count, tile_count, Csr, SparseMatrix};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nmt-cli"))
}

fn demo_csr() -> Csr {
    spmm_nmt::matgen::generators::generate(&spmm_nmt::matgen::MatrixDesc::new(
        "demo",
        256,
        spmm_nmt::matgen::GenKind::RowBursts {
            density: 0.02,
            burst_len: 8,
        },
        3,
    ))
}

fn demo_matrix() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("nmt_cli_smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("demo.mtx");
    spmm_nmt::formats::market::write_market_file(&path, &demo_csr().to_coo()).expect("write mtx");
    path
}

#[test]
fn profile_subcommand() {
    let path = demo_matrix();
    let out = cli()
        .args(["profile", path.to_str().expect("utf8 path"), "--tile", "16"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SSF"), "missing SSF in: {text}");
    assert!(text.contains("recommendation"));
}

#[test]
fn convert_subcommand() {
    let path = demo_matrix();
    let out = cli()
        .args(["convert", path.to_str().expect("utf8 path"), "--tile", "16"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("comparator passes"));
    assert!(text.contains("energy"));
    // The counts the farm reports agree with the library's strip and
    // tile geometry and the matrix's nnz.
    let m = demo_csr();
    let strips = strip_count(m.shape().ncols, 16);
    let tiles = strips * tile_count(m.shape().nrows, 16);
    for line in [
        format!("strips           : {strips}"),
        format!("tiles            : {tiles}"),
        format!("elements         : {}", m.nnz()),
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "missing `{line}` in: {text}"
        );
    }
}

#[test]
fn spmm_subcommand_json() {
    let path = demo_matrix();
    let out = cli()
        .args([
            "spmm",
            path.to_str().expect("utf8 path"),
            "--k",
            "16",
            "--tile",
            "16",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert!(parsed["speedup"].as_f64().expect("speedup field") > 0.0);
    assert_eq!(parsed["nrows"].as_u64(), Some(256));
}

#[test]
fn audit_subcommand_text_json_and_metrics() {
    let path = demo_matrix();
    let metrics_path = std::env::temp_dir().join("nmt_cli_smoke/audit_metrics.json");
    let out = cli()
        .args([
            "audit",
            path.to_str().expect("utf8 path"),
            "--k",
            "16",
            "--tile",
            "16",
            "--metrics-json",
            metrics_path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "SSF",
        "decision",
        "oracle",
        "predicted B",
        "measured B",
        "rel err",
        "<- chosen",
        "c-stationary",
        "b-stationary-online",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in: {text}");
    }
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
    assert!(metrics.contains("audit.model.c_stationary.rel_err.mat_a"));
    assert!(metrics.contains("audit.decisions"));

    let out = cli()
        .args([
            "audit",
            path.to_str().expect("utf8 path"),
            "--k",
            "16",
            "--tile",
            "16",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert!(parsed["mispick_cost"].as_f64().expect("mispick_cost") >= 1.0);
    assert!(parsed["cstationary"]["validation"].as_array().is_some());
}

#[test]
fn bench_subcommand_writes_ledger_and_gates() {
    let dir = std::env::temp_dir().join("nmt_cli_smoke");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ledger_path = dir.join("BENCH_small.json");
    let out = cli()
        .args([
            "bench",
            "--scale",
            "small",
            "--out",
            ledger_path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("geomean"));
    let json = std::fs::read_to_string(&ledger_path).expect("ledger written");
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(
        parsed["schema_version"].as_u64(),
        Some(u64::from(spmm_nmt::bench::LEDGER_SCHEMA_VERSION))
    );
    assert!(
        parsed["summary"]["geomean_speedup"]
            .as_f64()
            .expect("geomean")
            > 0.0
    );

    // Gating against the ledger we just wrote passes...
    let out = cli()
        .args([
            "bench",
            "--scale",
            "small",
            "--baseline",
            ledger_path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("gate: PASS"));

    // ...and against a doctored faster baseline the gate fires.
    let doctored_path = dir.join("BENCH_doctored.json");
    let mut doctored = spmm_nmt::bench::Ledger::from_json(&json).expect("parse own ledger");
    doctored.summary.geomean_speedup *= 2.0;
    std::fs::write(&doctored_path, doctored.to_json()).expect("write doctored");
    let out = cli()
        .args([
            "bench",
            "--scale",
            "small",
            "--baseline",
            doctored_path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "gate must fail on regression");
    assert!(String::from_utf8_lossy(&out.stderr).contains("REGRESSION"));

    // An unknown scale is rejected loudly instead of demoted to small.
    let out = cli()
        .args(["bench", "--scale", "papr"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unrecognized scale"));
}

#[test]
fn suite_subcommand_and_errors() {
    let out = cli()
        .args(["suite", "--scale", "small"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("matrices at Small scale"));

    // Unknown command and missing file fail politely.
    let out = cli().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());
    let out = cli()
        .args(["profile", "/definitely/not/here.mtx"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let out = cli()
        .args([
            "convert",
            demo_matrix().to_str().expect("utf8"),
            "--tile",
            "65",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "tile > 64 must be rejected");
}

#[test]
fn unknown_and_retired_flags_are_rejected() {
    // Retired tolerance flags (and typos) fail before any work runs,
    // instead of silently running with the defaults.
    for (args, expected) in [
        (
            vec!["bench", "--alloc-margin", "2"],
            "unknown flag --alloc-margin for bench",
        ),
        (
            vec!["diff", "A.json", "B.json", "--diff-margin", "0.1"],
            "unknown flag --diff-margin for diff",
        ),
        (
            vec!["bench", "--perf-margn", "9"],
            "unknown flag --perf-margn for bench",
        ),
        (
            vec!["bench", "--progress"],
            "unknown flag --progress for bench",
        ),
    ] {
        let out = cli().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

#[test]
fn doctor_rejects_old_and_broken_bundles() {
    let dir = std::env::temp_dir().join(format!("nmt_cli_doctor_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let obs = spmm_nmt::obs::ObsContext::disabled();
    let current = spmm_nmt::obs::build_bundle("r", "m", &obs, None, None).to_json();
    let version = format!(
        "\"schema_version\": {}",
        spmm_nmt::obs::recorder::BUNDLE_SCHEMA_VERSION
    );
    assert!(current.contains(&version), "{current}");
    // A v1 bundle: the old version and v1's `dropped_spans` field.
    let v1 = current.replace(&version, "\"schema_version\": 1,\n  \"dropped_spans\": 0");
    let truncated = &current[..current.len() / 2];
    for (name, body, expected) in [
        ("v1.json", v1.as_str(), "bundle schema v1"),
        ("truncated.json", truncated, "malformed bundle"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("write bundle");
        let out = cli()
            .args(["doctor", path.to_str().expect("utf8 path")])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name} must be rejected");
        assert!(stderr.contains(expected), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
    // 40,000 open containers would overflow the main thread's stack in a
    // parser that recursed without a limit; an overflow aborts, so only
    // the real binary can show it does not happen.
    let dir = std::env::temp_dir().join(format!("nmt_cli_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let arrays = dir.join("arrays.json");
    std::fs::write(&arrays, "[".repeat(40_000)).expect("write arrays");
    let objects = dir.join("objects.jsonl");
    std::fs::write(&objects, "{\"a\":".repeat(40_000) + "\n").expect("write objects");
    let (arrays, objects) = (
        arrays.to_str().expect("utf8 path"),
        objects.to_str().expect("utf8 path"),
    );
    for (args, expected) in [
        (vec!["diff", arrays, arrays], "malformed ledger"),
        (vec!["doctor", arrays], "malformed bundle"),
        (vec!["serve", "--requests", objects], "trace line 1"),
    ] {
        let out = cli().args(&args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.code().is_some_and(|code| code != 0),
            "{args:?} must exit with an error code, not a signal: {:?}\n{stderr}",
            out.status
        );
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(
            stderr.contains("nesting deeper than 128 levels"),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
