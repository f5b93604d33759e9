//! `nmt-cli` — command-line front end for the near-memory-transform SpMM
//! system: profile Matrix Market files, run the conversion engine, and
//! simulate auto-tuned SpMM.
//!
//! `nmt-cli help` prints the synopsis of every subcommand ([`USAGE`]).
//!
//! Each subcommand rejects any `--flag` it does not read ([`FLAGS`]).

use spmm_nmt::bench::{
    append_history, diff_ledgers, load_history, parse_scale, render_history, sweep_ledger,
    BenchConfig, HistoryRecord, Ledger, ServeRun, Sweep, EXPERIMENT_SEED,
};
use spmm_nmt::fault::FaultPlan;
use spmm_nmt::engine::{conversion_energy_pj, convert_matrix, ComparatorTree, EngineTiming};
use spmm_nmt::formats::{market, Csr, Dcsr, SparseMatrix, StorageSize, TiledDcsr};
use spmm_nmt::matgen::{random_dense, SuiteScale, SuiteSpec};
use spmm_nmt::model::ssf::SsfProfile;
use spmm_nmt::obs::{
    diagnostics_installed, install_diagnostics, write_bundle_now, write_chrome_trace,
    write_flamegraph, DiagnosticsBundle, ObsContext,
};
use spmm_nmt::planner::planner::{PlannerConfig, SpmmPlanner};
use spmm_nmt::planner::DEFAULT_SSF_THRESHOLD;
use std::process::ExitCode;

/// Count allocations per span: the obs layer's [`AllocScope`] reads the
/// thread-local counters this allocator maintains, so `--perf` ledgers
/// and span counters carry real `alloc.count` / `alloc.bytes` numbers.
/// The counters are gated on an atomic and cost two relaxed thread-local
/// adds when enabled, nothing else changes — allocation still goes
/// straight to the system allocator.
///
/// [`AllocScope`]: spmm_nmt::obs::AllocScope
#[global_allocator]
static ALLOC: spmm_nmt::obs::CountingAlloc = spmm_nmt::obs::CountingAlloc;

fn main() -> ExitCode {
    // Die quietly on a closed pipe (`nmt-cli suite | head`), like other
    // Unix CLI tools, instead of panicking in println!.
    #[cfg(unix)]
    unsafe {
        libc::signal(libc::SIGPIPE, libc::SIG_DFL);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let cmd = match it.next() {
        Some(c) => c.as_str(),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let rest: Vec<&String> = it.collect();
    let result = check_flags(cmd, &rest).and_then(|()| match cmd {
        "profile" => cmd_profile(&rest),
        "convert" => cmd_convert(&rest),
        "spmm" => cmd_spmm(&rest),
        "audit" => cmd_audit(&rest),
        "bench" => cmd_bench(&rest),
        "serve" => cmd_serve(&rest),
        "doctor" => cmd_doctor(&rest),
        "diff" => cmd_diff(&rest),
        "history" => cmd_history(&rest),
        "suite" => cmd_suite(&rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "nmt-cli — near-memory-transform SpMM toolkit

USAGE:
  nmt-cli profile <file.mtx> [--tile N]   SSF profile + algorithm recommendation
  nmt-cli convert <file.mtx> [--tile N]   run the CSC->tiled-DCSR engine model
  nmt-cli spmm    <file.mtx> [--k N] [--tile N] [--threads N] [--json]
                  [--trace-out <trace.json>] [--flame-out <folded.txt>]
                  [--metrics-json <metrics.json>]
                  [--fault-seed N [--fault-rate F]]
                                          simulate auto-tuned SpMM vs baseline;
                                          --trace-out writes a Chrome/Perfetto
                                          trace, --flame-out folded stacks
                                          (feed to inferno/flamegraph.pl),
                                          --metrics-json the metric
                                          registry snapshot
  nmt-cli audit   <file.mtx> [--k N] [--tile N] [--threads N] [--json]
                  [--metrics-json <metrics.json>] [--fault-seed N [--fault-rate F]]
                                          explain the planner's decision:
                                          SSF inputs, chosen vs oracle
                                          dataflow, and Table-1 predicted
                                          vs measured traffic per operand
  nmt-cli bench   [--scale small|medium|paper] [--threads N] [--out <BENCH.json>]
                  [--baseline <BENCH.json>]
                  [--perf] [--perf-iters N] [--perf-warmup N] [--perf-margin F]
                  [--fault-seed N [--fault-rate F]]
                  [--history <HISTORY.jsonl>] [--diag-dir <dir>]
                                          sweep the synthetic suite into a
                                          schema-versioned run ledger; with
                                          --baseline, gate against it and
                                          fail on regression
                                          (--threads sizes the worker pool;
                                          default: RAYON_NUM_THREADS or the
                                          core count — results are identical
                                          at any thread count)
                                          --perf appends a measured wall-time
                                          section (per-matrix, per-phase
                                          medians + bootstrap CIs over
                                          --perf-iters runs after
                                          --perf-warmup discards); with
                                          --baseline it also gates timings,
                                          failing only when a median exceeds
                                          the baseline CI by --perf-margin
                                          (fraction, default 0.5) plus 100 us;
                                          per-phase alloc.count/alloc.bytes
                                          may exceed the baseline by 50%
                                          plus a fixed slack
                                          --history appends one row (commit,
                                          geomean, per-phase medians + CIs)
                                          to a JSONL history file
                                          --diag-dir (or NMT_DIAG_DIR) arms
                                          crash diagnostics: a panic or gate
                                          failure writes an nmt-diag-*.json
                                          bundle there

  --fault-seed N / --fault-rate F (fraction, default 0.05) arm seeded
  deterministic fault injection: conversion-strip faults retry once then
  fall back per-matrix to the untiled C-stationary kernel (audited as
  degraded mode), memory faults perturb timing only. Same seed, same
  faults — at any thread count.
  nmt-cli serve   [--requests <trace.jsonl> | --synth N] [--threads N]
                  [--matrices N] [--tenants N] [--seed N] [--k N] [--tile N]
                  [--queue-depth N] [--quantum N] [--service-rate N]
                  [--cache-bytes N] [--stats] [--out <SERVE.json>]
                  [--baseline <SERVE.json>] [--trace-out <trace.jsonl>]
                  [--history <SERVE_HISTORY.jsonl>] [--diag-dir <dir>]
                                          replay an SpMM request trace
                                          through the service broker:
                                          single-flight plan cache,
                                          bounded admission queue, DRR
                                          tenant fairness. --requests
                                          replays a JSONL trace; --synth N
                                          generates a seeded N-request
                                          schedule over --matrices distinct
                                          matrices (and --trace-out saves
                                          it for exact replay elsewhere).
                                          The response ledger is byte-
                                          identical at any --threads;
                                          --baseline gates against a saved
                                          ledger and fails on any drift.
                                          --stats appends the schedule-
                                          dependent measurement section
                                          (cache hit/wait split, hit-vs-
                                          miss latency + alloc medians) —
                                          excluded from the gate either
                                          way. --history appends one
                                          summary row to a JSONL history
                                          file (the same format as bench's)
  nmt-cli doctor  <nmt-diag-*.json>       render a crash bundle as a
                                          human-readable post-mortem:
                                          failing site, strip/partition,
                                          thread, span stack, and the last
                                          flight-recorder events
  nmt-cli diff    <ledger-A.json> <ledger-B.json> [--json]
                                          forensic ledger comparison (A the
                                          baseline, B the run): attribute
                                          geomean movement to matrices /
                                          dataflow classes / phases and flag
                                          wall-time deltas outside A's
                                          bootstrap CIs
  nmt-cli history <HISTORY.jsonl>         render a bench/serve history: the
                                          bench timeline with a change-point
                                          scan per series, and the serve runs
  nmt-cli suite   [--scale small|medium|paper]
                                          enumerate the synthetic suite
  nmt-cli help                            this message";

/// The `--flags` each subcommand reads; any other `--flag` is an error, so
/// a typo or a retired option cannot silently run with defaults.
const FLAGS: &[(&str, &str)] = &[
    ("profile", "--tile"),
    ("convert", "--tile"),
    ("spmm", "--k --tile --threads --json --trace-out --flame-out --metrics-json \
              --fault-seed --fault-rate"),
    ("audit", "--k --tile --threads --json --metrics-json --fault-seed --fault-rate"),
    ("bench", "--scale --threads --out --baseline --perf --perf-iters --perf-warmup \
               --perf-margin --fault-seed --fault-rate --history --diag-dir"),
    ("serve", "--requests --synth --threads --matrices --tenants --seed --n --k --tile \
               --queue-depth --quantum --service-rate --cache-bytes --stats --out \
               --baseline --trace-out --history --diag-dir"),
    ("doctor", ""),
    ("diff", "--json"),
    ("history", ""),
    ("suite", "--scale"),
];

/// Reject any `--flag` that `cmd` does not read ([`FLAGS`]).
fn check_flags(cmd: &str, rest: &[&String]) -> Result<(), String> {
    let Some((_, known)) = FLAGS.iter().find(|(c, _)| *c == cmd) else {
        return Ok(());
    };
    let reads = |a: &str| known.split_whitespace().any(|k| k == a);
    match rest.iter().find(|a| a.starts_with("--") && !reads(a)) {
        Some(bad) => Err(format!("unknown flag {bad} for {cmd}")),
        None => Ok(()),
    }
}

fn flag(rest: &[&String], name: &str) -> Option<String> {
    rest.iter()
        .position(|a| a.as_str() == name)
        .and_then(|i| rest.get(i + 1))
        .map(std::string::ToString::to_string)
}

fn parse_flag<T: std::str::FromStr>(rest: &[&String], name: &str, default: T) -> Result<T, String> {
    match flag(rest, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

/// Positional (non-flag) arguments, in order, for the subcommands whose
/// only flags are bare `--switch`es.
fn positionals<'a>(rest: &[&'a String]) -> Vec<&'a String> {
    rest.iter().copied().filter(|a| !a.starts_with("--")).collect()
}

/// The commit a history row is stamped with: `NMT_COMMIT`, else CI's
/// `GITHUB_SHA`, else `unknown` — never read from git, so the ledger stack
/// takes no VCS dependency.
fn commit_id() -> String {
    std::env::var("NMT_COMMIT")
        .or_else(|_| std::env::var("GITHUB_SHA"))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// `--tile N` (default `default`), which must fit the 64-lane engine.
fn parse_tile(rest: &[&String], default: usize) -> Result<usize, String> {
    match parse_flag(rest, "--tile", default)? {
        tile @ 1..=64 => Ok(tile),
        _ => Err("--tile must be in 1..=64 (the engine is 64 lanes wide)".into()),
    }
}

/// Parse `--fault-seed N` / `--fault-rate F` into an optional
/// [`FaultPlan`]. `--fault-rate` without `--fault-seed` is an error (a
/// wall-clock-seeded plan would break reproducibility); `--fault-seed`
/// alone defaults to a 5 % rate. The rate is a fraction in `[0, 1]`,
/// stored as parts-per-million.
fn parse_fault(rest: &[&String]) -> Result<Option<FaultPlan>, String> {
    let seed = match flag(rest, "--fault-seed") {
        None => {
            if flag(rest, "--fault-rate").is_some() {
                return Err("--fault-rate requires --fault-seed (faults must be seeded)".into());
            }
            return Ok(None);
        }
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("bad value {v:?} for --fault-seed"))?,
    };
    let rate: f64 = parse_flag(rest, "--fault-rate", 0.05)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--fault-rate must be in 0.0..=1.0, got {rate}"));
    }
    Ok(Some(FaultPlan::from_rate(seed, rate)))
}

/// Apply `--threads N`: size the global rayon pool before any parallel
/// work runs. `0` (or omitting the flag) keeps the default — the
/// `RAYON_NUM_THREADS` environment variable if set, else the core count.
fn init_threads(rest: &[&String]) -> Result<(), String> {
    let threads: usize = parse_flag(rest, "--threads", 0)?;
    if threads > 0 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .map_err(|e| format!("cannot configure {threads}-thread pool: {e}"))?;
    }
    Ok(())
}

fn load(rest: &[&String]) -> Result<Csr, String> {
    let path = rest
        .iter()
        .find(|a| !a.starts_with("--") && !a.chars().all(|c| c.is_ascii_digit()))
        .ok_or("missing <file.mtx> argument")?;
    let (coo, header) = market::read_market_file(path).map_err(|e| e.to_string())?;
    eprintln!("loaded {path}: {:?}", header);
    Ok(Csr::from_coo(&coo))
}

fn cmd_profile(rest: &[&String]) -> Result<(), String> {
    let tile = parse_tile(rest, 64)?;
    let a = load(rest)?;
    let p = SsfProfile::compute(&a, tile);
    println!("shape            : {}", a.shape());
    println!(
        "nnz              : {} (density {:.5}%)",
        a.nnz(),
        a.density() * 100.0
    );
    println!("non-empty rows   : {:.1}%", p.nnzrow_frac * 100.0);
    println!("mean strip occ.  : {:.2}%", p.mean_strip_frac * 100.0);
    println!("H_norm           : {:.4}", p.h_norm);
    println!("SSF              : {:.4e}", p.ssf);
    let choice = spmm_nmt::model::classify(p.ssf, &DEFAULT_SSF_THRESHOLD);
    println!(
        "recommendation   : {choice:?} (SSF_th = {:.3e})",
        DEFAULT_SSF_THRESHOLD.threshold
    );
    // Storage comparison the user would care about.
    let dcsr = Dcsr::from_csr(&a);
    let tdcsr = TiledDcsr::from_csr(&a, tile, tile).map_err(|e| e.to_string())?;
    println!(
        "storage          : CSR {} B | DCSR {} B | tiled DCSR {} B ({:.2}x CSR)",
        a.storage_bytes(),
        dcsr.storage_bytes(),
        tdcsr.storage_bytes(),
        tdcsr.storage_bytes() as f64 / a.storage_bytes() as f64
    );
    Ok(())
}

fn cmd_convert(rest: &[&String]) -> Result<(), String> {
    let tile = parse_tile(rest, 64)?;
    let a = load(rest)?;
    let csc = a.to_csc();
    let (tiles, stats) = convert_matrix(&csc, tile, tile).map_err(|e| e.to_string())?;
    let tree = ComparatorTree::new(tile)
        .map_err(|e| e.to_string())?
        .structure();
    let timing = EngineTiming::fp32(13.6, &tree);
    let per_strip_ns = timing.conversion_time_ns(&stats) / tiles.num_strips().max(1) as f64;
    println!("strips           : {}", tiles.num_strips());
    println!("tiles            : {}", stats.tiles);
    println!("elements         : {}", stats.elements);
    println!("DCSR rows        : {}", stats.rows_emitted);
    println!("comparator passes: {}", stats.comparator_passes);
    println!("engine input     : {} B (CSC stream)", stats.input_bytes);
    println!(
        "engine output    : {} B (tiled DCSR over Xbar)",
        stats.output_bytes
    );
    println!(
        "engine time      : {:.1} ns/strip sequential, {:.1} ns across {} parallel units",
        per_strip_ns,
        timing.conversion_time_ns(&stats) / 64.0,
        64
    );
    println!(
        "energy           : {:.1} nJ",
        conversion_energy_pj(&stats, false) / 1e3
    );
    Ok(())
}

fn cmd_spmm(rest: &[&String]) -> Result<(), String> {
    init_threads(rest)?;
    let k: usize = parse_flag(rest, "--k", 64)?;
    let tile = parse_tile(rest, 64)?;
    let trace_out = flag(rest, "--trace-out");
    let flame_out = flag(rest, "--flame-out");
    let metrics_json = flag(rest, "--metrics-json");
    let fault = parse_fault(rest)?;
    let a = load(rest)?;
    let b = random_dense(a.shape().ncols, k, 0xB);
    let mut config = PlannerConfig::paper_default();
    config.tile_w = tile;
    config.tile_h = tile;
    config.fault = fault;
    // Observability is free when nobody asked for an artifact.
    let observing = trace_out.is_some() || flame_out.is_some() || metrics_json.is_some();
    let obs = if observing {
        ObsContext::enabled()
    } else {
        ObsContext::disabled()
    };
    let report = SpmmPlanner::new(config)
        .execute_with_obs(&a, &b, &obs)
        .map_err(|e| e.to_string())?;
    if let Some(path) = &trace_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        write_chrome_trace(std::io::BufWriter::new(file), &obs.flight.lanes())
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = &flame_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create flamegraph file {path}: {e}"))?;
        write_flamegraph(std::io::BufWriter::new(file), &obs.flight.lanes())
            .map_err(|e| format!("cannot write flamegraph to {path}: {e}"))?;
        eprintln!("wrote folded stacks to {path} (render with inferno or flamegraph.pl)");
    }
    if let Some(path) = &metrics_json {
        let json = obs.metrics.snapshot().to_json();
        std::fs::write(path, json).map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if rest.iter().any(|x| x.as_str() == "--json") {
        use spmm_nmt::planner::RunRecord;
        let mut record = RunRecord::from_report("cli", a.shape().nrows, a.nnz(), &report);
        if observing {
            record = record.with_metrics(&obs.metrics.snapshot());
        }
        println!("{}", record.to_json());
        return Ok(());
    }
    println!("SSF              : {:.4e}", report.profile.ssf);
    println!("algorithm        : {:?}", report.algorithm);
    if let Some(fault) = &report.fault {
        println!("degraded mode    : {fault}");
    }
    println!(
        "baseline         : {:.2} us",
        report.baseline_stats.total_ns / 1e3
    );
    println!("chosen           : {:.2} us", report.stats.total_ns / 1e3);
    println!("speedup          : {:.2}x", report.speedup);
    if let Some(e) = &report.engine {
        println!(
            "engine           : {} elements -> {} rows, {:.1} nJ",
            e.elements,
            e.rows_emitted,
            report.engine_energy_pj / 1e3
        );
    }
    let s = report.stats.stall_breakdown();
    println!(
        "stalls           : memory {:.0}% / sm {:.0}% / other {:.0}%",
        s.memory * 100.0,
        s.sm * 100.0,
        s.other * 100.0
    );
    Ok(())
}

fn cmd_audit(rest: &[&String]) -> Result<(), String> {
    init_threads(rest)?;
    let k: usize = parse_flag(rest, "--k", 64)?;
    let tile = parse_tile(rest, 64)?;
    let metrics_json = flag(rest, "--metrics-json");
    let fault = parse_fault(rest)?;
    let a = load(rest)?;
    let b = random_dense(a.shape().ncols, k, 0xB);
    let mut config = PlannerConfig::paper_default();
    config.tile_w = tile;
    config.tile_h = tile;
    config.fault = fault;
    // The audit always observes: its whole point is the metrics.
    let obs = ObsContext::enabled();
    let audit = SpmmPlanner::new(config)
        .explain("cli", &a, &b, &obs)
        .map_err(|e| e.to_string())?;
    if let Some(path) = &metrics_json {
        let json = obs.metrics.snapshot().to_json();
        std::fs::write(path, json).map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if rest.iter().any(|x| x.as_str() == "--json") {
        println!("{}", audit.to_json());
    } else {
        print!("{}", audit.render_text());
    }
    Ok(())
}

fn cmd_bench(rest: &[&String]) -> Result<(), String> {
    init_threads(rest)?;
    let scale = flag(rest, "--scale").map_or(Ok(SuiteScale::Small), |v| parse_scale(&v))?;
    let baseline_path = flag(rest, "--baseline");
    let out = flag(rest, "--out");
    let fault = parse_fault(rest)?;
    let perf_requested = rest.iter().any(|x| x.as_str() == "--perf");
    // Generous by default for same-machine runs; CI hosts are not the
    // baseline host and pass a wider margin.
    let perf_margin: f64 = parse_flag(rest, "--perf-margin", 0.5)?;
    let perf = if perf_requested {
        let mut cfg = BenchConfig::default();
        cfg.iters = parse_flag(rest, "--perf-iters", cfg.iters)?;
        cfg.warmup = parse_flag(rest, "--perf-warmup", cfg.warmup)?;
        if cfg.iters == 0 {
            return Err("--perf-iters must be at least 1".into());
        }
        Some(cfg)
    } else {
        for f in ["--perf-iters", "--perf-warmup"] {
            if flag(rest, f).is_some() {
                return Err(format!("{f} requires --perf"));
            }
        }
        None
    };
    arm_diagnostics(rest, fault);
    match fault {
        Some(plan) => eprintln!(
            "sweeping {scale:?} suite with fault injection (seed {:#x}, rate {:.4})...",
            plan.seed,
            plan.rate()
        ),
        None => eprintln!("sweeping {scale:?} suite through the audited planner..."),
    }
    let ledger = sweep_ledger(Sweep { scale, fault, perf }).map_err(|e| e.to_string())?;
    println!("{}", ledger.render_summary());
    if let Some(path) = &out {
        std::fs::write(path, ledger.to_json())
            .map_err(|e| format!("cannot write ledger to {path}: {e}"))?;
        eprintln!("wrote run ledger to {path}");
    }
    if let Some(hist) = flag(rest, "--history") {
        let record = HistoryRecord::from_ledger(&ledger, &commit_id());
        let run = append_history(std::path::Path::new(&hist), record)?;
        eprintln!("history: appended run {run} to {hist}");
    }
    if let Some(path) = &baseline_path {
        let baseline = read_ledger(path)?;
        report_gate("gate", path, ledger.gate(&baseline))?;
        // The wall-time gate runs alongside the functional one; it
        // self-skips (with a note) when either side has no perf section.
        report_gate("perf gate", path, ledger.perf_gate(&baseline, perf_margin))?;
    }
    Ok(())
}

/// `nmt-cli serve`: replay an SpMM request trace through the service
/// broker (single-flight plan cache + admission control) and emit the
/// deterministic response ledger.
fn cmd_serve(rest: &[&String]) -> Result<(), String> {
    use spmm_nmt::serve::{
        parse_jsonl, serve_trace, synth_trace, to_jsonl, BrokerConfig, ServeLedger, SynthSpec,
    };

    init_threads(rest)?;
    let with_stats = rest.iter().any(|x| x.as_str() == "--stats");
    if with_stats {
        // Hit-vs-miss allocation medians need live thread-local counters.
        spmm_nmt::obs::alloc::enable_counting(true);
    }
    arm_diagnostics(rest, None);

    let trace = match (flag(rest, "--requests"), flag(rest, "--synth")) {
        (Some(_), Some(_)) => {
            return Err("--requests and --synth are mutually exclusive".into())
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read trace {path}: {e}"))?;
            parse_jsonl(&text)?
        }
        (None, synth) => {
            let mut spec = SynthSpec::quick(parse_flag(rest, "--seed", 0x5E12_u64)?);
            if let Some(n) = synth {
                spec.requests = n
                    .parse()
                    .map_err(|_| format!("bad value {n:?} for --synth"))?;
            }
            spec.unique_matrices = parse_flag(rest, "--matrices", spec.unique_matrices)?;
            spec.tenants = parse_flag(rest, "--tenants", spec.tenants)?;
            spec.n = parse_flag(rest, "--n", spec.n)?;
            spec.k = parse_flag(rest, "--k", spec.k)?;
            if spec.requests == 0 || spec.unique_matrices == 0 || spec.tenants == 0 {
                return Err("--synth, --matrices and --tenants must all be ≥ 1".into());
            }
            synth_trace(&spec)
        }
    };
    if let Some(path) = flag(rest, "--trace-out") {
        std::fs::write(&path, to_jsonl(&trace))
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("wrote {} requests to {path}", trace.len());
    }

    let tile = parse_tile(rest, 16)?;
    let mut config = BrokerConfig::test_small();
    config.planner.tile_w = tile;
    config.planner.tile_h = tile;
    config.queue_depth = parse_flag(rest, "--queue-depth", config.queue_depth)?;
    config.quantum = parse_flag(rest, "--quantum", config.quantum)?;
    config.service_rate = parse_flag(rest, "--service-rate", config.service_rate)?;
    config.cache_budget_bytes = parse_flag(rest, "--cache-bytes", config.cache_budget_bytes)?;

    let obs = ObsContext::enabled();
    let ledger = serve_trace(&trace, &config, &obs, with_stats).map_err(|e| e.to_string())?;
    print!("{}", ledger.render_summary());

    if let Some(path) = flag(rest, "--out") {
        std::fs::write(&path, ledger.to_json())
            .map_err(|e| format!("cannot write serve ledger to {path}: {e}"))?;
        eprintln!("wrote serve ledger to {path}");
    }
    if let Some(hist) = flag(rest, "--history") {
        let c = &ledger.counts;
        let s = ledger.stats.as_ref();
        let serve = Some(ServeRun {
            requests: c.requests,
            admitted: c.admitted,
            rejected: c.rejected_queue_full + c.rejected_malformed,
            unique_plans: c.unique_plans,
            cached_responses: c.cached_responses,
            cache_hits: s.map_or(0, |s| s.cache_hits),
            cache_evictions: s.map_or(0, |s| s.cache_evictions),
            hit_p50_ns: s.map_or(0, |s| s.hit_p50_ns),
            miss_p50_ns: s.map_or(0, |s| s.miss_p50_ns),
        });
        let record = HistoryRecord { run: 0, commit: commit_id(), bench: None, serve };
        let run = append_history(std::path::Path::new(&hist), record)?;
        eprintln!("serve history: appended run {run} to {hist}");
    }
    if let Some(path) = flag(rest, "--baseline") {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let baseline = ServeLedger::from_json(&json)?;
        match ledger.gate(&baseline) {
            Ok(()) => println!("serve gate: PASS vs {path}"),
            Err(diffs) => {
                for d in &diffs {
                    eprintln!("serve gate: DIVERGENCE: {d}");
                }
                write_failure_bundle(&format!("serve gate failure vs {path}"));
                return Err(format!("{} divergence(s) vs baseline {path}", diffs.len()));
            }
        }
    }
    Ok(())
}

/// Print a bench gate's verdict as `<label>:` lines; on regression, leave a
/// `bench <label> failure` bundle and fail.
fn report_gate(
    label: &str,
    path: &str,
    verdict: Result<Vec<String>, Vec<String>>,
) -> Result<(), String> {
    match verdict {
        Ok(notes) => {
            for note in notes {
                println!("{label}: {note}");
            }
            println!("{label}: PASS vs {path}");
            Ok(())
        }
        Err(regressions) => {
            for r in &regressions {
                eprintln!("{label}: REGRESSION: {r}");
            }
            write_failure_bundle(&format!("bench {label} failure vs {path}"));
            Err(format!("{} {label} regression(s) vs baseline {path}", regressions.len()))
        }
    }
}

/// Crash diagnostics for `bench` and `serve`: `--diag-dir` (or
/// `NMT_DIAG_DIR`) arms the panic hook, so a worker panic — or a gate
/// failure, via [`write_failure_bundle`] — leaves an nmt-diag-*.json
/// bundle for `nmt-cli doctor`.
fn arm_diagnostics(rest: &[&String], fault: Option<FaultPlan>) {
    if let Some(dir) = flag(rest, "--diag-dir").or_else(|| std::env::var("NMT_DIAG_DIR").ok()) {
        let (seed, rate) = (fault.map(|p| p.seed), fault.map(|p| p.rate_ppm));
        install_diagnostics(dir.as_str(), &ObsContext::disabled(), seed, rate);
        eprintln!("crash diagnostics armed: bundles land in {dir}");
    }
}

/// When `--diag-dir` armed diagnostics, capture a bundle for a
/// non-panic failure (gate regressions) so CI uploads the same artifact
/// either way. A no-op when diagnostics are not installed.
fn write_failure_bundle(reason: &str) {
    if diagnostics_installed() {
        if let Some(p) = write_bundle_now(reason) {
            eprintln!("wrote diagnostics bundle to {}", p.display());
        }
    }
}

/// `nmt-cli doctor <bundle>`: render a crash diagnostics bundle as a
/// human-readable post-mortem.
fn cmd_doctor(rest: &[&String]) -> Result<(), String> {
    let args = positionals(rest);
    let path = args.first().ok_or("missing <nmt-diag-*.json> argument")?;
    let json = std::fs::read_to_string(path.as_str())
        .map_err(|e| format!("cannot read bundle {path}: {e}"))?;
    let bundle = DiagnosticsBundle::from_json(&json)?;
    print!("{}", bundle.render_postmortem());
    Ok(())
}

/// Read and parse a bench ledger file.
fn read_ledger(path: &str) -> Result<Ledger, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read ledger {path}: {e}"))?;
    Ledger::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

/// `nmt-cli diff <A> <B>`: forensic comparison of two run ledgers.
fn cmd_diff(rest: &[&String]) -> Result<(), String> {
    let args = positionals(rest);
    let [a_path, b_path] = args.as_slice() else {
        return Err("diff needs exactly two ledger paths: <ledger-A> <ledger-B>".into());
    };
    let report = diff_ledgers(&read_ledger(a_path)?, &read_ledger(b_path)?)?;
    if rest.iter().any(|x| x.as_str() == "--json") {
        println!("{}", report.to_json());
    } else {
        println!("diff: A = {a_path}, B = {b_path}");
        print!("{}", report.render_text());
    }
    Ok(())
}

/// `nmt-cli history <HISTORY.jsonl>`: render a bench/serve history, with
/// the change points of its bench series.
fn cmd_history(rest: &[&String]) -> Result<(), String> {
    let args = positionals(rest);
    let path = args.first().ok_or("missing <HISTORY.jsonl> argument")?;
    let records = load_history(std::path::Path::new(path.as_str()))?;
    print!("{}", render_history(&records));
    Ok(())
}

fn cmd_suite(rest: &[&String]) -> Result<(), String> {
    let scale = flag(rest, "--scale").map_or(Ok(SuiteScale::Small), |v| parse_scale(&v))?;
    let spec = SuiteSpec::new(scale, EXPERIMENT_SEED);
    let descs = spec.descriptors();
    println!("{} matrices at {scale:?} scale:", descs.len());
    for d in descs {
        println!("  {} (n = {}, seed = {:#x})", d.name, d.n, d.seed);
    }
    Ok(())
}
