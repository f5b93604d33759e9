//! Host-time benchmark for the spmm-nmt workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <sweep-small|sweep-medium|serve-hot|serve-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the benchmark repeats the workload's composite call
//! (a whole ledger sweep or a whole `serve_trace` replay) for `--seconds`
//! and reports the end-to-end metrics. With `--trace 1` it alternates an
//! untraced pass with a traced one, which also calls every layer's public
//! function once per matrix or request inside spans, and reports per-layer
//! metrics. Every pass is checked against reference digests; the last line
//! of standard output is one JSON object with the result.
//!
//! `--record` rewrites the workload's reference digests for every input
//! variant; run it only on a commit whose simulated results are known good.
//! See `README.md` next to this package for the workloads and metrics.

mod reference;
mod serve;
mod sweep;
mod tracer;

use std::collections::BTreeMap;
use std::time::Instant;

use reference::{Check, VARIANTS};
use tracer::{Span, Tracer};

#[global_allocator]
static ALLOC: nmt_obs::CountingAlloc = nmt_obs::CountingAlloc;

/// Per-layer metric values of one traced pass, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Tolerance of the release-mode output check; the planner's
/// `debug_assert!` uses the same.
pub const VERIFY_TOL: f32 = 1e-3;

/// Most threads any workload uses.
const MAX_THREADS: usize = 2;
/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Set-ups timed before the first pass and again before each later pass
/// of an end-to-end run. `setup_s` is the median of all of them, so it
/// samples the same host conditions as the passes do.
const SETUP_REPS: usize = 21;

/// Every per-layer metric and its unit, in report order. A metric that a
/// workload's path never reaches reads 0 on that workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("matgen.ms", "ms"),
    ("matgen.allocs", "count"),
    ("model.ssf_ms", "ms"),
    ("model.traffic_ms", "ms"),
    ("formats.ms", "ms"),
    ("engine.farm_ms", "ms"),
    ("engine.farm_elements", "count"),
    ("engine.farm_ns_per_element", "ns/element"),
    ("engine.farm_allocs", "count"),
    ("engine.pool_hit_rate", "ratio"),
    ("sim.gpu_new_ms", "ms"),
    ("sim.probes", "count"),
    ("sim.l2_hit_rate", "ratio"),
    ("kernels.baseline_ms", "ms"),
    ("kernels.cstat_ms", "ms"),
    ("kernels.bstat_online_ms", "ms"),
    ("kernels.bstat_offline_ms", "ms"),
    ("kernels.allocs", "count"),
    ("kernels.baseline_ns_per_probe", "ns/probe"),
    ("kernels.cstat_ns_per_probe", "ns/probe"),
    ("kernels.bstat_ns_per_probe", "ns/probe"),
    ("planner.explain_ms", "ms"),
    ("planner.explain_p50_ms", "ms"),
    ("planner.explain_p90_ms", "ms"),
    ("planner.self_ms", "ms"),
    ("verify.ms", "ms"),
    ("verify.failed", "count"),
    ("ledger.ms", "ms"),
    ("serve.fingerprint_ms", "ms"),
    ("serve.allocs", "count"),
    ("serve.broker_self_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_computes", "count"),
    ("serve.cache_waits", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.hit_rate", "ratio"),
    ("serve.hit_p50_ns", "ns"),
    ("serve.miss_p50_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// One composite pass: wall time, operations served, and its check.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub wall_s: f64,
    /// Matrices with a ledger row, or requests admitted.
    pub served: u64,
    pub check: Check,
}

/// Median (mean of the two middle values for an even count; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in [0, 1]; 0 is the minimum (0 if empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// The highest percentile with at least ten samples above it, as
/// `(percent, value)`; `None` below 20 samples, where it would not
/// exceed the median.
fn tail(xs: &[f64]) -> Option<(usize, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100 * (n - 10) / n, v[n - 11]))
}

/// Allocations made anywhere in the process while `f` runs. Callers run
/// nothing else concurrently, so the count belongs to `f`.
pub fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (before, _) = nmt_obs::alloc::process_totals();
    let out = f();
    let (after, _) = nmt_obs::alloc::process_totals();
    (out, after.saturating_sub(before))
}

/// Share of engine-pool takes served from the shelf since the last
/// `reset_pools`.
pub fn pool_hit_rate() -> f64 {
    let s = nmt_engine::mem::pool_stats();
    let takes = s.hits + s.misses;
    if takes == 0 {
        0.0
    } else {
        s.hits as f64 / takes as f64
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Reset the kernel's peak-resident-set counter (`VmHWM`) to the current
/// resident set, so the next [`peak_rss_mb`] covers only what runs after
/// it. Where the kernel refuses, later reads keep the whole run's peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SweepSmall,
    SweepMedium,
    ServeHot,
    ServeChurn,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("sweep-small", Workload::SweepSmall),
    ("sweep-medium", Workload::SweepMedium),
    ("serve-hot", Workload::ServeHot),
    ("serve-churn", Workload::ServeChurn),
];

enum Input {
    Sweep(sweep::Input),
    Serve(serve::Input),
}

impl Input {
    fn setup(name: &str, w: Workload, variant: u64, with_reference: bool) -> Result<Input, String> {
        use nmt_matgen::SuiteScale;
        Ok(match w {
            Workload::SweepSmall => Input::Sweep(sweep::setup(
                name,
                SuiteScale::Small,
                None,
                variant,
                with_reference,
            )?),
            Workload::SweepMedium => Input::Sweep(sweep::setup(
                name,
                SuiteScale::Medium,
                Some(sweep::MEDIUM_SUBSET),
                variant,
                with_reference,
            )?),
            Workload::ServeHot => Input::Serve(serve::setup(
                name,
                serve::Shape::Hot,
                variant,
                with_reference,
            )?),
            Workload::ServeChurn => Input::Serve(serve::setup(
                name,
                serve::Shape::Churn,
                variant,
                with_reference,
            )?),
        })
    }

    fn ops(&self) -> u64 {
        match self {
            Input::Sweep(s) => s.ops(),
            Input::Serve(s) => s.ops(),
        }
    }

    /// One untraced pass, its per-operand digests and, for sweeps, the
    /// ledger JSON.
    fn pass(&self) -> Result<(Pass, Vec<u32>, Option<String>), String> {
        match self {
            Input::Sweep(s) => {
                let (p, d, json) = sweep::pass(s, None);
                Ok((p, d, Some(json)))
            }
            Input::Serve(s) => serve::pass(s, None).map(|(p, d, _)| (p, d, None)),
        }
    }

    fn traced_pass(
        &self,
        tr: &Tracer,
        threads: usize,
    ) -> Result<(Pass, Layers, Vec<Span>), String> {
        match self {
            Input::Sweep(s) => Ok(sweep::traced_pass(s, tr)),
            Input::Serve(s) => serve::traced_pass(s, tr, threads),
        }
    }

    fn alloc_pass(&self) -> Result<Layers, String> {
        let was = nmt_obs::alloc::enable_counting(true);
        let out = match self {
            Input::Sweep(s) => sweep::alloc_pass(s),
            Input::Serve(s) => serve::alloc_pass(s),
        };
        nmt_obs::alloc::enable_counting(was);
        out
    }
}

struct Args {
    workload: (&'static str, Workload),
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, 0, 10.0, false, false);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|(n, _)| *n == value)
                        .ok_or_else(|| bad(&"unknown workload"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required ({})", names.join("|")))?,
        seed,
        seconds,
        trace,
        record,
    })
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line; it must be the last line of standard output.
fn print_result(check: Check, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0,
        check.attempted,
        check.failed,
        body.join(", ")
    );
}

/// Set the workload up `SETUP_REPS` times, timing each into `samples`;
/// the first is timed from `first_from` when given (process start).
fn set_up(
    args: &Args,
    variant: u64,
    first_from: Option<Instant>,
    samples: &mut Vec<f64>,
) -> Result<Input, String> {
    let (name, w) = args.workload;
    let mut last = None;
    for i in 0..SETUP_REPS {
        let t0 = first_from.filter(|_| i == 0).unwrap_or_else(Instant::now);
        last = Some(Input::setup(name, w, variant, true)?);
        samples.push(t0.elapsed().as_secs_f64());
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Repeat set-up and the composite pass for `seconds` and report
/// end-to-end metrics.
fn end_to_end(
    mut inp: Input,
    args: &Args,
    variant: u64,
    mut setup_s: Vec<f64>,
) -> Result<(), String> {
    let start = Instant::now();
    let (mut walls, mut rates, mut peaks, mut check, mut json) =
        (Vec::new(), Vec::new(), Vec::new(), Check::default(), None);
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        if !walls.is_empty() {
            inp = set_up(args, variant, None, &mut setup_s)?;
        }
        reset_peak_rss();
        let (p, _, ledger) = inp.pass()?;
        peaks.push(peak_rss_mb()?);
        walls.push(p.wall_s);
        rates.push(p.served as f64 / p.wall_s);
        check.add(p.check);
        json = ledger;
    }
    if let (Input::Sweep(s), Some(json)) = (&inp, json) {
        if s.is_committed_ledger() {
            let c = sweep::committed_ledger_checks(&json);
            println!(
                "committed BENCH_small.json and sweep_ledger(Small) byte-identical: {}",
                c.failed == 0
            );
            check.add(c);
        }
    }
    let rss = median(&peaks);
    let sweep_s = median(&walls);
    let range = format!(
        "range {:.4}..{:.4} s",
        percentile(&walls, 0.0),
        percentile(&walls, 1.0)
    );
    match tail(&walls) {
        Some((p, v)) => println!("sweep_s: median {sweep_s:.4} s, p{p} {v:.4} s, {range}, n={}", walls.len()),
        None => println!(
            "sweep_s: median {sweep_s:.4} s, {range}, n={} (no percentile has 10 samples above it below n=20)",
            walls.len()
        ),
    }
    println!(
        "serve_rps: median {:.2} ops/s over {} ops per pass",
        median(&rates),
        inp.ops()
    );
    println!(
        "setup_s: median {:.6} s of {} set-ups; peak_rss_mb: {rss:.1}",
        median(&setup_s),
        setup_s.len()
    );
    println!(
        "operations: {} attempted, {} failed",
        check.attempted, check.failed
    );
    print_result(
        check,
        &[
            ("sweep_s", sweep_s, "s"),
            ("serve_rps", median(&rates), "1/s"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", rss, "MB"),
        ],
    );
    Ok(())
}

/// Alternate untraced and traced passes for `seconds`, then one allocation
/// pass, and report per-layer metrics (medians over traced passes).
fn traced(inp: &Input, args: &Args, threads: usize, origin: Instant) -> Result<(), String> {
    let start = Instant::now();
    let (mut untraced, mut traced, mut check) = (Vec::new(), Vec::new(), Check::default());
    let mut samples: Vec<Layers> = Vec::new();
    let mut span_passes = Vec::new();
    while samples.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (p, _, _) = inp.pass()?;
        untraced.push(p.wall_s);
        check.add(p.check);
        let tr = Tracer::new(origin);
        let (p, layers, spans) = inp.traced_pass(&tr, threads)?;
        traced.push(p.wall_s);
        check.add(p.check);
        samples.push(layers);
        span_passes.push(spans);
    }
    // Simulated work must repeat exactly from pass to pass.
    for s in &samples[1..] {
        check.op(s.get("sim.probes") == samples[0].get("sim.probes"));
    }
    let allocs = inp.alloc_pass()?;
    let mut values: BTreeMap<&str, f64> = PER_LAYER
        .iter()
        .map(|(name, _)| {
            let xs: Vec<f64> = samples
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect();
            (*name, median(&xs))
        })
        .collect();
    values.extend(allocs);
    let base = median(&untraced);
    values.insert(
        "trace.overhead_pct",
        (median(&traced) - base) / base * 100.0,
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload.0, args.seed));
    tracer::write_jsonl(&path, args.workload.0, args.seed, &span_passes)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "traced passes: {}; composite median {:.4} s traced vs {base:.4} s untraced; spans in {}",
        traced.len(),
        median(&traced),
        path.display()
    );
    let v = |n: &str| values.get(n).copied().unwrap_or(0.0);
    match inp {
        Input::Sweep(_) => {
            let explain = v("planner.explain_ms");
            println!(
                "explain {explain:.1} ms = layer calls {:.1} ms + planner self {:.1} ms ({:.1}% unattributed)",
                explain - v("planner.self_ms"),
                v("planner.self_ms"),
                100.0 * v("planner.self_ms") / explain.max(f64::MIN_POSITIVE)
            );
        }
        Input::Serve(_) => {
            let busy = threads as f64 * median(&traced) * 1e3;
            println!(
                "serve_trace busy {busy:.1} ms ({threads} threads x wall) = layer calls {:.1} ms + broker self {:.1} ms",
                busy - v("serve.broker_self_ms"),
                v("serve.broker_self_ms")
            );
        }
    }
    for (name, unit) in PER_LAYER {
        println!("  {name:32} {:>14.3} {unit}", v(name));
    }
    println!(
        "operations: {} attempted, {} failed",
        check.attempted, check.failed
    );
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER.iter().map(|(n, u)| (*n, v(n), *u)).collect();
    print_result(check, &metrics);
    Ok(())
}

/// Rewrite the workload's reference digests for every variant. Each
/// variant is run twice and must agree with itself; the default variant of
/// `sweep-small` must also reproduce the committed ledger, and the serve
/// traces must meet their premise.
fn record(args: &Args) -> Result<(), String> {
    let (name, w) = args.workload;
    let mut variants = BTreeMap::new();
    for v in 0..VARIANTS {
        let inp = Input::setup(name, w, v, false)?;
        let (_, first, json) = inp.pass()?;
        let (_, second, _) = inp.pass()?;
        if first != second {
            return Err(format!("{name} variant {v}: two passes disagree"));
        }
        match (&inp, json) {
            (Input::Sweep(s), Some(json)) if s.is_committed_ledger() => {
                if sweep::committed_ledger_checks(&json).failed > 0 {
                    return Err(format!(
                        "{name}: default variant does not reproduce results/BENCH_small.json"
                    ));
                }
            }
            (Input::Serve(s), _) => {
                let (_, _, ledger) = serve::pass(s, None)?;
                serve::premise(s, &ledger).map_err(|e| format!("{name} variant {v}: {e}"))?;
            }
            (Input::Sweep(_), _) => {}
        }
        println!("{name} variant {v}: {} operands", first.len());
        variants.insert(v, first);
    }
    reference::store(name, &variants)?;
    println!("wrote {}", reference::path(name).display());
    Ok(())
}

fn run(origin: Instant) -> Result<(), String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = nproc.min(MAX_THREADS);
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| e.to_string())?;
    if args.record {
        return record(&args);
    }
    let variant = args.seed % VARIANTS;
    let mut setup_s = Vec::new();
    let inp = set_up(&args, variant, Some(origin), &mut setup_s)?;
    println!(
        "workload {}, seed {} (input variant {variant} of {VARIANTS}), threads {threads} of {nproc}, {} ops per pass, {} s, trace {}",
        args.workload.0,
        args.seed,
        inp.ops(),
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        traced(&inp, &args, threads, origin)
    } else {
        end_to_end(inp, &args, variant, setup_s)
    }
}

fn main() {
    let origin = Instant::now();
    if let Err(e) = run(origin) {
        eprintln!("hostbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the per-layer metrics a traced run
    /// prints, with the same units.
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} missing or with another unit");
        }
        let per_layer = json
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50, 10.0)));
        assert_eq!(tail(&xs[..19]), None);
    }
}
