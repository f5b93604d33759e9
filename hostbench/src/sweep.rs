//! `sweep-small` and `sweep-medium`: the audited ledger sweep.
//!
//! One pass replays the path `nmt-cli bench` takes to write
//! `results/BENCH_<scale>.json`: `SuiteSpec::try_build` → per matrix
//! `random_dense` → `SpmmPlanner::explain` in parallel →
//! `Ledger::from_sweep` → `to_json`. The traced run then calls each layer's
//! public function once per matrix, outside `explain`, so host time can be
//! attributed to the crate that spends it.

use std::collections::BTreeMap;
use std::time::Instant;

use nmt::planner::{PlannerConfig, SpmmPlanner, DEFAULT_SSF_THRESHOLD};
use nmt::DecisionAudit;
use nmt_bench::{ErrorRow, Ledger, LedgerRow};
use nmt_engine::{convert_matrix_farm, FarmConfig};
use nmt_formats::{Dcsr, SparseMatrix};
use nmt_kernels::host::spmm_csr;
use nmt_kernels::{bstat_tiled_dcsr_online, csrmm_cusparse, dcsrmm_row_per_warp};
use nmt_matgen::{random_dense, try_generate, MatrixDesc, SuiteScale, SuiteSpec};
use nmt_model::TrafficModel;
use nmt_obs::{EventSite, ObsContext};
use nmt_sim::Gpu;
use rayon::prelude::*;

use crate::reference::{self, Check, Fnv};
use crate::tracer::{busy_ms, durations_ms, span, Span, Tracer};
use crate::{allocs, median, percentile, pool_hit_rate, Layers, Pass, VERIFY_TOL};

/// The fixed medium subset `sweep-medium` runs: a full medium sweep takes
/// ~28 s at 2 threads, too long for one benchmark pass. The subset keeps
/// both dimensions (B at 4× and 8× the 256 KiB L2), every structural
/// family, and one heavy matrix (`uniform_n4096_d1e-2`, ~3 s serial) that
/// sets the pass's wall time, as the slowest matrices do in the full sweep.
pub const MEDIUM_SUBSET: &[&str] = &[
    "uniform_n2048_d1e-2",
    "zipfrow_n2048_d1e-2_s0.6",
    "rowburst_n2048_d3e-2_l8",
    "rmat_n2048_ef16",
    "uniform_n4096_d1e-2",
    "zipfboth_n4096_d3e-3",
    "zipfrow_n4096_d1e-2_s1.4",
    "banded_n4096_bw40",
    "blockdiag_n4096_b81",
    "rmat_n4096_ef16",
];

/// Everything one sweep pass needs, built in set-up.
pub struct Input {
    pub scale: SuiteScale,
    /// Names of the medium subset, or `None` for the whole suite.
    subset: Option<&'static [&'static str]>,
    pub variant: u64,
    base_seed: u64,
    descs: Vec<MatrixDesc>,
    config: PlannerConfig,
    k: usize,
    tile: usize,
    /// Reference digests, one per matrix (empty while recording).
    expected: Vec<u32>,
}

impl Input {
    /// Matrices in one pass.
    pub fn ops(&self) -> u64 {
        self.descs.len() as u64
    }

    /// Whether a pass reproduces the committed `results/BENCH_small.json`.
    pub fn is_committed_ledger(&self) -> bool {
        self.scale == SuiteScale::Small && self.subset.is_none() && self.variant == 0
    }
}

/// Set-up: descriptors, planner configuration and reference digests.
/// Variant `v` sweeps the suite at base seed `EXPERIMENT_SEED + v`.
pub fn setup(
    workload: &str,
    scale: SuiteScale,
    subset: Option<&'static [&'static str]>,
    variant: u64,
    with_reference: bool,
) -> Result<Input, String> {
    let base_seed = nmt_bench::EXPERIMENT_SEED + variant;
    let mut descs = SuiteSpec::new(scale, base_seed).descriptors();
    if let Some(names) = subset {
        descs.retain(|d| names.contains(&d.name.as_str()));
        if descs.len() != names.len() {
            return Err(format!(
                "{workload}: subset names {} matrices, suite has {}",
                names.len(),
                descs.len()
            ));
        }
    }
    let tile = nmt_bench::experiment_tile(scale);
    let expected = if with_reference {
        reference::load(workload, variant)?
    } else {
        Vec::new()
    };
    Ok(Input {
        scale,
        subset,
        variant,
        base_seed,
        descs,
        config: PlannerConfig {
            gpu: nmt_bench::experiment_gpu(scale),
            tile_w: tile,
            tile_h: tile,
            threshold: DEFAULT_SSF_THRESHOLD,
            fault: None,
        },
        k: nmt_bench::experiment_k(scale),
        tile,
        expected,
    })
}

/// One ledger row's simulated content. Only the fields the simulator
/// produces are digested, so a later schema addition does not read as a
/// changed result.
fn row_digest(r: &LedgerRow) -> u32 {
    let mut h = Fnv::new();
    h.str(&r.matrix)
        .u64(r.n as u64)
        .u64(r.nnz as u64)
        .f64(r.ssf)
        .f64(r.h_norm)
        .str(&r.chosen)
        .str(&r.oracle)
        .u64(u64::from(r.mispick))
        .f64(r.mispick_cost)
        .f64(r.baseline_ns)
        .f64(r.cstat_ns)
        .f64(r.bstat_ns)
        .f64(r.speedup)
        .f64(r.oracle_speedup);
    for (class, bytes) in &r.dram_bytes {
        h.str(class).u64(*bytes);
    }
    h.f64(r.model_abs_rel_err);
    h.digest()
}

/// One digest per suite matrix; a matrix that became an error row gets a
/// digest no row can have.
pub fn digests(inp: &Input, ledger: &Ledger) -> Vec<u32> {
    let rows: BTreeMap<&str, &LedgerRow> =
        ledger.rows.iter().map(|r| (r.matrix.as_str(), r)).collect();
    inp.descs
        .iter()
        .map(|d| rows.get(d.name.as_str()).map_or(0, |r| row_digest(r)))
        .collect()
}

fn error_row(desc: &MatrixDesc, error: String) -> ErrorRow {
    ErrorRow {
        matrix: desc.name.clone(),
        error,
        fault: None,
        events: None,
    }
}

/// The ledger sweep, as `sweep_ledger_instrumented` runs it.
fn sweep(inp: &Input, tr: Option<&Tracer>) -> (Ledger, String) {
    let built = span(tr, None, "matgen.suite", 0, |_| match inp.subset {
        None => SuiteSpec::new(inp.scale, inp.base_seed).try_build(),
        Some(_) => inp
            .descs
            .clone()
            .into_par_iter()
            .map(|d| {
                let m = try_generate(&d);
                (d, m)
            })
            .collect(),
    });
    let outcomes: Vec<Result<DecisionAudit, ErrorRow>> = built
        .iter()
        .enumerate()
        .into_par_iter()
        .map(|(idx, (desc, built))| {
            let a = built.as_ref().map_err(|e| error_row(desc, e.to_string()))?;
            let obs = ObsContext::disabled();
            let _diag = nmt_obs::DiagScope::enter(&desc.name, &obs);
            obs.flight.record(EventSite::SweepMatrix, 0, idx as u64, 0);
            let planner = SpmmPlanner::new(inp.config.clone());
            let b = random_dense(a.shape().ncols, inp.k, desc.seed ^ 0x16);
            let audit = span(tr, None, "planner.explain", idx as u64, |_| {
                planner.explain(&desc.name, a, &b, &obs)
            });
            let code = if audit.is_ok() { 1 } else { 2 };
            obs.flight
                .record(EventSite::SweepMatrix, code, idx as u64, 0);
            audit.map_err(|e| error_row(desc, e.to_string()))
        })
        .collect();
    let mut audits = Vec::with_capacity(outcomes.len());
    let mut errors = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(audit) => audits.push(audit),
            Err(row) => errors.push(row),
        }
    }
    span(tr, None, "ledger.emit", 0, |_| {
        let ledger = Ledger::from_sweep(inp.scale, inp.base_seed, inp.k, inp.tile, &audits, errors);
        let json = ledger.to_json();
        (ledger, json)
    })
}

/// One timed pass from cold engine pools, checked against the reference.
/// Returns the pass, its digests and its ledger JSON.
pub fn pass(inp: &Input, tr: Option<&Tracer>) -> (Pass, Vec<u32>, String) {
    nmt_engine::mem::reset_pools();
    let t0 = Instant::now();
    let (ledger, json) = sweep(inp, tr);
    let wall_s = t0.elapsed().as_secs_f64();
    let got = digests(inp, &ledger);
    let pass = Pass {
        wall_s,
        served: ledger.rows.len() as u64,
        check: reference::compare(&inp.expected, &got),
    };
    (pass, got, json)
}

/// At the default seed `sweep-small` must equal the committed
/// `results/BENCH_small.json` (every field but `perf`) and
/// `nmt_bench::sweep_ledger(Small)` byte for byte.
pub fn committed_ledger_checks(json: &str) -> Check {
    let mut check = Check::default();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/BENCH_small.json");
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Ledger::from_json(&text));
    check.op(match committed {
        Ok(mut l) => {
            l.perf = None;
            l.to_json() == json
        }
        Err(_) => false,
    });
    let library = nmt_bench::sweep_ledger(SuiteScale::Small);
    check.op(matches!(library, Ok(l) if l.to_json() == json));
    check
}

/// Counters one matrix's layer calls produce.
#[derive(Default)]
struct Counters {
    baseline_probes: u64,
    cstat_probes: u64,
    bstat_probes: u64,
    l2_hits: u64,
    farm_elements: u64,
    outputs: u64,
    bad_outputs: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.baseline_probes += o.baseline_probes;
        self.cstat_probes += o.cstat_probes;
        self.bstat_probes += o.bstat_probes;
        self.l2_hits += o.l2_hits;
        self.farm_elements += o.farm_elements;
        self.outputs += o.outputs;
        self.bad_outputs += o.bad_outputs;
    }
}

fn probes(s: &nmt_sim::KernelStats) -> u64 {
    s.l2_hits + s.l2_misses
}

/// Every public call `explain` makes for one matrix, each in its own span,
/// plus matrix generation and a release-mode check of all three kernel
/// outputs against `kernels::host::spmm_csr`.
fn layer_calls(
    inp: &Input,
    tr: &Tracer,
    root: Option<u64>,
    idx: usize,
    desc: &MatrixDesc,
) -> Result<Counters, String> {
    let t = Some(tr);
    let item = idx as u64;
    let err = |e: nmt_sim::SimError| format!("{}: {e}", desc.name);
    let a = span(t, root, "matgen.generate", item, |_| try_generate(desc))
        .map_err(|e| e.to_string())?;
    let b = span(t, root, "matgen.random_dense", item, |_| {
        random_dense(a.shape().ncols, inp.k, desc.seed ^ 0x16)
    });
    let planner = SpmmPlanner::new(inp.config.clone());
    span(t, root, "model.ssf", item, |_| planner.plan(&a));
    let gpu = || {
        span(t, root, "sim.gpu_new", item, |_| {
            Gpu::new(inp.config.gpu.clone())
        })
        .map_err(err)
    };

    let mut g = gpu()?;
    let base = span(t, root, "kernels.baseline", item, |_| {
        csrmm_cusparse(&mut g, &a, &b)
    })
    .map_err(err)?;
    span(t, root, "model.traffic", item, |_| {
        TrafficModel::measure(&a, inp.tile)
    });
    let dcsr = span(t, root, "formats.dcsr", item, |_| Dcsr::from_csr(&a));
    let mut g = gpu()?;
    let cstat = span(t, root, "kernels.cstat", item, |_| {
        dcsrmm_row_per_warp(&mut g, &dcsr, &b)
    })
    .map_err(err)?;
    let csc = span(t, root, "formats.csc", item, |_| a.to_csc());
    let mut g = gpu()?;
    let online = span(t, root, "kernels.bstat_online", item, |_| {
        bstat_tiled_dcsr_online(&mut g, &csc, &b, inp.tile, inp.tile)
    })
    .map_err(err)?;
    // The online kernel converts internally; the same conversion, timed
    // alone, is the engine's share of it.
    let farm = span(t, root, "engine.farm", item, |_| {
        convert_matrix_farm(
            &csc,
            inp.tile,
            inp.tile,
            FarmConfig::for_partitions(inp.config.gpu.num_partitions),
        )
    })
    .map_err(|e| format!("{}: {e}", desc.name))?;
    let farm_elements = farm.stats.elements;
    nmt_engine::mem::recycle_strips(farm.strips);

    let expect = span(t, root, "verify.reference", item, |_| spmm_csr(&a, &b));
    let outputs = [&base.c, &cstat.c, &online.run.c];
    let bad = span(t, root, "verify.compare", item, |_| {
        outputs
            .iter()
            .filter(|c| !c.approx_eq(&expect, VERIFY_TOL))
            .count()
    });
    Ok(Counters {
        baseline_probes: probes(&base.stats),
        cstat_probes: probes(&cstat.stats),
        bstat_probes: probes(&online.run.stats),
        l2_hits: base.stats.l2_hits + cstat.stats.l2_hits + online.run.stats.l2_hits,
        farm_elements,
        outputs: outputs.len() as u64,
        bad_outputs: bad as u64,
    })
}

/// One traced pass: the composite sweep with spans, then every layer call
/// per matrix. Returns the composite pass, its per-layer values and spans.
pub fn traced_pass(inp: &Input, tr: &Tracer) -> (Pass, Layers, Vec<Span>) {
    let (mut composite, _, _) = pass(inp, Some(tr));
    let pool_hits = pool_hit_rate();
    let results: Vec<Result<Counters, String>> = inp
        .descs
        .iter()
        .enumerate()
        .into_par_iter()
        .map(|(idx, desc)| {
            tr.span(None, "bench.layer_calls", idx as u64, |root| {
                layer_calls(inp, tr, root, idx, desc)
            })
        })
        .collect();
    let mut c = Counters::default();
    for r in &results {
        match r {
            Ok(one) => c.add(one),
            Err(e) => {
                eprintln!("layer calls failed: {e}");
                composite.check.op(false);
            }
        }
    }
    composite.check.attempted += c.outputs;
    composite.check.failed += c.bad_outputs;

    let spans = tr.drain();
    let ms = |name: &str| busy_ms(&spans, name);
    let explain = durations_ms(&spans, "planner.explain");
    let explain_ms: f64 = explain.iter().sum();
    let (farm, online) = (ms("engine.farm"), ms("kernels.bstat_online"));
    let parts_ms = ms("model.ssf")
        + ms("model.traffic")
        + ms("formats.dcsr")
        + ms("formats.csc")
        + ms("sim.gpu_new")
        + ms("kernels.baseline")
        + ms("kernels.cstat")
        + online;
    let probes = (c.baseline_probes + c.cstat_probes + c.bstat_probes) as f64;
    let per_probe = |ms: f64, n: u64| if n == 0 { 0.0 } else { ms * 1e6 / n as f64 };
    let mut l = Layers::new();
    l.insert(
        "matgen.ms",
        ms("matgen.generate") + ms("matgen.random_dense"),
    );
    l.insert("model.ssf_ms", ms("model.ssf"));
    l.insert("model.traffic_ms", ms("model.traffic"));
    l.insert("formats.ms", ms("formats.dcsr") + ms("formats.csc"));
    l.insert("engine.farm_ms", farm);
    l.insert("engine.farm_elements", c.farm_elements as f64);
    l.insert(
        "engine.farm_ns_per_element",
        per_probe(farm, c.farm_elements),
    );
    l.insert("engine.pool_hit_rate", pool_hits);
    l.insert("sim.gpu_new_ms", ms("sim.gpu_new"));
    l.insert("sim.probes", probes);
    l.insert(
        "sim.l2_hit_rate",
        if probes > 0.0 {
            c.l2_hits as f64 / probes
        } else {
            0.0
        },
    );
    l.insert("kernels.baseline_ms", ms("kernels.baseline"));
    l.insert("kernels.cstat_ms", ms("kernels.cstat"));
    l.insert("kernels.bstat_online_ms", online - farm);
    l.insert(
        "kernels.baseline_ns_per_probe",
        per_probe(ms("kernels.baseline"), c.baseline_probes),
    );
    l.insert(
        "kernels.cstat_ns_per_probe",
        per_probe(ms("kernels.cstat"), c.cstat_probes),
    );
    l.insert(
        "kernels.bstat_ns_per_probe",
        per_probe(online - farm, c.bstat_probes),
    );
    l.insert("planner.explain_ms", explain_ms);
    l.insert("planner.explain_p50_ms", median(&explain));
    l.insert("planner.explain_p90_ms", percentile(&explain, 0.9));
    l.insert("planner.self_ms", explain_ms - parts_ms);
    l.insert("verify.ms", ms("verify.reference") + ms("verify.compare"));
    l.insert("verify.failed", c.bad_outputs as f64);
    l.insert("ledger.ms", ms("ledger.emit"));
    (composite, l, spans)
}

/// Allocation counts per layer, from one serial pass over the matrices
/// with counting on (serial, so process-wide totals belong to one call).
pub fn alloc_pass(inp: &Input) -> Result<Layers, String> {
    nmt_engine::mem::reset_pools();
    let (mut matgen, mut farm_allocs, mut kernels) = (0, 0, 0);
    for desc in &inp.descs {
        let err = |e: nmt_sim::SimError| format!("{}: {e}", desc.name);
        let (a, n) = allocs(|| try_generate(desc));
        let a = a.map_err(|e| e.to_string())?;
        let (b, m) = allocs(|| random_dense(a.shape().ncols, inp.k, desc.seed ^ 0x16));
        matgen += n + m;
        let mut g = Gpu::new(inp.config.gpu.clone()).map_err(err)?;
        let (r, n) = allocs(|| csrmm_cusparse(&mut g, &a, &b));
        r.map_err(err)?;
        let dcsr = Dcsr::from_csr(&a);
        let mut g = Gpu::new(inp.config.gpu.clone()).map_err(err)?;
        let (r, m) = allocs(|| dcsrmm_row_per_warp(&mut g, &dcsr, &b));
        r.map_err(err)?;
        let csc = a.to_csc();
        let mut g = Gpu::new(inp.config.gpu.clone()).map_err(err)?;
        let (r, o) = allocs(|| bstat_tiled_dcsr_online(&mut g, &csc, &b, inp.tile, inp.tile));
        r.map_err(err)?;
        kernels += n + m + o;
        let (r, n) = allocs(|| {
            convert_matrix_farm(
                &csc,
                inp.tile,
                inp.tile,
                FarmConfig::for_partitions(inp.config.gpu.num_partitions),
            )
        });
        farm_allocs += n;
        nmt_engine::mem::recycle_strips(r.map_err(|e| e.to_string())?.strips);
    }
    let mut l = Layers::new();
    l.insert("matgen.allocs", matgen as f64);
    l.insert("engine.farm_allocs", farm_allocs as f64);
    l.insert("kernels.allocs", kernels as f64);
    Ok(l)
}
