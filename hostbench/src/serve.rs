//! `serve-hot` and `serve-churn`: batch replays through `serve_trace`.
//!
//! The benchmark builds its own request traces rather than using
//! `synth_trace`, whose uniform density grows with the pool index (it
//! exceeds 1 from index 396 on, and the cost per request drifts). Here
//! every operand takes one of 16 fixed generator settings inside the
//! suite's sparse range, so each input variant does the same work; only
//! the generator seeds change. Four requests arrive per tick and the
//! broker serves four per tick, so admission never rejects.
//!
//! * `serve-hot`: 16 matrices, requested round-robin, with a cache budget
//!   above the working set: after 16 cold plans every request hits.
//! * `serve-churn`: every request names a matrix of its own (distinct
//!   generator seeds; recording checks the fingerprints are distinct), and
//!   the budget holds about one artifact: every request plans, converts
//!   and evicts.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nmt::{MatrixFingerprint, SpmmPlanner};
use nmt_engine::ConversionArtifact;
use nmt_formats::{DenseMatrix, SparseMatrix};
use nmt_kernels::host::spmm_csr;
use nmt_kernels::{bstat_tiled_dcsr_offline, dcsrmm_row_per_warp, KernelRun};
use nmt_matgen::{generators, random_dense};
use nmt_model::ssf::Choice;
use nmt_obs::ObsContext;
use nmt_serve::{serve_trace, BrokerConfig, Request, ResponseRow, ServeLedger};
use nmt_sim::Gpu;
use rayon::prelude::*;

use crate::reference::{self, Check, Fnv};
use crate::tracer::{busy_ms, span, Span, Tracer};
use crate::{allocs, pool_hit_rate, Layers, Pass, VERIFY_TOL};

/// Matrix dimension of every request.
const N: u64 = 512;
/// Requests arriving per tick; equal to the broker's service rate.
const ARRIVALS_PER_TICK: usize = 4;
const TENANTS: usize = 3;

/// The 16 generator settings `(gen, density or fill, exponent / burst
/// length / half-bandwidth)`. Densities span the suite's 3e-3 … 3e-2
/// range. At n = 512 the SSF threshold sends only dense bands to
/// B-stationary; the two `banded` settings with fill 0.8 and half-width
/// 10 (3.3% dense, just above that range) are the sparsest that go there,
/// so the offline B-stationary kernel and tiled conversions run too.
const SETTINGS: [(&str, f64, f64); 16] = [
    ("uniform", 3e-3, 0.0),
    ("zipf-rows", 3e-3, 1.0),
    ("row-bursts", 1e-2, 8.0),
    ("banded", 0.5, 5.0),
    ("uniform", 1e-2, 0.0),
    ("zipf-rows", 1e-2, 0.6),
    ("row-bursts", 1e-2, 32.0),
    ("banded", 0.8, 10.0),
    ("uniform", 3e-2, 0.0),
    ("zipf-rows", 1e-2, 1.4),
    ("row-bursts", 3e-2, 8.0),
    ("banded", 0.3, 15.0),
    ("uniform", 1e-2, 0.0),
    ("zipf-rows", 3e-2, 1.0),
    ("row-bursts", 3e-2, 32.0),
    ("banded", 0.8, 10.0),
];

/// The two trace shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Hot,
    Churn,
}

impl Shape {
    fn requests(self) -> usize {
        match self {
            Shape::Hot => 1024,
            Shape::Churn => 512,
        }
    }

    fn operands(self) -> usize {
        match self {
            Shape::Hot => 16,
            Shape::Churn => self.requests(),
        }
    }

    fn k(self) -> u64 {
        match self {
            Shape::Hot => 32,
            Shape::Churn => 8,
        }
    }

    fn cache_budget_bytes(self) -> u64 {
        match self {
            // Above the 16-artifact working set: no evictions.
            Shape::Hot => 4 << 20,
            // About one artifact: every insert evicts its predecessor.
            Shape::Churn => 64 << 10,
        }
    }

    fn operand_of(self, request: usize, variant: u64) -> usize {
        match self {
            // Stride 5 is coprime with 16: every matrix gets exactly
            // requests/16 requests, interleaved.
            Shape::Hot => (request * 5 + variant as usize * 3) % 16,
            Shape::Churn => request,
        }
    }
}

/// SplitMix64: distinct states give distinct outputs.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one replay needs, built in set-up.
pub struct Input {
    shape: Shape,
    trace: Vec<Request>,
    /// Operand index of each request, by request id.
    operand: Vec<usize>,
    /// How many requests name each operand.
    uses: Vec<usize>,
    config: BrokerConfig,
    /// Reference digests, one per operand (empty while recording).
    expected: Vec<u32>,
}

impl Input {
    /// Requests in one replay.
    pub fn ops(&self) -> u64 {
        self.trace.len() as u64
    }
}

/// Set-up: the request trace, the broker configuration and the reference.
pub fn setup(
    workload: &str,
    shape: Shape,
    variant: u64,
    with_reference: bool,
) -> Result<Input, String> {
    let operand: Vec<usize> = (0..shape.requests())
        .map(|i| shape.operand_of(i, variant))
        .collect();
    let mut uses = vec![0; shape.operands()];
    for &o in &operand {
        uses[o] += 1;
    }
    let trace = operand
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            let (gen, density, exponent) = SETTINGS[o % SETTINGS.len()];
            let seed = splitmix((variant << 32) ^ o as u64);
            Request {
                id: i as u64,
                tick: (i / ARRIVALS_PER_TICK) as u64,
                tenant: format!("t{}", i % TENANTS),
                gen: gen.to_string(),
                n: N,
                density,
                exponent,
                seed,
                k: shape.k(),
                b_seed: splitmix(seed),
            }
        })
        .collect();
    let mut config = BrokerConfig::test_small();
    config.queue_depth = 4 * ARRIVALS_PER_TICK;
    config.service_rate = ARRIVALS_PER_TICK;
    config.cache_budget_bytes = shape.cache_budget_bytes();
    let expected = if with_reference {
        reference::load(workload, variant)?
    } else {
        Vec::new()
    };
    Ok(Input {
        shape,
        trace,
        operand,
        uses,
        config,
        expected,
    })
}

fn choice_label(c: Choice) -> &'static str {
    match c {
        Choice::BStationary => "b-stationary",
        Choice::CStationary => "c-stationary",
    }
}

fn row_digest(r: &ResponseRow) -> u32 {
    Fnv::new()
        .str(&r.key)
        .str(&r.kind)
        .str(&r.choice)
        .u64(r.sim_ns)
        .u64(r.checksum)
        .digest()
}

/// FNV-1a over the output's f32 bit patterns: the broker's response
/// checksum.
fn checksum(c: &DenseMatrix) -> u64 {
    let mut h = Fnv::new();
    for v in c.as_slice() {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Check every request's response against its operand's reference digest;
/// a rejected request fails. Also returns the per-operand digests seen.
fn verify(inp: &Input, ledger: &ServeLedger) -> (Check, Vec<u32>) {
    let rows: BTreeMap<u64, &ResponseRow> = ledger.responses.iter().map(|r| (r.id, r)).collect();
    let mut seen = vec![0u32; inp.shape.operands()];
    let mut check = Check::default();
    for req in &inp.trace {
        let o = inp.operand[req.id as usize];
        let digest = rows.get(&req.id).map(|r| row_digest(r));
        if let Some(d) = digest {
            seen[o] = d;
        }
        check
            .op(digest.is_some()
                && (inp.expected.is_empty() || inp.expected.get(o) == digest.as_ref()));
    }
    (check, seen)
}

/// One timed replay from cold engine pools. Returns the pass, the
/// per-operand digests and the ledger.
pub fn pass(inp: &Input, tr: Option<&Tracer>) -> Result<(Pass, Vec<u32>, ServeLedger), String> {
    nmt_engine::mem::reset_pools();
    let t0 = Instant::now();
    let ledger = span(tr, None, "serve.trace", 0, |_| {
        serve_trace(&inp.trace, &inp.config, &ObsContext::disabled(), true)
    })
    .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (check, seen) = verify(inp, &ledger);
    let pass = Pass {
        wall_s,
        served: ledger.counts.admitted,
        check,
    };
    Ok((pass, seen, ledger))
}

/// Recording also checks the workload's premise: nothing is rejected,
/// churn fingerprints are all distinct and hot has exactly 16.
pub fn premise(inp: &Input, ledger: &ServeLedger) -> Result<(), String> {
    let c = &ledger.counts;
    if c.admitted != c.requests || c.unique_plans != inp.shape.operands() as u64 {
        return Err(format!(
            "admitted {} of {} requests with {} distinct plans; expected {} plans",
            c.admitted,
            c.requests,
            c.unique_plans,
            inp.shape.operands()
        ));
    }
    Ok(())
}

/// Counters one request's layer calls produce.
#[derive(Default)]
struct Counters {
    cstat_probes: u64,
    offline_probes: u64,
    l2_hits: u64,
    outputs: u64,
    bad_outputs: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.cstat_probes += o.cstat_probes;
        self.offline_probes += o.offline_probes;
        self.l2_hits += o.l2_hits;
        self.outputs += o.outputs;
        self.bad_outputs += o.bad_outputs;
    }
}

type Plan = Arc<(Choice, ConversionArtifact)>;

/// Run a request's kernel on the plan's artifact, as the broker does.
fn run_kernel(
    tr: Option<&Tracer>,
    root: Option<u64>,
    item: u64,
    gpu: &mut Gpu,
    plan: &Plan,
    b: &DenseMatrix,
) -> Result<KernelRun, String> {
    match &plan.1 {
        ConversionArtifact::RowMajor(d) => span(tr, root, "kernels.cstat", item, |_| {
            dcsrmm_row_per_warp(gpu, d, b)
        }),
        ConversionArtifact::Tiled(t) => span(tr, root, "kernels.bstat_offline", item, |_| {
            bstat_tiled_dcsr_offline(gpu, t, b)
        }),
    }
    .map_err(|e| e.to_string())
}

/// Hand a plan back: keep it while later requests reuse its operand,
/// otherwise return its buffers to the engine pools as an eviction does.
fn release(plans: &mut BTreeMap<usize, Plan>, uses: usize, operand: usize, plan: Plan) {
    if uses > 1 {
        plans.entry(operand).or_insert(plan);
    } else if let Ok((_, artifact)) = Arc::try_unwrap(plan) {
        artifact.recycle();
    }
}

/// Every public call `serve_trace` makes for one request, each in its own
/// span: regenerate, fingerprint, plan and convert (cold requests only),
/// the dense operand, a fresh GPU and the kernel. The output is checked
/// against `spmm_csr` and against the ledger's key, checksum and `sim_ns`.
fn layer_calls(
    inp: &Input,
    tr: &Tracer,
    root: Option<u64>,
    req: &Request,
    row: &ResponseRow,
    plans: &Mutex<BTreeMap<usize, Plan>>,
) -> Result<Counters, String> {
    let t = Some(tr);
    let item = req.id;
    let cfg = &inp.config.planner;
    let desc = req.desc()?;
    let a = span(t, root, "matgen.generate", item, |_| {
        generators::generate(&desc)
    });
    let fp = span(t, root, "serve.fingerprint", item, |_| {
        MatrixFingerprint::of(&a, cfg.tile_w)
    });
    let o = inp.operand[req.id as usize];
    let cached = plans.lock().map_err(|e| e.to_string())?.get(&o).cloned();
    let plan = match cached {
        Some(plan) => plan,
        None => {
            let planner = SpmmPlanner::new(cfg.clone());
            let (_, choice) = span(t, root, "model.ssf", item, |_| planner.plan(&a));
            let artifact = span(t, root, "formats.artifact", item, |_| match choice {
                Choice::BStationary => ConversionArtifact::tiled(&a, cfg.tile_w, cfg.tile_h),
                Choice::CStationary => Ok(ConversionArtifact::row_major(&a)),
            })
            .map_err(|e| format!("{e:?}"))?;
            Arc::new((choice, artifact))
        }
    };
    let b = span(t, root, "matgen.random_dense", item, |_| {
        random_dense(a.shape().ncols, req.k as usize, req.b_seed)
    });
    let mut gpu = span(t, root, "sim.gpu_new", item, |_| Gpu::new(cfg.gpu.clone()))
        .map_err(|e| e.to_string())?;
    let run = run_kernel(t, root, item, &mut gpu, &plan, &b)?;
    let expect = span(t, root, "verify.reference", item, |_| spmm_csr(&a, &b));
    let ok = span(t, root, "verify.compare", item, |_| {
        run.c.approx_eq(&expect, VERIFY_TOL)
            && checksum(&run.c) == row.checksum
            && run.stats.total_ns as u64 == row.sim_ns
            && fp.key() == row.key
            && choice_label(plan.0) == row.choice
    });
    let tiled = matches!(plan.1, ConversionArtifact::Tiled(_));
    release(
        &mut *plans.lock().map_err(|e| e.to_string())?,
        inp.uses[o],
        o,
        plan,
    );
    let probes = run.stats.l2_hits + run.stats.l2_misses;
    Ok(Counters {
        cstat_probes: if tiled { 0 } else { probes },
        offline_probes: if tiled { probes } else { 0 },
        l2_hits: run.stats.l2_hits,
        outputs: 1,
        bad_outputs: u64::from(!ok),
    })
}

/// One traced pass: the composite replay with a span, then every layer
/// call per request — cold requests first (they build the plans that
/// cached requests reuse), then the rest.
pub fn traced_pass(
    inp: &Input,
    tr: &Tracer,
    threads: usize,
) -> Result<(Pass, Layers, Vec<Span>), String> {
    let (mut composite, _, ledger) = pass(inp, Some(tr))?;
    let pool_hits = pool_hit_rate();
    let rows: BTreeMap<u64, &ResponseRow> = ledger.responses.iter().map(|r| (r.id, r)).collect();
    let plans = Mutex::new(BTreeMap::new());
    let mut c = Counters::default();
    for cold in [true, false] {
        let stage: Vec<(&Request, &ResponseRow)> = inp
            .trace
            .iter()
            .filter_map(|req| rows.get(&req.id).map(|row| (req, *row)))
            .filter(|(_, row)| (row.plan_source == "cold") == cold)
            .collect();
        let results: Vec<Result<Counters, String>> = stage
            .into_par_iter()
            .map(|(req, row)| {
                tr.span(None, "bench.layer_calls", req.id, |root| {
                    layer_calls(inp, tr, root, req, row, &plans)
                })
            })
            .collect();
        for r in &results {
            match r {
                Ok(one) => c.add(one),
                Err(e) => {
                    eprintln!("layer calls failed: {e}");
                    composite.check.op(false);
                }
            }
        }
    }
    for (_, plan) in std::mem::take(&mut *plans.lock().map_err(|e| e.to_string())?) {
        if let Ok((_, artifact)) = Arc::try_unwrap(plan) {
            artifact.recycle();
        }
    }
    composite.check.attempted += c.outputs;
    composite.check.failed += c.bad_outputs;

    let spans = tr.drain();
    let ms = |name: &str| busy_ms(&spans, name);
    let (cstat, offline) = (ms("kernels.cstat"), ms("kernels.bstat_offline"));
    let parts_ms = ms("matgen.generate")
        + ms("matgen.random_dense")
        + ms("serve.fingerprint")
        + ms("model.ssf")
        + ms("formats.artifact")
        + ms("sim.gpu_new")
        + cstat
        + offline;
    let probes = (c.cstat_probes + c.offline_probes) as f64;
    let per_probe = |ms: f64, n: u64| if n == 0 { 0.0 } else { ms * 1e6 / n as f64 };
    let stats = ledger
        .stats
        .clone()
        .ok_or("serve_trace returned no stats")?;
    let lookups = stats.cache_hits + stats.cache_computes;
    let mut l = Layers::new();
    l.insert(
        "matgen.ms",
        ms("matgen.generate") + ms("matgen.random_dense"),
    );
    l.insert("model.ssf_ms", ms("model.ssf"));
    l.insert("formats.ms", ms("formats.artifact"));
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
    l.insert("kernels.cstat_ms", cstat);
    l.insert("kernels.bstat_offline_ms", offline);
    l.insert(
        "kernels.cstat_ns_per_probe",
        per_probe(cstat, c.cstat_probes),
    );
    l.insert(
        "kernels.bstat_ns_per_probe",
        per_probe(offline, c.offline_probes),
    );
    l.insert("verify.ms", ms("verify.reference") + ms("verify.compare"));
    l.insert("verify.failed", c.bad_outputs as f64);
    l.insert("serve.fingerprint_ms", ms("serve.fingerprint"));
    // Busy time of the replay: its workers are saturated from the first
    // dispatch to the last, so threads × wall; idle tail time counts as
    // broker time.
    l.insert(
        "serve.broker_self_ms",
        threads as f64 * ms("serve.trace") - parts_ms,
    );
    l.insert("serve.cache_hits", stats.cache_hits as f64);
    l.insert("serve.cache_computes", stats.cache_computes as f64);
    l.insert("serve.cache_waits", stats.cache_waits as f64);
    l.insert("serve.cache_evictions", stats.cache_evictions as f64);
    l.insert(
        "serve.hit_rate",
        if lookups > 0 {
            stats.cache_hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    l.insert("serve.hit_p50_ns", stats.hit_p50_ns as f64);
    l.insert("serve.miss_p50_ns", stats.miss_p50_ns as f64);
    Ok((composite, l, spans))
}

/// Allocation counts per layer, from one serial pass over the requests
/// with counting on.
pub fn alloc_pass(inp: &Input) -> Result<Layers, String> {
    nmt_engine::mem::reset_pools();
    let cfg = &inp.config.planner;
    let planner = SpmmPlanner::new(cfg.clone());
    let mut plans: BTreeMap<usize, Plan> = BTreeMap::new();
    let (mut matgen, mut fingerprint, mut kernels) = (0, 0, 0);
    for req in &inp.trace {
        let desc = req.desc()?;
        let (a, n) = allocs(|| generators::generate(&desc));
        let (b, m) = allocs(|| random_dense(a.shape().ncols, req.k as usize, req.b_seed));
        matgen += n + m;
        let (_, n) = allocs(|| MatrixFingerprint::of(&a, cfg.tile_w));
        fingerprint += n;
        let o = inp.operand[req.id as usize];
        let plan = match plans.get(&o) {
            Some(p) => p.clone(),
            None => {
                let (_, choice) = planner.plan(&a);
                let artifact = match choice {
                    Choice::BStationary => ConversionArtifact::tiled(&a, cfg.tile_w, cfg.tile_h)
                        .map_err(|e| format!("{e:?}"))?,
                    Choice::CStationary => ConversionArtifact::row_major(&a),
                };
                Arc::new((choice, artifact))
            }
        };
        let mut gpu = Gpu::new(cfg.gpu.clone()).map_err(|e| e.to_string())?;
        let (run, n) = allocs(|| run_kernel(None, None, req.id, &mut gpu, &plan, &b));
        run?;
        kernels += n;
        release(&mut plans, inp.uses[o], o, plan);
    }
    let mut l = Layers::new();
    l.insert("matgen.allocs", matgen as f64);
    l.insert("serve.allocs", fingerprint as f64);
    l.insert("kernels.allocs", kernels as f64);
    Ok(l)
}
