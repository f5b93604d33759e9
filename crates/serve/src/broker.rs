//! The request broker: deterministic admission, parallel execution.
//!
//! [`serve_trace`] runs in two phases so the response ledger is a pure
//! function of `(trace, config)` no matter how many worker threads
//! execute it:
//!
//! * **Phase A — admission (sequential, pure).** Arrivals are folded in
//!   tick by tick. A request whose spec cannot resolve is rejected
//!   `malformed`; one that finds the bounded queue full is rejected
//!   `queue-full`. Admitted requests wait in per-tenant FIFOs, and each
//!   tick dispatches up to `service_rate` of them by deficit round-robin
//!   over tenants in name order — a burst from one tenant cannot starve
//!   another. The resulting *dispatch order* is the schedule every
//!   downstream artifact is keyed on.
//!
//! * **Phase B — execution (parallel).** Dispatched requests fan out
//!   over rayon in dispatch-order chunks of two, and a task executes its
//!   requests in order. The first request for an operand spec generates
//!   A, fingerprints it ([`MatrixFingerprint`]) and remembers the plan key
//!   for that spec; a later request with the same spec takes the key
//!   from that memo and neither generates nor profiles A. A generator is
//!   a pure function of its spec and the key a pure function of A's
//!   bytes, so the memo cannot move a key. Each request then acquires
//!   the plan through the single-flight [`PlanCache`] — so N concurrent
//!   requests for one matrix cost one SSF profile + one conversion. A
//!   plan that was evicted is rebuilt from a regenerated A, whose key is
//!   checked against the memoized one. The kernel then runs
//!   against the cached [`ConversionArtifact`]: the plan's first run with
//!   a given `k` simulates it on a fresh GPU and memoizes its
//!   `KernelStats`; later runs replay the same kernel values-only and
//!   return the memoized stats ([`CachedPlan::run`]). Each B is dropped
//!   as soon as its run returns; the task then checksums both C's in one
//!   interleaved pass ([`checksums`]): one FNV-1a chain is bound by
//!   multiply latency, and two independent chains take about the time of
//!   one.
//!   Simulated time and the result checksum are schedule-invariant.
//!
//! Which request *actually* populated the cache is a race; ledgers
//! instead carry the canonical label (first dispatch of a fingerprint =
//! `cold`). The true hit/wait split, wall-clock latencies, and
//! allocation counts land in the optional stats section and in
//! `serve.*` metrics/flight events.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, PoisonError};

use nmt::fnv::checksums;
use nmt::{MatrixFingerprint, PlannerConfig, SpmmPlanner};
use nmt_engine::ConversionArtifact;
use nmt_formats::{Csr, DenseMatrix};
use nmt_kernels::{run_artifact, KernelRun};
use nmt_matgen::{generators, random_dense, MatrixDesc};
use nmt_model::ssf::{Choice, SsfProfile};
use nmt_obs::{AllocScope, EventSite, ObsContext};
use nmt_sim::{Gpu, GpuConfig, KernelStats, SimError};
use rayon::prelude::*;

use crate::cache::{Acquire, PlanCache};
use crate::ledger::{
    RejectionRow, ResponseRow, ServeConfigEcho, ServeCounts, ServeLedger, ServeStats,
    SERVE_SCHEMA_VERSION,
};
use crate::trace::Request;

/// Broker knobs. Everything here is echoed into the ledger except the
/// planner's GPU model (covered by the bench ledger's config echo) —
/// and, pointedly, *no* thread count.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Admission queue capacity across all tenants.
    pub queue_depth: usize,
    /// Deficit-round-robin credit added per tenant per pass (≥ 1).
    pub quantum: u64,
    /// Requests dispatched per tick (≥ 1).
    pub service_rate: usize,
    /// Plan-cache byte budget.
    pub cache_budget_bytes: u64,
    /// Planner configuration (tile geometry, GPU model, threshold).
    pub planner: PlannerConfig,
}

impl BrokerConfig {
    /// Small deterministic default for tests and smoke replays.
    pub fn test_small() -> Self {
        BrokerConfig {
            queue_depth: 32,
            quantum: 2,
            service_rate: 4,
            cache_budget_bytes: 4 << 20,
            planner: PlannerConfig::test_small(),
        }
    }

    /// The ledger's config echo.
    pub fn echo(&self) -> ServeConfigEcho {
        ServeConfigEcho {
            queue_depth: self.queue_depth as u64,
            quantum: self.quantum,
            service_rate: self.service_rate as u64,
            cache_budget_bytes: self.cache_budget_bytes,
            tile_w: self.planner.tile_w as u64,
            tile_h: self.planner.tile_h as u64,
        }
    }
}

/// Service-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The broker configuration cannot make progress.
    Config(String),
    /// A simulator error while executing an admitted request.
    Sim(String),
    /// A conversion error while building a plan artifact.
    Convert(String),
    /// An operand regenerated to rebuild an evicted plan fingerprinted to
    /// a different key than the one memoized for its spec.
    OperandKey {
        /// The key memoized for the spec.
        memoized: String,
        /// The key of the regenerated operand.
        regenerated: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "serve config: {m}"),
            ServeError::Sim(m) => write!(f, "serve sim: {m}"),
            ServeError::Convert(m) => write!(f, "serve convert: {m}"),
            ServeError::OperandKey {
                memoized,
                regenerated,
            } => write!(
                f,
                "serve operand: regenerated key {regenerated} differs from memoized {memoized}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(format!("{e:?}"))
    }
}

/// What the plan cache stores per fingerprint: the decision, the
/// pre-converted operand it selects, and the simulated cost of running
/// the kernel against it.
#[derive(Debug)]
pub struct CachedPlan {
    /// Heuristic decision for this matrix.
    pub choice: Choice,
    /// The converted operand the offline kernels execute against.
    pub artifact: ConversionArtifact,
    /// The `KernelStats` of the first run against `artifact`, keyed by
    /// `k`. Exact: no accounting call reads a value of A or B, so a
    /// launch's stats are a function of the artifact, `k` and the GPU
    /// config — one config per `serve_trace`, and serve GPUs never carry
    /// a fault plan. Not charged to the cache budget (eviction order is
    /// unchanged); dropped with the plan.
    sim_memo: Mutex<BTreeMap<u64, KernelStats>>,
}

impl CachedPlan {
    /// A plan with an empty simulation memo.
    pub fn new(choice: Choice, artifact: ConversionArtifact) -> Self {
        Self {
            choice,
            artifact,
            sim_memo: Mutex::new(BTreeMap::new()),
        }
    }

    /// Run the dataflow-matched kernel against `b`. The first run with a
    /// given `k = b.ncols()` simulates on a fresh GPU and memoizes its
    /// stats; later runs replay the kernel values-only on
    /// [`Gpu::replay`], so C is bit-identical and the stats are the
    /// memoized ones. Returns the run and whether it replayed.
    ///
    /// Concurrent first runs may both simulate; each stores identical
    /// stats, so which one fills the memo does not matter.
    pub fn run(&self, config: &GpuConfig, b: &DenseMatrix) -> Result<(KernelRun, bool), SimError> {
        let k = b.ncols() as u64;
        let memo = self.memo().get(&k).cloned();
        let replayed = memo.is_some();
        let mut gpu = match memo {
            Some(stats) => Gpu::replay(config.clone(), stats)?,
            None => Gpu::new(config.clone())?,
        };
        // A fault plan perturbs accounting per launch, which would make
        // the memo inexact.
        debug_assert!(gpu.fault_plan().is_none(), "serve GPUs carry no fault plan");
        let run = run_artifact(&mut gpu, &self.artifact, b)?;
        if !replayed {
            self.memo().entry(k).or_insert_with(|| run.stats.clone());
        }
        Ok((run, replayed))
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, KernelStats>> {
        // The map is valid at every step; a poisoned lock only means
        // another worker unwound.
        self.sim_memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Phase-A output: the deterministic schedule.
#[derive(Debug)]
struct Schedule {
    /// Admitted requests in dispatch order.
    dispatched: Vec<Request>,
    /// Rejections, in arrival order.
    rejections: Vec<RejectionRow>,
    /// Queue high-water mark.
    max_queue_depth: usize,
    /// Ticks simulated (arrival span + drain).
    ticks: u64,
}

/// Phase A: fold arrivals through the bounded queue and the DRR
/// dispatcher. Pure: no clocks, no threads, BTreeMap order throughout.
fn schedule(trace: &[Request], config: &BrokerConfig, obs: &ObsContext) -> Schedule {
    let mut arrivals: Vec<&Request> = trace.iter().collect();
    arrivals.sort_by_key(|r| (r.tick, r.id));

    let mut queues: BTreeMap<String, VecDeque<Request>> = BTreeMap::new();
    let mut deficits: BTreeMap<String, u64> = BTreeMap::new();
    let mut queued = 0usize;
    let mut next = 0usize;
    let mut tick = 0u64;
    let mut out = Schedule {
        dispatched: Vec::with_capacity(trace.len()),
        rejections: Vec::new(),
        max_queue_depth: 0,
        ticks: 0,
    };
    let last_arrival = arrivals.last().map_or(0, |r| r.tick);

    while tick <= last_arrival || queued > 0 {
        while next < arrivals.len() && arrivals[next].tick <= tick {
            let req = arrivals[next];
            next += 1;
            if let Err(detail) = req.desc() {
                obs.flight
                    .record(EventSite::ServeAdmission, 2, req.id, queued as u64);
                out.rejections.push(RejectionRow {
                    id: req.id,
                    tenant: req.tenant.clone(),
                    tick,
                    reason: format!("malformed: {detail}"),
                });
            } else if queued == config.queue_depth {
                obs.flight
                    .record(EventSite::ServeAdmission, 1, req.id, queued as u64);
                out.rejections.push(RejectionRow {
                    id: req.id,
                    tenant: req.tenant.clone(),
                    tick,
                    reason: "queue-full".into(),
                });
            } else {
                queued += 1;
                obs.flight
                    .record(EventSite::ServeAdmission, 0, req.id, queued as u64);
                queues
                    .entry(req.tenant.clone())
                    .or_default()
                    .push_back(req.clone());
            }
        }
        out.max_queue_depth = out.max_queue_depth.max(queued);

        // Deficit round-robin over tenants in name order. Each pass
        // grants every backlogged tenant `quantum` credits; an idle
        // tenant forfeits its balance (classic DRR, no credit hoarding).
        let mut slots = config.service_rate;
        while slots > 0 && queued > 0 {
            let mut progressed = false;
            for (tenant, q) in queues.iter_mut() {
                if q.is_empty() {
                    deficits.insert(tenant.clone(), 0);
                    continue;
                }
                let credit = deficits.entry(tenant.clone()).or_insert(0);
                *credit += config.quantum;
                while *credit >= 1 && slots > 0 {
                    let Some(req) = q.pop_front() else { break };
                    *credit -= 1;
                    slots -= 1;
                    queued -= 1;
                    progressed = true;
                    out.dispatched.push(req);
                }
                if slots == 0 {
                    break;
                }
            }
            if !progressed {
                break;
            }
        }

        out.ticks += 1;
        tick += 1;
    }
    out
}

/// The fields of a request that pin its sparse operand: exactly what
/// [`Request::desc`] reads to build A (`k` is only validated there). The
/// f64 knobs are keyed by their bits, so equal keys mean equal specs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct OperandSpec {
    gen: String,
    n: u64,
    density: u64,
    exponent: u64,
    seed: u64,
}

impl OperandSpec {
    fn of(req: &Request) -> Self {
        OperandSpec {
            gen: req.gen.clone(),
            n: req.n,
            density: req.density.to_bits(),
            exponent: req.exponent.to_bits(),
            seed: req.seed,
        }
    }
}

/// Plan key per operand spec, for one `serve_trace` call. Holds at most
/// one entry per distinct spec in the trace.
type OperandKeys = Mutex<BTreeMap<OperandSpec, String>>;

/// Phase-B output for one request (pre-labelling).
struct Outcome {
    request: Request,
    dispatch: u64,
    key: String,
    kind: &'static str,
    choice: Choice,
    sim_ns: u64,
    /// FNV-1a of C; [`execute_pair`] sets it once it has checksummed the
    /// C's of its requests together.
    checksum: u64,
    how: Acquire,
    acquire_ns: u64,
    acquire_allocs: u64,
    evicted: u64,
    replayed: bool,
    /// The plan key came from the operand memo: A was not generated.
    operand_reused: bool,
}

/// Dispatched requests per Phase-B task. One checksum chain is bound by
/// multiply latency, so a task checksums its requests' C's in one
/// interleaved pass ([`checksums`]).
const PAIR: usize = 2;

/// Generate A from its descriptor and fingerprint it, keeping the
/// profile the fingerprint digested.
fn build_operand(
    desc: &MatrixDesc,
    tile_w: usize,
) -> Result<(Csr, String, SsfProfile), ServeError> {
    let a = generators::try_generate(desc)
        .map_err(|e| ServeError::Config(format!("dispatched malformed request: {e}")))?;
    let (fp, profile) = MatrixFingerprint::profiled(&a, tile_w);
    Ok((a, fp.key(), profile))
}

/// Execute up to [`PAIR`] dispatched requests in dispatch order, then
/// checksum their C's in one interleaved pass. Each B is dropped as soon
/// as its run returns, so a task holds at most one B and [`PAIR`] C's.
fn execute_pair(
    pair: &[(usize, Request)],
    planner: &SpmmPlanner,
    cache: &PlanCache<CachedPlan>,
    operands: &OperandKeys,
    obs: &ObsContext,
) -> Vec<Result<Outcome, ServeError>> {
    let runs: Vec<Result<(Outcome, DenseMatrix), ServeError>> = pair
        .iter()
        .map(|(dispatch, req)| execute_one(*dispatch, req, planner, cache, operands, obs))
        .collect();
    // A missing partner (odd tail, failed run) is an empty slice: its
    // chain never starts and the other finishes alone.
    let mut cs: [&[f32]; PAIR] = [&[]; PAIR];
    for (c, run) in cs.iter_mut().zip(&runs) {
        if let Ok((_, matrix)) = run {
            *c = matrix.as_slice();
        }
    }
    let sums = checksums(cs);
    runs.into_iter()
        .zip(sums)
        .map(|(run, checksum)| {
            run.map(|(outcome, _c)| Outcome {
                checksum,
                ..outcome
            })
        })
        .collect()
}

/// Execute one dispatched request against the shared plan cache. Returns
/// the outcome, with its checksum still unset, and the run's C.
fn execute_one(
    dispatch: usize,
    req: &Request,
    planner: &SpmmPlanner,
    cache: &PlanCache<CachedPlan>,
    operands: &OperandKeys,
    obs: &ObsContext,
) -> Result<(Outcome, DenseMatrix), ServeError> {
    let cfg = planner.config();
    let desc = req
        .desc()
        .map_err(|m| ServeError::Config(format!("dispatched malformed request: {m}")))?;
    let spec = OperandSpec::of(req);
    let memoized = lock(operands).get(&spec).cloned();
    let operand_reused = memoized.is_some();
    // A spec hit leaves A unbuilt; the plan compute below builds it only
    // if the plan itself was evicted.
    let (key, mut built) = match memoized {
        Some(key) => (key, None),
        None => {
            let (a, key, profile) = build_operand(&desc, cfg.tile_w)?;
            lock(operands).insert(spec, key.clone());
            (key, Some((a, profile)))
        }
    };

    let t0 = obs.flight.now_ns();
    let scope = AllocScope::begin();
    let lookup = cache.get_or_compute(&key, || -> Result<(CachedPlan, u64), ServeError> {
        let (a, profile) = match built.take() {
            Some(operand) => operand,
            None => {
                let (a, regenerated, profile) = build_operand(&desc, cfg.tile_w)?;
                if regenerated != key {
                    return Err(ServeError::OperandKey {
                        memoized: key.clone(),
                        regenerated,
                    });
                }
                (a, profile)
            }
        };
        let choice = planner.decide(&profile);
        let artifact = match choice {
            Choice::BStationary => ConversionArtifact::tiled(&a, cfg.tile_w, cfg.tile_h)
                .map_err(|e| ServeError::Convert(format!("{e:?}")))?,
            Choice::CStationary => ConversionArtifact::row_major(&a),
        };
        let bytes = artifact.storage_bytes() as u64;
        Ok((CachedPlan::new(choice, artifact), bytes))
    })?;
    let (acquire_allocs, _bytes) = scope.finish();
    let acquire_ns = obs.flight.now_ns().saturating_sub(t0);

    // Evicted artifacts are freed here (or by a concurrent request still
    // holding one), not shelved in the engine pools: see
    // `nmt_engine::artifact`.
    let evicted = lookup.evicted.len() as u64;
    drop(lookup.evicted);
    let cache_code = match lookup.how {
        Acquire::Hit => 0,
        Acquire::Computed => 1,
        Acquire::Waited => 2,
    };
    obs.flight.record(
        EventSite::ServePlanCache,
        cache_code,
        req.id,
        cache.resident_bytes(),
    );

    let plan = lookup.value;
    // A is square, so B has `n` rows whether or not A was built.
    let b = random_dense(desc.n, req.k as usize, req.b_seed);
    let (run, replayed) = plan.run(&cfg.gpu, &b)?;
    let sim_ns = run.stats.total_ns as u64;
    obs.flight.record(
        EventSite::ServeResponse,
        u32::from(lookup.how != Acquire::Computed),
        req.id,
        sim_ns,
    );

    let outcome = Outcome {
        request: req.clone(),
        dispatch: dispatch as u64,
        key,
        kind: plan.artifact.kind(),
        choice: plan.choice,
        sim_ns,
        checksum: 0,
        how: lookup.how,
        acquire_ns,
        acquire_allocs,
        evicted,
        replayed,
        operand_reused,
    };
    Ok((outcome, run.c))
}

/// Lock the operand memo. The map is valid at every step; a poisoned
/// lock only means another worker unwound.
fn lock(operands: &OperandKeys) -> std::sync::MutexGuard<'_, BTreeMap<OperandSpec, String>> {
    operands.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Median of an unsorted sample (0 when empty).
fn median(mut xs: Vec<u64>) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Replay `trace` through the broker and produce the response ledger.
///
/// With `with_stats`, the schedule-dependent measurement section is
/// attached (and the same numbers are published as `serve.*` metrics
/// either way); without it the ledger is already in canonical form.
pub fn serve_trace(
    trace: &[Request],
    config: &BrokerConfig,
    obs: &ObsContext,
    with_stats: bool,
) -> Result<ServeLedger, ServeError> {
    if config.quantum == 0 {
        return Err(ServeError::Config("quantum must be ≥ 1".into()));
    }
    if config.service_rate == 0 {
        return Err(ServeError::Config("service_rate must be ≥ 1".into()));
    }
    if config.queue_depth == 0 {
        return Err(ServeError::Config("queue_depth must be ≥ 1".into()));
    }
    if config.planner.tile_w == 0 || config.planner.tile_h == 0 {
        return Err(ServeError::Config("tile_w and tile_h must be ≥ 1".into()));
    }

    let plan = schedule(trace, config, obs);
    let planner = SpmmPlanner::new(config.planner.clone());
    let cache: PlanCache<CachedPlan> = PlanCache::new(config.cache_budget_bytes);
    let operands: OperandKeys = Mutex::new(BTreeMap::new());

    let work: Vec<(usize, Request)> = plan.dispatched.into_iter().enumerate().collect();
    let outcomes: Vec<Vec<Result<Outcome, ServeError>>> = work
        .chunks(PAIR)
        .into_par_iter()
        .map(|pair| execute_pair(pair, &planner, &cache, &operands, obs))
        .collect();
    let mut done = Vec::with_capacity(work.len());
    for outcome in outcomes.into_iter().flatten() {
        done.push(outcome?);
    }

    // Canonical provenance: first dispatch of each fingerprint is the
    // cold one, independent of which worker won the single-flight race.
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    let mut responses = Vec::with_capacity(done.len());
    for o in &done {
        let cold = seen.insert(o.key.clone(), ()).is_none();
        responses.push(ResponseRow {
            id: o.request.id,
            tenant: o.request.tenant.clone(),
            key: o.key.clone(),
            kind: o.kind.to_string(),
            choice: o.choice.label().to_string(),
            plan_source: if cold { "cold" } else { "cached" }.to_string(),
            dispatch: o.dispatch,
            sim_ns: o.sim_ns,
            checksum: o.checksum,
        });
    }
    responses.sort_by_key(|r| r.id);
    let mut rejections = plan.rejections;
    rejections.sort_by_key(|r| r.id);

    let admitted = done.len() as u64;
    let unique_plans = seen.len() as u64;
    let rejected_queue_full = rejections
        .iter()
        .filter(|r| r.reason == "queue-full")
        .count() as u64;
    let rejected_malformed = rejections.len() as u64 - rejected_queue_full;
    let counts = ServeCounts {
        requests: trace.len() as u64,
        admitted,
        rejected_queue_full,
        rejected_malformed,
        unique_plans,
        cached_responses: admitted - unique_plans,
        max_queue_depth: plan.max_queue_depth as u64,
        ticks: plan.ticks,
    };

    let cache_stats = cache.stats();
    let hit_ns: Vec<u64> = done
        .iter()
        .filter(|o| o.how != Acquire::Computed)
        .map(|o| o.acquire_ns)
        .collect();
    let miss_ns: Vec<u64> = done
        .iter()
        .filter(|o| o.how == Acquire::Computed)
        .map(|o| o.acquire_ns)
        .collect();
    let hit_allocs: Vec<u64> = done
        .iter()
        .filter(|o| o.how != Acquire::Computed)
        .map(|o| o.acquire_allocs)
        .collect();
    let miss_allocs: Vec<u64> = done
        .iter()
        .filter(|o| o.how == Acquire::Computed)
        .map(|o| o.acquire_allocs)
        .collect();
    let stats = ServeStats {
        cache_hits: cache_stats.hits,
        cache_computes: cache_stats.computes,
        cache_waits: cache_stats.waits,
        cache_evictions: done.iter().map(|o| o.evicted).sum(),
        resident_bytes: cache.resident_bytes(),
        pool_idle_capacity: nmt_engine::mem::pool_idle_capacity() as u64,
        hit_p50_ns: median(hit_ns),
        miss_p50_ns: median(miss_ns),
        hit_p50_allocs: median(hit_allocs),
        miss_p50_allocs: median(miss_allocs),
        sim_replays: done.iter().filter(|o| o.replayed).count() as u64,
        operand_reuses: done.iter().filter(|o| o.operand_reused).count() as u64,
    };

    let m = &obs.metrics;
    m.counter_add("serve.requests", counts.requests);
    m.counter_add("serve.admitted", counts.admitted);
    m.counter_add("serve.rejected.queue_full", counts.rejected_queue_full);
    m.counter_add("serve.rejected.malformed", counts.rejected_malformed);
    m.counter_add("serve.cache.hits", stats.cache_hits);
    m.counter_add("serve.cache.computes", stats.cache_computes);
    m.counter_add("serve.cache.waits", stats.cache_waits);
    m.counter_add("serve.cache.evictions", stats.cache_evictions);
    m.counter_add("serve.sim.replays", stats.sim_replays);
    m.counter_add("serve.operand.reuses", stats.operand_reuses);
    m.gauge_set("serve.cache.resident_bytes", stats.resident_bytes as f64);
    m.gauge_set("serve.queue.high_water", counts.max_queue_depth as f64);
    for o in &done {
        let name = if o.how == Acquire::Computed {
            "serve.latency.miss_ns"
        } else {
            "serve.latency.hit_ns"
        };
        m.histogram_record(name, o.acquire_ns);
    }

    Ok(ServeLedger {
        schema_version: SERVE_SCHEMA_VERSION,
        config: config.echo(),
        counts,
        responses,
        rejections,
        stats: with_stats.then_some(stats),
    })
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::trace::{synth_trace, SynthSpec};

    fn obs() -> ObsContext {
        ObsContext::disabled()
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let trace = synth_trace(&SynthSpec::quick(1));
        let mut cfg = BrokerConfig::test_small();
        cfg.quantum = 0;
        assert!(matches!(
            serve_trace(&trace, &cfg, &obs(), false),
            Err(ServeError::Config(_))
        ));
        let mut cfg = BrokerConfig::test_small();
        cfg.service_rate = 0;
        assert!(serve_trace(&trace, &cfg, &obs(), false).is_err());
        // An empty tile: a zero width used to panic a worker inside the
        // fingerprint, and a zero height failed only once some request
        // chose B-stationary.
        for (tile_w, tile_h) in [(0, 16), (16, 0)] {
            let mut cfg = BrokerConfig::test_small();
            cfg.planner.tile_w = tile_w;
            cfg.planner.tile_h = tile_h;
            assert!(
                matches!(
                    serve_trace(&trace, &cfg, &obs(), false),
                    Err(ServeError::Config(_))
                ),
                "tile {tile_w}x{tile_h}"
            );
        }
        // Serve's B-stationary path tiles offline, which takes any
        // non-zero width, so a tile wider than the engine's 64 lanes runs.
        let mut cfg = BrokerConfig::test_small();
        cfg.planner.tile_w = 65;
        assert!(serve_trace(&trace, &cfg, &obs(), false).is_ok());
    }

    #[test]
    fn band_wider_than_matrix_is_answered() {
        // The band half-width comes straight from the trace's `exponent`.
        // A band past `n` covers the whole row, as a band of `n` does; it
        // must neither abort the process reserving the nominal band nor
        // change the matrix.
        let request = |id: u64, exponent: f64| Request {
            id,
            tick: 0,
            tenant: "t".into(),
            gen: "banded".into(),
            n: 64,
            density: 0.5,
            exponent,
            seed: 2,
            k: 4,
            b_seed: 9,
        };
        let trace = vec![request(0, 64.0), request(1, 1e12), request(2, 1e30)];
        let ledger = serve_trace(&trace, &BrokerConfig::test_small(), &obs(), false).unwrap();
        assert_eq!(ledger.counts.admitted, 3);
        let rows = &ledger.responses;
        assert!(rows.iter().all(|r| r.checksum == rows[0].checksum));
    }

    #[test]
    fn replay_serves_every_admissible_request() {
        let trace = synth_trace(&SynthSpec::quick(42));
        let ledger = serve_trace(&trace, &BrokerConfig::test_small(), &obs(), true).unwrap();
        let c = &ledger.counts;
        assert_eq!(c.requests, trace.len() as u64);
        assert_eq!(
            c.admitted + c.rejected_queue_full + c.rejected_malformed,
            c.requests
        );
        assert_eq!(ledger.responses.len() as u64, c.admitted);
        // The synth pool guarantees repeats, so the cache must serve
        // strictly fewer cold plans than requests…
        assert!(c.unique_plans < c.admitted);
        assert_eq!(c.cached_responses, c.admitted - c.unique_plans);
        // …and single-flight makes computes == unique fingerprints.
        let stats = ledger.stats.as_ref().unwrap();
        assert_eq!(stats.cache_computes, c.unique_plans);
        // A waiter that resolves counts as a hit, so hits + computes
        // covers every admitted request on any schedule.
        assert_eq!(stats.cache_hits + stats.cache_computes, c.admitted);
    }

    #[test]
    fn canonical_labels_follow_dispatch_order() {
        let trace = synth_trace(&SynthSpec::quick(9));
        let ledger = serve_trace(&trace, &BrokerConfig::test_small(), &obs(), false).unwrap();
        let mut rows = ledger.responses.clone();
        rows.sort_by_key(|r| r.dispatch);
        let mut seen = std::collections::BTreeSet::new();
        for row in rows {
            let expect = if seen.insert(row.key.clone()) {
                "cold"
            } else {
                "cached"
            };
            assert_eq!(row.plan_source, expect, "row id {}", row.id);
        }
    }

    #[test]
    fn identical_matrices_share_checksum_and_sim_time() {
        let trace = synth_trace(&SynthSpec::quick(21));
        let ledger = serve_trace(&trace, &BrokerConfig::test_small(), &obs(), false).unwrap();
        let mut by_key: BTreeMap<(String, u64, u64), (u64, u64)> = BTreeMap::new();
        for row in &ledger.responses {
            let req = trace.iter().find(|r| r.id == row.id).unwrap();
            let spec = (row.key.clone(), req.k, req.b_seed);
            let val = (row.checksum, row.sim_ns);
            match by_key.get(&spec) {
                Some(prev) => assert_eq!(
                    *prev, val,
                    "same (matrix, B) must produce identical results on hit and cold paths"
                ),
                None => {
                    by_key.insert(spec, val);
                }
            }
        }
    }

    #[test]
    fn sim_memo_is_keyed_by_k() {
        // One matrix at two widths, interleaved: each response must equal
        // a cold replay of its request alone, so a memo entry recorded at
        // one k never answers the other.
        let trace: Vec<Request> = [4u64, 40, 4, 40]
            .into_iter()
            .enumerate()
            .map(|(i, k)| Request {
                id: i as u64,
                tick: i as u64,
                tenant: "t".into(),
                gen: "uniform".into(),
                n: 64,
                density: 0.05,
                exponent: 0.0,
                seed: 3,
                k,
                b_seed: 10 + i as u64,
            })
            .collect();
        let cfg = BrokerConfig::test_small();
        let ledger = serve_trace(&trace, &cfg, &obs(), true).unwrap();
        assert!(ledger.stats.as_ref().unwrap().sim_replays <= 2);
        for (req, row) in trace.iter().zip(&ledger.responses) {
            let alone = serve_trace(std::slice::from_ref(req), &cfg, &obs(), true).unwrap();
            assert_eq!(alone.stats.as_ref().unwrap().sim_replays, 0);
            let cold = &alone.responses[0];
            assert_eq!(
                (row.sim_ns, row.checksum),
                (cold.sim_ns, cold.checksum),
                "k = {}",
                req.k
            );
        }
    }

    #[test]
    fn tiny_queue_rejects_with_typed_reason() {
        let trace = synth_trace(&SynthSpec::quick(5));
        let mut cfg = BrokerConfig::test_small();
        cfg.queue_depth = 1;
        cfg.service_rate = 1;
        let ledger = serve_trace(&trace, &cfg, &obs(), false).unwrap();
        assert!(ledger.counts.rejected_queue_full > 0);
        assert!(ledger
            .rejections
            .iter()
            .all(|r| r.reason == "queue-full" || r.reason.starts_with("malformed")));
    }

    #[test]
    fn malformed_requests_are_rejected_not_fatal() {
        let mut trace = synth_trace(&SynthSpec::quick(6));
        trace[0].gen = "mystery".into();
        trace[3].density = 0.0;
        // Past the u32 index space: admitted before, it panicked a worker.
        trace[5].n = 5_000_000_000;
        let ledger = serve_trace(&trace, &BrokerConfig::test_small(), &obs(), false).unwrap();
        assert_eq!(ledger.counts.rejected_malformed, 3);
        let reasons: Vec<&str> = ledger
            .rejections
            .iter()
            .filter(|r| r.reason.starts_with("malformed"))
            .map(|r| r.reason.as_str())
            .collect();
        assert_eq!(reasons.len(), 3);
        assert!(
            reasons.iter().any(|r| r.contains("u32 index space")),
            "{reasons:?}"
        );
    }

    #[test]
    fn drr_interleaves_tenants_fairly() {
        // Two tenants, one flooding: with quantum 1 the dispatch order
        // must alternate while both are backlogged.
        let mut trace = Vec::new();
        for i in 0..6u64 {
            trace.push(Request {
                id: i,
                tick: 0,
                tenant: if i < 5 { "flood".into() } else { "meek".into() },
                gen: "uniform".into(),
                n: 32,
                density: 0.05,
                exponent: 0.0,
                seed: 1 + (i < 5) as u64, // flood and meek use different matrices
                k: 4,
                b_seed: 9,
            });
        }
        let mut cfg = BrokerConfig::test_small();
        cfg.quantum = 1;
        cfg.service_rate = 2;
        let ledger = serve_trace(&trace, &cfg, &obs(), false).unwrap();
        let mut rows = ledger.responses.clone();
        rows.sort_by_key(|r| r.dispatch);
        // First two dispatches: one from each tenant (name order: flood
        // first), not two from the flooder.
        assert_eq!(rows[0].tenant, "flood");
        assert_eq!(rows[1].tenant, "meek");
    }

    #[test]
    fn budgeted_cache_evicts_and_still_answers_correctly() {
        let trace = synth_trace(&SynthSpec::quick(31));
        let mut cfg = BrokerConfig::test_small();
        cfg.cache_budget_bytes = 1; // everything evicts after insert
        let tight = serve_trace(&trace, &cfg, &obs(), true).unwrap();
        let roomy = serve_trace(&trace, &BrokerConfig::test_small(), &obs(), true).unwrap();
        assert!(tight.stats.as_ref().unwrap().cache_evictions > 0);
        // Eviction pressure must not change any deterministic byte.
        assert_eq!(
            tight
                .responses
                .iter()
                .map(|r| (r.id, r.checksum, r.sim_ns))
                .collect::<Vec<_>>(),
            roomy
                .responses
                .iter()
                .map(|r| (r.id, r.checksum, r.sim_ns))
                .collect::<Vec<_>>(),
        );
    }
}
