//! The corpus-scale run ledger: a stable, schema-versioned record of one
//! suite sweep (`BENCH_<scale>.json`), plus the regression gate CI runs
//! against the committed baseline.
//!
//! A ledger holds one [`LedgerRow`] per matrix (SSF, chosen vs oracle
//! dataflow, times, per-`TrafficClass`-label DRAM bytes, model error)
//! and a [`CorpusSummary`] (geomean speedup, SSF-vs-oracle accuracy,
//! per-class byte totals, latency percentiles from the log₂ histogram).
//! Everything in it comes from the deterministic simulator, so sweeping
//! the same suite at the same seed twice produces **byte-identical**
//! files — which is what makes [`Ledger::gate`] a meaningful diff.

use crate::harness::{summarize, BenchConfig, RESAMPLES};
use crate::{experiment_gpu, experiment_k, experiment_tile, geomean, EXPERIMENT_SEED};
use nmt::planner::{PlannerConfig, SpmmPlanner, DEFAULT_SSF_THRESHOLD};
use nmt::DecisionAudit;
use nmt_fault::{FaultPlan, FaultRecord};
use nmt_formats::SparseMatrix;
use nmt_matgen::{random_dense, SuiteScale, SuiteSpec};
use nmt_obs::{MetricRegistry, ObsContext, Phase, Profiler};
use nmt_sim::{SimError, StallBreakdown};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Version of the `BENCH_*.json` schema. Bump on any change to the field
/// set or semantics; the gate refuses to compare across versions.
///
/// v2: added `errors` — per-matrix error rows, so one malformed matrix is
/// reported instead of aborting the whole sweep.
///
/// v3: fault-injection provenance — the ledger records the `FaultPlan`
/// identity (`fault_seed` / `fault_rate_ppm`, both null on clean sweeps)
/// and error rows carry fault attribution, so a faulted sweep can never
/// be mistaken for (or gated against) a clean baseline.
///
/// v4: measured wall-time — an optional `perf` section (per-matrix,
/// per-phase medians with bootstrap confidence intervals from the
/// harness) consumed by the noise-aware [`Ledger::perf_gate`]. `perf` is
/// `null` unless the sweep ran with `--perf`, so the default ledger stays
/// byte-identical across runs and thread counts.
///
/// Still v4 (additive, optional): error rows may carry `events` — the
/// last flight-recorder events attributed to the failed matrix (see
/// [`LedgerEvent`]). Clean sweeps have no error rows, so baseline ledger
/// bytes are unchanged, and `Option` fields parse as `None` from older
/// files that lack the key.
///
/// v5: rows carry `baseline_stall`, the baseline run's stall breakdown,
/// so Figure 2 renders the ledger instead of re-running the baseline.
/// Every v4 field keeps its bytes.
pub const LEDGER_SCHEMA_VERSION: u32 = 5;

/// One scrubbed flight-recorder event attached to an [`ErrorRow`].
///
/// Timestamps and thread ids are deliberately absent: they vary with the
/// schedule, and error rows must stay byte-identical across thread
/// counts. What remains — site name, sub-code, operands — is the
/// deterministic event *content* (see `nmt_obs::recorder`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEvent {
    /// Stable kebab-case site name (e.g. `fault-convert-strip`).
    pub site: String,
    /// Site-specific sub-code (e.g. fault outcome: absorbed vs escalated).
    pub code: u32,
    /// First operand (strip / partition / key, per site).
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

/// A matrix whose sweep failed: recorded instead of aborting the corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorRow {
    /// Suite matrix name.
    pub matrix: String,
    /// The error that stopped this matrix's run.
    pub error: String,
    /// When the error was an injected fault, its attribution: which site
    /// fired and at which deterministic key (`None` for organic errors).
    pub fault: Option<FaultRecord>,
    /// The last ~32 flight-recorder events recorded while this matrix
    /// ran, in deterministic content order (fault-class sites sort last),
    /// so a sweep failure is diagnosable from the committed ledger alone.
    /// `None` when the matrix failed before a recorder was attached
    /// (generation errors) or when the row predates this field.
    pub events: Option<Vec<LedgerEvent>>,
}

/// One matrix's row in the ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRow {
    /// Suite matrix name.
    pub matrix: String,
    /// Matrix dimension.
    pub n: usize,
    /// Non-zero count.
    pub nnz: usize,
    /// SSF value.
    pub ssf: f64,
    /// Normalized entropy input.
    pub h_norm: f64,
    /// Heuristic pick (`c-stationary` / `b-stationary`).
    pub chosen: String,
    /// Measured-best pick.
    pub oracle: String,
    /// Whether the heuristic missed.
    pub mispick: bool,
    /// `chosen_time / oracle_time` (1.0 when correct).
    pub mispick_cost: f64,
    /// Baseline time in ns.
    pub baseline_ns: f64,
    /// Where the baseline's time went (Figure 2's stall taxonomy).
    pub baseline_stall: StallBreakdown,
    /// C-stationary candidate time in ns.
    pub cstat_ns: f64,
    /// B-stationary (online) candidate time in ns.
    pub bstat_ns: f64,
    /// Heuristic-pick speedup over the baseline.
    pub speedup: f64,
    /// Oracle-pick speedup over the baseline.
    pub oracle_speedup: f64,
    /// Chosen kernel's DRAM bytes per traffic-class label.
    pub dram_bytes: BTreeMap<String, u64>,
    /// Chosen kernel's mean |model relative error| over A/B/C.
    pub model_abs_rel_err: f64,
}

impl LedgerRow {
    /// Flatten a [`DecisionAudit`] into a ledger row.
    pub fn from_audit(a: &DecisionAudit) -> Self {
        let chosen = a.chosen_audit();
        Self {
            matrix: a.matrix.clone(),
            n: a.nrows,
            nnz: a.nnz,
            ssf: a.profile.ssf,
            h_norm: a.profile.h_norm,
            chosen: a.chosen.label().to_string(),
            oracle: a.oracle.label().to_string(),
            mispick: a.mispick,
            mispick_cost: a.mispick_cost,
            baseline_ns: a.baseline_ns,
            baseline_stall: a.baseline_stall,
            cstat_ns: a.cstationary.time_ns,
            bstat_ns: a.bstationary.time_ns,
            speedup: chosen.speedup,
            oracle_speedup: a.oracle_speedup(),
            dram_bytes: chosen.dram_bytes.clone(),
            model_abs_rel_err: chosen.mean_abs_rel_err,
        }
    }
}

/// Interpolated latency percentiles (ns) from the log₂ histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Corpus-level aggregates over a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSummary {
    /// Number of matrices swept.
    pub matrices: usize,
    /// Geometric-mean speedup of the SSF-directed hybrid (the paper's
    /// headline statistic — 2.26× at paper scale).
    pub geomean_speedup: f64,
    /// Geometric-mean speedup of the oracle (paper: 2.30×).
    pub oracle_geomean_speedup: f64,
    /// Fraction of matrices where the heuristic matched the oracle.
    pub ssf_accuracy: f64,
    /// Number of mispicks.
    pub mispicks: usize,
    /// Mean `chosen/oracle` time ratio over mispicked matrices only
    /// (1.0 when there were none).
    pub mean_mispick_cost: f64,
    /// Fraction of matrices faster than the baseline.
    pub improved_fraction: f64,
    /// Total chosen-kernel DRAM bytes per traffic-class label.
    pub traffic_bytes: BTreeMap<String, u64>,
    /// Chosen-kernel latency percentiles across the corpus.
    pub chosen_latency_ns: LatencyPercentiles,
    /// Mean |model relative error| of the chosen kernels.
    pub model_mean_abs_rel_err: f64,
}

/// Measured wall-time statistics for one phase of one matrix, produced
/// by the harness ([`crate::harness::summarize`]) over repeated
/// planner-execute iterations. Times come from the span tree's self-time
/// attribution, so phases partition each iteration exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasePerf {
    /// Phase name (`parse`/`plan`/`convert`/`kernel`/`reduce`/`other`).
    pub phase: String,
    /// Median self-time, ns.
    pub median_ns: f64,
    /// Scaled MAD of the retained samples, ns.
    pub mad_ns: f64,
    /// Bootstrap 95% CI lower bound on the median, ns.
    pub ci_lo_ns: f64,
    /// Bootstrap 95% CI upper bound on the median, ns.
    pub ci_hi_ns: f64,
    /// Samples retained after outlier rejection.
    pub samples: u64,
    /// Samples rejected as outliers.
    pub rejected: u64,
    /// Median allocations attributed to the phase (0 when the counting
    /// allocator is not installed).
    pub alloc_count: f64,
    /// Median bytes allocated in the phase (0 without the allocator).
    pub alloc_bytes: f64,
}

/// Per-matrix perf record: total wall-time plus the per-phase breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixPerf {
    /// Suite matrix name.
    pub matrix: String,
    /// Median end-to-end wall-time per iteration, ns.
    pub total_median_ns: f64,
    /// Bootstrap CI lower bound on the total median, ns.
    pub total_ci_lo_ns: f64,
    /// Bootstrap CI upper bound on the total median, ns.
    pub total_ci_hi_ns: f64,
    /// Per-phase statistics, in pipeline order (all six phases present).
    pub phases: Vec<PhasePerf>,
}

/// The ledger's optional measured-performance section (schema v4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfSection {
    /// Untimed warmup iterations per matrix.
    pub warmup: u64,
    /// Timed iterations per matrix.
    pub iters: u64,
    /// Bootstrap resamples behind every CI.
    pub resamples: u64,
    /// Per-matrix records, in suite order.
    pub matrices: Vec<MatrixPerf>,
}

/// A full suite sweep: rows plus summary, versioned for diffing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ledger {
    /// Schema version ([`LEDGER_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Suite scale (`small` / `medium` / `paper`).
    pub scale: String,
    /// Suite base seed.
    pub seed: u64,
    /// Dense-operand width.
    pub k: usize,
    /// Strip/tile edge.
    pub tile: usize,
    /// Fault-injection seed when the sweep ran with a [`FaultPlan`]
    /// (`None` on clean sweeps). Part of the suite identity: the gate
    /// refuses to compare faulted and clean ledgers.
    pub fault_seed: Option<u64>,
    /// Fault-injection rate in parts-per-million (`None` on clean sweeps).
    pub fault_rate_ppm: Option<u32>,
    /// Per-matrix rows, in suite order.
    pub rows: Vec<LedgerRow>,
    /// Matrices whose run errored, in suite order (empty on a clean
    /// sweep). The gate treats any change in this list as a regression.
    pub errors: Vec<ErrorRow>,
    /// Corpus aggregates.
    pub summary: CorpusSummary,
    /// Measured wall-time statistics (`--perf` sweeps only; `None` keeps
    /// the default ledger deterministic down to the byte). Absent fields
    /// in pre-v4 files parse as `None`.
    pub perf: Option<PerfSection>,
}

/// The ledger's canonical filename for a scale (`BENCH_small.json`).
pub fn ledger_filename(scale: SuiteScale) -> String {
    format!("BENCH_{}.json", scale_label(scale))
}

/// Lower-case label for a scale.
pub fn scale_label(scale: SuiteScale) -> &'static str {
    match scale {
        SuiteScale::Small => "small",
        SuiteScale::Medium => "medium",
        SuiteScale::Paper => "paper",
    }
}

impl Ledger {
    /// Aggregate a sweep's successful audits plus its per-matrix errors
    /// (both in suite order) into a clean (unfaulted) ledger. A faulted
    /// sweep stamps its plan into `fault_seed`/`fault_rate_ppm` afterwards.
    pub fn from_sweep(
        scale: SuiteScale,
        seed: u64,
        k: usize,
        tile: usize,
        audits: &[DecisionAudit],
        errors: Vec<ErrorRow>,
    ) -> Self {
        let rows: Vec<LedgerRow> = audits.iter().map(LedgerRow::from_audit).collect();
        let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
        let oracle_speedups: Vec<f64> = rows.iter().map(|r| r.oracle_speedup).collect();
        let mispicks = rows.iter().filter(|r| r.mispick).count();
        let mean_mispick_cost = if mispicks == 0 {
            1.0
        } else {
            rows.iter()
                .filter(|r| r.mispick)
                .map(|r| r.mispick_cost)
                .sum::<f64>()
                / mispicks as f64
        };
        let mut traffic_bytes: BTreeMap<String, u64> = BTreeMap::new();
        for r in &rows {
            for (class, &bytes) in &r.dram_bytes {
                *traffic_bytes.entry(class.clone()).or_insert(0) += bytes;
            }
        }
        // Latency percentiles via the obs log₂ histogram, so the ledger
        // exercises the same estimator the registry exports.
        let reg = MetricRegistry::new();
        for r in &rows {
            reg.histogram_record("ledger.chosen_ns", r.chosen_ns_rounded());
        }
        let snap = reg.snapshot();
        // All-errored sweeps record nothing; report zero percentiles
        // rather than indexing a histogram that was never created.
        let (p50, p95, p99) = match snap.histograms.get("ledger.chosen_ns") {
            Some(hist) => (hist.p50(), hist.p95(), hist.p99()),
            None => (0.0, 0.0, 0.0),
        };
        let summary = CorpusSummary {
            matrices: rows.len(),
            geomean_speedup: geomean(&speedups),
            oracle_geomean_speedup: geomean(&oracle_speedups),
            ssf_accuracy: if rows.is_empty() {
                0.0
            } else {
                (rows.len() - mispicks) as f64 / rows.len() as f64
            },
            mispicks,
            mean_mispick_cost,
            improved_fraction: if rows.is_empty() {
                0.0
            } else {
                rows.iter().filter(|r| r.speedup > 1.0).count() as f64 / rows.len() as f64
            },
            traffic_bytes,
            chosen_latency_ns: LatencyPercentiles { p50, p95, p99 },
            model_mean_abs_rel_err: if rows.is_empty() {
                0.0
            } else {
                rows.iter().map(|r| r.model_abs_rel_err).sum::<f64>() / rows.len() as f64
            },
        };
        Self {
            schema_version: LEDGER_SCHEMA_VERSION,
            scale: scale_label(scale).to_string(),
            seed,
            k,
            tile,
            fault_seed: None,
            fault_rate_ppm: None,
            rows,
            errors,
            summary,
            perf: None,
        }
    }

    /// Serialize as pretty JSON (the `BENCH_*.json` artifact).
    pub fn to_json(&self) -> String {
        // nmt-lint: allow(panic) — serializing a plain data struct cannot fail
        serde_json::to_string_pretty(self).expect("ledger serializes")
    }

    /// Parse a ledger back from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("malformed ledger: {e:?}"))
    }

    /// Compact one-line summary for logs.
    pub fn render_summary(&self) -> String {
        let s = &self.summary;
        let errors = if self.errors.is_empty() {
            String::new()
        } else {
            format!(" | {} ERRORED", self.errors.len())
        };
        format!(
            "{} matrices @ {} | geomean {:.3}x (oracle {:.3}x) | SSF accuracy {:.1}% \
             ({} mispicks, mean cost {:.2}x) | chosen p50/p95/p99 = {:.0}/{:.0}/{:.0} ns \
             | model |rel err| {:.1}%{}",
            s.matrices,
            self.scale,
            s.geomean_speedup,
            s.oracle_geomean_speedup,
            s.ssf_accuracy * 100.0,
            s.mispicks,
            s.mean_mispick_cost,
            s.chosen_latency_ns.p50,
            s.chosen_latency_ns.p95,
            s.chosen_latency_ns.p99,
            s.model_mean_abs_rel_err * 100.0,
            errors
        )
    }

    /// Gate this ledger (the fresh run) against a committed `baseline`.
    ///
    /// Returns `Ok(notes)` when the run is no worse than the baseline,
    /// `Err(regressions)` otherwise. Checks, in order: schema version,
    /// then the suite identity (`identity_mismatches`) plus matrix and
    /// error-row counts must match exactly — a mismatch means the baseline
    /// must be consciously refreshed, not silently accepted — then geomean
    /// speedup may not drop more than `SPEEDUP_TOL_FRAC` relatively and
    /// SSF accuracy not more than `ACCURACY_TOL_ABS` absolutely.
    pub fn gate(&self, baseline: &Ledger) -> Result<Vec<String>, Vec<String>> {
        same_schema(baseline, self).map_err(|e| vec![e])?;
        let mut changed = identity_mismatches(baseline, self);
        for (what, base, run) in [
            ("matrix count", baseline.rows.len(), self.rows.len()),
            ("error-row count", baseline.errors.len(), self.errors.len()),
        ] {
            if base != run {
                changed.push((what, base.to_string(), run.to_string()));
            }
        }
        if !changed.is_empty() {
            return Err(changed
                .into_iter()
                .map(|(what, base, run)| {
                    format!(
                        "suite identity changed: {what} was {base}, now {run} \
                         — refresh the baseline"
                    )
                })
                .collect());
        }

        let mut regressions = Vec::new();
        let mut notes = Vec::new();
        let run = &self.summary;
        let base = &baseline.summary;
        let speedup_floor = base.geomean_speedup * (1.0 - SPEEDUP_TOL_FRAC);
        if run.geomean_speedup < speedup_floor {
            regressions.push(format!(
                "geomean speedup regressed: {:.4}x < floor {:.4}x (baseline {:.4}x − {:.0}%)",
                run.geomean_speedup,
                speedup_floor,
                base.geomean_speedup,
                SPEEDUP_TOL_FRAC * 100.0
            ));
        } else {
            notes.push(format!(
                "geomean speedup {:.4}x vs baseline {:.4}x (floor {:.4}x) — ok",
                run.geomean_speedup, base.geomean_speedup, speedup_floor
            ));
        }
        let accuracy_floor = base.ssf_accuracy - ACCURACY_TOL_ABS;
        if run.ssf_accuracy < accuracy_floor {
            regressions.push(format!(
                "SSF accuracy regressed: {:.1}% < floor {:.1}% (baseline {:.1}% − {:.0} pts)",
                run.ssf_accuracy * 100.0,
                accuracy_floor * 100.0,
                base.ssf_accuracy * 100.0,
                ACCURACY_TOL_ABS * 100.0
            ));
        } else {
            notes.push(format!(
                "SSF accuracy {:.1}% vs baseline {:.1}% (floor {:.1}%) — ok",
                run.ssf_accuracy * 100.0,
                base.ssf_accuracy * 100.0,
                accuracy_floor * 100.0
            ));
        }
        if regressions.is_empty() {
            Ok(notes)
        } else {
            Err(regressions)
        }
    }

    /// Noise-aware wall-time gate: compare this run's `perf` section
    /// against `baseline`'s with `compare_perf` at `margin_frac` and
    /// `PERF_SLACK_NS` — so the gate is quiet on timer jitter (which
    /// stays inside the CI) and strict on real slowdowns (which move the
    /// median past any plausible noise band). Per-phase allocation means
    /// may not exceed the baseline's by `ALLOC_MARGIN_FRAC` plus a fixed
    /// slack. Ledgers without perf data on either side pass with a note:
    /// the deterministic byte-identity sweeps never carry timings.
    pub fn perf_gate(
        &self,
        baseline: &Ledger,
        margin_frac: f64,
    ) -> Result<Vec<String>, Vec<String>> {
        same_schema(baseline, self).map_err(|e| vec![e])?;
        let (pairs, missing) = match perf_sections(baseline, self) {
            Ok((base, run)) => compare_perf(base, run, margin_frac, PERF_SLACK_NS),
            Err(why) => return Ok(vec![format!("perf gate skipped: {why}")]),
        };
        let mut regressions: Vec<String> = missing
            .iter()
            .map(|m| {
                format!(
                    "perf matrix set changed: '{m}' in baseline but not in run \
                     — refresh the baseline"
                )
            })
            .collect();
        let mut notes = Vec::new();
        for p in &pairs {
            let (label, kind) = match p.phases {
                None => (p.matrix.to_string(), "total"),
                Some(_) => (format!("{}/{}", p.matrix, p.phase), "phase"),
            };
            if p.shift == Ordering::Greater {
                regressions.push(format!(
                    "{label}: {kind} regressed: median {:.0} ns > ceiling {:.0} ns \
                     (baseline CI [{:.0}, {:.0}] ns + {:.0}% + {:.0} ns slack)",
                    p.run_median_ns,
                    p.ceiling_ns,
                    p.base_ci_lo_ns,
                    p.base_ci_hi_ns,
                    margin_frac * 100.0,
                    PERF_SLACK_NS
                ));
            } else if p.phases.is_none() {
                notes.push(format!(
                    "{label}: total median {:.0} ns within ceiling {:.0} ns — ok",
                    p.run_median_ns, p.ceiling_ns
                ));
            }
            // Allocation budget: a hot path that starts allocating per
            // strip again blows well past margin + slack even though wall
            // time may hide inside the noise band.
            let Some((bp, rp)) = p.phases else { continue };
            for (what, base, run, slack) in [
                ("count", bp.alloc_count, rp.alloc_count, ALLOC_SLACK_COUNT),
                ("bytes", bp.alloc_bytes, rp.alloc_bytes, ALLOC_SLACK_BYTES),
            ] {
                let (shift, ceiling) = against_ci(run, base, base, ALLOC_MARGIN_FRAC, slack);
                if shift == Ordering::Greater {
                    regressions.push(format!(
                        "{label}: allocation {what} regressed: {run:.0} > ceiling {ceiling:.0} \
                         (baseline {base:.0} + {:.0}% + {slack:.0} slack)",
                        ALLOC_MARGIN_FRAC * 100.0
                    ));
                }
            }
        }
        if regressions.is_empty() {
            Ok(notes)
        } else {
            Err(regressions)
        }
    }
}

/// Allowed fractional drop in geomean speedup before [`Ledger::gate`] fails.
const SPEEDUP_TOL_FRAC: f64 = 0.05;
/// Allowed absolute drop in SSF accuracy before [`Ledger::gate`] fails.
const ACCURACY_TOL_ABS: f64 = 0.05;
/// Absolute headroom over the widened baseline CI in [`Ledger::perf_gate`],
/// ns: keeps microsecond-scale phases (where a scheduler blip is a large
/// fraction) from firing the gate.
const PERF_SLACK_NS: f64 = 100_000.0;
/// Relative headroom over the baseline per-phase allocation means.
/// Counts are near-deterministic, but the rayon shim's per-worker result
/// vectors grow differently with the schedule.
const ALLOC_MARGIN_FRAC: f64 = 0.5;
/// Absolute per-phase allocation-count headroom.
const ALLOC_SLACK_COUNT: f64 = 64.0;
/// Absolute per-phase allocation-bytes headroom.
const ALLOC_SLACK_BYTES: f64 = 65_536.0;

/// The schema check every ledger comparison starts with: field sets of
/// different versions are not comparable.
pub(crate) fn same_schema(base: &Ledger, run: &Ledger) -> Result<(), String> {
    if base.schema_version == run.schema_version {
        return Ok(());
    }
    Err(format!(
        "schema version changed: baseline v{} vs run v{} — refresh the baseline",
        base.schema_version, run.schema_version
    ))
}

/// The suite identity two ledgers must share to be comparable — scale,
/// seed, k, tile, fault seed and fault rate — as `(field, baseline, run)`
/// for each field that differs. The gate fails on any of them; the differ
/// reports them as notes.
pub(crate) fn identity_mismatches(
    base: &Ledger,
    run: &Ledger,
) -> Vec<(&'static str, String, String)> {
    let fault =
        |v: Option<u64>| v.map_or_else(|| "none (no fault plan)".to_string(), |v| v.to_string());
    [
        ("scale", base.scale.clone(), run.scale.clone()),
        ("seed", base.seed.to_string(), run.seed.to_string()),
        ("k", base.k.to_string(), run.k.to_string()),
        ("tile", base.tile.to_string(), run.tile.to_string()),
        ("fault seed", fault(base.fault_seed), fault(run.fault_seed)),
        (
            "fault rate (ppm)",
            fault(base.fault_rate_ppm.map(u64::from)),
            fault(run.fault_rate_ppm.map(u64::from)),
        ),
    ]
    .into_iter()
    .filter(|(_, base, run)| base != run)
    .collect()
}

/// Both ledgers' perf sections, or why the wall-time comparison is
/// skipped (a side without a `--perf` pass).
pub(crate) fn perf_sections<'a>(
    base: &'a Ledger,
    run: &'a Ledger,
) -> Result<(&'a PerfSection, &'a PerfSection), String> {
    match (&base.perf, &run.perf) {
        (Some(b), Some(r)) => Ok((b, r)),
        (b, r) => {
            let state = |s: &Option<PerfSection>| if s.is_some() { "present" } else { "absent" };
            Err(format!(
                "perf section {} in run, {} in baseline",
                state(r),
                state(b)
            ))
        }
    }
}

/// Where `median` lies against the baseline interval `[lo, hi]` widened
/// by `margin` (relative) and `slack` (absolute): `Greater` above the
/// widened ceiling (regressed), `Less` below the widened floor (improved),
/// `Equal` inside. Also returns the ceiling. The one definition of
/// "regressed" behind the perf gate, its allocation ceilings and the
/// differ.
pub(crate) fn against_ci(
    median: f64,
    lo: f64,
    hi: f64,
    margin: f64,
    slack: f64,
) -> (Ordering, f64) {
    let ceiling = hi * (1.0 + margin) + slack;
    let shift = if median > ceiling {
        Ordering::Greater
    } else if median < lo * (1.0 - margin) - slack {
        Ordering::Less
    } else {
        Ordering::Equal
    };
    (shift, ceiling)
}

/// One `(matrix, total | phase)` median of a run paired with the
/// baseline's, judged by [`against_ci`].
pub(crate) struct PerfPair<'a> {
    /// Suite matrix name.
    pub matrix: &'a str,
    /// Phase name, or `total` for the end-to-end median.
    pub phase: &'a str,
    /// The phase records on both sides, `(baseline, run)`; `None` for the
    /// total.
    pub phases: Option<(&'a PhasePerf, &'a PhasePerf)>,
    /// Baseline median, ns.
    pub base_median_ns: f64,
    /// Baseline CI lower bound, ns.
    pub base_ci_lo_ns: f64,
    /// Baseline CI upper bound, ns.
    pub base_ci_hi_ns: f64,
    /// Run median, ns.
    pub run_median_ns: f64,
    /// The widened baseline ceiling, ns.
    pub ceiling_ns: f64,
    /// Where the run median lies against the widened baseline CI.
    pub shift: Ordering,
}

/// The perf pass shared by [`Ledger::perf_gate`] and
/// [`diff_ledgers`](crate::diff::diff_ledgers): pair every baseline
/// matrix's total and phases with the run's, in baseline order, and judge
/// each run median against the baseline CI at `margin`/`slack_ns`. Also
/// returns the baseline matrices the run has no record for.
pub(crate) fn compare_perf<'a>(
    base: &'a PerfSection,
    run: &'a PerfSection,
    margin: f64,
    slack_ns: f64,
) -> (Vec<PerfPair<'a>>, Vec<&'a str>) {
    let mut pairs = Vec::new();
    let mut missing = Vec::new();
    for bm in &base.matrices {
        let Some(rm) = run.matrices.iter().find(|m| m.matrix == bm.matrix) else {
            missing.push(bm.matrix.as_str());
            continue;
        };
        let total = (
            bm.total_median_ns,
            bm.total_ci_lo_ns,
            bm.total_ci_hi_ns,
            rm.total_median_ns,
        );
        let phases = bm.phases.iter().filter_map(|bp| {
            let rp = rm.phases.iter().find(|p| p.phase == bp.phase)?;
            let medians = (bp.median_ns, bp.ci_lo_ns, bp.ci_hi_ns, rp.median_ns);
            Some((bp.phase.as_str(), Some((bp, rp)), medians))
        });
        for (phase, records, (base_median_ns, lo, hi, run_median_ns)) in
            std::iter::once(("total", None, total)).chain(phases)
        {
            let (shift, ceiling_ns) = against_ci(run_median_ns, lo, hi, margin, slack_ns);
            pairs.push(PerfPair {
                matrix: &bm.matrix,
                phase,
                phases: records,
                base_median_ns,
                base_ci_lo_ns: lo,
                base_ci_hi_ns: hi,
                run_median_ns,
                ceiling_ns,
                shift,
            });
        }
    }
    (pairs, missing)
}

impl LedgerRow {
    /// Chosen-kernel time rounded to whole ns for histogram recording.
    fn chosen_ns_rounded(&self) -> u64 {
        let t = match self.chosen.as_str() {
            "b-stationary" => self.bstat_ns,
            _ => self.cstat_ns,
        };
        t.round().max(0.0) as u64
    }
}

/// What one ledger sweep runs: the suite scale, plus an optional fault
/// plan and an optional wall-time pass. A bare [`SuiteScale`] converts
/// into the plain clean sweep.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Suite scale to sweep.
    pub scale: SuiteScale,
    /// A [`FaultPlan`] installed in every per-matrix planner. Faults fire
    /// at `(seed, site, key)`-determined points, so the faulted ledger is
    /// just as byte-reproducible as the clean one; engine faults that
    /// exhaust their retry are absorbed per-matrix by the B→C
    /// degraded-mode fallback (visible in the audit), and any error that
    /// still stops a matrix carries its fault attribution in
    /// [`ErrorRow::fault`].
    pub fault: Option<FaultPlan>,
    /// When set, a **serial** wall-time measurement pass runs after the
    /// deterministic sweep and attaches a [`PerfSection`] (per-matrix,
    /// per-phase medians + bootstrap CIs over `iters` instrumented
    /// repetitions, with allocation counters gathered by the counting
    /// allocator when it is installed). The pass is serial so one
    /// matrix's timing never contends with another's; the audit rows are
    /// still the parallel sweep's byte-identical output.
    pub perf: Option<BenchConfig>,
}

impl From<SuiteScale> for Sweep {
    fn from(scale: SuiteScale) -> Self {
        Sweep {
            scale,
            fault: None,
            perf: None,
        }
    }
}

/// Sweep the synthetic suite through the audited planner and aggregate
/// the ledger. Deterministic: the suite, the dense operands, and the
/// simulator all derive from [`EXPERIMENT_SEED`] (and the fault plan's
/// seed, when [`Sweep::fault`] is set).
///
/// Matrices run in parallel across the rayon pool; a matrix whose run
/// fails lands in [`Ledger::errors`] instead of aborting the sweep, and
/// both rows and error rows come out in suite order regardless of
/// thread count.
pub fn sweep_ledger(sweep: impl Into<Sweep>) -> Result<Ledger, SimError> {
    let Sweep { scale, fault, perf } = sweep.into();
    let tile = experiment_tile(scale);
    let k = experiment_k(scale);
    let config = PlannerConfig {
        gpu: experiment_gpu(scale),
        tile_w: tile,
        tile_h: tile,
        threshold: DEFAULT_SSF_THRESHOLD,
        fault,
    };
    let suite = SuiteSpec::new(scale, EXPERIMENT_SEED).try_build();
    // Parallel over matrices; collect() preserves suite order, so the
    // audit/error partition below is schedule-independent. A matrix that
    // fails to generate or to run becomes an error row, not an abort.
    type Outcome = Result<DecisionAudit, (String, Option<FaultRecord>, Option<Vec<LedgerEvent>>)>;
    let outcomes: Vec<(String, Outcome)> = suite
        .iter()
        .enumerate()
        .into_par_iter()
        .map(|(idx, (desc, built))| {
            let audit = match built {
                Err(e) => Err((e.to_string(), None, None)),
                Ok(a) => {
                    // A per-matrix context so flight-recorder events are
                    // attributed to exactly this matrix, and a diagnostics
                    // scope so a panic mid-matrix names it in the bundle.
                    let obs = ObsContext::disabled();
                    let _diag = nmt_obs::DiagScope::enter(&desc.name, &obs);
                    obs.flight
                        .record(nmt_obs::EventSite::SweepMatrix, 0, idx as u64, 0);
                    let planner = SpmmPlanner::new(config.clone());
                    let b = random_dense(a.shape().ncols, k, desc.seed ^ 0x16);
                    match planner.explain(&desc.name, a, &b, &obs) {
                        Ok(audit) => {
                            obs.flight
                                .record(nmt_obs::EventSite::SweepMatrix, 1, idx as u64, 0);
                            Ok(audit)
                        }
                        Err(e) => {
                            obs.flight
                                .record(nmt_obs::EventSite::SweepMatrix, 2, idx as u64, 0);
                            let attribution = match &e {
                                SimError::InjectedFault { site, key, detail } => {
                                    Some(FaultRecord {
                                        site: *site,
                                        key: *key,
                                        retried: false,
                                        fell_back: false,
                                        detail: detail.clone(),
                                    })
                                }
                                _ => None,
                            };
                            Err((e.to_string(), attribution, Some(harvest_events(&obs))))
                        }
                    }
                }
            };
            (desc.name.clone(), audit)
        })
        .collect();
    let mut audits = Vec::with_capacity(outcomes.len());
    let mut errors = Vec::new();
    for (matrix, outcome) in outcomes {
        match outcome {
            Ok(audit) => audits.push(audit),
            Err((error, fault, events)) => errors.push(ErrorRow {
                matrix,
                error,
                fault,
                events,
            }),
        }
    }
    let mut ledger = Ledger::from_sweep(scale, EXPERIMENT_SEED, k, tile, &audits, errors);
    ledger.fault_seed = fault.map(|p| p.seed);
    ledger.fault_rate_ppm = fault.map(|p| p.rate_ppm);
    if let Some(cfg) = perf {
        ledger.perf = Some(measure_perf(&suite, &config, k, &cfg));
    }
    Ok(ledger)
}

/// How many flight-recorder events an error row retains.
const ERROR_ROW_EVENT_CAP: usize = 32;

/// Scrub a matrix-local flight recorder into ledger-safe events: drop
/// span events, take the tail of the content-ordered rest (the fault
/// sites sort after every sweep-path site, so the cap never evicts them)
/// and drop the schedule-dependent fields (timestamp, thread id). The
/// result is byte-identical across thread counts for a fixed seed.
fn harvest_events(obs: &ObsContext) -> Vec<LedgerEvent> {
    let events: Vec<_> = obs
        .flight
        .snapshot()
        .into_iter()
        .filter(|e| !e.site.is_span())
        .collect();
    let skip = events.len().saturating_sub(ERROR_ROW_EVENT_CAP);
    events
        .iter()
        .skip(skip)
        .map(|e| LedgerEvent {
            site: e.site.name().to_string(),
            code: e.code,
            a: e.a,
            b: e.b,
        })
        .collect()
}

/// The serial wall-time pass behind `--perf`: rerun each buildable suite
/// matrix through [`SpmmPlanner::explain`] — the path that produces its
/// ledger row — with observability on, which adds span events and
/// changes nothing it simulates, `cfg.warmup + cfg.iters` times,
/// attribute each repetition's spans to phases with [`Profiler::analyze`],
/// and summarize the per-phase self-time samples with the statistical
/// harness.
///
/// Allocation counting is switched on for the duration of the pass (a
/// no-op unless the binary installed [`nmt_obs::CountingAlloc`] as its
/// global allocator) and restored afterwards. Matrices that fail to build
/// or to run are simply absent from the section — their failure is already
/// recorded in the ledger's error rows.
fn measure_perf(
    suite: &[(
        nmt_matgen::MatrixDesc,
        Result<nmt_formats::Csr, nmt_matgen::MatgenError>,
    )],
    config: &PlannerConfig,
    k: usize,
    cfg: &BenchConfig,
) -> PerfSection {
    let was_counting = nmt_obs::alloc::enable_counting(true);
    let mut matrices = Vec::new();
    for (desc, built) in suite {
        let Ok(a) = built else { continue };
        let planner = SpmmPlanner::new(config.clone());
        // One instrumented repetition: span events land in a fresh
        // flight recorder, then the profiler folds them into per-phase
        // self time.
        let measure = || -> Option<nmt_obs::Profile> {
            let obs = ObsContext::enabled();
            let b = {
                let _s = obs.span("matgen.generate");
                random_dense(a.shape().ncols, k, desc.seed ^ 0x16)
            };
            planner.explain(&desc.name, a, &b, &obs).ok()?;
            Some(Profiler::analyze(&obs.flight.lanes()))
        };
        for _ in 0..cfg.warmup {
            if measure().is_none() {
                break;
            }
        }
        let mut window_samples = Vec::with_capacity(cfg.iters as usize);
        let mut phase_samples: BTreeMap<Phase, Vec<f64>> = BTreeMap::new();
        let mut phase_allocs: BTreeMap<Phase, (f64, f64)> = BTreeMap::new();
        for _ in 0..cfg.iters {
            let Some(profile) = measure() else { break };
            window_samples.push(profile.window_ns as f64);
            for (phase, totals) in &profile.phases {
                phase_samples
                    .entry(*phase)
                    .or_default()
                    .push(totals.self_ns as f64);
                let acc = phase_allocs.entry(*phase).or_default();
                acc.0 += totals.alloc_count as f64;
                acc.1 += totals.alloc_bytes as f64;
            }
        }
        // A matrix whose instrumented run errors (e.g. under fault
        // injection) contributes nothing; its error row tells the story.
        if window_samples.len() < cfg.iters as usize {
            continue;
        }
        let total = summarize(&window_samples);
        let n = window_samples.len() as f64;
        let phases = phase_samples
            .iter()
            .filter(|(_, samples)| samples.iter().any(|&s| s > 0.0))
            .map(|(phase, samples)| {
                let stats = summarize(samples);
                let (count, bytes) = phase_allocs.get(phase).copied().unwrap_or_default();
                PhasePerf {
                    phase: phase.name().to_string(),
                    median_ns: stats.median_ns,
                    mad_ns: stats.mad_ns,
                    ci_lo_ns: stats.ci_lo_ns,
                    ci_hi_ns: stats.ci_hi_ns,
                    samples: stats.samples,
                    rejected: stats.rejected,
                    alloc_count: count / n,
                    alloc_bytes: bytes / n,
                }
            })
            .collect();
        matrices.push(MatrixPerf {
            matrix: desc.name.clone(),
            total_median_ns: total.median_ns,
            total_ci_lo_ns: total.ci_lo_ns,
            total_ci_hi_ns: total.ci_hi_ns,
            phases,
        });
    }
    nmt_obs::alloc::enable_counting(was_counting);
    PerfSection {
        warmup: u64::from(cfg.warmup),
        iters: u64::from(cfg.iters),
        resamples: u64::from(RESAMPLES),
        matrices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced sweep over the quick suite so tests stay fast; mirrors
    /// [`sweep_ledger`] with the test-small planner.
    fn quick_ledger(seed: u64) -> Ledger {
        let config = PlannerConfig::test_small();
        let tile = config.tile_w;
        let suite = SuiteSpec::quick(seed).build();
        let audits: Vec<DecisionAudit> = suite
            .iter()
            .map(|(desc, a)| {
                let b = random_dense(a.shape().ncols, 8, desc.seed ^ 0x16);
                SpmmPlanner::new(config.clone())
                    .explain(&desc.name, a, &b, &ObsContext::disabled())
                    .expect("audit runs")
            })
            .collect();
        Ledger::from_sweep(SuiteScale::Small, seed, 8, tile, &audits, Vec::new())
    }

    #[test]
    fn ledger_is_byte_identical_across_runs() {
        let a = quick_ledger(3);
        let b = quick_ledger(3);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json(), "same seed must give same bytes");
    }

    #[test]
    fn ledger_roundtrips_and_aggregates() {
        let ledger = quick_ledger(5);
        assert_eq!(ledger.schema_version, LEDGER_SCHEMA_VERSION);
        assert!(!ledger.rows.is_empty());
        let s = &ledger.summary;
        assert_eq!(s.matrices, ledger.rows.len());
        assert!(s.geomean_speedup > 0.0);
        // The oracle bounds the hybrid from above by construction.
        assert!(s.oracle_geomean_speedup >= s.geomean_speedup - 1e-12);
        assert!((0.0..=1.0).contains(&s.ssf_accuracy));
        assert_eq!(s.mispicks, ledger.rows.iter().filter(|r| r.mispick).count());
        assert!(s.traffic_bytes.values().sum::<u64>() > 0);
        assert!(s.chosen_latency_ns.p50 <= s.chosen_latency_ns.p95);
        assert!(s.chosen_latency_ns.p95 <= s.chosen_latency_ns.p99);
        let back = Ledger::from_json(&ledger.to_json()).expect("parses");
        assert_eq!(back, ledger);
        assert!(ledger.render_summary().contains("matrices"));
    }

    #[test]
    fn gate_passes_identical_and_catches_regressions() {
        let ledger = quick_ledger(7);
        // Identical run passes.
        let notes = ledger.gate(&ledger).expect("ok");
        assert_eq!(notes.len(), 2);

        // Injected speedup regression beyond tolerance fails.
        let mut slow = ledger.clone();
        slow.summary.geomean_speedup *= 0.80;
        let errs = slow.gate(&ledger).expect_err("regression must fire");
        assert!(errs.iter().any(|e| e.contains("geomean speedup regressed")));

        // Injected accuracy regression fails.
        let mut inaccurate = ledger.clone();
        inaccurate.summary.ssf_accuracy = (ledger.summary.ssf_accuracy - 0.2).max(0.0);
        let errs = inaccurate
            .gate(&ledger)
            .expect_err("accuracy gate must fire");
        assert!(errs.iter().any(|e| e.contains("SSF accuracy regressed")));

        // Within-tolerance wobble passes.
        let mut wobble = ledger.clone();
        wobble.summary.geomean_speedup *= 0.98;
        assert!(wobble.gate(&ledger).is_ok());
    }

    #[test]
    fn gate_rejects_schema_and_identity_mismatch() {
        let ledger = quick_ledger(9);
        let mut other_schema = ledger.clone();
        other_schema.schema_version += 1;
        let errs = other_schema.gate(&ledger).expect_err("schema mismatch");
        assert!(errs[0].contains("schema version"));

        let mut other_suite = ledger.clone();
        other_suite.seed ^= 1;
        other_suite.rows.pop();
        let errs = other_suite.gate(&ledger).expect_err("identity mismatch");
        assert!(errs.iter().any(|e| e.contains("seed")));
        assert!(errs.iter().any(|e| e.contains("matrix count")));
    }

    #[test]
    fn error_rows_are_reported_not_fatal() {
        let clean = quick_ledger(11);
        let errored = Ledger::from_sweep(
            SuiteScale::Small,
            11,
            8,
            clean.tile,
            &[],
            vec![ErrorRow {
                matrix: "broken".to_string(),
                error: "shape mismatch: inner dimensions must agree".to_string(),
                fault: None,
                events: Some(vec![LedgerEvent {
                    site: "sweep-matrix".to_string(),
                    code: 2,
                    a: 0,
                    b: 0,
                }]),
            }],
        );
        assert_eq!(errored.errors.len(), 1);
        assert_eq!(errored.summary.matrices, 0);
        assert!(errored.render_summary().contains("1 ERRORED"));
        assert!(!clean.render_summary().contains("ERRORED"));
        let back = Ledger::from_json(&errored.to_json()).expect("parses");
        assert_eq!(back, errored);
    }

    #[test]
    fn gate_rejects_error_row_count_change() {
        let clean = quick_ledger(13);
        let mut errored = clean.clone();
        errored.errors.push(ErrorRow {
            matrix: "broken".to_string(),
            error: "boom".to_string(),
            fault: None,
            events: None,
        });
        let errs = errored.gate(&clean).expect_err("new error row must gate");
        assert!(errs.iter().any(|e| e.contains("error-row count")));
        // Symmetric: a baseline with errors and a clean run also mismatch
        // (the baseline must be consciously refreshed).
        let errs = clean.gate(&errored).expect_err("count mismatch either way");
        assert!(errs.iter().any(|e| e.contains("error-row count")));
    }

    #[test]
    fn faulted_ledger_identity_gates_against_clean() {
        let clean = quick_ledger(15);
        assert_eq!(clean.fault_seed, None);
        assert_eq!(clean.fault_rate_ppm, None);

        let plan = FaultPlan::new(0xFA17, 250_000);
        let mut faulted = clean.clone();
        faulted.fault_seed = Some(plan.seed);
        faulted.fault_rate_ppm = Some(plan.rate_ppm);
        let errs = faulted
            .gate(&clean)
            .expect_err("faulted vs clean must mismatch");
        assert!(errs.iter().any(|e| e.contains("fault seed")));
        assert!(errs.iter().any(|e| e.contains("fault rate")));
        // Same plan on both sides compares normally.
        assert!(faulted.gate(&faulted).is_ok());

        // A faulted sweep stamps the plan identity onto the aggregation.
        let mut stamped = Ledger::from_sweep(SuiteScale::Small, 15, 8, clean.tile, &[], Vec::new());
        stamped.fault_seed = Some(plan.seed);
        stamped.fault_rate_ppm = Some(plan.rate_ppm);
        assert_eq!(stamped.fault_seed, Some(0xFA17));
        assert_eq!(stamped.fault_rate_ppm, Some(250_000));
        let back = Ledger::from_json(&stamped.to_json()).expect("parses");
        assert_eq!(back, stamped);
    }

    #[test]
    fn clean_ledger_json_has_no_events_key() {
        // `events` is additive and error-row-only: a clean sweep's JSON
        // must not mention it, so committed pre-field baselines stay
        // byte-identical.
        let ledger = quick_ledger(19);
        assert!(ledger.errors.is_empty());
        assert!(!ledger.to_json().contains("\"events\""));
        // And old files without the key parse with `events: None`.
        let errored = Ledger::from_sweep(
            SuiteScale::Small,
            19,
            8,
            ledger.tile,
            &[],
            vec![ErrorRow {
                matrix: "old".to_string(),
                error: "boom".to_string(),
                fault: None,
                events: None,
            }],
        );
        // Remove the key outright (with its leading comma), the same way
        // the pre-v4 `perf` test emulates an older file.
        let json = errored.to_json();
        let start = json.find("\"events\"").expect("events field serialized");
        let comma = json[..start].rfind(',').expect("comma before events");
        let null_end = start + json[start..].find("null").expect("null events") + 4;
        let stripped = format!("{}{}", &json[..comma], &json[null_end..]);
        let back = Ledger::from_json(&stripped).expect("missing events key parses");
        assert_eq!(back.errors[0].events, None);
    }

    #[test]
    fn harvest_events_scrubs_caps_and_keeps_fault_tail() {
        use nmt_obs::EventSite;
        let obs = ObsContext::disabled();
        // More benign events than the cap, plus a handful of fault-class
        // events; content order sorts fault sites last, so the cap must
        // never evict them.
        for i in 0..60u64 {
            obs.flight.record(EventSite::FarmStrip, 0, i, 0);
        }
        obs.flight
            .record(EventSite::FaultConvertStrip, 2, 7, 0xBEEF);
        obs.flight.record(EventSite::FaultPartitionDropout, 1, 3, 0);
        let harvested = harvest_events(&obs);
        assert_eq!(harvested.len(), ERROR_ROW_EVENT_CAP);
        let last = &harvested[harvested.len() - 1];
        assert_eq!(last.site, "fault-partition-dropout");
        assert_eq!(harvested[harvested.len() - 2].site, "fault-convert-strip");
        assert_eq!(harvested[harvested.len() - 2].code, 2);
        assert_eq!(harvested[harvested.len() - 2].b, 0xBEEF);

        // Same recording sequence, fresh context: identical harvest —
        // the scrub drops every schedule-dependent field.
        let obs2 = ObsContext::disabled();
        for i in 0..60u64 {
            obs2.flight.record(EventSite::FarmStrip, 0, i, 0);
        }
        obs2.flight
            .record(EventSite::FaultConvertStrip, 2, 7, 0xBEEF);
        obs2.flight
            .record(EventSite::FaultPartitionDropout, 1, 3, 0);
        assert_eq!(harvested, harvest_events(&obs2));
    }

    #[test]
    fn harvest_events_keeps_the_fault_and_drops_span_events() {
        use nmt_obs::EventSite;
        // Span sites sort after the fault sites: unfiltered, the tail
        // would be all span events and the fault would be cut.
        let obs = ObsContext::enabled();
        {
            let _explain = obs.span("planner.explain");
            for i in 0..40u64 {
                let _strip = obs.span("engine.farm.strip");
                obs.flight.record(EventSite::FarmStrip, 0, i, 0);
            }
            obs.flight
                .record(EventSite::FaultConvertStrip, 2, 7, 0xBEEF);
        }
        let spans = obs
            .flight
            .snapshot()
            .iter()
            .filter(|e| e.site.is_span())
            .count();
        assert!(spans > ERROR_ROW_EVENT_CAP, "the context holds span events");
        let harvested = harvest_events(&obs);
        assert_eq!(harvested.len(), ERROR_ROW_EVENT_CAP);
        assert!(harvested.iter().all(|e| !e.site.starts_with("span-")));
        let fault = harvested.last().expect("fault kept");
        assert_eq!(
            (fault.site.as_str(), fault.a, fault.b),
            ("fault-convert-strip", 7, 0xBEEF)
        );
    }

    #[test]
    fn filenames_follow_scale() {
        assert_eq!(ledger_filename(SuiteScale::Small), "BENCH_small.json");
        assert_eq!(ledger_filename(SuiteScale::Medium), "BENCH_medium.json");
        assert_eq!(ledger_filename(SuiteScale::Paper), "BENCH_paper.json");
    }

    /// A synthetic perf section whose timings scale with `scale_ns`, so a
    /// doctored (shrunken) baseline is one call away.
    fn perf_section(scale_ns: f64) -> PerfSection {
        PerfSection {
            warmup: 1,
            iters: 8,
            resamples: 100,
            matrices: vec![MatrixPerf {
                matrix: "m0".to_string(),
                total_median_ns: 1_000_000.0 * scale_ns,
                total_ci_lo_ns: 900_000.0 * scale_ns,
                total_ci_hi_ns: 1_100_000.0 * scale_ns,
                phases: vec![PhasePerf {
                    phase: "kernel".to_string(),
                    median_ns: 600_000.0 * scale_ns,
                    mad_ns: 10_000.0 * scale_ns,
                    ci_lo_ns: 550_000.0 * scale_ns,
                    ci_hi_ns: 650_000.0 * scale_ns,
                    samples: 8,
                    rejected: 0,
                    alloc_count: 10.0,
                    alloc_bytes: 4096.0,
                }],
            }],
        }
    }

    #[test]
    fn perf_gate_skips_without_perf_sections() {
        let ledger = quick_ledger(17);
        let notes = ledger
            .perf_gate(&ledger, 0.5)
            .expect("no perf on either side is a skip, not a failure");
        assert!(notes[0].contains("skipped"), "{notes:?}");

        let mut with = ledger.clone();
        with.perf = Some(perf_section(1.0));
        let notes = with
            .perf_gate(&ledger, 0.5)
            .expect("one-sided perf also skips");
        assert!(notes[0].contains("absent in baseline"), "{notes:?}");
    }

    #[test]
    fn perf_gate_passes_identical_and_fires_on_doctored_baseline() {
        let mut run = quick_ledger(19);
        run.perf = Some(perf_section(1.0));
        let notes = run.perf_gate(&run, 0.5).expect("identical run passes");
        assert!(
            notes.iter().any(|n| n.contains("within ceiling")),
            "{notes:?}"
        );

        // Median drift above the baseline CI but inside the noise margin
        // still passes: 1.2 ms median vs a 1.1 ms CI-hi * 1.5 ceiling.
        let mut wobble = run.clone();
        let mut p = perf_section(1.0);
        p.matrices[0].total_median_ns = 1_200_000.0;
        wobble.perf = Some(p);
        assert!(wobble.perf_gate(&run, 0.5).is_ok());

        // A baseline doctored 1000x faster puts the run far past any
        // noise band: both the total and the phase gates must fire.
        let mut doctored = run.clone();
        doctored.perf = Some(perf_section(0.001));
        let errs = run
            .perf_gate(&doctored, 0.5)
            .expect_err("doctored baseline must fire");
        assert!(
            errs.iter().any(|e| e.contains("total regressed")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("phase regressed")),
            "{errs:?}"
        );
    }

    #[test]
    fn perf_gate_fires_on_alloc_regression_and_tolerates_wobble() {
        let mut base = quick_ledger(31);
        base.perf = Some(perf_section(1.0)); // kernel: 10 allocs / 4096 B

        // Per-strip allocation creep: counts and bytes blow far past
        // margin + slack even though wall time is identical.
        let mut run = base.clone();
        let mut p = perf_section(1.0);
        p.matrices[0].phases[0].alloc_count = 10_000.0;
        p.matrices[0].phases[0].alloc_bytes = 50_000_000.0;
        run.perf = Some(p);
        let errs = run
            .perf_gate(&base, 0.5)
            .expect_err("alloc blowup must fire");
        assert!(
            errs.iter()
                .any(|e| e.contains("allocation count regressed")),
            "{errs:?}"
        );
        assert!(
            errs.iter()
                .any(|e| e.contains("allocation bytes regressed")),
            "{errs:?}"
        );

        // Pool steady-state wobble stays inside margin + slack.
        let mut wobble = base.clone();
        let mut p = perf_section(1.0);
        p.matrices[0].phases[0].alloc_count = 14.0;
        p.matrices[0].phases[0].alloc_bytes = 6_000.0;
        wobble.perf = Some(p);
        assert!(wobble.perf_gate(&base, 0.5).is_ok());
    }

    #[test]
    fn perf_gate_flags_matrix_set_change() {
        let mut run = quick_ledger(21);
        run.perf = Some(perf_section(1.0));
        let mut base = run.clone();
        let mut p = perf_section(1.0);
        p.matrices[0].matrix = "renamed".to_string();
        base.perf = Some(p);
        let errs = run
            .perf_gate(&base, 0.5)
            .expect_err("baseline matrix missing from run");
        assert!(errs[0].contains("matrix set changed"), "{errs:?}");
    }

    #[test]
    fn perf_section_roundtrips_and_missing_field_parses_as_none() {
        let mut ledger = quick_ledger(23);
        ledger.perf = Some(perf_section(1.0));
        let back = Ledger::from_json(&ledger.to_json()).expect("parses");
        assert_eq!(back, ledger);

        // Pre-v4 files have no `perf` key at all; the Option must land as
        // None. Strip the serialized null (and its leading comma) to
        // reproduce that shape.
        let clean = quick_ledger(23);
        let json = clean.to_json();
        let start = json.find("\"perf\"").expect("perf field serialized");
        let comma = json[..start].rfind(',').expect("comma before perf");
        let null_end = start + json[start..].find("null").expect("null perf") + 4;
        let stripped = format!("{}{}", &json[..comma], &json[null_end..]);
        let back = Ledger::from_json(&stripped).expect("parses without a perf key");
        assert_eq!(back.perf, None);
        assert_eq!(back, clean);
    }

    #[test]
    fn measure_perf_attributes_phases_over_quick_suite() {
        let config = PlannerConfig::test_small();
        let suite: Vec<_> = SuiteSpec::quick(29)
            .build()
            .into_iter()
            .map(|(desc, csr)| (desc, Ok(csr)))
            .collect();
        let cfg = BenchConfig {
            warmup: 1,
            iters: 3,
        };
        let section = measure_perf(&suite, &config, 8, &cfg);
        assert_eq!(section.iters, 3);
        assert_eq!(
            section.matrices.len(),
            suite.len(),
            "quick suite all builds"
        );
        for m in &section.matrices {
            assert!(
                m.total_median_ns > 0.0,
                "{}: window must be timed",
                m.matrix
            );
            assert!(m.total_ci_lo_ns <= m.total_median_ns);
            assert!(m.total_median_ns <= m.total_ci_hi_ns);
            assert!(!m.phases.is_empty(), "{}: phases attributed", m.matrix);
            for p in &m.phases {
                assert!(
                    Phase::from_name(&p.phase).is_some(),
                    "unknown phase name {:?}",
                    p.phase
                );
                assert_eq!(
                    p.samples + p.rejected,
                    3,
                    "every iteration sampled (kept + MAD-rejected)"
                );
            }
            assert!(
                m.phases.iter().any(|p| p.phase == Phase::Baseline.name()),
                "{}: the baseline kernel always runs",
                m.matrix
            );
        }
    }
}
