//! Forensic ledger diffing: `nmt-cli diff <A> <B>`.
//!
//! Where [`Ledger::gate`](crate::Ledger::gate) answers *"did this run
//! regress past tolerance?"* with a yes/no, the differ answers *"what
//! moved, and who did it?"* It attributes geometric-mean speedup movement
//! to individual matrices (each matrix's share of `Δlog G` — the log of
//! the geomean is the mean of per-matrix logs, so the shares sum exactly
//! to the headline movement), aggregates the movement by chosen dataflow
//! class, and — when both ledgers carry a schema-v4 `perf` section —
//! flags wall-time deltas that clear the baseline's bootstrap confidence
//! interval, per matrix and per pipeline phase.
//!
//! A is the baseline and B the run. The identity check and the perf pass
//! are the gate's own ([`crate::ledger`]), run at zero margin and zero
//! slack: a median is flagged as a regression exactly when it lies
//! **above** A's CI upper bound (and as an improvement when below the
//! lower bound). Identical ledgers therefore flag nothing — a median
//! always lies inside its own CI — while a doctored timing column lights
//! up precisely the doctored matrices and phases.

use crate::ledger::{
    compare_perf, identity_mismatches, perf_sections, same_schema, Ledger, LedgerRow, PerfSection,
};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Headline geomean movement between the two ledgers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeomeanDiff {
    /// Geomean speedup in ledger A.
    pub a: f64,
    /// Geomean speedup in ledger B.
    pub b: f64,
    /// `b / a` (1.0 = no movement, <1.0 = B is worse).
    pub ratio: f64,
}

/// One matrix's share of the geomean movement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixDelta {
    /// Suite matrix name.
    pub matrix: String,
    /// Chosen dataflow class in ledger B.
    pub class: String,
    /// Speedup in ledger A.
    pub speedup_a: f64,
    /// Speedup in ledger B.
    pub speedup_b: f64,
    /// `ln(speedup_b / speedup_a)` — negative when B is worse.
    pub log_ratio: f64,
    /// This matrix's share of `Δln(geomean)` (`log_ratio / n`); the
    /// shares over all common matrices sum to the headline movement.
    pub contribution: f64,
}

/// Aggregate movement of one chosen-dataflow class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDelta {
    /// Dataflow label (`c-stationary` / `b-stationary`).
    pub class: String,
    /// Matrices choosing this class in A.
    pub count_a: usize,
    /// Matrices choosing this class in B.
    pub count_b: usize,
    /// Geomean speedup of the class members (common matrices, grouped by
    /// B's choice) in ledger A.
    pub geomean_a: f64,
    /// Same members' geomean speedup in ledger B.
    pub geomean_b: f64,
    /// `geomean_b / geomean_a`.
    pub ratio: f64,
}

/// Aggregate wall-time movement of one pipeline phase (sum of per-matrix
/// phase medians over matrices present in both perf sections).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDelta {
    /// Phase name (`parse`/`plan`/`convert`/`kernel`/`reduce`/`other`).
    pub phase: String,
    /// Summed phase medians in A, ns.
    pub total_a_ns: f64,
    /// Summed phase medians in B, ns.
    pub total_b_ns: f64,
    /// `total_b_ns / total_a_ns` (>1.0 = B is slower).
    pub ratio: f64,
}

/// One CI-significant wall-time delta: B's median cleared A's bootstrap
/// confidence interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfFlag {
    /// Suite matrix name.
    pub matrix: String,
    /// Phase name, or `total` for the end-to-end median.
    pub phase: String,
    /// A's median, ns.
    pub a_median_ns: f64,
    /// The CI bound B had to clear (upper for regressions, lower for
    /// improvements), ns.
    pub a_ci_bound_ns: f64,
    /// B's median, ns.
    pub b_median_ns: f64,
    /// `b_median_ns / a_median_ns`.
    pub ratio: f64,
}

/// The full forensic comparison. Serializes for `--json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffReport {
    /// Identity fields that differ (seed, scale, fault plan, …) — the
    /// comparison still runs, but these explain wholesale movement.
    pub identity_notes: Vec<String>,
    /// Headline geomean movement.
    pub geomean: GeomeanDiff,
    /// SSF accuracy in A.
    pub accuracy_a: f64,
    /// SSF accuracy in B.
    pub accuracy_b: f64,
    /// Per-matrix movement over matrices present in both ledgers, worst
    /// contribution first (ties by name).
    pub matrices: Vec<MatrixDelta>,
    /// Matrices only ledger A has rows for.
    pub only_in_a: Vec<String>,
    /// Matrices only ledger B has rows for.
    pub only_in_b: Vec<String>,
    /// Error-row count in A / B.
    pub errors_a: usize,
    /// Error-row count in B.
    pub errors_b: usize,
    /// Movement grouped by B's chosen dataflow class.
    pub classes: Vec<ClassDelta>,
    /// Per-phase aggregate wall-time movement (empty without perf on
    /// both sides).
    pub phases: Vec<PhaseDelta>,
    /// CI-significant slowdowns in B, worst ratio first.
    pub perf_regressions: Vec<PerfFlag>,
    /// CI-significant speedups in B, best ratio first.
    pub perf_improvements: Vec<PerfFlag>,
    /// Why the perf comparison was skipped, when it was.
    pub perf_note: Option<String>,
}

impl DiffReport {
    /// Serialize for `--json`.
    pub fn to_json(&self) -> String {
        // nmt-lint: allow(panic) — serializing a plain data struct cannot fail
        serde_json::to_string_pretty(self).expect("diff report serializes")
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let g = &self.geomean;
        out.push_str(&format!(
            "geomean speedup: {:.4} -> {:.4} ({:+.2}%)\n",
            g.a,
            g.b,
            (g.ratio - 1.0) * 100.0
        ));
        out.push_str(&format!(
            "ssf accuracy:    {:.4} -> {:.4}\n",
            self.accuracy_a, self.accuracy_b
        ));
        if self.errors_a != 0 || self.errors_b != 0 {
            out.push_str(&format!(
                "error rows:      {} -> {}\n",
                self.errors_a, self.errors_b
            ));
        }
        for note in &self.identity_notes {
            out.push_str(&format!("identity: {note}\n"));
        }
        if !self.only_in_a.is_empty() {
            out.push_str(&format!("only in A: {}\n", self.only_in_a.join(", ")));
        }
        if !self.only_in_b.is_empty() {
            out.push_str(&format!("only in B: {}\n", self.only_in_b.join(", ")));
        }

        out.push_str("\nper-class movement (grouped by B's choice):\n");
        for c in &self.classes {
            out.push_str(&format!(
                "  {:<14} {:>3} -> {:>3} matrices, geomean {:.4} -> {:.4} ({:+.2}%)\n",
                c.class,
                c.count_a,
                c.count_b,
                c.geomean_a,
                c.geomean_b,
                (c.ratio - 1.0) * 100.0
            ));
        }

        out.push_str("\ntop matrix contributions to geomean movement:\n");
        for m in self.matrices.iter().take(8) {
            out.push_str(&format!(
                "  {:<24} {:<14} {:.4} -> {:.4} (share of dln G: {:+.5})\n",
                m.matrix, m.class, m.speedup_a, m.speedup_b, m.contribution
            ));
        }

        match &self.perf_note {
            Some(note) => out.push_str(&format!("\nperf: {note}\n")),
            None => {
                out.push_str("\nper-phase wall-time movement:\n");
                for p in &self.phases {
                    out.push_str(&format!(
                        "  {:<8} {:>14.0} ns -> {:>14.0} ns ({:+.2}%)\n",
                        p.phase,
                        p.total_a_ns,
                        p.total_b_ns,
                        (p.ratio - 1.0) * 100.0
                    ));
                }
                if self.perf_regressions.is_empty() {
                    out.push_str("perf: no CI-significant regressions\n");
                } else {
                    out.push_str(&format!(
                        "perf: {} CI-significant regression(s):\n",
                        self.perf_regressions.len()
                    ));
                    for f in &self.perf_regressions {
                        out.push_str(&format!(
                            "  REGRESSED {:<24} {:<8} {:.0} ns -> {:.0} ns ({:.2}x, CI hi {:.0} ns)\n",
                            f.matrix, f.phase, f.a_median_ns, f.b_median_ns, f.ratio, f.a_ci_bound_ns
                        ));
                    }
                }
                for f in &self.perf_improvements {
                    out.push_str(&format!(
                        "  improved  {:<24} {:<8} {:.0} ns -> {:.0} ns ({:.2}x, CI lo {:.0} ns)\n",
                        f.matrix, f.phase, f.a_median_ns, f.b_median_ns, f.ratio, f.a_ci_bound_ns
                    ));
                }
            }
        }
        out
    }
}

/// Compare two schema-v4 ledgers, A the baseline and B the run. Errors
/// only on a schema-version mismatch (the field sets are not comparable);
/// every identity difference becomes a note in the report.
pub fn diff_ledgers(a: &Ledger, b: &Ledger) -> Result<DiffReport, String> {
    same_schema(a, b)?;
    let identity_notes = identity_mismatches(a, b)
        .into_iter()
        .map(|(what, va, vb)| format!("{what} {va} vs {vb}"))
        .collect();

    let rows_a: BTreeMap<&str, &LedgerRow> =
        a.rows.iter().map(|r| (r.matrix.as_str(), r)).collect();
    let rows_b: BTreeMap<&str, &LedgerRow> =
        b.rows.iter().map(|r| (r.matrix.as_str(), r)).collect();
    let only = |x: &BTreeMap<&str, &LedgerRow>, y: &BTreeMap<&str, &LedgerRow>| -> Vec<String> {
        x.keys()
            .filter(|k| !y.contains_key(*k))
            .map(|k| (*k).to_string())
            .collect()
    };
    let (only_in_a, only_in_b) = (only(&rows_a, &rows_b), only(&rows_b, &rows_a));

    // Per-matrix movement over the common set; shares of dln(geomean).
    let common: Vec<(&LedgerRow, &LedgerRow)> = rows_a
        .iter()
        .filter_map(|(k, ra)| rows_b.get(k).map(|rb| (*ra, *rb)))
        .collect();
    let n = common.len().max(1) as f64;
    let mut matrices: Vec<MatrixDelta> = common
        .iter()
        .map(|(ra, rb)| {
            let log_ratio = (rb.speedup / ra.speedup).ln();
            MatrixDelta {
                matrix: rb.matrix.clone(),
                class: rb.chosen.clone(),
                speedup_a: ra.speedup,
                speedup_b: rb.speedup,
                log_ratio,
                contribution: log_ratio / n,
            }
        })
        .collect();
    matrices.sort_by(|x, y| {
        x.contribution
            .partial_cmp(&y.contribution)
            .unwrap_or(Ordering::Equal)
            .then_with(|| x.matrix.cmp(&y.matrix))
    });

    // Per-class movement, grouped by the run-under-test's (B's) choice.
    let mut class_members: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (ra, rb) in &common {
        let entry = class_members.entry(rb.chosen.clone()).or_default();
        entry.0.push(ra.speedup);
        entry.1.push(rb.speedup);
    }
    let count_by = |l: &Ledger, class: &str| l.rows.iter().filter(|r| r.chosen == class).count();
    let classes: Vec<ClassDelta> = class_members
        .into_iter()
        .map(|(class, (sa, sb))| {
            let ga = crate::geomean(&sa);
            let gb = crate::geomean(&sb);
            ClassDelta {
                count_a: count_by(a, &class),
                count_b: count_by(b, &class),
                geomean_a: ga,
                geomean_b: gb,
                ratio: gb / ga,
                class,
            }
        })
        .collect();

    let (phases, perf_regressions, perf_improvements, perf_note) = match perf_sections(a, b) {
        Ok((pa, pb)) => {
            let (ph, reg, imp) = diff_perf(pa, pb);
            (ph, reg, imp, None)
        }
        Err(why) => (
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Some(format!(
                "{why} — wall-time comparison skipped (run bench with --perf)"
            )),
        ),
    };

    Ok(DiffReport {
        identity_notes,
        geomean: GeomeanDiff {
            a: a.summary.geomean_speedup,
            b: b.summary.geomean_speedup,
            ratio: b.summary.geomean_speedup / a.summary.geomean_speedup,
        },
        accuracy_a: a.summary.ssf_accuracy,
        accuracy_b: b.summary.ssf_accuracy,
        matrices,
        only_in_a,
        only_in_b,
        errors_a: a.errors.len(),
        errors_b: b.errors.len(),
        classes,
        phases,
        perf_regressions,
        perf_improvements,
        perf_note,
    })
}

/// Attribute the perf pass: per-phase aggregates over every (matrix,
/// phase) pair present in both sections, plus the CI-significant flags
/// (totals included) from [`compare_perf`] at zero margin and slack.
fn diff_perf(
    pa: &PerfSection,
    pb: &PerfSection,
) -> (Vec<PhaseDelta>, Vec<PerfFlag>, Vec<PerfFlag>) {
    let mut phase_totals: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    for p in compare_perf(pa, pb, 0.0, 0.0).0 {
        if p.phases.is_some() {
            let entry = phase_totals.entry(p.phase.to_string()).or_default();
            entry.0 += p.base_median_ns;
            entry.1 += p.run_median_ns;
        }
        let (flags, bound, zero_base_ratio) = match p.shift {
            Ordering::Greater => (&mut regressions, p.base_ci_hi_ns, f64::INFINITY),
            Ordering::Less => (&mut improvements, p.base_ci_lo_ns, 0.0),
            Ordering::Equal => continue,
        };
        flags.push(PerfFlag {
            matrix: p.matrix.to_string(),
            phase: p.phase.to_string(),
            a_median_ns: p.base_median_ns,
            a_ci_bound_ns: bound,
            b_median_ns: p.run_median_ns,
            ratio: if p.base_median_ns > 0.0 {
                p.run_median_ns / p.base_median_ns
            } else {
                zero_base_ratio
            },
        });
    }

    let phases: Vec<PhaseDelta> = phase_totals
        .into_iter()
        .map(|(phase, (ta, tb))| PhaseDelta {
            phase,
            total_a_ns: ta,
            total_b_ns: tb,
            ratio: if ta > 0.0 { tb / ta } else { 1.0 },
        })
        .collect();

    // Worst slowdown first; best speedup first; ties by (matrix, phase)
    // so the report is deterministic.
    let ratio = |x: &PerfFlag, y: &PerfFlag| x.ratio.total_cmp(&y.ratio);
    let name = |x: &PerfFlag, y: &PerfFlag| (&x.matrix, &x.phase).cmp(&(&y.matrix, &y.phase));
    regressions.sort_by(|x, y| ratio(y, x).then_with(|| name(x, y)));
    improvements.sort_by(|x, y| ratio(x, y).then_with(|| name(x, y)));
    (phases, regressions, improvements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{LatencyPercentiles, MatrixPerf, PerfSection, PhasePerf};

    fn perf_matrix(name: &str, base_ns: f64) -> MatrixPerf {
        let phase = |p: &str, ns: f64| PhasePerf {
            phase: p.to_string(),
            median_ns: ns,
            mad_ns: ns * 0.01,
            ci_lo_ns: ns * 0.95,
            ci_hi_ns: ns * 1.05,
            samples: 8,
            rejected: 0,
            alloc_count: 0.0,
            alloc_bytes: 0.0,
        };
        MatrixPerf {
            matrix: name.to_string(),
            total_median_ns: base_ns,
            total_ci_lo_ns: base_ns * 0.95,
            total_ci_hi_ns: base_ns * 1.05,
            phases: vec![phase("plan", base_ns * 0.2), phase("kernel", base_ns * 0.8)],
        }
    }

    fn ledger_with_perf() -> Ledger {
        let mut ledger = toy_ledger(&[("m0", "c-stationary", 2.0), ("m1", "b-stationary", 3.0)]);
        ledger.perf = Some(PerfSection {
            warmup: 1,
            iters: 8,
            resamples: 100,
            matrices: vec![
                perf_matrix("m0", 1_000_000.0),
                perf_matrix("m1", 2_000_000.0),
            ],
        });
        ledger
    }

    // A tiny hand-built ledger so tests don't need a sweep.
    fn toy_ledger(speedups: &[(&str, &str, f64)]) -> Ledger {
        let mut ledger = Ledger {
            schema_version: crate::ledger::LEDGER_SCHEMA_VERSION,
            scale: "small".to_string(),
            seed: 1,
            k: 8,
            tile: 16,
            fault_seed: None,
            fault_rate_ppm: None,
            rows: Vec::new(),
            errors: Vec::new(),
            summary: crate::ledger::CorpusSummary {
                matrices: speedups.len(),
                geomean_speedup: 1.0,
                oracle_geomean_speedup: 1.0,
                ssf_accuracy: 1.0,
                mispicks: 0,
                mean_mispick_cost: 1.0,
                improved_fraction: 1.0,
                traffic_bytes: Default::default(),
                chosen_latency_ns: LatencyPercentiles {
                    p50: 1.0,
                    p95: 1.0,
                    p99: 1.0,
                },
                model_mean_abs_rel_err: 0.0,
            },
            perf: None,
        };
        for (name, class, s) in speedups {
            let row = crate::ledger::LedgerRow {
                matrix: (*name).to_string(),
                n: 64,
                nnz: 256,
                ssf: 1.0,
                h_norm: 0.5,
                chosen: (*class).to_string(),
                oracle: (*class).to_string(),
                mispick: false,
                mispick_cost: 1.0,
                baseline_ns: 100.0,
                baseline_stall: Default::default(),
                cstat_ns: 50.0,
                bstat_ns: 50.0,
                speedup: *s,
                oracle_speedup: *s,
                dram_bytes: Default::default(),
                model_abs_rel_err: 0.0,
            };
            ledger.rows.push(row);
        }
        let speeds: Vec<f64> = ledger.rows.iter().map(|r| r.speedup).collect();
        ledger.summary.geomean_speedup = crate::geomean(&speeds);
        ledger
    }

    #[test]
    fn identical_ledgers_diff_clean() {
        let a = toy_ledger(&[("m0", "c-stationary", 2.0), ("m1", "b-stationary", 3.0)]);
        let report = diff_ledgers(&a, &a).expect("diffs");
        assert!(report.identity_notes.is_empty());
        assert!((report.geomean.ratio - 1.0).abs() < 1e-12);
        assert!(report.only_in_a.is_empty() && report.only_in_b.is_empty());
        for m in &report.matrices {
            assert!(m.contribution.abs() < 1e-12);
        }
        assert!(report.perf_note.is_some(), "no perf sections to compare");
        assert!(report.perf_regressions.is_empty());
    }

    #[test]
    fn matrix_contributions_sum_to_geomean_movement() {
        let a = toy_ledger(&[("m0", "c-stationary", 2.0), ("m1", "b-stationary", 3.0)]);
        let b = toy_ledger(&[("m0", "c-stationary", 1.0), ("m1", "b-stationary", 3.3)]);
        let report = diff_ledgers(&a, &b).expect("diffs");
        let total: f64 = report.matrices.iter().map(|m| m.contribution).sum();
        assert!(
            (total - report.geomean.ratio.ln()).abs() < 1e-12,
            "shares {total} must sum to dln G {}",
            report.geomean.ratio.ln()
        );
        // Worst contribution first: m0 halved, m1 improved.
        assert_eq!(report.matrices[0].matrix, "m0");
        assert!(report.matrices[0].contribution < 0.0);
        // Class grouping splits the movement.
        assert_eq!(report.classes.len(), 2);
        let cstat = report
            .classes
            .iter()
            .find(|c| c.class == "c-stationary")
            .expect("class present");
        assert!(cstat.ratio < 1.0);
    }

    #[test]
    fn disjoint_matrices_and_identity_drift_are_noted() {
        let a = toy_ledger(&[("m0", "c-stationary", 2.0), ("gone", "c-stationary", 2.0)]);
        let mut b = toy_ledger(&[("m0", "c-stationary", 2.0), ("new", "c-stationary", 2.0)]);
        b.seed = 7;
        b.fault_seed = Some(1);
        let report = diff_ledgers(&a, &b).expect("diffs");
        assert_eq!(report.only_in_a, vec!["gone".to_string()]);
        assert_eq!(report.only_in_b, vec!["new".to_string()]);
        assert!(report
            .identity_notes
            .iter()
            .any(|n| n.contains("seed 1 vs 7")));
        assert!(report
            .identity_notes
            .iter()
            .any(|n| n.contains("fault plan")));
    }

    #[test]
    fn schema_mismatch_refuses() {
        let a = toy_ledger(&[("m0", "c-stationary", 2.0)]);
        let mut b = a.clone();
        b.schema_version += 1;
        assert!(diff_ledgers(&a, &b).is_err());
    }

    #[test]
    fn doctored_perf_flags_exactly_the_doctored_pairs() {
        let a = ledger_with_perf();
        let mut b = a.clone();
        {
            // Doctor m1's kernel phase and total by x1000; leave m0 and
            // m1/plan untouched.
            let perf = b.perf.as_mut().expect("perf present");
            let m1 = perf
                .matrices
                .iter_mut()
                .find(|m| m.matrix == "m1")
                .expect("m1 present");
            m1.total_median_ns *= 1000.0;
            m1.total_ci_lo_ns *= 1000.0;
            m1.total_ci_hi_ns *= 1000.0;
            let kernel = m1
                .phases
                .iter_mut()
                .find(|p| p.phase == "kernel")
                .expect("kernel phase");
            kernel.median_ns *= 1000.0;
            kernel.ci_lo_ns *= 1000.0;
            kernel.ci_hi_ns *= 1000.0;
        }
        let report = diff_ledgers(&a, &b).expect("diffs");
        let flagged: Vec<(String, String)> = report
            .perf_regressions
            .iter()
            .map(|f| (f.matrix.clone(), f.phase.clone()))
            .collect();
        assert_eq!(
            flagged,
            vec![
                ("m1".to_string(), "kernel".to_string()),
                ("m1".to_string(), "total".to_string()),
            ],
            "exactly the doctored pairs flag, worst ratio first"
        );
        assert!(report.perf_improvements.is_empty());
        assert!(!report.perf_regressions.is_empty());
        // Reverse direction: the same deltas read as improvements.
        let reverse = diff_ledgers(&b, &a).expect("diffs");
        assert!(reverse.perf_regressions.is_empty());
        assert_eq!(reverse.perf_improvements.len(), 2);
        // Identical perf flags nothing: a median sits inside its own CI.
        let same = diff_ledgers(&a, &a).expect("diffs");
        assert!(same.perf_regressions.is_empty());
        assert!(same.perf_improvements.is_empty());
        // Text + JSON both name the doctored pair.
        let text = report.render_text();
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("m1"));
        let parsed: DiffReport = serde_json::from_str(&report.to_json()).expect("JSON roundtrips");
        assert_eq!(parsed, report);
    }

    /// The `(matrix, phase)` pairs named by the perf gate's time
    /// regressions (`m: total regressed`, `m/p: phase regressed`).
    fn gate_flagged(errs: &[String]) -> Vec<(String, String)> {
        let mut flagged: Vec<(String, String)> = errs
            .iter()
            .filter_map(|e| {
                let (label, rest) = e.split_once(": ")?;
                if rest.starts_with("total regressed") {
                    Some((label.to_string(), "total".to_string()))
                } else if rest.starts_with("phase regressed") {
                    let (m, p) = label.split_once('/')?;
                    Some((m.to_string(), p.to_string()))
                } else {
                    None
                }
            })
            .collect();
        flagged.sort();
        flagged
    }

    #[test]
    fn diff_and_perf_gate_share_one_comparison() {
        let a = ledger_with_perf();
        // CI's doctoring: one matrix's totals x1000, phases untouched.
        let mut doctored = a.clone();
        {
            let victim = &mut doctored.perf.as_mut().expect("perf present").matrices[0];
            victim.total_median_ns *= 1000.0;
            victim.total_ci_lo_ns *= 1000.0;
            victim.total_ci_hi_ns *= 1000.0;
        }
        let report = diff_ledgers(&a, &doctored).expect("diffs");
        let flagged: Vec<(String, String)> = report
            .perf_regressions
            .iter()
            .map(|f| (f.matrix.clone(), f.phase.clone()))
            .collect();
        let victim = vec![("m0".to_string(), "total".to_string())];
        assert_eq!(flagged, victim, "diff flags exactly the doctored total");
        assert!(report.perf_improvements.is_empty());
        let errs = doctored
            .perf_gate(&a, 0.5)
            .expect_err("doctored run must fail the gate");
        assert_eq!(gate_flagged(&errs), victim, "{errs:?}");

        // A x1.2 median wobble clears A's CI (the differ reports it) but
        // stays inside the gate's margin + slack.
        let mut wobble = a.clone();
        wobble.perf.as_mut().expect("perf present").matrices[0].total_median_ns *= 1.2;
        let report = diff_ledgers(&a, &wobble).expect("diffs");
        assert_eq!(report.perf_regressions.len(), 1);
        assert_eq!(report.perf_regressions[0].matrix, "m0");
        assert!(wobble.perf_gate(&a, 0.5).is_ok());
    }
}
