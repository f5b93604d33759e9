//! The planner decision audit: *why* a dataflow was picked, whether the
//! oracle agrees, and how far the Table 1 analytical traffic model drifts
//! from the simulator's measured per-class bytes.
//!
//! [`SpmmPlanner::explain`](crate::planner::SpmmPlanner::explain) produces
//! a [`DecisionAudit`] per matrix: the SSF inputs behind the heuristic,
//! the baseline's time and stall breakdown (Figure 2),
//! both candidate kernels' measured times and per-[`TrafficClass`] DRAM
//! bytes, the analytical predictions for each, signed relative errors per
//! operand, the chosen and oracle dataflows, and the cost of a mispick.
//! [`DecisionAudit::publish`] turns the comparison into registry gauges
//! and histograms so model drift is an alarmable metric, not a footnote.

use nmt_fault::FaultRecord;
use nmt_model::ssf::{Choice, SsfProfile};
use nmt_model::TrafficEstimate;
use nmt_obs::ObsContext;
use nmt_sim::{KernelStats, StallBreakdown, TrafficClass};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Predicted-vs-measured traffic for one operand of one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficValidation {
    /// Operand label (`mat_a` / `mat_b` / `mat_c`).
    pub class: String,
    /// Table-1 analytical prediction in bytes.
    pub predicted_bytes: f64,
    /// Simulator-measured DRAM bytes.
    pub measured_bytes: u64,
    /// Signed relative error `(measured − predicted) / predicted`
    /// (0 when the prediction is 0 bytes).
    pub rel_err: f64,
}

/// One candidate kernel's side of the audit: measured run + model check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelAudit {
    /// Dataflow label (`c-stationary` / `b-stationary-online`).
    pub dataflow: String,
    /// Measured kernel time in ns.
    pub time_ns: f64,
    /// Speedup over the cuSPARSE-baseline stand-in.
    pub speedup: f64,
    /// Measured DRAM bytes per [`TrafficClass`] label.
    pub dram_bytes: BTreeMap<String, u64>,
    /// Per-operand model validation (A, B, C).
    pub validation: Vec<TrafficValidation>,
    /// Mean of `|rel_err|` over the validated operands.
    pub mean_abs_rel_err: f64,
}

impl KernelAudit {
    /// Build one side of the audit from a measured run and the analytical
    /// prediction for the dataflow that produced it.
    pub fn new(
        dataflow: impl Into<String>,
        baseline_ns: f64,
        stats: &KernelStats,
        predicted: &TrafficEstimate,
    ) -> Self {
        let mut dram_bytes = BTreeMap::new();
        for class in TrafficClass::ALL {
            dram_bytes.insert(class.label().to_string(), stats.dram_traffic.get(class));
        }
        let pairs = [
            (TrafficClass::MatA, predicted.a_bytes),
            (TrafficClass::MatB, predicted.b_bytes),
            (TrafficClass::MatC, predicted.c_bytes),
        ];
        let validation: Vec<TrafficValidation> = pairs
            .into_iter()
            .map(|(class, predicted_bytes)| {
                let measured_bytes = stats.dram_traffic.get(class);
                let rel_err = if predicted_bytes > 0.0 {
                    (measured_bytes as f64 - predicted_bytes) / predicted_bytes
                } else {
                    0.0
                };
                TrafficValidation {
                    class: class.label().to_string(),
                    predicted_bytes,
                    measured_bytes,
                    rel_err,
                }
            })
            .collect();
        let mean_abs_rel_err =
            validation.iter().map(|v| v.rel_err.abs()).sum::<f64>() / validation.len() as f64;
        Self {
            dataflow: dataflow.into(),
            time_ns: stats.total_ns,
            speedup: baseline_ns / stats.total_ns.max(1e-9),
            dram_bytes,
            validation,
            mean_abs_rel_err,
        }
    }
}

/// Everything the planner knew — and should have known — about one matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionAudit {
    /// Matrix identifier (caller-supplied).
    pub matrix: String,
    /// Rows of A.
    pub nrows: usize,
    /// Columns of A.
    pub ncols: usize,
    /// Non-zeros of A.
    pub nnz: usize,
    /// Dense-operand width (columns of B).
    pub k: usize,
    /// Strip/tile width the heuristic and engine used.
    pub tile: usize,
    /// The SSF profile — every input the heuristic saw.
    pub profile: SsfProfile,
    /// The decision threshold in force.
    pub threshold: f64,
    /// Heuristic pick.
    pub chosen: Choice,
    /// Measured-best pick (the faster of the two candidates; ties go
    /// C-stationary, which never pays atomics).
    pub oracle: Choice,
    /// Whether the heuristic disagreed with the oracle.
    pub mispick: bool,
    /// `chosen_time / oracle_time` — 1.0 when the pick was right, the
    /// slowdown factor paid for the wrong pick otherwise.
    pub mispick_cost: f64,
    /// Baseline (cuSPARSE stand-in) time in ns.
    pub baseline_ns: f64,
    /// Where the baseline run's time went (Figure 2's stall taxonomy).
    pub baseline_stall: StallBreakdown,
    /// The C-stationary candidate (untiled DCSR, row per warp).
    pub cstationary: KernelAudit,
    /// The B-stationary candidate (online-tiled DCSR via the engine).
    pub bstationary: KernelAudit,
    /// Injected-fault outcome, when the B-stationary attempt escalated a
    /// fault and the degraded-mode policy substituted the untiled
    /// C-stationary run (`fell_back` is true when the heuristic would
    /// actually have routed this matrix to the engine path).
    pub fault: Option<FaultRecord>,
}

impl DecisionAudit {
    /// The audit side the heuristic picked.
    pub fn chosen_audit(&self) -> &KernelAudit {
        match self.chosen {
            Choice::CStationary => &self.cstationary,
            Choice::BStationary => &self.bstationary,
        }
    }

    /// The audit side the oracle picked.
    pub fn oracle_audit(&self) -> &KernelAudit {
        match self.oracle {
            Choice::CStationary => &self.cstationary,
            Choice::BStationary => &self.bstationary,
        }
    }

    /// Speedup of the oracle's pick over the baseline.
    pub fn oracle_speedup(&self) -> f64 {
        self.oracle_audit().speedup
    }

    /// Publish the audit into a metric registry: per-operand model
    /// relative-error gauges (`audit.model.<dataflow>.rel_err.<class>`),
    /// an absolute-relative-error histogram in percent
    /// (`audit.model.abs_rel_err_pct`), and mispick gauges/counters.
    /// Counters accumulate, so one shared context aggregates a sweep.
    pub fn publish(&self, obs: &ObsContext) {
        let m = &obs.metrics;
        for side in [&self.cstationary, &self.bstationary] {
            let df = side.dataflow.replace('-', "_");
            for v in &side.validation {
                m.gauge_set(&format!("audit.model.{df}.rel_err.{}", v.class), v.rel_err);
                m.histogram_record(
                    "audit.model.abs_rel_err_pct",
                    (v.rel_err.abs() * 100.0).round() as u64,
                );
            }
            m.gauge_set(
                &format!("audit.model.{df}.mean_abs_rel_err"),
                side.mean_abs_rel_err,
            );
        }
        m.counter_add("audit.decisions", 1);
        m.counter_add("audit.mispicks", self.mispick as u64);
        if let Some(fault) = &self.fault {
            m.counter_add("fault.escalations", 1);
            if fault.fell_back {
                m.counter_add("fault.fallbacks", 1);
            }
        }
        m.gauge_set("audit.mispick", self.mispick as u64 as f64);
        m.gauge_set("audit.mispick_cost", self.mispick_cost);
        m.histogram_record(
            "audit.mispick_cost_pct",
            ((self.mispick_cost - 1.0).max(0.0) * 100.0).round() as u64,
        );
    }

    /// Render the human-readable explain report the `audit` subcommand
    /// prints.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "matrix           : {} ({}x{}, nnz {})",
            self.matrix, self.nrows, self.ncols, self.nnz
        );
        let _ = writeln!(
            s,
            "SSF              : {:.4e} (threshold {:.3e}, tile {})",
            self.profile.ssf, self.threshold, self.tile
        );
        let _ = writeln!(
            s,
            "  inputs         : nnzrow_frac {:.4} | mean_strip_frac {:.4} | H_norm {:.4}",
            self.profile.nnzrow_frac, self.profile.mean_strip_frac, self.profile.h_norm
        );
        let verdict = if self.mispick {
            format!("MISPICK ({:.2}x slower than oracle)", self.mispick_cost)
        } else {
            "correct".to_string()
        };
        let _ = writeln!(
            s,
            "decision         : {} | oracle: {} | {}",
            self.chosen.label(),
            self.oracle.label(),
            verdict
        );
        if let Some(fault) = &self.fault {
            let _ = writeln!(s, "degraded mode    : {fault}");
        }
        let _ = writeln!(s, "baseline         : {:.2} us", self.baseline_ns / 1e3);
        for side in [&self.cstationary, &self.bstationary] {
            let marker = if side.dataflow == self.chosen_audit().dataflow {
                "  <- chosen"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "{:<17}: {:.2} us (speedup {:.2}x){marker}",
                side.dataflow,
                side.time_ns / 1e3,
                side.speedup
            );
            let _ = writeln!(
                s,
                "  {:<6} {:>14} {:>14} {:>9}",
                "class", "predicted B", "measured B", "rel err"
            );
            for v in &side.validation {
                let _ = writeln!(
                    s,
                    "  {:<6} {:>14.0} {:>14} {:>8.1}%",
                    v.class,
                    v.predicted_bytes,
                    v.measured_bytes,
                    v.rel_err * 100.0
                );
            }
            let _ = writeln!(
                s,
                "  model mean |rel err| : {:.1}%",
                side.mean_abs_rel_err * 100.0
            );
        }
        s
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        // nmt-lint: allow(panic) — serializing a plain data struct cannot fail
        serde_json::to_string_pretty(self).expect("audit serializes")
    }
}
