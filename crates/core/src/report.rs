//! Structured reports: serializable summaries of planner runs, suitable
//! for the CLI's `--json` output.

use crate::planner::{Algorithm, PlanReport};
use nmt_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A flat, serializable record of one planner execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Matrix identifier (caller-supplied).
    pub matrix: String,
    /// Rows of the sparse matrix.
    pub nrows: usize,
    /// Non-zero count.
    pub nnz: usize,
    /// The SSF value (Eq. 2).
    pub ssf: f64,
    /// Normalized entropy term.
    pub h_norm: f64,
    /// Heuristic decision.
    pub choice: String,
    /// Kernel executed.
    pub algorithm: String,
    /// Baseline (cuSPARSE stand-in) time in ns.
    pub baseline_ns: f64,
    /// Chosen-kernel time in ns.
    pub chosen_ns: f64,
    /// Speedup over the baseline.
    pub speedup: f64,
    /// Engine elements converted (0 on the C-stationary path).
    pub engine_elements: u64,
    /// Engine conversion energy in picojoules.
    pub engine_energy_pj: f64,
    /// Memory-stall share of the chosen kernel.
    pub memory_stall: f64,
    /// Flattened observability metrics (`None` unless the run was executed
    /// with an enabled [`nmt_obs::ObsContext`] and the caller embedded the
    /// snapshot via [`RunRecord::with_metrics`]).
    pub metrics: Option<BTreeMap<String, f64>>,
}

impl RunRecord {
    /// Flatten a [`PlanReport`] with a matrix name and its dimensions.
    pub fn from_report(
        matrix: impl Into<String>,
        nrows: usize,
        nnz: usize,
        r: &PlanReport,
    ) -> Self {
        Self {
            matrix: matrix.into(),
            nrows,
            nnz,
            ssf: r.profile.ssf,
            h_norm: r.profile.h_norm,
            choice: r.choice.label().into(),
            algorithm: match r.algorithm {
                Algorithm::CStationaryDcsr => "cstat-dcsr".into(),
                Algorithm::BStationaryOnline => "bstat-online".into(),
            },
            baseline_ns: r.baseline_stats.total_ns,
            chosen_ns: r.stats.total_ns,
            speedup: r.speedup,
            engine_elements: r.engine.as_ref().map_or(0, |e| e.elements),
            engine_energy_pj: r.engine_energy_pj,
            memory_stall: r.stats.stall_breakdown().memory,
            metrics: None,
        }
    }

    /// Embed a flattened metrics snapshot (counters, gauges, histogram
    /// count/mean — see [`MetricsSnapshot::flat`]) into the record.
    pub fn with_metrics(mut self, snapshot: &MetricsSnapshot) -> Self {
        self.metrics = Some(snapshot.flat());
        self
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        // nmt-lint: allow(panic) — serializing a plain data struct cannot fail
        serde_json::to_string_pretty(self).expect("record serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{PlannerConfig, SpmmPlanner};
    use nmt_formats::SparseMatrix;
    use nmt_matgen::{generators, random_dense, GenKind, MatrixDesc};

    fn record(kind: GenKind, seed: u64) -> RunRecord {
        let a = generators::generate(&MatrixDesc::new("m", 128, kind, seed));
        let b = random_dense(128, 16, seed ^ 1);
        let report = SpmmPlanner::new(PlannerConfig::test_small())
            .execute(&a, &b)
            .expect("runs");
        RunRecord::from_report("m", a.shape().nrows, a.nnz(), &report)
    }

    #[test]
    fn record_roundtrips_through_json() {
        let r = record(GenKind::Uniform { density: 0.02 }, 1);
        let json = r.to_json();
        let back: RunRecord = serde_json::from_str(&json).expect("parses");
        // Floats may lose an ULP through the pretty printer; compare
        // structurally with tolerance.
        assert_eq!(back.matrix, r.matrix);
        assert_eq!(back.nnz, r.nnz);
        assert_eq!(back.choice, r.choice);
        assert_eq!(back.algorithm, r.algorithm);
        assert!((back.ssf - r.ssf).abs() <= r.ssf.abs() * 1e-12);
        assert!((back.speedup - r.speedup).abs() <= r.speedup * 1e-12);
        assert!(json.contains("\"speedup\""));
    }

    #[test]
    fn record_embeds_and_roundtrips_metrics() {
        let a = generators::generate(&MatrixDesc::new(
            "m",
            128,
            GenKind::Uniform { density: 0.02 },
            5,
        ));
        let b = random_dense(128, 16, 6);
        let obs = nmt_obs::ObsContext::enabled();
        let report = SpmmPlanner::new(PlannerConfig::test_small())
            .execute_with_obs(&a, &b, &obs)
            .expect("runs");
        let r = RunRecord::from_report("m", a.shape().nrows, a.nnz(), &report)
            .with_metrics(&obs.metrics.snapshot());
        let flat = r.metrics.as_ref().expect("metrics embedded");
        assert!(flat.contains_key("planner.phase.plan_ns"));
        assert!(flat.contains_key("kernels.chosen.dram_bytes.mat_a"));
        let back: RunRecord = serde_json::from_str(&r.to_json()).expect("parses");
        assert_eq!(back.metrics, r.metrics);
    }
}
