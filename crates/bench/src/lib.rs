//! Shared infrastructure for the experiment binaries (`src/bin/`), one per
//! paper table/figure. See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.

use nmt_formats::Csr;
use nmt_matgen::{MatrixDesc, SuiteScale, SuiteSpec};
use rayon::prelude::*;

pub mod diff;
pub mod harness;
pub mod history;
pub mod ledger;

pub use diff::{diff_ledgers, DiffReport};
pub use harness::{median, summarize, BenchConfig, BenchStats};
pub use history::{
    append_history, change_point, load_history, render_history, scan_history, BenchRun,
    HistoryRecord, ServeRun,
};
pub use ledger::{
    ledger_filename, scale_label, sweep_ledger, CorpusSummary, ErrorRow, LatencyPercentiles,
    Ledger, LedgerEvent, LedgerRow, MatrixPerf, PerfSection, PhasePerf, Sweep,
    LEDGER_SCHEMA_VERSION,
};

/// The seed shared by every experiment so figures are reproducible.
pub const EXPERIMENT_SEED: u64 = 0x5C19;

/// Parse a scale name (`small` / `medium` / `paper`), rejecting anything
/// else so a typo cannot silently demote a paper-scale run.
pub fn parse_scale(name: &str) -> Result<SuiteScale, String> {
    match name {
        "small" => Ok(SuiteScale::Small),
        "medium" => Ok(SuiteScale::Medium),
        "paper" => Ok(SuiteScale::Paper),
        other => Err(format!(
            "unrecognized scale '{other}' (expected small|medium|paper)"
        )),
    }
}

/// Resolve the scale from an optional `NMT_SCALE`-style value: unset means
/// the fast default, but a *set-and-wrong* value is an error.
pub fn scale_from_env(value: Option<&str>) -> Result<SuiteScale, String> {
    match value {
        None => Ok(SuiteScale::Small),
        Some(v) => parse_scale(v),
    }
}

/// Experiment scale, overridable with `NMT_SCALE=small|medium|paper` so CI
/// can run the fast variant while full reproductions use the paper's
/// dimension filter. An unrecognized value aborts rather than silently
/// falling back to Small — a mis-spelled `NMT_SCALE=papr` would otherwise
/// publish small-scale numbers as a paper run.
pub fn experiment_scale() -> SuiteScale {
    let value = std::env::var("NMT_SCALE").ok();
    match scale_from_env(value.as_deref()) {
        Ok(scale) => scale,
        Err(e) => {
            eprintln!("error: NMT_SCALE: {e}");
            std::process::exit(2);
        }
    }
}

/// The ledger sweep at `scale`, for a figure binary that renders it. A
/// failed sweep or any per-matrix error row is printed and exits with
/// status 1, so a figure never renders a partial suite.
pub fn sweep_ledger_or_exit(scale: SuiteScale) -> Ledger {
    let ledger = sweep_ledger(scale).unwrap_or_else(|e| {
        eprintln!("error: ledger sweep: {e}");
        std::process::exit(1);
    });
    if !ledger.errors.is_empty() {
        for row in &ledger.errors {
            eprintln!("error: {}: {}", row.matrix, row.error);
        }
        std::process::exit(1);
    }
    ledger
}

/// Tile edge used by the experiments: the paper's 64 at paper scale,
/// scaled down with the matrices otherwise so tiles stay meaningful.
pub fn experiment_tile(scale: SuiteScale) -> usize {
    match scale {
        SuiteScale::Small => 16,
        SuiteScale::Medium => 32,
        SuiteScale::Paper => 64,
    }
}

/// Number of dense vectors (columns of B) used by the experiments.
///
/// The paper multiplies by an `n × n` dense B, which a functional
/// simulation cannot afford; K is fixed per scale and the GPU's L2 is
/// scaled in [`experiment_gpu`] so the B-footprint/L2 ratio stays in the
/// paper's regime (B and C many times larger than the cache).
pub fn experiment_k(scale: SuiteScale) -> usize {
    match scale {
        SuiteScale::Small => 64,
        SuiteScale::Medium => 128,
        SuiteScale::Paper => 256,
    }
}

/// The simulated GPU the experiments run on: a GV100 with its L2 scaled to
/// the experiment's dense-operand footprint (the paper's B/C are up to
/// 7.7 GB against a 6 MB L2 — a ratio of ~1300; a full-size L2 would
/// instead swallow our scaled-down B entirely and hide every locality
/// effect the paper measures). Launch overhead is scaled likewise.
pub fn experiment_gpu(scale: SuiteScale) -> nmt_sim::GpuConfig {
    let mut gpu = nmt_sim::GpuConfig::gv100();
    match scale {
        SuiteScale::Small => {
            // B is 128-256 KB at this scale; the L2 sits just below it so
            // streaming reuse survives but full residency does not.
            gpu.l2_bytes = 128 * 1024;
            gpu.kernel_overhead_ns = 200.0;
        }
        SuiteScale::Medium => {
            // B is 1-2 MB at this scale.
            gpu.l2_bytes = 256 * 1024;
            gpu.kernel_overhead_ns = 1_000.0;
        }
        SuiteScale::Paper => {
            gpu.kernel_overhead_ns = 5_000.0;
        }
    }
    // nmt-lint: allow(panic) — the preset only rescales cache/overhead fields, which stay valid
    gpu.validate().expect("scaled GV100 remains valid");
    gpu
}

/// Build the experiment suite at the ambient scale.
pub fn build_suite() -> Vec<(MatrixDesc, Csr)> {
    SuiteSpec::new(experiment_scale(), EXPERIMENT_SEED).build()
}

/// Map the suite in parallel, preserving order.
pub fn par_map_suite<T: Send>(
    suite: &[(MatrixDesc, Csr)],
    f: impl Fn(&MatrixDesc, &Csr) -> T + Sync,
) -> Vec<T> {
    suite.par_iter().map(|(d, m)| f(d, m)).collect()
}

/// Print an aligned text table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        println!("{s}");
    };
    line(
        &headers
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>(),
    );
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Geometric mean of strictly positive values (0 when empty) — the right
/// aggregate for speedup ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    let positive: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|x| x.ln()).sum::<f64>() / positive.len() as f64).exp()
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Standard header every experiment binary prints.
pub fn banner(experiment: &str, paper_artifact: &str) {
    println!("==============================================================");
    println!("{experiment}");
    println!("reproduces: {paper_artifact}");
    println!(
        "scale: {:?} (set NMT_SCALE=small|medium|paper)",
        experiment_scale()
    );
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!(
            (geomean(&[1.0, 0.0, 4.0]) - 2.0).abs() < 1e-12,
            "zeros excluded"
        );
    }

    #[test]
    fn mean_basics() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn scale_parsing_defaults_small() {
        // Without the env var the suite is the fast one.
        if std::env::var("NMT_SCALE").is_err() {
            assert_eq!(experiment_scale(), SuiteScale::Small);
        }
        assert_eq!(experiment_tile(SuiteScale::Paper), 64);
        assert_eq!(experiment_k(SuiteScale::Small), 64);
    }

    #[test]
    fn scale_parsing_accepts_known_names() {
        assert_eq!(parse_scale("small"), Ok(SuiteScale::Small));
        assert_eq!(parse_scale("medium"), Ok(SuiteScale::Medium));
        assert_eq!(parse_scale("paper"), Ok(SuiteScale::Paper));
        assert_eq!(scale_from_env(None), Ok(SuiteScale::Small));
        assert_eq!(scale_from_env(Some("paper")), Ok(SuiteScale::Paper));
    }

    #[test]
    fn scale_parsing_rejects_unknown_names() {
        // The old behavior silently fell back to Small; now a set-but-wrong
        // value is an error the caller must surface.
        for bad in ["papr", "SMALL", "large", ""] {
            let err = parse_scale(bad).expect_err("must reject");
            assert!(err.contains(bad), "error should echo the bad value");
            assert!(err.contains("small|medium|paper"));
            assert!(scale_from_env(Some(bad)).is_err());
        }
    }

    #[test]
    fn suite_builds_nonempty() {
        let suite = SuiteSpec::quick(EXPERIMENT_SEED).build();
        assert!(!suite.is_empty());
        let names = par_map_suite(&suite, |d, _| d.name.clone());
        assert_eq!(names.len(), suite.len());
    }
}
