//! Perf-history timeline: `bench --history results/HISTORY.jsonl`
//! appends one compact record per instrumented run; `nmt-cli history`
//! renders the timeline and scans every tracked series for change
//! points.
//!
//! The file is JSONL — one [`HistoryRecord`] per line — so appends are
//! atomic-enough for CI (a torn final line is skipped on load, not
//! fatal) and the history diffs cleanly in git. Records carry no
//! wall-clock timestamps: ordering is the append ordinal plus whatever
//! commit id the caller passes (CI pins `GITHUB_SHA`), which keeps the
//! artifact deterministic for a fixed sequence of runs.
//!
//! The change-point scan is a classic least-squares two-segment split:
//! for each series (geomean speedup, per-phase aggregate medians) it
//! finds the split that maximally reduces the summed squared deviation
//! versus a single-mean fit, and reports it when the reduction is both
//! large (score) and practically meaningful (relative mean shift). No
//! p-values — with a handful of CI runs the honest claim is "the level
//! moved here", not a significance test.

use crate::ledger::Ledger;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Aggregate per-phase wall-time for one run: per-matrix medians and CI
/// bounds from the ledger's perf section, summed over the suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseMedian {
    /// Phase name (`parse`/`plan`/`convert`/`kernel`/`reduce`/`other`).
    pub phase: String,
    /// Summed per-matrix phase medians, ns.
    pub median_ns: f64,
    /// Summed CI lower bounds, ns.
    pub ci_lo_ns: f64,
    /// Summed CI upper bounds, ns.
    pub ci_hi_ns: f64,
}

/// One run's row in the history file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Append ordinal within the file (0-based; assigned by
    /// [`append_history`]).
    pub run: u64,
    /// Commit id the run was built from (`unknown` outside CI).
    pub commit: String,
    /// Suite scale label.
    pub scale: String,
    /// Suite seed.
    pub seed: u64,
    /// Headline geomean speedup.
    pub geomean_speedup: f64,
    /// SSF accuracy.
    pub ssf_accuracy: f64,
    /// Per-phase aggregates (empty when the run had no `--perf` pass).
    pub phases: Vec<PhaseMedian>,
}

impl HistoryRecord {
    /// Build a record from a finished ledger. `run` is a placeholder
    /// until [`append_history`] assigns the real ordinal.
    pub fn from_ledger(ledger: &Ledger, commit: &str) -> Self {
        let mut phases: BTreeMap<String, PhaseMedian> = BTreeMap::new();
        if let Some(perf) = &ledger.perf {
            for m in &perf.matrices {
                for p in &m.phases {
                    let entry =
                        phases
                            .entry(p.phase.clone())
                            .or_insert_with(|| PhaseMedian {
                                phase: p.phase.clone(),
                                median_ns: 0.0,
                                ci_lo_ns: 0.0,
                                ci_hi_ns: 0.0,
                            });
                    entry.median_ns += p.median_ns;
                    entry.ci_lo_ns += p.ci_lo_ns;
                    entry.ci_hi_ns += p.ci_hi_ns;
                }
            }
        }
        HistoryRecord {
            run: 0,
            commit: commit.to_string(),
            scale: ledger.scale.clone(),
            seed: ledger.seed,
            geomean_speedup: ledger.summary.geomean_speedup,
            ssf_accuracy: ledger.summary.ssf_accuracy,
            phases: phases.into_values().collect(),
        }
    }
}

/// Append one record to the JSONL history at `path`, creating the file
/// (and parent directory) if needed. Returns the assigned run ordinal.
pub fn append_history(path: &Path, record: HistoryRecord) -> Result<u64, String> {
    append_jsonl(path, record, |r| &mut r.run)
}

/// Load every parseable record from the JSONL history. Blank and torn
/// lines are skipped (a crashed writer must not poison the timeline);
/// a missing file is an empty history.
pub fn load_history(path: &Path) -> Result<Vec<HistoryRecord>, String> {
    load_jsonl(path)
}

/// Append `row` as one JSON line, creating the file and its parent
/// directory if needed. The row's ordinal (reached through `run_of`) is
/// set to the number of rows already loadable as `T`, and returned.
pub(crate) fn append_jsonl<T: Serialize + Deserialize>(
    path: &Path,
    mut row: T,
    run_of: fn(&mut T) -> &mut u64,
) -> Result<u64, String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    let ordinal = load_jsonl::<T>(path).unwrap_or_default().len() as u64;
    *run_of(&mut row) = ordinal;
    let line = serde_json::to_string(&row).map_err(|e| format!("serialize row: {e:?}"))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("append {}: {e}", path.display()))?;
    Ok(ordinal)
}

/// Load every line of `path` that parses as `T`: blank and torn lines are
/// skipped, and a missing file is an empty timeline.
pub(crate) fn load_jsonl<T: Deserialize>(path: &Path) -> Result<Vec<T>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str::<T>(l).ok())
        .collect())
}

/// A detected level shift in one tracked series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChangePoint {
    /// Series name (`geomean_speedup` or `phase:<name>`).
    pub series: String,
    /// First run index of the *after* segment.
    pub index: usize,
    /// Mean of the series before the split.
    pub before_mean: f64,
    /// Mean from the split onward.
    pub after_mean: f64,
    /// Fraction of summed squared deviation removed by the split
    /// (0..1; higher = cleaner step).
    pub score: f64,
}

/// Minimum variance-reduction score for a split to be reported.
const CHANGE_SCORE_MIN: f64 = 0.5;
/// Minimum relative mean shift for a split to be reported.
const CHANGE_SHIFT_MIN: f64 = 0.05;

/// Least-squares two-segment scan over one series. Returns the best
/// split when it removes at least [`CHANGE_SCORE_MIN`] of the squared
/// deviation *and* moves the mean by at least [`CHANGE_SHIFT_MIN`]
/// relative — otherwise the series is judged level.
pub fn change_point(series: &[f64]) -> Option<ChangePoint> {
    let n = series.len();
    if n < 4 {
        return None;
    }
    let sse = |xs: &[f64]| -> f64 {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum()
    };
    let total = sse(series);
    if total <= f64::EPSILON {
        return None;
    }
    let mut best: Option<(usize, f64)> = None;
    for split in 1..n {
        let split_sse = sse(&series[..split]) + sse(&series[split..]);
        if best.is_none_or(|(_, b)| split_sse < b) {
            best = Some((split, split_sse));
        }
    }
    let (split, split_sse) = best?;
    let score = 1.0 - split_sse / total;
    let before_mean = series[..split].iter().sum::<f64>() / split as f64;
    let after_mean = series[split..].iter().sum::<f64>() / (n - split) as f64;
    let denom = before_mean.abs().max(f64::EPSILON);
    let shift = (after_mean - before_mean).abs() / denom;
    if score < CHANGE_SCORE_MIN || shift < CHANGE_SHIFT_MIN {
        return None;
    }
    Some(ChangePoint {
        series: String::new(),
        index: split,
        before_mean,
        after_mean,
        score,
    })
}

/// Scan every tracked series of a loaded history: the headline geomean
/// plus each phase's aggregate median (phases appearing in at least 4
/// runs). Results are named and ordered deterministically.
pub fn scan_history(records: &[HistoryRecord]) -> Vec<ChangePoint> {
    let mut found = Vec::new();
    let geo: Vec<f64> = records.iter().map(|r| r.geomean_speedup).collect();
    if let Some(mut cp) = change_point(&geo) {
        cp.series = "geomean_speedup".to_string();
        found.push(cp);
    }
    let mut phase_names: Vec<String> = records
        .iter()
        .flat_map(|r| r.phases.iter().map(|p| p.phase.clone()))
        .collect();
    phase_names.sort();
    phase_names.dedup();
    for name in phase_names {
        // Series over runs that measured this phase, preserving order.
        let series: Vec<f64> = records
            .iter()
            .flat_map(|r| r.phases.iter().filter(|p| p.phase == name))
            .map(|p| p.median_ns)
            .collect();
        if let Some(mut cp) = change_point(&series) {
            cp.series = format!("phase:{name}");
            found.push(cp);
        }
    }
    found
}

/// Render the timeline plus any change points, for `nmt-cli history`.
pub fn render_history(records: &[HistoryRecord]) -> String {
    let mut out = String::new();
    if records.is_empty() {
        out.push_str("history: no records\n");
        return out;
    }
    out.push_str(&format!(
        "{:>4}  {:<12} {:<8} {:>8} {:>9}  phases\n",
        "run", "commit", "scale", "geomean", "accuracy"
    ));
    for r in records {
        let short: String = r.commit.chars().take(10).collect();
        let phases = if r.phases.is_empty() {
            "-".to_string()
        } else {
            r.phases
                .iter()
                .map(|p| format!("{}={:.0}ns", p.phase, p.median_ns))
                .collect::<Vec<_>>()
                .join(" ")
        };
        out.push_str(&format!(
            "{:>4}  {:<12} {:<8} {:>8.4} {:>9.4}  {}\n",
            r.run, short, r.scale, r.geomean_speedup, r.ssf_accuracy, phases
        ));
    }
    let points = scan_history(records);
    if points.is_empty() {
        out.push_str("change points: none\n");
    } else {
        for cp in points {
            out.push_str(&format!(
                "change point: {} at run {} — mean {:.4} -> {:.4} (score {:.2})\n",
                cp.series, cp.index, cp.before_mean, cp.after_mean, cp.score
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(geo: f64, kernel_ns: f64) -> HistoryRecord {
        HistoryRecord {
            run: 0,
            commit: "deadbeef".to_string(),
            scale: "small".to_string(),
            seed: 1,
            geomean_speedup: geo,
            ssf_accuracy: 0.9,
            phases: vec![PhaseMedian {
                phase: "kernel".to_string(),
                median_ns: kernel_ns,
                ci_lo_ns: kernel_ns * 0.95,
                ci_hi_ns: kernel_ns * 1.05,
            }],
        }
    }

    #[test]
    fn append_assigns_ordinals_and_load_roundtrips() {
        let dir = std::env::temp_dir().join(format!("nmt-hist-{}", std::process::id()));
        let path = dir.join("HISTORY.jsonl");
        let _ = std::fs::remove_file(&path);
        assert_eq!(load_history(&path).expect("missing file is empty"), vec![]);
        for i in 0..3u64 {
            let run =
                append_history(&path, record(2.0 + i as f64 * 0.01, 1000.0)).expect("appends");
            assert_eq!(run, i);
        }
        let loaded = load_history(&path).expect("loads");
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[2].run, 2);
        assert!((loaded[1].geomean_speedup - 2.01).abs() < 1e-12);
        // A torn trailing line is skipped, not fatal.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("opens");
        writeln!(file, "{{\"run\": 99, \"commit").expect("writes");
        drop(file);
        assert_eq!(load_history(&path).expect("still loads").len(), 3);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn change_point_finds_a_clean_step_and_ignores_level_series() {
        let level = vec![2.0, 2.01, 1.99, 2.0, 2.0, 2.01];
        assert!(change_point(&level).is_none());
        let step = vec![2.0, 2.01, 1.99, 2.0, 1.5, 1.49, 1.51, 1.5];
        let cp = change_point(&step).expect("step detected");
        assert_eq!(cp.index, 4);
        assert!(cp.before_mean > 1.9 && cp.after_mean < 1.6);
        assert!(cp.score > 0.9);
        // Too short to split.
        assert!(change_point(&[1.0, 2.0, 3.0]).is_none());
        // Constant series: nothing to explain.
        assert!(change_point(&[1.0; 8]).is_none());
    }

    #[test]
    fn scan_names_series_and_from_ledger_aggregates() {
        let mut records: Vec<HistoryRecord> = Vec::new();
        for i in 0..8 {
            let kernel = if i < 4 { 1000.0 } else { 2000.0 };
            let mut r = record(2.0, kernel);
            r.run = i as u64;
            records.push(r);
        }
        let points = scan_history(&records);
        assert_eq!(points.len(), 1, "geomean level, kernel stepped");
        assert_eq!(points[0].series, "phase:kernel");
        assert_eq!(points[0].index, 4);
        let rendered = render_history(&records);
        assert!(rendered.contains("change point: phase:kernel at run 4"));
        assert!(rendered.contains("deadbeef"));
    }
}
