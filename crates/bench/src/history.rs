//! Run-history timeline: `bench --history` and `serve --history` append
//! one compact [`HistoryRecord`] per run; `nmt-cli history` renders the
//! bench and serve tables and scans every tracked bench series for change
//! points.
//!
//! The file is JSONL — one record per line, each carrying either a bench
//! or a serve summary — so appends are atomic-enough for CI (a torn final
//! line is skipped on load, not fatal) and the history diffs cleanly in
//! git. Records carry no wall-clock timestamps: ordering is the append
//! ordinal (counting every row in the file) plus whatever commit id the
//! caller passes (CI pins `GITHUB_SHA`), which keeps the artifact
//! deterministic for a fixed sequence of runs.
//!
//! The change-point scan is a classic least-squares two-segment split:
//! for each bench series (geomean speedup, per-phase aggregate medians) it
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

/// A bench sweep's summary in the history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRun {
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

/// A serve replay's summary in the history: plain numbers copied out of
/// the serve ledger by the CLI, so this crate does not depend on the
/// serve crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRun {
    /// Requests in the replayed trace.
    pub requests: u64,
    /// Requests admitted and served.
    pub admitted: u64,
    /// Queue-full + malformed rejections.
    pub rejected: u64,
    /// Distinct plans computed (cold responses).
    pub unique_plans: u64,
    /// Responses served from a cached plan (canonical labelling).
    pub cached_responses: u64,
    /// Observed single-flight cache hits (0 without `--stats`).
    pub cache_hits: u64,
    /// Observed cache evictions (0 without `--stats`).
    pub cache_evictions: u64,
    /// Hit-path median plan-acquisition latency, ns (0 without `--stats`).
    pub hit_p50_ns: u64,
    /// Miss-path median plan-acquisition latency, ns (0 without `--stats`).
    pub miss_p50_ns: u64,
}

/// One run's row in the history file: exactly one of `bench` and `serve`
/// is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Append ordinal within the file (0-based, over every row; assigned
    /// by [`append_history`]).
    pub run: u64,
    /// Commit id the run was built from (`unknown` outside CI).
    pub commit: String,
    /// A bench sweep's summary.
    pub bench: Option<BenchRun>,
    /// A serve replay's summary.
    pub serve: Option<ServeRun>,
}

impl HistoryRecord {
    /// Build a bench record from a finished ledger. `run` is a placeholder
    /// until [`append_history`] assigns the real ordinal.
    pub fn from_ledger(ledger: &Ledger, commit: &str) -> Self {
        let mut phases: BTreeMap<String, PhaseMedian> = BTreeMap::new();
        for p in ledger.perf.iter().flat_map(|perf| &perf.matrices).flat_map(|m| &m.phases) {
            let entry = phases.entry(p.phase.clone()).or_insert_with(|| PhaseMedian {
                phase: p.phase.clone(),
                median_ns: 0.0,
                ci_lo_ns: 0.0,
                ci_hi_ns: 0.0,
            });
            entry.median_ns += p.median_ns;
            entry.ci_lo_ns += p.ci_lo_ns;
            entry.ci_hi_ns += p.ci_hi_ns;
        }
        HistoryRecord {
            run: 0,
            commit: commit.to_string(),
            bench: Some(BenchRun {
                scale: ledger.scale.clone(),
                seed: ledger.seed,
                geomean_speedup: ledger.summary.geomean_speedup,
                ssf_accuracy: ledger.summary.ssf_accuracy,
                phases: phases.into_values().collect(),
            }),
            serve: None,
        }
    }
}

/// Append one record to the JSONL history at `path`, creating the file
/// (and parent directory) if needed. The record's ordinal is set to the
/// number of rows already in the file, and returned.
pub fn append_history(path: &Path, mut record: HistoryRecord) -> Result<u64, String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    record.run = load_history(path).unwrap_or_default().len() as u64;
    let line = serde_json::to_string(&record).map_err(|e| format!("serialize row: {e:?}"))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("append {}: {e}", path.display()))?;
    Ok(record.run)
}

/// Load every record of the JSONL history. Blank, torn and foreign lines
/// are skipped (a crashed writer must not poison the timeline); a missing
/// file is an empty history.
pub fn load_history(path: &Path) -> Result<Vec<HistoryRecord>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    Ok(text
        .lines()
        .filter_map(|l| serde_json::from_str::<HistoryRecord>(l).ok())
        .filter(|r| r.bench.is_some() != r.serve.is_some())
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
/// split when it removes at least `CHANGE_SCORE_MIN` of the squared
/// deviation *and* moves the mean by at least `CHANGE_SHIFT_MIN`
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

/// Scan every tracked series of a loaded history's bench rows: the
/// headline geomean plus each phase's aggregate median (phases appearing
/// in at least 4 runs). Results are named and ordered deterministically.
pub fn scan_history(records: &[HistoryRecord]) -> Vec<ChangePoint> {
    let bench: Vec<&BenchRun> = records.iter().filter_map(|r| r.bench.as_ref()).collect();
    let mut found = Vec::new();
    let geo: Vec<f64> = bench.iter().map(|r| r.geomean_speedup).collect();
    if let Some(mut cp) = change_point(&geo) {
        cp.series = "geomean_speedup".to_string();
        found.push(cp);
    }
    let mut phase_names: Vec<String> = bench
        .iter()
        .flat_map(|r| r.phases.iter().map(|p| p.phase.clone()))
        .collect();
    phase_names.sort();
    phase_names.dedup();
    for name in phase_names {
        // Series over runs that measured this phase, preserving order.
        let series: Vec<f64> = bench
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

/// Render the timeline for `nmt-cli history`: the bench table plus any
/// change points, then the serve table — each only when the file holds
/// rows of that kind.
pub fn render_history(records: &[HistoryRecord]) -> String {
    if records.is_empty() {
        return "history: no records\n".to_string();
    }
    let mut out = String::new();
    let bench: Vec<(&HistoryRecord, &BenchRun)> =
        records.iter().filter_map(|r| Some((r, r.bench.as_ref()?))).collect();
    if !bench.is_empty() {
        out.push_str(&format!(
            "{:>4}  {:<12} {:<8} {:>8} {:>9}  phases\n",
            "run", "commit", "scale", "geomean", "accuracy"
        ));
        for (r, b) in &bench {
            let short: String = r.commit.chars().take(10).collect();
            let phases = if b.phases.is_empty() {
                "-".to_string()
            } else {
                b.phases
                    .iter()
                    .map(|p| format!("{}={:.0}ns", p.phase, p.median_ns))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            out.push_str(&format!(
                "{:>4}  {:<12} {:<8} {:>8.4} {:>9.4}  {}\n",
                r.run, short, b.scale, b.geomean_speedup, b.ssf_accuracy, phases
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
    }
    let serve: Vec<(&HistoryRecord, &ServeRun)> =
        records.iter().filter_map(|r| Some((r, r.serve.as_ref()?))).collect();
    if !serve.is_empty() {
        out.push_str(&format!("serve history: {} run(s)\n", serve.len()));
        out.push_str(
            "  run  commit    reqs  served  rej  cold  cached  hit%   hit p50     miss p50\n",
        );
        for (r, s) in &serve {
            let commit_short: String = r.commit.chars().take(8).collect();
            out.push_str(&format!(
                "  {:>3}  {:<8}  {:>4}  {:>6}  {:>3}  {:>4}  {:>6}  {:>4.0}%  {:>8} ns  {:>8} ns\n",
                r.run,
                commit_short,
                s.requests,
                s.admitted,
                s.rejected,
                s.unique_plans,
                s.cached_responses,
                // Share of served responses answered from cache.
                s.cached_responses as f64 / s.admitted.max(1) as f64 * 100.0,
                s.hit_p50_ns,
                s.miss_p50_ns,
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
            bench: Some(BenchRun {
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
            }),
            serve: None,
        }
    }

    fn serve_record(requests: u64) -> HistoryRecord {
        HistoryRecord {
            run: 0,
            commit: "abc123def".into(),
            bench: None,
            serve: Some(ServeRun {
                requests,
                admitted: requests.saturating_sub(2),
                rejected: 2.min(requests),
                unique_plans: 3,
                cached_responses: requests.saturating_sub(5),
                cache_hits: requests.saturating_sub(5),
                cache_evictions: 0,
                hit_p50_ns: 1_000,
                miss_p50_ns: 50_000,
            }),
        }
    }

    /// A fresh per-test history path under the temp dir.
    fn temp_history(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nmt-hist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("HISTORY.jsonl")
    }

    fn append_torn_line(path: &Path) {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .expect("opens");
        write!(file, "{{\"run\": 99, \"commit").expect("writes");
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
        let geomean = loaded[1].bench.as_ref().expect("bench row").geomean_speedup;
        assert!((geomean - 2.01).abs() < 1e-12);
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

    #[test]
    fn missing_file_is_an_empty_timeline() {
        let path = temp_history("none").join("NOPE.jsonl");
        assert!(load_history(&path).expect("missing file is empty").is_empty());
    }

    #[test]
    fn torn_serve_line_is_skipped_not_fatal() {
        let path = temp_history("torn");
        append_history(&path, serve_record(10)).expect("appends");
        append_torn_line(&path);
        let rows = load_history(&path).expect("loads");
        assert_eq!(rows.len(), 1, "the torn line must be skipped");
        let _ = std::fs::remove_dir_all(path.parent().expect("dir"));
    }

    #[test]
    fn render_shows_hit_ratio() {
        let text = render_history(&[serve_record(48)]);
        assert!(text.contains("1 run(s)"));
        assert!(text.contains("abc123de"));
        assert!(text.contains("%"));
    }

    #[test]
    fn mixed_file_loads_renders_both_tables_and_scans_bench_rows_only() {
        let path = temp_history("mixed");
        assert_eq!(append_history(&path, record(2.0, 1000.0)).expect("appends"), 0);
        assert_eq!(append_history(&path, serve_record(48)).expect("appends"), 1);
        append_torn_line(&path);
        let rows = load_history(&path).expect("loads");
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].run, rows[1].run), (0, 1));
        assert!(rows[0].bench.is_some() && rows[1].serve.is_some());
        let text = render_history(&rows);
        assert!(text.contains("geomean") && text.contains("deadbeef"), "{text}");
        assert!(text.contains("serve history: 1 run(s)"), "{text}");
        let _ = std::fs::remove_dir_all(path.parent().expect("dir"));

        // Serve rows interleaved into a stepped bench series leave the
        // scan exactly as over the bench rows alone.
        let bench: Vec<HistoryRecord> =
            (0..8).map(|i| record(2.0, if i < 4 { 1000.0 } else { 2000.0 })).collect();
        let mixed: Vec<HistoryRecord> = bench
            .iter()
            .flat_map(|r| [r.clone(), serve_record(48)])
            .collect();
        assert_eq!(scan_history(&mixed), scan_history(&bench));
        assert_eq!(scan_history(&mixed)[0].index, 4);
    }
}
