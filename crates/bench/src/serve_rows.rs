//! Serve-run timeline: one compact JSONL row per `nmt-cli serve` replay,
//! alongside the perf history the bench suite keeps.
//!
//! The serve ledger itself is a large, gate-compared artifact; this row
//! is the small cross-run summary CI appends so cache behaviour trends
//! (hit ratio, hit-vs-miss latency gap, rejection pressure) are
//! trackable over time with the same JSONL discipline as
//! [`history`](crate::history): append-ordinal ordering, commit id from
//! the caller, torn lines skipped on load, no wall-clock timestamps.
//!
//! The fields are plain numbers copied out of the serve ledger by the
//! CLI — this module deliberately does not depend on the serve crate,
//! mirroring how [`HistoryRecord`](crate::history::HistoryRecord)
//! flattens the bench ledger rather than embedding it.

use crate::history::{append_jsonl, load_jsonl};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One serve replay's row in the serve history file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRunRow {
    /// Append ordinal within the file (0-based; assigned by
    /// [`append_serve_history`]).
    pub run: u64,
    /// Commit id the run was built from (`unknown` outside CI).
    pub commit: String,
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

impl ServeRunRow {
    /// Fraction of served responses answered from cache.
    pub fn cached_frac(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.cached_responses as f64 / self.admitted as f64
        }
    }
}

/// Append one row, assigning its `run` ordinal. Same contract as
/// [`append_history`](crate::history::append_history): parents are
/// created, the ordinal is the current row count.
pub fn append_serve_history(path: &Path, row: ServeRunRow) -> Result<u64, String> {
    append_jsonl(path, row, |r| &mut r.run)
}

/// Load every parseable row. Blank and torn lines are skipped; a missing
/// file is an empty timeline.
pub fn load_serve_history(path: &Path) -> Result<Vec<ServeRunRow>, String> {
    load_jsonl(path)
}

/// Render the serve timeline as a table.
pub fn render_serve_history(rows: &[ServeRunRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("serve history: {} run(s)\n", rows.len()));
    out.push_str(
        "  run  commit    reqs  served  rej  cold  cached  hit%   hit p50     miss p50\n",
    );
    for r in rows {
        let commit_short: String = r.commit.chars().take(8).collect();
        out.push_str(&format!(
            "  {:>3}  {:<8}  {:>4}  {:>6}  {:>3}  {:>4}  {:>6}  {:>4.0}%  {:>8} ns  {:>8} ns\n",
            r.run,
            commit_short,
            r.requests,
            r.admitted,
            r.rejected,
            r.unique_plans,
            r.cached_responses,
            r.cached_frac() * 100.0,
            r.hit_p50_ns,
            r.miss_p50_ns,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(requests: u64) -> ServeRunRow {
        ServeRunRow {
            run: 0,
            commit: "abc123def".into(),
            requests,
            admitted: requests.saturating_sub(2),
            rejected: 2.min(requests),
            unique_plans: 3,
            cached_responses: requests.saturating_sub(5),
            cache_hits: requests.saturating_sub(5),
            cache_evictions: 0,
            hit_p50_ns: 1_000,
            miss_p50_ns: 50_000,
        }
    }

    #[test]
    fn append_assigns_ordinals_and_load_round_trips() {
        let dir = std::env::temp_dir().join("nmt-serve-rows-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("SERVE_HISTORY.jsonl");
        assert_eq!(append_serve_history(&path, row(48)).unwrap(), 0);
        assert_eq!(append_serve_history(&path, row(96)).unwrap(), 1);
        let rows = load_serve_history(&path).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].run, 0);
        assert_eq!(rows[1].run, 1);
        assert_eq!(rows[1].requests, 96);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join("nmt-serve-rows-torn");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("SERVE_HISTORY.jsonl");
        append_serve_history(&path, row(10)).unwrap();
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"run\": 1, \"commit").unwrap();
        drop(f);
        let rows = load_serve_history(&path).unwrap();
        assert_eq!(rows.len(), 1, "the torn line must be skipped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_timeline() {
        let path = std::env::temp_dir().join("nmt-serve-rows-none/NOPE.jsonl");
        assert!(load_serve_history(&path).unwrap().is_empty());
    }

    #[test]
    fn render_shows_hit_ratio() {
        let text = render_serve_history(&[row(48)]);
        assert!(text.contains("1 run(s)"));
        assert!(text.contains("abc123de"));
        assert!(text.contains("%"));
    }
}
