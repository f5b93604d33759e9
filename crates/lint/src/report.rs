//! Diagnostics, human rendering and the machine-readable JSON report.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Report schema version; bump on breaking changes to the JSON shape.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// Diagnostic severity. `Error` fails the run; `Warning` is reported and
/// counted (and fails under `--deny-warnings`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Reported, fails only under `--deny-warnings`.
    Warning,
    /// Fails the lint run.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding, anchored to a file/line/column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Rule name (see [`crate::rules::RULES`]).
    pub rule: String,
    /// Error or warning.
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed of trailing whitespace.
    pub snippet: String,
}

impl Diagnostic {
    /// Render rustc-style:
    ///
    /// ```text
    /// error[nmt::panic]: `.unwrap()` in a pub fn can panic; ...
    ///   --> crates/core/src/planner.rs:91:14
    ///    |
    /// 91 |         .expect("...")
    ///    |              ^
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}[nmt::{}]: {}",
            self.severity, self.rule, self.message
        );
        let _ = writeln!(out, "  --> {}:{}:{}", self.path, self.line, self.col);
        let gutter = self.line.to_string().len().max(2);
        let _ = writeln!(out, "{:gutter$} |", "");
        let _ = writeln!(out, "{:>gutter$} | {}", self.line, self.snippet);
        let caret_pad = (self.col as usize).saturating_sub(1);
        let _ = writeln!(out, "{:gutter$} | {:caret_pad$}^", "", "");
        out
    }
}

/// One allow comment that suppressed a diagnostic, for accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuppressionRecord {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the allow comment.
    pub line: u32,
    /// The rule it suppresses.
    pub rule: String,
    /// The stated justification.
    pub reason: String,
}

/// Aggregated counts for the report.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Summary {
    /// Files scanned.
    pub files_scanned: u64,
    /// Error-severity diagnostics.
    pub errors: u64,
    /// Warning-severity diagnostics.
    pub warnings: u64,
    /// Diagnostics suppressed by valid allow comments.
    pub suppressed: u64,
    /// Diagnostic count per rule (post-suppression).
    pub per_rule: BTreeMap<String, u64>,
}

/// The whole lint run: every diagnostic plus suppression accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// JSON schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Diagnostics, sorted by (path, line, col).
    pub diagnostics: Vec<Diagnostic>,
    /// Allow comments that suppressed something.
    pub suppressions: Vec<SuppressionRecord>,
    /// Aggregate counts.
    pub summary: Summary,
}

impl Report {
    /// Assemble a report from raw findings.
    pub fn new(
        files_scanned: u64,
        mut diagnostics: Vec<Diagnostic>,
        suppressions: Vec<SuppressionRecord>,
    ) -> Self {
        diagnostics.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.col, a.rule.as_str()).cmp(&(
                b.path.as_str(),
                b.line,
                b.col,
                b.rule.as_str(),
            ))
        });
        let mut summary = Summary {
            files_scanned,
            suppressed: suppressions.len() as u64,
            ..Summary::default()
        };
        for d in &diagnostics {
            match d.severity {
                Severity::Error => summary.errors += 1,
                Severity::Warning => summary.warnings += 1,
            }
            *summary.per_rule.entry(d.rule.clone()).or_insert(0) += 1;
        }
        Report {
            schema_version: REPORT_SCHEMA_VERSION,
            diagnostics,
            suppressions,
            summary,
        }
    }

    /// True when the run should fail.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.summary.errors > 0 || (deny_warnings && self.summary.warnings > 0)
    }

    /// Render every diagnostic plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "nmt-lint: {} file(s), {} error(s), {} warning(s), {} suppressed by allow comments",
            self.summary.files_scanned,
            self.summary.errors,
            self.summary.warnings,
            self.summary.suppressed
        );
        out
    }

    /// Serialize as pretty JSON (the CI artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"error\":\"report serialization failed: {e}\"}}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, sev: Severity, path: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            severity: sev,
            path: path.to_string(),
            line,
            col: 3,
            message: "msg".to_string(),
            snippet: "  let x = 1;".to_string(),
        }
    }

    #[test]
    fn report_counts_and_sorts() {
        let r = Report::new(
            4,
            vec![
                diag("panic", Severity::Error, "b.rs", 9),
                diag("slice-index", Severity::Warning, "a.rs", 2),
                diag("panic", Severity::Error, "a.rs", 1),
            ],
            vec![],
        );
        assert_eq!(r.summary.errors, 2);
        assert_eq!(r.summary.warnings, 1);
        assert_eq!(r.summary.per_rule["panic"], 2);
        assert_eq!(r.diagnostics[0].path, "a.rs");
        assert_eq!(r.diagnostics[0].line, 1);
        assert!(r.failed(false));
    }

    #[test]
    fn warnings_fail_only_when_denied() {
        let r = Report::new(
            1,
            vec![diag("slice-index", Severity::Warning, "a.rs", 2)],
            vec![],
        );
        assert!(!r.failed(false));
        assert!(r.failed(true));
    }

    #[test]
    fn render_is_rustc_style() {
        let text = diag("panic", Severity::Error, "crates/x/src/lib.rs", 12).render();
        assert!(text.contains("error[nmt::panic]"));
        assert!(text.contains("--> crates/x/src/lib.rs:12:3"));
        assert!(text.contains("12 |   let x = 1;"));
        assert!(text.contains("^"));
    }

    #[test]
    fn json_roundtrips() {
        let r = Report::new(
            2,
            vec![diag("wallclock", Severity::Error, "a.rs", 5)],
            vec![SuppressionRecord {
                path: "a.rs".to_string(),
                line: 4,
                rule: "panic".to_string(),
                reason: "checked".to_string(),
            }],
        );
        let back: Report = serde_json::from_str(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }
}
