//! `nmt-lint`: repo-specific static analysis for the determinism and
//! panic-freedom contracts.
//!
//! The workspace's headline guarantees — byte-identical BENCH ledgers and
//! decision audits at any seed or thread count, typed errors instead of
//! panics on the sweep path — are behavioral invariants that one stray
//! `HashMap` iteration or `unwrap()` can silently re-break. This crate
//! enforces them *statically*, before code runs:
//!
//! | rule            | scope                         | severity |
//! |-----------------|-------------------------------|----------|
//! | `unordered-map` | all library sources           | error    |
//! | `wallclock`     | all except `obs` spans        | error    |
//! | `thread-order`  | determinism-scoped modules    | error    |
//! | `panic`         | plain-`pub` fns, lib crates   | error    |
//! | `slice-index`   | plain-`pub` fns, lib crates   | warning (error when determinism-scoped) |
//! | `hot-alloc`     | allocation-hot-path modules   | error    |
//! | `metric-name`   | all library sources           | error    |
//! | `atomic-ordering` | concurrency-scoped modules  | error    |
//! | `bad-allow`     | allow-comment hygiene         | error    |
//! | `unused-allow`  | allow-comment hygiene         | warning  |
//!
//! Justified exceptions are annotated in source as
//! `// nmt-lint: allow(<rule>) — <reason>`; the reason is mandatory and
//! every suppression is counted in the JSON report.
//!
//! There is no `syn` in the offline dependency set (see `shims/`), so the
//! analysis is one per-file pass over a purpose-built lexer plus a
//! structural context scan — see [`lexer`] and [`context`]. Every rule is
//! a token rule; none follows values across functions. Run it via
//! `cargo xtask lint`.

pub mod context;
pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{Diagnostic, Report, Severity, Summary, SuppressionRecord};
pub use rules::{check_source, rule_info, rules_markdown, FileClass, RULES};

use std::fmt;
use std::path::{Path, PathBuf};

/// Modules whose output lands in serialized artifacts (run ledger,
/// decision audit, farm reduction, kernel stats): the determinism rules
/// apply in full here.
pub const DETERMINISM_SCOPED: &[&str] = &[
    "crates/bench/src/ledger.rs",
    "crates/core/src/audit.rs",
    "crates/engine/src/farm.rs",
    "crates/fault/src/lib.rs",
    "crates/serve/src/ledger.rs",
    "crates/serve/src/trace.rs",
    "crates/sim/src/stats.rs",
];

/// The sanctioned wall-clock readers: `obs` span timing, the counting
/// allocator's scope bookkeeping that rides along with it, and the
/// microbench harness's timer core. Everything else must route timing
/// through an [`ObsContext`] span or the harness so the determinism
/// story stays auditable.
///
/// [`ObsContext`]: https://docs.rs/nmt-obs
pub const WALLCLOCK_ALLOWED: &[&str] = &[
    "crates/obs/src/span.rs",
    "crates/obs/src/alloc.rs",
    "crates/bench/src/harness.rs",
];

/// The allocation hot paths: the conversion farm, the strip converter,
/// the engine's buffer pools, the comparator tree, the simulator's per-probe path (L2 slice, memory
/// subsystem, block context), the online B-stationary kernel and the
/// C-stationary kernels. The engine draws its working buffers from the
/// `nmt_engine::mem` pools; the `hot-alloc` rule bans ad-hoc
/// `Vec::new`/`vec![]` here so per-strip and per-probe allocation churn
/// cannot silently return.
pub const HOT_PATH_SCOPED: &[&str] = &[
    "crates/engine/src/comparator.rs",
    "crates/engine/src/convert.rs",
    "crates/engine/src/farm.rs",
    "crates/engine/src/mem.rs",
    "crates/kernels/src/bstationary.rs",
    "crates/kernels/src/cstationary.rs",
    "crates/sim/src/cache.rs",
    "crates/sim/src/machine.rs",
    "crates/sim/src/memory.rs",
];

/// Modules that coordinate across threads with atomics or feed the
/// determinism-scoped set: the `atomic-ordering` rule requires every
/// atomic operation here to carry a `// ordering:` justification
/// comment (`Relaxed` only for monotone counters).
pub const CONCURRENCY_SCOPED: &[&str] = &[
    "crates/bench/src/diff.rs",
    "crates/mem/src/lib.rs",
    "crates/obs/src/alloc.rs",
    "crates/obs/src/recorder.rs",
    "crates/obs/src/span.rs",
    "crates/serve/src/cache.rs",
];

/// Errors from driving the linter (I/O and path problems; findings are
/// not errors, they live in the [`Report`]).
#[derive(Debug)]
pub enum LintError {
    /// Reading a source file or directory failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error message.
        message: String,
    },
    /// A requested path does not exist or is not lintable.
    BadPath(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, message } => {
                write!(f, "i/o error at {}: {message}", path.display())
            }
            LintError::BadPath(p) => write!(f, "not a lintable path: {}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// Classify a workspace-relative path for rule scoping.
///
/// Binary targets (anything under a `bin/` directory or named `main.rs`)
/// keep the determinism rules but are exempt from the pub-API panic
/// rules — a CLI may legitimately die with a message. Fixture files with
/// a `scoped_` name prefix are treated as determinism-scoped, and ones
/// with a `hot_` prefix as allocation-hot-path, so the fixture suite can
/// exercise those rules.
pub fn classify(rel_path: &str) -> FileClass {
    let normalized = rel_path.replace('\\', "/");
    let file_name = normalized.rsplit('/').next().unwrap_or(&normalized);
    let is_binary = normalized.contains("/bin/") || file_name == "main.rs";
    let determinism_scoped =
        DETERMINISM_SCOPED.contains(&normalized.as_str()) || file_name.starts_with("scoped_");
    FileClass {
        determinism_scoped,
        wallclock_allowed: WALLCLOCK_ALLOWED.contains(&normalized.as_str()),
        panic_checked: !is_binary,
        hot_path: HOT_PATH_SCOPED.contains(&normalized.as_str()) || file_name.starts_with("hot_"),
        concurrency_scoped: determinism_scoped
            || CONCURRENCY_SCOPED.contains(&normalized.as_str())
            || file_name.starts_with("atomic_"),
    }
}

fn read_to_string(path: &Path) -> Result<String, LintError> {
    std::fs::read_to_string(path).map_err(|e| LintError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::Io {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The library source roots of the workspace: `src/` of the root crate
/// and of every crate under `crates/`. Shims (vendored third-party API
/// stand-ins), tests, benches and examples are intentionally excluded.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map_err(|e| LintError::Io {
                path: crates_dir.clone(),
                message: e.to_string(),
            })?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for c in crate_dirs {
            let src = c.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    Ok(files)
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn lint_file_list(root: &Path, files: &[PathBuf]) -> Result<Report, LintError> {
    let mut diagnostics = Vec::new();
    let mut suppressions = Vec::new();
    for path in files {
        let rel = relative(root, path);
        let src = read_to_string(path)?;
        let (diags, used) = check_source(&rel, &src, classify(&rel));
        diagnostics.extend(diags);
        suppressions.extend(used.into_iter().map(|d| SuppressionRecord {
            path: rel.clone(),
            line: d.line,
            rule: d.rule,
            reason: d.reason,
        }));
    }
    Ok(Report::new(files.len() as u64, diagnostics, suppressions))
}

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let files = workspace_sources(root)?;
    lint_file_list(root, &files)
}

/// Lint an explicit set of files/directories (e.g. the lint fixtures).
/// Paths are resolved relative to `root`, which also anchors the
/// workspace-relative names used in diagnostics.
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> Result<Report, LintError> {
    let mut files = Vec::new();
    for p in paths {
        let abs = if p.is_absolute() {
            p.clone()
        } else {
            root.join(p)
        };
        if abs.is_dir() {
            collect_rs(&abs, &mut files)?;
        } else if abs.is_file() {
            files.push(abs);
        } else {
            return Err(LintError::BadPath(abs));
        }
    }
    lint_file_list(root, &files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_scopes_rules() {
        let c = classify("crates/engine/src/farm.rs");
        assert!(c.determinism_scoped && c.panic_checked && !c.wallclock_allowed);
        assert!(c.hot_path, "the farm is an allocation hot path");
        let c = classify("crates/engine/src/convert.rs");
        assert!(c.hot_path && !c.determinism_scoped);
        let c = classify("crates/kernels/src/bstationary.rs");
        assert!(c.hot_path);
        let c = classify("tests/lint_fixtures/hot_alloc.rs");
        assert!(c.hot_path && !c.determinism_scoped);
        let c = classify("crates/engine/src/mem.rs");
        assert!(
            c.hot_path,
            "the pools sit on the farm's per-strip path; a miss allocates via with_capacity"
        );
        let c = classify("crates/obs/src/span.rs");
        assert!(c.wallclock_allowed && !c.determinism_scoped);
        let c = classify("crates/obs/src/alloc.rs");
        assert!(c.wallclock_allowed, "alloc scope rides the span clock");
        let c = classify("crates/bench/src/harness.rs");
        assert!(
            c.wallclock_allowed,
            "the microbench timer core is sanctioned"
        );
        let c = classify("crates/kernels/src/bstationary.rs");
        assert!(
            !c.wallclock_allowed,
            "kernels must route timing through obs spans"
        );
        let c = classify("src/bin/nmt-cli.rs");
        assert!(!c.panic_checked);
        let c = classify("crates/bench/src/bin/fig05_strip_hist.rs");
        assert!(!c.panic_checked);
        let c = classify("tests/lint_fixtures/scoped_thread_order.rs");
        assert!(c.determinism_scoped);
        let c = classify("crates/formats/src/csc.rs");
        assert!(c.panic_checked && !c.determinism_scoped && !c.wallclock_allowed);
    }

    #[test]
    fn every_scoped_path_is_normalized() {
        for p in DETERMINISM_SCOPED
            .iter()
            .chain(WALLCLOCK_ALLOWED)
            .chain(HOT_PATH_SCOPED)
        {
            assert!(!p.contains('\\'), "{p} must use forward slashes");
            assert!(p.ends_with(".rs"));
        }
    }

    #[test]
    fn lint_paths_rejects_missing() {
        let err = lint_paths(Path::new("/nonexistent-root"), &[PathBuf::from("nope.rs")]);
        assert!(matches!(err, Err(LintError::BadPath(_))));
    }
}
