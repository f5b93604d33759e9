//! ui-style tests for `nmt-lint`.
//!
//! Each fixture under `tests/lint_fixtures/` declares its expected
//! diagnostics inline with `//~ ERROR <rule>` / `//~ WARN <rule>` markers
//! (`//~^` anchors to the previous line instead of its own). Files named
//! `clean_*` must produce no diagnostics at all. The final test holds the
//! live workspace to the same standard the CI lint job enforces: zero
//! error-severity findings.

use nmt_lint::{Severity, RULES};
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture_dir() -> PathBuf {
    root().join("tests/lint_fixtures")
}

fn fixture_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(fixture_dir())
        .expect("tests/lint_fixtures exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures found");
    files
}

/// Parse `//~ ERROR <rule>` / `//~ WARN <rule>` markers out of a fixture.
/// `//~^` attaches the expectation to the previous line.
fn expected_markers(src: &str) -> Vec<(String, Severity, u32)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let lineno = (i + 1) as u32;
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let mut rest = &line[pos + 3..];
        let mut target = lineno;
        if let Some(stripped) = rest.strip_prefix('^') {
            rest = stripped;
            target = lineno - 1;
        }
        let mut words = rest.split_whitespace();
        let severity = match words.next() {
            Some("ERROR") => Severity::Error,
            Some("WARN") => Severity::Warning,
            other => panic!("bad marker severity {other:?} in line {lineno}: {line}"),
        };
        let rule = words
            .next()
            .unwrap_or_else(|| panic!("marker missing rule name in line {lineno}: {line}"))
            .to_string();
        out.push((rule, severity, target));
    }
    out.sort();
    out
}

#[test]
fn fixtures_produce_exactly_their_declared_diagnostics() {
    for path in fixture_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let rel = format!("tests/lint_fixtures/{name}");
        let src = std::fs::read_to_string(&path).unwrap();
        let (diags, _) = nmt_lint::check_source(&rel, &src, nmt_lint::classify(&rel));
        let mut got: Vec<(String, Severity, u32)> = diags
            .iter()
            .map(|d| (d.rule.clone(), d.severity, d.line))
            .collect();
        got.sort();
        if name.starts_with("clean_") {
            assert!(got.is_empty(), "{rel} should lint clean, got {got:?}");
        } else {
            let expected = expected_markers(&src);
            assert!(!expected.is_empty(), "{rel} declares no //~ markers");
            assert_eq!(got, expected, "diagnostic mismatch in {rel}");
        }
    }
}

#[test]
fn fixtures_cover_every_rule() {
    let mut covered: Vec<String> = fixture_files()
        .iter()
        .flat_map(|p| expected_markers(&std::fs::read_to_string(p).unwrap()))
        .map(|(rule, _, _)| rule)
        .collect();
    covered.sort();
    covered.dedup();
    for rule in RULES {
        assert!(
            covered.contains(&rule.name.to_string()),
            "no fixture exercises rule `{}`",
            rule.name
        );
    }
}

#[test]
fn clean_fixture_suppression_is_counted() {
    let path = fixture_dir().join("clean_library.rs");
    let src = std::fs::read_to_string(&path).unwrap();
    let rel = "tests/lint_fixtures/clean_library.rs";
    let (diags, used) = nmt_lint::check_source(rel, &src, nmt_lint::classify(rel));
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(used.len(), 1, "the justified allow should be counted");
    assert_eq!(used[0].rule, "panic");
    assert!(!used[0].reason.is_empty());
}

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = nmt_lint::lint_workspace(root).expect("workspace lint runs");
    assert_eq!(
        report.summary.errors,
        0,
        "workspace has lint errors:\n{}",
        report.render()
    );
}

#[test]
fn every_scoped_path_exists() {
    // A deleted or renamed module must take its scope entry with it, or
    // the rule it named silently stops applying to anything.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for p in nmt_lint::DETERMINISM_SCOPED
        .iter()
        .chain(nmt_lint::WALLCLOCK_ALLOWED)
        .chain(nmt_lint::CONCURRENCY_SCOPED)
    {
        assert!(
            root.join(p).is_file(),
            "lint scope names a missing file: {p}"
        );
    }
}

#[test]
fn design_doc_names_every_determinism_scoped_file() {
    // The DESIGN.md §6d paragraph that lists the determinism-scoped files
    // must name every entry of `DETERMINISM_SCOPED`.
    const LEAD: &str = "**Determinism-scoped files**";
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let start = design
        .find(LEAD)
        .expect("DESIGN.md §6d must list the determinism-scoped files");
    let paragraph = design[start..].split("\n\n").next().unwrap_or_default();
    for p in nmt_lint::DETERMINISM_SCOPED {
        assert!(
            paragraph.contains(&format!("`{p}`")),
            "DESIGN.md's determinism-scoped list does not name {p}"
        );
    }
}

#[test]
fn design_doc_rule_table_matches_rule_info() {
    // DESIGN.md §6d is generated from `rule_info()` via
    // `cargo xtask lint --rules-md --write`; this test fails on drift.
    const START: &str = "<!-- nmt-lint:rules-table:start (generated; run `cargo xtask lint --rules-md --write`) -->";
    const END: &str = "<!-- nmt-lint:rules-table:end -->";
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let start = design
        .find(START)
        .expect("DESIGN.md must carry the rules-table start marker");
    let end = design
        .find(END)
        .expect("DESIGN.md must carry the rules-table end marker");
    let between = &design[start + START.len()..end];
    let expected = nmt_lint::rules_markdown();
    assert_eq!(
        between.trim(),
        expected.trim(),
        "DESIGN.md rule table is stale; run `cargo xtask lint --rules-md --write`"
    );
}
