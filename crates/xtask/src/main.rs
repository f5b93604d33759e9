//! Workspace automation driver: `cargo xtask <command>`.
//!
//! ```text
//! cargo xtask lint [--json <path>] [--deny-warnings] [--root <dir>] [PATH...]
//! cargo xtask lint --rules-md [--write]
//! cargo xtask miri [--root <dir>]
//! ```
//!
//! `lint` runs the token/context pass; with no `PATH` arguments the
//! whole workspace's library sources are checked, explicit paths (files
//! or directories, e.g. the fixtures under `tests/lint_fixtures/`) are
//! checked instead when given. `--rules-md` prints the generated rule
//! catalogue (DESIGN.md §6d); `--write` splices it into DESIGN.md
//! between the `nmt-lint:rules-table` markers.
//!
//! `miri` drives `cargo miri test` over the unsafe-bearing crates when
//! the Miri component is installed, and skips cleanly (exit 0, loud
//! message) when it is not — the offline toolchain may lack it.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <command> [options]

commands:
  lint     [--json <path>] [--deny-warnings] [--root <dir>] [PATH...]
           [--rules-md [--write]]
  miri     [--root <dir>]

options (miri takes only --root):
  --json <path>     also write the machine-readable report to <path>
  --deny-warnings   treat warning-severity findings as failures
  --root <dir>      workspace root (default: ancestor of this binary's manifest)
  PATH...           check these files/dirs instead of the workspace sources

lint options:
  --rules-md        print the generated DESIGN.md rule-catalogue table
  --write           with --rules-md: splice the table into DESIGN.md in place
";

struct CommonArgs {
    json_out: Option<PathBuf>,
    deny_warnings: bool,
    root: PathBuf,
    paths: Vec<PathBuf>,
    rules_md: bool,
    write: bool,
}

fn default_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

fn parse_args(args: &[String]) -> Result<CommonArgs, String> {
    let mut out = CommonArgs {
        json_out: None,
        deny_warnings: false,
        root: default_root(),
        paths: Vec::new(),
        rules_md: false,
        write: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                let v = it.next().ok_or("--json needs a path")?;
                out.json_out = Some(PathBuf::from(v));
            }
            "--deny-warnings" => out.deny_warnings = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                out.root = PathBuf::from(v);
            }
            "--rules-md" => out.rules_md = true,
            "--write" => out.write = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
            }
            other => out.paths.push(PathBuf::from(other)),
        }
    }
    Ok(out)
}

fn write_json(path: &PathBuf, body: &str) -> Result<(), ExitCode> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: creating {}: {e}", dir.display());
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: writing {}: {e}", path.display());
        return Err(ExitCode::from(2));
    }
    eprintln!("report written to {}", path.display());
    Ok(())
}

/// Markers bounding the generated rule table in DESIGN.md.
const RULES_TABLE_START: &str =
    "<!-- nmt-lint:rules-table:start (generated; run `cargo xtask lint --rules-md --write`) -->";
const RULES_TABLE_END: &str = "<!-- nmt-lint:rules-table:end -->";

fn run_rules_md(parsed: &CommonArgs) -> ExitCode {
    let table = nmt_lint::rules_markdown();
    if !parsed.write {
        print!("{table}");
        return ExitCode::SUCCESS;
    }
    let design = parsed.root.join("DESIGN.md");
    let text = match std::fs::read_to_string(&design) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {}: {e}", design.display());
            return ExitCode::from(2);
        }
    };
    let (Some(start), Some(end)) = (text.find(RULES_TABLE_START), text.find(RULES_TABLE_END))
    else {
        eprintln!(
            "error: {} is missing the nmt-lint:rules-table markers",
            design.display()
        );
        return ExitCode::from(2);
    };
    if end < start {
        eprintln!("error: rules-table markers are out of order");
        return ExitCode::from(2);
    }
    let mut updated = String::new();
    updated.push_str(&text[..start + RULES_TABLE_START.len()]);
    updated.push('\n');
    updated.push_str(&table);
    updated.push_str(&text[end..]);
    if let Err(e) = std::fs::write(&design, updated) {
        eprintln!("error: writing {}: {e}", design.display());
        return ExitCode::from(2);
    }
    eprintln!("rule table updated in {}", design.display());
    ExitCode::SUCCESS
}

fn run_lint(args: &[String]) -> ExitCode {
    let parsed = match parse_args(args) {
        Ok(p) => p,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if parsed.rules_md {
        return run_rules_md(&parsed);
    }
    let result = if parsed.paths.is_empty() {
        nmt_lint::lint_workspace(&parsed.root)
    } else {
        nmt_lint::lint_paths(&parsed.root, &parsed.paths)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    if let Some(json_path) = &parsed.json_out {
        if let Err(code) = write_json(json_path, &report.to_json()) {
            return code;
        }
    }
    if report.failed(parsed.deny_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Crates with `unsafe` code that Miri should interpret. Kept explicit
/// so a Miri run does not drag the whole workspace (and its build
/// scripts) through the interpreter; a unit test holds it equal to the
/// set of `crates/*` whose sources contain the `unsafe` keyword.
const MIRI_CRATES: &[&str] = &["nmt-obs"];

/// `miri`'s one option is `--root <dir>`; every other argument is an
/// error, so a lint flag given to it is not silently ignored.
fn parse_miri_args(args: &[String]) -> Result<PathBuf, String> {
    let mut root = default_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(it.next().ok_or("--root needs a directory")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("miri takes only --root, not {other}")),
        }
    }
    Ok(root)
}

fn run_miri(args: &[String]) -> ExitCode {
    let root = match parse_miri_args(args) {
        Ok(root) => root,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Miri is a nightly component; the offline toolchain may not carry
    // it. Detect, and skip loudly rather than fail the gate: the CI job
    // that *does* have Miri still runs the real thing.
    let probe = std::process::Command::new("cargo")
        .args(["miri", "--version"])
        .output();
    let available = matches!(&probe, Ok(o) if o.status.success());
    if !available {
        eprintln!(
            "xtask miri: `cargo miri` is not available on this toolchain; skipping \
             (install with `rustup +nightly component add miri` to run locally)"
        );
        return ExitCode::SUCCESS;
    }
    let mut cmd = std::process::Command::new("cargo");
    cmd.arg("miri").arg("test");
    for c in MIRI_CRATES {
        cmd.args(["-p", c]);
    }
    cmd.current_dir(&root);
    // Span timing needs host clock access under the interpreter.
    cmd.env(
        "MIRIFLAGS",
        std::env::var("MIRIFLAGS").unwrap_or_else(|_| "-Zmiri-disable-isolation".to_string()),
    );
    match cmd.status() {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: running cargo miri: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("miri") => run_miri(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    /// The `[package]` name of the crate rooted at `dir`.
    fn package_name(dir: &Path) -> String {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .map(|v| v.trim().trim_matches('"').to_string())
            .expect("manifest names its package")
    }

    #[test]
    fn miri_rejects_every_argument_but_root() {
        let args = |xs: &[&str]| xs.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(
            parse_miri_args(&args(&["--root", "some/dir"])),
            Ok(PathBuf::from("some/dir"))
        );
        assert_eq!(parse_miri_args(&args(&[])), Ok(default_root()));
        assert!(parse_miri_args(&args(&["--root"])).is_err());
        for stray in [
            &["--json", "out.json"][..],
            &["--deny-warnings"],
            &["--rules-md"],
            &["--write"],
            &["--root", "d", "--write"],
            &["crates/obs"],
        ] {
            assert!(parse_miri_args(&args(stray)).is_err(), "{stray:?}");
            // Rejected before `cargo miri` is probed, with exit code 2.
            assert_eq!(run_miri(&args(stray)), ExitCode::from(2), "{stray:?}");
        }
    }

    #[test]
    fn miri_crates_are_exactly_the_crates_with_unsafe() {
        // Lexing (not grepping) means only the keyword counts: a string
        // or comment that says "unsafe" does not put a crate under Miri.
        // The root crate's one `unsafe` block is the CLI binary's libc
        // `signal` call in `main`, which no test runs in-process, so only
        // `crates/*` is scanned.
        let root = default_root();
        let crates = root.join("crates");
        let mut with_unsafe = BTreeSet::new();
        for file in nmt_lint::workspace_sources(&root).expect("workspace sources") {
            let Ok(rel) = file.strip_prefix(&crates) else {
                continue;
            };
            let src = std::fs::read_to_string(&file).expect("readable source");
            let tokens = nmt_lint::lexer::lex(&src).tokens;
            if tokens.iter().any(|t| t.is_ident("unsafe")) {
                let dir = rel.iter().next().expect("crate directory");
                with_unsafe.insert(package_name(&crates.join(dir)));
            }
        }
        let listed: BTreeSet<String> = MIRI_CRATES.iter().copied().map(String::from).collect();
        assert_eq!(
            listed, with_unsafe,
            "MIRI_CRATES must list exactly the crates whose sources use `unsafe`"
        );
    }
}
