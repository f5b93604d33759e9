//! The lint rule catalogue and the per-file checking pass.
//!
//! Rules operate on the lexed token stream with structural context (see
//! [`crate::context`]) — close enough to an AST walk for these patterns
//! while staying dependency-free. Each rule is documented in DESIGN.md
//! ("Invariants & static analysis"); keep the two in sync.

use crate::context::{allow_directives, contexts, AllowDirective, TokenCtx};
use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::report::{Diagnostic, Severity};

/// How a file is classified for rule scoping.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Feeds serialized artifacts (ledger/audit/farm/stats): the
    /// determinism rules (`thread-order`) apply, and `slice-index`
    /// escalates from warning to error.
    pub determinism_scoped: bool,
    /// The one sanctioned wall-clock user (`obs` spans).
    pub wallclock_allowed: bool,
    /// Library source: the `panic` rule guards plain-`pub` functions.
    /// Binary targets (`src/bin`, `benches`) are exempt.
    pub panic_checked: bool,
    /// Allocation hot path (conversion farm, comparator, online kernel):
    /// the `hot-alloc` rule bans per-call `Vec::new`/`vec![]` in favor of
    /// the `nmt_engine::mem` pools.
    pub hot_path: bool,
    /// Cross-thread coordination module: the `atomic-ordering` rule
    /// requires a `// ordering:` justification on every atomic op.
    pub concurrency_scoped: bool,
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name as used in diagnostics and allow comments.
    pub name: &'static str,
    /// Default severity, as prose (`slice-index` escalates by scope).
    pub severity: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// One-line rationale.
    pub rationale: &'static str,
}

/// Every rule the passes know about, in reporting order. This table is
/// the single source of truth: the DESIGN.md §6d catalogue is generated
/// from it (`cargo xtask lint --rules-md`) and a drift test keeps the
/// committed copy in sync.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "unordered-map",
        severity: "error",
        scope: "all library sources",
        rationale: "HashMap/HashSet iteration order is seed-randomized; \
                    serialized artifacts must be byte-identical, use BTreeMap/BTreeSet",
    },
    RuleInfo {
        name: "wallclock",
        severity: "error",
        scope: "all except sanctioned clock readers",
        rationale: "Instant/SystemTime readings differ per run; only obs spans \
                    may observe wall-clock time",
    },
    RuleInfo {
        name: "thread-order",
        severity: "error",
        scope: "determinism-scoped modules",
        rationale: "atomic read-modify-write and channel drains commit results in \
                    scheduling order; reductions on serialized paths must be index-ordered",
    },
    RuleInfo {
        name: "panic",
        severity: "error",
        scope: "plain-pub fns, lib crates",
        rationale: "pub APIs on the sweep path return typed errors instead of \
                    panicking (unwrap/expect/panic!/unreachable!/todo!)",
    },
    RuleInfo {
        name: "slice-index",
        severity: "warning (error when determinism-scoped)",
        scope: "plain-pub fns, lib crates",
        rationale: "direct indexing can panic; prefer get()/iterators in pub APIs \
                    (error-level on determinism-scoped modules)",
    },
    RuleInfo {
        name: "hot-alloc",
        severity: "error",
        scope: "allocation-hot-path modules",
        rationale: "hot-path modules must draw buffers from the `nmt_engine::mem` \
                    pools; a per-call `Vec::new`/`vec![]` reintroduces the per-strip \
                    allocation churn the pools exist to remove",
    },
    RuleInfo {
        name: "metric-name",
        severity: "error",
        scope: "all library sources",
        rationale: "obs metric names must be lowercase dotted `crate.subsystem.name` \
                    so metrics snapshots and bundles keep stable keys",
    },
    RuleInfo {
        name: "atomic-ordering",
        severity: "error",
        scope: "concurrency-scoped modules",
        rationale: "every atomic op must justify its memory ordering with a \
                    `// ordering:` comment; `Relaxed` is reserved for monotone \
                    counters whose value never gates cross-thread data visibility",
    },
    RuleInfo {
        name: "bad-allow",
        severity: "error",
        scope: "allow-comment hygiene",
        rationale: "nmt-lint allow comments must name a known rule and give a reason",
    },
    RuleInfo {
        name: "unused-allow",
        severity: "warning",
        scope: "allow-comment hygiene",
        rationale: "an allow comment that suppresses nothing is stale and should be removed",
    },
];

/// Look up a rule by name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Render the rule catalogue as the markdown table embedded in
/// DESIGN.md §6d (between the `nmt-lint:rules-table` markers).
pub fn rules_markdown() -> String {
    let mut out = String::new();
    out.push_str("| rule | severity | scope | rationale |\n");
    out.push_str("|------|----------|-------|-----------|\n");
    for r in RULES {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            r.name, r.severity, r.scope, r.rationale
        ));
    }
    out
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`&mut [f32]`, `dyn [..]`-ish positions, `return [..]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "dyn", "as", "in", "return", "break", "continue", "else", "match", "if", "while",
    "for", "loop", "move", "unsafe", "const", "static", "where", "impl", "box", "let", "yield",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const METRIC_METHODS: &[&str] = &["counter_add", "gauge_set", "histogram_record"];

/// Atomic operations that take a `Ordering` argument. `fetch_*` is
/// matched by prefix.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
    "fetch_update",
];

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Is `name` a valid dotted metric name: `[a-z][a-z0-9_]*(\.[a-z0-9_]+)+`
/// with at least two segments, each starting with a letter?
fn valid_metric_name(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            s.starts_with(|c: char| c.is_ascii_lowercase())
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

struct FileCheck<'a> {
    path: &'a str,
    tokens: &'a [Token],
    ctxs: &'a [TokenCtx],
    comments: &'a [Comment],
    lines: Vec<&'a str>,
    class: FileClass,
    diags: Vec<Diagnostic>,
}

impl FileCheck<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    fn ctx(&self, i: usize) -> TokenCtx {
        self.ctxs.get(i).copied().unwrap_or_default()
    }

    fn emit(&mut self, rule: &'static str, severity: Severity, tok: &Token, message: String) {
        let snippet = self
            .lines
            .get(tok.line as usize - 1)
            .map(|l| l.trim_end().to_string())
            .unwrap_or_default();
        self.diags.push(Diagnostic {
            rule: rule.to_string(),
            severity,
            path: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet,
        });
    }

    fn check_token(&mut self, i: usize) {
        let ctx = self.ctx(i);
        if ctx.in_test {
            return;
        }
        let Some(tok) = self.tok(i) else { return };
        let tok = tok.clone();
        match tok.kind {
            TokenKind::Ident => self.check_ident(i, &tok, ctx),
            TokenKind::Punct if tok.is_punct('[') => self.check_open_bracket(i, &tok, ctx),
            _ => {}
        }
    }

    fn check_ident(&mut self, i: usize, tok: &Token, ctx: TokenCtx) {
        let prev_dot = i > 0 && self.tok(i - 1).map(|t| t.is_punct('.')) == Some(true);
        let next_paren = self.tok(i + 1).map(|t| t.is_punct('(')) == Some(true);
        let next_bang = self.tok(i + 1).map(|t| t.is_punct('!')) == Some(true);

        // unordered-map: naming the type at all is the violation — even a
        // non-iterated HashMap invites order-dependent code later.
        if tok.text == "HashMap" || tok.text == "HashSet" {
            self.emit(
                "unordered-map",
                Severity::Error,
                tok,
                format!(
                    "`{}` has seed-randomized iteration order; use `BTreeMap`/`BTreeSet` \
                     so serialized artifacts stay byte-identical",
                    tok.text
                ),
            );
        }

        // wallclock: obs spans are the sole sanctioned clock reader.
        if !self.class.wallclock_allowed && (tok.text == "Instant" || tok.text == "SystemTime") {
            self.emit(
                "wallclock",
                Severity::Error,
                tok,
                format!(
                    "`{}` readings differ per run; route timing through `nmt_obs` spans",
                    tok.text
                ),
            );
        }

        // thread-order: only on determinism-scoped modules.
        if self.class.determinism_scoped {
            if tok.text.starts_with("fetch_") && prev_dot && next_paren {
                self.emit(
                    "thread-order",
                    Severity::Error,
                    tok,
                    format!(
                        "atomic `{}` commits updates in scheduling order; reduce \
                         per-worker results in index order instead",
                        tok.text
                    ),
                );
            }
            if tok.text == "mpsc" {
                self.emit(
                    "thread-order",
                    Severity::Error,
                    tok,
                    "channel receive order depends on thread scheduling; collect \
                     per-worker results by index instead"
                        .to_string(),
                );
            }
        }

        // panic: plain-pub fns of library crates must not panic.
        if self.class.panic_checked && ctx.in_pub_fn {
            if (tok.text == "unwrap" || tok.text == "expect") && prev_dot && next_paren {
                self.emit(
                    "panic",
                    Severity::Error,
                    tok,
                    format!(
                        "`.{}()` in a pub fn can panic; return a typed error \
                         (or justify with an nmt-lint allow comment)",
                        tok.text
                    ),
                );
            }
            if PANIC_MACROS.contains(&tok.text.as_str()) && next_bang {
                self.emit(
                    "panic",
                    Severity::Error,
                    tok,
                    format!("`{}!` in a pub fn; return a typed error instead", tok.text),
                );
            }
        }

        // hot-alloc: hot-path modules must take buffers from the pools.
        // `Vec::new` is the token run `Vec` `:` `:` `new` `(`; the `vec!`
        // macro is `vec` `!`. `with_capacity` is deliberately exempt —
        // a right-sized once-per-call reservation is not churn.
        if self.class.hot_path {
            let vec_new = tok.text == "Vec"
                && self.tok(i + 1).map(|t| t.is_punct(':')) == Some(true)
                && self.tok(i + 2).map(|t| t.is_punct(':')) == Some(true)
                && self.tok(i + 3).map(|t| t.is_ident("new")) == Some(true)
                && self.tok(i + 4).map(|t| t.is_punct('(')) == Some(true);
            let vec_macro = tok.text == "vec" && next_bang;
            if vec_new || vec_macro {
                self.emit(
                    "hot-alloc",
                    Severity::Error,
                    tok,
                    format!(
                        "`{}` on an allocation hot path; draw the buffer from the \
                         `nmt_engine::mem` pools (or justify a cold site with an \
                         nmt-lint allow comment)",
                        if vec_new { "Vec::new()" } else { "vec![]" }
                    ),
                );
            }
        }

        // atomic-ordering: every atomic op in a concurrency-scoped file
        // must justify its memory ordering in a `// ordering:` comment.
        if self.class.concurrency_scoped && prev_dot && next_paren {
            let is_atomic =
                ATOMIC_METHODS.contains(&tok.text.as_str()) || tok.text.starts_with("fetch_");
            if is_atomic {
                if let Some(orderings) = self.call_orderings(i) {
                    self.check_atomic_ordering(tok, &orderings);
                }
            }
        }

        // metric-name: literal names handed to the obs registry.
        if METRIC_METHODS.contains(&tok.text.as_str()) && prev_dot && next_paren {
            if let Some(arg) = self.tok(i + 2) {
                if arg.kind == TokenKind::Str && !valid_metric_name(&arg.text) {
                    let arg = arg.clone();
                    self.emit(
                        "metric-name",
                        Severity::Error,
                        &arg,
                        format!(
                            "metric name `{}` does not match the lowercase dotted \
                             `crate.subsystem.name` convention",
                            arg.text
                        ),
                    );
                }
            }
        }
    }

    /// For the method call at ident `i`, scan its balanced argument list
    /// for `Ordering` variants. Returns `None` when no variant appears —
    /// the callee is then a same-named non-atomic method (`map.load(..)`,
    /// `serde` `serialize`-adjacent `store(..)`, `cmp::Ordering` uses)
    /// and the rule stays silent.
    fn call_orderings(&self, i: usize) -> Option<Vec<String>> {
        let mut depth = 0i32;
        let mut found = Vec::new();
        for t in self.tokens.iter().skip(i + 1) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokenKind::Ident && ORDERING_VARIANTS.contains(&t.text.as_str()) {
                found.push(t.text.clone());
            }
        }
        (!found.is_empty()).then_some(found)
    }

    /// Find the `// ordering:` justification for an atomic op on `line`:
    /// a trailing comment on the op's own line, or an `ordering:` opener
    /// anywhere in the contiguous comment block directly above it (so
    /// multi-line justifications work), with the block's following lines
    /// appended as continuation text.
    fn ordering_justification(&self, line: u32) -> Option<String> {
        let text_at = |l: u32| {
            self.comments
                .iter()
                .find(|c| c.line == l)
                .map(|c| c.text.trim().to_string())
        };
        if let Some(t) = text_at(line) {
            if let Some(rest) = t.strip_prefix("ordering:") {
                return Some(rest.trim().to_string());
            }
        }
        // Collect the contiguous comment block ending on `line - 1`.
        let mut block = Vec::new();
        let mut l = line.checked_sub(1)?;
        while let Some(t) = text_at(l) {
            block.push(t);
            match l.checked_sub(1) {
                Some(prev) => l = prev,
                None => break,
            }
        }
        block.reverse(); // top-to-bottom order
        let opener = block.iter().rposition(|t| t.starts_with("ordering:"))?;
        let mut reason = block[opener]
            .strip_prefix("ordering:")
            .unwrap_or("")
            .trim()
            .to_string();
        for cont in &block[opener + 1..] {
            if !reason.is_empty() {
                reason.push(' ');
            }
            reason.push_str(cont);
        }
        Some(reason)
    }

    fn check_atomic_ordering(&mut self, tok: &Token, orderings: &[String]) {
        let justification = self.ordering_justification(tok.line);
        let relaxed = orderings.iter().any(|o| o == "Relaxed");
        match justification {
            None => self.emit(
                "atomic-ordering",
                Severity::Error,
                tok,
                format!(
                    "atomic `{}` with `{}` has no `// ordering:` justification; \
                     state why this memory ordering is sufficient",
                    tok.text,
                    orderings.join("`/`")
                ),
            ),
            Some(reason) if reason.is_empty() => self.emit(
                "atomic-ordering",
                Severity::Error,
                tok,
                format!(
                    "empty `// ordering:` justification on atomic `{}`",
                    tok.text
                ),
            ),
            Some(reason) if relaxed && !reason.to_ascii_lowercase().contains("monotone") => {
                self.emit(
                    "atomic-ordering",
                    Severity::Error,
                    tok,
                    format!(
                        "`Relaxed` on atomic `{}` is reserved for monotone counters; \
                         say \"monotone\" in the ordering comment or use an \
                         acquire/release ordering",
                        tok.text
                    ),
                );
            }
            Some(_) => {}
        }
    }

    fn check_open_bracket(&mut self, i: usize, tok: &Token, ctx: TokenCtx) {
        // slice-index: an index expression is `[` directly preceded by an
        // identifier (not a keyword), `)`, or `]`.
        if !(self.class.panic_checked && ctx.in_pub_fn) {
            return;
        }
        let Some(prev) = (i > 0).then(|| self.tok(i - 1)).flatten() else {
            return;
        };
        let indexes = match prev.kind {
            TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
            TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
            _ => false,
        };
        if indexes {
            let severity = if self.class.determinism_scoped {
                Severity::Error
            } else {
                Severity::Warning
            };
            self.emit(
                "slice-index",
                severity,
                tok,
                "direct indexing in a pub fn can panic; prefer `get()`, iterators, \
                 or justify with an nmt-lint allow comment"
                    .to_string(),
            );
        }
    }
}

/// Lint one file's source text. `path` is used only for reporting.
///
/// Returns the surviving diagnostics plus the allow directives that were
/// actually used (for the report's suppression accounting).
pub fn check_source(
    path: &str,
    src: &str,
    class: FileClass,
) -> (Vec<Diagnostic>, Vec<AllowDirective>) {
    let lexed = lex(src);
    let ctxs = contexts(&lexed.tokens);
    let mut fc = FileCheck {
        path,
        tokens: &lexed.tokens,
        ctxs: &ctxs,
        comments: &lexed.comments,
        lines: src.lines().collect(),
        class,
        diags: Vec::new(),
    };
    for i in 0..lexed.tokens.len() {
        fc.check_token(i);
    }
    let mut diags = std::mem::take(&mut fc.diags);

    // Apply allow directives: a directive spanning lines L..=E (the
    // reason may continue across indented comment lines) suppresses
    // matching diagnostics on any of those lines (trailing comment) or
    // on E + 1 (comment block on its own lines above the code).
    let directives = allow_directives(&lexed.comments);
    let mut used = vec![false; directives.len()];
    diags.retain(|d| {
        for (dir, used_flag) in directives.iter().zip(used.iter_mut()) {
            if dir.rule == d.rule
                && !dir.reason.is_empty()
                && (dir.line..=dir.end_line + 1).contains(&d.line)
            {
                *used_flag = true;
                return false;
            }
        }
        true
    });

    // Directive hygiene: unknown rules / missing reasons are themselves
    // violations; clean-but-unused directives are stale.
    let snippet_of = |line: u32| {
        src.lines()
            .nth(line as usize - 1)
            .map(|l| l.trim_end().to_string())
            .unwrap_or_default()
    };
    let mut used_dirs = Vec::new();
    for (dir, &was_used) in directives.iter().zip(used.iter()) {
        if rule_info(&dir.rule).is_none() {
            diags.push(Diagnostic {
                rule: "bad-allow".to_string(),
                severity: Severity::Error,
                path: path.to_string(),
                line: dir.line,
                col: 1,
                message: if dir.rule.is_empty() {
                    "malformed nmt-lint directive; the only form is \
                     `// nmt-lint: allow(<rule>) — <reason>`"
                        .to_string()
                } else {
                    format!(
                        "allow comment names unknown rule `{}` (known: {})",
                        dir.rule,
                        RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
                    )
                },
                snippet: snippet_of(dir.line),
            });
        } else if dir.reason.is_empty() {
            diags.push(Diagnostic {
                rule: "bad-allow".to_string(),
                severity: Severity::Error,
                path: path.to_string(),
                line: dir.line,
                col: 1,
                message: format!(
                    "allow comment for `{}` has no reason; write \
                     `// nmt-lint: allow({}) — <why this is sound>`",
                    dir.rule, dir.rule
                ),
                snippet: snippet_of(dir.line),
            });
        } else if !was_used {
            diags.push(Diagnostic {
                rule: "unused-allow".to_string(),
                severity: Severity::Warning,
                path: path.to_string(),
                line: dir.line,
                col: 1,
                message: format!(
                    "allow comment for `{}` suppresses nothing here; remove it",
                    dir.rule
                ),
                snippet: snippet_of(dir.line),
            });
        } else {
            used_dirs.push(dir.clone());
        }
    }
    diags.sort_by(|a, b| (a.line, a.col, a.rule.as_str()).cmp(&(b.line, b.col, b.rule.as_str())));
    (diags, used_dirs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn errs(src: &str) -> Vec<(String, u32)> {
        let (diags, _) = check_source(
            "test.rs",
            src,
            FileClass {
                panic_checked: true,
                ..FileClass::default()
            },
        );
        diags.into_iter().map(|d| (d.rule, d.line)).collect()
    }

    fn scoped_errs(src: &str) -> Vec<(String, u32)> {
        let (diags, _) = check_source(
            "test.rs",
            src,
            FileClass {
                determinism_scoped: true,
                panic_checked: true,
                ..FileClass::default()
            },
        );
        diags.into_iter().map(|d| (d.rule, d.line)).collect()
    }

    #[test]
    fn hashmap_flagged_everywhere_but_tests() {
        assert_eq!(
            errs("use std::collections::HashMap;"),
            vec![("unordered-map".to_string(), 1)]
        );
        assert!(errs("#[cfg(test)]\nmod t { use std::collections::HashMap; }").is_empty());
    }

    #[test]
    fn wallclock_flagged_unless_allowlisted() {
        assert_eq!(
            errs("fn f() { let t = std::time::Instant::now(); }"),
            vec![("wallclock".to_string(), 1)]
        );
        let (diags, _) = check_source(
            "span.rs",
            "fn f() { let t = std::time::Instant::now(); }",
            FileClass {
                wallclock_allowed: true,
                ..FileClass::default()
            },
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn thread_order_only_in_scope() {
        let src = "fn f(x: &std::sync::atomic::AtomicU64) { x.fetch_add(1, O); }";
        assert!(errs(src).is_empty());
        assert_eq!(scoped_errs(src), vec![("thread-order".to_string(), 1)]);
    }

    #[test]
    fn panic_rules_respect_visibility() {
        assert_eq!(
            errs("pub fn f(x: Option<u8>) -> u8 { x.unwrap() }"),
            vec![("panic".to_string(), 1)]
        );
        assert!(errs("fn f(x: Option<u8>) -> u8 { x.unwrap() }").is_empty());
        assert!(errs("pub(crate) fn f(x: Option<u8>) -> u8 { x.unwrap() }").is_empty());
        assert_eq!(
            errs("pub fn f() { panic!(\"boom\") }"),
            vec![("panic".to_string(), 1)]
        );
        // unwrap_or_else is fine; field named unwrap is fine.
        assert!(errs("pub fn f(x: Option<u8>) -> u8 { x.unwrap_or_default() }").is_empty());
    }

    #[test]
    fn slice_index_severity_depends_on_scope() {
        let src = "pub fn f(v: &[u8], i: usize) -> u8 { v[i] }";
        let (diags, _) = check_source(
            "t.rs",
            src,
            FileClass {
                panic_checked: true,
                ..FileClass::default()
            },
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        let got = scoped_errs(src);
        assert_eq!(got, vec![("slice-index".to_string(), 1)]);
        // Slice *types* are not index expressions.
        assert!(errs("pub fn f(v: &mut [u8]) {}").is_empty());
    }

    #[test]
    fn hot_alloc_only_on_hot_paths() {
        let hot = |src: &str| {
            let (diags, _) = check_source(
                "hot.rs",
                src,
                FileClass {
                    hot_path: true,
                    ..FileClass::default()
                },
            );
            diags
                .into_iter()
                .map(|d| (d.rule, d.line))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            hot("fn f() { let v: Vec<u32> = Vec::new(); }"),
            vec![("hot-alloc".to_string(), 1)]
        );
        assert_eq!(
            hot("fn f() -> Vec<f32> { vec![0.0; 8] }"),
            vec![("hot-alloc".to_string(), 1)]
        );
        // Right-sized reservations and pool takes are fine; so is test code.
        assert!(hot("fn f() { let v: Vec<u32> = Vec::with_capacity(8); }").is_empty());
        assert!(hot("fn f(p: bool) { let v = mem::take_idx(p, 8); }").is_empty());
        assert!(hot("#[cfg(test)] mod t { fn f() { let v = vec![1]; } }").is_empty());
        // Off the hot path the same code is untouched.
        assert!(errs("fn f() { let v: Vec<u32> = Vec::new(); }").is_empty());
    }

    #[test]
    fn metric_names_must_be_dotted_lowercase() {
        assert_eq!(
            errs("fn f(m: &M) { m.counter_add(\"Bad.Name\", 1); }"),
            vec![("metric-name".to_string(), 1)]
        );
        assert_eq!(
            errs("fn f(m: &M) { m.gauge_set(\"single\", 1.0); }"),
            vec![("metric-name".to_string(), 1)]
        );
        assert!(errs("fn f(m: &M) { m.histogram_record(\"engine.farm.bytes\", 1); }").is_empty());
        // Dynamic names are not checked (the registry sanitizes at export).
        assert!(errs("fn f(m: &M) { m.counter_add(&format!(\"{p}.x\"), 1); }").is_empty());
    }

    #[test]
    fn allow_comment_suppresses_and_is_counted() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n\
                   \x20   // nmt-lint: allow(panic) — input validated above\n\
                   \x20   x.unwrap()\n\
                   }\n";
        let (diags, used) = check_source(
            "t.rs",
            src,
            FileClass {
                panic_checked: true,
                ..FileClass::default()
            },
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(used.len(), 1);
        assert_eq!(used[0].rule, "panic");
    }

    #[test]
    fn trailing_allow_comment_works() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } \
                   // nmt-lint: allow(panic) — caller checked";
        assert!(errs(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_bad() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n\
                   \x20   // nmt-lint: allow(panic)\n\
                   \x20   x.unwrap()\n\
                   }\n";
        let got = errs(src);
        assert!(got.contains(&("bad-allow".to_string(), 2)), "{got:?}");
        assert!(got.contains(&("panic".to_string(), 3)), "{got:?}");
    }

    #[test]
    fn unknown_rule_allow_is_bad() {
        let got = errs("// nmt-lint: allow(no-such-rule) — because\n");
        assert_eq!(got, vec![("bad-allow".to_string(), 1)]);
    }

    fn conc_errs(src: &str) -> Vec<(String, u32)> {
        let (diags, _) = check_source(
            "conc.rs",
            src,
            FileClass {
                concurrency_scoped: true,
                ..FileClass::default()
            },
        );
        diags.into_iter().map(|d| (d.rule, d.line)).collect()
    }

    #[test]
    fn atomic_ops_require_ordering_comments() {
        assert_eq!(
            conc_errs("fn f(x: &AtomicU64) { x.load(Ordering::Acquire); }"),
            vec![("atomic-ordering".to_string(), 1)]
        );
        assert!(conc_errs(
            "fn f(x: &AtomicU64) {\n\
             \x20   // ordering: pairs with the Release store in put()\n\
             \x20   x.load(Ordering::Acquire);\n\
             }"
        )
        .is_empty());
        // Trailing same-line comments work too.
        assert!(conc_errs(
            "fn f(x: &AtomicU64) { x.store(1, Ordering::Release); // ordering: publishes the buffer\n}"
        )
        .is_empty());
    }

    #[test]
    fn relaxed_needs_a_monotone_justification() {
        let src = "fn f(x: &AtomicU64) {\n\
                   \x20   // ordering: just a counter\n\
                   \x20   x.fetch_add(1, Ordering::Relaxed);\n\
                   }";
        assert_eq!(conc_errs(src), vec![("atomic-ordering".to_string(), 3)]);
        let ok = "fn f(x: &AtomicU64) {\n\
                  \x20   // ordering: monotone event counter, value never gates visibility\n\
                  \x20   x.fetch_add(1, Ordering::Relaxed);\n\
                  }";
        assert!(conc_errs(ok).is_empty());
    }

    #[test]
    fn non_atomic_same_named_methods_are_ignored() {
        // `cmp::Ordering` and a `load` without an Ordering argument must
        // not trip the rule.
        assert!(conc_errs("fn f(a: u8, b: u8) { a.cmp(&b); }").is_empty());
        assert!(conc_errs("fn f(m: &Loader) { m.load(\"path\"); }").is_empty());
        assert!(conc_errs("fn f(x: Ordering) { take(Ordering::Equal); }").is_empty());
    }

    #[test]
    fn atomic_rule_is_scope_gated() {
        let src = "fn f(x: &AtomicU64) { x.load(Ordering::Acquire); }";
        assert!(errs(src).is_empty(), "off-scope files are exempt");
    }

    #[test]
    fn split_allow_comment_suppresses_code_below_the_block() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n\
                   \x20   // nmt-lint: allow(panic) — the caller pre-validates this\n\
                   \x20   //   input, so the unwrap cannot fire in practice\n\
                   \x20   x.unwrap()\n\
                   }\n";
        let (diags, used) = check_source(
            "t.rs",
            src,
            FileClass {
                panic_checked: true,
                ..FileClass::default()
            },
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(used.len(), 1);
        assert!(used[0].reason.contains("cannot fire"));
    }

    #[test]
    fn rules_markdown_lists_every_rule() {
        let md = rules_markdown();
        for r in RULES {
            assert!(
                md.contains(&format!("| `{}` |", r.name)),
                "{} missing",
                r.name
            );
        }
        assert!(md.starts_with("| rule | severity | scope | rationale |"));
    }

    #[test]
    fn unused_allow_is_stale() {
        let (diags, _) = check_source(
            "t.rs",
            "// nmt-lint: allow(panic) — nothing here panics\nfn quiet() {}\n",
            FileClass {
                panic_checked: true,
                ..FileClass::default()
            },
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unused-allow");
        assert_eq!(diags[0].severity, Severity::Warning);
    }
}
