//! Structural context over the token stream: which tokens live inside
//! test code, inside a function body, and inside a `pub` function body.
//!
//! This is a single linear pass that tracks brace scopes. It recognizes
//! `#[test]` / `#[cfg(test)]` attributes, `mod` items, `fn` items and
//! their visibility (`pub` vs. `pub(crate)`/`pub(super)` vs. private —
//! only *plain* `pub` marks the public API surface the panic rules
//! protect), and propagates that context through nested blocks.

use crate::lexer::{Comment, Token};

/// Context flags for one token.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenCtx {
    /// Inside a `#[cfg(test)]` module, `#[test]` fn, or other test-marked
    /// scope. Lint rules skip test code.
    pub in_test: bool,
    /// Inside some function body.
    pub in_fn: bool,
    /// Inside a plain-`pub` function body (nested private fns reset this).
    pub in_pub_fn: bool,
}

#[derive(Debug, Clone, Copy)]
struct Scope {
    /// Cumulative test-ness at this depth.
    test: bool,
    /// Visibility of the innermost enclosing fn (`None` = not in a fn).
    fn_vis: Option<bool>,
}

/// Compute a [`TokenCtx`] for every token, in lockstep with `tokens`.
pub fn contexts(tokens: &[Token]) -> Vec<TokenCtx> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut stack: Vec<Scope> = vec![Scope {
        test: false,
        fn_vis: None,
    }];
    // Pending item state, cleared at `;` / `{` / `}` boundaries.
    let mut pending_pub_plain = false;
    let mut pending_attr_test = false;
    let mut pending_fn: Option<(bool, bool)> = None; // (is_pub, is_test)
    let mut pending_mod_test: Option<bool> = None;

    let mut i = 0usize;
    while i < tokens.len() {
        let top = stack.last().copied().unwrap_or(Scope {
            test: false,
            fn_vis: None,
        });
        let ctx = TokenCtx {
            in_test: top.test,
            in_fn: top.fn_vis.is_some(),
            in_pub_fn: top.fn_vis == Some(true),
        };
        let tok = &tokens[i];
        out.push(ctx);

        if tok.is_punct('#') {
            // Attribute: `#[...]` or `#![...]`. Scan its bracket group for
            // a whole-token `test` (covers `#[test]`, `#[cfg(test)]`,
            // `#[cfg(any(test, ...))]`) and skip past it.
            let mut start = i + 1;
            if tokens.get(start).map(|t| t.is_punct('!')) == Some(true) {
                start += 1;
            }
            if tokens.get(start).map(|t| t.is_punct('[')) == Some(true) {
                let mut depth = 0usize;
                let mut saw_test = false;
                let mut end = start;
                for (j, t) in tokens.iter().enumerate().skip(start) {
                    end = j;
                    if t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if t.is_ident("test") {
                        saw_test = true;
                    }
                }
                // Every skipped token inherits the current context.
                for _ in (i + 1)..=end {
                    out.push(ctx);
                }
                pending_attr_test |= saw_test;
                i = end + 1;
                continue;
            }
        } else if tok.is_ident("pub") {
            pending_pub_plain = tokens.get(i + 1).map(|t| t.is_punct('(')) != Some(true);
        } else if tok.is_ident("fn") {
            pending_fn = Some((pending_pub_plain, pending_attr_test));
            pending_pub_plain = false;
            pending_attr_test = false;
        } else if tok.is_ident("mod") {
            pending_mod_test = Some(pending_attr_test);
            pending_pub_plain = false;
            pending_attr_test = false;
        } else if tok.is_punct('{') {
            let scope = if let Some((is_pub, is_test)) = pending_fn.take() {
                Scope {
                    test: top.test || is_test,
                    fn_vis: Some(is_pub && !(top.test || is_test)),
                }
            } else if let Some(is_test) = pending_mod_test.take() {
                Scope {
                    test: top.test || is_test,
                    fn_vis: None,
                }
            } else {
                // Plain block / impl / struct body / match: inherit, plus
                // any `#[cfg(test)]` attached directly to this item.
                Scope {
                    test: top.test || pending_attr_test,
                    fn_vis: top.fn_vis,
                }
            };
            pending_attr_test = false;
            pending_pub_plain = false;
            stack.push(scope);
        } else if tok.is_punct('}') {
            if stack.len() > 1 {
                stack.pop();
            }
            pending_fn = None;
            pending_mod_test = None;
            pending_pub_plain = false;
            pending_attr_test = false;
        } else if tok.is_punct(';') {
            // `mod foo;`, trait method declarations, statements.
            pending_fn = None;
            pending_mod_test = None;
            pending_pub_plain = false;
            pending_attr_test = false;
        }
        i += 1;
    }
    out
}

/// One `// nmt-lint: allow(<rule>) — <reason>` escape hatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the directive ends on (equal to `line` unless the
    /// reason continues onto indented follow-up comment lines).
    pub end_line: u32,
    /// The rule being allowed.
    pub rule: String,
    /// The justification after the separator (may be empty = invalid).
    pub reason: String,
}

/// Parse `nmt-lint: allow(...)` directives out of a file's comments.
///
/// A directive must be the *start* of its comment (modulo whitespace), so
/// prose that merely mentions the syntax — including doc comments, whose
/// text begins with an extra `/` — is not treated as a directive.
/// Accepted separators between `allow(rule)` and the reason: `—`, `-`,
/// `:` or just whitespace. A missing reason is reported by the
/// `bad-allow` rule, not here.
///
/// A long reason may continue across lines: a `//` comment on the
/// immediately following line whose text is indented by two or more
/// spaces is appended to the reason, and the directive's `end_line`
/// advances so suppression still anchors to the code below the comment
/// block.
pub fn allow_directives(comments: &[Comment]) -> Vec<AllowDirective> {
    let mut out: Vec<AllowDirective> = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim_start().strip_prefix("nmt-lint:") else {
            // Continuation line? Must directly follow an open directive
            // and be indented like wrapped prose.
            if let Some(last) = out.last_mut() {
                let continues = c.line == last.end_line + 1
                    && c.text.starts_with("  ")
                    && !c.text.trim().is_empty();
                if continues {
                    if !last.reason.is_empty() {
                        last.reason.push(' ');
                    }
                    last.reason.push_str(c.text.trim());
                    last.end_line = c.line;
                }
            }
            continue;
        };
        let malformed = AllowDirective {
            line: c.line,
            end_line: c.line,
            rule: String::new(),
            reason: String::new(),
        };
        let Some(body) = rest.trim_start().strip_prefix("allow(") else {
            // `nmt-lint:` with anything else is a malformed directive;
            // surface it as an empty-rule allow so `bad-allow` fires.
            out.push(malformed);
            continue;
        };
        let Some((rule, after)) = body.split_once(')') else {
            out.push(malformed);
            continue;
        };
        let reason = after
            .trim_start()
            .trim_start_matches(['—', '-', ':'])
            .trim()
            .to_string();
        out.push(AllowDirective {
            line: c.line,
            end_line: c.line,
            rule: rule.trim().to_string(),
            reason,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_at(src: &str, ident: &str) -> TokenCtx {
        let lexed = lex(src);
        let ctxs = contexts(&lexed.tokens);
        for (t, c) in lexed.tokens.iter().zip(&ctxs) {
            if t.is_ident(ident) {
                return *c;
            }
        }
        panic!("ident {ident} not found in {src}");
    }

    #[test]
    fn pub_fn_bodies_are_marked() {
        let c = ctx_at("pub fn f() { target(); }", "target");
        assert!(c.in_pub_fn && c.in_fn && !c.in_test);
    }

    #[test]
    fn private_and_restricted_fns_are_not_pub() {
        assert!(!ctx_at("fn f() { target(); }", "target").in_pub_fn);
        assert!(!ctx_at("pub(crate) fn f() { target(); }", "target").in_pub_fn);
        assert!(!ctx_at("pub(super) fn f() { target(); }", "target").in_pub_fn);
    }

    #[test]
    fn nested_private_fn_resets_pub() {
        let src = "pub fn outer() { fn inner() { target(); } other(); }";
        assert!(!ctx_at(src, "target").in_pub_fn);
        assert!(ctx_at(src, "other").in_pub_fn);
    }

    #[test]
    fn blocks_inside_fn_inherit() {
        let src = "pub fn f(x: bool) { if x { target(); } }";
        assert!(ctx_at(src, "target").in_pub_fn);
        let src = "pub fn f(x: u8) { match x { _ => target() } }";
        assert!(ctx_at(src, "target").in_pub_fn);
    }

    #[test]
    fn cfg_test_mod_is_test() {
        let src = "#[cfg(test)] mod tests { pub fn f() { target(); } }";
        let c = ctx_at(src, "target");
        assert!(c.in_test && !c.in_pub_fn);
    }

    #[test]
    fn test_fn_attr_is_test() {
        let src = "#[test] fn check() { target(); }";
        assert!(ctx_at(src, "target").in_test);
    }

    #[test]
    fn non_test_mod_is_not_test() {
        let src = "mod inner { pub fn f() { target(); } }";
        let c = ctx_at(src, "target");
        assert!(!c.in_test && c.in_pub_fn);
    }

    #[test]
    fn unrelated_attrs_do_not_mark_test() {
        let src = "#[derive(Debug)] pub struct S; pub fn f() { target(); }";
        assert!(!ctx_at(src, "target").in_test);
    }

    #[test]
    fn impl_methods_track_visibility() {
        let src = "impl S { pub fn api(&self) { target(); } fn helper(&self) { other(); } }";
        assert!(ctx_at(src, "target").in_pub_fn);
        assert!(!ctx_at(src, "other").in_pub_fn);
    }

    #[test]
    fn closures_inherit_enclosing_fn() {
        let src = "pub fn f(v: Vec<u32>) { v.iter().map(|x| { target(x) }); }";
        assert!(ctx_at(src, "target").in_pub_fn);
    }

    #[test]
    fn allow_directive_parsing() {
        let lexed = lex(
            "// nmt-lint: allow(panic) — lock poisoning is unrecoverable\n\
             // nmt-lint: allow(wallclock): trace epoch\n\
             // nmt-lint: allow(slice-index)\n\
             // plain comment\n",
        );
        let d = allow_directives(&lexed.comments);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].rule, "panic");
        assert_eq!(d[0].reason, "lock poisoning is unrecoverable");
        assert_eq!(d[1].rule, "wallclock");
        assert_eq!(d[1].reason, "trace epoch");
        assert_eq!(d[2].rule, "slice-index");
        assert_eq!(d[2].reason, "");
    }

    #[test]
    fn malformed_directive_yields_empty_rule() {
        let lexed = lex("// nmt-lint: disable(panic)\n");
        let d = allow_directives(&lexed.comments);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "");
    }

    #[test]
    fn split_reason_continues_on_indented_comment_lines() {
        let lexed = lex("// nmt-lint: allow(panic) — the input is validated two\n\
             //   frames up, so the unwrap cannot fire; splitting the\n\
             //   justification keeps lines under the width limit\n\
             x.unwrap();\n");
        let d = allow_directives(&lexed.comments);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].end_line, 3);
        assert!(d[0].reason.starts_with("the input is validated"));
        assert!(d[0].reason.ends_with("width limit"));
    }

    #[test]
    fn unindented_comment_does_not_continue_a_directive() {
        let lexed = lex("// nmt-lint: allow(panic) — checked\n\
             // an ordinary comment, not a continuation\n");
        let d = allow_directives(&lexed.comments);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].end_line, 1);
        assert_eq!(d[0].reason, "checked");
    }
}
