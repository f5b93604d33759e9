//! A minimal Rust lexer — just enough structure for token-level lint rules.
//!
//! The offline build environment vendors every dependency (see
//! `shims/README.md`), so `syn`/`proc-macro2` are not available and the
//! lint pass carries its own lexer instead. It understands the parts of
//! the language that matter for span-accurate, comment-aware linting:
//! line and nested block comments, string/char/byte/raw-string literals,
//! lifetimes vs. char literals, numbers, identifiers and punctuation.
//! Every token records a 1-based line and column.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `unwrap`, ...).
    Ident,
    /// Lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// String literal (regular, raw or byte); `text` is the inner content.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// Single punctuation character (delimiters included).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// Identifier/literal text; for [`TokenKind::Punct`] the character.
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

impl Token {
    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }
}

/// A comment with its position (`text` excludes the `//` / `/* */` fences).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line where the comment starts.
    pub line: u32,
    /// Comment body.
    pub text: String,
}

/// The result of lexing one file: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lex `src` into tokens and comments. Never fails: malformed input
/// degenerates into punctuation tokens rather than an error, which is the
/// right behavior for a linter (the compiler owns syntax errors).
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match c {
            _ if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => {
                let mut text = String::new();
                cur.bump();
                cur.bump();
                while let Some(c) = cur.peek(0) {
                    if c == '\n' {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                out.comments.push(Comment { line, text });
            }
            '/' if cur.peek(1) == Some('*') => {
                let mut text = String::new();
                let mut depth = 1usize;
                cur.bump();
                cur.bump();
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(c), _) => {
                            text.push(c);
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment { line, text });
            }
            '"' => {
                out.tokens.push(lex_string(&mut cur, line, col));
            }
            'r' | 'b' if starts_raw_or_byte_literal(&cur) => {
                out.tokens.push(lex_prefixed_literal(&mut cur, line, col));
            }
            '\'' => {
                out.tokens.push(lex_quote(&mut cur, line, col));
            }
            _ if is_ident_start(c) => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text,
                    line,
                    col,
                });
            }
            _ if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if is_ident_continue(c) {
                        text.push(c);
                        cur.bump();
                        // Exponent sign: `1e-3`, `2.5E+7`.
                        if (c == 'e' || c == 'E')
                            && !text.starts_with("0x")
                            && matches!(cur.peek(0), Some('+') | Some('-'))
                            && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
                        {
                            text.push(cur.bump().unwrap_or('+'));
                        }
                    } else if c == '.' && cur.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                        // Decimal point, but not `..` range or method call.
                        text.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Num,
                    text,
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// Does the cursor sit at `r"`, `r#`, `b"`, `b'`, `br"` or `br#`?
fn starts_raw_or_byte_literal(cur: &Cursor) -> bool {
    match (cur.peek(0), cur.peek(1)) {
        (Some('r'), Some('"')) | (Some('r'), Some('#')) => {
            // `r#ident` is a raw identifier, not a raw string: require the
            // `#`s to be followed by a quote eventually.
            raw_hashes_then_quote(cur, 1)
        }
        (Some('b'), Some('"')) | (Some('b'), Some('\'')) => true,
        (Some('b'), Some('r')) => raw_hashes_then_quote(cur, 2),
        _ => false,
    }
}

fn raw_hashes_then_quote(cur: &Cursor, mut ahead: usize) -> bool {
    while cur.peek(ahead) == Some('#') {
        ahead += 1;
    }
    cur.peek(ahead) == Some('"')
}

/// Lex a literal starting with `r`/`b`/`br` (raw string, byte string or
/// byte char). The prefix characters are still pending at the cursor.
fn lex_prefixed_literal(cur: &mut Cursor, line: u32, col: u32) -> Token {
    // Consume `r` / `b` / `br`.
    let mut prefix = String::new();
    while matches!(cur.peek(0), Some('r') | Some('b')) && prefix.len() < 2 {
        if let Some(c) = cur.bump() {
            prefix.push(c);
        }
    }
    if prefix.ends_with('b') && cur.peek(0) == Some('\'') {
        return lex_quote(cur, line, col);
    }
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        hashes += 1;
        cur.bump();
    }
    if hashes > 0 || prefix.ends_with('r') {
        // Raw (byte) string: ends at `"` followed by `hashes` `#`s.
        cur.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = cur.peek(0) {
            if c == '"' && (1..=hashes).all(|k| cur.peek(k) == Some('#')) {
                cur.bump();
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
            text.push(c);
            cur.bump();
        }
        Token {
            kind: TokenKind::Str,
            text,
            line,
            col,
        }
    } else {
        // `b"..."`
        lex_string(cur, line, col)
    }
}

/// Lex a regular (escaped) string literal; the opening quote is pending.
fn lex_string(cur: &mut Cursor, line: u32, col: u32) -> Token {
    cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '"' => break,
            '\\' => {
                // Keep escapes verbatim; rules only pattern-match names.
                text.push(c);
                if let Some(e) = cur.bump() {
                    text.push(e);
                }
            }
            _ => text.push(c),
        }
    }
    Token {
        kind: TokenKind::Str,
        text,
        line,
        col,
    }
}

/// Lex a `'`-introduced token: lifetime or char literal. The quote is
/// pending at the cursor.
fn lex_quote(cur: &mut Cursor, line: u32, col: u32) -> Token {
    // The quote (or leading `b` was consumed by caller).
    cur.bump();
    // Lifetime: `'` identifier not closed by another `'` (`'a'` is a char).
    if cur.peek(0).is_some_and(is_ident_start) && cur.peek(1) != Some('\'') {
        let mut text = String::from("'");
        while let Some(c) = cur.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            cur.bump();
        }
        return Token {
            kind: TokenKind::Lifetime,
            text,
            line,
            col,
        };
    }
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '\'' => break,
            '\\' => {
                text.push(c);
                if let Some(e) = cur.bump() {
                    text.push(e);
                }
            }
            _ => text.push(c),
        }
    }
    Token {
        kind: TokenKind::Char,
        text,
        line,
        col,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        let toks = kinds("let x = a.b[3] + 0x1F;");
        assert_eq!(toks[0], (TokenKind::Ident, "let".to_string()));
        assert!(toks.contains(&(TokenKind::Num, "3".to_string())));
        assert!(toks.contains(&(TokenKind::Num, "0x1F".to_string())));
        assert!(toks.contains(&(TokenKind::Punct, "[".to_string())));
    }

    #[test]
    fn float_vs_range_vs_method() {
        assert_eq!(
            kinds("1.5 0..n 1.0f32"),
            vec![
                (TokenKind::Num, "1.5".to_string()),
                (TokenKind::Num, "0".to_string()),
                (TokenKind::Punct, ".".to_string()),
                (TokenKind::Punct, ".".to_string()),
                (TokenKind::Ident, "n".to_string()),
                (TokenKind::Num, "1.0f32".to_string()),
            ]
        );
        // Exponents with signs stay one token.
        assert_eq!(kinds("1e-3")[0], (TokenKind::Num, "1e-3".to_string()));
    }

    #[test]
    fn comments_are_separated() {
        let lexed = lex("a // line\n/* block /* nested */ end */ b");
        assert_eq!(lexed.tokens.len(), 2);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].text, " line");
        assert!(lexed.comments[1].text.contains("nested"));
    }

    #[test]
    fn strings_and_escapes() {
        let toks = kinds(r#"m.counter_add("a.b.c", 1); "esc\"aped""#);
        assert!(toks.contains(&(TokenKind::Str, "a.b.c".to_string())));
        assert!(toks.contains(&(TokenKind::Str, "esc\\\"aped".to_string())));
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r##"r#"raw "inner" body"# b"bytes" br"rawbytes""##);
        assert_eq!(toks[0], (TokenKind::Str, "raw \"inner\" body".to_string()));
        assert!(toks.contains(&(TokenKind::Str, "bytes".to_string())));
        assert!(toks.contains(&(TokenKind::Str, "rawbytes".to_string())));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(toks.contains(&(TokenKind::Lifetime, "'a".to_string())));
        assert!(toks.contains(&(TokenKind::Char, "x".to_string())));
        assert!(toks.contains(&(TokenKind::Char, "\\n".to_string())));
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("a\n  bb");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn unterminated_input_does_not_hang() {
        // Malformed code must still lex (linter runs on whatever is there).
        lex("/* never closed");
        lex("\"never closed");
        lex("r#\"never closed");
    }
}
