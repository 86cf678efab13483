//! A minimal from-scratch Rust lexer, in the same spirit as the hand-written
//! SQL lexer in `lpa-sql`: no external dependencies, built for static
//! analysis rather than compilation.
//!
//! The lexer's one hard requirement is *never misclassifying text*: `unwrap`
//! inside a string literal or a comment must not look like a method call.
//! It therefore handles every Rust literal form that can contain arbitrary
//! text — plain/raw/byte strings, char literals (disambiguated from
//! lifetimes), and nested block comments — and drops comments entirely.

use std::fmt;

/// Token classes relevant to lint rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `match`, `_`, `HashMap`, ...).
    Ident,
    /// Lifetime (`'a`) — kept distinct so `'a` never parses as a char.
    Lifetime,
    /// Integer literal, including suffixed forms (`3usize`).
    Int,
    /// Float literal, including suffixed forms (`0.0f32`).
    Float,
    /// String-ish literal (plain, raw, byte, byte-raw, char, byte-char).
    Literal,
    /// A single punctuation character (`.`, `!`, `{`, ...).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Lexing failure with source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on line {}", self.message, self.line)
    }
}

impl std::error::Error for LexError {}

/// Is a dot-free number text a float literal (`1e9`, `1e-3`, `3f32`)?
/// Integer suffixes like `3usize` must stay Int even though `usize`
/// contains an `e`.
fn dotless_float(text: &str) -> bool {
    if text.starts_with("0x")
        || text.starts_with("0X")
        || text.starts_with("0b")
        || text.starts_with("0o")
    {
        return false;
    }
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit() || b == b'_');
    let body = text
        .strip_suffix("f32")
        .or_else(|| text.strip_suffix("f64"))
        .unwrap_or(text);
    if body.len() != text.len() && digits(body) {
        return true; // `3f32`
    }
    if let Some(pos) = body.find(['e', 'E']) {
        let (mant, exp) = body.split_at(pos);
        let exp = exp[1..].trim_start_matches(['+', '-']);
        return digits(mant) && digits(exp); // `1e9`, `1e-3`
    }
    false
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

/// Tokenize Rust source. Comments and whitespace are dropped.
pub fn tokenize(source: &str) -> Result<Vec<Tok>, LexError> {
    let mut lx = Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while let Some(tok) = lx.next_token()? {
        out.push(tok);
    }
    Ok(out)
}

impl<'a> Lexer<'a> {
    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied();
        if let Some(b) = b {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        b
    }

    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> &'a [u8] {
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if pred(b) {
                self.bump();
            } else {
                break;
            }
        }
        self.src.get(start..self.pos).unwrap_or_default()
    }

    /// The source bytes `start..end`, as (lossy) text.
    fn text(&self, start: usize, end: usize) -> String {
        String::from_utf8_lossy(self.src.get(start..end).unwrap_or_default()).into_owned()
    }

    fn next_token(&mut self) -> Result<Option<Tok>, LexError> {
        // Skip whitespace and comments.
        loop {
            self.take_while(|b| b.is_ascii_whitespace());
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'/')) => {
                    self.take_while(|b| b != b'\n');
                }
                (Some(b'/'), Some(b'*')) => self.block_comment()?,
                _ => break,
            }
        }
        let line = self.line;
        let Some(b) = self.peek(0) else {
            return Ok(None);
        };

        // Identifiers, keywords, and prefixed literals (r"", b"", br#""#).
        if b == b'_' || b.is_ascii_alphabetic() {
            if let Some(tok) = self.try_prefixed_literal(line)? {
                return Ok(Some(tok));
            }
            let text = self.take_while(|b| b == b'_' || b.is_ascii_alphanumeric());
            return Ok(Some(Tok {
                kind: TokKind::Ident,
                text: String::from_utf8_lossy(text).into_owned(),
                line,
            }));
        }

        // Numbers.
        if b.is_ascii_digit() {
            return self.number(line).map(Some);
        }

        // Strings.
        if b == b'"' {
            return self.string_literal(line).map(Some);
        }

        // Char literal vs lifetime.
        if b == b'\'' {
            return self.char_or_lifetime(line).map(Some);
        }

        // Everything else: single punctuation char.
        self.bump();
        Ok(Some(Tok {
            kind: TokKind::Punct,
            text: (b as char).to_string(),
            line,
        }))
    }

    /// `r"..."`, `r#"..."#`, `b"..."`, `br##"..."##`, `b'x'` — literals that
    /// start with an identifier-looking prefix.
    fn try_prefixed_literal(&mut self, line: u32) -> Result<Option<Tok>, LexError> {
        let b0 = self.peek(0);
        let (skip, next) = match (b0, self.peek(1), self.peek(2)) {
            (Some(b'r'), Some(b'"' | b'#'), _) => (1, self.peek(1)),
            (Some(b'b'), Some(b'"'), _) => (1, self.peek(1)),
            (Some(b'b'), Some(b'\''), _) => (1, self.peek(1)),
            (Some(b'b'), Some(b'r'), Some(b'"' | b'#')) => (2, self.peek(2)),
            _ => return Ok(None),
        };
        // `r#ident` is a raw identifier, not a raw string.
        if next == Some(b'#') {
            let mut k = skip;
            while self.peek(k) == Some(b'#') {
                k += 1;
            }
            if self.peek(k) != Some(b'"') {
                return Ok(None);
            }
        }
        for _ in 0..skip {
            self.bump();
        }
        match next {
            Some(b'"' | b'#') => {
                if self.peek(0) == Some(b'"') {
                    // Raw with zero hashes or plain byte string.
                    if self.src.get(self.pos.wrapping_sub(1)) == Some(&b'b') {
                        self.string_literal(line).map(Some)
                    } else {
                        self.raw_string(line, 0).map(Some)
                    }
                } else {
                    let hashes = self.take_while(|b| b == b'#').len();
                    self.raw_string(line, hashes).map(Some)
                }
            }
            Some(b'\'') => self.char_or_lifetime(line).map(Some),
            _ => Ok(None),
        }
    }

    fn block_comment(&mut self) -> Result<(), LexError> {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        loop {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                    if depth == 0 {
                        return Ok(());
                    }
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => return Err(self.err("unterminated block comment")),
            }
        }
    }

    fn number(&mut self, line: u32) -> Result<Tok, LexError> {
        let start = self.pos;
        let radix_prefix =
            self.peek(0) == Some(b'0') && matches!(self.peek(1), Some(b'x' | b'X' | b'b' | b'o'));
        self.take_number_body(radix_prefix);
        let mut is_float = false;
        // A '.' continues the number only if followed by a digit (3.5);
        // `1..n` and `x.1` tuple access must not absorb the dot.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            is_float = true;
            self.bump();
            self.take_number_body(radix_prefix);
        }
        let text = self.text(start, self.pos);
        if !is_float {
            is_float = dotless_float(&text);
        }
        Ok(Tok {
            kind: if is_float {
                TokKind::Float
            } else {
                TokKind::Int
            },
            text,
            line,
        })
    }

    /// Consume digits, underscores, and suffix letters; after an exponent
    /// `e`/`E` (decimal literals only), also consume a sign when a digit
    /// follows, so `1e-3` lexes as one token but `0.5+1.0` does not absorb
    /// the `+`.
    fn take_number_body(&mut self, radix_prefix: bool) {
        while let Some(b) = self.peek(0) {
            if !(b.is_ascii_alphanumeric() || b == b'_') {
                break;
            }
            self.bump();
            if !radix_prefix
                && (b == b'e' || b == b'E')
                && matches!(self.peek(0), Some(b'+' | b'-'))
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                self.bump();
            }
        }
    }

    fn string_literal(&mut self, line: u32) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        let start = self.pos;
        loop {
            match self.peek(0) {
                Some(b'"') => {
                    let text = self.text(start, self.pos);
                    self.bump();
                    return Ok(Tok {
                        kind: TokKind::Literal,
                        text,
                        line,
                    });
                }
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                }
                None => return Err(self.err("unterminated string literal")),
            }
        }
    }

    fn raw_string(&mut self, line: u32, hashes: usize) -> Result<Tok, LexError> {
        if self.peek(0) != Some(b'"') {
            return Err(self.err("malformed raw string"));
        }
        self.bump();
        let start = self.pos;
        loop {
            match self.peek(0) {
                Some(b'"') => {
                    let end = self.pos;
                    let mut ok = true;
                    for k in 0..hashes {
                        if self.peek(1 + k) != Some(b'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        self.bump();
                        for _ in 0..hashes {
                            self.bump();
                        }
                        return Ok(Tok {
                            kind: TokKind::Literal,
                            text: self.text(start, end),
                            line,
                        });
                    }
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                }
                None => return Err(self.err("unterminated raw string")),
            }
        }
    }

    /// Disambiguate `'a'` / `'\n'` (char literals) from `'a` / `'static`
    /// (lifetimes): a char literal closes with `'` after one logical char.
    fn char_or_lifetime(&mut self, line: u32) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        if self.peek(0) == Some(b'\\') {
            // Escaped char literal: consume escape then closing quote.
            self.bump();
            self.bump();
            // Multi-char escapes (\u{...}, \x41) run until the quote.
            while let Some(b) = self.peek(0) {
                if b == b'\'' {
                    break;
                }
                self.bump();
            }
            if self.bump() != Some(b'\'') {
                return Err(self.err("unterminated char literal"));
            }
            return Ok(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line,
            });
        }
        // Unescaped: one UTF-8 char then either a closing quote (char
        // literal) or identifier continuation (lifetime).
        let start = self.pos;
        let text = self.take_while(|b| b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80);
        if self.peek(0) == Some(b'\'') && self.pos - start <= 4 && {
            let s = String::from_utf8_lossy(text);
            s.chars().count() == 1
        } {
            self.bump();
            return Ok(Tok {
                kind: TokKind::Literal,
                text: String::from_utf8_lossy(text).into_owned(),
                line,
            });
        }
        if text.is_empty() {
            // `'('` style single punctuation char literal.
            self.bump();
            if self.bump() != Some(b'\'') {
                return Err(self.err("unterminated char literal"));
            }
            return Ok(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line,
            });
        }
        Ok(Tok {
            kind: TokKind::Lifetime,
            text: String::from_utf8_lossy(text).into_owned(),
            line,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .expect("lexes")
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_calls() {
        let toks = kinds("x.unwrap()");
        assert_eq!(toks[0], (TokKind::Ident, "x".to_string()));
        assert_eq!(toks[1], (TokKind::Punct, ".".to_string()));
        assert_eq!(toks[2], (TokKind::Ident, "unwrap".to_string()));
    }

    #[test]
    fn strings_hide_contents() {
        let toks = kinds(r#"let s = "call .unwrap() now";"#);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokKind::Ident || t != "unwrap"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = kinds(r##"let s = r#"panic!("inside")"#; x"##);
        let idents: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        // The `r` prefix is consumed into the literal; the body is opaque.
        assert_eq!(idents, vec!["let", "s", "x"]);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Literal && t.contains("panic")));
    }

    #[test]
    fn comments_are_dropped() {
        let toks = kinds("a // line .unwrap()\nb /* block .unwrap() */ c");
        let texts: Vec<_> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
        let lines: Vec<u32> = tokenize("a // x\nb /* y\n */ c")
            .expect("lexes")
            .iter()
            .map(|t| t.line)
            .collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("x /* outer /* inner */ still comment */ y");
        let idents: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, vec!["x", "y"]);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'y'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Literal && t == "y"));
    }

    #[test]
    fn float_suffixes_visible() {
        let toks = kinds("let x = 0.0f32 + 1e9 + 3usize;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Float && t == "0.0f32"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Float && t == "1e9"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Int && t == "3usize"));
    }

    #[test]
    fn ranges_do_not_absorb_dots() {
        let toks = kinds("for i in 0..n {}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Int && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "n"));
    }

    #[test]
    fn line_numbers_track() {
        let toks = tokenize("a\nb\n\nc").expect("lexes");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
