//! SQL tokenizer: one scanning core (`Lexer`) yielding lexemes that borrow
//! the source text, and its two consumers — [`tokenize`], which collects
//! owned [`Token`]s for the parser, and [`shape_key`], which writes the
//! literal-blind key the workload monitor memoises parses under.

use std::fmt;

/// A SQL token. Keywords are case-insensitive and normalized to upper
/// case; identifiers keep their original (lowercased) spelling.
#[derive(Clone, PartialEq, Debug)]
pub enum Token {
    /// Keyword (SELECT, FROM, WHERE, …), upper-cased.
    Keyword(String),
    /// Identifier (table, column, alias), lower-cased.
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// String literal (single quotes).
    String(String),
    /// Punctuation / operators.
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Slash,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "OR", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "ON",
    "GROUP", "ORDER", "BY", "HAVING", "LIMIT", "AS", "IN", "EXISTS", "NOT", "BETWEEN", "LIKE",
    "ASC", "DESC", "DISTINCT", "UNION", "ALL", "NULL", "IS", "CASE", "WHEN", "THEN", "ELSE", "END",
];

/// `word` upper-cased into one integer, so a keyword lookup compares
/// integers rather than strings. Injective on words of one to eight bytes
/// (no word byte is zero); 0 for a longer word, which is no keyword.
#[expect(clippy::indexing_slicing, reason = "i runs below word.len()")]
const fn pack(word: &[u8]) -> u64 {
    if word.len() > 8 {
        return 0;
    }
    let mut packed = 0u64;
    let mut i = 0;
    while i < word.len() {
        packed = packed << 8 | word[i].to_ascii_uppercase() as u64;
        i += 1;
    }
    packed
}

/// [`KEYWORDS`], packed.
#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated: k runs below KEYWORDS.len(), and a bad index fails the build"
)]
const PACKED_KEYWORDS: [u64; KEYWORDS.len()] = {
    let mut packed = [0; KEYWORDS.len()];
    let mut k = 0;
    while k < KEYWORDS.len() {
        packed[k] = pack(KEYWORDS[k].as_bytes());
        assert!(packed[k] != 0, "a keyword longer than eight bytes");
        k += 1;
    }
    packed
};

/// The keyword table's index and text for `word`, in any case.
fn keyword(word: &str) -> Option<(u8, &'static str)> {
    let packed = pack(word.as_bytes());
    PACKED_KEYWORDS
        .iter()
        .zip(KEYWORDS)
        .zip(0..)
        .find(|((p, _), _)| **p == packed)
        .map(|((_, text), id)| (id, *text))
}

/// Punctuation / operators, in [`Token`] order. The discriminant is the
/// lexeme's `shape_key` byte.
#[derive(Clone, Copy, Debug)]
#[repr(u8)]
pub(crate) enum Punct {
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Eq,
    /// `!=` and `<>` alike.
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Slash,
}

/// One lexeme, borrowing its text from the source.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Lexeme<'src> {
    /// Keyword: its index in the keyword table and its upper-case text.
    Keyword {
        id: u8,
        text: &'static str,
    },
    /// Identifier, as spelled in the source (any case).
    Ident(&'src str),
    /// Numeric literal.
    Number(f64),
    /// String literal, without its quotes.
    String(&'src str),
    Punct(Punct),
}

impl Lexeme<'_> {
    /// The owned token the parser reads.
    fn to_token(self) -> Token {
        match self {
            Self::Keyword { text, .. } => Token::Keyword(text.to_string()),
            Self::Ident(word) => Token::Ident(word.to_ascii_lowercase()),
            Self::Number(n) => Token::Number(n),
            Self::String(s) => Token::String(s.to_string()),
            Self::Punct(p) => match p {
                Punct::Comma => Token::Comma,
                Punct::Dot => Token::Dot,
                Punct::LParen => Token::LParen,
                Punct::RParen => Token::RParen,
                Punct::Star => Token::Star,
                Punct::Eq => Token::Eq,
                Punct::Neq => Token::Neq,
                Punct::Lt => Token::Lt,
                Punct::Le => Token::Le,
                Punct::Gt => Token::Gt,
                Punct::Ge => Token::Ge,
                Punct::Plus => Token::Plus,
                Punct::Minus => Token::Minus,
                Punct::Slash => Token::Slash,
            },
        }
    }
}

/// Lexing failure with byte position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexError {
    pub position: usize,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for LexError {}

/// The scanning core: the source's lexemes in order. After the first
/// error it yields nothing more.
#[derive(Debug)]
pub(crate) struct Lexer<'src> {
    src: &'src str,
    pos: usize,
}

impl<'src> Lexer<'src> {
    pub(crate) fn new(src: &'src str) -> Self {
        Self { src, pos: 0 }
    }

    fn fail(&mut self, position: usize, message: String) -> LexError {
        self.pos = self.src.len();
        LexError { position, message }
    }
}

impl<'src> Iterator for Lexer<'src> {
    type Item = Result<Lexeme<'src>, LexError>;

    #[expect(
        clippy::indexing_slicing,
        reason = "bytes.get(i) returned a byte, so i < bytes.len()"
    )]
    fn next(&mut self) -> Option<Self::Item> {
        let src = self.src;
        let bytes = src.as_bytes();
        loop {
            let i = self.pos;
            let c = *bytes.get(i)? as char;
            let next = bytes.get(i + 1).copied();
            let (lexeme, len) = match c {
                c if c.is_whitespace() => {
                    self.pos += 1;
                    continue;
                }
                '-' if next == Some(b'-') => {
                    // Line comment.
                    self.pos = bytes[i..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |n| i + n);
                    continue;
                }
                ',' => (Lexeme::Punct(Punct::Comma), 1),
                '.' => (Lexeme::Punct(Punct::Dot), 1),
                '(' => (Lexeme::Punct(Punct::LParen), 1),
                ')' => (Lexeme::Punct(Punct::RParen), 1),
                '*' => (Lexeme::Punct(Punct::Star), 1),
                '+' => (Lexeme::Punct(Punct::Plus), 1),
                '/' => (Lexeme::Punct(Punct::Slash), 1),
                '-' => (Lexeme::Punct(Punct::Minus), 1),
                '=' => (Lexeme::Punct(Punct::Eq), 1),
                '!' if next == Some(b'=') => (Lexeme::Punct(Punct::Neq), 2),
                '<' => match next {
                    Some(b'=') => (Lexeme::Punct(Punct::Le), 2),
                    Some(b'>') => (Lexeme::Punct(Punct::Neq), 2),
                    _ => (Lexeme::Punct(Punct::Lt), 1),
                },
                '>' if next == Some(b'=') => (Lexeme::Punct(Punct::Ge), 2),
                '>' => (Lexeme::Punct(Punct::Gt), 1),
                '\'' => {
                    let Some(n) = bytes[i + 1..].iter().position(|&b| b == b'\'') else {
                        return Some(Err(self.fail(i, "unterminated string literal".into())));
                    };
                    (Lexeme::String(&src[i + 1..i + 1 + n]), n + 2)
                }
                c if c.is_ascii_digit() => {
                    let len = run_len(&bytes[i..], |b| {
                        b.is_ascii_digit() || b == b'.' || b == b'e'
                    });
                    let text = &src[i..i + len];
                    match text.parse::<f64>() {
                        Ok(n) => (Lexeme::Number(n), len),
                        Err(_) => return Some(Err(self.fail(i, format!("bad number `{text}`")))),
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let len = run_len(&bytes[i..], |b| b.is_ascii_alphanumeric() || b == b'_');
                    let word = &src[i..i + len];
                    let lexeme = match keyword(word) {
                        Some((id, text)) => Lexeme::Keyword { id, text },
                        None => Lexeme::Ident(word),
                    };
                    (lexeme, len)
                }
                other => return Some(Err(self.fail(i, format!("unexpected character `{other}`")))),
            };
            self.pos = i + len;
            return Some(Ok(lexeme));
        }
    }
}

/// Length of the leading run of `bytes` that satisfies `keep`.
fn run_len(bytes: &[u8], keep: impl Fn(u8) -> bool) -> usize {
    bytes.iter().position(|&b| !keep(b)).unwrap_or(bytes.len())
}

/// Tokenize SQL text.
pub fn tokenize(sql: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(sql).map(|l| l.map(Lexeme::to_token)).collect()
}

/// Key bytes of [`shape_key`]: a [`Punct`] is its discriminant (< 0x10), a
/// keyword `KEYWORD + index`, a literal its kind byte alone, and an
/// identifier `IDENT`, its lower-cased bytes, then `END` (never an
/// identifier byte). Every lexeme's bytes are thus self-delimiting, so the
/// key is an injective function of the literal-blind lexeme sequence.
mod tag {
    pub const NUMBER: u8 = 0x10;
    pub const STRING: u8 = 0x11;
    pub const IDENT: u8 = 0x12;
    pub const END: u8 = 0x00;
    pub const KEYWORD: u8 = 0x40;
}

/// Index of `BETWEEN` in the keyword table.
const BETWEEN: u8 = 20;

/// Write the *shape key* of `sql` into `key` (cleared first) and return it:
/// each lexeme's kind, a keyword's id, an identifier's lower-cased bytes,
/// punctuation — and for a Number or String literal only its kind, never its
/// value. `None` for text that does not lex and for text containing the
/// keyword `BETWEEN`.
///
/// **Invariant: equal keys ⇒ [`crate::parse_query`] results equal except
/// `Query::name`.** Both texts lex (a key exists), and their token sequences
/// are equal up to the *values* of Number and String tokens: the key is
/// injective in everything else (see `tag`), and whitespace, comments,
/// keyword case and `!=`/`<>` never reach a token. Then:
///
/// * `parser.rs` branches only on token kinds, keyword text and identifier
///   text — a literal's value is never compared, only copied into a
///   `Value` (`LIMIT`'s count is matched by kind and dropped). So both
///   parses fail at the same token with the same message, or both yield the
///   same `SelectStmt` up to the numbers and strings inside its `Value`s.
/// * `resolve.rs` reads a `Value` in exactly one place, `Between`'s
///   `(h − l)/d` — which is why `BETWEEN` has no key. `Cmp` drops `value`,
///   `InList` reads only `values.len()`, and the rest never sees a literal.
///   Everything else it reads (tables, aliases, columns, operators,
///   aggregate counts, the group-by/order-by tail) is equal, so tables,
///   joins, selectivities and `cpu_factor` come out bit-equal — or both
///   texts are rejected alike (a final `validate` error names the query).
/// * `Query::name` is [`crate::query_name`] of the raw text, the one part
///   that differs.
///
/// Allocation-free once `key` has grown to the longest key seen.
pub fn shape_key<'k>(sql: &str, key: &'k mut Vec<u8>) -> Option<&'k [u8]> {
    key.clear();
    for lexeme in Lexer::new(sql) {
        match lexeme.ok()? {
            Lexeme::Keyword { id: BETWEEN, .. } => return None,
            Lexeme::Keyword { id, .. } => key.push(tag::KEYWORD + id),
            Lexeme::Ident(word) => {
                key.push(tag::IDENT);
                key.extend(word.bytes().map(|b| b.to_ascii_lowercase()));
                key.push(tag::END);
            }
            Lexeme::Number(_) => key.push(tag::NUMBER),
            Lexeme::String(_) => key.push(tag::STRING),
            Lexeme::Punct(p) => key.push(p as u8),
        }
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let t = tokenize("SELECT a.x, b.y FROM a, b WHERE a.k = b.k").unwrap();
        assert_eq!(t[0], Token::Keyword("SELECT".into()));
        assert!(t.contains(&Token::Comma));
        assert!(t.contains(&Token::Eq));
        assert!(t.contains(&Token::Ident("a".into())));
    }

    #[test]
    fn case_insensitive_keywords_preserved_idents() {
        let t = tokenize("select X from T_Name").unwrap();
        assert_eq!(t[0], Token::Keyword("SELECT".into()));
        assert_eq!(t[1], Token::Ident("x".into()));
        assert_eq!(t[3], Token::Ident("t_name".into()));
    }

    #[test]
    fn numbers_strings_operators() {
        let t = tokenize("WHERE a >= 10.5 AND b <> 'x y' AND c <= 3").unwrap();
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::Neq));
        assert!(t.contains(&Token::Le));
        assert!(t.contains(&Token::Number(10.5)));
        assert!(t.contains(&Token::String("x y".into())));
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("SELECT x -- comment here\nFROM t").unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn unterminated_string_errors() {
        let e = tokenize("WHERE a = 'oops").unwrap_err();
        assert!(e.message.contains("unterminated"));
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(tokenize("SELECT §").is_err());
    }

    #[test]
    fn errors_keep_their_positions_and_messages() {
        let e = tokenize("SELECT 'a' , 1.2.3").unwrap_err();
        assert_eq!((e.position, e.message.as_str()), (13, "bad number `1.2.3`"));
        let e = tokenize("SELECT x FROM t WHERE a = 'open").unwrap_err();
        assert_eq!(
            (e.position, e.message.as_str()),
            (26, "unterminated string literal")
        );
        // A multi-byte character fails at its lead byte, named as Latin-1.
        let e = tokenize("a é").unwrap_err();
        assert_eq!(
            (e.position, e.message.as_str()),
            (2, "unexpected character `Ã`")
        );
    }

    #[test]
    fn every_keyword_is_found_in_any_case_and_between_is_its_entry() {
        for (id, k) in (0..).zip(KEYWORDS) {
            assert_eq!(keyword(&k.to_ascii_lowercase()), Some((id, *k)));
        }
        assert_eq!(keyword("BETWEEN"), Some((BETWEEN, "BETWEEN")));
        assert_eq!(keyword("selects"), None);
        assert_eq!(keyword("distinctly"), None);
    }
}
