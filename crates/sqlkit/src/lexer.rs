//! The one reader of SQL text.
//!
//! Accepts the identifier-quoting styles of all four vendors the paper
//! federates: `"ansi"` (Oracle), `` `backtick` `` (MySQL), `[bracket]`
//! (MS-SQL), and bare identifiers (SQLite accepts all). The mediator can
//! therefore parse a query written for any of the backends.
//!
//! [`scan`] decides where every token starts and ends: it yields each
//! lexeme's kind and source span, allocating nothing. Every other reading
//! of SQL text is a fold over it — [`tokenize`] for the parser,
//! [`cache_key`] for the plan and result caches, [`fingerprint_text`] for
//! statement profiling, and the vendors' dialect check — so none of them
//! can disagree with the parser about what a token is (DESIGN.md §4.4).

use crate::error::SqlError;
use crate::Result;
use std::ops::Range;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or bare identifier (original case preserved).
    Ident(String),
    /// Quoted identifier (quotes stripped, case preserved exactly).
    QuotedIdent(String),
    /// String literal (quotes stripped, embedded `''` unescaped).
    StringLit(String),
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    // punctuation
    /// `,`.
    Comma,
    /// `.`.
    Dot,
    /// `*`.
    Star,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `=`.
    Eq,
    /// `<>` / `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// `;`.
    Semicolon,
}

impl Token {
    /// True if the token is the given keyword (case-insensitive); quoted
    /// identifiers are never keywords.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("`{s}`"),
            Token::QuotedIdent(s) => format!("quoted `{s}`"),
            Token::StringLit(s) => format!("string '{s}'"),
            Token::IntLit(i) => i.to_string(),
            Token::FloatLit(x) => x.to_string(),
            other => format!("{other:?}"),
        }
    }
}

/// What a lexeme is. Its text is the source span [`scan`] yields with it.
#[derive(Debug, Clone, PartialEq)]
pub enum Lexeme {
    /// Keyword or bare identifier.
    Word,
    /// Quoted identifier, by its opening delimiter: `"`, `` ` `` or `[`.
    Quoted(u8),
    /// String literal; its span holds the quotes and any doubled `''`.
    Str,
    /// Integer literal and its value.
    Int(i64),
    /// Floating-point literal and its value.
    Float(f64),
    /// Punctuation or an operator: one of the [`Token`] variants that carry
    /// no data.
    Punct(Token),
}

/// An iterator over one text's lexemes: see [`scan`].
#[derive(Debug, Clone)]
pub struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

/// Scan `src`: each lexeme's kind and source span, in order. Whitespace
/// (space, tab, CR and LF only), `-- line` and `/* block */` comments lie
/// between lexemes and are skipped. The first error is the last item.
pub fn scan(src: &str) -> Scanner<'_> {
    Scanner { src, pos: 0 }
}

impl Iterator for Scanner<'_> {
    type Item = Result<(Lexeme, Range<usize>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let scanned = match self.skip_gap() {
            Ok(()) if self.pos == self.src.len() => return None,
            Ok(()) => self.lexeme(self.pos),
            Err(e) => Err(e),
        };
        Some(match scanned {
            Ok((kind, end)) => {
                let span = self.pos..end;
                self.pos = end;
                Ok((kind, span))
            }
            Err(e) => {
                self.pos = self.src.len();
                Err(e)
            }
        })
    }
}

impl Scanner<'_> {
    /// Move past whitespace and comments to the next lexeme (or the end).
    fn skip_gap(&mut self) -> Result<()> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            let rest = &bytes[self.pos..];
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'-' if rest.starts_with(b"--") => {
                    self.pos += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                }
                // The closer is looked for past the opener: `/*/` is open.
                b'/' if rest.starts_with(b"/*") => {
                    match rest[2..].windows(2).position(|w| w == b"*/") {
                        Some(at) => self.pos += at + 4,
                        None => return Err(lex_error(self.pos, "unterminated block comment")),
                    }
                }
                _ => break,
            }
        }
        Ok(())
    }

    /// The lexeme starting at `start` and the offset just past it.
    fn lexeme(&self, start: usize) -> Result<(Lexeme, usize)> {
        let bytes = self.src.as_bytes();
        let punct = |token, len| Ok((Lexeme::Punct(token), start + len));
        match (bytes[start], bytes.get(start + 1)) {
            (b',', _) => punct(Token::Comma, 1),
            (b'.', _) => punct(Token::Dot, 1),
            (b'*', _) => punct(Token::Star, 1),
            (b'(', _) => punct(Token::LParen, 1),
            (b')', _) => punct(Token::RParen, 1),
            (b'+', _) => punct(Token::Plus, 1),
            (b'-', _) => punct(Token::Minus, 1),
            (b'/', _) => punct(Token::Slash, 1),
            (b'%', _) => punct(Token::Percent, 1),
            (b';', _) => punct(Token::Semicolon, 1),
            (b'=', _) => punct(Token::Eq, 1),
            (b'!', Some(b'=')) | (b'<', Some(b'>')) => punct(Token::NotEq, 2),
            (b'<', Some(b'=')) => punct(Token::LtEq, 2),
            (b'<', _) => punct(Token::Lt, 1),
            (b'>', Some(b'=')) => punct(Token::GtEq, 2),
            (b'>', _) => punct(Token::Gt, 1),
            (b'\'', _) => Ok((Lexeme::Str, string_end(bytes, start)?)),
            (open @ (b'"' | b'`' | b'['), _) => {
                let close = if open == b'[' { b']' } else { open };
                Ok((Lexeme::Quoted(open), delimited_end(bytes, start, close)?))
            }
            (b'0'..=b'9', _) => number(self.src, start),
            (b'a'..=b'z' | b'A'..=b'Z' | b'_', _) => {
                let word = bytes[start..]
                    .iter()
                    .take_while(|&&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'$')
                    .count();
                Ok((Lexeme::Word, start + word))
            }
            _ => Err(lex_error(
                start,
                format!(
                    "unexpected character `{}`",
                    self.src[start..].chars().next().unwrap_or_default()
                ),
            )),
        }
    }
}

fn lex_error(pos: usize, message: impl Into<String>) -> SqlError {
    SqlError::Lex {
        pos,
        message: message.into(),
    }
}

/// The end of the `'…'` literal opening at `start`: a doubled `''` is one
/// quote inside it.
fn string_end(bytes: &[u8], start: usize) -> Result<usize> {
    let mut i = start + 1;
    while let Some(at) = bytes[i..].iter().position(|&b| b == b'\'') {
        i += at + 1;
        if bytes.get(i) != Some(&b'\'') {
            return Ok(i);
        }
        i += 1;
    }
    Err(lex_error(start, "unterminated string literal"))
}

/// The end of the delimited identifier opening at `start`: the first
/// `close` after it, with at least one byte between.
fn delimited_end(bytes: &[u8], start: usize, close: u8) -> Result<usize> {
    match bytes[start + 1..].iter().position(|&b| b == close) {
        Some(0) => Err(lex_error(start, "empty delimited identifier")),
        Some(len) => Ok(start + len + 2),
        None => Err(lex_error(
            start,
            format!(
                "unterminated delimited identifier (expected `{}`)",
                close as char
            ),
        )),
    }
}

/// An integer or float literal starting at `start`, and its end.
fn number(src: &str, start: usize) -> Result<(Lexeme, usize)> {
    let bytes = src.as_bytes();
    let digits = |from: usize| {
        from + bytes[from..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count()
    };
    let mut end = digits(start);
    let mut is_float = false;
    if bytes.get(end) == Some(&b'.') && bytes.get(end + 1).is_some_and(u8::is_ascii_digit) {
        is_float = true;
        end = digits(end + 1);
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
        if bytes.get(end + 1 + sign).is_some_and(u8::is_ascii_digit) {
            is_float = true;
            end = digits(end + 1 + sign);
        }
    }
    let text = &src[start..end];
    let kind = if is_float {
        Lexeme::Float(
            text.parse()
                .map_err(|_| lex_error(start, format!("bad float literal `{text}`")))?,
        )
    } else {
        Lexeme::Int(
            text.parse()
                .map_err(|_| lex_error(start, format!("integer literal `{text}` out of range")))?,
        )
    };
    Ok((kind, end))
}

/// Tokenize `input` into a vector of tokens: the [`scan`], each lexeme
/// given its value (quotes stripped, a string's `''` unescaped).
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    scan(input)
        .map(|lexeme| {
            let (kind, span) = lexeme?;
            let text = &input[span];
            Ok(match kind {
                Lexeme::Word => Token::Ident(text.to_string()),
                Lexeme::Quoted(_) => Token::QuotedIdent(unquote(text).to_string()),
                Lexeme::Str => Token::StringLit(unquote(text).replace("''", "'")),
                Lexeme::Int(i) => Token::IntLit(i),
                Lexeme::Float(x) => Token::FloatLit(x),
                Lexeme::Punct(token) => token,
            })
        })
        .collect()
}

/// A quoted lexeme's text without its one-byte delimiters.
fn unquote(text: &str) -> &str {
    &text[1..text.len() - 1]
}

/// Spell `sql` again lexeme by lexeme: `emit` writes each one, and a
/// single space stands wherever the scan skipped whitespace or a comment
/// between two lexemes. `None` when the text does not scan.
fn respell(sql: &str, mut emit: impl FnMut(&mut String, Lexeme, &str)) -> Option<String> {
    let mut out = String::with_capacity(sql.len());
    let mut end = 0;
    for lexeme in scan(sql) {
        let (kind, span) = lexeme.ok()?;
        if span.start > end && !out.is_empty() {
            out.push(' ');
        }
        end = span.end;
        emit(&mut out, kind, &sql[span]);
    }
    Some(out)
}

/// The key the mediator's plan and result caches share (DESIGN.md §4.4):
/// every lexeme's source text verbatim, one space for each gap between
/// two of them. `None` when the text does not lex — it is never cached.
/// Texts with equal keys tokenize to equal token streams: a space
/// separates two lexemes exactly as the whitespace or comment it stands
/// for did, so a key scans to the lexemes of its text.
pub fn cache_key(sql: &str) -> Option<String> {
    respell(sql, |out, _, text| out.push_str(text))
}

/// The literal-normalised text a statement profiles under (DESIGN.md
/// §4.8): identifiers — quoted ones with their delimiters — ASCII-
/// lowercased, string and numeric literals `?`, punctuation verbatim, one
/// space for each gap, as in [`cache_key`]. So `WHERE e_id < 5` and
/// `where  E_ID < 500` share a fingerprint, and two differently quoted
/// tables do not. A text that does not lex profiles under itself.
pub fn fingerprint_text(sql: &str) -> String {
    respell(sql, |out, kind, text| match kind {
        Lexeme::Str | Lexeme::Int(_) | Lexeme::Float(_) => out.push('?'),
        Lexeme::Word | Lexeme::Quoted(_) => {
            let at = out.len();
            out.push_str(text);
            out[at..].make_ascii_lowercase();
        }
        Lexeme::Punct(_) => out.push_str(text),
    })
    .unwrap_or_else(|| sql.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn basic_select_tokens() {
        let t = tokenize("SELECT a, b FROM t WHERE x >= 1.5").unwrap();
        assert_eq!(t[0], Token::Ident("SELECT".into()));
        assert!(t.contains(&Token::GtEq));
        assert!(t.contains(&Token::FloatLit(1.5)));
    }

    #[test]
    fn all_vendor_quoting_styles() {
        let t = tokenize(r#"SELECT "a", `b`, [c] FROM t"#).unwrap();
        let quoted: Vec<_> = t
            .iter()
            .filter_map(|tok| match tok {
                Token::QuotedIdent(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(quoted, vec!["a", "b", "c"]);
    }

    #[test]
    fn string_escaping() {
        let t = tokenize("SELECT 'it''s'").unwrap();
        assert_eq!(t[1], Token::StringLit("it's".into()));
    }

    #[test]
    fn comments_are_skipped() {
        let t = tokenize("SELECT a -- trailing\n FROM /* inline */ t").unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn numbers_int_float_exponent() {
        let t = tokenize("1 2.5 3e2 4E-1").unwrap();
        assert_eq!(
            t,
            vec![
                Token::IntLit(1),
                Token::FloatLit(2.5),
                Token::FloatLit(300.0),
                Token::FloatLit(0.4),
            ]
        );
    }

    #[test]
    fn neq_both_spellings() {
        assert_eq!(tokenize("<>").unwrap(), vec![Token::NotEq]);
        assert_eq!(tokenize("!=").unwrap(), vec![Token::NotEq]);
    }

    #[test]
    fn dotted_qualified_name() {
        let t = tokenize("t1.col").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("t1".into()),
                Token::Dot,
                Token::Ident("col".into())
            ]
        );
    }

    #[test]
    fn keyword_detection_is_case_insensitive() {
        let t = tokenize("select").unwrap();
        assert!(t[0].is_kw("SELECT"));
        let q = tokenize("\"select\"").unwrap();
        assert!(!q[0].is_kw("SELECT"));
    }

    #[test]
    fn utf8_in_strings() {
        let t = tokenize("SELECT 'μ-tuple'").unwrap();
        assert_eq!(t[1], Token::StringLit("μ-tuple".into()));
    }

    #[test]
    fn lex_errors_keep_their_positions_and_messages() {
        for (sql, pos, message) in [
            ("SELECT /* oops", 7, "unterminated block comment"),
            ("a /*/", 2, "unterminated block comment"),
            ("SELECT 'oops", 7, "unterminated string literal"),
            ("SELECT \"\" FROM t", 7, "empty delimited identifier"),
            (
                "SELECT [a FROM t",
                7,
                "unterminated delimited identifier (expected `]`)",
            ),
            (
                "x = 99999999999999999999",
                4,
                "integer literal `99999999999999999999` out of range",
            ),
            ("SELECT ^", 7, "unexpected character `^`"),
            ("a ! b", 2, "unexpected character `!`"),
            ("SELECT é FROM t", 7, "unexpected character `é`"),
        ] {
            assert_eq!(
                tokenize(sql),
                Err(SqlError::Lex {
                    pos,
                    message: message.into()
                }),
                "{sql}"
            );
            // The scan ends at its error.
            assert!(scan(sql).last().expect("an item").is_err(), "{sql}");
        }
    }

    #[test]
    fn scan_yields_kinds_and_spans() {
        let sql = "SELECT [a b], 'it''s' /* c */ FROM t--x\nWHERE n>=1.5e3";
        let lexemes: Vec<(Lexeme, &str)> = scan(sql)
            .map(|l| l.map(|(kind, span)| (kind, &sql[span])))
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(
            lexemes,
            vec![
                (Lexeme::Word, "SELECT"),
                (Lexeme::Quoted(b'['), "[a b]"),
                (Lexeme::Punct(Token::Comma), ","),
                (Lexeme::Str, "'it''s'"),
                (Lexeme::Word, "FROM"),
                (Lexeme::Word, "t"),
                (Lexeme::Word, "WHERE"),
                (Lexeme::Word, "n"),
                (Lexeme::Punct(Token::GtEq), ">="),
                (Lexeme::Float(1500.0), "1.5e3"),
            ]
        );
    }

    #[test]
    fn cache_key_normalization_preserves_quoted_literals() {
        assert_eq!(
            cache_key("  SELECT  a FROM t WHERE s = 'x   y'  ").as_deref(),
            Some("SELECT a FROM t WHERE s = 'x   y'")
        );
        // Two queries differing only inside a literal stay distinct.
        assert_ne!(
            cache_key("SELECT a FROM t WHERE s = 'x  y'"),
            cache_key("SELECT a FROM t WHERE s = 'x y'")
        );
    }

    #[test]
    fn cache_key_preserves_quoted_identifiers_and_foreign_whitespace() {
        for (open, close) in [('"', '"'), ('`', '`'), ('[', ']')] {
            let one = format!("SELECT {open}a b{close}  FROM t");
            let two = format!("SELECT {open}a  b{close} FROM t");
            assert_eq!(
                cache_key(&one).expect("lexes"),
                format!("SELECT {open}a b{close} FROM t")
            );
            assert_ne!(cache_key(&one), cache_key(&two));
        }
        // Only what the lexer skips is whitespace: a vertical tab is a lex
        // error, so it may not share a key with a statement that runs.
        assert_ne!(cache_key("SELECT\u{b}a"), cache_key("SELECT a"));
    }

    #[test]
    fn key_keeps_a_line_comments_end() {
        // The comment swallows the rest of ITS line, no more.
        let one_line = "SELECT e_id FROM t WHERE e_id < 3 -- c1 AND e_id < 2";
        let two_lines = "SELECT e_id FROM t WHERE e_id < 3 -- c1\n AND e_id < 2";
        assert_eq!(
            cache_key(one_line).as_deref(),
            Some("SELECT e_id FROM t WHERE e_id < 3")
        );
        assert_eq!(
            cache_key(two_lines).as_deref(),
            Some("SELECT e_id FROM t WHERE e_id < 3 AND e_id < 2")
        );
        // Comments separate tokens; comment markers inside quotes are text.
        assert_eq!(cache_key("1--x\n2").as_deref(), Some("1 2"));
        assert_eq!(cache_key("a/* b */c /**/ d").as_deref(), Some("a c d"));
        assert_eq!(
            cache_key("a - -b '--' \"/*\"").as_deref(),
            Some("a - -b '--' \"/*\"")
        );
    }

    #[test]
    fn text_that_cannot_lex_has_no_key() {
        for sql in [
            "SELECT 'abc",
            "SELECT \"a",
            "SELECT `a",
            "SELECT [a",
            "a /* b",
            "a /*/",
            "SELECT ^",
            "SELECT \"\"",
            "SELECT\u{b}a",
            "SELECT 99999999999999999999",
        ] {
            assert_eq!(cache_key(sql), None, "{sql}");
            assert!(tokenize(sql).is_err(), "{sql}");
            assert_eq!(fingerprint_text(sql), sql);
        }
    }

    /// The property the mediator's plan cache stands on (a hit skips
    /// parsing): texts with equal keys tokenize to equal token streams.
    /// Shown through the key as the class's representative — every text
    /// that lexes has a key and tokenizes exactly as its key does, and a
    /// key is its own key; a text that does not lex has none. A text
    /// profiles under the same fingerprint text as its key.
    #[test]
    fn equal_keys_mean_equal_token_streams() {
        const FRAGMENTS: &[&str] = &[
            " ", "  ", "\t", "\n", "\r\n", "\u{b}", "\u{a0}", "--", "-- c", "-", "/*", "*/", "/",
            "*", "'", "''", "\"", "`", "[", "]", "a", "b1", "SELECT", "1", "2.5", "1e3", ",", ".",
            "(", ")", "<", ">", "=", "<=", "<>", "!=", "!", ";", "%", "+", "é", "#",
        ];
        let mut rng = StdRng::seed_from_u64(0x6b65_7973);
        let mut keyed = 0;
        for _ in 0..20_000 {
            let n = rng.gen_range(1..12);
            let text: String = (0..n)
                .map(|_| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())])
                .collect();
            let tokens = tokenize(&text).ok();
            match cache_key(&text) {
                None => {
                    assert_eq!(tokens, None, "no key, yet it lexes: {text:?}");
                    assert_eq!(fingerprint_text(&text), text);
                }
                Some(key) => {
                    keyed += 1;
                    assert!(tokens.is_some(), "a key, yet it does not lex: {text:?}");
                    assert_eq!(tokenize(&key).ok(), tokens, "{text:?} vs its key {key:?}");
                    assert_eq!(cache_key(&key).as_ref(), Some(&key), "{text:?}");
                    assert_eq!(fingerprint_text(&text), fingerprint_text(&key), "{text:?}");
                }
            }
        }
        // The generator reaches both sides of every branch above.
        assert!((2_000..18_000).contains(&keyed), "keyed {keyed}");
    }

    #[test]
    fn fingerprint_strips_literals_and_case() {
        assert_eq!(
            fingerprint_text("SELECT e_id  FROM Events WHERE e_id < 500"),
            "select e_id from events where e_id < ?"
        );
        assert_eq!(
            fingerprint_text("SELECT * FROM t WHERE tag = 'ecal' AND x = 1.5e3"),
            "select * from t where tag = ? and x = ?"
        );
        // Digits inside identifiers survive; doubled quotes stay one literal.
        assert_eq!(
            fingerprint_text("SELECT id FROM pad_0042 WHERE s = 'it''s'"),
            "select id from pad_0042 where s = ?"
        );
    }

    #[test]
    fn two_quoted_tables_are_two_statements() {
        // What a peer is sent: every name quoted. Only the literal varies.
        let conditions = fingerprint_text(r#"SELECT * FROM "run_conditions""#);
        let detectors = fingerprint_text(r#"SELECT * FROM "detector_summary""#);
        assert_eq!(conditions, r#"select * from "run_conditions""#);
        assert_ne!(conditions, detectors);
        assert_eq!(
            fingerprint_text(r#"SELECT "E_Id" FROM "Runs 2005" WHERE ("e_id" < 25)"#),
            fingerprint_text(r#"select "e_id"  from "runs 2005" where ("E_ID" < 7)"#),
        );
        // Two adjacent quoted names stay adjacent; a text with an unclosed
        // name does not lex and profiles under itself.
        assert_eq!(
            fingerprint_text(r#"SELECT "a""B" FROM "t1" WHERE s = '"'"#),
            r#"select "a""b" from "t1" where s = ?"#
        );
        let unclosed = r#"SELECT "a""B" FROM "t1" WHERE s = '"' OR "x"#;
        assert_eq!(fingerprint_text(unclosed), unclosed);
    }

    #[test]
    fn literal_varied_executions_share_a_fingerprint() {
        let a = fingerprint_text("SELECT e_id FROM events WHERE e_id < 5");
        let b = fingerprint_text("SELECT e_id FROM events WHERE e_id < 500");
        assert_eq!(a, b);
        // Every vendor's quoting lowercases inside its delimiters; comments
        // are gaps.
        assert_eq!(
            fingerprint_text("SELECT `Run ID`, [Det] /* x */ FROM T -- y"),
            "select `run id`, [det] from t"
        );
    }
}
