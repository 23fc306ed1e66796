//! What a statement cache is built from, on either side of the wire: the
//! one bounded LRU every cache of the workspace instantiates — the
//! mediator's plan and result caches and each vendor server's prepared
//! statements — and the lexically exact key the mediator's caches share
//! (DESIGN.md §4.4, "Plan once").

use std::collections::HashMap;

/// Bounded LRU map keyed by statement text. Each entry carries the tick of
/// its last use; when the map is full, the entry with the smallest tick
/// goes. A linear min-scan is O(capacity) but the capacity is small (at
/// most a few hundred) and eviction only runs on insert-when-full, so it
/// is not worth an intrusive list here.
#[derive(Debug)]
pub struct Lru<V> {
    capacity: usize,
    tick: u64,
    map: HashMap<String, (u64, V)>,
}

impl<V> Lru<V> {
    /// An empty map holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Lru<V> {
        Lru {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(used, value)| {
            *used = tick;
            &*value
        })
    }

    /// Insert (or replace) a value, evicting least-recently-used entries
    /// if the map is at capacity. Returns how many entries were evicted.
    pub fn insert(&mut self, key: String, value: V) -> usize {
        self.tick += 1;
        let mut evicted = 0;
        while self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&lru);
            evicted += 1;
        }
        self.map.insert(key, (self.tick, value));
        evicted
    }

    /// Drop one entry.
    pub fn remove(&mut self, key: &str) {
        self.map.remove(key);
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The values held, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(_, value)| value)
    }
}

/// Canonical form of a SQL string for cache keying, or `None` when the text
/// must never be cached (an unterminated quote or block comment — it cannot
/// lex). Exact with respect to the lexer: two texts with equal keys
/// tokenize to equal token streams, because the key only ever drops what
/// the lexer drops — leading and trailing whitespace, all but one of a run
/// of whitespace between tokens, and comments, each of which separates
/// tokens exactly as the single space that replaces it does. A `--` comment
/// goes together with the newline that ends it. Everything inside `'…'`,
/// `"…"`, `` `…` `` and `[…]` is copied verbatim, and only the four
/// characters the lexer skips count as whitespace.
pub fn statement_key(sql: &str) -> Option<String> {
    let bytes = sql.as_bytes();
    let mut out = String::with_capacity(sql.len());
    let mut pending_space = false;
    let mut i = 0;
    while i < bytes.len() {
        let rest = &sql[i..];
        let skipped = match bytes[i] {
            b' ' | b'\t' | b'\r' | b'\n' => 1,
            b'-' if rest.starts_with("--") => rest.find('\n').map_or(rest.len(), |nl| nl + 1),
            b'/' if rest.starts_with("/*") => rest[2..].find("*/")? + 4,
            _ => 0,
        };
        if skipped > 0 {
            pending_space = true;
            i += skipped;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        // A quoted run is one token whatever it holds. A doubled `''`
        // inside a string closes and reopens it with nothing in between,
        // which copies the same bytes.
        let close = match bytes[i] {
            quote @ (b'\'' | b'"' | b'`') => Some(quote as char),
            b'[' => Some(']'),
            _ => None,
        };
        let len = match close {
            Some(close) => rest[1..].find(close)? + 2,
            None => rest.chars().next().map_or(1, char::len_utf8),
        };
        out.push_str(&rest[..len]);
        i += len;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cache_key_normalization_preserves_quoted_literals() {
        assert_eq!(
            statement_key("  SELECT  a FROM t WHERE s = 'x   y'  ").as_deref(),
            Some("SELECT a FROM t WHERE s = 'x   y'")
        );
        // Two queries differing only inside a literal stay distinct.
        assert_ne!(
            statement_key("SELECT a FROM t WHERE s = 'x  y'"),
            statement_key("SELECT a FROM t WHERE s = 'x y'")
        );
    }

    #[test]
    fn cache_key_preserves_quoted_identifiers_and_foreign_whitespace() {
        for (open, close) in [('"', '"'), ('`', '`'), ('[', ']')] {
            let one = format!("SELECT {open}a b{close}  FROM t");
            let two = format!("SELECT {open}a  b{close} FROM t");
            assert_eq!(
                statement_key(&one).expect("lexes"),
                format!("SELECT {open}a b{close} FROM t")
            );
            assert_ne!(statement_key(&one), statement_key(&two));
        }
        // Only what the lexer skips is whitespace: a vertical tab is a lex
        // error, so it may not share a key with a statement that runs.
        assert_ne!(statement_key("SELECT\u{b}a"), statement_key("SELECT a"));
    }

    #[test]
    fn key_keeps_a_line_comments_end() {
        // The comment swallows the rest of ITS line, no more.
        let one_line = "SELECT e_id FROM t WHERE e_id < 3 -- c1 AND e_id < 2";
        let two_lines = "SELECT e_id FROM t WHERE e_id < 3 -- c1\n AND e_id < 2";
        assert_eq!(
            statement_key(one_line).as_deref(),
            Some("SELECT e_id FROM t WHERE e_id < 3")
        );
        assert_eq!(
            statement_key(two_lines).as_deref(),
            Some("SELECT e_id FROM t WHERE e_id < 3 AND e_id < 2")
        );
        // Comments separate tokens; comment markers inside quotes are text.
        assert_eq!(statement_key("1--x\n2").as_deref(), Some("1 2"));
        assert_eq!(statement_key("a/* b */c /**/ d").as_deref(), Some("a c d"));
        assert_eq!(
            statement_key("a - -b '--' \"/*\"").as_deref(),
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
        ] {
            assert_eq!(statement_key(sql), None, "{sql}");
            assert!(tokenize(sql).is_err(), "{sql}");
        }
    }

    /// The property the mediator's plan cache stands on (a hit skips
    /// parsing): texts with equal keys tokenize to equal token streams.
    /// Shown through the key as the class's representative — every text
    /// tokenizes exactly as its own key does, and a key is its own key.
    #[test]
    fn equal_keys_mean_equal_token_streams() {
        const FRAGMENTS: &[&str] = &[
            " ", "  ", "\t", "\n", "\r\n", "\u{b}", "\u{a0}", "--", "-- c", "-", "/*", "*/", "/",
            "*", "'", "''", "\"", "`", "[", "]", "a", "b1", "SELECT", "1", "2.5", "1e3", ",", ".",
            "(", ")", "<", ">", "=", "<=", "<>", "!=", "!", ";", "%", "+", "é", "#",
        ];
        let mut rng = StdRng::seed_from_u64(0x6b65_7973);
        let (mut keyed, mut lexed) = (0, 0);
        for _ in 0..20_000 {
            let n = rng.gen_range(1..12);
            let text: String = (0..n)
                .map(|_| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())])
                .collect();
            let tokens = tokenize(&text).ok();
            match statement_key(&text) {
                None => assert_eq!(tokens, None, "no key, yet it lexes: {text:?}"),
                Some(key) => {
                    keyed += 1;
                    lexed += usize::from(tokens.is_some());
                    assert_eq!(tokenize(&key).ok(), tokens, "{text:?} vs its key {key:?}");
                    assert_eq!(statement_key(&key).as_ref(), Some(&key), "{text:?}");
                }
            }
        }
        // The generator reaches both sides of every branch above.
        assert!(
            keyed > 5_000 && lexed > 2_000,
            "keyed {keyed}, lexed {lexed}"
        );
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut lru = Lru::new(2);
        assert_eq!(lru.insert("a".into(), 1), 0);
        assert_eq!(lru.insert("b".into(), 2), 0);
        assert_eq!(lru.get("a"), Some(&1));
        // Replacing a present key displaces nothing…
        assert_eq!(lru.insert("a".into(), 10), 0);
        // …a new key displaces the least recently used one.
        assert_eq!(lru.insert("c".into(), 3), 1);
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("a"), Some(&10));
        assert_eq!(lru.get("c"), Some(&3));
        assert_eq!(lru.values().count(), 2);
        lru.remove("a");
        assert_eq!(lru.get("a"), None);
        lru.clear();
        assert_eq!(lru.get("c"), None);
        assert_eq!(lru.values().count(), 0);
    }
}
