//! What the mediator keeps per statement text: the one bounded LRU both the
//! result cache and the plan cache instantiate, the lexically exact key
//! they share, and the plan cache's value — everything about a statement
//! that is a pure function of its text and of the resolver's answers
//! (DESIGN.md §4.4, "Plan once").

use crate::decompose::{self, Home, QueryPlan, TableResolver, TableTask};
use crate::error::CoreError;
use crate::federate;
use crate::scatter::{self, Branch};
use crate::Result;
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::plan::LogicalPlan;
use gridfed_storage::normalize_ident;
use std::collections::HashMap;
use std::sync::Arc;

/// Statements one mediator keeps planned. `table1_fed` issues 90 distinct
/// statements at the front mediator (its peer sees two forwarded texts); an
/// entry is 1.4–3.5 KiB of heap, so a full cache stays under 0.5 MiB.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 128;

/// Longest normalised statement text the plan cache retains. Longer ones —
/// in practice a forwarded sub-query carrying a bloom-filter hex literal,
/// whose text never repeats — are planned fresh every time.
pub(crate) const PLAN_TEXT_CEILING: usize = 1024;

/// Bounded LRU map keyed by statement text. Each entry carries the tick of
/// its last use; when the map is full, the entry with the smallest tick
/// goes. A linear min-scan is O(capacity) but the capacity is small (at
/// most a few hundred) and eviction only runs on insert-when-full, so it
/// is not worth an intrusive list here.
pub(crate) struct Lru<V> {
    capacity: usize,
    tick: u64,
    map: HashMap<String, (u64, V)>,
}

impl<V> Lru<V> {
    pub(crate) fn new(capacity: usize) -> Lru<V> {
        Lru {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(used, value)| {
            *used = tick;
            &*value
        })
    }

    /// Insert (or replace) a value, evicting least-recently-used entries
    /// if the map is at capacity. Returns how many entries were evicted.
    pub(crate) fn insert(&mut self, key: String, value: V) -> usize {
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
    pub(crate) fn remove(&mut self, key: &str) {
        self.map.remove(key);
    }

    /// Drop every entry.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(_, value)| value)
    }
}

/// The plan cache: planned statements by normalised text, shared out as
/// `Arc`s so that no lock is held while a query resolves, plans or scatters.
/// Always on, bounded two ways ([`PLAN_CACHE_CAPACITY`] entries, each under
/// [`PLAN_TEXT_CEILING`] bytes of text), and never invalidated: an entry is
/// only used while its stamp holds ([`PlannedStatement::is_current`]).
pub(crate) struct PlanCache(Lru<Arc<PlannedStatement>>);

impl PlanCache {
    pub(crate) fn new() -> PlanCache {
        PlanCache(Lru::new(PLAN_CACHE_CAPACITY))
    }

    pub(crate) fn get(&mut self, key: &str) -> Option<Arc<PlannedStatement>> {
        (key.len() <= PLAN_TEXT_CEILING)
            .then(|| self.0.get(key).cloned())
            .flatten()
    }

    /// Share out `planned`, keeping it as the plan for `key` (in place of
    /// any other) unless the text is over the ceiling. A residual plan holds
    /// none of the literals that were pushed down into the sub-queries, so
    /// statements that differ only in those — `… WHERE e.e_id < 17`, `< 18`
    /// — have equal ones: they are kept once and shared.
    pub(crate) fn insert(
        &mut self,
        key: &str,
        mut planned: PlannedStatement,
    ) -> Arc<PlannedStatement> {
        if key.len() > PLAN_TEXT_CEILING {
            return Arc::new(planned);
        }
        if let Some(residual) = &mut planned.residual {
            let kept = self.0.values().filter_map(|p| p.residual.as_ref());
            if let Some(same) = kept.into_iter().find(|kept| *kept == residual) {
                *residual = Arc::clone(same);
            }
        }
        let planned = Arc::new(planned);
        self.0.insert(key.to_string(), Arc::clone(&planned));
        planned
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.map.len()
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
pub(crate) fn statement_key(sql: &str) -> Option<String> {
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

/// One table of a resolved statement: the resolver's answers for it.
pub(crate) struct ResolvedTable {
    /// Normalised logical name.
    pub(crate) key: String,
    /// Where the table lives (replica already chosen).
    pub(crate) home: Home,
    /// Column names, when the table is registered locally.
    pub(crate) cols: Option<Vec<String>>,
    /// Data version of the chosen replica; `None` when the table has no
    /// version bookkeeping.
    pub(crate) version: Option<u64>,
    /// Live row count: the chosen replica's last measured count for a local
    /// table, the RLS-published count for a remote one. `None` when nothing
    /// has measured the table.
    pub(crate) row_count: Option<u64>,
}

/// Pre-resolved tables handed to the decomposer, unique by name, in the
/// statement's syntactic order. A handful per statement: probed linearly.
pub(crate) struct ResolvedTables {
    /// Epoch of the data dictionary the answers were read from.
    pub(crate) epoch: u64,
    pub(crate) tables: Vec<ResolvedTable>,
}

impl ResolvedTables {
    pub(crate) fn get(&self, logical: &str) -> Option<&ResolvedTable> {
        self.tables.iter().find(|t| t.key == logical)
    }
}

impl TableResolver for ResolvedTables {
    fn resolve(&self, logical: &str) -> Result<Home> {
        self.get(logical)
            .map(|t| t.home.clone())
            .ok_or_else(|| CoreError::TableNotFound(logical.to_string()))
    }

    fn columns_of(&self, logical: &str) -> Option<Vec<String>> {
        self.get(logical)?.cols.clone()
    }

    fn version_of(&self, logical: &str) -> Option<u64> {
        self.get(logical)?.version
    }

    fn row_count_of(&self, logical: &str) -> Option<u64> {
        self.get(logical)?.row_count
    }
}

/// Lower a plan to what the scatter runs: its sub-queries, and the residual
/// plan that integrates their partials. A single-database or forward-all
/// plan is one whole-statement task with nothing left to integrate.
pub(crate) fn lower(plan: QueryPlan) -> (Vec<TableTask>, Option<LogicalPlan>) {
    let whole_statement = |table: &str, home, subquery| TableTask {
        table: table.to_string(),
        home,
        subquery,
        version: None,
        est_rows: None,
        wave: 0,
        reductions: Vec::new(),
    };
    match plan {
        QueryPlan::SingleDatabase { location, stmt } => {
            let home = Home::Local(location);
            (vec![whole_statement("single", home, stmt)], None)
        }
        QueryPlan::ForwardAll { server_url, stmt } => {
            let home = Home::Remote { server_url };
            (vec![whole_statement("forwarded", home, stmt)], None)
        }
        QueryPlan::Federated {
            tasks, residual, ..
        } => (tasks, Some(residual)),
    }
}

/// The resolver answers one table of a planned statement was planned from.
#[derive(Debug, PartialEq)]
struct TableStamp {
    /// The table as the statement first spells it (what a later
    /// `TableNotFound` must name).
    name: String,
    /// The chosen home, as the index of the branch that fetches from it: a
    /// remote server's URL, or a local database's name — which, at one
    /// dictionary epoch, fixes the whole `TableLocation`.
    branch: usize,
    /// Live row count, for a federated plan. (The data version is an
    /// answer too, but only EXPLAIN prints it: nothing kept here reads it.)
    row_count: Option<u64>,
}

/// The observability half of a planned statement: what `stats.plan_shape`
/// and the `plan_nodes` metric family report for it. Both are functions of
/// the optimized plan's operator tree alone, which pushdown (columns: the
/// dictionary epoch) shapes and join reordering (row counts) does not — a
/// reordered chain of inner joins is rebuilt left-deep over the same scans.
#[derive(Debug, PartialEq)]
pub(crate) struct PlanShape {
    /// [`federate::plan_shape`] of the optimized plan.
    pub(crate) shape: String,
    /// How many nodes of each kind the optimized plan has, kinds in
    /// pre-order of first appearance: one `plan_nodes` update per kind.
    pub(crate) nodes: Vec<(&'static str, u64)>,
}

impl PlanShape {
    fn of(optimized: &LogicalPlan) -> PlanShape {
        fn kinds(plan: &LogicalPlan, out: &mut Vec<(&'static str, u64)>) {
            match out.iter_mut().find(|(kind, _)| *kind == plan.kind_name()) {
                Some((_, n)) => *n += 1,
                None => out.push((plan.kind_name(), 1)),
            }
            for child in plan.children() {
                kinds(child, out);
            }
        }
        let mut nodes = Vec::new();
        kinds(optimized, &mut nodes);
        PlanShape {
            shape: federate::plan_shape(optimized),
            nodes,
        }
    }
}

/// A statement planned once: `group_branches(lower(decompose::plan(..)))`
/// and the stamp of resolver answers it was computed from. Deliberately
/// compact — neither the parsed statement (a re-plan re-parses the text in
/// hand), nor the resolver's column lists, nor the optimized plan is kept.
///
/// The stamp is compared field by field against the answers of *this*
/// query's resolution, never hashed and never invalidated from outside: a
/// plan is reused only when every input `decompose::plan` read for it is
/// equal, so a stale plan cannot run. A whole-statement plan reads nothing
/// but the homes, so versions and row counts moving under it (every ingest
/// cycle of a live grid) do not re-plan it.
#[derive(Debug, PartialEq)]
pub(crate) struct PlannedStatement {
    epoch: u64,
    tables: Vec<TableStamp>,
    /// Table references in the statement, repeats included
    /// (`QueryStats::tables`).
    pub(crate) table_refs: usize,
    /// The scatter's branches, in gather order.
    pub(crate) branches: Vec<Branch>,
    /// The plan integrating their partials; `None` for a whole-statement
    /// plan.
    pub(crate) residual: Option<Arc<LogicalPlan>>,
    /// Present when planned with observability on.
    pub(crate) shape: Option<Box<PlanShape>>,
}

impl PlannedStatement {
    /// Plan `stmt` against `resolved`.
    pub(crate) fn plan(
        stmt: &SelectStmt,
        resolved: &ResolvedTables,
        with_shape: bool,
    ) -> Result<PlannedStatement> {
        let plan = decompose::plan(stmt, resolved)?;
        let shape = with_shape.then(|| {
            Box::new(match &plan {
                QueryPlan::Federated { optimized, .. } => PlanShape::of(optimized),
                _ => PlanShape::of(&decompose::optimized_plan(stmt, resolved)),
            })
        });
        let (tasks, residual) = lower(plan);
        let whole = residual.is_none();
        let branches = scatter::group_branches(tasks);
        let refs = stmt.table_refs();
        let tables = resolved
            .tables
            .iter()
            .map(|t| {
                let spelled = refs.iter().find(|r| normalize_ident(&r.name) == t.key);
                let home = scatter::home_key(&t.home);
                TableStamp {
                    name: spelled
                        .expect("resolved from these references")
                        .name
                        .clone(),
                    branch: branches
                        .iter()
                        .position(|b| b.key() == home)
                        .expect("every home has its branch"),
                    row_count: t.row_count.filter(|_| !whole),
                }
            })
            .collect();
        Ok(PlannedStatement {
            epoch: resolved.epoch,
            tables,
            table_refs: refs.len(),
            branches,
            residual: residual.map(Arc::new),
            shape,
        })
    }

    /// The statement's tables as first spelled, unique, in syntactic order
    /// — what a query served from this entry resolves.
    pub(crate) fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|t| t.name.as_str())
    }

    /// Whether the answers this entry was planned from are the answers
    /// `resolved` just gave.
    pub(crate) fn is_current(&self, resolved: &ResolvedTables) -> bool {
        let whole = self.residual.is_none();
        self.epoch == resolved.epoch
            && self.tables.len() == resolved.tables.len()
            && self.tables.iter().zip(&resolved.tables).all(|(was, now)| {
                self.branches[was.branch].key() == scatter::home_key(&now.home)
                    && (whole || was.row_count == now.row_count)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_sqlkit::lexer::tokenize;
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

    /// The property the plan cache stands on (a hit skips `parse_select`):
    /// texts with equal keys tokenize to equal token streams. Shown through
    /// the key as the class's representative — every text tokenizes exactly
    /// as its own key does, and a key is its own key.
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
        lru.remove("a");
        assert_eq!(lru.get("a"), None);
        lru.clear();
        assert_eq!(lru.get("c"), None);
    }
}
