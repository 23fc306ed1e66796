//! Continuous statement profiling — a `pg_stat_statements` analogue.
//!
//! Vaniachine's LHC-grid operations experience is that point-in-time
//! counters are not enough to operate a database grid: you need to know
//! *which statements* consume it, across executions, after the fact. This
//! module aggregates every execution under a **fingerprint** — the pair of
//! literal-normalized SQL text and optimized plan shape — so `WHERE e_id <
//! 5` and `WHERE e_id < 500` profile as one statement, while the same text
//! planned differently (e.g. after a replica moved) profiles separately.
//!
//! Per fingerprint the store keeps calls, errors, cache hits, row counts, a
//! fixed-bucket latency histogram (p50/p95/p99 without per-sample storage),
//! and per-plan-node time attribution. Retention is **top-k by call
//! count**: when a new fingerprint would exceed the cap, the
//! least-called (oldest on ties) entry is evicted, so memory stays bounded
//! while the statements that matter survive.

use crate::metrics::{Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default top-k retention cap of the statement store.
pub const DEFAULT_STATEMENT_CAPACITY: usize = 128;

/// Literal-normalize SQL text: `'…'` strings and numeric literals become
/// `?`, whitespace collapses to single spaces, and everything else is
/// lowercased — so trivially different renderings of the same statement
/// shape share a fingerprint. A `"…"` run is a quoted identifier, not a
/// literal (a forwarded sub-query names its table that way): it stays, in
/// its quotes, digits and spaces included.
pub fn normalize_statement(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        match c {
            '\'' | '"' => {
                // Consume the quoted run (doubled quotes escape).
                let ident = c == '"';
                out.push(if ident { c } else { '?' });
                while let Some(n) = chars.next() {
                    let escaped = n == c && chars.next_if_eq(&c).is_some();
                    if ident {
                        out.push(n.to_ascii_lowercase());
                        out.extend(escaped.then_some(c));
                    }
                    if n == c && !escaped {
                        break;
                    }
                }
            }
            '0'..='9' => {
                // A number mid-identifier (pad_0042) is part of the name;
                // a free-standing numeric literal collapses to `?`.
                let in_ident = out
                    .chars()
                    .last()
                    .is_some_and(|p| p.is_ascii_alphanumeric() || p == '_');
                if in_ident {
                    out.push(c);
                    while chars.peek().is_some_and(|n| n.is_ascii_digit()) {
                        out.push(chars.next().expect("peeked"));
                    }
                } else {
                    while chars
                        .peek()
                        .is_some_and(|n| n.is_ascii_digit() || *n == '.' || *n == 'e' || *n == 'E')
                    {
                        chars.next();
                    }
                    out.push('?');
                }
            }
            _ => out.push(c.to_ascii_lowercase()),
        }
    }
    out
}

/// Stable 64-bit FNV-1a fingerprint of (normalized SQL, plan shape). The
/// NUL separator keeps `("a", "bc")` and `("ab", "c")` distinct.
pub fn fingerprint(normalized_sql: &str, plan_shape: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in normalized_sql
        .bytes()
        .chain(std::iter::once(0u8))
        .chain(plan_shape.bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One plan node's (or pipeline phase's) contribution to one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeContribution {
    /// Node label — `phase:<name>` for mediator pipeline phases,
    /// `node:<physical label>` for profiled residual-plan nodes.
    pub node: String,
    /// Time attributed to the node this execution, microseconds.
    pub us: u64,
    /// Rows the node produced this execution.
    pub rows: u64,
}

/// One execution's contribution to the profile store.
#[derive(Debug, Clone, Default)]
pub struct StatementExec {
    /// Literal-normalized SQL ([`normalize_statement`]).
    pub normalized_sql: String,
    /// Compact optimized-plan shape rendering.
    pub plan_shape: String,
    /// End-to-end virtual latency of the execution.
    pub latency_us: u64,
    /// Rows returned to the caller.
    pub rows_returned: u64,
    /// Partial-result rows fetched from backends.
    pub rows_fetched: u64,
    /// Served from the result cache.
    pub cache_hit: bool,
    /// The execution failed.
    pub error: bool,
    /// Virtual-clock reading at completion.
    pub now_us: u64,
    /// Per-node time attribution for this execution.
    pub nodes: Vec<NodeContribution>,
}

#[derive(Debug, Default)]
struct NodeStat {
    calls: u64,
    us: u64,
    rows: u64,
}

#[derive(Debug)]
struct Entry {
    sql: String,
    plan_shape: String,
    calls: u64,
    errors: u64,
    cache_hits: u64,
    rows_returned: u64,
    rows_fetched: u64,
    total_us: u64,
    first_us: u64,
    last_us: u64,
    latency: Histogram,
    nodes: HashMap<String, NodeStat>,
}

/// Aggregated per-node attribution in a profile snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfileStat {
    pub node: String,
    pub calls: u64,
    pub us: u64,
    pub rows: u64,
}

/// A point-in-time copy of one statement's aggregate profile.
#[derive(Debug, Clone)]
pub struct StatementProfile {
    pub fingerprint: u64,
    pub sql: String,
    pub plan_shape: String,
    pub calls: u64,
    pub errors: u64,
    pub cache_hits: u64,
    pub rows_returned: u64,
    pub rows_fetched: u64,
    pub total_us: u64,
    pub first_us: u64,
    pub last_us: u64,
    pub latency: HistogramSnapshot,
    /// Per-node attribution, most expensive node first.
    pub nodes: Vec<NodeProfileStat>,
}

/// The bounded per-mediator statement store.
#[derive(Debug)]
pub struct StatementProfiles {
    capacity: AtomicUsize,
    entries: Mutex<HashMap<u64, Entry>>,
}

impl Default for StatementProfiles {
    fn default() -> Self {
        StatementProfiles::new(DEFAULT_STATEMENT_CAPACITY)
    }
}

impl StatementProfiles {
    pub fn new(capacity: usize) -> StatementProfiles {
        StatementProfiles {
            capacity: AtomicUsize::new(capacity.max(1)),
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The live top-k cap.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Change the top-k cap; excess entries are evicted least-called
    /// first immediately.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        while entries.len() > capacity {
            evict_coldest(&mut entries);
        }
    }

    /// Profiled fingerprints currently retained.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Drop every profile.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Fold one execution into its fingerprint's aggregate; returns the
    /// fingerprint. A new fingerprint past the cap evicts the
    /// least-called existing entry (top-k retention).
    pub fn record(&self, exec: &StatementExec) -> u64 {
        let fp = fingerprint(&exec.normalized_sql, &exec.plan_shape);
        let mut entries = self.entries.lock();
        let capacity = self.capacity();
        if !entries.contains_key(&fp) {
            while entries.len() >= capacity {
                evict_coldest(&mut entries);
            }
        }
        let entry = entries.entry(fp).or_insert_with(|| Entry {
            sql: exec.normalized_sql.clone(),
            plan_shape: exec.plan_shape.clone(),
            calls: 0,
            errors: 0,
            cache_hits: 0,
            rows_returned: 0,
            rows_fetched: 0,
            total_us: 0,
            first_us: exec.now_us,
            last_us: exec.now_us,
            latency: Histogram::default(),
            nodes: HashMap::new(),
        });
        entry.calls += 1;
        entry.errors += exec.error as u64;
        entry.cache_hits += exec.cache_hit as u64;
        entry.rows_returned += exec.rows_returned;
        entry.rows_fetched += exec.rows_fetched;
        entry.total_us += exec.latency_us;
        entry.last_us = exec.now_us;
        entry.latency.observe(exec.latency_us);
        for node in &exec.nodes {
            let stat = entry.nodes.entry(node.node.clone()).or_default();
            stat.calls += 1;
            stat.us += node.us;
            stat.rows += node.rows;
        }
        fp
    }

    /// Snapshot one fingerprint's profile.
    pub fn get(&self, fingerprint: u64) -> Option<StatementProfile> {
        self.entries
            .lock()
            .get(&fingerprint)
            .map(|e| profile_of(fingerprint, e))
    }

    /// Snapshot every retained profile, most total time first.
    pub fn snapshot(&self) -> Vec<StatementProfile> {
        let entries = self.entries.lock();
        let mut out: Vec<StatementProfile> =
            entries.iter().map(|(fp, e)| profile_of(*fp, e)).collect();
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.sql.cmp(&b.sql)));
        out
    }
}

/// Evict the least-called entry (oldest `last_us` on ties).
fn evict_coldest(entries: &mut HashMap<u64, Entry>) {
    if let Some(&fp) = entries
        .iter()
        .min_by_key(|(_, e)| (e.calls, e.last_us))
        .map(|(fp, _)| fp)
    {
        entries.remove(&fp);
    }
}

fn profile_of(fingerprint: u64, e: &Entry) -> StatementProfile {
    let mut nodes: Vec<NodeProfileStat> = e
        .nodes
        .iter()
        .map(|(node, s)| NodeProfileStat {
            node: node.clone(),
            calls: s.calls,
            us: s.us,
            rows: s.rows,
        })
        .collect();
    nodes.sort_by(|a, b| b.us.cmp(&a.us).then(a.node.cmp(&b.node)));
    StatementProfile {
        fingerprint,
        sql: e.sql.clone(),
        plan_shape: e.plan_shape.clone(),
        calls: e.calls,
        errors: e.errors,
        cache_hits: e.cache_hits,
        rows_returned: e.rows_returned,
        rows_fetched: e.rows_fetched,
        total_us: e.total_us,
        first_us: e.first_us,
        last_us: e.last_us,
        latency: e.latency.snapshot(),
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_strips_literals_and_case() {
        assert_eq!(
            normalize_statement("SELECT e_id  FROM Events WHERE e_id < 500"),
            "select e_id from events where e_id < ?"
        );
        assert_eq!(
            normalize_statement("SELECT * FROM t WHERE tag = 'ecal' AND x = 1.5e3"),
            "select * from t where tag = ? and x = ?"
        );
        // Digits inside identifiers survive; doubled quotes stay one literal.
        assert_eq!(
            normalize_statement("SELECT id FROM pad_0042 WHERE s = 'it''s'"),
            "select id from pad_0042 where s = ?"
        );
    }

    #[test]
    fn two_quoted_tables_are_two_statements() {
        // What a peer is sent: every name quoted. Only the literal varies.
        let conditions = normalize_statement(r#"SELECT * FROM "run_conditions""#);
        let detectors = normalize_statement(r#"SELECT * FROM "detector_summary""#);
        assert_eq!(conditions, r#"select * from "run_conditions""#);
        assert_ne!(
            fingerprint(&conditions, "scan"),
            fingerprint(&detectors, "scan")
        );
        assert_eq!(
            normalize_statement(r#"SELECT "E_Id" FROM "Runs 2005" WHERE ("e_id" < 25)"#),
            normalize_statement(r#"select "e_id"  from "runs 2005" where ("E_ID" < 7)"#),
        );
        // Doubled quotes stay inside the name; an unclosed run ends the text.
        assert_eq!(
            normalize_statement(r#"SELECT "a""B" FROM "t1" WHERE s = '"' OR "x"#),
            r#"select "a""b" from "t1" where s = ? or "x"#
        );
    }

    #[test]
    fn literal_varied_executions_share_a_fingerprint() {
        let a = normalize_statement("SELECT e_id FROM events WHERE e_id < 5");
        let b = normalize_statement("SELECT e_id FROM events WHERE e_id < 500");
        assert_eq!(fingerprint(&a, "scan"), fingerprint(&b, "scan"));
        assert_ne!(fingerprint(&a, "scan"), fingerprint(&a, "join(scan,scan)"));
        assert_ne!(fingerprint("a", "bc"), fingerprint("ab", "c"));
    }

    fn exec(sql: &str, latency_us: u64, now_us: u64) -> StatementExec {
        StatementExec {
            normalized_sql: normalize_statement(sql),
            plan_shape: "scan".into(),
            latency_us,
            rows_returned: 3,
            rows_fetched: 10,
            now_us,
            nodes: vec![NodeContribution {
                node: "phase:execute".into(),
                us: latency_us / 2,
                rows: 10,
            }],
            ..StatementExec::default()
        }
    }

    #[test]
    fn aggregates_calls_latency_and_nodes() {
        let store = StatementProfiles::new(8);
        let fp1 = store.record(&exec("SELECT x FROM t WHERE x < 1", 400, 10));
        let fp2 = store.record(&exec("SELECT x FROM t WHERE x < 99", 80_000, 20));
        assert_eq!(fp1, fp2);
        let p = store.get(fp1).expect("profiled");
        assert_eq!(p.calls, 2);
        assert_eq!(p.rows_returned, 6);
        assert_eq!(p.total_us, 80_400);
        assert_eq!(p.latency.count, 2);
        assert!(p.latency.quantile_us(0.50) <= 500);
        assert!(p.latency.quantile_us(0.99) >= 50_000);
        assert_eq!(p.nodes.len(), 1);
        assert_eq!(p.nodes[0].calls, 2);
        assert_eq!(p.nodes[0].us, 200 + 40_000);
        assert_eq!(p.first_us, 10);
        assert_eq!(p.last_us, 20);
    }

    #[test]
    fn top_k_retention_keeps_the_hot_statement() {
        let store = StatementProfiles::new(2);
        for _ in 0..5 {
            store.record(&exec("SELECT x FROM hot WHERE x < 1", 100, 1));
        }
        store.record(&exec("SELECT x FROM warm WHERE x < 1", 100, 2));
        store.record(&exec("SELECT x FROM warm WHERE x < 2", 100, 3));
        // A stream of one-off statements cannot push the hot one out.
        for i in 0..10 {
            store.record(&exec(
                &format!("SELECT x FROM cold_{i} WHERE x < 1"),
                100,
                4,
            ));
            assert!(store.len() <= 2, "cap holds");
        }
        let kept: Vec<String> = store.snapshot().iter().map(|p| p.sql.clone()).collect();
        assert!(
            kept.iter().any(|s| s.contains("hot")),
            "hot survived: {kept:?}"
        );
        store.set_capacity(1);
        assert_eq!(store.len(), 1);
        assert!(store.snapshot()[0].sql.contains("hot"));
    }

    #[test]
    fn errors_and_cache_hits_counted() {
        let store = StatementProfiles::default();
        let mut e = exec("SELECT x FROM t", 100, 1);
        e.error = true;
        let fp = store.record(&e);
        let mut h = exec("SELECT x FROM t", 100, 2);
        h.cache_hit = true;
        store.record(&h);
        let p = store.get(fp).unwrap();
        assert_eq!((p.calls, p.errors, p.cache_hits), (2, 1, 1));
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
    }
}
