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

/// Default top-k retention cap of the statement store.
pub const DEFAULT_STATEMENT_CAPACITY: usize = 128;

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
    /// Literal-normalized SQL text (the mediator passes
    /// `gridfed_sqlkit::lexer::fingerprint_text`'s).
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
    capacity: usize,
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
            capacity: capacity.max(1),
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The top-k cap.
    pub fn capacity(&self) -> usize {
        self.capacity
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
        if !entries.contains_key(&fp) {
            while entries.len() >= self.capacity {
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
    fn the_shape_and_the_separator_count() {
        let text = "select e_id from events where e_id < ?";
        assert_ne!(
            fingerprint(text, "scan"),
            fingerprint(text, "join(scan,scan)")
        );
        assert_ne!(fingerprint("a", "bc"), fingerprint("ab", "c"));
    }

    /// One execution of a statement whose fingerprint text is `text`.
    fn exec(text: &str, latency_us: u64, now_us: u64) -> StatementExec {
        StatementExec {
            normalized_sql: text.to_string(),
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
        let fp1 = store.record(&exec("select x from t where x < ?", 400, 10));
        let fp2 = store.record(&exec("select x from t where x < ?", 80_000, 20));
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
            store.record(&exec("select x from hot where x < ?", 100, 1));
        }
        store.record(&exec("select x from warm where x < ?", 100, 2));
        store.record(&exec("select x from warm where x < ?", 100, 3));
        // A stream of one-off statements cannot push the hot one out.
        for i in 0..10 {
            store.record(&exec(
                &format!("select x from cold_{i} where x < ?"),
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
        // The two warm calls were the coldest when the first one-off came:
        // they went first, and each one-off since evicted the one before.
        assert_eq!(kept.len(), 2);
        assert!(!kept.iter().any(|s| s.contains("warm")), "{kept:?}");
    }

    #[test]
    fn errors_and_cache_hits_counted() {
        let store = StatementProfiles::default();
        let mut e = exec("select x from t", 100, 1);
        e.error = true;
        let fp = store.record(&e);
        let mut h = exec("select x from t", 100, 2);
        h.cache_hit = true;
        store.record(&h);
        let p = store.get(fp).unwrap();
        assert_eq!((p.calls, p.errors, p.cache_hits), (2, 1, 1));
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
    }
}
