//! The replica registry: what one mediator knows about the freshness of
//! every table replica it hosts — the data version stamped by its last
//! write, its WAL-replication bookkeeping, its row-count statistic.
//! Seeded from each mart's `gridfed_mart_meta` at registration, moved by
//! replication polls — a mart refresh is polls too — which it also
//! publishes to the RLS, counts and traces, and asked by resolution (`Freshest` /
//! `BoundedStaleness` placement, planner cardinalities), the result cache's
//! version validation, EXPLAIN and `gridfed_monitor.{marts, replication}`.

use crate::placement::ReplicaStaleness;
use crate::stats::TableVersion;
use gridfed_obs::{Observability, SpanKind, TraceBuilder};
use gridfed_rls::{RlsServer, TableFreshness};
use gridfed_simnet::cost::Cost;
use gridfed_storage::{normalize_ident, normalized};
use gridfed_warehouse::{MartMeta, ReplBatchReport, ReplLag};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// What a mediator knows about one replica of one table: the data version
/// stamped by its last write plus, for log-shipped replicas, the WAL
/// replication bookkeeping its stream last reported.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReplicaRecord {
    /// Data version (0 = no version bookkeeping).
    pub(crate) version: u64,
    /// Virtual time the version was stamped.
    refreshed_us: u64,
    /// Last WAL LSN the replica's stream applied (0 = not log-shipped).
    applied_lsn: u64,
    /// Warehouse WAL head as of the stream's last successful poll.
    head_lsn: u64,
    /// Virtual time the replica last *verified* it matched the warehouse
    /// head. `None` for tables not fed by a replication stream — their
    /// measured age reads as zero, because a directly-hosted table is
    /// exact by definition.
    fresh_as_of_us: Option<u64>,
    /// The planner's row-count statistic: the count seeded at registration,
    /// moved to the live count a WAL apply measured only once the two have
    /// [`drifted`] apart. `None` until
    /// something measured it — the planner then falls back to the
    /// registration-time XSpec hint. This is the fix for the
    /// stale-cardinality bug: XSpec counts froze at registration, so a table
    /// registered empty and then loaded stayed "small" forever; a statistic
    /// of 0 moves on the first row.
    pub(crate) row_count: Option<u64>,
}

/// How far a WAL-fed table's live row count may move from the planner's
/// statistic before the statistic follows it: a tenth of the statistic.
/// PostgreSQL's default `autovacuum_analyze_scale_factor` is the same 0.1 —
/// the standard plan-cache contract, under which an ingest cycle of a few
/// rows keeps every cached plan while a tenth of a table more or less
/// re-plans it.
const DRIFT_DIVISOR: u64 = 10;

/// Whether the statistic `stat` must move to the measured `live` count:
/// there is none yet, or the two differ by more than
/// `stat / DRIFT_DIVISOR` either way.
fn drifted(stat: Option<u64>, live: u64) -> bool {
    stat.is_none_or(|stat| live.abs_diff(stat) > stat / DRIFT_DIVISOR)
}

impl ReplicaRecord {
    /// Measured staleness at `now_us` (age 0 for non-replicated tables).
    pub(crate) fn staleness(&self, now_us: u64) -> ReplicaStaleness {
        ReplicaStaleness {
            version: self.version,
            age_us: self.fresh_as_of_us.map_or(0, |t| now_us.saturating_sub(t)),
        }
    }

    /// LSN lag: warehouse head minus last applied record.
    pub(crate) fn lag_lsn(&self) -> u64 {
        self.head_lsn.saturating_sub(self.applied_lsn)
    }

    /// The record as the RLS publishes it.
    fn freshness(&self) -> TableFreshness {
        TableFreshness {
            version: self.version,
            refreshed_us: self.refreshed_us,
            applied_lsn: self.applied_lsn,
            head_lsn: self.head_lsn,
            rows: self.row_count.unwrap_or(0),
        }
    }
}

/// One mediator's replica records, behind their own lock.
pub(crate) struct Replicas {
    /// The mediator's URL: what it publishes freshness to the RLS under and
    /// labels its refresh metrics and traces with.
    url: Arc<str>,
    rls: Option<Arc<RlsServer>>,
    obs: Arc<Observability>,
    /// Normalized table name → database → record.
    map: RwLock<HashMap<String, HashMap<String, ReplicaRecord>>>,
}

impl Replicas {
    pub(crate) fn new(
        url: Arc<str>,
        rls: Option<Arc<RlsServer>>,
        obs: Arc<Observability>,
    ) -> Replicas {
        let map = RwLock::new(HashMap::new());
        Replicas { url, rls, obs, map }
    }

    /// What is known about `table`'s replica in `database`.
    pub(crate) fn get(&self, table: &str, database: &str) -> Option<ReplicaRecord> {
        let map = self.map.read();
        map.get(&*normalized(table))?.get(database).copied()
    }

    /// Current data version of `table` in `database` (0 = unversioned).
    pub(crate) fn version(&self, table: &str, database: &str) -> u64 {
        self.get(table, database).map_or(0, |r| r.version)
    }

    /// Seed `database`'s records from the refresh history a versioned mart
    /// carries, so freshness routing and cache validation work from the
    /// first query. Returns what to publish to the RLS.
    pub(crate) fn seed(&self, database: &str, metas: &[MartMeta]) -> Vec<(String, TableFreshness)> {
        let mut map = self.map.write();
        let mut freshness = Vec::with_capacity(metas.len());
        for m in metas {
            let table = m.table.to_lowercase();
            let rec = ReplicaRecord {
                version: m.version,
                refreshed_us: m.refreshed_us,
                row_count: Some(m.rows as u64),
                ..ReplicaRecord::default()
            };
            let per = map.entry(table.clone()).or_default();
            per.insert(database.to_string(), rec);
            freshness.push((table, rec.freshness()));
        }
        freshness
    }

    /// One sorted row per record `row` keeps.
    fn sorted<T: Ord>(&self, row: impl Fn(&str, &str, &ReplicaRecord) -> Option<T>) -> Vec<T> {
        let map = self.map.read();
        let records = map
            .iter()
            .flat_map(|(table, per)| per.iter().map(move |(db, r)| (table, db, r)));
        let mut out: Vec<T> = records.filter_map(|(t, db, r)| row(t, db, r)).collect();
        out.sort();
        out
    }

    /// All known versions: `(table, database, version, refreshed_us)`, sorted.
    pub(crate) fn versions_snapshot(&self) -> Vec<(String, String, u64, u64)> {
        self.sorted(|t, db, r| Some((t.into(), db.into(), r.version, r.refreshed_us)))
    }

    /// Every log-shipped replica:
    /// `(table, database, version, applied_lsn, head_lsn, age_us)`, sorted,
    /// ages measured at `now_us`.
    pub(crate) fn replication_snapshot(
        &self,
        now_us: u64,
    ) -> Vec<(String, String, u64, u64, u64, u64)> {
        self.sorted(|t, db, r| {
            r.fresh_as_of_us?;
            let age_us = r.staleness(now_us).age_us;
            Some((
                t.into(),
                db.into(),
                r.version,
                r.applied_lsn,
                r.head_lsn,
                age_us,
            ))
        })
    }

    /// Whether every table version a cached outcome observed still matches
    /// the current state — local versions from this registry, remote
    /// versions from the RLS freshness registry. Any mismatch means a
    /// refresh landed since the entry was stored: the entry is stale.
    pub(crate) fn versions_current(&self, versions: &[TableVersion]) -> bool {
        versions.iter().all(|tv| {
            let current = match (&tv.database, &self.rls) {
                (Some(db), _) => self.version(&tv.table, db),
                (None, Some(rls)) => rls.newest_freshness(&tv.table).map_or(0, |f| f.version),
                (None, None) => 0,
            };
            current == tv.version
        })
    }

    /// EXPLAIN's freshness annotation for one table at one replica:
    /// ` [data vN]` when it carries a data version, then — for a log-shipped
    /// local replica only, so pre-replication goldens are unchanged — its
    /// measured replication lag, ` [lag N lsn, Mus]`.
    pub(crate) fn data_note(
        &self,
        version: Option<u64>,
        table_key: &str,
        database: Option<&str>,
        now_us: u64,
    ) -> String {
        let mut note = version.map(|v| format!(" [data v{v}]")).unwrap_or_default();
        let streamed = database
            .and_then(|db| self.get(table_key, db))
            .filter(|r| r.fresh_as_of_us.is_some());
        if let Some(r) = streamed {
            let (lsn, age) = (r.lag_lsn(), r.staleness(now_us).age_us);
            note.push_str(&format!(" [lag {lsn} lsn, {age}us]"));
        }
        note
    }

    /// Record one *applied* WAL batch from a replication stream feeding
    /// `database`: bump the versions of the views the batch refreshed,
    /// update the measured replication lag for every table the stream
    /// covers, publish lag-aware freshness to the RLS, count wal/replay
    /// metrics, and record a [`SpanKind::Replicate`] trace when the batch
    /// moved records. `tables` is the full set of replicated tables on the
    /// stream (an empty batch is a heartbeat that still refreshes age).
    /// `measure` re-reads a replica's live cardinality: WAL replay just
    /// changed the row counts underneath the planner's statistics, which
    /// follow only once they have [`drifted`].
    pub(crate) fn note_replication(
        &self,
        database: &str,
        tables: &[String],
        report: &ReplBatchReport,
        cost: Cost,
        now_us: u64,
        measure: impl Fn(&str) -> Option<u64>,
    ) {
        // Measured before the lock is taken: `measure` reads a backend.
        let measured: Vec<(String, Option<u64>)> = report
            .refreshed
            .iter()
            .map(|(table, _)| {
                let key = normalize_ident(table);
                let rows = measure(&key);
                (key, rows)
            })
            .collect();
        {
            let mut map = self.map.write();
            for ((_, version), (key, rows)) in report.refreshed.iter().zip(&measured) {
                let per = map.entry(key.clone()).or_default();
                let rec = per.entry(database.to_string()).or_default();
                rec.version = *version;
                rec.refreshed_us = now_us;
                if let Some(live) = rows.filter(|&live| drifted(rec.row_count, live)) {
                    rec.row_count = Some(live);
                }
            }
        }
        self.publish_replication(database, tables, &report.lag);
        let obs = &self.obs;
        if obs.enabled() {
            let m = &obs.metrics;
            m.inc("repl_polls", database, 1);
            if report.records > 0 {
                m.inc("wal_records_applied", database, report.records as u64);
                m.inc("wal_rows_applied", database, report.rows as u64);
            }
            // A rebuild reads the whole warehouse, where a batch is read
            // from the log: count the expensive path so its cost stays
            // visible.
            for table in &report.rebuilt {
                m.inc("mart_full_rebuilds", &normalize_ident(table), 1);
            }
            // Histograms are generic u64 distributions; lag is recorded in
            // LSNs, age in virtual µs.
            m.observe_us("repl_lag_lsn", database, report.lag.lsn_delta());
            m.observe_us("repl_age_us", database, report.lag.age_us(now_us));
            if report.records > 0 {
                let mut tb = TraceBuilder::new(obs.traces.next_trace_id());
                let (url, name) = (&*self.url, format!("replicate `{database}`"));
                let root = tb.span(None, name, SpanKind::Replicate, url, Cost::ZERO, cost);
                // Each refreshed view's apply span covers the whole batch
                // window (the WAL replay is one pass), so the root is
                // parallel-composed: children are asserted contained, not
                // tiling — with ≥2 refreshed tables a sequential root
                // would flunk its own composition check.
                tb.mark_parallel(root);
                for (table, version) in &report.refreshed {
                    let name = format!("apply `{table}` (v{version})");
                    tb.span(Some(root), name, SpanKind::Phase, url, Cost::ZERO, cost);
                }
                let what = format!(
                    "REPLICATE `{database}` <- WAL ({} records, lsn {})",
                    report.records, report.lag.applied_lsn
                );
                self.record(tb, what, now_us, cost, report.rows);
            }
        }
    }

    /// Record a *failed* stream poll (partition, crashed mart, …): the
    /// replica keeps aging from its last verified time, and that aging lag
    /// still reaches the records and the RLS so bounded-staleness routing
    /// sees the stall. `lag` is the stream's current bookkeeping.
    pub(crate) fn note_replication_stall(
        &self,
        database: &str,
        tables: &[String],
        lag: &ReplLag,
        now_us: u64,
    ) {
        self.publish_replication(database, tables, lag);
        if self.obs.enabled() {
            let m = &self.obs.metrics;
            m.inc("repl_poll_failures", database, 1);
            m.observe_us("repl_age_us", database, lag.age_us(now_us));
        }
    }

    /// Seal the trace of a replicated batch into the ring.
    fn record(&self, tb: TraceBuilder, what: String, now_us: u64, total: Cost, rows: usize) {
        let trace = tb.finish(
            what,
            self.url.clone(),
            None,
            now_us,
            total,
            "ok",
            rows as u64,
        );
        self.obs.traces.record(trace);
    }

    /// Fold a stream's lag bookkeeping into the record of every table it
    /// replicates, and publish lag-aware freshness to the RLS together with
    /// the tables themselves: every poll is a soft-state heartbeat, so a
    /// mediator the RLS expired on failure reports (a partition the other
    /// side saw) is found again once it is reachable, not never.
    fn publish_replication(&self, database: &str, tables: &[String], lag: &ReplLag) {
        let mut freshness: Vec<(String, TableFreshness)> = Vec::new();
        {
            let mut map = self.map.write();
            for table in tables {
                let per = map.entry(normalize_ident(table)).or_default();
                let rec = per.entry(database.to_string()).or_default();
                rec.applied_lsn = lag.applied_lsn;
                rec.head_lsn = lag.head_lsn;
                rec.fresh_as_of_us = Some(lag.fresh_as_of_us);
                freshness.push((normalize_ident(table), rec.freshness()));
            }
        }
        if let Some(rls) = &self.rls {
            rls.publish(&self.url, tables);
            rls.publish_freshness(&self.url, &freshness);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_obs::ObsConfig;

    #[test]
    fn the_statistic_moves_only_past_a_tenth_of_itself() {
        // Nothing measured yet, or measured empty: any count moves it.
        for live in [1, 20, 2_600, u64::MAX] {
            assert!(drifted(None, live) && drifted(Some(0), live), "{live}");
        }
        assert!(drifted(None, 0));
        // A tenth of 1 000 is 100: the boundary itself keeps the statistic,
        // one row past it moves it, and deletes follow the rule growth does.
        for (live, moves) in [
            (1_000, false),
            (1_099, false),
            (1_100, false),
            (1_101, true),
            (901, false),
            (900, false),
            (899, true),
            (0, true),
        ] {
            assert_eq!(drifted(Some(1_000), live), moves, "1 000 -> {live}");
        }
        // Under ten rows a tenth is 0: every change moves the statistic.
        assert!(!drifted(Some(9), 9));
        assert!(drifted(Some(9), 10) && drifted(Some(9), 8));
        // The far end of the range: no overflow either way.
        assert!(!drifted(Some(u64::MAX), u64::MAX - u64::MAX / 10));
        assert!(drifted(Some(u64::MAX), 0) && drifted(Some(1), u64::MAX));
    }

    #[test]
    fn replication_moves_the_statistic_only_past_the_drift() {
        let replicas = Replicas::new(
            "jclarens://m".into(),
            None,
            Observability::new(ObsConfig::default()),
        );
        let stat = || replicas.get("events", "mart").and_then(|r| r.row_count);
        let meta = MartMeta {
            table: "events".into(),
            version: 1,
            refreshed_us: 0,
            hwm: 0,
            rows: 0,
        };
        replicas.seed("mart", &[meta]);
        assert_eq!(stat(), Some(0), "registration sets the count");
        let lag = ReplLag {
            applied_lsn: 0,
            head_lsn: 0,
            fresh_as_of_us: 0,
        };
        let batch = ReplBatchReport {
            mart: "mart".into(),
            records: 1,
            rows: 1,
            bytes: 0,
            refreshed: vec![("events".into(), 1)],
            rebuilt: Vec::new(),
            lag,
        };
        let apply = |live| replicas.note_replication("mart", &[], &batch, Cost::ZERO, 0, |_| live);
        // Registered empty, then loaded: the first row moves it.
        apply(Some(1_000));
        assert_eq!(stat(), Some(1_000));
        apply(Some(1_100));
        apply(Some(950));
        apply(None);
        assert_eq!(stat(), Some(1_000), "within a tenth, or unmeasured");
        apply(Some(1_101));
        assert_eq!(stat(), Some(1_101));
        assert_eq!(
            replicas.get("events", "mart").unwrap().freshness().rows,
            1_101
        );
    }
}
