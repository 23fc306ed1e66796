//! The replica registry: what one mediator knows about the freshness of
//! every table replica it hosts — the data version stamped by its last
//! refresh, its WAL-replication bookkeeping, its live row count. Seeded from
//! each mart's `gridfed_mart_meta` at registration, moved by mart refreshes
//! and replication polls (which it also publishes to the RLS, counts and
//! traces), and asked by resolution (`Freshest` / `BoundedStaleness`
//! placement, planner cardinalities), the result cache's version
//! validation, EXPLAIN and `gridfed_monitor.{marts, replication}`.

use crate::placement::ReplicaStaleness;
use crate::stats::TableVersion;
use gridfed_obs::{Observability, SpanKind, TraceBuilder};
use gridfed_rls::{RlsServer, TableFreshness};
use gridfed_simnet::cost::Cost;
use gridfed_storage::normalize_ident;
use gridfed_warehouse::{MartMeta, MartReport, RefreshKind, ReplBatchReport, ReplLag};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// What a mediator knows about one replica of one table: the data version
/// stamped by its last refresh plus, for log-shipped replicas, the WAL
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
    /// Live row count as of the last registration / mart refresh / WAL
    /// apply. `None` until something measured it — the planner then falls
    /// back to the registration-time XSpec hint. This is the fix for the
    /// stale-cardinality bug: XSpec counts froze at registration, so a
    /// table registered empty and then loaded stayed "small" forever.
    pub(crate) row_count: Option<u64>,
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
        map.get(&normalize_ident(table))?.get(database).copied()
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
                (None, Some(rls)) => {
                    let fresh = rls.freshness(&tv.table).value;
                    fresh.iter().map(|(_, f)| f.version).max().unwrap_or(0)
                }
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

    /// Record the outcome of a mart refresh: bump the version, publish the
    /// new freshness to the RLS, update refresh metrics (refresh count, rows
    /// moved, refresh lag, cross-replica version skew), and record a refresh
    /// trace. Skipped refreshes only count a metric — the version did not
    /// move, so cached results over the table stay valid. `measure` reads
    /// the replica's live cardinality for the planner's cost model; when the
    /// backend is unreachable the report stands in (a full rebuild's row
    /// count IS the live count, an incremental one is a delta over whatever
    /// was known before).
    pub(crate) fn note_mart_refresh(
        &self,
        database: &str,
        report: &MartReport,
        now_us: u64,
        measure: impl FnOnce(&str) -> Option<u64>,
    ) {
        let obs = &self.obs;
        if report.kind == RefreshKind::Skipped {
            if obs.enabled() {
                obs.metrics.inc("mart_refresh_skips", &self.url, 1);
            }
            return;
        }
        let table = normalize_ident(&report.table);
        let measured = measure(&table);
        let (prev_refreshed, rows_now) = {
            let mut map = self.map.write();
            let slot = map.entry(table.clone()).or_default();
            let prev = slot.get(database).map(|r| r.refreshed_us);
            // A refresh stamps version and time; WAL bookkeeping (if a
            // stream also feeds this replica) is the stream's to update.
            let rec = slot.entry(database.to_string()).or_default();
            rec.version = report.version;
            rec.refreshed_us = now_us;
            rec.row_count = measured.or(match report.kind {
                RefreshKind::Full => Some(report.rows as u64),
                _ => rec.row_count.map(|prev| prev + report.rows as u64),
            });
            (prev, rec.row_count)
        };
        if let Some(rls) = &self.rls {
            let fresh = TableFreshness {
                version: report.version,
                refreshed_us: now_us,
                rows: rows_now.unwrap_or(0),
                ..TableFreshness::default()
            };
            rls.publish_freshness(&self.url, &[(table.clone(), fresh)]);
        }
        if obs.enabled() {
            let m = &obs.metrics;
            m.inc("mart_refreshes", &self.url, 1);
            m.inc("mart_refresh_rows", &table, report.rows as u64);
            // Full rebuilds are the expensive path WAL catch-up exists to
            // avoid (aggregate SQL views in `refresh_mart` still take it);
            // count them separately so the cost stays visible.
            if report.kind == RefreshKind::Full {
                m.inc("mart_full_rebuilds", &table, 1);
            }
            // Refresh lag: how stale the previous snapshot had become by
            // the time this refresh landed.
            if let Some(prev) = prev_refreshed {
                m.observe_us("mart_refresh_lag_us", &table, now_us.saturating_sub(prev));
            }
            if let Some(rls) = &self.rls {
                m.observe_us("mart_version_skew", &table, rls.version_skew(&table));
            }
            // A refresh trace: root refresh span tiled (staged) or
            // overlapped (direct) by its extract and load phases.
            let (total, url, phase) = (report.total(), &*self.url, SpanKind::Phase);
            let (extract_cost, load_cost) = (report.extract_cost, report.load_cost);
            let mut tb = TraceBuilder::new(obs.traces.next_trace_id());
            let name = format!("refresh `{table}`");
            let root = tb.span(None, name, SpanKind::Refresh, url, Cost::ZERO, total);
            let extract = tb.span(Some(root), "extract", phase, url, Cost::ZERO, extract_cost);
            let load_start = if report.overlapped {
                Cost::ZERO
            } else {
                extract_cost
            };
            let load = tb.span(Some(root), "load+swap", phase, url, load_start, load_cost);
            if report.overlapped {
                tb.mark_parallel(extract);
                tb.mark_parallel(load);
            }
            let kind = match report.kind {
                RefreshKind::Full => "full",
                RefreshKind::Incremental => "incremental",
                RefreshKind::Skipped => unreachable!("skips returned above"),
            };
            let what = format!(
                "REFRESH MART `{}` (v{}, {kind})",
                report.table, report.version
            );
            self.record(tb, what, now_us, total, report.rows);
        }
    }

    /// Record one *applied* WAL batch from a replication stream feeding
    /// `database`: bump the versions of the views the batch refreshed,
    /// update the measured replication lag for every table the stream
    /// covers, publish lag-aware freshness to the RLS, count wal/replay
    /// metrics, and record a [`SpanKind::Replicate`] trace when the batch
    /// moved records. `tables` is the full set of replicated tables on the
    /// stream (an empty batch is a heartbeat that still refreshes age).
    /// `measure` re-reads a replica's live cardinality: WAL replay just
    /// changed the row counts underneath the planner's statistics.
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
                if rows.is_some() {
                    rec.row_count = *rows;
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

    /// Seal the trace of a refresh or a replicated batch into the ring.
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
    /// replicates, and publish lag-aware freshness to the RLS.
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
            rls.publish_freshness(&self.url, &freshness);
        }
    }
}
