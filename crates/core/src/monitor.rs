//! The `gridfed_monitor.*` relational monitoring surface (DESIGN.md §4.13).
//!
//! R-GMA's shape: every mediator is a *producer* of rows about itself —
//! its traces, metrics, replicas, statements — and the mediator a monitor
//! query reaches is the *consumer*: it builds its own rows of the tables
//! the statement names, fetches every directory peer's rows of the same
//! tables (`das.monitor_fetch`) through the same scatter and gather as any
//! other query, and evaluates the SQL over the union. Only the tables a
//! statement names are ever built, here and on the peers.

use crate::config::Live;
use crate::error::CoreError;
use crate::federate::Partial;
use crate::resilience::BranchYield;
use crate::scatter::{Branch, BranchWork, WaveCosts};
use crate::service::{ConnectionPolicy, DataAccessService, QueryOutcome};
use crate::stats::{BranchDrop, CostBreakdown, QueryStats};
use crate::wire::{names_to_wire, wire_to_monitor_partials};
use crate::Result;
use gridfed_clarens::TraceContext;
use gridfed_obs::{HistogramSnapshot, Key, Trace};
use gridfed_simnet::cost::{Cost, Timed};
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::exec::{execute_plan_metered, DatabaseProvider};
use gridfed_sqlkit::plan::build_plan;
use gridfed_storage::{normalize_ident, ColumnDef, DataType, Database, Schema, Table, Value};

impl DataAccessService {
    /// Answer a query over the `gridfed_monitor.*` virtual tables — the
    /// R-GMA consumer: the relational evaluation happens here, over rows
    /// gathered from **every registered mediator** (the producers). The
    /// local rows of the referenced tables are built first, then each
    /// Directory peer is one branch of a one-wave scatter whose attempt is
    /// the `monitor_fetch` RPC — supervised, overlapped and panic-contained
    /// like any sub-query; every row carries a `server` column naming the
    /// mediator that produced it. A peer that cannot be reached degrades
    /// to an honestly *annotated* partial result (`stats.branches_dropped`
    /// names it) — never a silently local-only answer. Monitor queries are
    /// never cached (the data changes under them) and never traced (the
    /// observer should not flood its own ring); a peer answering
    /// `monitor_fetch` or a federated hop (`origin.is_some()`) answers
    /// locally — no recursive fan-out.
    pub(crate) fn query_monitor(
        &self,
        live: &Live,
        stmt: &SelectStmt,
        origin: Option<TraceContext>,
    ) -> Result<Timed<QueryOutcome>> {
        let mut tables: Vec<String> = Vec::new();
        for tref in stmt.table_refs() {
            let key = normalize_ident(&tref.name);
            if !key.starts_with("gridfed_monitor.") {
                return Err(CoreError::Internal(format!(
                    "monitor queries must reference gridfed_monitor.* tables only, \
                     found `{}`",
                    tref.name
                )));
            }
            if !tables.contains(&key) {
                tables.push(key);
            }
        }
        let mut db = self.monitor_database(&tables)?;
        let mut stats = QueryStats {
            tables: stmt.table_refs().len(),
            ..Default::default()
        };
        let mut bd = CostBreakdown {
            plan: Cost::from_micros(500),
            ..CostBreakdown::default()
        };

        // Consumer fan-out: every mediator the Clarens directory knows,
        // minus this one. The directory registers exactly the DAS servers,
        // so it is the monitor-federation peer set. A peer has no replica
        // to fail over to and no empty stand-in.
        let mut urls = self.directory.urls();
        urls.retain(|url| origin.is_none() && **url != *self.url);
        let peers: Vec<Branch> = urls
            .into_iter()
            .map(|url| Branch {
                label: format!("remote mediator `{url}`").into(),
                target: url.into(),
                database: None,
                tasks: Vec::new(),
                wave: 0,
            })
            .collect();
        if !peers.is_empty() {
            stats.distributed = true;
            stats.servers = peers.len() + 1;
            let policy = live.config.connections;
            let work = BranchWork {
                attempt: &|peer, _| self.monitor_fetch_remote(policy, &peer.target, &tables),
                failover: None,
                placeholder: |_| None,
            };
            let (outcomes, _) = self.scatter(live, &peers, &work, &mut stats);
            let mut costs = WaveCosts::new(live.config.dispatch);
            for (outcome, peer) in outcomes.into_iter().zip(&peers) {
                let gathered =
                    self.gather_branch(live, peer, outcome, &mut stats, &mut bd, &mut costs);
                let dropped = match gathered {
                    // A malformed row set from a diverged peer degrades
                    // that peer honestly instead of failing the whole
                    // consumer query.
                    Ok(report) => {
                        let mut partials = report.output.partials.iter();
                        let rejected =
                            partials.find_map(|p| merge_monitor_partial(&mut db, p).err());
                        rejected.map(|e| format!("monitor rows rejected: {e}"))
                    }
                    // Monitoring must observe a sick grid: a dead peer is
                    // always an annotated partial, whatever degradation
                    // policy is configured.
                    Err(e) => Some(e.to_string()),
                };
                if let Some(reason) = dropped {
                    let branch = peer.label.to_string();
                    stats.branches_dropped.push(BranchDrop { branch, reason });
                }
            }
            costs.charge(&mut bd);
        }

        let plan = build_plan(stmt);
        let (result, em) =
            execute_plan_metered(&plan, &DatabaseProvider(&db)).map_err(CoreError::from)?;
        stats.rows_returned = result.rows.len();
        stats.batches = em.batches;
        stats.rows_materialized = em.rows_materialized;
        stats.selectivity = em.selectivity();
        stats.exec_workers = em.workers;
        stats.exec_morsels = em.morsels;
        bd.serialize += self
            .params
            .per_row_serialize
            .scale(result.rows.len() as f64);
        stats.breakdown = bd;
        let cost = bd.total();
        self.clock.advance(cost);
        Ok(Timed::new(QueryOutcome { result, stats }, cost))
    }

    /// One supervised attempt against a peer mediator's `monitor_fetch`:
    /// pull its rows of `tables` over the session's channel to it.
    fn monitor_fetch_remote(
        &self,
        policy: ConnectionPolicy,
        url: &str,
        tables: &[String],
    ) -> Result<BranchYield> {
        let mut peer = self.session.peer(policy, url)?;
        let t = peer.call("monitor_fetch", &[names_to_wire(tables)])?;
        Ok(BranchYield {
            partials: wire_to_monitor_partials(&t.value)?,
            connect_cost: peer.connect_cost,
            exec_cost: t.cost + self.params.remote_forward,
            remote_forwards: 1,
            ..BranchYield::default()
        })
    }

    /// The producer side of monitor federation: export this mediator's
    /// rows of the requested monitor tables. Table names this revision
    /// does not know are skipped (a newer consumer maps what it gets by
    /// name); the peer's clock is not advanced — the consumer charges the
    /// virtual cost of the fetch.
    pub(crate) fn monitor_export(&self, tables: &[String]) -> Result<Vec<Partial>> {
        let keys: Vec<String> = tables.iter().map(|name| normalize_ident(name)).collect();
        let db = self.monitor_database(&keys)?;
        let mut out = Vec::new();
        for key in keys {
            let Ok(table) = db.table(&key) else { continue };
            out.push(Partial {
                columns: table
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect(),
                rows: table.rows(),
                table: key,
            });
        }
        Ok(out)
    }

    /// The monitor tables `wanted` names (normalized, `gridfed_monitor.`
    /// prefixed), materialized from live observability state. A name this
    /// revision has no table for is skipped: the statement then fails on it
    /// as on any unknown table, and a peer's export simply lacks it.
    fn monitor_database(&self, wanted: &[String]) -> Result<Database> {
        let obs = &self.obs;
        let server = || Value::Text(self.url.to_string());
        let mut db = Database::new("gridfed_monitor");
        // One reading of the trace ring and of the profile store per
        // monitor query, shared by the tables that project it.
        let (mut traces, mut profiles) = (None, None);
        for name in wanted {
            if db.table(name).is_ok() {
                continue;
            }
            match name.strip_prefix("gridfed_monitor.").unwrap_or_default() {
                // gridfed_monitor.queries — one row per retained trace.
                "queries" => {
                    let queries = monitor_table(
                        &mut db,
                        "queries",
                        "trace_id:int origin:int server:text sql:text status:text \
                         started_us:int duration_us:int rows_returned:int \
                         distributed:bool cache_hit:bool degraded:bool retries:int \
                         failovers:int",
                    )?;
                    for t in traces.get_or_insert_with(|| obs.traces.snapshot()).iter() {
                        let origin = t.origin.map_or(Value::Null, |o| Value::Int(o as i64));
                        let head = [
                            Value::Int(t.trace_id as i64),
                            origin,
                            Value::Text(t.server.to_string()),
                        ];
                        queries.insert(head.into_iter().chain(trace_cells(t)).collect())?;
                    }
                }
                // gridfed_monitor.spans — every span of every retained trace.
                "spans" => {
                    let spans = monitor_table(
                        &mut db,
                        "spans",
                        "trace_id:int span_id:int parent_id:int name:text kind:text \
                         target:text start_us:int duration_us:int error:text remote:bool \
                         parallel:bool server:text",
                    )?;
                    for t in traces.get_or_insert_with(|| obs.traces.snapshot()).iter() {
                        for s in t.spans() {
                            spans.insert(vec![
                                Value::Int(t.trace_id as i64),
                                Value::Int(s.id as i64),
                                s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                                Value::Text(s.name.clone()),
                                Value::Text(s.kind.as_str().to_string()),
                                Value::Text(s.target.clone()),
                                Value::Int(s.start_us as i64),
                                Value::Int(s.duration_us as i64),
                                s.error
                                    .as_ref()
                                    .map_or(Value::Null, |e| Value::Text(e.clone())),
                                Value::Bool(s.remote),
                                Value::Bool(s.parallel),
                                server(),
                            ])?;
                        }
                    }
                }
                // gridfed_monitor.metrics — counters and latency histograms.
                "metrics" => {
                    let metrics = monitor_table(
                        &mut db,
                        "metrics",
                        "family:text label:text kind:text value:int sum_us:int p50_us:int \
                         p95_us:int p99_us:int server:text",
                    )?;
                    for (key, value) in obs.metrics.counters().iter() {
                        let mut row = counter_cells(key, *value);
                        row.push(server());
                        metrics.insert(row)?;
                    }
                    for (key, h) in obs.metrics.histograms().iter() {
                        let mut row = histogram_cells(key, h);
                        row.push(server());
                        metrics.insert(row)?;
                    }
                }
                // gridfed_monitor.servers — every server the RLS catalog knows
                // (plus this mediator), with this mediator's local view of it:
                // breaker state and query-latency quantiles.
                "servers" => {
                    let servers = monitor_table(
                        &mut db,
                        "servers",
                        "url:text rls_tables:int unreachable_streak:int breaker:text \
                         queries:int p50_us:int p95_us:int p99_us:int server:text",
                    )?;
                    let mut infos = self
                        .rls
                        .as_ref()
                        .map(|r| r.server_snapshot())
                        .unwrap_or_default();
                    if !infos.iter().any(|i| i.url == *self.url) {
                        infos.push(gridfed_rls::RlsServerInfo {
                            url: self.url.to_string(),
                            tables: self.local_tables().len(),
                            unreachable_streak: 0,
                        });
                        infos.sort_by(|a, b| a.url.cmp(&b.url));
                    }
                    for info in infos {
                        let lat = obs.metrics.histogram("query_latency_us", &info.url);
                        let quantile =
                            |q| lat.map_or(Value::Null, |s| Value::Int(s.quantile_us(q) as i64));
                        servers.insert(vec![
                            Value::Text(info.url.clone()),
                            Value::Int(info.tables as i64),
                            Value::Int(info.unreachable_streak as i64),
                            Value::Text(self.resilience().breaker_state(&info.url).to_string()),
                            Value::Int(obs.metrics.counter("queries", &info.url) as i64),
                            quantile(0.50),
                            quantile(0.95),
                            quantile(0.99),
                            server(),
                        ])?;
                    }
                }
                // gridfed_monitor.marts — versioned mart freshness as this
                // mediator sees it: one row per (table, database) replica, with
                // the federation-wide version skew from the RLS registry.
                "marts" => {
                    let marts = monitor_table(
                        &mut db,
                        "marts",
                        "table_name:text database:text version:int refreshed_us:int \
                         skew:int server:text",
                    )?;
                    for (table, database, version, refreshed_us) in
                        self.replicas.versions_snapshot()
                    {
                        let skew = self.rls.as_ref().map_or(0, |r| r.version_skew(&table));
                        marts.insert(vec![
                            Value::Text(table),
                            Value::Text(database),
                            Value::Int(version as i64),
                            Value::Int(refreshed_us as i64),
                            Value::Int(skew as i64),
                            server(),
                        ])?;
                    }
                }
                // gridfed_monitor.replication — measured WAL-replication lag for
                // every log-shipped replica this mediator tracks: one row per
                // (table, database), with LSN bookkeeping and virtual-time age.
                "replication" => {
                    let repl = monitor_table(
                        &mut db,
                        "replication",
                        "table_name:text database:text version:int applied_lsn:int \
                         head_lsn:int lag_lsn:int age_us:int server:text",
                    )?;
                    let now_us = self.clock.now().as_micros();
                    for (table, database, version, applied, head, age_us) in
                        self.replicas.replication_snapshot(now_us)
                    {
                        repl.insert(vec![
                            Value::Text(table),
                            Value::Text(database),
                            Value::Int(version as i64),
                            Value::Int(applied as i64),
                            Value::Int(head as i64),
                            Value::Int(head.saturating_sub(applied) as i64),
                            Value::Int(age_us as i64),
                            server(),
                        ])?;
                    }
                }
                // gridfed_monitor.statements — pg_stat_statements for the grid:
                // one row per retained (normalized SQL, plan shape) fingerprint.
                "statements" => {
                    let statements = monitor_table(
                        &mut db,
                        "statements",
                        "fingerprint:text sql:text plan_shape:text calls:int errors:int \
                         cache_hits:int rows_returned:int rows_fetched:int total_us:int \
                         mean_us:int p50_us:int p95_us:int p99_us:int first_us:int \
                         last_us:int server:text",
                    )?;
                    for p in profiles
                        .get_or_insert_with(|| obs.statements.snapshot())
                        .iter()
                    {
                        let fp = format!("{:016x}", p.fingerprint);
                        statements.insert(vec![
                            Value::Text(fp.clone()),
                            Value::Text(p.sql.clone()),
                            Value::Text(p.plan_shape.clone()),
                            Value::Int(p.calls as i64),
                            Value::Int(p.errors as i64),
                            Value::Int(p.cache_hits as i64),
                            Value::Int(p.rows_returned as i64),
                            Value::Int(p.rows_fetched as i64),
                            Value::Int(p.total_us as i64),
                            Value::Int(p.latency.mean_us() as i64),
                            Value::Int(p.latency.quantile_us(0.50) as i64),
                            Value::Int(p.latency.quantile_us(0.95) as i64),
                            Value::Int(p.latency.quantile_us(0.99) as i64),
                            Value::Int(p.first_us as i64),
                            Value::Int(p.last_us as i64),
                            server(),
                        ])?;
                    }
                }
                "statement_nodes" => {
                    let nodes = monitor_table(
                        &mut db,
                        "statement_nodes",
                        "fingerprint:text node:text calls:int us:int rows:int server:text",
                    )?;
                    for p in profiles
                        .get_or_insert_with(|| obs.statements.snapshot())
                        .iter()
                    {
                        let fp = format!("{:016x}", p.fingerprint);
                        for n in &p.nodes {
                            nodes.insert(vec![
                                Value::Text(fp.clone()),
                                Value::Text(n.node.clone()),
                                Value::Int(n.calls as i64),
                                Value::Int(n.us as i64),
                                Value::Int(n.rows as i64),
                                server(),
                            ])?;
                        }
                    }
                }
                // gridfed_monitor.metrics_history — the ring of virtual-clock
                // registry snapshots, one row per (snapshot, metric series).
                "metrics_history" => {
                    let history = monitor_table(
                        &mut db,
                        "metrics_history",
                        "seq:int ts_us:int family:text label:text kind:text value:int \
                         sum_us:int p50_us:int p95_us:int p99_us:int server:text",
                    )?;
                    for snap in obs.history.snapshots() {
                        let at = [Value::Int(snap.seq as i64), Value::Int(snap.ts_us as i64)];
                        let counters = snap.counters.iter().map(|(k, v)| counter_cells(k, *v));
                        let histograms = snap.histograms.iter().map(|(k, h)| histogram_cells(k, h));
                        for cells in counters.chain(histograms) {
                            history.insert(
                                at.iter().cloned().chain(cells).chain([server()]).collect(),
                            )?;
                        }
                    }
                }
                // gridfed_monitor.slo — per-tenant error-budget burn over the
                // declared window, evaluated against the history ring.
                "slo" => {
                    let slo = monitor_table(
                        &mut db,
                        "slo",
                        "tenant:text objective:float threshold_us:int window_us:int \
                         window_start_us:int total:int good:int bad:int errors:int \
                         burn_rate:float healthy:bool server:text",
                    )?;
                    let now_us = self.clock.now().as_micros();
                    for s in obs.slo.evaluate(now_us, &obs.metrics, &obs.history) {
                        slo.insert(vec![
                            Value::Text(s.tenant.clone()),
                            Value::Float(s.objective),
                            Value::Int(s.latency_threshold_us as i64),
                            Value::Int(s.window_us as i64),
                            Value::Int(s.window_start_us as i64),
                            Value::Int(s.total as i64),
                            Value::Int(s.good as i64),
                            Value::Int(s.bad as i64),
                            Value::Int(s.errors as i64),
                            Value::Float(s.burn_rate),
                            Value::Bool(s.healthy),
                            server(),
                        ])?;
                    }
                }
                // gridfed_monitor.slow_queries — the threshold-gated trace log:
                // one row per retained slow trace (spans stay in the main ring).
                "slow_queries" => {
                    let slow = monitor_table(
                        &mut db,
                        "slow_queries",
                        "trace_id:int sql:text status:text started_us:int duration_us:int \
                         rows_returned:int distributed:bool cache_hit:bool degraded:bool \
                         retries:int failovers:int server:text",
                    )?;
                    for t in obs.slow_queries.snapshot() {
                        let cells = trace_cells(&t).into_iter().chain([server()]);
                        slow.insert(
                            [Value::Int(t.trace_id as i64)]
                                .into_iter()
                                .chain(cells)
                                .collect(),
                        )?;
                    }
                }
                _ => {}
            }
        }
        Ok(db)
    }
}

/// The `sql … failovers` cells of a trace's header, as `gridfed_monitor`'s
/// `queries` and `slow_queries` both show them.
fn trace_cells(t: &Trace) -> [Value; 10] {
    [
        Value::Text(t.sql.to_string()),
        Value::Text(t.status.to_string()),
        Value::Int(t.started_us as i64),
        Value::Int(t.duration_us as i64),
        Value::Int(t.rows_returned as i64),
        Value::Bool(t.distributed),
        Value::Bool(t.cache_hit),
        Value::Bool(t.degraded),
        Value::Int(t.retries as i64),
        Value::Int(t.failovers as i64),
    ]
}

/// Create the virtual table `gridfed_monitor.<name>`; `columns` lists its
/// `name:type` pairs, a type being one of `int`, `float`, `text`, `bool`.
fn monitor_table<'a>(db: &'a mut Database, name: &str, columns: &str) -> Result<&'a mut Table> {
    let column = |spec: &str| {
        let (column, ty) = spec.split_once(':').expect("a column is spelled name:type");
        let ty = match ty {
            "int" => DataType::Int,
            "float" => DataType::Float,
            "bool" => DataType::Bool,
            _ => DataType::Text,
        };
        ColumnDef::new(column, ty)
    };
    let schema = Schema::new(columns.split_whitespace().map(column).collect())?;
    Ok(db.create_table(format!("gridfed_monitor.{name}"), schema)?)
}

/// The `family, label, kind, value, sum_us, p50_us, p95_us, p99_us` cells
/// of a counter, as `gridfed_monitor.metrics` and `.metrics_history` show it.
fn counter_cells(key: &Key, value: u64) -> Vec<Value> {
    let mut cells = vec![
        Value::Text(key.family.into()),
        Value::Text(key.label.to_string()),
        Value::Text("counter".into()),
        Value::Int(value as i64),
    ];
    cells.resize(8, Value::Null);
    cells
}

/// The same cells of a latency histogram.
fn histogram_cells(key: &Key, h: &HistogramSnapshot) -> Vec<Value> {
    vec![
        Value::Text(key.family.into()),
        Value::Text(key.label.to_string()),
        Value::Text("histogram".into()),
        Value::Int(h.count as i64),
        Value::Int(h.sum_us as i64),
        Value::Int(h.quantile_us(0.50) as i64),
        Value::Int(h.quantile_us(0.95) as i64),
        Value::Int(h.quantile_us(0.99) as i64),
    ]
}

/// Merge one peer's exported monitor rows into the consumer's in-memory
/// monitor database. Columns are matched **by name** against the local
/// schema, so a peer running an older or newer revision interoperates:
/// columns the peer lacks become NULL, columns it added are ignored, and
/// tables this revision does not know are skipped entirely.
fn merge_monitor_partial(db: &mut Database, partial: &Partial) -> Result<()> {
    let Ok(table) = db.table_mut(&partial.table) else {
        return Ok(());
    };
    let positions: Vec<Option<usize>> = table
        .schema()
        .columns()
        .iter()
        .map(|c| partial.columns.iter().position(|p| *p == c.name))
        .collect();
    for row in &partial.rows {
        let values = positions
            .iter()
            .map(|pos| match pos {
                Some(i) => row.get(*i).cloned().unwrap_or(Value::Null),
                None => Value::Null,
            })
            .collect();
        table.insert(values)?;
    }
    Ok(())
}
#[cfg(test)]
mod tests {
    use crate::grid::GridBuilder;

    #[test]
    fn only_the_tables_a_statement_names_are_built() {
        let grid = GridBuilder::new()
            .with_seed(3)
            .with_observability(true)
            .build()
            .expect("grid");
        let das = grid.service(0);
        das.query("SELECT e_id FROM ntuple_events WHERE e_id < 3")
            .expect("something to monitor");
        let named = |names: &[&str]| -> Vec<String> {
            names
                .iter()
                .map(|n| format!("gridfed_monitor.{n}"))
                .collect()
        };
        let db = das.monitor_database(&named(&["marts"])).expect("built");
        assert_eq!(db.table_names(), named(&["marts"]));
        let db = das
            .monitor_database(&named(&["spans", "queries", "spans"]))
            .expect("built");
        assert_eq!(db.table_names(), named(&["queries", "spans"]));

        // A producer exports what it was asked for, in the order asked,
        // skipping names it has no table for.
        let asked = named(&["slo", "no_such_table", "METRICS", "slo"]);
        let exported = das.monitor_export(&asked).expect("exported");
        let tables: Vec<&str> = exported.iter().map(|p| p.table.as_str()).collect();
        assert_eq!(
            tables,
            [
                "gridfed_monitor.slo",
                "gridfed_monitor.metrics",
                "gridfed_monitor.slo"
            ]
        );
        // And a statement naming a table this revision lacks fails on it.
        let err = das.query("SELECT * FROM gridfed_monitor.no_such_table");
        assert!(err.is_err());
    }
}
