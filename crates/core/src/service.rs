//! The Data Access Service — the mediator the paper builds.

use crate::admission::Admission;
use crate::cache::{statement_key, PlanCache, PlannedStatement, ResolvedTable, ResolvedTables};
use crate::config::{Live, MediatorConfig};
use crate::decompose::{self, Home};
use crate::error::CoreError;
use crate::explain;
use crate::federate::{self, Partial};
use crate::placement::ReplicaPolicy;
use crate::replicas::Replicas;
use crate::resilience::{AttemptKind, BranchFailure, BranchReport, BranchYield, Resilience};
use crate::scatter::{self, Branch, BranchOutcome, BranchWork, SubQuery, WaveCosts};
use crate::session::Session;
pub use crate::session::LEASE_TTL_US;
use crate::stats::{BranchDrop, CostBreakdown, QueryStats, TableVersion};
use crate::wire::{
    decode_federated_many, monitor_partials_to_wire, names_to_wire, spans_to_wire, stats_to_wire,
    wire_to_names,
};
pub use crate::wire::{result_to_wire, wire_to_partial};
use crate::Result;
use gridfed_clarens::codec::WireValue;
use gridfed_clarens::directory::Directory;
use gridfed_clarens::server::Service;
use gridfed_clarens::{ClarensError, TraceContext};
use gridfed_faults::VirtualClock;
use gridfed_obs::{
    normalize_statement, BranchRecord, MetricsRegistry, NodeContribution, Observability,
    QueryRecord, StatementExec, Trace, TraceBuilder,
};
use gridfed_rls::RlsServer;
use gridfed_simnet::cost::{Cost, Timed};
use gridfed_simnet::params::CostParams;
use gridfed_simnet::topology::Topology;
use gridfed_sqlkit::ast::{Expr, SelectItem, SelectStmt, Statement};
use gridfed_sqlkit::parser::{parse, parse_select};
use gridfed_sqlkit::plan::LogicalPlan;
use gridfed_sqlkit::render::{render_select, NeutralStyle};
use gridfed_sqlkit::{with_exec_config, ResultSet};
use gridfed_storage::normalize_ident;
use gridfed_vendors::{ConnectionString, DriverRegistry};
use gridfed_warehouse::{read_all_mart_meta, MartReport, ReplBatchReport, ReplLag};
use gridfed_xspec::dict::DataDictionary;
use gridfed_xspec::generate_lower_xspec;
use gridfed_xspec::model::UpperEntry;
use gridfed_xspec::tracker::{SchemaTracker, TrackOutcome};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How sub-query branches are dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// The enhanced mediator: the branches of a wave run concurrently —
    /// the dispatching thread runs the wave's last branch itself and each
    /// other branch gets a scoped helper thread, so a one-branch wave
    /// starts no thread. Virtual time is the slowest branch of each wave.
    #[default]
    Parallel,
    /// Unity-style sequential dispatch (ablation baseline): virtual time
    /// is the sum of branches.
    Sequential,
}

/// What the mediator keeps open between queries (DESIGN.md §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnectionPolicy {
    /// The 2005 prototype exactly as measured (Table 1, Figure 6): every
    /// distributed query opens and authenticates fresh connections and
    /// asks the RLS again. The control arm.
    PerQuery,
    /// One session per mediator: a backend connection for every vendor,
    /// opened on first use and kept; RLS locations leased for a fixed TTL.
    #[default]
    Session,
}

impl ConnectionPolicy {
    /// Whether connections and RLS answers outlive the query.
    pub(crate) fn keeps(self) -> bool {
        self == ConnectionPolicy::Session
    }
}

/// Result of one query: the 2-D vector plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The merged 2-D result.
    pub result: ResultSet,
    /// Mediator statistics for the query.
    pub stats: QueryStats,
}

/// Default number of outcomes the result cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// The Data Access Service hosted inside a (J)Clarens server.
pub struct DataAccessService {
    /// URL of the Clarens server hosting this service (published to RLS).
    /// Shared with every trace this mediator records.
    pub(crate) url: Arc<str>,
    /// Topology node of that server.
    host: String,
    /// What this mediator was told ([`MediatorConfig`]), in the one cell a
    /// query reads it from — once, when it enters ([`Self::live`]).
    live: RwLock<Arc<Live>>,
    dict: RwLock<DataDictionary>,
    /// Bumped under the `dict` write lock by every change to the
    /// dictionary, so a reader holding the read lock sees the epoch of
    /// exactly the contents it reads. Stamps cached plans.
    dict_epoch: AtomicU64,
    registry: Arc<DriverRegistry>,
    /// Backend connections, peer channels and RLS leases.
    pub(crate) session: Session,
    pub(crate) rls: Option<Arc<RlsServer>>,
    /// The RLS's host, as a query record names it.
    rls_host: Option<Arc<str>>,
    pub(crate) directory: Arc<Directory>,
    topology: Arc<Topology>,
    pub(crate) params: CostParams,
    tracker: Mutex<SchemaTracker>,
    /// Statements planned once (DESIGN.md §4.4). Locked for a lookup or
    /// an insert, never across resolution, planning or the scatter.
    plans: Mutex<PlanCache>,
    /// Circuit breakers, one per server this mediator dispatches to.
    resilience: Resilience,
    /// The virtual clock branches consult for backoff "sleeps" and fault
    /// windows: the fault plan's shared clock when the grid has one.
    /// Advanced by each query's total cost, so back-to-back queries see
    /// virtual time pass.
    pub(crate) clock: Arc<VirtualClock>,
    /// What this mediator knows about the freshness of each replica it
    /// hosts: drives `Freshest` / `BoundedStaleness` placement, result-cache
    /// version validation and the planner's cardinalities.
    pub(crate) replicas: Replicas,
    /// Observability: the tracing gate, the bounded trace ring, and the
    /// metrics registry — projected into the `gridfed_monitor.*` virtual
    /// tables. Disabled by default; the query path then pays one relaxed
    /// atomic load.
    pub(crate) obs: Arc<Observability>,
}

impl DataAccessService {
    /// Create a service bound to a Clarens server URL and host node, with
    /// the default [`MediatorConfig`] and a virtual clock of its own.
    pub fn new(
        url: impl Into<String>,
        host: impl Into<String>,
        registry: Arc<DriverRegistry>,
        directory: Arc<Directory>,
        topology: Arc<Topology>,
        rls: Option<Arc<RlsServer>>,
    ) -> DataAccessService {
        let (config, clock) = (MediatorConfig::default(), Arc::new(VirtualClock::new()));
        DataAccessService::configured(url, host, registry, directory, topology, rls, config, clock)
    }

    /// [`DataAccessService::new`] under `config`, on `clock` — normally the
    /// fault plan's, so retries observe its crash windows. Wiring, like the
    /// registry: what a mediator shares with its grid is fixed when built.
    #[allow(clippy::too_many_arguments)]
    pub fn configured(
        url: impl Into<String>,
        host: impl Into<String>,
        registry: Arc<DriverRegistry>,
        directory: Arc<Directory>,
        topology: Arc<Topology>,
        rls: Option<Arc<RlsServer>>,
        config: MediatorConfig,
        clock: Arc<VirtualClock>,
    ) -> DataAccessService {
        let (host, obs) = (host.into(), Observability::new());
        let url: Arc<str> = url.into().into();
        DataAccessService {
            replicas: Replicas::new(Arc::clone(&url), rls.clone(), Arc::clone(&obs)),
            url,
            live: RwLock::new(Arc::new(Live::new(config, None))),
            dict: RwLock::new(DataDictionary::new()),
            dict_epoch: AtomicU64::new(0),
            session: Session::new(
                Arc::clone(&registry),
                Arc::clone(&directory),
                Arc::clone(&topology),
                host.clone(),
                Arc::clone(&obs),
            ),
            host,
            registry,
            rls_host: rls.as_ref().map(|r| r.host().into()),
            rls,
            directory,
            topology,
            params: CostParams::paper_2005(),
            tracker: Mutex::new(SchemaTracker::new()),
            plans: Mutex::new(PlanCache::new()),
            resilience: Resilience::new(),
            clock,
            obs,
        }
    }

    /// This mediator's observability handle: the tracing/metrics gate, the
    /// bounded ring of recent query traces, and the metrics registry.
    pub fn observability(&self) -> Arc<Observability> {
        Arc::clone(&self.obs)
    }

    /// This service's Clarens URL.
    pub fn url(&self) -> &str {
        &self.url
    }

    /// Hosting topology node.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The configuration a query entering now runs under, to its end.
    pub(crate) fn live(&self) -> Arc<Live> {
        Arc::clone(&self.live.read())
    }

    /// The configuration queries entering now run under.
    pub fn config(&self) -> MediatorConfig {
        self.live.read().config.clone()
    }

    /// Change the configuration for the queries that start after this
    /// returns; a running query finishes under the one it entered with.
    /// What a field stands for starts over only when that field changed:
    /// the admission queue, the result cache, and — on `connections` —
    /// what the session keeps, since a lease is honoured whatever the
    /// policy and would outlive the one that took it. `change` runs with
    /// the cell locked: it must not call back into this service.
    pub fn reconfigure(&self, change: impl FnOnce(&mut MediatorConfig)) {
        let mut live = self.live.write();
        let mut config = live.config.clone();
        change(&mut config);
        let let_go = config.connections != live.config.connections;
        let next = Arc::new(Live::new(config, Some(&live)));
        *live = next;
        drop(live);
        if let_go {
            self.session.let_go();
        }
    }

    /// The circuit breakers (states, reset).
    pub fn resilience(&self) -> &Resilience {
        &self.resilience
    }

    /// The service's virtual clock. Advanced by each query's total cost,
    /// so back-to-back queries see virtual time pass.
    pub fn clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    /// This mediator's admission queue, when one is configured.
    pub fn admission(&self) -> Option<Arc<Admission>> {
        self.live.read().admission.clone()
    }

    /// The dictionary, locked for a change — which starts a new epoch.
    fn write_dict(&self) -> RwLockWriteGuard<'_, DataDictionary> {
        let dict = self.dict.write();
        self.dict_epoch.fetch_add(1, Ordering::Relaxed);
        dict
    }

    /// Drop every cached result (called automatically whenever the data
    /// dictionary changes underneath the cache).
    pub fn invalidate_cache(&self) {
        if let Some(results) = &self.live.read().results {
            results.lock().clear();
        }
    }

    /// Register a database (data mart) with this service: connect,
    /// introspect, generate its Lower-Level XSpec, add it to the data
    /// dictionary, publish its tables to the RLS, and pre-initialize a
    /// POOL-RAL handle when the vendor is POOL-supported.
    ///
    /// This is both the startup path and the runtime **plug-in** path
    /// (§4.10): "the server is provided the URL of the database … the
    /// server then downloads the file, parses it, and retrieves the
    /// metadata about the database."
    pub fn register_database(&self, url: &str) -> Result<Timed<String>> {
        let parsed = ConnectionString::parse(url)?;
        let mut cost;
        let conn = self.registry.connect_parsed(&parsed)?;
        cost = conn.cost;
        let lower = generate_lower_xspec(&conn.value).map_err(CoreError::Vendor)?;
        cost += lower.cost;
        let lower = lower.value;
        let db_name = lower.database.clone();
        let tables: Vec<String> = lower.tables.iter().map(|t| t.logical_name()).collect();
        let entry = UpperEntry {
            name: db_name.clone(),
            url: url.to_string(),
            driver: parsed.vendor.scheme().to_string(),
            lower_ref: format!("{db_name}.xspec"),
        };
        // Seed the schema tracker with the generation-time baseline.
        self.tracker.lock().check(&lower);
        self.write_dict().register(entry, lower);
        self.invalidate_cache();
        // A versioned mart carries its refresh history in
        // `gridfed_mart_meta`: the registry starts from it.
        let metas = conn.value.server().with_db(read_all_mart_meta);
        let freshness = self.replicas.seed(&db_name, &metas);
        // What this mediator hosts just changed: ask the catalog afresh.
        self.session.drop_leases();
        if let Some(rls) = &self.rls {
            let t = rls.publish(&self.url, &tables);
            cost += t.cost
                + self
                    .topology
                    .link(&self.host, rls.host())
                    .round_trip(256, 64);
            if !freshness.is_empty() {
                cost += rls.publish_freshness(&self.url, &freshness).cost;
            }
        }
        if parsed.vendor.pool_supported() {
            cost += self.session.open_pool_handle(url)?;
        }
        Ok(Timed::new(db_name, cost))
    }

    /// Remove a database from this service: its dictionary entry, and the
    /// POOL handle and kept connection opened for it (RLS entries for this
    /// server's other tables remain).
    pub fn unregister_database(&self, name: &str) -> bool {
        self.invalidate_cache();
        let policy = self.live.read().config.connections;
        let mut dict = self.write_dict();
        if let Ok(entry) = dict.entry(name) {
            self.session.drop_backend(policy, &entry.url);
            self.session.drop_leases();
        }
        dict.unregister(name)
    }

    /// Logical tables known locally, sorted.
    pub fn local_tables(&self) -> Vec<String> {
        self.dict.read().logical_tables()
    }

    /// A snapshot of the service's data dictionary (used to stand up the
    /// Unity baseline driver over the same federation for comparisons).
    pub fn dictionary_snapshot(&self) -> DataDictionary {
        self.dict.read().clone()
    }

    /// Registered database names, sorted.
    pub fn databases(&self) -> Vec<String> {
        self.dict.read().databases()
    }

    /// Re-generate the XSpec of every registered database and apply the
    /// paper's size/md5 change detection (§4.9). Returns the names of
    /// databases whose schema changed (their dictionary entries are
    /// refreshed in place).
    pub fn refresh_schemas(&self) -> Result<Timed<Vec<String>>> {
        let entries: Vec<(String, String)> = {
            let dict = self.dict.read();
            dict.databases()
                .into_iter()
                .map(|name| {
                    let url = dict.entry(&name).expect("listed db has entry").url.clone();
                    (name, url)
                })
                .collect()
        };
        let mut changed = Vec::new();
        let mut cost = Cost::ZERO;
        let policy = self.live.read().config.connections;
        for (name, url) in entries {
            let link = self.session.link(policy, &url, false)?;
            cost += link.connect_cost.unwrap_or(Cost::ZERO);
            let lower = generate_lower_xspec(link.conn()).map_err(CoreError::Vendor)?;
            cost += lower.cost;
            let outcome = self.tracker.lock().check(&lower.value);
            if matches!(outcome, TrackOutcome::Changed { .. }) {
                self.write_dict().refresh_lower(lower.value)?;
                self.session.evict_backend(policy, &url, "schema_changed");
                self.invalidate_cache();
                changed.push(name);
            }
        }
        Ok(Timed::new(changed, cost))
    }

    /// Record the outcome of a mart refresh against a database registered
    /// with this service (`Replicas::note_mart_refresh`).
    pub fn note_mart_refresh(&self, database: &str, report: &MartReport, now_us: u64) {
        let measure = |table: &str| self.live_row_count(database, table);
        self.replicas
            .note_mart_refresh(database, report, now_us, measure);
    }

    /// Record one *applied* WAL batch from a replication stream feeding
    /// `database` (`Replicas::note_replication`); cached results over the
    /// views it refreshed are dropped. `tables` is the full set of
    /// replicated tables on the stream (an empty batch is a heartbeat that
    /// still refreshes age).
    pub fn note_replication(
        &self,
        database: &str,
        tables: &[String],
        report: &ReplBatchReport,
        cost: Cost,
        now_us: u64,
    ) {
        let measure = |table: &str| self.live_row_count(database, table);
        self.replicas
            .note_replication(database, tables, report, cost, now_us, measure);
        if !report.refreshed.is_empty() {
            self.invalidate_cache();
        }
    }

    /// Record a *failed* stream poll (partition, crashed mart, …): the
    /// replica keeps aging from its last verified time, and bounded-staleness
    /// routing sees the stall. `lag` is the stream's current bookkeeping.
    pub fn note_replication_stall(
        &self,
        database: &str,
        tables: &[String],
        lag: &ReplLag,
        now_us: u64,
    ) {
        self.replicas
            .note_replication_stall(database, tables, lag, now_us);
    }

    /// Measure a replica's live row count straight from the backend. This
    /// is a local metadata read (no query execution): mart refresh and WAL
    /// apply call it to keep the planner's cardinality statistics current.
    fn live_row_count(&self, database: &str, table: &str) -> Option<u64> {
        let loc = {
            let dict = self.dict.read();
            dict.resolve_table(&normalize_ident(table))
                .into_iter()
                .find(|l| l.database == database)?
        };
        let policy = self.live.read().config.connections;
        let link = self.session.link(policy, &loc.url, false).ok()?;
        let server = link.conn().server();
        server.with_db(|db| db.table(&loc.physical_table).map(|t| t.len() as u64).ok())
    }

    // ---- query path ----

    /// Describe how a query would execute, without executing it — which
    /// tables resolve where, what gets pushed down, and which sub-queries
    /// would be dispatched (an `EXPLAIN` for the federation).
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.explain_stmt(&self.live(), &parse_select(sql)?)
    }

    /// [`DataAccessService::explain`] over an already-parsed statement
    /// (shared by the `EXPLAIN` / `EXPLAIN ANALYZE` SQL routing).
    fn explain_stmt(&self, live: &Live, stmt: &SelectStmt) -> Result<String> {
        let mut stats = QueryStats::default();
        let mut bd = CostBreakdown::default();
        let resolved = self.resolve_tables(live, table_names(stmt), &mut stats, &mut bd)?;
        let plan = decompose::plan(stmt, &resolved)?;
        let text = explain::plan_text(self, live, stmt, &resolved, plan, stats.rls_lookups);
        Ok(text)
    }

    /// Execute a SQL query against the federation. Routes three statement
    /// families: `EXPLAIN [ANALYZE] SELECT …` renders the plan (ANALYZE
    /// also executes it and annotates actuals), queries over the
    /// `gridfed_monitor.*` virtual tables answer from this mediator's own
    /// observability state, and everything else is a federated SELECT.
    pub fn query(&self, sql: &str) -> Result<Timed<QueryOutcome>> {
        self.query_as("default", sql)
    }

    /// [`DataAccessService::query`] with an explicit tenant label — the
    /// client-facing **front door**. When an admission queue is configured
    /// ([`MediatorConfig::admission`]) the query first acquires an
    /// execution slot, waiting in the tenant-fair bounded queue; a full
    /// queue is a typed [`CoreError::AdmissionFull`], never a silent drop.
    /// Mediator-to-mediator `query_federated` hops bypass admission (an
    /// internal hop waiting on a slot its caller holds can deadlock a
    /// mediator cycle).
    pub fn query_as(&self, tenant: &str, sql: &str) -> Result<Timed<QueryOutcome>> {
        let result = self.query_front_door(&self.live(), tenant, sql);
        let obs = self.observability();
        if obs.enabled() {
            // Per-tenant metric families feed the SLO tracker: queries
            // always, latency on success, errors on failure (admission
            // rejections included — a turned-away query burns budget too).
            obs.metrics.inc("tenant_queries", tenant, 1);
            match &result {
                Ok(t) => obs
                    .metrics
                    .observe_us("tenant_latency_us", tenant, t.cost.as_micros()),
                Err(_) => obs.metrics.inc("tenant_errors", tenant, 1),
            }
            // The history ring samples on the query path itself: the
            // virtual clock only advances when work happens, so a
            // background sampler would never fire.
            obs.history
                .maybe_snapshot(self.clock.now().as_micros(), &obs.metrics);
        }
        result
    }

    /// The admission-gated front door body of [`DataAccessService::query_as`].
    fn query_front_door(
        &self,
        live: &Live,
        tenant: &str,
        sql: &str,
    ) -> Result<Timed<QueryOutcome>> {
        let Some(admission) = &live.admission else {
            return self.query_entry(live, sql, None).map(|ex| ex.outcome);
        };
        let obs = self.observability();
        let (guard, adm) = match admission.acquire(tenant) {
            Ok(entry) => entry,
            Err((queued, limit)) => {
                if obs.enabled() {
                    obs.metrics.inc("admission_rejected", &self.url, 1);
                }
                return Err(CoreError::AdmissionFull {
                    tenant: tenant.to_string(),
                    queued,
                    limit,
                });
            }
        };
        if obs.enabled() {
            if adm.queue_depth > 0 {
                obs.metrics.inc("admission_queued", &self.url, 1);
            }
            obs.metrics
                .observe_us("queue_wait_us", &self.url, adm.wait_us);
            obs.metrics
                .observe_us("queue_depth", &self.url, adm.queue_depth);
        }
        let result = self.query_entry(live, sql, None);
        drop(guard);
        result.map(|ex| {
            let mut timed = ex.outcome;
            timed.value.stats.queue_depth = adm.queue_depth;
            timed.value.stats.queue_wait_us = adm.wait_us;
            timed
        })
    }

    /// Full entry point: [`DataAccessService::query`] plus the recorded
    /// trace handle, for the RPC layer to ship spans back to a remote
    /// caller. `origin` is the caller's trace context when this query is
    /// one hop of a remote mediator's federated query. Installs the
    /// configuration's executor config scopewise, so every nested plan
    /// execution — residual integration, monitor queries, EXPLAIN
    /// ANALYZE — sees the same parallelism knobs.
    fn query_entry(
        &self,
        live: &Live,
        sql: &str,
        origin: Option<TraceContext>,
    ) -> Result<Executed> {
        with_exec_config(live.exec.clone(), || {
            let trimmed = sql.trim_start();
            if trimmed
                .get(..7)
                .is_some_and(|p| p.eq_ignore_ascii_case("EXPLAIN"))
            {
                return self.query_explain(live, sql).map(Executed::plain);
            }
            // The one normalised key both caches use. A statement already
            // planned goes straight to its plan: only federated SELECTs that
            // parsed and planned are ever in there.
            let key = statement_key(sql);
            let planned = key.as_deref().and_then(|key| self.plans.lock().get(key));
            if let Some(planned) = planned {
                return self.run_select(live, sql, key, Select::Planned(planned), origin);
            }
            // Monitor routing keys on *parsed table references*, never raw
            // text: a query whose literal merely mentions "gridfed_monitor."
            // must take the normal federated path.
            let stmt = parse_select(sql)?;
            if stmt
                .table_refs()
                .iter()
                .any(|t| normalize_ident(&t.name).starts_with("gridfed_monitor."))
            {
                return self.query_monitor(live, &stmt, origin).map(Executed::plain);
            }
            self.run_select(live, sql, key, Select::Parsed(&stmt), origin)
        })
    }

    /// Execute one SELECT: cache probe, resolve, plan (or reuse the plan),
    /// scatter, gather, integrate — and, when the observability gate is on
    /// (or a remote caller sent a trace context), write its one record
    /// ([`Self::record_query`]) however it ended. `cache_key` is the
    /// statement's normalised text, `None` when nothing about it may be
    /// cached. [`Select::Analyzed`] (EXPLAIN ANALYZE) runs the residual
    /// plan with per-node profiling.
    fn run_select(
        &self,
        live: &Live,
        sql: &str,
        cache_key: Option<String>,
        statement: Select<'_>,
        origin: Option<TraceContext>,
    ) -> Result<Executed> {
        let obs = self.observability();
        let tracing = obs.enabled() || origin.is_some();
        let want_profile = matches!(statement, Select::Analyzed(_));
        let mut probe = QueryProbe {
            active: tracing,
            want_profile,
            profile_nodes: want_profile || (obs.enabled() && obs.profiling()),
            origin: origin.map(|c| c.trace_id),
            started_us: self.clock.now().as_micros(),
            trace_id: if tracing {
                obs.traces.next_trace_id()
            } else {
                0
            },
            ..QueryProbe::default()
        };

        // Result cache fast path: a hit costs one dictionary probe. Keys
        // are whitespace-normalized so trivially reformatted repeats of
        // the same query still hit.
        if let (Some(key), Some(results)) = (&cache_key, &live.results) {
            let mut cache = results.lock();
            if let Some(hit) = cache.get(key) {
                if !self.replicas.versions_current(&hit.stats.versions) {
                    // A mart refresh bumped a version this entry
                    // observed: drop it and re-execute instead of
                    // serving stale rows.
                    cache.remove(key);
                    probe.stale_drop = true;
                } else {
                    // A cache hit still profiles under the shape the
                    // cached outcome was planned with, so the
                    // statement's call count stays honest.
                    let mut outcome = hit.clone();
                    outcome.stats.cache_hit = true;
                    let cost = Cost::from_micros(300);
                    let rows = outcome.result.rows.len() as u64;
                    let trace =
                        self.record_query(&obs, sql, &mut probe, &outcome.stats, cost, rows, None);
                    return Ok(Executed {
                        outcome: Timed::new(outcome, cost),
                        trace,
                        analyzed: None,
                    });
                }
            }
        }

        let mut stats = QueryStats::default();
        let mut bd = CostBreakdown {
            plan: self.params.sql_parse,
            ..CostBreakdown::default()
        };
        // Resolve every unique table up front (charging RLS lookups),
        // decompose, and execute — any error on the way is traced below.
        let executed = (|| {
            let resolved = match &statement {
                Select::Planned(planned) => {
                    self.resolve_tables(live, planned.table_names(), &mut stats, &mut bd)
                }
                Select::Parsed(stmt) | Select::Analyzed(stmt) => {
                    self.resolve_tables(live, table_names(stmt), &mut stats, &mut bd)
                }
            }?;
            // Virtual time prices the paper's 2005 service, which parses
            // and decomposes every call; reusing a plan saves wall-clock.
            bd.plan += self.params.plan_decompose;
            let with_shape = obs.enabled();
            let planned = self.plan_for(
                sql,
                cache_key.as_deref(),
                statement,
                &resolved,
                with_shape,
                &mut probe,
            )?;
            stats.tables = planned.table_refs;
            if let Some(shape) = planned.shape.as_ref().filter(|_| with_shape) {
                stats.plan_shape = shape.shape.clone();
            }
            probe.planned = Some(Arc::clone(&planned));
            self.scatter_gather(
                live,
                &planned.branches,
                planned.residual.as_deref(),
                &mut stats,
                &mut bd,
                &mut probe,
            )
        })();
        let result = match executed {
            Ok(result) => result,
            Err(e) => {
                // A failed query still consumed virtual time — at least the
                // supervision overhead of its failed branches, which the
                // gather charged. Advance the shared clock so fault windows
                // keep moving and an open breaker can reach its cooldown; a
                // frozen clock would turn one exhausted query into a
                // permanent outage.
                self.clock.advance(bd.total());
                stats.breakdown = bd;
                let failed = tracing.then(|| e.to_string());
                self.record_query(&obs, sql, &mut probe, &stats, bd.total(), 0, failed);
                return Err(e);
            }
        };
        stats.rows_returned = result.rows.len();
        bd.serialize += self
            .params
            .per_row_serialize
            .scale(result.rows.len() as f64);
        stats.breakdown = bd;
        let total = bd.total();
        let mut outcome = QueryOutcome { result, stats };
        // Degraded (Partial-policy) results are honest but incomplete —
        // never cache them, or a healed federation would keep serving the
        // holes. Failed queries never reach this point at all.
        if !outcome.stats.is_degraded() {
            if let (Some(key), Some(results)) = (cache_key, &live.results) {
                // The cached copy keeps `cache_evictions: 0`; the returned
                // outcome reports what storing it displaced.
                outcome.stats.cache_evictions = results.lock().insert(key, outcome.clone());
            }
        }
        self.clock.advance(total);
        let rows = outcome.result.rows.len() as u64;
        let trace = self.record_query(&obs, sql, &mut probe, &outcome.stats, total, rows, None);
        Ok(Executed {
            outcome: Timed::new(outcome, total),
            trace,
            analyzed: probe.analyzed,
        })
    }

    /// The plan this query runs: the cached one when the answers it was
    /// planned from are the answers `resolved` just gave, a fresh one
    /// otherwise — which replaces the cached one, so nothing ever has to
    /// invalidate the plan cache. Nothing is retained for a statement
    /// without a key (EXPLAIN ANALYZE passes none), over the text ceiling,
    /// or whose planning fails. What the cache did is noted on the probe.
    fn plan_for(
        &self,
        sql: &str,
        cache_key: Option<&str>,
        statement: Select<'_>,
        resolved: &ResolvedTables,
        with_shape: bool,
        probe: &mut QueryProbe,
    ) -> Result<Arc<PlannedStatement>> {
        let reparsed;
        let (stmt, family) = match statement {
            Select::Planned(planned) => {
                if planned.is_current(resolved) && (planned.shape.is_some() || !with_shape) {
                    #[cfg(debug_assertions)]
                    {
                        // The purity rule, checked wherever tests run: a
                        // reused plan is the plan planning would produce.
                        let fresh = PlannedStatement::plan(
                            &parse_select(sql)?,
                            resolved,
                            planned.shape.is_some(),
                        )?;
                        assert_eq!(*planned, fresh, "stale plan reused for {sql}");
                    }
                    probe.plan_cache = Some("plan_cache_hits");
                    return Ok(planned);
                }
                reparsed = parse_select(sql)?;
                (&reparsed, "plan_cache_replans")
            }
            Select::Parsed(stmt) | Select::Analyzed(stmt) => (stmt, "plan_cache_misses"),
        };
        let planned = PlannedStatement::plan(stmt, resolved, with_shape)?;
        Ok(match cache_key {
            Some(key) => {
                probe.plan_cache = Some(family);
                self.plans.lock().insert(key, planned)
            }
            None => Arc::new(planned),
        })
    }

    /// Write the one record of a traced query that just ended — answered,
    /// served from the result cache, or `failed` — and derive the rest from
    /// it: the record goes into the trace ring (and, over the threshold,
    /// the slow-query log, which shares the `Arc`, so a slow trace outlives
    /// the ring's FIFO eviction); with the gate on, its metric families and
    /// its statement profile are folded from it. Spans are not built here:
    /// whoever reads the trace projects them ([`Trace::spans`]).
    #[allow(clippy::too_many_arguments)]
    fn record_query(
        &self,
        obs: &Observability,
        sql: &str,
        probe: &mut QueryProbe,
        stats: &QueryStats,
        total: Cost,
        rows: u64,
        failed: Option<String>,
    ) -> Option<Arc<Trace>> {
        if !probe.active {
            return None;
        }
        let bd = &stats.breakdown;
        let record = QueryRecord {
            plan: bd.plan,
            rls: bd.rls,
            connect: bd.connect,
            execute: bd.execute,
            integrate: bd.integrate,
            serialize: bd.serialize,
            resilience: bd.resilience,
            rls_host: self.rls_host.clone(),
            exec_workers: stats.exec_workers,
            error: failed,
            branches: std::mem::take(&mut probe.branches),
        };
        let status: Cow<'static, str> = match &record.error {
            None => "ok".into(),
            Some(e) => format!("error: {e}").into(),
        };
        let (url, origin, started_us) = (self.url.clone(), probe.origin, probe.started_us);
        let tb = TraceBuilder::new(probe.trace_id);
        let mut trace = tb.finish(sql, url, origin, started_us, total, status, rows);
        trace.record = Some(record);
        trace.cache_hit = stats.cache_hit;
        if !stats.cache_hit {
            trace.distributed = stats.distributed;
            trace.degraded = stats.is_degraded();
            trace.retries = stats.retries as u64;
            trace.failovers = stats.failovers as u64;
        }
        let trace = obs.traces.record(trace);
        // A result-cache hit costs a fixed 300 µs and is never logged slow.
        let threshold_us = obs.slow_query_threshold_us();
        if threshold_us > 0 && total.as_micros() >= threshold_us && !stats.cache_hit {
            obs.slow_queries.record_shared(Arc::clone(&trace));
        }
        if obs.enabled() {
            self.fold_metrics(&obs.metrics, &trace, stats, probe);
            if obs.profiling() {
                self.fold_statement_profile(obs, &trace, stats, probe);
            }
        }
        Some(trace)
    }

    /// Every metric family a query writes, folded from its record.
    fn fold_metrics(
        &self,
        m: &MetricsRegistry,
        trace: &Trace,
        stats: &QueryStats,
        probe: &QueryProbe,
    ) {
        let url = &*self.url;
        if probe.stale_drop {
            m.inc("cache_stale_drops", url, 1);
        }
        if let Some(family) = probe.plan_cache {
            m.inc(family, url, 1);
        }
        let shape = probe.planned.as_ref().and_then(|p| p.shape.as_ref());
        for (kind, n) in shape.iter().flat_map(|shape| &shape.nodes) {
            m.inc("plan_nodes", kind, *n);
        }
        let Some(record) = &trace.record else { return };
        if record.error.is_some() {
            return m.inc("query_errors", url, 1);
        }
        m.inc("queries", url, 1);
        m.observe_us("query_latency_us", url, trace.duration_us);
        if trace.cache_hit {
            return m.inc("cache_hits", url, 1);
        }
        m.inc("rows_returned", url, stats.rows_returned as u64);
        m.inc("rows_fetched", url, stats.rows_fetched as u64);
        m.inc("bytes_fetched", url, stats.bytes_fetched as u64);
        for (family, n) in [
            ("reductions_shipped", stats.reductions_shipped as u64),
            ("bytes_saved", stats.bytes_saved as u64),
            ("exec_batches", stats.batches),
            ("rows_materialized", stats.rows_materialized),
            ("exec_morsels", stats.exec_morsels),
            ("cache_evictions", stats.cache_evictions as u64),
            ("breaker_opens", stats.breaker_opens as u64),
        ] {
            if n > 0 {
                m.inc(family, url, n);
            }
        }
        if stats.exec_workers > 1 {
            m.observe_us("exec_workers", url, stats.exec_workers);
        }
        for b in &record.branches {
            let latency = b.connect + b.exec + b.resilience;
            m.observe_us("branch_latency_us", &b.target, latency.as_micros());
            for rec in &b.attempts {
                let family = match rec.kind {
                    AttemptKind::Retry => "retries",
                    AttemptKind::Failover => "failovers",
                    AttemptKind::Hedge => "hedges",
                    AttemptKind::BreakerRejected => "breaker_rejections",
                    AttemptKind::Primary => continue,
                };
                m.inc(family, &b.target, 1);
            }
        }
    }

    /// Fold one execution into the statement profile store. Fingerprinting
    /// normalizes the SQL text and pairs it with the plan shape captured at
    /// planning time; time is attributed to the record's phases and, past
    /// the scatter, to the residual plan's nodes.
    fn fold_statement_profile(
        &self,
        obs: &Observability,
        trace: &Trace,
        stats: &QueryStats,
        probe: &mut QueryProbe,
    ) {
        let mut nodes = Vec::new();
        if !trace.cache_hit {
            nodes = phase_nodes(stats);
            nodes.append(&mut probe.node_actuals);
        }
        obs.statements.record(&StatementExec {
            normalized_sql: normalize_statement(&trace.sql),
            plan_shape: stats.plan_shape.clone(),
            latency_us: trace.duration_us,
            rows_returned: stats.rows_returned as u64,
            rows_fetched: stats.rows_fetched as u64,
            cache_hit: stats.cache_hit,
            error: trace.record.as_ref().is_some_and(|r| r.error.is_some()),
            now_us: self.clock.now().as_micros(),
            nodes,
        });
    }

    /// Resolve the tables a statement names (repeats allowed, as spelled):
    /// dictionary first, RLS fallback.
    fn resolve_tables<'a>(
        &self,
        live: &Live,
        names: impl IntoIterator<Item = &'a str>,
        stats: &mut QueryStats,
        bd: &mut CostBreakdown,
    ) -> Result<ResolvedTables> {
        let dict = self.dict.read();
        let epoch = self.dict_epoch.load(Ordering::Relaxed);
        let mut tables: Vec<ResolvedTable> = Vec::new();
        let mut servers: Vec<String> = vec![String::from(&*self.url)];
        let mut databases: Vec<String> = Vec::new();
        let now_us = self.clock.now().as_micros();
        let (replicas, policy) = (live.config.replicas, live.config.connections);
        for name in names {
            let key = normalize_ident(name);
            if tables.iter().any(|t| t.key == key) {
                continue;
            }
            let locations = dict.resolve_table(&key);
            if !locations.is_empty() {
                // Route on *measured* staleness: versions for Freshest,
                // replication age for BoundedStaleness. A bound no replica
                // meets is a typed error, never silently-stale data.
                let loc =
                    match replicas.choose_measured(&locations, &self.host, &self.topology, |loc| {
                        let replica = self.replicas.get(&key, &loc.database).unwrap_or_default();
                        replica.staleness(now_us)
                    }) {
                        Ok(loc) => loc.expect("non-empty candidates").clone(),
                        Err(best_age_us) => {
                            let bound_us = match replicas {
                                ReplicaPolicy::BoundedStaleness(b) => b,
                                _ => 0,
                            };
                            return Err(CoreError::StalenessBoundExceeded {
                                table: key,
                                bound_us,
                                best_age_us,
                            });
                        }
                    };
                if !databases.contains(&loc.database) {
                    databases.push(loc.database.clone());
                }
                let replica = self.replicas.get(&key, &loc.database).unwrap_or_default();
                let version = replica.version;
                stats.repl_lag_lsn = stats.repl_lag_lsn.max(replica.lag_lsn());
                stats.repl_age_us = stats.repl_age_us.max(replica.staleness(now_us).age_us);
                stats.versions.push(TableVersion {
                    table: key.clone(),
                    database: Some(loc.database.clone()),
                    version,
                });
                // Cardinality statistics: the replica's last measured live
                // count (registration / refresh / WAL apply) supersedes
                // the registration-time XSpec hint the resolver's `Home`
                // still carries.
                tables.push(ResolvedTable {
                    cols: dict.columns_of(&key).ok(),
                    key,
                    home: Home::Local(loc),
                    version: (version > 0).then_some(version),
                    row_count: replica.row_count,
                });
                continue;
            }
            // "If the tables requested are not registered with the JClarens
            // server, the RLS is used to lookup the physical locations."
            let Some(rls) = &self.rls else {
                return Err(CoreError::TableNotFound(name.to_string()));
            };
            // A leased answer is the RLS's own, asked under a minute of
            // virtual time ago: same servers, same choice, no round trip.
            let hosts = self
                .session
                .leased(policy, &key, now_us)
                .unwrap_or_else(|| {
                    let lookup = rls.lookup_from(&self.host, &self.topology, &key);
                    stats.rls_lookups += 1;
                    bd.rls += lookup.cost;
                    self.session.lease(policy, &key, &lookup.value, now_us);
                    lookup.value
                });
            let url = hosts
                .into_iter()
                .find(|u| **u != *self.url)
                .ok_or_else(|| CoreError::TableNotFound(name.to_string()))?;
            if !servers.contains(&url) {
                servers.push(url.clone());
            }
            // For remote tables the recorded version is the highest one
            // any replica has published to the RLS — the global version
            // state the cache validates against. The freshest replica's
            // published row count doubles as the planner's cardinality
            // estimate for the remote branch.
            let fresh = rls.freshness(&key).value;
            let best = fresh.iter().map(|(_, f)| *f).max_by_key(|f| f.version);
            let version = best.map(|f| f.version).unwrap_or(0);
            stats.versions.push(TableVersion {
                table: key.clone(),
                database: None,
                version,
            });
            tables.push(ResolvedTable {
                key,
                home: Home::Remote { server_url: url },
                cols: None,
                version: (version > 0).then_some(version),
                row_count: best.map(|f| f.rows).filter(|r| *r > 0),
            });
        }
        stats.servers = servers.len();
        stats.databases = databases.len()
            + tables
                .iter()
                .filter(|t| matches!(t.home, Home::Remote { .. }))
                .count();
        Ok(ResolvedTables { epoch, tables })
    }

    /// Re-consult the RLS for another server (not this one, not the
    /// excluded one) hosting *every* listed table. Returns the chosen
    /// URL plus the lookup cost/count incurred.
    fn rls_alternate(
        &self,
        tables: &[String],
        exclude: Option<&str>,
        branch: &str,
    ) -> Result<(String, Cost, usize)> {
        let rls = self
            .rls
            .as_ref()
            .ok_or_else(|| CoreError::BranchUnavailable {
                branch: branch.to_string(),
                attempts: 0,
                detail: "no RLS configured for failover".into(),
            })?;
        let mut cost = Cost::ZERO;
        let mut lookups = 0;
        let mut candidates: Option<Vec<String>> = None;
        for table in tables {
            let found = rls.lookup_from(&self.host, &self.topology, table);
            cost += found.cost;
            lookups += 1;
            let urls: Vec<String> = found
                .value
                .into_iter()
                .filter(|u| **u != *self.url && Some(u.as_str()) != exclude)
                .collect();
            candidates = Some(match candidates {
                None => urls,
                Some(prev) => prev.into_iter().filter(|u| urls.contains(u)).collect(),
            });
        }
        match candidates.and_then(|c| c.into_iter().next()) {
            Some(url) => Ok((url, cost, lookups)),
            None => Err(CoreError::BranchUnavailable {
                branch: branch.to_string(),
                attempts: 0,
                detail: "RLS knows no other server hosting every branch table".into(),
            }),
        }
    }

    /// The one query route: scatter the plan's sub-queries, gather their
    /// partials, integrate them under `residual`. Every branch runs through
    /// the resilience supervisor ([`Resilience::run_branch`]): retry with
    /// backoff, failover to the next replica, circuit breakers, optional
    /// hedging, and Strict vs Partial degradation.
    ///
    /// A plan with no residual (see [`lower`]) is the same scatter at
    /// arity one, and "no residual" changes exactly four things: nothing is
    /// integrated — the lone partial is the answer, uncharged and
    /// `distributed = false` (below); the branch pools wherever it can
    /// ([`Self::local_branch_attempt`]); a local branch never fails over
    /// through the RLS; and a replica must host every table of the
    /// statement ([`Self::branch_failover`]).
    fn scatter_gather(
        &self,
        live: &Live,
        branches: &[Branch],
        residual: Option<&LogicalPlan>,
        stats: &mut QueryStats,
        bd: &mut CostBreakdown,
        probe: &mut QueryProbe,
    ) -> Result<ResultSet> {
        let whole = residual.is_none();
        let policy = live.config.connections;
        // What a traced query's remote hops stitch their spans under.
        let ctx = probe.active.then_some(TraceContext {
            trace_id: probe.trace_id,
            span_id: 0,
        });
        stats.distributed = !whole;
        stats.subqueries = branches.iter().map(|b| b.tasks.len()).sum();

        // One branch per local database, one per remote server.
        // Connections are opened *inside* each branch so a dead server's
        // connect failure is retryable/failover-able; the winning attempt's
        // connect costs are still summed across branches (the 2005
        // serialized-DriverManager model — the dominant term of Table 1's
        // >10× penalty).
        let work = BranchWork {
            attempt: &|b, tasks| match b.database {
                Some(_) => self.local_branch_attempt(policy, &b.target, tasks, whole),
                None => self.remote_branch_attempt(policy, &b.target, tasks, ctx),
            },
            failover: Some(&|b, tasks| self.branch_failover(policy, b, tasks, whole, ctx)),
            placeholder: placeholder_partials,
        };
        let (outcomes, mut reduced_tasks) = self.scatter(live, branches, &work, stats);

        // Gather in branch order (local databases by name, then remote
        // servers), so the first error surfaced is the same one a full
        // scatter would surface — wave scheduling must not change which
        // failure the client sees.
        let mut partials = Vec::new();
        let mut costs = WaveCosts::new(live.config.dispatch);
        let mut outcomes = outcomes.into_iter().zip(branches);
        while let Some((outcome, branch)) = outcomes.next() {
            let report = match self.gather_branch(live, branch, outcome, stats, bd, &mut costs) {
                Ok(report) => report,
                Err(e) => {
                    // The branches past the first failure are not gathered,
                    // but those of them that failed too spent their
                    // supervision time on this query.
                    let failed = outcomes.filter_map(|(outcome, _)| outcome.err());
                    bd.resilience += failed.map(|f| f.resilience_cost).sum::<Cost>();
                    return Err(e);
                }
            };
            // Each partial was sized where it was fetched; nothing here
            // walks its values again.
            debug_assert_eq!(
                report.output.partials.len(),
                report.output.partial_bytes.len()
            );
            for (partial, bytes) in report
                .output
                .partials
                .iter()
                .zip(&report.output.partial_bytes)
            {
                stats.rows_fetched += partial.rows.len();
                stats.bytes_fetched += bytes;
                if !reduced_tasks.is_empty() {
                    let table = normalize_ident(&partial.table);
                    for task in reduced_tasks.iter_mut().filter(|task| task.table == table) {
                        task.rows += partial.rows.len();
                        task.bytes += bytes;
                    }
                }
            }
            partials.extend(report.output.partials);
            if probe.active {
                // The branch's entry in the query's record: the plan's
                // names shared, the supervisor's report moved in.
                probe.branches.push(BranchRecord {
                    label: Arc::clone(&branch.label),
                    target: Arc::clone(&branch.target),
                    connect: report.output.connect_cost,
                    exec: report.output.exec_cost,
                    resilience: report.resilience_cost,
                    attempts: report.attempts,
                    remote: report.output.remote_traces,
                    dropped: report.events.dropped,
                });
            }
        }
        costs.charge(bd);

        // Estimated bytes the reductions kept off the wire: what the
        // full-scatter fetch of each reduced branch was estimated to cost
        // (row estimate × observed row width) minus what it actually
        // fetched. An estimate by construction — the un-reduced fetch
        // never ran — and clamped at zero when the reduction lost.
        for task in &reduced_tasks {
            let Some(est) = task.est_rows else { continue };
            let width = task.bytes.checked_div(task.rows).map_or(32, |w| w.max(1)) as u64;
            stats.bytes_saved +=
                (est.saturating_mul(width)).saturating_sub(task.bytes as u64) as usize;
        }
        // The guard against Unity's full-materialization memory overload.
        if let Some(limit) = live.config.memory_limit {
            if stats.bytes_fetched > limit {
                let needed = stats.bytes_fetched;
                return Err(CoreError::MemoryLimit { needed, limit });
            }
        }
        let Some(residual) = residual else {
            // Nothing to integrate: the backend ran the whole statement, so
            // its partial is the answer and no merge time is charged.
            let answer = partials.pop().ok_or_else(|| {
                CoreError::Internal("whole-statement branch yielded nothing".into())
            })?;
            return Ok(ResultSet {
                columns: answer.columns,
                rows: answer.rows,
            });
        };
        bd.integrate += self.params.per_row_merge.scale(stats.rows_fetched as f64);
        let (rs, metrics) = if probe.profile_nodes {
            // EXPLAIN ANALYZE or the continuous-profiling gate: profile
            // the residual plan per node. The annotated rendering is only
            // kept for EXPLAIN ANALYZE; the flattened actuals feed the
            // statement profile store either way (the staging database
            // only lives inside the integration call).
            let (rs, metrics, annotated, actuals) =
                federate::integrate_analyzed(residual, &partials)?;
            if probe.want_profile {
                probe.analyzed = Some(annotated);
            }
            probe.node_actuals = actuals;
            (rs, metrics)
        } else {
            federate::integrate_metered(residual, &partials)?
        };
        stats.batches += metrics.batches;
        stats.rows_materialized += metrics.rows_materialized;
        stats.exec_workers = stats.exec_workers.max(metrics.workers);
        stats.exec_morsels += metrics.morsels;
        stats.selectivity = metrics.selectivity();
        Ok(rs)
    }

    /// Scatter: run `work` at every branch under the resilience supervisor,
    /// wave by wave, and hand back one outcome per branch, in branch order,
    /// with every task a reduction was injected into. Wave-0 branches
    /// dispatch immediately; a wave-N branch waits for waves < N so its
    /// semi-join reductions can be built from their partials. With
    /// reduction off every branch dispatches in wave 0 with no injected
    /// predicate — the full-scatter baseline; whole-statement plans and
    /// monitor fan-outs have a single wave anyway. The branches may belong
    /// to a cached plan other queries are running too, so they are only
    /// ever borrowed: a branch runs its own sub-queries, or this query's
    /// copy of them when a reduction was injected.
    pub(crate) fn scatter(
        &self,
        live: &Live,
        branches: &[Branch],
        work: &BranchWork<'_>,
        stats: &mut QueryStats,
    ) -> (Vec<BranchOutcome>, Vec<ReducedTask>) {
        let reduce = live.config.distjoin;
        let run = |b: &Branch, tasks: &[SubQuery]| -> BranchOutcome {
            let mut attempt = || (work.attempt)(b, tasks);
            let mut failover = work.failover.map(|alternate| move || alternate(b, tasks));
            self.resilience.run_branch(
                &live.config.resilience,
                &self.clock,
                &b.label,
                &b.target,
                &mut attempt,
                failover.as_mut().map(|f| f as _),
                &|| (work.placeholder)(tasks),
            )
        };

        let mut outcomes: Vec<Option<BranchOutcome>> = branches.iter().map(|_| None).collect();
        let mut reduced_tasks: Vec<ReducedTask> = Vec::new();
        let max_wave = branches.iter().map(|b| b.wave_under(reduce)).max();
        for wave in 0..=max_wave.unwrap_or(0) {
            let wave_idx: Vec<usize> = (0..branches.len())
                .filter(|&i| branches[i].wave_under(reduce) == wave)
                .collect();
            if wave_idx.is_empty() {
                continue;
            }
            // Inject this wave's planned reductions from the partials
            // earlier waves fetched. A reduction whose source is unclean
            // (errored, dropped under Partial degradation, or missing the
            // key column) is silently skipped: that one join degrades to
            // full scatter, never a wrong answer. An applied predicate
            // conjoins with whatever the planner already pushed down.
            let mut wave_tasks: Vec<Cow<'_, [SubQuery]>> = wave_idx
                .iter()
                .map(|&i| Cow::Borrowed(&branches[i].tasks[..]))
                .collect();
            for (&i, tasks) in wave_idx.iter().zip(&mut wave_tasks).filter(|_| reduce) {
                for (t, planned) in branches[i].tasks.iter().enumerate() {
                    let mut injected = false;
                    for red in &planned.reductions {
                        let fetched = outcomes
                            .iter()
                            .filter_map(|o| o.as_ref()?.as_ref().ok())
                            .filter(|report| report.events.dropped.is_none())
                            .flat_map(|report| &report.output.partials)
                            .find(|p| normalize_ident(&p.table) == red.source_table);
                        let Some(keys) =
                            fetched.and_then(|p| federate::reduction_keys(p, &red.source_column))
                        else {
                            continue;
                        };
                        let pred = federate::reduction_predicate(&red.target_column, &keys);
                        let where_clause = &mut tasks.to_mut()[t].subquery.where_clause;
                        *where_clause = Some(match where_clause.take() {
                            Some(existing) => Expr::and(existing, pred),
                            None => pred,
                        });
                        stats.reductions_shipped += 1;
                        injected = true;
                    }
                    if injected {
                        reduced_tasks.push(ReducedTask {
                            table: normalize_ident(&planned.table),
                            est_rows: planned.est_rows,
                            ..ReducedTask::default()
                        });
                    }
                }
            }
            let wave_outcomes: Vec<BranchOutcome> = match live.config.dispatch {
                // The dispatching thread runs the wave's last branch and
                // helpers run the rest (`scatter::run_wave`). A panicking
                // branch becomes an error naming the branch instead of
                // tearing down the mediator.
                DispatchMode::Parallel => {
                    let run = &run;
                    let jobs = wave_idx
                        .iter()
                        .zip(&wave_tasks)
                        .map(|(&i, tasks)| move || run(&branches[i], tasks))
                        .collect();
                    scatter::run_wave(jobs)
                        .into_iter()
                        .zip(&wave_idx)
                        .map(|(outcome, &i)| {
                            outcome.unwrap_or_else(|detail| {
                                Err(BranchFailure {
                                    error: CoreError::BranchPanic {
                                        branch: branches[i].label.to_string(),
                                        detail,
                                    },
                                    resilience_cost: Cost::ZERO,
                                })
                            })
                        })
                        .collect()
                }
                DispatchMode::Sequential => wave_idx
                    .iter()
                    .zip(&wave_tasks)
                    .map(|(&i, tasks)| run(&branches[i], tasks))
                    .collect(),
            };
            for (&i, outcome) in wave_idx.iter().zip(wave_outcomes) {
                outcomes[i] = Some(outcome);
            }
        }
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every branch belongs to exactly one wave"))
            .collect();
        (outcomes, reduced_tasks)
    }

    /// Gather one branch: tell the RLS how a remote server behaved, fold
    /// the report's events and counters into `stats`, and split its time
    /// into the breakdown — connects summed, useful work and supervision
    /// overhead composed with the other branches of its wave (`costs`). A
    /// branch that failed outright charges the supervision time it accrued
    /// and hands its error back.
    pub(crate) fn gather_branch(
        &self,
        live: &Live,
        branch: &Branch,
        outcome: BranchOutcome,
        stats: &mut QueryStats,
        bd: &mut CostBreakdown,
        costs: &mut WaveCosts,
    ) -> Result<BranchReport> {
        // Repeated unreachable reports expire a server's catalog entries
        // (failure-driven expiry); a success clears the streak.
        if let (None, Some(rls)) = (&branch.database, &self.rls) {
            let server_url = &*branch.target;
            let answered = match outcome.as_ref().map_err(|failure| &failure.error) {
                Ok(report) => Some(report.events.exhausted_target.as_deref() != Some(server_url)),
                // Exhausted retryable failures: the server never answered.
                Err(CoreError::BranchUnavailable { .. }) => Some(false),
                // Breaker rejections, deadlines, and application errors
                // carry no fresh evidence about the server's reachability.
                Err(_) => None,
            };
            match answered {
                Some(true) => rls.report_reachable(server_url),
                Some(false) => {
                    let t = rls.report_unreachable(server_url);
                    self.session
                        .drop_leases_naming(live.config.connections, server_url);
                    stats.rls_lookups += 1;
                    let link = self.topology.link(&self.host, rls.host());
                    bd.rls += t.cost + link.round_trip(128, 16);
                }
                None => {}
            }
        }
        let report = outcome.map_err(|failure| {
            bd.resilience += failure.resilience_cost;
            failure.error
        })?;
        // Events and counters; not costs, which compose across branches.
        stats.retries += report.events.retries;
        stats.failovers += report.events.failovers;
        stats.hedges += report.events.hedges;
        stats.breaker_opens += report.events.breaker_opens;
        stats.breaker_rejections += report.events.breaker_rejections;
        if let Some(reason) = &report.events.dropped {
            stats.branches_dropped.push(BranchDrop {
                branch: branch.label.to_string(),
                reason: reason.clone(),
            });
        }
        stats.connections_opened += report.output.connections_opened;
        stats.pooled_hits += report.output.pooled_hits;
        stats.remote_forwards += report.output.remote_forwards;
        stats.rls_lookups += report.output.rls_lookups;
        // Work counters the remote mediator reported for its own hop —
        // without this merge, retries and connections behind the RPC
        // boundary would vanish from the caller's stats.
        for remote in &report.output.remote_stats {
            stats.absorb_remote(remote);
        }
        bd.connect += report.output.connect_cost;
        bd.rls += report.output.rls_cost;
        costs.add(branch.wave_under(live.config.distjoin), &report);
        Ok(report)
    }

    /// One attempt of a local branch: run every sub-query over the link
    /// the session hands out ([`Session::route`]) and pull the partials
    /// back. A link that was already open — a POOL-RAL handle, a kept JDBC
    /// connection — opens nothing and counts as a pooled hit; the
    /// transfer's origin is read off the connection string either way. The
    /// `whole` statement (the paper's non-distributed path) pools whatever
    /// [`ConnectionPolicy`] says.
    fn local_branch_attempt(
        &self,
        policy: ConnectionPolicy,
        url: &str,
        tasks: &[SubQuery],
        whole: bool,
    ) -> Result<BranchYield> {
        let link = self.session.link(policy, url, whole)?;
        let mut out = BranchYield {
            connect_cost: link.connect_cost.unwrap_or(Cost::ZERO),
            connections_opened: usize::from(link.connect_cost.is_some()),
            pooled_hits: usize::from(link.connect_cost.is_none()),
            ..BranchYield::default()
        };
        for task in tasks {
            let t = link.query(&task.subquery)?;
            // The one walk over the answer's values: the transfer is priced
            // on it, and the partial's own size follows from it.
            let sent = t.value.wire_size();
            let transfer = self.topology.transfer(&link.host, &self.host, sent);
            out.exec_cost += t.cost + transfer;
            let (partial, size) = Partial::from_sized_result(task.table.clone(), t.value, sent);
            out.partials.push(partial);
            out.partial_bytes.push(size);
        }
        Ok(out)
    }

    /// Failover for a branch whose target is exhausted: another source
    /// hosting every table the branch reads ([`Branch::tables`]). A local
    /// branch prefers another local database (a replica mart); failing
    /// that — and for a remote branch always — the RLS is re-consulted for
    /// another server and the sub-queries are forwarded there.
    ///
    /// A `whole`-statement local branch stops at local replicas: it may
    /// itself be a remote mediator's sub-query, and forwarding it on could
    /// bounce between two mediators whose replicas are both down.
    fn branch_failover(
        &self,
        policy: ConnectionPolicy,
        branch: &Branch,
        tasks: &[SubQuery],
        whole: bool,
        ctx: Option<TraceContext>,
    ) -> Result<BranchYield> {
        let tables = branch.tables();
        if let Some(primary_db) = &branch.database {
            let local_alt = {
                let dict = self.dict.read();
                tables.first().and_then(|first| {
                    dict.resolve_table(first).into_iter().find(|loc| {
                        &loc.database != primary_db
                            && *loc.url != *branch.target
                            && tables.iter().all(|t| {
                                dict.resolve_table(t)
                                    .iter()
                                    .any(|l| l.database == loc.database)
                            })
                    })
                })
            };
            if let Some(loc) = local_alt {
                return self.local_branch_attempt(policy, &loc.url, tasks, whole);
            }
            if whole {
                return Err(CoreError::BranchUnavailable {
                    branch: branch.label.to_string(),
                    attempts: 0,
                    detail: "no replica hosts every referenced table".into(),
                });
            }
        }
        // A remote branch rules out the server that just failed. A local
        // branch has none to rule out: its target is a database URL, which
        // no Clarens server URL the RLS returns could equal.
        let failed_server = branch.database.is_none().then_some(&*branch.target);
        let (alt, rls_cost, lookups) = self.rls_alternate(&tables, failed_server, &branch.label)?;
        let mut out = self.remote_branch_attempt(policy, &alt, tasks, ctx)?;
        out.rls_cost += rls_cost;
        out.rls_lookups += lookups;
        Ok(out)
    }

    /// One attempt of a remote branch: forward its sub-queries over the
    /// session's channel to the peer (logging in when there is none). A
    /// kept channel carries them all in one `query_federated` call — one
    /// forward, one Clarens request and response, one round trip for the
    /// wave; the 2005 prototype made one call per table, and `PerQuery`
    /// still does. A call of one statement is the same bytes on both arms.
    fn remote_branch_attempt(
        &self,
        policy: ConnectionPolicy,
        url: &str,
        tasks: &[SubQuery],
        ctx: Option<TraceContext>,
    ) -> Result<BranchYield> {
        let mut peer = self.session.peer(policy, url)?;
        let mut out = BranchYield {
            remote_forwards: tasks.len(),
            ..BranchYield::default()
        };
        let per_call = if policy.keeps() {
            tasks.len().max(1)
        } else {
            1
        };
        for chunk in tasks.chunks(per_call) {
            let mut sqls = chunk
                .iter()
                .map(|task| WireValue::Str(render_select(&task.subquery, &NeutralStyle)));
            let statements = match chunk.len() {
                1 => sqls.next().expect("a chunk of one"),
                _ => WireValue::List(sqls.collect()),
            };
            let params = [statements, TraceContext::wire_opt(ctx)];
            let t = peer.call("query_federated", &params)?;
            let tables = chunk.iter().map(|task| task.table.as_str());
            out.exec_cost += t.cost + self.params.remote_forward;
            for (partial, remote_stats, remote_spans) in decode_federated_many(tables, t.value)? {
                out.partial_bytes.push(partial.wire_size());
                out.partials.push(partial);
                out.remote_stats.push(remote_stats);
                if !remote_spans.is_empty() {
                    out.remote_traces.push(remote_spans);
                }
            }
        }
        out.connect_cost = peer.connect_cost;
        Ok(out)
    }

    // ---- EXPLAIN / EXPLAIN ANALYZE routing ----

    /// Handle `EXPLAIN [ANALYZE] SELECT …`: render the four-layer plan
    /// description as a one-column result set (one row per line). ANALYZE
    /// additionally executes the statement — bypassing the result cache —
    /// and appends actual rows, the virtual-time breakdown, resilience
    /// events, and (on the federated path) the residual plan annotated
    /// per node with estimated vs actual rows, loops, and time.
    fn query_explain(&self, live: &Live, sql: &str) -> Result<Timed<QueryOutcome>> {
        let Statement::Explain { analyze, stmt } = parse(sql)? else {
            return Err(CoreError::Internal(
                "EXPLAIN routing expected an EXPLAIN statement".into(),
            ));
        };
        let mut text = self.explain_stmt(live, &stmt)?;
        let mut stats = QueryStats::default();
        let mut cost = Cost::from_millis(2);
        if analyze {
            let executed = self.run_select(live, sql, None, Select::Analyzed(&stmt), None)?;
            stats = executed.outcome.value.stats;
            explain::push_analysis(&mut text, &stats, executed.analyzed.as_deref());
            cost += executed.outcome.cost;
        }
        let result = explain::text_result(&text);
        stats.rows_returned = result.rows.len();
        Ok(Timed::new(QueryOutcome { result, stats }, cost))
    }
}

/// What `run_select` is handed to execute.
enum Select<'a> {
    /// A statement the plan cache knows: its text was not parsed.
    Planned(Arc<PlannedStatement>),
    /// A statement parsed for this query.
    Parsed(&'a SelectStmt),
    /// The statement of an EXPLAIN ANALYZE: executed with per-node
    /// profiling, and neither served from nor kept in any cache.
    Analyzed(&'a SelectStmt),
}

/// The tables a statement references, as spelled, repeats included.
fn table_names(stmt: &SelectStmt) -> impl Iterator<Item = &str> {
    stmt.table_refs().into_iter().map(|t| t.name.as_str())
}

/// One executed SELECT: the outcome, the recorded trace (when tracing was
/// on), and the annotated residual plan (EXPLAIN ANALYZE, federated path).
struct Executed {
    outcome: Timed<QueryOutcome>,
    trace: Option<Arc<Trace>>,
    analyzed: Option<String>,
}

impl Executed {
    /// Wrap an outcome that carries no trace (EXPLAIN, monitor queries).
    fn plain(outcome: Timed<QueryOutcome>) -> Executed {
        Executed {
            outcome,
            trace: None,
            analyzed: None,
        }
    }
}

/// A sub-query dispatched with a semi-join reduction injected: what the
/// un-reduced fetch was estimated at, and what the partials answering for
/// its table turned out to be.
#[derive(Default)]
pub(crate) struct ReducedTask {
    /// Normalized table name.
    table: String,
    /// Estimated rows of the full-scatter fetch.
    est_rows: Option<u64>,
    rows: usize,
    bytes: usize,
}

/// What one query notes while it executes, sealed into its record when it
/// ends ([`DataAccessService::record_query`]).
#[derive(Default)]
struct QueryProbe {
    /// Tracing gate snapshot for this query.
    active: bool,
    /// This query's trace id, and its caller's when it is a remote hop.
    trace_id: u64,
    origin: Option<u64>,
    /// Virtual-clock reading when the query started.
    started_us: u64,
    /// EXPLAIN ANALYZE: profile the residual plan and keep the annotated
    /// rendering.
    want_profile: bool,
    /// Run the residual plan analyzed and collect per-node actuals for the
    /// statement profile store (EXPLAIN ANALYZE, or the profiling gate).
    profile_nodes: bool,
    /// A result-cache entry was dropped as stale before executing.
    stale_drop: bool,
    /// The plan-cache counter this query moves, and the plan it ran.
    plan_cache: Option<&'static str>,
    planned: Option<Arc<PlannedStatement>>,
    /// One record per scatter branch, in gather order.
    branches: Vec<BranchRecord>,
    /// Annotated residual plan (federated EXPLAIN ANALYZE only).
    analyzed: Option<String>,
    /// Residual-plan node actuals (federated path, `profile_nodes` on).
    node_actuals: Vec<NodeContribution>,
}

/// Phase-level time attribution of one execution, from its virtual-time
/// breakdown — always available, even when per-plan-node profiling is off
/// or the query never reached the residual plan.
fn phase_nodes(stats: &QueryStats) -> Vec<NodeContribution> {
    let bd = &stats.breakdown;
    [
        ("phase:plan", bd.plan, 0u64),
        ("phase:rls", bd.rls, 0),
        ("phase:connect", bd.connect, 0),
        ("phase:execute", bd.execute, stats.rows_fetched as u64),
        ("phase:integrate", bd.integrate, 0),
        ("phase:serialize", bd.serialize, stats.rows_returned as u64),
        ("phase:resilience", bd.resilience, 0),
    ]
    .into_iter()
    .filter(|(_, cost, _)| *cost > Cost::ZERO)
    .map(|(node, cost, rows)| NodeContribution {
        node: node.to_string(),
        us: cost.as_micros(),
        rows,
    })
    .collect()
}

/// Output column names of a statement's projection, when they are all
/// statically knowable (no wildcards). Used to build honest empty
/// placeholders for dropped branches under the Partial policy.
fn stmt_output_columns(stmt: &SelectStmt) -> Option<Vec<String>> {
    stmt.items
        .iter()
        .map(|item| match item {
            SelectItem::Expr {
                alias: Some(alias), ..
            } => Some(alias.clone()),
            SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => Some(c.column.clone()),
            _ => None,
        })
        .collect()
}

/// Zero-row placeholder partials for every task of a branch — `None` if any
/// sub-query's output columns cannot be determined statically (the Partial
/// policy then falls back to a hard error for that branch).
fn placeholder_partials(tasks: &[SubQuery]) -> Option<Vec<Partial>> {
    tasks
        .iter()
        .map(|task| {
            stmt_output_columns(&task.subquery).map(|columns| Partial {
                table: task.table.clone(),
                columns,
                rows: Vec::new(),
            })
        })
        .collect()
}

// ---- Clarens service binding ----

/// A degraded result must never cross the wire: the RPC result carries no
/// dropped-branch annotation, so the caller would mistake it for the
/// complete answer. Refuse instead — the caller's own resilience layer
/// decides whether to retry, fail over, or degrade with annotation.
fn degraded_guard(stats: &QueryStats) -> gridfed_clarens::Result<()> {
    if stats.is_degraded() {
        let reasons: Vec<&str> = stats
            .branches_dropped
            .iter()
            .map(|d| d.reason.as_str())
            .collect();
        return Err(ClarensError::ServiceFault(format!(
            "degraded result withheld from remote caller: {}",
            reasons.join("; ")
        )));
    }
    Ok(())
}

/// A method's first parameter; without one, `usage` as a `BadParams`.
fn first_param<'a>(params: &'a [WireValue], usage: &str) -> gridfed_clarens::Result<&'a WireValue> {
    let missing = || ClarensError::BadParams(usage.into());
    params.first().ok_or_else(missing)
}

impl Service for DataAccessService {
    fn name(&self) -> &str {
        "das"
    }

    fn methods(&self) -> Vec<String> {
        vec![
            "query".into(),
            "query_federated".into(),
            "explain".into(),
            "tables".into(),
            "databases".into(),
            "register_database".into(),
            "refresh_schemas".into(),
            "monitor_fetch".into(),
        ]
    }

    fn call(
        &self,
        method: &str,
        params: &[WireValue],
    ) -> gridfed_clarens::Result<Timed<WireValue>> {
        let fault = |e: CoreError| ClarensError::ServiceFault(e.to_string());
        match method {
            // The paper's client-facing form: a 2-D vector of strings.
            "query" => {
                let sql = first_param(params, "query(sql) needs 1 param")?.as_str()?;
                let t = self.query(sql).map_err(fault)?;
                degraded_guard(&t.value.stats)?;
                Ok(Timed::new(
                    WireValue::Grid(t.value.result.to_vector()),
                    t.cost,
                ))
            }
            // Mediator-to-mediator form: typed rows plus the remote
            // mediator's work counters and span list, so the caller can
            // absorb the stats and graft the spans into one stitched trace.
            // The first param is one statement, answered `[result, stats,
            // spans]`, or a list of them — what a kept channel has for this
            // peer in one wave — answered with a list of those replies in
            // statement order: each statement runs as it would alone, in
            // order, and the first that fails (or comes out degraded) fails
            // the call. The optional second param carries the caller's
            // trace context.
            "query_federated" => {
                let usage = "query_federated(sql | [sql, …], ctx?) needs sql";
                let ctx = params.get(1).and_then(TraceContext::from_wire);
                let answer = |sql: &str| -> gridfed_clarens::Result<Timed<WireValue>> {
                    let ex = self.query_entry(&self.live(), sql, ctx).map_err(fault)?;
                    degraded_guard(&ex.outcome.value.stats)?;
                    // The reply is the one reader of this hop's spans on the
                    // query path: it encodes a borrowed view, keeping nothing.
                    let spans = match &ex.trace {
                        Some(trace) => spans_to_wire(&trace.span_view()),
                        None => WireValue::List(Vec::new()),
                    };
                    Ok(Timed::new(
                        WireValue::List(vec![
                            result_to_wire(&ex.outcome.value.result),
                            stats_to_wire(&ex.outcome.value.stats),
                            spans,
                        ]),
                        ex.outcome.cost,
                    ))
                };
                let batch = match first_param(params, usage)? {
                    WireValue::List(batch) => batch,
                    one => return answer(one.as_str()?),
                };
                let sqls: Vec<&str> = batch
                    .iter()
                    .map(WireValue::as_str)
                    .collect::<gridfed_clarens::Result<_>>()?;
                if sqls.is_empty() {
                    return Err(ClarensError::BadParams(usage.into()));
                }
                let mut cost = Cost::ZERO;
                let mut replies = Vec::with_capacity(sqls.len());
                for sql in sqls {
                    let reply = answer(sql)?;
                    cost += reply.cost;
                    replies.push(reply.value);
                }
                Ok(Timed::new(WireValue::List(replies), cost))
            }
            "explain" => {
                let sql = first_param(params, "explain(sql) needs 1 param")?.as_str()?;
                let t = self.explain(sql).map_err(fault)?;
                Ok(Timed::new(WireValue::Str(t), Cost::from_millis(2)))
            }
            "tables" => Ok(Timed::new(
                names_to_wire(&self.local_tables()),
                Cost::from_micros(200),
            )),
            "databases" => Ok(Timed::new(
                names_to_wire(&self.databases()),
                Cost::from_micros(200),
            )),
            "register_database" => {
                let url = first_param(params, "register_database(url) needs 1 param")?.as_str()?;
                let t = self.register_database(url).map_err(fault)?;
                Ok(Timed::new(WireValue::Str(t.value), t.cost))
            }
            "refresh_schemas" => {
                let t = self.refresh_schemas().map_err(fault)?;
                Ok(Timed::new(names_to_wire(&t.value), t.cost))
            }
            // Producer side of monitor federation: export this mediator's
            // rows of the requested `gridfed_monitor.*` tables. The SQL is
            // evaluated by the *consumer*, so the answer is always this
            // mediator's complete local view — no degradation to guard.
            "monitor_fetch" => {
                let names = first_param(params, "monitor_fetch(tables) needs 1 param")?;
                let tables = wire_to_names(names)?;
                let partials = self.monitor_export(&tables).map_err(fault)?;
                let rows: usize = partials.iter().map(|p| p.rows.len()).sum();
                let cost =
                    Cost::from_micros(500) + self.params.per_row_serialize.scale(rows as f64);
                Ok(Timed::new(monitor_partials_to_wire(&partials), cost))
            }
            other => Err(ClarensError::NoMethod {
                service: "das".into(),
                method: other.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::cache::{PLAN_CACHE_CAPACITY, PLAN_TEXT_CEILING};
    use crate::grid::GridBuilder;
    use gridfed_obs::Span;
    use gridfed_storage::Value;

    #[test]
    fn explain_describes_each_plan_shape() {
        let grid = GridBuilder::new().with_seed(23).build().expect("grid");
        let das = grid.service(0);

        let single = das
            .explain("SELECT e_id FROM ntuple_events WHERE e_id < 5")
            .expect("explain single");
        assert!(single.contains("SINGLE DATABASE"), "{single}");
        assert!(single.contains("POOL-RAL"), "{single}");

        let fed = das
            .explain(
                "SELECT e.e_id FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id WHERE e.energy > 1.0",
            )
            .expect("explain federated");
        assert!(fed.contains("FEDERATED (2 sub-queries)"), "{fed}");
        assert!(fed.contains("mart_mysql"), "{fed}");
        assert!(fed.contains("energy"), "pushed predicate shown: {fed}");

        let fwd = das
            .explain("SELECT mean_value FROM detector_summary")
            .expect("explain forward");
        assert!(fwd.contains("FORWARD ALL"), "{fwd}");
        assert!(fwd.contains("RLS"), "{fwd}");

        // explain is side-effect-free: no partial results appear anywhere,
        // and the query still runs fine afterwards.
        assert!(das
            .query("SELECT e_id FROM ntuple_events WHERE e_id < 3")
            .is_ok());
    }

    #[test]
    fn memory_guard_bounds_partial_materialization() {
        let grid = GridBuilder::new().with_seed(37).build().expect("grid");
        let das = grid.service(0);
        let sql = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                   JOIN run_summary s ON e.run_id = s.run_id";

        // Unbounded: works, and reports how much it materialized.
        let ok = das.query(sql).expect("unbounded");
        assert!(ok.value.stats.bytes_fetched > 0);

        // A guard below the query's needs rejects it cleanly.
        das.reconfigure(|c| c.memory_limit = Some(64));
        let err = das.query(sql).unwrap_err();
        assert!(
            matches!(err, CoreError::MemoryLimit { needed, limit: 64 } if needed > 64),
            "got {err:?}"
        );

        // A generous guard admits it; removing the guard restores default.
        das.reconfigure(|c| c.memory_limit = Some(10 << 20));
        assert!(das.query(sql).is_ok());
        das.reconfigure(|c| c.memory_limit = None);
        assert!(das.query(sql).is_ok());
    }

    #[test]
    fn result_cache_serves_hits_until_invalidated() {
        let grid = GridBuilder::new().with_seed(29).build().expect("grid");
        let das = grid.service(0);
        let sql = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                   JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 10";

        // Off by default.
        let cold = das.query(sql).expect("cold");
        assert!(!cold.value.stats.cache_hit);
        let again = das.query(sql).expect("again");
        assert!(!again.value.stats.cache_hit, "cache is opt-in");

        das.reconfigure(|c| c.result_cache = Some(DEFAULT_CACHE_CAPACITY));
        let miss = das.query(sql).expect("miss");
        assert!(!miss.value.stats.cache_hit);
        let hit = das.query(sql).expect("hit");
        assert!(hit.value.stats.cache_hit);
        assert_eq!(hit.value.result, miss.value.result);
        assert!(
            hit.cost.as_millis_f64() < 5.0,
            "cache hit should be nearly free, was {}",
            hit.cost
        );

        // Dictionary changes invalidate.
        das.unregister_database("mart_mssql");
        // run_summary is gone now; re-querying must NOT serve stale rows.
        assert!(das.query(sql).is_err(), "stale cache must not answer");

        das.reconfigure(|c| c.result_cache = None);
        let off = das
            .query("SELECT e_id FROM ntuple_events WHERE e_id < 2")
            .expect("off");
        assert!(!off.value.stats.cache_hit);
    }

    #[test]
    fn cache_is_lru_bounded_and_counts_evictions() {
        let grid = GridBuilder::new().with_seed(29).build().expect("grid");
        let das = grid.service(0);
        das.reconfigure(|c| c.result_cache = Some(2));
        let q1 = "SELECT e_id FROM ntuple_events WHERE e_id < 2";
        let q2 = "SELECT e_id FROM ntuple_events WHERE e_id < 3";
        let q3 = "SELECT e_id FROM ntuple_events WHERE e_id < 4";

        assert_eq!(das.query(q1).expect("q1").value.stats.cache_evictions, 0);
        assert_eq!(das.query(q2).expect("q2").value.stats.cache_evictions, 0);
        // Touch q1 so q2 becomes the least recently used…
        assert!(das.query(q1).expect("q1 hit").value.stats.cache_hit);
        // …then overflow: q3's insert must evict exactly one entry (q2).
        let third = das.query(q3).expect("q3").value;
        assert!(!third.stats.cache_hit);
        assert_eq!(third.stats.cache_evictions, 1);
        assert!(das.query(q1).expect("q1 kept").value.stats.cache_hit);
        assert!(das.query(q3).expect("q3 kept").value.stats.cache_hit);
        assert!(
            !das.query(q2).expect("q2 evicted").value.stats.cache_hit,
            "LRU entry should have been evicted"
        );
    }

    #[test]
    fn cache_key_ignores_insignificant_whitespace() {
        let grid = GridBuilder::new().with_seed(29).build().expect("grid");
        let das = grid.service(0);
        das.reconfigure(|c| c.result_cache = Some(DEFAULT_CACHE_CAPACITY));
        let miss = das
            .query("SELECT e_id FROM ntuple_events WHERE e_id < 5")
            .expect("miss");
        assert!(!miss.value.stats.cache_hit);
        let hit = das
            .query("  SELECT   e_id\n  FROM ntuple_events\tWHERE e_id < 5 ")
            .expect("hit");
        assert!(hit.value.stats.cache_hit, "reformatted query should hit");
        assert_eq!(hit.value.result, miss.value.result);
    }

    #[test]
    fn a_line_comment_ends_at_its_newline_in_the_cache_key() {
        // The first statement's comment swallows the rest of the text; the
        // second's ends at the newline, so `AND e_id < 2` is live. They
        // must never answer for each other, whichever is cached first.
        let one_line = "SELECT e_id FROM ntuple_events WHERE e_id < 3 -- c1 AND e_id < 2";
        let two_lines = "SELECT e_id FROM ntuple_events WHERE e_id < 3 -- c1\n AND e_id < 2";
        for order in [[one_line, two_lines], [two_lines, one_line]] {
            let grid = GridBuilder::new().with_seed(29).build().expect("grid");
            let das = grid.service(0);
            das.reconfigure(|c| c.result_cache = Some(DEFAULT_CACHE_CAPACITY));
            for sql in order {
                let out = das.query(sql).expect(sql).value;
                assert!(!out.stats.cache_hit, "{sql:?}");
                let rows = if sql == one_line { 3 } else { 2 };
                assert_eq!(out.result.len(), rows, "{sql:?}");
            }
            // Each is still itself on the way back out of both caches.
            for sql in order {
                let out = das.query(sql).expect(sql).value;
                assert!(out.stats.cache_hit, "{sql:?}");
                let rows = if sql == one_line { 3 } else { 2 };
                assert_eq!(out.result.len(), rows, "{sql:?}");
            }
        }
    }

    /// `(hits, misses, replans)` of one mediator's plan cache.
    fn plan_counters(das: &DataAccessService) -> (u64, u64, u64) {
        let m = &das.observability().metrics;
        (
            m.counter("plan_cache_hits", das.url()),
            m.counter("plan_cache_misses", das.url()),
            m.counter("plan_cache_replans", das.url()),
        )
    }

    #[test]
    fn plan_cache_is_lru_bounded() {
        let grid = GridBuilder::new()
            .with_seed(29)
            .with_observability(true)
            .build()
            .expect("grid");
        let das = grid.service(0);
        let q = |k: usize| format!("SELECT e_id FROM ntuple_events WHERE e_id < {k}");
        // Ten times the capacity in distinct statements: the cache holds
        // the last `capacity` of them and nothing more.
        for k in 0..10 * PLAN_CACHE_CAPACITY {
            das.query(&q(k)).expect("distinct statement");
        }
        assert_eq!(das.plans.lock().len(), PLAN_CACHE_CAPACITY);
        assert_eq!(plan_counters(das), (0, 10 * PLAN_CACHE_CAPACITY as u64, 0));

        // Touch the oldest survivor so the next oldest becomes the least
        // recently used…
        let oldest = 9 * PLAN_CACHE_CAPACITY;
        das.query(&q(oldest)).expect("oldest survivor");
        assert_eq!(plan_counters(das).0, 1, "still cached");
        // …then overflow by one: exactly that one goes.
        das.query(&q(10 * PLAN_CACHE_CAPACITY)).expect("overflow");
        assert_eq!(das.plans.lock().len(), PLAN_CACHE_CAPACITY);
        das.query(&q(oldest)).expect("kept");
        das.query(&q(oldest + 2)).expect("kept");
        assert_eq!(plan_counters(das).0, 3, "touched and younger entries kept");
        let misses = plan_counters(das).1;
        das.query(&q(oldest + 1)).expect("evicted");
        assert_eq!(plan_counters(das).1, misses + 1, "LRU entry was evicted");
    }

    #[test]
    fn statements_differing_in_pushed_down_literals_share_one_residual_plan() {
        let grid = GridBuilder::new().with_seed(29).build().expect("grid");
        let das = grid.service(0);
        let join = |k: usize| {
            format!(
                "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < {k}"
            )
        };
        let residual_of = |sql: &str| {
            das.query(sql).expect("answered");
            let planned = das.plans.lock().get(sql).expect("kept");
            Arc::clone(planned.residual.as_ref().expect("federated"))
        };
        let (seven, eight) = (residual_of(&join(7)), residual_of(&join(8)));
        assert!(
            Arc::ptr_eq(&seven, &eight),
            "`e_id < K` went to the backend"
        );
        // A literal the mediator itself evaluates keeps them apart.
        let other = residual_of(
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < s.n_meas + 7",
        );
        assert!(!Arc::ptr_eq(&seven, &other));
    }

    #[test]
    fn an_over_ceiling_statement_is_answered_and_not_retained() {
        let grid = GridBuilder::new()
            .with_seed(29)
            .with_observability(true)
            .build()
            .expect("grid");
        let das = grid.service(0);
        // The text ceiling counts the normalised key, to the byte.
        let padded = |len: usize| {
            let bare = "SELECT e_id FROM ntuple_events WHERE e_id < 7 AND '' <> 'b'";
            let sql = bare.replace("''", &format!("'{}'", "a".repeat(len - bare.len())));
            assert_eq!(statement_key(&sql).expect("lexes").len(), len);
            sql
        };
        for _ in 0..3 {
            let over = das.query(&padded(PLAN_TEXT_CEILING + 1)).expect("answered");
            assert_eq!(over.value.result.len(), 7);
        }
        assert_eq!(das.plans.lock().len(), 0);
        assert_eq!(plan_counters(das), (0, 3, 0), "planned fresh every time");
        for _ in 0..3 {
            let at = das.query(&padded(PLAN_TEXT_CEILING)).expect("answered");
            assert_eq!(at.value.result.len(), 7);
        }
        assert_eq!(das.plans.lock().len(), 1);
        assert_eq!(plan_counters(das), (2, 4, 0));
    }

    #[test]
    fn a_statement_that_cannot_be_planned_is_resolved_and_refused_every_time() {
        let grid = GridBuilder::new()
            .with_seed(11)
            .single_server()
            .replicate_events(true)
            .with_policy(ReplicaPolicy::BoundedStaleness(120_000))
            .with_replication(crate::grid::ReplicationConfig::default())
            .with_observability(true)
            .build()
            .expect("grid");
        let das = grid.service(0);
        for _ in 0..3 {
            let err = das.query("SELECT x FROM no_such_table").unwrap_err();
            assert!(matches!(err, CoreError::TableNotFound(t) if t == "no_such_table"));
            assert!(das.query("SELECT FROM WHERE").is_err(), "does not parse");
            assert!(das.query("SELECT 'unterminated").is_err(), "does not lex");
        }
        assert_eq!(das.plans.lock().len(), 0);

        // A cached plan does not shield a statement from the staleness
        // bound: resolution runs first, every time.
        let sql = "SELECT e_id FROM ntuple_events WHERE e_id < 5";
        grid.pump_replication();
        assert_eq!(das.query(sql).expect("in bound").value.result.len(), 5);
        assert_eq!(das.plans.lock().len(), 1);
        das.clock().advance(Cost::from_millis(500));
        for _ in 0..3 {
            let err = das.query(sql).unwrap_err();
            assert!(
                matches!(err, CoreError::StalenessBoundExceeded { .. }),
                "got {err:?}"
            );
        }
        grid.pump_replication();
        assert_eq!(das.query(sql).expect("back in bound").value.result.len(), 5);
        assert_eq!(
            plan_counters(das),
            (1, 1, 0),
            "the plan survived the errors"
        );
    }

    #[test]
    fn plan_cache_counters_and_shapes_are_the_same_on_hit_and_miss() {
        let grid = GridBuilder::new().with_seed(31).build().expect("grid");
        let das = grid.service(0);
        let obs = das.observability();
        let statements = [
            "SELECT e_id, energy FROM ntuple_events WHERE e_id < 20",
            "SELECT detector, mean_value FROM detector_summary",
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 20",
        ];
        // Planned with the gate off: no shape was computed or kept.
        for sql in statements {
            assert_eq!(das.query(sql).expect(sql).value.stats.plan_shape, "");
        }
        assert_eq!(
            plan_counters(das),
            (0, 0, 0),
            "nothing counted with the gate off"
        );

        // Gate on: the shape-less entries are re-planned once, then reused,
        // and every execution reports the same shape and the same nodes.
        obs.set_enabled(true);
        let nodes = || -> Vec<(String, u64)> {
            let counters = obs.metrics.counters();
            let of_family = counters.iter().filter(|(k, _)| k.family == "plan_nodes");
            of_family.map(|(k, v)| (k.label.to_string(), *v)).collect()
        };
        for sql in statements {
            let before = nodes();
            let planned = das.query(sql).expect(sql).value.stats.plan_shape;
            let first = nodes();
            let reused = das.query(sql).expect(sql).value.stats.plan_shape;
            let second = nodes();
            assert!(planned.starts_with("project("), "{planned}");
            assert_eq!(planned, reused, "{sql}");
            let delta = |a: &[(String, u64)], b: &[(String, u64)]| -> Vec<(String, u64)> {
                b.iter()
                    .map(|(label, n)| {
                        let was = a.iter().find(|(l, _)| l == label).map_or(0, |(_, n)| *n);
                        (label.clone(), n - was)
                    })
                    .collect()
            };
            let (planning, reuse) = (delta(&before, &first), delta(&first, &second));
            let active = |d: &[(String, u64)]| -> Vec<(String, u64)> {
                d.iter().filter(|(_, n)| *n > 0).cloned().collect()
            };
            assert!(!active(&planning).is_empty(), "{sql}");
            assert_eq!(active(&planning), active(&reuse), "{sql}");
        }
        assert_eq!(plan_counters(das), (3, 0, 3));

        // The counters are rows of the monitor surface like any other.
        let rows = das
            .query(
                "SELECT family, value FROM gridfed_monitor.metrics \
                 WHERE family = 'plan_cache_hits' OR family = 'plan_cache_replans' \
                 ORDER BY family",
            )
            .expect("monitor")
            .value
            .result;
        let seen: Vec<Vec<Value>> = rows.rows.iter().map(|r| r.values().to_vec()).collect();
        assert_eq!(
            seen,
            vec![
                vec![Value::Text("plan_cache_hits".into()), Value::Int(3)],
                vec![Value::Text("plan_cache_replans".into()), Value::Int(3)],
            ]
        );
    }

    #[test]
    fn query_stats_are_a_pure_function_of_the_seed() {
        // Two grids built alike, the same statements in the same order:
        // every `QueryStats` field is equal, none masked — nothing in it is
        // read off a wall clock.
        let run = || {
            let grid = GridBuilder::new()
                .with_seed(29)
                .with_observability(true)
                .build()
                .expect("grid");
            let statements = [
                "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 10",
                "SELECT detector, mean_value FROM detector_summary",
                "SELECT e_id FROM ntuple_events WHERE e_id < 5",
            ];
            let stats = |sql| grid.service(0).query(sql).expect(sql).value.stats;
            statements.map(stats)
        };
        let (first, second) = (run(), run());
        assert!(first[0].distributed && first[0].batches > 0);
        assert!(first[1].remote_forwards > 0);
        assert_eq!(first, second);
    }

    #[test]
    fn replies_are_byte_identical_to_the_commit_before_core_wire() {
        // Length, FNV-1a and virtual cost of the two mediator-to-mediator
        // replies for a fixed seed, recorded at d9bdf82 (where the stats
        // list, the rows and the monitor partials had a codec each).
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let grid = GridBuilder::new()
            .with_seed(23)
            .with_observability(true)
            .build()
            .expect("grid");
        let das = grid.service(0);
        let sql = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                   JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 10";
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 3,
        };
        let params = [WireValue::Str(sql.into()), ctx.to_wire()];
        let reply = das.call("query_federated", &params).expect("reply");
        let bytes = reply.value.encode();
        assert_eq!(
            (bytes.len(), fnv(&bytes), reply.cost.as_micros()),
            (1463, 0x510f_4753_5ea8_0ca3, 244_848)
        );
        let names = ["queries", "metrics", "spans"].map(|t| format!("gridfed_monitor.{t}"));
        let reply = das
            .call("monitor_fetch", &[names_to_wire(&names)])
            .expect("reply");
        let bytes = reply.value.encode();
        assert_eq!(
            (bytes.len(), fnv(&bytes), reply.cost.as_micros()),
            (3946, 0xa75c_d486_7154_b6b9, 2060)
        );
    }

    #[test]
    fn explain_available_over_rpc() {
        let grid = GridBuilder::new().with_seed(23).build().expect("grid");
        let session = grid.servers[0].login("grid", "grid").expect("login").value;
        let out = grid.servers[0]
            .handle(
                &session,
                "das",
                "explain",
                &[gridfed_clarens::WireValue::Str(
                    "SELECT e_id FROM ntuple_events".into(),
                )],
            )
            .expect("rpc explain");
        assert!(out.value.as_str().expect("string plan").contains("plan:"));
    }

    #[test]
    fn parallel_executor_matches_sequential_and_traces_workers() {
        let sql = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                   JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 50";
        let seq = GridBuilder::new().with_seed(41).build().expect("grid");
        let par = GridBuilder::new()
            .with_seed(41)
            .with_parallelism(4)
            .with_morsel_rows(16)
            .with_observability(true)
            .build()
            .expect("grid");
        let s = seq.service(0).query(sql).expect("seq").value;
        let p = par.service(0).query(sql).expect("par").value;
        assert_eq!(s.result, p.result, "parallel result must be identical");
        assert_eq!(s.stats.exec_workers, 0, "default grid stays sequential");
        assert!(p.stats.exec_workers > 1, "got {}", p.stats.exec_workers);
        assert!(p.stats.exec_morsels > 1, "got {}", p.stats.exec_morsels);

        // The integrate phase is parallel-composed with one contained span
        // per worker, and the trace still composes.
        let traces = par.service(0).observability().traces.snapshot();
        let t = traces.last().expect("trace recorded");
        t.check_composition(5).expect("composition holds");
        let workers: Vec<&Span> = t
            .spans()
            .iter()
            .filter(|sp| sp.name.starts_with("worker-"))
            .collect();
        assert_eq!(workers.len(), p.stats.exec_workers as usize);
        assert!(workers.iter().all(|sp| sp.parallel));
    }

    #[test]
    fn admission_front_door_admits_and_rejects_typed() {
        let grid = GridBuilder::new()
            .with_seed(43)
            .with_admission(AdmissionConfig {
                slots: 1,
                queue_limit: 0,
            })
            .with_observability(true)
            .build()
            .expect("grid");
        let das = grid.service(0);
        let sql = "SELECT e_id FROM ntuple_events WHERE e_id < 3";
        let ok = das.query_as("cms", sql).expect("admitted");
        assert_eq!(ok.value.stats.queue_depth, 0);

        // Hold the only slot: the front door refuses with a typed error
        // naming the tenant and the bound — never a silent drop.
        let admission = das.admission().expect("configured");
        let (guard, _) = admission.acquire("hold").expect("slot");
        let err = das.query_as("cms", sql).unwrap_err();
        assert!(
            matches!(
                &err,
                CoreError::AdmissionFull { tenant, queued: 0, limit: 0 } if tenant == "cms"
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("admission queue full"));
        drop(guard);
        assert!(das.query_as("cms", sql).is_ok(), "slot freed");
        // Rejections are visible on the monitor surface.
        let rejected = das
            .query("SELECT value FROM gridfed_monitor.metrics WHERE family = 'admission_rejected'")
            .expect("monitor");
        assert_eq!(
            rejected.value.result.rows[0].values()[0],
            Value::Int(1),
            "one rejection counted"
        );
    }
}
