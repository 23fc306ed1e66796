//! One-call assembly of a complete simulated grid.
//!
//! [`GridBuilder`] wires together everything the paper's Figure 1 shows:
//! normalized source databases at Tier-1/Tier-2, the Tier-0 warehouse, the
//! ETL pipeline, warehouse views materialized into vendor-diverse data
//! marts, one or two JClarens servers hosting the Data Access Service, the
//! central RLS, and a client. Examples, integration tests, and the
//! figure/table benchmarks all build their worlds through this.

use crate::admission::AdmissionConfig;
use crate::config::MediatorConfig;
use crate::error::CoreError;
use crate::placement::ReplicaPolicy;
use crate::resilience::ResilienceConfig;
use crate::service::{ConnectionPolicy, DataAccessService, DispatchMode, QueryOutcome};
use crate::Result;
use gridfed_clarens::client::ClarensClient;
use gridfed_clarens::directory::Directory;
use gridfed_clarens::server::ClarensServer;
use gridfed_faults::{FaultPlan, VirtualClock};
use gridfed_ntuple::spec::NtupleSpec;
use gridfed_ntuple::NtupleGenerator;
use gridfed_obs::{ObsConfig, SloObjective};
use gridfed_rls::RlsServer;
use gridfed_simnet::cost::Cost;
use gridfed_simnet::link::Link;
use gridfed_simnet::params::CostParams;
use gridfed_simnet::topology::Topology;
use gridfed_sqlkit::parser::parse_select;
use gridfed_sqlkit::ResultSet;
use gridfed_storage::{ColumnDef, DataType, Schema, Value};
use gridfed_vendors::{DriverRegistry, SimServer, VendorKind};
use gridfed_warehouse::etl::{EtlPipeline, EtlReport, TransportMode};
use gridfed_warehouse::marts::{materialize_into_mart, refresh_mart, MartReport};
use gridfed_warehouse::views::ViewDef;
use gridfed_warehouse::{wal_head, ReplBatchReport, ReplLag, ReplicationStream};
use std::sync::{Arc, Mutex};

/// Continuous-replication knobs for a grid built
/// [`GridBuilder::with_replication`].
#[derive(Debug, Clone, Copy)]
pub struct ReplicationConfig {
    /// Virtual time between stream polls — the dominant term in
    /// steady-state replica staleness (a caught-up replica is at most one
    /// interval old).
    pub poll_interval: Cost,
    /// Max WAL records pulled per poll (bounds batch memory and lets a
    /// lagging replica converge over several cycles).
    pub batch_limit: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            poll_interval: Cost::from_millis(50),
            batch_limit: gridfed_warehouse::DEFAULT_BATCH_LIMIT,
        }
    }
}

/// One mart's WAL-shipping stream plus the table names it replicates.
struct MartStream {
    mart_idx: usize,
    tables: Vec<String>,
    stream: ReplicationStream,
}

/// One normalized source database.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Host/node and database-server name.
    pub name: String,
    /// Vendor product.
    pub vendor: VendorKind,
    /// Number of events this source holds (a slice of the shared dataset).
    pub events: usize,
}

/// Builder for a complete simulated grid.
#[derive(Debug, Clone)]
pub struct GridBuilder {
    seed: u64,
    sources: Vec<SourceSpec>,
    /// What every mediator of the grid is built with.
    config: MediatorConfig,
    wan: bool,
    mediators: usize,
    replicate_events: bool,
    catalog_padding: usize,
    transport: TransportMode,
    fault_plan: Option<Arc<FaultPlan>>,
    observability: bool,
    replication: Option<ReplicationConfig>,
    obs_config: Option<ObsConfig>,
    slos: Vec<SloObjective>,
}

impl Default for GridBuilder {
    fn default() -> Self {
        GridBuilder {
            seed: 2005,
            sources: Vec::new(),
            config: MediatorConfig::default(),
            wan: false,
            mediators: 2,
            replicate_events: false,
            catalog_padding: 0,
            transport: TransportMode::Staged,
            fault_plan: None,
            observability: false,
            replication: None,
            obs_config: None,
            slos: Vec::new(),
        }
    }
}

impl GridBuilder {
    /// Fresh builder with paper-like defaults.
    pub fn new() -> GridBuilder {
        GridBuilder::default()
    }

    /// Deterministic seed for the workload generator.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a normalized source database holding `events` events.
    pub fn source(mut self, name: impl Into<String>, vendor: VendorKind, events: usize) -> Self {
        self.sources.push(SourceSpec {
            name: name.into(),
            vendor,
            events,
        });
        self
    }

    /// Sub-query dispatch mode (parallel by default; sequential for the
    /// Unity-style ablation).
    pub fn with_dispatch(mut self, dispatch: DispatchMode) -> Self {
        self.config.dispatch = dispatch;
        self
    }

    /// Replica-selection policy.
    pub fn with_policy(mut self, policy: ReplicaPolicy) -> Self {
        self.config.replicas = policy;
        self
    }

    /// What every mediator keeps open between queries: the default,
    /// [`ConnectionPolicy::Session`], or [`ConnectionPolicy::PerQuery`] —
    /// the 2005 prototype as measured, the arm the paper's Table 1 and
    /// Figure 6 are regenerated on.
    pub fn with_connection_policy(mut self, policy: ConnectionPolicy) -> Self {
        self.config.connections = policy;
        self
    }

    /// Put WAN links between the two Clarens servers and from the client
    /// to the far server (the paper's wide-area future-work test).
    pub fn with_wan(mut self, wan: bool) -> Self {
        self.wan = wan;
        self
    }

    /// Enable query tracing and metrics on every mediator in the grid.
    pub fn with_observability(mut self, on: bool) -> Self {
        self.observability = on;
        self
    }

    /// Host all marts on one Clarens server instead of two.
    pub fn single_server(mut self) -> Self {
        self.mediators = 1;
        self
    }

    /// Number of Clarens mediator servers hosting the marts (1–3; default
    /// 2). Three mediators spreads the marts over node1/node2/node3 — the
    /// smallest grid where a federated monitor query proves it consulted
    /// *every* peer, not just "the other one".
    pub fn with_mediators(mut self, n: usize) -> Self {
        self.mediators = n.clamp(1, 3);
        self
    }

    /// Observability knobs (trace/statement/history capacities, profiling,
    /// slow-query threshold) for every mediator. Implies
    /// [`GridBuilder::with_observability`].
    pub fn with_obs_config(mut self, config: ObsConfig) -> Self {
        self.observability = true;
        self.obs_config = Some(config);
        self
    }

    /// Declare a per-tenant latency/error SLO on every mediator, evaluated
    /// as error-budget burn over the metrics-history ring
    /// (`gridfed_monitor.slo`). Implies [`GridBuilder::with_observability`].
    pub fn with_slo(mut self, objective: SloObjective) -> Self {
        self.observability = true;
        self.slos.push(objective);
        self
    }

    /// Replicate the ntuple events mart on the second server too
    /// (exercises replica selection).
    pub fn replicate_events(mut self, yes: bool) -> Self {
        self.replicate_events = yes;
        self
    }

    /// Add `n` small padding tables across the marts, approximating the
    /// paper's 1700-table catalog without 1700 interesting tables.
    pub fn catalog_padding(mut self, n: usize) -> Self {
        self.catalog_padding = n;
        self
    }

    /// ETL transport mode (staging file vs direct streaming).
    pub fn with_transport(mut self, transport: TransportMode) -> Self {
        self.transport = transport;
        self
    }

    /// Install a seeded fault plan on the assembled grid: every mart,
    /// source, warehouse, Clarens server, the RLS, and the topology
    /// consult it, and the services share its virtual clock. Wired in at
    /// the *end* of assembly, so ETL and materialization run fault-free.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Configure branch resilience (retry/backoff, failover, breakers,
    /// hedging, degradation) on every Data Access Service.
    pub fn with_resilience(mut self, config: ResilienceConfig) -> Self {
        self.config.resilience = config;
        self
    }

    /// Worker threads per parallel operator in every mediator's executor
    /// (DESIGN.md §4.11). The default, 1, is the sequential executor.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Parallel morsel size in rows (default 4096); relations at or under
    /// one morsel always run sequentially.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.config.morsel_rows = rows;
        self
    }

    /// Install a bounded, tenant-fair admission queue on every mediator's
    /// client-facing front door.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.config.admission = Some(config);
        self
    }

    /// Turn on WAL-based continuous replication: the warehouse keeps a
    /// write-ahead log, every mart subscribes a [`ReplicationStream`] that
    /// log-ships new facts over its simnet link, and
    /// [`Grid::pump_replication`] advances all streams by one poll cycle.
    /// Pair with [`ReplicaPolicy::BoundedStaleness`] for guaranteed-lag
    /// routing on the measured staleness the streams publish.
    pub fn with_replication(mut self, config: ReplicationConfig) -> Self {
        self.replication = Some(config);
        self
    }

    /// Assemble the grid.
    pub fn build(mut self) -> Result<Grid> {
        if self.sources.is_empty() {
            // Paper-like default: Oracle slice at Tier-1 CERN, MySQL slice
            // at Tier-2 Caltech.
            self.sources.push(SourceSpec {
                name: "tier1.cern".into(),
                vendor: VendorKind::Oracle,
                events: 200,
            });
            self.sources.push(SourceSpec {
                name: "tier2.caltech".into(),
                vendor: VendorKind::MySql,
                events: 200,
            });
        }
        let total_events: usize = self.sources.iter().map(|s| s.events).sum();
        let spec = NtupleSpec::physics("ntuple", total_events);

        // ---- topology ----
        let mut topology = Topology::lan();
        for node in [
            "tier0.cern",
            "node1",
            "node2",
            "node3",
            "rls.cern",
            "client",
        ] {
            topology.add_node(node);
        }
        if self.wan {
            topology.set_link("node1", "node2", Link::wan());
            topology.set_link("client", "node2", Link::wan());
            topology.set_link("tier0.cern", "node2", Link::wan());
        }
        let topology = Arc::new(topology);

        let registry = Arc::new(DriverRegistry::with_standard_drivers());
        let directory = Directory::new();
        let rls = RlsServer::new("rls.cern");

        // ---- sources (normalized slices of one dataset) ----
        let mut sources = Vec::new();
        let mut offset = 0usize;
        for (i, s) in self.sources.iter().enumerate() {
            let server = SimServer::new(s.vendor, s.name.clone(), "ntuples");
            server.with_db_mut(|db| {
                // Seed differs per slice but derives from the builder seed,
                // so the full dataset is reproducible.
                NtupleGenerator::new(spec.clone(), self.seed.wrapping_add(i as u64))
                    .populate_source_range(db, offset, offset + s.events)
            })?;
            offset += s.events;
            registry.register_server(Arc::clone(&server));
            sources.push(server);
        }

        // ---- warehouse + ETL (Stage 1) ----
        let warehouse = SimServer::new(VendorKind::Oracle, "tier0.cern", "warehouse");
        registry.register_server(Arc::clone(&warehouse));
        // WAL goes on before the first write, so the log is a complete
        // ordered history and replication streams can subscribe anywhere.
        if self.replication.is_some() {
            warehouse.with_db_mut(|db| db.enable_wal());
        }
        let wconn = warehouse
            .connect("grid", "grid")
            .map_err(CoreError::Vendor)?
            .value;
        let pipeline = EtlPipeline::paper().with_mode(self.transport);
        let mut etl_reports = Vec::new();
        for src in &sources {
            let sconn = src
                .connect("grid", "grid")
                .map_err(CoreError::Vendor)?
                .value;
            let report = pipeline
                .run_batch(&sconn, &wconn, None)
                .map_err(|e| CoreError::Internal(format!("ETL failed: {e}")))?;
            etl_reports.push(report);
        }

        // ---- views + marts (Stage 2) ----
        let views = standard_views(&spec);
        // Mart placement by mediator count: 1 puts everything on node1,
        // 2 is the paper's split, 3 moves the sqlite mart to node3 so each
        // mediator owns data (and monitor state) of its own.
        let oracle_views = if self.replicate_events {
            vec![2, 0]
        } else {
            vec![2]
        };
        let (oracle_host, sqlite_host) = match self.mediators {
            1 => ("node1", "node1"),
            2 => ("node2", "node2"),
            _ => ("node2", "node3"),
        };
        let mart_plan: Vec<(&str, VendorKind, &str, Vec<usize>)> = vec![
            ("mart_mysql", VendorKind::MySql, "node1", vec![0]),
            ("mart_mssql", VendorKind::MsSql, "node1", vec![1]),
            ("mart_oracle", VendorKind::Oracle, oracle_host, oracle_views),
            ("mart_sqlite", VendorKind::Sqlite, sqlite_host, vec![3]),
        ];

        let mut marts = Vec::new();
        let mut mart_reports = Vec::new();
        for (name, vendor, host, view_ids) in &mart_plan {
            let mart = SimServer::new(*vendor, *host, *name);
            registry.register_server(Arc::clone(&mart));
            let mconn = mart
                .connect("grid", "grid")
                .map_err(CoreError::Vendor)?
                .value;
            for &vi in view_ids {
                let report =
                    materialize_into_mart(&views[vi], &wconn, &mconn, &topology, self.transport)
                        .map_err(|e| CoreError::Internal(format!("materialization failed: {e}")))?;
                mart_reports.push(report);
            }
            marts.push(mart);
        }

        // ---- catalog padding (the paper's 1700-table inventory) ----
        if self.catalog_padding > 0 {
            let pad_schema = Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("payload", DataType::Text),
            ])?;
            for i in 0..self.catalog_padding {
                let mart = &marts[i % marts.len()];
                mart.with_db_mut(|db| {
                    db.create_table(format!("pad_{i:04}"), pad_schema.clone())
                        .map(|_| ())
                })?;
            }
        }

        // ---- Clarens servers + Data Access Services ----
        let server_plan: Vec<(&str, &str)> = [
            ("clarens://node1:8443/das", "node1"),
            ("clarens://node2:8443/das", "node2"),
            ("clarens://node3:8443/das", "node3"),
        ][..self.mediators]
            .to_vec();
        let mut servers = Vec::new();
        let mut services = Vec::new();
        for (url, host) in &server_plan {
            let clarens = ClarensServer::new(*url, *host);
            // The services share the fault plan's clock, so their retries
            // observe its crash windows; without a plan each has its own.
            let clock = match &self.fault_plan {
                Some(plan) => plan.clock(),
                None => Arc::new(VirtualClock::new()),
            };
            let das = Arc::new(DataAccessService::configured(
                *url,
                *host,
                Arc::clone(&registry),
                Arc::clone(&directory),
                Arc::clone(&topology),
                Some(Arc::clone(&rls)),
                self.config.clone(),
                clock,
            ));
            clarens.register_service(Arc::clone(&das) as Arc<dyn gridfed_clarens::Service>);
            clarens.register_service(
                Arc::new(crate::jas::HistogramService::new(Arc::clone(&das)))
                    as Arc<dyn gridfed_clarens::Service>,
            );
            directory.register(Arc::clone(&clarens));
            servers.push(clarens);
            services.push(das);
        }

        // Register each mart with the service on its node (or the only
        // service).
        for mart in &marts {
            let das = services
                .iter()
                .find(|s| s.host() == mart.host())
                .unwrap_or(&services[0]);
            das.register_database(&mart_url(mart))?;
        }

        // ---- replication streams (one per mart, pre-fault assembly) ----
        // Each mart subscribes at the current WAL head: materialization
        // just copied that exact state, so the stream owes nothing yet.
        let mut repl_streams = Vec::new();
        if let Some(config) = &self.replication {
            for (idx, (_, _, _, view_ids)) in mart_plan.iter().enumerate() {
                let mart = &marts[idx];
                let mconn = mart
                    .connect("grid", "grid")
                    .map_err(CoreError::Vendor)?
                    .value;
                let stream_views: Vec<ViewDef> =
                    view_ids.iter().map(|&vi| views[vi].clone()).collect();
                let tables: Vec<String> =
                    stream_views.iter().map(|v| v.name().to_string()).collect();
                let stream = ReplicationStream::subscribe(
                    wconn.clone(),
                    mconn,
                    stream_views,
                    wal_head(&wconn),
                    0,
                )
                .with_batch_limit(config.batch_limit);
                repl_streams.push(MartStream {
                    mart_idx: idx,
                    tables,
                    stream,
                });
            }
        }

        // ---- client ----
        let mut client = ClarensClient::connect(
            &directory,
            server_plan[0].0,
            Arc::clone(&topology),
            "client",
        )?;
        client.login("grid", "grid")?;

        // ---- observability + faults (after assembly: ETL, materialization,
        // registration, and login all ran on a healthy, unobserved grid) ----
        if self.observability {
            for das in &services {
                let obs = das.observability();
                obs.set_enabled(true);
                if let Some(config) = &self.obs_config {
                    obs.configure(config);
                }
                for objective in &self.slos {
                    obs.slo.declare(objective.clone());
                }
            }
        }
        if let Some(plan) = &self.fault_plan {
            topology.set_conditions(Arc::clone(plan) as _);
            rls.set_fault_plan(Arc::clone(plan));
            for server in sources.iter().chain([&warehouse]).chain(&marts) {
                server.set_fault_plan(Arc::clone(plan));
            }
            for clarens in &servers {
                clarens.set_fault_plan(Arc::clone(plan));
            }
        }

        let refresh_plan = mart_plan
            .iter()
            .map(|(_, _, _, view_ids)| view_ids.clone())
            .collect();

        Ok(Grid {
            topology,
            registry,
            directory,
            rls,
            warehouse,
            sources,
            marts,
            servers,
            services,
            client,
            next_event: Mutex::new(total_events),
            transport: self.transport,
            refresh_plan,
            spec,
            etl_reports,
            mart_reports,
            fault_plan: self.fault_plan,
            repl_config: self.replication,
            repl_streams: Mutex::new(repl_streams),
        })
    }
}

/// Canonical connection URL for a mart server.
pub fn mart_url(mart: &Arc<SimServer>) -> String {
    match mart.kind() {
        VendorKind::Oracle => format!("oracle://grid/grid@{}:1521/{}", mart.host(), mart.db_name()),
        VendorKind::MySql => format!("mysql://grid:grid@{}:3306/{}", mart.host(), mart.db_name()),
        VendorKind::MsSql => format!(
            "mssql://{}:1433;database={};user=grid;password=grid",
            mart.host(),
            mart.db_name()
        ),
        VendorKind::Sqlite => format!("sqlite:/{}/{}.db", mart.host(), mart.db_name()),
    }
}

/// The four standard warehouse views the builder materializes.
pub fn standard_views(spec: &NtupleSpec) -> Vec<ViewDef> {
    vec![
        ViewDef::Pivot {
            name: "ntuple_events".into(),
            spec: spec.clone(),
        },
        ViewDef::Sql {
            name: "run_summary".into(),
            query: parse_select(
                "SELECT run_id, COUNT(*) AS n_meas, AVG(value) AS avg_value \
                 FROM fact_measurements GROUP BY run_id ORDER BY run_id",
            )
            .expect("static view SQL parses"),
        },
        ViewDef::Sql {
            name: "run_conditions".into(),
            query: parse_select(
                "SELECT run_id, detector, AVG(weight) AS avg_weight \
                 FROM fact_measurements GROUP BY run_id, detector ORDER BY run_id",
            )
            .expect("static view SQL parses"),
        },
        ViewDef::Sql {
            name: "detector_summary".into(),
            query: parse_select(
                "SELECT detector, COUNT(*) AS n_meas, AVG(value) AS mean_value \
                 FROM fact_measurements GROUP BY detector ORDER BY detector",
            )
            .expect("static view SQL parses"),
        },
    ]
}

/// Outcome of a grid query including the client-perceived response time.
#[derive(Debug, Clone, PartialEq)]
pub struct GridQuery {
    /// The merged 2-D result.
    pub result: ResultSet,
    /// Mediator statistics.
    pub stats: crate::stats::QueryStats,
    /// Virtual time inside the Data Access Service.
    pub service_cost: Cost,
    /// Client-perceived response time: request wire + Clarens dispatch +
    /// service + response wire (the quantity Table 1 / Figure 6 report).
    pub response_time: Cost,
}

/// A fully assembled grid.
pub struct Grid {
    /// The simulated network.
    pub topology: Arc<Topology>,
    /// Shared driver/server registry.
    pub registry: Arc<DriverRegistry>,
    /// Clarens server directory.
    pub directory: Arc<Directory>,
    /// The central Replica Location Service.
    pub rls: Arc<RlsServer>,
    /// The Tier-0 warehouse server.
    pub warehouse: Arc<SimServer>,
    /// Normalized source databases.
    pub sources: Vec<Arc<SimServer>>,
    /// Data-mart servers.
    pub marts: Vec<Arc<SimServer>>,
    /// Clarens servers.
    pub servers: Vec<Arc<ClarensServer>>,
    /// The Data Access Service behind each server.
    pub services: Vec<Arc<DataAccessService>>,
    client: ClarensClient,
    /// Next unused event id (sources were seeded with `[0, next_event)`);
    /// advanced by [`Grid::extend_sources`].
    next_event: Mutex<usize>,
    /// ETL/materialization transport mode the grid was built with.
    transport: TransportMode,
    /// View indices (into [`standard_views`]) hosted by each mart, aligned
    /// with `marts` — the plan [`Grid::refresh_marts`] replays.
    refresh_plan: Vec<Vec<usize>>,
    /// The shared ntuple dataset shape.
    pub spec: NtupleSpec,
    /// Stage-1 ETL reports (one per source).
    pub etl_reports: Vec<EtlReport>,
    /// Stage-2 materialization reports (one per view placement).
    pub mart_reports: Vec<MartReport>,
    /// The installed fault plan, when the grid was built with one
    /// (its clock drives fault windows; its stats count injections).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Replication knobs, when the grid was built `with_replication`.
    repl_config: Option<ReplicationConfig>,
    /// One WAL-shipping stream per mart (empty without replication).
    repl_streams: Mutex<Vec<MartStream>>,
}

impl Grid {
    /// Execute a query as the client: through the first Clarens server's
    /// Data Access Service, with full wire + dispatch costing.
    pub fn query(&self, sql: &str) -> Result<GridQuery> {
        self.query_as("default", sql)
    }

    /// [`Grid::query`] with an explicit tenant label, exercising the
    /// mediator's admission front door when one is configured.
    pub fn query_as(&self, tenant: &str, sql: &str) -> Result<GridQuery> {
        let das = &self.services[0];
        let t = das.query_as(tenant, sql)?;
        let QueryOutcome { result, stats } = t.value;
        let params = CostParams::paper_2005();
        let link = self.topology.link("client", self.servers[0].host());
        let wire = link.round_trip(64 + sql.len(), 32 + result.wire_size());
        let response_time = params.clarens_request + t.cost + params.clarens_response + wire;
        Ok(GridQuery {
            result,
            stats,
            service_cost: t.cost,
            response_time,
        })
    }

    /// Execute through the real RPC path (client → Clarens server →
    /// service), returning the paper's 2-D string vector and the measured
    /// response time. Used by integration tests to validate the full stack.
    pub fn query_rpc(&self, sql: &str) -> Result<(Vec<Vec<String>>, Cost)> {
        let t = self.client.call(
            "das",
            "query",
            &[gridfed_clarens::WireValue::Str(sql.into())],
        )?;
        let grid = t.value.as_grid().map_err(CoreError::Rpc)?.clone();
        Ok((grid, t.cost))
    }

    /// The Data Access Service on a given server index.
    pub fn service(&self, idx: usize) -> &Arc<DataAccessService> {
        &self.services[idx]
    }

    /// Append `extra` new events (run 0) with full measurement rows to the
    /// first source database — the upstream change an incremental-ETL +
    /// mart-refresh cycle then propagates downstream. Returns the first
    /// new event id.
    pub fn extend_sources(&self, extra: usize) -> Result<usize> {
        let mut next = self.next_event.lock().expect("event counter poisoned");
        let first = *next;
        self.sources[0].with_db_mut(|db| -> gridfed_storage::Result<()> {
            // Seed varies per extension so repeated extensions draw
            // different values, deterministically.
            let mut generator = NtupleGenerator::new(self.spec.clone(), first as u64);
            let batch = generator.measurement_batch(first, extra);
            let events = db.table_mut("events")?;
            for e in first..first + extra {
                events.insert(vec![Value::Int(e as i64), Value::Int(0), Value::Float(1.0)])?;
            }
            db.table_mut("measurements")?.insert_many(batch)?;
            Ok(())
        })?;
        *next = first + extra;
        Ok(first)
    }

    /// Incremental ETL sweep: move only measurements beyond the warehouse
    /// high-water mark from every source into the warehouse fact table.
    pub fn run_incremental_etl(&self) -> Result<Vec<EtlReport>> {
        let pipeline = EtlPipeline::paper().with_mode(self.transport);
        let wconn = self
            .warehouse
            .connect("grid", "grid")
            .map_err(CoreError::Vendor)?
            .value;
        let mut reports = Vec::new();
        for src in &self.sources {
            let sconn = src
                .connect("grid", "grid")
                .map_err(CoreError::Vendor)?
                .value;
            let report = pipeline
                .run_incremental(&sconn, &wconn)
                .map_err(|e| CoreError::Internal(format!("incremental ETL failed: {e}")))?;
            reports.push(report);
        }
        Ok(reports)
    }

    /// Staleness-aware refresh of every mart from the warehouse: marts
    /// whose views have nothing new upstream are skipped, pivot marts
    /// merge only the delta, and each refresh swaps in atomically and
    /// bumps the table's data version. Each refresh is reported to the
    /// mart's owning mediator, which publishes freshness to the RLS,
    /// records refresh metrics and a refresh trace, and invalidates
    /// exactly the cached results the refresh staled.
    pub fn refresh_marts(&self) -> Result<Vec<MartReport>> {
        let views = standard_views(&self.spec);
        let wconn = self
            .warehouse
            .connect("grid", "grid")
            .map_err(CoreError::Vendor)?
            .value;
        let mut reports = Vec::new();
        for (mart, view_ids) in self.marts.iter().zip(&self.refresh_plan) {
            let das = self
                .services
                .iter()
                .find(|s| s.host() == mart.host())
                .unwrap_or(&self.services[0]);
            let mconn = mart
                .connect("grid", "grid")
                .map_err(CoreError::Vendor)?
                .value;
            for &vi in view_ids {
                let now_us = das.clock().now().as_micros();
                let report = refresh_mart(
                    &views[vi],
                    &wconn,
                    &mconn,
                    &self.topology,
                    self.transport,
                    now_us,
                )
                .map_err(|e| CoreError::Internal(format!("mart refresh failed: {e}")))?;
                das.note_mart_refresh(mart.db_name(), &report, now_us);
                reports.push(report);
            }
        }
        Ok(reports)
    }

    /// Whether the grid was built with continuous replication.
    pub fn replication_enabled(&self) -> bool {
        self.repl_config.is_some()
    }

    /// Advance continuous replication by one poll cycle: virtual time
    /// moves forward by the configured poll interval, then every mart's
    /// stream pulls the next WAL batch over its simnet link and replays
    /// it, reporting to the mart's owning mediator (which publishes the
    /// measured lag to the RLS and records wal/replay metrics and
    /// `Replicate` traces). A stream that cannot reach the warehouse —
    /// partitioned link, crashed server — does *not* fail the pump: the
    /// stall is reported and the replica keeps aging until the fault
    /// clears. The warehouse log is then checkpointed up to the lowest LSN
    /// every stream has acknowledged. Returns the reports of the streams
    /// that did apply.
    pub fn pump_replication(&self) -> Vec<ReplBatchReport> {
        let Some(config) = &self.repl_config else {
            return Vec::new();
        };
        // Advance each distinct clock exactly once (with a fault plan all
        // services share its clock; without one each has its own).
        let mut clocks: Vec<Arc<gridfed_faults::VirtualClock>> = Vec::new();
        for das in &self.services {
            let clock = das.clock();
            if !clocks.iter().any(|c| Arc::ptr_eq(c, &clock)) {
                clocks.push(clock);
            }
        }
        for clock in &clocks {
            clock.advance(config.poll_interval);
        }
        let mut reports = Vec::new();
        let mut streams = self.repl_streams.lock().expect("stream lock poisoned");
        for ms in streams.iter_mut() {
            let mart = &self.marts[ms.mart_idx];
            let das = self
                .services
                .iter()
                .find(|s| s.host() == mart.host())
                .unwrap_or(&self.services[0]);
            let now_us = das.clock().now().as_micros();
            match ms.stream.poll(&self.topology, now_us) {
                Ok(t) => {
                    das.note_replication(mart.db_name(), &ms.tables, &t.value, t.cost, now_us);
                    reports.push(t.value);
                }
                Err(_) => {
                    das.note_replication_stall(
                        mart.db_name(),
                        &ms.tables,
                        &ms.stream.lag(),
                        now_us,
                    );
                }
            }
        }
        // Checkpoint: no stream will ask for a record at or below the
        // lowest acknowledged LSN again, so the warehouse stops retaining
        // it. A stalled stream holds the checkpoint back — the log keeps
        // what it still owes.
        if let Some(acked) = streams.iter().map(|ms| ms.stream.acked_lsn()).min() {
            self.warehouse.with_db_mut(|db| db.checkpoint_wal(acked));
        }
        reports
    }

    /// Pump replication for `cycles` poll intervals (convenience for
    /// steady-state and convergence tests).
    pub fn pump_replication_for(&self, cycles: usize) -> Vec<ReplBatchReport> {
        let mut all = Vec::new();
        for _ in 0..cycles {
            all.extend(self.pump_replication());
        }
        all
    }

    /// Current lag bookkeeping of every replication stream:
    /// `(mart database, lag)`, in mart order.
    pub fn replication_lag(&self) -> Vec<(String, ReplLag)> {
        self.repl_streams
            .lock()
            .expect("stream lock poisoned")
            .iter()
            .map(|ms| {
                (
                    self.marts[ms.mart_idx].db_name().to_string(),
                    ms.stream.lag(),
                )
            })
            .collect()
    }

    /// Whether every stream has applied everything the warehouse logged
    /// (no stream owes records as of its last successful poll).
    pub fn replication_caught_up(&self) -> bool {
        let wconn = match self.warehouse.connect("grid", "grid") {
            Ok(t) => t.value,
            Err(_) => return false,
        };
        let head = wal_head(&wconn);
        self.repl_streams
            .lock()
            .expect("stream lock poisoned")
            .iter()
            .all(|ms| ms.stream.acked_lsn() >= head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_options_assemble_valid_grids() {
        // Single server: one Clarens instance hosts all four marts.
        let g = GridBuilder::new()
            .with_seed(3)
            .single_server()
            .build()
            .unwrap();
        assert_eq!(g.servers.len(), 1);
        assert_eq!(g.services[0].databases().len(), 4);
        let out = g
            .query(
                "SELECT e.e_id FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 3",
            )
            .unwrap();
        assert_eq!(out.stats.servers, 1);
        assert_eq!(out.stats.remote_forwards, 0, "no forwarding needed");

        // Direct ETL transport produces the same warehouse contents.
        let staged = GridBuilder::new().with_seed(3).build().unwrap();
        let direct = GridBuilder::new()
            .with_seed(3)
            .with_transport(TransportMode::Direct)
            .build()
            .unwrap();
        assert_eq!(
            staged
                .warehouse
                .with_db(|db| db.table("fact_measurements").unwrap().len()),
            direct
                .warehouse
                .with_db(|db| db.table("fact_measurements").unwrap().len())
        );

        // Replicated events: both policies find a replica.
        let rep = GridBuilder::new()
            .with_seed(3)
            .replicate_events(true)
            .build()
            .unwrap();
        assert_eq!(
            rep.service(1)
                .dictionary_snapshot()
                .resolve_table("ntuple_events")
                .len(),
            1,
            "server 2 sees its own replica"
        );
    }

    fn small_grid() -> Grid {
        GridBuilder::new()
            .with_seed(7)
            .source("tier1.cern", VendorKind::Oracle, 60)
            .source("tier2.caltech", VendorKind::MySql, 60)
            .build()
            .expect("grid builds")
    }

    #[test]
    fn build_assembles_everything() {
        let g = small_grid();
        assert_eq!(g.sources.len(), 2);
        assert_eq!(g.marts.len(), 4);
        assert_eq!(g.servers.len(), 2);
        assert_eq!(g.etl_reports.len(), 2);
        // warehouse holds all measurements
        assert_eq!(
            g.warehouse
                .with_db(|db| db.table("fact_measurements").unwrap().len()),
            g.spec.measurement_rows()
        );
        // events mart holds one row per event
        assert_eq!(
            g.marts[0].with_db(|db| db.table("ntuple_events").unwrap().len()),
            g.spec.events
        );
    }

    #[test]
    fn local_single_table_query() {
        let g = small_grid();
        let out = g
            .query("SELECT e_id, energy FROM ntuple_events WHERE energy > 50.0")
            .unwrap();
        assert!(!out.result.is_empty());
        assert!(!out.stats.distributed);
        assert_eq!(out.stats.servers, 1);
        assert_eq!(out.stats.pooled_hits, 1, "POOL fast path expected");
        // Table 1 row 1 territory: well under 100 ms.
        assert!(
            out.response_time.as_millis_f64() < 100.0,
            "local query took {}",
            out.response_time
        );
    }

    #[test]
    fn distributed_two_database_join() {
        let sql = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                   JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 5";
        // The prototype as the paper measured it.
        let g = GridBuilder::new()
            .with_seed(7)
            .source("tier1.cern", VendorKind::Oracle, 60)
            .source("tier2.caltech", VendorKind::MySql, 60)
            .with_connection_policy(ConnectionPolicy::PerQuery)
            .build()
            .expect("grid builds");
        let out = g.query(sql).unwrap();
        assert_eq!(out.result.len(), 5);
        assert!(out.stats.distributed);
        assert_eq!(out.stats.databases, 2);
        assert_eq!(out.stats.servers, 1);
        assert!(out.stats.connections_opened >= 2);
        // >10× the local query, as in Table 1.
        assert!(
            out.response_time.as_millis_f64() > 300.0,
            "distributed query took {}",
            out.response_time
        );

        // The default: the one handshake POOL cannot hold, once.
        let g = small_grid();
        let first = g.query(sql).unwrap();
        assert_eq!(first.result, out.result);
        assert_eq!(first.stats.connections_opened, 1);
        let again = g.query(sql).unwrap();
        assert_eq!(again.result, out.result);
        assert_eq!(
            (again.stats.connections_opened, again.stats.pooled_hits),
            (0, 2)
        );
        assert!(
            again.response_time.as_millis_f64() < 60.0,
            "kept connections: {}",
            again.response_time
        );
    }

    #[test]
    fn two_server_query_uses_rls_and_forwarding() {
        let g = small_grid();
        let out = g
            .query(
                "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
                 FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id \
                 JOIN run_conditions c ON s.run_id = c.run_id \
                 JOIN detector_summary d ON c.detector = d.detector \
                 WHERE e.e_id < 3",
            )
            .unwrap();
        assert_eq!(out.stats.tables, 4);
        assert_eq!(out.stats.servers, 2);
        assert!(out.stats.rls_lookups >= 2);
        assert!(out.stats.remote_forwards >= 2);
        assert!(!out.result.is_empty());
        assert!(out.response_time.as_millis_f64() > 400.0);
    }

    #[test]
    fn rpc_path_matches_direct_path() {
        let g = small_grid();
        let direct = g
            .query("SELECT e_id FROM ntuple_events WHERE e_id < 4")
            .unwrap();
        let (grid, cost) = g
            .query_rpc("SELECT e_id FROM ntuple_events WHERE e_id < 4")
            .unwrap();
        assert_eq!(grid.len(), direct.result.len() + 1, "header + rows");
        assert!(cost > Cost::ZERO);
    }

    #[test]
    fn aggregates_federate_correctly() {
        let g = small_grid();
        // Count events per detector via a cross-database join, then check
        // against the single-mart ground truth.
        let out = g
            .query(
                "SELECT d.detector, COUNT(*) AS n FROM ntuple_events e \
                 JOIN run_conditions c ON e.run_id = c.run_id \
                 JOIN detector_summary d ON c.detector = d.detector \
                 GROUP BY d.detector ORDER BY d.detector",
            )
            .unwrap();
        assert!(!out.result.is_empty());
    }

    #[test]
    fn semi_join_reduction_matches_full_scatter_and_saves_bytes() {
        // A selective filter on the small side (run_summary, one row per
        // run) should ship its surviving run ids into the big side's
        // fetch instead of scattering all of ntuple_events.
        let sql = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                   JOIN run_summary s ON e.run_id = s.run_id \
                   WHERE s.run_id < 3 ORDER BY e.e_id";
        let g = small_grid();
        let reduced = g.query(sql).unwrap();
        for s in &g.services {
            s.reconfigure(|c| c.distjoin = false);
        }
        let full = g.query(sql).unwrap();
        assert_eq!(
            reduced.result, full.result,
            "reduction must not change results"
        );
        assert!(
            reduced.stats.reductions_shipped >= 1,
            "expected a shipped reduction, stats={:?}",
            reduced.stats
        );
        assert!(reduced.stats.bytes_saved > 0);
        assert!(
            reduced.stats.bytes_fetched < full.stats.bytes_fetched,
            "reduced {} vs full {}",
            reduced.stats.bytes_fetched,
            full.stats.bytes_fetched
        );
        assert_eq!(full.stats.reductions_shipped, 0);
        assert_eq!(full.stats.bytes_saved, 0);
    }

    #[test]
    fn explain_surfaces_estimates_and_reduction_strategy() {
        let g = small_grid();
        let out = g
            .query(
                "EXPLAIN SELECT e.e_id, s.n_meas FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id WHERE s.run_id < 3",
            )
            .unwrap();
        let text: String = out
            .result
            .rows
            .iter()
            .filter_map(|r| match r.values().first() {
                Some(Value::Text(s)) => Some(s.clone()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            text.contains(" [est "),
            "per-branch estimates missing:\n{text}"
        );
        assert!(
            text.contains("reduce `run_id` by keys of `run_summary`.`run_id` [in-list"),
            "reduction strategy line missing:\n{text}"
        );
    }

    #[test]
    fn explain_analyze_reports_reduction_savings() {
        let g = small_grid();
        let out = g
            .query(
                "EXPLAIN ANALYZE SELECT e.e_id, s.n_meas FROM ntuple_events e \
                 JOIN run_summary s ON e.run_id = s.run_id WHERE s.run_id < 3",
            )
            .unwrap();
        let text: String = out
            .result
            .rows
            .iter()
            .filter_map(|r| match r.values().first() {
                Some(Value::Text(s)) => Some(s.clone()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            text.contains("reductions shipped: "),
            "analyze section missing reduction line:\n{text}"
        );
        assert!(text.contains("est bytes saved: "), "{text}");
    }

    /// The warehouse log is bounded by its slowest subscriber: each pump
    /// checkpoints to the lowest acknowledged LSN, so a stalled stream
    /// holds exactly what it still owes and a caught-up grid holds nothing.
    #[test]
    fn pump_replication_checkpoints_the_wal_to_the_slowest_stream() {
        // mart_mysql is down for the first two poll intervals (50 ms each).
        let plan = FaultPlan::new(3).crash("mart_mysql", Cost::ZERO, Some(Cost::from_millis(120)));
        let g = GridBuilder::new()
            .with_seed(5)
            .source("tier1.cern", VendorKind::Oracle, 40)
            .source("tier2.caltech", VendorKind::MySql, 40)
            .with_replication(ReplicationConfig::default())
            .with_fault_plan(plan)
            .build()
            .unwrap();
        let retained = || g.warehouse.with_db(|db| db.wal().expect("WAL on").len());
        let built = g.warehouse.with_db(|db| db.wal_head_lsn());
        assert_eq!(
            retained() as u64,
            built,
            "nothing checkpointed before a pump"
        );

        g.extend_sources(5).unwrap();
        g.run_incremental_etl().unwrap();
        let owed = g.warehouse.with_db(|db| db.wal_head_lsn()) - built;
        assert!(owed > 0);
        g.pump_replication();
        assert!(!g.replication_caught_up(), "one stream is stalled");
        assert_eq!(
            retained() as u64,
            owed,
            "the build-time prefix is gone, the stalled stream's records are kept"
        );
        g.pump_replication();
        assert_eq!(retained() as u64, owed);

        g.pump_replication(); // 150 ms: the mart is back and catches up
        assert!(g.replication_caught_up());
        assert_eq!(retained(), 0, "every subscriber acknowledged the head");
        let n = g.query("SELECT COUNT(*) FROM ntuple_events").unwrap();
        assert_eq!(n.result.rows[0].values()[0], Value::Int(85));
    }

    #[test]
    fn mart_refresh_updates_cardinality_estimates() {
        // The stale-hint regression: registration-time row counts must not
        // survive a mart refresh. Doubling the dataset and refreshing has
        // to double the planner's estimate for the events mart.
        let g = small_grid();
        let explain_est = |g: &Grid| -> String {
            let out = g
                .query(
                    "EXPLAIN SELECT e.e_id, s.n_meas FROM ntuple_events e \
                     JOIN run_summary s ON e.run_id = s.run_id WHERE s.run_id < 3",
                )
                .unwrap();
            out.result
                .rows
                .iter()
                .filter_map(|r| match r.values().first() {
                    Some(Value::Text(s)) if s.contains("fetch `ntuple_events`") => Some(s.clone()),
                    _ => None,
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let before = explain_est(&g);
        assert!(before.contains("[est 120 rows]"), "{before}");
        g.extend_sources(120).unwrap();
        g.run_incremental_etl().unwrap();
        g.refresh_marts().unwrap();
        let after = explain_est(&g);
        assert!(after.contains("[est 240 rows]"), "{after}");
    }
}
