//! Observability integration tests: hierarchical query traces stitched
//! across RPC hops, the metrics registry, and the R-GMA-style
//! `gridfed_monitor.*` relational monitoring surface.

use gridfed::core::grid::{GridBuilder, ReplicationConfig};
use gridfed::core::service::DEFAULT_CACHE_CAPACITY;
use gridfed::obs::{ObsConfig, SloObjective, SpanKind};
use gridfed::prelude::*;

const JOIN_SQL: &str = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     WHERE e.e_id < 5 ORDER BY e.e_id";

const FOUR_TABLE_SQL: &str = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
     FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     JOIN run_conditions c ON s.run_id = c.run_id \
     JOIN detector_summary d ON c.detector = d.detector \
     ORDER BY e.e_id";

/// ISSUE acceptance criterion: a federated query that survives at least
/// one retry and one failover under a seeded fault plan must produce a
/// *single* stitched span tree — remote mediator spans grafted in via
/// wire-propagated trace context — that passes the composition checks and
/// is retrievable through the system's own SQL engine.
#[test]
fn acceptance_stitched_trace_under_faults() {
    let g = GridBuilder::new()
        .with_seed(31)
        .replicate_events(true)
        .with_observability(true)
        .with_resilience(ResilienceConfig {
            max_retries: 6,
            ..ResilienceConfig::standard()
        })
        .with_fault_plan(
            FaultPlan::new(1905)
                .crash("mart_mysql", Cost::ZERO, None)
                .transient("*", 0.2),
        )
        .build()
        .expect("faulted grid");

    let out = g.query(FOUR_TABLE_SQL).expect("resilient query answers");
    assert!(out.stats.retries >= 1, "stats: {:?}", out.stats);
    assert!(out.stats.failovers >= 1, "stats: {:?}", out.stats);

    let das = g.service(0);
    let trace = das
        .observability()
        .traces
        .latest()
        .expect("query was traced");
    assert_eq!(trace.sql, FOUR_TABLE_SQL);
    assert_eq!(trace.status, "ok");
    assert!(trace.distributed);
    assert!(trace.retries >= 1 && trace.failovers >= 1);

    // One tree: exactly one root, every span reachable from it, timing
    // algebra holds (sequential phases tile, parallel branches contained).
    trace.check_composition(5).expect("composition holds");
    assert_eq!(
        trace.spans().iter().filter(|s| s.parent.is_none()).count(),
        1,
        "single root"
    );

    // The resilience story is visible as attempt spans...
    let names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"retry"), "spans: {names:?}");
    assert!(names.contains(&"failover"), "spans: {names:?}");
    // ...and the remote hop as an RPC span with grafted remote spans.
    assert!(
        trace.spans().iter().any(|s| s.kind == SpanKind::Rpc),
        "rpc span present:\n{}",
        trace.render_tree()
    );
    let remote: Vec<_> = trace.spans().iter().filter(|s| s.remote).collect();
    assert!(!remote.is_empty(), "remote spans grafted in");
    assert!(
        remote.iter().any(|s| s.kind == SpanKind::Query),
        "the remote mediator's own root query span is part of the tree"
    );

    // R-GMA surface: the same trace is retrievable relationally, through
    // the mediator's own SQL engine. Monitor queries federate over every
    // mediator and trace ids are only unique per server, so pin the
    // producer with the `server` column.
    let spans_sql = format!(
        "SELECT span_id, name, kind FROM gridfed_monitor.spans \
         WHERE trace_id = {} AND server = '{}' ORDER BY span_id",
        trace.trace_id,
        das.url()
    );
    let rows = das.query(&spans_sql).expect("monitor query");
    assert_eq!(rows.value.result.len(), trace.spans().len());

    let queries_sql = format!(
        "SELECT sql, status, retries, failovers FROM gridfed_monitor.queries \
         WHERE trace_id = {} AND server = '{}'",
        trace.trace_id,
        das.url()
    );
    let q = das.query(&queries_sql).expect("monitor query");
    assert_eq!(q.value.result.len(), 1);
    assert_eq!(q.value.result.rows[0].values()[1], Value::Text("ok".into()));
}

/// Satellite (a): work done by a *remote* mediator on a forwarded branch
/// — retries, connections opened — must be absorbed into the caller's
/// stats instead of being lost at the RPC boundary.
#[test]
fn remote_resilience_work_is_absorbed_into_caller_stats() {
    let g = GridBuilder::new()
        .with_seed(31)
        .with_resilience(ResilienceConfig {
            max_retries: 6,
            ..ResilienceConfig::standard()
        })
        .with_fault_plan(FaultPlan::new(7).transient_during(
            "mart_sqlite",
            1.0,
            Cost::ZERO,
            Some(Cost::from_millis(5)),
        ))
        .build()
        .expect("grid");
    // detector_summary lives in mart_sqlite on node2: das0 forwards the
    // whole query, and the *remote* mediator retries through the fault
    // window.
    let out = g
        .query("SELECT detector, mean_value FROM detector_summary")
        .expect("forwarded query answers");
    assert!(out.stats.remote_forwards >= 1, "stats: {:?}", out.stats);
    assert!(
        out.stats.retries >= 1,
        "remote retries visible to the caller: {:?}",
        out.stats
    );
    assert!(
        out.stats.connections_opened + out.stats.pooled_hits >= 1,
        "remote connection work visible to the caller: {:?}",
        out.stats
    );
}

#[test]
fn monitor_metrics_and_servers_are_queryable() {
    let g = GridBuilder::new()
        .with_seed(31)
        .with_observability(true)
        .build()
        .expect("grid");
    let das = g.service(0);
    g.query(JOIN_SQL).expect("query 1");
    g.query("SELECT e_id FROM ntuple_events WHERE e_id < 3")
        .expect("query 2");

    // Counters and latency histograms, relationally.
    let m = das
        .query(
            "SELECT family, label, value FROM gridfed_monitor.metrics \
             WHERE kind = 'counter' AND family = 'queries'",
        )
        .expect("metrics query");
    assert_eq!(m.value.result.len(), 1);
    assert_eq!(
        m.value.result.rows[0].values()[2],
        Value::Int(2),
        "two queries counted"
    );
    let h = das
        .query(
            "SELECT p50_us, p95_us FROM gridfed_monitor.metrics \
             WHERE kind = 'histogram' AND family = 'query_latency_us'",
        )
        .expect("histogram query");
    assert_eq!(h.value.result.len(), 1);
    assert!(matches!(h.value.result.rows[0].values()[0], Value::Int(p) if p > 0));

    // Every server the RLS knows shows up with breaker state and load.
    let s = das
        .query("SELECT url, breaker, queries FROM gridfed_monitor.servers ORDER BY url")
        .expect("servers query");
    assert!(s.value.result.len() >= 2, "{:?}", s.value.result.rows);
    for row in &s.value.result.rows {
        assert_eq!(row.values()[1], Value::Text("closed".into()));
    }

    // Monitor tables cannot be mixed with federation tables.
    let err = das
        .query("SELECT q.sql FROM gridfed_monitor.queries q JOIN ntuple_events e ON q.trace_id = e.e_id")
        .unwrap_err();
    assert!(err.to_string().contains("gridfed_monitor"), "{err}");
}

#[test]
fn tracing_off_by_default_records_nothing() {
    let g = GridBuilder::new().with_seed(31).build().expect("grid");
    g.query(JOIN_SQL).expect("query");
    let obs = g.service(0).observability();
    assert!(!obs.enabled());
    assert!(obs.traces.snapshot().is_empty());
    assert!(obs.metrics.counters().is_empty());
}

#[test]
fn cache_hits_and_errors_are_traced() {
    let g = GridBuilder::new()
        .with_seed(31)
        .with_observability(true)
        .build()
        .expect("grid");
    let das = g.service(0);
    das.reconfigure(|c| c.result_cache = Some(DEFAULT_CACHE_CAPACITY));

    g.query(JOIN_SQL).expect("miss");
    g.query(JOIN_SQL).expect("hit");
    let trace = das.observability().traces.latest().expect("hit traced");
    assert!(trace.cache_hit);
    assert!(trace.spans().iter().any(|s| s.name == "cache-hit"));

    let _ = g.query("SELECT x FROM no_such_table").unwrap_err();
    let trace = das.observability().traces.latest().expect("error traced");
    assert!(trace.status.starts_with("error:"), "{}", trace.status);
    assert_eq!(
        das.observability()
            .metrics
            .counter("query_errors", das.url()),
        1
    );
}

#[test]
fn explain_analyze_executes_and_reports_actuals() {
    let g = GridBuilder::new().with_seed(31).build().expect("grid");
    let das = g.service(0);

    // Plain EXPLAIN returns the plan as a one-column result set and does
    // not execute.
    let plain = das.query(&format!("EXPLAIN {JOIN_SQL}")).expect("explain");
    assert_eq!(plain.value.result.columns, vec!["plan".to_string()]);
    let text = render_plan(&plain.value.result);
    assert!(text.contains("logical plan:"), "{text}");
    assert!(text.contains("optimized plan:"), "{text}");
    assert!(!text.contains("analyze:"), "{text}");

    // EXPLAIN ANALYZE executes and appends actuals: row counts, the
    // virtual-time breakdown, and the annotated residual plan.
    let analyzed = das
        .query(&format!("EXPLAIN ANALYZE {JOIN_SQL}"))
        .expect("explain analyze");
    let text = render_plan(&analyzed.value.result);
    assert!(text.contains("analyze:"), "{text}");
    assert!(text.contains("actual rows returned: 5"), "{text}");
    assert!(text.contains("virtual time:"), "{text}");
    assert!(
        text.contains("analyzed residual plan (mediator side):"),
        "{text}"
    );
    assert!(text.contains("act rows="), "{text}");

    // ANALYZE must bypass the result cache — actuals reflect a real run.
    das.reconfigure(|c| c.result_cache = Some(DEFAULT_CACHE_CAPACITY));
    g.query(JOIN_SQL).expect("prime the cache");
    let again = das
        .query(&format!("EXPLAIN ANALYZE {JOIN_SQL}"))
        .expect("analyze again");
    let text = render_plan(&again.value.result);
    assert!(text.contains("actual rows returned: 5"), "{text}");
}

/// ISSUE 9 acceptance: `SELECT * FROM gridfed_monitor.statements` on a
/// three-mediator grid is an R-GMA consumer query — it returns statement
/// profiles from **every live mediator**, each row tagged with the
/// producing `server`, through one relational surface.
#[test]
fn monitor_statements_federate_across_three_mediators() {
    let g = GridBuilder::new()
        .with_seed(41)
        .with_mediators(3)
        .with_obs_config(ObsConfig {
            profiling: true,
            ..ObsConfig::default()
        })
        .build()
        .expect("grid");
    assert_eq!(g.services.len(), 3);

    // Give every mediator a statement of its own to profile.
    for i in 0..3 {
        g.service(i)
            .query("SELECT e_id FROM ntuple_events WHERE e_id < 4")
            .expect("workload query");
    }

    let das = g.service(0);
    let out = das
        .query("SELECT * FROM gridfed_monitor.statements")
        .expect("federated monitor query");
    assert!(out.value.stats.distributed, "{:?}", out.value.stats);
    assert_eq!(out.value.stats.servers, 3);
    assert!(
        !out.value.stats.is_degraded(),
        "all peers live: {:?}",
        out.value.stats.branches_dropped
    );

    let server_col = out
        .value
        .result
        .columns
        .iter()
        .position(|c| c == "server")
        .expect("server column present");
    let mut servers: Vec<String> = out
        .value
        .result
        .rows
        .iter()
        .map(|r| r.values()[server_col].render())
        .collect();
    servers.sort();
    servers.dedup();
    let expected: Vec<String> = (0..3).map(|i| g.service(i).url().to_string()).collect();
    assert_eq!(servers, expected, "rows from every mediator");
}

/// ISSUE 9 acceptance: under a seeded partition fault the federated
/// monitor query degrades to an honestly *annotated* partial — the
/// unreachable mediator is named in `branches_dropped`, while rows from
/// the reachable peers still arrive. Never a silent local-only answer.
#[test]
fn monitor_partition_fault_yields_annotated_partial() {
    let g = GridBuilder::new()
        .with_seed(41)
        .with_mediators(3)
        .with_observability(true)
        .with_fault_plan(FaultPlan::new(4).partition("node1", "node3", Cost::ZERO, None))
        .build()
        .expect("grid");

    let das = g.service(0);
    let out = das
        .query("SELECT url, server FROM gridfed_monitor.servers")
        .expect("degraded monitor query still answers");

    // Honest annotation: the dead branch is named, with a reason.
    assert!(out.value.stats.is_degraded(), "{:?}", out.value.stats);
    assert!(
        out.value
            .stats
            .branches_dropped
            .iter()
            .any(|d| d.branch.contains("node3") && !d.reason.is_empty()),
        "partitioned mediator annotated: {:?}",
        out.value.stats.branches_dropped
    );

    // Not local-only: the reachable peer's rows are still in the answer.
    let producers: Vec<String> = out
        .value
        .result
        .rows
        .iter()
        .map(|r| r.values()[1].render())
        .collect();
    assert!(
        producers.iter().any(|s| s.contains("node2")),
        "live peer rows present: {producers:?}"
    );
    assert!(
        !producers.iter().any(|s| s.contains("node3")),
        "partitioned peer contributed nothing: {producers:?}"
    );
}

/// ISSUE 9 acceptance: literal-varied executions of the same statement
/// share one fingerprint, with correct call counts and latency quantiles,
/// and the store retains at most the configured top-k fingerprints.
#[test]
fn statement_profiles_aggregate_and_bound_retention() {
    let g = GridBuilder::new()
        .with_seed(41)
        .single_server()
        .with_obs_config(ObsConfig {
            profiling: true,
            statement_capacity: 2,
            ..ObsConfig::default()
        })
        .build()
        .expect("grid");
    let das = g.service(0);

    // Two literal-varied executions → one fingerprint with calls = 2.
    g.query("SELECT e_id FROM ntuple_events WHERE e_id < 3")
        .expect("exec 1");
    g.query("SELECT e_id FROM ntuple_events WHERE e_id < 7")
        .expect("exec 2");

    let out = das
        .query(
            "SELECT sql, calls, p50_us, p99_us FROM gridfed_monitor.statements \
             WHERE calls = 2",
        )
        .expect("statements query");
    assert_eq!(out.value.result.len(), 1, "{:?}", out.value.result.rows);
    let row = out.value.result.rows[0].values();
    assert_eq!(
        row[0],
        Value::Text("select e_id from ntuple_events where e_id < ?".into()),
        "literals normalized away"
    );
    assert!(matches!(row[2], Value::Int(p50) if p50 > 0), "{row:?}");
    assert!(
        matches!((&row[2], &row[3]), (Value::Int(p50), Value::Int(p99)) if p99 >= p50),
        "{row:?}"
    );

    // Top-k: a third distinct statement evicts the coldest; the store
    // never exceeds its configured capacity.
    g.query("SELECT run_id FROM run_summary WHERE run_id < 5")
        .expect("exec 3");
    g.query("SELECT detector FROM run_conditions WHERE run_id < 5")
        .expect("exec 4");
    let all = das
        .query("SELECT fingerprint FROM gridfed_monitor.statements")
        .expect("statements query");
    assert!(
        all.value.result.len() <= 2,
        "top-k bound holds: {:?}",
        all.value.result.rows
    );
}

/// Satellite (a) regression: a *literal* containing "gridfed_monitor." in
/// ordinary SQL must not trip monitor-query routing — detection goes by
/// parsed table references, not substring matching.
#[test]
fn monitor_detection_ignores_string_literals() {
    let g = GridBuilder::new().with_seed(41).build().expect("grid");
    let out = g
        .query("SELECT detector FROM detector_summary WHERE detector = 'gridfed_monitor.queries'")
        .expect("routes as a normal federated query, not a monitor query");
    assert!(out.result.is_empty(), "no detector has that name");
    assert_eq!(out.stats.tables, 1);
}

/// Satellite (c): `Replicate` traces recorded by the WAL-shipping pump
/// satisfy the same span-composition algebra as query traces — one root,
/// parallel per-table branches contained within it.
#[test]
fn replicate_trace_composition_holds() {
    let g = GridBuilder::new()
        .with_seed(41)
        .with_observability(true)
        .with_replication(ReplicationConfig::default())
        .build()
        .expect("grid");
    g.extend_sources(10).expect("extend");
    g.run_incremental_etl().expect("etl");
    g.pump_replication_for(3);

    let mut saw_replicate = false;
    for das in &g.services {
        for trace in das.observability().traces.snapshot() {
            if trace.spans().iter().any(|s| s.kind == SpanKind::Replicate) {
                saw_replicate = true;
                trace
                    .check_composition(5)
                    .unwrap_or_else(|e| panic!("{e}\n{}", trace.render_tree()));
                assert_eq!(
                    trace.spans().iter().filter(|s| s.parent.is_none()).count(),
                    1,
                    "single root"
                );
            }
        }
    }
    assert!(saw_replicate, "replication recorded Replicate traces");
}

/// Tentpole layers 3–4: the metrics-history ring, per-tenant SLO burn,
/// and the threshold-gated slow-query log are all queryable relationally.
#[test]
fn metrics_history_slo_and_slow_queries_are_queryable() {
    let g = GridBuilder::new()
        .with_seed(41)
        .single_server()
        .with_obs_config(ObsConfig {
            history_interval_us: 1_000,
            slow_query_threshold_us: 1,
            ..ObsConfig::default()
        })
        .with_slo(SloObjective {
            tenant: "default".into(),
            latency_threshold_us: 16_000_000,
            objective: 0.99,
            window_us: 60_000_000,
        })
        .build()
        .expect("grid");
    let das = g.service(0);

    g.query(JOIN_SQL).expect("query 1");
    g.query("SELECT e_id FROM ntuple_events WHERE e_id < 3")
        .expect("query 2");

    // History: the ring holds snapshots of the tenant counters.
    let h = das
        .query(
            "SELECT seq, ts_us, value FROM gridfed_monitor.metrics_history \
             WHERE family = 'tenant_queries' AND label = 'default' ORDER BY seq",
        )
        .expect("history query");
    assert!(!h.value.result.is_empty());

    // SLO: with a 16 s latency goal every query is good → healthy, burn 0.
    let s = das
        .query("SELECT tenant, total, burn_rate, healthy FROM gridfed_monitor.slo")
        .expect("slo query");
    assert_eq!(s.value.result.len(), 1);
    let row = s.value.result.rows[0].values();
    assert_eq!(row[0], Value::Text("default".into()));
    assert!(matches!(row[1], Value::Int(total) if total >= 2), "{row:?}");
    assert_eq!(row[3], Value::Bool(true), "{row:?}");

    // Slow-query log: a 1 µs threshold catches everything.
    let slow = das
        .query(
            "SELECT sql, duration_us FROM gridfed_monitor.slow_queries \
             ORDER BY duration_us",
        )
        .expect("slow query log");
    assert!(slow.value.result.len() >= 2, "{:?}", slow.value.result.rows);
}

fn render_plan(result: &ResultSet) -> String {
    result
        .rows
        .iter()
        .map(|r| match &r.values()[0] {
            Value::Text(t) => t.clone(),
            other => other.render(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

// ---- monitor fan-out: a scatter like any other ----

const METRICS_SQL: &str = "SELECT server, family, label, kind, value \
     FROM gridfed_monitor.metrics ORDER BY server, family, label, kind";

/// A 3-mediator grid on a shared clock with a statement of its own in each
/// mediator's ring, then one federated monitor query from node1 at t = 10 s.
fn monitor_fanout(
    dispatch: gridfed::core::DispatchMode,
    resilience: ResilienceConfig,
    faults: FaultPlan,
) -> QueryOutcome {
    let g = GridBuilder::new()
        .with_seed(41)
        .with_mediators(3)
        .with_dispatch(dispatch)
        .with_observability(true)
        .with_resilience(resilience)
        .with_fault_plan(faults)
        .build()
        .expect("grid");
    for i in 0..3 {
        g.service(i)
            .query("SELECT e_id FROM ntuple_events WHERE e_id < 4")
            .expect("workload query");
    }
    let plan = g.fault_plan.as_ref().expect("plan");
    plan.set_now(Cost::from_secs_f64(10.0));
    g.service(0)
        .query(METRICS_SQL)
        .expect("monitor query")
        .value
}

/// The fan-out is dispatched like any scatter: peers overlap under
/// `Parallel` and queue under `Sequential`, and that is the *only*
/// difference — the answer and every other statistic are equal, and the
/// two time terms are the max and the sum of the two peers' own costs.
#[test]
fn monitor_fanout_composes_peer_costs_by_dispatch_mode() {
    use gridfed::core::DispatchMode::{Parallel, Sequential};
    let at = |s: f64| Cost::from_secs_f64(s);
    let (node2, node3) = ("clarens://node2:8443/das", "clarens://node3:8443/das");
    let passthrough = ResilienceConfig::default;
    let healthy = || FaultPlan::new(4);

    let par = monitor_fanout(Parallel, passthrough(), healthy());
    let seq = monitor_fanout(Sequential, passthrough(), healthy());
    assert_eq!(par.result, seq.result);
    assert_eq!(par.stats.servers, 3);
    assert!(!par.stats.is_degraded() && !seq.stats.is_degraded());
    let rest = |stats: &gridfed::core::QueryStats| {
        let mut stats = stats.clone();
        stats.breakdown.execute = Cost::ZERO;
        stats.breakdown.resilience = Cost::ZERO;
        stats
    };
    assert_eq!(rest(&par.stats), rest(&seq.stats));

    // Each peer's own fetch, measured with the other cut off (a passthrough
    // supervisor charges a failed peer nothing).
    let alone = |cut: &str| {
        let faults = healthy().partition("node1", cut, at(10.0), None);
        let only = monitor_fanout(Sequential, passthrough(), faults);
        assert_eq!(only.stats.branches_dropped.len(), 1, "{cut} is cut off");
        only.stats.breakdown.execute
    };
    let (a, b) = (alone("node3"), alone("node2"));
    assert!(a > Cost::ZERO && b > Cost::ZERO);
    assert_eq!(seq.stats.breakdown.execute, a + b);
    assert_eq!(par.stats.breakdown.execute, a.max(b));
    assert_eq!(par.stats.breakdown.resilience, Cost::ZERO);
    assert_eq!(seq.stats.breakdown.resilience, Cost::ZERO);

    // Supervision time composes the same way: both peers' servers are down
    // for the 40 ms after the query starts, and each is retried past it.
    let retrying = || ResilienceConfig {
        max_retries: 4,
        base_backoff: Cost::from_millis(25),
        max_backoff: Cost::from_millis(100),
        breaker_threshold: 0,
        ..ResilienceConfig::standard()
    };
    let down = |plan: FaultPlan, url: &str| plan.crash(url, at(10.0), Some(at(10.04)));
    let waited = |url: &str| {
        let one = monitor_fanout(Sequential, retrying(), down(healthy(), url));
        assert_eq!(one.result, seq.result, "retried, not dropped");
        assert_eq!(one.stats.breakdown.execute, a + b);
        one.stats.breakdown.resilience
    };
    let (ra, rb) = (waited(node2), waited(node3));
    assert!(ra >= Cost::from_millis(40) && rb >= Cost::from_millis(40));
    let both = || down(down(healthy(), node2), node3);
    let seq_down = monitor_fanout(Sequential, retrying(), both());
    let par_down = monitor_fanout(Parallel, retrying(), both());
    assert_eq!(par_down.result, seq.result);
    assert_eq!(rest(&par_down.stats), rest(&seq_down.stats));
    assert!(par_down.stats.retries >= 2);
    assert_eq!(seq_down.stats.breakdown.execute, a + b);
    assert_eq!(seq_down.stats.breakdown.resilience, ra + rb);
    assert_eq!(par_down.stats.breakdown.execute, a.max(b));
    assert_eq!(
        par_down.stats.breakdown.resilience,
        (a + ra).max(b + rb).saturating_sub(a.max(b))
    );
}

/// Monitoring must observe a sick grid: a dead peer is an annotated
/// partial whatever the degradation policy says — `Strict` does not fail
/// the monitor query, and `Partial` has no empty stand-in to substitute.
#[test]
fn a_dead_monitor_peer_is_an_annotated_partial_under_either_degradation_policy() {
    let dead = || FaultPlan::new(4).crash("clarens://node3:8443/das", Cost::ZERO, None);
    let [strict, partial] = [DegradationPolicy::Strict, DegradationPolicy::Partial].map(|d| {
        let resilience = ResilienceConfig {
            max_retries: 1,
            degradation: d,
            ..ResilienceConfig::standard()
        };
        monitor_fanout(gridfed::core::DispatchMode::Parallel, resilience, dead())
    });
    assert_eq!(strict.result, partial.result);
    assert_eq!(
        strict.stats.branches_dropped,
        partial.stats.branches_dropped
    );
    let [dropped] = &strict.stats.branches_dropped[..] else {
        panic!("one peer dropped: {:?}", strict.stats.branches_dropped);
    };
    assert_eq!(dropped.branch, "remote mediator `clarens://node3:8443/das`");
    assert!(
        dropped.reason.contains("unavailable after 2 attempt(s)"),
        "{}",
        dropped.reason
    );
    let producers: Vec<String> = (strict.result.rows.iter())
        .map(|r| r.values()[0].render())
        .collect();
    assert!(producers.iter().any(|s| s.contains("node2")), "live peer");
    assert!(!producers.iter().any(|s| s.contains("node3")), "dead peer");
}

/// A directory peer whose `das` service has a bug.
struct PanickingDas;

impl gridfed::clarens::Service for PanickingDas {
    fn name(&self) -> &str {
        "das"
    }

    fn methods(&self) -> Vec<String> {
        vec!["monitor_fetch".into()]
    }

    fn call(
        &self,
        method: &str,
        _params: &[gridfed::clarens::WireValue],
    ) -> gridfed::clarens::Result<gridfed::simnet::cost::Timed<gridfed::clarens::WireValue>> {
        panic!("producer bug in das.{method}")
    }
}

/// A peer that panics while answering `monitor_fetch` is contained like any
/// panicking branch: named in an annotated partial, with the live peer's
/// rows still in the answer — not unwound through the client's thread.
#[test]
fn a_panicking_monitor_peer_is_an_annotated_partial() {
    let g = GridBuilder::new()
        .with_seed(41)
        .with_observability(true)
        .build()
        .expect("grid");
    let rogue = gridfed::clarens::server::ClarensServer::new("clarens://node3:8443/das", "node3");
    rogue.register_service(std::sync::Arc::new(PanickingDas));
    g.directory.register(rogue);
    g.service(1)
        .query("SELECT e_id FROM ntuple_events WHERE e_id < 4")
        .expect("workload query");

    let out = g
        .service(0)
        .query(METRICS_SQL)
        .expect("still answers")
        .value;
    assert_eq!(out.stats.servers, 3);
    let [dropped] = &out.stats.branches_dropped[..] else {
        panic!("one peer dropped: {:?}", out.stats.branches_dropped);
    };
    assert_eq!(dropped.branch, "remote mediator `clarens://node3:8443/das`");
    assert!(dropped.reason.contains("panicked"), "{}", dropped.reason);
    assert!(
        dropped.reason.contains("producer bug"),
        "{}",
        dropped.reason
    );
    let producers: Vec<String> = (out.result.rows.iter())
        .map(|r| r.values()[0].render())
        .collect();
    assert!(producers.iter().any(|s| s.contains("node2")), "live peer");
    // And the mediator is none the worse for it.
    assert!(g.service(0).query(METRICS_SQL).is_ok());
}
