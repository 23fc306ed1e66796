//! What a mediator's session keeps, and what makes it let go (DESIGN.md
//! §4.4, "Connect once") — deterministic cases on the grid's shared virtual
//! clock and seeded fault plan. Each one would go wrong in its own way if a
//! kept handle or a leased location outlived the evidence against it: a
//! hang, a stale answer, an error that never heals, a handshake charged
//! twice or never.
//!
//! The differential half — `Session` ≡ `PerQuery` on fault-free grids —
//! is `tests/session_differential.rs`.

use gridfed::clarens::codec::WireValue;
use gridfed::clarens::server::Service;
use gridfed::clarens::ClarensError;
use gridfed::core::grid::mart_url;
use gridfed::core::service::{ConnectionPolicy, LEASE_TTL_US};
use gridfed::core::CoreError;
use gridfed::prelude::*;
use gridfed::simnet::cost::Timed;
use gridfed::simnet::params::CostParams;
use gridfed::vendors::driver::server_address;
use gridfed::vendors::{
    Connection, ConnectionString, Driver, DriverRegistry, SimServer, VendorError,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Table-1 row 2: `mart_mysql` (POOL-RAL) joined with `mart_mssql` (JDBC).
const JOIN_SQL: &str = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 5 ORDER BY e.e_id";
/// Forward-all: only the peer hosts `detector_summary`.
const FORWARD_SQL: &str = "SELECT detector, mean_value FROM detector_summary ORDER BY detector";
/// Forward-all to node2 in every grid shape: `mart_oracle` lives there.
const CONDITIONS_SQL: &str =
    "SELECT run_id, detector, avg_weight FROM run_conditions WHERE run_id < 2";
/// A whole statement on the vendor POOL cannot hold.
const SUMMARY_SQL: &str = "SELECT run_id, n_meas FROM run_summary ORDER BY run_id";
const NODE2: &str = "clarens://node2:8443/das";
/// Table-1 row 3: two local marts, and two tables only node2 hosts — both
/// fetched in wave 0.
const ROW3_SQL: &str = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
     FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id \
     JOIN run_conditions c ON s.run_id = c.run_id \
     JOIN detector_summary d ON c.detector = d.detector \
     WHERE e.e_id < 25 ORDER BY e.e_id";

fn secs(s: u64) -> Cost {
    Cost::from_millis(1_000 * s)
}

fn ttl() -> Cost {
    Cost::from_micros(LEASE_TTL_US)
}

/// Two attempts per branch and no breaker: enough for a retry to find its
/// target still down, not enough to outlast a ten-second window.
fn one_retry() -> ResilienceConfig {
    ResilienceConfig {
        max_retries: 1,
        base_backoff: Cost::from_millis(10),
        max_backoff: Cost::from_millis(10),
        breaker_threshold: 0,
        failover: true,
        ..ResilienceConfig::default()
    }
}

fn handshake(vendor: VendorKind) -> Cost {
    let p = CostParams::paper_2005();
    p.db_connect.scale(vendor.connect_multiplier()) + p.db_auth
}

#[test]
fn a_lease_is_reused_until_its_ttl_and_then_the_rls_is_asked_again() {
    let g = GridBuilder::new().with_seed(31).build().expect("grid");
    let das = g.service(0);
    let clock = das.clock();
    let issued = clock.now();
    let ask = || das.query(FORWARD_SQL).expect("forward-all answers").value;
    let asked = || g.rls.stats().lookups;

    let (before, first) = (asked(), ask());
    assert_eq!(first.stats.rls_lookups, 1);
    assert!(first.stats.breakdown.rls > Cost::ZERO);
    assert_eq!(asked(), before + 1);

    clock.set(issued + Cost::from_micros(LEASE_TTL_US - 1));
    let reused = ask();
    assert_eq!(reused.result, first.result);
    assert_eq!(reused.stats.rls_lookups, 0, "one microsecond short: reused");
    assert_eq!(reused.stats.breakdown.rls, Cost::ZERO);
    // Table 1's columns do not notice: same server set, same forward.
    assert_eq!(
        (reused.stats.servers, reused.stats.remote_forwards),
        (first.stats.servers, first.stats.remote_forwards)
    );
    assert_eq!(asked(), before + 1, "the RLS was not contacted");

    clock.set(issued + ttl());
    let renewed = ask();
    assert_eq!(renewed.result, first.result);
    assert_eq!(renewed.stats.rls_lookups, 1, "at the TTL: asked again");
    assert_eq!(renewed.stats.breakdown.rls, first.stats.breakdown.rls);
    assert_eq!(asked(), before + 2);
    assert_eq!(ask().stats.rls_lookups, 0, "a new lease was issued");
}

#[test]
fn an_unreachable_report_ends_exactly_the_leases_naming_that_server() {
    // Three mediators: node1 forwards `run_conditions` to node2 and
    // `detector_summary` to node3. node2's Clarens server is down for ten
    // seconds — well inside the one-minute lease.
    let g = GridBuilder::new()
        .with_seed(31)
        .with_mediators(3)
        .with_resilience(one_retry())
        .with_fault_plan(FaultPlan::new(7).crash(NODE2, secs(10), Some(secs(20))))
        .build()
        .expect("grid");
    let das = g.service(0);
    let clock = das.clock();
    let ask = |sql: &str| das.query(sql).map(|t| t.value);
    let conditions = ask(CONDITIONS_SQL).expect("node2 answers");
    let detectors = ask(FORWARD_SQL).expect("node3 answers");
    assert_eq!(
        (conditions.stats.rls_lookups, detectors.stats.rls_lookups),
        (1, 1)
    );

    clock.set(secs(10));
    let err = ask(CONDITIONS_SQL).unwrap_err();
    assert!(
        matches!(err, CoreError::BranchUnavailable { .. }),
        "typed: {err:?}"
    );
    // The lease naming node3 is untouched…
    let during = ask(FORWARD_SQL).expect("node3 is fine");
    assert_eq!(during.result, detectors.result);
    assert_eq!(during.stats.rls_lookups, 0);

    // …the one naming node2 is gone, and so is the channel to it: the first
    // forward after the outage asks the RLS and logs in again, once.
    clock.set(secs(21));
    let healed = ask(CONDITIONS_SQL).expect("node2 is back");
    assert_eq!(healed.result, conditions.result);
    assert_eq!(healed.stats.rls_lookups, 1);
    assert_eq!(
        healed.stats.breakdown.connect,
        conditions.stats.breakdown.connect
    );
    let after = ask(CONDITIONS_SQL).expect("kept again");
    assert_eq!(
        (after.stats.rls_lookups, after.stats.breakdown.connect),
        (0, Cost::ZERO)
    );
    assert_eq!(ask(FORWARD_SQL).expect("node3").stats.rls_lookups, 0);
}

#[test]
fn a_replica_published_elsewhere_is_picked_up_within_one_ttl() {
    let g = GridBuilder::new()
        .with_seed(31)
        .with_mediators(3)
        .build()
        .expect("grid");
    let das = g.service(0);
    let clock = das.clock();
    let issued = clock.now();
    let forwards_to = |node: &str| {
        let plan = das.explain(FORWARD_SQL).expect("explain");
        let line = format!("forward entire statement to remote server clarens://{node}:8443/das");
        assert!(plan.contains(&line), "expected {node}:\n{plan}");
    };
    let answer = das.query(FORWARD_SQL).expect("node3 answers").value.result;
    forwards_to("node3");

    // node2's mediator registers the same mart: the RLS now lists node2
    // first. node1 learns of it when its lease runs out — no sooner (nobody
    // tells it), no later.
    g.service(1)
        .register_database(&mart_url(&g.marts[3]))
        .expect("node2 registers the sqlite mart");
    clock.set(issued + Cost::from_micros(LEASE_TTL_US - 1));
    forwards_to("node3");
    assert_eq!(
        das.query(FORWARD_SQL).expect("still node3").value.result,
        answer
    );
    clock.set(issued + ttl());
    forwards_to("node2");
    let via_node2 = das.query(FORWARD_SQL).expect("node2 answers").value;
    assert_eq!(via_node2.result, answer);
}

#[test]
fn a_crashed_backend_costs_one_handshake_when_it_is_back_never_a_stale_handle() {
    let build = |policy| {
        GridBuilder::new()
            .with_seed(31)
            .with_connection_policy(policy)
            .with_resilience(one_retry())
            .with_fault_plan(FaultPlan::new(7).crash("mart_mssql", secs(10), Some(secs(20))))
            .build()
            .expect("grid")
    };
    let g = build(ConnectionPolicy::Session);
    let clock = g.service(0).clock();
    let mssql = handshake(VendorKind::MsSql);

    let cold = g.query(JOIN_SQL).expect("cold");
    assert_eq!(cold.stats.connections_opened, 1, "the one POOL cannot hold");
    assert_eq!(cold.stats.breakdown.connect, mssql);
    let warm = g.query(JOIN_SQL).expect("warm");
    assert_eq!(
        (warm.stats.connections_opened, warm.stats.breakdown.connect),
        (0, Cost::ZERO)
    );

    // Inside the window nothing answers for `run_summary` (it has no
    // replica): a typed error, every time, however often one asks.
    clock.set(secs(10));
    for _ in 0..3 {
        let err = g.query(JOIN_SQL).unwrap_err();
        assert!(
            matches!(err, CoreError::BranchUnavailable { .. }),
            "typed: {err:?}"
        );
    }

    // The first query after it reconnects — exactly one `db_session_setup`
    // — and answers exactly; the next one pays nothing again.
    clock.set(secs(21));
    let healed = g.query(JOIN_SQL).expect("healed");
    assert_eq!(healed.result, cold.result);
    assert_eq!(healed.stats.connections_opened, 1);
    assert_eq!(healed.stats.breakdown.connect, mssql);
    assert_eq!(
        healed.stats.retries, 0,
        "no attempt was wasted on a dead handle"
    );
    let after = g.query(JOIN_SQL).expect("kept again");
    assert_eq!(after.stats.breakdown, warm.stats.breakdown);

    // The paper's arm through the same script: same answers, same errors.
    let p = build(ConnectionPolicy::PerQuery);
    assert_eq!(p.query(JOIN_SQL).expect("cold").result, cold.result);
    p.service(0).clock().set(secs(10));
    assert!(matches!(
        p.query(JOIN_SQL).unwrap_err(),
        CoreError::BranchUnavailable { .. }
    ));
    p.service(0).clock().set(secs(21));
    assert_eq!(p.query(JOIN_SQL).expect("healed").result, cold.result);
}

#[test]
fn a_leased_server_that_died_while_the_rls_is_stale_is_a_typed_error_not_a_hang() {
    // The worst case for a lease: the server it names is dead *and* the
    // catalog is not listening to reports, so nothing upstream will ever
    // correct it. The lease must still not outlive the failed forward.
    let g = GridBuilder::new()
        .with_seed(31)
        .with_resilience(one_retry())
        .with_fault_plan(
            FaultPlan::new(7)
                .crash(NODE2, secs(10), Some(secs(20)))
                .rls_stale(secs(10), Some(secs(20))),
        )
        .build()
        .expect("grid");
    let das = g.service(0);
    let clock = das.clock();
    let answer = das.query(FORWARD_SQL).expect("leased").value.result;
    assert_eq!(
        das.query(FORWARD_SQL).expect("hit").value.stats.rls_lookups,
        0
    );

    clock.set(secs(10));
    let asked = g.rls.stats().lookups;
    for round in 1..=3u64 {
        let err = das.query(FORWARD_SQL).unwrap_err();
        assert!(
            matches!(err, CoreError::BranchUnavailable { .. }),
            "typed: {err:?}"
        );
        // Each failure ended the lease: the next query asked the RLS again
        // (resolution plus the failover's own consultation).
        assert!(g.rls.stats().lookups >= asked + round, "round {round}");
    }
    assert_eq!(g.rls.stats().expirations, 0, "the reports were lost");
    // A federated statement needing that server fails the same typed way.
    let row3 = "SELECT e.e_id, d.mean_value FROM ntuple_events e \
                JOIN run_conditions c ON e.run_id = c.run_id \
                JOIN detector_summary d ON c.detector = d.detector WHERE e.e_id < 5";
    assert!(matches!(
        das.query(row3).unwrap_err(),
        CoreError::BranchUnavailable { .. }
    ));

    clock.set(secs(21));
    let healed = das.query(FORWARD_SQL).expect("healed").value;
    assert_eq!(healed.result, answer);
    assert_eq!(healed.stats.rls_lookups, 1);
}

/// A driver that connects like the standard one and counts how often.
struct CountingDriver {
    vendor: VendorKind,
    connects: AtomicUsize,
}

impl Driver for CountingDriver {
    fn vendor(&self) -> VendorKind {
        self.vendor
    }

    fn connect(
        &self,
        conn: &ConnectionString,
        registry: &DriverRegistry,
    ) -> Result<Timed<Connection>, VendorError> {
        self.connects.fetch_add(1, Ordering::SeqCst);
        let (host, database) = server_address(conn);
        registry
            .lookup(&host, &database)?
            .connect(&conn.user, &conn.password)
    }
}

#[test]
fn installing_a_driver_reopens_what_was_opened_under_the_old_one_once() {
    let g = GridBuilder::new().with_seed(31).build().expect("grid");
    let cold = g.query(JOIN_SQL).expect("cold");
    assert_eq!(g.query(JOIN_SQL).expect("warm").stats.connections_opened, 0);

    let driver = Arc::new(CountingDriver {
        vendor: VendorKind::MsSql,
        connects: AtomicUsize::new(0),
    });
    g.registry.install(Arc::clone(&driver) as Arc<dyn Driver>);
    // Everything this mediator had open predates the install: the MS-SQL
    // connection comes back through the new driver, the MySQL POOL handle
    // through its own — one handshake each, charged to this query.
    let reopened = g.query(JOIN_SQL).expect("reopened");
    assert_eq!(reopened.result, cold.result);
    assert_eq!(reopened.stats.connections_opened, 2);
    assert_eq!(driver.connects.load(Ordering::SeqCst), 1);
    let both = handshake(VendorKind::MsSql) + handshake(VendorKind::MySql);
    assert!(reopened.stats.breakdown.connect >= both);
    assert!(reopened.stats.breakdown.connect < both + Cost::from_millis(1));

    let kept = g.query(JOIN_SQL).expect("kept");
    assert_eq!(kept.stats.connections_opened, 0);
    assert_eq!(driver.connects.load(Ordering::SeqCst), 1, "not asked again");
}

#[test]
fn a_backend_restarted_under_the_same_address_is_never_read_through_the_old_handle() {
    for policy in [ConnectionPolicy::Session, ConnectionPolicy::PerQuery] {
        let g = GridBuilder::new()
            .with_seed(31)
            .with_connection_policy(policy)
            .build()
            .expect("grid");
        let before = g.query(SUMMARY_SQL).expect("before").result;
        g.query(SUMMARY_SQL).expect("kept");

        // `mart_mssql` comes back as a new server instance holding one run
        // more. The old instance is still alive behind any handle to it.
        let old = &g.marts[1];
        let restarted = SimServer::new(old.kind(), old.host(), old.db_name());
        let mut db = old.with_db(Database::clone);
        db.table_mut("run_summary")
            .expect("run_summary")
            .insert(vec![Value::Int(9_999), Value::Int(1), Value::Float(0.5)])
            .expect("one more run");
        restarted.with_db_mut(|slot| *slot = db);
        g.registry.register_server(restarted);

        let after = g.query(SUMMARY_SQL).expect("after");
        assert_eq!(after.result.len(), before.len() + 1, "{policy:?}");
        assert_eq!(after.stats.connections_opened, 1, "{policy:?}");
    }
}

#[test]
fn unregistering_a_database_closes_what_was_open_for_it() {
    let g = GridBuilder::new().with_seed(31).build().expect("grid");
    let das = g.service(0);
    g.query(JOIN_SQL).expect("both marts open");
    let url = mart_url(&g.marts[1]);
    assert!(das.unregister_database("mart_mssql"));
    assert!(das.unregister_database("mart_mysql"));
    assert!(g.query(SUMMARY_SQL).is_err(), "nobody hosts it now");
    // Registered again, it is a new database to the session: connected to
    // again, charged again.
    das.register_database(&url).expect("back");
    das.register_database(&mart_url(&g.marts[0])).expect("back");
    let back = g.query(JOIN_SQL).expect("answers");
    assert_eq!(back.stats.connections_opened, 1);
    assert_eq!(back.stats.breakdown.connect, handshake(VendorKind::MsSql));
}

#[test]
fn metadata_reads_use_the_kept_connection() {
    // `refresh_schemas` introspects every registered database: under the
    // paper's arm that is a handshake each, every time; a session pays for
    // the ones it does not have open yet, once.
    let costs = |policy| {
        let g = GridBuilder::new()
            .with_seed(31)
            .with_connection_policy(policy)
            .build()
            .expect("grid");
        let das = g.service(0);
        let first = das.refresh_schemas().expect("refresh");
        let second = das.refresh_schemas().expect("refresh");
        assert!(first.value.is_empty() && second.value.is_empty());
        (first.cost, second.cost)
    };
    let (p_first, p_second) = costs(ConnectionPolicy::PerQuery);
    let (s_first, s_second) = costs(ConnectionPolicy::Session);
    let both = handshake(VendorKind::MySql) + handshake(VendorKind::MsSql);
    assert_eq!(p_first, p_second);
    assert_eq!(
        s_first + handshake(VendorKind::MySql),
        p_first,
        "POOL handle"
    );
    assert_eq!(s_second + both, p_second, "and the kept JDBC connection");
}

// ---- one call per peer per wave ----

/// A peer's `das` service, noting how many statements each
/// `query_federated` call that reaches it carries.
struct CountedCalls {
    das: Arc<DataAccessService>,
    statements: Mutex<Vec<usize>>,
}

impl CountedCalls {
    /// Stand in for mediator `idx`'s `das` on its Clarens server.
    fn tap(g: &Grid, idx: usize) -> Arc<CountedCalls> {
        let tap = Arc::new(CountedCalls {
            das: Arc::clone(g.service(idx)),
            statements: Mutex::new(Vec::new()),
        });
        g.servers[idx].register_service(Arc::clone(&tap) as Arc<dyn Service>);
        tap
    }

    /// The calls seen since the last look.
    fn take(&self) -> Vec<usize> {
        std::mem::take(&mut *self.statements.lock().expect("no panic under the lock"))
    }
}

impl Service for CountedCalls {
    fn name(&self) -> &str {
        "das"
    }

    fn methods(&self) -> Vec<String> {
        self.das.methods()
    }

    fn call(&self, method: &str, params: &[WireValue]) -> Result<Timed<WireValue>, ClarensError> {
        if method == "query_federated" {
            let carried = match params.first() {
                Some(WireValue::List(statements)) => statements.len(),
                _ => 1,
            };
            let mut seen = self.statements.lock().expect("no panic under the lock");
            seen.push(carried);
        }
        self.das.call(method, params)
    }
}

#[test]
fn a_kept_channel_carries_a_waves_sub_queries_for_one_peer_in_one_call() {
    let run = |policy| {
        let g = GridBuilder::new()
            .with_seed(31)
            .with_connection_policy(policy)
            .with_observability(true)
            .build()
            .expect("grid");
        let node2 = CountedCalls::tap(&g, 1);
        let first = g.query(ROW3_SQL).expect("cold");
        let again = g.query(ROW3_SQL).expect("warm");
        assert_eq!(again.result, first.result);
        for q in [&first, &again] {
            // Table 1's columns count statements, not calls.
            assert_eq!((q.stats.subqueries, q.stats.remote_forwards), (4, 2));
            assert_eq!((q.stats.servers, q.stats.tables), (2, 4));
        }
        // What an operator reads: round trips to node2 as node1 counted
        // them, statements answered as node2 did. (This read is itself a
        // call to node2 — counted from the next read on.)
        let metric = |family: &str, label: &str| {
            let sql = format!(
                "SELECT value FROM gridfed_monitor.metrics \
                 WHERE family = '{family}' AND label = '{label}'"
            );
            let rows = g.query(&sql).expect("monitor").result.rows;
            rows.first().map(|r| r.values()[0].clone())
        };
        let calls = metric("session_peer_calls", NODE2);
        assert_eq!(metric("queries", NODE2), Some(Value::Int(4)));
        (first, node2.take(), calls)
    };
    let (per_query, two_calls, uncounted) = run(ConnectionPolicy::PerQuery);
    let (session, one_call, counted) = run(ConnectionPolicy::Session);
    assert_eq!(two_calls, [1, 1, 1, 1], "the paper's arm: a call per table");
    assert_eq!(one_call, [2, 2], "a kept channel: a call per wave");
    assert_eq!((uncounted, counted), (None, Some(Value::Int(2))));
    assert_eq!(session.result, per_query.result);
    assert_eq!(session.stats.bytes_fetched, per_query.stats.bytes_fetched);
}

#[test]
fn a_statement_failing_behind_the_peer_fails_the_attempt_and_the_retry_resends_it_whole() {
    // node2's `mart_sqlite` — the second statement's database — is down for
    // ten seconds: node2 answers the first statement and fails the second.
    // The unit the supervisor retries is the attempt, so a kept channel
    // sends both statements again; the paper's arm asks for each again.
    let run = |policy| {
        let g = GridBuilder::new()
            .with_seed(31)
            .with_connection_policy(policy)
            .with_resilience(one_retry())
            .with_fault_plan(FaultPlan::new(7).crash("mart_sqlite", secs(10), Some(secs(20))))
            .build()
            .expect("grid");
        let clock = g.service(0).clock();
        let answer = g.query(ROW3_SQL).expect("fault-free").result;
        let node2 = CountedCalls::tap(&g, 1);
        clock.set(secs(10));
        let err = g.query(ROW3_SQL).unwrap_err();
        let calls = node2.take();
        clock.set(secs(21));
        let healed = g.query(ROW3_SQL).expect("healed");
        assert_eq!(healed.result, answer, "{policy:?}");
        assert_eq!(healed.stats.retries, 0, "{policy:?}");
        (err, calls)
    };
    let (p_err, p_calls) = run(ConnectionPolicy::PerQuery);
    let (s_err, s_calls) = run(ConnectionPolicy::Session);
    assert!(
        matches!(p_err, CoreError::BranchUnavailable { .. }),
        "typed: {p_err:?}"
    );
    assert_eq!(s_err, p_err, "the same error value on both arms");
    assert_eq!(p_calls, [1, 1, 1, 1], "attempt and retry, a call per table");
    assert_eq!(s_calls, [2, 2], "attempt and retry, the batch each time");
}

#[test]
fn a_peer_withholding_a_degraded_answer_to_one_statement_withholds_the_whole_reply() {
    // node2 drops dead branches and annotates (`Partial`); the annotation
    // cannot cross the wire, so a degraded answer is refused — and a reply
    // is all of its statements or none.
    let g = GridBuilder::new()
        .with_seed(31)
        .with_resilience(ResilienceConfig {
            degradation: DegradationPolicy::Partial,
            ..one_retry()
        })
        .with_fault_plan(FaultPlan::new(7).crash("mart_sqlite", Cost::ZERO, None))
        .build()
        .expect("grid");
    let node2 = g.service(1);
    let conditions = "SELECT run_id, detector FROM run_conditions WHERE run_id < 2";
    let detectors = "SELECT detector, mean_value FROM detector_summary";
    let degraded = node2.query(detectors).expect("annotated, empty").value;
    assert!(degraded.stats.is_degraded() && degraded.result.is_empty());

    let sql = |s: &str| WireValue::Str(s.to_string());
    let ask = |statements: WireValue| node2.call("query_federated", &[statements]);
    assert!(ask(sql(conditions)).is_ok());
    let alone = ask(sql(detectors)).unwrap_err();
    assert!(
        matches!(&alone, ClarensError::ServiceFault(m) if m.contains("degraded result withheld")),
        "{alone:?}"
    );
    let both = ask(WireValue::List(vec![sql(conditions), sql(detectors)])).unwrap_err();
    assert_eq!(both, alone, "no part of the batch is answered");
}

// ---- EXPLAIN and the monitor surface, session arm ----

fn check_golden(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test session",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "golden mismatch for {name}; regenerate with UPDATE_GOLDEN=1 cargo test --test session"
    );
}

#[test]
fn explain_and_the_monitor_say_what_the_session_did() {
    let g = GridBuilder::new()
        .with_seed(31)
        .with_observability(true)
        .with_resilience(one_retry())
        .with_fault_plan(FaultPlan::new(7).crash("mart_mssql", secs(10), Some(secs(20))))
        .build()
        .expect("grid");
    let das = g.service(0);
    let mut out = String::new();
    let mut run = |title: &str, sql: &str| {
        let _ = writeln!(out, "== {title} ==\n-- {sql}");
        match das.query(sql) {
            Ok(t) => {
                for row in &t.value.result.rows {
                    let cells: Vec<String> = row.values().iter().map(Value::render).collect();
                    let _ = writeln!(out, "{}", cells.join(" | "));
                }
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        }
        out.push('\n');
    };
    // The placement line is the session's own routing decision; a cold
    // mediator's first EXPLAIN ANALYZE pays the handshake, its second none.
    let summary = "SELECT run_id, n_meas FROM run_summary WHERE run_id < 3";
    run(
        "EXPLAIN, kept JDBC connection",
        &format!("EXPLAIN {summary}"),
    );
    run(
        "EXPLAIN ANALYZE, cold",
        &format!("EXPLAIN ANALYZE {summary}"),
    );
    run(
        "EXPLAIN ANALYZE, again",
        &format!("EXPLAIN ANALYZE {summary}"),
    );
    run(
        "EXPLAIN, POOL-RAL handle",
        "EXPLAIN SELECT e_id, energy FROM ntuple_events WHERE e_id < 3",
    );
    // The supervised unit of a remote branch is what one call carries.
    run(
        "EXPLAIN, one call per peer per wave",
        &format!("EXPLAIN {ROW3_SQL}"),
    );
    // A forward (login + two leases), a lease hit, a wave's two statements
    // in one call, an eviction, a reconnect.
    for sql in [FORWARD_SQL, FORWARD_SQL, ROW3_SQL, JOIN_SQL] {
        das.query(sql).expect("fault-free");
    }
    das.clock().set(secs(10));
    das.query(JOIN_SQL).expect_err("mart_mssql is down");
    das.clock().set(secs(21));
    das.query(JOIN_SQL).expect("healed");
    run(
        "gridfed_monitor.metrics, session families",
        "SELECT family, label, value FROM gridfed_monitor.metrics \
         WHERE server = 'clarens://node1:8443/das' AND (family = 'session_connects' \
         OR family = 'session_evictions' OR family = 'session_lease_hits' \
         OR family = 'session_peer_calls') ORDER BY family, label",
    );
    check_golden("session_explain.txt", &out);
}
