//! Ablations of the design choices called out in DESIGN.md §7, each
//! quantified in deterministic virtual time.
//!
//! 1. Parallel vs sequential sub-query dispatch (vs the Unity baseline).
//! 2. RLS-distributed hosting vs one server registering every database.
//! 3. Staging-file ETL vs direct streaming (the paper's own bottleneck).
//! 4. Data marts vs querying the central warehouse.
//! 5. Replica placement: First vs Closest (future-work extension).
//! 6. Branch supervision under the standard fault matrix.
//!
//! Run: `cargo run -p gridfed-bench --bin ablations`

use gridfed_bench::render_table;
use gridfed_core::grid::{mart_url, GridBuilder};
use gridfed_core::resilience::ResilienceConfig;
use gridfed_core::service::{ConnectionPolicy, DispatchMode};
use gridfed_core::ReplicaPolicy;
use gridfed_faults::FaultPlan;
use gridfed_ntuple::spec::NtupleSpec;
use gridfed_ntuple::NtupleGenerator;
use gridfed_simnet::cost::Cost;
use gridfed_unity::UnityDriver;
use gridfed_vendors::{SimServer, VendorKind};
use gridfed_warehouse::etl::{EtlPipeline, TransportMode};

const DISTRIBUTED_QUERY: &str = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
     JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 100";

fn main() {
    dispatch_ablation();
    rls_ablation();
    staging_ablation();
    marts_ablation();
    placement_ablation();
    supervision_ablation();
}

/// Ablation 1: parallel scatter/gather (this paper) vs sequential dispatch
/// vs the Unity baseline (sequential, no cross-database joins).
///
/// Dispatch mode is measured on a warm session (every connection kept) on
/// the four-table query so the (serial) connection setup does not mask the
/// effect; the `PerQuery` row beside it is the 2005 prototype's arm.
fn dispatch_ablation() {
    let four_table = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
         FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id \
         JOIN run_conditions c ON s.run_id = c.run_id \
         JOIN detector_summary d ON c.detector = d.detector \
         WHERE e.e_id < 200";
    let mk = |mode: DispatchMode, policy: ConnectionPolicy| {
        GridBuilder::new()
            .with_seed(1)
            .single_server()
            .with_dispatch(mode)
            .with_connection_policy(policy)
            .source("tier1.cern", VendorKind::Oracle, 300)
            .source("tier2.caltech", VendorKind::MySql, 300)
            .build()
            .expect("grid")
    };
    let parallel = mk(DispatchMode::Parallel, ConnectionPolicy::Session);
    let sequential = mk(DispatchMode::Sequential, ConnectionPolicy::Session);
    let per_query = mk(DispatchMode::Parallel, ConnectionPolicy::PerQuery);

    // The first query opens what the session keeps; measure the second.
    let warm = |grid: &gridfed_core::Grid| {
        grid.query(four_table).expect("first query");
        grid.query(four_table).expect("warm query")
    };
    let (p, s, pq) = (warm(&parallel), warm(&sequential), warm(&per_query));

    // The Unity baseline over the same dictionary: rejects the join
    // outright, so compare on the single-table replica-merge query it can
    // run.
    let unity = UnityDriver::new(
        parallel.service(0).dictionary_snapshot(),
        std::sync::Arc::clone(&parallel.registry),
    );
    let single = "SELECT e_id, energy FROM ntuple_events WHERE e_id < 100";
    let unity_single = unity.query(single).expect("unity single-table");
    let das_single = parallel.query(single).expect("das single-table");
    let unity_join = unity.query(DISTRIBUTED_QUERY);

    println!("== Ablation 1: sub-query dispatch ==\n");
    println!(
        "{}",
        render_table(
            &["configuration", "query", "virtual time"],
            &[
                vec![
                    "mediator, parallel dispatch (session)".into(),
                    "4-db join".into(),
                    format!("{}", p.response_time),
                ],
                vec![
                    "mediator, sequential dispatch (session)".into(),
                    "4-db join".into(),
                    format!("{}", s.response_time),
                ],
                vec![
                    "mediator, parallel dispatch (per-query)".into(),
                    "4-db join".into(),
                    format!("{}", pq.response_time),
                ],
                vec![
                    "Unity baseline".into(),
                    "2-db join".into(),
                    match unity_join {
                        Err(e) => format!("REJECTED ({e})"),
                        Ok(_) => "unexpectedly succeeded".into(),
                    },
                ],
                vec![
                    "mediator (POOL fast path)".into(),
                    "single table".into(),
                    format!("{}", das_single.response_time),
                ],
                vec![
                    "Unity baseline (fresh conns)".into(),
                    "single table".into(),
                    format!("{}", unity_single.cost),
                ],
            ],
        )
    );
    println!();
}

/// 2. Two RLS-coordinated servers vs one server hosting everything.
///
/// The paper's §4.8 trade-off, so measured on the paper's arm: every query
/// connects and asks the RLS.
fn rls_ablation() {
    let two = GridBuilder::new()
        .with_seed(2)
        .with_connection_policy(ConnectionPolicy::PerQuery)
        .build()
        .expect("grid");
    let one = GridBuilder::new()
        .with_seed(2)
        .single_server()
        .with_connection_policy(ConnectionPolicy::PerQuery)
        .build()
        .expect("grid");
    let four_table = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
         FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id \
         JOIN run_conditions c ON s.run_id = c.run_id \
         JOIN detector_summary d ON c.detector = d.detector \
         WHERE e.e_id < 10";
    let t = two.query(four_table).expect("two-server query");
    let o = one.query(four_table).expect("one-server query");
    println!("== Ablation 2: RLS-distributed hosting vs central registration ==\n");
    println!(
        "{}",
        render_table(
            &[
                "configuration",
                "virtual time",
                "rls lookups",
                "local subqueries on server 1"
            ],
            &[
                vec![
                    "2 servers + RLS".into(),
                    format!("{}", t.response_time),
                    t.stats.rls_lookups.to_string(),
                    (t.stats.subqueries - t.stats.remote_forwards).to_string(),
                ],
                vec![
                    "1 server, all databases".into(),
                    format!("{}", o.response_time),
                    o.stats.rls_lookups.to_string(),
                    o.stats.subqueries.to_string(),
                ],
            ],
        )
    );
    println!(
        "The central server answers one query faster (no RLS round trips or\n\
         forwarding), but hosts {} of {} sub-queries itself; with RLS, load\n\
         spreads across servers — the paper's §4.8 motivation.\n",
        o.stats.subqueries, o.stats.subqueries
    );
}

/// 3. Staging-file ETL vs direct streaming.
fn staging_ablation() {
    let spec = NtupleSpec::physics("ntuple", 400);
    let source = SimServer::new(VendorKind::MySql, "t2", "ntuples");
    source.with_db_mut(|db| {
        NtupleGenerator::new(spec.clone(), 3)
            .populate_source(db)
            .expect("populate")
    });
    let sconn = source.connect("grid", "grid").expect("connect").value;

    let w1 = SimServer::new(VendorKind::Oracle, "t0", "warehouse");
    let staged = EtlPipeline::paper()
        .run_batch(&sconn, &w1.connect("grid", "grid").expect("c").value, None)
        .expect("staged etl");
    let w2 = SimServer::new(VendorKind::Oracle, "t0", "warehouse");
    let direct = EtlPipeline::paper()
        .with_mode(TransportMode::Direct)
        .run_batch(&sconn, &w2.connect("grid", "grid").expect("c").value, None)
        .expect("direct etl");

    println!("== Ablation 3: staging-file ETL vs direct streaming ==\n");
    println!(
        "{}",
        render_table(
            &["mode", "payload kB", "extract", "load", "total"],
            &[
                vec![
                    "staged (prototype)".into(),
                    format!("{:.1}", staged.kilobytes()),
                    format!("{}", staged.extract_cost),
                    format!("{}", staged.load_cost),
                    format!("{}", staged.total()),
                ],
                vec![
                    "direct (future work)".into(),
                    format!("{:.1}", direct.kilobytes()),
                    format!("{}", direct.extract_cost),
                    format!("{}", direct.load_cost),
                    format!("{}", direct.total()),
                ],
            ],
        )
    );
    println!(
        "Removing the temporary file saves {:.1}% of the batch — the paper's\n\
         \"performance bottleneck\" remark, quantified.\n",
        100.0 * (1.0 - direct.total().as_secs_f64() / staged.total().as_secs_f64())
    );
}

/// 4. Querying the local mart vs aggregating the central warehouse.
fn marts_ablation() {
    let grid = GridBuilder::new()
        .with_seed(4)
        .source("tier1.cern", VendorKind::Oracle, 1300)
        .source("tier2.caltech", VendorKind::MySql, 1300)
        .build()
        .expect("grid");
    // Register the central warehouse with server 2's service (which also
    // hosts the Oracle mart) so both paths run locally through pooled
    // POOL-RAL handles; the comparison isolates precomputation + volume.
    let das = grid.service(1);
    das.register_database(&mart_url(&grid.warehouse))
        .expect("warehouse registers");

    let mart = das
        .query("SELECT run_id, detector, avg_weight FROM run_conditions")
        .expect("mart query")
        .value;
    let central = das
        .query(
            "SELECT run_id, detector, AVG(weight) AS avg_weight \
             FROM fact_measurements GROUP BY run_id, detector ORDER BY run_id",
        )
        .expect("warehouse query")
        .value;
    assert_eq!(mart.result.len(), central.result.len());
    let mart_time = mart.stats.breakdown.total();
    let central_time = central.stats.breakdown.total();

    println!("== Ablation 4: data mart vs central warehouse ==\n");
    println!(
        "{}",
        render_table(
            &["source", "rows scanned", "virtual time"],
            &[
                vec![
                    "materialized mart (run_conditions)".into(),
                    mart.stats.rows_fetched.to_string(),
                    format!("{mart_time}"),
                ],
                vec![
                    "central warehouse (fact table)".into(),
                    grid.warehouse
                        .with_db(|db| db.table("fact_measurements").map(|t| t.len()).unwrap_or(0))
                        .to_string(),
                    format!("{central_time}"),
                ],
            ],
        )
    );
    println!(
        "Same answer, {:.1}x faster from the mart — the paper's §4.3 argument\n\
         for materializing views close to the applications.\n",
        central_time.as_secs_f64() / mart_time.as_secs_f64()
    );
}

/// 5. Replica placement: First vs Closest over a WAN.
fn placement_ablation() {
    let mk = |policy: ReplicaPolicy| {
        // Replicated events mart on both nodes; WAN between them. Register
        // the far replica first so `First` picks badly.
        GridBuilder::new()
            .with_seed(5)
            .with_policy(policy)
            .with_wan(true)
            .replicate_events(true)
            .build()
            .expect("grid")
    };
    // With replicate_events, mart_oracle (node2, far) also hosts
    // ntuple_events; service(1) is on node2. Query via service(1), whose
    // dictionary sees its local replica and (via RLS) the remote one —
    // exercise the local choice by registering both replicas with one DAS.
    let near_far = mk(ReplicaPolicy::First);
    let far_first_url = mart_url(&near_far.marts[2]); // mart_oracle @ node2
    let near_url = mart_url(&near_far.marts[0]); // mart_mysql @ node1
    let das = near_far.service(0);
    // Re-register so the far replica comes first in the dictionary.
    das.unregister_database("mart_mysql");
    das.register_database(&far_first_url).expect("far replica");
    das.register_database(&near_url).expect("near replica");

    let first = das
        .query("SELECT e_id FROM ntuple_events WHERE e_id < 50")
        .expect("first policy query");

    let closest_grid = mk(ReplicaPolicy::Closest);
    let das2 = closest_grid.service(0);
    das2.unregister_database("mart_mysql");
    das2.register_database(&mart_url(&closest_grid.marts[2]))
        .expect("far replica");
    das2.register_database(&mart_url(&closest_grid.marts[0]))
        .expect("near replica");
    let closest = das2
        .query("SELECT e_id FROM ntuple_events WHERE e_id < 50")
        .expect("closest policy query");

    println!("== Ablation 5: replica placement over a WAN ==\n");
    println!(
        "{}",
        render_table(
            &["policy", "virtual time"],
            &[
                vec!["First (prototype)".into(), format!("{}", first.cost)],
                vec!["Closest (future work)".into(), format!("{}", closest.cost)],
            ],
        )
    );
    println!(
        "The network-aware policy picks the LAN replica and avoids the WAN\n\
         round trips — the paper's closest-replica future-work item."
    );
}

/// 6. Supervised scatter/gather under the standard fault matrix.
///
/// 20 % transient faults on every component, one permanently crashed
/// replica (`mart_mysql`, so its branch always fails over to the Oracle
/// replica) and a 3x-slowed MS-SQL mart, every ingredient persistent so one
/// grid serves all 200 queries.
fn supervision_ablation() {
    let join = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
         JOIN run_summary s ON e.run_id = s.run_id \
         WHERE e.e_id < 40 ORDER BY e.e_id";
    let fault_free = GridBuilder::new()
        .with_seed(31)
        .replicate_events(true)
        .build()
        .expect("fault-free grid")
        .query(join)
        .expect("fault-free query")
        .response_time;
    let faulted = GridBuilder::new()
        .with_seed(31)
        .replicate_events(true)
        .with_resilience(ResilienceConfig::standard())
        .with_fault_plan(
            FaultPlan::new(7)
                .transient("*", 0.2)
                .crash("mart_mysql", Cost::ZERO, None)
                .slow("mart_mssql", 3.0, Cost::ZERO, None),
        )
        .build()
        .expect("faulted grid");
    let mut answered = Vec::new();
    let mut unavailable = 0usize;
    for _ in 0..200 {
        // The run_summary mart has no replica, so a long-enough transient
        // streak exhausts its branch: a typed failure, counted.
        match faulted.query(join) {
            Ok(out) => answered.push(out.response_time.as_micros()),
            Err(_) => unavailable += 1,
        }
    }
    answered.sort_unstable();
    let percentile = |p: f64| answered[((answered.len() - 1) as f64 * p).round() as usize];

    println!("\n== Ablation 6: branch supervision under the standard fault matrix ==\n");
    println!(
        "{}",
        render_table(
            &[
                "grid",
                "queries",
                "answered",
                "unavailable",
                "p50 µs",
                "p99 µs"
            ],
            &[
                vec![
                    "fault-free".into(),
                    "1".into(),
                    "1".into(),
                    "0".into(),
                    fault_free.as_micros().to_string(),
                    fault_free.as_micros().to_string(),
                ],
                vec![
                    "standard fault matrix".into(),
                    (answered.len() + unavailable).to_string(),
                    answered.len().to_string(),
                    unavailable.to_string(),
                    percentile(0.5).to_string(),
                    percentile(0.99).to_string(),
                ],
            ],
        )
    );
    println!(
        "Retries and failover to the Oracle replica answer {} of {} queries; the\n\
         rest lose the unreplicated run_summary branch to a transient streak and\n\
         fail with a typed error, never a wrong answer.",
        answered.len(),
        answered.len() + unavailable
    );
}
