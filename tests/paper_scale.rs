//! Paper-scale integration: the testbed hosted "a total of 6 databases,
//! with a total of nearly 80,000 rows and 1700 tables" (§5.2). This test
//! stands up a comparable inventory and checks that the middleware stays
//! correct and responsive at that catalog size — on the paper's arm
//! (`PerQuery`: the prototype as measured, > 10× distribution penalty and
//! all) and on the mediator's default (`Session`), printed side by side.

mod common;

use common::two_sources;
use gridfed::core::service::ConnectionPolicy;

#[test]
fn paper_inventory_scale() {
    let paper = inventory_at_scale(ConnectionPolicy::PerQuery);
    let kept = inventory_at_scale(ConnectionPolicy::Session);
    println!(
        "arm: local ms, distributed ms (2nd occurrence)\nPerQuery: {paper:?}\nSession:  {kept:?}"
    );
    // The paper's shape at the paper's scale: distribution costs more than
    // ten times the local fast path. The session leaves the local path as
    // it was and takes the handshakes out of the distributed one.
    assert!(paper.1 > 10.0 * paper.0, "{paper:?}");
    assert_eq!(kept.0, paper.0);
    assert!(kept.1 < paper.1 - 400.0, "{kept:?} vs {paper:?}");
}

/// Stand the inventory up under `policy`, check it, and return the local
/// and the (warm) distributed response time in ms.
fn inventory_at_scale(policy: ConnectionPolicy) -> (f64, f64) {
    // 4000 events × 7 variables = 28 000 measurement rows in the fact
    // table plus ~4000-row pivot marts, under a 1700-table catalog.
    let grid = two_sources(2005, 2000)
        .catalog_padding(1700)
        .with_connection_policy(policy)
        .build()
        .expect("paper-scale grid builds");

    // Inventory: 2 sources + warehouse + 4 marts ≈ the paper's "6
    // databases"; the padded catalog reaches 1700+ tables.
    let total_tables: usize = grid
        .marts
        .iter()
        .map(|m| m.with_db(|db| db.table_count()))
        .sum();
    assert!(
        total_tables >= 1700,
        "catalog has {total_tables} tables, expected ≥ 1700"
    );

    // Both Data Access Services carry the padded dictionaries.
    let dict_tables = grid.service(0).local_tables().len() + grid.service(1).local_tables().len();
    assert!(dict_tables >= 1700, "dictionaries hold {dict_tables}");

    // The RLS knows every padded table.
    assert!(grid.rls.tables().len() >= 1700);

    // Query latency does not degrade with catalog size: the local
    // fast-path query stays in Table-1-row-1 territory.
    let out = grid
        .query("SELECT e_id, energy FROM ntuple_events WHERE e_id < 20")
        .expect("local query at scale");
    assert_eq!(out.result.len(), 20);
    let local_ms = out.response_time.as_millis_f64();
    assert!(
        out.response_time.as_millis_f64() < 60.0,
        "local query slowed to {} under a 1700-table catalog",
        out.response_time
    );

    // A padded table is reachable through the full path (it is empty but
    // resolvable — possibly on the other server via RLS).
    let padded = grid
        .query("SELECT id, payload FROM pad_0007")
        .expect("padded table resolves");
    assert_eq!(padded.result.len(), 0);
    assert_eq!(padded.result.columns, vec!["id", "payload"]);

    // Distributed query correctness at row volume: all 4000 events come
    // back through the 2-database join.
    let out = grid
        .query(
            "SELECT e.e_id, s.n_meas FROM ntuple_events e \
             JOIN run_summary s ON e.run_id = s.run_id",
        )
        .expect("distributed query at scale");
    assert_eq!(out.result.len(), 4000);
    assert!(out.stats.distributed);

    // The Table-1 row-2 statement, second occurrence: what a warm mediator
    // answers it in.
    let row2 = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
                JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 20";
    grid.query(row2).expect("row 2");
    let warm = grid.query(row2).expect("row 2 again");
    assert_eq!(warm.result.len(), 20);
    (local_ms, warm.response_time.as_millis_f64())
}
