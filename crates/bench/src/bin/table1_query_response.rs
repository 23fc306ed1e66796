//! Table 1 — "Query Response Time": the three query classes of the
//! paper's Stage-3 evaluation.
//!
//! | row | Clarens servers | distributed | tables | paper |
//! |---|---|---|---|---|
//! | 1 | 1 | No  | 1 | 38 ms |
//! | 2 | 1 | Yes | 2 | 487.5 ms |
//! | 3 | 2 | Yes | 4 | 594 ms |
//!
//! Run: `cargo run -p gridfed-bench --bin table1_query_response [--wan]`

use gridfed_bench::{paper_grids, ratio, render_table, warm_ms, TABLE1_PAPER};

fn main() {
    let wan = std::env::args().any(|a| a == "--wan");
    // The paper's columns come from the `PerQuery` arm — the prototype as
    // measured; the `Session` arm beside them is the mediator's default.
    let (grid, session) = paper_grids(wan);

    // Row 1: one table, locally registered, POOL fast path.
    let q1 = "SELECT e_id, energy FROM ntuple_events WHERE e_id < 20";
    // Row 2: two tables in two databases behind one Clarens server.
    let q2 = "SELECT e.e_id, s.n_meas FROM ntuple_events e \
              JOIN run_summary s ON e.run_id = s.run_id WHERE e.e_id < 20";
    // Row 3: four tables across both Clarens servers (RLS + forwarding).
    let q3 = "SELECT e.e_id, s.n_meas, c.avg_weight, d.mean_value \
              FROM ntuple_events e \
              JOIN run_summary s ON e.run_id = s.run_id \
              JOIN run_conditions c ON s.run_id = c.run_id \
              JOIN detector_summary d ON c.detector = d.detector \
              WHERE e.e_id < 20";

    let mut rows = Vec::new();
    for (query, (servers, distributed, paper_ms, tables)) in [q1, q2, q3].iter().zip(TABLE1_PAPER) {
        let out = grid.query(query).expect("query succeeds");
        assert_eq!(
            out.stats.servers, servers,
            "server count matches the paper row"
        );
        assert_eq!(out.stats.distributed, distributed);
        assert_eq!(out.stats.tables, tables);
        let measured = out.response_time.as_millis_f64();
        let kept = session.query(query).expect("query succeeds");
        assert_eq!(kept.result, out.result, "both arms answer alike");
        assert_eq!(
            (
                kept.stats.servers,
                kept.stats.distributed,
                kept.stats.tables
            ),
            (servers, distributed, tables)
        );
        rows.push(vec![
            servers.to_string(),
            if distributed { "Yes" } else { "No" }.to_string(),
            tables.to_string(),
            format!("{paper_ms:.1}"),
            format!("{measured:.1}"),
            ratio(measured, paper_ms),
            format!("{:.1}", warm_ms(&session, query)),
            format!(
                "conn={} pooled={} rls={} fwd={}",
                out.stats.connections_opened,
                out.stats.pooled_hits,
                out.stats.rls_lookups,
                out.stats.remote_forwards
            ),
        ]);
    }

    println!(
        "Table 1 — Query response time{}\n",
        if wan {
            " (WAN links between servers)"
        } else {
            ""
        }
    );
    println!(
        "{}",
        render_table(
            &[
                "servers",
                "distributed",
                "tables",
                "paper ms",
                "ours ms",
                "ratio",
                "session ms",
                "mediator activity (ours)",
            ],
            &rows,
        )
    );

    let ms = |row: usize, col: usize| -> f64 { rows[row][col].parse().expect("numeric") };
    println!(
        "Shape check: distributed / local = {:.1}x (paper: {:.1}x — \"more than 10\n\
         times slower\"), driven by fresh connection+authentication per database\n\
         plus RLS lookups and result integration, exactly as §5.2 explains.\n\
         With the mediator's session keeping those connections and leasing the RLS\n\
         answers (\"session ms\": the statement's second occurrence), what is left of\n\
         the penalty is {:.1}x: sub-query execution, forwarding and integration\n\
         (row 3's two sub-queries for the second server travel in one call).",
        ms(1, 4) / ms(0, 4),
        487.5 / 38.0,
        ms(1, 6) / ms(0, 6)
    );
}
