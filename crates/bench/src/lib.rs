#![warn(missing_docs)]
//! # gridfed-bench
//!
//! Shared harness for the paper-reproduction experiments.
//!
//! Every table and figure in the paper's evaluation (§5) has a binary in
//! `src/bin/` that rebuilds the corresponding experiment on the simulated
//! grid and prints **paper value vs measured value** side by side:
//!
//! | Experiment | Binary |
//! |---|---|
//! | Figure 4 (ETL source → warehouse) | `fig4_etl_source_to_warehouse` |
//! | Figure 5 (warehouse → marts)      | `fig5_warehouse_to_marts` |
//! | Table 1 (query response times)    | `table1_query_response` |
//! | Figure 6 (rows vs response time)  | `fig6_row_scaling` |
//! | Design-choice ablations (§7 of DESIGN.md) | `ablations` |
//!
//! Criterion micro-benchmarks live in `benches/` and cover each pipeline
//! stage plus the ablations called out in `DESIGN.md` §7.

use gridfed_core::grid::{Grid, GridBuilder};
use gridfed_core::service::ConnectionPolicy;
use gridfed_vendors::VendorKind;

/// Paper reference data for Table 1 (measured on the authors' testbed):
/// (Clarens servers, distributed, response ms, tables accessed).
pub const TABLE1_PAPER: [(usize, bool, f64, usize); 3] = [
    (1, false, 38.0, 1),
    (1, true, 487.5, 2),
    (2, true, 594.0, 4),
];

/// Paper reference x-axis for Figure 4: payload sizes in kB.
pub const FIG4_SIZES_KB: [f64; 8] = [0.397, 4.928, 8.217, 9.486, 12.721, 67.480, 113.414, 207.866];

/// Paper reference x-axis for Figure 6: requested row counts.
pub const FIG6_ROWS: [usize; 12] = [
    21, 51, 301, 451, 700, 801, 901, 1701, 1751, 2251, 2451, 2551,
];

/// Figure 6 paper trend, digitized from the plot: ~300 ms at 21 rows
/// rising linearly to ~700 ms at 2551 rows.
pub fn fig6_paper_ms(rows: usize) -> f64 {
    300.0 + (rows.saturating_sub(21)) as f64 * (400.0 / 2530.0)
}

/// Figure 4 paper trends, digitized approximately from the plot
/// (y-axis 0-20 s over 0.4-208 kB): returns (extraction s, loading s).
pub fn fig4_paper_secs(kb: f64) -> (f64, f64) {
    (0.8 + 0.036 * kb, 1.5 + 0.070 * kb)
}

/// Figure 5 paper trends, digitized approximately from the plot
/// (y-axis 0-90 s over 0-80 kB): returns (extraction s, loading s).
pub fn fig5_paper_secs(kb: f64) -> (f64, f64) {
    (0.5 + 0.30 * kb, 1.0 + 1.00 * kb)
}

/// The standard query grid for Table 1 / Figure 6: two Clarens servers,
/// four marts, enough events that Figure 6 can request 2551 rows — once per
/// connection policy. The paper's columns are regenerated on the first
/// (`PerQuery`: the 2005 prototype, which connects and asks the RLS for
/// every distributed query); the second (`Session`) is what the mediator
/// does by default. `wan` puts WAN links between the two servers.
pub fn paper_grids(wan: bool) -> (Grid, Grid) {
    let build = |policy| {
        GridBuilder::new()
            .with_seed(2005)
            .source("tier1.cern", VendorKind::Oracle, 1300)
            .source("tier2.caltech", VendorKind::MySql, 1300)
            .with_connection_policy(policy)
            .with_wan(wan)
            .build()
            .expect("paper grid builds")
    };
    (
        build(ConnectionPolicy::PerQuery),
        build(ConnectionPolicy::Session),
    )
}

/// Response time of `sql` on a mediator whose session is warm: the
/// statement's second occurrence, in ms.
pub fn warm_ms(grid: &Grid, sql: &str) -> f64 {
    grid.query(sql).expect("query succeeds");
    let warm = grid.query(sql).expect("query succeeds");
    warm.response_time.as_millis_f64()
}

/// Render an aligned text table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        line
    };
    let mut out = String::new();
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a measured/paper ratio as `x.xx×`.
pub fn ratio(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        "—".to_string()
    } else {
        format!("{:.2}x", measured / paper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_shapes() {
        assert!(TABLE1_PAPER[1].2 > 10.0 * TABLE1_PAPER[0].2);
        assert!(fig6_paper_ms(2551) > fig6_paper_ms(21));
        let (e1, l1) = fig4_paper_secs(10.0);
        assert!(l1 > e1);
        let (e2, l2) = fig5_paper_secs(70.0);
        assert!(l2 > e2 && l2 < 90.0);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "long_header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["33".into(), "4444".into()],
            ],
        );
        assert!(t.contains("long_header"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(20.0, 10.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "—");
    }
}
