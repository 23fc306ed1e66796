#![warn(missing_docs)]
// Shipped code answers with a typed error, never a panic; a site that
// cannot fail keeps an `#[allow]` naming its invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
//! # gridfed-sqlkit
//!
//! SQL front-end and single-database execution engine.
//!
//! The paper's Data Access Service receives SQL over the Clarens web-service
//! interface, parses it, splits it into sub-queries, and renders each
//! sub-query in the dialect of the target database. This crate supplies all
//! of those pieces:
//!
//! - [`lexer`] / [`parser`] — hand-written lexer and recursive-descent
//!   parser for the SQL subset the prototype supports (`SELECT` with joins,
//!   predicates, grouping, ordering, limits; `CREATE TABLE`; `INSERT`;
//!   `CREATE VIEW`), refusing with a typed error any statement nested
//!   deeper than [`parser::MAX_DEPTH`].
//! - [`cache`] — the bounded LRU every statement cache of the workspace is
//!   built on, and the lexically exact statement key.
//! - [`ast`] — the abstract syntax tree shared by the mediator, the vendor
//!   dialect renderers, and the executor.
//! - [`expr`] — name resolution ([`expr::Bindings`]), the SQL operator and
//!   function semantics compiled expressions evaluate with, and the
//!   aggregate accumulator.
//! - [`compile`] — compile-once/execute-many lowering of expressions against
//!   a fixed row layout: columns resolved to positions, literals pre-folded,
//!   plus the non-allocating [`compile::KeyValue`] hash key used by joins,
//!   GROUP BY, and DISTINCT.
//! - [`plan`] — the logical query-plan IR built from a parsed `SELECT`;
//!   shared by the executor, the optimizer, the mediator's decomposer, and
//!   `EXPLAIN` rendering.
//! - [`optimize`] — rule-based optimizer passes (constant folding, predicate
//!   pushdown, join reordering, projection pruning) over the plan IR.
//! - [`batch`] — the vectorized evaluation layer: columnar relation views
//!   over storage chunks, selection vectors, typed predicate kernels, and
//!   deferred per-row error accounting.
//! - [`exec`] — the batch executor over a [`exec::DatabaseProvider`], used for
//!   per-mart execution and for the mediator's post-merge residual
//!   processing. Runs optimized plans columnar, materializing rows late. It
//!   is the crate's one executor; the differential suites check it against
//!   the row-at-a-time reference interpreter of the dev-only
//!   `gridfed-reference` crate, which shares none of its code.
//! - [`keys`] — the key kernel every equal key is found through: a dense
//!   or hashed index over canonical key bits, the runs of equal keys along
//!   a selection, and one hash chain.
//! - [`fold`] — retained grouped aggregation: the executor's GROUP BY
//!   accumulators kept across calls, so an append-only input is folded row
//!   by row instead of re-aggregated (incremental view maintenance).
//! - [`par`] — morsel-driven intra-query parallelism: a scoped
//!   `std::thread::scope` worker pool over selection-vector morsels, with
//!   an execution config ([`par::ExecConfig`]) installed scopewise so the
//!   embedder chooses pool width, batch window, and morsel size per query.
//! - [`analyze`] — `EXPLAIN ANALYZE`: per-node execution profiles
//!   (actual rows, loops, inclusive time) rendered next to the optimizer's
//!   row estimates.
//! - [`bloom`] — fixed-seed bloom filters for cross-database semi-join
//!   reduction, hex-encoded into `BLOOM_HAS(col, '<hex>')` predicates so a
//!   small join side can filter a big side at its source.
//! - [`render`] — AST → SQL text, parameterized by a [`render::SqlStyle`] so
//!   vendor crates can impose their dialect quirks.
//! - [`result`] — [`ResultSet`], the "single 2-D vector" of the paper.

pub mod analyze;
pub mod ast;
pub mod batch;
pub mod bloom;
pub mod cache;
pub mod compile;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fold;
pub mod keys;
pub mod lexer;
pub mod optimize;
pub mod par;
pub mod parser;
pub mod plan;
pub mod render;
pub mod result;

pub use analyze::{
    annotate, estimate_rows, execute_plan_analyzed, explain_analyze_select, explain_select,
    NodeProfile, PlanProfile,
};
pub use ast::{Expr, SelectStmt, Statement};
pub use compile::{compile, CompiledExpr, KeyValue};
pub use error::SqlError;
pub use exec::{execute_select, DatabaseProvider, ExecMetrics, Lowered};
pub use fold::RetainedAggregate;
pub use optimize::{optimize, optimize_with, NoCatalog, PassSet, PlanCatalog};
pub use par::{current_exec_config, with_exec_config, ExecConfig, WorkerEnvHook};
pub use parser::parse;
pub use plan::{build_plan, LogicalPlan};
pub use render::{render_statement, NeutralStyle, SqlStyle};
pub use result::{Cells, ColumnSet, ResultSet};

/// Result alias for the SQL layer.
pub type Result<T> = std::result::Result<T, SqlError>;
