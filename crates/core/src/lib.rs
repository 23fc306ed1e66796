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
//! # gridfed-core
//!
//! The paper's primary contribution: the **Data Access Service** — the
//! middleware that lets a client pose one SQL query against "a single,
//! simplified view" of many heterogeneous, geographically distributed
//! relational databases.
//!
//! Query path (paper §4.5-§4.8):
//!
//! 1. A Clarens client submits SQL to the service.
//! 2. The service parses it and resolves each logical table through the
//!    XSpec data dictionary.
//! 3. Tables registered locally route to either the **POOL-RAL path**
//!    (POOL-supported vendors, pooled handles) or the **Unity/JDBC path**
//!    (everything else) — over connections the mediator's session keeps
//!    open, or, on the paper's `PerQuery` arm, opens for every query.
//! 4. Tables *not* registered locally are found via the **RLS** and the
//!    sub-queries are forwarded to the remote JClarens server hosting them.
//! 5. Partial results are pulled back, cross-database joins and residual
//!    predicates are applied by the mediator, and a single 2-D result
//!    vector is returned.
//!
//! Modules:
//! - [`decompose`] — query analysis: table homes, predicate push-down,
//!   per-table sub-query construction.
//! - [`federate`] — partial-result integration: in-memory join + residual
//!   evaluation using the `sqlkit` executor.
//! - [`service`] — [`service::DataAccessService`], including the Clarens
//!   `Service` binding, runtime plug-in registration (§4.10), and schema
//!   tracking (§4.9).
//! - [`placement`] — replica-selection policies (incl. the closest-replica
//!   future-work extension).
//! - [`stats`] — per-query statistics and cost breakdowns; the one table
//!   of counters a mediator hop reports about itself.
//! - `wire` (private) — every form that crosses a mediator hop: typed rows,
//!   the hop counters, spans, monitor partials.
//! - `replicas` (private) — what the mediator knows about each replica it
//!   hosts: data version, WAL-replication lag, live row count.
//! - `explain` (private) — EXPLAIN / EXPLAIN ANALYZE rendering.
//! - [`grid`] — [`grid::GridBuilder`]: one-call assembly of a complete
//!   simulated grid (sources, warehouse, marts, Clarens servers, RLS) for
//!   examples, tests, and benchmarks.
//! - [`resilience`] — the branch supervision loop (deadlines, retry with
//!   backoff, replica failover, circuit breakers, hedged requests,
//!   graceful degradation) that every scatter branch runs through.
//! - `session` (private) — what a mediator keeps between queries: one
//!   connection per backend, one channel per peer, leased RLS locations.
//! - [`config`] — [`config::MediatorConfig`], the one value a mediator is
//!   configured with; a query reads it once, when it enters.
//! - `monitor` (private) — the `gridfed_monitor.*` tables: built on demand
//!   from the mediator's own observability state and fanned out to every
//!   directory peer through the same scatter as any other query.
//! - [`admission`] — the bounded, tenant-fair admission queue in front of
//!   the parallel executor (DESIGN.md §4.11): backpressure with a typed
//!   error instead of an overloaded mediator.

pub mod admission;
mod cache;
pub mod config;
pub mod decompose;
pub mod error;
mod explain;
pub mod federate;
pub mod grid;
pub mod jas;
mod monitor;
pub mod placement;
mod replicas;
pub mod resilience;
mod scatter;
pub mod service;
mod session;
pub mod stats;
mod wire;

pub use admission::{Admission, AdmissionConfig};
pub use config::MediatorConfig;
pub use error::CoreError;
pub use grid::{Grid, GridBuilder, ReplicationConfig};
pub use placement::{ReplicaPolicy, ReplicaStaleness};
pub use resilience::{DegradationPolicy, Resilience, ResilienceConfig};
pub use service::{DataAccessService, DispatchMode, QueryOutcome};
pub use stats::{BranchDrop, QueryStats};

/// Result alias for the mediator.
pub type Result<T> = std::result::Result<T, CoreError>;
