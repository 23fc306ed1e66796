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
//! # gridfed-warehouse
//!
//! The data-integration half of the paper's architecture (the lower half of
//! its Figure 1): Extraction-Transformation-Transportation-Loading from the
//! normalized source databases into the denormalized **data warehouse**,
//! read-only **views** over the warehouse, and **materialization** of those
//! views into the **data marts** that sit close to the clients.
//!
//! The paper's three integration stages:
//!
//! 1. *Stage 1* ([`etl`]) — data is extracted from the normalized schemas,
//!    transformed to the star schema, streamed through a **temporary
//!    staging file** (which the paper itself calls a bottleneck), and
//!    loaded into the warehouse. Figure 4 measures this stage.
//! 2. *Stage 2* ([`views`], [`marts`]) — views are created on the
//!    warehouse and materialized (again via staging) into the data marts.
//!    Figure 5 measures this stage.
//! 3. *Stage 3* is the query side, owned by `gridfed-core`.
//!
//! The "direct" (staging-free) loading mode the paper lists as future work
//! is implemented as [`etl::TransportMode::Direct`] and compared with the
//! staged mode in section 3 of the `ablations` binary.

pub mod etl;
pub mod marts;
pub mod repl;
pub mod views;

pub use etl::{fact_high_water_mark, EtlPipeline, EtlReport, TransportMode};
pub use marts::{
    mart_meta_schema, materialize_into_mart, read_all_mart_meta, read_mart_meta, MartMeta,
    MartReport, MART_META_TABLE,
};
pub use repl::{wal_head, ReplBatchReport, ReplLag, ReplicationStream, DEFAULT_BATCH_LIMIT};
pub use views::{evaluate_view, ViewDef};

/// Errors raised by the warehouse layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WarehouseError {
    /// Underlying vendor/connection failure.
    Vendor(gridfed_vendors::VendorError),
    /// Underlying SQL failure.
    Sql(gridfed_sqlkit::SqlError),
    /// Underlying storage failure.
    Storage(gridfed_storage::StorageError),
    /// Structural problem (missing table, bad view, …).
    Pipeline(String),
    /// A replication link is partitioned: the subscriber at `to` cannot
    /// reach the warehouse at `from` over the current topology.
    Unreachable {
        /// Upstream (warehouse) host.
        from: String,
        /// Subscriber (mart) host.
        to: String,
    },
}

impl std::fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarehouseError::Vendor(e) => write!(f, "vendor error: {e}"),
            WarehouseError::Sql(e) => write!(f, "SQL error: {e}"),
            WarehouseError::Storage(e) => write!(f, "storage error: {e}"),
            WarehouseError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            WarehouseError::Unreachable { from, to } => {
                write!(f, "replication link partitioned: {to} cannot reach {from}")
            }
        }
    }
}

impl std::error::Error for WarehouseError {}

impl From<gridfed_vendors::VendorError> for WarehouseError {
    fn from(e: gridfed_vendors::VendorError) -> Self {
        WarehouseError::Vendor(e)
    }
}
impl From<gridfed_sqlkit::SqlError> for WarehouseError {
    fn from(e: gridfed_sqlkit::SqlError) -> Self {
        WarehouseError::Sql(e)
    }
}
impl From<gridfed_storage::StorageError> for WarehouseError {
    fn from(e: gridfed_storage::StorageError) -> Self {
        WarehouseError::Storage(e)
    }
}

/// Result alias for the warehouse layer.
pub type Result<T> = std::result::Result<T, WarehouseError>;
