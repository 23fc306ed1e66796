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
//! # gridfed-ntuple
//!
//! The HBOOK Ntuple data model and workload generator — the stand-in for
//! the LHC non-event data (calibration and conditions data) the paper
//! federates.
//!
//! Per the paper's own explanation: *"Suppose that a dataset contains 10000
//! events and each event consists of many variables (say NVAR=200), then an
//! Ntuple is like a table where these 200 variables are the columns and
//! each event is a row."*
//!
//! - [`spec`] — ntuple shape descriptions (event count, NVAR, variables).
//! - [`schema`] — the **normalized** source schema (runs / events /
//!   variables / measurements) and the **denormalized star schema** of the
//!   warehouse (fact table + dimensions), with mapping helpers.
//! - [`gen`] — a deterministic, seeded generator for physics-flavoured
//!   data at the paper's scale (the testbed hosted ~80 000 rows across
//!   1700 tables).
//! - [`hist`] — 1-D and 2-D histograms, the JAS-plugin substitute that
//!   consumes query results.

pub mod gen;
pub mod hist;
pub mod schema;
pub mod spec;

pub use gen::NtupleGenerator;
pub use hist::{Histogram1D, Histogram2D};
pub use spec::NtupleSpec;
