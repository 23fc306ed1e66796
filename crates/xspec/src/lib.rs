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
//! # gridfed-xspec
//!
//! XSpec metadata — the Unity-style "XML Specifications" files that form
//! the federation's data dictionary.
//!
//! Per the paper (§4.4): each database has a **Lower-Level XSpec** generated
//! from the source, holding its schema (tables, columns, relationships);
//! one hand-written **Upper-Level XSpec** lists, per database, its URL,
//! driver, and Lower-Level file. Clients use *logical names* from this
//! dictionary with no knowledge of physical locations; the query processor
//! maps logical → physical and partitions queries accordingly.
//!
//! - [`model`] — the XSpec data model.
//! - [`xml`] — a small XML writer/parser pair for the on-disk format.
//! - [`generate`] — Lower-Level XSpec generation from a live connection's
//!   catalog (the "tools provided by the Unity project").
//! - [`dict`] — the data dictionary: logical-name resolution.
//! - [`tracker`] — schema-change tracking via size + MD5 comparison of
//!   regenerated XSpecs (§4.9).
//! - [`md5`] — self-contained RFC 1321 MD5 (no external dependency).
//! - [`semantic`] — the paper's future-work extension: semantic-similarity
//!   hints for integrating tables across databases.

pub mod dict;
pub mod generate;
pub mod md5;
pub mod model;
pub mod semantic;
pub mod tracker;
pub mod xml;

pub use dict::DataDictionary;
pub use generate::generate_lower_xspec;
pub use model::{LowerXSpec, UpperEntry, UpperXSpec, XColumn, XTable};
pub use tracker::{SchemaTracker, TrackOutcome};

/// Errors raised by the metadata layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XSpecError {
    /// Malformed XML input.
    Xml(String),
    /// Structurally valid XML that is not a valid XSpec.
    Model(String),
    /// Logical name not found in the dictionary.
    Unknown(String),
}

impl std::fmt::Display for XSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XSpecError::Xml(m) => write!(f, "XML error: {m}"),
            XSpecError::Model(m) => write!(f, "XSpec model error: {m}"),
            XSpecError::Unknown(n) => write!(f, "unknown logical name `{n}`"),
        }
    }
}

impl std::error::Error for XSpecError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, XSpecError>;
