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
//! # gridfed-vendors
//!
//! Vendor heterogeneity: the four database products the paper federates
//! (Oracle at Tier-0/1, MySQL at Tier-2/3, MS-SQL marts, SQLite for
//! disconnected laptops), modeled as *dialect profiles* wrapped around the
//! embedded `gridfed-storage` engine.
//!
//! The heterogeneity that matters to the federation middleware is faithfully
//! reproduced:
//!
//! - **SQL dialects** ([`dialect`]) — identifier quoting, type names,
//!   `LIMIT` support; each simulated server *rejects* SQL written in another
//!   vendor's quoting style, so the mediator genuinely must re-render
//!   sub-queries per target.
//! - **Connection-string grammars** ([`connstr`]) — each vendor parses a
//!   different URL shape, as JDBC drivers did.
//! - **Connection semantics** ([`server`]) — authentication, per-vendor
//!   performance multipliers, catalog introspection for XSpec generation.
//! - **Driver dispatch** ([`driver`]) — a registry mapping connection-string
//!   schemes to drivers, the moral equivalent of `DriverManager`.

pub mod connstr;
pub mod dialect;
pub mod driver;
pub mod error;
pub mod kind;
pub mod server;

pub use connstr::ConnectionString;
pub use dialect::{dialect_for, Dialect, DialectText};
pub use driver::{Driver, DriverRegistry};
pub use error::VendorError;
pub use kind::VendorKind;
pub use server::{Answer, Connection, SimServer, WalBatch};

/// Result alias for the vendor layer.
pub type Result<T> = std::result::Result<T, VendorError>;
