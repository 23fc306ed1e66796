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
//! # gridfed-storage
//!
//! An embedded relational storage engine: the substrate standing in for the
//! Oracle / MySQL / MS-SQL / SQLite servers the paper deployed at the LHC
//! computing tiers.
//!
//! The engine provides typed values, schemas, row stores with optional
//! ordered (B-tree) secondary indexes, and named databases with a catalog.
//! It is deliberately small but real: every byte of data that the federation
//! middleware moves in this repository is stored in — and scanned out of —
//! these tables.
//!
//! The SQL front-end lives in `gridfed-sqlkit`; vendor dialect façades live
//! in `gridfed-vendors`.

pub mod column;
pub mod database;
pub mod error;
pub mod index;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;
pub mod wal;

pub use column::{Bitmap, ColumnChunk, StrDict};
pub use database::Database;
pub use error::StorageError;
pub use index::OrderedIndex;
pub use row::Row;
pub use schema::{ColumnDef, Schema};
pub use table::{KeySelection, Table};
pub use value::{DataType, Value};
pub use wal::{apply_wal_record, Wal, WalOp, WalRecord};

use std::borrow::Cow;

/// Convenience result alias used throughout the storage engine.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Canonical form of an identifier (table or database name) for catalog
/// lookups: SQL identifiers are case-insensitive, so every layer — storage
/// catalog, data dictionary, query decomposer — keys on this one form
/// instead of rolling its own lowercasing.
pub fn normalize_ident(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// [`normalize_ident`], borrowing a name that is already in that form: the
/// lookup key of a name the caller does not keep.
pub fn normalized(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(normalize_ident(name))
    } else {
        Cow::Borrowed(name)
    }
}
