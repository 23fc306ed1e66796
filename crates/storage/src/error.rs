//! Typed errors for the storage engine.

use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table with this name already exists in the database.
    TableExists(String),
    /// No table with this name exists in the database.
    NoSuchTable(String),
    /// No column with this name exists in the schema.
    NoSuchColumn(String),
    /// A row's arity does not match the table schema.
    ArityMismatch {
        /// What was expected.
        expected: usize,
        /// What was found instead.
        got: usize,
    },
    /// A value's type does not match the column's declared type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// What was expected.
        expected: String,
        /// What was found instead.
        got: String,
    },
    /// A NOT NULL column received a NULL value.
    NullViolation(String),
    /// A duplicate value was inserted into a UNIQUE / PRIMARY KEY column.
    UniqueViolation {
        /// Constrained column.
        column: String,
        /// The duplicated value (rendered).
        value: String,
    },
    /// An index was requested on a column that has none.
    NoIndex(String),
    /// A value could not be coerced to the requested type.
    Coercion {
        /// Source type name.
        from: String,
        /// Target type name.
        to: String,
    },
    /// A WAL pull asked for records below the retained prefix: a
    /// checkpoint already truncated them, so the subscriber cannot catch
    /// up from the log and must rebuild from the live state.
    WalTruncated {
        /// The LSN the subscriber asked to resume after.
        since: u64,
        /// Records at or below this LSN are gone.
        truncated_upto: u64,
    },
    /// Catch-all for invalid operations.
    Invalid(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableExists(t) => write!(f, "table `{t}` already exists"),
            StorageError::NoSuchTable(t) => write!(f, "no such table `{t}`"),
            StorageError::NoSuchColumn(c) => write!(f, "no such column `{c}`"),
            StorageError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: expected {expected} values, got {got}"
                )
            }
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch for column `{column}`: expected {expected}, got {got}"
            ),
            StorageError::NullViolation(c) => {
                write!(f, "NULL value in NOT NULL column `{c}`")
            }
            StorageError::UniqueViolation { column, value } => {
                write!(f, "duplicate value {value} in unique column `{column}`")
            }
            StorageError::NoIndex(c) => write!(f, "no index on column `{c}`"),
            StorageError::Coercion { from, to } => {
                write!(f, "cannot coerce {from} to {to}")
            }
            StorageError::WalTruncated {
                since,
                truncated_upto,
            } => write!(
                f,
                "WAL records after lsn {since} requested, but the log is truncated up to lsn {truncated_upto}"
            ),
            StorageError::Invalid(msg) => write!(f, "invalid operation: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        let e = StorageError::NoSuchTable("events".into());
        assert_eq!(e.to_string(), "no such table `events`");
        let e = StorageError::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        let e = StorageError::TypeMismatch {
            column: "e_id".into(),
            expected: "INT".into(),
            got: "TEXT".into(),
        };
        assert!(e.to_string().contains("e_id"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            StorageError::NoIndex("x".into()),
            StorageError::NoIndex("x".into())
        );
        assert_ne!(
            StorageError::NoIndex("x".into()),
            StorageError::NoIndex("y".into())
        );
    }
}
