//! SQL-layer errors.

use gridfed_storage::StorageError;
use std::fmt;

/// Errors raised while lexing, parsing, planning, or executing SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Lexical error at a byte offset.
    Lex {
        /// Position of the offending input.
        pos: usize,
        /// Error description.
        message: String,
    },
    /// Parse error with the offending token description.
    Parse {
        /// Position of the offending input.
        pos: usize,
        /// Error description.
        message: String,
    },
    /// The statement nests deeper than the parser admits
    /// ([`crate::parser::MAX_DEPTH`]).
    TooDeep {
        /// Token position where the limit was crossed.
        pos: usize,
        /// The depth limit.
        limit: usize,
    },
    /// A referenced table is unknown to the executor/provider.
    UnknownTable(String),
    /// A referenced column cannot be resolved.
    UnknownColumn(String),
    /// A column reference is ambiguous between FROM items.
    AmbiguousColumn(String),
    /// Unsupported SQL feature for this execution context.
    Unsupported(String),
    /// Type error during expression evaluation.
    Eval(String),
    /// Underlying storage error.
    Storage(StorageError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex { pos, message } => write!(f, "lex error at byte {pos}: {message}"),
            SqlError::Parse { pos, message } => {
                write!(f, "parse error near token {pos}: {message}")
            }
            SqlError::TooDeep { pos, limit } => {
                write!(
                    f,
                    "parse error near token {pos}: nested deeper than {limit} levels"
                )
            }
            SqlError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            SqlError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            SqlError::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            SqlError::Unsupported(s) => write!(f, "unsupported SQL feature: {s}"),
            SqlError::Eval(s) => write!(f, "evaluation error: {s}"),
            SqlError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<StorageError> for SqlError {
    fn from(e: StorageError) -> Self {
        SqlError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_errors_convert() {
        let e: SqlError = StorageError::NoSuchTable("t".into()).into();
        assert!(matches!(e, SqlError::Storage(_)));
        assert!(e.to_string().contains("no such table"));
    }
}
