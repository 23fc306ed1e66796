//! Per-vendor SQL dialects.
//!
//! Each dialect provides (a) a [`SqlStyle`] for rendering sub-queries in
//! the vendor's syntax, (b) type-name mapping in both directions, and
//! (c) a *dialect check* that rejects SQL text written in a different
//! vendor's quoting style — the friction that makes the federation problem
//! real. (`N` technologies × `S` schemas ⇒ `N×S` implementations, as the
//! paper puts it.)

use crate::error::VendorError;
use crate::kind::VendorKind;
use crate::Result;
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::lexer::{scan, Lexeme};
use gridfed_sqlkit::render::{render_select, SqlStyle};
use gridfed_sqlkit::NeutralStyle;
use gridfed_storage::DataType;
use std::borrow::Cow;
use std::sync::Arc;

/// A vendor dialect: rendering style + type mapping + syntax checking.
#[derive(Debug, Clone, Copy)]
pub struct Dialect {
    /// Vendor product.
    pub vendor: VendorKind,
}

/// The dialect for a vendor.
pub fn dialect_for(vendor: VendorKind) -> Dialect {
    Dialect { vendor }
}

impl Dialect {
    /// Vendor-specific name of an engine-neutral type — what the vendor's
    /// `CREATE TABLE` and catalog views show.
    pub fn type_name(&self, ty: DataType) -> &'static str {
        match (self.vendor, ty) {
            (VendorKind::Oracle, DataType::Int) => "NUMBER(19)",
            (VendorKind::Oracle, DataType::Float) => "BINARY_DOUBLE",
            (VendorKind::Oracle, DataType::Text) => "VARCHAR2(4000)",
            (VendorKind::Oracle, DataType::Bool) => "NUMBER(1)",
            (VendorKind::Oracle, DataType::Bytes) => "BLOB",
            (VendorKind::MySql, DataType::Int) => "BIGINT",
            (VendorKind::MySql, DataType::Float) => "DOUBLE",
            (VendorKind::MySql, DataType::Text) => "TEXT",
            (VendorKind::MySql, DataType::Bool) => "TINYINT(1)",
            (VendorKind::MySql, DataType::Bytes) => "LONGBLOB",
            (VendorKind::MsSql, DataType::Int) => "BIGINT",
            (VendorKind::MsSql, DataType::Float) => "FLOAT(53)",
            (VendorKind::MsSql, DataType::Text) => "NVARCHAR(MAX)",
            (VendorKind::MsSql, DataType::Bool) => "BIT",
            (VendorKind::MsSql, DataType::Bytes) => "VARBINARY(MAX)",
            (VendorKind::Sqlite, DataType::Int) => "INTEGER",
            (VendorKind::Sqlite, DataType::Float) => "REAL",
            (VendorKind::Sqlite, DataType::Text) => "TEXT",
            (VendorKind::Sqlite, DataType::Bool) => "INTEGER",
            (VendorKind::Sqlite, DataType::Bytes) => "BLOB",
        }
    }

    /// Map a vendor type name back to the engine-neutral type — what the
    /// XSpec generator does when introspecting a backend's catalog.
    pub fn parse_type(&self, name: &str) -> Option<DataType> {
        let upper = name.to_ascii_uppercase();
        let base: &str = upper.split('(').next().unwrap_or("");
        match base.trim() {
            "NUMBER" => {
                // NUMBER(1) is Oracle's boolean idiom; anything else is INT.
                if upper.contains("(1)") {
                    Some(DataType::Bool)
                } else {
                    Some(DataType::Int)
                }
            }
            "BINARY_DOUBLE" | "DOUBLE" | "FLOAT" | "REAL" => Some(DataType::Float),
            "VARCHAR2" | "VARCHAR" | "NVARCHAR" | "TEXT" | "CHAR" | "CLOB" => Some(DataType::Text),
            "BIGINT" | "INT" | "INTEGER" | "SMALLINT" => Some(DataType::Int),
            "TINYINT" | "BIT" | "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "BLOB" | "LONGBLOB" | "VARBINARY" | "RAW" => Some(DataType::Bytes),
            _ => DataType::parse(base),
        }
    }

    /// Check that SQL text conforms to this vendor's lexical rules: a fold
    /// over the [`scan`] of the text, so a quoted identifier is judged by
    /// its opening delimiter and `LIMIT` only as a bare word — never inside
    /// a literal or a name. Violations model a real driver's syntax error,
    /// the first one in the text reported; text that does not lex before
    /// any violation gets the lexer's error, as parsing it would.
    pub fn check_text(&self, sql: &str) -> Result<()> {
        for lexeme in scan(sql) {
            let (kind, span) = lexeme?;
            let detail = match (self.vendor, kind) {
                (VendorKind::Oracle | VendorKind::MsSql, Lexeme::Quoted(b'`')) => {
                    "backtick quoting is MySQL syntax"
                }
                (VendorKind::Oracle | VendorKind::MySql, Lexeme::Quoted(b'[')) => {
                    "bracket quoting is MS-SQL syntax"
                }
                // MS-SQL (2000-era) had no LIMIT clause.
                (VendorKind::MsSql, Lexeme::Word) if sql[span].eq_ignore_ascii_case("LIMIT") => {
                    "LIMIT is not supported; use TOP"
                }
                _ => continue,
            };
            return Err(VendorError::DialectViolation {
                vendor: self.vendor.name().to_string(),
                detail: detail.to_string(),
            });
        }
        Ok(())
    }

    /// The rendering style for this dialect.
    pub fn style(&self) -> VendorStyle {
        VendorStyle {
            vendor: self.vendor,
        }
    }
}

/// A SELECT's text, rendered once when its plan was built and tagged with
/// the vendor whose dialect it is written in — `None` for the neutral text
/// mediators forward to each other. A connection to a server of that
/// vendor sends it as it is; any other renders its own.
#[derive(Debug, Clone, PartialEq)]
pub struct DialectText {
    vendor: Option<VendorKind>,
    text: Arc<str>,
}

impl DialectText {
    /// `stmt` rendered in `vendor`'s dialect, or the neutral one.
    pub fn render(stmt: &SelectStmt, vendor: Option<VendorKind>) -> DialectText {
        let text = render_for(stmt, vendor).into();
        DialectText { vendor, text }
    }

    /// `stmt` in `vendor`'s dialect (`None`: neutral): the `planned` text
    /// when it was written for that vendor — debug builds assert that it
    /// is what rendering gives — and rendered now otherwise.
    pub fn text_for<'a>(
        planned: Option<&'a DialectText>,
        stmt: &SelectStmt,
        vendor: Option<VendorKind>,
    ) -> Cow<'a, str> {
        match planned.filter(|t| t.vendor == vendor) {
            Some(t) => {
                debug_assert_eq!(*t.text, render_for(stmt, vendor), "stale text");
                Cow::Borrowed(&t.text)
            }
            None => Cow::Owned(render_for(stmt, vendor)),
        }
    }
}

fn render_for(stmt: &SelectStmt, vendor: Option<VendorKind>) -> String {
    match vendor {
        Some(v) => render_select(stmt, &dialect_for(v).style()),
        None => render_select(stmt, &NeutralStyle),
    }
}

/// [`SqlStyle`] implementation carrying vendor quirks.
#[derive(Debug, Clone, Copy)]
pub struct VendorStyle {
    vendor: VendorKind,
}

impl SqlStyle for VendorStyle {
    fn quotes(&self, _ident: &str) -> (&'static str, &'static str) {
        match self.vendor {
            VendorKind::Oracle | VendorKind::Sqlite => ("\"", "\""),
            VendorKind::MySql => ("`", "`"),
            VendorKind::MsSql => ("[", "]"),
        }
    }

    fn bool_literal(&self, b: bool) -> String {
        match self.vendor {
            // Oracle and MS-SQL have no boolean literals; use 1/0.
            VendorKind::Oracle | VendorKind::MsSql => if b { "1" } else { "0" }.to_string(),
            _ => if b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }

    fn type_name(&self, ty: DataType) -> String {
        dialect_for(self.vendor).type_name(ty).to_string()
    }

    fn supports_limit(&self) -> bool {
        self.vendor != VendorKind::MsSql
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_sqlkit::parser::parse_select;
    use gridfed_sqlkit::render::render_select;
    use gridfed_sqlkit::SqlError;

    #[test]
    fn type_names_round_trip_through_parse() {
        for vendor in VendorKind::ALL {
            let d = dialect_for(vendor);
            for ty in [
                DataType::Int,
                DataType::Float,
                DataType::Text,
                DataType::Bytes,
            ] {
                let name = d.type_name(ty);
                assert_eq!(
                    d.parse_type(name),
                    Some(ty),
                    "{vendor}: {name} should parse back to {ty}"
                );
            }
        }
    }

    #[test]
    fn oracle_number1_is_boolean() {
        let d = dialect_for(VendorKind::Oracle);
        assert_eq!(d.parse_type("NUMBER(1)"), Some(DataType::Bool));
        assert_eq!(d.parse_type("NUMBER(19)"), Some(DataType::Int));
    }

    #[test]
    fn rendering_uses_vendor_quotes() {
        let stmt = parse_select("SELECT a FROM t WHERE a > 1 LIMIT 3").unwrap();
        let oracle = render_select(&stmt, &dialect_for(VendorKind::Oracle).style());
        assert!(oracle.contains("\"a\""));
        assert!(oracle.contains("LIMIT 3"));
        let mysql = render_select(&stmt, &dialect_for(VendorKind::MySql).style());
        assert!(mysql.contains("`a`"));
        let mssql = render_select(&stmt, &dialect_for(VendorKind::MsSql).style());
        assert!(mssql.contains("[a]"));
        assert!(!mssql.contains("LIMIT"), "MS-SQL must not emit LIMIT");
    }

    #[test]
    fn dialect_checks_reject_foreign_quoting() {
        let d = dialect_for(VendorKind::Oracle);
        assert!(d.check_text("SELECT `a` FROM t").is_err());
        assert!(d.check_text("SELECT [a] FROM t").is_err());
        assert!(d.check_text("SELECT \"a\" FROM t").is_ok());
        // quoting chars inside string literals are fine
        assert!(d.check_text("SELECT 'a `quoted` [thing]' FROM t").is_ok());
        // …and a quote inside a quoted name does not hide what follows it.
        assert!(d
            .check_text("SELECT \"it's\" FROM t WHERE [x] = 1")
            .is_err());

        let m = dialect_for(VendorKind::MySql);
        assert!(m.check_text("SELECT `a` FROM t").is_ok());
        assert!(m.check_text("SELECT [a] FROM t").is_err());

        let s = dialect_for(VendorKind::MsSql);
        assert!(s.check_text("SELECT [a] FROM t").is_ok());
        assert!(s.check_text("SELECT `a` FROM t").is_err());
        assert!(s.check_text("SELECT a FROM t LIMIT 5").is_err());
        // LIMIT is a keyword only as a bare word: not in a literal, not as
        // a quoted name.
        assert!(s
            .check_text("SELECT a FROM t WHERE s = 'speed limit exceeded'")
            .is_ok());
        assert!(s.check_text("SELECT [limit] FROM t").is_ok());
        // Text that does not lex gets the lexer's error, not a verdict.
        assert!(matches!(
            s.check_text("SELECT 'open"),
            Err(VendorError::Sql(SqlError::Lex { pos: 7, .. }))
        ));

        // SQLite accepts everything.
        let l = dialect_for(VendorKind::Sqlite);
        assert!(l
            .check_text("SELECT `a`, [b], \"c\" FROM t LIMIT 1")
            .is_ok());
    }

    #[test]
    fn cross_vendor_render_then_check() {
        // A sub-query rendered for vendor X must pass X's check and fail
        // (at least one) other vendor's check — the mediator's re-rendering
        // is therefore necessary, not cosmetic.
        let stmt = parse_select("SELECT a, b FROM t WHERE a = 'x'").unwrap();
        for vendor in VendorKind::ALL {
            let text = render_select(&stmt, &dialect_for(vendor).style());
            assert!(
                dialect_for(vendor).check_text(&text).is_ok(),
                "{vendor} rejects its own rendering: {text}"
            );
        }
        let mysql_text = render_select(&stmt, &dialect_for(VendorKind::MySql).style());
        assert!(dialect_for(VendorKind::Oracle)
            .check_text(&mysql_text)
            .is_err());
    }

    #[test]
    fn bool_literals_per_vendor() {
        assert_eq!(
            dialect_for(VendorKind::Oracle).style().bool_literal(true),
            "1"
        );
        assert_eq!(
            dialect_for(VendorKind::MySql).style().bool_literal(false),
            "FALSE"
        );
    }
}
