//! AST → SQL text rendering, parameterized by vendor style.
//!
//! The mediator partitions a client query and must re-render each sub-query
//! in the dialect of its target database, exactly as the paper's enhanced
//! Unity driver does with its XSpec-driven name mapping. The [`SqlStyle`]
//! trait carries the dialect-specific choices; `gridfed-vendors` provides an
//! implementation per vendor.

use crate::ast::*;
use gridfed_storage::{DataType, Value};
use std::fmt::Write;

/// Dialect hooks for SQL rendering.
pub trait SqlStyle {
    /// The delimiters that quote an identifier.
    fn quotes(&self, _ident: &str) -> (&'static str, &'static str) {
        ("\"", "\"")
    }

    /// Render a text literal (escaping embedded quotes).
    fn text_literal(&self, s: &str) -> String {
        format!("'{}'", s.replace('\'', "''"))
    }

    /// Render a boolean literal.
    fn bool_literal(&self, b: bool) -> String {
        if b { "TRUE" } else { "FALSE" }.to_string()
    }

    /// Vendor type name for an engine-neutral type.
    fn type_name(&self, ty: DataType) -> String {
        ty.name().to_string()
    }

    /// Whether the dialect supports `LIMIT n` (MS-SQL historically used TOP).
    fn supports_limit(&self) -> bool {
        true
    }
}

/// Neutral, vendor-independent style (ANSI-ish). Also used for round-trip
/// property tests: neutral-rendered SQL must re-parse to the same AST.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeutralStyle;

impl SqlStyle for NeutralStyle {
    /// `"…"`, or — for a name holding a `"`, which a `"…"` identifier
    /// cannot — the first of `` `…` `` and `[…]` that can hold it. Every
    /// name the lexer accepts lacks one of the three closers.
    fn quotes(&self, ident: &str) -> (&'static str, &'static str) {
        match ['"', '`', ']'].into_iter().find(|c| !ident.contains(*c)) {
            Some('`') => ("`", "`"),
            Some(']') => ("[", "]"),
            _ => ("\"", "\""),
        }
    }
}

/// Write `ident` quoted in `style`.
fn write_ident(out: &mut String, ident: &str, style: &dyn SqlStyle) {
    let (open, close) = style.quotes(ident);
    out.push_str(open);
    out.push_str(ident);
    out.push_str(close);
}

/// Render any statement in the given style.
pub fn render_statement(stmt: &Statement, style: &dyn SqlStyle) -> String {
    let mut sql = String::new();
    let out = &mut sql;
    let ident = |out: &mut String, name: &str| write_ident(out, name, style);
    let where_clause = |out: &mut String, w: &Option<Expr>| {
        if let Some(w) = w {
            out.push_str(" WHERE ");
            write_expr(out, w, style);
        }
    };
    match stmt {
        Statement::Select(s) => write_select(out, s, style),
        Statement::Explain { analyze, stmt } => {
            out.push_str(if *analyze {
                "EXPLAIN ANALYZE "
            } else {
                "EXPLAIN "
            });
            write_select(out, stmt, style);
        }
        Statement::CreateTable(ct) => {
            out.push_str("CREATE TABLE ");
            ident(out, &ct.name);
            out.push_str(" (");
            write_list(out, &ct.columns, |out, c| {
                ident(out, &c.name);
                let _ = write!(out, " {}", style.type_name(c.data_type));
                out.push_str(match (c.not_null, c.unique) {
                    (true, true) => " PRIMARY KEY",
                    (true, false) => " NOT NULL",
                    (false, true) => " UNIQUE",
                    (false, false) => "",
                });
            });
            out.push(')');
        }
        Statement::Insert(ins) => {
            out.push_str("INSERT INTO ");
            ident(out, &ins.table);
            if !ins.columns.is_empty() {
                out.push_str(" (");
                write_list(out, &ins.columns, |out, c| ident(out, c));
                out.push(')');
            }
            out.push_str(" VALUES ");
            write_list(out, &ins.rows, |out, row| {
                out.push('(');
                write_list(out, row, |out, e| write_expr(out, e, style));
                out.push(')');
            });
        }
        Statement::CreateView(v) => {
            out.push_str("CREATE VIEW ");
            ident(out, &v.name);
            out.push_str(" AS ");
            write_select(out, &v.query, style);
        }
        Statement::Update(u) => {
            out.push_str("UPDATE ");
            ident(out, &u.table);
            out.push_str(" SET ");
            write_list(out, &u.assignments, |out, (c, e)| {
                ident(out, c);
                out.push_str(" = ");
                write_expr(out, e, style);
            });
            where_clause(out, &u.where_clause);
        }
        Statement::Delete(d) => {
            out.push_str("DELETE FROM ");
            ident(out, &d.table);
            where_clause(out, &d.where_clause);
        }
    }
    sql
}

/// Render a SELECT in the given style.
pub fn render_select(stmt: &SelectStmt, style: &dyn SqlStyle) -> String {
    let mut sql = String::with_capacity(128);
    write_select(&mut sql, stmt, style);
    sql
}

/// Write `items` to `out`, each by `write`, separated by `", "`.
fn write_list<T>(out: &mut String, items: &[T], mut write: impl FnMut(&mut String, &T)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write(out, item);
    }
}

fn write_select(sql: &mut String, stmt: &SelectStmt, style: &dyn SqlStyle) {
    sql.push_str(if stmt.distinct {
        "SELECT DISTINCT "
    } else {
        "SELECT "
    });
    write_list(sql, &stmt.items, |out, it| write_item(out, it, style));
    sql.push_str(" FROM ");
    write_table_ref(sql, &stmt.from, style);
    for join in &stmt.joins {
        sql.push_str(match join.kind {
            JoinKind::Cross if join.on.is_none() => ", ",
            JoinKind::Inner => " JOIN ",
            JoinKind::LeftOuter => " LEFT JOIN ",
            JoinKind::Cross => " CROSS JOIN ",
        });
        write_table_ref(sql, &join.table, style);
        if let Some(on) = &join.on {
            sql.push_str(" ON ");
            write_expr(sql, on, style);
        }
    }
    if let Some(w) = &stmt.where_clause {
        sql.push_str(" WHERE ");
        write_expr(sql, w, style);
    }
    if !stmt.group_by.is_empty() {
        sql.push_str(" GROUP BY ");
        write_list(sql, &stmt.group_by, |out, g| write_expr(out, g, style));
    }
    if let Some(h) = &stmt.having {
        sql.push_str(" HAVING ");
        write_expr(sql, h, style);
    }
    if !stmt.order_by.is_empty() {
        sql.push_str(" ORDER BY ");
        write_list(sql, &stmt.order_by, |out, o| {
            write_expr(out, &o.expr, style);
            out.push_str(if o.ascending { "" } else { " DESC" });
        });
    }
    if let Some(limit) = stmt.limit {
        if style.supports_limit() {
            let _ = write!(sql, " LIMIT {limit}");
        }
    }
}

fn write_item(out: &mut String, item: &SelectItem, style: &dyn SqlStyle) {
    match item {
        SelectItem::Wildcard => out.push('*'),
        SelectItem::QualifiedWildcard(q) => {
            write_ident(out, q, style);
            out.push_str(".*");
        }
        SelectItem::Expr { expr, alias } => {
            write_expr(out, expr, style);
            if let Some(a) = alias {
                out.push_str(" AS ");
                write_ident(out, a, style);
            }
        }
    }
}

fn write_table_ref(out: &mut String, t: &TableRef, style: &dyn SqlStyle) {
    write_ident(out, &t.name, style);
    if let Some(a) = &t.alias {
        out.push(' ');
        write_ident(out, a, style);
    }
}

/// Render an expression in the given style. Parentheses are emitted around
/// every binary operation, which keeps precedence trivially correct across
/// dialects at the cost of some noise.
pub fn render_expr(expr: &Expr, style: &dyn SqlStyle) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, style);
    out
}

fn write_expr(out: &mut String, expr: &Expr, style: &dyn SqlStyle) {
    let not = |negated: bool| if negated { " NOT" } else { "" };
    match expr {
        Expr::Literal(v) => write_literal(out, v, style),
        Expr::Column(c) => {
            if let Some(q) = &c.qualifier {
                write_ident(out, q, style);
                out.push('.');
            }
            write_ident(out, &c.column, style);
        }
        Expr::Unary { op, expr } => {
            out.push_str(match op {
                UnaryOp::Not => "NOT (",
                UnaryOp::Neg => "-(",
            });
            write_expr(out, expr, style);
            out.push(')');
        }
        Expr::Binary { left, op, right } => {
            out.push('(');
            write_expr(out, left, style);
            let _ = write!(out, " {} ", op.sql());
            write_expr(out, right, style);
            out.push(')');
        }
        Expr::IsNull { expr, negated } => {
            out.push('(');
            write_expr(out, expr, style);
            let _ = write!(out, " IS{} NULL)", not(*negated));
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr, style);
            let _ = write!(out, "{} IN (", not(*negated));
            write_list(out, list, |out, e| write_expr(out, e, style));
            out.push_str("))");
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr, style);
            let _ = write!(out, "{} BETWEEN ", not(*negated));
            write_expr(out, lo, style);
            out.push_str(" AND ");
            write_expr(out, hi, style);
            out.push(')');
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            out.push('(');
            write_expr(out, expr, style);
            let _ = write!(
                out,
                "{} LIKE {})",
                not(*negated),
                style.text_literal(pattern)
            );
        }
        Expr::Func { func, args } => {
            let _ = write!(out, "{}(", func.sql());
            write_list(out, args, |out, a| write_expr(out, a, style));
            out.push(')');
        }
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let _ = write!(out, "{}(", func.sql());
            match arg {
                None => out.push('*'),
                Some(a) => {
                    out.push_str(if *distinct { "DISTINCT " } else { "" });
                    write_expr(out, a, style);
                }
            }
            out.push(')');
        }
    }
}

fn write_literal(out: &mut String, v: &Value, style: &dyn SqlStyle) {
    let _ = match v {
        Value::Null => write!(out, "NULL"),
        Value::Int(i) => write!(out, "{i}"),
        Value::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(out, "{x:.1}"),
        Value::Float(x) => write!(out, "{x}"),
        Value::Text(s) => write!(out, "{}", style.text_literal(s)),
        Value::Bool(b) => write!(out, "{}", style.bool_literal(*b)),
        Value::Bytes(b) => {
            out.push_str("0x");
            b.iter().try_for_each(|byte| write!(out, "{byte:02x}"))
        }
    };
}

/// Render an expression in the neutral style (used for derived column names).
pub fn render_expr_neutral(expr: &Expr) -> String {
    render_expr(expr, &NeutralStyle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(sql: &str) {
        let stmt = parse(sql).unwrap();
        let rendered = render_statement(&stmt, &NeutralStyle);
        let reparsed =
            parse(&rendered).unwrap_or_else(|e| panic!("re-parse of `{rendered}` failed: {e}"));
        assert_eq!(stmt, reparsed, "round trip changed AST for `{rendered}`");
    }

    #[test]
    fn select_round_trips() {
        round_trip(
            "SELECT a, b AS bee, t.c FROM t WHERE a > 1 AND b = 'x' ORDER BY a DESC LIMIT 5",
        );
        round_trip("SELECT * FROM t");
        round_trip("SELECT t.* FROM t");
        round_trip(
            "SELECT e.e_id FROM events e JOIN det d ON e.det_id = d.det_id LEFT JOIN x ON x.k = d.k",
        );
        round_trip("SELECT a FROM t, u WHERE t.k = u.k");
        round_trip("SELECT det, COUNT(*) FROM ev GROUP BY det");
        round_trip("SELECT det, COUNT(*) FROM ev GROUP BY det HAVING COUNT(*) > 2");
        round_trip("SELECT COUNT(DISTINCT a), SUM(b), MIN(c) FROM t");
        round_trip("SELECT ABS(a), ROUND(b, 2), COALESCE(c, d, 0), UPPER(e) FROM t");
        round_trip(
            "SELECT a FROM t WHERE x IN (1, 2) AND y NOT BETWEEN 1 AND 2 AND z LIKE 'p%' AND w IS NOT NULL",
        );
        round_trip("SELECT a FROM t WHERE NOT (a = 1 OR b = 2)");
    }

    #[test]
    fn ddl_and_insert_round_trip() {
        round_trip("CREATE TABLE t (a INT PRIMARY KEY, b FLOAT NOT NULL, c TEXT UNIQUE)");
        round_trip("INSERT INTO t (a, b) VALUES (1, 2.5), (3, NULL)");
        round_trip("UPDATE t SET a = 1, b = b + 1 WHERE c = 'x'");
        round_trip("UPDATE t SET a = NULL");
        round_trip("DELETE FROM t WHERE a IN (1, 2)");
        round_trip("DELETE FROM t");
        round_trip("CREATE VIEW v AS SELECT a FROM t WHERE a > 0");
    }

    #[test]
    fn a_name_keeps_its_quotes_out_of_the_way() {
        round_trip(r#"SELECT [a"b] FROM `t"u` WHERE [x"`y] = 1"#);
        let stmt = parse("SELECT `a\"]` FROM t").unwrap();
        assert_eq!(
            render_statement(&stmt, &NeutralStyle),
            "SELECT `a\"]` FROM \"t\""
        );
    }

    #[test]
    fn literals_render_correctly() {
        let s = NeutralStyle;
        let render_literal = |v, s| render_expr(&Expr::Literal(v), s);
        assert_eq!(render_literal(Value::Text("it's".into()), &s), "'it''s'");
        assert_eq!(render_literal(Value::Float(2.0), &s), "2.0");
        assert_eq!(render_literal(Value::Null, &s), "NULL");
        assert_eq!(render_literal(Value::Bytes(vec![1, 255]), &s), "0x01ff");
    }

    #[test]
    fn custom_style_hooks_apply() {
        struct Backticks;
        impl SqlStyle for Backticks {
            fn quotes(&self, _ident: &str) -> (&'static str, &'static str) {
                ("`", "`")
            }
            fn supports_limit(&self) -> bool {
                false
            }
        }
        let stmt = parse("SELECT a FROM t LIMIT 5").unwrap();
        let sql = render_statement(&stmt, &Backticks);
        assert!(sql.contains("`a`"));
        assert!(!sql.contains("LIMIT"));
    }
}
