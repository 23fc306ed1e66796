//! AST → SQL text rendering, parameterized by vendor style.
//!
//! The mediator partitions a client query and must re-render each sub-query
//! in the dialect of its target database, exactly as the paper's enhanced
//! Unity driver does with its XSpec-driven name mapping. The [`SqlStyle`]
//! trait carries the dialect-specific choices; `gridfed-vendors` provides an
//! implementation per vendor.

use crate::ast::*;
use gridfed_storage::{DataType, Value};

/// Dialect hooks for SQL rendering.
pub trait SqlStyle {
    /// Quote an identifier.
    fn quote_ident(&self, ident: &str) -> String {
        format!("\"{ident}\"")
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
    fn quote_ident(&self, ident: &str) -> String {
        match ['"', '`', ']'].into_iter().find(|c| !ident.contains(*c)) {
            Some('`') => format!("`{ident}`"),
            Some(']') => format!("[{ident}]"),
            _ => format!("\"{ident}\""),
        }
    }
}

/// Render any statement in the given style.
pub fn render_statement(stmt: &Statement, style: &dyn SqlStyle) -> String {
    match stmt {
        Statement::Select(s) => render_select(s, style),
        Statement::Explain { analyze, stmt } => format!(
            "EXPLAIN {}{}",
            if *analyze { "ANALYZE " } else { "" },
            render_select(stmt, style)
        ),
        Statement::CreateTable(ct) => render_create_table(ct, style),
        Statement::Insert(ins) => render_insert(ins, style),
        Statement::CreateView(v) => format!(
            "CREATE VIEW {} AS {}",
            style.quote_ident(&v.name),
            render_select(&v.query, style)
        ),
        Statement::Update(u) => {
            let sets: Vec<String> = u
                .assignments
                .iter()
                .map(|(c, e)| format!("{} = {}", style.quote_ident(c), render_expr(e, style)))
                .collect();
            let mut sql = format!(
                "UPDATE {} SET {}",
                style.quote_ident(&u.table),
                sets.join(", ")
            );
            if let Some(w) = &u.where_clause {
                sql.push_str(" WHERE ");
                sql.push_str(&render_expr(w, style));
            }
            sql
        }
        Statement::Delete(d) => {
            let mut sql = format!("DELETE FROM {}", style.quote_ident(&d.table));
            if let Some(w) = &d.where_clause {
                sql.push_str(" WHERE ");
                sql.push_str(&render_expr(w, style));
            }
            sql
        }
    }
}

/// Render a SELECT in the given style.
pub fn render_select(stmt: &SelectStmt, style: &dyn SqlStyle) -> String {
    let mut sql = String::from(if stmt.distinct {
        "SELECT DISTINCT "
    } else {
        "SELECT "
    });
    let items: Vec<String> = stmt.items.iter().map(|it| render_item(it, style)).collect();
    sql.push_str(&items.join(", "));
    sql.push_str(" FROM ");
    sql.push_str(&render_table_ref(&stmt.from, style));
    for join in &stmt.joins {
        match join.kind {
            JoinKind::Cross if join.on.is_none() => {
                sql.push_str(", ");
                sql.push_str(&render_table_ref(&join.table, style));
            }
            _ => {
                let kw = match join.kind {
                    JoinKind::Inner => " JOIN ",
                    JoinKind::LeftOuter => " LEFT JOIN ",
                    JoinKind::Cross => " CROSS JOIN ",
                };
                sql.push_str(kw);
                sql.push_str(&render_table_ref(&join.table, style));
                if let Some(on) = &join.on {
                    sql.push_str(" ON ");
                    sql.push_str(&render_expr(on, style));
                }
            }
        }
    }
    if let Some(w) = &stmt.where_clause {
        sql.push_str(" WHERE ");
        sql.push_str(&render_expr(w, style));
    }
    if !stmt.group_by.is_empty() {
        sql.push_str(" GROUP BY ");
        let gs: Vec<String> = stmt
            .group_by
            .iter()
            .map(|g| render_expr(g, style))
            .collect();
        sql.push_str(&gs.join(", "));
    }
    if let Some(h) = &stmt.having {
        sql.push_str(" HAVING ");
        sql.push_str(&render_expr(h, style));
    }
    if !stmt.order_by.is_empty() {
        sql.push_str(" ORDER BY ");
        let os: Vec<String> = stmt
            .order_by
            .iter()
            .map(|o| {
                format!(
                    "{}{}",
                    render_expr(&o.expr, style),
                    if o.ascending { "" } else { " DESC" }
                )
            })
            .collect();
        sql.push_str(&os.join(", "));
    }
    if let Some(limit) = stmt.limit {
        if style.supports_limit() {
            sql.push_str(&format!(" LIMIT {limit}"));
        }
    }
    sql
}

fn render_item(item: &SelectItem, style: &dyn SqlStyle) -> String {
    match item {
        SelectItem::Wildcard => "*".into(),
        SelectItem::QualifiedWildcard(q) => format!("{}.*", style.quote_ident(q)),
        SelectItem::Expr { expr, alias } => {
            let mut s = render_expr(expr, style);
            if let Some(a) = alias {
                s.push_str(" AS ");
                s.push_str(&style.quote_ident(a));
            }
            s
        }
    }
}

fn render_table_ref(t: &TableRef, style: &dyn SqlStyle) -> String {
    match &t.alias {
        Some(a) => format!("{} {}", style.quote_ident(&t.name), style.quote_ident(a)),
        None => style.quote_ident(&t.name),
    }
}

/// Render an expression in the given style. Parentheses are emitted around
/// every binary operation, which keeps precedence trivially correct across
/// dialects at the cost of some noise.
pub fn render_expr(expr: &Expr, style: &dyn SqlStyle) -> String {
    match expr {
        Expr::Literal(v) => render_literal(v, style),
        Expr::Column(c) => match &c.qualifier {
            Some(q) => format!("{}.{}", style.quote_ident(q), style.quote_ident(&c.column)),
            None => style.quote_ident(&c.column),
        },
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => format!("NOT ({})", render_expr(expr, style)),
            UnaryOp::Neg => format!("-({})", render_expr(expr, style)),
        },
        Expr::Binary { left, op, right } => format!(
            "({} {} {})",
            render_expr(left, style),
            op.sql(),
            render_expr(right, style)
        ),
        Expr::IsNull { expr, negated } => format!(
            "({} IS{} NULL)",
            render_expr(expr, style),
            if *negated { " NOT" } else { "" }
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let items: Vec<String> = list.iter().map(|e| render_expr(e, style)).collect();
            format!(
                "({}{} IN ({}))",
                render_expr(expr, style),
                if *negated { " NOT" } else { "" },
                items.join(", ")
            )
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => format!(
            "({}{} BETWEEN {} AND {})",
            render_expr(expr, style),
            if *negated { " NOT" } else { "" },
            render_expr(lo, style),
            render_expr(hi, style)
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "({}{} LIKE {})",
            render_expr(expr, style),
            if *negated { " NOT" } else { "" },
            style.text_literal(pattern)
        ),
        Expr::Func { func, args } => {
            let rendered: Vec<String> = args.iter().map(|a| render_expr(a, style)).collect();
            format!("{}({})", func.sql(), rendered.join(", "))
        }
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let inner = match arg {
                None => "*".to_string(),
                Some(a) => format!(
                    "{}{}",
                    if *distinct { "DISTINCT " } else { "" },
                    render_expr(a, style)
                ),
            };
            format!("{}({inner})", func.sql())
        }
    }
}

fn render_literal(v: &Value, style: &dyn SqlStyle) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{x:.1}")
            } else {
                format!("{x}")
            }
        }
        Value::Text(s) => style.text_literal(s),
        Value::Bool(b) => style.bool_literal(*b),
        Value::Bytes(b) => {
            let mut s = String::from("0x");
            for byte in b {
                s.push_str(&format!("{byte:02x}"));
            }
            s
        }
    }
}

fn render_create_table(ct: &CreateTableStmt, style: &dyn SqlStyle) -> String {
    let cols: Vec<String> = ct
        .columns
        .iter()
        .map(|c| {
            let mut s = format!(
                "{} {}",
                style.quote_ident(&c.name),
                style.type_name(c.data_type)
            );
            if c.not_null && c.unique {
                s.push_str(" PRIMARY KEY");
            } else {
                if c.not_null {
                    s.push_str(" NOT NULL");
                }
                if c.unique {
                    s.push_str(" UNIQUE");
                }
            }
            s
        })
        .collect();
    format!(
        "CREATE TABLE {} ({})",
        style.quote_ident(&ct.name),
        cols.join(", ")
    )
}

fn render_insert(ins: &InsertStmt, style: &dyn SqlStyle) -> String {
    let mut sql = format!("INSERT INTO {}", style.quote_ident(&ins.table));
    if !ins.columns.is_empty() {
        let cols: Vec<String> = ins.columns.iter().map(|c| style.quote_ident(c)).collect();
        sql.push_str(&format!(" ({})", cols.join(", ")));
    }
    sql.push_str(" VALUES ");
    let rows: Vec<String> = ins
        .rows
        .iter()
        .map(|row| {
            let vals: Vec<String> = row.iter().map(|e| render_expr(e, style)).collect();
            format!("({})", vals.join(", "))
        })
        .collect();
    sql.push_str(&rows.join(", "));
    sql
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
        assert_eq!(render_literal(&Value::Text("it's".into()), &s), "'it''s'");
        assert_eq!(render_literal(&Value::Float(2.0), &s), "2.0");
        assert_eq!(render_literal(&Value::Null, &s), "NULL");
        assert_eq!(render_literal(&Value::Bytes(vec![1, 255]), &s), "0x01ff");
    }

    #[test]
    fn custom_style_hooks_apply() {
        struct Backticks;
        impl SqlStyle for Backticks {
            fn quote_ident(&self, ident: &str) -> String {
                format!("`{ident}`")
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
