//! SQL abstract syntax tree.
//!
//! The AST is the lingua franca of the middleware: the Clarens service
//! parses client SQL into it, the mediator rewrites and partitions it, and
//! the vendor dialects render fragments of it back to SQL text.

use gridfed_storage::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A SELECT query.
    Select(SelectStmt),
    /// A CREATE TABLE statement.
    CreateTable(CreateTableStmt),
    /// An INSERT statement.
    Insert(InsertStmt),
    /// A CREATE VIEW statement.
    CreateView(CreateViewStmt),
    /// An UPDATE statement.
    Update(UpdateStmt),
    /// A DELETE statement.
    Delete(DeleteStmt),
    /// An `EXPLAIN [ANALYZE]` wrapper around a SELECT: render the plan,
    /// and with ANALYZE also execute it and annotate actual rows/time.
    Explain {
        /// `EXPLAIN ANALYZE` — execute and annotate with actuals.
        analyze: bool,
        /// The wrapped SELECT.
        stmt: SelectStmt,
    },
}

/// `SELECT ... FROM ... [JOIN ...] [WHERE] [GROUP BY] [ORDER BY] [LIMIT]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Whether `SELECT DISTINCT` was requested: duplicate output rows are
    /// removed after projection.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// First FROM table.
    pub from: TableRef,
    /// Additional FROM items: comma-joins and explicit `JOIN .. ON ..`.
    pub joins: Vec<Join>,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate over the groups (may contain aggregates).
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// Optional LIMIT.
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// A minimal `SELECT * FROM table`.
    pub fn star_from(table: impl Into<String>) -> Self {
        SelectStmt {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from: TableRef::new(table),
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// All table references (FROM plus every join), in syntactic order.
    pub fn table_refs(&self) -> Vec<&TableRef> {
        let mut refs = vec![&self.from];
        refs.extend(self.joins.iter().map(|j| &j.table));
        refs
    }

    /// True if any select item is an aggregate call, or GROUP BY is present.
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self.items.iter().any(|it| match it {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => false,
            })
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// Expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Output column alias, when given.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// Column expression shorthand.
    pub fn col(name: &str) -> Self {
        SelectItem::Expr {
            expr: Expr::column(None, name),
            alias: None,
        }
    }
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// Create a plain (unaliased) table reference.
    pub fn new(name: impl Into<String>) -> Self {
        TableRef {
            name: name.into(),
            alias: None,
        }
    }

    /// Create an aliased table reference.
    pub fn aliased(name: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef {
            name: name.into(),
            alias: Some(alias.into()),
        }
    }

    /// The name the query binds this table to: the alias if present,
    /// the table name otherwise.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// Join flavours the prototype supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `INNER JOIN .. ON ..` (also comma-join with WHERE equality).
    Inner,
    /// `LEFT OUTER JOIN .. ON ..`.
    LeftOuter,
    /// Comma-separated FROM item (cartesian; constrained by WHERE).
    Cross,
}

/// One join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Kind.
    pub kind: JoinKind,
    /// Target table.
    pub table: TableRef,
    /// `ON` condition; `None` for comma/cross joins.
    pub on: Option<Expr>,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// The operand expression.
    pub expr: Expr,
    /// Sort direction (`true` = ascending).
    pub ascending: bool,
}

/// `CREATE TABLE name (col type [NOT NULL] [UNIQUE|PRIMARY KEY], ...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStmt {
    /// Name.
    pub name: String,
    /// Column definitions, in order.
    pub columns: Vec<ColumnSpec>,
}

/// One column in a CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// Whether NULL is rejected.
    pub not_null: bool,
    /// Whether duplicate values are rejected.
    pub unique: bool,
}

/// `INSERT INTO name [(cols)] VALUES (..), (..)`.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Explicit column list; empty means schema order.
    pub columns: Vec<String>,
    /// Row expressions.
    pub rows: Vec<Vec<Expr>>,
}

/// `CREATE VIEW name AS SELECT ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateViewStmt {
    /// Name.
    pub name: String,
    /// The defining SELECT.
    pub query: SelectStmt,
}

/// `UPDATE name SET col = expr, ... [WHERE ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `(column, value expression)` assignments, in order.
    pub assignments: Vec<(String, Expr)>,
    /// Optional row filter; absent means every row.
    pub where_clause: Option<Expr>,
}

/// `DELETE FROM name [WHERE ...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// Optional row filter; absent means every row.
    pub where_clause: Option<Expr>,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias qualifier.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Dotted display form.
    pub fn display(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.column),
            None => self.column.clone(),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// `=`.
    Eq,
    /// `<>` / `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// Addition (also text concatenation).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always float).
    Div,
    /// Modulo.
    Mod,
}

impl BinaryOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
        }
    }

    /// True for `/` and `%`, which raise on a zero divisor.
    pub fn divides(self) -> bool {
        matches!(self, BinaryOp::Div | BinaryOp::Mod)
    }

    /// True for comparison operators (result is boolean 3VL).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Aggregate functions supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
}

impl AggFunc {
    /// Parse a function name as an aggregate.
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Scalar (per-row) functions supported by the evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// Absolute value of a numeric.
    Abs,
    /// Round a numeric to the nearest integer (or to N decimals with a
    /// second argument).
    Round,
    /// Upper-case a string.
    Upper,
    /// Lower-case a string.
    Lower,
    /// Character length of a string.
    Length,
    /// First non-NULL argument.
    Coalesce,
    /// Semi-join reduction probe: `BLOOM_HAS(expr, 'hex')` is TRUE when
    /// the expression's key may be in the hex-encoded bloom filter, FALSE
    /// when it definitively is not (NULL for a NULL key).
    BloomHas,
}

impl ScalarFunc {
    /// Parse a function name.
    pub fn parse(name: &str) -> Option<ScalarFunc> {
        match name.to_ascii_uppercase().as_str() {
            "ABS" => Some(ScalarFunc::Abs),
            "ROUND" => Some(ScalarFunc::Round),
            "UPPER" => Some(ScalarFunc::Upper),
            "LOWER" => Some(ScalarFunc::Lower),
            "LENGTH" => Some(ScalarFunc::Length),
            "COALESCE" => Some(ScalarFunc::Coalesce),
            "BLOOM_HAS" => Some(ScalarFunc::BloomHas),
            _ => None,
        }
    }

    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Round => "ROUND",
            ScalarFunc::Upper => "UPPER",
            ScalarFunc::Lower => "LOWER",
            ScalarFunc::Length => "LENGTH",
            ScalarFunc::Coalesce => "COALESCE",
            ScalarFunc::BloomHas => "BLOOM_HAS",
        }
    }

    /// Valid argument-count range.
    pub fn arity(self) -> std::ops::RangeInclusive<usize> {
        match self {
            ScalarFunc::Round => 1..=2,
            ScalarFunc::Coalesce => 1..=8,
            ScalarFunc::BloomHas => 2..=2,
            _ => 1..=1,
        }
    }
}

/// SQL expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant value.
    Literal(Value),
    /// A column reference.
    Column(ColumnRef),
    /// Unary operator application.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// The operand expression.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// The operand expression.
        expr: Box<Expr>,
        /// Whether the predicate is negated (`NOT ...`).
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`
    InList {
        /// The operand expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// Whether the predicate is negated (`NOT ...`).
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`
    Between {
        /// The operand expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// Whether the predicate is negated (`NOT ...`).
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`
    Like {
        /// The operand expression.
        expr: Box<Expr>,
        /// LIKE pattern (`%`/`_` wildcards).
        pattern: String,
        /// Whether the predicate is negated (`NOT ...`).
        negated: bool,
    },
    /// Scalar function call.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments, in order.
        args: Vec<Expr>,
    },
    /// Aggregate call; `COUNT(*)` is represented with `arg = None`.
    Aggregate {
        /// Aggregate function.
        func: AggFunc,
        /// Argument; `None` encodes `COUNT(*)`.
        arg: Option<Box<Expr>>,
        /// Whether DISTINCT applies.
        distinct: bool,
    },
}

impl Expr {
    /// Column shorthand.
    pub fn column(qualifier: Option<&str>, name: &str) -> Expr {
        Expr::Column(ColumnRef {
            qualifier: qualifier.map(str::to_string),
            column: name.to_string(),
        })
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `left op right` shorthand.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `a AND b` shorthand.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::And, right)
    }

    /// Whether `f` holds for this expression or one inside it, visited
    /// parent first, operands in evaluation order; the walk stops at the
    /// first that holds.
    pub fn any<'a>(&'a self, f: &mut impl FnMut(&'a Expr) -> bool) -> bool {
        f(self)
            || match self {
                Expr::Literal(_) | Expr::Column(_) => false,
                Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
                    expr.any(f)
                }
                Expr::Binary { left, right, .. } => left.any(f) || right.any(f),
                Expr::InList { expr, list, .. } => expr.any(f) || list.iter().any(|e| e.any(f)),
                Expr::Func { args, .. } => args.iter().any(|e| e.any(f)),
                Expr::Between { expr, lo, hi, .. } => expr.any(f) || lo.any(f) || hi.any(f),
                Expr::Aggregate { arg, .. } => arg.as_ref().is_some_and(|a| a.any(f)),
            }
    }

    /// True if this expression contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        self.any(&mut |e| matches!(e, Expr::Aggregate { .. }))
    }

    /// Collect every column reference in the expression, in evaluation order.
    pub fn collect_columns<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        self.any(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c);
            }
            false
        });
    }

    /// Split a conjunction into its AND-ed factors; a non-AND expression
    /// yields itself. The mediator uses this to push predicates down to the
    /// sub-queries that can evaluate them.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Rebuild a conjunction from factors. Returns `None` for an empty list.
    pub fn conjoin(factors: Vec<Expr>) -> Option<Expr> {
        factors.into_iter().reduce(Expr::and)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::and(
            Expr::and(Expr::lit(1), Expr::lit(2)),
            Expr::and(Expr::lit(3), Expr::lit(4)),
        );
        assert_eq!(e.conjuncts().len(), 4);
        let rebuilt = Expr::conjoin(e.conjuncts().into_iter().cloned().collect()).unwrap();
        assert_eq!(rebuilt.conjuncts().len(), 4);
    }

    #[test]
    fn conjoin_empty_is_none() {
        assert_eq!(Expr::conjoin(vec![]), None);
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Aggregate {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::binary(Expr::lit(1), BinaryOp::Add, agg);
        assert!(nested.contains_aggregate());
        assert!(!Expr::lit(1).contains_aggregate());

        let stmt = SelectStmt {
            items: vec![SelectItem::Expr {
                expr: nested,
                alias: None,
            }],
            ..SelectStmt::star_from("t")
        };
        assert!(stmt.is_aggregate());
    }

    #[test]
    fn collect_columns_walks_everything() {
        let e = Expr::Between {
            expr: Box::new(Expr::column(Some("t"), "a")),
            lo: Box::new(Expr::column(None, "b")),
            hi: Box::new(Expr::lit(9)),
            negated: false,
        };
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].display(), "t.a");
    }

    #[test]
    fn binding_prefers_alias() {
        assert_eq!(TableRef::new("events").binding(), "events");
        assert_eq!(TableRef::aliased("events", "e").binding(), "e");
    }

    #[test]
    fn agg_func_parse_round_trip() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            assert_eq!(AggFunc::parse(f.sql()), Some(f));
        }
        assert_eq!(AggFunc::parse("UPPER"), None);
    }
}
