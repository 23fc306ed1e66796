//! SQL expression evaluation with three-valued logic.

use crate::ast::{AggFunc, BinaryOp, ColumnRef, Expr, ScalarFunc, UnaryOp};
use crate::error::SqlError;
use crate::Result;
use gridfed_storage::{Bitmap, Value};
use std::cmp::Ordering;

/// Column bindings for a row layout: for each position, the binding
/// qualifier (table name or alias, lower-cased) and the column name.
///
/// Join outputs concatenate the bindings of their inputs, so the same column
/// name may appear under several qualifiers; unqualified references are then
/// ambiguous, exactly as in SQL.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    cols: Vec<(Option<String>, String)>,
}

impl Bindings {
    /// Bindings for a single table: every column under one qualifier.
    pub fn for_table(qualifier: &str, column_names: &[String]) -> Self {
        Bindings {
            cols: column_names
                .iter()
                .map(|c| (Some(qualifier.to_ascii_lowercase()), c.clone()))
                .collect(),
        }
    }

    /// Bindings with no qualifier (e.g. a bare result set).
    pub fn unqualified(column_names: &[String]) -> Self {
        Bindings {
            cols: column_names.iter().map(|c| (None, c.clone())).collect(),
        }
    }

    /// Concatenate bindings (join output layout).
    pub fn concat(&self, other: &Bindings) -> Bindings {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Bindings { cols }
    }

    /// Number of bound columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The positions bound to `qualifier` (for `t.*` expansion).
    ///
    /// Qualifiers are stored lower-cased at construction, so the match is a
    /// case-insensitive comparison with no per-call allocation.
    pub fn positions_of_qualifier(&self, qualifier: &str) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, (binding, _))| {
                binding
                    .as_deref()
                    .is_some_and(|b| b.eq_ignore_ascii_case(qualifier))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Column name at a position.
    pub fn name_at(&self, pos: usize) -> Option<&str> {
        self.cols.get(pos).map(|(_, n)| n.as_str())
    }

    /// Resolve a column reference to a position.
    ///
    /// Allocation-free: both the column name and the (pre-lowercased)
    /// qualifier compare case-insensitively in place.
    pub fn resolve(&self, cref: &ColumnRef) -> Result<usize> {
        let mut hits = self.cols.iter().enumerate().filter(|(_, (binding, name))| {
            name.eq_ignore_ascii_case(&cref.column)
                && match &cref.qualifier {
                    Some(q) => binding
                        .as_deref()
                        .is_some_and(|b| b.eq_ignore_ascii_case(q)),
                    None => true,
                }
        });
        match (hits.next(), hits.next()) {
            (Some((pos, _)), None) => Ok(pos),
            (Some(_), Some(_)) => Err(SqlError::AmbiguousColumn(cref.display())),
            (None, _) => Err(SqlError::UnknownColumn(cref.display())),
        }
    }
}

/// Evaluate an expression against a row. Aggregates are rejected here; the
/// executor computes them over groups and substitutes the results.
pub fn eval(expr: &Expr, row: &[Value], bindings: &Bindings) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(cref) => {
            let pos = bindings.resolve(cref)?;
            Ok(row.get(pos).cloned().unwrap_or(Value::Null))
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, row, bindings)?;
            match op {
                UnaryOp::Not => match truth(&v)? {
                    Some(b) => Ok(Value::Bool(!b)),
                    None => Ok(Value::Null),
                },
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    other => Err(SqlError::Eval(format!("cannot negate {}", other.render()))),
                },
            }
        }
        Expr::Binary { left, op, right } => {
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                return eval_logical(*op, left, right, row, bindings);
            }
            let l = eval(left, row, bindings)?;
            let r = eval(right, row, bindings)?;
            if op.is_comparison() {
                return Ok(match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(cmp_matches(*op, ord)),
                });
            }
            eval_arithmetic(*op, &l, &r)
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row, bindings)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, bindings)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, row, bindings)?;
                if iv.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&iv) {
                    return Ok(Value::Bool(!negated));
                }
            }
            if saw_null {
                // v NOT IN (..., NULL): unknown per SQL semantics.
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(expr, row, bindings)?;
            let lo = eval(lo, row, bindings)?;
            let hi = eval(hi, row, bindings)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row, bindings)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Bool(like_match(pattern, &s) != *negated)),
                other => Err(SqlError::Eval(format!(
                    "LIKE requires text, got {}",
                    other.render()
                ))),
            }
        }
        Expr::Func { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, row, bindings)?);
            }
            eval_scalar_func(*func, &vals)
        }
        Expr::Aggregate { .. } => Err(SqlError::Eval(
            "aggregate call outside aggregation context".into(),
        )),
    }
}

/// Evaluate a predicate: SQL WHERE treats unknown (NULL) as false.
pub fn eval_predicate(expr: &Expr, row: &[Value], bindings: &Bindings) -> Result<bool> {
    Ok(truth(&eval(expr, row, bindings)?)?.unwrap_or(false))
}

/// Three-valued truth of a value: NULL → unknown.
pub(crate) fn truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        Value::Int(i) => Ok(Some(*i != 0)),
        other => Err(SqlError::Eval(format!(
            "value {} is not a boolean",
            other.render()
        ))),
    }
}

fn eval_logical(
    op: BinaryOp,
    left: &Expr,
    right: &Expr,
    row: &[Value],
    bindings: &Bindings,
) -> Result<Value> {
    let l = truth(&eval(left, row, bindings)?)?;
    // Short-circuit where 3VL allows it.
    match (op, l) {
        (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
        (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = truth(&eval(right, row, bindings)?)?;
    let out = match op {
        BinaryOp::And => match (l, r) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinaryOp::Or => match (l, r) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("only AND/OR reach eval_logical"),
    };
    Ok(out.map_or(Value::Null, Value::Bool))
}

pub(crate) fn cmp_matches(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("cmp_matches only for comparisons"),
    }
}

pub(crate) fn eval_arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Text concatenation via `+`, as MS-SQL allows.
    if op == BinaryOp::Add {
        if let (Value::Text(a), Value::Text(b)) = (l, r) {
            return Ok(Value::Text(format!("{a}{b}")));
        }
    }
    let as_f64 = |v: &Value| -> Result<f64> {
        match v {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(x) => Ok(*x),
            other => Err(SqlError::Eval(format!(
                "arithmetic on non-numeric value {}",
                other.render()
            ))),
        }
    };
    let both_int = matches!((l, r), (Value::Int(_), Value::Int(_)));
    if both_int && !matches!(op, BinaryOp::Div) {
        let (a, b) = match (l, r) {
            (Value::Int(a), Value::Int(b)) => (*a, *b),
            _ => unreachable!(),
        };
        return match op {
            BinaryOp::Add => Ok(Value::Int(a.wrapping_add(b))),
            BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
            BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
            BinaryOp::Mod => {
                if b == 0 {
                    Err(SqlError::Eval("modulo by zero".into()))
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            _ => unreachable!(),
        };
    }
    let (a, b) = (as_f64(l)?, as_f64(r)?);
    match op {
        BinaryOp::Add => Ok(Value::Float(a + b)),
        BinaryOp::Sub => Ok(Value::Float(a - b)),
        BinaryOp::Mul => Ok(Value::Float(a * b)),
        BinaryOp::Div => {
            if b == 0.0 {
                Err(SqlError::Eval("division by zero".into()))
            } else {
                Ok(Value::Float(a / b))
            }
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                Err(SqlError::Eval("modulo by zero".into()))
            } else {
                Ok(Value::Float(a % b))
            }
        }
        _ => unreachable!("arithmetic ops only"),
    }
}

/// Evaluate a scalar function over already-evaluated arguments.
pub fn eval_scalar_func(func: ScalarFunc, vals: &[Value]) -> Result<Value> {
    use ScalarFunc::*;
    let numeric = |v: &Value, what: &str| -> Result<f64> {
        match v {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(x) => Ok(*x),
            other => Err(SqlError::Eval(format!(
                "{what} requires a numeric argument, got {}",
                other.render()
            ))),
        }
    };
    match func {
        Coalesce => Ok(vals
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        _ if vals[0].is_null() => Ok(Value::Null),
        Abs => Ok(match &vals[0] {
            Value::Int(i) => Value::Int(i.wrapping_abs()),
            other => Value::Float(numeric(other, "ABS")?.abs()),
        }),
        Round => {
            let x = numeric(&vals[0], "ROUND")?;
            let decimals = match vals.get(1) {
                None => 0i32,
                Some(Value::Null) => return Ok(Value::Null),
                Some(v) => numeric(v, "ROUND")? as i32,
            };
            let factor = 10f64.powi(decimals);
            let rounded = (x * factor).round() / factor;
            if decimals <= 0 && matches!(vals[0], Value::Int(_)) {
                Ok(Value::Int(rounded as i64))
            } else {
                Ok(Value::Float(rounded))
            }
        }
        Upper | Lower => match &vals[0] {
            Value::Text(s) => Ok(Value::Text(if func == Upper {
                s.to_uppercase()
            } else {
                s.to_lowercase()
            })),
            other => Err(SqlError::Eval(format!(
                "{} requires text, got {}",
                func.sql(),
                other.render()
            ))),
        },
        Length => match &vals[0] {
            Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
            other => Err(SqlError::Eval(format!(
                "LENGTH requires text, got {}",
                other.render()
            ))),
        },
        BloomHas => match vals.get(1) {
            Some(Value::Text(hex)) => crate::bloom::probe_hex(hex, &vals[0])
                .map(Value::Bool)
                .map_err(SqlError::Eval),
            other => Err(SqlError::Eval(format!(
                "BLOOM_HAS requires a hex text payload, got {}",
                other.map_or("nothing".to_string(), |v| v.render())
            ))),
        },
    }
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` matches
/// exactly one character. Matching is case-sensitive, as in Oracle.
pub fn like_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    like_match_chars(&p, s)
}

/// LIKE against a pre-split pattern, so compiled expressions split the
/// pattern once instead of on every row.
pub fn like_match_chars(pattern: &[char], s: &str) -> bool {
    fn rec(p: &[char], s: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|k| rec(rest, &s[k..])),
            Some(('_', rest)) => !s.is_empty() && rec(rest, &s[1..]),
            Some((c, rest)) => s.first() == Some(c) && rec(rest, &s[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    rec(pattern, &sc)
}

/// Streaming aggregate accumulator used by the executor's GROUP BY.
///
/// `SUM`/`AVG` keep two sums: the `f64` one every input is added to in
/// arrival order (the answer once any FLOAT has been seen), and an exact
/// `i128` of the INT inputs, which is the answer while every input was an
/// INT — an `f64` stops being exact at 2^53.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    distinct: bool,
    count: u64,
    sum: f64,
    int_sum: i128,
    sum_is_float: bool,
    min: Option<Value>,
    max: Option<Value>,
    seen: Vec<Value>,
}

impl AggState {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        AggState {
            func,
            distinct,
            count: 0,
            sum: 0.0,
            int_sum: 0,
            sum_is_float: false,
            min: None,
            max: None,
            seen: Vec::new(),
        }
    }

    /// Feed one input value (`None` = the `*` in `COUNT(*)`).
    pub fn update(&mut self, value: Option<&Value>) -> Result<()> {
        let v = match value {
            None => {
                // COUNT(*) counts rows regardless of content.
                self.count += 1;
                return Ok(());
            }
            Some(v) => v,
        };
        if v.is_null() {
            return Ok(()); // aggregates skip NULLs
        }
        if self.distinct {
            if self.seen.iter().any(|s| s.sql_eq(v)) {
                return Ok(());
            }
            self.seen.push(v.clone());
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => self.add_int(*i),
                Value::Float(x) => self.add_float(*x),
                other => {
                    return Err(SqlError::Eval(format!(
                        "{} over non-numeric value {}",
                        self.func.sql(),
                        other.render()
                    )))
                }
            },
            AggFunc::Min => {
                if self
                    .min
                    .as_ref()
                    .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Less))
                {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self
                    .max
                    .as_ref()
                    .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Greater))
                {
                    self.max = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn add_int(&mut self, i: i64) {
        self.sum += i as f64;
        self.int_sum += i128::from(i);
    }

    fn add_float(&mut self, x: f64) {
        self.sum += x;
        self.sum_is_float = true;
    }

    /// `n` rows of `COUNT(*)` at once: `n` times `update(None)`.
    pub(crate) fn count_rows(&mut self, n: usize) {
        self.count += n as u64;
    }

    /// The state of a non-DISTINCT `func` fed the INT column `data` at
    /// `positions`, NULLs skipped: one `update` per value — same
    /// arithmetic, same order — without building a [`Value`] for each.
    pub(crate) fn over_ints(
        func: AggFunc,
        data: &[i64],
        nulls: &Bitmap,
        positions: &[u32],
    ) -> AggState {
        Self::over_column(func, data, nulls, positions, Self::add_int, Value::Int)
    }

    /// [`AggState::over_ints`] for a FLOAT column. `MIN`/`MAX` keep
    /// `update`'s rule that a value replaces the extreme only when it
    /// compares strictly beyond it, so a leading NaN stays.
    pub(crate) fn over_floats(
        func: AggFunc,
        data: &[f64],
        nulls: &Bitmap,
        positions: &[u32],
    ) -> AggState {
        Self::over_column(func, data, nulls, positions, Self::add_float, Value::Float)
    }

    fn over_column<T: Copy + PartialOrd>(
        func: AggFunc,
        data: &[T],
        nulls: &Bitmap,
        positions: &[u32],
        add: impl Fn(&mut AggState, T),
        wrap: impl Fn(T) -> Value,
    ) -> AggState {
        let mut state = AggState::new(func, false);
        let live = positions
            .iter()
            .map(|&p| p as usize)
            .filter(|&p| !nulls.get(p))
            .map(|p| data[p]);
        match func {
            AggFunc::Count => state.count = live.count() as u64,
            AggFunc::Sum | AggFunc::Avg => {
                for v in live {
                    state.count += 1;
                    add(&mut state, v);
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let beyond = if func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let mut best: Option<T> = None;
                for v in live {
                    state.count += 1;
                    if best.is_none_or(|b| v.partial_cmp(&b) == Some(beyond)) {
                        best = Some(v);
                    }
                }
                let best = best.map(wrap);
                if func == AggFunc::Min {
                    state.min = best;
                } else {
                    state.max = best;
                }
            }
        }
        state
    }

    /// Final aggregate value. An all-INT `SUM` is exact, or an error when
    /// it does not fit an INT.
    pub fn finish(&self) -> Result<Value> {
        Ok(match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum if self.count == 0 => Value::Null,
            AggFunc::Sum if self.sum_is_float => Value::Float(self.sum),
            AggFunc::Sum => Value::Int(
                i64::try_from(self.int_sum)
                    .map_err(|_| SqlError::Eval(format!("SUM overflows INT: {}", self.int_sum)))?,
            ),
            AggFunc::Avg if self.count == 0 => Value::Null,
            AggFunc::Avg if self.sum_is_float => Value::Float(self.sum / self.count as f64),
            AggFunc::Avg => Value::Float(self.int_sum as f64 / self.count as f64),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn b() -> Bindings {
        Bindings::for_table("t", &["a".into(), "b".into(), "c".into()])
    }

    fn where_of(sql: &str) -> Expr {
        parse_select(sql).unwrap().where_clause.unwrap()
    }

    fn ev(sql_where: &str, row: &[Value]) -> Value {
        let e = where_of(&format!("SELECT * FROM t WHERE {sql_where}"));
        eval(&e, row, &b()).unwrap()
    }

    #[test]
    fn resolve_qualified_and_bare() {
        let bd = b();
        assert_eq!(
            bd.resolve(&ColumnRef {
                qualifier: Some("T".into()),
                column: "B".into()
            })
            .unwrap(),
            1
        );
        assert!(matches!(
            bd.resolve(&ColumnRef {
                qualifier: None,
                column: "zz".into()
            }),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ambiguity_detected_after_concat() {
        let joined = b().concat(&Bindings::for_table("u", &["a".into()]));
        assert!(matches!(
            joined.resolve(&ColumnRef {
                qualifier: None,
                column: "a".into()
            }),
            Err(SqlError::AmbiguousColumn(_))
        ));
        // qualified still fine
        assert_eq!(
            joined
                .resolve(&ColumnRef {
                    qualifier: Some("u".into()),
                    column: "a".into()
                })
                .unwrap(),
            3
        );
    }

    #[test]
    fn comparisons_and_3vl() {
        let row = vec![Value::Int(5), Value::Null, Value::Text("x".into())];
        assert_eq!(ev("a > 3", &row), Value::Bool(true));
        assert_eq!(ev("b > 3", &row), Value::Null);
        assert_eq!(ev("a > 3 AND b > 3", &row), Value::Null);
        assert_eq!(ev("a > 3 OR b > 3", &row), Value::Bool(true));
        assert_eq!(ev("a < 3 AND b > 3", &row), Value::Bool(false));
        assert_eq!(ev("NOT b > 3", &row), Value::Null);
    }

    #[test]
    fn predicate_treats_unknown_as_false() {
        let row = vec![Value::Null, Value::Null, Value::Null];
        let e = where_of("SELECT * FROM t WHERE a = 1");
        assert!(!eval_predicate(&e, &row, &b()).unwrap());
    }

    #[test]
    fn arithmetic_int_float_and_division() {
        let row = vec![Value::Int(7), Value::Float(2.0), Value::Null];
        assert_eq!(ev("a + 1 = 8", &row), Value::Bool(true));
        assert_eq!(ev("a / 2 = 3.5", &row), Value::Bool(true)); // div is float
        assert_eq!(ev("a % 4 = 3", &row), Value::Bool(true));
        assert_eq!(ev("a * b = 14.0", &row), Value::Bool(true));
        let e = where_of("SELECT * FROM t WHERE a / 0 = 1");
        assert!(eval(&e, &row, &b()).is_err());
    }

    #[test]
    fn in_list_with_null_semantics() {
        let row = vec![Value::Int(2), Value::Null, Value::Null];
        assert_eq!(ev("a IN (1, 2)", &row), Value::Bool(true));
        assert_eq!(ev("a IN (1, 3)", &row), Value::Bool(false));
        assert_eq!(ev("a NOT IN (1, NULL)", &row), Value::Null);
        assert_eq!(ev("b IN (1)", &row), Value::Null);
    }

    #[test]
    fn between_and_is_null() {
        let row = vec![Value::Int(5), Value::Null, Value::Null];
        assert_eq!(ev("a BETWEEN 1 AND 5", &row), Value::Bool(true));
        assert_eq!(ev("a NOT BETWEEN 1 AND 4", &row), Value::Bool(true));
        assert_eq!(ev("b IS NULL", &row), Value::Bool(true));
        assert_eq!(ev("a IS NOT NULL", &row), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("run%", "run42"));
        assert!(like_match("%cal", "ecal"));
        assert!(like_match("e_al", "ecal"));
        assert!(!like_match("e_al", "eccal"));
        assert!(like_match("%", ""));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("abc", "ABC")); // case-sensitive
    }

    #[test]
    fn scalar_functions() {
        let row = vec![
            Value::Int(-7),
            Value::Float(2.345),
            Value::Text("Ecal".into()),
        ];
        assert_eq!(ev("ABS(a) = 7", &row), Value::Bool(true));
        assert_eq!(ev("ROUND(b) = 2.0", &row), Value::Bool(true));
        assert_eq!(ev("ROUND(b, 1) = 2.3", &row), Value::Bool(true));
        assert_eq!(ev("UPPER(c) = 'ECAL'", &row), Value::Bool(true));
        assert_eq!(ev("LOWER(c) = 'ecal'", &row), Value::Bool(true));
        assert_eq!(ev("LENGTH(c) = 4", &row), Value::Bool(true));
        // NULL propagation
        let row = vec![Value::Null, Value::Null, Value::Null];
        assert_eq!(ev("ABS(a) IS NULL", &row), Value::Bool(true));
        // COALESCE picks the first non-NULL
        assert_eq!(ev("COALESCE(a, b, 9) = 9", &row), Value::Bool(true));
        let row = vec![Value::Null, Value::Int(5), Value::Null];
        assert_eq!(ev("COALESCE(a, b, 9) = 5", &row), Value::Bool(true));
        // type errors surface
        let row = vec![Value::Text("x".into()), Value::Null, Value::Null];
        let e = where_of("SELECT * FROM t WHERE LENGTH(a) = 1");
        assert!(eval(&e, &[Value::Int(3), Value::Null, Value::Null], &b()).is_err());
        let _ = row;
    }

    #[test]
    fn text_concat_with_plus() {
        let row = vec![
            Value::Text("e".into()),
            Value::Text("cal".into()),
            Value::Null,
        ];
        assert_eq!(ev("a + b = 'ecal'", &row), Value::Bool(true));
    }

    #[test]
    fn agg_count_sum_avg_min_max() {
        let vals = [Value::Int(1), Value::Int(2), Value::Null, Value::Int(3)];
        let mut count_star = AggState::new(AggFunc::Count, false);
        let mut count = AggState::new(AggFunc::Count, false);
        let mut sum = AggState::new(AggFunc::Sum, false);
        let mut avg = AggState::new(AggFunc::Avg, false);
        let mut min = AggState::new(AggFunc::Min, false);
        let mut max = AggState::new(AggFunc::Max, false);
        for v in &vals {
            count_star.update(None).unwrap();
            for s in [&mut count, &mut sum, &mut avg, &mut min, &mut max] {
                s.update(Some(v)).unwrap();
            }
        }
        assert_eq!(count_star.finish().unwrap(), Value::Int(4)); // COUNT(*) counts NULL rows
        assert_eq!(count.finish().unwrap(), Value::Int(3)); // COUNT(x) skips NULL
        assert_eq!(sum.finish().unwrap(), Value::Int(6));
        assert_eq!(avg.finish().unwrap(), Value::Float(2.0));
        assert_eq!(min.finish().unwrap(), Value::Int(1));
        assert_eq!(max.finish().unwrap(), Value::Int(3));
    }

    #[test]
    fn agg_distinct_and_empty() {
        let mut d = AggState::new(AggFunc::Count, true);
        for v in [Value::Int(1), Value::Int(1), Value::Int(2)] {
            d.update(Some(&v)).unwrap();
        }
        assert_eq!(d.finish().unwrap(), Value::Int(2));

        assert_eq!(
            AggState::new(AggFunc::Sum, false).finish().unwrap(),
            Value::Null
        );
        assert_eq!(
            AggState::new(AggFunc::Avg, false).finish().unwrap(),
            Value::Null
        );
        assert_eq!(
            AggState::new(AggFunc::Count, false).finish().unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn sum_type_follows_inputs() {
        let mut s = AggState::new(AggFunc::Sum, false);
        s.update(Some(&Value::Int(1))).unwrap();
        s.update(Some(&Value::Float(0.5))).unwrap();
        assert_eq!(s.finish().unwrap(), Value::Float(1.5));
    }

    /// `2^53 + 1` is the first INT an `f64` cannot hold: the sum stays
    /// exact, and one past `i64::MAX` is an error, not a saturated answer.
    #[test]
    fn int_sums_are_exact_or_an_error() {
        let big = 9_007_199_254_740_993i64;
        let mut sum = AggState::new(AggFunc::Sum, false);
        sum.update(Some(&Value::Int(big))).unwrap();
        assert_eq!(sum.finish().unwrap(), Value::Int(big));
        sum.update(Some(&Value::Int(1))).unwrap();
        sum.update(Some(&Value::Int(-1))).unwrap();
        sum.update(Some(&Value::Int(2))).unwrap();
        assert_eq!(sum.finish().unwrap(), Value::Int(big + 2));

        let mut over = AggState::new(AggFunc::Sum, false);
        over.update(Some(&Value::Int(i64::MAX))).unwrap();
        over.update(Some(&Value::Int(1))).unwrap();
        let err = over.finish().unwrap_err();
        assert!(
            matches!(&err, SqlError::Eval(m) if m.contains("SUM overflows INT")),
            "{err}"
        );
        // A sum that comes back inside the range is an answer again.
        over.update(Some(&Value::Int(-1))).unwrap();
        assert_eq!(over.finish().unwrap(), Value::Int(i64::MAX));
        let mut under = AggState::new(AggFunc::Sum, false);
        under.update(Some(&Value::Int(i64::MIN))).unwrap();
        under.update(Some(&Value::Int(-1))).unwrap();
        assert!(under.finish().is_err());

        // AVG divides the exact sum; it cannot overflow.
        let mut avg = AggState::new(AggFunc::Avg, false);
        avg.update(Some(&Value::Int(i64::MAX))).unwrap();
        avg.update(Some(&Value::Int(i64::MAX))).unwrap();
        assert_eq!(avg.finish().unwrap(), Value::Float(i64::MAX as f64));
        // Once a FLOAT has been seen the float sum is the answer, as before.
        let mut mixed = AggState::new(AggFunc::Sum, false);
        mixed.update(Some(&Value::Int(i64::MAX))).unwrap();
        mixed.update(Some(&Value::Int(i64::MAX))).unwrap();
        mixed.update(Some(&Value::Float(0.5))).unwrap();
        assert_eq!(
            mixed.finish().unwrap(),
            Value::Float(i64::MAX as f64 + i64::MAX as f64 + 0.5)
        );
    }

    /// The typed column loops are `update` per value, bit for bit: NULLs,
    /// both zeros, a leading and a trailing NaN, float sums in position
    /// order, an INT sum past 2^53.
    #[test]
    fn typed_column_loops_equal_update_per_value() {
        let ints: Vec<Option<i64>> = vec![
            Some(7),
            None,
            Some(-3),
            Some(9_007_199_254_740_993),
            Some(7),
            None,
            Some(0),
        ];
        let floats: Vec<Option<f64>> = vec![
            Some(f64::NAN),
            Some(0.1),
            None,
            Some(-0.0),
            Some(0.0),
            Some(0.2),
            Some(1e300),
            Some(f64::NAN),
            Some(-1e300),
            Some(0.3),
        ];
        let mut nulls = Bitmap::new();
        let int_data: Vec<i64> = ints.iter().map(|v| v.unwrap_or(0)).collect();
        ints.iter().for_each(|v| nulls.push(v.is_none()));
        let mut fnulls = Bitmap::new();
        let float_data: Vec<f64> = floats.iter().map(|v| v.unwrap_or(0.0)).collect();
        floats.iter().for_each(|v| fnulls.push(v.is_none()));
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        // Whole column, a scattered subset out of order, all-NULL, nothing.
        let int_picks: [&[u32]; 4] = [&[0, 1, 2, 3, 4, 5, 6], &[4, 2, 6], &[1, 5], &[]];
        let float_picks: [&[u32]; 5] = [
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            &[4, 3, 1, 9, 5],
            &[3, 4],
            &[2],
            &[],
        ];
        let same = |a: Value, b: Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (a, b) => a == b,
        };
        for func in funcs {
            for picks in int_picks {
                let mut by_value = AggState::new(func, false);
                for &p in picks {
                    let v = ints[p as usize].map_or(Value::Null, Value::Int);
                    by_value.update(Some(&v)).unwrap();
                }
                let typed = AggState::over_ints(func, &int_data, &nulls, picks);
                assert!(
                    same(typed.finish().unwrap(), by_value.finish().unwrap()),
                    "{func:?} over INT {picks:?}"
                );
            }
            for picks in float_picks {
                let mut by_value = AggState::new(func, false);
                for &p in picks {
                    let v = floats[p as usize].map_or(Value::Null, Value::Float);
                    by_value.update(Some(&v)).unwrap();
                }
                let typed = AggState::over_floats(func, &float_data, &fnulls, picks);
                assert!(
                    same(typed.finish().unwrap(), by_value.finish().unwrap()),
                    "{func:?} over FLOAT {picks:?}"
                );
            }
        }
        let mut star = AggState::new(AggFunc::Count, false);
        star.count_rows(5);
        assert_eq!(star.finish().unwrap(), Value::Int(5));
    }
}
