//! The reference's expression evaluator: a tree walk over [`Expr`] that
//! resolves every column by name, on every row.
//!
//! It restates SQL's rules directly — three-valued logic, NULL
//! propagation, INT arithmetic that wraps and FLOAT arithmetic that
//! errors on a zero divisor, the scalar functions, LIKE — without any of
//! the engine's lowered expression forms or shared helpers.

use gridfed_sqlkit::ast::{BinaryOp, Expr, ScalarFunc, UnaryOp};
use gridfed_sqlkit::expr::Bindings;
use gridfed_sqlkit::{Result, SqlError};
use gridfed_storage::Value;
use std::cmp::Ordering;

/// Evaluate `expr` over `row`, whose layout `bindings` names. A column is
/// looked up when evaluation reaches it, so a short-circuited branch never
/// resolves its names.
pub fn eval(expr: &Expr, row: &[Value], bindings: &Bindings) -> Result<Value> {
    let ev = |e: &Expr| eval(e, row, bindings);
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(c) => Ok(row
            .get(bindings.resolve(c)?)
            .cloned()
            .unwrap_or(Value::Null)),
        Expr::Unary { op, expr } => unary(*op, ev(expr)?),
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And | BinaryOp::Or => {
                // The right side runs only when the left leaves the answer open.
                let l = three_valued(&ev(left)?)?;
                if l == Some(*op == BinaryOp::Or) {
                    return Ok(Value::Bool(*op == BinaryOp::Or));
                }
                let r = three_valued(&ev(right)?)?;
                Ok(logical(*op, l, r))
            }
            _ => binary(*op, &ev(left)?, &ev(right)?),
        },
        Expr::IsNull { expr, negated } => Ok(Value::Bool(ev(expr)?.is_null() != *negated)),
        Expr::InList {
            expr,
            list,
            negated,
        } => in_list(ev(expr)?, list.iter().map(ev), *negated),
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Ok(between(&ev(expr)?, &ev(lo)?, &ev(hi)?, *negated)),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match ev(expr)? {
            Value::Null => Ok(Value::Null),
            Value::Text(s) => Ok(Value::Bool(like(pattern, &s) != *negated)),
            other => Err(SqlError::Eval(format!(
                "LIKE requires text, got {}",
                other.render()
            ))),
        },
        Expr::Func { func, args } => {
            let values = args.iter().map(ev).collect::<Result<Vec<_>>>()?;
            scalar(*func, &values)
        }
        Expr::Aggregate { .. } => Err(outside_aggregation()),
    }
}

/// [`eval`] as a WHERE clause reads it: unknown is false.
pub fn eval_predicate(expr: &Expr, row: &[Value], bindings: &Bindings) -> Result<bool> {
    Ok(three_valued(&eval(expr, row, bindings)?)?.unwrap_or(false))
}

/// The error an aggregate call raises where no group is being evaluated.
pub(crate) fn outside_aggregation() -> SqlError {
    SqlError::Eval("aggregate call outside aggregation context".into())
}

/// Resolve every column `expr` names against `bindings`, left to right,
/// without evaluating anything: the errors a statement raises before it
/// reads a row, whatever its rows are.
pub(crate) fn bind(expr: &Expr, bindings: &Bindings) -> Result<()> {
    let b = |e: &Expr| bind(e, bindings);
    match expr {
        Expr::Literal(_) => Ok(()),
        Expr::Column(c) => bindings.resolve(c).map(drop),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => b(expr),
        Expr::Binary { left, right, .. } => b(left).and_then(|()| b(right)),
        Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).try_for_each(b),
        Expr::Between { expr, lo, hi, .. } => [expr, lo, hi].into_iter().try_for_each(|e| b(e)),
        Expr::Func { args, .. } => args.iter().try_for_each(b),
        Expr::Aggregate { .. } => Err(outside_aggregation()),
    }
}

/// Three-valued three_valued: NULL is unknown, an INT is true when non-zero.
pub(crate) fn three_valued(v: &Value) -> Result<Option<bool>> {
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

/// AND / OR over two known-or-unknown operands.
pub(crate) fn logical(op: BinaryOp, l: Option<bool>, r: Option<bool>) -> Value {
    let out = match (op, l, r) {
        (BinaryOp::And, Some(false), _) | (BinaryOp::And, _, Some(false)) => Some(false),
        (BinaryOp::And, Some(true), Some(true)) => Some(true),
        (BinaryOp::Or, Some(true), _) | (BinaryOp::Or, _, Some(true)) => Some(true),
        (BinaryOp::Or, Some(false), Some(false)) => Some(false),
        _ => None,
    };
    out.map_or(Value::Null, Value::Bool)
}

pub(crate) fn unary(op: UnaryOp, v: Value) -> Result<Value> {
    match (op, v) {
        (UnaryOp::Not, v) => Ok(three_valued(&v)?.map_or(Value::Null, |b| Value::Bool(!b))),
        (UnaryOp::Neg, Value::Null) => Ok(Value::Null),
        (UnaryOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnaryOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
        (UnaryOp::Neg, other) => Err(SqlError::Eval(format!("cannot negate {}", other.render()))),
    }
}

/// A comparison or an arithmetic operator over two evaluated operands.
pub(crate) fn binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    let holds = |ord: Ordering| match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::NotEq => ord.is_ne(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        _ => ord.is_ge(),
    };
    if op.is_comparison() {
        return Ok(l
            .sql_cmp(r)
            .map_or(Value::Null, |ord| Value::Bool(holds(ord))));
    }
    match (l, r) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Text(a), Value::Text(b)) if op == BinaryOp::Add => {
            Ok(Value::Text(format!("{a}{b}")))
        }
        // INT with INT stays INT and wraps, except `/`, which is FLOAT.
        (Value::Int(a), Value::Int(b)) if op != BinaryOp::Div => match op {
            BinaryOp::Add => Ok(Value::Int(a.wrapping_add(*b))),
            BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            _ if *b == 0 => Err(SqlError::Eval("modulo by zero".into())),
            _ => Ok(Value::Int(a.wrapping_rem(*b))),
        },
        _ => {
            let number = |v: &Value| match v {
                Value::Int(i) => Ok(*i as f64),
                Value::Float(x) => Ok(*x),
                other => Err(SqlError::Eval(format!(
                    "arithmetic on non-numeric value {}",
                    other.render()
                ))),
            };
            let (a, b) = (number(l)?, number(r)?);
            match op {
                BinaryOp::Add => Ok(Value::Float(a + b)),
                BinaryOp::Sub => Ok(Value::Float(a - b)),
                BinaryOp::Mul => Ok(Value::Float(a * b)),
                BinaryOp::Div if b == 0.0 => Err(SqlError::Eval("division by zero".into())),
                BinaryOp::Div => Ok(Value::Float(a / b)),
                _ if b == 0.0 => Err(SqlError::Eval("modulo by zero".into())),
                _ => Ok(Value::Float(a % b)),
            }
        }
    }
}

/// `v [NOT] BETWEEN lo AND hi`: unknown unless both bounds compare.
pub(crate) fn between(v: &Value, lo: &Value, hi: &Value, negated: bool) -> Value {
    match (v.sql_cmp(lo), v.sql_cmp(hi)) {
        (Some(a), Some(b)) => Value::Bool((a.is_ge() && b.is_le()) != negated),
        _ => Value::Null,
    }
}

/// `v [NOT] IN (items)`, drawing the items only until one is `=` to `v`:
/// unknown when `v` is NULL, or when no item matched and one was NULL.
pub(crate) fn in_list(
    v: Value,
    items: impl Iterator<Item = Result<Value>>,
    negated: bool,
) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let mut unknown = false;
    for item in items {
        let item = item?;
        if v.sql_eq(&item) {
            return Ok(Value::Bool(!negated));
        }
        unknown |= item.is_null();
    }
    Ok(if unknown {
        Value::Null
    } else {
        Value::Bool(negated)
    })
}

/// LIKE: `%` matches any run of characters, `_` exactly one, everything
/// else itself, case-sensitively. `reach[j]` is whether the pattern read so
/// far can end having consumed the first `j` characters of `s`.
fn like(pattern: &str, s: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let mut reach = vec![false; s.len() + 1];
    reach[0] = true;
    for p in pattern.chars() {
        reach = match p {
            '%' => {
                let first = reach.iter().position(|&r| r).unwrap_or(reach.len());
                (0..=s.len()).map(|j| j >= first).collect()
            }
            _ => (0..=s.len())
                .map(|j| j > 0 && reach[j - 1] && (p == '_' || s[j - 1] == p))
                .collect(),
        };
    }
    reach[s.len()]
}

/// A scalar function over its evaluated arguments.
fn scalar(func: ScalarFunc, args: &[Value]) -> Result<Value> {
    let type_error = |wanted: &str, got: &Value| {
        SqlError::Eval(format!(
            "{} requires {wanted}, got {}",
            func.sql(),
            got.render()
        ))
    };
    let number = |v: &Value| match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(x) => Ok(*x),
        other => Err(type_error("a numeric argument", other)),
    };
    if func == ScalarFunc::Coalesce {
        return Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null));
    }
    let first = args.first().unwrap_or(&Value::Null);
    if first.is_null() {
        return Ok(Value::Null);
    }
    match func {
        ScalarFunc::Abs => match first {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            other => Ok(Value::Float(number(other)?.abs())),
        },
        ScalarFunc::Round => {
            let x = number(first)?;
            let places = match args.get(1) {
                None => 0,
                Some(Value::Null) => return Ok(Value::Null),
                Some(v) => number(v)? as i32,
            };
            let scale = 10f64.powi(places);
            let rounded = (x * scale).round() / scale;
            Ok(match first {
                Value::Int(_) if places <= 0 => Value::Int(rounded as i64),
                _ => Value::Float(rounded),
            })
        }
        ScalarFunc::Upper => match first {
            Value::Text(s) => Ok(Value::Text(s.to_uppercase())),
            other => Err(type_error("text", other)),
        },
        ScalarFunc::Lower => match first {
            Value::Text(s) => Ok(Value::Text(s.to_lowercase())),
            other => Err(type_error("text", other)),
        },
        ScalarFunc::Length => match first {
            Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
            other => Err(type_error("text", other)),
        },
        ScalarFunc::BloomHas => match args.get(1) {
            Some(Value::Text(hex)) => gridfed_sqlkit::bloom::probe_hex(hex, first)
                .map(Value::Bool)
                .map_err(SqlError::Eval),
            other => Err(SqlError::Eval(format!(
                "BLOOM_HAS requires a hex text payload, got {}",
                other.map_or("nothing".to_string(), Value::render)
            ))),
        },
        ScalarFunc::Coalesce => unreachable!("answered above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_is_anchored_and_case_sensitive() {
        for (p, s, want) in [
            ("run%", "run42", true),
            ("%cal", "ecal", true),
            ("e_al", "ecal", true),
            ("e_al", "eccal", false),
            ("%", "", true),
            ("_", "", false),
            ("a%b%c", "aXXbYYc", true),
            ("a%b%c", "aXXcYYb", false),
            ("abc", "ABC", false),
            ("%%a", "ba", true),
            ("é_", "éé", true),
        ] {
            assert_eq!(like(p, s), want, "{p:?} LIKE {s:?}");
        }
    }

    #[test]
    fn arithmetic_keeps_int_and_wraps() {
        let int = |i| Value::Int(i);
        assert_eq!(
            binary(BinaryOp::Add, &int(i64::MAX), &int(1)).unwrap(),
            int(i64::MIN)
        );
        assert_eq!(
            binary(BinaryOp::Div, &int(7), &int(2)).unwrap(),
            Value::Float(3.5)
        );
        assert!(binary(BinaryOp::Div, &int(7), &int(0)).is_err());
        assert!(binary(BinaryOp::Mod, &int(7), &int(0)).is_err());
        assert_eq!(
            binary(BinaryOp::Mod, &int(i64::MIN), &int(-1)).unwrap(),
            int(0)
        );
    }
}
