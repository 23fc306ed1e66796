//! Compile-once / execute-many expression evaluation.
//!
//! [`compile`] lowers an [`Expr`] against a fixed [`Bindings`] layout into a
//! [`CompiledExpr`]: column references are resolved to row positions (so
//! unknown-column and ambiguity errors surface *once*, at compile time, not
//! per row), literal-only subtrees are pre-folded, and LIKE patterns are
//! pre-split into characters. Steady-state evaluation then does zero string
//! comparison and zero allocation for column access — the per-row cost the
//! mediator pays on every federated merge.
//!
//! Two companion pieces live here as well:
//!
//! - [`KeyValue`], the non-allocating hash key the executor uses for hash
//!   join build/probe, GROUP BY grouping, and DISTINCT. It replaces the old
//!   rendered-`String` keys: numerics are canonical f64 bits (INT folds into
//!   FLOAT exactly as SQL `=` does, `-0.0` folds into `0.0`, every NaN maps
//!   to one bit pattern so NaN keys group together, matching the old string
//!   form `"nNaN"`), text and bytes borrow from the row.
//! - [`GroupExpr`] / [`CompiledAggregate`], the compiled form of aggregate
//!   projections and HAVING: each distinct aggregate call is computed once
//!   per group into a slot, and the surrounding expression reads slots.
//!
//! Semantics are bit-for-bit those of the interpreted [`crate::expr::eval`]:
//! the differential property test (`tests/prop_compile_differential.rs`)
//! holds the two evaluators equal over random expressions, rows, and
//! bindings — same values *and* same errors. Pre-folding only replaces a
//! subtree when its evaluation succeeds; a folding attempt that errors (for
//! example `1 / 0`) leaves the subtree in place so the error still surfaces
//! at evaluation time, exactly when the interpreter would raise it.

use crate::ast::{AggFunc, BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::error::SqlError;
use crate::expr::{
    cmp_matches, eval_arithmetic, eval_scalar_func, like_match_chars, truth, Bindings,
};
use crate::Result;
use gridfed_storage::Value;
use std::cmp::Ordering;

/// An expression with all name resolution and constant work done up front.
///
/// Evaluate with [`CompiledExpr::eval`] / [`CompiledExpr::eval_predicate`];
/// the row must have the layout of the [`Bindings`] it was compiled against.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// A constant (literals, plus any pre-folded subtree).
    Literal(Value),
    /// A column, resolved to its row position.
    Column(usize),
    /// `column op literal` comparison — the dominant filter shape, with a
    /// dedicated no-clone evaluation path.
    CmpColumnLiteral {
        /// Row position of the column operand.
        pos: usize,
        /// Comparison operator.
        op: BinaryOp,
        /// Pre-evaluated right-hand side.
        literal: Value,
    },
    /// `column op column` comparison (join conditions), no-clone path.
    CmpColumnColumn {
        /// Left row position.
        left: usize,
        /// Comparison operator.
        op: BinaryOp,
        /// Right row position.
        right: usize,
    },
    /// Unary operator application.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<CompiledExpr>,
    },
    /// Binary operator application (including AND/OR with 3VL shortcuts).
    Binary {
        /// Left operand.
        left: Box<CompiledExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<CompiledExpr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<CompiledExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] IN (..)`.
    InList {
        /// Operand.
        expr: Box<CompiledExpr>,
        /// Candidates.
        list: Vec<CompiledExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between {
        /// Operand.
        expr: Box<CompiledExpr>,
        /// Lower bound.
        lo: Box<CompiledExpr>,
        /// Upper bound.
        hi: Box<CompiledExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`, pattern pre-split into chars.
    Like {
        /// Operand.
        expr: Box<CompiledExpr>,
        /// Pattern characters (`%`/`_` wildcards).
        pattern: Vec<char>,
        /// Negation flag.
        negated: bool,
    },
    /// Scalar function call.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<CompiledExpr>,
    },
}

/// Compile an expression against a row layout.
///
/// Unknown columns, ambiguous references, and aggregate calls outside an
/// aggregation context are reported here, once, instead of on every row.
pub fn compile(expr: &Expr, bindings: &Bindings) -> Result<CompiledExpr> {
    let compiled = match expr {
        Expr::Literal(v) => CompiledExpr::Literal(v.clone()),
        Expr::Column(cref) => CompiledExpr::Column(bindings.resolve(cref)?),
        Expr::Unary { op, expr } => CompiledExpr::Unary {
            op: *op,
            expr: Box::new(compile(expr, bindings)?),
        },
        Expr::Binary { left, op, right } => {
            let left = compile(left, bindings)?;
            let right = compile(right, bindings)?;
            if op.is_comparison() {
                match (&left, &right) {
                    (CompiledExpr::Column(l), CompiledExpr::Column(r)) => {
                        return Ok(CompiledExpr::CmpColumnColumn {
                            left: *l,
                            op: *op,
                            right: *r,
                        })
                    }
                    (CompiledExpr::Column(pos), CompiledExpr::Literal(v)) => {
                        return Ok(CompiledExpr::CmpColumnLiteral {
                            pos: *pos,
                            op: *op,
                            literal: v.clone(),
                        })
                    }
                    (CompiledExpr::Literal(v), CompiledExpr::Column(pos)) => {
                        // Flip `lit op col` into `col op' lit`.
                        return Ok(CompiledExpr::CmpColumnLiteral {
                            pos: *pos,
                            op: flip_comparison(*op),
                            literal: v.clone(),
                        });
                    }
                    _ => {}
                }
            }
            CompiledExpr::Binary {
                left: Box::new(left),
                op: *op,
                right: Box::new(right),
            }
        }
        Expr::IsNull { expr, negated } => CompiledExpr::IsNull {
            expr: Box::new(compile(expr, bindings)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => CompiledExpr::InList {
            expr: Box::new(compile(expr, bindings)?),
            list: list
                .iter()
                .map(|e| compile(e, bindings))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => CompiledExpr::Between {
            expr: Box::new(compile(expr, bindings)?),
            lo: Box::new(compile(lo, bindings)?),
            hi: Box::new(compile(hi, bindings)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => CompiledExpr::Like {
            expr: Box::new(compile(expr, bindings)?),
            pattern: pattern.chars().collect(),
            negated: *negated,
        },
        Expr::Func { func, args } => CompiledExpr::Func {
            func: *func,
            args: args
                .iter()
                .map(|a| compile(a, bindings))
                .collect::<Result<_>>()?,
        },
        Expr::Aggregate { .. } => {
            return Err(SqlError::Eval(
                "aggregate call outside aggregation context".into(),
            ))
        }
    };
    Ok(fold(compiled))
}

/// Pre-fold a node whose operands are all literals, keeping it unfolded when
/// evaluation errors so the error still surfaces per row.
fn fold(expr: CompiledExpr) -> CompiledExpr {
    if matches!(expr, CompiledExpr::Literal(_)) || !expr.is_constant() {
        return expr;
    }
    match expr.eval(&[]) {
        Ok(v) => CompiledExpr::Literal(v),
        Err(_) => expr,
    }
}

/// Mirror a comparison across `=`: `lit op col` ⇒ `col flip(op) lit`.
fn flip_comparison(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other, // Eq / NotEq are symmetric
    }
}

impl CompiledExpr {
    /// True when the subtree references no columns (safe to pre-fold).
    fn is_constant(&self) -> bool {
        match self {
            CompiledExpr::Literal(_) => true,
            CompiledExpr::Column(_)
            | CompiledExpr::CmpColumnLiteral { .. }
            | CompiledExpr::CmpColumnColumn { .. } => false,
            CompiledExpr::Unary { expr, .. } | CompiledExpr::IsNull { expr, .. } => {
                expr.is_constant()
            }
            CompiledExpr::Binary { left, right, .. } => left.is_constant() && right.is_constant(),
            CompiledExpr::InList { expr, list, .. } => {
                expr.is_constant() && list.iter().all(CompiledExpr::is_constant)
            }
            CompiledExpr::Between { expr, lo, hi, .. } => {
                expr.is_constant() && lo.is_constant() && hi.is_constant()
            }
            CompiledExpr::Like { expr, .. } => expr.is_constant(),
            CompiledExpr::Func { args, .. } => args.iter().all(CompiledExpr::is_constant),
        }
    }

    /// Evaluate against a row with the compiled layout.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            CompiledExpr::Literal(v) => Ok(v.clone()),
            CompiledExpr::Column(pos) => Ok(row.get(*pos).cloned().unwrap_or(Value::Null)),
            CompiledExpr::CmpColumnLiteral { pos, op, literal } => {
                let l = row.get(*pos).unwrap_or(&Value::Null);
                Ok(match l.sql_cmp(literal) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(cmp_matches(*op, ord)),
                })
            }
            CompiledExpr::CmpColumnColumn { left, op, right } => {
                let l = row.get(*left).unwrap_or(&Value::Null);
                let r = row.get(*right).unwrap_or(&Value::Null);
                Ok(match l.sql_cmp(r) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(cmp_matches(*op, ord)),
                })
            }
            CompiledExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
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
            CompiledExpr::Binary { left, op, right } => {
                if matches!(op, BinaryOp::And | BinaryOp::Or) {
                    return self.eval_logical(*op, left, right, row);
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                if op.is_comparison() {
                    return Ok(match l.sql_cmp(&r) {
                        None => Value::Null,
                        Some(ord) => Value::Bool(cmp_matches(*op, ord)),
                    });
                }
                eval_arithmetic(*op, &l, &r)
            }
            CompiledExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row)?;
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
            CompiledExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = lo.eval(row)?;
                let hi = hi.eval(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        Ok(Value::Bool(inside != *negated))
                    }
                    _ => Ok(Value::Null),
                }
            }
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Text(s) => Ok(Value::Bool(like_match_chars(pattern, &s) != *negated)),
                    other => Err(SqlError::Eval(format!(
                        "LIKE requires text, got {}",
                        other.render()
                    ))),
                }
            }
            CompiledExpr::Func { func, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(row)?);
                }
                eval_scalar_func(*func, &vals)
            }
        }
    }

    fn eval_logical(
        &self,
        op: BinaryOp,
        left: &CompiledExpr,
        right: &CompiledExpr,
        row: &[Value],
    ) -> Result<Value> {
        let l = truth(&left.eval(row)?)?;
        // Short-circuit where 3VL allows it.
        match (op, l) {
            (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = truth(&right.eval(row)?)?;
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

    /// Collect every row position this expression reads, in visit order
    /// (duplicates possible). The vectorized executor uses this to gather
    /// only the referenced columns into its scratch row.
    pub fn collect_positions(&self, out: &mut Vec<usize>) {
        match self {
            CompiledExpr::Literal(_) => {}
            CompiledExpr::Column(pos) => out.push(*pos),
            CompiledExpr::CmpColumnLiteral { pos, .. } => out.push(*pos),
            CompiledExpr::CmpColumnColumn { left, right, .. } => {
                out.push(*left);
                out.push(*right);
            }
            CompiledExpr::Unary { expr, .. }
            | CompiledExpr::IsNull { expr, .. }
            | CompiledExpr::Like { expr, .. } => expr.collect_positions(out),
            CompiledExpr::Binary { left, right, .. } => {
                left.collect_positions(out);
                right.collect_positions(out);
            }
            CompiledExpr::InList { expr, list, .. } => {
                expr.collect_positions(out);
                for e in list {
                    e.collect_positions(out);
                }
            }
            CompiledExpr::Between { expr, lo, hi, .. } => {
                expr.collect_positions(out);
                lo.collect_positions(out);
                hi.collect_positions(out);
            }
            CompiledExpr::Func { args, .. } => {
                for a in args {
                    a.collect_positions(out);
                }
            }
        }
    }

    /// Evaluate as a predicate: SQL WHERE treats unknown (NULL) as false.
    pub fn eval_predicate(&self, row: &[Value]) -> Result<bool> {
        // Fast path for the two comparison shapes: skip the Value round trip.
        match self {
            CompiledExpr::CmpColumnLiteral { pos, op, literal } => {
                let l = row.get(*pos).unwrap_or(&Value::Null);
                Ok(l.sql_cmp(literal).is_some_and(|ord| cmp_matches(*op, ord)))
            }
            CompiledExpr::CmpColumnColumn { left, op, right } => {
                let l = row.get(*left).unwrap_or(&Value::Null);
                let r = row.get(*right).unwrap_or(&Value::Null);
                Ok(l.sql_cmp(r).is_some_and(|ord| cmp_matches(*op, ord)))
            }
            other => Ok(truth(&other.eval(row)?)?.unwrap_or(false)),
        }
    }
}

// ---- hash keys ----

/// Non-allocating hash key over a [`Value`], used by the hash join,
/// GROUP BY, DISTINCT, and UNIQUE enforcement.
///
/// Equality groups values exactly as the old rendered-`String` keys did,
/// with one repair: `-0.0` now folds into `0.0` (the strings `"n-0"` and
/// `"n0"` differed, which made the hash join disagree with the nested-loop
/// `=` on signed zeros). INT and FLOAT fold together through canonical f64
/// bits, and every NaN maps to one bit pattern so NaN keys land in a single
/// group — string rendering had the same property via `"nNaN"`.
///
/// SQL NULL has no key: [`KeyValue::of`] returns `None`, and each call site
/// decides (joins drop the row, grouping pools NULLs into one group via
/// `Option<KeyValue>` keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyValue<'a> {
    /// Numeric key: canonical IEEE-754 bits (INT widened to f64).
    Num(u64),
    /// Text key, borrowing the row's string.
    Text(&'a str),
    /// Boolean key.
    Bool(bool),
    /// Bytes key, borrowing the row's buffer.
    Bytes(&'a [u8]),
}

impl<'a> KeyValue<'a> {
    /// The key of a value; `None` for SQL NULL.
    pub fn of(v: &'a Value) -> Option<KeyValue<'a>> {
        match v {
            Value::Null => None,
            Value::Int(i) => Some(KeyValue::Num(canonical_f64_bits(*i as f64))),
            Value::Float(x) => Some(KeyValue::Num(canonical_f64_bits(*x))),
            Value::Text(s) => Some(KeyValue::Text(s)),
            Value::Bool(b) => Some(KeyValue::Bool(*b)),
            Value::Bytes(b) => Some(KeyValue::Bytes(b)),
        }
    }

    /// Composite key of a row slice: NULLs pool together (grouping rule).
    pub fn row_key(values: &[Value]) -> Vec<Option<KeyValue<'_>>> {
        values.iter().map(KeyValue::of).collect()
    }

    /// Numeric key straight from an `f64` (or a widened `i64`), bypassing
    /// [`Value`] construction — `ColData::key_at` keys the hash join's build
    /// and probe off typed column chunks with this, and GROUP BY over a lone
    /// INT or FLOAT column groups on the same canonical bits.
    pub fn num(x: f64) -> KeyValue<'static> {
        KeyValue::Num(canonical_f64_bits(x))
    }
}

/// Canonical numeric key bits of a value (`None` for non-numerics); the
/// bloom layer hashes these so filter keys fold exactly like [`KeyValue`].
pub(crate) fn canonical_value_bits(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => Some(canonical_f64_bits(*i as f64)),
        Value::Float(x) => Some(canonical_f64_bits(*x)),
        _ => None,
    }
}

/// Canonical bits: one NaN, no negative zero.
pub(crate) fn canonical_f64_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0u64 // +0.0
    } else {
        x.to_bits()
    }
}

// ---- compiled aggregation ----

/// One aggregate call, compiled: the per-row input expression is bound once.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAggregate {
    /// Aggregate function.
    pub func: AggFunc,
    /// DISTINCT flag.
    pub distinct: bool,
    /// Input expression; `None` encodes `COUNT(*)`.
    pub arg: Option<CompiledExpr>,
}

/// A group-level expression: aggregate calls are slot references into the
/// per-group aggregate results, everything else evaluates on the group's
/// first row. Mirrors the shapes the interpreter's `eval_aggregate_expr`
/// accepts; like it, aggregate-containing operands are evaluated eagerly
/// (no AND/OR short-circuit at group level).
#[derive(Debug, Clone, PartialEq)]
pub enum GroupExpr {
    /// Value of the n-th compiled aggregate for this group.
    Agg(usize),
    /// Aggregate-free expression, evaluated on the group's first row
    /// (NULL for an empty group).
    Row(CompiledExpr),
    /// Unary operator over a group expression.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<GroupExpr>,
    },
    /// Binary operator over group expressions (eager, both sides).
    Binary {
        /// Left operand.
        left: Box<GroupExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<GroupExpr>,
    },
    /// `expr IS [NOT] NULL` over a group expression.
    IsNull {
        /// Operand.
        expr: Box<GroupExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi` over group expressions.
    Between {
        /// Operand.
        expr: Box<GroupExpr>,
        /// Lower bound.
        lo: Box<GroupExpr>,
        /// Upper bound.
        hi: Box<GroupExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] IN (..)` over group expressions.
    InList {
        /// Operand.
        expr: Box<GroupExpr>,
        /// Candidates.
        list: Vec<GroupExpr>,
        /// Negation flag.
        negated: bool,
    },
}

/// Compile a select-item or HAVING expression for aggregate execution.
///
/// Distinct aggregate calls are appended to `aggs` (shared across the whole
/// item list plus HAVING, so `COUNT(*)` in both costs one accumulator).
pub fn compile_group(
    expr: &Expr,
    bindings: &Bindings,
    aggs: &mut Vec<CompiledAggregate>,
) -> Result<GroupExpr> {
    if !expr.contains_aggregate() {
        return Ok(GroupExpr::Row(compile(expr, bindings)?));
    }
    match expr {
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let compiled = CompiledAggregate {
                func: *func,
                distinct: *distinct,
                arg: match arg {
                    None => None,
                    Some(a) => Some(compile(a, bindings)?),
                },
            };
            let slot = match aggs.iter().position(|a| *a == compiled) {
                Some(i) => i,
                None => {
                    aggs.push(compiled);
                    aggs.len() - 1
                }
            };
            Ok(GroupExpr::Agg(slot))
        }
        Expr::Binary { left, op, right } => Ok(GroupExpr::Binary {
            left: Box::new(compile_group(left, bindings, aggs)?),
            op: *op,
            right: Box::new(compile_group(right, bindings, aggs)?),
        }),
        Expr::Unary { op, expr } => Ok(GroupExpr::Unary {
            op: *op,
            expr: Box::new(compile_group(expr, bindings, aggs)?),
        }),
        Expr::IsNull { expr, negated } => Ok(GroupExpr::IsNull {
            expr: Box::new(compile_group(expr, bindings, aggs)?),
            negated: *negated,
        }),
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Ok(GroupExpr::Between {
            expr: Box::new(compile_group(expr, bindings, aggs)?),
            lo: Box::new(compile_group(lo, bindings, aggs)?),
            hi: Box::new(compile_group(hi, bindings, aggs)?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(GroupExpr::InList {
            expr: Box::new(compile_group(expr, bindings, aggs)?),
            list: list
                .iter()
                .map(|e| compile_group(e, bindings, aggs))
                .collect::<Result<_>>()?,
            negated: *negated,
        }),
        other => Err(SqlError::Unsupported(format!(
            "aggregate expression shape: {other:?}"
        ))),
    }
}

impl GroupExpr {
    /// Collect the distinct aggregate slots this expression reads, in
    /// first-reference order.
    pub fn agg_slots(&self, out: &mut Vec<usize>) {
        match self {
            GroupExpr::Agg(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            GroupExpr::Row(_) => {}
            GroupExpr::Unary { expr, .. } | GroupExpr::IsNull { expr, .. } => expr.agg_slots(out),
            GroupExpr::Binary { left, right, .. } => {
                left.agg_slots(out);
                right.agg_slots(out);
            }
            GroupExpr::Between { expr, lo, hi, .. } => {
                expr.agg_slots(out);
                lo.agg_slots(out);
                hi.agg_slots(out);
            }
            GroupExpr::InList { expr, list, .. } => {
                expr.agg_slots(out);
                for e in list {
                    e.agg_slots(out);
                }
            }
        }
    }

    /// Evaluate for one group: `agg_values` are the finished aggregates,
    /// `first_row` the group's first input row (None for an empty group).
    pub fn eval(&self, agg_values: &[Value], first_row: Option<&[Value]>) -> Result<Value> {
        match self {
            GroupExpr::Agg(slot) => Ok(agg_values[*slot].clone()),
            GroupExpr::Row(ce) => match first_row {
                Some(row) => ce.eval(row),
                None => Ok(Value::Null),
            },
            GroupExpr::Unary { op, expr } => {
                let v = expr.eval(agg_values, first_row)?;
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
            GroupExpr::Binary { left, op, right } => {
                // Eager on both sides, like the interpreter's literal
                // substitution: an error on the right surfaces even when the
                // left would short-circuit.
                let l = left.eval(agg_values, first_row)?;
                let r = right.eval(agg_values, first_row)?;
                if matches!(op, BinaryOp::And | BinaryOp::Or) {
                    let (lt, rt) = (truth(&l)?, truth(&r)?);
                    let out = match op {
                        BinaryOp::And => match (lt, rt) {
                            (Some(false), _) | (_, Some(false)) => Some(false),
                            (Some(true), Some(true)) => Some(true),
                            _ => None,
                        },
                        _ => match (lt, rt) {
                            (Some(true), _) | (_, Some(true)) => Some(true),
                            (Some(false), Some(false)) => Some(false),
                            _ => None,
                        },
                    };
                    return Ok(out.map_or(Value::Null, Value::Bool));
                }
                if op.is_comparison() {
                    return Ok(match l.sql_cmp(&r) {
                        None => Value::Null,
                        Some(ord) => Value::Bool(cmp_matches(*op, ord)),
                    });
                }
                eval_arithmetic(*op, &l, &r)
            }
            GroupExpr::IsNull { expr, negated } => {
                let v = expr.eval(agg_values, first_row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            GroupExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(agg_values, first_row)?;
                let lo = lo.eval(agg_values, first_row)?;
                let hi = hi.eval(agg_values, first_row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        Ok(Value::Bool(inside != *negated))
                    }
                    _ => Ok(Value::Null),
                }
            }
            GroupExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(agg_values, first_row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(agg_values, first_row)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if v.sql_eq(&iv) {
                        return Ok(Value::Bool(!negated));
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::eval;
    use crate::parser::parse_select;

    fn b() -> Bindings {
        Bindings::for_table("t", &["a".into(), "b".into(), "c".into()])
    }

    fn where_of(sql_where: &str) -> Expr {
        parse_select(&format!("SELECT * FROM t WHERE {sql_where}"))
            .unwrap()
            .where_clause
            .unwrap()
    }

    #[test]
    fn column_references_become_positions() {
        let ce = compile(&where_of("t.b = 2"), &b()).unwrap();
        assert_eq!(
            ce,
            CompiledExpr::CmpColumnLiteral {
                pos: 1,
                op: BinaryOp::Eq,
                literal: Value::Int(2)
            }
        );
    }

    #[test]
    fn unknown_column_fails_at_compile_time() {
        assert!(matches!(
            compile(&where_of("zz = 1"), &b()),
            Err(SqlError::UnknownColumn(_))
        ));
        let joined = b().concat(&Bindings::for_table("u", &["a".into()]));
        assert!(matches!(
            compile(&where_of("a = 1"), &joined),
            Err(SqlError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn literal_subtrees_pre_fold() {
        let ce = compile(&where_of("a > 10.0 + 2.0 * 5.0"), &b()).unwrap();
        assert_eq!(
            ce,
            CompiledExpr::CmpColumnLiteral {
                pos: 0,
                op: BinaryOp::Gt,
                literal: Value::Float(20.0)
            }
        );
    }

    #[test]
    fn erroring_constant_stays_unfolded_and_errors_per_row() {
        let ce = compile(&where_of("a = 1 / 0"), &b()).unwrap();
        assert!(!matches!(ce, CompiledExpr::Literal(_)));
        let err = ce.eval(&[Value::Int(1), Value::Null, Value::Null]);
        assert!(matches!(err, Err(SqlError::Eval(_))));
        // ...but short-circuit still skips it, exactly like the interpreter.
        let guarded = compile(&where_of("a = a OR a = 1 / 0"), &b()).unwrap();
        let row = [Value::Int(1), Value::Null, Value::Null];
        assert_eq!(
            guarded.eval(&row).unwrap(),
            eval(&where_of("a = a OR a = 1 / 0"), &row, &b()).unwrap()
        );
    }

    #[test]
    fn reversed_comparison_flips() {
        let ce = compile(&where_of("3 < a"), &b()).unwrap();
        assert_eq!(
            ce,
            CompiledExpr::CmpColumnLiteral {
                pos: 0,
                op: BinaryOp::Gt,
                literal: Value::Int(3)
            }
        );
        let row = [Value::Int(5), Value::Null, Value::Null];
        assert_eq!(ce.eval(&row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn compiled_matches_interpreted_on_3vl_shapes() {
        let bd = b();
        let rows: [&[Value]; 3] = [
            &[Value::Int(5), Value::Null, Value::Text("ecal".into())],
            &[Value::Int(0), Value::Float(2.5), Value::Text("x".into())],
            &[Value::Null, Value::Null, Value::Null],
        ];
        for w in [
            "a > 3 AND b > 3",
            "a > 3 OR b > 3",
            "NOT b > 3",
            "a IN (1, 5, NULL)",
            "a NOT IN (1, NULL)",
            "a BETWEEN 0 AND 5",
            "c LIKE 'e%'",
            "c IS NOT NULL",
            "COALESCE(a, b, 9) = 9",
            "ABS(a) + LENGTH(c) > 2",
        ] {
            let e = where_of(w);
            let ce = compile(&e, &bd).unwrap();
            for row in rows {
                let interpreted = eval(&e, row, &bd);
                let compiled = ce.eval(row);
                match (interpreted, compiled) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "value mismatch on `{w}`"),
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => panic!("divergence on `{w}`: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn aggregate_outside_aggregation_is_compile_error() {
        let stmt = parse_select("SELECT COUNT(*) FROM t").unwrap();
        let agg = match &stmt.items[0] {
            crate::ast::SelectItem::Expr { expr, .. } => expr.clone(),
            _ => unreachable!(),
        };
        let err = compile(&agg, &b()).unwrap_err();
        assert!(err.to_string().contains("aggregation context"));
    }

    #[test]
    fn key_value_folds_numeric_classes() {
        // INT and FLOAT with equal numeric value share a key, as `=` does.
        assert_eq!(
            KeyValue::of(&Value::Int(3)),
            KeyValue::of(&Value::Float(3.0))
        );
        assert_ne!(
            KeyValue::of(&Value::Int(3)),
            KeyValue::of(&Value::Text("3".into()))
        );
        assert_eq!(KeyValue::of(&Value::Null), None);
    }

    #[test]
    fn key_value_canonicalizes_nan_and_negative_zero() {
        // Every NaN maps to one group — exactly what the old rendered-string
        // keys did (`format!("n{x}")` prints every NaN as "nNaN").
        let nan1 = Value::Float(f64::NAN);
        let nan2 = Value::Float(-f64::NAN);
        assert_eq!(KeyValue::of(&nan1), KeyValue::of(&nan2));
        let old_style = |v: &Value| match v {
            Value::Float(x) => format!("n{x}"),
            _ => unreachable!(),
        };
        assert_eq!(old_style(&nan1), old_style(&nan2));

        // Signed zeros fold together, repairing the one place the string
        // keys disagreed with SQL `=` ("n-0" vs "n0" split what the
        // nested-loop join matched).
        assert_eq!(
            KeyValue::of(&Value::Float(-0.0)),
            KeyValue::of(&Value::Float(0.0))
        );
        assert_eq!(
            KeyValue::of(&Value::Float(-0.0)),
            KeyValue::of(&Value::Int(0))
        );
        assert!(Value::Float(-0.0).sql_eq(&Value::Float(0.0)));
    }

    #[test]
    fn group_compile_shares_aggregate_slots() {
        let stmt = parse_select(
            "SELECT a, COUNT(*) AS n, COUNT(*) + 1 FROM t GROUP BY a HAVING COUNT(*) > 1",
        )
        .unwrap();
        let bd = b();
        let mut aggs = Vec::new();
        for item in &stmt.items {
            if let crate::ast::SelectItem::Expr { expr, .. } = item {
                compile_group(expr, &bd, &mut aggs).unwrap();
            }
        }
        compile_group(stmt.having.as_ref().unwrap(), &bd, &mut aggs).unwrap();
        // COUNT(*) appears three times but occupies one slot.
        assert_eq!(aggs.len(), 1);
    }
}
