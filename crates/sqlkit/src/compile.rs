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
//! This is the crate's one expression evaluator: the optimizer's constant
//! folding evaluates through it too. Its semantics are bit-for-bit those of
//! the reference's evaluator in `gridfed-reference`, a dev-only tree walk
//! that shares none of this code: the differential property test
//! (`tests/prop_compile_differential.rs`) holds the two equal over random
//! expressions, rows, and bindings — same values *and* same errors.
//! Pre-folding only replaces a subtree when its evaluation succeeds; a
//! folding attempt that errors (for example `1 / 0`) leaves the subtree in
//! place so the error still surfaces at evaluation time, exactly when a
//! row-by-row evaluation would raise it.

use crate::ast::{AggFunc, BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::error::SqlError;
use crate::expr::{
    between, binary, cmp_matches, eval_scalar_func, in_list, like_match_chars, logical, truth,
    unary, Bindings,
};
use crate::keys::KeyIndex;
use crate::Result;
use gridfed_storage::Value;

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
        /// The candidates' keys when each is an INT or NULL literal,
        /// compiled with them: a kept lowering probes them on every run.
        keys: Option<Box<KeyIndex<bool>>>,
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

/// The key set of an `IN` list whose items are all INT or NULL literals,
/// compiled with it: a kept lowering probes it on every run.
pub(crate) fn in_keys(list: &[CompiledExpr]) -> Option<Box<KeyIndex<bool>>> {
    let ints = || {
        list.iter().filter_map(|item| match item {
            CompiledExpr::Literal(Value::Int(k)) => Some(*k as u64),
            _ => None,
        })
    };
    let literal =
        |item: &CompiledExpr| matches!(item, CompiledExpr::Literal(Value::Int(_) | Value::Null));
    if !list.iter().all(literal) {
        return None;
    }
    let mut set = KeyIndex::new(ints(), list.len(), &mut false);
    ints().for_each(|k| *set.slot(k) = true);
    Some(Box::new(set))
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
        } => {
            let expr = Box::new(compile(expr, bindings)?);
            let list: Vec<_> = list
                .iter()
                .map(|e| compile(e, bindings))
                .collect::<Result<_>>()?;
            let keys = in_keys(&list);
            CompiledExpr::InList {
                expr,
                list,
                keys,
                negated: *negated,
            }
        }
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
    /// Whether `f` holds for this expression or one inside it, visited
    /// parent first, operands in evaluation order; the walk stops at the
    /// first that holds.
    fn any(&self, f: &mut impl FnMut(&CompiledExpr) -> bool) -> bool {
        f(self)
            || match self {
                CompiledExpr::Literal(_)
                | CompiledExpr::Column(_)
                | CompiledExpr::CmpColumnLiteral { .. }
                | CompiledExpr::CmpColumnColumn { .. } => false,
                CompiledExpr::Unary { expr, .. }
                | CompiledExpr::IsNull { expr, .. }
                | CompiledExpr::Like { expr, .. } => expr.any(f),
                CompiledExpr::Binary { left, right, .. } => left.any(f) || right.any(f),
                CompiledExpr::InList { expr, list, .. } => {
                    expr.any(f) || list.iter().any(|e| e.any(f))
                }
                CompiledExpr::Between { expr, lo, hi, .. } => expr.any(f) || lo.any(f) || hi.any(f),
                CompiledExpr::Func { args, .. } => args.iter().any(|e| e.any(f)),
            }
    }

    /// True when the subtree references no columns (safe to pre-fold).
    fn is_constant(&self) -> bool {
        !self.any(&mut |e| {
            matches!(
                e,
                CompiledExpr::Column(_)
                    | CompiledExpr::CmpColumnLiteral { .. }
                    | CompiledExpr::CmpColumnColumn { .. }
            )
        })
    }

    /// Evaluate against a row with the compiled layout.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            CompiledExpr::Literal(v) => Ok(v.clone()),
            CompiledExpr::Column(pos) => Ok(row.get(*pos).cloned().unwrap_or(Value::Null)),
            CompiledExpr::CmpColumnLiteral { pos, op, literal } => {
                binary(*op, row.get(*pos).unwrap_or(&Value::Null), literal)
            }
            CompiledExpr::CmpColumnColumn { left, op, right } => {
                let l = row.get(*left).unwrap_or(&Value::Null);
                binary(*op, l, row.get(*right).unwrap_or(&Value::Null))
            }
            CompiledExpr::Unary { op, expr } => unary(*op, expr.eval(row)?),
            CompiledExpr::Binary { left, op, right } => {
                let l = left.eval(row)?;
                if !matches!(op, BinaryOp::And | BinaryOp::Or) {
                    return binary(*op, &l, &right.eval(row)?);
                }
                // Short-circuit where 3VL allows it.
                let l = truth(&l)?;
                if l == Some(*op == BinaryOp::Or) {
                    return Ok(Value::Bool(*op == BinaryOp::Or));
                }
                let r = truth(&right.eval(row)?)?;
                Ok(logical(*op, l, r).map_or(Value::Null, Value::Bool))
            }
            CompiledExpr::IsNull { expr, negated } => {
                Ok(Value::Bool(expr.eval(row)?.is_null() != *negated))
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
                ..
            } => in_list(expr.eval(row)?, list.iter().map(|e| e.eval(row)), *negated),
            CompiledExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(row)?;
                let (lo, hi) = (lo.eval(row)?, hi.eval(row)?);
                Ok(between(v.sql_cmp(&lo), v.sql_cmp(&hi), *negated)
                    .map_or(Value::Null, Value::Bool))
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

    /// Collect every row position this expression reads, in visit order
    /// (duplicates possible). The vectorized executor uses this to gather
    /// only the referenced columns into its scratch row.
    pub fn collect_positions(&self, out: &mut Vec<usize>) {
        self.any(&mut |e| {
            match e {
                CompiledExpr::Column(pos) | CompiledExpr::CmpColumnLiteral { pos, .. } => {
                    out.push(*pos)
                }
                CompiledExpr::CmpColumnColumn { left, right, .. } => out.extend([*left, *right]),
                _ => {}
            }
            false
        });
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

/// Non-allocating hash key over a [`Value`], used by GROUP BY, DISTINCT and
/// UNIQUE enforcement — and by the hash join as a hash only, its candidates
/// confirmed by `=`, for a key outside the join's typed classes.
///
/// Equality groups values exactly as the old rendered-`String` keys did,
/// with two repairs: `-0.0` now folds into `0.0` (the strings `"n-0"` and
/// `"n0"` differed, which made the hash join disagree with the nested-loop
/// `=` on signed zeros), and an INT no `f64` holds exactly keys by its
/// integer value, so `2^53` and `2^53 + 1` (or `i64::MIN` and
/// `i64::MIN + 1`) are two keys. Every other INT and every FLOAT fold
/// together through canonical f64 bits — `1` and `1.0` are one key — and
/// every NaN maps to one bit pattern so NaN keys land in a single group —
/// string rendering had the same property via `"nNaN"`. A hash join, which
/// pairs by `=`, hashes [`KeyValue::widened`] instead.
///
/// SQL NULL has no key: [`KeyValue::of`] returns `None`, and each call site
/// decides (joins drop the row, grouping pools NULLs into one group via
/// `Option<KeyValue>` keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyValue<'a> {
    /// Numeric key: canonical IEEE-754 bits (an INT an f64 holds exactly
    /// widened to it).
    Num(u64),
    /// An INT no f64 holds exactly, by its value.
    Int(i64),
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
        crate::batch::ValRef::of(v).key()
    }

    /// The key of an INT: its f64's bits when an f64 holds it exactly,
    /// else the integer itself.
    pub fn int(i: i64) -> KeyValue<'static> {
        // `i64::MAX` widens to 2^63, which saturates back to `i64::MAX`.
        let x = i as f64;
        if x as i64 == i && x < 9_223_372_036_854_775_808.0 {
            KeyValue::Num(canonical_f64_bits(x))
        } else {
            KeyValue::Int(i)
        }
    }

    /// The key as `=` compares it: an exact INT key widened to its f64's
    /// bits, so a key equal under `=` to a FLOAT hashes like it.
    pub fn widened(self) -> KeyValue<'a> {
        match self {
            KeyValue::Int(i) => KeyValue::Num(canonical_f64_bits(i as f64)),
            other => other,
        }
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
/// first row. Aggregate-containing operands are evaluated eagerly (no
/// AND/OR short-circuit at group level).
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
        self.visit(&mut |e| {
            if let GroupExpr::Agg(i) = e {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
        });
    }

    /// The aggregate-free expressions this one evaluates on a group's first
    /// row, left to right.
    pub(crate) fn row_exprs<'a>(&'a self, out: &mut Vec<&'a CompiledExpr>) {
        self.visit(&mut |e| {
            if let GroupExpr::Row(ce) = e {
                out.push(ce);
            }
        });
    }

    /// `f` of this expression and each operand below it, outermost first.
    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a GroupExpr)) {
        f(self);
        match self {
            GroupExpr::Agg(_) | GroupExpr::Row(_) => {}
            GroupExpr::Unary { expr, .. } | GroupExpr::IsNull { expr, .. } => expr.visit(f),
            GroupExpr::Binary { left, right, .. } => [left, right].iter().for_each(|e| e.visit(f)),
            GroupExpr::Between { expr, lo, hi, .. } => {
                [expr, lo, hi].iter().for_each(|e| e.visit(f))
            }
            GroupExpr::InList { expr, list, .. } => {
                expr.visit(f);
                list.iter().for_each(|e| e.visit(f));
            }
        }
    }

    /// Evaluate for one group: `agg_values` are the finished aggregates,
    /// `first_row` the group's first input row (None for an empty group).
    pub fn eval(&self, agg_values: &[Value], first_row: Option<&[Value]>) -> Result<Value> {
        let eval = |e: &GroupExpr| e.eval(agg_values, first_row);
        match self {
            GroupExpr::Agg(slot) => Ok(agg_values[*slot].clone()),
            GroupExpr::Row(ce) => first_row.map_or(Ok(Value::Null), |row| ce.eval(row)),
            GroupExpr::Unary { op, expr } => unary(*op, eval(expr)?),
            GroupExpr::Binary { left, op, right } => {
                // Eager on both sides: an error on the right surfaces even
                // when the left would short-circuit.
                let (l, r) = (eval(left)?, eval(right)?);
                match op {
                    BinaryOp::And | BinaryOp::Or => {
                        let verdict = logical(*op, truth(&l)?, truth(&r)?);
                        Ok(verdict.map_or(Value::Null, Value::Bool))
                    }
                    _ => binary(*op, &l, &r),
                }
            }
            GroupExpr::IsNull { expr, negated } => {
                Ok(Value::Bool(eval(expr)?.is_null() != *negated))
            }
            GroupExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = eval(expr)?;
                let (lo, hi) = (eval(lo)?, eval(hi)?);
                Ok(between(v.sql_cmp(&lo), v.sql_cmp(&hi), *negated)
                    .map_or(Value::Null, Value::Bool))
            }
            GroupExpr::InList {
                expr,
                list,
                negated,
            } => in_list(eval(expr)?, list.iter().map(eval), *negated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
