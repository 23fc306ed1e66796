//! Vectorized batch-execution primitives: column data views, selection
//! vectors, and typed filter kernels.
//!
//! The executor in [`crate::exec`] no longer copies rows between plan nodes.
//! A relational node produces a [`ColRelation`]: a set of per-column
//! [`ColData`] views (borrowed storage chunks where possible) plus a
//! *selection vector* of physical row positions that are still alive. Scan
//! filters and `Filter` nodes refine the selection in place with tight
//! per-column loops; joins gather column indexes instead of concatenating
//! row vectors; rows are only materialized as `Vec<Value>` at the
//! Project / Aggregate boundary (late materialization), column by column
//! ([`ColData::fill_rows`]) — after ORDER BY and LIMIT have shaped the
//! selection, when the select list is positional.
//!
//! [`refine`] has typed loops for the predicate shapes a federated
//! sub-query carries: `column op literal` over INT / FLOAT / BOOL chunks
//! and per dictionary code over string chunks, and `column [NOT] IN (…)` —
//! an INT chunk probes the list's sorted distinct keys by binary search, a
//! string chunk gets one verdict per dictionary code. Every other shape or
//! class combination evaluates per row through `BoolKernel::eval_at`.
//!
//! Work is accounted in fixed-size windows of [`BATCH_ROWS`] selection
//! entries — the `batches` counters surfaced by `EXPLAIN ANALYZE` and the
//! monitoring tables count those windows.
//!
//! ## Error identity with the row interpreter
//!
//! The row-at-a-time reference ([`crate::exec_row`]) evaluates predicates in
//! row-major order and aborts on the first evaluation error. A filter-major
//! loop would surface a *different* (later-row) error first, so the
//! vectorized path defers: a row whose predicate errors is dropped from the
//! selection and its `(position, error)` recorded; when the node finishes,
//! the error with the **minimum position** is reported
//! ([`take_first_error`]). Because each row's trajectory through the filter
//! sequence is identical to the row-major walk (dropped at its first
//! non-true filter, erroring at its first erroring filter), the minimum
//! position is exactly the row the reference would have failed on.
//!
//! `AND` conjunctions split into sequential selection refinements **only**
//! when the right conjunct cannot error: SQL's three-valued `AND` does not
//! short-circuit on a NULL left-hand side, so with a fallible right side the
//! whole conjunction falls back to the generic scratch-row evaluator to keep
//! the same errors surfacing.

use crate::ast::BinaryOp;
use crate::compile::{CompiledExpr, KeyValue};
use crate::error::SqlError;
use crate::expr::{cmp_matches, like_match_chars, truth, Bindings};
use crate::Result;
use gridfed_storage::{Bitmap, ColumnChunk, Row, Value};
use std::cmp::Ordering;

/// Default rows per accounting batch: selection vectors are processed in
/// windows of this many entries. The effective window is configurable per
/// query via [`crate::par::ExecConfig::batch_rows`] (installed scopewise
/// with [`crate::par::with_exec_config`]); this constant is the default.
pub const BATCH_ROWS: usize = crate::par::DEFAULT_BATCH_ROWS;

/// Number of batch windows (of the currently configured size, default
/// [`BATCH_ROWS`]) needed to cover `rows` selection entries (zero for an
/// empty selection).
pub fn n_batches(rows: usize) -> u64 {
    rows.div_ceil(crate::par::batch_rows().max(1)) as u64
}

/// One column of an intermediate relation.
///
/// Scans over columnar tables borrow the storage chunk directly; joins
/// produce gathered (owned) chunks that still share string dictionaries;
/// providers without columnar access fall back to plain value vectors.
pub enum ColData<'a> {
    /// Borrowed storage chunk (zero-copy scan).
    Chunk(&'a ColumnChunk),
    /// Owned chunk (join gather output; dictionaries are shared via `Arc`).
    Owned(ColumnChunk),
    /// Materialized values (row-provider fallback).
    Values(Vec<Value>),
}

impl ColData<'_> {
    /// The underlying typed chunk, if this column has one.
    pub fn chunk(&self) -> Option<&ColumnChunk> {
        match self {
            ColData::Chunk(c) => Some(c),
            ColData::Owned(c) => Some(c),
            ColData::Values(_) => None,
        }
    }

    /// Materialize the value at physical position `pos`.
    pub fn value_at(&self, pos: usize) -> Value {
        match self {
            ColData::Chunk(c) => c.value_at(pos),
            ColData::Owned(c) => c.value_at(pos),
            ColData::Values(v) => v[pos].clone(),
        }
    }

    /// Column-major row materialization: write the value at
    /// `positions[i]` into `rows[i]` at column `slot` — one typed loop per
    /// chunk ([`ColumnChunk::fill_rows`]), a clone per value otherwise.
    pub fn fill_rows(&self, positions: &[u32], rows: &mut [Row], slot: usize) {
        match self {
            ColData::Chunk(c) => c.fill_rows(positions, rows, slot),
            ColData::Owned(c) => c.fill_rows(positions, rows, slot),
            ColData::Values(v) => {
                for (row, &p) in rows.iter_mut().zip(positions) {
                    row.values_mut()[slot] = v[p as usize].clone();
                }
            }
        }
    }

    /// Borrowed, non-allocating view of the value at `pos`.
    pub fn val_ref(&self, pos: usize) -> ValRef<'_> {
        match self {
            ColData::Chunk(c) => ValRef::of_chunk(c, pos),
            ColData::Owned(c) => ValRef::of_chunk(c, pos),
            ColData::Values(v) => ValRef::of(&v[pos]),
        }
    }

    /// Hash key of the value at `pos` (`None` for SQL NULL), borrowing
    /// dictionary strings — what the hash join builds and probes on, and
    /// what GROUP BY hashes and compares when a key is not a lone INT,
    /// FLOAT or dictionary column (`exec::assign_groups`).
    pub fn key_at(&self, pos: usize) -> Option<KeyValue<'_>> {
        self.val_ref(pos).key()
    }

    /// Gather `positions` into an owned column (join outputs).
    pub fn gather(&self, positions: &[u32]) -> ColData<'static> {
        match self {
            ColData::Chunk(c) => ColData::Owned(c.gather(positions)),
            ColData::Owned(c) => ColData::Owned(c.gather(positions)),
            ColData::Values(v) => {
                ColData::Values(positions.iter().map(|&p| v[p as usize].clone()).collect())
            }
        }
    }

    /// Gather with optional positions; `None` yields a NULL slot (the
    /// unmatched side of LEFT OUTER joins).
    pub fn gather_opt(&self, positions: &[Option<u32>]) -> ColData<'static> {
        match self {
            ColData::Chunk(c) => ColData::Owned(c.gather_opt(positions)),
            ColData::Owned(c) => ColData::Owned(c.gather_opt(positions)),
            ColData::Values(v) => ColData::Values(
                positions
                    .iter()
                    .map(|p| p.map_or(Value::Null, |p| v[p as usize].clone()))
                    .collect(),
            ),
        }
    }
}

/// An intermediate relation in columnar form: named columns plus a sorted
/// selection vector of live physical positions.
pub struct ColRelation<'a> {
    /// Column name/qualifier layout (same as the row executor's).
    pub bindings: Bindings,
    /// One [`ColData`] per binding position.
    pub cols: Vec<ColData<'a>>,
    /// Physical positions still selected, in ascending row order.
    pub sel: Vec<u32>,
}

/// Borrowed scalar view — [`gridfed_storage::Value`] without the allocation.
#[derive(Clone, Copy)]
pub enum ValRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Borrowed string (dictionary or row storage).
    Str(&'a str),
    /// Borrowed byte string.
    Bytes(&'a [u8]),
}

impl<'a> ValRef<'a> {
    /// View of an owned [`Value`].
    pub fn of(v: &'a Value) -> ValRef<'a> {
        match v {
            Value::Null => ValRef::Null,
            Value::Int(i) => ValRef::Int(*i),
            Value::Float(x) => ValRef::Float(*x),
            Value::Bool(b) => ValRef::Bool(*b),
            Value::Text(s) => ValRef::Str(s),
            Value::Bytes(b) => ValRef::Bytes(b),
        }
    }

    /// View of a chunk slot.
    pub fn of_chunk(c: &'a ColumnChunk, pos: usize) -> ValRef<'a> {
        match c {
            ColumnChunk::Int { data, nulls } => {
                if nulls.get(pos) {
                    ValRef::Null
                } else {
                    ValRef::Int(data[pos])
                }
            }
            ColumnChunk::Float { data, nulls } => {
                if nulls.get(pos) {
                    ValRef::Null
                } else {
                    ValRef::Float(data[pos])
                }
            }
            ColumnChunk::Bool { data, nulls } => {
                if nulls.get(pos) {
                    ValRef::Null
                } else {
                    ValRef::Bool(data[pos])
                }
            }
            ColumnChunk::Str { codes, dict, nulls } => {
                if nulls.get(pos) {
                    ValRef::Null
                } else {
                    ValRef::Str(dict.get(codes[pos]))
                }
            }
            ColumnChunk::Bytes { data, nulls } => {
                if nulls.get(pos) {
                    ValRef::Null
                } else {
                    ValRef::Bytes(&data[pos])
                }
            }
        }
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, ValRef::Null)
    }

    /// SQL comparison, bit-for-bit [`Value::sql_cmp`]: NULL and cross-class
    /// comparisons are `None`, INT/INT compares exactly, INT widens to f64
    /// against FLOAT, NaN compares as `None`.
    pub fn sql_cmp(&self, other: &ValRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (ValRef::Null, _) | (_, ValRef::Null) => None,
            (ValRef::Int(a), ValRef::Int(b)) => Some(a.cmp(b)),
            (ValRef::Float(a), ValRef::Float(b)) => a.partial_cmp(b),
            (ValRef::Int(a), ValRef::Float(b)) => (*a as f64).partial_cmp(b),
            (ValRef::Float(a), ValRef::Int(b)) => a.partial_cmp(&(*b as f64)),
            (ValRef::Str(a), ValRef::Str(b)) => Some(a.cmp(b)),
            (ValRef::Bool(a), ValRef::Bool(b)) => Some(a.cmp(b)),
            (ValRef::Bytes(a), ValRef::Bytes(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SQL equality (`=` semantics; NULL never equals).
    pub fn sql_eq(&self, other: &ValRef<'_>) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }

    /// The total ORDER BY order, bit-for-bit [`Value::index_cmp`]: NULLs
    /// first, then by type class (BOOL, numbers, TEXT, BYTES), then by
    /// value; a NaN sorts after every other number, equal to another NaN.
    pub fn index_cmp(&self, other: &ValRef<'_>) -> Ordering {
        // Type class, and within the numbers whether this is a NaN.
        fn class(v: &ValRef<'_>) -> (u8, bool) {
            match v {
                ValRef::Null => (0, false),
                ValRef::Bool(_) => (1, false),
                ValRef::Int(_) => (2, false),
                ValRef::Float(x) => (2, x.is_nan()),
                ValRef::Str(_) => (3, false),
                ValRef::Bytes(_) => (4, false),
            }
        }
        self.sql_cmp(other)
            .unwrap_or_else(|| class(self).cmp(&class(other)))
    }

    /// Hash key (`None` for NULL), matching [`KeyValue::of`].
    pub fn key(&self) -> Option<KeyValue<'a>> {
        match self {
            ValRef::Null => None,
            ValRef::Int(i) => Some(KeyValue::num(*i as f64)),
            ValRef::Float(x) => Some(KeyValue::num(*x)),
            ValRef::Bool(b) => Some(KeyValue::Bool(*b)),
            ValRef::Str(s) => Some(KeyValue::Text(s)),
            ValRef::Bytes(b) => Some(KeyValue::Bytes(b)),
        }
    }
}

/// A compiled predicate that **cannot error** on any row of the relation it
/// was compiled against — the precondition for running it as a selection
/// refinement without the deferred-error machinery.
///
/// `compile_kernel` returns `None` for any shape that could raise (`truth`
/// over text, arithmetic, functions, LIKE over a non-string column, …);
/// those run through the generic scratch-row path instead.
pub(crate) enum BoolKernel {
    /// Constant truth value (pre-folded literals).
    Const(Option<bool>),
    /// `column op literal`.
    Cmp {
        col: usize,
        op: BinaryOp,
        lit: Value,
    },
    /// `column op column`.
    CmpCols {
        left: usize,
        op: BinaryOp,
        right: usize,
    },
    /// `column IS [NOT] NULL`.
    IsNull { col: usize, negated: bool },
    /// `column [NOT] IN (literal, ...)`.
    InList {
        col: usize,
        items: Vec<Value>,
        has_null: bool,
        negated: bool,
    },
    /// `column [NOT] BETWEEN literal AND literal`.
    Between {
        col: usize,
        lo: Value,
        hi: Value,
        negated: bool,
    },
    /// `column [NOT] LIKE pattern` — only over a string chunk, where the
    /// type error of LIKE-on-non-text cannot occur.
    Like {
        col: usize,
        pattern: Vec<char>,
        negated: bool,
    },
    /// A bare column as predicate — only over INT / BOOL chunks, where
    /// `truth()` cannot error.
    Truth { col: usize },
    /// 3VL NOT.
    Not(Box<BoolKernel>),
    /// 3VL AND (both sides infallible, so eager evaluation is safe).
    And(Box<BoolKernel>, Box<BoolKernel>),
    /// 3VL OR.
    Or(Box<BoolKernel>, Box<BoolKernel>),
}

/// Try to lower `expr` to an infallible kernel over `cols`.
pub(crate) fn compile_kernel(expr: &CompiledExpr, cols: &[ColData<'_>]) -> Option<BoolKernel> {
    match expr {
        CompiledExpr::Literal(v) => truth(v).ok().map(BoolKernel::Const),
        CompiledExpr::Column(pos) => match cols.get(*pos)?.chunk() {
            Some(ColumnChunk::Int { .. }) | Some(ColumnChunk::Bool { .. }) => {
                Some(BoolKernel::Truth { col: *pos })
            }
            _ => None,
        },
        CompiledExpr::CmpColumnLiteral { pos, op, literal } => Some(BoolKernel::Cmp {
            col: *pos,
            op: *op,
            lit: literal.clone(),
        }),
        CompiledExpr::CmpColumnColumn { left, op, right } => Some(BoolKernel::CmpCols {
            left: *left,
            op: *op,
            right: *right,
        }),
        CompiledExpr::IsNull { expr, negated } => match expr.as_ref() {
            CompiledExpr::Column(pos) => Some(BoolKernel::IsNull {
                col: *pos,
                negated: *negated,
            }),
            _ => None,
        },
        CompiledExpr::InList {
            expr,
            list,
            negated,
        } => {
            let CompiledExpr::Column(pos) = expr.as_ref() else {
                return None;
            };
            let mut items = Vec::with_capacity(list.len());
            for item in list {
                match item {
                    CompiledExpr::Literal(v) => items.push(v.clone()),
                    _ => return None,
                }
            }
            let has_null = items.iter().any(Value::is_null);
            Some(BoolKernel::InList {
                col: *pos,
                items,
                has_null,
                negated: *negated,
            })
        }
        CompiledExpr::Between {
            expr,
            lo,
            hi,
            negated,
        } => match (expr.as_ref(), lo.as_ref(), hi.as_ref()) {
            (CompiledExpr::Column(pos), CompiledExpr::Literal(lo), CompiledExpr::Literal(hi)) => {
                Some(BoolKernel::Between {
                    col: *pos,
                    lo: lo.clone(),
                    hi: hi.clone(),
                    negated: *negated,
                })
            }
            _ => None,
        },
        CompiledExpr::Like {
            expr,
            pattern,
            negated,
        } => match expr.as_ref() {
            CompiledExpr::Column(pos)
                if matches!(cols.get(*pos)?.chunk(), Some(ColumnChunk::Str { .. })) =>
            {
                Some(BoolKernel::Like {
                    col: *pos,
                    pattern: pattern.clone(),
                    negated: *negated,
                })
            }
            _ => None,
        },
        CompiledExpr::Unary {
            op: crate::ast::UnaryOp::Not,
            expr,
        } => compile_kernel(expr, cols).map(|k| BoolKernel::Not(Box::new(k))),
        CompiledExpr::Binary { left, op, right } if matches!(op, BinaryOp::And | BinaryOp::Or) => {
            let l = compile_kernel(left, cols)?;
            let r = compile_kernel(right, cols)?;
            Some(match op {
                BinaryOp::And => BoolKernel::And(Box::new(l), Box::new(r)),
                _ => BoolKernel::Or(Box::new(l), Box::new(r)),
            })
        }
        _ => None,
    }
}

impl BoolKernel {
    /// Three-valued truth of the predicate at physical position `pos`.
    fn eval_at(&self, cols: &[ColData<'_>], pos: usize) -> Option<bool> {
        match self {
            BoolKernel::Const(t) => *t,
            BoolKernel::Cmp { col, op, lit } => cols[*col]
                .val_ref(pos)
                .sql_cmp(&ValRef::of(lit))
                .map(|ord| cmp_matches(*op, ord)),
            BoolKernel::CmpCols { left, op, right } => cols[*left]
                .val_ref(pos)
                .sql_cmp(&cols[*right].val_ref(pos))
                .map(|ord| cmp_matches(*op, ord)),
            BoolKernel::IsNull { col, negated } => {
                Some(cols[*col].val_ref(pos).is_null() != *negated)
            }
            BoolKernel::InList {
                col,
                items,
                has_null,
                negated,
            } => {
                let v = cols[*col].val_ref(pos);
                if v.is_null() {
                    return None;
                }
                for item in items {
                    if !item.is_null() && v.sql_eq(&ValRef::of(item)) {
                        return Some(!negated);
                    }
                }
                if *has_null {
                    None
                } else {
                    Some(*negated)
                }
            }
            BoolKernel::Between {
                col,
                lo,
                hi,
                negated,
            } => {
                let v = cols[*col].val_ref(pos);
                match (v.sql_cmp(&ValRef::of(lo)), v.sql_cmp(&ValRef::of(hi))) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        Some(inside != *negated)
                    }
                    _ => None,
                }
            }
            BoolKernel::Like {
                col,
                pattern,
                negated,
            } => match cols[*col].val_ref(pos) {
                ValRef::Null => None,
                ValRef::Str(s) => Some(like_match_chars(pattern, s) != *negated),
                _ => unreachable!("LIKE kernel compiled over a non-string column"),
            },
            BoolKernel::Truth { col } => match cols[*col].val_ref(pos) {
                ValRef::Null => None,
                ValRef::Bool(b) => Some(b),
                ValRef::Int(i) => Some(i != 0),
                _ => unreachable!("truth kernel compiled over a non-boolean column"),
            },
            BoolKernel::Not(k) => k.eval_at(cols, pos).map(|b| !b),
            BoolKernel::And(a, b) => match (a.eval_at(cols, pos), b.eval_at(cols, pos)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BoolKernel::Or(a, b) => match (a.eval_at(cols, pos), b.eval_at(cols, pos)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        }
    }
}

/// Compact `sel` in place, keeping positions where `keep` holds.
#[inline]
fn retain_sel(sel: &mut Vec<u32>, mut keep: impl FnMut(usize) -> bool) {
    let mut out = 0usize;
    for i in 0..sel.len() {
        let p = sel[i];
        if keep(p as usize) {
            sel[out] = p;
            out += 1;
        }
    }
    sel.truncate(out);
}

/// [`retain_sel`] over a typed chunk: NULL slots are dropped, and the null
/// bitmap is not read at all when the chunk holds no NULL.
#[inline]
fn retain_non_null(sel: &mut Vec<u32>, nulls: &Bitmap, keep: impl Fn(usize) -> bool) {
    if nulls.any() {
        retain_sel(sel, |p| !nulls.get(p) && keep(p));
    } else {
        retain_sel(sel, keep);
    }
}

#[inline]
fn int_matches(op: BinaryOp, a: i64, b: i64) -> bool {
    cmp_matches(op, a.cmp(&b))
}

#[inline]
fn float_matches(op: BinaryOp, a: f64, b: f64) -> bool {
    a.partial_cmp(&b).is_some_and(|ord| cmp_matches(op, ord))
}

/// Refine `sel` by an infallible kernel, with tight typed loops for the
/// dominant `column op literal` shapes (the compiler vectorizes the dense
/// slice comparisons; the selection compaction stays branch-light).
pub(crate) fn refine(kernel: &BoolKernel, cols: &[ColData<'_>], sel: &mut Vec<u32>) {
    if let BoolKernel::Cmp { col, op, lit } = kernel {
        if let Some(chunk) = cols[*col].chunk() {
            let op = *op;
            match (chunk, lit) {
                (ColumnChunk::Int { data, nulls }, Value::Int(b)) => {
                    let b = *b;
                    retain_non_null(sel, nulls, |p| int_matches(op, data[p], b));
                    return;
                }
                (ColumnChunk::Int { data, nulls }, Value::Float(b)) => {
                    let b = *b;
                    retain_non_null(sel, nulls, |p| float_matches(op, data[p] as f64, b));
                    return;
                }
                (ColumnChunk::Float { data, nulls }, lit) => {
                    let b = match lit {
                        Value::Float(b) => *b,
                        Value::Int(b) => *b as f64,
                        _ => {
                            // FLOAT vs non-numeric literal: always non-true.
                            sel.clear();
                            return;
                        }
                    };
                    retain_non_null(sel, nulls, |p| float_matches(op, data[p], b));
                    return;
                }
                (ColumnChunk::Str { codes, dict, nulls }, Value::Text(t)) => {
                    // One comparison per *distinct* string, then a code-table
                    // lookup per row — dictionary encoding pays off here.
                    let verdicts: Vec<bool> = (0..dict.len() as u32)
                        .map(|c| cmp_matches(op, dict.get(c).cmp(t.as_str())))
                        .collect();
                    retain_non_null(sel, nulls, |p| verdicts[codes[p] as usize]);
                    return;
                }
                (ColumnChunk::Bool { data, nulls }, Value::Bool(b)) => {
                    let b = *b;
                    retain_non_null(sel, nulls, |p| cmp_matches(op, data[p].cmp(&b)));
                    return;
                }
                _ => {}
            }
        }
    }
    if let BoolKernel::InList {
        col,
        items,
        has_null,
        negated,
    } = kernel
    {
        // A row is kept when the list's verdict is strictly true: a hit
        // for `IN`; for `NOT IN` a miss against a list without a NULL item
        // (with one, a miss is unknown and nothing is ever kept).
        if *negated && *has_null {
            sel.clear();
            return;
        }
        let miss = *negated;
        match cols[*col].chunk() {
            Some(ColumnChunk::Int { data, nulls })
                if items
                    .iter()
                    .all(|v| matches!(v, Value::Int(_) | Value::Null)) =>
            {
                // Sorted distinct keys, probed by binary search — the form
                // a shipped reduction already has.
                let mut keys: Vec<i64> = items
                    .iter()
                    .filter_map(|v| match v {
                        Value::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                retain_non_null(sel, nulls, |p| {
                    keys.binary_search(&data[p]).is_err() == miss
                });
                return;
            }
            Some(ColumnChunk::Str { codes, dict, nulls })
                if items
                    .iter()
                    .all(|v| matches!(v, Value::Text(_) | Value::Null)) =>
            {
                // One verdict per dictionary code; an item the dictionary
                // has never seen matches no row.
                let mut verdicts = vec![miss; dict.len()];
                for item in items {
                    if let Value::Text(t) = item {
                        if let Some(code) = dict.code_of(t) {
                            verdicts[code as usize] = !miss;
                        }
                    }
                }
                retain_non_null(sel, nulls, |p| verdicts[codes[p] as usize]);
                return;
            }
            _ => {}
        }
    }
    retain_sel(sel, |p| kernel.eval_at(cols, p) == Some(true));
}

/// Keep rows where the kernel is *not strictly false* — the rows on which a
/// row-major `AND` would go on to evaluate the (fallible) right conjunct.
fn refine_not_false(kernel: &BoolKernel, cols: &[ColData<'_>], sel: &mut Vec<u32>) {
    retain_sel(sel, |p| kernel.eval_at(cols, p) != Some(false));
}

/// Generic fallback for fallible predicates: gather the referenced columns
/// into a scratch row and run the compiled evaluator, deferring errors.
pub(crate) fn refine_generic(
    expr: &CompiledExpr,
    cols: &[ColData<'_>],
    arity: usize,
    sel: &mut Vec<u32>,
    errors: &mut Vec<(u32, SqlError)>,
) {
    let mut needed = Vec::new();
    expr.collect_positions(&mut needed);
    needed.sort_unstable();
    needed.dedup();
    needed.retain(|&p| p < arity);
    let mut scratch = vec![Value::Null; arity];
    let mut out = 0usize;
    for i in 0..sel.len() {
        let s = sel[i];
        for &c in &needed {
            scratch[c] = cols[c].value_at(s as usize);
        }
        match expr.eval_predicate(&scratch) {
            Ok(true) => {
                sel[out] = s;
                out += 1;
            }
            Ok(false) => {}
            Err(e) => errors.push((s, e)),
        }
    }
    sel.truncate(out);
}

/// Apply one compiled filter to the selection, choosing between the
/// infallible kernel path, an `AND` split, and the generic fallback.
///
/// Charges one batch window count for the pass.
pub(crate) fn apply_filter(
    expr: &CompiledExpr,
    cols: &[ColData<'_>],
    arity: usize,
    sel: &mut Vec<u32>,
    errors: &mut Vec<(u32, SqlError)>,
    batches: &mut u64,
) {
    *batches += n_batches(sel.len());
    apply_filter_inner(expr, cols, arity, sel, errors);
}

fn apply_filter_inner(
    expr: &CompiledExpr,
    cols: &[ColData<'_>],
    arity: usize,
    sel: &mut Vec<u32>,
    errors: &mut Vec<(u32, SqlError)>,
) {
    if let Some(kernel) = compile_kernel(expr, cols) {
        refine(&kernel, cols, sel);
        return;
    }
    if let CompiledExpr::Binary { left, op, right } = expr {
        if *op == BinaryOp::And {
            if let Some(rk) = compile_kernel(right, cols) {
                // Right conjunct is infallible: rows dropped by the left
                // side (non-true or deferred error) never see it, rows kept
                // get refined — identical to the row-major 3VL AND.
                apply_filter_inner(left, cols, arity, sel, errors);
                refine(&rk, cols, sel);
                return;
            }
            if let Some(lk) = compile_kernel(left, cols) {
                // Left conjunct is infallible but the right is not. The
                // row-major AND short-circuits *only* on a strictly-false
                // left (a NULL left still evaluates the right, which may
                // error), so pre-drop the strictly-false rows and run the
                // full conjunction on the survivors.
                refine_not_false(&lk, cols, sel);
                refine_generic(expr, cols, arity, sel, errors);
                return;
            }
        }
    }
    refine_generic(expr, cols, arity, sel, errors);
}

/// Resolve deferred per-row errors: report the error at the minimum row
/// position — the one the row-at-a-time interpreter would have raised —
/// or `Ok` if every row evaluated cleanly.
pub(crate) fn take_first_error(errors: Vec<(u32, SqlError)>) -> Result<()> {
    match errors.into_iter().min_by_key(|(p, _)| *p) {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_storage::DataType;

    fn int_col(vals: &[Option<i64>]) -> ColData<'static> {
        let mut c = ColumnChunk::for_type(DataType::Int);
        for v in vals {
            c.push(&v.map_or(Value::Null, Value::Int));
        }
        ColData::Owned(c)
    }

    fn str_col(vals: &[Option<&str>]) -> ColData<'static> {
        let mut c = ColumnChunk::for_type(DataType::Text);
        for v in vals {
            c.push(&v.map_or(Value::Null, |s| Value::Text(s.into())));
        }
        ColData::Owned(c)
    }

    #[test]
    fn val_ref_index_cmp_is_value_index_cmp() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Text("".into()),
            Value::Text("b".into()),
            Value::Text("barrel".into()),
            Value::Bytes(vec![]),
            Value::Bytes(vec![1, 2]),
        ];
        for a in &values {
            for b in &values {
                assert_eq!(
                    ValRef::of(a).index_cmp(&ValRef::of(b)),
                    a.index_cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn typed_int_filter_refines_selection() {
        let cols = vec![int_col(&[Some(1), Some(5), None, Some(9), Some(3)])];
        let expr = CompiledExpr::CmpColumnLiteral {
            pos: 0,
            op: BinaryOp::Gt,
            literal: Value::Int(2),
        };
        let mut sel: Vec<u32> = (0..5).collect();
        let mut errors = Vec::new();
        let mut batches = 0;
        apply_filter(&expr, &cols, 1, &mut sel, &mut errors, &mut batches);
        assert_eq!(sel, vec![1, 3, 4]);
        assert!(errors.is_empty());
        assert_eq!(batches, 1);
    }

    #[test]
    fn dictionary_filter_precomputes_verdicts() {
        let cols = vec![str_col(&[
            Some("barrel"),
            Some("endcap"),
            None,
            Some("barrel"),
        ])];
        let expr = CompiledExpr::CmpColumnLiteral {
            pos: 0,
            op: BinaryOp::Eq,
            literal: Value::Text("barrel".into()),
        };
        let mut sel: Vec<u32> = (0..4).collect();
        let (mut errors, mut batches) = (Vec::new(), 0);
        apply_filter(&expr, &cols, 1, &mut sel, &mut errors, &mut batches);
        assert_eq!(sel, vec![0, 3]);
    }

    fn in_list(col: usize, items: Vec<Value>, negated: bool) -> CompiledExpr {
        CompiledExpr::InList {
            expr: Box::new(CompiledExpr::Column(col)),
            list: items.into_iter().map(CompiledExpr::Literal).collect(),
            negated,
        }
    }

    /// The typed kernels and the per-row evaluator agree on what survives.
    fn refined(expr: &CompiledExpr, cols: &[ColData<'_>], rows: u32) -> Vec<u32> {
        let kernel = compile_kernel(expr, cols).expect("an IN-list of literals is infallible");
        let per_row: Vec<u32> = (0..rows)
            .filter(|&p| kernel.eval_at(cols, p as usize) == Some(true))
            .collect();
        let mut sel: Vec<u32> = (0..rows).collect();
        refine(&kernel, cols, &mut sel);
        assert_eq!(sel, per_row);
        sel
    }

    #[test]
    fn typed_in_list_kernels_keep_three_valued_results() {
        let cols = vec![
            int_col(&[Some(7), Some(3), None, Some(9), Some(3), Some(-1)]),
            str_col(&[
                Some("ecal"),
                None,
                Some("hcal"),
                Some("muon"),
                Some("ecal"),
                None,
            ]),
        ];
        let ints = |v: &[i64]| v.iter().copied().map(Value::Int).collect::<Vec<_>>();
        let texts = |v: &[&str]| {
            v.iter()
                .map(|s| Value::Text((*s).into()))
                .collect::<Vec<_>>()
        };
        // Unsorted keys with a duplicate: sorted and de-duplicated inside.
        assert_eq!(
            refined(&in_list(0, ints(&[9, 3, 3, 40]), false), &cols, 6),
            [1, 3, 4]
        );
        assert_eq!(refined(&in_list(0, ints(&[9, 3]), true), &cols, 6), [0, 5]);
        // A NULL item: a hit is still true, a miss is unknown.
        let mut with_null = ints(&[7]);
        with_null.push(Value::Null);
        assert_eq!(
            refined(&in_list(0, with_null.clone(), false), &cols, 6),
            [0]
        );
        assert!(refined(&in_list(0, with_null, true), &cols, 6).is_empty());
        assert!(refined(&in_list(0, vec![Value::Null], false), &cols, 6).is_empty());
        // A FLOAT item keeps the list on the per-row path, same answer.
        let mut mixed = ints(&[3]);
        mixed.push(Value::Float(9.0));
        assert_eq!(refined(&in_list(0, mixed, false), &cols, 6), [1, 3, 4]);
        // Dictionary column: one verdict per code, an unseen string is inert.
        assert_eq!(
            refined(&in_list(1, texts(&["ecal", "absent"]), false), &cols, 6),
            [0, 4]
        );
        assert_eq!(
            refined(&in_list(1, texts(&["ecal", "absent"]), true), &cols, 6),
            [2, 3]
        );
        // A list of another class matches nothing and excludes nothing.
        assert!(refined(&in_list(1, ints(&[1]), false), &cols, 6).is_empty());
        assert_eq!(
            refined(&in_list(1, ints(&[1]), true), &cols, 6),
            [0, 2, 3, 4]
        );
    }

    #[test]
    fn generic_fallback_defers_minimum_position_error() {
        // `col + 1 > 2` over a string column errors on every non-null row;
        // the reported error must be the first row's.
        let cols = vec![str_col(&[Some("a"), Some("b")])];
        let expr = CompiledExpr::Binary {
            left: Box::new(CompiledExpr::Binary {
                left: Box::new(CompiledExpr::Column(0)),
                op: BinaryOp::Add,
                right: Box::new(CompiledExpr::Literal(Value::Int(1))),
            }),
            op: BinaryOp::Gt,
            right: Box::new(CompiledExpr::Literal(Value::Int(2))),
        };
        let mut sel: Vec<u32> = vec![0, 1];
        let (mut errors, mut batches) = (Vec::new(), 0);
        apply_filter(&expr, &cols, 1, &mut sel, &mut errors, &mut batches);
        assert!(sel.is_empty());
        assert_eq!(errors.len(), 2);
        assert!(take_first_error(errors).is_err());
    }

    #[test]
    fn and_split_keeps_null_left_rows_for_fallible_right() {
        // NULL AND <fallible> must still evaluate the right side (row-major
        // AND only short-circuits on strictly-false), so the NULL-left row
        // survives the pre-drop and reaches the generic evaluator.
        let cols = vec![
            int_col(&[None, Some(0), Some(1)]),
            str_col(&[None, None, None]),
        ];
        // left: col0 > 0 (infallible); right: col1 LIKE 'x' over an
        // all-NULL string column (fallible in general, NULL rows yield NULL).
        let expr = CompiledExpr::Binary {
            left: Box::new(CompiledExpr::CmpColumnLiteral {
                pos: 0,
                op: BinaryOp::Gt,
                literal: Value::Int(0),
            }),
            op: BinaryOp::And,
            right: Box::new(CompiledExpr::Binary {
                left: Box::new(CompiledExpr::Column(1)),
                op: BinaryOp::Add,
                right: Box::new(CompiledExpr::Literal(Value::Int(1))),
            }),
        };
        let mut sel: Vec<u32> = vec![0, 1, 2];
        let (mut errors, mut batches) = (Vec::new(), 0);
        apply_filter(&expr, &cols, 2, &mut sel, &mut errors, &mut batches);
        // col0 > 0: row0 NULL (kept for right side), row1 false (dropped),
        // row2 true. Right side is NULL+1 = NULL everywhere → AND is never
        // true, nothing errors.
        assert!(sel.is_empty());
        assert!(errors.is_empty());
    }
}
