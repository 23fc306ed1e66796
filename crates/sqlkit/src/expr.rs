//! The semantics compiled expressions evaluate with: name resolution
//! ([`Bindings`]), three-valued truth, comparison, arithmetic, the scalar
//! functions and LIKE, and the aggregate accumulator ([`AggState`]).

use crate::ast::{AggFunc, BinaryOp, ColumnRef, ScalarFunc, UnaryOp};
use crate::error::SqlError;
use crate::Result;
use gridfed_storage::{Bitmap, ColumnChunk, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Column bindings for a row layout: for each position, the binding
/// qualifier (table name or alias, lower-cased) and the column name.
///
/// Join outputs concatenate the bindings of their inputs, so the same column
/// name may appear under several qualifiers; unqualified references are then
/// ambiguous, exactly as in SQL. The names are shared: a clone, and the
/// concatenation of two layouts, copies no string.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings {
    cols: Arc<[Bound]>,
}

/// One position's qualifier and column name.
type Bound = (Option<Arc<str>>, Arc<str>);

impl Bindings {
    /// Bindings for a single table: every column under one qualifier.
    pub fn for_table(qualifier: &str, column_names: &[String]) -> Self {
        Bindings::of_names(qualifier, column_names.iter().map(String::as_str))
    }

    /// [`Bindings::for_table`] over names borrowed from anywhere.
    pub(crate) fn of_names<'a>(qualifier: &str, names: impl Iterator<Item = &'a str>) -> Self {
        let qualifier: Arc<str> = qualifier.to_ascii_lowercase().into();
        let bound = |name: &str| (Some(Arc::clone(&qualifier)), name.into());
        Bindings {
            cols: names.map(bound).collect(),
        }
    }

    /// Concatenate bindings (join output layout).
    pub fn concat(&self, other: &Bindings) -> Bindings {
        Bindings {
            cols: self.cols.iter().chain(other.cols.iter()).cloned().collect(),
        }
    }

    /// The bindings of the positions `at`, in that order (a projection).
    pub(crate) fn select(&self, at: &[usize]) -> Bindings {
        Bindings {
            cols: at.iter().map(|&p| self.cols[p].clone()).collect(),
        }
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

    /// The column names, in position order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> {
        self.cols.iter().map(|(_, n)| &**n)
    }

    /// Column name at a position.
    pub fn name_at(&self, pos: usize) -> Option<&str> {
        self.cols.get(pos).map(|(_, n)| &**n)
    }

    /// The position `cref` names: `Ok(None)` when none does, `Err(())` when
    /// several do. Allocation-free: both the column name and the
    /// (pre-lowercased) qualifier compare case-insensitively in place.
    pub(crate) fn position(&self, cref: &ColumnRef) -> std::result::Result<Option<usize>, ()> {
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
            (Some((pos, _)), None) => Ok(Some(pos)),
            (Some(_), Some(_)) => Err(()),
            (None, _) => Ok(None),
        }
    }

    /// Resolve a column reference to a position.
    pub fn resolve(&self, cref: &ColumnRef) -> Result<usize> {
        match self.position(cref) {
            Ok(Some(pos)) => Ok(pos),
            Err(()) => Err(SqlError::AmbiguousColumn(cref.display())),
            Ok(None) => Err(SqlError::UnknownColumn(cref.display())),
        }
    }
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

pub(crate) fn cmp_matches(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        // Not a comparison: nothing matches.
        _ => false,
    }
}

// Each operator's value rule, written once for the row evaluator
// (`CompiledExpr`), the group evaluator (`GroupExpr`) and the filter kernel
// (`BoolKernel`): they differ only in how they reach their operands.

/// NOT or unary minus over an evaluated operand.
#[inline]
pub(crate) fn unary(op: UnaryOp, v: Value) -> Result<Value> {
    match (op, v) {
        (UnaryOp::Not, v) => Ok(truth(&v)?.map_or(Value::Null, |b| Value::Bool(!b))),
        (UnaryOp::Neg, Value::Null) => Ok(Value::Null),
        (UnaryOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnaryOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
        (UnaryOp::Neg, other) => Err(SqlError::Eval(format!("cannot negate {}", other.render()))),
    }
}

/// A comparison or arithmetic operator over evaluated operands.
#[inline]
pub(crate) fn binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if op.is_comparison() {
        return Ok(l
            .sql_cmp(r)
            .map_or(Value::Null, |ord| Value::Bool(cmp_matches(op, ord))));
    }
    eval_arithmetic(op, l, r)
}

/// Three-valued AND or OR of two truths.
#[inline]
pub(crate) fn logical(op: BinaryOp, l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (op, l, r) {
        (BinaryOp::And, Some(false), _) | (BinaryOp::And, _, Some(false)) => Some(false),
        (BinaryOp::And, Some(true), Some(true)) => Some(true),
        (BinaryOp::Or, Some(true), _) | (BinaryOp::Or, _, Some(true)) => Some(true),
        (BinaryOp::Or, Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// `[NOT] BETWEEN`'s truth, from the operand's order against the bounds.
#[inline]
pub(crate) fn between(lo: Option<Ordering>, hi: Option<Ordering>, negated: bool) -> Option<bool> {
    match (lo, hi) {
        (Some(a), Some(b)) => Some((a != Ordering::Less && b != Ordering::Greater) != negated),
        _ => None,
    }
}

/// `v [NOT] IN (items)`, drawing the items only until one is `=` to `v`:
/// unknown when `v` is NULL, or when no item matched and one was NULL.
#[inline]
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
    if let (Value::Int(a), Value::Int(b), false) = (l, r, op == BinaryOp::Div) {
        let (a, b) = (*a, *b);
        return match op {
            BinaryOp::Add => Ok(Value::Int(a.wrapping_add(b))),
            BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
            BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
            BinaryOp::Mod => {
                if b == 0 {
                    Err(SqlError::Eval("modulo by zero".into()))
                } else {
                    // `i64::MIN % -1` is 0, not an overflow.
                    Ok(Value::Int(a.wrapping_rem(b)))
                }
            }
            _ => Err(SqlError::Eval(format!("{op:?} is not arithmetic"))),
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
        _ => Err(SqlError::Eval(format!("{op:?} is not arithmetic"))),
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

/// A column a pass ([`AggState::over`]) reads: INT or FLOAT data and its
/// null bitmap.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PassColumn<'a> {
    Int(&'a [i64], &'a Bitmap),
    Float(&'a [f64], &'a Bitmap),
}

impl<'a> PassColumn<'a> {
    /// `chunk` as a pass column, when it is INT or FLOAT.
    pub(crate) fn of(chunk: &'a ColumnChunk) -> Option<Self> {
        match chunk {
            ColumnChunk::Int { data, nulls } => Some(PassColumn::Int(data, nulls)),
            ColumnChunk::Float { data, nulls } => Some(PassColumn::Float(data, nulls)),
            _ => None,
        }
    }
}

/// The parts of a column pass ([`AggState::over`]) its aggregates read:
/// the count always, the sum, the minimum, the maximum.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PassNeeds {
    sum: bool,
    min: bool,
    max: bool,
}

impl PassNeeds {
    /// These needs and those of `func`.
    pub(crate) fn with(self, func: AggFunc) -> PassNeeds {
        PassNeeds {
            sum: self.sum || matches!(func, AggFunc::Sum | AggFunc::Avg),
            min: self.min || func == AggFunc::Min,
            max: self.max || func == AggFunc::Max,
        }
    }
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

    /// One pass over `column` at `positions`, NULLs skipped, gathering
    /// what `needs` asks for: the state every non-DISTINCT aggregate of the
    /// column it was asked for finishes from ([`AggState::finish_as`]).
    /// Each part is what one `update` per value gives — same arithmetic,
    /// same order, so a FLOAT sum is bit-identical — without building a
    /// [`Value`] for each. `MIN`/`MAX` keep `update`'s rule that a value
    /// replaces the extreme only when it compares strictly beyond it, so a
    /// leading NaN stays.
    pub(crate) fn over(needs: PassNeeds, column: PassColumn<'_>, positions: &[u32]) -> AggState {
        match column {
            PassColumn::Int(data, nulls) => {
                Self::over_column(needs, data, nulls, positions, Self::add_int, Value::Int)
            }
            PassColumn::Float(data, nulls) => {
                Self::over_column(needs, data, nulls, positions, Self::add_float, Value::Float)
            }
        }
    }

    fn over_column<T: Copy + PartialOrd>(
        needs: PassNeeds,
        data: &[T],
        nulls: &Bitmap,
        positions: &[u32],
        add: impl Fn(&mut AggState, T),
        wrap: impl Fn(T) -> Value,
    ) -> AggState {
        let mut state = AggState::new(AggFunc::Count, false);
        let (mut min, mut max): (Option<T>, Option<T>) = (None, None);
        // A bitmap with no bit set is not read.
        let any_null = nulls.any();
        for &p in positions {
            let p = p as usize;
            if any_null && nulls.get(p) {
                continue;
            }
            let v = data[p];
            state.count += 1;
            if needs.sum {
                add(&mut state, v);
            }
            if needs.min && min.is_none_or(|b| v < b) {
                min = Some(v);
            }
            if needs.max && max.is_none_or(|b| v > b) {
                max = Some(v);
            }
        }
        state.min = min.map(&wrap);
        state.max = max.map(wrap);
        state
    }

    /// Final aggregate value. An all-INT `SUM` is exact, or an error when
    /// it does not fit an INT.
    pub fn finish(&self) -> Result<Value> {
        self.finish_as(self.func)
    }

    /// [`AggState::finish`] as `func`: the value of `func` over the inputs
    /// this state was fed, for a column pass that serves several functions.
    pub(crate) fn finish_as(&self, func: AggFunc) -> Result<Value> {
        Ok(match func {
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
    use crate::ast::Expr;
    use crate::compile::compile;
    use crate::parser::parse_select;

    fn b() -> Bindings {
        Bindings::for_table("t", &["a".into(), "b".into(), "c".into()])
    }

    fn where_of(sql: &str) -> Expr {
        parse_select(sql).unwrap().where_clause.unwrap()
    }

    /// `WHERE sql_where` over `row`, compiled and evaluated as queries run.
    fn try_ev(sql_where: &str, row: &[Value]) -> Result<Value> {
        let e = where_of(&format!("SELECT * FROM t WHERE {sql_where}"));
        compile(&e, &b())?.eval(row)
    }

    fn ev(sql_where: &str, row: &[Value]) -> Value {
        try_ev(sql_where, row).unwrap()
    }

    fn like(pattern: &str, s: &str) -> bool {
        like_match_chars(&pattern.chars().collect::<Vec<_>>(), s)
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
        assert!(!compile(&e, &b()).unwrap().eval_predicate(&row).unwrap());
    }

    #[test]
    fn arithmetic_int_float_and_division() {
        let row = vec![Value::Int(7), Value::Float(2.0), Value::Null];
        assert_eq!(ev("a + 1 = 8", &row), Value::Bool(true));
        assert_eq!(ev("a / 2 = 3.5", &row), Value::Bool(true)); // div is float
        assert_eq!(ev("a % 4 = 3", &row), Value::Bool(true));
        assert_eq!(ev("a * b = 14.0", &row), Value::Bool(true));
        assert!(try_ev("a / 0 = 1", &row).is_err());
    }

    /// INT `-` and `%` wrap like `+`, `-` and `*`: `-i64::MIN` and
    /// `i64::MIN % -1` are answers, not an overflow panic.
    #[test]
    fn int_negation_and_remainder_wrap() {
        let row = vec![Value::Int(i64::MIN), Value::Int(-1), Value::Null];
        assert_eq!(ev("-a", &row), Value::Int(i64::MIN));
        assert_eq!(ev("a % b", &row), Value::Int(0));
        assert_eq!(ev("a % b = 0", &row), Value::Bool(true));
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
        assert!(like("run%", "run42"));
        assert!(like("%cal", "ecal"));
        assert!(like("e_al", "ecal"));
        assert!(!like("e_al", "eccal"));
        assert!(like("%", ""));
        assert!(like("a%b%c", "aXXbYYc"));
        assert!(!like("abc", "ABC")); // case-sensitive
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
        let row = vec![Value::Int(3), Value::Null, Value::Null];
        assert!(try_ev("LENGTH(a) = 1", &row).is_err());
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

    /// The typed column passes are `update` per value, bit for bit, whether
    /// a pass serves one function or all five: NULLs,
    /// both zeros, a leading and a trailing NaN, float sums in position
    /// order, an INT sum past 2^53 — and the same columns with every NULL
    /// replaced by a number (the FLOAT one by `-0.0`, beside the leading
    /// NaN and `±1e300`), which take the loop that never reads the bitmap.
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
        let check = |ints: &[Option<i64>], floats: &[Option<f64>], with_nulls: bool| {
            let mut nulls = Bitmap::new();
            let int_data: Vec<i64> = ints.iter().map(|v| v.unwrap_or(0)).collect();
            ints.iter().for_each(|v| nulls.push(v.is_none()));
            let mut fnulls = Bitmap::new();
            let float_data: Vec<f64> = floats.iter().map(|v| v.unwrap_or(0.0)).collect();
            floats.iter().for_each(|v| fnulls.push(v.is_none()));
            assert_eq!((nulls.any(), fnulls.any()), (with_nulls, with_nulls));
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
            // A pass for the one function, and one for all five at once.
            let every = funcs.iter().fold(PassNeeds::default(), |n, &f| n.with(f));
            for (func, needs) in funcs
                .into_iter()
                .flat_map(|f| [(f, PassNeeds::default().with(f)), (f, every)])
            {
                for picks in int_picks {
                    let mut by_value = AggState::new(func, false);
                    for &p in picks {
                        let v = ints[p as usize].map_or(Value::Null, Value::Int);
                        by_value.update(Some(&v)).unwrap();
                    }
                    let typed = AggState::over(needs, PassColumn::Int(&int_data, &nulls), picks);
                    assert!(
                        same(typed.finish_as(func).unwrap(), by_value.finish().unwrap()),
                        "{func:?} over INT {picks:?}"
                    );
                }
                for picks in float_picks {
                    let mut by_value = AggState::new(func, false);
                    for &p in picks {
                        let v = floats[p as usize].map_or(Value::Null, Value::Float);
                        by_value.update(Some(&v)).unwrap();
                    }
                    let column = PassColumn::Float(&float_data, &fnulls);
                    let typed = AggState::over(needs, column, picks);
                    assert!(
                        same(typed.finish_as(func).unwrap(), by_value.finish().unwrap()),
                        "{func:?} over FLOAT {picks:?}"
                    );
                }
            }
        };
        let mut fill = [-1, 1 << 62].into_iter();
        let filled_ints: Vec<Option<i64>> =
            ints.iter().map(|v| v.or_else(|| fill.next())).collect();
        let filled_floats: Vec<Option<f64>> = floats.iter().map(|v| v.or(Some(-0.0))).collect();
        check(&ints, &floats, true);
        check(&filled_ints, &filled_floats, false);
        let mut star = AggState::new(AggFunc::Count, false);
        star.count_rows(5);
        assert_eq!(star.finish().unwrap(), Value::Int(5));
    }
}
