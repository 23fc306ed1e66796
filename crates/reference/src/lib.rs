#![warn(missing_docs)]
//! # gridfed-reference
//!
//! A naive, row-major interpreter over sqlkit's public [`LogicalPlan`]: the
//! answer the differential suites hold the engine to, values *and* errors.
//!
//! It is independent of the engine by construction. From sqlkit it takes
//! only the plan and expression trees, [`SqlError`], [`Bindings`] name
//! resolution and [`DatabaseProvider`]'s database; from storage, [`Value`]'s
//! comparisons and rendering and [`Row`]. Everything else it restates:
//! expression evaluation ([`eval`]), aggregates, group and DISTINCT
//! equality, nested-loop joins over its own evaluator, sort, LIMIT and
//! Strip. Whole rows are cloned out of storage and every operator runs row
//! by row, so the first error is the row-major one without any bookkeeping.
//! It is slow on purpose; it is not part of any shipped crate.
//!
//! Names resolve when a node starts, before it reads a row — an unknown
//! column fails a query over an empty table — and again on every row.

mod eval;

pub use eval::{eval, eval_predicate};

use eval::{between, binary, bind, in_list, logical, outside_aggregation, three_valued, unary};
use gridfed_sqlkit::ast::{AggFunc, BinaryOp, Expr, JoinKind, OrderItem, SelectItem};
use gridfed_sqlkit::exec::DatabaseProvider;
use gridfed_sqlkit::expr::Bindings;
use gridfed_sqlkit::render::render_expr_neutral;
use gridfed_sqlkit::{LogicalPlan, Result, ResultSet, SqlError};
use gridfed_storage::{Row, Value};

/// Run `plan` against the provider's database, row by row.
pub fn execute(plan: &LogicalPlan, provider: &DatabaseProvider<'_>) -> Result<ResultSet> {
    match plan {
        LogicalPlan::Project { input, items, keys } => {
            let rel = relation(input, provider)?;
            let mut columns = Vec::new();
            let mut outputs = Vec::new();
            for item in items {
                match item {
                    SelectItem::Wildcard => {
                        for pos in 0..rel.bindings.arity() {
                            columns.push(name_at(&rel.bindings, pos));
                            outputs.push(Output::Column(pos));
                        }
                    }
                    SelectItem::QualifiedWildcard(q) => {
                        let positions = rel.bindings.positions_of_qualifier(q);
                        if positions.is_empty() {
                            return Err(SqlError::UnknownTable(q.clone()));
                        }
                        for pos in positions {
                            columns.push(name_at(&rel.bindings, pos));
                            outputs.push(Output::Column(pos));
                        }
                    }
                    SelectItem::Expr { expr, .. } => {
                        bind(expr, &rel.bindings)?;
                        columns.push(item_name(item));
                        outputs.push(Output::Expr(expr));
                    }
                }
            }
            let keys = sort_keys(keys, &rel.bindings, &columns)?;
            let mut rows = Vec::with_capacity(rel.rows.len());
            for row in &rel.rows {
                let mut values = Vec::with_capacity(outputs.len() + keys.len());
                for out in &outputs {
                    values.push(match out {
                        Output::Column(pos) => row[*pos].clone(),
                        Output::Expr(e) => eval(e, row, &rel.bindings)?,
                    });
                }
                for key in &keys {
                    let v = key.value(&values, row, &rel.bindings)?;
                    values.push(v);
                }
                rows.push(Row::new(values));
            }
            Ok(ResultSet { columns, rows })
        }
        LogicalPlan::Aggregate {
            input,
            items,
            group_by,
            having,
            keys,
        } => aggregate(
            relation(input, provider)?,
            items,
            group_by,
            having.as_ref(),
            keys,
        ),
        LogicalPlan::Sort { input, ascending } => {
            let mut rs = execute(input, provider)?;
            // A stable sort: rows that tie on every key keep their order.
            rs.rows.sort_by(|a, b| {
                let (a, b) = (a.values(), b.values());
                let (wa, wb) = (a.len() - ascending.len(), b.len() - ascending.len());
                ascending
                    .iter()
                    .enumerate()
                    .map(|(k, asc)| {
                        let ord = a[wa + k].index_cmp(&b[wb + k]);
                        if *asc {
                            ord
                        } else {
                            ord.reverse()
                        }
                    })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            Ok(rs)
        }
        LogicalPlan::Strip { input, drop } => {
            let mut rs = execute(input, provider)?;
            rs.rows = rs
                .rows
                .into_iter()
                .map(|row| {
                    let mut values = row.into_values();
                    values.truncate(values.len() - drop);
                    Row::new(values)
                })
                .collect();
            Ok(rs)
        }
        LogicalPlan::Distinct { input } => {
            let mut rs = execute(input, provider)?;
            let mut kept: Vec<Row> = Vec::new();
            for row in rs.rows {
                if !kept.iter().any(|k| same_key(k.values(), row.values())) {
                    kept.push(row);
                }
            }
            rs.rows = kept;
            Ok(rs)
        }
        LogicalPlan::Limit { input, limit } => {
            let mut rs = execute(input, provider)?;
            rs.rows
                .truncate(usize::try_from(*limit).unwrap_or(usize::MAX));
            Ok(rs)
        }
        LogicalPlan::Scan { .. } | LogicalPlan::Filter { .. } | LogicalPlan::Join { .. } => {
            let rel = relation(plan, provider)?;
            let columns = (0..rel.bindings.arity())
                .map(|pos| name_at(&rel.bindings, pos))
                .collect();
            let rows = rel.rows.into_iter().map(Row::new).collect();
            Ok(ResultSet { columns, rows })
        }
    }
}

/// Rows under the names their positions are bound to.
struct Relation {
    bindings: Bindings,
    rows: Vec<Vec<Value>>,
}

fn relation(plan: &LogicalPlan, provider: &DatabaseProvider<'_>) -> Result<Relation> {
    match plan {
        LogicalPlan::Scan {
            table,
            binding,
            projection,
            filters,
        } => {
            let stored = provider
                .0
                .table(table)
                .map_err(|_| SqlError::UnknownTable(table.clone()))?;
            let names = stored.schema().names();
            let bindings = Bindings::for_table(binding, &names);
            for f in filters {
                bind(f, &bindings)?;
            }
            // Every pushed filter reads the full-width row, in pushdown
            // order; a row the first rejects never meets the second.
            let mut rows = Vec::new();
            'row: for row in stored.rows() {
                let row = row.into_values();
                for f in filters {
                    if !eval_predicate(f, &row, &bindings)? {
                        continue 'row;
                    }
                }
                rows.push(row);
            }
            let Some(wanted) = projection else {
                return Ok(Relation { bindings, rows });
            };
            let mut positions = Vec::new();
            for c in wanted {
                let pos = names
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(c))
                    .ok_or_else(|| SqlError::UnknownColumn(c.clone()))?;
                positions.push(pos);
            }
            let kept: Vec<String> = positions.iter().map(|&p| names[p].clone()).collect();
            Ok(Relation {
                bindings: Bindings::for_table(binding, &kept),
                rows: rows
                    .iter()
                    .map(|row| positions.iter().map(|&p| row[p].clone()).collect())
                    .collect(),
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut rel = relation(input, provider)?;
            bind(predicate, &rel.bindings)?;
            let mut kept = Vec::new();
            for row in rel.rows {
                if eval_predicate(predicate, &row, &rel.bindings)? {
                    kept.push(row);
                }
            }
            rel.rows = kept;
            Ok(rel)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = relation(left, provider)?;
            let r = relation(right, provider)?;
            let bindings = l.bindings.concat(&r.bindings);
            if let Some(on) = on {
                bind(on, &bindings)?;
            }
            // Every pair, in left-then-right order, through `ON` itself.
            let mut rows = Vec::new();
            for lrow in &l.rows {
                let mut matched = false;
                for rrow in &r.rows {
                    let row: Vec<Value> = lrow.iter().chain(rrow).cloned().collect();
                    let keep = match on {
                        Some(on) => eval_predicate(on, &row, &bindings)?,
                        None => true,
                    };
                    if keep {
                        rows.push(row);
                        matched = true;
                    }
                }
                if !matched && *kind == JoinKind::LeftOuter {
                    let padding = std::iter::repeat_n(Value::Null, r.bindings.arity());
                    rows.push(lrow.iter().cloned().chain(padding).collect());
                }
            }
            Ok(Relation { bindings, rows })
        }
        other => Err(SqlError::Unsupported(format!(
            "nested result-shaping node in relational position: {other}"
        ))),
    }
}

/// One value of a projected row.
enum Output<'a> {
    /// The input column at this position (a wildcard's).
    Column(usize),
    /// A select-list expression.
    Expr(&'a Expr),
}

/// Where one hidden ORDER BY key comes from.
enum SortKey<'a> {
    /// The output column at this position: the key names it, unqualified.
    Output(usize),
    /// An expression over the input row.
    Input(&'a Expr),
}

impl SortKey<'_> {
    fn value(&self, outputs: &[Value], input: &[Value], bindings: &Bindings) -> Result<Value> {
        match self {
            SortKey::Output(pos) => Ok(outputs[*pos].clone()),
            SortKey::Input(e) => eval(e, input, bindings),
        }
    }
}

/// The ORDER BY keys: a bare column that names an output column is that
/// column (`ORDER BY alias`), anything else an expression over the input.
fn sort_keys<'a>(
    keys: &'a [OrderItem],
    bindings: &Bindings,
    columns: &[String],
) -> Result<Vec<SortKey<'a>>> {
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        if let Expr::Column(c) = &key.expr {
            let named = columns
                .iter()
                .position(|n| n.eq_ignore_ascii_case(&c.column));
            if let (None, Some(pos)) = (&c.qualifier, named) {
                out.push(SortKey::Output(pos));
                continue;
            }
        }
        bind(&key.expr, bindings)?;
        out.push(SortKey::Input(&key.expr));
    }
    Ok(out)
}

fn name_at(bindings: &Bindings, pos: usize) -> String {
    bindings.name_at(pos).unwrap_or_default().to_string()
}

/// A select item's output name: its alias, a bare column's name, or the
/// expression as SQL.
fn item_name(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".into(),
        SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
        SelectItem::Expr {
            alias: Some(alias), ..
        } => alias.clone(),
        SelectItem::Expr {
            expr: Expr::Column(c),
            ..
        } => c.column.clone(),
        SelectItem::Expr { expr, .. } => render_expr_neutral(expr),
    }
}

/// Group and DISTINCT equality, column by column: two NULLs are one key,
/// so are two NaNs; otherwise values are one key when `=` holds (an INT
/// and a FLOAT of equal value, `-0.0` and `0.0`).
fn same_key(a: &[Value], b: &[Value]) -> bool {
    let nan = |v: &Value| matches!(v, Value::Float(x) if x.is_nan());
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.is_null() && y.is_null()) || (nan(x) && nan(y)) || x.sql_eq(y))
}

/// GROUP BY / HAVING / aggregate select lists: group the rows, then per
/// group in first-occurrence order compute HAVING's aggregates and its
/// verdict, the select list's aggregates, the select list, and the hidden
/// sort keys — so a group HAVING drops raises nothing from its select list.
fn aggregate(
    rel: Relation,
    items: &[SelectItem],
    group_by: &[Expr],
    having: Option<&Expr>,
    keys: &[OrderItem],
) -> Result<ResultSet> {
    let mut exprs = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::Expr { expr, .. } => exprs.push(expr),
            _ => {
                return Err(SqlError::Unsupported(
                    "wildcard projection in aggregate query".into(),
                ))
            }
        }
    }
    let columns: Vec<String> = items.iter().map(item_name).collect();
    let b = &rel.bindings;
    for g in group_by {
        bind(g, b)?;
    }
    for e in exprs.iter().copied().chain(having) {
        bind_group(e, b)?;
    }
    // A key that cannot be resolved leaves every group's keys NULL.
    let sort = sort_keys(keys, b, &columns).ok();

    let mut groups: Vec<(Vec<Value>, Vec<&[Value]>)> = Vec::new();
    for row in &rel.rows {
        let key = group_by
            .iter()
            .map(|g| eval(g, row, b))
            .collect::<Result<Vec<_>>>()?;
        match groups.iter_mut().find(|(k, _)| same_key(k, &key)) {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    // Without GROUP BY there is one group, empty or not.
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut rows = Vec::new();
    for (_, members) in &groups {
        let group = Group {
            rows: members,
            bindings: b,
        };
        if let Some(h) = having {
            let computed = group.aggregates_in(h)?;
            let keep = match group.eval(h, &computed)? {
                Value::Bool(b) => b,
                Value::Int(i) => i != 0,
                Value::Null => false,
                other => {
                    return Err(SqlError::Eval(format!(
                        "HAVING must be boolean, got {}",
                        other.render()
                    )))
                }
            };
            if !keep {
                continue;
            }
        }
        let mut computed = Vec::new();
        for e in &exprs {
            computed.extend(group.aggregates_in(e)?);
        }
        let mut values = exprs
            .iter()
            .map(|e| group.eval(e, &computed))
            .collect::<Result<Vec<_>>>()?;
        // Sort keys read the group's first row (no row: every column NULL);
        // one that fails leaves all of this group's keys NULL.
        let first = members.first().copied().unwrap_or(&[]);
        let hidden = sort.as_ref().and_then(|sort| {
            sort.iter()
                .map(|k| k.value(&values, first, b))
                .collect::<Result<Vec<_>>>()
                .ok()
        });
        values.extend(hidden.unwrap_or_else(|| vec![Value::Null; keys.len()]));
        rows.push(Row::new(values));
    }
    Ok(ResultSet { columns, rows })
}

/// Check an aggregate-query expression before any group is formed: an
/// aggregate-free part resolves as a row expression does, an aggregate's
/// argument must hold no aggregate, and aggregates may sit only under
/// [`group_operands`]' shapes.
fn bind_group(expr: &Expr, bindings: &Bindings) -> Result<()> {
    if !expr.contains_aggregate() {
        return bind(expr, bindings);
    }
    if let Expr::Aggregate { arg, .. } = expr {
        return arg.as_deref().map_or(Ok(()), |a| bind(a, bindings));
    }
    group_operands(expr)
        .ok_or_else(|| unsupported_shape(expr))?
        .into_iter()
        .try_for_each(|e| bind_group(e, bindings))
}

/// The operands, left to right, of a shape an aggregate may sit under:
/// operators, IS NULL, BETWEEN and IN. `None` for any other shape.
fn group_operands(expr: &Expr) -> Option<Vec<&Expr>> {
    match expr {
        Expr::Binary { left, right, .. } => Some(vec![&**left, &**right]),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => Some(vec![&**expr]),
        Expr::Between { expr, lo, hi, .. } => Some(vec![&**expr, &**lo, &**hi]),
        Expr::InList { expr, list, .. } => Some(std::iter::once(&**expr).chain(list).collect()),
        _ => None,
    }
}

fn unsupported_shape(expr: &Expr) -> SqlError {
    SqlError::Unsupported(format!("aggregate expression shape: {expr:?}"))
}

/// One group's rows, for evaluating aggregate-query expressions.
struct Group<'a> {
    rows: &'a [&'a [Value]],
    bindings: &'a Bindings,
}

/// An aggregate call of an expression, by address, and its value.
type Computed<'e> = Vec<(&'e Expr, Value)>;

impl Group<'_> {
    /// Every aggregate call in `expr`, left to right, computed over the
    /// group.
    fn aggregates_in<'e>(&self, expr: &'e Expr) -> Result<Computed<'e>> {
        let mut out = Vec::new();
        self.collect(expr, &mut out)?;
        Ok(out)
    }

    fn collect<'e>(&self, expr: &'e Expr, out: &mut Computed<'e>) -> Result<()> {
        if !expr.contains_aggregate() {
            return Ok(());
        }
        match expr {
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => out.push((expr, self.aggregate(*func, arg.as_deref(), *distinct)?)),
            _ => {
                for e in group_operands(expr).unwrap_or_default() {
                    self.collect(e, out)?;
                }
            }
        }
        Ok(())
    }

    /// One aggregate over the group's rows, in row order. NULL inputs are
    /// skipped; under DISTINCT, so is a value `=` to one already taken.
    fn aggregate(&self, func: AggFunc, arg: Option<&Expr>, distinct: bool) -> Result<Value> {
        let Some(arg) = arg else {
            return Ok(Value::Int(self.rows.len() as i64));
        };
        let mut taken: Vec<Value> = Vec::new();
        for row in self.rows {
            let v = eval(arg, row, self.bindings)?;
            if v.is_null() || (distinct && taken.iter().any(|t| t.sql_eq(&v))) {
                continue;
            }
            if matches!(func, AggFunc::Sum | AggFunc::Avg)
                && !matches!(v, Value::Int(_) | Value::Float(_))
            {
                return Err(SqlError::Eval(format!(
                    "{} over non-numeric value {}",
                    func.sql(),
                    v.render()
                )));
            }
            taken.push(v);
        }
        let n = taken.len();
        // The FLOAT sum adds every input, from 0.0, in row order; an all-INT
        // sum is exact.
        let (mut float_sum, mut int_sum, mut all_int) = (0.0, 0i128, true);
        for v in &taken {
            match v {
                Value::Int(i) => {
                    float_sum += *i as f64;
                    int_sum += i128::from(*i);
                }
                Value::Float(x) => {
                    float_sum += x;
                    all_int = false;
                }
                _ => {}
            }
        }
        // MIN / MAX keep the first value nothing later beats strictly.
        let extreme = |wanted: std::cmp::Ordering| {
            let mut best: Option<&Value> = None;
            for v in &taken {
                if best.is_none_or(|b| v.sql_cmp(b) == Some(wanted)) {
                    best = Some(v);
                }
            }
            best.cloned().unwrap_or(Value::Null)
        };
        Ok(match func {
            AggFunc::Count => Value::Int(n as i64),
            AggFunc::Sum | AggFunc::Avg if n == 0 => Value::Null,
            AggFunc::Sum if all_int => Value::Int(
                i64::try_from(int_sum)
                    .map_err(|_| SqlError::Eval(format!("SUM overflows INT: {int_sum}")))?,
            ),
            AggFunc::Sum => Value::Float(float_sum),
            AggFunc::Avg if all_int => Value::Float(int_sum as f64 / n as f64),
            AggFunc::Avg => Value::Float(float_sum / n as f64),
            AggFunc::Min => extreme(std::cmp::Ordering::Less),
            AggFunc::Max => extreme(std::cmp::Ordering::Greater),
        })
    }

    /// Evaluate an aggregate-query expression for the group: aggregate calls
    /// are the values `computed` holds for them, an aggregate-free part is
    /// evaluated on the group's first row (NULL for no row), and operators
    /// over aggregates evaluate both sides before combining.
    fn eval(&self, expr: &Expr, computed: &Computed<'_>) -> Result<Value> {
        if !expr.contains_aggregate() {
            return match self.rows.first() {
                Some(row) => eval(expr, row, self.bindings),
                None => Ok(Value::Null),
            };
        }
        let ev = |e: &Expr| self.eval(e, computed);
        match expr {
            Expr::Aggregate { .. } => computed
                .iter()
                .find(|(call, _)| std::ptr::eq(*call, expr))
                .map(|(_, v)| v.clone())
                .ok_or_else(outside_aggregation),
            Expr::Binary { left, op, right } => {
                let (l, r) = (ev(left)?, ev(right)?);
                if matches!(op, BinaryOp::And | BinaryOp::Or) {
                    let (l, r) = (three_valued(&l)?, three_valued(&r)?);
                    return Ok(logical(*op, l, r));
                }
                binary(*op, &l, &r)
            }
            Expr::Unary { op, expr } => unary(*op, ev(expr)?),
            Expr::IsNull { expr, negated } => Ok(Value::Bool(ev(expr)?.is_null() != *negated)),
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => Ok(between(&ev(expr)?, &ev(lo)?, &ev(hi)?, *negated)),
            Expr::InList {
                expr,
                list,
                negated,
            } => in_list(ev(expr)?, list.iter().map(ev), *negated),
            other => Err(unsupported_shape(other)),
        }
    }
}
