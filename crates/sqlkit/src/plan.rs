//! Logical query-plan IR.
//!
//! [`build_plan`] lowers a parsed [`SelectStmt`] into a small relational
//! algebra tree; the optimizer ([`crate::optimize`]) rewrites that tree, and
//! the physical executor ([`crate::exec::execute_plan`]) runs it against a
//! [`crate::DatabaseProvider`]. The same IR drives the mediator's federated
//! planner: each [`LogicalPlan::Scan`] node carries the predicates pushed
//! into it and the pruned column list, which is exactly the per-backend
//! sub-query shipped to a remote database.
//!
//! ORDER BY is planned the way the row engine executes it: the projection
//! node emits one hidden trailing column per sort key (resolved against the
//! output columns first, so `ORDER BY alias` works), [`LogicalPlan::Sort`]
//! orders on those trailing columns positionally, and [`LogicalPlan::Strip`]
//! drops them before DISTINCT/LIMIT see the rows.

use crate::ast::{Expr, JoinKind, OrderItem, SelectItem, SelectStmt, TableRef};

/// A node of the logical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: read one table. `projection`/`filters` start empty and are
    /// filled in by optimizer pushdown; both are visible in EXPLAIN and are
    /// the unit of federated sub-query generation.
    Scan {
        /// Physical table name.
        table: String,
        /// Qualifier the query binds the table to (alias or table name).
        binding: String,
        /// Columns to emit, in order; `None` means all columns.
        projection: Option<Vec<String>>,
        /// Conjuncts evaluated against the full row before projection.
        filters: Vec<Expr>,
    },
    /// Keep rows where the predicate is true.
    Filter {
        /// Input relation.
        input: Box<LogicalPlan>,
        /// Boolean predicate (SQL three-valued: unknown drops the row).
        predicate: Expr,
    },
    /// Combine two relations.
    Join {
        /// Left input (preserved side for LEFT OUTER).
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join flavour.
        kind: JoinKind,
        /// ON condition; `None` for CROSS.
        on: Option<Expr>,
    },
    /// Evaluate select items per row; appends one hidden sort-key column per
    /// entry of `keys`.
    Project {
        /// Input relation.
        input: Box<LogicalPlan>,
        /// Select list (wildcards expand against the input bindings).
        items: Vec<SelectItem>,
        /// ORDER BY expressions whose values ride along as hidden columns.
        keys: Vec<OrderItem>,
    },
    /// Group rows and evaluate aggregate select items; like
    /// [`LogicalPlan::Project`], appends hidden sort-key columns.
    Aggregate {
        /// Input relation.
        input: Box<LogicalPlan>,
        /// Select list (must be expressions, not wildcards).
        items: Vec<SelectItem>,
        /// Grouping expressions; empty means one global group.
        group_by: Vec<Expr>,
        /// HAVING predicate over each group.
        having: Option<Expr>,
        /// ORDER BY expressions carried as hidden columns.
        keys: Vec<OrderItem>,
    },
    /// Stable-sort rows on the last `ascending.len()` columns (the hidden
    /// sort keys emitted by the projection below).
    Sort {
        /// Input relation.
        input: Box<LogicalPlan>,
        /// Direction per trailing key column.
        ascending: Vec<bool>,
    },
    /// Drop the last `drop` columns (the hidden sort keys).
    Strip {
        /// Input relation.
        input: Box<LogicalPlan>,
        /// Number of trailing columns to remove.
        drop: usize,
    },
    /// Remove duplicate rows, keeping first occurrences.
    Distinct {
        /// Input relation.
        input: Box<LogicalPlan>,
    },
    /// Keep the first `limit` rows.
    Limit {
        /// Input relation.
        input: Box<LogicalPlan>,
        /// Row cap.
        limit: u64,
    },
}

impl LogicalPlan {
    /// A bare scan of `table` (no pushed filters, no pruning).
    pub fn scan(table: &TableRef) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.name.clone(),
            binding: table.binding().to_string(),
            projection: None,
            filters: Vec::new(),
        }
    }

    /// Child nodes, left to right.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => Vec::new(),
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Strip { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => vec![input],
        }
    }

    /// All `Scan` nodes in the tree, left to right (FROM order for an
    /// unoptimized plan).
    pub fn scans(&self) -> Vec<&LogicalPlan> {
        let mut out = Vec::new();
        self.collect_scans(&mut out);
        out
    }

    fn collect_scans<'a>(&'a self, out: &mut Vec<&'a LogicalPlan>) {
        if let LogicalPlan::Scan { .. } = self {
            out.push(self);
        }
        for child in self.children() {
            child.collect_scans(out);
        }
    }

    /// Short lowercase node kind ("scan", "join", ...): the metric label
    /// for per-plan-node-kind counters and a stable grouping key.
    pub fn kind_name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "scan",
            LogicalPlan::Filter { .. } => "filter",
            LogicalPlan::Join { .. } => "join",
            LogicalPlan::Project { .. } => "project",
            LogicalPlan::Aggregate { .. } => "aggregate",
            LogicalPlan::Sort { .. } => "sort",
            LogicalPlan::Strip { .. } => "strip",
            LogicalPlan::Distinct { .. } => "distinct",
            LogicalPlan::Limit { .. } => "limit",
        }
    }

    /// One-line description of this node alone (no indentation, no
    /// children) — the unit EXPLAIN and EXPLAIN ANALYZE annotate.
    pub fn node_label(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        match self {
            LogicalPlan::Scan {
                table,
                binding,
                projection,
                filters,
            } => {
                let _ = write!(out, "Scan {table}");
                if binding != table {
                    let _ = write!(out, " AS {binding}");
                }
                match projection {
                    Some(cols) => {
                        let _ = write!(out, " cols=[{}]", cols.join(", "));
                    }
                    None => {
                        let _ = write!(out, " cols=*");
                    }
                }
                if !filters.is_empty() {
                    let rendered: Vec<String> = filters
                        .iter()
                        .map(crate::render::render_expr_neutral)
                        .collect();
                    let _ = write!(out, " where {}", rendered.join(" AND "));
                }
            }
            LogicalPlan::Filter { predicate, .. } => {
                let _ = write!(
                    out,
                    "Filter {}",
                    crate::render::render_expr_neutral(predicate)
                );
            }
            LogicalPlan::Join { kind, on, .. } => {
                let kind_txt = match kind {
                    JoinKind::Inner => "Inner",
                    JoinKind::LeftOuter => "LeftOuter",
                    JoinKind::Cross => "Cross",
                };
                let _ = write!(out, "Join {kind_txt}");
                if let Some(cond) = on {
                    let _ = write!(out, " on {}", crate::render::render_expr_neutral(cond));
                }
            }
            LogicalPlan::Project { items, keys, .. } => {
                let rendered: Vec<String> = items.iter().map(render_item).collect();
                let _ = write!(out, "Project [{}]", rendered.join(", "));
                if !keys.is_empty() {
                    let _ = write!(out, " +{} sort key(s)", keys.len());
                }
            }
            LogicalPlan::Aggregate {
                items,
                group_by,
                having,
                keys,
                ..
            } => {
                let rendered: Vec<String> = items.iter().map(render_item).collect();
                let _ = write!(out, "Aggregate [{}]", rendered.join(", "));
                if !group_by.is_empty() {
                    let groups: Vec<String> = group_by
                        .iter()
                        .map(crate::render::render_expr_neutral)
                        .collect();
                    let _ = write!(out, " group by [{}]", groups.join(", "));
                }
                if let Some(h) = having {
                    let _ = write!(out, " having {}", crate::render::render_expr_neutral(h));
                }
                if !keys.is_empty() {
                    let _ = write!(out, " +{} sort key(s)", keys.len());
                }
            }
            LogicalPlan::Sort { ascending, .. } => {
                let dirs: Vec<&str> = ascending
                    .iter()
                    .map(|asc| if *asc { "asc" } else { "desc" })
                    .collect();
                let _ = write!(out, "Sort [{}]", dirs.join(", "));
            }
            LogicalPlan::Strip { drop, .. } => {
                let _ = write!(out, "Strip {drop} sort key(s)");
            }
            LogicalPlan::Distinct { .. } => out.push_str("Distinct"),
            LogicalPlan::Limit { limit, .. } => {
                let _ = write!(out, "Limit {limit}");
            }
        }
        out
    }

    /// Render the tree as an indented outline (used by EXPLAIN).
    pub fn render_tree(&self, indent: usize, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "{}{}", "  ".repeat(indent), self.node_label());
        for child in self.children() {
            child.render_tree(indent + 1, out);
        }
    }
}

impl std::fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.render_tree(0, &mut out);
        f.write_str(out.trim_end())
    }
}

fn render_item(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".into(),
        SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
        SelectItem::Expr { expr, alias } => {
            let base = crate::render::render_expr_neutral(expr);
            match alias {
                Some(a) => format!("{base} AS {a}"),
                None => base,
            }
        }
    }
}

/// Lower a SELECT statement into a canonical (unoptimized) logical plan:
///
/// ```text
/// Limit? -> Distinct? -> Strip? -> Sort? -> Project|Aggregate
///   -> Filter(WHERE)? -> left-deep Join tree -> Scan leaves
/// ```
pub fn build_plan(stmt: &SelectStmt) -> LogicalPlan {
    let mut node = LogicalPlan::scan(&stmt.from);
    for join in &stmt.joins {
        node = LogicalPlan::Join {
            left: Box::new(node),
            right: Box::new(LogicalPlan::scan(&join.table)),
            kind: join.kind,
            on: join.on.clone(),
        };
    }
    if let Some(pred) = &stmt.where_clause {
        node = LogicalPlan::Filter {
            input: Box::new(node),
            predicate: pred.clone(),
        };
    }

    let keys = stmt.order_by.clone();
    node = if stmt.is_aggregate() {
        LogicalPlan::Aggregate {
            input: Box::new(node),
            items: stmt.items.clone(),
            group_by: stmt.group_by.clone(),
            having: stmt.having.clone(),
            keys: keys.clone(),
        }
    } else {
        LogicalPlan::Project {
            input: Box::new(node),
            items: stmt.items.clone(),
            keys: keys.clone(),
        }
    };

    if !keys.is_empty() {
        node = LogicalPlan::Sort {
            input: Box::new(node),
            ascending: keys.iter().map(|k| k.ascending).collect(),
        };
        node = LogicalPlan::Strip {
            input: Box::new(node),
            drop: keys.len(),
        };
    }
    if stmt.distinct {
        node = LogicalPlan::Distinct {
            input: Box::new(node),
        };
    }
    if let Some(limit) = stmt.limit {
        node = LogicalPlan::Limit {
            input: Box::new(node),
            limit,
        };
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    #[test]
    fn plan_shapes_mirror_statement_clauses() {
        let stmt = parse_select(
            "SELECT DISTINCT e.energy FROM events e JOIN dets d ON e.det_id = d.det_id \
             WHERE e.energy > 10 ORDER BY e.energy DESC LIMIT 3",
        )
        .unwrap();
        let plan = build_plan(&stmt);
        let text = plan.to_string();
        // Outer-to-inner clause order.
        let order = [
            "Limit 3",
            "Distinct",
            "Strip 1",
            "Sort [desc]",
            r#"Project ["e"."energy"]"#,
            r#"Filter ("e"."energy" > 10)"#,
            r#"Join Inner on ("e"."det_id" = "d"."det_id")"#,
            "Scan events AS e",
            "Scan dets AS d",
        ];
        let mut at = 0;
        for needle in order {
            let pos = text[at..]
                .find(needle)
                .unwrap_or_else(|| panic!("missing {needle:?} after offset {at} in:\n{text}"));
            at += pos;
        }
    }

    #[test]
    fn aggregate_queries_get_aggregate_nodes() {
        let stmt =
            parse_select("SELECT det_id, COUNT(*) FROM events GROUP BY det_id HAVING COUNT(*) > 1")
                .unwrap();
        let plan = build_plan(&stmt);
        let text = plan.to_string();
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains(r#"group by ["det_id"]"#), "{text}");
        assert!(text.contains("having"), "{text}");
        assert!(!text.contains("Project"), "{text}");
    }

    #[test]
    fn scans_enumerate_in_from_order() {
        let stmt = parse_select("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y").unwrap();
        let plan = build_plan(&stmt);
        let names: Vec<&str> = plan
            .scans()
            .iter()
            .map(|s| match s {
                LogicalPlan::Scan { table, .. } => table.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
