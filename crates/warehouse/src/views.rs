//! Read-only views over the warehouse.
//!
//! "We created views on the data stored in the warehouse to provide
//! read-only access for scientific analysis" (§4.2). Two view flavours:
//!
//! - [`ViewDef::Sql`] — an ordinary SELECT over the fact table.
//! - [`ViewDef::Pivot`] — the ntuple pivot: fact rows (one per
//!   measurement) become the HBOOK shape (one row per event, one column
//!   per variable). This is what the analysts' mart tables look like, and
//!   it is not expressible in the prototype's SQL subset, so it is a
//!   first-class view program.

use crate::{Result, WarehouseError};
use gridfed_ntuple::schema as nschema;
use gridfed_ntuple::spec::NtupleSpec;
use gridfed_sqlkit::ast::SelectStmt;
use gridfed_sqlkit::exec::{execute_select, DatabaseProvider};
use gridfed_sqlkit::{ResultSet, RetainedAggregate};
use gridfed_storage::{normalize_ident, Database, Row, Schema, Value};
use gridfed_vendors::Connection;
use std::collections::HashMap;

/// A named warehouse view.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewDef {
    /// A SELECT over warehouse tables.
    Sql {
        /// View (and mart-table) name.
        name: String,
        /// The defining SELECT.
        query: SelectStmt,
    },
    /// The ntuple pivot for one spec.
    Pivot {
        /// View (and mart-table) name.
        name: String,
        /// The ntuple whose events are pivoted.
        spec: NtupleSpec,
    },
}

impl ViewDef {
    /// View name.
    pub fn name(&self) -> &str {
        match self {
            ViewDef::Sql { name, .. } | ViewDef::Pivot { name, .. } => name,
        }
    }

    /// Schema of the mart table holding `result`, this view's evaluation
    /// over `warehouse`. Pivot views and foldable aggregates (see
    /// [`ViewDef::fold_over`]) have a static schema, so the table keeps its
    /// column types whatever rows it happens to hold; other SQL views fall
    /// back to the types of the result's first non-NULL values.
    pub fn output_schema(&self, warehouse: &Connection, result: &ResultSet) -> Result<Schema> {
        if let ViewDef::Pivot { spec, .. } = self {
            return Ok(nschema::mart_ntuple_schema(spec));
        }
        let fold = warehouse.server().with_db(|db| {
            let fact = db.table(nschema::FACT_TABLE).ok()?;
            self.fold_over(fact.schema())
        });
        match fold {
            Some(fold) => Ok(fold.output_schema().clone()),
            None => schema_from_result(result),
        }
    }

    /// The retained aggregation that maintains this view row by row, when
    /// it is a foldable `GROUP BY` (see [`gridfed_sqlkit::fold`]) over the
    /// fact table, whose schema is `fact`. A view that fails to compile is
    /// simply not folded: evaluating it reports the error.
    pub(crate) fn fold_over(&self, fact: &Schema) -> Option<RetainedAggregate> {
        match self {
            ViewDef::Sql { query, .. }
                if normalize_ident(&query.from.name) == nschema::FACT_TABLE =>
            {
                RetainedAggregate::compile(query, fact).ok().flatten()
            }
            _ => None,
        }
    }
}

/// Infer an all-nullable schema from a result set's first row types
/// (defaulting to FLOAT for all-NULL columns).
fn schema_from_result(rs: &ResultSet) -> Result<Schema> {
    use gridfed_storage::{ColumnDef, DataType};
    let mut cols = Vec::with_capacity(rs.columns.len());
    for (i, name) in rs.columns.iter().enumerate() {
        let ty = rs
            .rows
            .iter()
            .find_map(|r| r.get(i).and_then(Value::data_type))
            .unwrap_or(DataType::Float);
        cols.push(ColumnDef::new(name.clone(), ty));
    }
    Schema::new(cols).map_err(WarehouseError::Storage)
}

/// Evaluate a view against the warehouse, returning its rows.
pub fn evaluate_view(view: &ViewDef, warehouse: &Connection) -> Result<ResultSet> {
    warehouse.server().with_db(|db| evaluate_view_in(view, db))
}

/// [`evaluate_view`] inside a storage-lock section the caller holds, so
/// several reads (views, the WAL head) see one state of the warehouse.
pub(crate) fn evaluate_view_in(view: &ViewDef, db: &Database) -> Result<ResultSet> {
    match view {
        ViewDef::Sql { query, .. } => {
            execute_select(query, &DatabaseProvider(db)).map_err(WarehouseError::Sql)
        }
        ViewDef::Pivot { spec, .. } => pivot_fact_since(db, spec, i64::MIN),
    }
}

/// Pivot only the fact rows with `m_id > min_m_id` — the delta a mart
/// refresh must merge when the warehouse high-water mark has advanced past
/// the mart's recorded one. `i64::MIN` pivots everything.
pub(crate) fn pivot_fact_since(
    db: &Database,
    spec: &NtupleSpec,
    min_m_id: i64,
) -> Result<ResultSet> {
    let fact = db
        .table(nschema::FACT_TABLE)
        .map_err(WarehouseError::Storage)?;
    let cols = FactColumns::resolve(fact.schema())?;
    pivot_rows(spec, &cols, min_m_id, fact.scan().map(Row::into_values))
}

/// Resolved offsets of the fact-table columns the pivot consumes.
/// Resolving them once lets the same pivot core run over a table scan
/// *or* over WAL-carried fact rows (the replication path), which arrive
/// as bare value vectors in schema column order.
#[derive(Debug)]
pub(crate) struct FactColumns {
    m_id: usize,
    e_id: usize,
    run_id: usize,
    detector: usize,
    var_name: usize,
    value: usize,
    weight: usize,
}

impl FactColumns {
    /// Resolve against a fact-table schema.
    pub(crate) fn resolve(schema: &Schema) -> Result<FactColumns> {
        Ok(FactColumns {
            m_id: col(schema, "m_id")?,
            e_id: col(schema, "e_id")?,
            run_id: col(schema, "run_id")?,
            detector: col(schema, "detector")?,
            var_name: col(schema, "var_name")?,
            value: col(schema, "value")?,
            weight: col(schema, "weight")?,
        })
    }

    /// The `m_id` of a fact row (schema column order).
    pub(crate) fn m_id_of(&self, row: &[Value]) -> Result<i64> {
        match &row[self.m_id] {
            Value::Int(m) => Ok(*m),
            other => Err(WarehouseError::Pipeline(format!(
                "non-integer m_id {} in fact table",
                other.render()
            ))),
        }
    }
}

/// The pivot core: fold fact rows (schema column order, `m_id > min_m_id`)
/// into the ntuple shape, one output row per event, sorted by `e_id`.
/// `pivot_fact_since` runs it over a warehouse table scan; the replication
/// stream runs it directly over the rows a WAL `Insert` batch carries.
pub(crate) fn pivot_rows(
    spec: &NtupleSpec,
    cols: &FactColumns,
    min_m_id: i64,
    fact_rows: impl Iterator<Item = impl AsRef<[Value]>>,
) -> Result<ResultSet> {
    let var_slot: HashMap<&str, usize> = spec
        .variables
        .iter()
        .enumerate()
        .map(|(i, v)| (v.name.as_str(), i))
        .collect();

    // e_id → (run_id, detector, weight, [values per variable])
    let mut events: HashMap<i64, (Value, Value, Value, Vec<Value>)> = HashMap::new();
    let mut order: Vec<i64> = Vec::new();
    for vals in fact_rows {
        let vals = vals.as_ref();
        if min_m_id != i64::MIN && cols.m_id_of(vals)? <= min_m_id {
            continue;
        }
        let e_id = match &vals[cols.e_id] {
            Value::Int(i) => *i,
            other => {
                return Err(WarehouseError::Pipeline(format!(
                    "non-integer e_id {} in fact table",
                    other.render()
                )))
            }
        };
        let slot = match &vals[cols.var_name] {
            Value::Text(name) => var_slot.get(name.as_str()).copied(),
            _ => None,
        };
        let entry = events.entry(e_id).or_insert_with(|| {
            order.push(e_id);
            (
                vals[cols.run_id].clone(),
                vals[cols.detector].clone(),
                vals[cols.weight].clone(),
                vec![Value::Null; spec.nvar()],
            )
        });
        if let Some(slot) = slot {
            entry.3[slot] = vals[cols.value].clone();
        }
    }

    let out_schema = nschema::mart_ntuple_schema(spec);
    let mut rows = Vec::with_capacity(events.len());
    order.sort_unstable();
    for e_id in order {
        let (run_id, detector, weight, vars) = events.remove(&e_id).expect("keyed by order");
        let mut values = vec![Value::Int(e_id), run_id, detector, weight];
        values.extend(vars);
        rows.push(Row::new(values));
    }
    Ok(ResultSet {
        columns: out_schema.names(),
        rows,
    })
}

fn col(schema: &Schema, name: &str) -> Result<usize> {
    schema
        .index_of(name)
        .ok_or_else(|| WarehouseError::Pipeline(format!("fact table missing column `{name}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::EtlPipeline;
    use gridfed_ntuple::NtupleGenerator;
    use gridfed_sqlkit::parser::parse_select;
    use gridfed_vendors::{SimServer, VendorKind};
    use std::sync::Arc;

    fn loaded_warehouse(spec: &NtupleSpec) -> Arc<SimServer> {
        let src = SimServer::new(VendorKind::MySql, "t2", "src");
        src.with_db_mut(|db| {
            NtupleGenerator::new(spec.clone(), 3)
                .populate_source(db)
                .unwrap();
        });
        let wh = SimServer::new(VendorKind::Oracle, "t0", "warehouse");
        EtlPipeline::paper()
            .run_batch(
                &src.connect("grid", "grid").unwrap().value,
                &wh.connect("grid", "grid").unwrap().value,
                None,
            )
            .unwrap();
        wh
    }

    #[test]
    fn sql_view_filters_fact() {
        let spec = NtupleSpec::tiny();
        let wh = loaded_warehouse(&spec);
        let conn = wh.connect("grid", "grid").unwrap().value;
        let view = ViewDef::Sql {
            name: "v_ecal".into(),
            query: parse_select(
                "SELECT e_id, var_name, value FROM fact_measurements WHERE detector = 'ecal'",
            )
            .unwrap(),
        };
        let rs = evaluate_view(&view, &conn).unwrap();
        assert!(!rs.is_empty());
        assert_eq!(rs.columns, vec!["e_id", "var_name", "value"]);
    }

    #[test]
    fn pivot_view_has_ntuple_shape() {
        let spec = NtupleSpec::tiny();
        let wh = loaded_warehouse(&spec);
        let conn = wh.connect("grid", "grid").unwrap().value;
        let view = ViewDef::Pivot {
            name: "v_tiny".into(),
            spec: spec.clone(),
        };
        let rs = evaluate_view(&view, &conn).unwrap();
        assert_eq!(rs.len(), spec.events);
        assert_eq!(rs.columns.len(), 4 + spec.nvar());
        // every variable column is filled (generator produces all pairs)
        for row in &rs.rows {
            assert!(row.values()[4..].iter().all(|v| !v.is_null()));
        }
        // rows are sorted by e_id
        let ids: Vec<_> = rs
            .rows
            .iter()
            .map(|r| match r.values()[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn pivot_schema_matches_output() {
        let spec = NtupleSpec::tiny();
        let wh = loaded_warehouse(&spec);
        let conn = wh.connect("grid", "grid").unwrap().value;
        let view = ViewDef::Pivot {
            name: "v".into(),
            spec: spec.clone(),
        };
        let rs = evaluate_view(&view, &conn).unwrap();
        let schema = view.output_schema(&conn, &rs).unwrap();
        assert_eq!(schema.names(), rs.columns);
    }

    #[test]
    fn view_on_missing_fact_table_errors() {
        let wh = SimServer::new(VendorKind::Oracle, "t0", "empty");
        let conn = wh.connect("grid", "grid").unwrap().value;
        let view = ViewDef::Pivot {
            name: "v".into(),
            spec: NtupleSpec::tiny(),
        };
        assert!(evaluate_view(&view, &conn).is_err());
    }
}
