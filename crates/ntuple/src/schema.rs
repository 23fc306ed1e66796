//! The two schema shapes of the paper's pipeline.
//!
//! **Normalized source schema** (what the Tier-1/2 source databases hold):
//!
//! ```text
//! runs(run_id PK, detector, start_ts)
//! variables(var_id PK, name, unit)
//! events(e_id PK, run_id, weight)
//! measurements(m_id PK, e_id, var_id, value)
//! ```
//!
//! **Denormalized star schema** (what the ETL loads into the warehouse —
//! dimension attributes folded into a wide fact table for read-mostly
//! analysis):
//!
//! ```text
//! fact_measurements(m_id PK, e_id, run_id, detector, var_name, unit, value, weight)
//! ```
//!
//! Mart tables are per-ntuple *pivoted* slices of the fact table: one row
//! per event, one column per variable — the HBOOK ntuple shape the analyst
//! actually queries.

use gridfed_storage::{ColumnDef, DataType, Schema};

use crate::spec::NtupleSpec;

/// Table names of the normalized source schema.
pub const SOURCE_TABLES: [&str; 4] = ["runs", "variables", "events", "measurements"];

/// Name of the warehouse fact table.
pub const FACT_TABLE: &str = "fact_measurements";

/// Schema of `runs`.
pub fn runs_schema() -> Schema {
    schema(vec![
        ColumnDef::new("run_id", DataType::Int).primary_key(),
        ColumnDef::new("detector", DataType::Text).not_null(),
        ColumnDef::new("start_ts", DataType::Int).not_null(),
    ])
}

/// Schema of `variables`.
pub fn variables_schema() -> Schema {
    schema(vec![
        ColumnDef::new("var_id", DataType::Int).primary_key(),
        ColumnDef::new("name", DataType::Text).not_null(),
        ColumnDef::new("unit", DataType::Text).not_null(),
    ])
}

/// Schema of `events`.
pub fn events_schema() -> Schema {
    schema(vec![
        ColumnDef::new("e_id", DataType::Int).primary_key(),
        ColumnDef::new("run_id", DataType::Int).not_null(),
        ColumnDef::new("weight", DataType::Float).not_null(),
    ])
}

/// Schema of `measurements`.
pub fn measurements_schema() -> Schema {
    schema(vec![
        ColumnDef::new("m_id", DataType::Int).primary_key(),
        ColumnDef::new("e_id", DataType::Int).not_null(),
        ColumnDef::new("var_id", DataType::Int).not_null(),
        ColumnDef::new("value", DataType::Float).not_null(),
    ])
}

/// Schema of the denormalized warehouse fact table.
pub fn fact_schema() -> Schema {
    schema(vec![
        ColumnDef::new("m_id", DataType::Int).primary_key(),
        ColumnDef::new("e_id", DataType::Int).not_null(),
        ColumnDef::new("run_id", DataType::Int).not_null(),
        ColumnDef::new("detector", DataType::Text).not_null(),
        ColumnDef::new("var_name", DataType::Text).not_null(),
        ColumnDef::new("unit", DataType::Text).not_null(),
        ColumnDef::new("value", DataType::Float).not_null(),
        ColumnDef::new("weight", DataType::Float).not_null(),
    ])
}

/// Schema of a mart's pivoted ntuple table for a given spec: one row per
/// event, one FLOAT column per variable, plus identifying columns.
pub fn mart_ntuple_schema(spec: &NtupleSpec) -> Schema {
    let mut cols = vec![
        ColumnDef::new("e_id", DataType::Int).primary_key(),
        ColumnDef::new("run_id", DataType::Int).not_null(),
        ColumnDef::new("detector", DataType::Text).not_null(),
        ColumnDef::new("weight", DataType::Float).not_null(),
    ];
    for v in &spec.variables {
        cols.push(ColumnDef::new(v.name.clone(), DataType::Float));
    }
    schema(cols)
}

/// The schema of `cols`. Invariant: the names are distinct — the static
/// schemas above name theirs so, and `NtupleSpec`'s constructors name
/// variables `var_NNN` or after physics quantities, never after each other
/// or the four identifying columns — so `Schema::new` cannot refuse them.
#[allow(clippy::expect_used)]
fn schema(cols: Vec<ColumnDef>) -> Schema {
    Schema::new(cols).expect("the pipeline's column names are distinct")
}

/// Name of the mart table for a spec (`<name>_events`).
pub fn mart_table_name(spec: &NtupleSpec) -> String {
    format!("{}_events", spec.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_schemas_are_consistent() {
        assert_eq!(runs_schema().arity(), 3);
        assert_eq!(measurements_schema().arity(), 4);
        assert!(events_schema().column("e_id").unwrap().unique);
    }

    #[test]
    fn fact_folds_dimensions() {
        let f = fact_schema();
        for dim_col in ["detector", "var_name", "unit", "weight"] {
            assert!(f.column(dim_col).is_some(), "fact is missing {dim_col}");
        }
    }

    #[test]
    fn mart_schema_pivots_variables_into_columns() {
        let spec = NtupleSpec::tiny();
        let m = mart_ntuple_schema(&spec);
        assert_eq!(m.arity(), 4 + spec.nvar());
        assert!(m.column("var_000").is_some());
        assert_eq!(mart_table_name(&spec), "tiny_events");
    }
}
