//! The data dictionary: logical names → physical locations.
//!
//! "The client is provided this data dictionary of logical names, and he
//! uses these logical names without any knowledge of the physical location
//! of the data and their actual names" (§4.4). The dictionary is assembled
//! from the one Upper-Level XSpec plus the Lower-Level XSpec of every
//! registered database; plug-in databases (§4.10) are `register`ed at
//! runtime.

use crate::model::{LowerXSpec, UpperEntry, UpperXSpec, XTable};
use crate::{Result, XSpecError};
use gridfed_storage::{normalize_ident, normalized};
use std::collections::HashMap;

/// Where a logical table physically lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLocation {
    /// Logical database name (Upper-Level entry).
    pub database: String,
    /// Physical table name inside that database.
    pub physical_table: String,
    /// Connection URL of the database.
    pub url: String,
    /// Driver (scheme) name.
    pub driver: String,
    /// Vendor product name.
    pub vendor: String,
    /// Cardinality hint from the XSpec.
    pub row_count: usize,
}

/// The assembled dictionary.
#[derive(Debug, Clone, Default)]
pub struct DataDictionary {
    upper: UpperXSpec,
    lowers: HashMap<String, LowerXSpec>,
}

impl DataDictionary {
    /// Empty dictionary.
    pub fn new() -> DataDictionary {
        DataDictionary::default()
    }

    /// Build from an Upper-Level XSpec and the Lower-Level specs it
    /// references. Every entry must have its lower spec present.
    pub fn from_specs(
        upper: UpperXSpec,
        lowers: impl IntoIterator<Item = LowerXSpec>,
    ) -> Result<DataDictionary> {
        let mut map = HashMap::new();
        for l in lowers {
            map.insert(normalize_ident(&l.database), l);
        }
        for e in &upper.entries {
            if !map.contains_key(&normalize_ident(&e.name)) {
                return Err(XSpecError::Model(format!(
                    "upper entry `{}` has no lower-level XSpec",
                    e.name
                )));
            }
        }
        Ok(DataDictionary { upper, lowers: map })
    }

    /// Register (or replace) a database at runtime — the plug-in path.
    pub fn register(&mut self, entry: UpperEntry, lower: LowerXSpec) {
        self.lowers.insert(normalize_ident(&entry.name), lower);
        self.upper.upsert(entry);
    }

    /// Remove a database from the dictionary.
    pub fn unregister(&mut self, database: &str) -> bool {
        let key = normalize_ident(database);
        let had = self.lowers.remove(&key).is_some();
        self.upper
            .entries
            .retain(|e| !e.name.eq_ignore_ascii_case(database));
        had
    }

    /// Replace the Lower-Level XSpec of an already-registered database
    /// (what the schema-change tracker does on `Changed`).
    pub fn refresh_lower(&mut self, lower: LowerXSpec) -> Result<()> {
        let key = normalize_ident(&lower.database);
        if !self.lowers.contains_key(&key) {
            return Err(XSpecError::Unknown(lower.database));
        }
        self.lowers.insert(key, lower);
        Ok(())
    }

    /// Registered database names, sorted.
    pub fn databases(&self) -> Vec<String> {
        let mut names: Vec<String> = self.upper.entries.iter().map(|e| e.name.clone()).collect();
        names.sort();
        names
    }

    /// The Upper-Level entry for a database.
    pub fn entry(&self, database: &str) -> Result<&UpperEntry> {
        self.upper
            .entry(database)
            .ok_or_else(|| XSpecError::Unknown(database.to_string()))
    }

    /// The Lower-Level spec for a database.
    pub fn lower(&self, database: &str) -> Result<&LowerXSpec> {
        self.lowers
            .get(&normalize_ident(database))
            .ok_or_else(|| XSpecError::Unknown(database.to_string()))
    }

    /// All logical table names across the federation, sorted and deduped.
    pub fn logical_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .lowers
            .values()
            .flat_map(|l| l.tables.iter().map(XTable::logical_name))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Locations hosting a logical table. Multiple locations mean the
    /// table is replicated (the closest-replica policy chooses one).
    pub fn resolve_table(&self, logical: &str) -> Vec<TableLocation> {
        let mut out = Vec::new();
        for e in &self.upper.entries {
            if let Some(lower) = self.lowers.get(&*normalized(&e.name)) {
                if let Some(t) = lower.table(logical) {
                    out.push(TableLocation {
                        database: e.name.clone(),
                        physical_table: t.name.clone(),
                        url: e.url.clone(),
                        driver: e.driver.clone(),
                        vendor: lower.vendor.clone(),
                        row_count: t.row_count,
                    });
                }
            }
        }
        out
    }

    /// True if some registered database hosts the logical table.
    pub fn has_table(&self, logical: &str) -> bool {
        !self.resolve_table(logical).is_empty()
    }

    /// Column names of a logical table (from its first host).
    pub fn columns_of(&self, logical: &str) -> Result<Vec<String>> {
        for lower in self.lowers.values() {
            if let Some(t) = lower.table(logical) {
                return Ok(t.columns.iter().map(|c| c.name.clone()).collect());
            }
        }
        Err(XSpecError::Unknown(logical.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::XColumn;
    use gridfed_storage::DataType;

    fn lower(db: &str, vendor: &str, tables: &[&str]) -> LowerXSpec {
        LowerXSpec {
            database: db.into(),
            vendor: vendor.into(),
            tables: tables
                .iter()
                .map(|t| XTable {
                    name: t.to_string(),
                    row_count: 10,
                    columns: vec![XColumn {
                        name: "id".into(),
                        vendor_type: "BIGINT".into(),
                        neutral_type: DataType::Int,
                        nullable: false,
                        unique: true,
                    }],
                })
                .collect(),
        }
    }

    fn entry(db: &str, scheme: &str) -> UpperEntry {
        UpperEntry {
            name: db.into(),
            url: format!("{scheme}://grid:grid@host:1/{db}"),
            driver: scheme.into(),
            lower_ref: format!("{db}.xspec"),
        }
    }

    fn dict() -> DataDictionary {
        let mut upper = UpperXSpec::default();
        upper.upsert(entry("mart1", "mysql"));
        upper.upsert(entry("mart2", "mssql"));
        DataDictionary::from_specs(
            upper,
            [
                lower("mart1", "MySQL", &["events", "runs"]),
                lower("mart2", "MS-SQL", &["events", "conditions"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn missing_lower_rejected() {
        let mut upper = UpperXSpec::default();
        upper.upsert(entry("ghost", "mysql"));
        assert!(DataDictionary::from_specs(upper, []).is_err());
    }

    #[test]
    fn resolve_finds_replicas() {
        let d = dict();
        let locs = d.resolve_table("events");
        assert_eq!(locs.len(), 2);
        assert_eq!(locs[0].database, "mart1");
        assert_eq!(locs[1].vendor, "MS-SQL");
        assert_eq!(d.resolve_table("conditions").len(), 1);
        assert!(d.resolve_table("nope").is_empty());
    }

    #[test]
    fn logical_tables_are_sorted_and_deduped() {
        let d = dict();
        assert_eq!(d.logical_tables(), vec!["conditions", "events", "runs"]);
    }

    #[test]
    fn register_and_unregister_runtime_plugin() {
        let mut d = dict();
        d.register(
            entry("laptop", "sqlite"),
            lower("laptop", "SQLite", &["events"]),
        );
        assert_eq!(d.resolve_table("events").len(), 3);
        assert!(d.unregister("laptop"));
        assert_eq!(d.resolve_table("events").len(), 2);
        assert!(!d.unregister("laptop"));
    }

    #[test]
    fn refresh_lower_replaces_schema() {
        let mut d = dict();
        d.refresh_lower(lower("mart1", "MySQL", &["events", "runs", "newtab"]))
            .unwrap();
        assert!(d.has_table("newtab"));
        assert!(d.refresh_lower(lower("unknown", "MySQL", &["x"])).is_err());
    }

    #[test]
    fn entry_and_columns() {
        let d = dict();
        assert!(d.entry("mart1").unwrap().url.starts_with("mysql://"));
        assert!(d.entry("none").is_err());
        assert_eq!(d.columns_of("events").unwrap(), vec!["id"]);
        assert!(d.columns_of("none").is_err());
        assert_eq!(d.databases(), vec!["mart1", "mart2"]);
    }
}
