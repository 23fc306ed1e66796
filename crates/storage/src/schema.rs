//! Table schemas: ordered, typed, named columns with constraints.

use crate::error::StorageError;
use crate::value::{DataType, Value};
use crate::Result;

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Physical column name (case-preserved; lookups are case-insensitive).
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// Whether NULL is permitted.
    pub nullable: bool,
    /// Whether values must be unique (PRIMARY KEY / UNIQUE).
    pub unique: bool,
}

impl ColumnDef {
    /// A nullable, non-unique column — the common case.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: true,
            unique: false,
        }
    }

    /// Mark the column NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }

    /// Mark the column UNIQUE (implies an index in [`crate::Table`]).
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// Shorthand for a NOT NULL UNIQUE column, i.e. a primary key.
    pub fn primary_key(self) -> Self {
        self.not_null().unique()
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema from column definitions. Duplicate column names
    /// (case-insensitive) are rejected.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i]
                .iter()
                .any(|p| p.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(StorageError::Invalid(format!(
                    "duplicate column `{}` in schema",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All column definitions, in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Position of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column definition by case-insensitive name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// The column names, in order.
    pub fn names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Validate a row of values against this schema, applying implicit
    /// widening coercions (INT→FLOAT). Returns the normalized row.
    pub fn check_row(&self, values: Vec<Value>) -> Result<Vec<Value>> {
        if values.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                got: values.len(),
            });
        }
        let mut out = Vec::with_capacity(values.len());
        for (col, v) in self.columns.iter().zip(values) {
            if v.is_null() {
                if !col.nullable {
                    return Err(StorageError::NullViolation(col.name.clone()));
                }
                out.push(Value::Null);
                continue;
            }
            if v.conforms_to(col.data_type) {
                // INT stored in FLOAT columns is widened on write so scans
                // see uniformly typed columns.
                if matches!((&v, col.data_type), (Value::Int(_), DataType::Float)) {
                    out.push(v.coerce(DataType::Float)?);
                } else {
                    out.push(v);
                }
            } else {
                return Err(StorageError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.data_type.name().to_string(),
                    got: v
                        .data_type()
                        .map(|t| t.name().to_string())
                        .unwrap_or_else(|| "NULL".into()),
                });
            }
        }
        Ok(out)
    }

    /// Concatenate two schemas (used for join outputs). Column-name clashes
    /// are allowed here because join outputs are addressed positionally or
    /// with qualified names at the SQL layer.
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Project a subset of columns by position.
    pub fn project(&self, indices: &[usize]) -> Result<Schema> {
        let mut columns = Vec::with_capacity(indices.len());
        for &i in indices {
            let c = self
                .columns
                .get(i)
                .ok_or_else(|| StorageError::Invalid(format!("column index {i} out of range")))?;
            columns.push(c.clone());
        }
        Ok(Schema { columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ColumnDef::new("e_id", DataType::Int).primary_key(),
            ColumnDef::new("energy", DataType::Float),
            ColumnDef::new("tag", DataType::Text).not_null(),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected_case_insensitively() {
        let err = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("A", DataType::Text),
        ])
        .unwrap_err();
        assert!(matches!(err, StorageError::Invalid(_)));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("E_ID"), Some(0));
        assert_eq!(s.column("Energy").unwrap().data_type, DataType::Float);
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn check_row_validates_arity_and_types() {
        let s = sample();
        let ok = s
            .check_row(vec![Value::Int(1), Value::Float(2.0), "x".into()])
            .unwrap();
        assert_eq!(ok.len(), 3);

        assert!(matches!(
            s.check_row(vec![Value::Int(1)]),
            Err(StorageError::ArityMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            s.check_row(vec![Value::Int(1), "no".into(), "x".into()]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn check_row_widens_int_to_float() {
        let s = sample();
        let row = s
            .check_row(vec![Value::Int(1), Value::Int(5), "x".into()])
            .unwrap();
        assert_eq!(row[1], Value::Float(5.0));
    }

    #[test]
    fn check_row_enforces_not_null() {
        let s = sample();
        assert!(matches!(
            s.check_row(vec![Value::Int(1), Value::Null, Value::Null]),
            Err(StorageError::NullViolation(c)) if c == "tag"
        ));
        // nullable column accepts NULL
        let row = s
            .check_row(vec![Value::Int(1), Value::Null, "t".into()])
            .unwrap();
        assert!(row[1].is_null());
    }

    #[test]
    fn concat_and_project() {
        let s = sample();
        let both = s.concat(&s);
        assert_eq!(both.arity(), 6);
        let p = both.project(&[0, 5]).unwrap();
        assert_eq!(p.names(), vec!["e_id".to_string(), "tag".to_string()]);
        assert!(both.project(&[99]).is_err());
    }
}
