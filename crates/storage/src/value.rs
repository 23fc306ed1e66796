//! Typed values and the engine's scalar type system.
//!
//! The federation layer must translate between vendor type systems (Oracle's
//! `NUMBER`/`VARCHAR2`, MySQL's `BIGINT`/`TEXT`, …); this module defines the
//! *engine-neutral* types that every vendor dialect maps onto.

use crate::error::StorageError;
use std::cmp::Ordering;
use std::fmt;

/// Engine-neutral scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// Raw bytes (BLOB).
    Bytes,
}

impl DataType {
    /// Canonical engine-neutral name of the type.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Bytes => "BYTES",
        }
    }

    /// Parse an engine-neutral type name (as emitted by [`DataType::name`]).
    pub fn parse(s: &str) -> Option<DataType> {
        match s.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => Some(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Some(DataType::Float),
            "TEXT" | "VARCHAR" | "STRING" | "CHAR" => Some(DataType::Text),
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "BYTES" | "BLOB" | "RAW" => Some(DataType::Bytes),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar value.
///
/// `Value` carries its own runtime type; `Null` is typeless, as in SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// The runtime type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    /// True if this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value can be stored in a column of type `ty` without
    /// conversion. NULL is storable in any (nullable) column; INT widens to
    /// FLOAT implicitly, as every supported vendor allows.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int)
                | (Value::Int(_), DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Bytes(_), DataType::Bytes)
        )
    }

    /// Coerce this value to the given type, following the implicit-widening
    /// rules the vendor adapters rely on (INT→FLOAT, anything→TEXT render,
    /// numeric TEXT→numeric).
    pub fn coerce(&self, ty: DataType) -> Result<Value, StorageError> {
        let fail = || StorageError::Coercion {
            from: self
                .data_type()
                .map(|t| t.name().to_string())
                .unwrap_or_else(|| "NULL".into()),
            to: ty.name().to_string(),
        };
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (v, t) if v.conforms_to(t) && !matches!((v, t), (Value::Int(_), DataType::Float)) => {
                Ok(v.clone())
            }
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Float(x), DataType::Int) if x.fract() == 0.0 => Ok(Value::Int(*x as i64)),
            (Value::Text(s), DataType::Int) => {
                s.trim().parse::<i64>().map(Value::Int).map_err(|_| fail())
            }
            (Value::Text(s), DataType::Float) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| fail()),
            (Value::Text(s), DataType::Bool) => match s.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Ok(Value::Bool(true)),
                "false" | "f" | "0" => Ok(Value::Bool(false)),
                _ => Err(fail()),
            },
            (v, DataType::Text) => Ok(Value::Text(v.render())),
            (Value::Bool(b), DataType::Int) => Ok(Value::Int(i64::from(*b))),
            _ => Err(fail()),
        }
    }

    /// Render the value as a plain string (no quoting) — the form used for
    /// staging files and result display.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    format!("{x:.1}")
                } else {
                    format!("{x}")
                }
            }
            Value::Text(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Bytes(b) => {
                let mut s = String::with_capacity(2 + b.len() * 2);
                s.push_str("0x");
                for byte in b {
                    s.push_str(&format!("{byte:02x}"));
                }
                s
            }
        }
    }

    /// Exact serialized size of this value in the Clarens wire codec
    /// (tag byte + payload; strings carry a 4-byte length prefix); used by
    /// the virtual-time network model to cost transfers, matching how the
    /// paper plots transfer time against payload kilobytes. Bytes cross
    /// the wire rendered as a `0x…` hex string, so they cost 2 wire bytes
    /// per payload byte plus the `0x` and string framing.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Float(_) => 9,
            Value::Text(s) => s.len() + 5,
            Value::Bool(_) => 2,
            Value::Bytes(b) => 2 * b.len() + 7,
        }
    }

    /// SQL three-valued-logic comparison: NULL compares as unknown (`None`).
    ///
    /// Numeric values compare across INT/FLOAT. Values of incomparable types
    /// return `None`, mirroring how the mediator treats cross-vendor type
    /// mismatches (the row is filtered out rather than causing an error).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Bytes(a), Value::Bytes(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering for index keys and ORDER BY: NULLs sort first, then by
    /// type class, then by value. Unlike [`Value::sql_cmp`], this is total:
    /// a NaN sorts after every other number and equal to another NaN.
    pub fn index_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
                Value::Bytes(_) => 4,
            }
        }
        match self.sql_cmp(other) {
            Some(ord) => ord,
            None => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                _ => {
                    let (ca, cb) = (class(self), class(other));
                    if ca != cb {
                        ca.cmp(&cb)
                    } else {
                        // Same class but incomparable: only NaN floats.
                        let nan = |v: &Value| matches!(v, Value::Float(x) if x.is_nan());
                        nan(self).cmp(&nan(other))
                    }
                }
            },
        }
    }

    /// Equality under SQL semantics (NULL = anything is unknown → false).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_names_round_trip() {
        for ty in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
            DataType::Bytes,
        ] {
            assert_eq!(DataType::parse(ty.name()), Some(ty));
        }
        assert_eq!(DataType::parse("varchar"), Some(DataType::Text));
        assert_eq!(DataType::parse("NUMBERISH"), None);
    }

    #[test]
    fn null_conforms_everywhere() {
        for ty in [DataType::Int, DataType::Float, DataType::Text] {
            assert!(Value::Null.conforms_to(ty));
        }
    }

    #[test]
    fn int_widens_to_float() {
        assert!(Value::Int(3).conforms_to(DataType::Float));
        assert_eq!(
            Value::Int(3).coerce(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn text_coerces_to_numerics() {
        assert_eq!(
            Value::Text(" 42 ".into()).coerce(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Text("2.5".into()).coerce(DataType::Float).unwrap(),
            Value::Float(2.5)
        );
        assert!(Value::Text("abc".into()).coerce(DataType::Int).is_err());
    }

    #[test]
    fn everything_renders_to_text() {
        assert_eq!(
            Value::Int(7).coerce(DataType::Text).unwrap(),
            Value::Text("7".into())
        );
        assert_eq!(
            Value::Bool(true).coerce(DataType::Text).unwrap(),
            Value::Text("true".into())
        );
    }

    #[test]
    fn bytes_render_as_hex() {
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).render(), "0xdead");
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn sql_cmp_mixed_numerics() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn index_cmp_is_total_with_nulls_first() {
        assert_eq!(Value::Null.index_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Null.index_cmp(&Value::Null), Ordering::Equal);
        assert_eq!(
            Value::Text("a".into()).index_cmp(&Value::Int(9)),
            Ordering::Greater
        );
        // NaN: after every number, equal to itself, still a number.
        let nan = Value::Float(f64::NAN);
        assert_eq!(
            nan.index_cmp(&Value::Float(f64::INFINITY)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(7).index_cmp(&nan), Ordering::Less);
        assert_eq!(nan.index_cmp(&nan), Ordering::Equal);
        assert_eq!(nan.index_cmp(&Value::Text("".into())), Ordering::Less);
    }

    #[test]
    fn wire_size_tracks_encoded_payload() {
        // Tag byte + payload, matching the Clarens codec exactly.
        assert_eq!(Value::Int(0).wire_size(), 9);
        assert_eq!(Value::Float(1.5).wire_size(), 9);
        assert_eq!(Value::Text("abcd".into()).wire_size(), 9);
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Bool(true).wire_size(), 2);
        // Bytes cross as the hex string "0xDEAD…": 2 chars per byte,
        // plus "0x" and the 5-byte string framing.
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).wire_size(), 11);
    }

    #[test]
    fn float_render_keeps_integral_marker() {
        assert_eq!(Value::Float(3.0).render(), "3.0");
        assert_eq!(Value::Float(3.25).render(), "3.25");
    }
}
