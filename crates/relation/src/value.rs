//! SQL-style values with NULL-aware comparison semantics.
//!
//! [`Value`] implements `Eq`/`Hash`/`Ord` as a *total* order so values can be
//! used as keys in hash maps and B-tree-style indexes (NULL sorts first,
//! floats compare by IEEE bits for NaN, cross-type ranks are fixed). SQL
//! three-valued-logic comparison — where `NULL` compares as unknown and
//! integers coerce to floats — is provided separately by [`Value::sql_cmp`].

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A calendar date stored as days since 1970-01-01 (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

impl Date {
    /// Build a date from year/month/day. Panics on out-of-range month/day.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Date {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        // Days-from-civil algorithm (Howard Hinnant), exact for all years.
        let y = if month <= 2 { year - 1 } else { year };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64; // [0, 399]
        let mp = ((month + 9) % 12) as i64; // [0, 11], Mar=0
        let doy = (153 * mp + 2) / 5 + day as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        Date((era as i64 * 146_097 + doe - 719_468) as i32)
    }

    /// Decompose into (year, month, day).
    pub fn to_ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
    }

    /// Calendar year of this date.
    pub fn year(self) -> i32 {
        self.to_ymd().0
    }

    /// Calendar month (1-12) of this date.
    pub fn month(self) -> u32 {
        self.to_ymd().1
    }

    /// This date shifted by a whole number of days.
    pub fn add_days(self, days: i32) -> Date {
        Date(self.0.wrapping_add(days))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A single attribute value.
///
/// Strings are `Arc<str>` so tuples and messages can be cloned cheaply; a
/// TAG-join collection phase clones attribute values into intermediate
/// tables many times.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Date(Date),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Bytes this value occupies in the wire model every byte count in the
    /// workspace is priced with (TAG messages, the Spark shuffle model):
    /// one 8-byte word, plus the 8-byte-aligned payload of a string.
    #[inline]
    pub fn wire_bytes(&self) -> usize {
        8 + match self {
            Value::Str(s) => s.len().div_ceil(8) * 8,
            _ => 0,
        }
    }

    /// The data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True iff this value is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64 (Int and Float only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (Int only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view (Str only).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison with three-valued logic: `None` when either side is
    /// NULL (unknown), numeric coercion between Int and Float, and `None` for
    /// incomparable cross-type pairs.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SQL equality (three-valued): `None` when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Rank used by the total order to compare across variants.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Date(_) => 5,
        }
    }

    /// Approximate in-memory footprint of this value in bytes, counting the
    /// enum slot plus any heap payload. Used by the size-accounting
    /// experiments (Fig 14 / Table 7).
    pub fn deep_size(&self) -> usize {
        let heap = match self {
            Value::Str(s) => s.len() + 16, // payload + Arc control block
            _ => 0,
        };
        std::mem::size_of::<Value>() + heap
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            // Bit equality: NaN == NaN, +0 != -0. This gives a lawful Eq,
            // which matters for hashing attribute values.
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.type_rank());
        match self {
            Value::Null => {}
            Value::Bool(b) => state.write_u8(*b as u8),
            Value::Int(i) => state.write_u64(*i as u64),
            Value::Float(f) => state.write_u64(f.to_bits()),
            Value::Str(s) => state.write(s.as_bytes()),
            Value::Date(d) => state.write_u32(d.0 as u32),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL first, then by type rank, then by value (floats by
    /// IEEE bits-aware total order).
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Date(a), Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (1999, 12, 31),
            (2024, 2, 29),
            (1900, 3, 1),
            (2038, 1, 19),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.to_ymd(), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
        assert_eq!(Date::from_ymd(1970, 1, 1).0, 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).0, 1);
    }

    #[test]
    fn date_arithmetic() {
        let d = Date::from_ymd(1995, 1, 31);
        assert_eq!(d.add_days(1), Date::from_ymd(1995, 2, 1));
        assert_eq!(d.year(), 1995);
        assert_eq!(d.month(), 1);
    }

    #[test]
    fn sql_cmp_nulls_and_coercion() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Float(1.5).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(Value::str("a").sql_cmp(&Value::str("b")), Some(Ordering::Less));
        // Cross-type (non-numeric) comparisons are unknown.
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_is_consistent_with_eq() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(7),
            Value::Float(f64::NAN),
            Value::Float(1.25),
            Value::str("abc"),
            Value::Date(Date::from_ymd(2020, 5, 17)),
        ];
        for a in &vals {
            for b in &vals {
                let ord = a.cmp(b);
                assert_eq!(ord == Ordering::Equal, a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn nan_is_hash_and_eq_stable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Float(f64::NAN));
        assert!(set.contains(&Value::Float(f64::NAN)));
        assert!(!set.contains(&Value::Float(0.0)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Date(Date::from_ymd(1996, 1, 2)).to_string(), "1996-01-02");
    }
}
