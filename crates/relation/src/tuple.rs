//! Tuples and in-memory relations.

use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::fmt;

/// A tuple: a fixed-arity sequence of values.
///
/// Stored as a boxed slice (two words instead of three, per the performance
/// guide) because tuples are the most numerous objects in the system.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(pub Box<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple(values.into_boxed_slice())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field accessor.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Iterate over fields.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// Approximate heap+inline footprint in bytes.
    pub fn deep_size(&self) -> usize {
        std::mem::size_of::<Tuple>() + self.0.iter().map(Value::deep_size).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple::new(v)
    }
}

/// An in-memory bag of tuples with a schema.
#[derive(Debug, Clone)]
pub struct Relation {
    pub schema: Schema,
    pub tuples: Vec<Tuple>,
}

impl Relation {
    /// An empty relation over the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation { schema, tuples: Vec::new() }
    }

    /// A relation populated from tuples; validates arity and column types
    /// (NULLs are allowed in any column).
    pub fn from_tuples(schema: Schema, tuples: Vec<Tuple>) -> Result<Relation> {
        let mut rel = Relation::empty(schema);
        for t in tuples {
            rel.push(t)?;
        }
        Ok(rel)
    }

    /// Append a tuple, checking arity and column types ([`Schema::check`]).
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        self.schema.check(&tuple.0)?;
        self.tuples.push(tuple);
        Ok(())
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Relation name (from the schema).
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Sort tuples (total value order) — handy for order-insensitive
    /// comparisons in tests and for the sort-merge baseline.
    pub fn sorted(mut self) -> Relation {
        self.tuples.sort();
        self
    }

    /// Multiset equality with another relation, ignoring tuple order and
    /// column naming (arity and values must match).
    pub fn same_bag(&self, other: &Relation) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut a: Vec<&Tuple> = self.tuples.iter().collect();
        let mut b: Vec<&Tuple> = other.tuples.iter().collect();
        a.sort();
        b.sort();
        a == b
    }

    /// Approximate footprint in bytes of tuple data (excluding the schema).
    pub fn deep_size(&self) -> usize {
        std::mem::size_of::<Relation>() + self.tuples.iter().map(Tuple::deep_size).sum::<usize>()
    }

    /// Multiset equality up to floating-point rounding: floats compare with
    /// a relative tolerance. Different execution engines accumulate float
    /// SUM/AVG in different orders, so exact equality is too strict for
    /// cross-engine result checks.
    pub fn same_bag_approx(&self, other: &Relation, eps: f64) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut a: Vec<&Tuple> = self.tuples.iter().collect();
        let mut b: Vec<&Tuple> = other.tuples.iter().collect();
        a.sort();
        b.sort();
        a.iter().zip(&b).all(|(x, y)| {
            x.arity() == y.arity()
                && x.values().zip(y.values()).all(|(v, w)| value_approx_eq(v, w, eps))
        })
    }
}

/// Value equality with relative tolerance on floats.
fn value_approx_eq(a: &crate::value::Value, b: &crate::value::Value, eps: f64) -> bool {
    use crate::value::Value::*;
    match (a, b) {
        (Float(x), Float(y)) => {
            (x - y).abs() <= eps * x.abs().max(y.abs()).max(1.0) || (x.is_nan() && y.is_nan())
        }
        // Int/Float cross: aggregates may type a sum differently per engine
        // when inputs mix; compare numerically.
        (Int(x), Float(y)) | (Float(y), Int(x)) => (*x as f64 - y).abs() <= eps * y.abs().max(1.0),
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new("r", vec![Column::new("a", DataType::Int), Column::new("b", DataType::Str)])
    }

    #[test]
    fn push_validates_arity_and_types() {
        let mut r = Relation::empty(schema());
        r.push(Tuple::new(vec![Value::Int(1), Value::str("x")])).unwrap();
        r.push(Tuple::new(vec![Value::Null, Value::Null])).unwrap(); // NULLs ok
        assert!(r.push(Tuple::new(vec![Value::Int(1)])).is_err());
        assert!(r.push(Tuple::new(vec![Value::str("bad"), Value::str("x")])).is_err());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn same_bag_ignores_order_but_counts_duplicates() {
        let t1 = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        let t2 = Tuple::new(vec![Value::Int(2), Value::str("y")]);
        let a = Relation::from_tuples(schema(), vec![t1.clone(), t2.clone(), t1.clone()]).unwrap();
        let b = Relation::from_tuples(schema(), vec![t2.clone(), t1.clone(), t1.clone()]).unwrap();
        let c = Relation::from_tuples(schema(), vec![t2.clone(), t2.clone(), t1.clone()]).unwrap();
        assert!(a.same_bag(&b));
        assert!(!a.same_bag(&c));
    }
}
