//! Aggregate functions with incremental accumulators.
//!
//! Accumulators are the building block for all three aggregation styles in
//! the paper (Section 7): *local* aggregation at attribute vertices, *global*
//! and *scalar* aggregation at a global aggregator vertex, and *eager*
//! (pushed-down) partial aggregation. They therefore support `merge`, so
//! partial aggregates computed in parallel (or at different vertices) can be
//! combined associatively.

use crate::error::RelError;
use crate::value::Value;
use crate::Result;
use std::fmt;

/// The aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows, including those with NULL inputs.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL inputs.
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        })
    }
}

/// Running state of one aggregate.
///
/// SUM/AVG accumulate in both integer and float domains and report an `Int`
/// only if every input was an `Int` (SQL-style result typing, close enough
/// for the workloads here). An integer SUM runs in `i128`, so its result
/// does not depend on input order; one outside `i64` fails to finish.
#[derive(Debug, Clone, PartialEq)]
pub enum Accumulator {
    Count(u64),
    Sum { int: i128, float: f64, any_float: bool, nonnull: u64 },
    Avg { sum: f64, nonnull: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Accumulator {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc) -> Accumulator {
        match func {
            AggFunc::CountStar | AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum => Accumulator::Sum { int: 0, float: 0.0, any_float: false, nonnull: 0 },
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, nonnull: 0 },
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
        }
    }

    /// Feed one input value. For `COUNT(*)` callers pass `Value::Int(1)` (or
    /// anything non-NULL); NULL handling for plain `COUNT`/`SUM`/... follows
    /// SQL: NULL inputs are ignored.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            Accumulator::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            Accumulator::Sum { int, float, any_float, nonnull } => match v {
                Value::Null => {}
                Value::Int(i) => {
                    *int += i128::from(*i);
                    *float += *i as f64;
                    *nonnull += 1;
                }
                Value::Float(x) => {
                    *float += *x;
                    *any_float = true;
                    *nonnull += 1;
                }
                other => return Err(RelError::type_mismatch("numeric in SUM", format!("{other}"))),
            },
            Accumulator::Avg { sum, nonnull } => match v.as_f64() {
                Some(x) => {
                    *sum += x;
                    *nonnull += 1;
                }
                None if v.is_null() => {}
                None => return Err(RelError::type_mismatch("numeric in AVG", format!("{v}"))),
            },
            Accumulator::Min(cur) => {
                if !v.is_null()
                    && cur.as_ref().is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Less))
                {
                    *cur = Some(v.clone());
                }
            }
            Accumulator::Max(cur) => {
                if !v.is_null()
                    && cur
                        .as_ref()
                        .is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Greater))
                {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Feed one non-NULL integer: `update(&Value::Int(i))` without the
    /// value. COUNT counts it, SUM adds it to its `i128` (and to the float
    /// total a later FLOAT input would report), AVG to its `f64`.
    #[inline]
    pub fn add_int(&mut self, i: i64) {
        match self {
            Accumulator::Count(n) => *n += 1,
            Accumulator::Sum { int, float, nonnull, .. } => {
                *int += i128::from(i);
                *float += i as f64;
                *nonnull += 1;
            }
            Accumulator::Avg { sum, nonnull } => {
                *sum += i as f64;
                *nonnull += 1;
            }
            Accumulator::Min(_) | Accumulator::Max(_) => {
                self.update(&Value::Int(i)).expect("MIN and MAX take any value")
            }
        }
    }

    /// Feed one non-NULL float: `update(&Value::Float(x))` without the
    /// value.
    #[inline]
    pub fn add_float(&mut self, x: f64) {
        match self {
            Accumulator::Count(n) => *n += 1,
            Accumulator::Sum { float, any_float, nonnull, .. } => {
                *float += x;
                *any_float = true;
                *nonnull += 1;
            }
            Accumulator::Avg { sum, nonnull } => {
                *sum += x;
                *nonnull += 1;
            }
            Accumulator::Min(_) | Accumulator::Max(_) => {
                self.update(&Value::Float(x)).expect("MIN and MAX take any value")
            }
        }
    }

    /// Merge another accumulator of the same function into this one.
    pub fn merge(&mut self, other: &Accumulator) -> Result<()> {
        match (self, other) {
            (Accumulator::Count(a), Accumulator::Count(b)) => *a += b,
            (
                Accumulator::Sum { int, float, any_float, nonnull },
                Accumulator::Sum { int: i2, float: f2, any_float: af2, nonnull: n2 },
            ) => {
                *int += i2;
                *float += f2;
                *any_float |= af2;
                *nonnull += n2;
            }
            (Accumulator::Avg { sum, nonnull }, Accumulator::Avg { sum: s2, nonnull: n2 }) => {
                *sum += s2;
                *nonnull += n2;
            }
            (Accumulator::Min(a), Accumulator::Min(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Less)) {
                        *a = Some(v.clone());
                    }
                }
            }
            (Accumulator::Max(a), Accumulator::Max(b)) => {
                if let Some(v) = b {
                    if a.as_ref().is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Greater))
                    {
                        *a = Some(v.clone());
                    }
                }
            }
            (a, b) => {
                return Err(RelError::Other(format!(
                    "cannot merge accumulators of different kinds: {a:?} vs {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Final value of the aggregate; an integer SUM outside `i64` is an
    /// error.
    pub fn finish(&self) -> Result<Value> {
        Ok(match self {
            Accumulator::Count(n) => Value::Int(*n as i64),
            Accumulator::Sum { int, float, any_float, nonnull } => {
                if *nonnull == 0 {
                    Value::Null
                } else if *any_float {
                    Value::Float(*float)
                } else {
                    let sum = i64::try_from(*int);
                    Value::Int(sum.map_err(|_| RelError::Other("integer overflow in SUM".into()))?)
                }
            }
            Accumulator::Avg { sum, nonnull } => {
                if *nonnull == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *nonnull as f64)
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.clone().unwrap_or(Value::Null),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_ignores_nulls() {
        let mut a = Accumulator::new(AggFunc::Count);
        a.update(&Value::Int(1)).unwrap();
        a.update(&Value::Null).unwrap();
        a.update(&Value::str("x")).unwrap();
        assert_eq!(a.finish().unwrap(), Value::Int(2));
    }

    #[test]
    fn sum_type_follows_inputs() {
        let mut a = Accumulator::new(AggFunc::Sum);
        a.update(&Value::Int(1)).unwrap();
        a.update(&Value::Int(2)).unwrap();
        assert_eq!(a.finish().unwrap(), Value::Int(3));
        a.update(&Value::Float(0.5)).unwrap();
        assert_eq!(a.finish().unwrap(), Value::Float(3.5));
        // SUM of all NULLs is NULL.
        let mut b = Accumulator::new(AggFunc::Sum);
        b.update(&Value::Null).unwrap();
        assert_eq!(b.finish().unwrap(), Value::Null);
    }

    #[test]
    fn integer_sum_never_wraps() {
        let sum = |vals: &[i64]| {
            let mut a = Accumulator::new(AggFunc::Sum);
            vals.iter().try_for_each(|&v| a.update(&Value::Int(v)))?;
            a.finish()
        };
        assert_eq!(sum(&[i64::MAX, 1, -1]), Ok(Value::Int(i64::MAX)));
        assert_eq!(sum(&[-1, 1, i64::MAX]), Ok(Value::Int(i64::MAX)));
        let err = sum(&[i64::MAX, 1]).unwrap_err();
        assert_eq!(err.to_string(), "integer overflow in SUM");
    }

    #[test]
    fn avg_min_max() {
        let mut avg = Accumulator::new(AggFunc::Avg);
        for i in 1..=4 {
            avg.update(&Value::Int(i)).unwrap();
        }
        avg.update(&Value::Null).unwrap();
        assert_eq!(avg.finish().unwrap(), Value::Float(2.5));

        let mut mn = Accumulator::new(AggFunc::Min);
        let mut mx = Accumulator::new(AggFunc::Max);
        for v in [Value::str("b"), Value::str("a"), Value::Null, Value::str("c")] {
            mn.update(&v).unwrap();
            mx.update(&v).unwrap();
        }
        assert_eq!(mn.finish().unwrap(), Value::str("a"));
        assert_eq!(mx.finish().unwrap(), Value::str("c"));
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<Value> = (0..100).map(Value::Int).collect();
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            let mut whole = Accumulator::new(f);
            for v in &data {
                whole.update(v).unwrap();
            }
            let mut left = Accumulator::new(f);
            let mut right = Accumulator::new(f);
            for v in &data[..37] {
                left.update(v).unwrap();
            }
            for v in &data[37..] {
                right.update(v).unwrap();
            }
            left.merge(&right).unwrap();
            assert_eq!(left.finish().unwrap(), whole.finish().unwrap(), "{f}");
        }
    }

    #[test]
    fn merge_kind_mismatch_errors() {
        let mut a = Accumulator::new(AggFunc::Count);
        let b = Accumulator::new(AggFunc::Sum);
        assert!(a.merge(&b).is_err());
    }
}
