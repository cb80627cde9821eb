//! Scalar expressions with SQL three-valued logic.
//!
//! Expressions come in two forms: a *named* [`Expr`] tree (what the SQL
//! parser produces, referring to columns by optionally-qualified name) and a
//! *bound* [`BoundExpr`] tree in which every column reference has been
//! resolved to a position in a row layout. Binding happens once per query;
//! evaluation is positional and allocation-free for the common cases.

use crate::error::RelError;
use crate::value::Value;
use crate::Result;
use std::cmp::Ordering;
use std::fmt;

/// An (optionally qualified) column reference, e.g. `l.quantity` or `price`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColRef {
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColRef {
    /// Unqualified reference.
    pub fn bare(name: impl Into<String>) -> ColRef {
        ColRef { qualifier: None, name: name.into() }
    }

    /// Qualified reference `qualifier.name`.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> ColRef {
        ColRef { qualifier: Some(qualifier.into()), name: name.into() }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Apply to an ordering result.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// `YEAR(date) -> Int`
    Year,
    /// `MONTH(date) -> Int`
    Month,
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Func::Year => "YEAR",
            Func::Month => "MONTH",
        })
    }
}

/// A scalar expression tree over named column references.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Col(ColRef),
    Lit(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    /// `CASE WHEN c1 THEN e1 [WHEN ...] [ELSE e] END`
    Case {
        branches: Vec<(Expr, Expr)>,
        otherwise: Option<Box<Expr>>,
    },
    /// SQL `LIKE` with `%` and `_` wildcards.
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)` over literal lists.
    InList {
        expr: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Func(Func, Vec<Expr>),
}

impl Expr {
    /// Shorthand: column reference.
    pub fn col(r: impl Into<ColRef>) -> Expr {
        Expr::Col(r.into())
    }

    /// Shorthand: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Shorthand: `self op other`.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(other))
    }

    /// Collect every column referenced by this expression.
    pub fn columns(&self, out: &mut Vec<ColRef>) {
        match self {
            Expr::Col(c) => out.push(c.clone()),
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.columns(out);
                b.columns(out);
            }
            Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| e.columns(out)),
            Expr::Not(e) | Expr::Neg(e) => e.columns(out),
            Expr::Case { branches, otherwise } => {
                for (c, e) in branches {
                    c.columns(out);
                    e.columns(out);
                }
                if let Some(e) = otherwise {
                    e.columns(out);
                }
            }
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } | Expr::InList { expr, .. } => {
                expr.columns(out)
            }
            Expr::Between { expr, low, high } => {
                expr.columns(out);
                low.columns(out);
                high.columns(out);
            }
            Expr::Func(_, args) => args.iter().for_each(|e| e.columns(out)),
        }
    }

    /// Resolve every column reference through `resolver`, producing a
    /// positional [`BoundExpr`].
    pub fn bind(&self, resolver: &impl Fn(&ColRef) -> Result<usize>) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(c) => BoundExpr::Col(resolver(c)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                BoundExpr::Cmp(*op, Box::new(a.bind(resolver)?), Box::new(b.bind(resolver)?))
            }
            Expr::And(es) => {
                BoundExpr::And(es.iter().map(|e| e.bind(resolver)).collect::<Result<_>>()?)
            }
            Expr::Or(es) => {
                BoundExpr::Or(es.iter().map(|e| e.bind(resolver)).collect::<Result<_>>()?)
            }
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(resolver)?)),
            Expr::Arith(op, a, b) => {
                BoundExpr::Arith(*op, Box::new(a.bind(resolver)?), Box::new(b.bind(resolver)?))
            }
            Expr::Neg(e) => BoundExpr::Neg(Box::new(e.bind(resolver)?)),
            Expr::Case { branches, otherwise } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, e)| Ok((c.bind(resolver)?, e.bind(resolver)?)))
                    .collect::<Result<_>>()?,
                otherwise: match otherwise {
                    Some(e) => Some(Box::new(e.bind(resolver)?)),
                    None => None,
                },
            },
            Expr::Like { expr, pattern, negated } => BoundExpr::Like {
                expr: Box::new(expr.bind(resolver)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList { expr, list, negated } => BoundExpr::InList {
                expr: Box::new(expr.bind(resolver)?),
                list: list.clone(),
                negated: *negated,
            },
            Expr::Between { expr, low, high } => BoundExpr::Between {
                expr: Box::new(expr.bind(resolver)?),
                low: Box::new(low.bind(resolver)?),
                high: Box::new(high.bind(resolver)?),
            },
            Expr::IsNull { expr, negated } => {
                BoundExpr::IsNull { expr: Box::new(expr.bind(resolver)?), negated: *negated }
            }
            Expr::Func(f, args) => {
                BoundExpr::Func(*f, args.iter().map(|e| e.bind(resolver)).collect::<Result<_>>()?)
            }
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Lit(Value::Date(d)) => write!(f, "DATE '{d}'"),
            // Floats keep a decimal point so the literal reparses as FLOAT.
            Expr::Lit(Value::Float(x)) if x.fract() == 0.0 => write!(f, "{x:.1}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Arith(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Case { branches, otherwise } => {
                write!(f, "CASE")?;
                for (c, e) in branches {
                    write!(f, " WHEN {c} THEN {e}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Like { expr, pattern, negated } => {
                write!(f, "({expr} {}LIKE '{pattern}')", if *negated { "NOT " } else { "" })
            }
            Expr::InList { expr, list, negated } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "'{s}'")?,
                        Value::Date(d) => write!(f, "DATE '{d}'")?,
                        Value::Float(x) if x.fract() == 0.0 => write!(f, "{x:.1}")?,
                        other => write!(f, "{other}")?,
                    }
                }
                write!(f, "))")
            }
            Expr::Between { expr, low, high } => write!(f, "({expr} BETWEEN {low} AND {high})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Func(func, args) => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An expression with column references resolved to row positions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Col(usize),
    Lit(Value),
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    And(Vec<BoundExpr>),
    Or(Vec<BoundExpr>),
    Not(Box<BoundExpr>),
    Arith(ArithOp, Box<BoundExpr>, Box<BoundExpr>),
    Neg(Box<BoundExpr>),
    Case { branches: Vec<(BoundExpr, BoundExpr)>, otherwise: Option<Box<BoundExpr>> },
    Like { expr: Box<BoundExpr>, pattern: String, negated: bool },
    InList { expr: Box<BoundExpr>, list: Vec<Value>, negated: bool },
    Between { expr: Box<BoundExpr>, low: Box<BoundExpr>, high: Box<BoundExpr> },
    IsNull { expr: Box<BoundExpr>, negated: bool },
    Func(Func, Vec<BoundExpr>),
}

impl BoundExpr {
    /// Evaluate against a positional row. NULL propagates per SQL semantics;
    /// logical operators use three-valued logic (represented as
    /// `Value::Null` for *unknown*).
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        Ok(match self {
            BoundExpr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| RelError::Other(format!("row too short for column #{i}")))?,
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                match va.sql_cmp(&vb) {
                    Some(ord) => Value::Bool(op.holds(ord)),
                    None => Value::Null,
                }
            }
            BoundExpr::And(es) => {
                let mut saw_null = false;
                for e in es {
                    match e.eval(row)? {
                        Value::Bool(false) => return Ok(Value::Bool(false)),
                        Value::Bool(true) => {}
                        Value::Null => saw_null = true,
                        other => {
                            return Err(RelError::type_mismatch("BOOL in AND", format!("{other}")))
                        }
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(true)
                }
            }
            BoundExpr::Or(es) => {
                let mut saw_null = false;
                for e in es {
                    match e.eval(row)? {
                        Value::Bool(true) => return Ok(Value::Bool(true)),
                        Value::Bool(false) => {}
                        Value::Null => saw_null = true,
                        other => {
                            return Err(RelError::type_mismatch("BOOL in OR", format!("{other}")))
                        }
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                }
            }
            BoundExpr::Not(e) => match e.eval(row)? {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                other => return Err(RelError::type_mismatch("BOOL in NOT", format!("{other}"))),
            },
            BoundExpr::Arith(op, a, b) => arith(*op, &a.eval(row)?, &b.eval(row)?)?,
            BoundExpr::Neg(e) => match e.eval(row)? {
                Value::Int(i) => Value::Int(-i),
                Value::Float(x) => Value::Float(-x),
                Value::Null => Value::Null,
                other => {
                    return Err(RelError::type_mismatch("numeric in negation", format!("{other}")))
                }
            },
            BoundExpr::Case { branches, otherwise } => {
                for (cond, then) in branches {
                    if matches!(cond.eval(row)?, Value::Bool(true)) {
                        return then.eval(row);
                    }
                }
                match otherwise {
                    Some(e) => e.eval(row)?,
                    None => Value::Null,
                }
            }
            BoundExpr::Like { expr, pattern, negated } => match expr.eval(row)? {
                Value::Str(s) => {
                    let m = like_match(pattern, &s);
                    Value::Bool(m != *negated)
                }
                Value::Null => Value::Null,
                other => return Err(RelError::type_mismatch("STRING in LIKE", format!("{other}"))),
            },
            BoundExpr::InList { expr, list, negated } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let found = list.iter().any(|x| v.sql_eq(x) == Some(true));
                Value::Bool(found != *negated)
            }
            BoundExpr::Between { expr, low, high } => {
                let v = expr.eval(row)?;
                let (lo, hi) = (low.eval(row)?, high.eval(row)?);
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        Value::Bool(a != Ordering::Less && b != Ordering::Greater)
                    }
                    _ => Value::Null,
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                Value::Bool(expr.eval(row)?.is_null() != *negated)
            }
            BoundExpr::Func(f, args) => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect::<Result<_>>()?;
                eval_func(*f, &vals)?
            }
        })
    }

    /// Evaluate as a predicate: SQL `WHERE` keeps a row only when the
    /// condition is *true* (unknown behaves as false).
    pub fn passes(&self, row: &[Value]) -> Result<bool> {
        Ok(matches!(self.eval(row)?, Value::Bool(true)))
    }
}

fn arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    use Value::*;
    Ok(match (a, b) {
        (Null, _) | (_, Null) => Null,
        (Int(x), Int(y)) => match op {
            ArithOp::Add => Int(x.wrapping_add(*y)),
            ArithOp::Sub => Int(x.wrapping_sub(*y)),
            ArithOp::Mul => Int(x.wrapping_mul(*y)),
            ArithOp::Div => {
                if *y == 0 {
                    Null
                } else {
                    Float(*x as f64 / *y as f64)
                }
            }
        },
        // Date ± integer days.
        (Date(d), Int(n)) if matches!(op, ArithOp::Add | ArithOp::Sub) => {
            let days = if op == ArithOp::Sub { -*n } else { *n };
            Date(d.add_days(days as i32))
        }
        _ => {
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(RelError::type_mismatch(
                        "numeric operands",
                        format!("{a} {op} {b}"),
                    ))
                }
            };
            match op {
                ArithOp::Add => Float(x + y),
                ArithOp::Sub => Float(x - y),
                ArithOp::Mul => Float(x * y),
                ArithOp::Div => {
                    if y == 0.0 {
                        Null
                    } else {
                        Float(x / y)
                    }
                }
            }
        }
    })
}

fn eval_func(f: Func, args: &[Value]) -> Result<Value> {
    match f {
        Func::Year | Func::Month => {
            let [v] = args else {
                return Err(RelError::Other(format!("{f} takes exactly one argument")));
            };
            match v {
                Value::Date(d) => {
                    Ok(Value::Int(if f == Func::Year { d.year() as i64 } else { d.month() as i64 }))
                }
                Value::Null => Ok(Value::Null),
                other => Err(RelError::type_mismatch("DATE", format!("{other}"))),
            }
        }
    }
}

/// SQL `LIKE` matcher supporting `%` (any run) and `_` (any single char).
/// Classic two-pointer algorithm with backtracking to the last `%`.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut star_ti) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = pi;
            star_ti = ti;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            star_ti += 1;
            ti = star_ti;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;

    fn bind_two(e: &Expr) -> BoundExpr {
        // Row layout: [a, b]
        e.bind(&|c: &ColRef| match c.name.as_str() {
            "a" => Ok(0),
            "b" => Ok(1),
            _ => Err(RelError::UnknownColumn(c.name.clone())),
        })
        .unwrap()
    }

    #[test]
    fn comparison_and_3vl() {
        let e = Expr::col(ColRef::bare("a")).cmp(CmpOp::Lt, Expr::lit(Value::Int(5)));
        let b = bind_two(&e);
        assert_eq!(b.eval(&[Value::Int(3), Value::Null]).unwrap(), Value::Bool(true));
        assert_eq!(b.eval(&[Value::Int(7), Value::Null]).unwrap(), Value::Bool(false));
        assert_eq!(b.eval(&[Value::Null, Value::Null]).unwrap(), Value::Null);
        assert!(!b.passes(&[Value::Null, Value::Null]).unwrap());
    }

    #[test]
    fn and_or_three_valued() {
        let tru = Expr::Lit(Value::Bool(true));
        let unknown = Expr::Lit(Value::Null).cmp(CmpOp::Eq, Expr::lit(Value::Int(1)));
        let fals = Expr::Lit(Value::Bool(false));
        let row: &[Value] = &[];
        // false AND unknown = false
        let e = Expr::And(vec![fals.clone(), unknown.clone()]);
        assert_eq!(e.bind(&|_| Ok(0)).unwrap().eval(row).unwrap(), Value::Bool(false));
        // true AND unknown = unknown
        let e = Expr::And(vec![tru.clone(), unknown.clone()]);
        assert_eq!(e.bind(&|_| Ok(0)).unwrap().eval(row).unwrap(), Value::Null);
        // true OR unknown = true
        let e = Expr::Or(vec![unknown.clone(), tru.clone()]);
        assert_eq!(e.bind(&|_| Ok(0)).unwrap().eval(row).unwrap(), Value::Bool(true));
        // false OR unknown = unknown
        let e = Expr::Or(vec![fals, unknown]);
        assert_eq!(e.bind(&|_| Ok(0)).unwrap().eval(row).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_coercion() {
        let e = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::col(ColRef::bare("a"))),
            Box::new(Expr::Arith(
                ArithOp::Sub,
                Box::new(Expr::lit(Value::Float(1.0))),
                Box::new(Expr::col(ColRef::bare("b"))),
            )),
        );
        let b = bind_two(&e);
        let v = b.eval(&[Value::Float(100.0), Value::Float(0.1)]).unwrap();
        match v {
            Value::Float(x) => assert!((x - 90.0).abs() < 1e-9),
            other => panic!("expected float, got {other:?}"),
        }
        // Int division yields float; division by zero yields NULL.
        let d = BoundExpr::Arith(
            ArithOp::Div,
            Box::new(BoundExpr::Lit(Value::Int(7))),
            Box::new(BoundExpr::Lit(Value::Int(2))),
        );
        assert_eq!(d.eval(&[]).unwrap(), Value::Float(3.5));
        let z = BoundExpr::Arith(
            ArithOp::Div,
            Box::new(BoundExpr::Lit(Value::Int(7))),
            Box::new(BoundExpr::Lit(Value::Int(0))),
        );
        assert_eq!(z.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn date_plus_days_and_year() {
        let d = Date::from_ymd(1995, 12, 30);
        let e = BoundExpr::Arith(
            ArithOp::Add,
            Box::new(BoundExpr::Lit(Value::Date(d))),
            Box::new(BoundExpr::Lit(Value::Int(3))),
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Date(Date::from_ymd(1996, 1, 2)));
        let y = BoundExpr::Func(Func::Year, vec![BoundExpr::Lit(Value::Date(d))]);
        assert_eq!(y.eval(&[]).unwrap(), Value::Int(1995));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("%green%", "forest green metallic"));
        assert!(like_match("PROMO%", "PROMO BURNISHED"));
        assert!(!like_match("PROMO%", "STANDARD PROMO"));
        assert!(like_match("_b%", "abcd"));
        assert!(!like_match("_b%", "bacd"));
        assert!(like_match("%", ""));
        assert!(like_match("a%b%c", "a-xx-b-yy-c"));
        assert!(!like_match("abc", "ab"));
        assert!(like_match("a_c", "abc"));
    }

    #[test]
    fn case_in_between_isnull() {
        let case = BoundExpr::Case {
            branches: vec![(
                BoundExpr::Cmp(
                    CmpOp::Gt,
                    Box::new(BoundExpr::Col(0)),
                    Box::new(BoundExpr::Lit(Value::Int(0))),
                ),
                BoundExpr::Lit(Value::str("pos")),
            )],
            otherwise: Some(Box::new(BoundExpr::Lit(Value::str("nonpos")))),
        };
        assert_eq!(case.eval(&[Value::Int(3)]).unwrap(), Value::str("pos"));
        assert_eq!(case.eval(&[Value::Int(-1)]).unwrap(), Value::str("nonpos"));

        let inl = BoundExpr::InList {
            expr: Box::new(BoundExpr::Col(0)),
            list: vec![Value::Int(1), Value::Int(2)],
            negated: false,
        };
        assert_eq!(inl.eval(&[Value::Int(2)]).unwrap(), Value::Bool(true));
        assert_eq!(inl.eval(&[Value::Int(9)]).unwrap(), Value::Bool(false));
        assert_eq!(inl.eval(&[Value::Null]).unwrap(), Value::Null);

        let btw = BoundExpr::Between {
            expr: Box::new(BoundExpr::Col(0)),
            low: Box::new(BoundExpr::Lit(Value::Int(1))),
            high: Box::new(BoundExpr::Lit(Value::Int(10))),
        };
        assert_eq!(btw.eval(&[Value::Int(10)]).unwrap(), Value::Bool(true));
        assert_eq!(btw.eval(&[Value::Int(11)]).unwrap(), Value::Bool(false));

        let isn = BoundExpr::IsNull { expr: Box::new(BoundExpr::Col(0)), negated: false };
        assert_eq!(isn.eval(&[Value::Null]).unwrap(), Value::Bool(true));
        assert_eq!(isn.eval(&[Value::Int(0)]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn display_roundtrippable_shape() {
        let e = Expr::And(vec![
            Expr::col(ColRef::qualified("l", "qty")).cmp(CmpOp::Ge, Expr::lit(Value::Int(1))),
            Expr::Like {
                expr: Box::new(Expr::col(ColRef::bare("name"))),
                pattern: "%green%".into(),
                negated: false,
            },
        ]);
        let s = e.to_string();
        assert!(s.contains("l.qty >= 1"), "{s}");
        assert!(s.contains("LIKE '%green%'"), "{s}");
    }
}
