//! Typed row kernels: a statement's predicates and aggregate arguments,
//! compiled once per bind.
//!
//! Interpreting a [`BoundExpr`] builds a [`Value`] at every node of every
//! row: a column read clones its cell, a literal clones itself, and each
//! node's parent matches the result again. The kernels here are the same
//! trees with that traffic compiled away:
//!
//! * a [`Predicate`] yields three-valued truth (`None` is *unknown*) from
//!   borrowed cells for the shapes filters take — a column compared with a
//!   constant or another column; BETWEEN, IN, LIKE and IS NULL over a
//!   column; AND, OR and NOT over those — and interprets any other shape;
//! * an [`AggInput`] evaluates a numeric aggregate argument as a native
//!   `i64` or `f64`, typed from the schema's column types, and hands it to
//!   the accumulator without building a value (`Accumulator::add_int`,
//!   `Accumulator::add_float`).
//!
//! The type rules are the interpreter's: `+`, `-` and `*` of two INTs wrap
//! in `i64`; `/` of two INTs is a FLOAT, NULL when dividing by zero; any
//! other arithmetic of INT and FLOAT is FLOAT, with `/ 0.0` NULL; YEAR and
//! MONTH of a DATE are INTs; a CASE is typed when every branch's value has
//! one type (a NULL literal fits either). Anything else — a CASE whose
//! branches mix types, dates, strings — stays interpreted.
//!
//! A kernel computes exactly what the interpreter would, or it *bails*: on
//! a cell whose variant is not its column's type, a row too short, an
//! operand of AND, OR or NOT that is not a BOOL, LIKE over a non-string,
//! or any interpreted node's error. A bailed row is evaluated again by
//! [`BoundExpr::eval`], so its value or error is the interpreter's by
//! construction; a kernel has no side effect to undo.

use super::{like_match, ArithOp, BoundExpr, CmpOp, Func, Row};
use crate::agg::{Accumulator, AggFunc};
use crate::value::{DataType, Value};
use crate::Result;
use std::cmp::Ordering;

/// A kernel could not decide the row; the interpreter decides it instead.
struct Bail;

type Kernel<T> = std::result::Result<T, Bail>;

/// Cell `i` of `row`; a kernel bails on a row too short for it.
#[inline]
fn cell<R: Row + ?Sized>(row: &R, i: usize) -> Kernel<&Value> {
    row.cell(i).ok_or(Bail)
}

/// The value of `e` when it is the same at every row: its evaluation
/// reads no column. An expression that reads a column fails on the empty
/// row; one that fails by itself is left to fail at each row.
fn constant(e: &BoundExpr) -> Option<Value> {
    e.eval(&[] as &[Value]).ok()
}

/// `op` with its operands swapped: `lit op cell` is `cell flip(op) lit`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        op => op,
    }
}

/// A WHERE condition (a filter, a residual) compiled once per bind.
#[derive(Debug, Clone)]
pub struct Predicate {
    expr: BoundExpr,
    truth: Truth,
}

impl Predicate {
    /// Compile `expr` as a condition.
    pub fn new(expr: BoundExpr) -> Predicate {
        Predicate { truth: Truth::compile(&expr, false), expr }
    }

    /// Whether `row` passes: SQL `WHERE` keeps a row only when the
    /// condition is *true* (unknown behaves as false). A condition that
    /// fails to evaluate is the error.
    #[inline]
    pub fn passes<R: Row + ?Sized>(&self, row: &R) -> Result<bool> {
        match self.truth.eval(row) {
            Ok(t) => Ok(t == Some(true)),
            Err(Bail) => self.interpret(row),
        }
    }

    /// The interpreter's verdict on `row`, where the kernel bailed.
    #[cold]
    #[inline(never)]
    fn interpret<R: Row + ?Sized>(&self, row: &R) -> Result<bool> {
        Ok(matches!(self.expr.eval(row)?, Value::Bool(true)))
    }
}

/// A three-valued truth kernel.
#[derive(Debug, Clone)]
enum Truth {
    Const(Option<bool>),
    /// `cell op lit`.
    Cmp {
        col: usize,
        op: CmpOp,
        lit: Value,
    },
    /// `cell a op cell b`.
    Cols {
        a: usize,
        op: CmpOp,
        b: usize,
    },
    Between {
        col: usize,
        low: Value,
        high: Value,
    },
    In {
        col: usize,
        list: Box<[Value]>,
        negated: bool,
    },
    Like {
        col: usize,
        pattern: Box<str>,
        negated: bool,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
    And(Box<[Truth]>),
    Or(Box<[Truth]>),
    Not(Box<Truth>),
    /// Any other shape, interpreted. Where `strict` (an operand of AND, OR
    /// or NOT) a value other than a BOOL or NULL is an error; elsewhere (a
    /// condition, a CASE's WHEN) it is not true.
    Interpret {
        expr: BoundExpr,
        strict: bool,
    },
}

impl Truth {
    fn compile(e: &BoundExpr, strict: bool) -> Truth {
        use BoundExpr as E;
        let col_const = |a: &E, b: &E| match a {
            E::Col(col) => Some((*col, constant(b)?)),
            _ => None,
        };
        let col = |e: &E| match e {
            E::Col(col) => Some(*col),
            _ => None,
        };
        match e {
            E::Cmp(op, a, b) => {
                if let Some((col, lit)) = col_const(a, b) {
                    return Truth::Cmp { col, op: *op, lit };
                }
                if let Some((col, lit)) = col_const(b, a) {
                    return Truth::Cmp { col, op: flip(*op), lit };
                }
                if let (Some(a), Some(b)) = (col(a), col(b)) {
                    return Truth::Cols { a, op: *op, b };
                }
            }
            E::And(es) => return Truth::And(es.iter().map(|e| Truth::compile(e, true)).collect()),
            E::Or(es) => return Truth::Or(es.iter().map(|e| Truth::compile(e, true)).collect()),
            E::Not(e) => return Truth::Not(Box::new(Truth::compile(e, true))),
            E::Between { expr, low, high } => {
                if let (Some(col), Some(low), Some(high)) =
                    (col(expr), constant(low), constant(high))
                {
                    return Truth::Between { col, low, high };
                }
            }
            E::InList { expr, list, negated } => {
                if let Some(col) = col(expr) {
                    return Truth::In { col, list: list.as_slice().into(), negated: *negated };
                }
            }
            E::Like { expr, pattern, negated } => {
                if let Some(col) = col(expr) {
                    return Truth::Like {
                        col,
                        pattern: pattern.as_str().into(),
                        negated: *negated,
                    };
                }
            }
            E::IsNull { expr, negated } => {
                if let Some(col) = col(expr) {
                    return Truth::IsNull { col, negated: *negated };
                }
            }
            _ => {}
        }
        match constant(e) {
            Some(Value::Bool(b)) => Truth::Const(Some(b)),
            Some(Value::Null) => Truth::Const(None),
            Some(_) if !strict => Truth::Const(Some(false)),
            _ => Truth::Interpret { expr: e.clone(), strict },
        }
    }

    fn eval<R: Row + ?Sized>(&self, row: &R) -> Kernel<Option<bool>> {
        Ok(match self {
            Truth::Const(t) => *t,
            Truth::Cmp { col, op, lit } => cell(row, *col)?.sql_cmp(lit).map(|o| op.holds(o)),
            Truth::Cols { a, op, b } => {
                let (a, b) = (cell(row, *a)?, cell(row, *b)?);
                a.sql_cmp(b).map(|o| op.holds(o))
            }
            Truth::Between { col, low, high } => {
                let v = cell(row, *col)?;
                match (v.sql_cmp(low), v.sql_cmp(high)) {
                    (Some(a), Some(b)) => Some(a != Ordering::Less && b != Ordering::Greater),
                    _ => None,
                }
            }
            Truth::In { col, list, negated } => {
                let v = cell(row, *col)?;
                if v.is_null() {
                    None
                } else {
                    Some(list.iter().any(|x| v.sql_eq(x) == Some(true)) != *negated)
                }
            }
            Truth::Like { col, pattern, negated } => match cell(row, *col)? {
                Value::Str(s) => Some(like_match(pattern, s) != *negated),
                Value::Null => None,
                _ => return Err(Bail),
            },
            Truth::IsNull { col, negated } => Some(cell(row, *col)?.is_null() != *negated),
            Truth::And(ts) => {
                let mut saw_null = false;
                for t in ts.iter() {
                    match t.eval(row)? {
                        Some(false) => return Ok(Some(false)),
                        Some(true) => {}
                        None => saw_null = true,
                    }
                }
                (!saw_null).then_some(true)
            }
            Truth::Or(ts) => {
                let mut saw_null = false;
                for t in ts.iter() {
                    match t.eval(row)? {
                        Some(true) => return Ok(Some(true)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                (!saw_null).then_some(false)
            }
            Truth::Not(t) => t.eval(row)?.map(|b| !b),
            Truth::Interpret { expr, strict } => interpret(expr, *strict, row)?,
        })
    }
}

/// An interpreted node's truth (see [`Truth::Interpret`]); out of line, so
/// the kernels around it stay small.
#[cold]
#[inline(never)]
fn interpret<R: Row + ?Sized>(expr: &BoundExpr, strict: bool, row: &R) -> Kernel<Option<bool>> {
    match expr.eval(row) {
        Ok(Value::Bool(b)) => Ok(Some(b)),
        Ok(Value::Null) => Ok(None),
        Ok(_) if !strict => Ok(Some(false)),
        _ => Err(Bail),
    }
}

/// A native kernel: its value at a row, `None` for NULL.
trait Native {
    type Out;
    fn eval<R: Row + ?Sized>(&self, row: &R) -> Kernel<Option<Self::Out>>;
}

/// An INT-typed kernel.
#[derive(Debug, Clone)]
enum Int {
    Col(usize),
    Lit(Option<i64>),
    /// `+`, `-` or `*`, wrapping as the interpreter's do.
    Arith(ArithOp, Box<Int>, Box<Int>),
    Neg(Box<Int>),
    /// `YEAR` or `MONTH` of a DATE column.
    Part(Func, usize),
    Case(Box<Case<Int>>),
}

impl Native for Int {
    type Out = i64;

    fn eval<R: Row + ?Sized>(&self, row: &R) -> Kernel<Option<i64>> {
        Ok(match self {
            Int::Col(i) => match cell(row, *i)? {
                Value::Int(x) => Some(*x),
                Value::Null => None,
                _ => return Err(Bail),
            },
            Int::Lit(x) => *x,
            Int::Arith(op, a, b) => match (a.operand(row)?, b.operand(row)?) {
                (Some(x), Some(y)) => Some(match op {
                    ArithOp::Add => x.wrapping_add(y),
                    ArithOp::Sub => x.wrapping_sub(y),
                    ArithOp::Mul => x.wrapping_mul(y),
                    ArithOp::Div => unreachable!("INT / INT is a FLOAT kernel"),
                }),
                _ => None,
            },
            Int::Neg(a) => a.operand(row)?.map(i64::wrapping_neg),
            Int::Part(f, i) => match cell(row, *i)? {
                Value::Date(d) => Some(super::date_part(*f, *d)),
                Value::Null => None,
                _ => return Err(Bail),
            },
            Int::Case(c) => c.eval(row)?,
        })
    }
}

/// A FLOAT-typed kernel.
#[derive(Debug, Clone)]
enum Float {
    Col(usize),
    Lit(Option<f64>),
    /// An operation with a FLOAT operand; dividing by zero is NULL.
    Arith(ArithOp, Box<Float>, Box<Float>),
    Neg(Box<Float>),
    /// An INT operand of a FLOAT operation.
    Int(Box<Int>),
    /// `INT / INT`; dividing by zero is NULL.
    Div(Box<Int>, Box<Int>),
    Case(Box<Case<Float>>),
}

impl Native for Float {
    type Out = f64;

    fn eval<R: Row + ?Sized>(&self, row: &R) -> Kernel<Option<f64>> {
        Ok(match self {
            Float::Col(i) => match cell(row, *i)? {
                Value::Float(x) => Some(*x),
                Value::Null => None,
                _ => return Err(Bail),
            },
            Float::Lit(x) => *x,
            Float::Arith(op, a, b) => match (a.operand(row)?, b.operand(row)?) {
                (Some(x), Some(y)) => match op {
                    ArithOp::Add => Some(x + y),
                    ArithOp::Sub => Some(x - y),
                    ArithOp::Mul => Some(x * y),
                    ArithOp::Div => (y != 0.0).then(|| x / y),
                },
                _ => None,
            },
            Float::Neg(a) => a.operand(row)?.map(|x| -x),
            Float::Int(a) => a.operand(row)?.map(|x| x as f64),
            Float::Div(a, b) => match (a.operand(row)?, b.operand(row)?) {
                (Some(x), Some(y)) => (y != 0).then(|| x as f64 / y as f64),
                _ => None,
            },
            Float::Case(c) => c.eval(row)?,
        })
    }
}

impl Int {
    /// This kernel's value, a column or a literal read without a call: a
    /// call per leaf costs more than the arithmetic around it.
    #[inline(always)]
    fn operand<R: Row + ?Sized>(&self, row: &R) -> Kernel<Option<i64>> {
        match self {
            Int::Col(i) => match cell(row, *i)? {
                Value::Int(x) => Ok(Some(*x)),
                Value::Null => Ok(None),
                _ => Err(Bail),
            },
            Int::Lit(x) => Ok(*x),
            k => k.eval(row),
        }
    }
}

impl Float {
    /// [`Int::operand`] for FLOAT kernels.
    #[inline(always)]
    fn operand<R: Row + ?Sized>(&self, row: &R) -> Kernel<Option<f64>> {
        match self {
            Float::Col(i) => match cell(row, *i)? {
                Value::Float(x) => Ok(Some(*x)),
                Value::Null => Ok(None),
                _ => Err(Bail),
            },
            Float::Lit(x) => Ok(*x),
            k => k.eval(row),
        }
    }
}

/// A CASE whose every value is a kernel of one type.
#[derive(Debug, Clone)]
struct Case<K> {
    branches: Box<[(Truth, K)]>,
    otherwise: Option<K>,
}

impl<K> Case<K> {
    /// The CASE of `branches` and `otherwise` when `value` types each of
    /// its values.
    fn compile(
        branches: &[(BoundExpr, BoundExpr)],
        otherwise: Option<&BoundExpr>,
        value: impl Fn(&BoundExpr) -> Option<K>,
    ) -> Option<Box<Case<K>>> {
        let branches = branches
            .iter()
            .map(|(when, then)| Some((Truth::compile(when, false), value(then)?)))
            .collect::<Option<_>>()?;
        let otherwise = match otherwise {
            Some(e) => Some(value(e)?),
            None => None,
        };
        Some(Box::new(Case { branches, otherwise }))
    }
}

impl<K: Native> Native for Case<K> {
    type Out = K::Out;

    fn eval<R: Row + ?Sized>(&self, row: &R) -> Kernel<Option<K::Out>> {
        for (when, then) in self.branches.iter() {
            if when.eval(row)? == Some(true) {
                return then.eval(row);
            }
        }
        self.otherwise.as_ref().map_or(Ok(None), |k| k.eval(row))
    }
}

/// A numeric expression typed at bind time.
enum Numeric {
    Int(Int),
    Float(Float),
}

impl Numeric {
    /// `e` as a kernel, when `ty` (the type of each row position) types
    /// it by the rules in the module docs.
    fn compile(e: &BoundExpr, ty: &dyn Fn(usize) -> Option<DataType>) -> Option<Numeric> {
        use BoundExpr as E;
        Some(match e {
            E::Col(i) => match ty(*i)? {
                DataType::Int => Numeric::Int(Int::Col(*i)),
                DataType::Float => Numeric::Float(Float::Col(*i)),
                _ => return None,
            },
            E::Lit(Value::Int(x)) => Numeric::Int(Int::Lit(Some(*x))),
            E::Lit(Value::Float(x)) => Numeric::Float(Float::Lit(Some(*x))),
            E::Arith(op, a, b) => match (Numeric::compile(a, ty)?, Numeric::compile(b, ty)?) {
                (Numeric::Int(a), Numeric::Int(b)) if *op == ArithOp::Div => {
                    Numeric::Float(Float::Div(Box::new(a), Box::new(b)))
                }
                (Numeric::Int(a), Numeric::Int(b)) => {
                    Numeric::Int(Int::Arith(*op, Box::new(a), Box::new(b)))
                }
                (a, b) => {
                    Numeric::Float(Float::Arith(*op, Box::new(a.float()), Box::new(b.float())))
                }
            },
            E::Neg(a) => match Numeric::compile(a, ty)? {
                Numeric::Int(a) => Numeric::Int(Int::Neg(Box::new(a))),
                Numeric::Float(a) => Numeric::Float(Float::Neg(Box::new(a))),
            },
            E::Func(f, args) => match args.as_slice() {
                [E::Col(i)] if ty(*i) == Some(DataType::Date) => Numeric::Int(Int::Part(*f, *i)),
                _ => return None,
            },
            E::Case { branches, otherwise } => {
                let otherwise = otherwise.as_deref();
                let int = |v: &E| match v {
                    E::Lit(Value::Null) => Some(Int::Lit(None)),
                    v => match Numeric::compile(v, ty)? {
                        Numeric::Int(k) => Some(k),
                        Numeric::Float(_) => None,
                    },
                };
                let float = |v: &E| match v {
                    E::Lit(Value::Null) => Some(Float::Lit(None)),
                    v => match Numeric::compile(v, ty)? {
                        Numeric::Float(k) => Some(k),
                        Numeric::Int(_) => None,
                    },
                };
                match Case::compile(branches, otherwise, int) {
                    Some(c) => Numeric::Int(Int::Case(c)),
                    None => Numeric::Float(Float::Case(Case::compile(branches, otherwise, float)?)),
                }
            }
            _ => return None,
        })
    }

    /// This kernel as a FLOAT operand.
    fn float(self) -> Float {
        match self {
            Numeric::Int(Int::Lit(x)) => Float::Lit(x.map(|x| x as f64)),
            Numeric::Int(k) => Float::Int(Box::new(k)),
            Numeric::Float(k) => k,
        }
    }
}

/// An aggregate's argument compiled for its accumulator: how a row feeds
/// it.
#[derive(Debug, Clone)]
pub struct AggInput {
    func: AggFunc,
    arg: Option<BoundExpr>,
    feed: Feed,
}

/// How a row reaches an accumulator.
#[derive(Debug, Clone)]
enum Feed {
    /// No argument (`COUNT(*)`): every row counts.
    Row,
    Int(Int),
    Float(Float),
    /// A column fed as its borrowed cell (MIN and MAX, and columns of
    /// types without a kernel).
    Cell(usize),
    /// Anything else: the interpreted value.
    Interpret,
}

impl AggInput {
    /// Compile aggregate `func` of `arg` (`None` for `COUNT(*)`) for rows
    /// whose cell at position `i` is NULL or of type `ty(i)`, where known.
    pub fn new(
        func: AggFunc,
        arg: Option<BoundExpr>,
        ty: impl Fn(usize) -> Option<DataType>,
    ) -> AggInput {
        let feed = match &arg {
            None => Feed::Row,
            Some(BoundExpr::Col(i)) if matches!(func, AggFunc::Min | AggFunc::Max) => {
                Feed::Cell(*i)
            }
            Some(e) => match Numeric::compile(e, &ty) {
                Some(Numeric::Int(k)) => Feed::Int(k),
                Some(Numeric::Float(k)) => Feed::Float(k),
                None => match e {
                    BoundExpr::Col(i) => Feed::Cell(*i),
                    _ => Feed::Interpret,
                },
            },
        };
        AggInput { func, arg, feed }
    }

    /// The aggregate function.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Fold `row` into `acc`, an accumulator of this input's function:
    /// what `acc.update(&arg.eval(row)?)` does (`Value::Int(1)` without an
    /// argument), error included.
    #[inline]
    pub fn feed<R: Row + ?Sized>(&self, acc: &mut Accumulator, row: &R) -> Result<()> {
        match &self.feed {
            Feed::Row => acc.add_int(1),
            Feed::Int(k) => match k.operand(row) {
                Ok(Some(x)) => acc.add_int(x),
                Ok(None) => {}
                Err(Bail) => return self.interpret(acc, row),
            },
            Feed::Float(k) => match k.operand(row) {
                Ok(Some(x)) => acc.add_float(x),
                Ok(None) => {}
                Err(Bail) => return self.interpret(acc, row),
            },
            Feed::Cell(i) => match row.cell(*i) {
                Some(v) => return acc.update(v),
                None => return self.interpret(acc, row),
            },
            Feed::Interpret => return self.interpret(acc, row),
        }
        Ok(())
    }

    /// The interpreter's fold of `row`, where there is no kernel or it
    /// bailed; out of line, so `feed` stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn interpret<R: Row + ?Sized>(&self, acc: &mut Accumulator, row: &R) -> Result<()> {
        match &self.arg {
            Some(e) => acc.update(&e.eval(row)?),
            None => acc.update(&Value::Int(1)),
        }
    }
}
