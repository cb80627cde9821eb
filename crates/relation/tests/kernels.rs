//! Differential test: the typed row kernels against the interpreter.
//!
//! Seeded random expressions over every `BoundExpr` variant run over rows
//! that mix NULL, INT, FLOAT, STRING, DATE and BOOL cells — mostly of their
//! column's type, sometimes not, so type errors, bails and the interpreted
//! fallback all occur, along with division by zero, `i64` wrap-around and
//! integer SUM overflow. For each expression:
//!
//! * `Predicate::passes` equals `matches!(eval(row), Ok(Bool(true)))`, and
//!   its error is the interpreter's;
//! * feeding the rows through `AggInput::feed` leaves every accumulator
//!   exactly as folding `Accumulator::update` over `eval` does: the same
//!   state, the same result, and the same first error at the same row.

use vcsql_relation::agg::{Accumulator, AggFunc};
use vcsql_relation::expr::{AggInput, ArithOp, BoundExpr, CmpOp, Func, Predicate};
use vcsql_relation::{DataType, Date, RelError, Value};

/// The row layout's column types.
const TYPES: [DataType; 8] = [
    DataType::Int,
    DataType::Int,
    DataType::Float,
    DataType::Float,
    DataType::Str,
    DataType::Str,
    DataType::Date,
    DataType::Bool,
];

/// splitmix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

const SCALARS: [DataType; 5] =
    [DataType::Int, DataType::Float, DataType::Str, DataType::Date, DataType::Bool];

/// A non-NULL value of type `ty`, extremes included.
fn value(rng: &mut Rng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(match rng.below(6) {
            0 => i64::MAX,
            1 => i64::MIN,
            2 => 0,
            3 => i64::MAX / 2 + rng.below(3) as i64,
            _ => rng.below(21) as i64 - 10,
        }),
        DataType::Float => Value::Float(match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => 1e300,
            _ => (rng.below(41) as f64 - 20.0) / 4.0,
        }),
        DataType::Str => Value::str(rng.pick(&["", "a", "ab", "abc", "b%", "é_ü", "Brand#23"])),
        DataType::Date => Value::Date(Date(rng.below(800) as i32 + 9000)),
        DataType::Bool => Value::Bool(rng.chance(50)),
    }
}

/// A cell of column type `ty`: NULL, a value of its type, or now and then
/// one of another type.
fn cell(rng: &mut Rng, ty: DataType) -> Value {
    match rng.below(20) {
        0..=3 => Value::Null,
        4 => {
            let other = rng.pick(&SCALARS);
            value(rng, other)
        }
        _ => value(rng, ty),
    }
}

/// A literal of `ty`, NULL sometimes.
fn lit(rng: &mut Rng, ty: DataType) -> BoundExpr {
    BoundExpr::Lit(if rng.chance(8) { Value::Null } else { value(rng, ty) })
}

fn b(e: BoundExpr) -> Box<BoundExpr> {
    Box::new(e)
}

/// A column of type `ty`, if the layout has one.
fn col(rng: &mut Rng, ty: DataType) -> Option<BoundExpr> {
    let cols: Vec<usize> = (0..TYPES.len()).filter(|&i| TYPES[i] == ty).collect();
    (!cols.is_empty()).then(|| BoundExpr::Col(rng.pick(&cols)))
}

/// An expression meant to have type `ty`; one time in ten a node asks
/// for another type instead, which makes ill-typed trees.
fn gen(rng: &mut Rng, ty: DataType, depth: usize) -> BoundExpr {
    let ty = if rng.chance(10) { rng.pick(&SCALARS) } else { ty };
    if depth == 0 || rng.chance(25) {
        return match col(rng, ty) {
            Some(c) if rng.chance(70) => c,
            _ => lit(rng, ty),
        };
    }
    let d = depth - 1;
    match ty {
        DataType::Bool => match rng.below(11) {
            0 | 1 => {
                let t = rng.pick(&SCALARS);
                let op =
                    rng.pick(&[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]);
                let (x, y) = (gen(rng, t, d), gen(rng, t, d));
                if rng.chance(50) {
                    BoundExpr::Cmp(op, b(x), b(y))
                } else {
                    BoundExpr::Cmp(op, b(col(rng, t).unwrap_or(x)), b(lit(rng, t)))
                }
            }
            2 => BoundExpr::And((0..1 + rng.below(3)).map(|_| gen(rng, ty, d)).collect()),
            3 => BoundExpr::Or((0..1 + rng.below(3)).map(|_| gen(rng, ty, d)).collect()),
            4 => BoundExpr::Not(b(gen(rng, ty, d))),
            5 => {
                let t = rng.pick(&SCALARS);
                let expr = b(if rng.chance(70) { col(rng, t).unwrap() } else { gen(rng, t, d) });
                BoundExpr::Between { expr, low: b(lit(rng, t)), high: b(gen(rng, t, d)) }
            }
            6 => {
                let t = rng.pick(&SCALARS);
                let expr = b(if rng.chance(70) { col(rng, t).unwrap() } else { gen(rng, t, d) });
                let list = (0..rng.below(4))
                    .map(|_| {
                        let u = rng.pick(&[t, t, DataType::Int]);
                        value(rng, u)
                    })
                    .collect();
                BoundExpr::InList { expr, list, negated: rng.chance(50) }
            }
            7 => {
                let t = rng.pick(&SCALARS);
                BoundExpr::IsNull { expr: b(gen(rng, t, d)), negated: rng.chance(50) }
            }
            8 => BoundExpr::Like {
                expr: b(gen(rng, DataType::Str, d)),
                pattern: rng.pick(&["%", "a%", "_b%", "%é_ü", "ab_", "%#2%"]).into(),
                negated: rng.chance(50),
            },
            9 => case(rng, ty, d),
            _ => gen_any(rng, d),
        },
        DataType::Int => match rng.below(5) {
            0 | 1 => {
                let op = rng.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul]);
                BoundExpr::Arith(op, b(gen(rng, ty, d)), b(gen(rng, ty, d)))
            }
            2 => BoundExpr::Neg(b(gen(rng, ty, d))),
            3 => {
                let n = if rng.chance(90) { 1 } else { rng.pick(&[0, 2]) };
                let f = rng.pick(&[Func::Year, Func::Month]);
                BoundExpr::Func(f, (0..n).map(|_| gen(rng, DataType::Date, d)).collect())
            }
            _ => case(rng, ty, d),
        },
        DataType::Float => match rng.below(4) {
            0 | 1 => {
                let op = rng.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]);
                let (x, y) = (rng.pick(&[DataType::Int, ty]), rng.pick(&[DataType::Int, ty]));
                BoundExpr::Arith(op, b(gen(rng, x, d)), b(gen(rng, y, d)))
            }
            2 => BoundExpr::Neg(b(gen(rng, ty, d))),
            _ => case(rng, ty, d),
        },
        DataType::Date => {
            let op = rng.pick(&[ArithOp::Add, ArithOp::Sub]);
            BoundExpr::Arith(op, b(gen(rng, ty, d)), b(gen(rng, DataType::Int, d)))
        }
        DataType::Str => case(rng, ty, d),
    }
}

/// A CASE whose values are meant to have type `ty` (NULL literals among
/// them); a value of another type sometimes.
fn case(rng: &mut Rng, ty: DataType, d: usize) -> BoundExpr {
    let value = |rng: &mut Rng| match rng.below(10) {
        0 => BoundExpr::Lit(Value::Null),
        1 => {
            let other = rng.pick(&SCALARS);
            gen(rng, other, d)
        }
        _ => gen(rng, ty, d),
    };
    let branches =
        (0..1 + rng.below(2)).map(|_| (gen(rng, DataType::Bool, d), value(rng))).collect();
    let otherwise = rng.chance(70).then(|| b(value(rng)));
    BoundExpr::Case { branches, otherwise }
}

/// Any node at all, over children of random types.
fn gen_any(rng: &mut Rng, d: usize) -> BoundExpr {
    let t = rng.pick(&SCALARS);
    let u = rng.pick(&SCALARS);
    match rng.below(4) {
        0 => BoundExpr::Arith(
            rng.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]),
            b(gen(rng, t, d)),
            b(gen(rng, u, d)),
        ),
        1 => BoundExpr::And(vec![gen(rng, t, d), gen(rng, u, d)]),
        2 => BoundExpr::Not(b(gen(rng, t, d))),
        _ => BoundExpr::Neg(b(gen(rng, t, d))),
    }
}

/// Fold `rows` into a fresh accumulator of `func` with `feed`, stopping at
/// the first error: the accumulator's state and result, or the error and
/// the row it met.
fn fold(
    func: AggFunc,
    rows: &[Vec<Value>],
    feed: impl Fn(&mut Accumulator, &[Value]) -> Result<(), RelError>,
) -> Result<(String, Result<Value, RelError>), (usize, RelError)> {
    let mut acc = Accumulator::new(func);
    for (i, row) in rows.iter().enumerate() {
        feed(&mut acc, row).map_err(|e| (i, e))?;
    }
    Ok((format!("{acc:?}"), acc.finish()))
}

#[test]
fn kernels_agree_with_the_interpreter() {
    let mut rng = Rng(0x5eed_2026);
    let ty = |p: usize| TYPES.get(p).copied();
    let (mut typed_feeds, mut compiled_preds, mut errors, mut overflows) = (0, 0, 0, 0);
    for case in 0..3000 {
        let rows: Vec<Vec<Value>> = (0..1 + rng.below(40))
            .map(|_| TYPES.iter().map(|&t| cell(&mut rng, t)).collect())
            .collect();
        let want = if rng.chance(40) { DataType::Bool } else { rng.pick(&SCALARS) };
        let depth = 1 + rng.below(4);
        let e = gen(&mut rng, want, depth);

        let pred = Predicate::new(e.clone());
        compiled_preds += usize::from(!format!("{pred:?}").contains("truth: Interpret"));
        for row in &rows {
            let expected = e.eval(row.as_slice()).map(|v| matches!(v, Value::Bool(true)));
            errors += usize::from(expected.is_err());
            assert_eq!(pred.passes(row.as_slice()), expected, "case {case}: {e:?} over {row:?}");
        }

        let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
        for func in funcs {
            let input = AggInput::new(func, Some(e.clone()), ty);
            let shown = format!("{input:?}");
            typed_feeds +=
                usize::from(shown.contains("feed: Int(") || shown.contains("feed: Float("));
            let got = fold(func, &rows, |acc, row| input.feed(acc, row));
            let expected = fold(func, &rows, |acc, row| acc.update(&e.eval(row)?));
            overflows += usize::from(matches!(&expected, Ok((_, Err(_)))));
            assert_eq!(got, expected, "case {case}: {func} of {e:?} over {rows:?}");
        }
        let star = AggInput::new(AggFunc::CountStar, None, ty);
        let got = fold(AggFunc::CountStar, &rows, |acc, row| star.feed(acc, row));
        assert_eq!(got, fold(AggFunc::CountStar, &rows, |acc, _| acc.update(&Value::Int(1))));
    }
    // The generator reaches every path it is meant to test.
    assert!(typed_feeds > 2000, "typed feeds: {typed_feeds}");
    assert!(compiled_preds > 800, "compiled predicates: {compiled_preds}");
    assert!(errors > 1000, "rows that fail: {errors}");
    assert!(overflows > 50, "SUMs that overflow: {overflows}");
}

#[test]
fn integer_sum_overflow_and_wrap_around_match() {
    let ty = |p: usize| TYPES.get(p).copied();
    let rows: Vec<Vec<Value>> = [i64::MAX, 1, i64::MIN, i64::MAX, i64::MAX]
        .iter()
        .map(|&x| {
            let mut row: Vec<Value> = TYPES.iter().map(|_| Value::Null).collect();
            row[0] = Value::Int(x);
            row[1] = Value::Int(2);
            row
        })
        .collect();
    // SUM(c0) leaves i64 after the fourth row; SUM(c0 * c1) wraps per row.
    for e in [
        BoundExpr::Col(0),
        BoundExpr::Arith(ArithOp::Mul, b(BoundExpr::Col(0)), b(BoundExpr::Col(1))),
        BoundExpr::Neg(b(BoundExpr::Col(0))),
        BoundExpr::Arith(ArithOp::Div, b(BoundExpr::Col(0)), b(BoundExpr::Lit(Value::Int(0)))),
    ] {
        let input = AggInput::new(AggFunc::Sum, Some(e.clone()), ty);
        let got = fold(AggFunc::Sum, &rows, |acc, row| input.feed(acc, row));
        let expected = fold(AggFunc::Sum, &rows, |acc, row| acc.update(&e.eval(row)?));
        assert_eq!(got, expected, "{e:?}");
    }
    let input = AggInput::new(AggFunc::Sum, Some(BoundExpr::Col(0)), ty);
    let (_, result) = fold(AggFunc::Sum, &rows, |acc, row| input.feed(acc, row)).unwrap();
    assert_eq!(result.unwrap_err().to_string(), "integer overflow in SUM");
}
