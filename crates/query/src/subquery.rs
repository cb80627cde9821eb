//! Subqueries by reverse lookup (paper Section 7): the inner query runs
//! first, and every outer row probes its result.
//!
//! [`lower_subquery`] reshapes the inner query so each output row is its
//! correlation key followed by a payload, and pairs it with a
//! [`SubqueryCheck`]. An executor binds the inner query's output through the
//! check ([`SubqueryCheck::bind_inner`]), so its gather folds the inner rows
//! — or, for a grouped inner query, the groups HAVING keeps, unsorted —
//! straight into a probe table keyed by the correlation key, and
//! [`SubqueryCheck::finish`] makes that table the [`SubqueryResult`]: no
//! output relation of the inner query is built. Both executors take this one
//! path. [`SubqueryResult::holds`] is the one rule both apply, in SQL
//! three-valued logic; only a TRUE predicate keeps the row. With `S` the
//! inner rows whose key equals the outer row's (none when the outer key holds
//! a NULL, which equals nothing, not even an inner NULL key):
//!
//! | predicate | TRUE iff |
//! |---|---|
//! | `EXISTS` / `NOT EXISTS` | `S` is non-empty / empty |
//! | `x IN S` | `x` is non-NULL and `x ∈ S` |
//! | `x NOT IN S` | `S` is empty, or `x` is non-NULL, `S` holds no NULL and `x ∉ S` |
//! | `x op (SELECT agg ...)` | `x op agg(S)` is TRUE, where `agg(∅)` is 0 for COUNT and NULL otherwise |
//!
//! A grouped inner query of EXISTS or IN is grouped by the correlation
//! columns too, so each of its groups lies within one outer row's `S`.
//! An aggregate without GROUP BY yields exactly one row for every outer row:
//! a correlated `x [NOT] IN` over one is lowered as the scalar `x = agg` (or
//! `x <> agg`), and EXISTS over one is TRUE (NOT EXISTS FALSE) for every
//! outer row, NULL keys included.
//!
//! Analysis rejects HAVING in a scalar subquery, and in a correlated EXISTS or
//! IN over an aggregate without GROUP BY: a key missing from the inner output
//! could then mean either no inner row or a group HAVING dropped, and the two
//! call for different values. It rejects GROUP BY in a scalar subquery, whose
//! groups could be several rows, or none where COUNT's would be 0.
//!
//! Where an outer row is checked — at its table's scan, when the check reads
//! one table, or on joined rows — is each executor's choice. So is whether
//! the inner query first drops the keys no outer row can probe: [`seed`]
//! names the correlation of the scalar subqueries where that is sound.

use crate::analyze::{
    classify, AggClass, Analyzed, Correlation, OutputItem, SubqueryKind, SubqueryPred,
};
use crate::output::{Gather, Keep, Output, Probe};
use std::sync::Arc;
use vcsql_relation::agg::Accumulator;
use vcsql_relation::expr::{BoundExpr, CmpOp, Expr, Row};
use vcsql_relation::{RelError, Value};

type Result<T> = std::result::Result<T, RelError>;

/// A subquery predicate lowered to the reverse-lookup shape: run `sub`, then
/// judge every outer row with `check`.
#[derive(Debug, Clone)]
pub struct LoweredSubquery {
    /// The inner query, reshaped so each output row is the correlation key
    /// followed by the payload: nothing for EXISTS, the selected column for
    /// IN, the aggregate grouped by the key for a scalar comparison.
    pub sub: Analyzed,
    /// How an outer row reads `sub`'s output.
    pub check: SubqueryCheck,
}

/// The outer half of a lowered subquery.
#[derive(Debug, Clone)]
pub struct SubqueryCheck {
    /// Outer columns of the correlation key, in the order of `sub`'s key.
    key: Vec<(usize, usize)>,
    /// The outer value compared with the payload: IN's left side or the
    /// scalar comparison's; `None` for EXISTS.
    lhs: Option<Expr>,
    test: Test,
}

/// Which predicate a check decides.
#[derive(Debug, Clone)]
enum Test {
    Exists {
        negated: bool,
    },
    In {
        negated: bool,
    },
    /// `empty` is the aggregate of no inner rows.
    Cmp {
        op: CmpOp,
        empty: Value,
    },
}

/// Lower a subquery predicate: the inner query selects the correlation
/// columns, then the IN column or the aggregate; a scalar subquery groups by
/// the correlation columns, and so does a grouped inner query of EXISTS or
/// IN, next to its own GROUP BY (see the module docs for the forms over an
/// aggregate without GROUP BY).
pub fn lower_subquery(sq: &SubqueryPred) -> LoweredSubquery {
    let mut sub = (*sq.sub).clone();
    // One inner row per outer row: an aggregate without GROUP BY.
    let one_row = sub.agg_class == AggClass::Scalar;
    let mut corr = &sq.correlations[..];
    let (lhs, test) = match &sq.kind {
        // One row for every outer row, or (uncorrelated) none when HAVING
        // rejects it: the key plays no part, so run it uncorrelated.
        SubqueryKind::Exists { negated } if one_row => {
            corr = &[];
            (None, Test::Exists { negated: *negated })
        }
        SubqueryKind::Exists { negated } => {
            sub.items.clear();
            (None, Test::Exists { negated: *negated })
        }
        SubqueryKind::In { outer_expr, negated } if one_row && !corr.is_empty() => {
            let op = if *negated { CmpOp::Ne } else { CmpOp::Eq };
            (Some(outer_expr.clone()), Test::cmp(&sub, op))
        }
        SubqueryKind::In { outer_expr, negated } => {
            (Some(outer_expr.clone()), Test::In { negated: *negated })
        }
        SubqueryKind::Scalar { outer_expr, op } => (Some(outer_expr.clone()), Test::cmp(&sub, *op)),
    };
    if sub.agg_class != AggClass::NoAgg {
        for c in corr {
            if !sub.group_by.contains(&c.inner) {
                sub.group_by.push(c.inner);
            }
        }
    }
    let key = corr.iter().map(|c| OutputItem::Col {
        table: c.inner.0,
        col: c.inner.1,
        name: format!("k{}_{}", c.inner.0, c.inner.1),
    });
    sub.items.splice(0..0, key);
    sub.agg_class = classify(&sub);
    let key = corr.iter().map(|c| c.outer).collect();
    LoweredSubquery { sub, check: SubqueryCheck { key, lhs, test } }
}

/// The correlation a scalar subquery of `outer` may be seeded through: the
/// inner query need only aggregate the keys that some outer key tuple
/// passing its table's pushed-down filters holds, since no other outer row
/// probes the result. `None` unless the subquery is a scalar comparison with
/// exactly one correlation, the outer key table has a pushed-down filter and
/// the two correlation columns share a type (so equal keys are equal values).
pub fn seed(sq: &SubqueryPred, outer: &Analyzed) -> Option<Correlation> {
    let [c] = sq.correlations[..] else { return None };
    let ty = |a: &Analyzed, (t, col): (usize, usize)| a.tables[t].schema.columns[col].ty;
    let seedable = matches!(sq.kind, SubqueryKind::Scalar { .. })
        && !outer.tables[c.outer.0].filters.is_empty()
        && ty(outer, c.outer) == ty(&sq.sub, c.inner);
    seedable.then_some(c)
}

impl Test {
    /// The scalar comparison `op` against the one aggregate `sub` selects.
    fn cmp(sub: &Analyzed, op: CmpOp) -> Test {
        let OutputItem::Agg { func, .. } = sub.items[0] else {
            unreachable!("analysis admits scalar subqueries of one aggregate")
        };
        let empty = Accumulator::new(func).finish().expect("no input, no overflow");
        Test::Cmp { op, empty }
    }

    /// What the probe table keeps of an inner row's payload.
    fn keep(&self) -> Keep {
        match self {
            Test::Exists { .. } => Keep::Nothing,
            Test::In { .. } => Keep::Set,
            Test::Cmp { .. } => Keep::One,
        }
    }
}

impl SubqueryCheck {
    /// Bind the lowered inner query's output in probe mode: every row or
    /// kept group an executor gathers through it goes to the probe table.
    pub fn bind_inner<'a>(&self, out: Output<'a>) -> Output<'a> {
        out.probing(self.key.len(), self.test.keep())
    }

    /// The result outer rows probe: the probe table of everything the inner
    /// query gathered through an output bound by [`SubqueryCheck::bind_inner`].
    pub fn finish(&self, out: &Output, gather: Gather) -> Result<SubqueryResult> {
        Ok(SubqueryResult { test: self.test.clone(), table: out.probe_table(gather)? })
    }

    /// The outer columns the check reads: the key's, then the left side's.
    pub fn columns(&self, outer: &Analyzed) -> Result<Vec<(usize, usize)>> {
        let mut refs = Vec::new();
        if let Some(e) = &self.lhs {
            e.columns(&mut refs);
        }
        let lhs = refs.iter().map(|c| outer.resolve(c));
        self.key.iter().copied().map(Ok).chain(lhs).collect()
    }

    /// The one outer table every column the check reads lives on, if any:
    /// where an executor may check the table's tuples before joining them.
    pub fn outer_table(&self, outer: &Analyzed) -> Result<Option<usize>> {
        let cols = self.columns(outer)?;
        let first = cols.first().map(|&(t, _)| t);
        Ok(first.filter(|&t| cols.iter().all(|&(u, _)| u == t)))
    }

    /// Bind the check to a row layout: `pos` places an outer column, `bind`
    /// binds the left side.
    pub fn bind(
        &self,
        result: Arc<SubqueryResult>,
        pos: impl Fn((usize, usize)) -> Result<usize>,
        bind: impl Fn(&Expr) -> Result<BoundExpr>,
    ) -> Result<BoundSubquery> {
        Ok(BoundSubquery {
            key: self.key.iter().map(|&c| pos(c)).collect::<Result<_>>()?,
            lhs: self.lhs.as_ref().map(bind).transpose()?,
            result,
        })
    }
}

/// The inner query's output as outer rows see it: for every correlation key
/// without a NULL that some inner row holds, what the predicate reads of
/// those rows' payloads (nothing for EXISTS, their set for IN, the one
/// aggregate for a scalar comparison).
#[derive(Debug)]
pub struct SubqueryResult {
    test: Test,
    table: Probe,
}

impl SubqueryResult {
    /// Whether the predicate is TRUE for an outer row with correlation key
    /// cells `key` and left side `lhs` (see the module table).
    pub fn holds<'v>(
        &self,
        key: impl Iterator<Item = &'v Value> + Clone,
        lhs: Option<&Value>,
    ) -> bool {
        let s = self.table.find(key);
        let x = lhs.unwrap_or(&Value::Null);
        match &self.test {
            &Test::Exists { negated } => s.is_some() != negated,
            &Test::In { negated } => match s {
                None => negated,
                Some(_) if x.is_null() => false,
                Some(g) if self.table.has(g, x) => !negated,
                Some(g) => negated && !self.table.has(g, &Value::Null),
            },
            Test::Cmp { op, empty } => {
                let rhs = s.map_or(empty, |g| self.table.one(g));
                x.sql_cmp(rhs).is_some_and(|o| op.holds(o))
            }
        }
    }
}

/// A [`SubqueryCheck`] bound to one row layout, with its inner result.
pub struct BoundSubquery {
    key: Vec<usize>,
    lhs: Option<BoundExpr>,
    result: Arc<SubqueryResult>,
}

impl BoundSubquery {
    /// Whether `row` passes the check; a left side that fails to evaluate
    /// is the error.
    pub fn passes<R: Row + ?Sized>(&self, row: &R) -> Result<bool> {
        let lhs = self.lhs.as_ref().map(|e| e.eval(row)).transpose()?;
        let key = self.key.iter().map(|&p| row.cell(p).expect("keys are in the row"));
        Ok(self.result.holds(key, lhs.as_ref()))
    }
}
