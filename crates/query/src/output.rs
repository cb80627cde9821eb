//! A statement's output (paper Section 7): GROUP BY, aggregates, HAVING and
//! projection, bound and evaluated in one place for both executors.
//!
//! The paper's local, global and scalar aggregation differ only in where
//! partial groups form; all end in the same grouped output. An executor
//! binds an [`Output`] to the layout of its final rows
//! ([`Analyzed::output`]), folds those rows into a [`Gather`] — in as many
//! pieces, at as many places, as it likes, combined by [`Gather::merge`] and
//! [`Gather::insert`] — and hands the result to [`Output::finish`]. A place
//! that knows its rows form one group folds them into bare accumulators
//! ([`Output::fold`]) and inserts those. The rules, in SQL's terms:
//!
//! * rows with equal group keys form one group, NULL keys included;
//! * aggregates without GROUP BY yield one row even over no input: COUNT 0,
//!   every other aggregate NULL — unless a HAVING predicate rejects it;
//! * a group is kept only when every HAVING predicate is TRUE, so one over a
//!   NULL aggregate drops the group;
//! * a SUM of integers outside `i64`, output or compared by HAVING, is the
//!   error "integer overflow in SUM";
//! * analysis refuses a column, in a non-aggregate output item or a HAVING
//!   right-hand side, that is neither grouped nor on a table whose
//!   single-column primary key is grouped: every row of a group agrees on
//!   what is read from its representative row.
//!
//! Groups leave sorted by key; the rows of a statement without aggregation
//! leave in the order the executor gathered them.

use crate::analyze::{AggClass, Analyzed, OutputItem};
use std::collections::hash_map::Entry;
use vcsql_relation::agg::{Accumulator, AggFunc};
use vcsql_relation::expr::{BoundExpr, CmpOp, ColRef, Expr};
use vcsql_relation::schema::Column;
use vcsql_relation::{DataType, FxHashMap, RelError, Relation, Schema, Tuple, Value};

type Result<T> = std::result::Result<T, RelError>;

/// A statement's output bound to one row layout.
pub struct Output<'a> {
    a: &'a Analyzed,
    items: Vec<Item>,
    /// Layout positions of the group keys.
    keys: Vec<usize>,
    /// Each accumulator of a group: the aggregate items', then HAVING's.
    aggs: Vec<(AggFunc, Option<BoundExpr>)>,
    having: Vec<Having>,
    /// Row width, for the representative row of the no-input scalar group.
    width: usize,
}

/// A bound output item.
enum Item {
    /// A value of the (representative) row.
    Value(BoundExpr),
    /// The finished accumulator at this index.
    Agg(usize),
}

/// A bound HAVING predicate: accumulator `acc`, compared by `op` with `rhs`
/// over the representative row.
struct Having {
    acc: usize,
    op: CmpOp,
    rhs: BoundExpr,
}

/// One group's state: its accumulators and a representative row.
#[derive(Debug, Clone)]
pub struct Group {
    accs: Box<[Accumulator]>,
    rep: Box<[Value]>,
}

impl Group {
    /// Fold another partial's accumulators of this group in. Accumulators
    /// that cannot merge (a kind mismatch) are the statement's error.
    fn merge(&mut self, accs: &[Accumulator]) -> Result<()> {
        self.accs.iter_mut().zip(accs).try_for_each(|(a, b)| a.merge(b))
    }
}

/// Final rows folded so far: projected rows of a statement without
/// aggregation, else groups by key.
#[derive(Debug, Default)]
pub struct Gather {
    rows: Vec<Box<[Value]>>,
    groups: FxHashMap<Box<[Value]>, Group>,
    /// Scratch: the key [`Gather::add`] looks up, boxed only for a new
    /// group.
    probe: Vec<Value>,
}

impl Gather {
    /// Fold one final row in: projected, or into its group.
    pub fn add(&mut self, out: &Output, row: &[Value]) -> Result<()> {
        if out.a.agg_class == AggClass::NoAgg {
            self.rows.push(out.project(row, |_| unreachable!("no aggregate without grouping"))?);
            return Ok(());
        }
        self.probe.clear();
        self.probe.extend(out.keys.iter().map(|&p| row[p].clone()));
        if let Some(group) = self.groups.get_mut(self.probe.as_slice()) {
            return out.fold(&mut group.accs, row);
        }
        let mut group = out.group(row.into());
        out.fold(&mut group.accs, row)?;
        self.groups.insert(self.probe.as_slice().into(), group);
        Ok(())
    }

    /// Fold a partial of group `key` in: the accumulators `accs` (from
    /// [`Output::accumulators`]) over some of its rows, represented by the
    /// row `rep()` should the group be new here. Only a new group boxes its
    /// key.
    pub fn insert(
        &mut self,
        key: &[Value],
        accs: &[Accumulator],
        rep: impl FnOnce() -> Box<[Value]>,
    ) -> Result<()> {
        if let Some(group) = self.groups.get_mut(key) {
            return group.merge(accs);
        }
        self.groups.insert(key.into(), Group { accs: accs.into(), rep: rep() });
        Ok(())
    }

    /// Fold another gather in: its rows follow these, its groups merge.
    pub fn merge(&mut self, mut other: Gather) -> Result<()> {
        self.rows.append(&mut other.rows);
        if self.groups.is_empty() {
            self.groups = other.groups;
            return Ok(());
        }
        other.groups.into_iter().try_for_each(|(key, group)| match self.groups.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().merge(&group.accs),
            Entry::Vacant(e) => {
                e.insert(group);
                Ok(())
            }
        })
    }
}

impl Output<'_> {
    /// The output relation of everything gathered: the no-input scalar row
    /// added, groups sorted by key, HAVING applied, items projected.
    pub fn finish(&self, gather: Gather) -> Result<Relation> {
        if self.a.agg_class == AggClass::NoAgg {
            return build_output(self.a, gather.rows);
        }
        let mut groups: Vec<(Box<[Value]>, Group)> = gather.groups.into_iter().collect();
        if groups.is_empty() && self.a.agg_class == AggClass::Scalar {
            groups.push((Box::from([]), self.group(vec![Value::Null; self.width].into())));
        }
        groups.sort_by(|x, y| x.0.cmp(&y.0));
        let mut rows = Vec::with_capacity(groups.len());
        'groups: for (_, g) in groups {
            for h in &self.having {
                let rhs = h.rhs.eval(&g.rep)?;
                if g.accs[h.acc].finish()?.sql_cmp(&rhs).map(|o| h.op.holds(o)) != Some(true) {
                    continue 'groups;
                }
            }
            rows.push(self.project(&g.rep, |k| g.accs[k].finish())?);
        }
        build_output(self.a, rows)
    }

    /// A group with no row folded in yet, represented by `rep`.
    fn group(&self, rep: Box<[Value]>) -> Group {
        Group { accs: self.accumulators(), rep }
    }

    /// Layout positions of the group keys.
    pub fn keys(&self) -> &[usize] {
        &self.keys
    }

    /// A group's accumulators with no row folded in yet.
    pub fn accumulators(&self) -> Box<[Accumulator]> {
        self.aggs.iter().map(|&(func, _)| Accumulator::new(func)).collect()
    }

    /// Fold `row` into its group's accumulators `accs`.
    pub fn fold(&self, accs: &mut [Accumulator], row: &[Value]) -> Result<()> {
        for ((_, arg), acc) in self.aggs.iter().zip(accs) {
            let v = match arg {
                Some(e) => e.eval(row)?,
                None => Value::Int(1),
            };
            acc.update(&v)?;
        }
        Ok(())
    }

    /// The output items over `row`, aggregate `k` read by `agg(k)`.
    fn project(&self, row: &[Value], agg: impl Fn(usize) -> Result<Value>) -> Result<Box<[Value]>> {
        let mut values = Vec::with_capacity(self.items.len());
        for item in &self.items {
            values.push(match item {
                Item::Value(e) => e.eval(row)?,
                Item::Agg(k) => agg(*k)?,
            });
        }
        Ok(values.into_boxed_slice())
    }
}

impl Analyzed {
    /// Bind the output to a row layout of `width` values, where `pos`
    /// places a `(table, column)`.
    pub fn output(
        &self,
        pos: impl Fn((usize, usize)) -> Result<usize>,
        width: usize,
    ) -> Result<Output<'_>> {
        let bind = |e: &Expr| e.bind(&|c: &ColRef| pos(self.resolve(c)?));
        let mut aggs = Vec::new();
        let mut items = Vec::with_capacity(self.items.len());
        for item in &self.items {
            items.push(match item {
                OutputItem::Col { table, col, .. } => {
                    Item::Value(BoundExpr::Col(pos((*table, *col))?))
                }
                OutputItem::Expr { expr, .. } => Item::Value(bind(expr)?),
                OutputItem::Agg { func, arg, .. } => {
                    aggs.push((*func, arg.as_ref().map(bind).transpose()?));
                    Item::Agg(aggs.len() - 1)
                }
            });
        }
        let mut having = Vec::with_capacity(self.having.len());
        for h in &self.having {
            aggs.push((h.func, h.arg.as_ref().map(bind).transpose()?));
            having.push(Having { acc: aggs.len() - 1, op: h.op, rhs: bind(&h.rhs)? });
        }
        let keys = self.group_by.iter().map(|&c| pos(c)).collect::<Result<_>>()?;
        Ok(Output { a: self, items, keys, aggs, having, width })
    }

    /// Bind an expression to table `t`'s own rows, where column `c` is at
    /// position `c`: a table's pushed-down filters.
    pub fn bind_to_table(&self, t: usize, e: &Expr) -> Result<BoundExpr> {
        e.bind(&|c: &ColRef| match self.resolve(c)? {
            (tt, cc) if tt == t => Ok(cc),
            (tt, _) => Err(RelError::Other(format!("filter for table {t} references table {tt}"))),
        })
    }
}

/// Refuse a statement that groups or aggregates and reads a column, outside
/// an aggregate, that is neither grouped nor on a table whose single-column
/// primary key is grouped (it determines the table's other columns; the
/// aggregation classes rely on the same dependency).
pub(crate) fn check_grouped(a: &Analyzed) -> Result<()> {
    if a.agg_class == AggClass::NoAgg {
        return Ok(());
    }
    let mut cols = Vec::new();
    for item in &a.items {
        match item {
            OutputItem::Col { table, col, .. } => cols.push(a.qualified(*table, *col)),
            OutputItem::Expr { expr, .. } => expr.columns(&mut cols),
            OutputItem::Agg { .. } => {}
        }
    }
    a.having.iter().for_each(|h| h.rhs.columns(&mut cols));
    for c in cols {
        let (t, col) = a.resolve(&c)?;
        let pk = &a.tables[t].schema.primary_key;
        let grouped = |c: usize| a.group_by.contains(&(t, c));
        if !(grouped(col) || pk.len() == 1 && grouped(pk[0])) {
            return Err(RelError::Other(format!(
                "column {c} must appear in GROUP BY or be used in an aggregate"
            )));
        }
    }
    Ok(())
}

/// The output relation of `rows`, each column typed by its first non-NULL
/// value (`Int` when every value is NULL).
fn build_output(a: &Analyzed, rows: Vec<Box<[Value]>>) -> Result<Relation> {
    let columns = a.items.iter().enumerate().map(|(i, item)| {
        let ty = rows.iter().find_map(|r| r[i].data_type()).unwrap_or(DataType::Int);
        Column::new(item.name(), ty)
    });
    let mut rel = Relation::empty(Schema::new("result", columns.collect()));
    for r in rows {
        rel.push(Tuple(r))?;
    }
    Ok(rel)
}
