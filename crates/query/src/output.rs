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
//!
//! Rows are read in place, as any [`Row`] of cells: a TAG root's rows are
//! references into the graph's arena. Each aggregate's argument is an
//! [`AggInput`] typed from its columns' schema types, and a group is found
//! by hashing its key's borrowed cells; only a new group copies its key and
//! representative row.

use crate::analyze::{AggClass, Analyzed, OutputItem};
use std::hash::{Hash, Hasher};
use vcsql_relation::agg::{Accumulator, AggFunc};
use vcsql_relation::expr::{AggInput, BoundExpr, CmpOp, ColRef, Expr, Row};
use vcsql_relation::fx::FxHasher;
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
    aggs: Vec<AggInput>,
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
    groups: Groups,
}

/// Groups in arrival order, found by the hash of their key's cells, so a
/// key is probed as borrowed cells (a row's, the TAG arena's) and copied
/// only for a new group.
#[derive(Debug, Default)]
struct Groups {
    /// Each group with its key's hash and its key.
    list: Vec<(u64, Box<[Value]>, Group)>,
    /// Per hash, the latest group with it.
    head: FxHashMap<u64, u32>,
    /// Per group, the group before it with the same hash ([`NONE`]: none).
    prev: Vec<u32>,
}

/// The end of a hash's chain of groups.
const NONE: u32 = u32::MAX;

impl Groups {
    /// The index of the group whose key is `key`, of hash `hash`.
    fn find<'v>(&self, hash: u64, key: impl Iterator<Item = &'v Value> + Clone) -> Option<usize> {
        let mut g = *self.head.get(&hash)?;
        while g != NONE {
            if self.list[g as usize].1.iter().eq(key.clone()) {
                return Some(g as usize);
            }
            g = self.prev[g as usize];
        }
        None
    }

    /// Add a new group.
    fn push(&mut self, hash: u64, key: Box<[Value]>, group: Group) {
        let g = u32::try_from(self.list.len()).expect("groups fit u32");
        self.prev.push(self.head.insert(hash, g).unwrap_or(NONE));
        self.list.push((hash, key, group));
    }
}

/// The hash of a key's cells.
fn key_hash<'v>(key: impl Iterator<Item = &'v Value>) -> u64 {
    let mut h = FxHasher::default();
    key.for_each(|v| v.hash(&mut h));
    h.finish()
}

impl Gather {
    /// Fold one final row in: projected, or into its group.
    pub fn add<R: Row + ?Sized>(&mut self, out: &Output, row: &R) -> Result<()> {
        if out.a.agg_class == AggClass::NoAgg {
            self.rows.push(out.project(row, |_| unreachable!("no aggregate without grouping"))?);
            return Ok(());
        }
        let key = out.keys.iter().map(|&p| row.cell(p).expect("group keys are in the row"));
        let hash = key_hash(key.clone());
        if let Some(g) = self.groups.find(hash, key.clone()) {
            return out.fold(&mut self.groups.list[g].2.accs, row);
        }
        let mut group = out.group(row.to_values());
        out.fold(&mut group.accs, row)?;
        self.groups.push(hash, key.cloned().collect(), group);
        Ok(())
    }

    /// Fold a partial of the group keyed by the cells `key` in: the
    /// accumulators `accs` (from [`Output::accumulators`]) over some of its
    /// rows, represented by the row `rep()` should the group be new here.
    /// Only a new group copies its key.
    pub fn insert<'v>(
        &mut self,
        key: impl Iterator<Item = &'v Value> + Clone,
        accs: &[Accumulator],
        rep: impl FnOnce() -> Box<[Value]>,
    ) -> Result<()> {
        let hash = key_hash(key.clone());
        if let Some(g) = self.groups.find(hash, key.clone()) {
            return self.groups.list[g].2.merge(accs);
        }
        self.groups.push(hash, key.cloned().collect(), Group { accs: accs.into(), rep: rep() });
        Ok(())
    }

    /// Fold another gather in: its rows follow these, its groups merge.
    pub fn merge(&mut self, mut other: Gather) -> Result<()> {
        self.rows.append(&mut other.rows);
        if self.groups.list.is_empty() {
            self.groups = other.groups;
            return Ok(());
        }
        for (hash, key, group) in other.groups.list {
            match self.groups.find(hash, key.iter()) {
                Some(g) => self.groups.list[g].2.merge(&group.accs)?,
                None => self.groups.push(hash, key, group),
            }
        }
        Ok(())
    }
}

impl Output<'_> {
    /// The output relation of everything gathered: the no-input scalar row
    /// added, groups sorted by key, HAVING applied, items projected.
    pub fn finish(&self, gather: Gather) -> Result<Relation> {
        if self.a.agg_class == AggClass::NoAgg {
            return build_output(self.a, gather.rows);
        }
        let mut groups = gather.groups.list;
        if groups.is_empty() && self.a.agg_class == AggClass::Scalar {
            groups.push((0, Box::from([]), self.group(vec![Value::Null; self.width].into())));
        }
        // Keys are distinct, and `Value`'s order agrees with its equality:
        // an unstable sort leaves the one order there is.
        groups.sort_unstable_by(|x, y| x.1.cmp(&y.1));
        let mut rows = Vec::with_capacity(groups.len());
        'groups: for (_, _, g) in groups {
            for h in &self.having {
                let rhs = h.rhs.eval(&*g.rep)?;
                if g.accs[h.acc].finish()?.sql_cmp(&rhs).map(|o| h.op.holds(o)) != Some(true) {
                    continue 'groups;
                }
            }
            rows.push(self.project(&*g.rep, |k| g.accs[k].finish())?);
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
        self.aggs.iter().map(|input| Accumulator::new(input.func())).collect()
    }

    /// Fold `row` into its group's accumulators `accs`; the first
    /// aggregate that fails to evaluate is the error.
    #[inline]
    pub fn fold<R: Row + ?Sized>(&self, accs: &mut [Accumulator], row: &R) -> Result<()> {
        self.aggs.iter().zip(accs).try_for_each(|(input, acc)| input.feed(acc, row))
    }

    /// The output items over `row`, aggregate `k` read by `agg(k)`.
    fn project<R: Row + ?Sized>(
        &self,
        row: &R,
        agg: impl Fn(usize) -> Result<Value>,
    ) -> Result<Box<[Value]>> {
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
        // An aggregate's input, each position its argument reads typed by
        // the column's schema type.
        let input = |func: AggFunc, arg: &Option<Expr>| -> Result<AggInput> {
            let Some(e) = arg else { return Ok(AggInput::new(func, None, |_| None)) };
            let mut cols = Vec::new();
            e.columns(&mut cols);
            let mut types = Vec::with_capacity(cols.len());
            for c in &cols {
                let (t, col) = self.resolve(c)?;
                types.push((pos((t, col))?, self.tables[t].schema.columns[col].ty));
            }
            let ty = |p: usize| types.iter().find(|&&(q, _)| q == p).map(|&(_, ty)| ty);
            Ok(AggInput::new(func, Some(bind(e)?), ty))
        };
        let mut aggs = Vec::new();
        let mut items = Vec::with_capacity(self.items.len());
        for item in &self.items {
            items.push(match item {
                OutputItem::Col { table, col, .. } => {
                    Item::Value(BoundExpr::Col(pos((*table, *col))?))
                }
                OutputItem::Expr { expr, .. } => Item::Value(bind(expr)?),
                OutputItem::Agg { func, arg, .. } => {
                    aggs.push(input(*func, arg)?);
                    Item::Agg(aggs.len() - 1)
                }
            });
        }
        let mut having = Vec::with_capacity(self.having.len());
        for h in &self.having {
            aggs.push(input(h.func, &h.arg)?);
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
