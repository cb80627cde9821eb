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
//! ([`Output::fold`]) and inserts those; a place that holds every row of its
//! groups may judge them by HAVING there ([`Output::keeps`],
//! [`Gather::insert_kept`]) and insert only those it keeps, since
//! [`Output::finish`], which judges every group, keeps them again. The
//! rules, in SQL's terms:
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
//! A lowered subquery's inner query ([`crate::subquery`]) binds its output
//! in probe mode instead: a row without aggregation goes straight into the
//! gather's probe table — its correlation key, borrowed on a hit and copied
//! only when new, and the payload the predicate reads — and a grouped inner
//! query's groups that HAVING keeps go there at the end, unsorted. No output
//! row or relation is built for an inner query.
//!
//! Rows are read in place, as any [`Row`] of cells: a TAG root's rows are
//! references into the graph's arena. Each aggregate's argument is an
//! [`AggInput`] typed from its columns' schema types, and a group is found
//! by hashing its key's borrowed cells. Groups live in flat arrays indexed
//! by group number — keys, accumulators, representative rows — so a new
//! group copies its key's and its representative row's cells into place and
//! allocates nothing of its own; [`Output::finish`] sorts a permutation of
//! group numbers by key and reads each group as slices.

use crate::analyze::{AggClass, Analyzed, OutputItem};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use vcsql_relation::agg::{Accumulator, AggFunc};
use vcsql_relation::expr::{AggInput, BoundExpr, CmpOp, ColRef, Expr, Row};
use vcsql_relation::fx::FxHasher;
use vcsql_relation::schema::Column;
use vcsql_relation::{DataType, FxHashMap, FxHashSet, RelError, Relation, Schema, Tuple, Value};

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
    /// Set for a lowered subquery's inner query: rows and groups go to the
    /// gather's probe table.
    probe: Option<ProbeSpec>,
}

/// Where a probe table reads an inner row's key, and what it keeps of its
/// payload, the output item after the key.
#[derive(Debug)]
struct ProbeSpec {
    /// Layout positions of the correlation key's cells.
    key: Vec<usize>,
    keep: Keep,
}

/// What a probe table keeps of each inner row's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Keep {
    /// Nothing: EXISTS reads only whether a key is there.
    Nothing,
    /// Every distinct payload of a key: IN's set.
    Set,
    /// A key's one payload: a scalar comparison's aggregate.
    One,
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

/// Final rows folded so far: projected rows of a statement without
/// aggregation, else groups by key; in probe mode, an inner query's rows
/// without aggregation go to its probe table instead.
#[derive(Debug, Default)]
pub struct Gather {
    rows: Vec<Box<[Value]>>,
    groups: Groups,
    probe: Probe,
}

/// A lowered subquery's probe table: every correlation key an inner row (or
/// a kept inner group) holds, without a NULL, numbered in arrival order and
/// found by the hash of its borrowed cells as a group is, with what the
/// predicate reads of the key's payloads.
#[derive(Debug, Default)]
pub(crate) struct Probe {
    /// The keys; a scalar comparison's aggregate is its key's one
    /// representative cell.
    keys: Groups,
    /// IN's payloads, by key number.
    members: FxHashSet<(u32, Value)>,
}

/// Groups in arrival order, in flat arrays indexed by group number, found
/// by the hash of their key's cells: a key is probed as borrowed cells (a
/// row's, the TAG arena's) and a new group appends its key, accumulators and
/// representative row in place, allocating nothing of its own.
#[derive(Debug, Default)]
struct Groups {
    /// Cells of a key, accumulators of a group and cells of a representative
    /// row, as the first group set them.
    key_w: usize,
    acc_w: usize,
    rep_w: usize,
    /// The groups' keys, `key_w` cells each.
    keys: Vec<Value>,
    /// The groups' accumulators, `acc_w` each.
    accs: Vec<Accumulator>,
    /// The groups' representative rows, `rep_w` cells each.
    reps: Vec<Value>,
    /// Per hash, the latest group with it.
    head: FxHashMap<u64, u32>,
    /// Per group, the group before it with the same hash ([`NONE`]: none).
    prev: Vec<u32>,
}

/// The end of a hash's chain of groups.
const NONE: u32 = u32::MAX;

impl Groups {
    fn len(&self) -> usize {
        self.prev.len()
    }

    fn is_empty(&self) -> bool {
        self.prev.is_empty()
    }

    fn key(&self, g: usize) -> &[Value] {
        &self.keys[span(g, self.key_w)]
    }

    fn accs(&self, g: usize) -> &[Accumulator] {
        &self.accs[span(g, self.acc_w)]
    }

    fn accs_mut(&mut self, g: usize) -> &mut [Accumulator] {
        &mut self.accs[span(g, self.acc_w)]
    }

    fn rep(&self, g: usize) -> &[Value] {
        &self.reps[span(g, self.rep_w)]
    }

    /// The number of the group whose key is `key`, of hash `hash`.
    fn find<'v>(&self, hash: u64, key: impl Iterator<Item = &'v Value> + Clone) -> Option<usize> {
        let mut g = *self.head.get(&hash)?;
        while g != NONE {
            if self.key(g as usize).iter().eq(key.clone()) {
                return Some(g as usize);
            }
            g = self.prev[g as usize];
        }
        None
    }

    /// Append a new group and return its number. Every group of a gather
    /// has the widths of the first.
    fn push(
        &mut self,
        hash: u64,
        key: impl Iterator<Item = Value>,
        accs: impl Iterator<Item = Accumulator>,
        rep: impl Iterator<Item = Value>,
    ) -> usize {
        let g = self.len();
        let widths = (self.keys.len(), self.accs.len(), self.reps.len());
        self.keys.extend(key);
        self.accs.extend(accs);
        self.reps.extend(rep);
        let new =
            (self.keys.len() - widths.0, self.accs.len() - widths.1, self.reps.len() - widths.2);
        if g == 0 {
            (self.key_w, self.acc_w, self.rep_w) = new;
        }
        assert_eq!(new, (self.key_w, self.acc_w, self.rep_w), "one width per gather");
        let id = u32::try_from(g).ok().filter(|&g| g != NONE).expect("groups fit u32");
        self.prev.push(self.head.insert(hash, id).unwrap_or(NONE));
        g
    }

    /// Fold `other`'s groups in: a shared key's accumulators merge, a new
    /// key's group moves over. `placed(o, g)` says that `other`'s group `o`
    /// is now group `g` here.
    fn absorb(&mut self, mut other: Groups, mut placed: impl FnMut(usize, usize)) -> Result<()> {
        if self.is_empty() {
            (0..other.len()).for_each(|g| placed(g, g));
            *self = other;
            return Ok(());
        }
        let o = &mut other;
        for g in 0..o.len() {
            let hash = key_hash(o.key(g).iter());
            let to = match self.find(hash, o.key(g).iter()) {
                Some(s) => {
                    merge_accs(self.accs_mut(s), o.accs(g))?;
                    s
                }
                None => {
                    let accs = o.accs[span(g, o.acc_w)].iter().cloned();
                    let key = o.keys[span(g, o.key_w)].iter_mut().map(take);
                    let rep = o.reps[span(g, o.rep_w)].iter_mut().map(take);
                    self.push(hash, key, accs, rep)
                }
            };
            placed(g, to);
        }
        Ok(())
    }
}

impl Probe {
    /// Insert an inner row's or kept group's `key` cells and, as `keep`
    /// asks, its payload, evaluated only then. A key holding a NULL equals
    /// no outer key and is left out.
    fn insert<'v>(
        &mut self,
        key: impl Iterator<Item = &'v Value> + Clone,
        keep: Keep,
        payload: impl FnOnce() -> Result<Value>,
    ) -> Result<()> {
        if key.clone().any(Value::is_null) {
            return Ok(());
        }
        let payload = if keep == Keep::Nothing { None } else { Some(payload()?) };
        let hash = key_hash(key.clone());
        let g = match self.keys.find(hash, key.clone()) {
            Some(g) => g,
            None => {
                let one = payload.clone().filter(|_| keep == Keep::One);
                self.keys.push(hash, key.cloned(), std::iter::empty(), one.into_iter())
            }
        };
        if let (Keep::Set, Some(v)) = (keep, payload) {
            self.members.insert((g as u32, v));
        }
        Ok(())
    }

    /// Fold another worker's probe table in.
    fn merge(&mut self, other: Probe) -> Result<()> {
        let mut to = Vec::with_capacity(other.keys.len());
        self.keys.absorb(other.keys, |_, g| to.push(g as u32))?;
        self.members.extend(other.members.into_iter().map(|(g, v)| (to[g as usize], v)));
        Ok(())
    }

    /// The number of the key whose cells are `key`, if an inner row holds
    /// it; a key holding a NULL matches none.
    pub(crate) fn find<'v>(&self, key: impl Iterator<Item = &'v Value> + Clone) -> Option<usize> {
        if key.clone().any(Value::is_null) {
            return None;
        }
        self.keys.find(key_hash(key.clone()), key)
    }

    /// Whether some inner row of key `g` has payload `v` (IN only).
    pub(crate) fn has(&self, g: usize, v: &Value) -> bool {
        self.members.contains(&(g as u32, v.clone()))
    }

    /// Key `g`'s one payload (a scalar comparison only).
    pub(crate) fn one(&self, g: usize) -> &Value {
        &self.keys.rep(g)[0]
    }
}

/// Group `g`'s places in a flat array of `width` per group.
fn span(g: usize, width: usize) -> Range<usize> {
    g * width..(g + 1) * width
}

/// Fold another partial's accumulators of a group into `accs`. Accumulators
/// that cannot merge (a kind mismatch) are the statement's error.
pub fn merge_accs(accs: &mut [Accumulator], other: &[Accumulator]) -> Result<()> {
    accs.iter_mut().zip(other).try_for_each(|(a, b)| a.merge(b))
}

/// Move a cell out, leaving NULL.
fn take(v: &mut Value) -> Value {
    std::mem::replace(v, Value::Null)
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
        let no_agg = |_| unreachable!("no aggregate without grouping");
        if out.a.agg_class == AggClass::NoAgg {
            match &out.probe {
                Some(p) => {
                    let key = p.key.iter().map(|&c| row.cell(c).expect("keys are in the row"));
                    self.probe.insert(key, p.keep, || out.payload(p, row, no_agg))?;
                }
                None => self.rows.push(out.project(row, no_agg)?),
            }
            return Ok(());
        }
        let key = out.keys.iter().map(|&p| row.cell(p).expect("group keys are in the row"));
        let hash = key_hash(key.clone());
        let g = match self.groups.find(hash, key.clone()) {
            Some(g) => g,
            None => {
                let rep = (0..row.width()).filter_map(|i| row.cell(i).cloned());
                self.groups.push(hash, key.cloned(), out.accumulators(), rep)
            }
        };
        out.fold(self.groups.accs_mut(g), row)
    }

    /// Fold a partial of the group keyed by the cells `key` in: the
    /// accumulators `accs` (from [`Output::accumulators`]) over some of its
    /// rows, represented by the row of cells `rep` should the group be new
    /// here. Only a new group reads `rep`, and copies its cells and the
    /// key's.
    pub fn insert<'k, 'r>(
        &mut self,
        key: impl Iterator<Item = &'k Value> + Clone,
        accs: &[Accumulator],
        rep: impl Iterator<Item = &'r Value>,
    ) -> Result<()> {
        let hash = key_hash(key.clone());
        match self.groups.find(hash, key.clone()) {
            Some(g) => merge_accs(self.groups.accs_mut(g), accs),
            None => {
                self.groups.push(hash, key.cloned(), accs.iter().cloned(), rep.cloned());
                Ok(())
            }
        }
    }

    /// Insert the groups of `complete` that HAVING keeps, in arrival order:
    /// a place that holds every partial of its groups judges them there.
    pub fn insert_kept(&mut self, out: &Output, complete: Gather) -> Result<()> {
        let groups = complete.groups;
        for g in 0..groups.len() {
            let (accs, rep) = (groups.accs(g), groups.rep(g));
            if out.keeps(accs, rep)? {
                self.insert(groups.key(g).iter(), accs, rep.iter())?;
            }
        }
        Ok(())
    }

    /// Fold another gather in: its rows follow these, its groups and probe
    /// keys merge.
    pub fn merge(&mut self, mut other: Gather) -> Result<()> {
        self.rows.append(&mut other.rows);
        self.groups.absorb(other.groups, |_, _| {})?;
        self.probe.merge(other.probe)
    }
}

impl Output<'_> {
    /// The output relation of everything gathered: the no-input scalar row
    /// added, groups sorted by key, HAVING applied, items projected.
    pub fn finish(&self, gather: Gather) -> Result<Relation> {
        if self.a.agg_class == AggClass::NoAgg {
            return build_output(self.a, gather.rows);
        }
        let groups = self.groups(gather.groups);
        // Keys are distinct, and `Value`'s order agrees with its equality:
        // an unstable sort leaves the one order there is.
        let n = u32::try_from(groups.len()).expect("groups fit u32");
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_unstable_by(|&x, &y| groups.key(x as usize).cmp(groups.key(y as usize)));
        let mut rows = Vec::with_capacity(order.len());
        for g in order {
            let (accs, rep) = (groups.accs(g as usize), groups.rep(g as usize));
            if self.keeps(accs, rep)? {
                rows.push(self.project(rep, |k| accs[k].finish())?);
            }
        }
        build_output(self.a, rows)
    }

    /// An inner query's probe table of everything gathered: its rows' keys
    /// as gathered, or the keys of the groups HAVING keeps, in arrival
    /// order, the no-input scalar group added.
    pub(crate) fn probe_table(&self, gather: Gather) -> Result<Probe> {
        let p = self.probe.as_ref().expect("an inner query's output is bound in probe mode");
        let mut probe = gather.probe;
        if self.a.agg_class == AggClass::NoAgg {
            return Ok(probe);
        }
        let groups = self.groups(gather.groups);
        for g in 0..groups.len() {
            let (accs, rep) = (groups.accs(g), groups.rep(g));
            if self.keeps(accs, rep)? {
                let key = p.key.iter().map(|&c| &rep[c]);
                probe.insert(key, p.keep, || self.payload(p, rep, |k| accs[k].finish()))?;
            }
        }
        Ok(probe)
    }

    /// The gathered groups, with the one row aggregates without GROUP BY
    /// yield over no input.
    fn groups(&self, mut groups: Groups) -> Groups {
        if groups.is_empty() && self.a.agg_class == AggClass::Scalar {
            let rep = std::iter::repeat_n(Value::Null, self.width);
            groups.push(0, std::iter::empty(), self.accumulators(), rep);
        }
        groups
    }

    /// Whether every HAVING predicate is TRUE for the group of accumulators
    /// `accs` and representative row `rep`.
    pub fn keeps<R: Row + ?Sized>(&self, accs: &[Accumulator], rep: &R) -> Result<bool> {
        for h in &self.having {
            let rhs = h.rhs.eval(rep)?;
            if accs[h.acc].finish()?.sql_cmp(&rhs).map(|o| h.op.holds(o)) != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Bind the output to a lowered subquery's probe table: the first
    /// `keys` items are the correlation key's columns, and the item after
    /// them is the payload, kept as `keep` says.
    pub(crate) fn probing(mut self, keys: usize, keep: Keep) -> Self {
        let key = self.items[..keys].iter().map(|item| match item {
            Item::Value(BoundExpr::Col(c)) => *c,
            _ => unreachable!("a lowered subquery's key items are columns"),
        });
        self.probe = Some(ProbeSpec { key: key.collect(), keep });
        self
    }

    /// The payload item of the row or group `row`, aggregate `k` read by
    /// `agg(k)`.
    fn payload<R: Row + ?Sized>(
        &self,
        p: &ProbeSpec,
        row: &R,
        agg: impl Fn(usize) -> Result<Value>,
    ) -> Result<Value> {
        match &self.items[p.key.len()] {
            Item::Value(e) => e.eval(row),
            Item::Agg(k) => agg(*k),
        }
    }

    /// Layout positions of the group keys.
    pub fn keys(&self) -> &[usize] {
        &self.keys
    }

    /// A group's accumulators with no row folded in yet.
    pub fn accumulators(&self) -> impl ExactSizeIterator<Item = Accumulator> + '_ {
        self.aggs.iter().map(|input| Accumulator::new(input.func()))
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
        Ok(Output { a: self, items, keys, aggs, having, width, probe: None })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse;

    /// One table `t(k INT, g STR, x INT)`, keyed by `k`.
    fn catalog() -> Vec<Schema> {
        let columns = vec![
            Column::new("k", DataType::Int),
            Column::new("g", DataType::Str),
            Column::new("x", DataType::Int),
        ];
        vec![Schema::new("t", columns).with_primary_key(&["k"])]
    }

    fn analyzed(sql: &str) -> Analyzed {
        analyze(&parse(sql).unwrap(), &catalog()).unwrap()
    }

    fn row(k: i64, g: &str, x: i64) -> [Value; 3] {
        [Value::Int(k), Value::str(g), Value::Int(x)]
    }

    /// The output of `rows` folded into one gather per slice of `parts`,
    /// merged in order.
    fn run(a: &Analyzed, parts: &[&[[Value; 3]]]) -> Vec<Vec<Value>> {
        let out = a.output(|(_, col)| Ok(col), 3).unwrap();
        let mut gather = Gather::default();
        for part in parts {
            let mut piece = Gather::default();
            for r in *part {
                piece.add(&out, r).unwrap();
            }
            gather.merge(piece).unwrap();
        }
        let rel = out.finish(gather).unwrap();
        rel.tuples.into_iter().map(|t| t.0.into_vec()).collect()
    }

    #[test]
    fn two_keys_under_one_hash_are_both_found() {
        let mut groups = Groups::default();
        let (a, b) = ([Value::Int(1)], [Value::str("b")]);
        let fresh = || std::iter::once(Accumulator::Count(0));
        groups.push(7, a.iter().cloned(), fresh(), std::iter::empty());
        groups.push(7, b.iter().cloned(), fresh(), std::iter::empty());
        assert_eq!(groups.find(7, a.iter()), Some(0));
        assert_eq!(groups.find(7, b.iter()), Some(1));
        assert_eq!(groups.find(7, [Value::Int(2)].iter()), None);
        assert_eq!(groups.find(8, a.iter()), None);
    }

    #[test]
    fn merge_folds_a_shared_group_and_keeps_each_gathers_own() {
        let a = analyzed("SELECT t.g, SUM(t.x) AS s FROM t GROUP BY t.g");
        let left = [row(1, "a", 1), row(2, "shared", 2)];
        let right = [row(3, "shared", 3), row(4, "b", 4)];
        let rows = run(&a, &[&left, &right]);
        let expect = [("a", 1), ("b", 4), ("shared", 5)];
        let expect: Vec<Vec<Value>> =
            expect.iter().map(|&(g, s)| vec![Value::str(g), Value::Int(s)]).collect();
        assert_eq!(rows, expect);
    }

    #[test]
    fn finish_returns_groups_in_key_order() {
        let a = analyzed("SELECT t.x, COUNT(*) AS n FROM t GROUP BY t.x");
        let rows =
            run(&a, &[&[row(1, "a", 30), row(2, "b", 10), row(3, "c", 20), row(4, "d", 10)]]);
        let keys: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
        assert_eq!(keys, [&Value::Int(10), &Value::Int(20), &Value::Int(30)]);
        assert_eq!(rows[0][1], Value::Int(2));
    }

    #[test]
    fn scalar_aggregate_over_no_input_gives_one_row() {
        let a = analyzed("SELECT COUNT(*) AS n, SUM(t.x) AS s FROM t");
        assert_eq!(run(&a, &[]), [vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn having_drops_a_group() {
        let a = analyzed("SELECT t.g, SUM(t.x) AS s FROM t GROUP BY t.g HAVING SUM(t.x) > 5");
        let rows = run(&a, &[&[row(1, "a", 1), row(2, "b", 4), row(3, "b", 3)]]);
        assert_eq!(rows, [vec![Value::str("b"), Value::Int(7)]]);
    }

    /// An inner query's rows folded into two workers' probe tables, merged:
    /// a key both hold keeps the payloads of both, renumbered.
    #[test]
    fn probe_tables_merge_keys_and_payloads() {
        let a = analyzed("SELECT t.k FROM t WHERE t.x IN (SELECT u.x FROM t u WHERE u.g = t.g)");
        let crate::LoweredSubquery { sub, check } = crate::lower_subquery(&a.subqueries[0]);
        let out = check.bind_inner(sub.output(|(_, col)| Ok(col), 3).unwrap());
        let mut gather = Gather::default();
        for part in [[row(1, "a", 1), row(2, "b", 2)], [row(3, "c", 5), row(4, "a", 3)]] {
            let mut piece = Gather::default();
            part.iter().for_each(|r| piece.add(&out, r).unwrap());
            gather.merge(piece).unwrap();
        }
        let result = check.finish(&out, gather).unwrap();
        let holds = |g: &str, x: Option<i64>| {
            let x = x.map_or(Value::Null, Value::Int);
            result.holds([Value::str(g)].iter(), Some(&x))
        };
        assert!(holds("a", Some(1)) && holds("a", Some(3)) && holds("c", Some(5)));
        assert!(!holds("b", Some(3)) && !holds("a", None) && !holds("d", Some(1)));
    }

    #[test]
    fn aggregates_without_group_by_fold_into_one_group() {
        let a = analyzed("SELECT COUNT(*) AS n, MAX(t.x) AS m FROM t");
        let rows = run(&a, &[&[row(1, "a", 5), row(2, "b", 9)], &[row(3, "c", 7)]]);
        assert_eq!(rows, [vec![Value::Int(3), Value::Int(9)]]);
    }
}
