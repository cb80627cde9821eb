//! Intermediate result tables exchanged during the collection phase.
//!
//! A collection row says *which* tuples it joins, not what they hold: one
//! `u32` tuple-vertex id per query table the traversal has visited, in visit
//! order. A TAG edge has already proved the join equality it carries, so the
//! collection phase never compares or copies a value to join (see
//! [`crate::exec`]):
//!
//! * a tuple vertex's **first visit** appends its own id to every incoming
//!   row ([`Table::extend`]), after its caller has checked, by arena reads,
//!   the shared join variables the traversed edge did not prove;
//! * a **revisit** on a backtracking step keeps exactly the rows whose id
//!   for that table is the vertex ([`Table::select`]);
//! * an attribute vertex **unions** ([`Table::union`]).
//!
//! Values are read from the TAG's arena only at the root, for residuals,
//! group keys, aggregate arguments and output.
//!
//! # Layout
//!
//! Every table of one superstep shares one [`Layout`]: the visited tables
//! and the value columns their tuples stand for. Columns are [`ColKey`]s —
//! join columns by their join *variable* (so equi-joined columns from
//! different relations unify under one key), everything else by its `(table,
//! column)` provenance — kept sorted. No column is stored: the columns price
//! a row on the wire and bind it at the root.
//!
//! # Storage
//!
//! A table is one contiguous row-major buffer of `u32` words: each row is
//! its ids, then its string payload in bytes. A tuple vertex extends or
//! selects straight over the tables it received ([`Table::extend`],
//! [`Table::select`] take them all), so only an attribute vertex's
//! [`Table::union`] copies rows into one buffer: O(rows), at most one scan
//! more than every consumer of the union makes anyway. Fanning a table out
//! along many edges shares it behind one `Arc` ([`TagMsg::Table`]).
//!
//! # Wire model
//!
//! Wire bytes stay the paper's value bytes: [`Table::approx_bytes`] is
//! `16 + rows x cols x 8` plus the 8-byte-padded payload of every string
//! value the rows stand for. Each row carries the payload of the columns it
//! added — a join variable's column is counted once, by the visit that added
//! it — so the model is maintained incrementally and [`TagMsg::byte_size`] is
//! O(1).

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use vcsql_bsp::{Message, VertexId};
use vcsql_relation::agg::Accumulator;
use vcsql_relation::Value;

/// A column key of an intermediate table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ColKey {
    /// A join variable (equivalence class of equi-joined columns).
    Var(u32),
    /// A non-join column, identified by `(table index, column index)`.
    Col { table: u16, col: u16 },
}

/// Wire bytes a value adds beyond its fixed 8-byte slot: a string's length
/// rounded up to 8.
#[inline]
pub fn str_payload(v: &Value) -> usize {
    v.wire_bytes() - 8
}

/// What every row of a table holds and stands for.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Layout {
    /// The query tables whose tuple-vertex ids a row holds, in visit order.
    pub tables: Vec<usize>,
    /// The value columns those tuples stand for, sorted.
    pub cols: Vec<ColKey>,
}

/// An intermediate table: a shared [`Layout`] plus contiguous rows of
/// tuple-vertex ids.
#[derive(Debug)]
pub struct Table {
    layout: Arc<Layout>,
    /// Row-major rows: the layout's `tables.len()` ids, then the row's
    /// string payload in bytes.
    words: Vec<u32>,
    /// Sum of the rows' payloads (incremental wire model).
    str_bytes: usize,
}

impl Table {
    /// An empty table over `layout`.
    pub fn empty(layout: Arc<Layout>) -> Table {
        Table::with_capacity(layout, 0)
    }

    /// An empty table over `layout` with room for `rows` rows.
    fn with_capacity(layout: Arc<Layout>, rows: usize) -> Table {
        let words = Vec::with_capacity(rows * (layout.tables.len() + 1));
        Table { layout, words, str_bytes: 0 }
    }

    /// A tuple vertex's own one-row table (the first visit of a traversal's
    /// start): `layout` names its table alone, and its `payload` is that of
    /// every column the layout lists.
    pub fn single(layout: Arc<Layout>, id: VertexId, payload: usize) -> Table {
        debug_assert_eq!(layout.tables.len(), 1, "a single row names one tuple");
        let mut t = Table::with_capacity(layout, 1);
        t.push(&[id], &[], payload);
        t
    }

    /// Append a row: `ids`, then `more` ids, with `payload` string bytes.
    #[inline]
    fn push(&mut self, ids: &[VertexId], more: &[VertexId], payload: usize) {
        self.words.extend_from_slice(ids);
        self.words.extend_from_slice(more);
        self.words.push(payload as u32);
        self.str_bytes += payload;
    }

    /// The layout every row shares.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// The value columns the rows stand for.
    pub fn cols(&self) -> &[ColKey] {
        &self.layout.cols
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.words.len() / (self.layout.tables.len() + 1)
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Approximate serialized payload bytes (used for message accounting):
    /// one 8-byte word per value the rows stand for plus the contents of
    /// variable-length values — the same wire model the distributed
    /// simulation charges the shuffle-join side, so TAG-vs-Spark byte
    /// comparisons are like for like. O(1): both terms are maintained
    /// incrementally at construction.
    pub fn approx_bytes(&self) -> usize {
        16 + self.len() * self.layout.cols.len() * 8 + self.str_bytes
    }

    /// Rows with their payload word: `tables.len() + 1` words each.
    fn words(&self) -> impl Iterator<Item = &[u32]> {
        self.words.chunks_exact(self.layout.tables.len() + 1)
    }

    /// Rows as id slices, one id per layout table, in layout order.
    pub fn rows(&self) -> impl Iterator<Item = &[VertexId]> {
        let width = self.layout.tables.len();
        self.words().map(move |w| &w[..width])
    }

    /// Union of same-layout tables (bag semantics): every operand's rows in
    /// operand order, copied into one buffer. `None` for no operand.
    pub fn union<'a>(
        tables: impl IntoIterator<Item = &'a Table, IntoIter: Clone>,
    ) -> Option<Table> {
        let tables = tables.into_iter();
        let first = tables.clone().next()?;
        let rows = tables.clone().map(Table::len).sum();
        let mut out = Table::with_capacity(Arc::clone(&first.layout), rows);
        for t in tables {
            debug_assert_eq!(out.layout, t.layout, "union of mismatched layouts");
            out.words.extend_from_slice(&t.words);
            out.str_bytes += t.str_bytes;
        }
        Some(out)
    }

    /// A tuple vertex's first visit over the `tables` it received: every row
    /// `keep` accepts, in table and then row order, extended by the vertex's
    /// `id` and `payload` — the padded strings of the columns it adds.
    /// `layout` is the tables' with the vertex's table appended. `None` for
    /// no table.
    pub fn extend<'a>(
        tables: impl IntoIterator<Item = &'a Table, IntoIter: Clone>,
        layout: Arc<Layout>,
        id: VertexId,
        payload: usize,
        mut keep: impl FnMut(&[VertexId]) -> bool,
    ) -> Option<Table> {
        let tables = tables.into_iter();
        tables.clone().next()?;
        let rows = tables.clone().map(Table::len).sum();
        let mut out = Table::with_capacity(layout, rows);
        let width = out.layout.tables.len() - 1;
        for t in tables {
            debug_assert_eq!(t.layout.tables.len(), width, "a visit appends one table");
            for w in t.words() {
                if keep(&w[..width]) {
                    out.push(&w[..width], &[id], w[width] as usize + payload);
                }
            }
        }
        Some(out)
    }

    /// A tuple vertex's revisit over the `tables` it received: the rows
    /// whose id at layout position `pos` is `id`, in table and then row
    /// order. `None` for no table.
    pub fn select<'a>(
        tables: impl IntoIterator<Item = &'a Table, IntoIter: Clone>,
        pos: usize,
        id: VertexId,
    ) -> Option<Table> {
        let tables = tables.into_iter();
        let first = tables.clone().next()?;
        let own = |w: &&[u32]| w[pos] == id;
        let rows = tables.clone().map(|t| t.words().filter(own).count()).sum();
        let mut out = Table::with_capacity(Arc::clone(&first.layout), rows);
        let width = out.layout.tables.len();
        for t in tables {
            debug_assert_eq!(out.layout, t.layout, "select over mismatched layouts");
            for w in t.words().filter(own) {
                out.push(&w[..width], &[], w[width] as usize);
            }
        }
        Some(out)
    }

    /// Cross product with a table over disjoint tables and columns (Section
    /// 6.3's Algorithm B): each row's ids are this table's, then `other`'s.
    /// The smaller side is the outer loop, so each inner run of rows follows
    /// the larger side's order.
    pub fn product(&self, other: &Table) -> Table {
        let mut cols: Vec<ColKey> = self.cols().iter().chain(other.cols()).copied().collect();
        cols.sort_unstable();
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "product over shared columns");
        let tables = self.layout.tables.iter().chain(&other.layout.tables).copied().collect();
        let layout = Arc::new(Layout { tables, cols });

        let (w, v) = (self.layout.tables.len(), other.layout.tables.len());
        let mut out = Table::with_capacity(layout, self.len() * other.len());
        let mut emit = |a: &[u32], b: &[u32]| {
            out.push(&a[..w], &b[..v], (a[w] + b[v]) as usize);
        };
        if self.len() <= other.len() {
            for a in self.words() {
                other.words().for_each(|b| emit(a, b));
            }
        } else {
            for b in other.words() {
                self.words().for_each(|a| emit(a, b));
            }
        }
        out
    }
}

/// Wire size of one group's partial shipped (or checkpointed) to an
/// aggregation vertex: a 32-byte envelope, 16 bytes per group key and
/// representative value, 24 per output item and HAVING predicate.
pub(crate) fn partial_bytes(keys: usize, items_and_having: usize, width: usize) -> usize {
    32 + keys * 16 + items_and_having * 24 + width * 16
}

/// One root's partial group under local aggregation (Section 7): ids, not
/// values. Every kept row of a root is one group, so the root ships the
/// tuple ids of its first kept row — the group-key attribute vertex reads
/// the key and the representative row from the arena — and the
/// accumulators all its kept rows folded into.
///
/// Both live inline, so a partial, boxed to ship, is one heap block: the
/// root folds into it in place and the attribute vertex reads it in place.
/// Only a final row of more than `INLINE_IDS` tables, or a statement of
/// more than `INLINE_ACCS` accumulators, spills that part to a block of its
/// own.
#[derive(Debug, Clone)]
pub struct Partial {
    ids: Inline<VertexId, INLINE_IDS>,
    accs: Inline<Accumulator, INLINE_ACCS>,
}

/// Tuple ids a [`Partial`] holds inline: final rows of the workloads' local
/// aggregations join at most five tables.
const INLINE_IDS: usize = 6;

/// Accumulators a [`Partial`] holds inline: the workloads' local
/// aggregations fold at most two (an output aggregate and a HAVING one).
const INLINE_ACCS: usize = 2;

impl Partial {
    /// The partial of the first kept row `ids` with the accumulators `accs`
    /// (fresh ones, for the root to fold into).
    pub(crate) fn new(
        ids: &[VertexId],
        accs: impl ExactSizeIterator<Item = Accumulator>,
    ) -> Partial {
        Partial {
            ids: Inline::new(ids.iter().copied(), || 0),
            accs: Inline::new(accs, || Accumulator::Count(0)),
        }
    }

    /// The first kept row's tuple ids, in final-row table order.
    pub(crate) fn ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// The group's accumulators over the root's kept rows.
    pub(crate) fn accs(&self) -> &[Accumulator] {
        &self.accs
    }

    /// The accumulators, for the root to fold its kept rows into.
    pub(crate) fn accs_mut(&mut self) -> &mut [Accumulator] {
        &mut self.accs
    }
}

/// Up to `N` items in place (the rest of the array holds fillers), or more
/// in a heap block of their own.
#[derive(Debug, Clone)]
enum Inline<T, const N: usize> {
    Here(usize, [T; N]),
    Heap(Box<[T]>),
}

impl<T, const N: usize> Inline<T, N> {
    /// The items of `items`, unused places holding `fill()`.
    fn new(mut items: impl ExactSizeIterator<Item = T>, fill: impl Fn() -> T) -> Self {
        let len = items.len();
        if len > N {
            return Inline::Heap(items.collect());
        }
        Inline::Here(len, std::array::from_fn(|_| items.next().unwrap_or_else(&fill)))
    }
}

impl<T, const N: usize> Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Inline::Here(len, items) => &items[..*len],
            Inline::Heap(items) => items,
        }
    }
}

impl<T, const N: usize> DerefMut for Inline<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Inline::Here(len, items) => &mut items[..*len],
            Inline::Heap(items) => items,
        }
    }
}

/// Messages of the TAG-join vertex program. The reduction's signals
/// (Algorithm 2, lines 13/18) carry no payload and travel the engine's
/// signal lane instead ([`vcsql_bsp::VertexCtx::signal_along`]).
#[derive(Debug, Clone)]
pub enum TagMsg {
    /// Collection-phase intermediate table (Algorithm 2, line 40).
    Table(Arc<Table>),
    /// Aggregation-phase partial group routed to a group-key attribute
    /// vertex (Section 7, local aggregation), with its wire size
    /// (`partial_bytes`: priced as the key and representative row it
    /// stands for).
    Partial(Box<Partial>, usize),
    /// The partial of a root that is its own one row, as that tuple's id:
    /// the attribute vertex folds the row. Priced as the partial it stands
    /// for, and no heap block.
    Row(VertexId, usize),
}

impl TagMsg {
    /// A partial's tuple ids and accumulators; `None` accumulators for a
    /// [`TagMsg::Row`], whose one row the receiver folds.
    pub(crate) fn partial(&self) -> Option<(&[VertexId], Option<&[Accumulator]>)> {
        match self {
            TagMsg::Partial(p, _) => Some((p.ids(), Some(p.accs()))),
            TagMsg::Row(id, _) => Some((std::slice::from_ref(id), None)),
            TagMsg::Table(_) => None,
        }
    }
}

impl Message for TagMsg {
    fn byte_size(&self) -> usize {
        match self {
            TagMsg::Table(t) => t.approx_bytes(),
            TagMsg::Partial(_, bytes) | TagMsg::Row(_, bytes) => *bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Value {
        Value::str(text)
    }

    /// The value-row wire model id rows must reproduce: `16 + rows x cols x
    /// 8` plus every string cell's padded payload.
    fn value_row_bytes(cols: usize, rows: &[Vec<Value>]) -> usize {
        16 + rows.len() * cols * 8 + rows.iter().flatten().map(str_payload).sum::<usize>()
    }

    fn layout(tables: Vec<usize>, mut cols: Vec<ColKey>) -> Arc<Layout> {
        cols.sort_unstable();
        Arc::new(Layout { tables, cols })
    }

    const X: ColKey = ColKey::Var(0);
    const fn col(table: u16, col: u16) -> ColKey {
        ColKey::Col { table, col }
    }

    /// Table 0 over `(x, name)`: tuple 10 is `(1, "abc")`, tuple 11 is
    /// `(1, "abcdefghi")` — two one-row tables unioned.
    fn names() -> Table {
        let l = layout(vec![0], vec![X, col(0, 1)]);
        let a = Table::single(Arc::clone(&l), 10, str_payload(&s("abc")));
        let b = Table::single(l, 11, str_payload(&s("abcdefghi")));
        Table::union([&a, &b]).unwrap()
    }

    #[test]
    fn first_visit_prices_the_strings_it_adds() {
        let rows = names();
        assert_eq!(
            rows.approx_bytes(),
            value_row_bytes(
                2,
                &[vec![Value::Int(1), s("abc")], vec![Value::Int(1), s("abcdefghi")]]
            )
        );
        // Tuple 20 of table 1 joins on x (proved by the edge) and adds a
        // 3-byte and a 9-byte string: 8 + 16 padded bytes on every row.
        let added = [s("abc"), s("abcdefghi")];
        let payload: usize = added.iter().map(str_payload).sum();
        assert_eq!(payload, 8 + 16);
        let l = layout(vec![0, 1], vec![X, col(0, 1), col(1, 1), col(1, 2)]);
        let t = Table::extend([&rows], l, 20, payload, |_| true).unwrap();
        let rows: Vec<&[VertexId]> = t.rows().collect();
        assert_eq!(rows, [[10, 20], [11, 20]]);
        let want = [
            vec![Value::Int(1), s("abc"), added[0].clone(), added[1].clone()],
            vec![Value::Int(1), s("abcdefghi"), added[0].clone(), added[1].clone()],
        ];
        assert_eq!(t.approx_bytes(), value_row_bytes(4, &want));
        assert_eq!(t.approx_bytes(), 16 + 2 * 4 * 8 + (8 + 24) + (16 + 24));

        // A row the caller's check rejects leaves with its payload.
        let l = layout(vec![0, 1], vec![X, col(0, 1), col(1, 1), col(1, 2)]);
        let one = Table::extend([&names()], l, 20, payload, |ids| ids[0] == 11).unwrap();
        assert_eq!(one.approx_bytes(), value_row_bytes(4, &want[1..]));
    }

    #[test]
    fn revisit_drops_the_rows_of_other_tuples() {
        // Rows from tuples 10 and 11 (identical except for the string) meet
        // at tuple 11's revisit: it keeps its own row only.
        let t = names();
        let own = Table::select([&t], 0, 11).unwrap();
        assert_eq!(own.rows().collect::<Vec<_>>(), [[11]]);
        assert_eq!(own.approx_bytes(), value_row_bytes(2, &[vec![Value::Int(1), s("abcdefghi")]]));
        // No match is an empty table; no incoming table is no table.
        let none = Table::select([&t], 0, 12).unwrap();
        assert!(none.is_empty());
        assert_eq!(none.approx_bytes(), 16);
        assert!(Table::select([], 0, 11).is_none());
    }

    #[test]
    fn union_keeps_operand_then_row_order_and_adds_bytes() {
        let a = names();
        let b = Table::select([&names()], 0, 10).unwrap();
        let u = Table::union([&a, &b]).unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(u.rows().collect::<Vec<_>>(), [[10], [11], [10]]);
        let rows = [
            vec![Value::Int(1), s("abc")],
            vec![Value::Int(1), s("abcdefghi")],
            vec![Value::Int(1), s("abc")],
        ];
        assert_eq!(u.approx_bytes(), value_row_bytes(2, &rows));
        assert_eq!(u.approx_bytes(), a.approx_bytes() + b.approx_bytes() - 16);
        assert!(Table::union(std::iter::empty::<&Table>()).is_none());
    }

    /// Incoming tables over `(x, name)`: the names, tuple 12 alone, and an
    /// empty one.
    fn incoming() -> [Table; 3] {
        let l = layout(vec![0], vec![X, col(0, 1)]);
        let twelve = Table::single(Arc::clone(&l), 12, str_payload(&s("abcdefghijklmnopq")));
        [names(), twelve, Table::empty(l)]
    }

    #[test]
    fn extend_over_several_tables_equals_extend_over_their_union() {
        let tables = incoming();
        let union = Table::union(&tables).unwrap();
        let l = layout(vec![0, 1], vec![X, col(0, 1), col(1, 1)]);
        for keep in [|_: &[VertexId]| true, |ids: &[VertexId]| ids[0] != 11] {
            let many = Table::extend(&tables, Arc::clone(&l), 20, 8, keep).unwrap();
            let one = Table::extend([&union], Arc::clone(&l), 20, 8, keep).unwrap();
            assert_eq!(many.rows().collect::<Vec<_>>(), one.rows().collect::<Vec<_>>());
            assert_eq!(many.approx_bytes(), one.approx_bytes());
        }
        assert!(Table::extend([], l, 20, 8, |_| true).is_none());
    }

    #[test]
    fn select_over_several_tables_equals_select_over_their_union() {
        let tables = incoming();
        let union = Table::union(&tables).unwrap();
        for id in [10, 11, 12, 13] {
            let many = Table::select(&tables, 0, id).unwrap();
            let one = Table::select([&union], 0, id).unwrap();
            assert_eq!(many.rows().collect::<Vec<_>>(), one.rows().collect::<Vec<_>>());
            assert_eq!(many.approx_bytes(), one.approx_bytes());
        }
    }

    #[test]
    fn empty_table_is_its_sixteen_byte_header() {
        let t = Table::empty(layout(vec![0, 1], vec![X, col(0, 1), col(1, 1)]));
        assert!(t.is_empty());
        assert_eq!(t.approx_bytes(), 16);
        assert_eq!(t.approx_bytes(), value_row_bytes(3, &[]));
        assert_eq!(TagMsg::Table(Arc::new(t)).byte_size(), 16);
    }

    #[test]
    fn product_pairs_every_row_and_sums_payloads() {
        let l = names();
        let r = Table::union([
            &Table::single(layout(vec![2], vec![col(2, 0)]), 30, 0),
            &Table::single(layout(vec![2], vec![col(2, 0)]), 31, 0),
            &Table::single(layout(vec![2], vec![col(2, 0)]), 32, 0),
        ])
        .unwrap();
        let p = l.product(&r);
        assert_eq!(p.len(), 6);
        assert_eq!(p.layout().tables, [0, 2]);
        assert_eq!(p.cols(), [X, col(0, 1), col(2, 0)]);
        // The smaller side (`l`) is the outer loop.
        assert_eq!(p.rows().next(), Some(&[10, 30][..]));
        assert_eq!(p.approx_bytes(), 16 + 6 * 3 * 8 + 3 * (8 + 16));
        assert_eq!(r.product(&l).approx_bytes(), p.approx_bytes());
    }

    /// A partial wider than its inline arrays spills to the heap and still
    /// holds every id and accumulator, in order.
    #[test]
    fn a_wide_partial_keeps_every_id_and_accumulator() {
        for (ids, accs) in [(1, 1), (INLINE_IDS, INLINE_ACCS), (INLINE_IDS + 2, INLINE_ACCS + 1)] {
            let ids: Vec<VertexId> = (10..).take(ids).collect();
            let counts: Vec<Accumulator> = (0..accs as u64).map(Accumulator::Count).collect();
            let mut p = Partial::new(&ids, counts.iter().cloned());
            assert_eq!(p.ids(), ids);
            assert_eq!(p.accs(), counts);
            p.accs_mut().iter_mut().for_each(|a| a.update(&Value::Int(1)).unwrap());
            assert_eq!(
                p.clone().accs(),
                (1..=accs as u64).map(Accumulator::Count).collect::<Vec<_>>()
            );
        }
    }
}
