//! Intermediate result rows exchanged during the collection phase.
//!
//! A collection row says *which* tuples it joins, not what they hold: one
//! `u32` tuple-vertex id per query table the traversal has visited, in visit
//! order. A TAG edge has already proved the join equality it carries, so the
//! collection phase never compares or copies a value to join (see
//! [`crate::exec`]):
//!
//! * a tuple vertex's **first visit** appends its own id to every incoming
//!   row ([`Rows::extend`]), after its caller has checked, by arena reads,
//!   the shared join variables the traversed edge did not prove;
//! * a **revisit** on a backtracking step keeps exactly the rows whose id
//!   for that table is the vertex ([`Rows::select`]);
//! * an attribute vertex **unions** ([`Rows::union`]).
//!
//! Values are read from the TAG's arena only at the root, for residuals,
//! group keys, aggregate arguments and output.
//!
//! # Layout
//!
//! Every row of one superstep shares one [`Layout`]: the visited tables and
//! the value columns their tuples stand for. Columns are [`ColKey`]s — join
//! columns by their join *variable* (so equi-joined columns from different
//! relations unify under one key), everything else by its `(table, column)`
//! provenance — kept sorted. No column is stored: the columns price a row
//! on the wire and bind it at the root. The plan records the layout after
//! every visit, so a value need not carry one: its receiver reads it there.
//!
//! # Storage
//!
//! A vertex builds its rows in its worker's scratch, a [`Rows`] buffer: one
//! contiguous row-major run of `u32` words, each row its ids, then its
//! string payload in bytes. The next vertex empties it, so it allocates
//! only when it grows. [`Rows::extend`], [`Rows::select`] and
//! [`Rows::union`] read every value the vertex received ([`Incoming`]), in
//! message order, whatever its kind. The value the vertex sends is then
//! ([`Rows::to_msg`]):
//!
//! * one row of at most [`INLINE_WIDTH`] ids: carried inside its message
//!   ([`TagMsg::OneRow`]), its ids, payload word and wire price, with no
//!   heap block;
//! * any other: one [`Table`], the rows copied into one buffer, shared
//!   behind one `Arc` along every edge ([`TagMsg::Table`]).
//!
//! A root reads its final rows straight from its scratch; no table is built
//! for it.
//!
//! # Wire model
//!
//! Wire bytes stay the paper's value bytes: a value of `rows` rows over
//! `cols` columns costs `16 + rows x cols x 8` plus the 8-byte-padded
//! payload of every string value the rows stand for ([`Rows::approx_bytes`];
//! an inline row is priced as the one-row table it replaces). Each row
//! carries the payload of the columns it added — a join variable's column
//! is counted once, by the visit that added it — so the model is maintained
//! incrementally and [`TagMsg::byte_size`] is O(1).

use std::ops::{Deref, DerefMut};
use std::slice::ChunksExact;
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

/// What every row of a value holds and stands for.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Layout {
    /// The query tables whose tuple-vertex ids a row holds, in visit order.
    pub tables: Vec<usize>,
    /// The value columns those tuples stand for, sorted.
    pub cols: Vec<ColKey>,
}

/// Ids a row carried inside its message holds at most. The workloads' one-row
/// values are one or two tables wide, but for q5's, which stay tables.
pub const INLINE_WIDTH: usize = 2;

/// Rows of tuple-vertex ids, `width` per row: a worker's scratch, or a
/// table's rows.
#[derive(Debug, Default, Clone)]
pub struct Rows {
    width: usize,
    /// Row-major rows: `width` ids, then the row's string payload in bytes.
    words: Vec<u32>,
    /// Sum of the rows' payloads (incremental wire model).
    str_bytes: usize,
}

impl Rows {
    /// Empty the buffer for rows of `width` ids, keeping its capacity.
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.words.clear();
        self.str_bytes = 0;
    }

    /// Append a row: `ids`, then `more` ids, with `payload` string bytes.
    #[inline]
    fn push(&mut self, ids: &[VertexId], more: &[VertexId], payload: usize) {
        self.words.extend_from_slice(ids);
        self.words.extend_from_slice(more);
        self.words.push(payload as u32);
        self.str_bytes += payload;
    }

    /// Append a traversal's start: tuple `id`'s own row, with the `payload`
    /// of every column it stands for.
    pub fn start(&mut self, id: VertexId, payload: usize) {
        debug_assert_eq!(self.width, 1, "a start row names one tuple");
        self.push(&[id], &[], payload);
    }

    /// Ids per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.words.len() / (self.width + 1)
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Approximate serialized payload bytes of the rows as one value over
    /// `cols` columns (used for message accounting): one 8-byte word per
    /// value the rows stand for plus the contents of variable-length values
    /// — the same wire model the distributed simulation charges the
    /// shuffle-join side, so TAG-vs-Spark byte comparisons are like for
    /// like. O(1): both terms are maintained incrementally.
    pub fn approx_bytes(&self, cols: usize) -> usize {
        16 + self.len() * cols * 8 + self.str_bytes
    }

    /// Rows with their payload word: `width + 1` words each.
    fn words(&self) -> ChunksExact<'_, u32> {
        self.words.chunks_exact(self.width + 1)
    }

    /// Rows as id slices, one id per layout table, in layout order.
    pub fn rows(&self) -> impl Iterator<Item = &[VertexId]> {
        let width = self.width;
        self.words().map(move |w| &w[..width])
    }

    /// Row `i`'s ids.
    pub fn row(&self, i: usize) -> &[VertexId] {
        let at = i * (self.width + 1);
        &self.words[at..at + self.width]
    }

    /// Append `other`'s rows; an empty buffer takes their width.
    pub fn append(&mut self, other: &Rows) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.width = other.width;
        }
        debug_assert_eq!(self.width, other.width, "append of mismatched rows");
        self.words.extend_from_slice(&other.words);
        self.str_bytes += other.str_bytes;
    }

    /// An attribute vertex's union (bag semantics): append the rows of every
    /// value received, in message and then row order.
    pub fn union(&mut self, incoming: Incoming<'_>) {
        debug_assert_eq!(self.width, incoming.width, "union of mismatched rows");
        for (words, str_bytes) in incoming.values() {
            self.words.extend_from_slice(words);
            self.str_bytes += str_bytes;
        }
    }

    /// A tuple vertex's first visit: append every received row `keep`
    /// accepts, in message and then row order, extended by the vertex's `id`
    /// and `payload` — the padded strings of the columns it adds.
    pub fn extend(
        &mut self,
        incoming: Incoming<'_>,
        id: VertexId,
        payload: usize,
        mut keep: impl FnMut(&[VertexId]) -> bool,
    ) {
        let width = incoming.width;
        debug_assert_eq!(self.width, width + 1, "a visit appends one table");
        for w in incoming.rows() {
            if keep(&w[..width]) {
                self.push(&w[..width], &[id], w[width] as usize + payload);
            }
        }
    }

    /// A tuple vertex's revisit: append the received rows whose id at layout
    /// position `pos` is `id`, in message and then row order.
    pub fn select(&mut self, incoming: Incoming<'_>, pos: usize, id: VertexId) {
        let width = incoming.width;
        debug_assert_eq!(self.width, width, "select over mismatched rows");
        for w in incoming.rows().filter(|w| w[pos] == id) {
            self.words.extend_from_slice(w);
            self.str_bytes += w[width] as usize;
        }
    }

    /// Append the cross product of `a` and `b`, rows over disjoint tables
    /// (Section 6.3's Algorithm B): each row's ids are `a`'s, then `b`'s.
    /// The smaller side is the outer loop, so each inner run of rows follows
    /// the larger side's order.
    pub fn product(&mut self, a: &Rows, b: &Rows) {
        let (w, v) = (a.width, b.width);
        debug_assert_eq!(self.width, w + v, "a product's rows hold both sides");
        self.words.reserve(a.len() * b.len() * (w + v + 1));
        let mut emit = |x: &[u32], y: &[u32]| self.push(&x[..w], &y[..v], (x[w] + y[v]) as usize);
        if a.len() <= b.len() {
            for x in a.words() {
                b.words().for_each(|y| emit(x, y));
            }
        } else {
            for y in b.words() {
                a.words().for_each(|x| emit(x, y));
            }
        }
    }

    /// The rows as the value a vertex sends, standing for `layout`: one row
    /// of at most [`INLINE_WIDTH`] ids inside the message, any other as one
    /// table behind one `Arc`, to share along every edge.
    pub fn to_msg(&self, layout: &Arc<Layout>) -> TagMsg {
        debug_assert_eq!(self.width, layout.tables.len(), "rows over another layout");
        if self.len() == 1 && self.width <= INLINE_WIDTH {
            let mut words = [0; INLINE_WIDTH + 1];
            words[..=self.width].copy_from_slice(&self.words);
            let bytes = u32::try_from(self.approx_bytes(layout.cols.len()))
                .expect("a row's price fits a word, as its payload does");
            return TagMsg::OneRow(OneRow { words, bytes });
        }
        TagMsg::Table(Arc::new(Table::new(Arc::clone(layout), self.clone())))
    }
}

/// The collection values a vertex received, read as rows of `width` ids:
/// inline rows and tables alike, in message order.
#[derive(Clone, Copy)]
pub struct Incoming<'m> {
    msgs: &'m [TagMsg],
    width: usize,
}

impl<'m> Incoming<'m> {
    /// The values among `msgs`, whose rows hold `width` ids.
    pub fn new(msgs: &'m [TagMsg], width: usize) -> Incoming<'m> {
        Incoming { msgs, width }
    }

    /// Each value's words and payload bytes.
    fn values(self) -> impl Iterator<Item = (&'m [u32], usize)> {
        self.msgs.iter().filter_map(move |m| m.value(self.width))
    }

    /// True iff no value arrived (a value of no rows is one).
    pub fn is_empty(self) -> bool {
        self.values().next().is_none()
    }

    /// Every row with its payload word, `width + 1` words.
    fn rows(self) -> impl Iterator<Item = &'m [u32]> {
        self.values().flat_map(move |(words, _)| words.chunks_exact(self.width + 1))
    }
}

/// A value of one row of at most [`INLINE_WIDTH`] ids, inside its message:
/// the row's words (its ids, then its payload word; places past the payload
/// hold 0) and its wire price, that of the one-row table it stands for.
#[derive(Debug, Clone, Copy)]
pub struct OneRow {
    words: [u32; INLINE_WIDTH + 1],
    bytes: u32,
}

/// A value of several rows (or none, or rows wider than [`INLINE_WIDTH`]):
/// a shared [`Layout`] plus its rows.
#[derive(Debug)]
pub struct Table {
    layout: Arc<Layout>,
    rows: Rows,
}

impl Table {
    /// `rows` as a table over `layout`.
    pub fn new(layout: Arc<Layout>, mut rows: Rows) -> Table {
        if rows.is_empty() {
            rows.reset(layout.tables.len());
        }
        debug_assert_eq!(rows.width, layout.tables.len(), "rows over another layout");
        Table { layout, rows }
    }

    /// The layout every row shares.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// The value columns the rows stand for.
    pub fn cols(&self) -> &[ColKey] {
        &self.layout.cols
    }

    /// The rows.
    pub fn rows(&self) -> &Rows {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate serialized payload bytes ([`Rows::approx_bytes`] over
    /// the layout's columns).
    pub fn approx_bytes(&self) -> usize {
        self.rows.approx_bytes(self.layout.cols.len())
    }

    /// Cross product with a table over disjoint tables and columns
    /// ([`Rows::product`]).
    pub fn product(&self, other: &Table) -> Table {
        let mut cols: Vec<ColKey> = self.cols().iter().chain(other.cols()).copied().collect();
        cols.sort_unstable();
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "product over shared columns");
        let tables = self.layout.tables.iter().chain(&other.layout.tables).copied().collect();
        let layout = Arc::new(Layout { tables, cols });
        let mut rows = Rows::default();
        rows.reset(layout.tables.len());
        rows.product(&self.rows, &other.rows);
        Table::new(layout, rows)
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
    /// Collection-phase value of one row of at most [`INLINE_WIDTH`] ids,
    /// inside the message (Algorithm 2, line 40).
    OneRow(OneRow),
    /// Any other collection-phase value: one table, shared along every
    /// edge.
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
    /// A collection value's words, rows of `width` ids each with its
    /// payload word, and its payload bytes; `None` for a partial.
    fn value(&self, width: usize) -> Option<(&[u32], usize)> {
        match self {
            TagMsg::OneRow(r) => Some((&r.words[..=width], r.words[width] as usize)),
            TagMsg::Table(t) => {
                debug_assert_eq!(t.rows.width, width, "a table over another layout");
                Some((&t.rows.words, t.rows.str_bytes))
            }
            TagMsg::Partial(..) | TagMsg::Row(..) => None,
        }
    }

    /// A partial's tuple ids and accumulators; `None` accumulators for a
    /// [`TagMsg::Row`], whose one row the receiver folds.
    pub(crate) fn partial(&self) -> Option<(&[VertexId], Option<&[Accumulator]>)> {
        match self {
            TagMsg::Partial(p, _) => Some((p.ids(), Some(p.accs()))),
            TagMsg::Row(id, _) => Some((std::slice::from_ref(id), None)),
            TagMsg::OneRow(_) | TagMsg::Table(_) => None,
        }
    }
}

impl Message for TagMsg {
    fn byte_size(&self) -> usize {
        match self {
            TagMsg::OneRow(r) => r.bytes as usize,
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

    /// Empty scratch for rows of `width` ids.
    fn scratch(width: usize) -> Rows {
        let mut rows = Rows::default();
        rows.reset(width);
        rows
    }

    /// The start rows of tuples `(id, payload)`, over table 0.
    fn starts(rows: &[(VertexId, usize)]) -> Rows {
        let mut out = scratch(1);
        rows.iter().for_each(|&(id, payload)| out.start(id, payload));
        out
    }

    /// Table 0 over `(x, name)`.
    fn names_layout() -> Arc<Layout> {
        layout(vec![0], vec![X, col(0, 1)])
    }

    /// Table 0's rows: tuple 10 is `(1, "abc")`, tuple 11 is
    /// `(1, "abcdefghi")`.
    fn names() -> Rows {
        starts(&[(10, str_payload(&s("abc"))), (11, str_payload(&s("abcdefghi")))])
    }

    /// `rows` as the one value received, a table of two rows.
    fn one_value(rows: &Rows) -> TagMsg {
        rows.to_msg(&names_layout())
    }

    #[test]
    fn first_visit_prices_the_strings_it_adds() {
        let rows = names();
        assert_eq!(
            rows.approx_bytes(2),
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
        let msgs = [one_value(&rows)];
        let mut t = scratch(2);
        t.extend(Incoming::new(&msgs, 1), 20, payload, |_| true);
        let ids: Vec<&[VertexId]> = t.rows().collect();
        assert_eq!(ids, [[10, 20], [11, 20]]);
        let want = [
            vec![Value::Int(1), s("abc"), added[0].clone(), added[1].clone()],
            vec![Value::Int(1), s("abcdefghi"), added[0].clone(), added[1].clone()],
        ];
        assert_eq!(t.approx_bytes(4), value_row_bytes(4, &want));
        assert_eq!(t.approx_bytes(4), 16 + 2 * 4 * 8 + (8 + 24) + (16 + 24));

        // A row the caller's check rejects leaves with its payload.
        let mut one = scratch(2);
        one.extend(Incoming::new(&msgs, 1), 20, payload, |ids| ids[0] == 11);
        assert_eq!(one.approx_bytes(4), value_row_bytes(4, &want[1..]));
    }

    #[test]
    fn revisit_drops_the_rows_of_other_tuples() {
        // Rows from tuples 10 and 11 (identical except for the string) meet
        // at tuple 11's revisit: it keeps its own row only.
        let msgs = [one_value(&names())];
        let mut own = scratch(1);
        own.select(Incoming::new(&msgs, 1), 0, 11);
        assert_eq!(own.rows().collect::<Vec<_>>(), [[11]]);
        let want = value_row_bytes(2, &[vec![Value::Int(1), s("abcdefghi")]]);
        assert_eq!(own.approx_bytes(2), want);
        // The kept row travels inside its message, at the same price.
        assert!(matches!(own.to_msg(&names_layout()), TagMsg::OneRow(_)));
        assert_eq!(own.to_msg(&names_layout()).byte_size(), want);
        // No match is an empty table of 16 bytes; no value received is
        // none.
        let mut none = scratch(1);
        none.select(Incoming::new(&msgs, 1), 0, 12);
        assert!(none.is_empty());
        assert!(matches!(none.to_msg(&names_layout()), TagMsg::Table(_)));
        assert_eq!(none.to_msg(&names_layout()).byte_size(), 16);
        assert!(Incoming::new(&[], 1).is_empty());
        assert!(!Incoming::new(&[none.to_msg(&names_layout())], 1).is_empty());
    }

    #[test]
    fn union_keeps_message_then_row_order_and_adds_bytes() {
        let a = one_value(&names());
        let b = one_value(&starts(&[(10, str_payload(&s("abc")))]));
        let mut u = scratch(1);
        u.union(Incoming::new(&[a.clone(), b.clone()], 1));
        assert_eq!(u.len(), 3);
        assert_eq!(u.rows().collect::<Vec<_>>(), [[10], [11], [10]]);
        let rows = [
            vec![Value::Int(1), s("abc")],
            vec![Value::Int(1), s("abcdefghi")],
            vec![Value::Int(1), s("abc")],
        ];
        assert_eq!(u.approx_bytes(2), value_row_bytes(2, &rows));
        assert_eq!(u.approx_bytes(2), a.byte_size() + b.byte_size() - 16);
    }

    /// Values received over `(x, name)`, in message order: tuple 13 inline,
    /// the names as a table, tuple 12 inline, an empty table and tuple 11
    /// inline again. Unioned, they are rows 13, 10, 11, 12, 11.
    fn incoming() -> Vec<TagMsg> {
        let l = names_layout();
        let one = |id, text| starts(&[(id, str_payload(&s(text)))]).to_msg(&l);
        vec![
            one(13, ""),
            names().to_msg(&l),
            one(12, "abcdefghijklmnopq"),
            scratch(1).to_msg(&l),
            one(11, "abcdefghi"),
        ]
    }

    /// Rows and price, to compare.
    fn read(rows: &Rows, cols: usize) -> (Vec<Vec<VertexId>>, usize) {
        (rows.rows().map(<[VertexId]>::to_vec).collect(), rows.approx_bytes(cols))
    }

    /// Union, first visits and revisits over a mix of inline rows and
    /// tables read the same rows, in the same order and at the same price,
    /// as over the one table of their union.
    #[test]
    fn a_mix_of_inline_rows_and_tables_reads_as_their_union() {
        let mixed = incoming();
        assert_eq!(
            mixed.iter().map(|m| matches!(m, TagMsg::OneRow(_))).collect::<Vec<_>>(),
            [true, false, true, false, true]
        );
        let mut union = scratch(1);
        union.union(Incoming::new(&mixed, 1));
        let ids: Vec<VertexId> = union.rows().map(|r| r[0]).collect();
        assert_eq!(ids, [13, 10, 11, 12, 11]);
        let whole = [union.to_msg(&names_layout())];
        assert!(matches!(whole[0], TagMsg::Table(_)));
        let byte_sum = mixed.iter().map(Message::byte_size).sum::<usize>() - 4 * 16;
        assert_eq!(union.approx_bytes(2), byte_sum);
        assert_eq!(whole[0].byte_size(), byte_sum);

        let (mixed, whole) = (Incoming::new(&mixed, 1), Incoming::new(&whole, 1));
        for keep in [|_: &[VertexId]| true, |ids: &[VertexId]| ids[0] != 11] {
            let (mut many, mut one) = (scratch(2), scratch(2));
            many.extend(mixed, 20, 8, keep);
            one.extend(whole, 20, 8, keep);
            assert_eq!(read(&many, 3), read(&one, 3));
        }
        for id in [10, 11, 12, 13, 14] {
            let (mut many, mut one) = (scratch(1), scratch(1));
            many.select(mixed, 0, id);
            one.select(whole, 0, id);
            assert_eq!(read(&many, 2), read(&one, 2));
        }
        let (mut many, mut one) = (scratch(1), scratch(1));
        many.union(mixed);
        one.union(whole);
        assert_eq!(read(&many, 2), read(&one, 2));
    }

    /// One row of at most two ids is an inline row, priced as the one-row
    /// table it stands for (`16 + cols x 8 + payload`); a wider row, more
    /// rows or none make a table.
    #[test]
    fn only_one_narrow_row_travels_inside_its_message() {
        let cols = |n: u16| (0..n).map(|c| col(0, c)).collect::<Vec<_>>();
        for width in 1..=INLINE_WIDTH + 1 {
            let l = layout((0..width).collect(), cols(width as u16 + 1));
            let mut one = scratch(width);
            one.push(&(30..30 + width as VertexId).collect::<Vec<_>>(), &[], 24);
            let msg = one.to_msg(&l);
            assert_eq!(matches!(msg, TagMsg::OneRow(_)), width <= INLINE_WIDTH, "width {width}");
            assert_eq!(msg.byte_size(), 16 + (width + 1) * 8 + 24);
            assert_eq!(msg.byte_size(), Table::new(Arc::clone(&l), one.clone()).approx_bytes());
            let mut read = scratch(width);
            read.union(Incoming::new(std::slice::from_ref(&msg), width));
            assert_eq!(read.rows().collect::<Vec<_>>(), one.rows().collect::<Vec<_>>());
        }
        let two = names().to_msg(&names_layout());
        assert!(matches!(two, TagMsg::Table(_)));
        assert!(matches!(scratch(1).to_msg(&names_layout()), TagMsg::Table(_)));
    }

    /// An inline row fits the space of the largest other message, so a
    /// message stays 24 bytes.
    #[test]
    fn a_message_is_24_bytes() {
        assert_eq!(std::mem::size_of::<OneRow>(), 16);
        assert_eq!(std::mem::size_of::<TagMsg>(), 24);
    }

    #[test]
    fn empty_table_is_its_sixteen_byte_header() {
        let t = Table::new(layout(vec![0, 1], vec![X, col(0, 1), col(1, 1)]), Rows::default());
        assert!(t.is_empty());
        assert_eq!(t.approx_bytes(), 16);
        assert_eq!(t.approx_bytes(), value_row_bytes(3, &[]));
        assert_eq!(TagMsg::Table(Arc::new(t)).byte_size(), 16);
    }

    #[test]
    fn product_pairs_every_row_and_sums_payloads() {
        let l = Table::new(names_layout(), names());
        let r = Table::new(layout(vec![2], vec![col(2, 0)]), starts(&[(30, 0), (31, 0), (32, 0)]));
        let p = l.product(&r);
        assert_eq!(p.len(), 6);
        assert_eq!(p.layout().tables, [0, 2]);
        assert_eq!(p.cols(), [X, col(0, 1), col(2, 0)]);
        // The smaller side (`l`) is the outer loop.
        assert_eq!(p.rows().rows().next(), Some(&[10, 30][..]));
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
