//! Intermediate result tables exchanged during the collection phase.
//!
//! Columns are identified by [`ColKey`]: join columns by their join
//! *variable* (so equi-joined columns from different relations unify under
//! one key — what lets a tuple vertex natural-join an incoming table against
//! its own row), everything else by its `(table, column)` provenance.
//! Column lists are kept **sorted**, which makes layouts predictable (the
//! final layout of a traversal is statically known) and shared-column
//! detection a linear merge.
//!
//! # Storage
//!
//! A table is a sequence of immutable column-major [`Chunk`]s behind `Arc`s.
//! [`Table::union`] splices whole chunks instead of copying values, so
//! fanning a collection table out to many vertices (or accumulating
//! incoming tables at one) is O(chunks), not O(cells). Row
//! access goes through the [`RowRef`] cursor or the scratch-row helper
//! [`Table::for_each_row`]; nothing outside this module sees the chunk
//! boundaries, which carry no meaning (equality, joins and the wire-byte
//! model are all chunk-agnostic).
//!
//! The wire model ([`Table::approx_bytes`]) is maintained incrementally at
//! construction — `16 + rows x cols x 8` plus the 8-byte-padded payload of
//! every string cell, exactly the bytes the row-major layout reported — so
//! [`TagMsg::byte_size`] is O(1) and every measured spark/tag byte ratio is
//! unchanged by the columnar layout.

use std::sync::Arc;
use vcsql_bsp::{Message, VertexId};
use vcsql_relation::agg::Accumulator;
use vcsql_relation::{fx, Value};

/// A column key of an intermediate table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ColKey {
    /// A join variable (equivalence class of equi-joined columns).
    Var(u32),
    /// A non-join column, identified by `(table index, column index)`.
    Col { table: u16, col: u16 },
}

/// Wire bytes a single value contributes beyond its fixed 8-byte slot.
#[inline]
fn value_str_bytes(v: &Value) -> usize {
    v.wire_bytes() - 8
}

/// One immutable column-major segment of a [`Table`].
///
/// `columns` is parallel to the owning table's `cols`; `rows` is explicit so
/// zero-column tables (legal cross-product degenerate) still count rows.
#[derive(Debug)]
pub struct Chunk {
    columns: Vec<Vec<Value>>,
    rows: usize,
    /// Padded string payload of every cell in this chunk (wire model).
    str_bytes: usize,
}

impl Chunk {
    fn new(width: usize) -> Chunk {
        Chunk { columns: vec![Vec::new(); width], rows: 0, str_bytes: 0 }
    }

    #[inline]
    fn get(&self, col: usize, row: usize) -> &Value {
        &self.columns[col][row]
    }

    /// Append one value to column `col`; call [`Chunk::commit_row`] once per
    /// row after all columns are written.
    #[inline]
    fn push_at(&mut self, col: usize, v: Value) {
        self.str_bytes += value_str_bytes(&v);
        self.columns[col].push(v);
    }

    #[inline]
    fn commit_row(&mut self) {
        self.rows += 1;
    }
}

/// A borrowed row: a cursor into one chunk. `Copy`, 16 bytes — cheap to
/// hand around during joins.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    chunk: &'a Chunk,
    row: usize,
}

impl<'a> RowRef<'a> {
    /// The value in column position `col` (position in the table's `cols`).
    #[inline]
    pub fn get(&self, col: usize) -> &'a Value {
        self.chunk.get(col, self.row)
    }

    /// Left-to-right values of this row.
    pub fn values(&self) -> impl Iterator<Item = &'a Value> + '_ {
        self.chunk.columns.iter().map(move |c| &c[self.row])
    }
}

/// An intermediate table: sorted column keys + chunked column-major rows.
#[derive(Debug, Clone)]
pub struct Table {
    pub cols: Vec<ColKey>,
    /// Shared storage; cloning a table or unioning tables bumps refcounts.
    chunks: Vec<Arc<Chunk>>,
    /// Total row count across chunks (incremental, O(1) reads).
    len: usize,
    /// Total padded string payload across chunks (incremental wire model).
    str_bytes: usize,
}

impl Table {
    /// Empty table over sorted keys.
    pub fn empty(mut cols: Vec<ColKey>) -> Table {
        cols.sort_unstable();
        cols.dedup();
        Table { cols, chunks: Vec::new(), len: 0, str_bytes: 0 }
    }

    /// A one-row table over already-sorted, deduplicated keys.
    pub fn one_row(cols: Vec<ColKey>, row: Vec<Value>) -> Table {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "one_row cols must be sorted");
        debug_assert_eq!(cols.len(), row.len(), "one_row width mismatch");
        let str_bytes: usize = row.iter().map(value_str_bytes).sum();
        let chunk =
            Chunk { columns: row.into_iter().map(|v| vec![v]).collect(), rows: 1, str_bytes };
        Table { cols, chunks: vec![Arc::new(chunk)], len: 1, str_bytes }
    }

    /// Build from row-major data (tests, fixtures). `cols` must be sorted
    /// and deduplicated, every row as wide as `cols`.
    pub fn from_rows(cols: Vec<ColKey>, rows: Vec<Vec<Value>>) -> Table {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "from_rows cols must be sorted");
        let mut chunk = Chunk::new(cols.len());
        for row in rows {
            debug_assert_eq!(row.len(), cols.len(), "from_rows width mismatch");
            for (c, v) in row.into_iter().enumerate() {
                chunk.push_at(c, v);
            }
            chunk.commit_row();
        }
        Table::from_chunk(cols, chunk)
    }

    fn from_chunk(cols: Vec<ColKey>, chunk: Chunk) -> Table {
        let mut t = Table { cols, chunks: Vec::new(), len: 0, str_bytes: 0 };
        if chunk.rows > 0 {
            t.len = chunk.rows;
            t.str_bytes = chunk.str_bytes;
            t.chunks.push(Arc::new(chunk));
        }
        t
    }

    /// Position of a key.
    pub fn col_index(&self, key: ColKey) -> Option<usize> {
        self.cols.binary_search(&key).ok()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate serialized payload bytes (used for message accounting):
    /// one 8-byte word per value plus the contents of variable-length
    /// values — the same wire model the distributed simulation charges the
    /// shuffle-join side, so TAG-vs-Spark byte comparisons are like for
    /// like. O(1): both terms are maintained incrementally at construction.
    pub fn approx_bytes(&self) -> usize {
        16 + self.len * self.cols.len() * 8 + self.str_bytes
    }

    /// Iterate rows as [`RowRef`] cursors (no materialization).
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'_>> {
        self.chunks.iter().flat_map(|c| (0..c.rows).map(move |row| RowRef { chunk: c, row }))
    }

    /// Call `f` with each row materialized into a reused scratch slice —
    /// for consumers (expression evaluation, accumulators) that need a
    /// contiguous `&[Value]` row.
    pub fn for_each_row(&self, mut f: impl FnMut(&[Value])) {
        let width = self.cols.len();
        let mut scratch: Vec<Value> = Vec::with_capacity(width);
        for chunk in &self.chunks {
            for r in 0..chunk.rows {
                scratch.clear();
                scratch.extend(chunk.columns.iter().map(|c| c[r].clone()));
                f(&scratch);
            }
        }
    }

    /// Union of same-schema tables (bag semantics). Shares chunk storage
    /// with every operand — the first included — so no row is cloned.
    pub fn union<'a>(tables: impl IntoIterator<Item = &'a Table>) -> Option<Table> {
        let mut out: Option<Table> = None;
        for t in tables {
            match &mut out {
                None => out = Some(t.clone()),
                Some(acc) => {
                    debug_assert_eq!(acc.cols, t.cols, "union of mismatched layouts");
                    acc.chunks.extend(t.chunks.iter().cloned());
                    acc.len += t.len;
                    acc.str_bytes += t.str_bytes;
                }
            }
        }
        out
    }

    /// Natural join on shared column keys (hash join on the smaller side;
    /// cross product when no keys are shared). Join values use `Value`'s
    /// total equality (never NULL for `Var` keys — attribute vertices exist
    /// only for non-NULL values).
    pub fn natural_join(&self, other: &Table) -> Table {
        // Shared keys: linear merge of the sorted col lists.
        let mut shared = Vec::new();
        {
            let (mut i, mut j) = (0, 0);
            while i < self.cols.len() && j < other.cols.len() {
                match self.cols[i].cmp(&other.cols[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        shared.push(self.cols[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        // Output layout: sorted union.
        let mut out_cols: Vec<ColKey> =
            self.cols.iter().chain(other.cols.iter()).copied().collect();
        out_cols.sort_unstable();
        out_cols.dedup();

        let (build, probe) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        let bkey: Vec<usize> =
            shared.iter().map(|&k| build.col_index(k).expect("shared key")).collect();
        let pkey: Vec<usize> =
            shared.iter().map(|&k| probe.col_index(k).expect("shared key")).collect();

        // `(source column, output position)` emission plans. Each output
        // column is written exactly once per row: the probe side covers its
        // own columns, the build side everything else (on shared keys both
        // values are equal by construction, so dropping build's copy is the
        // column-wise equivalent of the old "probe overrides" row merge).
        let idx = |k: ColKey| out_cols.binary_search(&k).expect("out key");
        let mut probe_covers = vec![false; out_cols.len()];
        let p_emit: Vec<(usize, usize)> = probe
            .cols
            .iter()
            .enumerate()
            .map(|(c, &k)| {
                let pos = idx(k);
                probe_covers[pos] = true;
                (c, pos)
            })
            .collect();
        let b_emit: Vec<(usize, usize)> = build
            .cols
            .iter()
            .enumerate()
            .filter_map(|(c, &k)| {
                let pos = idx(k);
                (!probe_covers[pos]).then_some((c, pos))
            })
            .collect();

        let mut out = Chunk::new(out_cols.len());
        let emit = |out: &mut Chunk, b: RowRef<'_>, p: RowRef<'_>| {
            for &(c, pos) in &b_emit {
                out.push_at(pos, b.get(c).clone());
            }
            for &(c, pos) in &p_emit {
                out.push_at(pos, p.get(c).clone());
            }
            out.commit_row();
        };

        if shared.is_empty() {
            for b in build.iter() {
                for p in probe.iter() {
                    emit(&mut out, b, p);
                }
            }
            return Table::from_chunk(out_cols, out);
        }

        // Hash join: index the smaller side by key, locate rows by
        // `(chunk, row)` so matches read straight from shared storage.
        let mut index: vcsql_relation::FxHashMap<Vec<Value>, Vec<(u32, u32)>> =
            fx::map_with_capacity(build.len());
        for (ci, chunk) in build.chunks.iter().enumerate() {
            for r in 0..chunk.rows {
                let key: Vec<Value> = bkey.iter().map(|&k| chunk.get(k, r).clone()).collect();
                index.entry(key).or_default().push((ci as u32, r as u32));
            }
        }
        let mut key = Vec::with_capacity(pkey.len());
        for p in probe.iter() {
            key.clear();
            key.extend(pkey.iter().map(|&k| p.get(k).clone()));
            if let Some(matches) = index.get(&key) {
                for &(ci, r) in matches {
                    let b = RowRef { chunk: &build.chunks[ci as usize], row: r as usize };
                    emit(&mut out, b, p);
                }
            }
        }
        Table::from_chunk(out_cols, out)
    }

    /// Keep rows passing `pred`. Chunks that keep every row are reused
    /// as-is (shared storage, no copy); partially-kept chunks are rebuilt.
    pub fn retain(&mut self, mut pred: impl FnMut(&[Value]) -> bool) {
        let width = self.cols.len();
        let mut scratch: Vec<Value> = Vec::with_capacity(width);
        let chunks = std::mem::take(&mut self.chunks);
        self.len = 0;
        self.str_bytes = 0;
        for chunk in chunks {
            let keep: Vec<bool> = (0..chunk.rows)
                .map(|r| {
                    scratch.clear();
                    scratch.extend(chunk.columns.iter().map(|c| c[r].clone()));
                    pred(&scratch)
                })
                .collect();
            let kept = keep.iter().filter(|&&k| k).count();
            if kept == chunk.rows {
                self.len += chunk.rows;
                self.str_bytes += chunk.str_bytes;
                self.chunks.push(chunk);
            } else if kept > 0 {
                let mut filtered = Chunk::new(width);
                for (r, &k) in keep.iter().enumerate() {
                    if k {
                        for c in 0..width {
                            filtered.push_at(c, chunk.get(c, r).clone());
                        }
                        filtered.commit_row();
                    }
                }
                self.len += filtered.rows;
                self.str_bytes += filtered.str_bytes;
                self.chunks.push(Arc::new(filtered));
            }
        }
    }
}

/// A partially aggregated group (what roots ship to aggregation vertices).
#[derive(Debug, Clone)]
pub struct Partial {
    /// One accumulator per output item (placeholders for non-aggregates).
    pub accs: Vec<Accumulator>,
    /// Accumulators for HAVING predicates.
    pub having: Vec<Accumulator>,
    /// A representative final-layout row of the group (for evaluating
    /// group-key expressions and HAVING right-hand sides).
    pub rep: Box<[Value]>,
}

impl Partial {
    /// Wire size of this partial shipped (or checkpointed) under group key
    /// `key`: 16 bytes per key and representative value, 24 per
    /// accumulator, a 32-byte envelope.
    pub fn wire_bytes(&self, key: &[Value]) -> usize {
        32 + key.len() * 16 + self.accs.len() * 24 + self.having.len() * 24 + self.rep.len() * 16
    }
}

/// Messages of the TAG-join vertex program.
#[derive(Debug, Clone)]
pub enum TagMsg {
    /// Reduction-phase signal carrying the sender's id (Algorithm 2,
    /// lines 13/18).
    Signal(VertexId),
    /// Collection-phase intermediate table (Algorithm 2, line 40).
    Table(Arc<Table>),
    /// Aggregation-phase `(group key, partial aggregate)` routed to a
    /// group-key attribute vertex (Section 7, local aggregation).
    Partial(Arc<(Box<[Value]>, Partial)>),
}

impl Message for TagMsg {
    fn byte_size(&self) -> usize {
        match self {
            TagMsg::Signal(_) => 8,
            TagMsg::Table(t) => t.approx_bytes(),
            TagMsg::Partial(kp) => kp.1.wire_bytes(&kp.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn natural_join_on_var() {
        // L(var0, a) ⋈ R(var0, b)
        let l = Table::from_rows(
            vec![ColKey::Var(0), ColKey::Col { table: 0, col: 1 }],
            vec![vec![v(1), v(10)], vec![v(2), v(20)]],
        );
        let r = Table::from_rows(
            vec![ColKey::Var(0), ColKey::Col { table: 1, col: 1 }],
            vec![vec![v(1), v(100)], vec![v(1), v(101)], vec![v(3), v(300)]],
        );
        let j = l.natural_join(&r);
        assert_eq!(j.cols.len(), 3);
        assert_eq!(j.len(), 2);
        for row in j.iter() {
            assert_eq!(*row.get(0), v(1));
        }
    }

    #[test]
    fn join_without_shared_keys_is_cross() {
        let l =
            Table::from_rows(vec![ColKey::Col { table: 0, col: 0 }], vec![vec![v(1)], vec![v(2)]]);
        let r = Table::from_rows(
            vec![ColKey::Col { table: 1, col: 0 }],
            vec![vec![v(7)], vec![v(8)], vec![v(9)]],
        );
        assert_eq!(l.natural_join(&r).len(), 6);
    }

    #[test]
    fn union_accumulates_rows() {
        let a = Table::from_rows(vec![ColKey::Var(0)], vec![vec![v(1)]]);
        let b = Table::from_rows(vec![ColKey::Var(0)], vec![vec![v(2)], vec![v(3)]]);
        let u = Table::union([&a, &b]).unwrap();
        assert_eq!(u.len(), 3);
        assert!(Table::union(std::iter::empty::<&Table>()).is_none());
    }

    #[test]
    fn union_shares_chunk_storage() {
        let a = Table::from_rows(vec![ColKey::Var(0)], vec![vec![v(1)], vec![v(2)]]);
        let b = Table::from_rows(vec![ColKey::Var(0)], vec![vec![v(3)]]);
        let u = Table::union([&a, &b]).unwrap();
        // No cell was cloned: the union's chunks are the operands' chunks.
        assert!(Arc::ptr_eq(&u.chunks[0], &a.chunks[0]));
        assert!(Arc::ptr_eq(&u.chunks[1], &b.chunks[0]));
        assert_eq!(u.approx_bytes(), 16 + 3 * 8);
    }

    #[test]
    fn retain_reuses_fully_kept_chunks() {
        let a = Table::from_rows(vec![ColKey::Var(0)], vec![vec![v(1)], vec![v(2)]]);
        let b = Table::from_rows(vec![ColKey::Var(0)], vec![vec![v(3)], vec![v(4)]]);
        let mut u = Table::union([&a, &b]).unwrap();
        u.retain(|row| row[0] != v(3));
        assert_eq!(u.len(), 3);
        // First chunk kept every row: still the shared Arc. Second rebuilt.
        assert!(Arc::ptr_eq(&u.chunks[0], &a.chunks[0]));
        assert!(!Arc::ptr_eq(&u.chunks[1], &b.chunks[0]));
        assert_eq!(u.approx_bytes(), 16 + 3 * 8);
    }

    #[test]
    fn approx_bytes_matches_wire_model() {
        // 2 rows x 2 cols x 8 bytes + strings padded to 8: "abc" -> 8,
        // "abcdefghi" -> 16. Base 16.
        let t = Table::from_rows(
            vec![ColKey::Var(0), ColKey::Col { table: 0, col: 1 }],
            vec![vec![v(1), Value::Str("abc".into())], vec![v(2), Value::Str("abcdefghi".into())]],
        );
        assert_eq!(t.approx_bytes(), 16 + 2 * 2 * 8 + 8 + 16);
        // The same total survives union splicing and a no-op retain.
        let u = Table::union([&t, &t]).unwrap();
        assert_eq!(u.approx_bytes(), 16 + 4 * 2 * 8 + 2 * (8 + 16));
        let mut r = u.clone();
        r.retain(|row| row[0] == v(1));
        assert_eq!(r.approx_bytes(), 16 + 2 * 2 * 8 + 2 * 8);
    }

    #[test]
    fn join_is_commutative_on_bags() {
        let l = Table::from_rows(
            vec![ColKey::Var(0), ColKey::Col { table: 0, col: 1 }],
            vec![vec![v(1), v(10)], vec![v(1), v(11)]],
        );
        let r = Table::from_rows(
            vec![ColKey::Var(0), ColKey::Col { table: 1, col: 1 }],
            vec![vec![v(1), v(7)]],
        );
        let a = l.natural_join(&r);
        let b = r.natural_join(&l);
        let norm = |t: &Table| {
            let mut rows: Vec<Vec<Value>> =
                t.iter().map(|r| r.values().cloned().collect()).collect();
            rows.sort();
            (t.cols.clone(), rows)
        };
        assert_eq!(norm(&a), norm(&b));
    }

    #[test]
    fn message_sizes() {
        let t = Table::from_rows(vec![ColKey::Var(0)], vec![vec![v(1)]]);
        assert!(TagMsg::Table(Arc::new(t)).byte_size() > TagMsg::Signal(0).byte_size());
    }
}
