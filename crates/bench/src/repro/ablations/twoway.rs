//! The standalone two-way join of paper Section 4, measured by `repro
//! cost-model` (A1) against its `min(IN, OUT)` communication bound.
//!
//! Three supersteps over the TAG graph:
//!
//! 1. every attribute vertex of the join domain checks locally whether it is
//!    a *join value* (it has edges labelled `R.A` **and** `S.B`) and signals
//!    the joining tuple vertices;
//! 2. signalled tuple vertices send their (projected) rows back — for
//!    multi-attribute joins (Section 4.2) the rows carry the remaining join
//!    attributes so the coordinating attribute vertex can intersect them;
//! 3. the attribute vertex intersects both sides on the companion attributes
//!    and keeps the factorized pair (left rows, right rows) — the factorized
//!    representation of Section 4.1.

use std::sync::Arc;
use vcsql_bsp::program::Aggregator;
use vcsql_bsp::{Computation, EngineConfig, Message, RunStats, VertexCtx, VertexId};
use vcsql_core::table::{str_payload, ColKey};
use vcsql_relation::{FxHashSet, RelError, Value};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Projected tuple values over sorted column keys: what the two-way join
/// ships, intersects and keeps per join value. Priced in the collection
/// phase's wire model, `16 + rows x cols x 8` plus every string cell's
/// padded payload.
#[derive(Debug, Clone)]
struct Table {
    cols: Vec<ColKey>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// A one-row table over sorted, deduplicated keys.
    fn one_row(cols: Vec<ColKey>, row: Vec<Value>) -> Table {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "one_row cols must be sorted");
        debug_assert_eq!(cols.len(), row.len(), "one_row width mismatch");
        Table { cols, rows: vec![row] }
    }

    /// Union of same-layout tables (bag semantics).
    fn union<'a>(tables: impl IntoIterator<Item = &'a Table>) -> Option<Table> {
        let mut tables = tables.into_iter();
        let mut out = tables.next()?.clone();
        for t in tables {
            debug_assert_eq!(out.cols, t.cols, "union of mismatched layouts");
            out.rows.extend(t.rows.iter().cloned());
        }
        Some(out)
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn approx_bytes(&self) -> usize {
        let strings: usize = self.rows.iter().flatten().map(str_payload).sum();
        16 + self.rows.len() * self.cols.len() * 8 + strings
    }
}

/// A join specification: `left.cols[i] = right.cols[i]` for each i; the
/// first pair is the coordinating attribute (Section 4.2 reduces to it).
pub(super) struct TwoWaySpec<'a> {
    pub(super) left: &'a str,
    pub(super) right: &'a str,
    /// Join column pairs (by name); at least one.
    pub(super) on: Vec<(&'a str, &'a str)>,
    /// Output columns of the left relation (names).
    pub(super) left_out: Vec<&'a str>,
    /// Output columns of the right relation (names).
    pub(super) right_out: Vec<&'a str>,
}

/// One join value's factorized result.
struct FactorGroup {
    join_value: Value,
    left: Table,
    right: Table,
}

/// The factorized join output, distributed over attribute vertices in the
/// computation and gathered here.
pub(super) struct TwoWayResult {
    groups: Vec<FactorGroup>,
    pub(super) stats: RunStats,
}

impl TwoWayResult {
    /// Upper bound on the flat output size without materializing it (exact
    /// for single-attribute joins — the factorized-representation benefit).
    pub(super) fn output_size(&self) -> usize {
        self.groups.iter().map(|g| g.left.len() * g.right.len()).sum()
    }
}

#[derive(Clone, Debug)]
enum TwMsg {
    /// Attr → tuple: "you join through me" (attr vertex id, side).
    Signal(VertexId, u8),
    /// Tuple → attr: projected row (side 0 = left, 1 = right).
    Row(u8, Arc<Table>),
}

impl Message for TwMsg {
    fn byte_size(&self) -> usize {
        match self {
            TwMsg::Signal(_, _) => 9,
            TwMsg::Row(_, t) => 1 + t.approx_bytes(),
        }
    }
}

#[derive(Default)]
struct GroupsAgg(Vec<FactorGroup>);
impl Aggregator for GroupsAgg {
    fn merge(&mut self, mut other: Self) {
        self.0.append(&mut other.0);
    }
}

/// Execute a two-way join (paper Sections 4.1–4.2), returning the factorized
/// result.
pub(super) fn two_way_join(
    tag: &TagGraph,
    config: EngineConfig,
    spec: &TwoWaySpec<'_>,
) -> Result<TwoWayResult> {
    let lschema = tag
        .schema(spec.left)
        .ok_or_else(|| RelError::UnknownRelation(spec.left.to_string()))?
        .clone();
    let rschema = tag
        .schema(spec.right)
        .ok_or_else(|| RelError::UnknownRelation(spec.right.to_string()))?
        .clone();
    if spec.on.is_empty() {
        return Err(RelError::Other("two-way join needs at least one column pair".into()));
    }
    let llabel = tag.column_label_by_name(spec.left, spec.on[0].0).ok_or_else(|| {
        RelError::Other(format!("{}.{} not materialized", spec.left, spec.on[0].0))
    })?;
    let rlabel = tag.column_label_by_name(spec.right, spec.on[0].1).ok_or_else(|| {
        RelError::Other(format!("{}.{} not materialized", spec.right, spec.on[0].1))
    })?;

    // Row layouts: companion join columns as Var(i) (i = index into `on`,
    // from 1), output columns as Plain keys (table 0 = left, 1 = right);
    // sorted keys, each with the tuple column it reads.
    let lon: Vec<usize> =
        spec.on.iter().map(|&(c, _)| lschema.column_index(c)).collect::<Result<_>>()?;
    let ron: Vec<usize> =
        spec.on.iter().map(|&(_, c)| rschema.column_index(c)).collect::<Result<_>>()?;
    let lout: Vec<usize> =
        spec.left_out.iter().map(|c| lschema.column_index(c)).collect::<Result<_>>()?;
    let rout: Vec<usize> =
        spec.right_out.iter().map(|c| rschema.column_index(c)).collect::<Result<_>>()?;
    let row_spec = |side: u16, on_cols: &[usize], out_cols: &[usize]| {
        let mut s: Vec<(ColKey, usize)> = Vec::new();
        for (i, &c) in on_cols.iter().enumerate() {
            if i > 0 {
                s.push((ColKey::Var(i as u32), c));
            }
        }
        for &c in out_cols {
            s.push((ColKey::Col { table: side, col: c as u16 }, c));
        }
        s.sort_by_key(|&(k, _)| k);
        s.dedup_by_key(|&mut (k, _)| k);
        s.into_iter().unzip::<_, _, Vec<ColKey>, Vec<usize>>()
    };
    let lspec = row_spec(0, &lon, &lout);
    let rspec = row_spec(1, &ron, &rout);

    let graph = tag.graph();
    let mut comp: Computation<'_, (), TwMsg> = Computation::new(graph, config, |_| ());

    // Activate all attribute vertices (the paper activates the join domain's
    // attribute vertices; non-join values deactivate in superstep 1).
    let mut start: Vec<VertexId> = Vec::new();
    for label_name in ["@int", "@str", "@date", "@bool", "@float"] {
        if let Some(l) = graph.vertex_label_id(label_name) {
            start.extend_from_slice(graph.vertices_with_label(l));
        }
    }
    comp.activate(start);

    // Superstep 1: join-value check + signal both sides (paper Fig 2(a)).
    comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, (), TwMsg>| {
        if ctx.degree_with(llabel) == 0 || ctx.degree_with(rlabel) == 0 {
            return; // not a join value: deactivate
        }
        let me = ctx.id();
        let left: Vec<VertexId> = ctx.edges_with(llabel).iter().map(|e| e.target).collect();
        let right: Vec<VertexId> = ctx.edges_with(rlabel).iter().map(|e| e.target).collect();
        for t in left {
            ctx.send(t, TwMsg::Signal(me, 0));
        }
        for t in right {
            ctx.send(t, TwMsg::Signal(me, 1));
        }
    });

    // Superstep 2: tuple vertices return their projected rows (Fig 2(b)),
    // with companion attributes per Section 4.2.
    comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, (), TwMsg>| {
        let msgs: Vec<(VertexId, u8)> = ctx
            .messages()
            .iter()
            .filter_map(|m| match m {
                TwMsg::Signal(from, side) => Some((*from, *side)),
                _ => None,
            })
            .collect();
        let Some(tuple) = tag.tuple(ctx.id()) else { return };
        for (attr, side) in msgs {
            let (cols, pos) = if side == 0 { &lspec } else { &rspec };
            let row = pos.iter().map(|&c| tuple[c].clone()).collect();
            ctx.send(attr, TwMsg::Row(side, Arc::new(Table::one_row(cols.clone(), row))));
        }
    });

    // Superstep 3: intersect companions, keep the factorized pair (Fig 2(c)).
    let (_, groups) =
        comp.superstep(|ctx: &mut VertexCtx<'_, '_, (), TwMsg>, g: &mut GroupsAgg| {
            let mut left: Vec<&Table> = Vec::new();
            let mut right: Vec<&Table> = Vec::new();
            for m in ctx.messages() {
                if let TwMsg::Row(side, t) = m {
                    if *side == 0 {
                        left.push(t);
                    } else {
                        right.push(t);
                    }
                }
            }
            let (Some(l), Some(r)) = (Table::union(left), Table::union(right)) else { return };
            let (l, r) = intersect_companions(l, r);
            if l.is_empty() || r.is_empty() {
                return;
            }
            let join_value = tag.attr_value(ctx.id()).cloned().unwrap_or(Value::Null);
            g.0.push(FactorGroup { join_value, left: l, right: r });
        });

    let (_, stats) = comp.finish();
    let mut groups = groups.0;
    groups.sort_by(|a, b| a.join_value.cmp(&b.join_value));
    Ok(TwoWayResult { groups, stats })
}

/// Keep only rows whose companion (Var-keyed) values occur on both sides —
/// the Section 4.2 intersection.
fn intersect_companions(mut l: Table, mut r: Table) -> (Table, Table) {
    let comp_cols: Vec<ColKey> =
        l.cols.iter().copied().filter(|k| matches!(k, ColKey::Var(_))).collect();
    if comp_cols.is_empty() {
        return (l, r);
    }
    let key_positions = |t: &Table| -> Vec<usize> {
        comp_cols.iter().map(|k| t.cols.binary_search(k).expect("companion col")).collect()
    };
    let (lp, rp) = (key_positions(&l), key_positions(&r));
    let key = |row: &[Value], pos: &[usize]| -> Vec<Value> {
        pos.iter().map(|&p| row[p].clone()).collect()
    };
    let lkeys: FxHashSet<Vec<Value>> = l.rows.iter().map(|row| key(row, &lp)).collect();
    let rkeys: FxHashSet<Vec<Value>> = r.rows.iter().map(|row| key(row, &rp)).collect();
    l.rows.retain(|row| rkeys.contains(&key(row, &lp)));
    r.rows.retain(|row| lkeys.contains(&key(row, &rp)));
    (l, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vcsql_relation::schema::{Column, Schema};
    use vcsql_relation::{DataType, Database, Relation, Tuple};

    /// `R(a, b)` and `S(b, c)` over the given rows.
    fn db_of(rs: Vec<[Value; 2]>, ss: Vec<[Value; 2]>) -> Database {
        let rel = |name: &str, cols: [&str; 2], rows: Vec<[Value; 2]>| {
            let cols = cols.map(|c| Column::new(c, DataType::Int)).to_vec();
            let rows = rows.into_iter().map(|r| Tuple::new(r.to_vec())).collect();
            Relation::from_tuples(Schema::new(name, cols), rows).unwrap()
        };
        let mut db = Database::new();
        db.add(rel("R", ["a", "b"], rs));
        db.add(rel("S", ["b", "c"], ss));
        db
    }

    fn db(rs: Vec<(i64, i64)>, ss: Vec<(i64, i64)>) -> Database {
        let ints = |rows: Vec<(i64, i64)>| {
            rows.into_iter().map(|(x, y)| [Value::Int(x), Value::Int(y)]).collect()
        };
        db_of(ints(rs), ints(ss))
    }

    impl Table {
        /// Natural join on the shared column keys (nested loops).
        fn natural_join(&self, other: &Table) -> Table {
            let mut cols: Vec<ColKey> = self.cols.iter().chain(&other.cols).copied().collect();
            cols.sort_unstable();
            cols.dedup();
            let mut rows = Vec::new();
            for a in &self.rows {
                for b in &other.rows {
                    let agree =
                        self.cols.iter().enumerate().all(|(i, k)| {
                            other.cols.binary_search(k).map_or(true, |j| a[i] == b[j])
                        });
                    if agree {
                        rows.push(
                            cols.iter()
                                .map(|k| match self.cols.binary_search(k) {
                                    Ok(i) => a[i].clone(),
                                    Err(_) => {
                                        b[other.cols.binary_search(k).expect("a key")].clone()
                                    }
                                })
                                .collect(),
                        );
                    }
                }
            }
            Table { cols, rows }
        }
    }

    /// The flat join result: each join value's factorized pair expanded to
    /// its Cartesian product (Section 4.1, Superstep 3).
    fn expand(res: &TwoWayResult) -> Table {
        let joined: Vec<Table> = res.groups.iter().map(|g| g.left.natural_join(&g.right)).collect();
        Table::union(&joined).unwrap_or_else(|| Table { cols: Vec::new(), rows: Vec::new() })
    }

    fn spec<'a>() -> TwoWaySpec<'a> {
        TwoWaySpec {
            left: "R",
            right: "S",
            on: vec![("b", "b")],
            left_out: vec!["a"],
            right_out: vec!["c"],
        }
    }

    #[test]
    fn figure2_example() {
        // Paper Fig 2: b1 joins 3 R-tuples with 3 S-tuples; others dangle.
        let db =
            db(vec![(1, 10), (2, 10), (3, 10), (4, 20)], vec![(10, 7), (10, 8), (10, 9), (30, 5)]);
        let tag = TagGraph::build(&db);
        let res = two_way_join(&tag, EngineConfig::sequential(), &spec()).unwrap();
        assert_eq!(res.groups.len(), 1);
        assert_eq!(res.groups[0].join_value, Value::Int(10));
        // Factorized: 3 + 3 rows; expanded: 9.
        assert_eq!(res.groups[0].left.len(), 3);
        assert_eq!(res.groups[0].right.len(), 3);
        assert_eq!(res.output_size(), 9);
        assert_eq!(expand(&res).len(), 9);
        // Exactly three supersteps (paper Section 4.1.1).
        assert_eq!(res.stats.supersteps, 3);
    }

    #[test]
    fn communication_bounded_by_input() {
        // Selective join: only keys 95..99 overlap.
        let rs: Vec<(i64, i64)> = (0..100).map(|i| (i, i)).collect();
        let ss: Vec<(i64, i64)> = (0..100).map(|i| (i + 95, i)).collect();
        let db = db(rs, ss);
        let tag = TagGraph::build(&db);
        let res = two_way_join(&tag, EngineConfig::sequential(), &spec()).unwrap();
        assert_eq!(res.output_size(), 5);
        // Signals and replies flow only for joining tuples:
        // 2 * (|R ⋉ S| + |S ⋉ R|) = 2 * (5 + 5) = 20 messages.
        assert_eq!(res.stats.total_messages(), 20);
    }

    #[test]
    fn multi_attribute_intersection() {
        // Paper Fig 3: R(A,B,C) ⋈ S(A,B,D) on (B, A): B coordinates, A is
        // the companion; rows agreeing on B but not on A are eliminated.
        let mut db = Database::new();
        let r = Relation::from_tuples(
            Schema::new(
                "R",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Int),
                    Column::new("c", DataType::Int),
                ],
            ),
            vec![
                Tuple::new(vec![Value::Int(1), Value::Int(10), Value::Int(100)]),
                Tuple::new(vec![Value::Int(2), Value::Int(20), Value::Int(200)]),
            ],
        )
        .unwrap();
        let s = Relation::from_tuples(
            Schema::new(
                "S",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Int),
                    Column::new("d", DataType::Int),
                ],
            ),
            vec![
                Tuple::new(vec![Value::Int(1), Value::Int(10), Value::Int(111)]),
                Tuple::new(vec![Value::Int(3), Value::Int(20), Value::Int(222)]),
            ],
        )
        .unwrap();
        db.add(r);
        db.add(s);
        let tag = TagGraph::build(&db);
        let spec = TwoWaySpec {
            left: "R",
            right: "S",
            on: vec![("b", "b"), ("a", "a")],
            left_out: vec!["c"],
            right_out: vec!["d"],
        };
        let res = two_way_join(&tag, EngineConfig::sequential(), &spec).unwrap();
        // Only (a=1, b=10) joins; b=20 disagrees on a and is pruned by the
        // intersection.
        assert_eq!(expand(&res).len(), 1);
    }

    #[test]
    fn empty_join() {
        let db = db(vec![(1, 1)], vec![(2, 2)]);
        let tag = TagGraph::build(&db);
        let res = two_way_join(&tag, EngineConfig::sequential(), &spec()).unwrap();
        assert!(res.groups.is_empty());
        assert_eq!(expand(&res).len(), 0);
    }

    proptest! {
        #[test]
        fn two_way_join_matches_nested_loop(
            rs in prop::collection::vec((0i64..8, prop::option::of(0i64..8)), 0..25),
            ss in prop::collection::vec((0i64..8, 0i64..8), 0..25),
        ) {
            let tag = TagGraph::build(&db_of(
                rs.iter().map(|&(a, b)| [Value::Int(a), b.map_or(Value::Null, Value::Int)]).collect(),
                ss.iter().map(|&(b, c)| [Value::Int(b), Value::Int(c)]).collect(),
            ));
            let res = two_way_join(&tag, EngineConfig::sequential(), &spec()).unwrap();
            // Nested-loop oracle: a NULL `R.b` joins nothing.
            let expected: usize =
                rs.iter().map(|&(_, b)| ss.iter().filter(|&&(sb, _)| Some(sb) == b).count()).sum();
            prop_assert_eq!(expand(&res).len(), expected);
        }
    }
}
