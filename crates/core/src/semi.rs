//! Standalone semi-joins and anti-joins (paper Section 7).
//!
//! `R ⋉ S` on `R.a = S.b` in two supersteps: `R`-tuple vertices signal their
//! `a`-attribute vertices; each attribute vertex checks its out-edges for an
//! `S.b` edge and replies to its `R` senders iff one exists (semi-join) or
//! iff none exists (anti-join). `R`-tuples with a NULL join value have no
//! attribute vertex: they never semi-join and always anti-survive (the
//! `NOT EXISTS` equality-correlation semantics), handled host-side.

use vcsql_bsp::program::Aggregator;
use vcsql_bsp::{Computation, EngineConfig, RunStats, VertexCtx, VertexId};
use vcsql_relation::{RelError, Relation, Tuple};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

#[derive(Default)]
struct TupleGather(Vec<Tuple>);
impl Aggregator for TupleGather {
    fn merge(&mut self, mut other: Self) {
        self.0.append(&mut other.0);
    }
}

/// Compute `R ⋉ S` (`anti = false`) or `R ▷ S` (`anti = true`) on
/// `left.left_col = right.right_col`, returning the surviving `R` tuples.
pub fn semi_join(
    tag: &TagGraph,
    config: EngineConfig,
    left: &str,
    left_col: &str,
    right: &str,
    right_col: &str,
    anti: bool,
) -> Result<(Relation, RunStats)> {
    let lschema =
        tag.schema(left).ok_or_else(|| RelError::UnknownRelation(left.to_string()))?.clone();
    let lcol = lschema.column_index(left_col)?;
    let llabel = tag
        .column_label_by_name(left, left_col)
        .ok_or_else(|| RelError::Other(format!("{left}.{left_col} not materialized")))?;
    // The right side may be empty (no vertices): every attribute vertex then
    // has zero `S.b` edges, which the protocol handles uniformly.
    let rlabel = tag.column_label_by_name(right, right_col);

    let graph = tag.graph();
    let mut comp: Computation<'_, (), u32> = Computation::new(graph, config, |_| ());

    let Some(ll) = tag.relation_label(left) else {
        return Ok((Relation::empty(lschema), RunStats::default()));
    };
    comp.activate_label(ll);

    // Superstep 1: R tuples signal their a-attribute vertex.
    comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, (), u32>| {
        let me = ctx.id();
        let targets: Vec<VertexId> = ctx.edges_with(llabel).iter().map(|e| e.target).collect();
        for t in targets {
            ctx.send(t, me);
        }
    });

    // Superstep 2: attribute vertices check for S.b edges and reply per the
    // (anti-)semi-join rule.
    comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, (), u32>| {
        let has_partner = rlabel.is_some_and(|rl| ctx.degree_with(rl) > 0);
        if has_partner == anti {
            return;
        }
        let senders: Vec<VertexId> = ctx.messages().to_vec();
        for s in senders {
            ctx.send(s, ctx.id());
        }
    });

    // Superstep 3: surviving R tuples output themselves (distributed result,
    // gathered here).
    let (_, gathered) =
        comp.superstep(|ctx: &mut VertexCtx<'_, '_, (), u32>, g: &mut TupleGather| {
            if let Some(t) = tag.tuple(ctx.id()) {
                g.0.push(Tuple::new(t.to_vec()));
            }
        });

    let mut out = Relation::empty(lschema);
    for t in gathered.0 {
        out.push(t)?;
    }
    // NULL-keyed R tuples never reached an attribute vertex: they survive
    // anti-joins (no partner possible) and never semi-join.
    if anti {
        if let Some(rel_label) = tag.relation_label(left) {
            for &v in graph.vertices_with_label(rel_label) {
                if let Some(t) = tag.tuple(v) {
                    if t[lcol].is_null() {
                        out.push(Tuple::new(t.to_vec()))?;
                    }
                }
            }
        }
    }
    let (_, stats) = comp.finish();
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_relation::schema::{Column, Schema};
    use vcsql_relation::{DataType, Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::empty(Schema::new(
            "R",
            vec![Column::new("a", DataType::Int), Column::new("x", DataType::Int)],
        ));
        for (a, x) in [(1, 10), (2, 20), (3, 30)] {
            r.push(Tuple::new(vec![Value::Int(a), Value::Int(x)])).unwrap();
        }
        r.push(Tuple::new(vec![Value::Null, Value::Int(99)])).unwrap();
        db.add(r);
        let mut s = Relation::empty(Schema::new("S", vec![Column::new("b", DataType::Int)]));
        for b in [2, 2, 4] {
            s.push(Tuple::new(vec![Value::Int(b)])).unwrap();
        }
        db.add(s);
        db
    }

    #[test]
    fn semi_and_anti_partition_r() {
        let db = db();
        let tag = TagGraph::build(&db);
        let (semi, stats) =
            semi_join(&tag, EngineConfig::sequential(), "R", "a", "S", "b", false).unwrap();
        let (anti, _) =
            semi_join(&tag, EngineConfig::sequential(), "R", "a", "S", "b", true).unwrap();
        assert_eq!(semi.len(), 1); // a = 2
        assert_eq!(semi.tuples[0].get(0), &Value::Int(2));
        // a = 1, a = 3 and the NULL-keyed tuple anti-survive.
        assert_eq!(anti.len(), 3);
        // Semi-join costs one round-trip: 3 signals + 1 reply.
        assert_eq!(stats.total_messages(), 4);
    }

    #[test]
    fn anti_join_against_missing_relation_keeps_everything() {
        let mut db = db();
        // Replace S with an empty relation: no S vertices at all.
        db.add(Relation::empty(Schema::new("S", vec![Column::new("b", DataType::Int)])));
        let tag = TagGraph::build(&db);
        let (anti, _) =
            semi_join(&tag, EngineConfig::sequential(), "R", "a", "S", "b", true).unwrap();
        assert_eq!(anti.len(), 4);
    }
}
