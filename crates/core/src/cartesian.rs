//! Cartesian products via a global aggregation vertex (paper Section 6.3).
//!
//! * **Algorithm A** — every tuple vertex of both relations ships its row to
//!   the global aggregator, which builds the product centrally. Total cost
//!   `O(|R| + |S|)` communication, `O(|R|·|S|)` computation, no parallelism.
//! * **Algorithm B** — the aggregator first collects the ids of the
//!   `R`-tuple vertices and transmits them to every `S`-tuple vertex; each
//!   `S` vertex then sends its row *directly* to every `R` vertex (vertices
//!   may message any id they know), and `R` vertices build their slice of
//!   the product locally — the result stays distributed. Total cost
//!   `O(|R|·|S|)` on both measures, but the product is computed in parallel
//!   across the `R` vertices.

use crate::table::{ColKey, Table, TagMsg};
use std::sync::Arc;
use vcsql_bsp::program::Aggregator;
use vcsql_bsp::{Computation, EngineConfig, RunStats, VertexCtx, VertexId};
use vcsql_relation::Value;
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, vcsql_relation::RelError>;

#[derive(Default)]
struct Gather(Vec<Table>);
impl Aggregator for Gather {
    fn merge(&mut self, mut other: Self) {
        self.0.append(&mut other.0);
    }
}

#[derive(Default)]
struct Ids(Vec<VertexId>);
impl Aggregator for Ids {
    fn merge(&mut self, mut other: Self) {
        self.0.append(&mut other.0);
    }
}

fn own_table(tag: &TagGraph, table_idx: u16, v: VertexId) -> Option<Table> {
    let tuple = tag.tuple(v)?;
    let entries: Vec<(ColKey, Value)> = tuple
        .iter()
        .enumerate()
        .map(|(c, val)| (ColKey::Col { table: table_idx, col: c as u16 }, val.clone()))
        .collect();
    Some(Table::singleton(&entries))
}

/// Algorithm A: centralized product at the aggregation vertex.
pub fn cartesian_a(
    tag: &TagGraph,
    config: EngineConfig,
    left: &str,
    right: &str,
) -> Result<(Table, RunStats)> {
    let graph = tag.graph();
    // A relation with no tuples has no vertices (and thus no label).
    let (Some(ll), Some(rl)) = (tag.relation_label(left), tag.relation_label(right)) else {
        return Ok((Table::empty(Vec::new()), RunStats::default()));
    };
    let mut comp: Computation<'_, (), TagMsg> = Computation::new(graph, config, |_| ());
    let mut both: Vec<VertexId> = graph.vertices_with_label(ll).to_vec();
    both.extend_from_slice(graph.vertices_with_label(rl));
    comp.activate(both);

    // One superstep: everyone contributes its row to the aggregator (the
    // "GA" vertex). The aggregator-side product is host work, mirroring the
    // sequential bottleneck the paper calls out.
    let (_, gathered) =
        comp.superstep(|ctx: &mut VertexCtx<'_, '_, (), TagMsg>, g: &mut Gather| {
            let side = if ctx.label() == ll { 0u16 } else { 1u16 };
            if let Some(t) = own_table(tag, side, ctx.id()) {
                g.0.push(t);
            }
        });
    let mut lrows: Option<Table> = None;
    let mut rrows: Option<Table> = None;
    for t in gathered.0 {
        let is_left = matches!(t.cols.first(), Some(ColKey::Col { table: 0, .. }));
        let slot = if is_left { &mut lrows } else { &mut rrows };
        match slot {
            None => *slot = Some(t),
            Some(acc) => acc.append(t),
        }
    }
    let product = match (lrows, rrows) {
        (Some(l), Some(r)) => l.natural_join(&r), // disjoint keys: product
        _ => Table::empty(Vec::new()),
    };
    let (_, stats) = comp.finish();
    Ok((product, stats))
}

/// Algorithm B: distributed product at the `R`-tuple vertices.
pub fn cartesian_b(
    tag: &TagGraph,
    config: EngineConfig,
    left: &str,
    right: &str,
) -> Result<(Table, RunStats)> {
    let graph = tag.graph();
    let (Some(ll), Some(rl)) = (tag.relation_label(left), tag.relation_label(right)) else {
        return Ok((Table::empty(Vec::new()), RunStats::default()));
    };
    let mut comp: Computation<'_, (), TagMsg> = Computation::new(graph, config, |_| ());

    // Superstep 1: R vertices send their ids to the aggregator.
    comp.activate_label(ll);
    let (_, r_ids) = comp.superstep(|ctx: &mut VertexCtx<'_, '_, (), TagMsg>, g: &mut Ids| {
        g.0.push(ctx.id());
    });

    // Superstep 2: the aggregator transmits the R ids to every S vertex
    // (modelled as the host activating S with the id list in scope); each S
    // vertex sends its row directly to every R vertex — |R|·|S| messages.
    comp.activate_label(rl);
    let r_ids = Arc::new(r_ids.0);
    let r_ids_ref = Arc::clone(&r_ids);
    comp.superstep_simple(move |ctx: &mut VertexCtx<'_, '_, (), TagMsg>| {
        let Some(row) = own_table(tag, 1, ctx.id()) else { return };
        let row = Arc::new(row);
        for &r in r_ids_ref.iter() {
            ctx.send(r, TagMsg::Table(Arc::clone(&row)));
        }
    });

    // Superstep 3: every R vertex combines the received S rows with its own
    // row; the product stays distributed (gathered here for inspection).
    let (_, gathered) =
        comp.superstep(|ctx: &mut VertexCtx<'_, '_, (), TagMsg>, g: &mut Gather| {
            let mut incoming: Vec<&Table> = Vec::new();
            for m in ctx.messages() {
                if let TagMsg::Table(t) = m {
                    incoming.push(t);
                }
            }
            let Some(s_rows) = Table::union(incoming) else { return };
            let Some(own) = own_table(tag, 0, ctx.id()) else { return };
            g.0.push(own.natural_join(&s_rows));
        });
    let product = Table::union(gathered.0.iter()).unwrap_or_else(|| Table::empty(Vec::new()));
    let (_, stats) = comp.finish();
    Ok((product, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_relation::schema::{Column, Schema};
    use vcsql_relation::{DataType, Database, Relation, Tuple};

    fn db(nl: usize, nr: usize) -> Database {
        let mut db = Database::new();
        let mk = |name: &str, n: usize, off: i64| {
            Relation::from_tuples(
                Schema::new(name, vec![Column::new("k", DataType::Int)]),
                (0..n).map(|i| Tuple::new(vec![Value::Int(off + i as i64)])).collect(),
            )
            .unwrap()
        };
        db.add(mk("L", nl, 0));
        db.add(mk("Rr", nr, 1000));
        db
    }

    #[test]
    fn algorithms_agree_and_match_size() {
        let db = db(4, 3);
        let tag = TagGraph::build(&db);
        let (a, stats_a) = cartesian_a(&tag, EngineConfig::sequential(), "L", "Rr").unwrap();
        let (b, stats_b) = cartesian_b(&tag, EngineConfig::sequential(), "L", "Rr").unwrap();
        assert_eq!(a.len(), 12);
        assert_eq!(b.len(), 12);
        let norm = |t: &Table| {
            let mut rows = t.to_rows();
            rows.sort();
            rows
        };
        assert_eq!(norm(&a), norm(&b));
        // Cost model: A sends no vertex-to-vertex messages (aggregator
        // contributions are host-side), B sends |R|·|S| row messages.
        assert_eq!(stats_a.total_messages(), 0);
        assert_eq!(stats_b.total_messages(), 12);
    }

    #[test]
    fn empty_side_yields_empty_product() {
        let db = db(3, 0);
        let tag = TagGraph::build(&db);
        // With no Rr tuples the relation has no vertices at all.
        let (a, _) = cartesian_a(&tag, EngineConfig::sequential(), "L", "Rr").unwrap();
        assert_eq!(a.len(), 0);
    }
}
