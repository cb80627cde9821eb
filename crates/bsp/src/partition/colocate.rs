//! Anchor-following placement (the ROADMAP's "co-locate tuple vertices with
//! their attribute vertices", upgraded from the originally sketched
//! highest-degree rule to traffic-weighted anchor choice — raw degree picks
//! hot literals, not join keys).
//!
//! Anchors — in TAG terms the attribute vertices — are hash-placed exactly as
//! in [`Partitioning::hash`], so the attribute side of the bipartite graph
//! stays uniformly spread. Every non-anchor vertex (a tuple vertex) then
//! follows the incident anchor with the highest **traffic weight** (the
//! cross-family score of [`refine`](super::refine) module docs): the anchor
//! whose edges continue into a *different relation* — a join value with
//! partners elsewhere — wins, discounted by how widely it is shared. On a
//! TAG this sends a lineitem to its `orderkey` value (which has an
//! `o_orderkey` partner) rather than to a hot `quantity` literal or a date
//! shared only among `lineitem`'s own date columns, which route no
//! traversal anywhere.
//!
//! When no incident anchor has any cross-label edge (a single-relation
//! database — nothing joins), the tuple follows its highest-degree **light**
//! anchor instead: "light" borrows the paper's §6.1.2 heavy/light split — an
//! anchor whose degree exceeds [`HEAVY_ANCHOR_FACTOR`]× the mean anchor
//! degree is a hot literal and clustering on it only piles one relation onto
//! one machine; among the light anchors the most shared value wins, and
//! tuples whose anchors are all heavy follow their lightest anchor.
//!
//! A balance cap ([`DEFAULT_BALANCE_SLACK`] over the ideal load) bounds the
//! skew clustering can introduce: when the preferred machine is full, the
//! vertex falls back to the least-loaded machine, which is always under the
//! cap.

use super::refine::WeightModel;
use super::{balance_cap, hash_machine, Partitioning, DEFAULT_BALANCE_SLACK};
use crate::graph::{Graph, VertexId};

/// An anchor heavier than this multiple of the mean anchor degree is treated
/// as a hot literal rather than a join key.
pub const HEAVY_ANCHOR_FACTOR: usize = 8;

pub(super) fn co_locate(
    graph: &Graph,
    machines: usize,
    is_anchor: &dyn Fn(VertexId) -> bool,
) -> Partitioning {
    co_locate_with(graph, machines, is_anchor, &WeightModel::shape(graph))
}

/// [`co_locate`] under an explicit edge-weight model (the `Workload`
/// strategy swaps in observed per-label traffic weights; everything else —
/// anchor hash placement, heavy/light fallback, balance cap — is shared).
pub(super) fn co_locate_with(
    graph: &Graph,
    machines: usize,
    is_anchor: &dyn Fn(VertexId) -> bool,
    weights: &WeightModel,
) -> Partitioning {
    let n = graph.vertex_count();
    let cap = balance_cap(n, machines, DEFAULT_BALANCE_SLACK);
    let mut machine_of = vec![0u16; n];
    let mut load = vec![0usize; machines];

    // Pass 1: anchors hash-place (the attribute side stays spread out),
    // spilling to the least-loaded machine when a hash collision would
    // breach the balance cap — so the cap holds even on anchor-heavy graphs.
    let mut anchor = vec![false; n];
    let (mut anchors, mut anchor_degree_sum) = (0usize, 0usize);
    for v in graph.vertices() {
        if is_anchor(v) {
            anchor[v as usize] = true;
            anchors += 1;
            anchor_degree_sum += graph.degree(v);
            let preferred = hash_machine(v, machines);
            let m = if load[preferred as usize] < cap { preferred } else { least_loaded(&load) };
            machine_of[v as usize] = m;
            load[m as usize] += 1;
        }
    }
    let mean_degree = if anchors == 0 { 0 } else { anchor_degree_sum.div_ceil(anchors) };
    let theta = (HEAVY_ANCHOR_FACTOR * mean_degree).max(1);

    // Pass 2: everyone else follows its best-scoring anchor neighbour (ties
    // break toward the lower vertex id — deterministic): first by traffic
    // score, then — when no anchor has cross-label traffic — the
    // highest-degree light anchor, then the lightest heavy anchor, then hash
    // placement when no anchor neighbour exists at all.
    for v in graph.vertices() {
        if anchor[v as usize] {
            continue;
        }
        let mut scored: Option<(VertexId, f64)> = None; // max traffic score
        let mut light: Option<(VertexId, usize)> = None; // light: max degree
        let mut lightest: Option<(VertexId, usize)> = None; // heavy fallback
        for e in graph.out_edges(v) {
            if !anchor[e.target as usize] {
                continue;
            }
            let w = weights.weight(graph, v, e);
            if w > 0.0 && scored.is_none_or(|(st, sw)| w > sw || (w == sw && e.target < st)) {
                scored = Some((e.target, w));
            }
            let d = graph.degree(e.target);
            if d <= theta {
                if light.is_none_or(|(bt, bd)| d > bd || (d == bd && e.target < bt)) {
                    light = Some((e.target, d));
                }
            } else if lightest.is_none_or(|(lt, ld)| d < ld || (d == ld && e.target < lt)) {
                lightest = Some((e.target, d));
            }
        }
        let preferred =
            match scored.map(|(a, _)| a).or(light.map(|(a, _)| a)).or(lightest.map(|(a, _)| a)) {
                Some(a) => machine_of[a as usize],
                None => hash_machine(v, machines),
            };
        let m = if load[preferred as usize] < cap {
            preferred
        } else {
            least_loaded(&load) // always under cap: m*cap > n
        };
        machine_of[v as usize] = m;
        load[m as usize] += 1;
    }

    Partitioning { machine_of, machines }
}

/// Index of the least-loaded machine (lowest id on ties).
fn least_loaded(load: &[usize]) -> u16 {
    let mut best = 0usize;
    for (m, &l) in load.iter().enumerate() {
        if l < load[best] {
            best = m;
        }
    }
    best as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn tuples_follow_highest_degree_anchor() {
        // t0 links to a1 (degree 1) and a2 (degree 2): t0 must sit with a2.
        let mut b = GraphBuilder::new();
        let lt = b.vertex_label("t");
        let la = b.vertex_label("@a");
        let e = b.edge_label("t.x");
        let t0 = b.add_vertex(lt);
        let t1 = b.add_vertex(lt);
        let a1 = b.add_vertex(la);
        let a2 = b.add_vertex(la);
        b.add_undirected_edge(t0, a1, e);
        b.add_undirected_edge(t0, a2, e);
        b.add_undirected_edge(t1, a2, e);
        let g = b.finish();
        let p = co_locate(&g, 2, &|v| g.label_of(v) == la);
        assert_eq!(p.machine_of(t0), p.machine_of(a2));
        assert_eq!(p.machine_of(t1), p.machine_of(a2));
    }

    #[test]
    fn heavy_anchors_are_skipped_for_light_join_keys() {
        // 40 tuples all share one hot anchor (degree 40); each pair of
        // tuples also shares a selective anchor (degree 2). The hot anchor
        // is heavy (40 > 8 * mean), so tuples must follow their pair anchor.
        let mut b = GraphBuilder::new();
        let lt = b.vertex_label("t");
        let la = b.vertex_label("@a");
        let e = b.edge_label("t.x");
        let hot = b.add_vertex(la);
        let mut pairs = Vec::new();
        for _ in 0..20 {
            let pair = b.add_vertex(la);
            for _ in 0..2 {
                let t = b.add_vertex(lt);
                b.add_undirected_edge(t, hot, e);
                b.add_undirected_edge(t, pair, e);
            }
            pairs.push(pair);
        }
        let g = b.finish();
        // mean anchor degree = (40 + 20*2)/21 = 4 (ceil), theta = 32 < 40.
        let p = co_locate(&g, 4, &|v| g.label_of(v) == la);
        let colocated: usize = pairs
            .iter()
            .map(|&pair| {
                g.out_edges(pair)
                    .iter()
                    .filter(|e| p.machine_of(e.target) == p.machine_of(pair))
                    .count()
            })
            .sum();
        // All 40 tuples follow their pair anchor, minus the few the balance
        // cap may spill to the least-loaded machine.
        assert!(colocated >= 32, "only {colocated}/40 tuples with their pair anchor");
    }

    #[test]
    fn join_values_beat_same_relation_literals() {
        // An r-tuple links to a join value (one r.k edge + one s.k partner)
        // and to a far more shared literal carrying only r.lit edges. The
        // join value must win the anchor race despite its lower degree.
        let mut b = GraphBuilder::new();
        let lr = b.vertex_label("r");
        let ls = b.vertex_label("s");
        let la = b.vertex_label("@a");
        let rk = b.edge_label("r.k");
        let sk = b.edge_label("s.k");
        let rlit = b.edge_label("r.lit");
        let join_val = b.add_vertex(la);
        let lit_val = b.add_vertex(la);
        let r0 = b.add_vertex(lr);
        b.add_undirected_edge(r0, join_val, rk);
        b.add_undirected_edge(r0, lit_val, rlit);
        let s0 = b.add_vertex(ls);
        b.add_undirected_edge(s0, join_val, sk);
        for _ in 0..8 {
            let r = b.add_vertex(lr);
            b.add_undirected_edge(r, lit_val, rlit);
        }
        let g = b.finish();
        let p = co_locate(&g, 3, &|v| g.label_of(v) == la);
        assert_eq!(p.machine_of(r0), p.machine_of(join_val));
        assert_eq!(p.machine_of(s0), p.machine_of(join_val));
    }

    #[test]
    fn isolated_vertices_hash_place() {
        let mut b = GraphBuilder::new();
        let lt = b.vertex_label("t");
        for _ in 0..100 {
            b.add_vertex(lt);
        }
        let g = b.finish();
        // No anchors at all: everything falls back to hash placement, within
        // the balance cap.
        let p = co_locate(&g, 4, &|_| false);
        let cap = balance_cap(100, 4, DEFAULT_BALANCE_SLACK);
        assert!(p.load().into_iter().max().unwrap() <= cap);
        assert_eq!(p.load().iter().sum::<usize>(), 100);
    }

    #[test]
    fn anchor_hash_collisions_respect_the_cap() {
        // 3 anchors + 1 tuple on 5 machines: cap = 1, so colliding anchor
        // hashes must spill to least-loaded machines instead of stacking.
        let mut b = GraphBuilder::new();
        let lt = b.vertex_label("t");
        let la = b.vertex_label("@a");
        let e = b.edge_label("t.x");
        let t = b.add_vertex(lt);
        for _ in 0..3 {
            let a = b.add_vertex(la);
            b.add_undirected_edge(t, a, e);
        }
        let g = b.finish();
        let p = co_locate(&g, 5, &|v| g.label_of(v) == la);
        let cap = balance_cap(4, 5, DEFAULT_BALANCE_SLACK);
        assert_eq!(cap, 1);
        assert!(p.load().into_iter().max().unwrap() <= cap, "load {:?}", p.load());
    }

    #[test]
    fn hot_anchor_respects_cap() {
        // One anchor with 99 leaves on 3 machines: the anchor's machine takes
        // at most the cap; the rest spill to the least-loaded machines.
        let mut b = GraphBuilder::new();
        let lt = b.vertex_label("t");
        let la = b.vertex_label("@a");
        let e = b.edge_label("t.x");
        let a = b.add_vertex(la);
        for _ in 0..99 {
            let t = b.add_vertex(lt);
            b.add_undirected_edge(t, a, e);
        }
        let g = b.finish();
        let p = co_locate(&g, 3, &|v| g.label_of(v) == la);
        let cap = balance_cap(100, 3, DEFAULT_BALANCE_SLACK);
        let load = p.load();
        assert_eq!(load.iter().sum::<usize>(), 100);
        assert!(load.into_iter().max().unwrap() <= cap);
    }
}
