//! Workload-aware placement from observed per-label traffic (the ROADMAP's
//! "derive per-edge-label weights from observed query-log traffic").
//!
//! The static strategies weigh an edge purely by graph shape
//! (`crossdeg_F(a)/deg(a)²` — see [`refine`](super::refine) module docs).
//! That treats every cross-relation column as equally join-worthy, but a real
//! workload is skewed: a TPC-H query log traverses `l_orderkey` constantly
//! and `l_suppkey` rarely, so a lineitem tuple is worth co-locating with its
//! order chain even when a supplier value looks equally shared. A
//! calibration run records exactly this skew: the engine attributes every
//! message to the edge label it travelled along, and the resulting
//! [`TrafficProfile`] maps label names to observed messages/bytes.
//!
//! This module turns a profile into the [`WeightModel::observed`] edge
//! weights and reuses the whole co-locate + greedy-refine machinery under
//! them (same anchor hash placement, heavy/light fallback, and 20%-slack
//! balance cap as the static strategies):
//!
//! * a **seen** label weighs its observed bytes *per edge of that label*
//!   (total traffic would favour wide relations regardless of how hot each
//!   edge actually is), normalized by the hottest label to land in `[0, 1]`
//!   — the same scale as the static cross-family fraction, so seen and
//!   unseen labels remain comparable;
//! * an **unseen** label (absent from the profile — e.g. a column added
//!   after calibration, or a profile from a different schema) falls back to
//!   the static weight;
//! * a label the profile saw but that carried nothing weighs 0: the
//!   placement spends no locality on columns the workload never traverses.
//!
//! Like every strategy, the result is pure accounting — placements never
//! change results or message counts, only which traffic is network traffic.

use super::refine::{greedy_refine, WeightModel};
use super::{colocate, Partitioning};
use crate::graph::{Graph, VertexId};
use crate::stats::TrafficProfile;

/// Build the workload-aware partitioning: co-location seed + greedy
/// refinement, both under observed traffic weights.
pub(super) fn workload_partition(
    graph: &Graph,
    machines: usize,
    is_anchor: &dyn Fn(VertexId) -> bool,
    profile: &TrafficProfile,
) -> Partitioning {
    let weights = WeightModel::observed(graph, label_weights(graph, profile));
    let seed = colocate::co_locate_with(graph, machines, is_anchor, &weights);
    greedy_refine(&seed, graph, &weights)
}

/// Per-`LabelId` normalized observed weight: `Some(bytes_per_edge / max)`
/// for profiled labels, `None` for labels the profile never saw.
fn label_weights(graph: &Graph, profile: &TrafficProfile) -> Vec<Option<f64>> {
    let nlabels = graph.edge_labels().len();
    // Directed edge count per label, to turn total traffic into per-edge heat.
    let mut edge_count = vec![0u64; nlabels];
    for v in graph.vertices() {
        for e in graph.out_edges(v) {
            edge_count[e.label.0 as usize] += 1;
        }
    }
    let mut per_edge: Vec<Option<f64>> = vec![None; nlabels];
    for (label, name) in graph.edge_labels().iter() {
        if let Some(t) = profile.get(name) {
            let edges = edge_count[label.0 as usize].max(1);
            per_edge[label.0 as usize] = Some(t.bytes as f64 / edges as f64);
        }
    }
    let max = per_edge.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
    if max > 0.0 {
        for w in per_edge.iter_mut().flatten() {
            *w /= max;
        }
    }
    per_edge
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::partition::PartitionStrategy;
    use crate::stats::LabelTraffic;

    /// Tuples of relation `r`, each linked to one `a`-value and one `b`-value
    /// anchor; both columns join into partner relations symmetrically, so
    /// static weights cannot tell them apart.
    fn two_column_graph() -> (Graph, Vec<(u32, u32, u32)>, crate::LabelId) {
        let mut b = GraphBuilder::new();
        let lr = b.vertex_label("r");
        let ls = b.vertex_label("s");
        let lt = b.vertex_label("t");
        let la = b.vertex_label("@v");
        let ra = b.edge_label("r.a");
        let rb = b.edge_label("r.b");
        let sa = b.edge_label("s.a");
        let tb = b.edge_label("t.b");
        let mut triples = Vec::new();
        for _ in 0..12 {
            let av = b.add_vertex(la);
            let bv = b.add_vertex(la);
            let r = b.add_vertex(lr);
            b.add_undirected_edge(r, av, ra);
            b.add_undirected_edge(r, bv, rb);
            // Symmetric partners: one s-tuple on the a-value, one t-tuple on
            // the b-value.
            let s = b.add_vertex(ls);
            b.add_undirected_edge(s, av, sa);
            let t = b.add_vertex(lt);
            b.add_undirected_edge(t, bv, tb);
            triples.push((r, av, bv));
        }
        (b.finish(), triples, la)
    }

    #[test]
    fn observed_traffic_steers_tuples_to_the_hot_column() {
        let (g, triples, la) = two_column_graph();
        let is_anchor = |v| g.label_of(v) == la;
        // The profiled workload hammers r.a/s.a and never touches r.b/t.b.
        let mut profile = TrafficProfile::new();
        profile.record("r.a", LabelTraffic { messages: 100, bytes: 8000, ..Default::default() });
        profile.record("s.a", LabelTraffic { messages: 100, bytes: 8000, ..Default::default() });
        profile.cover_graph(&g);
        let p = workload_partition(&g, 4, &is_anchor, &profile);
        let with_a =
            triples.iter().filter(|&&(r, av, _)| p.machine_of(r) == p.machine_of(av)).count();
        // Every r-tuple should sit with its a-value (modulo balance spill).
        assert!(with_a >= 10, "only {with_a}/12 tuples with their hot a-value");
    }

    #[test]
    fn empty_profile_falls_back_to_static_weights() {
        let (g, _, la) = two_column_graph();
        let is_anchor = |v| g.label_of(v) == la;
        let empty = workload_partition(&g, 3, &is_anchor, &TrafficProfile::new());
        let refined = PartitionStrategy::Refined.partition(&g, 3, &is_anchor);
        for v in g.vertices() {
            assert_eq!(empty.machine_of(v), refined.machine_of(v), "vertex {v}");
        }
    }

    #[test]
    fn zero_traffic_labels_lose_to_degree_fallback_not_to_noise() {
        // A profile covering the graph with all-zero traffic: no label has
        // observed weight, none falls back to static — tuples use the
        // heavy/light degree fallback, and the result is still valid and
        // deterministic.
        let (g, _, la) = two_column_graph();
        let is_anchor = |v| g.label_of(v) == la;
        let mut profile = TrafficProfile::new();
        profile.cover_graph(&g);
        let a = workload_partition(&g, 4, &is_anchor, &profile);
        let b = workload_partition(&g, 4, &is_anchor, &profile);
        assert_eq!(a.load().iter().sum::<usize>(), g.vertex_count());
        for v in g.vertices() {
            assert_eq!(a.machine_of(v), b.machine_of(v));
        }
    }

    #[test]
    fn label_weights_normalize_to_unit_max() {
        let (g, _, _) = two_column_graph();
        let mut profile = TrafficProfile::new();
        profile.record("r.a", LabelTraffic { messages: 10, bytes: 4000, ..Default::default() });
        profile.record("r.b", LabelTraffic { messages: 10, bytes: 1000, ..Default::default() });
        let w = label_weights(&g, &profile);
        let ra = g.edge_label_id("r.a").unwrap().0 as usize;
        let rb = g.edge_label_id("r.b").unwrap().0 as usize;
        let sa = g.edge_label_id("s.a").unwrap().0 as usize;
        assert_eq!(w[ra], Some(1.0));
        assert_eq!(w[rb], Some(0.25));
        assert_eq!(w[sa], None, "unseen label stays None");
    }
}
