//! Greedy label-propagation refinement of a machine assignment.
//!
//! Classic edge-cut minimization (Raghavan et al.'s label propagation, with
//! the balance constraint of METIS-style refinement): sweep the vertices in
//! id order; each vertex tallies its neighbours' machines and moves to the
//! winning machine when that strictly improves its local score and the
//! target machine has room under the balance cap. Loads update live, so a
//! sweep never overshoots the cap, and the fixed sweep order plus
//! strict-improvement rule make the outcome deterministic.
//!
//! Votes are **traffic-weighted**, using [`EdgeImportance`]: edge
//! labels of the form `R.A` are grouped into *families* by their `R.`
//! prefix (the relation, in TAG terms), and an endpoint `y` of an edge in
//! family `F` contributes `crossdeg_F(y) / deg(y)²` to the edge's weight,
//! where `crossdeg_F(y)` counts `y`'s edges *outside* family `F`:
//!
//! * the *cross-family fraction* `crossdeg_F(y) / deg(y)` measures how much
//!   of the endpoint's traffic continues into a different relation. On a TAG
//!   this is precisely what makes a value a join hop: an `l_orderkey` edge
//!   into a value with an `o_orderkey` partner carries traversal traffic,
//!   while a hot literal (a `quantity` of 17) or a date shared only between
//!   `lineitem` date columns routes nothing across relations; and
//! * the *selectivity discount* `1/deg(y)` — a value shared by a handful of
//!   tuples pulls much harder than one shared by thousands.
//!
//! The weight is the sum over both endpoints, so both directions of an
//! undirected edge agree and the sweep descends on a single weighted-cut
//! objective. A tuple vertex's edges are all in its own relation's family,
//! so its side contributes 0 and the weight reduces to the attribute side —
//! no TAG-specific knowledge needed beyond the `R.A` label convention.
//! A workload profile overrides the weight label by label
//! ([`WeightModel::observed`]).

use super::{balance_cap, Partitioning, DEFAULT_BALANCE_SLACK};
use crate::graph::{Edge, Graph, VertexId};
use vcsql_relation::FxHashMap;

/// Maximum full sweeps over the vertex set (refinement stops early when a
/// sweep moves nothing).
const ROUNDS: usize = 8;

/// Precomputed per-vertex label-family degree table backing the traffic
/// weights (see module docs). Built once per graph in O(edges).
struct EdgeImportance {
    /// Edge label id -> family id (labels sharing a `R.` prefix).
    family_of_label: Vec<u32>,
    /// Per-vertex slices into `pairs`.
    offsets: Vec<u32>,
    /// `(family, count)` runs, sorted by family within each vertex's slice.
    pairs: Vec<(u32, u32)>,
}

impl EdgeImportance {
    fn build(graph: &Graph) -> EdgeImportance {
        let nlabels = graph.edge_labels().len();
        let mut family_ids: FxHashMap<String, u32> = FxHashMap::default();
        let mut family_of_label = Vec::with_capacity(nlabels);
        for l in 0..nlabels {
            let name = graph.edge_label_name(crate::LabelId(l as u32));
            let prefix = name.split_once('.').map_or(name, |(r, _)| r);
            let next = family_ids.len() as u32;
            family_of_label.push(*family_ids.entry(prefix.to_string()).or_insert(next));
        }
        let mut offsets = Vec::with_capacity(graph.vertex_count() + 1);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut scratch: Vec<(u32, u32)> = Vec::new();
        offsets.push(0);
        for v in graph.vertices() {
            scratch.clear();
            for e in graph.out_edges(v) {
                let f = family_of_label[e.label.0 as usize];
                match scratch.iter_mut().find(|(sf, _)| *sf == f) {
                    Some((_, c)) => *c += 1,
                    None => scratch.push((f, 1)),
                }
            }
            scratch.sort_unstable();
            pairs.extend_from_slice(&scratch);
            offsets.push(pairs.len() as u32);
        }
        EdgeImportance { family_of_label, offsets, pairs }
    }

    /// Edges of `v` outside family `family`.
    #[inline]
    fn cross_degree(&self, graph: &Graph, v: VertexId, family: u32) -> u32 {
        let slice =
            &self.pairs[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize];
        let same = match slice.binary_search_by_key(&family, |&(f, _)| f) {
            Ok(i) => slice[i].1,
            Err(_) => 0,
        };
        graph.degree(v) as u32 - same
    }

    /// The symmetric vote weight of edge `e` out of `source` (see module
    /// docs). Zero when neither endpoint has cross-family traffic.
    #[inline]
    fn weight(&self, graph: &Graph, source: VertexId, e: &Edge) -> f64 {
        let family = self.family_of_label[e.label.0 as usize];
        let side = |y: VertexId| {
            let d = graph.degree(y);
            if d == 0 {
                return 0.0;
            }
            self.cross_degree(graph, y, family) as f64 / (d as f64 * d as f64)
        };
        side(source) + side(e.target)
    }
}

/// How much one edge's endpoints pull toward sharing a machine. Shared by
/// the co-location seed and the label-propagation refinement, so both
/// descend on one weighted-cut objective per strategy. A label with an
/// observed weight — measured from a calibration run's `TrafficProfile`,
/// normalized to `[0, 1]` — pulls that weight times the same `1/deg`
/// selectivity discount on both endpoints, so selective join values pull
/// hardest; every other label falls back to the static cross-family ×
/// selectivity score of [`EdgeImportance`] (see module docs), derived from
/// graph shape alone. Labels the profile *did* see carrying nothing weigh
/// exactly 0 — the placement ignores columns the workload never traverses.
pub(super) struct WeightModel {
    /// Per-label normalized traffic weight, indexed by `LabelId`; `None` (or
    /// past the end) = label not covered by the profile (use the fallback).
    norm: Vec<Option<f64>>,
    fallback: EdgeImportance,
}

impl WeightModel {
    /// Vote weight of edge `e` out of `source` (symmetric in the endpoints).
    #[inline]
    pub(super) fn weight(&self, graph: &Graph, source: VertexId, e: &Edge) -> f64 {
        match self.norm.get(e.label.0 as usize).copied().flatten() {
            Some(w) => {
                let side = |y: VertexId| {
                    let d = graph.degree(y);
                    if d == 0 {
                        0.0
                    } else {
                        1.0 / d as f64
                    }
                };
                w * (side(source) + side(e.target))
            }
            None => self.fallback.weight(graph, source, e),
        }
    }

    /// Graph-shape weights only: every label uses the static score.
    pub(super) fn shape(graph: &Graph) -> WeightModel {
        WeightModel { norm: Vec::new(), fallback: EdgeImportance::build(graph) }
    }

    /// Workload-aware model: `label_weight[l]` is the observed normalized
    /// weight of edge label `l` (`None` = unseen, static fallback).
    pub(super) fn observed(graph: &Graph, label_weight: Vec<Option<f64>>) -> WeightModel {
        debug_assert_eq!(label_weight.len(), graph.edge_labels().len());
        WeightModel { norm: label_weight, fallback: EdgeImportance::build(graph) }
    }
}

/// Refine `seed` by label propagation under `weights` and the default
/// balance cap (module docs).
pub(super) fn greedy_refine(
    seed: &Partitioning,
    graph: &Graph,
    weights: &WeightModel,
) -> Partitioning {
    let n = graph.vertex_count();
    let machines = seed.machines();
    let mut p = seed.clone();
    if n == 0 || machines <= 1 {
        return p;
    }
    // A seed may already exceed the cap (it can come from any source); moves
    // *into* an over-cap machine are blocked, moves away are free, so loads
    // only ever approach the cap from above.
    let cap = balance_cap(n, machines, DEFAULT_BALANCE_SLACK);
    let mut load = p.load();

    // Scratch tally, reset per vertex via the touched list (machines can be
    // large; neighbours touch only a few).
    let mut score = vec![0.0f64; machines];
    let mut touched: Vec<u16> = Vec::new();

    for _ in 0..ROUNDS {
        let mut moves = 0usize;
        for v in graph.vertices() {
            let edges = graph.out_edges(v);
            if edges.is_empty() {
                continue;
            }
            for e in edges {
                let w = weights.weight(graph, v, e);
                if w == 0.0 {
                    continue;
                }
                let m = p.machine_of[e.target as usize];
                if score[m as usize] == 0.0 {
                    touched.push(m);
                }
                score[m as usize] += w;
            }
            let cur = p.machine_of[v as usize];
            let cur_score = score[cur as usize];
            // Winner: highest score, lowest machine id on ties.
            let mut best = cur;
            let mut best_score = cur_score;
            touched.sort_unstable();
            for &m in &touched {
                if score[m as usize] > best_score + 1e-12 && load[m as usize] < cap {
                    best = m;
                    best_score = score[m as usize];
                }
            }
            for m in touched.drain(..) {
                score[m as usize] = 0.0;
            }
            if best != cur {
                p.machine_of[v as usize] = best;
                load[cur as usize] -= 1;
                load[best as usize] += 1;
                moves += 1;
            }
        }
        if moves == 0 {
            break;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// `groups` TAG-shaped join groups: one attribute vertex (a join value)
    /// with `k` tuples of relation `r` and `k` of relation `s` on it, so
    /// every edge carries cross-relation weight.
    fn join_groups(groups: usize, k: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let (lr, ls, la) = (b.vertex_label("r"), b.vertex_label("s"), b.vertex_label("@a"));
        let (ra, sa) = (b.edge_label("r.a"), b.edge_label("s.a"));
        for _ in 0..groups {
            let a = b.add_vertex(la);
            for _ in 0..k {
                let r = b.add_vertex(lr);
                b.add_undirected_edge(r, a, ra);
                let s = b.add_vertex(ls);
                b.add_undirected_edge(s, a, sa);
            }
        }
        b.finish()
    }

    #[test]
    fn refine_gathers_join_groups_from_a_bad_seed() {
        let g = join_groups(4, 3);
        // Worst-case seed: alternating machines.
        let seed = Partitioning::from_assignment((0..28).map(|v| (v % 2) as u16).collect(), 2);
        let refined = greedy_refine(&seed, &g, &WeightModel::shape(&g));
        let (ds, dr) = (seed.diagnostics(&g), refined.diagnostics(&g));
        assert!(dr.cut_edges < ds.cut_edges, "{ds:?} -> {dr:?}");
        // Each group ends on its value's machine: nothing crosses.
        assert_eq!(dr.cut_edges, 0, "cut {dr:?}");
        assert_eq!(refined.load(), vec![14, 14]);
    }

    #[test]
    fn single_machine_is_a_fixed_point() {
        let g = join_groups(4, 2);
        let seed = Partitioning::hash(&g, 1);
        let refined = greedy_refine(&seed, &g, &WeightModel::shape(&g));
        for v in g.vertices() {
            assert_eq!(refined.machine_of(v), 0);
        }
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = GraphBuilder::new().finish();
        let seed = Partitioning::hash(&g, 4);
        let refined = greedy_refine(&seed, &g, &WeightModel::shape(&g));
        assert_eq!(refined.machines(), 4);
        assert_eq!(refined.load().iter().sum::<usize>(), 0);
    }
}
