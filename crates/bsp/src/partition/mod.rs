//! Machine partitioning for distributed-cluster simulation.
//!
//! The engine itself is shared-memory; to study distributed behaviour
//! (Section 8.6 of the paper) we assign every vertex to one of `k` simulated
//! machines and have the engine count messages/bytes that cross machine
//! boundaries. This models the quantity the paper measures with `sar`: total
//! network traffic during query execution.
//!
//! Four placement strategies are provided (see [`PartitionStrategy`]):
//!
//! * [`Partitioning::hash`] — uniform hash placement, TigerGraph's untuned
//!   default and the baseline the paper ran under. On `m` machines roughly
//!   `(m-1)/m` of all edges cross a boundary.
//! * [`Partitioning::co_locate`] — every non-anchor vertex (a TAG *tuple*
//!   vertex) is placed on the machine of its best *anchor* neighbour (a TAG
//!   *attribute* vertex) by cross-relation traffic weight — the join value
//!   most likely to route traversal messages — while anchors themselves are
//!   hash placed. Guarantees at least one local incident edge per tuple
//!   while staying query-independent; see the [`colocate`](self) submodule.
//! * [`PartitionStrategy::Refined`] — the co-location seed, then a
//!   label-propagation pass: vertices iteratively move to the machine
//!   holding the (degree-discounted) majority of their neighbours, subject
//!   to a balance cap. This is the classic edge-cut-minimizing refinement (a
//!   lightweight stand-in for METIS-style partitioning) and recovers most of
//!   the locality the paper's real cluster deployment enjoys.
//! * [`PartitionStrategy::Workload`] — the same co-locate + refine pipeline,
//!   but weighted by *observed* per-edge-label traffic from a calibration
//!   run's [`TrafficProfile`] instead of graph shape (see the
//!   [`workload`](self) submodule): columns the profiled workload actually
//!   traverses attract their tuples; columns it never touches attract
//!   nothing.
//!
//! Partitioning is pure accounting: strategies never change results or
//! message counts, only which messages are charged as network traffic
//! (`tests/robustness.rs`, `tests/partitioning.rs`).

mod colocate;
mod refine;
mod workload;

use crate::graph::{Graph, VertexId};
use crate::stats::TrafficProfile;
use std::hash::{Hash, Hasher};
use vcsql_relation::fx::FxHasher;

/// Default headroom over the ideal per-machine load that the locality-aware
/// strategies are allowed to use (20%).
pub const DEFAULT_BALANCE_SLACK: f64 = 0.2;

/// Per-machine vertex quota for `vertices` vertices on `machines` machines
/// with `slack` relative headroom over the ideal load. Always at least 1 and
/// at least the ceiling of the ideal load, so an assignment within the cap
/// exists for every input.
pub fn balance_cap(vertices: usize, machines: usize, slack: f64) -> usize {
    assert!(machines > 0, "balance_cap with zero machines");
    assert!(slack >= 0.0, "negative balance slack");
    let ideal = (vertices as f64 / machines as f64).ceil() as usize;
    let capped = ((vertices as f64) * (1.0 + slack) / machines as f64).ceil() as usize;
    capped.max(ideal).max(1)
}

/// Hash a vertex id to a machine (the shared fallback placement). FxHash's
/// low bits are weak on structured ids (e.g. every 6th vertex), so a
/// murmur-style finalizer mixes them before the modulo.
#[inline]
pub(crate) fn hash_machine(v: VertexId, machines: usize) -> u16 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51afd7ed558ccd);
    x ^= x >> 33;
    (x % machines as u64) as u16
}

/// A pluggable vertex-placement strategy (ROADMAP: locality-aware TAG
/// partitioning). `Hash` is the paper's baseline; `CoLocate` and `Refined`
/// close the Section 8.6 traffic gap from graph shape alone; `Workload`
/// closes more of it from *observed* traffic (a calibration run's
/// [`TrafficProfile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Uniform hash placement of every vertex.
    Hash,
    /// Tuple vertices follow their best attribute neighbour by
    /// cross-relation traffic weight.
    CoLocate,
    /// `CoLocate` seed refined by greedy label propagation.
    Refined,
    /// `Refined` machinery under observed per-edge-label traffic weights
    /// (see the [`workload`](self) submodule). With an empty profile every
    /// label falls back to the static weights, i.e. `Workload(default)`
    /// behaves exactly like `Refined`.
    Workload(TrafficProfile),
}

impl PartitionStrategy {
    /// The profile-free strategies, in baseline-first order (`Workload`
    /// needs a calibration profile and is constructed explicitly).
    pub const ALL: [PartitionStrategy; 3] =
        [PartitionStrategy::Hash, PartitionStrategy::CoLocate, PartitionStrategy::Refined];

    /// CLI-facing name (`--partitioning hash|colocate|refined|workload`).
    pub fn name(&self) -> &'static str {
        match self {
            PartitionStrategy::Hash => "hash",
            PartitionStrategy::CoLocate => "colocate",
            PartitionStrategy::Refined => "refined",
            PartitionStrategy::Workload(_) => "workload",
        }
    }

    /// Parse a CLI-facing name. `workload` parses to an **empty-profile**
    /// `Workload` (≡ `Refined`); callers are expected to swap in a real
    /// calibration profile via [`PartitionStrategy::with_profile`].
    pub fn parse(s: &str) -> Option<PartitionStrategy> {
        match s {
            "hash" => Some(PartitionStrategy::Hash),
            "colocate" => Some(PartitionStrategy::CoLocate),
            "refined" => Some(PartitionStrategy::Refined),
            "workload" => Some(PartitionStrategy::Workload(TrafficProfile::new())),
            _ => None,
        }
    }

    /// For a `Workload` strategy, replace the profile; other strategies are
    /// returned unchanged (they have nothing to calibrate).
    pub fn with_profile(self, profile: TrafficProfile) -> PartitionStrategy {
        match self {
            PartitionStrategy::Workload(_) => PartitionStrategy::Workload(profile),
            other => other,
        }
    }

    /// Build a partitioning of `graph` over `machines` machines. `is_anchor`
    /// marks the vertices that hash-place and attract their neighbours (TAG
    /// attribute vertices); `Hash` ignores it.
    pub fn partition(
        &self,
        graph: &Graph,
        machines: usize,
        is_anchor: &dyn Fn(VertexId) -> bool,
    ) -> Partitioning {
        match self {
            PartitionStrategy::Hash => Partitioning::hash(graph, machines),
            PartitionStrategy::CoLocate => Partitioning::co_locate(graph, machines, is_anchor),
            // With no profile every label keeps its static weight.
            PartitionStrategy::Refined => {
                assert!(machines > 0 && machines <= u16::MAX as usize);
                workload::workload_partition(graph, machines, is_anchor, &TrafficProfile::new())
            }
            PartitionStrategy::Workload(profile) => {
                assert!(machines > 0 && machines <= u16::MAX as usize);
                workload::workload_partition(graph, machines, is_anchor, profile)
            }
        }
    }
}

/// Quality measures of one partitioning over one graph: how much traffic a
/// traversal can avoid (edge cut) and how evenly work is spread (load).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionDiagnostics {
    /// Machines in the partitioning.
    pub machines: usize,
    /// Vertices assigned.
    pub vertices: usize,
    /// Directed edges whose endpoints live on different machines.
    pub cut_edges: usize,
    /// Total directed edges.
    pub total_edges: usize,
    /// `cut_edges / total_edges` (0 for an edgeless graph).
    pub edge_cut_fraction: f64,
    /// Largest per-machine vertex count.
    pub max_load: usize,
    /// Smallest per-machine vertex count.
    pub min_load: usize,
    /// `max_load / (vertices / machines)` — 1.0 is perfect balance.
    pub load_imbalance: f64,
}

/// An assignment of vertices to simulated machines.
#[derive(Debug, Clone)]
pub struct Partitioning {
    machine_of: Vec<u16>,
    machines: usize,
}

impl Partitioning {
    /// Hash-partition all vertices of a graph over `machines` machines —
    /// TigerGraph's default automatic partitioning, which the paper uses
    /// untuned ("We used TigerGraph's default automatic partitioning").
    pub fn hash(graph: &Graph, machines: usize) -> Partitioning {
        assert!(machines > 0 && machines <= u16::MAX as usize);
        let machine_of =
            (0..graph.vertex_count() as VertexId).map(|v| hash_machine(v, machines)).collect();
        Partitioning { machine_of, machines }
    }

    /// Locality-aware placement: anchors (TAG attribute vertices) hash-place;
    /// every other vertex follows its best anchor neighbour by cross-relation
    /// traffic weight (falling back to the highest-degree light anchor when
    /// nothing joins), under the default balance cap. See the `colocate`
    /// submodule docs for the weighting.
    pub fn co_locate(
        graph: &Graph,
        machines: usize,
        is_anchor: &dyn Fn(VertexId) -> bool,
    ) -> Partitioning {
        assert!(machines > 0 && machines <= u16::MAX as usize);
        colocate::co_locate(graph, machines, is_anchor)
    }

    /// Build from an explicit assignment.
    pub fn from_assignment(machine_of: Vec<u16>, machines: usize) -> Partitioning {
        assert!(machine_of.iter().all(|&m| (m as usize) < machines));
        Partitioning { machine_of, machines }
    }

    /// The machine hosting vertex `v`.
    #[inline]
    pub fn machine_of(&self, v: VertexId) -> u16 {
        self.machine_of[v as usize]
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// True iff `a` and `b` are on different machines (i.e. a message between
    /// them would use the network).
    #[inline]
    pub fn crosses(&self, a: VertexId, b: VertexId) -> bool {
        self.machine_of[a as usize] != self.machine_of[b as usize]
    }

    /// Number of vertices per machine (for balance diagnostics).
    pub fn load(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.machines];
        for &m in &self.machine_of {
            counts[m as usize] += 1;
        }
        counts
    }

    /// Edge-cut and load-balance diagnostics against the graph this
    /// partitioning was built for.
    pub fn diagnostics(&self, graph: &Graph) -> PartitionDiagnostics {
        assert_eq!(self.machine_of.len(), graph.vertex_count());
        let mut cut = 0usize;
        for v in graph.vertices() {
            for e in graph.out_edges(v) {
                if self.crosses(v, e.target) {
                    cut += 1;
                }
            }
        }
        let total = graph.edge_count();
        let load = self.load();
        let (max_load, min_load) =
            (load.iter().copied().max().unwrap_or(0), load.iter().copied().min().unwrap_or(0));
        let ideal = self.machine_of.len() as f64 / self.machines as f64;
        PartitionDiagnostics {
            machines: self.machines,
            vertices: self.machine_of.len(),
            cut_edges: cut,
            total_edges: total,
            edge_cut_fraction: if total == 0 { 0.0 } else { cut as f64 / total as f64 },
            max_load,
            min_load,
            load_imbalance: if ideal == 0.0 { 1.0 } else { max_load as f64 / ideal },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let l = b.vertex_label("v");
        for _ in 0..n {
            b.add_vertex(l);
        }
        b.finish()
    }

    /// A bipartite "TAG-shaped" graph: `groups` stars, each with one anchor
    /// (label "@a") and `leaves` tuple vertices (label "t") connected to it.
    fn star_graph(groups: usize, leaves: usize) -> (Graph, crate::LabelId) {
        let mut b = GraphBuilder::new();
        let lt = b.vertex_label("t");
        let la = b.vertex_label("@a");
        let e = b.edge_label("t.a");
        for _ in 0..groups {
            let a = b.add_vertex(la);
            for _ in 0..leaves {
                let t = b.add_vertex(lt);
                b.add_undirected_edge(t, a, e);
            }
        }
        (b.finish(), la)
    }

    #[test]
    fn hash_partition_is_roughly_balanced() {
        let g = graph(10_000);
        let p = Partitioning::hash(&g, 6);
        let load = p.load();
        assert_eq!(load.iter().sum::<usize>(), 10_000);
        for &l in &load {
            // Within 25% of the ideal 1667 — hash balance, not perfection.
            assert!(l > 1200 && l < 2200, "unbalanced: {load:?}");
        }
    }

    #[test]
    fn crossing_detection() {
        let p = Partitioning::from_assignment(vec![0, 0, 1], 2);
        assert!(!p.crosses(0, 1));
        assert!(p.crosses(0, 2));
        assert_eq!(p.machine_of(2), 1);
    }

    #[test]
    #[should_panic]
    fn bad_assignment_panics() {
        Partitioning::from_assignment(vec![0, 3], 2);
    }

    #[test]
    fn balance_cap_bounds() {
        assert_eq!(balance_cap(0, 4, 0.2), 1);
        assert_eq!(balance_cap(100, 4, 0.0), 25);
        assert_eq!(balance_cap(100, 4, 0.2), 30);
        // Never below the ceiling of the ideal load.
        assert!(balance_cap(5, 4, 0.0) >= 2);
    }

    #[test]
    fn colocate_keeps_stars_local() {
        let (g, anchor_label) = star_graph(60, 5);
        let p = Partitioning::co_locate(&g, 4, &|v| g.label_of(v) == anchor_label);
        // Every leaf sits with its anchor unless the balance cap interfered;
        // with 60 well-spread anchors the cut must be far below hash's 3/4.
        let d = p.diagnostics(&g);
        assert!(d.edge_cut_fraction < 0.25, "cut {:.2}", d.edge_cut_fraction);
        assert_eq!(p.load().iter().sum::<usize>(), g.vertex_count());
        let cap = balance_cap(g.vertex_count(), 4, DEFAULT_BALANCE_SLACK);
        assert!(d.max_load <= cap, "load {} over cap {cap}", d.max_load);
    }

    #[test]
    fn refine_never_worsens_star_cut() {
        let (g, anchor_label) = star_graph(40, 6);
        let seed = Partitioning::co_locate(&g, 3, &|v| g.label_of(v) == anchor_label);
        let refined = refine::greedy_refine(&seed, &g, &refine::WeightModel::shape(&g));
        let (ds, dr) = (seed.diagnostics(&g), refined.diagnostics(&g));
        assert!(dr.cut_edges <= ds.cut_edges, "refine worsened cut: {ds:?} -> {dr:?}");
        assert_eq!(refined.load().iter().sum::<usize>(), g.vertex_count());
    }

    #[test]
    fn refine_respects_balance_cap() {
        let (g, anchor_label) = star_graph(10, 10);
        let seed = Partitioning::co_locate(&g, 4, &|v| g.label_of(v) == anchor_label);
        let refined = refine::greedy_refine(&seed, &g, &refine::WeightModel::shape(&g));
        let cap = balance_cap(g.vertex_count(), 4, DEFAULT_BALANCE_SLACK)
            .max(seed.load().into_iter().max().unwrap_or(0));
        assert!(refined.load().into_iter().max().unwrap() <= cap);
    }

    #[test]
    fn strategies_parse_and_roundtrip_names() {
        for s in PartitionStrategy::ALL {
            assert_eq!(PartitionStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(PartitionStrategy::parse("metis"), None);
        // One name per strategy: no undocumented aliases.
        for alias in ["co_locate", "co-locate", "refine", "profiled"] {
            assert_eq!(PartitionStrategy::parse(alias), None, "alias {alias} parsed");
        }
    }

    #[test]
    fn strategy_partition_is_deterministic() {
        let (g, anchor_label) = star_graph(20, 4);
        for s in PartitionStrategy::ALL {
            let a = s.partition(&g, 5, &|v| g.label_of(v) == anchor_label);
            let b = s.partition(&g, 5, &|v| g.label_of(v) == anchor_label);
            for v in g.vertices() {
                assert_eq!(a.machine_of(v), b.machine_of(v), "{} not deterministic", s.name());
            }
        }
    }

    #[test]
    fn diagnostics_on_explicit_assignment() {
        let (g, _) = star_graph(1, 2); // a0 with leaves 1, 2 (ids 0,1,2)
        let p = Partitioning::from_assignment(vec![0, 0, 1], 2);
        let d = p.diagnostics(&g);
        assert_eq!(d.total_edges, 4);
        assert_eq!(d.cut_edges, 2); // the 0-2 undirected edge, both directions
        assert!((d.edge_cut_fraction - 0.5).abs() < 1e-12);
        assert_eq!((d.max_load, d.min_load), (2, 1));
        assert!((d.load_imbalance - 2.0 / 1.5).abs() < 1e-12);
    }
}
