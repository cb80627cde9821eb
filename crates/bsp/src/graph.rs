//! The immutable, labelled graph the engine computes over.
//!
//! Vertices carry a label (e.g. the relation name for tuple vertices, the
//! type name for attribute vertices). Edges carry a label (`R.A` in TAG
//! graphs) and are stored in CSR form, grouped per source vertex and sorted
//! by label so per-label scans (`out_edges_with_label`) are contiguous.
//!
//! The paper models TAG edges as undirected (footnote 3): an undirected edge
//! is two directed edges, one per endpoint, added by
//! [`GraphBuilder::add_undirected_edge`]. Such a graph pairs every CSR slot
//! `u → v` with the slot of `v → u` under the same label
//! ([`Graph::reverse_slot`]), the index the engine's signal lane delivers
//! through; it is built on first use, so a graph that never signals never
//! pays for it.

use crate::interner::{Interner, LabelId};
use std::ops::Range;
use std::sync::OnceLock;

/// Vertex identifier — dense, starting at zero.
pub type VertexId = u32;

/// A directed, labelled edge (source implied by CSR position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub label: LabelId,
    pub target: VertexId,
}

/// Mutable graph under construction; finalize with [`GraphBuilder::finish`].
///
/// Edges are kept as one flat `(source, edge)` list in the order they were
/// added; [`GraphBuilder::finish`] turns it into CSR by counting sort, so
/// building a graph allocates per array, not per vertex.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    vertex_labels: Interner,
    edge_labels: Interner,
    vlabel_of: Vec<LabelId>,
    edges: Vec<(VertexId, Edge)>,
}

impl GraphBuilder {
    /// Empty builder.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Intern a vertex label without creating a vertex.
    pub fn vertex_label(&mut self, name: &str) -> LabelId {
        self.vertex_labels.intern(name)
    }

    /// Intern an edge label without creating an edge.
    pub fn edge_label(&mut self, name: &str) -> LabelId {
        self.edge_labels.intern(name)
    }

    /// Add a vertex with the given label, returning its id.
    pub fn add_vertex(&mut self, label: LabelId) -> VertexId {
        let id = self.vlabel_of.len() as VertexId;
        self.vlabel_of.push(label);
        id
    }

    /// Add a directed edge. Both endpoints must exist by
    /// [`GraphBuilder::finish`].
    pub fn add_edge(&mut self, source: VertexId, target: VertexId, label: LabelId) {
        self.edges.push((source, Edge { label, target }));
    }

    /// Add an undirected edge (two directed edges with the same label).
    pub fn add_undirected_edge(&mut self, a: VertexId, b: VertexId, label: LabelId) {
        self.add_edge(a, b, label);
        self.add_edge(b, a, label);
    }

    /// Current number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vlabel_of.len()
    }

    /// Freeze into a CSR [`Graph`] by counting sort: out-degrees, prefix
    /// sum, then one stable fill pass.
    ///
    /// Every vertex's range ends up sorted by `(label, target)` so per-label
    /// ranges are contiguous and iteration order is deterministic. The fill
    /// keeps each source's edges in the order they were added, so a caller
    /// that adds edges label by label, targets ascending within a label,
    /// gets that order without any sorting; a range is sorted only where a
    /// check finds it is not.
    pub fn finish(self) -> Graph {
        let GraphBuilder { vertex_labels, edge_labels, vlabel_of, edges: added } = self;
        let n = vlabel_of.len();
        // `offsets[v + 1]` is the fill cursor of `v`: it starts at the
        // beginning of `v`'s range and ends at its end, which is where
        // `v + 1`'s range begins. Degrees are therefore counted two slots
        // up, and the last vertex's (which no start depends on) not at all.
        let mut offsets = vec![0u64; n + 1];
        for &(source, _) in &added {
            assert!((source as usize) < n, "edge from unknown vertex {source}");
            if let Some(degree) = offsets.get_mut(source as usize + 2) {
                *degree += 1;
            }
        }
        for v in 2..=n {
            offsets[v] += offsets[v - 1];
        }
        let mut edges = vec![Edge { label: LabelId(0), target: 0 }; added.len()];
        for &(source, edge) in &added {
            let cursor = &mut offsets[source as usize + 1];
            edges[*cursor as usize] = edge;
            *cursor += 1;
        }
        drop(added);
        for v in 0..n {
            let range = &mut edges[offsets[v] as usize..offsets[v + 1] as usize];
            if !range.is_sorted_by_key(|e| (e.label, e.target)) {
                range.sort_unstable_by_key(|e| (e.label, e.target));
            }
        }
        // Per-vertex-label vertex lists, for `activate_label`-style seeding.
        let mut sizes = vec![0usize; vertex_labels.len()];
        for l in &vlabel_of {
            sizes[l.0 as usize] += 1;
        }
        let mut vertices_by_label: Vec<Vec<VertexId>> =
            sizes.into_iter().map(Vec::with_capacity).collect();
        for (v, l) in vlabel_of.iter().enumerate() {
            vertices_by_label[l.0 as usize].push(v as VertexId);
        }
        Graph {
            vertex_labels,
            edge_labels,
            vlabel_of,
            offsets,
            edges,
            vertices_by_label,
            reverse: OnceLock::new(),
        }
    }
}

/// An immutable labelled graph in CSR form.
#[derive(Debug, Clone)]
pub struct Graph {
    vertex_labels: Interner,
    edge_labels: Interner,
    vlabel_of: Vec<LabelId>,
    offsets: Vec<u64>,
    edges: Vec<Edge>,
    vertices_by_label: Vec<Vec<VertexId>>,
    /// For every slot `u → v`, the slot of `v → u` under the same label;
    /// built on the first [`Graph::reverse_slot`] call.
    reverse: OnceLock<Box<[u32]>>,
}

impl Graph {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vlabel_of.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The label of a vertex.
    #[inline]
    pub fn label_of(&self, v: VertexId) -> LabelId {
        self.vlabel_of[v as usize]
    }

    /// All out-edges of a vertex (sorted by label).
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[Edge] {
        let (lo, hi) = (self.offsets[v as usize] as usize, self.offsets[v as usize + 1] as usize);
        &self.edges[lo..hi]
    }

    /// Positions within `out_edges(v)` of the edges carrying `label` — a
    /// contiguous run thanks to the per-vertex `(label, target)` sort, empty
    /// at the label's insertion point when `v` has none. Per-edge vertex
    /// state (one bit per own edge) is indexed by these positions.
    pub fn label_range(&self, v: VertexId, label: LabelId) -> Range<usize> {
        let all = self.out_edges(v);
        all.partition_point(|e| e.label < label)..all.partition_point(|e| e.label <= label)
    }

    /// The global CSR slot of `v`'s first out-edge: `v`'s `i`-th out-edge
    /// sits at slot `first_slot(v) + i`.
    #[inline]
    pub fn first_slot(&self, v: VertexId) -> usize {
        self.offsets[v as usize] as usize
    }

    /// The slot of the edge back along `slot`: for slot `u → v` labelled
    /// `l`, the slot of `v → u` labelled `l`. Parallel edges pair up in
    /// order. The first call builds the index for every slot.
    ///
    /// # Panics
    ///
    /// If some edge has no reverse edge under its label (a graph built
    /// with directed [`GraphBuilder::add_edge`] calls alone).
    #[inline]
    pub fn reverse_slot(&self, slot: usize) -> usize {
        self.reverse.get_or_init(|| self.build_reverse())[slot] as usize
    }

    /// The reverse-slot index in O(E): visiting the slots in (label,
    /// source) order, the edges into each vertex `v` arrive in exactly the
    /// `(label, target)` order of `v`'s own out-edges, so one cursor per
    /// vertex, walking its own range, pairs them up.
    fn build_reverse(&self) -> Box<[u32]> {
        let e = self.edges.len();
        assert!(u32::try_from(e).is_ok(), "{e} edges overflow a u32 slot index");
        // The slots grouped by label by a counting sort, each group in
        // slot (= source) order.
        let mut starts = vec![0u32; self.edge_labels.len() + 1];
        for edge in &self.edges {
            starts[edge.label.0 as usize + 1] += 1;
        }
        for l in 1..starts.len() {
            starts[l] += starts[l - 1];
        }
        let mut by_label = vec![0u32; e];
        for (slot, edge) in self.edges.iter().enumerate() {
            let at = &mut starts[edge.label.0 as usize];
            by_label[*at as usize] = slot as u32;
            *at += 1;
        }
        // Each vertex's cursor and the end of its range, side by side.
        let mut cursor: Vec<[u32; 2]> =
            self.offsets.windows(2).map(|w| [w[0] as u32, w[1] as u32]).collect();
        let mut reverse = vec![0u32; e].into_boxed_slice();
        for &slot in &by_label {
            let Edge { label, target } = self.edges[slot as usize];
            let [back, end] = &mut cursor[target as usize];
            assert!(
                *back < *end && self.edges[*back as usize].label == label,
                "slot {slot} (to {target}, {label:?}) has no reverse edge"
            );
            reverse[slot as usize] = *back;
            *back += 1;
        }
        // Every reverse lies in its edge's target's range under the edge's
        // label; it leads back to the edge's source iff the pairing is an
        // involution.
        for (slot, &back) in reverse.iter().enumerate() {
            assert_eq!(reverse[back as usize] as usize, slot, "slot {slot} has no reverse edge");
        }
        reverse
    }

    /// Out-edges of `v` carrying `label`: the [`Graph::label_range`] slice.
    pub fn out_edges_with_label(&self, v: VertexId, label: LabelId) -> &[Edge] {
        &self.out_edges(v)[self.label_range(v, label)]
    }

    /// Out-degree.
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_edges(v).len()
    }

    /// Out-degree restricted to one edge label. For a TAG attribute vertex
    /// and label `R.A` this is exactly `|σ_{A=a} R|` — the quantity the
    /// heavy/light split of Section 6.1.2 tests against θ.
    pub fn degree_with_label(&self, v: VertexId, label: LabelId) -> usize {
        self.out_edges_with_label(v, label).len()
    }

    /// Resolve a vertex label name.
    pub fn vertex_label_id(&self, name: &str) -> Option<LabelId> {
        self.vertex_labels.get(name)
    }

    /// Resolve an edge label name.
    pub fn edge_label_id(&self, name: &str) -> Option<LabelId> {
        self.edge_labels.get(name)
    }

    /// Name of a vertex label.
    pub fn vertex_label_name(&self, id: LabelId) -> &str {
        self.vertex_labels.name(id)
    }

    /// Name of an edge label.
    pub fn edge_label_name(&self, id: LabelId) -> &str {
        self.edge_labels.name(id)
    }

    /// All vertices carrying the given vertex label.
    pub fn vertices_with_label(&self, label: LabelId) -> &[VertexId] {
        &self.vertices_by_label[label.0 as usize]
    }

    /// Iterate all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.vertex_count() as VertexId
    }

    /// The vertex-label interner (read access for diagnostics).
    pub fn vertex_labels(&self) -> &Interner {
        &self.vertex_labels
    }

    /// The edge-label interner (read access for diagnostics).
    pub fn edge_labels(&self) -> &Interner {
        &self.edge_labels
    }

    /// Approximate footprint in bytes of the graph topology (not including
    /// user vertex state), the reverse-slot index included once it is built.
    pub fn deep_size(&self) -> usize {
        self.reverse.get().map_or(0, |r| r.len() * 4)
            + self.vlabel_of.len() * std::mem::size_of::<LabelId>()
            + self.offsets.len() * 8
            + self.edges.len() * std::mem::size_of::<Edge>()
            + self.vertices_by_label.iter().map(|v| v.len() * 4 + 24).sum::<usize>()
            + self.vertex_labels.deep_size()
            + self.edge_labels.deep_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        // r0 --ra--> a0, r1 --ra--> a0, a0 --sb--> s0 (directed for the test)
        let mut b = GraphBuilder::new();
        let lr = b.vertex_label("R");
        let la = b.vertex_label("int");
        let ls = b.vertex_label("S");
        let ra = b.edge_label("R.A");
        let sb = b.edge_label("S.B");
        let r0 = b.add_vertex(lr);
        let r1 = b.add_vertex(lr);
        let a0 = b.add_vertex(la);
        let s0 = b.add_vertex(ls);
        b.add_undirected_edge(r0, a0, ra);
        b.add_undirected_edge(r1, a0, ra);
        b.add_undirected_edge(s0, a0, sb);
        b.finish()
    }

    #[test]
    fn csr_layout_and_label_ranges() {
        let g = tiny();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 6);
        let a0 = 2;
        assert_eq!(g.degree(a0), 3);
        let ra = g.edge_label_id("R.A").unwrap();
        let sb = g.edge_label_id("S.B").unwrap();
        assert_eq!(g.degree_with_label(a0, ra), 2);
        assert_eq!(g.degree_with_label(a0, sb), 1);
        let targets: Vec<VertexId> =
            g.out_edges_with_label(a0, ra).iter().map(|e| e.target).collect();
        assert_eq!(targets, vec![0, 1]);
        // Positions within `out_edges(a0)`: R.A's run first, then S.B's.
        assert_eq!(g.label_range(a0, ra), 0..2);
        assert_eq!(g.label_range(a0, sb), 2..3);
        for v in g.vertices() {
            for l in [ra, sb] {
                assert_eq!(g.out_edges_with_label(v, l), &g.out_edges(v)[g.label_range(v, l)]);
            }
        }
    }

    #[test]
    fn label_lookup() {
        let g = tiny();
        let lr = g.vertex_label_id("R").unwrap();
        assert_eq!(g.vertices_with_label(lr), &[0, 1]);
        assert_eq!(g.vertex_label_name(g.label_of(3)), "S");
        assert!(g.vertex_label_id("missing").is_none());
    }

    #[test]
    fn edges_fed_in_reverse_label_order_still_freeze_sorted() {
        let mut b = GraphBuilder::new();
        let l = b.vertex_label("V");
        let labels: Vec<LabelId> = (0..3).map(|i| b.edge_label(&format!("e{i}"))).collect();
        let hub = b.add_vertex(l);
        let spokes: Vec<VertexId> = (0..4).map(|_| b.add_vertex(l)).collect();
        for &label in labels.iter().rev() {
            for &s in spokes.iter().rev() {
                b.add_undirected_edge(hub, s, label);
            }
        }
        let g = b.finish();
        let want: Vec<Edge> = labels
            .iter()
            .flat_map(|&label| spokes.iter().map(move |&target| Edge { label, target }))
            .collect();
        assert_eq!(g.out_edges(hub), want.as_slice());
        for &s in &spokes {
            let got: Vec<LabelId> = g.out_edges(s).iter().map(|e| e.label).collect();
            assert_eq!(got, labels, "spoke {s}");
            assert_eq!(g.degree_with_label(s, labels[1]), 1);
        }
    }

    /// Every slot's reverse pairs it back (`rev[rev[i]] == i`) with the
    /// same label and the endpoints swapped.
    fn assert_reverse_index(g: &Graph) {
        for v in g.vertices() {
            for (k, edge) in g.out_edges(v).iter().enumerate() {
                let slot = g.first_slot(v) + k;
                let back = g.reverse_slot(slot);
                let t = edge.target;
                let at = back.checked_sub(g.first_slot(t)).filter(|&i| i < g.degree(t));
                let pair = at.map(|i| g.out_edges(t)[i]);
                assert_eq!(pair, Some(Edge { label: edge.label, target: v }), "slot {slot}");
                assert_eq!(g.reverse_slot(back), slot, "slot {slot}");
            }
        }
    }

    #[test]
    fn reverse_slots_pair_every_edge_with_its_twin() {
        let g = tiny();
        assert_reverse_index(&g);
        // a0's R.A run is r0, r1; r1's only edge is slot 2 (r0 has 0, 1).
        let a0 = 2;
        assert_eq!(g.reverse_slot(g.first_slot(a0) + 1), g.first_slot(1));
    }

    /// Edges fed hub-first, labels and spokes both descending, so `finish`
    /// sorts the hub's range and the pairing follows the sorted order.
    #[test]
    fn reverse_slots_survive_sorted_ranges() {
        let mut b = GraphBuilder::new();
        let l = b.vertex_label("V");
        let labels: Vec<LabelId> = (0..3).map(|i| b.edge_label(&format!("e{i}"))).collect();
        let hub = b.add_vertex(l);
        let spokes: Vec<VertexId> = (0..5).map(|_| b.add_vertex(l)).collect();
        for &label in labels.iter().rev() {
            for &s in spokes.iter().rev() {
                b.add_undirected_edge(s, hub, label);
            }
        }
        let g = b.finish();
        assert_reverse_index(&g);
    }

    /// One vertex pair joined under two labels, and once more under the
    /// first: each edge pairs with its twin of the same label, parallel
    /// edges in order.
    #[test]
    fn reverse_slots_keep_labels_apart() {
        let mut b = GraphBuilder::new();
        let l = b.vertex_label("V");
        let (x, y) = (b.edge_label("x"), b.edge_label("y"));
        let u = b.add_vertex(l);
        let v = b.add_vertex(l);
        b.add_undirected_edge(u, v, y);
        b.add_undirected_edge(u, v, x);
        b.add_undirected_edge(v, u, x);
        let g = b.finish();
        assert_reverse_index(&g);
        let labels = |w: VertexId| g.out_edges(w).iter().map(|e| e.label).collect::<Vec<_>>();
        assert_eq!((labels(u), labels(v)), (vec![x, x, y], vec![x, x, y]));
        assert_eq!((0..3).map(|i| g.reverse_slot(i)).collect::<Vec<_>>(), [3, 4, 5]);
    }

    #[test]
    fn deep_size_counts_the_reverse_index_once_built() {
        let g = tiny();
        let before = g.deep_size();
        g.reverse_slot(0);
        assert_eq!(g.deep_size(), before + 4 * g.edge_count());
    }

    #[test]
    #[should_panic(expected = "has no reverse edge")]
    fn a_directed_edge_has_no_reverse_slot() {
        let mut b = GraphBuilder::new();
        let l = b.vertex_label("V");
        let e = b.edge_label("e");
        let (u, v) = (b.add_vertex(l), b.add_vertex(l));
        b.add_edge(u, v, e);
        b.finish().reverse_slot(0);
    }

    /// A directed 3-cycle under one label: every edge finds an edge of its
    /// label at its target, but none leads back.
    #[test]
    #[should_panic(expected = "has no reverse edge")]
    fn a_directed_cycle_has_no_reverse_slots() {
        let mut b = GraphBuilder::new();
        let l = b.vertex_label("V");
        let e = b.edge_label("e");
        let vs: Vec<VertexId> = (0..3).map(|_| b.add_vertex(l)).collect();
        for i in 0..3 {
            b.add_edge(vs[i], vs[(i + 1) % 3], e);
        }
        b.finish().reverse_slot(0);
    }

    #[test]
    fn missing_label_gives_empty_slice() {
        let g = tiny();
        let ra = g.edge_label_id("R.A").unwrap();
        let sb = g.edge_label_id("S.B").unwrap();
        assert!(g.out_edges_with_label(0, sb).is_empty());
        // The empty range sits at the label's insertion point: after r0's
        // one R.A edge, before s0's one S.B edge.
        assert_eq!(g.label_range(0, sb), 1..1);
        assert_eq!(g.label_range(3, ra), 0..0);
        assert_eq!(&g.out_edges(0)[g.label_range(0, sb)], g.out_edges_with_label(0, sb));
    }
}
