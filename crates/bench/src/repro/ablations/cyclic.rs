//! Cycle queries (paper Sections 6.1–6.2): vertex-centric counting of
//! triangles and n-way cycles with the NPRR-style heavy/light split,
//! measured by `repro triangle-theta` (A2) across θ.
//!
//! The query shape is `E0(x0,x1) ⋈ E1(x1,x2) ⋈ ... ⋈ E{n-1}(x{n-1},x0)` over
//! binary relations with columns `(src, dst)`.
//!
//! The vanilla algorithm starts at the `x0` attribute vertices and propagates
//! their ids along both directions of the cycle until the flows meet at the
//! "middle" attribute vertices, which intersect the streams (Example 6.1).
//! The worst-case-optimal variant (Section 6.1.2) classifies each `x0` value
//! as *heavy* (degree through `E0.src` exceeds θ) or *light*: heavy values
//! run vanilla; light values wake their `x1` neighbours through the
//! (light-marked) `E0` tuples and the propagation starts from `x1` instead —
//! bounding replication by θ on one side and `|E0|/θ` on the other, which
//! yields the AGM bound at `θ = √IN`.
//!
//! Messages carry `(origin, multiplicity)` maps, pre-aggregated at every hop
//! — a counting-sufficient optimization that leaves the asymptotic message
//! complexity unchanged. In odd cycles the shorter flow reaches the meeting
//! attribute one round early and is stashed in vertex state until the longer
//! flow arrives.

use vcsql_bsp::program::Aggregator;
use vcsql_bsp::{Computation, EngineConfig, LabelId, Message, RunStats, VertexCtx, VertexId};
use vcsql_relation::{FxHashMap, RelError};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// `(origin attribute vertex, path multiplicity)` pairs, pre-aggregated.
#[derive(Debug, Clone)]
struct Paths {
    /// 0 = left flow (through E0, E1, ...), 1 = right flow (backwards).
    side: u8,
    counts: Vec<(VertexId, u64)>,
}

impl Message for Paths {
    fn byte_size(&self) -> usize {
        2 + self.counts.len() * 12
    }
}

#[derive(Default)]
struct CountAgg(u64);
impl Aggregator for CountAgg {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// Per-vertex scratch.
#[derive(Default)]
struct CySt {
    /// E0 tuples woken by a light x0 (the light stage's right flow may only
    /// cross these).
    light_marked: bool,
    /// Early-arrived right flow stashed at the meeting attribute (odd
    /// cycles), tagged with the stage that wrote it so a stash abandoned by
    /// one stage (no left flow ever arrived) cannot leak into the next.
    stored_right: FxHashMap<VertexId, u64>,
    stored_stage: u8,
}

struct RelLabels {
    src: LabelId,
    dst: LabelId,
}

/// Which origins start a stage.
#[derive(Clone, Copy)]
enum StageFilter {
    /// All x0 values with both cycle edges.
    Vanilla,
    /// x0 values with `deg(E0.src) > θ`.
    Heavy(usize),
    /// Previously woken x1 vertices (light stage; no re-activation).
    SeededLight,
}

/// Count the n-cycles (tuple combinations closing the cycle) among the given
/// binary relations. `theta = None` runs the vanilla algorithm from `x0`;
/// `Some(θ)` runs the heavy/light split of Section 6.1.2.
pub(super) fn count_cycles(
    tag: &TagGraph,
    relations: &[&str],
    theta: Option<usize>,
    config: EngineConfig,
) -> Result<(u64, RunStats)> {
    let n = relations.len();
    if n < 3 {
        return Err(RelError::Other("cycle queries need at least 3 relations".into()));
    }
    let labels: Vec<RelLabels> = relations
        .iter()
        .map(|r| {
            let src = tag
                .column_label_by_name(r, "src")
                .ok_or_else(|| RelError::Other(format!("{r}.src not materialized")))?;
            let dst = tag
                .column_label_by_name(r, "dst")
                .ok_or_else(|| RelError::Other(format!("{r}.dst not materialized")))?;
            Ok::<RelLabels, RelError>(RelLabels { src, dst })
        })
        .collect::<Result<_>>()?;

    let graph = tag.graph();
    let mut comp: Computation<'_, CySt, Paths> =
        Computation::new(graph, config, |_| CySt::default());

    // All attribute vertices (non-cycle values deactivate after one local
    // degree check).
    let mut attrs: Vec<VertexId> = Vec::new();
    for label_name in ["@int", "@str", "@date"] {
        if let Some(l) = graph.vertex_label_id(label_name) {
            attrs.extend_from_slice(graph.vertices_with_label(l));
        }
    }

    let total = match theta {
        None => run_stage(&mut comp, &labels, &attrs, 0, StageFilter::Vanilla, 0),
        Some(theta) => {
            let heavy = run_stage(&mut comp, &labels, &attrs, 0, StageFilter::Heavy(theta), 0);

            // Wake-up: light x0 → its E0 tuples (marked light) → x1.
            comp.activate(attrs.clone());
            let e0 = &labels[0];
            comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, CySt, Paths>| {
                let deg = ctx.degree_with(e0.src);
                if deg == 0 || deg > theta {
                    return;
                }
                let targets: Vec<VertexId> =
                    ctx.edges_with(e0.src).iter().map(|e| e.target).collect();
                for t in targets {
                    ctx.send(t, Paths { side: 0, counts: vec![(ctx.id(), 1)] });
                }
            });
            comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, CySt, Paths>| {
                if ctx.messages().is_empty() {
                    return;
                }
                ctx.state.light_marked = true;
                // Forward the wake to this tuple's x1 attribute vertex.
                let targets: Vec<VertexId> =
                    ctx.edges_with(e0.dst).iter().map(|e| e.target).collect();
                for t in targets {
                    ctx.send(t, Paths { side: 0, counts: vec![(ctx.id(), 1)] });
                }
            });

            let light = run_stage(&mut comp, &labels, &attrs, 1, StageFilter::SeededLight, 1);
            heavy + light
        }
    };

    let (_, stats) = comp.finish();
    Ok((total, stats))
}

/// Run one propagation stage starting at attribute class `x_start`; returns
/// the cycle count this stage found.
fn run_stage(
    comp: &mut Computation<'_, CySt, Paths>,
    labels: &[RelLabels],
    attrs: &[VertexId],
    start: usize,
    filter: StageFilter,
    stage_tag: u8,
) -> u64 {
    let n = labels.len();
    // The left flow crosses relations start, start+1, ..., start+mid-1; the
    // right flow crosses start-1, start-2, ..., start+mid (backwards). Both
    // land at x_{start+mid}.
    let mid = n.div_ceil(2);
    let left_hops = mid;
    let right_hops = n - mid;
    let total_hops = left_hops.max(right_hops);

    match filter {
        StageFilter::SeededLight => {} // woken x1 vertices are already active
        _ => comp.activate(attrs.to_vec()),
    }

    // Superstep A: origins emit both flows.
    let l0 = &labels[start % n];
    let lright = &labels[(start + n - 1) % n];
    comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, CySt, Paths>| {
        match filter {
            StageFilter::Vanilla | StageFilter::Heavy(_) => {
                let deg = ctx.degree_with(l0.src);
                // Example 6.1: deactivate without both incident cycle edges.
                if deg == 0 || ctx.degree_with(lright.dst) == 0 {
                    return;
                }
                if let StageFilter::Heavy(theta) = filter {
                    if deg <= theta {
                        return;
                    }
                }
            }
            StageFilter::SeededLight => {} // activation already selected them
        }
        let me = ctx.id();
        let left: Vec<VertexId> = ctx.edges_with(l0.src).iter().map(|e| e.target).collect();
        for t in left {
            ctx.send(t, Paths { side: 0, counts: vec![(me, 1)] });
        }
        let right: Vec<VertexId> = ctx.edges_with(lright.dst).iter().map(|e| e.target).collect();
        for t in right {
            ctx.send(t, Paths { side: 1, counts: vec![(me, 1)] });
        }
    });

    let mut total = 0u64;
    for hop in 0..total_hops {
        let left_rel = &labels[(start + hop) % n];
        let right_rel = &labels[(start + n - 1 - hop) % n];
        let left_live = hop < left_hops;
        let right_live = hop < right_hops;
        // The light stage's right flow may only cross light-marked E0 tuples
        // (equation (1): R_light ⋈ T).
        let light_e0_guard = matches!(filter, StageFilter::SeededLight) && hop == 0;

        // Tuple-level hop.
        comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, CySt, Paths>| {
            let (left, mut right) = gather(ctx.messages());
            if light_e0_guard && !ctx.state.light_marked {
                right.clear();
            }
            if left_live && !left.is_empty() {
                let counts: Vec<(VertexId, u64)> = left.into_iter().collect();
                let targets: Vec<VertexId> =
                    ctx.edges_with(left_rel.dst).iter().map(|e| e.target).collect();
                for t in targets {
                    ctx.send(t, Paths { side: 0, counts: counts.clone() });
                }
            }
            if right_live && !right.is_empty() {
                let counts: Vec<(VertexId, u64)> = right.into_iter().collect();
                let targets: Vec<VertexId> =
                    ctx.edges_with(right_rel.src).iter().map(|e| e.target).collect();
                for t in targets {
                    ctx.send(t, Paths { side: 1, counts: counts.clone() });
                }
            }
        });

        if hop + 1 == total_hops {
            // Meet superstep at x_{start+mid}: intersect left and right
            // (incoming plus any stashed early arrivals).
            let (_, agg) =
                comp.superstep(|ctx: &mut VertexCtx<'_, '_, CySt, Paths>, g: &mut CountAgg| {
                    let (left, mut right) = gather(ctx.messages());
                    if ctx.state.stored_stage == stage_tag {
                        for (o, c) in std::mem::take(&mut ctx.state.stored_right) {
                            *right.entry(o).or_insert(0) += c;
                        }
                    }
                    for (o, lc) in left {
                        if let Some(rc) = right.get(&o) {
                            g.0 += lc * rc;
                        }
                    }
                });
            total = agg.0;
        } else {
            // Attribute-level hop: forward live flows, stash landed ones.
            let next_left = &labels[(start + hop + 1) % n];
            let next_right = &labels[(start + n - 2 - hop) % n];
            let l_live = hop + 1 < left_hops;
            let r_live = hop + 1 < right_hops;
            comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, CySt, Paths>| {
                let (left, right) = gather(ctx.messages());
                if !left.is_empty() && l_live {
                    let counts: Vec<(VertexId, u64)> = left.into_iter().collect();
                    let targets: Vec<VertexId> =
                        ctx.edges_with(next_left.src).iter().map(|e| e.target).collect();
                    for t in targets {
                        ctx.send(t, Paths { side: 0, counts: counts.clone() });
                    }
                }
                if !right.is_empty() {
                    if r_live {
                        let counts: Vec<(VertexId, u64)> = right.into_iter().collect();
                        let targets: Vec<VertexId> =
                            ctx.edges_with(next_right.dst).iter().map(|e| e.target).collect();
                        for t in targets {
                            ctx.send(t, Paths { side: 1, counts: counts.clone() });
                        }
                    } else {
                        // Landed early (odd cycle): wait for the left flow.
                        if ctx.state.stored_stage != stage_tag {
                            ctx.state.stored_right.clear();
                            ctx.state.stored_stage = stage_tag;
                        }
                        for (o, c) in right {
                            *ctx.state.stored_right.entry(o).or_insert(0) += c;
                        }
                    }
                }
            });
        }
    }
    total
}

/// Aggregate incoming path messages per (side, origin).
fn gather(msgs: &[Paths]) -> (FxHashMap<VertexId, u64>, FxHashMap<VertexId, u64>) {
    let mut left: FxHashMap<VertexId, u64> = FxHashMap::default();
    let mut right: FxHashMap<VertexId, u64> = FxHashMap::default();
    for m in msgs {
        let map = if m.side == 0 { &mut left } else { &mut right };
        for &(o, c) in &m.counts {
            *map.entry(o).or_insert(0) += c;
        }
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_workload::synthetic::cycle_db;

    /// Brute-force cycle count over the raw relations (test oracle).
    fn brute_force_cycles(db: &vcsql_relation::Database, relations: &[&str]) -> Result<u64> {
        let n = relations.len();
        let rels: Vec<&vcsql_relation::Relation> =
            relations.iter().map(|r| db.get(r)).collect::<Result<_>>()?;
        let mut paths: FxHashMap<(vcsql_relation::Value, vcsql_relation::Value), u64> =
            FxHashMap::default();
        for t in &rels[0].tuples {
            *paths.entry((t.get(0).clone(), t.get(1).clone())).or_insert(0) += 1;
        }
        for rel in &rels[1..n - 1] {
            let mut next: FxHashMap<(vcsql_relation::Value, vcsql_relation::Value), u64> =
                FxHashMap::default();
            for ((first, cur), count) in &paths {
                for t in &rel.tuples {
                    if t.get(0) == cur {
                        *next.entry((first.clone(), t.get(1).clone())).or_insert(0) += count;
                    }
                }
            }
            paths = next;
        }
        let mut total = 0u64;
        for ((first, cur), count) in &paths {
            for t in &rels[n - 1].tuples {
                if t.get(0) == cur && t.get(1) == first {
                    total += count;
                }
            }
        }
        Ok(total)
    }

    fn check(n: usize, rows: usize, domain: i64, seed: u64) {
        let db = cycle_db(n, rows, domain, seed);
        let names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let tag = TagGraph::build(&db);
        let expected = brute_force_cycles(&db, &name_refs).unwrap();

        let (vanilla, _) =
            count_cycles(&tag, &name_refs, None, EngineConfig::sequential()).unwrap();
        assert_eq!(vanilla, expected, "vanilla n={n}");

        for theta in [1, 4, 16] {
            let (wco, _) =
                count_cycles(&tag, &name_refs, Some(theta), EngineConfig::with_threads(4)).unwrap();
            assert_eq!(wco, expected, "heavy/light θ={theta} n={n}");
        }
    }

    #[test]
    fn triangles_match_brute_force() {
        check(3, 120, 30, 1);
        check(3, 60, 10, 2); // dense: many triangles
    }

    #[test]
    fn square_cycles_match_brute_force() {
        check(4, 80, 20, 3);
    }

    #[test]
    fn five_cycles_match_brute_force() {
        check(5, 50, 15, 4);
    }

    #[test]
    fn empty_when_no_cycles() {
        // Layered construction that never closes a cycle.
        use vcsql_relation::schema::{Column, Schema};
        use vcsql_relation::{DataType, Database, Relation, Tuple, Value};
        let mut db = Database::new();
        for (i, off) in [(0, 0), (1, 100), (2, 200)] {
            let mut rel = Relation::empty(Schema::new(
                format!("e{i}"),
                vec![Column::new("src", DataType::Int), Column::new("dst", DataType::Int)],
            ));
            for k in 0..10 {
                rel.push(Tuple::new(vec![Value::Int(off + k), Value::Int(off + 100 + k)])).unwrap();
            }
            db.add(rel);
        }
        let tag = TagGraph::build(&db);
        let (count, _) =
            count_cycles(&tag, &["e0", "e1", "e2"], Some(2), EngineConfig::sequential()).unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn hub_instance_heavy_light_agrees() {
        // A hub-heavy instance where one value has a huge degree.
        use vcsql_relation::schema::{Column, Schema};
        use vcsql_relation::{DataType, Database, Relation, Tuple, Value};
        let mut db = Database::new();
        let m = 40i64;
        for i in 0..3 {
            let mut rel = Relation::empty(Schema::new(
                format!("e{i}"),
                vec![Column::new("src", DataType::Int), Column::new("dst", DataType::Int)],
            ));
            for k in 0..m {
                rel.push(Tuple::new(vec![Value::Int(0), Value::Int(k)])).unwrap();
                rel.push(Tuple::new(vec![Value::Int(k), Value::Int(0)])).unwrap();
            }
            db.add(rel);
        }
        let tag = TagGraph::build(&db);
        let names = ["e0", "e1", "e2"];
        let expected = brute_force_cycles(&db, &names).unwrap();
        let theta = ((3 * 2 * m) as f64).sqrt() as usize;
        let (vanilla, _) = count_cycles(&tag, &names, None, EngineConfig::sequential()).unwrap();
        let (wco, _) = count_cycles(&tag, &names, Some(theta), EngineConfig::sequential()).unwrap();
        assert_eq!(vanilla, expected);
        assert_eq!(wco, expected);
    }
}
