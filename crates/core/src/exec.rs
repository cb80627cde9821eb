//! The TAG-join executor: SQL evaluation as a driven vertex-centric program.
//!
//! The driver realizes the paper's Algorithm 2 on the BSP engine, one
//! superstep per traversal step, in three passes over the `GenSteps` list:
//!
//! 1. **Reduction, bottom-up** — active vertices send their id along edges
//!    with the current step's label; a receiver marks its own edge back to
//!    each sender — one bit per CSR out-edge in its [`St`], the slot found by
//!    binary search in its `(label, target)`-sorted run. Tuple vertices
//!    check their pushed-down filters before forwarding (Section 7 selection
//!    pushdown). By Lemma 5.1 this computes the projection/semijoin sequence
//!    of a Yannakakis-style reducer.
//! 2. **Reduction, top-down** — the reversed list; sends go only along edges
//!    whose bit the bottom-up pass set, and receivers *replace* the bits of
//!    that label's run, so surviving marks are exactly the edges of tuples
//!    in the full join.
//! 3. **Collection, bottom-up** — values (intermediate tables) flow along
//!    marked edges; attribute vertices union incoming tables, tuple vertices
//!    natural-join them with their own (projected) tuple.
//!
//! A final superstep at the plan root assembles output rows, applies residual
//! predicates, and performs aggregation: local aggregation routes partial
//! aggregates to group-key attribute vertices (one extra superstep, whose
//! merged groups leave through the aggregator), global and scalar
//! aggregation fold into the engine's global aggregator — the paper's
//! aggregation vertex.
//!
//! Cartesian products across join-graph components follow Section 6.3's
//! Algorithm B: secondary components are evaluated first, gathered, and
//! shipped to the primary component's root vertices.
//!
//! Cyclic join graphs are handled by breaking the cycle (the demoted
//! predicate is enforced as a residual equality — the Section 6.1.1 PK-FK
//! treatment); the worst-case-optimal cycle program of Sections 6.1–6.2 is an
//! ablation, run by `repro triangle-theta`.

use crate::bind::{all_hold, LoweredCheck, ProjItem, QueryCtx};
use crate::plan::QueryPlan;
use crate::table::{Partial, Table, TagMsg};
use std::ops::ControlFlow;
use std::sync::Arc;
use vcsql_bsp::program::Aggregator;
use vcsql_bsp::{
    Computation, EngineConfig, FaultError, FaultInjector, LabelId, LabelTraffic, Partitioning,
    RunStats, VertexCtx, VertexId, WorkerPool,
};
use vcsql_query::analyze::{lower_subquery, Analyzed, LoweredSubquery};
use vcsql_query::AggClass;
use vcsql_relation::schema::{Column, Schema};
use vcsql_relation::{DataType, FxHashMap, FxHashSet, RelError, Relation, Tuple, Value};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Per-vertex state of the TAG-join program. `Clone` so the engine's
/// fault-tolerance checkpoints can snapshot it.
#[derive(Default, Clone)]
pub struct St {
    /// Reduction marks (Algorithm 2 lines 9/19): bit `i` is set iff the
    /// vertex's `i`-th CSR out-edge is marked. Empty until the first signal.
    marks: Box<[u64]>,
    /// Cached filter verdict for tuple vertices.
    pass: Option<bool>,
}

/// Execution result: the output relation plus the run's communication and
/// computation statistics.
#[derive(Debug)]
pub struct ExecOutput {
    pub relation: Relation,
    pub stats: RunStats,
}

/// The vertex-centric SQL executor over a TAG graph.
pub struct TagJoinExecutor<'t> {
    tag: &'t TagGraph,
    config: EngineConfig,
    partitioning: Option<Arc<Partitioning>>,
    workers: Option<Arc<WorkerPool>>,
    faults: Option<Arc<FaultInjector>>,
}

impl<'t> TagJoinExecutor<'t> {
    /// New executor with the given engine configuration.
    pub fn new(tag: &'t TagGraph, config: EngineConfig) -> Self {
        TagJoinExecutor { tag, config, partitioning: None, workers: None, faults: None }
    }

    /// Arm a fault injector: every computation this executor starts
    /// (subquery runs included — superstep indices are per-computation, but
    /// each fault fires at most once across the whole execution) injects
    /// the plan's faults and checkpoints at the injector's cadence.
    /// Recovered crashes never change results; unabsorbable faults surface
    /// as [`RelError::Fault`], whose `transient` flag tells hosts whether a
    /// retry is worthwhile.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Attach a shared persistent worker pool: every computation this
    /// executor starts (including subquery runs) reuses the same parked
    /// worker threads instead of creating a private pool per query. Hosts
    /// that execute many queries (a `Session`) attach one pool at open.
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.workers = Some(pool);
        self
    }

    /// Attach a simulated machine partitioning (network accounting).
    pub fn with_partitioning(self, p: Partitioning) -> Self {
        self.with_partitioning_shared(Arc::new(p))
    }

    /// [`TagJoinExecutor::with_partitioning`] without copying: callers that
    /// keep one placement across many queries (sessions) share the
    /// allocation instead of cloning the per-vertex assignment per run.
    pub fn with_partitioning_shared(mut self, p: Arc<Partitioning>) -> Self {
        self.partitioning = Some(p);
        self
    }

    /// The attached partitioning, if any (for diagnostics).
    pub fn partitioning(&self) -> Option<&Partitioning> {
        self.partitioning.as_deref()
    }

    /// Parse, analyze, plan and execute a SQL string. One-shot convenience:
    /// callers running a statement more than once should plan it once with
    /// [`QueryPlan::prepare`] and reuse the plan via
    /// [`TagJoinExecutor::execute_plan`] (or hold a `vcsql-session`
    /// `Session`, which caches plans behind a bounded SQL-keyed cache).
    pub fn run_sql(&self, sql: &str) -> Result<ExecOutput> {
        self.execute_plan(&QueryPlan::prepare(sql, self.tag.schemas())?)
    }

    /// Plan and execute an analyzed query.
    pub fn execute(&self, a: &Analyzed) -> Result<ExecOutput> {
        self.execute_plan(&QueryPlan::new(a.clone())?)
    }

    /// Execute a prepared [`QueryPlan`]. The plan is a pure value — executing
    /// it never mutates it, so one plan can serve any number of executions
    /// (and any number of executors over the same schemas).
    pub fn execute_plan(&self, plan: &QueryPlan) -> Result<ExecOutput> {
        let a = plan.analyzed();
        let mut stats = RunStats::default();

        // ---- subqueries (recursive vertex-centric runs) --------------------
        let mut lowered: Vec<LoweredCheck> = Vec::new();
        for sq in &a.subqueries {
            lowered.push(self.eval_subquery(sq, &mut stats)?);
        }

        // ---- bind the plan to this TAG --------------------------------------
        let q = QueryCtx::build(self.tag, plan, &lowered)?;

        // ---- engine ----------------------------------------------------------
        let mut comp: Computation<'_, St, TagMsg> =
            Computation::new(self.tag.graph(), self.config, |_| St::default());
        if let Some(p) = &self.partitioning {
            comp.set_partitioning_shared(Arc::clone(p));
        }
        if let Some(pool) = &self.workers {
            comp.set_worker_pool(Arc::clone(pool));
        }
        if let Some(inj) = &self.faults {
            comp.set_fault_injector(Arc::clone(inj));
            comp.set_state_sizer(st_state_bytes);
        }

        // Order components: primary last.
        let mut order: Vec<usize> = (0..q.plans.len()).collect();
        order.retain(|&i| i != q.primary);
        order.push(q.primary);

        // Secondary components first (Section 6.3 Algorithm B: their results
        // are gathered, combined, and shipped to the primary component's
        // roots). The gather leg is charged per piece: each secondary root's
        // table travels to the gather site, crossing the network when the
        // root lives elsewhere.
        let origin = self.partitioning.as_ref().map(|p| gather_site(&q, &order, self.tag, p));
        let mut secondary: Option<Table> = None;
        let mut gather = LabelTraffic::default();
        for &ci in &order[..order.len() - 1] {
            self.run_traversal(&mut comp, &q, ci)?;
            let pieces = self.gather_component(&mut comp, &q)?;
            for (v, t) in &pieces {
                let (rows, bytes) = (t.len() as u64, t.approx_bytes() as u64);
                gather.messages += rows;
                gather.bytes += bytes;
                if let (Some(p), Some(o)) = (&self.partitioning, origin) {
                    if p.machine_of(*v) as usize != o {
                        gather.network_messages += rows;
                        gather.network_bytes += bytes;
                    }
                }
            }
            let gathered = Table::union(pieces.iter().map(|(_, t)| t))
                .unwrap_or_else(|| Table::empty(q.component_layout(ci)));
            secondary = Some(match secondary {
                None => gathered,
                Some(prev) => prev.natural_join(&gathered), // disjoint keys: cross product
            });
        }
        if let Some(sec) = &secondary {
            let mut traffic = self.cartesian_shipping(&q, sec, origin);
            traffic.add(&gather);
            stats.record_traffic(traffic);
        }

        // Primary component traversal + finish.
        self.run_traversal(&mut comp, &q, q.primary)?;
        let out = self.finish(&mut comp, &q, secondary)?;

        stats.absorb(comp.stats());
        Ok(ExecOutput { relation: out, stats })
    }

    /// Outbound half of the Algorithm B accounting (Section 6.3): every
    /// combined secondary-side row is shipped to every primary root tuple
    /// vertex, as host-side traffic outside any superstep (so it never
    /// inflates round counts). The caller adds the inbound gather leg.
    ///
    /// Without a partitioning the combined table is charged once, as before.
    /// Under a partitioning the shipping is attributed to machines: the
    /// table is assembled at the *gather site* `origin` — the machine
    /// holding the plurality of the secondary components' root tuple
    /// vertices (lowest id on ties, see [`gather_site`]) — and broadcast
    /// once to every machine hosting primary roots, so `bytes` grows by one
    /// table copy per receiving machine and `network_bytes` by one copy per
    /// receiving machine other than the gather site. Message counts stay at
    /// row × root granularity (the paper's communication-cost measure), with
    /// the deliveries to roots off the gather site counted as network
    /// messages.
    fn cartesian_shipping(&self, q: &QueryCtx, sec: &Table, origin: Option<usize>) -> LabelTraffic {
        let graph = self.tag.graph();
        let roots = graph.vertices_with_label(q.rel_label[q.plans[q.primary].root_table()]);
        let rows = sec.len() as u64;
        let bytes = sec.approx_bytes() as u64;
        let mut traffic = LabelTraffic {
            messages: rows * (roots.len() as u64).max(1),
            bytes,
            ..Default::default()
        };
        let (Some(p), Some(origin)) = (&self.partitioning, origin) else { return traffic };

        let mut root_machine = vec![false; p.machines()];
        let mut remote_roots = 0u64;
        for &v in roots {
            let m = p.machine_of(v) as usize;
            root_machine[m] = true;
            if m != origin {
                remote_roots += 1;
            }
        }
        let receiving = root_machine.iter().filter(|&&b| b).count() as u64;
        let remote_machines = receiving - u64::from(root_machine[origin]);
        traffic.bytes = bytes * receiving.max(1);
        traffic.network_messages = rows * remote_roots;
        traffic.network_bytes = bytes * remote_machines;
        traffic
    }

    // ------------------------------------------------------------------ plan

    /// Run the three traversal passes for component `ci`, leaving the
    /// component's root tuple vertices active with pending value tables.
    /// A reduction superstep whose filter evaluation failed ends the phase
    /// with that error.
    ///
    /// The passes are flattened to a descriptor list — one descriptor, one
    /// superstep — and issued as one engine phase, so a recovered crash
    /// re-issues the descriptors from the rewound index and never rolls
    /// back into an earlier phase, whose results already reached the host.
    fn run_traversal(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        ci: usize,
    ) -> Result<()> {
        comp.activate_label(q.start_label(ci));
        let descs = traversal(q, ci)?;
        if descs.is_empty() {
            return Ok(()); // single table: roots are the activated tuples
        }
        comp.run_phase(|comp, i| {
            let d = &descs[i];
            let mut err = match d.pass {
                Pass::Red { down } => self.reduction_step(comp, q, d.cur, d.prev, down),
                Pass::Col => {
                    self.collection_step(comp, q, d.cur, d.prev);
                    FirstError::default()
                }
            };
            if err.0.is_some() || i + 1 == descs.len() {
                ControlFlow::Break(err.check())
            } else {
                ControlFlow::Continue(())
            }
        })
        .map_err(fault_to_rel)?
    }

    /// One reduction superstep (Algorithm 2 lines 7-25), returning the
    /// first filter evaluation that failed.
    fn reduction_step(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        cur: LabelId,
        prev: Option<(LabelId, bool)>,
        down: bool,
    ) -> FirstError {
        let tag = self.tag;
        comp.superstep(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>, err: &mut FirstError| {
            // (a) record marks from the previous step's messages.
            record_marks(ctx, prev);
            // (b) tuple-vertex filter guard (selection pushdown).
            if err.ok(passes_filter(ctx, q, tag)) != Some(true) {
                return;
            }
            // (c) send own id along edges with the current label; top-down
            // sends follow bottom-up marks (line 17).
            let vid = ctx.id();
            send_along_marks(ctx, cur, !down, || TagMsg::Signal(vid));
        })
        .1
    }

    /// One collection superstep (Algorithm 2 lines 28-44).
    fn collection_step(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        cur: LabelId,
        prev: Option<(LabelId, bool)>,
    ) {
        let tag = self.tag;
        comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>| {
            // Signals still in flight from the reduction's last step update
            // marks; tables are collected.
            record_marks(ctx, prev);
            let Some(value) = compute_value(ctx, q, tag) else { return };
            let value = Arc::new(value);
            send_along_marks(ctx, cur, false, || TagMsg::Table(Arc::clone(&value)));
        });
    }

    /// Gather a (secondary) component's result tables from its roots, as
    /// per-root pieces so the caller can attribute the gather traffic to the
    /// machine each piece came from.
    fn gather_component(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
    ) -> Result<Vec<(VertexId, Table)>> {
        let tag = self.tag;
        #[derive(Default)]
        struct Tables {
            pieces: Vec<(VertexId, Table)>,
            err: FirstError,
        }
        impl Aggregator for Tables {
            fn merge(&mut self, mut other: Self) {
                self.pieces.append(&mut other.pieces);
                self.err.merge(other.err);
            }
        }
        let mut gathered =
            single_step(comp, |ctx: &mut VertexCtx<'_, '_, St, TagMsg>, g: &mut Tables| {
                if g.err.ok(passes_filter(ctx, q, tag)) != Some(true) {
                    return;
                }
                if let Some(v) = compute_value(ctx, q, tag) {
                    g.pieces.push((ctx.id(), v));
                }
            })?;
        gathered.err.check()?;
        Ok(gathered.pieces)
    }

    // --------------------------------------------------------------- finish

    /// Final superstep at the primary roots: assemble rows, residuals,
    /// aggregation, output.
    fn finish(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        secondary: Option<Table>,
    ) -> Result<Relation> {
        let tag = self.tag;
        let a = q.analyzed;
        let secondary = secondary.map(Arc::new);

        // Aggregator: NoAgg gathers projected rows; aggregate classes gather
        // partial groups (LA additionally *sends* partials to attribute
        // vertices and only uses this for NULL-key fallback).
        #[derive(Default)]
        struct Fin {
            rows: Vec<Box<[Value]>>,
            groups: FxHashMap<Box<[Value]>, Partial>,
            err: FirstError,
        }
        impl Aggregator for Fin {
            fn merge(&mut self, mut other: Self) {
                self.rows.append(&mut other.rows);
                for (k, p) in other.groups.drain() {
                    merge_group(&mut self.groups, k, p);
                }
                self.err.merge(other.err);
            }
        }

        let mut fin = single_step(comp, |ctx: &mut VertexCtx<'_, '_, St, TagMsg>, g: &mut Fin| {
            if g.err.ok(passes_filter(ctx, q, tag)) != Some(true) {
                return;
            }
            let mut value = match compute_value(ctx, q, tag) {
                Some(v) => v,
                None => return,
            };
            if let Some(sec) = &secondary {
                value = value.natural_join(sec);
            }
            debug_assert_eq!(value.cols, q.final_layout, "unexpected final layout");
            // Residual predicates (cross-table filters, broken cycle
            // equalities, multi-table subquery checks).
            value.retain(|row| g.err.ok(all_hold(&q.residuals, row)) == Some(true));
            if value.is_empty() {
                return;
            }
            match a.agg_class {
                AggClass::NoAgg => {
                    value.for_each_row(|row| {
                        if let Some(out) = g.err.ok(q.project_row(row)) {
                            g.rows.push(out);
                        }
                    });
                }
                _ => {
                    // Partial aggregation per group key.
                    let mut local: FxHashMap<Box<[Value]>, Partial> = FxHashMap::default();
                    value.for_each_row(|row| {
                        let key: Box<[Value]> =
                            q.group_pos.iter().map(|&p| row[p].clone()).collect();
                        let part = local.entry(key).or_insert_with(|| q.fresh_partial(row));
                        g.err.ok(q.update_partial(part, row));
                    });
                    if a.agg_class == AggClass::Local {
                        // Route each group's partial to the group-key
                        // attribute vertex along this root's own edge
                        // (Section 7, local aggregation); NULL keys (or
                        // unmaterialized group columns) fall back to the
                        // global aggregator.
                        for (key, part) in local {
                            let routed = q.la_route.and_then(|label| {
                                if key[0].is_null() {
                                    return None;
                                }
                                ctx.edges_with(label).first().map(|e| (label, e.target))
                            });
                            match routed {
                                Some((label, target)) => ctx.send_along(
                                    label,
                                    target,
                                    TagMsg::Partial(Arc::new((key, part))),
                                ),
                                None => merge_group(&mut g.groups, key, part),
                            }
                        }
                    } else {
                        for (key, part) in local {
                            merge_group(&mut g.groups, key, part);
                        }
                    }
                }
            }
        })?;
        fin.err.check()?;

        // ---- assemble output --------------------------------------------------
        match a.agg_class {
            AggClass::NoAgg => {
                let mut rows: Vec<Box<[Value]>> = fin.rows;
                rows.sort();
                build_output(a, rows.into_iter().map(Vec::from).collect())
            }
            AggClass::Local => {
                // One more superstep: group-key attribute vertices merge the
                // partials they received (each group computed in parallel at
                // its own vertex — the paper's local-aggregation strength)
                // and hand them to the host through the aggregator. Every
                // partial of a key is a message to one vertex, so its fold
                // order is that vertex's message order.
                let la =
                    single_step(comp, |ctx: &mut VertexCtx<'_, '_, St, TagMsg>, g: &mut Fin| {
                        for m in ctx.messages() {
                            if let TagMsg::Partial(kp) = m {
                                merge_group(&mut g.groups, kp.0.clone(), kp.1.clone());
                            }
                        }
                    })?;
                fin.merge(la);
                self.groups_to_output(a, q, fin.groups)
            }
            AggClass::Global | AggClass::Scalar => {
                let mut groups = fin.groups;
                if a.agg_class == AggClass::Scalar && groups.is_empty() {
                    // SQL: aggregates over zero rows still yield one row.
                    let rep: Box<[Value]> = vec![Value::Null; q.final_layout.len()].into();
                    groups.insert(Box::from([]), q.fresh_partial(&rep));
                }
                self.groups_to_output(a, q, groups)
            }
        }
    }

    /// Turn merged groups into the output relation (HAVING + projection).
    fn groups_to_output(
        &self,
        a: &Analyzed,
        q: &QueryCtx,
        groups: FxHashMap<Box<[Value]>, Partial>,
    ) -> Result<Relation> {
        let mut entries: Vec<(Box<[Value]>, Partial)> = groups.into_iter().collect();
        entries.sort_by(|x, y| x.0.cmp(&y.0));
        let mut rows = Vec::with_capacity(entries.len());
        'groups: for (_, part) in entries {
            for (i, h) in a.having.iter().enumerate() {
                let rhs = q.having_rhs[i].eval(&part.rep)?;
                if part.having[i].finish().sql_cmp(&rhs).map(|o| h.op.holds(o)) != Some(true) {
                    continue 'groups;
                }
            }
            let mut out = Vec::with_capacity(q.items.len());
            for (item, acc) in q.items.iter().zip(&part.accs) {
                out.push(match item {
                    ProjItem::Agg { .. } => acc.finish(),
                    other => other.eval(&part.rep)?,
                });
            }
            rows.push(out);
        }
        build_output(a, rows)
    }

    // ------------------------------------------------------------ subqueries

    fn eval_subquery(
        &self,
        sq: &vcsql_query::analyze::SubqueryPred,
        stats: &mut RunStats,
    ) -> Result<LoweredCheck> {
        match lower_subquery(sq) {
            LoweredSubquery::KeySet { sub, outer_cols, negated } => {
                let out = self.execute(&sub)?;
                stats.absorb(&out.stats);
                let keys: FxHashSet<Vec<Value>> =
                    out.relation.tuples.iter().map(|t| t.0.to_vec()).collect();
                Ok(LoweredCheck::KeySet { outer_cols, keys: Arc::new(keys), negated })
            }
            LoweredSubquery::ScalarMap { sub, outer_cols, outer_expr, op, key_arity } => {
                let out = self.execute(&sub)?;
                stats.absorb(&out.stats);
                let mut map = FxHashMap::default();
                for t in &out.relation.tuples {
                    map.insert(t.0[..key_arity].to_vec(), t.0[key_arity].clone());
                }
                Ok(LoweredCheck::ScalarMap { outer_cols, map: Arc::new(map), expr: outer_expr, op })
            }
        }
    }
}

/// The pass a traversal superstep belongs to.
enum Pass {
    Red { down: bool },
    Col,
}

/// One traversal superstep: its pass, the label it sends along, and the
/// label (with replace flag) of the signals it receives.
struct Desc {
    pass: Pass,
    cur: LabelId,
    prev: Option<(LabelId, bool)>,
}

/// Component `ci`'s three passes flattened, one descriptor per superstep:
/// reduction bottom-up, reduction top-down (reversed list; sends follow
/// marks and receivers replace marks), collection bottom-up.
fn traversal(q: &QueryCtx, ci: usize) -> Result<Vec<Desc>> {
    let steps = &q.steps[ci];
    let mut descs: Vec<Desc> = Vec::with_capacity(3 * steps.len());
    let mut prev: Option<(LabelId, bool)> = None;
    for s in steps {
        let cur = q.label(*s)?;
        descs.push(Desc { pass: Pass::Red { down: false }, cur, prev });
        prev = Some((cur, false));
    }
    for s in steps.iter().rev() {
        let cur = q.label(*s)?;
        descs.push(Desc { pass: Pass::Red { down: true }, cur, prev });
        prev = Some((cur, true));
    }
    for s in steps {
        let cur = q.label(*s)?;
        descs.push(Desc { pass: Pass::Col, cur, prev });
        prev = Some((cur, true));
    }
    Ok(descs)
}

// ---------------------------------------------------------------------------
// Vertex-side helpers (free functions so closures stay lean)
// ---------------------------------------------------------------------------

/// A one-superstep phase. Its aggregate leaves the engine the moment it
/// returns, so it is its own unit of recovery: a crash here is absorbed
/// before the value exists.
fn single_step<G, F>(comp: &mut Computation<'_, St, TagMsg>, compute: F) -> Result<G>
where
    G: Aggregator,
    F: for<'x, 'y> Fn(&mut VertexCtx<'x, 'y, St, TagMsg>, &mut G) + Sync,
{
    comp.run_phase(|comp, _| ControlFlow::Break(comp.superstep(&compute).1)).map_err(fault_to_rel)
}

/// Map an engine fault to the executor's error type; retry-worthiness
/// travels in the variant, so hosts (the server's retry loop) match on it.
fn fault_to_rel(e: FaultError) -> RelError {
    RelError::Fault { transient: e.is_transient(), message: e.to_string() }
}

/// The first expression error a superstep met, in vertex-id order: workers
/// hold contiguous chunks of the sorted active list and merge in worker
/// order, so every thread count reports the same error.
#[derive(Default)]
struct FirstError(Option<RelError>);

impl FirstError {
    /// `r`'s value, or `None` with its error kept if it is the first.
    fn ok<T>(&mut self, r: Result<T>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.0.get_or_insert(e);
                None
            }
        }
    }

    /// The kept error, if any.
    fn check(&mut self) -> Result<()> {
        self.0.take().map_or(Ok(()), Err)
    }
}

impl Aggregator for FirstError {
    fn merge(&mut self, other: Self) {
        if self.0.is_none() {
            self.0 = other.0;
        }
    }
}

/// Checkpoint size of one vertex's [`St`] in bytes, in the 8-byte words of
/// `TagMsg::byte_size`'s wire model: a header word, the mark bitmap's words
/// and a word for a cached filter verdict.
fn st_state_bytes(st: &St) -> u64 {
    8 * (1 + st.marks.len() as u64 + u64::from(st.pass.is_some()))
}

/// Whether out-edge slot `i` carries a reduction mark.
fn marked(marks: &[u64], i: usize) -> bool {
    marks.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// Record reduction marks from incoming signals: union during bottom-up,
/// replace during top-down (Algorithm 2 lines 9 and 19). A signal marks the
/// receiver's own edge back to its sender, found by binary search in the
/// receiver's `label` run (CSR ranges are `(label, target)`-sorted).
fn record_marks(ctx: &mut VertexCtx<'_, '_, St, TagMsg>, prev: Option<(LabelId, bool)>) {
    let Some((label, replace)) = prev else { return };
    let edges = ctx.edges();
    let run = ctx.graph().label_range(ctx.id(), label);
    let mut clear = replace;
    for m in ctx.messages() {
        let TagMsg::Signal(from) = m else { continue };
        let marks = &mut ctx.state.marks;
        if marks.is_empty() {
            *marks = vec![0; edges.len().div_ceil(64)].into();
        }
        if std::mem::take(&mut clear) {
            for i in run.clone() {
                marks[i / 64] &= !(1 << (i % 64));
            }
        }
        // TAG edges are undirected with one label (footnote 3), so every
        // sender sits in the receiver's run.
        let slot = edges[run.clone()].binary_search_by_key(from, |e| e.target);
        debug_assert!(slot.is_ok(), "signal from {from} travelled no edge labelled {label:?}");
        if let Ok(i) = slot.map(|i| run.start + i) {
            marks[i / 64] |= 1 << (i % 64);
        }
    }
}

/// Send `msg()` along this vertex's `label` edges: every one when `all`,
/// else only the marked ones.
fn send_along_marks(
    ctx: &mut VertexCtx<'_, '_, St, TagMsg>,
    label: LabelId,
    all: bool,
    msg: impl Fn() -> TagMsg,
) {
    let edges = ctx.edges();
    for i in ctx.graph().label_range(ctx.id(), label) {
        if all || marked(&ctx.state.marks, i) {
            ctx.send_along(label, edges[i].target, msg());
        }
    }
}

/// Tuple-vertex filter check with caching; attribute vertices always pass.
fn passes_filter(
    ctx: &mut VertexCtx<'_, '_, St, TagMsg>,
    q: &QueryCtx,
    tag: &TagGraph,
) -> Result<bool> {
    if let Some(p) = ctx.state.pass {
        return Ok(p);
    }
    let verdict = match q.table_of_label.get(&ctx.label()) {
        Some(&t) => match tag.tuple(ctx.id()) {
            Some(tuple) => q.filters[t].passes(tuple)?,
            None => true,
        },
        None => true, // attribute vertex (or unrelated relation)
    };
    ctx.state.pass = Some(verdict);
    Ok(verdict)
}

/// Collection-phase value at a vertex: union of incoming tables, joined with
/// the vertex's own (projected) tuple when it is a tuple vertex.
fn compute_value(
    ctx: &mut VertexCtx<'_, '_, St, TagMsg>,
    q: &QueryCtx,
    tag: &TagGraph,
) -> Option<Table> {
    let mut incoming: Vec<&Table> = Vec::new();
    for m in ctx.messages() {
        if let TagMsg::Table(t) = m {
            incoming.push(t);
        }
    }
    let unioned = Table::union(incoming.iter().copied());
    match q.table_of_label.get(&ctx.label()) {
        Some(&t) => {
            let own = q.own_row(t, tag.tuple(ctx.id())?)?;
            Some(match unioned {
                Some(u) => u.natural_join(&own),
                None => own,
            })
        }
        None => unioned,
    }
}

/// The Algorithm B gather site: the machine holding the plurality of the
/// secondary components' root tuple vertices (lowest machine id on ties) —
/// the natural place to assemble the combined secondary result before
/// broadcasting it to the primary roots.
fn gather_site(q: &QueryCtx, order: &[usize], tag: &TagGraph, p: &Partitioning) -> usize {
    let mut tally = vec![0u64; p.machines()];
    for &ci in &order[..order.len() - 1] {
        for &v in tag.graph().vertices_with_label(q.rel_label[q.plans[ci].root_table()]) {
            tally[p.machine_of(v) as usize] += 1;
        }
    }
    let mut origin = 0usize;
    for (m, &c) in tally.iter().enumerate() {
        if c > tally[origin] {
            origin = m;
        }
    }
    origin
}

fn merge_group(groups: &mut FxHashMap<Box<[Value]>, Partial>, key: Box<[Value]>, p: Partial) {
    match groups.entry(key) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            let g = e.get_mut();
            for (a, b) in g.accs.iter_mut().zip(&p.accs) {
                let _ = a.merge(b);
            }
            for (a, b) in g.having.iter_mut().zip(&p.having) {
                let _ = a.merge(b);
            }
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(p);
        }
    }
}

/// Build the output relation, inferring column types from the first non-NULL
/// value per column.
fn build_output(a: &Analyzed, rows: Vec<Vec<Value>>) -> Result<Relation> {
    let names = a.output_names();
    let mut types = Vec::with_capacity(names.len());
    for i in 0..names.len() {
        types.push(rows.iter().filter_map(|r| r[i].data_type()).next().unwrap_or(DataType::Int));
    }
    let schema = Schema::new(
        "result",
        names.iter().zip(&types).map(|(n, t)| Column::new(n.clone(), *t)).collect(),
    );
    let mut rel = Relation::empty(schema);
    for r in rows {
        rel.push(Tuple::new(r))?;
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_bsp::GraphBuilder;
    use vcsql_relation::Database;

    /// `R(a) ⋈ S(a, b) ⋈ T(b)`: `R(5)`, `S(4, 40)` and `T(70)` dangle at
    /// one end or the other, `S(2, 60)` finds no `T`, and `S(3, 30)` would
    /// join `R(3)` and `T(30)` but for the pushed-down `s.b <> 30`.
    fn chain() -> Database {
        let int = |name: &str| Column::new(name, DataType::Int);
        let rel = |name: &str, cols: Vec<Column>, rows: &[&[i64]]| {
            let rows = rows.iter().map(|r| Tuple::new(r.iter().map(|&v| Value::Int(v)).collect()));
            Relation::from_tuples(Schema::new(name, cols), rows.collect()).unwrap()
        };
        let mut db = Database::new();
        db.add(rel("r", vec![int("a")], &[&[1], &[2], &[3], &[5]]));
        db.add(rel(
            "s",
            vec![int("a"), int("b")],
            &[&[1, 10], &[2, 20], &[3, 30], &[4, 40], &[2, 60]],
        ));
        db.add(rel("t", vec![int("b")], &[&[10], &[20], &[30], &[70]]));
        db
    }

    /// Lemma 5.1 on the bitmap: after both reduction passes, every vertex
    /// that sends along a `GenSteps` label in the collection pass has a bit
    /// set on exactly the edges whose tuple endpoint occurs in the full,
    /// unprojected join.
    #[test]
    fn reduction_marks_exactly_the_edges_of_full_join_tuples() {
        let db = chain();
        let tag = TagGraph::build(&db);
        let g = tag.graph();
        let sql = "SELECT r.a, t.b FROM r, s, t WHERE r.a = s.a AND s.b = t.b AND s.b <> 30";
        let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
        let q = QueryCtx::build(&tag, &plan, &[]).unwrap();
        let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());
        let mut comp = Computation::new(g, exec.config, |_| St::default());

        // The two reduction passes, then a superstep that only records the
        // top-down pass's last signals (the collection pass's first step
        // would record them too).
        let ci = q.primary;
        comp.activate_label(q.start_label(ci));
        let descs = traversal(&q, ci).unwrap();
        let mut in_flight = None;
        for d in &descs {
            let Pass::Red { down } = d.pass else {
                in_flight = d.prev;
                break;
            };
            assert!(exec.reduction_step(&mut comp, &q, d.cur, d.prev, down).0.is_none());
        }
        comp.superstep_simple(|ctx| record_marks(ctx, in_flight));

        let tuples = |name: &str| g.vertices_with_label(tag.relation_label(name).unwrap());
        let mut in_join = FxHashSet::default();
        for &r in tuples("r") {
            for &s in tuples("s") {
                for &t in tuples("t") {
                    let [r_, s_, t_] = [r, s, t].map(|v| tag.tuple(v).unwrap());
                    if r_[0] == s_[0] && s_[1] == t_[0] && s_[1] != Value::Int(30) {
                        in_join.extend([r, s, t]);
                    }
                }
            }
        }
        assert_eq!(in_join.len(), 6, "R(1) S(1, 10) T(10) and R(2) S(2, 20) T(20)");

        // Steps alternate tuple → attribute → tuple, starting from tuples.
        let mut checked = 0;
        for (j, step) in q.steps[ci].iter().enumerate() {
            let label = q.label(*step).unwrap();
            for v in g.vertices().filter(|&v| tag.is_tuple_vertex(v) == (j % 2 == 0)) {
                let marks = &comp.states()[v as usize].marks;
                for i in g.label_range(v, label) {
                    let target = g.out_edges(v)[i].target;
                    let tuple = if tag.is_tuple_vertex(v) { v } else { target };
                    let want = in_join.contains(&tuple);
                    assert_eq!(marked(marks, i), want, "step {j}: edge {v} -> {target}");
                    checked += usize::from(want);
                }
            }
        }
        assert_eq!(checked, 2 * q.steps[ci].len(), "two join paths per step");
    }

    /// A checkpoint copies a header word, the bitmap's words and a word for
    /// a cached verdict: 8 bytes fresh, 24 for a 70-edge vertex once marked
    /// (two words), 32 with its verdict cached.
    #[test]
    fn st_state_bytes_prices_header_bitmap_words_and_verdict() {
        let mut b = GraphBuilder::new();
        let vl = b.vertex_label("v");
        let label = b.edge_label("hub.spoke");
        let hub = b.add_vertex(vl);
        for _ in 0..70 {
            let spoke = b.add_vertex(vl);
            b.add_undirected_edge(hub, spoke, label);
        }
        let g = b.finish();
        let mut comp: Computation<'_, St, TagMsg> =
            Computation::new(&g, EngineConfig::sequential(), |_| St::default());
        assert_eq!(st_state_bytes(&comp.states()[hub as usize]), 8);

        comp.activate([70]);
        comp.superstep_simple(|ctx| ctx.send_along(label, hub, TagMsg::Signal(ctx.id())));
        comp.superstep_simple(|ctx| record_marks(ctx, Some((label, false))));
        let st = &comp.states()[hub as usize];
        let set: Vec<usize> = (0..70).filter(|&i| marked(&st.marks, i)).collect();
        assert_eq!(set, [69], "the last spoke sits in the second word's slot 5");
        assert_eq!(st_state_bytes(st), 24);
        assert_eq!(st_state_bytes(&St { pass: Some(true), ..st.clone() }), 32);
    }
}
