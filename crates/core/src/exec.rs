//! The TAG-join executor: SQL evaluation as a driven vertex-centric program.
//!
//! The driver realizes the paper's Algorithm 2 on the BSP engine, one
//! superstep per traversal step, in three passes over the `GenSteps` list:
//!
//! 1. **Reduction, bottom-up** — active vertices send their id along edges
//!    with the current step's label; receivers mark the sender edges. Tuple
//!    vertices check their pushed-down filters before forwarding (Section 7
//!    selection pushdown). By Lemma 5.1 this computes the projection/semijoin
//!    sequence of a Yannakakis-style reducer.
//! 2. **Reduction, top-down** — the reversed list; sends go only along edges
//!    marked by the bottom-up pass, and receivers *replace* their marks, so
//!    surviving marks are exactly the edges on join-result paths.
//! 3. **Collection, bottom-up** — values (intermediate tables) flow along
//!    marked edges; attribute vertices union incoming tables, tuple vertices
//!    natural-join them with their own (projected) tuple.
//!
//! A final superstep at the plan root assembles output rows, applies residual
//! predicates, and performs aggregation: local aggregation routes partial
//! aggregates to group-key attribute vertices (one extra superstep), global
//! and scalar aggregation fold into the engine's global aggregator — the
//! paper's aggregation vertex.
//!
//! Cartesian products across join-graph components follow Section 6.3's
//! Algorithm B: secondary components are evaluated first, gathered, and
//! shipped to the primary component's root vertices.
//!
//! Cyclic join graphs are handled by breaking the cycle (the demoted
//! predicate is enforced as a residual equality — the Section 6.1.1 PK-FK
//! treatment); the dedicated worst-case-optimal cycle programs live in
//! [`crate::cyclic`].

use crate::plan::QueryPlan;
use crate::table::{ColKey, Partial, Table, TagMsg};
use std::sync::Arc;
use vcsql_bsp::program::Aggregator;
use vcsql_bsp::{
    Computation, EngineConfig, FaultError, FaultInjector, LabelId, LabelTraffic, PartitionStrategy,
    Partitioning, RunStats, VertexCtx, VertexId, WorkerPool,
};
use vcsql_query::analyze::{lower_subquery, Analyzed, LoweredSubquery, OutputItem};
use vcsql_query::tagplan::{Step, TagPlan};
use vcsql_query::AggClass;
use vcsql_relation::agg::{Accumulator, AggFunc};
use vcsql_relation::expr::{BoundExpr, CmpOp, ColRef, Expr};
use vcsql_relation::schema::{Column, Schema};
use vcsql_relation::{DataType, FxHashMap, FxHashSet, RelError, Relation, Tuple, Value};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Per-vertex state of the TAG-join program. `Clone` so the engine's
/// fault-tolerance checkpoints can snapshot it.
#[derive(Default, Clone)]
pub struct St {
    /// Marked edges per label: the witnesses recorded during reduction
    /// (Algorithm 2 line 9/19).
    marked: FxHashMap<LabelId, FxHashSet<VertexId>>,
    /// Cached filter verdict for tuple vertices.
    pass: Option<bool>,
    /// Local-aggregation state at group-key attribute vertices.
    la: Option<FxHashMap<Box<[Value]>, Partial>>,
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

    /// Attach a partitioning built by `strategy` over `machines` simulated
    /// machines. The TAG's attribute vertices are the anchors of the
    /// locality-aware strategies (tuple vertices co-locate with them);
    /// network accounting is the only effect — results never change.
    pub fn with_partition_strategy(self, strategy: &PartitionStrategy, machines: usize) -> Self {
        let tag = self.tag;
        let p = strategy.partition(tag.graph(), machines, &|v| !tag.is_tuple_vertex(v));
        self.with_partitioning(p)
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
    ///
    /// The passes are flattened to a descriptor list and driven by a
    /// *rewindable* loop: when an injected crash rolls the engine back to a
    /// checkpoint, [`Computation::take_replay`] hands back the superstep to
    /// resume from and the loop re-issues the corresponding descriptors —
    /// the engine's determinism makes the replay bit-identical. A forced
    /// checkpoint at the phase start pins the earliest possible rollback to
    /// this traversal (earlier phases' effects already escaped to the host
    /// and could not be replayed).
    fn run_traversal(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        ci: usize,
    ) -> Result<()> {
        let plan = &q.plans[ci];
        comp.activate_label(q.start_label(ci));
        if plan.is_empty() {
            return Ok(()); // single table: roots are the activated tuples
        }
        let steps = q.steps[ci].clone();

        // Flatten the three passes: reduction bottom-up, reduction top-down
        // (reversed list; sends follow marks and receivers replace marks),
        // collection bottom-up. One descriptor = one superstep.
        enum Pass {
            Red { down: bool },
            Col,
        }
        struct Desc {
            pass: Pass,
            cur: LabelId,
            prev: Option<(LabelId, bool)>,
        }
        let mut descs: Vec<Desc> = Vec::with_capacity(3 * steps.len());
        let mut prev: Option<(LabelId, bool)> = None;
        for s in &steps {
            let cur = q.label(*s)?;
            descs.push(Desc { pass: Pass::Red { down: false }, cur, prev });
            prev = Some((cur, false));
        }
        for s in steps.iter().rev() {
            let cur = q.label(*s)?;
            descs.push(Desc { pass: Pass::Red { down: true }, cur, prev });
            prev = Some((cur, true));
        }
        for s in &steps {
            let cur = q.label(*s)?;
            descs.push(Desc { pass: Pass::Col, cur, prev });
            prev = Some((cur, true));
        }

        comp.checkpoint_now();
        let base = comp.stats().supersteps;
        let mut i = 0usize;
        while i < descs.len() {
            let d = &descs[i];
            match d.pass {
                Pass::Red { down } => self.reduction_step(comp, q, d.cur, d.prev, down),
                Pass::Col => self.collection_step(comp, q, d.cur, d.prev),
            }
            if let Some(from) = comp.take_replay() {
                debug_assert!(from >= base, "rollback past the phase-start checkpoint");
                i = (from - base) as usize;
                continue;
            }
            if let Some(e) = comp.take_fault_error() {
                return Err(fault_to_rel(e));
            }
            i += 1;
        }
        Ok(())
    }

    /// One reduction superstep (Algorithm 2 lines 7-25).
    fn reduction_step(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        cur: LabelId,
        prev: Option<(LabelId, bool)>,
        down: bool,
    ) {
        let tag = self.tag;
        comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>| {
            // (a) record marks from the previous step's messages.
            record_marks(ctx, prev);
            // (b) tuple-vertex filter guard (selection pushdown).
            if !passes_filter(ctx, q, tag) {
                return;
            }
            // (c) send own id along edges with the current label; top-down
            // sends follow bottom-up marks (line 17).
            let vid = ctx.id();
            let targets: Vec<VertexId> = {
                let edges = ctx.edges_with(cur);
                if down {
                    let marked = ctx.state.marked.get(&cur);
                    edges
                        .iter()
                        .filter(|e| marked.is_some_and(|m| m.contains(&e.target)))
                        .map(|e| e.target)
                        .collect()
                } else {
                    edges.iter().map(|e| e.target).collect()
                }
            };
            for t in targets {
                ctx.send_along(cur, t, TagMsg::Signal(vid));
            }
        });
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
            let value = match compute_value(ctx, q, tag) {
                Some(v) => v,
                None => return,
            };
            let marked = match ctx.state.marked.get(&cur) {
                Some(m) if !m.is_empty() => m.clone(),
                _ => return,
            };
            let value = Arc::new(value);
            let targets: Vec<VertexId> = ctx
                .edges_with(cur)
                .iter()
                .filter(|e| marked.contains(&e.target))
                .map(|e| e.target)
                .collect();
            for t in targets {
                ctx.send_along(cur, t, TagMsg::Table(Arc::clone(&value)));
            }
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
        struct Tables(Vec<(VertexId, Table)>);
        impl Aggregator for Tables {
            fn merge(&mut self, mut other: Self) {
                self.0.append(&mut other.0);
            }
        }
        // Aggregator superstep: its value escapes the engine the moment it
        // returns, so force a checkpoint — a crash here is then recovered
        // within the call and the gathered tables are valid.
        comp.checkpoint_now();
        let (_, gathered) =
            comp.superstep(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>, g: &mut Tables| {
                record_marks(ctx, None);
                if !passes_filter(ctx, q, tag) {
                    return;
                }
                if let Some(v) = compute_value(ctx, q, tag) {
                    g.0.push((ctx.id(), v));
                }
            });
        debug_assert!(comp.take_replay().is_none(), "forced checkpoint precludes replay");
        if let Some(e) = comp.take_fault_error() {
            return Err(fault_to_rel(e));
        }
        Ok(gathered.0)
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
        }
        impl Aggregator for Fin {
            fn merge(&mut self, mut other: Self) {
                self.rows.append(&mut other.rows);
                for (k, p) in other.groups.drain() {
                    merge_group(&mut self.groups, k, p);
                }
            }
        }

        // Aggregator superstep (see `gather_component`): force a checkpoint
        // so a crash here recovers in-call and `fin` is valid.
        comp.checkpoint_now();
        let (_, fin) = comp.superstep(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>, g: &mut Fin| {
            record_marks(ctx, None);
            if !passes_filter(ctx, q, tag) {
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
            value.retain(|row| q.residuals.iter().all(|r| r.check(row).unwrap_or(false)));
            if value.is_empty() {
                return;
            }
            match a.agg_class {
                AggClass::NoAgg => {
                    value.for_each_row(|row| {
                        if let Ok(out) = q.project_row(row) {
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
                        let _ = q.update_partial(part, row);
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
        });
        debug_assert!(comp.take_replay().is_none(), "forced checkpoint precludes replay");
        if let Some(e) = comp.take_fault_error() {
            return Err(fault_to_rel(e));
        }

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
                // its own vertex — the paper's local-aggregation strength).
                let la_attrs: Vec<VertexId> = comp.active().to_vec();
                // The merged `la` states are read from the host right after
                // this superstep: checkpoint so a crash recovers in-call.
                comp.checkpoint_now();
                comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>| {
                    let mut received: Vec<(Box<[Value]>, Partial)> = Vec::new();
                    for m in ctx.messages() {
                        if let TagMsg::Partial(kp) = m {
                            received.push((kp.0.clone(), kp.1.clone()));
                        }
                    }
                    if received.is_empty() {
                        return;
                    }
                    let la = ctx.state.la.get_or_insert_with(FxHashMap::default);
                    for (k, p) in received {
                        merge_group(la, k, p);
                    }
                });
                debug_assert!(comp.take_replay().is_none(), "forced checkpoint precludes replay");
                if let Some(e) = comp.take_fault_error() {
                    return Err(fault_to_rel(e));
                }
                let mut groups = fin.groups;
                for v in la_attrs {
                    if let Some(map) = &comp.state(v).la {
                        for (k, p) in map {
                            merge_group(&mut groups, k.clone(), p.clone());
                        }
                    }
                }
                self.groups_to_output(a, q, groups)
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

// ---------------------------------------------------------------------------
// Vertex-side helpers (free functions so closures stay lean)
// ---------------------------------------------------------------------------

/// Map an engine fault to the executor's error type; retry-worthiness
/// travels in the variant, so hosts (the server's retry loop) match on it.
fn fault_to_rel(e: FaultError) -> RelError {
    RelError::Fault { transient: e.is_transient(), message: e.to_string() }
}

/// Checkpoint size of one vertex's [`St`] in bytes, mirroring the wire
/// model of `TagMsg::byte_size` (8-byte words, 16 per value, 24 per
/// accumulator): marks are 8 bytes per witness edge plus a word per label
/// entry, cached filter verdicts a word, local-aggregation groups the same
/// price as a shipped `TagMsg::Partial`.
fn st_state_bytes(st: &St) -> u64 {
    let mut bytes = 8; // fixed per-vertex header word
    for marks in st.marked.values() {
        bytes += 8 + 8 * marks.len() as u64;
    }
    if st.pass.is_some() {
        bytes += 8;
    }
    if let Some(la) = &st.la {
        for (key, p) in la {
            bytes += 32
                + key.len() as u64 * 16
                + p.accs.len() as u64 * 24
                + p.having.len() as u64 * 24
                + p.rep.len() as u64 * 16;
        }
    }
    bytes
}

/// Record reduction marks from incoming signals: union during bottom-up,
/// replace during top-down (Algorithm 2 lines 9 and 19).
fn record_marks(ctx: &mut VertexCtx<'_, '_, St, TagMsg>, prev: Option<(LabelId, bool)>) {
    let Some((label, replace)) = prev else { return };
    let mut senders: Option<FxHashSet<VertexId>> = None;
    for m in ctx.messages() {
        if let TagMsg::Signal(from) = m {
            senders.get_or_insert_with(FxHashSet::default).insert(*from);
        }
    }
    if let Some(s) = senders {
        let entry = ctx.state.marked.entry(label).or_default();
        if replace {
            *entry = s;
        } else {
            entry.extend(s);
        }
    }
}

/// Tuple-vertex filter check with caching; attribute vertices always pass.
fn passes_filter(ctx: &mut VertexCtx<'_, '_, St, TagMsg>, q: &QueryCtx, tag: &TagGraph) -> bool {
    if let Some(p) = ctx.state.pass {
        return p;
    }
    let verdict = match q.table_of_label.get(&ctx.label()) {
        Some(&t) => match tag.tuple(ctx.id()) {
            Some(tuple) => q.filters[t].passes(&tuple.0),
            None => true,
        },
        None => true, // attribute vertex (or unrelated relation)
    };
    ctx.state.pass = Some(verdict);
    verdict
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

// ---------------------------------------------------------------------------
// Query context: everything the supersteps need, precomputed once
// ---------------------------------------------------------------------------

/// Residual checks applied to final rows.
enum ResCheck {
    Expr(BoundExpr),
    /// Broken-cycle equality between two layout positions.
    Eq(usize, usize),
    KeySet {
        pos: Vec<usize>,
        keys: Arc<FxHashSet<Vec<Value>>>,
        negated: bool,
    },
    ScalarMap {
        pos: Vec<usize>,
        map: Arc<FxHashMap<Vec<Value>, Value>>,
        expr: BoundExpr,
        op: CmpOp,
    },
}

impl ResCheck {
    fn check(&self, row: &[Value]) -> Result<bool> {
        Ok(match self {
            ResCheck::Expr(e) => e.passes(row)?,
            ResCheck::Eq(a, b) => row[*a].sql_eq(&row[*b]) == Some(true),
            ResCheck::KeySet { pos, keys, negated } => {
                let mut key = Vec::with_capacity(pos.len());
                for &p in pos {
                    if row[p].is_null() {
                        return Ok(*negated);
                    }
                    key.push(row[p].clone());
                }
                keys.contains(&key) != *negated
            }
            ResCheck::ScalarMap { pos, map, expr, op } => {
                let key: Vec<Value> = pos.iter().map(|&p| row[p].clone()).collect();
                match map.get(&key) {
                    Some(rhs) => expr.eval(row)?.sql_cmp(rhs).map(|o| op.holds(o)) == Some(true),
                    None => false,
                }
            }
        })
    }
}

/// Subquery results lowered for this executor.
enum LoweredCheck {
    KeySet {
        outer_cols: Vec<(usize, usize)>,
        keys: Arc<FxHashSet<Vec<Value>>>,
        negated: bool,
    },
    ScalarMap {
        outer_cols: Vec<(usize, usize)>,
        map: Arc<FxHashMap<Vec<Value>, Value>>,
        expr: Expr,
        op: CmpOp,
    },
}

/// A bound output item.
enum ProjItem {
    Col(usize),
    Expr(BoundExpr),
    Agg { func: AggFunc, arg: Option<BoundExpr> },
}

impl ProjItem {
    fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            ProjItem::Col(p) => Ok(row[*p].clone()),
            ProjItem::Expr(e) => e.eval(row),
            ProjItem::Agg { .. } => Err(RelError::Other("aggregate outside grouping".into())),
        }
    }
}

/// Per-table filters folded to tuple-vertex checks.
struct TupleFilter {
    exprs: Vec<BoundExpr>,
    checks: Vec<ResCheck>,
}

impl TupleFilter {
    fn passes(&self, row: &[Value]) -> bool {
        self.exprs.iter().all(|e| e.passes(row).unwrap_or(false))
            && self.checks.iter().all(|c| c.check(row).unwrap_or(false))
    }
}

/// Precomputed execution context.
struct QueryCtx<'a> {
    analyzed: &'a Analyzed,
    /// Vertex label of each table's relation → table index.
    table_of_label: FxHashMap<LabelId, usize>,
    /// Relation vertex labels per table.
    rel_label: Vec<LabelId>,
    /// Per-table tuple filters (over schema row layout).
    filters: Vec<TupleFilter>,
    /// Per-table own-row spec: (output key, schema column); keys sorted.
    own_specs: Vec<Vec<(ColKey, usize)>>,
    /// One TAG plan per component (borrowed from the prepared plan).
    plans: &'a [TagPlan],
    steps: &'a [Vec<Step>],
    /// Component whose roots assemble the final result.
    primary: usize,
    /// Component index by table.
    component_of: &'a [usize],
    /// The (sorted) final layout of value tables at the primary roots.
    final_layout: Vec<ColKey>,
    /// Residual checks bound to the final layout.
    residuals: Vec<ResCheck>,
    /// Output items bound to the final layout.
    items: Vec<ProjItem>,
    /// Positions of group-by keys in the final layout.
    group_pos: Vec<usize>,
    /// HAVING argument expressions (bound) and rhs expressions (bound).
    having_args: Vec<Option<BoundExpr>>,
    having_rhs: Vec<BoundExpr>,
    /// Edge label routing local-aggregation partials from the primary root
    /// to the group-key attribute vertex.
    la_route: Option<LabelId>,
    /// Edge LabelIds per traversal step (table, col).
    step_labels: FxHashMap<(usize, usize), LabelId>,
}

impl<'a> QueryCtx<'a> {
    fn build(
        tag: &TagGraph,
        plan: &'a QueryPlan,
        lowered: &[LoweredCheck],
    ) -> Result<QueryCtx<'a>> {
        let a = plan.analyzed();
        let dec = &plan.dec;
        let n = a.tables.len();

        // var_of as u32 keys.
        let mut var_of: FxHashMap<(usize, usize), u32> = FxHashMap::default();
        for (k, v) in &dec.var_of {
            var_of.insert(*k, *v as u32);
        }

        // ---- needed columns per table --------------------------------------
        let mut needed: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); n];
        let note_col = |needed: &mut Vec<FxHashSet<usize>>, t: usize, c: usize| {
            needed[t].insert(c);
        };
        let note_expr = |needed: &mut Vec<FxHashSet<usize>>, e: &Expr| -> Result<()> {
            let mut cols = Vec::new();
            e.columns(&mut cols);
            for c in cols {
                let (t, col) = a.resolve(&c)?;
                needed[t].insert(col);
            }
            Ok(())
        };
        for item in &a.items {
            match item {
                OutputItem::Col { table, col, .. } => note_col(&mut needed, *table, *col),
                OutputItem::Expr { expr, .. } => note_expr(&mut needed, expr)?,
                OutputItem::Agg { arg: Some(e), .. } => note_expr(&mut needed, e)?,
                OutputItem::Agg { arg: None, .. } => {}
            }
        }
        for &(t, c) in &a.group_by {
            note_col(&mut needed, t, c);
        }
        for e in &a.residual {
            note_expr(&mut needed, e)?;
        }
        for h in &a.having {
            if let Some(e) = &h.arg {
                note_expr(&mut needed, e)?;
            }
            note_expr(&mut needed, &h.rhs)?;
        }
        for j in &dec.broken {
            note_col(&mut needed, j.left.0, j.left.1);
            note_col(&mut needed, j.right.0, j.right.1);
        }
        for l in lowered {
            match l {
                LoweredCheck::KeySet { outer_cols, .. } => {
                    for &(t, c) in outer_cols {
                        note_col(&mut needed, t, c);
                    }
                }
                LoweredCheck::ScalarMap { outer_cols, expr, .. } => {
                    for &(t, c) in outer_cols {
                        note_col(&mut needed, t, c);
                    }
                    note_expr(&mut needed, expr)?;
                }
            }
        }

        // ---- own-row specs ----------------------------------------------------
        // A table's value row carries: a Var key for each join variable
        // occurring in it, plus Plain keys for needed non-join columns.
        let mut own_specs: Vec<Vec<(ColKey, usize)>> = Vec::with_capacity(n);
        for (t, needed_cols) in needed.iter().enumerate() {
            let mut spec: Vec<(ColKey, usize)> = Vec::new();
            // Every occurrence of a variable in this table is listed: when a
            // variable occurs in several columns of one tuple (equalities
            // merged by transitivity), `own_row` rejects tuples whose values
            // disagree — the implied intra-tuple equality.
            for v in &dec.vars {
                for &(tt, c) in &v.occurrences {
                    let entry = (ColKey::Var(v.id as u32), c);
                    if tt == t && !spec.contains(&entry) {
                        spec.push(entry);
                    }
                }
            }
            for &c in needed_cols {
                if !var_of.contains_key(&(t, c)) {
                    spec.push((ColKey::Col { table: t as u16, col: c as u16 }, c));
                }
            }
            spec.sort_by_key(|&(k, _)| k);
            own_specs.push(spec);
        }

        // Which single table (if any) each lowered subquery check can be
        // pushed to: all its outer columns and, for scalar comparisons, all
        // columns of the compared expression must live on one table.
        let mut fold_table: Vec<Option<usize>> = Vec::with_capacity(lowered.len());
        for l in lowered {
            let fold = match l {
                LoweredCheck::KeySet { outer_cols, .. } => {
                    single_table(outer_cols.iter().map(|&(t, _)| t))
                }
                LoweredCheck::ScalarMap { outer_cols, expr, .. } => {
                    let mut cols = Vec::new();
                    expr.columns(&mut cols);
                    let mut tables: Vec<usize> = outer_cols.iter().map(|&(t, _)| t).collect();
                    for c in &cols {
                        tables.push(a.resolve(c)?.0);
                    }
                    single_table(tables.into_iter())
                }
            };
            fold_table.push(fold);
        }

        // ---- filters ------------------------------------------------------------
        let mut filters = Vec::with_capacity(n);
        for (t, binding) in a.tables.iter().enumerate() {
            let bind_schema = |e: &Expr| -> Result<BoundExpr> {
                e.bind(&|c: &ColRef| {
                    let (tt, cc) = a.resolve(c)?;
                    if tt != t {
                        return Err(RelError::Other(format!(
                            "filter for table {t} references table {tt}"
                        )));
                    }
                    Ok(cc)
                })
            };
            let exprs: Vec<BoundExpr> =
                binding.filters.iter().map(bind_schema).collect::<Result<_>>()?;
            let mut checks = Vec::new();
            for (l, fold) in lowered.iter().zip(&fold_table) {
                if *fold != Some(t) {
                    continue;
                }
                match l {
                    LoweredCheck::KeySet { outer_cols, keys, negated } => {
                        checks.push(ResCheck::KeySet {
                            pos: outer_cols.iter().map(|&(_, c)| c).collect(),
                            keys: Arc::clone(keys),
                            negated: *negated,
                        });
                    }
                    LoweredCheck::ScalarMap { outer_cols, map, expr, op } => {
                        checks.push(ResCheck::ScalarMap {
                            pos: outer_cols.iter().map(|&(_, c)| c).collect(),
                            map: Arc::clone(map),
                            expr: bind_schema(expr)?,
                            op: *op,
                        });
                    }
                }
            }
            filters.push(TupleFilter { exprs, checks });
        }

        // ---- plans (prebuilt, borrowed from the prepared QueryPlan) -----------
        let plans = plan.plans.as_slice();
        let steps = plan.steps.as_slice();
        let primary = plan.primary;
        let component_of = plan.component_of.as_slice();

        // ---- labels ---------------------------------------------------------------
        let mut rel_label = Vec::with_capacity(n);
        let mut table_of_label = FxHashMap::default();
        for (t, binding) in a.tables.iter().enumerate() {
            let label = tag.relation_label(&binding.relation).ok_or_else(|| {
                RelError::Other(format!("relation `{}` absent from TAG graph", binding.relation))
            })?;
            rel_label.push(label);
            table_of_label.insert(label, t);
        }
        let mut step_labels = FxHashMap::default();
        for steps in steps {
            for s in steps {
                let rel = &a.tables[s.table].relation;
                let label = tag.column_label(rel, s.col).ok_or_else(|| {
                    RelError::Other(format!(
                        "join column {}.{} is not materialized as attribute vertices",
                        rel, a.tables[s.table].schema.columns[s.col].name
                    ))
                })?;
                step_labels.insert((s.table, s.col), label);
            }
        }

        // ---- final layout -----------------------------------------------------------
        let mut final_layout: Vec<ColKey> =
            own_specs.iter().flat_map(|s| s.iter().map(|&(k, _)| k)).collect();
        final_layout.sort_unstable();
        final_layout.dedup();

        let key_of = |t: usize, c: usize| -> ColKey {
            match var_of.get(&(t, c)) {
                Some(&v) => ColKey::Var(v),
                None => ColKey::Col { table: t as u16, col: c as u16 },
            }
        };
        let pos_of = |t: usize, c: usize| -> Result<usize> {
            let k = key_of(t, c);
            final_layout
                .binary_search(&k)
                .map_err(|_| RelError::Other(format!("column ({t},{c}) missing from layout")))
        };
        let bind_final = |e: &Expr| -> Result<BoundExpr> {
            e.bind(&|c: &ColRef| {
                let (t, col) = a.resolve(c)?;
                pos_of(t, col)
            })
        };

        // ---- residuals -----------------------------------------------------------------
        let mut residuals = Vec::new();
        for e in &a.residual {
            residuals.push(ResCheck::Expr(bind_final(e)?));
        }
        for j in &dec.broken {
            residuals
                .push(ResCheck::Eq(pos_of(j.left.0, j.left.1)?, pos_of(j.right.0, j.right.1)?));
        }
        for (l, fold) in lowered.iter().zip(&fold_table) {
            if fold.is_some() {
                continue; // already pushed to a single table's scan
            }
            match l {
                LoweredCheck::KeySet { outer_cols, keys, negated } => {
                    residuals.push(ResCheck::KeySet {
                        pos: outer_cols
                            .iter()
                            .map(|&(t, c)| pos_of(t, c))
                            .collect::<Result<_>>()?,
                        keys: Arc::clone(keys),
                        negated: *negated,
                    });
                }
                LoweredCheck::ScalarMap { outer_cols, map, expr, op } => {
                    residuals.push(ResCheck::ScalarMap {
                        pos: outer_cols
                            .iter()
                            .map(|&(t, c)| pos_of(t, c))
                            .collect::<Result<_>>()?,
                        map: Arc::clone(map),
                        expr: bind_final(expr)?,
                        op: *op,
                    });
                }
            }
        }

        // ---- output items / group keys / having --------------------------------------------
        let mut items = Vec::with_capacity(a.items.len());
        for item in &a.items {
            items.push(match item {
                OutputItem::Col { table, col, .. } => ProjItem::Col(pos_of(*table, *col)?),
                OutputItem::Expr { expr, .. } => ProjItem::Expr(bind_final(expr)?),
                OutputItem::Agg { func, arg, .. } => ProjItem::Agg {
                    func: *func,
                    arg: match arg {
                        Some(e) => Some(bind_final(e)?),
                        None => None,
                    },
                },
            });
        }
        let group_pos: Vec<usize> =
            a.group_by.iter().map(|&(t, c)| pos_of(t, c)).collect::<Result<_>>()?;
        let having_args: Vec<Option<BoundExpr>> = a
            .having
            .iter()
            .map(|h| h.arg.as_ref().map(&bind_final).transpose())
            .collect::<Result<_>>()?;
        let having_rhs: Vec<BoundExpr> =
            a.having.iter().map(|h| bind_final(&h.rhs)).collect::<Result<_>>()?;

        // LA routing label: the primary root must own the first group column.
        let la_route = if a.agg_class == AggClass::Local {
            let (gt, gc) = a.group_by[0];
            if plan.components[primary].root == gt {
                tag.column_label(&a.tables[gt].relation, gc)
            } else {
                None
            }
        } else {
            None
        };

        Ok(QueryCtx {
            analyzed: a,
            table_of_label,
            rel_label,
            filters,
            own_specs,
            plans,
            steps,
            primary,
            component_of,
            final_layout,
            residuals,
            items,
            group_pos,
            having_args,
            having_rhs,
            la_route,
            step_labels,
        })
    }

    /// Vertex label whose tuple vertices start component `ci`'s traversal.
    fn start_label(&self, ci: usize) -> LabelId {
        self.rel_label[self.plans[ci].start_table()]
    }

    /// The edge label of a traversal step.
    fn label(&self, s: Step) -> Result<LabelId> {
        self.step_labels
            .get(&(s.table, s.col))
            .copied()
            .ok_or_else(|| RelError::Other("unlabelled step".into()))
    }

    /// Layout of a component's gathered tables.
    fn component_layout(&self, ci: usize) -> Vec<ColKey> {
        let mut keys: Vec<ColKey> = (0..self.own_specs.len())
            .filter(|&t| self.component_of[t] == ci)
            .flat_map(|t| self.own_specs[t].iter().map(|&(k, _)| k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The projected one-row table for a tuple vertex of table `t`.
    /// Returns `None` when a join variable occurs in several columns of the
    /// tuple with disagreeing values (implicit intra-tuple equality).
    fn own_row(&self, t: usize, tuple: &Tuple) -> Option<Table> {
        let spec = &self.own_specs[t];
        let mut cols = Vec::with_capacity(spec.len());
        let mut row = Vec::with_capacity(spec.len());
        for &(k, c) in spec {
            let v = tuple.get(c).clone();
            if cols.last() == Some(&k) {
                // Same variable twice in this tuple (implicit intra-tuple
                // equality): values must agree or the tuple is dead.
                if row.last() != Some(&v) {
                    return None;
                }
                continue;
            }
            cols.push(k);
            row.push(v);
        }
        Some(Table::one_row(cols, row))
    }

    /// Evaluate the output items for one final row (NoAgg path).
    fn project_row(&self, row: &[Value]) -> Result<Box<[Value]>> {
        let mut out = Vec::with_capacity(self.items.len());
        for item in &self.items {
            out.push(item.eval(row)?);
        }
        Ok(out.into_boxed_slice())
    }

    /// A fresh partial for a group, seeded with a representative row.
    fn fresh_partial(&self, rep: &[Value]) -> Partial {
        Partial {
            accs: self
                .items
                .iter()
                .map(|i| match i {
                    ProjItem::Agg { func, .. } => Accumulator::new(*func),
                    _ => Accumulator::new(AggFunc::CountStar),
                })
                .collect(),
            having: self.analyzed.having.iter().map(|h| Accumulator::new(h.func)).collect(),
            rep: rep.to_vec().into_boxed_slice(),
        }
    }

    /// Feed one final row into a group's partial.
    fn update_partial(&self, part: &mut Partial, row: &[Value]) -> Result<()> {
        for (item, acc) in self.items.iter().zip(&mut part.accs) {
            if let ProjItem::Agg { arg, .. } = item {
                let v = match arg {
                    Some(e) => e.eval(row)?,
                    None => Value::Int(1),
                };
                acc.update(&v)?;
            }
        }
        for (h, acc) in self.having_args.iter().zip(&mut part.having) {
            let v = match h {
                Some(e) => e.eval(row)?,
                None => Value::Int(1),
            };
            acc.update(&v)?;
        }
        Ok(())
    }
}

/// The unique table in `tables`, if all entries agree (and there is one).
fn single_table(mut tables: impl Iterator<Item = usize>) -> Option<usize> {
    let first = tables.next()?;
    tables.all(|t| t == first).then_some(first)
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
