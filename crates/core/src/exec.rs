//! The TAG-join executor: SQL evaluation as a driven vertex-centric program.
//!
//! The driver realizes the paper's Algorithm 2 on the BSP engine, one
//! superstep per traversal step, in three passes over the shape the plan
//! runs in on this TAG — the root and child order [`crate::cost`] chose.
//! The bottom-up reduction walks the plan's whole `GenSteps` list, from the
//! start leaf the cost model picked; the two later passes walk the *kept*
//! list, the `GenSteps` list of the plan without the reduction-only
//! branches whose keys are unique in this TAG (see [`crate::plan`]):
//!
//! 1. **Reduction, bottom-up** — active vertices signal along edges with
//!    the current step's label (the engine's payload-free signal lane,
//!    counted as the paper's 8-byte id message); a receiver marks its own
//!    edge back to each sender — one bit per CSR out-edge in its [`St`],
//!    read straight off the bits the engine set for the edges back, with
//!    no search; the first 64 bits are inline, so only a hub allocates.
//!    Tuple vertices check their pushed-down filters before forwarding
//!    (Section 7 selection pushdown). A step that returns from a subtree
//!    signals only along the edges its entry marked, so the pass is an
//!    exact semijoin reduction (Lemma 5.1): a tuple vertex stays active
//!    only if it joins every table of the subtrees walked below it. The
//!    pass also walks the semijoin branches of EXISTS subqueries, entered
//!    from the outer correlation column and left again; a NOT EXISTS
//!    branch keeps the complement (see [`traversal`]).
//! 2. **Reduction, top-down** — the reversed kept list; signals go only along
//!    edges whose bit the bottom-up pass set, and receivers *replace* the
//!    bits of that label's run, so surviving marks are exactly the edges of
//!    tuples in the full join.
//! 3. **Collection, bottom-up** — the kept list again: intermediate rows
//!    of tuple-vertex ids ([`crate::table`]) flow along marked edges.
//!    Attribute vertices union the values they receive. A tuple vertex's
//!    first visit appends its id to every row, checking by arena reads,
//!    with SQL equality, only the join variables the traversed edge did
//!    not prove and the broken-cycle equalities whose other table the rows
//!    hold; a revisit on a backtracking step keeps exactly the rows that
//!    hold its id. No value is hashed or cloned, and only string cells are
//!    read to price a row. Each vertex builds its rows in its worker's
//!    scratch and sends one row of at most two ids inside each message,
//!    with no heap block; more rows travel as one table behind one `Arc`.
//!
//! A skipped branch only filters: no output reads its tables, and each row
//! of the kept tables extends into it exactly once, so the bag the kept
//! rows make is the bag of the full join.
//!
//! A final superstep at the plan root builds its final rows in worker
//! scratch, straight from the values it received, with no table per root.
//! It reads the rows' values in place in the TAG's arena (references, not
//! clones), applies residual predicates (the cross-table filters and the
//! subquery checks that read several tables), assembles output rows and
//! performs aggregation: global and scalar
//! aggregation fold every kept row straight into the worker's share of the
//! engine's global aggregator — the paper's aggregation vertex — with the
//! cells as per-worker scratch, allocating nothing per root. Local
//! aggregation folds a root's kept rows, one group, into the accumulators of
//! a [`Partial`] that also holds the tuple ids of the root's first kept row,
//! and routes it, one heap block, to the group-key attribute vertex; a root
//! that is its own one row routes its tuple id instead, no heap block. One
//! extra superstep finishes the groups there: every partial of a group
//! shares its routed key, so the vertex holds all of them. It folds them in
//! message order into one accumulator set per group (its worker's scratch),
//! judges each group by HAVING, and inserts only the groups it keeps into
//! its worker's share of the aggregator, once each, reading a group's
//! representative row only then.
//!
//! An EXISTS or NOT EXISTS the plan runs as a semijoin branch
//! ([`crate::plan`]) is part of the walk above, in this computation, so
//! crash recovery and the cost model cover it. Every other subquery's inner
//! plan runs first, in a computation of its own, and its rows or kept
//! groups fold straight into the subquery's probe table
//! (`vcsql_query::subquery`): the inner query builds no output relation.
//! When the plan seeds it (`vcsql_query::seed`), that computation starts
//! with a seeding phase of three supersteps: the outer key table's tuple
//! vertices that pass their filters signal along the outer correlation
//! label, the attribute vertices reached forward along the inner one, and
//! the inner tuple vertices reached are admitted. An inner tuple that was
//! not admitted then fails its filter, after evaluating it, so the inner
//! query aggregates only the keys some outer row can probe.
//!
//! Engine state: every computation — the outer query's and each subquery
//! run's — takes its graph-sized arrays, the [`St`] per vertex among them,
//! from the executor's scratch pool when a host attached one
//! ([`TagJoinExecutor::with_scratch_pool`]), and gives them back at the end
//! of a successful run, reset where it touched them
//! ([`Computation::into_scratch`]). Runs are sequential within one
//! execution, so a subquery's run hands its scratch to the run after it.
//! A bare executor builds and frees fresh arrays per run.
//!
//! Cartesian products across join-graph components follow Section 6.3's
//! Algorithm B: secondary components are evaluated first, gathered, and
//! shipped to the primary component's root vertices.
//!
//! Cyclic join graphs are handled by breaking the cycle (the Section 6.1.1
//! PK-FK treatment): the demoted equality is checked at the first visit of
//! whichever of its two tables the kept walk reaches second, where the rows
//! first hold both columns, not at the roots. The worst-case-optimal cycle
//! program of Sections 6.1–6.2 is an ablation, run by `repro
//! triangle-theta`.

use crate::bind::{all_hold, QueryCtx, Seed, Visit};
use crate::plan::QueryPlan;
use crate::table::{str_payload, Incoming, Partial, Rows, Table, TagMsg};
use std::ops::{ControlFlow, Range};
use std::sync::{Arc, PoisonError};
use vcsql_bsp::program::Aggregator;
use vcsql_bsp::sync::Mutex;
use vcsql_bsp::{
    Computation, EngineConfig, FaultError, FaultInjector, LabelId, LabelTraffic, Partitioning,
    RunStats, Scratch, VertexCtx, VertexId, WorkerPool,
};
use vcsql_query::analyze::Analyzed;
use vcsql_query::output::merge_accs;
use vcsql_query::{AggClass, Gather, Output, SubqueryCheck};
use vcsql_relation::agg::Accumulator;
use vcsql_relation::expr::Row;
use vcsql_relation::{RelError, Relation, Value};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Per-vertex state of the TAG-join program, 24 bytes. `Clone` so the
/// engine's fault-tolerance checkpoints can snapshot it.
///
/// The reduction marks (Algorithm 2 lines 9/19) are a bitmap over the
/// vertex's CSR out-edges: bit `i` is set iff its `i`-th out-edge is
/// marked. The first 64 bits live inline; only a hub, a vertex of more
/// than 64 out-edges, allocates the words past the first.
#[derive(Default, Clone)]
pub struct St {
    /// Marks of out-edges 0..64.
    marks: u64,
    /// Marks of out-edges 64 and up, word by word (hubs only).
    hub: Option<Box<HubMarks>>,
    /// The bitmap's words, `⌈out-degree / 64⌉`, from the first signal on;
    /// 0 before it.
    words: u32,
    /// Cached filter verdict for tuple vertices.
    pass: Option<bool>,
    /// Whether a seed reached this tuple vertex (see [`QueryCtx::admit`]).
    admitted: bool,
    /// Whether the vertex entered a NOT EXISTS branch that has not come
    /// back yet: it stays active until then.
    held: bool,
}

/// A hub's mark words past the first, behind a thin pointer so [`St`]
/// keeps its size.
#[derive(Clone)]
struct HubMarks(Box<[u64]>);

impl St {
    /// Size the bitmap for `degree` out-edges, all unmarked: the first
    /// signal's work.
    fn open(&mut self, degree: usize) {
        let words = degree.div_ceil(64);
        self.words = u32::try_from(words).expect("a CSR range's words fit u32");
        if words > 1 {
            self.hub = Some(Box::new(HubMarks(vec![0; words - 1].into())));
        }
    }

    /// The mark word holding out-edge slot `i`, if the bitmap has one.
    fn word(&mut self, i: usize) -> Option<&mut u64> {
        match i / 64 {
            0 => Some(&mut self.marks),
            w => self.hub.as_mut().and_then(|h| h.0.get_mut(w - 1)),
        }
    }

    /// Mark word `w`, out-edge slots `64 w..64 w + 64`; 0 past the bitmap.
    fn word_at(&self, w: usize) -> u64 {
        match w {
            0 => self.marks,
            w => self.hub.as_ref().and_then(|h| h.0.get(w - 1)).map_or(0, |&w| w),
        }
    }

    /// Whether out-edge slot `i` carries a reduction mark.
    #[cfg(test)]
    fn marked(&self, i: usize) -> bool {
        self.word_at(i / 64) >> (i % 64) & 1 == 1
    }

    /// Mark out-edge slot `i`.
    fn mark(&mut self, i: usize) {
        if let Some(w) = self.word(i) {
            *w |= 1 << (i % 64);
        }
    }

    /// Clear the marks of the slots in `run`, a word at a time.
    fn clear(&mut self, run: &Range<usize>) {
        for (w, mask) in words(run) {
            if let Some(word) = self.word(w * 64) {
                *word &= !mask;
            }
        }
    }
}

/// The mark words `run` spans, each with the mask of its slots in `run`.
fn words(run: &Range<usize>) -> impl Iterator<Item = (usize, u64)> + use<> {
    let (lo, hi) = (run.start, run.end);
    let spanned = if lo < hi { lo / 64..(hi - 1) / 64 + 1 } else { 0..0 };
    spanned.map(move |w| {
        let (from, to) = (lo.saturating_sub(w * 64), (hi - w * 64).min(64));
        (w, (u64::MAX >> (64 - (to - from))) << from)
    })
}

/// Execution result: the output relation plus the run's communication and
/// computation statistics.
#[derive(Debug)]
pub struct ExecOutput {
    pub relation: Relation,
    pub stats: RunStats,
}

/// Engine scratches kept between executions over one TAG
/// ([`TagJoinExecutor::with_scratch_pool`]): one per execution that ran at
/// the same time as another, at most.
pub type ScratchPool = Mutex<Vec<Scratch<St>>>;

/// The vertex-centric SQL executor over a TAG graph.
pub struct TagJoinExecutor<'t> {
    tag: &'t TagGraph,
    config: EngineConfig,
    partitioning: Option<Arc<Partitioning>>,
    workers: Option<Arc<WorkerPool>>,
    scratches: Option<Arc<ScratchPool>>,
    faults: Option<Arc<FaultInjector>>,
}

impl<'t> TagJoinExecutor<'t> {
    /// New executor with the given engine configuration.
    pub fn new(tag: &'t TagGraph, config: EngineConfig) -> Self {
        TagJoinExecutor {
            tag,
            config,
            partitioning: None,
            workers: None,
            scratches: None,
            faults: None,
        }
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

    /// Attach a shared pool of engine scratches: every computation this
    /// executor starts (including subquery runs) borrows one, or builds
    /// fresh arrays when the pool is empty, and a run that succeeds gives
    /// its scratch back, reset where it touched the states. A run that
    /// fails or panics drops its scratch. Two runs never hold one scratch
    /// at once. Hosts that execute many queries attach one pool at open;
    /// without one, every run builds and frees its |V|-sized arrays.
    pub fn with_scratch_pool(mut self, pool: Arc<ScratchPool>) -> Self {
        self.scratches = Some(pool);
        self
    }

    /// Attach a simulated machine partitioning (network accounting). The
    /// placement is shared, not copied: callers that keep one placement
    /// across many queries (sessions) hand every run the same allocation.
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
        let mut stats = RunStats::default();
        let (output, gather) = self.run(plan, None, None, &mut stats)?;
        Ok(ExecOutput { relation: output.finish(gather)?, stats })
    }

    /// Run `plan` up to its output, adding its runs' statistics to `stats`:
    /// the output bound to the final rows and everything gathered. An inner
    /// query's plan binds its output through its subquery's `check`, in
    /// probe mode, and is seeded by `seed` when the plan seeds it.
    fn run<'p>(
        &self,
        plan: &'p QueryPlan,
        check: Option<&SubqueryCheck>,
        seed: Option<&Seed>,
        stats: &mut RunStats,
    ) -> Result<(Output<'p>, Gather)> {
        // ---- subqueries: each inner plan runs first (reverse lookup) --------
        let mut results = Vec::with_capacity(plan.subqueries.len());
        for (sub, check, corr) in &plan.subqueries {
            let bound = corr.map(|c| Seed::bind(self.tag, &plan.analyzed, &sub.analyzed, c));
            let seed = bound.transpose()?.flatten();
            let (output, gather) = self.run(sub, Some(check), seed.as_ref(), stats)?;
            results.push(Arc::new(check.finish(&output, gather)?));
        }

        // ---- bind the plan to this TAG --------------------------------------
        let mut q = QueryCtx::build(self.tag, plan, &results, check)?;
        q.admit = seed.map(|s| s.inner_table);

        // ---- engine ----------------------------------------------------------
        // A subquery's run above gave back the scratch this run takes.
        let scratch = self.scratches.as_deref().and_then(|p| lock(p).pop());
        let mut comp: Computation<'_, St, TagMsg> =
            Computation::with_scratch(self.tag.graph(), self.config, scratch, |_| St::default());
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

        if let Some(seed) = seed {
            self.run_seed(&mut comp, seed)?;
        }

        // Order components: primary last.
        let mut order: Vec<usize> = (0..q.shape.component_count()).collect();
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
            let (gathered, pieces) = self.gather_component(&mut comp, &q, ci)?;
            for &(v, rows, bytes) in &pieces {
                gather.messages += rows;
                gather.bytes += bytes;
                if let (Some(p), Some(o)) = (&self.partitioning, origin) {
                    if p.machine_of(v) as usize != o {
                        gather.network_messages += rows;
                        gather.network_bytes += bytes;
                    }
                }
            }
            secondary = Some(match secondary {
                None => gathered,
                Some(prev) => prev.product(&gathered),
            });
        }
        if let Some(sec) = &secondary {
            let mut traffic = self.cartesian_shipping(&q, sec, origin);
            traffic.add(&gather);
            stats.record_traffic(traffic);
        }

        // Primary component traversal + finish.
        self.run_traversal(&mut comp, &q, q.primary)?;
        let gather = self.finish(&mut comp, &q, secondary)?;

        stats.absorb(comp.stats());
        if let Some(pool) = &self.scratches {
            let scratch = comp.into_scratch(|_| St::default());
            lock(pool).push(scratch);
        }
        Ok((q.output, gather))
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
        let roots = graph.vertices_with_label(q.root_label(q.primary));
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

    /// A seeded inner run's seeding phase (see the module docs).
    fn run_seed(&self, comp: &mut Computation<'_, St, TagMsg>, s: &Seed) -> Result<()> {
        let tag = self.tag;
        comp.activate_label(s.outer_rel);
        comp.run_phase(|comp, i| {
            comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>| {
                let vid = ctx.id();
                match i {
                    0 if !tag.tuple(vid).is_some_and(|t| s.probes(t)) => {}
                    0 => signal_along_marks(ctx, s.outer_col, true),
                    1 => signal_along_marks(ctx, s.inner_col, true),
                    _ => {
                        debug_assert_eq!(ctx.label(), s.inner_rel, "{vid} admitted off the seed");
                        ctx.state.admitted = true;
                    }
                }
            });
            if i == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .map_err(fault_to_rel)
    }

    /// Run the three traversal passes for component `ci` (the two later
    /// ones over its kept list), leaving the component's root tuple
    /// vertices active with pending id tables.
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
        let descs = traversal(q, ci);
        if descs.is_empty() {
            return Ok(()); // single table: roots are the activated tuples
        }
        comp.run_phase(|comp, i| {
            let d = &descs[i];
            let mut err = match d.pass {
                Pass::Up { all } => self.reduction_step(comp, q, d, all),
                Pass::Down => self.reduction_step(comp, q, d, false),
                Pass::Col { step } => {
                    self.collection_step(comp, q, ci, step, d.cur, d.prev);
                    FirstError::default()
                }
                Pass::Check => {
                    comp.superstep_simple(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>| {
                        let back = ctx.signalled(0..ctx.edges().len()).next().is_some();
                        if std::mem::take(&mut ctx.state.held) && !back {
                            ctx.stay();
                        }
                    });
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

    /// One reduction superstep (Algorithm 2 lines 7-25) of descriptor `d`,
    /// sending along every `d.cur` edge when `all`, else along the marked
    /// ones; returns the first filter evaluation that failed.
    fn reduction_step(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        d: &Desc,
        all: bool,
    ) -> FirstError {
        let tag = self.tag;
        comp.superstep(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>, err: &mut FirstError| {
            // (a) record marks from the previous step's messages.
            let signalled = record_marks(ctx, d.prev);
            // (b) a vertex held over a NOT EXISTS branch stays; it works
            // only if a signal of this walk reached it too. Once the branch
            // is back, a held vertex a signal came back to drops out.
            if d.hold == Hold::Keep && ctx.state.held {
                ctx.stay();
                if !signalled {
                    return;
                }
            }
            if d.check && std::mem::take(&mut ctx.state.held) && signalled {
                return;
            }
            // (c) tuple-vertex filter guard (selection pushdown).
            if err.ok(passes_filter(ctx, q, tag)) != Some(true) {
                return;
            }
            // (d) signal along edges with the current label; top-down
            // signals follow bottom-up marks (line 17), and so does a
            // bottom-up step that returns from a subtree.
            signal_along_marks(ctx, d.cur, all);
            if d.hold == Hold::Enter {
                ctx.state.held = true;
                ctx.stay();
            }
        })
        .1
    }

    /// One collection superstep (Algorithm 2 lines 28-44), the `step`-th of
    /// component `ci`'s collection pass. A vertex builds its value in its
    /// worker's scratch, then sends one row inside each message, or more in
    /// one table shared along its marked edges.
    fn collection_step(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        ci: usize,
        step: usize,
        cur: LabelId,
        prev: Option<(LabelId, bool)>,
    ) {
        let tag = self.tag;
        let layout = q.layout_at(ci, step);
        comp.superstep(|ctx: &mut VertexCtx<'_, '_, St, TagMsg>, rows: &mut RowScratch| {
            // Signals still in flight from the reduction's last step update
            // marks; values are collected.
            record_marks(ctx, prev);
            if compute_value(ctx, q, tag, ci, step, &mut rows.0) {
                let value = rows.0.to_msg(layout);
                send_along_marks(ctx, cur, || value.clone());
            }
        });
    }

    /// Gather a (secondary) component's result rows from its roots, in root
    /// order, into one table, with each root's [`Piece`], so the caller can
    /// attribute the gather traffic to the machine each piece came from.
    fn gather_component(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        ci: usize,
    ) -> Result<(Table, Vec<Piece>)> {
        let tag = self.tag;
        let root = q.kept[ci].len();
        let layout = q.root_layout(ci);
        #[derive(Default)]
        struct Tables {
            rows: Rows,
            pieces: Vec<Piece>,
            /// The current root's rows.
            piece: Rows,
            err: FirstError,
        }
        impl Aggregator for Tables {
            fn merge(&mut self, mut other: Self) {
                self.rows.append(&other.rows);
                self.pieces.append(&mut other.pieces);
                self.err.merge(other.err);
            }
        }
        let mut gathered =
            single_step(comp, |ctx: &mut VertexCtx<'_, '_, St, TagMsg>, g: &mut Tables| {
                if g.err.ok(passes_filter(ctx, q, tag)) != Some(true) {
                    return;
                }
                if compute_value(ctx, q, tag, ci, root, &mut g.piece) {
                    let bytes = g.piece.approx_bytes(layout.cols.len());
                    g.pieces.push((ctx.id(), g.piece.len() as u64, bytes as u64));
                    g.rows.append(&g.piece);
                }
            })?;
        gathered.err.check()?;
        Ok((Table::new(Arc::clone(layout), gathered.rows), gathered.pieces))
    }

    // --------------------------------------------------------------- finish

    /// Final superstep at the primary roots: read the rows' values, apply
    /// residuals, aggregate; under local aggregation, one more superstep at
    /// the group-key attribute vertices. Nothing here allocates per root but
    /// what a root ships or keeps: rows fold straight into the worker's
    /// [`Gather`], and the cells and kept-row list are worker scratch.
    fn finish(
        &self,
        comp: &mut Computation<'_, St, TagMsg>,
        q: &QueryCtx,
        secondary: Option<Table>,
    ) -> Result<Gather> {
        let tag = self.tag;
        let root = q.kept[q.primary].len();
        // A final row holds the primary component's ids, then Algorithm B's
        // secondary ones; `reader` says where each final column is read.
        let mut tables = q.root_layout(q.primary).tables.clone();
        if let Some(sec) = &secondary {
            tables.extend_from_slice(&sec.layout().tables);
        }
        let reader = q.reader(&tables);
        let width = reader.len();
        // A root with no traversal and nothing to pair with is its own row.
        let alone = (root == 0 && secondary.is_none()).then(|| q.shape.root_table(q.primary));
        let local = q.analyzed.agg_class == AggClass::Local;

        // Aggregator: projected rows or groups (LA additionally *sends*
        // partials to attribute vertices and uses this at the roots only for
        // the NULL-key fallback), plus scratch reused from vertex to vertex.
        #[derive(Default)]
        struct Fin<'t> {
            out: Gather,
            err: FirstError,
            /// The current root's cells, row-major, read in place from the
            /// TAG's arena.
            cells: Vec<&'t Value>,
            /// The current root's rows the residuals keep.
            kept: Vec<usize>,
            /// The current attribute vertex's first group's accumulators.
            accs: Vec<Accumulator>,
            /// The current root's rows, read straight from what it received.
            rows: Rows,
            /// The current root's rows paired with Algorithm B's secondary
            /// rows.
            paired: Rows,
        }
        impl Aggregator for Fin<'_> {
            fn merge(&mut self, other: Self) {
                self.err.merge(other.err);
                let merged = self.out.merge(other.out);
                self.err.ok(merged);
            }
        }

        let mut fin = single_step(comp, |ctx: &mut VertexCtx<'_, '_, St, TagMsg>, g: &mut Fin| {
            if g.err.ok(passes_filter(ctx, q, tag)) != Some(true) {
                return;
            }
            let id = ctx.id();
            g.cells.clear();
            let value = if let Some(t) = alone {
                let Some(own) = own_tuple(q, tag, t, id) else { return };
                g.cells.extend(reader.iter().map(|&(_, col)| &own[col]));
                None
            } else {
                if !compute_value(ctx, q, tag, q.primary, root, &mut g.rows) {
                    return;
                }
                let value = match &secondary {
                    Some(sec) => {
                        g.paired.reset(tables.len());
                        g.paired.product(&g.rows, sec.rows());
                        &g.paired
                    }
                    None => &g.rows,
                };
                debug_assert_eq!(value.width(), tables.len(), "unexpected final tables");
                for ids in value.rows() {
                    g.cells.extend(IdRow { tag, ids, reader: &reader }.all());
                }
                Some(value)
            };
            let rows = value.map_or(1, Rows::len);
            let row = |i: usize| &g.cells[i * width..(i + 1) * width];
            // Residual predicates (cross-table filters, multi-table
            // subquery checks), over every row before any is projected or
            // grouped.
            g.kept.clear();
            for i in 0..rows {
                if g.err.ok(all_hold(&q.residuals, row(i))) == Some(true) {
                    g.kept.push(i);
                }
            }
            if !local {
                for &i in &g.kept {
                    g.err.ok(g.out.add(&q.output, row(i)));
                }
                return;
            }
            // Under local aggregation the root's table holds every group
            // column, so the root's kept rows form one group. It goes to the
            // group-key attribute vertex along this root's own edge (Section
            // 7, local aggregation); a NULL key (or a root without the edge)
            // falls back to the aggregator.
            let Some(&first) = g.kept.first() else { return };
            let keys = q.output.keys();
            let route = q.la_route.filter(|_| !row(first)[keys[0]].is_null());
            let to = route.and_then(|label| Some((label, ctx.edges_with(label).first()?.target)));
            let ids = match (&value, to) {
                // A root that is its own one row ships its id: the vertex
                // folds the row.
                (None, Some((label, to))) => {
                    return ctx.send_along(label, to, TagMsg::Row(id, q.partial_bytes));
                }
                (Some(v), _) => v.row(first),
                (None, None) => std::slice::from_ref(&id),
            };
            let mut partial = Partial::new(ids, q.output.accumulators());
            for &i in &g.kept {
                debug_assert!(keys.iter().all(|&p| row(i)[p] == row(first)[p]), "one group");
                g.err.ok(q.output.fold(partial.accs_mut(), row(i)));
            }
            match to {
                // The partial travels as its one heap block.
                Some((label, to)) => {
                    ctx.send_along(label, to, TagMsg::Partial(Box::new(partial), q.partial_bytes));
                }
                None => {
                    let key = keys.iter().map(|&p| row(first)[p]);
                    let rep = row(first).iter().copied();
                    g.err.ok(g.out.insert(key, partial.accs(), rep));
                }
            }
        })?;
        fin.err.check()?;

        if local {
            // One more superstep: every partial of a group shares its routed
            // key, so each group-key attribute vertex holds every partial of
            // its groups. It folds them in message order, one accumulator set
            // per group, judges each group by HAVING there (each group
            // computed in parallel at its own vertex — the paper's
            // local-aggregation strength) and hands the groups it keeps to
            // the host through the aggregator.
            let la = single_step(comp, |ctx: &mut VertexCtx<'_, '_, St, TagMsg>, g: &mut Fin| {
                let msgs = ctx.messages();
                let folded = fold_groups(&q.output, msgs, tag, &reader, &mut g.accs, &mut g.out);
                g.err.ok(folded);
            })?;
            fin.merge(la);
            fin.err.check()?;
        }
        Ok(fin.out)
    }
}

/// A final row by its tuple ids, each cell read in place in the TAG's arena
/// when asked for, in `reader`'s `(layout position, column)` order: where a
/// statement reads its output, and how a group-key attribute vertex reads a
/// partial's key and representative row, and a lone root's row.
#[derive(Clone, Copy)]
struct IdRow<'t, 'r> {
    tag: &'t TagGraph,
    ids: &'r [VertexId],
    reader: &'r [(usize, usize)],
}

impl<'t, 'r> IdRow<'t, 'r> {
    /// The cell at final-row position `i`.
    fn at(self, i: usize) -> &'t Value {
        let (pos, col) = self.reader[i];
        &self.tag.tuple(self.ids[pos]).expect("rows hold tuple vertices")[col]
    }

    /// The cells at `positions`.
    fn cells<'k>(
        self,
        positions: &'k [usize],
    ) -> impl Iterator<Item = &'t Value> + Clone + use<'t, 'r, 'k> {
        positions.iter().map(move |&i| self.at(i))
    }

    /// Every cell of the row.
    fn all(self) -> impl Iterator<Item = &'t Value> + use<'t, 'r> {
        (0..self.reader.len()).map(move |i| self.at(i))
    }
}

impl Row for IdRow<'_, '_> {
    fn cell(&self, i: usize) -> Option<&Value> {
        (i < self.reader.len()).then(|| self.at(i))
    }

    fn width(&self) -> usize {
        self.reader.len()
    }
}

/// The LA superstep at one group-key attribute vertex: fold the partials of
/// `msgs` in message order, one accumulator set per group — `accs` is the
/// scratch of the first group — and insert the groups HAVING keeps into
/// `out`. A partial's row is read by its ids, through `reader`.
///
/// Merging in message order is the merge sequence a gather of every partial
/// would make, and folding a lone root's row into a group's accumulators
/// gives the bits merging its one-row partial gave, so results do not
/// depend on where groups finish. A routed column need not determine the
/// group (`GROUP BY r.name, r.id` routes on `name`): partials are grouped
/// by the full key, and a vertex that meets a second key folds the rest in
/// a gather of its own.
fn fold_groups(
    output: &Output,
    msgs: &[TagMsg],
    tag: &TagGraph,
    reader: &[(usize, usize)],
    accs: &mut Vec<Accumulator>,
    out: &mut Gather,
) -> Result<()> {
    let keys = output.keys();
    let at = |ids| IdRow { tag, ids, reader };
    // A partial's accumulators into `accs`: a root's, or a lone root's row
    // folded into fresh ones.
    let open = |accs: &mut Vec<Accumulator>, row: &IdRow, p: Option<&[Accumulator]>| {
        accs.clear();
        let Some(p) = p else {
            accs.extend(output.accumulators());
            return output.fold(accs, row);
        };
        accs.extend_from_slice(p);
        Ok(())
    };
    let mut parts = msgs.iter().filter_map(TagMsg::partial).map(|(ids, p)| (at(ids), p));
    let Some((first, p)) = parts.next() else { return Ok(()) };
    open(accs, &first, p)?;
    let mut other = None;
    for (row, p) in parts.by_ref() {
        if !row.cells(keys).eq(first.cells(keys)) {
            other = Some((row, p));
            break;
        }
        match p {
            Some(p) => merge_accs(accs, p)?,
            None => output.fold(accs, &row)?,
        }
    }
    let Some(other) = other else {
        if output.keeps(accs, &first)? {
            out.insert(first.cells(keys), accs, first.all())?;
        }
        return Ok(());
    };
    let mut groups = Gather::default();
    groups.insert(first.cells(keys), accs, first.all())?;
    for (row, p) in std::iter::once(other).chain(parts) {
        open(accs, &row, p)?;
        groups.insert(row.cells(keys), accs, row.all())?;
    }
    out.insert_kept(output, groups)
}

/// The pass a traversal superstep belongs to. A bottom-up step sends along
/// every edge of its label unless it returns from a subtree; a collection
/// step knows its index in its pass. A check step only drops the vertices
/// a NOT EXISTS branch came back to, when the walk ends with its return.
enum Pass {
    Up { all: bool },
    Down,
    Col { step: usize },
    Check,
}

/// What a bottom-up superstep does with the vertices held over a NOT
/// EXISTS branch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// No branch is open.
    Off,
    /// The step enters a branch: the vertices that pass their filters hold.
    Enter,
    /// A branch is open, its return step included: held vertices stay.
    Keep,
}

/// One traversal superstep: its pass, the label it sends along, the label
/// (with replace flag) of the signals it receives, and what it does with
/// held vertices: hold them, keep them, or first drop the ones a branch
/// came back to (`check`).
struct Desc {
    pass: Pass,
    cur: LabelId,
    prev: Option<(LabelId, bool)>,
    hold: Hold,
    check: bool,
}

/// Component `ci`'s three passes flattened, one descriptor per superstep:
/// reduction bottom-up over the whole list, then reduction top-down over
/// the kept list reversed (sends follow marks and receivers replace marks),
/// then collection bottom-up over the kept list.
///
/// A label's second bottom-up step returns from the subtree its first
/// entered, and sends only along the edges the entry marked: the attach
/// node's vertices that entered, and survive the subtree, are its active
/// vertices again, and no other. The pass is then the exact semijoin
/// reduction that a branch the later passes skip relies on, an EXISTS
/// branch among them.
///
/// A NOT EXISTS branch keeps the complement: the vertices that enter its
/// top hold, staying active with no message until it comes back, and the
/// superstep after its return drops the held vertices a signal came back
/// to. The rest, NULL keys that entered nothing among them, go on. When
/// the walk ends with the return, one check superstep does the dropping.
fn traversal(q: &QueryCtx, ci: usize) -> Vec<Desc> {
    let (full, kept, anti) = (&q.steps[ci], &q.kept[ci], &q.anti[ci]);
    let up =
        full.iter().enumerate().map(|(i, &cur)| (Pass::Up { all: !full[..i].contains(&cur) }, cur));
    let passes = up
        .chain(kept.iter().rev().map(|&cur| (Pass::Down, cur)))
        .chain(kept.iter().enumerate().map(|(step, &cur)| (Pass::Col { step }, cur)));
    let mut prev: Option<(LabelId, bool)> = None;
    let (mut open, mut check) = (None, false);
    let mut descs = Vec::new();
    for (pass, cur) in passes {
        let hold = match (&pass, open) {
            (Pass::Up { .. }, Some(_)) => Hold::Keep,
            (Pass::Up { all: true }, None) if anti.contains(&cur) => Hold::Enter,
            _ => Hold::Off,
        };
        let replace = !matches!(pass, Pass::Up { .. });
        let prev = prev.replace((cur, replace));
        descs.push(Desc { pass, cur, prev, hold, check: std::mem::take(&mut check) });
        match hold {
            Hold::Enter => open = Some(cur),
            Hold::Keep if open == Some(cur) => (open, check) = (None, true),
            _ => {}
        }
    }
    if check {
        descs.push(Desc { pass: Pass::Check, cur: LabelId::NONE, prev, hold: Hold::Off, check });
    }
    descs
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

/// The scratch pool's lock. A poisoned lock only means another execution
/// panicked: a push or pop is all it ever did under the lock.
fn lock(pool: &ScratchPool) -> vcsql_bsp::sync::MutexGuard<'_, Vec<Scratch<St>>> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Map an engine fault to the executor's error type; retry-worthiness
/// travels in the variant, so hosts (the server's retry loop) match on it.
fn fault_to_rel(e: FaultError) -> RelError {
    RelError::Fault { transient: e.is_transient(), message: e.to_string() }
}

/// One root's piece of a gathered component: the root, its rows and their
/// wire bytes.
type Piece = (VertexId, u64, u64);

/// A worker's rows for one superstep: each vertex refills them, so merging
/// keeps nothing.
#[derive(Default)]
struct RowScratch(Rows);

impl Aggregator for RowScratch {
    fn merge(&mut self, _: Self) {}
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
/// (none before the first signal), a word for a cached filter verdict, one
/// for a seed's admission and one for a hold.
fn st_state_bytes(st: &St) -> u64 {
    let flags = u64::from(st.pass.is_some()) + u64::from(st.admitted) + u64::from(st.held);
    8 * (1 + u64::from(st.words) + flags)
}

/// Record reduction marks from incoming signals: union during bottom-up,
/// replace during top-down (Algorithm 2 lines 9 and 19). A signal marks the
/// receiver's own edge back to its sender: the slot the engine signalled.
/// The first signal opens the bitmap and, when replacing, clears the
/// `label` run. Returns whether a signal arrived.
fn record_marks(ctx: &mut VertexCtx<'_, '_, St, TagMsg>, prev: Option<(LabelId, bool)>) -> bool {
    let Some((label, replace)) = prev else { return false };
    let (graph, vid, degree) = (ctx.graph(), ctx.id(), ctx.edges().len());
    let mut clear = replace;
    let mut signalled = false;
    for i in ctx.signalled(0..degree) {
        signalled = true;
        let st = &mut ctx.state;
        if st.words == 0 {
            st.open(degree);
        }
        if std::mem::take(&mut clear) {
            st.clear(&graph.label_range(vid, label));
        }
        // Every signal of a step travels its one label.
        debug_assert!(
            graph.label_range(vid, label).contains(&i),
            "slot {i} of {vid} is not labelled {label:?}"
        );
        st.mark(i);
    }
    signalled
}

/// Signal along this vertex's `label` edges: every one when `all`, else
/// only the marked ones.
fn signal_along_marks(ctx: &mut VertexCtx<'_, '_, St, TagMsg>, label: LabelId, all: bool) {
    let run = ctx.graph().label_range(ctx.id(), label);
    if all {
        run.for_each(|i| ctx.signal_along(label, i));
    } else {
        each_marked(ctx, run, |ctx, i| ctx.signal_along(label, i));
    }
}

/// Send `msg()` along this vertex's marked `label` edges.
fn send_along_marks(
    ctx: &mut VertexCtx<'_, '_, St, TagMsg>,
    label: LabelId,
    msg: impl Fn() -> TagMsg,
) {
    let (edges, run) = (ctx.edges(), ctx.graph().label_range(ctx.id(), label));
    each_marked(ctx, run, |ctx, i| ctx.send_along(label, edges[i].target, msg()));
}

/// Call `f` with each marked slot of `run`, ascending, reading the bitmap a
/// word at a time: a hub's long run with few marks costs a word per 64
/// slots, not a test per slot.
fn each_marked<'x, 'y>(
    ctx: &mut VertexCtx<'x, 'y, St, TagMsg>,
    run: Range<usize>,
    mut f: impl FnMut(&mut VertexCtx<'x, 'y, St, TagMsg>, usize),
) {
    for (w, mask) in words(&run) {
        let mut bits = ctx.state.word_at(w) & mask;
        while bits != 0 {
            f(ctx, w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
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
    let verdict = match q.table_of(ctx.label()) {
        Some(t) => match tag.tuple(ctx.id()) {
            // Admission only after the filter: a seed narrows which tuples
            // contribute, never which evaluate their filters.
            Some(tuple) => {
                q.filters[t].passes(tuple)? && (q.admit != Some(t) || ctx.state.admitted)
            }
            None => true,
        },
        None => true, // attribute vertex (or unrelated relation)
    };
    ctx.state.pass = Some(verdict);
    Ok(verdict)
}

/// Collection-phase value at a vertex in collection superstep `step` of
/// component `ci` (its roots compute at `steps.len()`), built in `out`: an
/// attribute vertex unions the values it received; a tuple vertex visits
/// their rows in place, or is the one row of a traversal that starts at it.
/// `false` when there is nothing to send: no value arrived, or the tuple's
/// columns of one join variable disagree.
fn compute_value(
    ctx: &VertexCtx<'_, '_, St, TagMsg>,
    q: &QueryCtx,
    tag: &TagGraph,
    ci: usize,
    step: usize,
    out: &mut Rows,
) -> bool {
    out.reset(q.layout_at(ci, step).tables.len());
    let width = step.checked_sub(1).map_or(0, |s| q.layout_at(ci, s).tables.len());
    let incoming = Incoming::new(ctx.messages(), width);
    let Some(t) = q.table_of(ctx.label()) else {
        out.union(incoming);
        return !incoming.is_empty();
    };
    let id = ctx.id();
    let Some(own) = own_tuple(q, tag, t, id) else { return false };
    let payload = |added: &[usize]| added.iter().map(|&c| str_payload(&own[c])).sum::<usize>();
    match &q.visits[ci][step / 2] {
        Visit::First { added, .. } if step == 0 && incoming.is_empty() => {
            out.start(id, payload(added));
        }
        _ if incoming.is_empty() => return false,
        Visit::First { checks, added } => {
            // SQL equality: a NULL on either side equals nothing.
            let agree = |ids: &[VertexId]| {
                checks.iter().all(|&(pos, col, own_col)| {
                    let other = tag.tuple(ids[pos]);
                    other.is_some_and(|other| other[col].sql_eq(&own[own_col]) == Some(true))
                })
            };
            out.extend(incoming, id, payload(added), agree);
        }
        Visit::Again { pos } => out.select(incoming, *pos, id),
    }
    true
}

/// The columns of tuple vertex `id` of table `t`; `None` for another
/// vertex, or when the tuple's columns of one join variable disagree.
fn own_tuple<'t>(q: &QueryCtx, tag: &'t TagGraph, t: usize, id: VertexId) -> Option<&'t [Value]> {
    let own = tag.tuple(id)?;
    q.dups[t].iter().all(|&(x, y)| own[x].sql_eq(&own[y]) == Some(true)).then_some(own)
}

/// The Algorithm B gather site: the machine holding the plurality of the
/// secondary components' root tuple vertices (lowest machine id on ties) —
/// the natural place to assemble the combined secondary result before
/// broadcasting it to the primary roots.
fn gather_site(q: &QueryCtx, order: &[usize], tag: &TagGraph, p: &Partitioning) -> usize {
    let mut tally = vec![0u64; p.machines()];
    for &ci in &order[..order.len() - 1] {
        for &v in tag.graph().vertices_with_label(q.root_label(ci)) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_bsp::GraphBuilder;
    use vcsql_relation::schema::{Column, Schema};
    use vcsql_relation::{DataType, Database, FxHashSet, Tuple};

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
        let q = QueryCtx::build(&tag, &plan, &[], None).unwrap();
        let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());
        let mut comp = Computation::new(g, exec.config, |_| St::default());

        // The two reduction passes, then a superstep that only records the
        // top-down pass's last signals (the collection pass's first step
        // would record them too).
        let ci = q.primary;
        comp.activate_label(q.start_label(ci));
        let descs = traversal(&q, ci);
        let mut in_flight = None;
        for d in &descs {
            let all = match d.pass {
                Pass::Up { all } => all,
                Pass::Down => false,
                Pass::Col { .. } | Pass::Check => {
                    in_flight = d.prev;
                    break;
                }
            };
            assert!(exec.reduction_step(&mut comp, &q, d, all).0.is_none());
        }
        comp.superstep_simple(|ctx| {
            record_marks(ctx, in_flight);
        });

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
        for (j, &label) in q.steps[ci].iter().enumerate() {
            for v in g.vertices().filter(|&v| tag.is_tuple_vertex(v) == (j % 2 == 0)) {
                let st = &comp.states()[v as usize];
                for i in g.label_range(v, label) {
                    let target = g.out_edges(v)[i].target;
                    let tuple = if tag.is_tuple_vertex(v) { v } else { target };
                    let want = in_join.contains(&tuple);
                    assert_eq!(st.marked(i), want, "step {j}: edge {v} -> {target}");
                    checked += usize::from(want);
                }
            }
        }
        assert_eq!(checked, 2 * q.steps[ci].len(), "two join paths per step");
    }

    /// A checkpoint copies a header word, the bitmap's words, a word for a
    /// cached verdict, one for an admission and one for a hold: 8 bytes
    /// fresh, 24 for a 70-edge vertex once marked (two words), 32 with its
    /// verdict cached, 40 admitted too, 48 held too. In memory `St` stays 24
    /// bytes: the flags share the bitmap pointer's padding.
    #[test]
    fn st_state_bytes_prices_header_bitmap_words_and_verdict() {
        assert_eq!(std::mem::size_of::<St>(), 24);
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
        comp.superstep_simple(|ctx| ctx.signal_along(label, 0));
        comp.superstep_simple(|ctx| {
            record_marks(ctx, Some((label, false)));
        });
        let st = &comp.states()[hub as usize];
        let set: Vec<usize> = (0..70).filter(|&i| st.marked(i)).collect();
        assert_eq!(set, [69], "the last spoke sits in the second word's slot 5");
        assert_eq!(st_state_bytes(st), 24);
        assert_eq!(st_state_bytes(&St { pass: Some(true), ..st.clone() }), 32);
        assert_eq!(st_state_bytes(&St { pass: Some(true), admitted: true, ..st.clone() }), 40);
        let held = St { pass: Some(true), admitted: true, held: true, ..st.clone() };
        assert_eq!(st_state_bytes(&held), 48);
    }

    /// The inline word holds out-edge slots 0..64; slot 64 is the first a
    /// hub keeps on the heap. Hubs of 64 and 65 spokes are signalled by the
    /// spokes at slots 0, 63 and (on the larger hub) 64: each mark reads
    /// back, and the bitmap is priced one word for 64 edges, two for 65.
    #[test]
    fn marks_cross_the_inline_word_at_edge_64() {
        let mut b = GraphBuilder::new();
        let vl = b.vertex_label("v");
        let label = b.edge_label("hub.spoke");
        let mut hubs = Vec::new();
        for degree in [64, 65] {
            let hub = b.add_vertex(vl);
            let spokes: Vec<VertexId> = (0..degree).map(|_| b.add_vertex(vl)).collect();
            for &spoke in &spokes {
                b.add_undirected_edge(hub, spoke, label);
            }
            hubs.push((hub, spokes));
        }
        let g = b.finish();
        let mut comp: Computation<'_, St, TagMsg> =
            Computation::new(&g, EngineConfig::sequential(), |_| St::default());
        let mut senders = Vec::new();
        for (hub, spokes) in &hubs {
            assert_eq!(st_state_bytes(&comp.states()[*hub as usize]), 8);
            let slots = if spokes.len() == 64 { &[0, 63][..] } else { &[0, 63, 64] };
            senders.extend(slots.iter().map(|&i| (spokes[i], *hub)));
        }
        comp.activate(senders.iter().map(|&(spoke, _)| spoke));
        comp.superstep_simple(|ctx| {
            let hub = senders.iter().find(|&&(spoke, _)| spoke == ctx.id()).unwrap().1;
            assert_eq!(ctx.edges()[0].target, hub, "a spoke's one edge leads to its hub");
            ctx.signal_along(label, 0);
        });
        comp.superstep_simple(|ctx| {
            record_marks(ctx, Some((label, false)));
        });
        for ((hub, spokes), (want, bytes)) in
            hubs.iter().zip([(&[0, 63][..], 16), (&[0, 63, 64], 24)])
        {
            let st = &comp.states()[*hub as usize];
            let set: Vec<usize> = (0..spokes.len()).filter(|&i| st.marked(i)).collect();
            assert_eq!(set, want, "hub of {} edges", spokes.len());
            assert_eq!(st_state_bytes(st), bytes, "hub of {} edges", spokes.len());
        }
        // Read a word at a time, the marks lead back to exactly the
        // signalling spokes; a clear across the word boundary keeps the
        // slots outside its run.
        comp.activate(hubs.iter().map(|&(hub, _)| hub));
        comp.superstep_simple(|ctx| signal_along_marks(ctx, label, false));
        let mut back: Vec<VertexId> = senders.iter().map(|&(spoke, _)| spoke).collect();
        back.sort_unstable();
        assert_eq!(comp.active(), back);
        let mut st = comp.states()[hubs[1].0 as usize].clone();
        st.clear(&(1..65));
        assert_eq!((0..65).filter(|&i| st.marked(i)).collect::<Vec<_>>(), [0]);
    }
}
