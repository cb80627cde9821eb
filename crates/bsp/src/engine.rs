//! The superstep execution engine.
//!
//! A [`Computation`] owns per-vertex user state and a pending-message table
//! over an immutable [`Graph`]. Each call to [`Computation::superstep`]
//! performs one BSP superstep:
//!
//! 1. **compute** — the user closure runs for every *active* vertex, in
//!    parallel over worker threads. It sees the vertex's state, its incoming
//!    messages from the previous superstep, and its out-edges; it may send
//!    messages to any vertex id it knows (its neighbours, or ids learned from
//!    messages — the Pregel rule).
//! 2. **barrier + delivery** — all outgoing messages become the next
//!    superstep's message table.
//! 3. **activation** — exactly the vertices that received at least one
//!    message are active in the next superstep.
//!
//! The message table holds a superstep's messages grouped by target in
//! three flat vectors: `active` (sorted, distinct targets), `inbox` and
//! `starts`, where `active[k]`'s messages are
//! `inbox[starts[k]..starts[k + 1]]`. Compute splits `active` into
//! contiguous chunks, one per worker; since `active` is sorted and
//! distinct, the chunks cover disjoint vertex-id ranges, and the states
//! vector is split (`split_at_mut`) at the range boundaries, so each worker
//! holds `&mut` to its own range's states only. Workers read the table by
//! shared borrow and append their sends, in send order, to their own
//! outbox.
//!
//! Delivery is one counting sort by target on the calling thread. The
//! outboxes are taken in worker order, which is source-vertex order;
//! messages are counted per target in a `u32` scratch of |V| entries that
//! is zero between supersteps, the distinct targets are sorted, and each
//! message is moved to its target's cursor. Every vertex therefore sees its
//! messages ordered by source vertex, then send order — for every thread
//! count. The table's vectors keep their capacity across supersteps.
//!
//! Threading: the compute phase runs on a persistent [`WorkerPool`]
//! (attached via [`Computation::set_worker_pool`] or created lazily) —
//! workers park on a condvar between supersteps instead of being respawned.
//! It only fans out when the active set reaches
//! [`EngineConfig::parallel_threshold`]; below it the phase runs on the
//! calling thread, so short supersteps pay no synchronization tax at all.
//! Both cases are one code path, `fan_out`.
//!
//! Fault tolerance is not in this file. A superstep always runs and never
//! consults a fault injector; checkpointing, rollback and replay wrap the
//! driver's superstep loop from outside ([`Computation::run_phase`], in
//! [`crate::recovery`]).

use crate::graph::{Edge, Graph, VertexId};
use crate::interner::LabelId;
use crate::partition::Partitioning;
use crate::pool::WorkerPool;
use crate::program::{Aggregator, Message};
use crate::recovery::FaultRuntime;
use crate::stats::{LabelTraffic, RunStats, StepStats};
use std::sync::{Arc, Mutex};

/// Default for [`EngineConfig::parallel_threshold`]: supersteps with fewer
/// active vertices than this compute on the calling thread. Chosen so the
/// pool hand-off (a mutex + condvar round-trip, ~microseconds) stays well
/// under 1% of the phase's own work.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 2048;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads for the compute phase.
    pub threads: usize,
    /// Minimum active vertices before the compute phase fans out to the
    /// worker pool. Below the threshold it runs on the calling thread (the
    /// message order, and therefore the result, is unchanged). `0` forces
    /// every superstep parallel; `usize::MAX` never fans out.
    pub parallel_threshold: usize,
}

impl Default for EngineConfig {
    /// Sizes `threads` from `std::thread::available_parallelism`, so the
    /// default **varies across hosts** (and in CI). Benchmarks, tests, and
    /// anything that must be reproducible should pin an explicit count via
    /// [`EngineConfig::with_threads`].
    fn default() -> EngineConfig {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        EngineConfig { threads: threads.min(16), parallel_threshold: DEFAULT_PARALLEL_THRESHOLD }
    }
}

impl EngineConfig {
    /// Single-threaded configuration (useful for deterministic debugging).
    pub fn sequential() -> EngineConfig {
        EngineConfig { threads: 1, parallel_threshold: DEFAULT_PARALLEL_THRESHOLD }
    }

    /// Configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> EngineConfig {
        EngineConfig { threads: threads.max(1), parallel_threshold: DEFAULT_PARALLEL_THRESHOLD }
    }

    /// Override the sequential-fallback threshold (see
    /// [`EngineConfig::parallel_threshold`]).
    pub fn with_parallel_threshold(mut self, threshold: usize) -> EngineConfig {
        self.parallel_threshold = threshold;
        self
    }
}

/// Per-vertex view handed to the compute closure for one superstep.
pub struct VertexCtx<'a, 'p, V, M: Message> {
    vid: VertexId,
    graph: &'a Graph,
    /// The vertex's mutable user state.
    pub state: &'a mut V,
    msgs: &'a [M],
    out: &'a mut Outbox<'p, M>,
}

impl<'a, 'p, V, M: Message> VertexCtx<'a, 'p, V, M> {
    /// This vertex's id.
    #[inline]
    pub fn id(&self) -> VertexId {
        self.vid
    }

    /// This vertex's label.
    #[inline]
    pub fn label(&self) -> LabelId {
        self.graph.label_of(self.vid)
    }

    /// Messages received from the previous superstep.
    #[inline]
    pub fn messages(&self) -> &'a [M] {
        self.msgs
    }

    /// All out-edges.
    #[inline]
    pub fn edges(&self) -> &'a [Edge] {
        self.graph.out_edges(self.vid)
    }

    /// Out-edges with a specific label.
    #[inline]
    pub fn edges_with(&self, label: LabelId) -> &'a [Edge] {
        self.graph.out_edges_with_label(self.vid, label)
    }

    /// Out-degree restricted to a label.
    #[inline]
    pub fn degree_with(&self, label: LabelId) -> usize {
        self.graph.degree_with_label(self.vid, label)
    }

    /// The underlying graph (read-only).
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Send a message to any vertex. Delivered at the next superstep. The
    /// traffic is attributed to the [`LabelId::NONE`] bucket of the
    /// per-label statistics; prefer [`VertexCtx::send_along`] when the send
    /// travels a known edge label.
    #[inline]
    pub fn send(&mut self, target: VertexId, msg: M) {
        self.out.send(self.vid, target, LabelId::NONE, msg);
    }

    /// Send a message along an edge with the given label: identical delivery
    /// semantics to [`VertexCtx::send`], but the traffic is attributed to
    /// `label` in the run's per-label statistics (feeding workload-aware
    /// partitioning's `TrafficProfile`).
    #[inline]
    pub fn send_along(&mut self, label: LabelId, target: VertexId, msg: M) {
        self.out.send(self.vid, target, label, msg);
    }
}

/// Per-worker outgoing messages: `(target, message)` in send order.
pub struct Outbox<'p, M: Message> {
    sent: Vec<(VertexId, M)>,
    partitioning: Option<&'p Partitioning>,
    /// Per-label traffic of this worker's sends — the only counters `send`
    /// keeps; the superstep's totals are their sum. A superstep touches only
    /// a handful of labels (TAG traversals: exactly one), so a linear-scan
    /// vec beats a map on the send hot path.
    per_label: Vec<(LabelId, LabelTraffic)>,
}

impl<'p, M: Message> Outbox<'p, M> {
    #[inline]
    fn send(&mut self, source: VertexId, target: VertexId, label: LabelId, msg: M) {
        let size = msg.byte_size() as u64;
        let crossing = self.partitioning.is_some_and(|p| p.crosses(source, target));
        let entry = match self.per_label.iter_mut().find(|(l, _)| *l == label) {
            Some((_, t)) => t,
            None => {
                self.per_label.push((label, LabelTraffic::default()));
                &mut self.per_label.last_mut().expect("just pushed").1
            }
        };
        entry.messages += 1;
        entry.bytes += size;
        if crossing {
            entry.network_messages += 1;
            entry.network_bytes += size;
        }
        self.sent.push((target, msg));
    }
}

/// Run `job(w)` once for every `w < n`: as one epoch of `pool` when there is
/// one (`WorkerPool::run` itself runs a single participant inline), on the
/// calling thread otherwise — a `threads == 1` engine never has a pool.
fn fan_out<F: Fn(usize) + Sync>(pool: Option<&WorkerPool>, n: usize, job: &F) {
    match pool {
        Some(pool) => pool.run(n, job),
        None => (0..n).for_each(job),
    }
}

/// A running vertex-centric computation: graph + states + message table +
/// statistics. The `pub(crate)` fields are what a checkpoint captures and a
/// rollback rewinds ([`crate::recovery`]).
pub struct Computation<'g, V, M: Message> {
    graph: &'g Graph,
    config: EngineConfig,
    pub(crate) states: Vec<V>,
    /// The pending-message table (module docs): the vertices the next
    /// superstep runs, sorted and distinct, with `active[k]`'s messages at
    /// `inbox[starts[k]..starts[k + 1]]`. `starts` always has
    /// `active.len() + 1` entries.
    pub(crate) active: Vec<VertexId>,
    pub(crate) inbox: Vec<M>,
    pub(crate) starts: Vec<usize>,
    /// Delivery's per-vertex count, then cursor; all zero between
    /// supersteps.
    cursor: Vec<u32>,
    pub(crate) stats: RunStats,
    pub(crate) partitioning: Option<Arc<Partitioning>>,
    /// Persistent worker runtime for parallel phases. Shared when the host
    /// attached one ([`Computation::set_worker_pool`]); otherwise created
    /// lazily — and its OS threads spawn lazier still, on the first phase
    /// that actually fans out.
    workers: Option<Arc<WorkerPool>>,
    /// Fault-tolerance runtime, consulted by [`Computation::run_phase`] only
    /// (`None` = no injection, no checkpoints).
    pub(crate) faults: Option<FaultRuntime<V, M>>,
}

impl<'g, V: Send, M: Message> Computation<'g, V, M> {
    /// Create a computation with per-vertex state produced by `init`.
    pub fn new(graph: &'g Graph, config: EngineConfig, init: impl Fn(VertexId) -> V) -> Self {
        let n = graph.vertex_count();
        Computation {
            graph,
            config,
            states: (0..n as VertexId).map(init).collect(),
            active: Vec::new(),
            inbox: Vec::new(),
            starts: vec![0],
            cursor: vec![0; n],
            stats: RunStats::default(),
            partitioning: None,
            workers: None,
            faults: None,
        }
    }

    /// Attach a shared persistent [`WorkerPool`] for parallel phases.
    /// Hosts that run many computations (a session re-executing prepared
    /// queries) share one pool so every run reuses the same parked worker
    /// threads. Without this, the computation lazily creates a private pool
    /// on its first parallel superstep. The pool must have at least
    /// [`EngineConfig::threads`] worker slots.
    pub fn set_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        assert!(
            pool.threads() >= self.config.threads,
            "pool has {} worker slots but the engine is configured for {} threads",
            pool.threads(),
            self.config.threads
        );
        self.workers = Some(pool);
    }

    /// The attached worker pool, if any parallel superstep has run (or a
    /// pool was attached explicitly).
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.workers.as_ref()
    }

    /// Attach a machine partitioning: subsequent supersteps will count
    /// cross-machine traffic in their [`StepStats`].
    pub fn set_partitioning(&mut self, p: Partitioning) {
        self.partitioning = Some(Arc::new(p));
    }

    /// [`Computation::set_partitioning`] without copying: callers that hold
    /// a placement across many computations (a session serving a workload)
    /// share one allocation instead of cloning the per-vertex assignment
    /// into every run.
    pub fn set_partitioning_shared(&mut self, p: Arc<Partitioning>) {
        self.partitioning = Some(p);
    }

    /// The graph being computed over.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Replace the active set (deduplicated and sorted), with no messages.
    /// A phase-boundary operation: no message may be in flight, since a
    /// vertex left out of the new set would lose its messages (debug builds
    /// assert it; release builds drop them).
    pub fn activate(&mut self, vertices: impl IntoIterator<Item = VertexId>) {
        debug_assert!(
            self.inbox.is_empty(),
            "activate with {} messages in flight",
            self.inbox.len()
        );
        self.inbox.clear();
        self.active.clear();
        self.active.extend(vertices);
        self.active.sort_unstable();
        self.active.dedup();
        self.starts.clear();
        self.starts.resize(self.active.len() + 1, 0);
    }

    /// Activate all vertices with the given vertex label.
    pub fn activate_label(&mut self, label: LabelId) {
        let graph = self.graph;
        self.activate(graph.vertices_with_label(label).iter().copied());
    }

    /// Currently active vertices (sorted and deduplicated).
    pub fn active(&self) -> &[VertexId] {
        &self.active
    }

    /// True iff no vertex is active (the computation has converged).
    pub fn halted(&self) -> bool {
        self.active.is_empty()
    }

    /// All vertex states, indexed by vertex id.
    pub fn states(&self) -> &[V] {
        &self.states
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Consume the computation, returning states and statistics.
    pub fn finish(self) -> (Vec<V>, RunStats) {
        (self.states, self.stats)
    }

    /// Run one superstep with a global aggregator.
    ///
    /// `compute` runs once per active vertex and may fold into its worker's
    /// local aggregate; worker aggregates are merged (in worker order) into
    /// the returned value. This is the engine-level realization of the
    /// paper's aggregation vertex: a value every vertex can contribute to,
    /// visible to the host (and passable back into the next superstep).
    ///
    /// The call always runs and records exactly one superstep. Fault
    /// injection and checkpoint recovery wrap it from outside
    /// ([`Computation::run_phase`]); nothing in here consults the injector.
    pub fn superstep<G, F>(&mut self, compute: F) -> (StepStats, G)
    where
        G: Aggregator,
        F: for<'x, 'y> Fn(&mut VertexCtx<'x, 'y, V, M>, &mut G) + Sync,
    {
        let threads = self.config.threads;
        let n = self.active.len();
        // Adaptive sequential fallback: below the threshold the pool
        // hand-off would cost more than it buys, so the phase gets a single
        // worker (none when nothing is active — the superstep is still
        // recorded so the count matches the driver's step sequence).
        // Delivery orders messages the same way for any worker count.
        let workers = n.min(if n >= self.config.parallel_threshold { threads } else { 1 });
        let chunk = n.div_ceil(workers.max(1));
        // The persistent runtime. Creating the pool is free (OS threads
        // spawn on its first fan-out), so a multi-thread config makes one
        // here even if every superstep takes the sequential fallback.
        if threads > 1 && self.workers.is_none() {
            self.workers = Some(Arc::new(WorkerPool::new(threads)));
        }

        // --- compute phase -------------------------------------------------
        // Worker `w` owns one part: its chunk `lo..hi` of the active list,
        // the id its state range starts at, the states from the previous
        // worker's boundary up to `active[hi]` (the last worker: up to |V|),
        // its outbox and its aggregate. The active list is sorted and
        // distinct, so every chunk's vertices lie in its own range. A part
        // sits behind a lock that only its worker ever takes.
        let (active, inbox, starts) = (&self.active, &self.inbox, &self.starts);
        let graph = self.graph;
        let partitioning = self.partitioning.as_deref();
        let mut rest = self.states.as_mut_slice();
        let mut first = 0;
        let parts: Vec<_> = (0..workers)
            .map(|w| {
                let (lo, hi) = ((w * chunk).min(n), ((w + 1) * chunk).min(n));
                let end = active.get(hi).map_or(graph.vertex_count(), |&v| v as usize);
                let (states, tail) = std::mem::take(&mut rest).split_at_mut(end - first);
                let out = Outbox { sent: Vec::new(), partitioning, per_label: Vec::new() };
                let part = (lo..hi, first as VertexId, states, out, G::default());
                (rest, first) = (tail, end);
                Mutex::new(part)
            })
            .collect();
        fan_out(self.workers.as_deref(), workers, &|w| {
            let mut part = parts[w].lock().expect("only worker `w` takes part `w`");
            let (lo_hi, first, states, out, agg) = &mut *part;
            let runs = starts[lo_hi.start..=lo_hi.end].windows(2);
            for (&v, run) in active[lo_hi.clone()].iter().zip(runs) {
                let state = &mut states[(v - *first) as usize];
                let msgs = &inbox[run[0]..run[1]];
                let mut ctx = VertexCtx { vid: v, graph, state, msgs, out };
                compute(&mut ctx, agg);
            }
        });

        // --- merge aggregates and counters ----------------------------------
        // The step's traffic totals are the sum of the per-label counters
        // (the only ones `Outbox::send` keeps), so the per-label breakdown
        // adds up to the totals by construction.
        let mut step = StepStats { active_vertices: n as u64, ..Default::default() };
        let mut global = G::default();
        let mut outboxes = Vec::with_capacity(workers);
        let mut step_labels: Vec<(LabelId, LabelTraffic)> = Vec::new();
        for part in parts {
            let (.., out, agg) = part.into_inner().expect("a panicked phase never merges");
            for (label, t) in &out.per_label {
                step.add_traffic(t);
                match step_labels.iter_mut().find(|(l, _)| l == label) {
                    Some((_, acc)) => acc.add(t),
                    None => step_labels.push((*label, *t)),
                }
            }
            global.merge(agg);
            outboxes.push(out.sent);
        }
        self.deliver(outboxes);
        self.stats.record_step(step, &step_labels);
        (step, global)
    }

    /// Replace the consumed message table by the outboxes' messages, by one
    /// stable counting sort on target. `outboxes` come in worker order (=
    /// source-vertex order), each holding its worker's sends in send order.
    #[allow(unsafe_code, reason = "one `set_len` over slots written exactly once")]
    fn deliver(&mut self, outboxes: Vec<Vec<(VertexId, M)>>) {
        let total = outboxes.iter().map(Vec::len).sum::<usize>();
        assert!(u32::try_from(total).is_ok(), "{total} messages in one superstep");
        let cursor = &mut self.cursor;
        self.inbox.clear();
        self.active.clear();
        // Count per target, collecting each target on its first message.
        for &(t, _) in outboxes.iter().flatten() {
            let c = &mut cursor[t as usize];
            if *c == 0 {
                self.active.push(t);
            }
            *c += 1;
        }
        self.active.sort_unstable();
        // Prefix sums: each target's cursor becomes its first slot.
        self.starts.clear();
        self.starts.push(0);
        let mut end = 0;
        for &t in &self.active {
            let c = &mut cursor[t as usize];
            (*c, end) = (end, end + *c);
            self.starts.push(end as usize);
        }
        // Only a scratch left dirty by a panic below (a send to a vertex
        // outside the graph) can hide a target from `active`.
        assert_eq!(end as usize, total, "delivery scratch not reset");
        // Move every message to its target's cursor.
        self.inbox.reserve(total);
        let slots = self.inbox.spare_capacity_mut();
        for (t, m) in outboxes.into_iter().flatten() {
            let c = &mut cursor[t as usize];
            slots[*c as usize].write(m);
            *c += 1;
        }
        // SAFETY: `end == total`, so every target is in `active` with its
        // exact count; `active[k]`'s cursor ran from `starts[k]` to
        // `starts[k + 1]`, one slot per message, and those runs tile
        // `0..total`: every slot below `total` was written exactly once.
        unsafe { self.inbox.set_len(total) };
        for &t in &self.active {
            cursor[t as usize] = 0;
        }
    }

    /// Run one superstep without a global aggregator.
    pub fn superstep_simple<F>(&mut self, compute: F) -> StepStats
    where
        F: for<'x, 'y> Fn(&mut VertexCtx<'x, 'y, V, M>) + Sync,
    {
        self.superstep::<(), _>(|ctx, _| compute(ctx)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// A line graph 0 - 1 - 2 - ... - (n-1) with one edge label.
    fn line(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let vl = b.vertex_label("v");
        let el = b.edge_label("next");
        for _ in 0..n {
            b.add_vertex(vl);
        }
        for i in 0..n - 1 {
            b.add_undirected_edge(i as VertexId, (i + 1) as VertexId, el);
        }
        b.finish()
    }

    #[test]
    fn wave_propagates_and_halts() {
        let g = line(5);
        // Each vertex stores the wave value; vertex 0 starts a wave that
        // increments as it travels right.
        let mut comp: Computation<'_, u64, u64> =
            Computation::new(&g, EngineConfig::sequential(), |_| 0);
        comp.activate([0]);
        let mut step = 0u64;
        while !comp.halted() {
            comp.superstep_simple(|ctx| {
                let incoming = ctx.messages().iter().copied().max().unwrap_or(0);
                *ctx.state = incoming;
                let next = ctx.id() + 1;
                if (next as usize) < ctx.graph().vertex_count() {
                    ctx.send(next, incoming + 1);
                }
            });
            step += 1;
            assert!(step < 20, "did not halt");
        }
        let (states, stats) = comp.finish();
        assert_eq!(states, vec![0, 1, 2, 3, 4]);
        // Vertices 0..4 each send one forwarding message; vertex 4 has no
        // right neighbour. 5 supersteps total (the last sends nothing).
        assert_eq!(stats.total_messages(), 4);
        assert_eq!(stats.supersteps, 5);
    }

    #[test]
    fn results_independent_of_thread_count() {
        let g = line(64);
        let run = |threads: usize| {
            // Threshold 0: force the pool even at this tiny scale, so the
            // test covers the parallel phase, not the fallback.
            let mut comp: Computation<'_, u64, u64> = Computation::new(
                &g,
                EngineConfig::with_threads(threads).with_parallel_threshold(0),
                |_| 0,
            );
            comp.activate(g.vertices());
            // Superstep 1: everyone sends two messages to each neighbour.
            // Superstep 2: everyone folds what it received, order-sensitively.
            comp.superstep_simple(|ctx| {
                let targets: Vec<VertexId> = ctx.edges().iter().map(|e| e.target).collect();
                for t in targets {
                    let id = ctx.id() as u64;
                    ctx.send(t, id);
                    ctx.send(t, 1000 + id);
                }
            });
            comp.superstep_simple(|ctx| {
                *ctx.state = ctx
                    .messages()
                    .iter()
                    .fold(0u64, |acc, &m| acc.wrapping_mul(131).wrapping_add(m + 1));
            });
            let (states, stats) = comp.finish();
            (states, stats.total_messages())
        };
        let (s1, m1) = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), (s1.clone(), m1), "threads={threads}");
        }
    }

    /// A sparse active set leaves gaps between the workers' id ranges, and
    /// at 8 threads some chunks hold one vertex or none: every state lands
    /// at its own vertex, and inactive vertices keep their initial state.
    #[test]
    fn sparse_active_sets_split_states_at_chunk_boundaries() {
        let g = line(64);
        let init = |v: VertexId| 7 * v as u64 + 3;
        let run = |threads: usize| {
            let mut comp: Computation<'_, u64, u64> = Computation::new(
                &g,
                EngineConfig::with_threads(threads).with_parallel_threshold(0),
                init,
            );
            comp.activate([0, 1, 9, 10, 11, 40, 63]);
            comp.superstep_simple(|ctx| {
                let id = ctx.id() as u64;
                *ctx.state = 1000 + id;
                let targets: Vec<VertexId> = ctx.edges().iter().map(|e| e.target).collect();
                for t in targets {
                    ctx.send(t, id);
                }
            });
            comp.superstep_simple(|ctx| {
                let folded = ctx
                    .messages()
                    .iter()
                    .fold(*ctx.state, |acc, &m| acc.wrapping_mul(131).wrapping_add(m + 1));
                *ctx.state = folded;
            });
            let (states, stats) = comp.finish();
            (states, stats.totals, stats.steps)
        };
        let reference = run(1);
        let touched = [0, 1, 2, 8, 9, 10, 11, 12, 39, 40, 41, 62, 63];
        for v in (0..64).filter(|v| !touched.contains(v)) {
            assert_eq!(reference.0[v as usize], init(v), "vertex {v} was never active");
        }
        assert_eq!((reference.0[40], reference.0[63]), (1040, 1063));
        for threads in [2, 3, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    /// Each vertex's messages come ordered by source vertex, then send
    /// order, whichever worker ran the source.
    #[test]
    fn messages_arrive_in_source_then_send_order() {
        let g = line(40);
        for threads in [1, 4] {
            let mut comp: Computation<'_, Vec<u64>, u64> = Computation::new(
                &g,
                EngineConfig::with_threads(threads).with_parallel_threshold(0),
                |_| Vec::new(),
            );
            comp.activate((0..40).rev());
            comp.superstep_simple(|ctx| {
                let id = ctx.id() as u64;
                ctx.send(7, 2 * id);
                ctx.send(3, 0);
                ctx.send(7, 2 * id + 1);
            });
            assert_eq!(comp.active(), &[3, 7]);
            comp.superstep_simple(|ctx| *ctx.state = ctx.messages().to_vec());
            assert_eq!(comp.states()[7], (0..80).collect::<Vec<u64>>(), "threads={threads}");
            assert_eq!(comp.states()[3], vec![0; 40], "threads={threads}");
        }
    }

    #[test]
    fn aggregator_merges_across_workers() {
        #[derive(Default)]
        struct Sum(u64);
        impl Aggregator for Sum {
            fn merge(&mut self, other: Self) {
                self.0 += other.0;
            }
        }
        let g = line(100);
        let mut comp: Computation<'_, (), u64> =
            Computation::new(&g, EngineConfig::with_threads(4).with_parallel_threshold(0), |_| ());
        comp.activate(g.vertices());
        let (_, total) = comp.superstep(|ctx, agg: &mut Sum| {
            agg.0 += ctx.id() as u64;
        });
        assert_eq!(total.0, (0..100).sum::<u64>());
    }

    #[test]
    fn network_accounting_counts_only_crossings() {
        let g = line(4);
        let mut comp: Computation<'_, (), u64> =
            Computation::new(&g, EngineConfig::sequential(), |_| ());
        // machines: [0,0,1,1] — only the 1-2 edge crosses.
        comp.set_partitioning(Partitioning::from_assignment(vec![0, 0, 1, 1], 2));
        comp.activate(g.vertices());
        let stats = comp.superstep_simple(|ctx| {
            let targets: Vec<VertexId> = ctx.edges().iter().map(|e| e.target).collect();
            for t in targets {
                ctx.send(t, 7);
            }
        });
        assert_eq!(stats.messages, 6); // 2*(n-1) directed sends
        assert_eq!(stats.network_messages, 2); // 1→2 and 2→1
        assert_eq!(stats.network_bytes, 2 * std::mem::size_of::<u64>() as u64);
    }

    #[test]
    fn per_label_traffic_sums_to_totals() {
        let g = line(6);
        let label = g.edge_label_id("next").unwrap();
        let mut comp: Computation<'_, (), u64> =
            Computation::new(&g, EngineConfig::with_threads(3).with_parallel_threshold(0), |_| ());
        comp.set_partitioning(Partitioning::from_assignment(vec![0, 0, 1, 1, 0, 1], 2));
        comp.activate(g.vertices());
        comp.superstep_simple(|ctx| {
            // Labeled sends along real edges, plus one unlabeled send.
            let targets: Vec<VertexId> = ctx.edges().iter().map(|e| e.target).collect();
            for t in targets {
                ctx.send_along(label, t, 1);
            }
            ctx.send(0, 2);
        });
        let stats = comp.stats();
        let labeled = stats.label_traffic(label);
        let unlabeled = stats.label_traffic(crate::LabelId::NONE);
        assert_eq!(labeled.messages, 10); // 2*(n-1) directed sends
        assert_eq!(unlabeled.messages, 6);
        assert_eq!(labeled.messages + unlabeled.messages, stats.total_messages());
        assert_eq!(labeled.bytes + unlabeled.bytes, stats.total_bytes());
        assert_eq!(
            labeled.network_messages + unlabeled.network_messages,
            stats.totals.network_messages
        );
        assert_eq!(labeled.network_bytes + unlabeled.network_bytes, stats.totals.network_bytes);
        assert!(labeled.network_messages > 0, "the 1-2 and 3-4 crossings are labeled");
    }

    /// All-to-neighbours ping used by the runtime tests below, then a
    /// superstep that consumes it, so the next ping may activate again.
    fn ping_all(comp: &mut Computation<'_, u64, u64>, g: &Graph) {
        comp.activate(g.vertices());
        comp.superstep_simple(|ctx| {
            let targets: Vec<VertexId> = ctx.edges().iter().map(|e| e.target).collect();
            for t in targets {
                let id = ctx.id() as u64;
                ctx.send(t, id);
            }
        });
        comp.superstep_simple(|ctx| *ctx.state = ctx.messages().iter().sum());
    }

    #[test]
    fn worker_threads_persist_across_supersteps() {
        let g = line(64);
        let mut comp: Computation<'_, u64, u64> =
            Computation::new(&g, EngineConfig::with_threads(4).with_parallel_threshold(0), |_| 0);
        for round in 0..10 {
            ping_all(&mut comp, &g);
            let pool = comp.worker_pool().expect("parallel superstep created the pool");
            assert_eq!(pool.spawned_workers(), 3, "round {round}: threads-1 workers, once");
            assert_eq!(pool.live_workers(), 3, "round {round}: workers parked, not respawned");
        }
    }

    #[test]
    fn small_supersteps_skip_thread_spawn() {
        let g = line(32);
        // Default threshold (2048) dwarfs this graph: every phase must take
        // the sequential fallback and never start an OS thread.
        let mut comp: Computation<'_, u64, u64> =
            Computation::new(&g, EngineConfig::with_threads(4), |_| 0);
        for _ in 0..3 {
            ping_all(&mut comp, &g);
        }
        let pool = comp.worker_pool().expect("multi-thread config carries a pool");
        assert_eq!(pool.spawned_workers(), 0, "sub-threshold supersteps must not spawn");
        assert_eq!(comp.stats().total_messages(), 3 * 2 * 31);
    }

    #[test]
    fn shared_pool_outlives_computations() {
        let g = line(64);
        let pool = Arc::new(crate::pool::WorkerPool::new(3));
        for _ in 0..20 {
            let mut comp: Computation<'_, u64, u64> = Computation::new(
                &g,
                EngineConfig::with_threads(3).with_parallel_threshold(0),
                |_| 0,
            );
            comp.set_worker_pool(Arc::clone(&pool));
            ping_all(&mut comp, &g);
            assert_eq!(comp.worker_pool().unwrap().spawned_workers(), 2);
        }
        // Every computation released its handle and the workers still run.
        assert_eq!(Arc::strong_count(&pool), 1);
        assert_eq!(pool.live_workers(), 2);
    }

    #[test]
    fn undersized_shared_pool_is_rejected() {
        let g = line(8);
        let mut comp: Computation<'_, u64, u64> =
            Computation::new(&g, EngineConfig::with_threads(4), |_| 0);
        let pool = Arc::new(crate::pool::WorkerPool::new(2));
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| comp.set_worker_pool(pool)));
        assert!(r.is_err(), "a pool smaller than the engine's thread count must be rejected");
    }

    #[test]
    fn empty_superstep_is_recorded() {
        let g = line(2);
        let mut comp: Computation<'_, (), u64> =
            Computation::new(&g, EngineConfig::sequential(), |_| ());
        let stats = comp.superstep_simple(|_| {});
        assert_eq!(stats.active_vertices, 0);
        assert_eq!(comp.stats().supersteps, 1);
    }

    /// A send to a vertex outside the graph panics in delivery, leaving a
    /// stale count in the scratch; a host that catches that and steps again
    /// gets a panic too, never a message table with unwritten slots.
    #[test]
    fn sends_outside_the_graph_panic_and_a_stale_scratch_is_caught() {
        let g = line(3);
        let mut comp: Computation<'_, (), u64> =
            Computation::new(&g, EngineConfig::sequential(), |_| ());
        let mut step = |active: &[VertexId]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                comp.activate(active.iter().copied());
                comp.superstep_simple(|ctx| ctx.send(if ctx.id() == 0 { 2 } else { 99 }, 1));
            }))
        };
        assert!(step(&[0, 1]).is_err(), "vertex 99 does not exist");
        assert!(step(&[0]).is_err(), "vertex 2's count is stale");
    }

    /// `activate` is a phase-boundary operation: with messages in flight a
    /// vertex left out of the new set would lose them.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "messages in flight")]
    fn activate_with_messages_in_flight_panics() {
        let g = line(3);
        let mut comp: Computation<'_, (), u64> =
            Computation::new(&g, EngineConfig::sequential(), |_| ());
        comp.activate([0]);
        comp.superstep_simple(|ctx| ctx.send(1, 5));
        comp.activate([2]);
    }
}
