//! The superstep execution engine.
//!
//! A [`Computation`] owns per-vertex user state and message inboxes over an
//! immutable [`Graph`]. Each call to [`Computation::superstep`] performs one
//! BSP superstep:
//!
//! 1. **compute** — the user closure runs for every *active* vertex, in
//!    parallel over worker threads. It sees the vertex's state, its incoming
//!    messages from the previous superstep, and its out-edges; it may send
//!    messages to any vertex id it knows (its neighbours, or ids learned from
//!    messages — the Pregel rule).
//! 2. **barrier + delivery** — all outgoing messages are delivered into the
//!    target inboxes.
//! 3. **activation** — exactly the vertices that received at least one
//!    message are active in the next superstep.
//!
//! Parallelism layout: the sorted active list is split into contiguous chunks,
//! one per worker. Each worker writes only to the states/inboxes of its own
//! vertices during compute, and delivery is sharded by `target % shards`, so
//! workers always touch disjoint slots; the `SharedMut` wrapper below
//! documents and encapsulates that invariant. Message delivery concatenates
//! worker outboxes in worker order, which equals source-vertex order — so
//! inbox contents are deterministic and independent of the thread count.
//!
//! Buffer reuse: outbox shard buffers are recycled through a pool on the
//! [`Computation`] instead of being reallocated every superstep, delivery
//! *moves* messages into inboxes (no per-message clone), and inbox `Vec`s
//! live for the whole computation (cleared, not dropped, after compute) —
//! so steady-state supersteps run allocation-free on the message path. The
//! pool is refilled in shard-major, worker-minor order after each delivery,
//! which keeps the whole cycle deterministic. Recycled buffers whose
//! capacity dwarfs their last use are shrunk on the way back, so the
//! working set decays after a peak superstep instead of tracking it
//! forever.
//!
//! Threading: parallel phases run on a persistent [`WorkerPool`] (attached
//! via [`Computation::set_worker_pool`] or created lazily) — workers park on
//! a condvar between phases instead of being respawned per superstep. A
//! phase only fans out when its work item count reaches
//! [`EngineConfig::parallel_threshold`]; below it the phase runs on the
//! calling thread, so short supersteps pay no synchronization tax at all.
//! Both cases are one code path: compute and delivery each hand their
//! per-worker / per-shard job to `fan_out`, which runs it on the pool or
//! inline.
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
use std::sync::Arc;

/// Default for [`EngineConfig::parallel_threshold`]: phases with fewer work
/// items than this run sequentially. Chosen so the per-phase pool hand-off
/// (a mutex + condvar round-trip, ~microseconds) stays well under 1% of the
/// phase's own work.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 2048;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (also the number of delivery shards).
    pub threads: usize,
    /// Minimum work items — active vertices for the compute phase, pending
    /// messages for the delivery phase — before the phase fans out to the
    /// worker pool. Below the threshold the phase runs on the calling
    /// thread (the shard layout, and therefore the result, is unchanged).
    /// `0` forces every phase parallel; `usize::MAX` never fans out.
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

/// Per-worker outgoing message buffer, sharded by target for lock-free
/// delivery.
pub struct Outbox<'p, M: Message> {
    shards: Vec<Vec<(VertexId, M)>>,
    partitioning: Option<&'p Partitioning>,
    /// Per-label traffic of this worker's sends — the only counters `send`
    /// keeps; the superstep's totals are their sum. A superstep touches only
    /// a handful of labels (TAG traversals: exactly one), so a linear-scan
    /// vec beats a map on the send hot path.
    per_label: Vec<(LabelId, LabelTraffic)>,
}

impl<'p, M: Message> Outbox<'p, M> {
    /// Build over recycled (empty) shard buffers from the computation's pool.
    fn new(
        shards: Vec<Vec<(VertexId, M)>>,
        partitioning: Option<&'p Partitioning>,
    ) -> Outbox<'p, M> {
        debug_assert!(shards.iter().all(Vec::is_empty), "pooled shard buffer not drained");
        Outbox { shards, partitioning, per_label: Vec::new() }
    }

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
        let shard = target as usize % self.shards.len();
        self.shards[shard].push((target, msg));
    }
}

/// Pointer wrapper allowing disjoint `&mut` access to a slice from several
/// workers.
///
/// # Safety invariant
/// Every index is written by at most one worker per phase: compute workers own
/// the vertices of their chunk of the (deduplicated) active list; delivery
/// workers own the inboxes of `target % shards == shard`.
///
/// In debug builds the invariant is also *checked*: every [`SharedMut::get`]
/// records which thread claimed the index, and a second thread claiming the
/// same index panics instead of racing. Phases re-partition ownership behind
/// the pool's epoch barrier, so the engine calls [`SharedMut::reset_claims`]
/// at the phase boundary.
struct SharedMut<T> {
    ptr: *mut T,
    /// Debug-build shadow of the invariant: index -> first claiming thread
    /// since the last phase boundary.
    #[cfg(debug_assertions)]
    claims: std::sync::Mutex<std::collections::HashMap<usize, std::thread::ThreadId>>,
}

// SAFETY: `SharedMut` hands out `&mut T` across threads, which is sound only
// under the type's disjoint-index invariant; given that, it is equivalent to
// partitioning one `&mut [T]` into per-worker sub-slices, so `T: Send`
// suffices for both bounds.
unsafe impl<T: Send> Send for SharedMut<T> {}
// SAFETY: as above — shared handles never produce aliasing `&mut T` because
// each index belongs to exactly one worker per phase.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    fn new(ptr: *mut T) -> SharedMut<T> {
        SharedMut {
            ptr,
            #[cfg(debug_assertions)]
            claims: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// # Safety
    /// Caller must uphold the disjoint-index invariant described on the type.
    //
    // `&mut` out of `&self` is the point of this type (clippy::mut_from_ref):
    // exclusivity is provided by the disjoint-index protocol — enforced
    // dynamically in debug builds by `record_claim` — not the borrow checker.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    unsafe fn get(&self, index: usize) -> &mut T {
        #[cfg(debug_assertions)]
        self.record_claim(index);
        // SAFETY: forwarded to the caller, who owns `index` this phase; the
        // pointee outlives the wrapper (it borrows the engine's Vec).
        unsafe { &mut *self.ptr.add(index) }
    }

    /// Debug-build disjointness check: the first claim owns the index until
    /// the next [`SharedMut::reset_claims`]; a claim from any other thread is
    /// exactly the data race the `# Safety` contract forbids, caught before
    /// the aliasing `&mut` is created.
    #[cfg(debug_assertions)]
    fn record_claim(&self, index: usize) {
        let me = std::thread::current().id();
        let mut claims = self.claims.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(owner) = claims.insert(index, me) {
            assert!(
                owner == me,
                "SharedMut disjointness violated: index {index} claimed by \
                 {owner:?} and {me:?} in the same phase"
            );
        }
    }

    /// Forget recorded claims at a phase boundary (debug builds only). Sound
    /// because phases are separated by the pool's epoch barrier: no worker
    /// still holds a reference from the previous phase when ownership
    /// re-partitions.
    #[cfg(debug_assertions)]
    fn reset_claims(&self) {
        self.claims.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// One buffer per delivery shard, as handed to a single compute worker's
/// outbox (shard `s` collects the messages this worker sends to targets with
/// `target % shards == s`).
type ShardSet<M> = Vec<Vec<(VertexId, M)>>;

/// Shrink a recycled (drained) shard buffer whose capacity dwarfs its last
/// use, so the buffer pool's memory high-water decays after a peak
/// superstep instead of tracking it for the computation's lifetime. Keeps
/// 2x the last use (hysteresis: only acts past 4x, so a stable workload
/// never thrashes between shrink and regrow) and never shrinks below a
/// small floor.
fn shrink_recycled<T>(buf: &mut Vec<T>, used: usize) {
    const FLOOR: usize = 32;
    debug_assert!(buf.is_empty(), "shrink only applies to drained buffers");
    let keep = used.max(FLOOR);
    if buf.capacity() > 4 * keep {
        buf.shrink_to(2 * keep);
    }
}

/// Run `job(w)` once for every `w < n`: as one epoch of `pool` when there is
/// one (`WorkerPool::run` itself runs a single participant inline), on the
/// calling thread otherwise — a `threads == 1` engine never has a pool, and
/// a phase below the parallel threshold passes `None`.
fn fan_out<F: Fn(usize) + Sync>(pool: Option<&WorkerPool>, n: usize, job: &F) {
    match pool {
        Some(pool) => pool.run(n, job),
        None => (0..n).for_each(job),
    }
}

/// A running vertex-centric computation: graph + states + inboxes + active
/// set + statistics. The `pub(crate)` fields are what a checkpoint captures
/// and a rollback rewinds ([`crate::recovery`]).
pub struct Computation<'g, V, M: Message> {
    graph: &'g Graph,
    config: EngineConfig,
    pub(crate) states: Vec<V>,
    pub(crate) inboxes: Vec<Vec<M>>,
    active: Vec<VertexId>,
    /// True when `active` holds unsorted/duplicated host injections;
    /// normalized lazily at the next superstep (keeps `inject` O(1)).
    active_dirty: bool,
    pub(crate) stats: RunStats,
    pub(crate) partitioning: Option<Arc<Partitioning>>,
    /// Recycled outbox shard buffers (always drained): each superstep takes
    /// `workers x shards` buffers here and returns them after delivery, so
    /// steady-state supersteps reuse capacity instead of reallocating.
    shard_pool: Vec<Vec<(VertexId, M)>>,
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
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            active_dirty: false,
            stats: RunStats::default(),
            partitioning: None,
            shard_pool: Vec::new(),
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

    /// Replace the active set (deduplicated and sorted).
    pub fn activate(&mut self, vertices: impl IntoIterator<Item = VertexId>) {
        self.active = vertices.into_iter().collect();
        self.active.sort_unstable();
        self.active.dedup();
        self.active_dirty = false;
    }

    /// Activate all vertices with the given vertex label.
    pub fn activate_label(&mut self, label: LabelId) {
        self.activate(self.graph.vertices_with_label(label).to_vec());
    }

    /// Inject a message into a vertex's inbox and activate it (host-side
    /// seeding; not counted as engine communication). O(1): duplicates are
    /// deduplicated and the list re-sorted lazily at the next superstep, so
    /// seeding n vertices is O(n log n) total, not O(n²).
    pub fn inject(&mut self, target: VertexId, msg: M) {
        self.inboxes[target as usize].push(msg);
        self.active.push(target);
        self.active_dirty = true;
    }

    /// Batch [`Computation::inject`]: seed many `(target, message)` pairs
    /// with a single sort + dedup of the active list.
    pub fn inject_all(&mut self, msgs: impl IntoIterator<Item = (VertexId, M)>) {
        for (target, msg) in msgs {
            self.inboxes[target as usize].push(msg);
            self.active.push(target);
        }
        self.active_dirty = true;
        self.normalize_active();
    }

    /// Sort + dedup the active list if host injections left it dirty.
    pub(crate) fn normalize_active(&mut self) {
        if self.active_dirty {
            self.active.sort_unstable();
            self.active.dedup();
            self.active_dirty = false;
        }
    }

    /// Currently active vertices (sorted and deduplicated, except between
    /// consecutive [`Computation::inject`] calls — normalized again at the
    /// next superstep or [`Computation::inject_all`]).
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
        self.normalize_active();
        let shards = self.config.threads;
        let threshold = self.config.parallel_threshold;
        let active = std::mem::take(&mut self.active);
        // Adaptive sequential fallback: below the threshold the pool
        // hand-off would cost more than it buys, so the phase gets a single
        // worker (none when nothing is active — the superstep is still
        // recorded so the count matches the driver's step sequence). The
        // shard layout is identical either way, so results (and the
        // documented delivery determinism) don't depend on this choice.
        let workers = active.len().min(if active.len() >= threshold { shards } else { 1 });
        let chunk = active.len().div_ceil(workers.max(1));
        // The persistent runtime. Creating the pool is free (OS threads
        // spawn on the first fan-out inside `WorkerPool::run`), so a
        // multi-thread config materializes one here even if every phase
        // ends up taking the sequential fallback.
        if shards > 1 && self.workers.is_none() {
            self.workers = Some(Arc::new(WorkerPool::new(shards)));
        }
        let worker_pool = self.workers.clone();

        // Recycled shard buffers: hand each worker `shards` drained buffers
        // from the pool (topped up with fresh ones on the first supersteps).
        let mut buf_pool = std::mem::take(&mut self.shard_pool);
        let mut take_shard_set = || {
            let start = buf_pool.len().saturating_sub(shards);
            let mut set: ShardSet<M> = buf_pool.drain(start..).collect();
            set.resize_with(shards, Vec::new);
            set
        };

        let states = SharedMut::new(self.states.as_mut_ptr());
        let inboxes = SharedMut::new(self.inboxes.as_mut_ptr());
        let graph = self.graph;
        let partitioning = self.partitioning.as_deref();

        // --- compute phase -------------------------------------------------
        // One slot per worker, pre-filled with its outbox and aggregate and
        // written back through `SharedMut` — a fan-out runs every worker
        // index exactly once, so slot `w` is touched by one thread only.
        let mut slots: Vec<Option<(Outbox<'_, M>, G)>> = (0..workers)
            .map(|_| Some((Outbox::new(take_shard_set(), partitioning), G::default())))
            .collect();
        let slots_ptr = SharedMut::new(slots.as_mut_ptr());
        fan_out(worker_pool.as_deref(), workers, &|w| {
            // SAFETY: one fan-out runs index `w` once — disjoint slots.
            let slot = unsafe { slots_ptr.get(w) };
            let Some((mut out, mut agg)) = slot.take() else { return };
            let lo = (w * chunk).min(active.len());
            let hi = ((w + 1) * chunk).min(active.len());
            for &v in &active[lo..hi] {
                // SAFETY: the active list is deduplicated and workers take
                // disjoint chunks, so each vertex's state and inbox is
                // touched by one worker only.
                let state = unsafe { states.get(v as usize) };
                let inbox = unsafe { inboxes.get(v as usize) };
                let mut ctx =
                    VertexCtx { vid: v, graph, state, msgs: inbox.as_slice(), out: &mut out };
                compute(&mut ctx, &mut agg);
                inbox.clear();
            }
            *slot = Some((out, agg));
        });

        // --- merge aggregates and counters ----------------------------------
        // The step's traffic totals are the sum of the per-label counters
        // (the only ones `Outbox::send` keeps), so the per-label breakdown
        // adds up to the totals by construction.
        let mut step = StepStats { active_vertices: active.len() as u64, ..Default::default() };
        let mut global = G::default();
        let mut worker_shards: Vec<ShardSet<M>> = Vec::with_capacity(workers);
        let mut step_labels: Vec<(LabelId, LabelTraffic)> = Vec::new();
        for (out, agg) in slots.into_iter().flatten() {
            for (label, t) in &out.per_label {
                step.add_traffic(t);
                match step_labels.iter_mut().find(|(l, _)| l == label) {
                    Some((_, acc)) => acc.add(t),
                    None => step_labels.push((*label, *t)),
                }
            }
            global.merge(agg);
            worker_shards.push(out.shards);
        }

        // --- delivery phase ---------------------------------------------------
        // Shard `s` owns inboxes of vertices with `v % shards == s`; shards
        // fan out over the pool (inline below the threshold — same order
        // either way), and within a shard worker outboxes are drained in
        // worker order, which preserves global source order. Messages are
        // *moved* into inboxes (the outbox held the only copy), and drained
        // shard buffers return to the pool — in shard-major, worker-minor
        // order, independent of which delivery thread finished first —
        // shrunk first when their capacity dwarfs this step's use.
        let mut next: Vec<VertexId> = Vec::new();
        if step.messages > 0 {
            // Phase boundary: inbox ownership switches from active-list
            // chunks (compute) to `v % shards` (delivery) behind the epoch
            // barrier above, so compute-phase claims must not carry over.
            #[cfg(debug_assertions)]
            inboxes.reset_claims();
            // Transpose to per-shard groups, preserving worker order within
            // each group (the determinism invariant above); each group
            // carries the slot for the vertices its delivery wakes.
            let mut groups: Vec<(ShardSet<M>, Vec<VertexId>)> = (0..shards)
                .map(|s| {
                    let bufs = worker_shards.iter_mut().map(|ws| std::mem::take(&mut ws[s]));
                    (bufs.collect(), Vec::new())
                })
                .collect();
            let groups_ptr = SharedMut::new(groups.as_mut_ptr());
            let pool = worker_pool.as_deref().filter(|_| step.messages >= threshold as u64);
            fan_out(pool, shards, &|s| {
                // SAFETY: one fan-out runs shard `s` once — disjoint slots.
                let (bufs, woken_slot) = unsafe { groups_ptr.get(s) };
                let mut woken = Vec::new();
                for buf in bufs.iter_mut() {
                    let used = buf.len();
                    for (v, m) in buf.drain(..) {
                        // SAFETY: every message in this group targets
                        // v % shards == s by construction of Outbox::send,
                        // so only this shard's worker touches inboxes[v].
                        let inbox = unsafe { inboxes.get(v as usize) };
                        if inbox.is_empty() {
                            woken.push(v);
                        }
                        inbox.push(m);
                    }
                    shrink_recycled(buf, used);
                }
                *woken_slot = woken;
            });
            for (bufs, woken) in groups {
                next.extend(woken);
                buf_pool.extend(bufs);
            }
            next.sort_unstable();
        } else {
            // No messages this step: the shard buffers are already empty;
            // recycle them (and their capacity) directly.
            for mut ws in worker_shards {
                buf_pool.append(&mut ws);
            }
        }
        self.shard_pool = buf_pool;
        self.active = next;
        self.stats.record_step(step, &step_labels);
        (step, global)
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

    /// The dynamic checker rejects two threads claiming the same index: the
    /// pool runs both workers through `get(0)`, and whichever claims second
    /// must panic before its `&mut` is created (re-raised by `run`).
    #[cfg(debug_assertions)]
    #[test]
    fn shared_mut_overlapping_claims_panic() {
        let mut data = vec![0usize; 4];
        let shared = SharedMut::new(data.as_mut_ptr());
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, &|_| {
                // SAFETY: deliberately violated — both workers claim index 0
                // so the debug checker must fire (that is the test).
                *unsafe { shared.get(0) } += 1;
            });
        }));
        assert!(r.is_err(), "overlapping SharedMut claims must panic in debug builds");
    }

    /// Disjoint claims pass, and `reset_claims` lets a later phase
    /// re-partition the same indices across different threads.
    #[cfg(debug_assertions)]
    #[test]
    fn shared_mut_disjoint_claims_pass_across_phases() {
        let mut data = vec![0usize; 2];
        let shared = SharedMut::new(data.as_mut_ptr());
        let pool = WorkerPool::new(2);
        // SAFETY: worker `w` touches only index `w` — disjoint.
        pool.run(2, &|w| *unsafe { shared.get(w) } += 1);
        // Phase boundary behind the epoch barrier: ownership swaps.
        shared.reset_claims();
        // SAFETY: worker `w` touches only index `1 - w` — still disjoint.
        pool.run(2, &|w| *unsafe { shared.get(1 - w) } += 1);
        drop(shared);
        assert_eq!(data, vec![2, 2]);
    }

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
            // test covers the parallel phases, not the fallback.
            let mut comp: Computation<'_, u64, u64> = Computation::new(
                &g,
                EngineConfig::with_threads(threads).with_parallel_threshold(0),
                |_| 0,
            );
            comp.activate(g.vertices());
            // Superstep 1: everyone sends its id to all neighbours.
            // Superstep 2: everyone sums what it received.
            comp.superstep_simple(|ctx| {
                let targets: Vec<VertexId> = ctx.edges().iter().map(|e| e.target).collect();
                for t in targets {
                    let id = ctx.id() as u64;
                    ctx.send(t, id);
                }
            });
            comp.superstep_simple(|ctx| {
                *ctx.state = ctx.messages().iter().sum();
            });
            let (states, stats) = comp.finish();
            (states, stats.total_messages())
        };
        let (s1, m1) = run(1);
        let (s4, m4) = run(4);
        let (s7, m7) = run(7);
        assert_eq!(s1, s4);
        assert_eq!(s1, s7);
        assert_eq!(m1, m4);
        assert_eq!(m1, m7);
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

    #[test]
    fn inject_seeds_messages_without_counting() {
        let g = line(3);
        let mut comp: Computation<'_, u64, u64> =
            Computation::new(&g, EngineConfig::sequential(), |_| 0);
        comp.inject(1, 42);
        assert_eq!(comp.active(), &[1]);
        comp.superstep_simple(|ctx| {
            *ctx.state = ctx.messages()[0];
        });
        assert_eq!(comp.states()[1], 42);
        assert_eq!(comp.stats().total_messages(), 0);
    }

    #[test]
    fn inject_duplicates_normalize_before_compute() {
        let g = line(4);
        let mut comp: Computation<'_, u64, u64> =
            Computation::new(&g, EngineConfig::with_threads(4).with_parallel_threshold(0), |_| 0);
        // Repeated and unsorted injections: the active list must come out
        // sorted and deduplicated (a duplicate would hand one vertex to two
        // workers), with every message delivered once.
        comp.inject(2, 30);
        comp.inject(2, 12);
        comp.inject_all([(0, 5), (1, 1), (1, 2)]);
        assert_eq!(comp.active(), &[0, 1, 2]);
        comp.superstep_simple(|ctx| {
            *ctx.state = ctx.messages().iter().sum();
        });
        assert_eq!(comp.states(), &[5, 3, 42, 0]);
        assert_eq!(comp.stats().total_messages(), 0);
    }

    #[test]
    fn shard_buffers_are_recycled_across_supersteps() {
        let g = line(32);
        let mut comp: Computation<'_, u64, u64> =
            Computation::new(&g, EngineConfig::with_threads(4).with_parallel_threshold(0), |_| 0);
        let ping = |comp: &mut Computation<'_, u64, u64>| {
            comp.activate(g.vertices());
            comp.superstep_simple(|ctx| {
                let targets: Vec<VertexId> = ctx.edges().iter().map(|e| e.target).collect();
                for t in targets {
                    ctx.send(t, 1);
                }
            });
        };
        ping(&mut comp);
        let pooled = comp.shard_pool.len();
        assert!(pooled > 0, "delivery must return shard buffers to the pool");
        assert!(comp.shard_pool.iter().all(Vec::is_empty), "pooled buffers must be drained");
        let capacity: usize = comp.shard_pool.iter().map(Vec::capacity).sum();
        assert!(capacity > 0, "recycled buffers keep their capacity");
        // Steady state: the next superstep takes and returns the same set.
        ping(&mut comp);
        assert_eq!(comp.shard_pool.len(), pooled);
    }

    /// All-to-neighbours ping used by the runtime tests below.
    fn ping_all(comp: &mut Computation<'_, u64, u64>, g: &Graph) {
        comp.activate(g.vertices());
        comp.superstep_simple(|ctx| {
            let targets: Vec<VertexId> = ctx.edges().iter().map(|e| e.target).collect();
            for t in targets {
                let id = ctx.id() as u64;
                ctx.send(t, id);
            }
        });
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
    fn inject_between_supersteps_with_live_workers() {
        let g = line(64);
        let mut comp: Computation<'_, u64, u64> =
            Computation::new(&g, EngineConfig::with_threads(4).with_parallel_threshold(0), |_| 0);
        ping_all(&mut comp, &g);
        assert_eq!(comp.worker_pool().unwrap().live_workers(), 3);
        // Host-side seeding while workers sit parked between supersteps.
        comp.inject(0, 100);
        comp.inject_all([(5, 7), (5, 8), (63, 1)]);
        comp.superstep_simple(|ctx| {
            *ctx.state = ctx.messages().iter().sum();
        });
        assert_eq!(comp.states()[5], 4 + 6 + 7 + 8, "neighbour ids plus both injections");
        assert_eq!(comp.states()[0], 1 + 100);
        assert_eq!(comp.states()[63], 62 + 1);
        assert_eq!(comp.worker_pool().unwrap().live_workers(), 3, "workers survive injection");
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
    fn shard_pool_capacity_decays_after_peak_superstep() {
        let g = line(256);
        let mut comp: Computation<'_, u64, u64> =
            Computation::new(&g, EngineConfig::sequential(), |_| 0);
        // Peak superstep: every vertex messages both neighbours (510 sends).
        ping_all(&mut comp, &g);
        let peak: usize = comp.shard_pool.iter().map(Vec::capacity).sum();
        assert!(peak >= 510, "peak superstep should have grown the buffer, got {peak}");
        // Quiet superstep: a single message. The recycled buffer must shed
        // the peak capacity instead of carrying it forever.
        comp.superstep_simple(|ctx| {
            if ctx.id() == 0 {
                ctx.send(1, 1);
            }
        });
        let after: usize = comp.shard_pool.iter().map(Vec::capacity).sum();
        assert!(after < peak / 4, "high-water must decay: {after} vs peak {peak}");
        // And delivery still works on the shrunk buffer.
        comp.superstep_simple(|ctx| {
            *ctx.state = ctx.messages().iter().sum();
        });
        assert_eq!(comp.states()[1], 1);
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
}
