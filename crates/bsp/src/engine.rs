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
//!    superstep's message table, and all signals its edge bitmap.
//! 3. **activation** — exactly the vertices that received at least one
//!    message or signal, or asked to stay ([`VertexCtx::stay`]), are active
//!    in the next superstep.
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
//! messages are counted per target in a `u32` cursor of |V| entries that
//! is zero between supersteps, the distinct targets are sorted, and each
//! message is moved to its target's cursor. Every vertex therefore sees its
//! messages ordered by source vertex, then send order — for every thread
//! count. The table's vectors keep their capacity across supersteps.
//!
//! **The signal lane.** A signal says only which edge it travelled, the
//! paper's reduction message (Algorithm 2, lines 13 and 18), so it carries
//! no payload and bypasses the table: [`VertexCtx::signal_along`] names one
//! of the sender's own out-edges, and delivery sets the bit of the edge
//! back (the [`Graph::reverse_slot`] of the sent one) in an edge bitmap of
//! one bit per CSR slot, where the receiver reads it with
//! [`VertexCtx::signalled`]. A signal is counted exactly as an 8-byte
//! message on its label, network included, so the lane changes how
//! signals are stored, never what a run reports. In a step that carries
//! signals (or where a vertex stays), delivery collects the targets of both
//! lanes and the staying vertices in a |V|-bit scratch and reads the active
//! list off it in vertex order; a target that got no message has an empty
//! message run.
//!
//! **Scratch.** The arrays sized by the graph — the states, the delivery
//! cursor, the |V|-bit target and touched sets, the edge bitmap — form a
//! [`Scratch`]. A host that runs many computations over one graph hands a
//! finished run's scratch to the next ([`Computation::with_scratch`],
//! [`Computation::into_scratch`]), so a run's set-up and tear-down cost what
//! it touched, not |V|: every superstep sets its active vertices' bits in
//! the touched set (compute hands out `&mut` to those states only), and
//! `into_scratch` resets exactly those states and clears the pending
//! signals' bitmap words. The cursor and the target set are already zero
//! between supersteps. A checkpoint rollback replaces the states wholesale
//! with states of an earlier superstep, whose changes the touched set,
//! which only grows, already covers.
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
use std::ops::Range;
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
    /// The pending signals' edge bitmap (empty when none is pending).
    signals: &'a [u64],
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

    /// Signal along this vertex's out-edge `slot` (a position in
    /// [`VertexCtx::edges`]): the target is activated for the next
    /// superstep, where [`VertexCtx::signalled`] shows it the edge back.
    /// Counted as a [`SIGNAL_BYTES`]-byte message on `label`.
    #[inline]
    pub fn signal_along(&mut self, label: LabelId, slot: usize) {
        let graph = self.graph;
        let Edge { label: own, target } = graph.out_edges(self.vid)[slot];
        debug_assert_eq!(own, label, "slot {slot} of {} is not labelled {label:?}", self.vid);
        let back = graph.reverse_slot(graph.first_slot(self.vid) + slot);
        debug_assert_eq!(
            graph.out_edges(target)[back - graph.first_slot(target)].target,
            self.vid,
            "the reverse of slot {slot} points back at its sender"
        );
        self.out.signal(self.vid, target, label, back as u32);
    }

    /// Stay active in the next superstep, with no message: Pregel's vertex
    /// that does not vote to halt. Nothing is sent or counted.
    #[inline]
    pub fn stay(&mut self) {
        self.out.stays.push(self.vid);
    }

    /// The positions in `run`, a range of [`VertexCtx::edges`] positions, of
    /// the out-edges a signal arrived along in the previous superstep, in
    /// ascending order.
    #[inline]
    pub fn signalled(&self, run: Range<usize>) -> impl Iterator<Item = usize> + use<'a, V, M> {
        let base = self.graph.first_slot(self.vid);
        let (lo, hi) = (base + run.start, base + run.end);
        let bits = self.signals;
        let words = if bits.is_empty() || lo >= hi { 0..0 } else { lo / 64..(hi - 1) / 64 + 1 };
        words.flat_map(move |w| {
            // The word's bits inside `lo..hi`.
            let from = lo.saturating_sub(w * 64).min(64);
            let to = (hi - w * 64).min(64);
            let mask = (u64::MAX >> (64 - (to - from))) << from;
            let mut word = bits[w] & mask;
            std::iter::from_fn(move || {
                let bit = word.trailing_zeros() as usize;
                word &= word.wrapping_sub(1);
                (bit < 64).then(|| w * 64 + bit - base)
            })
        })
    }
}

/// The bytes a signal is counted as: the sender's id, what a reduction
/// message carries in the paper's Algorithm 2.
pub const SIGNAL_BYTES: u64 = 8;

/// Per-worker outgoing messages, `(target, message)` in send order,
/// signals, `(target, reverse slot)` in send order, and the vertices that
/// stay active.
pub struct Outbox<'p, M: Message> {
    sent: Vec<(VertexId, M)>,
    signals: Vec<(VertexId, u32)>,
    stays: Vec<VertexId>,
    partitioning: Option<&'p Partitioning>,
    /// Per-label traffic of this worker's sends and signals — the only
    /// counters `count` keeps; the superstep's totals are their sum. A
    /// superstep touches only a handful of labels (TAG traversals: exactly
    /// one), so a linear-scan vec beats a map on the send hot path.
    per_label: Vec<(LabelId, LabelTraffic)>,
}

impl<'p, M: Message> Outbox<'p, M> {
    #[inline]
    fn send(&mut self, source: VertexId, target: VertexId, label: LabelId, msg: M) {
        self.count(source, target, label, msg.byte_size() as u64);
        self.sent.push((target, msg));
    }

    #[inline]
    fn signal(&mut self, source: VertexId, target: VertexId, label: LabelId, back: u32) {
        self.count(source, target, label, SIGNAL_BYTES);
        self.signals.push((target, back));
    }

    /// Charge one message of `size` bytes from `source` to `target` to
    /// `label`, and to the network when the two sit on different machines.
    #[inline]
    fn count(&mut self, source: VertexId, target: VertexId, label: LabelId, size: u64) {
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

/// The graph-sized arrays of a [`Computation`], kept between runs over one
/// graph (module docs, **Scratch**). Between runs the states are those of
/// the `init` passed to [`Computation::into_scratch`], and every other
/// array is zero. It holds no message table: the table's vectors grow with
/// a run's traffic, not with the graph.
pub struct Scratch<V> {
    states: Vec<V>,
    cursor: Vec<u32>,
    seen: Vec<u64>,
    edge_bits: Vec<u64>,
    touched: Vec<u64>,
}

impl<V> Scratch<V> {
    /// Fresh arrays for `n` vertices; the edge bitmap and the target set
    /// stay empty until the first signal.
    fn fresh(n: usize, init: impl Fn(VertexId) -> V) -> Scratch<V> {
        Scratch {
            states: (0..n as VertexId).map(init).collect(),
            cursor: vec![0; n],
            seen: Vec::new(),
            edge_bits: Vec::new(),
            touched: vec![0; n.div_ceil(64)],
        }
    }

    /// Whether these arrays fit `graph`: the vertex-sized ones were all
    /// built for one vertex count, the edge bitmap for an edge count.
    fn fits(&self, graph: &Graph) -> bool {
        self.states.len() == graph.vertex_count()
            && [0, graph.edge_count().div_ceil(64)].contains(&self.edge_bits.len())
    }

    /// Whether every array but the states is zero, as between runs.
    fn is_clean(&self) -> bool {
        self.cursor.iter().all(|&c| c == 0)
            && [&self.seen, &self.edge_bits, &self.touched]
                .iter()
                .all(|a| a.iter().all(|&w| w == 0))
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
    /// The pending signals, `(target, reverse slot)` in delivery order.
    pub(crate) signals: Vec<(VertexId, u32)>,
    /// The signal lane's edge bitmap: bit `s` is set iff a pending signal
    /// arrived along slot `s`. Zero but for `signals`' bits; empty until
    /// the first signal.
    edge_bits: Vec<u64>,
    /// Delivery's per-vertex count, then cursor; all zero between
    /// supersteps.
    cursor: Vec<u32>,
    /// Delivery's |V|-bit target set in a step that carries signals; all
    /// zero between supersteps, empty until the first signal.
    seen: Vec<u64>,
    /// The |V|-bit set of vertices active in some superstep: the only
    /// states a run can have changed.
    touched: Vec<u64>,
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
        Computation::with_scratch(graph, config, None, init)
    }

    /// Create a computation on `scratch`, the arrays an earlier run over a
    /// graph of this size returned from [`Computation::into_scratch`] with
    /// the same `init`; fresh arrays from `init` when there is none or it
    /// does not fit.
    pub fn with_scratch(
        graph: &'g Graph,
        config: EngineConfig,
        scratch: Option<Scratch<V>>,
        init: impl Fn(VertexId) -> V,
    ) -> Self {
        let scratch = match scratch {
            Some(s) if s.fits(graph) => {
                debug_assert!(s.is_clean(), "a returned scratch has a nonzero cursor or bit set");
                s
            }
            _ => Scratch::fresh(graph.vertex_count(), init),
        };
        let Scratch { states, cursor, seen, edge_bits, touched } = scratch;
        Computation {
            graph,
            config,
            states,
            active: Vec::new(),
            inbox: Vec::new(),
            starts: vec![0],
            signals: Vec::new(),
            edge_bits,
            cursor,
            seen,
            touched,
            stats: RunStats::default(),
            partitioning: None,
            workers: None,
            faults: None,
        }
    }

    /// End the run and return its arrays for the next one: the states of
    /// every vertex that was ever active are set back to `init(v)` (the
    /// others were never handed out), and the pending signals' bitmap words
    /// are cleared. Costs what the run touched, not |V|.
    pub fn into_scratch(mut self, init: impl Fn(VertexId) -> V) -> Scratch<V> {
        self.set_signals(Vec::new());
        for (w, word) in self.touched.iter_mut().enumerate() {
            while *word != 0 {
                let v = (w * 64) as VertexId + word.trailing_zeros();
                self.states[v as usize] = init(v);
                *word &= *word - 1;
            }
        }
        let Computation { states, cursor, seen, edge_bits, touched, .. } = self;
        Scratch { states, cursor, seen, edge_bits, touched }
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
    /// cross-machine traffic in their [`StepStats`]. The placement is
    /// shared, not copied: callers that hold one across many computations
    /// (a session serving a workload) hand every run the same allocation.
    pub fn set_partitioning_shared(&mut self, p: Arc<Partitioning>) {
        self.partitioning = Some(p);
    }

    /// The graph being computed over.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Replace the active set (deduplicated and sorted), with no messages.
    /// A phase-boundary operation: no message or signal may be in flight,
    /// since a vertex left out of the new set would lose it (debug builds
    /// assert it; release builds drop them).
    pub fn activate(&mut self, vertices: impl IntoIterator<Item = VertexId>) {
        debug_assert!(
            self.inbox.is_empty(),
            "activate with {} messages in flight",
            self.inbox.len()
        );
        debug_assert!(
            self.signals.is_empty(),
            "activate with {} signals in flight",
            self.signals.len()
        );
        self.inbox.clear();
        self.set_signals(Vec::new());
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
        for &v in &self.active {
            self.touched[v as usize / 64] |= 1 << (v % 64);
        }
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
        let signals = self.edge_bits.as_slice();
        let graph = self.graph;
        let partitioning = self.partitioning.as_deref();
        let mut rest = self.states.as_mut_slice();
        let mut first = 0;
        let parts: Vec<_> = (0..workers)
            .map(|w| {
                let (lo, hi) = ((w * chunk).min(n), ((w + 1) * chunk).min(n));
                let end = active.get(hi).map_or(graph.vertex_count(), |&v| v as usize);
                let (states, tail) = std::mem::take(&mut rest).split_at_mut(end - first);
                let out = Outbox {
                    sent: Vec::new(),
                    signals: Vec::new(),
                    stays: Vec::new(),
                    partitioning,
                    per_label: Vec::new(),
                };
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
                let mut ctx = VertexCtx { vid: v, graph, state, msgs, signals, out };
                compute(&mut ctx, agg);
            }
        });

        // --- merge aggregates and counters ----------------------------------
        // The step's traffic totals are the sum of the per-label counters
        // (the only ones `Outbox::count` keeps), so the per-label breakdown
        // adds up to the totals by construction.
        let mut step = StepStats { active_vertices: n as u64, ..Default::default() };
        let mut global = G::default();
        let mut outboxes = Vec::with_capacity(workers);
        let (mut signals, mut stays) = (Vec::new(), Vec::new());
        let mut step_labels: Vec<(LabelId, LabelTraffic)> = Vec::new();
        for part in parts {
            let (.., mut out, agg) = part.into_inner().expect("a panicked phase never merges");
            for (label, t) in &out.per_label {
                step.add_traffic(t);
                match step_labels.iter_mut().find(|(l, _)| l == label) {
                    Some((_, acc)) => acc.add(t),
                    None => step_labels.push((*label, *t)),
                }
            }
            global.merge(agg);
            outboxes.push(out.sent);
            if signals.is_empty() {
                signals = out.signals;
            } else {
                signals.append(&mut out.signals);
            }
            stays.append(&mut out.stays);
        }
        self.deliver(outboxes, signals, &stays);
        self.stats.record_step(step, &step_labels);
        (step, global)
    }

    /// Replace the pending signals by `signals`: clear the consumed bits'
    /// words, then set the new bits.
    pub(crate) fn set_signals(&mut self, signals: Vec<(VertexId, u32)>) {
        for &(_, slot) in &self.signals {
            self.edge_bits[slot as usize / 64] = 0;
        }
        if !signals.is_empty() && self.edge_bits.is_empty() {
            self.edge_bits = vec![0; self.graph.edge_count().div_ceil(64)];
        }
        for &(_, slot) in &signals {
            self.edge_bits[slot as usize / 64] |= 1 << (slot % 64);
        }
        self.signals = signals;
    }

    /// Replace the consumed message table by the outboxes' messages, by one
    /// stable counting sort on target, and the consumed signals by
    /// `signals`; the vertices that `stay` are targets with no message.
    /// `outboxes` come in worker order (= source-vertex order), each holding
    /// its worker's sends in send order.
    #[allow(unsafe_code, reason = "one `set_len` over slots written exactly once")]
    fn deliver(
        &mut self,
        outboxes: Vec<Vec<(VertexId, M)>>,
        signals: Vec<(VertexId, u32)>,
        stays: &[VertexId],
    ) {
        let total = outboxes.iter().map(Vec::len).sum::<usize>();
        assert!(u32::try_from(total).is_ok(), "{total} messages in one superstep");
        // Below, a send to a vertex outside the graph panics on the
        // scratch, leaving the counts before it stale. A step that signals
        // (or where a vertex stays) has a second scratch, the bit set, which
        // a stale bit would corrupt unnoticed, so there such a send fails
        // before any write.
        // Message-only steps keep their own collection path on purpose:
        // routing them through the bit set too (one bounds check, one
        // collect loop, then sort or scan) measured slower, `tpcds_seq`
        // 197.8 → 184.6 statements/s at seed 42 (median of 4 alternating
        // pairs; `tpch_seq` unmoved), and would change what
        // `sends_outside_the_graph_panic_and_a_stale_scratch_is_caught` pins.
        let n = self.cursor.len();
        let bits = !signals.is_empty() || !stays.is_empty();
        assert!(
            !bits || outboxes.iter().flatten().all(|&(t, _)| (t as usize) < n),
            "a message to a vertex outside the graph"
        );
        self.set_signals(signals);
        let cursor = &mut self.cursor;
        self.inbox.clear();
        self.active.clear();
        if !bits {
            // Count per target, collecting each target on its first message.
            for &(t, _) in outboxes.iter().flatten() {
                let c = &mut cursor[t as usize];
                if *c == 0 {
                    self.active.push(t);
                }
                *c += 1;
            }
            self.active.sort_unstable();
        } else {
            // Count per target, collecting each target of either lane, and
            // each vertex that stays, on its first arrival in the bit set.
            let (seen, active) = (&mut self.seen, &mut self.active);
            seen.resize(cursor.len().div_ceil(64), 0);
            let mut collect = |t: VertexId| {
                let (word, bit) = (&mut seen[t as usize / 64], 1 << (t % 64));
                if *word & bit == 0 {
                    *word |= bit;
                    active.push(t);
                }
            };
            for &(t, _) in outboxes.iter().flatten() {
                cursor[t as usize] += 1;
                collect(t);
            }
            for &(t, _) in &self.signals {
                collect(t);
            }
            stays.iter().for_each(|&t| collect(t));
            // A few targets are sorted; many are read back off the bit set,
            // which lists them in vertex order at a word per 64 vertices.
            if active.len() * 16 < seen.len() {
                active.sort_unstable();
                for &t in active.iter() {
                    seen[t as usize / 64] = 0;
                }
            } else {
                active.clear();
                for (w, word) in seen.iter_mut().enumerate() {
                    while *word != 0 {
                        active.push((w * 64) as VertexId + word.trailing_zeros());
                        *word &= *word - 1;
                    }
                }
            }
        }
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

    /// A vertex that stays is active in the next superstep with no message
    /// and nothing counted, next to a message's target, on any thread count.
    #[test]
    fn a_vertex_that_stays_is_active_next_with_no_message() {
        let g = line(5);
        for config in [EngineConfig::sequential(), EngineConfig::with_threads(2)] {
            let config = config.with_parallel_threshold(0);
            let mut comp: Computation<'_, u64, u64> = Computation::new(&g, config, |_| 0);
            comp.activate([1, 3]);
            let step = comp.superstep_simple(|ctx| {
                ctx.stay();
                if ctx.id() == 3 {
                    ctx.send(4, 7);
                }
            });
            assert_eq!((step.messages, step.message_bytes), (1, 8));
            assert_eq!(comp.active(), [1, 3, 4]);
            comp.superstep_simple(|ctx| {
                assert_eq!(ctx.messages(), if ctx.id() == 4 { &[7][..] } else { &[] });
            });
            assert!(comp.halted());
            assert_eq!(comp.stats().total_messages(), 1);
        }
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
        comp.set_partitioning_shared(Arc::new(Partitioning::from_assignment(vec![0, 0, 1, 1], 2)));
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
        comp.set_partitioning_shared(Arc::new(Partitioning::from_assignment(
            vec![0, 0, 1, 1, 0, 1],
            2,
        )));
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

    /// Signals are counted exactly as 8-byte messages on their label:
    /// messages, bytes and the network share, per label and in total.
    #[test]
    fn signals_count_like_eight_byte_messages() {
        let g = line(6);
        let label = g.edge_label_id("next").unwrap();
        let run = |signal: bool| {
            let mut comp: Computation<'_, (), u64> = Computation::new(
                &g,
                EngineConfig::with_threads(3).with_parallel_threshold(0),
                |_| (),
            );
            comp.set_partitioning_shared(Arc::new(Partitioning::from_assignment(
                vec![0, 0, 1, 1, 0, 1],
                2,
            )));
            comp.activate(g.vertices());
            comp.superstep_simple(|ctx| {
                for (slot, edge) in ctx.edges().iter().enumerate() {
                    if signal {
                        ctx.signal_along(label, slot);
                    } else {
                        ctx.send_along(label, edge.target, 1);
                    }
                }
            });
            comp.superstep_simple(|_| {});
            comp.finish().1
        };
        let (signalled, sent) = (run(true), run(false));
        assert_eq!(SIGNAL_BYTES, std::mem::size_of::<u64>() as u64);
        assert_eq!(signalled.label_traffic(label), sent.label_traffic(label));
        assert_eq!(signalled.label_traffic(label).messages, 10, "2*(n-1) directed edges");
        assert!(signalled.label_traffic(label).network_messages > 0);
        assert_eq!(signalled.totals, sent.totals);
        assert_eq!(signalled.steps, sent.steps);
    }

    /// A vertex that got only signals runs with an empty inbox and sees the
    /// edges back to its signallers; one that got both sees its messages in
    /// source, then send order, as without signals. Three targets among 40
    /// vertices are read off delivery's bit set, among 4000 sorted.
    #[test]
    fn signal_targets_are_active_beside_message_targets() {
        for (n, threads) in [(40, 1), (40, 4), (4000, 1), (4000, 4)] {
            let g = line(n);
            let mut comp: Computation<'_, (Vec<u64>, Vec<VertexId>), u64> = Computation::new(
                &g,
                EngineConfig::with_threads(threads).with_parallel_threshold(0),
                |_| (Vec::new(), Vec::new()),
            );
            let label = g.edge_label_id("next").unwrap();
            comp.activate((0..n as VertexId).rev());
            comp.superstep_simple(|ctx| {
                let id = ctx.id();
                ctx.send(7, 2 * id as u64);
                // Vertex 20 signals both neighbours; 7's left one signals it.
                for (slot, edge) in ctx.edges().iter().enumerate() {
                    if id == 20 || edge.target == 7 && id == 6 {
                        ctx.signal_along(label, slot);
                    }
                }
                ctx.send(7, 2 * id as u64 + 1);
            });
            assert_eq!(comp.active(), &[7, 19, 21], "threads={threads}");
            comp.superstep_simple(|ctx| {
                let from: Vec<VertexId> =
                    ctx.signalled(0..ctx.edges().len()).map(|i| ctx.edges()[i].target).collect();
                *ctx.state = (ctx.messages().to_vec(), from);
            });
            let at = |v: usize| comp.states()[v].clone();
            assert_eq!(at(7), ((0..2 * n as u64).collect(), vec![6]), "threads={threads}");
            assert_eq!(at(19), (vec![], vec![20]), "threads={threads}");
            assert_eq!(at(21), (vec![], vec![20]), "threads={threads}");
            assert!(comp.halted());
        }
    }

    /// A signalling program — every vertex signals along its marked edges,
    /// and marks the edges it was signalled along — gives the same states
    /// and statistics on every thread count.
    #[test]
    fn signals_are_independent_of_thread_count() {
        let mut b = GraphBuilder::new();
        let vl = b.vertex_label("v");
        let labels = [b.edge_label("a"), b.edge_label("b")];
        for _ in 0..97 {
            b.add_vertex(vl);
        }
        for i in 0..97u32 {
            b.add_undirected_edge(i, (i * 7 + 3) % 97, labels[0]);
            b.add_undirected_edge(i, (i * 11 + 5) % 97, labels[1]);
        }
        let g = b.finish();
        let run = |threads: usize| {
            let mut comp: Computation<'_, u64, u64> = Computation::new(
                &g,
                EngineConfig::with_threads(threads).with_parallel_threshold(0),
                |v| v as u64,
            );
            comp.activate((0..97).filter(|v| v % 3 == 0));
            for step in 0..6 {
                comp.superstep_simple(|ctx| {
                    let degree = ctx.edges().len();
                    for i in ctx.signalled(0..degree) {
                        *ctx.state = ctx.state.wrapping_mul(131).wrapping_add(i as u64 + 1);
                    }
                    for (slot, edge) in ctx.edges().iter().enumerate() {
                        if !(*ctx.state + slot as u64).is_multiple_of(3) {
                            ctx.signal_along(edge.label, slot);
                        }
                    }
                    if step % 2 == 0 {
                        let id = ctx.id();
                        ctx.send((id * 5) % 97, *ctx.state);
                    }
                    let folded = ctx.messages().iter().fold(*ctx.state, |a, &m| a ^ m);
                    *ctx.state = folded;
                });
            }
            comp.finish()
        };
        let (states, stats) = run(1);
        assert!(stats.total_messages() > 0);
        for threads in [2, 4, 7] {
            let (s, t) = run(threads);
            assert_eq!(s, states, "threads={threads}");
            assert_eq!((t.totals, &t.steps), (stats.totals, &stats.steps), "threads={threads}");
            for l in labels {
                assert_eq!(t.label_traffic(l), stats.label_traffic(l), "threads={threads}");
            }
        }
    }

    /// A scratch given back by one run starts the next exactly as fresh
    /// arrays would: the states the run touched are reset, and the bits of
    /// the signals it left pending are cleared. A scratch sized for another
    /// graph is not used.
    #[test]
    fn a_returned_scratch_starts_the_next_run_fresh() {
        let g = line(200);
        let label = g.edge_label_id("next").unwrap();
        let init = |v: VertexId| 3 * v as u64;
        let run = |scratch: Option<Scratch<u64>>| {
            let config = EngineConfig::with_threads(2).with_parallel_threshold(0);
            let mut comp = Computation::<u64, u64>::with_scratch(&g, config, scratch, init);
            comp.activate([3, 64, 130, 199]);
            comp.superstep_simple(|ctx| {
                *ctx.state += 1000;
                for slot in 0..ctx.edges().len() {
                    ctx.signal_along(label, slot);
                }
            });
            comp.superstep_simple(|ctx| {
                *ctx.state += ctx.signalled(0..ctx.edges().len()).count() as u64;
                ctx.signal_along(label, 0);
            });
            let (states, stats) = (comp.states().to_vec(), comp.stats().clone());
            (states, stats, comp.into_scratch(init))
        };
        let (states, stats, scratch) = run(None);
        assert!(scratch.is_clean(), "the pending signals' bits were cleared");
        assert!(scratch.states.iter().enumerate().all(|(v, &s)| s == init(v as VertexId)));
        let (again, again_stats, scratch) = run(Some(scratch));
        assert_eq!((again, again_stats), (states, stats));
        let small = line(10);
        let comp = Computation::<u64, u64>::with_scratch(
            &small,
            EngineConfig::sequential(),
            Some(scratch),
            init,
        );
        assert_eq!(comp.states().len(), 10, "a scratch of another size is replaced");
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
        let label = g.edge_label_id("next").unwrap();
        let signal = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            comp.activate([1]);
            comp.superstep_simple(|ctx| ctx.signal_along(label, 1));
        }));
        assert!(signal.is_err(), "a signal to vertex 2 meets its stale count too");
    }

    /// In a step that signals, a send outside the graph panics before
    /// delivery writes anything, so the next step delivers cleanly.
    #[test]
    fn sends_outside_the_graph_beside_signals_leave_no_stale_scratch() {
        let g = line(3);
        let label = g.edge_label_id("next").unwrap();
        let mut comp: Computation<'_, (), u64> =
            Computation::new(&g, EngineConfig::sequential(), |_| ());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            comp.activate([0]);
            comp.superstep_simple(|ctx| {
                ctx.signal_along(label, 0);
                ctx.send(99, 1);
            });
        }));
        assert!(r.is_err(), "vertex 99 does not exist");
        comp.activate([0, 2]);
        comp.superstep_simple(|ctx| {
            ctx.signal_along(label, 0);
            ctx.send(1, 1);
        });
        assert_eq!(comp.active(), &[1]);
        assert_eq!(comp.inbox.len(), 2);
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

    /// Likewise with a signal in flight.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "signals in flight")]
    fn activate_with_signals_in_flight_panics() {
        let g = line(3);
        let label = g.edge_label_id("next").unwrap();
        let mut comp: Computation<'_, (), u64> =
            Computation::new(&g, EngineConfig::sequential(), |_| ());
        comp.activate([0]);
        comp.superstep_simple(|ctx| ctx.signal_along(label, 0));
        comp.activate([2]);
    }
}
