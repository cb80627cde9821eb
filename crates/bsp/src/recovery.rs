//! Fault tolerance as a layer around [`Computation::superstep`].
//!
//! The engine's supersteps are pure: they always run and never look at the
//! armed [`FaultInjector`]. Everything recovery needs — when a checkpoint is
//! due, what a crash rolls back, how the lost supersteps are re-driven, what
//! it all costs — lives here, behind one driver entry point:
//!
//! ```text
//! comp.run_phase(|comp, i| { /* issue the phase's i-th superstep */ })
//! ```
//!
//! **The phase contract.** A *phase* is a run of supersteps whose effects
//! stay inside the engine until the phase returns (vertex state, pending
//! messages, the active set, statistics). The driver hands
//! [`Computation::run_phase`] a step closure that issues exactly one
//! superstep per call, chosen by the phase-relative index `i`; it returns
//! `ControlFlow::Continue(())` to be called again with `i + 1` and
//! `ControlFlow::Break(value)` to end the phase. Fixed-length phases break on their last index, run-until-halted
//! loops break when [`Computation::halted`], and a single superstep whose
//! aggregate the host reads next is a one-step phase that breaks with it.
//! That is all a driver does for fault tolerance. In return the phase
//!
//! * checkpoints at its start (so a rollback never crosses into an earlier
//!   phase, whose results already escaped to the host) and then every
//!   [`FaultInjector::checkpoint_every`] supersteps,
//! * before each step fires the faults the plan pins to that superstep: a
//!   crash restores the last checkpoint — state, message table and
//!   statistics — and the closure is simply called again from the rewound
//!   index (the engine is deterministic, so the replay is bit-identical),
//! * returns the faults it cannot absorb — a crash with checkpointing
//!   disabled, a transient delivery failure — as a [`FaultError`], before
//!   the affected superstep runs.
//!
//! Without an injector a phase is a plain loop over the closure.
//!
//! Checkpoint and recovery costs are itemized in [`RunStats::faults`],
//! outside the BSP traffic counters: a recovered run reports the same
//! `totals`, `steps` and per-label traffic as a fault-free one.

use crate::engine::{Computation, SIGNAL_BYTES};
use crate::fault::{FaultError, FaultInjector};
use crate::graph::VertexId;
use crate::program::Message;
use crate::stats::RunStats;
use std::ops::ControlFlow;
use std::sync::Arc;

/// A superstep checkpoint: everything needed to roll the computation back
/// to the start of superstep `superstep` — per-vertex state, the message
/// table (the active set and the messages delivered but not yet consumed),
/// the pending signals, and the statistics as of that point (so a replay
/// re-records identically).
struct Snapshot<V, M: Message> {
    superstep: u64,
    states: Vec<V>,
    active: Vec<VertexId>,
    inbox: Vec<M>,
    starts: Vec<usize>,
    signals: Vec<(VertexId, u32)>,
    stats: RunStats,
}

/// Checkpoint size of some pending messages.
fn message_bytes<M: Message>(msgs: &[M]) -> u64 {
    msgs.iter().map(|m| m.byte_size() as u64).sum()
}

/// Fault-tolerance runtime attached via [`Computation::set_fault_injector`]:
/// the armed injector, how to copy and price vertex state, and the last
/// checkpoint.
pub(crate) struct FaultRuntime<V, M: Message> {
    injector: Arc<FaultInjector>,
    /// `V::clone`, captured where `V: Clone` is known (the
    /// `set_fault_injector` impl block) so the `V: Send` engine impl can
    /// snapshot without carrying the bound everywhere.
    clone_state: fn(&V) -> V,
    /// Checkpoint size of one vertex's state in bytes. Defaults to
    /// `size_of::<V>()`; hosts with heap-holding state install a real
    /// sizer via [`Computation::set_state_sizer`].
    sizer: Box<dyn Fn(&V) -> u64 + Send + Sync>,
    checkpoint: Option<Snapshot<V, M>>,
}

impl<V: Send, M: Message> FaultRuntime<V, M> {
    /// Snapshot the full computation state and charge the checkpoint cost:
    /// the active list (8 bytes per id) plus every vertex's state, every
    /// pending message, and every pending signal at its counted
    /// [`SIGNAL_BYTES`]. Charged to the itemized `stats.faults` —
    /// checkpoints model stable-storage writes, not network traffic.
    fn take_checkpoint(&mut self, comp: &mut Computation<'_, V, M>) {
        let bytes = comp.active.len() as u64 * 8
            + comp.states.iter().map(|state| (self.sizer)(state)).sum::<u64>()
            + message_bytes(&comp.inbox)
            + comp.signals.len() as u64 * SIGNAL_BYTES;
        self.checkpoint = Some(Snapshot {
            superstep: comp.stats.supersteps,
            states: comp.states.iter().map(self.clone_state).collect(),
            active: comp.active.clone(),
            inbox: comp.inbox.clone(),
            starts: comp.starts.clone(),
            signals: comp.signals.clone(),
            stats: comp.stats.clone(),
        });
        comp.stats.faults.checkpoint_bytes += bytes;
        comp.stats.faults.checkpoints += 1;
    }

    /// Roll back to the last checkpoint after machine `machine` crashed:
    /// restore state, message table and pending signals, rewind the
    /// statistics to the snapshot (so the replayed supersteps re-record
    /// identically), and charge the recovery — re-shipping the crashed
    /// machine's partition share of the checkpoint, i.e. the states of its
    /// vertices and the messages and signals pending for them (the
    /// survivors still hold theirs; without a partitioning the whole
    /// snapshot is charged), plus the rolled-back rounds. Without a
    /// checkpoint the machine is lost for good.
    fn restore(&self, comp: &mut Computation<'_, V, M>, machine: u32) -> Result<(), FaultError> {
        let crashed_at = comp.stats.supersteps;
        let snap = self
            .checkpoint
            .as_ref()
            .ok_or(FaultError::MachineLost { machine, superstep: crashed_at })?;
        let partitioning = comp.partitioning.as_deref();
        let lost = |v: VertexId| partitioning.is_none_or(|p| p.machine_of(v) == machine as u16);
        let mut vertices = 0u64;
        let mut bytes = 0u64;
        for (v, state) in snap.states.iter().enumerate() {
            if lost(v as VertexId) {
                vertices += 1;
                bytes += (self.sizer)(state);
            }
        }
        for (&t, run) in snap.active.iter().zip(snap.starts.windows(2)) {
            if lost(t) {
                bytes += message_bytes(&snap.inbox[run[0]..run[1]]);
            }
        }
        bytes += snap.signals.iter().filter(|&&(t, _)| lost(t)).count() as u64 * SIGNAL_BYTES;
        // Live fault counters survive the rewind: checkpoints taken and
        // recoveries performed are real costs even though the replayed
        // supersteps' traffic is recorded only once.
        let mut faults = comp.stats.faults;
        faults.recovery_bytes += bytes;
        faults.recovered_vertices += vertices;
        faults.recovered_rounds += crashed_at - snap.superstep;
        faults.crashes_recovered += 1;
        comp.states = snap.states.iter().map(self.clone_state).collect();
        comp.active.clone_from(&snap.active);
        comp.inbox.clone_from(&snap.inbox);
        comp.starts.clone_from(&snap.starts);
        comp.set_signals(snap.signals.clone());
        comp.stats = snap.stats.clone();
        comp.stats.faults = faults;
        Ok(())
    }

    /// The gate in front of every phase step: take the checkpoint the
    /// cadence makes due, then fire the faults pinned to the upcoming
    /// superstep. `Ok` means "run the step at `comp`'s current superstep
    /// index" — which a recovered crash may have rewound.
    fn admit(&mut self, comp: &mut Computation<'_, V, M>) -> Result<(), FaultError> {
        let every = self.injector.checkpoint_every();
        loop {
            let k = comp.stats.supersteps;
            let due =
                every > 0 && self.checkpoint.as_ref().is_none_or(|c| k - c.superstep >= every);
            if due {
                self.take_checkpoint(comp);
            }
            if self.injector.claim_panic(k) {
                panic!("injected compute fault at superstep {k}");
            }
            if let Some((from, to)) = self.injector.claim_drop(k) {
                return Err(FaultError::DeliveryFailed { from, to, superstep: k });
            }
            let Some(machine) = self.injector.claim_crash(k) else { return Ok(()) };
            self.restore(comp, machine)?;
            if comp.stats.supersteps == k {
                // The checkpoint was at this very superstep (the restore was
                // a data no-op charged as recovery): run it now.
                return Ok(());
            }
            // Rolled back past earlier supersteps: gate the rewound index.
        }
    }
}

impl<'g, V: Send + Clone, M: Message> Computation<'g, V, M> {
    /// Arm a fault injector: phases run through [`Computation::run_phase`]
    /// consult its plan and checkpoint every `injector.checkpoint_every()`
    /// supersteps (`0` disables checkpointing — an injected crash then
    /// aborts the phase with [`FaultError::MachineLost`] instead of
    /// recovering).
    ///
    /// Lives in a `V: Clone` impl block only to capture the clone fn.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(FaultRuntime {
            injector,
            clone_state: |v: &V| v.clone(),
            sizer: Box::new(|_| std::mem::size_of::<V>() as u64),
            checkpoint: None,
        });
    }

    /// Install a checkpoint sizer for vertex state (bytes per vertex).
    /// The default charges `size_of::<V>()`, which undercounts heap-holding
    /// state; hosts that know `V`'s layout install an honest one. No-op
    /// until an injector is armed.
    pub fn set_state_sizer(&mut self, sizer: impl Fn(&V) -> u64 + Send + Sync + 'static) {
        if let Some(rt) = self.faults.as_mut() {
            rt.sizer = Box::new(sizer);
        }
    }
}

impl<'g, V: Send, M: Message> Computation<'g, V, M> {
    /// The armed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref().map(|rt| &rt.injector)
    }

    /// Run `f` on the fault runtime, if one is armed. The runtime is lifted
    /// out of `self` for the call, so it can rewind the whole computation.
    fn with_faults<R>(
        &mut self,
        f: impl FnOnce(&mut FaultRuntime<V, M>, &mut Self) -> R,
    ) -> Option<R> {
        let mut rt = self.faults.take()?;
        let r = f(&mut rt, self);
        self.faults = Some(rt);
        Some(r)
    }

    /// Run one phase of supersteps under fault tolerance (the module docs
    /// spell out the contract). `step(comp, i)` issues the phase's `i`-th
    /// superstep — exactly one per call — and says whether the phase goes
    /// on; after a recovered crash it is called again from the rewound
    /// index, so it must choose what to run from `i` alone. Returns the
    /// value the phase broke with, or the fault that aborted it.
    pub fn run_phase<T>(
        &mut self,
        mut step: impl FnMut(&mut Self, usize) -> ControlFlow<T>,
    ) -> Result<T, FaultError> {
        let base = self.stats.supersteps;
        self.with_faults(|rt, comp| {
            if rt.injector.checkpoint_every() > 0 {
                rt.take_checkpoint(comp);
            }
        });
        loop {
            self.with_faults(|rt, comp| rt.admit(comp)).transpose()?;
            let k = self.stats.supersteps;
            let flow = step(self, (k - base) as usize);
            debug_assert_eq!(self.stats.supersteps, k + 1, "a phase step issues one superstep");
            if let ControlFlow::Break(out) = flow {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::fault::FaultPlan;
    use crate::graph::{Graph, GraphBuilder};
    use crate::partition::Partitioning;
    use crate::program::Aggregator;
    use crate::stats::FaultTraffic;

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

    /// A computation over `g` on two simulated machines (odd/even vertices),
    /// every phase forced through the pool when `threads > 1`.
    fn computation<'g>(
        g: &'g Graph,
        threads: usize,
        injector: Option<Arc<FaultInjector>>,
    ) -> Computation<'g, u64, u64> {
        let config = EngineConfig::with_threads(threads).with_parallel_threshold(0);
        let mut comp = Computation::new(g, config, |_| 0);
        comp.set_partitioning_shared(Arc::new(Partitioning::from_assignment(
            (0..g.vertex_count()).map(|v| (v % 2) as u16).collect(),
            2,
        )));
        if let Some(inj) = injector {
            comp.set_fault_injector(inj);
        }
        comp
    }

    type Run = Result<(Vec<u64>, RunStats), FaultError>;

    /// A run-until-halted phase: vertex 0 starts a wave that increments as
    /// it travels right, one vertex per superstep; the phase ends when no
    /// vertex is active. Every step runs the same closure.
    fn run_wave(g: &Graph, threads: usize, injector: Option<Arc<FaultInjector>>) -> Run {
        let mut comp = computation(g, threads, injector);
        comp.activate([0]);
        comp.run_phase(|comp, i| {
            assert!(i < 100, "wave did not halt");
            comp.superstep_simple(|ctx| {
                let incoming = ctx.messages().iter().copied().max().unwrap_or(0);
                *ctx.state = incoming;
                let next = ctx.id() + 1;
                if (next as usize) < ctx.graph().vertex_count() {
                    ctx.send(next, incoming + 1);
                }
            });
            if comp.halted() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        Ok(comp.finish())
    }

    /// A fixed-length phase whose steps differ by index: step `i` folds `i`
    /// into every vertex's state order-sensitively and keeps the vertex
    /// active, so a replay that re-issued the wrong step would show.
    fn run_staged(g: &Graph, threads: usize, injector: Option<Arc<FaultInjector>>) -> Run {
        const STEPS: usize = 8;
        let mut comp = computation(g, threads, injector);
        comp.activate(g.vertices());
        comp.run_phase(|comp, i| {
            comp.superstep_simple(|ctx| {
                *ctx.state = *ctx.state * 3 + i as u64 + ctx.messages().len() as u64;
                let me = ctx.id();
                ctx.send(me, 0);
            });
            if i + 1 == STEPS {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        Ok(comp.finish())
    }

    /// The cross product the layer must hold on: both phase shapes × threads
    /// × checkpoint interval × a crash at **every** superstep index.
    #[test]
    fn every_crash_point_recovers_identically_under_every_interval() {
        let g = line(8);
        for (name, run) in [("wave", run_wave as fn(_, _, _) -> Run), ("staged", run_staged)] {
            let (base_states, base) = run(&g, 1, None).unwrap();
            assert_eq!(base.supersteps, 8, "{name}");
            assert_eq!(base.faults, FaultTraffic::default(), "{name}: fault-free run is clean");
            for threads in [1, 4] {
                for every in [0, 1, 2, 4] {
                    for crash in 0..base.supersteps {
                        let at = format!("{name} threads={threads} every={every} crash={crash}");
                        let machine = (crash % 2) as u32;
                        let plan = FaultPlan::new().crash(machine, crash);
                        let inj = Arc::new(FaultInjector::new(plan, every));
                        let first = run(&g, threads, Some(Arc::clone(&inj)));
                        assert_eq!(inj.fired_count(), 1, "{at}: the crash must fire");
                        let (states, stats) = if every == 0 {
                            // No checkpoints: the machine is lost, and the
                            // rerun (fault spent) goes clean.
                            let lost = FaultError::MachineLost { machine, superstep: crash };
                            assert_eq!(first.unwrap_err(), lost, "{at}");
                            let rerun = run(&g, threads, Some(inj)).unwrap();
                            assert_eq!(rerun.1.faults, FaultTraffic::default(), "{at}");
                            rerun
                        } else {
                            let recovered = first.unwrap();
                            let f = recovered.1.faults;
                            assert_eq!(f.crashes_recovered, 1, "{at}");
                            assert_eq!(f.recovered_rounds, crash % every, "{at}");
                            assert_eq!(f.recovered_vertices, 4, "{at}: one machine's share");
                            assert!(f.recovery_bytes > 0, "{at}");
                            recovered
                        };
                        assert_eq!(states, base_states, "{at}");
                        assert_eq!(stats.supersteps, base.supersteps, "{at}");
                        assert_eq!(stats.totals, base.totals, "{at}");
                        assert_eq!(stats.steps, base.steps, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn bare_superstep_on_an_armed_computation_always_runs() {
        let g = line(4);
        let plan = FaultPlan::new().crash(0, 0).drop_link(0, 1, 0).compute_panic(0);
        let inj = Arc::new(FaultInjector::new(plan, 1));
        let mut comp = computation(&g, 1, Some(Arc::clone(&inj)));
        comp.activate(g.vertices());
        let step = comp.superstep_simple(|ctx| *ctx.state = 7);
        assert_eq!(step.active_vertices, 4);
        assert_eq!(comp.states(), &[7, 7, 7, 7]);
        assert_eq!(comp.stats().supersteps, 1);
        assert_eq!(inj.fired_count(), 0, "supersteps never consult the injector");
        assert_eq!(comp.stats().faults, FaultTraffic::default(), "and never checkpoint");
    }

    #[test]
    fn crash_recovers_from_checkpoint_with_identical_results() {
        let g = line(8);
        let (base_states, base) = run_wave(&g, 1, None).unwrap();
        // Crash machine 1 just before superstep 5; checkpoints every 2
        // supersteps put the last one at superstep 4 → one rolled-back round.
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash(1, 5), 2));
        let (states, stats) = run_wave(&g, 1, Some(Arc::clone(&inj))).unwrap();
        assert!(inj.any_fired(), "the crash must actually fire");
        assert_eq!(states, base_states, "recovery must not change results");
        // Non-fault statistics replay identically…
        assert_eq!(stats.supersteps, base.supersteps);
        assert_eq!(stats.totals, base.totals);
        assert_eq!(stats.steps, base.steps);
        // …while the fault costs are itemized on the side.
        assert_eq!(stats.faults.crashes_recovered, 1);
        assert_eq!(stats.faults.recovered_rounds, 1, "checkpoint at 4, crash at 5");
        assert!(stats.faults.checkpoints >= 3);
        assert!(stats.faults.checkpoint_bytes > 0);
        assert!(stats.faults.recovery_bytes > 0);
        assert!(
            stats.faults.recovery_bytes < stats.faults.checkpoint_bytes,
            "recovery re-ships only the crashed machine's partition share"
        );
        assert!(stats.faults.recovered_vertices == g.vertex_count() as u64 / 2);
        assert_eq!(base.faults, FaultTraffic::default(), "fault-free run is clean");
    }

    #[test]
    fn recovery_is_identical_across_thread_counts() {
        let g = line(64);
        let (base_states, base) = run_wave(&g, 1, None).unwrap();
        for threads in [1, 4] {
            let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash(0, 3), 1));
            let (states, stats) = run_wave(&g, threads, Some(inj)).unwrap();
            assert_eq!(states, base_states, "threads={threads}");
            assert_eq!(stats.totals, base.totals, "threads={threads}");
        }
    }

    #[test]
    fn crash_at_checkpointed_superstep_replays_nothing() {
        let g = line(6);
        let (base_states, base) = run_wave(&g, 1, None).unwrap();
        // checkpoint_every=1 and a crash at superstep 2: the checkpoint due
        // at 2 is taken by the same gate, so the restore is a charged data
        // no-op and the step runs at once — no replay rounds.
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash(0, 2), 1));
        let (states, stats) = run_wave(&g, 1, Some(inj)).unwrap();
        assert_eq!(states, base_states);
        assert_eq!(stats.supersteps, base.supersteps);
        assert_eq!(stats.faults.crashes_recovered, 1);
        assert_eq!(stats.faults.recovered_rounds, 0, "nothing to replay");
        assert!(stats.faults.recovery_bytes > 0, "the restore itself is still charged");
    }

    #[test]
    fn crash_without_checkpoint_aborts_then_rerun_succeeds() {
        let g = line(5);
        // checkpoint_every=0: checkpointing disabled.
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash(1, 1), 0));
        let err = run_wave(&g, 1, Some(Arc::clone(&inj))).unwrap_err();
        assert_eq!(err, FaultError::MachineLost { machine: 1, superstep: 1 });
        assert!(!err.is_transient());
        // The fault is spent: a rerun sharing the injector goes clean.
        let (states, stats) = run_wave(&g, 1, Some(inj)).unwrap();
        assert_eq!(states, run_wave(&g, 1, None).unwrap().0);
        assert_eq!(stats.faults.checkpoints, 0, "interval 0 takes no checkpoints");
        assert_eq!(stats.faults.crashes_recovered, 0);
    }

    #[test]
    fn transient_drop_aborts_then_rerun_succeeds() {
        let g = line(5);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().drop_link(0, 1, 2), 2));
        let err = run_wave(&g, 1, Some(Arc::clone(&inj))).unwrap_err();
        assert_eq!(err, FaultError::DeliveryFailed { from: 0, to: 1, superstep: 2 });
        assert!(err.is_transient());
        let (states, _) = run_wave(&g, 1, Some(inj)).unwrap();
        assert_eq!(states, run_wave(&g, 1, None).unwrap().0);
    }

    #[test]
    fn injected_panic_unwinds_out_of_the_phase() {
        let g = line(4);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().compute_panic(0), 0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_wave(&g, 1, Some(Arc::clone(&inj))).ok();
        }));
        assert!(r.is_err(), "an injected compute panic must unwind to the host");
        assert_eq!(inj.fired_count(), 1);
        // Spent: the rerun completes.
        assert!(run_wave(&g, 1, Some(inj)).is_ok());
    }

    #[test]
    fn one_step_phase_recovers_before_its_aggregate_escapes() {
        #[derive(Default)]
        struct Count(u64);
        impl Aggregator for Count {
            fn merge(&mut self, other: Self) {
                self.0 += other.0;
            }
        }
        let g = line(4);
        // Interval 4 would not checkpoint at superstep 0 by cadence alone —
        // the phase-start checkpoint is what makes the crash recoverable, at
        // the phase's own index, so the aggregate the host reads is valid.
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash(0, 0), 4));
        let mut comp = computation(&g, 1, Some(inj));
        comp.activate(g.vertices());
        let agg = comp
            .run_phase(|comp, _| ControlFlow::Break(comp.superstep(|_, a: &mut Count| a.0 += 1).1))
            .unwrap();
        assert_eq!(agg.0, 4, "aggregate computed after recovery");
        assert_eq!(comp.stats().supersteps, 1);
        assert_eq!(comp.stats().faults.crashes_recovered, 1);
        assert_eq!(comp.stats().faults.recovered_rounds, 0);
    }

    /// Four steps over `line(8)` on two machines: every vertex signals
    /// along all its edges, then along its right edge, then its left one,
    /// each step folding the edges it was signalled along into its state.
    /// With `signal` off, 8-byte messages carrying the sender's id stand in
    /// for the signals.
    fn run_signals(g: &Graph, signal: bool, injector: Option<Arc<FaultInjector>>) -> Run {
        let label = g.edge_label_id("next").expect("line graphs label their edges");
        let mut comp = computation(g, 1, injector);
        comp.activate(g.vertices());
        comp.run_phase(|comp, i| {
            comp.superstep_simple(|ctx| {
                let me = ctx.id();
                let from: Vec<VertexId> = if signal {
                    let edges = ctx.edges();
                    ctx.signalled(0..edges.len()).map(|s| edges[s].target).collect()
                } else {
                    ctx.messages().iter().map(|&m| m as VertexId).collect()
                };
                for f in from {
                    *ctx.state = *ctx.state * 31 + u64::from(f) + 1;
                }
                for (slot, edge) in ctx.edges().iter().enumerate() {
                    let go = match i {
                        0 => true,
                        1 => edge.target > me,
                        2 => edge.target < me,
                        _ => false,
                    };
                    match (go, signal) {
                        (false, _) => {}
                        (true, true) => ctx.signal_along(label, slot),
                        (true, false) => ctx.send_along(label, edge.target, u64::from(me)),
                    }
                }
            });
            if i == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        Ok(comp.finish())
    }

    /// A crash right after a signalling superstep rolls the signals back
    /// with the checkpoint: the bits of the step before are restored (the
    /// replay reads the right edges), and checkpoint and recovery bytes
    /// price each pending signal at 8 bytes, exactly as the 8-byte messages
    /// that stand in for them.
    #[test]
    fn pending_signals_are_checkpointed_and_restored() {
        let g = line(8);
        let (base_states, base) = run_signals(&g, true, None).unwrap();
        // Checkpoints at 0 and 2; machine 1 (odd vertices) crashes before
        // superstep 3, with step 2's left signals pending: the rollback
        // restores step 1's right signals and replays step 2.
        let run = |signal: bool| {
            let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash(1, 3), 2));
            let out = run_signals(&g, signal, Some(Arc::clone(&inj))).unwrap();
            assert_eq!(inj.fired_count(), 1);
            out
        };
        let (states, stats) = run(true);
        assert_eq!(states, base_states, "the replay read the restored bits");
        assert_eq!((stats.totals, &stats.steps), (base.totals, &base.steps));
        let f = stats.faults;
        assert_eq!((f.checkpoints, f.crashes_recovered, f.recovered_rounds), (2, 1, 1));
        // At 0: 8 active ids and 8 states. At 2: 7 targets of step 1's
        // right signals, 8 states and the 7 signals.
        assert_eq!(f.checkpoint_bytes, (8 * 8 + 8 * 8) + (7 * 8 + 8 * 8 + 7 * SIGNAL_BYTES));
        // Machine 1's 4 states and the 4 signals pending into it (1, 3, 5, 7).
        assert_eq!(f.recovery_bytes, 4 * 8 + 4 * SIGNAL_BYTES);
        assert_eq!(f, run(false).1.faults, "signals are priced as 8-byte messages");
    }

    #[test]
    fn default_sizer_and_custom_sizer_price_checkpoints() {
        let g = line(3);
        let run = |sizer: Option<fn(&u64) -> u64>| {
            let inj = Arc::new(FaultInjector::new(FaultPlan::new(), 1));
            let mut comp: Computation<'_, u64, u64> =
                Computation::new(&g, EngineConfig::sequential(), |_| 0);
            comp.set_fault_injector(inj);
            if let Some(s) = sizer {
                comp.set_state_sizer(s);
            }
            comp.activate([0]);
            comp.run_phase(|comp, _| ControlFlow::Break(comp.superstep_simple(|_| {}))).unwrap();
            comp.stats().faults
        };
        // One checkpoint before the only superstep: 1 active id (8 bytes) +
        // 3 vertex states, no pending messages.
        let default = run(None);
        assert_eq!(default.checkpoints, 1);
        assert_eq!(default.checkpoint_bytes, 8 + 3 * std::mem::size_of::<u64>() as u64);
        let custom = run(Some(|_| 100));
        assert_eq!(custom.checkpoint_bytes, 8 + 3 * 100);
    }
}
