//! Deterministic fault injection for the superstep engine.
//!
//! Real Pregel-descendant engines earn their deployment story with
//! checkpoint-based fault tolerance: every few supersteps each worker
//! persists its partition's vertex state and pending messages, and when a
//! machine is lost the cluster reloads the last checkpoint and replays.
//! This module provides the *fault side* of that story for the simulated
//! cluster: a [`FaultPlan`] is a fixed, seed-derivable list of faults
//! (machine crashes at a given superstep, transient message-delivery
//! failures between machine pairs, injected compute panics), and a
//! [`FaultInjector`] arms a plan against one or more
//! [`Computation`](crate::Computation)s.
//!
//! Determinism contract: a plan is data, not randomness at run time —
//! [`FaultPlan::seeded`] derives its faults from a seed with a splitmix64
//! stream, so the same seed always produces the same faults, and every
//! fault fires **at most once** per injector lifetime (the injector tracks
//! fired faults across computations and retries). Combined with the
//! engine's checkpoint/replay (which restores state, pending messages, the
//! active set, and the statistics to the snapshot before re-running), an
//! injected crash never changes query results — only the itemized recovery
//! cost.

use std::fmt;
use std::sync::{Mutex, PoisonError};

/// One injected fault, pinned to a superstep index of the computation it
/// fires in (superstep indices are per-[`Computation`](crate::Computation):
/// the first superstep a computation runs has index 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Machine `machine` is lost just before superstep `superstep` runs:
    /// its partition's state is gone and must be restored from the last
    /// checkpoint (or the whole execution fails when none exists).
    Crash { machine: u32, superstep: u64 },
    /// Transient delivery failure on the `from → to` link at `superstep`:
    /// the execution aborts with a retryable error (the fault is spent, so
    /// a retry from scratch succeeds). Models a dropped message batch that
    /// a real engine would detect via ack timeout and resolve by rerun.
    DropLink { from: u32, to: u32, superstep: u64 },
    /// The compute phase itself panics at `superstep` (a poisoned UDF, a
    /// bug in a vertex program). Exercises host-side `catch_unwind`
    /// isolation rather than engine-level recovery.
    ComputePanic { superstep: u64 },
}

impl Fault {
    /// The superstep this fault is pinned to.
    pub fn superstep(&self) -> u64 {
        match *self {
            Fault::Crash { superstep, .. }
            | Fault::DropLink { superstep, .. }
            | Fault::ComputePanic { superstep } => superstep,
        }
    }
}

/// A deterministic list of faults to inject. Build explicitly
/// ([`FaultPlan::crash`] etc.) or derive from a seed
/// ([`FaultPlan::seeded`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

/// The splitmix64 step: the standard 64-bit mix used to expand one seed
/// into an arbitrary-length deterministic stream (no OS randomness, no
/// wall clock — replayable by construction).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (injects nothing; useful as a baseline).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a machine crash at `superstep`.
    pub fn crash(mut self, machine: u32, superstep: u64) -> FaultPlan {
        self.faults.push(Fault::Crash { machine, superstep });
        self
    }

    /// Add a transient delivery failure on the `from → to` link.
    pub fn drop_link(mut self, from: u32, to: u32, superstep: u64) -> FaultPlan {
        self.faults.push(Fault::DropLink { from, to, superstep });
        self
    }

    /// Add an injected compute panic at `superstep`.
    pub fn compute_panic(mut self, superstep: u64) -> FaultPlan {
        self.faults.push(Fault::ComputePanic { superstep });
        self
    }

    /// Derive a plan from `seed`: `crashes` machine crashes and `drops`
    /// transient link failures, over `machines` machines and superstep
    /// indices below `horizon`. Identical inputs always yield the identical
    /// plan (splitmix64 stream), so a failing seed reproduces exactly.
    pub fn seeded(
        seed: u64,
        machines: u32,
        horizon: u64,
        crashes: usize,
        drops: usize,
    ) -> FaultPlan {
        let machines = machines.max(1);
        let horizon = horizon.max(1);
        let mut state = seed;
        let mut plan = FaultPlan::new();
        for _ in 0..crashes {
            let machine = (splitmix64(&mut state) % machines as u64) as u32;
            let superstep = splitmix64(&mut state) % horizon;
            plan = plan.crash(machine, superstep);
        }
        for _ in 0..drops {
            let from = (splitmix64(&mut state) % machines as u64) as u32;
            let mut to = (splitmix64(&mut state) % machines as u64) as u32;
            if machines > 1 && to == from {
                to = (to + 1) % machines;
            }
            let superstep = splitmix64(&mut state) % horizon;
            plan = plan.drop_link(from, to, superstep);
        }
        plan
    }

    /// The faults, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// An injected fault the engine could not absorb transparently: the
/// execution is aborted and the host decides (retry, re-place, give up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// A machine crashed with no checkpoint to restore from
    /// (checkpointing disabled, or the crash predates the first
    /// checkpoint). Unrecoverable in-run; a rerun succeeds because the
    /// fault is spent.
    MachineLost { machine: u32, superstep: u64 },
    /// A transient delivery failure. Retryable by design: the injector
    /// fires each fault at most once, so the rerun's delivery succeeds.
    DeliveryFailed { from: u32, to: u32, superstep: u64 },
}

impl FaultError {
    /// True iff a bounded retry of the whole execution is the documented
    /// resolution (transient faults). Machine loss without a checkpoint is
    /// also survivable by rerun, but callers may want to re-place first.
    pub fn is_transient(&self) -> bool {
        matches!(self, FaultError::DeliveryFailed { .. })
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::MachineLost { machine, superstep } => {
                write!(f, "machine {machine} lost at superstep {superstep} with no checkpoint")
            }
            FaultError::DeliveryFailed { from, to, superstep } => {
                write!(f, "transient delivery failure {from} -> {to} at superstep {superstep}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Arms a [`FaultPlan`] against computations: tracks which faults already
/// fired (at most once each, across every computation and retry sharing
/// this injector) and carries the checkpoint cadence. Shared by `Arc`
/// between a driver and the engine.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Checkpoint every this many supersteps; `0` disables checkpointing
    /// entirely (a crash then aborts the run instead of recovering).
    checkpoint_every: u64,
    /// `fired[i]` ⇔ `plan.faults()[i]` has been injected.
    fired: Mutex<Vec<bool>>,
}

impl FaultInjector {
    /// Arm `plan` with the given checkpoint cadence.
    pub fn new(plan: FaultPlan, checkpoint_every: u64) -> FaultInjector {
        let fired = Mutex::new(vec![false; plan.len()]);
        FaultInjector { plan, checkpoint_every, fired }
    }

    /// The checkpoint cadence (`0` = checkpointing disabled).
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Poison-tolerant lock on the fired flags: an injected `ComputePanic`
    /// unwinds through engine code that may hold this lock's neighbours,
    /// and the flags are just bools — always consistent.
    fn fired(&self) -> std::sync::MutexGuard<'_, Vec<bool>> {
        self.fired.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim the first unfired fault at `superstep` matching `pick`,
    /// marking it fired. The claim is atomic: concurrent computations
    /// sharing one injector cannot double-fire a fault.
    fn claim<T>(&self, superstep: u64, pick: impl Fn(&Fault) -> Option<T>) -> Option<T> {
        let mut fired = self.fired();
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if fired[i] || fault.superstep() != superstep {
                continue;
            }
            if let Some(t) = pick(fault) {
                fired[i] = true;
                return Some(t);
            }
        }
        None
    }

    /// Claim a crash pinned to `superstep`, returning the lost machine.
    pub(crate) fn claim_crash(&self, superstep: u64) -> Option<u32> {
        self.claim(superstep, |f| match *f {
            Fault::Crash { machine, .. } => Some(machine),
            _ => None,
        })
    }

    /// Claim a transient delivery failure pinned to `superstep`.
    pub(crate) fn claim_drop(&self, superstep: u64) -> Option<(u32, u32)> {
        self.claim(superstep, |f| match *f {
            Fault::DropLink { from, to, .. } => Some((from, to)),
            _ => None,
        })
    }

    /// Claim an injected compute panic pinned to `superstep`.
    pub(crate) fn claim_panic(&self, superstep: u64) -> bool {
        self.claim(superstep, |f| match *f {
            Fault::ComputePanic { .. } => Some(()),
            _ => None,
        })
        .is_some()
    }

    /// True iff at least one fault has fired.
    pub fn any_fired(&self) -> bool {
        self.fired().iter().any(|&f| f)
    }

    /// Number of faults that have fired so far.
    pub fn fired_count(&self) -> usize {
        self.fired().iter().filter(|&&f| f).count()
    }

    /// Re-arm every fault (benchmark sweeps reuse one injector across
    /// configurations; each run of a sweep re-arms before executing).
    pub fn reset(&self) {
        self.fired().iter_mut().for_each(|f| *f = false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::seeded(42, 4, 10, 3, 5);
        let b = FaultPlan::seeded(42, 4, 10, 3, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        for f in a.faults() {
            assert!(f.superstep() < 10);
            match *f {
                Fault::Crash { machine, .. } => assert!(machine < 4),
                Fault::DropLink { from, to, .. } => {
                    assert!(from < 4 && to < 4);
                    assert_ne!(from, to, "seeded drops never target the same machine");
                }
                Fault::ComputePanic { .. } => unreachable!("seeded plans inject no panics"),
            }
        }
        // A different seed yields a different plan (overwhelmingly likely;
        // pinned here so a regression in the stream is caught).
        assert_ne!(a, FaultPlan::seeded(43, 4, 10, 3, 5));
    }

    #[test]
    fn faults_fire_at_most_once() {
        let plan = FaultPlan::new().crash(2, 3).drop_link(0, 1, 3);
        let inj = FaultInjector::new(plan, 2);
        assert!(!inj.any_fired());
        assert_eq!(inj.claim_crash(1), None, "no fault pinned to superstep 1");
        assert_eq!(inj.claim_crash(3), Some(2));
        assert_eq!(inj.claim_crash(3), None, "crash already fired");
        assert_eq!(inj.claim_drop(3), Some((0, 1)));
        assert_eq!(inj.claim_drop(3), None);
        assert_eq!(inj.fired_count(), 2);
        inj.reset();
        assert_eq!(inj.claim_crash(3), Some(2), "reset re-arms the plan");
    }

    #[test]
    fn error_display_and_transience() {
        let lost = FaultError::MachineLost { machine: 1, superstep: 4 };
        let drop = FaultError::DeliveryFailed { from: 0, to: 2, superstep: 7 };
        assert!(!lost.is_transient());
        assert!(drop.is_transient());
        assert!(lost.to_string().contains("machine 1"));
        assert!(drop.to_string().contains("0 -> 2"));
    }
}
