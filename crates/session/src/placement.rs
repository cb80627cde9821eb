//! The [`PlacementController`]: where vertices live, and how that changes.
//!
//! The database is encoded once and serves many queries, so the machine
//! placement of its vertices is the one piece of cross-query state — and,
//! per Beame–Koutris–Suciu, the thing that bounds every round's
//! communication cost. This module owns the whole decision: compare a
//! *vote* (an observed [`TrafficProfile`]) against the profile the current
//! placement was derived from, derive a `Workload(vote)` target once the
//! byte-weighted drift passes the threshold, walk toward the target at most
//! `migration_budget` vertices per step without pushing a machine past the
//! balance cap, charge every migrated vertex's state to the triggering
//! execution's [`NetStats`], and adopt the vote as the standing profile
//! when the walk ends.
//!
//! Every [`crate::Host`] keeps one behind a lock and steps it after each
//! run; callers differ only in the vote they feed it. A [`crate::Session`]
//! votes with its own accumulated profile, `vcsql-server` with the merged
//! tenant consensus (or one tenant's profile — see `Arbitration`). A
//! controller exists only for `machines > 1`: a single machine has no
//! placement to control.

use crate::SessionConfig;
use std::sync::Arc;
use vcsql_bsp::{
    balance_cap, migrate_step, PartitionStrategy, Partitioning, TrafficProfile, VertexId,
    DEFAULT_BALANCE_SLACK,
};
use vcsql_dist::NetStats;
use vcsql_relation::Value;
use vcsql_tag::TagGraph;

/// An in-flight migration: the target placement, the vote it was derived
/// from (adopted as the standing profile once the walk ends) and who
/// proposed it.
struct PendingMigration {
    target: Partitioning,
    profile: TrafficProfile,
    proposer: usize,
}

/// The current placement of one TAG over `machines > 1` simulated machines,
/// plus the drift → target → budgeted walk → adopt state machine that moves
/// it. See the module docs.
pub struct PlacementController {
    tag: Arc<TagGraph>,
    /// Mid-migration this is the in-between placement the next execution
    /// runs under; shared with executors by `Arc`, never copied per run.
    current: Arc<Partitioning>,
    /// The profile `current` was derived from (empty for the static
    /// strategies — any observed traffic then drifts maximally and the
    /// placement self-tunes on first use).
    profile: TrafficProfile,
    pending: Option<PendingMigration>,
    drift_threshold: f64,
    migration_budget: usize,
    /// Per-machine vertex quota no migration step may exceed: the cap every
    /// target placement is built under (`DEFAULT_BALANCE_SLACK`), so a walk
    /// can reach any target it is given.
    cap: usize,
    /// Targets derived (drift-threshold crossings).
    pub adaptations: u64,
    /// Steps that moved at least one vertex.
    pub migration_steps: u64,
    /// Vertices migrated across all steps.
    pub migrated_vertices: u64,
    /// Bytes of migrated vertex state (also itemized per execution in the
    /// `NetStats` handed to [`PlacementController::step`]).
    pub migration_bytes: u64,
}

impl PlacementController {
    /// Place `tag` over `config.machines` machines with `config.strategy`;
    /// `None` on a single machine. A [`PartitionStrategy::Workload`]
    /// strategy also seeds the standing profile with its calibration
    /// profile. The knobs must already have passed [`crate::Host::new`]'s
    /// validation.
    pub(crate) fn new(tag: &Arc<TagGraph>, config: &SessionConfig) -> Option<PlacementController> {
        let machines = config.machines;
        (machines > 1).then(|| PlacementController {
            tag: Arc::clone(tag),
            current: Arc::new(tag.partition(&config.strategy, machines)),
            profile: calibration_profile(&config.strategy),
            pending: None,
            drift_threshold: config.drift_threshold,
            migration_budget: config.migration_budget,
            cap: balance_cap(tag.graph().vertex_count(), machines, DEFAULT_BALANCE_SLACK),
            adaptations: 0,
            migration_steps: 0,
            migrated_vertices: 0,
            migration_bytes: 0,
        })
    }

    /// The placement the next execution runs under.
    pub fn current(&self) -> &Arc<Partitioning> {
        &self.current
    }

    /// The profile the current placement was derived from.
    pub fn profile(&self) -> &TrafficProfile {
        &self.profile
    }

    /// True iff a target exists that the placement has not fully walked to.
    pub fn is_migrating(&self) -> bool {
        self.pending.is_some()
    }

    /// One controller step, run after an execution. `vote` is the traffic
    /// the caller wants the placement to serve — `None` abstains (a
    /// consensus without quorum): no target is derived, though a walk
    /// already in flight continues. A drifted vote derives a target
    /// when none is pending, or — only if `may_retarget` — overwrites one a
    /// *different* `proposer` is still walking toward (the thrashing
    /// unilateral baseline). Then the placement moves one budgeted,
    /// balance-capped step toward the pending target, charging the migrated
    /// vertex state to `net`.
    pub fn step(
        &mut self,
        vote: Option<&TrafficProfile>,
        may_retarget: bool,
        proposer: usize,
        net: &mut NetStats,
    ) {
        let open = match &self.pending {
            None => true,
            Some(p) => may_retarget && p.proposer != proposer,
        };
        if let Some(vote) =
            vote.filter(|v| open && v.byte_drift(&self.profile) > self.drift_threshold)
        {
            let target = self
                .tag
                .partition(&PartitionStrategy::Workload(vote.clone()), self.current.machines());
            self.pending = Some(PendingMigration { target, profile: vote.clone(), proposer });
            self.adaptations += 1;
        }
        let Some(pending) = self.pending.take() else { return };
        let step = migrate_step(&self.current, &pending.target, self.migration_budget, self.cap);
        if !step.moves.is_empty() {
            let bytes: u64 =
                step.moves.iter().map(|m| vertex_state_bytes(&self.tag, m.vertex)).sum();
            net.record_migration(step.moves.len() as u64, bytes);
            self.migration_steps += 1;
            self.migrated_vertices += step.moves.len() as u64;
            self.migration_bytes += bytes;
        }
        self.current = Arc::new(step.partitioning);
        // Converged — or cap-blocked with no progress possible (loads no
        // longer change): adopt the target's profile either way.
        if step.remaining == 0 || step.moves.is_empty() {
            self.profile = pending.profile;
        } else {
            self.pending = Some(pending);
        }
    }
}

/// The traffic knowledge an initial strategy starts with: a `Workload`
/// strategy's calibration profile, nothing for the static ones.
pub(crate) fn calibration_profile(strategy: &PartitionStrategy) -> TrafficProfile {
    match strategy {
        PartitionStrategy::Workload(p) => p.clone(),
        _ => TrafficProfile::new(),
    }
}

/// Wire size of one vertex's state, charged when the vertex migrates: its
/// values at [`Value::wire_bytes`] — the model both engines charge for
/// messages — plus one id word.
fn vertex_state_bytes(tag: &TagGraph, v: VertexId) -> u64 {
    let bytes = match tag.tuple(v) {
        Some(t) => t.iter().map(Value::wire_bytes).sum(),
        None => tag.attr_value(v).map_or(8, Value::wire_bytes),
    };
    8 + bytes as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_bsp::LabelTraffic;
    use vcsql_workload::tpch;

    fn controller(budget: usize) -> PlacementController {
        let tag = Arc::new(TagGraph::build(&tpch::generate(0.004, 42)));
        let config = SessionConfig { machines: 4, migration_budget: budget, ..Default::default() };
        PlacementController::new(&tag, &config).expect("four machines have a placement")
    }

    /// A vote whose whole traffic sits on `label`; votes on different
    /// labels drift maximally from each other and from the empty profile.
    fn vote_on(label: &str) -> TrafficProfile {
        let mut p = TrafficProfile::new();
        p.record(label, LabelTraffic { messages: 1000, bytes: 100_000, ..Default::default() });
        p
    }

    #[test]
    fn single_machine_has_no_controller() {
        let tag = Arc::new(TagGraph::build(&tpch::generate(0.004, 42)));
        assert!(PlacementController::new(&tag, &SessionConfig::default()).is_none());
    }

    #[test]
    fn each_step_moves_at_most_the_budget() {
        let mut pc = controller(7);
        let vote = vote_on("lineitem.l_partkey");
        let mut migrated = 0;
        for _ in 0..3 {
            let mut net = NetStats::default();
            pc.step(Some(&vote), false, 0, &mut net);
            assert!(
                (1..=7).contains(&net.migration_messages),
                "step moved {}",
                net.migration_messages
            );
            assert_eq!(net.network_bytes, net.migration_bytes, "a step ships only vertex state");
            migrated += net.migration_messages;
        }
        assert_eq!(pc.adaptations, 1, "one drift crossing, one target");
        assert_eq!(pc.migration_steps, 3);
        assert_eq!(pc.migrated_vertices, migrated);
        assert!(pc.is_migrating(), "budget 7 cannot finish in three steps");
        assert!(pc.profile().is_empty(), "the vote is adopted only when the walk ends");
    }

    #[test]
    fn cap_blocked_walk_adopts_the_profile() {
        let mut pc = controller(1_000_000);
        // Every machine already holds more than one vertex, so under a cap
        // of 1 no destination has room: the first step makes no progress.
        pc.cap = 1;
        let before = Arc::clone(pc.current());
        let vote = vote_on("lineitem.l_partkey");
        let mut net = NetStats::default();
        pc.step(Some(&vote), false, 0, &mut net);
        assert_eq!(pc.adaptations, 1);
        assert_eq!((pc.migration_steps, net.migration_bytes), (0, 0));
        assert!(!pc.is_migrating(), "a walk that cannot progress counts as converged");
        assert_eq!(pc.profile(), &vote, "so the drift that started it does not re-fire");
        for v in pc.tag.graph().vertices() {
            assert_eq!(pc.current().machine_of(v), before.machine_of(v));
        }
        pc.step(Some(&vote), false, 0, &mut net);
        assert_eq!(pc.adaptations, 1);
    }

    #[test]
    fn pending_target_is_overwritten_only_by_a_different_proposer_allowed_to() {
        let mut pc = controller(3);
        let (a, b) = (vote_on("lineitem.l_partkey"), vote_on("orders.o_custkey"));
        let mut net = NetStats::default();
        pc.step(Some(&a), true, 0, &mut net);
        assert_eq!(pc.adaptations, 1);
        // The proposer's own later drift does not restart its walk...
        pc.step(Some(&b), true, 0, &mut net);
        assert_eq!(pc.adaptations, 1);
        // ...nor does anybody's when overwriting is not allowed...
        pc.step(Some(&b), false, 1, &mut net);
        assert_eq!(pc.adaptations, 1);
        // ...but a different proposer that may retarget does (the thrash).
        pc.step(Some(&b), true, 1, &mut net);
        assert_eq!(pc.adaptations, 2);
        assert!(pc.is_migrating());
    }

    #[test]
    fn abstaining_never_retargets_but_keeps_walking() {
        let mut pc = controller(3);
        let mut net = NetStats::default();
        for _ in 0..4 {
            pc.step(None, true, 0, &mut net);
        }
        assert_eq!((pc.adaptations, net.migration_messages), (0, 0));
        pc.step(Some(&vote_on("lineitem.l_partkey")), false, 0, &mut net);
        let after_first = pc.migrated_vertices;
        pc.step(None, false, 0, &mut net);
        assert_eq!(pc.adaptations, 1);
        assert!(pc.migrated_vertices > after_first, "an in-flight walk continues without a vote");
    }
}
