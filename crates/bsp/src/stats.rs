//! Execution statistics: the paper's communication/computation cost measure.
//!
//! The paper's Section 2 cost model counts every message sent over all
//! supersteps (communication) and every unit of vertex work (computation).
//! These counters let the benches check the analytic bounds (e.g.
//! `min(IN, OUT)` for two-way joins, the AGM bound for cycles) against the
//! implementation, and feed the distributed-simulation network figures.
//!
//! Beyond the per-superstep totals, a [`RunStats`] keeps a **per-edge-label
//! breakdown** of the traffic: every send is attributed to the edge label it
//! travelled along ([`crate::engine::VertexCtx::send_along`]), or to the
//! reserved [`LabelId::NONE`] bucket for label-less sends. Summed over all
//! labels the breakdown always equals the totals. A breakdown resolved to
//! label *names* is a [`TrafficProfile`]: the observed per-label traffic of a
//! calibration run, handed in memory to the placement that partitions for it
//! (the `PartitionStrategy::Workload` placement in [`crate::partition`]).

use crate::graph::Graph;
use crate::interner::LabelId;
use std::collections::BTreeMap;
use vcsql_relation::FxHashMap;

/// Statistics for one superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Vertices that executed this superstep.
    pub active_vertices: u64,
    /// Messages sent this superstep.
    pub messages: u64,
    /// Sum of message payload sizes in bytes.
    pub message_bytes: u64,
    /// Messages whose source and target live on different simulated machines
    /// (zero when no partitioning is configured).
    pub network_messages: u64,
    /// Bytes crossing simulated machine boundaries.
    pub network_bytes: u64,
}

impl StepStats {
    fn add(&mut self, other: &StepStats) {
        self.active_vertices += other.active_vertices;
        self.messages += other.messages;
        self.message_bytes += other.message_bytes;
        self.network_messages += other.network_messages;
        self.network_bytes += other.network_bytes;
    }

    /// Fold one label's traffic into this step's message/byte counters.
    pub(crate) fn add_traffic(&mut self, t: &LabelTraffic) {
        self.messages += t.messages;
        self.message_bytes += t.bytes;
        self.network_messages += t.network_messages;
        self.network_bytes += t.network_bytes;
    }
}

/// Traffic attributed to one edge label (or to [`LabelId::NONE`]): the
/// message/byte counters of [`StepStats`] without the vertex-activity ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelTraffic {
    pub messages: u64,
    pub bytes: u64,
    pub network_messages: u64,
    pub network_bytes: u64,
}

impl LabelTraffic {
    /// Fold another label's (or run's) traffic into this one.
    pub fn add(&mut self, other: &LabelTraffic) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.network_messages += other.network_messages;
        self.network_bytes += other.network_bytes;
    }
}

/// Byte/round costs of fault tolerance, kept **separate** from the BSP
/// traffic counters: checkpoint writes go to (simulated) stable storage, not
/// the network, and recovery replays are an overhead of the failure — mixing
/// either into `totals` would corrupt the paper's communication-cost measure
/// and the byte-golden baselines. The distributed layer decides which of
/// these to also bill as network traffic (see `vcsql-dist`'s `NetStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTraffic {
    /// Bytes written to checkpoints (vertex state + pending messages + the
    /// active set) over the run.
    pub checkpoint_bytes: u64,
    /// Number of checkpoints taken.
    pub checkpoints: u64,
    /// Bytes re-shipped to restore crashed partitions from checkpoints.
    pub recovery_bytes: u64,
    /// Vertices whose state was restored during recoveries.
    pub recovered_vertices: u64,
    /// Supersteps replayed after rollbacks (checkpoint superstep → crash
    /// superstep, summed over recoveries).
    pub recovered_rounds: u64,
    /// Machine crashes absorbed by checkpoint recovery (crashes without a
    /// checkpoint abort the run instead and are not counted here).
    pub crashes_recovered: u64,
}

impl FaultTraffic {
    /// Fold another run's fault costs into this one.
    pub fn add(&mut self, other: &FaultTraffic) {
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.checkpoints += other.checkpoints;
        self.recovery_bytes += other.recovery_bytes;
        self.recovered_vertices += other.recovered_vertices;
        self.recovered_rounds += other.recovered_rounds;
        self.crashes_recovered += other.crashes_recovered;
    }
}

/// Accumulated statistics for a whole computation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    pub supersteps: u64,
    pub totals: StepStats,
    /// Per-superstep breakdown, in execution order.
    pub steps: Vec<StepStats>,
    /// Per-edge-label breakdown of all traffic in `totals` (label-less sends
    /// under [`LabelId::NONE`]). Invariant: the per-label counters sum to the
    /// corresponding `totals` fields.
    pub per_label: FxHashMap<LabelId, LabelTraffic>,
    /// Checkpoint/recovery costs, itemized outside `totals` (all zero on a
    /// fault-free run without checkpointing).
    pub faults: FaultTraffic,
}

impl RunStats {
    /// Record a completed superstep together with its per-label traffic
    /// breakdown (the engine's path; `labels` must sum to `step`'s traffic).
    pub fn record_step(&mut self, step: StepStats, labels: &[(LabelId, LabelTraffic)]) {
        self.supersteps += 1;
        self.totals.add(&step);
        self.steps.push(step);
        for (label, t) in labels {
            self.per_label.entry(*label).or_default().add(t);
        }
    }

    /// Record traffic that belongs to no superstep (host-side shipping such
    /// as the Algorithm-B Cartesian hand-off): totals grow, `supersteps` and
    /// the per-step list do not — so round counts stay those of the actual
    /// BSP execution.
    pub fn record_traffic(&mut self, traffic: LabelTraffic) {
        self.totals.add_traffic(&traffic);
        self.per_label.entry(LabelId::NONE).or_default().add(&traffic);
    }

    /// Total messages over all supersteps (the paper's communication cost).
    pub fn total_messages(&self) -> u64 {
        self.totals.messages
    }

    /// Total message bytes over all supersteps.
    pub fn total_bytes(&self) -> u64 {
        self.totals.message_bytes
    }

    /// Traffic attributed to one label (zero if the label never sent).
    pub fn label_traffic(&self, label: LabelId) -> LabelTraffic {
        self.per_label.get(&label).copied().unwrap_or_default()
    }

    /// Fold another run's statistics into this one (used when a query runs
    /// several vertex programs, e.g. per-bag subqueries then the glue join).
    pub fn absorb(&mut self, other: &RunStats) {
        self.supersteps += other.supersteps;
        self.totals.add(&other.totals);
        self.steps.extend_from_slice(&other.steps);
        for (label, t) in &other.per_label {
            self.per_label.entry(*label).or_default().add(t);
        }
        self.faults.add(&other.faults);
    }
}

/// Observed per-edge-label traffic of one or more runs, keyed by label
/// *name* so a profile observed on one graph can place another (label ids
/// are graph-local). This is the in-process hand-off between a calibration
/// run and a later `PartitionStrategy::Workload` placement.
///
/// The [`LabelId::NONE`] bucket is deliberately excluded — label-less
/// traffic names no edge and cannot guide placement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficProfile {
    entries: BTreeMap<String, LabelTraffic>,
}

impl TrafficProfile {
    /// Empty profile (every label is "unseen"; the `Workload` placement then
    /// falls back to its static weights everywhere).
    pub fn new() -> TrafficProfile {
        TrafficProfile::default()
    }

    /// Resolve a run's per-label breakdown against the graph it ran over.
    pub fn from_run(stats: &RunStats, graph: &Graph) -> TrafficProfile {
        let mut p = TrafficProfile::new();
        for (&label, t) in &stats.per_label {
            if label == LabelId::NONE {
                continue;
            }
            p.entries.entry(graph.edge_label_name(label).to_string()).or_default().add(t);
        }
        p
    }

    /// Fold another profile into this one (e.g. per-query profiles of a
    /// whole calibration workload).
    pub fn absorb(&mut self, other: &TrafficProfile) {
        for (name, t) in &other.entries {
            self.entries.entry(name.clone()).or_default().add(t);
        }
    }

    /// Insert an explicit zero entry for every edge label of `graph` that
    /// the profile has not observed. A calibration run does this so that
    /// "this label carried nothing" (weight 0) is distinguishable from
    /// "this label was never profiled" (static-weight fallback).
    pub fn cover_graph(&mut self, graph: &Graph) {
        for (_, name) in graph.edge_labels().iter() {
            self.entries.entry(name.to_string()).or_default();
        }
    }

    /// Record traffic for a label by name (mainly for tests and tooling).
    pub fn record(&mut self, name: &str, traffic: LabelTraffic) {
        self.entries.entry(name.to_string()).or_default().add(&traffic);
    }

    /// The observed traffic for a label name, if the label was profiled
    /// (a `Some` of zeros means "seen, carried nothing").
    pub fn get(&self, name: &str) -> Option<LabelTraffic> {
        self.entries.get(name).copied()
    }

    /// Iterate `(name, traffic)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LabelTraffic)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Number of profiled labels.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no label has been profiled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn record_accumulates() {
        let mut r = RunStats::default();
        for (active_vertices, messages, bytes) in [(3, 5, 40), (2, 1, 8)] {
            r.record_step(
                StepStats { active_vertices, messages, message_bytes: bytes, ..Default::default() },
                &[(LabelId::NONE, LabelTraffic { messages, bytes, ..Default::default() })],
            );
        }
        assert_eq!(r.supersteps, 2);
        assert_eq!(r.total_messages(), 6);
        assert_eq!(r.total_bytes(), 48);
        assert_eq!(r.steps.len(), 2);
        assert_eq!(r.label_traffic(LabelId::NONE).messages, 6);

        let mut s = RunStats::default();
        s.absorb(&r);
        s.absorb(&r);
        assert_eq!(s.supersteps, 4);
        assert_eq!(s.total_messages(), 12);
        assert_eq!(s.label_traffic(LabelId::NONE).bytes, 96);
    }

    #[test]
    fn record_step_tracks_labels() {
        let mut r = RunStats::default();
        let l0 = LabelId(0);
        let l1 = LabelId(1);
        r.record_step(
            StepStats { active_vertices: 2, messages: 3, message_bytes: 24, ..Default::default() },
            &[
                (l0, LabelTraffic { messages: 2, bytes: 16, ..Default::default() }),
                (l1, LabelTraffic { messages: 1, bytes: 8, ..Default::default() }),
            ],
        );
        assert_eq!(r.label_traffic(l0).messages, 2);
        assert_eq!(r.label_traffic(l1).bytes, 8);
        let sum: u64 = r.per_label.values().map(|t| t.messages).sum();
        assert_eq!(sum, r.total_messages());
    }

    #[test]
    fn record_traffic_skips_rounds() {
        let mut r = RunStats::default();
        r.record_step(
            StepStats { messages: 1, message_bytes: 8, ..Default::default() },
            &[(LabelId::NONE, LabelTraffic { messages: 1, bytes: 8, ..Default::default() })],
        );
        r.record_traffic(LabelTraffic {
            messages: 10,
            bytes: 100,
            network_messages: 4,
            network_bytes: 40,
        });
        assert_eq!(r.supersteps, 1, "non-round traffic must not add a superstep");
        assert_eq!(r.steps.len(), 1);
        assert_eq!(r.total_messages(), 11);
        assert_eq!(r.total_bytes(), 108);
        assert_eq!(r.totals.network_bytes, 40);
    }

    #[test]
    fn profile_from_run_resolves_names_and_covers_graph() {
        let mut b = GraphBuilder::new();
        let vl = b.vertex_label("v");
        let ea = b.edge_label("r.a");
        let _eb = b.edge_label("r.b");
        b.add_vertex(vl);
        let g = b.finish();

        let mut stats = RunStats::default();
        stats.record_step(
            StepStats { messages: 2, message_bytes: 16, ..Default::default() },
            &[(ea, LabelTraffic { messages: 2, bytes: 16, ..Default::default() })],
        );
        stats.record_traffic(LabelTraffic { messages: 1, bytes: 8, ..Default::default() });

        let mut p = TrafficProfile::from_run(&stats, &g);
        assert_eq!(p.get("r.a").unwrap().messages, 2);
        assert_eq!(p.get("r.b"), None, "unobserved label absent before cover_graph");
        assert_eq!(p.len(), 1, "NONE bucket excluded");
        p.cover_graph(&g);
        assert_eq!(p.get("r.b"), Some(LabelTraffic::default()));
        assert_eq!(p.get("r.a").unwrap().messages, 2, "cover_graph must not clobber");
    }
}
