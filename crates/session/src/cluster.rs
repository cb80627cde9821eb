//! The [`Cluster`] builder: one value describing a simulated cluster, from
//! which sessions are opened.
//!
//! One fluent entry point over calibration (phase 1 of the workload-aware
//! loop) and the session lifecycle:
//!
//! ```ignore
//! let cluster = Cluster::new(6).strategy(PartitionStrategy::Refined);
//! let mut session = cluster.session(&tag)?;                 // shape-based placement
//! let mut tuned = cluster.calibrated_session(&tag, &ws)?;   // calibrate → place → serve
//! let (out, net) = tuned.run_sql(sql)?;
//! ```

use crate::host::check_machines;
use crate::{Session, SessionConfig, TagJoinExecutor};
use std::sync::Arc;
use vcsql_bsp::{EngineConfig, PartitionStrategy, TrafficProfile};
use vcsql_query::analyze::Analyzed;
use vcsql_relation::RelError;
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// A simulated cluster: machine count, placement strategy and engine
/// tuning. Build once, open any number of sessions.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: SessionConfig,
}

impl Cluster {
    /// A cluster of `machines` simulated machines with the default session
    /// configuration (refined placement).
    pub fn new(machines: usize) -> Cluster {
        Cluster { config: SessionConfig { machines, ..SessionConfig::default() } }
    }

    /// Placement strategy for sessions of this cluster.
    pub fn strategy(mut self, strategy: PartitionStrategy) -> Cluster {
        self.config.strategy = strategy;
        self
    }

    /// BSP engine tuning for sessions of this cluster.
    pub fn engine(mut self, engine: EngineConfig) -> Cluster {
        self.config.engine = engine;
        self
    }

    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c). Every session keeps its placement anyway.
    pub fn static_placement(self) -> Cluster {
        self
    }

    /// The session configuration sessions of this cluster are opened with.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Open a session over `tag` with this cluster's configuration.
    pub fn session(&self, tag: &Arc<TagGraph>) -> Result<Session> {
        Session::open(tag, self.config.clone())
    }

    /// Phase 1 of the workload-aware loop: run `workload` once under the
    /// hash baseline on this cluster's machines and return the observed
    /// per-edge-label [`TrafficProfile`], covering every edge label of the
    /// TAG (labels the workload never traversed get explicit zeros, so the
    /// `Workload` placement spends no locality on them rather than falling
    /// back to static weights).
    ///
    /// The profile records *total* per-label traffic, not the network
    /// share, so it is independent of the calibration placement; hash is
    /// used only because it is the cheap untuned baseline. A machine count
    /// no session could open with is the same error [`Cluster::session`]
    /// returns, before anything runs.
    pub fn calibrate(&self, tag: &TagGraph, workload: &[Analyzed]) -> Result<TrafficProfile> {
        let machines = self.config.machines;
        check_machines(machines)?;
        let executor = TagJoinExecutor::new(tag, self.config.engine)
            .with_partitioning_shared(Arc::new(tag.partition(&PartitionStrategy::Hash, machines)));
        let mut profile = TrafficProfile::new();
        for a in workload {
            let out = executor.execute(a)?;
            profile.absorb(&TrafficProfile::from_run(&out.stats, tag.graph()));
        }
        profile.cover_graph(tag.graph());
        Ok(profile)
    }

    /// Calibrate on `calibrate_on`, then open a session placed once for the
    /// observed profile.
    pub fn calibrated_session(
        &self,
        tag: &Arc<TagGraph>,
        calibrate_on: &[Analyzed],
    ) -> Result<Session> {
        let profile = self.calibrate(tag, calibrate_on)?;
        let mut config = self.config.clone();
        config.strategy = PartitionStrategy::Workload(profile);
        Session::open(tag, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecOutput, NetStats};
    use vcsql_query::{analyze::analyze, parse};
    use vcsql_workload::tpch;

    const JOIN_SQL: &str = "SELECT c.c_name FROM customer c, orders o, lineitem l \
                            WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey";

    fn analyzed(tag: &TagGraph, sql: &str) -> Analyzed {
        analyze(&parse(sql).unwrap(), tag.schemas()).unwrap()
    }

    /// Run `a` by hand under `strategy`'s placement over `machines`
    /// machines and split out the network share of the traffic.
    fn run_with(
        tag: &TagGraph,
        a: &Analyzed,
        machines: usize,
        strategy: &PartitionStrategy,
        config: EngineConfig,
    ) -> Result<(ExecOutput, NetStats)> {
        let out = TagJoinExecutor::new(tag, config)
            .with_partitioning_shared(Arc::new(tag.partition(strategy, machines)))
            .execute(a)?;
        let net = NetStats::from_run(&out.stats);
        Ok((out, net))
    }

    #[test]
    fn builder_round_trips_configuration() {
        let c = Cluster::new(6)
            .strategy(PartitionStrategy::CoLocate)
            .engine(EngineConfig::sequential());
        assert_eq!(c.config().machines, 6);
        assert_eq!(c.config().strategy, PartitionStrategy::CoLocate);
        assert_eq!(c.config().engine.threads, 1);
        // Zero machines, or more than a `u16` can name, is the same Err from
        // every builder entry point — never a panic. The count is only
        // checked here: no machine is simulated and no thread starts.
        let tag = Arc::new(TagGraph::build(&tpch::generate(0.004, 1)));
        let a = analyzed(&tag, JOIN_SQL);
        for machines in [0, 65_536] {
            let c = Cluster::new(machines);
            let Err(open) = c.session(&tag) else { panic!("{machines} machines opened") };
            let expected = open.to_string();
            let workload = std::slice::from_ref(&a);
            assert_eq!(c.calibrate(&tag, workload).unwrap_err().to_string(), expected);
            let Err(calibrated) = c.calibrated_session(&tag, workload) else {
                panic!("{machines} machines opened a calibrated session")
            };
            assert_eq!(calibrated.to_string(), expected);
        }
    }

    #[test]
    fn calibrated_session_subsumes_the_profiled_loop() {
        let db = tpch::generate(0.01, 42);
        let tag = Arc::new(TagGraph::build(&db));
        let a = analyzed(&tag, JOIN_SQL);
        let cluster = Cluster::new(6).engine(EngineConfig::sequential());
        let workload = std::slice::from_ref(&a);

        // The oracle: calibrate, place for the observed profile, run the
        // executor under that placement by hand.
        let profile = cluster.calibrate(&tag, workload).unwrap();
        let strategy = PartitionStrategy::Workload(profile);
        let (old_out, old_net) =
            run_with(&tag, &a, 6, &strategy, EngineConfig::sequential()).unwrap();
        // The Cluster form of the same thing.
        let mut session = cluster.calibrated_session(&tag, workload).unwrap();
        let (out, net) = session.run_sql(JOIN_SQL).unwrap();
        assert!(out.relation.same_bag_approx(&old_out.relation, 1e-9));
        assert_eq!(net.network_bytes, old_net.network_bytes);
        assert_eq!(net.rounds, old_net.rounds);
    }

    #[test]
    fn calibration_profile_covers_graph_and_sees_join_labels() {
        let db = tpch::generate(0.01, 11);
        let tag = TagGraph::build(&db);
        let a = analyzed(&tag, JOIN_SQL);
        let cluster = Cluster::new(6).engine(EngineConfig::sequential());
        let profile = cluster.calibrate(&tag, std::slice::from_ref(&a)).unwrap();
        // Every edge label of the graph is covered (explicit zeros included).
        assert_eq!(profile.len(), tag.graph().edge_labels().len());
        // The traversed join columns carried traffic; untouched columns did
        // not.
        assert!(profile.get("lineitem.l_orderkey").unwrap().bytes > 0);
        assert!(profile.get("orders.o_custkey").unwrap().bytes > 0);
        assert_eq!(profile.get("part.p_name").unwrap().bytes, 0);
    }

    #[test]
    fn profiled_run_preserves_results_and_beats_hash() {
        let db = tpch::generate(0.02, 42);
        let tag = TagGraph::build(&db);
        let a = analyzed(&tag, JOIN_SQL);
        let local = TagJoinExecutor::new(&tag, EngineConfig::sequential()).execute(&a).unwrap();
        let (_, hash) =
            run_with(&tag, &a, 6, &PartitionStrategy::Hash, EngineConfig::sequential()).unwrap();
        let cluster = Cluster::new(6).engine(EngineConfig::sequential());
        let profile = cluster.calibrate(&tag, std::slice::from_ref(&a)).unwrap();
        assert!(!profile.is_empty());
        let workload = PartitionStrategy::Workload(profile);
        let (out, net) = run_with(&tag, &a, 6, &workload, EngineConfig::sequential()).unwrap();
        assert!(out.relation.same_bag_approx(&local.relation, 1e-9));
        assert_eq!(out.stats.total_messages(), local.stats.total_messages());
        assert!(
            net.network_bytes <= hash.network_bytes,
            "workload {} > hash {}",
            net.network_bytes,
            hash.network_bytes
        );
    }
}
