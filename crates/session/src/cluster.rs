//! The [`Cluster`] builder: one value describing a simulated cluster, from
//! which sessions are opened.
//!
//! One fluent entry point over the `vcsql-dist` primitives it calls
//! (`tag_calibrate`, `modelled_runtime`) and the session lifecycle:
//!
//! ```ignore
//! let cluster = Cluster::new(6).bandwidth(1e9).strategy(PartitionStrategy::Refined);
//! let mut session = cluster.session(&tag)?;                 // static-shape placement
//! let mut tuned = cluster.calibrated_session(&tag, &ws)?;   // calibrate → profile → serve
//! let (out, net) = tuned.run_sql(sql)?;
//! let runtime = cluster.modelled_runtime(compute_secs, &net)?;
//! ```

use crate::{NetStats, Session, SessionConfig};
use std::sync::Arc;
use vcsql_bsp::{EngineConfig, PartitionStrategy, TrafficProfile};
use vcsql_query::analyze::Analyzed;
use vcsql_relation::RelError;
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// A simulated cluster: machine count, modelled bandwidth, placement
/// strategy and session knobs. Build once, open any number of sessions.
#[derive(Debug, Clone)]
pub struct Cluster {
    bytes_per_sec: f64,
    config: SessionConfig,
}

impl Cluster {
    /// A cluster of `machines` simulated machines with the default session
    /// configuration (refined static placement, 1 GB/s modelled bandwidth,
    /// adaptation on).
    pub fn new(machines: usize) -> Cluster {
        Cluster {
            bytes_per_sec: 1e9,
            config: SessionConfig { machines, ..SessionConfig::default() },
        }
    }

    /// Modelled network bandwidth for [`Cluster::modelled_runtime`].
    pub fn bandwidth(mut self, bytes_per_sec: f64) -> Cluster {
        self.bytes_per_sec = bytes_per_sec;
        self
    }

    /// Initial placement strategy for sessions of this cluster.
    pub fn strategy(mut self, strategy: PartitionStrategy) -> Cluster {
        self.config.strategy = strategy;
        self
    }

    /// BSP engine tuning for sessions of this cluster.
    pub fn engine(mut self, engine: EngineConfig) -> Cluster {
        self.config.engine = engine;
        self
    }

    /// Per-step migration budget (see [`SessionConfig::migration_budget`]).
    pub fn migration_budget(mut self, budget: usize) -> Cluster {
        self.config.migration_budget = budget;
        self
    }

    /// Disable online repartitioning: sessions keep their initial placement
    /// for their whole lifetime (drift is in `[0, 1]`, so a threshold of 2
    /// can never trip). What the one-shot `vcsql-dist` entry points do.
    pub fn static_placement(mut self) -> Cluster {
        self.config.drift_threshold = 2.0;
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

    /// Phase 1 of the workload-aware loop: observe `workload`'s per-edge-
    /// label traffic under the untuned hash baseline (every edge label of
    /// the TAG covered, explicit zeros for untraversed columns).
    pub fn calibrate(&self, tag: &TagGraph, workload: &[Analyzed]) -> Result<TrafficProfile> {
        vcsql_dist::tag_calibrate(tag, workload, self.config.machines, self.config.engine)
    }

    /// Calibrate on `calibrate_on`, then open a session whose initial
    /// placement is derived from the observed profile. The session keeps
    /// observing and re-adapts online as the real mix drifts away from the
    /// calibration workload.
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

    /// Modelled end-to-end runtime at this cluster's bandwidth: measured
    /// local compute plus network transfer (the paper's Fig 16 model).
    pub fn modelled_runtime(&self, compute_secs: f64, net: &NetStats) -> Result<f64> {
        vcsql_dist::modelled_runtime(compute_secs, net, self.bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_core::TagJoinExecutor;
    use vcsql_query::{analyze::analyze, parse};
    use vcsql_workload::tpch;

    const JOIN_SQL: &str = "SELECT c.c_name FROM customer c, orders o, lineitem l \
                            WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey";

    #[test]
    fn builder_round_trips_configuration() {
        let c = Cluster::new(6)
            .bandwidth(5e8)
            .strategy(PartitionStrategy::CoLocate)
            .engine(EngineConfig::sequential())
            .migration_budget(99);
        assert_eq!(c.config().machines, 6);
        assert_eq!(c.config().migration_budget, 99);
        assert_eq!(c.config().strategy, PartitionStrategy::CoLocate);
        assert_eq!(c.config().engine.threads, 1);
        assert!(c.clone().static_placement().config().drift_threshold > 1.0, "never adapts");
        let net = NetStats { network_bytes: 5u64 * 100_000_000, ..Default::default() };
        assert!((c.modelled_runtime(1.0, &net).unwrap() - 2.0).abs() < 1e-9);
        assert!(c.bandwidth(0.0).modelled_runtime(1.0, &net).is_err());
        // Zero machines is an Err from every builder entry point — never a
        // panic, and calibrated_session matches session's failure mode.
        let tag = Arc::new(TagGraph::build(&tpch::generate(0.004, 1)));
        assert!(Cluster::new(0).session(&tag).is_err());
        assert!(Cluster::new(0).calibrated_session(&tag, &[]).is_err());
    }

    #[test]
    fn calibrated_session_subsumes_the_profiled_loop() {
        let db = tpch::generate(0.01, 42);
        let tag = Arc::new(TagGraph::build(&db));
        let a = analyze(&parse(JOIN_SQL).unwrap(), tag.schemas()).unwrap();
        let cluster = Cluster::new(6).engine(EngineConfig::sequential()).static_placement();
        let workload = std::slice::from_ref(&a);

        // The oracle: calibrate, place for the observed profile, run the
        // executor under that placement by hand.
        let profile =
            vcsql_dist::tag_calibrate(&tag, workload, 6, EngineConfig::sequential()).unwrap();
        let placement = tag.partition(&PartitionStrategy::Workload(profile.clone()), 6);
        let old_out = TagJoinExecutor::new(&tag, EngineConfig::sequential())
            .with_partitioning(placement)
            .execute(&a)
            .unwrap();
        let old_net = NetStats::from_run(&old_out.stats);
        // The Cluster form of the same thing.
        let mut session = cluster.calibrated_session(&tag, workload).unwrap();
        assert_eq!(session.placement_profile(), Some(&profile));
        let (out, net) = session.run_sql(JOIN_SQL).unwrap();
        assert!(out.relation.same_bag_approx(&old_out.relation, 1e-9));
        assert_eq!(net.network_bytes, old_net.network_bytes);
        assert_eq!(net.rounds, old_net.rounds);
    }
}
