//! The [`Cluster`] builder: one value describing a simulated cluster, from
//! which sessions are opened.
//!
//! One fluent entry point over the `vcsql-dist` primitives it calls
//! (`tag_calibrate`, `modelled_runtime`) and the session lifecycle:
//!
//! ```ignore
//! let cluster = Cluster::new(6).bandwidth(1e9).strategy(PartitionStrategy::Refined);
//! let mut session = cluster.session(&tag)?;                 // shape-based placement
//! let mut tuned = cluster.calibrated_session(&tag, &ws)?;   // calibrate → place → serve
//! let (out, net) = tuned.run_sql(sql)?;
//! let runtime = cluster.modelled_runtime(compute_secs, &net)?;
//! ```

use crate::host::check_machines;
use crate::{NetStats, Session, SessionConfig};
use std::sync::Arc;
use vcsql_bsp::{EngineConfig, PartitionStrategy, TrafficProfile};
use vcsql_query::analyze::Analyzed;
use vcsql_relation::RelError;
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// A simulated cluster: machine count, modelled bandwidth, placement
/// strategy and engine tuning. Build once, open any number of sessions.
#[derive(Debug, Clone)]
pub struct Cluster {
    bytes_per_sec: f64,
    config: SessionConfig,
}

impl Cluster {
    /// A cluster of `machines` simulated machines with the default session
    /// configuration (refined placement, 1 GB/s modelled bandwidth).
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

    /// Observe `workload`'s per-edge-label traffic under the untuned hash
    /// baseline (every edge label of the TAG covered, explicit zeros for
    /// untraversed columns). A machine count no session could open with is
    /// the same error [`Cluster::session`] returns.
    pub fn calibrate(&self, tag: &TagGraph, workload: &[Analyzed]) -> Result<TrafficProfile> {
        check_machines(self.config.machines)?;
        vcsql_dist::tag_calibrate(tag, workload, self.config.machines, self.config.engine)
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
            .engine(EngineConfig::sequential());
        assert_eq!(c.config().machines, 6);
        assert_eq!(c.config().strategy, PartitionStrategy::CoLocate);
        assert_eq!(c.config().engine.threads, 1);
        let net = NetStats { network_bytes: 5u64 * 100_000_000, ..Default::default() };
        assert!((c.modelled_runtime(1.0, &net).unwrap() - 2.0).abs() < 1e-9);
        assert!(c.bandwidth(0.0).modelled_runtime(1.0, &net).is_err());
        // Zero machines, or more than a `u16` can name, is the same Err from
        // every builder entry point — never a panic. The count is only
        // checked here: no machine is simulated and no thread starts.
        let tag = Arc::new(TagGraph::build(&tpch::generate(0.004, 1)));
        let a = analyze(&parse(JOIN_SQL).unwrap(), tag.schemas()).unwrap();
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
        let a = analyze(&parse(JOIN_SQL).unwrap(), tag.schemas()).unwrap();
        let cluster = Cluster::new(6).engine(EngineConfig::sequential());
        let workload = std::slice::from_ref(&a);

        // The oracle: calibrate, place for the observed profile, run the
        // executor under that placement by hand.
        let profile =
            vcsql_dist::tag_calibrate(&tag, workload, 6, EngineConfig::sequential()).unwrap();
        let placement = tag.partition(&PartitionStrategy::Workload(profile), 6);
        let old_out = TagJoinExecutor::new(&tag, EngineConfig::sequential())
            .with_partitioning_shared(Arc::new(placement))
            .execute(&a)
            .unwrap();
        let old_net = NetStats::from_run(&old_out.stats);
        // The Cluster form of the same thing.
        let mut session = cluster.calibrated_session(&tag, workload).unwrap();
        let (out, net) = session.run_sql(JOIN_SQL).unwrap();
        assert!(out.relation.same_bag_approx(&old_out.relation, 1e-9));
        assert_eq!(net.network_bytes, old_net.network_bytes);
        assert_eq!(net.rounds, old_net.rounds);
    }
}
