//! # vcsql-dist — distributed-cluster simulation (paper Section 8.6)
//!
//! The paper's headline distributed claim is about *communication*: on a
//! 6-machine cluster, Spark's shuffle joins ship roughly 9x more data over
//! the network than TAG-join, whose reduction/collection traversals only
//! ever send along TAG edges (most of which a hash partitioning keeps
//! local) and whose collection messages carry already-reduced tables. The
//! framing follows Beame–Koutris–Suciu's communication-cost model for
//! parallel query processing; the relational-vs-graph comparison mirrors
//! Jindal et al.'s Vertica-vs-graph-engine studies.
//!
//! This crate makes the claim reproducible without a cluster:
//!
//! * [`TagGraph::partition`](vcsql_tag::TagGraph::partition) (in
//!   `vcsql-tag`) places the TAG graph over `k` simulated machines with a
//!   [`PartitionStrategy`]; the real TAG-join executor run under that
//!   `Partitioning` counts every message whose source and target vertices
//!   live on different machines, and [`NetStats::from_run`] itemizes them;
//! * [`SparkModel`] — a shuffle-join network-cost model that executes the
//!   same plan with exact intermediate cardinalities (the row store's
//!   operators, `vcsql_query::rows`) and charges Spark-style
//!   exchanges (hash shuffles, broadcasts below the threshold);
//! * [`modelled_runtime`] — combine measured local compute with modelled
//!   network time at a bandwidth, [`MODELLED_BANDWIDTH`] in `repro
//!   distributed` (the paper's Fig 16 runtime model).
//!
//! The multi-query lifecycle — prepared statements behind a plan cache and
//! one placement, fixed at open, shared across queries — lives in the
//! `vcsql-session` crate (`Session` / `Cluster`). Its `Cluster::calibrate`
//! is phase 1 of the workload-aware loop: a run under the hash baseline
//! observes per-edge-label traffic (a [`TrafficProfile`]), from which a
//! [`PartitionStrategy::Workload`] placement is built, and
//! `Cluster::calibrated_session` is the one calibrate → place → serve path.

pub mod netstats;
pub mod spark;

pub use netstats::{unsafe_row_bytes, NetStats};
pub use spark::SparkModel;
pub use vcsql_bsp::{PartitionDiagnostics, PartitionStrategy, TrafficProfile};

use vcsql_relation::RelError;

type Result<T> = std::result::Result<T, RelError>;

/// The modelled network bandwidth in bytes per second: 1 Gbit/s, the figure
/// the benchmark harness prices its `dist.modelled_s` metric at too.
pub const MODELLED_BANDWIDTH: f64 = 125_000_000.0;

/// Modelled end-to-end runtime: local compute plus network transfer at
/// `bytes_per_sec` (the paper's Fig 16 combines both the same
/// way; latency per round is dominated by transfer at these sizes).
///
/// A non-positive or non-finite bandwidth is an error, not a panic.
pub fn modelled_runtime(compute_secs: f64, net: &NetStats, bytes_per_sec: f64) -> Result<f64> {
    if !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
        return Err(RelError::Other(format!(
            "bandwidth must be a positive number of bytes/sec, got {bytes_per_sec}"
        )));
    }
    Ok(compute_secs + net.network_bytes as f64 / bytes_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vcsql_bsp::EngineConfig;
    use vcsql_core::{ExecOutput, TagJoinExecutor};
    use vcsql_query::analyze::Analyzed;
    use vcsql_query::{analyze::analyze, parse};
    use vcsql_tag::TagGraph;
    use vcsql_workload::tpch;

    fn analyzed(tag: &TagGraph, sql: &str) -> Analyzed {
        analyze(&parse(sql).unwrap(), tag.schemas()).unwrap()
    }

    /// Run `a` under `strategy`'s placement over `machines` machines and
    /// split out the network share of the traffic.
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

    const JOIN_SQL: &str = "SELECT c.c_name FROM customer c, orders o, lineitem l \
                            WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey";

    #[test]
    fn hash_partitioned_run_matches_local_results() {
        let db = tpch::generate(0.01, 11);
        let tag = TagGraph::build(&db);
        let a = analyzed(&tag, JOIN_SQL);
        let local = TagJoinExecutor::new(&tag, EngineConfig::sequential()).execute(&a).unwrap();
        let (out, net) =
            run_with(&tag, &a, 6, &PartitionStrategy::Hash, EngineConfig::sequential()).unwrap();
        assert!(out.relation.same_bag_approx(&local.relation, 1e-9));
        assert!(net.network_bytes > 0, "a 6-machine run must use the network");
        assert!(net.network_bytes <= out.stats.total_bytes());
        assert_eq!(net.rounds, out.stats.supersteps);
    }

    #[test]
    fn one_machine_means_no_network() {
        let db = tpch::generate(0.01, 11);
        let tag = TagGraph::build(&db);
        let a = analyzed(&tag, JOIN_SQL);
        let (_, net) =
            run_with(&tag, &a, 1, &PartitionStrategy::Hash, EngineConfig::sequential()).unwrap();
        assert_eq!(net.network_bytes, 0);
        assert_eq!(net.network_messages, 0);
        assert!(SparkModel { machines: 0, broadcast_threshold: 0 }.run(&a, &db).is_err());
    }

    #[test]
    fn locality_strategies_preserve_results_and_cut_traffic() {
        let db = tpch::generate(0.02, 42);
        let tag = TagGraph::build(&db);
        let a = analyzed(&tag, JOIN_SQL);
        let local = TagJoinExecutor::new(&tag, EngineConfig::sequential()).execute(&a).unwrap();
        let (_, hash) =
            run_with(&tag, &a, 6, &PartitionStrategy::Hash, EngineConfig::sequential()).unwrap();
        for strategy in [PartitionStrategy::CoLocate, PartitionStrategy::Refined] {
            let (out, net) = run_with(&tag, &a, 6, &strategy, EngineConfig::sequential()).unwrap();
            assert!(
                out.relation.same_bag_approx(&local.relation, 1e-9),
                "{}: partitioning changed the result",
                strategy.name()
            );
            assert_eq!(out.stats.total_messages(), local.stats.total_messages());
            assert!(
                net.network_bytes <= hash.network_bytes,
                "{}: {} > hash {}",
                strategy.name(),
                net.network_bytes,
                hash.network_bytes
            );
        }
    }

    #[test]
    fn refined_partitioning_has_lower_edge_cut_than_hash() {
        let db = tpch::generate(0.01, 7);
        let tag = TagGraph::build(&db);
        let g = tag.graph();
        let hash = tag.partition(&PartitionStrategy::Hash, 6).diagnostics(g);
        let refined = tag.partition(&PartitionStrategy::Refined, 6).diagnostics(g);
        assert!(
            refined.edge_cut_fraction < hash.edge_cut_fraction,
            "refined {:.3} vs hash {:.3}",
            refined.edge_cut_fraction,
            hash.edge_cut_fraction
        );
        // Balance stays bounded by the strategies' slack.
        assert!(refined.load_imbalance <= 1.0 + vcsql_bsp::DEFAULT_BALANCE_SLACK + 0.05);
    }

    #[test]
    fn spark_model_ships_more_than_tag_on_joins() {
        let db = tpch::generate(0.02, 42);
        let tag = TagGraph::build(&db);
        let a = analyzed(&tag, JOIN_SQL);
        let (_, tag_net) =
            run_with(&tag, &a, 6, &PartitionStrategy::Hash, EngineConfig::with_threads(4)).unwrap();
        let spark = SparkModel { machines: 6, broadcast_threshold: 0 };
        let spark_net = spark.run(&a, &db).unwrap();
        assert!(
            spark_net.network_bytes > tag_net.network_bytes,
            "spark {} <= tag {}",
            spark_net.network_bytes,
            tag_net.network_bytes
        );
    }

    #[test]
    fn broadcast_threshold_changes_traffic() {
        let db = tpch::generate(0.02, 42);
        let tag = TagGraph::build(&db);
        // nation is tiny: with a generous threshold it broadcasts (m-1
        // copies of a small table) instead of shuffling the big side.
        let a = analyzed(
            &tag,
            "SELECT n.n_name FROM nation n, customer c WHERE n.n_nationkey = c.c_nationkey",
        );
        let shuffle = SparkModel { machines: 6, broadcast_threshold: 0 }.run(&a, &db).unwrap();
        let bcast = SparkModel { machines: 6, broadcast_threshold: 10 << 20 }.run(&a, &db).unwrap();
        assert!(bcast.network_bytes < shuffle.network_bytes);
    }

    #[test]
    fn single_machine_spark_model_is_free() {
        let db = tpch::generate(0.01, 5);
        let tag = TagGraph::build(&db);
        let a = analyzed(&tag, JOIN_SQL);
        let net = SparkModel { machines: 1, broadcast_threshold: 0 }.run(&a, &db).unwrap();
        assert_eq!(net.network_bytes, 0);
    }

    #[test]
    fn whole_workload_runs_under_both_models() {
        let db = tpch::generate(0.01, 42);
        let tag = TagGraph::build(&db);
        let spark = SparkModel { machines: 6, broadcast_threshold: 0 };
        for q in tpch::queries() {
            let a = analyzed(&tag, q.sql);
            let (_, tag_net) =
                run_with(&tag, &a, 6, &PartitionStrategy::Hash, EngineConfig::with_threads(4))
                    .unwrap_or_else(|e| panic!("{}: tag-join under hash: {e}", q.id));
            let spark_net =
                spark.run(&a, &db).unwrap_or_else(|e| panic!("{}: spark model: {e}", q.id));
            // Both sides of the comparison must produce *some* accounting.
            assert!(spark_net.rounds > 0, "{}: no exchanges modelled", q.id);
            let _ = tag_net;
        }
    }

    #[test]
    fn modelled_runtime_adds_transfer_time() {
        let net = NetStats {
            network_messages: 1,
            network_bytes: 2_000_000_000,
            rounds: 1,
            ..Default::default()
        };
        let t = modelled_runtime(0.5, &net, 1e9).unwrap();
        assert!((t - 2.5).abs() < 1e-9);
    }

    #[test]
    fn modelled_runtime_rejects_bad_bandwidth() {
        let net = NetStats { network_bytes: 1, ..NetStats::default() };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(modelled_runtime(0.5, &net, bad).is_err(), "bandwidth {bad} accepted");
        }
    }
}
