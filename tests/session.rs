//! Session-lifecycle integration tests: the acceptance criteria of the
//! session-centric API redesign.
//!
//! * Prepared execution (plan cache on) is bag-identical to the one-shot
//!   `run_sql` across both workloads, and cached plans behave exactly like
//!   fresh plans.
//! * The drift replay: a session whose placement was calibrated on TPC-H
//!   keeps serving as the mix drifts to TPC-DS, and its online
//!   repartitioning recovers to within 10% of a session profiled on TPC-DS
//!   itself — without restarting the run — with migration bytes itemized in
//!   `NetStats`.

use std::sync::Arc;
use vcsql::bsp::EngineConfig;
use vcsql::core::TagJoinExecutor;
use vcsql::query::analyze::{analyze, Analyzed};
use vcsql::query::parse;
use vcsql::relation::Database;
use vcsql::tag::TagGraph;
use vcsql::workload::{tpcds, tpch};
use vcsql::{Cluster, Session, SessionConfig};

fn analyze_suite(tag: &TagGraph, queries: &[vcsql::workload::BenchQuery]) -> Vec<Analyzed> {
    queries.iter().map(|q| analyze(&parse(q.sql).unwrap(), tag.schemas()).unwrap()).collect()
}

/// TPC-H and TPC-DS relation names are disjoint, so one database (and one
/// TAG) can host both workloads — the substrate of the drift replay.
fn combined_db(sf: f64) -> Database {
    let mut db = tpch::generate(sf, 42);
    for rel in tpcds::generate(sf, 42).relations() {
        db.add(rel.clone());
    }
    db
}

/// `Session::prepare` + `execute` must return bag-identical results to the
/// old one-shot `TagJoinExecutor::run_sql` across both workloads — and the
/// second (cache-hit) execution must match too.
#[test]
fn prepared_execution_matches_run_sql_across_both_workloads() {
    let db = combined_db(0.01);
    let tag = Arc::new(TagGraph::build(&db));
    let mut session = Session::open(
        &tag,
        SessionConfig { engine: EngineConfig::with_threads(2), ..SessionConfig::default() },
    )
    .unwrap();
    let exec = TagJoinExecutor::new(&tag, EngineConfig::with_threads(2));
    let all: Vec<vcsql::workload::BenchQuery> =
        tpch::queries().into_iter().chain(tpcds::queries()).collect();
    for q in &all {
        let oneshot = exec.run_sql(q.sql).unwrap_or_else(|e| panic!("{}: run_sql: {e}", q.id));
        let prepared = session.prepare(q.sql).unwrap_or_else(|e| panic!("{}: prepare: {e}", q.id));
        let (fresh, _) =
            session.execute(&prepared).unwrap_or_else(|e| panic!("{}: execute: {e}", q.id));
        assert!(
            fresh.relation.same_bag_approx(&oneshot.relation, 1e-9),
            "{}: prepared execution differs from run_sql",
            q.id
        );
        // Second run is served by the plan cache and must agree bag-for-bag.
        let (cached, _) = session.run_sql(q.sql).unwrap();
        assert!(
            cached.relation.same_bag_approx(&oneshot.relation, 1e-9),
            "{}: cached plan differs from fresh plan",
            q.id
        );
        assert_eq!(fresh.stats.total_messages(), cached.stats.total_messages(), "{}", q.id);
    }
    // Every second execution hit the cache.
    assert_eq!(session.plan_cache().hits() as usize, all.len());
    assert_eq!(session.plan_cache().misses() as usize, all.len());
}

/// The drift replay acceptance criterion: TPC-H-calibrated placement, TPC-DS
/// arrives, and after the session's online repartitioning the TPC-DS traffic
/// is within 10% of what a TPC-DS-self-profiled session ships — without
/// restarting the run. Migration cost is itemized in `NetStats` and visible
/// in the session totals.
#[test]
fn drift_replay_recovers_self_profiled_traffic_within_ten_percent() {
    let db = combined_db(0.01);
    let tag = Arc::new(TagGraph::build(&db));
    let tpch_suite = tpch::queries();
    let tpcds_suite = tpcds::queries();
    let tpch_analyzed = analyze_suite(&tag, &tpch_suite);
    let tpcds_analyzed = analyze_suite(&tag, &tpcds_suite);
    let cluster = Cluster::new(6).engine(EngineConfig::with_threads(2)).migration_budget(4096);

    // The drifting session: placement from TPC-H traffic, adaptation on.
    let mut session = cluster.calibrated_session(&tag, &tpch_analyzed).unwrap();
    for q in &tpch_suite {
        session.run_sql(q.sql).unwrap();
    }
    assert_eq!(
        session.stats().migration_bytes,
        0,
        "serving the calibration workload itself must not trigger adaptation"
    );
    // The mix drifts: two TPC-DS rounds. The first absorbs the drift (and
    // pays the migration); the second measures the adapted placement.
    for q in &tpcds_suite {
        session.run_sql(q.sql).unwrap();
    }
    let stats = session.stats();
    assert!(stats.adaptations >= 1, "drift never triggered an adaptation");
    assert!(stats.migration_bytes > 0, "adaptation migrated nothing");
    assert_eq!(
        stats.net.migration_bytes, stats.migration_bytes,
        "migration bytes must be itemized in the cumulative NetStats"
    );
    let mut adapted = 0u64;
    for q in &tpcds_suite {
        let (_, net) = session.run_sql(q.sql).unwrap();
        adapted += net.network_bytes - net.migration_bytes;
    }

    // The yardstick: a static session profiled on TPC-DS itself.
    let mut yardstick =
        cluster.clone().static_placement().calibrated_session(&tag, &tpcds_analyzed).unwrap();
    let mut self_profiled = 0u64;
    for q in &tpcds_suite {
        let (_, net) = yardstick.run_sql(q.sql).unwrap();
        self_profiled += net.network_bytes;
    }
    // Within 10% of the self-profiled spark/tag byte ratio: the spark side
    // is identical for both sessions, so the ratios are within 10% exactly
    // when adapted bytes <= self-profiled bytes / 0.9.
    assert!(
        adapted as f64 <= self_profiled as f64 / 0.9,
        "adapted placement ships {adapted} bytes, more than 10% over the self-profiled \
         {self_profiled} bytes"
    );
}
