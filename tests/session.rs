//! Session-lifecycle integration tests: the acceptance criteria of the
//! session-centric API redesign.
//!
//! * Prepared execution (plan cache on) is bag-identical to the one-shot
//!   `run_sql` across both workloads, and cached plans behave exactly like
//!   fresh plans.
//! * A host places its TAG once, at open: a session and a multi-tenant
//!   server serve a schedule that drifts TPC-H → TPC-DS → TPC-H under that
//!   one placement, and every statement ships exactly what a lone executor
//!   ships under the same strategy.

use std::sync::Arc;
use vcsql::bsp::{EngineConfig, PartitionStrategy};
use vcsql::core::TagJoinExecutor;
use vcsql::dist::NetStats;
use vcsql::relation::Database;
use vcsql::tag::TagGraph;
use vcsql::workload::{tpcds, tpch};
use vcsql::{QueryServer, ServerConfig, Session, SessionConfig};

/// TPC-H and TPC-DS relation names are disjoint, so one database (and one
/// TAG) can host both workloads.
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

/// The placement is fixed for a host's lifetime: over a schedule whose mix
/// drifts TPC-H → TPC-DS → TPC-H, a 4-machine session and a 2-tenant server
/// keep the very placement they opened with, and every statement's
/// `NetStats` equals a lone executor's under `tag.partition(&Refined, 4)`.
#[test]
fn placement_is_fixed_for_the_host_lifetime() {
    let db = combined_db(0.01);
    let tag = Arc::new(TagGraph::build(&db));
    let engine = EngineConfig::sequential();
    let machines = 4;
    let lone = TagJoinExecutor::new(&tag, engine)
        .with_partitioning_shared(Arc::new(tag.partition(&PartitionStrategy::Refined, machines)));

    let mut session =
        Session::open(&tag, SessionConfig { machines, engine, ..SessionConfig::default() })
            .unwrap();
    let server =
        QueryServer::start(&tag, ServerConfig { machines, engine, ..ServerConfig::default() })
            .unwrap();
    let tenants = [server.open_session(), server.open_session()];
    let session_placement = session.partitioning().unwrap();
    let server_placement = server.partitioning().unwrap();

    let (h, ds) = (tpch::queries(), tpcds::queries());
    let schedule = h.iter().chain(&ds).chain(&h);
    for (i, q) in schedule.enumerate() {
        let expected = NetStats::from_run(&lone.run_sql(q.sql).unwrap().stats);
        let (_, net) = session.run_sql(q.sql).unwrap();
        assert_eq!(net, expected, "statement {i} ({}): session traffic", q.id);
        let (_, net) = tenants[i % 2].run_sql(q.sql).unwrap();
        assert_eq!(net, expected, "statement {i} ({}): tenant {} traffic", q.id, i % 2);
        assert!(
            Arc::ptr_eq(&session.partitioning().unwrap(), &session_placement),
            "statement {i} ({}): the session's placement changed",
            q.id
        );
        assert!(
            Arc::ptr_eq(&server.partitioning().unwrap(), &server_placement),
            "statement {i} ({}): the server's placement changed",
            q.id
        );
    }
}
