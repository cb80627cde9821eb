//! A `Session` is the single-tenant case of the server's arbitration loop.
//!
//! Both hosts drive the same `PlacementController`; the only thing they
//! differ in is the vote they feed it. With one tenant the merged consensus
//! *is* that tenant's profile, so a one-tenant `Arbitration::Merged` server
//! and a `Session` with the same knobs must be indistinguishable, statement
//! by statement, over a schedule that drifts TPC-H → TPC-DS → TPC-H: the
//! same `NetStats` (migration bytes included), the same machine for every
//! vertex, the same adaptation and migration counters.

use std::sync::Arc;
use vcsql_bsp::EngineConfig;
use vcsql_server::{Arbitration, QueryServer, ServerConfig};
use vcsql_session::{Session, SessionConfig};
use vcsql_tag::TagGraph;
use vcsql_workload::{tpcds, tpch};

#[test]
fn session_equals_a_one_tenant_merged_server_over_a_drift_schedule() {
    // One database hosting both suites (disjoint table names).
    let mut db = tpch::generate(0.01, 42);
    for relation in tpcds::generate(0.01, 7).relations() {
        db.add(relation.clone());
    }
    let tag = Arc::new(TagGraph::build(&db));

    // A budget small enough that walks span several statements, so pending
    // targets and in-between placements are compared too.
    let server_config = ServerConfig {
        machines: 4,
        engine: EngineConfig::sequential(),
        migration_budget: 300,
        arbitration: Arbitration::Merged,
        ..ServerConfig::default()
    };
    let session_config = SessionConfig {
        machines: server_config.machines,
        engine: server_config.engine,
        strategy: server_config.strategy.clone(),
        drift_threshold: server_config.drift_threshold,
        migration_budget: server_config.migration_budget,
        profile_half_life: server_config.profile_half_life,
    };
    let mut session = Session::open(&tag, session_config).unwrap();
    let server = QueryServer::start(&tag, server_config).unwrap();
    let tenant = server.open_session();

    let (h, ds) = (tpch::queries(), tpcds::queries());
    let schedule = h.iter().chain(&ds).chain(&h);
    for (i, q) in schedule.enumerate() {
        let (_, session_net) = session.run_sql(q.sql).unwrap();
        let (_, server_net) = tenant.run_sql(q.sql).unwrap();
        assert_eq!(session_net, server_net, "statement {i} ({}): NetStats diverged", q.id);
        let (ours, theirs) = (session.partitioning().unwrap(), server.partitioning().unwrap());
        for v in tag.graph().vertices() {
            assert_eq!(
                ours.machine_of(v),
                theirs.machine_of(v),
                "statement {i} ({}): vertex {v} placed differently",
                q.id
            );
        }
        let (ours, theirs) = (session.stats(), server.stats());
        assert_eq!(
            (ours.adaptations, ours.migration_steps, ours.migrated_vertices, ours.migration_bytes),
            (
                theirs.adaptations,
                theirs.migration_steps,
                theirs.migrated_vertices,
                theirs.migration_bytes
            ),
            "statement {i} ({}): controller counters diverged",
            q.id
        );
        assert_eq!(session.migration_pending(), server.migration_pending());
    }
    let stats = session.stats();
    assert!(stats.adaptations >= 2, "the schedule must drift there and back: {stats:?}");
    assert!(stats.migration_steps > stats.adaptations, "walks must span statements: {stats:?}");
    assert_eq!(stats.net, server.stats().net);
}
