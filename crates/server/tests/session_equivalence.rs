//! A `Session` is the single-tenant case of the server's host.
//!
//! Both run every statement through the same `Host::run` under one placement
//! fixed at open, so a one-tenant server and a `Session` with the same knobs
//! must be indistinguishable, statement by statement, over a schedule that
//! drifts TPC-H → TPC-DS → TPC-H: the same `NetStats` and the same machine
//! for every vertex.

use std::sync::Arc;
use vcsql_bsp::EngineConfig;
use vcsql_server::{QueryServer, ServerConfig};
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

    let server_config =
        ServerConfig { machines: 4, engine: EngineConfig::sequential(), ..ServerConfig::default() };
    let session_config = SessionConfig {
        machines: server_config.machines,
        engine: server_config.engine,
        strategy: server_config.strategy.clone(),
        ..SessionConfig::default()
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
    }
    assert_eq!(session.stats().net, server.stats().net);
}
