//! Integration tests for the persistent worker runtime: result determinism
//! across thread counts under repeated execution, worker reuse across
//! prepared-query re-execution, and leak-free shutdown under session churn.

use std::sync::Arc;
use vcsql::bsp::{EngineConfig, WorkerPool};
use vcsql::core::TagJoinExecutor;
use vcsql::query::{analyze::analyze, parse, AggClass};
use vcsql::tag::TagGraph;
use vcsql::workload::tpch;
use vcsql::{Session, SessionConfig};

const SQL: &str = "SELECT c.c_name, COUNT(*) AS cnt FROM customer c, orders o, lineitem l \
                   WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey \
                   GROUP BY c.c_name";

/// Re-executing one executor (one shared pool, recycled buffers) must give
/// the same bag and the same message counts at every thread count — the
/// delivery-order determinism argument, exercised through full SQL runs.
#[test]
fn repeated_execution_is_thread_count_independent() {
    let db = tpch::generate(0.01, 42);
    let tag = TagGraph::build(&db);
    let a = analyze(&parse(SQL).unwrap(), tag.schemas()).unwrap();
    let reference = TagJoinExecutor::new(&tag, EngineConfig::sequential()).execute(&a).unwrap();
    for threads in [2usize, 4, 7] {
        // Threshold 0 forces every phase through the pool; the default
        // threshold would route this small scale to the fallback.
        let engine = EngineConfig::with_threads(threads).with_parallel_threshold(0);
        let pool = Arc::new(WorkerPool::new(threads));
        let exec = TagJoinExecutor::new(&tag, engine).with_worker_pool(Arc::clone(&pool));
        for rep in 0..3 {
            let out = exec.execute(&a).unwrap();
            assert!(
                out.relation.same_bag_approx(&reference.relation, 1e-9),
                "threads {threads}, rep {rep}: result bag differs from sequential"
            );
            assert_eq!(
                out.stats.total_messages(),
                reference.stats.total_messages(),
                "threads {threads}, rep {rep}: message count differs"
            );
        }
        assert_eq!(pool.spawned_workers(), threads - 1, "workers spawned once, reused");
    }
}

/// Local aggregation folds a group's partials at its group-key attribute
/// vertex in message order, which delivery fixes for every thread count, so
/// float sums agree to the last bit: q10 and q18's inner shape give equal
/// bags on 1 thread and on 4 threads at threshold 0, with no tolerance.
#[test]
fn local_aggregation_is_bit_identical_across_thread_counts() {
    let db = tpch::generate(0.01, 42);
    let tag = TagGraph::build(&db);
    let q10 = tpch::queries().into_iter().find(|q| q.id == "q10").unwrap().sql;
    let q18_inner = "SELECT l.l_orderkey, SUM(l.l_quantity) AS qty FROM lineitem l \
                     GROUP BY l.l_orderkey HAVING SUM(l.l_quantity) > 150";
    for sql in [q10, q18_inner] {
        let a = analyze(&parse(sql).unwrap(), tag.schemas()).unwrap();
        assert_eq!(a.agg_class, AggClass::Local, "{sql}");
        let one = TagJoinExecutor::new(&tag, EngineConfig::sequential()).execute(&a).unwrap();
        assert!(!one.relation.is_empty(), "{sql}: no groups to compare");
        let engine = EngineConfig::with_threads(4).with_parallel_threshold(0);
        let four = TagJoinExecutor::new(&tag, engine).execute(&a).unwrap();
        assert!(four.relation.same_bag_approx(&one.relation, 0.0), "{sql}: 4 threads differ");
    }
}

/// A one-table local aggregation sums floats: each lineitem root ships one
/// partial, and its part key's vertex folds them in message order, so the
/// float sums of 2 and 4 threads at threshold 0 equal one thread's to the
/// last bit, whatever shape a partial takes in memory.
#[test]
fn one_table_local_aggregation_is_bit_identical_across_thread_counts() {
    let db = tpch::generate(0.01, 42);
    let tag = TagGraph::build(&db);
    let sql = "SELECT l.l_partkey, SUM(l.l_extendedprice) AS s, COUNT(*) AS n \
               FROM lineitem l GROUP BY l.l_partkey";
    let a = analyze(&parse(sql).unwrap(), tag.schemas()).unwrap();
    assert_eq!(a.agg_class, AggClass::Local);
    let one = TagJoinExecutor::new(&tag, EngineConfig::sequential()).execute(&a).unwrap();
    assert!(!one.relation.is_empty(), "no groups to compare");
    for threads in [2, 4] {
        let engine = EngineConfig::with_threads(threads).with_parallel_threshold(0);
        let out = TagJoinExecutor::new(&tag, engine).execute(&a).unwrap();
        assert!(out.relation.same_bag_approx(&one.relation, 0.0), "{threads} threads differ");
    }
}

/// One session pool serves many distinct prepared statements; workers spawn
/// on the first parallel superstep and stay parked between queries.
#[test]
fn session_pool_spans_distinct_queries() {
    let db = tpch::generate(0.01, 42);
    let tag = Arc::new(TagGraph::build(&db));
    let config = SessionConfig {
        engine: EngineConfig::with_threads(3).with_parallel_threshold(0),
        ..SessionConfig::default()
    };
    let mut s = Session::open(&tag, config).unwrap();
    let queries = [
        SQL,
        "SELECT o.o_orderkey FROM orders o WHERE o.o_totalprice > 1000.0",
        "SELECT n.n_name FROM nation n, customer c WHERE n.n_nationkey = c.c_nationkey",
    ];
    for sql in queries {
        let prepared = s.prepare(sql).unwrap();
        s.execute(&prepared).unwrap();
        let pool = s.worker_pool().expect("multi-thread session owns a pool");
        assert_eq!(pool.spawned_workers(), 2, "one spawn for the session's whole life");
        assert_eq!(pool.live_workers(), 2);
    }
}

/// Open → execute → drop sessions in a loop: every session must release its
/// pool handle, and dropping the last handle must join the workers without
/// deadlocking (a hang here fails the test by timeout).
#[test]
fn session_churn_leaks_no_workers() {
    let db = tpch::generate(0.01, 7);
    let tag = Arc::new(TagGraph::build(&db));
    for round in 0..8 {
        let config = SessionConfig {
            engine: EngineConfig::with_threads(3).with_parallel_threshold(0),
            ..SessionConfig::default()
        };
        let mut s = Session::open(&tag, config).unwrap();
        s.run_sql(SQL).unwrap();
        let pool = Arc::clone(s.worker_pool().unwrap());
        assert_eq!(pool.live_workers(), 2, "round {round}");
        drop(s);
        assert_eq!(Arc::strong_count(&pool), 1, "round {round}: session kept a pool handle");
        drop(pool);
    }
}

/// The default threshold keeps small workloads entirely on the calling
/// thread — correct results, no OS threads started.
#[test]
fn default_threshold_falls_back_to_sequential_at_small_scale() {
    let db = tpch::generate(0.01, 42);
    let tag = TagGraph::build(&db);
    let a = analyze(&parse(SQL).unwrap(), tag.schemas()).unwrap();
    let reference = TagJoinExecutor::new(&tag, EngineConfig::sequential()).execute(&a).unwrap();
    let pool = Arc::new(WorkerPool::new(4));
    let exec = TagJoinExecutor::new(&tag, EngineConfig::with_threads(4))
        .with_worker_pool(Arc::clone(&pool));
    let out = exec.execute(&a).unwrap();
    assert!(out.relation.same_bag_approx(&reference.relation, 1e-9));
    assert_eq!(pool.spawned_workers(), 0, "sub-threshold supersteps must not spawn threads");
}
