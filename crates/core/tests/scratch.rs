//! A pooled executor reuses one engine scratch across statements: the run
//! after another statement must be indistinguishable from a run on fresh
//! arrays, in its bag and in every counter of its `RunStats`.
//!
//! Statement A leaves as much behind in the vertex states as a statement
//! can: reduction marks at a hub (a nation-key attribute vertex with more
//! than 64 out-edges, whose mark words past the first are a heap block),
//! cached filter verdicts on customers, a local-aggregation superstep and
//! an IN subquery run. The statements B read those same states: q10 joins
//! through the nation hub, q22 filters customers again under another
//! predicate, and q4 seeds its correlated EXISTS, admitting inner tuples.

use std::sync::Arc;
use vcsql_bsp::EngineConfig;
use vcsql_core::{ScratchPool, TagJoinExecutor};
use vcsql_query::{analyze::analyze, parse, AggClass};
use vcsql_tag::TagGraph;
use vcsql_workload::tpch;

const A: &str = "SELECT n.n_name, COUNT(*) AS cnt, SUM(c.c_acctbal) AS bal \
                 FROM nation n, customer c \
                 WHERE n.n_nationkey = c.c_nationkey AND c.c_acctbal < 2000 \
                 AND c.c_custkey IN (SELECT o.o_custkey FROM orders o \
                                     WHERE o.o_totalprice > 150000) \
                 GROUP BY n.n_name";

#[test]
fn a_reused_scratch_is_indistinguishable_from_a_fresh_one() {
    let db = tpch::generate(0.05, 42);
    let tag = TagGraph::build(&db);
    let g = tag.graph();

    // A's shape: local aggregation, a subquery, and a hub on its join.
    let a = analyze(&parse(A).unwrap(), tag.schemas()).unwrap();
    assert_eq!(a.agg_class, AggClass::Local);
    assert!(!a.subqueries.is_empty(), "A runs a subquery");
    let key = g.edge_label_id("nation.n_nationkey").unwrap();
    let nation = g.vertex_label_id("nation").unwrap();
    let hub = g
        .vertices_with_label(nation)
        .iter()
        .flat_map(|&v| g.out_edges_with_label(v, key))
        .map(|e| g.degree(e.target))
        .max()
        .unwrap();
    assert!(hub > 64, "the nation-key vertices have {hub} out-edges, no hub");

    let queries = tpch::queries();
    for b in ["q10", "q22", "q4"] {
        let b = queries.iter().find(|q| q.id == b).unwrap();
        for threads in [1, 2, 4] {
            let config = EngineConfig::with_threads(threads).with_parallel_threshold(0);
            let fresh = TagJoinExecutor::new(&tag, config).run_sql(b.sql).unwrap();

            let pool = Arc::new(ScratchPool::new(Vec::new()));
            let pooled = TagJoinExecutor::new(&tag, config).with_scratch_pool(Arc::clone(&pool));
            let after_a = pooled.run_sql(A).unwrap();
            assert!(!after_a.relation.is_empty(), "A selects nothing");
            assert_eq!(pool.lock().unwrap().len(), 1, "A's runs gave back one scratch");
            let reused = pooled.run_sql(b.sql).unwrap();
            assert_eq!(pool.lock().unwrap().len(), 1, "{} took A's scratch", b.id);

            let at = format!("{} after A, threads={threads}", b.id);
            assert!(reused.relation.same_bag(&fresh.relation), "{at}: bags differ");
            assert_eq!(reused.stats, fresh.stats, "{at}: run statistics differ");
        }
    }
}
