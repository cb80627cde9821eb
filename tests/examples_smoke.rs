//! Smoke tests mirroring the examples at tiny scale (TPC-H sf <= 0.01), so
//! `cargo test` catches example-breaking regressions without the examples'
//! runtime. `examples/quickstart.rs` and `examples/distributed_cluster.rs`
//! stay the human-readable tour; these keep them honest.

use std::sync::Arc;
use vcsql::bsp::{EngineConfig, PartitionStrategy};
use vcsql::core::TagJoinExecutor;
use vcsql::dist::{modelled_runtime, NetStats, SparkModel};
use vcsql::query::{analyze::analyze, parse};
use vcsql::relation::schema::{Column, Schema};
use vcsql::relation::{DataType, Database, Relation, Tuple, Value};
use vcsql::tag::TagGraph;
use vcsql::workload::tpch;
use vcsql::Cluster;

/// The quickstart flow: build a tiny database, encode, run grouped SQL.
#[test]
fn quickstart_flow() {
    let mut db = Database::new();
    let nation = Schema::new(
        "nation",
        vec![Column::new("n_nationkey", DataType::Int), Column::new("n_name", DataType::Str)],
    )
    .with_primary_key(&["n_nationkey"]);
    let mut n = Relation::empty(nation);
    for (k, name) in [(1, "FRANCE"), (2, "GERMANY"), (3, "JAPAN")] {
        n.push(Tuple::new(vec![Value::Int(k), Value::str(name)])).unwrap();
    }
    db.add(n);

    let customer = Schema::new(
        "customer",
        vec![
            Column::new("c_custkey", DataType::Int),
            Column::new("c_nationkey", DataType::Int),
            Column::new("c_acctbal", DataType::Float),
        ],
    )
    .with_primary_key(&["c_custkey"])
    .with_foreign_key(&["c_nationkey"], "nation", &["n_nationkey"]);
    let mut c = Relation::empty(customer);
    for (ck, nk, bal) in [(10, 1, 100.0), (11, 1, 250.0), (12, 2, 30.0), (13, 3, -5.0)] {
        c.push(Tuple::new(vec![Value::Int(ck), Value::Int(nk), Value::Float(bal)])).unwrap();
    }
    db.add(c);

    let tag = TagGraph::build(&db);
    let stats = tag.stats();
    assert_eq!(stats.tuple_vertices, 7);
    assert!(stats.attr_vertices > 0 && stats.edges > 0);

    let exec = TagJoinExecutor::new(&tag, EngineConfig::with_threads(4));
    let out = exec
        .run_sql(
            "SELECT n.n_name, COUNT(*) AS customers, SUM(c.c_acctbal) AS balance \
             FROM nation n, customer c \
             WHERE n.n_nationkey = c.c_nationkey AND c.c_acctbal > 0 \
             GROUP BY n.n_name",
        )
        .expect("query runs");
    // FRANCE has two positive-balance customers, GERMANY one, JAPAN none.
    assert_eq!(out.relation.len(), 2);
    assert!(out.stats.supersteps > 0 && out.stats.total_messages() > 0);
}

/// The distributed-cluster flow at sf 0.01: TAG-join under a 6-machine
/// partitioning must ship fewer network bytes than the Spark shuffle-join
/// model on at least one join query (the paper's Section 8.6 direction).
#[test]
fn distributed_cluster_flow() {
    let db = tpch::generate(0.01, 42);
    let tag = Arc::new(TagGraph::build(&db));
    let spark = SparkModel { machines: 6, broadcast_threshold: 0 };
    let mut session = Cluster::new(6)
        .strategy(PartitionStrategy::Hash)
        .engine(EngineConfig::with_threads(4))
        .static_placement()
        .session(&tag)
        .unwrap();

    let mut tag_total = NetStats::default();
    let mut spark_total = NetStats::default();
    let mut tag_wins_a_join_query = false;
    for q in tpch::queries() {
        let a = analyze(&parse(q.sql).unwrap(), tag.schemas()).unwrap();
        let (out, net) =
            session.run_sql(q.sql).unwrap_or_else(|e| panic!("{}: tag-join session: {e}", q.id));
        let shuffle = spark.run(&a, &db).unwrap_or_else(|e| panic!("{}: spark: {e}", q.id));
        assert!(net.network_bytes <= out.stats.total_bytes(), "{}", q.id);
        if a.tables.len() >= 2 && shuffle.network_bytes > net.network_bytes {
            tag_wins_a_join_query = true;
        }
        tag_total.absorb(&net);
        spark_total.absorb(&shuffle);
    }
    assert!(
        tag_wins_a_join_query,
        "TAG-join should beat the shuffle model on at least one join query"
    );
    // The runtime model is monotone in network bytes at fixed compute, and
    // rejects nonsense bandwidth instead of panicking.
    let t_tag = modelled_runtime(1.0, &tag_total, 1e9).unwrap();
    let t_more = modelled_runtime(
        1.0,
        &NetStats { network_bytes: tag_total.network_bytes * 2, ..tag_total },
        1e9,
    )
    .unwrap();
    assert!(t_more > t_tag);
    assert!(modelled_runtime(1.0, &tag_total, 0.0).is_err());
}
