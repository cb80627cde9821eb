//! Robustness and invariant tests beyond the oracle suites: distributed
//! execution consistency, empty relations, SQL display round-trips, thread
//! count invariance, and failure reporting.

use std::sync::Arc;
use vcsql::baseline::{execute as baseline, ExecConfig, JoinAlgo};
use vcsql::bsp::{EngineConfig, Partitioning};
use vcsql::core::TagJoinExecutor;
use vcsql::query::{analyze::analyze, parse};
use vcsql::relation::schema::{Column, Schema};
use vcsql::relation::{DataType, Database, Relation, Tuple, Value};
use vcsql::tag::{MaterializePolicy, TagGraph};
use vcsql::workload::{tpcds, tpch};
use vcsql::{Session, SessionConfig};

/// Hash-partitioned execution must return the same bags as single-machine
/// execution — partitioning only affects accounting, never results.
#[test]
fn distributed_results_equal_single_machine() {
    let db = tpch::generate(0.01, 9);
    let tag = TagGraph::build(&db);
    for q in tpch::queries().iter().take(8) {
        let a = analyze(&parse(q.sql).unwrap(), tag.schemas()).unwrap();
        let single = TagJoinExecutor::new(&tag, EngineConfig::with_threads(2)).execute(&a).unwrap();
        let partitioned = TagJoinExecutor::new(&tag, EngineConfig::with_threads(2))
            .with_partitioning(Partitioning::hash(tag.graph(), 6))
            .execute(&a)
            .unwrap();
        assert!(
            partitioned.relation.same_bag_approx(&single.relation, 1e-9),
            "{}: partitioning changed the result",
            q.id
        );
        // Network traffic is a subset of total traffic.
        assert!(
            partitioned.stats.totals.network_bytes <= partitioned.stats.total_bytes(),
            "{}: network bytes exceed total bytes",
            q.id
        );
        // Same messages either way: partitioning is pure accounting.
        assert_eq!(
            partitioned.stats.total_messages(),
            single.stats.total_messages(),
            "{}: message counts differ",
            q.id
        );
    }
}

/// Thread count must never change results or message counts.
#[test]
fn thread_count_invariance_on_workload() {
    let db = tpcds::generate(0.01, 13);
    let tag = TagGraph::build(&db);
    for q in tpcds::queries().iter().take(8) {
        let a = analyze(&parse(q.sql).unwrap(), tag.schemas()).unwrap();
        let one = TagJoinExecutor::new(&tag, EngineConfig::sequential()).execute(&a).unwrap();
        let many = TagJoinExecutor::new(&tag, EngineConfig::with_threads(8)).execute(&a).unwrap();
        assert!(one.relation.same_bag_approx(&many.relation, 1e-9), "{}", q.id);
        assert_eq!(one.stats.total_messages(), many.stats.total_messages(), "{}", q.id);
    }
}

/// Queries over empty relations: empty results (or a single NULL/zero row
/// for scalar aggregates), never errors.
#[test]
fn empty_relations_are_queryable() {
    let mut db = Database::new();
    db.add(Relation::empty(
        Schema::new("r", vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)])
            .with_primary_key(&["a"]),
    ));
    db.add(Relation::empty(Schema::new(
        "s",
        vec![Column::new("b", DataType::Int), Column::new("c", DataType::Int)],
    )));
    let tag = TagGraph::build(&db);
    let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());

    let flat = exec.run_sql("SELECT r.a FROM r WHERE r.a > 0").unwrap();
    assert!(flat.relation.is_empty());

    let join = exec.run_sql("SELECT r.a, s.c FROM r, s WHERE r.b = s.b").unwrap();
    assert!(join.relation.is_empty());

    let scalar = exec.run_sql("SELECT COUNT(*) AS c, SUM(r.a) AS t FROM r").unwrap();
    assert_eq!(scalar.relation.len(), 1);
    assert_eq!(scalar.relation.tuples[0].get(0), &vcsql::relation::Value::Int(0));
    assert_eq!(scalar.relation.tuples[0].get(1), &vcsql::relation::Value::Null);

    let grouped = exec.run_sql("SELECT r.a, COUNT(*) AS c FROM r GROUP BY r.a").unwrap();
    assert!(grouped.relation.is_empty());
}

/// Every workload query round-trips through its Display form: parse(sql)
/// == parse(display(parse(sql))).
#[test]
fn workload_queries_roundtrip_through_display() {
    for q in tpch::queries().iter().chain(tpcds::queries().iter()) {
        let stmt = parse(q.sql).unwrap();
        let reprinted = stmt.to_string();
        let stmt2 = parse(&reprinted)
            .unwrap_or_else(|e| panic!("{}: reprint does not parse: {e}\n{reprinted}", q.id));
        assert_eq!(stmt, stmt2, "{}: round-trip changed the AST", q.id);
    }
}

/// Both engines report clear errors instead of wrong results on malformed
/// input.
#[test]
fn error_paths_are_clean() {
    let db = tpch::generate(0.01, 3);
    let tag = TagGraph::build(&db);
    let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());

    // Unknown relation / column.
    assert!(exec.run_sql("SELECT x.a FROM missing x").is_err());
    assert!(exec.run_sql("SELECT c.nope FROM customer c").is_err());
    // Syntax error.
    assert!(exec.run_sql("SELECT FROM WHERE").is_err());
    // Aggregate misuse.
    assert!(exec.run_sql("SELECT SUM(*) FROM customer c").is_err());
    // Baseline mirrors the same failures at analysis time.
    assert!(parse("SELECT c.c_name FROM customer c WHERE").is_err());
}

/// No SQL entry point reaches the outer-join operator: every outer join
/// kind is a clean planner error — from the one-shot executor and from a
/// session alike — that names the library operator instead of promising an
/// executor, and a refused statement is not served.
#[test]
fn outer_joins_are_a_clean_planner_error_on_every_sql_path() {
    let tag = Arc::new(TagGraph::build(&tpch::generate(0.01, 3)));
    let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());
    let mut session = Session::open(
        &tag,
        SessionConfig { engine: EngineConfig::sequential(), ..SessionConfig::default() },
    )
    .unwrap();
    for kind in ["LEFT", "RIGHT", "FULL"] {
        let sql = format!(
            "SELECT n.n_name, r.r_name FROM nation n {kind} JOIN region r \
             ON n.n_regionkey = r.r_regionkey"
        );
        let errors = [
            exec.run_sql(&sql).map(|_| ()).expect_err("executor must refuse"),
            session.run_sql(&sql).map(|_| ()).expect_err("session must refuse"),
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(msg.contains(&format!("{kind} JOIN")), "{msg}");
            assert!(msg.contains("the SQL planner does not support outer joins"), "{msg}");
            assert!(msg.contains("library operator"), "{msg}");
        }
    }
    assert_eq!(session.stats().queries, 0, "a refused statement was counted as served");
}

/// A join through a column the materialization policy refused — wholly
/// (`skip`) or for one over-long value — must be the bind error, never a
/// short count: the refused values have no attribute vertex to meet at.
#[test]
fn joins_on_ill_materialized_columns_error_instead_of_undercounting() {
    let count = |rel: &Relation| rel.tuples[0].get(0).clone();
    let check = |db: &Database, tag: &TagGraph, sql: &str, want: i64| {
        let err = TagJoinExecutor::new(tag, EngineConfig::sequential())
            .run_sql(sql)
            .expect_err("tag-join must refuse the join");
        assert!(err.to_string().contains("not materialized"), "{sql}: {err}");
        let a = analyze(&parse(sql).unwrap(), tag.schemas()).unwrap();
        for join in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let got = baseline(&a, db, ExecConfig { join }).unwrap();
            assert_eq!(count(&got), Value::Int(want), "{sql}: baseline {join:?}");
        }
    };

    // A column skipped by policy has no edge label at all.
    let db = tpch::generate(0.01, 42);
    let sql = "SELECT COUNT(*) FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey";
    let policy = MaterializePolicy {
        skip: vec![("nation".to_string(), "n_regionkey".to_string())],
        ..MaterializePolicy::default()
    };
    let tag = TagGraph::build_with_policy(&db, policy);
    assert_eq!(tag.column_label_by_name("nation", "n_regionkey"), None);
    assert_eq!(tag.graph().edge_label_id("nation.n_regionkey"), None);
    check(&db, &tag, sql, 25);
    let default = TagGraph::build(&db);
    let ok = TagJoinExecutor::new(&default, EngineConfig::sequential()).run_sql(sql).unwrap();
    assert_eq!(count(&ok.relation), Value::Int(25), "default policy answers");

    // One value over `max_string_len` takes the whole column out of joins.
    let long = "k".repeat(100);
    let mut db = Database::new();
    for name in ["a", "b"] {
        let schema = Schema::new(
            name,
            vec![Column::new("k", DataType::Str), Column::new("v", DataType::Int)],
        );
        let rows = vec![
            Tuple::new(vec![Value::str(&long), Value::Int(1)]),
            Tuple::new(vec![Value::str("short"), Value::Int(2)]),
        ];
        db.add(Relation::from_tuples(schema, rows).unwrap());
    }
    let tag = TagGraph::build(&db);
    assert_eq!(tag.column_label_by_name("a", "k"), None);
    assert!(tag.column_label_by_name("a", "v").is_some());
    check(&db, &tag, "SELECT COUNT(*) FROM a, b WHERE a.k = b.k", 2);
    let all = TagGraph::build_with_policy(&db, MaterializePolicy::all());
    let ok = TagJoinExecutor::new(&all, EngineConfig::sequential())
        .run_sql("SELECT COUNT(*) FROM a, b WHERE a.k = b.k")
        .unwrap();
    assert_eq!(count(&ok.relation), Value::Int(2), "no length limit, no refusal");
}

/// The baseline executors agree with each other across the full workload at
/// a third seed (hash vs sort-merge cross-validation).
#[test]
fn baselines_cross_validate_third_seed() {
    let db = tpch::generate(0.015, 99);
    let tag = TagGraph::build(&db);
    for q in tpch::queries() {
        let a = analyze(&parse(q.sql).unwrap(), tag.schemas()).unwrap();
        let h = baseline(&a, &db, ExecConfig { join: vcsql::baseline::JoinAlgo::Hash }).unwrap();
        let m =
            baseline(&a, &db, ExecConfig { join: vcsql::baseline::JoinAlgo::SortMerge }).unwrap();
        assert!(h.same_bag_approx(&m, 1e-9), "{}", q.id);
    }
}

/// Communication statistics are sane on every workload query: supersteps
/// bounded by 3x plan edges + constants; bytes consistent with messages.
#[test]
fn stats_invariants() {
    let db = tpch::generate(0.01, 21);
    let tag = TagGraph::build(&db);
    let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());
    for q in tpch::queries() {
        let a = analyze(&parse(q.sql).unwrap(), tag.schemas()).unwrap();
        let out = exec.execute(&a).unwrap();
        let n = a.tables.len() as u64;
        // 3 passes x at most 2*(2n) traversal steps + aggregation/subquery
        // rounds; a generous structural bound that still catches runaway
        // loops.
        assert!(
            out.stats.supersteps <= 12 * n + 8 * (a.subqueries.len() as u64 + 1),
            "{}: {} supersteps for {} tables",
            q.id,
            out.stats.supersteps,
            n
        );
        if out.stats.total_messages() > 0 {
            assert!(out.stats.total_bytes() > 0, "{}", q.id);
        }
    }
}
