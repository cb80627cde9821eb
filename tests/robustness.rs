//! Robustness and invariant tests beyond the oracle suites: distributed
//! execution consistency, empty relations, SQL display round-trips, thread
//! count invariance, and failure reporting.

use std::sync::Arc;
use vcsql::baseline::{execute as baseline, ExecConfig, JoinAlgo};
use vcsql::bsp::{
    EngineConfig, FaultInjector, FaultPlan, PartitionStrategy, Partitioning, RunStats, WorkerPool,
};
use vcsql::core::{QueryPlan, TagJoinExecutor};
use vcsql::query::{analyze::analyze, parse, seed, AggClass};
use vcsql::relation::schema::{Column, Schema};
use vcsql::relation::{DataType, Database, RelError, Relation, Tuple, Value};
use vcsql::tag::TagGraph;
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
            .with_partitioning_shared(Arc::new(Partitioning::hash(tag.graph(), 6)))
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

/// The SQL planner supports inner joins only: every outer join kind is a
/// clean planner error — from the one-shot executor and from a session
/// alike — and a refused statement is not served.
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
        }
    }
    assert_eq!(session.stats().queries, 0, "a refused statement was counted as served");
}

/// A join through a column the TAG did not materialize — wholly (the
/// schema's `materialize` flag is off) or for one over-long value — must be
/// the bind error, never a short count: the refused values have no
/// attribute vertex to meet at.
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

    // A column the schema does not materialize has no edge label at all.
    let mut db = tpch::generate(0.01, 42);
    let sql = "SELECT COUNT(*) FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey";
    let default = TagGraph::build(&db);
    let ok = TagJoinExecutor::new(&default, EngineConfig::sequential()).run_sql(sql).unwrap();
    assert_eq!(count(&ok.relation), Value::Int(25), "the generated schema answers");
    let nation = &mut db.get_mut("nation").unwrap().schema;
    let k = nation.column_index("n_regionkey").unwrap();
    nation.columns[k] = Column::unindexed("n_regionkey", DataType::Int);
    let tag = TagGraph::build(&db);
    assert_eq!(tag.column_label_by_name("nation", "n_regionkey"), None);
    assert_eq!(tag.graph().edge_label_id("nation.n_regionkey"), None);
    check(&db, &tag, sql, 25);

    // One string over the 64-byte key cap takes the whole column out of joins.
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
}

/// An expression that fails to evaluate fails the statement on the TAG-join
/// path, as it does in both relational baselines — never a dropped row, a
/// skipped aggregate input or a tuple filtered out — and it is the same
/// error on every thread count and through a session, which serves nothing.
/// A seed that admits no inner tuple still evaluates every inner filter.
#[test]
fn expression_errors_fail_the_statement_instead_of_changing_the_answer() {
    let db = tpch::generate(0.01, 42);
    let tag = Arc::new(TagGraph::build(&db));
    let statements = [
        // projection
        "SELECT c.c_name + 1 FROM customer c",
        // scalar aggregate input
        "SELECT SUM(c.c_name) FROM customer c",
        // grouped aggregate input
        "SELECT c.c_nationkey, SUM(c.c_name) FROM customer c GROUP BY c.c_nationkey",
        // pushed-down filter at the root
        "SELECT c.c_name FROM customer c WHERE c.c_acctbal + c.c_name > 0",
        // residual
        "SELECT c.c_name FROM customer c, nation n \
         WHERE c.c_nationkey = n.n_nationkey AND c.c_name + n.n_name > 0",
        // pushed-down filter during reduction
        "SELECT n.n_name FROM customer c, nation n \
         WHERE c.c_nationkey = n.n_nationkey AND c.c_acctbal + c.c_name > 0",
        // inner filter of a seeded subquery whose seed admits nothing
        "SELECT c.c_name FROM customer c WHERE c.c_nationkey = -1 AND c.c_acctbal > \
         (SELECT AVG(o.o_totalprice) FROM orders o WHERE o.o_custkey = c.c_custkey \
          AND o.o_totalprice + o.o_orderpriority > 0)",
    ];
    let configs =
        [EngineConfig::sequential(), EngineConfig::with_threads(2).with_parallel_threshold(0)];
    for sql in statements {
        let a = analyze(&parse(sql).unwrap(), tag.schemas()).unwrap();
        for join in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let err = baseline(&a, &db, ExecConfig { join }).expect_err(sql);
            assert!(matches!(err, RelError::TypeMismatch { .. }), "{sql}: {join:?}: {err}");
        }
        let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
        let first = TagJoinExecutor::new(&tag, configs[0]).execute_plan(&plan).expect_err(sql);
        assert!(matches!(first, RelError::TypeMismatch { .. }), "{sql}: {first}");
        for engine in configs {
            let err = TagJoinExecutor::new(&tag, engine).execute_plan(&plan).expect_err(sql);
            assert_eq!(err, first, "{sql}: {engine:?}");
            let mut session =
                Session::open(&tag, SessionConfig { engine, ..SessionConfig::default() }).unwrap();
            assert_eq!(session.run_sql(sql).map(|_| ()).expect_err(sql), first, "{sql}");
            assert_eq!(session.stats().queries, 0, "{sql}: a failed statement was served");
        }
    }
}

/// Identical tuples of a table the traversal revisits stay distinct: `s`
/// holds `(1, 1, 5)` twice, and joining the rows that reach `s` again on
/// values matched each copy against its twin's rows as well as its own,
/// counting `(5, 20)` where the bag is `(5, 12)`.
#[test]
fn revisited_duplicate_tuples_do_not_cross_match() {
    let rel = |name: &str, cols: &[&str], rows: &[&[i64]]| {
        let cols = cols.iter().map(|&c| Column::new(c, DataType::Int)).collect();
        let rows = rows.iter().map(|r| Tuple::new(r.iter().map(|&v| Value::Int(v)).collect()));
        Relation::from_tuples(Schema::new(name, cols), rows.collect()).unwrap()
    };
    let mut db = Database::new();
    db.add(rel("r", &["x", "p"], &[&[1, 7], &[1, 7], &[2, 8]]));
    db.add(rel("s", &["x", "y", "v"], &[&[1, 1, 5], &[1, 1, 5], &[2, 2, 6], &[1, 2, 5]]));
    db.add(rel("t", &["y", "q"], &[&[1, 3], &[1, 3], &[2, 4]]));
    db.add(rel("u", &["y", "w"], &[&[1, 9], &[2, 9], &[2, 9]]));
    let tag = TagGraph::build(&db);
    let sql = "SELECT s.v, COUNT(*) AS c FROM r, s, t, u \
               WHERE r.x = s.x AND s.y = t.y AND t.y = u.y GROUP BY s.v";
    let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
    let steps = plan.shape(&tag).unwrap().traversal_steps();
    assert!(steps > 5, "five plan edges; the traversal must backtrack");
    let bag = |rel: &Relation| {
        let mut rows: Vec<Vec<Value>> = rel.tuples.iter().map(|t| t.0.to_vec()).collect();
        rows.sort();
        rows
    };
    let want = vec![vec![Value::Int(5), Value::Int(12)], vec![Value::Int(6), Value::Int(2)]];
    for join in [JoinAlgo::Hash, JoinAlgo::SortMerge] {
        let got = baseline(plan.analyzed(), &db, ExecConfig { join }).unwrap();
        assert_eq!(bag(&got), want, "baseline {join:?}");
    }
    for engine in
        [EngineConfig::sequential(), EngineConfig::with_threads(2).with_parallel_threshold(0)]
    {
        let out = TagJoinExecutor::new(&tag, engine).execute_plan(&plan).unwrap();
        assert_eq!(bag(&out.relation), want, "{engine:?}");
    }
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

/// Subquery predicates follow SQL three-valued logic, checked against
/// hand-written bags rather than one engine against another, since both
/// engines call one rule (`vcsql_query::subquery`). Over `r(a, k)` = {(1, 5), (2, NULL),
/// (3, 7)} and `s(k, v)` = {(NULL, 10), (7, 1)}: `x NOT IN S` holds iff `S`
/// is empty, or `x` is non-NULL, `S` holds no NULL and `x ∉ S`; a correlated
/// subquery's `S` is the inner rows of the outer row's key, and a NULL key
/// matches none (not even an inner NULL key); a correlated scalar subquery
/// with no inner row compares against the aggregate of the empty set — 0
/// for COUNT, NULL (never true) otherwise. A grouped inner query's groups
/// are those of one outer row's `S`, and HAVING judges them; an aggregate
/// without GROUP BY yields one row for every outer row, so EXISTS over it
/// holds for each (NOT EXISTS for none), and a correlated `x IN` over it is
/// `x = agg(S)`. The last four cases are seeded
/// (TAG-join aggregates only the inner rows whose key an outer row passing
/// `r.a <> …` holds) and must give the unseeded answer. HAVING in a scalar
/// subquery is rejected at analysis: a key missing from the inner output
/// could be a group HAVING dropped (value NULL) or no inner row at all (the
/// empty-set aggregate), and the lowered inner query cannot tell them apart.
/// So is HAVING in a correlated EXISTS or IN over an aggregate without
/// GROUP BY, for the same reason, and GROUP BY in a scalar subquery.
#[test]
fn subquery_predicates_follow_sql_three_valued_logic() {
    let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let rel = |name: &str, cols: [&str; 2], rows: &[[Option<i64>; 2]]| {
        let cols = cols.iter().map(|&c| Column::new(c, DataType::Int)).collect();
        let rows = rows.iter().map(|r| Tuple::new(r.iter().map(|&v| int(v)).collect()));
        Relation::from_tuples(Schema::new(name, cols), rows.collect()).unwrap()
    };
    let mut db = Database::new();
    db.add(rel("r", ["a", "k"], &[[Some(1), Some(5)], [Some(2), None], [Some(3), Some(7)]]));
    db.add(rel("s", ["k", "v"], &[[None, Some(10)], [Some(7), Some(1)]]));
    let tag = TagGraph::build(&db);
    let cases: [(&str, &[i64]); 23] = [
        ("EXISTS (SELECT s.v FROM s WHERE s.k = r.k)", &[3]),
        ("NOT EXISTS (SELECT s.v FROM s WHERE s.k = r.k)", &[1, 2]),
        ("EXISTS (SELECT s.v FROM s WHERE s.v > 5)", &[1, 2, 3]),
        ("NOT EXISTS (SELECT s.v FROM s WHERE s.v > 5)", &[]),
        ("r.k IN (SELECT s.k FROM s)", &[3]),
        ("r.k NOT IN (SELECT s.k FROM s)", &[]),
        ("r.k NOT IN (SELECT s.k FROM s WHERE s.v > 100)", &[1, 2, 3]),
        ("r.k NOT IN (SELECT s.k FROM s WHERE s.v = 1)", &[1]),
        ("r.a > (SELECT COUNT(*) FROM s WHERE s.k = r.k)", &[1, 2, 3]),
        ("r.a > (SELECT COUNT(s.v) FROM s WHERE s.k = r.k)", &[1, 2, 3]),
        ("r.a < (SELECT AVG(s.v) FROM s WHERE s.k = r.k)", &[]),
        ("r.a > (SELECT COUNT(*) FROM s WHERE s.v > 100)", &[1, 2, 3]),
        ("EXISTS (SELECT s.k FROM s WHERE s.k = r.k GROUP BY s.k HAVING SUM(s.v) > 5)", &[]),
        (
            "NOT EXISTS (SELECT s.k FROM s WHERE s.k = r.k GROUP BY s.k HAVING SUM(s.v) > 5)",
            &[1, 2, 3],
        ),
        ("EXISTS (SELECT COUNT(*) FROM s WHERE s.k = r.k AND s.v > 1000)", &[1, 2, 3]),
        ("NOT EXISTS (SELECT COUNT(*) FROM s WHERE s.k = r.k AND s.v > 1000)", &[]),
        ("r.k IN (SELECT MAX(s.k) FROM s WHERE s.k = r.k)", &[3]),
        ("r.k NOT IN (SELECT MAX(s.k) FROM s WHERE s.k = r.k)", &[]),
        ("r.a NOT IN (SELECT COUNT(*) FROM s WHERE s.k = r.k)", &[1, 2, 3]),
        ("r.a <> 3 AND r.a > (SELECT COUNT(*) FROM s WHERE s.k = r.k)", &[1, 2]),
        ("r.a <> 1 AND r.a > (SELECT COUNT(*) FROM s WHERE s.k = r.k)", &[2, 3]),
        ("r.a <> 1 AND r.a > (SELECT AVG(s.v) FROM s WHERE s.k = r.k)", &[3]),
        ("r.a <> 1 AND r.a < (SELECT AVG(s.v) FROM s WHERE s.k = r.k)", &[]),
    ];
    let bag = |rel: &Relation| {
        let mut a: Vec<i64> = rel.tuples.iter().map(|t| t.get(0).as_i64().unwrap()).collect();
        a.sort_unstable();
        a
    };
    let mut wrong = Vec::new();
    for (i, (pred, want)) in cases.into_iter().enumerate() {
        let sql = format!("SELECT r.a FROM r WHERE {pred}");
        let plan = QueryPlan::prepare(&sql, tag.schemas()).unwrap();
        let a = plan.analyzed();
        assert_eq!(seed(&a.subqueries[0], a).is_some(), i >= cases.len() - 4, "{pred}: seeded?");
        let tag_join = TagJoinExecutor::new(&tag, EngineConfig::sequential());
        let mut got = vec![("tag-join", bag(&tag_join.execute_plan(&plan).unwrap().relation))];
        for (name, join) in [("row-hash", JoinAlgo::Hash), ("sort-merge", JoinAlgo::SortMerge)] {
            got.push((name, bag(&baseline(plan.analyzed(), &db, ExecConfig { join }).unwrap())));
        }
        for (engine, bag) in got {
            if bag != want {
                wrong.push(format!("{engine}: {pred}: got {bag:?}, want {want:?}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{} wrong answers:\n{}", wrong.len(), wrong.join("\n"));
    let refused = [
        ("r.a > (SELECT COUNT(*) FROM s WHERE s.k = r.k HAVING COUNT(*) > 1)", "HAVING"),
        ("EXISTS (SELECT COUNT(*) FROM s WHERE s.k = r.k HAVING COUNT(*) > 1)", "HAVING"),
        ("r.a IN (SELECT COUNT(*) FROM s WHERE s.k = r.k HAVING COUNT(*) > 1)", "HAVING"),
        ("r.a > (SELECT COUNT(*) FROM s WHERE s.k = r.k GROUP BY s.v)", "GROUP BY"),
    ];
    for (pred, what) in refused {
        let sql = format!("SELECT r.a FROM r WHERE {pred}");
        let err = QueryPlan::prepare(&sql, tag.schemas()).unwrap_err();
        assert!(err.to_string().contains(what), "{pred}: {err}");
    }
}

/// Grouped output follows SQL, checked against hand-written bags on every
/// engine arm, since both engines call one output layer
/// (`vcsql_query::output`). Over `r(k, g, h, v)`, keyed by `k`, =
/// {(1, 1, 1, 10), (2, 1, 2, NULL), (3, NULL, 1, 5), (4, NULL, 1, NULL),
/// (5, 2, 2, NULL)} and `b(k, x)` = {(1, i64::MAX), (2, 1), (3, -1)}: NULL
/// group keys form one group (under local aggregation, where a NULL key has
/// no attribute vertex to go to); COUNT(*) counts rows, COUNT(col) non-NULL
/// values; SUM/AVG/MIN/MAX of only NULLs are NULL; aggregates without GROUP
/// BY give one row over no input, unless HAVING rejects it; HAVING over a
/// NULL aggregate drops the group; an integer SUM outside `i64` is an
/// error, whatever the order its inputs fold in. A column read outside an
/// aggregate must be grouped, or on a table whose primary key is.
#[test]
fn grouped_output_follows_sql() {
    let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let rel = |name: &str, cols: &[&str], rows: &[&[Option<i64>]]| {
        let cols = cols.iter().map(|&c| Column::new(c, DataType::Int)).collect();
        let rows = rows.iter().map(|r| Tuple::new(r.iter().map(|&v| int(v)).collect()));
        let schema = Schema::new(name, cols).with_primary_key(&["k"]);
        Relation::from_tuples(schema, rows.collect()).unwrap()
    };
    let mut db = Database::new();
    let (n, max) = (None, Some(i64::MAX));
    db.add(rel(
        "r",
        &["k", "g", "h", "v"],
        &[
            &[Some(1), Some(1), Some(1), Some(10)],
            &[Some(2), Some(1), Some(2), n],
            &[Some(3), n, Some(1), Some(5)],
            &[Some(4), n, Some(1), n],
            &[Some(5), Some(2), Some(2), n],
        ],
    ));
    db.add(rel("b", &["k", "x"], &[&[Some(1), max], &[Some(2), Some(1)], &[Some(3), Some(-1)]]));
    let tag = TagGraph::build(&db);
    let overflow = "integer overflow in SUM";
    let cases: [(&str, Result<&[&str], &str>); 10] = [
        (
            "SELECT r.g, COUNT(*), SUM(r.v) FROM r GROUP BY r.g",
            Ok(&["1|2|10", "2|1|NULL", "NULL|2|5"]),
        ),
        ("SELECT COUNT(*), COUNT(r.v), COUNT(r.g) FROM r", Ok(&["5|2|3"])),
        (
            "SELECT r.h, SUM(r.v), AVG(r.v), MIN(r.v), MAX(r.v) FROM r GROUP BY r.h",
            Ok(&["1|15|7.5|5|10", "2|NULL|NULL|NULL|NULL"]),
        ),
        ("SELECT COUNT(*), SUM(r.v) FROM r WHERE r.k > 9", Ok(&["0|NULL"])),
        ("SELECT COUNT(*) FROM r WHERE r.k > 9 HAVING COUNT(*) > 0", Ok(&[])),
        ("SELECT r.h, COUNT(*) FROM r GROUP BY r.h HAVING SUM(r.v) > 0", Ok(&["1|3"])),
        (
            "SELECT r.g, r.h, COUNT(*) FROM r GROUP BY r.g, r.h",
            Ok(&["1|1|1", "1|2|1", "2|2|1", "NULL|1|2"]),
        ),
        ("SELECT r.k, r.v FROM r WHERE r.k < 3 GROUP BY r.k", Ok(&["1|10", "2|NULL"])),
        ("SELECT SUM(b.x) FROM b WHERE b.k < 3", Err(overflow)),
        ("SELECT SUM(b.x) FROM b", Ok(&["9223372036854775807"])),
    ];
    let bag = |rel: &Relation| {
        let row = |t: &Tuple| t.values().map(Value::to_string).collect::<Vec<_>>().join("|");
        let mut rows: Vec<String> = rel.tuples.iter().map(row).collect();
        rows.sort_unstable();
        rows
    };
    let mut wrong = Vec::new();
    for (sql, want) in cases {
        let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
        let mut got = Vec::new();
        let parallel = EngineConfig::with_threads(4).with_parallel_threshold(0);
        for (name, config) in [("tag-join", EngineConfig::sequential()), ("tag-join x4", parallel)]
        {
            let out = TagJoinExecutor::new(&tag, config).execute_plan(&plan);
            got.push((name, out.map(|o| bag(&o.relation))));
        }
        for (name, join) in [("row-hash", JoinAlgo::Hash), ("sort-merge", JoinAlgo::SortMerge)] {
            let out = baseline(plan.analyzed(), &db, ExecConfig { join });
            got.push((name, out.map(|rel| bag(&rel))));
        }
        for (engine, got) in got {
            let ok = match (&got, want) {
                (Ok(rows), Ok(want)) => rows == want,
                (Err(e), Err(want)) => e.to_string().contains(want),
                _ => false,
            };
            if !ok {
                wrong.push(format!("{engine}: {sql}: got {got:?}, want {want:?}"));
            }
        }
    }
    let refused = [
        "SELECT r.v, COUNT(*) FROM r WHERE r.k = 2",
        "SELECT r.g, COUNT(*) FROM r GROUP BY r.g HAVING COUNT(*) > r.v",
    ];
    for sql in refused {
        match QueryPlan::prepare(sql, tag.schemas()) {
            Err(e) if e.to_string().contains("must appear in GROUP BY") => {}
            other => wrong.push(format!("{sql}: got {:?}, want refusal", other.map(|_| ()))),
        }
    }
    assert!(wrong.is_empty(), "{} wrong answers:\n{}", wrong.len(), wrong.join("\n"));
}

/// Local aggregation (Section 7) folds each group exactly once, checked
/// against hand-written bags on TAG-join (sequential and 4 threads) and
/// row-hash. Over `r(id, name, v)`, keyed by `id`, = {(1, ann, 10), (2,
/// ann, 20), (3, bob, 5), (4, NULL, 7), (5, NULL, 1), (6, cy, 3)} and
/// `s(sid, rid, w)` = {(1, 1, 100), (2, 1, 200), (3, 2, 1), (4, 3, 4), (5,
/// 3, 6), (6, 4, 2), (7, 5, 9)}: (a) grouping by `name, id` sends the
/// partials of two groups to the `ann` attribute vertex; (b) a root joined
/// to several `s` rows folds them into one partial; (c) a NULL first key has
/// no attribute vertex and takes the aggregator fallback; (d) HAVING drops
/// one routed group. Groups finish at their vertex, so with `b(bid, rid, x)`
/// = {(1, 1, i64::MAX), (2, 1, 1)}: (e) a routed group whose HAVING SUM
/// overflows fails the statement with the error the output layer gives; (f)
/// HAVING drops both groups at the `ann` vertex; (g) a one-table LA keeps one
/// of two groups at one vertex.
#[test]
fn local_aggregation_folds_each_group_once() {
    let (int, name) = (|v: i64| Value::Int(v), |v: &str| Value::str(v));
    let rel = |schema: Schema, key: &str, rows: Vec<Vec<Value>>| {
        let rows = rows.into_iter().map(Tuple::new).collect();
        Relation::from_tuples(schema.with_primary_key(&[key]), rows).unwrap()
    };
    let r = Schema::new(
        "r",
        vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("v", DataType::Int),
        ],
    );
    let s = Schema::new(
        "s",
        ["sid", "rid", "w"].iter().map(|&c| Column::new(c, DataType::Int)).collect(),
    );
    let mut db = Database::new();
    db.add(rel(
        r,
        "id",
        vec![
            vec![int(1), name("ann"), int(10)],
            vec![int(2), name("ann"), int(20)],
            vec![int(3), name("bob"), int(5)],
            vec![int(4), Value::Null, int(7)],
            vec![int(5), Value::Null, int(1)],
            vec![int(6), name("cy"), int(3)],
        ],
    ));
    let s_rows = [[1, 1, 100], [2, 1, 200], [3, 2, 1], [4, 3, 4], [5, 3, 6], [6, 4, 2], [7, 5, 9]];
    db.add(rel(s, "sid", s_rows.iter().map(|row| row.iter().map(|&v| int(v)).collect()).collect()));
    let b = Schema::new(
        "b",
        ["bid", "rid", "x"].iter().map(|&c| Column::new(c, DataType::Int)).collect(),
    );
    db.add(rel(b, "bid", vec![vec![int(1), int(1), int(i64::MAX)], vec![int(2), int(1), int(1)]]));
    let tag = TagGraph::build(&db);
    let cases: [(&str, &[&str]); 8] = [
        (
            "SELECT r.name, r.id, SUM(r.v) FROM r GROUP BY r.name, r.id",
            &["ann|1|10", "ann|2|20", "bob|3|5", "cy|6|3", "NULL|4|7", "NULL|5|1"],
        ),
        (
            "SELECT r.name, r.id, COUNT(*), SUM(s.w) FROM r, s WHERE r.id = s.rid \
             GROUP BY r.name, r.id",
            &["ann|1|2|300", "ann|2|1|1", "bob|3|2|10", "NULL|4|1|2", "NULL|5|1|9"],
        ),
        (
            "SELECT r.name, COUNT(*), SUM(s.w), MIN(s.w) FROM r, s WHERE r.id = s.rid \
             GROUP BY r.name",
            &["ann|3|301|1", "bob|2|10|4", "NULL|2|11|2"],
        ),
        (
            "SELECT r.name, COUNT(*), SUM(r.v) FROM r GROUP BY r.name",
            &["ann|2|30", "bob|1|5", "cy|1|3", "NULL|2|8"],
        ),
        (
            "SELECT r.name, SUM(s.w) FROM r, s WHERE r.id = s.rid GROUP BY r.name \
             HAVING SUM(s.w) > 10",
            &["ann|301", "NULL|11"],
        ),
        (
            "SELECT r.name, SUM(b.x) FROM r, b WHERE r.id = b.rid GROUP BY r.name \
             HAVING SUM(b.x) > 0",
            &["error: integer overflow in SUM"],
        ),
        (
            "SELECT r.name, r.id, SUM(r.v) FROM r GROUP BY r.name, r.id HAVING SUM(r.v) < 6",
            &["NULL|5|1", "bob|3|5", "cy|6|3"],
        ),
        (
            "SELECT r.name, r.id, SUM(r.v) FROM r GROUP BY r.name, r.id HAVING SUM(r.v) > 15",
            &["ann|2|20"],
        ),
    ];
    // A bag, or the one-line form of an error.
    let bag = |rel: Result<Relation, RelError>| match rel {
        Ok(rel) => {
            let row = |t: &Tuple| t.values().map(Value::to_string).collect::<Vec<_>>().join("|");
            let mut rows: Vec<String> = rel.tuples.iter().map(row).collect();
            rows.sort_unstable();
            rows
        }
        Err(e) => vec![format!("error: {e}")],
    };
    let mut wrong = Vec::new();
    for (sql, want) in cases {
        let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
        assert_eq!(plan.analyzed().agg_class, AggClass::Local, "{sql}");
        let mut want: Vec<String> = want.iter().map(|w| w.to_string()).collect();
        want.sort_unstable();
        let parallel = EngineConfig::with_threads(4).with_parallel_threshold(0);
        let mut got = Vec::new();
        for (engine, config) in
            [("tag-join", EngineConfig::sequential()), ("tag-join x4", parallel)]
        {
            let out = TagJoinExecutor::new(&tag, config).execute_plan(&plan);
            got.push((engine, bag(out.map(|o| o.relation))));
        }
        let hash = baseline(plan.analyzed(), &db, ExecConfig { join: JoinAlgo::Hash });
        got.push(("row-hash", bag(hash)));
        for (engine, got) in got {
            if got != want {
                wrong.push(format!("{engine}: {sql}: got {got:?}, want {want:?}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{} wrong answers:\n{}", wrong.len(), wrong.join("\n"));
}

/// Tables no output reads only filter: a branch of them may leave the
/// collected rows only where every row it joins extends into it exactly
/// once. Hand-written bags on TAG-join (sequential and 4 threads at
/// threshold 0) and row-hash, over a fact `f(fid, dk, gk, v)` and
/// output-free tables around it: `d(dk, ek, x)` keyed by `dk`, one of its
/// `ek` NULL, `e(ek, y)` behind it (depth 2); `g(gk, z)` whose "primary
/// key" `gk = 1` occurs twice, so its rows double; `h(a, b)`, joined on
/// both columns to `f.dk` (one join variable in two columns, `(2, 9)`
/// disagrees); `m(k1, k2)`, joined on two columns at once; `k(gk, w)`
/// keyed by `gk`. `f(5)` dangles (`dk = 99`), `f(6)` has a NULL `dk`.
#[test]
fn output_free_branches_keep_the_bag() {
    let v = |v: i64| Value::Int(v);
    let s = Value::str;
    let ints = |names: &[&str]| names.iter().map(|&c| Column::new(c, DataType::Int)).collect();
    let rel = |schema: Schema, key: &str, rows: Vec<Vec<Value>>| {
        let rows = rows.into_iter().map(Tuple::new).collect();
        Relation::from_tuples(schema.with_primary_key(&[key]), rows).unwrap()
    };
    let mut db = Database::new();
    db.add(rel(
        Schema::new("f", ints(&["fid", "dk", "gk", "v"])),
        "fid",
        vec![
            vec![v(1), v(1), v(1), v(10)],
            vec![v(2), v(1), v(2), v(20)],
            vec![v(3), v(2), v(1), v(30)],
            vec![v(4), v(3), v(2), v(40)],
            vec![v(5), v(99), v(1), v(50)],
            vec![v(6), Value::Null, v(2), v(60)],
            vec![v(7), v(4), v(3), v(70)],
        ],
    ));
    db.add(rel(
        Schema::new("d", ints(&["dk", "ek", "x"])),
        "dk",
        vec![
            vec![v(1), v(100), v(5)],
            vec![v(2), v(200), v(6)],
            vec![v(3), Value::Null, v(7)],
            vec![v(4), v(100), v(8)],
        ],
    ));
    let e =
        Schema::new("e", vec![Column::new("ek", DataType::Int), Column::new("y", DataType::Str)]);
    db.add(rel(
        e,
        "ek",
        vec![vec![v(100), s("keep")], vec![v(200), s("drop")], vec![v(300), s("keep")]],
    ));
    let g =
        Schema::new("g", vec![Column::new("gk", DataType::Int), Column::new("z", DataType::Str)]);
    db.add(rel(g, "gk", vec![vec![v(1), s("a")], vec![v(1), s("b")], vec![v(2), s("c")]]));
    let pairs = |pairs: [[i64; 2]; 4]| pairs.iter().map(|p| p.map(v).to_vec()).collect();
    db.add(rel(Schema::new("h", ints(&["a", "b"])), "a", pairs([[1, 1], [2, 9], [3, 3], [4, 4]])));
    db.add(rel(
        Schema::new("m", ints(&["k1", "k2"])),
        "k1",
        pairs([[1, 1], [2, 2], [3, 1], [4, 3]]),
    ));
    let k =
        Schema::new("k", vec![Column::new("gk", DataType::Int), Column::new("w", DataType::Str)]);
    db.add(rel(k, "gk", vec![vec![v(1), s("p")], vec![v(2), s("q")], vec![v(3), s("r")]]));
    let cases: [(&str, &[&str]); 12] = [
        // Depth 1, unique-keyed.
        ("SELECT f.fid, f.v FROM f, d WHERE f.dk = d.dk AND d.x > 5", &["3|30", "4|40", "7|70"]),
        // Two unique-keyed branches, each filtering rows the other keeps.
        (
            "SELECT f.fid, f.v FROM f, d, k WHERE f.dk = d.dk AND f.gk = k.gk AND d.x > 5",
            &["3|30", "4|40", "7|70"],
        ),
        (
            "SELECT f.fid, f.v FROM f, d, k WHERE f.dk = d.dk AND f.gk = k.gk AND k.w <> 'p'",
            &["2|20", "4|40", "7|70"],
        ),
        // Depth 2, unique-keyed, a NULL join key inside the branch.
        (
            "SELECT f.fid, f.v FROM f, d, e WHERE f.dk = d.dk AND d.ek = e.ek AND e.y = 'keep'",
            &["1|10", "2|20", "7|70"],
        ),
        // The same branch under local aggregation, rooted at the fact.
        (
            "SELECT f.gk, SUM(f.v) FROM f, d, e WHERE f.dk = d.dk AND d.ek = e.ek \
             AND e.y = 'keep' GROUP BY f.gk",
            &["1|10", "2|20", "3|70"],
        ),
        // A duplicated key value: every `gk = 1` row joins twice.
        (
            "SELECT f.fid, f.v FROM f, g WHERE f.gk = g.gk",
            &["1|10", "1|10", "2|20", "3|30", "3|30", "4|40", "5|50", "5|50", "6|60"],
        ),
        // A dangling and a NULL foreign key.
        ("SELECT COUNT(*), SUM(f.v) FROM f, d WHERE f.dk = d.dk", &["5|170"]),
        // One join variable in two columns of the output-free table.
        ("SELECT f.fid FROM f, h WHERE f.dk = h.a AND f.dk = h.b", &["1", "2", "4", "7"]),
        // A two-column join into the output-free table.
        ("SELECT f.fid, f.v FROM f, m WHERE f.dk = m.k1 AND f.gk = m.k2", &["1|10", "7|70"]),
        // The read table in the middle: the fact below it is output-free
        // but not unique-keyed, so it still counts.
        (
            "SELECT d.x, COUNT(*) FROM f, d, e WHERE f.dk = d.dk AND d.ek = e.ek GROUP BY d.x",
            &["5|2", "6|1", "8|1"],
        ),
        // A COUNT(*) that reads nothing, through a unique-keyed branch and
        // through a duplicated key.
        ("SELECT COUNT(*) FROM f, d, e WHERE f.dk = d.dk AND d.ek = e.ek AND e.y = 'keep'", &["3"]),
        ("SELECT COUNT(*) FROM f, g WHERE f.gk = g.gk", &["9"]),
    ];
    let wrong = wrong_bags(&db, &cases);
    assert!(wrong.is_empty(), "{} wrong answers:\n{}", wrong.len(), wrong.join("\n"));
}

/// The bags of `cases` over `db`, each `(sql, rows)` with a row's cells
/// joined by `|`, on TAG-join sequential, on 4 threads at threshold 0 and
/// on row-hash; the wrong answers, one line each.
fn wrong_bags(db: &Database, cases: &[(&str, &[&str])]) -> Vec<String> {
    let tag = TagGraph::build(db);
    let bag = |rel: &Relation| {
        let row = |t: &Tuple| t.values().map(Value::to_string).collect::<Vec<_>>().join("|");
        let mut rows: Vec<String> = rel.tuples.iter().map(row).collect();
        rows.sort_unstable();
        rows
    };
    let mut wrong = Vec::new();
    for &(sql, want) in cases {
        let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
        let mut want: Vec<String> = want.iter().map(|w| w.to_string()).collect();
        want.sort_unstable();
        let parallel = EngineConfig::with_threads(4).with_parallel_threshold(0);
        let mut got = Vec::new();
        for (engine, config) in
            [("tag-join", EngineConfig::sequential()), ("tag-join x4", parallel)]
        {
            let out = TagJoinExecutor::new(&tag, config).execute_plan(&plan).unwrap();
            got.push((engine, bag(&out.relation)));
        }
        let hash = baseline(plan.analyzed(), db, ExecConfig { join: JoinAlgo::Hash }).unwrap();
        got.push(("row-hash", bag(&hash)));
        for (engine, got) in got {
            if got != want {
                wrong.push(format!("{engine}: {sql}: got {got:?}, want {want:?}"));
            }
        }
    }
    wrong
}

/// A relation of integer columns, NULL where a cell is `None`.
fn ints(name: &str, cols: &[&str], rows: &[&[Option<i64>]]) -> Relation {
    let cols = cols.iter().map(|&c| Column::new(c, DataType::Int)).collect();
    let cell = |v: &Option<i64>| v.map_or(Value::Null, Value::Int);
    let rows = rows.iter().map(|r| Tuple::new(r.iter().map(cell).collect()));
    Relation::from_tuples(Schema::new(name, cols), rows.collect()).unwrap()
}

/// A join variable's columns the traversed edge did not prove are compared
/// with SQL equality where rows are collected: with r(a, b) = s(a, b) =
/// {(1, NULL), (2, 7)}, `r.b = s.b` holds for no row with a NULL, so the
/// two-column join keeps `a = 2` alone, on TAG-join as on row-hash.
#[test]
fn collection_checks_compare_with_sql_equality() {
    let rows: &[&[Option<i64>]] = &[&[Some(1), None], &[Some(2), Some(7)]];
    let mut db = Database::new();
    db.add(ints("r", &["a", "b"], rows));
    db.add(ints("s", &["a", "b"], rows));
    let cases: [(&str, &[&str]); 2] = [
        ("SELECT r.a FROM r, s WHERE r.a = s.a AND r.b = s.b", &["2"]),
        ("SELECT r.a, s.a FROM r, s WHERE r.b = s.b", &["2|2"]),
    ];
    let wrong = wrong_bags(&db, &cases);
    assert!(wrong.is_empty(), "{} wrong answers:\n{}", wrong.len(), wrong.join("\n"));
}

/// EXISTS and NOT EXISTS run as semijoin branches of the outer walk, and
/// their bags are SQL's on every engine arm: several matching inner rows
/// keep an outer row once; NOT EXISTS over an empty inner table keeps
/// every row; a NULL outer key makes EXISTS false and NOT EXISTS true; an
/// inner filter that rejects every row empties EXISTS; a branch hangs under
/// a multi-table outer block, at a key only it reads or at the outer join
/// variable; a branch over two inner tables, and two branches in one
/// statement.
#[test]
fn semijoin_branches_keep_the_bag() {
    let mut db = Database::new();
    db.add(ints(
        "o",
        &["ok", "c"],
        &[
            &[Some(1), Some(10)],
            &[Some(2), Some(10)],
            &[Some(3), None],
            &[Some(4), Some(20)],
            &[Some(5), Some(30)],
        ],
    ));
    db.add(ints(
        "l",
        &["ok", "q"],
        &[
            &[Some(1), Some(5)],
            &[Some(1), Some(6)],
            &[Some(1), Some(7)],
            &[Some(2), Some(1)],
            &[Some(4), Some(9)],
            &[None, Some(3)],
        ],
    ));
    db.add(ints("e", &["ok"], &[]));
    db.add(ints(
        "c",
        &["ck", "n"],
        &[&[Some(10), Some(1)], &[Some(20), Some(2)], &[Some(40), Some(4)]],
    ));
    db.add(ints(
        "t",
        &["q", "w"],
        &[&[Some(10), Some(100)], &[Some(9), Some(200)], &[Some(5), Some(300)]],
    ));
    let all: &[&str] = &["1", "2", "3", "4", "5"];
    let cases: [(&str, &[&str]); 12] = [
        ("SELECT o.ok FROM o WHERE EXISTS (SELECT l.q FROM l WHERE l.ok = o.ok)", &["1", "2", "4"]),
        ("SELECT o.ok FROM o WHERE NOT EXISTS (SELECT e.ok FROM e WHERE e.ok = o.ok)", all),
        ("SELECT o.ok FROM o WHERE EXISTS (SELECT c.n FROM c WHERE c.ck = o.c)", &["1", "2", "4"]),
        ("SELECT o.ok FROM o WHERE NOT EXISTS (SELECT c.n FROM c WHERE c.ck = o.c)", &["3", "5"]),
        ("SELECT o.ok FROM o WHERE EXISTS (SELECT l.q FROM l WHERE l.ok = o.ok AND l.q > 100)", &[]),
        (
            "SELECT o.ok FROM o WHERE NOT EXISTS (SELECT l.q FROM l WHERE l.ok = o.ok AND l.q > 100)",
            all,
        ),
        (
            "SELECT o.ok, c.n FROM o, c WHERE o.c = c.ck \
             AND EXISTS (SELECT l.q FROM l WHERE l.ok = o.ok AND l.q > 5)",
            &["1|1", "4|2"],
        ),
        (
            "SELECT o.ok, c.n FROM o, c WHERE o.c = c.ck \
             AND NOT EXISTS (SELECT l.q FROM l WHERE l.ok = o.ok AND l.q > 5)",
            &["2|1"],
        ),
        (
            "SELECT o.ok FROM o, c WHERE o.c = c.ck \
             AND NOT EXISTS (SELECT t.w FROM t WHERE t.q = o.c)",
            &["4"],
        ),
        (
            "SELECT o.ok FROM o WHERE EXISTS (SELECT l.q FROM l, t WHERE l.q = t.q AND l.ok = o.ok)",
            &["1", "4"],
        ),
        (
            "SELECT o.ok FROM o \
             WHERE NOT EXISTS (SELECT l.q FROM l, t WHERE l.q = t.q AND l.ok = o.ok)",
            &["2", "3", "5"],
        ),
        (
            "SELECT COUNT(*) FROM o WHERE EXISTS (SELECT l.q FROM l WHERE l.ok = o.ok) \
             AND NOT EXISTS (SELECT t.w FROM t WHERE t.q = o.c)",
            &["1"],
        ),
    ];
    let tag = TagGraph::build(&db);
    for (sql, _) in cases {
        let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
        let subqueries = plan.analyzed().subqueries.len();
        assert_eq!((plan.semijoin_count(), plan.inner_plan_count()), (subqueries, 0), "{sql}");
    }
    let wrong = wrong_bags(&db, &cases);
    assert!(wrong.is_empty(), "{} wrong answers:\n{}", wrong.len(), wrong.join("\n"));
}

/// Collection values at the inline width keep the bag and the traffic. A
/// value of one row of at most two ids travels inside its message, any
/// other as a table, and both read and price alike. On TAG-join
/// sequential, on 4 threads at threshold 0 and on row-hash:
///
/// * a four-table chain whose rows outgrow the inline width mid-walk (one
///   and two ids inline, three and four in tables), one key fanning out to
///   two rows, with string payloads;
/// * a star whose walk backtracks to its centre: the revisit selects from
///   rows that left the centre inline, three ids wide by then;
/// * a first visit whose SQL-equality check rejects the only row of a
///   value, so the value sent on is an empty table, priced 16 bytes.
///
/// Messages and bytes are pinned at the values every collection value
/// made as a table.
#[test]
fn collection_values_at_the_inline_width_keep_the_bag_and_the_traffic() {
    let mut db = Database::new();
    let names = [(1, "x"), (2, "abcdefghij"), (3, "y"), (4, "z")];
    let rows = names.iter().map(|&(a, n)| Tuple::new(vec![Value::Int(a), Value::str(n)]));
    let cols = vec![Column::new("a", DataType::Int), Column::new("name", DataType::Str)];
    db.add(Relation::from_tuples(Schema::new("r", cols), rows.collect()).unwrap());
    let rows: &[&[Option<i64>]] =
        &[&[Some(1), Some(10)], &[Some(2), Some(20)], &[Some(2), Some(21)]];
    db.add(ints("s", &["a", "b"], &[rows, &[&[Some(3), Some(30)], &[Some(5), Some(50)]]].concat()));
    db.add(ints(
        "t",
        &["b", "c"],
        &[
            &[Some(10), Some(100)],
            &[Some(20), Some(200)],
            &[Some(21), Some(200)],
            &[Some(30), Some(300)],
        ],
    ));
    db.add(ints(
        "u",
        &["c", "w"],
        &[
            &[Some(100), Some(7)],
            &[Some(200), Some(8)],
            &[Some(300), Some(9)],
            &[Some(300), Some(10)],
        ],
    ));
    db.add(ints(
        "m",
        &["a", "b", "c"],
        &[
            &[Some(1), Some(10), Some(100)],
            &[Some(2), Some(20), Some(200)],
            &[Some(3), Some(30), Some(300)],
            &[Some(2), Some(21), Some(999)],
        ],
    ));
    db.add(ints("p", &["a", "b"], &[&[Some(1), Some(5)], &[Some(2), Some(6)]]));
    db.add(ints(
        "q",
        &["a", "b", "c"],
        &[&[Some(1), Some(5), Some(100)], &[Some(2), Some(7), Some(200)]],
    ));
    let chain = "SELECT r.name, s.b, t.c, u.w FROM r, s, t, u \
                 WHERE r.a = s.a AND s.b = t.b AND t.c = u.c";
    let star = "SELECT r.name, t.c, u.w FROM r, m, t, u \
                WHERE r.a = m.a AND m.b = t.b AND m.c = u.c";
    let check = "SELECT p.a, u.w FROM p, q, u WHERE p.a = q.a AND p.b = q.b AND q.c = u.c";
    /// A statement, its bag, its `(root, start)` tables and its `(messages,
    /// bytes)`.
    type Case<'a> = (&'a str, &'a [&'a str], (usize, usize), (u64, u64));
    // The chain walks r, s, t, u; the star t, m, u, m again, r; the check
    // p, q (where `p.b = q.b` drops `(2, 6)`'s row), u.
    let cases: [Case; 3] = [
        (
            chain,
            &[
                "x|10|100|7",
                "abcdefghij|20|200|8",
                "abcdefghij|21|200|8",
                "y|30|300|9",
                "y|30|300|10",
            ],
            (3, 0),
            (70, 1_616),
        ),
        (star, &["x|100|7", "abcdefghij|200|8", "y|300|9", "y|300|10"], (0, 2), (81, 1_816)),
        (check, &["1|7"], (2, 0), (24, 368)),
    ];
    let tag = TagGraph::build(&db);
    let wrong = wrong_bags(&db, &cases.map(|(sql, want, ..)| (sql, want)));
    assert!(wrong.is_empty(), "{} wrong answers:\n{}", wrong.len(), wrong.join("\n"));
    let parallel = EngineConfig::with_threads(4).with_parallel_threshold(0);
    for (sql, _, walk, pinned) in cases {
        let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
        let shape = plan.shape(&tag).unwrap();
        assert_eq!((shape.root_table(0), shape.start_table(0)), walk, "{sql}: another walk");
        for config in [EngineConfig::sequential(), parallel] {
            let totals =
                TagJoinExecutor::new(&tag, config).execute_plan(&plan).unwrap().stats.totals;
            let got = (totals.messages, totals.message_bytes);
            assert_eq!(got, pinned, "{sql}: (messages, bytes) moved on {config:?}");
        }
    }
}

/// The FROM orders a statement over `n` tables is checked under, as index
/// permutations: all of them when there are at most 24, else 24 drawn by a
/// fixed-seed shuffle.
fn from_orders(n: usize) -> Vec<Vec<usize>> {
    fn all(prefix: &mut Vec<usize>, n: usize, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == n {
            out.push(prefix.clone());
        }
        for t in 0..n {
            if !prefix.contains(&t) {
                prefix.push(t);
                all(prefix, n, out);
                prefix.pop();
            }
        }
    }
    if (1..=n).product::<usize>() <= 24 {
        let mut out = Vec::new();
        all(&mut Vec::new(), n, &mut out);
        return out;
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..24)
        .map(|_| {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            order
        })
        .collect()
}

/// Reordering FROM changes neither engine's bag: every TPC-H and TPC-DS
/// statement at SF 0.01, under each of its FROM orders (`from_orders`), on
/// TAG-join sequential and on 4 threads at threshold 0, against the
/// statement as written run sequentially. The plan is chosen by cost with
/// ties broken by names, never by table index, so every statement also
/// sends exactly the same traffic in the same supersteps under every order
/// — the cyclic q5 too: GYO leaves the same cyclic core whatever order it
/// removes ears in, and the predicate that breaks it is the first of the
/// core's in WHERE order.
#[test]
fn from_order_keeps_the_bag() {
    let pool = Arc::new(WorkerPool::new(4));
    let parallel = EngineConfig::with_threads(4).with_parallel_threshold(0);
    let mut wrong = Vec::new();
    for (db, queries) in
        [(tpch::generate(0.01, 42), tpch::queries()), (tpcds::generate(0.01, 42), tpcds::queries())]
    {
        let tag = TagGraph::build(&db);
        let engines = [
            ("tag-join", TagJoinExecutor::new(&tag, EngineConfig::sequential())),
            (
                "tag-join x4",
                TagJoinExecutor::new(&tag, parallel).with_worker_pool(Arc::clone(&pool)),
            ),
        ];
        for q in queries {
            let stmt = parse(q.sql).unwrap();
            let want = engines[0].1.run_sql(q.sql).unwrap();
            for order in from_orders(stmt.from.len()) {
                let mut permuted = stmt.clone();
                permuted.from = order.iter().map(|&i| stmt.from[i].clone()).collect();
                let plan = QueryPlan::new(analyze(&permuted, tag.schemas()).unwrap()).unwrap();
                for (engine, exec) in &engines {
                    let got = exec.execute_plan(&plan).unwrap();
                    if !got.relation.same_bag_approx(&want.relation, 1e-9) {
                        wrong.push(format!("{engine}: {} under FROM order {order:?}", q.id));
                    }
                    let same_run = (got.stats.totals, got.stats.supersteps)
                        == (want.stats.totals, want.stats.supersteps);
                    if !same_run {
                        wrong.push(format!("{engine}: {} traffic under {order:?}", q.id));
                    }
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{} wrong runs:\n{}", wrong.len(), wrong.join("\n"));
}

/// The plan is chosen once per (plan, TAG) and nothing about a run changes
/// it: q5 and d_q79, the workload statements whose shape the cost model
/// changes most, at SF 0.01 send the same traffic in the same supersteps
/// on 1 thread and on 4 at threshold 0; under `hash` and `refined`
/// placement, where the two engines also agree on every network count; in
/// a run that recovers a crash with checkpoints every 1 and every 2
/// supersteps; and in a second `Session::execute` of one prepared
/// statement, which reuses the shape the first chose.
#[test]
fn the_chosen_plan_holds_across_threads_placement_recovery_and_reuse() {
    let pool = Arc::new(WorkerPool::new(4));
    let engines =
        [EngineConfig::sequential(), EngineConfig::with_threads(4).with_parallel_threshold(0)];
    for (db, queries, id) in [
        (tpch::generate(0.01, 42), tpch::queries(), "q5"),
        (tpcds::generate(0.01, 42), tpcds::queries(), "d_q79"),
    ] {
        let sql = queries.iter().find(|q| q.id == id).unwrap().sql;
        let tag = Arc::new(TagGraph::build(&db));
        let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
        let shape = plan.shape(&tag).unwrap();
        let executor = |engine: EngineConfig, placement: Option<&Arc<Partitioning>>| {
            let mut exec = TagJoinExecutor::new(&tag, engine).with_worker_pool(Arc::clone(&pool));
            if let Some(p) = placement {
                exec = exec.with_partitioning_shared(Arc::clone(p));
            }
            exec
        };
        let base = executor(engines[0], None).execute_plan(&plan).unwrap();
        // What a run sends, whatever the placement.
        let sent = |s: &RunStats| {
            (s.supersteps, s.totals.active_vertices, s.totals.messages, s.totals.message_bytes)
        };
        for strategy in [None, Some(PartitionStrategy::Hash), Some(PartitionStrategy::Refined)] {
            let placement = strategy.as_ref().map(|s| Arc::new(tag.partition(s, 4)));
            let runs: Vec<_> = engines
                .iter()
                .map(|&e| executor(e, placement.as_ref()).execute_plan(&plan).unwrap())
                .collect();
            for out in &runs {
                assert!(out.relation.same_bag_approx(&base.relation, 1e-9), "{id}");
                assert_eq!(sent(&out.stats), sent(&base.stats), "{id} under {strategy:?}");
            }
            assert_eq!(runs[0].stats.totals, runs[1].stats.totals, "{id} under {strategy:?}");
            if strategy != Some(PartitionStrategy::Hash) {
                continue;
            }
            for every in [1, 2] {
                let crash = FaultPlan::new().crash(1, 3);
                let injector = Arc::new(FaultInjector::new(crash, every));
                let out = executor(engines[1], placement.as_ref())
                    .with_fault_injector(Arc::clone(&injector))
                    .execute_plan(&plan)
                    .unwrap();
                assert_eq!(out.stats.faults.crashes_recovered, 1, "{id}: every {every}");
                assert!(out.relation.same_bag_approx(&base.relation, 1e-9), "{id}");
                assert_eq!(out.stats.totals, runs[0].stats.totals, "{id}: every {every}");
            }
        }
        assert!(Arc::ptr_eq(&shape, &plan.shape(&tag).unwrap()), "{id}: chosen once");

        let mut session = Session::open(&tag, SessionConfig::default()).unwrap();
        let prepared = session.prepare(sql).unwrap();
        let (first, _) = session.execute(&prepared).unwrap();
        let chosen = prepared.plan().shape(&tag).unwrap();
        let (second, _) = session.execute(&prepared).unwrap();
        assert!(Arc::ptr_eq(&chosen, &prepared.plan().shape(&tag).unwrap()), "{id}: reused");
        assert_eq!(chosen.root_table(0), shape.root_table(0), "{id}");
        assert_eq!(chosen.start_table(0), shape.start_table(0), "{id}");
        for out in [first, second] {
            assert!(out.relation.same_bag_approx(&base.relation, 1e-9), "{id}");
            assert_eq!(sent(&out.stats), sent(&base.stats), "{id} in a session");
        }
    }
}

/// A plan chooses its shape once per TAG, not once: prepared once and run
/// on a TAG whose dimension key is unique, then on one where it repeats, it
/// leaves the branch out on the first and walks it on the second, where
/// every fact row joining the repeated key doubles.
#[test]
fn a_plan_chooses_again_on_another_tag() {
    let v = Value::Int;
    let db = |dims: &[[i64; 2]]| {
        let ints = |names: &[&str]| names.iter().map(|&c| Column::new(c, DataType::Int)).collect();
        let rel = |name: &str, cols: &[&str], rows: Vec<[i64; 2]>| {
            let rows = rows.into_iter().map(|r| Tuple::new(r.map(v).to_vec())).collect();
            Relation::from_tuples(Schema::new(name, ints(cols)).with_primary_key(&[cols[0]]), rows)
                .unwrap()
        };
        let mut db = Database::new();
        db.add(rel("f", &["fid", "gk"], vec![[1, 1], [2, 2], [3, 1]]));
        db.add(rel("g", &["gk", "z"], dims.to_vec()));
        db
    };
    let sql = "SELECT f.fid FROM f, g WHERE f.gk = g.gk";
    let unique = TagGraph::build(&db(&[[1, 5], [2, 6]]));
    let repeated = TagGraph::build(&db(&[[1, 5], [1, 7], [2, 6]]));
    let plan = QueryPlan::prepare(sql, unique.schemas()).unwrap();
    for (tag, want) in [(&unique, vec![1, 2, 3]), (&repeated, vec![1, 1, 2, 3, 3])] {
        let out =
            TagJoinExecutor::new(tag, EngineConfig::sequential()).execute_plan(&plan).unwrap();
        let mut got: Vec<i64> =
            out.relation.tuples.iter().map(|t| t.0[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, want);
    }
}
