//! Every superstep the TAG-join driver issues is a crash point the engine's
//! phase layer must absorb: one query that visits all four driver sites —
//! a secondary component's traversal and gather, the primary traversal, the
//! finish superstep and the local-aggregation merge — is killed at every
//! superstep index and must come out as if nothing happened. So must a
//! seeded correlated scalar subquery, killed at every superstep of its
//! inner run (the seeding phase included) and of its outer run. So must a
//! statement whose output-free branches leave the later passes, and
//! statements whose EXISTS or NOT EXISTS runs as a semijoin branch.

use std::sync::Arc;
use vcsql_bsp::{EngineConfig, FaultInjector, FaultPlan, FaultTraffic, PartitionStrategy};
use vcsql_core::{QueryPlan, TagJoinExecutor};
use vcsql_query::{seed, AggClass};
use vcsql_tag::TagGraph;
use vcsql_workload::{tpcds, tpch};

/// Two join components with no predicate between them (Algorithm B ships
/// the `p ⋈ ps` side to the `n ⋈ c` roots), grouped by one attribute.
const SQL: &str = "SELECT n.n_name, COUNT(*) AS pairs, SUM(c.c_acctbal) AS balance \
                   FROM nation n, customer c, part p, partsupp ps \
                   WHERE n.n_nationkey = c.c_nationkey AND p.p_partkey = ps.ps_partkey \
                   AND p.p_size < 10 \
                   GROUP BY n.n_name";

const MACHINES: usize = 4;

/// Per checkpoint interval, summed over a crash at every superstep:
/// checkpoints, checkpoint bytes, recovery bytes, recovered vertices and
/// recovered rounds.
const PINNED_EVERY_1: [u64; 5] = [121, 2_476_496, 56_128, 6_676, 0];
const PINNED_EVERY_3: [u64; 5] = [66, 1_358_368, 55_784, 6_676, 7];

#[test]
fn a_crash_at_every_superstep_of_a_cartesian_local_aggregate_changes_nothing() {
    let tag = TagGraph::build(&tpch::generate(0.01, 42));
    let plan = QueryPlan::prepare(SQL, tag.schemas()).unwrap();
    assert_eq!(plan.component_count(), 2, "the query must have a secondary component");
    assert_eq!(plan.analyzed().agg_class, AggClass::Local);

    // Per engine: (interval, fault costs) for every crash point, in order.
    let mut priced: Vec<Vec<(u64, FaultTraffic)>> = Vec::new();
    for engine in
        [EngineConfig::sequential(), EngineConfig::with_threads(4).with_parallel_threshold(0)]
    {
        let mut priced_here = Vec::new();
        let run = |injector: Option<Arc<FaultInjector>>| {
            let mut executor = TagJoinExecutor::new(&tag, engine).with_partitioning_shared(
                Arc::new(tag.partition(&PartitionStrategy::Hash, MACHINES)),
            );
            if let Some(injector) = injector {
                executor = executor.with_fault_injector(injector);
            }
            executor.execute_plan(&plan)
        };
        let base = run(None).unwrap();
        assert!(!base.relation.is_empty());
        // Both bottom-up reductions, the top-down reduction and the
        // collection of `n ⋈ c` (two steps each: `part`, which no output
        // reads, is unique-keyed from the `partsupp` root, so its branch
        // leaves those passes), the gather, the finish and the
        // local-aggregation merge.
        assert_eq!(
            base.stats.supersteps,
            plan.shape(&tag).unwrap().traversal_steps() as u64 + 2 * 2 + 3
        );

        for every in [1, 3] {
            for crash in 0..base.stats.supersteps {
                let at = format!("threads={} every={every} crash={crash}", engine.threads);
                let faults = FaultPlan::new().crash((crash % MACHINES as u64) as u32, crash);
                let injector = Arc::new(FaultInjector::new(faults, every));
                let out = run(Some(Arc::clone(&injector))).unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(injector.fired_count(), 1, "{at}: the crash must fire");
                assert_eq!(out.stats.faults.crashes_recovered, 1, "{at}");
                assert!(out.relation.same_bag_approx(&base.relation, 0.0), "{at}: bag changed");
                assert_eq!(out.stats.totals, base.stats.totals, "{at}");
                assert_eq!(out.stats.steps, base.stats.steps, "{at}");
                priced_here.push((every, out.stats.faults));
            }
        }
        priced.push(priced_here);
    }

    // Checkpoint and recovery pricing does not depend on the thread count…
    assert_eq!(priced[0], priced[1], "sequential and 4-thread engines price faults differently");
    // …and is pinned: per interval, the sums over every crash point of
    // (checkpoints, checkpoint bytes, recovery bytes, recovered vertices,
    // recovered rounds).
    for (every, pinned) in [(1, PINNED_EVERY_1), (3, PINNED_EVERY_3)] {
        let mut sum = FaultTraffic::default();
        priced[0].iter().filter(|(e, _)| *e == every).for_each(|(_, f)| sum.add(f));
        let got = [
            sum.checkpoints,
            sum.checkpoint_bytes,
            sum.recovery_bytes,
            sum.recovered_vertices,
            sum.recovered_rounds,
        ];
        assert_eq!(got, pinned, "every={every}: checkpoint/recovery pricing moved");
    }
}

/// q17's shape with `p.p_size < 10` as the outer filter: the correlated
/// scalar subquery is seeded from `part`'s filter.
const SEEDED: &str = "SELECT SUM(l.l_extendedprice) AS total FROM lineitem l, part p \
                      WHERE p.p_partkey = l.l_partkey AND p.p_size < 10 \
                      AND 5 * l.l_quantity < (SELECT SUM(l2.l_quantity) FROM lineitem l2 \
                                              WHERE l2.l_partkey = p.p_partkey)";

/// Supersteps of each computation, in run order: the inner run's three
/// seeding supersteps, finish and local-aggregation merge, then the outer
/// run's two-step traversal (three passes) and finish.
const SEEDED_RUNS: [u64; 2] = [5, 7];

#[test]
fn a_crash_at_every_superstep_of_a_seeded_subquery_changes_nothing() {
    let tag = TagGraph::build(&tpch::generate(0.01, 42));
    let plan = QueryPlan::prepare(SEEDED, tag.schemas()).unwrap();
    let a = plan.analyzed();
    assert!(seed(&a.subqueries[0], a).is_some(), "the subquery must be seeded");

    for engine in
        [EngineConfig::sequential(), EngineConfig::with_threads(4).with_parallel_threshold(0)]
    {
        let run = |injector: Option<Arc<FaultInjector>>| {
            let mut executor = TagJoinExecutor::new(&tag, engine).with_partitioning_shared(
                Arc::new(tag.partition(&PartitionStrategy::Hash, MACHINES)),
            );
            if let Some(injector) = injector {
                executor = executor.with_fault_injector(injector);
            }
            executor.execute_plan(&plan)
        };
        let base = run(None).unwrap();
        assert!(!base.relation.tuples[0].0[0].is_null(), "some line item must qualify");
        assert_eq!(base.stats.supersteps, SEEDED_RUNS.iter().sum::<u64>());

        // Superstep `at` of run `r`: a crash pinned to `at` fires in the
        // first run that reaches it, so every earlier run reaching `at`
        // spends one crash before run `r`'s fires.
        for (r, &len) in SEEDED_RUNS.iter().enumerate() {
            for at in 0..len {
                let crashes = 1 + SEEDED_RUNS[..r].iter().filter(|&&n| n > at).count();
                for every in [1, 2] {
                    let what =
                        format!("threads={} every={every} run={r} crash={at}", engine.threads);
                    let machine = (at % MACHINES as u64) as u32;
                    let faults = (0..crashes).fold(FaultPlan::new(), |f, _| f.crash(machine, at));
                    let injector = Arc::new(FaultInjector::new(faults, every));
                    let out =
                        run(Some(Arc::clone(&injector))).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(injector.fired_count(), crashes, "{what}: the crashes must fire");
                    assert_eq!(out.stats.faults.crashes_recovered, crashes as u64, "{what}");
                    assert!(
                        out.relation.same_bag_approx(&base.relation, 0.0),
                        "{what}: bag changed"
                    );
                    assert_eq!(out.stats.totals, base.stats.totals, "{what}");
                }
            }
        }
    }
}

/// TPC-DS q27: `date_dim`, `customer_dim` and `customer_demographics` only
/// filter, and each is unique-keyed from the fact, so the top-down and
/// collection passes skip their branches. Every superstep of the pruned
/// traversal is a crash point.
#[test]
fn a_crash_at_every_superstep_of_a_pruned_statement_changes_nothing() {
    let tag = TagGraph::build(&tpcds::generate(0.01, 42));
    let q27 = tpcds::queries().into_iter().find(|q| q.id == "d_q27").unwrap();
    let plan = QueryPlan::prepare(q27.sql, tag.schemas()).unwrap();
    let base = every_crash_changes_nothing(&tag, &plan);
    assert!(!base.relation.is_empty());
    // The bottom-up reduction over the whole plan, the top-down reduction
    // and the collection over `store_sales`, `store` and `item` alone (four
    // steps each), and the finish.
    assert_eq!(
        base.stats.supersteps,
        plan.shape(&tag).unwrap().traversal_steps() as u64 + 2 * 4 + 1
    );
}

/// TPC-DS q50: its store sales fan in to few store and date vertices, and
/// nearly every collection value is one row of one or two ids, which
/// travels inside its message. So a checkpoint holds inline rows in flight
/// at every collection superstep, and local-aggregation partials at the
/// last. Every superstep is a crash point, and the traffic is the one every
/// value made as a table.
#[test]
fn a_crash_at_every_superstep_of_inline_collection_rows_changes_nothing() {
    let tag = TagGraph::build(&tpcds::generate(0.01, 42));
    let q50 = tpcds::queries().into_iter().find(|q| q.id == "d_q50").unwrap();
    let plan = QueryPlan::prepare(q50.sql, tag.schemas()).unwrap();
    let base = every_crash_changes_nothing(&tag, &plan);
    assert!(!base.relation.is_empty());
    let totals = base.stats.totals;
    assert_eq!((base.stats.supersteps, totals.messages, totals.message_bytes), (10, 752, 11_960));
}

/// TPC-H q4's EXISTS and TPC-DS q94's, and a NOT EXISTS, run as semijoin
/// branches in the outer query's one computation, so every superstep of
/// it, the branch's included, is a crash point. q4 and the NOT EXISTS keep
/// no walk but their one table: the bottom-up reduction enters and leaves
/// the branch (four steps; the NOT EXISTS holds its customers over it and
/// drops the ones a signal came back to in one more), then the finish and
/// the local aggregation.
#[test]
fn a_crash_at_every_superstep_of_a_semijoin_branch_changes_nothing() {
    let not_exists = "SELECT c.c_mktsegment, COUNT(*) AS n FROM customer c \
                      WHERE NOT EXISTS (SELECT o.o_orderkey FROM orders o \
                                        WHERE o.o_custkey = c.c_custkey \
                                        AND o.o_orderpriority = '1-URGENT') \
                      GROUP BY c.c_mktsegment";
    let find = |queries: Vec<vcsql_workload::BenchQuery>, id| {
        queries.into_iter().find(|q| q.id == id).unwrap().sql
    };
    for (db, sql, supersteps) in [
        (tpch::generate(0.01, 42), find(tpch::queries(), "q4"), Some(4 + 2)),
        (tpch::generate(0.01, 42), not_exists, Some(5 + 2)),
        (tpcds::generate(0.01, 42), find(tpcds::queries(), "d_q94"), None),
    ] {
        let tag = TagGraph::build(&db);
        let plan = QueryPlan::prepare(sql, tag.schemas()).unwrap();
        assert_eq!((plan.semijoin_count(), plan.inner_plan_count()), (1, 0), "{sql}");
        let base = every_crash_changes_nothing(&tag, &plan);
        assert!(!base.relation.is_empty(), "{sql}");
        if let Some(supersteps) = supersteps {
            assert_eq!(base.stats.supersteps, supersteps, "{sql}");
        }
    }
}

/// Run `plan` on 4 hash-placed machines, sequentially and on 4 threads at
/// threshold 0, fault-free and then with one crash at each superstep index,
/// checkpointing every superstep and every second: each crash fires, is
/// recovered, and changes neither the bag nor the traffic totals. Returns
/// the sequential fault-free run.
fn every_crash_changes_nothing(tag: &TagGraph, plan: &QueryPlan) -> vcsql_core::ExecOutput {
    let mut first = None;
    for engine in
        [EngineConfig::sequential(), EngineConfig::with_threads(4).with_parallel_threshold(0)]
    {
        let run = |injector: Option<Arc<FaultInjector>>| {
            let mut executor = TagJoinExecutor::new(tag, engine).with_partitioning_shared(
                Arc::new(tag.partition(&PartitionStrategy::Hash, MACHINES)),
            );
            if let Some(injector) = injector {
                executor = executor.with_fault_injector(injector);
            }
            executor.execute_plan(plan)
        };
        let base = run(None).unwrap();
        for every in [1, 2] {
            for crash in 0..base.stats.supersteps {
                let at = format!("threads={} every={every} crash={crash}", engine.threads);
                let faults = FaultPlan::new().crash((crash % MACHINES as u64) as u32, crash);
                let injector = Arc::new(FaultInjector::new(faults, every));
                let out = run(Some(Arc::clone(&injector))).unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(injector.fired_count(), 1, "{at}: the crash must fire");
                assert_eq!(out.stats.faults.crashes_recovered, 1, "{at}");
                assert!(out.relation.same_bag_approx(&base.relation, 0.0), "{at}: bag changed");
                assert_eq!(out.stats.totals, base.stats.totals, "{at}");
            }
        }
        first.get_or_insert(base);
    }
    first.expect("two engines ran")
}
