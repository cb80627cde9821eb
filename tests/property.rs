//! Property-based tests: on random databases and random join/filter/agg
//! queries, the vertex-centric executor must agree with the relational
//! baseline; TAG encoding must round-trip; incremental construction must
//! equal bulk construction; every partitioning strategy must satisfy the
//! placement invariants on random graphs and machine counts; and a
//! multi-machine session must never change results.

use proptest::prelude::*;
use std::sync::Arc;
use vcsql::baseline::{execute as baseline, ExecConfig};
use vcsql::bsp::{
    balance_cap, Computation, EngineConfig, Graph, GraphBuilder, LabelId, PartitionStrategy,
    Partitioning, VertexId, DEFAULT_BALANCE_SLACK,
};
use vcsql::core::{QueryPlan, TagJoinExecutor};
use vcsql::query::{analyze::analyze, parse};
use vcsql::relation::schema::{Column, Schema};
use vcsql::relation::{DataType, Database, Relation, Tuple, Value};
use vcsql::tag::{TagBuilder, TagGraph};
use vcsql::{FaultInjector, FaultPlan, Session, SessionConfig};

/// A random database of `n` binary int tables t0(a,b), t1(a,b), ... with
/// values in a small domain (to force join hits) and occasional NULLs.
fn arb_db(n_tables: usize) -> impl Strategy<Value = Database> {
    let table = prop::collection::vec((0i64..8, prop::option::of(0i64..8)), 0..25);
    prop::collection::vec(table, n_tables..=n_tables).prop_map(|tables| {
        let mut db = Database::new();
        for (i, rows) in tables.into_iter().enumerate() {
            let schema = Schema::new(
                format!("t{i}"),
                vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)],
            );
            let mut rel = Relation::empty(schema);
            for (a, b) in rows {
                let b = b.map(Value::Int).unwrap_or(Value::Null);
                rel.push(Tuple::new(vec![
                    Value::Int(a),
                    Value::Int(b.as_i64().unwrap_or(0)).clone(),
                ]))
                .ok();
                let last = rel.tuples.len() - 1;
                // Reintroduce NULLs directly (push validated the type).
                if b.is_null() {
                    rel.tuples[last] = Tuple::new(vec![Value::Int(a), Value::Null]);
                }
            }
            db.add(rel);
        }
        db
    })
}

/// Random chain query over the tables: t0.b = t1.a, t1.b = t2.a, ... with a
/// random filter and optional aggregation.
fn chain_sql(n: usize, filter_lit: i64, agg: bool) -> String {
    let from: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
    let mut preds: Vec<String> = (0..n - 1).map(|i| format!("t{i}.b = t{}.a", i + 1)).collect();
    preds.push(format!("t0.a <= {filter_lit}"));
    if agg {
        format!(
            "SELECT t0.a, COUNT(*) AS cnt, SUM(t{}.b) AS s FROM {} WHERE {} GROUP BY t0.a",
            n - 1,
            from.join(", "),
            preds.join(" AND ")
        )
    } else {
        format!("SELECT t0.a, t{}.b FROM {} WHERE {}", n - 1, from.join(", "), preds.join(" AND "))
    }
}

/// A four-table join tree with a branching node, so the traversal
/// backtracks: `t1` (or `t0`) joins one table on one column and two on the
/// other, by `shape`. Grouping by `t1.a` roots the plan at `t1`, whose
/// tuples the traversal then revisits.
fn branching_sql(shape: usize, filter_lit: i64, agg: bool) -> String {
    let joins = [
        "t0.b = t1.a AND t1.b = t2.a AND t1.b = t3.a",
        "t0.b = t1.a AND t1.b = t2.a AND t2.a = t3.b",
        "t0.a = t1.a AND t0.b = t2.b AND t0.b = t3.a",
    ][shape];
    let from = "t0, t1, t2, t3";
    if agg {
        format!(
            "SELECT t1.a, COUNT(*) AS cnt, SUM(t3.b) AS s FROM {from} \
             WHERE {joins} AND t0.a <= {filter_lit} GROUP BY t1.a"
        )
    } else {
        format!("SELECT t0.a, t1.b, t2.b, t3.b FROM {from} WHERE {joins} AND t0.a <= {filter_lit}")
    }
}

/// A random bipartite TAG-shaped graph: `tuples` tuple vertices over two
/// relation labels, `attrs` attribute vertices, and random `r.x`/`s.y`
/// edges between them. Returns the graph; anchors are the `@v`-labelled
/// vertices (ids `>= tuples`).
fn bipartite_graph(tuples: usize, attrs: usize, edges: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::new();
    let lr = b.vertex_label("r");
    let ls = b.vertex_label("s");
    let la = b.vertex_label("@v");
    let er = b.edge_label("r.x");
    let es = b.edge_label("s.y");
    for i in 0..tuples {
        b.add_vertex(if i % 2 == 0 { lr } else { ls });
    }
    for _ in 0..attrs {
        b.add_vertex(la);
    }
    for &(t, a) in edges {
        let t = t % tuples;
        let a = tuples + (a % attrs);
        b.add_undirected_edge(
            t as VertexId,
            a as VertexId,
            if t.is_multiple_of(2) { er } else { es },
        );
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partitioning invariants for every strategy on random graphs and
    /// machine counts: total-preserving loads, assignments within bounds,
    /// determinism across runs, and `crosses` consistent with `machine_of`.
    #[test]
    fn partitioning_invariants_hold_for_every_strategy(
        tuples in 1usize..40,
        attrs in 1usize..20,
        edges in prop::collection::vec((0usize..64, 0usize..64), 0..120),
        machines in 1usize..=8,
    ) {
        let g = bipartite_graph(tuples, attrs, &edges);
        let is_anchor = |v: VertexId| (v as usize) >= tuples;
        let n = g.vertex_count();
        for strategy in PartitionStrategy::ALL {
            let p = strategy.partition(&g, machines, &is_anchor);

            // Total-preserving load: every vertex on exactly one machine.
            let load = p.load();
            prop_assert_eq!(load.len(), machines, "{}", strategy.name());
            prop_assert_eq!(load.iter().sum::<usize>(), n, "{}", strategy.name());

            // Machines within u16 bounds, every assignment in range.
            prop_assert!(p.machines() == machines && machines <= u16::MAX as usize);
            for v in g.vertices() {
                prop_assert!((p.machine_of(v) as usize) < p.machines(), "{}", strategy.name());
            }

            // Deterministic: a second build yields the identical assignment.
            let q = strategy.partition(&g, machines, &is_anchor);
            for v in g.vertices() {
                prop_assert_eq!(p.machine_of(v), q.machine_of(v), "{}", strategy.name());
            }

            // crosses(a, b) consistent with machine_of on all pairs.
            for a in g.vertices() {
                for bb in g.vertices() {
                    prop_assert_eq!(
                        p.crosses(a, bb),
                        p.machine_of(a) != p.machine_of(bb),
                        "{}", strategy.name()
                    );
                }
            }

            // Diagnostics agree with the invariants above.
            let d = p.diagnostics(&g);
            prop_assert_eq!(d.vertices, n);
            prop_assert_eq!(d.total_edges, g.edge_count());
            prop_assert!(d.cut_edges <= d.total_edges);
            prop_assert!(d.min_load <= d.max_load && d.max_load <= n);

            // Locality-aware strategies respect the balance cap; one machine
            // trivially holds everything.
            if strategy != PartitionStrategy::Hash {
                let cap = balance_cap(n, machines, DEFAULT_BALANCE_SLACK);
                prop_assert!(
                    d.max_load <= cap,
                    "{}: load {} over cap {}", strategy.name(), d.max_load, cap
                );
            }
        }
    }

    /// The engine's per-label traffic breakdown sums to the step totals on
    /// random programs: every vertex sends along its (randomly labelled)
    /// edges via `send_along`, a random subset also fires label-less sends,
    /// and a random partitioning splits the traffic into local and network
    /// shares — each counter must decompose exactly over the labels plus
    /// the `LabelId::NONE` bucket.
    #[test]
    fn per_label_stats_sum_to_totals_on_random_programs(
        tuples in 1usize..30,
        attrs in 1usize..15,
        edges in prop::collection::vec((0usize..64, 0usize..64), 0..90),
        machines in 1usize..=5,
        unlabeled_mod in 1u32..5,
        threads in 1usize..=4,
        supersteps in 1usize..=3,
    ) {
        let g = bipartite_graph(tuples, attrs, &edges);
        let mut comp: Computation<'_, (), u64> =
            Computation::new(&g, EngineConfig::with_threads(threads), |_| ());
        let assignment: Vec<u16> =
            g.vertices().map(|v| (v as usize % machines) as u16).collect();
        comp.set_partitioning_shared(Arc::new(Partitioning::from_assignment(assignment, machines)));
        comp.activate(g.vertices());
        for _ in 0..supersteps {
            comp.superstep_simple(|ctx| {
                let sends: Vec<(LabelId, VertexId)> =
                    ctx.edges().iter().map(|e| (e.label, e.target)).collect();
                for (label, t) in sends {
                    ctx.send_along(label, t, 7);
                }
                if ctx.id() % unlabeled_mod == 0 {
                    ctx.send(ctx.id(), 9); // label-less self-send
                }
            });
        }
        let stats = comp.stats();
        let mut sums = (0u64, 0u64, 0u64, 0u64);
        for t in stats.per_label.values() {
            sums.0 += t.messages;
            sums.1 += t.bytes;
            sums.2 += t.network_messages;
            sums.3 += t.network_bytes;
        }
        prop_assert_eq!(sums.0, stats.totals.messages);
        prop_assert_eq!(sums.1, stats.totals.message_bytes);
        prop_assert_eq!(sums.2, stats.totals.network_messages);
        prop_assert_eq!(sums.3, stats.totals.network_bytes);
        // The NONE bucket holds exactly the label-less self-sends, which
        // never cross machines.
        let none = stats.label_traffic(LabelId::NONE);
        prop_assert_eq!(none.network_messages, 0);
    }

    /// A session on a random machine count must stay bag-identical to the
    /// relational baseline, with single-machine message counts, on every
    /// execution — placement is pure accounting.
    #[test]
    fn adaptive_sessions_preserve_results_on_random_chains(
        db in arb_db(3),
        filter in 0i64..8,
        agg in any::<bool>(),
        n in 2usize..=3,
        machines in 2usize..=6,
    ) {
        let sql = chain_sql(n, filter, agg);
        let tag = Arc::new(TagGraph::build(&db));
        let analyzed = analyze(&parse(&sql).unwrap(), tag.schemas()).unwrap();
        let expected = baseline(&analyzed, &db, ExecConfig::default()).unwrap();
        let single = TagJoinExecutor::new(&tag, EngineConfig::sequential())
            .execute(&analyzed)
            .unwrap();
        let mut session = Session::open(
            &tag,
            SessionConfig {
                machines,
                engine: EngineConfig::sequential(),
                ..SessionConfig::default()
            },
        )
        .unwrap();
        for round in 0..3 {
            let (out, _) = session.run_sql(&sql).unwrap();
            prop_assert!(
                out.relation.same_bag_approx(&expected, 1e-9),
                "round {round}: placement changed the result of `{sql}`"
            );
            prop_assert_eq!(
                out.stats.total_messages(),
                single.stats.total_messages(),
                "round {}: placement changed the message count", round
            );
        }
    }

    /// Deterministic fault injection is invisible in the results: under
    /// random seeded `FaultPlan`s (crashes + transient drops over random
    /// machine counts and checkpoint cadences), the executor's result bag
    /// and its message/byte/superstep accounting must be bit-identical to
    /// the fault-free run — recovery costs appear only in the itemized
    /// `faults` counters, which stay zero when no fault fires.
    #[test]
    fn fault_injection_preserves_results_and_accounting(
        db in arb_db(3),
        filter in 0i64..8,
        agg in any::<bool>(),
        n in 2usize..=3,
        machines in 2usize..=4,
        seed in any::<u64>(),
        checkpoint_every in 1u64..4,
        crashes in 0usize..3,
        drops in 0usize..2,
    ) {
        let sql = chain_sql(n, filter, agg);
        let tag = TagGraph::build(&db);
        let analyzed = analyze(&parse(&sql).unwrap(), tag.schemas()).unwrap();
        let strategy = PartitionStrategy::Hash;
        let free = TagJoinExecutor::new(&tag, EngineConfig::sequential())
            .with_partitioning_shared(Arc::new(tag.partition(&strategy, machines)))
            .execute(&analyzed)
            .unwrap();
        prop_assert_eq!(
            free.stats.faults,
            vcsql::bsp::FaultTraffic::default(),
            "fault-free path must not touch the fault counters"
        );

        let plan = FaultPlan::seeded(seed, machines as u32, 8, crashes, drops);
        let retries_needed = plan.len();
        let inj = Arc::new(FaultInjector::new(plan, checkpoint_every));
        let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential())
            .with_partitioning_shared(Arc::new(tag.partition(&strategy, machines)))
            .with_fault_injector(Arc::clone(&inj));
        // Bounded retry: every fault fires at most once per injector, so at
        // most one rerun per planned fault is ever needed.
        let mut out = None;
        for _ in 0..=retries_needed {
            match exec.execute(&analyzed) {
                Ok(o) => { out = Some(o); break; }
                Err(_) => continue,
            }
        }
        let out = out.expect("execution must succeed once all faults are spent");
        prop_assert!(
            out.relation.same_bag_approx(&free.relation, 1e-9),
            "faults changed the result of `{sql}`"
        );
        prop_assert_eq!(out.stats.total_messages(), free.stats.total_messages());
        prop_assert_eq!(out.stats.total_bytes(), free.stats.total_bytes());
        prop_assert_eq!(out.stats.supersteps, free.stats.supersteps);
        prop_assert_eq!(&out.stats.totals, &free.stats.totals);
        prop_assert_eq!(&out.stats.steps, &free.stats.steps);
        if !inj.any_fired() {
            prop_assert_eq!(out.stats.faults.recovery_bytes, 0);
            prop_assert_eq!(out.stats.faults.crashes_recovered, 0);
            prop_assert_eq!(out.stats.faults.recovered_rounds, 0);
        }
        if out.stats.faults.crashes_recovered == 0 {
            prop_assert_eq!(out.stats.faults.recovery_bytes, 0);
        }
    }

    #[test]
    fn tag_join_matches_baseline_on_random_chains(
        db in arb_db(3),
        filter in 0i64..8,
        agg in any::<bool>(),
        n in 2usize..=3,
    ) {
        let sql = chain_sql(n, filter, agg);
        let tag = TagGraph::build(&db);
        let analyzed = analyze(&parse(&sql).unwrap(), tag.schemas()).unwrap();
        let expected = baseline(&analyzed, &db, ExecConfig::default()).unwrap();
        let exec = TagJoinExecutor::new(&tag, EngineConfig::with_threads(2));
        let got = exec.execute(&analyzed).unwrap();
        prop_assert!(
            got.relation.same_bag_approx(&expected, 1e-9),
            "query `{sql}`\n tag rows {} vs baseline rows {}",
            got.relation.len(),
            expected.len()
        );
    }

    /// TAG-join equals row-hash on join trees whose traversal backtracks,
    /// over `arb_db`'s 0..8 domain, where duplicate projected tuples are
    /// common: a revisited tuple keeps its own rows, never a twin's.
    #[test]
    fn tag_join_matches_baseline_on_branching_trees(
        db in arb_db(4),
        shape in 0usize..3,
        filter in 0i64..8,
        agg in any::<bool>(),
    ) {
        let sql = branching_sql(shape, filter, agg);
        let tag = TagGraph::build(&db);
        let plan = QueryPlan::prepare(&sql, tag.schemas()).unwrap();
        // Two join variables over 2 + 3 tables make five plan edges; a
        // longer walk revisits some.
        prop_assert!(
            plan.shape(&tag).unwrap().traversal_steps() > 5,
            "`{sql}` does not backtrack"
        );
        let expected = baseline(plan.analyzed(), &db, ExecConfig::default()).unwrap();
        let exec = TagJoinExecutor::new(&tag, EngineConfig::with_threads(2));
        let got = exec.execute_plan(&plan).unwrap();
        prop_assert!(
            got.relation.same_bag_approx(&expected, 1e-9),
            "query `{sql}`\n tag rows {} vs baseline rows {}",
            got.relation.len(),
            expected.len()
        );
    }

    #[test]
    fn tag_roundtrip_on_random_databases(db in arb_db(2)) {
        let tag = TagGraph::build(&db);
        let decoded = tag.decode();
        for rel in db.relations() {
            prop_assert!(decoded.get(rel.name()).unwrap().same_bag(rel));
        }
    }

    #[test]
    fn incremental_build_equals_bulk(db in arb_db(2), delete_first in any::<bool>()) {
        let bulk = TagGraph::build(&db);
        let mut b = TagBuilder::new();
        for rel in db.relations() {
            b.add_schema(rel.schema.clone());
        }
        let mut first_vertex = None;
        for rel in db.relations() {
            for t in &rel.tuples {
                let v = b.insert_tuple(rel.name(), t.clone()).unwrap();
                first_vertex.get_or_insert(v);
            }
        }
        if delete_first {
            if let Some(v) = first_vertex {
                b.delete_tuple(v).unwrap();
            }
        }
        let inc = b.build();
        if !delete_first {
            prop_assert_eq!(bulk.stats(), inc.stats());
        }
        // Decoded contents always match what was kept.
        let decoded = inc.decode();
        let mut expected_total = db.total_tuples();
        if delete_first && expected_total > 0 {
            expected_total -= 1;
        }
        prop_assert_eq!(decoded.total_tuples(), expected_total);
    }

    #[test]
    fn two_way_join_matches_nested_loop(
        db in arb_db(2),
    ) {
        let tag = TagGraph::build(&db);
        let out = TagJoinExecutor::new(&tag, EngineConfig::sequential())
            .run_sql("SELECT t0.a, t1.b FROM t0, t1 WHERE t0.b = t1.a")
            .unwrap();
        // Nested-loop oracle, compared as a bag.
        let (r, s) = (db.get("t0").unwrap(), db.get("t1").unwrap());
        let mut expected = Vec::new();
        for x in &r.tuples {
            for y in &s.tuples {
                if !x.get(1).is_null() && x.get(1) == y.get(0) {
                    expected.push(vec![x.get(0).clone(), y.get(1).clone()]);
                }
            }
        }
        expected.sort();
        let mut got: Vec<Vec<Value>> = out.relation.tuples.iter().map(|t| t.0.to_vec()).collect();
        got.sort();
        prop_assert_eq!(got, expected);
    }
}
