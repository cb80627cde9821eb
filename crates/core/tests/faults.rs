//! Every superstep the TAG-join driver issues is a crash point the engine's
//! phase layer must absorb: one query that visits all four driver sites —
//! a secondary component's traversal and gather, the primary traversal, the
//! finish superstep and the local-aggregation merge — is killed at every
//! superstep index and must come out as if nothing happened.

use std::sync::Arc;
use vcsql_bsp::{EngineConfig, FaultInjector, FaultPlan, FaultTraffic, PartitionStrategy};
use vcsql_core::{QueryPlan, TagJoinExecutor};
use vcsql_query::AggClass;
use vcsql_tag::TagGraph;
use vcsql_workload::tpch;

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
const PINNED_EVERY_1: [u64; 5] = [225, 4_629_120, 76_896, 9_095, 0];
const PINNED_EVERY_3: [u64; 5] = [105, 2_183_160, 76_392, 9_095, 12];

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
            let mut executor = TagJoinExecutor::new(&tag, engine)
                .with_partitioning(tag.partition(&PartitionStrategy::Hash, MACHINES));
            if let Some(injector) = injector {
                executor = executor.with_fault_injector(injector);
            }
            executor.execute_plan(&plan)
        };
        let base = run(None).unwrap();
        assert!(!base.relation.is_empty());
        // Both traversals (three passes each), the gather, the finish and
        // the local-aggregation merge.
        assert_eq!(base.stats.supersteps, 3 * plan.traversal_steps() as u64 + 3);

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
