//! Every superstep the TAG-join driver issues is a crash point the engine's
//! phase layer must absorb: one query that visits all four driver sites —
//! a secondary component's traversal and gather, the primary traversal, the
//! finish superstep and the local-aggregation merge — is killed at every
//! superstep index and must come out as if nothing happened.

use std::sync::Arc;
use vcsql_bsp::{EngineConfig, FaultInjector, FaultPlan, PartitionStrategy};
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

#[test]
fn a_crash_at_every_superstep_of_a_cartesian_local_aggregate_changes_nothing() {
    let tag = TagGraph::build(&tpch::generate(0.01, 42));
    let plan = QueryPlan::prepare(SQL, tag.schemas()).unwrap();
    assert_eq!(plan.component_count(), 2, "the query must have a secondary component");
    assert_eq!(plan.analyzed().agg_class, AggClass::Local);

    for engine in
        [EngineConfig::sequential(), EngineConfig::with_threads(4).with_parallel_threshold(0)]
    {
        let run = |injector: Option<Arc<FaultInjector>>| {
            let mut executor = TagJoinExecutor::new(&tag, engine)
                .with_partition_strategy(&PartitionStrategy::Hash, MACHINES);
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
            }
        }
    }
}
