//! Reusable query plans: parse → analyze → GYO decomposition → TAG plan as a
//! value, separated from execution.
//!
//! The paper's scheme encodes the database once and runs *many* queries
//! against it, so planning must not be welded to execution the way a one-shot
//! `run_sql` is. A [`QueryPlan`] captures everything about a SQL statement
//! that is independent of the data: the analyzed query, its GYO join-tree
//! decomposition (one [`JoinTree`] per connected component, rerooted for
//! local aggregation), the per-component [`TagPlan`]s and their traversal
//! step lists, and each subquery lowered and planned in turn, with the
//! correlation it is seeded through, if any.
//! [`TagJoinExecutor::execute_plan`](crate::TagJoinExecutor::execute_plan)
//! runs a prepared plan as many times as needed; the `vcsql-session` crate
//! caches plans behind a bounded SQL-keyed cache.

use vcsql_query::analyze::{analyze, Analyzed};
use vcsql_query::gyo::{decompose, Decomposition, JoinTree};
use vcsql_query::tagplan::{Step, TagPlan};
use vcsql_query::{
    lower_subquery, parse, seed, AggClass, Correlation, LoweredSubquery, SubqueryCheck,
};
use vcsql_relation::schema::Schema;
use vcsql_relation::RelError;

type Result<T> = std::result::Result<T, RelError>;

/// A fully planned query, reusable across executions (and cacheable: the
/// plan depends only on the SQL and the schemas, never on the data).
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub(crate) analyzed: Analyzed,
    pub(crate) dec: Decomposition,
    /// Join-tree components after rerooting for local aggregation.
    pub(crate) components: Vec<JoinTree>,
    /// One TAG plan per component, aligned with `components`.
    pub(crate) plans: Vec<TagPlan>,
    /// The `GenSteps` traversal list of each plan.
    pub(crate) steps: Vec<Vec<Step>>,
    /// Component whose roots assemble the final result.
    pub(crate) primary: usize,
    /// Each subquery of `analyzed`, lowered: the inner query's plan, run
    /// before this one, the check outer rows make against its result, and
    /// the correlation that seeds the inner run ([`seed`]).
    pub(crate) subqueries: Vec<(QueryPlan, SubqueryCheck, Option<Correlation>)>,
}

impl QueryPlan {
    /// Plan an analyzed query: GYO decomposition, component rerooting for
    /// local aggregation, TAG plans and traversal steps, then each lowered
    /// subquery's plan. Fails on query shapes the vertex-centric executor
    /// cannot run (no tables, or a self-join within one block, whose edge
    /// labels would be ambiguous), in this block or a subquery's.
    pub fn new(analyzed: Analyzed) -> Result<QueryPlan> {
        let n = analyzed.tables.len();
        if n == 0 {
            return Err(RelError::Other("query has no tables".into()));
        }
        // The traversal routes messages purely by edge label (`R.A`), so two
        // aliases of one relation inside a single query block would
        // interfere; subqueries run as separate computations and may reuse
        // relations freely.
        for (i, t) in analyzed.tables.iter().enumerate() {
            if analyzed.tables[..i].iter().any(|u| u.relation == t.relation) {
                return Err(RelError::Other(format!(
                    "self-join on `{}` within one query block is not supported by the \
                     vertex-centric executor (edge labels would be ambiguous)",
                    t.relation
                )));
            }
        }

        let dec = decompose(n, &analyzed.joins);
        let mut components = dec.components.clone();
        let mut component_of = vec![0usize; n];
        for (ci, c) in components.iter().enumerate() {
            for &t in &c.tables {
                component_of[t] = ci;
            }
        }
        // Primary: the component holding the (first) group-by table, else the
        // one with the most tables.
        let primary = if let Some(&(gt, _)) = analyzed.group_by.first() {
            component_of[gt]
        } else {
            (0..components.len()).max_by_key(|&i| components[i].tables.len()).unwrap_or(0)
        };
        // For local aggregation, root the primary tree at the group table so
        // partials can be routed along the root's own group-column edge.
        if analyzed.agg_class == AggClass::Local {
            let gt = analyzed.group_by[0].0;
            if components[primary].tables.contains(&gt) {
                components[primary].reroot(gt);
            }
        }
        let plans: Vec<TagPlan> =
            components.iter().map(|c| TagPlan::from_join_tree(c, &dec)).collect();
        let steps: Vec<Vec<Step>> = plans.iter().map(TagPlan::gen_steps).collect();
        let subqueries = analyzed
            .subqueries
            .iter()
            .map(|sq| {
                let LoweredSubquery { sub, check } = lower_subquery(sq);
                Ok((QueryPlan::new(sub)?, check, seed(sq, &analyzed)))
            })
            .collect::<Result<_>>()?;

        Ok(QueryPlan { analyzed, dec, components, plans, steps, primary, subqueries })
    }

    /// Parse, analyze and plan a SQL string against `schemas` — the whole
    /// front half of the pipeline, without executing anything.
    pub fn prepare(sql: &str, schemas: &[Schema]) -> Result<QueryPlan> {
        QueryPlan::new(analyze(&parse(sql)?, schemas)?)
    }

    /// The analyzed query this plan was built from.
    pub fn analyzed(&self) -> &Analyzed {
        &self.analyzed
    }

    /// Number of join-graph components.
    pub fn component_count(&self) -> usize {
        self.plans.len()
    }

    /// Total traversal steps over all components (a proxy for superstep
    /// count: each step runs once per reduction direction plus collection).
    pub fn traversal_steps(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_relation::schema::Column;
    use vcsql_relation::DataType;

    fn schemas() -> Vec<Schema> {
        vec![
            Schema::new(
                "r",
                vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)],
            ),
            Schema::new(
                "s",
                vec![Column::new("b", DataType::Int), Column::new("c", DataType::Int)],
            ),
        ]
    }

    #[test]
    fn prepare_builds_a_reusable_plan() {
        let plan = QueryPlan::prepare("SELECT r.a FROM r, s WHERE r.b = s.b", &schemas()).unwrap();
        assert_eq!(plan.component_count(), 1);
        assert!(plan.traversal_steps() > 0);
        assert_eq!(plan.analyzed().tables.len(), 2);
        // Plans are plain values: clone and reuse freely.
        let copy = plan.clone();
        assert_eq!(copy.traversal_steps(), plan.traversal_steps());
    }

    #[test]
    fn planning_rejects_self_joins_and_empty_from() {
        let err = QueryPlan::prepare("SELECT r1.a FROM r r1, r r2 WHERE r1.b = r2.a", &schemas());
        assert!(err.is_err(), "self-join within one block must fail at plan time");
    }

    /// The workloads' correlated scalar subqueries are seeded; their EXISTS,
    /// IN and uncorrelated subqueries (q4, q18, q22, d_q94) are not.
    #[test]
    fn the_workloads_seed_exactly_their_correlated_scalar_subqueries() {
        use vcsql_workload::{tpcds, tpch};
        let mut seeded = Vec::new();
        for (schemas, queries) in
            [(tpch::schemas(), tpch::queries()), (tpcds::schemas(), tpcds::queries())]
        {
            for q in queries {
                let plan = QueryPlan::prepare(q.sql, &schemas).unwrap();
                if plan.subqueries.iter().any(|(_, _, seed)| seed.is_some()) {
                    seeded.push(q.id);
                }
            }
        }
        assert_eq!(seeded, ["q2", "q17", "d_q3", "d_q32"]);
    }

    #[test]
    fn cartesian_components_are_separate_plans() {
        let plan = QueryPlan::prepare("SELECT r.a, s.c FROM r, s", &schemas()).unwrap();
        assert_eq!(plan.component_count(), 2);
    }
}
