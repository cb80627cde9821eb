//! Reusable query plans: parse → analyze → GYO decomposition → TAG plan as a
//! value, separated from execution.
//!
//! The paper's scheme encodes the database once and runs *many* queries
//! against it, so planning must not be welded to execution the way a one-shot
//! `run_sql` is. A [`QueryPlan`] captures everything about a SQL statement
//! that is independent of the data: the analyzed query, the columns it reads,
//! its GYO join-tree decomposition (one [`JoinTree`] per connected component,
//! rerooted onto the tables it keeps and for local aggregation), the
//! per-component [`TagPlan`]s, their traversal step lists and reduction-only
//! [`Branch`]es, and each subquery lowered and planned in turn, with the
//! correlation it is seeded through, if any.
//!
//! A table is *kept* when the statement reads one of its columns, when two
//! of its columns hold one join variable, or when its join with a neighbour
//! spans several variables — the last two are checked only where rows are
//! collected — and so is every table joining two kept ones, and every table
//! that does not join its parent on its declared key. The rest only filter,
//! in reduction-only branches: Yannakakis' output phase, and Bagan, Durand &
//! Grandjean's for free-connex queries, walks the kept tables alone, and so
//! do the top-down reduction and the collection of a branch whose keys are
//! unique in the data.
//! [`TagJoinExecutor::execute_plan`](crate::TagJoinExecutor::execute_plan)
//! runs a prepared plan as many times as needed; the `vcsql-session` crate
//! caches plans behind a bounded SQL-keyed cache.

use vcsql_query::analyze::{analyze, Analyzed, OutputItem};
use vcsql_query::gyo::{decompose, Decomposition, JoinTree};
use vcsql_query::tagplan::{Branch, Step, TagPlan};
use vcsql_query::{
    lower_subquery, parse, seed, AggClass, Correlation, LoweredSubquery, SubqueryCheck,
};
use vcsql_relation::expr::Expr;
use vcsql_relation::schema::Schema;
use vcsql_relation::{FxHashSet, RelError};

type Result<T> = std::result::Result<T, RelError>;

/// A fully planned query, reusable across executions (and cacheable: the
/// plan depends only on the SQL and the schemas, never on the data).
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub(crate) analyzed: Analyzed,
    pub(crate) dec: Decomposition,
    /// Per table, the columns the statement reads: output items, group
    /// keys, aggregate arguments, residuals, HAVING, broken-cycle
    /// equalities and subquery checks.
    pub(crate) needed: Vec<FxHashSet<usize>>,
    /// Join-tree components after rerooting onto their kept tables and for
    /// local aggregation.
    pub(crate) components: Vec<JoinTree>,
    /// One TAG plan per component, aligned with `components`.
    pub(crate) plans: Vec<TagPlan>,
    /// The `GenSteps` traversal list of each plan.
    pub(crate) steps: Vec<Vec<Step>>,
    /// The reduction-only branches of each plan's list.
    pub(crate) branches: Vec<Vec<Branch>>,
    /// Component whose roots assemble the final result.
    pub(crate) primary: usize,
    /// Each subquery of `analyzed`, lowered: the inner query's plan, run
    /// before this one, the check outer rows make against its result, and
    /// the correlation that seeds the inner run ([`seed`]).
    pub(crate) subqueries: Vec<(QueryPlan, SubqueryCheck, Option<Correlation>)>,
}

impl QueryPlan {
    /// Plan an analyzed query: each lowered subquery's plan, the columns
    /// the statement reads, GYO decomposition, component rerooting onto the
    /// kept tables and for local aggregation, then TAG plans, traversal
    /// steps and reduction-only branches. Fails on query shapes the
    /// vertex-centric executor cannot run (no tables, or a self-join within
    /// one block, whose edge labels would be ambiguous), in this block or a
    /// subquery's.
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

        let subqueries: Vec<_> = analyzed
            .subqueries
            .iter()
            .map(|sq| {
                let LoweredSubquery { sub, check } = lower_subquery(sq);
                Ok((QueryPlan::new(sub)?, check, seed(sq, &analyzed)))
            })
            .collect::<Result<_>>()?;
        let dec = decompose(n, &analyzed.joins);
        let needed = read_columns(&analyzed, &dec, &subqueries)?;

        // Kept tables: the ones read, the ones whose own columns or whose
        // multi-variable join are checked only where rows are collected.
        let mut kept: Vec<bool> = needed.iter().map(|cols| !cols.is_empty()).collect();
        for v in &dec.vars {
            for (i, &(t, _)) in v.occurrences.iter().enumerate() {
                kept[t] |= v.occurrences[..i].iter().any(|&(u, _)| u == t);
            }
        }
        let mut components = dec.components.clone();
        for c in &mut components {
            for &t in c.extra_link_vars.keys() {
                kept[t] = true;
                kept[c.parent[&t].expect("a linked table has a parent")] = true;
            }
        }
        // A root outside the part that connects the kept tables moves to
        // where GYO roots that part alone; a component that reads nothing
        // keeps its root. Every other table is kept too unless the column
        // it joins its parent on is its declared key, the shape in which a
        // branch can extend each row once. The data decides whether it
        // does (`QueryCtx::build`); the key only shapes the plan.
        for c in &mut components {
            let reads = c.tables.iter().any(|&t| kept[t]);
            loop {
                let part = reads.then(|| spanning(c, &kept));
                let rerooted = part.filter(|part| !part.contains(&c.root)).map(|part| {
                    let mut tree = c.clone();
                    tree.reroot(dec.root_of(&part));
                    tree
                });
                let tree = rerooted.as_ref().unwrap_or(c);
                let keyed = |t: usize| {
                    let col = tree.link_var.get(&t).and_then(|&v| dec.vars[v].column_in(t));
                    col.is_some_and(|col| analyzed.tables[t].schema.primary_key == [col])
                };
                let unkeyed: Vec<usize> =
                    tree.tables.iter().copied().filter(|&t| !kept[t] && !keyed(t)).collect();
                if unkeyed.is_empty() {
                    if let Some(tree) = rerooted {
                        *c = tree;
                    }
                    break;
                }
                for t in unkeyed {
                    kept[t] = true;
                }
            }
        }
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
        let steps = plans.iter().map(TagPlan::gen_steps).collect();
        let branches = plans.iter().map(|p| p.branches(|t| kept[t])).collect();

        Ok(QueryPlan {
            analyzed,
            dec,
            needed,
            components,
            plans,
            steps,
            branches,
            primary,
            subqueries,
        })
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

    /// Total traversal steps over all components: the supersteps of the
    /// bottom-up reduction. The top-down reduction and the collection each
    /// run once more per step, less the reduction-only branches a binding
    /// skips.
    pub fn traversal_steps(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }
}

/// The columns of each table `a` reads (see [`QueryPlan::needed`]).
fn read_columns(
    a: &Analyzed,
    dec: &Decomposition,
    subqueries: &[(QueryPlan, SubqueryCheck, Option<Correlation>)],
) -> Result<Vec<FxHashSet<usize>>> {
    let mut needed: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); a.tables.len()];
    let note_expr = |needed: &mut Vec<FxHashSet<usize>>, e: &Expr| -> Result<()> {
        let mut cols = Vec::new();
        e.columns(&mut cols);
        for c in cols {
            let (t, col) = a.resolve(&c)?;
            needed[t].insert(col);
        }
        Ok(())
    };
    for item in &a.items {
        match item {
            OutputItem::Col { table, col, .. } => {
                needed[*table].insert(*col);
            }
            OutputItem::Expr { expr, .. } => note_expr(&mut needed, expr)?,
            OutputItem::Agg { arg: Some(e), .. } => note_expr(&mut needed, e)?,
            OutputItem::Agg { arg: None, .. } => {}
        }
    }
    for &(t, c) in &a.group_by {
        needed[t].insert(c);
    }
    for e in &a.residual {
        note_expr(&mut needed, e)?;
    }
    for h in &a.having {
        if let Some(e) = &h.arg {
            note_expr(&mut needed, e)?;
        }
        note_expr(&mut needed, &h.rhs)?;
    }
    for j in &dec.broken {
        needed[j.left.0].insert(j.left.1);
        needed[j.right.0].insert(j.right.1);
    }
    for (_, check, _) in subqueries {
        for (t, c) in check.columns(a)? {
            needed[t].insert(c);
        }
    }
    Ok(needed)
}

/// The tables of `tree` on a path between two `kept` ones, the kept ones
/// included, in ascending order: the smallest subtree holding them all.
fn spanning(tree: &JoinTree, kept: &[bool]) -> Vec<usize> {
    let order = tree.preorder();
    let mut below = vec![0usize; kept.len()];
    for &t in order.iter().rev() {
        below[t] =
            usize::from(kept[t]) + tree.children[&t].iter().map(|&c| below[c]).sum::<usize>();
    }
    let total = below[tree.root];
    let mut part: Vec<usize> = order
        .into_iter()
        .filter(|&t| {
            let sides = tree.children[&t].iter().filter(|&&c| below[c] > 0).count()
                + usize::from(below[t] < total);
            kept[t] || sides >= 2
        })
        .collect();
    part.sort_unstable();
    part
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

    /// The tables a statement leaves to the bottom-up reduction when the
    /// data keeps them unique, by alias.
    fn output_free_tables(plan: &QueryPlan) -> Vec<&str> {
        let keys = plan.branches.iter().flatten().flat_map(|b| &b.keys);
        let mut tables: Vec<&str> =
            keys.map(|k| plan.analyzed.tables[k.table].alias.as_str()).collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }

    /// Every TPC-DS statement collects a table no output reads; five TPC-H
    /// statements do. `d_q96` reads nothing and keeps its `date_dim` root:
    /// only `store`, unique-keyed from the fact, is left.
    #[test]
    fn the_workloads_prune_exactly_their_output_free_tables() {
        use vcsql_workload::{tpcds, tpch};
        let mut pruned = Vec::new();
        for (schemas, queries) in
            [(tpch::schemas(), tpch::queries()), (tpcds::schemas(), tpcds::queries())]
        {
            for q in queries {
                let plan = QueryPlan::prepare(q.sql, &schemas).unwrap();
                let tables = output_free_tables(&plan);
                if !tables.is_empty() {
                    pruned.push(format!("{}: {}", q.id, tables.join(" ")));
                }
            }
        }
        let want = [
            "q2: n r",
            "q3: c",
            "q5: r",
            "q7: o",
            "q10: n",
            "d_q37: d",
            "d_q82: d",
            "d_q84: ca",
            "d_q7: c cd d",
            "d_q12: d",
            "d_q15: d",
            "d_q50: d",
            "d_q98: d",
            "d_q56: c ca d",
            "d_q3: d",
            "d_q22: d",
            "d_q45: d",
            "d_q69: ca d",
            "d_q79: d",
            "d_q88: d",
            "d_q27: c cd d",
            "d_q32: d",
            "d_q94: d",
            "d_q96: st",
            "d_q93: i",
        ];
        assert_eq!(pruned, want);
    }

    /// Every branch key of every workload statement is unique in the
    /// generated data at SF 0.01, so every branch leaves the later passes:
    /// a generator change that breaks a key fails here, not as a slower
    /// suite.
    #[test]
    fn the_workloads_branch_keys_are_unique_in_their_data() {
        use vcsql_tag::TagGraph;
        use vcsql_workload::{tpcds, tpch};
        for (db, queries) in [
            (tpch::generate(0.01, 42), tpch::queries()),
            (tpcds::generate(0.01, 42), tpcds::queries()),
        ] {
            let tag = TagGraph::build(&db);
            for q in queries {
                let plan = QueryPlan::prepare(q.sql, tag.schemas()).unwrap();
                for key in plan.branches.iter().flatten().flat_map(|b| &b.keys) {
                    let rel = &plan.analyzed.tables[key.table].relation;
                    let label = tag.column_label(rel, key.col).unwrap();
                    assert!(tag.is_unique(label), "{}: {rel} column {} repeats", q.id, key.col);
                }
            }
        }
    }

    #[test]
    fn cartesian_components_are_separate_plans() {
        let plan = QueryPlan::prepare("SELECT r.a, s.c FROM r, s", &schemas()).unwrap();
        assert_eq!(plan.component_count(), 2);
    }
}
