//! Reusable query plans: parse → analyze → GYO decomposition → TAG plans as
//! a value, separated from execution.
//!
//! The paper's scheme encodes the database once and runs *many* queries
//! against it, so planning must not be welded to execution the way a one-shot
//! `run_sql` is. A [`QueryPlan`] captures everything about a SQL statement
//! that is independent of the data: the analyzed query, the columns it reads,
//! its GYO join-tree decomposition, per connected component one [`TagPlan`]
//! for each root the component may run from with its reduction-only
//! [`Branch`]es, and each subquery lowered and planned in turn, with the
//! correlation it is seeded through, if any. Which root and which child
//! order a component runs in depends on the data: [`QueryPlan::shape`]
//! chooses them by cost once per TAG ([`crate::cost`]) and memoizes the
//! choice in the plan.
//!
//! An EXISTS or NOT EXISTS subquery becomes a semijoin branch of the outer
//! plan when its inner block is select-project-join over one connected,
//! acyclic join tree whose filters cannot fail, shares no relation with the
//! outer block or another branch, and is correlated by exactly one equality
//! between two materialized non-string columns of one type, the inner one
//! joining no other inner table. Its tables follow the outer block's in the
//! plan's numbering ([`QueryPlan::table`]), and its join tree hangs under
//! the outer correlation column's table, linked by the correlation's join
//! variable: in the TAG plan it sits at that variable's attribute node, one
//! branch per variable ([`TagPlan::with_semijoins`]). The branch only
//! filters, in the bottom-up reduction, so it runs in the outer query's own
//! computation and its inner block needs no unique key. Every other
//! subquery is lowered and planned on its own, and runs first.
//!
//! A table is *kept* when the statement reads one of its columns, when two
//! of its columns hold one join variable, or when its join with a neighbour
//! spans several variables — the last two are checked only where rows are
//! collected — and so is every table joining two kept ones, and every table
//! that does not join its parent on its declared key. The rest only filter,
//! in reduction-only branches: Yannakakis' output phase, and Bagan, Durand &
//! Grandjean's for free-connex queries, walks the kept tables alone, and so
//! do the top-down reduction and the collection of a branch whose keys are
//! unique in the data. A component roots inside the part spanning its kept
//! tables (at the group table under local aggregation, anywhere when it
//! reads nothing).
//! [`TagJoinExecutor::execute_plan`](crate::TagJoinExecutor::execute_plan)
//! runs a prepared plan as many times as needed; the `vcsql-session` crate
//! caches plans behind a bounded SQL-keyed cache.

use crate::cost::{self, Shape};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vcsql_query::analyze::{analyze, Analyzed, OutputItem, TableBinding};
use vcsql_query::gyo::{decompose, Decomposition, JoinTree, JoinVar};
use vcsql_query::tagplan::{Branch, TagPlan};
use vcsql_query::{
    lower_subquery, parse, seed, AggClass, Correlation, LoweredSubquery, SubqueryCheck,
    SubqueryKind, SubqueryPred,
};
use vcsql_relation::expr::{Expr, Predicate};
use vcsql_relation::schema::Schema;
use vcsql_relation::{DataType, FxHashSet, RelError};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// A fully planned query, reusable across executions (and cacheable: the
/// plan depends only on the SQL and the schemas, never on the data).
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub(crate) analyzed: Analyzed,
    /// The join trees of the outer block with each semijoin branch's
    /// attached, over the plan's table numbering.
    pub(crate) dec: Decomposition,
    /// The EXISTS and NOT EXISTS subqueries run as semijoin branches, in
    /// table order.
    semijoins: Vec<SemiJoin>,
    /// Per table, the columns the statement reads: output items, group
    /// keys, aggregate arguments, residuals, HAVING, broken-cycle
    /// equalities and subquery checks (none of a semijoin's).
    pub(crate) needed: Vec<FxHashSet<usize>>,
    /// Per join-tree component, one TAG plan per root it may run from
    /// (children in no particular order), with its reduction-only branches.
    pub(crate) components: Vec<Vec<Rooted>>,
    /// Component whose roots assemble the final result.
    pub(crate) primary: usize,
    /// Each other subquery of `analyzed`, lowered: the inner query's plan,
    /// run before this one, the check outer rows make against its result,
    /// and the correlation that seeds the inner run ([`seed`]).
    pub(crate) subqueries: Vec<(QueryPlan, SubqueryCheck, Option<Correlation>)>,
    /// The shape chosen for the last TAG this plan ran on.
    memo: Memo,
}

/// A component's plan under one root: the TAG plan and the branches of the
/// tables it keeps.
#[derive(Debug, Clone)]
pub(crate) struct Rooted {
    pub(crate) plan: TagPlan,
    pub(crate) branches: Vec<Branch>,
}

/// An EXISTS (`negated` false) or NOT EXISTS subquery run as a semijoin
/// branch: its inner block, whose tables the plan numbers from `first`.
#[derive(Debug, Clone)]
struct SemiJoin {
    sub: Analyzed,
    first: usize,
    negated: bool,
}

/// The [`Shape`] chosen for one TAG, by [`TagGraph::id`]. Clones carry it
/// over.
#[derive(Debug, Default)]
struct Memo(Mutex<Option<(u64, Arc<Shape>)>>);

impl Memo {
    fn lock(&self) -> MutexGuard<'_, Option<(u64, Arc<Shape>)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Memo {
    fn clone(&self) -> Memo {
        Memo(Mutex::new(self.lock().clone()))
    }
}

impl QueryPlan {
    /// Plan an analyzed query: GYO decomposition, the semijoin branches
    /// attached to it and each other lowered subquery's plan, the columns
    /// the statement reads, then per component the roots its kept tables
    /// allow and, per root, the TAG plan and its reduction-only branches.
    /// Fails on query shapes the vertex-centric executor cannot run (no
    /// tables, or a self-join within one block, whose edge labels would be
    /// ambiguous), in this block or a subquery's.
    pub fn new(analyzed: Analyzed) -> Result<QueryPlan> {
        let n = analyzed.tables.len();
        if n == 0 {
            return Err(RelError::Other("query has no tables".into()));
        }
        // The traversal routes messages purely by edge label (`R.A`), so two
        // aliases of one relation inside a single query block would
        // interfere; subqueries run as separate computations and may reuse
        // relations freely, unless they run as semijoin branches.
        for (i, t) in analyzed.tables.iter().enumerate() {
            if analyzed.tables[..i].iter().any(|u| u.relation == t.relation) {
                return Err(RelError::Other(format!(
                    "self-join on `{}` within one query block is not supported by the \
                     vertex-centric executor (edge labels would be ambiguous)",
                    t.relation
                )));
            }
        }

        let mut dec = decompose(n, &analyzed.joins);
        // Primary: the component holding the (first) group-by table, else the
        // one with the most tables, the first relation name breaking a tie.
        let first_name =
            |c: &JoinTree| c.tables.iter().map(|&t| &analyzed.tables[t].relation).min();
        let primary = if let Some(&(gt, _)) = analyzed.group_by.first() {
            dec.components.iter().position(|c| c.tables.contains(&gt)).expect("a table's component")
        } else {
            (0..dec.components.len())
                .min_by(|&x, &y| {
                    let (x, y) = (&dec.components[x], &dec.components[y]);
                    y.tables.len().cmp(&x.tables.len()).then(first_name(x).cmp(&first_name(y)))
                })
                .unwrap_or(0)
        };

        let (mut semijoins, mut subqueries) = (Vec::new(), Vec::new());
        let mut tables = n;
        for sq in &analyzed.subqueries {
            match branch(sq, &analyzed, &dec, &semijoins) {
                Some((negated, inner)) => {
                    attach(&mut dec, inner, sq.correlations[0], tables);
                    semijoins.push(SemiJoin { sub: (*sq.sub).clone(), first: tables, negated });
                    tables += sq.sub.tables.len();
                }
                None => {
                    let LoweredSubquery { sub, check } = lower_subquery(sq);
                    subqueries.push((QueryPlan::new(sub)?, check, seed(sq, &analyzed)));
                }
            }
        }
        let semi = |t: usize| semijoin_of(&semijoins, t).map(|s| s.negated);
        let needed = read_columns(&analyzed, &dec, &subqueries, tables)?;

        // Kept tables: the ones read, the ones whose own columns or whose
        // multi-variable join are checked only where rows are collected.
        let mut kept: Vec<bool> = needed.iter().map(|cols| !cols.is_empty()).collect();
        for v in &dec.vars {
            for (i, &(t, _)) in v.occurrences.iter().enumerate() {
                kept[t] |= v.occurrences[..i].iter().any(|&(u, _)| u == t);
            }
        }
        for c in &dec.components {
            for &t in c.extra_link_vars.keys() {
                kept[t] = true;
                kept[c.parent[&t].expect("a linked table has a parent")] = true;
            }
        }
        // The roots each component may run from. Local aggregation roots the
        // primary tree at the group table, so partials can be routed along
        // the root's own group-column edge; a component that reads nothing
        // may root anywhere; any other roots in the part spanning its kept
        // tables. Under a root, every table is kept too unless the column it
        // joins its parent on is its declared key, the shape in which a
        // branch can extend each row once; the data decides whether it does
        // (`cost::choose`), the key only shapes the plan. A semijoin's tables
        // are never kept, and never a root. Which way a parent edge points
        // depends on the root, so each root has its own kept tables and
        // branches.
        let la_root = (analyzed.agg_class == AggClass::Local).then(|| analyzed.group_by[0].0);
        let kept_under = |tree: &JoinTree| -> Vec<bool> {
            let keyed = |t: usize| {
                let col = tree.link_var.get(&t).and_then(|&v| dec.vars[v].column_in(t));
                col.is_some_and(|col| analyzed.tables[t].schema.primary_key == [col])
            };
            (0..tables)
                .map(|t| kept[t] || (t < n && tree.tables.contains(&t) && !keyed(t)))
                .collect()
        };
        let rooted_at = |c: &JoinTree, root: usize| {
            let mut tree = c.clone();
            tree.reroot(root);
            tree
        };
        let components = dec
            .components
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let roots = match la_root.filter(|t| ci == primary && c.tables.contains(t)) {
                    Some(gt) => vec![gt],
                    None => match spanning(c, &kept).first() {
                        Some(&inside) => spanning(c, &kept_under(&rooted_at(c, inside))),
                        None => c.tables.iter().copied().filter(|&t| t < n).collect(),
                    },
                };
                roots
                    .into_iter()
                    .map(|root| {
                        let tree = rooted_at(c, root);
                        let kept = kept_under(&tree);
                        let plan = TagPlan::from_join_tree(&tree, &dec).with_semijoins(semi);
                        let branches = plan.branches(|t| kept[t]);
                        Rooted { plan, branches }
                    })
                    .collect()
            })
            .collect();

        Ok(QueryPlan {
            analyzed,
            dec,
            semijoins,
            needed,
            components,
            primary,
            subqueries,
            memo: Memo::default(),
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
        self.components.len()
    }

    /// The subqueries that run as semijoin branches of this plan's walk.
    pub fn semijoin_count(&self) -> usize {
        self.semijoins.len()
    }

    /// The subqueries whose inner plans run first, each in a computation
    /// of its own.
    pub fn inner_plan_count(&self) -> usize {
        self.subqueries.len()
    }

    /// Number of tables the plan walks: the outer block's, then each
    /// semijoin branch's inner block's.
    pub(crate) fn table_count(&self) -> usize {
        self.needed.len()
    }

    /// The block table `t` of the plan's numbering belongs to, and its index
    /// there.
    fn scope(&self, t: usize) -> (&Analyzed, usize) {
        match semijoin_of(&self.semijoins, t) {
            Some(s) => (&s.sub, t - s.first),
            None => (&self.analyzed, t),
        }
    }

    /// Table `t` of the plan's numbering.
    pub(crate) fn table(&self, t: usize) -> &TableBinding {
        let (a, t) = self.scope(t);
        &a.tables[t]
    }

    /// Table `t`'s pushed-down filters, bound to its tuples.
    pub(crate) fn filters(&self, t: usize) -> Result<Vec<Predicate>> {
        let (a, t) = self.scope(t);
        a.tables[t].filters.iter().map(|e| a.bind_to_table(t, e).map(Predicate::new)).collect()
    }

    /// The shape this plan runs in on `tag` (see [`crate::cost`]): chosen
    /// by cost on the first call for a TAG, the same `Arc` after that until
    /// the plan runs on another TAG.
    pub fn shape(&self, tag: &TagGraph) -> Result<Arc<Shape>> {
        let mut memo = self.memo.lock();
        if let Some((id, shape)) = &*memo {
            if *id == tag.id() {
                return Ok(Arc::clone(shape));
            }
        }
        let shape = Arc::new(cost::choose(self, tag)?);
        *memo = Some((tag.id(), Arc::clone(&shape)));
        Ok(shape)
    }

    /// Run on `tag` in `shape` from now on, whatever it costs.
    #[cfg(test)]
    pub(crate) fn force(&self, tag: &TagGraph, shape: Shape) {
        *self.memo.lock() = Some((tag.id(), Arc::new(shape)));
    }
}

/// The semijoin branch whose inner block holds table `t`, if any.
fn semijoin_of(semijoins: &[SemiJoin], t: usize) -> Option<&SemiJoin> {
    semijoins.iter().find(|s| (s.first..s.first + s.sub.tables.len()).contains(&t))
}

/// The inner block of `sq` and whether it is negated, when `sq` runs as a
/// semijoin branch of `outer`, whose join trees (with the branches `taken`
/// so far attached) are `dec` (see the module docs): an EXISTS or NOT
/// EXISTS over a select-project-join block whose filters cannot fail, over
/// fresh relations, correlated by one equality of two materialized
/// non-string columns of one type, the inner one joining no other inner
/// table, and on an outer join variable no other branch hangs at. With it,
/// the inner block's decomposition: one acyclic tree, each variable in one
/// column per table, each join on one variable.
fn branch(
    sq: &SubqueryPred,
    outer: &Analyzed,
    dec: &Decomposition,
    taken: &[SemiJoin],
) -> Option<(bool, Decomposition)> {
    let SubqueryKind::Exists { negated } = sq.kind else { return None };
    let [c] = sq.correlations[..] else { return None };
    let sub = &*sq.sub;
    let spj =
        sub.agg_class == AggClass::NoAgg && sub.residual.is_empty() && sub.subqueries.is_empty();
    let filters = sub.tables.iter().flat_map(|t| &t.filters).all(Expr::infallible);
    let mut relations: Vec<&str> = outer.tables.iter().map(|t| t.relation.as_str()).collect();
    relations.extend(taken.iter().flat_map(|s| &s.sub.tables).map(|t| t.relation.as_str()));
    let fresh = sub.tables.iter().all(|t| {
        let fresh = !relations.contains(&t.relation.as_str());
        relations.push(&t.relation);
        fresh
    });
    let (oc, ic) = (
        &outer.tables[c.outer.0].schema.columns[c.outer.1],
        &sub.tables[c.inner.0].schema.columns[c.inner.1],
    );
    let keys = oc.ty == ic.ty && oc.ty != DataType::Str && oc.materialize && ic.materialize;
    let n = outer.tables.len();
    let free = dec.var_of.get(&c.outer).is_none_or(|&v| dec.vars[v].tables().all(|t| t < n));
    if !(spj && filters && fresh && keys && free) {
        return None;
    }
    let inner = decompose(sub.tables.len(), &sub.joins);
    let [tree] = &inner.components[..] else { return None };
    let single = inner.vars.iter().all(|v| v.tables().count() == v.occurrences.len());
    let fits = !inner.cyclic
        && tree.extra_link_vars.is_empty()
        && !inner.var_of.contains_key(&c.inner)
        && single;
    fits.then_some((negated, inner))
}

/// Attach the inner block's decomposition `inner` of a semijoin branch
/// correlated by `c`, its tables numbered from `first`: its variables
/// follow `dec`'s, the inner correlation column joins the outer one's
/// variable (a new one when the outer block joins nothing on it), and its
/// join tree, rooted at the inner correlation table, hangs under the outer
/// one.
fn attach(dec: &mut Decomposition, mut inner: Decomposition, c: Correlation, first: usize) {
    let base = dec.vars.len();
    let at = |t: usize| t + first;
    for v in inner.vars {
        let occurrences = v.occurrences.iter().map(|&(t, col)| (at(t), col)).collect();
        dec.vars.push(JoinVar { id: base + v.id, occurrences });
    }
    for (&(t, col), &v) in &inner.var_of {
        dec.var_of.insert((at(t), col), base + v);
    }
    let x = *dec.var_of.entry(c.outer).or_insert_with(|| {
        dec.vars.push(JoinVar { id: dec.vars.len(), occurrences: vec![c.outer] });
        dec.vars.len() - 1
    });
    let key = (at(c.inner.0), c.inner.1);
    dec.vars[x].occurrences.push(key);
    dec.var_of.insert(key, x);

    let mut tree = inner.components.pop().expect("one inner join tree");
    tree.reroot(c.inner.0);
    let outer = dec
        .components
        .iter_mut()
        .find(|t| t.tables.contains(&c.outer.0))
        .expect("the outer key's table has a component");
    for &t in &tree.tables {
        outer.tables.push(at(t));
        outer.parent.insert(at(t), tree.parent[&t].map(at));
        outer.children.insert(at(t), tree.children[&t].iter().map(|&u| at(u)).collect());
        if let Some(&v) = tree.link_var.get(&t) {
            outer.link_var.insert(at(t), base + v);
        }
    }
    let root = at(tree.root);
    outer.parent.insert(root, Some(c.outer.0));
    outer.children.get_mut(&c.outer.0).expect("a member").push(root);
    outer.link_var.insert(root, x);
}

/// The columns of each of the plan's `tables` `a` reads (see
/// [`QueryPlan::needed`]); a semijoin's tables read none.
fn read_columns(
    a: &Analyzed,
    dec: &Decomposition,
    subqueries: &[(QueryPlan, SubqueryCheck, Option<Correlation>)],
    tables: usize,
) -> Result<Vec<FxHashSet<usize>>> {
    let mut needed: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); tables];
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
        assert_eq!(plan.analyzed().tables.len(), 2);
        // Plans are plain values: clone and reuse freely.
        let copy = plan.clone();
        assert_eq!(copy.component_count(), plan.component_count());
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

    /// q4, q22 and d_q94 run their EXISTS / NOT EXISTS as semijoin
    /// branches; the scalar comparisons and q18's grouped IN still run
    /// inner plans first, in six statements (q22's uncorrelated AVG among
    /// them).
    #[test]
    fn the_workloads_run_exactly_their_exists_as_branches() {
        use vcsql_workload::{tpcds, tpch};
        let (mut branches, mut first) = (Vec::new(), Vec::new());
        for (schemas, queries) in
            [(tpch::schemas(), tpch::queries()), (tpcds::schemas(), tpcds::queries())]
        {
            for q in queries {
                let plan = QueryPlan::prepare(q.sql, &schemas).unwrap();
                if plan.semijoin_count() > 0 {
                    branches.push(q.id);
                }
                if plan.inner_plan_count() > 0 {
                    first.push(q.id);
                }
            }
        }
        assert_eq!(branches, ["q4", "q22", "d_q94"]);
        assert_eq!(first, ["q2", "q17", "q18", "q22", "d_q3", "d_q32"]);
    }

    /// The tables a statement leaves to the bottom-up reduction under some
    /// root when the data keeps them unique, by alias.
    fn output_free_tables(plan: &QueryPlan) -> Vec<&str> {
        let keys = plan.components.iter().flatten().flat_map(|r| &r.branches).flat_map(|b| &b.keys);
        let mut tables: Vec<&str> =
            keys.map(|k| plan.analyzed.tables[k.table].alias.as_str()).collect();
        tables.sort_unstable();
        tables.dedup();
        tables
    }

    /// Every TPC-DS statement collects a table no output reads; five TPC-H
    /// statements do, under every root their kept tables allow. `d_q96`
    /// reads nothing and may root anywhere: from the fact, `date_dim` and
    /// `store` are both unique-keyed, so both may be left.
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
            "d_q94: c d",
            "d_q96: d st",
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
                for key in
                    plan.components.iter().flatten().flat_map(|r| &r.branches).flat_map(|b| &b.keys)
                {
                    let rel = &plan.analyzed.tables[key.table].relation;
                    let label = tag.column_label(rel, key.col).unwrap();
                    assert!(tag.is_unique(label), "{}: {rel} column {} repeats", q.id, key.col);
                }
            }
        }
    }

    /// Each workload statement's chosen root and start table at SF 0.01,
    /// seed 42, as `id: root < start` by alias (a statement over one table
    /// roots and starts there). The start is the selective leaf: a filtered
    /// dimension or the smaller side, never an unfiltered fact the rest of
    /// the plan would have to reduce; the root is where the rows collect
    /// with the fewest carried.
    #[test]
    fn the_workloads_choose_their_roots_and_starts() {
        use vcsql_tag::TagGraph;
        use vcsql_workload::{tpcds, tpch};
        let mut chosen = Vec::new();
        for (db, queries) in [
            (tpch::generate(0.01, 42), tpch::queries()),
            (tpcds::generate(0.01, 42), tpcds::queries()),
        ] {
            let tag = TagGraph::build(&db);
            for q in queries {
                let plan = QueryPlan::prepare(q.sql, tag.schemas()).unwrap();
                let shape = plan.shape(&tag).unwrap();
                let alias = |t: usize| plan.analyzed.tables[t].alias.as_str();
                let (root, start) =
                    (shape.root_table(plan.primary), shape.start_table(plan.primary));
                chosen.push(format!("{}: {} < {}", q.id, alias(root), alias(start)));
            }
        }
        let want = [
            "q1: l < l",
            "q2: ps < p",
            "q3: o < c",
            "q4: o < o",
            "q5: n < r",
            "q6: l < l",
            "q7: l < n",
            "q10: c < n",
            "q12: l < o",
            "q14: p < l",
            "q16: ps < p",
            "q17: l < p",
            "q18: c < l",
            "q19: p < l",
            "q22: c < c",
            "d_q37: ss < i",
            "d_q82: ws < i",
            "d_q84: cd < ca",
            "d_q7: i < cd",
            "d_q12: i < d",
            "d_q15: ca < d",
            "d_q50: st < d",
            "d_q98: i < d",
            "d_q56: i < d",
            "d_q3: i < d",
            "d_q22: cs < i",
            "d_q45: ca < d",
            "d_q69: ss < ca",
            "d_q79: c < d",
            "d_q88: ss < d",
            "d_q27: i < cd",
            "d_q32: cs < i",
            "d_q94: ws < c",
            "d_q96: ss < d",
            "d_q93: ss < i",
        ];
        assert_eq!(chosen, want);
    }

    #[test]
    fn cartesian_components_are_separate_plans() {
        let plan = QueryPlan::prepare("SELECT r.a, s.c FROM r, s", &schemas()).unwrap();
        assert_eq!(plan.component_count(), 2);
    }
}
