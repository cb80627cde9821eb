//! A binary-join-at-a-time executor over analyzed queries.
//!
//! This is the stand-in for the paper's reference RDBMSs: filters are pushed
//! to base tables, joins run one at a time in a greedy smallest-first order
//! (hash or sort-merge per [`ExecConfig`]), subqueries are evaluated first
//! and their checks ([`vcsql_query::subquery`]) applied at the scan of the
//! one table they read, or else to the joined rows, and the joined rows fold
//! into the statement's output ([`vcsql_query::output`]). It is also the
//! correctness oracle for the vertex-centric executor: both must produce
//! identical bags.

use crate::row::{self, ColId, Inter};
use std::sync::Arc;
use vcsql_query::analyze::Analyzed;
use vcsql_query::{lower_subquery, Gather, LoweredSubquery, SubqueryCheck, SubqueryResult};
use vcsql_relation::expr::{BoundExpr, ColRef, Expr};
use vcsql_relation::{Database, RelError, Relation};

type Result<T> = std::result::Result<T, RelError>;

/// Which join algorithm the executor uses (the paper's RDBMSs pick among
/// hash, sort-merge and nested-loop; we expose the choice for benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgo {
    #[default]
    Hash,
    SortMerge,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecConfig {
    pub join: JoinAlgo,
}

/// Execute an analyzed query against a database.
pub fn execute(a: &Analyzed, db: &Database, cfg: ExecConfig) -> Result<Relation> {
    // ---- subqueries first: each inner result, and the one table it reads ----
    let mut subqueries = Vec::with_capacity(a.subqueries.len());
    for sq in &a.subqueries {
        let LoweredSubquery { sub, check } = lower_subquery(sq);
        let result = Arc::new(check.result(&execute(&sub, db, cfg)?));
        let table = check.outer_table(a)?;
        subqueries.push((check, result, table));
    }

    // ---- base tables with pushed-down filters -------------------------------
    let mut inters: Vec<Inter> = Vec::with_capacity(a.tables.len());
    for (t, binding) in a.tables.iter().enumerate() {
        let rel = db.get(&binding.relation)?;
        let mut inter = Inter::from_relation(t, binding.schema.arity(), &rel.tuples);
        for f in &binding.filters {
            let bound = a.bind_to_table(t, f)?;
            inter = inter.filter(|row| bound.passes(row))?;
        }
        // Subquery checks that read only this table.
        for (check, result, _) in subqueries.iter().filter(|(_, _, table)| *table == Some(t)) {
            inter = apply_subquery(check, result, a, inter)?;
        }
        inters.push(inter);
    }

    // ---- greedy join order ---------------------------------------------------
    let n = inters.len();
    let mut joined: Option<(Inter, Vec<bool>)> = None;
    if n > 0 {
        let start = (0..n).min_by_key(|&i| inters[i].len()).unwrap();
        let mut in_set = vec![false; n];
        in_set[start] = true;
        let mut cur = inters[start].clone();
        for _ in 1..n {
            // Tables connected to the current set by some join predicate.
            let mut candidates: Vec<usize> = (0..n)
                .filter(|&t| {
                    !in_set[t]
                        && a.joins.iter().any(|j| {
                            (in_set[j.left.0] && j.right.0 == t)
                                || (in_set[j.right.0] && j.left.0 == t)
                        })
                })
                .collect();
            candidates.sort_by_key(|&t| inters[t].len());
            let next = match candidates.first() {
                Some(&t) => t,
                // Disconnected: cross product with the smallest remaining.
                None => (0..n).filter(|&t| !in_set[t]).min_by_key(|&t| inters[t].len()).unwrap(),
            };
            let on: Vec<(ColId, ColId)> = a
                .joins
                .iter()
                .filter_map(|j| {
                    if in_set[j.left.0] && j.right.0 == next {
                        Some((j.left, j.right))
                    } else if in_set[j.right.0] && j.left.0 == next {
                        Some((j.right, j.left))
                    } else {
                        None
                    }
                })
                .collect();
            cur = if on.is_empty() {
                row::cross_join(&cur, &inters[next])
            } else {
                match cfg.join {
                    JoinAlgo::Hash => row::hash_join(&cur, &inters[next], &on)?,
                    JoinAlgo::SortMerge => row::sort_merge_join(&cur, &inters[next], &on)?,
                }
            };
            in_set[next] = true;
        }
        joined = Some((cur, in_set));
    }
    let mut result = joined.map(|(i, _)| i).unwrap_or(Inter { cols: vec![], rows: vec![] });

    // ---- residual predicates --------------------------------------------------
    for f in &a.residual {
        let bound = bind_expr_cols(f, a, &result.cols)?;
        result = result.filter(|row| bound.passes(row))?;
    }
    for (check, sub, _) in subqueries.iter().filter(|(_, _, table)| table.is_none()) {
        result = apply_subquery(check, sub, a, result)?;
    }

    // ---- grouping, aggregation, HAVING and projection -----------------------
    let out = a.output(|c| result.col_index(c), result.cols.len())?;
    let mut gather = Gather::default();
    for row in &result.rows {
        gather.add(&out, row)?;
    }
    out.finish(gather)
}

/// Keep the rows of `inter` that pass a subquery's check.
fn apply_subquery(
    check: &SubqueryCheck,
    result: &Arc<SubqueryResult>,
    a: &Analyzed,
    inter: Inter,
) -> Result<Inter> {
    let bound = check.bind(
        Arc::clone(result),
        |c| inter.col_index(c),
        |e| bind_expr_cols(e, a, &inter.cols),
    )?;
    inter.filter(|row| bound.passes(row))
}

/// Bind an (alias-qualified) expression against an intermediate layout.
fn bind_expr_cols(e: &Expr, a: &Analyzed, layout: &[ColId]) -> Result<BoundExpr> {
    e.bind(&|c: &ColRef| {
        let tc = a.resolve(c)?;
        layout
            .iter()
            .position(|&x| x == tc)
            .ok_or_else(|| RelError::Other(format!("column {c} not in intermediate layout")))
    })
}
