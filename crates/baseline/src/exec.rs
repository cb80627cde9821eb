//! A binary-join-at-a-time executor over analyzed queries.
//!
//! This is the stand-in for the paper's reference RDBMSs: filters are pushed
//! to base tables, joins run one at a time in a greedy smallest-first order
//! (hash or sort-merge per [`ExecConfig`]), subqueries are evaluated first
//! — an inner query's rows fold straight into its probe table — and their
//! checks ([`vcsql_query::subquery`]) applied at the scan of the one table
//! they read, or else to the joined rows, and the joined rows fold into the
//! statement's output ([`vcsql_query::output`]). It is also the
//! correctness oracle for the vertex-centric executor: both must produce
//! identical bags.

use std::sync::Arc;
use vcsql_query::analyze::Analyzed;
use vcsql_query::rows::{self, Inter};
use vcsql_query::{lower_subquery, Gather, LoweredSubquery, Output, SubqueryCheck, SubqueryResult};
use vcsql_relation::expr::Predicate;
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
    let (out, gather) = run(a, db, cfg, None)?;
    out.finish(gather)
}

/// Run `a` up to its output: the output bound to the final rows (in probe
/// mode for an inner query, whose `check` binds it) and everything gathered.
fn run<'a>(
    a: &'a Analyzed,
    db: &Database,
    cfg: ExecConfig,
    check: Option<&SubqueryCheck>,
) -> Result<(Output<'a>, Gather)> {
    // ---- subqueries first: each inner result, and the one table it reads ----
    let mut subqueries = Vec::with_capacity(a.subqueries.len());
    for sq in &a.subqueries {
        let LoweredSubquery { sub, check } = lower_subquery(sq);
        let (out, gather) = run(&sub, db, cfg, Some(&check))?;
        let result = check.finish(&out, gather)?;
        let table = check.outer_table(a)?;
        subqueries.push((check, Arc::new(result), table));
    }

    // ---- base tables with pushed-down filters -------------------------------
    let mut inters: Vec<Inter> = Vec::with_capacity(a.tables.len());
    for t in 0..a.tables.len() {
        let mut inter = a.scan(t, db)?;
        // Subquery checks that read only this table.
        for (check, result, _) in subqueries.iter().filter(|(_, _, table)| *table == Some(t)) {
            inter = apply_subquery(check, result, a, inter)?;
        }
        inters.push(inter);
    }

    // ---- greedy join order ---------------------------------------------------
    let n = inters.len();
    let mut result = Inter { cols: vec![], rows: vec![] };
    if n > 0 {
        let start = (0..n).min_by_key(|&i| inters[i].len()).unwrap();
        let mut in_set = vec![false; n];
        in_set[start] = true;
        let mut cur = inters[start].clone();
        for _ in 1..n {
            // Tables connected to the current set by some join predicate.
            let mut candidates: Vec<usize> =
                (0..n).filter(|&t| !in_set[t] && !a.join_pairs(&in_set, t).is_empty()).collect();
            candidates.sort_by_key(|&t| inters[t].len());
            let next = match candidates.first() {
                Some(&t) => t,
                // Disconnected: cross product with the smallest remaining.
                None => (0..n).filter(|&t| !in_set[t]).min_by_key(|&t| inters[t].len()).unwrap(),
            };
            let on = a.join_pairs(&in_set, next);
            cur = if on.is_empty() {
                rows::cross_join(&cur, &inters[next])
            } else {
                match cfg.join {
                    JoinAlgo::Hash => rows::hash_join(&cur, &inters[next], &on)?,
                    JoinAlgo::SortMerge => rows::sort_merge_join(&cur, &inters[next], &on)?,
                }
            };
            in_set[next] = true;
        }
        result = cur;
    }

    // ---- residual predicates --------------------------------------------------
    for f in &a.residual {
        let pred = Predicate::new(a.bind_to_layout(f, &result.cols)?);
        result = result.filter(|row| pred.passes(row))?;
    }
    for (check, sub, _) in subqueries.iter().filter(|(_, _, table)| table.is_none()) {
        result = apply_subquery(check, sub, a, result)?;
    }

    // ---- grouping, aggregation, HAVING and projection -----------------------
    let mut out = a.output(|c| result.col_index(c), result.cols.len())?;
    if let Some(check) = check {
        out = check.bind_inner(out);
    }
    let mut gather = Gather::default();
    for row in &result.rows {
        gather.add(&out, row.as_slice())?;
    }
    Ok((out, gather))
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
        |e| a.bind_to_layout(e, &inter.cols),
    )?;
    inter.filter(|row| bound.passes(row))
}
