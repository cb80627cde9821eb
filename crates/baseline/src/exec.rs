//! A binary-join-at-a-time executor over analyzed queries.
//!
//! This is the stand-in for the paper's reference RDBMSs: filters are pushed
//! to base tables, joins run one at a time in a greedy smallest-first order
//! (hash or sort-merge per [`ExecConfig`]), subqueries are evaluated first
//! and their checks ([`vcsql_query::subquery`]) applied at the scan of the
//! one table they read, or else to the joined rows, and grouping/aggregation
//! runs over the final joined result. It is also the correctness oracle for
//! the vertex-centric executor: both must produce identical bags.

use crate::row::{self, ColId, Inter};
use std::sync::Arc;
use vcsql_query::analyze::{Analyzed, OutputItem};
use vcsql_query::{lower_subquery, LoweredSubquery, SubqueryCheck, SubqueryResult};
use vcsql_relation::agg::{Accumulator, AggFunc};
use vcsql_relation::expr::{BoundExpr, CmpOp, ColRef, Expr};
use vcsql_relation::{Database, RelError, Relation, Value};

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
            let bound = bind_expr_cols(f, a, &inter.cols)?;
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

    finishing(a, result)
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

/// Grouping, aggregation, HAVING and projection.
pub fn finishing(a: &Analyzed, result: Inter) -> Result<Relation> {
    let has_group = !a.group_by.is_empty();
    let has_agg = a.has_aggregates() || !a.having.is_empty();

    if !has_group && !has_agg {
        // Plain projection.
        let mut rows = Vec::with_capacity(result.len());
        let items: Vec<ProjItem> = a
            .items
            .iter()
            .map(|item| ProjItem::bind(item, a, &result.cols))
            .collect::<Result<_>>()?;
        for row in &result.rows {
            let mut out = Vec::with_capacity(items.len());
            for item in &items {
                out.push(item.eval_row(row)?);
            }
            rows.push(out);
        }
        return a.build_output(rows);
    }

    // Hash aggregation over group keys (a single global group when GROUP BY
    // is absent).
    let key_pos: Vec<usize> =
        a.group_by.iter().map(|c| result.col_index(*c)).collect::<Result<_>>()?;
    let items: Vec<ProjItem> =
        a.items.iter().map(|item| ProjItem::bind(item, a, &result.cols)).collect::<Result<_>>()?;
    let having_args: Vec<(AggFunc, Option<BoundExpr>, CmpOp, BoundExpr)> = a
        .having
        .iter()
        .map(|h| {
            let arg = match &h.arg {
                Some(e) => Some(bind_expr_cols(e, a, &result.cols)?),
                None => None,
            };
            let rhs = bind_expr_cols(&h.rhs, a, &result.cols)?;
            Ok((h.func, arg, h.op, rhs))
        })
        .collect::<Result<_>>()?;

    struct Group {
        rep: Vec<Value>,
        accs: Vec<Accumulator>,
        having: Vec<Accumulator>,
    }
    let mut groups: vcsql_relation::FxHashMap<Vec<Value>, Group> =
        vcsql_relation::FxHashMap::default();
    // A scalar aggregate over zero rows must still produce one output row.
    if !has_group {
        groups.insert(
            Vec::new(),
            Group {
                rep: vec![Value::Null; result.cols.len()],
                accs: init_accs(&items),
                having: a.having.iter().map(|h| Accumulator::new(h.func)).collect(),
            },
        );
    }
    for row in &result.rows {
        let key: Vec<Value> = key_pos.iter().map(|&i| row[i].clone()).collect();
        let g = groups.entry(key).or_insert_with(|| Group {
            rep: row.clone(),
            accs: init_accs(&items),
            having: a.having.iter().map(|h| Accumulator::new(h.func)).collect(),
        });
        for (item, acc) in items.iter().zip(&mut g.accs) {
            if let ProjItem::Agg { arg, .. } = item {
                let v = match arg {
                    Some(e) => e.eval(row)?,
                    None => Value::Int(1),
                };
                acc.update(&v)?;
            }
        }
        for ((_, arg, _, _), acc) in having_args.iter().zip(&mut g.having) {
            let v = match arg {
                Some(e) => e.eval(row)?,
                None => Value::Int(1),
            };
            acc.update(&v)?;
        }
    }

    // Deterministic output order: sort groups by key.
    let mut entries: Vec<(Vec<Value>, Group)> = groups.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));

    let mut rows = Vec::with_capacity(entries.len());
    'groups: for (_, g) in entries {
        for ((_, _, op, rhs), acc) in having_args.iter().zip(&g.having) {
            let rv = rhs.eval(&g.rep)?;
            if acc.finish().sql_cmp(&rv).map(|o| op.holds(o)) != Some(true) {
                continue 'groups;
            }
        }
        let mut out = Vec::with_capacity(items.len());
        for (item, acc) in items.iter().zip(&g.accs) {
            out.push(match item {
                ProjItem::Agg { .. } => acc.finish(),
                other => other.eval_row(&g.rep)?,
            });
        }
        rows.push(out);
    }
    a.build_output(rows)
}

fn init_accs(items: &[ProjItem]) -> Vec<Accumulator> {
    items
        .iter()
        .map(|i| match i {
            ProjItem::Agg { func, .. } => Accumulator::new(*func),
            _ => Accumulator::new(AggFunc::CountStar), // placeholder, unused
        })
        .collect()
}

/// A bound select item.
enum ProjItem {
    Col(usize),
    Expr(BoundExpr),
    Agg { func: AggFunc, arg: Option<BoundExpr> },
}

impl ProjItem {
    fn bind(item: &OutputItem, a: &Analyzed, layout: &[ColId]) -> Result<ProjItem> {
        Ok(match item {
            OutputItem::Col { table, col, .. } => {
                let pos = layout
                    .iter()
                    .position(|&c| c == (*table, *col))
                    .ok_or_else(|| RelError::Other("output column missing from result".into()))?;
                ProjItem::Col(pos)
            }
            OutputItem::Expr { expr, .. } => ProjItem::Expr(bind_expr_cols(expr, a, layout)?),
            OutputItem::Agg { func, arg, .. } => ProjItem::Agg {
                func: *func,
                arg: match arg {
                    Some(e) => Some(bind_expr_cols(e, a, layout)?),
                    None => None,
                },
            },
        })
    }

    fn eval_row(&self, row: &[Value]) -> Result<Value> {
        match self {
            ProjItem::Col(i) => Ok(row[*i].clone()),
            ProjItem::Expr(e) => e.eval(row),
            ProjItem::Agg { .. } => Err(RelError::Other("aggregate outside grouping".into())),
        }
    }
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
