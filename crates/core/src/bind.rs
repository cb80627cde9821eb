//! Binding: a prepared [`QueryPlan`] resolved against one TAG graph.
//!
//! [`QueryCtx::build`] is the pass between planning and execution: it turns
//! the plan's table/column references into this graph's vertex and edge
//! labels, per-table tuple filters, the steps each pass walks (the
//! semijoin branches, and the reduction-only branches whose keys are unique
//! in this TAG, leave the top-down and collection passes), the labels that
//! enter NOT EXISTS branches, the collection [`Visit`]s (what a tuple
//! vertex does with the id rows it receives at each step, broken-cycle
//! equalities included), the final value layout and everything bound to it
//! (residual checks and the statement's [`Output`]). The drivers in
//! [`crate::exec`] only read the result; nothing here runs a superstep.

use crate::cost::Shape;
use crate::plan::QueryPlan;
use crate::table::{partial_bytes, ColKey, Layout};
use std::sync::Arc;
use vcsql_bsp::LabelId;
use vcsql_query::analyze::Analyzed;
use vcsql_query::tagplan::{Part, Step};
use vcsql_query::{AggClass, BoundSubquery, Correlation, Output, SubqueryCheck, SubqueryResult};
use vcsql_relation::expr::{BoundExpr, ColRef, Expr, Predicate, Row};
use vcsql_relation::schema::Schema;
use vcsql_relation::{DataType, FxHashMap, RelError, Value};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Residual checks applied to final rows.
pub(crate) enum ResCheck {
    Expr(Predicate),
    Subquery(BoundSubquery),
}

impl ResCheck {
    pub(crate) fn check<R: Row + ?Sized>(&self, row: &R) -> Result<bool> {
        Ok(match self {
            ResCheck::Expr(e) => e.passes(row)?,
            ResCheck::Subquery(s) => s.passes(row)?,
        })
    }
}

/// Per-table filters folded to tuple-vertex checks.
pub(crate) struct TupleFilter {
    exprs: Vec<Predicate>,
    checks: Vec<ResCheck>,
}

impl TupleFilter {
    /// Whether the tuple passes every filter; the first failed evaluation
    /// is the error, as in the relational baselines.
    pub(crate) fn passes(&self, row: &[Value]) -> Result<bool> {
        for e in &self.exprs {
            if !e.passes(row)? {
                return Ok(false);
            }
        }
        all_hold(&self.checks, row)
    }
}

/// Whether every check holds on `row`, stopping at the first that does not
/// and propagating the first failed evaluation.
pub(crate) fn all_hold<R: Row + ?Sized>(checks: &[ResCheck], row: &R) -> Result<bool> {
    for c in checks {
        if !c.check(row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// What a tuple vertex does with the id rows it receives at one collection
/// superstep. The plan fixes it: every vertex of a superstep sees rows over
/// the same visited tables.
pub(crate) enum Visit {
    /// The table's first visit: every row the checks pass gains the
    /// vertex's id (where the traversal starts, the vertex's id is the one
    /// row).
    First {
        /// `(layout position, its tuple's column, own column)` of each join
        /// variable the rows already hold and the traversed edge did not
        /// prove, and of each broken-cycle equality whose other table the
        /// rows already hold: a row whose tuple is not SQL-equal to the
        /// vertex's there is dropped.
        checks: Vec<(usize, usize, usize)>,
        /// Own string columns of the keys the visit adds, whose payload
        /// every row gains. A column of another type adds none: every cell
        /// of the TAG is NULL or of its column's type, so pricing a row
        /// reads no other cell of the arena.
        added: Vec<usize>,
    },
    /// A revisit on a backtracking step: the rows whose id at layout
    /// position `pos` is the vertex's.
    Again { pos: usize },
}

/// Precomputed execution context.
pub(crate) struct QueryCtx<'a> {
    pub(crate) analyzed: &'a Analyzed,
    /// Vertex label of each table's relation → table index, indexed by
    /// label (planning refuses self-joins, so one table per label).
    table_of_label: Vec<Option<usize>>,
    /// Relation vertex labels per table.
    pub(crate) rel_label: Vec<LabelId>,
    /// Per-table tuple filters (over schema row layout).
    pub(crate) filters: Vec<TupleFilter>,
    /// Per-table row spec: (column key, schema column); keys sorted.
    own_specs: Vec<Vec<(ColKey, usize)>>,
    /// Per table, the pairs of columns that hold one join variable: a tuple
    /// whose values there disagree joins nothing.
    pub(crate) dups: Vec<Vec<(usize, usize)>>,
    /// The shape the plan runs in on this TAG.
    pub(crate) shape: Arc<Shape>,
    /// Per component, the edge labels of its `GenSteps` list: the bottom-up
    /// reduction walks all of it.
    pub(crate) steps: Vec<Vec<LabelId>>,
    /// Per component, the labels of the shape's walk: the top-down
    /// reduction and the collection walk these.
    pub(crate) kept: Vec<Vec<LabelId>>,
    /// Per component, the label into the top of each NOT EXISTS branch.
    pub(crate) anti: Vec<Vec<LabelId>>,
    /// Component whose roots assemble the final result.
    pub(crate) primary: usize,
    /// Per component, what its tuple vertices do at collection superstep
    /// `2k` (entry `k`): the kept walk's start table's visit at superstep
    /// 0, then one per step that enters a table; the root's is last.
    pub(crate) visits: Vec<Vec<Visit>>,
    /// Per component, the layout of the rows after each visit (entry `k`
    /// for supersteps `2k` and `2k + 1`): a value does not carry its
    /// layout, its receiver reads it here. The root's is last.
    layouts: Vec<Vec<Arc<Layout>>>,
    /// The (sorted) final layout of value rows at the primary roots.
    pub(crate) final_layout: Vec<ColKey>,
    /// Residual checks bound to the final layout.
    pub(crate) residuals: Vec<ResCheck>,
    /// The statement's output bound to the final layout.
    pub(crate) output: Output<'a>,
    /// Wire size of one group's partial routed to an attribute vertex.
    pub(crate) partial_bytes: usize,
    /// Edge label routing local-aggregation partials from the primary root
    /// to the group-key attribute vertex.
    pub(crate) la_route: Option<LabelId>,
    /// The table whose tuples pass only once admitted, when a [`Seed`]
    /// ran before this (inner) query.
    pub(crate) admit: Option<usize>,
}

/// A seeded subquery's correlation bound to one TAG: the outer key table's
/// tuple vertices, its pushed-down filters and correlation column's edge
/// label, and the inner correlation column's.
pub(crate) struct Seed {
    pub(crate) outer_rel: LabelId,
    outer_filters: Vec<Predicate>,
    pub(crate) outer_col: LabelId,
    pub(crate) inner_col: LabelId,
    pub(crate) inner_rel: LabelId,
    /// The inner table whose tuples are admitted.
    pub(crate) inner_table: usize,
}

impl Seed {
    /// Bind correlation `c` of a subquery `sub` of `outer`; `None` when
    /// either column has no attribute vertices in `tag`, and the subquery
    /// runs unseeded.
    pub(crate) fn bind(
        tag: &TagGraph,
        outer: &Analyzed,
        sub: &Analyzed,
        c: Correlation,
    ) -> Result<Option<Seed>> {
        let (ot, it) = (&outer.tables[c.outer.0], &sub.tables[c.inner.0]);
        let labels = (
            tag.relation_label(&ot.relation),
            tag.column_label(&ot.relation, c.outer.1),
            tag.column_label(&it.relation, c.inner.1),
            tag.relation_label(&it.relation),
        );
        let (Some(outer_rel), Some(outer_col), Some(inner_col), Some(inner_rel)) = labels else {
            return Ok(None);
        };
        let outer_filters = ot
            .filters
            .iter()
            .map(|e| outer.bind_to_table(c.outer.0, e).map(Predicate::new))
            .collect::<Result<_>>()?;
        let inner_table = c.inner.0;
        Ok(Some(Seed { outer_rel, outer_filters, outer_col, inner_col, inner_rel, inner_table }))
    }

    /// Whether an outer key tuple may probe the subquery: no pushed-down
    /// filter rejects it. A filter that fails to evaluate does not reject:
    /// the outer query meets that error itself, and a seed may only admit
    /// too much.
    pub(crate) fn probes(&self, tuple: &[Value]) -> bool {
        self.outer_filters.iter().all(|e| e.passes(tuple).unwrap_or(true))
    }
}

impl<'a> QueryCtx<'a> {
    /// Bind `plan` to `tag`; `results` holds the result of each of the
    /// plan's subqueries, in order. An inner query's plan binds its output
    /// through its subquery's `check`, in probe mode.
    pub(crate) fn build(
        tag: &TagGraph,
        plan: &'a QueryPlan,
        results: &[Arc<SubqueryResult>],
        check: Option<&SubqueryCheck>,
    ) -> Result<QueryCtx<'a>> {
        let a = plan.analyzed();
        let dec = &plan.dec;
        let n = plan.table_count();

        // var_of as u32 keys.
        let mut var_of: FxHashMap<(usize, usize), u32> = FxHashMap::default();
        for (k, v) in &dec.var_of {
            var_of.insert(*k, *v as u32);
        }

        // Each subquery check is pushed to the one table it reads, if any.
        let mut subqueries = Vec::with_capacity(results.len());
        for ((_, check, _), result) in plan.subqueries.iter().zip(results) {
            subqueries.push((check, Arc::clone(result), check.outer_table(a)?));
        }

        // ---- row specs ----------------------------------------------------------
        // A table's tuples stand for: a Var key for each join variable
        // occurring in it, plus Plain keys for needed non-join columns.
        let mut own_specs: Vec<Vec<(ColKey, usize)>> = Vec::with_capacity(n);
        for (t, needed_cols) in plan.needed.iter().enumerate() {
            let mut spec: Vec<(ColKey, usize)> = Vec::new();
            // Every occurrence of a variable in this table is listed: when a
            // variable occurs in several columns of one tuple (equalities
            // merged by transitivity), `dups` rejects tuples whose values
            // disagree — the implied intra-tuple equality.
            for v in &dec.vars {
                for &(tt, c) in &v.occurrences {
                    let entry = (ColKey::Var(v.id as u32), c);
                    if tt == t && !spec.contains(&entry) {
                        spec.push(entry);
                    }
                }
            }
            for &c in needed_cols {
                if !var_of.contains_key(&(t, c)) {
                    spec.push((ColKey::Col { table: t as u16, col: c as u16 }, c));
                }
            }
            spec.sort_by_key(|&(k, _)| k);
            own_specs.push(spec);
        }
        let dups = own_specs
            .iter()
            .map(|spec| {
                spec.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| (w[0].1, w[1].1)).collect()
            })
            .collect();

        // ---- filters ------------------------------------------------------------
        let mut filters = Vec::with_capacity(n);
        for t in 0..n {
            let bind_schema = |e: &Expr| a.bind_to_table(t, e);
            let exprs = plan.filters(t)?;
            let checks = subqueries
                .iter()
                .filter(|(_, _, table)| *table == Some(t))
                .map(|(check, result, _)| {
                    let bound = check.bind(Arc::clone(result), |(_, c)| Ok(c), bind_schema)?;
                    Ok(ResCheck::Subquery(bound))
                })
                .collect::<Result<_>>()?;
            filters.push(TupleFilter { exprs, checks });
        }

        // ---- the shape chosen for this TAG --------------------------------------
        let shape = plan.shape(tag)?;
        let primary = plan.primary;

        // ---- labels ---------------------------------------------------------------
        let mut rel_label = Vec::with_capacity(n);
        let mut table_of_label = Vec::new();
        for t in 0..n {
            let relation = &plan.table(t).relation;
            let label = tag.relation_label(relation).ok_or_else(|| {
                RelError::Other(format!("relation `{relation}` absent from TAG graph"))
            })?;
            rel_label.push(label);
            let l = label.0 as usize;
            if table_of_label.len() <= l {
                table_of_label.resize(l + 1, None);
            }
            table_of_label[l] = Some(t);
        }
        let column_label = |t: usize, c: usize| {
            let table = plan.table(t);
            tag.column_label(&table.relation, c).ok_or_else(|| {
                RelError::Other(format!(
                    "join column {}.{} is not materialized as attribute vertices",
                    table.relation, table.schema.columns[c].name
                ))
            })
        };

        // ---- steps and collection visits -------------------------------------------
        // The bottom-up reduction walks the chosen plan's list; the top-down
        // and collection passes walk the plan without the semijoin branches
        // and the branches whose keys are unique in this TAG, which extend
        // every row they join at most once and which the bottom-up
        // reduction already filtered the rows by. The labels into the tops
        // of NOT EXISTS branches tell the bottom-up pass where to hold
        // vertices. The walk alternates tuple and attribute vertices:
        // tuple vertices compute at the even collection supersteps — its
        // start table at 0, then the table each odd step enters (a step's
        // label names its relation side), the root last.
        let labels = |steps: &[Step]| -> Result<Vec<LabelId>> {
            steps.iter().map(|s| column_label(s.table, s.col)).collect()
        };
        // Each broken-cycle equality (Section 6.1.1) is checked at the first
        // visit of whichever of its two tables the walk reaches second, the
        // first visit whose rows hold both columns: `cycle` lists, per table,
        // the other side's key and its own column.
        let key_of = |t: usize, c: usize| -> ColKey {
            match var_of.get(&(t, c)) {
                Some(&v) => ColKey::Var(v),
                None => ColKey::Col { table: t as u16, col: c as u16 },
            }
        };
        let mut cycle: Vec<Vec<(ColKey, usize)>> = vec![Vec::new(); n];
        for j in &dec.broken {
            cycle[j.left.0].push((key_of(j.right.0, j.right.1), j.left.1));
            cycle[j.right.0].push((key_of(j.left.0, j.left.1), j.right.1));
        }
        let (mut steps, mut kept, mut anti) = (Vec::new(), Vec::new(), Vec::new());
        let mut visits = Vec::with_capacity(shape.component_count());
        let mut layouts = Vec::with_capacity(shape.component_count());
        for ci in 0..shape.component_count() {
            let walk = &shape.walk_steps[ci];
            debug_assert!(walk.len().is_multiple_of(2), "a traversal ends at a relation");
            let mut layout = Arc::new(Layout::default());
            let start = shape.walks[ci].start_table();
            let visit = |layout: &mut _, t: usize, proved| {
                first_visit(&own_specs, layout, t, &plan.table(t).schema, proved, &cycle[t])
            };
            let mut vs = vec![visit(&mut layout, start, None)];
            let mut after = vec![Arc::clone(&layout)];
            for s in walk.iter().skip(1).step_by(2) {
                vs.push(match layout.tables.iter().position(|&t| t == s.table) {
                    Some(pos) => Visit::Again { pos },
                    None => {
                        let proved = var_of.get(&(s.table, s.col)).copied();
                        visit(&mut layout, s.table, proved)
                    }
                });
                after.push(Arc::clone(&layout));
            }
            visits.push(vs);
            layouts.push(after);
            steps.push(labels(&shape.steps[ci])?);
            kept.push(labels(walk)?);
            let p = &shape.plans[ci];
            let tops = (0..p.len()).filter(|&m| p.part[m] == Part::Anti);
            anti.push(labels(&tops.map(|m| p.in_label[m].expect("a branch")).collect::<Vec<_>>())?);
        }

        // ---- final layout -----------------------------------------------------------
        let mut final_layout: Vec<ColKey> = layouts
            .iter()
            .flat_map(|l| l.last().expect("a start visit").cols.iter().copied())
            .collect();
        final_layout.sort_unstable();
        final_layout.dedup();

        let pos_of = |t: usize, c: usize| -> Result<usize> {
            let k = key_of(t, c);
            final_layout
                .binary_search(&k)
                .map_err(|_| RelError::Other(format!("column ({t},{c}) missing from layout")))
        };
        let bind_final = |e: &Expr| -> Result<BoundExpr> {
            e.bind(&|c: &ColRef| {
                let (t, col) = a.resolve(c)?;
                pos_of(t, col)
            })
        };

        // ---- residuals -----------------------------------------------------------------
        let mut residuals = Vec::new();
        for e in &a.residual {
            residuals.push(ResCheck::Expr(Predicate::new(bind_final(e)?)));
        }
        for (check, result, _) in subqueries.into_iter().filter(|(_, _, table)| table.is_none()) {
            let bound = check.bind(result, |(t, c)| pos_of(t, c), bind_final)?;
            residuals.push(ResCheck::Subquery(bound));
        }

        // ---- output ------------------------------------------------------------------------
        let mut output = a.output(|(t, c)| pos_of(t, c), final_layout.len())?;
        if let Some(check) = check {
            output = check.bind_inner(output);
        }
        let partial_bytes =
            partial_bytes(a.group_by.len(), a.items.len() + a.having.len(), final_layout.len());

        // LA routing label: the primary root must own the first group column.
        let la_route = if a.agg_class == AggClass::Local {
            let (gt, gc) = a.group_by[0];
            if shape.root_table(primary) == gt {
                tag.column_label(&a.tables[gt].relation, gc)
            } else {
                None
            }
        } else {
            None
        };

        Ok(QueryCtx {
            analyzed: a,
            table_of_label,
            rel_label,
            filters,
            own_specs,
            dups,
            shape,
            steps,
            kept,
            anti,
            primary,
            visits,
            layouts,
            final_layout,
            residuals,
            output,
            partial_bytes,
            la_route,
            admit: None,
        })
    }

    /// The table whose relation's tuple vertices carry `label`, if any.
    #[inline]
    pub(crate) fn table_of(&self, label: LabelId) -> Option<usize> {
        self.table_of_label.get(label.0 as usize).copied().flatten()
    }

    /// Vertex label whose tuple vertices start component `ci`'s traversal.
    pub(crate) fn start_label(&self, ci: usize) -> LabelId {
        self.rel_label[self.shape.start_table(ci)]
    }

    /// The layout of the rows a vertex of component `ci` holds after
    /// computing at collection superstep `step` (its roots compute at
    /// `kept[ci].len()`).
    pub(crate) fn layout_at(&self, ci: usize, step: usize) -> &Arc<Layout> {
        &self.layouts[ci][step / 2]
    }

    /// The layout of the rows component `ci`'s roots hold.
    pub(crate) fn root_layout(&self, ci: usize) -> &Arc<Layout> {
        self.layouts[ci].last().expect("a start visit")
    }

    /// Vertex label of component `ci`'s root tuple vertices.
    pub(crate) fn root_label(&self, ci: usize) -> LabelId {
        self.rel_label[self.shape.root_table(ci)]
    }

    /// Where each final-layout column of a row over `tables` is read: the
    /// layout position of the first table holding it, and its column there.
    pub(crate) fn reader(&self, tables: &[usize]) -> Vec<(usize, usize)> {
        self.final_layout
            .iter()
            .map(|&k| holder(&self.own_specs, tables, k).expect("every table is visited"))
            .collect()
    }
}

/// Table `t`'s first visit to rows over `layout`, which becomes the layout
/// after it; `schema` is the table's. `proved` is the join variable of the
/// edge the rows travelled, equal on both sides by construction; every
/// other variable the rows already hold is checked, and so is every `(key,
/// own column)` of `cycle` whose key they hold.
fn first_visit(
    own_specs: &[Vec<(ColKey, usize)>],
    layout: &mut Arc<Layout>,
    t: usize,
    schema: &Schema,
    proved: Option<u32>,
    cycle: &[(ColKey, usize)],
) -> Visit {
    let (mut checks, mut added) = (Vec::new(), Vec::new());
    let mut cols = layout.cols.clone();
    let mut prev = None;
    for &(k, c) in &own_specs[t] {
        if prev.replace(k) == Some(k) {
            continue; // the variable's further columns: equal, see `dups`
        }
        if layout.cols.binary_search(&k).is_err() {
            if schema.columns[c].ty == DataType::Str {
                added.push(c);
            }
            cols.push(k);
        } else if Some(k) != proved.map(ColKey::Var) {
            let (pos, col) = holder(own_specs, &layout.tables, k).expect("a held key has a table");
            checks.push((pos, col, c));
        }
    }
    for &(k, c) in cycle {
        if let Some((pos, col)) = holder(own_specs, &layout.tables, k) {
            checks.push((pos, col, c));
        }
    }
    cols.sort_unstable();
    let mut tables = layout.tables.clone();
    tables.push(t);
    *layout = Arc::new(Layout { tables, cols });
    Visit::First { checks, added }
}

/// The first of `tables` whose tuples stand for column `k`: its position
/// and the schema column holding `k`.
fn holder(
    own_specs: &[Vec<(ColKey, usize)>],
    tables: &[usize],
    k: ColKey,
) -> Option<(usize, usize)> {
    tables.iter().enumerate().find_map(|(pos, &t)| {
        own_specs[t].iter().find(|&&(key, _)| key == k).map(|&(_, c)| (pos, c))
    })
}
