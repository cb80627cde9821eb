//! Semantic analysis: name resolution and WHERE-clause decomposition.
//!
//! The analyzer turns a parsed [`SelectStmt`] into the normalized form both
//! executors (vertex-centric and relational baseline) consume:
//!
//! * **tables** — alias → relation bindings with their schemas and the
//!   conjunction of single-table filters (the predicates the paper pushes to
//!   attribute/tuple vertices during the reduction phase);
//! * **joins** — equi-join predicates `(table, col) = (table, col)` forming
//!   the join hypergraph;
//! * **residual** — cross-table predicates that are not equi-joins (OR
//!   groups, inequalities across tables, extra equalities between an already
//!   joined pair); applied while output rows are assembled. An OR residual
//!   whose every disjunct tests one table's columns against constants also
//!   lends that table the OR of those tests as a filter;
//! * **subqueries** — EXISTS / IN / scalar-comparison subqueries, analyzed
//!   recursively with their correlation predicates extracted;
//! * **output** — select items resolved, aggregation class determined
//!   (none / local / global / scalar — paper Section 7).

use crate::ast::{HavingPred, JoinKind, QExpr, SelectItem, SelectStmt};
use crate::output::check_grouped;
use vcsql_relation::agg::AggFunc;
use vcsql_relation::expr::{CmpOp, ColRef, Expr};
use vcsql_relation::{RelError, Schema};

type Result<T> = std::result::Result<T, RelError>;

/// One FROM-clause table binding.
#[derive(Debug, Clone)]
pub struct TableBinding {
    pub alias: String,
    pub relation: String,
    pub schema: Schema,
    /// Conjunction of single-table predicates over this table (column refs
    /// qualified with the alias).
    pub filters: Vec<Expr>,
}

/// An equi-join predicate between two table columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPred {
    pub left: (usize, usize),
    pub right: (usize, usize),
}

/// Aggregation style, following the paper's classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggClass {
    /// Pure select-project-join.
    NoAgg,
    /// GROUP BY whose key is one attribute (or attributes determined by
    /// one) — computable at the group-key attribute vertices in parallel.
    Local,
    /// Multi-attribute GROUP BY — needs the global aggregation vertex.
    Global,
    /// Aggregates without GROUP BY — a single global (scalar) result.
    Scalar,
}

/// A resolved output item.
#[derive(Debug, Clone)]
pub enum OutputItem {
    /// Plain column.
    Col { table: usize, col: usize, name: String },
    /// Scalar expression over the joined row.
    Expr { expr: Expr, name: String },
    /// Aggregate over the joined rows (per group if GROUP BY present).
    Agg { func: AggFunc, arg: Option<Expr>, name: String },
}

impl OutputItem {
    /// Output column name.
    pub fn name(&self) -> &str {
        match self {
            OutputItem::Col { name, .. }
            | OutputItem::Expr { name, .. }
            | OutputItem::Agg { name, .. } => name,
        }
    }
}

/// How a subquery predicate constrains the outer query.
#[derive(Debug, Clone)]
pub enum SubqueryKind {
    /// `[NOT] EXISTS (...)` — semi/anti join on the correlation columns.
    Exists { negated: bool },
    /// `outer_expr [NOT] IN (SELECT inner_col ...)`; `outer_expr` is a plain
    /// column.
    In { outer_expr: Expr, negated: bool },
    /// `outer_expr op (SELECT AGG(...) ...)` — scalar, possibly correlated.
    Scalar { outer_expr: Expr, op: CmpOp },
}

/// A correlation predicate `inner.(t,c) = outer.(t,c)` (tables indexed in
/// their own scopes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Correlation {
    pub inner: (usize, usize),
    pub outer: (usize, usize),
}

/// An analyzed subquery predicate.
#[derive(Debug, Clone)]
pub struct SubqueryPred {
    pub kind: SubqueryKind,
    pub sub: Box<Analyzed>,
    pub correlations: Vec<Correlation>,
}

/// The analyzer's output: a normalized query.
#[derive(Debug, Clone)]
pub struct Analyzed {
    pub tables: Vec<TableBinding>,
    pub joins: Vec<JoinPred>,
    pub residual: Vec<Expr>,
    pub subqueries: Vec<SubqueryPred>,
    pub items: Vec<OutputItem>,
    pub group_by: Vec<(usize, usize)>,
    pub having: Vec<HavingPred>,
    pub agg_class: AggClass,
}

impl Analyzed {
    /// Resolve an (alias-qualified or bare) column against this query's
    /// tables.
    pub fn resolve(&self, c: &ColRef) -> Result<(usize, usize)> {
        resolve_in(&self.tables, c)
    }

    /// The alias-qualified name of a resolved column.
    pub fn qualified(&self, table: usize, col: usize) -> ColRef {
        ColRef::qualified(
            self.tables[table].alias.clone(),
            self.tables[table].schema.columns[col].name.clone(),
        )
    }

    /// True if any aggregate appears in the output.
    pub fn has_aggregates(&self) -> bool {
        self.items.iter().any(|i| matches!(i, OutputItem::Agg { .. }))
    }
}

fn resolve_in(tables: &[TableBinding], c: &ColRef) -> Result<(usize, usize)> {
    match &c.qualifier {
        Some(q) => {
            let t = tables
                .iter()
                .position(|b| &b.alias == q)
                .ok_or_else(|| RelError::UnknownColumn(format!("{q}.{}", c.name)))?;
            let col = tables[t].schema.column_index(&c.name)?;
            Ok((t, col))
        }
        None => {
            let mut hit = None;
            for (t, b) in tables.iter().enumerate() {
                if let Ok(col) = b.schema.column_index(&c.name) {
                    if hit.is_some() {
                        return Err(RelError::UnknownColumn(format!("ambiguous `{}`", c.name)));
                    }
                    hit = Some((t, col));
                }
            }
            hit.ok_or_else(|| RelError::UnknownColumn(c.name.clone()))
        }
    }
}

/// Rewrite every column reference in `e` to its alias-qualified form,
/// resolving through `inner` first and `outer` second. Returns the rewritten
/// expression and the set of inner tables it mentions; columns resolved to
/// the outer scope are reported in `outer_cols`.
fn qualify(
    e: &Expr,
    inner: &[TableBinding],
    outer: Option<&[TableBinding]>,
    inner_tables: &mut Vec<usize>,
    outer_cols: &mut Vec<(usize, usize)>,
) -> Result<Expr> {
    let mut rewrite = |c: &ColRef| -> Result<ColRef> {
        match resolve_in(inner, c) {
            Ok((t, col)) => {
                if !inner_tables.contains(&t) {
                    inner_tables.push(t);
                }
                Ok(ColRef::qualified(
                    inner[t].alias.clone(),
                    inner[t].schema.columns[col].name.clone(),
                ))
            }
            Err(inner_err) => match outer {
                Some(out) => {
                    let (t, col) = resolve_in(out, c).map_err(|_| inner_err)?;
                    outer_cols.push((t, col));
                    Ok(ColRef::qualified(
                        out[t].alias.clone(),
                        out[t].schema.columns[col].name.clone(),
                    ))
                }
                None => Err(inner_err),
            },
        }
    };
    map_cols(e, &mut rewrite)
}

/// Structural map over column references.
fn map_cols(e: &Expr, f: &mut impl FnMut(&ColRef) -> Result<ColRef>) -> Result<Expr> {
    Ok(match e {
        Expr::Col(c) => Expr::Col(f(c)?),
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Cmp(op, a, b) => Expr::Cmp(*op, Box::new(map_cols(a, f)?), Box::new(map_cols(b, f)?)),
        Expr::And(es) => Expr::And(es.iter().map(|e| map_cols(e, f)).collect::<Result<_>>()?),
        Expr::Or(es) => Expr::Or(es.iter().map(|e| map_cols(e, f)).collect::<Result<_>>()?),
        Expr::Not(e) => Expr::Not(Box::new(map_cols(e, f)?)),
        Expr::Arith(op, a, b) => {
            Expr::Arith(*op, Box::new(map_cols(a, f)?), Box::new(map_cols(b, f)?))
        }
        Expr::Neg(e) => Expr::Neg(Box::new(map_cols(e, f)?)),
        Expr::Case { branches, otherwise } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, t)| Ok((map_cols(c, f)?, map_cols(t, f)?)))
                .collect::<Result<_>>()?,
            otherwise: match otherwise {
                Some(e) => Some(Box::new(map_cols(e, f)?)),
                None => None,
            },
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(map_cols(expr, f)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(map_cols(expr, f)?),
            list: list.clone(),
            negated: *negated,
        },
        Expr::Between { expr, low, high } => Expr::Between {
            expr: Box::new(map_cols(expr, f)?),
            low: Box::new(map_cols(low, f)?),
            high: Box::new(map_cols(high, f)?),
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(map_cols(expr, f)?), negated: *negated }
        }
        Expr::Func(func, args) => {
            Expr::Func(*func, args.iter().map(|e| map_cols(e, f)).collect::<Result<_>>()?)
        }
    })
}

/// Analyze a statement against a catalog of schemas.
pub fn analyze(stmt: &SelectStmt, catalog: &[Schema]) -> Result<Analyzed> {
    let (analyzed, correlations) = analyze_scoped(stmt, catalog, None)?;
    debug_assert!(correlations.is_empty(), "top-level query cannot be correlated");
    Ok(analyzed)
}

/// Returns the analyzed query plus any correlation predicates that referred
/// to the `outer` scope (empty for top-level queries).
fn analyze_scoped(
    stmt: &SelectStmt,
    catalog: &[Schema],
    outer: Option<&[TableBinding]>,
) -> Result<(Analyzed, Vec<Correlation>)> {
    // ---- bind tables ------------------------------------------------------
    let mut tables = Vec::new();
    let mut all_from = stmt.from.clone();
    for j in &stmt.joins {
        if j.kind != JoinKind::Inner {
            return Err(RelError::Other(format!(
                "{}: the SQL planner does not support outer joins",
                j.kind
            )));
        }
        all_from.push(j.table.clone());
    }
    for t in &all_from {
        let schema = catalog
            .iter()
            .find(|s| s.name == t.relation)
            .ok_or_else(|| RelError::UnknownRelation(t.relation.clone()))?;
        if tables.iter().any(|b: &TableBinding| b.alias == t.alias) {
            return Err(RelError::Other(format!("duplicate alias `{}`", t.alias)));
        }
        tables.push(TableBinding {
            alias: t.alias.clone(),
            relation: t.relation.clone(),
            schema: schema.clone(),
            filters: Vec::new(),
        });
    }

    // ---- gather WHERE conjuncts (ON conditions of inner joins fold in) ----
    let mut conjuncts: Vec<QExpr> = Vec::new();
    for j in &stmt.joins {
        conjuncts.extend(QExpr::Base(j.on.clone()).conjuncts());
    }
    if let Some(w) = &stmt.where_clause {
        conjuncts.extend(w.clone().conjuncts());
    }

    let mut joins = Vec::new();
    let mut residual = Vec::new();
    let mut subqueries = Vec::new();
    let mut correlations = Vec::new();

    for conj in conjuncts {
        match conj {
            QExpr::Base(e) => {
                // Equi-join?
                if let Expr::Cmp(CmpOp::Eq, a, b) = &e {
                    if let (Expr::Col(ca), Expr::Col(cb)) = (a.as_ref(), b.as_ref()) {
                        let ra = resolve_in(&tables, ca);
                        let rb = resolve_in(&tables, cb);
                        match (ra, rb) {
                            (Ok(left), Ok(right)) if left.0 != right.0 => {
                                joins.push(JoinPred { left, right });
                                continue;
                            }
                            _ if outer.is_some() => {
                                // Possibly a correlation with the outer query.
                                if let Some(corr) = correlation_of(ca, cb, &tables, outer.unwrap())?
                                {
                                    correlations.push(corr);
                                    continue;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                let mut used = Vec::new();
                let mut outer_cols = Vec::new();
                let q = qualify(&e, &tables, outer, &mut used, &mut outer_cols)?;
                if !outer_cols.is_empty() {
                    return Err(RelError::Other(
                        "only equality correlations with the outer query are supported".into(),
                    ));
                }
                match used.len() {
                    0 | 1 => {
                        let t = used.first().copied().unwrap_or(0);
                        if tables.is_empty() {
                            return Err(RelError::Other("filter without tables".into()));
                        }
                        tables[t].filters.push(q);
                    }
                    _ => residual.push(q),
                }
            }
            QExpr::Exists { query, negated } => {
                let (sub, corr) = analyze_scoped(&query, catalog, Some(&tables))?;
                refuse_correlated_one_row_having(&sub, &corr, "EXISTS")?;
                subqueries.push(SubqueryPred {
                    kind: SubqueryKind::Exists { negated },
                    sub: Box::new(sub),
                    correlations: corr,
                });
            }
            QExpr::InSubquery { expr, query, negated } => {
                if !matches!(expr, Expr::Col(_)) {
                    return Err(RelError::Other(
                        "IN (subquery) requires a plain column on the left".into(),
                    ));
                }
                let mut used = Vec::new();
                let mut outer_cols = Vec::new();
                let outer_expr = qualify(&expr, &tables, None, &mut used, &mut outer_cols)?;
                let (sub, corr) = analyze_scoped(&query, catalog, Some(&tables))?;
                if sub.items.len() != 1 {
                    return Err(RelError::Other("IN subquery must select one column".into()));
                }
                refuse_correlated_one_row_having(&sub, &corr, "IN")?;
                subqueries.push(SubqueryPred {
                    kind: SubqueryKind::In { outer_expr, negated },
                    sub: Box::new(sub),
                    correlations: corr,
                });
            }
            QExpr::CmpSubquery { expr, op, query } => {
                let mut used = Vec::new();
                let mut outer_cols = Vec::new();
                let outer_expr = qualify(&expr, &tables, None, &mut used, &mut outer_cols)?;
                let (sub, corr) = analyze_scoped(&query, catalog, Some(&tables))?;
                if sub.items.len() != 1 || !matches!(sub.items[0], OutputItem::Agg { .. }) {
                    return Err(RelError::Other(
                        "scalar subquery must select exactly one aggregate".into(),
                    ));
                }
                if !sub.having.is_empty() {
                    return Err(RelError::Other(
                        "HAVING in a scalar subquery is not supported".into(),
                    ));
                }
                if !sub.group_by.is_empty() {
                    return Err(RelError::Other(
                        "GROUP BY in a scalar subquery is not supported".into(),
                    ));
                }
                subqueries.push(SubqueryPred {
                    kind: SubqueryKind::Scalar { outer_expr, op },
                    sub: Box::new(sub),
                    correlations: corr,
                });
            }
            QExpr::And(_) => unreachable!("conjuncts() flattens AND"),
            other @ (QExpr::Or(_) | QExpr::Not(_)) => {
                // OR/NOT containing subqueries is out of scope; subquery-free
                // ones were handled as Base by the parser only when directly
                // constructed — handle the residual case here.
                match other.into_base() {
                    Some(e) => {
                        let mut used = Vec::new();
                        let mut outer_cols = Vec::new();
                        let q = qualify(&e, &tables, outer, &mut used, &mut outer_cols)?;
                        if !outer_cols.is_empty() {
                            return Err(RelError::Other(
                                "correlated OR predicates are not supported".into(),
                            ));
                        }
                        if used.len() <= 1 {
                            tables[used.first().copied().unwrap_or(0)].filters.push(q);
                        } else {
                            residual.push(q);
                        }
                    }
                    None => {
                        return Err(RelError::Other(
                            "OR/NOT over subqueries is not supported".into(),
                        ))
                    }
                }
            }
        }
    }

    for e in &residual {
        for (t, f) in implied_filters(e, &tables) {
            tables[t].filters.push(f);
        }
    }

    let mut analyzed = Analyzed {
        tables,
        joins,
        residual,
        subqueries,
        items: Vec::new(),
        group_by: Vec::new(),
        having: stmt.having.clone(),
        agg_class: AggClass::NoAgg,
    };

    // ---- output items ------------------------------------------------------
    let mut items = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        let name = item.output_name(i);
        match item {
            SelectItem::Expr { expr, .. } => {
                if let Expr::Col(c) = expr {
                    let (t, col) = analyzed.resolve(c)?;
                    items.push(OutputItem::Col { table: t, col, name });
                } else {
                    let mut used = Vec::new();
                    let mut outer_cols = Vec::new();
                    let q = qualify(expr, &analyzed.tables, None, &mut used, &mut outer_cols)?;
                    items.push(OutputItem::Expr { expr: q, name });
                }
            }
            SelectItem::Agg { func, arg, .. } => {
                let arg = match arg {
                    Some(e) => {
                        let mut used = Vec::new();
                        let mut outer_cols = Vec::new();
                        Some(qualify(e, &analyzed.tables, None, &mut used, &mut outer_cols)?)
                    }
                    None => None,
                };
                items.push(OutputItem::Agg { func: *func, arg, name });
            }
        }
    }
    analyzed.items = items;

    // ---- group by / having / classification --------------------------------
    for c in &stmt.group_by {
        analyzed.group_by.push(analyzed.resolve(c)?);
    }
    let mut having = Vec::new();
    for h in &stmt.having {
        let arg = match &h.arg {
            Some(e) => {
                let mut used = Vec::new();
                let mut outer_cols = Vec::new();
                Some(qualify(e, &analyzed.tables, None, &mut used, &mut outer_cols)?)
            }
            None => None,
        };
        having.push(HavingPred { func: h.func, arg, op: h.op, rhs: h.rhs.clone() });
    }
    analyzed.having = having;
    analyzed.agg_class = classify(&analyzed);
    check_grouped(&analyzed)?;
    Ok((analyzed, correlations))
}

/// The filters a cross-table OR residual implies: for each table `t` such
/// that every disjunct holds a conjunct testing a column of `t` against
/// constants, the OR over the disjuncts of those conjuncts. A row the
/// residual keeps passes them, and they evaluate without error, so a table
/// may drop the tuples they reject before any join while the residual stays
/// (q19's containers and quantities).
fn implied_filters(e: &Expr, tables: &[TableBinding]) -> Vec<(usize, Expr)> {
    fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        match e {
            Expr::And(es) => es.iter().for_each(|e| conjuncts(e, out)),
            e => out.push(e),
        }
    }
    let Expr::Or(disjuncts) = e else { return Vec::new() };
    let tested: Vec<Vec<(usize, &Expr)>> = disjuncts
        .iter()
        .map(|d| {
            let mut cs = Vec::new();
            conjuncts(d, &mut cs);
            let table = |c: &Expr| Some(resolve_in(tables, c.column_vs_constant()?).ok()?.0);
            cs.into_iter().filter_map(|c| Some((table(c)?, c))).collect()
        })
        .collect();
    (0..tables.len())
        .filter_map(|t| {
            let on_t = |cs: &Vec<(usize, &Expr)>| {
                let mut on: Vec<Expr> =
                    cs.iter().filter(|&&(u, _)| u == t).map(|&(_, c)| c.clone()).collect();
                match on.len() {
                    0 => None,
                    1 => on.pop(),
                    _ => Some(Expr::And(on)),
                }
            };
            Some((t, Expr::Or(tested.iter().map(on_t).collect::<Option<_>>()?)))
        })
        .collect()
}

/// Refuse a correlated EXISTS or IN subquery over an aggregate without
/// GROUP BY that has HAVING: its one row per outer row exists only when
/// HAVING holds over that row's inner rows, possibly none, and the lowered
/// inner query sees no key that no inner row holds.
fn refuse_correlated_one_row_having(
    sub: &Analyzed,
    corr: &[Correlation],
    what: &str,
) -> Result<()> {
    if sub.agg_class == AggClass::Scalar && !sub.having.is_empty() && !corr.is_empty() {
        return Err(RelError::Other(format!(
            "HAVING in a correlated {what} subquery over an aggregate without GROUP BY \
             is not supported"
        )));
    }
    Ok(())
}

/// Decide whether `a = b` is a correlation between `inner` and `outer`
/// scopes (one side resolves only in each).
fn correlation_of(
    a: &ColRef,
    b: &ColRef,
    inner: &[TableBinding],
    outer: &[TableBinding],
) -> Result<Option<Correlation>> {
    let (ia, oa) = (resolve_in(inner, a).ok(), resolve_in(outer, a).ok());
    let (ib, ob) = (resolve_in(inner, b).ok(), resolve_in(outer, b).ok());
    // Prefer the inner interpretation when both resolve (SQL scoping rule).
    match (ia, ib, oa, ob) {
        (Some(i), None, _, Some(o)) => Ok(Some(Correlation { inner: i, outer: o })),
        (None, Some(i), Some(o), _) => Ok(Some(Correlation { inner: i, outer: o })),
        _ => Ok(None),
    }
}

/// Aggregation classification per paper Section 7: local aggregation when a
/// single attribute keys the groups (or one group key functionally
/// determines the rest, approximated via primary keys); global when several
/// independent attributes key the groups; scalar when there is no GROUP BY.
pub(crate) fn classify(a: &Analyzed) -> AggClass {
    let has_agg = a.has_aggregates() || !a.having.is_empty();
    if a.group_by.is_empty() {
        return if has_agg { AggClass::Scalar } else { AggClass::NoAgg };
    }
    if a.group_by.len() == 1 {
        return AggClass::Local;
    }
    // Multiple keys: local iff all come from one table and one of them is a
    // single-column primary key of that table (it determines the others).
    let t0 = a.group_by[0].0;
    let same_table = a.group_by.iter().all(|&(t, _)| t == t0);
    if same_table {
        let pk = &a.tables[t0].schema.primary_key;
        if pk.len() == 1 && a.group_by.iter().any(|&(_, c)| c == pk[0]) {
            return AggClass::Local;
        }
    }
    AggClass::Global
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use vcsql_relation::schema::Column;
    use vcsql_relation::DataType;

    fn catalog() -> Vec<Schema> {
        vec![
            Schema::new(
                "nation",
                vec![Column::new("nationkey", DataType::Int), Column::new("n_name", DataType::Str)],
            )
            .with_primary_key(&["nationkey"]),
            Schema::new(
                "customer",
                vec![
                    Column::new("custkey", DataType::Int),
                    Column::new("c_nationkey", DataType::Int),
                    Column::new("c_name", DataType::Str),
                ],
            )
            .with_primary_key(&["custkey"]),
            Schema::new(
                "orders",
                vec![
                    Column::new("orderkey", DataType::Int),
                    Column::new("o_custkey", DataType::Int),
                    Column::new("total", DataType::Float),
                ],
            )
            .with_primary_key(&["orderkey"]),
        ]
    }

    #[test]
    fn splits_filters_joins_residual() {
        let stmt = parse(
            "SELECT c.c_name FROM customer c, orders o, nation n \
             WHERE c.custkey = o.o_custkey AND n.nationkey = c.c_nationkey \
             AND o.total > 100 AND c.c_name < n.n_name",
        )
        .unwrap();
        let a = analyze(&stmt, &catalog()).unwrap();
        assert_eq!(a.tables.len(), 3);
        assert_eq!(a.joins.len(), 2);
        assert_eq!(a.residual.len(), 1);
        assert_eq!(a.tables[1].filters.len(), 1); // o.total > 100
        assert_eq!(a.agg_class, AggClass::NoAgg);
    }

    #[test]
    fn bare_columns_resolve_uniquely() {
        let stmt = parse(
            "SELECT c_name FROM customer c, orders o WHERE custkey = o_custkey AND total > 5",
        )
        .unwrap();
        let a = analyze(&stmt, &catalog()).unwrap();
        assert_eq!(a.joins.len(), 1);
        assert!(matches!(a.items[0], OutputItem::Col { table: 0, col: 2, .. }));
    }

    #[test]
    fn ambiguity_and_unknowns_error() {
        let cat = vec![
            Schema::new("a", vec![Column::new("x", DataType::Int)]),
            Schema::new("b", vec![Column::new("x", DataType::Int)]),
        ];
        let stmt = parse("SELECT x FROM a, b").unwrap();
        assert!(analyze(&stmt, &cat).is_err());
        let stmt = parse("SELECT y FROM a").unwrap();
        assert!(analyze(&stmt, &cat).is_err());
        let stmt = parse("SELECT x FROM missing").unwrap();
        assert!(analyze(&stmt, &cat).is_err());
    }

    #[test]
    fn agg_classification() {
        let cat = catalog();
        let scalar = parse("SELECT SUM(o.total) FROM orders o").unwrap();
        assert_eq!(analyze(&scalar, &cat).unwrap().agg_class, AggClass::Scalar);
        let local = parse(
            "SELECT n.n_name, SUM(o.total) FROM nation n, customer c, orders o \
             WHERE n.nationkey = c.c_nationkey AND c.custkey = o.o_custkey GROUP BY n.n_name",
        )
        .unwrap();
        assert_eq!(analyze(&local, &cat).unwrap().agg_class, AggClass::Local);
        // Two group keys from one table including its PK → still local.
        let local2 = parse(
            "SELECT c.custkey, c.c_name, COUNT(*) FROM customer c \
             GROUP BY c.custkey, c.c_name",
        )
        .unwrap();
        assert_eq!(analyze(&local2, &cat).unwrap().agg_class, AggClass::Local);
        // Keys from two tables → global.
        let global = parse(
            "SELECT n.n_name, c.c_name, COUNT(*) FROM nation n, customer c \
             WHERE n.nationkey = c.c_nationkey GROUP BY n.n_name, c.c_name",
        )
        .unwrap();
        assert_eq!(analyze(&global, &cat).unwrap().agg_class, AggClass::Global);
    }

    #[test]
    fn correlated_exists_extracts_correlation() {
        let stmt = parse(
            "SELECT c.c_name FROM customer c WHERE EXISTS \
             (SELECT o.orderkey FROM orders o WHERE o.o_custkey = c.custkey AND o.total > 10)",
        )
        .unwrap();
        let a = analyze(&stmt, &catalog()).unwrap();
        assert_eq!(a.subqueries.len(), 1);
        let sq = &a.subqueries[0];
        assert!(matches!(sq.kind, SubqueryKind::Exists { negated: false }));
        assert_eq!(sq.correlations.len(), 1);
        // inner orders.o_custkey (table 0 of subquery, col 1) = outer
        // customer.custkey (table 0, col 0).
        assert_eq!(sq.correlations[0].inner, (0, 1));
        assert_eq!(sq.correlations[0].outer, (0, 0));
        // Subquery keeps its own filter.
        assert_eq!(sq.sub.tables[0].filters.len(), 1);
    }

    /// An OR across tables lends each table whose columns every disjunct
    /// tests against constants the OR of those tests, and stays a residual;
    /// a table some disjunct leaves untested, or tests against another
    /// column, gains nothing.
    #[test]
    fn or_residuals_imply_single_table_filters() {
        let stmt = parse(
            "SELECT c.c_name FROM customer c, orders o WHERE c.custkey = o.o_custkey \
             AND ((c.c_name = 'a' AND o.total > 1 AND o.total < 5) \
                  OR (c.c_name = 'b' AND o.total BETWEEN 7 AND 9) \
                  OR (c.c_name = 'c' AND o.total > c.c_nationkey))",
        )
        .unwrap();
        let a = analyze(&stmt, &catalog()).unwrap();
        assert_eq!(a.residual.len(), 1);
        let shown: Vec<String> = a.tables[0].filters.iter().map(|f| f.to_string()).collect();
        assert_eq!(shown, ["((c.c_name = 'a') OR (c.c_name = 'b') OR (c.c_name = 'c'))"]);
        assert!(a.tables[1].filters.is_empty(), "{:?}", a.tables[1].filters);
    }

    #[test]
    fn scalar_subquery_shape_enforced() {
        let ok = parse(
            "SELECT o.orderkey FROM orders o WHERE o.total < \
             (SELECT AVG(o2.total) FROM orders o2)",
        )
        .unwrap();
        assert!(analyze(&ok, &catalog()).is_ok());
        let bad = parse(
            "SELECT o.orderkey FROM orders o WHERE o.total < \
             (SELECT o2.total FROM orders o2)",
        )
        .unwrap();
        assert!(analyze(&bad, &catalog()).is_err());
    }
}
