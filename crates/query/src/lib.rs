//! # vcsql-query — SQL front-end and vertex-centric query planning
//!
//! The pipeline implemented here:
//!
//! 1. [`parse`] — a hand-rolled lexer + recursive-descent parser for the SQL
//!    subset used by the TPC-style workloads (SELECT/FROM with comma joins
//!    and explicit `[LEFT|RIGHT|FULL] JOIN ... ON`, WHERE with subqueries,
//!    GROUP BY, HAVING, CASE/LIKE/IN/BETWEEN, arithmetic, date functions).
//! 2. [`analyze::analyze`] — name resolution against a catalog, splitting the
//!    WHERE clause into per-table filters, equi-join predicates, cross-table
//!    residual filters and subquery predicates; classification of the
//!    aggregation style (none / local / global / scalar — the classes of
//!    paper Section 7 and Fig 15).
//! 3. [`subquery`] — subqueries by reverse lookup: [`lower_subquery`]
//!    reshapes the inner query, its rows fold straight into a probe table
//!    ([`SubqueryCheck::finish`]), and [`SubqueryResult::holds`] is the one
//!    SQL three-valued rule both executors judge outer rows by.
//! 4. [`output`] — a statement's output: [`Analyzed::output`] binds GROUP
//!    BY, aggregates, HAVING and projection to an executor's row layout, and
//!    [`Output::finish`] is the one place groups become output rows (the
//!    no-input scalar row, HAVING, the SUM overflow error). Analysis refuses
//!    output columns that are neither grouped nor aggregated.
//! 5. [`gyo`] — join hypergraph + GYO ear-removal: acyclicity test and join
//!    tree construction; cyclic queries get a cycle-breaking fallback (the
//!    broken predicate is enforced as a residual filter) plus metadata for
//!    the dedicated cycle executor.
//! 6. [`tagplan`] — the paper's TAG plan (Section 5.1) built from the join
//!    tree, and `GenSteps` (Algorithm 1): the connected bottom-up traversal
//!    producing the edge-label list that drives the vertex program. The
//!    join tree's root and child order carry no meaning here: the executor
//!    (`vcsql_core::cost`) reroots it and orders children by cost.
//! 7. [`rows`] — the row operators (scan, hash / sort-merge / cross join
//!    over provenance-tagged rows) that the row-store baseline and the Spark
//!    shuffle model both execute plans with.

pub mod analyze;
pub mod ast;
pub mod gyo;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod rows;
pub mod subquery;
pub mod tagplan;

pub use analyze::{
    analyze, AggClass, Analyzed, Correlation, JoinPred, OutputItem, SubqueryKind, SubqueryPred,
    TableBinding,
};
pub use ast::{HavingPred, JoinKind, QExpr, SelectItem, SelectStmt, TableRef};
pub use gyo::{decompose, Decomposition, JoinTree, JoinVar};
pub use output::{Gather, Output};
pub use parser::parse;
pub use subquery::{
    lower_subquery, seed, BoundSubquery, LoweredSubquery, SubqueryCheck, SubqueryResult,
};
pub use tagplan::{PlanNode, Step, TagPlan};
