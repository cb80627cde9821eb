//! # vcsql-core — TAG-join: vertex-centric SQL evaluation
//!
//! The paper's primary contribution. Given a relational database encoded as
//! a Tuple-Attribute Graph ([`vcsql_tag::TagGraph`]), this crate evaluates
//! SQL queries as vertex-centric BSP programs:
//!
//! * [`exec::TagJoinExecutor`] — the full pipeline: plan (GYO join tree /
//!   broken-cycle GHD → TAG plan → `GenSteps`), then the three-pass vertex
//!   program of Algorithm 2 (bottom-up reduction over the whole plan,
//!   top-down reduction and collection over the tables it keeps — a branch
//!   that only filters, unique-keyed in the data, is left to the first
//!   pass), plus the Section 7 operators: pushed-down selections and
//!   projections, local/global/scalar aggregation, EXISTS and NOT EXISTS
//!   as semijoin branches of the outer walk, and the other (correlated)
//!   subqueries by reverse lookup: the inner plans run first, and
//!   `vcsql_query::subquery` judges the outer rows. Aggregation here is
//!   only *where* partial groups form — per root, then at the group-key
//!   attribute vertices (local) or in the aggregator (global, scalar);
//!   `vcsql_query::output` owns what a group is and how groups, HAVING
//!   and projection become output rows. Cartesian products across
//!   join-graph components run Section 6.3's Algorithm B.
//! * [`plan::QueryPlan`] — a prepared statement: the analyzed query, its
//!   candidate TAG plans and its subqueries' plans, reusable across
//!   executions; [`cost::Shape`] — the root and child order it runs in on
//!   one TAG, chosen by cost from the TAG's own counts and memoized.
//! * [`table::Table`] — the collection phase's intermediate tables, rows of
//!   tuple-vertex ids, and [`table::TagMsg`], the program's messages.
//!
//! Every vertex program here is the SQL path, and runs inside the engine's
//! recoverable phases. The standalone §4 two-way join and §6.1–6.2 cycle
//! counting are ablations of the paper's cost claims; they live with the
//! `repro cost-model` and `repro triangle-theta` experiments.

mod bind;
pub mod cost;
pub mod exec;
pub mod plan;
pub mod table;

pub use cost::Shape;
pub use exec::{ExecOutput, ScratchPool, TagJoinExecutor};
pub use plan::QueryPlan;
pub use table::{ColKey, Table, TagMsg};
