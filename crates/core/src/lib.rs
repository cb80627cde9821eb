//! # vcsql-core — TAG-join: vertex-centric SQL evaluation
//!
//! The paper's primary contribution. Given a relational database encoded as
//! a Tuple-Attribute Graph ([`vcsql_tag::TagGraph`]), this crate evaluates
//! SQL queries as vertex-centric BSP programs:
//!
//! * [`exec::TagJoinExecutor`] — the full pipeline: plan (GYO join tree /
//!   broken-cycle GHD → TAG plan → `GenSteps`), then the three-pass vertex
//!   program of Algorithm 2 (bottom-up reduction, top-down reduction,
//!   collection), plus the Section 7 operators: pushed-down selections and
//!   projections, local/global/scalar aggregation, HAVING, and (correlated)
//!   subqueries via semi/anti-join key sets and scalar maps.
//! * [`twoway`] — the standalone two-way join of Section 4, including the
//!   multi-attribute intersection protocol (Section 4.2) and the factorized
//!   output option.
//! * [`cyclic`] — worst-case-optimal triangle and n-cycle counting with the
//!   heavy/light split of Sections 6.1–6.2.
//! * [`cartesian`] — Cartesian products via a global aggregation vertex
//!   (Section 6.3, Algorithms A and B).
//! * [`outer`] — two-way left/right/full outer joins (Section 7).
//! * [`semi`] — standalone semi-joins and anti-joins (Section 7).

mod bind;
pub mod cartesian;
pub mod cyclic;
pub mod exec;
pub mod outer;
pub mod plan;
pub mod semi;
pub mod table;
pub mod twoway;

pub use exec::{ExecOutput, TagJoinExecutor};
pub use plan::QueryPlan;
pub use table::{ColKey, Table, TagMsg};
