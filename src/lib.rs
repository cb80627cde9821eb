//! # vcsql — vertex-centric parallel computation of SQL queries
//!
//! Facade crate for the workspace reproducing Smagulova & Deutsch,
//! *Vertex-centric Parallel Computation of SQL Queries* (SIGMOD 2021).
//!
//! The pipeline, end to end:
//!
//! 1. Build or load a relational [`relation::Database`].
//! 2. Encode it once, query-independently, as a Tuple-Attribute Graph with
//!    [`tag::TagGraph::build`].
//! 3. Open a long-lived [`Session`] over the graph (locally, or on a
//!    simulated [`Cluster`]), [`Session::prepare`] SQL once — parse, analyze,
//!    GYO decomposition and TAG plan are cached behind a bounded plan cache —
//!    and [`Session::execute`] the prepared statement as often as needed.
//!    Distributed sessions observe their own traffic and repartition online
//!    as the query mix drifts.
//! 4. Underneath, [`core::TagJoinExecutor`] runs the plans on the
//!    vertex-centric BSP engine in [`bsp`]; the reference relational engines
//!    live in [`baseline`].
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the full system inventory.

pub use vcsql_baseline as baseline;
pub use vcsql_bsp as bsp;
pub use vcsql_core as core;
pub use vcsql_dist as dist;
pub use vcsql_query as query;
pub use vcsql_relation as relation;
pub use vcsql_server as server;
pub use vcsql_session as session;
pub use vcsql_tag as tag;
pub use vcsql_workload as workload;

pub use vcsql_bsp::{Fault, FaultError, FaultInjector, FaultPlan};
pub use vcsql_server::{Arbitration, QueryServer, ServerConfig, TenantSession};
pub use vcsql_session::{Cluster, HostStats, PlanCache, PreparedQuery, Session, SessionConfig};
