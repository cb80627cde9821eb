//! # vcsql-baseline — reference relational executors
//!
//! The comparison systems of the paper's evaluation, rebuilt in miniature:
//!
//! * [`row`] — classical row-store operators: selection, hash join,
//!   sort-merge join and cross join over provenance-tagged rows;
//! * [`exec`] — a binary-join-at-a-time query executor over an
//!   [`Analyzed`](vcsql_query::Analyzed) query (greedy smallest-first join
//!   order), playing the role of PostgreSQL / RDBMS-X / RDBMS-Y row stores.
//!   It doubles as the **correctness oracle** for the vertex-centric
//!   executor;
//! * [`columnar`] — a dictionary-encoded in-memory column store with
//!   vectorized scans and filters, playing the role of RDBMS-X IM (the
//!   in-memory column store the paper loses to on scans and scalar
//!   aggregation);
//! * [`index`] — hash indexes on PK/FK columns, standing in for the B-tree
//!   indexes the TPC protocol prescribes (their build time and size feed the
//!   loading-cost experiments).

pub mod columnar;
pub mod exec;
pub mod index;
pub mod row;

pub use columnar::ColumnarDatabase;
pub use exec::{execute, ExecConfig, JoinAlgo};
pub use index::HashIndex;
