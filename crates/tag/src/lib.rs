//! # vcsql-tag — the Tuple-Attribute Graph encoding (paper Section 3)
//!
//! Encodes a relational [`Database`](vcsql_relation::Database) as a bipartite
//! graph:
//!
//! * one **tuple vertex** per tuple occurrence, labelled with its relation
//!   name, storing the tuple in its state;
//! * one **attribute vertex** per *distinct* value in the active domain,
//!   labelled by type (`@int`, `@str`, ...), shared across relations and
//!   attribute names;
//! * one undirected edge labelled `R.A` per occurrence of value `a` in
//!   attribute `A` of an `R`-tuple.
//!
//! Attribute vertices are the implicit index: the tuples joining through a
//! value are exactly the neighbours of its attribute vertex, partitioned by
//! edge label. The encoding is query-independent and linear in the database
//! size.
//!
//! The paper's materialization policy (Section 3) is honoured: a column
//! whose schema does not
//! [`materialize`](vcsql_relation::schema::Column::materialize) it (floats,
//! whose equality is "tricky", by default) gets no attribute vertices and
//! lives only in the tuple state, and a string over 64 bytes (long text, an
//! unlikely join key) gets none either and takes its column out of joins.
//!
//! [`TagBuilder`] is the mutable form supporting the paper's cheap local
//! maintenance (inserting a tuple appends its vertices and links, deleting
//! one sets a tombstone); building yields the immutable CSR graph the BSP
//! engine executes over. Both forms are flat arrays — numbered labels, one
//! link list, payload values in one arena in vertex-id order — so loading
//! allocates per array, not per vertex.

pub mod build;

pub use build::{EdgeCounts, TagBuilder, TagGraph, TagStats};
