//! # vcsql-relation — relational substrate
//!
//! The foundation layer shared by every other crate in the workspace:
//! SQL-style [`Value`]s with NULL semantics, [`Schema`]s and [`Relation`]s,
//! an in-memory [`Database`], scalar [`expr::Expr`]essions (comparisons,
//! arithmetic, `CASE`, `LIKE`, date functions) and aggregate functions.
//!
//! Nothing in this crate knows about graphs or vertex-centric execution; it is
//! the "relational instance" side of the paper's TAG encoding (Section 3) and
//! the substrate under the reference RDBMS-style baselines.

pub mod agg;
pub mod database;
pub mod error;
pub mod expr;
pub mod fx;
pub mod io;
pub mod mem;
pub mod schema;
pub mod tuple;
pub mod value;

pub use database::Database;
pub use error::RelError;
pub use fx::{FxHashMap, FxHashSet};
pub use mem::DeepSize;
pub use schema::{Column, ForeignKey, Schema};
pub use tuple::{Relation, Tuple};
pub use value::{DataType, Date, Value};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, RelError>;
