//! Relation schemas: named, typed columns with primary/foreign key metadata.
//!
//! Key metadata is not needed for correctness of any algorithm, but the paper
//! leans on PK-FK structure for its optimality arguments (Section 6.1.1) and
//! the baselines use it to build indexes, so schemas carry it.

use crate::error::RelError;
use crate::value::{DataType, Value};
use crate::Result;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: DataType,
    /// If false, the TAG builder will not materialize attribute vertices for
    /// this column (the paper's policy for floats / long text, Section 3).
    pub materialize: bool,
}

impl Column {
    /// A column materialized as TAG attribute vertices (the default for join-
    /// able types).
    pub fn new(name: impl Into<String>, ty: DataType) -> Column {
        // Floats are never materialized by default, matching the paper's
        // policy for "tricky" equality domains.
        let materialize = ty != DataType::Float;
        Column { name: name.into(), ty, materialize }
    }

    /// A column stored only inside tuple vertices (no attribute vertex).
    pub fn unindexed(name: impl Into<String>, ty: DataType) -> Column {
        Column { name: name.into(), ty, materialize: false }
    }
}

/// A foreign-key reference: `this.columns -> other_relation.columns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub columns: Vec<String>,
    pub references: String,
    pub referenced_columns: Vec<String>,
}

/// The schema of one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub name: String,
    pub columns: Vec<Column>,
    /// Indexes (into `columns`) of the primary-key columns, possibly empty.
    pub primary_key: Vec<usize>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl Schema {
    /// Create a schema with no keys.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Schema {
        Schema { name: name.into(), columns, primary_key: Vec::new(), foreign_keys: Vec::new() }
    }

    /// Builder-style: declare the primary key by column names.
    pub fn with_primary_key(mut self, cols: &[&str]) -> Schema {
        self.primary_key = cols
            .iter()
            .map(|c| self.column_index(c).unwrap_or_else(|_| panic!("pk column {c} not in schema")))
            .collect();
        self
    }

    /// Builder-style: add a foreign key.
    pub fn with_foreign_key(mut self, cols: &[&str], refs: &str, ref_cols: &[&str]) -> Schema {
        for c in cols {
            assert!(self.column_index(c).is_ok(), "fk column {c} not in schema");
        }
        self.foreign_keys.push(ForeignKey {
            columns: cols.iter().map(|s| s.to_string()).collect(),
            references: refs.to_string(),
            referenced_columns: ref_cols.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Check that `values` is a row of this schema: one value per column,
    /// each NULL or of its column's type.
    pub fn check(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.arity() {
            return Err(RelError::ArityMismatch { expected: self.arity(), found: values.len() });
        }
        for (col, v) in self.columns.iter().zip(values) {
            if let Some(ty) = v.data_type() {
                if ty != col.ty {
                    return Err(RelError::type_mismatch(
                        format!("{} for column {}.{}", col.ty, self.name, col.name),
                        ty.to_string(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Resolve a column name to its position.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelError::UnknownColumn(format!("{}.{}", self.name, name)))
    }

    /// The column definition by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Column names in order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(
            "orders",
            vec![
                Column::new("o_orderkey", DataType::Int),
                Column::new("o_custkey", DataType::Int),
                Column::unindexed("o_comment", DataType::Str),
                Column::new("o_totalprice", DataType::Float),
            ],
        )
        .with_primary_key(&["o_orderkey"])
        .with_foreign_key(&["o_custkey"], "customer", &["c_custkey"])
    }

    #[test]
    fn resolves_columns() {
        let s = sample();
        assert_eq!(s.column_index("o_custkey").unwrap(), 1);
        assert!(s.column_index("nope").is_err());
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn float_columns_default_to_unmaterialized() {
        let s = sample();
        assert!(!s.column("o_totalprice").unwrap().materialize);
        assert!(s.column("o_orderkey").unwrap().materialize);
        assert!(!s.column("o_comment").unwrap().materialize);
    }
}
