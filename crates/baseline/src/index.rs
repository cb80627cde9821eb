//! Hash indexes on relation columns.
//!
//! Stand-ins for the B-tree PK/FK indexes the TPC protocol prescribes for
//! the RDBMS contenders: built after load, their build time and size feed
//! the Table 1/2 and Fig 14 experiments.

use vcsql_relation::{fx, FxHashMap, Relation, Value};

/// A hash index from one column's values to tuple positions.
#[derive(Debug, Clone)]
pub struct HashIndex {
    pub relation: String,
    pub column: usize,
    map: FxHashMap<Value, Vec<u32>>,
}

impl HashIndex {
    /// Build over a relation column (NULLs are not indexed).
    pub fn build(rel: &Relation, column: usize) -> HashIndex {
        let mut map: FxHashMap<Value, Vec<u32>> = fx::map_with_capacity(rel.len());
        for (i, t) in rel.tuples.iter().enumerate() {
            let v = t.get(column);
            if !v.is_null() {
                map.entry(v.clone()).or_default().push(i as u32);
            }
        }
        HashIndex { relation: rel.name().to_string(), column, map }
    }

    /// Tuple positions with the given value.
    pub fn lookup(&self, v: &Value) -> &[u32] {
        self.map.get(v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Approximate footprint in bytes.
    pub fn deep_size(&self) -> usize {
        self.map.iter().map(|(k, v)| k.deep_size() + v.len() * 4 + 48).sum::<usize>()
    }
}

/// Build the PK/FK indexes the TPC protocol prescribes: one per primary-key
/// column and one per foreign-key column.
pub fn build_pk_fk_indexes(rel: &Relation) -> Vec<HashIndex> {
    let mut cols: Vec<usize> = rel.schema.primary_key.clone();
    for fk in &rel.schema.foreign_keys {
        for c in &fk.columns {
            if let Ok(i) = rel.schema.column_index(c) {
                if !cols.contains(&i) {
                    cols.push(i);
                }
            }
        }
    }
    cols.into_iter().map(|c| HashIndex::build(rel, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_relation::schema::{Column, Schema};
    use vcsql_relation::{DataType, Tuple};

    fn rel() -> Relation {
        let schema = Schema::new(
            "orders",
            vec![Column::new("ok", DataType::Int), Column::new("ck", DataType::Int)],
        )
        .with_primary_key(&["ok"])
        .with_foreign_key(&["ck"], "customer", &["ck"]);
        Relation::from_tuples(
            schema,
            vec![
                Tuple::new(vec![Value::Int(1), Value::Int(10)]),
                Tuple::new(vec![Value::Int(2), Value::Int(10)]),
                Tuple::new(vec![Value::Int(3), Value::Null]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn lookup_and_nulls() {
        let idx = HashIndex::build(&rel(), 1);
        assert_eq!(idx.lookup(&Value::Int(10)), &[0, 1]);
        assert!(idx.lookup(&Value::Int(99)).is_empty());
        assert!(idx.lookup(&Value::Null).is_empty());
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn pk_fk_indexes() {
        let idxs = build_pk_fk_indexes(&rel());
        assert_eq!(idxs.len(), 2);
        assert_eq!(idxs[0].column, 0);
        assert_eq!(idxs[1].column, 1);
        assert!(idxs[0].deep_size() > 0);
    }
}
