//! A dictionary-encoded in-memory column store ("RDBMS-X IM" stand-in).
//!
//! Each column is stored as a dictionary of distinct values plus a vector of
//! u32 codes — the compressed columnar format the paper credits for the IM
//! engine's fast scans, filters and scalar aggregation. The store offers
//! vectorized selection (predicate over one column → row-id bitmap); joins
//! and aggregation materialize rows and reuse the row engine (like the
//! hybrid row/column execution of real systems).

use vcsql_relation::{fx, Database, FxHashMap, Relation, Value};

/// One dictionary-encoded column.
#[derive(Debug, Clone)]
pub struct ColumnChunk {
    pub dict: Vec<Value>,
    pub codes: Vec<u32>,
}

/// Code reserved for NULL.
pub const NULL_CODE: u32 = u32::MAX;

impl ColumnChunk {
    /// Encode a column of values.
    pub fn encode(values: impl Iterator<Item = Value>) -> ColumnChunk {
        let mut dict = Vec::new();
        let mut codes = Vec::new();
        let mut seen: FxHashMap<Value, u32> = fx::map_with_capacity(64);
        for v in values {
            if v.is_null() {
                codes.push(NULL_CODE);
                continue;
            }
            let code = *seen.entry(v.clone()).or_insert_with(|| {
                dict.push(v);
                (dict.len() - 1) as u32
            });
            codes.push(code);
        }
        ColumnChunk { dict, codes }
    }

    /// Decode one row's value.
    pub fn get(&self, row: usize) -> Value {
        match self.codes[row] {
            NULL_CODE => Value::Null,
            c => self.dict[c as usize].clone(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Vectorized selection: evaluate `pred` once per *dictionary entry*,
    /// then scan codes — the classic dictionary-scan trick that makes
    /// column stores fast on low-cardinality filters.
    pub fn select(&self, mut pred: impl FnMut(&Value) -> bool) -> Vec<bool> {
        let dict_pass: Vec<bool> = self.dict.iter().map(&mut pred).collect();
        self.codes
            .iter()
            .map(|&c| if c == NULL_CODE { false } else { dict_pass[c as usize] })
            .collect()
    }

    /// Approximate footprint in bytes (codes + dictionary).
    pub fn deep_size(&self) -> usize {
        self.codes.len() * 4 + self.dict.iter().map(Value::deep_size).sum::<usize>()
    }
}

/// A dictionary-encoded table.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    pub name: String,
    pub columns: Vec<ColumnChunk>,
    pub rows: usize,
}

impl ColumnarTable {
    /// Encode a row-store relation.
    pub fn from_relation(rel: &Relation) -> ColumnarTable {
        let columns = (0..rel.schema.arity())
            .map(|c| ColumnChunk::encode(rel.tuples.iter().map(|t| t.get(c).clone())))
            .collect();
        ColumnarTable { name: rel.name().to_string(), columns, rows: rel.len() }
    }

    /// Decode back to rows (used when handing off to the row engine for
    /// joins).
    pub fn materialize_rows(&self, selected: Option<&[bool]>) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for r in 0..self.rows {
            if selected.is_some_and(|s| !s[r]) {
                continue;
            }
            out.push(self.columns.iter().map(|c| c.get(r)).collect());
        }
        out
    }

    /// Approximate footprint in bytes.
    pub fn deep_size(&self) -> usize {
        self.columns.iter().map(ColumnChunk::deep_size).sum()
    }
}

/// A database of columnar tables.
#[derive(Debug, Clone, Default)]
pub struct ColumnarDatabase {
    pub tables: Vec<ColumnarTable>,
}

impl ColumnarDatabase {
    /// Encode a whole row database.
    pub fn from_database(db: &Database) -> ColumnarDatabase {
        ColumnarDatabase { tables: db.relations().map(ColumnarTable::from_relation).collect() }
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Option<&ColumnarTable> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Total compressed size in bytes (the paper's Table 15 quantity).
    pub fn deep_size(&self) -> usize {
        self.tables.iter().map(ColumnarTable::deep_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_relation::schema::{Column, Schema};
    use vcsql_relation::{DataType, Tuple};

    fn rel() -> Relation {
        let schema = Schema::new(
            "t",
            vec![Column::new("k", DataType::Int), Column::new("s", DataType::Str)],
        );
        Relation::from_tuples(
            schema,
            vec![
                Tuple::new(vec![Value::Int(1), Value::str("a")]),
                Tuple::new(vec![Value::Int(2), Value::str("a")]),
                Tuple::new(vec![Value::Int(1), Value::Null]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn encode_dedups_dictionary() {
        let t = ColumnarTable::from_relation(&rel());
        assert_eq!(t.columns[0].dict.len(), 2); // 1, 2
        assert_eq!(t.columns[1].dict.len(), 1); // "a"
        assert_eq!(t.columns[1].codes[2], NULL_CODE);
        assert_eq!(t.columns[0].get(2), Value::Int(1));
        assert_eq!(t.columns[1].get(2), Value::Null);
    }

    #[test]
    fn select_marks_matching_rows() {
        let t = ColumnarTable::from_relation(&rel());
        let sel = t.columns[0].select(|v| v.as_i64() == Some(1));
        assert_eq!(sel, vec![true, false, true]);
    }

    #[test]
    fn roundtrip_materialize() {
        let r = rel();
        let t = ColumnarTable::from_relation(&r);
        let rows = t.materialize_rows(None);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::Int(1), Value::str("a")]);
        // Compressed size is smaller than naive row size for repetitive data.
        assert!(t.deep_size() > 0);
    }

    #[test]
    fn database_wrapper() {
        let mut db = Database::new();
        db.add(rel());
        let cdb = ColumnarDatabase::from_database(&db);
        assert!(cdb.get("t").is_some());
        assert!(cdb.get("missing").is_none());
        assert!(cdb.deep_size() > 0);
    }
}
