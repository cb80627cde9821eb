//! String cells share their attribute vertex's allocation, and the TAG
//! holds only rows of its schemas.
//!
//! A tuple's string cell is the very `Arc<str>` its attribute vertex holds,
//! whether the TAG was built from a database or tuple by tuple, so a string
//! compare or hash over the tuples reads one allocation per distinct value.
//! A value without an attribute vertex — one the policy refuses, or one in
//! a column it skips — keeps the allocation it came with. A tuple whose
//! value has the wrong type for its column is refused with the error
//! `Relation::push` gives it.

use std::sync::Arc;
use vcsql_relation::schema::{Column, Schema};
use vcsql_relation::{DataType, Database, Relation, Tuple, Value};
use vcsql_tag::{TagBuilder, TagGraph};

/// Longer than the default policy's 64-byte limit.
const LONG: &str = "a comment far too long to be a join key, so the policy refuses it!!";

/// item(id, color, note, memo, shade): `color` repeats, `note` repeats a
/// refused long string, `memo` is never materialized, and `shade` repeats
/// `color`, so a first-seen value meets two columns of one tuple.
fn schema() -> Schema {
    Schema::new(
        "item",
        vec![
            Column::new("id", DataType::Int),
            Column::new("color", DataType::Str),
            Column::new("note", DataType::Str),
            Column::unindexed("memo", DataType::Str),
            Column::new("shade", DataType::Str),
        ],
    )
}

/// Row `i`, every string a fresh allocation.
fn row(i: i64) -> Tuple {
    let color = || match i % 5 {
        4 => Value::Null,
        _ => Value::str(["red", "green"][i as usize % 2]),
    };
    Tuple::new(vec![Value::Int(i), color(), Value::str(LONG), Value::str("same memo"), color()])
}

fn db() -> Database {
    let mut db = Database::new();
    db.add(Relation::from_tuples(schema(), (0..12).map(row).collect()).unwrap());
    db
}

/// The string cells of `tag`'s tuples, per column.
fn string_cells(tag: &TagGraph) -> Vec<Vec<Arc<str>>> {
    let label = tag.relation_label("item").unwrap();
    let mut cols = vec![Vec::new(); schema().arity()];
    for &v in tag.graph().vertices_with_label(label) {
        for (c, cell) in tag.tuple(v).unwrap().iter().enumerate() {
            if let Value::Str(s) = cell {
                cols[c].push(Arc::clone(s));
            }
        }
    }
    cols
}

/// Every materialized string cell is its attribute vertex's allocation;
/// the refused and unmaterialized ones keep their own.
fn assert_shared(tag: &TagGraph) {
    let cols = string_cells(tag);
    for c in [1, 4] {
        assert_eq!(cols[c].len(), 10, "ten non-NULL colors");
        for s in &cols[c] {
            let av = tag.attr_vertex(&Value::Str(Arc::clone(s))).expect("a materialized color");
            let Some(Value::Str(a)) = tag.attr_value(av) else { panic!("a string attribute") };
            assert!(Arc::ptr_eq(s, a), "the cell {s:?} is its attribute vertex's allocation");
        }
    }
    for c in [2, 3] {
        assert_eq!(cols[c].len(), 12);
        assert!(tag.attr_vertex(&Value::Str(Arc::clone(&cols[c][0]))).is_none());
        for (i, s) in cols[c].iter().enumerate() {
            for t in &cols[c][i + 1..] {
                assert!(!Arc::ptr_eq(s, t), "column {c} keeps one allocation per tuple");
            }
        }
    }
}

#[test]
fn string_cells_share_their_attribute_vertex_after_build() {
    assert_shared(&TagGraph::build(&db()));
}

#[test]
fn string_cells_share_their_attribute_vertex_after_insert_tuple() {
    let mut b = TagBuilder::new();
    b.add_schema(schema());
    for i in 0..12 {
        b.insert_tuple("item", row(i)).unwrap();
    }
    let tag = b.build();
    assert_shared(&tag);
    assert!(tag.decode().get("item").unwrap().same_bag(db().get("item").unwrap()));
}

#[test]
fn a_value_of_the_wrong_type_is_refused_as_relation_push_refuses_it() {
    let mut b = TagBuilder::new();
    b.add_schema(schema());
    b.insert_tuple("item", row(0)).unwrap();
    let bad = [
        Tuple::new(vec![Value::str("1"), Value::str("red"), Value::Null, Value::Null, Value::Null]),
        Tuple::new(vec![Value::Int(1), Value::Int(7), Value::Null, Value::Null, Value::Null]),
        Tuple::new(vec![Value::Int(1), Value::Null, Value::Null, Value::Float(0.5), Value::Null]),
        Tuple::new(vec![Value::Int(1), Value::str("red")]),
    ];
    for t in bad {
        let expected = Relation::empty(schema()).push(t.clone()).unwrap_err();
        assert_eq!(b.insert_tuple("item", t).unwrap_err(), expected);
    }
    b.insert_tuple("item", row(1)).unwrap();
    // The refused tuples left nothing behind: the TAG is that of the two
    // good rows.
    let tag = b.build();
    let mut expected = Database::new();
    expected.add(Relation::from_tuples(schema(), vec![row(0), row(1)]).unwrap());
    let reference = TagGraph::build(&expected);
    assert_eq!(tag.stats(), reference.stats());
    assert!(tag.decode().get("item").unwrap().same_bag(expected.get("item").unwrap()));
}
