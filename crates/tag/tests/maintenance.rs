//! Maintenance equivalence: any interleaving of `insert_tuple` and
//! `delete_tuple` freezes to the TAG of the surviving tuples.
//!
//! The comparison is up to vertex numbering, and has to be: an attribute
//! vertex keeps the place of the first tuple that ever carried its value,
//! deleted or not, so the two graphs can number the same vertices in a
//! different order. Payloads name vertices uniquely enough to compare
//! without ids — an attribute vertex is its value, a tuple vertex its row —
//! so each graph is flattened to sorted `(label, payload)` vertices and
//! `(edge label, row, value)` edges.

use proptest::prelude::*;
use vcsql_relation::schema::{Column, Schema};
use vcsql_relation::{DataType, Tuple, Value};
use vcsql_tag::{TagBuilder, TagGraph};

/// r(k, g), s(k, g, name), t(k, g): `g` has three distinct values, so its
/// attribute vertices are hubs shared by all three relations.
fn schemas() -> Vec<Schema> {
    let int = |n: &str| Column::new(n, DataType::Int);
    vec![
        Schema::new("r", vec![int("k"), int("g")]),
        Schema::new("s", vec![int("k"), int("g"), Column::new("name", DataType::Str)]),
        Schema::new("t", vec![int("k"), int("g")]),
    ]
}

fn row(rel: usize, k: i64, g: i64) -> Tuple {
    let g = if g == 3 { Value::Null } else { Value::Int(g) };
    let mut values = vec![Value::Int(k), g];
    if rel == 1 {
        values.push(Value::str(format!("n{}", k % 4)));
    }
    Tuple::new(values)
}

fn builder() -> TagBuilder {
    let mut b = TagBuilder::new();
    for s in schemas() {
        b.add_schema(s);
    }
    b
}

type Vertices = Vec<(String, Vec<Value>)>;
type Edges = Vec<(String, Vec<Value>, Value)>;

/// The graph without its vertex ids, checking on the way what ids are for:
/// sorted CSR ranges, both directions of every edge, and the value index.
fn flatten(tag: &TagGraph) -> (Vertices, Edges) {
    let g = tag.graph();
    let (mut vertices, mut from_tuples, mut from_attrs) = (Vec::new(), Vec::new(), Vec::new());
    for v in g.vertices() {
        let edges = g.out_edges(v);
        assert!(edges.is_sorted_by_key(|e| (e.label, e.target)), "vertex {v}: unsorted CSR range");
        let label = g.vertex_label_name(g.label_of(v)).to_string();
        match (tag.tuple(v), tag.attr_value(v)) {
            (Some(t), None) => {
                vertices.push((label, t.to_vec()));
                for e in edges {
                    let value = tag.attr_value(e.target).expect("tuple edges end at values");
                    let name = g.edge_label_name(e.label).to_string();
                    from_tuples.push((name, t.to_vec(), value.clone()));
                }
            }
            (None, Some(value)) => {
                assert_eq!(tag.attr_vertex(value), Some(v), "value index misses {value}");
                vertices.push((label, vec![value.clone()]));
                for e in edges {
                    let t = tag.tuple(e.target).expect("value edges end at tuples");
                    let name = g.edge_label_name(e.label).to_string();
                    from_attrs.push((name, t.to_vec(), value.clone()));
                }
            }
            other => panic!("vertex {v} is neither tuple nor value: {other:?}"),
        }
    }
    vertices.sort();
    from_tuples.sort();
    from_attrs.sort();
    assert_eq!(from_tuples, from_attrs, "edges are not symmetric");
    (vertices, from_tuples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_maintenance_freezes_to_the_survivors_graph(
        ops in prop::collection::vec((0u8..4, 0usize..3, 0i64..12, 0i64..4, any::<u32>()), 0..80),
    ) {
        let schemas = schemas();
        // One insert in four is replaced by deleting a live tuple.
        let mut maintained = builder();
        let mut live: Vec<(u32, usize, Tuple)> = Vec::new();
        for (kind, rel, k, g, pick) in ops {
            if kind == 0 && !live.is_empty() {
                let (tv, _, _) = live.remove(pick as usize % live.len());
                maintained.delete_tuple(tv).unwrap();
                prop_assert!(maintained.delete_tuple(tv).is_err(), "double delete");
            } else {
                let t = row(rel, k, g);
                let tv = maintained.insert_tuple(&schemas[rel].name, t.clone()).unwrap();
                live.push((tv, rel, t));
            }
        }
        // `live` lost deleted entries but kept insertion order.
        let mut survivors = builder();
        for (_, rel, t) in &live {
            survivors.insert_tuple(&schemas[*rel].name, t.clone()).unwrap();
        }
        let (maintained, survivors) = (maintained.build(), survivors.build());

        prop_assert_eq!(flatten(&maintained), flatten(&survivors));
        prop_assert_eq!(maintained.stats(), survivors.stats());
        // Edge labels and relation labels are fixed by the schemas alone.
        let (m, s) = (maintained.graph(), survivors.graph());
        prop_assert_eq!(m.edge_labels().len(), s.edge_labels().len());
        let (md, sd) = (maintained.decode(), survivors.decode());
        for (rel, schema) in schemas.iter().enumerate() {
            let name = &schema.name;
            prop_assert_eq!(maintained.relation_label(name), survivors.relation_label(name));
            for c in 0..schema.arity() {
                prop_assert_eq!(maintained.column_label(name, c), survivors.column_label(name, c));
            }
            prop_assert!(md.get(name).unwrap().same_bag(sd.get(name).unwrap()));
            let kept = live.iter().filter(|(_, r, _)| *r == rel).count();
            prop_assert_eq!(md.get(name).unwrap().len(), kept);
        }
        // A value that only deleted tuples carried has no vertex any more.
        for k in 0..12 {
            let carried = live.iter().any(|(_, _, t)| t.values().any(|v| v == &Value::Int(k)));
            prop_assert_eq!(maintained.attr_vertex(&Value::Int(k)).is_some(), carried, "{}", k);
        }
    }
}
