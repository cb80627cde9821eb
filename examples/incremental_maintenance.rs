//! Incremental TAG maintenance: inserting and deleting tuples touches only
//! the affected vertices and their incident edges — no index reorganization
//! (paper Section 3).
//!
//! Run with: `cargo run --release --example incremental_maintenance`

use std::sync::Arc;
use vcsql::tag::TagBuilder;
use vcsql::workload::tpch;
use vcsql::{Session, SessionConfig};

fn main() {
    let db = tpch::generate(0.01, 42);

    // Build incrementally, tuple by tuple, through the mutable builder.
    let mut builder = TagBuilder::new();
    for rel in db.relations() {
        builder.add_schema(rel.schema.clone());
    }
    let mut order_vertices = Vec::new();
    for rel in db.relations() {
        for t in &rel.tuples {
            let v = builder.insert_tuple(rel.name(), t.clone()).unwrap();
            if rel.name() == "orders" {
                order_vertices.push(v);
            }
        }
    }

    // Delete a batch of orders — local edge removals only.
    for &v in order_vertices.iter().take(50) {
        builder.delete_tuple(v).unwrap();
    }

    let tag = Arc::new(builder.build());
    let stats = tag.stats();
    println!(
        "after incremental build + 50 deletions: {} tuple vertices, {} attribute vertices",
        stats.tuple_vertices, stats.attr_vertices
    );

    // The graph still answers queries through a session.
    let mut session = Session::open(&tag, SessionConfig::default()).expect("session opens");
    let (out, _) = session.run_sql("SELECT COUNT(*) AS orders FROM orders o").expect("count runs");
    println!("orders remaining: {}", out.relation.tuples[0]);

    // Round-trip: the decoded database matches the graph's contents.
    let decoded = tag.decode();
    println!(
        "decoded database: {} orders, {} lineitems",
        decoded.get("orders").unwrap().len(),
        decoded.get("lineitem").unwrap().len()
    );
}
