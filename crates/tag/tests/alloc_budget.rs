//! Allocation budget of the TAG load path — a host-independent guard for
//! "building a TAG allocates per array, not per vertex".
//!
//! A counting global allocator (hence an integration-test binary of its own)
//! measures `TagGraph::build` over TPC-H SF 0.5 and TPC-DS SF 1 (≈ 53 K and
//! 58 K vertices). What may legitimately allocate is per label (its name, its
//! vertex list), per schema, and per doubling of a flat `Vec` or of the
//! value index — a few hundred in all, so the budget is 0.1 allocations per
//! vertex. The per-vertex `String`s, `Vec`s and boxed tuples the builder
//! used to make cost 47–56 per vertex; flat labels alone still leave 4–6.
//! `TagBuilder::delete_tuple` sets a tombstone and may not allocate at all.
//!
//! The count is taken per thread, so it repeats exactly whatever else the
//! test harness is doing.

#![allow(unsafe_code, reason = "a counting `GlobalAlloc` cannot be written without `unsafe`")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vcsql_relation::Database;
use vcsql_tag::{MaterializePolicy, TagBuilder, TagGraph};
use vcsql_workload::{tpcds, tpch};

/// The system allocator, counting every `alloc` and `realloc` of the
/// calling thread.
struct Counting;

thread_local! {
    /// Const-initialized and without a destructor, so reading it inside the
    /// allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds `GlobalAlloc`'s contract; the counter is a plain thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn assert_build_within_budget(name: &str, db: &Database) {
    let (tag, allocations) = allocations_of(|| TagGraph::build(db));
    let vertices = tag.graph().vertex_count() as u64;
    assert!(vertices > 50_000, "{name}: {vertices} vertices is too few to tell");
    assert!(
        allocations * 10 <= vertices,
        "{name}: TagGraph::build made {allocations} allocations for {vertices} vertices \
         ({:.2} per vertex; the budget is 0.1)",
        allocations as f64 / vertices as f64
    );
}

#[test]
fn tpch_build_allocates_per_array_not_per_vertex() {
    assert_build_within_budget("TPC-H SF 0.5", &tpch::generate(0.5, 42));
}

#[test]
fn tpcds_build_allocates_per_array_not_per_vertex() {
    assert_build_within_budget("TPC-DS SF 1", &tpcds::generate(1.0, 42));
}

#[test]
fn delete_tuple_allocates_nothing() {
    let db = tpch::generate(0.01, 42);
    let mut b = TagBuilder::new(MaterializePolicy::default());
    let mut vertices = Vec::new();
    for rel in db.relations() {
        b.add_schema(rel.schema.clone());
        for t in &rel.tuples {
            vertices.push(b.insert_tuple(rel.name(), t.clone()).unwrap());
        }
    }
    let ((), allocations) = allocations_of(|| {
        for &tv in &vertices {
            b.delete_tuple(tv).unwrap();
        }
    });
    assert_eq!(allocations, 0, "delete_tuple allocated");
    assert_eq!(b.build().graph().vertex_count(), 0, "everything was deleted");
}
