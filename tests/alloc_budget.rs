//! Allocation budgets of grouped aggregation and collection —
//! host-independent guards for "a group or a local-aggregation partial is
//! not a heap object of its own" and "a one-row collection value is no heap block".
//!
//! A counting global allocator (hence an integration-test binary of its own)
//! measures four statements after a warm-up run, three over TPC-H SF 0.1:
//!
//! * q18's inner shape on a sequential TAG-join executor. Every lineitem
//!   tuple is a root of its own that ships its partial to its order key's
//!   attribute vertex as its id, and the vertex folds the group, so a root
//!   allocates nothing: the budget is 0.05 per root plus a constant (the
//!   engine's and the plan's arrays, and an output row per kept group). A
//!   boxed partial per root made it 1.1; three boxes per root and three per
//!   new group made it 3.8.
//! * q4 on a sequential TAG-join executor, whose EXISTS inner query folds
//!   its lineitem rows straight into the subquery's probe table: the budget
//!   is one allocation per distinct inner key plus a constant. An output
//!   relation of the inner rows, a boxed row each, hashed again into a key
//!   box and a payload set per key, made it about 3 per key.
//! * A row-store `GROUP BY` folding every lineitem row into its own group
//!   through the statement's [`Gather`]. Groups are flat arrays, so only an
//!   output row allocates: the budget is one per output row plus a
//!   constant. A boxed key, accumulator array and representative row per
//!   group added 3 per group.
//!
//! and one over TPC-DS SF 0.5:
//!
//! * d_q50 on a sequential TAG-join executor: store sales fan in to their
//!   few store and date vertices, so collection (rows extended, selected,
//!   unioned and shipped) is most of its work. A vertex builds its rows in
//!   worker scratch, and a value of one row of at most two ids travels
//!   inside its message, so only the few values of several rows allocate:
//!   the budget is 0.1 allocations per vertex-step (a vertex active in a
//!   superstep) plus a constant, and it makes about 0.03. A table (one row
//!   buffer behind one `Arc`) for every value made it 0.9; `Arc`-shared
//!   chunks, one per row, made it 1.8.
//!
//! The allocator also records the largest single allocation, which guards
//! one more budget, over TPC-DS SF 0.5:
//!
//! * d_q84's second execution through a `Session` allocates nothing of
//!   |V| × 4 bytes or more: the engine's graph-sized arrays (24 B of state
//!   and a 4 B delivery cursor per vertex) come from the host's scratch,
//!   which the first execution gave back. Building them per statement
//!   allocated |V| × 24 and |V| × 4 bytes on every run.
//!
//! The count is taken per thread, so it repeats exactly whatever else the
//! test harness is doing.

#![allow(unsafe_code, reason = "a counting `GlobalAlloc` cannot be written without `unsafe`")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use vcsql::bsp::EngineConfig;
use vcsql::core::{QueryPlan, TagJoinExecutor};
use vcsql::query::{analyze::analyze, parse, AggClass, Gather};
use vcsql::relation::Relation;
use vcsql::tag::TagGraph;
use vcsql::workload::{tpcds, tpch};
use vcsql::{Session, SessionConfig};

/// The system allocator, counting every `alloc` and `realloc` of the
/// calling thread and recording the largest.
struct Counting;

thread_local! {
    /// Const-initialized and without a destructor, so reading it inside the
    /// allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes of the largest `alloc` or `realloc` since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes.
fn record(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds `GlobalAlloc`'s contract; the counters are plain thread-locals.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
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

/// The largest single allocation, in bytes, the calling thread makes while
/// running `f`.
fn largest_allocation_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// What a statement may allocate whatever its input size: the plan's and
/// the engine's arrays, the gather's flat arrays and their doublings, the
/// output relation's vector. The local aggregation below makes about 600 of
/// these, the row-store grouping about 100.
const CONSTANT: u64 = 1_000;

#[test]
fn local_aggregation_allocates_one_block_per_root() {
    let db = tpch::generate(0.1, 42);
    let tag = TagGraph::build(&db);
    let sql = "SELECT l.l_orderkey, SUM(l.l_quantity) AS qty FROM lineitem l \
               GROUP BY l.l_orderkey HAVING SUM(l.l_quantity) > 150";
    let a = analyze(&parse(sql).unwrap(), tag.schemas()).unwrap();
    assert_eq!(a.agg_class, AggClass::Local);
    let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());
    let warm = exec.execute(&a).unwrap();
    let (out, allocations) = allocations_of(|| exec.execute(&a).unwrap());
    assert!(out.relation.same_bag(&warm.relation));
    let roots = db.get("lineitem").unwrap().len() as u64;
    assert!(roots > 5_000, "{roots} lineitem roots is too few to tell");
    assert!(
        allocations * 20 <= roots + CONSTANT * 20,
        "q18's inner query made {allocations} allocations for {roots} roots \
         ({:.2} per root; the budget is 0.05 plus {CONSTANT})",
        allocations as f64 / roots as f64
    );
}

#[test]
fn an_exists_subquery_allocates_at_most_one_block_per_inner_key() {
    let db = tpch::generate(0.1, 42);
    let tag = TagGraph::build(&db);
    let q4 = tpch::queries().into_iter().find(|q| q.id == "q4").unwrap();
    let plan = QueryPlan::prepare(q4.sql, tag.schemas()).unwrap();
    let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());
    let warm = exec.execute_plan(&plan).unwrap();
    let (out, allocations) = allocations_of(|| exec.execute_plan(&plan).unwrap());
    assert!(out.relation.same_bag(&warm.relation));
    // The inner query's keys: the orders with a line received late.
    let lineitem = db.get("lineitem").unwrap();
    let col = |name: &str| lineitem.schema.columns.iter().position(|c| c.name == name).unwrap();
    let (order, commit, receipt) = (col("l_orderkey"), col("l_commitdate"), col("l_receiptdate"));
    let late = lineitem.tuples.iter().filter(|t| t.get(commit) < t.get(receipt));
    let keys = late.map(|t| t.get(order).clone()).collect::<std::collections::HashSet<_>>();
    let keys = keys.len() as u64;
    assert!(keys > 1_000, "{keys} inner keys is too few to tell");
    assert!(
        allocations <= keys + CONSTANT,
        "q4 made {allocations} allocations for {keys} inner keys \
         (the budget is one per key plus {CONSTANT})"
    );
}

#[test]
fn row_store_grouping_allocates_per_output_row() {
    let db = tpch::generate(0.1, 42);
    let sql = "SELECT l.l_orderkey, l.l_partkey, SUM(l.l_quantity) AS qty, COUNT(*) AS n \
               FROM lineitem l GROUP BY l.l_orderkey, l.l_partkey";
    let a = analyze(&parse(sql).unwrap(), &tpch::schemas()).unwrap();
    let lineitem = db.get("lineitem").unwrap();
    let width = lineitem.schema.columns.len();
    let out = a.output(|(_, col)| Ok(col), width).unwrap();
    let run = || -> Relation {
        let mut gather = Gather::default();
        for t in &lineitem.tuples {
            gather.add(&out, &*t.0).unwrap();
        }
        out.finish(gather).unwrap()
    };
    let warm = run();
    let (rel, allocations) = allocations_of(run);
    assert!(rel.same_bag(&warm));
    let groups = rel.len() as u64;
    assert!(groups >= 5_000, "{groups} groups is too few to tell");
    assert!(
        allocations <= groups + CONSTANT,
        "grouping made {allocations} allocations for {groups} output rows \
         (the budget is one per row plus {CONSTANT})"
    );
}

#[test]
fn collection_allocates_about_one_block_per_vertex_step() {
    let db = tpcds::generate(0.5, 42);
    let tag = TagGraph::build(&db);
    let q = tpcds::queries().into_iter().find(|q| q.id == "d_q50").unwrap();
    let a = analyze(&parse(q.sql).unwrap(), tag.schemas()).unwrap();
    let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential());
    let warm = exec.execute(&a).unwrap();
    let (out, allocations) = allocations_of(|| exec.execute(&a).unwrap());
    assert!(out.relation.same_bag(&warm.relation));
    let steps: u64 = out.stats.steps.iter().map(|s| s.active_vertices).sum();
    assert!(steps > 5_000, "{steps} vertex-steps is too few to tell");
    assert!(
        allocations * 10 <= steps + CONSTANT * 10,
        "d_q50 made {allocations} allocations over {steps} vertex-steps \
         ({:.2} per vertex-step; the budget is 0.1 plus {CONSTANT})",
        allocations as f64 / steps as f64
    );
}

#[test]
fn a_session_statement_allocates_no_graph_sized_array() {
    let tag = Arc::new(TagGraph::build(&tpcds::generate(0.5, 42)));
    let q = tpcds::queries().into_iter().find(|q| q.id == "d_q84").unwrap();
    let config = SessionConfig { engine: EngineConfig::sequential(), ..SessionConfig::default() };
    let mut session = Session::open(&tag, config).unwrap();
    let prepared = session.prepare(q.sql).unwrap();
    let (warm, _) = session.execute(&prepared).unwrap();
    let ((out, _), largest) = largest_allocation_of(|| session.execute(&prepared).unwrap());
    assert!(out.relation.same_bag(&warm.relation));
    let vertices = tag.graph().vertex_count();
    assert!(vertices > 10_000, "{vertices} vertices is too few to tell");
    assert!(
        largest < vertices * 4,
        "d_q84's second execution allocated {largest} bytes at once, at least |V| × 4 = {}",
        vertices * 4
    );
}
