//! Loom model checks for the sharded plan cache.
//!
//! Compiled only under `RUSTFLAGS="--cfg vcsql_loom"` (the model-checking
//! lane): `vcsql_bsp::sync` then re-exports the `loom` compat
//! crate's shadow `RwLock`/`Mutex`, whose deterministic scheduler explores
//! every preemption-bounded interleaving inside `loom::model`. Checked
//! here, at preemption bound 2:
//!
//! * concurrent `get`/`insert` of one statement **linearizes** — every
//!   racer ends up holding the same plan allocation, and the insert is
//!   never lost;
//! * racing inserts beyond capacity keep the per-shard LRU bound;
//! * readers (`contains`/`len`/stats) and writers never deadlock — loom's
//!   scheduler fails the model if any interleaving blocks forever.
//!
//! Plans are prebuilt *outside* the model (planning is pure computation,
//! modelling it would just multiply iterations); the cache itself is built
//! inside, so its locks register with the model's scheduler.
#![cfg(vcsql_loom)]

use std::sync::Arc;
use vcsql_core::QueryPlan;
use vcsql_relation::schema::{Column, Schema};
use vcsql_relation::DataType;
use vcsql_server::ShardedPlanCache;

fn plan(sql: &str) -> Arc<QueryPlan> {
    let schemas = vec![Schema::new(
        "r",
        vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)],
    )];
    Arc::new(QueryPlan::prepare(sql, &schemas).expect("test statement must plan"))
}

#[test]
fn racing_get_insert_of_one_statement_linearizes() {
    const Q: &str = "SELECT r.a FROM r";
    let plan_a = plan(Q);
    let plan_b = plan(Q);
    let explored = loom::Builder::new().preemptions(2).check(move || {
        let cache = Arc::new(ShardedPlanCache::new(1, 2));
        let worker = {
            let cache = Arc::clone(&cache);
            let mine = Arc::clone(&plan_a);
            loom::thread::spawn(move || match cache.get(0, Q) {
                Some(hit) => hit,
                None => cache.insert(Q, mine),
            })
        };
        let ours = match cache.get(1, Q) {
            Some(hit) => hit,
            None => cache.insert(Q, Arc::clone(&plan_b)),
        };
        let theirs = worker.join().expect("model thread must not panic");
        // Linearization: whichever insert won, both racers hold the same
        // allocation, and a later lookup still finds it (no lost insert).
        assert!(Arc::ptr_eq(&ours, &theirs), "racing tenants got different plans");
        let settled = cache.get(0, Q).expect("insert must never be lost");
        assert!(Arc::ptr_eq(&settled, &ours));
        assert_eq!(cache.len(), 1);
        // Three gets happened; each was a hit or a miss, nothing dropped.
        assert_eq!(cache.hits() + cache.misses(), 3);
    });
    assert!(explored.complete, "interleaving space must be fully explored");
    assert!(explored.iterations >= 2, "the race must have more than one schedule");
}

#[test]
fn racing_inserts_beyond_capacity_keep_the_lru_bound() {
    const QA: &str = "SELECT r.a FROM r";
    const QB: &str = "SELECT r.b FROM r";
    const QC: &str = "SELECT r.a, r.b FROM r";
    let (pa, pb, pc) = (plan(QA), plan(QB), plan(QC));
    let explored = loom::Builder::new().preemptions(2).check(move || {
        // Capacity 1: every insert beyond the first must evict, whatever
        // the interleaving.
        let cache = Arc::new(ShardedPlanCache::new(1, 1));
        cache.insert(QA, Arc::clone(&pa));
        let worker = {
            let cache = Arc::clone(&cache);
            let pb = Arc::clone(&pb);
            loom::thread::spawn(move || {
                cache.insert(QB, pb);
            })
        };
        cache.insert(QC, Arc::clone(&pc));
        worker.join().expect("model thread must not panic");
        assert_eq!(cache.len(), 1, "racing evictions must keep the capacity bound");
    });
    assert!(explored.complete);
}

#[test]
fn readers_and_writers_never_deadlock() {
    const Q: &str = "SELECT r.b FROM r";
    let p = plan(Q);
    let explored = loom::Builder::new().preemptions(2).check(move || {
        let cache = Arc::new(ShardedPlanCache::new(2, 2));
        let writer = {
            let cache = Arc::clone(&cache);
            let p = Arc::clone(&p);
            loom::thread::spawn(move || {
                cache.get(0, Q);
                cache.insert(Q, p);
            })
        };
        // Read-side traffic interleaved with the writer: shard read locks,
        // the tenant-stats mutex, and a write-locking get.
        cache.contains(Q);
        let _ = cache.len();
        let _ = cache.tenant_stats(1);
        cache.get(1, Q);
        writer.join().expect("model thread must not panic");
        // Both gets were counted, whatever order they ran in.
        assert_eq!(cache.hits() + cache.misses(), 2);
        assert!(cache.contains(Q));
    });
    // `complete` doubles as the no-deadlock verdict: a blocked interleaving
    // would fail the model, not finish it.
    assert!(explored.complete);
}
