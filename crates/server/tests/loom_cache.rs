//! Loom model checks for the shared plan cache.
//!
//! Compiled only under `RUSTFLAGS="--cfg vcsql_loom"` (the model-checking
//! lane): `vcsql_bsp::sync` then re-exports the `loom` compat
//! crate's shadow `Mutex`, whose deterministic scheduler explores
//! every preemption-bounded interleaving inside `loom::model`. Checked
//! here, at preemption bound 2:
//!
//! * concurrent `get`/`insert` of one statement **linearizes** — every
//!   racer ends up holding the same plan allocation, the insert is never
//!   lost, and every lookup lands in both the aggregate and the per-tenant
//!   counters;
//! * racing inserts beyond capacity keep the LRU bound.
//!
//! There is no deadlock model: the cache is one mutex, never held across a
//! call out of the module.
//!
//! Plans are prebuilt *outside* the model (planning is pure computation,
//! modelling it would just multiply iterations); the cache itself is built
//! inside, so its lock registers with the model's scheduler.
#![cfg(vcsql_loom)]

use std::sync::Arc;
use vcsql_core::QueryPlan;
use vcsql_relation::schema::{Column, Schema};
use vcsql_relation::DataType;
use vcsql_server::SharedPlanCache;

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
        let cache = Arc::new(SharedPlanCache::new(2));
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
        let (t0, t1) = (cache.tenant_stats(0), cache.tenant_stats(1));
        assert_eq!((t0.hits + t0.misses, t1.hits + t1.misses), (2, 1));
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
        let cache = Arc::new(SharedPlanCache::new(1));
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
