//! Model checking the [`vcsql_bsp::WorkerPool`] hand-off protocol.
//!
//! Compiled only under `RUSTFLAGS="--cfg vcsql_loom"`. In that configuration
//! `vcsql_bsp::sync` resolves to the `loom` compat crate's shadow primitives,
//! so a `WorkerPool` built inside [`loom::model`] has every lock, condvar
//! wait/notify, atomic access, and thread spawn driven by the deterministic
//! scheduler — the checker explores every preemption-bounded interleaving of
//! the epoch protocol and reports deadlocks (a caller or worker parked
//! forever) and assertion failures on any schedule.
//!
//! Each test is a *model*: the closure reruns once per explored schedule, so
//! everything it asserts holds on every interleaving, not just the one the OS
//! happened to produce. A hang anywhere (including `Drop`'s join) shows up as
//! a reported deadlock instead of a wedged test.
//!
//! Every model here fails under a mutation of `pool.rs` that leaves every
//! non-loom test green (CHANGES.md, PR 21's audit): a worker recording its
//! panic after signalling the barrier, the caller's own panic escaping before
//! the barrier, a worker counting itself `live` only after its first epoch.
//! The epoch hand-off has no model of its own: every mutation of it tried
//! also hung or failed the non-loom suites, and each model here drives it on
//! every schedule.

#![cfg(vcsql_loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use vcsql_bsp::sync::atomic::{AtomicUsize, Ordering};
use vcsql_bsp::WorkerPool;

/// Completion barrier under a worker panic: the panic is caught on the
/// worker, `run` still waits for the epoch to drain, re-raises on the
/// caller, and the pool remains usable for the next epoch.
#[test]
fn worker_panic_reaches_the_barrier_and_pool_survives() {
    let explored = loom::model(|| {
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|w| {
                if w == 1 {
                    panic!("worker-side boom");
                }
            });
        }));
        assert!(r.is_err(), "the worker panic must re-raise on the caller");
        // The epoch drained (running == 0), so the pool still works.
        let after = AtomicUsize::new(0);
        pool.run(2, &|_| {
            after.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(after.load(Ordering::SeqCst), 2, "pool must survive a worker panic");
    });
    assert!(explored.complete, "exploration must be exhaustive");
}

/// Completion barrier under a *caller* panic: worker 0's unwind must not
/// release the borrowed closure while worker 1 can still call it. On every
/// schedule, worker 1 finishes before `run` lets the panic escape.
#[test]
fn caller_panic_waits_for_workers_before_unwinding() {
    let explored = loom::model(|| {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicUsize::new(0));
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|w| {
                if w == 0 {
                    panic!("caller-side boom");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(r.is_err());
        // If the barrier ran after the unwind instead of before, this reads
        // 0 on some schedule and the checker reports it.
        assert_eq!(
            finished.load(Ordering::SeqCst),
            1,
            "worker must finish before the caller's panic escapes `run`"
        );
    });
    assert!(explored.complete, "exploration must be exhaustive");
}

/// `Drop`-join shutdown: dropping the pool wakes the parked worker, which
/// observes `shutdown`, decrements `live`, and exits — `drop` returns only
/// after the join. A worker that misses the wakeup deadlocks the model.
#[test]
fn drop_join_shuts_down_cleanly() {
    let explored = loom::model(|| {
        let pool = WorkerPool::new(2);
        pool.run(2, &|_| {});
        assert_eq!(pool.live_workers(), 1, "one spawned worker while the pool is up");
        drop(pool);
        // Reaching this point means Drop's join returned on this schedule;
        // the scheduler flags any schedule where the worker parks forever.
    });
    assert!(explored.complete, "exploration must be exhaustive");
}
