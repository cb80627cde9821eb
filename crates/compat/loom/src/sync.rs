//! Shadow synchronization primitives: `std`-compatible API, scheduler-aware
//! inside a [`crate::model`] execution, plain `std` behaviour outside one.
//!
//! Mode is chosen when the primitive is *created*: a `Mutex`/`Condvar` built
//! inside a model execution participates in deterministic scheduling; one
//! built outside delegates to `std` (the fallback that lets the regular test
//! suite run under `--cfg vcsql_loom`). A model-mode primitive must only be
//! touched by that model's threads. Atomics decide per *operation* from the
//! calling thread's context — they are plain `std` atomics either way, the
//! model merely inserts a yield point before each access.
//!
//! Data of a model-mode `Mutex` still lives in a real `std::sync::Mutex`
//! (acquired with `try_lock` once the scheduler has granted model-level
//! ownership), so there is no `unsafe` anywhere in this crate: the scheduler
//! guarantees the `try_lock` cannot contend, and the type system guarantees
//! the rest.

use crate::{current_ctx, Ctx, ExecShared, Status};
use std::sync::Arc;

pub use std::sync::{LockResult, PoisonError};

/// Scheduler registration of a model-mode primitive.
struct ModelHandle {
    exec: Arc<ExecShared>,
    id: usize,
}

impl ModelHandle {
    /// The calling thread's context, which must belong to the same
    /// execution that created the primitive.
    fn ctx(&self) -> Ctx {
        let ctx = current_ctx()
            .expect("a loom-model primitive was used from a thread outside its model execution");
        assert!(
            Arc::ptr_eq(&ctx.exec, &self.exec),
            "a loom-model primitive leaked across model executions"
        );
        ctx
    }
}

/// Register a new mutex with the current execution, if any.
fn model_mutex_handle() -> Option<ModelHandle> {
    current_ctx().map(|ctx| {
        let id = {
            let mut st = ctx.exec.lock();
            st.mutex_owner.push(None);
            st.mutex_owner.len() - 1
        };
        ModelHandle { exec: ctx.exec, id }
    })
}

/// Register a new condvar with the current execution, if any.
fn model_condvar_handle() -> Option<ModelHandle> {
    current_ctx().map(|ctx| {
        let id = {
            let mut st = ctx.exec.lock();
            st.cv_waiters.push(std::collections::VecDeque::new());
            st.cv_waiters.len() - 1
        };
        ModelHandle { exec: ctx.exec, id }
    })
}

/// A mutual-exclusion primitive (shadow of [`std::sync::Mutex`]).
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    model: Option<ModelHandle>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("inner", &self.inner).finish()
    }
}

/// RAII guard for [`Mutex`] (shadow of [`std::sync::MutexGuard`]).
pub struct MutexGuard<'a, T> {
    /// `Some` for the guard's whole life; taken (and the real lock
    /// released) by `Condvar::wait` and by the drop path.
    std: Option<std::sync::MutexGuard<'a, T>>,
    /// The owning mutex, kept so `Condvar::wait` can reacquire.
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a mutex; model-mode iff called from inside a model execution.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value), model: model_mutex_handle() }
    }

    /// Acquire the mutex. In model mode this is a yield point (the
    /// scheduler may run other threads first) and blocks in *model time*
    /// while another model thread holds the lock.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match &self.model {
            None => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard { std: Some(g), lock: self }),
                Err(p) => {
                    Err(PoisonError::new(MutexGuard { std: Some(p.into_inner()), lock: self }))
                }
            },
            Some(h) => {
                let ctx = h.ctx();
                let st = h.exec.lock();
                if st.abandoned {
                    // Execution being torn down: degrade to real locking so
                    // unwinding drops cannot wedge on the dead scheduler.
                    drop(st);
                    let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    return Ok(MutexGuard { std: Some(g), lock: self });
                }
                let st = h.exec.yield_point(st, ctx.tid);
                let st = h.exec.acquire_mutex(st, ctx.tid, h.id);
                drop(st);
                Ok(MutexGuard { std: Some(self.relock_std()), lock: self })
            }
        }
    }

    /// Take the real lock after the scheduler granted model ownership. The
    /// `try_lock` cannot contend (a parked model thread holding the real
    /// lock would hold model ownership too); poison is recovered because
    /// model threads legitimately unwind through test assertions.
    fn relock_std(&self) -> std::sync::MutexGuard<'_, T> {
        match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                unreachable!("scheduler-granted mutex contended at std level")
            }
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first, then the model-level ownership
        // (releasing does not yield; the next yield point hands over).
        drop(self.std.take());
        if let Some(h) = &self.lock.model {
            let mut st = h.exec.lock();
            if !st.abandoned {
                h.exec.release_mutex(&mut st, h.id);
            }
        }
    }
}

/// A condition variable (shadow of [`std::sync::Condvar`]).
pub struct Condvar {
    inner: std::sync::Condvar,
    model: Option<ModelHandle>,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish()
    }
}

impl Condvar {
    /// Create a condvar; model-mode iff called from inside a model
    /// execution.
    pub fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new(), model: model_condvar_handle() }
    }

    /// Atomically release the guard's mutex and park until notified, then
    /// reacquire. Model mode parks in *model time*: a waiter that is never
    /// notified is a deadlock the checker reports.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        match (&self.model, &lock.model) {
            (None, None) => {
                let mut guard = guard;
                let std_guard = guard.std.take().expect("guard holds the lock");
                // The guard now owns nothing; skip its drop entirely so the
                // release stays atomic with the std wait.
                std::mem::forget(guard);
                match self.inner.wait(std_guard) {
                    Ok(g) => Ok(MutexGuard { std: Some(g), lock }),
                    Err(p) => Err(PoisonError::new(MutexGuard { std: Some(p.into_inner()), lock })),
                }
            }
            (Some(h), Some(mutex_handle)) => {
                assert!(
                    Arc::ptr_eq(&h.exec, &mutex_handle.exec),
                    "condvar and mutex belong to different model executions"
                );
                let ctx = h.ctx();
                let mid = mutex_handle.id;
                // Dismantle the guard without running its Drop: releasing
                // the mutex must be atomic with parking, in model time.
                let mut guard = guard;
                drop(guard.std.take());
                std::mem::forget(guard);
                {
                    let st = h.exec.lock();
                    if st.abandoned {
                        drop(st);
                        std::panic::panic_any(crate::AbandonToken);
                    }
                    // Yield point *before* the atomic release-and-park: a
                    // real thread can be descheduled (still holding the
                    // mutex) right before calling wait — the window where
                    // an unlocked flag store + notify is lost. Without this
                    // branch the checker could not reach that schedule.
                    let mut st = h.exec.yield_point(st, ctx.tid);
                    h.exec.release_mutex(&mut st, mid);
                    st.cv_waiters[h.id].push_back((ctx.tid, mid));
                    st.status[ctx.tid] = Status::BlockedCondvar(h.id);
                    // Park until notified (a forced switch, costing no
                    // preemption), then reacquire the mutex in model time.
                    let st = h.exec.block(st, ctx.tid);
                    let st = h.exec.acquire_mutex(st, ctx.tid, mid);
                    drop(st);
                }
                Ok(MutexGuard { std: Some(lock.relock_std()), lock })
            }
            _ => panic!("condvar and mutex disagree about being inside a model execution"),
        }
    }

    /// Wake one waiter (the longest-waiting, deterministically). A notify
    /// with no waiters is lost — exactly the std semantics whose misuse the
    /// checker exists to find.
    pub fn notify_one(&self) {
        match &self.model {
            None => self.inner.notify_one(),
            Some(h) => {
                let ctx = h.ctx();
                let st = h.exec.lock();
                if st.abandoned {
                    return;
                }
                let mut st = h.exec.yield_point(st, ctx.tid);
                if let Some((tid, mid)) = st.cv_waiters[h.id].pop_front() {
                    h.exec.wake_waiter(&mut st, tid, mid);
                }
            }
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        match &self.model {
            None => self.inner.notify_all(),
            Some(h) => {
                let ctx = h.ctx();
                let st = h.exec.lock();
                if st.abandoned {
                    return;
                }
                let mut st = h.exec.yield_point(st, ctx.tid);
                while let Some((tid, mid)) = st.cv_waiters[h.id].pop_front() {
                    h.exec.wake_waiter(&mut st, tid, mid);
                }
            }
        }
    }
}

/// Shadow of [`std::sync::atomic`]: real atomics with a model yield point
/// before every operation. Orderings are accepted for API compatibility and
/// ignored — the model is sequentially consistent (the runtime only uses
/// `SeqCst`).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    /// Insert a scheduling point if the calling thread is a model thread.
    fn maybe_yield() {
        if let Some(ctx) = crate::current_ctx() {
            let st = ctx.exec.lock();
            if st.abandoned {
                drop(st);
                std::panic::panic_any(crate::AbandonToken);
            }
            let st = ctx.exec.yield_point(st, ctx.tid);
            drop(st);
        }
    }

    /// Shadow of [`std::sync::atomic::AtomicUsize`].
    #[derive(Debug, Default)]
    pub struct AtomicUsize {
        v: std::sync::atomic::AtomicUsize,
    }

    impl AtomicUsize {
        /// Create an atomic with the given initial value.
        pub fn new(v: usize) -> AtomicUsize {
            AtomicUsize { v: std::sync::atomic::AtomicUsize::new(v) }
        }

        /// Atomic load (yield point in model mode).
        pub fn load(&self, order: Ordering) -> usize {
            maybe_yield();
            self.v.load(order)
        }

        /// Atomic store (yield point in model mode).
        pub fn store(&self, val: usize, order: Ordering) {
            maybe_yield();
            self.v.store(val, order)
        }

        /// Atomic add returning the previous value (yield point in model
        /// mode).
        pub fn fetch_add(&self, val: usize, order: Ordering) -> usize {
            maybe_yield();
            self.v.fetch_add(val, order)
        }

        /// Atomic subtract returning the previous value (yield point in
        /// model mode).
        pub fn fetch_sub(&self, val: usize, order: Ordering) -> usize {
            maybe_yield();
            self.v.fetch_sub(val, order)
        }
    }
}
