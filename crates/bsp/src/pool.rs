//! The persistent worker runtime behind parallel supersteps.
//!
//! A [`WorkerPool`] owns `threads - 1` long-lived OS threads (the caller is
//! always worker 0), parked on a condvar between jobs. [`WorkerPool::run`]
//! dispatches one *epoch*: a borrowed `Fn(usize)` closure executed once per
//! participating worker index, with the caller blocked until every
//! participant has finished — a lightweight fork/join barrier that costs a
//! mutex hand-off instead of a `thread::spawn` + `join` per superstep phase.
//!
//! Lifecycle:
//!
//! * construction is free — threads are spawned lazily on the first `run`
//!   that actually needs them, so a pool attached to a computation that
//!   stays under the engine's sequential-fallback threshold never starts a
//!   thread;
//! * one pool serves any number of computations (a `Session` shares one
//!   across every query it executes), and `run` serializes concurrent
//!   callers, so sharing is safe;
//! * dropping the pool signals shutdown and joins every worker — no thread
//!   outlives the pool.
//!
//! # Safety
//!
//! `run` hands workers a *borrowed* closure through a type-erased pointer.
//! This is sound because `run` does not return until every participating
//! worker has finished the epoch (panics included: a panicking job is caught,
//! recorded, and re-raised on the caller after the barrier), so the closure —
//! and everything it borrows from the caller's stack — outlives every use.

#![allow(unsafe_code, reason = "the type-erased epoch job; see the module's Safety section")]
#![allow(clippy::disallowed_methods, reason = "the pool is the one owner of OS threads")]

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::thread::JoinHandle;
use crate::sync::{Condvar, Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A type-erased `&dyn Fn(usize)` that can cross the worker channel. The
/// epoch barrier in [`WorkerPool::run`] guarantees the pointee outlives
/// every call.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    // SAFETY: calling requires `data` to still point at the closure it was
    // erased from — guaranteed between dispatch and the epoch barrier.
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointer is only dereferenced between an epoch's dispatch and
// its completion barrier, while the caller (who owns the pointee) is blocked
// in `run`.
unsafe impl Send for Job {}

fn erase<F: Fn(usize) + Sync>(f: &F) -> Job {
    /// Calls the erased closure for `worker`.
    ///
    /// # Safety
    ///
    /// `data` must be the `&F` this `Job` was erased from, still live —
    /// upheld by the epoch barrier in `WorkerPool::run`.
    unsafe fn call<F: Fn(usize)>(data: *const (), worker: usize) {
        // SAFETY: `data` came from `erase(&F)` this epoch; the caller keeps
        // the closure alive until the epoch's barrier.
        unsafe { (*(data as *const F))(worker) }
    }
    Job { data: f as *const F as *const (), call: call::<F> }
}

/// Coordination state shared with the worker threads.
struct PoolState {
    /// Monotonic job counter; workers sleep until it moves.
    epoch: u64,
    /// Worker indices `1..participants` run the current job.
    participants: usize,
    /// Participating workers still running the current epoch.
    running: usize,
    /// True when a participant's job panicked this epoch.
    panicked: bool,
    /// Drop has been called: workers exit instead of waiting for work.
    shutdown: bool,
    job: Option<Job>,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch (or shutdown).
    work: Condvar,
    /// The caller waits here for `running == 0`.
    done: Condvar,
    /// Worker threads currently alive (diagnostics and leak tests).
    live: AtomicUsize,
}

impl Shared {
    /// Lock the state, surviving poison: workers never hold the lock across
    /// user code (jobs run unlocked, panics are caught), so a poisoned mutex
    /// still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A persistent fork/join worker pool: `threads - 1` parked OS threads plus
/// the caller, driven through epochs by [`WorkerPool::run`].
pub struct WorkerPool {
    threads: usize,
    shared: Arc<Shared>,
    /// Join handles of spawned workers (empty until the first parallel run).
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes `run` callers: one epoch in flight at a time.
    run_lock: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("spawned", &self.spawned_workers())
            .finish()
    }
}

impl WorkerPool {
    /// A pool for `threads` workers total (the caller counts as one, so
    /// `threads - 1` OS threads back it). No thread is spawned until the
    /// first [`WorkerPool::run`] with more than one participant.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        WorkerPool {
            threads,
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    participants: 0,
                    running: 0,
                    panicked: false,
                    shutdown: false,
                    job: None,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                live: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
            run_lock: Mutex::new(()),
        }
    }

    /// Total worker slots (caller included) this pool can drive.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// OS threads spawned so far (`0` until the first parallel run, then
    /// `threads() - 1` for the pool's whole life).
    pub fn spawned_workers(&self) -> usize {
        self.handles.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Worker threads currently alive. Equals [`WorkerPool::spawned_workers`]
    /// while the pool is up; drops to zero once the pool is dropped (the
    /// shutdown/leak tests watch this through a cloned handle).
    pub fn live_workers(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Spawn the worker threads if this is the first parallel run.
    fn ensure_spawned(&self) {
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        if !handles.is_empty() {
            return;
        }
        for index in 1..self.threads {
            let shared = Arc::clone(&self.shared);
            let handle = crate::sync::thread::Builder::new()
                .name(format!("vcsql-bsp-worker-{index}"))
                .spawn(move || worker_loop(&shared, index))
                .expect("worker thread spawns");
            handles.push(handle);
        }
    }

    /// Run one epoch: `job(w)` executes exactly once for every worker index
    /// `w < participants` — `w == 0` on the calling thread, the rest on pool
    /// threads. Returns only after every participant finished. Participants
    /// beyond [`WorkerPool::threads`] are rejected (callers size their fan-out
    /// to the pool). Concurrent callers are serialized. If any participant's
    /// job panics, the epoch still completes on the others and the panic is
    /// re-raised here — the pool stays usable afterwards.
    pub fn run<F: Fn(usize) + Sync>(&self, participants: usize, job: &F) {
        assert!(
            participants <= self.threads,
            "{participants} participants exceed the pool's {} workers",
            self.threads
        );
        if participants <= 1 {
            if participants == 1 {
                job(0);
            }
            return;
        }
        let _serialize = self.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.ensure_spawned();
        {
            let mut st = self.shared.lock();
            debug_assert_eq!(st.running, 0, "previous epoch still running");
            st.job = Some(erase(job));
            st.participants = participants;
            st.running = participants - 1;
            st.epoch += 1;
        }
        self.shared.work.notify_all();
        // The caller is worker 0. Catch its panic so the barrier below still
        // runs — workers must never outlive the borrowed closure.
        let caller = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_panicked = {
            let mut st = self.shared.lock();
            while st.running > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.participants = 0;
            std::mem::replace(&mut st.panicked, false)
        };
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("worker thread panicked during a pooled phase");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    shared.live.fetch_add(1, Ordering::SeqCst);
    let mut seen = 0u64;
    let mut st = shared.lock();
    loop {
        while st.epoch == seen && !st.shutdown {
            st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.shutdown {
            break;
        }
        seen = st.epoch;
        if index < st.participants {
            let job = st.job.expect("dispatched epoch carries a job");
            drop(st);
            // SAFETY: the caller blocks in `run` until this epoch's barrier,
            // keeping the erased closure alive.
            let ok = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, index) }));
            st = shared.lock();
            if ok.is_err() {
                st.panicked = true;
            }
            st.running -= 1;
            if st.running == 0 {
                shared.done.notify_one();
            }
        }
    }
    drop(st);
    shared.live.fetch_sub(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_participant_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for participants in 1..=4 {
            let hits: Vec<AtomicUsize> = (0..participants).map(|_| AtomicUsize::new(0)).collect();
            pool.run(participants, &|w| {
                hits[w].fetch_add(1, Ordering::SeqCst);
            });
            for (w, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "worker {w} of {participants}");
            }
        }
    }

    #[test]
    fn threads_spawn_lazily_and_exactly_once() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.spawned_workers(), 0, "construction must not spawn");
        pool.run(1, &|_| {});
        assert_eq!(pool.spawned_workers(), 0, "single-participant runs stay on the caller");
        for _ in 0..50 {
            pool.run(3, &|_| {});
        }
        assert_eq!(pool.spawned_workers(), 2, "threads - 1 workers, spawned once");
        assert_eq!(pool.live_workers(), 2);
    }

    #[test]
    fn epochs_see_fresh_closure_state() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        for round in 0..100u64 {
            pool.run(4, &|w| {
                total.fetch_add(round * 10 + w as u64, Ordering::SeqCst);
            });
        }
        // sum over rounds of (40*round + 0+1+2+3)
        let expect: u64 = (0..100).map(|r| 40 * r + 6).sum();
        assert_eq!(total.load(Ordering::SeqCst), expect);
    }

    #[test]
    fn drop_joins_every_worker() {
        for _ in 0..20 {
            let pool = WorkerPool::new(4);
            pool.run(4, &|_| {});
            let shared = Arc::clone(&pool.shared);
            drop(pool);
            assert_eq!(shared.live.load(Ordering::SeqCst), 0, "a worker outlived its pool");
        }
    }

    #[test]
    fn unused_pool_drops_cleanly() {
        let pool = WorkerPool::new(8);
        drop(pool); // nothing spawned, nothing to join
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, &|w| {
                if w == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool is still fully functional afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(3, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        assert_eq!(pool.live_workers(), 2, "panicked epoch must not kill workers");
    }

    #[test]
    fn caller_panic_still_waits_for_workers() {
        let pool = WorkerPool::new(4);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|w| {
                if w == 0 {
                    panic!("caller-side boom");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        // All three pool-side participants completed before the panic
        // propagated — the barrier protects the borrowed closure.
        assert_eq!(finished.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn concurrent_callers_serialize() {
        let pool = Arc::new(WorkerPool::new(4));
        let total = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            joins.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    pool.run(4, &|_| {
                        total.fetch_add(1, Ordering::SeqCst);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), 4 * 25 * 4);
    }

    #[test]
    fn oversized_fanout_is_rejected() {
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| pool.run(3, &|_| {})));
        assert!(r.is_err(), "participants beyond the pool size must be rejected");
    }

    /// Stress the create → run → drop cycle: a deadlock here hangs the test
    /// (the suite's timeout is the assertion), a leak trips `live`.
    #[test]
    fn shutdown_stress_loop() {
        for round in 0..60 {
            let pool = WorkerPool::new(2 + round % 3);
            let n = pool.threads();
            pool.run(n, &|_| {});
            pool.run(n.min(2), &|_| {});
            let shared = Arc::clone(&pool.shared);
            drop(pool);
            assert_eq!(shared.live.load(Ordering::SeqCst), 0, "round {round} leaked a worker");
        }
    }
}
