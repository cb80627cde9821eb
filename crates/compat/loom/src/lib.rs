//! Offline stand-in for the `loom` crate: a deterministic-interleaving model
//! checker for the workspace's concurrency primitives.
//!
//! The build environment has no access to a crates registry, so — in the
//! established `compat/rand` / `compat/proptest` pattern — this local crate
//! implements exactly the surface the workspace needs: shadow
//! [`sync::Mutex`], [`sync::Condvar`], [`sync::atomic::AtomicUsize`], and
//! [`thread::spawn`] types plus a [`model`] entry point that runs a closure
//! under **every** schedule a preemption-bounded exhaustive DFS can reach.
//!
//! # How it works
//!
//! Inside [`model`], every "thread" is a real OS thread, but a cooperative
//! scheduler holds a baton: exactly one model thread executes at a time, and
//! it hands the baton back at every *yield point* (each shadow-primitive
//! operation — lock, wait, notify, atomic op, spawn, join). At a yield point
//! with more than one runnable thread the scheduler consults the current
//! schedule: a replayed prefix of recorded choices, then a default
//! (run-on, lowest thread id first). After the execution finishes, the
//! deepest choice point with an unexplored alternative is advanced and the
//! whole execution replays — a depth-first walk of the schedule tree.
//! Executions are deterministic by construction (model bodies must not read
//! real time or OS randomness), so replay is exact.
//!
//! Two bounds keep the walk finite:
//!
//! * **preemption bound** ([`Builder::preemptions`], default 2): switching
//!   away from a thread that could have continued costs one preemption;
//!   schedules beyond the budget are not explored. Forced switches (the
//!   running thread blocked or finished) are free. This is the CHESS
//!   insight: almost all interleaving bugs manifest within two preemptions,
//!   and the bounded tree is polynomial instead of exponential.
//! * **iteration budget** ([`Builder::max_iterations`], default 100 000,
//!   overridable via the `VCSQL_LOOM_MAX_ITERS` environment variable): the
//!   checker fails rather than spin if a model is bigger than its budget,
//!   so a CI lane stays time-bounded.
//!
//! Within those bounds the walk is exhaustive: [`Explored::complete`]
//! reports whether the tree was fully visited.
//!
//! # What it checks
//!
//! * **assertion failures** — a panic in any model thread under any explored
//!   schedule is re-raised from [`model`] with the schedule that caused it;
//! * **deadlocks** — a state where no thread is runnable but not all have
//!   finished (lost condvar wakeups, lock cycles) fails the model;
//! * **leaked threads** — threads still blocked when the main model thread
//!   finishes are reported as deadlocked, so a `Drop`-join protocol that
//!   forgets a worker cannot pass.
//!
//! # Limits (documented, deliberate)
//!
//! * Memory model is **sequential consistency**: `Ordering` arguments are
//!   accepted (API compatibility) and ignored. The workspace's runtime uses
//!   `SeqCst` exclusively, so nothing weaker is modelled.
//! * `Condvar::notify_one` wakes the longest-waiting thread
//!   deterministically (FIFO) instead of branching over every waiter.
//! * No spurious wakeups are generated; the runtime's wait loops tolerate
//!   them, but they add nothing to lost-wakeup detection.
//! * A shadow primitive created inside a model must only be used by that
//!   model's threads; primitives created outside a model degrade to plain
//!   `std` behaviour, which is what lets the whole regular test suite run
//!   unmodified under `--cfg vcsql_loom`.

#![allow(clippy::disallowed_methods, reason = "every model thread is a real OS thread")]

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

pub mod sync;
pub mod thread;

/// Upper bound on model threads per execution — a runaway spawn loop fails
/// fast instead of exhausting the OS.
const MAX_THREADS: usize = 16;

/// Upper bound on yield points in a single execution — a model that loops
/// without converging fails as [`ModelError::Runaway`] instead of hanging.
const MAX_STEPS_PER_EXECUTION: usize = 200_000;

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

/// Why a model thread is not currently runnable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Can be scheduled.
    Runnable,
    /// Waiting to acquire the mutex with this id.
    BlockedMutex(usize),
    /// Parked on the condvar with this id (until a notify).
    BlockedCondvar(usize),
    /// Waiting for the thread with this id to finish.
    BlockedJoin(usize),
    /// Done (normally or by panic).
    Finished,
}

/// One scheduling decision: how many legal options existed and which was
/// taken. The DFS backtracks by advancing `chosen` at the deepest point
/// where `chosen + 1 < options`.
#[derive(Clone, Copy, Debug)]
struct ChoicePoint {
    options: u32,
    chosen: u32,
}

/// The severity-ordered outcome of one execution.
#[derive(Debug)]
enum ExecOutcome {
    Ok,
    Deadlock(String),
    Runaway,
}

/// Everything the scheduler tracks for one execution, behind one mutex.
struct ExecState {
    /// Thread allowed to run; `None` before start / after end.
    current: Option<usize>,
    status: Vec<Status>,
    /// Real join handles of the model's OS threads, reaped by the driver.
    os_handles: Vec<Option<std::thread::JoinHandle<()>>>,
    /// Mutex id -> owning thread (model-mode mutexes only).
    mutex_owner: Vec<Option<usize>>,
    /// Condvar id -> FIFO of `(thread, mutex the waiter must reacquire)`.
    cv_waiters: Vec<VecDeque<(usize, usize)>>,
    /// Replayed choice indices for this execution's schedule prefix.
    prefix: Vec<u32>,
    /// Next index into `prefix` to consume.
    pos: usize,
    /// Every choice made this execution (prefix replays included).
    recorded: Vec<ChoicePoint>,
    preemptions_used: u32,
    preemption_bound: u32,
    steps: usize,
    /// Set on deadlock/runaway: blocked threads wake up and unwind.
    abandoned: bool,
    outcome: ExecOutcome,
}

/// Shared between the driver, the model threads, and shadow primitives.
struct ExecShared {
    state: std::sync::Mutex<ExecState>,
    /// Single condvar for every state change: threads wait for their turn,
    /// the driver waits for the end. Broadcast on each transition.
    cv: std::sync::Condvar,
}

type StateGuard<'a> = std::sync::MutexGuard<'a, ExecState>;

/// Thrown through blocked model threads when an execution is abandoned
/// (deadlock / runaway): recognized by the thread wrapper and not treated
/// as a user panic.
struct AbandonToken;

impl ExecShared {
    fn new(prefix: Vec<u32>, preemption_bound: u32) -> ExecShared {
        ExecShared {
            state: std::sync::Mutex::new(ExecState {
                current: None,
                status: Vec::new(),
                os_handles: Vec::new(),
                mutex_owner: Vec::new(),
                cv_waiters: Vec::new(),
                prefix,
                pos: 0,
                recorded: Vec::new(),
                preemptions_used: 0,
                preemption_bound,
                steps: 0,
                abandoned: false,
                outcome: ExecOutcome::Ok,
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    fn lock(&self) -> StateGuard<'_> {
        // A model thread can panic (tests assert inside models) while the
        // state lock is *not* held — the scheduler never holds it across
        // user code — but unwinding drops can still poison it; state stays
        // consistent.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Register a new model thread; returns its id.
    fn register(&self, st: &mut ExecState) -> usize {
        let tid = st.status.len();
        assert!(tid < MAX_THREADS, "model spawned more than {MAX_THREADS} threads");
        st.status.push(Status::Runnable);
        st.os_handles.push(None);
        tid
    }

    /// Pick and install the next thread to run. `me` just updated its own
    /// status. Returns with the choice applied to `st.current`.
    fn pick_next(&self, st: &mut ExecState, me: usize) {
        st.steps += 1;
        if st.steps > MAX_STEPS_PER_EXECUTION && !st.abandoned {
            st.outcome = ExecOutcome::Runaway;
            self.abandon(st);
            return;
        }
        let me_runnable = st.status[me] == Status::Runnable;
        let mut others: Vec<usize> =
            (0..st.status.len()).filter(|&t| t != me && st.status[t] == Status::Runnable).collect();
        // Legal options, deterministically ordered: continuing the current
        // thread is free and listed first; switching away from a runnable
        // thread costs a preemption and is only offered within budget.
        let options: Vec<usize> = if me_runnable {
            let mut v = vec![me];
            if st.preemptions_used < st.preemption_bound {
                v.append(&mut others);
            }
            v
        } else {
            others
        };
        if options.is_empty() {
            if st.status.iter().all(|s| *s == Status::Finished) {
                st.current = None; // normal end; driver notices
            } else if !st.abandoned {
                st.outcome = ExecOutcome::Deadlock(self.describe_stuck(st));
                self.abandon(st);
            }
            self.cv.notify_all();
            return;
        }
        let chosen_idx = if st.pos < st.prefix.len() {
            let i = st.prefix[st.pos] as usize;
            assert!(
                i < options.len(),
                "schedule replay diverged: model is not deterministic \
                 (choice {} of {} at step {})",
                i,
                options.len(),
                st.pos
            );
            i
        } else {
            0
        };
        st.pos += 1;
        st.recorded.push(ChoicePoint { options: options.len() as u32, chosen: chosen_idx as u32 });
        let next = options[chosen_idx];
        if me_runnable && next != me {
            st.preemptions_used += 1;
        }
        st.current = Some(next);
        self.cv.notify_all();
    }

    /// Human-readable list of the stuck threads for deadlock reports.
    fn describe_stuck(&self, st: &ExecState) -> String {
        let stuck: Vec<String> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != Status::Finished)
            .map(|(t, s)| match s {
                Status::BlockedMutex(m) => format!("thread {t} blocked on mutex {m}"),
                Status::BlockedCondvar(c) => format!("thread {t} waiting on condvar {c}"),
                Status::BlockedJoin(j) => format!("thread {t} joining thread {j}"),
                _ => format!("thread {t} in state {s:?}"),
            })
            .collect();
        stuck.join("; ")
    }

    /// Mark the execution abandoned and wake every parked thread so it can
    /// unwind out (via [`AbandonToken`]).
    fn abandon(&self, st: &mut ExecState) {
        st.abandoned = true;
        st.current = None;
        self.cv.notify_all();
    }

    /// Park until it is `me`'s turn. Panics with [`AbandonToken`] if the
    /// execution is abandoned while parked (or already was).
    fn wait_for_turn<'a>(&'a self, mut st: StateGuard<'a>, me: usize) -> StateGuard<'a> {
        while st.current != Some(me) {
            if st.abandoned {
                drop(st);
                std::panic::panic_any(AbandonToken);
            }
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st
    }

    /// A voluntary yield point: give the scheduler a chance to preempt
    /// before the caller's next visible operation.
    fn yield_point<'a>(&'a self, st: StateGuard<'a>, me: usize) -> StateGuard<'a> {
        let mut st = st;
        self.pick_next(&mut st, me);
        self.wait_for_turn(st, me)
    }

    /// Block (`status[me]` must already be a `Blocked*` state) and return
    /// once scheduled again.
    fn block<'a>(&'a self, st: StateGuard<'a>, me: usize) -> StateGuard<'a> {
        let mut st = st;
        self.pick_next(&mut st, me);
        self.wait_for_turn(st, me)
    }

    /// Release a model mutex: clear ownership and make its blocked waiters
    /// runnable. Does not yield — the next yield point hands the baton over.
    fn release_mutex(&self, st: &mut ExecState, mid: usize) {
        st.mutex_owner[mid] = None;
        for t in 0..st.status.len() {
            if st.status[t] == Status::BlockedMutex(mid) {
                st.status[t] = Status::Runnable;
            }
        }
    }

    /// Acquire a model mutex for `me`, blocking (in model time) while held.
    /// The caller must already hold the baton; no initial yield here —
    /// acquisition sites yield first themselves when they want a branch.
    fn acquire_mutex<'a>(
        &'a self,
        mut st: StateGuard<'a>,
        me: usize,
        mid: usize,
    ) -> StateGuard<'a> {
        loop {
            if st.mutex_owner[mid].is_none() {
                st.mutex_owner[mid] = Some(me);
                return st;
            }
            st.status[me] = Status::BlockedMutex(mid);
            st = self.block(st, me);
        }
    }

    /// Move a notified condvar waiter toward reacquiring its mutex.
    fn wake_waiter(&self, st: &mut ExecState, tid: usize, mid: usize) {
        st.status[tid] = if st.mutex_owner[mid].is_some() {
            Status::BlockedMutex(mid)
        } else {
            Status::Runnable
        };
    }
}

// ---------------------------------------------------------------------------
// Thread-local model context
// ---------------------------------------------------------------------------

/// The controlled thread's handle to its execution, stored thread-locally.
#[derive(Clone)]
struct Ctx {
    exec: Arc<ExecShared>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The current thread's model context, if it is a controlled model thread.
fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Exploration statistics returned by a successful check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Number of distinct schedules executed.
    pub iterations: u64,
    /// True iff the preemption-bounded schedule tree was fully explored
    /// within the iteration budget.
    pub complete: bool,
}

/// Why a model failed.
pub enum ModelError {
    /// A schedule was found under which no thread can make progress. The
    /// string lists each stuck thread and what it is blocked on.
    Deadlock {
        /// Which stuck threads were found, and what each was blocked on.
        stuck: String,
        /// 0-based index of the schedule that deadlocked.
        iteration: u64,
    },
    /// One execution exceeded the per-execution step bound (a model thread
    /// loops without converging).
    Runaway {
        /// 0-based index of the runaway schedule.
        iteration: u64,
    },
    /// The iteration budget ran out before the tree was fully explored and
    /// the builder did not allow incomplete exploration.
    BudgetExhausted {
        /// Schedules executed before giving up.
        iterations: u64,
    },
}

impl fmt::Debug for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Deadlock { stuck, iteration } => {
                write!(f, "deadlock at schedule {iteration}: {stuck}")
            }
            ModelError::Runaway { iteration } => {
                write!(f, "runaway execution at schedule {iteration}")
            }
            ModelError::BudgetExhausted { iterations } => {
                write!(f, "iteration budget exhausted after {iterations} schedules")
            }
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::error::Error for ModelError {}

/// Configures and runs a model check. [`model`] is the common-case wrapper.
#[derive(Debug, Clone)]
pub struct Builder {
    preemption_bound: u32,
    max_iterations: u64,
    allow_incomplete: bool,
}

impl Default for Builder {
    fn default() -> Builder {
        Builder::new()
    }
}

impl Builder {
    /// Defaults: preemption bound 2, iteration budget 100 000 (or the
    /// `VCSQL_LOOM_MAX_ITERS` environment variable when set — the CI lane's
    /// time-bound knob), incomplete exploration is an error.
    pub fn new() -> Builder {
        let max_iterations = std::env::var("VCSQL_LOOM_MAX_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100_000);
        Builder { preemption_bound: 2, max_iterations, allow_incomplete: false }
    }

    /// Maximum preemptive context switches per schedule (forced switches at
    /// blocking operations are free).
    pub fn preemptions(mut self, bound: u32) -> Builder {
        self.preemption_bound = bound;
        self
    }

    /// Maximum number of schedules to execute before giving up.
    pub fn max_iterations(mut self, budget: u64) -> Builder {
        self.max_iterations = budget;
        self
    }

    /// Treat an exhausted iteration budget as a (reported-incomplete)
    /// success instead of an error.
    pub fn allow_incomplete(mut self) -> Builder {
        self.allow_incomplete = true;
        self
    }

    /// Run `f` under every schedule within the bounds; panic on any failure
    /// (assertion, deadlock, runaway, exhausted budget).
    pub fn check<F: Fn() + Send + Sync + 'static>(self, f: F) -> Explored {
        match self.check_result(f) {
            Ok(explored) => explored,
            Err(e) => panic!("model check failed: {e}"),
        }
    }

    /// [`Builder::check`] returning failures as values — the entry point for
    /// tests that assert the checker *catches* a seeded bug.
    ///
    /// Assertion panics from inside the model are still re-raised (they
    /// carry the user's own panic message); scheduler-detected failures
    /// (deadlock, runaway, budget) come back as [`ModelError`].
    pub fn check_result<F: Fn() + Send + Sync + 'static>(
        self,
        f: F,
    ) -> Result<Explored, ModelError> {
        let f = Arc::new(f);
        let mut prefix: Vec<u32> = Vec::new();
        let mut iterations: u64 = 0;
        loop {
            if iterations >= self.max_iterations {
                if self.allow_incomplete {
                    return Ok(Explored { iterations, complete: false });
                }
                return Err(ModelError::BudgetExhausted { iterations });
            }
            let (outcome, recorded, panic0) = run_one(&f, prefix.clone(), self.preemption_bound);
            iterations += 1;
            if let Some(payload) = panic0 {
                // A user assertion failed under this schedule: surface it
                // verbatim (the most informative failure mode).
                resume_unwind(payload);
            }
            match outcome {
                ExecOutcome::Deadlock(stuck) => {
                    return Err(ModelError::Deadlock { stuck, iteration: iterations - 1 });
                }
                ExecOutcome::Runaway => {
                    return Err(ModelError::Runaway { iteration: iterations - 1 });
                }
                ExecOutcome::Ok => {}
            }
            // Depth-first backtrack: advance the deepest choice point with an
            // unexplored alternative; done when none remains.
            let Some(deepest) =
                (0..recorded.len()).rev().find(|&i| recorded[i].chosen + 1 < recorded[i].options)
            else {
                return Ok(Explored { iterations, complete: true });
            };
            prefix = recorded[..deepest].iter().map(|c| c.chosen).collect();
            prefix.push(recorded[deepest].chosen + 1);
        }
    }
}

/// Execute the model once under `prefix`, returning the outcome, the full
/// choice record, and the main model thread's panic payload (if any).
fn run_one<F: Fn() + Send + Sync + 'static>(
    f: &Arc<F>,
    prefix: Vec<u32>,
    preemption_bound: u32,
) -> (ExecOutcome, Vec<ChoicePoint>, Option<Box<dyn Any + Send>>) {
    let exec = Arc::new(ExecShared::new(prefix, preemption_bound));
    let panic0: Arc<std::sync::Mutex<Option<Box<dyn Any + Send>>>> =
        Arc::new(std::sync::Mutex::new(None));
    {
        let mut st = exec.lock();
        let tid = exec.register(&mut st);
        debug_assert_eq!(tid, 0, "main model thread is always 0");
        let body = Arc::clone(f);
        let slot = Arc::clone(&panic0);
        let handle = spawn_controlled(Arc::clone(&exec), tid, move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body())) {
                if !payload.is::<AbandonToken>() {
                    *slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(payload);
                }
            }
        });
        st.os_handles[0] = Some(handle);
        st.current = Some(0);
        exec.cv.notify_all();
    }
    // Wait for every model thread to finish (abandoned executions unwind
    // their threads too), then reap the OS threads.
    let handles: Vec<std::thread::JoinHandle<()>> = {
        let mut st = exec.lock();
        loop {
            if st.status.iter().all(|s| *s == Status::Finished) {
                break;
            }
            st = exec.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.os_handles.iter_mut().filter_map(Option::take).collect()
    };
    for h in handles {
        let _ = h.join();
    }
    let mut st = exec.lock();
    let outcome = std::mem::replace(&mut st.outcome, ExecOutcome::Ok);
    let recorded = std::mem::take(&mut st.recorded);
    drop(st);
    let payload = panic0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
    (outcome, recorded, payload)
}

/// Spawn the OS thread backing model thread `tid`: park until scheduled,
/// run the body, then mark finished and hand the baton on.
fn spawn_controlled(
    exec: Arc<ExecShared>,
    tid: usize,
    body: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("loom-model-{tid}"))
        .spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some(Ctx { exec: Arc::clone(&exec), tid }));
            {
                let st = exec.lock();
                // First scheduling of this thread; abandon unwinds via the
                // catch below.
                let _st = match catch_unwind(AssertUnwindSafe(|| exec.wait_for_turn(st, tid))) {
                    Ok(st) => st,
                    Err(_) => {
                        finish_thread(&exec, tid);
                        return;
                    }
                };
            }
            // Panics (user assertions, AbandonToken) unwind through `body`'s
            // drops — which keep scheduling normally — before landing here.
            let _ = catch_unwind(AssertUnwindSafe(body));
            finish_thread(&exec, tid);
        })
        .expect("model thread spawns")
}

/// Mark `tid` finished, wake joiners, and pick the next thread.
fn finish_thread(exec: &ExecShared, tid: usize) {
    let mut st = exec.lock();
    st.status[tid] = Status::Finished;
    for t in 0..st.status.len() {
        if st.status[t] == Status::BlockedJoin(tid) {
            st.status[t] = Status::Runnable;
        }
    }
    if !st.abandoned {
        exec.pick_next(&mut st, tid);
    } else {
        exec.cv.notify_all();
    }
}

/// Check `f` under every schedule reachable within the default bounds
/// (preemption bound 2); panics on assertion failures, deadlocks, runaway
/// executions, or an exhausted iteration budget. Returns exploration
/// statistics.
///
/// ```
/// use loom::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// loom::model(|| {
///     let n = Arc::new(AtomicUsize::new(0));
///     let n2 = Arc::clone(&n);
///     let t = loom::thread::spawn(move || {
///         n2.fetch_add(1, Ordering::SeqCst);
///     });
///     n.fetch_add(1, Ordering::SeqCst);
///     t.join().unwrap();
///     assert_eq!(n.load(Ordering::SeqCst), 2);
/// });
/// ```
pub fn model<F: Fn() + Send + Sync + 'static>(f: F) -> Explored {
    Builder::new().check(f)
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Condvar, Mutex};
    use super::*;

    #[test]
    fn atomic_increments_are_atomic() {
        let explored = model(|| {
            let n = Arc::new(AtomicUsize::new(0));
            let n2 = Arc::clone(&n);
            let t = crate::thread::spawn(move || {
                n2.fetch_add(1, Ordering::SeqCst);
            });
            n.fetch_add(1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(n.load(Ordering::SeqCst), 2);
        });
        assert!(explored.complete, "tiny model must be exhaustively explored");
        assert!(explored.iterations >= 2, "spawn must branch: child first or parent first");
    }

    #[test]
    fn load_store_race_is_found() {
        // The classic lost update: read-modify-write without atomicity.
        // Some schedule interleaves the two loads before either store, so
        // the final count is 1 — the model checker must find it.
        let r = catch_unwind(AssertUnwindSafe(|| {
            model(|| {
                let n = Arc::new(AtomicUsize::new(0));
                let n2 = Arc::clone(&n);
                let t = crate::thread::spawn(move || {
                    let v = n2.load(Ordering::SeqCst);
                    n2.store(v + 1, Ordering::SeqCst);
                });
                let v = n.load(Ordering::SeqCst);
                n.store(v + 1, Ordering::SeqCst);
                t.join().unwrap();
                assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
            });
        }));
        assert!(r.is_err(), "the checker must find the lost-update schedule");
    }

    #[test]
    fn mutex_protects_read_modify_write() {
        let explored = model(|| {
            let n = Arc::new(Mutex::new(0usize));
            let n2 = Arc::clone(&n);
            let t = crate::thread::spawn(move || {
                let mut g = n2.lock().unwrap();
                *g += 1;
            });
            {
                let mut g = n.lock().unwrap();
                *g += 1;
            }
            t.join().unwrap();
            assert_eq!(*n.lock().unwrap(), 2);
        });
        assert!(explored.complete);
    }

    #[test]
    fn exploration_is_deterministic() {
        let run = || {
            model(|| {
                let n = Arc::new(AtomicUsize::new(0));
                let n2 = Arc::clone(&n);
                let t = crate::thread::spawn(move || {
                    n2.fetch_add(2, Ordering::SeqCst);
                });
                n.fetch_add(3, Ordering::SeqCst);
                t.join().unwrap();
                assert_eq!(n.load(Ordering::SeqCst), 5);
            })
        };
        assert_eq!(run(), run(), "same model, same bounds => same exploration");
    }

    /// The ISSUE's seeded-known-bad-schedule regression test for the checker
    /// itself: a condvar handoff whose "epoch bump" (the flag store) happens
    /// outside the mutex. In most schedules the waiter never misses the
    /// update, but one preemption — flag checked, *then* store + notify,
    /// *then* wait — loses the wakeup forever. The checker must report the
    /// deadlock rather than pass.
    #[test]
    fn lost_wakeup_from_unlocked_flag_is_detected() {
        let err = Builder::new()
            .check_result(|| {
                let pair = Arc::new((Mutex::new(()), Condvar::new(), AtomicUsize::new(0)));
                let pair2 = Arc::clone(&pair);
                let t = crate::thread::spawn(move || {
                    let (_m, cv, epoch) = &*pair2;
                    // BUG: the epoch bump does not take the mutex, so it can
                    // slot between the waiter's check and its wait.
                    epoch.store(1, Ordering::SeqCst);
                    cv.notify_one();
                });
                {
                    let (m, cv, epoch) = &*pair;
                    let mut g = m.lock().unwrap();
                    while epoch.load(Ordering::SeqCst) == 0 {
                        g = cv.wait(g).unwrap();
                    }
                }
                t.join().unwrap();
            })
            .expect_err("the missed-epoch-bump schedule must be found");
        match err {
            ModelError::Deadlock { stuck, .. } => {
                assert!(stuck.contains("condvar"), "waiter should be stuck on the condvar: {stuck}")
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    /// The fixed protocol — bump under the mutex — passes exhaustively.
    #[test]
    fn locked_epoch_bump_has_no_lost_wakeup() {
        let explored = model(|| {
            let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
            let pair2 = Arc::clone(&pair);
            let t = crate::thread::spawn(move || {
                let (m, cv) = &*pair2;
                *m.lock().unwrap() = 1;
                cv.notify_one();
            });
            {
                let (m, cv) = &*pair;
                let mut g = m.lock().unwrap();
                while *g == 0 {
                    g = cv.wait(g).unwrap();
                }
            }
            t.join().unwrap();
        });
        assert!(explored.complete);
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        let explored = Builder::new().preemptions(1).check(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let p = Arc::clone(&pair);
                    crate::thread::spawn(move || {
                        let (m, cv) = &*p;
                        let mut g = m.lock().unwrap();
                        while !*g {
                            g = cv.wait(g).unwrap();
                        }
                    })
                })
                .collect();
            {
                let (m, cv) = &*pair;
                *m.lock().unwrap() = true;
                cv.notify_all();
            }
            for w in waiters {
                w.join().unwrap();
            }
        });
        assert!(explored.complete);
    }

    #[test]
    fn join_returns_the_thread_value() {
        model(|| {
            let t = crate::thread::spawn(|| 41usize);
            assert_eq!(t.join().unwrap() + 1, 42);
        });
    }

    #[test]
    fn budget_exhaustion_is_an_error_by_default() {
        let err = Builder::new()
            .max_iterations(1)
            .check_result(|| {
                let n = Arc::new(AtomicUsize::new(0));
                let n2 = Arc::clone(&n);
                let t = crate::thread::spawn(move || {
                    n2.fetch_add(1, Ordering::SeqCst);
                });
                n.fetch_add(1, Ordering::SeqCst);
                t.join().unwrap();
            })
            .expect_err("2+ schedules cannot fit a budget of 1");
        assert!(matches!(err, ModelError::BudgetExhausted { iterations: 1 }));
        // ... but is reported as incomplete success when allowed.
        let explored = Builder::new()
            .max_iterations(1)
            .allow_incomplete()
            .check_result(|| {
                let n = Arc::new(AtomicUsize::new(0));
                let n2 = Arc::clone(&n);
                let t = crate::thread::spawn(move || {
                    n2.fetch_add(1, Ordering::SeqCst);
                });
                n.fetch_add(1, Ordering::SeqCst);
                t.join().unwrap();
            })
            .expect("allow_incomplete turns the budget into a soft stop");
        assert_eq!(explored, Explored { iterations: 1, complete: false });
    }

    #[test]
    fn shadow_primitives_fall_back_to_std_outside_models() {
        // No model context: everything behaves as plain std. This is the
        // mode the regular test suite exercises under --cfg vcsql_loom.
        let n = AtomicUsize::new(1);
        assert_eq!(n.fetch_add(1, Ordering::SeqCst), 1);
        assert_eq!(n.load(Ordering::SeqCst), 2);
        let m = Mutex::new(7usize);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 8);
        let t = crate::thread::spawn(|| 5usize);
        assert_eq!(t.join().unwrap(), 5);
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = crate::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock().unwrap() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn user_panics_surface_with_their_own_message() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            model(|| panic!("custom model assertion text"));
        }));
        let payload = r.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("custom model assertion text"), "got: {msg}");
    }
}
