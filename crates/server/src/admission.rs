//! Admission control: bounded in-flight executions per tenant and globally,
//! with fair round-robin dequeue across tenants.
//!
//! Every [`TenantSession::run_sql`](crate::TenantSession::run_sql) first
//! acquires an [`AdmissionPermit`]. Requests beyond the per-tenant or global
//! in-flight bound queue up per tenant; a single background dispatcher
//! thread — the only thread this crate spawns — grants tickets in round-
//! robin order over the tenant queues, so a tenant hammering the server
//! cannot starve a quiet one: each admission scan starts at the tenant
//! *after* the last one served.
//!
//! The dispatcher parks on a condvar when nothing is grantable and is woken
//! by submissions and permit drops; waiters park on a second condvar and
//! re-check whether their ticket was granted. Dropping the controller
//! closes the queue and joins the dispatcher.

use crate::lock;
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, PoisonError};
use vcsql_bsp::sync::thread::{Builder, JoinHandle};
use vcsql_bsp::sync::{Condvar, Mutex, MutexGuard};

/// Lifetime counters of the admission queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionStats {
    /// Permits granted over the controller's lifetime.
    pub admitted: u64,
    /// Most executions ever in flight at once (never exceeds the global
    /// bound).
    pub peak_in_flight: usize,
}

/// Shared between the controller handle, every permit, and the dispatcher.
struct Shared {
    state: Mutex<State>,
    /// The dispatcher parks here; submissions and permit drops notify.
    work: Condvar,
    /// Waiters park here; the dispatcher notifies after granting.
    granted: Condvar,
}

/// Everything the dispatcher arbitrates over, under one lock.
struct State {
    /// Per-tenant FIFO of waiting ticket ids, grown on demand.
    queues: Vec<VecDeque<u64>>,
    /// Per-tenant in-flight execution counts.
    in_flight: Vec<usize>,
    total_in_flight: usize,
    /// Round-robin position: the tenant the next admission scan starts at.
    cursor: usize,
    /// Monotonic ticket ids.
    next_ticket: u64,
    /// Tickets granted but not yet claimed by their waiter.
    granted: HashSet<u64>,
    per_tenant: usize,
    total: usize,
    closed: bool,
    stats: AdmissionStats,
}

impl State {
    fn ensure_tenant(&mut self, tenant: usize) {
        if self.queues.len() <= tenant {
            self.queues.resize_with(tenant + 1, VecDeque::new);
            self.in_flight.resize(tenant + 1, 0);
        }
    }

    /// Grant the next admissible ticket in round-robin order, if any: scan
    /// tenants starting at the cursor, skip tenants with an empty queue or
    /// at their in-flight bound, admit the head ticket of the first
    /// eligible queue, and park the cursor just past it.
    fn grant_next(&mut self) -> bool {
        if self.total_in_flight >= self.total || self.queues.is_empty() {
            return false;
        }
        let n = self.queues.len();
        for i in 0..n {
            let t = (self.cursor + i) % n;
            if self.queues[t].is_empty() || self.in_flight[t] >= self.per_tenant {
                continue;
            }
            let ticket = self.queues[t].pop_front().expect("queue checked non-empty");
            self.in_flight[t] += 1;
            self.total_in_flight += 1;
            self.stats.admitted += 1;
            self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.total_in_flight);
            self.granted.insert(ticket);
            self.cursor = (t + 1) % n;
            return true;
        }
        false
    }
}

fn wait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The admission queue: [`AdmissionController::acquire`] blocks until the
/// caller's tenant is within both bounds, returning a permit whose `Drop`
/// releases the slot.
pub struct AdmissionController {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.shared.state);
        f.debug_struct("AdmissionController")
            .field("per_tenant", &st.per_tenant)
            .field("total", &st.total)
            .field("total_in_flight", &st.total_in_flight)
            .finish_non_exhaustive()
    }
}

impl AdmissionController {
    /// A controller admitting at most `per_tenant` concurrent executions
    /// per tenant and `total` across all tenants. Panics on zero bounds
    /// (the server validates its configuration first).
    pub fn new(per_tenant: usize, total: usize) -> AdmissionController {
        assert!(per_tenant > 0, "per-tenant admission bound must admit at least one");
        assert!(total > 0, "global admission bound must admit at least one");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: Vec::new(),
                in_flight: Vec::new(),
                total_in_flight: 0,
                cursor: 0,
                next_ticket: 0,
                granted: HashSet::new(),
                per_tenant,
                total,
                closed: false,
                stats: AdmissionStats::default(),
            }),
            work: Condvar::new(),
            granted: Condvar::new(),
        });
        let for_loop = Arc::clone(&shared);
        let dispatcher = Builder::new()
            .name("vcsql-admission".into())
            .spawn(move || dispatch_loop(&for_loop))
            .expect("spawn admission dispatcher");
        AdmissionController { shared, dispatcher: Some(dispatcher) }
    }

    /// Queue `tenant` and block until the dispatcher grants a slot. FIFO
    /// within a tenant, round-robin across tenants.
    pub fn acquire(&self, tenant: usize) -> AdmissionPermit {
        let mut st = lock(&self.shared.state);
        assert!(!st.closed, "admission controller is shut down");
        st.ensure_tenant(tenant);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queues[tenant].push_back(ticket);
        self.shared.work.notify_all();
        while !st.granted.remove(&ticket) {
            st = wait(&self.shared.granted, st);
        }
        drop(st);
        AdmissionPermit { shared: Arc::clone(&self.shared), tenant }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AdmissionStats {
        lock(&self.shared.state).stats
    }

    /// Executions in flight right now, across all tenants.
    pub fn total_in_flight(&self) -> usize {
        lock(&self.shared.state).total_in_flight
    }

    /// Executions in flight for one tenant.
    pub fn in_flight(&self, tenant: usize) -> usize {
        lock(&self.shared.state).in_flight.get(tenant).copied().unwrap_or(0)
    }

    /// Requests queued (not yet admitted) across all tenants.
    pub fn waiting(&self) -> usize {
        lock(&self.shared.state).queues.iter().map(VecDeque::len).sum()
    }
}

impl Drop for AdmissionController {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.closed = true;
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

fn dispatch_loop(shared: &Shared) {
    let mut st = lock(&shared.state);
    loop {
        if st.closed {
            return;
        }
        if st.grant_next() {
            shared.granted.notify_all();
            continue;
        }
        st = wait(&shared.work, st);
    }
}

/// An admitted execution slot; dropping it releases the slot and wakes the
/// dispatcher.
pub struct AdmissionPermit {
    shared: Arc<Shared>,
    tenant: usize,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.in_flight[self.tenant] -= 1;
            st.total_in_flight -= 1;
        }
        self.shared.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vcsql_bsp::WorkerPool;

    /// The arbitration core, driven deterministically: a backlogged noisy
    /// tenant and a quiet one alternate, and bounds hold at every step.
    #[test]
    fn round_robin_interleaves_backlogged_tenants() {
        let mut st = State {
            queues: Vec::new(),
            in_flight: Vec::new(),
            total_in_flight: 0,
            cursor: 0,
            next_ticket: 0,
            granted: HashSet::new(),
            per_tenant: 2,
            total: 3,
            closed: false,
            stats: AdmissionStats::default(),
        };
        st.ensure_tenant(1);
        // Tenant 0 floods the queue before tenant 1 shows up at all.
        st.queues[0].extend([10, 11, 12, 13]);
        st.queues[1].extend([20, 21]);
        assert!(st.grant_next() && st.grant_next() && st.grant_next());
        // Round-robin: 0, 1, 0 — not three grants for the flooder.
        assert_eq!(st.in_flight, vec![2, 1]);
        assert_eq!(st.total_in_flight, 3);
        assert!(st.granted.contains(&10) && st.granted.contains(&20) && st.granted.contains(&11));
        // Global bound reached: nothing more grants.
        assert!(!st.grant_next());
        // A release lets the scan continue from the cursor: tenant 1 is
        // next, and tenant 0 is at its per-tenant bound anyway.
        st.in_flight[0] -= 1;
        st.total_in_flight -= 1;
        assert!(st.grant_next());
        assert!(st.granted.contains(&21));
        assert_eq!(st.stats.admitted, 4);
        assert_eq!(st.stats.peak_in_flight, 3);
    }

    #[test]
    fn per_tenant_bound_holds_even_with_global_headroom() {
        let mut st = State {
            queues: Vec::new(),
            in_flight: Vec::new(),
            total_in_flight: 0,
            cursor: 0,
            next_ticket: 0,
            granted: HashSet::new(),
            per_tenant: 1,
            total: 8,
            closed: false,
            stats: AdmissionStats::default(),
        };
        st.ensure_tenant(0);
        st.queues[0].extend([1, 2, 3]);
        assert!(st.grant_next());
        assert!(!st.grant_next(), "sole tenant is at its per-tenant bound");
        assert_eq!(st.total_in_flight, 1);
    }

    /// End-to-end through the dispatcher thread: concurrent acquirers never
    /// exceed the global bound, and everyone is eventually admitted.
    #[test]
    fn concurrent_acquires_respect_the_global_bound() {
        let ctl = AdmissionController::new(1, 2);
        let current = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let pool = WorkerPool::new(4);
        pool.run(4, &|w| {
            for _ in 0..5 {
                let permit = ctl.acquire(w); // four distinct tenants
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                current.fetch_sub(1, Ordering::SeqCst);
                drop(permit);
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "global bound breached");
        let stats = ctl.stats();
        assert_eq!(stats.admitted, 20);
        assert!(stats.peak_in_flight <= 2);
        assert_eq!(ctl.total_in_flight(), 0);
        assert_eq!(ctl.waiting(), 0);
    }

    #[test]
    fn uncontended_acquire_is_immediate_and_permit_drop_releases() {
        let ctl = AdmissionController::new(2, 4);
        let a = ctl.acquire(0);
        let b = ctl.acquire(0);
        assert_eq!(ctl.in_flight(0), 2);
        assert_eq!(ctl.total_in_flight(), 2);
        drop(a);
        drop(b);
        assert_eq!(ctl.total_in_flight(), 0);
        // Tenant ids never seen report zero instead of panicking.
        assert_eq!(ctl.in_flight(9), 0);
    }

    #[test]
    #[should_panic]
    fn zero_bound_panics() {
        AdmissionController::new(0, 1);
    }
}
