//! Admission control: bounded in-flight executions per tenant and globally,
//! with fair round-robin dequeue across tenants.
//!
//! Every [`TenantSession::run_sql`](crate::TenantSession::run_sql) first
//! acquires an [`AdmissionPermit`]. Requests beyond the per-tenant or global
//! in-flight bound queue up per tenant. Nothing runs in the background:
//! whoever changes the state — a caller queueing its ticket, a permit
//! dropping — runs the round-robin scan itself under the state mutex and
//! wakes the waiters whose tickets it granted. A tenant hammering the
//! server cannot starve a quiet one: each admission scan starts at the
//! tenant *after* the last one served.

use std::collections::{HashSet, VecDeque};
use std::sync::PoisonError;
use vcsql_bsp::sync::{Condvar, Mutex};
use vcsql_session::lock;

/// Lifetime counters of the admission queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionStats {
    /// Permits granted over the controller's lifetime.
    pub admitted: u64,
    /// Most executions ever in flight at once (never exceeds the global
    /// bound).
    pub peak_in_flight: usize,
}

/// Everything admission arbitrates over, under one lock.
#[derive(Default)]
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

/// The admission queue: [`AdmissionController::acquire`] blocks until the
/// caller's tenant is within both bounds, returning a permit whose `Drop`
/// releases the slot.
pub struct AdmissionController {
    state: Mutex<State>,
    /// Waiters park here; whoever grants a ticket notifies.
    granted: Condvar,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.state);
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
        AdmissionController {
            state: Mutex::new(State { per_tenant, total, ..State::default() }),
            granted: Condvar::new(),
        }
    }

    /// Queue `tenant` and block until its ticket is granted. FIFO within a
    /// tenant, round-robin across tenants.
    pub fn acquire(&self, tenant: usize) -> AdmissionPermit<'_> {
        let mut st = lock(&self.state);
        st.ensure_tenant(tenant);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queues[tenant].push_back(ticket);
        self.grant_ready(&mut st);
        while !st.granted.remove(&ticket) {
            st = self.granted.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        AdmissionPermit { controller: self, tenant }
    }

    /// Grant every ticket that is admissible now and wake the waiters. Runs
    /// under the state mutex after every change to it (a ticket queued, a
    /// slot released), so between changes nothing grantable is ever left
    /// queued.
    fn grant_ready(&self, st: &mut State) {
        let mut any = false;
        while st.grant_next() {
            any = true;
        }
        if any {
            self.granted.notify_all();
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AdmissionStats {
        lock(&self.state).stats
    }

    /// Executions in flight right now, across all tenants.
    pub fn total_in_flight(&self) -> usize {
        lock(&self.state).total_in_flight
    }

    /// Requests queued (not yet admitted) across all tenants.
    pub fn waiting(&self) -> usize {
        lock(&self.state).queues.iter().map(VecDeque::len).sum()
    }
}

/// An admitted execution slot; dropping it releases the slot and hands it
/// to the next waiter in round-robin order.
pub struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
    tenant: usize,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.controller.state);
        st.in_flight[self.tenant] -= 1;
        st.total_in_flight -= 1;
        self.controller.grant_ready(&mut st);
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
        let mut st = State { per_tenant: 2, total: 3, ..State::default() };
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
        let mut st = State { per_tenant: 1, total: 8, ..State::default() };
        st.ensure_tenant(0);
        st.queues[0].extend([1, 2, 3]);
        assert!(st.grant_next());
        assert!(!st.grant_next(), "sole tenant is at its per-tenant bound");
        assert_eq!(st.total_in_flight, 1);
    }

    /// End-to-end through the condvar: concurrent acquirers never
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

    /// Real threads through `acquire`: the flooder holds the only slot with
    /// three more requests queued behind it when the quiet tenant shows up;
    /// the quiet tenant is admitted after at most one of them.
    #[test]
    fn flooding_tenant_cannot_starve_a_quiet_one() {
        let ctl = AdmissionController::new(1, 1);
        let held = Mutex::new(Some(ctl.acquire(0)));
        let order = Mutex::new(Vec::new());
        let pool = WorkerPool::new(5);
        pool.run(5, &|w| {
            if w == 4 {
                // Release the held slot only once all four are queued.
                while ctl.waiting() < 4 {
                    std::thread::yield_now();
                }
                drop(lock(&held).take());
                return;
            }
            let tenant = usize::from(w == 3);
            let permit = ctl.acquire(tenant);
            // Total bound 1: pushes are serialized in grant order.
            lock(&order).push(tenant);
            drop(permit);
        });
        let order = lock(&order).clone();
        assert_eq!(order.len(), 4);
        let quiet_at = order.iter().position(|&t| t == 1).expect("quiet tenant admitted");
        assert!(quiet_at <= 1, "quiet tenant waited out the flood: {order:?}");
        assert_eq!(ctl.stats().peak_in_flight, 1);
        assert_eq!(ctl.total_in_flight(), 0);
    }

    #[test]
    fn uncontended_acquire_is_immediate_and_permit_drop_releases() {
        let ctl = AdmissionController::new(2, 4);
        let a = ctl.acquire(0);
        let b = ctl.acquire(0);
        assert_eq!(ctl.total_in_flight(), 2);
        drop(a);
        drop(b);
        assert_eq!(ctl.total_in_flight(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_bound_panics() {
        AdmissionController::new(0, 1);
    }
}
