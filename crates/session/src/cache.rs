//! The bounded, SQL-keyed plan cache behind [`Session::prepare`] and
//! `vcsql-server`'s tenants.
//!
//! Plans depend only on the SQL text and the schemas, never on the data, so
//! a host over one TAG can cache them indefinitely; the cache is bounded
//! (least-recently-used eviction) so ad-hoc traffic cannot grow it without
//! limit, and it counts hits and misses so operators can see whether their
//! workload actually reuses statements. Every host keeps one; a server
//! shares it across its tenants, so a statement planned for one tenant is a
//! hit for all of them.
//!
//! [`Session::prepare`]: crate::Session::prepare

use crate::lock;
use std::sync::Arc;
use vcsql_bsp::sync::Mutex;
use vcsql_core::QueryPlan;
use vcsql_relation::schema::Schema;
use vcsql_relation::{FxHashMap, RelError};

/// A cached plan plus the stamp of its latest use.
#[derive(Debug)]
struct Entry {
    plan: Arc<QueryPlan>,
    last_use: u64,
}

/// What the lock guards.
#[derive(Debug, Default)]
struct Inner {
    plans: FxHashMap<String, Entry>,
    /// Monotonic stamp source.
    clock: u64,
    /// Lookups served from the cache.
    hits: u64,
    /// Lookups that had to plan from scratch.
    misses: u64,
}

/// A bounded LRU cache of prepared [`QueryPlan`]s, keyed by SQL text, with
/// hit/miss counters, behind one lock.
///
/// Each plan carries the stamp of its latest use, from a counter bumped on
/// every hit and insert. A hit is one map probe and a stamp write. An insert
/// into a full cache evicts the smallest stamp, found by a scan over the
/// `capacity` cached entries (128 in every host) — and only after a miss,
/// which has just paid for planning.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans. Panics on zero capacity (a
    /// host validates its configuration before building one).
    pub fn new(capacity: usize) -> PlanCache {
        assert!(capacity > 0, "plan cache needs capacity for at least one plan");
        PlanCache { capacity, inner: Mutex::new(Inner::default()) }
    }

    /// The one lookup path: consult the cache, and on a miss plan `sql`
    /// against `schemas` *outside* the lock, so a cold compile stalls no
    /// one, before inserting the result. Two callers racing to plan the same
    /// SQL both succeed; the first insert wins and both get the same plan
    /// allocation. A planning error counts one miss, caches nothing and is
    /// returned as is.
    pub fn get_or_prepare(
        &self,
        sql: &str,
        schemas: &[Schema],
    ) -> Result<Arc<QueryPlan>, RelError> {
        if let Some(plan) = self.get(sql) {
            return Ok(plan);
        }
        let plan = Arc::new(QueryPlan::prepare(sql, schemas)?);
        Ok(self.insert(sql, plan))
    }

    /// Look up `sql`: a hit refreshes recency and counts one hit, a miss
    /// counts one miss and returns `None`.
    fn get(&self, sql: &str) -> Option<Arc<QueryPlan>> {
        let mut inner = lock(&self.inner);
        let Inner { plans, clock, hits, misses } = &mut *inner;
        let Some(entry) = plans.get_mut(sql) else {
            *misses += 1;
            return None;
        };
        *hits += 1;
        *clock += 1;
        entry.last_use = *clock;
        Some(Arc::clone(&entry.plan))
    }

    /// Insert a plan built outside the lock, evicting the LRU entry beyond
    /// capacity. If `sql` is already cached — two callers raced to build
    /// the same plan — the **first** insert wins and the cached plan is
    /// returned. Counts nothing (the preceding `get` already did).
    fn insert(&self, sql: &str, plan: Arc<QueryPlan>) -> Arc<QueryPlan> {
        let mut inner = lock(&self.inner);
        let Inner { plans, clock, .. } = &mut *inner;
        *clock += 1;
        if let Some(entry) = plans.get_mut(sql) {
            entry.last_use = *clock;
            return Arc::clone(&entry.plan);
        }
        if plans.len() == self.capacity {
            // Stamps are unique, so this removes exactly the LRU entry.
            let oldest = plans.values().map(|e| e.last_use).min();
            plans.retain(|_, e| Some(e.last_use) != oldest);
        }
        plans.insert(sql.to_string(), Entry { plan: Arc::clone(&plan), last_use: *clock });
        plan
    }

    /// True iff `sql` is currently cached (does not affect recency/stats).
    pub fn contains(&self, sql: &str) -> bool {
        lock(&self.inner).plans.contains_key(sql)
    }

    /// Cached plans right now.
    pub fn len(&self) -> usize {
        lock(&self.inner).plans.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        lock(&self.inner).hits
    }

    /// Lookups that had to plan from scratch.
    pub fn misses(&self) -> u64 {
        lock(&self.inner).misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_relation::schema::Column;
    use vcsql_relation::DataType;

    fn schemas() -> Vec<Schema> {
        vec![Schema::new(
            "r",
            vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)],
        )]
    }

    fn plan_for(cache: &PlanCache, sql: &str) -> Arc<QueryPlan> {
        cache.get_or_prepare(sql, &schemas()).unwrap()
    }

    #[test]
    fn callers_share_one_plan_and_one_pair_of_counters() {
        let cache = PlanCache::new(8);
        let q = "SELECT r.a FROM r";
        let first = plan_for(&cache, q);
        let second = plan_for(&cache, q);
        // One plan allocation serves both callers: one miss, then one hit.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let (a, b, c) = ("SELECT r.a FROM r", "SELECT r.b FROM r", "SELECT r.a, r.b FROM r");
        plan_for(&cache, a);
        plan_for(&cache, b);
        // Touch `a` so `b` becomes the LRU entry, then overflow with `c`.
        plan_for(&cache, a);
        plan_for(&cache, c);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(a), "recently used entry must survive");
        assert!(!cache.contains(b), "LRU entry must be evicted");
        assert!(cache.contains(c));
        // Re-preparing the evicted statement is a miss again.
        plan_for(&cache, b);
        assert_eq!(cache.misses(), 4);
        assert!(!cache.contains(a), "a became LRU after c and b were touched");
    }

    #[test]
    fn hit_storms_keep_lru_exact() {
        let cache = PlanCache::new(2);
        let (a, b, c) = ("SELECT r.a FROM r", "SELECT r.b FROM r", "SELECT r.a, r.b FROM r");
        plan_for(&cache, a);
        plan_for(&cache, b);
        // A hot statement hit thousands of times.
        for _ in 0..1000 {
            plan_for(&cache, a);
        }
        assert_eq!(cache.hits(), 1000);
        // Eviction still finds the true LRU after the storm.
        plan_for(&cache, c);
        assert!(cache.contains(a), "hot entry must survive");
        assert!(!cache.contains(b), "cold entry must be the one evicted");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn racing_inserts_agree_on_the_first_plan() {
        let cache = PlanCache::new(4);
        let s = schemas();
        let q = "SELECT r.b FROM r";
        // Two callers both missed and both planned (`get_or_prepare` plans
        // outside the lock, so this is the real race shape).
        assert!(cache.get(q).is_none());
        assert!(cache.get(q).is_none());
        let a = cache.insert(q, Arc::new(QueryPlan::prepare(q, &s).unwrap()));
        let b = cache.insert(q, Arc::new(QueryPlan::prepare(q, &s).unwrap()));
        assert!(Arc::ptr_eq(&a, &b), "first insert must win for every caller");
        // Inserts count nothing: two lookups, two misses.
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_prepare_counts_one_miss_and_caches_nothing() {
        let cache = PlanCache::new(4);
        assert!(cache.get_or_prepare("SELECT nope FROM nowhere", &schemas()).is_err());
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        PlanCache::new(0);
    }
}
