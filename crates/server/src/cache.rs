//! The server-wide shared plan cache: one bounded [`PlanCache`] and the
//! per-tenant hit/miss counters behind one mutex, keyed by SQL text.
//!
//! Plans depend only on the SQL text and the schemas, so every tenant of a
//! [`QueryServer`](crate::QueryServer) shares one cache: a statement planned
//! for one tenant is a hit for all of them. A lookup holds the lock for one
//! LRU probe and one counter bump; planning itself always happens *outside*
//! it ([`SharedPlanCache::get_or_prepare`]), so a cold compile stalls no
//! one. Two tenants racing to plan the same SQL both succeed; the first
//! insert wins and both end up holding the same plan allocation
//! ([`PlanCache::insert`]).

use crate::lock;
use std::sync::Arc;
use vcsql_bsp::sync::Mutex;
use vcsql_core::QueryPlan;
use vcsql_relation::schema::Schema;
use vcsql_relation::RelError;
use vcsql_session::PlanCache;

/// One tenant's view of the shared cache: how often its lookups were served
/// from plans already cached (by anyone) versus planned from scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCacheStats {
    /// Lookups served from the shared cache.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
}

/// A concurrently usable [`PlanCache`] plus per-tenant hit/miss counters
/// (indexed by tenant id and grown on demand — tenant ids are dense, the
/// server hands them out), under one lock.
#[derive(Debug)]
pub struct SharedPlanCache {
    inner: Mutex<(PlanCache, Vec<TenantCacheStats>)>,
}

impl SharedPlanCache {
    /// A cache holding at most `capacity` plans. Panics on zero capacity
    /// (the server validates its configuration before building one).
    pub fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache { inner: Mutex::new((PlanCache::new(capacity), Vec::new())) }
    }

    /// Look up `sql` for `tenant`: a hit refreshes recency and counts
    /// toward the tenant's hit counter, a miss counts toward its misses and
    /// returns `None`.
    pub fn get(&self, tenant: usize, sql: &str) -> Option<Arc<QueryPlan>> {
        let mut inner = lock(&self.inner);
        let (cache, tenants) = &mut *inner;
        let plan = cache.get(sql);
        if tenants.len() <= tenant {
            tenants.resize(tenant + 1, TenantCacheStats::default());
        }
        match plan.is_some() {
            true => tenants[tenant].hits += 1,
            false => tenants[tenant].misses += 1,
        }
        plan
    }

    /// Insert a plan built outside the lock. If `sql` is already cached —
    /// two tenants raced to plan the same statement — the first insert wins
    /// and every caller gets the cached allocation back.
    pub fn insert(&self, sql: &str, plan: Arc<QueryPlan>) -> Arc<QueryPlan> {
        lock(&self.inner).0.insert(sql, plan)
    }

    /// The full lookup path: consult the cache, and on a miss plan `sql`
    /// against `schemas` *outside* the lock before inserting the result.
    /// Planning errors are returned as-is and cache nothing.
    pub fn get_or_prepare(
        &self,
        tenant: usize,
        sql: &str,
        schemas: &[Schema],
    ) -> Result<Arc<QueryPlan>, RelError> {
        if let Some(plan) = self.get(tenant, sql) {
            return Ok(plan);
        }
        let plan = Arc::new(QueryPlan::prepare(sql, schemas)?);
        Ok(self.insert(sql, plan))
    }

    /// True iff `sql` is currently cached (no recency/stat effects).
    pub fn contains(&self, sql: &str) -> bool {
        lock(&self.inner).0.contains(sql)
    }

    /// Cached plans right now.
    pub fn len(&self) -> usize {
        lock(&self.inner).0.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate hits (tenant-attributed hits are in
    /// [`SharedPlanCache::tenant_stats`]).
    pub fn hits(&self) -> u64 {
        lock(&self.inner).0.hits()
    }

    /// Aggregate misses.
    pub fn misses(&self) -> u64 {
        lock(&self.inner).0.misses()
    }

    /// One tenant's hit/miss counters (zeros for a tenant that never looked
    /// anything up).
    pub fn tenant_stats(&self, tenant: usize) -> TenantCacheStats {
        lock(&self.inner).1.get(tenant).copied().unwrap_or_default()
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

    #[test]
    fn tenants_share_plans_and_keep_private_counters() {
        let cache = SharedPlanCache::new(8);
        let s = schemas();
        let q = "SELECT r.a FROM r";
        let first = cache.get_or_prepare(0, q, &s).unwrap();
        let second = cache.get_or_prepare(1, q, &s).unwrap();
        // One plan allocation serves both tenants.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.tenant_stats(0), TenantCacheStats { hits: 0, misses: 1 });
        assert_eq!(cache.tenant_stats(1), TenantCacheStats { hits: 1, misses: 0 });
        // A tenant that never looked up reads zeros, not a panic.
        assert_eq!(cache.tenant_stats(7), TenantCacheStats::default());
    }

    #[test]
    fn racing_inserts_agree_on_the_first_plan() {
        let cache = SharedPlanCache::new(4);
        let s = schemas();
        let q = "SELECT r.b FROM r";
        // Two callers both missed and both planned (get_or_prepare plans
        // outside the lock, so this is the real race shape).
        assert!(cache.get(0, q).is_none());
        assert!(cache.get(1, q).is_none());
        let a = cache.insert(q, Arc::new(QueryPlan::prepare(q, &s).unwrap()));
        let b = cache.insert(q, Arc::new(QueryPlan::prepare(q, &s).unwrap()));
        assert!(Arc::ptr_eq(&a, &b), "first insert must win for every caller");
        assert!(cache.contains(q));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_the_cache_and_eviction_is_lru() {
        let cache = SharedPlanCache::new(2);
        let s = schemas();
        let (a, b, c) = ("SELECT r.a FROM r", "SELECT r.b FROM r", "SELECT r.a, r.b FROM r");
        cache.get_or_prepare(0, a, &s).unwrap();
        cache.get_or_prepare(0, b, &s).unwrap();
        cache.get_or_prepare(0, a, &s).unwrap(); // touch `a`: `b` is now LRU
        cache.get_or_prepare(0, c, &s).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(a) && cache.contains(c) && !cache.contains(b));
    }

    #[test]
    fn planning_errors_cache_nothing() {
        let cache = SharedPlanCache::new(4);
        assert!(cache.get_or_prepare(0, "SELECT nope FROM nowhere", &schemas()).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.tenant_stats(0).misses, 1);
    }
}
