//! The server-wide shared plan cache: one bounded [`PlanCache`] per shard
//! behind an `RwLock`, keyed by SQL hash, with per-tenant hit/miss counters.
//!
//! Plans depend only on the SQL text and the schemas, so every tenant of a
//! [`QueryServer`](crate::QueryServer) shares one cache: a statement planned
//! for one tenant is a hit for all of them. Sharding keeps the lock
//! fine-grained — two tenants preparing different statements almost never
//! contend — and planning itself always happens *outside* any lock
//! ([`ShardedPlanCache::get_or_prepare`]), so a cold compile stalls no one.
//! Two tenants racing to plan the same SQL both succeed; the first insert
//! wins and both end up holding the same plan allocation
//! ([`PlanCache::insert`]).

use crate::lock;
use std::hash::Hasher;
use std::sync::{Arc, PoisonError};
use vcsql_bsp::sync::{Mutex, RwLock};
use vcsql_core::QueryPlan;
use vcsql_relation::fx::FxHasher;
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

/// A sharded, concurrently usable [`PlanCache`]: `shards` independent LRU
/// caches, each behind its own `RwLock`, plus per-tenant hit/miss counters.
#[derive(Debug)]
pub struct ShardedPlanCache {
    shards: Vec<RwLock<PlanCache>>,
    /// Per-tenant hit/miss counters, indexed by tenant id and grown on
    /// demand (tenant ids are dense — the server hands them out).
    tenants: Mutex<Vec<TenantCacheStats>>,
}

impl ShardedPlanCache {
    /// A cache of `shards` shards holding at most `capacity_per_shard`
    /// plans each. Panics on zero shards or zero capacity (the server
    /// validates its configuration before building one).
    pub fn new(shards: usize, capacity_per_shard: usize) -> ShardedPlanCache {
        assert!(shards > 0, "plan cache needs at least one shard");
        ShardedPlanCache {
            shards: (0..shards).map(|_| RwLock::new(PlanCache::new(capacity_per_shard))).collect(),
            tenants: Mutex::new(Vec::new()),
        }
    }

    /// The shard serving `sql`.
    fn shard_of(&self, sql: &str) -> usize {
        let mut h = FxHasher::default();
        h.write(sql.as_bytes());
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Look up `sql` for `tenant`: a hit refreshes shard recency and counts
    /// toward the tenant's hit counter, a miss counts toward its misses and
    /// returns `None`. Takes one shard's write lock briefly (recency and
    /// counters mutate even on the hit path).
    pub fn get(&self, tenant: usize, sql: &str) -> Option<Arc<QueryPlan>> {
        let plan = {
            let mut shard = self.write_shard(self.shard_of(sql));
            shard.get(sql)
        };
        let mut tenants = lock(&self.tenants);
        if tenants.len() <= tenant {
            tenants.resize(tenant + 1, TenantCacheStats::default());
        }
        match plan.is_some() {
            true => tenants[tenant].hits += 1,
            false => tenants[tenant].misses += 1,
        }
        plan
    }

    /// Insert a plan built outside any lock. If `sql` is already cached —
    /// two tenants raced to plan the same statement — the first insert wins
    /// and every caller gets the cached allocation back.
    pub fn insert(&self, sql: &str, plan: Arc<QueryPlan>) -> Arc<QueryPlan> {
        self.write_shard(self.shard_of(sql)).insert(sql, plan)
    }

    /// The full lookup path: consult the cache, and on a miss plan `sql`
    /// against `schemas` *outside* every lock before inserting the result.
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

    /// True iff `sql` is currently cached (read lock; no recency/stat
    /// effects).
    pub fn contains(&self, sql: &str) -> bool {
        self.read_shard(self.shard_of(sql)).contains(sql)
    }

    /// Cached plans right now, across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.read_shard(s).len()).sum()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate hits across all shards (tenant-attributed hits are in
    /// [`ShardedPlanCache::tenant_stats`]).
    pub fn hits(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.read_shard(s).hits()).sum()
    }

    /// Aggregate misses across all shards.
    pub fn misses(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.read_shard(s).misses()).sum()
    }

    /// One tenant's hit/miss counters (zeros for a tenant that never looked
    /// anything up).
    pub fn tenant_stats(&self, tenant: usize) -> TenantCacheStats {
        lock(&self.tenants).get(tenant).copied().unwrap_or_default()
    }

    fn read_shard(&self, s: usize) -> impl std::ops::Deref<Target = PlanCache> + '_ {
        self.shards[s].read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_shard(&self, s: usize) -> impl std::ops::DerefMut<Target = PlanCache> + '_ {
        self.shards[s].write().unwrap_or_else(PoisonError::into_inner)
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
        let cache = ShardedPlanCache::new(4, 8);
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
        let cache = ShardedPlanCache::new(2, 4);
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
    fn capacity_is_per_shard_and_eviction_stays_local() {
        let cache = ShardedPlanCache::new(1, 2);
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
        let cache = ShardedPlanCache::new(3, 4);
        assert!(cache.get_or_prepare(0, "SELECT nope FROM nowhere", &schemas()).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.tenant_stats(0).misses, 1);
    }

    #[test]
    #[should_panic]
    fn zero_shards_panic() {
        ShardedPlanCache::new(0, 4);
    }
}
