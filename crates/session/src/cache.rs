//! The bounded, SQL-keyed plan cache behind [`Session::prepare`].
//!
//! Plans depend only on the SQL text and the schemas, never on the data, so
//! a session over one TAG can cache them indefinitely; the cache is bounded
//! (least-recently-used eviction) so a session serving ad-hoc traffic cannot
//! grow without limit, and it keeps hit/miss statistics so operators can see
//! whether their workload actually reuses statements.
//!
//! [`Session::prepare`]: crate::Session::prepare

use std::collections::VecDeque;
use std::sync::Arc;
use vcsql_core::QueryPlan;
use vcsql_relation::FxHashMap;

/// A cached plan plus the generation stamp of its latest use.
#[derive(Debug)]
struct Entry {
    plan: Arc<QueryPlan>,
    /// Generation of this entry's most recent hit or insert; older stamps
    /// for the same SQL in `order` are stale.
    gen: u64,
}

/// A bounded LRU cache of prepared [`QueryPlan`]s, keyed by SQL text.
///
/// Recency is tracked with generation counters instead of a reordered
/// list: every hit appends a freshly-stamped `(generation, sql)` pair to
/// `order` and bumps the stamp in the map, leaving the old pair behind as
/// a stale tombstone. Hits are therefore O(1) amortized (the old
/// linked-order variant scanned and spliced the recency list — O(capacity)
/// per hit), and eviction pops from the front, skipping pairs whose stamp
/// no longer matches the map. `order` is compacted in place whenever the
/// tombstones outnumber live entries 4:1, which bounds it at
/// O(capacity) space amortized.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    plans: FxHashMap<String, Entry>,
    /// Recency log: front = oldest stamp. Pairs whose generation differs
    /// from the map's entry are stale and skipped at eviction.
    order: VecDeque<(u64, String)>,
    /// Monotonic stamp source.
    clock: u64,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans. Panics on zero capacity (a
    /// session validates its configuration before building one).
    pub fn new(capacity: usize) -> PlanCache {
        assert!(capacity > 0, "plan cache needs capacity for at least one plan");
        PlanCache {
            capacity,
            plans: FxHashMap::default(),
            order: VecDeque::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up `sql`: a hit refreshes recency and returns the plan, a miss
    /// counts and returns `None`. The caller plans on a miss and hands the
    /// plan to [`PlanCache::insert`] — outside the critical section, when
    /// the cache sits behind the `vcsql-server` lock.
    pub fn get(&mut self, sql: &str) -> Option<Arc<QueryPlan>> {
        self.clock += 1;
        let gen = self.clock;
        let Some(entry) = self.plans.get_mut(sql) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        entry.gen = gen;
        let plan = Arc::clone(&entry.plan);
        self.order.push_back((gen, sql.to_string()));
        self.compact();
        Some(plan)
    }

    /// Insert a plan built elsewhere, evicting the LRU entry beyond
    /// capacity. If `sql` is already cached — two callers raced to build
    /// the same plan — the **first** insert wins and the cached plan is
    /// returned, so every caller agrees on one plan allocation. Does not
    /// touch the hit/miss counters (the preceding [`PlanCache::get`]
    /// already counted this lookup).
    pub fn insert(&mut self, sql: &str, plan: Arc<QueryPlan>) -> Arc<QueryPlan> {
        self.clock += 1;
        let gen = self.clock;
        if let Some(entry) = self.plans.get_mut(sql) {
            entry.gen = gen;
            let existing = Arc::clone(&entry.plan);
            self.order.push_back((gen, sql.to_string()));
            self.compact();
            return existing;
        }
        if self.plans.len() == self.capacity {
            self.evict_lru();
        }
        self.plans.insert(sql.to_string(), Entry { plan: Arc::clone(&plan), gen });
        self.order.push_back((gen, sql.to_string()));
        plan
    }

    /// Pop recency pairs from the front until one still matches its map
    /// entry's stamp; evict that plan. Each stale pair is popped exactly
    /// once over its lifetime, so the cost amortizes to O(1) per operation.
    fn evict_lru(&mut self) {
        while let Some((gen, sql)) = self.order.pop_front() {
            let live = self.plans.get(&sql).is_some_and(|e| e.gen == gen);
            if live {
                self.plans.remove(&sql);
                return;
            }
        }
        debug_assert!(self.plans.is_empty(), "entries must be reachable from the recency log");
    }

    /// Rebuild `order` without tombstones once they dominate. Amortized
    /// O(1): a compaction scanning `4 * capacity` pairs is paid for by the
    /// at least `3 * capacity` hits that created the tombstones.
    fn compact(&mut self) {
        if self.order.len() >= 4 * self.capacity.max(1) {
            let plans = &self.plans;
            self.order.retain(|(gen, sql)| plans.get(sql).is_some_and(|e| e.gen == *gen));
        }
    }

    /// True iff `sql` is currently cached (does not affect recency/stats).
    pub fn contains(&self, sql: &str) -> bool {
        self.plans.contains_key(sql)
    }

    /// Cached plans right now.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to plan from scratch.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_relation::schema::{Column, Schema};
    use vcsql_relation::DataType;

    fn schemas() -> Vec<Schema> {
        vec![Schema::new(
            "r",
            vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)],
        )]
    }

    /// `Session::prepare`'s lookup path: `get`, and on a miss plan and
    /// `insert`.
    fn plan_for(cache: &mut PlanCache, sql: &str) -> Arc<QueryPlan> {
        cache.get(sql).unwrap_or_else(|| {
            cache.insert(sql, Arc::new(QueryPlan::prepare(sql, &schemas()).unwrap()))
        })
    }

    #[test]
    fn repeated_prepare_hits_distinct_sql_misses() {
        let mut cache = PlanCache::new(8);
        let q1 = "SELECT r.a FROM r";
        let q2 = "SELECT r.b FROM r";
        let first = plan_for(&mut cache, q1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let again = plan_for(&mut cache, q1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A hit returns the very same plan allocation.
        assert!(Arc::ptr_eq(&first, &again));
        plan_for(&mut cache, q2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        let (a, b, c) = ("SELECT r.a FROM r", "SELECT r.b FROM r", "SELECT r.a, r.b FROM r");
        plan_for(&mut cache, a);
        plan_for(&mut cache, b);
        // Touch `a` so `b` becomes the LRU entry, then overflow with `c`.
        plan_for(&mut cache, a);
        plan_for(&mut cache, c);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(a), "recently used entry must survive");
        assert!(!cache.contains(b), "LRU entry must be evicted");
        assert!(cache.contains(c));
        // Re-preparing the evicted statement is a miss again.
        plan_for(&mut cache, b);
        assert_eq!(cache.misses(), 4);
        assert!(!cache.contains(a), "a became LRU after c and b were touched");
    }

    #[test]
    fn hit_storms_keep_the_recency_log_bounded_and_lru_exact() {
        let mut cache = PlanCache::new(2);
        let (a, b, c) = ("SELECT r.a FROM r", "SELECT r.b FROM r", "SELECT r.a, r.b FROM r");
        plan_for(&mut cache, a);
        plan_for(&mut cache, b);
        // A hot statement hit thousands of times must not grow the recency
        // log past the compaction bound (the old implementation paid an
        // O(capacity) splice per hit instead).
        for _ in 0..1000 {
            plan_for(&mut cache, a);
        }
        assert_eq!(cache.hits(), 1000);
        assert!(
            cache.order.len() <= 4 * cache.capacity(),
            "stale recency pairs must be compacted, log holds {}",
            cache.order.len()
        );
        // Eviction still finds the true LRU after the storm.
        plan_for(&mut cache, c);
        assert!(cache.contains(a), "hot entry must survive");
        assert!(!cache.contains(b), "cold entry must be the one evicted");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn insert_counts_nothing_and_the_first_insert_wins() {
        let mut cache = PlanCache::new(2);
        let s = schemas();
        let q = "SELECT r.a FROM r";
        assert!(cache.get(q).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let built = Arc::new(QueryPlan::prepare(q, &s).unwrap());
        let stored = cache.insert(q, Arc::clone(&built));
        assert!(Arc::ptr_eq(&stored, &built));
        // Insert counts nothing; the next get is a hit on the same plan.
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let hit = cache.get(q).unwrap();
        assert!(Arc::ptr_eq(&hit, &built));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A racing second insert loses: first plan wins for everyone.
        let other = Arc::new(QueryPlan::prepare(q, &s).unwrap());
        let kept = cache.insert(q, other);
        assert!(Arc::ptr_eq(&kept, &built));
        // Inserts still evict by recency beyond capacity.
        let (b, c) = ("SELECT r.b FROM r", "SELECT r.a, r.b FROM r");
        cache.insert(b, Arc::new(QueryPlan::prepare(b, &s).unwrap()));
        cache.insert(c, Arc::new(QueryPlan::prepare(c, &s).unwrap()));
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(q) || !cache.contains(b), "capacity bound holds");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        PlanCache::new(0);
    }
}
