//! # vcsql-session — the long-lived, session-centric engine API
//!
//! The paper's scheme (Smagulova & Deutsch, SIGMOD 2021) encodes the
//! database *once* and runs many queries against it, and communication-
//! optimal parallel evaluation is fundamentally a multi-round, workload-
//! dependent problem (Beame–Koutris–Suciu). The one-shot entry points the
//! reproduction grew up with (`run_sql`, the `vcsql-dist` free functions)
//! model neither, so this crate owns the lifecycle:
//!
//! * [`Session::open`] — bind a [`TagGraph`] to a [`SessionConfig`] (machine
//!   count, engine, initial placement strategy, adaptation knobs);
//! * [`Session::prepare`] — parse → analyze → GYO → TAG plan once, behind a
//!   bounded SQL-keyed [`PlanCache`] with hit/miss statistics, yielding a
//!   reusable [`PreparedQuery`];
//! * [`Session::execute`] / [`Session::run_sql`] — run under the session's
//!   current placement, fold the run's per-edge-label traffic into a
//!   cross-query [`TrafficProfile`], and *adapt*: the accumulated profile
//!   is the session's vote to its [`PlacementController`], which — when the
//!   vote drifts (byte-weighted total-variation distance,
//!   [`TrafficProfile::byte_drift`]) past the configured threshold —
//!   derives a fresh `Workload` placement and migrates vertices toward it
//!   incrementally — at most [`SessionConfig::migration_budget`] vertices
//!   per execution, never above the balance cap — charging every migrated
//!   vertex's state to [`NetStats`] so adaptation cost is honest;
//! * [`PreparedQuery::with_placement_hint`] — per-query placement overrides
//!   for conflicts no single placement can serve (the q17-style
//!   part–lineitem clash: `lineitem` cannot co-partition with both `orders`
//!   and `part`). Hint precedence: query hint > session placement > initial
//!   strategy.
//!
//! [`Cluster`] is the builder that subsumes the old `vcsql-dist`
//! calibrate→profile→execute free functions:
//! `Cluster::new(machines).bandwidth(..).strategy(..).session(&tag)`.

mod cache;
mod cluster;
mod placement;

pub use cache::{PlanCache, TenantCacheStats};
pub use cluster::Cluster;
pub use placement::PlacementController;
pub use vcsql_core::{ExecOutput, QueryPlan, TagJoinExecutor};
pub use vcsql_dist::NetStats;

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use vcsql_bsp::{
    EngineConfig, FaultInjector, PartitionStrategy, Partitioning, TrafficProfile, WorkerPool,
};
use vcsql_relation::RelError;
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Configuration of a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Simulated machines. `1` runs purely locally (no partitioning, no
    /// network accounting, no adaptation).
    pub machines: usize,
    /// BSP engine tuning.
    pub engine: EngineConfig,
    /// Initial placement strategy (ignored when `machines == 1`). A
    /// [`PartitionStrategy::Workload`] strategy also seeds the session's
    /// traffic knowledge with its calibration profile.
    pub strategy: PartitionStrategy,
    /// Plan-cache capacity (must be at least 1).
    pub plan_cache_capacity: usize,
    /// Online-repartitioning trigger: adapt when the accumulated traffic
    /// profile's byte-weighted drift from the placement's profile exceeds
    /// this. Drift lives in `[0, 1]`, so any threshold above `1.0` disables
    /// adaptation (static placement).
    pub drift_threshold: f64,
    /// Most vertices migrated per execution step while walking toward an
    /// adaptation target (must be at least 1).
    pub migration_budget: usize,
    /// Exponential forgetting of the accumulated traffic profile, expressed
    /// as a half-life in executions: before each execution's traffic is
    /// folded in, every accumulated counter is scaled by `0.5^(1/h)`, so
    /// traffic from `h` executions ago carries half the weight of fresh
    /// traffic. Drift is share-based (scale-free), so decay changes *which
    /// mix* the session adapts to — recent queries dominate — not how
    /// eagerly it adapts. `None` keeps the original grow-forever profile.
    pub profile_half_life: Option<f64>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            machines: 1,
            engine: EngineConfig::default(),
            strategy: PartitionStrategy::Refined,
            plan_cache_capacity: 128,
            drift_threshold: 0.25,
            migration_budget: 2048,
            profile_half_life: None,
        }
    }
}

/// Counters a session accumulates over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Executions served (prepared or ad-hoc).
    pub queries: u64,
    /// Adaptation targets derived (drift threshold crossings).
    pub adaptations: u64,
    /// Migration steps that moved at least one vertex.
    pub migration_steps: u64,
    /// Vertices migrated across all adaptation steps.
    pub migrated_vertices: u64,
    /// Bytes of migrated vertex state (also itemized per query in the
    /// returned [`NetStats`]).
    pub migration_bytes: u64,
    /// Cumulative network traffic over every execution, migrations included.
    pub net: NetStats,
}

/// A prepared statement: a cached, reusable plan plus optional per-query
/// placement hints.
#[derive(Debug)]
pub struct PreparedQuery {
    sql: String,
    plan: Arc<QueryPlan>,
    hint: Option<TrafficProfile>,
    /// Placement derived from the hint, built lazily on first execution and
    /// reused while the executing session's machine count matches the
    /// cached one (a prepared statement may outlive one session and be
    /// executed on another — over the same TAG, since plans are
    /// schema-bound — with a different cluster size).
    hint_partitioning: RefCell<Option<(usize, Arc<Partitioning>)>>,
}

impl PreparedQuery {
    /// The SQL text this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The underlying plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Attach a per-query placement hint: executions of this statement run
    /// under a dedicated `Workload(profile)` placement instead of the
    /// session's, taking precedence over session adaptation (which neither
    /// sees hinted placements nor migrates because of them). This serves
    /// q17-style conflicts where no single placement can win: a profile of
    /// the query's own traffic keeps `lineitem` with `part` for this
    /// statement while the session placement keeps it with `orders`.
    pub fn with_placement_hint(mut self, profile: TrafficProfile) -> PreparedQuery {
        self.hint = Some(profile);
        self.hint_partitioning = RefCell::new(None);
        self
    }
}

/// A long-lived query session over one TAG graph: prepared statements, a
/// plan cache, one placement shared across queries, and online
/// repartitioning as the observed workload drifts. The graph is held by
/// [`Arc`], so any number of sessions (and a `vcsql-server` serving them)
/// can share one TAG without lifetime coupling.
pub struct Session {
    tag: Arc<TagGraph>,
    config: SessionConfig,
    cache: PlanCache,
    /// The placement and its adaptation state (`None` when `machines == 1`).
    placement: Option<PlacementController>,
    /// Persistent worker runtime shared across every execution this session
    /// performs (`None` for single-threaded engine configs). Workers park
    /// between queries, so prepared-query re-execution pays no thread churn.
    workers: Option<Arc<WorkerPool>>,
    /// Cross-query observed traffic, seeded with the initial strategy's
    /// calibration profile — the session's vote to its controller.
    accumulated: TrafficProfile,
    /// Deterministic fault injection shared by every execution this session
    /// runs (`None` = fault-free). Fired-once semantics span queries.
    faults: Option<Arc<FaultInjector>>,
    queries: u64,
    net: NetStats,
}

impl Session {
    /// Open a session over `tag` (the handle is cloned; the graph itself is
    /// shared). Validates the configuration with [`validate_knobs`].
    pub fn open(tag: &Arc<TagGraph>, config: SessionConfig) -> Result<Session> {
        validate_knobs(
            "session",
            config.machines,
            config.plan_cache_capacity,
            config.migration_budget,
            config.drift_threshold,
            config.profile_half_life,
        )?;
        let placement = PlacementController::new(
            tag,
            config.machines,
            &config.strategy,
            config.drift_threshold,
            config.migration_budget,
        );
        let cache = PlanCache::new(config.plan_cache_capacity);
        // One persistent worker pool for the session's whole life: its OS
        // threads spawn on the first superstep that actually fans out, and
        // every query executed through this session reuses them.
        let workers =
            (config.engine.threads > 1).then(|| Arc::new(WorkerPool::new(config.engine.threads)));
        Ok(Session {
            tag: Arc::clone(tag),
            accumulated: placement::calibration_profile(&config.strategy),
            placement,
            workers,
            faults: None,
            queries: 0,
            net: NetStats::default(),
            cache,
            config,
        })
    }

    /// The session's persistent worker pool (`None` when the engine config
    /// is single-threaded). Exposed for diagnostics and tests.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.workers.as_ref()
    }

    /// Prepare a statement: parse → analyze → GYO → TAG plan, served from
    /// the plan cache when this SQL was prepared before. The session is the
    /// cache's tenant 0 ([`PlanCache::get_or_prepare`], the server's lookup
    /// path too), so a failed prepare counts one miss and caches nothing.
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedQuery> {
        let plan = self.cache.get_or_prepare(0, sql, self.tag.schemas())?;
        Ok(PreparedQuery {
            sql: sql.to_string(),
            plan,
            hint: None,
            hint_partitioning: RefCell::new(None),
        })
    }

    /// Execute a prepared statement under the session's placement (or the
    /// statement's hint placement), returning the execution output and the
    /// network share of its traffic — including, itemized, the bytes of any
    /// vertex migration this execution's adaptation step performed and of
    /// any checkpoint/recovery traffic fault injection caused.
    ///
    /// Failure contract: an execution that errors *or panics* mid-flight
    /// leaves the session unchanged — no query counted, no traffic folded
    /// into the accumulated profile, no adaptation step taken — the same
    /// contract as [`Session::load_profile`]'s error paths. Every session
    /// mutation below happens after the fallible execution returns `Ok`.
    pub fn execute(&mut self, prepared: &PreparedQuery) -> Result<(ExecOutput, NetStats)> {
        let (out, mut net) = execute_placed(
            &self.tag,
            self.config.engine,
            self.placement_for(prepared),
            self.workers.as_ref(),
            self.faults.as_ref(),
            prepared.plan(),
        )?;
        if let Some(h) = self.config.profile_half_life {
            self.accumulated.decay(0.5f64.powf(1.0 / h));
        }
        self.accumulated.absorb(&TrafficProfile::from_run(&out.stats, self.tag.graph()));
        self.queries += 1;
        // Hinted executions bypass adaptation entirely: their placement is
        // per-query, so neither the drift check nor a migration step runs.
        if let (None, Some(placement)) = (&prepared.hint, &mut self.placement) {
            placement.step(Some(&self.accumulated), false, 0, &mut net);
        }
        self.net.absorb(&net);
        Ok((out, net))
    }

    /// Prepare (through the cache) and execute in one call.
    pub fn run_sql(&mut self, sql: &str) -> Result<(ExecOutput, NetStats)> {
        let prepared = self.prepare(sql)?;
        self.execute(&prepared)
    }

    /// The placement this execution runs under: the statement's hint
    /// placement if any (rebuilt when the cached one was derived for a
    /// different machine count), else the session's current placement.
    fn placement_for(&self, prepared: &PreparedQuery) -> Option<Arc<Partitioning>> {
        let session_placement = self.placement.as_ref()?.current();
        let Some(profile) = &prepared.hint else {
            return Some(Arc::clone(session_placement));
        };
        let mut cached = prepared.hint_partitioning.borrow_mut();
        match cached.as_ref() {
            Some((machines, p)) if *machines == self.config.machines => Some(Arc::clone(p)),
            _ => {
                let p = Arc::new(self.tag.partition(
                    &PartitionStrategy::Workload(profile.clone()),
                    self.config.machines,
                ));
                *cached = Some((self.config.machines, Arc::clone(&p)));
                Some(p)
            }
        }
    }

    /// Arm deterministic fault injection: every execution this session runs
    /// from now on shares `injector`, so its fired-once fault semantics span
    /// queries. Injected faults surface from [`Session::execute`] as
    /// [`RelError::Fault`] (its `transient` flag is what retry policies
    /// upstream match on) or [`RelError::Panicked`] and, per the failure
    /// contract there, a failed execution leaves the session unchanged.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    /// Re-place a crashed machine's vertices onto the survivors (see
    /// [`PlacementController::evacuate`]: deterministic, drops any in-flight
    /// migration, keeps the machine count). Returns the number of vertices
    /// evacuated. Errors — leaving the session unchanged — on a
    /// single-machine session or an out-of-range `m`.
    pub fn evacuate_machine(&mut self, m: u16) -> Result<u64> {
        let err = |e: String| RelError::Other(format!("evacuate_machine: {e}"));
        match &mut self.placement {
            Some(placement) => placement.evacuate(m).map_err(err),
            None => Err(err("a single-machine session has no surviving machine".into())),
        }
    }

    /// The TAG graph this session serves.
    pub fn tag(&self) -> &TagGraph {
        &self.tag
    }

    /// Serialize the session's learned state — the accumulated
    /// [`TrafficProfile`] and, on a multi-machine session, the current
    /// [`Partitioning`] — to one text document, reusing the two existing
    /// line formats back to back. Feed the result to
    /// [`Session::load_profile`] on a fresh session over the same TAG to
    /// warm-start it: no re-calibration, no re-migration.
    pub fn save_profile(&self) -> String {
        let mut out = format!(
            "# vcsql session profile (machines={}, queries={})\n",
            self.config.machines, self.queries
        );
        out.push_str(&self.accumulated.to_text());
        if let Some(p) = self.partitioning() {
            out.push_str(&p.to_text());
        }
        out
    }

    /// Restore state saved by [`Session::save_profile`]: the accumulated
    /// profile becomes both the session's observed traffic and its
    /// placement profile (a warm-started session is converged by
    /// construction), the saved placement replaces the current one, and any
    /// in-flight migration is dropped. Errors if the document is malformed
    /// or its placement was built for a different graph or machine count;
    /// the session is unchanged on error.
    pub fn load_profile(&mut self, text: &str) -> Result<()> {
        let err = |e: String| RelError::Other(format!("load_profile: {e}"));
        let (profile_text, placement_text) = match text.find("vcsql-partitioning v1") {
            Some(at) => (&text[..at], Some(&text[at..])),
            None => (text, None),
        };
        let profile = TrafficProfile::from_text(profile_text).map_err(err)?;
        let saved = placement_text.map(Partitioning::from_text).transpose().map_err(err)?;
        match (&mut self.placement, saved) {
            (Some(placement), Some(p)) => placement.restore(p, profile.clone()).map_err(err)?,
            (Some(_), None) => {
                return Err(err("no saved placement for a multi-machine session".into()))
            }
            (None, Some(p)) => {
                return Err(err(format!(
                    "placement saved for {} machines, session has 1",
                    p.machines()
                )))
            }
            (None, None) => {}
        }
        self.accumulated = profile;
        Ok(())
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The current placement (`None` on a single machine). Mid-migration
    /// this is the in-between placement the next query will run under.
    pub fn partitioning(&self) -> Option<&Partitioning> {
        self.placement.as_ref().map(|p| &**p.current())
    }

    /// The cross-query observed traffic profile (seeded with the initial
    /// strategy's calibration profile, if it had one).
    pub fn accumulated_profile(&self) -> &TrafficProfile {
        &self.accumulated
    }

    /// The profile the current placement was derived from (`None` on a
    /// single machine).
    pub fn placement_profile(&self) -> Option<&TrafficProfile> {
        self.placement.as_ref().map(PlacementController::profile)
    }

    /// True iff an adaptation is mid-walk (a target placement exists that
    /// the session has not fully migrated to yet).
    pub fn migration_pending(&self) -> bool {
        self.placement.as_ref().is_some_and(PlacementController::is_migrating)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SessionStats {
        let mut stats = SessionStats { queries: self.queries, net: self.net, ..Default::default() };
        if let Some(p) = &self.placement {
            stats.adaptations = p.adaptations;
            stats.migration_steps = p.migration_steps;
            stats.migrated_vertices = p.migrated_vertices;
            stats.migration_bytes = p.migration_bytes;
        }
        stats
    }

    /// The plan cache (occupancy, hit/miss counters).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }
}

/// Run `plan` under a placement: assemble the executor from the host's
/// shared pieces (graph, engine tuning, placement, worker pool, fault
/// injector), execute, and split out the network share of the traffic. The
/// one place hosts — [`Session::execute`], `vcsql-server`'s retry loop —
/// start a placed run.
///
/// The executor borrows no host state mutably (everything shared arrives by
/// `Arc`), so unwinding out of it cannot leave the host torn: a panic is
/// caught here and becomes [`RelError::Panicked`], the same unchanged-host
/// error path an `Err` takes.
pub fn execute_placed(
    tag: &TagGraph,
    engine: EngineConfig,
    placement: Option<Arc<Partitioning>>,
    pool: Option<&Arc<WorkerPool>>,
    faults: Option<&Arc<FaultInjector>>,
    plan: &QueryPlan,
) -> Result<(ExecOutput, NetStats)> {
    let mut exec = TagJoinExecutor::new(tag, engine);
    if let Some(p) = placement {
        exec = exec.with_partitioning_shared(p);
    }
    if let Some(pool) = pool {
        exec = exec.with_worker_pool(Arc::clone(pool));
    }
    if let Some(inj) = faults {
        exec = exec.with_fault_injector(Arc::clone(inj));
    }
    let out = catch_unwind(AssertUnwindSafe(|| exec.execute_plan(plan))).map_err(|payload| {
        RelError::Panicked(format!("execution panicked: {}", panic_message(&*payload)))
    })??;
    let net = NetStats::from_run(&out.stats);
    Ok((out, net))
}

/// Best-effort text of a caught panic payload (`&str` and `String` cover
/// every `panic!` in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Validate the knobs a [`SessionConfig`] and `vcsql-server`'s
/// `ServerConfig` share (`who` names the host in the machine-count
/// messages): 1 to `u16::MAX` machines, a non-empty plan cache, a positive
/// migration budget, a positive finite drift threshold and a positive
/// finite profile half-life when one is set.
pub fn validate_knobs(
    who: &str,
    machines: usize,
    plan_cache_capacity: usize,
    migration_budget: usize,
    drift_threshold: f64,
    profile_half_life: Option<f64>,
) -> Result<()> {
    let invalid = |msg: String| Err(RelError::Other(msg));
    if machines == 0 {
        return invalid(format!("{who} needs at least one machine"));
    }
    if machines > u16::MAX as usize {
        return invalid(format!("{who} machine count exceeds u16"));
    }
    if plan_cache_capacity == 0 {
        return invalid("plan cache needs capacity for at least one plan".into());
    }
    if migration_budget == 0 {
        return invalid("migration budget must allow at least one vertex per step".into());
    }
    if !drift_threshold.is_finite() || drift_threshold <= 0.0 {
        return invalid(format!(
            "drift threshold must be positive and finite, got {drift_threshold}"
        ));
    }
    match profile_half_life {
        Some(h) if !h.is_finite() || h <= 0.0 => {
            invalid(format!("profile half-life must be positive and finite, got {h}"))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_bsp::FaultPlan;
    use vcsql_workload::tpch;

    fn session(machines: usize) -> (Arc<TagGraph>, SessionConfig) {
        let db = tpch::generate(0.01, 42);
        let tag = Arc::new(TagGraph::build(&db));
        let config = SessionConfig {
            machines,
            engine: EngineConfig::sequential(),
            ..SessionConfig::default()
        };
        (tag, config)
    }

    const JOIN_SQL: &str = "SELECT c.c_name FROM customer c, orders o, lineitem l \
                            WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey";

    #[test]
    fn repeated_execution_reuses_session_workers() {
        let (tag, mut config) = session(1);
        // Threshold 0 forces the parallel phases so worker reuse is visible
        // even at this tiny scale.
        config.engine = EngineConfig::with_threads(3).with_parallel_threshold(0);
        let mut s = Session::open(&tag, config).unwrap();
        let prepared = s.prepare(JOIN_SQL).unwrap();
        let seq = TagJoinExecutor::new(&tag, EngineConfig::sequential()).run_sql(JOIN_SQL).unwrap();
        for round in 0..3 {
            let (out, _) = s.execute(&prepared).unwrap();
            assert!(out.relation.same_bag_approx(&seq.relation, 1e-9));
            let pool = s.worker_pool().expect("multi-thread session owns a pool");
            assert_eq!(pool.spawned_workers(), 2, "round {round}: workers spawn once");
            assert_eq!(pool.live_workers(), 2, "round {round}: workers parked between queries");
        }
    }

    #[test]
    fn sequential_session_owns_no_pool() {
        let (tag, config) = session(1);
        let mut s = Session::open(&tag, config).unwrap();
        assert!(s.worker_pool().is_none());
        let (out, _) = s.run_sql(JOIN_SQL).unwrap();
        assert!(!out.relation.is_empty());
    }

    #[test]
    fn open_validates_configuration() {
        let (tag, config) = session(1);
        assert!(Session::open(&tag, SessionConfig { machines: 0, ..config.clone() }).is_err());
        assert!(Session::open(&tag, SessionConfig { plan_cache_capacity: 0, ..config.clone() })
            .is_err());
        assert!(
            Session::open(&tag, SessionConfig { migration_budget: 0, ..config.clone() }).is_err()
        );
        assert!(
            Session::open(&tag, SessionConfig { drift_threshold: 0.0, ..config.clone() }).is_err()
        );
        assert!(Session::open(&tag, SessionConfig { drift_threshold: f64::NAN, ..config.clone() })
            .is_err());
        assert!(Session::open(
            &tag,
            SessionConfig { profile_half_life: Some(0.0), ..config.clone() }
        )
        .is_err());
        assert!(Session::open(
            &tag,
            SessionConfig { profile_half_life: Some(f64::NAN), ..config.clone() }
        )
        .is_err());
        assert!(Session::open(&tag, config).is_ok());
    }

    #[test]
    fn profile_decay_forgets_old_traffic() {
        let (tag, mut config) = session(1);
        config.profile_half_life = Some(1.0);
        let mut s = Session::open(&tag, config).unwrap();
        let (_, _) = s.run_sql(JOIN_SQL).unwrap();
        let after_one = s.accumulated_profile().total_bytes();
        assert!(after_one > 0);
        // With a one-execution half-life the accumulated bytes converge to
        // roughly 2x one execution's traffic (geometric series), not 10x.
        for _ in 0..9 {
            s.run_sql(JOIN_SQL).unwrap();
        }
        let after_ten = s.accumulated_profile().total_bytes();
        assert!(
            after_ten < 3 * after_one,
            "decay must bound the accumulated profile: {after_ten} vs one-run {after_one}"
        );
        // Without decay the same ten runs accumulate linearly.
        let (tag2, config2) = session(1);
        let mut undecayed = Session::open(&tag2, config2).unwrap();
        for _ in 0..10 {
            undecayed.run_sql(JOIN_SQL).unwrap();
        }
        assert!(undecayed.accumulated_profile().total_bytes() >= 10 * after_one);
    }

    #[test]
    fn save_load_roundtrips_profile_and_placement() {
        let (tag, config) = session(4);
        let mut s = Session::open(&tag, config.clone()).unwrap();
        // Run until the self-tuning migration settles.
        for _ in 0..6 {
            s.run_sql(JOIN_SQL).unwrap();
        }
        let saved = s.save_profile();
        let placement = s.partitioning().unwrap().clone();
        let mut fresh = Session::open(&tag, config.clone()).unwrap();
        fresh.load_profile(&saved).unwrap();
        assert_eq!(fresh.accumulated_profile(), s.accumulated_profile());
        assert_eq!(fresh.placement_profile(), Some(s.accumulated_profile()));
        assert!(!fresh.migration_pending());
        let restored = fresh.partitioning().unwrap();
        for v in tag.graph().vertices() {
            assert_eq!(placement.machine_of(v), restored.machine_of(v));
        }
        // The warm session is converged: re-running the profiled workload
        // must not migrate.
        let (_, net) = fresh.run_sql(JOIN_SQL).unwrap();
        assert_eq!(net.migration_bytes, 0, "warm-started session re-migrated");

        // Mismatches are rejected and leave the session untouched.
        let mut two = Session::open(&tag, SessionConfig { machines: 2, ..config }).unwrap();
        assert!(two.load_profile(&saved).is_err(), "machine-count mismatch must fail");
        assert!(two.load_profile("garbage").is_err());
        let (tag_small, config_small) = {
            let db = tpch::generate(0.004, 7);
            (Arc::new(TagGraph::build(&db)), SessionConfig { machines: 4, ..Default::default() })
        };
        let mut other_graph = Session::open(&tag_small, config_small).unwrap();
        assert!(other_graph.load_profile(&saved).is_err(), "wrong graph must fail");
        // A single-machine session happily loads the profile part alone.
        let (tag1, config1) = session(1);
        let mut one = Session::open(&tag1, config1).unwrap();
        let solo_saved = {
            let (tag1b, config1b) = session(1);
            let mut solo = Session::open(&tag1b, config1b).unwrap();
            solo.run_sql(JOIN_SQL).unwrap();
            solo.save_profile()
        };
        one.load_profile(&solo_saved).unwrap();
        assert!(!one.accumulated_profile().is_empty());
    }

    #[test]
    fn prepared_execution_matches_one_shot_run_sql() {
        let (tag, config) = session(1);
        let mut s = Session::open(&tag, config.clone()).unwrap();
        let prepared = s.prepare(JOIN_SQL).unwrap();
        let (out, net) = s.execute(&prepared).unwrap();
        let oneshot =
            TagJoinExecutor::new(&tag, EngineConfig::sequential()).run_sql(JOIN_SQL).unwrap();
        assert!(out.relation.same_bag_approx(&oneshot.relation, 1e-9));
        assert_eq!(out.stats.total_messages(), oneshot.stats.total_messages());
        assert_eq!(net.network_bytes, 0, "single machine never uses the network");
        // Second execution reuses the cached plan.
        let again = s.prepare(JOIN_SQL).unwrap();
        assert_eq!(s.plan_cache().hits(), 1);
        let (out2, _) = s.execute(&again).unwrap();
        assert!(out2.relation.same_bag_approx(&oneshot.relation, 1e-9));
        assert_eq!(s.stats().queries, 2);
    }

    #[test]
    fn session_self_tunes_from_a_static_strategy() {
        let (tag, config) = session(6);
        let mut s = Session::open(&tag, config).unwrap();
        assert!(s.placement_profile().unwrap().is_empty());
        let single =
            TagJoinExecutor::new(&tag, EngineConfig::sequential()).run_sql(JOIN_SQL).unwrap();
        let mut saw_migration = false;
        for _ in 0..4 {
            let (out, net) = s.run_sql(JOIN_SQL).unwrap();
            // Adaptation never changes results or total message counts.
            assert!(out.relation.same_bag_approx(&single.relation, 1e-9));
            assert_eq!(out.stats.total_messages(), single.stats.total_messages());
            saw_migration |= net.migration_bytes > 0;
            assert!(net.migration_bytes <= net.network_bytes);
        }
        // The empty placement profile drifts maximally against real traffic,
        // so the first executions must have started (and charged) an
        // adaptation.
        assert!(saw_migration, "self-tuning migration never happened");
        assert!(s.stats().adaptations >= 1);
        assert!(s.stats().migrated_vertices > 0);
        assert_eq!(s.stats().net.migration_bytes, s.stats().migration_bytes);
        // Once the placement profile matches the observed traffic, drift is
        // tiny and the session goes quiet: the same workload does not keep
        // migrating forever.
        let before = s.stats().migrated_vertices;
        let (_, net) = s.run_sql(JOIN_SQL).unwrap();
        assert_eq!(net.migration_bytes, 0, "steady workload must not thrash");
        assert_eq!(s.stats().migrated_vertices, before);
    }

    #[test]
    fn migration_budget_bounds_each_step() {
        let (tag, mut config) = session(4);
        config.migration_budget = 7;
        let mut s = Session::open(&tag, config).unwrap();
        for _ in 0..3 {
            let (_, net) = s.run_sql(JOIN_SQL).unwrap();
            assert!(
                net.migration_messages <= 7,
                "step migrated {} vertices over budget 7",
                net.migration_messages
            );
        }
        assert!(s.migration_pending(), "tiny budget cannot finish in three steps");
    }

    #[test]
    fn placement_hints_take_precedence_and_stay_per_query() {
        let (tag, config) = session(6);
        let mut s = Session::open(&tag, config).unwrap();
        // A hint profile that pulls lineitem toward part.
        let mut hint = TrafficProfile::new();
        hint.record(
            "lineitem.l_partkey",
            vcsql_bsp::LabelTraffic { messages: 1000, bytes: 100_000, ..Default::default() },
        );
        hint.record(
            "part.p_partkey",
            vcsql_bsp::LabelTraffic { messages: 1000, bytes: 100_000, ..Default::default() },
        );
        let q17 = "SELECT p.p_name FROM part p, lineitem l WHERE p.p_partkey = l.l_partkey";
        let unhinted = s.prepare(q17).unwrap();
        let hinted = s.prepare(q17).unwrap().with_placement_hint(hint);
        let session_placement = s.partitioning().unwrap().clone();
        let (out_h, net_h) = s.execute(&hinted).unwrap();
        // The hint did not touch the session's placement, and no migration
        // was charged to the hinted run.
        assert_eq!(net_h.migration_bytes, 0);
        let placement_after = s.partitioning().unwrap();
        for v in tag.graph().vertices() {
            assert_eq!(session_placement.machine_of(v), placement_after.machine_of(v));
        }
        let (out_u, _) = s.execute(&unhinted).unwrap();
        assert!(out_h.relation.same_bag_approx(&out_u.relation, 1e-9));
        assert_eq!(out_h.stats.total_messages(), out_u.stats.total_messages());
    }

    /// The failure contract: an execution aborted by an unrecoverable
    /// injected fault leaves every piece of session state — query count,
    /// accumulated profile, placement, pending migration — exactly as it
    /// was, and a retry (the fault fires once) succeeds normally.
    #[test]
    fn failed_execution_leaves_the_session_unchanged() {
        let (tag, config) = session(4);
        let mut s = Session::open(&tag, config).unwrap();
        let prepared = s.prepare(JOIN_SQL).unwrap();
        s.execute(&prepared).unwrap();
        let queries = s.stats().queries;
        let accumulated = s.accumulated_profile().clone();
        let net_before = s.stats().net;
        let pending_before = s.migration_pending();
        let placement: Vec<u16> =
            tag.graph().vertices().map(|v| s.partitioning().unwrap().machine_of(v)).collect();
        // Checkpointing disabled (interval 0): the crash is unrecoverable.
        s.set_fault_injector(Arc::new(FaultInjector::new(FaultPlan::new().crash(0, 1), 0)));
        let err = s.execute(&prepared).unwrap_err();
        assert!(matches!(err, RelError::Fault { transient: false, .. }), "unexpected error: {err}");
        assert_eq!(s.stats().queries, queries, "failed run must not count as served");
        assert_eq!(s.accumulated_profile(), &accumulated, "partial traffic leaked into profile");
        assert_eq!(s.stats().net, net_before);
        assert_eq!(s.migration_pending(), pending_before);
        for (i, v) in tag.graph().vertices().enumerate() {
            assert_eq!(placement[i], s.partitioning().unwrap().machine_of(v));
        }
        // The fault fired once; the retry runs clean and is counted.
        let (out, _) = s.execute(&prepared).unwrap();
        assert!(!out.relation.is_empty());
        assert_eq!(s.stats().queries, queries + 1);
    }

    /// A panic inside execution is caught, surfaced as a per-query error,
    /// and honors the same unchanged-session contract as error returns.
    #[test]
    fn panicking_execution_is_isolated_and_leaves_the_session_unchanged() {
        let (tag, config) = session(2);
        let mut s = Session::open(&tag, config).unwrap();
        let prepared = s.prepare(JOIN_SQL).unwrap();
        s.set_fault_injector(Arc::new(FaultInjector::new(FaultPlan::new().compute_panic(1), 0)));
        let err = s.execute(&prepared).unwrap_err();
        assert!(matches!(err, RelError::Panicked(_)), "unexpected error: {err}");
        let msg = format!("{err}");
        assert!(msg.starts_with("execution panicked: "), "unexpected error: {msg}");
        assert!(msg.contains("injected compute fault"), "payload text lost: {msg}");
        assert_eq!(s.stats().queries, 0);
        assert!(s.accumulated_profile().is_empty(), "panicked run polluted the profile");
        assert!(!s.migration_pending());
        // The injector's panic fired once; the session stays usable.
        let (out, _) = s.execute(&prepared).unwrap();
        let oneshot =
            TagJoinExecutor::new(&tag, EngineConfig::sequential()).run_sql(JOIN_SQL).unwrap();
        assert!(out.relation.same_bag_approx(&oneshot.relation, 1e-9));
        assert_eq!(s.stats().queries, 1);
    }

    /// A dropped delivery is the one injected fault worth retrying as is, and
    /// says so in its variant, not its text.
    #[test]
    fn dropped_delivery_is_a_transient_fault() {
        let (tag, config) = session(4);
        let mut s = Session::open(&tag, config).unwrap();
        let prepared = s.prepare(JOIN_SQL).unwrap();
        s.set_fault_injector(Arc::new(FaultInjector::new(FaultPlan::new().drop_link(0, 2, 1), 0)));
        let err = s.execute(&prepared).unwrap_err();
        assert!(matches!(err, RelError::Fault { transient: true, .. }), "unexpected error: {err}");
        assert_eq!(s.stats().queries, 0);
        assert!(s.execute(&prepared).is_ok(), "the fault fired once; the retry runs clean");
    }

    /// Checkpoint and recovery traffic reach the per-query `NetStats`
    /// itemized — checkpoints outside the network totals, recovery inside —
    /// and an injected crash changes neither results nor the fault-free
    /// network figure beyond the recovery re-ship.
    #[test]
    fn recovery_traffic_is_itemized_in_net_stats() {
        let (tag, config) = session(4);
        let mut free = Session::open(&tag, config.clone()).unwrap();
        let fp = free.prepare(JOIN_SQL).unwrap();
        let (free_out, free_net) = free.execute(&fp).unwrap();
        assert_eq!(free_net.checkpoint_bytes, 0, "fault-free run wrote checkpoints");
        assert_eq!(free_net.recovery_bytes, 0);
        assert_eq!(free_net.recovered_rounds, 0);

        let mut faulty = Session::open(&tag, config).unwrap();
        let prepared = faulty.prepare(JOIN_SQL).unwrap();
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash(1, 3), 2));
        faulty.set_fault_injector(Arc::clone(&inj));
        let (out, net) = faulty.execute(&prepared).unwrap();
        assert!(inj.any_fired(), "the planned crash never fired");
        assert!(out.relation.same_bag_approx(&free_out.relation, 1e-9));
        assert_eq!(out.stats.total_messages(), free_out.stats.total_messages());
        assert!(net.checkpoint_bytes > 0, "checkpointing session itemized no checkpoint bytes");
        assert!(net.recovery_bytes > 0, "recovered crash itemized no recovery bytes");
        assert!(net.recovery_bytes <= net.network_bytes);
        assert_eq!(
            net.network_bytes,
            free_net.network_bytes + net.recovery_bytes,
            "recovery must be the only network delta against the fault-free run"
        );
        assert_eq!(net.rounds, free_net.rounds, "replayed rounds were double-billed");
        assert_eq!(faulty.stats().net.recovery_bytes, net.recovery_bytes);
    }

    /// Evacuating a crashed machine re-places its vertices deterministically
    /// (vertex-id order, least-loaded survivor, lowest id on ties), drops
    /// any pending migration, preserves results, and rejects impossible
    /// requests without touching the session.
    #[test]
    fn evacuate_machine_is_deterministic_and_preserves_results() {
        let (tag, config) = session(4);
        let mut s = Session::open(&tag, config.clone()).unwrap();
        let prepared = s.prepare(JOIN_SQL).unwrap();
        let (before, _) = s.execute(&prepared).unwrap();
        let moved = s.evacuate_machine(2).unwrap();
        assert!(moved > 0, "machine 2 held no vertices");
        assert!(!s.migration_pending(), "stale migration target survived the evacuation");
        let placement = s.partitioning().unwrap();
        assert_eq!(placement.machines(), 4, "machine count must not change");
        assert_eq!(placement.load()[2], 0, "evacuated machine still owns vertices");
        let evacuated: Vec<u16> = tag.graph().vertices().map(|v| placement.machine_of(v)).collect();

        // A twin session following the same history lands on the identical
        // placement.
        let mut twin = Session::open(&tag, config.clone()).unwrap();
        let tp = twin.prepare(JOIN_SQL).unwrap();
        twin.execute(&tp).unwrap();
        assert_eq!(twin.evacuate_machine(2).unwrap(), moved);
        for (i, v) in tag.graph().vertices().enumerate() {
            assert_eq!(evacuated[i], twin.partitioning().unwrap().machine_of(v));
        }

        // Queries keep answering correctly under the evacuated placement.
        let (after, _) = s.execute(&prepared).unwrap();
        assert!(after.relation.same_bag_approx(&before.relation, 1e-9));
        assert_eq!(after.stats.total_messages(), before.stats.total_messages());

        // Impossible evacuations are rejected.
        assert!(s.evacuate_machine(9).is_err(), "out-of-range machine must fail");
        let (tag1, config1) = session(1);
        let mut one = Session::open(&tag1, config1).unwrap();
        assert!(one.evacuate_machine(0).is_err(), "single machine has no survivors");
    }

    /// A prepared statement's cached hint placement is keyed on the machine
    /// count: executing the same PreparedQuery on a session with a
    /// different cluster size rebuilds the placement instead of silently
    /// accounting against machines that don't exist.
    #[test]
    fn hint_placement_rebuilds_for_a_different_machine_count() {
        let (tag, config) = session(6);
        let mut hint = TrafficProfile::new();
        hint.record(
            "lineitem.l_partkey",
            vcsql_bsp::LabelTraffic { messages: 10, bytes: 1000, ..Default::default() },
        );
        let q = "SELECT p.p_name FROM part p, lineitem l WHERE p.p_partkey = l.l_partkey";
        let mut six = Session::open(&tag, config.clone()).unwrap();
        let hinted = six.prepare(q).unwrap().with_placement_hint(hint.clone());
        let (_, net6) = six.execute(&hinted).unwrap();

        // Same PreparedQuery value, executed on a 2-machine session: must
        // behave exactly like a hint prepared fresh on that session.
        let mut two = Session::open(&tag, SessionConfig { machines: 2, ..config }).unwrap();
        let (_, net_stale) = two.execute(&hinted).unwrap();
        let fresh = two.prepare(q).unwrap().with_placement_hint(hint);
        let (_, net_fresh) = two.execute(&fresh).unwrap();
        assert_eq!(
            net_stale.network_bytes, net_fresh.network_bytes,
            "stale 6-machine hint placement leaked into the 2-machine session"
        );
        assert_ne!(net6.network_bytes, 0, "6-machine hinted run should have used the network");
    }
}
