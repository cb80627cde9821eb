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
//!   count, engine, placement strategy) and place the TAG once;
//! * [`Session::prepare`] — parse → analyze → GYO → TAG plan once, behind a
//!   bounded SQL-keyed [`PlanCache`] with hit/miss statistics, yielding a
//!   reusable [`PreparedQuery`];
//! * [`Session::execute`] / [`Session::run_sql`] — run under that one
//!   placement and count the run's network share in the session's ledger.
//!
//! The placement is fixed for the session's lifetime, as in the paper,
//! which runs TAG-join under the placement made when the graph is loaded.
//! Traffic-aware placement is decided before open: calibrate a workload
//! with [`Cluster::calibrate`] and open with a
//! [`PartitionStrategy::Workload`] strategy built from its profile.
//!
//! A session is the one-ledger case of a [`Host`], the state and run path
//! `vcsql-server` serves its tenants with too.
//!
//! [`Cluster`] is the builder that subsumes the old `vcsql-dist`
//! calibrate→profile→execute free functions:
//! `Cluster::new(machines).bandwidth(..).strategy(..).session(&tag)`.

mod cache;
mod cluster;
mod host;

pub use cache::PlanCache;
pub use cluster::Cluster;
pub use host::{FailureStats, Host, HostStats, Ledger};
pub use vcsql_core::{ExecOutput, QueryPlan, TagJoinExecutor};
pub use vcsql_dist::NetStats;

use std::sync::{Arc, PoisonError};
use vcsql_bsp::sync::{Mutex, MutexGuard};
use vcsql_bsp::{EngineConfig, FaultInjector, PartitionStrategy, Partitioning, WorkerPool};
use vcsql_relation::RelError;
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Poison-tolerant lock for every host lock: the protected state is only
/// ever mutated with the lock held and every mutation is panic-atomic, so a
/// poisoned lock just means some other execution panicked — its state is
/// still consistent for everyone else.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration of a [`Session`]: the knobs of its [`Host`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Simulated machines. `1` runs purely locally (no partitioning, no
    /// network accounting).
    pub machines: usize,
    /// BSP engine tuning.
    pub engine: EngineConfig,
    /// Placement strategy, applied once at open (ignored when
    /// `machines == 1`).
    pub strategy: PartitionStrategy,
    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c).
    pub profile_half_life: Option<f64>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            machines: 1,
            engine: EngineConfig::default(),
            strategy: PartitionStrategy::Refined,
            profile_half_life: None,
        }
    }
}

/// A prepared statement: a cached, reusable plan. It holds no placement,
/// and its plan's only interior state is the shape it memoizes per TAG
/// ([`QueryPlan::shape`]), so one statement may be shared across threads
/// and executed on any session over the same TAG.
#[derive(Debug)]
pub struct PreparedQuery {
    plan: Arc<QueryPlan>,
}

impl PreparedQuery {
    /// The plan every execution of this statement runs.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }
}

/// A long-lived query session over one TAG graph: prepared statements, a
/// plan cache and one placement shared across queries. The graph is held by
/// [`Arc`], so any number of sessions (and a `vcsql-server` serving them)
/// can share one TAG without lifetime coupling.
pub struct Session {
    host: Host,
    /// The session's one ledger.
    ledger: Mutex<Ledger>,
}

impl Session {
    /// Open a session over `tag` (the handle is cloned; the graph itself is
    /// shared). Validates the configuration with [`Host::new`].
    pub fn open(tag: &Arc<TagGraph>, config: SessionConfig) -> Result<Session> {
        let host = Host::new(tag, &config, None)?;
        Ok(Session { host, ledger: Mutex::new(Ledger::default()) })
    }

    /// The session's persistent worker pool (`None` when the engine config
    /// is single-threaded). Exposed for diagnostics and tests.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.host.pool.as_ref()
    }

    /// Prepare a statement: parse → analyze → GYO → TAG plan, served from
    /// the plan cache when this SQL was prepared before. A failed prepare
    /// counts one miss and caches nothing.
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedQuery> {
        Ok(PreparedQuery { plan: self.host.prepare(sql)? })
    }

    /// Execute a prepared statement under the session's placement, returning
    /// the execution output and the network share of its traffic —
    /// including, itemized, any checkpoint/recovery traffic fault injection
    /// caused.
    ///
    /// Failure contract ([`Host::run`]'s, with no retries): an execution
    /// that errors *or panics* mid-flight counts no query and no traffic; a
    /// panic counts in `stats().failures.panics`, and a crash recovered
    /// inside a successful run in `stats().failures.recoveries`.
    pub fn execute(&mut self, prepared: &PreparedQuery) -> Result<(ExecOutput, NetStats)> {
        self.host.run(&prepared.plan, &self.ledger, 0)
    }

    /// Prepare (through the cache) and execute in one call.
    pub fn run_sql(&mut self, sql: &str) -> Result<(ExecOutput, NetStats)> {
        let prepared = self.prepare(sql)?;
        self.execute(&prepared)
    }

    /// Arm deterministic fault injection: every execution this session runs
    /// from now on shares `injector`, so its fired-once fault semantics span
    /// queries. Injected faults surface from [`Session::execute`] as
    /// [`RelError::Fault`] (its `transient` flag is what retry policies
    /// upstream match on) or [`RelError::Panicked`], under the failure
    /// contract there.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.host.faults = Some(injector);
    }

    /// The placement every execution runs under (`None` on a single
    /// machine), fixed at open.
    pub fn partitioning(&self) -> Option<Arc<Partitioning>> {
        self.host.partitioning()
    }

    /// Lifetime counters: the session's ledger.
    pub fn stats(&self) -> HostStats {
        self.host.stats([&self.ledger])
    }

    /// The plan cache (occupancy, hit/miss counters).
    pub fn plan_cache(&self) -> &PlanCache {
        self.host.plan_cache()
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
        assert!(Session::open(&tag, config).is_ok());
    }

    /// A prepared statement carries no per-session state, so it can be
    /// shared across threads (checked at compile time).
    #[test]
    fn prepared_query_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedQuery>();
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

    /// The failure contract: an execution aborted by an unrecoverable
    /// injected fault leaves every piece of session state — query count,
    /// network counters, placement — exactly as it was, and a retry (the
    /// fault fires once) succeeds normally.
    #[test]
    fn failed_execution_leaves_the_session_unchanged() {
        let (tag, config) = session(4);
        let mut s = Session::open(&tag, config).unwrap();
        let prepared = s.prepare(JOIN_SQL).unwrap();
        s.execute(&prepared).unwrap();
        let queries = s.stats().queries;
        let net_before = s.stats().net;
        let placement: Vec<u16> =
            tag.graph().vertices().map(|v| s.partitioning().unwrap().machine_of(v)).collect();
        // Checkpointing disabled (interval 0): the crash is unrecoverable.
        s.set_fault_injector(Arc::new(FaultInjector::new(FaultPlan::new().crash(0, 1), 0)));
        let err = s.execute(&prepared).unwrap_err();
        assert!(matches!(err, RelError::Fault { transient: false, .. }), "unexpected error: {err}");
        assert_eq!(s.stats().queries, queries, "failed run must not count as served");
        assert_eq!(s.stats().net, net_before);
        for (i, v) in tag.graph().vertices().enumerate() {
            assert_eq!(placement[i], s.partitioning().unwrap().machine_of(v));
        }
        // The fault fired once; the retry runs clean and is counted.
        let (out, _) = s.execute(&prepared).unwrap();
        assert!(!out.relation.is_empty());
        assert_eq!(s.stats().queries, queries + 1);
    }

    /// A panic inside execution is caught, surfaced as a per-query error,
    /// and honors the same failure contract as error returns: only the
    /// ledger's failure counters record it.
    #[test]
    fn panicking_execution_is_isolated_and_only_counted_as_a_failure() {
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
        assert_eq!(s.stats().failures, FailureStats { panics: 1, ..Default::default() });
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
        assert_eq!(faulty.stats().failures.recoveries, 1);
    }
}
