//! # vcsql-server — a multi-tenant query server over one shared TAG
//!
//! One process encodes the database once and serves many clients: a
//! [`QueryServer`] is a [`Host`] (the shared `Arc<TagGraph>`, one
//! [`PlanCache`] — a statement planned for one tenant is a hit for all —,
//! worker pool, fault injector and **one** placement, fixed at start, that
//! every tenant's traffic shares), an [`AdmissionController`] bounding
//! in-flight executions, and one [`Ledger`] per tenant. Every statement of
//! every tenant runs through [`Host::run`], as a session's do.
//!
//! Concurrency model: tenants call [`TenantSession::run_sql`] from any
//! thread. Executions share the host's persistent
//! [`vcsql_bsp::WorkerPool`] (fan-outs are serialized by the
//! pool's own run lock) and its placement (an `Arc`, read without a lock);
//! the plan cache and the admission queue are one mutex each, and every
//! tenant's ledger is one mutex. Lock order: tenant registry → tenant. This
//! crate spawns no thread: callers grant their own admission tickets.

mod admission;

pub use admission::{AdmissionController, AdmissionPermit, AdmissionStats};
pub use vcsql_session::{FailureStats, HostStats, Ledger, PlanCache};

use std::sync::Arc;
use vcsql_bsp::sync::Mutex;
use vcsql_bsp::{EngineConfig, FaultInjector, PartitionStrategy, Partitioning};
use vcsql_core::{ExecOutput, QueryPlan};
use vcsql_dist::NetStats;
use vcsql_relation::RelError;
use vcsql_session::{lock, Host, SessionConfig};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Kept only because `benchmark/` names it; no effect; removed with
/// ROADMAP item 7 (c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arbitration {
    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c).
    #[default]
    Merged,
}

/// Configuration of a [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulated machines. `1` serves purely locally (no partitioning, no
    /// network accounting).
    pub machines: usize,
    /// BSP engine tuning, shared by every tenant's executions.
    pub engine: EngineConfig,
    /// Placement strategy, applied once at start.
    pub strategy: PartitionStrategy,
    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c).
    pub profile_half_life: Option<f64>,
    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c).
    pub arbitration: Arbitration,
    /// Most in-flight executions per tenant (must be at least 1).
    pub max_in_flight_per_tenant: usize,
    /// Most in-flight executions across all tenants (must be at least 1).
    pub max_in_flight_total: usize,
    /// Deterministic fault injection shared by every tenant's executions
    /// (`None` = fault-free). The injector's fired-once semantics span
    /// queries and tenants, so a planned fault hits exactly one execution.
    pub fault_injector: Option<Arc<FaultInjector>>,
    /// Most *re-executions* of one query after transient injected faults
    /// (dropped deliveries). `0` fails fast; panics never retry.
    pub max_retries: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            machines: 1,
            engine: EngineConfig::default(),
            strategy: PartitionStrategy::Refined,
            profile_half_life: Some(8.0),
            arbitration: Arbitration::Merged,
            max_in_flight_per_tenant: 4,
            max_in_flight_total: 16,
            fault_injector: None,
            max_retries: 3,
        }
    }
}

/// The server: one [`Host`], one admission queue, one ledger per tenant.
/// Open per-client handles with [`QueryServer::open_session`]; everything
/// on the server is `&self` and thread-safe.
pub struct QueryServer {
    host: Host,
    config: ServerConfig,
    tenants: Mutex<Vec<Arc<Mutex<Ledger>>>>,
    admission: AdmissionController,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("machines", &self.config.machines)
            .field("tenants", &lock(&self.tenants).len())
            .finish_non_exhaustive()
    }
}

impl QueryServer {
    /// Start a server over `tag` (the handle is cloned; the graph itself
    /// is shared). Validates the host knobs with [`Host::new`], plus the
    /// server-only ones: positive admission bounds.
    pub fn start(tag: &Arc<TagGraph>, config: ServerConfig) -> Result<Arc<QueryServer>> {
        let invalid = |msg: String| RelError::Other(format!("server config: {msg}"));
        if config.max_in_flight_per_tenant == 0 || config.max_in_flight_total == 0 {
            return Err(invalid("admission bounds must admit at least one execution".into()));
        }
        let knobs = SessionConfig {
            machines: config.machines,
            engine: config.engine,
            strategy: config.strategy.clone(),
            ..SessionConfig::default()
        };
        let host = Host::new(tag, &knobs, config.fault_injector.clone())
            .map_err(|e| invalid(e.to_string()))?;
        Ok(Arc::new(QueryServer {
            host,
            tenants: Mutex::new(Vec::new()),
            admission: AdmissionController::new(
                config.max_in_flight_per_tenant,
                config.max_in_flight_total,
            ),
            config,
        }))
    }

    /// Register a tenant and hand back its session. Tenant ids are dense,
    /// in registration order.
    pub fn open_session(self: &Arc<Self>) -> TenantSession {
        let mut tenants = lock(&self.tenants);
        let ledger = Arc::new(Mutex::new(Ledger::default()));
        tenants.push(Arc::clone(&ledger));
        TenantSession { server: Arc::clone(self), id: tenants.len() - 1, ledger }
    }

    /// The shared plan cache (hit/miss counters over all tenants).
    pub fn plan_cache(&self) -> &PlanCache {
        self.host.plan_cache()
    }

    /// Admission-queue counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// The placement every tenant runs under (`None` on a single machine),
    /// fixed at start.
    pub fn partitioning(&self) -> Option<Arc<Partitioning>> {
        self.host.partitioning()
    }

    /// Lifetime counters, across all tenants: the fold of every tenant's
    /// ledger.
    pub fn stats(&self) -> HostStats {
        self.host.stats(lock(&self.tenants).iter().map(|tenant| &**tenant))
    }
}

/// One tenant's handle onto the server: cheap to open, safe to use from
/// any thread (`run_sql` takes `&self`).
#[derive(Debug)]
pub struct TenantSession {
    server: Arc<QueryServer>,
    id: usize,
    ledger: Arc<Mutex<Ledger>>,
}

impl TenantSession {
    /// This tenant's dense id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Plan `sql` through the shared cache (planned at most once across
    /// all tenants).
    pub fn prepare(&self, sql: &str) -> Result<Arc<QueryPlan>> {
        self.server.host.prepare(sql)
    }

    /// Execute `sql` under the shared placement: admission first, then the
    /// cached plan, then [`Host::run`] with this tenant's ledger. The
    /// returned [`NetStats`] itemizes checkpoint and recovery traffic when
    /// fault injection is armed.
    ///
    /// Failure isolation: a panicking execution is caught by the host and
    /// becomes this tenant's [`RelError::Panicked`], prefixed `tenant N: `.
    /// The admission permit is released by its RAII drop on *every* exit
    /// path (return, `?`, unwind), so a dying query never leaks an in-flight
    /// slot, and a failed run mutates no tenant or server state except the
    /// [`FailureStats`] that record it. Transient injected faults
    /// ([`RelError::Fault`] with `transient` set: dropped deliveries) are
    /// re-executed up to [`ServerConfig::max_retries`] times; crashes
    /// recover from checkpoints inside the engine.
    pub fn run_sql(&self, sql: &str) -> Result<(ExecOutput, NetStats)> {
        // RAII slot: dropped on success, error and unwind alike. Holding it
        // for the whole retry loop means a retrying query occupies one slot,
        // not one per attempt.
        let _permit = self.server.admission.acquire(self.id);
        let plan = self.prepare(sql)?;
        let retries = self.server.config.max_retries;
        self.server.host.run(&plan, &self.ledger, retries).map_err(|e| match e {
            RelError::Panicked(msg) => RelError::Panicked(format!("tenant {}: {msg}", self.id)),
            e => e,
        })
    }

    /// This tenant's ledger: its lifetime counters.
    pub fn stats(&self) -> Ledger {
        lock(&self.ledger).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_bsp::{FaultPlan, WorkerPool};
    use vcsql_core::TagJoinExecutor;
    use vcsql_workload::tpch;

    const JOIN_SQL: &str = "SELECT c.c_name FROM customer c, orders o, lineitem l \
                            WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey";
    const Q17_SQL: &str = "SELECT p.p_name FROM part p, lineitem l WHERE p.p_partkey = l.l_partkey";

    fn setup(machines: usize) -> (Arc<TagGraph>, ServerConfig) {
        let db = tpch::generate(0.01, 42);
        let tag = Arc::new(TagGraph::build(&db));
        let config = ServerConfig {
            machines,
            engine: EngineConfig::sequential(),
            ..ServerConfig::default()
        };
        (tag, config)
    }

    #[test]
    fn start_validates_configuration() {
        let (tag, config) = setup(1);
        let bad = [
            ServerConfig { machines: 0, ..config.clone() },
            ServerConfig { max_in_flight_per_tenant: 0, ..config.clone() },
            ServerConfig { max_in_flight_total: 0, ..config.clone() },
        ];
        for c in bad {
            assert!(QueryServer::start(&tag, c).is_err());
        }
        assert!(QueryServer::start(&tag, config).is_ok());
    }

    #[test]
    fn tenants_share_plans_and_results_match_a_lone_executor() {
        let (tag, config) = setup(1);
        let server = QueryServer::start(&tag, config).unwrap();
        let alice = server.open_session();
        let bob = server.open_session();
        assert_eq!((alice.id(), bob.id()), (0, 1));
        let lone =
            TagJoinExecutor::new(&tag, EngineConfig::sequential()).run_sql(JOIN_SQL).unwrap();
        let (out_a, net_a) = alice.run_sql(JOIN_SQL).unwrap();
        let (out_b, _) = bob.run_sql(JOIN_SQL).unwrap();
        assert!(out_a.relation.same_bag_approx(&lone.relation, 1e-9));
        assert!(out_b.relation.same_bag_approx(&lone.relation, 1e-9));
        assert_eq!(net_a.network_bytes, 0, "single machine never uses the network");
        // Alice planned, Bob hit the shared cache: one miss, one hit, one
        // plan allocation.
        assert_eq!((server.plan_cache().misses(), server.plan_cache().hits()), (1, 1));
        assert_eq!(server.plan_cache().len(), 1);
        assert!(Arc::ptr_eq(&alice.prepare(JOIN_SQL).unwrap(), &bob.prepare(JOIN_SQL).unwrap()));
        assert_eq!(server.stats().queries, 2);
        assert_eq!(alice.stats().queries, 1);
        assert_eq!(server.admission_stats().admitted, 2);
    }

    /// The tentpole's server guarantee: a panicking query releases its
    /// admission slot via the permit's RAII drop, becomes *that tenant's*
    /// error, and every other tenant keeps getting answers.
    #[test]
    fn panicking_tenant_leaks_no_slot_and_others_keep_answering() {
        let (tag, config) = setup(1);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().compute_panic(1), 0));
        let server = QueryServer::start(
            &tag,
            ServerConfig { fault_injector: Some(Arc::clone(&inj)), ..config },
        )
        .unwrap();
        let victim = server.open_session();
        let bystander = server.open_session();
        let err = victim.run_sql(JOIN_SQL).unwrap_err();
        assert!(matches!(err, RelError::Panicked(_)), "{err}");
        let msg = format!("{err}");
        assert!(msg.starts_with("tenant 0: execution panicked: "), "{msg}");
        assert_eq!(server.admission.total_in_flight(), 0, "panicked query leaked its slot");
        assert_eq!(victim.stats().failures, FailureStats { panics: 1, ..Default::default() });
        assert_eq!(victim.stats().queries, 0, "panicked run must not count as served");
        // The bystander — and even the victim, since the fault fired once —
        // still get served through the same admission queue.
        let lone =
            TagJoinExecutor::new(&tag, EngineConfig::sequential()).run_sql(JOIN_SQL).unwrap();
        let (out_b, _) = bystander.run_sql(JOIN_SQL).unwrap();
        let (out_v, _) = victim.run_sql(JOIN_SQL).unwrap();
        assert!(out_b.relation.same_bag_approx(&lone.relation, 1e-9));
        assert!(out_v.relation.same_bag_approx(&lone.relation, 1e-9));
        assert_eq!(bystander.stats().failures, FailureStats::default());
        assert_eq!(server.stats().failures.panics, 1);
        assert_eq!(server.admission.total_in_flight(), 0);
    }

    /// Concurrent version of the slot-leak regression: tenants hammer the
    /// server while one of them panics mid-flight; bounds hold throughout
    /// and the queue fully drains.
    #[test]
    fn concurrent_panic_does_not_wedge_admission() {
        let (tag, config) = setup(1);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().compute_panic(2), 0));
        let server = QueryServer::start(
            &tag,
            ServerConfig {
                fault_injector: Some(inj),
                max_in_flight_per_tenant: 1,
                max_in_flight_total: 2,
                ..config
            },
        )
        .unwrap();
        let sessions: Vec<TenantSession> = (0..4).map(|_| server.open_session()).collect();
        let driver = WorkerPool::new(4);
        driver.run(4, &|w| {
            for _ in 0..3 {
                // Exactly one of the twelve executions dies; everyone else
                // must still be admitted and answered.
                let _ = sessions[w].run_sql(JOIN_SQL);
            }
        });
        assert_eq!(server.admission.total_in_flight(), 0, "a slot leaked");
        assert_eq!(server.admission_stats().admitted, 12);
        assert_eq!(server.stats().failures.panics, 1);
        assert_eq!(server.stats().queries, 11, "one panicked, eleven served");
    }

    /// Transient injected faults (dropped deliveries) are retried and
    /// succeed without the client ever seeing them.
    #[test]
    fn transient_faults_retry_to_success() {
        let (tag, config) = setup(4);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().drop_link(0, 2, 1), 0));
        let server = QueryServer::start(
            &tag,
            ServerConfig { fault_injector: Some(Arc::clone(&inj)), ..config },
        )
        .unwrap();
        let tenant = server.open_session();
        let lone =
            TagJoinExecutor::new(&tag, EngineConfig::sequential()).run_sql(JOIN_SQL).unwrap();
        let (out, _) = tenant.run_sql(JOIN_SQL).unwrap();
        assert!(inj.any_fired(), "the planned delivery fault never fired");
        assert!(out.relation.same_bag_approx(&lone.relation, 1e-9));
        let failures = tenant.stats().failures;
        assert_eq!(failures.retries, 1, "one transient fault, one retry");
        assert_eq!(failures.panics, 0);
        assert_eq!(tenant.stats().queries, 1);
    }

    /// With retries exhausted (max_retries 0) a transient fault degrades to
    /// a per-tenant error instead of being retried forever.
    #[test]
    fn exhausted_retries_surface_the_transient_fault() {
        let (tag, config) = setup(4);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().drop_link(1, 3, 2), 0));
        let server = QueryServer::start(
            &tag,
            ServerConfig { fault_injector: Some(inj), max_retries: 0, ..config },
        )
        .unwrap();
        let tenant = server.open_session();
        let err = tenant.run_sql(JOIN_SQL).unwrap_err();
        assert!(matches!(err, RelError::Fault { transient: true, .. }), "{err}");
        assert_eq!(tenant.stats().queries, 0);
        assert_eq!(server.admission.total_in_flight(), 0);
        // Fired once: the next run is clean.
        assert!(tenant.run_sql(JOIN_SQL).is_ok());
    }

    /// `QueryServer::stats` is a fold, not a second ledger: after a run
    /// mixing successes, a retried transient fault, an exhausted retry and
    /// a caught panic it equals the field-wise sum of every tenant's stats
    /// — failed runs included.
    #[test]
    fn server_stats_are_the_fold_of_tenant_stats_and_controller_counters() {
        let (tag, config) = setup(4);
        let plan = FaultPlan::new()
            .drop_link(0, 2, 1)
            .drop_link(1, 3, 1)
            .drop_link(2, 0, 1)
            .compute_panic(2);
        let server = QueryServer::start(
            &tag,
            ServerConfig {
                fault_injector: Some(Arc::new(FaultInjector::new(plan, 0))),
                max_retries: 1,
                ..config
            },
        )
        .unwrap();
        let sessions: Vec<TenantSession> = (0..4).map(|_| server.open_session()).collect();
        // Alone, tenant 0's first attempt and its one retry each claim a
        // drop: the retry budget is exhausted and the fault surfaces.
        let err = sessions[0].run_sql(JOIN_SQL).unwrap_err();
        assert!(matches!(err, RelError::Fault { transient: true, .. }), "{err}");
        // Concurrently, one attempt claims the last drop (and is retried)
        // and one execution claims the panic; the other runs succeed.
        let driver = WorkerPool::new(4);
        driver.run(4, &|w| {
            for sql in [JOIN_SQL, Q17_SQL, JOIN_SQL] {
                let _ = sessions[w].run_sql(sql);
            }
        });
        let stats = server.stats();
        let (mut queries, mut net, mut failures) =
            (0, NetStats::default(), FailureStats::default());
        for session in &sessions {
            let tenant = session.stats();
            queries += tenant.queries;
            net.absorb(&tenant.net);
            failures.add(&tenant.failures);
        }
        assert_eq!((stats.queries, stats.net, stats.failures), (queries, net, failures));
        assert_eq!(failures, FailureStats { panics: 1, retries: 2, recoveries: 0 });
        assert_eq!(queries, 11, "twelve concurrent runs, one panicked");
    }

    /// Machine crashes recover from checkpoints *inside* the execution: the
    /// client sees a normal answer, and the recovery is itemized in both
    /// the per-query net and the tenant's failure counters.
    #[test]
    fn crash_recovery_is_invisible_to_the_client_and_itemized() {
        let (tag, config) = setup(4);
        let inj = Arc::new(FaultInjector::new(FaultPlan::new().crash(1, 3), 2));
        let server = QueryServer::start(
            &tag,
            ServerConfig { fault_injector: Some(Arc::clone(&inj)), ..config },
        )
        .unwrap();
        let tenant = server.open_session();
        let lone =
            TagJoinExecutor::new(&tag, EngineConfig::sequential()).run_sql(JOIN_SQL).unwrap();
        let (out, net) = tenant.run_sql(JOIN_SQL).unwrap();
        assert!(inj.any_fired(), "the planned crash never fired");
        assert!(out.relation.same_bag_approx(&lone.relation, 1e-9));
        assert!(net.checkpoint_bytes > 0, "checkpointing run itemized no checkpoint bytes");
        assert!(net.recovery_bytes > 0, "recovered crash itemized no recovery bytes");
        assert!(net.recovery_bytes <= net.network_bytes);
        let failures = tenant.stats().failures;
        assert_eq!(failures.recoveries, 1);
        assert_eq!(failures.retries, 0, "in-engine recovery needs no server retry");
        assert_eq!(tenant.stats().queries, 1);
        assert_eq!(server.stats().failures.recoveries, 1);
        assert_eq!(server.stats().net.recovery_bytes, net.recovery_bytes);
    }

    #[test]
    fn admission_bounds_hold_under_concurrent_tenants() {
        let (tag, config) = setup(1);
        let server = QueryServer::start(
            &tag,
            ServerConfig { max_in_flight_per_tenant: 1, max_in_flight_total: 2, ..config },
        )
        .unwrap();
        let sessions: Vec<TenantSession> = (0..4).map(|_| server.open_session()).collect();
        // Planned up front: two tenants admitted together would otherwise
        // both miss and both plan (planning runs outside the cache lock).
        sessions[0].prepare(JOIN_SQL).unwrap();
        let driver = WorkerPool::new(4);
        driver.run(4, &|w| {
            for _ in 0..3 {
                sessions[w].run_sql(JOIN_SQL).unwrap();
            }
        });
        let admission = server.admission_stats();
        assert_eq!(admission.admitted, 12);
        assert!(admission.peak_in_flight <= 2, "global admission bound breached");
        assert_eq!(server.stats().queries, 12);
        // Every tenant used the one shared plan: one miss total.
        assert_eq!(server.plan_cache().misses(), 1);
        assert_eq!(server.plan_cache().hits(), 12);
    }
}
