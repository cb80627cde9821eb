//! The [`Host`]: what every host of one TAG holds and does.
//!
//! A [`Session`](crate::Session) and `vcsql-server`'s `QueryServer` serve
//! queries the same way: plan through one [`PlanCache`], run under the one
//! placement a [`PlacementController`] keeps, on one worker pool, under one
//! fault injector, then fold the run into the caller's [`Ledger`] and give
//! the controller one step with the caller's vote. A host differs from
//! another only in how many ledgers it keeps and where the vote comes from:
//! a session keeps one ledger and votes with it; a server keeps one per
//! tenant and votes the merged consensus.

use crate::{lock, PlacementController, PlanCache, SessionConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use vcsql_bsp::sync::Mutex;
use vcsql_bsp::{EngineConfig, FaultInjector, Partitioning, TrafficProfile, WorkerPool};
use vcsql_core::{ExecOutput, QueryPlan, TagJoinExecutor};
use vcsql_dist::NetStats;
use vcsql_relation::RelError;
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// Plans every host caches. Plans are keyed by SQL text, and the benchmark
/// workloads' 35 distinct statements fit with room to spare.
const PLAN_CACHE_CAPACITY: usize = 128;

/// Failure-isolation counters of one [`Ledger`] (and, folded, of a host).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureStats {
    /// Executions that panicked and were caught at the host boundary.
    pub panics: u64,
    /// Re-executions after transient faults (each retry counted).
    pub retries: u64,
    /// Machine crashes recovered from a checkpoint *inside* successful
    /// executions (confined recovery; the query still answered).
    pub recoveries: u64,
}

impl FailureStats {
    /// Fold another ledger's (or attempt's) counters into this one.
    pub fn add(&mut self, other: &FailureStats) {
        self.panics += other.panics;
        self.retries += other.retries;
        self.recoveries += other.recoveries;
    }
}

/// One caller's account with a host: a session has one, a server one per
/// tenant.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// The caller's decayed traffic profile — its vote on the placement.
    pub vote: TrafficProfile,
    /// Executions served.
    pub queries: u64,
    /// Cumulative network traffic, including the migration bytes this
    /// caller's executions triggered.
    pub net: NetStats,
    /// Panics caught, transient-fault retries, crash recoveries.
    pub failures: FailureStats,
}

/// Lifetime counters of a host ([`Host::stats`]): the fold of its ledgers
/// plus its placement controller's counters.
#[derive(Debug, Clone, Default)]
pub struct HostStats {
    /// Executions served.
    pub queries: u64,
    /// Adaptation targets derived (drift threshold crossings).
    pub adaptations: u64,
    /// Migration steps that moved at least one vertex.
    pub migration_steps: u64,
    /// Vertices migrated across all steps.
    pub migrated_vertices: u64,
    /// Bytes of migrated vertex state (also itemized per query in the
    /// returned [`NetStats`]).
    pub migration_bytes: u64,
    /// Cumulative network traffic over every execution, migrations
    /// included.
    pub net: NetStats,
    /// Failure-isolation counters.
    pub failures: FailureStats,
}

/// The state every host of one TAG shares across its callers: the graph,
/// engine tuning, plan cache, placement, worker pool and fault injector.
/// Everything is `&self`, so one host serves any number of threads.
pub struct Host {
    tag: Arc<TagGraph>,
    engine: EngineConfig,
    cache: PlanCache,
    /// The placement every execution runs under (`None` when
    /// `machines == 1`): read to execute, stepped after each run. Executing
    /// only clones its `Arc<Partitioning>` under the lock; the step holds it
    /// to adapt.
    placement: Option<Mutex<PlacementController>>,
    /// Persistent worker runtime shared by every execution (`None` for
    /// single-threaded engine configs). Its OS threads spawn on the first
    /// superstep that fans out and park between queries.
    pub(crate) pool: Option<Arc<WorkerPool>>,
    /// Deterministic fault injection shared by every execution (`None` =
    /// fault-free). Fired-once semantics span queries and callers.
    pub(crate) faults: Option<Arc<FaultInjector>>,
    half_life: Option<f64>,
}

impl Host {
    /// A host over `tag` with `config`'s knobs: 1 to `u16::MAX` machines, a
    /// positive migration budget, a positive finite drift threshold and a
    /// positive finite profile half-life when one is set.
    pub fn new(
        tag: &Arc<TagGraph>,
        config: &SessionConfig,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Host> {
        let invalid = |msg: String| Err(RelError::Other(msg));
        if config.machines == 0 {
            return invalid("a host needs at least one machine".into());
        }
        if config.machines > u16::MAX as usize {
            return invalid("machine count exceeds u16".into());
        }
        if config.migration_budget == 0 {
            return invalid("migration budget must allow at least one vertex per step".into());
        }
        if !config.drift_threshold.is_finite() || config.drift_threshold <= 0.0 {
            return invalid(format!(
                "drift threshold must be positive and finite, got {}",
                config.drift_threshold
            ));
        }
        if let Some(h) = config.profile_half_life.filter(|h| !h.is_finite() || *h <= 0.0) {
            return invalid(format!("profile half-life must be positive and finite, got {h}"));
        }
        let threads = config.engine.threads;
        Ok(Host {
            tag: Arc::clone(tag),
            engine: config.engine,
            cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            placement: PlacementController::new(tag, config).map(Mutex::new),
            pool: (threads > 1).then(|| Arc::new(WorkerPool::new(threads))),
            faults,
            half_life: config.profile_half_life,
        })
    }

    /// Plan `sql` through the plan cache (planned at most once across all
    /// callers while it stays cached).
    pub fn prepare(&self, sql: &str) -> Result<Arc<QueryPlan>> {
        self.cache.get_or_prepare(sql, self.tag.schemas())
    }

    /// The one run path of every host: execute `plan` under the current
    /// placement, re-executing after transient injected faults (dropped
    /// deliveries) up to `max_retries` times, then fold the run into
    /// `ledger` — decay and absorb its traffic into the vote, count the
    /// query and its network share — and give the placement controller one
    /// step with `vote()`. `may_retarget` and `proposer` are handed to
    /// [`PlacementController::step`] as they are. The returned [`NetStats`]
    /// itemizes any migration the step shipped, plus checkpoint and recovery
    /// traffic when fault injection is armed.
    ///
    /// Failure contract: a panic inside the engine is caught and becomes
    /// [`RelError::Panicked`] (never retried: its cause is unknown). A failed
    /// execution leaves the vote, the placement and the query and network
    /// counters untouched; only `ledger.failures` records it.
    ///
    /// `vote` runs with no lock held and before the placement lock is
    /// taken, so it may lock ledgers: the lock order is ledgers →
    /// placement.
    pub fn run(
        &self,
        plan: &QueryPlan,
        ledger: &Mutex<Ledger>,
        max_retries: usize,
        may_retarget: bool,
        proposer: usize,
        vote: impl FnOnce() -> Option<TrafficProfile>,
    ) -> Result<(ExecOutput, NetStats)> {
        let mut failures = FailureStats::default();
        let outcome = loop {
            match self.execute(plan) {
                Err(RelError::Fault { transient: true, .. })
                    if failures.retries < max_retries as u64 =>
                {
                    failures.retries += 1;
                }
                Err(e) => {
                    failures.panics += u64::from(matches!(e, RelError::Panicked(_)));
                    break Err(e);
                }
                done => break done,
            }
        };
        let (out, mut net) = match outcome {
            Ok(done) => done,
            Err(e) => {
                lock(ledger).failures.add(&failures);
                return Err(e);
            }
        };
        failures.recoveries += out.stats.faults.crashes_recovered;
        {
            let mut ledger = lock(ledger);
            if let Some(h) = self.half_life {
                ledger.vote.decay(0.5f64.powf(1.0 / h));
            }
            ledger.vote.absorb(&TrafficProfile::from_run(&out.stats, self.tag.graph()));
        }
        if let Some(placement) = &self.placement {
            let vote = vote();
            lock(placement).step(vote.as_ref(), may_retarget, proposer, &mut net);
        }
        // `net` now carries any migration bytes the step shipped.
        let mut ledger = lock(ledger);
        ledger.queries += 1;
        ledger.net.absorb(&net);
        ledger.failures.add(&failures);
        Ok((out, net))
    }

    /// Assemble the executor from the host's shared pieces, run `plan` and
    /// split out the network share of its traffic. The executor borrows no
    /// host state mutably (everything shared arrives by `Arc`), so
    /// unwinding out of it cannot leave the host torn.
    fn execute(&self, plan: &QueryPlan) -> Result<(ExecOutput, NetStats)> {
        let mut exec = TagJoinExecutor::new(&self.tag, self.engine);
        if let Some(p) = self.partitioning() {
            exec = exec.with_partitioning_shared(p);
        }
        if let Some(pool) = &self.pool {
            exec = exec.with_worker_pool(Arc::clone(pool));
        }
        if let Some(inj) = &self.faults {
            exec = exec.with_fault_injector(Arc::clone(inj));
        }
        let out =
            catch_unwind(AssertUnwindSafe(|| exec.execute_plan(plan))).map_err(|payload| {
                RelError::Panicked(format!("execution panicked: {}", panic_message(&*payload)))
            })??;
        let net = NetStats::from_run(&out.stats);
        Ok((out, net))
    }

    /// The plan cache (occupancy, hit/miss counters).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The placement the next execution runs under (`None` on a single
    /// machine). Mid-migration this is the in-between placement.
    pub fn partitioning(&self) -> Option<Arc<Partitioning>> {
        self.read_placement(|p| Arc::clone(p.current()))
    }

    /// The profile the current placement was derived from (`None` on a
    /// single machine).
    pub fn placement_profile(&self) -> Option<TrafficProfile> {
        self.read_placement(|p| p.profile().clone())
    }

    /// True iff an adaptation is mid-walk.
    pub fn migration_pending(&self) -> bool {
        self.read_placement(PlacementController::is_migrating).unwrap_or(false)
    }

    /// Lifetime counters: `ledgers` folded, plus the placement controller's.
    pub fn stats<'a>(&self, ledgers: impl IntoIterator<Item = &'a Mutex<Ledger>>) -> HostStats {
        let mut stats = HostStats::default();
        for ledger in ledgers {
            let ledger = lock(ledger);
            stats.queries += ledger.queries;
            stats.net.absorb(&ledger.net);
            stats.failures.add(&ledger.failures);
        }
        self.read_placement(|p| {
            stats.adaptations = p.adaptations;
            stats.migration_steps = p.migration_steps;
            stats.migrated_vertices = p.migrated_vertices;
            stats.migration_bytes = p.migration_bytes;
        });
        stats
    }

    fn read_placement<T>(&self, read: impl FnOnce(&PlacementController) -> T) -> Option<T> {
        Some(read(&lock(self.placement.as_ref()?)))
    }
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
