//! The [`Host`]: what every host of one TAG holds and does.
//!
//! A [`Session`](crate::Session) and `vcsql-server`'s `QueryServer` serve
//! queries the same way: plan through one [`PlanCache`], run under the one
//! placement fixed when the host was built, on one worker pool, under one
//! fault injector, then fold the run into the caller's [`Ledger`]. A host
//! differs from another only in how many ledgers it keeps: a session keeps
//! one, a server one per tenant.

use crate::{lock, PlanCache, SessionConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use vcsql_bsp::sync::Mutex;
use vcsql_bsp::{EngineConfig, FaultInjector, Partitioning, WorkerPool};
use vcsql_core::{ExecOutput, QueryPlan, ScratchPool, TagJoinExecutor};
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
    /// Executions served.
    pub queries: u64,
    /// Cumulative network traffic of this caller's executions.
    pub net: NetStats,
    /// Panics caught, transient-fault retries, crash recoveries.
    pub failures: FailureStats,
}

/// Lifetime counters of a host ([`Host::stats`]): the fold of its ledgers.
#[derive(Debug, Clone, Default)]
pub struct HostStats {
    /// Executions served.
    pub queries: u64,
    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c). Always 0.
    pub adaptations: u64,
    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c). Always 0.
    pub migration_steps: u64,
    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c). Always 0.
    pub migrated_vertices: u64,
    /// Kept only because `benchmark/` names it; no effect; removed with
    /// ROADMAP item 7 (c). Always 0.
    pub migration_bytes: u64,
    /// Cumulative network traffic over every execution.
    pub net: NetStats,
    /// Failure-isolation counters.
    pub failures: FailureStats,
}

/// The state every host of one TAG shares across its callers: the graph,
/// engine tuning, plan cache, placement, worker pool, engine scratches and
/// fault injector. Everything is `&self`, so one host serves any number of
/// threads.
pub struct Host {
    tag: Arc<TagGraph>,
    engine: EngineConfig,
    cache: PlanCache,
    /// The placement every execution runs under (`None` when
    /// `machines == 1`), fixed when the host is built.
    placement: Option<Arc<Partitioning>>,
    /// Persistent worker runtime shared by every execution (`None` for
    /// single-threaded engine configs). Its OS threads spawn on the first
    /// superstep that fans out and park between queries.
    pub(crate) pool: Option<Arc<WorkerPool>>,
    /// The engine's graph-sized arrays, kept between executions: one per
    /// execution that ran at the same time as another, each lent to one
    /// execution at a time.
    scratches: Arc<ScratchPool>,
    /// Deterministic fault injection shared by every execution (`None` =
    /// fault-free). Fired-once semantics span queries and callers.
    pub(crate) faults: Option<Arc<FaultInjector>>,
}

impl Host {
    /// A host over `tag` on 1 to `u16::MAX` machines, placed once with
    /// `config.strategy` when `machines > 1`.
    pub fn new(
        tag: &Arc<TagGraph>,
        config: &SessionConfig,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Host> {
        check_machines(config.machines)?;
        let (machines, threads) = (config.machines, config.engine.threads);
        Ok(Host {
            tag: Arc::clone(tag),
            engine: config.engine,
            cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            placement: (machines > 1).then(|| Arc::new(tag.partition(&config.strategy, machines))),
            pool: (threads > 1).then(|| Arc::new(WorkerPool::new(threads))),
            scratches: Arc::new(ScratchPool::new(Vec::new())),
            faults,
        })
    }

    /// Plan `sql` through the plan cache (planned at most once across all
    /// callers while it stays cached).
    pub fn prepare(&self, sql: &str) -> Result<Arc<QueryPlan>> {
        self.cache.get_or_prepare(sql, self.tag.schemas())
    }

    /// The one run path of every host: execute `plan` under the host's
    /// placement, re-executing after transient injected faults (dropped
    /// deliveries) up to `max_retries` times, then fold the run into
    /// `ledger`: count the query and its network share. The returned
    /// [`NetStats`] itemizes checkpoint and recovery traffic when fault
    /// injection is armed.
    ///
    /// Failure contract: a panic inside the engine is caught and becomes
    /// [`RelError::Panicked`] (never retried: its cause is unknown). A failed
    /// execution leaves the query and network counters untouched; only
    /// `ledger.failures` records it.
    pub fn run(
        &self,
        plan: &QueryPlan,
        ledger: &Mutex<Ledger>,
        max_retries: usize,
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
        let mut ledger = lock(ledger);
        match outcome {
            Ok((out, net)) => {
                failures.recoveries += out.stats.faults.crashes_recovered;
                ledger.queries += 1;
                ledger.net.absorb(&net);
                ledger.failures.add(&failures);
                Ok((out, net))
            }
            Err(e) => {
                ledger.failures.add(&failures);
                Err(e)
            }
        }
    }

    /// Assemble the executor from the host's shared pieces, run `plan` and
    /// split out the network share of its traffic. The executor borrows no
    /// host state mutably (everything shared arrives by `Arc`), so
    /// unwinding out of it cannot leave the host torn: a run that panics
    /// drops the scratch it borrowed instead of giving it back.
    fn execute(&self, plan: &QueryPlan) -> Result<(ExecOutput, NetStats)> {
        let mut exec = TagJoinExecutor::new(&self.tag, self.engine)
            .with_scratch_pool(Arc::clone(&self.scratches));
        if let Some(p) = &self.placement {
            exec = exec.with_partitioning_shared(Arc::clone(p));
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

    /// The placement every execution runs under (`None` on a single
    /// machine): the same `Arc` for the host's whole lifetime.
    pub fn partitioning(&self) -> Option<Arc<Partitioning>> {
        self.placement.clone()
    }

    /// Lifetime counters: `ledgers` folded.
    pub fn stats<'a>(&self, ledgers: impl IntoIterator<Item = &'a Mutex<Ledger>>) -> HostStats {
        let mut stats = HostStats::default();
        for ledger in ledgers {
            let ledger = lock(ledger);
            stats.queries += ledger.queries;
            stats.net.absorb(&ledger.net);
            stats.failures.add(&ledger.failures);
        }
        stats
    }
}

/// A host runs on 1 to `u16::MAX` machines; the error every entry point
/// that opens or calibrates one returns otherwise.
pub(crate) fn check_machines(machines: usize) -> Result<()> {
    match machines {
        0 => Err(RelError::Other("a host needs at least one machine".into())),
        m if m > u16::MAX as usize => Err(RelError::Other("machine count exceeds u16".into())),
        _ => Ok(()),
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
