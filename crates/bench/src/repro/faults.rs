//! E17: the fault-tolerance sweep and the invariants it must show.

use super::distributed::analyze_suite;
use super::{Args, SEED, SUITES};
use crate::print_table;
use std::sync::Arc;
use vcsql_bsp::{EngineConfig, FaultInjector, FaultPlan, PartitionStrategy};
use vcsql_core::TagJoinExecutor;
use vcsql_relation::RelError;
use vcsql_tag::TagGraph;

/// One (workload, checkpoint-interval) arm of the fault sweep, counters
/// summed over the suite's queries. All byte counters come from each
/// query's *successful* attempt — a failed attempt returns no statistics,
/// it only bumps `retries`/`reruns`.
#[derive(Debug, Clone, Default)]
struct FaultArm {
    workload: &'static str,
    interval: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    crashes_recovered: u64,
    recovered_rounds: u64,
    recovery_bytes: u64,
    /// Transient delivery failures resolved by retrying the execution.
    retries: u64,
    /// Crashes with no checkpoint to restore from (interval 0), resolved by
    /// rerunning from scratch.
    reruns: u64,
    network_bytes: u64,
}

/// E17 — the fault-tolerance sweep: inject one machine crash (`--kill`)
/// plus two seeded transient link drops into every TPC-H and TPC-DS query,
/// once per checkpoint interval in `{0,1,2,4,8} ∪ {--checkpoint-every}`.
/// Every faulty run must reproduce the fault-free result bag *and* the
/// fault-free network byte total (recovery traffic is itemized separately),
/// so the table is a pure overhead-vs-recovery-cost tradeoff: small
/// intervals pay checkpoint bytes per superstep, large ones replay more
/// rounds per crash, and interval 0 falls back to a full rerun. The table
/// prints exact byte counts; [`FaultReport::check`] then asserts the
/// tradeoff, and a violation exits 1.
pub(super) fn run(a: &Args) {
    let (sf, checkpoint_every, seed) = (a.sf(), a.checkpoint_every, a.seed);
    let (kill_machine, kill_superstep) = a.kill;
    let machines = (kill_machine as usize + 1).max(4);
    outln!(
        "\n## E17 — Fault-tolerant execution @ SF {sf}: crash machine {kill_machine} before \
         superstep {kill_superstep}, seed {seed}, {machines} machines\n"
    );
    // The interval under test rides with fixed reference points; 0 is the
    // no-checkpointing arm, where the crash aborts the run instead.
    let mut intervals = vec![0u64, 1, 2, 4, 8, checkpoint_every];
    intervals.sort_unstable();
    intervals.dedup();
    // One crash plus two seeded transient link drops per plan, so every arm
    // exercises both the checkpoint/replay path and the retry path. The
    // drop horizon tracks the kill superstep to keep all faults reachable
    // by the same queries.
    let drops = FaultPlan::seeded(seed, machines as u32, kill_superstep.max(1) + 2, 0, 2);
    let mut plan = FaultPlan::new().crash(kill_machine, kill_superstep);
    for f in drops.faults() {
        if let vcsql_bsp::Fault::DropLink { from, to, superstep } = *f {
            plan = plan.drop_link(from, to, superstep);
        }
    }
    let mut arms: Vec<FaultArm> = Vec::new();
    for suite in SUITES {
        let workload = suite.name;
        let tag = TagGraph::build(&(suite.generate)(sf, SEED));
        let analyzed = analyze_suite(&tag, &(suite.queries)());
        let placement = Arc::new(
            PartitionStrategy::Hash.partition(tag.graph(), machines, &|v| !tag.is_tuple_vertex(v)),
        );
        // Fault-free ground truth, one per query: the bag every faulty run
        // must reproduce and the byte total every recovery must match.
        let clean = TagJoinExecutor::new(&tag, EngineConfig::with_threads(4))
            .with_partitioning_shared(Arc::clone(&placement));
        let baselines: Vec<_> =
            analyzed.iter().map(|q| clean.execute(q).expect("fault-free query runs")).collect();
        for &interval in &intervals {
            let mut arm = FaultArm { workload, interval, ..FaultArm::default() };
            for (q, base) in analyzed.iter().zip(&baselines) {
                // A fresh injector per (query, interval): the full plan is
                // armed against every query, and fires at most once each.
                let injector = Arc::new(FaultInjector::new(plan.clone(), interval));
                let exec = TagJoinExecutor::new(&tag, EngineConfig::with_threads(4))
                    .with_partitioning_shared(Arc::clone(&placement))
                    .with_fault_injector(injector);
                // Bounded retry: each fault fires at most once per injector
                // lifetime, so `plan.len()` failed attempts is the worst
                // case before an attempt runs fault-free.
                let mut out = None;
                for _ in 0..=plan.len() {
                    match exec.execute(q) {
                        Ok(o) => {
                            out = Some(o);
                            break;
                        }
                        Err(RelError::Fault { transient: true, .. }) => arm.retries += 1,
                        Err(RelError::Fault { transient: false, .. }) => arm.reruns += 1,
                        Err(e) => panic!("{workload} interval {interval}: non-fault error: {e}"),
                    }
                }
                let out = out.unwrap_or_else(|| {
                    panic!("{workload} interval {interval}: retries did not converge")
                });
                assert!(
                    out.relation.same_bag_approx(&base.relation, 1e-9),
                    "{workload} interval {interval}: result bag diverged from fault-free"
                );
                assert_eq!(
                    out.stats.totals.network_bytes, base.stats.totals.network_bytes,
                    "{workload} interval {interval}: query traffic diverged from fault-free \
                     (recovery must be itemized, not folded in)"
                );
                let ft = &out.stats.faults;
                arm.checkpoints += ft.checkpoints;
                arm.checkpoint_bytes += ft.checkpoint_bytes;
                arm.crashes_recovered += ft.crashes_recovered;
                arm.recovered_rounds += ft.recovered_rounds;
                arm.recovery_bytes += ft.recovery_bytes;
                arm.network_bytes += out.stats.totals.network_bytes;
            }
            arms.push(arm);
        }
    }
    let report = FaultReport { arms };
    for suite in SUITES {
        let workload = suite.name;
        let rows: Vec<Vec<String>> = report
            .arms
            .iter()
            .filter(|a| a.workload == workload)
            .map(|a| {
                vec![
                    if a.interval == 0 { "off".to_string() } else { a.interval.to_string() },
                    a.checkpoints.to_string(),
                    a.checkpoint_bytes.to_string(),
                    a.crashes_recovered.to_string(),
                    a.recovered_rounds.to_string(),
                    a.recovery_bytes.to_string(),
                    a.retries.to_string(),
                    a.reruns.to_string(),
                    a.network_bytes.to_string(),
                ]
            })
            .collect();
        outln!("### {workload} — all result bags identical to fault-free\n");
        print_table(
            &[
                "ckpt every",
                "checkpoints",
                "ckpt bytes",
                "crashes recovered",
                "replayed rounds",
                "recovery bytes",
                "retries",
                "reruns",
                "query net (= fault-free)",
            ],
            &rows,
        );
    }
    if let Err(e) = report.check() {
        eprintln!("repro: fault sweep invariant violated: {e}");
        std::process::exit(1);
    }
}

/// The sweep's result: one arm per (workload, checkpoint interval),
/// workload-major in ascending interval order.
struct FaultReport {
    arms: Vec<FaultArm>,
}

impl FaultReport {
    /// The tradeoff the sweep exists to show: without checkpoints the crash
    /// costs full reruns, with them it is recovered in place; checkpoint
    /// bytes fall as the interval widens; and the faulty runs' query traffic
    /// never diverges from fault-free.
    fn check(&self) -> Result<(), String> {
        for a in &self.arms {
            let arm = format!("{} interval {}", a.workload, a.interval);
            if a.interval == 0 {
                if a.checkpoints != 0 || a.checkpoint_bytes != 0 || a.crashes_recovered != 0 {
                    return Err(format!("{arm}: checkpointing is off yet it checkpointed"));
                }
                if a.reruns == 0 {
                    return Err(format!("{arm}: the crash cost no rerun"));
                }
            } else if a.checkpoints == 0 || a.crashes_recovered == 0 || a.reruns != 0 {
                return Err(format!("{arm}: the crash was not recovered from a checkpoint"));
            }
        }
        for pair in self.arms.windows(2).filter(|p| p[0].workload == p[1].workload) {
            let (prev, next) = (&pair[0], &pair[1]);
            let arm = format!("{} interval {}", next.workload, next.interval);
            if prev.interval > 0 && next.checkpoint_bytes > prev.checkpoint_bytes {
                return Err(format!("{arm}: checkpoint bytes rose with the interval"));
            }
            if next.network_bytes != prev.network_bytes {
                return Err(format!("{arm}: query traffic diverged across arms"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-workload sweep every invariant holds for.
    fn report() -> FaultReport {
        let arm = |workload, interval, checkpoint_bytes, network_bytes| {
            let on = (interval > 0) as u64;
            FaultArm {
                workload,
                interval,
                checkpoints: 4 * on,
                checkpoint_bytes,
                crashes_recovered: on,
                reruns: 1 - on,
                network_bytes,
                ..FaultArm::default()
            }
        };
        let arms = vec![
            arm("tpch", 0, 0, 500),
            arm("tpch", 1, 900, 500),
            arm("tpch", 2, 400, 500),
            arm("tpch", 4, 400, 500),
            arm("tpcds", 0, 0, 70),
            arm("tpcds", 1, 950, 70),
        ];
        FaultReport { arms }
    }

    /// `violate` breaks one invariant of the valid report; `check` must say so.
    fn rejects(violate: fn(&mut FaultReport), expect: &str) {
        let mut r = report();
        violate(&mut r);
        let err = r.check().expect_err(expect);
        assert!(err.contains(expect), "`{err}` does not mention `{expect}`");
    }

    #[test]
    fn check_rejects_each_violated_invariant() {
        assert_eq!(report().check(), Ok(()));
        rejects(|r| r.arms[0].checkpoints = 1, "tpch interval 0: checkpointing is off");
        rejects(|r| r.arms[4].reruns = 0, "tpcds interval 0: the crash cost no rerun");
        rejects(
            |r| r.arms[1].crashes_recovered = 0,
            "tpch interval 1: the crash was not recovered",
        );
        rejects(|r| r.arms[5].reruns = 1, "tpcds interval 1: the crash was not recovered");
        rejects(|r| r.arms[3].checkpoint_bytes = 401, "tpch interval 4: checkpoint bytes rose");
        rejects(|r| r.arms[2].network_bytes += 1, "tpch interval 2: query traffic diverged");
    }
}
