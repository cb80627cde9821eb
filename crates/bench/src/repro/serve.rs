//! E16: the multi-tenant serving bench and its `vcsql-serve-report/v1`
//! document.

use super::distributed::combined_db;
use super::{write_report, Args, SEED, TPCDS, TPCH};
use crate::json::Json;
use crate::{print_table, time};
use std::sync::Arc;
use vcsql_bsp::EngineConfig;
use vcsql_relation::mem::human_bytes;
use vcsql_server::{Arbitration, FailureStats, QueryServer, ServerConfig, TenantSession};
use vcsql_tag::TagGraph;

/// Rounds of each tenant's mix in the `serve` bench (matches the server
/// crate's SF 0.01 integration test, so the printed table and the locked-in
/// assertions describe the same experiment).
const SERVE_ROUNDS: usize = 6;

/// Conflict-heavy tenant mixes: joins whose traffic the shape-based refined
/// placement serves poorly (`lineitem` torn between `part` and `orders`,
/// `store_sales` between `item` and `date_dim`), so the arbitrated
/// consensus has something real to win — and the two suites contest it.
const SERVE_TPCH_MIX: [&str; 2] = [
    "SELECT p.p_name FROM part p, lineitem l WHERE p.p_partkey = l.l_partkey",
    "SELECT o.o_orderkey FROM customer c, orders o, lineitem l \
     WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey",
];
const SERVE_TPCDS_MIX: [&str; 2] = [
    "SELECT i.i_itemkey FROM item i, store_sales ss WHERE i.i_itemkey = ss.ss_itemkey",
    "SELECT d.d_year FROM store_sales ss, date_dim d WHERE ss.ss_datekey = d.d_datekey",
];

fn serve_mix(tenant: usize) -> (&'static str, &'static [&'static str]) {
    if tenant.is_multiple_of(2) {
        (TPCH.name, &SERVE_TPCH_MIX)
    } else {
        (TPCDS.name, &SERVE_TPCDS_MIX)
    }
}

fn serve_config(arbitration: Arbitration) -> ServerConfig {
    ServerConfig {
        machines: 4,
        engine: EngineConfig::sequential(),
        arbitration,
        ..ServerConfig::default()
    }
}

/// One tenant's share of a serving run.
struct ServeTenant {
    suite: &'static str,
    queries: u64,
    /// Query traffic only — the migration charge lands on whichever tenant
    /// happened to trigger the walk, so fairness separates it back out.
    query_bytes: u64,
    /// Nearest-rank percentiles of the modelled per-query latencies.
    p50_ms: f64,
    p95_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    /// Per-tenant failure isolation counters (panics, timeouts, retries,
    /// recoveries) — all zero in a fault-free serve run, but part of the
    /// report shape so operators can alert on them.
    failures: FailureStats,
}

/// One arbitration policy's serving run, whole-cluster view.
struct ServeWorld {
    /// All bytes shipped (migration included — `NetStats` folds it in).
    total_bytes: u64,
    migration_bytes: u64,
    adaptations: u64,
    cache_hits: u64,
    cache_misses: u64,
    admitted: u64,
    peak_in_flight: usize,
    /// Server-wide failure counters, summed across tenants.
    failures: FailureStats,
    tenants: Vec<ServeTenant>,
}

/// Serve every tenant's mix for [`SERVE_ROUNDS`] rounds under one
/// arbitration policy. Latency is a closed loop with pacing: arrival `i`
/// lands at `i/qps` on the tenant's modelled clock, service time is the
/// modelled distributed runtime of the measured execution, and a query
/// queues behind the tenant's own previous one — so pushing `--qps` past
/// what the placement sustains shows up as p95 queueing delay.
fn serve_world(tag: &Arc<TagGraph>, a: &Args, arb: Arbitration) -> ServeWorld {
    let (tenants, qps) = (a.tenants, a.qps);
    let server = QueryServer::start(tag, serve_config(arb)).expect("server starts");
    let sessions: Vec<TenantSession> = (0..tenants).map(|_| server.open_session()).collect();
    let mut finish = vec![0.0f64; tenants];
    let mut issued = vec![0u64; tenants];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); tenants];
    for _ in 0..SERVE_ROUNDS {
        for session in &sessions {
            let t = session.id();
            for sql in serve_mix(t).1 {
                let ((_, net), secs) = time(|| session.run_sql(sql).expect("serve query runs"));
                let service = vcsql_dist::modelled_runtime(secs, &net, a.bandwidth)
                    .expect("bandwidth validated");
                let arrival = issued[t] as f64 / qps;
                let start = finish[t].max(arrival);
                finish[t] = start + service;
                latencies[t].push(finish[t] - arrival);
                issued[t] += 1;
            }
        }
    }
    let tenants = sessions
        .iter()
        .zip(latencies)
        .map(|(session, mut lat)| {
            lat.sort_by(|a, b| a.total_cmp(b));
            let net = session.stats().net;
            let cache = session.cache_stats();
            ServeTenant {
                suite: serve_mix(session.id()).0,
                queries: session.stats().queries,
                query_bytes: net.network_bytes - net.migration_bytes,
                p50_ms: percentile_ms(&lat, 0.50),
                p95_ms: percentile_ms(&lat, 0.95),
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                failures: session.failure_stats(),
            }
        })
        .collect();
    let stats = server.stats();
    let admission = server.admission_stats();
    ServeWorld {
        total_bytes: stats.net.network_bytes,
        migration_bytes: stats.net.migration_bytes,
        adaptations: stats.adaptations,
        cache_hits: server.plan_cache().hits(),
        cache_misses: server.plan_cache().misses(),
        admitted: admission.admitted,
        peak_in_flight: admission.peak_in_flight,
        failures: stats.failures,
        tenants,
    }
}

/// A mix's solo-refined baseline: one tenant, same rounds, static refined
/// placement all to itself.
fn serve_solo(tag: &Arc<TagGraph>, mix: &[&str]) -> u64 {
    let server = QueryServer::start(tag, serve_config(Arbitration::Static)).expect("server starts");
    let session = server.open_session();
    for _ in 0..SERVE_ROUNDS {
        for sql in mix {
            session.run_sql(sql).expect("solo query runs");
        }
    }
    session.stats().net.network_bytes
}

/// Nearest-rank percentile of an ascending-sorted latency list, in ms.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n - 1) as f64 * p).round() as usize] * 1000.0,
    }
}

/// The `vcsql-serve-report/v1` document, typed: what one `serve` run
/// measured, from which both the printed tables and the JSON are built.
struct ServeReport {
    sf: f64,
    tenants: usize,
    qps: f64,
    /// One run per arbitration policy, `merged` first.
    worlds: Vec<(&'static str, Arbitration, ServeWorld)>,
    /// Solo-refined baseline bytes of the TPC-H and the TPC-DS mix (tenants
    /// of one parity share a mix, so two baselines cover everyone).
    solo: [u64; 2],
}

impl ServeReport {
    fn merged(&self) -> &ServeWorld {
        &self.worlds[0].2
    }

    /// Tenant `t`'s solo baseline over its traffic in the merged world.
    fn fairness(&self, t: usize) -> f64 {
        self.solo[t % 2] as f64 / self.merged().tenants[t].query_bytes.max(1) as f64
    }

    /// Jain's fairness index over the per-tenant solo/shared ratios: 1.0
    /// means the consensus placement serves everyone equally well relative
    /// to what each could get alone.
    fn jain(&self) -> f64 {
        let ratios: Vec<f64> = (0..self.merged().tenants.len()).map(|t| self.fairness(t)).collect();
        let sum: f64 = ratios.iter().sum();
        let sum_sq: f64 = ratios.iter().map(|x| x * x).sum();
        sum * sum / (ratios.len() as f64 * sum_sq).max(1e-12)
    }

    /// The invariants of a fault-free serving run.
    fn check(&self) -> Result<(), String> {
        if self.merged().tenants.len() != self.tenants {
            return Err(format!("merged world reports {} tenants", self.merged().tenants.len()));
        }
        for (name, arb, w) in &self.worlds {
            if *arb == Arbitration::Static && w.migration_bytes != 0 {
                return Err(format!("static world migrated {} bytes", w.migration_bytes));
            }
            if w.failures != FailureStats::default() {
                return Err(format!("fault-free {name} world reports failures: {:?}", w.failures));
            }
        }
        for (t, r) in self.merged().tenants.iter().enumerate() {
            if r.p50_ms > r.p95_ms {
                return Err(format!("tenant {t}: p50 {} ms > p95 {} ms", r.p50_ms, r.p95_ms));
            }
        }
        // At most 1 by Cauchy–Schwarz, up to rounding when all ratios agree.
        let jain = self.jain();
        if !(jain > 0.0 && jain <= 1.0 + 1e-9) {
            return Err(format!("Jain index {jain} outside (0, 1]"));
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let int = |n: u64| Json::Int(n);
        let failures = |f: &FailureStats| {
            Json::Object(vec![
                ("panics", int(f.panics)),
                ("timeouts", int(f.timeouts)),
                ("retries", int(f.retries)),
                ("recoveries", int(f.recoveries)),
            ])
        };
        let world = |w: &ServeWorld| {
            Json::Object(vec![
                ("total_bytes", int(w.total_bytes)),
                ("migration_bytes", int(w.migration_bytes)),
                ("adaptations", int(w.adaptations)),
                ("cache_hits", int(w.cache_hits)),
                ("cache_misses", int(w.cache_misses)),
                ("admitted", int(w.admitted)),
                ("peak_in_flight", int(w.peak_in_flight as u64)),
                ("failures", failures(&w.failures)),
            ])
        };
        let tenant = |(t, r): (usize, &ServeTenant)| {
            Json::Object(vec![
                ("tenant", int(t as u64)),
                ("suite", Json::Str(r.suite.to_string())),
                ("queries", int(r.queries)),
                ("query_bytes", int(r.query_bytes)),
                ("solo_bytes", int(self.solo[t % 2])),
                ("fairness", Json::rounded(self.fairness(t), 4)),
                ("p50_ms", Json::rounded(r.p50_ms, 4)),
                ("p95_ms", Json::rounded(r.p95_ms, 4)),
                ("cache_hits", int(r.cache_hits)),
                ("cache_misses", int(r.cache_misses)),
                ("failures", failures(&r.failures)),
            ])
        };
        Json::Object(vec![
            ("schema", Json::Str("vcsql-serve-report/v1".into())),
            ("sf", Json::Float(self.sf)),
            ("seed", int(SEED)),
            ("tenants", int(self.tenants as u64)),
            ("qps", Json::Float(self.qps)),
            ("rounds", int(SERVE_ROUNDS as u64)),
            ("worlds", Json::Object(self.worlds.iter().map(|(n, _, w)| (*n, world(w))).collect())),
            (
                "solo_baselines",
                Json::Object(vec![(TPCH.name, int(self.solo[0])), (TPCDS.name, int(self.solo[1]))]),
            ),
            (
                "merged_tenants",
                Json::Array(self.merged().tenants.iter().enumerate().map(tenant).collect()),
            ),
            ("fairness_jain", Json::rounded(self.jain(), 4)),
        ])
    }
}

/// E16 — the multi-tenant serving bench: `--tenants` sessions over one
/// shared TAG, even tenants on TPC-H joins and odd on TPC-DS, replayed under
/// all three arbitration policies. Reports whole-cluster bytes per policy,
/// then drills into the merged world: per-tenant p50/p95 modelled latency,
/// plan-cache hit rates, and fairness against each mix's solo-refined
/// baseline (plus the Jain index over those ratios).
pub(super) fn run(a: &Args) {
    let sf = a.sf();
    println!(
        "\n## E16 — Multi-tenant serving @ SF {sf}: {} tenants, closed loop at \
         {} QPS/tenant, {SERVE_ROUNDS} rounds\n",
        a.tenants, a.qps
    );
    let tag = Arc::new(TagGraph::build(&combined_db(sf)));
    let policies = [
        ("merged", Arbitration::Merged),
        ("unilateral", Arbitration::Unilateral),
        ("static", Arbitration::Static),
    ];
    let report = ServeReport {
        sf,
        tenants: a.tenants,
        qps: a.qps,
        worlds: policies.map(|(name, arb)| (name, arb, serve_world(&tag, a, arb))).into(),
        solo: [serve_solo(&tag, &SERVE_TPCH_MIX), serve_solo(&tag, &SERVE_TPCDS_MIX)],
    };

    let hit_rate = |hits: u64, misses: u64| hits as f64 / ((hits + misses).max(1)) as f64;
    let world_rows: Vec<Vec<String>> = report
        .worlds
        .iter()
        .map(|(name, _, w)| {
            vec![
                name.to_string(),
                human_bytes(w.total_bytes as usize),
                human_bytes(w.migration_bytes as usize),
                w.adaptations.to_string(),
                format!("{:.0}%", 100.0 * hit_rate(w.cache_hits, w.cache_misses)),
                format!(
                    "{}/{}/{}/{}",
                    w.failures.panics,
                    w.failures.timeouts,
                    w.failures.retries,
                    w.failures.recoveries
                ),
            ]
        })
        .collect();
    println!("### Arbitration policies — whole-cluster traffic\n");
    print_table(
        &[
            "policy",
            "total net (incl. migration)",
            "migration",
            "adaptations",
            "cache hits",
            "failures p/t/r/r",
        ],
        &world_rows,
    );

    let merged = report.merged();
    let tenant_rows: Vec<Vec<String>> = merged
        .tenants
        .iter()
        .enumerate()
        .map(|(t, r)| {
            vec![
                t.to_string(),
                r.suite.to_string(),
                r.queries.to_string(),
                human_bytes(r.query_bytes as usize),
                human_bytes(report.solo[t % 2] as usize),
                format!("{:.2}", report.fairness(t)),
                format!("{:.3}", r.p50_ms),
                format!("{:.3}", r.p95_ms),
                format!("{}/{}", r.cache_hits, r.cache_misses),
            ]
        })
        .collect();
    println!("### Merged world — per-tenant view\n");
    print_table(
        &[
            "tenant",
            "suite",
            "queries",
            "query bytes",
            "solo baseline",
            "solo/shared",
            "p50 ms",
            "p95 ms",
            "cache h/m",
        ],
        &tenant_rows,
    );
    println!(
        "fairness: Jain index {:.3} over solo/shared ratios | admission: {} granted, \
         peak {} in flight\n",
        report.jain(),
        merged.admitted,
        merged.peak_in_flight,
    );

    if let Some(path) = &a.json {
        write_report(path, report.check(), &report.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-tenant report every invariant holds for.
    fn report() -> ServeReport {
        let world = || ServeWorld {
            total_bytes: 100,
            migration_bytes: 0,
            adaptations: 0,
            cache_hits: 2,
            cache_misses: 2,
            admitted: 4,
            peak_in_flight: 1,
            failures: FailureStats::default(),
            tenants: (0..2)
                .map(|t| ServeTenant {
                    suite: serve_mix(t).0,
                    queries: 2,
                    query_bytes: 40 + t as u64,
                    p50_ms: 1.0,
                    p95_ms: 2.0,
                    cache_hits: 1,
                    cache_misses: 1,
                    failures: FailureStats::default(),
                })
                .collect(),
        };
        let worlds = vec![
            ("merged", Arbitration::Merged, world()),
            ("unilateral", Arbitration::Unilateral, world()),
            ("static", Arbitration::Static, world()),
        ];
        ServeReport { sf: 0.01, tenants: 2, qps: 8.0, worlds, solo: [50, 45] }
    }

    /// `violate` breaks one invariant of the valid report; `check` must say so.
    fn rejects(violate: fn(&mut ServeReport), expect: &str) {
        let mut r = report();
        violate(&mut r);
        let err = r.check().expect_err(expect);
        assert!(err.contains(expect), "`{err}` does not mention `{expect}`");
    }

    #[test]
    fn check_rejects_each_violated_invariant() {
        assert_eq!(report().check(), Ok(()));
        rejects(|r| r.worlds[2].2.migration_bytes = 7, "static world migrated 7 bytes");
        rejects(|r| r.worlds[0].2.tenants[1].p50_ms = 2.5, "tenant 1: p50 2.5 ms > p95 2 ms");
        rejects(|r| r.solo = [0, 0], "Jain index 0 outside (0, 1]");
        rejects(|r| r.worlds[1].2.failures.retries = 1, "fault-free unilateral world reports");
        rejects(|r| r.tenants = 3, "merged world reports 2 tenants");
    }
}
