//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Usage: `cargo run --release -p vcsql-bench --bin repro -- <mode>
//!         [--sf a,b,c] [--partitioning hash,colocate,refined,workload]
//!         [--profile-from tpch|tpcds] [--bandwidth bytes_per_sec]
//!         [--sessions n] [--restart-at k] [--migration-budget n]
//!         [--tenants n] [--qps q] [--threads n] [--json path]`
//!
//! Modes (see DESIGN.md experiment index):
//!   loading         Tables 1-2: data loading times
//!   sizes           Fig 14 / Table 15: loaded data sizes
//!   tpch            Fig 13(a) + Tables 8-10/14: TPC-H runtimes
//!   tpcds           Fig 13(b) + Tables 11-13/14: TPC-DS runtimes
//!   tpch-classes    Tables 3-4: LA/correlated speedups, GA/scalar runtimes
//!   tpcds-matrix    Table 5: outperform/competitive/worse counts
//!   tpcds-classes   Table 6: per-class speedups
//!   agg-breakdown   Fig 15: runtimes grouped by aggregation class
//!   memory          Table 7: working-set bytes per engine
//!   distributed     Fig 16 + Tables 16-17: runtime + network traffic;
//!                   with --sessions n: the online-repartitioning drift
//!                   replay (TPC-H profile, then TPC-DS queries arrive);
//!                   --restart-at k additionally restarts the session
//!                   mid-replay, comparing a warm start (saved profile
//!                   reloaded) against a cold start from scratch
//!   cost-model      §4.1.2 ablation: two-way join messages vs bounds
//!   triangle-theta  §6.1.2 ablation: heavy/light θ sweep
//!   reshuffle       §5.2.2 ablation: reshuffle bytes vs join-chain length
//!   bench           perf trajectory: row baseline vs TAG, single- vs
//!                   multi-thread, per query; --json writes machine-readable
//!                   timings (the committed BENCH_*.json files)
//!   serve           multi-tenant serving bench: --tenants concurrent
//!                   sessions over one shared TAG, closed loop at --qps per
//!                   tenant, arbitrated vs unilateral vs static
//!                   repartitioning, per-tenant p50/p95 modelled latency,
//!                   plan-cache hit rate, migration bytes and fairness vs
//!                   solo-refined baselines; --json writes the
//!                   vcsql-serve-report/v1 document
//!   faults          fault-tolerance sweep: inject the --kill machine crash
//!                   (plus two --seed-derived transient link drops) into
//!                   every TPC-H/TPC-DS query at each checkpoint interval in
//!                   {0,1,2,4,8} ∪ {--checkpoint-every}, assert every result
//!                   bag identical to fault-free, and tabulate the
//!                   checkpoint-overhead vs recovery-cost tradeoff; --json
//!                   writes the vcsql-fault-report/v1 document
//!   all             everything above (except bench, serve and faults)

use std::collections::BTreeMap;
use std::sync::Arc;
use vcsql_bench::{markdown_table, ms, prepare, run_system_with, speedup, time, Loaded, System};
use vcsql_bsp::{EngineConfig, FaultInjector, FaultPlan, PartitionStrategy, TrafficProfile};
use vcsql_core::cyclic;
use vcsql_core::twoway::{two_way_join, TwoWaySpec};
use vcsql_core::TagJoinExecutor;
use vcsql_dist::{tag_distributed, SparkModel};
use vcsql_query::analyze::Analyzed;
use vcsql_query::AggClass;
use vcsql_relation::mem::human_bytes;
use vcsql_relation::{Database, RelError};
use vcsql_server::{Arbitration, FailureStats, QueryServer, ServerConfig, TenantSession};
use vcsql_session::Cluster;
use vcsql_tag::TagGraph;
use vcsql_workload::{synthetic, tpcds, tpch, BenchQuery};

const USAGE: &str = "\
usage: repro <mode> [--sf a,b,c] [--partitioning hash,colocate,refined,workload]
             [--profile-from tpch|tpcds] [--bandwidth bytes_per_sec]
             [--sessions n] [--restart-at k] [--migration-budget n]
             [--tenants n] [--qps q] [--threads n] [--json path]
             [--checkpoint-every k] [--kill m@r] [--seed n]

modes:
  loading sizes tpch tpcds tpch-classes tpcds-matrix tpcds-classes
  agg-breakdown memory distributed cost-model triangle-theta reshuffle
  bench serve faults all

flags:
  --sf a,b,c             comma-separated positive scale factors
                         (default 0.01,0.02,0.05; single-SF modes use the last)
  --partitioning s,...   TAG placement strategies for `distributed` (any of
                         hash, colocate, refined, workload; default
                         hash,colocate,refined). `workload` first calibrates
                         per-edge-label traffic with a hash-placed run of the
                         profile workload, then re-partitions for it
  --profile-from m       workload whose observed traffic calibrates the
                         `workload` strategy: tpch or tpcds (default: the
                         workload being measured; crossing them shows how
                         skew-sensitive the placement is)
  --bandwidth n          modelled network bandwidth in bytes/sec for the
                         distributed (and `serve` latency) runtime model
                         (default 1e9)
  --sessions n           `distributed` only: instead of the per-strategy
                         table, replay n session queries through one
                         long-lived Session — a shuffled TPC-H phase, then a
                         shuffled TPC-DS phase over a combined database —
                         with the placement calibrated on TPC-H, and report
                         bytes-per-query before/after the session's online
                         repartitioning (n must be positive; migration
                         bytes are itemized per query)
  --restart-at k         `distributed --sessions` only: restart the session
                         before replay query k (so k queries run first;
                         0 < k < n), replacing it with a warm successor that
                         reloads its saved profile text, and racing a cold
                         twin that recalibrates from scratch over the
                         remaining queries
  --migration-budget n   most vertices the session migrates per query while
                         adapting (default 2048; must be positive; requires
                         --sessions)
  --tenants n            `serve` only: concurrent tenant sessions over the
                         shared TAG (default 8); even tenants run TPC-H
                         joins, odd tenants TPC-DS
  --qps q                `serve` only: per-tenant offered query rate of the
                         closed-loop pacing model (default 8; per-query
                         latency = queueing behind the tenant's previous
                         query + modelled service time at --bandwidth)
  --threads n            engine worker threads for the TAG side of the
                         per-query runtime modes (tpch, tpcds, tpch-classes,
                         tpcds-matrix, tpcds-classes, agg-breakdown, bench,
                         all); for `bench` this is the multi-thread arm
                         (default: the machine's parallelism, capped at 16)
  --json path            `bench`/`serve`/`faults`: also write the
                         machine-readable report (trajectory timings, the
                         serve report or the fault report) to `path`
  --checkpoint-every k   `faults` only: the checkpoint interval under test,
                         in supersteps (default 2; must be positive — the
                         sweep adds interval 0, checkpointing disabled, as
                         its own arm)
  --kill m@r             `faults` only: crash machine m just before
                         superstep r of every query (default 1@3)
  --seed n               `faults` only: seed for the two extra transient
                         link-drop faults of each plan (default 42)";

/// Print an argument error plus the usage text and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_sfs(raw: &str) -> Vec<f64> {
    let sfs: Vec<f64> = raw
        .split(',')
        .map(|x| match x.parse::<f64>() {
            Ok(sf) if sf.is_finite() && sf > 0.0 => sf,
            _ => usage_error(&format!("bad --sf value `{x}` (want a positive number)")),
        })
        .collect();
    if sfs.is_empty() {
        usage_error("--sf needs at least one value");
    }
    sfs
}

fn parse_strategies(raw: &str) -> Vec<PartitionStrategy> {
    raw.split(',')
        .map(|s| {
            PartitionStrategy::parse(s).unwrap_or_else(|| {
                usage_error(&format!(
                    "bad --partitioning value `{s}` (want hash, colocate, refined or workload)"
                ))
            })
        })
        .collect()
}

fn parse_profile_from(raw: &str) -> &str {
    match raw {
        "tpch" | "tpcds" => raw,
        _ => usage_error(&format!("bad --profile-from value `{raw}` (want tpch or tpcds)")),
    }
}

fn parse_bandwidth(raw: &str) -> f64 {
    match raw.parse::<f64>() {
        Ok(b) if b.is_finite() && b > 0.0 => b,
        _ => usage_error(&format!(
            "bad --bandwidth value `{raw}` (want a positive number of bytes/sec)"
        )),
    }
}

/// Positive-integer flag values (`--sessions`, `--migration-budget`): zero,
/// negative and non-numeric inputs are usage errors, never panics.
fn parse_positive(raw: &str, flag: &str) -> usize {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => usage_error(&format!("bad {flag} value `{raw}` (want a positive integer)")),
    }
}

fn parse_qps(raw: &str) -> f64 {
    match raw.parse::<f64>() {
        Ok(q) if q.is_finite() && q > 0.0 => q,
        _ => usage_error(&format!("bad --qps value `{raw}` (want a positive query rate)")),
    }
}

/// `--kill m@r`: the machine to crash and the superstep it dies before.
/// Anything that is not two unsigned integers joined by `@` is a usage
/// error, never a panic.
fn parse_kill(raw: &str) -> (u32, u64) {
    if let Some((m, r)) = raw.split_once('@') {
        if let (Ok(machine), Ok(superstep)) = (m.parse::<u32>(), r.parse::<u64>()) {
            return (machine, superstep);
        }
    }
    usage_error(&format!("bad --kill value `{raw}` (want machine@superstep, e.g. 2@3)"))
}

fn parse_seed(raw: &str) -> u64 {
    raw.parse::<u64>().unwrap_or_else(|_| {
        usage_error(&format!("bad --seed value `{raw}` (want an unsigned integer)"))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<String> = None;
    let mut sfs = vec![0.01, 0.02, 0.05];
    let mut strategies = PartitionStrategy::ALL.to_vec();
    let mut profile_from: Option<String> = None;
    let mut bandwidth = 1e9;
    let mut bandwidth_explicit = false;
    let mut sessions: Option<usize> = None;
    let mut restart_at: Option<usize> = None;
    let mut migration_budget: Option<usize> = None;
    let mut tenants: Option<usize> = None;
    let mut qps: Option<f64> = None;
    let mut threads: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut kill: Option<(u32, u64)> = None;
    let mut seed: Option<u64> = None;
    let mut distributed_flag: Option<&'static str> = None;
    let mut partitioning_explicit = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--sf" => {
                let raw = args.get(i + 1).unwrap_or_else(|| usage_error("--sf needs a value"));
                sfs = parse_sfs(raw);
                i += 2;
            }
            "--partitioning" => {
                let raw =
                    args.get(i + 1).unwrap_or_else(|| usage_error("--partitioning needs a value"));
                strategies = parse_strategies(raw);
                distributed_flag = Some("--partitioning");
                partitioning_explicit = true;
                i += 2;
            }
            "--profile-from" => {
                let raw =
                    args.get(i + 1).unwrap_or_else(|| usage_error("--profile-from needs a value"));
                profile_from = Some(parse_profile_from(raw).to_string());
                distributed_flag = Some("--profile-from");
                i += 2;
            }
            "--bandwidth" => {
                let raw =
                    args.get(i + 1).unwrap_or_else(|| usage_error("--bandwidth needs a value"));
                bandwidth = parse_bandwidth(raw);
                bandwidth_explicit = true;
                i += 2;
            }
            "--sessions" => {
                let raw =
                    args.get(i + 1).unwrap_or_else(|| usage_error("--sessions needs a value"));
                sessions = Some(parse_positive(raw, "--sessions"));
                i += 2;
            }
            "--restart-at" => {
                let raw =
                    args.get(i + 1).unwrap_or_else(|| usage_error("--restart-at needs a value"));
                restart_at = Some(parse_positive(raw, "--restart-at"));
                i += 2;
            }
            "--tenants" => {
                let raw = args.get(i + 1).unwrap_or_else(|| usage_error("--tenants needs a value"));
                tenants = Some(parse_positive(raw, "--tenants"));
                i += 2;
            }
            "--qps" => {
                let raw = args.get(i + 1).unwrap_or_else(|| usage_error("--qps needs a value"));
                qps = Some(parse_qps(raw));
                i += 2;
            }
            "--migration-budget" => {
                let raw = args
                    .get(i + 1)
                    .unwrap_or_else(|| usage_error("--migration-budget needs a value"));
                migration_budget = Some(parse_positive(raw, "--migration-budget"));
                i += 2;
            }
            "--threads" => {
                let raw = args.get(i + 1).unwrap_or_else(|| usage_error("--threads needs a value"));
                threads = Some(parse_positive(raw, "--threads"));
                i += 2;
            }
            "--json" => {
                let raw = args.get(i + 1).unwrap_or_else(|| usage_error("--json needs a path"));
                json_path = Some(raw.clone());
                i += 2;
            }
            "--checkpoint-every" => {
                let raw = args
                    .get(i + 1)
                    .unwrap_or_else(|| usage_error("--checkpoint-every needs a value"));
                checkpoint_every = Some(parse_positive(raw, "--checkpoint-every") as u64);
                i += 2;
            }
            "--kill" => {
                let raw = args.get(i + 1).unwrap_or_else(|| usage_error("--kill needs a value"));
                kill = Some(parse_kill(raw));
                i += 2;
            }
            "--seed" => {
                let raw = args.get(i + 1).unwrap_or_else(|| usage_error("--seed needs a value"));
                seed = Some(parse_seed(raw));
                i += 2;
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag `{flag}`")),
            m => {
                if mode.is_some() {
                    usage_error(&format!("unexpected extra argument `{m}`"));
                }
                mode = Some(m.to_string());
                i += 1;
            }
        }
    }
    let mode = mode.unwrap_or_else(|| "all".to_string());
    let last_sf = sfs[sfs.len() - 1];
    // The distributed-simulation flags would be silently ignored by every
    // other mode — reject the combination instead of misleading the user.
    if let Some(flag) = distributed_flag {
        if !matches!(mode.as_str(), "distributed" | "all") {
            usage_error(&format!("{flag} only applies to the `distributed` (or `all`) mode"));
        }
    }
    // `serve` models per-query latency at the same bandwidth, so it shares
    // the flag with the distributed modes.
    if bandwidth_explicit && !matches!(mode.as_str(), "distributed" | "serve" | "all") {
        usage_error("--bandwidth only applies to the `distributed`, `serve` (or `all`) modes");
    }
    if profile_from.is_some()
        && !strategies.iter().any(|s| matches!(s, PartitionStrategy::Workload(_)))
    {
        usage_error("--profile-from requires --partitioning to include `workload`");
    }
    // The drift replay is a dedicated experiment: it always calibrates its
    // placement on TPC-H (the pre-drift workload), so flags steering the
    // per-strategy table make no sense with it.
    if sessions.is_some() {
        if mode != "distributed" {
            usage_error("--sessions only applies to the `distributed` mode");
        }
        if profile_from.is_some() {
            usage_error("--sessions replays a fixed TPC-H -> TPC-DS drift; drop --profile-from");
        }
        if partitioning_explicit
            && !strategies.iter().any(|s| matches!(s, PartitionStrategy::Workload(_)))
        {
            usage_error(
                "--sessions replay uses the `workload` strategy; include it or drop --partitioning",
            );
        }
    }
    if migration_budget.is_some() && sessions.is_none() {
        usage_error("--migration-budget requires --sessions");
    }
    match (restart_at, sessions) {
        (Some(_), None) => usage_error("--restart-at requires --sessions"),
        (Some(k), Some(n)) if k >= n => {
            usage_error("--restart-at must be less than --sessions (queries must remain to replay)")
        }
        _ => {}
    }
    if tenants.is_some() && mode != "serve" {
        usage_error("--tenants only applies to the `serve` mode");
    }
    if qps.is_some() && mode != "serve" {
        usage_error("--qps only applies to the `serve` mode");
    }
    // --threads steers the local TAG engine; reject it for modes that never
    // run one (same no-silent-ignore policy as the distributed flags).
    const THREADED_MODES: [&str; 8] = [
        "tpch",
        "tpcds",
        "tpch-classes",
        "tpcds-matrix",
        "tpcds-classes",
        "agg-breakdown",
        "bench",
        "all",
    ];
    if threads.is_some() && !THREADED_MODES.contains(&mode.as_str()) {
        usage_error(&format!(
            "--threads only applies to the per-query runtime modes ({})",
            THREADED_MODES.join(", ")
        ));
    }
    if json_path.is_some() && !matches!(mode.as_str(), "bench" | "serve" | "faults") {
        usage_error("--json only applies to the `bench`, `serve` and `faults` modes");
    }
    // The fault-injection flags steer only the `faults` sweep; anywhere else
    // they would be silently ignored.
    for (flag, given) in [
        ("--checkpoint-every", checkpoint_every.is_some()),
        ("--kill", kill.is_some()),
        ("--seed", seed.is_some()),
    ] {
        if given && mode != "faults" {
            usage_error(&format!("{flag} only applies to the `faults` mode"));
        }
    }
    let engine = threads.map(EngineConfig::with_threads).unwrap_or_default();

    match mode.as_str() {
        "loading" => loading(&sfs),
        "sizes" => sizes(&sfs),
        "tpch" => runtimes("TPC-H", &sfs, tpch::generate, &tpch::queries(), engine),
        "tpcds" => runtimes("TPC-DS", &sfs, tpcds::generate, &tpcds::queries(), engine),
        "tpch-classes" => tpch_classes(last_sf, engine),
        "tpcds-matrix" => tpcds_matrix(last_sf, engine),
        "tpcds-classes" => tpcds_classes(last_sf, engine),
        "agg-breakdown" => agg_breakdown(last_sf, engine),
        "memory" => memory(last_sf),
        "distributed" => match sessions {
            Some(n) => {
                sessions_replay(last_sf, n, migration_budget.unwrap_or(2048), bandwidth, restart_at)
            }
            None => distributed(last_sf, &strategies, profile_from.as_deref(), bandwidth),
        },
        "cost-model" => cost_model(),
        "triangle-theta" => triangle_theta(),
        "reshuffle" => reshuffle(last_sf),
        "bench" => bench_trajectory(last_sf, threads, json_path.as_deref()),
        "serve" => serve_bench(
            last_sf,
            tenants.unwrap_or(8),
            qps.unwrap_or(8.0),
            bandwidth,
            json_path.as_deref(),
        ),
        "faults" => faults_bench(
            last_sf,
            checkpoint_every.unwrap_or(2),
            kill.unwrap_or((1, 3)),
            seed.unwrap_or(SEED),
            json_path.as_deref(),
        ),
        "all" => {
            loading(&sfs);
            sizes(&sfs);
            runtimes("TPC-H", &sfs, tpch::generate, &tpch::queries(), engine);
            runtimes("TPC-DS", &sfs, tpcds::generate, &tpcds::queries(), engine);
            tpch_classes(last_sf, engine);
            tpcds_matrix(last_sf, engine);
            tpcds_classes(last_sf, engine);
            agg_breakdown(last_sf, engine);
            memory(last_sf);
            distributed(last_sf, &strategies, profile_from.as_deref(), bandwidth);
            cost_model();
            triangle_theta();
            reshuffle(last_sf);
        }
        other => usage_error(&format!("unknown mode `{other}`")),
    }
}

const SEED: u64 = 42;

/// E1 — Tables 1-2: loading times.
fn loading(sfs: &[f64]) {
    println!("\n## E1 — Loading times (paper Tables 1-2), seconds\n");
    for (name, genf) in
        [("TPC-H", tpch::generate as fn(f64, u64) -> Database), ("TPC-DS", tpcds::generate)]
    {
        let mut rows = Vec::new();
        for &sf in sfs {
            let db = genf(sf, SEED);
            let (_, gen_s) = time(|| genf(sf, SEED));
            let (tag, tag_s) = time(|| TagGraph::build(&db));
            let (_, row_s) = time(|| {
                // Row store load: copy tuples + build PK/FK indexes (the TPC
                // protocol's indexes).
                let mut total = 0usize;
                for rel in db.relations() {
                    let copy = rel.clone();
                    for idx in vcsql_baseline::index::build_pk_fk_indexes(&copy) {
                        total += idx.distinct_keys();
                    }
                }
                total
            });
            let (_, col_s) = time(|| vcsql_baseline::ColumnarDatabase::from_database(&db));
            let _ = tag;
            rows.push(vec![
                format!("{sf}"),
                format!("{}", db.total_tuples()),
                format!("{gen_s:.3}"),
                format!("{row_s:.3}"),
                format!("{col_s:.3}"),
                format!("{tag_s:.3}"),
            ]);
        }
        println!("### {name}\n");
        println!(
            "{}",
            markdown_table(
                &["SF", "tuples", "generate", "row+index load", "columnar load", "TAG load"]
                    .map(String::from),
                &rows
            )
        );
    }
}

/// E2 — Fig 14 / Table 15: loaded sizes.
fn sizes(sfs: &[f64]) {
    println!("\n## E2 — Loaded data sizes (paper Fig 14 / Table 15)\n");
    for (name, genf) in
        [("TPC-H", tpch::generate as fn(f64, u64) -> Database), ("TPC-DS", tpcds::generate)]
    {
        let mut rows = Vec::new();
        for &sf in sfs {
            let db = genf(sf, SEED);
            let loaded = Loaded::new(genf(sf, SEED));
            let index_bytes: usize = db
                .relations()
                .flat_map(vcsql_baseline::index::build_pk_fk_indexes)
                .map(|i| i.deep_size())
                .sum();
            let stats = loaded.tag.stats();
            rows.push(vec![
                format!("{sf}"),
                human_bytes(db.deep_size() + index_bytes),
                human_bytes(loaded.columnar.deep_size()),
                human_bytes(stats.bytes),
                format!("{}", stats.tuple_vertices),
                format!("{}", stats.attr_vertices),
                format!("{}", stats.edges / 2),
            ]);
        }
        println!("### {name}\n");
        println!(
            "{}",
            markdown_table(
                &[
                    "SF",
                    "row store + indexes",
                    "columnar (dict)",
                    "TAG graph",
                    "tuple-v",
                    "attr-v",
                    "edges"
                ]
                .map(String::from),
                &rows
            )
        );
    }
}

/// E3/E4/E5/E6/E14 — per-query and aggregate runtimes across systems.
fn runtimes(
    name: &str,
    sfs: &[f64],
    genf: fn(f64, u64) -> Database,
    queries: &[BenchQuery],
    engine: EngineConfig,
) {
    println!("\n## {name} runtimes (paper Fig 13, Tables 8-14), ms\n");
    for &sf in sfs {
        let loaded = Loaded::new(genf(sf, SEED));
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        let mut rows = Vec::new();
        for q in queries {
            let a = prepare(&loaded, q.sql).expect("workload query analyzes");
            let mut row = vec![q.id.to_string()];
            for sys in System::ALL {
                let (_, secs) = run_system_with(&loaded, sys, &a, engine).expect("query runs");
                *totals.entry(sys.name()).or_insert(0.0) += secs;
                row.push(ms(secs));
            }
            rows.push(row);
        }
        rows.push(
            std::iter::once(format!("**total (SF {sf})**"))
                .chain(System::ALL.iter().map(|s| format!("**{}**", ms(totals[s.name()]))))
                .collect(),
        );
        let mut headers = vec![format!("query @ SF {sf}")];
        headers.extend(System::ALL.iter().map(|s| s.name().to_string()));
        println!("{}", markdown_table(&headers, &rows));
    }
}

/// E7/E8 — Tables 3-4: TPC-H class drill-down.
fn tpch_classes(sf: f64, engine: EngineConfig) {
    println!("\n## E7/E8 — TPC-H drill-down (paper Tables 3-4)\n");
    let loaded = Loaded::new(tpch::generate(sf, SEED));
    let mut la_rows = Vec::new();
    let mut ga_rows = Vec::new();
    for q in tpch::queries() {
        let a = prepare(&loaded, q.sql).expect("analyzes");
        let mut secs = BTreeMap::new();
        for sys in System::ALL {
            let (_, s) = run_system_with(&loaded, sys, &a, engine).expect("runs");
            secs.insert(sys.name(), s);
        }
        let tag = secs["tag_join"];
        if q.class == AggClass::Local || q.correlated {
            la_rows.push(vec![
                q.id.to_string(),
                if q.correlated { "corr".into() } else { "LA".into() },
                ms(tag),
                speedup(tag, secs["row_hash"]),
                speedup(tag, secs["row_merge"]),
                speedup(tag, secs["columnar_im"]),
            ]);
        } else {
            ga_rows.push(vec![
                q.id.to_string(),
                format!("{:?}", q.class),
                ms(tag),
                ms(secs["row_hash"]),
                ms(secs["row_merge"]),
                ms(secs["columnar_im"]),
            ]);
        }
    }
    println!("### Table 3 shape: LA / correlated queries — TAG-join time and speedups\n");
    println!(
        "{}",
        markdown_table(
            &["query", "class", "tag_join ms", "vs row_hash", "vs row_merge", "vs columnar_im"]
                .map(String::from),
            &la_rows
        )
    );
    println!("### Table 4 shape: GA / scalar queries — absolute times (ms)\n");
    println!(
        "{}",
        markdown_table(
            &["query", "class", "tag_join", "row_hash", "row_merge", "columnar_im"]
                .map(String::from),
            &ga_rows
        )
    );
}

/// E9 — Table 5: win/competitive/lose counts.
fn tpcds_matrix(sf: f64, engine: EngineConfig) {
    println!("\n## E9 — TPC-DS outcome matrix (paper Table 5)\n");
    let loaded = Loaded::new(tpcds::generate(sf, SEED));
    let queries = tpcds::queries();
    let mut counts: BTreeMap<&str, (u32, u32, u32)> = BTreeMap::new();
    for q in &queries {
        let a = prepare(&loaded, q.sql).expect("analyzes");
        let (_, tag) = run_system_with(&loaded, System::TagJoin, &a, engine).expect("runs");
        for sys in [System::RowHash, System::RowSortMerge, System::Columnar] {
            let (_, other) = run_system_with(&loaded, sys, &a, engine).expect("runs");
            let e = counts.entry(sys.name()).or_insert((0, 0, 0));
            if other > tag * 1.2 {
                e.0 += 1; // outperforms
            } else if tag > other * 1.2 {
                e.2 += 1; // worse
            } else {
                e.1 += 1; // competitive
            }
        }
    }
    let rows: Vec<Vec<String>> = counts
        .iter()
        .map(|(s, (w, c, l))| vec![s.to_string(), w.to_string(), c.to_string(), l.to_string()])
        .collect();
    println!("total queries: {}\n", queries.len());
    println!(
        "{}",
        markdown_table(
            &["vs system", "outperforms", "competitive", "worse"].map(String::from),
            &rows
        )
    );
}

/// E10 — Table 6: per-class TPC-DS speedups.
fn tpcds_classes(sf: f64, engine: EngineConfig) {
    println!("\n## E10 — TPC-DS per-class speedups (paper Table 6)\n");
    let loaded = Loaded::new(tpcds::generate(sf, SEED));
    let mut rows = Vec::new();
    for q in tpcds::queries() {
        let a = prepare(&loaded, q.sql).expect("analyzes");
        let mut secs = BTreeMap::new();
        for sys in System::ALL {
            let (_, s) = run_system_with(&loaded, sys, &a, engine).expect("runs");
            secs.insert(sys.name(), s);
        }
        let tag = secs["tag_join"];
        rows.push(vec![
            q.id.to_string(),
            format!("{:?}", q.class),
            ms(tag),
            speedup(tag, secs["row_hash"]),
            speedup(tag, secs["row_merge"]),
            speedup(tag, secs["columnar_im"]),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["query", "class", "tag_join ms", "vs row_hash", "vs row_merge", "vs columnar_im"]
                .map(String::from),
            &rows
        )
    );
}

/// E11 — Fig 15: aggregate runtime by aggregation class.
fn agg_breakdown(sf: f64, engine: EngineConfig) {
    println!("\n## E11 — TPC-DS aggregate runtime by aggregation class (paper Fig 15), ms\n");
    let loaded = Loaded::new(tpcds::generate(sf, SEED));
    let mut per_class: BTreeMap<String, BTreeMap<&str, f64>> = BTreeMap::new();
    for q in tpcds::queries() {
        let a = prepare(&loaded, q.sql).expect("analyzes");
        for sys in System::ALL {
            let (_, s) = run_system_with(&loaded, sys, &a, engine).expect("runs");
            *per_class
                .entry(format!("{:?}", q.class))
                .or_default()
                .entry(sys.name())
                .or_insert(0.0) += s;
        }
    }
    let rows: Vec<Vec<String>> = per_class
        .iter()
        .map(|(class, m)| {
            std::iter::once(class.clone())
                .chain(System::ALL.iter().map(|s| ms(m[s.name()])))
                .collect()
        })
        .collect();
    let mut headers = vec!["class".to_string()];
    headers.extend(System::ALL.iter().map(|s| s.name().to_string()));
    println!("{}", markdown_table(&headers, &rows));
}

/// E12 — Table 7: working-set bytes.
fn memory(sf: f64) {
    println!("\n## E12 — Working-set bytes during execution (paper Table 7)\n");
    for (name, genf) in
        [("TPC-H", tpch::generate as fn(f64, u64) -> Database), ("TPC-DS", tpcds::generate)]
    {
        let db = genf(sf, SEED);
        let loaded = Loaded::new(genf(sf, SEED));
        let index_bytes: usize = db
            .relations()
            .flat_map(vcsql_baseline::index::build_pk_fk_indexes)
            .map(|i| i.deep_size())
            .sum();
        let rows = vec![
            vec!["row store (+indexes)".into(), human_bytes(db.deep_size() + index_bytes)],
            vec!["columnar (dictionary)".into(), human_bytes(loaded.columnar.deep_size())],
            vec!["TAG graph (+payloads)".into(), human_bytes(loaded.tag.stats().bytes)],
        ];
        println!("### {name} @ SF {sf}\n");
        println!("{}", markdown_table(&["engine", "resident bytes"].map(String::from), &rows));
    }
}

/// Workload generator + suite for a mode name (`--profile-from` values are
/// validated at parse time, so anything else cannot reach this).
fn workload_by_mode(mode: &str) -> (fn(f64, u64) -> Database, Vec<BenchQuery>) {
    match mode {
        "tpch" => (tpch::generate as fn(f64, u64) -> Database, tpch::queries()),
        "tpcds" => (tpcds::generate, tpcds::queries()),
        other => unreachable!("profile source `{other}` not caught by parse_profile_from"),
    }
}

/// Parse + analyze a workload suite against a TAG.
fn analyze_suite(tag: &TagGraph, queries: &[BenchQuery]) -> Vec<Analyzed> {
    queries
        .iter()
        .map(|q| {
            vcsql_query::analyze::analyze(&vcsql_query::parse(q.sql).unwrap(), tag.schemas())
                .expect("workload query analyzes")
        })
        .collect()
}

/// Observed per-edge-label traffic of a whole workload on its own TAG
/// (phase 1 of the `workload` strategy: a hash-placed calibration run).
fn calibration_profile(tag: &TagGraph, queries: &[BenchQuery], machines: usize) -> TrafficProfile {
    Cluster::new(machines)
        .calibrate(tag, &analyze_suite(tag, queries))
        .expect("calibration run succeeds")
}

/// E13 — Fig 16 + Tables 16-17: distributed runtime model + network bytes,
/// per TAG placement strategy (the locality-aware strategies are what close
/// the gap to the paper's 9x spark/tag traffic ratio; `workload` re-weights
/// them with traffic observed from a calibration run). Each strategy runs as
/// one static-placement `Session`, so plans are prepared once per workload.
fn distributed(sf: f64, strategies: &[PartitionStrategy], profile_from: Option<&str>, bw: f64) {
    println!("\n## E13 — Distributed cluster simulation, 6 machines (paper Fig 16)\n");
    // Each calibration workload's profile is computed at most once: a
    // self-profile reuses the measurement loop's own graph, and a fixed
    // `--profile-from` profile computed in one iteration is reused by the
    // next (only a genuinely foreign workload builds a second graph).
    let mut profile_cache: Option<(String, TrafficProfile)> = None;
    let wants_workload = strategies.iter().any(|s| matches!(s, PartitionStrategy::Workload(_)));
    for (name, mode) in [("TPC-H", "tpch"), ("TPC-DS", "tpcds")] {
        let (genf, queries) = workload_by_mode(mode);
        let db = genf(sf, SEED);
        let tag = Arc::new(TagGraph::build(&db));
        let spark = SparkModel::default();
        let cluster = Cluster::new(spark.machines).bandwidth(bw).static_placement();
        let runtime = |secs: f64, net: &vcsql_dist::NetStats| {
            cluster.modelled_runtime(secs, net).expect("bandwidth validated at parse time")
        };
        // Materialize the `workload` strategy once per measured workload.
        let workload_profile: Option<TrafficProfile> = wants_workload.then(|| {
            let calib = profile_from.unwrap_or(mode);
            let profile = match &profile_cache {
                Some((m, p)) if m == calib => p.clone(),
                _ => {
                    let p = if calib == mode {
                        calibration_profile(&tag, &queries, spark.machines)
                    } else {
                        let (genf2, queries2) = workload_by_mode(calib);
                        let db2 = genf2(sf, SEED);
                        let tag2 = TagGraph::build(&db2);
                        calibration_profile(&tag2, &queries2, spark.machines)
                    };
                    profile_cache = Some((calib.to_string(), p.clone()));
                    p
                }
            };
            println!(
                "({name}: `workload` strategy calibrated on {calib}, \
                 {} profiled edge labels)\n",
                profile.len()
            );
            profile
        });
        let materialized: Vec<PartitionStrategy> = strategies
            .iter()
            .map(|s| match s {
                PartitionStrategy::Workload(_) => {
                    s.clone().with_profile(workload_profile.clone().expect("calibrated above"))
                }
                other => other.clone(),
            })
            .collect();
        // One session per strategy: the placement is built once at open and
        // reused across the whole workload (static placement here — the
        // `--sessions` replay is where adaptation is measured).
        let mut sessions: Vec<_> = materialized
            .iter()
            .map(|s| (s, cluster.clone().strategy(s.clone()).session(&tag).expect("session opens")))
            .collect();
        let mut rows = Vec::new();
        let mut tag_totals = vec![0u64; sessions.len()];
        let mut tag_times = vec![0.0f64; sessions.len()];
        let (mut spark_total, mut spark_time) = (0u64, 0.0f64);
        for q in &queries {
            let a =
                vcsql_query::analyze::analyze(&vcsql_query::parse(q.sql).unwrap(), tag.schemas())
                    .expect("analyzes");
            let mut row = vec![q.id.to_string()];
            for (i, (_, session)) in sessions.iter_mut().enumerate() {
                // Prepare outside the timed region (planning is setup, paid
                // once per statement); time the execution itself.
                let prepared = session.prepare(q.sql).expect("prepares");
                let ((_, net), secs) = time(|| session.execute(&prepared).unwrap());
                tag_totals[i] += net.network_bytes;
                // Modelled runtime: measured local work + network at `bw`.
                tag_times[i] += runtime(secs, &net);
                row.push(human_bytes(net.network_bytes as usize));
            }
            let (spark_net, spark_secs) = time(|| spark.run(&a, &db).unwrap());
            spark_total += spark_net.network_bytes;
            spark_time += runtime(spark_secs, &spark_net);
            row.push(human_bytes(spark_net.network_bytes as usize));
            rows.push(row);
        }
        let mut total_row = vec!["**total**".to_string()];
        for &t in &tag_totals {
            total_row.push(format!("**{}**", human_bytes(t as usize)));
        }
        total_row.push(format!("**{}**", human_bytes(spark_total as usize)));
        rows.push(total_row);

        let mut headers = vec!["query".to_string()];
        headers.extend(sessions.iter().map(|(s, _)| format!("tag net ({})", s.name())));
        headers.push("spark_model net".to_string());
        println!("### {name} @ SF {sf} — network traffic per query\n");
        println!("{}", markdown_table(&headers, &rows));
        println!("spark_model modelled runtime: {spark_time:.3}s\n");
        for (i, (s, session)) in sessions.iter().enumerate() {
            let d = session.partitioning().expect("6 machines").diagnostics(tag.graph());
            println!(
                "{:>9}: spark/tag traffic ratio = {:5.1}x | modelled runtime {:7.3}s | \
                 edge cut {:5.1}% | load imbalance {:.2}",
                s.name(),
                spark_total as f64 / tag_totals[i].max(1) as f64,
                tag_times[i],
                100.0 * d.edge_cut_fraction,
                d.load_imbalance,
            );
        }
        println!();
    }
}

/// Deterministic xorshift64* shuffle (the compat `rand` has no shuffling,
/// and replay order must reproduce bit-identically).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        items.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

/// E15 — the session drift replay: one long-lived `Session` over a combined
/// TPC-H + TPC-DS database (their relation names are disjoint), placement
/// calibrated on TPC-H, then the query mix drifts to TPC-DS. The session's
/// online repartitioning must recover the workload-profiled traffic ratio
/// without restarting the run, and every migrated vertex is charged to the
/// per-query `NetStats` (itemized in the `migration` column).
fn sessions_replay(sf: f64, n: usize, migration_budget: usize, bw: f64, restart_at: Option<usize>) {
    println!(
        "\n## E15 — Session drift replay @ SF {sf}: TPC-H profile, then TPC-DS arrives \
         ({n} queries, migration budget {migration_budget}/query)\n"
    );
    let mut db = tpch::generate(sf, SEED);
    for rel in tpcds::generate(sf, SEED).relations() {
        db.add(rel.clone());
    }
    let tag = Arc::new(TagGraph::build(&db));
    let spark = SparkModel::default();
    let cluster = Cluster::new(spark.machines).bandwidth(bw).migration_budget(migration_budget);

    let tpch_suite = tpch::queries();
    let tpcds_suite = tpcds::queries();
    let tpch_analyzed = analyze_suite(&tag, &tpch_suite);
    let tpcds_analyzed = analyze_suite(&tag, &tpcds_suite);

    // The replay: a shuffled TPC-H phase, then a shuffled TPC-DS phase.
    let phase_len = n.div_ceil(2);
    let mut replay: Vec<(&str, &str, usize)> = Vec::with_capacity(n); // (phase, id, suite idx)
    for (phase, suite, take) in
        [("tpch", &tpch_suite, phase_len), ("tpcds", &tpcds_suite, n - phase_len)]
    {
        let mut order: Vec<usize> = (0..suite.len()).collect();
        shuffle(&mut order, SEED ^ suite.len() as u64);
        for k in 0..take {
            let idx = order[k % order.len()];
            replay.push((phase, suite[idx].id, idx));
        }
    }

    // The session under test: placement calibrated on the pre-drift
    // workload, adaptation on.
    let mut session =
        cluster.calibrated_session(&tag, &tpch_analyzed).expect("calibrated session opens");
    println!(
        "(placement calibrated on tpch: {} profiled edge labels)\n",
        session.accumulated_profile().len()
    );

    let mut rows = Vec::new();
    let mut phase_bytes: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new(); // tag, migration, spark
    let mut tpcds_halves = [(0u64, 0u64); 2]; // (tag bytes, spark bytes) per half
    let mut tpcds_seen = 0usize;
    let tpcds_total = n - phase_len;
    // The cold twin raced against the warm restart: (session, warm query
    // bytes, warm migration bytes, cold query bytes, cold migration bytes).
    let mut cold_race: Option<(vcsql_session::Session, u64, u64, u64, u64)> = None;
    for (qi, &(phase, id, idx)) in replay.iter().enumerate() {
        if restart_at == Some(qi) {
            // The server restarts mid-replay. The warm successor reloads
            // the dying session's saved profile text — placement and
            // accumulated traffic both survive the text round-trip — while
            // a cold twin recalibrates from scratch exactly as the original
            // session did at open, and both replay the remaining queries.
            let saved = session.save_profile();
            let mut warm = cluster.session(&tag).expect("warm session opens");
            warm.load_profile(&saved).expect("saved profile round-trips");
            session = warm;
            let cold =
                cluster.calibrated_session(&tag, &tpch_analyzed).expect("cold session opens");
            cold_race = Some((cold, 0, 0, 0, 0));
        }
        let (suite, analyzed) = if phase == "tpch" {
            (&tpch_suite, &tpch_analyzed)
        } else {
            (&tpcds_suite, &tpcds_analyzed)
        };
        let (_, net) = session.run_sql(suite[idx].sql).expect("replay query runs");
        if let Some((cold, warm_b, warm_m, cold_b, cold_m)) = &mut cold_race {
            let (_, cold_net) = cold.run_sql(suite[idx].sql).expect("cold twin runs");
            *warm_b += net.network_bytes - net.migration_bytes;
            *warm_m += net.migration_bytes;
            *cold_b += cold_net.network_bytes - cold_net.migration_bytes;
            *cold_m += cold_net.migration_bytes;
        }
        let spark_net = spark.run(&analyzed[idx], &db).expect("spark model runs");
        let e = phase_bytes.entry(phase).or_default();
        e.0 += net.network_bytes - net.migration_bytes;
        e.1 += net.migration_bytes;
        e.2 += spark_net.network_bytes;
        if phase == "tpcds" {
            let half = if tpcds_seen * 2 < tpcds_total { 0 } else { 1 };
            tpcds_halves[half].0 += net.network_bytes - net.migration_bytes;
            tpcds_halves[half].1 += spark_net.network_bytes;
            tpcds_seen += 1;
        }
        rows.push(vec![
            phase.to_string(),
            id.to_string(),
            human_bytes((net.network_bytes - net.migration_bytes) as usize),
            human_bytes(net.migration_bytes as usize),
            human_bytes(spark_net.network_bytes as usize),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["phase", "query", "tag net", "migration", "spark_model net"].map(String::from),
            &rows
        )
    );

    // The yardstick: a session whose placement was profiled on TPC-DS itself
    // (what the drifted session should converge back to).
    let mut yardstick = cluster
        .clone()
        .static_placement()
        .calibrated_session(&tag, &tpcds_analyzed)
        .expect("yardstick session opens");
    let mut self_tag = 0u64;
    for &(phase, _, idx) in &replay {
        if phase != "tpcds" {
            continue;
        }
        let (_, net) = yardstick.run_sql(tpcds_suite[idx].sql).expect("yardstick runs");
        self_tag += net.network_bytes;
    }
    // The spark side is the same deterministic model over the same queries
    // the main loop already measured — reuse its phase total.
    let self_spark = phase_bytes.get("tpcds").map(|&(_, _, s)| s).unwrap_or(0);

    if let Some((_, warm_b, warm_m, cold_b, cold_m)) = &cold_race {
        let k = restart_at.expect("cold race implies --restart-at");
        println!(
            "restart before query {k}: over the remaining {} queries the warm start \
             (saved profile reloaded via the text round-trip) shipped {} query bytes + {} \
             migration; the cold start (recalibrated on tpch from scratch) shipped {} + {}\n",
            n - k,
            human_bytes(*warm_b as usize),
            human_bytes(*warm_m as usize),
            human_bytes(*cold_b as usize),
            human_bytes(*cold_m as usize),
        );
    }
    let stats = session.stats();
    println!(
        "session{}: {} queries | {} adaptations | {} vertices migrated over {} steps | \
         migration bytes {} | plan cache {} hits / {} misses",
        if restart_at.is_some() { " (post-restart)" } else { "" },
        stats.queries,
        stats.adaptations,
        stats.migrated_vertices,
        stats.migration_steps,
        human_bytes(stats.migration_bytes as usize),
        session.plan_cache().hits(),
        session.plan_cache().misses(),
    );
    let ratio = |tag_bytes: u64, spark_bytes: u64| spark_bytes as f64 / tag_bytes.max(1) as f64;
    for (phase, (tag_b, mig_b, spark_b)) in &phase_bytes {
        println!(
            "{phase:>6} phase: spark/tag byte ratio {:.1}x (tag {}, migration {}, spark {})",
            ratio(*tag_b, *spark_b),
            human_bytes(*tag_b as usize),
            human_bytes(*mig_b as usize),
            human_bytes(*spark_b as usize),
        );
    }
    if tpcds_total >= 2 {
        let before = ratio(tpcds_halves[0].0, tpcds_halves[0].1);
        let after = ratio(tpcds_halves[1].0, tpcds_halves[1].1);
        let yard = ratio(self_tag, self_spark);
        println!(
            "tpcds before adaptation (first half): {before:.1}x | after adaptation \
             (second half): {after:.1}x | self-profiled yardstick: {yard:.1}x \
             (recovered {:.0}% of the yardstick ratio without restarting)",
            100.0 * after / yard.max(1e-12),
        );
    }
    println!();
}

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
        ("tpch", &SERVE_TPCH_MIX)
    } else {
        ("tpcds", &SERVE_TPCDS_MIX)
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
    /// Modelled per-query latencies, sorted ascending.
    latencies: Vec<f64>,
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
fn serve_world(
    tag: &Arc<TagGraph>,
    tenants: usize,
    qps: f64,
    bw: f64,
    arb: Arbitration,
) -> ServeWorld {
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
                let service =
                    vcsql_dist::modelled_runtime(secs, &net, bw).expect("bandwidth validated");
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
                latencies: lat,
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

/// E16 — the multi-tenant serving bench: `--tenants` sessions over one
/// shared TAG, even tenants on TPC-H joins and odd on TPC-DS, replayed under
/// all three arbitration policies. Reports whole-cluster bytes per policy,
/// then drills into the merged world: per-tenant p50/p95 modelled latency,
/// plan-cache hit rates, and fairness against each mix's solo-refined
/// baseline (plus the Jain index over those ratios).
fn serve_bench(sf: f64, tenants: usize, qps: f64, bw: f64, json_path: Option<&str>) {
    println!(
        "\n## E16 — Multi-tenant serving @ SF {sf}: {tenants} tenants, closed loop at \
         {qps} QPS/tenant, {SERVE_ROUNDS} rounds\n"
    );
    let mut db = tpch::generate(sf, SEED);
    for rel in tpcds::generate(sf, SEED).relations() {
        db.add(rel.clone());
    }
    let tag = Arc::new(TagGraph::build(&db));

    let worlds = [
        ("merged", Arbitration::Merged),
        ("unilateral", Arbitration::Unilateral),
        ("static", Arbitration::Static),
    ];
    let runs: Vec<(&str, ServeWorld)> = worlds
        .iter()
        .map(|&(name, arb)| (name, serve_world(&tag, tenants, qps, bw, arb)))
        .collect();

    let hit_rate = |hits: u64, misses: u64| hits as f64 / ((hits + misses).max(1)) as f64;
    let world_rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, w)| {
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
    println!(
        "{}",
        markdown_table(
            &[
                "policy",
                "total net (incl. migration)",
                "migration",
                "adaptations",
                "cache hits",
                "failures p/t/r/r"
            ]
            .map(String::from),
            &world_rows
        )
    );

    // Fairness yardsticks: tenants of one parity share a mix, so two solo
    // baselines cover everyone.
    let solo = [serve_solo(&tag, &SERVE_TPCH_MIX), serve_solo(&tag, &SERVE_TPCDS_MIX)];
    let merged = &runs[0].1;
    let fairness = |t: usize, shared: u64| solo[t % 2] as f64 / shared.max(1) as f64;
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
                human_bytes(solo[t % 2] as usize),
                format!("{:.2}", fairness(t, r.query_bytes)),
                format!("{:.3}", percentile_ms(&r.latencies, 0.50)),
                format!("{:.3}", percentile_ms(&r.latencies, 0.95)),
                format!("{}/{}", r.cache_hits, r.cache_misses),
            ]
        })
        .collect();
    println!("### Merged world — per-tenant view\n");
    println!(
        "{}",
        markdown_table(
            &[
                "tenant",
                "suite",
                "queries",
                "query bytes",
                "solo baseline",
                "solo/shared",
                "p50 ms",
                "p95 ms",
                "cache h/m"
            ]
            .map(String::from),
            &tenant_rows
        )
    );

    // Jain's fairness index over the per-tenant solo/shared ratios: 1.0
    // means the consensus placement serves everyone equally well relative
    // to what each could get alone.
    let ratios: Vec<f64> =
        merged.tenants.iter().enumerate().map(|(t, r)| fairness(t, r.query_bytes)).collect();
    let sum: f64 = ratios.iter().sum();
    let sum_sq: f64 = ratios.iter().map(|x| x * x).sum();
    let jain = sum * sum / (ratios.len() as f64 * sum_sq).max(1e-12);
    println!(
        "fairness: Jain index {jain:.3} over solo/shared ratios | admission: {} granted, \
         peak {} in flight\n",
        merged.admitted, merged.peak_in_flight,
    );

    if let Some(path) = json_path {
        let json = serve_json(sf, tenants, qps, &runs, &solo, jain);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

/// The failure-isolation counters as an inline JSON object.
fn failures_json(f: &FailureStats) -> String {
    format!(
        "{{\"panics\": {}, \"timeouts\": {}, \"retries\": {}, \"recoveries\": {}}}",
        f.panics, f.timeouts, f.retries, f.recoveries
    )
}

/// Serialize the serving report by hand (no serde in the offline tree);
/// same discipline as `trajectory_json`.
fn serve_json(
    sf: f64,
    tenants: usize,
    qps: f64,
    runs: &[(&str, ServeWorld)],
    solo: &[u64; 2],
    jain: f64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"vcsql-serve-report/v1\",");
    let _ = writeln!(out, "  \"sf\": {sf},");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"tenants\": {tenants},");
    let _ = writeln!(out, "  \"qps\": {qps},");
    let _ = writeln!(out, "  \"rounds\": {SERVE_ROUNDS},");
    out.push_str("  \"worlds\": {\n");
    for (i, (name, w)) in runs.iter().enumerate() {
        let sep = if i + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"total_bytes\": {}, \"migration_bytes\": {}, \
             \"adaptations\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"admitted\": {}, \"peak_in_flight\": {}, \"failures\": {}}}{sep}",
            w.total_bytes,
            w.migration_bytes,
            w.adaptations,
            w.cache_hits,
            w.cache_misses,
            w.admitted,
            w.peak_in_flight,
            failures_json(&w.failures),
        );
    }
    out.push_str("  },\n");
    let _ =
        writeln!(out, "  \"solo_baselines\": {{\"tpch\": {}, \"tpcds\": {}}},", solo[0], solo[1]);
    out.push_str("  \"merged_tenants\": [\n");
    let merged = &runs[0].1;
    for (t, r) in merged.tenants.iter().enumerate() {
        let sep = if t + 1 == merged.tenants.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"tenant\": {t}, \"suite\": \"{}\", \"queries\": {}, \
             \"query_bytes\": {}, \"solo_bytes\": {}, \"fairness\": {:.4}, \
             \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"failures\": {}}}{sep}",
            r.suite,
            r.queries,
            r.query_bytes,
            solo[t % 2],
            solo[t % 2] as f64 / r.query_bytes.max(1) as f64,
            percentile_ms(&r.latencies, 0.50),
            percentile_ms(&r.latencies, 0.95),
            r.cache_hits,
            r.cache_misses,
            failures_json(&r.failures),
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"fairness_jain\": {jain:.4}");
    out.push_str("}\n");
    out
}

/// One (workload, checkpoint-interval) arm of the fault sweep, counters
/// summed over the suite's queries. All byte counters come from each
/// query's *successful* attempt — a failed attempt returns no statistics,
/// it only bumps `retries`/`reruns`.
struct FaultArm {
    workload: &'static str,
    interval: u64,
    queries: u64,
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
/// rounds per crash, and interval 0 falls back to a full rerun.
fn faults_bench(
    sf: f64,
    checkpoint_every: u64,
    kill: (u32, u64),
    seed: u64,
    json_path: Option<&str>,
) {
    let (kill_machine, kill_superstep) = kill;
    let machines = (kill_machine as usize + 1).max(4);
    println!(
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
    for (workload, genf, queries) in [
        ("tpch", tpch::generate as fn(f64, u64) -> Database, tpch::queries()),
        ("tpcds", tpcds::generate, tpcds::queries()),
    ] {
        let db = genf(sf, SEED);
        let tag = TagGraph::build(&db);
        let analyzed = analyze_suite(&tag, &queries);
        let placement = Arc::new(
            PartitionStrategy::Hash.partition(tag.graph(), machines, &|v| !tag.is_tuple_vertex(v)),
        );
        // Fault-free ground truth, one per query: the bag every faulty run
        // must reproduce and the byte total every recovery must match.
        let clean = TagJoinExecutor::new(&tag, EngineConfig::with_threads(4))
            .with_partitioning_shared(Arc::clone(&placement));
        let baselines: Vec<_> =
            analyzed.iter().map(|a| clean.execute(a).expect("fault-free query runs")).collect();
        for &interval in &intervals {
            let mut arm = FaultArm {
                workload,
                interval,
                queries: 0,
                checkpoints: 0,
                checkpoint_bytes: 0,
                crashes_recovered: 0,
                recovered_rounds: 0,
                recovery_bytes: 0,
                retries: 0,
                reruns: 0,
                network_bytes: 0,
            };
            for (a, base) in analyzed.iter().zip(&baselines) {
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
                    match exec.execute(a) {
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
                arm.queries += 1;
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
    for workload in ["tpch", "tpcds"] {
        let rows: Vec<Vec<String>> = arms
            .iter()
            .filter(|a| a.workload == workload)
            .map(|a| {
                vec![
                    if a.interval == 0 { "off".to_string() } else { a.interval.to_string() },
                    a.checkpoints.to_string(),
                    human_bytes(a.checkpoint_bytes as usize),
                    a.crashes_recovered.to_string(),
                    a.recovered_rounds.to_string(),
                    human_bytes(a.recovery_bytes as usize),
                    a.retries.to_string(),
                    a.reruns.to_string(),
                    human_bytes(a.network_bytes as usize),
                ]
            })
            .collect();
        println!("### {workload} — all result bags identical to fault-free\n");
        println!(
            "{}",
            markdown_table(
                &[
                    "ckpt every",
                    "checkpoints",
                    "ckpt bytes",
                    "crashes recovered",
                    "replayed rounds",
                    "recovery bytes",
                    "retries",
                    "reruns",
                    "query net (= fault-free)"
                ]
                .map(String::from),
                &rows
            )
        );
    }
    if let Some(path) = json_path {
        let json = faults_json(sf, checkpoint_every, kill, seed, machines, &arms);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

/// Serialize the fault sweep by hand (no serde in the offline tree); same
/// discipline as `trajectory_json` and `serve_json`.
fn faults_json(
    sf: f64,
    checkpoint_every: u64,
    kill: (u32, u64),
    seed: u64,
    machines: usize,
    arms: &[FaultArm],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"vcsql-fault-report/v1\",");
    let _ = writeln!(out, "  \"sf\": {sf},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"machines\": {machines},");
    let _ = writeln!(out, "  \"checkpoint_every\": {checkpoint_every},");
    let _ = writeln!(out, "  \"kill\": {{\"machine\": {}, \"superstep\": {}}},", kill.0, kill.1);
    out.push_str("  \"sweep\": [\n");
    for (i, a) in arms.iter().enumerate() {
        let sep = if i + 1 == arms.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"interval\": {}, \"queries\": {}, \
             \"checkpoints\": {}, \"checkpoint_bytes\": {}, \"crashes_recovered\": {}, \
             \"recovered_rounds\": {}, \"recovery_bytes\": {}, \"retries\": {}, \
             \"reruns\": {}, \"network_bytes\": {}}}{sep}",
            a.workload,
            a.interval,
            a.queries,
            a.checkpoints,
            a.checkpoint_bytes,
            a.crashes_recovered,
            a.recovered_rounds,
            a.recovery_bytes,
            a.retries,
            a.reruns,
            a.network_bytes,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// A1 — §4.1.2: two-way join communication vs the min(IN, OUT) bound.
fn cost_model() {
    println!("\n## A1 — Two-way join communication vs analytic bounds (paper §4.1.2)\n");
    let mut rows = Vec::new();
    for b_domain in [10i64, 100, 1000, 10_000] {
        let db = synthetic::two_way_db(2000, b_domain, SEED);
        let tag = TagGraph::build(&db);
        let spec = TwoWaySpec {
            left: "r",
            right: "s",
            on: vec![("b", "b")],
            left_out: vec!["a"],
            right_out: vec!["c"],
        };
        let res = two_way_join(&tag, EngineConfig::with_threads(4), &spec).unwrap();
        let in_size = 4000u64;
        let out_size = res.output_size() as u64;
        rows.push(vec![
            b_domain.to_string(),
            in_size.to_string(),
            out_size.to_string(),
            res.stats.total_messages().to_string(),
            (2 * in_size.min(out_size.max(1))).to_string(),
            format!("{}", res.stats.total_messages() <= 2 * in_size),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["|B| domain", "IN", "OUT", "messages", "2*min(IN,OUT)", "msgs <= 2*IN"]
                .map(String::from),
            &rows
        )
    );
}

/// A2 — §6.1.2: triangle θ sweep.
fn triangle_theta() {
    println!("\n## A2 — Triangle heavy/light θ sweep (paper §6.1.2)\n");
    let db = synthetic::cycle_db(3, 3000, 400, SEED);
    let tag = TagGraph::build(&db);
    let names = ["e0", "e1", "e2"];
    let in_size = 3.0 * 3000.0f64;
    let mut rows = Vec::new();
    let (vanilla_count, vanilla_stats) =
        cyclic::count_cycles(&tag, &names, None, EngineConfig::with_threads(4)).unwrap();
    rows.push(vec![
        "vanilla".into(),
        vanilla_count.to_string(),
        vanilla_stats.total_messages().to_string(),
    ]);
    for theta in [1usize, 8, 32, 95, 256, 1024] {
        let (count, stats) =
            cyclic::count_cycles(&tag, &names, Some(theta), EngineConfig::with_threads(4)).unwrap();
        assert_eq!(count, vanilla_count, "θ={theta} changed the result");
        let label = if theta == 95 {
            format!("θ={theta} (≈√IN={:.0})", in_size.sqrt())
        } else {
            format!("θ={theta}")
        };
        rows.push(vec![label, count.to_string(), stats.total_messages().to_string()]);
    }
    println!("{}", markdown_table(&["variant", "triangles", "messages"].map(String::from), &rows));
}

/// A4 — §5.2.2: no-reshuffle property vs join chain length.
fn reshuffle(sf: f64) {
    println!("\n## A4 — Reshuffle bytes vs join-chain length (paper §5.2.2)\n");
    let db = tpch::generate(sf, SEED);
    let tag = TagGraph::build(&db);
    let chains = [
        ("2-way", "SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey"),
        (
            "3-way",
            "SELECT c.c_name FROM customer c, orders o, lineitem l \
             WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey",
        ),
        (
            "4-way",
            "SELECT c.c_name FROM nation n, customer c, orders o, lineitem l \
             WHERE n.n_nationkey = c.c_nationkey AND c.c_custkey = o.o_custkey \
             AND o.o_orderkey = l.l_orderkey",
        ),
        (
            "5-way",
            "SELECT c.c_name FROM region r, nation n, customer c, orders o, lineitem l \
             WHERE r.r_regionkey = n.n_regionkey AND n.n_nationkey = c.c_nationkey \
             AND c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey",
        ),
    ];
    let spark = SparkModel { machines: 6, broadcast_threshold: 0 };
    let mut rows = Vec::new();
    for (label, sql) in chains {
        let a = vcsql_query::analyze::analyze(&vcsql_query::parse(sql).unwrap(), tag.schemas())
            .unwrap();
        let (_, net) = tag_distributed(&tag, &a, 6, EngineConfig::with_threads(4)).unwrap();
        let shuffle = spark.run(&a, &db).unwrap();
        rows.push(vec![
            label.to_string(),
            human_bytes(net.network_bytes as usize),
            human_bytes(shuffle.network_bytes as usize),
            format!("{:.1}x", shuffle.network_bytes as f64 / net.network_bytes.max(1) as f64),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["chain", "tag_join net", "shuffle-join net", "ratio"].map(String::from),
            &rows
        )
    );
}

/// One measured query of the perf trajectory: workload, query id, and
/// min-of-reps wall seconds for the row baseline, 1-thread TAG and
/// multi-thread TAG.
struct TrajectoryEntry {
    workload: &'static str,
    id: String,
    row_s: f64,
    tag_1t_s: f64,
    tag_mt_s: f64,
}

/// The tracked perf trajectory (the committed `BENCH_*.json` files):
/// row-store baseline vs TAG, single- vs multi-thread, per query. Each arm
/// reports the best of `REPS` runs, and every TAG result bag is checked
/// against the row baseline — the bench doubles as an equivalence smoke
/// across thread counts.
fn bench_trajectory(sf: f64, threads: Option<usize>, json_path: Option<&str>) {
    const REPS: usize = 3;
    // Pinned default: `EngineConfig::default()` follows available_parallelism,
    // which would make the committed trajectory host-dependent.
    let multi = threads.unwrap_or(4);
    println!("\n## Perf trajectory — row baseline vs TAG, 1 vs {multi} thread(s) @ SF {sf}\n");
    let mut entries: Vec<TrajectoryEntry> = Vec::new();
    for (workload, genf, queries) in [
        ("tpch", tpch::generate as fn(f64, u64) -> Database, tpch::queries()),
        ("tpcds", tpcds::generate, tpcds::queries()),
    ] {
        let loaded = Loaded::new(genf(sf, SEED));
        for q in &queries {
            let a = prepare(&loaded, q.sql).expect("workload query analyzes");
            let min_of_reps = |system: System, engine: EngineConfig| {
                let mut best = f64::INFINITY;
                let mut out = None;
                for _ in 0..REPS {
                    let (rel, secs) =
                        run_system_with(&loaded, system, &a, engine).expect("query runs");
                    best = best.min(secs);
                    out = Some(rel);
                }
                (out.expect("REPS > 0"), best)
            };
            let (row_rel, row_s) = min_of_reps(System::RowHash, EngineConfig::sequential());
            let (t1_rel, tag_1t_s) = min_of_reps(System::TagJoin, EngineConfig::sequential());
            let (tm_rel, tag_mt_s) =
                min_of_reps(System::TagJoin, EngineConfig::with_threads(multi));
            assert!(
                t1_rel.same_bag_approx(&row_rel, 1e-9),
                "{workload} {}: 1-thread TAG result diverged from the row baseline",
                q.id
            );
            assert!(
                tm_rel.same_bag_approx(&row_rel, 1e-9),
                "{workload} {}: {multi}-thread TAG result diverged from the row baseline",
                q.id
            );
            entries.push(TrajectoryEntry {
                workload,
                id: q.id.to_string(),
                row_s,
                tag_1t_s,
                tag_mt_s,
            });
        }
    }
    for workload in ["tpch", "tpcds"] {
        let rows: Vec<Vec<String>> = entries
            .iter()
            .filter(|e| e.workload == workload)
            .map(|e| {
                vec![
                    e.id.clone(),
                    ms(e.row_s),
                    ms(e.tag_1t_s),
                    ms(e.tag_mt_s),
                    speedup(e.tag_mt_s, e.tag_1t_s),
                ]
            })
            .collect();
        println!("### {workload}\n");
        println!(
            "{}",
            markdown_table(
                &["query", "row_hash ms", "tag 1t ms", "tag mt ms", "parallel speedup"]
                    .map(String::from),
                &rows
            )
        );
    }
    if let Some(path) = json_path {
        let json = trajectory_json(sf, multi, REPS, &entries);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("repro: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

/// Serialize the trajectory as JSON by hand (the workspace is offline — no
/// serde). Workload names and query ids are ASCII identifiers, so string
/// escaping reduces to quoting.
fn trajectory_json(sf: f64, multi: usize, reps: usize, entries: &[TrajectoryEntry]) -> String {
    use std::fmt::Write as _;
    let msf = |s: f64| format!("{:.4}", s * 1000.0);
    let ratio = |num: f64, den: f64| format!("{:.3}", num / den.max(1e-12));
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"vcsql-bench-trajectory/v1\",");
    let _ = writeln!(out, "  \"sf\": {sf},");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"threads_multi\": {multi},");
    out.push_str("  \"queries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"id\": \"{}\", \"row_hash_ms\": {}, \
             \"tag_1t_ms\": {}, \"tag_mt_ms\": {}, \"parallel_speedup\": {}, \
             \"row_over_tag_mt\": {}}}{sep}",
            e.workload,
            e.id,
            msf(e.row_s),
            msf(e.tag_1t_s),
            msf(e.tag_mt_s),
            ratio(e.tag_1t_s, e.tag_mt_s),
            ratio(e.row_s, e.tag_mt_s),
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"totals\": {\n");
    let workloads = ["tpch", "tpcds"];
    for (i, workload) in workloads.iter().enumerate() {
        let (mut row, mut t1, mut tm) = (0.0, 0.0, 0.0);
        for e in entries.iter().filter(|e| e.workload == *workload) {
            row += e.row_s;
            t1 += e.tag_1t_s;
            tm += e.tag_mt_s;
        }
        let sep = if i + 1 == workloads.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    \"{workload}\": {{\"row_hash_ms\": {}, \"tag_1t_ms\": {}, \
             \"tag_mt_ms\": {}, \"parallel_speedup\": {}}}{sep}",
            msf(row),
            msf(t1),
            msf(tm),
            ratio(t1, tm),
        );
    }
    out.push_str("  }\n}\n");
    out
}
