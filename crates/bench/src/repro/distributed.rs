//! E13 and E15: the simulated-cluster experiments — network traffic per
//! placement strategy against the Spark model, and the session drift replay.

use super::{Args, SEED, SUITES, TPCDS, TPCH};
use crate::{print_table, time};
use std::collections::BTreeMap;
use std::sync::Arc;
use vcsql_bsp::{PartitionStrategy, TrafficProfile};
use vcsql_dist::SparkModel;
use vcsql_query::analyze::Analyzed;
use vcsql_relation::mem::human_bytes;
use vcsql_relation::Database;
use vcsql_session::Cluster;
use vcsql_tag::TagGraph;
use vcsql_workload::BenchQuery;

/// `distributed`: the drift replay under `--sessions`, else the
/// per-strategy table.
pub(super) fn run(a: &Args) {
    match a.sessions {
        Some(n) => sessions_replay(a, n),
        None => distributed(a),
    }
}

/// Parse + analyze a workload suite against a TAG.
pub(super) fn analyze_suite(tag: &TagGraph, queries: &[BenchQuery]) -> Vec<Analyzed> {
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
fn distributed(a: &Args) {
    let sf = a.sf();
    println!("\n## E13 — Distributed cluster simulation, 6 machines (paper Fig 16)\n");
    let spark = SparkModel::default();
    // A fixed `--profile-from` profile is computed once, on its own graph;
    // otherwise each suite profiles itself on the measurement loop's graph.
    let fixed_profile: Option<TrafficProfile> =
        a.profile_from.filter(|_| a.wants_workload()).map(|calib| {
            let tag = TagGraph::build(&(calib.generate)(sf, SEED));
            calibration_profile(&tag, &(calib.queries)(), spark.machines)
        });
    for suite in SUITES {
        let queries = (suite.queries)();
        let db = (suite.generate)(sf, SEED);
        let tag = Arc::new(TagGraph::build(&db));
        let cluster = Cluster::new(spark.machines).bandwidth(a.bandwidth).static_placement();
        let runtime = |secs: f64, net: &vcsql_dist::NetStats| {
            cluster.modelled_runtime(secs, net).expect("bandwidth validated at parse time")
        };
        // Materialize the `workload` strategy once per measured workload.
        let workload_profile: Option<TrafficProfile> = a.wants_workload().then(|| {
            let profile = fixed_profile
                .clone()
                .unwrap_or_else(|| calibration_profile(&tag, &queries, spark.machines));
            println!(
                "({}: `workload` strategy calibrated on {}, {} profiled edge labels)\n",
                suite.title,
                a.profile_from.unwrap_or(suite).name,
                profile.len()
            );
            profile
        });
        let materialized: Vec<PartitionStrategy> = a
            .strategies()
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
        for (q, analyzed) in queries.iter().zip(analyze_suite(&tag, &queries)) {
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
            let (spark_net, spark_secs) = time(|| spark.run(&analyzed, &db).unwrap());
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
        println!("### {} @ SF {sf} — network traffic per query\n", suite.title);
        print_table(&headers, &rows);
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

/// TPC-H and TPC-DS in one database (their relation names are disjoint).
fn combined_db(sf: f64) -> Database {
    let mut db = (TPCH.generate)(sf, SEED);
    for rel in (TPCDS.generate)(sf, SEED).relations() {
        db.add(rel.clone());
    }
    db
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
fn sessions_replay(a: &Args, n: usize) {
    let (sf, restart_at) = (a.sf(), a.restart_at);
    let migration_budget = a.migration_budget.unwrap_or(2048);
    println!(
        "\n## E15 — Session drift replay @ SF {sf}: TPC-H profile, then TPC-DS arrives \
         ({n} queries, migration budget {migration_budget}/query)\n"
    );
    let db = combined_db(sf);
    let tag = Arc::new(TagGraph::build(&db));
    let spark = SparkModel::default();
    let cluster =
        Cluster::new(spark.machines).bandwidth(a.bandwidth).migration_budget(migration_budget);

    let tpch_suite = (TPCH.queries)();
    let tpcds_suite = (TPCDS.queries)();
    let tpch_analyzed = analyze_suite(&tag, &tpch_suite);
    let tpcds_analyzed = analyze_suite(&tag, &tpcds_suite);

    // The replay: a shuffled TPC-H phase, then a shuffled TPC-DS phase.
    let phase_len = n.div_ceil(2);
    let mut replay: Vec<(&str, &str, usize)> = Vec::with_capacity(n); // (phase, id, suite idx)
    for (phase, suite, take) in
        [(TPCH.name, &tpch_suite, phase_len), (TPCDS.name, &tpcds_suite, n - phase_len)]
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
        let (suite, analyzed) = if phase == TPCH.name {
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
        if phase == TPCDS.name {
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
    print_table(&["phase", "query", "tag net", "migration", "spark_model net"], &rows);

    // The yardstick: a session whose placement was profiled on TPC-DS itself
    // (what the drifted session should converge back to).
    let mut yardstick = cluster
        .clone()
        .static_placement()
        .calibrated_session(&tag, &tpcds_analyzed)
        .expect("yardstick session opens");
    let mut self_tag = 0u64;
    for &(phase, _, idx) in &replay {
        if phase != TPCDS.name {
            continue;
        }
        let (_, net) = yardstick.run_sql(tpcds_suite[idx].sql).expect("yardstick runs");
        self_tag += net.network_bytes;
    }
    // The spark side is the same deterministic model over the same queries
    // the main loop already measured — reuse its phase total.
    let self_spark = phase_bytes.get(TPCDS.name).map(|&(_, _, s)| s).unwrap_or(0);

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
