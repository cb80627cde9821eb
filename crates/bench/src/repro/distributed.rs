//! E13: the simulated-cluster experiment — network traffic per placement
//! strategy against the Spark model.

use super::{Args, SEED, SUITES};
use crate::{print_table, time};
use std::sync::Arc;
use vcsql_bsp::{PartitionStrategy, TrafficProfile};
use vcsql_dist::{modelled_runtime, NetStats, SparkModel, MODELLED_BANDWIDTH};
use vcsql_query::analyze::Analyzed;
use vcsql_relation::mem::human_bytes;
use vcsql_session::Cluster;
use vcsql_tag::TagGraph;
use vcsql_workload::BenchQuery;

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
/// one `Session`, so plans are prepared once per workload.
pub(super) fn run(a: &Args) {
    let sf = a.sf();
    outln!("\n## E13 — Distributed cluster simulation, 6 machines (paper Fig 16)\n");
    let spark = SparkModel::default();
    for suite in SUITES {
        let queries = (suite.queries)();
        let db = (suite.generate)(sf, SEED);
        let tag = Arc::new(TagGraph::build(&db));
        let cluster = Cluster::new(spark.machines);
        let runtime = |secs: f64, net: &NetStats| {
            modelled_runtime(secs, net, MODELLED_BANDWIDTH)
                .expect("the modelled bandwidth is positive")
        };
        // Materialize the `workload` strategy once per measured workload,
        // profiled on the measurement loop's own graph.
        let workload_profile: Option<TrafficProfile> = a.wants_workload().then(|| {
            let profile = calibration_profile(&tag, &queries, spark.machines);
            outln!(
                "({}: `workload` strategy calibrated on {}, {} profiled edge labels)\n",
                suite.title,
                suite.name,
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
        // reused across the whole workload.
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
                // Prepare and choose the shape outside the timed region
                // (planning is setup, paid once per statement); time the
                // execution itself.
                let prepared = session.prepare(q.sql).expect("prepares");
                prepared.plan().shape(&tag).expect("shape chosen");
                let ((_, net), secs) = time(|| session.execute(&prepared).unwrap());
                tag_totals[i] += net.network_bytes;
                // Modelled runtime: measured local work + network at
                // `MODELLED_BANDWIDTH`.
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
        outln!("### {} @ SF {sf} — network traffic per query\n", suite.title);
        print_table(&headers, &rows);
        outln!("spark_model modelled runtime: {spark_time:.3}s\n");
        for (i, (s, session)) in sessions.iter().enumerate() {
            let d = session.partitioning().expect("6 machines").diagnostics(tag.graph());
            outln!(
                "{:>9}: spark/tag traffic ratio = {:5.1}x | modelled runtime {:7.3}s | \
                 edge cut {:5.1}% | load imbalance {:.2}",
                s.name(),
                spark_total as f64 / tag_totals[i].max(1) as f64,
                tag_times[i],
                100.0 * d.edge_cut_fraction,
                d.load_imbalance,
            );
        }
        outln!();
    }
}
