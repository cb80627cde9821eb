//! Distributed-cluster simulation: TAG-join vs a Spark-like shuffle-join
//! network model on 6 simulated machines (paper Section 8.6 / Fig 16),
//! under each TAG placement strategy — the hash baseline the paper ran,
//! the locality-aware co-location and label-propagation refinement that
//! close most of the reproduced traffic gap from graph shape alone, and the
//! workload-aware placement that re-weights them with per-edge-label
//! traffic observed during a hash-placed calibration run.
//!
//! Everything runs through the session API: one [`Cluster`] describes the
//! simulated machines, each strategy gets a [`Session`] placed once at
//! open, and every query is prepared once and served from the session's
//! plan cache.
//!
//! Run with: `cargo run --release --example distributed_cluster`

use std::sync::Arc;
use vcsql::bsp::PartitionStrategy;
use vcsql::dist::SparkModel;
use vcsql::tag::TagGraph;
use vcsql::workload::tpch;
use vcsql::Cluster;

fn main() {
    let db = tpch::generate(0.05, 42);
    let tag = Arc::new(TagGraph::build(&db));
    let spark = SparkModel { machines: 6, broadcast_threshold: 0 };
    let cluster = Cluster::new(6);

    let queries: Vec<_> = tpch::queries().iter().map(|q| (q.id, q.sql)).collect();

    // Phase 1 of the workload strategy: a hash-placed calibration run
    // observes how much traffic each edge label (`R.A` column) carries.
    let analyzed: Vec<_> = queries
        .iter()
        .map(|(_, sql)| {
            vcsql::query::analyze::analyze(&vcsql::query::parse(sql).unwrap(), tag.schemas())
                .unwrap()
        })
        .collect();
    let profile = cluster.calibrate(&tag, &analyzed).unwrap();
    println!(
        "calibrated traffic profile: {} edge labels (handed to the workload placement in memory)\n",
        profile.len()
    );

    // One session per strategy; each builds its placement once and reuses it
    // (and its cached plans) for the whole workload.
    let mut strategies = PartitionStrategy::ALL.to_vec();
    strategies.push(PartitionStrategy::Workload(profile));
    let mut sessions: Vec<_> = strategies
        .iter()
        .map(|s| cluster.clone().strategy(s.clone()).session(&tag).unwrap())
        .collect();

    println!(
        "{:<6} {:>12} {:>14} {:>13} {:>14} {:>11}",
        "query", "hash bytes", "colocate bytes", "refined bytes", "workload bytes", "spark bytes"
    );
    let mut tag_totals = [0u64; 4];
    let mut spark_total = 0u64;
    for ((id, sql), a) in queries.iter().zip(&analyzed) {
        let mut nets = Vec::new();
        for (i, session) in sessions.iter_mut().enumerate() {
            let (_, net) = session.run_sql(sql).unwrap();
            tag_totals[i] += net.network_bytes;
            nets.push(net.network_bytes);
        }
        let shuffle = spark.run(a, &db).unwrap();
        spark_total += shuffle.network_bytes;
        println!(
            "{:<6} {:>12} {:>14} {:>13} {:>14} {:>11}",
            id, nets[0], nets[1], nets[2], nets[3], shuffle.network_bytes
        );
    }

    println!("\nspark ships, relative to TAG-join under each placement strategy:");
    for (i, (s, session)) in strategies.iter().zip(&sessions).enumerate() {
        let d = session.partitioning().unwrap().diagnostics(tag.graph());
        println!(
            "  {:>8}: {:>4.1}x more data | TAG edge cut {:4.1}% | load imbalance {:.2}",
            s.name(),
            spark_total as f64 / tag_totals[i].max(1) as f64,
            100.0 * d.edge_cut_fraction,
            d.load_imbalance,
        );
    }
    let cache = sessions[0].plan_cache();
    println!(
        "\n(each session planned its {} statements once and serves repeats from the plan \
         cache — the one-shot API re-planned every call)",
        cache.misses(),
    );
    println!(
        "\n(the paper reports 9x on a real 6-machine cluster; the hash baseline \
         reproduces ~4x, locality-aware placement recovers most of the rest, \
         and profiling the workload's own traffic recovers the most)"
    );
}
