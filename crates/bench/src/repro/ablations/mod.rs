//! A1, A2, A4: ablations of the paper's analytic claims — two-way join
//! communication bounds, the triangle heavy/light threshold, and the
//! no-reshuffle property of join chains. A1 and A2 run standalone vertex
//! programs no SQL statement reaches (§4's two-way join, §6.1–6.2's cycle
//! counting), so they live here rather than in `vcsql-core`.

mod cyclic;
mod twoway;

use super::{Args, SEED, TPCH};
use crate::print_table;
use std::sync::Arc;
use twoway::{two_way_join, TwoWaySpec};
use vcsql_bsp::{EngineConfig, PartitionStrategy};
use vcsql_dist::SparkModel;
use vcsql_relation::mem::human_bytes;
use vcsql_session::Cluster;
use vcsql_tag::TagGraph;
use vcsql_workload::synthetic;

/// A1 — §4.1.2: two-way join communication vs the min(IN, OUT) bound.
pub(super) fn cost_model(_: &Args) {
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
    print_table(&["|B| domain", "IN", "OUT", "messages", "2*min(IN,OUT)", "msgs <= 2*IN"], &rows);
}

/// A2 — §6.1.2: triangle θ sweep.
pub(super) fn triangle_theta(_: &Args) {
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
    print_table(&["variant", "triangles", "messages"], &rows);
}

/// A4 — §5.2.2: no-reshuffle property vs join chain length.
pub(super) fn reshuffle(a: &Args) {
    println!("\n## A4 — Reshuffle bytes vs join-chain length (paper §5.2.2)\n");
    let db = (TPCH.generate)(a.sf(), SEED);
    let tag = Arc::new(TagGraph::build(&db));
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
    let mut session = Cluster::new(6)
        .strategy(PartitionStrategy::Hash)
        .engine(EngineConfig::with_threads(4))
        .session(&tag)
        .unwrap();
    let mut rows = Vec::new();
    for (label, sql) in chains {
        let q = vcsql_query::analyze::analyze(&vcsql_query::parse(sql).unwrap(), tag.schemas())
            .unwrap();
        let (_, net) = session.run_sql(sql).unwrap();
        let shuffle = spark.run(&q, &db).unwrap();
        rows.push(vec![
            label.to_string(),
            human_bytes(net.network_bytes as usize),
            human_bytes(shuffle.network_bytes as usize),
            format!("{:.1}x", shuffle.network_bytes as f64 / net.network_bytes.max(1) as f64),
        ]);
    }
    print_table(&["chain", "tag_join net", "shuffle-join net", "ratio"], &rows);
}
