//! Golden byte-accounting fixture: pins each statement's network bytes per
//! strategy for the TPC-H suite at SF 0.01 on a 6-machine cluster, and the
//! Spark shuffle model's totals for TPC-H and TPC-DS at the same scale.
//!
//! The wire-byte model (`Table::approx_bytes`, `NetStats`) is the basis of
//! every spark/tag traffic ratio reported against the paper. Internal
//! refactors of the data plane (e.g. the columnar `Table` layout) must not
//! shift these numbers: bytes are a function of row count x column count x
//! the 8-byte slot model plus padded string payloads, never of the in-memory
//! representation. If a PR changes any total below on purpose, it changed
//! the *measured model*, and every reported ratio needs re-deriving.
//!
//! Everything here is deterministic: data generation is seeded, placement
//! depends only on graph shape (plus the calibration profile for
//! `workload`), and byte accounting is independent of engine thread count.

use std::sync::Arc;
use vcsql::bsp::PartitionStrategy;
use vcsql::dist::SparkModel;
use vcsql::query::analyze::{analyze, Analyzed};
use vcsql::tag::TagGraph;
use vcsql::workload::{tpcds, tpch, BenchQuery};
use vcsql::Cluster;

const SEED: u64 = 42;
const MACHINES: usize = 6;

fn analyzed_suite(tag: &TagGraph) -> Vec<Analyzed> {
    tpch::queries()
        .iter()
        .map(|q| analyze(&vcsql::query::parse(q.sql).unwrap(), tag.schemas()).unwrap())
        .collect()
}

/// Network bytes of each TPC-H statement under one strategy, in suite order.
fn statement_network_bytes(tag: &Arc<TagGraph>, strategy: PartitionStrategy) -> Vec<u64> {
    let mut session = Cluster::new(MACHINES)
        .static_placement()
        .strategy(strategy)
        .session(tag)
        .expect("session opens");
    tpch::queries()
        .iter()
        .map(|q| {
            let prepared = session.prepare(q.sql).expect("prepares");
            let (_, net) = session.execute(&prepared).expect("executes");
            net.network_bytes
        })
        .collect()
}

/// Network bytes of each TPC-H statement at SF 0.01 on 6 machines, under
/// `hash`, `colocate`, `refined` and `workload` (profiled on this suite).
const PINNED_TPCH: [(&str, [u64; 4]); 15] = [
    ("q1", [0, 0, 0, 0]),
    ("q2", [0, 0, 0, 0]),
    ("q3", [1_640, 616, 592, 328]),
    ("q4", [744, 448, 432, 384]),
    ("q5", [152, 56, 56, 120]),
    ("q6", [0, 0, 0, 0]),
    ("q7", [13_736, 11_880, 11_080, 10_752]),
    ("q10", [4_216, 2_624, 2_544, 1_560]),
    ("q12", [6_952, 3_728, 3_448, 1_528]),
    ("q14", [864, 448, 448, 336]),
    ("q16", [1_384, 96, 96, 0]),
    ("q17", [0, 0, 0, 0]),
    ("q18", [70_088, 27_920, 26_600, 2_208]),
    ("q19", [5_792, 5_296, 5_168, 3_672]),
    ("q22", [1_088, 1_040, 1_040, 1_024]),
];

/// Vertices per machine of the `workload` placement above, calibrated on
/// the suite's own traffic. Pinned next to the bytes it routes, so a
/// re-capture can tell a routing change (these counts hold, a byte moves)
/// from a re-placement (these counts move with the calibration).
const PINNED_WORKLOAD_LOAD: [usize; MACHINES] = [463, 409, 375, 415, 390, 367];

#[test]
fn tpch_sf001_network_totals_are_pinned() {
    let db = tpch::generate(0.01, SEED);
    let tag = Arc::new(TagGraph::build(&db));
    let profile = Cluster::new(MACHINES)
        .calibrate(&tag, &analyzed_suite(&tag))
        .expect("calibration succeeds");
    let workload = PartitionStrategy::Workload(profile);
    assert_eq!(
        tag.partition(&workload, MACHINES).load(),
        PINNED_WORKLOAD_LOAD,
        "the calibrated `workload` placement moved: the suite's traffic or the calibration changed"
    );

    let ids: Vec<&str> = tpch::queries().iter().map(|q| q.id).collect();
    assert_eq!(ids, PINNED_TPCH.map(|(id, _)| id), "the TPC-H suite changed");
    let strategies = [
        PartitionStrategy::Hash,
        PartitionStrategy::CoLocate,
        PartitionStrategy::Refined,
        workload,
    ];
    for (k, strategy) in strategies.into_iter().enumerate() {
        let name = strategy.name();
        let got = statement_network_bytes(&tag, strategy);
        for ((id, pinned), got) in PINNED_TPCH.iter().zip(got) {
            assert_eq!(
                got, pinned[k],
                "TPC-H SF 0.01 network bytes of {id} changed for `{name}`: \
                 got {got}, pinned {} — the wire-byte model moved",
                pinned[k]
            );
        }
    }
}

/// `(network_messages, network_bytes, rounds)` summed over a suite on the
/// Spark model at one broadcast threshold.
fn spark_suite_totals(
    db: &vcsql::relation::Database,
    queries: &[BenchQuery],
    broadcast_threshold: u64,
) -> (u64, u64, u64) {
    let tag = TagGraph::build(db);
    let spark = SparkModel { machines: MACHINES, broadcast_threshold };
    let mut totals = (0, 0, 0);
    for q in queries {
        let a = analyze(&vcsql::query::parse(q.sql).unwrap(), tag.schemas()).unwrap();
        let net = spark.run(&a, db).expect("spark model runs");
        totals.0 += net.network_messages;
        totals.1 += net.network_bytes;
        totals.2 += net.rounds;
    }
    totals
}

#[test]
fn spark_model_network_totals_are_pinned() {
    let suites = [
        ("TPC-H", tpch::generate(0.01, SEED), tpch::queries()),
        ("TPC-DS", tpcds::generate(0.01, SEED), tpcds::queries()),
    ];
    let expected = [
        [(0, (4_104, 503_703, 65)), (10 << 20, (3_612, 424_207, 41))],
        [(0, (11_211, 857_618, 119)), (10 << 20, (19_621, 1_121_855, 68))],
    ];
    for ((name, db, queries), cases) in suites.iter().zip(expected) {
        for (threshold, pinned) in cases {
            let got = spark_suite_totals(db, queries, threshold);
            assert_eq!(
                got, pinned,
                "{name} SF 0.01 Spark-model (messages, bytes, rounds) changed at \
                 broadcast threshold {threshold}: got {got:?}, pinned {pinned:?}"
            );
        }
    }
}
