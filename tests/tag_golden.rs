//! Golden structure and traffic fixtures for the TAG load path.
//!
//! `TagGraph::build` must keep producing *the same graph*: vertex ids follow
//! insertion order (a tuple vertex, then the attribute vertices of its
//! first-seen values), labels are interned in schema order, and each
//! vertex's CSR range is `(label, target)`-sorted. Shard assignment, message
//! order, float fold order, hash placement and every network-byte total hang
//! off those ids, so a change to how the graph is *built* is held to two
//! fixtures captured before the flat-array load path was written:
//!
//! * `golden/tag_structure.txt` — per suite × seed: vertex and edge counts,
//!   the vertex- and edge-label tables in id order, and a 64-bit hash over
//!   every vertex's label, out-edge sequence and payload values;
//! * `golden/tag_traffic_hash4.txt` — per workload query under hash
//!   placement on 4 machines: every `RunStats` total and one line per edge
//!   label that carried traffic.
//!
//! Neither file may be regenerated to make a load-path change pass: a diff
//! here means a different graph is being built.

use std::fmt::Write;
use std::hash::{Hash, Hasher};
use vcsql::bsp::{EngineConfig, Interner, LabelId, PartitionStrategy};
use vcsql::core::{QueryPlan, TagJoinExecutor};
use vcsql::tag::TagGraph;
use vcsql::workload::{tpcds, tpch, BenchQuery};
use vcsql_relation::Database;

const SF: f64 = 0.01;
const MACHINES: usize = 4;
const STRUCTURE: &str = include_str!("golden/tag_structure.txt");
const TRAFFIC: &str = include_str!("golden/tag_traffic_hash4.txt");

/// FNV-1a, spelled out so the fixture does not depend on the standard
/// library's default hasher.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Counts, label tables and the structure hash of one database's TAG.
fn structure(name: &str, seed: u64, db: &Database, out: &mut String) {
    let tag = TagGraph::build(db);
    let g = tag.graph();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for v in g.vertices() {
        h.write_u32(g.label_of(v).0);
        h.write_usize(g.degree(v));
        for e in g.out_edges(v) {
            h.write_u32(e.label.0);
            h.write_u32(e.target);
        }
        if let Some(t) = tag.tuple(v) {
            h.write_u8(1);
            t.hash(&mut h);
        }
        if let Some(a) = tag.attr_value(v) {
            h.write_u8(2);
            a.hash(&mut h);
        }
    }
    writeln!(
        out,
        "{name} seed={seed} vertices={} edges={} hash={:016x}",
        g.vertex_count(),
        g.edge_count(),
        h.finish()
    )
    .unwrap();
    let names = |labels: &Interner| labels.iter().map(|(_, n)| n).collect::<Vec<_>>().join(" ");
    let (vl, el) = (names(g.vertex_labels()), names(g.edge_labels()));
    writeln!(out, "  vertex labels: {vl}").unwrap();
    writeln!(out, "  edge labels: {el}").unwrap();
}

/// One line per query (`id supersteps active messages bytes net_messages
/// net_bytes`) followed by one indented line per edge label that carried
/// traffic, sorted by label name (label-less sends show as `-`).
fn traffic(db: &Database, queries: &[BenchQuery], out: &mut String) {
    let tag = TagGraph::build(db);
    let exec = TagJoinExecutor::new(&tag, EngineConfig::sequential())
        .with_partitioning(tag.partition(&PartitionStrategy::Hash, MACHINES));
    for q in queries {
        let plan = QueryPlan::prepare(q.sql, tag.schemas()).expect("plans");
        let stats = exec.execute_plan(&plan).expect("executes").stats;
        let t = stats.totals;
        writeln!(
            out,
            "{} {} {} {} {} {} {}",
            q.id,
            stats.supersteps,
            t.active_vertices,
            t.messages,
            t.message_bytes,
            t.network_messages,
            t.network_bytes
        )
        .unwrap();
        let mut labels: Vec<(&str, _)> = stats
            .per_label
            .iter()
            .map(|(&l, t)| {
                (if l == LabelId::NONE { "-" } else { tag.graph().edge_label_name(l) }, *t)
            })
            .collect();
        labels.sort_by_key(|&(name, _)| name);
        for (name, t) in labels {
            writeln!(
                out,
                "  {name} {} {} {} {}",
                t.messages, t.bytes, t.network_messages, t.network_bytes
            )
            .unwrap();
        }
    }
}

fn assert_matches(what: &str, got: &str, pinned: &str) {
    for (n, (g, w)) in got.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(g, w, "{what} fixture line {} differs (got vs pinned)", n + 1);
    }
    assert_eq!(got.lines().count(), pinned.lines().count(), "{what} fixture length differs");
}

#[test]
fn graph_structure_is_pinned() {
    let mut got = String::new();
    for seed in [42, 7] {
        structure("tpch", seed, &tpch::generate(SF, seed), &mut got);
        structure("tpcds", seed, &tpcds::generate(SF, seed), &mut got);
    }
    assert_matches("structure", &got, STRUCTURE);
}

#[test]
fn per_query_and_per_label_traffic_is_pinned() {
    let mut got = String::new();
    traffic(&tpch::generate(SF, 42), &tpch::queries(), &mut got);
    traffic(&tpcds::generate(SF, 42), &tpcds::queries(), &mut got);
    assert_eq!(got.lines().filter(|l| !l.starts_with(' ')).count(), 35, "35 workload queries");
    assert_matches("traffic", &got, TRAFFIC);
}
