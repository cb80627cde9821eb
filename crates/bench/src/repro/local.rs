//! E1–E12: the single-machine experiments — loading, sizes, per-query
//! runtimes across the four systems and their drill-downs, working sets.
//! The drill-downs read the runtime table's own timings.

use super::{Args, Suite, SEED, SUITES, TPCDS, TPCH};
use crate::{ms, print_table, speedup, time, time_systems, System};
use std::collections::BTreeMap;
use vcsql_query::AggClass;
use vcsql_relation::mem::human_bytes;
use vcsql_relation::Database;
use vcsql_session::{Session, SessionConfig};
use vcsql_tag::TagGraph;
use vcsql_workload::BenchQuery;

/// Deep size of the TPC protocol's PK/FK indexes over `db`.
fn index_bytes(db: &Database) -> usize {
    db.relations().flat_map(vcsql_baseline::index::build_pk_fk_indexes).map(|i| i.deep_size()).sum()
}

/// TAG-join's time and its speedup over each relational engine.
fn tag_vs_others(secs: &[f64; 4]) -> Vec<String> {
    let tag = secs[System::TagJoin as usize];
    let vs = [System::RowHash, System::RowSortMerge, System::Columnar];
    std::iter::once(ms(tag)).chain(vs.map(|other| speedup(tag, secs[other as usize]))).collect()
}

/// E1 — Tables 1-2: loading times.
pub(super) fn loading(a: &Args) {
    outln!("\n## E1 — Loading times (paper Tables 1-2), seconds\n");
    for suite in SUITES {
        let mut rows = Vec::new();
        for &sf in &a.sfs {
            let (db, gen_s) = time(|| (suite.generate)(sf, SEED));
            let (_, tag_s) = time(|| TagGraph::build(&db));
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
            rows.push(vec![
                format!("{sf}"),
                format!("{}", db.total_tuples()),
                format!("{gen_s:.3}"),
                format!("{row_s:.3}"),
                format!("{col_s:.3}"),
                format!("{tag_s:.3}"),
            ]);
        }
        outln!("### {}\n", suite.title);
        print_table(
            &["SF", "tuples", "generate", "row+index load", "columnar load", "TAG load"],
            &rows,
        );
    }
}

/// E2 — Fig 14 / Table 15: loaded sizes.
pub(super) fn sizes(a: &Args) {
    outln!("\n## E2 — Loaded data sizes (paper Fig 14 / Table 15)\n");
    for suite in SUITES {
        let mut rows = Vec::new();
        for &sf in &a.sfs {
            let loaded = suite.load(sf);
            let stats = loaded.tag.stats();
            rows.push(vec![
                format!("{sf}"),
                human_bytes(loaded.db.deep_size() + index_bytes(&loaded.db)),
                human_bytes(loaded.columnar.deep_size()),
                human_bytes(stats.bytes),
                format!("{}", stats.tuple_vertices),
                format!("{}", stats.attr_vertices),
                format!("{}", stats.edges / 2),
            ]);
        }
        outln!("### {}\n", suite.title);
        print_table(
            &[
                "SF",
                "row store + indexes",
                "columnar (dict)",
                "TAG graph",
                "tuple-v",
                "attr-v",
                "edges",
            ],
            &rows,
        );
    }
}

/// E3–E6/E14 and, at the last SF, E7/E8 — TPC-H runtimes and drill-down.
pub(super) fn tpch(a: &Args) {
    tpch_classes(&runtimes(&TPCH, a), a.sf());
}

/// E3–E6/E14 and, at the last SF, E9–E11 — TPC-DS runtimes and drill-downs.
pub(super) fn tpcds(a: &Args) {
    let timed = runtimes(&TPCDS, a);
    tpcds_matrix(&timed, a.sf());
    tpcds_classes(&timed, a.sf());
    agg_breakdown(&timed, a.sf());
}

/// Each statement of a suite with its wall seconds per system.
type Timed = Vec<(BenchQuery, [f64; 4])>;

/// Per-query and total runtimes across systems at each SF, from one timing
/// pass per SF ([`time_systems`] over one session per SF). Returns the last
/// SF's timings, which the drill-down tables read. A statement that fails,
/// or whose bag differs from row-hash's, exits 1.
fn runtimes(suite: &Suite, a: &Args) -> Timed {
    outln!("\n## {} runtimes (paper Fig 13, Tables 8-14), ms\n", suite.title);
    let mut timed = Vec::new();
    for &sf in &a.sfs {
        let loaded = suite.load(sf);
        let config = SessionConfig { engine: a.engine(), ..Default::default() };
        let mut session = Session::open(&loaded.tag, config).expect("session opens");
        timed = (suite.queries)()
            .into_iter()
            .map(|q| match time_systems(&loaded, &mut session, q.sql) {
                Ok(secs) => (q, secs),
                Err(e) => {
                    eprintln!("repro: {} {} at SF {sf}: {e}", suite.name, q.id);
                    std::process::exit(1);
                }
            })
            .collect();
        let mut rows: Vec<Vec<String>> = timed
            .iter()
            .map(|(q, secs)| std::iter::once(q.id.to_string()).chain(secs.map(ms)).collect())
            .collect();
        let totals = System::ALL.map(|s| timed.iter().map(|(_, secs)| secs[s as usize]).sum());
        rows.push(
            std::iter::once(format!("**total (SF {sf})**"))
                .chain(totals.map(|t| format!("**{}**", ms(t))))
                .collect(),
        );
        let mut headers = vec![format!("query @ SF {sf}")];
        headers.extend(System::ALL.iter().map(|s| s.name().to_string()));
        print_table(&headers, &rows);
    }
    timed
}

/// E7/E8 — Tables 3-4: TPC-H class drill-down.
fn tpch_classes(timed: &Timed, sf: f64) {
    outln!("\n## E7/E8 — TPC-H drill-down @ SF {sf} (paper Tables 3-4)\n");
    let mut la_rows = Vec::new();
    let mut ga_rows = Vec::new();
    for (q, secs) in timed {
        if q.class == AggClass::Local || q.correlated {
            let class = if q.correlated { "corr" } else { "LA" };
            let mut row = vec![q.id.to_string(), class.to_string()];
            row.extend(tag_vs_others(secs));
            la_rows.push(row);
        } else {
            let mut row = vec![q.id.to_string(), format!("{:?}", q.class)];
            row.extend(secs.map(ms));
            ga_rows.push(row);
        }
    }
    outln!("### Table 3 shape: LA / correlated queries — TAG-join time and speedups\n");
    print_table(
        &["query", "class", "tag_join ms", "vs row_hash", "vs row_merge", "vs columnar_im"],
        &la_rows,
    );
    outln!("### Table 4 shape: GA / scalar queries — absolute times (ms)\n");
    print_table(&["query", "class", "tag_join", "row_hash", "row_merge", "columnar_im"], &ga_rows);
}

/// E9 — Table 5: win/competitive/lose counts.
fn tpcds_matrix(timed: &Timed, sf: f64) {
    outln!("\n## E9 — TPC-DS outcome matrix @ SF {sf} (paper Table 5)\n");
    let mut counts: BTreeMap<&str, (u32, u32, u32)> = BTreeMap::new();
    for (_, secs) in timed {
        let tag = secs[System::TagJoin as usize];
        for sys in [System::RowHash, System::RowSortMerge, System::Columnar] {
            let other = secs[sys as usize];
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
    outln!("total queries: {}\n", timed.len());
    print_table(&["vs system", "outperforms", "competitive", "worse"], &rows);
}

/// E10 — Table 6: per-class TPC-DS speedups.
fn tpcds_classes(timed: &Timed, sf: f64) {
    outln!("\n## E10 — TPC-DS per-class speedups @ SF {sf} (paper Table 6)\n");
    let rows: Vec<Vec<String>> = timed
        .iter()
        .map(|(q, secs)| {
            let mut row = vec![q.id.to_string(), format!("{:?}", q.class)];
            row.extend(tag_vs_others(secs));
            row
        })
        .collect();
    print_table(
        &["query", "class", "tag_join ms", "vs row_hash", "vs row_merge", "vs columnar_im"],
        &rows,
    );
}

/// E11 — Fig 15: aggregate runtime by aggregation class.
fn agg_breakdown(timed: &Timed, sf: f64) {
    outln!(
        "\n## E11 — TPC-DS aggregate runtime by aggregation class @ SF {sf} (paper Fig 15), ms\n"
    );
    let mut per_class: BTreeMap<String, [f64; 4]> = BTreeMap::new();
    for (q, secs) in timed {
        let class = per_class.entry(format!("{:?}", q.class)).or_default();
        for (sum, s) in class.iter_mut().zip(secs) {
            *sum += s;
        }
    }
    let rows: Vec<Vec<String>> = per_class
        .iter()
        .map(|(class, sums)| std::iter::once(class.clone()).chain(sums.map(ms)).collect())
        .collect();
    let mut headers = vec!["class".to_string()];
    headers.extend(System::ALL.iter().map(|s| s.name().to_string()));
    print_table(&headers, &rows);
}

/// E12 — Table 7: working-set bytes.
pub(super) fn memory(a: &Args) {
    outln!("\n## E12 — Working-set bytes during execution (paper Table 7)\n");
    let sf = a.sf();
    for suite in SUITES {
        let loaded = suite.load(sf);
        let rows = vec![
            vec![
                "row store (+indexes)".into(),
                human_bytes(loaded.db.deep_size() + index_bytes(&loaded.db)),
            ],
            vec!["columnar (dictionary)".into(), human_bytes(loaded.columnar.deep_size())],
            vec!["TAG graph (+payloads)".into(), human_bytes(loaded.tag.stats().bytes)],
        ];
        outln!("### {} @ SF {sf}\n", suite.title);
        print_table(&["engine", "resident bytes"], &rows);
    }
}
