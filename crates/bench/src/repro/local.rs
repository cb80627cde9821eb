//! E1–E12: the single-machine experiments — loading, sizes, per-query
//! runtimes across the four systems and their drill-downs, working sets.

use super::{Args, Suite, SEED, SUITES, TPCDS, TPCH};
use crate::{ms, prepare, print_table, run_system_with, speedup, time, Loaded, System};
use std::collections::BTreeMap;
use vcsql_bsp::EngineConfig;
use vcsql_query::AggClass;
use vcsql_relation::mem::human_bytes;
use vcsql_relation::Database;
use vcsql_tag::TagGraph;

/// Deep size of the TPC protocol's PK/FK indexes over `db`.
fn index_bytes(db: &Database) -> usize {
    db.relations().flat_map(vcsql_baseline::index::build_pk_fk_indexes).map(|i| i.deep_size()).sum()
}

/// Wall seconds of one workload query on every system, by system name.
fn time_systems(loaded: &Loaded, sql: &str, engine: EngineConfig) -> BTreeMap<&'static str, f64> {
    let a = prepare(loaded, sql).expect("workload query analyzes");
    System::ALL
        .iter()
        .map(|&sys| (sys.name(), run_system_with(loaded, sys, &a, engine).expect("query runs").1))
        .collect()
}

/// TAG-join's time and its speedup over each relational engine.
fn tag_vs_others(secs: &BTreeMap<&str, f64>) -> Vec<String> {
    let of = |sys: System| secs[sys.name()];
    let tag = of(System::TagJoin);
    let vs = [System::RowHash, System::RowSortMerge, System::Columnar];
    std::iter::once(ms(tag)).chain(vs.map(|other| speedup(tag, of(other)))).collect()
}

/// E1 — Tables 1-2: loading times.
pub(super) fn loading(a: &Args) {
    println!("\n## E1 — Loading times (paper Tables 1-2), seconds\n");
    for suite in SUITES {
        let mut rows = Vec::new();
        for &sf in &a.sfs {
            let db = (suite.generate)(sf, SEED);
            let (_, gen_s) = time(|| (suite.generate)(sf, SEED));
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
        println!("### {}\n", suite.title);
        print_table(
            &["SF", "tuples", "generate", "row+index load", "columnar load", "TAG load"],
            &rows,
        );
    }
}

/// E2 — Fig 14 / Table 15: loaded sizes.
pub(super) fn sizes(a: &Args) {
    println!("\n## E2 — Loaded data sizes (paper Fig 14 / Table 15)\n");
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
        println!("### {}\n", suite.title);
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

pub(super) fn tpch(a: &Args) {
    runtimes(&TPCH, a);
}

pub(super) fn tpcds(a: &Args) {
    runtimes(&TPCDS, a);
}

/// E3/E4/E5/E6/E14 — per-query and aggregate runtimes across systems.
fn runtimes(suite: &Suite, a: &Args) {
    println!("\n## {} runtimes (paper Fig 13, Tables 8-14), ms\n", suite.title);
    for &sf in &a.sfs {
        let loaded = suite.load(sf);
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        let mut rows = Vec::new();
        for q in (suite.queries)() {
            let secs = time_systems(&loaded, q.sql, a.engine());
            let mut row = vec![q.id.to_string()];
            for sys in System::ALL {
                *totals.entry(sys.name()).or_insert(0.0) += secs[sys.name()];
                row.push(ms(secs[sys.name()]));
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
        print_table(&headers, &rows);
    }
}

/// E7/E8 — Tables 3-4: TPC-H class drill-down.
pub(super) fn tpch_classes(a: &Args) {
    println!("\n## E7/E8 — TPC-H drill-down (paper Tables 3-4)\n");
    let loaded = TPCH.load(a.sf());
    let mut la_rows = Vec::new();
    let mut ga_rows = Vec::new();
    for q in (TPCH.queries)() {
        let secs = time_systems(&loaded, q.sql, a.engine());
        if q.class == AggClass::Local || q.correlated {
            let class = if q.correlated { "corr" } else { "LA" };
            let mut row = vec![q.id.to_string(), class.to_string()];
            row.extend(tag_vs_others(&secs));
            la_rows.push(row);
        } else {
            let mut row = vec![q.id.to_string(), format!("{:?}", q.class)];
            row.extend(System::ALL.iter().map(|s| ms(secs[s.name()])));
            ga_rows.push(row);
        }
    }
    println!("### Table 3 shape: LA / correlated queries — TAG-join time and speedups\n");
    print_table(
        &["query", "class", "tag_join ms", "vs row_hash", "vs row_merge", "vs columnar_im"],
        &la_rows,
    );
    println!("### Table 4 shape: GA / scalar queries — absolute times (ms)\n");
    print_table(&["query", "class", "tag_join", "row_hash", "row_merge", "columnar_im"], &ga_rows);
}

/// E9 — Table 5: win/competitive/lose counts.
pub(super) fn tpcds_matrix(a: &Args) {
    println!("\n## E9 — TPC-DS outcome matrix (paper Table 5)\n");
    let loaded = TPCDS.load(a.sf());
    let queries = (TPCDS.queries)();
    let mut counts: BTreeMap<&str, (u32, u32, u32)> = BTreeMap::new();
    for q in &queries {
        let secs = time_systems(&loaded, q.sql, a.engine());
        let tag = secs[System::TagJoin.name()];
        for (&sys, &other) in secs.iter().filter(|(&sys, _)| sys != System::TagJoin.name()) {
            let e = counts.entry(sys).or_insert((0, 0, 0));
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
    print_table(&["vs system", "outperforms", "competitive", "worse"], &rows);
}

/// E10 — Table 6: per-class TPC-DS speedups.
pub(super) fn tpcds_classes(a: &Args) {
    println!("\n## E10 — TPC-DS per-class speedups (paper Table 6)\n");
    let loaded = TPCDS.load(a.sf());
    let mut rows = Vec::new();
    for q in (TPCDS.queries)() {
        let secs = time_systems(&loaded, q.sql, a.engine());
        let mut row = vec![q.id.to_string(), format!("{:?}", q.class)];
        row.extend(tag_vs_others(&secs));
        rows.push(row);
    }
    print_table(
        &["query", "class", "tag_join ms", "vs row_hash", "vs row_merge", "vs columnar_im"],
        &rows,
    );
}

/// E11 — Fig 15: aggregate runtime by aggregation class.
pub(super) fn agg_breakdown(a: &Args) {
    println!("\n## E11 — TPC-DS aggregate runtime by aggregation class (paper Fig 15), ms\n");
    let loaded = TPCDS.load(a.sf());
    let mut per_class: BTreeMap<String, BTreeMap<&str, f64>> = BTreeMap::new();
    for q in (TPCDS.queries)() {
        let class = per_class.entry(format!("{:?}", q.class)).or_default();
        for (sys, s) in time_systems(&loaded, q.sql, a.engine()) {
            *class.entry(sys).or_insert(0.0) += s;
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
    print_table(&headers, &rows);
}

/// E12 — Table 7: working-set bytes.
pub(super) fn memory(a: &Args) {
    println!("\n## E12 — Working-set bytes during execution (paper Table 7)\n");
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
        println!("### {} @ SF {sf}\n", suite.title);
        print_table(&["engine", "resident bytes"], &rows);
    }
}
