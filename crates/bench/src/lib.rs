//! # vcsql-bench — the experiment harness
//!
//! The four "systems" under comparison, timing helpers and markdown table
//! rendering, and the `repro` experiments built on them ([`repro`]). See
//! DESIGN.md's experiment index for the mapping from paper tables/figures to
//! modes.

pub mod repro;

use std::sync::{Arc, Mutex, OnceLock};
use vcsql_baseline::{execute as row_execute, ColumnarDatabase, ExecConfig, JoinAlgo};
use vcsql_bsp::{EngineConfig, WorkerPool};
use vcsql_core::TagJoinExecutor;
use vcsql_query::analyze::{analyze, Analyzed};
use vcsql_query::parse;
use vcsql_relation::expr::Expr;
use vcsql_relation::{Database, RelError, Relation};
use vcsql_tag::TagGraph;

type Result<T> = std::result::Result<T, RelError>;

/// The contenders (paper: TAG_tg, psql/rdbmsX row stores, rdbmsY sort-merge,
/// rdbmsX_im column store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Vertex-centric TAG-join (the paper's contribution).
    TagJoin,
    /// Row store with hash joins (PostgreSQL / RDBMS-X stand-in).
    RowHash,
    /// Row store with sort-merge joins (RDBMS-Y stand-in).
    RowSortMerge,
    /// Dictionary column store scans + row joins (RDBMS-X IM stand-in).
    Columnar,
}

impl System {
    pub const ALL: [System; 4] =
        [System::TagJoin, System::RowHash, System::RowSortMerge, System::Columnar];

    pub fn name(&self) -> &'static str {
        match self {
            System::TagJoin => "tag_join",
            System::RowHash => "row_hash",
            System::RowSortMerge => "row_merge",
            System::Columnar => "columnar_im",
        }
    }
}

/// Everything loaded once per (benchmark, scale factor).
pub struct Loaded {
    pub db: Database,
    pub tag: TagGraph,
    pub columnar: ColumnarDatabase,
}

impl Loaded {
    pub fn new(db: Database) -> Loaded {
        let tag = TagGraph::build(&db);
        let columnar = ColumnarDatabase::from_database(&db);
        Loaded { db, tag, columnar }
    }
}

/// Process-wide persistent [`WorkerPool`] per thread count, so repeated
/// timed runs (every query of a whole `repro` invocation)
/// reuse parked workers instead of measuring pool construction. Pools are
/// cheap until their first fan-out, so keeping one per distinct thread
/// count for the process lifetime costs nothing at rest.
pub fn shared_pool(threads: usize) -> Arc<WorkerPool> {
    type PoolSlot = (usize, Arc<WorkerPool>);
    static POOLS: OnceLock<Mutex<Vec<PoolSlot>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(Vec::new()));
    let mut pools = pools.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, pool)) = pools.iter().find(|(t, _)| *t == threads) {
        return Arc::clone(pool);
    }
    let pool = Arc::new(WorkerPool::new(threads));
    pools.push((threads, Arc::clone(&pool)));
    pool
}

/// Time a closure, returning (result, seconds).
#[allow(clippy::disallowed_types, reason = "the experiments' one stopwatch")]
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Parse + analyze a query against the loaded schemas.
pub fn prepare(loaded: &Loaded, sql: &str) -> Result<Analyzed> {
    analyze(&parse(sql)?, loaded.tag.schemas())
}

/// Run one query on one system, returning the result and wall seconds.
/// Only the TAG system reads `engine`; the baselines are single-threaded by
/// design. `EngineConfig::default()`'s thread count follows
/// `available_parallelism` and therefore **varies across hosts** —
/// measurements that must be comparable should pin a count.
pub fn run_system_with(
    loaded: &Loaded,
    system: System,
    a: &Analyzed,
    engine: EngineConfig,
) -> Result<(Relation, f64)> {
    match system {
        System::TagJoin => {
            let mut exec = TagJoinExecutor::new(&loaded.tag, engine);
            if engine.threads > 1 {
                exec = exec.with_worker_pool(shared_pool(engine.threads));
            }
            let (out, secs) = time(|| exec.execute(a));
            Ok((out?.relation, secs))
        }
        System::RowHash => {
            let (out, secs) =
                time(|| row_execute(a, &loaded.db, ExecConfig { join: JoinAlgo::Hash }));
            Ok((out?, secs))
        }
        System::RowSortMerge => {
            let (out, secs) =
                time(|| row_execute(a, &loaded.db, ExecConfig { join: JoinAlgo::SortMerge }));
            Ok((out?, secs))
        }
        System::Columnar => {
            let (out, secs) = time(|| columnar_execute(a, loaded));
            Ok((out?, secs))
        }
    }
}

/// The column-store hybrid: single-column filters are evaluated vectorized
/// over each column's dictionary (predicate per *distinct value*, then a
/// code scan), the surviving rows are materialized, and joins/aggregation
/// reuse the row engine — the hybrid execution style of in-memory column
/// stores.
pub fn columnar_execute(a: &Analyzed, loaded: &Loaded) -> Result<Relation> {
    let mut filtered = Database::new();
    let mut stripped = a.clone();
    for (t, binding) in a.tables.iter().enumerate() {
        let table = loaded
            .columnar
            .get(&binding.relation)
            .ok_or_else(|| RelError::UnknownRelation(binding.relation.clone()))?;
        let mut selected = vec![true; table.rows];
        let mut residual_filters = Vec::new();
        for f in &binding.filters {
            match vectorizable_column(f, a, t) {
                Some(col) => {
                    let bound = f.bind(&|_| Ok(0))?;
                    let pass = table.columns[col]
                        .select(|v| bound.passes(std::slice::from_ref(v)).unwrap_or(false));
                    for (s, p) in selected.iter_mut().zip(&pass) {
                        *s &= *p;
                    }
                }
                None => residual_filters.push(f.clone()),
            }
        }
        let rows = table.materialize_rows(Some(&selected));
        let mut rel = Relation::empty(binding.schema.clone());
        for r in rows {
            rel.push(vcsql_relation::Tuple::new(r))?;
        }
        if !filtered.contains(&binding.relation) {
            filtered.add(rel);
        } else {
            return Err(RelError::Other(
                "columnar executor does not support self-joins in one block".into(),
            ));
        }
        stripped.tables[t].filters = residual_filters;
    }
    // Subqueries may reference relations outside the outer FROM list; those
    // scan unfiltered (their own filters run inside the subquery execution).
    for rel in loaded.db.relations() {
        if !filtered.contains(rel.name()) {
            filtered.add(rel.clone());
        }
    }
    row_execute(&stripped, &filtered, ExecConfig { join: JoinAlgo::Hash })
}

/// If the filter touches exactly one column of table `t`, return that
/// column's index.
fn vectorizable_column(f: &Expr, a: &Analyzed, t: usize) -> Option<usize> {
    let mut cols = Vec::new();
    f.columns(&mut cols);
    let mut resolved = cols.iter().filter_map(|c| a.resolve(c).ok());
    let first = resolved.next()?;
    if first.0 != t || resolved.any(|x| x != first) {
        return None;
    }
    Some(first.1)
}

/// Print a markdown table and the blank line that ends it.
pub fn print_table(headers: &[impl std::borrow::Borrow<str>], rows: &[Vec<String>]) {
    println!("{}", markdown_table(headers, rows));
}

fn markdown_table(headers: &[impl std::borrow::Borrow<str>], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for r in rows {
        out.push_str(&format!("| {} |\n", r.join(" | ")));
    }
    out
}

/// Format seconds as milliseconds with 2 decimals.
pub fn ms(secs: f64) -> String {
    format!("{:.2}", secs * 1000.0)
}

/// Format a speedup ratio like the paper's tables ("4.4x").
pub fn speedup(base: f64, other: f64) -> String {
    if base <= 0.0 {
        return "-".into();
    }
    format!("{:.1}x", other / base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcsql_workload::tpch;

    #[test]
    fn all_systems_agree_on_a_query() {
        let loaded = Loaded::new(tpch::generate(0.01, 5));
        let a = prepare(
            &loaded,
            "SELECT n.n_name, COUNT(*) AS cnt FROM nation n, customer c \
             WHERE n.n_nationkey = c.c_nationkey AND c.c_acctbal > 0 GROUP BY n.n_name",
        )
        .unwrap();
        let (reference, _) =
            run_system_with(&loaded, System::RowHash, &a, EngineConfig::default()).unwrap();
        for sys in System::ALL {
            let (out, secs) = run_system_with(&loaded, sys, &a, EngineConfig::default()).unwrap();
            assert!(out.same_bag_approx(&reference, 1e-9), "{} differs", sys.name());
            assert!(secs >= 0.0);
        }
    }

    #[test]
    fn vectorized_filter_detection() {
        let loaded = Loaded::new(tpch::generate(0.01, 5));
        let a = prepare(
            &loaded,
            "SELECT c.c_name FROM customer c WHERE c.c_acctbal > 0 AND c.c_mktsegment = 'BUILDING'",
        )
        .unwrap();
        for f in &a.tables[0].filters {
            assert!(vectorizable_column(f, &a, 0).is_some());
        }
        let (out, _) =
            run_system_with(&loaded, System::Columnar, &a, EngineConfig::default()).unwrap();
        let (reference, _) =
            run_system_with(&loaded, System::RowHash, &a, EngineConfig::default()).unwrap();
        assert!(out.same_bag_approx(&reference, 1e-9));
    }

    #[test]
    fn markdown_rendering() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
