//! # vcsql-bench — the experiment harness
//!
//! The four "systems" under comparison, timing helpers and markdown table
//! rendering, and the `repro` experiments built on them ([`repro`]). See
//! DESIGN.md's experiment index for the mapping from paper tables/figures to
//! modes.

/// `println!` through [`emit`], so a closed stdout ends the process
/// quietly instead of panicking.
macro_rules! outln {
    () => {
        $crate::emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

pub mod repro;

use std::io::{ErrorKind, Write};
use std::sync::Arc;
use vcsql_baseline::{execute as row_execute, ColumnarDatabase, ExecConfig, JoinAlgo};
use vcsql_query::analyze::Analyzed;
use vcsql_relation::expr::{Expr, Predicate};
use vcsql_relation::{Database, RelError, Relation};
use vcsql_session::Session;
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
    /// Every system in declaration order, so `sys as usize` is its index
    /// here and in per-system arrays.
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

/// Everything loaded once per (benchmark, scale factor). The TAG is shared
/// so a [`Session`] can be opened over it.
pub struct Loaded {
    pub db: Database,
    pub tag: Arc<TagGraph>,
    pub columnar: ColumnarDatabase,
}

impl Loaded {
    pub fn new(db: Database) -> Loaded {
        let tag = Arc::new(TagGraph::build(&db));
        let columnar = ColumnarDatabase::from_database(&db);
        Loaded { db, tag, columnar }
    }
}

/// Time a closure, returning (result, seconds).
#[allow(clippy::disallowed_types, reason = "the experiments' one stopwatch")]
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Timed runs per statement and system in [`time_systems`]: one timed run
/// left suite totals ±20–30% apart between identical invocations on a
/// 2-core host.
const TIMED_RUNS: usize = 3;

/// One statement's wall seconds on each system, indexed by [`System`] (in
/// [`System::ALL`] order). Each system runs it once untimed, then
/// `TIMED_RUNS` times timed, and reports the median: TAG-join runs the
/// statement `session` planned, and its untimed run chooses the plan's
/// shape, so neither planning nor the cost model is timed. Every untimed
/// bag must equal row-hash's. Only TAG-join reads the session's engine; the
/// baselines are single-threaded by design.
pub fn time_systems(loaded: &Loaded, session: &mut Session, sql: &str) -> Result<[f64; 4]> {
    let prepared = session.prepare(sql)?;
    let a = prepared.plan().analyzed();
    let mut run = |sys| match sys {
        System::TagJoin => session.execute(&prepared).map(|(out, _)| out.relation),
        System::RowHash => row_execute(a, &loaded.db, ExecConfig { join: JoinAlgo::Hash }),
        System::RowSortMerge => {
            row_execute(a, &loaded.db, ExecConfig { join: JoinAlgo::SortMerge })
        }
        System::Columnar => columnar_execute(a, loaded),
    };
    let mut bags = Vec::new();
    let mut secs = [0.0; 4];
    for sys in System::ALL {
        bags.push(run(sys)?);
        let mut runs = [0.0; TIMED_RUNS];
        for r in &mut runs {
            let (out, s) = time(|| run(sys));
            out?;
            *r = s;
        }
        runs.sort_unstable_by(f64::total_cmp);
        secs[sys as usize] = runs[TIMED_RUNS / 2];
    }
    let reference = &bags[System::RowHash as usize];
    for (sys, bag) in System::ALL.iter().zip(&bags) {
        if !bag.same_bag_approx(reference, 1e-9) {
            return Err(RelError::Other(format!("{}'s bag differs from row_hash's", sys.name())));
        }
    }
    Ok(secs)
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
                    let pred = Predicate::new(f.bind(&|_| Ok(0))?);
                    let pass = table.columns[col]
                        .select(|v| pred.passes(std::slice::from_ref(v)).unwrap_or(false));
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
    outln!("{}", markdown_table(headers, rows));
}

/// Write `args` to stdout through its lock. A closed stdout — its reader
/// went away, as in `repro … | head` — ends the process quietly with status
/// 0; any other write error ends it with a message and status 1.
pub fn emit(args: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    match out.write_fmt(args).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("repro: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
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
    use vcsql_query::{analyze::analyze, parse};
    use vcsql_session::SessionConfig;
    use vcsql_workload::tpch;

    #[test]
    fn all_systems_agree_on_a_query() {
        let loaded = Loaded::new(tpch::generate(0.01, 5));
        let mut session = Session::open(&loaded.tag, SessionConfig::default()).unwrap();
        let secs = time_systems(
            &loaded,
            &mut session,
            "SELECT n.n_name, COUNT(*) AS cnt FROM nation n, customer c \
             WHERE n.n_nationkey = c.c_nationkey AND c.c_acctbal > 0 GROUP BY n.n_name",
        )
        .expect("every system's bag equals row-hash's");
        assert!(secs.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn vectorized_filter_detection() {
        let loaded = Loaded::new(tpch::generate(0.01, 5));
        let sql =
            "SELECT c.c_name FROM customer c WHERE c.c_acctbal > 0 AND c.c_mktsegment = 'BUILDING'";
        let a = analyze(&parse(sql).unwrap(), loaded.tag.schemas()).unwrap();
        for f in &a.tables[0].filters {
            assert!(vectorizable_column(f, &a, 0).is_some());
        }
        let out = columnar_execute(&a, &loaded).unwrap();
        let reference = row_execute(&a, &loaded.db, ExecConfig { join: JoinAlgo::Hash }).unwrap();
        assert!(out.same_bag_approx(&reference, 1e-9));
    }

    #[test]
    fn markdown_rendering() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
