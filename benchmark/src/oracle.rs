//! The correctness oracle, kept off the clock.
//!
//! Reference bags come from the row-store hash-join baseline over the same
//! generated database. The first TAG execution of every statement must equal
//! its reference as a bag (floats to 1e-9); later executions, which sit
//! inside timed windows, are checked by row count only. Anything else — an
//! `Err`, a panic the engine turned into an `Err`, a mismatch — is a failed
//! statement.

use crate::workloads::Stmt;
use std::time::Instant;
use vcsql::baseline::{execute, ExecConfig, JoinAlgo};
use vcsql::core::QueryPlan;
use vcsql::relation::{Database, RelError, Relation};
use vcsql::tag::TagGraph;

/// Float tolerance of bag comparison: engines sum in different orders.
const EPS: f64 = 1e-9;

/// Statements attempted and failed, with the first failure kept for the
/// report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
                false
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

pub struct Reference {
    pub stmt: Stmt,
    /// The harness's own cold plan of the statement: the baseline runs its
    /// analyzed form, the direct executor passes run the plan itself.
    pub plan: QueryPlan,
    pub expected: Relation,
}

/// One reference per statement, aligned with the statement list it was
/// built from.
pub struct Oracle {
    pub refs: Vec<Reference>,
}

impl Oracle {
    /// Plan every statement and run it on the row-hash baseline. An error
    /// here is a broken harness or generator, not a failed statement.
    pub fn build(db: &Database, tag: &TagGraph, stmts: &[Stmt]) -> Result<Oracle, RelError> {
        let refs = stmts
            .iter()
            .map(|&stmt| {
                let plan = QueryPlan::prepare(stmt.sql, tag.schemas())?;
                let expected = row_hash(&plan, db)?;
                Ok(Reference { stmt, plan, expected })
            })
            .collect::<Result<_, RelError>>()?;
        Ok(Oracle { refs })
    }

    /// Full check: the result equals the reference as a bag.
    pub fn check_bag(&self, i: usize, got: Result<&Relation, String>) -> Result<(), String> {
        let r = &self.refs[i];
        let got = got.map_err(|e| format!("{}: {e}", r.stmt.id))?;
        if got.same_bag_approx(&r.expected, EPS) {
            Ok(())
        } else {
            Err(format!(
                "{}: result bag differs from row-hash ({} rows vs {})",
                r.stmt.id,
                got.len(),
                r.expected.len()
            ))
        }
    }

    /// Cheap check for timed windows: the row count matches.
    pub fn check_rows(&self, i: usize, got: Result<usize, String>) -> Result<(), String> {
        let r = &self.refs[i];
        let rows = got.map_err(|e| format!("{}: {e}", r.stmt.id))?;
        if rows == r.expected.len() {
            Ok(())
        } else {
            Err(format!("{}: {rows} rows, reference has {}", r.stmt.id, r.expected.len()))
        }
    }

    /// One row-hash pass over `range` of the statements, results discarded.
    /// Returns its wall-clock seconds: the denominator of `tag_over_row`.
    pub fn row_hash_pass(
        &self,
        db: &Database,
        range: std::ops::Range<usize>,
    ) -> Result<f64, RelError> {
        let start = Instant::now();
        for r in &self.refs[range] {
            std::hint::black_box(row_hash(&r.plan, db)?);
        }
        Ok(start.elapsed().as_secs_f64())
    }

    /// Statement ids, aligned with `refs`.
    pub fn ids(&self) -> Vec<&'static str> {
        self.refs.iter().map(|r| r.stmt.id).collect()
    }
}

fn row_hash(plan: &QueryPlan, db: &Database) -> Result<Relation, RelError> {
    execute(plan.analyzed(), db, ExecConfig { join: JoinAlgo::Hash })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workloads::{Data, Dataset};
    use vcsql::bsp::EngineConfig;
    use vcsql::core::TagJoinExecutor;

    /// The self-test the issue asks for: feed the oracle a wrong reference
    /// and it must report failures, by bag and by row count.
    #[test]
    fn a_wrong_reference_is_a_failure() {
        let data = Dataset::build(Data::Tpch, 0.01, 7, &mut Tracer::new(false));
        let stmts = data.all_stmts();
        let mut oracle = Oracle::build(&data.db, &data.tag, &stmts).unwrap();
        let exec = TagJoinExecutor::new(&data.tag, EngineConfig::sequential());
        let run = |oracle: &Oracle| {
            let mut tally = Tally::default();
            for (i, r) in oracle.refs.iter().enumerate() {
                let out = exec.execute_plan(&r.plan).map_err(|e| e.to_string());
                tally.record(
                    oracle.check_bag(i, out.as_ref().map(|o| &o.relation).map_err(String::clone)),
                );
                tally.record(oracle.check_rows(i, out.map(|o| o.relation.len())));
            }
            tally
        };
        let clean = run(&oracle);
        assert_eq!(clean.failed, 0, "{:?}", clean.first_failure);
        assert_eq!(clean.attempted, 2 * stmts.len() as u64);

        // q1's reference replaced by q6's: a different bag and row count.
        let q1 = stmts.iter().position(|s| s.id == "q1").unwrap();
        let q6 = stmts.iter().position(|s| s.id == "q6").unwrap();
        oracle.refs[q1].expected = oracle.refs[q6].expected.clone();
        let wrong = run(&oracle);
        assert_eq!(wrong.failed, 2);
        assert!(wrong.failed_frac() > 0.0);
        assert!(wrong.first_failure.unwrap().starts_with("q1:"));
    }

    #[test]
    fn an_error_is_a_failure() {
        let mut tally = Tally::default();
        assert!(tally.record(Ok(())));
        assert!(!tally.record(Err("boom".into())));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_frac(), 0.5);
    }
}
