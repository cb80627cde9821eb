//! Measurements every workload takes the same way.
//!
//! A timed window is a sequence of *units* (a pass, a drift cycle; the serving
//! window is one unit) with the host sampled between them. Everything is
//! recorded on the wall clock; [`end_to_end`] takes medians and applies the
//! run's one host factor (see [`crate::calibrate`]).

use crate::calibrate::Host;
use crate::json::Json;
use crate::oracle::Oracle;
use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::workloads::Sizing;
use std::ops::Range;
use std::time::Instant;
use vcsql::core::QueryPlan;
use vcsql::relation::{Database, RelError};
use vcsql::tag::TagGraph;

pub const MIB: f64 = 1024.0 * 1024.0;

/// 1 Gbit/s, the bandwidth behind `dist.modelled_s` (a modelled number,
/// labelled as such wherever it is printed).
pub const MODELLED_BANDWIDTH: f64 = 125_000_000.0;

/// Run a cold set-up `n` times, dropping each product before the next
/// starts so memory peaks at one copy, and return the last product with the
/// median of the wall-clock seconds.
pub fn median_setup<T>(
    n: usize,
    host: &mut Host,
    mut setup: impl FnMut() -> Result<T, RelError>,
) -> Result<(T, f64), RelError> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        host.sample();
        let start = Instant::now();
        let product = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(product?);
    }
    host.sample();
    Ok((last.expect("at least one set-up ran"), median(&times)))
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Wall-clock latency samples, kept per statement so that a statement's
/// typical latency can be told from a pass's.
#[derive(Debug, Clone)]
pub struct Latencies {
    /// Milliseconds, one list per statement of the oracle.
    per_stmt: Vec<Vec<f64>>,
}

impl Latencies {
    pub fn new(stmts: usize) -> Latencies {
        Latencies { per_stmt: vec![Vec::new(); stmts] }
    }

    pub fn push(&mut self, stmt: usize, secs: f64) {
        self.per_stmt[stmt].push(secs * 1e3);
    }

    pub fn absorb(&mut self, other: Latencies) {
        for (mine, theirs) in self.per_stmt.iter_mut().zip(other.per_stmt) {
            mine.extend(theirs);
        }
    }

    pub fn len(&self) -> usize {
        self.per_stmt.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every sample, in milliseconds.
    pub fn all_ms(&self) -> Vec<f64> {
        self.per_stmt.iter().flatten().copied().collect()
    }

    /// Median milliseconds of each statement in `range` (0 for a statement
    /// that never ran).
    pub fn medians_ms(&self, range: Range<usize>) -> Vec<f64> {
        self.per_stmt[range].iter().map(|v| if v.is_empty() { 0.0 } else { median(v) }).collect()
    }

    /// Seconds of a typical pass over `range`: the sum of its statements'
    /// median latencies. A statement the host disturbed once, or that paid
    /// for an adaptation once, does not move it.
    pub fn typical_pass_secs(&self, range: Range<usize>) -> f64 {
        self.medians_ms(range).iter().sum::<f64>() / 1e3
    }
}

/// What a timed window hands to the end-to-end report, all on the wall
/// clock.
pub struct Window {
    pub latencies: Latencies,
    /// Verified statements per second of each timed unit, all clients.
    pub unit_rates: Vec<f64>,
    /// Seconds of each row-hash reference pass over the same statements,
    /// interleaved with the units.
    pub row_pass_secs: Vec<f64>,
    /// Median seconds of a cold set-up.
    pub setup_secs: f64,
}

impl Window {
    pub fn new(stmts: usize, setup_secs: f64) -> Window {
        Window {
            latencies: Latencies::new(stmts),
            unit_rates: Vec::new(),
            row_pass_secs: Vec::new(),
            setup_secs,
        }
    }

    /// One row-hash reference pass over every statement, between two timed
    /// units and off their clock, unless the window has `wanted` already.
    pub fn reference_pass(
        &mut self,
        wanted: usize,
        oracle: &Oracle,
        db: &Database,
    ) -> Result<(), RelError> {
        if self.row_pass_secs.len() < wanted {
            self.row_pass_secs.push(oracle.row_hash_pass(db, 0..oracle.refs.len())?);
        }
        Ok(())
    }

    /// The reference passes the units left no room for, after the last unit.
    pub fn remaining_reference_passes(
        &mut self,
        wanted: usize,
        oracle: &Oracle,
        db: &Database,
    ) -> Result<(), RelError> {
        while self.row_pass_secs.len() < wanted {
            self.reference_pass(wanted, oracle, db)?;
        }
        Ok(())
    }
}

/// Rounds of cold planning behind `prepare_us_p50`.
const PREPARE_ROUNDS: usize = 50;

/// Median microseconds of a cold `QueryPlan::prepare` (parse, analyze, plan:
/// what a session does on a plan-cache miss) over `rounds` rounds of the
/// oracle's statements. Wall clock: cache-resident CPU work, which the
/// memory-bound calibration kernel does not track.
pub fn prepare_us_p50(oracle: &Oracle, tag: &TagGraph, rounds: usize) -> Result<f64, RelError> {
    let mut us = Vec::with_capacity(rounds * oracle.refs.len());
    for _ in 0..rounds {
        for r in &oracle.refs {
            let start = Instant::now();
            let plan = QueryPlan::prepare(r.stmt.sql, tag.schemas());
            us.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(plan?);
        }
    }
    Ok(median(&us))
}

/// Fill in the end-to-end metrics a window determines, and the details that
/// let a reader undo the calibration.
pub fn end_to_end(
    w: &Window,
    host: &Host,
    oracle: &Oracle,
    tag: &TagGraph,
    sizing: &Sizing,
    metrics: &mut Metrics,
    details: &mut Vec<(String, Json)>,
) -> Result<(), RelError> {
    let ids = oracle.ids();
    let stmts = 0..ids.len();
    let all_ms = w.latencies.all_ms();
    metrics.set("stmts_per_s", median(&w.unit_rates) * host.factor());
    metrics.set("stmt_ms_p50", host.calibrate(median(&all_ms)));
    // Nearest rank: with the 200-sample floor at least ten samples lie
    // beyond it.
    metrics.set("stmt_ms_p95", host.calibrate(percentile(&all_ms, 95.0)));
    metrics.set(
        "tag_over_row",
        w.latencies.typical_pass_secs(stmts.clone()) / median(&w.row_pass_secs),
    );
    metrics.set("setup_s", host.calibrate(w.setup_secs));
    let rounds = if sizing.smoke { 2 } else { PREPARE_ROUNDS };
    metrics.set("prepare_us_p50", prepare_us_p50(oracle, tag, rounds)?);

    let (low, high) = host.factor_range();
    let numbers = |v: &[f64]| Json::Arr(v.iter().map(|&x| x.into()).collect());
    let per_stmt = ids.iter().zip(w.latencies.medians_ms(stmts)).map(|(id, ms)| (*id, ms.into()));
    details.extend([
        ("timed_units".to_string(), w.unit_rates.len().into()),
        ("row_hash_passes".to_string(), w.row_pass_secs.len().into()),
        ("host_factor".to_string(), host.factor().into()),
        ("host_factor_min".to_string(), low.into()),
        ("host_factor_max".to_string(), high.into()),
        ("host_samples".to_string(), host.sample_count().into()),
        ("wall_unit_stmts_per_s".to_string(), numbers(&w.unit_rates)),
        ("wall_row_pass_s".to_string(), numbers(&w.row_pass_secs)),
        ("wall_stmts_per_s".to_string(), median(&w.unit_rates).into()),
        ("wall_setup_s".to_string(), w.setup_secs.into()),
        ("wall_stmt_ms".to_string(), Json::obj(per_stmt)),
    ]);
    Ok(())
}
