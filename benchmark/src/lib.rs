//! # vcsql-benchmark — the measuring stick
//!
//! Five named workloads, the end-to-end metrics a user of vcsql would see,
//! a per-layer map of where the time and the bytes go, and a harness-side
//! trace. `BENCHMARK.json` at the root of the repository declares the
//! names, units, directions and bounds; `README.md` next to this package is
//! the metric dictionary. Everything is measured from outside, through the
//! `vcsql` facade's public API.

pub mod calibrate;
pub mod cluster;
pub mod compare;
pub mod header;
pub mod json;
pub mod layers;
pub mod local;
pub mod measure;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::Outcome;
use trace::Tracer;
use workloads::{Sizing, Workload};

/// Run one workload: untraced for the end-to-end metrics, or traced for the
/// per-layer metrics and the spans. Peak memory is read last, so it covers
/// the whole run.
pub fn run_workload(
    workload: Workload,
    sizing: &Sizing,
    traced: bool,
) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::new(traced);
    let outcome = match (workload, traced) {
        (Workload::ClusterDrift, false) => cluster::run(sizing),
        (Workload::ClusterDrift, true) => cluster::run_traced(sizing, &mut tracer),
        (Workload::ServeMixed, false) => serve::run(sizing),
        (Workload::ServeMixed, true) => serve::run_traced(sizing, &mut tracer),
        (local, false) => local::run(local, sizing),
        (local, true) => local::run_traced(local, sizing, &mut tracer),
    };
    let mut outcome = outcome.map_err(|e| format!("{}: {e}", workload.name()))?;
    if traced {
        tracer.check_nesting()?;
    } else {
        outcome.metrics.set("peak_rss_mib", measure::peak_rss_mib()?);
        outcome.metrics.set("failed_frac", outcome.tally.failed_frac());
    }
    Ok((outcome, tracer))
}
