//! `cluster_drift`: one adaptive session on a simulated cluster while the
//! statement mix flips between TPC-H and TPC-DS every half-cycle.
//!
//! The schedule is a fixed number of cycles, single-threaded and seeded, so
//! every byte and migration count repeats exactly for a given seed; only the
//! clock varies between runs.

use crate::calibrate::Host;
use crate::layers;
use crate::local::{session_pass, setup, Check, SessionSetup};
use crate::measure::{self, Latencies, Window, MIB, MODELLED_BANDWIDTH};
use crate::oracle::{Oracle, Tally};
use crate::report::{Metrics, Outcome};
use crate::trace::Tracer;
use crate::workloads::{Dataset, Sizing, Workload, MACHINES};
use std::ops::Range;
use vcsql::bsp::EngineConfig;
use vcsql::dist::NetStats;
use vcsql::relation::RelError;
use vcsql::{Cluster, PreparedQuery, Session, SessionConfig};

/// Half-life of the session's traffic profile, in executions: about one
/// TPC-H pass. Without forgetting, the accumulated profile converges on the
/// 50/50 mix after the first cycle and the session never adapts again; with
/// it, three passes of one suite outweigh the other and drift crosses the
/// threshold every half-cycle, which is the point of the workload.
const PROFILE_HALF_LIFE: f64 = 16.0;

fn cluster() -> Cluster {
    Cluster::new(MACHINES).engine(EngineConfig::sequential())
}

fn adaptive_config() -> SessionConfig {
    SessionConfig { profile_half_life: Some(PROFILE_HALF_LIFE), ..cluster().config().clone() }
}

/// Statement ranges of the two lists (TPC-H, then TPC-DS) in the oracle.
fn list_ranges(data: &Dataset) -> Vec<Range<usize>> {
    let mut start = 0;
    data.lists
        .iter()
        .map(|l| {
            let range = start..start + l.len();
            start = range.end;
            range
        })
        .collect()
}

/// What one cycle of the schedule measured.
#[derive(Default)]
struct Cycle {
    /// Wall seconds inside its passes.
    secs: f64,
    stmts: u64,
    verified: u64,
    net: NetStats,
}

/// What one run of the drift schedule measured.
struct Drift {
    latencies: Latencies,
    cycles: Vec<Cycle>,
}

impl Drift {
    /// Traffic and statement count of a range of cycles.
    fn net(&self, cycles: Range<usize>) -> (NetStats, u64) {
        let mut total = (NetStats::default(), 0);
        for c in &self.cycles[cycles] {
            total.0.absorb(&c.net);
            total.1 += c.stmts;
        }
        total
    }

    fn secs(&self) -> f64 {
        self.cycles.iter().map(|c| c.secs).sum()
    }
}

/// Run `cycles` cycles of (`passes` TPC-H passes, then `passes` TPC-DS
/// passes). `pause` runs off the clock after every pass and is told whether
/// that pass completed a half-cycle.
#[allow(clippy::too_many_arguments)] // the session's two halves are borrowed apart from its data
fn drift_schedule(
    session: &mut Session,
    prepared: &[PreparedQuery],
    ranges: &[Range<usize>],
    oracle: &Oracle,
    cycles: usize,
    passes: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut pause: impl FnMut(bool) -> Result<(), RelError>,
) -> Result<Drift, RelError> {
    let mut drift = Drift { latencies: Latencies::new(oracle.refs.len()), cycles: Vec::new() };
    for _ in 0..cycles {
        let mut in_cycle = Cycle::default();
        for range in ranges {
            for pass in 0..passes {
                let done = session_pass(
                    session,
                    prepared,
                    oracle,
                    range.clone(),
                    Check::Rows,
                    tracer,
                    tally,
                    &mut drift.latencies,
                );
                in_cycle.secs += done.secs;
                in_cycle.stmts += range.len() as u64;
                in_cycle.verified += done.verified;
                in_cycle.net.absorb(&done.net);
                pause(pass + 1 == passes)?;
            }
        }
        drift.cycles.push(in_cycle);
    }
    Ok(drift)
}

/// Warm-up, untimed: one pass of both lists with every bag checked. It runs
/// through the adaptive session, so the session starts the window already
/// adapting — deterministically, like everything else here.
fn warm_up(s: &mut SessionSetup, oracle: &Oracle, tally: &mut Tally) {
    let all = 0..oracle.refs.len();
    session_pass(
        &mut s.session,
        &s.prepared,
        oracle,
        all.clone(),
        Check::Bag,
        &mut Tracer::new(false),
        tally,
        &mut Latencies::new(all.len()),
    );
}

/// The untraced run: every end-to-end metric.
pub fn run(sizing: &Sizing) -> Result<Outcome, RelError> {
    let workload = Workload::ClusterDrift;
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut host = Host::new();

    let (mut s, setup_secs) = measure::median_setup(sizing.setups(), &mut host, || {
        setup(workload, sizing, adaptive_config(), &mut tracer)
    })?;
    let oracle = Oracle::build(&s.data.db, &s.data.tag, &s.data.all_stmts())?;
    warm_up(&mut s, &oracle, &mut tally);

    // The unit is a cycle: every cycle pays for the same adaptations, so
    // their cost is in the rate. The host is sampled after every pass and a
    // row-hash pass follows each of the first half-cycles, all off the clock.
    let mut window = Window::new(oracle.refs.len(), setup_secs);
    let db = &s.data.db;
    let (cycles, passes) = (sizing.drift_cycles(), sizing.drift_passes());
    host.sample();
    let drift = drift_schedule(
        &mut s.session,
        &s.prepared,
        &list_ranges(&s.data),
        &oracle,
        cycles,
        passes,
        &mut tracer,
        &mut tally,
        |half_cycle_done| {
            host.sample();
            if half_cycle_done {
                window.reference_pass(sizing.row_passes(), &oracle, db)?;
            }
            Ok(())
        },
    )?;
    window.remaining_reference_passes(sizing.row_passes(), &oracle, db)?;

    let (net, stmts) = drift.net(0..drift.cycles.len());
    let stats = s.session.stats();
    let mut details = vec![
        ("cycles".to_string(), drift.cycles.len().into()),
        ("passes_per_half_cycle".to_string(), passes.into()),
        ("adaptations".to_string(), stats.adaptations.into()),
        ("migration_bytes".to_string(), stats.migration_bytes.into()),
        ("network_bytes".to_string(), net.network_bytes.into()),
    ];
    // An exact count: single-threaded and seeded, it repeats bit for bit.
    metrics.set("net_mib_per_stmt", net.network_bytes as f64 / MIB / stmts as f64);
    window.unit_rates = drift.cycles.iter().map(|c| c.verified as f64 / c.secs).collect();
    window.latencies = drift.latencies;
    measure::end_to_end(&window, &host, &oracle, &s.data.tag, sizing, &mut metrics, &mut details)?;
    let samples = window.latencies.len();
    Ok(Outcome { workload, traced: false, metrics, tally, samples, details })
}

/// The traced run: the common probes, then the drift schedule under spans
/// (shorter than the timed one), then a static-placement arm as the
/// no-adaptation reference.
pub fn run_traced(sizing: &Sizing, tracer: &mut Tracer) -> Result<Outcome, RelError> {
    let workload = Workload::ClusterDrift;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut details = Vec::new();
    let mut s = setup(workload, sizing, adaptive_config(), tracer)?;
    let oracle = Oracle::build(&s.data.db, &s.data.tag, &s.data.all_stmts())?;
    let samples = layers::probe(
        workload,
        sizing,
        &s.data,
        &oracle,
        tracer,
        &mut tally,
        &mut metrics,
        &mut details,
    )?;
    layers::zero(&mut metrics, layers::SERVER_LAYER);

    let cycles = if sizing.smoke { 2 } else { 3 };
    warm_up(&mut s, &oracle, &mut tally);
    let ranges = list_ranges(&s.data);
    let (drift, _) = tracer.span("session.drift_schedule", None, |t| {
        drift_schedule(
            &mut s.session,
            &s.prepared,
            &ranges,
            &oracle,
            cycles,
            sizing.drift_passes(),
            t,
            &mut tally,
            |_| Ok(()),
        )
    });
    let drift = drift?;
    let stats = s.session.stats().clone();
    metrics.set("session.adaptations", stats.adaptations as f64);
    metrics.set("session.migration_steps", stats.migration_steps as f64);
    metrics.set("session.migrated_vertices", stats.migrated_vertices as f64);
    metrics.set("session.migration_mib", stats.migration_bytes as f64 / MIB);
    let (net, drift_stmts) = drift.net(0..cycles);
    metrics.set("dist.network_messages", net.network_messages as f64);
    metrics.set("dist.rounds", net.rounds as f64);
    metrics.set("dist.query_net_mib", (net.network_bytes - net.migration_bytes) as f64 / MIB);
    metrics.set("dist.net_mib_per_stmt", net.network_bytes as f64 / MIB / drift_stmts as f64);
    let (settled, settled_stmts) = drift.net(cycles - 2..cycles);
    metrics.set(
        "dist.settled_net_mib_per_stmt",
        settled.network_bytes as f64 / MIB / settled_stmts as f64,
    );
    metrics.set(
        "dist.modelled_s",
        vcsql::dist::modelled_runtime(drift.secs(), &net, MODELLED_BANDWIDTH)?,
    );

    // The no-adaptation reference: one cycle of the same schedule on a
    // session that keeps its initial refined placement (nothing changes
    // from cycle to cycle there, so one is enough).
    let mut fixed = cluster().static_placement().session(&s.data.tag)?;
    let prepared =
        oracle.refs.iter().map(|r| fixed.prepare(r.stmt.sql)).collect::<Result<Vec<_>, _>>()?;
    let (arm, _) = tracer.span("session.static_arm", None, |t| {
        drift_schedule(
            &mut fixed,
            &prepared,
            &ranges,
            &oracle,
            1,
            sizing.drift_passes(),
            t,
            &mut tally,
            |_| Ok(()),
        )
    });
    let (net, stmts) = arm?.net(0..1);
    metrics.set("dist.static_net_mib_per_stmt", net.network_bytes as f64 / MIB / stmts as f64);
    Ok(Outcome { workload, traced: true, metrics, tally, samples, details })
}
