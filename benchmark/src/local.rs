//! `tpch_seq`, `tpch_par`, `tpcds_seq`: one suite, one machine, one client,
//! statements prepared once and executed through `Session::execute`.

use crate::calibrate::Host;
use crate::layers;
use crate::measure::{self, Latencies, Window};
use crate::oracle::{Oracle, Tally};
use crate::report::{Metrics, Outcome};
use crate::trace::Tracer;
use crate::workloads::{Dataset, Sizing, Workload};
use std::ops::Range;
use std::time::Instant;
use vcsql::dist::NetStats;
use vcsql::relation::RelError;
use vcsql::{PreparedQuery, Session, SessionConfig};

/// What a cold set-up leaves behind.
pub struct SessionSetup {
    pub data: Dataset,
    pub session: Session,
    /// One prepared statement per statement of `data.all_stmts()`.
    pub prepared: Vec<PreparedQuery>,
}

/// The set-up `setup_s` times: generate, `TagGraph::build`, open, prepare
/// all — everything a user waits for before the first statement can run.
pub fn setup(
    workload: Workload,
    sizing: &Sizing,
    config: SessionConfig,
    tracer: &mut Tracer,
) -> Result<SessionSetup, RelError> {
    let (out, _) = tracer.span("setup", None, |tracer| {
        let data =
            Dataset::build(workload.data(), sizing.scale_factor(workload), sizing.seed, tracer);
        let (session, _) = tracer.span("session.open", None, |_| Session::open(&data.tag, config));
        let mut session = session?;
        let prepared = data
            .all_stmts()
            .iter()
            .map(|s| tracer.span("session.prepare", Some(s.id), |_| session.prepare(s.sql)).0)
            .collect::<Result<_, _>>()?;
        Ok(SessionSetup { data, session, prepared })
    });
    out
}

/// How a pass checks what it executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Whole bag against the reference: first executions, off the clock.
    Bag,
    /// Row count only: cheap enough to sit inside a timed window.
    Rows,
}

pub struct PassResult {
    /// Wall seconds of the pass, checks included.
    pub secs: f64,
    /// Statements that passed their check.
    pub verified: u64,
    pub net: NetStats,
}

/// What one execution measured.
pub struct StmtResult {
    /// Seconds of the `Session::execute` call alone.
    pub secs: f64,
    /// Whether the result passed its check.
    pub verified: bool,
    /// Network share of the execution's traffic (zero if it failed).
    pub net: NetStats,
}

/// Execute prepared statement `i` once under a `session.execute` span and
/// check its result.
pub fn session_stmt(
    session: &mut Session,
    prepared: &[PreparedQuery],
    oracle: &Oracle,
    i: usize,
    check: Check,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> StmtResult {
    let id = oracle.refs[i].stmt.id;
    let (out, secs) = tracer.span("session.execute", Some(id), |_| session.execute(&prepared[i]));
    let out = out.map_err(|e| e.to_string());
    let mut net = NetStats::default();
    if let Ok((o, n)) = &out {
        net = *n;
        tracer.annotate_last(&[
            ("out_rows", o.relation.len() as f64),
            ("messages", o.stats.totals.messages as f64),
            ("network_bytes", n.network_bytes as f64),
            ("migration_bytes", n.migration_bytes as f64),
        ]);
    }
    let verdict = match check {
        Check::Bag => {
            oracle.check_bag(i, out.as_ref().map(|(o, _)| &o.relation).map_err(String::clone))
        }
        Check::Rows => oracle.check_rows(i, out.map(|(o, _)| o.relation.len())),
    };
    StmtResult { secs, verified: tally.record(verdict), net }
}

/// Execute `range` of the prepared statements once, in order, and check
/// every result; one latency per statement goes to `latencies`.
#[allow(clippy::too_many_arguments)] // the session's halves and the run's accumulators, each borrowed apart
pub fn session_pass(
    session: &mut Session,
    prepared: &[PreparedQuery],
    oracle: &Oracle,
    range: Range<usize>,
    check: Check,
    tracer: &mut Tracer,
    tally: &mut Tally,
    latencies: &mut Latencies,
) -> PassResult {
    let mut result = PassResult { secs: 0.0, verified: 0, net: NetStats::default() };
    let start = Instant::now();
    for i in range {
        let stmt = session_stmt(session, prepared, oracle, i, check, tracer, tally);
        latencies.push(i, stmt.secs);
        result.verified += u64::from(stmt.verified);
        result.net.absorb(&stmt.net);
    }
    result.secs = start.elapsed().as_secs_f64();
    result
}

fn session_config(workload: Workload) -> SessionConfig {
    SessionConfig { engine: workload.engine(), ..SessionConfig::default() }
}

/// The untraced run: every end-to-end metric.
pub fn run(workload: Workload, sizing: &Sizing) -> Result<Outcome, RelError> {
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut host = Host::new();

    let (mut s, setup_secs) = measure::median_setup(sizing.setups(), &mut host, || {
        setup(workload, sizing, session_config(workload), &mut tracer)
    })?;
    let oracle = Oracle::build(&s.data.db, &s.data.tag, &s.data.all_stmts())?;
    let all = 0..oracle.refs.len();

    // Warm-up, untimed: plans are cached, the pool spawns, the allocator
    // warms — and every statement's bag is checked against the baseline.
    let warm = session_pass(
        &mut s.session,
        &s.prepared,
        &oracle,
        all.clone(),
        Check::Bag,
        &mut tracer,
        &mut tally,
        &mut Latencies::new(all.len()),
    );

    // The timed window: one unit per pass, the host sampled before each,
    // and the row-hash reference passes spread through it so a slow drift of
    // the host hits both sides of `tag_over_row`.
    let expected_passes = (sizing.seconds / warm.secs).ceil().max(1.0) as usize;
    let row_every = (expected_passes / sizing.row_passes()).max(1);
    let mut window = Window::new(all.len(), setup_secs);
    let mut window_secs = 0.0;
    loop {
        host.sample();
        let pass = session_pass(
            &mut s.session,
            &s.prepared,
            &oracle,
            all.clone(),
            Check::Rows,
            &mut tracer,
            &mut tally,
            &mut window.latencies,
        );
        window_secs += pass.secs;
        window.unit_rates.push(pass.verified as f64 / pass.secs);
        let passes = window.unit_rates.len();
        if passes.is_multiple_of(row_every) {
            window.reference_pass(sizing.row_passes(), &oracle, &s.data.db)?;
        }
        let done = if sizing.smoke {
            passes >= 2
        } else {
            window_secs >= sizing.seconds && window.latencies.len() >= sizing.sample_floor()
        };
        if done {
            break;
        }
    }
    host.sample();
    window.remaining_reference_passes(sizing.row_passes(), &oracle, &s.data.db)?;

    let mut details = Vec::new();
    measure::end_to_end(&window, &host, &oracle, &s.data.tag, sizing, &mut metrics, &mut details)?;
    let samples = window.latencies.len();
    Ok(Outcome { workload, traced: false, metrics, tally, samples, details })
}

/// The traced run: the common layer probes over this workload's graph and
/// statements. Nothing here adapts, migrates or serves, so the `session.*`
/// adaptation counters, `dist.settled_*` and `server.*` read zero.
pub fn run_traced(
    workload: Workload,
    sizing: &Sizing,
    tracer: &mut Tracer,
) -> Result<Outcome, RelError> {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut details = Vec::new();
    let SessionSetup { data, .. } = setup(workload, sizing, session_config(workload), tracer)?;
    let oracle = Oracle::build(&data.db, &data.tag, &data.all_stmts())?;
    let samples = layers::probe(
        workload,
        sizing,
        &data,
        &oracle,
        tracer,
        &mut tally,
        &mut metrics,
        &mut details,
    )?;
    layers::zero(&mut metrics, layers::ADAPTATION_COUNTERS);
    layers::zero(&mut metrics, layers::SERVER_LAYER);
    Ok(Outcome { workload, traced: true, metrics, tally, samples, details })
}
