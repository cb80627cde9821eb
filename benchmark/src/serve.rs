//! `serve_mixed`: a `QueryServer` with two closed-loop tenants on OS
//! threads, tenant 0 looping the TPC-H list and tenant 1 the TPC-DS list as
//! SQL text through `TenantSession::run_sql`. Closed loop: a client sends
//! its next statement only when the previous one has returned, so a slower
//! server receives less load; the client count is 2 and is printed.
//!
//! The timed window is one uninterrupted closed loop. The host is sampled and
//! the row-hash reference passes run before and after it, never inside (see
//! [`crate::calibrate`]: the kernel must not compete with the program it
//! calibrates).

use crate::calibrate::Host;
use crate::json::Json;
use crate::layers;
use crate::local::Check;
use crate::measure::{self, Latencies, Window, MIB};
use crate::oracle::{Oracle, Tally};
use crate::report::{Metrics, Outcome};
use crate::stats::{jain, median};
use crate::trace::Tracer;
use crate::workloads::{Dataset, Sizing, Workload, MACHINES};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use vcsql::bsp::EngineConfig;
use vcsql::dist::NetStats;
use vcsql::relation::RelError;
use vcsql::{Arbitration, QueryServer, ServerConfig, TenantSession};

/// Half-life of a tenant's vote, in that tenant's executions: about three
/// rounds of the longer list. `ServerConfig`'s default of 8 is shorter than
/// either list, so the merged vote swings inside a round, crosses the drift
/// threshold depending on how the two clients happen to interleave, and the
/// server re-partitions (a `Workload` partitioning under the placement write
/// lock, about 150 ms) 0 times in a 10 s window, or 20 to 30 times. Measured
/// on the reference host, six runs of one seed: five served 100 to 102
/// statements a wall-clock second, the sixth 90. A number that is one of two
/// values by chance cannot be held to a bound, so the gated window lets the
/// vote remember whole rounds (drift is `cluster_drift`'s subject), and the
/// traced run reports the default's rate and re-partitionings per layer
/// (`server.default_cfg_*`), where a fix or a regression of them shows.
const VOTE_HALF_LIFE: f64 = 64.0;

fn server_config(engine: EngineConfig) -> ServerConfig {
    ServerConfig {
        machines: MACHINES,
        engine,
        arbitration: Arbitration::Merged,
        profile_half_life: Some(VOTE_HALF_LIFE),
        ..ServerConfig::default()
    }
}

/// A started server with one tenant per statement list.
struct Serving {
    server: Arc<QueryServer>,
    tenants: Vec<TenantSession>,
    /// Each tenant's statements, as a range of the oracle.
    ranges: Vec<Range<usize>>,
}

impl Serving {
    /// Start the server, open the tenants and plan every statement once.
    fn start(
        data: &Dataset,
        config: ServerConfig,
        tracer: &mut Tracer,
    ) -> Result<Serving, RelError> {
        let (server, _) =
            tracer.span("server.start", None, |_| QueryServer::start(&data.tag, config));
        let server = server?;
        let mut start = 0;
        let mut serving = Serving { server, tenants: Vec::new(), ranges: Vec::new() };
        for list in &data.lists {
            let tenant = serving.server.open_session();
            for s in list {
                tracer.span("server.prepare", Some(s.id), |_| tenant.prepare(s.sql)).0?;
            }
            serving.tenants.push(tenant);
            serving.ranges.push(start..start + list.len());
            start += list.len();
        }
        Ok(serving)
    }

    fn all_tenants(&self) -> Range<usize> {
        0..self.tenants.len()
    }
}

/// When a client stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many rounds of its list.
    Rounds(usize),
    /// At the first statement boundary past this many seconds.
    After(f64),
}

/// What one client measured in one call of [`run_clients`], on the wall
/// clock.
struct ClientRun {
    latencies: Latencies,
    /// Seconds from its first statement's start to its last one's end.
    secs: f64,
    sent: usize,
    verified: u64,
    net: NetStats,
    tally: Tally,
    tracer: Tracer,
}

/// One closed-loop client looping over `range` from its first statement.
fn client(
    tenant: &TenantSession,
    oracle: &Oracle,
    range: Range<usize>,
    stop: Stop,
    check: Check,
    tracer: Tracer,
) -> ClientRun {
    let mut run = ClientRun {
        latencies: Latencies::new(oracle.refs.len()),
        secs: 0.0,
        sent: 0,
        verified: 0,
        net: NetStats::default(),
        tally: Tally::default(),
        tracer,
    };
    let start = Instant::now();
    loop {
        let done = match stop {
            Stop::Rounds(n) => run.sent >= n * range.len(),
            Stop::After(secs) => start.elapsed().as_secs_f64() >= secs,
        };
        if done {
            break;
        }
        let i = range.start + run.sent % range.len();
        let stmt = oracle.refs[i].stmt;
        let (out, secs) =
            run.tracer.span("server.run_sql", Some(stmt.id), |_| tenant.run_sql(stmt.sql));
        run.latencies.push(i, secs);
        run.sent += 1;
        let out = out.map_err(|e| e.to_string());
        if let Ok((o, net)) = &out {
            run.net.absorb(net);
            run.tracer.annotate_last(&[
                ("out_rows", o.relation.len() as f64),
                ("network_bytes", net.network_bytes as f64),
                ("migration_bytes", net.migration_bytes as f64),
            ]);
        }
        let verdict = match check {
            Check::Bag => {
                oracle.check_bag(i, out.as_ref().map(|(o, _)| &o.relation).map_err(String::clone))
            }
            Check::Rows => oracle.check_rows(i, out.map(|(o, _)| o.relation.len())),
        };
        run.verified += u64::from(run.tally.record(verdict));
    }
    run.secs = start.elapsed().as_secs_f64();
    run
}

/// What the clients of one [`run_clients`] call measured together.
struct Shared {
    latencies: Latencies,
    /// Statements per second: the sum of the clients' own rates, each over
    /// the time that client spent sending.
    rate: f64,
    /// Statements each client sent.
    sent: Vec<usize>,
    net: NetStats,
}

/// Run the tenants in `who` concurrently, one OS thread each, and wait for
/// all of them. A client thread that panics is a harness defect and
/// propagates.
fn run_clients(
    serving: &Serving,
    who: Range<usize>,
    oracle: &Oracle,
    stop: Stop,
    check: Check,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Shared {
    let lanes: Vec<_> = who.clone().map(|t| (t, tracer.fork(t as u32 + 1))).collect();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|(t, lane)| {
                let (tenant, range) = (&serving.tenants[t], serving.ranges[t].clone());
                scope.spawn(move || client(tenant, oracle, range, stop, check, lane))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut shared = Shared {
        latencies: Latencies::new(oracle.refs.len()),
        rate: 0.0,
        sent: Vec::new(),
        net: NetStats::default(),
    };
    for run in runs {
        shared.sent.push(run.sent);
        shared.rate += run.verified as f64 / run.secs;
        shared.net.absorb(&run.net);
        shared.latencies.absorb(run.latencies);
        tally.absorb(run.tally);
        tracer.absorb(run.tracer);
    }
    shared
}

/// The untraced run: every end-to-end metric.
pub fn run(sizing: &Sizing) -> Result<Outcome, RelError> {
    let workload = Workload::ServeMixed;
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut host = Host::new();

    let ((data, serving), setup_secs) = measure::median_setup(sizing.setups(), &mut host, || {
        let data = Dataset::build(
            workload.data(),
            sizing.scale_factor(workload),
            sizing.seed,
            &mut tracer,
        );
        let serving = Serving::start(&data, server_config(workload.engine()), &mut tracer)?;
        Ok((data, serving))
    })?;
    let oracle = Oracle::build(&data.db, &data.tag, &data.all_stmts())?;
    let tenants = serving.all_tenants();

    // Warm-up, untimed: every bag checked, the shared placement settled.
    let warm = Stop::Rounds(if sizing.smoke { 1 } else { 3 });
    run_clients(&serving, tenants.clone(), &oracle, warm, Check::Bag, &mut tracer, &mut tally);
    let before = serving.server.stats();

    // Half of the reference passes and host samples before the window, half
    // after it: nothing but the two clients runs inside.
    let mut window = Window::new(oracle.refs.len(), setup_secs);
    for _ in 0..sizing.row_passes() / 2 {
        host.sample();
        window.reference_pass(sizing.row_passes(), &oracle, &data.db)?;
    }
    host.sample();
    let stop = if sizing.smoke { Stop::Rounds(2) } else { Stop::After(sizing.seconds) };
    let shared =
        run_clients(&serving, tenants, &oracle, stop, Check::Rows, &mut tracer, &mut tally);
    while window.row_pass_secs.len() < sizing.row_passes() {
        host.sample();
        window.reference_pass(sizing.row_passes(), &oracle, &data.db)?;
    }
    host.sample();
    window.unit_rates.push(shared.rate);
    window.latencies = shared.latencies;

    let after = serving.server.stats();
    let stmts = window.latencies.len() as f64;
    metrics.set("net_mib_per_stmt", shared.net.network_bytes as f64 / MIB / stmts);
    let mut details = vec![
        ("clients".to_string(), serving.tenants.len().into()),
        ("loop".to_string(), "closed".into()),
        (
            "stmts_per_client".to_string(),
            Json::Arr(shared.sent.iter().map(|&n| n.into()).collect()),
        ),
        ("adaptations_in_window".to_string(), (after.adaptations - before.adaptations).into()),
        (
            "migration_bytes_in_window".to_string(),
            (after.migration_bytes - before.migration_bytes).into(),
        ),
    ];
    measure::end_to_end(&window, &host, &oracle, &data.tag, sizing, &mut metrics, &mut details)?;
    let samples = window.latencies.len();
    Ok(Outcome { workload, traced: false, metrics, tally, samples, details })
}

/// The traced run: the common probes, then the server on its own — each
/// tenant alone, both together under spans, and the same clients against a
/// server whose engine uses 2 threads and against one with `ServerConfig`'s
/// default vote half-life.
pub fn run_traced(sizing: &Sizing, tracer: &mut Tracer) -> Result<Outcome, RelError> {
    let workload = Workload::ServeMixed;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut details = Vec::new();
    let (setup, _) = tracer.span("setup", None, |t| -> Result<_, RelError> {
        let data = Dataset::build(workload.data(), sizing.scale_factor(workload), sizing.seed, t);
        let serving = Serving::start(&data, server_config(workload.engine()), t)?;
        Ok((data, serving))
    });
    let (data, serving) = setup?;
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

    let tenants = serving.all_tenants();
    let mut off = Tracer::new(false);
    let one = Stop::Rounds(1);
    run_clients(&serving, tenants.clone(), &oracle, one, Check::Bag, &mut off, &mut tally);
    // Each tenant alone: the latency contention is measured against.
    let solo_rounds = Stop::Rounds(if sizing.smoke { 1 } else { 2 });
    let mut solo = Latencies::new(oracle.refs.len());
    for t in tenants.clone() {
        let alone = t..t + 1;
        let run =
            run_clients(&serving, alone, &oracle, solo_rounds, Check::Rows, &mut off, &mut tally);
        solo.absorb(run.latencies);
    }
    let stop = if sizing.smoke { Stop::Rounds(2) } else { Stop::After(sizing.seconds * 0.25) };
    let shared =
        run_clients(&serving, tenants.clone(), &oracle, stop, Check::Rows, tracer, &mut tally);
    let net = shared.net;
    metrics.set("dist.network_messages", net.network_messages as f64);
    metrics.set("dist.rounds", net.rounds as f64);
    metrics.set("dist.query_net_mib", (net.network_bytes - net.migration_bytes) as f64 / MIB);
    metrics.set(
        "dist.net_mib_per_stmt",
        net.network_bytes as f64 / MIB / shared.latencies.len() as f64,
    );
    let solo_p50 = median(&solo.all_ms());
    metrics.set("server.contention_ratio", median(&shared.latencies.all_ms()) / solo_p50);
    // Fairness of the slowdown: each tenant's typical round alone over its
    // typical round under contention; Jain's index is 1 when both slow down
    // alike.
    let slowdown: Vec<f64> = serving
        .ranges
        .iter()
        .map(|r| solo.typical_pass_secs(r.clone()) / shared.latencies.typical_pass_secs(r.clone()))
        .collect();
    metrics.set("server.jain_fairness", jain(&slowdown));

    let stats = serving.server.stats();
    let admission = serving.server.admission_stats();
    let cache = serving.server.plan_cache();
    metrics.set("server.admitted", admission.admitted as f64);
    metrics.set("server.peak_in_flight", admission.peak_in_flight as f64);
    metrics
        .set("server.cache_hit_rate", cache.hits() as f64 / (cache.hits() + cache.misses()) as f64);
    metrics.set("server.adaptations", stats.adaptations as f64);
    metrics.set("server.migration_mib", stats.migration_bytes as f64 / MIB);
    metrics.set("server.retries", stats.failures.retries as f64);
    metrics.set("server.solo_stmt_ms_p50", solo_p50);

    // The same clients against 2 engine threads, as an absolute rate. On 2
    // cores this oversubscribes the host and every parallel superstep takes
    // the pool's run lock, which is why it is per-layer and not gated.
    drop(serving);
    let mut arm = |config: ServerConfig, share: f64| -> Result<(f64, u64), RelError> {
        let stop = if sizing.smoke { one } else { Stop::After(sizing.seconds * share) };
        let serving = Serving::start(&data, config, &mut off)?;
        run_clients(&serving, tenants.clone(), &oracle, one, Check::Rows, &mut off, &mut tally);
        let before = serving.server.stats().adaptations;
        let rate = run_clients(
            &serving,
            tenants.clone(),
            &oracle,
            stop,
            Check::Rows,
            &mut off,
            &mut tally,
        )
        .rate;
        Ok((rate, serving.server.stats().adaptations - before))
    };
    let (pooled_rate, _) = arm(server_config(EngineConfig::with_threads(2)), 0.15)?;
    metrics.set("server.pool2_stmts_per_s", pooled_rate);
    // And against `ServerConfig`'s own vote half-life, which the gated window
    // overrides (see [`VOTE_HALF_LIFE`]): what a default-config user gets.
    let default_half_life = ServerConfig::default().profile_half_life;
    let (rate, adaptations) = arm(
        ServerConfig { profile_half_life: default_half_life, ..server_config(workload.engine()) },
        0.3,
    )?;
    metrics.set("server.default_cfg_stmts_per_s", rate);
    metrics.set("server.default_cfg_adaptations", adaptations as f64);
    Ok(Outcome { workload, traced: true, metrics, tally, samples, details })
}
