//! The per-layer probes of a traced run.
//!
//! Each probe times calls into one layer's public API over the workload's
//! own graph and statements, under a span named after the layer, and reads
//! the counters those calls return. Every workload runs every probe, so a
//! layer's number can be compared across workloads (that is how the README
//! tests the prediction that `Computation::new` weighs more on `tpcds_seq`
//! than on `tpch_seq`).

use crate::json::Json;
use crate::local::{session_stmt, Check};
use crate::measure::{MIB, MODELLED_BANDWIDTH};
use crate::oracle::{Oracle, Tally};
use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{all_stmt_ids, Dataset, Sizing, Workload, MACHINES};
use std::sync::Arc;
use std::time::Instant;
use vcsql::bsp::{
    Computation, EngineConfig, FaultInjector, FaultPlan, PartitionStrategy, WorkerPool,
};
use vcsql::core::{QueryPlan, TagJoinExecutor};
use vcsql::dist::NetStats;
use vcsql::query::{analyze, parse};
use vcsql::relation::RelError;
use vcsql::tag::TagGraph;
use vcsql::{Session, SessionConfig};

/// Counters only an adapting session moves.
pub const ADAPTATION_COUNTERS: &[&str] = &[
    "session.adaptations",
    "session.migration_steps",
    "session.migrated_vertices",
    "session.migration_mib",
    "dist.settled_net_mib_per_stmt",
];

/// Metrics only a `QueryServer` produces.
pub const SERVER_LAYER: &[&str] = &[
    "server.admitted",
    "server.peak_in_flight",
    "server.cache_hit_rate",
    "server.adaptations",
    "server.migration_mib",
    "server.retries",
    "server.solo_stmt_ms_p50",
    "server.contention_ratio",
    "server.jain_fairness",
    "server.pool2_stmts_per_s",
    "server.default_cfg_stmts_per_s",
    "server.default_cfg_adaptations",
];

/// Which end-to-end metric each per-layer metric should move, and where:
/// written down before anything was measured with it. First matching prefix
/// wins. `BENCHMARK.json` has no field for it (its entries hold exactly
/// name, unit and direction), so the map lives here, is printed next to
/// every per-layer value and is tabulated in the README.
const MOVES: &[(&str, &str)] = &[
    ("workload.", "setup_s (all)"),
    ("tag.build_ms", "setup_s (all; most of it on tpch_*)"),
    ("tag.", "setup_s, peak_rss_mib (all)"),
    ("query.", "prepare_us_p50 (all); < 0.1% of any stmt_ms_*"),
    ("core.plan_us", "prepare_us_p50 (all); < 0.1% of any stmt_ms_*"),
    ("core.stmt_ms.q5", "stmt_ms_p95, stmts_per_s on tpch_*"),
    ("core.stmt_ms.q7", "stmt_ms_p95, stmts_per_s on tpch_*"),
    ("core.stmt_ms.q18", "stmt_ms_p95, stmts_per_s on tpch_*"),
    ("core.stmt_ms.d_q27", "stmt_ms_p95, stmts_per_s on tpcds_seq"),
    ("core.stmt_ms.d_q37", "stmt_ms_p50 on tpcds_seq"),
    ("core.stmt_ms.d_q82", "stmt_ms_p50 on tpcds_seq"),
    ("core.stmt_ms.d_q84", "stmt_ms_p50 on tpcds_seq"),
    ("core.stmt_ms.d_q12", "stmt_ms_p50 on tpcds_seq"),
    ("core.", "stmts_per_s, tag_over_row on tpch_seq/tpcds_seq"),
    ("bsp.computation_new_ms", "stmt_ms_p50 on tpcds_seq; ~nothing on tpch_seq"),
    ("bsp.echo_", "stmts_per_s on tpch_par only"),
    ("bsp.pool_fanout_us", "stmts_per_s on tpch_par only"),
    ("bsp.par_over_seq", "stmts_per_s on tpch_par only"),
    ("bsp.partition_ms", "setup_s on cluster_drift/serve_mixed"),
    (
        "bsp.checkpoint_",
        "nothing on fault-free workloads; guards the engine.rs fault-runtime split",
    ),
    ("bsp.", "explains core.execute_plan_ms; identical on tpch_seq and tpch_par"),
    ("baseline.", "denominator of tag_over_row; must not move under TAG-side changes"),
    ("session.stmt_ms_p95", "stmt_ms_p95 (the same statistic, taken in the traced run)"),
    ("session.execute_overhead_us", "stmt_ms_p50 (all; ~0 locally, visible on cluster_drift)"),
    ("session.prepare_hit_us", "stmt_ms_p50 (all; ~0 locally, visible on cluster_drift)"),
    ("session.plan_cache_hit_rate", "stmt_ms_p50 (all; ~0 locally, visible on cluster_drift)"),
    ("session.", "net_mib_per_stmt, stmts_per_s on cluster_drift"),
    ("dist.", "net_mib_per_stmt, stmts_per_s on cluster_drift"),
    ("server.", "stmts_per_s, stmt_ms_p50, net_mib_per_stmt on serve_mixed"),
    ("harness.trace_overhead_frac", "nothing; must stay <= 0.03"),
];

/// The end-to-end metric `metric` should move (empty for an unknown name).
pub fn moves(metric: &str) -> &'static str {
    MOVES.iter().find(|(prefix, _)| metric.starts_with(prefix)).map_or("", |(_, to)| to)
}

/// A layer that is not on the workload's path does no work: its counters
/// and ratios read zero.
pub fn zero(metrics: &mut Metrics, names: &[&str]) {
    for name in names {
        metrics.set(name, 0.0);
    }
}

/// Milliseconds of the first span called `name`.
fn span_ms(tracer: &Tracer, name: &str) -> f64 {
    tracer.spans().iter().find(|s| s.name == name).map_or(0.0, |s| s.duration_us() / 1e3)
}

fn pool_for(engine: EngineConfig) -> Option<Arc<WorkerPool>> {
    (engine.threads > 1).then(|| Arc::new(WorkerPool::new(engine.threads)))
}

fn executor<'t>(
    tag: &'t TagGraph,
    engine: EngineConfig,
    pool: &Option<Arc<WorkerPool>>,
) -> TagJoinExecutor<'t> {
    let exec = TagJoinExecutor::new(tag, engine);
    match pool {
        Some(pool) => exec.with_worker_pool(Arc::clone(pool)),
        None => exec,
    }
}

/// Exact per-pass counts read from `ExecOutput.stats`.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct PassCounts {
    supersteps: u64,
    messages: u64,
    message_bytes: u64,
    active_vertices: u64,
    out_rows: u64,
    checkpoint_bytes: u64,
}

struct DirectPass {
    secs: f64,
    /// Seconds per statement, aligned with the oracle.
    stmt_secs: Vec<f64>,
    counts: PassCounts,
    net: NetStats,
}

impl DirectPass {
    fn new(n: usize) -> DirectPass {
        DirectPass {
            secs: 0.0,
            stmt_secs: Vec::with_capacity(n),
            counts: PassCounts::default(),
            net: NetStats::default(),
        }
    }
}

/// One direct `TagJoinExecutor::execute_plan` call for statement `i` under a
/// `core.execute_plan` span, its counters folded into `pass`.
fn direct_stmt(
    exec: &TagJoinExecutor<'_>,
    oracle: &Oracle,
    i: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
    pass: &mut DirectPass,
) {
    let r = &oracle.refs[i];
    let (out, secs) =
        tracer.span("core.execute_plan", Some(r.stmt.id), |_| exec.execute_plan(&r.plan));
    pass.stmt_secs.push(secs);
    pass.secs += secs;
    if let Ok(o) = &out {
        let t = &o.stats.totals;
        pass.counts.supersteps += o.stats.supersteps;
        pass.counts.messages += t.messages;
        pass.counts.message_bytes += t.message_bytes;
        pass.counts.active_vertices += t.active_vertices;
        pass.counts.out_rows += o.relation.len() as u64;
        pass.counts.checkpoint_bytes += o.stats.faults.checkpoint_bytes;
        pass.net.network_messages += t.network_messages;
        pass.net.network_bytes += t.network_bytes;
        pass.net.rounds += o.stats.supersteps;
        tracer.annotate_last(&[
            ("supersteps", o.stats.supersteps as f64),
            ("messages", t.messages as f64),
            ("message_bytes", t.message_bytes as f64),
            ("active_vertices", t.active_vertices as f64),
            ("network_bytes", t.network_bytes as f64),
            ("out_rows", o.relation.len() as f64),
        ]);
    }
    tally.record(oracle.check_rows(i, out.map(|o| o.relation.len()).map_err(|e| e.to_string())));
}

/// One pass of direct calls over every statement; `secs` is the sum of the
/// calls.
fn direct_pass(
    exec: &TagJoinExecutor<'_>,
    oracle: &Oracle,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> DirectPass {
    let mut pass = DirectPass::new(oracle.refs.len());
    for i in 0..oracle.refs.len() {
        direct_stmt(exec, oracle, i, tracer, tally, &mut pass);
    }
    pass
}

/// Median seconds per statement over several passes.
fn stmt_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    (0..passes[0].len()).map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>())).collect()
}

/// One echo superstep: every tuple vertex sends 8 bytes along every edge.
/// Returns the seconds of the superstep alone (construction and activation
/// are outside the timer).
fn echo_superstep(
    tag: &TagGraph,
    engine: EngineConfig,
    pool: &Option<Arc<WorkerPool>>,
    tracer: &mut Tracer,
    name: &'static str,
) -> f64 {
    let graph = tag.graph();
    let mut comp: Computation<'_, (), u64> = Computation::new(graph, engine, |_| ());
    if let Some(pool) = pool {
        comp.set_worker_pool(Arc::clone(pool));
    }
    comp.activate(graph.vertices().filter(|&v| tag.is_tuple_vertex(v)));
    let (step, secs) = tracer.span(name, None, |_| {
        comp.superstep_simple(|ctx| {
            for e in ctx.edges() {
                ctx.send_along(e.label, e.target, 0u64);
            }
        })
    });
    tracer.annotate_last(&[
        ("messages", step.messages as f64),
        ("active_vertices", step.active_vertices as f64),
    ]);
    secs
}

/// Orders in which the four arms of a statement run, one per (round +
/// statement) mod 4: every arm runs first once, and each `Session::execute`
/// arm follows its twin as often as the twin follows it — the second of two
/// identical calls finds the allocator and the caches as the first left them
/// and is a few percent faster.
const ARM_ORDERS: [[usize; 4]; 4] = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]];

/// Run every common probe and record its metrics. The session probes run
/// on a single-machine session of their own under the workload's engine
/// configuration, whatever the workload itself serves through. Returns the
/// number of `session.execute` latency samples taken.
#[allow(clippy::too_many_arguments)] // one call site per workload kind; a struct would only rename the arguments
pub fn probe(
    workload: Workload,
    sizing: &Sizing,
    data: &Dataset,
    oracle: &Oracle,
    tracer: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
    details: &mut Vec<(String, Json)>,
) -> Result<usize, RelError> {
    let n = oracle.refs.len();
    let all = 0..n;
    let reps = |full: usize, smoke: usize| if sizing.smoke { smoke } else { full };
    let mut off = Tracer::new(false);

    // workload.*, tag.*: the set-up spans and the graph's own statistics.
    metrics.set("workload.generate_ms", span_ms(tracer, "workload.generate"));
    metrics.set("tag.build_ms", span_ms(tracer, "tag.build"));
    let tag_stats = data.tag.stats();
    metrics.set("tag.vertices", (tag_stats.tuple_vertices + tag_stats.attr_vertices) as f64);
    metrics.set("tag.edges", tag_stats.edges as f64);
    metrics.set("tag.mib", tag_stats.bytes as f64 / MIB);

    // baseline.*: the denominator of `tag_over_row`.
    let mut row_secs = Vec::new();
    for _ in 0..reps(3, 2) {
        let (pass, _) = tracer
            .span("baseline.row_hash_pass", None, |_| oracle.row_hash_pass(&data.db, all.clone()));
        row_secs.push(pass?);
    }
    metrics.set("baseline.row_hash_pass_ms", median(&row_secs) * 1e3);

    // session.*: cache hits, then a bag-checked warm-up, then plain and
    // traced passes alternating. The only difference between the two kinds
    // is whether spans are kept, so their ratio is the tracing overhead.
    let config = SessionConfig { engine: workload.engine(), ..SessionConfig::default() };
    let mut session = Session::open(&data.tag, config)?;
    let prepared =
        oracle.refs.iter().map(|r| session.prepare(r.stmt.sql)).collect::<Result<Vec<_>, _>>()?;
    let mut hit_us = Vec::new();
    for _ in 0..reps(20, 2) {
        for r in &oracle.refs {
            let (hit, secs) = tracer
                .span("session.prepare_hit", Some(r.stmt.id), |_| session.prepare(r.stmt.sql));
            hit?;
            hit_us.push(secs * 1e6);
        }
    }
    metrics.set("session.prepare_hit_us", median(&hit_us));
    let cache = session.plan_cache();
    metrics.set(
        "session.plan_cache_hit_rate",
        cache.hits() as f64 / (cache.hits() + cache.misses()) as f64,
    );

    // session.execute, core.execute_plan, both engines: four arms, run back
    // to back statement by statement so that all four see the same host —
    //   plain   Session::execute, spans dropped
    //   traced  Session::execute, spans kept (their ratio is the overhead)
    //   own     direct execute_plan, the workload's engine configuration
    //   other   direct execute_plan, the other thread count
    // The order cycles through [`ARM_ORDERS`] so no arm always runs on the
    // caches and the heap another left behind.
    // Round 0 is the warm-up (pools spawn) and checks every bag.
    let own_engine = workload.engine();
    let other_engine = if own_engine.threads > 1 {
        EngineConfig::sequential()
    } else {
        EngineConfig::with_threads(2)
    };
    let (own_pool, other_pool) = (pool_for(own_engine), pool_for(other_engine));
    let own_exec = executor(&data.tag, own_engine, &own_pool);
    let other_exec = executor(&data.tag, other_engine, &other_pool);
    // The direct arms run in the first rounds only; the session arms keep
    // going until they hold the sample floor `session.stmt_ms_p95` needs.
    let direct_rounds = reps(2, 1);
    let rounds = direct_rounds.max(sizing.sample_floor().div_ceil(2 * n));
    let mut arms: [Vec<Vec<f64>>; 4] = Default::default(); // [arm][round][stmt] seconds
    let mut own: Vec<DirectPass> = Vec::new();
    let mut run_session = |i: usize, check: Check, t: &mut Tracer, tally: &mut Tally| {
        session_stmt(&mut session, &prepared, oracle, i, check, t, tally).secs
    };
    let mut discard = Tracer::new(false);
    for round in 0..=rounds {
        let warm = round == 0;
        let direct = round <= direct_rounds;
        // Spans are kept from the measured rounds only.
        let kept: &mut Tracer = if warm { &mut discard } else { &mut *tracer };
        let check = if warm { Check::Bag } else { Check::Rows };
        let mut secs: [Vec<f64>; 4] = Default::default();
        let (mut own_pass, mut other_pass) = (DirectPass::new(n), DirectPass::new(n));
        for i in 0..n {
            for arm in ARM_ORDERS[(round + i) % 4] {
                match arm {
                    0 => secs[0].push(run_session(i, check, &mut off, tally)),
                    1 => secs[1].push(run_session(i, check, &mut *kept, tally)),
                    _ if !direct => {}
                    2 => direct_stmt(&own_exec, oracle, i, &mut *kept, tally, &mut own_pass),
                    _ => direct_stmt(&other_exec, oracle, i, &mut off, tally, &mut other_pass),
                }
            }
        }
        if direct
            && (own_pass.counts != other_pass.counts
                || own.last().is_some_and(|p| p.counts != own_pass.counts))
        {
            return Err(RelError::Other(
                "bsp counts differ between passes of the same statements".into(),
            ));
        }
        if warm {
            continue;
        }
        if direct {
            secs[2] = own_pass.stmt_secs.clone();
            secs[3] = other_pass.stmt_secs.clone();
            own.push(own_pass);
        }
        for (arm, secs) in arms.iter_mut().zip(secs) {
            if !secs.is_empty() {
                arm.push(secs);
            }
        }
    }
    let session_ms: Vec<f64> =
        arms[..2].iter().flatten().flatten().map(|secs| secs * 1e3).collect();
    let samples = session_ms.len();
    metrics.set("session.stmt_ms_p95", percentile(&session_ms, 95.0));
    let session_medians = stmt_medians(&arms[..2].iter().flatten().cloned().collect::<Vec<_>>());
    let [plain, traced, direct_medians, other_medians] = arms.map(|rounds| stmt_medians(&rounds));
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    // Median over statements of traced ÷ plain: a statement the host
    // disturbed in one arm only does not move it.
    let ratios: Vec<f64> = traced.iter().zip(&plain).map(|(t, p)| t / p).collect();
    metrics.set("harness.trace_overhead_frac", median(&ratios) - 1.0);
    drop((session, prepared));

    // core.*, bsp.* counts.
    let own_pass = median(&own.iter().map(|p| p.secs).collect::<Vec<_>>());
    metrics.set("core.execute_plan_ms", own_pass * 1e3);
    let (seq, par) = if own_engine.threads > 1 {
        (&other_medians, &direct_medians)
    } else {
        (&direct_medians, &other_medians)
    };
    metrics.set("bsp.par_over_seq", sum(par) / sum(seq));
    let counts = own[0].counts;
    metrics.set("core.out_rows", counts.out_rows as f64);
    metrics.set("bsp.supersteps", counts.supersteps as f64);
    metrics.set("bsp.messages", counts.messages as f64);
    metrics.set("bsp.message_mib", counts.message_bytes as f64 / MIB);
    metrics.set("bsp.active_vertices", counts.active_vertices as f64);

    // Per statement: one metric per statement id of either suite; a
    // statement that is not on this workload's list reads 0. The run file
    // also keeps the table with the `Session::execute` medians beside it.
    for id in all_stmt_ids() {
        let at = oracle.refs.iter().position(|r| r.stmt.id == id);
        metrics.set(&format!("core.stmt_ms.{id}"), at.map_or(0.0, |i| direct_medians[i] * 1e3));
    }
    let overhead: Vec<f64> =
        session_medians.iter().zip(&direct_medians).map(|(s, d)| (s - d) * 1e6).collect();
    metrics.set("session.execute_overhead_us", median(&overhead));
    details.push((
        "per_statement".to_string(),
        Json::Obj(
            oracle
                .refs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let row = Json::obj([
                        ("core.stmt_ms", Json::Num(direct_medians[i] * 1e3)),
                        ("session.stmt_ms", Json::Num(session_medians[i] * 1e3)),
                        ("out_rows", Json::from(r.expected.len())),
                    ]);
                    (r.stmt.id.to_string(), row)
                })
                .collect(),
        ),
    ));

    // bsp.checkpoint_*: one pass that checkpoints every 2 supersteps with
    // no fault planned, against the plain pass above.
    let pool = pool_for(own_engine);
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(), 2));
    let checkpointing = executor(&data.tag, own_engine, &pool).with_fault_injector(injector);
    let (ckpt, _) = tracer.span("bsp.checkpoint_pass", None, |_| {
        direct_pass(&checkpointing, oracle, &mut off, tally)
    });
    metrics.set("bsp.checkpoint_mib", ckpt.counts.checkpoint_bytes as f64 / MIB);
    metrics.set("bsp.checkpoint_pass_ratio", ckpt.secs / own_pass);

    // query.*, core.plan: the three public calls `QueryPlan::prepare` makes,
    // replayed one by one. Spans are kept for the first round only.
    let (mut parse_us, mut analyze_us, mut plan_us) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..reps(20, 2) {
        for r in &oracle.refs {
            let t: &mut Tracer = if round == 0 { tracer } else { &mut off };
            let id = Some(r.stmt.id);
            let (res, _) = t.span("prepare.replay", id, |t| -> Result<(), RelError> {
                let (ast, secs) = t.span("query.parse", id, |_| parse(r.stmt.sql));
                parse_us.push(secs * 1e6);
                let (analyzed, secs) =
                    t.span("query.analyze", id, |_| analyze(&ast?, data.tag.schemas()));
                analyze_us.push(secs * 1e6);
                let (plan, secs) = t.span("core.plan", id, |_| QueryPlan::new(analyzed?));
                plan_us.push(secs * 1e6);
                std::hint::black_box(plan?);
                Ok(())
            });
            res?;
        }
    }
    metrics.set("query.parse_us", median(&parse_us));
    metrics.set("query.analyze_us", median(&analyze_us));
    metrics.set("core.plan_us", median(&plan_us));

    // bsp.computation_new: the per-query floor proportional to |V| — unit
    // state, so what is timed is the state and inbox vectors alone.
    let graph = data.tag.graph();
    let new_secs: Vec<f64> = (0..reps(10, 3))
        .map(|_| {
            let (comp, secs) = tracer.span("bsp.computation_new", None, |_| {
                Computation::<(), u64>::new(graph, EngineConfig::sequential(), |_| ())
            });
            drop(comp);
            secs
        })
        .collect();
    metrics.set("bsp.computation_new_ms", median(&new_secs) * 1e3);

    // bsp.echo_*, bsp.pool_fanout: the engine and the pool with no SQL
    // operator in the way.
    let pool2 = Some(Arc::new(WorkerPool::new(2)));
    let par = EngineConfig::with_threads(2).with_parallel_threshold(0);
    let echo_seq: Vec<f64> = (0..reps(5, 2))
        .map(|_| {
            echo_superstep(
                &data.tag,
                EngineConfig::sequential(),
                &None,
                tracer,
                "bsp.echo_superstep",
            )
        })
        .collect();
    let echo_par: Vec<f64> = (0..reps(5, 2))
        .map(|_| echo_superstep(&data.tag, par, &pool2, tracer, "bsp.echo_superstep_par"))
        .collect();
    metrics.set("bsp.echo_superstep_ms", median(&echo_seq) * 1e3);
    metrics.set("bsp.echo_superstep_par_ms", median(&echo_par) * 1e3);
    metrics.set("bsp.echo_speedup", median(&echo_seq) / median(&echo_par));
    let pool = pool2.as_deref().expect("pool built above");
    let fanout_us: Vec<f64> = (0..reps(1000, 100))
        .map(|_| {
            let start = Instant::now();
            pool.run(2, &|_| {});
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.set("bsp.pool_fanout_us", median(&fanout_us));

    // bsp.partition, dist.*: a refined placement of the graph, then one
    // pass under it — the static-placement traffic of this workload.
    let (placement, secs) = tracer.span("bsp.partition", None, |_| {
        PartitionStrategy::Refined.partition(graph, MACHINES, &|v| !data.tag.is_tuple_vertex(v))
    });
    metrics.set("bsp.partition_ms", secs * 1e3);
    let placed = TagJoinExecutor::new(&data.tag, EngineConfig::sequential())
        .with_partitioning_shared(Arc::new(placement));
    let (static_pass, _) =
        tracer.span("dist.static_pass", None, |t| direct_pass(&placed, oracle, t, tally));
    if static_pass.counts.messages != counts.messages {
        return Err(RelError::Other("placement changed the message count".into()));
    }
    let net = static_pass.net;
    metrics.set("dist.network_messages", net.network_messages as f64);
    metrics.set("dist.rounds", net.rounds as f64);
    metrics.set("dist.query_net_mib", net.network_bytes as f64 / MIB);
    metrics.set("dist.net_mib_per_stmt", net.network_bytes as f64 / MIB / n as f64);
    metrics.set("dist.static_net_mib_per_stmt", net.network_bytes as f64 / MIB / n as f64);
    metrics.set(
        "dist.modelled_s",
        vcsql::dist::modelled_runtime(static_pass.secs, &net, MODELLED_BANDWIDTH)?,
    );
    Ok(samples)
}
