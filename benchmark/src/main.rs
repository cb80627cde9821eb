//! Command line of the benchmark harness. See `README.md`.

use std::process::ExitCode;
use vcsql_benchmark::json::Json;
use vcsql_benchmark::spec::Spec;
use vcsql_benchmark::workloads::{Sizing, Workload};
use vcsql_benchmark::{compare, header, report, run_workload};

const USAGE: &str = "\
usage:
  vcsql-benchmark run     [--workload <name>|all] [--seed n] [--seconds s] [--trace 0|1]
                          [--smoke] [--json runs.json] [--trace-out spans.json]
  vcsql-benchmark trace   ...            same as `run --trace 1`
  vcsql-benchmark compare base.json new.json

workloads: tpch_seq tpch_par tpcds_seq cluster_drift serve_mixed (default: all)
`run` prints every metric by name and, as its last line, one JSON result object;
it exits 1 if any statement failed its check. `--json` appends the run to a run
file (a set of runs is what `compare` takes medians and spreads over).";

struct RunArgs {
    workloads: Vec<Workload>,
    sizing: Sizing,
    traced: bool,
    json: Option<String>,
    trace_out: Option<String>,
}

fn parse_run(args: &[String], traced: bool, spec: &Spec) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Workload::ALL.to_vec(),
        sizing: Sizing { seed: 42, seconds: spec.run_seconds, smoke: false },
        traced,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    run.workloads =
                        vec![Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?];
                }
            }
            "--seed" => {
                run.sizing.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(secs > 0.0 && secs <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                run.sizing.seconds = secs;
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => run.sizing.smoke = true,
            "--json" => run.json = Some(writable(value()?)?),
            "--trace-out" => run.trace_out = Some(writable(value()?)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(run)
}

/// An output path whose directory exists: found out before the run, not
/// after it.
fn writable(path: &str) -> Result<String, String> {
    match std::path::Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => {
            Err(format!("{path}: directory {} does not exist", dir.display()))
        }
        _ => Ok(path.to_string()),
    }
}

/// `spans.json` → `spans.tpch_seq.json` when one command traces several
/// workloads.
fn per_workload_path(path: &str, workload: Workload) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !ext.contains('/') => format!("{stem}.{}.{ext}", workload.name()),
        _ => format!("{path}.{}", workload.name()),
    }
}

/// Several workloads: one child process each, so that `peak_rss_mib` and the
/// allocator's state belong to one workload, as they do under the driver.
fn run_each_in_a_child(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut failed = false;
    for &workload in &args.workloads {
        let mut child = std::process::Command::new(&exe);
        child.args(["run", "--workload", workload.name()]);
        child.args([
            "--seed",
            &args.sizing.seed.to_string(),
            "--seconds",
            &args.sizing.seconds.to_string(),
        ]);
        child.args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.sizing.smoke {
            child.arg("--smoke");
        }
        if let Some(path) = &args.json {
            child.args(["--json", path]);
        }
        if let Some(path) = &args.trace_out {
            child.args(["--trace-out", &per_workload_path(path, workload)]);
        }
        let status = child.status().map_err(|e| format!("{}: {e}", workload.name()))?;
        match status.code() {
            Some(0) => {}
            Some(1) => failed = true,
            _ => return Err(format!("{}: child ended with {status}", workload.name())),
        }
    }
    Ok(if failed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn run(args: RunArgs, spec: &Spec) -> Result<ExitCode, String> {
    if args.workloads.len() > 1 {
        return run_each_in_a_child(&args);
    }
    let [workload] = args.workloads[..] else { return Err("no workload to run".into()) };
    if workload.needs_two_cores() && header::nproc() < 2 {
        println!("== {} skipped: needs 2 cores, host has {}", workload.name(), header::nproc());
        return Ok(ExitCode::SUCCESS);
    }
    // Read at the start, so the load average is the host's and not the
    // benchmark's own; only a stored run has a header.
    let stored = args.json.as_ref().map(|path| (path, header::header(workload, &args.sizing)));
    let (outcome, tracer) = run_workload(workload, &args.sizing, args.traced)?;
    outcome.print(spec)?;
    if let Some((path, head)) = stored {
        report::append_run(path, outcome.to_json(spec, head)?)?;
    }
    if let (Some(path), true) = (&args.trace_out, args.traced) {
        std::fs::write(path, tracer.to_json(workload.name()).pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.result_line(spec)?);
    Ok(if outcome.tally.failed > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn compare_files(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let [base, new] = args else { return Err("compare takes two run files".into()) };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(spec, &read(base)?, &read(new)?)?;
    compare::print(&rows);
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (count(compare::Verdict::Worse), count(compare::Verdict::Unresolved));
    println!("{} rows: {worse} worse, {unresolved} unresolved", rows.len());
    Ok(if worse > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" || cmd == "trace" => {
            parse_run(rest, cmd == "trace", &spec)
                .map_err(|e| (e, true))
                .and_then(|a| run(a, &spec).map_err(|e| (e, false)))
        }
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest, &spec).map_err(|e| (e, false)),
        _ => Err(("expected `run`, `trace` or `compare`".to_string(), true)),
    };
    match result {
        Ok(code) => code,
        Err((message, usage)) => {
            eprintln!("error: {message}");
            if usage {
                eprintln!("{USAGE}");
            }
            ExitCode::from(2)
        }
    }
}
