//! The run header: where and how a run was made, stored with every run so
//! two files can be told apart before their numbers are compared.

use crate::json::Json;
use crate::workloads::{Sizing, Workload, MACHINES};
use std::process::Command;

/// First line a command prints, or `unknown` (the driver's checkout is not a
/// git repository, and a host may lack either tool).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 1-minute load average, or -1 where `/proc/loadavg` is missing.
fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// Header of one run. Read at the start of the run, so the load average is
/// the host's, not the benchmark's own.
pub fn header(workload: Workload, sizing: &Sizing) -> Json {
    Json::obj([
        ("git_commit", first_line("git", &["rev-parse", "HEAD"]).into()),
        ("rustc", first_line("rustc", &["--version"]).into()),
        ("nproc", nproc().into()),
        ("load_average_1m", load_average().into()),
        ("seed", sizing.seed.into()),
        ("seconds", sizing.seconds.into()),
        ("smoke", sizing.smoke.into()),
        ("scale_factor", sizing.scale_factor(workload).into()),
        ("engine_threads", workload.engine_threads().into()),
        ("clients", workload.clients().into()),
        ("loop", "closed".into()),
        ("machines", MACHINES.into()),
    ])
}
