//! Integration tests for the `repro` binary's command line: argument errors
//! must print a usage message and exit with status 2 (never panic), and the
//! happy path must keep producing the experiment tables. The binary is
//! spawned for real via the path Cargo exports to integration tests.

use std::process::{Command, Output};
use vcsql_bench::repro::{FLAGS, MODES};

/// `repro <cmdline>` (whitespace-separated arguments), not yet spawned.
fn command(cmdline: &str) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro"));
    command.args(cmdline.split_whitespace());
    command
}

fn repro(cmdline: &str) -> Output {
    command(cmdline).output().expect("repro binary spawns")
}

fn successful_stdout(cmdline: &str, out: Output) -> String {
    assert!(out.status.success(), "{cmdline} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The stdout of a run that must succeed.
fn stdout_of(cmdline: &str) -> String {
    successful_stdout(cmdline, repro(cmdline))
}

/// The stdout of a successful `--json` run and the report it wrote.
fn stdout_and_report_of(cmdline: &str) -> (String, String) {
    let mode = cmdline.split_whitespace().next().unwrap();
    let path = std::env::temp_dir().join(format!("repro-{mode}-{}.json", std::process::id()));
    let out = command(cmdline).arg("--json").arg(&path).output().expect("repro binary spawns");
    let stdout = successful_stdout(cmdline, out);
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (stdout, json)
}

fn assert_usage_exit(args: &str, expect_in_stderr: &str) {
    let out = repro(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: repro"), "{args:?}: no usage text in\n{stderr}");
    assert!(stderr.contains(expect_in_stderr), "{args:?}: missing `{expect_in_stderr}`\n{stderr}");
    // The panic path this replaces would have tripped Rust's handler.
    assert!(!stderr.contains("panicked"), "{args:?}: CLI panicked\n{stderr}");
}

#[test]
fn bad_sf_value_is_a_usage_error() {
    assert_usage_exit("tpch --sf abc", "bad --sf value `abc`");
    assert_usage_exit("tpch --sf 0.01,nope", "bad --sf value `nope`");
    assert_usage_exit("tpch --sf -0.5", "bad --sf value `-0.5`");
    assert_usage_exit("tpch --sf 0", "bad --sf value `0`");
}

#[test]
fn missing_flag_values_are_usage_errors() {
    assert_usage_exit("tpch --sf", "--sf needs a value");
    assert_usage_exit("distributed --partitioning", "--partitioning needs a value");
    assert_usage_exit("distributed --profile-from", "--profile-from needs a value");
    assert_usage_exit("distributed --bandwidth", "--bandwidth needs a value");
}

#[test]
fn bad_partitioning_and_unknown_args_are_usage_errors() {
    assert_usage_exit("distributed --partitioning metis", "bad --partitioning value");
    assert_usage_exit("--frobnicate", "unknown flag");
    assert_usage_exit("no-such-mode", "unknown mode");
    assert_usage_exit("tpch tpcds", "unexpected extra argument");
}

#[test]
fn bad_profile_from_and_bandwidth_are_usage_errors() {
    assert_usage_exit("distributed --profile-from mongodb", "bad --profile-from value");
    // A profile source without a `workload` strategy to consume it would be
    // silently ignored — reject it instead.
    assert_usage_exit(
        "distributed --profile-from tpch",
        "--profile-from requires --partitioning to include `workload`",
    );
    // Non-positive or unparsable bandwidth must be a usage error, never the
    // panic `modelled_runtime` used to raise deep in the run.
    assert_usage_exit("distributed --bandwidth 0", "bad --bandwidth value");
    assert_usage_exit("distributed --bandwidth -3", "bad --bandwidth value");
    assert_usage_exit("distributed --bandwidth fast", "bad --bandwidth value");
    assert_usage_exit("distributed --bandwidth inf", "bad --bandwidth value");
}

#[test]
fn bad_sessions_and_migration_budget_are_usage_errors() {
    // Zero/negative/non-numeric counts must exit 2, never panic.
    assert_usage_exit("distributed --sessions 0", "bad --sessions value `0`");
    assert_usage_exit("distributed --sessions -3", "bad --sessions value `-3`");
    assert_usage_exit("distributed --sessions many", "bad --sessions value `many`");
    assert_usage_exit("distributed --sessions", "--sessions needs a value");
    assert_usage_exit(
        "distributed --sessions 4 --migration-budget 0",
        "bad --migration-budget value `0`",
    );
    assert_usage_exit(
        "distributed --sessions 4 --migration-budget -5",
        "bad --migration-budget value `-5`",
    );
    assert_usage_exit(
        "distributed --sessions 4 --migration-budget x",
        "bad --migration-budget value `x`",
    );
    // The replay is a dedicated experiment with a fixed drift.
    assert_usage_exit(
        "distributed --migration-budget 10",
        "--migration-budget requires --sessions",
    );
    assert_usage_exit(
        "distributed --sessions 4 --partitioning workload --profile-from tpch",
        "drop --profile-from",
    );
    assert_usage_exit(
        "distributed --sessions 4 --partitioning hash",
        "--sessions replay uses the `workload` strategy",
    );
}

#[test]
fn bad_threads_and_json_are_usage_errors() {
    // Thread counts must be positive integers.
    assert_usage_exit("tpch --threads 0", "bad --threads value `0`");
    assert_usage_exit("tpch --threads -2", "bad --threads value `-2`");
    assert_usage_exit("tpch --threads lots", "bad --threads value `lots`");
    assert_usage_exit("tpch --threads", "--threads needs a value");
    assert_usage_exit("faults --json", "--json needs a path");
}

#[test]
fn every_flag_is_a_usage_error_on_every_mode_that_does_not_list_it() {
    // No mode silently ignores a flag: the tables are the whole policy, so
    // walk their cross product. The mode's row is consulted before the
    // value, so a placeholder value serves every flag.
    for mode in &MODES {
        for flag in FLAGS.iter().filter(|f| !mode.accepts(f)) {
            assert_usage_exit(&format!("{} {} 1", mode.name, flag.name), "only applies to");
        }
    }
    // One exact text per shape of the message, which names the modes that
    // do list the flag.
    assert_usage_exit("tpch --sessions 4", "--sessions only applies to the `distributed` mode");
    assert_usage_exit(
        "loading --partitioning hash",
        "--partitioning only applies to the `distributed` (or `all`) mode",
    );
    assert_usage_exit(
        "tpch --bandwidth 5e8",
        "--bandwidth only applies to the `distributed` (or `all`) mode",
    );
    assert_usage_exit("tpch --json out.json", "--json only applies to the `faults` mode");
    assert_usage_exit(
        "distributed --threads 4",
        "--threads only applies to the per-query runtime modes (tpch, tpcds, tpch-classes, \
         tpcds-matrix, tpcds-classes, agg-breakdown, all)",
    );
}

#[test]
fn bad_fault_flags_are_usage_errors() {
    // `--kill` wants machine@superstep: a lone number, non-numeric halves
    // and a dangling `@` must all exit 2, never panic.
    assert_usage_exit("faults --kill 2", "bad --kill value `2`");
    assert_usage_exit("faults --kill x@y", "bad --kill value `x@y`");
    assert_usage_exit("faults --kill 2@", "bad --kill value `2@`");
    assert_usage_exit("faults --kill @3", "bad --kill value `@3`");
    assert_usage_exit("faults --kill -1@3", "bad --kill value `-1@3`");
    assert_usage_exit("faults --kill", "--kill needs a value");
    // Interval 0 (checkpointing off) is an arm the sweep always includes;
    // asking for it explicitly is a contradiction, so reject it.
    assert_usage_exit("faults --checkpoint-every 0", "bad --checkpoint-every value `0`");
    assert_usage_exit("faults --checkpoint-every -2", "bad --checkpoint-every value `-2`");
    assert_usage_exit("faults --checkpoint-every often", "bad --checkpoint-every value `often`");
    assert_usage_exit("faults --checkpoint-every", "--checkpoint-every needs a value");
    assert_usage_exit("faults --seed abc", "bad --seed value `abc`");
    assert_usage_exit("faults --seed -7", "bad --seed value `-7`");
    assert_usage_exit("faults --seed", "--seed needs a value");
}

#[test]
fn bad_restart_at_is_a_usage_error() {
    assert_usage_exit("distributed --sessions 6 --restart-at 0", "bad --restart-at");
    assert_usage_exit("distributed --sessions 6 --restart-at x", "bad --restart-at");
    assert_usage_exit("distributed --restart-at 3", "--restart-at requires --sessions");
    // Restarting at or past the end leaves nothing to replay — reject it.
    assert_usage_exit(
        "distributed --sessions 6 --restart-at 6",
        "--restart-at must be less than --sessions",
    );
    assert_usage_exit(
        "distributed --sessions 6 --restart-at 9",
        "--restart-at must be less than --sessions",
    );
}

#[test]
fn sessions_drift_replay_smoke() {
    // A tiny replay end to end: calibrate on TPC-H, drift to TPC-DS, adapt.
    let stdout = stdout_of(
        "distributed --sf 0.004 --sessions 6 --partitioning workload --migration-budget 512",
    );
    assert!(stdout.contains("Session drift replay"), "{stdout}");
    assert!(stdout.contains("placement calibrated on tpch"), "{stdout}");
    assert!(stdout.contains("migration"), "{stdout}");
    assert!(stdout.contains("self-profiled yardstick"), "{stdout}");
    assert!(stdout.contains("plan cache"), "{stdout}");
}

#[test]
fn restart_replay_races_warm_against_cold() {
    // The durable-profile path end to end: restart mid-replay, warm start
    // reloads the saved profile text, cold start recalibrates.
    let stdout = stdout_of(
        "distributed --sf 0.004 --sessions 6 --restart-at 4 --partitioning workload \
         --migration-budget 512",
    );
    assert!(stdout.contains("restart before query 4"), "{stdout}");
    assert!(stdout.contains("warm start (saved profile reloaded"), "{stdout}");
    assert!(stdout.contains("cold start (recalibrated on tpch"), "{stdout}");
    assert!(stdout.contains("session (post-restart)"), "{stdout}");
}

#[test]
fn faults_smoke_emits_fault_report_json() {
    // The fault sweep end to end at tiny scale: both workloads, every
    // checkpoint interval, result bags asserted identical to fault-free
    // inside the binary, and a vcsql-fault-report/v1 document that passed
    // its own invariant check.
    let (stdout, json) =
        stdout_and_report_of("faults --sf 0.004 --kill 1@2 --checkpoint-every 2 --seed 7");
    assert!(stdout.contains("Fault-tolerant execution"), "{stdout}");
    assert!(stdout.contains("### tpch"), "{stdout}");
    assert!(stdout.contains("### tpcds"), "{stdout}");
    assert!(stdout.contains("crashes recovered"), "{stdout}");
    assert!(json.contains("\"schema\": \"vcsql-fault-report/v1\""), "{json}");
    assert!(json.contains("\"kill\": {\"machine\": 1, \"superstep\": 2}"), "{json}");
    assert!(json.contains("\"checkpoint_every\": 2"), "{json}");
    assert!(json.contains("\"workload\": \"tpch\""), "{json}");
    assert!(json.contains("\"workload\": \"tpcds\""), "{json}");
    for key in ["checkpoint_bytes", "crashes_recovered", "recovered_rounds", "recovery_bytes"] {
        assert!(json.contains(&format!("\"{key}\"")), "missing `{key}`:\n{json}");
    }
    // Interval 1 checkpoints every superstep: the crash at superstep 2 must
    // actually recover somewhere in the sweep.
    assert!(json.contains("\"interval\": 0"), "{json}");
    assert!(json.contains("\"interval\": 1"), "{json}");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = repro("--help");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: repro"));
}

#[test]
fn distributed_smoke_reports_all_strategies() {
    // Tiny scale factor keeps this fast even in debug builds. `workload`
    // adds a calibration phase before the per-strategy table.
    let stdout = stdout_of("distributed --sf 0.004 --partitioning hash,colocate,refined,workload");
    for name in ["tag net (hash)", "tag net (colocate)", "tag net (refined)", "tag net (workload)"]
    {
        assert!(stdout.contains(name), "missing column `{name}`:\n{stdout}");
    }
    assert!(stdout.contains("calibrated on tpch"), "{stdout}");
    assert!(stdout.contains("spark/tag traffic ratio"), "{stdout}");
    assert!(stdout.contains("edge cut"), "{stdout}");
}

#[test]
fn distributed_smoke_cross_profiles_workloads() {
    // Calibrating TPC-H's placement with TPC-DS traffic (and vice versa)
    // must run end to end — the skew-sensitivity demonstration path.
    let stdout = stdout_of(
        "distributed --sf 0.004 --partitioning workload --profile-from tpcds --bandwidth 5e8",
    );
    assert!(stdout.contains("calibrated on tpcds"), "{stdout}");
    assert!(stdout.contains("tag net (workload)"), "{stdout}");
}
