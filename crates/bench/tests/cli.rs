//! Integration tests for the `repro` binary's command line: argument errors
//! must print a usage message and exit with status 2 (never panic), and the
//! happy path must keep producing the experiment tables. The binary is
//! spawned for real via the path Cargo exports to integration tests.

use std::process::{Command, Output, Stdio};
use vcsql_bench::repro::{FLAGS, MODES};
use vcsql_workload::{tpcds, tpch, BenchQuery};

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
    assert_usage_exit("all --partitioning", "--partitioning needs a value");
}

#[test]
fn bad_partitioning_and_unknown_args_are_usage_errors() {
    assert_usage_exit("distributed --partitioning metis", "bad --partitioning value");
    assert_usage_exit("--frobnicate", "unknown flag");
    assert_usage_exit("no-such-mode", "unknown mode");
    assert_usage_exit("tpch tpcds", "unexpected extra argument");
}

#[test]
fn deleted_flags_are_unknown() {
    // The drift replay belongs to `benchmark/`'s `cluster_drift` and
    // `tests/session.rs`, `faults` writes no report, a profile from the
    // other suite matches no edge label of the measured TAG, and the
    // modelled bandwidth is one constant: their flags are plain unknown
    // flags, on any mode.
    assert_usage_exit("faults --json x", "unknown flag");
    for flag in ["sessions", "restart-at", "migration-budget", "profile-from"] {
        assert_usage_exit(&format!("distributed --{flag} 4"), "unknown flag");
    }
    assert_usage_exit("distributed --bandwidth 1e9", "unknown flag");
}

#[test]
fn bad_threads_are_usage_errors() {
    // Thread counts must be positive integers.
    assert_usage_exit("tpch --threads 0", "bad --threads value `0`");
    assert_usage_exit("tpch --threads -2", "bad --threads value `-2`");
    assert_usage_exit("tpch --threads lots", "bad --threads value `lots`");
    assert_usage_exit("tpch --threads", "--threads needs a value");
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
    assert_usage_exit("tpch --kill 2@3", "--kill only applies to the `faults` mode");
    assert_usage_exit(
        "loading --partitioning hash",
        "--partitioning only applies to the `distributed` (or `all`) mode",
    );
    assert_usage_exit(
        "distributed --threads 4",
        "--threads only applies to the per-query runtime modes (tpch, tpcds, all)",
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
fn faults_smoke_prints_exact_byte_columns() {
    // The fault sweep end to end at tiny scale: both workloads, every
    // checkpoint interval, result bags asserted identical to fault-free and
    // the sweep's invariants checked inside the binary (a violation exits 1).
    let stdout = stdout_of("faults --sf 0.004 --kill 1@2 --checkpoint-every 2 --seed 7");
    assert!(stdout.contains("Fault-tolerant execution"), "{stdout}");
    assert!(stdout.contains("crashes recovered"), "{stdout}");
    for workload in ["tpch", "tpcds"] {
        let table = stdout
            .split(&format!("### {workload} "))
            .nth(1)
            .unwrap_or_else(|| panic!("no {workload} table:\n{stdout}"));
        // Data rows: `| ckpt every | checkpoints | ckpt bytes | … |`, one per
        // interval, `off` (interval 0) first.
        let rows: Vec<Vec<&str>> = table
            .lines()
            .skip_while(|l| !l.starts_with("|---"))
            .skip(1)
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
            .collect();
        let intervals: Vec<&str> = rows.iter().map(|r| r[0]).collect();
        assert_eq!(intervals, ["off", "1", "2", "4", "8"], "{workload}:\n{table}");
        for row in &rows {
            // Every count, bytes included, is an exact integer.
            for cell in &row[1..] {
                assert!(cell.parse::<u64>().is_ok(), "{workload}: `{cell}` is not exact:\n{table}");
            }
        }
        // Interval 1 checkpoints every superstep: the crash at superstep 2
        // is recovered in place.
        assert_ne!(rows[1][3], "0", "{workload}: no crash recovered at interval 1:\n{table}");
    }
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = repro("--help");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: repro"));
}

/// A reader that goes away before the first line (`repro … | head -0`)
/// ends the run quietly: status 0, nothing on stderr, no panic backtrace.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    for cmdline in ["--help", "cost-model", "tpcds --sf 0.01 --threads 1"] {
        let mut child = command(cmdline)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("repro binary spawns");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("repro runs to its end");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{cmdline}: stderr {stderr}");
        assert!(stderr.is_empty(), "{cmdline}: stderr {stderr}");
    }
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

/// The section of `stdout` under the `## ` heading containing `heading`.
fn section<'a>(stdout: &'a str, heading: &str) -> &'a str {
    stdout
        .split("\n## ")
        .find(|s| s.lines().next().is_some_and(|l| l.contains(heading)))
        .unwrap_or_else(|| panic!("no `{heading}` section:\n{stdout}"))
}

/// First cells of every body row of every table in `section`, sorted, bold
/// total rows left out.
fn statement_ids(section: &str) -> Vec<&str> {
    let mut in_body = false;
    let mut ids = Vec::new();
    for line in section.lines() {
        if !line.starts_with('|') {
            in_body = false;
        } else if line.starts_with("|---") {
            in_body = true;
        } else if in_body && !line.starts_with("| **") {
            ids.extend(line.trim_matches('|').split('|').next().map(str::trim));
        }
    }
    ids.sort_unstable();
    ids
}

fn assert_one_row_per_statement(section: &str, queries: &[BenchQuery]) {
    let mut want: Vec<&str> = queries.iter().map(|q| q.id).collect();
    want.sort_unstable();
    assert_eq!(statement_ids(section), want, "{section}");
}

#[test]
fn runtime_modes_print_every_table_from_one_pass() {
    // Fig 13 and its drill-downs come from one timing pass per suite, whose
    // bags are checked against row-hash's (a mismatch exits 1).
    let stdout = stdout_of("tpch --sf 0.01 --threads 1");
    let queries = tpch::queries();
    assert_one_row_per_statement(section(&stdout, "TPC-H runtimes (paper Fig 13"), &queries);
    let drill_down = section(&stdout, "(paper Tables 3-4)");
    assert!(drill_down.contains("### Table 3 shape") && drill_down.contains("### Table 4 shape"));
    assert_one_row_per_statement(drill_down, &queries);

    let stdout = stdout_of("tpcds --sf 0.01 --threads 1");
    let queries = tpcds::queries();
    assert_one_row_per_statement(section(&stdout, "TPC-DS runtimes (paper Fig 13"), &queries);
    let matrix = section(&stdout, "(paper Table 5)");
    assert!(matrix.contains(&format!("total queries: {}", queries.len())), "{matrix}");
    assert_one_row_per_statement(section(&stdout, "(paper Table 6)"), &queries);
    let by_class = section(&stdout, "(paper Fig 15)");
    assert!(by_class.contains("| Local |"), "{by_class}");
}
