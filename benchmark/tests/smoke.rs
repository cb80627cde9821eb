//! Smoke test of the whole harness at `--smoke` size: the declared command
//! line, the declared names, the trace file and `compare`, end to end
//! through the built binary.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`
//! (a debug build of the engine makes it several times slower).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use vcsql_benchmark::json::Json;
use vcsql_benchmark::spec::{MetricSpec, Spec};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vcsql-benchmark")).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// The result object on the last line of standard output.
fn result_line(out: &Output) -> Json {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("UTF-8 output");
    Json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON")
}

fn legal_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result holds exactly the declared keys, and under `metrics` every
/// declared metric exactly once with a finite value and its unit.
fn check_result(result: &Json, declared: &[MetricSpec], what: &str) {
    let keys: Vec<&str> =
        result.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{what}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{what}: failed_frac == 0");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0, "{what}");
    let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, want, "{what}: every declared metric once, nothing else");
    for ((name, entry), spec) in metrics.iter().zip(declared) {
        assert!(legal_name(name), "{what}: name {name}");
        let value = entry.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{what}: {name} = {value}");
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(spec.unit.as_str()),
            "{what}: {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric_once() {
    let spec = Spec::load();
    let runs = tmp("smoke_runs.json");
    let mut messages = Vec::new();
    for (workload, why) in &spec.workloads {
        assert!(legal_name(workload) && !why.is_empty() && !why.contains('\n'));
        // The driver's form of the command: run --workload w --seed n --seconds s --trace t.
        let common = ["run", "--smoke", "--workload", workload, "--seed", "7", "--seconds", "1"];
        // Twice into the run file: `compare` takes no verdict from one run.
        let store = [&common[..], &["--trace", "0", "--json", runs.to_str().unwrap()]].concat();
        assert!(bench(&store).status.success());
        let untraced = bench(&store);
        let result = result_line(&untraced);
        check_result(&result, &spec.end_to_end, workload);
        let metrics = result.get("metrics").unwrap();
        for m in &spec.end_to_end {
            let v = metrics.get(&m.name).unwrap().get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{workload}: end-to-end metric {} is never 0", m.name);
        }
        // The human-readable block names each metric once, with its unit.
        let text = String::from_utf8(untraced.stdout).unwrap();
        assert_eq!(text.matches(&format!("== {workload} ")).count(), 1);
        for m in &spec.end_to_end {
            let lines = text
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(m.name.as_str()))
                .count();
            assert_eq!(lines, 1, "{workload}: {} printed once", m.name);
        }
        assert!(text.contains("closed loop"), "loop kind is stated");
        // The issue's other end-to-end metrics are printed too, by name.
        for name in ["stmt_ms_p95", "failed_frac"] {
            assert!(text.lines().any(|l| l.split_whitespace().next() == Some(name)), "{name}");
        }

        let traced = bench(&[&common[..], &["--trace", "1"]].concat());
        let result = result_line(&traced);
        check_result(&result, &spec.per_layer, workload);
        // Every per-layer line names the end-to-end metric it should move.
        let text = String::from_utf8(traced.stdout).unwrap();
        for m in &spec.per_layer {
            assert!(!vcsql_benchmark::layers::moves(&m.name).is_empty(), "{}", m.name);
            let line = text.lines().find(|l| l.split_whitespace().next() == Some(m.name.as_str()));
            assert!(line.is_some_and(|l| l.contains("  -> ")), "{workload}: {} -> ?", m.name);
        }
        let messages_of = result
            .get("metrics")
            .unwrap()
            .get("bsp.messages")
            .unwrap()
            .get("value")
            .and_then(Json::as_f64);
        messages.push((workload.clone(), messages_of.unwrap()));
    }
    // Thread count must not change what is sent.
    let of = |w: &str| messages.iter().find(|(n, _)| n == w).unwrap().1;
    assert_eq!(of("tpch_seq"), of("tpch_par"), "bsp.messages equal across tpch_seq / tpch_par");
    assert!(of("tpch_seq") > 0.0);

    // The run file holds two runs per workload, each with a full header, and
    // claims nothing.
    let doc = Json::parse(&std::fs::read_to_string(&runs).unwrap()).unwrap();
    assert_eq!(doc.get("claim"), Some(&Json::Null));
    let stored = doc.get("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(stored.len(), 2 * spec.workloads.len());
    for run in stored {
        let header = run.get("header").and_then(Json::as_obj).unwrap();
        let have: BTreeSet<&str> = header.iter().map(|(k, _)| k.as_str()).collect();
        for key in [
            "git_commit",
            "rustc",
            "nproc",
            "load_average_1m",
            "seed",
            "scale_factor",
            "engine_threads",
            "clients",
            "loop",
        ] {
            assert!(have.contains(key), "header has {key}");
        }
    }

    // A file compared with itself: one row per declared metric and per
    // fixed-seed gate of each workload, none worse, exit 0. (Two smoke runs
    // of a few milliseconds may spread wider than a bound: `unresolved` is
    // allowed here, `worse` is not.)
    let path = runs.to_str().unwrap();
    let same = bench(&["compare", path, path]);
    assert!(same.status.success());
    let table = String::from_utf8(same.stdout).unwrap();
    let rows: usize = spec
        .workloads
        .iter()
        .map(|(w, _)| spec.end_to_end.len() + spec.fixed_seed_gates(w).len())
        .sum();
    assert!(table.contains(&format!("{rows} rows: 0 worse")), "{table}");
    for name in ["stmt_ms_p95", "net_mib_per_stmt", "failed_frac"] {
        assert!(table.contains(name), "compare sees {name}");
    }
}

#[test]
fn compare_exits_1_on_a_regression() {
    let spec = Spec::load();
    let file = |name: &str, rate: f64| {
        let run = Json::obj([
            ("workload", Json::from("tpch_seq")),
            ("traced", Json::Bool(false)),
            ("header", Json::obj([("seed", Json::from(42u64))])),
            ("metrics", Json::obj([("stmts_per_s", Json::obj([("value", Json::Num(rate))]))])),
        ]);
        let doc = Json::obj([
            ("schema", Json::from("vcsql-benchmark/v1")),
            ("runs", Json::Arr(vec![run.clone(), run])),
        ]);
        let path = tmp(name);
        std::fs::write(&path, doc.pretty()).unwrap();
        path
    };
    let bound = spec.end_to_end("stmts_per_s").unwrap().bound.unwrap();
    let (base, slow) =
        (file("cmp_base.json", 100.0), file("cmp_slow.json", 100.0 * (1.0 - 2.0 * bound)));
    let out = bench(&["compare", base.to_str().unwrap(), slow.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stdout).unwrap().contains("worse"));
    assert_eq!(
        bench(&["compare", slow.to_str().unwrap(), base.to_str().unwrap()]).status.code(),
        Some(0)
    );
}

#[test]
fn the_span_file_nests_and_its_self_times_add_up() {
    let spans = tmp("smoke_spans.json");
    let out = bench(&[
        "trace",
        "--smoke",
        "--workload",
        "serve_mixed",
        "--trace-out",
        spans.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(&std::fs::read_to_string(&spans).unwrap()).unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("vcsql-benchmark-spans/v1"));
    let list = doc.get("spans").and_then(Json::as_arr).unwrap();
    let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).unwrap();
    let names: BTreeSet<&str> =
        list.iter().map(|s| s.get("name").and_then(Json::as_str).unwrap()).collect();
    for name in [
        "workload.generate",
        "tag.build",
        "server.start",
        "server.run_sql",
        "session.execute",
        "core.execute_plan",
        "query.parse",
        "query.analyze",
        "core.plan",
        "bsp.partition",
    ] {
        assert!(names.contains(name), "span `{name}` recorded");
    }
    assert!(names.iter().all(|n| legal_name(n)));
    // Children lie inside their parents; per root, self times sum to the
    // root's wall time within 2%.
    let mut subtree_self = std::collections::BTreeMap::new();
    let root_of = |mut id: f64| loop {
        let s = list.iter().find(|s| num(s, "id") == id).unwrap();
        match s.get("parent").and_then(Json::as_f64) {
            Some(p) => id = p,
            None => return id as u64,
        }
    };
    for s in list {
        if let Some(p) = s.get("parent").and_then(Json::as_f64) {
            let parent = list.iter().find(|x| num(x, "id") == p).expect("parent exists");
            assert!(
                num(s, "start_us") >= num(parent, "start_us")
                    && num(s, "end_us") <= num(parent, "end_us")
            );
        }
        *subtree_self.entry(root_of(num(s, "id"))).or_insert(0.0) += num(s, "self_us");
    }
    for s in list.iter().filter(|s| s.get("parent") == Some(&Json::Null)) {
        let wall = num(s, "end_us") - num(s, "start_us");
        let own = subtree_self[&(num(s, "id") as u64)];
        assert!(
            (own - wall).abs() <= 0.02 * wall + 1e-6,
            "root {}: self {own} vs wall {wall}",
            num(s, "id")
        );
    }
}

#[test]
fn misuse_prints_usage_and_exits_2() {
    for args in [
        &["bogus"][..],
        &["run", "--workload", "nope"],
        &["run", "--trace", "2"],
        &["run", "--seconds", "0"],
        &["compare", "only-one.json"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no result line");
    }
}
