//! `compare a.json b.json`: one row per (workload, end-to-end metric).
//!
//! Each file is a set of runs. A side's value is the median over its runs of
//! that workload; its spread is the distance between their quartiles as a
//! share of that median. A metric is `worse` or `better` when the medians
//! differ by more than the metric's bound in that direction, `unresolved`
//! when either side's own spread exceeds the bound or a side has a single
//! run (the runs cannot tell), and `same` otherwise.
//!
//! Both sides must have run the same inputs: a workload whose seeds, scale
//! factor or sizing differ between the files is refused, not compared. That
//! is also what lets the rows go beyond the declared metrics to the
//! fixed-seed gates (`Spec::fixed_seed_gates`).

use crate::json::Json;
use crate::report::RUN_FILE_SCHEMA;
use crate::spec::{Better, MetricSpec, Spec};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    pub bound: f64,
    pub base_spread: f64,
    pub new_spread: f64,
    pub runs: (usize, usize),
    pub verdict: Verdict,
}

/// The untraced runs of a run file.
#[derive(Default)]
struct Samples {
    /// Values per (workload, metric).
    values: BTreeMap<(String, String), Vec<f64>>,
    /// Per workload, the distinct inputs its runs were given: seed, scale
    /// factor, seconds, smoke sizing.
    inputs: BTreeMap<String, Vec<String>>,
}

/// Header fields that decide a run's inputs.
const INPUT_FIELDS: [&str; 4] = ["seed", "scale_factor", "seconds", "smoke"];

fn samples(doc: &Json) -> Result<Samples, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(RUN_FILE_SCHEMA) {
        return Err(format!("not a {RUN_FILE_SCHEMA} file"));
    }
    let mut out = Samples::default();
    for run in doc.get("runs").and_then(Json::as_arr).ok_or("no `runs` list")? {
        if run.get("traced") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let header = run.get("header").ok_or("run without header")?;
        let inputs: Vec<String> = INPUT_FIELDS
            .iter()
            .map(|f| format!("{f} {}", header.get(f).map_or("?".to_string(), Json::compact)))
            .collect();
        out.inputs.entry(workload.to_string()).or_default().push(inputs.join(", "));
        for (name, entry) in
            run.get("metrics").and_then(Json::as_obj).ok_or("run without metrics")?
        {
            let value = entry.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
            out.values.entry((workload.to_string(), name.clone())).or_default().push(value);
        }
    }
    out.inputs.values_mut().for_each(|runs| {
        runs.sort();
        runs.dedup();
    });
    Ok(out)
}

pub fn verdict(m: &MetricSpec, base: &[f64], new: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    if base.len().min(new.len()) < 2
        || quartile_spread(base) > bound
        || quartile_spread(new) > bound
    {
        return Verdict::Unresolved;
    }
    let (b, n) = (median(base), median(new));
    // Positive when the new side is worse, as a share of the base; a base
    // of 0 (`failed_frac`) makes any difference an infinite one.
    let worsening = match m.better {
        _ if n == b => 0.0,
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compare two parsed run files. Rows come in declaration order: workloads
/// as `BENCHMARK.json` lists them, then its end-to-end metrics.
pub fn compare(spec: &Spec, base: &Json, new: &Json) -> Result<Vec<Row>, String> {
    let base = samples(base).map_err(|e| format!("base file: {e}"))?;
    let new = samples(new).map_err(|e| format!("new file: {e}"))?;
    let mut rows = Vec::new();
    for (workload, _) in &spec.workloads {
        if let (Some(b), Some(n)) = (base.inputs.get(workload), new.inputs.get(workload)) {
            if b != n {
                return Err(format!(
                    "{workload}: the two files ran different inputs\n  base: {}\n  new:  {}",
                    b.join(" | "),
                    n.join(" | ")
                ));
            }
        }
        for m in spec.end_to_end.iter().chain(&spec.fixed_seed_gates(workload)) {
            let key = (workload.clone(), m.name.clone());
            let (Some(b), Some(n)) = (base.values.get(&key), new.values.get(&key)) else {
                continue;
            };
            let (bm, nm) = (median(b), median(n));
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                base: bm,
                new: nm,
                ratio: if nm == bm { 1.0 } else { nm / bm },
                bound: m.bound.unwrap_or(0.0),
                base_spread: quartile_spread(b),
                new_spread: quartile_spread(n),
                runs: (b.len(), n.len()),
                verdict: verdict(m, b, n),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8} {:>5}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound", "spread_a", "spread_b", "runs"
    );
    for r in rows {
        println!(
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>8.4} {:>6} {:>8.4} {:>8.4} {:>2}/{:<2}  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.base,
            r.new,
            r.ratio,
            r.bound,
            r.base_spread,
            r.new_spread,
            r.runs.0,
            r.runs.1,
            r.verdict.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run per value, all of seed `seed`.
    fn run_file(workload: &str, seed: u64, values: &[(&str, f64)]) -> Json {
        let runs = values
            .iter()
            .map(|(name, v)| {
                Json::obj([
                    ("workload", Json::from(workload)),
                    ("traced", Json::Bool(false)),
                    ("header", Json::obj([("seed", Json::from(seed))])),
                    ("metrics", Json::obj([(*name, Json::obj([("value", Json::Num(*v))]))])),
                ])
            })
            .collect();
        Json::obj([("schema", Json::from(RUN_FILE_SCHEMA)), ("runs", Json::Arr(runs))])
    }

    fn one(workload: &str, metric: &str, base: &[f64], new: &[f64]) -> Verdict {
        let b: Vec<_> = base.iter().map(|v| (metric, *v)).collect();
        let n: Vec<_> = new.iter().map(|v| (metric, *v)).collect();
        let rows = compare(&Spec::load(), &run_file(workload, 42, &b), &run_file(workload, 42, &n))
            .unwrap();
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let spec = Spec::load();
        let twice = |v: f64| [v, v];
        // Higher is better: worse means lower by more than the bound.
        let up = spec.end_to_end("stmts_per_s").unwrap().bound.unwrap();
        let rate = |new: f64| one("tpch_seq", "stmts_per_s", &twice(100.0), &twice(new));
        assert_eq!(rate(100.0 * (1.0 - 1.5 * up)), Verdict::Worse);
        assert_eq!(rate(100.0 * (1.0 - 0.5 * up)), Verdict::Same);
        assert_eq!(rate(100.0 * (1.0 + 1.5 * up)), Verdict::Better);
        // Lower is better.
        let down = spec.end_to_end("stmt_ms_p50").unwrap().bound.unwrap();
        let p50 = |new: f64| one("tpch_seq", "stmt_ms_p50", &twice(10.0), &twice(new));
        assert_eq!(p50(10.0 * (1.0 + 1.5 * down)), Verdict::Worse);
        assert_eq!(p50(10.0 * (1.0 - 1.5 * down)), Verdict::Better);
        // A side whose own runs spread wider than the bound cannot resolve,
        // and neither can a single run.
        let wide = [10.0 * (1.0 - down), 10.0, 10.0 * (1.0 + down), 10.0 * (1.0 + 2.0 * down)];
        assert_eq!(one("tpch_seq", "stmt_ms_p50", &wide, &twice(20.0)), Verdict::Unresolved);
        assert_eq!(one("tpch_seq", "stmt_ms_p50", &[10.0], &twice(20.0)), Verdict::Unresolved);
        assert_eq!(
            one("tpch_seq", "stmt_ms_p50", &[10.0, 10.1, 10.2], &[10.1, 10.1]),
            Verdict::Same
        );
    }

    #[test]
    fn fixed_seed_gates_are_compared_at_their_own_bounds() {
        // The byte count of `cluster_drift` is exact: 2% more is worse there,
        // and within the 10% that interleaving is allowed on `serve_mixed`.
        let net = |w: &str| one(w, "net_mib_per_stmt", &[1.0, 1.0], &[1.02, 1.02]);
        assert_eq!(net("cluster_drift"), Verdict::Worse);
        assert_eq!(net("serve_mixed"), Verdict::Same);
        // No failure is tolerated, whatever the base.
        let failed = |new: f64| one("tpch_seq", "failed_frac", &[0.0, 0.0], &[new, new]);
        assert_eq!(failed(0.0), Verdict::Same);
        assert_eq!(failed(0.001), Verdict::Worse);
        assert_eq!(
            one("tpch_seq", "stmt_ms_p95", &[100.0, 100.0], &[112.0, 112.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn files_that_ran_different_inputs_are_refused() {
        let spec = Spec::load();
        let file = |seed| run_file("tpch_seq", seed, &[("stmts_per_s", 1.0)]);
        assert!(compare(&spec, &file(42), &file(42)).is_ok());
        let refused = compare(&spec, &file(42), &file(7)).unwrap_err();
        assert!(refused.contains("different inputs"), "{refused}");
    }

    #[test]
    fn traced_runs_and_foreign_files_are_left_out() {
        let spec = Spec::load();
        let mut traced = run_file("tpch_seq", 42, &[("stmts_per_s", 1.0)]);
        if let Json::Obj(fields) = &mut traced {
            if let Json::Arr(runs) = &mut fields[1].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    run[1].1 = Json::Bool(true);
                }
            }
        }
        let plain = run_file("tpch_seq", 42, &[("stmts_per_s", 1.0)]);
        assert!(compare(&spec, &traced, &plain).is_err());
        assert!(compare(&spec, &Json::obj([("schema", Json::from("other"))]), &plain).is_err());
    }
}
