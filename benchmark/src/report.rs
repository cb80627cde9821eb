//! What a run produces and how it is printed and stored.

use crate::json::Json;
use crate::oracle::Tally;
use crate::spec::{MetricSpec, Spec};
use crate::workloads::Workload;

/// Named values in the order they were measured.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Record a value; a later value for the same name replaces the earlier
    /// one (a workload overrides what the common probes measured).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The result of one workload run, traced or not.
pub struct Outcome {
    pub workload: Workload,
    pub traced: bool,
    pub metrics: Metrics,
    pub tally: Tally,
    /// Latency samples behind `stmt_ms_p50` (untraced) or `session.stmt_ms_p95`
    /// (traced).
    pub samples: usize,
    /// Everything worth keeping that is not a declared metric: sizing, the
    /// per-statement table, sample counts.
    pub details: Vec<(String, Json)>,
}

impl Outcome {
    /// The metrics this run owes the declaration: every end-to-end metric
    /// for an untraced run, every per-layer metric for a traced one.
    pub fn declared<'s>(&self, spec: &'s Spec) -> &'s [MetricSpec] {
        if self.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        }
    }

    /// Declared metrics with their values; a metric the run failed to
    /// produce, or produced as NaN or infinity, is an error.
    pub fn values(&self, spec: &Spec) -> Result<Vec<(MetricSpec, f64)>, String> {
        self.lookup(self.declared(spec))
    }

    /// Everything a stored run keeps: the declared metrics and, for an
    /// untraced run, the fixed-seed gates `compare` also reads.
    pub fn stored(&self, spec: &Spec) -> Result<Vec<(MetricSpec, f64)>, String> {
        let mut all = self.values(spec)?;
        if !self.traced {
            all.extend(self.lookup(&spec.fixed_seed_gates(self.workload.name()))?);
        }
        Ok(all)
    }

    fn lookup(&self, wanted: &[MetricSpec]) -> Result<Vec<(MetricSpec, f64)>, String> {
        wanted
            .iter()
            .map(|m| match self.metrics.get(&m.name) {
                Some(v) if v.is_finite() => Ok((m.clone(), v)),
                Some(v) => Err(format!("{}: metric {} is {v}", self.workload.name(), m.name)),
                None => Err(format!("{}: metric {} not measured", self.workload.name(), m.name)),
            })
            .collect()
    }

    /// Human-readable block: every metric by name with unit, sample count
    /// and bound.
    pub fn print(&self, spec: &Spec) -> Result<(), String> {
        println!(
            "== {} ({}; {} client(s), closed loop; {} engine thread(s))",
            self.workload.name(),
            if self.traced { "traced run, per-layer metrics" } else { "tracing off, end-to-end" },
            self.workload.clients(),
            self.workload.engine_threads(),
        );
        let declared = self.declared(spec).len();
        for (i, (m, v)) in self.stored(spec)?.into_iter().enumerate() {
            if m.name == "failed_frac" {
                continue; // printed last, with its counts
            }
            let mut line = format!("{:<34} {:>16.6} {:<6}", m.name, v, m.unit);
            if let Some(bound) = m.bound {
                line.push_str(&format!(" bound {bound}"));
                if i >= declared {
                    line.push_str(" at a fixed seed");
                }
            }
            if m.name.starts_with("stmt_ms_") || m.name == "session.stmt_ms_p95" {
                line.push_str(&format!(" samples {}", self.samples));
            }
            if self.traced {
                line.push_str(&format!("  -> {}", crate::layers::moves(&m.name)));
            }
            println!("{}", line.trim_end());
        }
        println!(
            "{:<34} {:>16.6}        attempted {} failed {}",
            "failed_frac",
            self.tally.failed_frac(),
            self.tally.attempted,
            self.tally.failed
        );
        if let Some(why) = &self.tally.first_failure {
            println!("first failure: {why}");
        }
        Ok(())
    }

    fn metrics_json(values: Vec<(MetricSpec, f64)>) -> Json {
        Json::Obj(
            values
                .into_iter()
                .map(|(m, v)| {
                    let entry =
                        Json::obj([("value", Json::Num(v)), ("unit", Json::from(m.unit.as_str()))]);
                    (m.name, entry)
                })
                .collect(),
        )
    }

    /// The one-line result the driver reads from the end of standard output.
    pub fn result_line(&self, spec: &Spec) -> Result<String, String> {
        Ok(Json::obj([
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", Outcome::metrics_json(self.values(spec)?)),
        ])
        .compact())
    }

    /// The run as stored in a `--json` file.
    pub fn to_json(&self, spec: &Spec, header: Json) -> Result<Json, String> {
        Ok(Json::obj([
            ("workload", Json::from(self.workload.name())),
            ("traced", Json::Bool(self.traced)),
            ("header", header),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("first_failure", self.tally.first_failure.as_deref().map_or(Json::Null, Json::from)),
            ("samples", Json::from(self.samples)),
            ("metrics", Outcome::metrics_json(self.stored(spec)?)),
            ("details", Json::Obj(self.details.clone())),
        ]))
    }
}

pub const RUN_FILE_SCHEMA: &str = "vcsql-benchmark/v1";

/// Append `run` to the run file at `path`, creating it if need be. A run
/// file is a set of runs: `compare` takes medians and spreads over the runs
/// of one (workload, traced) pair, so a set is built by running the same
/// command several times with the same `--json`.
pub fn append_run(path: &str, run: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            if doc.get("schema").and_then(Json::as_str) != Some(RUN_FILE_SCHEMA) {
                return Err(format!("{path}: not a {RUN_FILE_SCHEMA} file"));
            }
            doc.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec).unwrap_or_default()
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    runs.push(run);
    let doc = Json::obj([
        ("schema", Json::from(RUN_FILE_SCHEMA)),
        // This harness measures; it never claims a gain.
        ("claim", Json::Null),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))
}
