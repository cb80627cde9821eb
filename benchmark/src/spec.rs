//! The declared benchmark: `BENCHMARK.json` at the root of the repository,
//! compiled in so the names, units, directions and bounds the harness prints
//! and `compare` applies can never drift from the file the driver reads.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base by which the metric may worsen; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)` in declaration order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in declaration. Panics if the file is malformed: that is
    /// a defect in this repository, caught by the first run of any command.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json: no `{key}` list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = match text_of(m, "better")?.as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                    };
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn end_to_end(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    /// End-to-end metrics an untraced run of `workload` measures beyond the
    /// declared ones, with the bound `compare` holds them to between runs of
    /// the same seeds. `BENCHMARK.json` cannot declare them: a declared
    /// metric is never 0, exists on every workload and keeps its spread over
    /// ten *different* seeds inside a bound of at most 0.25, while these are
    /// 0 (`failed_frac`), absent on one machine (`net_mib_per_stmt`), follow
    /// the data (`stmt_ms_p95` is the heaviest statement) or the host's
    /// clock speed (`prepare_us_p50`: 20 µs of CPU work, 6-25% apart over
    /// ten runs). The bounds are the issue's; the byte count of
    /// `cluster_drift` repeats exactly for a seed.
    pub fn fixed_seed_gates(&self, workload: &str) -> Vec<MetricSpec> {
        let gate = |name: &str, unit: &str, bound: f64| MetricSpec {
            name: name.to_string(),
            unit: unit.to_string(),
            better: Better::Lower,
            bound: Some(bound),
        };
        let mut gates = vec![gate("stmt_ms_p95", "ms", 0.10), gate("prepare_us_p50", "us", 0.10)];
        match workload {
            "cluster_drift" => gates.push(gate("net_mib_per_stmt", "MiB", 0.01)),
            "serve_mixed" => gates.push(gate("net_mib_per_stmt", "MiB", 0.10)),
            _ => {}
        }
        gates.push(gate("failed_frac", "ratio", 0.0));
        gates.retain(|g| self.end_to_end(&g.name).is_none());
        gates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn declaration_matches_the_harness() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, known);
        // 0.25 is the largest bound the driver accepts in a declaration.
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.end_to_end("setup_s").is_some());
        let mut names: Vec<&String> =
            spec.end_to_end.iter().chain(&spec.per_layer).map(|m| &m.name).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
        let legal =
            |s: &str| s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
        assert!(names.iter().all(|n| legal(n) && n.len() <= 64));
    }
}
