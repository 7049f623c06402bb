//! The benchmark's declaration, `BENCHMARK.json` at the repository root:
//! workloads, and every metric with its unit, direction and bound. The
//! runner takes units from here and refuses to emit an undeclared name;
//! `compare` takes directions and bounds from here.

use gnna_telemetry::json::{self, JsonValue};

/// The declaration, embedded at build time.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Which side of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Measuring time of one run, in seconds.
    pub run_seconds: u64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(doc: &JsonValue, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or(format!("BENCHMARK.json: \"{key}\" must be an array"))?;
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .ok_or(format!("BENCHMARK.json: {key} entry without \"{f}\""))
            };
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: bad direction {other:?}")),
            };
            Ok(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better,
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("BENCHMARK.json: \"workloads\" must be an array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(JsonValue::as_u64)
            .ok_or("BENCHMARK.json: \"run_seconds\" must be a number")?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    /// The declaration this binary was built with.
    pub fn embedded() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json parses")
    }

    /// The metrics a run reports: end-to-end ones untraced, per-layer
    /// ones traced.
    pub fn reported(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
