//! The run record: every metric with its unit, repetitions, median and
//! MAD, plus provenance. A run prints the record as one JSON line, then
//! the one-line summary (`correct`, `attempted`, `failed`, `metrics`)
//! that tools read from the last line of standard output.

use crate::spec::Spec;
use crate::stats::{mad, median};
use gnna_bench::Scale;
use gnna_telemetry::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Record schema version; bump when a key changes meaning.
pub const SCHEMA: &str = "gnna-perf/1";

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The reported value (the median when `reps` is non-empty).
    pub value: f64,
    /// Per-repetition values, when the metric is a median of repetitions.
    pub reps: Vec<f64>,
}

impl Value {
    /// A single computed value.
    pub fn once(value: f64) -> Self {
        Value {
            value,
            reps: Vec::new(),
        }
    }

    /// The median of repetitions.
    pub fn median_of(reps: Vec<f64>) -> Self {
        Value {
            value: median(&reps),
            reps,
        }
    }
}

/// Where and how a run was made.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Git revision of the checkout, or `unknown` outside a git clone.
    pub git_rev: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// CPU model from `/proc/cpuinfo`, or `unknown`.
    pub cpu: String,
}

fn git_rev(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

impl Provenance {
    /// Collects provenance for a run of the checkout at `repo`.
    pub fn collect(repo: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            git_rev: git_rev(repo).unwrap_or_else(|| "unknown".into()),
            rustc: env!("GNNA_PERF_RUSTC").to_string(),
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Dataset scale.
    pub scale: Scale,
    /// Whether this was the traced run (per-layer metrics).
    pub trace: bool,
    /// Requested measuring time.
    pub seconds: u64,
    /// Operations attempted (simulations or requests).
    pub attempted: u64,
    /// Operations whose output failed its correctness check.
    pub failed: u64,
    /// Declared metrics by name.
    pub metrics: BTreeMap<String, Value>,
    /// Undeclared detail (per-case times, p99, sample counts, ...).
    pub extra: BTreeMap<String, Value>,
    /// Provenance.
    pub provenance: Provenance,
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    json::escape_into(out, value);
    out.push('"');
}

impl Record {
    /// Whether every output passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Checks that the run emitted exactly the metrics `spec` declares
    /// for its mode.
    ///
    /// # Errors
    ///
    /// Names the missing and undeclared metrics.
    pub fn check_names(&self, spec: &Spec) -> Result<(), String> {
        let declared: Vec<&str> = spec
            .reported(self.trace)
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        let missing: Vec<&str> = declared
            .iter()
            .copied()
            .filter(|n| !self.metrics.contains_key(*n))
            .collect();
        let extra: Vec<&str> = self
            .metrics
            .keys()
            .map(String::as_str)
            .filter(|n| !declared.contains(n))
            .collect();
        if missing.is_empty() && extra.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
            ))
        }
    }

    /// Writes `{"name":{"value":..,"unit":..[,"median","mad","reps"]},..}`;
    /// repetitions only when `detail`, the unit only when declared.
    fn push_metrics(
        out: &mut String,
        spec: &Spec,
        metrics: &BTreeMap<String, Value>,
        detail: bool,
    ) {
        out.push('{');
        for (i, (name, v)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"value\":{}", json::number(v.value));
            if let Some(m) = spec.metric(name) {
                let _ = write!(out, ",\"unit\":\"{}\"", m.unit);
            }
            if detail && !v.reps.is_empty() {
                let reps: Vec<String> = v.reps.iter().map(|r| json::number(*r)).collect();
                let _ = write!(
                    out,
                    ",\"median\":{},\"mad\":{},\"reps\":[{}]",
                    json::number(median(&v.reps)),
                    json::number(mad(&v.reps)),
                    reps.join(",")
                );
            }
            out.push('}');
        }
        out.push('}');
    }

    /// The full record as one JSON line.
    pub fn to_json(&self, spec: &Spec) -> String {
        let p = &self.provenance;
        let mut out = String::from("{");
        push_str_field(&mut out, "schema", SCHEMA);
        out.push(',');
        push_str_field(&mut out, "workload", &self.workload);
        let scale = match self.scale {
            Scale::Paper => "paper",
            Scale::Smoke => "smoke",
        };
        let _ = write!(
            out,
            ",\"seed\":{},\"scale\":\"{scale}\",\"trace\":{},\"seconds\":{},",
            self.seed,
            u8::from(self.trace),
            self.seconds
        );
        out.push_str("\"provenance\":{");
        push_str_field(&mut out, "git_rev", &p.git_rev);
        out.push(',');
        push_str_field(&mut out, "rustc", &p.rustc);
        let _ = write!(out, ",\"available_parallelism\":{},", p.parallelism);
        push_str_field(&mut out, "cpu", &p.cpu);
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = write!(
            out,
            "}},\"correct\":{},\"attempted\":{},\"failed\":{},\"fail_ratio\":{},\"metrics\":",
            self.correct(),
            self.attempted,
            self.failed,
            json::number(fail_ratio)
        );
        Self::push_metrics(&mut out, spec, &self.metrics, true);
        out.push_str(",\"extra\":");
        Self::push_metrics(&mut out, spec, &self.extra, true);
        out.push('}');
        out
    }

    /// The one-line summary: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (value and unit of each reported metric).
    pub fn summary_json(&self, spec: &Spec) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            self.correct(),
            self.attempted,
            self.failed
        );
        Self::push_metrics(&mut out, spec, &self.metrics, false);
        out.push('}');
        out
    }
}
