//! `gnna-perf`: one seeded benchmark for the gnna simulator and the
//! `gnna-serve` daemon, end to end and layer by layer.
//!
//! The benchmark builds its inputs from `--seed`, calls each crate's
//! `pub` functions, times those calls from outside, reads the counters
//! the program already exports (`SimReport`, `EnergyModel`, the host
//! profiler, serve replies and `/stats`) and checks every output.
//! `BENCHMARK.json` at the repository root declares the workloads and
//! metrics; see `README.md` next to this file.

#![forbid(unsafe_code)]

pub mod cases;
pub mod client;
pub mod compare;
pub mod record;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod spec;
pub mod stats;

use gnna_bench::{BenchError, Scale};
use record::{Provenance, Record, Value};
use spans::Spans;
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Default input seed; 7 is the held-out seed.
pub const DEFAULT_SEED: u64 = 42;

/// Per-layer metric prefixes of the simulator layers, which the serve
/// workloads do not profile.
const SIM_LAYERS: [&str; 4] = ["core.system_new_pct", "core.run_pct.", "host.", "sim."];

/// Per-layer metric prefixes of the serving layer.
const SERVE_LAYERS: [&str; 1] = ["serve."];

/// Options of one `run`.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: u64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Dataset scale: the command line always runs `Paper`; the tests
    /// use `Smoke`.
    pub scale: Scale,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Declared metrics by name.
    pub metrics: BTreeMap<String, Value>,
    /// Undeclared detail kept in the record (per-case times, p99, ...).
    pub extra: BTreeMap<String, Value>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Collapsed host-profile stacks of the traced repetition.
    pub collapsed: Option<String>,
}

/// Reports 0 for every declared per-layer metric of layers the workload
/// does not exercise.
fn bypassed(spec: &Spec, prefixes: &[&str], m: &mut BTreeMap<String, Value>) {
    for metric in &spec.per_layer {
        if prefixes.iter().any(|p| metric.name.starts_with(p)) {
            m.insert(metric.name.clone(), Value::once(0.0));
        }
    }
}

/// The repository root this benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Where runs write their traces and profiles.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload and returns its record.
///
/// # Errors
///
/// An unknown workload, a set-up failure, or a file that cannot be
/// written.
pub fn run(opts: &Opts, spec: &Spec) -> Result<Record, BenchError> {
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    let stem = out.join(format!("{}-{}", opts.workload, opts.seed));
    let mut spans = Spans::new(&opts.workload);
    let mut measured = match opts.workload.as_str() {
        "sim-mesh" => sim::run(&sim::SimWorkload::mesh(), opts, &mut spans)?,
        "sim-tile" => sim::run(&sim::SimWorkload::tile(), opts, &mut spans)?,
        "serve-cycle" | "serve-functional" => {
            let w = if opts.workload == "serve-cycle" {
                serve::ServeWorkload::cycle()
            } else {
                serve::ServeWorkload::functional()
            };
            let trace_out = stem.with_extension("serve-trace.json");
            serve::run(&w, opts, &mut spans, &trace_out.to_string_lossy())?
        }
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    if opts.trace {
        let other = if opts.workload.starts_with("sim-") {
            &SERVE_LAYERS[..]
        } else {
            &SIM_LAYERS[..]
        };
        bypassed(spec, other, &mut measured.metrics);
    }
    spans.write(&stem.with_extension("trace.json"))?;
    if let Some(collapsed) = &measured.collapsed {
        std::fs::write(stem.with_extension("collapsed.txt"), collapsed)?;
    }
    Ok(Record {
        workload: opts.workload.clone(),
        seed: opts.seed,
        scale: opts.scale,
        trace: opts.trace,
        seconds: opts.seconds,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: measured.metrics,
        extra: measured.extra,
        provenance: Provenance::collect(&repo_root()),
    })
}
