//! Shared infrastructure for the table/figure benchmark harnesses.
//!
//! Each `cargo bench` target in this crate regenerates one table or
//! figure of the paper (see `DESIGN.md` §3 for the index). This library
//! holds the pieces they share: the benchmark-pair definitions at paper
//! scale, dataset construction, model compilation, and the
//! simulate-one-configuration runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod campaign;
pub mod report;

use gnna_baselines::table7::MeasuredLatency;
use gnna_core::config::AcceleratorConfig;
use gnna_core::layers::{compile_gat, compile_gcn, compile_mpnn, compile_pgnn, CompiledProgram};
use gnna_core::stats::SimReport;
use gnna_core::system::System;
pub use gnna_core::system::TraceOptions;
use gnna_graph::{datasets, Dataset};
use gnna_models::{Gat, Gcn, GcnNorm, ModelKind, Mpnn, Pgnn};
use gnna_telemetry::{HostProfiler, MetricsRegistry, SharedTracer};
use std::cell::RefCell;
use std::error::Error;

/// A boxed error for harness code.
pub type BenchError = Box<dyn Error>;

/// Scale at which to build a benchmark pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The full Table V dataset (used by `cargo bench`).
    Paper,
    /// A small stand-in for CI-speed smoke runs.
    Smoke,
}

/// One runnable benchmark pair: dataset plus compiled program.
#[derive(Debug)]
pub struct BenchCase {
    /// The model family.
    pub model: ModelKind,
    /// Input dataset (Table V name at paper scale).
    pub input: &'static str,
    /// The generated dataset.
    pub dataset: Dataset,
    /// The compiled accelerator program.
    pub program: CompiledProgram,
    /// Useful multiply–accumulates of one inference (for reporting).
    pub macs: u64,
    /// Functional-reference output rows from the `gnna-models` forward
    /// pass: one row per vertex (in instance order) for vertex-output
    /// models, one row per graph for readout models (MPNN). The fault
    /// campaign's accuracy harness compares simulated outputs against
    /// these.
    pub reference: Vec<Vec<f32>>,
}

/// The model hyper-parameters used throughout: GCN hidden 16 (Kipf),
/// GAT 8 heads × 8, MPNN hidden 64 with 3 message-passing steps and the
/// Gilmer edge network, PGNN: 8 layers over powers {0, 1, 2, 4} with
/// hidden 16 (the Line-GNN component configuration; see EXPERIMENTS.md).
pub const MODEL_SEED: u64 = 0xD0C5;

/// Builds one of the six Table VII benchmark pairs.
///
/// # Errors
///
/// Propagates dataset-generation and compilation errors.
pub fn build_case(
    model: ModelKind,
    input: &'static str,
    scale: Scale,
) -> Result<BenchCase, BenchError> {
    let seed = 42;
    let dataset = match (input, scale) {
        ("Cora", Scale::Paper) => datasets::cora(seed)?,
        ("Citeseer", Scale::Paper) => datasets::citeseer(seed)?,
        ("Pubmed", Scale::Paper) => datasets::pubmed(seed)?,
        ("QM9_1000", Scale::Paper) => datasets::qm9_1000(seed)?,
        ("DBLP_1", Scale::Paper) => datasets::dblp_1(seed)?,
        ("Cora", Scale::Smoke) => datasets::cora_scaled(120, 64, 7, seed)?,
        ("Citeseer", Scale::Smoke) => datasets::cora_scaled(140, 96, 6, seed)?,
        ("Pubmed", Scale::Smoke) => datasets::cora_scaled(300, 48, 3, seed)?,
        ("QM9_1000", Scale::Smoke) => datasets::qm9_scaled(20, seed)?,
        ("DBLP_1", Scale::Smoke) => datasets::dblp_scaled(60, seed)?,
        _ => return Err(format!("unknown input {input}").into()),
    };
    let f = dataset.vertex_features();
    let out = dataset.output_features;
    let (program, macs, reference) = match model {
        ModelKind::Gcn => {
            let m = Gcn::for_dataset(f, 16, out, MODEL_SEED)?.with_norm(GcnNorm::Mean);
            let macs = m.inference_macs(&dataset.instances[0].graph);
            let mut reference = Vec::new();
            for inst in &dataset.instances {
                let r = m.forward(&inst.graph, &inst.x)?;
                reference.extend((0..r.rows()).map(|i| r.row(i).to_vec()));
            }
            (compile_gcn(&m)?, macs, reference)
        }
        ModelKind::Gat => {
            let m = Gat::for_dataset(f, out, MODEL_SEED)?;
            let macs = m.inference_macs(&dataset.instances[0].graph);
            let mut reference = Vec::new();
            for inst in &dataset.instances {
                let r = m.forward(&inst.graph, &inst.x)?;
                reference.extend((0..r.rows()).map(|i| r.row(i).to_vec()));
            }
            (compile_gat(&m)?, macs, reference)
        }
        ModelKind::Mpnn => {
            let m = Mpnn::for_dataset_gilmer(f, dataset.edge_features(), 64, out, 3, MODEL_SEED)?;
            let macs = dataset
                .instances
                .iter()
                .map(|i| m.inference_macs(&i.graph))
                .sum();
            let r = m.forward_dataset(&dataset.instances)?;
            let reference = (0..r.rows()).map(|i| r.row(i).to_vec()).collect();
            (compile_mpnn(&m)?, macs, reference)
        }
        ModelKind::Pgnn => {
            let m = Pgnn::deep(&[0, 1, 2, 4], f, 16, out, 9, MODEL_SEED)?;
            let macs = m.inference_macs(&dataset.instances[0].graph);
            let mut reference = Vec::new();
            for inst in &dataset.instances {
                let r = m.forward(&inst.graph, &inst.x)?;
                reference.extend((0..r.rows()).map(|i| r.row(i).to_vec()));
            }
            (compile_pgnn(&m)?, macs, reference)
        }
    };
    Ok(BenchCase {
        model,
        input,
        dataset,
        program,
        macs,
        reference,
    })
}

/// Simulates `case` on `config`; returns the report.
///
/// # Errors
///
/// Propagates simulator construction/stall errors.
pub fn simulate(case: &BenchCase, config: &AcceleratorConfig) -> Result<SimReport, BenchError> {
    let mut sys = System::new(config, &case.dataset.instances, case.program.clone())?;
    Ok(sys.run()?)
}

/// A simulation run with its instruments, as [`simulate_traced_opts`]
/// returns it.
#[derive(Debug)]
pub struct TracedRun {
    /// The usual simulation report.
    pub report: SimReport,
    /// The tracer holding the Chrome-trace event stream (`None` at
    /// [`TraceLevel::Off`](gnna_telemetry::TraceLevel::Off)).
    pub tracer: Option<SharedTracer>,
    /// Module counters harvested after the run. When host profiling is
    /// enabled the `host.profile.*` family is merged in here too.
    pub metrics: MetricsRegistry,
    /// The host-phase profiler (`Some` only when
    /// [`TraceOptions::profile_sample_every`] asked for one); use
    /// [`HostProfiler::collapsed`] for the flamegraph export. It sits in
    /// a `RefCell` only so that callers written for the shared handle it
    /// replaced, which `.borrow()` it (the `gnna-perf` benchmark), still
    /// compile; nothing else holds it.
    pub profiler: Option<RefCell<HostProfiler>>,
}

/// Simulates `case` on `config` with the instruments `opts` asks for
/// and harvests the module counters. With [`TraceOptions::default`]
/// the report is identical to [`simulate`]'s.
///
/// # Errors
///
/// Propagates simulator construction/stall errors.
pub fn simulate_traced_opts(
    case: &BenchCase,
    config: &AcceleratorConfig,
    opts: &TraceOptions,
) -> Result<TracedRun, BenchError> {
    let mut sys =
        System::with_options(config, &case.dataset.instances, case.program.clone(), opts)?;
    let report = sys.run()?;
    let mut metrics = MetricsRegistry::new();
    sys.harvest_metrics(&mut metrics);
    Ok(TracedRun {
        report,
        tracer: sys.tracer().cloned(),
        metrics,
        profiler: sys.take_profiler().map(RefCell::new),
    })
}

/// The three Table VI configurations at a given core clock.
pub fn configurations(core_clock_hz: f64) -> Vec<AcceleratorConfig> {
    vec![
        AcceleratorConfig::cpu_iso_bandwidth().with_core_clock(core_clock_hz),
        AcceleratorConfig::gpu_iso_bandwidth().with_core_clock(core_clock_hz),
        AcceleratorConfig::gpu_iso_flops().with_core_clock(core_clock_hz),
    ]
}

/// The §VI clock sweep.
pub const CLOCK_SWEEP: [f64; 3] = [0.6e9, 1.2e9, 2.4e9];

/// Speedup of a simulated latency over a measured baseline.
pub fn speedup(baseline: &MeasuredLatency, report: &SimReport, vs_gpu: bool) -> f64 {
    let base = if vs_gpu {
        baseline.gpu_s
    } else {
        baseline.cpu_s
    };
    base / report.latency_s()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cases_build() {
        for (model, input) in gnna_models::BENCHMARK_PAIRS {
            let case = build_case(model, input, Scale::Smoke).unwrap();
            assert!(case.macs > 0, "{model} {input}");
            assert!(!case.program.layers.is_empty());
        }
    }

    #[test]
    fn smoke_gcn_simulates() {
        let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
        let cfg = AcceleratorConfig::cpu_iso_bandwidth();
        let r = simulate(&case, &cfg).unwrap();
        assert!(r.total_cycles > 0);
        assert!(r.dram_bytes > 0);
    }

    #[test]
    fn configurations_are_table_vi() {
        let cfgs = configurations(2.4e9);
        assert_eq!(cfgs.len(), 3);
        assert_eq!(cfgs[0].num_tiles(), 1);
        assert_eq!(cfgs[1].num_tiles(), 8);
        assert_eq!(cfgs[2].num_tiles(), 16);
    }
}
