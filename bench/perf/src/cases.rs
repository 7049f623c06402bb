//! The seeded case builder: datasets, models and programs built from
//! `--seed`, with each layer's call timed separately.
//!
//! The hyper-parameters are those of `gnna_bench::build_case`, which
//! always uses seed 42; at seed 42 the two builders produce the same
//! cases (`tests/parity.rs`), so the benchmark measures exactly what
//! `gnna-sim` and `fig8` run.

use crate::spans::Spans;
use gnna_bench::{BenchCase, BenchError, Scale, MODEL_SEED};
use gnna_core::layers::{compile_gat, compile_gcn, compile_mpnn, compile_pgnn, CompiledProgram};
use gnna_graph::{datasets, Dataset};
use gnna_models::{Gat, Gcn, GcnNorm, ModelKind, Mpnn, Pgnn};
use gnna_tensor::Matrix;

/// Host seconds spent in each layer while building cases.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `gnna_graph::datasets` generation.
    pub generate_s: f64,
    /// `gnna_models` construction plus the functional forward pass.
    pub reference_s: f64,
    /// `gnna_core::layers::compile_*`.
    pub compile_s: f64,
}

impl SetupTimes {
    /// Adds another case's times.
    pub fn add(&mut self, other: &SetupTimes) {
        self.generate_s += other.generate_s;
        self.reference_s += other.reference_s;
        self.compile_s += other.compile_s;
    }

    /// Sum of the three layers.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.reference_s + self.compile_s
    }
}

/// Short stable name of a benchmark pair, used in metric and span names.
pub fn case_name(model: ModelKind, input: &str) -> String {
    let input = match input {
        "QM9_1000" => "qm9",
        "DBLP_1" => "dblp",
        other => other,
    };
    format!("{}-{}", model.name(), input).to_ascii_lowercase()
}

fn dataset(input: &str, scale: Scale, seed: u64) -> Result<Dataset, BenchError> {
    Ok(match (input, scale) {
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
    })
}

enum Model {
    Gcn(Gcn),
    Gat(Gat),
    Mpnn(Box<Mpnn>),
    Pgnn(Pgnn),
}

fn rows(m: &Matrix) -> impl Iterator<Item = Vec<f32>> + '_ {
    (0..m.rows()).map(|i| m.row(i).to_vec())
}

/// Builds the model and runs the functional reference: one row per
/// vertex in instance order, or one row per graph for MPNN's readout.
fn reference(model: ModelKind, d: &Dataset) -> Result<(Model, u64, Vec<Vec<f32>>), BenchError> {
    let (f, out) = (d.vertex_features(), d.output_features);
    let first = &d.instances[0].graph;
    let mut reference = Vec::new();
    let (model, macs) = match model {
        ModelKind::Gcn => {
            let m = Gcn::for_dataset(f, 16, out, MODEL_SEED)?.with_norm(GcnNorm::Mean);
            for inst in &d.instances {
                reference.extend(rows(&m.forward(&inst.graph, &inst.x)?));
            }
            let macs = m.inference_macs(first);
            (Model::Gcn(m), macs)
        }
        ModelKind::Gat => {
            let m = Gat::for_dataset(f, out, MODEL_SEED)?;
            for inst in &d.instances {
                reference.extend(rows(&m.forward(&inst.graph, &inst.x)?));
            }
            let macs = m.inference_macs(first);
            (Model::Gat(m), macs)
        }
        ModelKind::Mpnn => {
            let m = Mpnn::for_dataset_gilmer(f, d.edge_features(), 64, out, 3, MODEL_SEED)?;
            reference.extend(rows(&m.forward_dataset(&d.instances)?));
            let macs = d.instances.iter().map(|i| m.inference_macs(&i.graph)).sum();
            (Model::Mpnn(Box::new(m)), macs)
        }
        ModelKind::Pgnn => {
            let m = Pgnn::deep(&[0, 1, 2, 4], f, 16, out, 9, MODEL_SEED)?;
            for inst in &d.instances {
                reference.extend(rows(&m.forward(&inst.graph, &inst.x)?));
            }
            let macs = m.inference_macs(first);
            (Model::Pgnn(m), macs)
        }
    };
    Ok((model, macs, reference))
}

fn compile(model: &Model) -> Result<CompiledProgram, BenchError> {
    Ok(match model {
        Model::Gcn(m) => compile_gcn(m)?,
        Model::Gat(m) => compile_gat(m)?,
        Model::Mpnn(m) => compile_mpnn(m)?,
        Model::Pgnn(m) => compile_pgnn(m)?,
    })
}

/// Builds one benchmark pair from `seed`, timing the graph, model and
/// compile layers as spans named after the case.
///
/// # Errors
///
/// Propagates dataset-generation, forward-pass and compilation errors.
pub fn build(
    model: ModelKind,
    input: &'static str,
    scale: Scale,
    seed: u64,
    spans: &mut Spans,
) -> Result<(BenchCase, SetupTimes), BenchError> {
    let name = case_name(model, input);
    let (dataset, generate_s) =
        spans.time(&format!("generate {name}"), || dataset(input, scale, seed));
    let dataset = dataset?;
    let (built, reference_s) =
        spans.time(&format!("reference {name}"), || reference(model, &dataset));
    let (m, macs, reference) = built?;
    let (program, compile_s) = spans.time(&format!("compile {name}"), || compile(&m));
    let case = BenchCase {
        model,
        input,
        dataset,
        program: program?,
        macs,
        reference,
    };
    let times = SetupTimes {
        generate_s,
        reference_s,
        compile_s,
    };
    Ok((case, times))
}
