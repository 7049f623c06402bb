//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **GCN dataflow**: project-then-propagate (ours) vs
//!    propagate-then-project (moves wide raw features through the AGG).
//! 2. **Lazy DNQ switching**: the 16-idle-cycle hysteresis vs immediate
//!    switching, on the dual-queue MPNN workload.
//! 3. **GPE software threads**: the latency-hiding knob, on the
//!    traversal-bound PGNN workload.
//! 4. **Memory access granularity**: alignment-waste sensitivity.
//!
//! Runs at reduced scale (the effects are architectural, not
//! size-dependent). Run with `cargo bench -p gnna-bench --bench ablations`.

use gnna_bench::{build_case, simulate, Scale};
use gnna_core::agg::{AggFinalize, AggOp};
use gnna_core::config::AcceleratorConfig;
use gnna_core::dna::DnaKernel;
use gnna_core::layers::{CompiledProgram, Layer, VertexProgram};
use gnna_core::layout::{BufferSpec, Rows};
use gnna_core::system::System;
use gnna_graph::datasets;
use gnna_models::{Gcn, GcnNorm, ModelKind};
use gnna_tensor::ops::Activation;
use std::sync::Arc;

/// Compiles a GCN with the *propagate-then-project* dataflow: the wide
/// raw features are mean-aggregated first, then projected.
fn compile_gcn_propagate_first(gcn: &Gcn) -> CompiledProgram {
    let mut buffers = vec![BufferSpec {
        rows: Rows::PerVertex,
        row_words: gcn.input_dim(),
    }];
    let mut layers = Vec::new();
    let mut src = 0;
    for (i, l) in gcn.layers().iter().enumerate() {
        buffers.push(BufferSpec {
            rows: Rows::PerVertex,
            row_words: l.input_dim(),
        });
        let aggregated = buffers.len() - 1;
        buffers.push(BufferSpec {
            rows: Rows::PerVertex,
            row_words: l.output_dim(),
        });
        let projected = buffers.len() - 1;
        layers.push(Layer {
            name: format!("gcn{i}.aggregate"),
            program: VertexProgram::Aggregate {
                src,
                dst: aggregated,
                include_self: true,
                op: AggOp::Sum,
                finalize: AggFinalize::DivideByCount,
                activation: Activation::None,
            },
            kernels: vec![],
            dnq_entry_words: [0, 0],
            agg_entry_words: l.input_dim(),
        });
        layers.push(Layer {
            name: format!("gcn{i}.project"),
            program: VertexProgram::Project {
                src: aggregated,
                dst: projected,
            },
            kernels: vec![DnaKernel::Linear {
                w: l.weight.clone(),
                bias: None,
                act: l.activation,
            }],
            dnq_entry_words: [l.input_dim(), 0],
            agg_entry_words: 0,
        });
        src = projected;
    }
    let p = CompiledProgram {
        buffers,
        edge_buffer: None,
        output_buffer: src,
        layers: layers.into_iter().map(Arc::new).collect(),
    };
    p.validate().expect("valid alternate dataflow");
    p
}

fn main() {
    println!("# Ablation 1 — GCN dataflow order (Cora-like, 800 nodes, 256 features)\n");
    {
        let d = datasets::cora_scaled(800, 256, 7, 42).expect("dataset");
        let inst = &d.instances[0];
        let gcn = Gcn::for_dataset(256, 16, 7, 1)
            .expect("model")
            .with_norm(GcnNorm::Mean);
        let cfg = AcceleratorConfig::cpu_iso_bandwidth();

        let forward = gnna_core::layers::compile_gcn(&gcn).expect("compile");
        let mut sys = System::new(&cfg, std::slice::from_ref(inst), forward).expect("system");
        let a = sys.run().expect("run");
        let out_a = sys.output_matrix(0).expect("out");

        let backward = compile_gcn_propagate_first(&gcn);
        let mut sys = System::new(&cfg, std::slice::from_ref(inst), backward).expect("system");
        let b = sys.run().expect("run");
        let out_b = sys.output_matrix(0).expect("out");

        let diff = out_a.max_abs_diff(&out_b).expect("same shape");
        println!("| dataflow | latency (ms) | DRAM bytes | DNA util (%) |");
        println!(
            "| project-then-propagate | {:.3} | {} | {:.1} |",
            a.latency_s() * 1e3,
            a.dram_bytes,
            a.dna_utilization() * 100.0
        );
        println!(
            "| propagate-then-project | {:.3} | {} | {:.1} |",
            b.latency_s() * 1e3,
            b.dram_bytes,
            b.dna_utilization() * 100.0
        );
        println!("(functionally identical: max output diff {diff:.2e})\n");
    }

    println!("# Ablation 2 — lazy DNQ switching hysteresis (MPNN, 20 molecules)\n");
    {
        let case = build_case(ModelKind::Mpnn, "QM9_1000", Scale::Smoke).expect("case");
        println!("| idle-switch cycles | latency (ms) | queue switches/entry proxy |");
        for cycles in [0u64, 4, 16, 64, 256] {
            let mut cfg = AcceleratorConfig::cpu_iso_bandwidth();
            cfg.dnq.idle_switch_cycles = cycles;
            match simulate(&case, &cfg) {
                Ok(r) => println!(
                    "| {cycles} | {:.3} | dna entries {} |",
                    r.latency_s() * 1e3,
                    r.dna_entries
                ),
                Err(e) => println!("| {cycles} | err: {e} |"),
            }
        }
        println!();
    }

    println!("# Ablation 3 — GPE software-thread pool (PGNN, 60 nodes)\n");
    {
        let case = build_case(ModelKind::Pgnn, "DBLP_1", Scale::Smoke).expect("case");
        println!("| threads | latency (ms) | GPE util (%) |");
        for threads in [1usize, 2, 4, 8, 16, 32, 64] {
            let mut cfg = AcceleratorConfig::cpu_iso_bandwidth();
            cfg.gpe_threads = threads;
            match simulate(&case, &cfg) {
                Ok(r) => println!(
                    "| {threads} | {:.3} | {:.1} |",
                    r.latency_s() * 1e3,
                    r.gpe_utilization() * 100.0
                ),
                Err(e) => println!("| {threads} | err: {e} |"),
            }
        }
        println!();
    }

    println!("# Ablation 4 — DRAM access granularity (GCN Cora-smoke)\n");
    {
        let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).expect("case");
        println!("| granularity (B) | latency (ms) | mem efficiency (%) |");
        for granularity in [32u64, 64, 128, 256] {
            let mut cfg = AcceleratorConfig::cpu_iso_bandwidth();
            cfg.mem.granularity = granularity;
            match simulate(&case, &cfg) {
                Ok(r) => println!(
                    "| {granularity} | {:.3} | {:.1} |",
                    r.latency_s() * 1e3,
                    r.mem_efficiency() * 100.0
                ),
                Err(e) => println!("| {granularity} | err: {e} |"),
            }
        }
    }
}
