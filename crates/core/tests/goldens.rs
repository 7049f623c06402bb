//! Bit-identity golden corpus for the simulator hot path.
//!
//! Every optimisation to the cycle loop (flit arenas, SoA router state,
//! the idle-module event wheel) must leave the simulation *bit-identical*:
//! same `SimReport` down to every counter, same output-matrix bits. A
//! single GCN:Cora golden is too narrow a behaviour surface — an
//! arbitration reorder that only bites under GAT's flit mix, or a skipped
//! RNG draw that only shows up with fault injection attached, would slip
//! straight through. This corpus pins the full matrix:
//!
//!   4 models (GCN / GAT / MPNN / PGNN)
//! × 2 configurations (CPU iso-BW, GPU iso-BW)
//! × 3 fault modes (fault-free, fixed-seed transients, permanent degraded)
//!
//! Each cell is reduced to one FNV-1a-64 digest over the `SimReport`'s
//! `Debug` rendering plus the raw output-matrix bits, committed in
//! `tests/golden/sim_digests.txt`. The digest deliberately covers the
//! *whole* report (per-tile counters, resilience partition, degraded
//! summary) so there is nowhere for a behaviour change to hide.
//!
//! Degraded mode notes: on GPU iso-BW the permanent fault is a dead mesh
//! link at (0,0)→East, exercising the BFS detour tables. The CPU iso-BW
//! mesh is 1×2 — its only link cannot die without disconnecting the mesh
//! (plan validation rejects that) — so the CPU-iso degraded cells use the
//! permanent stuck-at bit-line model instead, which still drives the
//! ECC/permanent-fault paths every cycle.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! GNNA_BLESS_GOLDENS=1 cargo test -p gnna-core --test goldens
//! ```
//!
//! and commit the rewritten digest file together with the change that
//! explains it.

use gnna_core::config::AcceleratorConfig;
use gnna_core::layers::{compile_gat, compile_gcn, compile_mpnn, compile_pgnn};
use gnna_core::system::{System, TraceOptions};
use gnna_faults::{FaultPlan, MeshDir};
use gnna_graph::datasets;
use gnna_models::{Gat, Gcn, GcnNorm, Mpnn, Pgnn};

const MODELS: [&str; 4] = ["gcn", "gat", "mpnn", "pgnn"];
const CONFIGS: [&str; 2] = ["cpu-iso", "gpu-iso"];
const MODES: [&str; 3] = ["clean", "transient", "degraded"];

/// Committed digests, one `name digest16` line per corpus cell.
const GOLDEN: &str = include_str!("golden/sim_digests.txt");

fn config_for(name: &str) -> AcceleratorConfig {
    match name {
        "cpu-iso" => AcceleratorConfig::cpu_iso_bandwidth(),
        "gpu-iso" => AcceleratorConfig::gpu_iso_bandwidth(),
        other => panic!("unknown config {other}"),
    }
}

/// Builds the cell's system with `fault_plan` applied: small scaled
/// datasets (the same shapes the end-to-end functional tests use) so the
/// whole 24-cell corpus runs in seconds while still exercising every
/// module and both mesh layouts.
fn system_for(model: &str, cfg: &AcceleratorConfig, fault_plan: Option<FaultPlan>) -> System {
    let opts = TraceOptions {
        fault_plan,
        ..TraceOptions::default()
    };
    match model {
        "gcn" => {
            let d = datasets::cora_scaled(30, 12, 4, 3).unwrap();
            let gcn = Gcn::for_dataset(12, 6, 4, 5)
                .unwrap()
                .with_norm(GcnNorm::Mean);
            let program = compile_gcn(&gcn).unwrap();
            System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, &opts)
                .unwrap()
        }
        "gat" => {
            let d = datasets::cora_scaled(24, 10, 3, 7).unwrap();
            let gat = Gat::for_dataset(10, 3, 6).unwrap();
            let program = compile_gat(&gat).unwrap();
            System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, &opts)
                .unwrap()
        }
        "mpnn" => {
            let d = datasets::qm9_scaled(4, 5).unwrap();
            let mpnn = Mpnn::for_dataset(13, 5, 8, 6, 2, 3).unwrap();
            let program = compile_mpnn(&mpnn).unwrap();
            System::with_options(cfg, &d.instances, program, &opts).unwrap()
        }
        "pgnn" => {
            let d = datasets::dblp_scaled(25, 9).unwrap();
            let pgnn = Pgnn::for_dataset(1, 6, 3, 4).unwrap();
            let program = compile_pgnn(&pgnn).unwrap();
            System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, &opts)
                .unwrap()
        }
        other => panic!("unknown model {other}"),
    }
}

/// The cell's fault plan, if any. Seeds are fixed so the transient RNG
/// streams — and therefore the digests — are reproducible.
fn plan_for(mode: &str, config: &str) -> Option<FaultPlan> {
    match mode {
        "clean" => None,
        "transient" => Some(
            FaultPlan::new(29)
                .with_mem_rate(0.01)
                .with_noc_rate(0.002)
                .with_stall_rate(0.01),
        ),
        "degraded" => Some(if config == "gpu-iso" {
            FaultPlan::new(5).with_dead_link(0, 0, MeshDir::East)
        } else {
            FaultPlan::new(5).with_mem_stuck_rate(0.002)
        }),
        other => panic!("unknown mode {other}"),
    }
}

/// FNV-1a 64-bit, the same simple stable hash everywhere in the repo's
/// tooling: no dependency, stable across platforms and releases.
fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = seed;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Runs one corpus cell to completion and reduces it to a digest over
/// the full `SimReport` debug rendering and the output-matrix bits.
fn digest_cell(model: &str, config: &str, mode: &str) -> u64 {
    let cfg = config_for(config);
    let mut sys = system_for(model, &cfg, plan_for(mode, config));
    let report = sys.run().unwrap();
    let mut h = fnv1a(format!("{report:?}").bytes(), FNV_OFFSET);
    for v in sys.full_output().into_vec() {
        h = fnv1a(v.to_bits().to_le_bytes(), h);
    }
    h
}

fn cell_name(model: &str, config: &str, mode: &str) -> String {
    format!("{model}:{config}:{mode}")
}

fn parse_golden() -> Vec<(String, u64)> {
    GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("golden line: `name digest`");
            let v = u64::from_str_radix(hex.trim(), 16).expect("golden digest is hex");
            (name.to_string(), v)
        })
        .collect()
}

/// The full 24-cell matrix: every digest must match the committed file.
/// On mismatch the failure lists every diverging cell (not just the
/// first) so an optimisation that perturbs one fault mode or one model
/// is visible at a glance. `GNNA_BLESS_GOLDENS=1` rewrites the file.
#[test]
fn sim_report_digests_match_golden_corpus() {
    let mut lines = vec![
        "# SimReport bit-identity digests: FNV-1a-64 over the report's".to_string(),
        "# Debug rendering + output-matrix bits, one line per corpus cell.".to_string(),
        "# Regenerate with: GNNA_BLESS_GOLDENS=1 cargo test -p gnna-core --test goldens"
            .to_string(),
    ];
    let mut computed = Vec::new();
    for model in MODELS {
        for config in CONFIGS {
            for mode in MODES {
                let name = cell_name(model, config, mode);
                let d = digest_cell(model, config, mode);
                lines.push(format!("{name} {d:016x}"));
                computed.push((name, d));
            }
        }
    }
    if std::env::var("GNNA_BLESS_GOLDENS").is_ok_and(|v| v == "1") {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_digests.txt");
        std::fs::write(path, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = parse_golden();
    assert_eq!(
        golden.len(),
        computed.len(),
        "golden file covers {} cells, corpus has {} — re-bless",
        golden.len(),
        computed.len()
    );
    let mismatches: Vec<String> = golden
        .iter()
        .zip(&computed)
        .filter(|((gn, gd), (cn, cd))| gn != cn || gd != cd)
        .map(|((gn, gd), (cn, cd))| format!("  {cn}: got {cd:016x}, golden {gn} {gd:016x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "SimReport digests diverged from the golden corpus \
         (GNNA_BLESS_GOLDENS=1 re-blesses after an intentional change):\n{}",
        mismatches.join("\n")
    );
}

/// Replaying a faulted cell twice in-process produces the same digest:
/// the corpus is deterministic on one host, not just frozen in a file.
#[test]
fn corpus_cells_are_deterministic_in_process() {
    let a = digest_cell("gcn", "gpu-iso", "transient");
    let b = digest_cell("gcn", "gpu-iso", "transient");
    assert_eq!(a, b, "same seed, same cell, different digest");
}

/// The transient cells must actually inject (a zero-activity "fault"
/// golden would silently pin nothing), and the degraded cells must
/// report their permanent fault in the degraded/resilience summaries.
#[test]
fn fault_modes_exercise_their_subsystems() {
    let cfg = config_for("gpu-iso");
    let mut sys = system_for("gcn", &cfg, plan_for("transient", "gpu-iso"));
    let r = sys.run().unwrap();
    assert!(r.resilience.any(), "transient plan injected nothing: {r:?}");

    let mut sys = system_for("gcn", &cfg, plan_for("degraded", "gpu-iso"));
    let r = sys.run().unwrap();
    assert_eq!(r.degraded.dead_links, 1);

    let cfg = config_for("cpu-iso");
    let mut sys = system_for("gcn", &cfg, plan_for("degraded", "cpu-iso"));
    let r = sys.run().unwrap();
    assert!(
        r.resilience.mem.injected > 0,
        "stuck-line plan touched nothing: {r:?}"
    );
}
