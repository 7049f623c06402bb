//! The cycle loop jumps over cycles in which every tile and memory node
//! sleeps on the event wheel and the mesh is empty. The jump must not
//! move anything the simulation reports: the stall watchdog fires at the
//! cycle per-cycle stepping reaches it, and a profiled run, whose host
//! profiler counts only the cycles it steps, reports the same as a bare
//! one while stepping fewer cycles than it simulates.

use gnna::core::config::AcceleratorConfig;
use gnna::core::layers::compile_mpnn;
use gnna::core::system::{System, TraceOptions};
use gnna::core::CoreError;
use gnna::graph::datasets;
use gnna::models::Mpnn;

/// The `gnna-sim --model mpnn --smoke` system: the Gilmer MPNN (hidden
/// 64, three steps) over smoke-scale QM9 (20 molecules, seed 42), built
/// with `opts` for `cfg`.
fn mpnn_smoke(cfg: &AcceleratorConfig, opts: &TraceOptions) -> System {
    let d = datasets::qm9_scaled(20, 42).unwrap();
    let mpnn = Mpnn::for_dataset_gilmer(
        d.vertex_features(),
        d.edge_features(),
        64,
        d.output_features,
        3,
        0xD0C5,
    )
    .unwrap();
    let program = compile_mpnn(&mpnn).unwrap();
    System::with_options(cfg, &d.instances, program, opts).unwrap()
}

/// `gnna-sim --model mpnn --smoke --config cpu-iso-bw --stall-window 50`
/// stalls at cycle 13543 in the first message-passing step, as it did
/// before the loop jumped idle cycles: a jump never passes the cycle at
/// which the watchdog would look.
#[test]
fn watchdog_fires_at_the_stepped_cycle() {
    let cfg = AcceleratorConfig::cpu_iso_bandwidth().with_stall_window(50);
    let err = mpnn_smoke(&cfg, &TraceOptions::default())
        .run()
        .expect_err("a 50-cycle window stalls this run");
    let CoreError::Stalled { cycle, detail } = err else {
        panic!("expected a stall, got {err}");
    };
    assert_eq!(cycle, 13543, "{detail}");
    assert!(detail.contains("layer mpnn.step0 "), "{detail}");
}

/// The host profiler at stride 1 laps every cycle the loop steps. On
/// CPU iso-BW the single tile spends most of the MPNN asleep behind DNA
/// jobs while the memory nodes and the mesh are empty, so fewer cycles
/// are stepped than the layers execute, and the report is the bare
/// run's.
#[test]
fn all_asleep_cycles_are_jumped() {
    let cfg = AcceleratorConfig::cpu_iso_bandwidth();
    let bare = mpnn_smoke(&cfg, &TraceOptions::default()).run().unwrap();
    let mut profiled = mpnn_smoke(&cfg, &TraceOptions::default().with_profile(1));
    let report = profiled.run().unwrap();
    assert_eq!(report, bare, "profiling perturbed the SimReport");
    let stepped = profiled.profiler().expect("profiler").cycles_total();
    let executed = report.total_cycles - report.config_cycles;
    assert!(
        stepped < executed,
        "stepped {stepped} of {executed} execute cycles: no cycle was jumped"
    );
}
