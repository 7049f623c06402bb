//! Instruments fixed at construction must not perturb a run: a system
//! built with event-level tracing, host profiling and an empty fault plan
//! simulates bit-identically to a bare one, an invalid fault plan is
//! refused when the system is built, and corrupted words a fault plan
//! lets through end a run in a result, not a crash.

use gnna::core::config::AcceleratorConfig;
use gnna::core::layers::{compile_gcn, compile_pgnn};
use gnna::core::system::{System, TraceOptions};
use gnna::core::CoreError;
use gnna::graph::datasets;
use gnna::models::{Gcn, GcnNorm, Pgnn};
use gnna_faults::{FaultPlan, RecoveryMode};
use gnna_telemetry::TraceLevel;

/// A two-layer GCN on scaled Cora, on the 8-tile GPU iso-BW mesh.
fn build(opts: Option<&TraceOptions>) -> Result<System, CoreError> {
    let d = datasets::cora_scaled(40, 8, 3, 11).unwrap();
    let gcn = Gcn::for_dataset(8, 4, 3, 2)
        .unwrap()
        .with_norm(GcnNorm::Mean);
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let instances = std::slice::from_ref(&d.instances[0]);
    let program = compile_gcn(&gcn).unwrap();
    match opts {
        Some(opts) => System::with_options(&cfg, instances, program, opts),
        None => System::new(&cfg, instances, program),
    }
}

#[test]
fn instruments_do_not_perturb_the_run() {
    let mut bare = build(None).unwrap();
    let bare_report = bare.run().unwrap();

    let opts = TraceOptions {
        fault_plan: Some(FaultPlan::new(7)),
        ..TraceOptions::at_level(TraceLevel::Event).with_profile(4)
    };
    let mut instrumented = build(Some(&opts)).unwrap();
    let report = instrumented.run().unwrap();

    assert_eq!(bare_report, report, "instruments perturbed the SimReport");
    let bits = |sys: &System| -> Vec<u32> {
        sys.full_output()
            .into_vec()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(
        bits(&bare),
        bits(&instrumented),
        "instruments perturbed the output"
    );
    // The instruments really were attached and recorded the run.
    let tracer = instrumented.tracer().expect("event-level tracer");
    assert!(tracer.borrow().event_count() > 0);
    assert!(bare.tracer().is_none() && bare.profiler().is_none());
    let profiler = instrumented.profiler().expect("profiler");
    assert!(profiler.borrow().cycles_per_sec() > 0.0);
}

#[test]
fn invalid_fault_plan_is_refused_at_construction() {
    let mut plan = FaultPlan::new(1);
    plan.noc_rate = 2.0;
    let opts = TraceOptions {
        fault_plan: Some(plan),
        ..TraceOptions::default()
    };
    assert!(matches!(
        build(Some(&opts)),
        Err(CoreError::InvalidConfig { .. })
    ));
}

/// Pass-through delivers corrupted row pointers and neighbour ids into
/// PowerGather's frontier walk (`gnna-sim --model pgnn --smoke
/// --fault-recovery passthrough --fault-rate 0.005` aborted on an
/// allocation of ~17 GB or read past the end of memory). On a smaller
/// DBLP stand-in, both rates below corrupt both decode sites (the
/// degree subtraction and the neighbour id); every run must end in a
/// report or a structured error, never in a panic or an abort.
#[test]
fn corrupted_pgnn_structure_words_end_in_a_result() {
    let d = datasets::dblp_scaled(20, 42).unwrap();
    let pgnn = Pgnn::deep(
        &[0, 1, 2, 4],
        d.vertex_features(),
        16,
        d.output_features,
        2,
        0xD0C5,
    )
    .unwrap();
    for rate in [0.005, 0.01] {
        let opts = TraceOptions {
            fault_plan: Some(
                FaultPlan::new(1)
                    .with_rate(rate)
                    .with_recovery(RecoveryMode::Passthrough),
            ),
            ..TraceOptions::default()
        };
        for cfg in [
            AcceleratorConfig::gpu_iso_bandwidth(),
            AcceleratorConfig::cpu_iso_bandwidth(),
        ] {
            let program = compile_pgnn(&pgnn).unwrap();
            let mut sys = System::with_options(&cfg, &d.instances, program, &opts).unwrap();
            if let Ok(report) = sys.run() {
                let sdc = report.resilience.total().sdc;
                assert!(sdc > 0, "{} at {rate}: nothing corrupted", cfg.name);
            }
        }
    }
}
