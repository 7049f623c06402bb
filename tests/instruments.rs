//! Instruments fixed at construction must not perturb a run: a system
//! built with event-level tracing, host profiling and an empty fault plan
//! simulates bit-identically to a bare one, an invalid fault plan is
//! refused when the system is built, corrupted words a fault plan lets
//! through end a run in a result, not a crash, and a run that rolls back
//! closes every host-profiler phase it opened.

use gnna::core::config::AcceleratorConfig;
use gnna::core::layers::{compile_gcn, compile_pgnn};
use gnna::core::system::{System, TraceOptions};
use gnna::core::CoreError;
use gnna::graph::datasets;
use gnna::models::{Gcn, GcnNorm, Pgnn};
use gnna_faults::{FaultPlan, RecoveryMode};
use gnna_telemetry::{MetricsRegistry, TraceLevel};
use std::collections::BTreeSet;

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
    assert!(profiler.cycles_per_sec() > 0.0);
}

/// A layer that fails and rolls back leaves its `config` and `cycles`
/// phases (and the layer's own) mid-run; they must close there, or the
/// replayed layers would nest under the failed one. Every `layer:` path
/// is `run;layer:<name>`, and each layer's phase calls count its
/// executions, replays included: `config` and `cycles` one per start
/// (the trace's `layer:<name>` begins), `barrier` one per completion
/// (the report's layer rows).
#[test]
fn profiled_rollback_closes_every_phase() {
    let d = datasets::cora_scaled(30, 12, 4, 3).unwrap();
    let gcn = Gcn::for_dataset(12, 6, 4, 5)
        .unwrap()
        .with_norm(GcnNorm::Mean);
    // DRAM double-bit faults that exhaust a one-re-read budget; the
    // first seed whose run rolls back and then completes is checked.
    let run = |seed| {
        let plan = FaultPlan::new(seed)
            .with_mem_rate(0.05)
            .with_double_bit_fraction(0.5)
            .with_mem_retry_budget(1)
            .with_recovery(RecoveryMode::Rollback)
            .with_rollback_budget(64);
        let opts = TraceOptions {
            fault_plan: Some(plan),
            ..TraceOptions::at_level(TraceLevel::Phase).with_profile(1)
        };
        let mut sys = System::with_options(
            &AcceleratorConfig::gpu_iso_bandwidth(),
            std::slice::from_ref(&d.instances[0]),
            compile_gcn(&gcn).unwrap(),
            &opts,
        )
        .unwrap();
        let report = sys.run().ok()?;
        (report.recovery.rollbacks > 0).then_some((sys, report))
    };
    let (sys, report) = (1..=60)
        .find_map(run)
        .expect("no seed in 1..=60 rolled back and completed");
    let mut reg = MetricsRegistry::new();
    sys.harvest_metrics(&mut reg);
    let calls = |path: &str| {
        reg.get_counter(&format!("host.profile.calls.{path}"))
            .unwrap_or(0)
    };
    assert_eq!(calls("run"), 1);
    assert_eq!(calls("run;report"), 1);
    let mut layers = BTreeSet::new();
    for (path, _) in reg.counters_with_prefix("host.profile.calls.") {
        let frames: Vec<&str> = path.split(';').collect();
        for (depth, frame) in frames.iter().enumerate() {
            if let Some(name) = frame.strip_prefix("layer:") {
                assert_eq!((depth, frames[0]), (1, "run"), "misplaced layer: {path}");
                layers.insert(name.to_string());
            }
        }
    }
    let tracer = sys.tracer().expect("phase tracer").borrow();
    let ran: BTreeSet<String> = report.layers.iter().map(|l| l.name.clone()).collect();
    assert_eq!(layers, ran, "profiled layers vs reported layers");
    let mut starts = 0;
    for name in &layers {
        let layer = format!("run;layer:{name}");
        let started = tracer.count_named_phase(&format!("layer:{name}"), 'B');
        let completed = report.layers.iter().filter(|l| &l.name == name).count() as u64;
        assert!(started > 0 && completed > 0, "{layer} never ran");
        assert_eq!(calls(&layer), started, "{layer}");
        assert_eq!(calls(&format!("{layer};config")), started, "{layer};config");
        assert_eq!(calls(&format!("{layer};cycles")), started, "{layer};cycles");
        assert_eq!(
            calls(&format!("{layer};barrier")),
            completed,
            "{layer};barrier"
        );
        starts += started;
    }
    // Each rollback ended exactly one execution early.
    assert_eq!(
        starts,
        report.layers.len() as u64 + report.recovery.rollbacks,
        "layer starts vs completions plus rollbacks"
    );
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
