//! Checkpoint/rollback recovery tests: a faulty run that rolls back
//! must be seed-stable and bit-identical to the fault-free reference
//! whenever every fault is recoverable; the rollback budget must
//! degrade to the structured [`CoreError::Fault`]; and checkpoint
//! traffic must charge into the energy ledger without breaking its
//! conservation invariants.

use gnna_core::config::AcceleratorConfig;
use gnna_core::energy::EnergyModel;
use gnna_core::layers::compile_gcn;
use gnna_core::system::{System, TraceOptions};
use gnna_core::CoreError;
use gnna_faults::{FaultPlan, RecoveryMode};
use gnna_graph::datasets;
use gnna_models::{Gcn, GcnNorm};
use gnna_telemetry::{MetricsRegistry, TraceLevel};

/// The reference workload: a two-layer GCN on synthetic Cora (same
/// harness as the fault and telemetry golden tests).
fn gcn_system(cfg: &AcceleratorConfig) -> System {
    build(cfg, &TraceOptions::default())
}

/// The reference workload with `plan` applied at construction.
fn faulty_system(cfg: &AcceleratorConfig, plan: FaultPlan) -> System {
    let opts = TraceOptions {
        fault_plan: Some(plan),
        ..TraceOptions::default()
    };
    build(cfg, &opts)
}

fn build(cfg: &AcceleratorConfig, opts: &TraceOptions) -> System {
    let d = datasets::cora_scaled(40, 8, 3, 11).unwrap();
    let gcn = Gcn::for_dataset(8, 4, 3, 2)
        .unwrap()
        .with_norm(GcnNorm::Mean);
    let program = compile_gcn(&gcn).unwrap();
    System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, opts).unwrap()
}

/// A plan whose only unrecoverable hazard is DRAM double-bit re-read
/// exhaustion under a finite budget: single rollbacks are likely at
/// some seeds while replays usually run clean.
fn rollback_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_mem_rate(0.05)
        .with_double_bit_fraction(0.5)
        .with_mem_retry_budget(1)
        .with_recovery(RecoveryMode::Rollback)
        .with_rollback_budget(64)
        .with_checkpoint_interval(1)
}

/// Seed-replay golden: scan seeds until a run actually rolls back, then
/// require its outputs to match the fault-free reference bit-for-bit
/// (every fault was recoverable — corrected, retried, or rolled back
/// and replayed) and its counters to stay partitioned.
#[test]
fn rollback_replay_is_bit_identical_to_fault_free_reference() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let mut clean = gcn_system(&cfg);
    clean.run().unwrap();
    let reference = clean.full_output().into_vec();

    let mut exercised = false;
    for seed in 1..=60 {
        let mut sys = faulty_system(&cfg, rollback_plan(seed));
        let Ok(report) = sys.run() else {
            // Rollback budget can still exhaust at pathological seeds;
            // those runs are covered by the budget test below.
            continue;
        };
        assert!(
            report.resilience.partition_holds(),
            "seed {seed}: outcome partition broke: {:?}",
            report.resilience
        );
        assert_eq!(
            sys.full_output().into_vec(),
            reference,
            "seed {seed}: recoverable faults perturbed the model output"
        );
        if report.recovery.rollbacks == 0 {
            continue;
        }
        exercised = true;
        // A rollback reclassified at least one exhausted fault.
        assert!(
            report.resilience.total().rolled_back > 0,
            "seed {seed}: rollback happened but nothing was reclassified: {:?}",
            report.resilience
        );
        assert!(
            report.recovery.replayed_cycles > 0,
            "seed {seed}: rollback discarded no cycles: {:?}",
            report.recovery
        );
        assert!(report.recovery.checkpoints > 0);
        assert!(report.to_string().contains("recovery:"));
        // Recovery counters surface in the metric registry.
        let mut reg = MetricsRegistry::new();
        sys.harvest_metrics(&mut reg);
        assert_eq!(
            reg.get_counter("system.recovery.rollbacks"),
            Some(report.recovery.rollbacks)
        );
        assert_eq!(
            reg.get_counter("system.recovery.replayed_cycles"),
            Some(report.recovery.replayed_cycles)
        );
        let rolled: u64 = reg
            .iter()
            .filter(|(name, _)| name.ends_with(".fault.rolled_back"))
            .filter_map(|(name, _)| reg.get_counter(name))
            .sum();
        assert_eq!(rolled, report.resilience.total().rolled_back);
        break;
    }
    assert!(
        exercised,
        "no seed in 1..=60 exercised a successful rollback"
    );
}

/// Identical seeds replay the whole rollback dance bit-identically:
/// same report (including recovery and resilience sections) and same
/// output bits across two independent simulations.
#[test]
fn rollback_runs_are_seed_stable() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    for seed in [3, 17, 29] {
        let mut a = faulty_system(&cfg, rollback_plan(seed));
        let ra = a.run();
        let mut b = faulty_system(&cfg, rollback_plan(seed));
        let rb = b.run();
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra, rb, "seed {seed}: reports diverged");
                assert_eq!(
                    a.full_output().into_vec(),
                    b.full_output().into_vec(),
                    "seed {seed}: outputs diverged"
                );
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(ea.to_string(), eb.to_string(), "seed {seed}");
            }
            (ra, rb) => panic!("seed {seed}: outcomes diverged: {ra:?} vs {rb:?}"),
        }
    }
}

/// When the rollback budget is spent, the error degrades to the same
/// structured fault the retry mode surfaces.
#[test]
fn exhausted_rollback_budget_degrades_to_structured_fault() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    // Every traversal corrupts and the retransmit budget is tiny: each
    // forward attempt fails almost immediately, so two rollbacks can
    // never finish the layer and the third failure must surface.
    let mut sys = faulty_system(
        &cfg,
        FaultPlan::new(3)
            .with_noc_rate(1.0)
            .with_noc_retry_budget(2)
            .with_recovery(RecoveryMode::Rollback)
            .with_rollback_budget(2),
    );
    match sys.run() {
        Err(CoreError::Fault { site, msg, .. }) => {
            assert_eq!(site, "noc");
            assert!(
                msg.contains("retransmit budget"),
                "unexpected fault message: {msg}"
            );
        }
        Err(other) => panic!("expected CoreError::Fault, got: {other}"),
        Ok(r) => panic!(
            "run with a saturating NoC fault rate succeeded: {:?}",
            r.recovery
        ),
    }
}

/// Rollback mode with only correctable faults never rolls back, but
/// still pays for its checkpoints: outputs stay bit-exact against the
/// fault-free reference while latency grows by the snapshot drain
/// cycles the recovery summary reports.
#[test]
fn checkpoints_cost_cycles_but_keep_outputs_exact() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let mut clean = gcn_system(&cfg);
    let clean_report = clean.run().unwrap();

    let plan = FaultPlan::new(11)
        .with_mem_rate(0.02)
        .with_double_bit_fraction(0.0) // single-bit only: always corrected
        .with_recovery(RecoveryMode::Rollback)
        .with_checkpoint_interval(1);
    let mut sys = faulty_system(&cfg, plan);
    let report = sys.run().unwrap();

    assert_eq!(report.recovery.rollbacks, 0);
    assert!(
        report.recovery.checkpoints > 0,
        "interval-1 run took no checkpoints: {:?}",
        report.recovery
    );
    assert!(report.recovery.checkpoint_bytes > 0);
    assert!(report.recovery.checkpoint_cycles > 0);
    assert_eq!(
        clean.full_output().into_vec(),
        sys.full_output().into_vec(),
        "checkpointing perturbed the model output"
    );
    assert!(
        report.total_cycles > clean_report.total_cycles,
        "checkpoint drain cycles were not charged"
    );
}

/// Checkpoint traffic charges into the energy ledger at its own site
/// and the conservation invariants survive: per-site counters (now
/// including `system.energy.checkpoint_pj`) sum to the registry total,
/// which equals the report-derived total exactly.
#[test]
fn checkpoint_energy_conserves_ledger_total() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let model = EnergyModel::default();
    let opts = TraceOptions {
        fault_plan: Some(
            FaultPlan::new(11)
                .with_mem_rate(0.01)
                .with_double_bit_fraction(0.0)
                .with_recovery(RecoveryMode::Rollback)
                .with_checkpoint_interval(1),
        ),
        ..TraceOptions::at_level(TraceLevel::Event)
    };
    let mut sys = build(&cfg, &opts);
    sys.set_energy_model(model);
    let report = sys.run().unwrap();
    assert!(report.recovery.checkpoints > 0);

    let mut reg = MetricsRegistry::new();
    sys.harvest_metrics(&mut reg);
    let total = reg
        .get_counter("system.energy.total_pj")
        .expect("traced run exports the energy total");
    assert_eq!(total, model.total_pj(&report), "registry vs report total");
    let checkpoint_pj = reg
        .get_counter("system.energy.checkpoint_pj")
        .expect("recovery run exports the checkpoint site");
    assert!(checkpoint_pj > 0, "checkpoint traffic charged no energy");
    let sites: u64 = reg
        .iter()
        .filter(|(name, _)| name.contains(".energy.") && name.ends_with("_pj"))
        .filter(|(name, _)| !name.starts_with("system.energy.layer"))
        .filter(|(name, _)| *name != "system.energy.total_pj")
        .filter_map(|(name, _)| reg.get_counter(name))
        .sum();
    assert_eq!(sites, total, "site partition broke with checkpoint site");
}
