//! Golden and property tests of the deterministic fault-injection
//! subsystem: a zero-rate plan must be a bit-identical no-op, identical
//! seeds must replay bit-identically, the fault counters must partition
//! exactly, correctable-only runs must keep the model outputs bit-exact
//! against the fault-free reference, and an unrecoverable fault must
//! surface as a structured [`CoreError::Fault`] rather than a panic.

use gnna_core::config::AcceleratorConfig;
use gnna_core::layers::compile_gcn;
use gnna_core::system::{System, TraceOptions};
use gnna_core::CoreError;
use gnna_faults::{FaultPlan, MeshDir, RecoveryMode};
use gnna_graph::datasets;
use gnna_models::{Gcn, GcnNorm};
use gnna_telemetry::MetricsRegistry;
use proptest::prelude::*;

/// The reference workload: a two-layer GCN on synthetic Cora (same
/// harness as the telemetry golden tests).
fn gcn_system(cfg: &AcceleratorConfig) -> System {
    build(cfg, &TraceOptions::default()).unwrap()
}

/// The reference workload with `plan` applied at construction.
fn faulty_system(cfg: &AcceleratorConfig, plan: &FaultPlan) -> Result<System, CoreError> {
    let opts = TraceOptions {
        fault_plan: Some(plan.clone()),
        ..TraceOptions::default()
    };
    build(cfg, &opts)
}

fn build(cfg: &AcceleratorConfig, opts: &TraceOptions) -> Result<System, CoreError> {
    let d = datasets::cora_scaled(40, 8, 3, 11).unwrap();
    let gcn = Gcn::for_dataset(8, 4, 3, 2)
        .unwrap()
        .with_norm(GcnNorm::Mean);
    let program = compile_gcn(&gcn).unwrap();
    System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, opts)
}

#[test]
fn zero_fault_plan_is_bit_identical_noop() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let mut plain = gcn_system(&cfg);
    let plain_report = plain.run().unwrap();

    // A plan with all rates zero must leave the run untouched: same
    // report (every counter), same output bits, and no `*.fault.*`
    // metric families in the harvested registry.
    let mut sys = faulty_system(&cfg, &FaultPlan::new(7)).unwrap();
    let report = sys.run().unwrap();
    assert_eq!(
        plain_report, report,
        "empty fault plan perturbed the SimReport"
    );
    assert_eq!(
        plain.full_output().into_vec(),
        sys.full_output().into_vec(),
        "empty fault plan perturbed the model output"
    );
    assert!(!report.resilience.any());
    let mut reg = MetricsRegistry::new();
    sys.harvest_metrics(&mut reg);
    let fault_keys: Vec<&str> = reg
        .iter()
        .map(|(name, _)| name)
        .filter(|n| n.contains(".fault."))
        .collect();
    assert!(
        fault_keys.is_empty(),
        "fault-free run leaked fault metrics: {fault_keys:?}"
    );
}

#[test]
fn injected_faults_emit_metric_families() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let mut sys = faulty_system(&cfg, &FaultPlan::new(11).with_rate(0.02)).unwrap();
    let report = sys.run().unwrap();
    assert!(
        report.resilience.any(),
        "2% fault rate injected nothing: {:?}",
        report.resilience
    );
    let mut reg = MetricsRegistry::new();
    sys.harvest_metrics(&mut reg);
    // Every site that recorded activity exports the full counter family.
    for (prefix, counters) in [
        ("mem0.fault", report.resilience.mem),
        ("noc.fault", report.resilience.noc),
    ] {
        assert_eq!(
            reg.get_counter(&format!("{prefix}.injected")),
            Some(counters.injected),
            "{prefix}.injected"
        );
        assert_eq!(
            reg.get_counter(&format!("{prefix}.retry_cycles")),
            Some(counters.retry_cycles),
            "{prefix}.retry_cycles"
        );
    }
}

#[test]
fn unrecoverable_noc_fault_is_structured_error() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    // Every traversal fails and the budget is tiny: the first packet
    // exhausts its retransmit budget and the run must end in a
    // structured fault error (no panic, no spin).
    let plan = FaultPlan::new(3)
        .with_noc_rate(1.0)
        .with_noc_retry_budget(2);
    let mut sys = faulty_system(&cfg, &plan).unwrap();
    match sys.run() {
        Err(CoreError::Fault { site, msg, .. }) => {
            assert_eq!(site, "noc");
            assert!(
                msg.contains("retransmit budget"),
                "unexpected fault message: {msg}"
            );
        }
        Err(other) => panic!("expected CoreError::Fault, got: {other}"),
        Ok(_) => panic!("run with a saturating NoC fault rate succeeded"),
    }
}

#[test]
fn dead_tile_remaps_work_onto_survivors() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let mut clean = gcn_system(&cfg);
    let clean_report = clean.run().unwrap();
    let total_vertices: u64 = clean_report
        .per_tile
        .iter()
        .map(|t| t.gpe_vertices_done)
        .sum();

    let mut sys = faulty_system(&cfg, &FaultPlan::new(5).with_dead_tile(1)).unwrap();
    let report = sys.run().unwrap();
    assert_eq!(report.degraded.dead_tiles, 1);
    assert!(
        report.degraded.remapped_vertices > 0,
        "dead tile remapped no work: {:?}",
        report.degraded
    );
    // The dead tile retires nothing; the survivors pick up its share so
    // the same total work still completes.
    assert_eq!(report.per_tile[1].gpe_vertices_done, 0);
    let redone: u64 = report.per_tile.iter().map(|t| t.gpe_vertices_done).sum();
    assert_eq!(redone, total_vertices, "remap lost or duplicated vertices");
    assert!(report.to_string().contains("degraded: 1 dead tiles"));
}

#[test]
fn dead_link_detours_and_completes() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let mut clean = gcn_system(&cfg);
    let clean_report = clean.run().unwrap();

    let dead_link = FaultPlan::new(5).with_dead_link(0, 0, MeshDir::East);
    let mut sys = faulty_system(&cfg, &dead_link).unwrap();
    let report = sys.run().unwrap();
    assert_eq!(report.degraded.dead_links, 1);
    // The detour delivers everything: same vertices retired, and the
    // longer paths can only add hops, never remove them.
    let clean_v: u64 = clean_report
        .per_tile
        .iter()
        .map(|t| t.gpe_vertices_done)
        .sum();
    let v: u64 = report.per_tile.iter().map(|t| t.gpe_vertices_done).sum();
    assert_eq!(v, clean_v);
    assert!(report.noc_flit_hops >= clean_report.noc_flit_hops);
}

#[test]
fn invalid_plans_are_structured_config_errors() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    // Out-of-range rate is rejected up front.
    let mut bad = FaultPlan::new(1);
    bad.mem_rate = f64::NAN;
    assert!(matches!(
        faulty_system(&cfg, &bad),
        Err(CoreError::InvalidConfig { .. })
    ));
    // Dead tile outside the topology.
    assert!(matches!(
        faulty_system(&cfg, &FaultPlan::new(1).with_dead_tile(usize::MAX)),
        Err(CoreError::InvalidConfig { .. })
    ));
    // A dead link that would disconnect a mesh corner.
    let plan = FaultPlan::new(1)
        .with_dead_link(0, 0, MeshDir::East)
        .with_dead_link(0, 0, MeshDir::South)
        .with_dead_link(0, 0, MeshDir::North);
    assert!(matches!(
        faulty_system(&cfg, &plan),
        Err(CoreError::InvalidConfig { .. })
    ));
}

#[test]
fn passthrough_high_rate_reports_silent_corruption() {
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let plan = FaultPlan::new(13)
        .with_mem_rate(0.05)
        .with_double_bit_fraction(0.5)
        .with_noc_rate(0.01)
        .with_recovery(RecoveryMode::Passthrough);
    let mut sys = faulty_system(&cfg, &plan).unwrap();
    // Pass-through never returns CoreError::Fault: corrupted words are
    // delivered instead of retried to exhaustion.
    let report = sys.run().unwrap();
    let total = report.resilience.total();
    assert!(
        total.sdc > 0,
        "high-rate pass-through produced no silent corruption: {total:?}"
    );
    assert_eq!(total.unrecoverable, 0);
    assert!(report.resilience.partition_holds());
    // The sdc counter surfaces in the metric registry.
    let mut reg = MetricsRegistry::new();
    sys.harvest_metrics(&mut reg);
    let sdc_sum: u64 = reg
        .iter()
        .filter(|(name, _)| name.ends_with(".fault.sdc"))
        .filter_map(|(name, _)| reg.get_counter(name))
        .sum();
    assert_eq!(sdc_sum, total.sdc);
}

/// Strategy over small fault plans: per-site rates up to 2% with
/// deterministic seeds (the vendored proptest shim replays fixed
/// per-test RNG streams, so failures reproduce exactly).
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (1..=1_000u64, 0..=20u64, 0..=20u64, 0..=20u64).prop_map(|(seed, mem, noc, stall)| {
        FaultPlan::new(seed)
            .with_mem_rate(mem as f64 / 1000.0)
            .with_noc_rate(noc as f64 / 1000.0)
            .with_stall_rate(stall as f64 / 1000.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Identical seeds and rates replay bit-identically: the whole
    /// SimReport (cycles, per-tile counters, resilience section) and the
    /// model output bits match across two independent simulations.
    #[test]
    fn prop_identical_seeds_replay_bit_identically(plan in plan_strategy()) {
        let cfg = AcceleratorConfig::gpu_iso_bandwidth();
        let mut a = faulty_system(&cfg, &plan).unwrap();
        let ra = a.run().unwrap();
        let mut b = faulty_system(&cfg, &plan).unwrap();
        let rb = b.run().unwrap();
        prop_assert_eq!(&ra, &rb);
        prop_assert_eq!(a.full_output().into_vec(), b.full_output().into_vec());
    }

    /// Every injected fault is classified as exactly one of corrected /
    /// retried / unrecoverable, per site and in the roll-up.
    #[test]
    fn prop_fault_counters_partition_exactly(plan in plan_strategy()) {
        let cfg = AcceleratorConfig::gpu_iso_bandwidth();
        let mut sys = faulty_system(&cfg, &plan).unwrap();
        let report = sys.run().unwrap();
        let r = &report.resilience;
        for (site, c) in [("mem", r.mem), ("noc", r.noc), ("dna", r.dna)] {
            prop_assert!(
                c.partition_holds(),
                "{} partition violated: {:?}", site, c
            );
        }
        prop_assert!(r.partition_holds());
        let t = r.total();
        prop_assert_eq!(t.injected, t.corrected + t.retried + t.unrecoverable);
    }

    /// Correctable-only fault mixes (single-bit ECC flips, DNA bubbles)
    /// leave the model outputs bit-exact against the fault-free
    /// reference; only latency may grow.
    #[test]
    fn prop_correctable_only_runs_are_bit_exact(seed in 1..=1_000u64) {
        let cfg = AcceleratorConfig::gpu_iso_bandwidth();
        let mut clean = gcn_system(&cfg);
        let clean_report = clean.run().unwrap();

        let plan = FaultPlan::new(seed)
            .with_mem_rate(0.02)
            .with_stall_rate(0.02)
            .with_double_bit_fraction(0.0); // single-bit only: no retries
        let mut faulty = faulty_system(&cfg, &plan).unwrap();
        let report = faulty.run().unwrap();

        prop_assert_eq!(
            clean.full_output().into_vec(),
            faulty.full_output().into_vec()
        );
        let r = &report.resilience;
        // Everything injected was absorbed by a protection model.
        prop_assert_eq!(r.total().unrecoverable, 0);
        prop_assert_eq!(r.total().corrected + r.total().retried, r.total().injected);
        // Protection can only add cycles, never remove them.
        prop_assert!(report.total_cycles >= clean_report.total_cycles);
    }
}
