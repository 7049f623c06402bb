//! End-to-end report pipeline: simulate a smoke benchmark with event
//! telemetry, serialize the metrics/trace exactly as `gnna-sim` would,
//! and check that `gnna-report`'s library path reconstructs a faithful
//! bottleneck report from the files alone.

use gnna_bench::report::{
    parse_trace_json, BottleneckReport, DiffReport, MetricsSnapshot, Section, Value,
};
use gnna_bench::{build_case, simulate_traced_opts, Scale, TraceOptions};
use gnna_core::config::AcceleratorConfig;
use gnna_core::energy::EnergyModel;
use gnna_faults::{FaultPlan, RecoveryMode};
use gnna_models::ModelKind;
use gnna_telemetry::TraceLevel;

fn traced_smoke_run() -> gnna_bench::TracedRun {
    traced_smoke_run_on(&AcceleratorConfig::gpu_iso_bandwidth())
}

fn traced_smoke_run_on(cfg: &AcceleratorConfig) -> gnna_bench::TracedRun {
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    simulate_traced_opts(&case, cfg, &TraceOptions::at_level(TraceLevel::Event)).unwrap()
}

#[test]
fn report_from_simulated_metrics_reconciles() {
    let run = traced_smoke_run();
    let metrics_json = run.metrics.to_json_string();
    let trace_json = run
        .tracer
        .as_ref()
        .unwrap()
        .borrow()
        .to_chrome_json_string();

    let snap = MetricsSnapshot::parse(&metrics_json).unwrap();
    let trace = parse_trace_json(&trace_json).unwrap();
    let report = BottleneckReport::build(&snap, Some(trace));

    // System figures match the in-memory report.
    let system = |metric: &str| report.system.get(metric).map(Value::count);
    assert_eq!(system("total_cycles"), Some(run.report.total_cycles));
    assert_eq!(system("clock_divider"), Some(run.report.clock_divider));
    assert_eq!(system("core_cycles"), Some(run.report.core_cycles()));
    assert_eq!(report.tiles.len(), run.report.num_tiles);

    // Stall causes partition blocked cycles in the file-based view too.
    let sum = |s: &Section, labelled: bool| -> u64 {
        let rows = s.rows.iter().filter(|r| r.label.is_some() == labelled);
        rows.map(|r| r.value.count()).sum()
    };
    let blocked = |t: &Section| t.get("gpe_blocked_pct").map_or(0, Value::count);
    for t in &report.tiles {
        assert_eq!(
            sum(t, false),
            blocked(t),
            "{}: file-based stall partition broken",
            t.name
        );
    }
    let total_blocked: u64 = report.tiles.iter().map(blocked).sum();
    assert_eq!(sum(&report.stalls, true), total_blocked);

    // Event-level run carries link loads and non-degenerate latency.
    assert!(!report.links.rows.is_empty(), "no per-link loads in report");
    assert!(report.links.rows[0].value.count() > 0);
    let lat = report.latency.expect("latency histogram in report");
    assert!(lat.p50 > 0.0 && lat.p50 <= lat.p95 && lat.p95 <= lat.p99);
    let hops = report.hops.expect("hop histogram in report");
    assert!(hops.min >= 1.0);

    // Trace inventory saw the simulated tracks.
    let t = report.trace.as_ref().unwrap();
    assert!(t.events > 0 && t.tracks > 0 && t.processes > 0);
    assert!(t.span_begins.contains_key("dna_job"));
}

#[test]
fn markdown_and_csv_render_from_real_run() {
    let run = traced_smoke_run();
    let snap = MetricsSnapshot::parse(&run.metrics.to_json_string()).unwrap();
    let report = BottleneckReport::build(&snap, None);

    let md = report.to_markdown(5);
    for needle in [
        "# gnna bottleneck report",
        "## Module utilisation",
        "## Stall breakdown",
        "Top 5 hottest links",
        "Router heat-map",
        "packet latency",
    ] {
        assert!(md.contains(needle), "missing {needle:?}");
    }

    let csv = report.to_csv();
    assert!(csv.lines().count() > 10);
    assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 3));
    assert!(csv.contains("system,total_cycles,"));
    assert!(csv.contains("noc,latency.p99,"));
}

#[test]
fn csv_metrics_dump_parses_identically() {
    // `gnna-sim --metrics-out x.csv` writes CSV; the report must read it.
    let run = traced_smoke_run();
    let from_json = MetricsSnapshot::parse(&run.metrics.to_json_string()).unwrap();
    let from_csv = MetricsSnapshot::parse(&run.metrics.to_csv_string()).unwrap();
    assert_eq!(from_json.len(), from_csv.len());
    assert_eq!(
        from_json.counter("system.total_cycles"),
        from_csv.counter("system.total_cycles")
    );
    let a = from_json.histogram("noc.packet_latency").unwrap();
    let b = from_csv.histogram("noc.packet_latency").unwrap();
    assert_eq!(a.count, b.count);
}

#[test]
fn energy_section_reconciles_from_files() {
    // The file-based energy view must carry the exact conservation
    // invariant: module aggregates, per-layer counters, and the total
    // all agree with the in-memory `EnergyModel` figure, in integer pJ —
    // also under rollback, where checkpoint traffic has its own row.
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let rollback = TraceOptions {
        fault_plan: Some(
            FaultPlan::new(1)
                .with_rate(0.001)
                .with_recovery(RecoveryMode::Rollback),
        ),
        ..TraceOptions::at_level(TraceLevel::Event)
    };
    let rollback =
        simulate_traced_opts(&case, &AcceleratorConfig::cpu_iso_bandwidth(), &rollback).unwrap();
    assert!(rollback.report.recovery.checkpoints > 0);
    for (run, checkpoint) in [(traced_smoke_run(), false), (rollback, true)] {
        let snap = MetricsSnapshot::parse(&run.metrics.to_json_string()).unwrap();
        let report = BottleneckReport::build(&snap, None);
        let e = report
            .energy
            .as_ref()
            .expect("event run has energy section");

        assert_eq!(e.total_pj, EnergyModel::default().total_pj(&run.report));
        let sum = |s: &Section| -> u64 {
            let rows = s.rows.iter().filter(|r| r.label.is_some());
            rows.map(|r| r.value.count()).sum()
        };
        assert_eq!(
            sum(&e.modules),
            e.total_pj,
            "module aggregates must conserve"
        );
        assert_eq!(sum(&e.layers), e.total_pj);
        assert_eq!(e.layers.rows.len(), run.report.layers.len());
        assert_eq!(e.tiles.rows.len(), run.report.num_tiles);
        assert!(!e.links.rows.is_empty(), "NoC link energies missing");
        assert!(e.total_pj > 0);

        let md = report.to_markdown(5);
        for needle in ["## Energy", "NoC energy hot spots", "Per-layer energy"] {
            assert!(md.contains(needle), "missing {needle:?}");
        }
        assert_eq!(md.contains("| checkpoint |"), checkpoint, "checkpoint row");
    }
}

#[test]
fn self_diff_of_real_run_is_zero() {
    // Degenerate diff: a dump against itself must be all-zero, with no
    // mismatched keys, and say so in the rendered report.
    let run = traced_smoke_run();
    let text = run.metrics.to_json_string();
    let a = MetricsSnapshot::parse(&text).unwrap();
    let b = MetricsSnapshot::parse(&text).unwrap();
    let d = DiffReport::build(&a, &b, "a.json", "b.json");
    assert!(d.is_zero(), "self-diff must be all-zero");
    assert!(d.only_a.is_empty() && d.only_b.is_empty());
    let md = d.to_markdown(8);
    assert!(md.contains("identical (all deltas zero)"), "{md}");
    for row in d.system.iter().chain(&d.stalls).chain(&d.energy) {
        assert_eq!(row.delta(), Some(0.0), "nonzero self-delta: {row:?}");
    }
}

#[test]
fn diff_of_two_configs_has_expected_shape() {
    // 1-tile CPU-iso vs 8-tile GPU-iso on the same workload: the diff
    // must carry the sign of the real cycle/energy movement and flag the
    // counters that exist on only one side (tile1+ on the larger mesh).
    let small = traced_smoke_run_on(&AcceleratorConfig::cpu_iso_bandwidth());
    let big = traced_smoke_run();
    let a = MetricsSnapshot::parse(&small.metrics.to_json_string()).unwrap();
    let b = MetricsSnapshot::parse(&big.metrics.to_json_string()).unwrap();
    let d = DiffReport::build(&a, &b, "cpu_iso.json", "gpu_iso.json");
    assert!(!d.is_zero());

    // Cycle delta reconciles with the in-memory reports, sign included.
    let cycles = d.system.iter().find(|r| r.name == "total_cycles").unwrap();
    let expected = big.report.total_cycles as f64 - small.report.total_cycles as f64;
    assert_eq!(cycles.delta(), Some(expected));
    assert_ne!(expected, 0.0, "configs should not tie exactly");

    // Tile count delta is exactly +7 (1 → 8 tiles).
    let tiles = d.system.iter().find(|r| r.name == "tiles").unwrap();
    assert_eq!(tiles.delta(), Some(7.0));

    // Energy totals are present on both sides and reconcile exactly.
    let energy = d
        .system
        .iter()
        .find(|r| r.name == "energy_total_pj")
        .unwrap();
    assert_eq!(
        energy.a,
        Some(EnergyModel::default().total_pj(&small.report) as f64)
    );
    assert_eq!(
        energy.b,
        Some(EnergyModel::default().total_pj(&big.report) as f64)
    );

    // Mismatched keys: the 8-tile run has counters the 1-tile run lacks.
    assert!(
        d.only_b.iter().any(|n| n.starts_with("tile1.")),
        "tile1 counters should be B-only: {:?}",
        &d.only_b[..d.only_b.len().min(8)]
    );

    // Rendered output covers all four delta families.
    let md = d.to_markdown(8);
    for needle in [
        "# gnna differential report",
        "## System",
        "## Stall cycles by cause",
        "## NoC link busy cycles",
        "## Energy (pJ)",
        "## Coverage",
        "only in B",
    ] {
        assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
    }
    let csv = d.to_csv();
    assert_eq!(csv.lines().next(), Some("section,metric,a,b,delta"));
    assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 5));
}

#[test]
fn flight_capacity_is_honoured() {
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let cfg = AcceleratorConfig::cpu_iso_bandwidth();
    let opts = TraceOptions {
        level: TraceLevel::Event,
        flight_capacity: Some(7),
        fault_plan: None,
        profile_sample_every: None,
    };
    let run = simulate_traced_opts(&case, &cfg, &opts).unwrap();
    assert_eq!(run.tracer.as_ref().unwrap().borrow().flight_capacity(), 7);
    // The ring holds at most 7 lines (header excluded).
    let snapshot = run.tracer.as_ref().unwrap().borrow().flight_snapshot();
    assert!(
        snapshot.lines().count() <= 8,
        "flight ring exceeded capacity:\n{snapshot}"
    );

    // Capacity 0 disables the ring without disturbing the run.
    let opts = TraceOptions {
        level: TraceLevel::Event,
        flight_capacity: Some(0),
        fault_plan: None,
        profile_sample_every: None,
    };
    let run0 = simulate_traced_opts(&case, &cfg, &opts).unwrap();
    assert_eq!(run0.report.total_cycles, run.report.total_cycles);
}

#[test]
fn passthrough_silent_corruption_closes_the_partition() {
    // Pass-through delivers uncorrectable faults as silent data
    // corruption; the report must count those `sdc` faults when it
    // checks injected == corrected + retried + unrecoverable + sdc.
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let opts = TraceOptions {
        fault_plan: Some(
            FaultPlan::new(42)
                .with_rate(0.01)
                .with_recovery(RecoveryMode::Passthrough),
        ),
        ..TraceOptions::default()
    };
    let run = simulate_traced_opts(&case, &AcceleratorConfig::cpu_iso_bandwidth(), &opts).unwrap();
    let snap = MetricsSnapshot::parse(&run.metrics.to_json_string()).unwrap();
    let report = BottleneckReport::build(&snap, None);
    let sdc: u64 = report.faults.iter().map(|(_, f)| f.sdc).sum();
    assert!(
        sdc > 0,
        "pass-through run recorded no sdc: {:?}",
        report.faults
    );
    let md = report.to_markdown(4);
    let line = md
        .lines()
        .find(|l| l.starts_with("Partition check:"))
        .expect("partition line");
    assert!(line.contains(&format!("+ sdc ({sdc})")), "{line}");
    assert!(line.ends_with("— holds."), "{line}");
    assert!(report.to_csv().contains("resilience,noc.sdc,"));
}
