//! End-to-end report pipeline: simulate a smoke benchmark with event
//! telemetry, serialize the metrics/trace exactly as `gnna-sim` would,
//! and check that `gnna-report`'s library path reconstructs a faithful
//! bottleneck report from the files alone.

use gnna_bench::report::{
    parse_trace_json, BottleneckReport, DiffReport, MetricsSnapshot, Report, Section, Show, Value,
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

/// The report's sections named `name`.
fn named<'a>(r: &'a Report, name: &str) -> Vec<&'a Section> {
    r.sections.iter().filter(|s| s.name == name).collect()
}

/// Sum of the values of a section's rows: the ones the markdown lists
/// (`labelled`) or the CSV-only ones.
fn sum(s: &Section, labelled: bool) -> u64 {
    let keyed = s.rows.iter().filter(|r| !r.metric().is_empty());
    let rows = keyed.filter(|r| r.shows(Show::Markdown) == labelled);
    rows.filter_map(|r| r.number()).map(Value::count).sum()
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
    let spans = trace.span_begins.get("dna_job").copied();
    let (events, tracks) = (trace.events, trace.tracks);
    let report = BottleneckReport::build(&snap, Some(trace), 8);

    // System figures match the in-memory report.
    let system = report.section("system").unwrap();
    let system = |metric: &str| system.get(metric).map(Value::count);
    assert_eq!(system("total_cycles"), Some(run.report.total_cycles));
    assert_eq!(system("clock_divider"), Some(run.report.clock_divider));
    assert_eq!(system("core_cycles"), Some(run.report.core_cycles()));
    let tiles: Vec<&Section> = (0..)
        .map_while(|i| report.section(&format!("tile{i}")))
        .collect();
    assert_eq!(tiles.len(), run.report.num_tiles);

    // Stall causes partition blocked cycles in the file-based view too,
    // and each tile's blocked share is of those cycles.
    let core = run.report.core_cycles();
    let blocked = |i: usize| {
        let c = &run.report.per_tile[i];
        c.gpe_idle_cycles + c.gpe_stall_cycles
    };
    for (i, t) in tiles.iter().enumerate() {
        assert_eq!(
            sum(t, false),
            blocked(i),
            "{}: file-based stall partition broken",
            t.name
        );
        let share = 100.0 * blocked(i) as f64 / core.max(1) as f64;
        assert_eq!(t.get("gpe_blocked_pct"), Some(&Value::Real(share, 3)));
    }
    let total_blocked: u64 = (0..tiles.len()).map(blocked).sum();
    assert_eq!(sum(report.section("stalls").unwrap(), true), total_blocked);

    // Event-level run carries link loads and non-degenerate latency.
    let links = report.section("noc.link").unwrap();
    assert!(!links.rows.is_empty(), "no per-link loads in report");
    assert!(links.rows[0].number().map_or(0, Value::count) > 0);
    let noc = report.section("noc").unwrap();
    let q = |metric: &str| match noc.get(metric) {
        Some(&Value::Real(v, _)) => v,
        other => panic!("{metric}: {other:?}"),
    };
    let (p50, p95, p99) = (q("latency.p50"), q("latency.p95"), q("latency.p99"));
    assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99);
    assert!(q("hops.p50") >= 1.0);
    let hops = snap.histogram(gnna_noc::PACKET_HOPS_KEY).unwrap();
    assert!(hops.min >= 1.0, "a packet took no hop: {hops:?}");

    // Trace inventory saw the simulated tracks.
    let t = report.section("trace").unwrap();
    assert_eq!(t.get("events"), Some(&Value::Count(events)));
    assert_eq!(t.get("tracks"), Some(&Value::Count(tracks)));
    assert!(events > 0 && tracks > 0);
    assert!(t.get("processes").map_or(0, Value::count) > 0);
    let spans = spans.expect("dna_job spans in the trace");
    let md = report.to_markdown();
    assert!(md.contains(&format!("| dna_job | {spans} |")), "{md}");
}

#[test]
fn markdown_and_csv_render_from_real_run() {
    let run = traced_smoke_run();
    let snap = MetricsSnapshot::parse(&run.metrics.to_json_string()).unwrap();
    let report = BottleneckReport::build(&snap, None, 5);

    let md = report.to_markdown();
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
        let report = BottleneckReport::build(&snap, None, 5);
        let [modules, tiles, layers] = named(&report, "energy")[..] else {
            panic!("event run has three energy sections");
        };
        let total_pj = modules.get("total_pj").map_or(0, Value::count);
        assert_eq!(total_pj, EnergyModel::default().total_pj(&run.report));
        assert_eq!(
            sum(modules, true),
            total_pj,
            "module aggregates must conserve"
        );
        assert_eq!(sum(layers, true), total_pj);
        assert_eq!(layers.rows.len(), run.report.layers.len());
        assert_eq!(tiles.rows.len(), run.report.num_tiles);
        let links = report.section("energy.link").unwrap();
        assert!(!links.rows.is_empty(), "NoC link energies missing");
        assert!(total_pj > 0);

        let md = report.to_markdown();
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
    let d = DiffReport::build(&a, &b, "a.json", "b.json", 8);
    assert!(
        d.section("identical").is_some(),
        "self-diff must be all-zero"
    );
    assert_eq!(d.csv_rows("coverage"), 0);
    let md = d.to_markdown();
    assert!(md.contains("identical (all deltas zero)"), "{md}");
    for line in d.to_csv().lines().skip(1) {
        assert!(line.ends_with(",0"), "nonzero self-delta: {line}");
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
    let d = DiffReport::build(&a, &b, "cpu_iso.json", "gpu_iso.json", 8);
    assert!(d.section("identical").is_none());
    let csv = d.to_csv();

    // Cycle delta reconciles with the in-memory reports, sign included.
    let (small_cycles, big_cycles) = (small.report.total_cycles, big.report.total_cycles);
    let expected = big_cycles as i64 - small_cycles as i64;
    assert_ne!(expected, 0, "configs should not tie exactly");
    let cycles = format!("system,total_cycles,{small_cycles},{big_cycles},{expected}\n");
    assert!(csv.contains(&cycles), "{csv}");

    // Tile count delta is exactly +7 (1 → 8 tiles).
    assert!(csv.contains("system,tiles,1,8,7\n"), "{csv}");

    // Energy totals are present on both sides and reconcile exactly.
    let (ea, eb) = (
        EnergyModel::default().total_pj(&small.report),
        EnergyModel::default().total_pj(&big.report),
    );
    let energy = format!(
        "system,energy_total_pj,{ea},{eb},{}\n",
        eb as i64 - ea as i64
    );
    assert!(csv.contains(&energy), "{csv}");

    // Mismatched keys: the 8-tile run has counters the 1-tile run lacks.
    assert!(
        csv.contains("coverage,only_b.tile1."),
        "tile1 counters should be B-only"
    );

    // Rendered output covers all four delta families.
    let md = d.to_markdown();
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
    assert_eq!(csv.lines().next(), Some("section,metric,a,b,delta"));
    assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 5));
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
    let report = BottleneckReport::build(&snap, None, 4);
    let sites = named(&report, "resilience");
    let rows = sites.iter().flat_map(|s| &s.rows);
    let sdc: u64 = rows
        .filter(|r| r.metric().ends_with(".sdc"))
        .filter_map(|r| r.number())
        .map(Value::count)
        .sum();
    assert!(sdc > 0, "pass-through run recorded no sdc: {sites:?}");
    let md = report.to_markdown();
    let line = md
        .lines()
        .find(|l| l.starts_with("Partition check:"))
        .expect("partition line");
    assert!(line.contains(&format!("+ sdc ({sdc})")), "{line}");
    assert!(line.ends_with("— holds."), "{line}");
    assert!(report.to_csv().contains("resilience,noc.sdc,"));
}
