//! Rendered-report goldens: the exact markdown and CSV bytes
//! `gnna-report` produces for a fixed set of runs, dumps and campaigns,
//! committed under `tests/golden/report/`.
//!
//! Every input is deterministic: smoke-scale simulations traced at event
//! level (the `gnna-sim --smoke --metrics-out` runs the CI jobs render),
//! one committed host-profile dump (live wall times differ from run to
//! run, so a live profile cannot be pinned), the committed
//! `campaign_smoke.jsonl` and a rollback campaign with FIT rates and a
//! protection domain whose JSONL is pinned here too.
//!
//! To re-bless after an *intentional* change to the rendered output:
//!
//! ```text
//! GNNA_BLESS_GOLDENS=1 cargo test -p gnna-bench --test report_goldens
//! ```

use gnna_bench::campaign::{self, CampaignSpec, Mode, RateUnit};
use gnna_bench::report::{
    parse_campaign_jsonl, parse_trace_json, BottleneckReport, CampaignReport, DiffReport,
    MetricsSnapshot,
};
use gnna_bench::{build_case, simulate_traced_opts, Scale, TraceOptions, TracedRun};
use gnna_core::config::AcceleratorConfig;
use gnna_faults::{CrcDomain, EccDomain, FaultPlan, RecoveryMode};
use gnna_models::ModelKind;
use gnna_telemetry::TraceLevel;
use std::path::PathBuf;

/// Rows the hottest-link and hot-spot tables show.
const TOP_K: usize = 5;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report")
}

fn blessing() -> bool {
    std::env::var("GNNA_BLESS_GOLDENS").is_ok_and(|v| v == "1")
}

/// Compares `rendered` with the committed golden `name`, or rewrites it
/// when blessing. Returns a mismatch message instead of panicking so one
/// test can report every diverging file at once.
fn check(name: &str, rendered: &str) -> Option<String> {
    let path = golden_dir().join(name);
    if blessing() {
        std::fs::write(&path, rendered).unwrap();
        return None;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
    if golden == rendered {
        return None;
    }
    let line = golden
        .lines()
        .zip(rendered.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(golden.lines().count().min(rendered.lines().count()));
    Some(format!(
        "{name}: differs from line {}\n  golden:   {:?}\n  rendered: {:?}",
        line + 1,
        golden.lines().nth(line),
        rendered.lines().nth(line)
    ))
}

fn assert_all(mismatches: Vec<Option<String>>) {
    let failed: Vec<String> = mismatches.into_iter().flatten().collect();
    assert!(
        failed.is_empty(),
        "{} report golden(s) diverged:\n{}",
        failed.len(),
        failed.join("\n")
    );
}

/// One event-traced smoke run's metrics dump, as `gnna-sim --smoke
/// --model {model} --config {cfg} --clock {ghz} --metrics-out m.json`
/// (plus the fault flags the plan stands for) writes it.
fn dump(
    model: ModelKind,
    input: &'static str,
    cfg: AcceleratorConfig,
    ghz: f64,
    plan: Option<FaultPlan>,
) -> MetricsSnapshot {
    let run = traced(model, input, cfg, ghz, plan);
    MetricsSnapshot::parse(&run.metrics.to_json_string()).unwrap()
}

/// The event-traced smoke run behind [`dump`].
fn traced(
    model: ModelKind,
    input: &'static str,
    cfg: AcceleratorConfig,
    ghz: f64,
    plan: Option<FaultPlan>,
) -> TracedRun {
    let case = build_case(model, input, Scale::Smoke).unwrap();
    let opts = TraceOptions {
        fault_plan: plan,
        ..TraceOptions::at_level(TraceLevel::Event)
    };
    simulate_traced_opts(&case, &cfg.with_core_clock(ghz * 1e9), &opts).unwrap()
}

fn bottleneck(name: &str, snap: &MetricsSnapshot) -> Vec<Option<String>> {
    let report = BottleneckReport::build(snap, None, TOP_K);
    vec![
        check(&format!("{name}.md"), &report.to_markdown()),
        check(&format!("{name}.csv"), &report.to_csv()),
    ]
}

#[test]
fn bottleneck_reports_match_goldens() {
    let cpu = AcceleratorConfig::cpu_iso_bandwidth;
    let gpu = AcceleratorConfig::gpu_iso_bandwidth;
    let mut out = Vec::new();
    let gcn_gpu = dump(ModelKind::Gcn, "Cora", gpu(), 2.4, None);
    let gcn_cpu = dump(ModelKind::Gcn, "Cora", cpu(), 2.4, None);
    out.extend(bottleneck("gcn-cora-gpu-iso", &gcn_gpu));
    out.extend(bottleneck("gcn-cora-cpu-iso", &gcn_cpu));
    out.extend(bottleneck(
        "mpnn-qm9-cpu-iso-0.6ghz",
        &dump(ModelKind::Mpnn, "QM9_1000", cpu(), 0.6, None),
    ));
    let passthrough = FaultPlan::new(42)
        .with_rate(0.01)
        .with_recovery(RecoveryMode::Passthrough);
    out.extend(bottleneck(
        "gcn-cora-passthrough",
        &dump(ModelKind::Gcn, "Cora", cpu(), 2.4, Some(passthrough)),
    ));
    let rollback = FaultPlan::new(1)
        .with_rate(0.001)
        .with_recovery(RecoveryMode::Rollback);
    out.extend(bottleneck(
        "gcn-cora-rollback",
        &dump(ModelKind::Gcn, "Cora", cpu(), 2.4, Some(rollback)),
    ));
    // `gnna-sim --fault-recovery rollback --fault-rate 0.05 --fault-seed 5
    // --mem-retry-budget 1`: this run rolls back, so its partition line
    // names the `rolled back` term and its recovery energy includes the
    // restore traffic.
    let rolled_back = FaultPlan::new(5)
        .with_rate(0.05)
        .with_recovery(RecoveryMode::Rollback)
        .with_mem_retry_budget(1);
    out.extend(bottleneck(
        "gcn-cora-rolled-back",
        &dump(ModelKind::Gcn, "Cora", cpu(), 2.4, Some(rolled_back)),
    ));

    for (name, a, b, la, lb) in [
        (
            "diff-cpu-gpu",
            &gcn_cpu,
            &gcn_gpu,
            "cpu_iso.json",
            "gpu_iso.json",
        ),
        (
            "diff-self",
            &gcn_cpu,
            &gcn_cpu,
            "cpu_iso.json",
            "cpu_iso.json",
        ),
    ] {
        let d = DiffReport::build(a, b, la, lb, 8);
        out.push(check(&format!("{name}.md"), &d.to_markdown()));
        out.push(check(&format!("{name}.csv"), &d.to_csv()));
    }
    assert_all(out);
}

/// `gnna-report --metrics m.json --trace t.json` on the event-traced
/// GCN:Cora GPU iso-BW run: the trace-inventory section and its CSV rows.
#[test]
fn traced_report_matches_golden() {
    let gpu = AcceleratorConfig::gpu_iso_bandwidth();
    let run = traced(ModelKind::Gcn, "Cora", gpu, 2.4, None);
    let snap = MetricsSnapshot::parse(&run.metrics.to_json_string()).unwrap();
    let trace = run
        .tracer
        .as_ref()
        .unwrap()
        .borrow()
        .to_chrome_json_string();
    let trace = parse_trace_json(&trace).unwrap();
    let report = BottleneckReport::build(&snap, Some(trace), TOP_K);
    assert_all(vec![
        check("gcn-cora-gpu-iso-traced.md", &report.to_markdown()),
        check("gcn-cora-gpu-iso-traced.csv", &report.to_csv()),
    ]);
}

#[test]
fn host_profile_report_matches_golden() {
    let text = std::fs::read_to_string(golden_dir().join("host_profile.json")).unwrap();
    let snap = MetricsSnapshot::parse(&text).unwrap();
    assert_all(bottleneck("host-profile", &snap));
}

/// The CI recipe's rollback grid: GCN:Cora, rollback mode, FIT rates 0
/// and 1000 accelerated by 1e15, the default and the weights-only ECC
/// domain, seeds 1 and 2 (8 cells).
fn rollback_fit_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(AcceleratorConfig::gpu_iso_bandwidth(), Scale::Smoke);
    spec.modes = vec![Mode::Rollback];
    spec.rate_unit = RateUnit::Fit;
    spec.rates = vec![0.0, 1000.0];
    spec.acceleration = 1e15;
    spec.domains = vec![
        (EccDomain::Both, CrcDomain::All),
        (EccDomain::WeightsOnly, CrcDomain::All),
    ];
    spec.seeds = vec![1, 2];
    spec
}

#[test]
fn campaign_reports_match_goldens() {
    let mut jsonl = String::new();
    campaign::run(&rollback_fit_spec(), 2, 0, |line| {
        jsonl.push_str(line);
        jsonl.push('\n');
        Ok(())
    })
    .unwrap();
    let mut out = vec![check("campaign-rollback-fit.jsonl", &jsonl)];
    for (name, text) in [
        (
            "campaign-smoke",
            include_str!("golden/campaign_smoke.jsonl"),
        ),
        ("campaign-rollback-fit", jsonl.as_str()),
    ] {
        let report = CampaignReport::build(&parse_campaign_jsonl(text).unwrap());
        out.push(check(&format!("{name}.md"), &report.to_markdown()));
        out.push(check(&format!("{name}.csv"), &report.to_csv()));
    }
    assert_all(out);
}
