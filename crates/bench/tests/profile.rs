//! Host-phase profiler integration: attaching the profiler must not
//! perturb simulation results, its cost must stay within the overhead
//! budget, and the exports must carry the per-module hot phases.

use gnna_bench::{build_case, simulate, simulate_traced_opts, Scale, TraceOptions};
use gnna_core::config::AcceleratorConfig;
use gnna_models::ModelKind;
use gnna_telemetry::TraceLevel;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn profiled_opts(sample_every: u64) -> TraceOptions {
    TraceOptions {
        level: TraceLevel::Off,
        fault_plan: None,
        profile_sample_every: Some(sample_every),
    }
}

#[test]
fn profiler_does_not_perturb_the_sim_report() {
    // The zero-cost-off golden: the profiler only reads the host wall
    // clock, so the full SimReport — every counter, every layer — must
    // be identical with and without it.
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let plain = simulate(&case, &cfg).unwrap();
    let profiled = simulate_traced_opts(&case, &cfg, &profiled_opts(8)).unwrap();
    assert_eq!(plain, profiled.report, "profiling perturbed the simulation");
}

#[test]
fn collapsed_stack_and_metrics_carry_per_module_phases() {
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let run = simulate_traced_opts(&case, &cfg, &profiled_opts(4)).unwrap();
    let prof = run.profiler.expect("profiler attached").into_inner();
    // The hot loop counts compute cycles only — config/barrier cycles
    // live in their own scopes — so it is bounded by the report total.
    assert!(prof.cycles_total() > 0);
    assert!(prof.cycles_total() <= run.report.total_cycles);
    assert!(prof.cycles_per_sec() > 0.0);

    // Collapsed stacks: every per-module hot phase shows up as a
    // `...;cycles;<module>` line, scope lines cover the layer tree, and
    // every line is `path count` shaped (flamegraph input).
    let collapsed = prof.collapsed();
    for phase in ["gpe", "agg", "dnq", "dna", "noc", "mem"] {
        assert!(
            collapsed
                .lines()
                .any(|l| l.starts_with("run;") && l.contains(&format!(";cycles;{phase} "))),
            "hot phase {phase} missing from:\n{collapsed}"
        );
    }
    assert!(
        collapsed
            .lines()
            .any(|l| l.starts_with("run;layer:") && l.contains(";config ")),
        "per-layer config scope missing from:\n{collapsed}"
    );
    let lines: BTreeMap<&str, u64> = collapsed
        .lines()
        .map(|line| {
            let (path, ns) = line.rsplit_once(' ').expect("`path ns` lines");
            assert!(!path.is_empty());
            (path, ns.parse().expect("numeric ns"))
        })
        .collect();
    assert_eq!(lines.len(), collapsed.lines().count(), "repeated path");

    // The metrics registry carries the same data for `gnna-report`:
    // both exports render one row list, so each collapsed line is its
    // `host.profile.self_ns.<path>` counter and every non-zero
    // `self_ns` counter has its line.
    let json = run.metrics.to_json_string();
    for needle in [
        "host.profile.wall_ns",
        "host.profile.cycles_total",
        "host.profile.cycles_per_sec",
        "host.profile.self_ns.run",
    ] {
        assert!(json.contains(needle), "missing {needle}");
    }
    let counters = run.metrics.counters_with_prefix("host.profile.self_ns.");
    let nonzero: BTreeMap<&str, u64> = counters
        .iter()
        .filter(|&&(_, ns)| ns > 0)
        .map(|(path, ns)| (path.as_str(), *ns))
        .collect();
    assert_eq!(
        lines, nonzero,
        "collapsed lines vs non-zero self_ns counters"
    );
}

#[test]
fn profiler_overhead_stays_within_budget() {
    // Sampled at the default 1-in-64 stride, profiling must cost less
    // than 10% wall clock on the smoke benchmark. Min-of-N absorbs
    // scheduler noise; the small absolute grace absorbs timer jitter on
    // a loaded CI host.
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let cfg = AcceleratorConfig::gpu_iso_bandwidth();
    let min_time = |profiled: bool| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                if profiled {
                    simulate_traced_opts(&case, &cfg, &profiled_opts(64)).unwrap();
                } else {
                    simulate(&case, &cfg).unwrap();
                }
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let baseline = min_time(false);
    let profiled = min_time(true);
    let budget = baseline.mul_f64(1.10) + Duration::from_millis(50);
    assert!(
        profiled <= budget,
        "profiled run {profiled:?} exceeds budget {budget:?} (baseline {baseline:?})"
    );
}
