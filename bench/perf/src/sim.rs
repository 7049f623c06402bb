//! The `sim-*` workloads: paper-scale benchmark pairs simulated on one
//! Table VI configuration, the way `gnna-sim` and `fig8` run them.

use crate::cases::{self, case_name, SetupTimes};
use crate::record::Value;
use crate::spans::Spans;
use crate::{Measured, Opts};
use gnna_bench::accuracy::{compare_rows, simulated_rows};
use gnna_bench::{simulate_traced_opts, BenchCase, BenchError, TraceOptions};
use gnna_core::config::AcceleratorConfig;
use gnna_core::energy::EnergyModel;
use gnna_core::stats::{SimReport, StallCause};
use gnna_core::system::System;
use gnna_models::{ModelKind, BENCHMARK_PAIRS};
use gnna_telemetry::{CostClass, HotPhase, TraceLevel};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median. The first one
/// builds the cases the run simulates; the others run after the timed
/// simulations.
const SETUP_REPS: usize = 3;

/// Host-profiler sampling period of the traced repetition.
const PROFILE_SAMPLE_EVERY: u64 = 64;

/// Largest mean relative error a simulated output may show against the
/// functional reference. The simulator sums in a different order than
/// the reference. Over the 21 seeds of `results/seeds.jsonl` the worst
/// case other than PGNN is 2.3e-6.
const MAX_MEAN_REL_ERR: f64 = 1e-5;

/// The same bound for PGNN, whose nine layers compound the reordering:
/// over the same seeds it reaches 2.8e-5.
const MAX_MEAN_REL_ERR_PGNN: f64 = 1e-4;

/// One simulator workload.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// The Table VI configuration at 2.4 GHz.
    pub config: AcceleratorConfig,
    /// The benchmark pairs it simulates.
    pub pairs: Vec<(ModelKind, &'static str)>,
    /// Whether Fig 8 normalises against the GPU (else the CPU) baseline.
    pub vs_gpu: bool,
}

impl SimWorkload {
    /// GCN and GAT on the citation graphs plus MPNN on QM9, on GPU
    /// iso-BW (8 tiles): the Fig 8 headline panel. Host time goes to
    /// the mesh: NoC, tile comms and GPE.
    pub fn mesh() -> Self {
        SimWorkload {
            config: gnna_bench::configurations(2.4e9)[1].clone(),
            pairs: BENCHMARK_PAIRS
                .into_iter()
                .filter(|(m, _)| *m != ModelKind::Pgnn)
                .collect(),
            vs_gpu: true,
        }
    }

    /// All six Table VII pairs on CPU iso-BW (1 tile): no mesh to split,
    /// host time goes to DNA and memory; PGNN brings nine layers.
    pub fn tile() -> Self {
        SimWorkload {
            config: gnna_bench::configurations(2.4e9)[0].clone(),
            pairs: BENCHMARK_PAIRS.to_vec(),
            vs_gpu: false,
        }
    }
}

/// A built case plus everything measured about it.
struct Case {
    name: String,
    case: BenchCase,
    run_s: Vec<f64>,
    report: Option<SimReport>,
    /// Largest mean relative error of a checked run.
    worst_err: f64,
}

/// Builds every case of `w` once; returns the cases, the per-layer
/// set-up times and the summed `System::new` time.
fn setup(
    w: &SimWorkload,
    opts: &Opts,
    spans: &mut Spans,
) -> Result<(Vec<Case>, SetupTimes, f64), BenchError> {
    let mut cases = Vec::with_capacity(w.pairs.len());
    let mut times = SetupTimes::default();
    let mut new_s = 0.0;
    for &(model, input) in &w.pairs {
        let (case, t) = cases::build(model, input, opts.scale, opts.seed, spans)?;
        times.add(&t);
        let name = case_name(model, input);
        let (sys, s) = spans.time(&format!("new {name}"), || {
            System::new(&w.config, &case.dataset.instances, case.program.clone())
        });
        drop(sys?);
        new_s += s;
        cases.push(Case {
            name,
            case,
            run_s: Vec::new(),
            report: None,
            worst_err: 0.0,
        });
    }
    Ok((cases, times, new_s))
}

/// Simulates one case untraced, checks its output and determinism, and
/// records the host time of `System::run`. Returns whether it passed.
fn run_once(c: &mut Case, config: &AcceleratorConfig, spans: &mut Spans) -> bool {
    let outcome = (|| -> Result<bool, BenchError> {
        let mut sys = System::new(config, &c.case.dataset.instances, c.case.program.clone())?;
        let (report, s) = spans.time(&format!("run {}", c.name), || sys.run());
        let report = report?;
        c.run_s.push(s);
        let acc = compare_rows(&c.case.reference, &simulated_rows(&c.case, &sys)?)?;
        c.worst_err = c.worst_err.max(acc.mean_rel_err);
        let bound = if c.case.model == ModelKind::Pgnn {
            MAX_MEAN_REL_ERR_PGNN
        } else {
            MAX_MEAN_REL_ERR
        };
        let accurate = acc.label_flips == 0 && acc.nonfinite == 0 && acc.mean_rel_err <= bound;
        if !accurate {
            eprintln!(
                "gnna-perf: {} output differs from the reference: {acc:?}",
                c.name
            );
        }
        let repeatable = match &c.report {
            Some(first) => *first == report,
            None => {
                c.report = Some(report);
                true
            }
        };
        if !repeatable {
            eprintln!("gnna-perf: {} report changed between repetitions", c.name);
        }
        Ok(accurate && repeatable)
    })();
    outcome.unwrap_or_else(|e| {
        eprintln!("gnna-perf: {} failed: {e}", c.name);
        false
    })
}

/// Modelled-hardware metrics summed over the workload's cases.
fn hardware_metrics(
    vs_gpu: bool,
    runs: &[(&BenchCase, &SimReport)],
    m: &mut BTreeMap<String, Value>,
) {
    let reports: Vec<&SimReport> = runs.iter().map(|(_, r)| *r).collect();
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let cycles = sum(&|r| r.total_cycles);
    let config_cycles = sum(&|r| r.config_cycles);
    let tile_core_cycles = sum(&|r| r.core_cycles() * r.num_tiles as u64);
    let latency_s: f64 = reports.iter().map(|r| r.latency_s()).sum();
    let dram = sum(&|r| r.dram_bytes);
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), Value::once(v));
    };
    put("sim.cycles", cycles);
    put("sim.config_cycles", config_cycles);
    put("sim.compute_cycles", cycles - config_cycles);
    for cause in StallCause::ALL {
        let stalled = sum(&|r| {
            r.per_tile
                .iter()
                .map(|t| t.gpe_stall_by_cause[cause.index()])
                .sum()
        });
        put(&format!("sim.gpe_stall.{}", cause.as_str()), stalled);
    }
    put("sim.gpe_util", sum(&|r| r.gpe_op_cycles) / tile_core_cycles);
    put(
        "sim.dna_util",
        sum(&|r| r.dna_busy_cycles) / tile_core_cycles,
    );
    put("sim.agg_busy_cycles", sum(&|r| r.agg_busy_cycles));
    put("sim.dnq_fill_words", sum(&|r| r.dnq_fill_words));
    put("sim.dram_bytes", dram);
    put("sim.mem_efficiency", sum(&|r| r.useful_mem_bytes) / dram);
    // Every case runs on the same configuration, so one peak applies.
    put(
        "sim.bw_util",
        dram / latency_s / reports[0].peak_mem_bandwidth,
    );
    put("sim.noc_flit_hops", sum(&|r| r.noc_flit_hops));
    let model = EnergyModel::default();
    let rates = model.rates();
    put("sim.energy_uj", sum(&|r| model.total_pj(r)) / 1e6);
    for class in CostClass::ALL {
        let fj = sum(&|r| rates.charge_fj(class, EnergyModel::class_counts(r)[class.index()]));
        put(&format!("sim.energy.{}_uj", class.as_str()), fj / 1e9);
    }
    let log_speedups: f64 = runs
        .iter()
        .map(|(case, r)| {
            let baseline = gnna_baselines::table7::measured(case.model, case.input)
                .expect("every benchmark pair has a Table VII row");
            gnna_bench::speedup(baseline, r, vs_gpu).ln()
        })
        .sum();
    put(
        "sim.fig8_speedup_gmean",
        (log_speedups / reports.len() as f64).exp(),
    );
}

/// Runs a simulator workload.
///
/// # Errors
///
/// Set-up failures (a case that cannot be built); simulation failures
/// are counted instead.
pub fn run(w: &SimWorkload, opts: &Opts, spans: &mut Spans) -> Result<Measured, BenchError> {
    let mut out = Measured::default();
    spans.enter("setup 0");
    let (mut cases, times, new_s) = setup(w, opts, spans)?;
    spans.exit();
    let mut setup_s = vec![times.total_s() + new_s];

    let attempt = |c: &mut Case, spans: &mut Spans, out: &mut Measured| {
        out.attempted += 1;
        if !run_once(c, &w.config, spans) {
            out.failed += 1;
        }
    };
    spans.enter("measure");
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    for c in &mut cases {
        attempt(c, spans, &mut out);
    }
    // Peak memory of one set-up plus one simulation of every case, read
    // before repetitions add allocator history to it.
    let peak_rss_mb = crate::stats::peak_rss_mb()?;
    if !opts.trace {
        // Cases repeat, in order, while their last run still fits
        // before the deadline. A case that has never completed a run is
        // not repeated.
        while Instant::now() < deadline {
            let mut ran = false;
            for c in &mut cases {
                let left = deadline
                    .saturating_duration_since(Instant::now())
                    .as_secs_f64();
                if !c.run_s.last().is_some_and(|&last| last <= left) {
                    continue;
                }
                attempt(c, spans, &mut out);
                ran = true;
            }
            if !ran {
                break;
            }
        }
    }
    spans.exit();
    if !opts.trace {
        for rep in 1..SETUP_REPS {
            spans.enter(&format!("setup {rep}"));
            let (_, t, new) = setup(w, opts, spans)?;
            spans.exit();
            setup_s.push(t.total_s() + new);
        }
    }

    let medians: Vec<f64> = cases
        .iter()
        .map(|c| crate::stats::median(&c.run_s))
        .collect();
    let runs: Vec<(&BenchCase, &SimReport)> = cases
        .iter()
        .filter_map(|c| c.report.as_ref().map(|r| (&c.case, r)))
        .collect();
    if runs.len() != cases.len() {
        // A case never completed; there is nothing sound to report.
        return Ok(out);
    }
    let run_total: f64 = medians.iter().sum();
    let cycles: u64 = runs.iter().map(|(_, r)| r.total_cycles).sum();
    for c in &cases {
        out.extra.insert(
            format!("run_s.{}", c.name),
            Value::median_of(c.run_s.clone()),
        );
        out.extra
            .insert(format!("mean_rel_err.{}", c.name), Value::once(c.worst_err));
    }

    if !opts.trace {
        let m = &mut out.metrics;
        m.insert("setup_s".into(), Value::median_of(setup_s));
        m.insert("peak_rss_mb".into(), Value::once(peak_rss_mb));
        m.insert("latency_ms".into(), Value::once(run_total * 1e3));
        m.insert("throughput".into(), Value::once(cycles as f64 / run_total));
        let mut hw = BTreeMap::new();
        hardware_metrics(w.vs_gpu, &runs, &mut hw);
        for key in ["sim.cycles", "sim.energy_uj", "sim.fig8_speedup_gmean"] {
            out.extra.insert(key.into(), hw[key].clone());
        }
        return Ok(out);
    }

    // The traced repetition: each case once more with the host profiler
    // attached. Its report must equal the untraced one.
    let profile = TraceOptions::at_level(TraceLevel::Off).with_profile(PROFILE_SAMPLE_EVERY);
    let mut traced_run_ns = 0u64;
    let mut hot_ns = [0u64; HotPhase::COUNT];
    let (mut config_ns, mut barrier_ns) = (0u64, 0u64);
    let mut collapsed = String::new();
    spans.enter("traced");
    for c in &cases {
        out.attempted += 1;
        let (traced, _) = spans.time(&format!("traced {}", c.name), || {
            simulate_traced_opts(&c.case, &w.config, &profile)
        });
        let traced = match traced {
            Ok(t) if Some(&t.report) == c.report.as_ref() => t,
            Ok(_) => {
                eprintln!("gnna-perf: {} profiled report differs", c.name);
                out.failed += 1;
                continue;
            }
            Err(e) => {
                eprintln!("gnna-perf: {} profiled run failed: {e}", c.name);
                out.failed += 1;
                continue;
            }
        };
        let profiler = traced
            .profiler
            .as_ref()
            .expect("profiling was requested")
            .borrow();
        for line in profiler.collapsed().lines() {
            let _ = writeln!(collapsed, "{};{line}", c.name);
        }
        for phase in HotPhase::ALL {
            hot_ns[phase as usize] += profiler.hot_estimate_ns(phase);
        }
        traced_run_ns += traced
            .metrics
            .get_counter("host.profile.total_ns.run")
            .unwrap_or(0);
        for (path, ns) in traced.metrics.counters_with_prefix("host.profile.self_ns.") {
            if path.ends_with(";config") {
                config_ns += ns;
            } else if path.ends_with(";barrier") {
                barrier_ns += ns;
            }
        }
    }
    spans.exit();
    out.collapsed = Some(collapsed);

    let m = &mut out.metrics;
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), Value::once(v));
    };
    put("graph.generate_s", times.generate_s);
    put("models.reference_s", times.reference_s);
    put("core.compile_s", times.compile_s);
    put(
        "core.system_new_pct",
        100.0 * new_s / (times.total_s() + new_s),
    );
    for (model, input) in BENCHMARK_PAIRS {
        let name = case_name(model, input);
        let share = cases
            .iter()
            .zip(&medians)
            .find(|(c, _)| c.name == name)
            .map_or(0.0, |(_, s)| 100.0 * s / run_total);
        put(&format!("core.run_pct.{name}"), share);
    }
    let traced_s = traced_run_ns as f64 / 1e9;
    let pct = |ns: u64| 100.0 * ns as f64 / 1e9 / traced_s;
    for phase in HotPhase::ALL {
        put(
            &format!("host.{}_pct", phase.name()),
            pct(hot_ns[phase as usize]),
        );
    }
    put("host.layer_config_pct", pct(config_ns));
    put("host.layer_barrier_pct", pct(barrier_ns));
    put("trace_overhead", traced_s / run_total - 1.0);
    hardware_metrics(w.vs_gpu, &runs, m);
    Ok(out)
}
