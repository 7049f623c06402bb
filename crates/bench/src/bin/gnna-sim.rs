//! `gnna-sim` — simulate one benchmark/configuration pair from the
//! command line.
//!
//! ```console
//! $ gnna-sim --model gcn --input cora --config gpu-iso-bw --clock 2.4
//! $ gnna-sim --model mpnn --input qm9_1000 --smoke --energy --layers
//! ```
//!
//! Prints the simulation report, the Fig-8-style speedups against the
//! measured Table VII baselines, and optionally a per-layer timing
//! breakdown and an energy estimate.

use gnna_bench::{build_case, simulate_traced_opts, Scale, TraceOptions};
use gnna_core::config::AcceleratorConfig;
use gnna_core::energy::EnergyModel;
use gnna_faults::{CrcDomain, EccDomain, FaultPlan, PhysicalRates, RecoveryMode};
use gnna_graph::datasets;
use gnna_models::ModelKind;
use gnna_telemetry::{Metric, MetricsRegistry, TraceLevel};
use std::cell::RefCell;
use std::process::ExitCode;

struct Args {
    model: ModelKind,
    input: &'static str,
    config: AcceleratorConfig,
    clock_ghz: f64,
    threads: Option<usize>,
    flit_bytes: Option<usize>,
    scale: Scale,
    show_layers: bool,
    show_energy: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    trace_level: Option<TraceLevel>,
    fault_seed: Option<u64>,
    fault_rate: Option<f64>,
    fault_fit: Option<f64>,
    fault_acceleration: f64,
    fault_recovery: Option<RecoveryMode>,
    ecc_domain: Option<EccDomain>,
    crc_domain: Option<CrcDomain>,
    checkpoint_interval: Option<u64>,
    rollback_budget: Option<u64>,
    mem_retry_budget: Option<u32>,
    stall_window: Option<u64>,
    profile_out: Option<String>,
    profile_json: Option<String>,
    profile_sample_every: Option<u64>,
}

const USAGE: &str = "\
usage: gnna-sim [options]
  --model  gcn|gat|mpnn|pgnn     benchmark model (default gcn)
  --input  cora|citeseer|pubmed|qm9_1000|dblp_1
                                 input dataset (default: the model's
                                 Table VII pairing)
  --config cpu-iso-bw|gpu-iso-bw|gpu-iso-flops
                                 Table VI configuration (default cpu-iso-bw)
  --clock  GHZ                   core clock in GHz: 0.6, 1.2 or 2.4
                                 (default 2.4)
  --threads N                    GPE software threads (default 16)
  --flit-bytes N                 NoC flit / crossbar width in bytes
                                 (default 64; energy A/B ablation knob)
  --smoke                        scaled-down dataset for a fast run
  --layers                       print the per-layer timing breakdown
  --energy                       print the energy estimate
  --trace-out PATH               write a Chrome/Perfetto trace JSON
                                 (load at ui.perfetto.dev)
  --metrics-out PATH             write module counters (.json or .csv)
  --trace-level off|phase|event  trace detail (default: event when
                                 --trace-out is given, off otherwise)
  --fault-rate P                 per-event transient-fault probability at
                                 every protected site (0 disables; runs
                                 with 0 are bit-identical to no flag)
  --fault-seed N                 fault-injection RNG seed (default 1;
                                 identical seeds replay identical faults)
  --fault-fit F                  physically calibrated fault rate: F is
                                 read as both a link FIT and a DRAM
                                 upsets/Gbit-hour rate and converted to
                                 per-event probabilities at the 2.4 GHz
                                 master clock (alternative to
                                 --fault-rate)
  --fault-acceleration F         multiply --fault-fit rates by F so
                                 faults are observable in bounded sim
                                 time (default 1)
  --fault-recovery retry|passthrough|rollback
                                 what to do when a protection budget is
                                 exhausted (default retry; rollback
                                 snapshots layer-boundary checkpoints
                                 and replays)
  --ecc-domain both|weights|acts DRAM region SECDED protects; faults
                                 outside it are silent corruption
                                 (default both)
  --crc-domain all|data|ctrl     flit traffic link CRC protects; faults
                                 outside it are silent corruption
                                 (default all)
  --checkpoint-interval N        layers between checkpoints under
                                 rollback recovery (default 1)
  --rollback-budget N            rollbacks allowed before the fault
                                 degrades to an error (default 8)
  --mem-retry-budget N           DRAM double-bit re-reads allowed per
                                 error (default unlimited)
  --stall-window N               master cycles without progress before
                                 the watchdog reports a stall
                                 (default 2000000)
  --profile-out PATH             write a collapsed-stack host profile
                                 (flamegraph.pl / inferno input)
  --profile-json PATH            write the host.profile.* metrics as JSON
                                 (the BENCH_profile_baseline.json format)
  --profile-sample-every N       time one cycle in N inside the cycle
                                 loop (default 64; implies profiling)
  --version                      print the workspace version
  --help                         this message";

fn parse_args() -> Result<Args, String> {
    let mut model = ModelKind::Gcn;
    let mut input: Option<&'static str> = None;
    let mut config = AcceleratorConfig::cpu_iso_bandwidth();
    let mut clock_ghz = 2.4;
    let mut threads = None;
    let mut flit_bytes = None;
    let mut scale = Scale::Paper;
    let mut show_layers = false;
    let mut show_energy = false;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut trace_level = None;
    let mut fault_seed = None;
    let mut fault_rate = None;
    let mut fault_fit = None;
    let mut fault_acceleration = 1.0f64;
    let mut fault_recovery = None;
    let mut ecc_domain = None;
    let mut crc_domain = None;
    let mut checkpoint_interval = None;
    let mut rollback_budget = None;
    let mut mem_retry_budget = None;
    let mut stall_window = None;
    let mut profile_out = None;
    let mut profile_json = None;
    let mut profile_sample_every = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--model" => model = ModelKind::parse(&value("--model")?)?,
            "--input" => input = Some(datasets::parse_name(&value("--input")?)?),
            "--config" => config = AcceleratorConfig::by_name(&value("--config")?)?,
            "--clock" => {
                clock_ghz = value("--clock")?
                    .parse()
                    .map_err(|e| format!("bad clock: {e}"))?
            }
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                )
            }
            "--flit-bytes" => {
                let n: usize = value("--flit-bytes")?
                    .parse()
                    .map_err(|e| format!("bad flit width: {e}"))?;
                if n == 0 {
                    return Err("--flit-bytes must be positive".to_string());
                }
                flit_bytes = Some(n);
            }
            "--smoke" => scale = Scale::Smoke,
            "--layers" => show_layers = true,
            "--energy" => show_energy = true,
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "--trace-level" => {
                let s = value("--trace-level")?;
                trace_level = Some(
                    TraceLevel::parse(&s)
                        .ok_or_else(|| format!("unknown trace level {s} (off|phase|event)"))?,
                );
            }
            "--fault-rate" => {
                let r: f64 = value("--fault-rate")?
                    .parse()
                    .map_err(|e| format!("bad fault rate: {e}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err("--fault-rate must be in [0, 1]".to_string());
                }
                fault_rate = Some(r);
            }
            "--fault-seed" => {
                fault_seed = Some(
                    value("--fault-seed")?
                        .parse()
                        .map_err(|e| format!("bad fault seed: {e}"))?,
                )
            }
            "--fault-fit" => {
                let f: f64 = value("--fault-fit")?
                    .parse()
                    .map_err(|e| format!("bad FIT rate: {e}"))?;
                if !f.is_finite() || f < 0.0 {
                    return Err("--fault-fit must be finite and non-negative".to_string());
                }
                fault_fit = Some(f);
            }
            "--fault-acceleration" => {
                let f: f64 = value("--fault-acceleration")?
                    .parse()
                    .map_err(|e| format!("bad acceleration: {e}"))?;
                if !f.is_finite() || f <= 0.0 {
                    return Err("--fault-acceleration must be finite and positive".to_string());
                }
                fault_acceleration = f;
            }
            "--fault-recovery" => {
                let s = value("--fault-recovery")?.to_ascii_lowercase();
                fault_recovery = Some(RecoveryMode::parse(&s).ok_or_else(|| {
                    format!("unknown recovery mode {s} (retry|passthrough|rollback)")
                })?);
            }
            "--ecc-domain" => {
                let s = value("--ecc-domain")?.to_ascii_lowercase();
                ecc_domain = Some(
                    EccDomain::parse(&s)
                        .ok_or_else(|| format!("unknown ECC domain {s} (both|weights|acts)"))?,
                );
            }
            "--crc-domain" => {
                let s = value("--crc-domain")?.to_ascii_lowercase();
                crc_domain = Some(
                    CrcDomain::parse(&s)
                        .ok_or_else(|| format!("unknown CRC domain {s} (all|data|ctrl)"))?,
                );
            }
            "--checkpoint-interval" => {
                let n: u64 = value("--checkpoint-interval")?
                    .parse()
                    .map_err(|e| format!("bad checkpoint interval: {e}"))?;
                if n == 0 {
                    return Err("--checkpoint-interval must be positive".to_string());
                }
                checkpoint_interval = Some(n);
            }
            "--rollback-budget" => {
                rollback_budget = Some(
                    value("--rollback-budget")?
                        .parse()
                        .map_err(|e| format!("bad rollback budget: {e}"))?,
                )
            }
            "--mem-retry-budget" => {
                mem_retry_budget = Some(
                    value("--mem-retry-budget")?
                        .parse()
                        .map_err(|e| format!("bad re-read budget: {e}"))?,
                )
            }
            "--stall-window" => {
                let w: u64 = value("--stall-window")?
                    .parse()
                    .map_err(|e| format!("bad stall window: {e}"))?;
                if w == 0 {
                    return Err("--stall-window must be positive".to_string());
                }
                stall_window = Some(w);
            }
            "--profile-out" => profile_out = Some(value("--profile-out")?),
            "--profile-json" => profile_json = Some(value("--profile-json")?),
            "--profile-sample-every" => {
                let n: u64 = value("--profile-sample-every")?
                    .parse()
                    .map_err(|e| format!("bad sampling period: {e}"))?;
                if n == 0 {
                    return Err("--profile-sample-every must be positive".to_string());
                }
                profile_sample_every = Some(n);
            }
            "--version" | "-V" => {
                println!("gnna-sim {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let input = input.unwrap_or(match model {
        ModelKind::Gcn | ModelKind::Gat => "Cora",
        ModelKind::Mpnn => "QM9_1000",
        ModelKind::Pgnn => "DBLP_1",
    });
    Ok(Args {
        model,
        input,
        config,
        clock_ghz,
        threads,
        flit_bytes,
        scale,
        show_layers,
        show_energy,
        trace_out,
        metrics_out,
        trace_level,
        fault_seed,
        fault_rate,
        fault_fit,
        fault_acceleration,
        fault_recovery,
        ecc_domain,
        crc_domain,
        checkpoint_interval,
        rollback_budget,
        mem_retry_budget,
        stall_window,
        profile_out,
        profile_json,
        profile_sample_every,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };
    let case = match build_case(args.model, args.input, args.scale) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot build {} on {}: {e}", args.model, args.input);
            return ExitCode::FAILURE;
        }
    };
    let mut config = args.config.with_core_clock(args.clock_ghz * 1e9);
    if let Some(t) = args.threads {
        config.gpe_threads = t;
    }
    if let Some(n) = args.flit_bytes {
        config = config.with_flit_bytes(n);
    }
    if let Some(w) = args.stall_window {
        config = config.with_stall_window(w);
    }
    // A fault plan is built only when a nonzero rate is requested, so a
    // plain run (or `--fault-rate 0`) stays bit-identical to the
    // pre-fault-subsystem simulator. `--fault-fit` is the physically
    // calibrated alternative; the protection knobs below only bite when
    // one of the two rates built a plan.
    let seed = args.fault_seed.unwrap_or(1);
    let mut fault_plan = match (
        args.fault_rate.filter(|&r| r > 0.0),
        args.fault_fit.filter(|&f| f > 0.0),
    ) {
        (Some(r), _) => Some(FaultPlan::new(seed).with_rate(r)),
        (None, Some(fit)) => Some(FaultPlan::from_physical(
            seed,
            &PhysicalRates {
                dram_upsets_per_gbit_hour: fit,
                link_fit: fit,
                acceleration: args.fault_acceleration,
                ..PhysicalRates::default()
            },
        )),
        (None, None) => None,
    };
    if let Some(mut plan) = fault_plan.take() {
        if let Some(mode) = args.fault_recovery {
            plan = plan.with_recovery(mode);
        }
        if let Some(d) = args.ecc_domain {
            plan = plan.with_ecc_domain(d);
        }
        if let Some(d) = args.crc_domain {
            plan = plan.with_crc_domain(d);
        }
        if let Some(n) = args.checkpoint_interval {
            plan = plan.with_checkpoint_interval(n);
        }
        if let Some(n) = args.rollback_budget {
            plan = plan.with_rollback_budget(n);
        }
        if let Some(n) = args.mem_retry_budget {
            plan = plan.with_mem_retry_budget(n);
        }
        println!(
            "fault injection: mem rate {} noc rate {} seed {} recovery {} \
             (SECDED mem [{}], CRC+retransmit noc [{}], DNA bubbles)",
            plan.mem_rate,
            plan.noc_rate,
            plan.seed,
            plan.recovery,
            plan.ecc_domain,
            plan.crc_domain
        );
        fault_plan = Some(plan);
    }
    println!(
        "{} on {} ({} vertices, {} MMACs), {} @ {:.1} GHz, {} GPE threads",
        args.model,
        args.input,
        case.dataset.total_nodes(),
        case.macs / 1_000_000,
        config.name,
        args.clock_ghz,
        config.gpe_threads
    );
    // Tracing is wanted when an output path is given or a level above
    // `off` is requested explicitly; `--trace-level off` attaches no
    // tracer (bit-identical to running without any trace flags, and
    // `--trace-out` then writes nothing).
    let level = args.trace_level.unwrap_or({
        if args.trace_out.is_some() || args.metrics_out.is_some() {
            TraceLevel::Event
        } else {
            TraceLevel::Off
        }
    });
    // Host profiling is wanted when any --profile-* flag is present.
    let profile_sample_every = if args.profile_out.is_some() || args.profile_json.is_some() {
        Some(
            args.profile_sample_every
                .unwrap_or(gnna_telemetry::profile::DEFAULT_SAMPLE_EVERY),
        )
    } else {
        args.profile_sample_every
    };
    let opts = TraceOptions {
        level,
        fault_plan,
        profile_sample_every,
    };
    let wall = std::time::Instant::now();
    let run = match simulate_traced_opts(&case, &config, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(tracer)) = (&args.trace_out, &run.tracer) {
        let tracer = tracer.borrow();
        if let Err(e) = std::fs::write(path, tracer.to_chrome_json_string()) {
            eprintln!("error: cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace: {} ({} events, {} tracks) — load at ui.perfetto.dev",
            path,
            tracer.event_count(),
            tracer.track_count()
        );
    }
    if let Some(path) = &args.metrics_out {
        let body = if path.ends_with(".csv") {
            run.metrics.to_csv_string()
        } else {
            run.metrics.to_json_string()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write metrics {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics: {} ({} series)", path, run.metrics.len());
    }
    if let Some(prof) = run.profiler.map(RefCell::into_inner) {
        if let Some(path) = &args.profile_out {
            if let Err(e) = std::fs::write(path, prof.collapsed()) {
                eprintln!("error: cannot write profile {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("host profile: {path} (collapsed stacks — feed to flamegraph tooling)");
        }
        if let Some(path) = &args.profile_json {
            let mut sub = MetricsRegistry::new();
            for (name, m) in run.metrics.iter() {
                if gnna_telemetry::profile::PROFILE_KEYS.id(name).is_some() {
                    match m {
                        Metric::Counter(v) => sub.counter_set(name, *v),
                        Metric::Gauge(v) => sub.gauge_set(name, *v),
                        Metric::Histogram(h) => sub.histogram_set(name, *h),
                    }
                }
            }
            if let Err(e) = std::fs::write(path, sub.to_json_string()) {
                eprintln!("error: cannot write profile metrics {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("host profile metrics: {path} ({} series)", sub.len());
        }
        println!(
            "host profile: {:.0} cycles/sec (sampled 1 in {})",
            prof.cycles_per_sec(),
            prof.sample_every()
        );
    }
    let report = run.report;
    println!("{report}");
    println!("(simulated in {:.1?})", wall.elapsed());
    if args.scale == Scale::Paper {
        if let Some(m) = gnna_baselines::table7::measured(args.model, args.input) {
            println!(
                "speedup vs measured baselines: {:.2}x CPU, {:.2}x GPU",
                m.cpu_s / report.latency_s(),
                m.gpu_s / report.latency_s()
            );
        }
    }
    if args.show_layers {
        println!("\nper-layer timing:");
        for l in &report.layers {
            println!(
                "  {:<18} {:>12} cycles ({:>8} config)  {:.3} ms",
                l.name,
                l.cycles,
                l.config_cycles,
                l.cycles as f64 / report.noc_clock_hz * 1e3
            );
        }
    }
    if args.show_energy {
        let e = EnergyModel::default().estimate(&report);
        println!("\nenergy: {e}");
        println!("mean power: {:.2} W", e.mean_power_w(report.latency_s()));
    }
    ExitCode::SUCCESS
}
