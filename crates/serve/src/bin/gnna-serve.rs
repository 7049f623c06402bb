//! `gnna-serve` — batched multi-tenant GNN inference daemon.
//!
//! ```console
//! $ gnna-serve --smoke --addr 127.0.0.1:7878 &
//! $ curl -s localhost:7878/healthz
//! $ curl -s -d '{"model":"gcn","input":"cora","mode":"cycle"}' localhost:7878/v1/infer
//! $ curl -s localhost:7878/stats
//! $ curl -s -X POST localhost:7878/shutdown
//! ```

use gnna_bench::Scale;
use gnna_core::config::AcceleratorConfig;
use gnna_serve::loadgen::{run_soak, SoakOptions};
use gnna_serve::queue::parse_quota_flag;
use gnna_serve::server::{serve, ServeConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: gnna-serve [options]
  --addr HOST:PORT               bind address (default 127.0.0.1:7878)
  --instances N                  accelerator instances / batch queues
                                 (default 4)
  --max-batch N                  largest coalesced batch (default 16;
                                 1 disables batching)
  --flush-us N                   bounded-latency flush window in
                                 microseconds (default 1000)
  --queue-cap N                  per-instance queue bound; a full queue
                                 answers 429 + Retry-After (default 256)
  --threads N                    shared executor budget for response
                                 assembly (default 1)
  --read-timeout-ms N            per-connection read timeout; an idle
                                 connection is closed after N ms
                                 (default 5000; 0 disables)
  --trace-out PATH               record request/batch spans and write
                                 Chrome trace JSON here on drain
                                 (open in ui.perfetto.dev)
  --tenant-quota [T=]RATE[:BURST[:WEIGHT]]
                                 admission quota: RATE jobs/s with BURST
                                 allowance and DRR WEIGHT for tenant T
                                 (no T= sets the default bucket; RATE 0
                                 = unlimited; repeatable)
  --max-conns N                  live-connection limit; past it new
                                 connections get an immediate 503
                                 (default 0 = unlimited)
  --degrade-watermark N          answer cycle-mode jobs in functional
                                 mode (flagged degraded) when a queue's
                                 backlog is at or past N
                                 (default 0 = off)
  --config cpu-iso-bw|gpu-iso-bw|gpu-iso-flops
                                 Table VI configuration (default gpu-iso-bw)
  --smoke                        scaled-down datasets (CI-speed)
  --soak-secs N                  run the sustained mixed-tenant soak for
                                 N seconds instead of serving
  --soak-out PATH                soak JSON path
                                 (default BENCH_serve_soak.json)
  --soak-light-rate X            light tenant arrival rate, jobs/s
                                 (default 8)
  --soak-flood-rate X            flooding tenant attempted rate, jobs/s
                                 (default 60; its quota stays 20/s)
  --soak-max-fairness X          fail when the light tenant's p99 under
                                 flood exceeds X times its isolated p99
                                 (default 2.0)
  --soak-max-rss-growth X        fail when the late-run RSS ceiling
                                 exceeds X times the early-run ceiling
                                 (default 1.25)
  --version                      print the workspace version
  --help                         this message";

struct Args {
    cfg: ServeConfig,
    soak: Option<SoakOptions>,
    soak_out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        scale: Scale::Paper,
        ..ServeConfig::default()
    };
    let mut soak_secs: Option<u64> = None;
    let mut soak_opts = SoakOptions::default();
    let mut soak_out = "BENCH_serve_soak.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--instances" => {
                cfg.instances = value("--instances")?
                    .parse()
                    .map_err(|e| format!("bad instance count: {e}"))?;
                if cfg.instances == 0 {
                    return Err("--instances must be positive".into());
                }
            }
            "--max-batch" => {
                cfg.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("bad batch size: {e}"))?;
                if cfg.max_batch == 0 {
                    return Err("--max-batch must be positive".into());
                }
            }
            "--flush-us" => {
                let us: u64 = value("--flush-us")?
                    .parse()
                    .map_err(|e| format!("bad flush window: {e}"))?;
                cfg.flush = Duration::from_micros(us);
            }
            "--queue-cap" => {
                cfg.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("bad queue capacity: {e}"))?;
                if cfg.queue_cap == 0 {
                    return Err("--queue-cap must be positive".into());
                }
            }
            "--threads" => {
                cfg.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
            }
            "--read-timeout-ms" => {
                let ms: u64 = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad read timeout: {e}"))?;
                cfg.read_timeout = Duration::from_millis(ms);
            }
            "--trace-out" => cfg.trace_out = Some(value("--trace-out")?),
            "--config" => cfg.accel = AcceleratorConfig::by_name(&value("--config")?)?,
            "--smoke" => cfg.scale = Scale::Smoke,
            "--tenant-quota" => {
                let (tenant, spec) = parse_quota_flag(&value("--tenant-quota")?)?;
                match tenant {
                    Some(t) => cfg.policy.tenants.push((t, spec)),
                    None => cfg.policy.default_spec = spec,
                }
            }
            "--max-conns" => {
                cfg.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("bad connection limit: {e}"))?;
            }
            "--degrade-watermark" => {
                cfg.degrade_watermark = value("--degrade-watermark")?
                    .parse()
                    .map_err(|e| format!("bad degrade watermark: {e}"))?;
            }
            "--soak-secs" => {
                let secs: u64 = value("--soak-secs")?
                    .parse()
                    .map_err(|e| format!("bad soak duration: {e}"))?;
                if secs == 0 {
                    return Err("--soak-secs must be positive".into());
                }
                soak_secs = Some(secs);
            }
            "--soak-out" => soak_out = value("--soak-out")?,
            "--soak-light-rate" => {
                soak_opts.light_rate = value("--soak-light-rate")?
                    .parse()
                    .map_err(|e| format!("bad light rate: {e}"))?;
            }
            "--soak-flood-rate" => {
                soak_opts.flood_rate = value("--soak-flood-rate")?
                    .parse()
                    .map_err(|e| format!("bad flood rate: {e}"))?;
            }
            "--soak-max-fairness" => {
                soak_opts.max_fairness = value("--soak-max-fairness")?
                    .parse()
                    .map_err(|e| format!("bad fairness bound: {e}"))?;
            }
            "--soak-max-rss-growth" => {
                soak_opts.max_rss_growth = value("--soak-max-rss-growth")?
                    .parse()
                    .map_err(|e| format!("bad rss growth bound: {e}"))?;
            }
            "--version" | "-V" => {
                println!("gnna-serve {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let soak = soak_secs.map(|secs| SoakOptions {
        secs,
        accel: cfg.accel.clone(),
        scale: cfg.scale,
        ..soak_opts
    });
    Ok(Args {
        cfg,
        soak,
        soak_out,
    })
}

fn run(args: Args) -> Result<(), String> {
    if let Some(opts) = &args.soak {
        eprintln!(
            "gnna-serve: soak — {} s mixed-tenant (light {}/s + flood {}/s under a {}/s quota)",
            opts.secs, opts.light_rate, opts.flood_rate, opts.flood_quota
        );
        let doc = run_soak(opts)?;
        std::fs::write(&args.soak_out, format!("{doc}\n")).map_err(|e| e.to_string())?;
        eprintln!("gnna-serve: wrote {}", args.soak_out);
        println!("{doc}");
        return Ok(());
    }
    let handle = serve(args.cfg.clone()).map_err(|e| e.to_string())?;
    eprintln!(
        "gnna-serve: listening on {} — {} instances, max batch {}, flush {:?}, queue cap {} \
         (POST /shutdown to stop)",
        handle.addr(),
        args.cfg.instances,
        args.cfg.max_batch,
        args.cfg.flush,
        args.cfg.queue_cap
    );
    handle.join();
    eprintln!("gnna-serve: drained, bye");
    Ok(())
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
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
