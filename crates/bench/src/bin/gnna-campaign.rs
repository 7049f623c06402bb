//! `gnna-campaign` — parallel fault-injection campaign runner.
//!
//! Sweeps a `rate × seed × benchmark × mode` grid and streams one
//! JSON-lines record per cell to `--out`. Output bytes are identical
//! for any `--threads` value, and an interrupted campaign resumes from
//! the partial file without recomputing finished cells:
//!
//! ```console
//! $ gnna-campaign --smoke --rates 0,0.001,0.01 --seeds 1,2 --threads 4
//! $ gnna-report --campaign campaign.jsonl
//! ```

use gnna_bench::campaign::{self, CampaignSpec, Mode, RateUnit};
use gnna_bench::Scale;
use gnna_core::config::AcceleratorConfig;
use gnna_faults::{CrcDomain, EccDomain};
use gnna_graph::datasets;
use gnna_models::ModelKind;
use std::io::Write as _;
use std::process::ExitCode;

struct Args {
    spec: CampaignSpec,
    threads: usize,
    out: String,
    fresh: bool,
}

const USAGE: &str = "\
usage: gnna-campaign [options]
  --benchmarks M:I[,M:I...]      model:input pairs, e.g. gcn:cora,mpnn:qm9
                                 (default gcn:cora)
  --rates R[,R...]               fault rates to sweep
                                 (default 0,0.0001,0.001,0.01)
  --rate-unit event|fit          unit of --rates: per-event probability
                                 (default) or physical FIT / upsets per
                                 Gbit-hour, converted per-event at the
                                 2.4 GHz master clock
  --acceleration F               multiply physically calibrated rates by
                                 F to observe faults in bounded sim time
                                 (default 1; --rate-unit fit only)
  --seeds S[,S...]               fault-plan seeds (default 1,2)
  --modes M[,M...]               protected|passthrough|degraded|rollback
                                 (default the first three; rollback is
                                 opt-in)
  --domains E:C[,E:C...]         selective protection domains to sweep
                                 as ECC:CRC pairs, ECC in
                                 both|weights|acts and CRC in
                                 all|data|ctrl (default both:all)
  --config cpu-iso-bw|gpu-iso-bw|gpu-iso-flops
                                 Table VI configuration (default gpu-iso-bw)
  --smoke                        scaled-down datasets for a fast sweep
  --double-bit-fraction F        fraction of DRAM faults that are
                                 double-bit (default 0.25)
  --threads N                    worker threads (default 1; output bytes
                                 are identical for every N)
  --out PATH                     JSONL output (default campaign.jsonl);
                                 an existing partial file is resumed
  --fresh                        recompute everything, ignoring any
                                 existing output file
  --version                      print the workspace version
  --help                         this message";

fn default_input(m: ModelKind) -> &'static str {
    match m {
        ModelKind::Gcn | ModelKind::Gat => "Cora",
        ModelKind::Mpnn => "QM9_1000",
        ModelKind::Pgnn => "DBLP_1",
    }
}

fn parse_args() -> Result<Args, String> {
    let mut spec = CampaignSpec::new(AcceleratorConfig::gpu_iso_bandwidth(), Scale::Paper);
    let mut threads = 1usize;
    let mut out = "campaign.jsonl".to_string();
    let mut fresh = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--benchmarks" => {
                let mut pairs = Vec::new();
                for item in value("--benchmarks")?.to_ascii_lowercase().split(',') {
                    let (m, i) = match item.split_once(':') {
                        Some((m, i)) => (ModelKind::parse(m)?, datasets::parse_name(i)?),
                        None => {
                            let m = ModelKind::parse(item)?;
                            (m, default_input(m))
                        }
                    };
                    pairs.push((m, i));
                }
                if pairs.is_empty() {
                    return Err("--benchmarks needs at least one pair".into());
                }
                spec.benchmarks = pairs;
            }
            "--rates" => {
                let mut rates = Vec::new();
                for r in value("--rates")?.split(',') {
                    let r: f64 = r.parse().map_err(|e| format!("bad rate {r}: {e}"))?;
                    if !r.is_finite() || r < 0.0 {
                        return Err(format!("rate {r} must be finite and non-negative"));
                    }
                    rates.push(r);
                }
                spec.rates = rates;
            }
            "--rate-unit" => {
                let s = value("--rate-unit")?.to_ascii_lowercase();
                spec.rate_unit = RateUnit::parse(&s)
                    .ok_or_else(|| format!("unknown rate unit {s} (event|fit)"))?;
            }
            "--acceleration" => {
                let f: f64 = value("--acceleration")?
                    .parse()
                    .map_err(|e| format!("bad acceleration: {e}"))?;
                if !f.is_finite() || f <= 0.0 {
                    return Err("--acceleration must be finite and positive".into());
                }
                spec.acceleration = f;
            }
            "--domains" => {
                let mut domains = Vec::new();
                for item in value("--domains")?.to_ascii_lowercase().split(',') {
                    let (e, c) = item.split_once(':').unwrap_or((item, "all"));
                    let ecc = EccDomain::parse(e)
                        .ok_or_else(|| format!("unknown ECC domain {e} (both|weights|acts)"))?;
                    let crc = CrcDomain::parse(c)
                        .ok_or_else(|| format!("unknown CRC domain {c} (all|data|ctrl)"))?;
                    domains.push((ecc, crc));
                }
                if domains.is_empty() {
                    return Err("--domains needs at least one pair".into());
                }
                spec.domains = domains;
            }
            "--seeds" => {
                let mut seeds = Vec::new();
                for s in value("--seeds")?.split(',') {
                    seeds.push(s.parse().map_err(|e| format!("bad seed {s}: {e}"))?);
                }
                spec.seeds = seeds;
            }
            "--modes" => {
                let mut modes = Vec::new();
                for m in value("--modes")?.to_ascii_lowercase().split(',') {
                    modes.push(Mode::parse(m).ok_or_else(|| {
                        format!("unknown mode {m} (protected|passthrough|degraded|rollback)")
                    })?);
                }
                spec.modes = modes;
            }
            "--config" => spec.config = AcceleratorConfig::by_name(&value("--config")?)?,
            "--smoke" => spec.scale = Scale::Smoke,
            "--double-bit-fraction" => {
                let f: f64 = value("--double-bit-fraction")?
                    .parse()
                    .map_err(|e| format!("bad fraction: {e}"))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err("--double-bit-fraction must be in [0, 1]".into());
                }
                spec.double_bit_fraction = f;
            }
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
                if threads == 0 {
                    threads = 1;
                }
            }
            "--out" => out = value("--out")?,
            "--fresh" => fresh = true,
            "--version" | "-V" => {
                println!("gnna-campaign {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    // Per-event probabilities live in [0, 1]; physical FIT / upset
    // rates are unbounded, so the check waits until the unit is known.
    if spec.rate_unit == RateUnit::PerEvent {
        if let Some(r) = spec.rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
            return Err(format!(
                "rate {r} outside [0, 1] (use --rate-unit fit for physical rates)"
            ));
        }
    }
    Ok(Args {
        spec,
        threads,
        out,
        fresh,
    })
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let cells = args.spec.cells();
    // Resume: keep the complete-line prefix of an existing output file
    // and recompute only the missing tail.
    let mut start_cell = 0usize;
    if !args.fresh {
        if let Ok(existing) = std::fs::read_to_string(&args.out) {
            let (lines, prefix) = campaign::resume_point(&existing);
            campaign::validate_prefix(&existing[..prefix], &cells)?;
            if prefix != existing.len() {
                eprintln!(
                    "gnna-campaign: dropping a partial trailing line in {}",
                    args.out
                );
            }
            std::fs::write(&args.out, &existing[..prefix])?;
            start_cell = lines;
        }
    } else {
        let _ = std::fs::remove_file(&args.out);
    }
    if start_cell >= cells.len() {
        eprintln!(
            "gnna-campaign: {} already holds all {} cells",
            args.out,
            cells.len()
        );
        return Ok(());
    }
    if start_cell > 0 {
        eprintln!(
            "gnna-campaign: resuming {} at cell {start_cell}/{}",
            args.out,
            cells.len()
        );
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.out)?;
    let mut writer = std::io::BufWriter::new(file);
    let mut written = 0usize;
    let ran = campaign::run(&args.spec, args.threads, start_cell, |line| {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        // Flush per record so an interrupted campaign leaves a clean,
        // resumable prefix on disk.
        writer.flush()?;
        written += 1;
        Ok(())
    })?;
    eprintln!(
        "gnna-campaign: wrote {written} of {ran} pending cells ({} total) to {}",
        cells.len(),
        args.out
    );
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
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
