//! `gnna-report` — turn `gnna-sim --metrics-out`/`--trace-out` dumps into
//! a bottleneck report.
//!
//! ```console
//! $ gnna-sim --model gcn --smoke --metrics-out m.json --trace-out t.json
//! $ gnna-report --metrics m.json --trace t.json
//! $ gnna-report --metrics m.json --format csv --out report.csv
//! ```
//!
//! The markdown report carries per-module utilisation, a per-tile
//! stall-cause breakdown, the hottest mesh links as a heat-map, and
//! packet-latency quantiles (paper Fig. 9/10 style).

use gnna_bench::report::{
    parse_campaign_jsonl, parse_trace_json, BottleneckReport, CampaignReport, DiffReport,
    MetricsSnapshot,
};
use std::process::ExitCode;

struct Args {
    metrics: Option<String>,
    diff: Option<(String, String)>,
    trace: Option<String>,
    campaign: Option<String>,
    out: Option<String>,
    format: Format,
    top_k: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Markdown,
    Csv,
    Auto,
}

const USAGE: &str = "\
usage: gnna-report --metrics FILE [options]
       gnna-report --diff A B [options]
       gnna-report --campaign FILE [options]
  --metrics FILE    metrics dump from `gnna-sim --metrics-out`
                    (.json or .csv, auto-detected)
  --diff A B        differential mode: compare two metrics dumps and
                    render cycle/stall/link/energy deltas (B - A)
  --trace FILE      optional Chrome trace from `gnna-sim --trace-out`;
                    adds a trace-inventory section (single-run mode only)
  --campaign FILE   JSONL sweep from `gnna-campaign`; renders the
                    `## Fault campaigns` section (accuracy vs rate,
                    degraded-mode slowdown, SDC rate per site), either
                    standalone or appended to a --metrics report
  --out FILE        write the report here instead of stdout
  --format md|csv   output format (default: md, or by --out extension)
  --top-k N         rows in the hottest-links/spans/deltas tables
                    (default 8)
  --version         print the workspace version
  --help            this message";

fn parse_args() -> Result<Args, String> {
    let mut metrics = None;
    let mut diff = None;
    let mut trace = None;
    let mut campaign = None;
    let mut out = None;
    let mut format = Format::Auto;
    let mut top_k = 8usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--metrics" => metrics = Some(value("--metrics")?),
            "--diff" => diff = Some((value("--diff")?, value("--diff")?)),
            "--trace" => trace = Some(value("--trace")?),
            "--campaign" => campaign = Some(value("--campaign")?),
            "--out" => out = Some(value("--out")?),
            "--format" => {
                format = match value("--format")?.as_str() {
                    "md" | "markdown" => Format::Markdown,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format {other} (md|csv)")),
                }
            }
            "--top-k" => {
                top_k = value("--top-k")?
                    .parse()
                    .map_err(|e| format!("bad --top-k: {e}"))?
            }
            "--version" | "-V" => {
                println!("gnna-report {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if metrics.is_none() && diff.is_none() && campaign.is_none() {
        return Err("one of --metrics, --diff, or --campaign is required".to_string());
    }
    if metrics.is_some() && diff.is_some() {
        return Err("--metrics and --diff are mutually exclusive".to_string());
    }
    if campaign.is_some() && diff.is_some() {
        return Err("--campaign and --diff are mutually exclusive".to_string());
    }
    Ok(Args {
        metrics,
        diff,
        trace,
        campaign,
        out,
        format,
        top_k,
    })
}

/// Read and parse one metrics dump, or exit with a readable error.
fn load_snapshot(path: &str) -> Result<MetricsSnapshot, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read metrics {path}: {e}"))?;
    MetricsSnapshot::parse(&text).map_err(|e| format!("cannot parse metrics {path}: {e}"))
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
    let format = match args.format {
        Format::Auto => match &args.out {
            Some(p) if p.ends_with(".csv") => Format::Csv,
            _ => Format::Markdown,
        },
        f => f,
    };

    // Differential mode: compare two dumps, render deltas, done.
    if let Some((path_a, path_b)) = &args.diff {
        let (a, b) = match (load_snapshot(path_a), load_snapshot(path_b)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let diff = DiffReport::build(&a, &b, path_a, path_b);
        let body = match format {
            Format::Csv => diff.to_csv(),
            _ => diff.to_markdown(args.top_k),
        };
        return match &args.out {
            None => {
                print!("{body}");
                ExitCode::SUCCESS
            }
            Some(path) => {
                if let Err(e) = std::fs::write(path, &body) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "diff report: {path} ({} system rows, {} stall causes, \
                     {} links, {} energy rows{})",
                    diff.system.len(),
                    diff.stalls.len(),
                    diff.links.len(),
                    diff.energy.len(),
                    if diff.is_zero() { ", identical" } else { "" }
                );
                ExitCode::SUCCESS
            }
        };
    }

    // Campaign section: parsed up front so bad files fail before any
    // output is produced; rendered standalone or appended to --metrics.
    // An empty or whitespace-only file parses to zero records — that is
    // a truncated or never-started sweep, not a report, so it fails
    // here instead of rendering an empty section.
    let campaign = match &args.campaign {
        None => None,
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read campaign {path}: {e}"))
            .and_then(|t| {
                parse_campaign_jsonl(&t).map_err(|e| format!("cannot parse campaign {path}: {e}"))
            })
            .and_then(|records| {
                if records.is_empty() {
                    Err(format!(
                        "campaign {path} holds no records (empty or truncated sweep); \
                         re-run gnna-campaign or pass its --out file"
                    ))
                } else {
                    Ok(records)
                }
            }) {
            Ok(records) => Some(CampaignReport::build(records)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // Campaign-only mode: the section is the whole report.
    let Some(metrics_path) = args.metrics.as_deref() else {
        let campaign = campaign.expect("checked in parse_args");
        let body = match format {
            Format::Csv => campaign.to_csv(),
            _ => campaign.to_markdown(),
        };
        return match &args.out {
            None => {
                print!("{body}");
                ExitCode::SUCCESS
            }
            Some(path) => {
                if let Err(e) = std::fs::write(path, &body) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "campaign report: {path} ({} cells, {} accuracy rows)",
                    campaign.records.len(),
                    campaign.accuracy.len()
                );
                ExitCode::SUCCESS
            }
        };
    };
    let snap = match load_snapshot(metrics_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match &args.trace {
        None => None,
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(t) => match parse_trace_json(&t) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("error: cannot parse trace {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: cannot read trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let report = BottleneckReport::build(&snap, trace);
    let mut body = match format {
        Format::Csv => report.to_csv(),
        _ => report.to_markdown(args.top_k),
    };
    if let Some(campaign) = &campaign {
        body.push('\n');
        body.push_str(&match format {
            Format::Csv => campaign.to_csv(),
            _ => campaign.to_markdown(),
        });
    }
    match &args.out {
        None => print!("{body}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, &body) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "report: {path} ({} tiles, {} links, {} stall causes)",
                report.tiles.len(),
                report.links.rows.len(),
                report.stalls.rows.len()
            );
        }
    }
    ExitCode::SUCCESS
}
