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
    parse_campaign_jsonl, parse_trace_json, BottleneckReport, CampaignRecord, CampaignReport,
    DiffReport, MetricsSnapshot, Report, TraceSummary,
};
use gnna_core::stats::TILE_KEYS;
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
    if trace.is_some() && metrics.is_none() {
        return Err("--trace needs --metrics (single-run mode)".to_string());
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

/// Read and parse one metrics dump.
fn load_snapshot(path: &str) -> Result<MetricsSnapshot, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read metrics {path}: {e}"))?;
    MetricsSnapshot::parse(&text).map_err(|e| format!("cannot parse metrics {path}: {e}"))
}

/// Read and parse one Chrome trace.
fn load_trace(path: &str) -> Result<TraceSummary, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    parse_trace_json(&text).map_err(|e| format!("cannot parse trace {path}: {e}"))
}

/// Read and parse one campaign sweep. An empty or whitespace-only file
/// parses to zero records — that is a truncated or never-started sweep,
/// not a report, so it fails here instead of rendering an empty section.
fn load_campaign(path: &str) -> Result<Vec<CampaignRecord>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read campaign {path}: {e}"))?;
    let records =
        parse_campaign_jsonl(&text).map_err(|e| format!("cannot parse campaign {path}: {e}"))?;
    if records.is_empty() {
        return Err(format!(
            "campaign {path} holds no records (empty or truncated sweep); \
             re-run gnna-campaign or pass its --out file"
        ));
    }
    Ok(records)
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

/// Builds the report `args` ask for, then prints it, or writes it to
/// `--out` and prints the mode's one summary line.
fn run(args: &Args) -> Result<(), String> {
    let csv = match args.format {
        Format::Csv => true,
        Format::Markdown => false,
        Format::Auto => args.out.as_deref().is_some_and(|p| p.ends_with(".csv")),
    };
    let render = |r: &Report| if csv { r.to_csv() } else { r.to_markdown() };
    let path = args.out.as_deref().unwrap_or_default();
    // The campaign is parsed before any metrics, so a bad sweep fails
    // first; it renders standalone or appended to the --metrics report.
    let campaign = args.campaign.as_deref().map(load_campaign).transpose()?;
    let (body, summary) = match (&args.diff, &args.metrics, campaign) {
        (Some((path_a, path_b)), _, _) => {
            let (a, b) = (load_snapshot(path_a)?, load_snapshot(path_b)?);
            let diff = DiffReport::build(&a, &b, path_a, path_b, args.top_k);
            let identical = diff.section("identical").map_or("", |_| ", identical");
            let summary = format!(
                "diff report: {path} ({} system rows, {} stall causes, {} links, \
                 {} energy rows{identical})",
                diff.csv_rows("system"),
                diff.csv_rows("stalls"),
                diff.csv_rows("noc.link"),
                diff.csv_rows("energy"),
            );
            (render(&diff), summary)
        }
        (None, Some(metrics), campaign) => {
            let snap = load_snapshot(metrics)?;
            let trace = args.trace.as_deref().map(load_trace).transpose()?;
            let report = BottleneckReport::build(&snap, trace, args.top_k);
            let tiles = (0..).map_while(|i| report.section(&TILE_KEYS.scope(i)));
            let summary = format!(
                "report: {path} ({} tiles, {} links, {} stall causes)",
                tiles.count(),
                report.csv_rows("noc.link"),
                report.csv_rows("stalls"),
            );
            let mut body = render(&report);
            if let Some(records) = campaign {
                body.push('\n');
                body.push_str(&render(&CampaignReport::build(&records)));
            }
            (body, summary)
        }
        (None, None, campaign) => {
            let records = campaign.expect("checked in parse_args");
            let report = CampaignReport::build(&records);
            let summary = format!(
                "campaign report: {path} ({} cells, {} accuracy rows)",
                records.len(),
                report.csv_rows("accuracy")
            );
            (render(&report), summary)
        }
    };
    match &args.out {
        None => print!("{body}"),
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("{summary}");
        }
    }
    Ok(())
}
