//! Command-line conformance for the bench binaries.
//!
//! Every binary in the workspace answers `--help` and `--version` with
//! exit code 0 — `--help` prints the usage text to stderr, `--version`
//! prints `<bin> <workspace version>` to stdout — and `gnna-report`
//! fails with a structured error (not a panic, an abort or an empty
//! section) on an empty, truncated or too deeply nested sweep file or
//! metrics dump. `gnna-sim` refuses a clock that is not finite and
//! positive with a structured error.

use gnna_bench::report::{
    parse_campaign_jsonl, parse_trace_json, BottleneckReport, CampaignReport, DiffReport,
    MetricsSnapshot,
};
use gnna_bench::{build_case, simulate_traced_opts, Scale, TraceOptions};
use gnna_core::config::AcceleratorConfig;
use gnna_models::ModelKind;
use gnna_telemetry::TraceLevel;
use std::path::{Path, PathBuf};
use std::process::Command;

const VERSION: &str = env!("CARGO_PKG_VERSION");

fn bins() -> [(&'static str, &'static str); 3] {
    [
        ("gnna-sim", env!("CARGO_BIN_EXE_gnna-sim")),
        ("gnna-report", env!("CARGO_BIN_EXE_gnna-report")),
        ("gnna-campaign", env!("CARGO_BIN_EXE_gnna-campaign")),
    ]
}

fn run(exe: &str, args: &[&str]) -> std::process::Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"))
}

#[test]
fn help_exits_zero_and_prints_usage() {
    for (name, exe) in bins() {
        for flag in ["--help", "-h"] {
            let out = run(exe, &[flag]);
            assert!(out.status.success(), "{name} {flag} exited nonzero");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains(&format!("usage: {name}")),
                "{name} {flag} usage text missing: {err}"
            );
        }
    }
}

#[test]
fn version_exits_zero_and_prints_the_workspace_version() {
    for (name, exe) in bins() {
        for flag in ["--version", "-V"] {
            let out = run(exe, &[flag]);
            assert!(out.status.success(), "{name} {flag} exited nonzero");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(stdout, format!("{name} {VERSION}\n"), "{name} {flag}");
        }
    }
}

#[test]
fn unknown_options_exit_nonzero_with_usage() {
    for (name, exe) in bins() {
        let out = run(exe, &["--no-such-flag"]);
        assert!(!out.status.success(), "{name} accepted an unknown flag");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown option --no-such-flag"),
            "{name}: {err}"
        );
        assert!(err.contains(&format!("usage: {name}")), "{name}: {err}");
    }
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gnna-cli-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn report_rejects_an_empty_campaign_file_with_a_structured_error() {
    let path = temp_path("empty-campaign");
    std::fs::write(&path, "\n\n").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_gnna-report"),
        &["--campaign", path.to_str().unwrap()],
    );
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success(), "empty campaign file was accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "unstructured failure: {err}");
    assert!(err.contains("holds no records"), "wrong message: {err}");
    assert!(
        out.stdout.is_empty(),
        "empty campaign still produced output"
    );
}

#[test]
fn report_rejects_truncated_and_nested_files_with_a_structured_error() {
    // 200 000 unclosed arrays must fail with a message, not overflow
    // the JSON parser's stack (exit 134).
    let nested = format!("{{\"a\":{}", "[".repeat(200_000));
    let cases = [
        // A write cut off mid-record: the opening half of a JSON object.
        (
            "--campaign",
            "{\"cell\":0,\"model\":\"GCN\",\"ra".to_string(),
            &["cannot parse campaign", "line 1"][..],
        ),
        (
            "--campaign",
            nested.clone(),
            &["cannot parse campaign", "line 1", "nesting deeper than"],
        ),
        (
            "--metrics",
            nested,
            &["cannot parse metrics", "nesting deeper than"],
        ),
    ];
    for (i, (flag, text, needles)) in cases.into_iter().enumerate() {
        let path = temp_path(&format!("bad-input-{i}"));
        std::fs::write(&path, text).unwrap();
        let out = run(
            env!("CARGO_BIN_EXE_gnna-report"),
            &[flag, path.to_str().unwrap()],
        );
        std::fs::remove_file(&path).ok();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "case {i}: {err}");
        assert!(
            err.starts_with("error:"),
            "case {i}: unstructured failure: {err}"
        );
        for needle in needles {
            assert!(err.contains(needle), "case {i}: no {needle:?} in: {err}");
        }
        assert!(
            out.stdout.is_empty(),
            "case {i}: bad input still produced output"
        );
    }
}

#[test]
fn report_rejects_a_missing_campaign_file_with_a_structured_error() {
    let path = temp_path("no-such-campaign");
    std::fs::remove_file(&path).ok();
    let out = run(
        env!("CARGO_BIN_EXE_gnna-report"),
        &["--campaign", path.to_str().unwrap()],
    );
    assert!(!out.status.success(), "missing campaign file was accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read campaign"), "wrong message: {err}");
}

#[test]
fn sim_rejects_non_finite_and_zero_clocks() {
    for clock in ["nan", "0"] {
        let out = run(
            env!("CARGO_BIN_EXE_gnna-sim"),
            &[
                "--model", "gcn", "--input", "cora", "--smoke", "--clock", clock,
            ],
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--clock {clock}: {err}");
        assert!(
            err.contains("invalid accelerator config"),
            "--clock {clock}: {err}"
        );
        assert!(!err.contains("panicked"), "--clock {clock}: {err}");
    }
}

/// A per-test scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gnna-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// Path of `name` inside the directory, as a string argument.
    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Writes `{name}.json` and `{name}.trace.json`, the metrics dump and
/// Chrome trace of an event-traced smoke GCN:Cora run on `cfg`, as
/// `gnna-sim --metrics-out --trace-out` does; returns the parsed dump,
/// the dump's path and the trace.
fn write_run(
    dir: &Scratch,
    name: &str,
    cfg: &AcceleratorConfig,
) -> (MetricsSnapshot, String, String) {
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let run = simulate_traced_opts(&case, cfg, &TraceOptions::at_level(TraceLevel::Event)).unwrap();
    let metrics = run.metrics.to_json_string();
    let trace = run
        .tracer
        .as_ref()
        .unwrap()
        .borrow()
        .to_chrome_json_string();
    std::fs::write(dir.path(&format!("{name}.json")), &metrics).unwrap();
    std::fs::write(dir.path(&format!("{name}.trace.json")), &trace).unwrap();
    let snap = MetricsSnapshot::parse(&metrics).unwrap();
    (snap, dir.path(&format!("{name}.json")), trace)
}

fn campaign_golden() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/campaign_smoke.jsonl")
        .to_str()
        .unwrap()
        .to_string()
}

/// Runs `gnna-report` with `args`, expecting success and nothing on
/// stderr; returns its stdout.
fn report_stdout(args: &[&str]) -> String {
    let out = run(env!("CARGO_BIN_EXE_gnna-report"), args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {err}");
    assert!(err.is_empty(), "{args:?} wrote to stderr: {err}");
    String::from_utf8(out.stdout).unwrap()
}

/// Every `gnna-report` mode prints exactly the library's rendering, and
/// with `--out` writes it to the file and prints the mode's one summary
/// line instead.
#[test]
fn report_modes_print_the_library_renderings() {
    let dir = Scratch::new("modes");
    let (cpu, cpu_path, _) = write_run(&dir, "cpu", &AcceleratorConfig::cpu_iso_bandwidth());
    let (gpu, gpu_path, trace) = write_run(&dir, "gpu", &AcceleratorConfig::gpu_iso_bandwidth());
    let trace_path = dir.path("gpu.trace.json");
    let campaign_path = campaign_golden();
    let records = parse_campaign_jsonl(&std::fs::read_to_string(&campaign_path).unwrap()).unwrap();

    let report = BottleneckReport::build(&gpu, None, 8);
    let traced = parse_trace_json(&trace).unwrap();
    let traced = BottleneckReport::build(&gpu, Some(traced), 5);
    let diff = DiffReport::build(&cpu, &gpu, &cpu_path, &gpu_path, 8);
    let campaign = CampaignReport::build(&records);
    let (md, csv) = (report.to_markdown(), report.to_csv());
    let (campaign_md, campaign_csv) = (campaign.to_markdown(), campaign.to_csv());
    let appended = |report: &str, campaign: &str| format!("{report}\n{campaign}");
    let (out_md, out_csv) = (dir.path("out.md"), dir.path("out.csv"));

    // (arguments, rendering, file it goes to, summary line printed then)
    let cases: Vec<(Vec<&str>, String, Option<&str>, String)> = vec![
        (
            vec!["--metrics", &gpu_path],
            md.clone(),
            None,
            String::new(),
        ),
        (
            vec!["--metrics", &gpu_path, "--format", "csv"],
            csv.clone(),
            None,
            String::new(),
        ),
        (
            vec!["--metrics", &gpu_path, "--out", &out_md],
            md.clone(),
            Some(&out_md),
            format!("report: {out_md} (8 tiles, 48 links, 7 stall causes)\n"),
        ),
        (
            vec!["--metrics", &gpu_path, "--out", &out_csv],
            csv.clone(),
            Some(&out_csv),
            format!("report: {out_csv} (8 tiles, 48 links, 7 stall causes)\n"),
        ),
        (
            vec![
                "--metrics",
                &gpu_path,
                "--trace",
                &trace_path,
                "--top-k",
                "5",
            ],
            traced.to_markdown(),
            None,
            String::new(),
        ),
        (
            vec!["--diff", &cpu_path, &gpu_path],
            diff.to_markdown(),
            None,
            String::new(),
        ),
        (
            vec!["--diff", &cpu_path, &gpu_path, "--out", &out_csv],
            diff.to_csv(),
            Some(&out_csv),
            format!(
                "diff report: {out_csv} (5 system rows, 7 stall causes, 48 links, \
                 11 energy rows)\n"
            ),
        ),
        (
            vec!["--campaign", &campaign_path],
            campaign_md.clone(),
            None,
            String::new(),
        ),
        (
            vec!["--campaign", &campaign_path, "--out", &out_csv],
            campaign_csv.clone(),
            Some(&out_csv),
            format!("campaign report: {out_csv} (18 cells, 9 accuracy rows)\n"),
        ),
        (
            vec!["--metrics", &gpu_path, "--campaign", &campaign_path],
            appended(&md, &campaign_md),
            None,
            String::new(),
        ),
        (
            vec![
                "--metrics",
                &gpu_path,
                "--campaign",
                &campaign_path,
                "--out",
                &out_csv,
            ],
            appended(&csv, &campaign_csv),
            Some(&out_csv),
            format!("report: {out_csv} (8 tiles, 48 links, 7 stall causes)\n"),
        ),
    ];
    for (args, rendering, file, summary) in cases {
        let stdout = report_stdout(&args);
        match file {
            None => assert!(stdout == rendering, "{args:?}: stdout is not the rendering"),
            Some(path) => {
                let written = std::fs::read_to_string(path).unwrap();
                assert!(written == rendering, "{args:?}: file is not the rendering");
                assert_eq!(stdout, summary, "{args:?}");
                std::fs::remove_file(path).unwrap();
            }
        }
    }

    // A self-diff says so in its summary line.
    let stdout = report_stdout(&["--diff", &cpu_path, &cpu_path, "--out", &out_md]);
    assert_eq!(
        stdout,
        format!(
            "diff report: {out_md} (5 system rows, 7 stall causes, 2 links, \
             11 energy rows, identical)\n"
        )
    );
}

/// `--trace` belongs to single-run mode: beside `--diff` or a bare
/// `--campaign` it would be ignored, so it is a usage error, checked
/// before any file is read.
#[test]
fn report_rejects_trace_outside_single_run_mode() {
    let missing = temp_path("no-such-trace");
    let missing = missing.to_str().unwrap();
    let campaign = campaign_golden();
    for args in [
        vec!["--diff", "a.json", "b.json", "--trace", missing],
        vec!["--campaign", &campaign, "--trace", missing],
    ] {
        let out = run(env!("CARGO_BIN_EXE_gnna-report"), &args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with("error: --trace needs --metrics"),
            "{args:?}: {err}"
        );
        assert!(err.contains("usage: gnna-report"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} still produced output");
    }
}
