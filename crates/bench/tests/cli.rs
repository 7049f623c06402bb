//! Command-line conformance for the bench binaries.
//!
//! Every binary in the workspace answers `--help` and `--version` with
//! exit code 0 — `--help` prints the usage text to stderr, `--version`
//! prints `<bin> <workspace version>` to stdout — and `gnna-report`
//! fails with a structured error (not a panic, an abort or an empty
//! section) on an empty, truncated or too deeply nested sweep file or
//! metrics dump. `gnna-sim` refuses a clock that is not finite and
//! positive with a structured error.

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
