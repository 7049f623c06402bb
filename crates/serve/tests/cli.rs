//! Command-line conformance for the serve binary — same contract the
//! bench binaries are held to in `crates/bench/tests/cli.rs`.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gnna-serve"))
        .args(args)
        .output()
        .expect("cannot spawn gnna-serve")
}

#[test]
fn help_exits_zero_and_prints_usage() {
    for flag in ["--help", "-h"] {
        let out = run(&[flag]);
        assert!(out.status.success(), "gnna-serve {flag} exited nonzero");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: gnna-serve"), "{flag}: {err}");
    }
}

#[test]
fn help_documents_the_overload_and_soak_flags() {
    let out = run(&["--help"]);
    let err = String::from_utf8_lossy(&out.stderr);
    for flag in [
        "--tenant-quota",
        "--max-conns",
        "--degrade-watermark",
        "--soak-secs",
        "--soak-out",
        "--soak-light-rate",
        "--soak-flood-rate",
        "--soak-max-fairness",
        "--soak-max-rss-growth",
    ] {
        assert!(err.contains(flag), "usage is missing {flag}:\n{err}");
    }
}

#[test]
fn malformed_tenant_quota_is_rejected_with_a_reason() {
    for bad in ["=5", "a=1:0", "a=1:2:0", "a=-3", "a=1:2:3:4"] {
        let out = run(&["--tenant-quota", bad]);
        assert!(
            !out.status.success(),
            "gnna-serve accepted bad quota {bad:?}"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("quota"), "{bad}: {err}");
    }
}

#[test]
fn zero_soak_secs_is_rejected() {
    let out = run(&["--soak-secs", "0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--soak-secs must be positive"), "{err}");
}

#[test]
fn version_exits_zero_and_prints_the_workspace_version() {
    for flag in ["--version", "-V"] {
        let out = run(&[flag]);
        assert!(out.status.success(), "gnna-serve {flag} exited nonzero");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            stdout,
            format!("gnna-serve {}\n", env!("CARGO_PKG_VERSION"))
        );
    }
}

#[test]
fn unknown_options_exit_nonzero_with_usage() {
    // No load-harness mode: the batching gate is a test in `tests/e2e.rs`.
    for flag in [
        "--no-such-flag",
        "--load",
        "--load-jobs",
        "--load-concurrency",
        "--min-speedup",
        "--baseline-out",
    ] {
        let out = run(&[flag]);
        assert!(!out.status.success(), "gnna-serve accepted {flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option {flag}")), "{err}");
        assert!(err.contains("usage: gnna-serve"), "{err}");
    }
}
