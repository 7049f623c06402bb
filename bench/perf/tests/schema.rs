//! The declaration in `BENCHMARK.json`, the names the workloads emit,
//! and the command line's error handling.

use gnna_bench::Scale;
use gnna_perf::spec::{Spec, BENCHMARK_JSON};
use gnna_perf::Opts;
use gnna_telemetry::json::{self, JsonValue};
use std::collections::BTreeSet;
use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

fn legal_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn declaration_is_well_formed() {
    let doc = json::parse(BENCHMARK_JSON).unwrap();
    let keys: BTreeSet<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    let expected: BTreeSet<&str> = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]
    .into();
    assert_eq!(keys, expected);

    let spec = Spec::parse(BENCHMARK_JSON).unwrap();
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=60).contains(&spec.run_seconds));
    for w in doc.get("workloads").and_then(JsonValue::as_array).unwrap() {
        let why = w.get("why").and_then(JsonValue::as_str).unwrap();
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let mut names = BTreeSet::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(legal_name(&m.name), "illegal metric name {:?}", m.name);
        assert!(names.insert(m.name.clone()), "duplicate metric {}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "illegal unit {:?}",
            m.unit
        );
    }
    for m in &spec.per_layer {
        assert_eq!(m.bound, None, "{} is per-layer and takes no bound", m.name);
    }
    let setup = spec.metric("setup_s").expect("setup_s is declared");
    let setup_bound = setup.bound.unwrap();
    assert_eq!(setup.unit, "s");
    for m in &spec.end_to_end {
        let b = m.bound.expect("end-to-end metrics carry a bound");
        assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        assert!(b <= setup_bound, "setup_s must have the largest bound");
    }
}

/// Runs every workload at smoke scale in both modes and checks that the
/// emitted names are exactly the declared ones.
#[test]
fn workloads_emit_exactly_the_declared_metrics() {
    let spec = Spec::embedded();
    for (i, workload) in spec.workloads.iter().enumerate() {
        for trace in [false, true] {
            let opts = Opts {
                workload: workload.to_string(),
                seed: 9000 + i as u64,
                seconds: 1,
                trace,
                scale: Scale::Smoke,
            };
            let record = gnna_perf::run(&opts, &spec).unwrap();
            assert!(record.correct(), "{workload} trace={trace}: outputs failed");
            record.check_names(&spec).unwrap();
            for name in record.metrics.keys() {
                assert!(legal_name(name), "{name}");
            }
            let summary = json::parse(&record.summary_json(&spec)).unwrap();
            let keys: Vec<&str> = summary
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            for (name, m) in summary.get("metrics").unwrap().as_object().unwrap() {
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name}"
                );
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(spec.metric(name).unwrap().unit.as_str())
                );
            }
            if !trace {
                for (name, v) in &record.metrics {
                    assert!(v.value > 0.0, "{workload}: end-to-end {name} must not be 0");
                }
            }
        }
    }
}

/// A case whose simulation always fails is counted, not repeated
/// forever: the run ends and reports every attempt as failed.
#[test]
fn failing_simulations_are_counted() {
    let mut w = gnna_perf::sim::SimWorkload::mesh();
    // A one-cycle progress watchdog stalls every run.
    w.config = w.config.with_stall_window(1);
    let opts = Opts {
        workload: "sim-mesh".into(),
        seed: 42,
        seconds: 2,
        trace: false,
        scale: Scale::Smoke,
    };
    let cases = w.pairs.len() as u64;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut spans = gnna_perf::spans::Spans::new("failing");
        let _ = tx.send(gnna_perf::sim::run(&w, &opts, &mut spans).map_err(|e| e.to_string()));
    });
    let measured = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run did not end")
        .unwrap();
    assert_eq!(measured.attempted, cases);
    assert_eq!(measured.failed, measured.attempted);
    assert!(measured.metrics.is_empty());
}

fn gnna_perf(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gnna-perf"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_command_lines_are_structured_errors() {
    for args in [
        &["run", "--workload", "sim-nope"][..],
        &["run", "--workload", "sim-mesh", "--seed", "-3"],
        &["run", "--workload", "sim-mesh", "--seed", "x"],
        &["run", "--workload", "sim-mesh", "--trace", "2"],
        &["run", "--workload", "sim-mesh", "--seconds", "0"],
        &["run", "--workload", "sim-mesh", "--frobnicate", "1"],
        &["run", "--workload", "sim-mesh", "--scale", "smoke"],
        &["run", "--workload"],
        &["run"],
        &["explode"],
        &[],
        &["compare", "only-one.jsonl"],
        &["compare", "missing-a.jsonl", "missing-b.jsonl"],
    ] {
        let (code, stdout, stderr) = gnna_perf(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
        let err = json::parse(stderr.trim()).unwrap_or_else(|e| panic!("{args:?}: {e}: {stderr}"));
        assert!(
            err.get("error").and_then(JsonValue::as_str).is_some(),
            "{args:?}"
        );
    }
}

#[test]
fn compare_reads_two_record_sets() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let record = |workload: &str, latency: f64| {
        format!(
            "{{\"schema\":\"gnna-perf/1\",\"workload\":\"{workload}\",\"seed\":42,\
             \"metrics\":{{\"latency_ms\":{{\"value\":{latency},\"unit\":\"ms\"}}}},\
             \"extra\":{{\"sim.cycles\":{{\"value\":100}}}}}}\n"
        )
    };
    let a: String = (0..10)
        .map(|i| record("sim-mesh", 100.0 + f64::from(i % 3)))
        .collect();
    let b: String = (0..10)
        .map(|i| record("sim-mesh", 101.0 + f64::from(i % 3)))
        .collect();
    let (pa, pb) = (dir.join("compare-a.jsonl"), dir.join("compare-b.jsonl"));
    std::fs::write(&pa, a).unwrap();
    std::fs::write(&pb, b).unwrap();
    let (code, stdout, stderr) =
        gnna_perf(&["compare", pa.to_str().unwrap(), pb.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");
    let row = stdout
        .lines()
        .find(|l| l.contains("latency_ms"))
        .unwrap_or_else(|| panic!("no latency row in {stdout}"));
    assert!(row.contains("unchanged"), "{row}");
    assert!(stdout.contains("1 identical, 0 differ"), "{stdout}");
}
