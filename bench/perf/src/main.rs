//! `gnna-perf` command line; see `README.md`.
//!
//! Exit status: 0 when every output was correct, 1 when a check failed
//! (after printing the record) or the run could not finish, 2 for a bad
//! command line (with a JSON error on standard error).

use gnna_bench::Scale;
use gnna_perf::spec::Spec;
use gnna_perf::{compare, Opts, DEFAULT_SEED};
use gnna_telemetry::json;
use std::process::ExitCode;

const USAGE: &str = "usage: gnna-perf run --workload W [--seed N] [--seconds N] [--trace 0|1]\n       gnna-perf compare A.jsonl B.jsonl";

fn fail(code: u8, msg: &str) -> ExitCode {
    let mut body = String::new();
    json::escape_into(&mut body, msg);
    eprintln!("{{\"error\":\"{body}\"}}");
    ExitCode::from(code)
}

fn parse_run(args: &[String], spec: &Spec) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
        scale: Scale::Paper,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !spec.workloads.contains(value) {
                    return Err(format!(
                        "unknown workload {value:?} (expected one of {})",
                        spec.workloads.join(", ")
                    ));
                }
                opts.workload = value.clone();
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("bad seed {value:?}: expected an unsigned integer"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or(format!("bad --seconds {value:?}: expected 1..=3600"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::embedded();
    match args.first().map(String::as_str) {
        Some("run") => {
            let opts = match parse_run(&args[1..], &spec) {
                Ok(o) => o,
                Err(e) => return fail(2, &format!("{e}; {USAGE}")),
            };
            let record = match gnna_perf::run(&opts, &spec) {
                Ok(r) => r,
                Err(e) => return fail(1, &format!("{}: {e}", opts.workload)),
            };
            if record.correct() {
                if let Err(e) = record.check_names(&spec) {
                    return fail(1, &e);
                }
            }
            println!("{}", record.to_json(&spec));
            println!("{}", record.summary_json(&spec));
            if record.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return fail(2, &format!("compare needs two files; {USAGE}"));
            };
            let (ra, rb) = match (compare::read_records(a), compare::read_records(b)) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (Err(e), _) | (_, Err(e)) => return fail(2, &e),
            };
            let (report, any_worse) = compare::compare(&spec, &ra, &rb);
            print!("{report}");
            if any_worse {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(2, &format!("unknown command {other:?}; {USAGE}")),
        None => fail(2, USAGE),
    }
}
