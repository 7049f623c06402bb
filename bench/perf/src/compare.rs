//! `gnna-perf compare A.jsonl B.jsonl`: two sets of run records side by
//! side, with a verdict per workload and end-to-end metric.
//!
//! The rules are those for landing a change on one layer: a gain needs
//! the change (B) to win at least nine tenths of the pairs, ties
//! counting for neither, and medians further apart than the spread of
//! the baseline's (A's) own runs; a regression is a median worse by more
//! than the metric's bound; a spread wider than the bound leaves the
//! metric unresolved unless every run of B beats every run of A. Pairs
//! are the i-th records of each set, so alternate the two sides when
//! making them.

use crate::record::SCHEMA;
use crate::spec::{Better, Spec};
use crate::stats::{median, quartiles};
use gnna_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric values of one set: `(workload, metric) → values in file order`.
type Series = BTreeMap<(String, String), Vec<f64>>;

/// Outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// B is better by the gain rule.
    Improved,
    /// B is within the bound of A.
    Unchanged,
    /// B is worse than A by more than the bound.
    Worse,
    /// The spread of A's runs is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the run records of one JSONL file: every line carrying the
/// record schema (summary lines and other text are skipped).
///
/// # Errors
///
/// Unreadable files, malformed record lines, or no records at all.
pub fn read_records(path: &str) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if !line.contains(SCHEMA) {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if v.get("schema").and_then(JsonValue::as_str) == Some(SCHEMA) {
            records.push(v);
        }
    }
    if records.is_empty() {
        return Err(format!("{path}: no {SCHEMA} records"));
    }
    Ok(records)
}

/// Collects `section` values (`metrics` or `extra`) by workload and name.
fn series(records: &[JsonValue], section: &str) -> Series {
    let mut out = Series::new();
    for r in records {
        let Some(workload) = r.get("workload").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(metrics) = r.get(section).and_then(JsonValue::as_object) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// `+1` when lower values are better, `-1` when higher ones are, so
/// that `sign * (y - x) < 0` reads "y beats x".
fn sign(better: Better) -> f64 {
    match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    }
}

/// Pairs (i-th runs of each set) that `first` wins outright.
fn wins(first: &[f64], second: &[f64], better: Better) -> usize {
    let s = sign(better);
    first
        .iter()
        .zip(second)
        .filter(|(x, y)| s * (*x - *y) < 0.0)
        .count()
}

/// Judges B against A for one metric.
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let spread = q3 - q1;
    let sign = sign(better);
    // Positive when B is worse.
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let pairs = a.len().min(b.len());
    let b_wins = wins(b, a, better);
    if pairs > 0 && b_wins * 10 >= pairs * 9 && (mb - ma).abs() > spread && worse_by < 0.0 {
        return Verdict::Improved;
    }
    if spread / ma.abs().max(f64::MIN_POSITIVE) > bound {
        let b_all_better = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
        return if b_all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

fn fmt_set(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:.6} [{:.6}, {:.6}] n={}", median(v), q1, q3, v.len())
}

/// Renders the comparison; returns the report and whether any metric
/// got worse.
pub fn compare(spec: &Spec, a: &[JsonValue], b: &[JsonValue]) -> (String, bool) {
    let (sa, sb) = (series(a, "metrics"), series(b, "metrics"));
    let mut out = String::new();
    let mut any_worse = false;
    out.push_str("| workload | metric | A median [q1, q3] | B median [q1, q3] | A wins | B wins | change | verdict |\n");
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(va, vb, m.better, bound);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (median(va), median(vb));
            let pairs = va.len().min(vb.len()).max(1) as f64;
            let won = |first: &[f64], second: &[f64]| {
                100.0 * wins(first, second, m.better) as f64 / pairs
            };
            let _ = writeln!(
                out,
                "| {workload} | {} ({}) | {} | {} | {:.0}% | {:.0}% | {:+.2}% | {} |",
                m.name,
                m.unit,
                fmt_set(va),
                fmt_set(vb),
                won(va, vb),
                won(vb, va),
                100.0 * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                v.as_str()
            );
        }
    }

    // Simulated counters repeat exactly for a seed: any difference is a
    // change of the modelled design, not noise.
    let counters = |records: &[JsonValue]| {
        let mut by_seed = BTreeMap::new();
        for r in records {
            let seed = r.get("seed").and_then(JsonValue::as_u64).unwrap_or(0);
            for section in ["metrics", "extra"] {
                for ((workload, name), v) in series(std::slice::from_ref(r), section) {
                    if name.starts_with("sim.") {
                        by_seed
                            .entry((workload, seed, name))
                            .or_insert_with(Vec::new)
                            .extend(v);
                    }
                }
            }
        }
        by_seed
    };
    let (ca, cb) = (counters(a), counters(b));
    let mut same = 0usize;
    let mut differ = Vec::new();
    for (key, va) in &ca {
        let Some(vb) = cb.get(key) else { continue };
        if va.iter().chain(vb).all(|x| *x == va[0]) {
            same += 1;
        } else {
            differ.push(format!(
                "{} seed {} {}: A {:?} B {:?}",
                key.0, key.1, key.2, va, vb
            ));
        }
    }
    let _ = writeln!(
        out,
        "\nsimulated counters: {same} identical, {} differ",
        differ.len()
    );
    for d in differ {
        let _ = writeln!(out, "  {d}");
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_landing_rules() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Faster on every pair by far more than A's spread.
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &faster, Better::Lower, 0.1), Verdict::Improved);
        // 20% slower against a 10% bound.
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.1), Verdict::Worse);
        // Within the bound.
        let same: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
        assert_eq!(verdict(&a, &same, Better::Lower, 0.1), Verdict::Unchanged);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&a, &slower, Better::Higher, 0.1), Verdict::Improved);
        // A spread wider than the bound cannot rule on anything.
        let noisy = [50.0, 150.0, 60.0, 140.0, 100.0];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
