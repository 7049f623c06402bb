//! End-to-end accuracy harness for fault campaigns.
//!
//! Compares accelerator outputs against the `gnna-models` functional
//! reference captured in [`BenchCase::reference`]. A protected
//! (retry/correct) run is bit-exact against the reference up to the
//! simulator's usual float tolerance; a pass-through run at a nonzero
//! rate degrades, and this module quantifies by how much:
//!
//! * **max / mean relative error** over every output element, with the
//!   denominator floored at [`REL_EPS`] so near-zero reference values
//!   don't explode the metric;
//! * **label flips**: rows whose argmax class changed (the end-to-end
//!   "top-1 accuracy" casualty count for classification heads);
//! * **non-finite outputs**: corrupted exponent bits routinely produce
//!   `NaN`/`Inf`; these are counted separately and charged the
//!   [`ERR_CAP`] relative error instead of poisoning the means.
//!
//! Everything is computed in `f64` with a fixed iteration order, so two
//! runs of the same simulation produce byte-identical formatted numbers
//! — the property the campaign runner's determinism golden relies on.

use crate::{BenchCase, BenchError};
use gnna_core::config::AcceleratorConfig;
use gnna_core::stats::SimReport;
use gnna_core::system::{System, TraceOptions};
use gnna_core::CoreError;
use gnna_faults::FaultPlan;

/// Denominator floor for relative error (`|sim - ref| / max(|ref|, ε)`).
pub const REL_EPS: f64 = 1e-6;

/// Relative error charged to a non-finite simulated element.
pub const ERR_CAP: f64 = 1e30;

/// Accuracy of one simulated inference against the functional reference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Accuracy {
    /// Output rows compared (vertices, or graphs for readout models).
    pub rows: u64,
    /// Output elements compared.
    pub elements: u64,
    /// Maximum per-element relative error.
    pub max_rel_err: f64,
    /// Mean per-element relative error.
    pub mean_rel_err: f64,
    /// Rows whose argmax class differs from the reference.
    pub label_flips: u64,
    /// Non-finite simulated elements (NaN/Inf).
    pub nonfinite: u64,
}

impl Accuracy {
    /// Fraction of rows whose top-1 label flipped.
    pub fn flip_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.label_flips as f64 / self.rows as f64
        }
    }

    /// Whether the output is degraded at all (any error or flip).
    pub fn degraded(&self) -> bool {
        self.max_rel_err > 0.0 || self.label_flips > 0 || self.nonfinite > 0
    }
}

/// NaN-safe argmax: the first index holding the maximum, with non-finite
/// values ranked below every finite one (a row of all-NaN returns 0).
fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        let v = if v.is_finite() {
            f64::from(v)
        } else {
            f64::NEG_INFINITY
        };
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Compares simulated output rows against the reference rows.
///
/// # Errors
///
/// Returns an error if the shapes disagree — that is a harness bug, not
/// a fault outcome (faults never change output shapes).
pub fn compare_rows(
    reference: &[Vec<f32>],
    simulated: &[Vec<f32>],
) -> Result<Accuracy, BenchError> {
    if reference.len() != simulated.len() {
        return Err(format!(
            "row count mismatch: reference {} vs simulated {}",
            reference.len(),
            simulated.len()
        )
        .into());
    }
    let mut acc = Accuracy {
        rows: reference.len() as u64,
        ..Accuracy::default()
    };
    let mut err_sum = 0.0f64;
    for (r, s) in reference.iter().zip(simulated) {
        if r.len() != s.len() {
            return Err(format!("row width mismatch: {} vs {}", r.len(), s.len()).into());
        }
        for (&rv, &sv) in r.iter().zip(s) {
            acc.elements += 1;
            let e = if sv.is_finite() {
                let denom = f64::from(rv).abs().max(REL_EPS);
                (f64::from(sv) - f64::from(rv)).abs() / denom
            } else {
                acc.nonfinite += 1;
                ERR_CAP
            };
            err_sum += e;
            if e > acc.max_rel_err {
                acc.max_rel_err = e;
            }
        }
        // Single-class heads cannot flip; skip the argmax for width 1.
        if r.len() > 1 && argmax(r) != argmax(s) {
            acc.label_flips += 1;
        }
    }
    if acc.elements > 0 {
        acc.mean_rel_err = err_sum / acc.elements as f64;
    }
    Ok(acc)
}

/// Reads the simulated output rows in the same layout as
/// [`BenchCase::reference`]: per-vertex rows in instance order for
/// vertex-output models, one row per graph for readout models.
///
/// # Errors
///
/// Propagates [`System::output_matrix`] errors.
pub fn simulated_rows(case: &BenchCase, sys: &System) -> Result<Vec<Vec<f32>>, BenchError> {
    let mut rows = Vec::with_capacity(case.reference.len());
    for g in 0..case.dataset.instances.len() {
        let m = sys.output_matrix(g)?;
        rows.extend((0..m.rows()).map(|i| m.row(i).to_vec()));
    }
    Ok(rows)
}

/// Outcome of one fault-injected simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultRun {
    /// The run finished; outputs were compared against the reference.
    Completed {
        /// The usual simulation report (resilience + degradation).
        report: Box<SimReport>,
        /// Output accuracy against the functional reference.
        accuracy: Accuracy,
    },
    /// The run died on an unrecoverable fault (protected mode only:
    /// retransmit budget exhausted or an uncorrectable double-bit error
    /// outside pass-through).
    Unrecoverable {
        /// Faulting site (`"mem"`, `"noc"`, …).
        site: String,
        /// Structured fault message.
        msg: String,
    },
}

/// Simulates `case` on `config` under `plan` and grades the output.
///
/// [`CoreError::Fault`] is an *expected* campaign outcome and is folded
/// into [`FaultRun::Unrecoverable`]; every other error (invalid plan,
/// protocol violation) propagates.
///
/// # Errors
///
/// Propagates construction errors and non-fault simulation errors.
pub fn run_with_faults(
    case: &BenchCase,
    config: &AcceleratorConfig,
    plan: &FaultPlan,
) -> Result<FaultRun, BenchError> {
    let opts = TraceOptions {
        fault_plan: Some(plan.clone()),
        ..TraceOptions::default()
    };
    let mut sys =
        System::with_options(config, &case.dataset.instances, case.program.clone(), &opts)?;
    match sys.run() {
        Ok(report) => {
            let accuracy = compare_rows(&case.reference, &simulated_rows(case, &sys)?)?;
            Ok(FaultRun::Completed {
                report: Box::new(report),
                accuracy,
            })
        }
        Err(CoreError::Fault { site, msg, .. }) => Ok(FaultRun::Unrecoverable { site, msg }),
        Err(other) => Err(other.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_rows_have_zero_error() {
        let rows = vec![vec![1.0, -2.0, 3.0], vec![0.0, 0.5, -0.5]];
        let acc = compare_rows(&rows, &rows).unwrap();
        assert_eq!(acc.rows, 2);
        assert_eq!(acc.elements, 6);
        assert_eq!(acc.max_rel_err, 0.0);
        assert_eq!(acc.mean_rel_err, 0.0);
        assert_eq!(acc.label_flips, 0);
        assert_eq!(acc.nonfinite, 0);
        assert!(!acc.degraded());
    }

    #[test]
    fn relative_error_and_flips_are_counted() {
        let reference = vec![vec![1.0, 2.0], vec![4.0, 1.0]];
        // Row 0: second element off by 50%, argmax flips 1 → 0.
        // Row 1: exact.
        let simulated = vec![vec![1.0, 1.0], vec![4.0, 1.0]];
        let acc = compare_rows(&reference, &simulated).unwrap();
        assert_eq!(acc.label_flips, 1);
        assert!((acc.max_rel_err - 0.5).abs() < 1e-12);
        assert!((acc.mean_rel_err - 0.125).abs() < 1e-12);
        assert!((acc.flip_rate() - 0.5).abs() < 1e-12);
        assert!(acc.degraded());
    }

    #[test]
    fn nonfinite_outputs_are_capped_not_propagated() {
        let reference = vec![vec![1.0, 2.0]];
        let simulated = vec![vec![f32::NAN, 2.0]];
        let acc = compare_rows(&reference, &simulated).unwrap();
        assert_eq!(acc.nonfinite, 1);
        assert_eq!(acc.max_rel_err, ERR_CAP);
        assert!(acc.mean_rel_err.is_finite());
        // NaN ranks below everything: argmax moved off index 1? No —
        // reference argmax is 1 and the NaN is at 0, so no flip.
        assert_eq!(acc.label_flips, 0);
    }

    #[test]
    fn nan_in_argmax_column_flips_label() {
        let reference = vec![vec![3.0, 1.0]];
        let simulated = vec![vec![f32::NAN, 1.0]];
        let acc = compare_rows(&reference, &simulated).unwrap();
        assert_eq!(acc.label_flips, 1);
    }

    #[test]
    fn single_class_rows_never_flip() {
        let reference = vec![vec![1.0]];
        let simulated = vec![vec![-5.0]];
        let acc = compare_rows(&reference, &simulated).unwrap();
        assert_eq!(acc.label_flips, 0);
        assert!(acc.max_rel_err > 0.0);
    }

    #[test]
    fn shape_mismatches_are_errors() {
        assert!(compare_rows(&[vec![1.0]], &[]).is_err());
        assert!(compare_rows(&[vec![1.0]], &[vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn near_zero_reference_uses_epsilon_floor() {
        let reference = vec![vec![0.0]];
        let simulated = vec![vec![1e-6]];
        let acc = compare_rows(&reference, &simulated).unwrap();
        // (f32 1e-6 is ~9.9999999e-7, so allow the conversion slack.)
        assert!((acc.max_rel_err - 1.0).abs() < 1e-6, "{}", acc.max_rel_err);
    }
}
