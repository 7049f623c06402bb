//! Parallel fault-campaign runner: sweeps `rate × seed × benchmark ×
//! mode` grids and streams one JSON-lines record per cell.
//!
//! Determinism is the design constraint everything else bends around:
//!
//! * every cell is rendered by a **pure function** of the campaign spec
//!   and the cell parameters (each simulation owns its RNG streams, so
//!   cells never share mutable state);
//! * cells are enumerated in a fixed nested order (benchmark → mode →
//!   rate → seed) and records are **emitted in cell order** regardless
//!   of which worker finished first — `--threads N` output is
//!   byte-identical to `--threads 1` (golden-tested);
//! * a campaign interrupted mid-run resumes from the partial file:
//!   [`resume_point`] finds the last complete line, the runner recomputes
//!   only the missing tail, and the final file is byte-identical to an
//!   uninterrupted run.
//!
//! The pool is the shared [`gnna_executor::Executor`]: a std-only
//! work-stealing loop (cheap dynamic load balancing — passthrough cells
//! at high rates run much longer than protected cells at rate zero)
//! whose in-order emission contract is exactly the byte-identity
//! guarantee the campaign golden rests on. The pool used to live in
//! this module; it was lifted out so the `gnna-serve` daemon and future
//! sweep tools ride the same scheduler.

use crate::accuracy::{run_with_faults, Accuracy, FaultRun};
use crate::{build_case, BenchCase, BenchError, Scale};
use gnna_core::config::AcceleratorConfig;
use gnna_core::energy::EnergyModel;
use gnna_core::stats::RecoverySummary;
use gnna_executor::{Executor, ExecutorError};
use gnna_faults::{CrcDomain, EccDomain, FaultPlan, MeshDir, PhysicalRates, RecoveryMode};
use gnna_models::ModelKind;
use gnna_telemetry::energy::FJ_PER_PJ;
use gnna_telemetry::json;
use std::fmt;

/// Protection mode of a campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// All protection codes active: ECC corrects, CRC retransmits.
    Protected,
    /// Error pass-through: double-bit ECC and CRC failures deliver the
    /// corrupted word into the dataflow instead of retrying.
    Passthrough,
    /// Protected, plus permanent defects: one dead tile (and one dead
    /// mesh link when the mesh is at least 2×2), exercising the
    /// graceful-degradation remap/detour paths.
    Degraded,
    /// Protected, with checkpoint/rollback recovery: layer-boundary
    /// state is snapshotted and an exhausted protection budget (finite
    /// DRAM re-read budget in this mode) rolls back and replays instead
    /// of killing the cell.
    Rollback,
}

impl Mode {
    /// The classic protection modes in canonical grid order (the
    /// default sweep; opt into [`Mode::Rollback`] explicitly).
    pub const ALL: [Mode; 3] = [Mode::Protected, Mode::Passthrough, Mode::Degraded];

    /// Stable lower-case name (JSONL `mode` field, CLI value).
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Protected => "protected",
            Mode::Passthrough => "passthrough",
            Mode::Degraded => "degraded",
            Mode::Rollback => "rollback",
        }
    }

    /// Parses a CLI/JSON mode name.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "protected" => Some(Mode::Protected),
            "passthrough" => Some(Mode::Passthrough),
            "degraded" => Some(Mode::Degraded),
            "rollback" => Some(Mode::Rollback),
            _ => None,
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unit of the swept `rates` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RateUnit {
    /// Raw per-event probabilities, applied to every transient site
    /// (the default; rates must lie in `[0, 1]`).
    #[default]
    PerEvent,
    /// Physical units: each rate is read as both a link FIT (failures
    /// per 10⁹ link-hours) and a DRAM upset rate in upsets/Gbit·h, and
    /// converted to per-event probabilities with
    /// [`FaultPlan::from_physical`] (scaled by
    /// [`CampaignSpec::acceleration`]).
    Fit,
}

impl RateUnit {
    /// Stable lower-case name (JSONL `rate_unit` field, CLI value).
    pub fn as_str(self) -> &'static str {
        match self {
            RateUnit::PerEvent => "event",
            RateUnit::Fit => "fit",
        }
    }

    /// Parses a CLI/JSON rate-unit name.
    pub fn parse(s: &str) -> Option<RateUnit> {
        match s {
            "event" => Some(RateUnit::PerEvent),
            "fit" => Some(RateUnit::Fit),
            _ => None,
        }
    }
}

impl fmt::Display for RateUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The full campaign grid.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Benchmark pairs to sweep (model, Table V input name).
    pub benchmarks: Vec<(ModelKind, &'static str)>,
    /// Dataset scale.
    pub scale: Scale,
    /// Accelerator configuration.
    pub config: AcceleratorConfig,
    /// Per-event fault rates to sweep (applied to the DRAM transient,
    /// DRAM stuck-line and NoC sites alike).
    pub rates: Vec<f64>,
    /// Fault-plan seeds to sweep.
    pub seeds: Vec<u64>,
    /// Protection modes to sweep.
    pub modes: Vec<Mode>,
    /// Fraction of DRAM faults that are (uncorrectable) double-bit
    /// errors — the knob that separates protected retries from
    /// pass-through silent corruption.
    pub double_bit_fraction: f64,
    /// Selective protection domains to sweep as `(ECC, CRC)` pairs.
    /// The default single `(Both, All)` entry reproduces the legacy
    /// grid exactly (same cell count, same indices, same bytes).
    pub domains: Vec<(EccDomain, CrcDomain)>,
    /// Unit the `rates` axis is expressed in.
    pub rate_unit: RateUnit,
    /// Acceleration factor applied to physically calibrated rates
    /// (ignored for [`RateUnit::PerEvent`]).
    pub acceleration: f64,
}

impl CampaignSpec {
    /// A small default grid over one benchmark.
    pub fn new(config: AcceleratorConfig, scale: Scale) -> Self {
        CampaignSpec {
            benchmarks: vec![(ModelKind::Gcn, "Cora")],
            scale,
            config,
            rates: vec![0.0, 1e-4, 1e-3, 1e-2],
            seeds: vec![1, 2],
            modes: Mode::ALL.to_vec(),
            double_bit_fraction: 0.25,
            domains: vec![(EccDomain::Both, CrcDomain::All)],
            rate_unit: RateUnit::PerEvent,
            acceleration: 1.0,
        }
    }

    /// Enumerates every cell in canonical order (benchmark → mode →
    /// domain → rate → seed). The position in this vector is the cell
    /// index that appears in the JSONL record. With the default
    /// single-domain axis the enumeration is identical to the legacy
    /// benchmark → mode → rate → seed order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &(model, input) in &self.benchmarks {
            for &mode in &self.modes {
                for &(ecc, crc) in &self.domains {
                    for &rate in &self.rates {
                        for &seed in &self.seeds {
                            out.push(Cell {
                                index: out.len(),
                                model,
                                input,
                                mode,
                                ecc,
                                crc,
                                rate,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The fault plan for one cell. Pure: the same cell always maps to
    /// the same plan.
    pub fn plan_for(&self, cell: &Cell) -> FaultPlan {
        let mut plan = match self.rate_unit {
            RateUnit::PerEvent => FaultPlan::new(cell.seed)
                .with_mem_rate(cell.rate)
                .with_noc_rate(cell.rate)
                .with_mem_stuck_rate(cell.rate),
            // Physical calibration: the swept number is read in
            // deployment units for both transient sites (stuck lines
            // are a manufacturing defect, not a rate, and stay off).
            RateUnit::Fit => FaultPlan::from_physical(
                cell.seed,
                &PhysicalRates {
                    dram_upsets_per_gbit_hour: cell.rate,
                    link_fit: cell.rate,
                    acceleration: self.acceleration,
                    ..PhysicalRates::default()
                },
            ),
        };
        plan = plan
            .with_double_bit_fraction(self.double_bit_fraction)
            .with_ecc_domain(cell.ecc)
            .with_crc_domain(cell.crc);
        match cell.mode {
            Mode::Protected => {}
            Mode::Passthrough => plan = plan.with_recovery(RecoveryMode::Passthrough),
            Mode::Degraded => {
                plan = plan.with_dead_tile(1);
                let topo = &self.config.topology;
                if topo.width() >= 2 && topo.height() >= 2 {
                    plan = plan.with_dead_link(0, 0, MeshDir::East);
                }
            }
            // A finite re-read budget gives rollback something to
            // recover from: with the default infinite budget no DRAM
            // error can ever exhaust, so the mode would never roll back.
            Mode::Rollback => {
                plan = plan
                    .with_recovery(RecoveryMode::Rollback)
                    .with_mem_retry_budget(1);
            }
        }
        plan
    }
}

/// One grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Position in [`CampaignSpec::cells`] (and the JSONL `cell` field).
    pub index: usize,
    /// Benchmark model.
    pub model: ModelKind,
    /// Benchmark input name.
    pub input: &'static str,
    /// Protection mode.
    pub mode: Mode,
    /// DRAM region ECC protects in this cell.
    pub ecc: EccDomain,
    /// Flit traffic link CRC protects in this cell.
    pub crc: CrcDomain,
    /// Swept fault rate (in [`CampaignSpec::rate_unit`] units).
    pub rate: f64,
    /// Fault-plan seed.
    pub seed: u64,
}

impl Cell {
    /// `ecc/crc` protection-domain label, or `None` for the default
    /// fully protected pair (which is omitted from the JSONL record).
    pub fn domain_label(&self) -> Option<String> {
        if self.ecc == EccDomain::Both && self.crc == CrcDomain::All {
            None
        } else {
            Some(format!("{}/{}", self.ecc, self.crc))
        }
    }
}

/// Energy of the checkpoint/rollback traffic in integer picojoules,
/// priced with the default [`EnergyModel`] from the charges
/// [`RecoverySummary::energy`] declares — the ones the live system
/// charges into its `system.energy.checkpoint_pj` ledger site.
pub fn checkpoint_pj(rec: &RecoverySummary) -> u64 {
    let rates = EnergyModel::default().rates();
    let fj = rec.energy().iter().fold(0u64, |a, &(_, c, n)| {
        a.saturating_add(rates.charge_fj(c, n))
    });
    fj / FJ_PER_PJ
}

fn push_kv_str(out: &mut String, key: &str, v: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    json::escape_into(out, v);
    out.push_str("\",");
}

fn push_kv_u64(out: &mut String, key: &str, v: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
    out.push(',');
}

fn push_kv_f64(out: &mut String, key: &str, v: f64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&json::number(v));
    out.push(',');
}

/// Renders one cell: runs the simulation and formats the JSONL record
/// (no trailing newline). Pure per cell, so any worker can render any
/// cell and the bytes come out the same.
///
/// # Errors
///
/// Propagates construction errors and non-fault simulation errors
/// (unrecoverable faults are an expected *outcome*, not an error).
pub fn render_cell(
    spec: &CampaignSpec,
    case: &BenchCase,
    cell: &Cell,
) -> Result<String, BenchError> {
    let plan = spec.plan_for(cell);
    let run = run_with_faults(case, &spec.config, &plan)?;
    let (status, site, msg, report, accuracy) = match &run {
        FaultRun::Completed { report, accuracy } => {
            ("ok", String::new(), String::new(), Some(report), *accuracy)
        }
        FaultRun::Unrecoverable { site, msg } => (
            "unrecoverable",
            site.clone(),
            msg.clone(),
            None,
            Accuracy::default(),
        ),
    };
    let mut out = String::with_capacity(512);
    out.push('{');
    push_kv_u64(&mut out, "cell", cell.index as u64);
    push_kv_str(&mut out, "model", cell.model.name());
    push_kv_str(&mut out, "input", cell.input);
    push_kv_str(&mut out, "config", &spec.config.name);
    push_kv_str(&mut out, "mode", cell.mode.as_str());
    push_kv_f64(&mut out, "rate", cell.rate);
    push_kv_u64(&mut out, "seed", cell.seed);
    push_kv_str(&mut out, "status", status);
    push_kv_str(&mut out, "site", &site);
    push_kv_str(&mut out, "msg", &msg);
    let (cycles, res, deg) = match report {
        Some(r) => (r.total_cycles, r.resilience, r.degraded),
        None => (0, Default::default(), Default::default()),
    };
    let total = res.total();
    push_kv_u64(&mut out, "total_cycles", cycles);
    push_kv_u64(&mut out, "injected", total.injected);
    push_kv_u64(&mut out, "corrected", total.corrected);
    push_kv_u64(&mut out, "retried", total.retried);
    push_kv_u64(&mut out, "unrecoverable", total.unrecoverable);
    push_kv_u64(&mut out, "sdc", total.sdc);
    push_kv_u64(&mut out, "mem_injected", res.mem.injected);
    push_kv_u64(&mut out, "mem_sdc", res.mem.sdc);
    push_kv_u64(&mut out, "noc_injected", res.noc.injected);
    push_kv_u64(&mut out, "noc_sdc", res.noc.sdc);
    push_kv_u64(&mut out, "dead_tiles", deg.dead_tiles);
    push_kv_u64(&mut out, "dead_links", deg.dead_links);
    push_kv_u64(&mut out, "remapped_vertices", deg.remapped_vertices);
    push_kv_u64(&mut out, "rows", accuracy.rows);
    push_kv_u64(&mut out, "elements", accuracy.elements);
    push_kv_u64(&mut out, "label_flips", accuracy.label_flips);
    push_kv_u64(&mut out, "nonfinite", accuracy.nonfinite);
    push_kv_f64(&mut out, "max_rel_err", accuracy.max_rel_err);
    push_kv_f64(&mut out, "mean_rel_err", accuracy.mean_rel_err);
    // Extension keys are emitted only when they differ from their
    // defaults, so legacy grids (fully protected domains, per-event
    // rates, no recovery) keep producing byte-identical records.
    if let Some(domain) = cell.domain_label() {
        push_kv_str(&mut out, "domain", &domain);
    }
    if spec.rate_unit != RateUnit::PerEvent {
        push_kv_str(&mut out, "rate_unit", spec.rate_unit.as_str());
    }
    let rec = report.map(|r| r.recovery).unwrap_or_default();
    if rec.any() {
        push_kv_u64(&mut out, "checkpoints", rec.checkpoints);
        push_kv_u64(&mut out, "rollbacks", rec.rollbacks);
        push_kv_u64(&mut out, "replayed_cycles", rec.replayed_cycles);
        push_kv_u64(&mut out, "checkpoint_pj", checkpoint_pj(&rec));
    }
    // Replace the trailing comma with the closing brace.
    out.pop();
    out.push('}');
    Ok(out)
}

/// Finds where a partially written campaign file can resume: returns
/// `(complete_lines, byte_len_of_complete_prefix)`. A trailing partial
/// line (interrupted mid-write) is excluded so the caller truncates it
/// and recomputes that cell.
pub fn resume_point(existing: &str) -> (usize, usize) {
    let mut lines = 0;
    let mut prefix = 0;
    for (i, b) in existing.bytes().enumerate() {
        if b == b'\n' {
            lines += 1;
            prefix = i + 1;
        }
    }
    (lines, prefix)
}

/// Validates that a resumable prefix actually matches this campaign's
/// grid: every line parses as JSON and carries the cell index of its
/// line number (so resuming a file from a *different* grid fails loudly
/// instead of silently producing a frankenfile).
///
/// # Errors
///
/// Returns a description of the first mismatching line.
pub fn validate_prefix(existing: &str, cells: &[Cell]) -> Result<(), BenchError> {
    for (i, line) in existing.lines().enumerate() {
        if i >= cells.len() {
            return Err(format!(
                "existing file has {} lines but the grid only has {} cells",
                existing.lines().count(),
                cells.len()
            )
            .into());
        }
        let v = json::parse(line).map_err(|e| format!("line {}: bad JSON: {e}", i + 1))?;
        let cell = v
            .get("cell")
            .and_then(|c| c.as_u64())
            .ok_or_else(|| format!("line {}: missing cell index", i + 1))?;
        if cell != i as u64 {
            return Err(format!("line {} holds cell {cell}, expected {i}", i + 1).into());
        }
    }
    Ok(())
}

/// Runs the campaign cells `start_cell..` on `threads` workers, calling
/// `sink` once per finished record **in cell order** (each line has no
/// trailing newline). Returns the number of cells rendered.
///
/// The sink sees byte-identical lines whatever `threads` is; with
/// `start_cell > 0` it sees exactly the lines a fresh run would have
/// produced after the resumed prefix.
///
/// # Errors
///
/// Propagates benchmark-construction and render errors. On a worker
/// error the remaining cells are abandoned (already-sunk lines stay
/// valid for a later resume).
pub fn run(
    spec: &CampaignSpec,
    threads: usize,
    start_cell: usize,
    mut sink: impl FnMut(&str) -> Result<(), BenchError>,
) -> Result<usize, BenchError> {
    let cells = spec.cells();
    if start_cell >= cells.len() {
        return Ok(0);
    }
    // Build each unique benchmark once; workers share them read-only.
    let mut cases: Vec<((ModelKind, &'static str), BenchCase)> = Vec::new();
    for c in &cells[start_cell..] {
        if !cases.iter().any(|(k, _)| *k == (c.model, c.input)) {
            cases.push((
                (c.model, c.input),
                build_case(c.model, c.input, spec.scale)?,
            ));
        }
    }
    let case_for = |cell: &Cell| {
        &cases
            .iter()
            .find(|(k, _)| *k == (cell.model, cell.input))
            .expect("case prebuilt for every cell")
            .1
    };

    let executor = Executor::new(threads);
    executor
        .run_ordered(
            cells.len(),
            start_cell,
            |idx| {
                let cell = &cells[idx];
                render_cell(spec, case_for(cell), cell).map_err(|e| e.to_string())
            },
            |_, line| sink(&line).map_err(|e| e.to_string()),
        )
        .map_err(|e| match e {
            // Sink errors are the caller's own I/O failures; strip the
            // executor framing so messages read as before the extraction.
            ExecutorError::Sink { message, .. } | ExecutorError::Worker { message, .. } => {
                BenchError::from(message)
            }
            panic @ ExecutorError::Panic { .. } => BenchError::from(panic.to_string()),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        let mut s = CampaignSpec::new(AcceleratorConfig::gpu_iso_bandwidth(), Scale::Smoke);
        s.rates = vec![0.0, 0.01];
        s.seeds = vec![1, 2];
        s.modes = vec![Mode::Protected, Mode::Passthrough];
        s
    }

    #[test]
    fn cells_enumerate_in_canonical_order() {
        let s = spec();
        let cells = s.cells();
        assert_eq!(cells.len(), 8); // 1 benchmark × 2 modes × 2 rates × 2 seeds
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        assert_eq!(cells[0].mode, Mode::Protected);
        assert_eq!(cells[0].rate, 0.0);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
        assert_eq!(cells[2].rate, 0.01);
        assert_eq!(cells[4].mode, Mode::Passthrough);
    }

    #[test]
    fn plans_reflect_the_mode() {
        let s = spec();
        let cells = s.cells();
        let protected = s.plan_for(&cells[2]);
        assert_eq!(protected.mem_rate, 0.01);
        assert_eq!(protected.recovery, RecoveryMode::Retry);
        let pass = s.plan_for(&cells[6]);
        assert_eq!(pass.recovery, RecoveryMode::Passthrough);
        let mut deg_spec = spec();
        deg_spec.modes = vec![Mode::Degraded];
        let deg = deg_spec.plan_for(&deg_spec.cells()[0]);
        assert_eq!(deg.dead_tiles, vec![1]);
        assert!(!deg.dead_links.is_empty());
        assert_eq!(deg.recovery, RecoveryMode::Retry);
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [
            Mode::Protected,
            Mode::Passthrough,
            Mode::Degraded,
            Mode::Rollback,
        ] {
            assert_eq!(Mode::parse(m.as_str()), Some(m));
        }
        assert_eq!(Mode::parse("bogus"), None);
        for u in [RateUnit::PerEvent, RateUnit::Fit] {
            assert_eq!(RateUnit::parse(u.as_str()), Some(u));
        }
        assert_eq!(RateUnit::parse("bogus"), None);
    }

    #[test]
    fn rollback_and_domain_axes_extend_the_grid() {
        let mut s = spec();
        s.modes = vec![Mode::Rollback];
        s.domains = vec![
            (EccDomain::Both, CrcDomain::All),
            (EccDomain::WeightsOnly, CrcDomain::DataOnly),
        ];
        let cells = s.cells();
        assert_eq!(cells.len(), 8); // 1 benchmark × 1 mode × 2 domains × 2 rates × 2 seeds
        assert_eq!(cells[0].domain_label(), None);
        assert_eq!(cells[4].domain_label().as_deref(), Some("weights/data"));
        let plan = s.plan_for(&cells[6]);
        assert_eq!(plan.recovery, RecoveryMode::Rollback);
        assert_eq!(plan.mem_retry_budget, 1);
        assert_eq!(plan.ecc_domain, EccDomain::WeightsOnly);
        assert_eq!(plan.crc_domain, CrcDomain::DataOnly);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn fit_rates_convert_through_physical_calibration() {
        let mut s = spec();
        s.rate_unit = RateUnit::Fit;
        s.acceleration = 1e15;
        s.rates = vec![1000.0];
        let plan = s.plan_for(&s.cells()[0]);
        // 1000 FIT / 1000 upsets per Gbit·h at the 2.4 GHz default
        // clock are astronomically small per event; the acceleration
        // factor lifts them into observable-but-valid territory.
        assert!(
            plan.noc_rate > 0.0 && plan.noc_rate < 1.0,
            "{}",
            plan.noc_rate
        );
        assert!(
            plan.mem_rate > 0.0 && plan.mem_rate < 1.0,
            "{}",
            plan.mem_rate
        );
        assert_eq!(plan.mem_stuck_rate, 0.0);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn resume_point_excludes_partial_tail() {
        assert_eq!(resume_point(""), (0, 0));
        assert_eq!(resume_point("{\"cell\":0}\n"), (1, 11));
        assert_eq!(resume_point("{\"cell\":0}\n{\"cell\":1"), (1, 11));
        assert_eq!(resume_point("{\"cell\":0}\n{\"cell\":1}\n"), (2, 22));
    }

    #[test]
    fn validate_prefix_rejects_foreign_files() {
        let s = spec();
        let cells = s.cells();
        assert!(validate_prefix("", &cells).is_ok());
        assert!(validate_prefix("{\"cell\":0}\n{\"cell\":1}\n", &cells).is_ok());
        assert!(validate_prefix("{\"cell\":5}\n", &cells).is_err());
        assert!(validate_prefix("not json\n", &cells).is_err());
        let long = "{\"cell\":0}\n".repeat(cells.len() + 1);
        assert!(validate_prefix(&long, &cells).is_err());
    }
}
