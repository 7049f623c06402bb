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

use crate::accuracy::{run_with_faults, FaultRun};
use crate::{build_case, BenchCase, BenchError, Scale};
use gnna_core::config::AcceleratorConfig;
use gnna_core::energy::EnergyModel;
use gnna_core::stats::RecoverySummary;
use gnna_executor::{Executor, ExecutorError};
use gnna_faults::{CrcDomain, EccDomain, FaultPlan, MeshDir, PhysicalRates, RecoveryMode};
use gnna_models::ModelKind;
use gnna_telemetry::energy::FJ_PER_PJ;
use gnna_telemetry::json::{self, JsonValue};
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

/// When a record field is written and what reading it demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Emit {
    /// Always written; a line without it is refused.
    Required,
    /// Always written; read as its default when absent.
    Always,
    /// Written only when it differs from its default, so legacy grids
    /// (fully protected domains, per-event rates) keep producing
    /// byte-identical records.
    NonDefault,
    /// The recovery group: all of it is written when any of it differs
    /// from its default (that is, when the cell took checkpoints).
    Recovery,
}

/// A mutable view of one record field, by JSON type.
enum Slot<'a> {
    U64(&'a mut u64),
    F64(&'a mut f64),
    Str(&'a mut String),
}

impl Slot<'_> {
    fn is_default(&self) -> bool {
        match self {
            Slot::U64(v) => **v == 0,
            Slot::F64(v) => **v == 0.0,
            Slot::Str(v) => v.is_empty(),
        }
    }
}

/// Declares [`CampaignRecord`] and its one field list
/// (`CampaignRecord::fields_mut`), so each field's name, type and
/// emission rule is stated once.
macro_rules! campaign_record {
    ($($(#[$doc:meta])* $name:ident: $ty:ident = $emit:ident,)*) => {
        /// One `gnna-campaign` JSONL record: what [`render_cell`] writes
        /// and [`parse_campaign_jsonl`] reads back.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct CampaignRecord {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl CampaignRecord {
            /// Every field as `(JSON key, slot, emission rule)`, in
            /// record order.
            fn fields_mut(&mut self) -> Vec<(&'static str, Slot<'_>, Emit)> {
                vec![$((stringify!($name), campaign_record!(@slot $ty, self.$name), Emit::$emit),)*]
            }
        }
    };
    (@slot u64, $f:expr) => { Slot::U64(&mut $f) };
    (@slot f64, $f:expr) => { Slot::F64(&mut $f) };
    (@slot String, $f:expr) => { Slot::Str(&mut $f) };
}

campaign_record! {
    /// Cell index in the canonical grid order.
    cell: u64 = Always,
    /// Model family name (`GCN`, `GAT`, `MPNN`, `PGNN`).
    model: String = Required,
    /// Input dataset name.
    input: String = Required,
    /// Accelerator configuration name (Table VI row).
    config: String = Always,
    /// Protection mode (`protected`, `passthrough`, `degraded`, `rollback`).
    mode: String = Required,
    /// Swept fault rate (in `rate_unit` units).
    rate: f64 = Required,
    /// Fault-plan seed.
    seed: u64 = Always,
    /// `"ok"` or `"unrecoverable"`.
    status: String = Required,
    /// Faulting site for unrecoverable cells (empty otherwise).
    site: String = Always,
    /// Fault message for unrecoverable cells (empty otherwise).
    msg: String = Always,
    /// End-to-end NoC-clock cycles of the run (0 if unrecoverable).
    total_cycles: u64 = Always,
    /// Total injected faults across all sites.
    injected: u64 = Always,
    /// Faults corrected in place.
    corrected: u64 = Always,
    /// Faults recovered by a retry.
    retried: u64 = Always,
    /// Faults no protection recovered.
    unrecoverable: u64 = Always,
    /// Silent data corruptions (pass-through deliveries).
    sdc: u64 = Always,
    /// Memory-site injections.
    mem_injected: u64 = Always,
    /// Memory-site SDCs.
    mem_sdc: u64 = Always,
    /// NoC-site injections.
    noc_injected: u64 = Always,
    /// NoC-site SDCs.
    noc_sdc: u64 = Always,
    /// Dead tiles configured for the cell.
    dead_tiles: u64 = Always,
    /// Dead mesh links configured for the cell.
    dead_links: u64 = Always,
    /// Vertices remapped off dead tiles.
    remapped_vertices: u64 = Always,
    /// Output rows graded by the accuracy harness.
    rows: u64 = Always,
    /// Output elements graded.
    elements: u64 = Always,
    /// Rows whose top-1 label flipped vs the functional reference.
    label_flips: u64 = Always,
    /// Non-finite output elements.
    nonfinite: u64 = Always,
    /// Maximum per-element relative error.
    max_rel_err: f64 = Always,
    /// Mean per-element relative error.
    mean_rel_err: f64 = Always,
    /// Selective protection domain (`ecc/crc` label; empty for the
    /// fully protected default).
    domain: String = NonDefault,
    /// Unit of the `rate` field (empty for per-event probabilities;
    /// `"fit"` for physically calibrated sweeps).
    rate_unit: String = NonDefault,
    /// Checkpoints taken under rollback recovery.
    checkpoints: u64 = Recovery,
    /// Rollbacks performed under rollback recovery.
    rollbacks: u64 = Recovery,
    /// Cycles discarded and re-executed by rollbacks.
    replayed_cycles: u64 = Recovery,
    /// Checkpoint/rollback traffic energy in integer picojoules.
    checkpoint_pj: u64 = Recovery,
}

impl CampaignRecord {
    /// `model:input` benchmark label.
    pub fn benchmark(&self) -> String {
        format!("{}:{}", self.model, self.input)
    }

    /// Mode label with the protection domain folded in (`passthrough`,
    /// or `passthrough[weights/all]` for a non-default domain), so
    /// domain sweeps don't collapse into one aggregation group.
    pub fn mode_label(&self) -> String {
        if self.domain.is_empty() {
            self.mode.clone()
        } else {
            format!("{}[{}]", self.mode, self.domain)
        }
    }

    /// Fraction of graded rows whose top-1 label flipped.
    pub fn flip_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.label_flips as f64 / self.rows as f64
        }
    }

    /// The record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut copy = self.clone();
        let fields = copy.fields_mut();
        let recovery = fields
            .iter()
            .any(|(_, slot, emit)| *emit == Emit::Recovery && !slot.is_default());
        let mut out = String::from("{");
        for (key, slot, emit) in fields {
            let skip = match emit {
                Emit::NonDefault => slot.is_default(),
                Emit::Recovery => !recovery,
                Emit::Required | Emit::Always => false,
            };
            if skip {
                continue;
            }
            if out.len() > 1 {
                out.push(',');
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            match slot {
                Slot::U64(v) => out.push_str(&v.to_string()),
                Slot::F64(v) => out.push_str(&json::number(*v)),
                Slot::Str(v) => {
                    out.push('"');
                    json::escape_into(&mut out, v);
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }
}

/// Parse a `gnna-campaign` JSONL file into records (one per line).
///
/// # Errors
///
/// Returns a `"line N: …"` message for unparsable lines or lines missing
/// a required field.
pub fn parse_campaign_jsonl(text: &str) -> Result<Vec<CampaignRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let mut record = CampaignRecord::default();
        for (key, slot, emit) in record.fields_mut() {
            let v = doc.get(key);
            let found = match slot {
                Slot::U64(f) => v.and_then(JsonValue::as_u64).map(|v| *f = v),
                Slot::F64(f) => v.and_then(JsonValue::as_f64).map(|v| *f = v),
                Slot::Str(f) => v.and_then(JsonValue::as_str).map(|v| *f = v.to_string()),
            };
            if found.is_none() && emit == Emit::Required {
                return Err(format!("line {}: missing field {key}", i + 1));
            }
        }
        out.push(record);
    }
    Ok(out)
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
    let mut r = CampaignRecord {
        cell: cell.index as u64,
        model: cell.model.name().to_string(),
        input: cell.input.to_string(),
        config: spec.config.name.clone(),
        mode: cell.mode.as_str().to_string(),
        rate: cell.rate,
        seed: cell.seed,
        domain: cell.domain_label().unwrap_or_default(),
        ..CampaignRecord::default()
    };
    if spec.rate_unit != RateUnit::PerEvent {
        r.rate_unit = spec.rate_unit.as_str().to_string();
    }
    match run_with_faults(case, &spec.config, &plan)? {
        FaultRun::Unrecoverable { site, msg } => {
            r.status = "unrecoverable".to_string();
            r.site = site;
            r.msg = msg;
        }
        FaultRun::Completed { report, accuracy } => {
            r.status = "ok".to_string();
            let (res, deg) = (report.resilience, report.degraded);
            let total = res.total();
            r.total_cycles = report.total_cycles;
            (r.injected, r.corrected, r.retried) = (total.injected, total.corrected, total.retried);
            (r.unrecoverable, r.sdc) = (total.unrecoverable, total.sdc);
            (r.mem_injected, r.mem_sdc) = (res.mem.injected, res.mem.sdc);
            (r.noc_injected, r.noc_sdc) = (res.noc.injected, res.noc.sdc);
            (r.dead_tiles, r.dead_links) = (deg.dead_tiles, deg.dead_links);
            r.remapped_vertices = deg.remapped_vertices;
            (r.rows, r.elements) = (accuracy.rows, accuracy.elements);
            (r.label_flips, r.nonfinite) = (accuracy.label_flips, accuracy.nonfinite);
            (r.max_rel_err, r.mean_rel_err) = (accuracy.max_rel_err, accuracy.mean_rel_err);
            let rec = report.recovery;
            if rec.any() {
                (r.checkpoints, r.rollbacks) = (rec.checkpoints, rec.rollbacks);
                r.replayed_cycles = rec.replayed_cycles;
                r.checkpoint_pj = checkpoint_pj(&rec);
            }
        }
    }
    Ok(r.to_json())
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
