//! Deterministic, seeded fault injection and protection models for the
//! GNNA simulator.
//!
//! The paper models an ideal machine; this crate supplies the
//! *misbehaving* one. A [`FaultPlan`] describes transient-fault rates at
//! three hardware sites — DRAM read bit-flips at the memory
//! controllers, flit corruption/drop on individual mesh links, and
//! injected DNA pipeline bubbles — plus the parameters of the paired
//! protection mechanisms that absorb them:
//!
//! * **SECDED ECC** ([`ecc`]): a functional (39,32) Hamming+parity code
//!   over memory words. Single-bit flips are corrected in place (data
//!   remains bit-exact); double-bit flips are *detected* and repaired by
//!   a re-read with a latency penalty.
//! * **CRC-checked retransmit** ([`crc`]): corrupted or dropped flits
//!   fail their CRC-32 check at the link and are retransmitted after a
//!   per-link exponential backoff, within a bounded retry budget.
//!   Exhausting the budget is *unrecoverable* and must surface as a
//!   structured error, never a hang.
//! * **Watchdog escalation**: stall bubbles are absorbed as pure
//!   latency; pathological cases trip the (configurable) progress
//!   watchdog in `gnna-core`.
//!
//! Everything is deterministic per seed: each site instance owns its own
//! [`SiteInjector`] stream (seeded from the plan seed, the site kind and
//! the instance index), so draws at one site never perturb another and
//! identical seeds reproduce identical fault schedules bit-for-bit.
//!
//! Fault outcomes obey a strict partition invariant, checked by
//! [`FaultCounters::partition_holds`]:
//!
//! ```text
//! injected == corrected + retried + unrecoverable + sdc   (when drained)
//! ```
//!
//! Beyond transient faults, a plan can also describe **permanent**
//! defects — stuck-at bit lines in DRAM words ([`StuckLineModel`],
//! applied on *every* access to an afflicted address rather than
//! sampled per event), dead mesh links (their CRC budget is permanently
//! exhausted, so the router must detour around them), and disabled
//! tiles (their vertex partition is remapped onto survivors) — and an
//! **error pass-through mode** ([`RecoveryMode::Passthrough`]) in which
//! double-bit ECC and CRC failures deliver the corrupted word into the
//! dataflow (counted as `sdc`, silent data corruption) instead of
//! paying a retry.
//!
//! Three orthogonal extensions refine the recovery story:
//!
//! * **Recovery strategies** ([`RecoveryMode`]): `Retry` (the default
//!   protect-and-retry behaviour), `Passthrough` (deliver corruption as
//!   SDC), and `Rollback` — the simulator checkpoints layer-boundary
//!   state every [`FaultPlan::checkpoint_interval_layers`] layers and,
//!   when a protection budget is exhausted, rolls back to the last
//!   checkpoint and replays (counted as `rolled_back`) instead of
//!   failing, up to [`FaultPlan::rollback_budget`] times.
//! * **Selective protection domains**: [`EccDomain`] restricts SECDED
//!   coverage to the static/weights region or the activation region of
//!   DRAM, and [`CrcDomain`] restricts link CRC to data or control
//!   flits. Faults landing outside the protected domain are delivered
//!   corrupted (`sdc`) — the ablation axis for "how much protection
//!   does this deployment need?".
//! * **Physical calibration** ([`FaultPlan::from_physical`]): converts
//!   DRAM upsets/Gbit·h, link FIT, and link BER into per-event
//!   probabilities from the configured clock, read width, and flit
//!   size, so campaign axes can be labeled in deployment units.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod ecc;
pub mod stuck;

pub use stuck::{StuckBit, StuckLineModel};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;

/// A hardware site at which transient faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// DRAM read bit-flips at a memory controller (per read request).
    MemRead,
    /// Flit corruption or drop on a mesh link (per link traversal).
    NocLink,
    /// Injected DNA pipeline bubble (per accepted job).
    DnaStall,
}

impl FaultSite {
    /// Stable small integer used in seed derivation (never reorder).
    const fn id(self) -> u64 {
        match self {
            FaultSite::MemRead => 1,
            FaultSite::NocLink => 2,
            FaultSite::DnaStall => 3,
        }
    }

    /// Snake-case name used for metric prefixes and error messages.
    pub const fn as_str(self) -> &'static str {
        match self {
            FaultSite::MemRead => "mem",
            FaultSite::NocLink => "noc",
            FaultSite::DnaStall => "dna",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A mesh link direction, as seen from the router that owns the
/// outgoing link. The numeric [`index`](MeshDir::index) matches the NoC
/// router port constants (N=0, E=1, S=2, W=3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeshDir {
    /// Towards `y - 1`.
    North,
    /// Towards `x + 1`.
    East,
    /// Towards `y + 1`.
    South,
    /// Towards `x - 1`.
    West,
}

impl MeshDir {
    /// Router output-port index for this direction (N=0, E=1, S=2, W=3).
    pub const fn index(self) -> usize {
        match self {
            MeshDir::North => 0,
            MeshDir::East => 1,
            MeshDir::South => 2,
            MeshDir::West => 3,
        }
    }

    /// Compass letter used in metric keys and error messages.
    pub const fn as_str(self) -> &'static str {
        match self {
            MeshDir::North => "N",
            MeshDir::East => "E",
            MeshDir::South => "S",
            MeshDir::West => "W",
        }
    }
}

impl fmt::Display for MeshDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A permanently dead mesh link: the outgoing link of router `(x, y)`
/// in direction `dir`. Its retransmit budget is treated as permanently
/// exhausted, so routing must detour around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeadLink {
    /// Router x coordinate.
    pub x: usize,
    /// Router y coordinate.
    pub y: usize,
    /// Outgoing direction of the dead link.
    pub dir: MeshDir,
}

impl fmt::Display for DeadLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{}).{}", self.x, self.y, self.dir)
    }
}

/// A structured validation error for a [`FaultPlan`]. Rates must be
/// finite and within `[0, 1]`; out-of-range knobs are *rejected*, never
/// silently clamped.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// A probability knob was NaN, negative, or greater than one.
    InvalidRate {
        /// Name of the offending `FaultPlan` field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The same dead link (or dead tile) was listed twice.
    Duplicate {
        /// Description of the duplicated entry.
        entry: String,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::InvalidRate { field, value } => write!(
                f,
                "fault plan field `{field}` must be a probability in [0, 1], got {value}"
            ),
            FaultPlanError::Duplicate { entry } => {
                write!(f, "fault plan lists {entry} more than once")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// What the simulator does when a protection mechanism gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Protect-and-retry (the default): exhausting a retry budget is a
    /// structured unrecoverable fault.
    #[default]
    Retry,
    /// Error pass-through: uncorrectable errors are delivered into the
    /// dataflow as silent data corruption instead of retried.
    Passthrough,
    /// Checkpoint/rollback: layer-boundary state is snapshotted every
    /// [`FaultPlan::checkpoint_interval_layers`] layers; an otherwise
    /// unrecoverable fault rolls back to the last checkpoint and
    /// replays, within [`FaultPlan::rollback_budget`].
    Rollback,
}

impl RecoveryMode {
    /// Stable lower-case name (CLI values, campaign JSONL).
    pub const fn as_str(self) -> &'static str {
        match self {
            RecoveryMode::Retry => "retry",
            RecoveryMode::Passthrough => "passthrough",
            RecoveryMode::Rollback => "rollback",
        }
    }

    /// Parses a CLI/JSON recovery-mode name.
    pub fn parse(s: &str) -> Option<RecoveryMode> {
        match s {
            "retry" => Some(RecoveryMode::Retry),
            "passthrough" => Some(RecoveryMode::Passthrough),
            "rollback" => Some(RecoveryMode::Rollback),
            _ => None,
        }
    }
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which DRAM region SECDED ECC protects. Faults landing outside the
/// protected region are delivered corrupted and counted as `sdc`.
///
/// The "weights" region is the static read-only prefix of the address
/// space — graph structure plus input features, written once before
/// cycle 0 (the analog of broadcast DNN weights, which this simulator
/// models analytically). Everything above it — intermediate activations
/// and layer outputs — is the "activations" region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EccDomain {
    /// ECC over the whole address space (the default).
    #[default]
    Both,
    /// ECC only on the static/weights region.
    WeightsOnly,
    /// ECC only on the activation region.
    ActivationsOnly,
}

impl EccDomain {
    /// Stable lower-case name (CLI values, campaign JSONL).
    pub const fn as_str(self) -> &'static str {
        match self {
            EccDomain::Both => "both",
            EccDomain::WeightsOnly => "weights",
            EccDomain::ActivationsOnly => "acts",
        }
    }

    /// Parses a CLI/JSON ECC-domain name.
    pub fn parse(s: &str) -> Option<EccDomain> {
        match s {
            "both" => Some(EccDomain::Both),
            "weights" => Some(EccDomain::WeightsOnly),
            "acts" | "activations" => Some(EccDomain::ActivationsOnly),
            _ => None,
        }
    }
}

impl fmt::Display for EccDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which flit traffic link CRC protects. Faults on unprotected flits
/// are undetected: corrupted payloads are delivered (poisoned → `sdc`)
/// and drops are modeled as corruption — an unchecked wire clocks in
/// garbage rather than stalling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrcDomain {
    /// CRC on every flit (the default).
    #[default]
    All,
    /// CRC only on data flits (feature payloads, memory writes).
    DataOnly,
    /// CRC only on control flits (memory read requests, config).
    ControlOnly,
}

impl CrcDomain {
    /// Stable lower-case name (CLI values, campaign JSONL).
    pub const fn as_str(self) -> &'static str {
        match self {
            CrcDomain::All => "all",
            CrcDomain::DataOnly => "data",
            CrcDomain::ControlOnly => "ctrl",
        }
    }

    /// Parses a CLI/JSON CRC-domain name.
    pub fn parse(s: &str) -> Option<CrcDomain> {
        match s {
            "all" => Some(CrcDomain::All),
            "data" => Some(CrcDomain::DataOnly),
            "ctrl" | "control" | "config" => Some(CrcDomain::ControlOnly),
            _ => None,
        }
    }
}

impl fmt::Display for CrcDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Seconds per FIT-denominator: FIT counts failures per 10⁹
/// device-hours, so one FIT is `1 / (1e9 × 3600)` failures per second.
const FIT_DENOM_SECONDS: f64 = 1e9 * 3600.0;

/// Converts a FIT rate (failures per 10⁹ device-hours) into a per-event
/// probability at `events_hz` events per second. A 1000 FIT link
/// clocked at 1 GHz corrupts each flit with probability
/// `1000 / 3.6e12 / 1e9 ≈ 2.78e-19`.
pub fn fit_to_per_event(fit: f64, events_hz: f64) -> f64 {
    if events_hz <= 0.0 {
        return 0.0;
    }
    fit / FIT_DENOM_SECONDS / events_hz
}

/// Converts a DRAM upset rate in upsets per Gbit·hour into a per-read
/// probability for reads of `read_bits` bits issued at `clock_hz`: the
/// per-bit-per-second upset rate times the bits exposed in one access
/// window.
pub fn upsets_per_gbit_hour_to_per_read(upsets: f64, read_bits: u32, clock_hz: f64) -> f64 {
    if clock_hz <= 0.0 {
        return 0.0;
    }
    upsets / FIT_DENOM_SECONDS * f64::from(read_bits) / clock_hz
}

/// Converts a raw bit error rate into a per-flit corruption probability
/// for flits of `flit_bits` bits: `1 - (1 - BER)^bits`.
pub fn ber_to_per_flit(ber: f64, flit_bits: u32) -> f64 {
    1.0 - (1.0 - ber).powi(flit_bits as i32)
}

/// Physically calibrated fault rates, in deployment units. Convert to a
/// per-event [`FaultPlan`] with [`FaultPlan::from_physical`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalRates {
    /// DRAM transient upset rate in upsets per Gbit·hour.
    pub dram_upsets_per_gbit_hour: f64,
    /// Per-link failure rate in FIT (failures per 10⁹ link-hours).
    pub link_fit: f64,
    /// Raw link bit error rate (errors per transmitted bit).
    pub link_ber: f64,
    /// Event clock in Hz (NoC clock for links, controller clock for
    /// DRAM accesses).
    pub clock_hz: f64,
    /// Bits exposed per DRAM read request (a 64-byte line = 512).
    pub read_bits: u32,
    /// Bits per flit (a 64-byte flit = 512).
    pub flit_bits: u32,
    /// Acceleration factor: physical rates are astronomically small at
    /// simulation scale (see `fit_to_per_event`), so campaigns multiply
    /// them up to observe faults in bounded sim time. 1.0 = reality.
    pub acceleration: f64,
}

impl Default for PhysicalRates {
    fn default() -> Self {
        PhysicalRates {
            dram_upsets_per_gbit_hour: 0.0,
            link_fit: 0.0,
            link_ber: 0.0,
            clock_hz: 2.4e9,
            read_bits: 512,
            flit_bits: 512,
            acceleration: 1.0,
        }
    }
}

/// A deterministic fault schedule: per-site rates plus protection-model
/// parameters. Constructed with [`FaultPlan::new`] and the `with_*`
/// builders; an all-zero-rate plan ([`FaultPlan::is_empty`]) must leave
/// the simulator bit-identical to a fault-free run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every site derives its own stream from it.
    pub seed: u64,
    /// Probability a DRAM read suffers a bit-flip (per request).
    pub mem_rate: f64,
    /// Probability a flit link traversal is corrupted/dropped.
    pub noc_rate: f64,
    /// Probability an accepted DNA job suffers a pipeline bubble.
    pub stall_rate: f64,
    /// Fraction of memory faults that flip *two* bits (ECC-detectable
    /// but not correctable; repaired by a penalised re-read).
    pub mem_double_bit_fraction: f64,
    /// Latency penalty in controller cycles for a double-bit re-read.
    pub mem_retry_penalty_cycles: u64,
    /// Fraction of NoC faults that drop the flit outright (the rest are
    /// corrupted in flight); both fail CRC and retransmit.
    pub noc_drop_fraction: f64,
    /// Maximum retransmit attempts per link before the fault is
    /// declared unrecoverable.
    pub noc_retry_budget: u32,
    /// Base retransmit backoff in NoC cycles (doubles per consecutive
    /// retry on the same link, capped at 16× the base).
    pub noc_backoff_cycles: u64,
    /// Bubble length in core cycles injected into a faulted DNA job.
    pub dna_bubble_cycles: u64,
    /// Probability a DRAM *word address* has a permanently stuck bit
    /// line (deterministic per address; applied on every access).
    pub mem_stuck_rate: f64,
    /// Permanently dead mesh links; routing detours around them.
    pub dead_links: Vec<DeadLink>,
    /// Permanently disabled tiles; their vertex partitions are remapped
    /// onto surviving tiles.
    pub dead_tiles: Vec<usize>,
    /// Recovery strategy when protection budgets are exhausted.
    pub recovery: RecoveryMode,
    /// Layer interval between checkpoints under
    /// [`RecoveryMode::Rollback`] (must be ≥ 1).
    pub checkpoint_interval_layers: u64,
    /// Rollbacks allowed before the fault degrades to a structured
    /// unrecoverable error.
    pub rollback_budget: u64,
    /// Re-read attempts allowed per double-bit DRAM error. The default
    /// `u32::MAX` models an always-successful re-read (exact legacy
    /// behaviour, zero extra RNG draws); a finite budget draws re-fault
    /// decisions from a dedicated retry stream so the main schedule is
    /// unperturbed, and exhaustion is unrecoverable.
    pub mem_retry_budget: u32,
    /// DRAM region SECDED protects; faults outside it are `sdc`.
    pub ecc_domain: EccDomain,
    /// Flit traffic link CRC protects; faults outside it are `sdc`.
    pub crc_domain: CrcDomain,
}

impl FaultPlan {
    /// A plan with the given seed, all rates zero, and default
    /// protection parameters.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            mem_rate: 0.0,
            noc_rate: 0.0,
            stall_rate: 0.0,
            mem_double_bit_fraction: 0.25,
            mem_retry_penalty_cycles: 200,
            noc_drop_fraction: 0.5,
            noc_retry_budget: 8,
            noc_backoff_cycles: 4,
            dna_bubble_cycles: 32,
            mem_stuck_rate: 0.0,
            dead_links: Vec::new(),
            dead_tiles: Vec::new(),
            recovery: RecoveryMode::Retry,
            checkpoint_interval_layers: 1,
            rollback_budget: 8,
            mem_retry_budget: u32::MAX,
            ecc_domain: EccDomain::Both,
            crc_domain: CrcDomain::All,
        }
    }

    /// A plan calibrated from physical rates: DRAM upsets/Gbit·h and
    /// link FIT + BER are converted into per-event probabilities from
    /// the configured clock, read width, and flit size (times the
    /// acceleration factor), clamped into `[0, 1]`. Protection
    /// parameters stay at their defaults; chain `with_*` builders to
    /// adjust them.
    pub fn from_physical(seed: u64, phys: &PhysicalRates) -> Self {
        let mem = phys.acceleration
            * upsets_per_gbit_hour_to_per_read(
                phys.dram_upsets_per_gbit_hour,
                phys.read_bits,
                phys.clock_hz,
            );
        let p_fit = fit_to_per_event(phys.link_fit, phys.clock_hz);
        let p_ber = ber_to_per_flit(phys.link_ber, phys.flit_bits);
        // Independent failure sources combine as 1 - ∏(1 - pᵢ), written
        // in the expanded form p₁ + p₂ - p₁p₂ so sub-epsilon physical
        // probabilities (a real 1000 FIT link is ~1e-19 per flit) don't
        // cancel to zero against the 1.0 terms.
        let noc = phys.acceleration * (p_fit + p_ber - p_fit * p_ber);
        FaultPlan::new(seed)
            .with_mem_rate(mem.clamp(0.0, 1.0))
            .with_noc_rate(noc.clamp(0.0, 1.0))
    }

    /// Sets the same fault rate at all three sites.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.mem_rate = rate;
        self.noc_rate = rate;
        self.stall_rate = rate;
        self
    }

    /// Sets the DRAM read-fault rate only.
    pub fn with_mem_rate(mut self, rate: f64) -> Self {
        self.mem_rate = rate;
        self
    }

    /// Sets the NoC link-fault rate only.
    pub fn with_noc_rate(mut self, rate: f64) -> Self {
        self.noc_rate = rate;
        self
    }

    /// Sets the DNA stall-bubble rate only.
    pub fn with_stall_rate(mut self, rate: f64) -> Self {
        self.stall_rate = rate;
        self
    }

    /// Sets the fraction of memory faults that are double-bit.
    pub fn with_double_bit_fraction(mut self, f: f64) -> Self {
        self.mem_double_bit_fraction = f;
        self
    }

    /// Sets the NoC retransmit budget (0 makes every NoC fault
    /// immediately unrecoverable — useful for failure-path tests).
    pub fn with_noc_retry_budget(mut self, budget: u32) -> Self {
        self.noc_retry_budget = budget;
        self
    }

    /// Sets the permanent stuck-bit-line rate over DRAM word addresses.
    pub fn with_mem_stuck_rate(mut self, rate: f64) -> Self {
        self.mem_stuck_rate = rate;
        self
    }

    /// Marks the outgoing link of router `(x, y)` in direction `dir` as
    /// permanently dead.
    pub fn with_dead_link(mut self, x: usize, y: usize, dir: MeshDir) -> Self {
        self.dead_links.push(DeadLink { x, y, dir });
        self
    }

    /// Marks tile `t` as permanently disabled; its vertex partition is
    /// remapped onto surviving tiles.
    pub fn with_dead_tile(mut self, t: usize) -> Self {
        self.dead_tiles.push(t);
        self
    }

    /// Sets the recovery strategy.
    pub fn with_recovery(mut self, mode: RecoveryMode) -> Self {
        self.recovery = mode;
        self
    }

    /// Sets the checkpoint interval in layers (rollback mode only).
    pub fn with_checkpoint_interval(mut self, layers: u64) -> Self {
        self.checkpoint_interval_layers = layers;
        self
    }

    /// Sets the rollback budget (rollback mode only).
    pub fn with_rollback_budget(mut self, budget: u64) -> Self {
        self.rollback_budget = budget;
        self
    }

    /// Sets the per-error DRAM re-read budget. `u32::MAX` (the default)
    /// keeps the legacy always-successful re-read.
    pub fn with_mem_retry_budget(mut self, budget: u32) -> Self {
        self.mem_retry_budget = budget;
        self
    }

    /// Restricts SECDED ECC to a DRAM protection domain.
    pub fn with_ecc_domain(mut self, domain: EccDomain) -> Self {
        self.ecc_domain = domain;
        self
    }

    /// Restricts link CRC to a flit protection domain.
    pub fn with_crc_domain(mut self, domain: CrcDomain) -> Self {
        self.crc_domain = domain;
        self
    }

    /// Validates every probability knob: each must be finite and within
    /// `[0, 1]`, and dead-link / dead-tile lists must be duplicate-free.
    /// Out-of-range values are rejected with a structured
    /// [`FaultPlanError`] — never silently clamped.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let rates = [
            ("mem_rate", self.mem_rate),
            ("noc_rate", self.noc_rate),
            ("stall_rate", self.stall_rate),
            ("mem_double_bit_fraction", self.mem_double_bit_fraction),
            ("noc_drop_fraction", self.noc_drop_fraction),
            ("mem_stuck_rate", self.mem_stuck_rate),
        ];
        for (field, value) in rates {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(FaultPlanError::InvalidRate { field, value });
            }
        }
        // A zero checkpoint interval would never snapshot anything; the
        // rate-error shape is reused so callers see one error type.
        if self.checkpoint_interval_layers == 0 {
            return Err(FaultPlanError::InvalidRate {
                field: "checkpoint_interval_layers",
                value: 0.0,
            });
        }
        for (i, link) in self.dead_links.iter().enumerate() {
            if self.dead_links[..i].contains(link) {
                return Err(FaultPlanError::Duplicate {
                    entry: format!("dead link {link}"),
                });
            }
        }
        for (i, tile) in self.dead_tiles.iter().enumerate() {
            if self.dead_tiles[..i].contains(tile) {
                return Err(FaultPlanError::Duplicate {
                    entry: format!("dead tile {tile}"),
                });
            }
        }
        Ok(())
    }

    /// Whether the plan injects nothing (all transient rates zero and no
    /// permanent defects). Attaching an empty plan must be bit-identical
    /// to attaching none. Pass-through recovery alone does not make a
    /// plan non-empty: with nothing injected there is nothing to pass
    /// through.
    pub fn is_empty(&self) -> bool {
        self.mem_rate <= 0.0
            && self.noc_rate <= 0.0
            && self.stall_rate <= 0.0
            && self.mem_stuck_rate <= 0.0
            && self.dead_links.is_empty()
            && self.dead_tiles.is_empty()
    }
}

/// A per-site-instance deterministic fault stream.
///
/// Each instance (one memory controller, one mesh, one tile's DNA) owns
/// its own xoshiro256++ stream seeded from `(plan seed, site, instance)`
/// via a SplitMix-style mix, so the draw order at one site can never
/// perturb the schedule of another and runs are reproducible per seed.
#[derive(Debug)]
pub struct SiteInjector {
    rng: StdRng,
    rate: f64,
}

impl SiteInjector {
    /// Builds the stream for `instance` of `site` under `plan_seed`.
    pub fn new(plan_seed: u64, site: FaultSite, instance: u64, rate: f64) -> Self {
        let mut h = plan_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(site.id().wrapping_add(1));
        h = h.wrapping_add(instance.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        SiteInjector {
            rng: StdRng::seed_from_u64(h),
            rate,
        }
    }

    /// The configured fault rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// One Bernoulli draw at the configured rate. A zero rate returns
    /// `false` without consuming the stream, so an empty plan leaves the
    /// schedule untouched.
    pub fn fire(&mut self) -> bool {
        self.rate > 0.0 && self.rng.random_f64() < self.rate
    }

    /// One Bernoulli draw at probability `p` (sub-decision after a
    /// fault fires: double-bit vs single-bit, drop vs corrupt).
    pub fn draw_below(&mut self, p: f64) -> bool {
        self.rng.random_f64() < p
    }

    /// A uniform draw in `[0, n)` (bit positions etc.). `n` must be
    /// positive.
    pub fn draw_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.rng.random_range(0..n)
    }

    /// Raw 64-bit draw.
    pub fn draw_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// Fault outcome counters for one site (or an aggregate of sites).
///
/// Every *injected* fault ends in exactly one terminal bucket —
/// `corrected` (absorbed with no retry traffic: ECC single-bit fix, DNA
/// bubble), `retried` (repaired by retransmit/re-read),
/// `unrecoverable` (protection exhausted), `sdc` (pass-through mode
/// delivered the corruption into the dataflow), or `rolled_back`
/// (checkpoint/rollback rescued a budget-exhausted fault by replaying).
/// `corrupted`/`dropped` are *kind* sub-counters of NoC injections, and
/// `retry_cycles` is the cumulative latency overhead charged by retries
/// and backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Faults injected at this site.
    pub injected: u64,
    /// Faults absorbed without retry traffic (ECC single-bit
    /// corrections, DNA bubbles).
    pub corrected: u64,
    /// Faults repaired by a successful retransmit or re-read.
    pub retried: u64,
    /// Faults whose protection budget was exhausted.
    pub unrecoverable: u64,
    /// Silent data corruptions: uncorrectable errors delivered into the
    /// dataflow under pass-through mode.
    pub sdc: u64,
    /// Budget-exhausted faults rescued by checkpoint/rollback replay.
    pub rolled_back: u64,
    /// NoC faults that corrupted a flit in flight (kind sub-counter).
    pub corrupted: u64,
    /// NoC faults that dropped a flit outright (kind sub-counter).
    pub dropped: u64,
    /// Cycles of latency overhead charged by retries and backoff.
    pub retry_cycles: u64,
}

impl FaultCounters {
    /// Faults that reached a terminal outcome.
    pub fn resolved(&self) -> u64 {
        [
            self.corrected,
            self.retried,
            self.unrecoverable,
            self.sdc,
            self.rolled_back,
        ]
        .into_iter()
        .fold(0, u64::saturating_add)
    }

    /// Injected faults still awaiting their outcome (in-flight
    /// retransmits). Zero once the fabric has drained.
    pub fn pending(&self) -> u64 {
        self.injected.saturating_sub(self.resolved())
    }

    /// The partition invariant: every injected fault resolved into
    /// exactly one bucket.
    pub fn partition_holds(&self) -> bool {
        self.injected == self.resolved()
    }

    /// Every counter as `(metric name, slot)`, in declaration order: the
    /// one name list that `{site}.fault.{name}` metric exporters and
    /// parsers share.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 9] {
        [
            ("injected", &mut self.injected),
            ("corrected", &mut self.corrected),
            ("retried", &mut self.retried),
            ("unrecoverable", &mut self.unrecoverable),
            ("sdc", &mut self.sdc),
            ("rolled_back", &mut self.rolled_back),
            ("corrupted", &mut self.corrupted),
            ("dropped", &mut self.dropped),
            ("retry_cycles", &mut self.retry_cycles),
        ]
    }

    /// Every counter as `(metric name, value)`, in the order of
    /// [`FaultCounters::fields_mut`].
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Accumulates `other` into `self` (site → aggregate roll-up),
    /// saturating so a roll-up of parsed counters cannot overflow.
    pub fn merge(&mut self, other: &FaultCounters) {
        for ((_, mine), (_, theirs)) in self.fields_mut().into_iter().zip(other.fields()) {
            *mine = mine.saturating_add(theirs);
        }
    }

    /// Whether any fault was injected.
    pub fn any(&self) -> bool {
        self.injected > 0
    }
}

impl fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} (corrected {}, retried {}, unrecoverable {}, sdc {}",
            self.injected, self.corrected, self.retried, self.unrecoverable, self.sdc,
        )?;
        // Conditional so pre-rollback report text stays byte-identical.
        if self.rolled_back != 0 {
            write!(f, ", rolled back {}", self.rolled_back)?;
        }
        write!(
            f,
            "; corrupted {}, dropped {}; {} retry cycles)",
            self.corrupted, self.dropped, self.retry_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let p = FaultPlan::new(7);
        assert!(p.is_empty());
        assert!(!p.clone().with_rate(0.1).is_empty());
        assert!(!p.clone().with_mem_rate(0.5).is_empty());
        assert!(!p.clone().with_noc_rate(0.5).is_empty());
        assert!(!p.clone().with_mem_stuck_rate(0.01).is_empty());
        assert!(!p.clone().with_dead_link(0, 0, MeshDir::East).is_empty());
        assert!(!p.clone().with_dead_tile(1).is_empty());
        // Pass-through alone injects nothing, so the plan stays empty.
        assert!(p
            .clone()
            .with_recovery(RecoveryMode::Passthrough)
            .is_empty());
        assert!(!p.with_stall_rate(0.5).is_empty());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        assert!(FaultPlan::new(1).validate().is_ok());
        assert!(FaultPlan::new(1).with_rate(1.0).validate().is_ok());
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let err = FaultPlan::new(1).with_mem_rate(bad).validate().unwrap_err();
            match err {
                FaultPlanError::InvalidRate { field, .. } => assert_eq!(field, "mem_rate"),
                other => panic!("unexpected error {other:?}"),
            }
        }
        let err = FaultPlan::new(1)
            .with_mem_stuck_rate(2.0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("mem_stuck_rate"));
        let err = FaultPlan::new(1)
            .with_double_bit_fraction(f64::NAN)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("mem_double_bit_fraction"));
    }

    #[test]
    fn validate_rejects_duplicates() {
        let err = FaultPlan::new(1)
            .with_dead_link(1, 0, MeshDir::East)
            .with_dead_link(1, 0, MeshDir::East)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("dead link (1,0).E"));
        let err = FaultPlan::new(1)
            .with_dead_tile(2)
            .with_dead_tile(2)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("dead tile 2"));
        assert!(FaultPlan::new(1)
            .with_dead_link(1, 0, MeshDir::East)
            .with_dead_link(1, 0, MeshDir::West)
            .with_dead_tile(1)
            .with_dead_tile(2)
            .validate()
            .is_ok());
    }

    #[test]
    fn mesh_dir_indices_match_port_constants() {
        assert_eq!(MeshDir::North.index(), 0);
        assert_eq!(MeshDir::East.index(), 1);
        assert_eq!(MeshDir::South.index(), 2);
        assert_eq!(MeshDir::West.index(), 3);
        assert_eq!(MeshDir::North.to_string(), "N");
    }

    #[test]
    fn sdc_counts_toward_partition_and_display() {
        let c = FaultCounters {
            injected: 4,
            corrected: 1,
            retried: 1,
            unrecoverable: 1,
            sdc: 1,
            rolled_back: 0,
            corrupted: 2,
            dropped: 1,
            retry_cycles: 9,
        };
        assert!(c.partition_holds());
        let s = c.to_string();
        assert!(s.contains("sdc 1"), "{s}");
        assert!(s.contains("corrupted 2"), "{s}");
        assert!(s.contains("dropped 1"), "{s}");
    }

    #[test]
    fn zero_rate_never_fires_and_keeps_stream() {
        let mut inj = SiteInjector::new(1, FaultSite::MemRead, 0, 0.0);
        for _ in 0..128 {
            assert!(!inj.fire());
        }
        // The stream was never consumed: the first real draw matches a
        // fresh injector's.
        let mut fresh = SiteInjector::new(1, FaultSite::MemRead, 0, 0.0);
        assert_eq!(inj.draw_u64(), fresh.draw_u64());
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let seq = |seed: u64| {
            let mut inj = SiteInjector::new(seed, FaultSite::NocLink, 3, 0.3);
            (0..256).map(|_| inj.fire()).collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
    }

    #[test]
    fn sites_and_instances_get_distinct_streams() {
        let first = |site, inst| SiteInjector::new(9, site, inst, 1.0).draw_u64();
        assert_ne!(
            first(FaultSite::MemRead, 0),
            first(FaultSite::NocLink, 0),
            "sites must not share a stream"
        );
        assert_ne!(
            first(FaultSite::MemRead, 0),
            first(FaultSite::MemRead, 1),
            "instances must not share a stream"
        );
    }

    #[test]
    fn fire_rate_is_roughly_calibrated() {
        let mut inj = SiteInjector::new(1234, FaultSite::DnaStall, 0, 0.25);
        let hits = (0..10_000).filter(|_| inj.fire()).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn counters_partition_and_merge() {
        let mut a = FaultCounters {
            injected: 3,
            corrected: 1,
            retried: 1,
            unrecoverable: 1,
            ..FaultCounters::default()
        };
        assert!(a.partition_holds());
        assert_eq!(a.pending(), 0);
        let b = FaultCounters {
            injected: 2,
            corrected: 1,
            retry_cycles: 10,
            ..FaultCounters::default()
        };
        assert!(!b.partition_holds());
        assert_eq!(b.pending(), 1);
        a.merge(&b);
        assert_eq!(a.injected, 5);
        assert_eq!(a.resolved(), 4);
        assert_eq!(a.retry_cycles, 10);
        assert!(a.any());
        assert!(!FaultCounters::default().any());
        assert!(a.to_string().contains("injected 5"));
    }

    #[test]
    fn recovery_mode_names_round_trip() {
        for m in [
            RecoveryMode::Retry,
            RecoveryMode::Passthrough,
            RecoveryMode::Rollback,
        ] {
            assert_eq!(RecoveryMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(RecoveryMode::parse("bogus"), None);
    }

    #[test]
    fn domain_names_round_trip() {
        for d in [
            EccDomain::Both,
            EccDomain::WeightsOnly,
            EccDomain::ActivationsOnly,
        ] {
            assert_eq!(EccDomain::parse(d.as_str()), Some(d));
        }
        for d in [CrcDomain::All, CrcDomain::DataOnly, CrcDomain::ControlOnly] {
            assert_eq!(CrcDomain::parse(d.as_str()), Some(d));
        }
        assert_eq!(EccDomain::parse("nope"), None);
        assert_eq!(CrcDomain::parse("nope"), None);
    }

    #[test]
    fn validate_rejects_zero_checkpoint_interval() {
        let err = FaultPlan::new(1)
            .with_checkpoint_interval(0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("checkpoint_interval_layers"));
        assert!(FaultPlan::new(1)
            .with_checkpoint_interval(3)
            .validate()
            .is_ok());
    }

    #[test]
    fn physical_calibration_matches_the_worked_example() {
        // 1000 FIT at 1 GHz: 1000 / (1e9 × 3600) failures/s over 1e9
        // events/s ≈ 2.78e-19 per flit traversal.
        let p = fit_to_per_event(1000.0, 1e9);
        assert!((p - 2.7777e-19).abs() / p < 1e-3, "{p}");
        // 10 upsets/Gbit·h over 512-bit reads at 1 GHz.
        let m = upsets_per_gbit_hour_to_per_read(10.0, 512, 1e9);
        assert!((m - 10.0 / 3.6e12 * 512.0 / 1e9).abs() / m < 1e-12, "{m}");
        // BER 1e-12 over a 512-bit flit ≈ 5.12e-10.
        let b = ber_to_per_flit(1e-12, 512);
        assert!((b - 5.12e-10).abs() / b < 1e-3, "{b}");
        // Zero clock never divides by zero.
        assert_eq!(fit_to_per_event(1000.0, 0.0), 0.0);
        assert_eq!(upsets_per_gbit_hour_to_per_read(10.0, 512, 0.0), 0.0);

        // An accelerated plan lands in [0, 1] and validates.
        let phys = PhysicalRates {
            dram_upsets_per_gbit_hour: 10.0,
            link_fit: 1000.0,
            link_ber: 1e-12,
            clock_hz: 1e9,
            acceleration: 1e6,
            ..PhysicalRates::default()
        };
        let plan = FaultPlan::from_physical(9, &phys);
        assert!(plan.validate().is_ok());
        assert!(plan.mem_rate > 0.0 && plan.mem_rate <= 1.0);
        assert!(plan.noc_rate > 0.0 && plan.noc_rate <= 1.0);
        // Saturating acceleration clamps to 1.
        let sat = FaultPlan::from_physical(
            9,
            &PhysicalRates {
                acceleration: 1e40,
                ..phys
            },
        );
        assert_eq!(sat.mem_rate, 1.0);
        assert_eq!(sat.noc_rate, 1.0);
    }

    #[test]
    fn rolled_back_counts_toward_partition() {
        let mut c = FaultCounters {
            injected: 3,
            corrected: 1,
            retried: 1,
            rolled_back: 1,
            ..FaultCounters::default()
        };
        assert!(c.partition_holds());
        c.rolled_back = 0;
        assert!(!c.partition_holds());
        assert_eq!(c.pending(), 1);
        let mut agg = FaultCounters::default();
        agg.merge(&FaultCounters {
            injected: 2,
            rolled_back: 2,
            ..FaultCounters::default()
        });
        assert_eq!(agg.rolled_back, 2);
        assert!(agg.partition_holds());
    }

    #[test]
    fn display_hides_rolled_back_at_zero() {
        let base = FaultCounters {
            injected: 2,
            corrected: 1,
            retried: 1,
            ..FaultCounters::default()
        };
        assert!(!base.to_string().contains("rolled back"));

        let rb = FaultCounters {
            rolled_back: 3,
            injected: 3,
            ..FaultCounters::default()
        };
        assert!(rb.to_string().contains("rolled back 3"));
    }

    #[test]
    fn draw_range_stays_in_bounds() {
        let mut inj = SiteInjector::new(5, FaultSite::MemRead, 0, 1.0);
        for _ in 0..256 {
            assert!(inj.draw_range(39) < 39);
        }
    }
}
