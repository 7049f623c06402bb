//! Simulation reports: the measurements Figures 8 and 10 are built from.

use gnna_faults::FaultCounters;
use gnna_telemetry::energy::CostClass;
pub use gnna_telemetry::energy::EnergyCharge;
use gnna_telemetry::KeyFamily;
use std::fmt;

/// Ledger site of checkpoint/rollback traffic.
pub const CHECKPOINT_SITE: &str = "checkpoint";

// The metric keys `System::harvest_metrics` writes and `gnna-report`
// reads, declared once: both build and parse every key through these
// items. The `mem{i}.*` and `noc.*` families are declared by `gnna-mem`
// and `gnna-noc`, `host.profile.*` by the host profiler.

/// Master (NoC) cycles of the whole run.
pub const TOTAL_CYCLES_KEY: &str = "system.total_cycles";
/// Master cycles of CONFIG broadcasts and barriers.
pub const CONFIG_CYCLES_KEY: &str = "system.config_cycles";
/// NoC-to-core clock divider.
pub const CLOCK_DIVIDER_KEY: &str = "system.clock_divider";
/// Core clock gauge, Hz.
pub const CORE_CLOCK_HZ_KEY: &str = "system.core_clock_hz";
/// NoC clock gauge, Hz.
pub const NOC_CLOCK_HZ_KEY: &str = "system.noc_clock_hz";
/// Tile `i`'s scope: `tile{i}.{name}` over [`TileCounters::fields`], its
/// fault counters and its energy sites.
pub const TILE_KEYS: KeyFamily = KeyFamily::new("tile", ".");
/// The per-cause stall fields within a tile scope, `stall.{cause}` (a
/// [`StallCause::as_str`]).
pub const STALL_KEYS: KeyFamily = KeyFamily::new("stall.", "");
/// An on-tile energy site within a tile scope, `energy.{site}_pj` over
/// [`TileCounters::energy`].
pub const TILE_ENERGY_KEYS: KeyFamily = KeyFamily::new("energy.", "_pj");
/// A system-level energy site, `system.energy.{site}_pj` (the
/// [`CHECKPOINT_SITE`]).
pub const SYSTEM_ENERGY_KEYS: KeyFamily = KeyFamily::new("system.energy.", "_pj");
/// Layer `k`'s share of the energy total, `system.energy.layer{k}_pj`.
pub const LAYER_ENERGY_KEYS: KeyFamily = KeyFamily::new("system.energy.layer", "_pj");
/// The run's energy total; every per-site family sums to it exactly.
pub const TOTAL_ENERGY_KEY: &str = "system.energy.total_pj";
/// Site `s`'s fault counters, `{s}.fault.{counter}` over
/// [`FaultCounters::fields`] (sites: `tile{i}`, `mem{i}`, `noc`).
pub const FAULT_KEYS: KeyFamily = KeyFamily::new("", ".fault.");

/// Why a GPE could not make forward progress on a given core cycle.
///
/// Every non-busy GPE cycle is charged to exactly **one** cause, so the
/// per-cause counters partition `idle + stall` cycles exactly (enforced
/// by the `stall_causes_partition_blocked_cycles` invariant test). This
/// is the taxonomy behind the paper's Fig. 9/10-style bottleneck
/// attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// A thread is blocked on an outstanding memory response and no
    /// other thread is runnable.
    WaitingMem,
    /// The GPE's NoC outbox is full (no injection credit downstream).
    WaitingNocCredit,
    /// DNQ entry allocation failed while the DNA was idle: the queue
    /// itself is the bottleneck.
    DnqFull,
    /// DNQ entry allocation failed while the DNA was busy: dense
    /// compute is the bottleneck and the queue is full behind it.
    DnaBusy,
    /// AGG slot allocation failed (aggregation hazard / slot pressure).
    AggHazard,
    /// Waiting on the scoreboard (readout barrier ownership spin).
    BoardWait,
    /// Nothing to do: no runnable thread, no blocked thread, no new
    /// vertex available.
    NoWork,
}

impl StallCause {
    /// Number of distinct causes (array dimension for per-cause counters).
    pub const COUNT: usize = 7;

    /// All causes in canonical (counter-array) order.
    pub const ALL: [StallCause; Self::COUNT] = [
        StallCause::WaitingMem,
        StallCause::WaitingNocCredit,
        StallCause::DnqFull,
        StallCause::DnaBusy,
        StallCause::AggHazard,
        StallCause::BoardWait,
        StallCause::NoWork,
    ];

    /// Canonical index into a `[u64; StallCause::COUNT]` counter array.
    pub const fn index(self) -> usize {
        match self {
            StallCause::WaitingMem => 0,
            StallCause::WaitingNocCredit => 1,
            StallCause::DnqFull => 2,
            StallCause::DnaBusy => 3,
            StallCause::AggHazard => 4,
            StallCause::BoardWait => 5,
            StallCause::NoWork => 6,
        }
    }

    /// Snake-case name used for metric suffixes (`tileN.stall.<name>`).
    pub const fn as_str(self) -> &'static str {
        match self {
            StallCause::WaitingMem => "waiting_mem",
            StallCause::WaitingNocCredit => "waiting_noc_credit",
            StallCause::DnqFull => "dnq_full",
            StallCause::DnaBusy => "dna_busy",
            StallCause::AggHazard => "agg_hazard",
            StallCause::BoardWait => "board_wait",
            StallCause::NoWork => "no_work",
        }
    }

    /// Pre-formatted trace-event name (static so the GPE hot path never
    /// allocates when emitting a stall instant).
    pub const fn event_name(self) -> &'static str {
        match self {
            StallCause::WaitingMem => "gpe_stall:waiting_mem",
            StallCause::WaitingNocCredit => "gpe_stall:waiting_noc_credit",
            StallCause::DnqFull => "gpe_stall:dnq_full",
            StallCause::DnaBusy => "gpe_stall:dna_busy",
            StallCause::AggHazard => "gpe_stall:agg_hazard",
            StallCause::BoardWait => "gpe_stall:board_wait",
            StallCause::NoWork => "gpe_stall:no_work",
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-layer timing breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTiming {
    /// Layer name.
    pub name: String,
    /// Master (NoC) cycles the layer's execution phase took.
    pub cycles: u64,
    /// Master cycles charged to its CONFIG broadcast and barrier.
    pub config_cycles: u64,
}

/// Per-tile module counters: every `tileN.*` counter the harvest
/// writes, read from the tile's modules in one place.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TileCounters {
    /// Tile index (row-major over the topology's tile coordinates).
    pub tile: usize,
    /// GPE op cycles.
    pub gpe_op_cycles: u64,
    /// GPE thread-switch cycles.
    pub gpe_switch_cycles: u64,
    /// GPE idle cycles.
    pub gpe_idle_cycles: u64,
    /// GPE cycles stalled on memory/queue backpressure.
    pub gpe_stall_cycles: u64,
    /// Vertices retired by this tile's GPE.
    pub gpe_vertices_done: u64,
    /// Memory reads the GPE issued.
    pub gpe_reads_issued: u64,
    /// Blocked (idle + stall) GPE cycles attributed per [`StallCause`],
    /// indexed by [`StallCause::index`]. Sums to
    /// `gpe_idle_cycles + gpe_stall_cycles` exactly.
    pub gpe_stall_by_cause: [u64; StallCause::COUNT],
    /// Contributions received by AGG.
    pub agg_contributions: u64,
    /// Words combined by AGG ALUs.
    pub agg_words_combined: u64,
    /// Aggregations completed.
    pub agg_completed: u64,
    /// AGG busy core-cycles.
    pub agg_busy_cycles: u64,
    /// AGG slot-allocation rejections (backpressure events).
    pub agg_alloc_failures: u64,
    /// Cycles AGG could not ingest an arriving contribution.
    pub agg_ingest_stalls: u64,
    /// Entries enqueued into the DNQ.
    pub dnq_enqueued: u64,
    /// Entries handed from DNQ to DNA.
    pub dnq_dequeued: u64,
    /// DNQ virtual-queue switches.
    pub dnq_switches: u64,
    /// Words filled into DNQ entries.
    pub dnq_fill_words: u64,
    /// DNQ entry-allocation failures.
    pub dnq_alloc_failures: u64,
    /// Cycles a DNQ head entry waited for the DNA.
    pub dnq_head_wait_cycles: u64,
    /// DNA busy core-cycles.
    pub dna_busy_cycles: u64,
    /// DNA idle core-cycles.
    pub dna_idle_cycles: u64,
    /// DNA cycles stalled on a full output path.
    pub dna_output_stall_cycles: u64,
    /// DNA entries processed.
    pub dna_entries: u64,
    /// MACs executed by the DNA.
    pub dna_macs: u64,
}

impl TileCounters {
    /// Every counter as `(metric suffix, slot)`: the one name list the
    /// `tileN.{suffix}` exporter and the report parser share.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 30] {
        let [waiting_mem, waiting_noc_credit, dnq_full, dna_busy, agg_hazard, board_wait, no_work] =
            &mut self.gpe_stall_by_cause;
        [
            ("gpe.op_cycles", &mut self.gpe_op_cycles),
            ("gpe.switch_cycles", &mut self.gpe_switch_cycles),
            ("gpe.idle_cycles", &mut self.gpe_idle_cycles),
            ("gpe.stall_cycles", &mut self.gpe_stall_cycles),
            ("gpe.vertices_done", &mut self.gpe_vertices_done),
            ("gpe.reads_issued", &mut self.gpe_reads_issued),
            ("stall.waiting_mem", waiting_mem),
            ("stall.waiting_noc_credit", waiting_noc_credit),
            ("stall.dnq_full", dnq_full),
            ("stall.dna_busy", dna_busy),
            ("stall.agg_hazard", agg_hazard),
            ("stall.board_wait", board_wait),
            ("stall.no_work", no_work),
            ("agg.contributions", &mut self.agg_contributions),
            ("agg.words_combined", &mut self.agg_words_combined),
            ("agg.completed", &mut self.agg_completed),
            ("agg.busy_cycles", &mut self.agg_busy_cycles),
            ("agg.alloc_failures", &mut self.agg_alloc_failures),
            ("agg.ingest_stalls", &mut self.agg_ingest_stalls),
            ("dnq.enqueued", &mut self.dnq_enqueued),
            ("dnq.dequeued", &mut self.dnq_dequeued),
            ("dnq.switches", &mut self.dnq_switches),
            ("dnq.fill_words", &mut self.dnq_fill_words),
            ("dnq.alloc_failures", &mut self.dnq_alloc_failures),
            ("dnq.head_wait_cycles", &mut self.dnq_head_wait_cycles),
            ("dna.busy_cycles", &mut self.dna_busy_cycles),
            ("dna.idle_cycles", &mut self.dna_idle_cycles),
            ("dna.output_stall_cycles", &mut self.dna_output_stall_cycles),
            ("dna.entries", &mut self.dna_entries),
            ("dna.macs", &mut self.dna_macs),
        ]
    }

    /// Every counter as `(metric suffix, value)`, in the order of
    /// [`TileCounters::fields_mut`].
    pub fn fields(&self) -> [(&'static str, u64); 30] {
        let mut copy = self.clone();
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Every energy charge of this tile, in the ledger's order (which
    /// decides `apportion_pj` tie-breaks). The two scratchpads share the
    /// `sram` site: an AGG combined word is a partial read, a partial
    /// write and a contribution read; a DNQ fill word is an entry write
    /// plus a dequeue read.
    pub fn energy(&self) -> [EnergyCharge; 4] {
        [
            ("dna", CostClass::MacOp, self.dna_macs),
            ("agg", CostClass::MacOp, self.agg_words_combined),
            (
                "sram",
                CostClass::SramWord,
                3 * self.agg_words_combined + 2 * self.dnq_fill_words,
            ),
            ("gpe", CostClass::GpeOp, self.gpe_op_cycles),
        ]
    }
}

/// Aggregated fault-injection outcomes per hardware site. All zeros
/// when fault injection is not attached (or an empty plan is), so a
/// fault-free report is bit-identical to a pre-fault-subsystem one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceSummary {
    /// DRAM read bit-flips at the memory controllers (ECC-protected).
    pub mem: FaultCounters,
    /// Flit corruption/drops on mesh links (CRC + retransmit).
    pub noc: FaultCounters,
    /// Injected DNA pipeline bubbles (absorbed as latency).
    pub dna: FaultCounters,
}

impl ResilienceSummary {
    /// Roll-up of all three sites.
    pub fn total(&self) -> FaultCounters {
        let mut t = self.mem;
        t.merge(&self.noc);
        t.merge(&self.dna);
        t
    }

    /// Whether any fault was injected anywhere.
    pub fn any(&self) -> bool {
        self.mem.any() || self.noc.any() || self.dna.any()
    }

    /// Whether every site's partition invariant holds
    /// (`injected == corrected + retried + unrecoverable`).
    pub fn partition_holds(&self) -> bool {
        self.mem.partition_holds() && self.noc.partition_holds() && self.dna.partition_holds()
    }
}

impl fmt::Display for ResilienceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mem [{}], noc [{}], dna [{}]",
            self.mem, self.noc, self.dna
        )
    }
}

/// Graceful-degradation outcomes: what the system did to keep running
/// in spite of *permanent* faults (dead tiles, dead mesh links). All
/// zeros when no permanent fault is configured, so healthy reports are
/// bit-identical to ones predating the degradation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradedSummary {
    /// Tiles disabled by the fault plan (their partitions were remapped).
    pub dead_tiles: u64,
    /// Mesh links removed by the fault plan (traffic detours around them).
    pub dead_links: u64,
    /// Vertices whose owning tile changed versus the healthy layout.
    pub remapped_vertices: u64,
}

impl DegradedSummary {
    /// Every counter as `(metric suffix, slot)`: the one name list of the
    /// `system.degraded.{suffix}` family.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 3] {
        [
            ("dead_tiles", &mut self.dead_tiles),
            ("dead_links", &mut self.dead_links),
            ("remapped_vertices", &mut self.remapped_vertices),
        ]
    }

    /// Every counter as `(metric suffix, value)`, in the order of
    /// [`DegradedSummary::fields_mut`].
    pub fn fields(&self) -> [(&'static str, u64); 3] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Whether the run executed in a degraded configuration at all.
    pub fn any(&self) -> bool {
        self.fields().iter().any(|&(_, v)| v != 0)
    }
}

impl fmt::Display for DegradedSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} dead tiles, {} dead links, {} vertices remapped",
            self.dead_tiles, self.dead_links, self.remapped_vertices
        )
    }
}

/// Checkpoint/rollback recovery outcomes. All zeros when the rollback
/// recovery mode is not configured, so legacy reports are bit-identical
/// to ones predating the checkpoint subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoverySummary {
    /// Charged checkpoints taken at layer boundaries (the free snapshot
    /// of the pristine inputs at run start is not counted).
    pub checkpoints: u64,
    /// Architectural state bytes captured per the checkpoint cost model
    /// (the mutable activation region), summed over checkpoints.
    pub checkpoint_bytes: u64,
    /// Master cycles spent draining checkpoint state to spare DRAM
    /// (and restoring it on rollback), included in `total_cycles`.
    pub checkpoint_cycles: u64,
    /// Rollbacks performed after otherwise-unrecoverable faults.
    pub rollbacks: u64,
    /// Master cycles of discarded forward progress replayed after
    /// rollbacks (fault cycle minus last checkpoint/restart cycle).
    pub replayed_cycles: u64,
    /// Scratchpad words staged through SRAM by checkpoint traffic
    /// (charged to the `SramWord` energy class).
    pub checkpoint_sram_words: u64,
    /// DRAM bytes moved by checkpoint capture + rollback restore
    /// (charged to the `DramByte` energy class).
    pub checkpoint_dram_bytes: u64,
    /// NoC byte-hops charged for moving checkpoint state to the memory
    /// controllers (charged to the `NocByteHop` energy class).
    pub checkpoint_noc_byte_hops: u64,
}

impl RecoverySummary {
    /// Every counter as `(metric suffix, slot)`: the one name list of the
    /// `system.recovery.{suffix}` family.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 8] {
        [
            ("checkpoints", &mut self.checkpoints),
            ("checkpoint_bytes", &mut self.checkpoint_bytes),
            ("checkpoint_cycles", &mut self.checkpoint_cycles),
            ("rollbacks", &mut self.rollbacks),
            ("replayed_cycles", &mut self.replayed_cycles),
            ("checkpoint_sram_words", &mut self.checkpoint_sram_words),
            ("checkpoint_dram_bytes", &mut self.checkpoint_dram_bytes),
            (
                "checkpoint_noc_byte_hops",
                &mut self.checkpoint_noc_byte_hops,
            ),
        ]
    }

    /// Every counter as `(metric suffix, value)`, in the order of
    /// [`RecoverySummary::fields_mut`].
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Whether the recovery subsystem did anything at all this run.
    pub fn any(&self) -> bool {
        self.fields().iter().any(|&(_, v)| v != 0)
    }

    /// Every energy charge of checkpoint/rollback traffic, all at the
    /// [`CHECKPOINT_SITE`].
    pub fn energy(&self) -> [EnergyCharge; 3] {
        [
            (CostClass::SramWord, self.checkpoint_sram_words),
            (CostClass::NocByteHop, self.checkpoint_noc_byte_hops),
            (CostClass::DramByte, self.checkpoint_dram_bytes),
        ]
        .map(|(class, n)| (CHECKPOINT_SITE, class, n))
    }
}

impl fmt::Display for RecoverySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} checkpoints ({} bytes, {} cycles), {} rollbacks, {} replayed cycles",
            self.checkpoints,
            self.checkpoint_bytes,
            self.checkpoint_cycles,
            self.rollbacks,
            self.replayed_cycles
        )
    }
}

/// The result of simulating one inference.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Configuration name (Table VI row).
    pub config_name: String,
    /// Core clock in Hz.
    pub core_clock_hz: f64,
    /// NoC/memory clock in Hz.
    pub noc_clock_hz: f64,
    /// Integer master-cycles-per-core-cycle ratio (1, 2 or 4 in §VI).
    /// Stored so derived cycle counts use exact integer math instead of
    /// a lossy float conversion through the clock frequencies.
    pub clock_divider: u64,
    /// Total master cycles, including CONFIG/barrier overhead.
    pub total_cycles: u64,
    /// Master cycles spent in CONFIG broadcasts and barriers.
    pub config_cycles: u64,
    /// Per-layer breakdown.
    pub layers: Vec<LayerTiming>,
    /// DRAM line bytes moved (including alignment waste), all controllers.
    pub dram_bytes: u64,
    /// Useful request bytes (reads + writes), all controllers.
    pub useful_mem_bytes: u64,
    /// Aggregate peak memory bandwidth of the configuration, bytes/s.
    pub peak_mem_bandwidth: f64,
    /// DNA-array busy core-cycles summed over tiles.
    pub dna_busy_cycles: u64,
    /// DNA entries processed, summed over tiles.
    pub dna_entries: u64,
    /// Total MACs executed by DNAs.
    pub dna_macs: u64,
    /// GPE op cycles summed over tiles.
    pub gpe_op_cycles: u64,
    /// GPE idle cycles summed over tiles.
    pub gpe_idle_cycles: u64,
    /// AGG busy core-cycles summed over tiles.
    pub agg_busy_cycles: u64,
    /// Aggregations completed, summed over tiles.
    pub agg_completed: u64,
    /// Words combined by AGG ALUs, summed over tiles.
    pub agg_words_combined: u64,
    /// Words filled into DNQ entries, summed over tiles.
    pub dnq_fill_words: u64,
    /// NoC flit hops.
    pub noc_flit_hops: u64,
    /// NoC flit / crossbar width in bytes (64 in Table IV); every
    /// flit-hop moves this many bytes in the energy accounting.
    pub noc_flit_bytes: u64,
    /// Number of tiles.
    pub num_tiles: usize,
    /// Per-tile counters, one row per tile (the energy model's
    /// per-tile charges are read from here).
    pub per_tile: Vec<TileCounters>,
    /// Fault-injection outcomes per site (all zeros when no fault plan
    /// is attached, so fault-free reports are bit-identical to runs
    /// predating the fault subsystem).
    pub resilience: ResilienceSummary,
    /// Graceful-degradation outcomes for permanent faults (all zeros
    /// when the topology is healthy).
    pub degraded: DegradedSummary,
    /// Checkpoint/rollback recovery outcomes (all zeros unless the
    /// rollback recovery mode is configured).
    pub recovery: RecoverySummary,
}

impl SimReport {
    /// End-to-end inference latency in seconds.
    pub fn latency_s(&self) -> f64 {
        self.total_cycles as f64 / self.noc_clock_hz
    }

    /// Mean consumed DRAM bandwidth in bytes/s (Fig 10, left axis).
    pub fn mean_bandwidth(&self) -> f64 {
        self.dram_bytes as f64 / self.latency_s()
    }

    /// Mean bandwidth as a fraction of the configuration's peak (the
    /// §VI-A "bandwidth utilization" — 79 % / 70 % / 54 % for GCN).
    pub fn bandwidth_utilization(&self) -> f64 {
        self.mean_bandwidth() / self.peak_mem_bandwidth
    }

    /// Core cycles elapsed per tile.
    ///
    /// Computed with integer math on the clock-divider ratio: the old
    /// `total_cycles as f64 * core_clock_hz / noc_clock_hz` form loses
    /// precision once `total_cycles` exceeds 2^53 / divider and could
    /// misreport cycle counts for large simulations.
    pub fn core_cycles(&self) -> u64 {
        self.total_cycles / self.clock_divider
    }

    /// DNA utilisation: busy fraction of the DNA arrays (Fig 10, right
    /// axis).
    pub fn dna_utilization(&self) -> f64 {
        let denom = self.core_cycles() as f64 * self.num_tiles as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.dna_busy_cycles as f64 / denom
        }
    }

    /// GPE busy fraction.
    pub fn gpe_utilization(&self) -> f64 {
        let denom = self.core_cycles() as f64 * self.num_tiles as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.gpe_op_cycles as f64 / denom
        }
    }

    /// Fraction of DRAM traffic that was useful (no alignment waste).
    pub fn mem_efficiency(&self) -> f64 {
        if self.dram_bytes == 0 {
            1.0
        } else {
            self.useful_mem_bytes as f64 / self.dram_bytes as f64
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} @ {:.1} GHz core: {:.3} ms ({} cycles, {} config)",
            self.config_name,
            self.core_clock_hz / 1e9,
            self.latency_s() * 1e3,
            self.total_cycles,
            self.config_cycles
        )?;
        writeln!(
            f,
            "  mem: {:.2} GB/s mean ({:.1}% of peak, {:.1}% efficient), dna util {:.1}%, gpe util {:.1}%",
            self.mean_bandwidth() / 1e9,
            self.bandwidth_utilization() * 100.0,
            self.mem_efficiency() * 100.0,
            self.dna_utilization() * 100.0,
            self.gpe_utilization() * 100.0
        )?;
        if self.resilience.any() {
            writeln!(f, "  resilience: {}", self.resilience)?;
        }
        if self.degraded.any() {
            writeln!(f, "  degraded: {}", self.degraded)?;
        }
        if self.recovery.any() {
            writeln!(f, "  recovery: {}", self.recovery)?;
        }
        for t in &self.per_tile {
            writeln!(
                f,
                "  tile{}: gpe op/idle/stall {}/{}/{} ({} vertices), agg done {} (rej {}), dnq {}→{} ({} switches), dna {} entries {} macs",
                t.tile,
                t.gpe_op_cycles,
                t.gpe_idle_cycles,
                t.gpe_stall_cycles,
                t.gpe_vertices_done,
                t.agg_completed,
                t.agg_alloc_failures,
                t.dnq_enqueued,
                t.dnq_dequeued,
                t.dnq_switches,
                t.dna_entries,
                t.dna_macs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            config_name: "test".into(),
            core_clock_hz: 1.2e9,
            noc_clock_hz: 2.4e9,
            clock_divider: 2,
            total_cycles: 2_400_000,
            config_cycles: 1000,
            layers: vec![],
            dram_bytes: 34_000_000,
            useful_mem_bytes: 17_000_000,
            peak_mem_bandwidth: 68e9,
            dna_busy_cycles: 600_000,
            dna_entries: 100,
            dna_macs: 1_000_000,
            gpe_op_cycles: 300_000,
            gpe_idle_cycles: 0,
            agg_busy_cycles: 0,
            agg_completed: 10,
            agg_words_combined: 0,
            dnq_fill_words: 0,
            noc_flit_hops: 5,
            noc_flit_bytes: 64,
            num_tiles: 1,
            per_tile: vec![],
            resilience: ResilienceSummary::default(),
            degraded: DegradedSummary::default(),
            recovery: RecoverySummary::default(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.latency_s() - 1e-3).abs() < 1e-12);
        assert!((r.mean_bandwidth() - 34e9).abs() < 1.0);
        assert!((r.bandwidth_utilization() - 0.5).abs() < 1e-9);
        assert_eq!(r.core_cycles(), 1_200_000);
        assert!((r.dna_utilization() - 0.5).abs() < 1e-9);
        assert!((r.gpe_utilization() - 0.25).abs() < 1e-9);
        assert!((r.mem_efficiency() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_contains_config() {
        assert!(report().to_string().contains("test @ 1.2 GHz"));
    }

    #[test]
    fn resilience_summary_rolls_up_and_displays() {
        let mut r = report();
        // Fault-free reports hide the resilience line entirely.
        assert!(!r.to_string().contains("resilience"));
        r.resilience.mem.injected = 3;
        r.resilience.mem.corrected = 2;
        r.resilience.mem.retried = 1;
        r.resilience.noc.injected = 2;
        r.resilience.noc.corrected = 2;
        assert!(r.resilience.any());
        assert!(r.resilience.partition_holds());
        let total = r.resilience.total();
        assert_eq!(total.injected, 5);
        assert_eq!(total.corrected, 4);
        assert_eq!(total.retried, 1);
        assert!(r.to_string().contains("resilience: mem ["));
        // A broken partition is detectable.
        r.resilience.dna.injected = 1;
        assert!(!r.resilience.partition_holds());
    }

    #[test]
    fn core_cycles_is_exact_for_large_counts() {
        let mut r = report();
        // 2^55 + 2 master cycles is not representable in f64 (spacing is 4
        // at that magnitude), so the old float formula truncated low bits.
        r.total_cycles = (1u64 << 55) + 2;
        r.clock_divider = 2;
        assert_eq!(r.core_cycles(), (1u64 << 54) + 1);
    }

    #[test]
    fn display_shows_per_tile_breakdown() {
        let mut r = report();
        r.per_tile.push(TileCounters {
            tile: 3,
            gpe_vertices_done: 17,
            ..TileCounters::default()
        });
        let s = r.to_string();
        assert!(s.contains("tile3:"), "missing per-tile line in {s}");
        assert!(s.contains("17 vertices"));
    }

    #[test]
    fn stall_cause_indices_are_canonical() {
        let mut t = TileCounters::default();
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(c.event_name().ends_with(c.as_str()));
            assert!(c.event_name().starts_with("gpe_stall:"));
            t.gpe_stall_by_cause[i] = i as u64 + 1;
        }
        assert_eq!(StallCause::ALL.len(), StallCause::COUNT);
        // The tile name list labels each stall slot with its own cause.
        for c in StallCause::ALL {
            let key = format!("stall.{c}");
            let (_, v) = t.fields().into_iter().find(|(n, _)| *n == key).unwrap();
            assert_eq!(v, t.gpe_stall_by_cause[c.index()], "{key}");
        }
    }

    #[test]
    fn tile_counter_suffixes_are_unique() {
        let fields = TileCounters::default().fields();
        let names: std::collections::BTreeSet<_> = fields.iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), fields.len(), "duplicate metric suffix");
    }

    #[test]
    fn degraded_summary_displays_only_when_degraded() {
        let mut r = report();
        assert!(!r.degraded.any());
        assert!(!r.to_string().contains("degraded"));
        r.degraded = DegradedSummary {
            dead_tiles: 1,
            dead_links: 2,
            remapped_vertices: 40,
        };
        assert!(r.degraded.any());
        let s = r.to_string();
        assert!(s.contains("degraded: 1 dead tiles, 2 dead links, 40 vertices remapped"));
    }

    #[test]
    fn recovery_summary_displays_only_when_active() {
        let mut r = report();
        assert!(!r.recovery.any());
        assert!(!r.to_string().contains("recovery"));
        r.recovery = RecoverySummary {
            checkpoints: 2,
            checkpoint_bytes: 4096,
            checkpoint_cycles: 120,
            rollbacks: 1,
            replayed_cycles: 900,
            ..RecoverySummary::default()
        };
        assert!(r.recovery.any());
        let s = r.to_string();
        assert!(
            s.contains("recovery: 2 checkpoints (4096 bytes, 120 cycles), 1 rollbacks, 900 replayed cycles"),
            "missing recovery line in {s}"
        );
    }

    #[test]
    fn zero_division_is_safe() {
        let mut r = report();
        r.total_cycles = 0;
        r.dram_bytes = 0;
        assert_eq!(r.dna_utilization(), 0.0);
        assert_eq!(r.mem_efficiency(), 1.0);
    }
}
