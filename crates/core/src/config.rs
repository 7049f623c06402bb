//! Accelerator configurations — Table VI and Figure 9 of the paper.
//!
//! Three named configurations are evaluated:
//!
//! | Configuration  | Tiles | Mem. nodes | ALUs | Mem. BW (GB/s) |
//! |----------------|------:|-----------:|-----:|---------------:|
//! | CPU iso-BW     | 1     | 1          | 198  | 68             |
//! | GPU iso-BW     | 8     | 8          | 1584 | 544            |
//! | GPU iso-FLOPS  | 16    | 8          | 3168 | 544            |
//!
//! Each tile contributes 198 ALUs: the 182 PEs of its DNA (Table I) plus
//! the 16 ALUs of its AGG. Tiles and memory nodes are arranged in a 2-D
//! mesh (Figure 9); memory nodes sit on the top and bottom rows, tiles in
//! between. The NoC and memory always run at 2.4 GHz; the core clock
//! (GPE/DNQ/DNA/AGG) is swept in §VI (0.6 / 1.2 / 2.4 GHz).

use crate::CoreError;
use gnna_dnn::EyerissConfig;
use gnna_mem::MemConfig;

/// What occupies a mesh node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An accelerator tile (GPE + AGG + DNQ + DNA behind a 7×7 crossbar).
    Tile,
    /// A memory controller node.
    Mem,
    /// An empty router (pass-through).
    Empty,
}

/// The mesh arrangement of tiles and memory nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    grid: Vec<Vec<NodeKind>>, // grid[y][x]
}

impl Topology {
    /// Builds a topology from a row-major grid.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the grid is empty, ragged,
    /// or contains no tile or no memory node.
    pub fn from_grid(grid: Vec<Vec<NodeKind>>) -> Result<Self, CoreError> {
        if grid.is_empty() || grid[0].is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "topology grid is empty".into(),
            });
        }
        let w = grid[0].len();
        if grid.iter().any(|row| row.len() != w) {
            return Err(CoreError::InvalidConfig {
                reason: "topology grid is ragged".into(),
            });
        }
        let t = Topology { grid };
        if t.tile_coords().is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "topology has no tiles".into(),
            });
        }
        if t.mem_coords().is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "topology has no memory nodes".into(),
            });
        }
        Ok(t)
    }

    /// The CPU iso-bandwidth arrangement: one tile beside one memory node.
    pub fn cpu_iso_bw() -> Self {
        Topology {
            grid: vec![vec![NodeKind::Mem, NodeKind::Tile]],
        }
    }

    /// The GPU iso-bandwidth arrangement: 4×4 mesh, 8 tiles in the middle
    /// rows, 8 memory nodes on the top and bottom rows (Fig 9).
    pub fn gpu_iso_bw() -> Self {
        let m = NodeKind::Mem;
        let t = NodeKind::Tile;
        Topology {
            grid: vec![
                vec![m, m, m, m],
                vec![t, t, t, t],
                vec![t, t, t, t],
                vec![m, m, m, m],
            ],
        }
    }

    /// The GPU iso-FLOPS arrangement: 4×6 mesh, 16 tiles in the middle
    /// rows, 8 memory nodes on the top and bottom rows (Fig 9).
    pub fn gpu_iso_flops() -> Self {
        let m = NodeKind::Mem;
        let t = NodeKind::Tile;
        Topology {
            grid: vec![
                vec![m, m, m, m],
                vec![t, t, t, t],
                vec![t, t, t, t],
                vec![t, t, t, t],
                vec![t, t, t, t],
                vec![m, m, m, m],
            ],
        }
    }

    /// Mesh width.
    pub fn width(&self) -> usize {
        self.grid[0].len()
    }

    /// Mesh height.
    pub fn height(&self) -> usize {
        self.grid.len()
    }

    /// Node kind at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn kind(&self, x: usize, y: usize) -> NodeKind {
        self.grid[y][x]
    }

    /// Coordinates of all tiles, row-major.
    pub fn tile_coords(&self) -> Vec<(usize, usize)> {
        self.coords_of(NodeKind::Tile)
    }

    /// Coordinates of all memory nodes, row-major.
    pub fn mem_coords(&self) -> Vec<(usize, usize)> {
        self.coords_of(NodeKind::Mem)
    }

    fn coords_of(&self, kind: NodeKind) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (y, row) in self.grid.iter().enumerate() {
            for (x, &k) in row.iter().enumerate() {
                if k == kind {
                    out.push((x, y));
                }
            }
        }
        out
    }

    /// An ASCII rendering of the mesh (for the Fig 9 bench output).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for row in &self.grid {
            for &k in row {
                s.push_str(match k {
                    NodeKind::Tile => "[T]",
                    NodeKind::Mem => "[M]",
                    NodeKind::Empty => " . ",
                });
            }
            s.push('\n');
        }
        s
    }
}

/// Per-tile Aggregator parameters (§III, Fig 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggParams {
    /// Data scratchpad size in bytes (62 kB).
    pub data_scratchpad_bytes: usize,
    /// Control scratchpad size in bytes (2 kB) — bounds live aggregations.
    pub control_scratchpad_bytes: usize,
    /// Number of 32-bit ALUs (16) — words combined per core cycle.
    pub num_alus: usize,
    /// Output flit buffer in bytes (2 kB), drained one flit per cycle.
    pub flit_buffer_bytes: usize,
}

impl Default for AggParams {
    fn default() -> Self {
        AggParams {
            data_scratchpad_bytes: 62 * 1024,
            control_scratchpad_bytes: 2 * 1024,
            num_alus: 16,
            flit_buffer_bytes: 2 * 1024,
        }
    }
}

/// Per-tile DNN Queue parameters (§III, Fig 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnqParams {
    /// Queue scratchpad size in bytes (62 kB).
    pub scratchpad_bytes: usize,
    /// Destination buffer size in bytes (2 kB) — bounds in-flight entries.
    pub dest_buffer_bytes: usize,
    /// Lazy-switch hysteresis: the eligible queue only switches after the
    /// DNA has been idle this many cycles (16).
    pub idle_switch_cycles: u64,
}

impl Default for DnqParams {
    fn default() -> Self {
        DnqParams {
            scratchpad_bytes: 62 * 1024,
            dest_buffer_bytes: 2 * 1024,
            idle_switch_cycles: 16,
        }
    }
}

/// A complete accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Display name (e.g. `"CPU iso-BW"`).
    pub name: String,
    /// The mesh arrangement.
    pub topology: Topology,
    /// Core clock for GPE/DNQ/DNA/AGG in Hz (swept in §VI; must divide
    /// the NoC clock evenly).
    pub core_clock_hz: f64,
    /// NoC and memory clock in Hz (fixed 2.4 GHz).
    pub noc_clock_hz: f64,
    /// GPE software-thread pool size (the runtime's latency-hiding knob).
    pub gpe_threads: usize,
    /// Aggregator parameters.
    pub agg: AggParams,
    /// DNN Queue parameters.
    pub dnq: DnqParams,
    /// DNA spatial-array parameters (Table I).
    pub dna: EyerissConfig,
    /// Per-memory-node controller parameters (68 GB/s each).
    pub mem: MemConfig,
    /// Interleave granularity across memory nodes in bytes.
    pub interleave_bytes: u64,
    /// NoC flit / crossbar datapath width in bytes (Table IV: 64).
    /// Narrower links cut per-hop energy but multiply hop counts; the
    /// energy attribution charges `flit_bytes` byte-hops per flit-hop.
    pub flit_bytes: usize,
    /// Progress watchdog window in master cycles: with no observable
    /// event for this long the simulation reports [`CoreError::Stalled`]
    /// instead of spinning forever (default 2,000,000).
    pub stall_window: u64,
}

impl AcceleratorConfig {
    fn base(name: &str, topology: Topology) -> Self {
        AcceleratorConfig {
            name: name.to_string(),
            topology,
            core_clock_hz: 2.4e9,
            noc_clock_hz: 2.4e9,
            gpe_threads: 16,
            agg: AggParams::default(),
            dnq: DnqParams::default(),
            dna: EyerissConfig::default(),
            mem: MemConfig::default(),
            interleave_bytes: 4096,
            flit_bytes: 64,
            stall_window: 2_000_000,
        }
    }

    /// Table VI row 1: CPU iso-bandwidth (1 tile, 1 memory node, 68 GB/s).
    pub fn cpu_iso_bandwidth() -> Self {
        Self::base("CPU iso-BW", Topology::cpu_iso_bw())
    }

    /// Table VI row 2: GPU iso-bandwidth (8 tiles, 8 memory nodes,
    /// 544 GB/s).
    pub fn gpu_iso_bandwidth() -> Self {
        Self::base("GPU iso-BW", Topology::gpu_iso_bw())
    }

    /// Table VI row 3: GPU iso-FLOPS (16 tiles, 8 memory nodes,
    /// 544 GB/s).
    pub fn gpu_iso_flops() -> Self {
        Self::base("GPU iso-FLOPS", Topology::gpu_iso_flops())
    }

    /// The Table VI configuration called `name` on the command line or
    /// the wire: `cpu-iso-bw`, `gpu-iso-bw` or `gpu-iso-flops` (any case).
    ///
    /// # Errors
    ///
    /// Names the unknown configuration and lists the accepted ones.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "cpu-iso-bw" => Ok(Self::cpu_iso_bandwidth()),
            "gpu-iso-bw" => Ok(Self::gpu_iso_bandwidth()),
            "gpu-iso-flops" => Ok(Self::gpu_iso_flops()),
            other => Err(format!(
                "unknown config {other} (cpu-iso-bw|gpu-iso-bw|gpu-iso-flops)"
            )),
        }
    }

    /// Returns a copy with the core clock set to `hz` (the §VI clock
    /// sweep). The DNA model's clock follows the core clock.
    pub fn with_core_clock(mut self, hz: f64) -> Self {
        self.core_clock_hz = hz;
        self.dna.clock_hz = hz;
        self
    }

    /// Returns a copy with the NoC flit / crossbar width set to `bytes`
    /// (clamped to at least 1) — the link-width ablation knob used by
    /// the energy A/B diffs.
    pub fn with_flit_bytes(mut self, bytes: usize) -> Self {
        self.flit_bytes = bytes.max(1);
        self
    }

    /// Returns a copy with the progress-watchdog window set to `cycles`
    /// (must stay positive; [`AcceleratorConfig::validate`] rejects 0).
    /// Fault-heavy runs with long retransmit backoffs may need a larger
    /// window; stall-reproduction tests a much smaller one.
    pub fn with_stall_window(mut self, cycles: u64) -> Self {
        self.stall_window = cycles;
        self
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.topology.tile_coords().len()
    }

    /// Number of memory nodes.
    pub fn num_mem_nodes(&self) -> usize {
        self.topology.mem_coords().len()
    }

    /// Total ALU count (182 DNA PEs + 16 AGG ALUs per tile) — the Table
    /// VI "ALUs" column.
    pub fn total_alus(&self) -> usize {
        self.num_tiles() * (self.dna.num_pes + self.agg.num_alus)
    }

    /// Aggregate memory bandwidth in bytes/s — the Table VI "Mem. BW"
    /// column.
    pub fn total_mem_bandwidth(&self) -> f64 {
        self.num_mem_nodes() as f64 * self.mem.bandwidth_bytes_per_s
    }

    /// Master (NoC) cycles per core cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if either clock is not
    /// finite and positive, or the core clock does not divide the NoC
    /// clock to an integer ratio.
    pub fn clock_divider(&self) -> Result<u64, CoreError> {
        for (name, hz) in [("core", self.core_clock_hz), ("NoC", self.noc_clock_hz)] {
            if !(hz.is_finite() && hz > 0.0) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("{name} clock {hz} Hz must be finite and positive"),
                });
            }
        }
        let ratio = self.noc_clock_hz / self.core_clock_hz;
        if ratio < 1.0 - 1e-9 || (ratio - ratio.round()).abs() > 1e-6 {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "core clock {} Hz must integer-divide the NoC clock {} Hz",
                    self.core_clock_hz, self.noc_clock_hz
                ),
            });
        }
        Ok(ratio.round() as u64)
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.clock_divider()?;
        if self.gpe_threads == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "GPE needs at least one software thread".into(),
            });
        }
        if self.agg.num_alus == 0 || self.agg.data_scratchpad_bytes < 64 {
            return Err(CoreError::InvalidConfig {
                reason: "AGG parameters degenerate".into(),
            });
        }
        if self.dnq.scratchpad_bytes < 64 {
            return Err(CoreError::InvalidConfig {
                reason: "DNQ scratchpad too small".into(),
            });
        }
        if self.stall_window == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "stall window must be positive".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_vi_cpu_iso_bw() {
        let c = AcceleratorConfig::cpu_iso_bandwidth();
        assert_eq!(c.num_tiles(), 1);
        assert_eq!(c.num_mem_nodes(), 1);
        assert_eq!(c.total_alus(), 198);
        assert!((c.total_mem_bandwidth() - 68e9).abs() < 1.0);
    }

    #[test]
    fn table_vi_gpu_iso_bw() {
        let c = AcceleratorConfig::gpu_iso_bandwidth();
        assert_eq!(c.num_tiles(), 8);
        assert_eq!(c.num_mem_nodes(), 8);
        assert_eq!(c.total_alus(), 1584);
        assert!((c.total_mem_bandwidth() - 544e9).abs() < 1.0);
    }

    #[test]
    fn table_vi_gpu_iso_flops() {
        let c = AcceleratorConfig::gpu_iso_flops();
        assert_eq!(c.num_tiles(), 16);
        assert_eq!(c.num_mem_nodes(), 8);
        assert_eq!(c.total_alus(), 3168);
        assert!((c.total_mem_bandwidth() - 544e9).abs() < 1.0);
    }

    #[test]
    fn clock_sweep_dividers() {
        let c = AcceleratorConfig::cpu_iso_bandwidth();
        assert_eq!(c.clone().with_core_clock(2.4e9).clock_divider().unwrap(), 1);
        assert_eq!(c.clone().with_core_clock(1.2e9).clock_divider().unwrap(), 2);
        assert_eq!(c.clone().with_core_clock(0.6e9).clock_divider().unwrap(), 4);
        assert!(c.clone().with_core_clock(1.7e9).clock_divider().is_err());
        assert!(c.with_core_clock(4.8e9).clock_divider().is_err());
    }

    #[test]
    fn topology_validation() {
        assert!(Topology::from_grid(vec![]).is_err());
        assert!(Topology::from_grid(vec![vec![NodeKind::Tile]]).is_err()); // no mem
        assert!(Topology::from_grid(vec![vec![NodeKind::Mem]]).is_err()); // no tile
        assert!(Topology::from_grid(vec![
            vec![NodeKind::Tile, NodeKind::Mem],
            vec![NodeKind::Tile],
        ])
        .is_err()); // ragged
        let ok = Topology::from_grid(vec![vec![NodeKind::Tile, NodeKind::Mem]]).unwrap();
        assert_eq!(ok.width(), 2);
        assert_eq!(ok.height(), 1);
    }

    #[test]
    fn coords_are_row_major() {
        let t = Topology::gpu_iso_bw();
        let tiles = t.tile_coords();
        assert_eq!(tiles.len(), 8);
        assert_eq!(tiles[0], (0, 1));
        assert_eq!(tiles[4], (0, 2));
        assert_eq!(t.mem_coords().len(), 8);
        assert_eq!(t.kind(0, 0), NodeKind::Mem);
    }

    #[test]
    fn render_shows_grid() {
        let s = Topology::cpu_iso_bw().render();
        assert_eq!(s.trim(), "[M][T]");
    }

    #[test]
    fn validate_catches_degenerate() {
        let mut c = AcceleratorConfig::cpu_iso_bandwidth();
        c.gpe_threads = 0;
        assert!(c.validate().is_err());
        let mut c = AcceleratorConfig::cpu_iso_bandwidth();
        c.agg.num_alus = 0;
        assert!(c.validate().is_err());
        assert!(AcceleratorConfig::gpu_iso_flops().validate().is_ok());
    }

    #[test]
    fn configurations_parse_by_name() {
        for (name, tiles) in [("CPU-ISO-BW", 1), ("gpu-iso-bw", 8), ("gpu-iso-flops", 16)] {
            let c = AcceleratorConfig::by_name(name).unwrap();
            assert_eq!(c.num_tiles(), tiles, "{name}");
        }
        assert!(AcceleratorConfig::by_name("tpu").is_err());
    }

    #[test]
    fn non_finite_or_non_positive_clocks_are_rejected() {
        for hz in [f64::NAN, 0.0, f64::INFINITY, -2.4e9] {
            let c = AcceleratorConfig::cpu_iso_bandwidth().with_core_clock(hz);
            assert!(
                matches!(c.clock_divider(), Err(CoreError::InvalidConfig { .. })),
                "core clock {hz} accepted"
            );
            assert!(c.validate().is_err(), "core clock {hz} validated");
            let mut c = AcceleratorConfig::cpu_iso_bandwidth();
            c.noc_clock_hz = hz;
            assert!(c.validate().is_err(), "NoC clock {hz} validated");
        }
    }

    #[test]
    fn stall_window_is_configurable() {
        let c = AcceleratorConfig::cpu_iso_bandwidth();
        assert_eq!(c.stall_window, 2_000_000, "default watchdog window");
        let c = c.with_stall_window(500);
        assert_eq!(c.stall_window, 500);
        assert!(c.validate().is_ok());
        assert!(c.with_stall_window(0).validate().is_err());
    }

    #[test]
    fn defaults_match_paper_module_sizes() {
        let a = AggParams::default();
        assert_eq!(a.data_scratchpad_bytes, 62 * 1024);
        assert_eq!(a.control_scratchpad_bytes, 2 * 1024);
        assert_eq!(a.num_alus, 16);
        assert_eq!(a.flit_buffer_bytes, 2 * 1024);
        let d = DnqParams::default();
        assert_eq!(d.scratchpad_bytes, 62 * 1024);
        assert_eq!(d.dest_buffer_bytes, 2 * 1024);
        assert_eq!(d.idle_switch_cycles, 16);
    }
}
