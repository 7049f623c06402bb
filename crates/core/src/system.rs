//! The full-system simulator: tiles + memory nodes on the mesh, driven by
//! the §IV runtime (Algorithm 1).
//!
//! A [`System`] instantiates one [`crate::gpe::Gpe`],
//! [`crate::agg::Aggregator`], [`crate::dnq::Dnq`] and [`crate::dna::Dna`]
//! per tile of the configuration's topology, one
//! [`gnna_mem::MemoryController`] per memory node, and the `gnna-noc`
//! mesh connecting them. Vertices are range-partitioned across tiles;
//! physical memory is interleaved across memory nodes.
//!
//! Per Algorithm 1, each layer runs as: `CONFIG` (module configuration
//! plus the DNA weight broadcast, charged analytically as memory traffic
//! at the aggregate bandwidth), a global barrier, the vertex program over
//! the work queue, and a closing barrier (all modules idle, network and
//! memory drained).
//!
//! The master clock is the 2.4 GHz NoC clock; GPE/AGG/DNQ/DNA tick every
//! `clock_divider` master cycles (the §VI core-clock sweep).

use crate::agg::Aggregator;
use crate::config::AcceleratorConfig;
use crate::dna::{Dna, DnaFaultState};
use crate::dnq::Dnq;
use crate::energy::EnergyModel;
use crate::gpe::{Gpe, GpeCtx, TilePorts};
use crate::layers::{CompiledProgram, Layer};
use crate::layout::{fill_buffer, read_buffer, BufferRegion, Layout, UnionGraph};
use crate::msg::{AddressMap, Dest, Message, Tag};
use crate::stats::{
    DegradedSummary, LayerTiming, RecoverySummary, ResilienceSummary, SimReport, TileCounters,
    CLOCK_DIVIDER_KEY, CONFIG_CYCLES_KEY, CORE_CLOCK_HZ_KEY, FAULT_KEYS, LAYER_ENERGY_KEYS,
    NOC_CLOCK_HZ_KEY, SYSTEM_ENERGY_KEYS, TILE_ENERGY_KEYS, TILE_KEYS, TOTAL_CYCLES_KEY,
    TOTAL_ENERGY_KEY,
};
use crate::wheel::EventWheel;
use crate::CoreError;
use gnna_faults::{FaultPlan, RecoveryMode};
use gnna_graph::GraphInstance;
use gnna_mem::{MemFaultState, MemImage, MemRequest, MemStats, MemoryController};
use gnna_noc::NocFaultState;
use gnna_noc::{Address, Network, NocConfig, Packet, PacketKind, Reassembler};
use gnna_telemetry::energy::{
    apportion_pj, CostClass, EnergyCharge, EnergyLedger, EnergyRates, FJ_PER_PJ,
};
use gnna_telemetry::profile::{HostProfiler, HotPhase, CYCLES_SCOPE};
use gnna_telemetry::{shared, MetricsRegistry, ModuleProbe, SharedTracer, TraceLevel, Tracer};
use gnna_tensor::Matrix;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Master-cycle period of the counter-track sampler (queue occupancies
/// and in-flight flit counts) when event-level tracing is attached.
const SAMPLE_EVERY: u64 = 256;

/// Per-layer energy attribution state (event level only): cumulative
/// per-class event counts are snapshotted at each layer boundary and the
/// deltas retained, so layer energies partition the run total exactly.
#[derive(Debug, Default)]
struct EnergyAttribution {
    /// Cumulative class counts at the previous layer boundary.
    prev: [u64; CostClass::COUNT],
    /// Per-layer class-count deltas, one entry per executed layer.
    layers: Vec<[u64; CostClass::COUNT]>,
}

/// Telemetry state attached to a running system (absent by default; the
/// simulator's hot loop then touches a single `Option` discriminant).
struct Telemetry {
    tracer: SharedTracer,
    /// The tracer's level: module probes are attached at event level.
    level: TraceLevel,
    /// Track for runtime phases (CONFIG, layer execute, barrier).
    system: ModuleProbe,
    /// Per-layer energy snapshots (`Some` at event level only).
    energy: Option<EnergyAttribution>,
    /// Counter track for cumulative-energy timelines (`Some` at event
    /// level only): one counter per [`CostClass`] plus the total, emitted
    /// at every layer boundary so Perfetto renders energy-over-cycles
    /// next to the stall/link tracks.
    energy_track: Option<ModuleProbe>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("level", &self.level)
            .finish_non_exhaustive()
    }
}

/// A network interface on one local port of a mesh router: flits in,
/// whole messages out, and a queue of messages waiting to be sent.
#[derive(Debug)]
struct Nic {
    port: Address,
    rx: Reassembler<Message>,
    /// Messages waiting for the port's staging slot, front first.
    out: VecDeque<(Address, Message)>,
}

impl Nic {
    fn new(port: Address) -> Self {
        Nic {
            port,
            rx: Reassembler::new(),
            out: VecDeque::new(),
        }
    }

    /// Ejects one flit and returns the message it completes, with the
    /// pass-through corruption its packet picked up on the way applied.
    fn receive(&mut self, net: &mut Network<Message>, words_per_flit: u64) -> Option<Message> {
        let pkt = self.rx.push(net.eject(self.port)?)?;
        let poison = net.take_poison(pkt.id);
        // The fabric dropped its reference with the tail flit.
        let mut msg = Arc::try_unwrap(pkt).map_or_else(|p| p.payload.clone(), |p| p.payload);
        if !poison.is_empty() {
            apply_poison(&mut msg, &poison, words_per_flit);
        }
        Some(msg)
    }

    /// Injects the front message. Read requests go as control packets,
    /// so a selective CRC domain can protect them apart from bulk data.
    /// A busy staging slot keeps the message queued for the next cycle.
    fn send(&mut self, net: &mut Network<Message>) {
        let Some((dst, msg)) = self.out.pop_front() else {
            return;
        };
        let kind = if matches!(msg, Message::MemRead { .. }) {
            PacketKind::Control
        } else {
            PacketKind::Data
        };
        let pkt = Packet::new(self.port, dst, msg.wire_bytes(), msg).with_kind(kind);
        if let Err(p) = net.try_inject(pkt) {
            self.out.push_front((p.dst, p.payload));
        }
    }

    /// Whether nothing is half received or waiting to be sent.
    fn is_idle(&self) -> bool {
        self.rx.pending() == 0 && self.out.is_empty()
    }

    /// Forgets every half-received packet and queued message.
    fn reset(&mut self) {
        self.rx = Reassembler::new();
        self.out.clear();
    }
}

/// Applies recorded pass-through NoC corruption to a reassembled
/// message. Each poison entry is a `(flit seq, bit-within-flit)` pair;
/// the bit is mapped onto the payload's data words (for `Data` and
/// `MemWrite` messages) modulo the data length, modelling a flipped
/// payload bit surviving to the consumer. `MemRead` requests carry no
/// data words — their headers are modelled as protected sideband — so
/// poison on them is a no-op.
fn apply_poison(msg: &mut Message, poison: &[(u32, u64)], words_per_flit: u64) {
    let data = match msg {
        Message::Data { data, .. } => data,
        Message::MemWrite { data, .. } => data,
        Message::MemRead { .. } => return,
    };
    if data.is_empty() {
        return;
    }
    for &(seq, bit) in poison {
        let word = ((u64::from(seq) * words_per_flit + bit / 32) % data.len() as u64) as usize;
        data[word] ^= 1 << (bit % 32);
    }
}

// A tile's local ports on its router, which index `Tile::nics`: the
// GPE's, the AGG's, and the one the DNQ receives on and the DNA sends
// from.
const GPE_PORT: usize = 0;
const AGG_PORT: usize = 1;
const DNQ_PORT: usize = 2;

#[derive(Debug)]
struct Tile {
    gpe: Gpe,
    agg: Aggregator,
    dnq: Dnq,
    dna: Dna,
    /// One NIC per local port, indexed by port number.
    nics: [Nic; 3],
    /// Whether the GPE's last tick executed no operation: only then is
    /// the tile worth testing for sleep.
    spinning: bool,
    /// Whether a flit reached one of the tile's ports while it slept.
    delivered: bool,
}

#[derive(Debug)]
struct MemNode {
    nic: Nic,
    ctrl: MemoryController,
    /// Request buffer in front of the 32-entry controller queue.
    ///
    /// The network must always be able to sink requests at a memory node,
    /// or blocked requests and in-flight responses sharing column
    /// channels form a protocol deadlock (Booksim solves this with one
    /// virtual network per message class; an always-draining NIC buffer
    /// is the equivalent single-channel fix). Its occupancy is bounded by
    /// the tiles' outstanding-request limits (DNQ entries, GPE threads
    /// and outboxes), not by this queue itself.
    inbox: VecDeque<Message>,
    /// Reply address and tag of each read the controller holds, indexed
    /// by the request tag it carries there (the controller only echoes
    /// it). Tags of retired reads are reused from `free_tags`, so the
    /// slab is as long as the most reads ever held at once.
    meta: Vec<Option<(Address, Tag)>>,
    free_tags: Vec<u64>,
}

/// A layer-boundary snapshot of the architectural state rollback
/// recovery restores: the simulated memory image (activations and
/// outputs; scratchpads are drained at the barrier) plus the layer to
/// restart from. The cycle stamp marks where the current forward
/// attempt began, so a rollback knows how much progress it discards.
#[derive(Debug)]
struct Checkpoint {
    /// First layer to (re)execute when restoring this checkpoint.
    layer_index: usize,
    /// Deep copy of simulated DRAM at the layer boundary.
    image: MemImage,
    /// Master cycle when the forward attempt from this checkpoint
    /// started (refreshed after each rollback so replayed-cycle
    /// accounting stays per-attempt).
    cycle: u64,
}

/// Checkpoint/rollback recovery state (attached only when the fault
/// plan selects [`RecoveryMode::Rollback`]; absent otherwise, so the
/// legacy retry/pass-through paths stay untouched).
#[derive(Debug)]
struct RecoveryState {
    /// Layers between charged checkpoints.
    interval_layers: u64,
    /// Rollbacks allowed before degrading to [`CoreError::Fault`].
    budget: u64,
    /// Layers completed since the last checkpoint.
    layers_since: u64,
    /// The live checkpoint (always present while running: a free
    /// snapshot of the pristine inputs is taken at run start).
    checkpoint: Option<Checkpoint>,
    summary: RecoverySummary,
}

/// The optional instruments of a run, fixed when the [`System`] is
/// built (see [`System::with_options`]). The default attaches nothing
/// (level [`TraceLevel::Off`], no fault plan, no profiler).
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Trace detail level.
    pub level: TraceLevel,
    /// Deterministic fault-injection plan (`None` — and empty plans —
    /// leave the run bit-identical to a fault-free simulation).
    pub fault_plan: Option<FaultPlan>,
    /// Host-phase profiling: `Some(n)` attaches a
    /// [`HostProfiler`](gnna_telemetry::HostProfiler) sampling one cycle
    /// in `n`. `None` (the default) attaches nothing and leaves the run
    /// bit-identical to an unprofiled simulation.
    pub profile_sample_every: Option<u64>,
}

impl TraceOptions {
    /// Options with the given level and nothing else attached.
    pub fn at_level(level: TraceLevel) -> Self {
        Self {
            level,
            fault_plan: None,
            profile_sample_every: None,
        }
    }

    /// Same options with host profiling at the given sampling period.
    #[must_use]
    pub fn with_profile(mut self, sample_every: u64) -> Self {
        self.profile_sample_every = Some(sample_every);
        self
    }
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self::at_level(TraceLevel::Off)
    }
}

/// The simulated accelerator system.
#[derive(Debug)]
pub struct System {
    cfg: AcceleratorConfig,
    divider: u64,
    net: Network<Message>,
    image: MemImage,
    layout: Layout,
    /// First byte past the static graph structure and input features:
    /// the mutable activations above it are what selective ECC domains
    /// split on and what checkpoints copy.
    static_boundary: u64,
    union: UnionGraph,
    map: AddressMap,
    tiles: Vec<Tile>,
    mems: Vec<MemNode>,
    program: CompiledProgram,
    board: Vec<Option<(Address, u32)>>,
    partitions: Vec<Vec<u32>>,
    cycle: u64,
    /// Master cycle of the next core tick at or after `cycle`, and that
    /// tick's index on the core clock; the loop advances both on a core
    /// tick and recomputes them only where the clock jumps.
    next_core_tick: u64,
    core_tick_index: u64,
    config_cycles: u64,
    layer_timings: Vec<LayerTiming>,
    instance_ranges: Vec<(usize, usize)>,
    telemetry: Option<Telemetry>,
    /// Host-phase profiler (absent by default; the hot loop then pays a
    /// single never-taken branch, same contract as `telemetry`).
    profiler: Option<HostProfiler>,
    energy_model: EnergyModel,
    degraded: DegradedSummary,
    /// Event wheel: nodes that cannot act sleep and are skipped by
    /// [`System::step_cycle`] until a NoC delivery or a scheduled timer
    /// (a memory controller's next-ready cycle, a tile's DNA completion
    /// or AGG release) wakes them. Skipped core ticks are settled
    /// exactly via the modules' `note_ticks` batch hooks, so the wheel
    /// is bit-identical to the exhaustive sweep (the golden corpus
    /// enforces this).
    wheel: EventWheel,
    /// Dense node-occupancy maps for the wheel: mesh node (row-major)
    /// per tile / per memory node, and tile index per mesh node.
    tile_node: Vec<usize>,
    mem_node: Vec<usize>,
    node_tile: Vec<Option<u32>>,
    /// Scratch for due timer wakes (kept to avoid per-cycle allocation).
    due_scratch: Vec<u32>,
    /// Checkpoint/rollback recovery (present when the fault plan selects
    /// [`RecoveryMode::Rollback`]).
    recovery: Option<RecoveryState>,
    /// Whether any memory controller can raise a sticky fault failure
    /// (finite re-read budget); gates the per-cycle failure poll so the
    /// legacy hot loop pays nothing.
    mem_can_fail: bool,
}

/// Laps `phase` on the run's host profiler, if it has one.
#[inline]
fn lap(profiler: &mut Option<HostProfiler>, phase: HotPhase) {
    if let Some(p) = profiler {
        p.lap(phase);
    }
}

/// Master cycles to move `bytes` at the aggregate memory bandwidth, plus
/// the 64-core-cycle barrier that closes every analytic phase (CONFIG
/// weight broadcast, layer barrier, checkpoint, rollback restore).
fn drain_cycles(cfg: &AcceleratorConfig, divider: u64, bytes: u64) -> u64 {
    let drain = (bytes as f64 / cfg.total_mem_bandwidth() * cfg.noc_clock_hz).ceil() as u64;
    drain + 64 * divider
}

impl System {
    /// Builds a system with no instruments attached: the same as
    /// [`System::with_options`] with [`TraceOptions::default`].
    ///
    /// # Errors
    ///
    /// As [`System::with_options`].
    pub fn new(
        cfg: &AcceleratorConfig,
        instances: &[GraphInstance],
        program: CompiledProgram,
    ) -> Result<Self, CoreError> {
        Self::with_options(cfg, instances, program, &TraceOptions::default())
    }

    /// Builds a system for the given configuration, input instances and
    /// compiled program, laying out the workload in simulated memory, and
    /// attaches the instruments `opts` asks for before the first cycle:
    /// the tracer, then the fault plan, then the host profiler.
    ///
    /// At [`TraceLevel::Off`] no tracer is attached and the simulation is
    /// bit-identical to an untraced run. At [`TraceLevel::Phase`] only
    /// the runtime phase track (CONFIG / layer execute / barrier) is
    /// recorded. At [`TraceLevel::Event`] every module instance gets its
    /// own track: per tile GPE/AGG/DNQ/DNA threads, one thread per
    /// memory controller, and one for the mesh — with instant events for
    /// stalls and backpressure plus periodic queue-occupancy counters.
    ///
    /// The fault plan injects deterministic faults at every protected
    /// site: SECDED-guarded DRAM reads at each memory controller,
    /// CRC-checked link traversals with bounded retransmit on the mesh,
    /// and stall bubbles in each tile's DNA pipeline. Each site derives
    /// an independent RNG stream from `(plan.seed, site, instance)`, so
    /// runs are reproducible per seed regardless of topology. Permanent
    /// faults degrade the system gracefully instead of killing it: each
    /// dead tile's vertex partition is remapped contiguously onto the
    /// surviving tiles (counted in the report's [`DegradedSummary`]), and
    /// traffic detours around dead mesh links via a deterministic BFS
    /// routing table. An **empty** plan (all rates zero, no permanent
    /// defects) attaches nothing: the run — and its metric registry —
    /// stays bit-identical to a fault-free system.
    ///
    /// The host profiler records scoped wall-clock phases (config /
    /// cycle loop / barrier per layer) plus sampled per-module laps
    /// inside the cycle loop. It reads no simulation state and charges
    /// no simulated cycles, so the `SimReport` stays bit-identical with
    /// or without it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] or
    /// [`CoreError::CompileError`] if the configuration or program is
    /// inconsistent with the inputs, and [`CoreError::InvalidConfig`] if
    /// the fault plan fails [`FaultPlan::validate`] (non-finite or
    /// out-of-range rates, duplicate defects), names a dead tile outside
    /// the topology, kills *every* tile (no survivor to remap onto), or
    /// its dead links are invalid / disconnect the mesh.
    pub fn with_options(
        cfg: &AcceleratorConfig,
        instances: &[GraphInstance],
        program: CompiledProgram,
        opts: &TraceOptions,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        program.validate()?;
        if instances.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "no input graphs".into(),
            });
        }
        let feat_words = program.buffers[0].row_words;
        for inst in instances {
            if inst.x.cols() != feat_words {
                return Err(CoreError::CompileError {
                    reason: format!(
                        "input feature width {} != program input width {feat_words}",
                        inst.x.cols()
                    ),
                });
            }
        }
        let divider = cfg.clock_divider()?;
        let union = UnionGraph::build(instances);
        let mut image = MemImage::new();
        let layout = Layout::build(&mut image, &union, &program.buffers);
        // Fill the input features (and edge features) instance by
        // instance at the union offsets.
        let mut vbase = 0usize;
        let mut ebase = 0usize;
        let mut instance_ranges = Vec::with_capacity(instances.len());
        for inst in instances {
            let n = inst.graph.num_nodes();
            let region = BufferRegion {
                addr: layout.buffers[0].row_addr(vbase),
                rows: n,
                row_words: feat_words,
            };
            fill_buffer(&mut image, &region, &inst.x);
            if let (Some(eb), Some(ef)) = (program.edge_buffer, inst.edge_features.as_ref()) {
                let m = inst.graph.num_stored_edges();
                let region = BufferRegion {
                    addr: layout.buffers[eb].row_addr(ebase),
                    rows: m,
                    row_words: layout.buffers[eb].row_words,
                };
                fill_buffer(&mut image, &region, ef);
                ebase += m;
            }
            instance_ranges.push((vbase, vbase + n));
            vbase += n;
        }

        // Network and endpoints.
        let topo = &cfg.topology;
        let noc_cfg = NocConfig {
            flit_bytes: cfg.flit_bytes,
            ..NocConfig::default()
        };
        let grid = topo.clone();
        let net = Network::new(noc_cfg, topo.width(), topo.height(), move |x, y| match grid
            .kind(x, y)
        {
            crate::config::NodeKind::Tile => 3,
            crate::config::NodeKind::Mem => 1,
            crate::config::NodeKind::Empty => 0,
        });
        let mem_ports: Vec<Address> = topo
            .mem_coords()
            .iter()
            .map(|&(x, y)| Address::new(x, y, 0))
            .collect();
        let map = AddressMap::new(mem_ports.clone(), cfg.interleave_bytes);
        let mems = mem_ports
            .iter()
            .map(|&port| MemNode {
                nic: Nic::new(port),
                ctrl: MemoryController::new(cfg.mem),
                inbox: VecDeque::new(),
                meta: Vec::new(),
                free_tags: Vec::new(),
            })
            .collect();
        let tiles: Vec<Tile> = topo
            .tile_coords()
            .iter()
            .map(|&(x, y)| {
                let nics = [GPE_PORT, AGG_PORT, DNQ_PORT].map(|p| Nic::new(Address::new(x, y, p)));
                let ports = TilePorts {
                    gpe: nics[GPE_PORT].port,
                    agg: nics[AGG_PORT].port,
                    dnq: nics[DNQ_PORT].port,
                };
                Tile {
                    gpe: Gpe::new(ports, cfg.gpe_threads),
                    agg: Aggregator::new(cfg.agg),
                    dnq: Dnq::new(cfg.dnq),
                    dna: Dna::new(cfg.dna),
                    nics,
                    spinning: false,
                    delivered: false,
                }
            })
            .collect();
        // Contiguous range partition of vertices over tiles.
        let n = union.num_nodes();
        let t = tiles.len();
        let partitions = (0..t)
            .map(|i| {
                let lo = i * n / t;
                let hi = (i + 1) * n / t;
                (lo as u32..hi as u32).collect()
            })
            .collect();
        let num_graphs = union.num_graphs();
        // Event-wheel node maps (mesh nodes are row-major `y * w + x`).
        let width = topo.width();
        let num_nodes = width * topo.height();
        let tile_node: Vec<usize> = topo
            .tile_coords()
            .iter()
            .map(|&(x, y)| y * width + x)
            .collect();
        let mem_node: Vec<usize> = topo
            .mem_coords()
            .iter()
            .map(|&(x, y)| y * width + x)
            .collect();
        let mut node_tile = vec![None; num_nodes];
        for (t, &node) in tile_node.iter().enumerate() {
            node_tile[node] = Some(t as u32);
        }
        let wheel = EventWheel::new(num_nodes, tile_node.len() + mem_node.len());
        // Static state (graph structure + input features) is laid out
        // before the mutable activation buffers.
        let static_boundary = layout.buffers.get(1).map_or(image.size_bytes(), |b| b.addr);
        let mut sys = System {
            cfg: cfg.clone(),
            divider,
            net,
            image,
            layout,
            static_boundary,
            union,
            map,
            tiles,
            mems,
            program,
            board: vec![None; num_graphs],
            partitions,
            cycle: 0,
            next_core_tick: 0,
            core_tick_index: 0,
            config_cycles: 0,
            layer_timings: Vec::new(),
            instance_ranges,
            telemetry: None,
            profiler: None,
            energy_model: EnergyModel::default(),
            degraded: DegradedSummary::default(),
            wheel,
            tile_node,
            mem_node,
            node_tile,
            due_scratch: Vec::new(),
            recovery: None,
            mem_can_fail: false,
        };
        if opts.level > TraceLevel::Off {
            sys.attach_telemetry(shared(Tracer::new(opts.level)));
        }
        if let Some(plan) = &opts.fault_plan {
            sys.attach_faults(plan)?;
        }
        sys.profiler = opts.profile_sample_every.map(HostProfiler::new);
        Ok(sys)
    }

    /// The tracer the run records into (`None` at [`TraceLevel::Off`]).
    pub fn tracer(&self) -> Option<&SharedTracer> {
        self.telemetry.as_ref().map(|t| &t.tracer)
    }

    /// The host-phase profiler (`None` unless
    /// [`TraceOptions::profile_sample_every`] asked for one).
    pub fn profiler(&self) -> Option<&HostProfiler> {
        self.profiler.as_ref()
    }

    /// Hands the host-phase profiler to the caller; later runs of this
    /// system are not profiled.
    pub fn take_profiler(&mut self) -> Option<HostProfiler> {
        self.profiler.take()
    }

    /// Registers one track per module instance on `tracer` (above
    /// [`TraceLevel::Off`]; see [`System::with_options`]).
    fn attach_telemetry(&mut self, tracer: SharedTracer) {
        let level = tracer.borrow().level();
        let system = ModuleProbe::new(Rc::clone(&tracer), "system", "runtime");
        if level >= TraceLevel::Event {
            for (t, &(x, y)) in self.cfg.topology.tile_coords().iter().enumerate() {
                let process = format!("tile{t} ({x},{y})");
                let gpe = ModuleProbe::new(Rc::clone(&tracer), &process, "gpe");
                let agg = ModuleProbe::new(Rc::clone(&tracer), &process, "agg");
                let dnq = ModuleProbe::new(Rc::clone(&tracer), &process, "dnq");
                let dna = ModuleProbe::new(Rc::clone(&tracer), &process, "dna");
                self.tiles[t].gpe.attach_probe(gpe);
                self.tiles[t].agg.attach_probe(agg);
                self.tiles[t].dnq.attach_probe(dnq);
                self.tiles[t].dna.attach_probe(dna);
            }
            for (i, m) in self.mems.iter_mut().enumerate() {
                let p = ModuleProbe::new(Rc::clone(&tracer), "mem", &format!("mem{i}"));
                m.ctrl.attach_probe(p);
            }
            let p = ModuleProbe::new(Rc::clone(&tracer), "noc", "mesh");
            self.net.attach_probe(p);
            // One track per router for link-utilisation counters and
            // hop-forwarding instants (row-major over the mesh).
            let router_probes = (0..self.cfg.topology.height())
                .flat_map(|y| {
                    let tracer = &tracer;
                    (0..self.cfg.topology.width()).map(move |x| {
                        ModuleProbe::new(Rc::clone(tracer), "noc", &format!("router ({x},{y})"))
                    })
                })
                .collect();
            self.net.attach_router_probes(router_probes);
        }
        let energy = (level >= TraceLevel::Event).then(EnergyAttribution::default);
        let energy_track = (level >= TraceLevel::Event)
            .then(|| ModuleProbe::new(Rc::clone(&tracer), "system", "energy"));
        self.telemetry = Some(Telemetry {
            tracer,
            level,
            system,
            energy,
            energy_track,
        });
    }

    /// Applies a fault plan to every protected site (see
    /// [`System::with_options`]).
    fn attach_faults(&mut self, plan: &FaultPlan) -> Result<(), CoreError> {
        plan.validate().map_err(|e| CoreError::InvalidConfig {
            reason: format!("invalid fault plan: {e}"),
        })?;
        if plan.is_empty() {
            return Ok(());
        }
        self.remap_dead_tiles(&plan.dead_tiles)?;
        for (i, m) in self.mems.iter_mut().enumerate() {
            m.ctrl
                .attach_faults(MemFaultState::from_plan(plan, i as u64));
            m.ctrl.set_static_boundary(self.static_boundary);
        }
        self.mem_can_fail = plan.mem_rate > 0.0 && plan.mem_retry_budget != u32::MAX;
        self.net
            .attach_faults(NocFaultState::from_plan(plan, 0))
            .map_err(|reason| CoreError::InvalidConfig { reason })?;
        for (t, tile) in self.tiles.iter_mut().enumerate() {
            tile.dna
                .attach_faults(DnaFaultState::from_plan(plan, t as u64));
        }
        self.degraded.dead_tiles = plan.dead_tiles.len() as u64;
        self.degraded.dead_links = plan.dead_links.len() as u64;
        if plan.recovery == RecoveryMode::Rollback {
            self.recovery = Some(RecoveryState {
                interval_layers: plan.checkpoint_interval_layers.max(1),
                budget: plan.rollback_budget,
                layers_since: 0,
                checkpoint: None,
                summary: RecoverySummary::default(),
            });
        }
        Ok(())
    }

    /// Rebuilds the vertex partitions so that dead tiles own nothing and
    /// the surviving tiles split the vertex space contiguously, counting
    /// how many vertices changed owner versus the healthy layout.
    ///
    /// A dead tile keeps its (idle) modules and NoC ports — only its
    /// share of the work queue moves. Its GPE starts each layer with an
    /// empty partition and goes straight to the barrier, which models a
    /// tile fenced off by configuration rather than physically removed.
    fn remap_dead_tiles(&mut self, dead: &[usize]) -> Result<(), CoreError> {
        if dead.is_empty() {
            return Ok(());
        }
        let t = self.tiles.len();
        for &d in dead {
            if d >= t {
                return Err(CoreError::InvalidConfig {
                    reason: format!("dead tile {d} is out of range for {t} tiles"),
                });
            }
        }
        let alive: Vec<usize> = (0..t).filter(|i| !dead.contains(i)).collect();
        if alive.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "every tile is marked dead; no survivor to remap work onto".into(),
            });
        }
        let n = self.union.num_nodes();
        // Healthy owner of each vertex under the original i*n/t split.
        let mut healthy = vec![0usize; n];
        for i in 0..t {
            healthy[i * n / t..(i + 1) * n / t].fill(i);
        }
        let a = alive.len();
        let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); t];
        let mut remapped = 0u64;
        for (k, &tile) in alive.iter().enumerate() {
            let lo = k * n / a;
            let hi = (k + 1) * n / a;
            for (v, &owner) in healthy.iter().enumerate().take(hi).skip(lo) {
                if owner != tile {
                    remapped += 1;
                }
                partitions[tile].push(v as u32);
            }
        }
        self.partitions = partitions;
        self.degraded.remapped_vertices = remapped;
        Ok(())
    }

    /// Data words per NoC flit, for mapping a poisoned flit bit onto a
    /// payload word index.
    fn words_per_flit(&self) -> u64 {
        (self.cfg.flit_bytes / 4).max(1) as u64
    }

    /// Appends the flight recorder's tail to an error message, so the
    /// error shows the last events leading up to it (unchanged when no
    /// tracer is attached or the ring is empty). An associated fn so
    /// field-split borrows can call it while holding `&mut` loans on
    /// other `System` fields.
    fn with_flight_tail(telemetry: &Option<Telemetry>, mut msg: String) -> String {
        if let Some(tele) = telemetry {
            let snap = tele.tracer.borrow().flight_snapshot();
            if !snap.is_empty() {
                msg.push('\n');
                msg.push_str(&snap);
            }
        }
        msg
    }

    /// Builds a protocol-violation error with the flight recorder's tail
    /// attached.
    fn protocol_error(
        telemetry: &Option<Telemetry>,
        cycle: u64,
        site: String,
        msg: String,
    ) -> CoreError {
        let msg = Self::with_flight_tail(telemetry, msg);
        CoreError::Protocol { cycle, site, msg }
    }

    /// Replaces the energy model used for `*.energy.*_pj` attribution
    /// (defaults to [`EnergyModel::default`]). Affects only metric
    /// harvesting, never simulated timing.
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.energy_model = model;
    }

    /// The energy model used for attribution.
    pub fn energy_model(&self) -> EnergyModel {
        self.energy_model
    }

    /// Emits a phase event on the runtime track at master cycle `at`.
    fn phase_event(&self, at: u64, f: impl FnOnce(&ModuleProbe)) {
        if let Some(tele) = &self.telemetry {
            tele.tracer.borrow_mut().set_now(at);
            f(&tele.system);
        }
    }

    /// Runs the full program (Algorithm 1) to completion.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Stalled`] if the simulation deadlocks (a
    /// resource sized too small for the workload).
    pub fn run(&mut self) -> Result<SimReport, CoreError> {
        let run = self.enter_phase("run");
        let result = self.run_layers().map(|()| {
            let mark = self.enter_phase("report");
            let report = self.report();
            self.leave_phase(mark);
            report
        });
        self.leave_phase(run);
        result
    }

    /// Opens host-profiler phase `name` when the run is profiled; pass
    /// the mark to [`leave_phase`](Self::leave_phase).
    fn enter_phase(&mut self, name: &str) -> Option<usize> {
        self.profiler.as_mut().map(|p| p.enter(name))
    }

    /// Closes the phase `mark` opened, and any phase still open inside it.
    fn leave_phase(&mut self, mark: Option<usize>) {
        if let (Some(p), Some(mark)) = (self.profiler.as_mut(), mark) {
            p.leave(mark);
        }
    }

    /// Runs every layer, rolling back to the last checkpoint after a
    /// detected unrecoverable fault while the budget lasts.
    fn run_layers(&mut self) -> Result<(), CoreError> {
        let layers = self.program.layers.clone();
        // Free initial checkpoint under rollback recovery: the inputs are
        // still pristine in host memory at run start, so snapshotting
        // them moves no simulated traffic.
        if let Some(rec) = self.recovery.as_mut() {
            rec.checkpoint = Some(Checkpoint {
                layer_index: 0,
                image: self.image.clone(),
                cycle: self.cycle,
            });
        }
        let mut li = 0usize;
        while li < layers.len() {
            match self.run_layer(Arc::clone(&layers[li])) {
                Ok(()) => {
                    li += 1;
                    self.maybe_checkpoint(li, layers.len());
                }
                // Detected unrecoverable faults (exhausted ECC re-read or
                // CRC retransmit budgets) and protocol violations from
                // corrupted payloads roll back to the last checkpoint
                // while budget remains (never without recovery).
                Err(err @ (CoreError::Fault { .. } | CoreError::Protocol { .. })) => {
                    match self.try_rollback() {
                        Some(restart) => li = restart,
                        None => return Err(err),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Takes a charged checkpoint after an interval's worth of layers.
    /// `next` is the index of the next layer to execute; a checkpoint
    /// after the final layer would never be restored, so it is skipped.
    fn maybe_checkpoint(&mut self, next: usize, num_layers: usize) {
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        rec.layers_since += 1;
        if rec.layers_since < rec.interval_layers || next >= num_layers {
            return;
        }
        rec.layers_since = 0;
        // Cost model: the mutable activation region (everything past
        // the static graph/feature segment) is staged through the tile
        // scratchpads, crosses the mesh to its home controller (one
        // byte-hop per byte, first order), and is both read from and
        // written back to DRAM (source row + spare checkpoint row).
        let bytes = self.image.size_bytes().saturating_sub(self.static_boundary);
        let cost = drain_cycles(&self.cfg, self.divider, 2 * bytes);
        rec.summary.checkpoint_sram_words += bytes / 4;
        rec.summary.checkpoint_noc_byte_hops += bytes;
        rec.summary.checkpoint_dram_bytes += 2 * bytes;
        rec.summary.checkpoints += 1;
        rec.summary.checkpoint_bytes += bytes;
        rec.summary.checkpoint_cycles += cost;
        let start = self.cycle;
        self.cycle += cost;
        rec.checkpoint = Some(Checkpoint {
            layer_index: next,
            image: self.image.clone(),
            cycle: self.cycle,
        });
        self.phase_event(start, |p| p.begin("checkpoint"));
        self.phase_event(self.cycle, |p| p.end("checkpoint"));
    }

    /// Rolls the system back to the last checkpoint after a detected
    /// unrecoverable fault: reclassifies the sticky failure, discards
    /// all in-flight state (fault-RNG streams keep their positions so
    /// the replay does not re-draw the same fault), restores the memory
    /// image, and charges the restore traffic. Returns the layer index
    /// to restart from, or `None` when the rollback budget is spent
    /// (the caller then surfaces the original [`CoreError::Fault`]).
    fn try_rollback(&mut self) -> Option<usize> {
        let budget = {
            let rec = self.recovery.as_ref()?;
            rec.checkpoint.as_ref()?;
            rec.budget
        };
        if self
            .recovery
            .as_ref()
            .is_some_and(|r| r.summary.rollbacks >= budget)
        {
            return None;
        }
        // Settle any still-sleeping nodes (the fault paths do this
        // before erroring; protocol errors from poisoned payloads do
        // not) so idle accounting is complete, then reclassify the
        // sticky failure that tripped the error and clear in-flight
        // state everywhere while keeping counters and RNG positions.
        self.settle_sleepers();
        self.net.clear_fault_failure_for_rollback();
        self.net.reset_for_replay();
        for m in &mut self.mems {
            m.ctrl.clear_fault_failure_for_rollback();
            m.ctrl.reset_for_replay();
            m.nic.reset();
            m.inbox.clear();
            m.meta.clear();
            m.free_tags.clear();
        }
        for t in &mut self.tiles {
            t.gpe.reset_for_replay();
            t.agg.reset_for_replay();
            t.dnq.reset_for_replay();
            t.dna.reset_for_replay();
            t.nics.iter_mut().for_each(Nic::reset);
        }
        self.board.iter_mut().for_each(|b| *b = None);
        let now = self.cycle;
        // Restore traffic: the checkpointed region streams back from
        // its spare DRAM row (read + write + mesh crossing).
        let bytes = self.image.size_bytes().saturating_sub(self.static_boundary);
        let cost = drain_cycles(&self.cfg, self.divider, 2 * bytes);
        let rec = self.recovery.as_mut().expect("checked above");
        let ckpt = rec.checkpoint.as_mut().expect("checked above");
        self.image = ckpt.image.clone();
        rec.summary.rollbacks += 1;
        rec.summary.replayed_cycles += now - ckpt.cycle;
        rec.layers_since = 0;
        rec.summary.checkpoint_noc_byte_hops += bytes;
        rec.summary.checkpoint_dram_bytes += 2 * bytes;
        rec.summary.checkpoint_cycles += cost;
        self.cycle += cost;
        // The next forward attempt starts now; a later rollback only
        // discards progress made after this point.
        let restart = ckpt.layer_index;
        ckpt.cycle = self.cycle;
        let start = now;
        self.phase_event(start, |p| p.begin("rollback"));
        self.phase_event(self.cycle, |p| p.end("rollback"));
        Some(restart)
    }

    /// Runs one layer inside its `layer:<name>` host-profiler phase,
    /// which closes (with whatever phase the layer left open) on every
    /// exit, so a layer replayed after a rollback never nests under the
    /// failed attempt.
    fn run_layer(&mut self, layer: Arc<Layer>) -> Result<(), CoreError> {
        let phase_name = format!("layer:{}", layer.name);
        let mark = self.enter_phase(&phase_name);
        let result = self.run_layer_phases(layer, &phase_name);
        self.leave_phase(mark);
        result
    }

    fn run_layer_phases(&mut self, layer: Arc<Layer>, phase_name: &str) -> Result<(), CoreError> {
        // CONFIG: set up modules and charge the weight broadcast.
        let config = self.enter_phase("config");
        let config_start = self.cycle;
        let config_cost = self.configure_layer(&layer);
        self.phase_event(config_start, |p| p.begin("config"));
        self.cycle += config_cost;
        self.config_cycles += config_cost;
        self.phase_event(self.cycle, |p| p.end("config"));
        self.leave_phase(config);
        self.board.iter_mut().for_each(|b| *b = None);
        let start = self.cycle;
        self.phase_event(start, |p| p.begin(phase_name));
        for (tile, part) in self.tiles.iter_mut().zip(&self.partitions) {
            tile.gpe
                .start_layer(Arc::clone(&layer), part.iter().copied());
        }
        // Execute until the global barrier (everything idle).
        let cycles = self.enter_phase(CYCLES_SCOPE);
        self.sync_core_clock();
        let stall_window = self.cfg.stall_window;
        let mut last_progress_marker = self.progress_marker();
        let mut last_progress_cycle = self.cycle;
        // At event level sleepers settle tick by tick to keep their
        // trace instants in order, so no cycle is jumped there.
        let may_jump = self
            .telemetry
            .as_ref()
            .is_none_or(|t| t.level < TraceLevel::Event);
        while !self.all_idle() {
            if may_jump && self.wheel.all_asleep() && self.net.is_idle() {
                // The watchdog looks after stepping the window's last
                // cycle; the jump stops there so it looks at the same
                // cycle as per-cycle stepping.
                self.jump_idle(last_progress_cycle.saturating_add(stall_window - 1));
            }
            self.step_cycle()?;
            // An exhausted protection budget is an unrecoverable fault:
            // stop cleanly with the failure detail instead of spinning
            // until the watchdog fires.
            if let Some((site, fail)) = self.fault_failure() {
                // Settle sleeping nodes first so the error's counters
                // and diagnostics cover the full cycle count.
                self.settle_sleepers();
                return Err(CoreError::Fault {
                    cycle: self.cycle,
                    site,
                    msg: Self::with_flight_tail(&self.telemetry, fail),
                });
            }
            if self.cycle - last_progress_cycle >= stall_window {
                let marker = self.progress_marker();
                if marker == last_progress_marker {
                    // Settle sleeping nodes so the stall diagnostic
                    // reports fully accounted per-module counters.
                    self.settle_sleepers();
                    let detail = format!(
                        "layer {} made no progress in {stall_window} cycles (configured stall window); {}",
                        layer.name,
                        self.stall_diagnostic()
                    );
                    return Err(CoreError::Stalled {
                        cycle: self.cycle,
                        detail: Self::with_flight_tail(&self.telemetry, detail),
                    });
                }
                last_progress_marker = marker;
                last_progress_cycle = self.cycle;
            }
            // Charge the fault-failure check + watchdog to the `faults`
            // hot phase and close this cycle's lap window.
            if let Some(p) = &mut self.profiler {
                p.lap(HotPhase::Faults);
                p.end_cycle();
            }
        }
        // Barrier: wake everything and charge the core ticks the
        // sleeping windows owe, so per-module counters match a fully
        // polled run bit-for-bit.
        self.settle_sleepers();
        self.leave_phase(cycles);
        self.phase_event(self.cycle, |p| p.end(phase_name));
        // Closing barrier cost.
        let barrier_phase = self.enter_phase("barrier");
        let barrier = drain_cycles(&self.cfg, self.divider, 0);
        self.phase_event(self.cycle, |p| p.begin("barrier"));
        self.cycle += barrier;
        self.config_cycles += barrier;
        self.phase_event(self.cycle, |p| p.end("barrier"));
        self.leave_phase(barrier_phase);
        self.layer_timings.push(LayerTiming {
            name: layer.name.clone(),
            cycles: self.cycle - start,
            config_cycles: config_cost + barrier,
        });
        // Energy attribution: snapshot cumulative class counts at the
        // layer boundary so per-layer energies partition the run total
        // exactly (event-level telemetry only; reads counters the
        // modules maintain unconditionally, so the simulation itself is
        // untouched).
        if self
            .telemetry
            .as_ref()
            .is_some_and(|tele| tele.energy.is_some())
        {
            let counts = EnergyModel::class_counts(&self.report());
            if let Some(e) = self.telemetry.as_mut().and_then(|t| t.energy.as_mut()) {
                e.layers
                    .push(std::array::from_fn(|c| counts[c] - e.prev[c]));
                e.prev = counts;
            }
            // Cumulative-energy counter tracks: Perfetto renders these
            // as step charts, one per cost class plus the total, so the
            // energy timeline sits next to the stall/link tracks.
            if let Some(tele) = &self.telemetry {
                if let Some(track) = &tele.energy_track {
                    let rates = self.energy_model.rates();
                    tele.tracer.borrow_mut().set_now(self.cycle);
                    let mut total_fj = 0u64;
                    for &c in CostClass::ALL.iter() {
                        let fj = rates.charge_fj(c, counts[c.index()]);
                        total_fj = total_fj.saturating_add(fj);
                        track.counter(
                            &format!("energy.{}_pj", c.as_str()),
                            (fj / FJ_PER_PJ) as f64,
                        );
                    }
                    track.counter("energy.total_pj", (total_fj / FJ_PER_PJ) as f64);
                }
            }
        }
        Ok(())
    }

    /// Configures AGG/DNQ/DNA on every tile for `layer`; returns the
    /// master-cycle cost of the CONFIG broadcast (weight traffic at the
    /// aggregate memory bandwidth plus allocation-bus setup).
    fn configure_layer(&mut self, layer: &Arc<Layer>) -> u64 {
        let batch_hint = self.union.num_nodes() / self.tiles.len().max(1);
        for tile in &mut self.tiles {
            if layer.agg_entry_words > 0 {
                tile.agg.configure(layer.agg_entry_words);
            }
            if layer.dnq_entry_words.iter().any(|&w| w > 0) {
                tile.dnq.configure(layer.dnq_entry_words);
            }
            tile.dna.configure(Arc::clone(layer), batch_hint);
        }
        let weight_bytes = layer.weight_words() * 4 * self.tiles.len() as u64;
        drain_cycles(&self.cfg, self.divider, weight_bytes)
    }

    /// The site and detail of a sticky fault failure: an exhausted CRC
    /// retransmit budget on the mesh, or an exhausted DRAM re-read
    /// budget (polled only when a finite one is configured, so the
    /// legacy hot path pays nothing for it).
    fn fault_failure(&self) -> Option<(String, String)> {
        if let Some(fail) = self.net.fault_failure() {
            return Some(("noc".into(), fail.to_string()));
        }
        if !self.mem_can_fail {
            return None;
        }
        self.mems.iter().enumerate().find_map(|(i, m)| {
            let fail = m.ctrl.fault_failure()?;
            Some((format!("mem{i}"), fail.to_string()))
        })
    }

    fn progress_marker(&self) -> (u64, u64, u64) {
        let flits = self.net.stats().flits_ejected;
        let ops: u64 = self.tiles.iter().map(|t| t.gpe.stats().op_cycles).sum();
        let mem: u64 = self.mems.iter().map(|m| m.ctrl.stats().requests).sum();
        (flits, ops, mem)
    }

    fn all_idle(&self) -> bool {
        self.net.is_idle()
            && self.tiles.iter().all(|t| {
                t.gpe.is_idle()
                    && t.agg.is_idle()
                    && t.dnq.is_idle()
                    && t.dna.is_idle()
                    && t.nics.iter().all(Nic::is_idle)
            })
            && self
                .mems
                .iter()
                .all(|m| m.ctrl.is_idle() && m.inbox.is_empty() && m.nic.is_idle())
    }

    /// Whether tile `t` may sleep after cycle `c`, and until when. A
    /// tile sleeps when none of its modules can change state before a
    /// NoC delivery or a module timer: nothing staged for or waiting at
    /// its ports, an AGG with no job to start, a GPE that only retries
    /// allocations that cannot succeed (or has nothing to run), and a
    /// DNA either busy with a job or drained with an empty DNQ. Every
    /// skipped core tick then repeats the same counter updates, which
    /// [`Self::settle_tile`] charges in one batch: a DNQ entry frees
    /// only on a DNA dequeue, and an AGG slot only on a Finalize job.
    ///
    /// Returns `None` if the tile must stay awake, else its timer: the
    /// master cycle of the core tick at which the DNA completes its job
    /// or the AGG releases a result, whichever is first (`None`: only a
    /// delivery wakes it).
    fn sleep_timer(&self, t: usize, c: u64) -> Option<Option<u64>> {
        let tile = &self.tiles[t];
        let dna_done = tile.dna.done_at();
        let port = tile.nics[GPE_PORT].port;
        let awake = tile.nics.iter().any(|n| !n.out.is_empty())
            || !tile.agg.is_waiting()
            || (dna_done.is_none() && !tile.dnq.is_idle())
            || !tile.gpe.can_sleep(&tile.dnq, &tile.agg)
            || self.net.node_ejection_pending(port.x, port.y) > 0;
        if awake {
            return None;
        }
        // A timer that came due while an output queue blocked the module
        // fires on the next core tick, the one that completes it.
        let next_tick = c / self.divider + 1;
        Some(
            dna_done
                .into_iter()
                .chain(tile.agg.release_at())
                .min()
                .map(|tick| tick.max(next_tick) * self.divider),
        )
    }

    /// Charges a tile the core ticks it skipped in `[from, now)` while
    /// asleep: exactly what per-cycle stepping would have recorded, as
    /// [`Self::sleep_timer`] guarantees every skipped tick repeats the
    /// one before it (the GPE's scheduler round robin and retried
    /// allocations, the DNQ idle streak, DNA busy or idle cycles, the
    /// AGG's ALU busy window).
    fn settle_tile(tile: &mut Tile, from: u64, now: u64, divider: u64) {
        // Core ticks in [from, now) = multiples of `divider` in range.
        let first = from.div_ceil(divider);
        let ticks = now.div_ceil(divider) - first;
        if ticks == 0 {
            return;
        }
        let dna_busy = tile.dna.is_busy();
        tile.gpe
            .note_ticks(ticks, &mut tile.dnq, &mut tile.agg, dna_busy);
        tile.agg.note_ticks(first, ticks);
        tile.dnq.note_ticks(ticks, tile.dna.can_accept());
        tile.dna.note_ticks(first, ticks);
    }

    /// Wakes `node` if it sleeps, settling what a tile owes for the
    /// skipped window up to `now` (a memory node's skipped cycles were
    /// counter-neutral: an empty node touches nothing).
    fn wake_node(
        wheel: &mut EventWheel,
        tiles: &mut [Tile],
        node_tile: &[Option<u32>],
        node: usize,
        now: u64,
        divider: u64,
    ) {
        if let (Some(from), Some(t)) = (wheel.wake(node), node_tile[node]) {
            Self::settle_tile(&mut tiles[t as usize], from, now, divider);
        }
    }

    /// Wakes every sleeping node and settles the core ticks it owes.
    /// Called at the layer barrier and before building stall/fault
    /// diagnostics so counters reflect the full cycle count.
    fn settle_sleepers(&mut self) {
        for node in self.tile_node.iter().chain(&self.mem_node) {
            Self::wake_node(
                &mut self.wheel,
                &mut self.tiles,
                &self.node_tile,
                *node,
                self.cycle,
                self.divider,
            );
        }
    }

    /// Recomputes the next core tick after the clock moved other than
    /// by one stepped cycle.
    fn sync_core_clock(&mut self) {
        self.core_tick_index = self.cycle.div_ceil(self.divider);
        self.next_core_tick = self.core_tick_index * self.divider;
    }

    /// Jumps the clock to the next cycle in which something can happen,
    /// given that every node sleeps and the mesh is empty: no delivery
    /// can wake a node, so that is the earliest live timer, or `cap` if
    /// that comes first. Nothing runs in the jumped cycles: no timer
    /// falls due, sleepers settle them when they wake, as they would
    /// have, and the empty mesh takes no steps.
    fn jump_idle(&mut self, cap: u64) {
        let target = self.wheel.next_timer().map_or(cap, |at| at.min(cap));
        if target > self.cycle {
            self.cycle = target;
            self.sync_core_clock();
        }
    }

    /// Converts a result destination into NoC messages.
    fn dest_messages(map: &AddressMap, dest: Dest, data: Vec<f32>) -> Vec<(Address, Message)> {
        match dest {
            Dest::Mem { addr } => {
                let words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                let mut out = Vec::new();
                let mut word = 0usize;
                for (owner, a, b) in map.split(addr, words.len() as u64 * 4) {
                    let n = (b / 4) as usize;
                    out.push((
                        owner,
                        Message::MemWrite {
                            addr: a,
                            data: words[word..word + n].to_vec(),
                        },
                    ));
                    word += n;
                }
                out
            }
            Dest::Port { addr, tag } => {
                let words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                vec![(addr, Message::Data { tag, data: words })]
            }
        }
    }

    fn step_cycle(&mut self) -> Result<(), CoreError> {
        let c = self.cycle;
        let core_tick = c == self.next_core_tick;
        let core_now = self.core_tick_index;
        if core_tick {
            self.next_core_tick += self.divider;
            self.core_tick_index += 1;
        }

        // Host profiling: `None` (the default) keeps the whole mechanism
        // to one branch per lap site.
        if let Some(p) = &mut self.profiler {
            p.begin_cycle();
        }
        if let Some(tele) = &self.telemetry {
            tele.tracer.borrow_mut().set_now(c);
        }
        if self.telemetry.is_some() && c.is_multiple_of(SAMPLE_EVERY) {
            self.sample_counters();
        }
        lap(&mut self.profiler, HotPhase::Sample);
        let words_per_flit = self.words_per_flit();

        // --- Event wheel ---
        // Due timers wake their nodes (a woken tile settles the core
        // ticks its skipped window owes), then deliveries completed by
        // the previous cycle's NoC step wake their destination memory
        // nodes and flag sleeping tiles, which ingest in the tile sweep.
        {
            let wheel = &mut self.wheel;
            let tiles = &mut self.tiles;
            let node_tile = &self.node_tile;
            let divider = self.divider;
            let mut due = std::mem::take(&mut self.due_scratch);
            wheel.due(c, &mut due);
            for node in due.drain(..) {
                Self::wake_node(wheel, tiles, node_tile, node as usize, c, divider);
            }
            self.due_scratch = due;
            self.net.drain_delivered(|node| match node_tile[node] {
                Some(t) => tiles[t as usize].delivered = wheel.is_asleep(node),
                None => {
                    wheel.wake(node);
                }
            });
        }
        // Wheel bookkeeping (timer-wake settles included) is tile work.
        lap(&mut self.profiler, HotPhase::TileComms);

        // --- Memory nodes ---
        for (mi, m) in self.mems.iter_mut().enumerate() {
            if self.wheel.is_asleep(self.mem_node[mi]) {
                continue;
            }
            // Retire at most one response per cycle.
            if m.nic.out.len() < 4 {
                if let Some(resp) = m.ctrl.pop_ready(c, &mut self.image) {
                    if let Some(data) = resp.data {
                        let (reply_to, tag) = m.meta[resp.tag as usize]
                            .take()
                            .expect("read metadata recorded");
                        m.free_tags.push(resp.tag);
                        m.nic.out.push_back((reply_to, Message::Data { tag, data }));
                    }
                }
            }
            // Ingest one flit per cycle, unconditionally (see `inbox`).
            if let Some(msg) = m.nic.receive(&mut self.net, words_per_flit) {
                m.inbox.push_back(msg);
            }
            // Feed the controller from the NIC buffer.
            while m.ctrl.queue_len() < m.ctrl.config().queue_depth {
                let Some(msg) = m.inbox.pop_front() else {
                    break;
                };
                match msg {
                    Message::MemRead {
                        addr,
                        bytes,
                        reply_to,
                        tag,
                    } => {
                        let id = match m.free_tags.pop() {
                            Some(id) => {
                                m.meta[id as usize] = Some((reply_to, tag));
                                id
                            }
                            None => {
                                m.meta.push(Some((reply_to, tag)));
                                m.meta.len() as u64 - 1
                            }
                        };
                        m.ctrl
                            .try_push(MemRequest::read(addr, u64::from(bytes), id), c)
                            .expect("queue space checked");
                    }
                    Message::MemWrite { addr, data } => {
                        m.ctrl
                            .try_push(MemRequest::write(addr, data, u64::MAX), c)
                            .expect("queue space checked");
                    }
                    Message::Data { .. } => {
                        return Err(Self::protocol_error(
                            &self.telemetry,
                            c,
                            format!("mem{mi}"),
                            "data message delivered to a memory node".into(),
                        ));
                    }
                }
            }
            // Inject one outgoing message per cycle; a busy staging slot
            // shows in the mesh's trace as an inject stall.
            m.nic.send(&mut self.net);
            // Event wheel: a fully drained node sleeps until a delivery
            // wakes it; with requests still queued (none retiring before
            // `ready_at`) a calendar timer wakes it exactly when the
            // front becomes ready. An awake empty node's per-cycle body
            // is a provable no-op, so skipping it changes nothing.
            if m.nic.out.is_empty()
                && m.inbox.is_empty()
                && self.net.ejection_pending(m.nic.port) == 0
            {
                match m.ctrl.next_ready_cycle() {
                    None => self.wheel.sleep(self.mem_node[mi], c + 1),
                    Some(ready_at) if ready_at > c => {
                        self.wheel.sleep(self.mem_node[mi], c + 1);
                        self.wheel.schedule(self.mem_node[mi], ready_at);
                    }
                    Some(_) => {}
                }
            }
        }

        lap(&mut self.profiler, HotPhase::Mem);

        // --- Tiles ---
        // With module probes attached (event level), a sleeping tile is
        // settled one core tick at a time in its slot of the sweep, so
        // its stall instants enter the trace in the order per-cycle
        // stepping emits them. The `tile_comms` lap after each awake
        // tile's ingest and inject also takes in the time spent on the
        // sleeping tiles and the sleep check before it; the lap after
        // the sweep takes the last tile's.
        let settle_each_tick = core_tick
            && self
                .telemetry
                .as_ref()
                .is_some_and(|t| t.level >= TraceLevel::Event);
        for t in 0..self.tiles.len() {
            let node = self.tile_node[t];
            if self.wheel.is_asleep(node) {
                // A sleeping tile a flit reached settles the ticks it
                // skipped, ingests the flit as per-cycle stepping would,
                // and sleeps on if that changed nothing its skipped ticks
                // repeat (a DNQ fill behind a busy DNA, a partial read
                // for a blocked thread).
                let wakes = std::mem::take(&mut self.tiles[t].delivered) && {
                    let from = self.wheel.advance(node, c);
                    Self::settle_tile(&mut self.tiles[t], from, c, self.divider);
                    self.tile_ingest(t)?;
                    self.sleep_timer(t, c).is_none()
                };
                if !wakes {
                    if settle_each_tick {
                        let from = self.wheel.advance(node, c + 1);
                        Self::settle_tile(&mut self.tiles[t], from, c + 1, self.divider);
                    }
                    continue;
                }
                self.wheel.wake(node);
            } else {
                self.tile_ingest(t)?;
            }
            self.tile_inject(t);
            lap(&mut self.profiler, HotPhase::TileComms);
            if core_tick {
                self.tile_core_tick(t, core_now);
            }
            // Event wheel: a tile none of whose modules can act sleeps
            // until the NoC delivers it a flit or its timer fires.
            if self.tiles[t].spinning {
                if let Some(timer) = self.sleep_timer(t, c) {
                    self.wheel.sleep(node, c + 1);
                    if let Some(at) = timer {
                        self.wheel.schedule(node, at);
                    }
                }
            }
        }
        lap(&mut self.profiler, HotPhase::TileComms);

        self.net.step();
        lap(&mut self.profiler, HotPhase::Noc);
        self.cycle += 1;
        Ok(())
    }

    /// Ejects up to one flit per tile port and delivers completed
    /// messages to the owning module.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Protocol`] (with the flight recorder's tail
    /// when tracing is attached) if a message reaches a module in the
    /// wrong state — a routing or compiler bug, reported instead of
    /// panicking.
    fn tile_ingest(&mut self, t: usize) -> Result<(), CoreError> {
        let words_per_flit = self.words_per_flit();
        let System {
            net,
            tiles,
            telemetry,
            cycle,
            ..
        } = self;
        let tile = &mut tiles[t];
        // All three ports sit on one router: with no flit waiting at any
        // of them there is nothing to eject, and no AGG backpressure to
        // note either.
        let node = tile.nics[GPE_PORT].port;
        if net.node_ejection_pending(node.x, node.y) == 0 {
            return Ok(());
        }
        let check = |module: &str, outcome: Result<(), String>| {
            outcome.map_err(|msg| {
                Self::protocol_error(telemetry, *cycle, format!("tile{t}.{module}"), msg)
            })
        };
        // GPE port: always accepts (responses land in thread state).
        let outcome = match tile.nics[GPE_PORT].receive(net, words_per_flit) {
            Some(Message::Data {
                tag: Tag::Gpe { thread, offset },
                data,
            }) => tile.gpe.deliver(thread, offset, &data),
            Some(other) => Err(format!("unexpected message at GPE port: {other:?}")),
            None => Ok(()),
        };
        check("gpe", outcome)?;
        // AGG port: gated on ingestion capacity. When the job FIFO is
        // full while contribution flits wait at the ejection buffer,
        // record the backpressure cycle for stall attribution.
        let outcome = if !tile.agg.can_ingest() {
            if net.ejection_pending(tile.nics[AGG_PORT].port) > 0 {
                tile.agg.note_ingest_stall();
            }
            Ok(())
        } else {
            match tile.nics[AGG_PORT].receive(net, words_per_flit) {
                Some(Message::Data {
                    tag:
                        Tag::Agg {
                            slot,
                            scale,
                            offset,
                        },
                    data,
                }) => {
                    let values = data.into_iter().map(f32::from_bits).collect();
                    tile.agg.deliver(slot, offset, scale, values)
                }
                Some(other) => Err(format!("unexpected message at AGG port: {other:?}")),
                None => Ok(()),
            }
        };
        check("agg", outcome)?;
        // DNQ port: fills are always accepted (entries pre-allocated).
        let outcome = match tile.nics[DNQ_PORT].receive(net, words_per_flit) {
            Some(Message::Data {
                tag:
                    Tag::Dnq {
                        queue,
                        entry,
                        offset,
                    },
                data,
            }) => {
                let values: Vec<f32> = data.into_iter().map(f32::from_bits).collect();
                tile.dnq.fill(queue as usize, entry, offset, &values)
            }
            Some(other) => Err(format!("unexpected message at DNQ port: {other:?}")),
            None => Ok(()),
        };
        check("dnq", outcome)
    }

    /// Injects up to one queued message per tile port. A tile port waits
    /// for its staging slot to free instead of trying a busy one.
    fn tile_inject(&mut self, t: usize) {
        for nic in &mut self.tiles[t].nics {
            if !nic.out.is_empty() && self.net.can_inject(nic.port) {
                nic.send(&mut self.net);
            }
        }
    }

    fn tile_core_tick(&mut self, t: usize, core_now: u64) {
        // Split borrows: GPE ctx needs agg+dnq of the same tile.
        let tile = &mut self.tiles[t];
        {
            let dna_busy = tile.dna.is_busy();
            let mut ctx = GpeCtx {
                agg: &mut tile.agg,
                dnq: &mut tile.dnq,
                outbox: &mut tile.nics[GPE_PORT].out,
                layout: &self.layout,
                union: &self.union,
                map: &self.map,
                board: &mut self.board,
                dna_busy,
            };
            tile.spinning = !tile.gpe.tick(&mut ctx);
        }
        lap(&mut self.profiler, HotPhase::Gpe);
        // AGG: results stage into the pending queue (bounded by the 2 kB
        // flit buffer inside the module).
        let out = &mut tile.nics[AGG_PORT].out;
        if out.len() < 8 {
            if let Some((dest, data)) = tile.agg.tick(core_now) {
                out.extend(Self::dest_messages(&self.map, dest, data));
            }
        }
        lap(&mut self.profiler, HotPhase::Agg);
        // DNQ → DNA handoff (single dequeue interface, lazy switching).
        // The DNA's accept runs its kernel, so it is charged to the DNA.
        let accepting = tile.dna.can_accept();
        let entry = tile.dnq.dequeue_for_dna(accepting);
        lap(&mut self.profiler, HotPhase::Dnq);
        if let Some(entry) = entry {
            tile.dna
                .accept(entry.kernel, &entry.data, entry.dest, core_now);
        }
        // DNA completion.
        let out = &mut tile.nics[DNQ_PORT].out;
        if out.len() < 8 {
            if let Some((dest, data)) = tile.dna.tick(core_now) {
                out.extend(Self::dest_messages(&self.map, dest, data));
            }
        }
        lap(&mut self.profiler, HotPhase::Dna);
    }

    /// Has every module sample its counters (queue occupancies, in-flight
    /// flits, windowed per-router link utilisation) on its own track; a
    /// module without a probe (below event level) samples nothing.
    fn sample_counters(&mut self) {
        self.net.sample_utilization(SAMPLE_EVERY);
        for tile in &self.tiles {
            tile.dnq.sample_counters();
            tile.agg.sample_counters();
        }
        for m in &self.mems {
            m.ctrl.sample_counters();
        }
        self.net.sample_inflight();
    }

    /// One-line description of what every module is doing (stall debug).
    fn stall_diagnostic(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, t) in self.tiles.iter().enumerate() {
            let _ = write!(
                out,
                "tile{i}[gpe idle={} work={} outbox={}; agg live={} jobs_idle={}; dnq q0={}/{} q1={}/{}; dna busy={} pend a={} d={}] ",
                t.gpe.is_idle(),
                t.gpe.stats().vertices_done,
                t.nics[GPE_PORT].out.len(),
                t.agg.live_slots(),
                t.agg.is_idle(),
                t.dnq.len(0),
                t.dnq.capacity(0),
                t.dnq.len(1),
                t.dnq.capacity(1),
                t.dna.is_busy(),
                t.nics[AGG_PORT].out.len(),
                t.nics[DNQ_PORT].out.len(),
            );
        }
        for (i, m) in self.mems.iter().enumerate() {
            let _ = write!(
                out,
                "mem{i}[q={} in={} out={} rx={}] ",
                m.ctrl.queue_len(),
                m.inbox.len(),
                m.nic.out.len(),
                m.nic.rx.pending()
            );
        }
        let _ = write!(
            out,
            "tile0 q0 {} ejq={} rx={}; net {} ",
            self.tiles[0].dnq.debug_head(0),
            self.net.ejection_pending(self.tiles[0].nics[DNQ_PORT].port),
            self.tiles[0].nics[DNQ_PORT].rx.pending(),
            self.net.stats()
        );
        out
    }

    /// Builds the final report.
    fn report(&self) -> SimReport {
        let per_tile = self.tile_counters();
        let tile_sum = |f: fn(&TileCounters) -> u64| per_tile.iter().map(f).sum();
        let mut mem = MemStats::default();
        for m in &self.mems {
            mem.merge(m.ctrl.stats());
        }
        SimReport {
            config_name: self.cfg.name.clone(),
            core_clock_hz: self.cfg.core_clock_hz,
            noc_clock_hz: self.cfg.noc_clock_hz,
            total_cycles: self.cycle,
            config_cycles: self.config_cycles,
            layers: self.layer_timings.clone(),
            dram_bytes: mem.dram_bytes,
            useful_mem_bytes: mem.useful_bytes,
            peak_mem_bandwidth: self.cfg.total_mem_bandwidth(),
            dna_busy_cycles: tile_sum(|t| t.dna_busy_cycles),
            dna_entries: tile_sum(|t| t.dna_entries),
            dna_macs: tile_sum(|t| t.dna_macs),
            gpe_op_cycles: tile_sum(|t| t.gpe_op_cycles),
            gpe_idle_cycles: tile_sum(|t| t.gpe_idle_cycles),
            agg_busy_cycles: tile_sum(|t| t.agg_busy_cycles),
            agg_completed: tile_sum(|t| t.agg_completed),
            agg_words_combined: tile_sum(|t| t.agg_words_combined),
            dnq_fill_words: tile_sum(|t| t.dnq_fill_words),
            noc_flit_hops: self.net.stats().flit_hops,
            noc_flit_bytes: self.cfg.flit_bytes as u64,
            num_tiles: self.tiles.len(),
            clock_divider: self.divider,
            per_tile,
            resilience: self.resilience_summary(),
            degraded: self.degraded,
            recovery: self
                .recovery
                .as_ref()
                .map_or_else(RecoverySummary::default, |r| r.summary),
        }
    }

    /// Rolls up every module's fault counters per site. All zeros when
    /// fault injection is not attached.
    fn resilience_summary(&self) -> ResilienceSummary {
        let mut summary = ResilienceSummary::default();
        for m in &self.mems {
            if let Some(c) = m.ctrl.fault_counters() {
                summary.mem.merge(c);
            }
        }
        if let Some(c) = self.net.fault_counters() {
            summary.noc.merge(c);
        }
        for t in &self.tiles {
            if let Some(c) = t.dna.fault_counters() {
                summary.dna.merge(c);
            }
        }
        summary
    }

    /// Per-tile module counters: the one place tile module stats are
    /// read, for both the report and the metrics harvest.
    fn tile_counters(&self) -> Vec<TileCounters> {
        self.tiles
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let g = t.gpe.stats();
                let (contribs, words, done, busy, rej) = t.agg.stats();
                let (enq, deq, sw, fill) = t.dnq.stats();
                TileCounters {
                    tile: i,
                    gpe_op_cycles: g.op_cycles,
                    gpe_switch_cycles: g.switch_cycles,
                    gpe_idle_cycles: g.idle_cycles,
                    gpe_stall_cycles: g.stall_cycles,
                    gpe_vertices_done: g.vertices_done,
                    gpe_reads_issued: g.reads_issued,
                    gpe_stall_by_cause: g.stall_by_cause,
                    agg_contributions: contribs,
                    agg_words_combined: words,
                    agg_completed: done,
                    agg_busy_cycles: busy,
                    agg_alloc_failures: rej,
                    agg_ingest_stalls: t.agg.ingest_stalls(),
                    dnq_enqueued: enq,
                    dnq_dequeued: deq,
                    dnq_switches: sw,
                    dnq_fill_words: fill,
                    dnq_alloc_failures: t.dnq.alloc_failures(),
                    dnq_head_wait_cycles: t.dnq.head_wait_cycles(),
                    dna_busy_cycles: t.dna.busy_cycles(),
                    dna_idle_cycles: t.dna.idle_cycles(),
                    dna_output_stall_cycles: t.dna.output_stall_cycles(),
                    dna_entries: t.dna.entries_processed(),
                    dna_macs: t.dna.macs_executed(),
                }
            })
            .collect()
    }

    /// Dumps every module's counters into `reg` under dotted names
    /// (`tileN.module.stat`, `memN.stat`, `noc.stat`, `system.stat`),
    /// plus the `host.profile.*` family when a profiler is attached.
    pub fn harvest_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter_set(TOTAL_CYCLES_KEY, self.cycle);
        reg.counter_set(CONFIG_CYCLES_KEY, self.config_cycles);
        reg.counter_set(CLOCK_DIVIDER_KEY, self.divider);
        reg.gauge_set(CORE_CLOCK_HZ_KEY, self.cfg.core_clock_hz);
        reg.gauge_set(NOC_CLOCK_HZ_KEY, self.cfg.noc_clock_hz);
        for (k, l) in self.layer_timings.iter().enumerate() {
            reg.counter_set(&format!("system.layer{k}.cycles"), l.cycles);
            reg.counter_set(&format!("system.layer{k}.config_cycles"), l.config_cycles);
        }
        // Degradation counters: present only when a permanent fault
        // reshaped the topology.
        if self.degraded.any() {
            for (name, v) in self.degraded.fields() {
                reg.counter_set(&format!("system.degraded.{name}"), v);
            }
        }
        for t in self.tile_counters() {
            for (name, v) in t.fields() {
                reg.counter_set(&TILE_KEYS.member(t.tile, name), v);
            }
        }
        for (i, t) in self.tiles.iter().enumerate() {
            if let Some(c) = t.dna.fault_counters() {
                Self::harvest_fault_counters(reg, &TILE_KEYS.scope(i), c);
            }
        }
        for (i, m) in self.mems.iter().enumerate() {
            let s = m.ctrl.stats();
            for (name, v) in s.fields() {
                reg.counter_set(&gnna_mem::STATS_KEYS.member(i, name), v);
            }
            reg.gauge_set(
                &gnna_mem::STATS_KEYS.member(i, gnna_mem::EFFICIENCY),
                s.efficiency(),
            );
            if let Some(c) = m.ctrl.fault_counters() {
                Self::harvest_fault_counters(reg, &gnna_mem::STATS_KEYS.scope(i), c);
            }
        }
        let n = self.net.stats();
        for (name, v) in n.fields() {
            reg.counter_set(&format!("noc.{name}"), v);
        }
        reg.gauge_set("noc.mean_packet_latency", n.mean_packet_latency());
        if let Some(c) = self.net.fault_counters() {
            Self::harvest_fault_counters(reg, gnna_noc::FAULT_SITE, c);
        }
        // Recovery counters: present only when rollback is configured,
        // so legacy registries keep their exact key set.
        if let Some(rec) = &self.recovery {
            for (name, v) in rec.summary.fields() {
                reg.counter_set(&format!("system.recovery.{name}"), v);
            }
        }
        // Deep NoC telemetry (per-link busy counters, latency/hop
        // histograms) — no-op when probes are detached.
        self.net.harvest_metrics(reg);
        // Energy ledger export — no-op without event-level telemetry.
        self.harvest_energy(reg);
        if let Some(p) = &self.profiler {
            p.export_metrics(reg);
        }
    }

    /// Exports fault site `site`'s counters (only called when fault
    /// injection is attached there, so fault-free registries contain no
    /// `*.fault.*` keys at all).
    fn harvest_fault_counters(
        reg: &mut MetricsRegistry,
        site: &str,
        c: &gnna_faults::FaultCounters,
    ) {
        for (name, v) in c.fields() {
            // `rolled_back` is emitted only when rollbacks actually
            // reclassified faults, so registries from retry/pass-through
            // runs keep their key set.
            if name != "rolled_back" || v != 0 {
                reg.counter_set(&FAULT_KEYS.member(site, name), v);
            }
        }
    }

    /// Builds the per-module energy ledger: every countable event is
    /// charged in integer femtojoules to exactly one attribution site,
    /// so the sites partition the run's total energy.
    fn energy_ledger(&self, rates: &EnergyRates) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        let mut charge = |name: &str, (_, class, n): EnergyCharge| {
            ledger.charge(name, rates.charge_fj(class, n));
        };
        for t in self.tile_counters() {
            for c in t.energy() {
                charge(&TILE_KEYS.member(t.tile, &TILE_ENERGY_KEYS.key(c.0)), c);
            }
        }
        for (i, m) in self.mems.iter().enumerate() {
            charge(&gnna_mem::ENERGY_KEYS.key(i), m.ctrl.stats().energy());
        }
        let flit_bytes = self.cfg.flit_bytes as u64;
        for (x, y, dir, flits) in self.net.link_flit_forwards() {
            let key = gnna_noc::LINK_ENERGY_KEYS.key(gnna_noc::link_id(x, y, dir));
            charge(&key, gnna_noc::link_energy(flits, flit_bytes));
        }
        // Checkpoint/rollback traffic gets its own attribution site so
        // the recovery-cost overhead is visible in the ledger while the
        // per-site partition of the total stays exact.
        if let Some(rec) = &self.recovery {
            for c in rec.summary.energy() {
                if c.2 != 0 {
                    charge(&SYSTEM_ENERGY_KEYS.key(c.0), c);
                }
            }
        }
        ledger
    }

    /// Exports the energy ledger into `reg` as integer-pJ counters:
    /// `tileN.energy.<module>_pj`, `mem.energy.ctrlN_pj`,
    /// `noc.energy.link.{x}_{y}.{D}_pj`, `system.energy.layerK_pj` and
    /// `system.energy.total_pj`. Both the per-module family and the
    /// per-layer family sum to the total **exactly** (largest-remainder
    /// apportionment of the integer-femtojoule ledger). No-op unless
    /// event-level telemetry is attached, so untraced harvests are
    /// unchanged.
    fn harvest_energy(&self, reg: &mut MetricsRegistry) {
        let Some(energy) = self.telemetry.as_ref().and_then(|t| t.energy.as_ref()) else {
            return;
        };
        let rates = self.energy_model.rates();
        let ledger = self.energy_ledger(&rates);
        let total_pj = ledger.export_pj(reg);
        reg.counter_set(TOTAL_ENERGY_KEY, total_pj);
        // Per-layer partition of the same total (complete runs only:
        // every countable event lands inside some layer's execute
        // phase, so the layer deltas sum to the final class counts).
        let layer_fj: Vec<u64> = energy
            .layers
            .iter()
            .map(|delta| {
                CostClass::ALL
                    .iter()
                    .map(|&c| rates.charge_fj(c, delta[c.index()]))
                    .fold(0u64, |a, b| a.saturating_add(b))
            })
            .collect();
        let (_, layer_pj) = apportion_pj(&layer_fj);
        for (k, pj) in layer_pj.into_iter().enumerate() {
            reg.counter_set(&LAYER_ENERGY_KEYS.key(k), pj);
        }
    }

    /// Reads the simulated output for input instance `index` after
    /// [`System::run`]: per-vertex rows for vertex-output models, one row
    /// for graph-output models (MPNN).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `index` is out of range.
    pub fn output_matrix(&self, index: usize) -> Result<Matrix, CoreError> {
        let region = self.layout.buffers[self.program.output_buffer];
        if index >= self.instance_ranges.len() {
            return Err(CoreError::InvalidConfig {
                reason: format!("instance index {index} out of range"),
            });
        }
        if region.rows == self.union.num_nodes() {
            let (lo, hi) = self.instance_ranges[index];
            let sub = BufferRegion {
                addr: region.row_addr(lo),
                rows: hi - lo,
                row_words: region.row_words,
            };
            Ok(read_buffer(&self.image, &sub))
        } else {
            // Per-graph outputs.
            let sub = BufferRegion {
                addr: region.row_addr(index),
                rows: 1,
                row_words: region.row_words,
            };
            Ok(read_buffer(&self.image, &sub))
        }
    }

    /// The whole output buffer as a matrix (all instances).
    pub fn full_output(&self) -> Matrix {
        read_buffer(
            &self.image,
            &self.layout.buffers[self.program.output_buffer],
        )
    }

    /// Master cycles elapsed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{compile_gcn, compile_mpnn, compile_pgnn};
    use gnna_graph::datasets;
    use gnna_models::{Gcn, GcnNorm, Mpnn, Pgnn};

    #[test]
    fn gcn_end_to_end_matches_functional_model() {
        let d = datasets::cora_scaled(30, 12, 4, 3).unwrap();
        let inst = &d.instances[0];
        let gcn = Gcn::for_dataset(12, 6, 4, 5)
            .unwrap()
            .with_norm(GcnNorm::Mean);
        let program = compile_gcn(&gcn).unwrap();
        let cfg = AcceleratorConfig::cpu_iso_bandwidth();
        let mut sys = System::new(&cfg, std::slice::from_ref(inst), program).unwrap();
        let report = sys.run().unwrap();
        assert!(report.total_cycles > 0);
        let simulated = sys.output_matrix(0).unwrap();
        let reference = gcn.forward(&inst.graph, &inst.x).unwrap();
        let diff = simulated.max_abs_diff(&reference).unwrap();
        assert!(diff < 1e-3, "simulated vs functional diff {diff}");
    }

    #[test]
    fn gcn_multi_tile_matches_functional_model() {
        let d = datasets::cora_scaled(40, 8, 3, 11).unwrap();
        let inst = &d.instances[0];
        let gcn = Gcn::for_dataset(8, 4, 3, 2)
            .unwrap()
            .with_norm(GcnNorm::Mean);
        let program = compile_gcn(&gcn).unwrap();
        let cfg = AcceleratorConfig::gpu_iso_bandwidth();
        let mut sys = System::new(&cfg, std::slice::from_ref(inst), program).unwrap();
        sys.run().unwrap();
        let diff = sys
            .output_matrix(0)
            .unwrap()
            .max_abs_diff(&gcn.forward(&inst.graph, &inst.x).unwrap())
            .unwrap();
        assert!(diff < 1e-3, "multi-tile diff {diff}");
    }

    #[test]
    fn gat_end_to_end_matches_functional_model() {
        let d = datasets::cora_scaled(24, 10, 3, 7).unwrap();
        let inst = &d.instances[0];
        let gat = gnna_models::Gat::for_dataset(10, 3, 6).unwrap();
        let program = crate::layers::compile_gat(&gat).unwrap();
        let cfg = AcceleratorConfig::cpu_iso_bandwidth();
        let mut sys = System::new(&cfg, std::slice::from_ref(inst), program).unwrap();
        sys.run().unwrap();
        let diff = sys
            .output_matrix(0)
            .unwrap()
            .max_abs_diff(&gat.forward(&inst.graph, &inst.x).unwrap())
            .unwrap();
        assert!(diff < 1e-3, "gat diff {diff}");
    }

    #[test]
    fn mpnn_end_to_end_matches_functional_model() {
        let d = datasets::qm9_scaled(4, 5).unwrap();
        let mpnn = Mpnn::for_dataset(13, 5, 8, 6, 2, 3).unwrap();
        let program = compile_mpnn(&mpnn).unwrap();
        let cfg = AcceleratorConfig::cpu_iso_bandwidth();
        let mut sys = System::new(&cfg, &d.instances, program).unwrap();
        sys.run().unwrap();
        let reference = mpnn.forward_dataset(&d.instances).unwrap();
        for (g, _) in d.instances.iter().enumerate() {
            let sim = sys.output_matrix(g).unwrap();
            let diff: f32 = sim
                .row(0)
                .iter()
                .zip(reference.row(g))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(diff < 1e-3, "graph {g} diff {diff}");
        }
    }

    #[test]
    fn pgnn_end_to_end_matches_functional_model() {
        let d = datasets::dblp_scaled(25, 9).unwrap();
        let inst = &d.instances[0];
        let pgnn = Pgnn::for_dataset(1, 6, 3, 4).unwrap();
        let program = compile_pgnn(&pgnn).unwrap();
        let cfg = AcceleratorConfig::cpu_iso_bandwidth();
        let mut sys = System::new(&cfg, std::slice::from_ref(inst), program).unwrap();
        sys.run().unwrap();
        let diff = sys
            .output_matrix(0)
            .unwrap()
            .max_abs_diff(&pgnn.forward(&inst.graph, &inst.x).unwrap())
            .unwrap();
        assert!(diff < 1e-3, "pgnn diff {diff}");
    }

    #[test]
    fn slower_clock_increases_latency_for_compute_bound() {
        let d = datasets::cora_scaled(24, 32, 4, 3).unwrap();
        let inst = &d.instances[0];
        let gcn = Gcn::for_dataset(32, 16, 4, 5)
            .unwrap()
            .with_norm(GcnNorm::Mean);
        let run = |hz: f64| {
            let program = compile_gcn(&gcn).unwrap();
            let cfg = AcceleratorConfig::cpu_iso_bandwidth().with_core_clock(hz);
            let mut sys = System::new(&cfg, std::slice::from_ref(inst), program).unwrap();
            sys.run().unwrap().total_cycles
        };
        let fast = run(2.4e9);
        let slow = run(0.6e9);
        assert!(slow > fast, "slow {slow} <= fast {fast}");
    }

    #[test]
    fn rejects_feature_width_mismatch() {
        let d = datasets::cora_scaled(10, 4, 3, 1).unwrap();
        let gcn = Gcn::for_dataset(8, 4, 3, 1)
            .unwrap()
            .with_norm(GcnNorm::Mean);
        let program = compile_gcn(&gcn).unwrap();
        let cfg = AcceleratorConfig::cpu_iso_bandwidth();
        assert!(System::new(&cfg, &d.instances, program).is_err());
    }

    #[test]
    fn report_has_activity() {
        let d = datasets::cora_scaled(16, 8, 3, 2).unwrap();
        let gcn = Gcn::for_dataset(8, 4, 3, 1)
            .unwrap()
            .with_norm(GcnNorm::Mean);
        let program = compile_gcn(&gcn).unwrap();
        let cfg = AcceleratorConfig::cpu_iso_bandwidth();
        let mut sys = System::new(&cfg, &d.instances, program).unwrap();
        let r = sys.run().unwrap();
        assert!(r.dram_bytes > 0);
        assert!(r.dna_entries == 32, "one DNA entry per vertex per layer");
        assert!(r.agg_completed >= 16);
        assert!(r.gpe_op_cycles > 0);
        assert!(r.noc_flit_hops > 0);
        assert!(r.mean_bandwidth() > 0.0);
    }
}
