//! Bit-identity golden corpus for the simulator.
//!
//! Every optimisation to the cycle loop (flit arenas, SoA router state,
//! the idle-module event wheel) must leave the simulation *bit-identical*:
//! every harvested counter and every output-matrix bit. A single
//! GCN:Cora golden is too narrow a behaviour surface — an arbitration
//! reorder that only bites under GAT's flit mix, or a skipped RNG draw
//! that only shows up with fault injection attached, would slip straight
//! through. This corpus pins the full matrix:
//!
//!   4 models (GCN / GAT / MPNN / PGNN)
//! × 2 configurations (CPU iso-BW, GPU iso-BW)
//! × 3 fault modes (fault-free, fixed-seed transients, permanent degraded)
//!
//! plus two fault-free cells at a 0.6 GHz core clock: MPNN:QM9 on CPU
//! iso-BW and GAT:Cora on GPU iso-BW, at the `gnna-sim --smoke` scale.
//! The matrix runs the core at the 2.4 GHz master clock, so without them
//! a cycle-loop change that confuses core ticks with master cycles
//! (clock divider 4 here) would pass; and its graphs are too small for
//! GPE threads to find the DNQ or the AGG slot file full, which these
//! two cells do for most of their run.
//!
//! Then comes one multi-hop PowerGather cell: a two-layer PGNN over
//! powers {0, 1, 2, 4} on smoke-scale DBLP, CPU iso-BW. The matrix's
//! PGNN uses powers {0, 1, 2}, which walk one hop past the neighbour
//! list; this cell walks three, so the per-hop frontier dedup (and the
//! op cycle each candidate costs) is pinned on longer walks.
//!
//! Last comes one molecule: instance 0 of the smoke-scale QM9 set under
//! the smoke MPNN, on GPU iso-BW at 2.4 GHz — the shape of one
//! `gnna-serve` cycle job. Its 8 tiles and 8 memory nodes sleep behind
//! DNA jobs with an empty mesh for most of the run, so the cycles in
//! which nothing at all can happen are pinned.
//!
//! Each cell is reduced to one FNV-1a-64 digest over the CSV rendering
//! of its harvested `MetricsRegistry` (exactly what `gnna-sim
//! --metrics-out m.csv` writes for an untraced run) plus the raw
//! output-matrix bits, committed in `tests/golden/sim_metrics.txt`. The
//! registry carries every `SimReport` counter — the agreement test below
//! proves it — so there is nowhere for a behaviour change to hide.
//!
//! The same 29 cells plus two rollback runs are also run at
//! `TraceLevel::Event` and pinned in `tests/golden/sim_metrics_event.txt`.
//! Only an event-level harvest carries the energy ledger
//! (`*.energy.*_pj`), the per-link busy counters and the NoC latency/hop
//! histograms, so this second file is what pins those keys. The same
//! event-level runs also pin their Chrome-trace bytes
//! (`Tracer::to_chrome_json_string`) in `tests/golden/sim_traces.txt`,
//! so a change that moves, drops or reorders a trace event shows even
//! when every counter stays the same.
//!
//! Degraded mode notes: on GPU iso-BW the permanent fault is a dead mesh
//! link at (0,0)→East, exercising the BFS detour tables. The CPU iso-BW
//! mesh is 1×2 — its only link cannot die without disconnecting the mesh
//! (plan validation rejects that) — so the CPU-iso degraded cells use the
//! permanent stuck-at bit-line model instead, which still drives the
//! ECC/permanent-fault paths every cycle.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! GNNA_BLESS_GOLDENS=1 cargo test --test goldens
//! ```
//!
//! and commit the rewritten digest file together with the change that
//! explains it.

use gnna_core::config::AcceleratorConfig;
use gnna_core::energy::EnergyModel;
use gnna_core::layers::{compile_gat, compile_gcn, compile_mpnn, compile_pgnn};
use gnna_core::stats::SimReport;
use gnna_core::system::{System, TraceOptions};
use gnna_faults::{CrcDomain, FaultCounters, FaultPlan, MeshDir, RecoveryMode};
use gnna_graph::datasets;
use gnna_models::{Gat, Gcn, GcnNorm, Mpnn, Pgnn};
use gnna_telemetry::energy::CostClass;
use gnna_telemetry::{Metric, MetricsRegistry, TraceLevel};

const MODELS: [&str; 4] = ["gcn", "gat", "mpnn", "pgnn"];
const CONFIGS: [&str; 2] = ["cpu-iso", "gpu-iso"];
const MODES: [&str; 3] = ["clean", "transient", "degraded"];
/// The fault-free cells on a divided core clock, after the matrix.
const DIVIDED: [(&str, &str); 2] = [
    ("mpnn-smoke", "cpu-iso-0.6ghz"),
    ("gat-smoke", "gpu-iso-0.6ghz"),
];
/// The multi-hop PowerGather cell, after the divided-clock ones.
const MULTI_HOP: (&str, &str) = ("pgnn-smoke", "cpu-iso");
/// The one-molecule cell, last in the corpus.
const MOLECULE: (&str, &str) = ("mpnn-molecule", "gpu-iso");

/// Model seed of the smoke-scale cells (`gnna_bench::MODEL_SEED`).
const SMOKE_MODEL_SEED: u64 = 0xD0C5;

/// Committed digests of the untraced corpus, one `name digest16` line
/// per corpus cell.
const GOLDEN: &str = include_str!("golden/sim_metrics.txt");

/// Committed digests of the event-level corpus (the 29 cells plus the
/// two rollback runs).
const GOLDEN_EVENT: &str = include_str!("golden/sim_metrics_event.txt");

/// Committed digests of the same event-level runs' Chrome-trace JSON.
const GOLDEN_TRACES: &str = include_str!("golden/sim_traces.txt");

fn config_for(name: &str) -> AcceleratorConfig {
    match name {
        "cpu-iso" => AcceleratorConfig::cpu_iso_bandwidth(),
        "gpu-iso" => AcceleratorConfig::gpu_iso_bandwidth(),
        "cpu-iso-0.6ghz" => AcceleratorConfig::cpu_iso_bandwidth().with_core_clock(0.6e9),
        "gpu-iso-0.6ghz" => AcceleratorConfig::gpu_iso_bandwidth().with_core_clock(0.6e9),
        other => panic!("unknown config {other}"),
    }
}

/// Builds the cell's system with `fault_plan` applied, traced at
/// `level`: small scaled datasets for the matrix (the same shapes the
/// end-to-end functional tests use) and the smoke scale for the two
/// divided-clock cells, the multi-hop one and the molecule, so the
/// whole 29-cell corpus runs in seconds
/// while still exercising every module and both mesh layouts.
fn system_for(
    model: &str,
    cfg: &AcceleratorConfig,
    fault_plan: Option<FaultPlan>,
    level: TraceLevel,
) -> System {
    let opts = TraceOptions {
        fault_plan,
        ..TraceOptions::at_level(level)
    };
    match model {
        "gcn" => {
            let d = datasets::cora_scaled(30, 12, 4, 3).unwrap();
            let gcn = Gcn::for_dataset(12, 6, 4, 5)
                .unwrap()
                .with_norm(GcnNorm::Mean);
            let program = compile_gcn(&gcn).unwrap();
            System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, &opts)
                .unwrap()
        }
        "gat" => {
            let d = datasets::cora_scaled(24, 10, 3, 7).unwrap();
            let gat = Gat::for_dataset(10, 3, 6).unwrap();
            let program = compile_gat(&gat).unwrap();
            System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, &opts)
                .unwrap()
        }
        "mpnn" => {
            let d = datasets::qm9_scaled(4, 5).unwrap();
            let mpnn = Mpnn::for_dataset(13, 5, 8, 6, 2, 3).unwrap();
            let program = compile_mpnn(&mpnn).unwrap();
            System::with_options(cfg, &d.instances, program, &opts).unwrap()
        }
        // The `gnna-sim --smoke` workloads: MPNN hidden 64 with three
        // message-passing steps and the Gilmer edge network, GAT with 8
        // heads of 8.
        // `mpnn-molecule` runs the first molecule alone.
        "mpnn-smoke" | "mpnn-molecule" => {
            let d = datasets::qm9_scaled(20, 42).unwrap();
            let mpnn = Mpnn::for_dataset_gilmer(
                d.vertex_features(),
                d.edge_features(),
                64,
                d.output_features,
                3,
                SMOKE_MODEL_SEED,
            )
            .unwrap();
            let program = compile_mpnn(&mpnn).unwrap();
            let instances = if model == "mpnn-molecule" {
                &d.instances[..1]
            } else {
                &d.instances[..]
            };
            System::with_options(cfg, instances, program, &opts).unwrap()
        }
        "gat-smoke" => {
            let d = datasets::cora_scaled(120, 64, 7, 42).unwrap();
            let gat = Gat::for_dataset(64, 7, SMOKE_MODEL_SEED).unwrap();
            let program = compile_gat(&gat).unwrap();
            System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, &opts)
                .unwrap()
        }
        "pgnn" => {
            let d = datasets::dblp_scaled(25, 9).unwrap();
            let pgnn = Pgnn::for_dataset(1, 6, 3, 4).unwrap();
            let program = compile_pgnn(&pgnn).unwrap();
            System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, &opts)
                .unwrap()
        }
        // The `gnna-sim --smoke` DBLP graph with the benchmark's powers
        // {0, 1, 2, 4}, over two layers instead of nine.
        "pgnn-smoke" => {
            let d = datasets::dblp_scaled(60, 42).unwrap();
            let pgnn = Pgnn::with_powers(
                &[0, 1, 2, 4],
                d.vertex_features(),
                16,
                d.output_features,
                SMOKE_MODEL_SEED,
            )
            .unwrap();
            let program = compile_pgnn(&pgnn).unwrap();
            System::with_options(cfg, std::slice::from_ref(&d.instances[0]), program, &opts)
                .unwrap()
        }
        other => panic!("unknown model {other}"),
    }
}

/// The cell's fault plan, if any. Seeds are fixed so the transient RNG
/// streams — and therefore the digests — are reproducible.
fn plan_for(mode: &str, config: &str) -> Option<FaultPlan> {
    match mode {
        "clean" => None,
        "transient" => Some(
            FaultPlan::new(29)
                .with_mem_rate(0.01)
                .with_noc_rate(0.002)
                .with_stall_rate(0.01),
        ),
        "degraded" => Some(if config == "gpu-iso" {
            FaultPlan::new(5).with_dead_link(0, 0, MeshDir::East)
        } else {
            FaultPlan::new(5).with_mem_stuck_rate(0.002)
        }),
        "ctrl-crc" => Some(
            FaultPlan::new(42)
                .with_rate(0.01)
                .with_crc_domain(CrcDomain::ControlOnly),
        ),
        "rollback" => Some(rollback_plan(3)),
        "rollback-replay" => Some(rollback_plan(5)),
        other => panic!("unknown mode {other}"),
    }
}

/// FNV-1a 64-bit, the same simple stable hash everywhere in the repo's
/// tooling: no dependency, stable across platforms and releases.
fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = seed;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One finished corpus cell: its report, its harvested registry, the
/// digest over the registry CSV and the output-matrix bits, and the
/// digest of its Chrome-trace JSON when it was traced.
struct Cell {
    name: String,
    report: SimReport,
    reg: MetricsRegistry,
    digest: u64,
    trace: Option<u64>,
}

/// Runs one corpus cell to completion, untraced.
fn run_cell(model: &str, config: &str, mode: &str) -> Cell {
    run_traced(model, config, mode, TraceLevel::Off)
}

/// Runs one corpus cell to completion at `level`.
fn run_traced(model: &str, config: &str, mode: &str, level: TraceLevel) -> Cell {
    let plan = plan_for(mode, config);
    let mut sys = system_for(model, &config_for(config), plan, level);
    let report = sys.run().unwrap();
    let mut reg = MetricsRegistry::new();
    sys.harvest_metrics(&mut reg);
    let mut digest = fnv1a(reg.to_csv_string().bytes(), FNV_OFFSET);
    for v in sys.full_output().into_vec() {
        digest = fnv1a(v.to_bits().to_le_bytes(), digest);
    }
    let trace = sys
        .tracer()
        .map(|t| fnv1a(t.borrow().to_chrome_json_string().bytes(), FNV_OFFSET));
    Cell {
        name: format!("{model}:{config}:{mode}"),
        report,
        reg,
        digest,
        trace,
    }
}

/// Every cell of the corpus traced at `level`, in golden-file order.
fn corpus_at(level: TraceLevel) -> Vec<Cell> {
    let mut cells = Vec::new();
    for model in MODELS {
        for config in CONFIGS {
            for mode in MODES {
                cells.push(run_traced(model, config, mode, level));
            }
        }
    }
    for (model, config) in DIVIDED {
        let cell = run_traced(model, config, "clean", level);
        assert_eq!(cell.report.clock_divider, 4, "{}", cell.name);
        cells.push(cell);
    }
    for (model, config) in [MULTI_HOP, MOLECULE] {
        cells.push(run_traced(model, config, "clean", level));
    }
    cells.push(ctrl_crc_cell(level));
    cells
}

/// Every cell of the untraced corpus, in golden-file order.
fn corpus() -> Vec<Cell> {
    corpus_at(TraceLevel::Off)
}

/// The control-only CRC run traced at `level`: it must both retry
/// corrupted read requests and deliver corrupted data unchecked, with
/// every injected fault counted exactly once.
fn ctrl_crc_cell(level: TraceLevel) -> Cell {
    let cell = run_traced("gcn", "gpu-iso", "ctrl-crc", level);
    let r = &cell.report.resilience;
    assert!(r.noc.sdc > 0, "{}: no poisoned delivery: {r:?}", cell.name);
    assert!(r.noc.retried > 0, "{}: no CRC retry: {r:?}", cell.name);
    assert!(r.partition_holds(), "{}: {r:?}", cell.name);
    cell
}

/// A GCN rollback plan at `seed`: double-bit DRAM faults against a
/// one-re-read budget. No corpus cell reaches the `system.recovery.*`
/// family or the checkpoint energy site. On the `gcn` cell on GPU iso-BW,
/// seed 3 takes 3 checkpoints and never rolls back; seed 5 exhausts the
/// budget, takes 3 checkpoints and 3 rollbacks, and replays 2540 cycles.
fn rollback_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_mem_rate(0.05)
        .with_double_bit_fraction(0.5)
        .with_mem_retry_budget(1)
        .with_recovery(RecoveryMode::Rollback)
        .with_rollback_budget(64)
}

/// The seed-3 rollback run traced at `level`: it checkpoints, but never
/// rolls back.
fn checkpoint_cell(level: TraceLevel) -> Cell {
    let cell = run_traced("gcn", "gpu-iso", "rollback", level);
    assert!(cell.report.recovery.any(), "rollback plan recorded nothing");
    cell
}

/// The seed-5 rollback run traced at `level`: it rolls back and replays,
/// so `try_rollback`, the replay and the restore traffic are pinned.
fn rollback_cell(level: TraceLevel) -> Cell {
    let cell = run_traced("gcn", "gpu-iso", "rollback-replay", level);
    let rec = cell.report.recovery;
    assert!(
        rec.rollbacks > 0,
        "rollback plan never rolled back: {rec:?}"
    );
    cell
}

fn parse_golden(golden: &str) -> Vec<(String, u64)> {
    golden
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("golden line: `name digest`");
            let v = u64::from_str_radix(hex.trim(), 16).expect("golden digest is hex");
            (name.to_string(), v)
        })
        .collect()
}

/// Compares `computed` with the committed digests `golden`, or rewrites
/// `file` (under `tests/golden/`) when `GNNA_BLESS_GOLDENS=1`. On
/// mismatch the failure lists every diverging cell (not just the first)
/// so an optimisation that perturbs one fault mode or one model is
/// visible at a glance.
/// `header` is the two comment lines saying what the digests hash.
fn check_golden(golden: &str, file: &str, header: [&str; 2], computed: &[(String, u64)]) {
    if std::env::var("GNNA_BLESS_GOLDENS").is_ok_and(|v| v == "1") {
        let mut lines = vec![
            header[0].to_string(),
            header[1].to_string(),
            "# Regenerate with: GNNA_BLESS_GOLDENS=1 cargo test --test goldens".to_string(),
        ];
        lines.extend(computed.iter().map(|(name, d)| format!("{name} {d:016x}")));
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, lines.join("\n") + "\n").unwrap();
        return;
    }
    let golden = parse_golden(golden);
    assert_eq!(
        golden.len(),
        computed.len(),
        "{file} covers {} cells, corpus has {} — re-bless",
        golden.len(),
        computed.len()
    );
    let mismatches: Vec<String> = golden
        .iter()
        .zip(computed)
        .filter(|((gn, gd), (cn, cd))| gn != cn || gd != cd)
        .map(|((gn, gd), (cn, cd))| format!("  {cn}: got {cd:016x}, golden {gn} {gd:016x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "digests diverged from {file} \
         (GNNA_BLESS_GOLDENS=1 re-blesses after an intentional change):\n{}",
        mismatches.join("\n")
    );
}

fn digests(cells: &[Cell]) -> Vec<(String, u64)> {
    cells.iter().map(|c| (c.name.clone(), c.digest)).collect()
}

/// The full 29-cell corpus: every digest must match the committed file.
#[test]
fn sim_metrics_digests_match_golden_corpus() {
    check_golden(
        GOLDEN,
        "sim_metrics.txt",
        [
            "# Simulator bit-identity digests: FNV-1a-64 over the harvested",
            "# metrics CSV + output-matrix bits, one line per corpus cell.",
        ],
        &digests(&corpus()),
    );
}

/// The same matrix plus the rollback runs at event level, where the
/// harvest adds the energy ledger, per-link counters and histograms,
/// and the Chrome trace of each run is pinned byte for byte.
#[test]
fn event_level_digests_match_golden_corpus() {
    let mut cells = corpus_at(TraceLevel::Event);
    cells.push(checkpoint_cell(TraceLevel::Event));
    cells.push(rollback_cell(TraceLevel::Event));
    check_golden(
        GOLDEN_EVENT,
        "sim_metrics_event.txt",
        [
            "# Simulator bit-identity digests: FNV-1a-64 over the harvested",
            "# metrics CSV (event-level trace) + output-matrix bits, one line per corpus cell.",
        ],
        &digests(&cells),
    );
    let traces: Vec<(String, u64)> = cells
        .iter()
        .filter_map(|c| Some((c.name.clone(), c.trace?)))
        .collect();
    check_golden(
        GOLDEN_TRACES,
        "sim_traces.txt",
        [
            "# Simulator trace digests: FNV-1a-64 over the Chrome-trace JSON",
            "# of the event-level runs, one line per corpus cell.",
        ],
        &traces,
    );
}

/// A rollback drops everything the fabric held, including a packet a
/// memory node had half received. The node's reassembler must forget
/// that packet, or the node never counts as drained and the replayed
/// layer never ends. The seed-5 GCN run is the corpus's rollback cell;
/// GAT on GPU iso-BW at seed 2 is the one run of a sweep (the matrix's
/// four models on both configurations, seeds 1 to 30) whose rollback
/// drops such a packet. Both must finish with the fault-free output;
/// the seed-5 GCN run ends two outputs one ulp off it, so the check
/// allows a relative 1e-5.
#[test]
fn rollback_forgets_half_received_memory_packets() {
    let cfg = config_for("gpu-iso");
    for (model, seed) in [("gcn", 5), ("gat", 2)] {
        let mut clean = system_for(model, &cfg, None, TraceLevel::Off);
        clean.run().unwrap();
        let mut sys = system_for(model, &cfg, Some(rollback_plan(seed)), TraceLevel::Off);
        let report = sys
            .run()
            .unwrap_or_else(|e| panic!("{model} at seed {seed}: {e}"));
        let rec = report.recovery;
        assert!(rec.rollbacks > 0, "{model} at seed {seed}: {rec:?}");
        let (got, want) = (sys.full_output().into_vec(), clean.full_output().into_vec());
        assert_eq!(got.len(), want.len());
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                "{model} at seed {seed}: output {k} is {g}, fault-free {w}"
            );
        }
    }
}

/// A counter the registry must hold.
fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.get_counter(name)
        .unwrap_or_else(|| panic!("registry lacks counter {name}"))
}

/// A counter family the harvest emits only when it is active: absent
/// reads as zero, the value of an inactive `SimReport` summary.
fn optional(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.get_counter(name).unwrap_or(0)
}

fn gauge(reg: &MetricsRegistry, name: &str) -> f64 {
    match reg.get(name) {
        Some(Metric::Gauge(v)) => *v,
        other => panic!("registry {name} is {other:?}, not a gauge"),
    }
}

/// Roll-up of every `{site}.fault.*` counter family whose site starts
/// with `prefix` (`mem`, `noc`, `tile`).
fn fault_rollup(reg: &MetricsRegistry, prefix: &str) -> FaultCounters {
    let mut total = FaultCounters::default();
    for (name, metric) in reg.iter() {
        let (Some((site, counter)), Metric::Counter(v)) = (name.split_once(".fault."), metric)
        else {
            continue;
        };
        if !site.starts_with(prefix) {
            continue;
        }
        let mut site = FaultCounters::default();
        let (_, slot) = site
            .fields_mut()
            .into_iter()
            .find(|(n, _)| *n == counter)
            .unwrap_or_else(|| panic!("unknown fault counter {name}"));
        *slot = *v;
        total.merge(&site);
    }
    total
}

/// Asserts every `SimReport` field equals its registry value. Only the
/// fields that are pure functions of the configuration or program are
/// left out: `config_name`, `peak_mem_bandwidth`, `noc_flit_bytes` and
/// the layer names.
fn assert_report_matches_registry(name: &str, r: &SimReport, reg: &MetricsRegistry) {
    let count = |key: &dyn Fn(usize) -> String| {
        (0..)
            .take_while(|&i| reg.get_counter(&key(i)).is_some())
            .count()
    };
    let tiles = count(&|i| format!("tile{i}.gpe.op_cycles"));
    let mems = count(&|i| format!("mem{i}.requests"));
    let layers = count(&|k| format!("system.layer{k}.cycles"));
    let is = |v: u64, key: &str| assert_eq!(v, counter(reg, key), "{name}: {key}");
    let sums = |v: u64, family: &str, n: usize, key: &str| {
        let total: u64 = (0..n)
            .map(|i| counter(reg, &format!("{family}{i}.{key}")))
            .sum();
        assert_eq!(v, total, "{name}: sum of {family}N.{key}");
    };

    assert_eq!(
        r.core_clock_hz,
        gauge(reg, "system.core_clock_hz"),
        "{name}"
    );
    assert_eq!(r.noc_clock_hz, gauge(reg, "system.noc_clock_hz"), "{name}");
    is(r.clock_divider, "system.clock_divider");
    is(r.total_cycles, "system.total_cycles");
    is(r.config_cycles, "system.config_cycles");
    assert_eq!(r.layers.len(), layers, "{name}: layer count");
    for (k, l) in r.layers.iter().enumerate() {
        is(l.cycles, &format!("system.layer{k}.cycles"));
        is(l.config_cycles, &format!("system.layer{k}.config_cycles"));
    }
    sums(r.dram_bytes, "mem", mems, "dram_bytes");
    sums(r.useful_mem_bytes, "mem", mems, "useful_bytes");
    sums(r.dna_busy_cycles, "tile", tiles, "dna.busy_cycles");
    sums(r.dna_entries, "tile", tiles, "dna.entries");
    sums(r.dna_macs, "tile", tiles, "dna.macs");
    sums(r.gpe_op_cycles, "tile", tiles, "gpe.op_cycles");
    sums(r.gpe_idle_cycles, "tile", tiles, "gpe.idle_cycles");
    sums(r.agg_busy_cycles, "tile", tiles, "agg.busy_cycles");
    sums(r.agg_completed, "tile", tiles, "agg.completed");
    sums(r.agg_words_combined, "tile", tiles, "agg.words_combined");
    sums(r.dnq_fill_words, "tile", tiles, "dnq.fill_words");
    is(r.noc_flit_hops, "noc.flit_hops");
    assert_eq!(r.num_tiles, tiles, "{name}: tile count");

    assert_eq!(r.per_tile.len(), tiles, "{name}: per-tile rows");
    for (i, t) in r.per_tile.iter().enumerate() {
        assert_eq!(t.tile, i, "{name}");
        for (key, v) in t.fields() {
            is(v, &format!("tile{i}.{key}"));
        }
    }

    assert_eq!(r.resilience.mem, fault_rollup(reg, "mem"), "{name}: mem");
    assert_eq!(r.resilience.noc, fault_rollup(reg, "noc"), "{name}: noc");
    assert_eq!(r.resilience.dna, fault_rollup(reg, "tile"), "{name}: dna");

    for (key, v) in r.degraded.fields() {
        let key = format!("system.degraded.{key}");
        assert_eq!(v, optional(reg, &key), "{name}: {key}");
    }
    for (key, v) in r.recovery.fields() {
        let key = format!("system.recovery.{key}");
        assert_eq!(v, optional(reg, &key), "{name}: {key}");
    }
}

/// The registry the digests hash carries every `SimReport` counter: on
/// every cell, each report field equals its harvested value (summed over
/// the `tile{i}`/`mem{i}` keys for aggregates, rolled up per site for
/// the `*.fault.*` family).
#[test]
fn report_fields_agree_with_harvested_metrics() {
    for cell in corpus() {
        assert_report_matches_registry(&cell.name, &cell.report, &cell.reg);
    }
}

/// Rollback runs fill the `system.recovery.*` family and the checkpoint
/// energy site, which no corpus cell reaches; the same agreement must
/// hold there. At event level this is also the energy oracle: the
/// per-site `*.energy.*_pj` counters, the per-layer
/// `system.energy.layer{k}_pj` counters and the report's class counts ×
/// rates each come to both the registry total and
/// `EnergyModel::total_pj` of the report. The run that rolls back also
/// charges restore traffic, so both runs are checked.
#[test]
fn rollback_report_agrees_with_harvested_metrics() {
    for cell in [
        checkpoint_cell(TraceLevel::Event),
        rollback_cell(TraceLevel::Event),
    ] {
        energy_oracle(cell);
    }
}

/// Below event level the cycle loop jumps cycles in which every node
/// sleeps and the mesh is empty; at event level it steps them all. The
/// rollback runs are pinned only at event level, so their untraced runs,
/// which jump, must report and output exactly what the traced ones do.
#[test]
fn untraced_rollback_runs_match_the_stepped_ones() {
    let cfg = config_for("gpu-iso");
    for mode in ["rollback", "rollback-replay"] {
        let run = |level| {
            let mut sys = system_for("gcn", &cfg, plan_for(mode, "gpu-iso"), level);
            let report = sys.run().unwrap();
            let bits: Vec<u32> = sys
                .full_output()
                .into_vec()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (report, bits)
        };
        let (jumped, jumped_bits) = run(TraceLevel::Off);
        let (stepped, stepped_bits) = run(TraceLevel::Event);
        assert!(jumped.recovery.any(), "{mode}: nothing recovered");
        assert_eq!(jumped, stepped, "{mode}: reports differ");
        assert_eq!(jumped_bits, stepped_bits, "{mode}: outputs differ");
    }
}

/// The agreement and energy checks of one rollback run.
fn energy_oracle(cell: Cell) {
    let Cell {
        name, report, reg, ..
    } = cell;
    assert_report_matches_registry(&name, &report, &reg);
    let model = EnergyModel::default();
    let total = counter(&reg, "system.energy.total_pj");
    assert_eq!(
        total,
        model.total_pj(&report),
        "{name}: registry vs report total"
    );
    assert!(
        reg.get_counter("system.energy.checkpoint_pj")
            .is_some_and(|pj| pj > 0),
        "{name} charged no checkpoint energy"
    );
    let sum = |keep: &dyn Fn(&str) -> bool| -> u64 {
        reg.iter()
            .filter(|(name, _)| keep(name))
            .map(|(name, m)| match m {
                Metric::Counter(v) => *v,
                other => panic!("{name} is {other:?}, not a counter"),
            })
            .sum()
    };
    let is_layer = |n: &str| n.starts_with("system.energy.layer");
    let sites = sum(&|n| {
        n.contains(".energy.")
            && n.ends_with("_pj")
            && !is_layer(n)
            && n != "system.energy.total_pj"
    });
    assert_eq!(sites, total, "{name}: site counters vs total");
    let layers = sum(&is_layer);
    assert_eq!(layers, total, "{name}: layer counters vs total");
    let rates = model.rates();
    let counts = EnergyModel::class_counts(&report);
    let fj: u64 = CostClass::ALL
        .iter()
        .map(|&c| rates.charge_fj(c, counts[c.index()]))
        .sum();
    assert_eq!(fj / 1000, total, "{name}: class counts x rates vs total");
}

/// Replaying a faulted cell twice in-process produces the same digest:
/// the corpus is deterministic on one host, not just frozen in a file.
#[test]
fn corpus_cells_are_deterministic_in_process() {
    let a = run_cell("gcn", "gpu-iso", "transient").digest;
    let b = run_cell("gcn", "gpu-iso", "transient").digest;
    assert_eq!(a, b, "same seed, same cell, different digest");
}

/// The transient cells must actually inject (a zero-activity "fault"
/// golden would silently pin nothing), and the degraded cells must
/// report their permanent fault in the degraded/resilience summaries.
#[test]
fn fault_modes_exercise_their_subsystems() {
    let r = run_cell("gcn", "gpu-iso", "transient").report;
    assert!(r.resilience.any(), "transient plan injected nothing: {r:?}");

    let r = run_cell("gcn", "gpu-iso", "degraded").report;
    assert_eq!(r.degraded.dead_links, 1);

    let r = run_cell("gcn", "cpu-iso", "degraded").report;
    assert!(
        r.resilience.mem.injected > 0,
        "stuck-line plan touched nothing: {r:?}"
    );
}
