//! Post-hoc bottleneck analysis of `--metrics-out` / `--trace-out` files.
//!
//! The simulator dumps raw counters; this module turns them into the
//! paper-style story: per-module utilisation, a per-tile stall-cause
//! breakdown (Fig. 9/10 style), the hottest mesh links rendered as a
//! heat-map, and packet-latency quantiles. Both the `gnna-report` binary
//! and the report integration tests go through this code, so the renderer
//! is a pure function of the parsed metrics snapshot.

use gnna_core::stats::{TileCounters, CHECKPOINT_SITE};
use gnna_faults::FaultCounters;
use gnna_mem::MemStats;
use gnna_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Flat summary of one histogram metric as serialized by the registry
/// (`count/sum/min/max/mean/p50/p95/p99/p999`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistStats {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest observed sample.
    pub min: f64,
    /// Largest observed sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// 99.9th-percentile estimate.
    pub p999: f64,
}

/// One parsed metric: scalar (counter or gauge — the JSON form does not
/// distinguish them) or histogram summary.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter or gauge value.
    Number(f64),
    /// Histogram summary block.
    Histogram(HistStats),
}

/// A parsed `--metrics-out` file (JSON or CSV), queryable by metric name.
#[derive(Debug, Default)]
pub struct MetricsSnapshot {
    map: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Parse a metrics dump, auto-detecting JSON (`{...}`) vs CSV.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text.trim_start().starts_with('{') {
            Self::parse_json(text)
        } else {
            Self::parse_csv(text)
        }
    }

    /// Parse the JSON form written by `MetricsRegistry::to_json_string`.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("metrics JSON: {e}"))?;
        let obj = doc
            .as_object()
            .ok_or_else(|| "metrics JSON root must be an object".to_string())?;
        let mut map = BTreeMap::new();
        for (name, v) in obj {
            let value = match v {
                JsonValue::Number(n) => MetricValue::Number(*n),
                JsonValue::Object(_) => MetricValue::Histogram(HistStats {
                    count: field(v, "count") as u64,
                    sum: field(v, "sum"),
                    min: field(v, "min"),
                    max: field(v, "max"),
                    mean: field(v, "mean"),
                    p50: field(v, "p50"),
                    p95: field(v, "p95"),
                    p99: field(v, "p99"),
                    p999: field(v, "p999"),
                }),
                other => return Err(format!("metric '{name}' has unexpected value {other:?}")),
            };
            map.insert(name.clone(), value);
        }
        Ok(Self { map })
    }

    /// Parse the CSV form written by `MetricsRegistry::to_csv_string`
    /// (header `metric,kind,value,count,sum,min,max,mean,p50,p95,p99,p999`).
    /// A row with fewer than the twelve columns is an error.
    pub fn parse_csv(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty metrics CSV")?;
        if !header.starts_with("metric,kind,") {
            return Err(format!("unrecognized metrics CSV header: {header}"));
        }
        let mut map = BTreeMap::new();
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() < 12 {
                return Err(format!("metrics CSV row {} is short: {line}", lineno + 2));
            }
            let num = |i: usize| -> f64 { cols[i].parse().unwrap_or(0.0) };
            let value = match cols[1] {
                "counter" | "gauge" => MetricValue::Number(num(2)),
                "histogram" => MetricValue::Histogram(HistStats {
                    count: num(3) as u64,
                    sum: num(4),
                    min: num(5),
                    max: num(6),
                    mean: num(7),
                    p50: num(8),
                    p95: num(9),
                    p99: num(10),
                    p999: num(11),
                }),
                other => return Err(format!("unknown metric kind '{other}' in CSV")),
            };
            map.insert(cols[0].to_string(), value);
        }
        Ok(Self { map })
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Scalar metric (counter or gauge) by name.
    pub fn number(&self, name: &str) -> Option<f64> {
        match self.map.get(name) {
            Some(MetricValue::Number(v)) => Some(*v),
            _ => None,
        }
    }

    /// Scalar metric truncated to `u64` (all counters are integral).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.number(name).map(|v| v as u64)
    }

    /// Histogram metric by name.
    pub fn histogram(&self, name: &str) -> Option<HistStats> {
        match self.map.get(name) {
            Some(MetricValue::Histogram(h)) => Some(*h),
            _ => None,
        }
    }

    /// All metric names in the snapshot, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Raw metric value by exact name.
    pub fn get_value(&self, name: &str) -> Option<&MetricValue> {
        self.map.get(name)
    }

    /// Metrics whose name starts with `prefix`, prefix stripped.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a MetricValue)> + 'a {
        self.map
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(move |(k, v)| (&k[prefix.len()..], v))
    }
}

fn field(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(|f| f.as_f64()).unwrap_or(0.0)
}

/// Largest mesh side the heat-maps draw. Link cells at a coordinate
/// past it come from a damaged or hostile dump and are left out of the
/// grid (the link tables still list them).
const MAX_MESH_DIM: usize = 256;

/// Shared ASCII heat-map renderer: one glyph per router `(x, y)`, darker
/// glyph = larger summed cell value. `unit` names the quantity in the
/// legend line. Empty string when there are no cells.
fn ascii_heatmap(cells: &[(usize, usize, u64)], unit: &str) -> String {
    let cells: Vec<_> = cells
        .iter()
        .filter(|&&(x, y, _)| x < MAX_MESH_DIM && y < MAX_MESH_DIM)
        .collect();
    if cells.is_empty() {
        return String::new();
    }
    let width = cells.iter().map(|&&(x, _, _)| x).max().unwrap_or(0) + 1;
    let height = cells.iter().map(|&&(_, y, _)| y).max().unwrap_or(0) + 1;
    let mut load = vec![0u64; width * height];
    for &&(x, y, v) in &cells {
        let cell = &mut load[y * width + x];
        *cell = cell.saturating_add(v);
    }
    let peak = load.iter().copied().max().unwrap_or(0).max(1);
    const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::new();
    for y in 0..height {
        out.push_str("  ");
        for x in 0..width {
            let frac = load[y * width + x] as f64 / peak as f64;
            let idx = (frac * (RAMP.len() - 1) as f64).round() as usize;
            out.push(RAMP[idx.min(RAMP.len() - 1)]);
            out.push(' ');
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "  (row = mesh y, col = mesh x; ' '..'@' = 0..{peak} {unit})"
    );
    out
}

/// Parse the `*.energy.*_pj` counter family into an [`EnergyBreakdown`].
/// Returns `None` when the dump carries no energy attribution (untraced
/// or counter-level runs).
fn parse_energy(snap: &MetricsSnapshot) -> Option<EnergyBreakdown> {
    let total_pj = snap.counter("system.energy.total_pj")?;
    let mut e = EnergyBreakdown {
        total_pj,
        ..Default::default()
    };
    let mut modules: BTreeMap<&'static str, u64> = BTreeMap::new();
    // On-tile sites: `tile{i}.energy.{site}_pj`.
    for i in 0.. {
        let mut tile_pj = 0u64;
        let mut seen = false;
        for (site, _, _) in TileCounters::default().energy() {
            if let Some(pj) = snap.counter(&format!("tile{i}.energy.{site}_pj")) {
                seen = true;
                tile_pj = tile_pj.saturating_add(pj);
                add(&mut modules, site, pj);
            }
        }
        if !seen {
            break;
        }
        e.tiles.push((i, tile_pj));
    }
    // Memory controllers: `mem.energy.ctrl{i}_pj` → "dram".
    for i in 0.. {
        let Some(pj) = snap.counter(&format!("mem.energy.ctrl{i}_pj")) else {
            break;
        };
        add(&mut modules, "dram", pj);
    }
    // NoC links: `noc.energy.link.{x}_{y}.{D}_pj` → "noc" + per-link rows.
    for (rest, v) in snap.with_prefix("noc.energy.link.") {
        let MetricValue::Number(n) = v else { continue };
        let Some((x, y, dir)) = rest.strip_suffix("_pj").and_then(link_key) else {
            continue;
        };
        let pj = *n as u64;
        add(&mut modules, "noc", pj);
        e.links.push(EnergyLink {
            x,
            y,
            dir: dir.to_string(),
            pj,
        });
    }
    e.links.sort_by(|a, b| {
        b.pj.cmp(&a.pj)
            .then(a.y.cmp(&b.y))
            .then(a.x.cmp(&b.x))
            .then(a.dir.cmp(&b.dir))
    });
    // Checkpoint/rollback traffic: `system.energy.checkpoint_pj`.
    if let Some(pj) = snap.counter(&format!("system.energy.{CHECKPOINT_SITE}_pj")) {
        add(&mut modules, CHECKPOINT_SITE, pj);
    }
    // Per-layer partition: `system.energy.layer{k}_pj`.
    for k in 0.. {
        let Some(pj) = snap.counter(&format!("system.energy.layer{k}_pj")) else {
            break;
        };
        e.layers.push(pj);
    }
    e.modules = modules
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    e.modules.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Some(e)
}

/// Parse every `{site}.fault.{counter}` metric into per-site rows, in
/// site order. Empty when the dump carries no fault counters (the
/// fault-free case: the simulator only emits the family when a fault
/// plan is attached).
fn parse_faults(snap: &MetricsSnapshot) -> Vec<(String, FaultCounters)> {
    const FAMILY: &str = ".fault.";
    let mut map: BTreeMap<String, FaultCounters> = BTreeMap::new();
    for name in snap.names() {
        let Some(pos) = name.find(FAMILY) else {
            continue;
        };
        let Some(v) = snap.counter(name) else {
            continue;
        };
        let counter = &name[pos + FAMILY.len()..];
        let entry = map.entry(name[..pos].to_string()).or_default();
        if let Some((_, slot)) = entry.fields_mut().into_iter().find(|(n, _)| *n == counter) {
            *slot = v;
        }
    }
    map.into_iter().collect()
}

/// Splits a per-link key `{x}_{y}.{D}` into its router coordinates and
/// direction.
fn link_key(key: &str) -> Option<(usize, usize, &str)> {
    let (coords, dir) = key.split_once('.')?;
    let (x, y) = coords.split_once('_')?;
    Some((x.parse().ok()?, y.parse().ok()?, dir))
}

/// Adds `v` to the `key` entry of `map`, saturating: dumps come from
/// outside, and a sum of hostile counters must not overflow.
fn add<K: Ord>(map: &mut BTreeMap<K, u64>, key: K, v: u64) {
    let e = map.entry(key).or_insert(0);
    *e = e.saturating_add(v);
}

/// A `#` bar one glyph per 4% of `share` (a percentage), capped at
/// 100% so a share inflated by an inconsistent dump stays one line.
fn share_bar(share: f64) -> String {
    "#".repeat((share.min(100.0) / 4.0).round() as usize)
}

/// Inventory of a `--trace-out` Chrome-trace file: event/track counts and
/// the busiest span names, for the report's trace section.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Total number of trace events (including metadata).
    pub events: u64,
    /// Number of `process_name` metadata records (one per module process).
    pub processes: u64,
    /// Number of `thread_name` metadata records (one per track).
    pub tracks: u64,
    /// Span-begin counts per event name.
    pub span_begins: BTreeMap<String, u64>,
    /// Instant counts per event name.
    pub instants: BTreeMap<String, u64>,
    /// Largest timestamp seen (µs in the Chrome trace convention).
    pub last_ts: f64,
}

/// Parse a Chrome-trace JSON document into a [`TraceSummary`].
pub fn parse_trace_json(text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(text).map_err(|e| format!("trace JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("trace JSON has no traceEvents array")?;
    let mut s = TraceSummary::default();
    for e in events {
        s.events += 1;
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("");
        match e.get("ph").and_then(|p| p.as_str()) {
            Some("M") if name == "process_name" => s.processes += 1,
            Some("M") if name == "thread_name" => s.tracks += 1,
            Some("B") => *s.span_begins.entry(name.to_string()).or_insert(0) += 1,
            Some("i") => *s.instants.entry(name.to_string()).or_insert(0) += 1,
            _ => {}
        }
        if let Some(ts) = e.get("ts").and_then(|t| t.as_f64()) {
            s.last_ts = s.last_ts.max(ts);
        }
    }
    Ok(s)
}

/// Per-tile utilisation figures derived from the harvested counters. All
/// percentages are relative to the tile's core-clock cycle count.
#[derive(Debug, Clone, Default)]
pub struct TileUtilisation {
    /// Tile index.
    pub tile: usize,
    /// GPE busy (op + thread-switch) cycles.
    pub gpe_busy: u64,
    /// GPE blocked (idle + stall) cycles.
    pub gpe_blocked: u64,
    /// Aggregation-module busy cycles.
    pub agg_busy: u64,
    /// DNA busy cycles.
    pub dna_busy: u64,
    /// Blocked GPE cycles charged to each stall cause (cause, cycles).
    pub stalls: Vec<(String, u64)>,
}

/// One mesh link with its cumulative busy-cycle count.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkLoad {
    /// Router x coordinate.
    pub x: usize,
    /// Router y coordinate.
    pub y: usize,
    /// Outgoing direction (`N`/`E`/`S`/`W`).
    pub dir: String,
    /// Cycles the link spent forwarding flits.
    pub busy: u64,
}

/// One mesh link with its attributed energy in integer picojoules.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyLink {
    /// Router x coordinate.
    pub x: usize,
    /// Router y coordinate.
    pub y: usize,
    /// Outgoing direction (`N`/`E`/`S`/`W`, or `L` for the local ports).
    pub dir: String,
    /// Energy attributed to this link, integer picojoules.
    pub pj: u64,
}

/// Parsed `*.energy.*_pj` counter family: the per-module / per-layer
/// energy attribution exported by event-level traced runs. All values are
/// integer picojoules; the per-module, per-tile, and per-layer families
/// each sum exactly to [`EnergyBreakdown::total_pj`] (the conservation
/// invariant enforced by the simulator's largest-remainder export).
#[derive(Debug, Clone, Default)]
pub struct EnergyBreakdown {
    /// Run total, integer picojoules (`system.energy.total_pj`).
    pub total_pj: u64,
    /// Energy per module class (`dna`/`agg`/`sram`/`gpe`/`dram`/`noc`,
    /// plus `checkpoint` under rollback), aggregated across
    /// tiles/controllers/links, descending.
    pub modules: Vec<(String, u64)>,
    /// Per-tile energy totals `(tile, pJ)` (on-tile sites only).
    pub tiles: Vec<(usize, u64)>,
    /// Per-link NoC energy, sorted descending by pJ.
    pub links: Vec<EnergyLink>,
    /// Per-layer energy (`system.energy.layerK_pj`), in layer order.
    pub layers: Vec<u64>,
}

impl EnergyBreakdown {
    /// ASCII mesh heat-map of per-router NoC energy (sum of outgoing
    /// link energies). Empty string when no link data exists.
    pub fn mesh_heatmap(&self) -> String {
        let cells: Vec<(usize, usize, u64)> = self.links.iter().map(|l| (l.x, l.y, l.pj)).collect();
        ascii_heatmap(&cells, "pJ")
    }
}

/// The assembled bottleneck report, ready to render as markdown or CSV.
#[derive(Debug, Default)]
pub struct BottleneckReport {
    /// Total master-clock (NoC) cycles simulated.
    pub total_cycles: u64,
    /// Cycles spent in weight/config distribution.
    pub config_cycles: u64,
    /// NoC-to-core integer clock divider.
    pub clock_divider: u64,
    /// Core clock in Hz.
    pub core_clock_hz: f64,
    /// NoC clock in Hz.
    pub noc_clock_hz: f64,
    /// Per-tile utilisation rows.
    pub tiles: Vec<TileUtilisation>,
    /// Aggregate stall-cause totals across all tiles, descending.
    pub stall_totals: Vec<(String, u64)>,
    /// All mesh links, sorted by busy cycles descending.
    pub links: Vec<LinkLoad>,
    /// End-to-end packet latency histogram, when traced.
    pub latency: Option<HistStats>,
    /// Packet hop-count histogram, when traced.
    pub hops: Option<HistStats>,
    /// Per-memory-controller `(index, counters, efficiency)`.
    pub mems: Vec<(usize, MemStats, f64)>,
    /// Per-site fault-injection outcomes (`{site}.fault.*`). Empty when
    /// the run had no fault plan attached (the family is only emitted
    /// under injection).
    pub resilience: Vec<(String, FaultCounters)>,
    /// Energy attribution, when the run was traced at event level.
    pub energy: Option<EnergyBreakdown>,
    /// Host-phase wall-clock profile, when the run was profiled
    /// (`gnna-sim --profile-out`/`--profile-json`).
    pub host_profile: Option<HostProfile>,
    /// Optional trace-file inventory.
    pub trace: Option<TraceSummary>,
}

/// One host-profile phase row parsed from `host.profile.*` counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HostPhaseRow {
    /// `;`-joined phase path (e.g. `run;layer:0;cycles;gpe`).
    pub path: String,
    /// Wall-clock nanoseconds spent in this phase excluding children.
    pub self_ns: u64,
    /// Wall-clock nanoseconds including children.
    pub total_ns: u64,
    /// Times the phase was entered (0 for sampled hot phases).
    pub calls: u64,
}

/// Host-phase wall-clock profile (`host.profile.*` metric family).
#[derive(Debug, Default, Clone)]
pub struct HostProfile {
    /// Phase rows sorted by self time descending.
    pub phases: Vec<HostPhaseRow>,
    /// Wall-clock nanoseconds covered by the profiler.
    pub wall_ns: u64,
    /// Simulated compute cycles observed by the hot loop.
    pub cycles_total: u64,
    /// Cycles that paid for hot-loop lap timing.
    pub cycles_sampled: u64,
    /// Hot-loop sampling stride (1 in N cycles timed).
    pub sample_every: u64,
    /// Host throughput: simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
}

fn parse_host_profile(snap: &MetricsSnapshot) -> Option<HostProfile> {
    let mut rows: BTreeMap<String, HostPhaseRow> = BTreeMap::new();
    for (rest, v) in snap.with_prefix("host.profile.") {
        let MetricValue::Number(n) = v else { continue };
        // Phase counters are `host.profile.<field>.<path>`; run-level
        // gauges (`wall_ns`, ...) have no second dot and are skipped here.
        let Some((field, path)) = rest.split_once('.') else {
            continue;
        };
        let row = rows
            .entry(path.to_string())
            .or_insert_with(|| HostPhaseRow {
                path: path.to_string(),
                ..Default::default()
            });
        match field {
            "self_ns" => row.self_ns = *n as u64,
            "total_ns" => row.total_ns = *n as u64,
            "calls" => row.calls = *n as u64,
            _ => {}
        }
    }
    let wall_ns = snap.number("host.profile.wall_ns");
    if rows.is_empty() && wall_ns.is_none() {
        return None;
    }
    let mut phases: Vec<_> = rows.into_values().collect();
    phases.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    Some(HostProfile {
        phases,
        wall_ns: wall_ns.unwrap_or(0.0) as u64,
        cycles_total: snap.number("host.profile.cycles_total").unwrap_or(0.0) as u64,
        cycles_sampled: snap.number("host.profile.cycles_sampled").unwrap_or(0.0) as u64,
        sample_every: snap.number("host.profile.sample_every").unwrap_or(0.0) as u64,
        cycles_per_sec: snap.number("host.profile.cycles_per_sec").unwrap_or(0.0),
    })
}

impl BottleneckReport {
    /// Build the report from a parsed metrics snapshot and an optional
    /// trace summary.
    pub fn build(snap: &MetricsSnapshot, trace: Option<TraceSummary>) -> Self {
        let mut r = BottleneckReport {
            total_cycles: snap.counter("system.total_cycles").unwrap_or(0),
            config_cycles: snap.counter("system.config_cycles").unwrap_or(0),
            clock_divider: snap.counter("system.clock_divider").unwrap_or(1).max(1),
            core_clock_hz: snap.number("system.core_clock_hz").unwrap_or(0.0),
            noc_clock_hz: snap.number("system.noc_clock_hz").unwrap_or(0.0),
            latency: snap.histogram("noc.packet_latency"),
            hops: snap.histogram("noc.packet_hops"),
            trace,
            ..Default::default()
        };
        // Per-tile rows: walk tile indices until one has no GPE counters.
        for i in 0.. {
            let p = format!("tile{i}.");
            if snap.counter(&format!("{p}gpe.op_cycles")).is_none() {
                break;
            }
            let mut c = TileCounters::default();
            let mut stalls = Vec::new();
            for (name, slot) in c.fields_mut() {
                let Some(v) = snap.counter(&format!("{p}{name}")) else {
                    continue;
                };
                *slot = v;
                if let Some(cause) = name.strip_prefix("stall.") {
                    stalls.push((cause.to_string(), v));
                }
            }
            stalls.sort();
            r.tiles.push(TileUtilisation {
                tile: i,
                gpe_busy: c.gpe_op_cycles.saturating_add(c.gpe_switch_cycles),
                gpe_blocked: c.gpe_idle_cycles.saturating_add(c.gpe_stall_cycles),
                agg_busy: c.agg_busy_cycles,
                dna_busy: c.dna_busy_cycles,
                stalls,
            });
        }
        // Aggregate stall causes across tiles, descending by cycles.
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for t in &r.tiles {
            for (cause, v) in &t.stalls {
                add(&mut totals, cause.clone(), *v);
            }
        }
        r.stall_totals = totals.into_iter().collect();
        r.stall_totals
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        // Mesh links: `noc.link.{x}_{y}.{D}.busy_cycles`.
        for (rest, v) in snap.with_prefix("noc.link.") {
            let MetricValue::Number(n) = v else { continue };
            let Some((x, y, dir)) = rest.strip_suffix(".busy_cycles").and_then(link_key) else {
                continue;
            };
            r.links.push(LinkLoad {
                x,
                y,
                dir: dir.to_string(),
                busy: *n as u64,
            });
        }
        r.links.sort_by(|a, b| {
            b.busy
                .cmp(&a.busy)
                .then(a.y.cmp(&b.y))
                .then(a.x.cmp(&b.x))
                .then(a.dir.cmp(&b.dir))
        });
        // Memory controllers: walk indices until one has no counters.
        for i in 0.. {
            let mut s = MemStats::default();
            let mut seen = false;
            for (name, slot) in s.fields_mut() {
                if let Some(v) = snap.counter(&format!("mem{i}.{name}")) {
                    *slot = v;
                    seen = true;
                }
            }
            if !seen {
                break;
            }
            let eff = snap.number(&format!("mem{i}.efficiency")).unwrap_or(0.0);
            r.mems.push((i, s, eff));
        }
        r.resilience = parse_faults(snap);
        r.energy = parse_energy(snap);
        r.host_profile = parse_host_profile(snap);
        r
    }

    /// Core-clock cycles (exact integer division by the divider).
    pub fn core_cycles(&self) -> u64 {
        self.total_cycles / self.clock_divider
    }

    /// ASCII mesh heat-map: one glyph per router, darker = more link
    /// traffic out of that router. Empty string when no link data exists.
    pub fn mesh_heatmap(&self) -> String {
        let cells: Vec<(usize, usize, u64)> =
            self.links.iter().map(|l| (l.x, l.y, l.busy)).collect();
        ascii_heatmap(&cells, "busy cycles")
    }

    /// Render the report as markdown.
    pub fn to_markdown(&self, top_k: usize) -> String {
        let mut o = String::new();
        let pct = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                100.0 * num as f64 / den as f64
            }
        };
        let _ = writeln!(o, "# gnna bottleneck report\n");

        let _ = writeln!(o, "## System\n");
        let _ = writeln!(o, "| metric | value |");
        let _ = writeln!(o, "|---|---|");
        let _ = writeln!(o, "| total cycles (NoC clock) | {} |", self.total_cycles);
        let _ = writeln!(o, "| config cycles | {} |", self.config_cycles);
        let _ = writeln!(
            o,
            "| core cycles (divider {}) | {} |",
            self.clock_divider,
            self.core_cycles()
        );
        let _ = writeln!(
            o,
            "| clocks | core {:.2} GHz / NoC {:.2} GHz |",
            self.core_clock_hz / 1e9,
            self.noc_clock_hz / 1e9
        );
        if self.noc_clock_hz > 0.0 {
            let _ = writeln!(
                o,
                "| latency | {:.3} ms |",
                self.total_cycles as f64 / self.noc_clock_hz * 1e3
            );
        }

        let _ = writeln!(o, "\n## Module utilisation (of core cycles)\n");
        let _ = writeln!(o, "| tile | GPE busy | GPE blocked | AGG busy | DNA busy |");
        let _ = writeln!(o, "|---|---|---|---|---|");
        let cc = self.core_cycles();
        for t in &self.tiles {
            let _ = writeln!(
                o,
                "| {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
                t.tile,
                pct(t.gpe_busy, cc),
                pct(t.gpe_blocked, cc),
                pct(t.agg_busy, cc),
                pct(t.dna_busy, cc)
            );
        }
        if !self.tiles.is_empty() {
            let n = self.tiles.len() as u64;
            let sum = |f: fn(&TileUtilisation) -> u64| {
                self.tiles.iter().map(f).fold(0, u64::saturating_add) / n
            };
            let _ = writeln!(
                o,
                "| **mean** | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
                pct(sum(|t| t.gpe_busy), cc),
                pct(sum(|t| t.gpe_blocked), cc),
                pct(sum(|t| t.agg_busy), cc),
                pct(sum(|t| t.dna_busy), cc)
            );
        }

        let _ = writeln!(o, "\n## Stall breakdown (blocked GPE cycles by cause)\n");
        let blocked = self
            .stall_totals
            .iter()
            .fold(0, |acc: u64, (_, v)| acc.saturating_add(*v));
        let _ = writeln!(o, "| cause | cycles | share | |");
        let _ = writeln!(o, "|---|---|---|---|");
        for (cause, v) in &self.stall_totals {
            let share = pct(*v, blocked);
            let bar = share_bar(share);
            let _ = writeln!(o, "| {cause} | {v} | {share:.1}% | `{bar}` |");
        }
        let _ = writeln!(o, "| **total** | {blocked} | 100.0% | |");

        let _ = writeln!(o, "\n## NoC\n");
        if self.links.is_empty() {
            let _ = writeln!(
                o,
                "_No per-link counters in this metrics file (run with an \
                 event-level trace to collect them)._"
            );
        } else {
            let _ = writeln!(o, "Top {top_k} hottest links:\n");
            let _ = writeln!(o, "| router | dir | busy cycles | link util |");
            let _ = writeln!(o, "|---|---|---|---|");
            for l in self.links.iter().take(top_k) {
                let _ = writeln!(
                    o,
                    "| ({},{}) | {} | {} | {:.1}% |",
                    l.x,
                    l.y,
                    l.dir,
                    l.busy,
                    pct(l.busy, self.total_cycles)
                );
            }
            let _ = writeln!(o, "\nRouter heat-map (total outgoing link traffic):\n");
            let _ = writeln!(o, "```\n{}```", self.mesh_heatmap());
        }
        for (name, h) in [("packet latency", self.latency), ("packet hops", self.hops)] {
            if let Some(h) = h {
                let _ = writeln!(
                    o,
                    "\n{name} ({} packets): p50 {:.0}, p95 {:.0}, p99 {:.0}, \
                     p99.9 {:.0}, mean {:.1}, max {:.0} cycles",
                    h.count, h.p50, h.p95, h.p99, h.p999, h.mean, h.max
                );
            }
        }
        if self.latency.is_none() && self.hops.is_none() {
            let _ = writeln!(
                o,
                "\n_Packet latency/hop histograms not recorded in this \
                 metrics file._"
            );
        }

        let _ = writeln!(o, "\n## Memory controllers\n");
        if self.mems.is_empty() {
            let _ = writeln!(
                o,
                "_Memory-controller counters not recorded in this metrics \
                 file._"
            );
        } else {
            let _ = writeln!(o, "| ctrl | requests | DRAM bytes | efficiency |");
            let _ = writeln!(o, "|---|---|---|---|");
            for (i, s, eff) in &self.mems {
                let (req, bytes) = (s.requests, s.dram_bytes);
                let _ = writeln!(o, "| mem{i} | {req} | {bytes} | {:.1}% |", eff * 100.0);
            }
        }

        let _ = writeln!(o, "\n## Resilience\n");
        if self.resilience.is_empty() {
            let _ = writeln!(
                o,
                "_Fault counters not recorded in this metrics file \
                 (fault-free run; use `gnna-sim --fault-rate` to inject \
                 faults)._"
            );
        } else {
            let _ = writeln!(
                o,
                "| site | injected | corrected | retried | unrecoverable \
                 | corrupted | dropped | retry cycles |"
            );
            let _ = writeln!(o, "|---|---|---|---|---|---|---|---|");
            let mut total = FaultCounters::default();
            for (site, f) in &self.resilience {
                total.merge(f);
                let _ = writeln!(
                    o,
                    "| {site} | {} | {} | {} | {} | {} | {} | {} |",
                    f.injected,
                    f.corrected,
                    f.retried,
                    f.unrecoverable,
                    f.corrupted,
                    f.dropped,
                    f.retry_cycles
                );
            }
            let _ = writeln!(
                o,
                "| **total** | {} | {} | {} | {} | {} | {} | {} |",
                total.injected,
                total.corrected,
                total.retried,
                total.unrecoverable,
                total.corrupted,
                total.dropped,
                total.retry_cycles
            );
            // Silent corruptions and rollbacks close the partition too;
            // they are named only when present.
            let mut terms = format!(
                "corrected ({}) + retried ({}) + unrecoverable ({})",
                total.corrected, total.retried, total.unrecoverable
            );
            for (name, v) in [("sdc", total.sdc), ("rolled back", total.rolled_back)] {
                if v > 0 {
                    let _ = write!(terms, " + {name} ({v})");
                }
            }
            let _ = writeln!(
                o,
                "\nPartition check: injected ({}) == {terms} — {}.",
                total.injected,
                if total.partition_holds() {
                    "holds"
                } else {
                    "**VIOLATED**"
                }
            );
            if total.unrecoverable > 0 {
                let _ = writeln!(
                    o,
                    "\n**{} unrecoverable fault(s)** — the run ended with a \
                     structured fault error; cycle counts cover the partial \
                     run only.",
                    total.unrecoverable
                );
            }
        }

        if let Some(e) = &self.energy {
            let _ = writeln!(o, "\n## Energy\n");
            let _ = writeln!(
                o,
                "Total attributed energy: **{} pJ** ({:.3} µJ).\n",
                e.total_pj,
                e.total_pj as f64 / 1e6
            );
            let _ = writeln!(o, "| module | energy (pJ) | share | |");
            let _ = writeln!(o, "|---|---|---|---|");
            for (module, pj) in &e.modules {
                let share = pct(*pj, e.total_pj);
                let bar = share_bar(share);
                let _ = writeln!(o, "| {module} | {pj} | {share:.1}% | `{bar}` |");
            }
            let _ = writeln!(o, "| **total** | {} | 100.0% | |", e.total_pj);
            if e.tiles.len() > 1 {
                let _ = writeln!(o, "\nPer-tile energy (on-tile sites only):\n");
                let _ = writeln!(o, "| tile | energy (pJ) | share of total |");
                let _ = writeln!(o, "|---|---|---|");
                for (tile, pj) in &e.tiles {
                    let _ = writeln!(o, "| {tile} | {pj} | {:.1}% |", pct(*pj, e.total_pj));
                }
            }
            if !e.links.is_empty() {
                let _ = writeln!(o, "\nTop {top_k} NoC energy hot spots:\n");
                let _ = writeln!(o, "| router | dir | energy (pJ) |");
                let _ = writeln!(o, "|---|---|---|");
                for l in e.links.iter().take(top_k) {
                    let _ = writeln!(o, "| ({},{}) | {} | {} |", l.x, l.y, l.dir, l.pj);
                }
                let _ = writeln!(o, "\nEnergy heat-map (outgoing link energy per router):\n");
                let _ = writeln!(o, "```\n{}```", e.mesh_heatmap());
            }
            if !e.layers.is_empty() {
                let _ = writeln!(o, "\nPer-layer energy:\n");
                let _ = writeln!(o, "| layer | energy (pJ) | share |");
                let _ = writeln!(o, "|---|---|---|");
                for (k, pj) in e.layers.iter().enumerate() {
                    let _ = writeln!(o, "| {k} | {pj} | {:.1}% |", pct(*pj, e.total_pj));
                }
            }
        } else {
            let _ = writeln!(
                o,
                "\n_Energy attribution not recorded in this metrics file \
                 (run with an event-level trace to collect it)._"
            );
        }

        if let Some(hp) = &self.host_profile {
            let _ = writeln!(o, "\n## Host profile\n");
            let _ = writeln!(
                o,
                "Wall clock {:.3} s for {} compute cycles — **{:.0} cycles/sec** \
                 (hot loop sampled 1 in {}, {} cycles timed).\n",
                hp.wall_ns as f64 / 1e9,
                hp.cycles_total,
                hp.cycles_per_sec,
                hp.sample_every.max(1),
                hp.cycles_sampled
            );
            let shown = top_k.max(16);
            let _ = writeln!(o, "| phase | self (ms) | self % | total (ms) | calls |");
            let _ = writeln!(o, "|---|---|---|---|---|");
            let wall = hp.wall_ns.max(1);
            for p in hp.phases.iter().take(shown) {
                let _ = writeln!(
                    o,
                    "| {} | {:.3} | {:.1}% | {:.3} | {} |",
                    p.path,
                    p.self_ns as f64 / 1e6,
                    pct(p.self_ns, wall),
                    p.total_ns as f64 / 1e6,
                    p.calls
                );
            }
            if hp.phases.len() > shown {
                let _ = writeln!(
                    o,
                    "\n_{} more phase(s) below the top {shown} by self time._",
                    hp.phases.len() - shown
                );
            }
        }

        if let Some(t) = &self.trace {
            let _ = writeln!(o, "\n## Trace inventory\n");
            let _ = writeln!(
                o,
                "{} events across {} tracks in {} processes; last timestamp {:.0} µs.",
                t.events, t.tracks, t.processes, t.last_ts
            );
            let mut spans: Vec<_> = t.span_begins.iter().collect();
            spans.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            if !spans.is_empty() {
                let _ = writeln!(o, "\n| span | count |");
                let _ = writeln!(o, "|---|---|");
                for (name, count) in spans.into_iter().take(top_k) {
                    let _ = writeln!(o, "| {name} | {count} |");
                }
            }
        }
        o
    }

    /// Render the report as flat CSV (`section,metric,value` rows).
    pub fn to_csv(&self) -> String {
        let mut o = String::from("section,metric,value\n");
        let mut row = |section: &str, metric: &str, value: String| {
            let _ = writeln!(o, "{section},{metric},{value}");
        };
        row("system", "total_cycles", self.total_cycles.to_string());
        row("system", "config_cycles", self.config_cycles.to_string());
        row("system", "clock_divider", self.clock_divider.to_string());
        row("system", "core_cycles", self.core_cycles().to_string());
        let cc = self.core_cycles().max(1) as f64;
        for t in &self.tiles {
            let tile = format!("tile{}", t.tile);
            row(
                &tile,
                "gpe_busy_pct",
                format!("{:.3}", 100.0 * t.gpe_busy as f64 / cc),
            );
            row(
                &tile,
                "gpe_blocked_pct",
                format!("{:.3}", 100.0 * t.gpe_blocked as f64 / cc),
            );
            row(
                &tile,
                "agg_busy_pct",
                format!("{:.3}", 100.0 * t.agg_busy as f64 / cc),
            );
            row(
                &tile,
                "dna_busy_pct",
                format!("{:.3}", 100.0 * t.dna_busy as f64 / cc),
            );
            for (cause, v) in &t.stalls {
                row(&tile, &format!("stall.{cause}"), v.to_string());
            }
        }
        for (cause, v) in &self.stall_totals {
            row("stalls", cause, v.to_string());
        }
        for l in &self.links {
            row(
                "noc.link",
                &format!("{}_{}.{}", l.x, l.y, l.dir),
                l.busy.to_string(),
            );
        }
        for (name, h) in [("latency", self.latency), ("hops", self.hops)] {
            if let Some(h) = h {
                row("noc", &format!("{name}.count"), h.count.to_string());
                row("noc", &format!("{name}.p50"), format!("{:.3}", h.p50));
                row("noc", &format!("{name}.p95"), format!("{:.3}", h.p95));
                row("noc", &format!("{name}.p99"), format!("{:.3}", h.p99));
                row("noc", &format!("{name}.p999"), format!("{:.3}", h.p999));
            }
        }
        for (i, s, eff) in &self.mems {
            let m = format!("mem{i}");
            row(&m, "requests", s.requests.to_string());
            row(&m, "dram_bytes", s.dram_bytes.to_string());
            row(&m, "efficiency", format!("{eff:.4}"));
        }
        for (name, v) in fault_rows(&self.resilience) {
            row("resilience", &name, v.to_string());
        }
        if let Some(e) = &self.energy {
            row("energy", "total_pj", e.total_pj.to_string());
            for (module, pj) in &e.modules {
                row("energy", &format!("module.{module}_pj"), pj.to_string());
            }
            for (tile, pj) in &e.tiles {
                row("energy", &format!("tile{tile}_pj"), pj.to_string());
            }
            for l in &e.links {
                row(
                    "energy.link",
                    &format!("{}_{}.{}", l.x, l.y, l.dir),
                    l.pj.to_string(),
                );
            }
            for (k, pj) in e.layers.iter().enumerate() {
                row("energy", &format!("layer{k}_pj"), pj.to_string());
            }
        }
        if let Some(hp) = &self.host_profile {
            row("host", "wall_ns", hp.wall_ns.to_string());
            row("host", "cycles_total", hp.cycles_total.to_string());
            row(
                "host",
                "cycles_per_sec",
                format!("{:.1}", hp.cycles_per_sec),
            );
            // Emit phase rows in path order, not self-time order: wall
            // timings differ every run, and goldens diffing this CSV
            // must not flap on row order when near-equal phases swap.
            let mut by_path: Vec<&HostPhaseRow> = hp.phases.iter().collect();
            by_path.sort_by(|a, b| a.path.cmp(&b.path));
            for p in by_path {
                row(
                    "host.profile",
                    &format!("{}.self_ns", p.path),
                    p.self_ns.to_string(),
                );
            }
        }
        if let Some(t) = &self.trace {
            row("trace", "events", t.events.to_string());
            row("trace", "tracks", t.tracks.to_string());
            row("trace", "processes", t.processes.to_string());
        }
        o
    }
}

/// One metric compared across two runs. `None` means the metric was
/// absent from that run's dump (mismatched-key case).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name (section-local, e.g. `total_cycles` or `(1,0) E`).
    pub name: String,
    /// Value in run A, when present.
    pub a: Option<f64>,
    /// Value in run B, when present.
    pub b: Option<f64>,
}

impl MetricDelta {
    fn new(name: impl Into<String>, a: Option<f64>, b: Option<f64>) -> Self {
        Self {
            name: name.into(),
            a,
            b,
        }
    }

    /// Absolute delta `B - A`, when both sides are present.
    pub fn delta(&self) -> Option<f64> {
        Some(self.b? - self.a?)
    }

    /// Percent delta `(B - A) / A * 100`, when both sides are present and
    /// A is non-zero.
    pub fn pct(&self) -> Option<f64> {
        let (a, b) = (self.a?, self.b?);
        if a == 0.0 {
            None
        } else {
            Some((b - a) / a * 100.0)
        }
    }

    /// True when A and B agree exactly (including both-absent).
    pub fn is_zero(&self) -> bool {
        self.a == self.b
    }
}

/// A differential report comparing two metrics dumps (`gnna-report
/// --diff A B`): per-section deltas for cycles, stalls, link traffic, and
/// energy, plus the metric names present in only one of the two dumps.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Display label for run A (usually the file name).
    pub label_a: String,
    /// Display label for run B.
    pub label_b: String,
    /// System-level rows (cycles, clocks, energy total).
    pub system: Vec<MetricDelta>,
    /// Aggregate stall cycles by cause (union of both runs' causes).
    pub stalls: Vec<MetricDelta>,
    /// Per-link busy cycles, sorted by |Δ| descending.
    pub links: Vec<MetricDelta>,
    /// Energy rows: module aggregates and per-layer totals.
    pub energy: Vec<MetricDelta>,
    /// Fault-counter rows (`{site}.{counter}`), union of both runs.
    pub resilience: Vec<MetricDelta>,
    /// Metric names present in A's dump only.
    pub only_a: Vec<String>,
    /// Metric names present in B's dump only.
    pub only_b: Vec<String>,
}

/// Delta rows over the union of two runs' keyed values, in
/// [`delta_order`].
fn union_deltas(a: BTreeMap<String, u64>, b: BTreeMap<String, u64>) -> Vec<MetricDelta> {
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let mut rows: Vec<MetricDelta> = keys
        .into_iter()
        .map(|k| {
            let value = |m: &BTreeMap<String, u64>| m.get(k).map(|v| *v as f64);
            MetricDelta::new(k.clone(), value(&a), value(&b))
        })
        .collect();
    rows.sort_by(delta_order);
    rows
}

impl DiffReport {
    /// Build the differential report from two parsed metrics snapshots.
    pub fn build(a: &MetricsSnapshot, b: &MetricsSnapshot, label_a: &str, label_b: &str) -> Self {
        let ra = BottleneckReport::build(a, None);
        let rb = BottleneckReport::build(b, None);
        let mut d = DiffReport {
            label_a: label_a.to_string(),
            label_b: label_b.to_string(),
            ..Default::default()
        };

        // System rows.
        let num = |v: u64| Some(v as f64);
        let energy = |r: &BottleneckReport| r.energy.as_ref().map(|e| e.total_pj as f64);
        for (name, va, vb) in [
            ("total_cycles", num(ra.total_cycles), num(rb.total_cycles)),
            (
                "config_cycles",
                num(ra.config_cycles),
                num(rb.config_cycles),
            ),
            ("core_cycles", num(ra.core_cycles()), num(rb.core_cycles())),
            (
                "tiles",
                num(ra.tiles.len() as u64),
                num(rb.tiles.len() as u64),
            ),
            ("energy_total_pj", energy(&ra), energy(&rb)),
        ] {
            d.system.push(MetricDelta::new(name, va, vb));
        }

        // Keyed sections: the union of both runs' rows.
        let stalls = |r: &BottleneckReport| r.stall_totals.iter().cloned().collect();
        d.stalls = union_deltas(stalls(&ra), stalls(&rb));
        // Links are keyed by "(x,y) D".
        let links = |r: &BottleneckReport| {
            r.links
                .iter()
                .map(|l| (format!("({},{}) {}", l.x, l.y, l.dir), l.busy))
                .collect()
        };
        d.links = union_deltas(links(&ra), links(&rb));
        // Energy: module aggregates, then per-layer rows.
        d.energy = union_deltas(energy_rows(&ra.energy), energy_rows(&rb.energy));
        let faults = |r: &BottleneckReport| fault_rows(&r.resilience).into_iter().collect();
        d.resilience = union_deltas(faults(&ra), faults(&rb));

        // Coverage: raw metric names present in exactly one dump.
        d.only_a = a
            .names()
            .filter(|n| b.get_value(n).is_none())
            .map(str::to_string)
            .collect();
        d.only_b = b
            .names()
            .filter(|n| a.get_value(n).is_none())
            .map(str::to_string)
            .collect();
        d
    }

    /// True when every compared row is identical and both dumps carry
    /// exactly the same metric names (the self-diff case).
    pub fn is_zero(&self) -> bool {
        self.only_a.is_empty()
            && self.only_b.is_empty()
            && [
                &self.system,
                &self.stalls,
                &self.links,
                &self.energy,
                &self.resilience,
            ]
            .iter()
            .all(|rows| rows.iter().all(MetricDelta::is_zero))
    }

    /// Render the differential report as markdown.
    pub fn to_markdown(&self, top_k: usize) -> String {
        let mut o = String::new();
        let _ = writeln!(o, "# gnna differential report\n");
        let _ = writeln!(
            o,
            "Comparing **A** = `{}` → **B** = `{}`. Δ = B − A.\n",
            self.label_a, self.label_b
        );
        if self.is_zero() {
            let _ = writeln!(o, "_The two runs are identical (all deltas zero)._\n");
        }
        let section = |o: &mut String, title: &str, rows: &[MetricDelta], limit: usize| {
            if rows.is_empty() {
                return;
            }
            let _ = writeln!(o, "## {title}\n");
            let _ = writeln!(o, "| metric | A | B | Δ | Δ% |");
            let _ = writeln!(o, "|---|---|---|---|---|");
            for r in rows.iter().take(limit) {
                let _ = writeln!(
                    o,
                    "| {} | {} | {} | {} | {} |",
                    r.name,
                    fmt_opt(r.a),
                    fmt_opt(r.b),
                    fmt_signed(r.delta()),
                    fmt_pct(r.pct())
                );
            }
            if rows.len() > limit {
                let _ = writeln!(o, "| … {} more | | | | |", rows.len() - limit);
            }
            o.push('\n');
        };
        section(&mut o, "System", &self.system, usize::MAX);
        section(&mut o, "Stall cycles by cause", &self.stalls, usize::MAX);
        section(&mut o, "NoC link busy cycles", &self.links, top_k);
        section(&mut o, "Energy (pJ)", &self.energy, usize::MAX);
        section(
            &mut o,
            "Resilience fault counters",
            &self.resilience,
            usize::MAX,
        );
        if !self.only_a.is_empty() || !self.only_b.is_empty() {
            let _ = writeln!(o, "## Coverage\n");
            for (label, names) in [("A", &self.only_a), ("B", &self.only_b)] {
                if names.is_empty() {
                    continue;
                }
                let shown: Vec<&str> = names.iter().map(String::as_str).take(top_k).collect();
                let more = if names.len() > shown.len() {
                    format!(" … and {} more", names.len() - shown.len())
                } else {
                    String::new()
                };
                let _ = writeln!(
                    o,
                    "- only in {label} ({} metrics): `{}`{more}",
                    names.len(),
                    shown.join("`, `")
                );
            }
        }
        o
    }

    /// Render the differential report as flat CSV
    /// (`section,metric,a,b,delta` rows).
    pub fn to_csv(&self) -> String {
        let mut o = String::from("section,metric,a,b,delta\n");
        let mut rows = |section: &str, rows: &[MetricDelta]| {
            for r in rows {
                let _ = writeln!(
                    o,
                    "{section},{},{},{},{}",
                    r.name.replace(',', ";"),
                    fmt_opt(r.a),
                    fmt_opt(r.b),
                    fmt_opt(r.delta())
                );
            }
        };
        rows("system", &self.system);
        rows("stalls", &self.stalls);
        rows("noc.link", &self.links);
        rows("energy", &self.energy);
        rows("resilience", &self.resilience);
        for n in &self.only_a {
            let _ = writeln!(o, "coverage,only_a.{},,,", n.replace(',', ";"));
        }
        for n in &self.only_b {
            let _ = writeln!(o, "coverage,only_b.{},,,", n.replace(',', ";"));
        }
        o
    }
}

/// Sort rows by |Δ| descending, missing-side rows last, then by name.
fn delta_order(x: &MetricDelta, y: &MetricDelta) -> std::cmp::Ordering {
    let mag = |r: &MetricDelta| r.delta().map(f64::abs);
    match (mag(x), mag(y)) {
        (Some(a), Some(b)) => b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    }
    .then_with(|| x.name.cmp(&y.name))
}

/// Flatten per-site fault counters into `site.counter` rows, in site
/// then counter order.
fn fault_rows(resilience: &[(String, FaultCounters)]) -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for (site, f) in resilience {
        for (counter, v) in f.fields() {
            rows.push((format!("{site}.{counter}"), v));
        }
    }
    rows
}

/// Flatten an optional energy breakdown into named integer-pJ rows.
fn energy_rows(e: &Option<EnergyBreakdown>) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    if let Some(e) = e {
        m.insert("total".to_string(), e.total_pj);
        for (module, pj) in &e.modules {
            m.insert(format!("module.{module}"), *pj);
        }
        for (k, pj) in e.layers.iter().enumerate() {
            m.insert(format!("layer{k}"), *pj);
        }
    }
    m
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        None => "—".to_string(),
        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{}", v as i64),
        Some(v) => format!("{v:.3}"),
    }
}

fn fmt_signed(v: Option<f64>) -> String {
    match v {
        None => "—".to_string(),
        Some(v) if v > 0.0 => format!("+{}", fmt_opt(Some(v))),
        Some(v) => fmt_opt(Some(v)),
    }
}

fn fmt_pct(v: Option<f64>) -> String {
    match v {
        None => "—".to_string(),
        Some(v) if v > 0.0 => format!("+{v:.1}%"),
        Some(v) => format!("{v:.1}%"),
    }
}

// ---------------------------------------------------------------------------
// Fault campaigns (`gnna-campaign` JSONL → `## Fault campaigns` section)
// ---------------------------------------------------------------------------

/// One parsed `gnna-campaign` JSONL record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignRecord {
    /// Cell index in the canonical grid order.
    pub cell: u64,
    /// Model family name (`GCN`, `GAT`, `MPNN`, `PGNN`).
    pub model: String,
    /// Input dataset name.
    pub input: String,
    /// Protection mode (`protected`, `passthrough`, `degraded`).
    pub mode: String,
    /// Per-event fault rate swept by the campaign.
    pub rate: f64,
    /// Fault-plan seed.
    pub seed: u64,
    /// `"ok"` or `"unrecoverable"`.
    pub status: String,
    /// Faulting site for unrecoverable cells (empty otherwise).
    pub site: String,
    /// End-to-end NoC-clock cycles of the run (0 if unrecoverable).
    pub total_cycles: u64,
    /// Total injected faults across all sites.
    pub injected: u64,
    /// Silent data corruptions (pass-through deliveries).
    pub sdc: u64,
    /// Memory-site injections / SDCs.
    pub mem_injected: u64,
    /// Memory-site SDCs.
    pub mem_sdc: u64,
    /// NoC-site injections.
    pub noc_injected: u64,
    /// NoC-site SDCs.
    pub noc_sdc: u64,
    /// Dead tiles configured for the cell.
    pub dead_tiles: u64,
    /// Dead mesh links configured for the cell.
    pub dead_links: u64,
    /// Vertices remapped off dead tiles.
    pub remapped_vertices: u64,
    /// Output rows graded by the accuracy harness.
    pub rows: u64,
    /// Rows whose top-1 label flipped vs the functional reference.
    pub label_flips: u64,
    /// Non-finite output elements.
    pub nonfinite: u64,
    /// Maximum per-element relative error.
    pub max_rel_err: f64,
    /// Mean per-element relative error.
    pub mean_rel_err: f64,
    /// Selective protection domain (`ecc/crc` label; empty for the
    /// fully protected default, which the runner omits from the JSONL).
    pub domain: String,
    /// Unit of the `rate` field (empty for per-event probabilities;
    /// `"fit"` for physically calibrated sweeps).
    pub rate_unit: String,
    /// Checkpoints taken under rollback recovery.
    pub checkpoints: u64,
    /// Rollbacks performed under rollback recovery.
    pub rollbacks: u64,
    /// Cycles discarded and re-executed by rollbacks.
    pub replayed_cycles: u64,
    /// Checkpoint/rollback traffic energy in integer picojoules.
    pub checkpoint_pj: u64,
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
}

/// Parse a `gnna-campaign` JSONL file into records (one per line).
///
/// # Errors
///
/// Returns a `"line N: …"` message for unparsable lines or lines missing
/// the mandatory identification fields.
pub fn parse_campaign_jsonl(text: &str) -> Result<Vec<CampaignRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing string field {k}", i + 1))
        };
        let u64_field = |k: &str| doc.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
        let f64_field = |k: &str| doc.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let rate = doc
            .get("rate")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("line {}: missing number field rate", i + 1))?;
        out.push(CampaignRecord {
            cell: u64_field("cell"),
            model: str_field("model")?,
            input: str_field("input")?,
            mode: str_field("mode")?,
            rate,
            seed: u64_field("seed"),
            status: str_field("status")?,
            site: str_field("site").unwrap_or_default(),
            total_cycles: u64_field("total_cycles"),
            injected: u64_field("injected"),
            sdc: u64_field("sdc"),
            mem_injected: u64_field("mem_injected"),
            mem_sdc: u64_field("mem_sdc"),
            noc_injected: u64_field("noc_injected"),
            noc_sdc: u64_field("noc_sdc"),
            dead_tiles: u64_field("dead_tiles"),
            dead_links: u64_field("dead_links"),
            remapped_vertices: u64_field("remapped_vertices"),
            rows: u64_field("rows"),
            label_flips: u64_field("label_flips"),
            nonfinite: u64_field("nonfinite"),
            max_rel_err: f64_field("max_rel_err"),
            mean_rel_err: f64_field("mean_rel_err"),
            domain: str_field("domain").unwrap_or_default(),
            rate_unit: str_field("rate_unit").unwrap_or_default(),
            checkpoints: u64_field("checkpoints"),
            rollbacks: u64_field("rollbacks"),
            replayed_cycles: u64_field("replayed_cycles"),
            checkpoint_pj: u64_field("checkpoint_pj"),
        });
    }
    Ok(out)
}

/// One row of the accuracy-vs-rate table: a `(benchmark, mode, rate)`
/// group averaged over seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyRow {
    /// `model:input` label.
    pub benchmark: String,
    /// Protection mode.
    pub mode: String,
    /// Fault rate.
    pub rate: f64,
    /// Seeds aggregated into this row.
    pub cells: u64,
    /// Cells that died on an unrecoverable fault.
    pub unrecoverable: u64,
    /// Mean label-flip rate over completed cells.
    pub flip_rate: f64,
    /// Mean of the cells' mean relative errors.
    pub mean_rel_err: f64,
    /// Worst max relative error over completed cells.
    pub max_rel_err: f64,
    /// Mean non-finite output elements per completed cell.
    pub nonfinite: f64,
}

/// One row of the degraded-mode slowdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownRow {
    /// `model:input` label.
    pub benchmark: String,
    /// Fault rate.
    pub rate: f64,
    /// Mean degraded-over-protected cycle ratio across matched seeds.
    pub slowdown: f64,
    /// Seed pairs matched.
    pub pairs: u64,
    /// Remapped vertices (identical across seeds by construction).
    pub remapped_vertices: u64,
    /// Dead tiles in the degraded cells.
    pub dead_tiles: u64,
    /// Dead links in the degraded cells.
    pub dead_links: u64,
}

/// One row of the recovery-cost table: rollback-mode cells of a
/// `(benchmark, rate)` group summed over seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// `model:input` label.
    pub benchmark: String,
    /// Fault rate.
    pub rate: f64,
    /// Rollback-mode cells in the group.
    pub cells: u64,
    /// Cells that exhausted the rollback budget and died anyway.
    pub unrecoverable: u64,
    /// Checkpoints taken across the group.
    pub checkpoints: u64,
    /// Rollbacks performed across the group.
    pub rollbacks: u64,
    /// Cycles discarded and re-executed across the group.
    pub replayed_cycles: u64,
    /// Checkpoint/rollback traffic energy across the group, pJ.
    pub checkpoint_pj: u64,
}

/// Aggregated view of a campaign JSONL file, ready to render as the
/// `## Fault campaigns` report section.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Every parsed record, in file order.
    pub records: Vec<CampaignRecord>,
    /// Accuracy-vs-rate rows in `(benchmark, mode, rate)` order.
    pub accuracy: Vec<AccuracyRow>,
    /// Degraded-vs-protected slowdown rows in `(benchmark, rate)` order.
    pub slowdowns: Vec<SlowdownRow>,
    /// Per-site `(injected, sdc)` totals over pass-through cells, in
    /// site order (`mem`, `noc`).
    pub site_sdc: Vec<(String, u64, u64)>,
    /// Recovery-cost rows over rollback-mode cells, in
    /// `(benchmark, rate)` order (empty when the campaign swept no
    /// rollback cells).
    pub recovery: Vec<RecoveryRow>,
}

/// Sort key for a non-negative f64 (rates are validated into [0, 1]).
fn rate_key(rate: f64) -> u64 {
    rate.to_bits()
}

impl CampaignReport {
    /// Aggregates parsed records into the report tables.
    pub fn build(records: Vec<CampaignRecord>) -> Self {
        // (benchmark, mode, rate) → member records.
        let mut groups: BTreeMap<(String, String, u64), Vec<&CampaignRecord>> = BTreeMap::new();
        for r in &records {
            groups
                .entry((r.benchmark(), r.mode_label(), rate_key(r.rate)))
                .or_default()
                .push(r);
        }
        let mut accuracy = Vec::new();
        for ((benchmark, mode, rate_bits), members) in &groups {
            let completed: Vec<_> = members.iter().filter(|r| r.status == "ok").collect();
            let n = completed.len().max(1) as f64;
            accuracy.push(AccuracyRow {
                benchmark: benchmark.clone(),
                mode: mode.clone(),
                rate: f64::from_bits(*rate_bits),
                cells: members.len() as u64,
                unrecoverable: (members.len() - completed.len()) as u64,
                flip_rate: completed.iter().map(|r| r.flip_rate()).sum::<f64>() / n,
                mean_rel_err: completed.iter().map(|r| r.mean_rel_err).sum::<f64>() / n,
                max_rel_err: completed.iter().map(|r| r.max_rel_err).fold(0.0, f64::max),
                nonfinite: completed.iter().map(|r| r.nonfinite as f64).sum::<f64>() / n,
            });
        }

        // Degraded cells matched against the protected cell of the same
        // (benchmark, rate, seed).
        let mut protected: BTreeMap<(String, u64, u64), u64> = BTreeMap::new();
        for r in &records {
            if r.mode == "protected" && r.status == "ok" && r.total_cycles > 0 {
                protected.insert((r.benchmark(), rate_key(r.rate), r.seed), r.total_cycles);
            }
        }
        #[derive(Default)]
        struct PairAcc {
            ratio_sum: f64,
            pairs: u64,
            remapped: u64,
            tiles: u64,
            links: u64,
        }
        let mut pairs: BTreeMap<(String, u64), PairAcc> = BTreeMap::new();
        for r in &records {
            if r.mode != "degraded" || r.status != "ok" {
                continue;
            }
            let Some(&base) = protected.get(&(r.benchmark(), rate_key(r.rate), r.seed)) else {
                continue;
            };
            let e = pairs.entry((r.benchmark(), rate_key(r.rate))).or_default();
            e.ratio_sum += r.total_cycles as f64 / base as f64;
            e.pairs += 1;
            e.remapped = r.remapped_vertices;
            e.tiles = r.dead_tiles;
            e.links = r.dead_links;
        }
        let slowdowns = pairs
            .into_iter()
            .map(|((benchmark, rate_bits), acc)| SlowdownRow {
                benchmark,
                rate: f64::from_bits(rate_bits),
                slowdown: acc.ratio_sum / acc.pairs as f64,
                pairs: acc.pairs,
                remapped_vertices: acc.remapped,
                dead_tiles: acc.tiles,
                dead_links: acc.links,
            })
            .collect();

        // SDC rate per site over pass-through cells (protection disabled;
        // the other modes catch these by construction).
        let mut mem = (0u64, 0u64);
        let mut noc = (0u64, 0u64);
        for r in &records {
            if r.mode != "passthrough" {
                continue;
            }
            mem.0 = mem.0.saturating_add(r.mem_injected);
            mem.1 = mem.1.saturating_add(r.mem_sdc);
            noc.0 = noc.0.saturating_add(r.noc_injected);
            noc.1 = noc.1.saturating_add(r.noc_sdc);
        }
        let site_sdc = vec![
            ("mem".to_string(), mem.0, mem.1),
            ("noc".to_string(), noc.0, noc.1),
        ];

        // Recovery cost over rollback cells, summed per (benchmark,
        // rate): how many rollbacks the group paid, how many cycles it
        // replayed, and what the checkpoint traffic cost in energy.
        #[derive(Default)]
        struct RecAcc {
            cells: u64,
            unrecoverable: u64,
            checkpoints: u64,
            rollbacks: u64,
            replayed_cycles: u64,
            checkpoint_pj: u64,
        }
        let mut rec_groups: BTreeMap<(String, u64), RecAcc> = BTreeMap::new();
        for r in &records {
            if r.mode != "rollback" {
                continue;
            }
            let e = rec_groups
                .entry((r.benchmark(), rate_key(r.rate)))
                .or_default();
            e.cells += 1;
            e.unrecoverable += u64::from(r.status != "ok");
            e.checkpoints = e.checkpoints.saturating_add(r.checkpoints);
            e.rollbacks = e.rollbacks.saturating_add(r.rollbacks);
            e.replayed_cycles = e.replayed_cycles.saturating_add(r.replayed_cycles);
            e.checkpoint_pj = e.checkpoint_pj.saturating_add(r.checkpoint_pj);
        }
        let recovery = rec_groups
            .into_iter()
            .map(|((benchmark, rate_bits), acc)| RecoveryRow {
                benchmark,
                rate: f64::from_bits(rate_bits),
                cells: acc.cells,
                unrecoverable: acc.unrecoverable,
                checkpoints: acc.checkpoints,
                rollbacks: acc.rollbacks,
                replayed_cycles: acc.replayed_cycles,
                checkpoint_pj: acc.checkpoint_pj,
            })
            .collect();

        Self {
            records,
            accuracy,
            slowdowns,
            site_sdc,
            recovery,
        }
    }

    /// Label for the swept-rate axis: physically calibrated campaigns
    /// sweep FIT (failures per 10⁹ device-hours), legacy ones sweep raw
    /// per-event probabilities.
    pub fn rate_label(&self) -> &'static str {
        if self.records.iter().any(|r| r.rate_unit == "fit") {
            "rate (FIT)"
        } else {
            "rate"
        }
    }

    /// ASCII flip-rate-vs-rate curve for one mode, one line per swept
    /// rate, averaged over benchmarks and seeds. Empty when the mode has
    /// no completed cells.
    pub fn ascii_curve(&self, mode: &str) -> String {
        const WIDTH: usize = 40;
        let mut by_rate: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
        for row in self.accuracy.iter().filter(|r| r.mode == mode) {
            let e = by_rate.entry(rate_key(row.rate)).or_insert((0.0, 0));
            e.0 += row.flip_rate;
            e.1 += 1;
        }
        if by_rate.is_empty() {
            return String::new();
        }
        let points: Vec<(f64, f64)> = by_rate
            .into_iter()
            .map(|(bits, (sum, n))| (f64::from_bits(bits), sum / n as f64))
            .collect();
        let peak = points.iter().map(|&(_, f)| f).fold(0.0, f64::max);
        let axis = if self.rate_label() == "rate (FIT)" {
            "fault rate (FIT)"
        } else {
            "fault rate"
        };
        let mut o = String::new();
        let _ = writeln!(o, "label-flip rate vs {axis} ({mode})");
        for (rate, flip) in points {
            let w = if peak > 0.0 {
                ((flip / peak) * WIDTH as f64).round() as usize
            } else {
                0
            };
            let _ = writeln!(
                o,
                "  {:<9} |{:<width$}| {:.1}%",
                json::number(rate),
                "#".repeat(w),
                flip * 100.0,
                width = WIDTH
            );
        }
        o
    }

    /// Render the `## Fault campaigns` markdown section.
    pub fn to_markdown(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(o, "## Fault campaigns\n");
        let _ = writeln!(
            o,
            "{} cells ({} unrecoverable).\n",
            self.records.len(),
            self.records.iter().filter(|r| r.status != "ok").count()
        );

        let _ = writeln!(o, "### Accuracy vs fault rate\n");
        let _ = writeln!(
            o,
            "| benchmark | mode | {} | cells | unrec | flip rate | mean rel err | max rel err | non-finite |",
            self.rate_label()
        );
        let _ = writeln!(o, "|---|---|---|---|---|---|---|---|---|");
        for r in &self.accuracy {
            let _ = writeln!(
                o,
                "| {} | {} | {} | {} | {} | {:.2}% | {:.3e} | {:.3e} | {:.1} |",
                r.benchmark,
                r.mode,
                json::number(r.rate),
                r.cells,
                r.unrecoverable,
                r.flip_rate * 100.0,
                r.mean_rel_err,
                r.max_rel_err,
                r.nonfinite
            );
        }

        for mode in ["passthrough", "protected"] {
            let curve = self.ascii_curve(mode);
            if !curve.is_empty() {
                let _ = writeln!(o, "\n```\n{curve}```");
            }
        }

        let _ = writeln!(o, "\n### Degraded-mode slowdown\n");
        if self.slowdowns.is_empty() {
            let _ = writeln!(
                o,
                "_No degraded/protected cell pairs in this campaign (sweep \
                 both modes at the same rates and seeds to populate this \
                 table)._"
            );
        } else {
            let _ = writeln!(
                o,
                "| benchmark | rate | slowdown | pairs | dead tiles | dead links | remapped vertices |"
            );
            let _ = writeln!(o, "|---|---|---|---|---|---|---|");
            for s in &self.slowdowns {
                let _ = writeln!(
                    o,
                    "| {} | {} | {:.3}× | {} | {} | {} | {} |",
                    s.benchmark,
                    json::number(s.rate),
                    s.slowdown,
                    s.pairs,
                    s.dead_tiles,
                    s.dead_links,
                    s.remapped_vertices
                );
            }
        }

        let _ = writeln!(o, "\n### SDC rate per site (pass-through cells)\n");
        let _ = writeln!(o, "| site | injected | sdc | sdc rate |");
        let _ = writeln!(o, "|---|---|---|---|");
        for (site, injected, sdc) in &self.site_sdc {
            let rate = if *injected == 0 {
                0.0
            } else {
                100.0 * *sdc as f64 / *injected as f64
            };
            let _ = writeln!(o, "| {site} | {injected} | {sdc} | {rate:.1}% |");
        }

        if !self.recovery.is_empty() {
            let _ = writeln!(o, "\n### Recovery cost (rollback cells)\n");
            let _ = writeln!(
                o,
                "| benchmark | {} | cells | unrec | checkpoints | rollbacks | replayed cycles | checkpoint pJ |",
                self.rate_label()
            );
            let _ = writeln!(o, "|---|---|---|---|---|---|---|---|");
            for r in &self.recovery {
                let _ = writeln!(
                    o,
                    "| {} | {} | {} | {} | {} | {} | {} | {} |",
                    r.benchmark,
                    json::number(r.rate),
                    r.cells,
                    r.unrecoverable,
                    r.checkpoints,
                    r.rollbacks,
                    r.replayed_cycles,
                    r.checkpoint_pj
                );
            }
        }
        o
    }

    /// Render the campaign tables as CSV (accuracy rows only; the
    /// slowdown and SDC tables are derivable from the raw JSONL).
    pub fn to_csv(&self) -> String {
        let mut o = String::from(
            "section,benchmark,mode,rate,cells,unrecoverable,flip_rate,mean_rel_err,max_rel_err,nonfinite\n",
        );
        for r in &self.accuracy {
            let _ = writeln!(
                o,
                "accuracy,{},{},{},{},{},{},{},{},{}",
                r.benchmark,
                r.mode,
                json::number(r.rate),
                r.cells,
                r.unrecoverable,
                json::number(r.flip_rate),
                json::number(r.mean_rel_err),
                json::number(r.max_rel_err),
                json::number(r.nonfinite)
            );
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics_json() -> String {
        concat!(
            "{",
            "\"system.total_cycles\":1000,",
            "\"system.config_cycles\":100,",
            "\"system.clock_divider\":2,",
            "\"system.core_clock_hz\":1200000000,",
            "\"system.noc_clock_hz\":2400000000,",
            "\"tile0.gpe.op_cycles\":200,",
            "\"tile0.gpe.switch_cycles\":50,",
            "\"tile0.gpe.idle_cycles\":150,",
            "\"tile0.gpe.stall_cycles\":100,",
            "\"tile0.agg.busy_cycles\":300,",
            "\"tile0.dna.busy_cycles\":120,",
            "\"tile0.stall.waiting_mem\":180,",
            "\"tile0.stall.dnq_full\":70,",
            "\"mem0.requests\":40,",
            "\"mem0.dram_bytes\":4096,",
            "\"mem0.efficiency\":0.8,",
            "\"noc.link.0_0.E.busy_cycles\":90,",
            "\"noc.link.1_0.W.busy_cycles\":30,",
            "\"noc.packet_latency\":{\"count\":10,\"sum\":100,\"min\":4,",
            "\"max\":30,\"mean\":10,\"p50\":8,\"p95\":25,\"p99\":29,\"p999\":30}",
            "}"
        )
        .to_string()
    }

    fn sample_metrics_with_energy() -> String {
        let base = sample_metrics_json();
        let energy = concat!(
            "\"system.energy.total_pj\":1000,",
            "\"system.energy.layer0_pj\":600,",
            "\"system.energy.layer1_pj\":400,",
            "\"tile0.energy.dna_pj\":400,",
            "\"tile0.energy.agg_pj\":150,",
            "\"tile0.energy.sram_pj\":200,",
            "\"tile0.energy.gpe_pj\":100,",
            "\"mem.energy.ctrl0_pj\":100,",
            "\"noc.energy.link.0_0.E_pj\":30,",
            "\"noc.energy.link.1_0.L_pj\":20,"
        );
        base.replacen('{', &format!("{{{energy}"), 1)
    }

    fn sample_metrics_with_faults() -> String {
        let base = sample_metrics_json();
        let faults = concat!(
            "\"tile0.fault.injected\":5,",
            "\"tile0.fault.corrected\":5,",
            "\"tile0.fault.retried\":0,",
            "\"tile0.fault.unrecoverable\":0,",
            "\"tile0.fault.corrupted\":0,",
            "\"tile0.fault.dropped\":0,",
            "\"tile0.fault.retry_cycles\":160,",
            "\"mem0.fault.injected\":8,",
            "\"mem0.fault.corrected\":6,",
            "\"mem0.fault.retried\":2,",
            "\"mem0.fault.unrecoverable\":0,",
            "\"mem0.fault.corrupted\":0,",
            "\"mem0.fault.dropped\":0,",
            "\"mem0.fault.retry_cycles\":400,",
            "\"noc.fault.injected\":4,",
            "\"noc.fault.corrected\":3,",
            "\"noc.fault.retried\":0,",
            "\"noc.fault.unrecoverable\":1,",
            "\"noc.fault.corrupted\":2,",
            "\"noc.fault.dropped\":2,",
            "\"noc.fault.retry_cycles\":28,"
        );
        base.replacen('{', &format!("{{{faults}"), 1)
    }

    #[test]
    fn resilience_section_parses_and_partitions() {
        let snap = MetricsSnapshot::parse(&sample_metrics_with_faults()).unwrap();
        let r = BottleneckReport::build(&snap, None);
        assert_eq!(r.resilience.len(), 3, "{:?}", r.resilience);
        // Sites in sorted order: mem0, noc, tile0.
        assert_eq!(r.resilience[0].0, "mem0");
        assert_eq!(r.resilience[1].0, "noc");
        assert_eq!(r.resilience[2].0, "tile0");
        let mem = r.resilience[0].1;
        assert_eq!(mem.injected, 8);
        assert_eq!(mem.retried, 2);
        assert!(mem.partition_holds());
        let noc = r.resilience[1].1;
        assert_eq!(noc.unrecoverable, 1);
        assert_eq!(noc.dropped, 2);
        assert!(noc.partition_holds());
        let md = r.to_markdown(4);
        for needle in [
            "## Resilience",
            "| mem0 | 8 | 6 | 2 | 0 | 0 | 0 | 400 |",
            "| **total** | 17 | 14 | 2 | 1 | 2 | 2 | 588 |",
            "Partition check: injected (17) == corrected (14) + retried (2) \
             + unrecoverable (1) — holds.",
            "**1 unrecoverable fault(s)**",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
        assert!(!md.contains(
            "not recorded in this metrics file \
             (fault-free"
        ));
        let csv = r.to_csv();
        assert!(csv.contains("resilience,mem0.injected,8"));
        assert!(csv.contains("resilience,noc.unrecoverable,1"));
        assert!(csv.contains("resilience,tile0.retry_cycles,160"));
    }

    #[test]
    fn resilience_partition_violation_is_flagged() {
        let text = sample_metrics_with_faults()
            .replace("\"noc.fault.corrected\":3", "\"noc.fault.corrected\":2");
        let snap = MetricsSnapshot::parse(&text).unwrap();
        let md = BottleneckReport::build(&snap, None).to_markdown(4);
        assert!(md.contains("**VIOLATED**"), "{md}");
    }

    #[test]
    fn fault_free_dump_renders_not_recorded_lines() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None);
        assert!(r.resilience.is_empty());
        let md = r.to_markdown(4);
        // The Resilience section is always present, with an explicit
        // "not recorded" line when the family is absent.
        assert!(md.contains("## Resilience"), "{md}");
        assert!(
            md.contains("_Fault counters not recorded in this metrics file"),
            "{md}"
        );
        // Same for energy (without an `## Energy` heading, see
        // `untraced_dump_has_no_energy_section`).
        assert!(
            md.contains("_Energy attribution not recorded in this metrics file"),
            "{md}"
        );
        // No resilience rows leak into the CSV.
        assert!(!r.to_csv().contains("resilience,"));
    }

    #[test]
    fn sparse_dump_notes_missing_histograms_and_mems() {
        let snap = MetricsSnapshot::parse("{\"system.total_cycles\":10}").unwrap();
        let md = BottleneckReport::build(&snap, None).to_markdown(4);
        for needle in [
            "_Packet latency/hop histograms not recorded",
            "## Memory controllers",
            "_Memory-controller counters not recorded",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
    }

    #[test]
    fn diff_covers_resilience_rows() {
        let a = MetricsSnapshot::parse(&sample_metrics_with_faults()).unwrap();
        let text = sample_metrics_with_faults()
            .replace("\"mem0.fault.injected\":8", "\"mem0.fault.injected\":11")
            .replace("\"mem0.fault.corrected\":6", "\"mem0.fault.corrected\":9");
        let b = MetricsSnapshot::parse(&text).unwrap();
        let d = DiffReport::build(&a, &b, "A", "B");
        assert!(!d.is_zero());
        let inj = d
            .resilience
            .iter()
            .find(|r| r.name == "mem0.injected")
            .unwrap();
        assert_eq!(inj.delta(), Some(3.0));
        let md = d.to_markdown(8);
        assert!(md.contains("## Resilience fault counters"), "{md}");
        assert!(d.to_csv().contains("resilience,mem0.injected,8,11,3"));
        // Self-diff including faults stays zero.
        let d2 = DiffReport::build(&a, &a, "A", "A");
        assert!(d2.is_zero());
    }

    #[test]
    fn energy_breakdown_parses_and_conserves() {
        let snap = MetricsSnapshot::parse(&sample_metrics_with_energy()).unwrap();
        let r = BottleneckReport::build(&snap, None);
        let e = r.energy.as_ref().expect("energy section present");
        assert_eq!(e.total_pj, 1000);
        // Module family partitions the total exactly.
        let module_sum: u64 = e.modules.iter().map(|(_, pj)| pj).sum();
        assert_eq!(module_sum, e.total_pj);
        // Layer family partitions the total exactly.
        assert_eq!(e.layers, vec![600, 400]);
        assert_eq!(e.layers.iter().sum::<u64>(), e.total_pj);
        // Modules are sorted descending; dna is the hottest site.
        assert_eq!(e.modules[0], ("dna".to_string(), 400));
        assert_eq!(e.tiles, vec![(0, 850)]);
        // Links sorted by pJ descending.
        assert_eq!(e.links[0].pj, 30);
        assert_eq!(e.links[0].dir, "E");
        let md = r.to_markdown(4);
        for needle in [
            "## Energy",
            "Total attributed energy: **1000 pJ**",
            "NoC energy hot spots",
            "Per-layer energy",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
        let csv = r.to_csv();
        assert!(csv.contains("energy,total_pj,1000"));
        assert!(csv.contains("energy,module.dna_pj,400"));
        assert!(csv.contains("energy.link,0_0.E,30"));
        assert!(csv.contains("energy,layer1_pj,400"));
    }

    #[test]
    fn untraced_dump_has_no_energy_section() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None);
        assert!(r.energy.is_none());
        assert!(!r.to_markdown(4).contains("## Energy"));
    }

    #[test]
    fn self_diff_is_all_zero() {
        let text = sample_metrics_with_energy();
        let a = MetricsSnapshot::parse(&text).unwrap();
        let b = MetricsSnapshot::parse(&text).unwrap();
        let d = DiffReport::build(&a, &b, "a.json", "b.json");
        assert!(d.is_zero(), "self-diff must be zero: {d:?}");
        let md = d.to_markdown(8);
        assert!(md.contains("identical (all deltas zero)"), "{md}");
        // Every rendered delta column is 0 or absent.
        for row in d
            .system
            .iter()
            .chain(&d.stalls)
            .chain(&d.links)
            .chain(&d.energy)
        {
            assert_eq!(row.delta().unwrap_or(0.0), 0.0, "{row:?}");
        }
    }

    #[test]
    fn diff_reports_signs_and_mismatched_keys() {
        let a = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let b = MetricsSnapshot::parse(&sample_metrics_with_energy()).unwrap();
        // Give B a different cycle count via a mutated copy.
        let text = sample_metrics_with_energy().replace(
            "\"system.total_cycles\":1000",
            "\"system.total_cycles\":900",
        );
        let b2 = MetricsSnapshot::parse(&text).unwrap();
        let d = DiffReport::build(&a, &b2, "A", "B");
        assert!(!d.is_zero());
        let total = d.system.iter().find(|r| r.name == "total_cycles").unwrap();
        assert_eq!(total.delta(), Some(-100.0));
        assert_eq!(fmt_signed(total.delta()), "-100");
        assert_eq!(fmt_pct(total.pct()), "-10.0%");
        // Energy exists only in B: the energy row has no A side, and the
        // raw counters land in only_b.
        let etotal = d.energy.iter().find(|r| r.name == "total").unwrap();
        assert_eq!(etotal.a, None);
        assert_eq!(etotal.b, Some(1000.0));
        assert!(d.only_a.is_empty());
        assert!(
            d.only_b.iter().any(|n| n == "system.energy.total_pj"),
            "{:?}",
            d.only_b
        );
        let md = d.to_markdown(8);
        for needle in ["# gnna differential report", "Δ%", "only in B", "—"] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
        // Plain A vs B (cycles equal) still flags the key mismatch.
        let d2 = DiffReport::build(&a, &b, "A", "B");
        assert!(!d2.is_zero());
        assert_eq!(
            d2.system
                .iter()
                .find(|r| r.name == "total_cycles")
                .unwrap()
                .delta(),
            Some(0.0)
        );
    }

    #[test]
    fn diff_csv_is_rectangular() {
        let a = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let b = MetricsSnapshot::parse(&sample_metrics_with_energy()).unwrap();
        let d = DiffReport::build(&a, &b, "A", "B");
        let csv = d.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("section,metric,a,b,delta"));
        for l in lines {
            assert_eq!(l.split(',').count(), 5, "row {l:?}");
        }
        assert!(csv.contains("system,total_cycles,1000,1000,0"));
        assert!(csv.contains("coverage,only_b.system.energy.total_pj,,,"));
    }

    #[test]
    fn json_snapshot_builds_full_report() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None);
        assert_eq!(r.total_cycles, 1000);
        assert_eq!(r.core_cycles(), 500);
        assert_eq!(r.tiles.len(), 1);
        assert_eq!(r.tiles[0].gpe_busy, 250);
        assert_eq!(r.tiles[0].gpe_blocked, 250);
        // Stall totals descending.
        assert_eq!(
            r.stall_totals,
            vec![
                ("waiting_mem".to_string(), 180),
                ("dnq_full".to_string(), 70)
            ]
        );
        // Hottest link first.
        assert_eq!(
            r.links[0],
            LinkLoad {
                x: 0,
                y: 0,
                dir: "E".into(),
                busy: 90
            }
        );
        assert_eq!(r.latency.unwrap().count, 10);
        let mem = MemStats {
            requests: 40,
            dram_bytes: 4096,
            ..MemStats::default()
        };
        assert_eq!(r.mems, vec![(0, mem, 0.8)]);
    }

    #[test]
    fn markdown_has_all_sections_and_shares_sum() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None);
        let md = r.to_markdown(4);
        for section in [
            "## System",
            "## Module utilisation",
            "## Stall breakdown",
            "## NoC",
            "## Memory controllers",
            "waiting_mem",
            "p50 8, p95 25, p99 29, p99.9 30",
        ] {
            assert!(md.contains(section), "missing {section:?} in:\n{md}");
        }
        // waiting_mem is 180/250 = 72% of blocked cycles.
        assert!(md.contains("72.0%"), "stall share missing:\n{md}");
    }

    #[test]
    fn csv_roundtrip_matches_json_parse() {
        // Parse JSON, re-render nothing: instead check CSV ingestion on a
        // registry-shaped document.
        let csv = "\
metric,kind,value,count,sum,min,max,mean,p50,p95,p99,p999
system.total_cycles,counter,1000,,,,,,,,,
system.clock_divider,counter,2,,,,,,,,,
tile0.gpe.op_cycles,counter,200,,,,,,,,,
noc.packet_latency,histogram,,10,100,4,30,10,8,25,29,30
";
        let snap = MetricsSnapshot::parse(csv).unwrap();
        assert_eq!(snap.counter("system.total_cycles"), Some(1000));
        let h = snap.histogram("noc.packet_latency").unwrap();
        assert_eq!(h.count, 10);
        assert_eq!(h.p99, 29.0);
        assert_eq!(h.p999, 30.0);
        // A row missing the p999 column is a structured error.
        let short = "metric,kind,value,count,sum,min,max,mean,p50,p95,p99,p999\n\
                     noc.packet_latency,histogram,,10,100,4,30,10,8,25,29\n";
        let err = MetricsSnapshot::parse(short).unwrap_err();
        assert!(err.contains("row 2 is short"), "{err}");
    }

    #[test]
    fn host_profile_parses_and_renders() {
        let base = sample_metrics_json();
        let profile = concat!(
            "\"host.profile.wall_ns\":2000000000,",
            "\"host.profile.cycles_total\":1000,",
            "\"host.profile.cycles_sampled\":16,",
            "\"host.profile.sample_every\":64,",
            "\"host.profile.cycles_per_sec\":500,",
            "\"host.profile.self_ns.run\":100000000,",
            "\"host.profile.total_ns.run\":2000000000,",
            "\"host.profile.calls.run\":1,",
            "\"host.profile.self_ns.run;layer:0;cycles;gpe\":900000000,",
            "\"host.profile.total_ns.run;layer:0;cycles;gpe\":900000000,",
            "\"host.profile.calls.run;layer:0;cycles;gpe\":0,"
        );
        let text = base.replacen('{', &format!("{{{profile}"), 1);
        let snap = MetricsSnapshot::parse(&text).unwrap();
        let r = BottleneckReport::build(&snap, None);
        let hp = r.host_profile.as_ref().expect("host profile parsed");
        assert_eq!(hp.wall_ns, 2_000_000_000);
        assert_eq!(hp.cycles_total, 1000);
        assert_eq!(hp.sample_every, 64);
        assert_eq!(hp.cycles_per_sec, 500.0);
        // Sorted by self time descending: the hot gpe phase leads.
        assert_eq!(hp.phases[0].path, "run;layer:0;cycles;gpe");
        assert_eq!(hp.phases[0].self_ns, 900_000_000);
        assert_eq!(hp.phases[1].calls, 1);

        let md = r.to_markdown(4);
        assert!(md.contains("## Host profile"), "{md}");
        assert!(md.contains("**500 cycles/sec**"), "{md}");
        assert!(
            md.contains("| run;layer:0;cycles;gpe | 900.000 | 45.0% |"),
            "{md}"
        );

        let csv = r.to_csv();
        assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 3));
        assert!(csv.contains("host,cycles_per_sec,500.0"));
        assert!(csv.contains("host.profile,run;layer:0;cycles;gpe.self_ns,900000000"));
    }

    #[test]
    fn host_profile_table_order_is_deterministic() {
        // Three phases, two tied on self time: the table must order the
        // tie alphabetically, and CSV rows must come out path-sorted
        // regardless of self time so cross-run golden diffs don't flap.
        let base = sample_metrics_json();
        let profile = concat!(
            "\"host.profile.wall_ns\":2000000000,",
            "\"host.profile.self_ns.run;cycles;noc\":500000000,",
            "\"host.profile.self_ns.run;cycles;gpe\":500000000,",
            "\"host.profile.self_ns.run;cycles;agg\":700000000,"
        );
        let text = base.replacen('{', &format!("{{{profile}"), 1);
        let snap = MetricsSnapshot::parse(&text).unwrap();
        let r = BottleneckReport::build(&snap, None);
        let hp = r.host_profile.as_ref().unwrap();
        let order: Vec<&str> = hp.phases.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(
            order,
            [
                "run;cycles;agg", // hottest first
                "run;cycles;gpe", // 500 ms tie: alphabetical
                "run;cycles;noc",
            ]
        );

        let csv = r.to_csv();
        let rows: Vec<&str> = csv
            .lines()
            .filter(|l| l.starts_with("host.profile,"))
            .collect();
        assert_eq!(
            rows,
            [
                "host.profile,run;cycles;agg.self_ns,700000000",
                "host.profile,run;cycles;gpe.self_ns,500000000",
                "host.profile,run;cycles;noc.self_ns,500000000",
            ],
            "CSV phase rows must be path-sorted"
        );
    }

    #[test]
    fn report_without_profile_omits_the_section() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None);
        assert!(r.host_profile.is_none());
        assert!(!r.to_markdown(4).contains("## Host profile"));
    }

    #[test]
    fn report_csv_is_rectangular() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None);
        let csv = r.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("section,metric,value"));
        for l in lines {
            assert_eq!(l.split(',').count(), 3, "row {l:?}");
        }
        assert!(csv.contains("stalls,waiting_mem,180"));
        assert!(csv.contains("noc.link,0_0.E,90"));
    }

    #[test]
    fn heatmap_is_grid_shaped() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None);
        let map = r.mesh_heatmap();
        // 2 routers wide, 1 tall, plus the legend line.
        let lines: Vec<_> = map.lines().collect();
        assert_eq!(lines.len(), 2, "{map}");
        assert!(
            lines[0].contains('@'),
            "hottest router must be darkest: {map}"
        );
    }

    #[test]
    fn trace_summary_counts_phases() {
        let trace = r#"{"displayTimeUnit":"ns","traceEvents":[
            {"ph":"M","name":"process_name","pid":1,"args":{"name":"tile0 gpe"}},
            {"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"gpe"}},
            {"ph":"B","name":"dna_job","pid":1,"tid":1,"ts":10},
            {"ph":"E","name":"dna_job","pid":1,"tid":1,"ts":20},
            {"ph":"i","name":"agg_done","pid":1,"tid":1,"ts":15,"s":"t"}
        ]}"#;
        let s = parse_trace_json(trace).unwrap();
        assert_eq!(s.events, 5);
        assert_eq!(s.processes, 1);
        assert_eq!(s.tracks, 1);
        assert_eq!(s.span_begins.get("dna_job"), Some(&1));
        assert_eq!(s.instants.get("agg_done"), Some(&1));
        assert_eq!(s.last_ts, 20.0);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(MetricsSnapshot::parse("{oops").is_err());
        assert!(MetricsSnapshot::parse("wrong,header\n1,2").is_err());
        assert!(parse_trace_json("{\"no\":\"events\"}").is_err());
    }

    fn campaign_line(
        cell: u64,
        mode: &str,
        rate: f64,
        seed: u64,
        cycles: u64,
        flips: u64,
        sdc: u64,
    ) -> String {
        format!(
            "{{\"cell\":{cell},\"model\":\"GCN\",\"input\":\"Cora\",\
             \"config\":\"GPU iso-BW\",\"mode\":\"{mode}\",\"rate\":{rate},\
             \"seed\":{seed},\"status\":\"ok\",\"site\":\"\",\"msg\":\"\",\
             \"total_cycles\":{cycles},\"injected\":10,\"sdc\":{sdc},\
             \"mem_injected\":6,\"mem_sdc\":{sdc},\"noc_injected\":4,\
             \"noc_sdc\":0,\"dead_tiles\":0,\"dead_links\":0,\
             \"remapped_vertices\":0,\"rows\":100,\"elements\":700,\
             \"label_flips\":{flips},\"nonfinite\":0,\
             \"max_rel_err\":0.5,\"mean_rel_err\":0.01}}"
        )
    }

    #[test]
    fn campaign_jsonl_parses_and_aggregates() {
        let text = [
            campaign_line(0, "protected", 0.0, 1, 1000, 0, 0),
            campaign_line(1, "protected", 0.0, 2, 1000, 0, 0),
            campaign_line(2, "passthrough", 0.01, 1, 990, 20, 7),
            campaign_line(3, "passthrough", 0.01, 2, 990, 40, 9),
            campaign_line(4, "degraded", 0.0, 1, 1500, 0, 0),
        ]
        .join("\n");
        let records = parse_campaign_jsonl(&text).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[2].label_flips, 20);
        let report = CampaignReport::build(records);
        // (benchmark, mode, rate) groups: degraded@0, passthrough@0.01,
        // protected@0 — BTreeMap orders modes alphabetically.
        assert_eq!(report.accuracy.len(), 3);
        let pt = report
            .accuracy
            .iter()
            .find(|r| r.mode == "passthrough")
            .unwrap();
        assert_eq!(pt.cells, 2);
        assert!((pt.flip_rate - 0.3).abs() < 1e-12);
        // Degraded@0 pairs with protected@0 seed 1: 1500/1000.
        assert_eq!(report.slowdowns.len(), 1);
        assert!((report.slowdowns[0].slowdown - 1.5).abs() < 1e-12);
        // Pass-through SDC totals: mem 12 injected / 16 sdc? No — mem_sdc
        // mirrors the sdc argument (7 + 9), injected 6 per cell.
        assert_eq!(report.site_sdc[0], ("mem".to_string(), 12, 16));
        assert_eq!(report.site_sdc[1], ("noc".to_string(), 8, 0));
    }

    #[test]
    fn campaign_markdown_has_all_subsections() {
        let text = [
            campaign_line(0, "protected", 0.0, 1, 1000, 0, 0),
            campaign_line(1, "passthrough", 0.01, 1, 990, 20, 7),
            campaign_line(2, "degraded", 0.0, 1, 1500, 0, 0),
        ]
        .join("\n");
        let report = CampaignReport::build(parse_campaign_jsonl(&text).unwrap());
        let md = report.to_markdown();
        assert!(md.contains("## Fault campaigns"));
        assert!(md.contains("### Accuracy vs fault rate"));
        assert!(md.contains("### Degraded-mode slowdown"));
        assert!(md.contains("### SDC rate per site"));
        assert!(md.contains("label-flip rate vs fault rate (passthrough)"));
        assert!(md.contains("1.500×"));
        let csv = report.to_csv();
        assert!(csv.starts_with("section,benchmark,mode,rate"));
        assert!(csv.contains("accuracy,GCN:Cora,passthrough,0.01"));
    }

    #[test]
    fn campaign_recovery_cells_feed_the_recovery_table() {
        // A rollback cell carries the conditional extension keys; a
        // legacy line omits them and parses with zero defaults.
        let rollback = "{\"cell\":0,\"model\":\"GCN\",\"input\":\"Cora\",\
             \"config\":\"GPU iso-BW\",\"mode\":\"rollback\",\"rate\":1000,\
             \"seed\":1,\"status\":\"ok\",\"site\":\"\",\"msg\":\"\",\
             \"total_cycles\":1200,\"injected\":10,\"sdc\":0,\
             \"mem_injected\":6,\"mem_sdc\":0,\"noc_injected\":4,\
             \"noc_sdc\":0,\"dead_tiles\":0,\"dead_links\":0,\
             \"remapped_vertices\":0,\"rows\":100,\"elements\":700,\
             \"label_flips\":0,\"nonfinite\":0,\
             \"max_rel_err\":0,\"mean_rel_err\":0,\
             \"domain\":\"weights/all\",\"rate_unit\":\"fit\",\
             \"checkpoints\":3,\"rollbacks\":2,\"replayed_cycles\":400,\
             \"checkpoint_pj\":5000}";
        let text = format!(
            "{}\n{rollback}",
            campaign_line(1, "protected", 0.0, 1, 1000, 0, 0)
        );
        let records = parse_campaign_jsonl(&text).unwrap();
        assert_eq!(records[0].rollbacks, 0);
        assert_eq!(records[0].domain, "");
        assert_eq!(records[1].rollbacks, 2);
        assert_eq!(records[1].checkpoint_pj, 5000);
        assert_eq!(records[1].mode_label(), "rollback[weights/all]");

        let report = CampaignReport::build(records);
        assert_eq!(report.recovery.len(), 1);
        let r = &report.recovery[0];
        assert_eq!(r.cells, 1);
        assert_eq!(r.rollbacks, 2);
        assert_eq!(r.replayed_cycles, 400);
        assert_eq!(r.checkpoint_pj, 5000);
        let md = report.to_markdown();
        assert!(md.contains("### Recovery cost (rollback cells)"));
        assert!(md.contains("| GCN:Cora | 1000 | 1 | 0 | 3 | 2 | 400 | 5000 |"));
        // A FIT-calibrated record relabels the rate axis everywhere.
        assert!(md.contains("| benchmark | mode | rate (FIT) |"));
        // A campaign without rollback cells renders no recovery table.
        let legacy = CampaignReport::build(
            parse_campaign_jsonl(&campaign_line(0, "protected", 0.0, 1, 1000, 0, 0)).unwrap(),
        );
        assert!(legacy.recovery.is_empty());
        assert!(!legacy.to_markdown().contains("Recovery cost"));
    }

    #[test]
    fn campaign_jsonl_rejects_malformed_lines() {
        assert!(parse_campaign_jsonl("{oops").is_err());
        assert!(parse_campaign_jsonl("{\"cell\":0}")
            .unwrap_err()
            .contains("line 1"));
        // Blank lines are skipped.
        assert!(parse_campaign_jsonl("\n\n").unwrap().is_empty());
    }
}
