//! Post-hoc bottleneck analysis of `--metrics-out` / `--trace-out` files.
//!
//! The simulator dumps raw counters; this module turns them into the
//! paper-style story: per-module utilisation, a per-tile stall-cause
//! breakdown (Fig. 9/10 style), the hottest mesh links rendered as a
//! heat-map, packet-latency quantiles, resilience, energy and host time.
//! Both the `gnna-report` binary and the report tests go through this
//! code, so the renderer is a pure function of the parsed metrics
//! snapshot.
//!
//! Every metric key is built and parsed through the item the writing
//! crate declares (`gnna_core::stats::TILE_KEYS`, `gnna_mem::STATS_KEYS`,
//! `gnna_noc::LINK_BUSY_KEYS`, `gnna_telemetry::profile::PHASE_KEYS`, …),
//! so this module spells no key of its own. [`BottleneckReport::build`]
//! turns the snapshot into [`Section`]s of keyed rows, once: `to_csv`
//! prints the rows verbatim, `to_markdown` renders the same rows through
//! one table helper, and [`DiffReport`] is the union of two reports'
//! rows. A row's markdown label marks it as one the markdown lists.

pub use crate::campaign::{parse_campaign_jsonl, CampaignRecord};
use gnna_core::stats::{
    TileCounters, CHECKPOINT_SITE, CLOCK_DIVIDER_KEY, CONFIG_CYCLES_KEY, CORE_CLOCK_HZ_KEY,
    FAULT_KEYS, LAYER_ENERGY_KEYS, NOC_CLOCK_HZ_KEY, STALL_KEYS, SYSTEM_ENERGY_KEYS,
    TILE_ENERGY_KEYS, TILE_KEYS, TOTAL_CYCLES_KEY, TOTAL_ENERGY_KEY,
};
use gnna_faults::FaultCounters;
use gnna_mem::MemStats;
use gnna_noc::{link_id, parse_link_id};
use gnna_telemetry::json::{self, JsonValue};
use gnna_telemetry::profile::{
    CALLS, CYCLES_PER_SEC, CYCLES_SAMPLED, CYCLES_TOTAL, PHASE_KEYS, PROFILE_KEYS, SAMPLE_EVERY,
    SELF_NS, TOTAL_NS, WALL_NS,
};
use gnna_telemetry::{KeyFamily, HISTOGRAM_FIELDS};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Flat summary of one histogram metric as serialized by the registry
/// (the [`HISTOGRAM_FIELDS`]).
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

impl HistStats {
    /// The summary from its serialized values, in [`HISTOGRAM_FIELDS`]
    /// order.
    fn from_fields(v: [f64; HISTOGRAM_FIELDS.len()]) -> Self {
        let [count, sum, min, max, mean, p50, p95, p99, p999] = v;
        let count = count as u64;
        Self {
            count,
            sum,
            min,
            max,
            mean,
            p50,
            p95,
            p99,
            p999,
        }
    }
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
                JsonValue::Object(_) => MetricValue::Histogram(HistStats::from_fields(
                    HISTOGRAM_FIELDS.map(|k| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0)),
                )),
                other => return Err(format!("metric '{name}' has unexpected value {other:?}")),
            };
            map.insert(name.clone(), value);
        }
        Ok(Self { map })
    }

    /// Parse the CSV form written by `MetricsRegistry::to_csv_string`
    /// (header `metric,kind,value,` then the [`HISTOGRAM_FIELDS`]). A row
    /// with fewer columns is an error.
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
            if cols.len() < 3 + HISTOGRAM_FIELDS.len() {
                return Err(format!("metrics CSV row {} is short: {line}", lineno + 2));
            }
            let num = |i: usize| -> f64 { cols[i].parse().unwrap_or(0.0) };
            let value = match cols[1] {
                "counter" | "gauge" => MetricValue::Number(num(2)),
                "histogram" => {
                    MetricValue::Histogram(HistStats::from_fields(std::array::from_fn(|i| {
                        num(3 + i)
                    })))
                }
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

    /// Every scalar metric as `(name, value)`, in name order.
    fn scalars(&self) -> impl Iterator<Item = (&str, f64)> {
        self.map.iter().filter_map(|(k, v)| match v {
            MetricValue::Number(n) => Some((k.as_str(), *n)),
            MetricValue::Histogram(_) => None,
        })
    }
}

/// Largest mesh side the heat-maps draw. Link cells at a coordinate
/// past it come from a damaged or hostile dump and are left out of the
/// grid (the link tables still list them).
const MAX_MESH_DIM: usize = 256;

/// Shared ASCII heat-map renderer over per-link rows (metric a
/// [`link_id`]): one glyph per router `(x, y)`, darker glyph = larger
/// summed value. `unit` names the quantity in the legend line. Empty
/// string when there are no cells.
fn ascii_heatmap(links: &Section, unit: &str) -> String {
    let cells: Vec<_> = links
        .rows
        .iter()
        .filter_map(|r| {
            let (x, y, _) = parse_link_id(&r.metric)?;
            (x < MAX_MESH_DIM && y < MAX_MESH_DIM).then_some((x, y, r.value.count()))
        })
        .collect();
    if cells.is_empty() {
        return String::new();
    }
    let width = cells.iter().map(|&(x, _, _)| x).max().unwrap_or(0) + 1;
    let height = cells.iter().map(|&(_, y, _)| y).max().unwrap_or(0) + 1;
    let mut load = vec![0u64; width * height];
    for &(x, y, v) in &cells {
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

/// Per-link rows of `family` (metric a [`link_id`]), sorted by value
/// descending, then y, x and direction.
fn link_rows(snap: &MetricsSnapshot, name: &str, family: &KeyFamily) -> Section {
    let mut links: Vec<_> = snap
        .scalars()
        .filter_map(|(key, v)| {
            let (x, y, dir) = parse_link_id(family.id(key)?)?;
            Some((v as u64, y, x, dir.to_string()))
        })
        .collect();
    links.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| (a.1, a.2, &a.3).cmp(&(b.1, b.2, &b.3)))
    });
    let mut s = Section::new(name);
    for (v, y, x, dir) in links {
        s.push(link_id(x, y, &dir), Value::Count(v));
    }
    s
}

/// `(x,y)` router label and direction of a [`link_id`].
fn router(id: &str) -> (String, String) {
    parse_link_id(id).map_or_else(
        || (id.to_string(), String::new()),
        |(x, y, dir)| (format!("({x},{y})"), dir.to_string()),
    )
}

/// Adds `v` to the `key` entry of `map`, saturating: dumps come from
/// outside, and a sum of hostile counters must not overflow.
fn add<K: Ord>(map: &mut BTreeMap<K, u64>, key: K, v: u64) {
    let e = map.entry(key).or_insert(0);
    *e = e.saturating_add(v);
}

/// `num` as a percentage of `den` (0 for a zero `den`).
fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// A `#` bar one glyph per 4% of `share` (a percentage), capped at
/// 100% so a share inflated by an inconsistent dump stays one line.
fn share_bar(share: f64) -> String {
    "#".repeat((share.min(100.0) / 4.0).round() as usize)
}

/// Writes one markdown table row; an empty cell renders as ` |`.
fn md_row<S: AsRef<str>>(o: &mut String, cells: &[S]) {
    o.push('|');
    for c in cells {
        match c.as_ref() {
            "" => o.push_str(" |"),
            c => {
                let _ = write!(o, " {c} |");
            }
        }
    }
    o.push('\n');
}

/// Writes a markdown table: the header (`|`-separated column names), its
/// separator, then `rows`.
fn table(o: &mut String, header: &str, rows: impl IntoIterator<Item = Vec<String>>) {
    let columns: Vec<&str> = header.split('|').collect();
    md_row(o, &columns);
    o.push('|');
    o.push_str(&"---|".repeat(columns.len()));
    o.push('\n');
    for r in rows {
        md_row(o, &r);
    }
}

/// `| metric | share | bar |` rows of a section's labelled values
/// against `total`, closed by a `**total**` row.
fn share_table(o: &mut String, header: &str, rows: &Section, total: u64) {
    let body = rows.labelled().map(|(label, v)| {
        let share = pct(v.count(), total);
        vec![
            label.to_string(),
            v.md(),
            format!("{share:.1}%"),
            format!("`{}`", share_bar(share)),
        ]
    });
    let close = ["**total**", &total.to_string(), "100.0%", ""].map(String::from);
    table(o, header, body.chain([close.to_vec()]));
}

/// A reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An exact count.
    Count(u64),
    /// Cycles `.0` as a share of `.1` cycles: three decimals of percent
    /// in CSV (a zero whole read as one), one in markdown (0 for a zero
    /// whole).
    Share(u64, u64),
    /// A fraction: four decimals in CSV, a one-decimal percentage in
    /// markdown.
    Ratio(f64),
    /// A measurement printed to the given decimals.
    Real(f64, usize),
}

impl Value {
    /// The counted part (the share's numerator; a real truncated).
    pub fn count(self) -> u64 {
        match self {
            Value::Count(n) | Value::Share(n, _) => n,
            Value::Ratio(v) | Value::Real(v, _) => v as u64,
        }
    }

    /// The markdown form.
    fn md(self) -> String {
        match self {
            Value::Share(n, d) => format!("{:.1}%", pct(n, d)),
            Value::Ratio(v) => format!("{:.1}%", v * 100.0),
            v => v.to_string(),
        }
    }
}

/// The CSV form.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Share(n, d) => write!(f, "{:.3}", 100.0 * n as f64 / d.max(1) as f64),
            Value::Ratio(v) => write!(f, "{v:.4}"),
            Value::Real(v, digits) => write!(f, "{v:.digits$}"),
        }
    }
}

/// One keyed value of a report section: a `section,metric,value` CSV
/// row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name within the section.
    pub metric: String,
    /// The value.
    pub value: Value,
    /// The markdown name of a row the markdown lists (`None`: CSV only).
    pub label: Option<String>,
}

/// A named list of keyed rows, in CSV order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// CSV section name.
    pub name: String,
    /// Rows in order.
    pub rows: Vec<Row>,
}

impl Section {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, metric: impl Into<String>, value: Value) {
        self.rows.push(Row {
            metric: metric.into(),
            value,
            label: None,
        });
    }

    fn push_labelled(&mut self, metric: impl Into<String>, label: impl Into<String>, value: Value) {
        self.rows.push(Row {
            metric: metric.into(),
            value,
            label: Some(label.into()),
        });
    }

    /// The value of `metric`.
    pub fn get(&self, metric: &str) -> Option<Value> {
        self.rows
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.value)
    }

    /// `(label, value)` of the rows the markdown lists.
    fn labelled(&self) -> impl Iterator<Item = (&str, Value)> {
        self.rows
            .iter()
            .filter_map(|r| Some((r.label.as_deref()?, r.value)))
    }
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

/// One host-profile phase parsed from the `host.profile.*` counters.
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
    let mut rows: BTreeMap<&str, HostPhaseRow> = BTreeMap::new();
    for (key, v) in snap.scalars() {
        // Run-level gauges have no phase path and are read below.
        let Some((field, path)) = PHASE_KEYS.split(key) else {
            continue;
        };
        let row = rows.entry(path).or_insert_with(|| HostPhaseRow {
            path: path.to_string(),
            ..Default::default()
        });
        match field {
            SELF_NS => row.self_ns = v as u64,
            TOTAL_NS => row.total_ns = v as u64,
            CALLS => row.calls = v as u64,
            _ => {}
        }
    }
    let gauge = |name: &str| snap.number(&PROFILE_KEYS.key(name));
    let wall_ns = gauge(WALL_NS);
    if rows.is_empty() && wall_ns.is_none() {
        return None;
    }
    let mut phases: Vec<_> = rows.into_values().collect();
    phases.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    let gauge = |name: &str| gauge(name).unwrap_or(0.0);
    Some(HostProfile {
        phases,
        wall_ns: wall_ns.unwrap_or(0.0) as u64,
        cycles_total: gauge(CYCLES_TOTAL) as u64,
        cycles_sampled: gauge(CYCLES_SAMPLED) as u64,
        sample_every: gauge(SAMPLE_EVERY) as u64,
        cycles_per_sec: gauge(CYCLES_PER_SEC),
    })
}

/// The energy attribution of an event-level traced run, in integer
/// picojoules: per module class (the `dna`/`agg`/`sram`/`gpe` tile
/// sites, `dram`, `noc`, and `checkpoint` under rollback), per tile,
/// per link and per layer. The module, tile and layer families each sum
/// exactly to [`Energy::total_pj`].
#[derive(Debug, Clone, Default)]
pub struct Energy {
    /// Run total (`system.energy.total_pj`).
    pub total_pj: u64,
    /// `total_pj`, then `module.{site}_pj` per module class, descending.
    pub modules: Section,
    /// `tile{i}_pj`: per-tile totals of the on-tile sites.
    pub tiles: Section,
    /// Per-link NoC energy, descending.
    pub links: Section,
    /// `layer{k}_pj` in layer order.
    pub layers: Section,
}

fn parse_energy(snap: &MetricsSnapshot) -> Option<Energy> {
    let total_pj = snap.counter(TOTAL_ENERGY_KEY)?;
    let mut modules: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut tiles = Section::new("energy");
    for i in 0.. {
        let mut tile_pj = None;
        for (site, _, _) in TileCounters::default().energy() {
            let key = TILE_KEYS.member(i, &TILE_ENERGY_KEYS.key(site));
            if let Some(pj) = snap.counter(&key) {
                tile_pj = Some(tile_pj.unwrap_or(0u64).saturating_add(pj));
                add(&mut modules, site, pj);
            }
        }
        let Some(pj) = tile_pj else { break };
        tiles.push_labelled(TILE_KEYS.scope(i) + "_pj", i.to_string(), Value::Count(pj));
    }
    for i in 0.. {
        let Some(pj) = snap.counter(&gnna_mem::ENERGY_KEYS.key(i)) else {
            break;
        };
        add(&mut modules, gnna_mem::DRAM_ENERGY_SITE, pj);
    }
    let links = link_rows(snap, "energy.link", &gnna_noc::LINK_ENERGY_KEYS);
    for r in &links.rows {
        add(&mut modules, gnna_noc::NOC_ENERGY_SITE, r.value.count());
    }
    if let Some(pj) = snap.counter(&SYSTEM_ENERGY_KEYS.key(CHECKPOINT_SITE)) {
        add(&mut modules, CHECKPOINT_SITE, pj);
    }
    let mut by_pj: Vec<_> = modules.into_iter().collect();
    by_pj.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut totals = Section::new("energy");
    totals.push("total_pj", Value::Count(total_pj));
    for (site, pj) in by_pj {
        totals.push_labelled(format!("module.{site}_pj"), site, Value::Count(pj));
    }
    let mut layers = Section::new("energy");
    for k in 0.. {
        let Some(pj) = snap.counter(&LAYER_ENERGY_KEYS.key(k)) else {
            break;
        };
        layers.push_labelled(format!("layer{k}_pj"), k.to_string(), Value::Count(pj));
    }
    Some(Energy {
        total_pj,
        modules: totals,
        tiles,
        links,
        layers,
    })
}

/// The utilisation rows of a tile section as `(metric, label)`: GPE busy
/// (op + switch), GPE blocked (idle + stall), AGG busy and DNA busy
/// cycles, each a share of core cycles.
const UTILISATION: [(&str, &str); 4] = [
    ("gpe_busy_pct", "GPE busy"),
    ("gpe_blocked_pct", "GPE blocked"),
    ("agg_busy_pct", "AGG busy"),
    ("dna_busy_pct", "DNA busy"),
];

/// The assembled bottleneck report, ready to render as markdown or CSV.
/// Each section's keyed rows are built once, by [`BottleneckReport::build`].
#[derive(Debug, Default)]
pub struct BottleneckReport {
    /// `system`: total, config and core cycles (labelled: the headline
    /// values) and the clock divider.
    pub system: Section,
    /// `tile{i}`: GPE busy/blocked, AGG and DNA busy as shares of core
    /// cycles (labelled), then blocked cycles per stall cause.
    pub tiles: Vec<Section>,
    /// `stalls`: blocked cycles per cause over all tiles, descending.
    pub stalls: Section,
    /// `noc.link`: busy cycles per mesh link, descending.
    pub links: Section,
    /// `noc`: packet latency and hop-count quantiles, when traced.
    pub noc: Section,
    /// `mem{i}`: requests, DRAM bytes and efficiency per controller.
    pub mems: Vec<Section>,
    /// `resilience`: `{site}.{counter}` over every fault counter.
    pub resilience: Section,
    /// Energy attribution, when the run was traced at event level.
    pub energy: Option<Energy>,
    /// `host` and `host.profile` rows, when the run was profiled.
    pub host: Vec<Section>,
    /// `trace` rows, when a trace was given.
    pub traced: Vec<Section>,
    /// Core clock in Hz.
    pub core_clock_hz: f64,
    /// NoC clock in Hz.
    pub noc_clock_hz: f64,
    /// End-to-end packet latency histogram, when traced.
    pub latency: Option<HistStats>,
    /// Packet hop-count histogram, when traced.
    pub hops: Option<HistStats>,
    /// Per-site fault counters (`{site}.fault.*`), in site order. Empty
    /// when the run had no fault plan (the family is only emitted under
    /// injection).
    pub faults: Vec<(String, FaultCounters)>,
    /// Host-phase wall-clock profile (`gnna-sim --profile-out` or
    /// `--profile-json`).
    pub host_profile: Option<HostProfile>,
    /// Optional trace-file inventory.
    pub trace: Option<TraceSummary>,
}

impl BottleneckReport {
    /// Build the report from a parsed metrics snapshot and an optional
    /// trace summary.
    pub fn build(snap: &MetricsSnapshot, trace: Option<TraceSummary>) -> Self {
        let count = |key: &str| snap.counter(key).unwrap_or(0);
        let total = count(TOTAL_CYCLES_KEY);
        let divider = snap.counter(CLOCK_DIVIDER_KEY).unwrap_or(1).max(1);
        let core = total / divider;
        let mut system = Section::new("system");
        system.push_labelled(
            "total_cycles",
            "total cycles (NoC clock)",
            Value::Count(total),
        );
        let config = count(CONFIG_CYCLES_KEY);
        system.push_labelled("config_cycles", "config cycles", Value::Count(config));
        system.push("clock_divider", Value::Count(divider));
        let core_label = format!("core cycles (divider {divider})");
        system.push_labelled("core_cycles", core_label, Value::Count(core));

        // Per-tile rows: walk tile indices until one has no first counter
        // (GPE op cycles).
        let mut tiles = Vec::new();
        let mut stalls: BTreeMap<String, u64> = BTreeMap::new();
        let first = TileCounters::default().fields()[0].0;
        for i in 0.. {
            if snap.counter(&TILE_KEYS.member(i, first)).is_none() {
                break;
            }
            let mut c = TileCounters::default();
            let mut causes = Vec::new();
            for (name, slot) in c.fields_mut() {
                let Some(v) = snap.counter(&TILE_KEYS.member(i, name)) else {
                    continue;
                };
                *slot = v;
                if let Some(cause) = STALL_KEYS.id(name) {
                    causes.push((name, v));
                    add(&mut stalls, cause.to_string(), v);
                }
            }
            causes.sort();
            let mut s = Section::new(TILE_KEYS.scope(i));
            let parts = [
                c.gpe_op_cycles.saturating_add(c.gpe_switch_cycles),
                c.gpe_idle_cycles.saturating_add(c.gpe_stall_cycles),
                c.agg_busy_cycles,
                c.dna_busy_cycles,
            ];
            for ((metric, label), part) in UTILISATION.into_iter().zip(parts) {
                s.push_labelled(metric, label, Value::Share(part, core));
            }
            for (name, v) in causes {
                s.push(name, Value::Count(v));
            }
            tiles.push(s);
        }
        let mut by_cycles: Vec<_> = stalls.into_iter().collect();
        by_cycles.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut stalls = Section::new("stalls");
        for (cause, v) in by_cycles {
            stalls.push_labelled(cause.clone(), cause, Value::Count(v));
        }

        let latency = snap.histogram(gnna_noc::PACKET_LATENCY_KEY);
        let hops = snap.histogram(gnna_noc::PACKET_HOPS_KEY);
        let mut noc = Section::new("noc");
        for (name, h) in [("latency", latency), ("hops", hops)] {
            if let Some(h) = h {
                noc.push(format!("{name}.count"), Value::Count(h.count));
                for (q, v) in [
                    ("p50", h.p50),
                    ("p95", h.p95),
                    ("p99", h.p99),
                    ("p999", h.p999),
                ] {
                    noc.push(format!("{name}.{q}"), Value::Real(v, 3));
                }
            }
        }

        // Memory controllers: walk indices until one has no counters.
        let mut mems = Vec::new();
        for i in 0.. {
            let mut m = MemStats::default();
            let mut seen = false;
            for (name, slot) in m.fields_mut() {
                if let Some(v) = snap.counter(&gnna_mem::STATS_KEYS.member(i, name)) {
                    *slot = v;
                    seen = true;
                }
            }
            if !seen {
                break;
            }
            let eff = snap.number(&gnna_mem::STATS_KEYS.member(i, gnna_mem::EFFICIENCY));
            let mut s = Section::new(gnna_mem::STATS_KEYS.scope(i));
            s.push_labelled("requests", "requests", Value::Count(m.requests));
            s.push_labelled("dram_bytes", "DRAM bytes", Value::Count(m.dram_bytes));
            let eff = Value::Ratio(eff.unwrap_or(0.0));
            s.push_labelled(gnna_mem::EFFICIENCY, gnna_mem::EFFICIENCY, eff);
            mems.push(s);
        }

        // Fault sites, in site order.
        let mut sites: BTreeMap<String, FaultCounters> = BTreeMap::new();
        for name in snap.names() {
            let (Some((site, counter)), Some(v)) = (FAULT_KEYS.split(name), snap.counter(name))
            else {
                continue;
            };
            let entry = sites.entry(site.to_string()).or_default();
            if let Some((_, slot)) = entry.fields_mut().into_iter().find(|(n, _)| *n == counter) {
                *slot = v;
            }
        }
        let faults: Vec<_> = sites.into_iter().collect();
        let mut resilience = Section::new("resilience");
        for (site, f) in &faults {
            for (counter, v) in f.fields() {
                resilience.push(format!("{site}.{counter}"), Value::Count(v));
            }
        }

        let host_profile = parse_host_profile(snap);
        let mut host = Vec::new();
        if let Some(hp) = &host_profile {
            let mut run = Section::new("host");
            run.push(WALL_NS, Value::Count(hp.wall_ns));
            run.push(CYCLES_TOTAL, Value::Count(hp.cycles_total));
            run.push(CYCLES_PER_SEC, Value::Real(hp.cycles_per_sec, 1));
            // Phase rows go in path order, not self-time order: wall
            // timings differ every run, and diffs of this CSV must not
            // flap on row order when near-equal phases swap.
            let mut by_path: Vec<&HostPhaseRow> = hp.phases.iter().collect();
            by_path.sort_by(|a, b| a.path.cmp(&b.path));
            let mut phases = Section::new("host.profile");
            for p in by_path {
                phases.push(format!("{}.{SELF_NS}", p.path), Value::Count(p.self_ns));
            }
            host = vec![run, phases];
        }
        let mut traced = Vec::new();
        if let Some(t) = &trace {
            let mut s = Section::new("trace");
            s.push("events", Value::Count(t.events));
            s.push("tracks", Value::Count(t.tracks));
            s.push("processes", Value::Count(t.processes));
            traced.push(s);
        }

        BottleneckReport {
            system,
            tiles,
            stalls,
            links: link_rows(snap, "noc.link", &gnna_noc::LINK_BUSY_KEYS),
            noc,
            mems,
            resilience,
            energy: parse_energy(snap),
            host,
            traced,
            core_clock_hz: snap.number(CORE_CLOCK_HZ_KEY).unwrap_or(0.0),
            noc_clock_hz: snap.number(NOC_CLOCK_HZ_KEY).unwrap_or(0.0),
            latency,
            hops,
            faults,
            host_profile,
            trace,
        }
    }

    /// Every section in CSV order.
    fn sections(&self) -> impl Iterator<Item = &Section> {
        let energy = self
            .energy
            .iter()
            .flat_map(|e| [&e.modules, &e.tiles, &e.links, &e.layers]);
        std::iter::once(&self.system)
            .chain(&self.tiles)
            .chain([&self.stalls, &self.links, &self.noc])
            .chain(&self.mems)
            .chain([&self.resilience])
            .chain(energy)
            .chain(&self.host)
            .chain(&self.traced)
    }

    /// ASCII mesh heat-map: one glyph per router, darker = more link
    /// traffic out of that router. Empty string when no link data exists.
    pub fn mesh_heatmap(&self) -> String {
        ascii_heatmap(&self.links, "busy cycles")
    }

    /// Render the report as markdown.
    pub fn to_markdown(&self, top_k: usize) -> String {
        let mut o = String::from("# gnna bottleneck report\n");
        let heading = |o: &mut String, title: &str| {
            let _ = writeln!(o, "\n## {title}\n");
        };
        let note = |o: &mut String, text: &str| {
            let _ = writeln!(o, "_{text}_");
        };

        heading(&mut o, "System");
        let mut rows: Vec<Vec<String>> = self
            .system
            .labelled()
            .map(|(label, v)| vec![label.to_string(), v.md()])
            .collect();
        let ghz = |hz: f64| hz / 1e9;
        rows.push(vec![
            "clocks".into(),
            format!(
                "core {:.2} GHz / NoC {:.2} GHz",
                ghz(self.core_clock_hz),
                ghz(self.noc_clock_hz)
            ),
        ]);
        let total_cycles = self.system.get("total_cycles").map_or(0, Value::count);
        if self.noc_clock_hz > 0.0 {
            let ms = total_cycles as f64 / self.noc_clock_hz * 1e3;
            rows.push(vec!["latency".into(), format!("{ms:.3} ms")]);
        }
        table(&mut o, "metric|value", rows);

        heading(&mut o, "Module utilisation (of core cycles)");
        let shares = |s: &Section| -> Vec<Value> { s.labelled().map(|(_, v)| v).collect() };
        let labels = UTILISATION.map(|(_, label)| label).join("|");
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (i, t) in self.tiles.iter().enumerate() {
            let cells = shares(t).into_iter().map(Value::md);
            rows.push(std::iter::once(i.to_string()).chain(cells).collect());
        }
        if let Some(first) = self.tiles.first() {
            let n = self.tiles.len() as u64;
            let mut mean = vec!["**mean**".to_string()];
            for (col, v) in shares(first).into_iter().enumerate() {
                let Value::Share(_, whole) = v else { continue };
                let sum = self
                    .tiles
                    .iter()
                    .map(|t| shares(t)[col].count())
                    .fold(0, u64::saturating_add);
                mean.push(Value::Share(sum / n, whole).md());
            }
            rows.push(mean);
        }
        table(&mut o, &format!("tile|{labels}"), rows);

        heading(&mut o, "Stall breakdown (blocked GPE cycles by cause)");
        let blocked = self
            .stalls
            .rows
            .iter()
            .fold(0, |acc: u64, r| acc.saturating_add(r.value.count()));
        share_table(&mut o, "cause|cycles|share|", &self.stalls, blocked);

        heading(&mut o, "NoC");
        if self.links.rows.is_empty() {
            note(
                &mut o,
                "No per-link counters in this metrics file (run with an \
                 event-level trace to collect them).",
            );
        } else {
            let _ = writeln!(o, "Top {top_k} hottest links:\n");
            let rows = self.links.rows.iter().take(top_k).map(|r| {
                let (at, dir) = router(&r.metric);
                let util = pct(r.value.count(), total_cycles);
                vec![at, dir, r.value.md(), format!("{util:.1}%")]
            });
            table(&mut o, "router|dir|busy cycles|link util", rows);
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
            o.push('\n');
            note(
                &mut o,
                "Packet latency/hop histograms not recorded in this metrics file.",
            );
        }

        heading(&mut o, "Memory controllers");
        if let Some(first) = self.mems.first() {
            let labels: Vec<&str> = first.labelled().map(|(label, _)| label).collect();
            let rows = self.mems.iter().map(|m| {
                std::iter::once(m.name.clone())
                    .chain(m.labelled().map(|(_, v)| v.md()))
                    .collect()
            });
            table(&mut o, &format!("ctrl|{}", labels.join("|")), rows);
        } else {
            note(
                &mut o,
                "Memory-controller counters not recorded in this metrics file.",
            );
        }

        heading(&mut o, "Resilience");
        self.resilience_markdown(&mut o);

        if let Some(e) = &self.energy {
            heading(&mut o, "Energy");
            let _ = writeln!(
                o,
                "Total attributed energy: **{} pJ** ({:.3} µJ).\n",
                e.total_pj,
                e.total_pj as f64 / 1e6
            );
            share_table(&mut o, "module|energy (pJ)|share|", &e.modules, e.total_pj);
            let shares = |s: &Section| {
                s.labelled()
                    .map(|(label, v)| {
                        let share = pct(v.count(), e.total_pj);
                        vec![label.to_string(), v.md(), format!("{share:.1}%")]
                    })
                    .collect::<Vec<_>>()
            };
            if e.tiles.rows.len() > 1 {
                let _ = writeln!(o, "\nPer-tile energy (on-tile sites only):\n");
                table(&mut o, "tile|energy (pJ)|share of total", shares(&e.tiles));
            }
            if !e.links.rows.is_empty() {
                let _ = writeln!(o, "\nTop {top_k} NoC energy hot spots:\n");
                let rows = e.links.rows.iter().take(top_k).map(|r| {
                    let (at, dir) = router(&r.metric);
                    vec![at, dir, r.value.md()]
                });
                table(&mut o, "router|dir|energy (pJ)", rows);
                let _ = writeln!(o, "\nEnergy heat-map (outgoing link energy per router):\n");
                let _ = writeln!(o, "```\n{}```", ascii_heatmap(&e.links, "pJ"));
            }
            if !e.layers.rows.is_empty() {
                let _ = writeln!(o, "\nPer-layer energy:\n");
                table(&mut o, "layer|energy (pJ)|share", shares(&e.layers));
            }
        } else {
            o.push('\n');
            note(
                &mut o,
                "Energy attribution not recorded in this metrics file \
                 (run with an event-level trace to collect it).",
            );
        }

        if let Some(hp) = &self.host_profile {
            heading(&mut o, "Host profile");
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
            let wall = hp.wall_ns.max(1);
            let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
            let rows = hp.phases.iter().take(shown).map(|p| {
                let share = format!("{:.1}%", pct(p.self_ns, wall));
                vec![
                    p.path.clone(),
                    ms(p.self_ns),
                    share,
                    ms(p.total_ns),
                    p.calls.to_string(),
                ]
            });
            table(&mut o, "phase|self (ms)|self %|total (ms)|calls", rows);
            if hp.phases.len() > shown {
                let more = hp.phases.len() - shown;
                o.push('\n');
                note(
                    &mut o,
                    &format!("{more} more phase(s) below the top {shown} by self time."),
                );
            }
        }

        if let Some(t) = &self.trace {
            heading(&mut o, "Trace inventory");
            let _ = writeln!(
                o,
                "{} events across {} tracks in {} processes; last timestamp {:.0} µs.",
                t.events, t.tracks, t.processes, t.last_ts
            );
            let mut spans: Vec<_> = t.span_begins.iter().collect();
            spans.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            if !spans.is_empty() {
                o.push('\n');
                let rows = spans
                    .into_iter()
                    .take(top_k)
                    .map(|(name, count)| vec![name.clone(), count.to_string()]);
                table(&mut o, "span|count", rows);
            }
        }
        o
    }

    /// The `## Resilience` body: per-site counters, their total and the
    /// fault-partition check.
    fn resilience_markdown(&self, o: &mut String) {
        if self.faults.is_empty() {
            let _ = writeln!(
                o,
                "_Fault counters not recorded in this metrics file \
                 (fault-free run; use `gnna-sim --fault-rate` to inject \
                 faults)._"
            );
            return;
        }
        let mut total = FaultCounters::default();
        let cells = |site: &str, f: &FaultCounters| {
            let v = [
                f.injected,
                f.corrected,
                f.retried,
                f.unrecoverable,
                f.corrupted,
                f.dropped,
                f.retry_cycles,
            ];
            std::iter::once(site.to_string())
                .chain(v.iter().map(u64::to_string))
                .collect::<Vec<_>>()
        };
        let mut rows = Vec::new();
        for (site, f) in &self.faults {
            total.merge(f);
            rows.push(cells(site, f));
        }
        rows.push(cells("**total**", &total));
        let header = "site|injected|corrected|retried|unrecoverable|corrupted|dropped|retry cycles";
        table(o, header, rows);
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
        let verdict = if total.partition_holds() {
            "holds"
        } else {
            "**VIOLATED**"
        };
        let _ = writeln!(
            o,
            "\nPartition check: injected ({}) == {terms} — {verdict}.",
            total.injected
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

    /// Render the report as flat CSV: every section's rows verbatim.
    pub fn to_csv(&self) -> String {
        let mut o = String::from("section,metric,value\n");
        for s in self.sections() {
            for r in &s.rows {
                let _ = writeln!(o, "{},{},{}", s.name, r.metric, r.value);
            }
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
/// --diff A B`): per-section deltas for cycles, stalls, link traffic,
/// energy and fault counters, plus the metric names present in only one
/// of the two dumps.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Display label for run A (usually the file name).
    pub label_a: String,
    /// Display label for run B.
    pub label_b: String,
    /// The headline system rows, the tile count and the energy total.
    pub system: Vec<MetricDelta>,
    /// Aggregate stall cycles by cause (union of both runs' causes).
    pub stalls: Vec<MetricDelta>,
    /// Per-link busy cycles, sorted by |Δ| descending.
    pub links: Vec<MetricDelta>,
    /// Energy rows: total, module aggregates and per-layer totals.
    pub energy: Vec<MetricDelta>,
    /// Fault-counter rows (`{site}.{counter}`), union of both runs.
    pub resilience: Vec<MetricDelta>,
    /// Metric names present in A's dump only.
    pub only_a: Vec<String>,
    /// Metric names present in B's dump only.
    pub only_b: Vec<String>,
}

/// Delta rows over the union of two runs' keyed rows, in
/// [`delta_order`]. `key` renames a row's metric for the comparison.
fn union_deltas<'a>(
    a: impl IntoIterator<Item = &'a Row>,
    b: impl IntoIterator<Item = &'a Row>,
    key: impl Fn(&str) -> String,
) -> Vec<MetricDelta> {
    let keyed = |rows: Vec<&Row>| -> BTreeMap<String, f64> {
        let values = rows
            .into_iter()
            .map(|r| (key(&r.metric), r.value.count() as f64));
        values.collect()
    };
    let (a, b) = (
        keyed(a.into_iter().collect()),
        keyed(b.into_iter().collect()),
    );
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let mut rows: Vec<MetricDelta> = keys
        .into_iter()
        .map(|k| MetricDelta::new(k.clone(), a.get(k).copied(), b.get(k).copied()))
        .collect();
    rows.sort_by(delta_order);
    rows
}

impl DiffReport {
    /// Build the differential report from two parsed metrics snapshots.
    pub fn build(a: &MetricsSnapshot, b: &MetricsSnapshot, label_a: &str, label_b: &str) -> Self {
        let ra = BottleneckReport::build(a, None);
        let rb = BottleneckReport::build(b, None);
        let same = |m: &str| m.to_string();
        let energy = |r: &BottleneckReport| -> Vec<Row> {
            let e = r.energy.iter();
            e.flat_map(|e| e.modules.rows.iter().chain(&e.layers.rows))
                .cloned()
                .collect()
        };
        let energy = union_deltas(&energy(&ra), &energy(&rb), |m| {
            m.strip_suffix("_pj").unwrap_or(m).to_string()
        });
        let total = energy.iter().find(|r| r.name == "total");
        let headline = |r: &BottleneckReport| -> Vec<(String, f64)> {
            let rows = r.system.rows.iter().filter(|row| row.label.is_some());
            rows.map(|row| (row.metric.clone(), row.value.count() as f64))
                .collect()
        };
        let mut system: Vec<MetricDelta> = headline(&ra)
            .into_iter()
            .zip(headline(&rb))
            .map(|((name, va), (_, vb))| MetricDelta::new(name, Some(va), Some(vb)))
            .collect();
        let tiles = |r: &BottleneckReport| Some(r.tiles.len() as f64);
        system.push(MetricDelta::new("tiles", tiles(&ra), tiles(&rb)));
        let (ea, eb) = total.map_or((None, None), |t| (t.a, t.b));
        system.push(MetricDelta::new("energy_total_pj", ea, eb));
        let only = |x: &MetricsSnapshot, y: &MetricsSnapshot| -> Vec<String> {
            let names = x.names().filter(|n| y.get_value(n).is_none());
            names.map(str::to_string).collect()
        };
        DiffReport {
            label_a: label_a.to_string(),
            label_b: label_b.to_string(),
            system,
            stalls: union_deltas(&ra.stalls.rows, &rb.stalls.rows, same),
            links: union_deltas(&ra.links.rows, &rb.links.rows, |m| {
                let (at, dir) = router(m);
                format!("{at} {dir}")
            }),
            energy,
            resilience: union_deltas(&ra.resilience.rows, &rb.resilience.rows, same),
            only_a: only(a, b),
            only_b: only(b, a),
        }
    }

    /// `(markdown title, CSV section, rows, capped at top-k)` of every
    /// compared section, in report order.
    fn sections(&self) -> [(&'static str, &'static str, &[MetricDelta], bool); 5] {
        [
            ("System", "system", &self.system, false),
            ("Stall cycles by cause", "stalls", &self.stalls, false),
            ("NoC link busy cycles", "noc.link", &self.links, true),
            ("Energy (pJ)", "energy", &self.energy, false),
            (
                "Resilience fault counters",
                "resilience",
                &self.resilience,
                false,
            ),
        ]
    }

    /// True when every compared row is identical and both dumps carry
    /// exactly the same metric names (the self-diff case).
    pub fn is_zero(&self) -> bool {
        self.only_a.is_empty()
            && self.only_b.is_empty()
            && self
                .sections()
                .iter()
                .all(|(_, _, rows, _)| rows.iter().all(MetricDelta::is_zero))
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
        for (title, _, rows, capped) in self.sections() {
            if rows.is_empty() {
                continue;
            }
            let limit = if capped { top_k } else { usize::MAX };
            let _ = writeln!(o, "## {title}\n");
            let mut body: Vec<Vec<String>> = rows
                .iter()
                .take(limit)
                .map(|r| {
                    let (a, b) = (fmt_opt(r.a), fmt_opt(r.b));
                    vec![
                        r.name.clone(),
                        a,
                        b,
                        fmt_signed(r.delta()),
                        fmt_pct(r.pct()),
                    ]
                })
                .collect();
            if rows.len() > limit {
                let mut more = vec![String::new(); 5];
                more[0] = format!("… {} more", rows.len() - limit);
                body.push(more);
            }
            table(&mut o, "metric|A|B|Δ|Δ%", body);
            o.push('\n');
        }
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
        for (_, section, rows, _) in self.sections() {
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
        }
        for (side, names) in [("only_a", &self.only_a), ("only_b", &self.only_b)] {
            for n in names {
                let _ = writeln!(o, "coverage,{side}.{},,,", n.replace(',', ";"));
            }
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
#[derive(Debug, Clone, PartialEq, Default)]
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
#[derive(Debug, Clone, PartialEq, Default)]
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
        // (benchmark, rate, seed); `slowdown` sums ratios until the end.
        let mut protected: BTreeMap<(String, u64, u64), u64> = BTreeMap::new();
        for r in &records {
            if r.mode == "protected" && r.status == "ok" && r.total_cycles > 0 {
                protected.insert((r.benchmark(), rate_key(r.rate), r.seed), r.total_cycles);
            }
        }
        let mut pairs: BTreeMap<(String, u64), SlowdownRow> = BTreeMap::new();
        for r in &records {
            if r.mode != "degraded" || r.status != "ok" {
                continue;
            }
            let Some(&base) = protected.get(&(r.benchmark(), rate_key(r.rate), r.seed)) else {
                continue;
            };
            let e = pairs.entry((r.benchmark(), rate_key(r.rate))).or_default();
            e.slowdown += r.total_cycles as f64 / base as f64;
            e.pairs += 1;
            e.remapped_vertices = r.remapped_vertices;
            e.dead_tiles = r.dead_tiles;
            e.dead_links = r.dead_links;
        }
        let slowdowns = pairs
            .into_iter()
            .map(|((benchmark, rate_bits), row)| SlowdownRow {
                benchmark,
                rate: f64::from_bits(rate_bits),
                slowdown: row.slowdown / row.pairs as f64,
                ..row
            })
            .collect();

        // SDC rate per site over pass-through cells (protection disabled;
        // the other modes catch these by construction).
        let mut mem = (0u64, 0u64);
        let mut noc = (0u64, 0u64);
        for r in records.iter().filter(|r| r.mode == "passthrough") {
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
        let mut rec_groups: BTreeMap<(String, u64), RecoveryRow> = BTreeMap::new();
        for r in records.iter().filter(|r| r.mode == "rollback") {
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
            .map(|((benchmark, rate_bits), row)| RecoveryRow {
                benchmark,
                rate: f64::from_bits(rate_bits),
                ..row
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
        let rate = self.rate_label();

        let _ = writeln!(o, "### Accuracy vs fault rate\n");
        let header = format!(
            "benchmark|mode|{rate}|cells|unrec|flip rate|mean rel err|max rel err|non-finite"
        );
        let rows = self.accuracy.iter().map(|r| {
            vec![
                r.benchmark.clone(),
                r.mode.clone(),
                json::number(r.rate),
                r.cells.to_string(),
                r.unrecoverable.to_string(),
                format!("{:.2}%", r.flip_rate * 100.0),
                format!("{:.3e}", r.mean_rel_err),
                format!("{:.3e}", r.max_rel_err),
                format!("{:.1}", r.nonfinite),
            ]
        });
        table(&mut o, &header, rows);

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
            let header = "benchmark|rate|slowdown|pairs|dead tiles|dead links|remapped vertices";
            let rows = self.slowdowns.iter().map(|s| {
                vec![
                    s.benchmark.clone(),
                    json::number(s.rate),
                    format!("{:.3}×", s.slowdown),
                    s.pairs.to_string(),
                    s.dead_tiles.to_string(),
                    s.dead_links.to_string(),
                    s.remapped_vertices.to_string(),
                ]
            });
            table(&mut o, header, rows);
        }

        let _ = writeln!(o, "\n### SDC rate per site (pass-through cells)\n");
        let rows = self.site_sdc.iter().map(|(site, injected, sdc)| {
            let share = pct(*sdc, *injected);
            vec![
                site.clone(),
                injected.to_string(),
                sdc.to_string(),
                format!("{share:.1}%"),
            ]
        });
        table(&mut o, "site|injected|sdc|sdc rate", rows);

        if !self.recovery.is_empty() {
            let _ = writeln!(o, "\n### Recovery cost (rollback cells)\n");
            let header = format!(
                "benchmark|{rate}|cells|unrec|checkpoints|rollbacks|replayed cycles|checkpoint pJ"
            );
            let rows = self.recovery.iter().map(|r| {
                let counts = [
                    r.cells,
                    r.unrecoverable,
                    r.checkpoints,
                    r.rollbacks,
                    r.replayed_cycles,
                    r.checkpoint_pj,
                ];
                [r.benchmark.clone(), json::number(r.rate)]
                    .into_iter()
                    .chain(counts.iter().map(u64::to_string))
                    .collect()
            });
            table(&mut o, &header, rows);
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

    /// `(label, count)` of a section's labelled rows.
    fn labelled(s: &Section) -> Vec<(String, u64)> {
        s.labelled()
            .map(|(label, v)| (label.to_string(), v.count()))
            .collect()
    }

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
        assert_eq!(r.faults.len(), 3, "{:?}", r.faults);
        // Sites in sorted order: mem0, noc, tile0.
        assert_eq!(r.faults[0].0, "mem0");
        assert_eq!(r.faults[1].0, "noc");
        assert_eq!(r.faults[2].0, "tile0");
        let mem = r.faults[0].1;
        assert_eq!(mem.injected, 8);
        assert_eq!(mem.retried, 2);
        assert!(mem.partition_holds());
        let noc = r.faults[1].1;
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
        assert!(r.faults.is_empty());
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
        let modules = labelled(&e.modules);
        assert_eq!(modules.iter().map(|(_, pj)| pj).sum::<u64>(), e.total_pj);
        // Layer family partitions the total exactly.
        let layers = labelled(&e.layers);
        assert_eq!(layers, [("0".to_string(), 600), ("1".to_string(), 400)]);
        // Modules are sorted descending; dna is the hottest site.
        assert_eq!(modules[0], ("dna".to_string(), 400));
        assert_eq!(labelled(&e.tiles), [("0".to_string(), 850)]);
        // Links sorted by pJ descending.
        assert_eq!(e.links.rows[0].metric, "0_0.E");
        assert_eq!(e.links.rows[0].value, Value::Count(30));
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
        assert_eq!(r.system.get("total_cycles"), Some(Value::Count(1000)));
        assert_eq!(r.system.get("core_cycles"), Some(Value::Count(500)));
        assert_eq!(r.tiles.len(), 1);
        assert_eq!(r.tiles[0].get("gpe_busy_pct"), Some(Value::Share(250, 500)));
        assert_eq!(
            r.tiles[0].get("gpe_blocked_pct"),
            Some(Value::Share(250, 500))
        );
        // Stall totals descending.
        assert_eq!(
            labelled(&r.stalls),
            [
                ("waiting_mem".to_string(), 180),
                ("dnq_full".to_string(), 70)
            ]
        );
        // Hottest link first.
        assert_eq!(r.links.rows[0].metric, "0_0.E");
        assert_eq!(r.links.rows[0].value, Value::Count(90));
        assert_eq!(r.latency.unwrap().count, 10);
        assert_eq!(r.mems.len(), 1);
        assert_eq!(r.mems[0].name, "mem0");
        let mem: Vec<Value> = r.mems[0].rows.iter().map(|r| r.value).collect();
        let want = [Value::Count(40), Value::Count(4096), Value::Ratio(0.8)];
        assert_eq!(mem, want);
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
