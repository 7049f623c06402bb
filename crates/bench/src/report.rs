//! Post-hoc reports on `--metrics-out` / `--trace-out` files and fault
//! campaigns: the one table model behind `gnna-report`.
//!
//! The simulator dumps raw counters; this module turns them into the
//! paper-style story: per-module utilisation, a per-tile stall-cause
//! breakdown (Fig. 9/10 style), the hottest mesh links rendered as a
//! heat-map, packet-latency quantiles, resilience, energy and host time
//! ([`BottleneckReport`]), the deltas between two runs ([`DiffReport`])
//! and the accuracy and recovery tables of a sweep ([`CampaignReport`]).
//!
//! Each view is built once into a [`Report`]: a list of [`Section`]s of
//! keyed [`Row`]s. Every cell of a row says which rendering prints it
//! ([`Show`]), so a value only the markdown prints (a share, a host
//! phase's total and calls) and a row only the CSV prints (the clock
//! divider, a stall cause of one tile) live in the same rows. A [`Value`]
//! prints the same in both, so one the two print differently (a tile's
//! share of core cycles: three decimals in CSV, a percent in markdown)
//! is two cells, one per rendering. Callers find a section by its name
//! ([`Report::section`]), never by its position.
//! [`Report::to_csv`] prints each row's CSV cells after its section name;
//! [`Report::to_markdown`] prints each section's prose and its rows as a
//! table. Neither knows which view it renders: prose that belongs to one
//! view (headings, "not recorded" notes, headline paragraphs, heat-maps,
//! flip-rate curves, "… N more" caps) is attached to its section when
//! the view is built.
//!
//! Every metric key is built and parsed through the item the writing
//! crate declares (`gnna_core::stats::TILE_KEYS`, `gnna_mem::STATS_KEYS`,
//! `gnna_noc::LINK_BUSY_KEYS`, `gnna_telemetry::profile::PHASE_KEYS`, …),
//! so this module spells no key of its own.

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
use std::cmp::{Ordering, Reverse};
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

// ---------------------------------------------------------------------------
// The table model and its two renderers
// ---------------------------------------------------------------------------

/// A reported value, printed the same way by both renderings. A value
/// the two print differently is two cells, one per rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An exact count.
    Count(u64),
    /// A measurement printed to the given decimals.
    Real(f64, usize),
    /// Text printed as is: a key, a label or a number formatted for one
    /// rendering.
    Text(String),
}

impl Value {
    /// The counted part (a real truncated; 0 for text).
    pub fn count(&self) -> u64 {
        match *self {
            Value::Count(n) => n,
            Value::Real(v, _) => v as u64,
            Value::Text(_) => 0,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Real(v, digits) => write!(f, "{v:.digits$}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Count(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

/// Which rendering prints a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Show {
    /// Both renderings.
    Both,
    /// The markdown table only.
    Markdown,
    /// The CSV only.
    Csv,
}

/// One keyed row: its cells in order, each marked with the rendering
/// that prints it. A row with no markdown cell is CSV-only, one with no
/// CSV cell markdown-only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    cells: Vec<(Show, Value)>,
}

impl Row {
    /// A row keyed by `metric`, the CSV column after the section name.
    fn new(metric: impl Into<String>) -> Self {
        Row::default().csv(metric.into())
    }

    fn cell(mut self, show: Show, v: impl Into<Value>) -> Self {
        self.cells.push((show, v.into()));
        self
    }

    /// Adds a cell both renderings print.
    fn both(self, v: impl Into<Value>) -> Self {
        self.cell(Show::Both, v)
    }

    /// Adds a cell only the markdown prints.
    fn md(self, v: impl Into<Value>) -> Self {
        self.cell(Show::Markdown, v)
    }

    /// Adds a cell only the CSV prints.
    fn csv(self, v: impl Into<Value>) -> Self {
        self.cell(Show::Csv, v)
    }

    /// The cells rendering `by` prints.
    pub fn printed(&self, by: Show) -> impl Iterator<Item = &Value> {
        let cells = self.cells.iter();
        cells.filter_map(move |(show, v)| (*show == Show::Both || *show == by).then_some(v))
    }

    /// Whether rendering `by` prints any cell of the row.
    pub fn shows(&self, by: Show) -> bool {
        self.printed(by).next().is_some()
    }

    /// The CSV key: the first text cell the CSV prints ("" for a
    /// markdown-only row).
    pub fn metric(&self) -> &str {
        let text = self.printed(Show::Csv).find_map(|v| match v {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        });
        text.unwrap_or("")
    }

    /// The first cell that is not text: the row's value.
    pub fn number(&self) -> Option<&Value> {
        let mut cells = self.cells.iter().map(|(_, v)| v);
        cells.find(|v| !matches!(v, Value::Text(_)))
    }
}

/// A list of keyed rows with the markdown that frames them.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// CSV section name, the first column of each of its CSV lines.
    pub name: String,
    /// Rows in CSV order.
    pub rows: Vec<Row>,
    /// Markdown printed before the table: headings, paragraphs, notes.
    before: String,
    /// The markdown table's `|`-separated column names. Empty: no
    /// header, so the rows (if any) continue the table above.
    columns: String,
    /// Markdown printed after the table: heat-maps, curves, caps.
    after: String,
    /// Most rows the markdown table lists.
    limit: usize,
    /// The markdown lists rows by their value, largest first (ties keep
    /// their order).
    ranked: bool,
    /// The markdown prints the whole section as one table row: each
    /// row's markdown cells in order.
    inline: bool,
}

impl Section {
    fn new(name: impl Into<String>) -> Self {
        Section {
            name: name.into(),
            rows: Vec::new(),
            before: String::new(),
            columns: String::new(),
            after: String::new(),
            limit: usize::MAX,
            ranked: false,
            inline: false,
        }
    }

    /// A markdown-only section: prose and, optionally, a table header.
    fn prose(before: impl Into<String>, columns: &str) -> Self {
        Section {
            before: before.into(),
            columns: columns.to_string(),
            ..Section::new("")
        }
    }

    fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The value of the row keyed `metric`.
    pub fn get(&self, metric: &str) -> Option<&Value> {
        let row = self.rows.iter().find(|r| r.metric() == metric);
        row.and_then(Row::number)
    }
}

/// One rendered view: sections in order, printed as markdown or CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The CSV header line.
    csv_header: &'static str,
    /// The sections, in both renderings' order.
    pub sections: Vec<Section>,
}

impl Report {
    /// The first section named `name`.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Number of CSV lines the sections named `name` print.
    pub fn csv_rows(&self, name: &str) -> usize {
        let sections = self.sections.iter().filter(|s| s.name == name);
        let rows = sections.flat_map(|s| &s.rows);
        rows.filter(|r| r.shows(Show::Csv)).count()
    }

    /// The markdown rendering: each section's prose and table.
    pub fn to_markdown(&self) -> String {
        let mut o = String::new();
        for s in &self.sections {
            o.push_str(&s.before);
            if !s.columns.is_empty() {
                let columns: Vec<&str> = s.columns.split('|').collect();
                md_row(&mut o, &columns);
                o.push('|');
                o.push_str(&"---|".repeat(columns.len()));
                o.push('\n');
            }
            let mut rows: Vec<&Row> = s.rows.iter().filter(|r| r.shows(Show::Markdown)).collect();
            if s.ranked {
                rows.sort_by_key(|r| Reverse(r.number().map_or(0, Value::count)));
            }
            let cells = rows.into_iter().take(s.limit).map(|r| {
                r.printed(Show::Markdown)
                    .map(Value::to_string)
                    .collect::<Vec<_>>()
            });
            if s.inline {
                let row: Vec<String> = cells.flatten().collect();
                if !row.is_empty() {
                    md_row(&mut o, &row);
                }
            } else {
                for c in cells {
                    md_row(&mut o, &c);
                }
            }
            o.push_str(&s.after);
        }
        o
    }

    /// The CSV rendering: the header, then one line per row with CSV
    /// cells, prefixed by its section name.
    pub fn to_csv(&self) -> String {
        let mut o = format!("{}\n", self.csv_header);
        for s in &self.sections {
            for r in &s.rows {
                let cells: Vec<String> = r.printed(Show::Csv).map(Value::to_string).collect();
                if !cells.is_empty() {
                    let _ = writeln!(o, "{},{}", s.name, cells.join(","));
                }
            }
        }
        o
    }
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

/// A `## title` heading between blank lines.
fn heading(title: &str) -> String {
    format!("\n## {title}\n\n")
}

/// An italic one-line note.
fn note(text: &str) -> String {
    format!("_{text}_\n")
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

/// Fills `s` as a markdown share table under `columns`: each of `rows`
/// (key cells, value) gets its value, its share of `total` and a `#` bar
/// of one glyph per 4% (capped at 100%, so a share inflated by an
/// inconsistent dump stays one line), then a markdown `**total**` row.
fn share_table(s: &mut Section, columns: &str, rows: Vec<(Row, u64)>, total: u64) {
    s.columns = columns.to_string();
    for (row, v) in rows {
        let share = pct(v, total);
        let bar = "#".repeat((share.min(100.0) / 4.0).round() as usize);
        s.push(
            row.both(v)
                .md(format!("{share:.1}%"))
                .md(format!("`{bar}`")),
        );
    }
    s.push(Row::default().md("**total**").md(total).md("100.0%").md(""));
}

// ---------------------------------------------------------------------------
// The bottleneck view of one run
// ---------------------------------------------------------------------------

/// Largest mesh side the heat-maps draw. Link cells at a coordinate
/// past it come from a damaged or hostile dump and are left out of the
/// grid (the link tables still list them).
const MAX_MESH_DIM: usize = 256;

/// ASCII heat-map of per-link values: one glyph per router `(x, y)`,
/// darker glyph = larger summed value; `unit` names the quantity in the
/// legend line. Empty string when no link is on the grid.
fn ascii_heatmap(links: &[(String, u64)], unit: &str) -> String {
    let cells: Vec<_> = links
        .iter()
        .filter_map(|(id, v)| {
            let (x, y, _) = parse_link_id(id)?;
            (x < MAX_MESH_DIM && y < MAX_MESH_DIM).then_some((x, y, *v))
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

/// Per-link values of `family` as `(link id, value)`, largest first,
/// then by y, x and direction.
fn link_loads(snap: &MetricsSnapshot, family: &KeyFamily) -> Vec<(String, u64)> {
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
    let ids = links.into_iter();
    ids.map(|(v, y, x, dir)| (link_id(x, y, &dir), v)).collect()
}

/// `(x,y)` router label and direction of a [`link_id`].
fn router(id: &str) -> (String, String) {
    parse_link_id(id).map_or_else(
        || (id.to_string(), String::new()),
        |(x, y, dir)| (format!("({x},{y})"), dir.to_string()),
    )
}

/// A link's row: its id in CSV, its router and direction in markdown.
fn link_row(id: &str) -> Row {
    let (at, dir) = router(id);
    Row::new(id).md(at).md(dir)
}

/// `system`: total, config and core cycles (the headline rows both
/// renderings list), the clock divider (CSV), then the clocks and the
/// latency (markdown).
fn system(snap: &MetricsSnapshot) -> Section {
    let count = |key: &str| snap.counter(key).unwrap_or(0);
    let total = count(TOTAL_CYCLES_KEY);
    let divider = snap.counter(CLOCK_DIVIDER_KEY).unwrap_or(1).max(1);
    let mut s = Section::new("system");
    s.before = format!("# gnna bottleneck report\n{}", heading("System"));
    s.columns = "metric|value".into();
    s.push(
        Row::new("total_cycles")
            .md("total cycles (NoC clock)")
            .both(total),
    );
    let config = count(CONFIG_CYCLES_KEY);
    s.push(Row::new("config_cycles").md("config cycles").both(config));
    s.push(Row::new("clock_divider").csv(divider));
    let core = format!("core cycles (divider {divider})");
    s.push(Row::new("core_cycles").md(core).both(total / divider));
    let hz = |key: &str| snap.number(key).unwrap_or(0.0);
    let (core_hz, noc_hz) = (hz(CORE_CLOCK_HZ_KEY), hz(NOC_CLOCK_HZ_KEY));
    let clocks = format!(
        "core {:.2} GHz / NoC {:.2} GHz",
        core_hz / 1e9,
        noc_hz / 1e9
    );
    s.push(Row::default().md("clocks").md(clocks));
    if noc_hz > 0.0 {
        let ms = total as f64 / noc_hz * 1e3;
        s.push(Row::default().md("latency").md(format!("{ms:.3} ms")));
    }
    s
}

/// The utilisation columns of a tile section as `(metric, label)`: GPE
/// busy (op + switch), GPE blocked (idle + stall), AGG busy and DNA busy
/// cycles, each a share of core cycles.
const UTILISATION: [(&str, &str); 4] = [
    ("gpe_busy_pct", "GPE busy"),
    ("gpe_blocked_pct", "GPE blocked"),
    ("agg_busy_pct", "AGG busy"),
    ("dna_busy_pct", "DNA busy"),
];

/// Adds `part` of `whole` cycles as a percentage: three decimals in CSV
/// (a zero whole read as one), one in markdown (0 for a zero whole).
fn share_cells(row: Row, part: u64, whole: u64) -> Row {
    let csv = 100.0 * part as f64 / whole.max(1) as f64;
    row.csv(Value::Real(csv, 3))
        .md(format!("{:.1}%", pct(part, whole)))
}

/// `tile{i}`, one markdown row of the utilisation table each: the
/// [`UTILISATION`] shares of `core` cycles, then (CSV only) the blocked
/// cycles per stall cause; and the markdown `**mean**` row under them,
/// each share's mean over the tiles. Walks tile indices until one has no
/// first counter (GPE op cycles).
fn tiles(snap: &MetricsSnapshot, core: u64) -> (Vec<Section>, Section) {
    let first = TileCounters::default().fields()[0].0;
    let mut tiles = Vec::new();
    let mut sums = [0u64; UTILISATION.len()];
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
            if STALL_KEYS.id(name).is_some() {
                causes.push((name, v));
            }
        }
        causes.sort();
        let mut s = Section::new(TILE_KEYS.scope(i));
        s.inline = true;
        s.push(Row::default().md(i.to_string()));
        let parts = [
            c.gpe_op_cycles.saturating_add(c.gpe_switch_cycles),
            c.gpe_idle_cycles.saturating_add(c.gpe_stall_cycles),
            c.agg_busy_cycles,
            c.dna_busy_cycles,
        ];
        for (((metric, _), part), sum) in UTILISATION.into_iter().zip(parts).zip(&mut sums) {
            *sum = sum.saturating_add(part);
            s.push(share_cells(Row::new(metric), part, core));
        }
        for (name, v) in causes {
            s.push(Row::new(name).csv(v));
        }
        tiles.push(s);
    }
    let mut mean = Section::new("");
    let n = tiles.len() as u64;
    if n > 0 {
        let row = Row::default().md("**mean**");
        let share = |sum: u64| format!("{:.1}%", pct(sum / n, core));
        mean.push(sums.into_iter().fold(row, |row, sum| row.md(share(sum))));
    }
    (tiles, mean)
}

/// `stalls`: blocked cycles per cause summed over the tiles' rows,
/// largest first, as a share table.
fn stalls(tiles: &[Section]) -> Section {
    let mut by_cause: BTreeMap<&str, u64> = BTreeMap::new();
    for r in tiles.iter().flat_map(|t| &t.rows) {
        if let Some(cause) = STALL_KEYS.id(r.metric()) {
            add(&mut by_cause, cause, r.number().map_or(0, Value::count));
        }
    }
    let blocked = by_cause.values().fold(0, |a: u64, v| a.saturating_add(*v));
    let mut by_cycles: Vec<_> = by_cause.into_iter().collect();
    by_cycles.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let rows = by_cycles.into_iter();
    let rows = rows
        .map(|(cause, v)| (Row::default().both(cause), v))
        .collect();
    let mut s = Section::new("stalls");
    s.before = heading("Stall breakdown (blocked GPE cycles by cause)");
    share_table(&mut s, "cause|cycles|share|", rows, blocked);
    s
}

/// `noc.link` (busy cycles per mesh link, the `top_k` hottest in
/// markdown, with their utilisation of `total` cycles and a heat-map)
/// and `noc` (packet latency and hop-count quantiles; count, mean and
/// max in the markdown line).
fn noc(snap: &MetricsSnapshot, total: u64, top_k: usize) -> [Section; 2] {
    let links = link_loads(snap, &gnna_noc::LINK_BUSY_KEYS);
    let mut busy = Section::new("noc.link");
    busy.before = heading("NoC");
    if links.is_empty() {
        busy.before += &note(
            "No per-link counters in this metrics file (run with an \
             event-level trace to collect them).",
        );
    } else {
        let _ = write!(busy.before, "Top {top_k} hottest links:\n\n");
        busy.columns = "router|dir|busy cycles|link util".into();
        busy.limit = top_k;
        busy.after = format!(
            "\nRouter heat-map (total outgoing link traffic):\n\n```\n{}```\n",
            ascii_heatmap(&links, "busy cycles")
        );
    }
    for (id, v) in &links {
        let util = format!("{:.1}%", pct(*v, total));
        busy.push(link_row(id).both(*v).md(util));
    }
    let mut packets = Section::new("noc");
    for (name, title, key) in [
        ("latency", "packet latency", gnna_noc::PACKET_LATENCY_KEY),
        ("hops", "packet hops", gnna_noc::PACKET_HOPS_KEY),
    ] {
        let Some(h) = snap.histogram(key) else {
            continue;
        };
        packets.push(Row::new(format!("{name}.count")).csv(h.count));
        for (q, v) in [
            ("p50", h.p50),
            ("p95", h.p95),
            ("p99", h.p99),
            ("p999", h.p999),
        ] {
            packets.push(Row::new(format!("{name}.{q}")).csv(Value::Real(v, 3)));
        }
        let _ = writeln!(
            packets.after,
            "\n{title} ({} packets): p50 {:.0}, p95 {:.0}, p99 {:.0}, \
             p99.9 {:.0}, mean {:.1}, max {:.0} cycles",
            h.count, h.p50, h.p95, h.p99, h.p999, h.mean, h.max
        );
    }
    if packets.rows.is_empty() {
        packets.after = format!(
            "\n{}",
            note("Packet latency/hop histograms not recorded in this metrics file.")
        );
    }
    [busy, packets]
}

/// `mem{i}`, one markdown row each: requests, DRAM bytes and efficiency
/// per controller, under their header. Walks controller indices until
/// one has no counters.
fn mems(snap: &MetricsSnapshot) -> Vec<Section> {
    let mut mems = vec![Section::prose(heading("Memory controllers"), "")];
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
        let eff = eff.unwrap_or(0.0);
        let mut s = Section::new(gnna_mem::STATS_KEYS.scope(i));
        s.inline = true;
        s.push(Row::default().md(s.name.clone()));
        s.push(Row::new("requests").both(m.requests));
        s.push(Row::new("dram_bytes").both(m.dram_bytes));
        let row = Row::new(gnna_mem::EFFICIENCY).csv(Value::Real(eff, 4));
        s.push(row.md(format!("{:.1}%", eff * 100.0)));
        mems.push(s);
    }
    if mems.len() == 1 {
        mems[0].before += &note("Memory-controller counters not recorded in this metrics file.");
    } else {
        mems[0].columns = format!("ctrl|requests|DRAM bytes|{}", gnna_mem::EFFICIENCY);
    }
    mems
}

/// Whether the markdown resilience table has a column for fault
/// counter `name`: silent corruptions and rollbacks close the partition
/// line instead, named only when present.
fn fault_column(name: &str) -> bool {
    !matches!(name, "sdc" | "rolled_back")
}

/// `resilience`, one section and markdown row per fault site in site
/// order: `{site}.{counter}` over every fault counter. Empty when the
/// run had no fault plan (the family is only emitted under injection).
fn fault_sites(snap: &MetricsSnapshot) -> Vec<Section> {
    let mut sites: BTreeMap<&str, FaultCounters> = BTreeMap::new();
    for name in snap.names() {
        let (Some((site, counter)), Some(v)) = (FAULT_KEYS.split(name), snap.counter(name)) else {
            continue;
        };
        let entry = sites.entry(site).or_default();
        if let Some((_, slot)) = entry.fields_mut().into_iter().find(|(n, _)| *n == counter) {
            *slot = v;
        }
    }
    let sites = sites.into_iter().map(|(site, f)| {
        let mut s = Section::new("resilience");
        s.inline = true;
        s.push(Row::default().md(site));
        for (counter, v) in f.fields() {
            let row = Row::new(format!("{site}.{counter}"));
            s.push(if fault_column(counter) {
                row.both(v)
            } else {
                row.csv(v)
            });
        }
        s
    });
    sites.collect()
}

/// The resilience table: its header, the site rows, then the markdown
/// `**total**` row and the fault-partition check, which reads the site
/// rows (the dump comes from outside, so the partition may not hold).
fn resilience(snap: &MetricsSnapshot) -> Vec<Section> {
    let sites = fault_sites(snap);
    if sites.is_empty() {
        let none = note(
            "Fault counters not recorded in this metrics file \
             (fault-free run; use `gnna-sim --fault-rate` to inject \
             faults).",
        );
        return vec![Section::prose(heading("Resilience") + &none, "")];
    }
    let columns = "site|injected|corrected|retried|unrecoverable|corrupted|dropped|retry cycles";
    let mut out = vec![Section::prose(heading("Resilience"), columns)];
    let mut total = FaultCounters::default();
    for r in sites.iter().flat_map(|s| &s.rows) {
        let Some((_, counter)) = r.metric().rsplit_once('.') else {
            continue;
        };
        if let Some((_, slot)) = total.fields_mut().into_iter().find(|(n, _)| *n == counter) {
            *slot = slot.saturating_add(r.number().map_or(0, Value::count));
        }
    }
    out.extend(sites);
    let mut row = Row::default().md("**total**");
    for (counter, v) in total.fields() {
        if fault_column(counter) {
            row = row.md(v);
        }
    }
    let mut closing = Section::new("");
    closing.push(row);
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
        closing.after,
        "\nPartition check: injected ({}) == {terms} — {verdict}.",
        total.injected
    );
    if total.unrecoverable > 0 {
        let _ = writeln!(
            closing.after,
            "\n**{} unrecoverable fault(s)** — the run ended with a \
             structured fault error; cycle counts cover the partial \
             run only.",
            total.unrecoverable
        );
    }
    out.push(closing);
    out
}

/// The energy attribution of an event-level traced run, in integer
/// picojoules: `energy` per module class (the `dna`/`agg`/`sram`/`gpe`
/// tile sites, `dram`, `noc`, and `checkpoint` under rollback) as a
/// share table under the run total, `energy` per tile (a markdown table
/// only for more than one tile), `energy.link` per link (the `top_k`
/// hottest in markdown, with a heat-map) and `energy` per layer. The
/// module, tile and layer families each sum exactly to the total.
fn energy(snap: &MetricsSnapshot, top_k: usize) -> Option<[Section; 4]> {
    let total_pj = snap.counter(TOTAL_ENERGY_KEY)?;
    let share = |pj: u64| format!("{:.1}%", pct(pj, total_pj));
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
        let row = Row::new(TILE_KEYS.scope(i) + "_pj").md(i.to_string());
        tiles.push(row.both(pj).md(share(pj)));
    }
    if tiles.rows.len() > 1 {
        tiles.before = "\nPer-tile energy (on-tile sites only):\n\n".into();
        tiles.columns = "tile|energy (pJ)|share of total".into();
    } else {
        tiles.limit = 0;
    }
    for i in 0.. {
        let Some(pj) = snap.counter(&gnna_mem::ENERGY_KEYS.key(i)) else {
            break;
        };
        add(&mut modules, gnna_mem::DRAM_ENERGY_SITE, pj);
    }
    let link_pj = link_loads(snap, &gnna_noc::LINK_ENERGY_KEYS);
    let mut links = Section::new("energy.link");
    for (id, pj) in &link_pj {
        add(&mut modules, gnna_noc::NOC_ENERGY_SITE, *pj);
        links.push(link_row(id).both(*pj));
    }
    if !link_pj.is_empty() {
        links.before = format!("\nTop {top_k} NoC energy hot spots:\n\n");
        links.columns = "router|dir|energy (pJ)".into();
        links.limit = top_k;
        links.after = format!(
            "\nEnergy heat-map (outgoing link energy per router):\n\n```\n{}```\n",
            ascii_heatmap(&link_pj, "pJ")
        );
    }
    if let Some(pj) = snap.counter(&SYSTEM_ENERGY_KEYS.key(CHECKPOINT_SITE)) {
        add(&mut modules, CHECKPOINT_SITE, pj);
    }
    let mut by_pj: Vec<_> = modules.into_iter().collect();
    by_pj.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut totals = Section::new("energy");
    totals.before = format!(
        "{}Total attributed energy: **{total_pj} pJ** ({:.3} µJ).\n\n",
        heading("Energy"),
        total_pj as f64 / 1e6
    );
    totals.push(Row::new("total_pj").csv(total_pj));
    let rows = by_pj.into_iter();
    let rows = rows.map(|(site, pj)| (Row::new(format!("module.{site}_pj")).md(site), pj));
    share_table(
        &mut totals,
        "module|energy (pJ)|share|",
        rows.collect(),
        total_pj,
    );
    let mut layers = Section::new("energy");
    for k in 0.. {
        let Some(pj) = snap.counter(&LAYER_ENERGY_KEYS.key(k)) else {
            break;
        };
        let row = Row::new(format!("layer{k}_pj")).md(k.to_string());
        layers.push(row.both(pj).md(share(pj)));
    }
    if !layers.rows.is_empty() {
        layers.before = "\nPer-layer energy:\n\n".into();
        layers.columns = "layer|energy (pJ)|share".into();
    }
    Some([totals, tiles, links, layers])
}

/// `host` (wall time, compute cycles and cycles/sec under the headline
/// paragraph) and `host.profile` (one row per phase path: self time, and
/// in markdown its share of wall time, total time and calls), when the
/// run was profiled (`gnna-sim --profile-out` or `--profile-json`). The
/// markdown lists the `top_k` (at least 16) phases by self time; the CSV
/// lists every phase in path order, so diffs of it do not flap when
/// near-equal phases swap.
fn host(snap: &MetricsSnapshot, top_k: usize) -> Vec<Section> {
    let mut phases: BTreeMap<&str, [u64; 3]> = BTreeMap::new();
    for (key, v) in snap.scalars() {
        // Run-level gauges have no phase path and are read below.
        let Some((field, path)) = PHASE_KEYS.split(key) else {
            continue;
        };
        let times = phases.entry(path).or_default();
        match field {
            SELF_NS => times[0] = v as u64,
            TOTAL_NS => times[1] = v as u64,
            CALLS => times[2] = v as u64,
            _ => {}
        }
    }
    let gauge = |name: &str| snap.number(&PROFILE_KEYS.key(name));
    let wall_ns = gauge(WALL_NS);
    if phases.is_empty() && wall_ns.is_none() {
        return Vec::new();
    }
    let wall_ns = wall_ns.unwrap_or(0.0) as u64;
    let gauge = |name: &str| gauge(name).unwrap_or(0.0);
    let cycles = gauge(CYCLES_TOTAL) as u64;
    let mut run = Section::new("host");
    run.before = format!(
        "{}Wall clock {:.3} s for {cycles} compute cycles — **{:.0} cycles/sec** \
         (hot loop sampled 1 in {}, {} cycles timed).\n\n",
        heading("Host profile"),
        wall_ns as f64 / 1e9,
        gauge(CYCLES_PER_SEC),
        (gauge(SAMPLE_EVERY) as u64).max(1),
        gauge(CYCLES_SAMPLED) as u64
    );
    run.push(Row::new(WALL_NS).csv(wall_ns));
    run.push(Row::new(CYCLES_TOTAL).csv(cycles));
    run.push(Row::new(CYCLES_PER_SEC).csv(Value::Real(gauge(CYCLES_PER_SEC), 1)));
    let mut table = Section::new("host.profile");
    table.columns = "phase|self (ms)|self %|total (ms)|calls".into();
    table.ranked = true;
    table.limit = top_k.max(16);
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    for (path, [self_ns, total_ns, calls]) in &phases {
        let share = format!("{:.1}%", pct(*self_ns, wall_ns.max(1)));
        let row = Row::new(format!("{path}.{SELF_NS}"))
            .md(*path)
            .csv(*self_ns);
        table.push(row.md(ms(*self_ns)).md(share).md(ms(*total_ns)).md(*calls));
    }
    if phases.len() > table.limit {
        let (more, shown) = (phases.len() - table.limit, table.limit);
        let text = format!("{more} more phase(s) below the top {shown} by self time.");
        table.after = format!("\n{}", note(&text));
    }
    vec![run, table]
}

/// `trace`: event, track and process counts of a `--trace-out` file;
/// the markdown adds the last timestamp and the `top_k` busiest spans.
fn trace_section(t: &TraceSummary, top_k: usize) -> Section {
    let mut s = Section::new("trace");
    s.before = format!(
        "{}{} events across {} tracks in {} processes; last timestamp {:.0} µs.\n",
        heading("Trace inventory"),
        t.events,
        t.tracks,
        t.processes,
        t.last_ts
    );
    s.push(Row::new("events").csv(t.events));
    s.push(Row::new("tracks").csv(t.tracks));
    s.push(Row::new("processes").csv(t.processes));
    let mut spans: Vec<_> = t.span_begins.iter().collect();
    spans.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    if !spans.is_empty() {
        s.before.push('\n');
        s.columns = "span|count".into();
        s.limit = top_k;
    }
    for (name, count) in spans {
        s.push(Row::default().md(name.as_str()).md(*count));
    }
    s
}

/// The bottleneck report of one run (`gnna-report --metrics`).
#[derive(Debug)]
pub struct BottleneckReport;

impl BottleneckReport {
    /// The report's sections, built from a parsed metrics snapshot and
    /// an optional trace summary. The markdown link, hot-spot and span
    /// tables list the `top_k` largest rows.
    pub fn build(snap: &MetricsSnapshot, trace: Option<TraceSummary>, top_k: usize) -> Report {
        let system = system(snap);
        let total = system.get("total_cycles").map_or(0, Value::count);
        let core = system.get("core_cycles").map_or(0, Value::count);
        let (tiles, mean) = tiles(snap, core);
        let columns = UTILISATION.map(|(_, label)| label).join("|");
        let title = heading("Module utilisation (of core cycles)");
        let mut sections = vec![system, Section::prose(title, &format!("tile|{columns}"))];
        let stalls = stalls(&tiles);
        sections.extend(tiles);
        sections.extend([mean, stalls]);
        sections.extend(noc(snap, total, top_k));
        sections.extend(mems(snap));
        sections.extend(resilience(snap));
        match energy(snap, top_k) {
            Some(energy) => sections.extend(energy),
            None => sections.push(Section::prose(
                format!(
                    "\n{}",
                    note(
                        "Energy attribution not recorded in this metrics file \
                         (run with an event-level trace to collect it)."
                    )
                ),
                "",
            )),
        }
        sections.extend(host(snap, top_k));
        sections.extend(trace.map(|t| trace_section(&t, top_k)));
        Report {
            csv_header: "section,metric,value",
            sections,
        }
    }
}

// ---------------------------------------------------------------------------
// The differential view of two runs
// ---------------------------------------------------------------------------

/// One compared metric: its name and its value in runs A and B (`None`
/// where that run's dump lacks it).
type Delta = (String, Option<f64>, Option<f64>);

/// One run's values of a compared section, by name.
type Keyed = Vec<(String, f64)>;

/// The sections a diff compares as `(markdown title, CSV section)`, in
/// order; only the link table is capped at the top k.
const COMPARED: [(&str, &str); 5] = [
    ("System", "system"),
    ("Stall cycles by cause", "stalls"),
    ("NoC link busy cycles", "noc.link"),
    ("Energy (pJ)", "energy"),
    ("Resilience fault counters", "resilience"),
];

/// `(name, value)` of each keyed row of `rows`, renamed by `key`.
fn keyed<'a>(rows: impl IntoIterator<Item = &'a Row>, key: impl Fn(&str) -> String) -> Keyed {
    let rows = rows.into_iter().filter(|r| !r.metric().is_empty());
    let rows = rows.filter_map(|r| Some((key(r.metric()), r.number()?.count() as f64)));
    rows.collect()
}

/// The values of one run a [`DiffReport`] compares, per [`COMPARED`]
/// section: the headline system rows and the tile count, stall causes,
/// link loads, energy totals and fault counters.
fn compared(snap: &MetricsSnapshot) -> [Keyed; 5] {
    let system = system(snap);
    let both = |r: &&Row| r.shows(Show::Markdown) && r.shows(Show::Csv);
    let mut headline = keyed(system.rows.iter().filter(both), str::to_string);
    let (tiles, _) = tiles(snap, 0);
    headline.push(("tiles".to_string(), tiles.len() as f64));
    let links = link_loads(snap, &gnna_noc::LINK_BUSY_KEYS).into_iter();
    let links = links.map(|(id, v)| {
        let (at, dir) = router(&id);
        (format!("{at} {dir}"), v as f64)
    });
    let energy = energy(snap, 0).map_or_else(Vec::new, |[modules, _, _, layers]| {
        let rows = modules
            .rows
            .into_iter()
            .chain(layers.rows)
            .collect::<Vec<_>>();
        keyed(&rows, |m| m.strip_suffix("_pj").unwrap_or(m).to_string())
    });
    let faults = fault_sites(snap);
    let faults = keyed(faults.iter().flat_map(|s| &s.rows), str::to_string);
    let stalls = keyed(&stalls(&tiles).rows, str::to_string);
    [headline, stalls, links.collect(), energy, faults]
}

/// Delta rows over the union of two runs' keyed values, by |Δ|
/// descending, rows missing a side last, then by name.
fn union_deltas(a: Keyed, b: Keyed) -> Vec<Delta> {
    let (a, b): (BTreeMap<_, _>, BTreeMap<_, _>) =
        (a.into_iter().collect(), b.into_iter().collect());
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let mut rows: Vec<Delta> = keys
        .into_iter()
        .map(|k| (k.clone(), a.get(k).copied(), b.get(k).copied()))
        .collect();
    let mag = |r: &Delta| Some((r.2? - r.1?).abs());
    rows.sort_by(|x, y| {
        match (mag(x), mag(y)) {
            (Some(a), Some(b)) => b.partial_cmp(&a).unwrap_or(Ordering::Equal),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        }
        .then_with(|| x.0.cmp(&y.0))
    });
    rows
}

/// One compared metric as a row: name, A and B in both renderings, then
/// the signed Δ and Δ% in markdown and the plain Δ in CSV.
fn delta_row((name, a, b): Delta) -> Row {
    let delta = a.zip(b).map(|(a, b)| b - a);
    let pct = a
        .zip(b)
        .and_then(|(a, b)| (a != 0.0).then(|| (b - a) / a * 100.0));
    let row = Row::new(name.replace(',', ";")).md(name);
    let row = row.both(fmt_opt(a)).both(fmt_opt(b));
    row.md(fmt_signed(delta))
        .csv(fmt_opt(delta))
        .md(fmt_pct(pct))
}

/// A differential report comparing two metrics dumps (`gnna-report
/// --diff A B`): per-section deltas for cycles, stalls, link traffic,
/// energy and fault counters, plus the metric names present in only one
/// of the two dumps (`coverage`). When the runs agree on every compared
/// row and every metric name, the report holds a markdown-only
/// `identical` section that says so.
#[derive(Debug)]
pub struct DiffReport;

impl DiffReport {
    /// The report's sections, comparing run A's snapshot with run B's.
    /// The markdown link table lists the `top_k` largest deltas and the
    /// coverage lists the first `top_k` names per side.
    pub fn build(
        a: &MetricsSnapshot,
        b: &MetricsSnapshot,
        label_a: &str,
        label_b: &str,
        top_k: usize,
    ) -> Report {
        let ([head_a, rest_a @ ..], [head_b, rest_b @ ..]) = (compared(a), compared(b));
        let rest = rest_a.into_iter().zip(rest_b);
        let rest: Vec<Vec<Delta>> = rest.map(|(a, b)| union_deltas(a, b)).collect();
        let mut names = COMPARED[1..].iter().map(|(_, name)| *name);
        let energy = names.position(|name| name == "energy").map(|i| &rest[i]);
        let total = energy.and_then(|rows| rows.iter().find(|r| r.0 == "total"));
        let (ea, eb) = total.map_or((None, None), |r| (r.1, r.2));
        let system = head_a.into_iter().zip(head_b);
        let mut system: Vec<Delta> = system
            .map(|((name, va), (_, vb))| (name, Some(va), Some(vb)))
            .collect();
        system.push(("energy_total_pj".to_string(), ea, eb));
        let families: Vec<Vec<Delta>> = std::iter::once(system).chain(rest).collect();
        let only = |x: &'_ MetricsSnapshot, y: &MetricsSnapshot| -> Vec<String> {
            let names = x.names().filter(|n| y.get_value(n).is_none());
            names.map(str::to_string).collect()
        };
        let (only_a, only_b) = (only(a, b), only(b, a));
        let same = |rows: &[Delta]| rows.iter().all(|r| r.1 == r.2);
        let identical =
            only_a.is_empty() && only_b.is_empty() && families.iter().all(|rows| same(rows));
        let mut sections = vec![Section::prose(
            format!(
                "# gnna differential report\n\n\
                 Comparing **A** = `{label_a}` → **B** = `{label_b}`. Δ = B − A.\n\n"
            ),
            "",
        )];
        if identical {
            let mut s = Section::new("identical");
            s.before = note("The two runs are identical (all deltas zero).") + "\n";
            sections.push(s);
        }
        for ((title, name), rows) in COMPARED.into_iter().zip(families) {
            let mut s = Section::new(name);
            if !rows.is_empty() {
                s.before = format!("## {title}\n\n");
                s.columns = "metric|A|B|Δ|Δ%".into();
                if name == "noc.link" && rows.len() > top_k {
                    s.limit = top_k;
                    let more = format!("… {} more", rows.len() - top_k);
                    md_row(&mut s.after, &[more.as_str(), "", "", "", ""]);
                }
                s.after.push('\n');
            }
            s.rows = rows.into_iter().map(delta_row).collect();
            sections.push(s);
        }
        let mut coverage = Section::new("coverage");
        if !only_a.is_empty() || !only_b.is_empty() {
            coverage.before = "## Coverage\n\n".into();
        }
        for (label, names) in [("A", &only_a), ("B", &only_b)] {
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
                coverage.before,
                "- only in {label} ({} metrics): `{}`{more}",
                names.len(),
                shown.join("`, `")
            );
        }
        for (side, names) in [("only_a", only_a), ("only_b", only_b)] {
            for n in names {
                let row = Row::new(format!("{side}.{}", n.replace(',', ";")));
                coverage.push(row.csv("").csv("").csv(""));
            }
        }
        sections.push(coverage);
        Report {
            csv_header: "section,metric,a,b,delta",
            sections,
        }
    }
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

/// Sort key for a non-negative f64 (rates are validated into [0, 1]).
fn rate_key(rate: f64) -> u64 {
    rate.to_bits()
}

/// ASCII flip-rate-vs-rate curve for one mode, one line per swept rate:
/// `points` maps a rate's [`rate_key`] to the sum and number of the
/// group flip rates at it. Empty when the mode has no groups.
fn flip_curve(mode: &str, axis: &str, points: &BTreeMap<u64, (f64, u64)>) -> String {
    const WIDTH: usize = 40;
    if points.is_empty() {
        return String::new();
    }
    let points: Vec<(f64, f64)> = points
        .iter()
        .map(|(bits, (sum, n))| (f64::from_bits(*bits), sum / *n as f64))
        .collect();
    let peak = points.iter().map(|&(_, f)| f).fold(0.0, f64::max);
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

/// The `## Fault campaigns` tables of a `gnna-campaign` sweep.
#[derive(Debug)]
pub struct CampaignReport;

impl CampaignReport {
    /// The report's sections over `records`: `accuracy` (one row per
    /// `(benchmark, mode, rate)` group averaged over seeds, the one
    /// table the CSV prints, with the flip-rate curves under it), then
    /// the markdown-only `slowdown` (degraded mode), `sdc` (rate per
    /// site) and `recovery` (cost of rollback cells) tables.
    pub fn build(records: &[CampaignRecord]) -> Report {
        // Physically calibrated campaigns sweep FIT (failures per 10⁹
        // device-hours), legacy ones raw per-event probabilities.
        let fit = records.iter().any(|r| r.rate_unit == "fit");
        let (rate, axis) = if fit {
            ("rate (FIT)", "fault rate (FIT)")
        } else {
            ("rate", "fault rate")
        };
        let mut accuracy = Section::new("accuracy");
        accuracy.before = format!(
            "## Fault campaigns\n\n{} cells ({} unrecoverable).\n\n### Accuracy vs fault rate\n\n",
            records.len(),
            records.iter().filter(|r| r.status != "ok").count()
        );
        accuracy.columns = format!(
            "benchmark|mode|{rate}|cells|unrec|flip rate|mean rel err|max rel err|non-finite"
        );
        // (benchmark, mode, rate) → member records.
        let mut groups: BTreeMap<(String, String, u64), Vec<&CampaignRecord>> = BTreeMap::new();
        for r in records {
            let key = (r.benchmark(), r.mode_label(), rate_key(r.rate));
            groups.entry(key).or_default().push(r);
        }
        let mut curves: BTreeMap<&str, BTreeMap<u64, (f64, u64)>> = BTreeMap::new();
        for ((benchmark, mode, rate_bits), members) in &groups {
            let completed: Vec<_> = members.iter().filter(|r| r.status == "ok").collect();
            let n = completed.len().max(1) as f64;
            let flip_rate = completed.iter().map(|r| r.flip_rate()).sum::<f64>() / n;
            let mean_rel_err = completed.iter().map(|r| r.mean_rel_err).sum::<f64>() / n;
            let max_rel_err = completed.iter().map(|r| r.max_rel_err).fold(0.0, f64::max);
            let nonfinite = completed.iter().map(|r| r.nonfinite as f64).sum::<f64>() / n;
            let unrec = (members.len() - completed.len()) as u64;
            let row = Row::default()
                .both(benchmark.as_str())
                .both(mode.as_str())
                .both(json::number(f64::from_bits(*rate_bits)))
                .both(members.len() as u64)
                .both(unrec)
                .md(format!("{:.2}%", flip_rate * 100.0))
                .csv(json::number(flip_rate))
                .md(format!("{mean_rel_err:.3e}"))
                .csv(json::number(mean_rel_err))
                .md(format!("{max_rel_err:.3e}"))
                .csv(json::number(max_rel_err))
                .md(format!("{nonfinite:.1}"))
                .csv(json::number(nonfinite));
            accuracy.push(row);
            let curve = curves.entry(mode).or_default();
            let point = curve.entry(*rate_bits).or_insert((0.0, 0));
            point.0 += flip_rate;
            point.1 += 1;
        }
        for mode in ["passthrough", "protected"] {
            let curve = flip_curve(mode, axis, curves.get(mode).unwrap_or(&BTreeMap::new()));
            if !curve.is_empty() {
                let _ = writeln!(accuracy.after, "\n```\n{curve}```");
            }
        }

        // Degraded cells matched against the protected cell of the same
        // (benchmark, rate, seed): the mean cycle ratio per (benchmark,
        // rate), with the defects of the last degraded cell seen.
        let mut protected: BTreeMap<(String, u64, u64), u64> = BTreeMap::new();
        for r in records {
            if r.mode == "protected" && r.status == "ok" && r.total_cycles > 0 {
                protected.insert((r.benchmark(), rate_key(r.rate), r.seed), r.total_cycles);
            }
        }
        let mut pairs: BTreeMap<(String, u64), (f64, u64, &CampaignRecord)> = BTreeMap::new();
        for r in records {
            if r.mode != "degraded" || r.status != "ok" {
                continue;
            }
            let Some(&base) = protected.get(&(r.benchmark(), rate_key(r.rate), r.seed)) else {
                continue;
            };
            let e = pairs
                .entry((r.benchmark(), rate_key(r.rate)))
                .or_insert((0.0, 0, r));
            *e = (e.0 + r.total_cycles as f64 / base as f64, e.1 + 1, r);
        }
        let mut slowdown = Section::new("slowdown");
        slowdown.before = "\n### Degraded-mode slowdown\n\n".into();
        if pairs.is_empty() {
            slowdown.before += &note(
                "No degraded/protected cell pairs in this campaign (sweep \
                 both modes at the same rates and seeds to populate this \
                 table).",
            );
        } else {
            slowdown.columns =
                "benchmark|rate|slowdown|pairs|dead tiles|dead links|remapped vertices".into();
        }
        for ((benchmark, rate_bits), (sum, n, last)) in pairs {
            let row = Row::default()
                .md(benchmark)
                .md(json::number(f64::from_bits(rate_bits)))
                .md(format!("{:.3}×", sum / n as f64))
                .md(n)
                .md(last.dead_tiles)
                .md(last.dead_links)
                .md(last.remapped_vertices);
            slowdown.push(row);
        }

        // SDC rate per site over pass-through cells (protection disabled;
        // the other modes catch these by construction).
        let mut sdc = Section::new("sdc");
        sdc.before = "\n### SDC rate per site (pass-through cells)\n\n".into();
        sdc.columns = "site|injected|sdc|sdc rate".into();
        let passthrough = || records.iter().filter(|r| r.mode == "passthrough");
        let sum =
            |f: fn(&CampaignRecord) -> u64| passthrough().fold(0u64, |a, r| a.saturating_add(f(r)));
        for (site, injected, n) in [
            ("mem", sum(|r| r.mem_injected), sum(|r| r.mem_sdc)),
            ("noc", sum(|r| r.noc_injected), sum(|r| r.noc_sdc)),
        ] {
            let share = format!("{:.1}%", pct(n, injected));
            sdc.push(Row::default().md(site).md(injected).md(n).md(share));
        }

        // Recovery cost over rollback cells, summed per (benchmark,
        // rate): how many rollbacks the group paid, how many cycles it
        // replayed, and what the checkpoint traffic cost in energy.
        let mut groups: BTreeMap<(String, u64), [u64; 6]> = BTreeMap::new();
        for r in records.iter().filter(|r| r.mode == "rollback") {
            let e = groups.entry((r.benchmark(), rate_key(r.rate))).or_default();
            let counts = [
                1,
                u64::from(r.status != "ok"),
                r.checkpoints,
                r.rollbacks,
                r.replayed_cycles,
                r.checkpoint_pj,
            ];
            for (sum, v) in e.iter_mut().zip(counts) {
                *sum = sum.saturating_add(v);
            }
        }
        let mut recovery = Section::new("recovery");
        if !groups.is_empty() {
            recovery.before = "\n### Recovery cost (rollback cells)\n\n".into();
            recovery.columns = format!(
                "benchmark|{rate}|cells|unrec|checkpoints|rollbacks|replayed cycles|checkpoint pJ"
            );
        }
        for ((benchmark, rate_bits), counts) in groups {
            let row = Row::default()
                .md(benchmark)
                .md(json::number(f64::from_bits(rate_bits)));
            recovery.push(counts.into_iter().fold(row, Row::md));
        }
        Report {
            csv_header: "section,benchmark,mode,rate,cells,unrecoverable,flip_rate,mean_rel_err,max_rel_err,nonfinite",
            sections: vec![accuracy, slowdown, sdc, recovery],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(markdown label, value)` of a section's keyed rows the markdown
    /// lists.
    fn labelled(s: &Section) -> Vec<(String, u64)> {
        let keyed = s.rows.iter().filter(|r| !r.metric().is_empty());
        keyed
            .filter_map(|r| {
                let label = r.printed(Show::Markdown).next()?.to_string();
                Some((label, r.number()?.count()))
            })
            .collect()
    }

    /// The report's sections named `name`.
    fn named<'a>(r: &'a Report, name: &str) -> Vec<&'a Section> {
        r.sections.iter().filter(|s| s.name == name).collect()
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
        let r = BottleneckReport::build(&snap, None, 4);
        let sites = named(&r, "resilience");
        // One section per site, in sorted order: mem0, noc, tile0.
        let names: Vec<String> = sites
            .iter()
            .map(|s| {
                s.rows[0]
                    .printed(Show::Markdown)
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(names, ["mem0", "noc", "tile0"]);
        let count = |metric: &str| sites.iter().find_map(|s| s.get(metric)).map(Value::count);
        assert_eq!(count("mem0.injected"), Some(8));
        assert_eq!(count("mem0.retried"), Some(2));
        assert_eq!(count("noc.unrecoverable"), Some(1));
        assert_eq!(count("noc.dropped"), Some(2));
        // Each site's own counters partition its injected faults.
        for (site, s) in names.iter().zip(&sites) {
            let mut f = FaultCounters::default();
            for (counter, slot) in f.fields_mut() {
                *slot = s.get(&format!("{site}.{counter}")).unwrap().count();
            }
            assert!(f.partition_holds(), "{site}: {f:?}");
        }
        let md = r.to_markdown();
        for needle in [
            "## Resilience",
            "| mem0 | 8 | 6 | 2 | 0 | 0 | 0 | 400 |",
            "| noc | 4 | 3 | 0 | 1 | 2 | 2 | 28 |",
            "| tile0 | 5 | 5 | 0 | 0 | 0 | 0 | 160 |",
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
        let md = BottleneckReport::build(&snap, None, 4).to_markdown();
        assert!(md.contains("**VIOLATED**"), "{md}");
    }

    #[test]
    fn fault_free_dump_renders_not_recorded_lines() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None, 4);
        assert!(r.section("resilience").is_none());
        let md = r.to_markdown();
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
        let md = BottleneckReport::build(&snap, None, 4).to_markdown();
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
        let d = DiffReport::build(&a, &b, "A", "B", 8);
        assert!(d.section("identical").is_none());
        let md = d.to_markdown();
        assert!(md.contains("## Resilience fault counters"), "{md}");
        assert!(
            md.contains("| mem0.injected | 8 | 11 | +3 | +37.5% |"),
            "{md}"
        );
        assert!(d.to_csv().contains("resilience,mem0.injected,8,11,3"));
        // Self-diff including faults stays zero.
        let d2 = DiffReport::build(&a, &a, "A", "A", 8);
        assert!(d2.section("identical").is_some());
    }

    #[test]
    fn energy_breakdown_parses_and_conserves() {
        let snap = MetricsSnapshot::parse(&sample_metrics_with_energy()).unwrap();
        let r = BottleneckReport::build(&snap, None, 4);
        let [totals, tiles, layers] = named(&r, "energy")[..] else {
            panic!("three energy sections");
        };
        assert_eq!(totals.get("total_pj"), Some(&Value::Count(1000)));
        // Module family partitions the total exactly.
        let modules = labelled(totals);
        assert_eq!(modules.iter().map(|(_, pj)| pj).sum::<u64>(), 1000);
        // Layer family partitions the total exactly.
        let layers = labelled(layers);
        assert_eq!(layers, [("0".to_string(), 600), ("1".to_string(), 400)]);
        // Modules are sorted descending; dna is the hottest site.
        assert_eq!(modules[0], ("dna".to_string(), 400));
        assert_eq!(labelled(tiles), [("0".to_string(), 850)]);
        // Links sorted by pJ descending.
        let links = r.section("energy.link").unwrap();
        assert_eq!(links.rows[0].metric(), "0_0.E");
        assert_eq!(links.rows[0].number(), Some(&Value::Count(30)));
        let md = r.to_markdown();
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
        let r = BottleneckReport::build(&snap, None, 4);
        assert!(r.section("energy").is_none());
        assert!(!r.to_markdown().contains("## Energy"));
    }

    #[test]
    fn self_diff_is_all_zero() {
        let text = sample_metrics_with_energy();
        let a = MetricsSnapshot::parse(&text).unwrap();
        let b = MetricsSnapshot::parse(&text).unwrap();
        let d = DiffReport::build(&a, &b, "a.json", "b.json", 8);
        assert!(
            d.section("identical").is_some(),
            "self-diff must be zero: {d:?}"
        );
        let md = d.to_markdown();
        assert!(md.contains("identical (all deltas zero)"), "{md}");
        // Every rendered delta column is 0 or absent.
        for line in d.to_csv().lines().skip(1) {
            let delta = line.rsplit(',').next().unwrap();
            assert!(delta == "0" || delta == "—", "{line}");
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
        let d = DiffReport::build(&a, &b2, "A", "B", 8);
        assert!(d.section("identical").is_none());
        assert_eq!(fmt_signed(Some(-100.0)), "-100");
        assert_eq!(fmt_pct(Some(-10.0)), "-10.0%");
        let md = d.to_markdown();
        // Energy exists only in B: the energy row has no A side, and the
        // raw counters land in only_b.
        for needle in [
            "# gnna differential report",
            "| total_cycles | 1000 | 900 | -100 | -10.0% |",
            "| total | — | 1000 | — | — |",
            "only in B",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
        assert!(!md.contains("only in A"), "{md}");
        let csv = d.to_csv();
        assert!(csv.contains("coverage,only_b.system.energy.total_pj,,,"));
        assert!(!csv.contains("coverage,only_a."));
        // Plain A vs B (cycles equal) still flags the key mismatch.
        let d2 = DiffReport::build(&a, &b, "A", "B", 8);
        assert!(d2.section("identical").is_none());
        assert!(d2.to_csv().contains("system,total_cycles,1000,1000,0"));
    }

    #[test]
    fn diff_csv_is_rectangular() {
        let a = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let b = MetricsSnapshot::parse(&sample_metrics_with_energy()).unwrap();
        let d = DiffReport::build(&a, &b, "A", "B", 8);
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
        let r = BottleneckReport::build(&snap, None, 4);
        let system = r.section("system").unwrap();
        assert_eq!(system.get("total_cycles"), Some(&Value::Count(1000)));
        assert_eq!(system.get("core_cycles"), Some(&Value::Count(500)));
        assert!(r.section("tile1").is_none());
        let tile = r.section("tile0").unwrap();
        // 250 of 500 core cycles each.
        assert_eq!(tile.get("gpe_busy_pct"), Some(&Value::Real(50.0, 3)));
        assert_eq!(tile.get("gpe_blocked_pct"), Some(&Value::Real(50.0, 3)));
        let md = r.to_markdown();
        assert!(
            md.contains("| 0 | 50.0% | 50.0% | 60.0% | 24.0% |\n"),
            "{md}"
        );
        assert!(
            md.contains("| **mean** | 50.0% | 50.0% | 60.0% | 24.0% |\n"),
            "{md}"
        );
        assert!(md.contains("| mem0 | 40 | 4096 | 80.0% |\n"), "{md}");
        // Stall totals descending.
        assert_eq!(
            labelled(r.section("stalls").unwrap()),
            [
                ("waiting_mem".to_string(), 180),
                ("dnq_full".to_string(), 70)
            ]
        );
        // Hottest link first.
        let links = r.section("noc.link").unwrap();
        assert_eq!(links.rows[0].metric(), "0_0.E");
        assert_eq!(links.rows[0].number(), Some(&Value::Count(90)));
        let noc = r.section("noc").unwrap();
        assert_eq!(noc.get("latency.count"), Some(&Value::Count(10)));
        assert!(r.section("mem1").is_none());
        let mem: Vec<&Value> = r
            .section("mem0")
            .unwrap()
            .rows
            .iter()
            .filter_map(Row::number)
            .collect();
        let want = [Value::Count(40), Value::Count(4096), Value::Real(0.8, 4)];
        assert_eq!(mem, want.iter().collect::<Vec<_>>());
    }

    #[test]
    fn markdown_has_all_sections_and_shares_sum() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None, 4);
        let md = r.to_markdown();
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
        let r = BottleneckReport::build(&snap, None, 4);
        let run = r.section("host").expect("host profile parsed");
        assert_eq!(run.get("wall_ns"), Some(&Value::Count(2_000_000_000)));
        assert_eq!(run.get("cycles_total"), Some(&Value::Count(1000)));

        let md = r.to_markdown();
        assert!(md.contains("## Host profile"), "{md}");
        assert!(md.contains("**500 cycles/sec**"), "{md}");
        assert!(
            md.contains("(hot loop sampled 1 in 64, 16 cycles timed)"),
            "{md}"
        );
        // Sorted by self time descending: the hot gpe phase leads, and
        // the markdown adds each phase's total and calls.
        let phases: Vec<&str> = md.lines().filter(|l| l.starts_with("| run")).collect();
        assert_eq!(
            phases,
            [
                "| run;layer:0;cycles;gpe | 900.000 | 45.0% | 900.000 | 0 |",
                "| run | 100.000 | 5.0% | 2000.000 | 1 |",
            ]
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
        let r = BottleneckReport::build(&snap, None, 4);
        let md = r.to_markdown();
        let order: Vec<&str> = md
            .lines()
            .filter_map(|l| l.strip_prefix("| ")?.split(" |").next())
            .filter(|p| p.starts_with("run;"))
            .collect();
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
        let r = BottleneckReport::build(&snap, None, 4);
        assert!(r.section("host").is_none());
        assert!(!r.to_markdown().contains("## Host profile"));
    }

    #[test]
    fn report_csv_is_rectangular() {
        let snap = MetricsSnapshot::parse(&sample_metrics_json()).unwrap();
        let r = BottleneckReport::build(&snap, None, 4);
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
        let links = link_loads(&snap, &gnna_noc::LINK_BUSY_KEYS);
        let map = ascii_heatmap(&links, "busy cycles");
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
        let report = CampaignReport::build(&records);
        // (benchmark, mode, rate) groups: degraded@0, passthrough@0.01,
        // protected@0 — BTreeMap orders modes alphabetically.
        assert_eq!(report.csv_rows("accuracy"), 3);
        let csv = report.to_csv();
        let pt: Vec<&str> = csv.lines().filter(|l| l.contains("passthrough")).collect();
        assert_eq!(pt.len(), 1, "{csv}");
        // Two cells, a mean flip rate of (20 + 40) / 2 / 100.
        assert!(pt[0].starts_with("accuracy,GCN:Cora,passthrough,0.01,2,0,"));
        let flip_rate: f64 = pt[0].split(',').nth(6).unwrap().parse().unwrap();
        assert!((flip_rate - 0.3).abs() < 1e-12, "{csv}");
        let md = report.to_markdown();
        for needle in [
            // Degraded@0 pairs with protected@0 seed 1: 1500/1000.
            "| GCN:Cora | 0 | 1.500× | 1 |",
            // Pass-through SDC totals: mem_sdc mirrors the sdc argument
            // (7 + 9), injected 6 per cell.
            "| mem | 12 | 16 | 133.3% |",
            "| noc | 8 | 0 | 0.0% |",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
    }

    #[test]
    fn campaign_markdown_has_all_subsections() {
        let text = [
            campaign_line(0, "protected", 0.0, 1, 1000, 0, 0),
            campaign_line(1, "passthrough", 0.01, 1, 990, 20, 7),
            campaign_line(2, "degraded", 0.0, 1, 1500, 0, 0),
        ]
        .join("\n");
        let report = CampaignReport::build(&parse_campaign_jsonl(&text).unwrap());
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

        let report = CampaignReport::build(&records);
        let md = report.to_markdown();
        assert!(md.contains("### Recovery cost (rollback cells)"));
        assert!(md.contains("| GCN:Cora | 1000 | 1 | 0 | 3 | 2 | 400 | 5000 |"));
        // A FIT-calibrated record relabels the rate axis everywhere.
        assert!(md.contains("| benchmark | mode | rate (FIT) |"));
        // A campaign without rollback cells renders no recovery table.
        let legacy = CampaignReport::build(
            &parse_campaign_jsonl(&campaign_line(0, "protected", 0.0, 1, 1000, 0, 0)).unwrap(),
        );
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
