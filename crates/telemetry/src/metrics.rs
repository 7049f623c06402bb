//! Named metrics registry: counters, gauges, and summary histograms with
//! deterministic (sorted) iteration, serializable to JSON and CSV.
//!
//! Naming convention used by the simulator: dotted paths with the module
//! instance first, e.g. `tile0.gpe.vertices_done`, `mem1.dram_bytes`,
//! `noc.flit_hops`, `system.total_cycles`. Keeping the instance prefix first
//! means a plain sort groups all metrics of one module together in the CSV.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

/// A family of metric keys `{prefix}{id}{suffix}`, declared once by the
/// crate that writes it. The writer builds every key through the family
/// and readers (`gnna-report`) parse keys back through it, so no key is
/// spelled twice. A family whose suffix ends in `.` is a scope: its
/// members carry a trailing field name ([`KeyFamily::member`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyFamily {
    prefix: &'static str,
    suffix: &'static str,
}

impl KeyFamily {
    /// The family `{prefix}{id}{suffix}`.
    pub const fn new(prefix: &'static str, suffix: &'static str) -> Self {
        Self { prefix, suffix }
    }

    /// The key of member `id`.
    pub fn key(&self, id: impl fmt::Display) -> String {
        format!("{}{id}{}", self.prefix, self.suffix)
    }

    /// The key of field `name` of scope member `id`.
    pub fn member(&self, id: impl fmt::Display, name: &str) -> String {
        self.key(id) + name
    }

    /// The name of member `id` without the suffix (a scope's own name,
    /// e.g. `tile3`).
    pub fn scope(&self, id: impl fmt::Display) -> String {
        format!("{}{id}", self.prefix)
    }

    /// The member id of `key`, when `key` belongs to the family.
    pub fn id<'a>(&self, key: &'a str) -> Option<&'a str> {
        key.strip_prefix(self.prefix)?.strip_suffix(self.suffix)
    }

    /// Splits a scope member's key into `(id, field)` at the first
    /// suffix after the prefix.
    pub fn split<'a>(&self, key: &'a str) -> Option<(&'a str, &'a str)> {
        let rest = key.strip_prefix(self.prefix)?;
        let at = rest.find(self.suffix)?;
        Some((&rest[..at], &rest[at + self.suffix.len()..]))
    }
}

/// The summary fields every serialized histogram carries, in order: the
/// JSON object keys and the CSV columns after `value`.
pub const HISTOGRAM_FIELDS: [&str; 9] = [
    "count", "sum", "min", "max", "mean", "p50", "p95", "p99", "p999",
];

/// Number of log₂ buckets kept by [`HistogramSummary`]. Bucket 0 covers
/// `[0, 1)`; bucket `k >= 1` covers `[2^(k-1), 2^k)`, so 64 buckets span the
/// full non-negative `u64` range — plenty for cycle latencies and hop counts.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Streaming summary of observed samples: count/sum/min/max plus fixed
/// log₂-spaced buckets for quantile estimation. Memory stays O(1) per
/// histogram regardless of sample count; quantiles (p50/p95/p99) are
/// estimated by linear interpolation inside the bucket that crosses the
/// requested rank and clamped to the observed `[min, max]` range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSummary {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSummary {
    /// Bucket index for a sample: 0 for `[0, 1)`, `k` for `[2^(k-1), 2^k)`.
    /// Negative samples are clamped into bucket 0.
    fn bucket_index(v: f64) -> usize {
        if v < 1.0 {
            return 0;
        }
        let u = v as u64; // v >= 1 here, truncation is the floor
        ((64 - u.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Lower bound of bucket `i` (inclusive).
    fn bucket_lo(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            (1u64 << (i - 1)) as f64
        }
    }

    /// Upper bound of bucket `i` (exclusive).
    fn bucket_hi(i: usize) -> f64 {
        if i >= 63 {
            u64::MAX as f64
        } else {
            (1u64 << i) as f64
        }
    }

    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.buckets[Self::bucket_index(v)] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the log₂ buckets.
    /// Exact when all samples in the crossing bucket are uniformly spread;
    /// always within one bucket width of the true value and clamped to the
    /// observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        // Rank of the sample we are after (1-based, ceil like nearest-rank).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if seen + b >= rank {
                // Linear interpolation within this bucket.
                let into = (rank - seen) as f64 / b as f64;
                let lo = Self::bucket_lo(i);
                let hi = Self::bucket_hi(i);
                let est = lo + (hi - lo) * into;
                return est.clamp(self.min, self.max);
            }
            seen += b;
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// The serialized summary, one value per [`HISTOGRAM_FIELDS`] entry.
    pub fn summary(&self) -> [String; 9] {
        let n = crate::json::number;
        [
            self.count.to_string(),
            n(self.sum),
            n(self.min),
            n(self.max),
            n(self.mean()),
            n(self.p50()),
            n(self.p95()),
            n(self.p99()),
            n(self.p999()),
        ]
    }
}

#[derive(Debug, Clone, PartialEq)]
// The histogram variant is ~550 bytes (64 inline buckets), but a registry
// holds at most a few hundred metrics and is built once per run — inline
// storage beats a Box indirection on the observe() hot path.
#[allow(clippy::large_enum_variant)]
pub enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSummary),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Registry of named metrics. Insertion is keyed by full metric name; mixing
/// kinds under one name panics (it is always a bug in instrumentation).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Add `delta` to a counter, creating it at zero if absent.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Set a counter to an absolute value (used when harvesting module stats
    /// that are already cumulative).
    pub fn counter_set(&mut self, name: &str, value: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v = value,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Gauge(0.0))
        {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Record one histogram sample.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Histogram(HistogramSummary::default()))
        {
            Metric::Histogram(h) => h.observe(value),
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Install (or overwrite) a whole histogram under `name`. Used when a
    /// module keeps its own `HistogramSummary` during the run and harvests it
    /// into the registry at the end.
    pub fn histogram_set(&mut self, name: &str, h: HistogramSummary) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Histogram(HistogramSummary::default()))
        {
            Metric::Histogram(slot) => *slot = h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    pub fn get_counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn get_histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sorted iteration over `(name, metric)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Counters whose name starts with `prefix`, with the prefix stripped.
    /// Handy for building per-tile report sections from `tileN.` metrics.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        self.metrics
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, v)| match v {
                Metric::Counter(c) => Some((k[prefix.len()..].to_string(), *c)),
                _ => None,
            })
            .collect()
    }

    pub fn write_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"{")?;
        let mut first = true;
        for (name, metric) in &self.metrics {
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            let mut key = String::new();
            crate::json::escape_into(&mut key, name);
            match metric {
                Metric::Counter(v) => write!(w, "\"{key}\":{v}")?,
                Metric::Gauge(v) => write!(w, "\"{key}\":{}", crate::json::number(*v))?,
                Metric::Histogram(h) => {
                    let fields: Vec<String> = HISTOGRAM_FIELDS
                        .iter()
                        .zip(h.summary())
                        .map(|(name, v)| format!("\"{name}\":{v}"))
                        .collect();
                    write!(w, "\"{key}\":{{{}}}", fields.join(","))?
                }
            }
        }
        w.write_all(b"}")?;
        Ok(())
    }

    pub fn to_json_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_json(&mut buf).expect("writing to Vec");
        String::from_utf8(buf).expect("metrics JSON is UTF-8")
    }

    /// CSV with header
    /// `metric,kind,value,count,sum,min,max,mean,p50,p95,p99,p999`.
    /// Counters/gauges fill `value`; histograms fill the summary + quantile
    /// columns.
    pub fn write_csv<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "metric,kind,value,{}", HISTOGRAM_FIELDS.join(","))?;
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(v) => writeln!(w, "{name},counter,{v},,,,,,,,,")?,
                Metric::Gauge(v) => {
                    writeln!(w, "{name},gauge,{},,,,,,,,,", crate::json::number(*v))?
                }
                Metric::Histogram(h) => writeln!(w, "{name},histogram,,{}", h.summary().join(","))?,
            }
        }
        Ok(())
    }

    pub fn to_csv_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_csv(&mut buf).expect("writing to Vec");
        String::from_utf8(buf).expect("metrics CSV is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("tile0.gpe.vertices_done", 3);
        m.counter_add("tile0.gpe.vertices_done", 4);
        assert_eq!(m.get_counter("tile0.gpe.vertices_done"), Some(7));
    }

    #[test]
    fn histogram_summary_tracks_extremes() {
        let mut m = MetricsRegistry::new();
        for v in [4.0, 1.0, 9.0] {
            m.observe("tile0.dnq.depth", v);
        }
        match m.get("tile0.dnq.depth") {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.min, 1.0);
                assert_eq!(h.max, 9.0);
                assert!((h.mean() - 14.0 / 3.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("x", 1.0);
        m.counter_add("x", 1);
    }

    #[test]
    fn json_roundtrip_and_csv_shape() {
        let mut m = MetricsRegistry::new();
        m.counter_add("noc.flit_hops", 42);
        m.gauge_set("mem0.efficiency", 0.75);
        m.observe("tile1.agg.occupancy", 2.0);
        let doc = json::parse(&m.to_json_string()).expect("valid JSON");
        assert_eq!(doc.get("noc.flit_hops").unwrap().as_u64(), Some(42));
        assert_eq!(doc.get("mem0.efficiency").unwrap().as_f64(), Some(0.75));
        assert_eq!(
            doc.get("tile1.agg.occupancy")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );

        let csv = m.to_csv_string();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "metric,kind,value,count,sum,min,max,mean,p50,p95,p99,p999"
        );
        assert!(lines
            .iter()
            .any(|l| l.starts_with("noc.flit_hops,counter,42")));
        // Every row has the same number of columns as the header.
        for l in &lines {
            assert_eq!(l.split(',').count(), 12, "row {l:?}");
        }
    }

    #[test]
    fn quantiles_from_log2_buckets() {
        let mut h = HistogramSummary::default();
        // 100 samples 1..=100: p50 ~ 50, p95 ~ 95, p99 ~ 99 (within one
        // log2 bucket width).
        for v in 1..=100 {
            h.observe(v as f64);
        }
        let p50 = h.p50();
        let p95 = h.p95();
        let p99 = h.p99();
        assert!(p50 > 0.0 && p95 > 0.0 && p99 > 0.0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // p50's true value is 50, which lives in bucket [32, 64).
        assert!((32.0..64.0).contains(&p50), "p50 = {p50}");
        // p95/p99/p99.9 are in [64, 100] and ordered.
        assert!((64.0..=100.0).contains(&p95), "p95 = {p95}");
        assert!((64.0..=100.0).contains(&p99), "p99 = {p99}");
        let p999 = h.p999();
        assert!(p99 <= p999 && p999 <= 100.0, "p999 = {p999}");
        // Clamped to observed range.
        assert!(h.quantile(1.0) <= 100.0);
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn quantile_degenerate_cases() {
        let empty = HistogramSummary::default();
        assert_eq!(empty.p50(), 0.0);

        let mut single = HistogramSummary::default();
        single.observe(7.0);
        assert_eq!(single.p50(), 7.0);
        assert_eq!(single.p99(), 7.0);

        // All-equal samples collapse to that value via min/max clamping.
        let mut same = HistogramSummary::default();
        for _ in 0..10 {
            same.observe(3.0);
        }
        assert_eq!(same.p50(), 3.0);
        assert_eq!(same.p95(), 3.0);
    }

    #[test]
    fn histogram_set_installs_summary() {
        let mut h = HistogramSummary::default();
        for v in [2.0, 4.0, 8.0] {
            h.observe(v);
        }
        let mut m = MetricsRegistry::new();
        m.histogram_set("noc.packet_latency", h);
        match m.get("noc.packet_latency") {
            Some(Metric::Histogram(got)) => assert_eq!(got.count, 3),
            other => panic!("unexpected {other:?}"),
        }
        let doc = json::parse(&m.to_json_string()).expect("valid JSON");
        let lat = doc.get("noc.packet_latency").unwrap();
        assert!(lat.get("p50").unwrap().as_f64().unwrap() > 0.0);
        assert!(lat.get("p99").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn prefix_extraction() {
        let mut m = MetricsRegistry::new();
        m.counter_add("tile0.gpe.vertices_done", 5);
        m.counter_add("tile0.agg.completed", 2);
        m.counter_add("tile10.gpe.vertices_done", 9);
        let t0 = m.counters_with_prefix("tile0.");
        assert_eq!(t0.len(), 2);
        assert!(t0.contains(&("gpe.vertices_done".to_string(), 5)));
        assert!(t0.contains(&("agg.completed".to_string(), 2)));
    }
}
