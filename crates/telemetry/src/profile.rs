//! Host-phase profiler: where does *wall-clock* time go while the
//! simulator runs?
//!
//! The [`Tracer`](crate::trace::Tracer) answers "what is the simulated
//! hardware doing at cycle N"; this module answers the orthogonal
//! question "what is the *host* doing" — how many nanoseconds the
//! process spends in the config phase, the cycle loop, each module's
//! tick, the NoC step, the watchdog — so hot-path work can be aimed at
//! the phases that actually dominate.
//!
//! Two complementary clocks:
//!
//! - **Scoped phases** — [`enter`](HostProfiler::enter) and
//!   [`leave`](HostProfiler::leave) build a hierarchical phase tree
//!   (`run` → `layer:conv1` → `config`/`cycles`/`barrier` → …). Each
//!   phase costs two monotonic-clock reads, fine for per-layer
//!   granularity. `leave` closes every phase opened since the matching
//!   `enter`, so a caller that returns early (a layer that faults and
//!   rolls back) closes its children along with its own phase.
//! - **Sampled cycle laps** — inside the cycle loop two clock reads per
//!   module per cycle would dwarf the work being measured, so the hot
//!   breakdown (GPE/AGG/DNQ/DNA/NoC/mem/fault hooks) is *sampled*: one
//!   cycle in [`HostProfiler::sample_every`] is timed with
//!   [`lap`](HostProfiler::lap) calls between module steps, the rest pay
//!   a single branch. Sampled totals are scaled by the sampling ratio at
//!   export time.
//!
//! Exports: a collapsed-stack file (`path;to;phase <ns>` lines —
//! `flamegraph.pl` / `inferno-flamegraph` ingest it directly) and
//! `host.profile.*` entries merged into the run's
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry) so `gnna-report`
//! renders the `## Host profile` section from the ordinary metrics
//! pipeline. Both render one list of phase rows, so every collapsed line
//! is a `self_ns` counter.
//!
//! Like the rest of the crate this is std-only and **zero-cost when
//! detached**: the simulator owns an `Option<HostProfiler>` that stays
//! `None` unless asked for, so the disabled path is a never-taken branch
//! and the simulation is bit-identical.

use crate::metrics::{KeyFamily, MetricsRegistry};
use std::time::Instant;

/// Default sampling period for the cycle-loop laps: one cycle in 64 is
/// timed. Keeps steady-state overhead around the cost of one branch per
/// lap site while converging on the same breakdown as exhaustive timing.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Scope name the simulator uses for the cycle loop inside each layer.
/// Collapsed-stack export replaces these scopes with the sampled
/// per-module breakdown (under `run;cycles;*`) so the loop's time is
/// not double-counted.
pub const CYCLES_SCOPE: &str = "cycles";

/// Every `host.profile.*` key; the run-level gauges are
/// `PROFILE_KEYS.key(WALL_NS)` and its siblings.
pub const PROFILE_KEYS: KeyFamily = KeyFamily::new("host.profile.", "");

/// Per-phase counters `host.profile.{field}.{path}`: `field` is one of
/// [`SELF_NS`], [`TOTAL_NS`] and [`CALLS`], `path` the `;`-joined phase
/// path.
pub const PHASE_KEYS: KeyFamily = KeyFamily::new("host.profile.", ".");

/// Phase wall time excluding children, ns.
pub const SELF_NS: &str = "self_ns";
/// Phase wall time including children, ns.
pub const TOTAL_NS: &str = "total_ns";
/// Times the phase was entered (laps for sampled hot phases).
pub const CALLS: &str = "calls";
/// Wall-clock ns the profiler covered.
pub const WALL_NS: &str = "wall_ns";
/// Simulated compute cycles the hot loop observed.
pub const CYCLES_TOTAL: &str = "cycles_total";
/// Cycles that paid for lap timing.
pub const CYCLES_SAMPLED: &str = "cycles_sampled";
/// The hot-loop sampling stride.
pub const SAMPLE_EVERY: &str = "sample_every";
/// Simulated cycles per wall-clock second.
pub const CYCLES_PER_SEC: &str = "cycles_per_sec";

/// Hot phases timed (by sampling) inside the cycle loop. Order is the
/// order laps occur within one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotPhase {
    /// Periodic counter sampling + tracer bookkeeping.
    Sample,
    /// Memory-controller nodes: retire, eject, feed, inject.
    Mem,
    /// Tile NoC endpoints (flit ejection/reassembly and injection) and
    /// the event wheel's tile bookkeeping: timer wakes, the settles of
    /// sleeping tiles and sleep checks.
    TileComms,
    /// GPE tick (vertex programs, work-queue scheduling).
    Gpe,
    /// Aggregator tick.
    Agg,
    /// DNQ dequeue for the DNA.
    Dnq,
    /// DNA accept (which evaluates the kernel) and pipeline tick.
    Dna,
    /// Mesh step (routing, link traversal, CRC fault hooks).
    Noc,
    /// Post-cycle fault-failure check and progress watchdog.
    Faults,
}

impl HotPhase {
    /// Every phase, in lap order.
    pub const ALL: [HotPhase; 9] = [
        HotPhase::Sample,
        HotPhase::Mem,
        HotPhase::TileComms,
        HotPhase::Gpe,
        HotPhase::Agg,
        HotPhase::Dnq,
        HotPhase::Dna,
        HotPhase::Noc,
        HotPhase::Faults,
    ];

    /// Number of hot phases.
    pub const COUNT: usize = Self::ALL.len();

    fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name used in collapsed stacks and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            HotPhase::Sample => "sample",
            HotPhase::Mem => "mem",
            HotPhase::TileComms => "tile_comms",
            HotPhase::Gpe => "gpe",
            HotPhase::Agg => "agg",
            HotPhase::Dnq => "dnq",
            HotPhase::Dna => "dna",
            HotPhase::Noc => "noc",
            HotPhase::Faults => "faults",
        }
    }
}

/// One node of the scoped phase tree.
#[derive(Debug)]
struct Node {
    name: String,
    parent: Option<usize>,
    total_ns: u64,
    child_ns: u64,
    calls: u64,
}

/// One exported phase: its `;`-joined path, self and total wall time,
/// and call count (`None` for the unsampled `cycles;untimed` remainder).
struct Row {
    path: String,
    self_ns: u64,
    total_ns: u64,
    calls: Option<u64>,
}

/// The host-phase profiler.
#[derive(Debug)]
pub struct HostProfiler {
    started: Instant,
    nodes: Vec<Node>,
    /// Open phases, innermost last, with the instant each opened.
    stack: Vec<(usize, Instant)>,
    sample_every: u64,
    sampling: bool,
    lap_start: Option<Instant>,
    hot_ns: [u64; HotPhase::COUNT],
    hot_laps: [u64; HotPhase::COUNT],
    cycles_total: u64,
    cycles_sampled: u64,
}

/// `d` in whole nanoseconds, saturating at `u64::MAX`.
fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Default for HostProfiler {
    fn default() -> Self {
        Self::new(DEFAULT_SAMPLE_EVERY)
    }
}

impl HostProfiler {
    /// A profiler sampling one cycle in `sample_every` (clamped to ≥ 1).
    pub fn new(sample_every: u64) -> Self {
        HostProfiler {
            started: Instant::now(),
            nodes: Vec::new(),
            stack: Vec::new(),
            sample_every: sample_every.max(1),
            sampling: false,
            lap_start: None,
            hot_ns: [0; HotPhase::COUNT],
            hot_laps: [0; HotPhase::COUNT],
            cycles_total: 0,
            cycles_sampled: 0,
        }
    }

    /// The configured sampling period.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Cycles seen by [`begin_cycle`](Self::begin_cycle) so far.
    pub fn cycles_total(&self) -> u64 {
        self.cycles_total
    }

    /// Opens phase `name` under the innermost open phase and returns the
    /// mark that [`leave`](Self::leave) closes it with.
    pub fn enter(&mut self, name: &str) -> usize {
        let mark = self.stack.len();
        let parent = self.stack.last().map(|&(n, _)| n);
        let found = self
            .nodes
            .iter()
            .position(|n| n.parent == parent && n.name == name);
        let idx = found.unwrap_or_else(|| {
            self.nodes.push(Node {
                name: name.to_string(),
                parent,
                total_ns: 0,
                child_ns: 0,
                calls: 0,
            });
            self.nodes.len() - 1
        });
        self.stack.push((idx, Instant::now()));
        mark
    }

    /// Closes the phase [`enter`](Self::enter) returned `mark` for,
    /// together with every phase opened inside it and still open,
    /// innermost first, attributing each its elapsed time (and its
    /// parent the same as child time). A phase already closed is not
    /// closed again.
    pub fn leave(&mut self, mark: usize) {
        let now = Instant::now();
        let from = mark.min(self.stack.len());
        for (node, start) in self.stack.drain(from..).rev() {
            let elapsed = nanos(now.duration_since(start));
            let n = &mut self.nodes[node];
            n.total_ns += elapsed;
            n.calls += 1;
            if let Some(p) = n.parent {
                self.nodes[p].child_ns += elapsed;
            }
        }
    }

    /// Marks the start of one simulated cycle. One cycle in
    /// `sample_every` arms the lap clock; the rest make this (and every
    /// [`lap`](Self::lap)) a branch.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.sampling = self.cycles_total.is_multiple_of(self.sample_every);
        self.cycles_total += 1;
        if self.sampling {
            self.cycles_sampled += 1;
            self.lap_start = Some(Instant::now());
        }
    }

    /// Attributes the time since the previous lap (or
    /// [`begin_cycle`](Self::begin_cycle)) to `phase`. No-op on
    /// unsampled cycles.
    #[inline]
    pub fn lap(&mut self, phase: HotPhase) {
        if !self.sampling {
            return;
        }
        let now = Instant::now();
        if let Some(start) = self.lap_start {
            self.hot_ns[phase.index()] += nanos(now.duration_since(start));
            self.hot_laps[phase.index()] += 1;
        }
        self.lap_start = Some(now);
    }

    /// Ends the current cycle's lap window.
    #[inline]
    pub fn end_cycle(&mut self) {
        self.sampling = false;
        self.lap_start = None;
    }

    /// Wall time since the profiler was created, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        nanos(self.started.elapsed())
    }

    /// Sampling scale factor: total cycles per sampled cycle.
    fn hot_scale(&self) -> f64 {
        if self.cycles_sampled == 0 {
            0.0
        } else {
            self.cycles_total as f64 / self.cycles_sampled as f64
        }
    }

    /// Estimated full-run nanoseconds per hot phase: sampled ns scaled
    /// by the sampling ratio, then — when the scoped cycle-loop time is
    /// known — normalized so the breakdown never exceeds the measured
    /// loop wall time. (Sampled cycles pay the lap-timer reads, so the
    /// raw extrapolation systematically overshoots; the *shares* are
    /// unbiased, so they are reallocated over the measured total.)
    fn hot_estimates(&self) -> [u64; HotPhase::COUNT] {
        let scale = self.hot_scale();
        let mut est = [0f64; HotPhase::COUNT];
        let mut raw_total = 0f64;
        for (i, &ns) in self.hot_ns.iter().enumerate() {
            est[i] = ns as f64 * scale;
            raw_total += est[i];
        }
        let measured = self.cycles_scope_ns();
        if measured > 0 && raw_total > measured as f64 {
            let norm = measured as f64 / raw_total;
            for e in &mut est {
                *e *= norm;
            }
        }
        est.map(|e| e as u64)
    }

    /// Estimated full-run nanoseconds spent in `phase`; see
    /// [`hot_estimates`](Self::hot_estimates) for the scaling rules.
    pub fn hot_estimate_ns(&self, phase: HotPhase) -> u64 {
        self.hot_estimates()[phase.index()]
    }

    /// `phase;sub;leaf` path of a tree node.
    fn node_path(&self, mut idx: usize) -> String {
        let mut parts = vec![self.nodes[idx].name.as_str()];
        while let Some(p) = self.nodes[idx].parent {
            parts.push(self.nodes[p].name.as_str());
            idx = p;
        }
        parts.reverse();
        parts.join(";")
    }

    /// Name of the root scope the cycle breakdown hangs under (`run`
    /// when the simulator opened one; empty for a bare profiler).
    fn root_prefix(&self) -> String {
        self.nodes
            .iter()
            .find(|n| n.parent.is_none())
            .map(|n| format!("{};", n.name))
            .unwrap_or_default()
    }

    /// Total measured wall time of every [`CYCLES_SCOPE`] scope.
    fn cycles_scope_ns(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.name == CYCLES_SCOPE)
            .map(|n| n.total_ns)
            .sum()
    }

    /// Simulated cycles per host second, measured over the cycle-loop
    /// scopes only (config/report phases excluded).
    pub fn cycles_per_sec(&self) -> f64 {
        let ns = self.cycles_scope_ns();
        if ns == 0 {
            0.0
        } else {
            self.cycles_total as f64 / (ns as f64 / 1e9)
        }
    }

    /// Every exported phase row: the scoped phases in tree order, with
    /// [`CYCLES_SCOPE`] scopes keeping their total but claiming no self
    /// time, then the sampled per-module breakdown under
    /// `<root>;cycles;*` with the unsampled remainder as
    /// `cycles;untimed`.
    fn rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| Row {
                path: self.node_path(i),
                self_ns: if n.name == CYCLES_SCOPE {
                    0
                } else {
                    n.total_ns.saturating_sub(n.child_ns)
                },
                total_ns: n.total_ns,
                calls: Some(n.calls),
            })
            .collect();
        let root = self.root_prefix();
        let estimates = self.hot_estimates();
        for phase in HotPhase::ALL {
            let est = estimates[phase.index()];
            if est > 0 {
                rows.push(Row {
                    path: format!("{root}{CYCLES_SCOPE};{}", phase.name()),
                    self_ns: est,
                    total_ns: est,
                    calls: Some(self.hot_laps[phase.index()]),
                });
            }
        }
        let untimed = self
            .cycles_scope_ns()
            .saturating_sub(estimates.iter().sum());
        // Each estimate truncates down, so up to COUNT ns of remainder
        // is rounding, not unattributed time.
        if untimed > HotPhase::COUNT as u64 {
            rows.push(Row {
                path: format!("{root}{CYCLES_SCOPE};untimed"),
                self_ns: untimed,
                total_ns: untimed,
                calls: None,
            });
        }
        rows
    }

    /// Collapsed-stack export (`stack;frames <ns>` per line, flamegraph
    /// input format): every phase row with self time.
    pub fn collapsed(&self) -> String {
        self.rows()
            .into_iter()
            .filter(|r| r.self_ns > 0)
            .map(|r| format!("{} {}\n", r.path, r.self_ns))
            .collect()
    }

    /// Merges the profile into `reg` as `host.profile.*` metrics:
    /// per-phase `self_ns.<path>` / `total_ns.<path>` / `calls.<path>`
    /// counters plus run-level gauges (`wall_ns`, `cycles_total`,
    /// `cycles_sampled`, `sample_every`, `cycles_per_sec`).
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        for row in self.rows() {
            reg.counter_set(&PHASE_KEYS.member(SELF_NS, &row.path), row.self_ns);
            reg.counter_set(&PHASE_KEYS.member(TOTAL_NS, &row.path), row.total_ns);
            if let Some(calls) = row.calls {
                reg.counter_set(&PHASE_KEYS.member(CALLS, &row.path), calls);
            }
        }
        for (name, v) in [
            (WALL_NS, self.wall_ns() as f64),
            (CYCLES_TOTAL, self.cycles_total as f64),
            (CYCLES_SAMPLED, self.cycles_sampled as f64),
            (SAMPLE_EVERY, self.sample_every as f64),
            (CYCLES_PER_SEC, self.cycles_per_sec()),
        ] {
            reg.gauge_set(&PROFILE_KEYS.key(name), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_into_a_tree_with_self_time() {
        let mut prof = HostProfiler::new(1);
        let run = prof.enter("run");
        let layer = prof.enter("layer:l0");
        prof.enter("barrier");
        // Leaving the layer closes the barrier left open inside it.
        prof.leave(layer);
        prof.leave(run);
        let collapsed = prof.collapsed();
        assert!(
            collapsed.contains("run;layer:l0;barrier "),
            "missing nested path: {collapsed}"
        );
        // Parents carry only self time, never their children's.
        let mut reg = MetricsRegistry::new();
        prof.export_metrics(&mut reg);
        let total = reg
            .get_counter("host.profile.total_ns.run")
            .expect("root total");
        let self_ns = reg
            .get_counter("host.profile.self_ns.run")
            .expect("root self");
        assert!(self_ns <= total);
        for path in ["run", "run;layer:l0", "run;layer:l0;barrier"] {
            let calls = reg.get_counter(&format!("host.profile.calls.{path}"));
            assert_eq!(calls, Some(1), "{path}");
        }
    }

    #[test]
    fn repeated_scopes_accumulate_calls() {
        let mut prof = HostProfiler::new(1);
        for _ in 0..3 {
            let config = prof.enter("config");
            prof.leave(config);
        }
        let mut reg = MetricsRegistry::new();
        prof.export_metrics(&mut reg);
        assert_eq!(reg.get_counter("host.profile.calls.config"), Some(3));
    }

    #[test]
    fn sampled_laps_scale_to_the_full_run() {
        let mut prof = HostProfiler::new(4);
        for _ in 0..16 {
            prof.begin_cycle();
            prof.lap(HotPhase::Gpe);
            prof.end_cycle();
        }
        assert_eq!(prof.cycles_total(), 16);
        assert_eq!(prof.cycles_sampled, 4);
        // The estimate scales the sampled time by 4×.
        assert_eq!(prof.hot_estimate_ns(HotPhase::Gpe), prof.hot_ns[3] * 4);
        // Unsampled cycles record nothing.
        assert_eq!(prof.hot_laps[HotPhase::Gpe.index()], 4);
    }

    #[test]
    fn cycle_scopes_are_replaced_by_the_hot_breakdown() {
        let mut prof = HostProfiler::new(1);
        let run = prof.enter("run");
        prof.enter(CYCLES_SCOPE);
        prof.begin_cycle();
        std::thread::sleep(std::time::Duration::from_millis(1));
        prof.lap(HotPhase::Noc);
        prof.end_cycle();
        prof.leave(run);
        let collapsed = prof.collapsed();
        assert!(
            collapsed.contains("run;cycles;noc "),
            "hot phase missing: {collapsed}"
        );
        // The raw `cycles` scope line must not appear as a leaf of its
        // own (it would double-count the hot rows).
        assert!(
            !collapsed.lines().any(|l| l.starts_with("run;cycles ")),
            "cycles scope leaked: {collapsed}"
        );
        assert!(prof.cycles_per_sec() > 0.0);
    }

    #[test]
    fn hot_breakdown_is_bounded_by_the_cycle_scope() {
        let mut prof = HostProfiler::new(1);
        let run = prof.enter("run");
        prof.enter(CYCLES_SCOPE);
        std::thread::sleep(std::time::Duration::from_millis(1));
        prof.leave(run);
        // Force a raw extrapolation far above the measured loop time:
        // the export must reallocate the shares over the measured total
        // instead of reporting more than 100% of the wall clock.
        prof.cycles_total = 1000;
        prof.cycles_sampled = 1;
        prof.hot_ns[HotPhase::Gpe.index()] = 3_000_000;
        prof.hot_ns[HotPhase::Noc.index()] = 1_000_000;
        let measured = prof.cycles_scope_ns();
        let total: u64 = HotPhase::ALL
            .iter()
            .map(|&ph| prof.hot_estimate_ns(ph))
            .sum();
        assert!(total <= measured, "breakdown {total} > measured {measured}");
        // Shares survive the normalization (3:1 within rounding).
        let gpe = prof.hot_estimate_ns(HotPhase::Gpe);
        let noc = prof.hot_estimate_ns(HotPhase::Noc);
        assert!(gpe > 2 * noc, "shares distorted: gpe {gpe}, noc {noc}");
        let collapsed = prof.collapsed();
        assert!(
            !collapsed.contains(";untimed "),
            "normalized breakdown should cover the loop: {collapsed}"
        );
    }

    #[test]
    fn export_carries_run_level_gauges() {
        let prof = HostProfiler::default();
        let mut reg = MetricsRegistry::new();
        prof.export_metrics(&mut reg);
        for g in [
            "host.profile.wall_ns",
            "host.profile.cycles_total",
            "host.profile.sample_every",
            "host.profile.cycles_per_sec",
        ] {
            assert!(reg.get(g).is_some(), "missing gauge {g}");
        }
    }
}
