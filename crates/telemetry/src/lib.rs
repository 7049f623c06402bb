//! # gnna-telemetry
//!
//! Cycle-level observability for the GNNA simulator, in three parts:
//!
//! - [`trace`] — a [`Tracer`](trace::Tracer) that records duration, instant,
//!   and counter events on per-module tracks and serializes them as Chrome
//!   `trace_event` JSON (open in <https://ui.perfetto.dev> or
//!   `chrome://tracing`). The tracer also maintains the stall **flight
//!   recorder**: a ring buffer of the most recent events dumped into the
//!   watchdog error path when a simulation stops making progress.
//! - [`metrics`] — a [`MetricsRegistry`](metrics::MetricsRegistry) of named
//!   counters/gauges/histograms with JSON and CSV serialization, used for the
//!   per-tile breakdown in `SimReport` and the `--metrics-out` file.
//! - [`energy`] — integer-exact energy attribution: a pJ [`CostClass`]
//!   taxonomy, femtojoule [`EnergyRates`], the per-site
//!   [`EnergyLedger`], and the largest-remainder [`apportion_pj`]
//!   export that keeps `*.energy.*_pj` counters summing to the total
//!   exactly (the conservation invariant).
//! - [`profile`] — a host-phase [`HostProfiler`](profile::HostProfiler):
//!   scoped phases plus sampled cycle-loop laps measuring where
//!   *wall-clock* time goes, exported as
//!   a collapsed-stack file (flamegraph input) and `host.profile.*`
//!   metrics.
//! - [`json`] — the std-only JSON writer/parser backing both, exposed so
//!   tests can reconcile emitted files against simulator counters.
//!
//! The crate is **std-only by design** (no external dependencies): the
//! observability layer must never constrain where the simulator builds.
//!
//! ## Zero cost when disabled
//!
//! Modules hold an `Option<ModuleProbe>`. When tracing is off the option is
//! `None` and instrumentation reduces to a never-taken branch; the
//! cycle-identity golden test in `gnna-core` asserts `total_cycles` is
//! bit-identical with tracing off vs. on.

pub mod energy;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use energy::{apportion_pj, CostClass, EnergyCharge, EnergyLedger, EnergyRates};
pub use metrics::{HistogramSummary, KeyFamily, Metric, MetricsRegistry, HISTOGRAM_FIELDS};
pub use profile::{HostProfiler, HotPhase};
pub use trace::{shared, ModuleProbe, SharedTracer, TraceLevel, Tracer, TrackId};
