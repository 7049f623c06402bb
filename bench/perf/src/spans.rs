//! The benchmark's own spans: one wall-clock span around every call it
//! makes into a layer, kept in memory and written as Chrome trace JSON
//! when the run ends.

use gnna_telemetry::{TraceLevel, Tracer, TrackId};
use std::io;
use std::path::Path;
use std::time::Instant;

/// In-memory span recorder (timestamps in µs since the run started).
pub struct Spans {
    started: Instant,
    tracer: Tracer,
    track: TrackId,
    open: Vec<(String, Instant)>,
}

impl Spans {
    /// A recorder whose spans land on one track named after the workload.
    pub fn new(workload: &str) -> Self {
        let mut tracer = Tracer::with_flight_capacity(TraceLevel::Event, 0);
        let track = tracer.register_track("gnna-perf", workload);
        Spans {
            started: Instant::now(),
            tracer,
            track,
            open: Vec::new(),
        }
    }

    fn stamp(&mut self, at: Instant) {
        let us = at.saturating_duration_since(self.started).as_micros();
        self.tracer.set_now(u64::try_from(us).unwrap_or(u64::MAX));
    }

    /// Opens a span; spans nest, so close them in reverse order.
    pub fn enter(&mut self, name: &str) {
        let now = Instant::now();
        self.stamp(now);
        self.tracer.begin(self.track, name);
        self.open.push((name.to_string(), now));
    }

    /// Closes the innermost open span and returns its length in seconds.
    pub fn exit(&mut self) -> f64 {
        let (name, began) = self.open.pop().expect("exit without a matching enter");
        let now = Instant::now();
        self.stamp(now);
        self.tracer.end(self.track, &name);
        now.duration_since(began).as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and length in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let value = f();
        (value, self.exit())
    }

    /// Writes the spans as Chrome `trace_event` JSON.
    ///
    /// # Errors
    ///
    /// Propagates the file I/O failure.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.tracer.to_chrome_json_string())
    }
}
