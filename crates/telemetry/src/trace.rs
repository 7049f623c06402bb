//! Cycle-level event tracer emitting Chrome `trace_event`-format JSON
//! (loadable in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)).
//!
//! One *track* per module instance: a track maps to a Chrome (pid, tid) pair,
//! where the pid groups tracks by process name ("tile (x,y)", "mem", "system")
//! and the tid is one module within that group (GPE, AGG, DNQ, DNA, ...).
//!
//! Timestamps are **master NoC clock cycles**, written directly into the `ts`
//! field (Perfetto renders them as microseconds; one "µs" on screen = one
//! cycle). Event names are interned so a multi-million-event trace stores one
//! `u32` per name.
//!
//! The tracer doubles as the stall **flight recorder**: the last 256 events
//! (or the count given to [`Tracer::with_flight_capacity`]) are kept in a
//! ring buffer that [`Tracer::flight_snapshot`] formats for the watchdog
//! error path.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::rc::Rc;

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing. Probes are never attached, so the simulator runs the
    /// exact same code path (verified by a cycle-identity test).
    Off,
    /// Coarse phases only: CONFIG, per-layer execute windows, barriers.
    #[default]
    Phase,
    /// Phases plus per-module events: stalls, queue-full backpressure,
    /// job begin/end, periodic occupancy counters.
    Event,
}

impl TraceLevel {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(TraceLevel::Off),
            "phase" => Some(TraceLevel::Phase),
            "event" => Some(TraceLevel::Event),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Phase => "phase",
            TraceLevel::Event => "event",
        }
    }
}

/// Handle to a registered track (index into the tracer's track table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(u32);

#[derive(Debug, Clone)]
struct Track {
    pid: u32,
    tid: u32,
    process: String,
    thread: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Begin,
    End,
    Instant,
    Counter(f64),
}

impl Phase {
    fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'i',
            Phase::Counter(_) => 'C',
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Event {
    ts: u64,
    track: u32,
    name: u32,
    ph: Phase,
}

/// Cycle-level tracer + flight recorder.
#[derive(Debug)]
pub struct Tracer {
    level: TraceLevel,
    now: u64,
    tracks: Vec<Track>,
    pids: BTreeMap<String, u32>,
    names: Vec<String>,
    name_ids: BTreeMap<String, u32>,
    events: Vec<Event>,
    flight: VecDeque<Event>,
    flight_capacity: usize,
}

impl Tracer {
    pub fn new(level: TraceLevel) -> Self {
        Self::with_flight_capacity(level, 256)
    }

    pub fn with_flight_capacity(level: TraceLevel, flight_capacity: usize) -> Self {
        Tracer {
            level,
            now: 0,
            tracks: Vec::new(),
            pids: BTreeMap::new(),
            names: Vec::new(),
            name_ids: BTreeMap::new(),
            events: Vec::new(),
            flight: VecDeque::with_capacity(flight_capacity.min(1024)),
            flight_capacity,
        }
    }

    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Current timestamp in master clock cycles. The owner of the simulation
    /// loop calls [`set_now`](Self::set_now) once per cycle so probes don't
    /// need a cycle argument.
    pub fn now(&self) -> u64 {
        self.now
    }

    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// Register a track. Tracks with the same `process` name share a pid and
    /// appear grouped in Perfetto; `thread` names the row within the group.
    pub fn register_track(&mut self, process: &str, thread: &str) -> TrackId {
        let next_pid = self.pids.len() as u32 + 1;
        let pid = *self.pids.entry(process.to_string()).or_insert(next_pid);
        let tid = self.tracks.iter().filter(|t| t.pid == pid).count() as u32 + 1;
        let id = TrackId(self.tracks.len() as u32);
        self.tracks.push(Track {
            pid,
            tid,
            process: process.to_string(),
            thread: thread.to_string(),
        });
        id
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    fn push(&mut self, track: TrackId, name: &str, ph: Phase) {
        let name = self.intern(name);
        let ev = Event {
            ts: self.now,
            track: track.0,
            name,
            ph,
        };
        self.events.push(ev);
        if self.flight_capacity > 0 {
            if self.flight.len() == self.flight_capacity {
                self.flight.pop_front();
            }
            self.flight.push_back(ev);
        }
    }

    /// Open a duration slice on a track (Chrome phase `B`).
    pub fn begin(&mut self, track: TrackId, name: &str) {
        self.push(track, name, Phase::Begin);
    }

    /// Close the innermost duration slice opened with the same name (`E`).
    pub fn end(&mut self, track: TrackId, name: &str) {
        self.push(track, name, Phase::End);
    }

    /// Point-in-time event (`i`), e.g. a stall or a rejected allocation.
    pub fn instant(&mut self, track: TrackId, name: &str) {
        self.push(track, name, Phase::Instant);
    }

    /// Sampled counter value (`C`), rendered as a step chart by Perfetto.
    pub fn counter(&mut self, track: TrackId, name: &str, value: f64) {
        self.push(track, name, Phase::Counter(value));
    }

    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    pub fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// Number of events with the given name (all phases). Used by tests to
    /// reconcile the trace against `SimReport` counters.
    pub fn count_named(&self, name: &str) -> u64 {
        match self.name_ids.get(name) {
            Some(&id) => self.events.iter().filter(|e| e.name == id).count() as u64,
            None => 0,
        }
    }

    /// Number of events whose name starts with `prefix` (all phases).
    /// Used to reconcile families of per-instance events (e.g. every
    /// `hop (x,y)->D` instant) against aggregate counters.
    pub fn count_name_prefix(&self, prefix: &str) -> u64 {
        let ids: std::collections::BTreeSet<u32> = self
            .name_ids
            .range(prefix.to_string()..)
            .take_while(|(n, _)| n.starts_with(prefix))
            .map(|(_, &id)| id)
            .collect();
        if ids.is_empty() {
            return 0;
        }
        self.events.iter().filter(|e| ids.contains(&e.name)).count() as u64
    }

    /// Like [`count_named`](Self::count_named) but restricted to one phase
    /// kind: `'B'`, `'E'`, `'i'`, or `'C'`.
    pub fn count_named_phase(&self, name: &str, ph: char) -> u64 {
        match self.name_ids.get(name) {
            Some(&id) => self
                .events
                .iter()
                .filter(|e| e.name == id && e.ph.code() == ph)
                .count() as u64,
            None => 0,
        }
    }

    fn track_label(&self, idx: u32) -> String {
        let t = &self.tracks[idx as usize];
        format!("{}/{}", t.process, t.thread)
    }

    /// Human-readable dump of the flight-recorder ring (most recent last).
    /// Empty string when nothing was recorded.
    pub fn flight_snapshot(&self) -> String {
        if self.flight.is_empty() {
            return String::new();
        }
        let mut out = String::with_capacity(self.flight.len() * 48);
        out.push_str(&format!(
            "flight recorder (last {} of {} events):\n",
            self.flight.len(),
            self.events.len()
        ));
        for e in &self.flight {
            let name = &self.names[e.name as usize];
            match e.ph {
                Phase::Counter(v) => out.push_str(&format!(
                    "  cycle {:>10} {} {}={}\n",
                    e.ts,
                    self.track_label(e.track),
                    name,
                    v
                )),
                ph => out.push_str(&format!(
                    "  cycle {:>10} {} [{}] {}\n",
                    e.ts,
                    self.track_label(e.track),
                    ph.code(),
                    name
                )),
            }
        }
        out
    }

    /// Serialize as Chrome `trace_event` JSON (object form with a
    /// `traceEvents` array plus process/thread-name metadata events).
    pub fn write_chrome_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut first = true;
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;

        // Metadata: name the (pid, tid) grid.
        let mut seen_pid: BTreeMap<u32, &str> = BTreeMap::new();
        for t in &self.tracks {
            seen_pid.entry(t.pid).or_insert(&t.process);
        }
        for (pid, process) in &seen_pid {
            self.write_sep(w, &mut first)?;
            let mut name = String::new();
            crate::json::escape_into(&mut name, process);
            write!(
                w,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            )?;
        }
        for t in &self.tracks {
            self.write_sep(w, &mut first)?;
            let mut name = String::new();
            crate::json::escape_into(&mut name, &t.thread);
            write!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"{name}\"}}}}",
                t.pid, t.tid
            )?;
        }

        for e in &self.events {
            self.write_sep(w, &mut first)?;
            let t = &self.tracks[e.track as usize];
            let mut name = String::new();
            crate::json::escape_into(&mut name, &self.names[e.name as usize]);
            match e.ph {
                Phase::Counter(v) => write!(
                    w,
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":{},\
                     \"args\":{{\"value\":{}}}}}",
                    e.ts,
                    t.pid,
                    t.tid,
                    crate::json::number(v)
                )?,
                Phase::Instant => write!(
                    w,
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                     \"pid\":{},\"tid\":{}}}",
                    e.ts, t.pid, t.tid
                )?,
                ph => write!(
                    w,
                    "{{\"name\":\"{name}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}}}",
                    ph.code(),
                    e.ts,
                    t.pid,
                    t.tid
                )?,
            }
        }
        w.write_all(b"]}")?;
        Ok(())
    }

    fn write_sep<W: Write>(&self, w: &mut W, first: &mut bool) -> io::Result<()> {
        if *first {
            *first = false;
            Ok(())
        } else {
            w.write_all(b",")
        }
    }

    pub fn to_chrome_json_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_chrome_json(&mut buf)
            .expect("writing to Vec cannot fail");
        String::from_utf8(buf).expect("tracer output is UTF-8")
    }
}

/// Shared, single-threaded handle to a [`Tracer`].
pub type SharedTracer = Rc<RefCell<Tracer>>;

pub fn shared(tracer: Tracer) -> SharedTracer {
    Rc::new(RefCell::new(tracer))
}

/// A module's handle onto one tracer track.
///
/// Modules store an `Option<ModuleProbe>`; `None` (the default when telemetry
/// is off or below the needed level) short-circuits instrumentation to a
/// single branch on an option that is never populated — no tracer, no
/// allocation, no clock reads.
#[derive(Clone)]
pub struct ModuleProbe {
    tracer: SharedTracer,
    track: TrackId,
}

impl std::fmt::Debug for ModuleProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleProbe")
            .field("track", &self.track)
            .finish()
    }
}

impl ModuleProbe {
    pub fn new(tracer: SharedTracer, process: &str, thread: &str) -> Self {
        let track = tracer.borrow_mut().register_track(process, thread);
        ModuleProbe { tracer, track }
    }

    pub fn begin(&self, name: &str) {
        let mut t = self.tracer.borrow_mut();
        t.begin(self.track, name);
    }

    pub fn end(&self, name: &str) {
        let mut t = self.tracer.borrow_mut();
        t.end(self.track, name);
    }

    pub fn instant(&self, name: &str) {
        let mut t = self.tracer.borrow_mut();
        t.instant(self.track, name);
    }

    pub fn counter(&self, name: &str, value: f64) {
        let mut t = self.tracer.borrow_mut();
        t.counter(self.track, name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn chrome_json_is_valid_and_named() {
        let mut t = Tracer::new(TraceLevel::Event);
        let gpe = t.register_track("tile (0,0)", "GPE");
        let agg = t.register_track("tile (0,0)", "AGG");
        let mem = t.register_track("mem", "mem0");
        t.set_now(10);
        t.begin(gpe, "vertex");
        t.set_now(12);
        t.instant(agg, "alloc_reject");
        t.counter(mem, "queue_depth", 3.0);
        t.set_now(20);
        t.end(gpe, "vertex");

        let doc = json::parse(&t.to_chrome_json_string()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 process_name + 3 thread_name + 4 events
        assert_eq!(events.len(), 9);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(metas.len(), 5);
        // Same process ⇒ same pid, distinct tids.
        let pid_of = |name: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(|n| n.as_str())
                        == Some(name)
                })
                .unwrap()
                .get("pid")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        assert_eq!(pid_of("GPE"), pid_of("AGG"));
        assert_ne!(pid_of("GPE"), pid_of("mem0"));
    }

    #[test]
    fn counts_reconcile() {
        let mut t = Tracer::new(TraceLevel::Event);
        let tr = t.register_track("p", "t");
        for i in 0..5 {
            t.set_now(i);
            t.instant(tr, "stall");
        }
        t.begin(tr, "stall"); // different phase, same name
        assert_eq!(t.count_named("stall"), 6);
        assert_eq!(t.count_named_phase("stall", 'i'), 5);
        assert_eq!(t.count_named_phase("stall", 'B'), 1);
        assert_eq!(t.count_named("missing"), 0);
    }

    #[test]
    fn flight_recorder_keeps_tail() {
        let mut t = Tracer::with_flight_capacity(TraceLevel::Event, 4);
        let tr = t.register_track("p", "t");
        for i in 0..10 {
            t.set_now(i);
            t.instant(tr, &format!("e{i}"));
        }
        let snap = t.flight_snapshot();
        assert!(snap.contains("last 4 of 10 events"));
        assert!(snap.contains("e9"));
        assert!(!snap.contains("e5\n"));
    }

    #[test]
    fn probe_shares_tracer() {
        let shared = shared(Tracer::new(TraceLevel::Event));
        let a = ModuleProbe::new(shared.clone(), "tile (0,0)", "GPE");
        let b = ModuleProbe::new(shared.clone(), "tile (0,0)", "DNA");
        shared.borrow_mut().set_now(7);
        a.instant("x");
        b.counter("depth", 2.0);
        assert_eq!(shared.borrow().event_count(), 2);
        assert_eq!(shared.borrow().track_count(), 2);
    }
}
