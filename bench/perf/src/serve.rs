//! The `serve-*` workloads: an in-process `gnna-serve` daemon driven by
//! a closed loop of two clients on two connections.
//!
//! The loop is closed because the benchmark host has two cores: each
//! client sends its next job when the previous reply arrives, so load
//! uses at most two threads and two connections. An open loop on two
//! connections would only move the queue into the client.

use crate::cases;
use crate::client::Conn;
use crate::record::Value;
use crate::spans::Spans;
use crate::stats::{median, nearest_rank};
use crate::{Measured, Opts};
use gnna_bench::accuracy::compare_rows;
use gnna_bench::{BenchCase, BenchError};
use gnna_models::ModelKind;
use gnna_serve::loadgen::raw_rows;
use gnna_serve::protocol::{push_rows, ExecMode};
use gnna_serve::server::{serve, ServeConfig, ServerHandle};
use gnna_telemetry::json::{self, JsonValue};
use rand::prelude::*;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The daemon's request stages, in order, as named in reply telemetry.
const STAGES: [&str; 4] = ["queue", "coalesce", "simulate", "respond"];

/// Daemon boots per untraced run; `setup_s` is their median. The first
/// daemon serves the timed loop; the others boot after it.
const SETUP_REPS: usize = 3;

/// Closed-loop clients, one connection each.
const CLIENTS: u64 = 2;

/// The seed `gnna_bench::build_case` (and so the daemon) builds its
/// named datasets with; `--seed` picks the job sequence instead.
const DAEMON_SEED: u64 = 42;

/// Largest error a cycle-mode row may show against the functional
/// reference, relative to the row's largest magnitude. The daemon
/// simulates a union graph per batch, and the batch composition changes
/// the order of floating-point aggregation, so an element near zero can
/// be off by a large share of itself while the row is still right.
const MAX_ROW_REL_ERR: f64 = 1e-4;

/// `max |sim - ref| / max |ref|` over one row.
fn row_rel_err(reference: &[f32], simulated: &[f32]) -> f64 {
    let scale = reference
        .iter()
        .fold(0f64, |m, r| m.max(f64::from(*r).abs()));
    let diff = reference.iter().zip(simulated).fold(0f64, |m, (r, s)| {
        m.max((f64::from(*s) - f64::from(*r)).abs())
    });
    diff / scale.max(f64::MIN_POSITIVE)
}

/// One serving workload: a job type sent over and over.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// Model of every job.
    pub model: ModelKind,
    /// Named dataset of every job.
    pub input: &'static str,
    /// Execution mode of every job.
    pub mode: ExecMode,
}

impl ServeWorkload {
    /// MPNN:QM9 cycle-mode jobs on seeded random molecules: the daemon
    /// builds one small `System` per batch, so coalescing and the
    /// simulate stage dominate.
    pub fn cycle() -> Self {
        ServeWorkload {
            model: ModelKind::Mpnn,
            input: "QM9_1000",
            mode: ExecMode::CycleAccurate,
        }
    }

    /// GCN:Cora functional jobs with ~200 KB replies: the simulator is
    /// bypassed, so HTTP, queueing, the flush window, cloning and
    /// serialization carry all the time.
    pub fn functional() -> Self {
        ServeWorkload {
            model: ModelKind::Gcn,
            input: "Cora",
            mode: ExecMode::Functional,
        }
    }
}

/// What a job's reply must contain.
struct Expected {
    case: BenchCase,
    /// `push_rows` of the whole reference, for byte comparison of
    /// functional replies.
    functional_rows: String,
}

/// Client-side view of one closed-loop phase.
#[derive(Debug, Default)]
struct Phase {
    wall_s: f64,
    /// Client-observed latency of every correct reply.
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Summed queue, coalesce, simulate and respond µs from the replies.
    stage_us: [f64; 4],
    /// Largest row-relative error of a checked reply.
    worst_err: f64,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.worst_err = self.worst_err.max(other.worst_err);
        for (a, b) in self.stage_us.iter_mut().zip(other.stage_us) {
            *a += b;
        }
    }

    fn sorted_latencies(&self) -> Vec<f64> {
        let mut v = self.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Correct replies per second.
    fn throughput(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s
    }
}

/// The `{...}` object following `"key":` in `body`, searched from the
/// end (the key sits after the rows).
fn object_after<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.rfind(&format!("\"{key}\":{{"))? + key.len() + 3;
    let mut depth = 0usize;
    for (i, b) in body.bytes().enumerate().skip(start) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[start..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

fn parse_rows(raw: &str) -> Option<Vec<Vec<f32>>> {
    json::parse(raw)
        .ok()?
        .as_array()?
        .iter()
        .map(|row| {
            row.as_array()?
                .iter()
                .map(|v| match v {
                    JsonValue::Null => Some(f32::NAN),
                    v => v.as_f64().map(|f| f as f32),
                })
                .collect()
        })
        .collect()
}

impl Expected {
    /// Checks one 200 reply for `instance`; returns the row-relative
    /// error, or says what differs.
    fn check(&self, w: &ServeWorkload, instance: usize, body: &str) -> Result<f64, String> {
        let raw = raw_rows(body).ok_or("reply has no rows")?;
        match w.mode {
            ExecMode::Functional if raw == self.functional_rows => Ok(0.0),
            ExecMode::Functional => Err("rows differ from the reference bytes".into()),
            ExecMode::CycleAccurate => {
                let rows = parse_rows(raw).ok_or("rows are not an array of number arrays")?;
                let reference = &self.case.reference[instance..=instance];
                let a = compare_rows(reference, &rows).map_err(|e| e.to_string())?;
                let err = row_rel_err(&reference[0], &rows[0]);
                if a.label_flips == 0 && a.nonfinite == 0 && err <= MAX_ROW_REL_ERR {
                    Ok(err)
                } else {
                    Err(format!("row error {err:e} vs the reference: {a:?}"))
                }
            }
        }
    }
}

fn job_body(w: &ServeWorkload, id: &str, instance: usize) -> String {
    format!(
        "{{\"id\":\"{id}\",\"model\":\"{}\",\"input\":\"{}\",\"instance\":{instance},\"mode\":\"{}\"}}",
        w.model.name().to_ascii_lowercase(),
        w.input.to_ascii_lowercase(),
        w.mode.as_str()
    )
}

/// Sends one job and checks its reply; adds the outcome to `phase`.
fn send_job(
    conn: &mut Conn,
    w: &ServeWorkload,
    expected: &Expected,
    id: &str,
    instance: usize,
    phase: &mut Phase,
) {
    phase.attempted += 1;
    let sent = Instant::now();
    let reply = conn.request("POST", "/v1/infer", &job_body(w, id, instance));
    let latency = sent.elapsed();
    let checked = match &reply {
        Ok(r) if r.status == 200 => expected.check(w, instance, &r.body),
        Ok(r) => Err(format!("HTTP {}: {}", r.status, r.body)),
        Err(e) => Err(e.to_string()),
    };
    match checked {
        Ok(err) => phase.worst_err = phase.worst_err.max(err),
        Err(e) => {
            eprintln!("gnna-perf: job {id} (instance {instance}): {e}");
            phase.failed += 1;
            return;
        }
    }
    phase.latencies_ms.push(latency.as_secs_f64() * 1e3);
    let telemetry = reply
        .ok()
        .and_then(|r| object_after(&r.body, "telemetry").and_then(|t| json::parse(t).ok()));
    if let Some(t) = telemetry {
        for (slot, stage) in phase.stage_us.iter_mut().zip(STAGES) {
            *slot += t
                .get(&format!("{stage}_us"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
        }
    }
}

/// Runs the closed loop for `seconds`; `tag` keeps job ids unique.
fn closed_loop(
    addr: SocketAddr,
    w: &ServeWorkload,
    expected: &Expected,
    seed: u64,
    seconds: f64,
    tag: &str,
) -> Phase {
    let instances = expected.case.dataset.instances.len();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    let takes: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    let mut p = Phase::default();
                    let mut conn = match Conn::open(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("gnna-perf: client {client}: {e}");
                            p.attempted = 1;
                            p.failed = 1;
                            return p;
                        }
                    };
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (client + 1).wrapping_mul(0xa076_1d64_78bd_642f),
                    );
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let instance = rng.random_range(0..instances);
                        let id = format!("{tag}-c{client}-{n}");
                        send_job(&mut conn, w, expected, &id, instance, &mut p);
                        n += 1;
                    }
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    phase.wall_s = started.elapsed().as_secs_f64();
    for t in takes {
        phase.merge(t);
    }
    phase
}

/// `serve.batches` and `serve.batched_jobs` from `/stats`.
fn batch_counters(addr: SocketAddr) -> Option<(f64, f64)> {
    let reply = Conn::open(addr).ok()?.request("GET", "/stats", "").ok()?;
    let stats = json::parse(&reply.body).ok()?;
    let get = |k: &str| stats.get(k).and_then(JsonValue::as_f64);
    Some((get("serve.batches")?, get("serve.batched_jobs")?))
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// Boots a daemon and waits for its first 200 on a cold case; returns
/// the handle and the boot-to-reply seconds.
fn boot(
    cfg: ServeConfig,
    w: &ServeWorkload,
    expected: &Expected,
    out: &mut Measured,
) -> Result<(ServerHandle, f64), BenchError> {
    let started = Instant::now();
    let handle = serve(cfg)?;
    let mut phase = Phase::default();
    let mut conn = Conn::open(handle.addr())?;
    send_job(&mut conn, w, expected, "setup", 0, &mut phase);
    let s = started.elapsed().as_secs_f64();
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    Ok((handle, s))
}

/// Runs a serving workload.
///
/// # Errors
///
/// Reference-build and daemon-boot failures; job failures are counted.
pub fn run(
    w: &ServeWorkload,
    opts: &Opts,
    spans: &mut Spans,
    trace_out: &str,
) -> Result<Measured, BenchError> {
    let mut out = Measured::default();
    let (case, times) = cases::build(w.model, w.input, opts.scale, DAEMON_SEED, spans)?;
    let mut functional_rows = String::new();
    push_rows(&mut functional_rows, &case.reference);
    let expected = Expected {
        case,
        functional_rows,
    };
    let cfg = ServeConfig {
        instances: 2,
        max_batch: 16,
        flush: Duration::from_millis(1),
        accel: gnna_bench::configurations(2.4e9)[1].clone(),
        scale: opts.scale,
        ..ServeConfig::default()
    };

    let (booted, _) = spans.time("boot 0", || boot(cfg.clone(), w, &expected, &mut out));
    let (daemon, first_setup_s) = booted?;
    let mut setup_s = vec![first_setup_s];
    let addr = daemon.addr();

    let seconds = opts.seconds as f64;
    let timed_s = if opts.trace { seconds * 0.75 } else { seconds };
    let before = batch_counters(addr);
    let (timed, _) = spans.time("closed loop", || {
        closed_loop(addr, w, &expected, opts.seed, timed_s, "t")
    });
    // Peak memory of one daemon serving the loop, read before further
    // boots add allocator history to it.
    let peak_rss_mb = crate::stats::peak_rss_mb()?;
    let after = batch_counters(addr);
    spans.time("shutdown", || stop(daemon));
    out.attempted += timed.attempted;
    out.failed += timed.failed;
    if !opts.trace {
        for rep in 1..SETUP_REPS {
            let (booted, _) = spans.time(&format!("boot {rep}"), || {
                boot(cfg.clone(), w, &expected, &mut out)
            });
            let (daemon, s) = booted?;
            setup_s.push(s);
            spans.time("shutdown", || stop(daemon));
        }
    }

    let lat = timed.sorted_latencies();
    let p50 = nearest_rank(&lat, 0.50);
    out.extra
        .insert("samples".into(), Value::once(lat.len() as f64));
    out.extra
        .insert("p95_ms".into(), Value::once(nearest_rank(&lat, 0.95)));
    out.extra
        .insert("p99_ms".into(), Value::once(nearest_rank(&lat, 0.99)));
    out.extra
        .insert("worst_row_rel_err".into(), Value::once(timed.worst_err));

    if !opts.trace {
        let m = &mut out.metrics;
        m.insert("setup_s".into(), Value::median_of(setup_s));
        m.insert("peak_rss_mb".into(), Value::once(peak_rss_mb));
        m.insert("latency_ms".into(), Value::once(p50));
        m.insert("throughput".into(), Value::once(timed.throughput()));
        return Ok(out);
    }

    // The traced phase: a second daemon recording request spans.
    let traced_cfg = ServeConfig {
        trace_out: Some(trace_out.to_string()),
        ..cfg
    };
    let (booted, _) = spans.time("boot traced", || boot(traced_cfg, w, &expected, &mut out));
    let (traced_daemon, _) = booted?;
    let (traced, _) = spans.time("traced closed loop", || {
        closed_loop(
            traced_daemon.addr(),
            w,
            &expected,
            opts.seed,
            seconds - timed_s,
            "x",
        )
    });
    spans.time("shutdown traced", || stop(traced_daemon));
    out.attempted += traced.attempted;
    out.failed += traced.failed;

    let m = &mut out.metrics;
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), Value::once(v));
    };
    put("graph.generate_s", times.generate_s);
    put("models.reference_s", times.reference_s);
    put("core.compile_s", times.compile_s);
    let latency_us = 1e3 * timed.latencies_ms.iter().sum::<f64>();
    let share = |us: f64| 100.0 * us / latency_us;
    for (stage, us) in STAGES.iter().zip(timed.stage_us) {
        put(&format!("serve.{stage}_pct"), share(us));
    }
    // What the daemon's stages do not cover: HTTP framing, the socket
    // and the client.
    put(
        "serve.http_pct",
        share(latency_us - timed.stage_us.iter().sum::<f64>()),
    );
    let batch_mean = match (before, after) {
        (Some((b0, j0)), Some((b1, j1))) if b1 > b0 => (j1 - j0) / (b1 - b0),
        _ => 0.0,
    };
    put("serve.batch_mean", batch_mean);
    put(
        "trace_overhead",
        median(&traced.latencies_ms) / median(&timed.latencies_ms) - 1.0,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_object_is_found_after_the_rows() {
        let body = r#"{"id":"a","rows":[[1,2]],"telemetry":{"queue_us":3,"stalls":{"x":1}},"accuracy":{"nonfinite":0}}"#;
        let t = json::parse(object_after(body, "telemetry").unwrap()).unwrap();
        assert_eq!(t.get("queue_us").and_then(JsonValue::as_u64), Some(3));
        assert!(object_after(body, "missing").is_none());
    }

    #[test]
    fn row_error_is_relative_to_the_row_scale() {
        // A near-zero element off by half of itself is a tiny row error.
        assert!(row_rel_err(&[1.0, 1e-4], &[1.0, 1.5e-4]) < 1e-4);
        assert!(row_rel_err(&[1.0, 2.0], &[1.0, 2.1]) > 1e-2);
        assert_eq!(row_rel_err(&[0.0], &[0.0]), 0.0);
    }

    #[test]
    fn rows_parse_with_null_as_nan() {
        let rows = parse_rows("[[1.5,null],[2]]").unwrap();
        assert_eq!(rows[0][0], 1.5);
        assert!(rows[0][1].is_nan());
        assert!(parse_rows("[1]").is_none());
    }
}
