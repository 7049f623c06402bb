//! The daemon: TCP acceptor, per-connection handlers, per-instance
//! batch workers, routing, backpressure, and graceful shutdown.
//!
//! Threading model (std-only): one acceptor thread, one handler thread
//! per live connection (blocking I/O), and one worker thread per
//! simulated accelerator instance. A handler parses a job, routes it to
//! an instance queue by batch-key affinity (jobs that can batch land on
//! the same instance), and blocks on the job's private response
//! channel; workers pop coalesced batches and execute them on the
//! shared engine.
//!
//! Overload protection is layered: `--max-conns` refuses connections
//! past the limit with an immediate 503; per-tenant token buckets
//! throttle floods at admission (HTTP 429 with a refill-derived
//! `Retry-After`); a full queue answers 429 with a pressure-derived
//! `Retry-After`; jobs whose `deadline_ms` the backlog cannot meet are
//! shed at accept time; and past the degrade watermark, cycle-mode
//! jobs are answered in functional mode (flagged in the response)
//! instead of rejected. While a handler waits for its worker it polls
//! the socket, so a disconnected client's job is cancelled before it
//! burns simulator time.
//!
//! Shutdown (`POST /shutdown` — there is no portable std signal hook)
//! closes every queue so workers drain their backlog and exit, then
//! wakes the acceptor with a loopback connect; jobs admitted before the
//! close are all answered.

use crate::engine::Engine;
use crate::http::{read_request, write_response, Request};
use crate::protocol::{error_body, parse_job, JobInput};
use crate::queue::{BatchKey, BatchQueue, Job, PushError, TenantPolicy};
use crate::stats::ServeStats;
use crate::trace::{next_span_id, SpanTracer};
use gnna_bench::Scale;
use gnna_core::config::AcceleratorConfig;
use gnna_executor::Executor;
use std::hash::{Hash, Hasher};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Simulated accelerator instances (one batch queue + worker each).
    pub instances: usize,
    /// Largest batch one instance coalesces.
    pub max_batch: usize,
    /// Bounded-latency flush window: how long a worker holds a partial
    /// batch open for stragglers.
    pub flush: Duration,
    /// Per-instance queue bound (admission control → HTTP 429).
    pub queue_cap: usize,
    /// Shared executor thread budget for response assembly.
    pub threads: usize,
    /// Accelerator configuration cycle-accurate jobs simulate on.
    pub accel: AcceleratorConfig,
    /// Dataset scale for named benchmark inputs.
    pub scale: Scale,
    /// Per-connection read timeout: a connection that sends no complete
    /// request within this window is closed (slowloris defence).
    /// `Duration::ZERO` disables the timeout.
    pub read_timeout: Duration,
    /// When set, record request/batch spans and write the Chrome trace
    /// JSON here once the daemon drains.
    pub trace_out: Option<String>,
    /// Tenant admission policy (token buckets + DRR weights).
    pub policy: TenantPolicy,
    /// Live-connection limit; past it new connections get an immediate
    /// 503. `0` disables the limit.
    pub max_conns: usize,
    /// Graceful-degradation watermark: cycle-mode jobs admitted while a
    /// queue's backlog is at or past this depth run in functional mode
    /// (flagged `"degraded":true`). `0` disables degradation.
    pub degrade_watermark: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            instances: 4,
            max_batch: 16,
            flush: Duration::from_millis(1),
            queue_cap: 256,
            threads: 1,
            accel: AcceleratorConfig::gpu_iso_bandwidth(),
            scale: Scale::Smoke,
            read_timeout: Duration::from_millis(5000),
            trace_out: None,
            policy: TenantPolicy::default(),
            max_conns: 0,
            degrade_watermark: 0,
        }
    }
}

struct Shared {
    engine: Engine,
    queues: Vec<Arc<BatchQueue>>,
    stats: ServeStats,
    shutdown: AtomicBool,
    addr: SocketAddr,
    read_timeout: Duration,
    tracer: Option<Arc<SpanTracer>>,
    conns: AtomicUsize,
    max_conns: usize,
}

impl Shared {
    /// Idempotent shutdown trigger: close the queues (workers drain and
    /// exit) and wake the acceptor.
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            for q in &self.queues {
                q.close();
            }
            // The acceptor blocks in accept(); a loopback connect wakes
            // it to observe the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn queue_depths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.depth()).collect()
    }
}

/// A running daemon: its bound address plus join/shutdown handles.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    trace_out: Option<String>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Triggers a graceful shutdown (same path as `POST /shutdown`).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Waits for the acceptor and every instance worker to exit.
    /// In-flight batches finish first — that is the drain guarantee.
    /// With `trace_out` configured, the request-span Chrome trace is
    /// written once the workers are done.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        if let (Some(path), Some(tracer)) = (&self.trace_out, &self.shared.tracer) {
            if let Err(e) = tracer.write_to(path) {
                eprintln!("gnna-serve: failed to write trace {path}: {e}");
            }
        }
    }
}

/// Routes a job to an instance queue: batch-key affinity (so
/// coalescible jobs meet in one queue) spread by dataset-instance index
/// (so multi-graph datasets use every accelerator instance).
fn route(request_key: &BatchKey, input: &JobInput, instances: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    request_key.hash(&mut h);
    if let JobInput::Named { instance, .. } = input {
        (instance / 8).hash(&mut h); // groups of 8 keep batches dense
    }
    (h.finish() % instances as u64) as usize
}

/// Whether the client hung up: a non-blocking peek returning EOF (or a
/// hard error) on the connection's socket. `WouldBlock` — or pending
/// bytes — mean the client is still there.
fn client_gone(probe: &TcpStream) -> bool {
    if probe.set_nonblocking(true).is_err() {
        return false;
    }
    let mut buf = [0u8; 1];
    let gone = match probe.peek(&mut buf) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = probe.set_nonblocking(false);
    gone
}

/// How often the waiting handler polls the socket for a disconnect.
const CANCEL_POLL: Duration = Duration::from_millis(25);

fn handle_infer(
    shared: &Shared,
    body: &str,
    probe: Option<&TcpStream>,
) -> (u16, String, Vec<(&'static str, String)>) {
    let admitted = Instant::now();
    let request = match parse_job(body) {
        Ok(r) => r,
        Err(msg) => {
            shared
                .stats
                .record_request(400, admitted.elapsed().as_micros() as u64);
            return (400, error_body(&msg), Vec::new());
        }
    };
    let tenant = request.tenant.clone();
    let deadline_ms = request.deadline_ms;
    let key = BatchKey::of(&request);
    let qi = route(&key, &request.input, shared.queues.len());
    let (tx, rx) = std::sync::mpsc::channel();
    let job = Job::new(request, tx, next_span_id());
    let cancel = Arc::clone(&job.cancelled);
    match shared.queues[qi].push(job) {
        Ok(admission) => {
            shared.stats.record_admitted(&tenant, admission.degraded);
        }
        Err(PushError::Full { retry_after_s, .. }) => {
            shared.stats.record_rejected(&tenant);
            shared
                .stats
                .record_request(429, admitted.elapsed().as_micros() as u64);
            return (
                429,
                error_body("queue full, retry later"),
                vec![("Retry-After", retry_after_s.to_string())],
            );
        }
        Err(PushError::Throttled { retry_after_s, .. }) => {
            shared.stats.record_throttled(&tenant);
            shared
                .stats
                .record_request(429, admitted.elapsed().as_micros() as u64);
            return (
                429,
                error_body("tenant over quota, retry later"),
                vec![("Retry-After", retry_after_s.to_string())],
            );
        }
        Err(PushError::DeadlineUnmeetable {
            estimated_wait_ms,
            retry_after_s,
            ..
        }) => {
            shared.stats.record_shed_deadline(&tenant);
            shared
                .stats
                .record_request(429, admitted.elapsed().as_micros() as u64);
            return (
                429,
                error_body(&format!(
                    "deadline unmeetable: estimated wait {estimated_wait_ms} ms"
                )),
                vec![("Retry-After", retry_after_s.to_string())],
            );
        }
        Err(PushError::Closed(_)) => {
            shared
                .stats
                .record_request(503, admitted.elapsed().as_micros() as u64);
            return (503, error_body("server is shutting down"), Vec::new());
        }
    }
    // The worker owns the job now; while waiting, poll the socket so a
    // vanished client cancels the job instead of burning simulator
    // time. The recv_err path (dropped channel on a worker bug) ends
    // the wait too.
    let outcome = loop {
        match rx.recv_timeout(CANCEL_POLL) {
            Ok(o) => break Ok(o),
            Err(RecvTimeoutError::Disconnected) => break Err(()),
            Err(RecvTimeoutError::Timeout) => {
                if let Some(probe) = probe {
                    if client_gone(probe) {
                        cancel.store(true, Ordering::Relaxed);
                        // Nobody is listening; count it and give up. If
                        // the worker already adopted the job, its
                        // outcome is discarded with the channel.
                        shared
                            .stats
                            .record_request(499, admitted.elapsed().as_micros() as u64);
                        return (499, String::new(), Vec::new());
                    }
                }
            }
        }
    };
    let latency_us = admitted.elapsed().as_micros() as u64;
    match outcome {
        Ok(o) => {
            shared.stats.record_request(o.status, latency_us);
            if o.status == 200 {
                let missed = deadline_ms.is_some_and(|d| latency_us > d.saturating_mul(1_000));
                shared.stats.record_tenant_ok(&tenant, missed);
            }
            (o.status, o.body, Vec::new())
        }
        Err(()) => {
            shared.stats.record_request(500, latency_us);
            (500, error_body("worker dropped the job"), Vec::new())
        }
    }
}

fn handle_request(
    shared: &Shared,
    req: &Request,
    probe: Option<&TcpStream>,
) -> (u16, String, Vec<(&'static str, String)>) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".to_string(), Vec::new()),
        ("GET", "/stats") => (
            200,
            shared.stats.snapshot_json(&shared.queue_depths()),
            Vec::new(),
        ),
        ("POST", "/v1/infer") => handle_infer(shared, &req.body, probe),
        ("POST", "/shutdown") => {
            shared.trigger_shutdown();
            (200, "{\"status\":\"draining\"}".to_string(), Vec::new())
        }
        ("GET" | "POST", _) => (404, error_body("no such endpoint"), Vec::new()),
        _ => (405, error_body("method not allowed"), Vec::new()),
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    if shared.read_timeout > Duration::ZERO {
        stream.set_read_timeout(Some(shared.read_timeout))?;
    }
    // A reply that overflows the writer's buffer leaves in two writes;
    // with Nagle on, the short second one would wait for the client's
    // delayed ACK (about 40 ms on loopback).
    stream.set_nodelay(true)?;
    // One clone feeds the reader, another probes for disconnects while
    // a job waits in the queue (same fd; this thread owns both uses).
    let probe = stream.try_clone()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => break,
            // A connection idling past the read timeout is closed
            // without tearing anything down — the slowloris defence.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break;
            }
            Err(e) => return Err(e),
        };
        let close = req.wants_close() || shared.shutdown.load(Ordering::SeqCst);
        let (status, body, extra) = handle_request(shared, &req, Some(&probe));
        if status == 499 {
            // Client disconnected while its job was queued — nothing to
            // write to.
            break;
        }
        let headers: Vec<(&str, &str)> = extra.iter().map(|(n, v)| (*n, v.as_str())).collect();
        write_response(&mut writer, status, &headers, &body, close)?;
        if close {
            break;
        }
    }
    Ok(())
}

/// Decrements the live-connection gauge when a handler exits, however
/// it exits.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Refuses a connection past `--max-conns`: minimal 503 with
/// `Retry-After`, then close. Written raw (no BufWriter) so the
/// acceptor never blocks on a slow client.
fn refuse_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let body = error_body("connection limit reached, retry later");
    let resp = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
}

/// Binds and starts the daemon; returns once it is accepting.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let instances = cfg.instances.max(1);
    let queues: Vec<Arc<BatchQueue>> = (0..instances)
        .map(|_| {
            Arc::new(BatchQueue::with_policy(
                cfg.queue_cap,
                cfg.policy.clone(),
                cfg.degrade_watermark,
            ))
        })
        .collect();
    let tracer = cfg.trace_out.as_ref().map(|_| Arc::new(SpanTracer::new()));
    let shared = Arc::new(Shared {
        engine: Engine::new(cfg.accel.clone(), cfg.scale, Executor::new(cfg.threads))
            .with_tracer(tracer.clone()),
        queues,
        stats: ServeStats::new(),
        shutdown: AtomicBool::new(false),
        addr,
        read_timeout: cfg.read_timeout,
        tracer,
        conns: AtomicUsize::new(0),
        max_conns: cfg.max_conns,
    });

    let mut workers = Vec::with_capacity(instances);
    for qi in 0..instances {
        let shared = Arc::clone(&shared);
        let max_batch = cfg.max_batch;
        let flush = cfg.flush;
        workers.push(std::thread::spawn(move || {
            let queue = Arc::clone(&shared.queues[qi]);
            while let Some(batch) = queue.pop_batch(max_batch, flush) {
                shared.stats.record_batch(batch.len());
                let started = Instant::now();
                let executed = batch.len() as u64;
                shared.engine.execute_batch(qi, batch);
                // Feed the admission-control wait estimator and flush
                // cancel/RSS accounting between batches.
                queue.note_service(started.elapsed().as_micros() as u64 / executed.max(1));
                shared.stats.record_cancelled(queue.take_cancelled());
                shared.stats.sample_rss();
            }
            shared.stats.record_cancelled(queue.take_cancelled());
        }));
    }

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if shared.max_conns > 0 && shared.conns.load(Ordering::SeqCst) >= shared.max_conns {
                    shared.stats.record_conn_rejected();
                    // Refuse on a short-lived thread so one slow client
                    // cannot stall the acceptor.
                    std::thread::spawn(move || refuse_connection(stream));
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let guard = ConnGuard(Arc::clone(&shared));
                    let _ = handle_connection(&shared, stream);
                    drop(guard);
                });
            }
        })
    };

    Ok(ServerHandle {
        shared,
        acceptor,
        workers,
        trace_out: cfg.trace_out.clone(),
    })
}
