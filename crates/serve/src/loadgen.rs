//! Fixed-seed load harness: drives a running daemon with a
//! deterministic job schedule, measures sustained throughput and
//! latency quantiles client-side, and captures the raw `rows` bytes of
//! every response so callers can assert bit-identity (batched vs
//! unbatched vs the functional reference).
//!
//! [`run_soak`] (behind `gnna-serve --soak-secs`) is the sustained
//! overload harness: open-loop mixed-tenant arrivals — one well-behaved
//! tenant, one quota-limited flooder — with client-side capped
//! exponential backoff (deterministic LCG jitter) honouring
//! `Retry-After`. It measures the light tenant's p99 isolated and under
//! flood (the fairness ratio the DRR scheduler must hold), tracks the
//! daemon's RSS ceiling over the run, and renders everything into
//! `BENCH_serve_soak.json`.

use crate::http::{read_response, Response};
use crate::protocol::ExecMode;
use crate::queue::{QuotaSpec, TenantPolicy};
use crate::server::{serve, ServeConfig};
use gnna_bench::Scale;
use gnna_core::config::AcceleratorConfig;
use gnna_models::ModelKind;
use gnna_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A deterministic load schedule.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Total jobs to submit.
    pub jobs: usize,
    /// Concurrent client connections (job `j` goes to client `j %
    /// concurrency` — fixed, so every run submits the same schedule).
    pub concurrency: usize,
    /// Model for every job.
    pub model: ModelKind,
    /// Dataset name for every job (canonical, e.g. `"QM9_1000"`).
    pub input: &'static str,
    /// Dataset instance count to cycle through (job `j` uses instance
    /// `j % dataset_instances`).
    pub dataset_instances: usize,
    /// Execution mode for every job.
    pub mode: ExecMode,
}

/// Client-side measurements of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs answered 200.
    pub ok: usize,
    /// 429 rejections observed (each is retried until accepted).
    pub rejected: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Sustained completed requests per second.
    pub req_per_s: f64,
    /// Client-observed latency quantiles, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
}

/// A load run's outcome: the measurements plus the raw `rows` bytes of
/// each response keyed by job id (for bit-identity assertions).
#[derive(Debug)]
pub struct LoadOutcome {
    /// Measurements.
    pub report: LoadReport,
    /// `job id → raw "rows" JSON substring` from each 200 response.
    pub rows_by_id: BTreeMap<String, String>,
}

/// Sends one request over an open connection and reads the response.
///
/// The request leaves in a single `write_all` with Nagle's algorithm
/// off: split small writes let Nagle hold the last segment until the
/// daemon's delayed ACK fires, adding about 40 ms to a loopback request.
///
/// # Errors
///
/// I/O and framing errors.
pub fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<Response> {
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: gnna-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    read_response(reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))
}

/// Extracts the raw `"rows":[...]` value bytes from a response body
/// without reparsing floats (reparsing would destroy bit-identity).
pub fn raw_rows(body: &str) -> Option<&str> {
    let start = body.find("\"rows\":")? + "\"rows\":".len();
    let bytes = body.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'[' => depth += 1,
            b']' => {
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

fn job_body(spec: &LoadSpec, j: usize) -> String {
    format!(
        "{{\"id\":\"job{j}\",\"model\":\"{}\",\"input\":\"{}\",\"instance\":{},\"mode\":\"{}\"}}",
        spec.model.name().to_ascii_lowercase(),
        spec.input.to_ascii_lowercase(),
        j % spec.dataset_instances.max(1),
        spec.mode.as_str()
    )
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// One client thread's takings: (id, raw rows) pairs, per-job
/// latencies in µs, and the 429-retry count.
type ClientTake = (Vec<(String, String)>, Vec<u64>, usize);

/// Runs the load schedule against a daemon at `addr`. 429 responses are
/// retried after the advertised `Retry-After` (counted, not failed).
///
/// # Errors
///
/// The first client I/O error or non-(200|429) response.
pub fn run_load(addr: SocketAddr, spec: &LoadSpec) -> Result<LoadOutcome, String> {
    let concurrency = spec.concurrency.max(1);
    let started = Instant::now();
    let results: Vec<Result<ClientTake, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(concurrency);
        for c in 0..concurrency {
            let spec = &spec;
            handles.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                let mut rows = Vec::new();
                let mut latencies = Vec::new();
                let mut rejected = 0usize;
                let mut j = c;
                while j < spec.jobs {
                    let body = job_body(spec, j);
                    let sent = Instant::now();
                    let resp = roundtrip(&mut stream, &mut reader, "POST", "/v1/infer", &body)
                        .map_err(|e| e.to_string())?;
                    match resp.status {
                        200 => {
                            latencies.push(sent.elapsed().as_micros() as u64);
                            let r = raw_rows(&resp.body)
                                .ok_or_else(|| format!("no rows in: {}", resp.body))?;
                            rows.push((format!("job{j}"), r.to_string()));
                            j += concurrency;
                        }
                        429 => {
                            rejected += 1;
                            let wait = resp
                                .header("retry-after")
                                .and_then(|v| v.parse::<u64>().ok())
                                .unwrap_or(1)
                                .min(1);
                            std::thread::sleep(Duration::from_millis(wait * 20));
                        }
                        other => return Err(format!("job{j}: HTTP {other}: {}", resp.body)),
                    }
                }
                Ok((rows, latencies, rejected))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64().max(1e-9);

    let mut rows_by_id = BTreeMap::new();
    let mut latencies = Vec::with_capacity(spec.jobs);
    let mut rejected = 0usize;
    for r in results {
        let (rows, lat, rej) = r?;
        rows_by_id.extend(rows);
        latencies.extend(lat);
        rejected += rej;
    }
    latencies.sort_unstable();
    let ok = latencies.len();
    Ok(LoadOutcome {
        report: LoadReport {
            jobs: spec.jobs,
            ok,
            rejected,
            wall_s,
            req_per_s: ok as f64 / wall_s,
            p50_us: quantile(&latencies, 0.50),
            p95_us: quantile(&latencies, 0.95),
            p99_us: quantile(&latencies, 0.99),
        },
        rows_by_id,
    })
}

/// Fetches and parses `/stats` from a running daemon.
///
/// # Errors
///
/// I/O or JSON errors.
pub fn fetch_stats(addr: SocketAddr) -> Result<JsonValue, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let resp =
        roundtrip(&mut stream, &mut reader, "GET", "/stats", "").map_err(|e| e.to_string())?;
    json::parse(&resp.body)
}

/// Asks a daemon to shut down and waits for its threads to exit.
pub fn shutdown_and_join(handle: crate::server::ServerHandle) {
    handle.shutdown();
    handle.join();
}

fn stat_u64(stats: &JsonValue, name: &str) -> u64 {
    stats.get(name).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Knobs for the sustained soak run.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Mixed-phase duration, seconds.
    pub secs: u64,
    /// Light tenant's open-loop arrival rate, jobs/s.
    pub light_rate: f64,
    /// Flooding tenant's attempted arrival rate, jobs/s (its admitted
    /// rate is clamped by the quota below).
    pub flood_rate: f64,
    /// Flooding tenant's admission quota, jobs/s.
    pub flood_quota: f64,
    /// Accelerator instances (1 keeps both tenants contending on one
    /// queue, which is the property under test).
    pub instances: usize,
    /// Largest coalesced batch.
    pub max_batch: usize,
    /// Per-instance queue bound.
    pub queue_cap: usize,
    /// Accelerator configuration.
    pub accel: AcceleratorConfig,
    /// Dataset scale.
    pub scale: Scale,
    /// Fail when the light tenant's mixed-phase p99 exceeds this
    /// multiple of its isolated p99.
    pub max_fairness: f64,
    /// Fail when the late-run RSS ceiling exceeds this multiple of the
    /// early-run ceiling (memory must stay flat under sustained load).
    pub max_rss_growth: f64,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            secs: 45,
            light_rate: 8.0,
            flood_rate: 60.0,
            flood_quota: 20.0,
            instances: 1,
            max_batch: 16,
            queue_cap: 64,
            accel: AcceleratorConfig::gpu_iso_bandwidth(),
            scale: Scale::Smoke,
            max_fairness: 2.0,
            max_rss_growth: 1.25,
        }
    }
}

/// Deterministic 64-bit LCG step (Knuth constants); the top bits feed
/// the jitter so soak schedules are reproducible.
fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Multiplicative jitter in `[0.5, 1.5)`.
fn jitter(state: &mut u64) -> f64 {
    0.5 + (lcg_next(state) % 1000) as f64 / 1000.0
}

/// One soak worker's client-side tallies.
#[derive(Debug, Default, Clone)]
struct SoakTake {
    sent: usize,
    ok: usize,
    backoffs_429: usize,
    dropped: usize,
    io_errors: usize,
    latencies_us: Vec<u64>,
}

impl SoakTake {
    fn merge(&mut self, other: SoakTake) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.backoffs_429 += other.backoffs_429;
        self.dropped += other.dropped;
        self.io_errors += other.io_errors;
        self.latencies_us.extend(other.latencies_us);
    }
}

/// Longest a soak client honours one `Retry-After`, milliseconds (the
/// header is seconds-granular; a mini-soak cannot idle that long).
const SOAK_BACKOFF_CAP_MS: u64 = 400;
/// 429 retries before a soak client drops the job.
const SOAK_MAX_RETRIES: usize = 3;

/// One open-loop soak worker: paced arrivals until `end`, capped
/// exponential backoff with jitter on 429, reconnect-once on I/O
/// errors.
fn soak_worker(
    addr: SocketAddr,
    tenant: &str,
    model: &str,
    rate_per_s: f64,
    end: Instant,
    seed: u64,
) -> SoakTake {
    let mut take = SoakTake::default();
    let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
    let interarrival = Duration::from_secs_f64(1.0 / rate_per_s.max(0.1));
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    let mut due = Instant::now();
    let mut job = 0usize;
    while Instant::now() < end {
        // Open-loop pacing with deterministic jitter: the schedule does
        // not slow down because the server is slow.
        due += interarrival.mul_f64(jitter(&mut rng));
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let body = format!(
            "{{\"id\":\"{tenant}-{job}\",\"model\":\"{model}\",\"input\":\"cora\",\
             \"mode\":\"cycle\",\"tenant\":\"{tenant}\"}}"
        );
        job += 1;
        take.sent += 1;
        let mut attempt = 0usize;
        loop {
            if conn.is_none() {
                conn = TcpStream::connect(addr).ok().and_then(|s| {
                    let r = BufReader::new(s.try_clone().ok()?);
                    Some((s, r))
                });
            }
            let Some((stream, reader)) = conn.as_mut() else {
                take.io_errors += 1;
                break;
            };
            let sent_at = Instant::now();
            match roundtrip(stream, reader, "POST", "/v1/infer", &body) {
                Ok(resp) if resp.status == 200 => {
                    take.ok += 1;
                    take.latencies_us.push(sent_at.elapsed().as_micros() as u64);
                    break;
                }
                Ok(resp) if resp.status == 429 => {
                    take.backoffs_429 += 1;
                    if attempt >= SOAK_MAX_RETRIES || Instant::now() >= end {
                        take.dropped += 1;
                        break;
                    }
                    // Honour Retry-After (capped), escalate
                    // exponentially per attempt, jitter to avoid
                    // client synchronization.
                    let advertised_ms = resp
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(1)
                        .saturating_mul(1000)
                        .min(SOAK_BACKOFF_CAP_MS);
                    let wait_ms = (advertised_ms << attempt).min(SOAK_BACKOFF_CAP_MS * 2);
                    std::thread::sleep(Duration::from_millis(wait_ms).mul_f64(jitter(&mut rng)));
                    attempt += 1;
                }
                Ok(_) => {
                    // 503 while draining or an unexpected status: count
                    // and move on — a soak must survive transients.
                    take.dropped += 1;
                    break;
                }
                Err(_) => {
                    take.io_errors += 1;
                    conn = None; // reconnect on the next attempt
                    if attempt >= SOAK_MAX_RETRIES {
                        take.dropped += 1;
                        break;
                    }
                    attempt += 1;
                }
            }
        }
    }
    take
}

fn soak_boot(opts: &SoakOptions) -> Result<crate::server::ServerHandle, String> {
    serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        instances: opts.instances.max(1),
        max_batch: opts.max_batch,
        flush: Duration::from_millis(1),
        queue_cap: opts.queue_cap,
        threads: 1,
        accel: opts.accel.clone(),
        scale: opts.scale,
        policy: TenantPolicy {
            default_spec: QuotaSpec::unlimited(),
            tenants: vec![(
                "flood".to_string(),
                QuotaSpec {
                    rate_per_s: opts.flood_quota,
                    burst: opts.flood_quota.max(1.0),
                    weight: 1,
                },
            )],
        },
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())
}

fn percentiles_json(latencies: &mut [u64]) -> String {
    latencies.sort_unstable();
    format!(
        "\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"p999_us\":{}",
        quantile(latencies, 0.50),
        quantile(latencies, 0.95),
        quantile(latencies, 0.99),
        quantile(latencies, 0.999)
    )
}

fn tenant_take_json(name: &str, take: &SoakTake, sorted: &[u64]) -> String {
    format!(
        "\"{name}\":{{\"sent\":{},\"ok\":{},\"backoffs_429\":{},\"dropped\":{},\
         \"io_errors\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{}}}",
        take.sent,
        take.ok,
        take.backoffs_429,
        take.dropped,
        take.io_errors,
        quantile(sorted, 0.50),
        quantile(sorted, 0.99),
        quantile(sorted, 0.999)
    )
}

/// The sustained soak campaign: an isolated light-tenant phase to set
/// the fairness baseline, then a fresh daemon under light + flooding
/// tenants for `secs`, with an RSS monitor sampling `/stats`
/// throughout. Enforces the fairness bound (light p99 under flood ≤
/// `max_fairness` × isolated p99) and the flat-memory bound, and
/// returns the `BENCH_serve_soak.json` document.
///
/// # Errors
///
/// Boot failures, a fairness violation, RSS growth past the bound, or
/// a light tenant that got no successful responses.
pub fn run_soak(opts: &SoakOptions) -> Result<String, String> {
    let isolated_secs = (opts.secs / 4).clamp(3, 15);

    // Phase 1 — the light tenant alone: its isolated latency baseline.
    let server = soak_boot(opts)?;
    let addr = server.addr();
    let end = Instant::now() + Duration::from_secs(isolated_secs);
    let mut isolated = soak_worker(addr, "light", "gat", opts.light_rate, end, 11);
    shutdown_and_join(server);
    if isolated.ok == 0 {
        return Err("soak: isolated light phase produced no successful responses".into());
    }
    isolated.latencies_us.sort_unstable();
    let isolated_p99 = quantile(&isolated.latencies_us, 0.99);

    // Phase 2 — fresh daemon, light tenant + quota-limited flooder.
    let server = soak_boot(opts)?;
    let addr = server.addr();
    let end = Instant::now() + Duration::from_secs(opts.secs);
    let stop_monitor = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (light, flood, rss_samples) = std::thread::scope(|scope| {
        let light = scope.spawn(|| soak_worker(addr, "light", "gat", opts.light_rate, end, 23));
        // Two flood workers split the attempted rate so backoff sleeps
        // on one do not throttle the schedule.
        let flood_handles: Vec<_> = (0..2)
            .map(|w| {
                scope.spawn(move || {
                    soak_worker(addr, "flood", "gcn", opts.flood_rate / 2.0, end, 37 + w)
                })
            })
            .collect();
        let stop = std::sync::Arc::clone(&stop_monitor);
        let monitor = scope.spawn(move || {
            let mut samples: Vec<u64> = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(stats) = fetch_stats(addr) {
                    let rss = stats
                        .get("serve.mem_rss_bytes")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0) as u64;
                    samples.push(rss);
                }
                std::thread::sleep(Duration::from_millis(500));
            }
            samples
        });
        let light = light.join().expect("light worker panicked");
        let mut flood = SoakTake::default();
        for h in flood_handles {
            flood.merge(h.join().expect("flood worker panicked"));
        }
        stop_monitor.store(true, std::sync::atomic::Ordering::Relaxed);
        let rss = monitor.join().expect("rss monitor panicked");
        (light, flood, rss)
    });
    let server_stats = fetch_stats(addr)?;
    shutdown_and_join(server);
    if light.ok == 0 {
        return Err("soak: light tenant got no successful responses under flood".into());
    }

    let mut light_sorted = light.latencies_us.clone();
    light_sorted.sort_unstable();
    let mut flood_sorted = flood.latencies_us.clone();
    flood_sorted.sort_unstable();
    let mixed_p99 = quantile(&light_sorted, 0.99);
    let fairness_ratio = mixed_p99 as f64 / isolated_p99.max(1) as f64;

    // RSS ceiling: the late-run maximum must not outgrow the early-run
    // maximum — a leak shows up as a rising ceiling, not a spike.
    let rss_ceiling = rss_samples.iter().copied().max().unwrap_or(0);
    let half = rss_samples.len() / 2;
    let early_max = rss_samples[..half].iter().copied().max().unwrap_or(0);
    let late_max = rss_samples[half..].iter().copied().max().unwrap_or(0);
    let rss_growth = if early_max == 0 {
        1.0 // non-linux (gauge reads 0) or too few samples: vacuously flat
    } else {
        late_max as f64 / early_max as f64
    };

    let mut all_latencies = light.latencies_us.clone();
    all_latencies.extend(flood.latencies_us.iter().copied());
    let doc = format!(
        "{{\n  \"workload\":{{\"secs\":{},\"isolated_secs\":{isolated_secs},\
         \"light_rate\":{},\"flood_rate\":{},\"flood_quota\":{},\"instances\":{},\
         \"queue_cap\":{}}},\n  \
         \"isolated\":{{\"ok\":{},{}}},\n  \"mixed\":{{{},\n    {},\n    {}}},\n  \
         \"fairness\":{{\"isolated_light_p99_us\":{isolated_p99},\
         \"mixed_light_p99_us\":{mixed_p99},\"ratio\":{},\"bound\":{}}},\n  \
         \"memory\":{{\"rss_samples\":{},\"rss_ceiling_bytes\":{rss_ceiling},\
         \"early_max_bytes\":{early_max},\"late_max_bytes\":{late_max},\
         \"growth\":{},\"bound\":{}}},\n  \
         \"server\":{{\"throttled_429\":{},\"rejected_429\":{},\"shed_deadline\":{},\
         \"cancelled\":{},\"degraded\":{},\"flood_admitted\":{},\"light_admitted\":{}}}\n}}",
        opts.secs,
        json::number(opts.light_rate),
        json::number(opts.flood_rate),
        json::number(opts.flood_quota),
        opts.instances,
        opts.queue_cap,
        isolated.ok,
        percentiles_json(&mut isolated.latencies_us.clone()),
        percentiles_json(&mut all_latencies),
        tenant_take_json("light", &light, &light_sorted),
        tenant_take_json("flood", &flood, &flood_sorted),
        json::number(fairness_ratio),
        json::number(opts.max_fairness),
        rss_samples.len(),
        json::number(rss_growth),
        json::number(opts.max_rss_growth),
        stat_u64(&server_stats, "serve.throttled_429"),
        stat_u64(&server_stats, "serve.rejected_429"),
        stat_u64(&server_stats, "serve.shed_deadline"),
        stat_u64(&server_stats, "serve.cancelled"),
        stat_u64(&server_stats, "serve.degraded"),
        stat_u64(&server_stats, "serve.tenant.flood.admitted"),
        stat_u64(&server_stats, "serve.tenant.light.admitted"),
    );

    if fairness_ratio > opts.max_fairness {
        return Err(format!(
            "soak fairness violated: light p99 {mixed_p99}µs under flood is \
             {fairness_ratio:.2}× its isolated {isolated_p99}µs (bound {:.2}×)\n{doc}",
            opts.max_fairness
        ));
    }
    if rss_growth > opts.max_rss_growth {
        return Err(format!(
            "soak memory ceiling grew {rss_growth:.3}× (early max {early_max} B, late max \
             {late_max} B, bound {:.2}×)\n{doc}",
            opts.max_rss_growth
        ));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_rows_extracts_exact_bytes() {
        let body = r#"{"id":"x","rows":[[1.25,-3e-7],[0.1]],"telemetry":{"a":[1]}}"#;
        assert_eq!(raw_rows(body), Some("[[1.25,-3e-7],[0.1]]"));
        assert_eq!(raw_rows("{}"), None);
    }

    #[test]
    fn quantiles_pick_sorted_ranks() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&lat, 0.50), 51); // rank 49.5 rounds up
        assert_eq!(quantile(&lat, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn job_schedule_is_deterministic() {
        let spec = LoadSpec {
            jobs: 8,
            concurrency: 4,
            model: ModelKind::Mpnn,
            input: "QM9_1000",
            dataset_instances: 20,
            mode: ExecMode::CycleAccurate,
        };
        assert_eq!(job_body(&spec, 3), job_body(&spec, 3));
        assert!(job_body(&spec, 3).contains("\"instance\":3"));
        assert!(job_body(&spec, 21).contains("\"instance\":1"));
    }

    #[test]
    fn soak_jitter_is_deterministic_and_bounded() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..1000 {
            let ja = jitter(&mut a);
            assert_eq!(ja, jitter(&mut b), "same seed, same schedule");
            assert!((0.5..1.5).contains(&ja), "jitter out of range: {ja}");
        }
        // Different seeds diverge (no accidental constant).
        let mut c = 43u64;
        assert_ne!(jitter(&mut a), jitter(&mut c));
    }
}
