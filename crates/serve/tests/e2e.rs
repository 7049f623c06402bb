//! End-to-end daemon tests over real sockets: functional bit-identity,
//! cycle-accurate telemetry, batching coalescence, 429 backpressure,
//! graceful drain, the `/stats` surface, and the release-only batching
//! gate.

use gnna_bench::{build_case, Scale};
use gnna_core::config::AcceleratorConfig;
use gnna_models::ModelKind;
use gnna_serve::loadgen::{fetch_stats, raw_rows, roundtrip, run_load, LoadSpec};
use gnna_serve::protocol::{push_rows, ExecMode};
use gnna_serve::queue::{QuotaSpec, TenantPolicy};
use gnna_serve::server::{serve, ServeConfig, ServerHandle};
use gnna_telemetry::json::{self, JsonValue};
use std::any::Any;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::sync::{PoisonError, RwLock};
use std::time::{Duration, Instant};

/// The file's CPU share. A test that asserts on wall-clock time holds it
/// exclusively; every other test holds it shared while its daemon lives,
/// so the timing tests never race the rest of the file for the cores.
static CPU: RwLock<()> = RwLock::new(());

/// A daemon booted for one test, holding the test's [`CPU`] guard until
/// it is joined.
struct Daemon {
    handle: ServerHandle,
    _cpu: Box<dyn Any>,
}

impl Deref for Daemon {
    type Target = ServerHandle;

    fn deref(&self) -> &ServerHandle {
        &self.handle
    }
}

impl Daemon {
    fn join(self) {
        self.handle.join();
    }
}

fn boot_with(cpu: Box<dyn Any>, mutate: impl FnOnce(&mut ServeConfig)) -> Daemon {
    let mut cfg = ServeConfig {
        instances: 2,
        threads: 2,
        ..ServeConfig::default()
    };
    mutate(&mut cfg);
    Daemon {
        handle: serve(cfg).expect("daemon boots"),
        _cpu: cpu,
    }
}

/// Boots a daemon sharing the CPU with the file's other tests.
fn boot(mutate: impl FnOnce(&mut ServeConfig)) -> Daemon {
    let cpu = CPU.read().unwrap_or_else(PoisonError::into_inner);
    boot_with(Box::new(cpu), mutate)
}

/// Boots a daemon for a wall-clock test: no other test in the file runs
/// until it is joined.
fn boot_alone(mutate: impl FnOnce(&mut ServeConfig)) -> Daemon {
    let cpu = CPU.write().unwrap_or_else(PoisonError::into_inner);
    boot_with(Box::new(cpu), mutate)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let resp = roundtrip(&mut stream, &mut reader, "POST", path, body).unwrap();
    (resp.status, resp.body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let resp = roundtrip(&mut stream, &mut reader, "GET", path, "").unwrap();
    (resp.status, resp.body)
}

#[test]
fn healthz_and_unknown_routes() {
    let h = boot(|_| {});
    let (status, body) = get(h.addr(), "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"ok\"}");
    let (status, _) = get(h.addr(), "/nope");
    assert_eq!(status, 404);
    let (status, _) = post(h.addr(), "/v1/infer", "this is not json");
    assert_eq!(status, 400);
    // 200 KB of nesting must not overflow the parser's stack: the abort
    // would take the daemon down for every tenant.
    let nested = format!("{{\"a\":{}", "[".repeat(200_000));
    let (status, body) = post(h.addr(), "/v1/infer", &nested);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");
    let (status, _) = get(h.addr(), "/stats");
    assert_eq!(status, 200);
    h.shutdown();
    h.join();
}

#[test]
fn functional_rows_are_bit_identical_to_the_reference() {
    let h = boot(|_| {});
    let (status, body) = post(
        h.addr(),
        "/v1/infer",
        r#"{"id":"f1","model":"gcn","input":"cora","mode":"functional"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let mut expect = String::new();
    push_rows(&mut expect, &case.reference);
    assert_eq!(
        raw_rows(&body).unwrap(),
        expect,
        "served rows differ from the gnna-models reference bytes"
    );
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("f1"));
    assert_eq!(
        v.get("mode").and_then(JsonValue::as_str),
        Some("functional")
    );
    h.shutdown();
    h.join();
}

#[test]
fn cycle_mode_returns_rows_telemetry_and_accuracy() {
    let h = boot(|_| {});
    let (status, body) = post(
        h.addr(),
        "/v1/infer",
        r#"{"id":"c1","model":"gcn","input":"cora","mode":"cycle"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let tel = v.get("telemetry").expect("telemetry present");
    assert!(tel.get("total_cycles").and_then(JsonValue::as_u64).unwrap() > 0);
    assert!(tel.get("energy_pj").and_then(JsonValue::as_u64).unwrap() > 0);
    assert_eq!(tel.get("batch_size").and_then(JsonValue::as_u64), Some(1));
    let stalls = tel.get("stalls").expect("stall summary present");
    assert!(stalls.get("waiting_mem").is_some());
    assert!(stalls.get("no_work").is_some());
    let acc = v.get("accuracy").expect("accuracy grade present");
    let max_rel = acc.get("max_rel_err").and_then(JsonValue::as_f64).unwrap();
    assert!(
        max_rel < 1e-3,
        "simulated rows off the reference: {max_rel}"
    );
    assert_eq!(acc.get("label_flips").and_then(JsonValue::as_u64), Some(0));
    h.shutdown();
    h.join();
}

#[test]
fn cycle_response_stage_timings_decompose_the_latency() {
    let h = boot_alone(|_| {});
    let t0 = Instant::now();
    let (status, body) = post(
        h.addr(),
        "/v1/infer",
        r#"{"id":"t1","model":"gcn","input":"cora","mode":"cycle"}"#,
    );
    let e2e_us = t0.elapsed().as_micros() as u64;
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let tel = v.get("telemetry").expect("telemetry present");
    let span = tel
        .get("span_id")
        .and_then(JsonValue::as_str)
        .expect("span_id present");
    assert!(
        !span.is_empty() && span.chars().all(|c| c.is_ascii_hexdigit()),
        "span id should be hex: {span:?}"
    );
    let stage = |name: &str| {
        tel.get(name)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing stage {name}: {body}"))
    };
    let sum = stage("queue_us") + stage("coalesce_us") + stage("simulate_us") + stage("respond_us");
    // The stage micros decompose the end-to-end latency: their sum must
    // land within 5% of the client-measured wall time (the simulate
    // stage dominates a cycle-accurate job, so connection overhead is
    // in the noise).
    assert!(sum <= e2e_us, "stage sum {sum}µs exceeds e2e {e2e_us}µs");
    assert!(
        sum as f64 >= e2e_us as f64 * 0.95,
        "stage sum {sum}µs attributes less than 95% of the {e2e_us}µs end-to-end latency"
    );

    // Span ids are per-request: a second job gets a different one.
    let (status, body2) = post(
        h.addr(),
        "/v1/infer",
        r#"{"id":"t2","model":"gcn","input":"cora","mode":"functional"}"#,
    );
    assert_eq!(status, 200, "{body2}");
    let v2 = json::parse(&body2).unwrap();
    let span2 = v2
        .get("telemetry")
        .and_then(|t| t.get("span_id"))
        .and_then(JsonValue::as_str)
        .unwrap();
    assert_ne!(span, span2);
    h.shutdown();
    h.join();
}

#[test]
fn idle_connections_are_closed_after_the_read_timeout() {
    let h = boot(|cfg| cfg.read_timeout = Duration::from_millis(100));
    let mut stream = TcpStream::connect(h.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send nothing: the daemon must hang up, not hold the handler
    // thread forever (slowloris defence).
    let start = Instant::now();
    let mut buf = [0u8; 16];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes from an idle connection"),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
            ) => {}
        Err(e) => panic!("connection not closed by the read timeout: {e}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(8),
        "close took {:?}",
        start.elapsed()
    );
    // Fresh connections still serve.
    let (status, _) = get(h.addr(), "/healthz");
    assert_eq!(status, 200);
    h.shutdown();
    h.join();
}

#[test]
fn trace_out_writes_request_and_batch_spans() {
    let path = std::env::temp_dir().join(format!(
        "gnna_serve_trace_{}_{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    let path_s = path.to_str().unwrap().to_string();
    let h = boot(|cfg| cfg.trace_out = Some(path_s));
    let (status, body) = post(
        h.addr(),
        "/v1/infer",
        r#"{"id":"tr1","model":"gcn","input":"cora","mode":"functional"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let span = json::parse(&body)
        .unwrap()
        .get("telemetry")
        .and_then(|t| t.get("span_id"))
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    h.shutdown();
    h.join();

    let text = std::fs::read_to_string(&path).expect("trace written on drain");
    std::fs::remove_file(&path).ok();
    let doc = json::parse(&text).expect("trace is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for needle in ["request", "queue_wait", "coalesce", "simulate", "respond"] {
        assert!(names.contains(&needle), "missing span {needle}: {names:?}");
    }
    // The batch span links its member job span ids by name.
    assert!(
        names
            .iter()
            .any(|n| n.starts_with("batch[") && n.contains(&span)),
        "no batch span linking job {span}: {names:?}"
    );
}

#[test]
fn inline_graph_jobs_run_in_both_modes() {
    let h = boot(|_| {});
    let job = r#"{"id":"g1","model":"gcn","mode":"functional","graph":{
        "num_vertices":4,"edges":[[0,1],[1,2],[2,3],[3,0]],
        "features":[[1,0,0],[0,1,0],[0,0,1],[1,1,0]],"out_features":2}}"#;
    let (status, body) = post(h.addr(), "/v1/infer", job);
    assert_eq!(status, 200, "{body}");
    let functional_rows = raw_rows(&body).unwrap().to_string();
    assert!(functional_rows.starts_with("[["));

    let cycle_job = job
        .replace("\"functional\"", "\"cycle\"")
        .replace("g1", "g2");
    let (status, body) = post(h.addr(), "/v1/infer", &cycle_job);
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert!(
        v.get("telemetry")
            .and_then(|t| t.get("total_cycles"))
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    let acc = v.get("accuracy").unwrap();
    assert!(acc.get("max_rel_err").and_then(JsonValue::as_f64).unwrap() < 1e-3);

    // Out-of-range instance on a named dataset → 400, not a crash.
    let (status, _) = post(
        h.addr(),
        "/v1/infer",
        r#"{"model":"gcn","input":"cora","instance":99}"#,
    );
    assert_eq!(status, 400);
    h.shutdown();
    h.join();
}

#[test]
fn concurrent_functional_jobs_coalesce_into_batches() {
    // One instance, generous flush: 8 concurrent jobs for the same
    // dataset must meet in a batch while the first executes.
    let h = boot(|cfg| {
        cfg.instances = 1;
        cfg.max_batch = 8;
        cfg.flush = Duration::from_millis(150);
    });
    let spec = LoadSpec {
        jobs: 8,
        concurrency: 8,
        model: ModelKind::Gcn,
        input: "Cora",
        dataset_instances: 1,
        mode: ExecMode::Functional,
    };
    let outcome = run_load(h.addr(), &spec).unwrap();
    assert_eq!(outcome.report.ok, 8);
    // All 8 answered the same reference bytes.
    let first = outcome.rows_by_id.values().next().unwrap();
    assert!(outcome.rows_by_id.values().all(|r| r == first));
    let stats = fetch_stats(h.addr()).unwrap();
    let max_batch = stats
        .get("serve.max_batch_observed")
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert!(max_batch >= 2, "no coalescing observed: {max_batch}");
    h.shutdown();
    h.join();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // Tiny system: one instance, no batching, one queue slot. Slow
    // cycle jobs guarantee the queue is still busy when the burst hits.
    let h = boot(|cfg| {
        cfg.instances = 1;
        cfg.max_batch = 1;
        cfg.queue_cap = 1;
        cfg.flush = Duration::ZERO;
    });
    let body = r#"{"model":"gcn","input":"cora","mode":"cycle"}"#;
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let addr = h.addr();
        let handles: Vec<_> = (0..6)
            .map(|_| scope.spawn(move || post(addr, "/v1/infer", body).0))
            .collect();
        handles.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert!(
        statuses.contains(&429),
        "burst of 6 on a 1-slot queue produced no 429: {statuses:?}"
    );
    assert!(statuses.contains(&200), "{statuses:?}");
    // The handler advertises Retry-After on the 429 path.
    let mut saw_retry_after = false;
    for _ in 0..6 {
        let mut stream = TcpStream::connect(h.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = roundtrip(&mut stream, &mut reader, "POST", "/v1/infer", body).unwrap();
        if resp.status == 429 {
            // The value is pressure-derived now, but it must parse and
            // can never be 0 seconds.
            let retry_after: u64 = resp
                .header("retry-after")
                .expect("429 carries Retry-After")
                .parse()
                .expect("Retry-After is an integer");
            assert!(retry_after >= 1, "Retry-After must never be 0");
            saw_retry_after = true;
            break;
        }
    }
    let stats = fetch_stats(h.addr()).unwrap();
    let rejected = stats
        .get("serve.rejected_429")
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert!(rejected >= 1, "stats missed the rejections");
    assert!(saw_retry_after || rejected >= 1);
    h.shutdown();
    h.join();
}

#[test]
fn stats_surface_reports_throughput_latency_and_queues() {
    let h = boot(|_| {});
    for i in 0..3 {
        let (status, _) = post(
            h.addr(),
            "/v1/infer",
            &format!(r#"{{"id":"s{i}","model":"gcn","input":"cora","mode":"functional"}}"#),
        );
        assert_eq!(status, 200);
    }
    let stats = fetch_stats(h.addr()).unwrap();
    assert!(
        stats
            .get("serve.requests")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 3
    );
    assert!(stats.get("serve.ok").and_then(JsonValue::as_u64).unwrap() >= 3);
    assert!(
        stats
            .get("serve.req_per_s")
            .and_then(JsonValue::as_f64)
            .unwrap()
            > 0.0
    );
    let p99 = stats
        .get("serve.latency_p99_us")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(p99 > 0.0);
    let p999 = stats
        .get("serve.latency_p999_us")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(p999 >= p99, "p99.9 ({p999}) below p99 ({p99})");
    let hist = stats.get("serve.latency_us").expect("latency histogram");
    assert!(hist.get("count").and_then(JsonValue::as_u64).unwrap() >= 3);
    assert!(stats.get("serve.batch_size").is_some());
    // Queue depth gauges exist for the whole daemon and per instance.
    assert!(stats.get("serve.queue_depth").is_some());
    assert!(stats.get("serve.queue_depth.instance0").is_some());
    assert!(stats.get("serve.queue_depth.instance1").is_some());
    h.shutdown();
    h.join();
}

#[test]
fn shutdown_drains_in_flight_jobs_then_refuses() {
    let h = boot(|cfg| {
        cfg.instances = 1;
        cfg.max_batch = 1;
        cfg.queue_cap = 8;
        cfg.flush = Duration::ZERO;
    });
    let addr = h.addr();
    // Park a couple of slow jobs, then trigger shutdown while they run.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                post(
                    addr,
                    "/v1/infer",
                    &format!(r#"{{"id":"d{i}","model":"gcn","input":"cora","mode":"cycle"}}"#),
                )
            })
        })
        .collect();
    // Give the jobs time to enter the queue before draining.
    std::thread::sleep(Duration::from_millis(100));
    let (status, body) = post(addr, "/shutdown", "");
    assert_eq!(status, 200, "{body}");
    for w in workers {
        let (status, body) = w.join().unwrap();
        assert_eq!(status, 200, "in-flight job dropped during drain: {body}");
    }
    h.join();
    // The daemon is gone: new connections fail or are refused.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let mut reader = BufReader::new(s.try_clone().unwrap());
            assert!(
                roundtrip(&mut s, &mut reader, "GET", "/healthz", "").is_err(),
                "daemon still answering after drain"
            );
        }
    }
}

#[test]
fn mixed_mode_and_model_jobs_share_the_daemon() {
    let h = boot(|_| {});
    let jobs = [
        r#"{"id":"m0","model":"gcn","input":"cora","mode":"functional"}"#,
        r#"{"id":"m1","model":"gcn","input":"cora","mode":"cycle"}"#,
        r#"{"id":"m2","model":"gat","input":"cora","mode":"functional"}"#,
        r#"{"id":"m3","model":"mpnn","input":"qm9","instance":3,"mode":"functional"}"#,
    ];
    let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let addr = h.addr();
        let handles: Vec<_> = jobs
            .iter()
            .map(|j| scope.spawn(move || post(addr, "/v1/infer", j)))
            .collect();
        handles.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (i, (status, body)) in bodies.iter().enumerate() {
        assert_eq!(*status, 200, "job {i}: {body}");
        let v = json::parse(body).unwrap();
        assert_eq!(
            v.get("id").and_then(JsonValue::as_str),
            Some(format!("m{i}").as_str())
        );
    }
    // MPNN molecule 3's functional answer is its exact reference row.
    let case = build_case(ModelKind::Mpnn, "QM9_1000", Scale::Smoke).unwrap();
    let mut expect = String::new();
    push_rows(&mut expect, &[case.reference[3].clone()]);
    assert_eq!(raw_rows(&bodies[3].1).unwrap(), expect);
    h.shutdown();
    h.join();
}

#[test]
fn tenant_quota_throttles_with_429_and_retry_after() {
    // A 1-job/s bucket with burst 2: the third immediate job is
    // throttled, other tenants are unaffected.
    let h = boot(|cfg| {
        cfg.policy = TenantPolicy {
            default_spec: QuotaSpec::unlimited(),
            tenants: vec![(
                "metered".to_string(),
                QuotaSpec {
                    rate_per_s: 1.0,
                    burst: 2.0,
                    weight: 1,
                },
            )],
        };
    });
    let body = r#"{"model":"gcn","input":"cora","mode":"functional","tenant":"metered"}"#;
    let mut statuses = Vec::new();
    let mut retry_after = None;
    for _ in 0..3 {
        let mut stream = TcpStream::connect(h.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = roundtrip(&mut stream, &mut reader, "POST", "/v1/infer", body).unwrap();
        if resp.status == 429 {
            retry_after = resp.header("retry-after").map(str::to_string);
        }
        statuses.push(resp.status);
    }
    assert_eq!(&statuses[..2], &[200, 200], "burst of 2 must be admitted");
    assert_eq!(statuses[2], 429, "third job must be throttled");
    let ra: u64 = retry_after
        .expect("throttle carries Retry-After")
        .parse()
        .unwrap();
    assert!(ra >= 1);
    // A different tenant sails through.
    let (status, _) = post(
        h.addr(),
        "/v1/infer",
        r#"{"model":"gcn","input":"cora","mode":"functional","tenant":"calm"}"#,
    );
    assert_eq!(status, 200, "other tenants must not share the bucket");
    let stats = fetch_stats(h.addr()).unwrap();
    assert!(
        stats
            .get("serve.tenant.metered.throttled")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1,
        "per-tenant throttle counter missing"
    );
    assert!(
        stats
            .get("serve.tenant.calm.admitted")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
    h.shutdown();
    h.join();
}

#[test]
fn deadline_unmeetable_jobs_are_shed_at_admission() {
    // One slot-at-a-time worker and a parked backlog: a job with a
    // 1 ms deadline sees a wait estimate above it and is shed with 429.
    let h = boot(|cfg| {
        cfg.instances = 1;
        cfg.max_batch = 1;
        cfg.queue_cap = 16;
        cfg.flush = Duration::ZERO;
    });
    let addr = h.addr();
    let slow = r#"{"model":"gcn","input":"cora","mode":"cycle"}"#;
    // One synchronous job first: its measured batch calibrates the
    // per-job service estimate that the wait estimate multiplies.
    let (status, body) = post(addr, "/v1/infer", slow);
    assert_eq!(status, 200, "{body}");
    let workers: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || post(addr, "/v1/infer", slow)))
        .collect();
    // Try an unmeetable deadline only while at least two jobs wait
    // behind the running one: the estimate is then two cycle jobs, far
    // above 1 ms. A probe sent to a shorter queue could be admitted and
    // block behind the backlog until it has drained.
    let started = Instant::now();
    let mut shed = None;
    while shed.is_none() && started.elapsed() < Duration::from_secs(30) {
        let depth = fetch_stats(addr)
            .unwrap()
            .get("serve.queue_depth")
            .and_then(JsonValue::as_f64)
            .unwrap();
        if depth < 2.0 {
            if workers.iter().all(|w| w.is_finished()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let (status, body) = post(
            addr,
            "/v1/infer",
            r#"{"model":"gcn","input":"cora","mode":"cycle","deadline_ms":1}"#,
        );
        if status == 429 && body.contains("deadline unmeetable") {
            shed = Some(body);
        }
    }
    let body = shed.expect("a 1 ms deadline behind a cycle backlog must be shed");
    assert!(body.contains("estimated wait"), "{body}");
    let stats = fetch_stats(addr).unwrap();
    assert!(
        stats
            .get("serve.shed_deadline")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
    for w in workers {
        let (status, _) = w.join().unwrap();
        assert_eq!(status, 200);
    }
    h.shutdown();
    h.join();
}

#[test]
fn degrade_watermark_answers_cycle_jobs_functionally_flagged() {
    // Watermark 1 on a single serialized queue: with a cycle job
    // executing and one queued, later cycle jobs degrade to functional
    // and say so.
    let h = boot(|cfg| {
        cfg.instances = 1;
        cfg.max_batch = 1;
        cfg.queue_cap = 32;
        cfg.flush = Duration::ZERO;
        cfg.degrade_watermark = 1;
    });
    let addr = h.addr();
    let bodies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    post(
                        addr,
                        "/v1/infer",
                        &format!(r#"{{"id":"dg{i}","model":"gcn","input":"cora","mode":"cycle"}}"#),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let mut reference = String::new();
    push_rows(&mut reference, &case.reference);
    let mut degraded = 0;
    let mut full_cycle = 0;
    for (status, body) in &bodies {
        assert_eq!(*status, 200, "{body}");
        let v = json::parse(body).unwrap();
        if matches!(v.get("degraded"), Some(JsonValue::Bool(true))) {
            degraded += 1;
            // A degraded response is functional: no accuracy grade, no
            // cycle telemetry, mode says what actually ran, and the rows
            // are the reference bytes.
            assert_eq!(
                v.get("mode").and_then(JsonValue::as_str),
                Some("functional")
            );
            assert!(v.get("accuracy").is_none(), "degraded jobs skip accuracy");
            assert!(
                raw_rows(body) == Some(reference.as_str()),
                "degraded rows differ from the reference bytes"
            );
        } else {
            full_cycle += 1;
            assert_eq!(v.get("mode").and_then(JsonValue::as_str), Some("cycle"));
        }
    }
    assert!(
        degraded >= 1,
        "a 6-deep cycle burst past watermark 1 must degrade some jobs"
    );
    assert!(full_cycle >= 1, "the head job should still run full cycle");
    let stats = fetch_stats(addr).unwrap();
    assert!(
        stats
            .get("serve.degraded")
            .and_then(JsonValue::as_u64)
            .unwrap() as usize
            == degraded
    );
    h.shutdown();
    h.join();
}

#[test]
fn max_conns_refuses_excess_connections_with_503() {
    let h = boot_alone(|cfg| cfg.max_conns = 2);
    // Two held-open connections occupy the limit.
    let hold1 = TcpStream::connect(h.addr()).unwrap();
    let hold2 = TcpStream::connect(h.addr()).unwrap();
    // Give the acceptor a beat to count them.
    std::thread::sleep(Duration::from_millis(100));
    let mut refused = false;
    for _ in 0..20 {
        let mut stream = TcpStream::connect(h.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        match roundtrip(&mut stream, &mut reader, "GET", "/healthz", "") {
            Ok(resp) if resp.status == 503 => {
                assert_eq!(resp.header("retry-after"), Some("1"));
                refused = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(refused, "third connection past --max-conns 2 never saw 503");
    drop(hold1);
    drop(hold2);
    // With the held connections gone, service resumes.
    let mut ok = false;
    for _ in 0..50 {
        let mut stream = TcpStream::connect(h.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        if let Ok(resp) = roundtrip(&mut stream, &mut reader, "GET", "/healthz", "") {
            if resp.status == 200 {
                ok = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(ok, "daemon did not recover after connections freed");
    let stats_ok = {
        // The stats fetch itself needs a free slot: the handlers of the
        // connections just closed may not have exited yet, and a refused
        // fetch reads a 503 body. Retry briefly until a 200 arrives.
        let mut v = None;
        for _ in 0..50 {
            let mut stream = TcpStream::connect(h.addr()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            match roundtrip(&mut stream, &mut reader, "GET", "/stats", "") {
                Ok(resp) if resp.status == 200 => {
                    v = Some(json::parse(&resp.body).unwrap());
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        v.expect("stats unreachable after recovery")
    };
    assert!(
        stats_ok
            .get("serve.conn_rejected")
            .and_then(JsonValue::as_u64)
            .unwrap()
            >= 1
    );
    h.shutdown();
    h.join();
}

#[cfg(target_os = "linux")]
#[test]
fn stats_report_a_live_rss_gauge() {
    let h = boot(|_| {});
    let stats = fetch_stats(h.addr()).unwrap();
    let rss = stats
        .get("serve.mem_rss_bytes")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(rss > 0.0, "RSS gauge should be live on linux");
    let peak = stats
        .get("serve.mem_rss_peak_bytes")
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(peak >= rss);
    h.shutdown();
    h.join();
}

#[test]
fn disconnected_clients_jobs_are_cancelled_before_execution() {
    // Serialized worker; park a job, queue a second from a client that
    // immediately hangs up, then measure that the queue drains without
    // executing the abandoned job. The parked job is held by
    // construction, not by its run time: with room for two jobs per
    // batch and no compatible job coming, the worker holds it for the
    // whole flush window before it runs, however fast the build is.
    let h = boot(|cfg| {
        cfg.instances = 1;
        cfg.max_batch = 2;
        cfg.queue_cap = 8;
        cfg.flush = Duration::from_secs(2);
    });
    let addr = h.addr();
    let runner = std::thread::spawn(move || {
        post(
            addr,
            "/v1/infer",
            r#"{"id":"hold","model":"gcn","input":"cora","mode":"cycle"}"#,
        )
    });
    // Send the abandoned job only once the parked one is admitted, so
    // it queues behind it.
    let admitted = |stats: &JsonValue| {
        stats
            .get("serve.tenant.default.admitted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    while admitted(&fetch_stats(addr).unwrap()) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Fire-and-hang-up: write the request, then drop the socket.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let body = r#"{"id":"ghost","model":"gat","input":"cora","mode":"cycle"}"#;
        use std::io::Write;
        write!(
            s,
            "POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        s.flush().unwrap();
        // Closed before the response: the handler's probe sees EOF.
    }
    let (status, _) = runner.join().unwrap();
    assert_eq!(status, 200);
    // The cancelled counter catches up once the worker passes the
    // abandoned job (or the handler notices first); poll /stats.
    let mut cancelled = 0;
    for _ in 0..100 {
        let stats = fetch_stats(addr).unwrap();
        cancelled = stats
            .get("serve.cancelled")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let reqs = stats
            .get("serve.client_errors")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if cancelled >= 1 || reqs >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Either the dequeue path dropped it (serve.cancelled) or the
    // handler recorded the disconnect as a client error (499); both
    // mean the ghost job did not consume a full simulation.
    let stats = fetch_stats(addr).unwrap();
    let client_errors = stats
        .get("serve.client_errors")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    assert!(
        cancelled >= 1 || client_errors >= 1,
        "abandoned job neither cancelled nor counted: {stats:?}"
    );
    h.shutdown();
    h.join();
}

#[test]
fn smoke_functional_round_trips_do_not_wait_for_delayed_acks() {
    // A smoke-scale Cora reply (~10 KB) overflows the daemon's 8 KiB
    // writer buffer, so it leaves in two writes. With Nagle's algorithm
    // on either side, the second write waits ~40 ms for a delayed ACK.
    let h = boot(|_| {});
    let mut stream = TcpStream::connect(h.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let body = r#"{"id":"n","model":"gcn","input":"cora","mode":"functional"}"#;
    let mut ms = Vec::new();
    // The first request builds the case; time the five after it.
    for _ in 0..6 {
        let t0 = Instant::now();
        let resp = roundtrip(&mut stream, &mut reader, "POST", "/v1/infer", body).unwrap();
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let mut timed = ms.split_off(1);
    timed.sort_by(f64::total_cmp);
    assert!(
        timed[2] < 30.0,
        "median functional round trip {:.1} ms (all: {timed:?})",
        timed[2]
    );
    h.shutdown();
    h.join();
}

/// The batching gate: on the batching-friendliest workload (MPNN over
/// the QM9 molecule set: many small graphs, so the fixed cost of each
/// simulator run dominates), functional rows stay bit-identical to the
/// reference and batches of 16 at least double cycle-accurate req/s
/// over batches of 1. A timing gate, so it runs in release only:
/// `cargo test --release -p gnna-serve --test e2e batching -- --ignored`.
#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn batching_doubles_cycle_throughput_with_bit_identical_rows() {
    const JOBS: usize = 64;
    const CLIENTS: usize = 64;
    const MAX_BATCH: usize = 16;
    const MIN_SPEEDUP: f64 = 2.0;
    let boot_with = |max_batch: usize| {
        serve(ServeConfig {
            instances: 4,
            max_batch,
            flush: Duration::from_millis(1),
            queue_cap: 256,
            threads: 1,
            accel: AcceleratorConfig::gpu_iso_bandwidth(),
            scale: Scale::Smoke,
            ..ServeConfig::default()
        })
        .expect("daemon boots")
    };
    let case = build_case(ModelKind::Mpnn, "QM9_1000", Scale::Smoke).unwrap();
    let instances = case.dataset.instances.len();
    let functional = LoadSpec {
        jobs: JOBS,
        concurrency: CLIENTS,
        model: ModelKind::Mpnn,
        input: "QM9_1000",
        dataset_instances: instances,
        mode: ExecMode::Functional,
    };
    let h = boot_with(MAX_BATCH);
    let outcome = run_load(h.addr(), &functional).unwrap();
    h.shutdown();
    h.join();
    assert_eq!(outcome.rows_by_id.len(), JOBS);
    for (id, rows) in &outcome.rows_by_id {
        let j: usize = id.trim_start_matches("job").parse().unwrap();
        // MPNN is a readout model: one reference row per molecule.
        let mut expect = String::new();
        push_rows(&mut expect, &[case.reference[j % instances].clone()]);
        assert_eq!(*rows, expect, "{id} is not bit-identical to the reference");
    }

    let cycle = LoadSpec {
        mode: ExecMode::CycleAccurate,
        ..functional
    };
    let req_per_s = |max_batch: usize| {
        let h = boot_with(max_batch);
        let outcome = run_load(h.addr(), &cycle).unwrap();
        h.shutdown();
        h.join();
        assert_eq!(outcome.report.ok, JOBS);
        outcome.report.req_per_s
    };
    let batched = req_per_s(MAX_BATCH);
    let serial = req_per_s(1);
    let speedup = batched / serial;
    println!(
        "batch {MAX_BATCH}: {batched:.1} req/s, batch 1: {serial:.1} req/s, speedup {speedup:.2}x"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "batching speedup {speedup:.2}x is below {MIN_SPEEDUP}x \
         (batched {batched:.1} req/s vs serial {serial:.1} req/s)"
    );
}
