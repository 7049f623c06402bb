//! The benchmark's client sends each request in one write on a
//! `TCP_NODELAY` socket. Split into several small writes, a request's
//! last segment waits for the daemon's delayed ACK (about 40 ms on
//! loopback), so a smoke-scale round trip would take over 40 ms.

use gnna_bench::Scale;
use gnna_perf::client::Conn;
use gnna_serve::server::{serve, ServeConfig};
use std::time::Instant;

#[test]
fn loopback_round_trips_beat_the_delayed_ack_stall() {
    let daemon = serve(ServeConfig {
        instances: 1,
        scale: Scale::Smoke,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut conn = Conn::open(daemon.addr()).unwrap();
    // A functional reply small enough for the daemon to send in one
    // segment, so only the request side can stall.
    let body = r#"{"id":"rt","model":"mpnn","input":"qm9","instance":3}"#;
    let warm = conn.request("POST", "/v1/infer", body).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let sent = Instant::now();
            let reply = conn.request("POST", "/v1/infer", body).unwrap();
            assert_eq!(reply.status, 200, "{}", reply.body);
            sent.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(median < 20.0, "median round trip {median:.1} ms: {ms:?}");
    daemon.shutdown();
    daemon.join();
}
