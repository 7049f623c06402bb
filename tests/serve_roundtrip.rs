//! One in-process `gnna-serve` round trip at smoke scale: a daemon on an
//! ephemeral port answers an MPNN cycle-accurate job with the simulated
//! row of its molecule and a GCN functional job with the reference rows
//! byte for byte, then drains.

use gnna_bench::{build_case, Scale};
use gnna_models::ModelKind;
use gnna_serve::loadgen::{raw_rows, roundtrip};
use gnna_serve::protocol::push_rows;
use gnna_serve::server::{serve, ServeConfig};
use gnna_telemetry::json::{self, JsonValue};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};

/// Largest error a cycle-mode row may show against the functional
/// reference, relative to the row's largest magnitude: the bound the
/// serving benchmark checks every cycle-mode reply against.
const MAX_ROW_REL_ERR: f64 = 1e-4;

/// Posts `body` to `/v1/infer` and returns the status and reply body.
fn infer(addr: SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let resp = roundtrip(&mut stream, &mut reader, "POST", "/v1/infer", body).unwrap();
    (resp.status, resp.body)
}

/// The `rows` of a reply, parsed.
fn rows(body: &str) -> Vec<Vec<f64>> {
    let v = json::parse(raw_rows(body).expect("reply has rows")).unwrap();
    v.as_array()
        .expect("rows is an array")
        .iter()
        .map(|row| {
            row.as_array()
                .expect("a row is an array")
                .iter()
                .map(|x| x.as_f64().expect("a finite number"))
                .collect()
        })
        .collect()
}

#[test]
fn serve_answers_cycle_and_functional_jobs() {
    let daemon = serve(ServeConfig {
        instances: 1,
        ..ServeConfig::default()
    })
    .expect("daemon boots");
    let addr = daemon.addr();

    // MPNN, cycle-accurate: one molecule's simulated row against its
    // functional reference.
    let instance = 3;
    let (status, body) = infer(
        addr,
        &format!(
            r#"{{"id":"m","model":"mpnn","input":"QM9_1000","instance":{instance},"mode":"cycle"}}"#
        ),
    );
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("mode").and_then(JsonValue::as_str), Some("cycle"));
    let cycles = v
        .get("telemetry")
        .and_then(|t| t.get("total_cycles"))
        .and_then(JsonValue::as_u64);
    assert!(cycles.is_some_and(|c| c > 0), "{body}");
    let got = rows(&body);
    let case = build_case(ModelKind::Mpnn, "QM9_1000", Scale::Smoke).unwrap();
    let want = &case.reference[instance];
    assert_eq!(got.len(), 1, "one row per molecule");
    assert_eq!(got[0].len(), want.len());
    let scale = want.iter().fold(0f64, |m, &r| m.max(f64::from(r).abs()));
    let diff = want
        .iter()
        .zip(&got[0])
        .fold(0f64, |m, (&r, &s)| m.max((s - f64::from(r)).abs()));
    let err = diff / scale.max(f64::MIN_POSITIVE);
    assert!(
        err <= MAX_ROW_REL_ERR,
        "row error {err:e} vs the reference: {:?} vs {want:?}",
        got[0]
    );

    // GCN, functional: the reference rows, byte for byte.
    let (status, body) = infer(
        addr,
        r#"{"id":"g","model":"gcn","input":"cora","mode":"functional"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let case = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    let mut want = String::new();
    push_rows(&mut want, &case.reference);
    assert!(
        raw_rows(&body) == Some(want.as_str()),
        "served rows differ from the reference bytes"
    );

    daemon.shutdown();
    daemon.join();
}
