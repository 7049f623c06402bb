//! One in-process `gnna-serve` round trip at smoke scale: a daemon on an
//! ephemeral port answers MPNN cycle-accurate jobs with the simulated
//! row of their molecule, and GCN and MPNN functional jobs with their
//! instance's reference rows byte for byte, then drains.

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

/// Asserts that a cycle-mode reply carries one simulated row within
/// [`MAX_ROW_REL_ERR`] of `want`.
fn assert_graded(body: &str, want: &[f32]) {
    let v = json::parse(body).unwrap();
    assert_eq!(v.get("mode").and_then(JsonValue::as_str), Some("cycle"));
    let cycles = v
        .get("telemetry")
        .and_then(|t| t.get("total_cycles"))
        .and_then(JsonValue::as_u64);
    assert!(cycles.is_some_and(|c| c > 0), "{body}");
    let got = rows(body);
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
}

/// Asserts that a reply's rows are `push_rows` of `want`, byte for byte.
fn assert_reference_bytes(body: &str, want: &[Vec<f32>]) {
    let mut bytes = String::new();
    push_rows(&mut bytes, want);
    assert!(
        raw_rows(body) == Some(bytes.as_str()),
        "served rows differ from the reference bytes"
    );
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
    let cycle_job = format!(
        r#"{{"id":"m","model":"mpnn","input":"QM9_1000","instance":{instance},"mode":"cycle"}}"#
    );
    let (status, body) = infer(addr, &cycle_job);
    assert_eq!(status, 200, "{body}");
    let mpnn = build_case(ModelKind::Mpnn, "QM9_1000", Scale::Smoke).unwrap();
    assert_graded(&body, &mpnn.reference[instance]);

    // GCN, functional: the reference rows, byte for byte, on the job
    // that renders them and on the next, which is served that rendering.
    let gcn = build_case(ModelKind::Gcn, "Cora", Scale::Smoke).unwrap();
    for id in ["g0", "g1"] {
        let (status, body) = infer(
            addr,
            &format!(r#"{{"id":"{id}","model":"gcn","input":"cora","mode":"functional"}}"#),
        );
        assert_eq!(status, 200, "{body}");
        assert_reference_bytes(&body, &gcn.reference);
    }

    // MPNN, functional: the molecule's own reference row, not another
    // instance's.
    let (status, body) = infer(
        addr,
        &format!(
            r#"{{"id":"f","model":"mpnn","input":"QM9_1000","instance":{instance},"mode":"functional"}}"#
        ),
    );
    assert_eq!(status, 200, "{body}");
    assert_reference_bytes(&body, &mpnn.reference[instance..instance + 1]);

    // A cycle job after the functional ones still grades against the
    // reference.
    let (status, body) = infer(addr, &cycle_job);
    assert_eq!(status, 200, "{body}");
    assert_graded(&body, &mpnn.reference[instance]);

    daemon.shutdown();
    daemon.join();
}
