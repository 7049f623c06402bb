//! Fuzz properties for the daemon's two parsers of outside input:
//! `http::read_request` on the raw connection bytes and
//! `protocol::parse_job` on the request body. Arbitrary bytes, nesting
//! 10⁴–10⁵ levels deep, very long digit strings and out-of-range field
//! values must each come back as `Ok` or `Err`, never as a panic, an
//! abort or a hang.

use gnna_serve::http::read_request;
use gnna_serve::protocol::parse_job;
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::BufReader;

/// Field values a client might send in place of the expected ones.
const VALUES: &[&str] = &[
    "0",
    "-1",
    "1.5",
    "1e999",
    "18446744073709551616",
    "\"\"",
    "\"gcn\"",
    "\"cora\"",
    "null",
    "[]",
    "[[0,1]]",
    "[[1e999]]",
    "{}",
    "true",
];

/// A job body with every field drawn from [`VALUES`].
fn job_body(picks: &[usize]) -> String {
    let v = |i: usize| VALUES[picks[i] % VALUES.len()];
    format!(
        r#"{{"id":{},"model":"gcn","mode":{},"tenant":{},"deadline_ms":{},"instance":{},"input":{},"graph":{{"num_vertices":{},"edges":{},"features":{},"out_features":{}}}}}"#,
        v(0),
        v(1),
        v(2),
        v(3),
        v(4),
        v(5),
        v(6),
        v(7),
        v(8),
        v(9)
    )
}

/// One request body: arbitrary bytes, a job with odd field values, deep
/// nesting, or a job whose number is a very long digit string.
fn body() -> impl Strategy<Value = String> {
    prop_oneof![
        vec(any::<u8>(), 0..256).prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        vec(0..VALUES.len(), 10).prop_map(|picks| job_body(&picks)),
        (10_000usize..100_000).prop_map(|depth| format!("{{\"model\":{}", "[".repeat(depth))),
        (1usize..100_000).prop_map(|len| {
            format!(
                r#"{{"model":"gcn","input":"cora","instance":{}}}"#,
                "9".repeat(len)
            )
        }),
    ]
}

/// Raw connection bytes: arbitrary bytes, or a request head whose lines,
/// header count and `Content-Length` are drawn at random around the caps.
fn wire() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        vec(any::<u8>(), 0..512),
        (0usize..20_000, 0usize..200, 0usize..4, body()).prop_map(
            |(path_len, headers, length, body)| {
                let length = match length {
                    0 => body.len().to_string(),
                    1 => (body.len() + 1).to_string(),
                    2 => "99999999999999999999".to_string(),
                    _ => "-1".to_string(),
                };
                format!(
                    "POST /{} HTTP/1.1\r\n{}Content-Length: {length}\r\n\r\n{body}",
                    "a".repeat(path_len),
                    "X: y\r\n".repeat(headers)
                )
                .into_bytes()
            }
        ),
    ]
}

proptest! {
    #[test]
    fn parse_job_returns_a_result_on_any_body(body in body()) {
        let _ = parse_job(&body);
    }

    #[test]
    fn read_request_returns_a_result_on_any_bytes(wire in wire()) {
        let _ = read_request(&mut BufReader::new(&wire[..]));
    }
}
