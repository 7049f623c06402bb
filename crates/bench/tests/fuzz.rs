//! Fuzz properties for the parsers `gnna-report` runs on files from
//! outside: metric dumps (JSON and CSV), Chrome traces and campaign
//! JSONL. Arbitrary bytes, damaged copies of real documents, nesting
//! 10⁴–10⁵ levels deep and very long digit strings must each come back
//! as `Ok` or `Err`, never as a panic, an abort or a hang.

use gnna_bench::report::{parse_campaign_jsonl, parse_trace_json, MetricsSnapshot};
use proptest::collection::vec;
use proptest::prelude::*;

/// Well-formed documents of each kind, for the damaged-copy family.
const SEEDS: &[&str] = &[
    r#"{"system.total_cycles":4114,"noc.link.0_1.E.busy_cycles":7,"noc.packet_latency":{"count":3,"sum":9,"min":1,"max":5,"mean":3,"p50":3,"p95":5,"p99":5,"p999":5}}"#,
    "metric,kind,value,count,sum,min,max,mean,p50,p95,p99,p999\n\
     system.total_cycles,counter,4114,,,,,,,,,\n\
     noc.packet_latency,histogram,,3,9,1,5,3,3,5,5,5\n",
    r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"args":{"name":"gpe"}},{"name":"layer","ph":"B","ts":5},{"name":"stall","ph":"i","ts":7}]}"#,
    include_str!("golden/campaign_smoke.jsonl"),
];

/// One outside file: arbitrary bytes, a real document cut short and
/// spliced with a random byte, deep nesting, or a very long number.
fn document() -> impl Strategy<Value = String> {
    prop_oneof![
        vec(any::<u8>(), 0..256).prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        (0..SEEDS.len(), any::<usize>(), any::<usize>(), any::<u8>()).prop_map(
            |(seed, cut, at, byte)| {
                let mut doc = SEEDS[seed].as_bytes().to_vec();
                doc.truncate(cut % (doc.len() + 1));
                doc.insert(at % (doc.len() + 1), byte);
                String::from_utf8_lossy(&doc).into_owned()
            }
        ),
        (10_000usize..100_000).prop_map(|depth| format!("{{\"a\":{}", "[".repeat(depth))),
        (1usize..100_000).prop_map(|len| format!("{{\"rate\":{}}}", "9".repeat(len))),
    ]
}

proptest! {
    #[test]
    fn report_parsers_return_a_result_on_any_input(doc in document()) {
        let _ = MetricsSnapshot::parse(&doc);
        let _ = parse_trace_json(&doc);
        let _ = parse_campaign_jsonl(&doc);
    }
}
