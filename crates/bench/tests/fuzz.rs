//! Fuzz properties for the parsers `gnna-report` runs on files from
//! outside: metric dumps (JSON and CSV), Chrome traces and campaign
//! JSONL. Arbitrary bytes, damaged copies of real documents, nesting
//! 10⁴–10⁵ levels deep and very long digit strings must each come back
//! as `Ok` or `Err`, never as a panic, an abort or a hang. Whatever
//! parses must also build and render both reports, including dumps whose
//! counters sit near `u64::MAX` and whose mesh coordinates near
//! `usize::MAX`.

use gnna_bench::report::{
    parse_campaign_jsonl, parse_trace_json, BottleneckReport, CampaignReport, MetricsSnapshot,
};
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

/// Metric keys the bottleneck report reads; `{x}`/`{y}` take a mesh
/// coordinate.
const METRIC_KEYS: &[&str] = &[
    "system.total_cycles",
    "system.clock_divider",
    "system.noc_clock_hz",
    "tile0.gpe.op_cycles",
    "tile0.gpe.switch_cycles",
    "tile0.gpe.idle_cycles",
    "tile0.gpe.stall_cycles",
    "tile0.stall.waiting_mem",
    "tile0.stall.no_work",
    "tile1.gpe.op_cycles",
    "tile1.stall.waiting_mem",
    "tile0.fault.injected",
    "tile0.fault.corrected",
    "mem0.fault.injected",
    "mem0.fault.sdc",
    "mem0.requests",
    "noc.link.{x}_{y}.E.busy_cycles",
    "noc.energy.link.{x}_{y}.N_pj",
    "system.energy.total_pj",
    "system.energy.layer0_pj",
    "tile0.energy.dna_pj",
    "tile0.energy.gpe_pj",
    "mem.energy.ctrl0_pj",
    "host.profile.wall_ns",
    "host.profile.self_ns.run",
];

/// Extreme values: zero, `u64::MAX`, past it, huge floats, negatives.
const VALUES: &[&str] = &[
    "0",
    "1",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775807",
    "1e300",
    "-7",
];

/// Mesh coordinates: small, at and past a sane mesh, near `usize::MAX`,
/// and past it (which no longer parses as a coordinate).
const COORDS: &[&str] = &[
    "0",
    "3",
    "255",
    "256",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
];

/// A metrics dump assembled from the keys the report reads, with values
/// and mesh coordinates drawn from the extremes.
fn extreme_metrics() -> impl Strategy<Value = String> {
    vec(
        (
            0..METRIC_KEYS.len(),
            0..VALUES.len(),
            0..COORDS.len(),
            0..COORDS.len(),
        ),
        1..32,
    )
    .prop_map(|picks| {
        let fields: Vec<String> = picks
            .iter()
            .map(|&(k, v, x, y)| {
                let key = METRIC_KEYS[k]
                    .replace("{x}", COORDS[x])
                    .replace("{y}", COORDS[y]);
                format!("\"{key}\":{}", VALUES[v])
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    })
}

/// Numeric campaign-record fields the campaign report sums.
const CAMPAIGN_FIELDS: &[&str] = &[
    "total_cycles",
    "injected",
    "sdc",
    "mem_injected",
    "mem_sdc",
    "noc_injected",
    "noc_sdc",
    "remapped_vertices",
    "rows",
    "label_flips",
    "nonfinite",
    "max_rel_err",
    "checkpoints",
    "rollbacks",
    "replayed_cycles",
    "checkpoint_pj",
];

const MODES: &[&str] = &["protected", "passthrough", "degraded", "rollback"];

/// A campaign file of one to eight records over every mode, with every
/// summed counter drawn from the extremes.
fn extreme_campaign() -> impl Strategy<Value = String> {
    vec(
        (
            0..MODES.len(),
            vec(0..VALUES.len(), CAMPAIGN_FIELDS.len()),
            any::<bool>(),
        ),
        1..8,
    )
    .prop_map(|records| {
        let lines: Vec<String> = records
            .iter()
            .map(|(mode, values, ok)| {
                let mut line = format!(
                    r#"{{"model":"GCN","input":"Cora","mode":"{}","rate":0.01,"seed":1,"status":"{}""#,
                    MODES[*mode],
                    if *ok { "ok" } else { "unrecoverable" }
                );
                for (field, v) in CAMPAIGN_FIELDS.iter().zip(values) {
                    line.push_str(&format!(",\"{field}\":{}", VALUES[*v]));
                }
                line + "}"
            })
            .collect();
        lines.join("\n")
    })
}

/// One outside file: arbitrary bytes, a real document cut short and
/// spliced with a random byte, deep nesting, a very long number, or a
/// well-formed dump or campaign carrying extreme values.
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
        extreme_metrics(),
        extreme_campaign(),
    ]
}

proptest! {
    #[test]
    fn report_parsers_return_a_result_on_any_input(doc in document()) {
        if let Ok(snap) = MetricsSnapshot::parse(&doc) {
            let report = BottleneckReport::build(&snap, None, 8);
            let _ = report.to_markdown();
            let _ = report.to_csv();
        }
        let _ = parse_trace_json(&doc);
        if let Ok(records) = parse_campaign_jsonl(&doc) {
            let report = CampaignReport::build(&records);
            let _ = report.to_markdown();
            let _ = report.to_csv();
        }
    }
}
