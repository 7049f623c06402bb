//! Fuzz properties for `gnna_telemetry::json::parse`, the one parser
//! every outside document goes through: metric dumps, traces, campaign
//! records and serve request bodies. Arbitrary bytes, nesting 10⁴–10⁵
//! levels deep and very long digit strings must each come back as `Ok`
//! or `Err`, never as a panic, a stack overflow or a hang.

use gnna_telemetry::json;
use proptest::collection::vec;
use proptest::prelude::*;

/// Fragments close enough to JSON that a random sequence of them gets
/// past the first byte: containers, strings with good and bad escapes,
/// numbers at and past the `f64` range, literals and their misspellings.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"k\"",
    "\"\\u00e9\"",
    "\"\\ud800\"",
    "\"\\x\"",
    "\"open",
    "-",
    "0",
    "-1.5e308",
    "1e999",
    "2e-999",
    "1.",
    ".5",
    "null",
    "true",
    "fals",
    " ",
    "\n",
    "é",
    "\u{1F600}",
];

/// `depth` open arrays or objects, closed again when `closed` holds.
fn nested(depth: usize, object: bool, closed: bool) -> String {
    let (open, close) = if object { ("{\"a\":", "}") } else { ("[", "]") };
    let mut doc = open.repeat(depth);
    if closed {
        doc.push('0');
        doc.push_str(&close.repeat(depth));
    }
    doc
}

/// A number with `len` digits in one of four shapes: integer, negative,
/// fraction, or exponent.
fn long_number(len: usize, shape: usize) -> String {
    let digits = "9".repeat(len);
    match shape % 4 {
        0 => digits,
        1 => format!("-{digits}"),
        2 => format!("0.{digits}"),
        _ => format!("1e{digits}"),
    }
}

/// One outside document from any of the four families.
fn document() -> impl Strategy<Value = String> {
    prop_oneof![
        vec(any::<u8>(), 0..256).prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        vec(0..TOKENS.len(), 0..96).prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect()),
        (10_000usize..100_000, any::<bool>(), any::<bool>())
            .prop_map(|(depth, object, closed)| nested(depth, object, closed)),
        (1usize..100_000, 0usize..4).prop_map(|(len, shape)| long_number(len, shape)),
    ]
}

proptest! {
    #[test]
    fn json_parse_returns_a_result_on_any_input(doc in document()) {
        let _ = json::parse(&doc);
    }

    #[test]
    fn json_parse_rejects_deep_nesting_with_a_message(
        depth in 10_000usize..100_000,
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        let err = json::parse(&nested(depth, object, closed)).unwrap_err();
        prop_assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn json_parse_reads_very_long_numbers(len in 1usize..100_000, shape in 0usize..4) {
        let doc = long_number(len, shape);
        let value = json::parse(&doc).unwrap_or_else(|e| panic!("{len} digits, shape {shape}: {e}"));
        prop_assert!(value.as_f64().is_some());
    }
}
