//! The seeded case builder must build, at seed 42, exactly the cases
//! `gnna_bench::build_case` builds, so the benchmark measures what
//! `gnna-sim` and `fig8` run.

use gnna_bench::{build_case, simulate, Scale};
use gnna_core::config::AcceleratorConfig;
use gnna_models::BENCHMARK_PAIRS;
use gnna_perf::cases;
use gnna_perf::spans::Spans;

#[test]
fn seed_42_cases_match_build_case() {
    let mut spans = Spans::new("parity");
    let config = AcceleratorConfig::cpu_iso_bandwidth();
    for (model, input) in BENCHMARK_PAIRS {
        let theirs = build_case(model, input, Scale::Smoke).unwrap();
        let (ours, _) = cases::build(model, input, Scale::Smoke, 42, &mut spans).unwrap();
        assert_eq!(ours.dataset, theirs.dataset, "{model} {input}");
        assert_eq!(ours.reference, theirs.reference, "{model} {input}");
        assert_eq!(ours.macs, theirs.macs, "{model} {input}");
        let (a, b) = (
            simulate(&ours, &config).unwrap(),
            simulate(&theirs, &config).unwrap(),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{model} {input}");
    }
}

#[test]
fn other_seeds_build_other_inputs() {
    let mut spans = Spans::new("parity");
    let (model, input) = BENCHMARK_PAIRS[0];
    let (a, _) = cases::build(model, input, Scale::Smoke, 42, &mut spans).unwrap();
    let (b, _) = cases::build(model, input, Scale::Smoke, 7, &mut spans).unwrap();
    assert_ne!(a.dataset, b.dataset);
}
