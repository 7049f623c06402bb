//! Property-based tests for the memory-controller model.

use gnna_mem::{MemConfig, MemImage, MemRequest, MemoryController};
use proptest::prelude::*;

fn drain(ctrl: &mut MemoryController, img: &mut MemImage) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    while let Some(now) = ctrl.next_ready_cycle() {
        let r = ctrl.pop_ready(now, img).expect("front ready at its cycle");
        out.push((r.tag, r.ready_at));
    }
    out
}

proptest! {
    /// Responses retire strictly in request order with non-decreasing
    /// ready times, and no request is lost.
    #[test]
    fn fifo_order_and_monotone_ready_times(
        sizes in proptest::collection::vec(1u64..32, 1..30),
    ) {
        let mut img = MemImage::new();
        let base = img.alloc(4096);
        let mut ctrl = MemoryController::new(MemConfig::default());
        let mut expected = Vec::new();
        for (i, &words) in sizes.iter().enumerate() {
            let req = MemRequest::read(base + (i as u64 * 256), words * 4, i as u64);
            if ctrl.try_push(req, 0).is_ok() {
                expected.push(i as u64);
            }
        }
        let responses = drain(&mut ctrl, &mut img);
        let tags: Vec<u64> = responses.iter().map(|r| r.0).collect();
        prop_assert_eq!(tags, expected);
        for pair in responses.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1, "ready times must not decrease");
        }
        prop_assert!(ctrl.is_idle());
    }

    /// The modelled service time never beats the configured bandwidth:
    /// total aligned bytes / bandwidth is a lower bound on the last
    /// service completion.
    #[test]
    fn bandwidth_is_an_upper_bound(
        sizes in proptest::collection::vec(1u64..64, 1..32),
    ) {
        let cfg = MemConfig::default();
        let mut img = MemImage::new();
        let base = img.alloc(65536);
        let mut ctrl = MemoryController::new(cfg);
        let mut aligned_total = 0u64;
        for (i, &words) in sizes.iter().enumerate() {
            let addr = base + i as u64 * 1024;
            let bytes = words * 4;
            aligned_total += cfg.aligned_span(addr, bytes);
            let _ = ctrl.try_push(MemRequest::read(addr, bytes, i as u64), 0);
        }
        let responses = drain(&mut ctrl, &mut img);
        let last = responses.last().expect("non-empty").1 as f64;
        let min_cycles = aligned_total as f64 / cfg.bytes_per_cycle();
        prop_assert!(
            last + 1.0 >= min_cycles,
            "last ready {last} beats the bandwidth bound {min_cycles}"
        );
    }

    /// Alignment spans are minimal supersets: granularity-aligned, cover
    /// the request, and never exceed request + 2·(granularity − 1).
    #[test]
    fn aligned_span_is_tight(addr in 0u64..100_000, bytes in 1u64..5_000) {
        let cfg = MemConfig::default();
        let g = cfg.granularity;
        let span = cfg.aligned_span(addr, bytes);
        prop_assert_eq!(span % g, 0);
        prop_assert!(span >= bytes);
        prop_assert!(span < bytes + 2 * g);
        // Perfectly aligned requests have zero waste.
        let span_aligned = cfg.aligned_span(addr / g * g, g * 3);
        prop_assert_eq!(span_aligned, g * 3);
    }

    /// Reads return exactly what writes stored, through the controller.
    #[test]
    fn write_then_read_roundtrip(values in proptest::collection::vec(any::<u32>(), 1..64)) {
        let mut img = MemImage::new();
        let addr = img.alloc(values.len());
        let mut ctrl = MemoryController::new(MemConfig::default());
        ctrl.try_push(MemRequest::write(addr, values.clone(), 0), 0).unwrap();
        ctrl.try_push(MemRequest::read(addr, values.len() as u64 * 4, 1), 0).unwrap();
        let mut read_back = None;
        while let Some(now) = ctrl.next_ready_cycle() {
            let r = ctrl.pop_ready(now, &mut img).unwrap();
            if let Some(data) = r.data {
                read_back = Some(data);
            }
        }
        prop_assert_eq!(read_back.expect("read response"), values);
    }

    /// Stats ledger: useful bytes never exceed DRAM bytes, and both grow
    /// monotonically with accepted requests.
    #[test]
    fn stats_ledger_consistent(sizes in proptest::collection::vec(1u64..64, 1..32)) {
        let mut img = MemImage::new();
        let base = img.alloc(65536);
        let mut ctrl = MemoryController::new(MemConfig::default());
        let mut prev_dram = 0;
        for (i, &words) in sizes.iter().enumerate() {
            if ctrl.queue_len() == ctrl.config().queue_depth {
                let now = ctrl.next_ready_cycle().unwrap();
                let _ = ctrl.pop_ready(now, &mut img);
            }
            let _ = ctrl.try_push(MemRequest::read(base + i as u64 * 512, words * 4, 0), 0);
            let s = ctrl.stats();
            prop_assert!(s.useful_bytes <= s.dram_bytes);
            prop_assert!(s.dram_bytes >= prev_dram);
            prop_assert!((0.0..=1.0).contains(&s.efficiency()));
            prev_dram = s.dram_bytes;
        }
    }
}
