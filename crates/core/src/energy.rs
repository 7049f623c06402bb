//! A first-order energy model over simulation reports.
//!
//! §II motivates the accelerator with *energy*: "a significant amount of
//! energy being wasted on unnecessary memory accesses" when GNNs run on
//! dense DNN accelerators. This module closes that loop: it converts the
//! event counts a [`SimReport`] accumulates (MACs, scratchpad words, NoC
//! flit-hops, DRAM bytes, GPE operations) into energy using per-event
//! costs in the style of Horowitz's ISSCC'14 survey (as Eyeriss and its
//! successors do), so configurations and dataflows can be compared on
//! energy as well as latency.
//!
//! The defaults approximate a 45 nm-class node: a 32-bit fixed-point MAC
//! at ~3 pJ, small-scratchpad accesses at ~6 pJ/word, on-chip link+switch
//! traversal at ~0.6 pJ/byte per hop, and DRAM at ~20 pJ/byte. Absolute
//! joules are indicative; *relative* comparisons between dataflows and
//! configurations are the point.
//!
//! ## Integer-exact accounting
//!
//! All derived energies come from one integer pipeline: per-class event
//! counts ([`EnergyModel::class_counts`]) × femtojoule rates
//! ([`EnergyModel::rates`]) accumulated in `u64`. The floating-point
//! [`EnergyReport`] is a *projection* of that integer ledger
//! (`fJ × 1e-15`).
//!
//! Each on-tile and checkpoint charge (site, cost class, event count) is
//! declared once, in [`TileCounters::energy`] and
//! [`RecoverySummary::energy`]; DRAM bytes and NoC byte-hops are charged
//! per controller and per link in the traced ledger and as the report's
//! totals here. The ledger and its per-layer snapshots, the class
//! counts, [`EnergyReport`] and the report's energy rows all read these
//! declarations, so the joule summary and the exported counters agree
//! by construction, rollback included. `tests/goldens.rs` checks this
//! exactly.
//!
//! [`RecoverySummary::energy`]: crate::stats::RecoverySummary::energy

use crate::stats::{EnergyCharge, SimReport, TileCounters};
use gnna_mem::MemStats;
use gnna_noc::link_energy;
use gnna_telemetry::energy::{CostClass, EnergyRates};
use std::fmt;

/// Converts an integer femtojoule total into joules (exact for all
/// totals below 2^53 fJ ≈ 9 J; far beyond a single inference).
fn fj_to_j(fj: u64) -> f64 {
    fj as f64 * 1e-15
}

/// Per-event energy costs in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One 32-bit multiply–accumulate (DNA PE or AGG ALU).
    pub mac_pj: f64,
    /// One 32-bit scratchpad access (DNQ fills, AGG partials).
    pub sram_word_pj: f64,
    /// One byte crossing one router + link.
    pub noc_byte_hop_pj: f64,
    /// One byte of DRAM traffic (including alignment waste).
    pub dram_byte_pj: f64,
    /// One GPE operation (simple in-order core cycle of useful work).
    pub gpe_op_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            mac_pj: 3.1,
            sram_word_pj: 6.0,
            noc_byte_hop_pj: 0.6,
            dram_byte_pj: 20.0,
            gpe_op_pj: 8.0,
        }
    }
}

/// An energy breakdown for one simulated inference, in joules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// DNA MAC energy.
    pub compute_j: f64,
    /// AGG ALU energy (one MAC-equivalent per combined word).
    pub aggregation_j: f64,
    /// Scratchpad access energy (DNQ fills + AGG partial read/write).
    pub scratchpad_j: f64,
    /// NoC transport energy.
    pub noc_j: f64,
    /// DRAM energy.
    pub dram_j: f64,
    /// GPE control energy.
    pub gpe_j: f64,
}

impl EnergyReport {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j
            + self.aggregation_j
            + self.scratchpad_j
            + self.noc_j
            + self.dram_j
            + self.gpe_j
    }

    /// Fraction of the total spent moving data (NoC + DRAM), the paper's
    /// §II concern.
    pub fn data_movement_fraction(&self) -> f64 {
        let t = self.total_j();
        if t == 0.0 {
            0.0
        } else {
            (self.noc_j + self.dram_j) / t
        }
    }

    /// Mean power in watts over an inference of `latency_s` seconds.
    pub fn mean_power_w(&self, latency_s: f64) -> f64 {
        if latency_s <= 0.0 {
            0.0
        } else {
            self.total_j() / latency_s
        }
    }
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} uJ total (compute {:.1}, agg {:.1}, sram {:.1}, noc {:.1}, dram {:.1}, gpe {:.1}; {:.0}% data movement)",
            self.total_j() * 1e6,
            self.compute_j * 1e6,
            self.aggregation_j * 1e6,
            self.scratchpad_j * 1e6,
            self.noc_j * 1e6,
            self.dram_j * 1e6,
            self.gpe_j * 1e6,
            self.data_movement_fraction() * 100.0
        )
    }
}

impl EnergyModel {
    /// The model's per-event costs quantized to integer femtojoules,
    /// indexed by [`CostClass`]. All defaults are exactly representable
    /// (3.1 pJ → 3100 fJ, 0.6 pJ → 600 fJ, …), so quantization loses
    /// nothing for the paper's cost table.
    pub fn rates(&self) -> EnergyRates {
        let mut pj = [0.0f64; CostClass::COUNT];
        pj[CostClass::MacOp.index()] = self.mac_pj;
        pj[CostClass::SramWord.index()] = self.sram_word_pj;
        pj[CostClass::NocByteHop.index()] = self.noc_byte_hop_pj;
        pj[CostClass::DramByte.index()] = self.dram_byte_pj;
        pj[CostClass::GpeOp.index()] = self.gpe_op_pj;
        EnergyRates::from_pj(pj)
    }

    /// Every energy charge a report implies: each tile's
    /// [`TileCounters::energy`], the DRAM traffic of all controllers
    /// ([`MemStats::energy`]), the NoC traffic of all links
    /// ([`link_energy`]: `noc_flit_bytes` per flit-hop, 64 in Table IV,
    /// narrower in crossbar-width ablations) and the checkpoint traffic
    /// (all zeros outside rollback).
    fn charges(report: &SimReport) -> impl Iterator<Item = EnergyCharge> + '_ {
        let mem = MemStats {
            dram_bytes: report.dram_bytes,
            ..MemStats::default()
        };
        let noc = link_energy(report.noc_flit_hops, report.noc_flit_bytes);
        let per_tile = report.per_tile.iter().flat_map(TileCounters::energy);
        per_tile
            .chain([mem.energy(), noc])
            .chain(report.recovery.energy())
    }

    /// Event counts per [`CostClass`] implied by a report (indexed by
    /// [`CostClass::index`]): its charges folded by class.
    pub fn class_counts(report: &SimReport) -> [u64; CostClass::COUNT] {
        let mut counts = [0u64; CostClass::COUNT];
        for (_, class, n) in Self::charges(report) {
            counts[class.index()] += n;
        }
        counts
    }

    /// Total energy of a simulated inference in exact integer
    /// femtojoules — the ground truth every other figure derives from.
    pub fn total_fj(&self, report: &SimReport) -> u64 {
        let rates = self.rates();
        let counts = Self::class_counts(report);
        CostClass::ALL
            .iter()
            .map(|&c| rates.charge_fj(c, counts[c.index()]))
            .fold(0u64, |a, b| a.saturating_add(b))
    }

    /// Total energy in integer picojoules (floor of the exact fJ
    /// total). This is the value the traced simulator's
    /// `system.energy.total_pj` counter reports and that the per-module
    /// `*.energy.*_pj` counters sum to exactly.
    pub fn total_pj(&self, report: &SimReport) -> u64 {
        self.total_fj(report) / 1000
    }

    /// Estimates the energy of a simulated inference from its report.
    ///
    /// Every component is a class count × its fJ rate, projected to
    /// joules; the MAC class is split into its `dna` (compute) and `agg`
    /// (aggregation) sites. The components therefore sum to
    /// [`EnergyModel::total_fj`] up to f64 rounding.
    pub fn estimate(&self, report: &SimReport) -> EnergyReport {
        let rates = self.rates();
        let counts = Self::class_counts(report);
        let joules = |class: CostClass, count: u64| fj_to_j(rates.charge_fj(class, count));
        let class = |c: CostClass| joules(c, counts[c.index()]);
        let macs_at = |site: &str| {
            let charges = Self::charges(report).filter(|&(s, _, _)| s == site);
            charges.map(|(_, _, n)| n).sum()
        };
        EnergyReport {
            compute_j: joules(CostClass::MacOp, macs_at("dna")),
            aggregation_j: joules(CostClass::MacOp, macs_at("agg")),
            scratchpad_j: class(CostClass::SramWord),
            noc_j: class(CostClass::NocByteHop),
            dram_j: class(CostClass::DramByte),
            gpe_j: class(CostClass::GpeOp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimReport;

    fn report() -> SimReport {
        SimReport {
            config_name: "test".into(),
            core_clock_hz: 2.4e9,
            noc_clock_hz: 2.4e9,
            clock_divider: 1,
            total_cycles: 2_400_000,
            config_cycles: 0,
            layers: vec![],
            dram_bytes: 1_000_000,
            useful_mem_bytes: 900_000,
            peak_mem_bandwidth: 68e9,
            dna_busy_cycles: 10_000,
            dna_entries: 100,
            dna_macs: 10_000_000,
            gpe_op_cycles: 100_000,
            gpe_idle_cycles: 0,
            agg_busy_cycles: 100,
            agg_completed: 10,
            agg_words_combined: 50_000,
            dnq_fill_words: 60_000,
            noc_flit_hops: 200_000,
            noc_flit_bytes: 64,
            num_tiles: 1,
            per_tile: vec![TileCounters {
                dna_macs: 10_000_000,
                gpe_op_cycles: 100_000,
                agg_words_combined: 50_000,
                dnq_fill_words: 60_000,
                ..TileCounters::default()
            }],
            resilience: crate::stats::ResilienceSummary::default(),
            degraded: crate::stats::DegradedSummary::default(),
            recovery: crate::stats::RecoverySummary::default(),
        }
    }

    #[test]
    fn checkpoint_traffic_charges_into_class_counts() {
        let mut r = report();
        let base = EnergyModel::class_counts(&r);
        r.recovery.checkpoint_sram_words = 1000;
        r.recovery.checkpoint_dram_bytes = 8000;
        r.recovery.checkpoint_noc_byte_hops = 4000;
        let with = EnergyModel::class_counts(&r);
        assert_eq!(
            with[CostClass::SramWord.index()],
            base[CostClass::SramWord.index()] + 1000
        );
        assert_eq!(
            with[CostClass::DramByte.index()],
            base[CostClass::DramByte.index()] + 8000
        );
        assert_eq!(
            with[CostClass::NocByteHop.index()],
            base[CostClass::NocByteHop.index()] + 4000
        );
        assert!(EnergyModel::default().total_fj(&r) > EnergyModel::default().total_fj(&report()));
    }

    #[test]
    fn breakdown_sums_to_total() {
        let e = EnergyModel::default().estimate(&report());
        let sum = e.compute_j + e.aggregation_j + e.scratchpad_j + e.noc_j + e.dram_j + e.gpe_j;
        assert!((e.total_j() - sum).abs() < 1e-18);
        assert!(e.total_j() > 0.0);
    }

    #[test]
    fn component_formulas() {
        let m = EnergyModel::default();
        let e = m.estimate(&report());
        assert!((e.compute_j - 10_000_000.0 * 3.1e-12).abs() < 1e-12);
        assert!((e.dram_j - 1_000_000.0 * 20.0e-12).abs() < 1e-12);
        assert!((e.noc_j - 200_000.0 * 64.0 * 0.6e-12).abs() < 1e-12);
    }

    #[test]
    fn data_movement_fraction_in_range() {
        let e = EnergyModel::default().estimate(&report());
        assert!((0.0..=1.0).contains(&e.data_movement_fraction()));
        // DRAM at 20 pJ/B dominates this profile.
        assert!(e.dram_j > e.compute_j * 0.5);
    }

    #[test]
    fn mean_power_is_energy_over_time() {
        let e = EnergyModel::default().estimate(&report());
        let p = e.mean_power_w(1e-3);
        assert!((p - e.total_j() / 1e-3).abs() < 1e-12);
        assert_eq!(e.mean_power_w(0.0), 0.0);
    }

    #[test]
    fn display_mentions_total() {
        let e = EnergyModel::default().estimate(&report());
        assert!(e.to_string().contains("uJ total"));
    }

    #[test]
    fn default_rates_quantize_exactly() {
        let r = EnergyModel::default().rates();
        assert_eq!(r.fj(CostClass::MacOp), 3_100);
        assert_eq!(r.fj(CostClass::SramWord), 6_000);
        assert_eq!(r.fj(CostClass::NocByteHop), 600);
        assert_eq!(r.fj(CostClass::DramByte), 20_000);
        assert_eq!(r.fj(CostClass::GpeOp), 8_000);
    }

    /// The f64 report total is the integer fJ total × 1e-15 up to the
    /// last-bit rounding of the six component projections.
    fn assert_projection(m: &EnergyModel, r: &SimReport) {
        let total_j = m.total_fj(r) as f64 * 1e-15;
        let e = m.estimate(r);
        assert!(
            (e.total_j() - total_j).abs() <= 8.0 * f64::EPSILON * total_j,
            "float summary {} J drifted from the integer ledger {total_j} J",
            e.total_j()
        );
        assert_eq!(m.total_pj(r), m.total_fj(r) / 1000);
    }

    #[test]
    fn float_summary_is_projection_of_integer_total() {
        assert_projection(&EnergyModel::default(), &report());
    }

    #[test]
    fn float_summary_includes_checkpoint_traffic() {
        let mut r = report();
        r.recovery.checkpoint_sram_words = 1000;
        r.recovery.checkpoint_dram_bytes = 8000;
        r.recovery.checkpoint_noc_byte_hops = 4000;
        assert_projection(&EnergyModel::default(), &r);
    }

    #[test]
    fn class_counts_match_component_formulas() {
        let r = report();
        let counts = EnergyModel::class_counts(&r);
        // 10M DNA MACs + 50k AGG words; 3 × 50k AGG + 2 × 60k DNQ words.
        assert_eq!(counts[CostClass::MacOp.index()], 10_050_000);
        assert_eq!(counts[CostClass::SramWord.index()], 270_000);
        assert_eq!(counts[CostClass::NocByteHop.index()], 200_000 * 64);
        // Halving the crossbar width halves the byte-hops for the same
        // hop count (the 64 B vs 32 B ablation of the energy diffs).
        let mut narrow = r.clone();
        narrow.noc_flit_bytes = 32;
        let narrow_counts = EnergyModel::class_counts(&narrow);
        assert_eq!(
            2 * narrow_counts[CostClass::NocByteHop.index()],
            counts[CostClass::NocByteHop.index()]
        );
        assert_eq!(counts[CostClass::DramByte.index()], r.dram_bytes);
        assert_eq!(counts[CostClass::GpeOp.index()], r.gpe_op_cycles);
        // The compute and aggregation components split the MAC class.
        let m = EnergyModel::default();
        let e = m.estimate(&r);
        let mac_j = counts[CostClass::MacOp.index()] as f64 * 3.1e-12;
        assert!((e.compute_j + e.aggregation_j - mac_j).abs() < 1e-15);
        assert!((e.aggregation_j - 50_000.0 * 3.1e-12).abs() < 1e-15);
    }

    #[test]
    fn custom_costs_scale_linearly() {
        let base = EnergyModel::default();
        let double = EnergyModel {
            dram_byte_pj: base.dram_byte_pj * 2.0,
            ..base
        };
        let r = report();
        assert!((double.estimate(&r).dram_j - 2.0 * base.estimate(&r).dram_j).abs() < 1e-15);
    }
}
