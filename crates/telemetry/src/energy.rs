//! Integer-exact energy attribution primitives.
//!
//! The paper's §II pitch is *energy* — GNNs on dense DNN accelerators
//! waste "a significant amount of energy … on unnecessary memory
//! accesses" — so the observability stack must be able to say *where*
//! the joules went, not just how many there were. This module provides
//! the bookkeeping that makes those claims auditable:
//!
//! * [`CostClass`] — the taxonomy of countable events a per-event pJ
//!   cost attaches to (MACs, scratchpad words, NoC byte-hops, DRAM
//!   bytes, GPE ops), mirroring the `StallCause` pattern used for stall
//!   attribution.
//! * [`EnergyRates`] — per-class costs quantized to integer
//!   **femtojoules**, so charging `count` events is a single exact
//!   `u64` multiplication and per-site ledgers can never drift from
//!   aggregate totals (floating-point accumulation order does not
//!   exist in this pipeline).
//! * [`EnergyLedger`] — an append-only list of named attribution sites
//!   (`tile0.energy.dna_pj`, `noc.energy.link.1_0.E_pj`, …) charged in
//!   fJ, exported to a [`MetricsRegistry`] as integer-pJ counters.
//! * [`apportion_pj`] — largest-remainder rounding from fJ cells to pJ
//!   counters, guaranteeing the exported counters sum to the total
//!   **exactly** (the conservation invariant the property tests in
//!   `gnna-core` enforce).
//!
//! ## Why femtojoules?
//!
//! The default per-event costs (3.1 pJ/MAC, 0.6 pJ/byte-hop, …) are not
//! integers in pJ, but all are exact in fJ. Accumulating in fJ with no
//! division keeps every intermediate exact; only the final export
//! divides by 1000, and [`apportion_pj`] distributes that rounding so
//! no picojoule is created or destroyed.

use crate::metrics::MetricsRegistry;
use std::fmt;

/// Femtojoules per picojoule (the ledger's internal scale factor).
pub const FJ_PER_PJ: u64 = 1000;

/// One energy charge: `(site, cost class, event count)`. The crate that
/// counts the events declares the charge; the ledger, the aggregate
/// energy model and the report all read that one declaration.
pub type EnergyCharge = (&'static str, CostClass, u64);

/// Class of countable micro-architectural event that a per-event energy
/// cost attaches to.
///
/// Every counter the simulator charges to the energy ledger names one of
/// these classes; the class picks the per-event cost out of an
/// [`EnergyRates`] table. The set mirrors the component formulas of the
/// aggregate energy model (Horowitz-style per-event costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// One 32-bit multiply–accumulate (DNA PE or AGG ALU).
    MacOp,
    /// One 32-bit scratchpad word access (DNQ fills, AGG partials).
    SramWord,
    /// One byte crossing one router + link of the mesh.
    NocByteHop,
    /// One byte of DRAM traffic (including alignment waste).
    DramByte,
    /// One GPE operation (in-order core cycle of useful work).
    GpeOp,
}

impl CostClass {
    /// Number of distinct classes (array dimension for per-class counts).
    pub const COUNT: usize = 5;

    /// All classes in canonical (rate-array) order.
    pub const ALL: [CostClass; Self::COUNT] = [
        CostClass::MacOp,
        CostClass::SramWord,
        CostClass::NocByteHop,
        CostClass::DramByte,
        CostClass::GpeOp,
    ];

    /// Canonical index into a `[u64; CostClass::COUNT]` array.
    pub const fn index(self) -> usize {
        match self {
            CostClass::MacOp => 0,
            CostClass::SramWord => 1,
            CostClass::NocByteHop => 2,
            CostClass::DramByte => 3,
            CostClass::GpeOp => 4,
        }
    }

    /// Snake-case name used in reports and metric metadata.
    pub const fn as_str(self) -> &'static str {
        match self {
            CostClass::MacOp => "mac_op",
            CostClass::SramWord => "sram_word",
            CostClass::NocByteHop => "noc_byte_hop",
            CostClass::DramByte => "dram_byte",
            CostClass::GpeOp => "gpe_op",
        }
    }
}

impl fmt::Display for CostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-class event costs quantized to integer femtojoules.
///
/// Built from floating-point pJ costs via [`EnergyRates::from_pj`]; all
/// charging after that point is exact `u64` arithmetic. Costs round to
/// the nearest femtojoule (sub-fJ precision is far below the fidelity of
/// a per-event energy model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyRates {
    fj: [u64; CostClass::COUNT],
}

impl EnergyRates {
    /// Quantizes per-class pJ costs (indexed by [`CostClass::index`])
    /// to integer fJ. Negative or non-finite costs clamp to zero.
    pub fn from_pj(pj: [f64; CostClass::COUNT]) -> Self {
        let mut fj = [0u64; CostClass::COUNT];
        for (slot, &cost) in fj.iter_mut().zip(pj.iter()) {
            if cost.is_finite() && cost > 0.0 {
                *slot = (cost * FJ_PER_PJ as f64).round() as u64;
            }
        }
        EnergyRates { fj }
    }

    /// The quantized cost of one `class` event, in femtojoules.
    pub fn fj(&self, class: CostClass) -> u64 {
        self.fj[class.index()]
    }

    /// The quantized cost of one `class` event, in picojoules (exact
    /// as a ratio of small integers; for display only).
    pub fn pj(&self, class: CostClass) -> f64 {
        self.fj[class.index()] as f64 / FJ_PER_PJ as f64
    }

    /// Energy of `count` events of `class`, in femtojoules.
    ///
    /// Exact for any realistic simulation (saturates at `u64::MAX` fJ
    /// ≈ 18 kJ, far beyond a single simulated inference).
    pub fn charge_fj(&self, class: CostClass, count: u64) -> u64 {
        count.saturating_mul(self.fj[class.index()])
    }
}

/// One named attribution site of an [`EnergyLedger`], charged in fJ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnergyCell {
    /// Full metric name the cell exports to (e.g. `tile0.energy.dna_pj`).
    pub name: String,
    /// Accumulated energy at this site, in femtojoules.
    pub fj: u64,
}

/// Append-only ledger of per-module energy attribution sites.
///
/// The ledger stores femtojoules internally and exports integer-pJ
/// counters whose sum equals `total_fj() / 1000` **exactly** (see
/// [`apportion_pj`]). Sites are kept in insertion order so exports are
/// deterministic.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EnergyLedger {
    cells: Vec<EnergyCell>,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends (or accumulates into) the site `name`, charging `fj`
    /// femtojoules. Re-charging an existing name adds to its cell.
    pub fn charge(&mut self, name: &str, fj: u64) {
        if let Some(cell) = self.cells.iter_mut().find(|c| c.name == name) {
            cell.fj = cell.fj.saturating_add(fj);
        } else {
            self.cells.push(EnergyCell {
                name: name.to_string(),
                fj,
            });
        }
    }

    /// The attribution sites, in insertion order.
    pub fn cells(&self) -> &[EnergyCell] {
        &self.cells
    }

    /// Total ledger energy in femtojoules.
    pub fn total_fj(&self) -> u64 {
        self.cells.iter().fold(0u64, |a, c| a.saturating_add(c.fj))
    }

    /// Total ledger energy in integer picojoules (floor of the exact
    /// fJ total — the value the exported counters sum to).
    pub fn total_pj(&self) -> u64 {
        self.total_fj() / FJ_PER_PJ
    }

    /// Exports one integer-pJ counter per site into `reg` (counter name
    /// = cell name), apportioned so the counters sum to
    /// [`EnergyLedger::total_pj`] exactly. Returns that total.
    pub fn export_pj(&self, reg: &mut MetricsRegistry) -> u64 {
        let fj: Vec<u64> = self.cells.iter().map(|c| c.fj).collect();
        let (total, per_cell) = apportion_pj(&fj);
        for (cell, pj) in self.cells.iter().zip(per_cell) {
            reg.counter_set(&cell.name, pj);
        }
        total
    }
}

/// Largest-remainder (Hamilton) apportionment of femtojoule cells into
/// integer-picojoule counters.
///
/// Returns `(total_pj, per_cell_pj)` where `total_pj = (Σ cells) / 1000`
/// (floor) and `Σ per_cell_pj == total_pj` **exactly**. Each cell gets
/// the floor of its own pJ value; the remaining deficit (strictly less
/// than the number of cells) is distributed one pJ at a time to the
/// cells with the largest fJ remainders, ties broken by lower index —
/// fully deterministic, no cell ever rounds by more than 1 pJ.
pub fn apportion_pj(cells_fj: &[u64]) -> (u64, Vec<u64>) {
    let total_fj = cells_fj.iter().fold(0u64, |a, &c| a.saturating_add(c));
    let total_pj = total_fj / FJ_PER_PJ;
    let mut pj: Vec<u64> = cells_fj.iter().map(|&c| c / FJ_PER_PJ).collect();
    let floor_sum: u64 = pj.iter().sum();
    let deficit = total_pj - floor_sum;
    if deficit > 0 {
        // Indices sorted by descending remainder, then ascending index.
        let mut order: Vec<usize> = (0..cells_fj.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(cells_fj[i] % FJ_PER_PJ), i));
        for &i in order.iter().take(deficit as usize) {
            pj[i] += 1;
        }
    }
    (total_pj, pj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_canonical() {
        for (i, c) in CostClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.as_str().is_empty());
            assert_eq!(c.to_string(), c.as_str());
        }
        assert_eq!(CostClass::ALL.len(), CostClass::COUNT);
    }

    #[test]
    fn default_paper_costs_are_exact_in_fj() {
        let r = EnergyRates::from_pj([3.1, 6.0, 0.6, 20.0, 8.0]);
        assert_eq!(r.fj(CostClass::MacOp), 3_100);
        assert_eq!(r.fj(CostClass::SramWord), 6_000);
        assert_eq!(r.fj(CostClass::NocByteHop), 600);
        assert_eq!(r.fj(CostClass::DramByte), 20_000);
        assert_eq!(r.fj(CostClass::GpeOp), 8_000);
        assert!((r.pj(CostClass::MacOp) - 3.1).abs() < 1e-12);
    }

    #[test]
    fn charging_is_linear_and_clamps_bad_costs() {
        let r = EnergyRates::from_pj([3.1, -1.0, f64::NAN, 0.0, 2.5]);
        assert_eq!(r.charge_fj(CostClass::MacOp, 10), 31_000);
        assert_eq!(r.charge_fj(CostClass::SramWord, 99), 0);
        assert_eq!(r.charge_fj(CostClass::NocByteHop, 99), 0);
        assert_eq!(r.charge_fj(CostClass::DramByte, 99), 0);
        assert_eq!(r.charge_fj(CostClass::GpeOp, 4), 10_000);
        // Saturates instead of wrapping.
        assert_eq!(r.charge_fj(CostClass::MacOp, u64::MAX), u64::MAX);
    }

    #[test]
    fn apportion_conserves_total_exactly() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![999],
            vec![999, 999, 999],
            vec![1_500, 1_500],
            vec![3_100, 6_000, 600, 20_000, 8_000],
            vec![1, 1, 1, 1, 1, 995],
            vec![u64::MAX / 4, u64::MAX / 4],
        ];
        for cells in cases {
            let (total, pj) = apportion_pj(&cells);
            let sum_fj: u64 = cells.iter().fold(0, |a, &c| a.saturating_add(c));
            assert_eq!(total, sum_fj / FJ_PER_PJ, "total for {cells:?}");
            assert_eq!(pj.iter().sum::<u64>(), total, "cell sum for {cells:?}");
            // No cell rounds by more than one pJ.
            for (c, p) in cells.iter().zip(&pj) {
                assert!(*p == c / FJ_PER_PJ || *p == c / FJ_PER_PJ + 1);
            }
        }
    }

    #[test]
    fn apportion_prefers_largest_remainder_then_lowest_index() {
        // 0.9 + 0.6 + 0.5 pJ = 2.0 pJ: the two largest remainders get
        // the two whole picojoules.
        let (total, pj) = apportion_pj(&[900, 600, 500]);
        assert_eq!(total, 2);
        assert_eq!(pj, vec![1, 1, 0]);
        // Equal remainders: lower index wins.
        let (total, pj) = apportion_pj(&[500, 500, 500, 500]);
        assert_eq!(total, 2);
        assert_eq!(pj, vec![1, 1, 0, 0]);
    }

    #[test]
    fn apportion_is_deterministic() {
        let cells = vec![123_456, 789_012, 345_678, 901_234, 567_890];
        assert_eq!(apportion_pj(&cells), apportion_pj(&cells));
    }

    #[test]
    fn ledger_accumulates_and_exports_conserved_counters() {
        let mut ledger = EnergyLedger::new();
        ledger.charge("tile0.energy.dna_pj", 3_100 * 7);
        ledger.charge("tile0.energy.sram_pj", 6_000 * 3);
        ledger.charge("tile0.energy.sram_pj", 500);
        ledger.charge("mem.energy.ctrl0_pj", 20_000);
        assert_eq!(ledger.cells().len(), 3);
        assert_eq!(ledger.total_fj(), 3_100 * 7 + 6_000 * 3 + 500 + 20_000);
        assert_eq!(ledger.total_pj(), ledger.total_fj() / FJ_PER_PJ);

        let mut reg = MetricsRegistry::new();
        let total = ledger.export_pj(&mut reg);
        assert_eq!(total, ledger.total_pj());
        let sum: u64 = [
            "tile0.energy.dna_pj",
            "tile0.energy.sram_pj",
            "mem.energy.ctrl0_pj",
        ]
        .iter()
        .map(|n| reg.get_counter(n).unwrap())
        .sum();
        assert_eq!(sum, total, "exported counters must conserve the total");
    }
}
