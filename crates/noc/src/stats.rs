use gnna_telemetry::{CostClass, EnergyCharge, KeyFamily};
use std::fmt;

/// Per-link busy cycles, `noc.link.{link}.busy_cycles`, with `link` a
/// [`link_id`] (connected mesh directions only).
pub const LINK_BUSY_KEYS: KeyFamily = KeyFamily::new("noc.link.", ".busy_cycles");

/// Per-link energy, `noc.energy.link.{link}_pj`, with `link` a
/// [`link_id`] (direction `L` sums a router's local ports).
pub const LINK_ENERGY_KEYS: KeyFamily = KeyFamily::new("noc.energy.link.", "_pj");

/// End-to-end packet latency histogram (master-clock cycles).
pub const PACKET_LATENCY_KEY: &str = "noc.packet_latency";

/// Per-packet link-hop histogram.
pub const PACKET_HOPS_KEY: &str = "noc.packet_hops";

/// The id of the link leaving router `(x, y)` towards `dir`: `{x}_{y}.{dir}`.
pub fn link_id(x: impl fmt::Display, y: impl fmt::Display, dir: &str) -> String {
    format!("{x}_{y}.{dir}")
}

/// Splits a [`link_id`] back into router coordinates and direction.
pub fn parse_link_id(id: &str) -> Option<(usize, usize, &str)> {
    let (coords, dir) = id.split_once('.')?;
    let (x, y) = coords.split_once('_')?;
    Some((x.parse().ok()?, y.parse().ok()?, dir))
}

/// The NoC's fault-counter site.
pub const FAULT_SITE: &str = "noc";

/// Ledger site of NoC link energy.
pub const NOC_ENERGY_SITE: &str = "noc";

/// The energy charge of `flit_hops` link traversals of `flit_bytes`-byte
/// flits: one byte-hop per byte per traversal. The energy ledger charges
/// it per link, the aggregate model for the whole mesh.
pub fn link_energy(flit_hops: u64, flit_bytes: u64) -> EnergyCharge {
    (
        NOC_ENERGY_SITE,
        CostClass::NocByteHop,
        flit_hops * flit_bytes,
    )
}

/// Counters accumulated by a [`crate::Network`] over a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkStats {
    /// Packets accepted by `try_inject`.
    pub packets_injected: u64,
    /// Packets fully delivered (tail flit ejected).
    pub packets_delivered: u64,
    /// Flits that entered the network fabric.
    pub flits_injected: u64,
    /// Flits removed by modules via `eject`.
    pub flits_ejected: u64,
    /// Total flit link/switch traversals.
    pub flit_hops: u64,
    /// Output-port busy cycles summed over all ports (for utilisation).
    pub link_busy_cycles: u64,
    /// Sum over delivered packets of (delivery cycle − injection cycle).
    pub total_packet_latency: u64,
}

impl NetworkStats {
    /// Every exported counter as `(metric suffix, value)`: the one name
    /// list of the `noc.{suffix}` family. `total_packet_latency` is
    /// exported as the `mean_packet_latency` gauge instead.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("packets_injected", self.packets_injected),
            ("packets_delivered", self.packets_delivered),
            ("flits_injected", self.flits_injected),
            ("flits_ejected", self.flits_ejected),
            ("flit_hops", self.flit_hops),
            ("link_busy_cycles", self.link_busy_cycles),
        ]
    }

    /// Mean end-to-end packet latency in cycles (0 when nothing was
    /// delivered).
    pub fn mean_packet_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.total_packet_latency as f64 / self.packets_delivered as f64
        }
    }

    /// Mean hops per delivered flit (0 when nothing moved).
    pub fn mean_hops_per_flit(&self) -> f64 {
        if self.flits_ejected == 0 {
            0.0
        } else {
            self.flit_hops as f64 / self.flits_ejected as f64
        }
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pkts {}/{} (in/out), flits {}/{}, hops {}, mean latency {:.1} cy",
            self.packets_injected,
            self.packets_delivered,
            self.flits_injected,
            self.flits_ejected,
            self.flit_hops,
            self.mean_packet_latency()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_handle_zero() {
        let s = NetworkStats::default();
        assert_eq!(s.mean_packet_latency(), 0.0);
        assert_eq!(s.mean_hops_per_flit(), 0.0);
    }

    #[test]
    fn means_compute() {
        let s = NetworkStats {
            packets_delivered: 4,
            total_packet_latency: 40,
            flits_ejected: 10,
            flit_hops: 30,
            ..NetworkStats::default()
        };
        assert_eq!(s.mean_packet_latency(), 10.0);
        assert_eq!(s.mean_hops_per_flit(), 3.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!NetworkStats::default().to_string().is_empty());
    }
}
