//! The Section II analysis: GCN executed on the DNN spatial accelerator.
//!
//! §II of the paper describes the GCN algorithm "as a series of
//! convolutional and fully connected layers", with the graph-convolution
//! step modelled as a matrix multiplication with the *dense* adjacency
//! matrix. This module builds that layer list for a graph, maps every
//! layer with the [`crate::mapper`], and aggregates the quantities the
//! paper reports:
//!
//! * **Table II** — inference latency at unlimited and 68 GB/s bandwidth,
//!   2.4 GHz clock;
//! * **Figure 2** — mean off-chip bandwidth and PE utilisation, total and
//!   *useful* (counting only non-zero adjacency entries).

use crate::mapper::{map_matmul, Mapping};
use crate::{DnnLayer, EyerissConfig, MatmulShape};
use gnna_graph::CsrGraph;
use std::fmt;

/// The layer dimensions of the 2-layer reference GCN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcnShape {
    /// Vertex count of the input graph.
    pub nodes: usize,
    /// Input feature width.
    pub in_features: usize,
    /// Hidden width (16 in the reference implementation).
    pub hidden: usize,
    /// Output classes.
    pub out_features: usize,
    /// Non-zeros of the adjacency including self-loops.
    pub adjacency_nnz: u64,
}

impl GcnShape {
    /// Extracts the shape from a graph and feature widths, counting
    /// `A + I` non-zeros the way GCN uses the adjacency.
    pub fn from_graph(graph: &CsrGraph, in_features: usize, hidden: usize, out: usize) -> Self {
        let with_loops = graph.with_self_loops();
        GcnShape {
            nodes: graph.num_nodes(),
            in_features,
            hidden,
            out_features: out,
            adjacency_nnz: with_loops.num_stored_edges() as u64,
        }
    }

    /// The four dense layers §II maps GCN onto: projection then adjacency
    /// matmul, per GCN layer.
    pub fn layers(&self) -> Vec<DnnLayer> {
        vec![
            DnnLayer::dense(
                "fc1",
                MatmulShape::fully_connected(self.nodes, self.in_features, self.hidden),
            ),
            DnnLayer::adjacency(
                "adj1",
                MatmulShape {
                    m: self.nodes,
                    k: self.nodes,
                    n: self.hidden,
                },
                self.adjacency_nnz,
            ),
            DnnLayer::dense(
                "fc2",
                MatmulShape::fully_connected(self.nodes, self.hidden, self.out_features),
            ),
            DnnLayer::adjacency(
                "adj2",
                MatmulShape {
                    m: self.nodes,
                    k: self.nodes,
                    n: self.out_features,
                },
                self.adjacency_nnz,
            ),
        ]
    }
}

/// One analysed layer: the mapping plus useful-work accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerReport {
    /// The layer description.
    pub layer: DnnLayer,
    /// Its mapping on the PE array.
    pub mapping: Mapping,
    /// Useful MACs (non-zero-driven for adjacency layers).
    pub useful_macs: u64,
    /// Useful DRAM bytes (adjacency streams scaled by density).
    pub useful_dram_bytes: u64,
}

/// The aggregated Section II report for one GCN/graph pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnAccelReport {
    /// The accelerator configuration used.
    pub config: EyerissConfig,
    /// Per-layer breakdown.
    pub layers: Vec<LayerReport>,
    /// Inference latency with unlimited bandwidth, seconds (Table II left).
    pub latency_unlimited_s: f64,
    /// Inference latency at the modelled bandwidth, seconds (Table II
    /// right).
    pub latency_bw_limited_s: f64,
    /// The bandwidth used for the limited case, bytes/s.
    pub bandwidth_bytes_per_s: f64,
    /// Mean demanded off-chip bandwidth, bytes/s (Fig 2, total bar).
    pub mean_bandwidth_total: f64,
    /// Mean *useful* off-chip bandwidth, bytes/s (Fig 2, useful bar).
    pub mean_bandwidth_useful: f64,
    /// PE utilisation counting all MACs (Fig 2, total).
    pub pe_utilization_total: f64,
    /// PE utilisation counting only useful MACs (Fig 2, useful).
    pub pe_utilization_useful: f64,
}

impl GcnAccelReport {
    /// Fraction of compute that is useful, in `[0, 1]` (the paper: "only
    /// 2 % of the compute is useful" for Pubmed).
    pub fn useful_compute_fraction(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.mapping.macs).sum();
        let useful: u64 = self.layers.iter().map(|l| l.useful_macs).sum();
        if total == 0 {
            0.0
        } else {
            useful as f64 / total as f64
        }
    }

    /// Fraction of DRAM traffic that is useful, in `[0, 1]`.
    pub fn useful_traffic_fraction(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.mapping.dram_bytes()).sum();
        let useful: u64 = self.layers.iter().map(|l| l.useful_dram_bytes).sum();
        if total == 0 {
            0.0
        } else {
            useful as f64 / total as f64
        }
    }
}

impl fmt::Display for GcnAccelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "latency: {:.3} ms unlimited, {:.3} ms @ {:.0} GB/s",
            self.latency_unlimited_s * 1e3,
            self.latency_bw_limited_s * 1e3,
            self.bandwidth_bytes_per_s / 1e9
        )?;
        writeln!(
            f,
            "bandwidth: {:.1} GB/s total, {:.2} GB/s useful; PE util: {:.1}% total, {:.2}% useful",
            self.mean_bandwidth_total / 1e9,
            self.mean_bandwidth_useful / 1e9,
            self.pe_utilization_total * 100.0,
            self.pe_utilization_useful * 100.0
        )
    }
}

/// Analyses a GCN shape on the DNN accelerator at the given off-chip
/// bandwidth (the paper uses 68 GB/s, ≈ 4 channels of DDR3-2400).
pub fn analyze_gcn(
    cfg: &EyerissConfig,
    shape: &GcnShape,
    bandwidth_bytes_per_s: f64,
) -> GcnAccelReport {
    let mut layers = Vec::new();
    let mut latency_unlimited = 0.0;
    let mut latency_limited = 0.0;
    for layer in shape.layers() {
        let mapping = map_matmul(cfg, layer.shape);
        let useful_macs = layer.useful_macs();
        // Useful traffic: the adjacency stream (the A operand re-reads)
        // scaled by density; B/C traffic is feature data and fully useful.
        let useful_dram_bytes = if layer.adjacency_nnz.is_some() {
            let passes_a = (layer.shape.n as u64).div_ceil(mapping.tile_n.max(1) as u64);
            let a_stream = layer.shape.a_words() * passes_a * cfg.word_bytes as u64;
            let a_stream = a_stream.min(mapping.dram_read_bytes);
            let feature_bytes = mapping.dram_bytes() - a_stream;
            (a_stream as f64 * layer.density()) as u64 + feature_bytes
        } else {
            mapping.dram_bytes()
        };
        latency_unlimited += mapping.latency_unlimited(cfg);
        latency_limited += mapping.latency_at_bandwidth(cfg, bandwidth_bytes_per_s);
        layers.push(LayerReport {
            layer,
            mapping,
            useful_macs,
            useful_dram_bytes,
        });
    }
    let total_bytes: u64 = layers.iter().map(|l| l.mapping.dram_bytes()).sum();
    let useful_bytes: u64 = layers.iter().map(|l| l.useful_dram_bytes).sum();
    let total_macs: u64 = layers.iter().map(|l| l.mapping.macs).sum();
    let useful_macs: u64 = layers.iter().map(|l| l.useful_macs).sum();
    let compute_cycles: u64 = layers.iter().map(|l| l.mapping.compute_cycles).sum();
    let pe_cycles = compute_cycles as f64 * cfg.num_pes as f64;
    GcnAccelReport {
        config: *cfg,
        layers,
        latency_unlimited_s: latency_unlimited,
        latency_bw_limited_s: latency_limited,
        bandwidth_bytes_per_s,
        mean_bandwidth_total: total_bytes as f64 / latency_limited,
        mean_bandwidth_useful: useful_bytes as f64 / latency_limited,
        pe_utilization_total: total_macs as f64 / pe_cycles,
        pe_utilization_useful: useful_macs as f64 / pe_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Cora-statistics shape without generating the graph.
    fn cora_shape() -> GcnShape {
        GcnShape {
            nodes: 2708,
            in_features: 1433,
            hidden: 16,
            out_features: 7,
            adjacency_nnz: 2 * 5429 + 2708,
        }
    }

    fn pubmed_shape() -> GcnShape {
        GcnShape {
            nodes: 19717,
            in_features: 500,
            hidden: 16,
            out_features: 3,
            adjacency_nnz: 2 * 44338 + 19717,
        }
    }

    #[test]
    fn layer_list_structure() {
        let layers = cora_shape().layers();
        assert_eq!(layers.len(), 4);
        assert_eq!(layers[0].name, "fc1");
        assert!(layers[1].adjacency_nnz.is_some());
        assert_eq!(layers[1].shape.m, 2708);
        assert_eq!(layers[1].shape.k, 2708);
    }

    #[test]
    fn cora_latency_in_table_ii_regime() {
        // Paper Table II: 0.791 ms unlimited, 1.597 ms at 68 GB/s. Our
        // analytic mapper should land in the same regime (same order,
        // bandwidth-limited roughly 2x the unlimited number).
        let r = analyze_gcn(&EyerissConfig::default(), &cora_shape(), 68e9);
        let unlimited_ms = r.latency_unlimited_s * 1e3;
        let limited_ms = r.latency_bw_limited_s * 1e3;
        assert!(
            (0.2..=2.5).contains(&unlimited_ms),
            "unlimited {unlimited_ms} ms"
        );
        assert!((0.8..=4.0).contains(&limited_ms), "limited {limited_ms} ms");
        assert!(limited_ms > unlimited_ms);
    }

    #[test]
    fn pubmed_latency_in_table_ii_regime() {
        // Paper: 22.129 ms unlimited, 64.636 ms at 68 GB/s.
        let r = analyze_gcn(&EyerissConfig::default(), &pubmed_shape(), 68e9);
        let unlimited_ms = r.latency_unlimited_s * 1e3;
        let limited_ms = r.latency_bw_limited_s * 1e3;
        assert!(
            (10.0..=35.0).contains(&unlimited_ms),
            "unlimited {unlimited_ms} ms"
        );
        assert!(
            (40.0..=90.0).contains(&limited_ms),
            "limited {limited_ms} ms"
        );
    }

    #[test]
    fn pubmed_useful_compute_about_two_percent() {
        // The paper: "only 1% of the memory requests and 2% of the compute
        // are useful" for Pubmed.
        let r = analyze_gcn(&EyerissConfig::default(), &pubmed_shape(), 68e9);
        let compute = r.useful_compute_fraction();
        let traffic = r.useful_traffic_fraction();
        assert!(
            (0.005..=0.06).contains(&compute),
            "compute fraction {compute}"
        );
        assert!(
            (0.002..=0.05).contains(&traffic),
            "traffic fraction {traffic}"
        );
    }

    #[test]
    fn useful_never_exceeds_total() {
        for shape in [cora_shape(), pubmed_shape()] {
            let r = analyze_gcn(&EyerissConfig::default(), &shape, 68e9);
            assert!(r.mean_bandwidth_useful <= r.mean_bandwidth_total);
            assert!(r.pe_utilization_useful <= r.pe_utilization_total);
            for l in &r.layers {
                assert!(l.useful_macs <= l.mapping.macs);
                assert!(l.useful_dram_bytes <= l.mapping.dram_bytes());
            }
        }
    }

    #[test]
    fn denser_graph_has_higher_useful_fraction() {
        let sparse = pubmed_shape();
        let mut dense = pubmed_shape();
        dense.adjacency_nnz *= 10;
        let cfg = EyerissConfig::default();
        let rs = analyze_gcn(&cfg, &sparse, 68e9);
        let rd = analyze_gcn(&cfg, &dense, 68e9);
        assert!(rd.useful_compute_fraction() > rs.useful_compute_fraction());
    }

    #[test]
    fn from_graph_counts_self_loops() {
        let g = gnna_graph::CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let s = GcnShape::from_graph(&g, 8, 4, 2);
        assert_eq!(s.adjacency_nnz, 4 + 3);
        assert_eq!(s.nodes, 3);
    }

    #[test]
    fn display_contains_latency() {
        let r = analyze_gcn(&EyerissConfig::default(), &cora_shape(), 68e9);
        assert!(r.to_string().contains("latency"));
    }
}
