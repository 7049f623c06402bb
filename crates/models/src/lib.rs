//! Functional reference implementations of the paper's four GNN benchmarks.
//!
//! Section V of the paper evaluates four models chosen for diversity across
//! spatial/spectral convolution, aggregation scheme, model size and graph
//! traversal:
//!
//! * [`Gcn`] — Graph Convolutional Network (Kipf & Welling), spectral.
//! * [`Gat`] — Graph Attention Network (Veličković et al.) with the
//!   attention *normalisation removed*, exactly as the paper's §VI does to
//!   match its accelerator implementation.
//! * [`Mpnn`] — Message Passing Neural Network (Gilmer et al.) with an
//!   edge-conditioned message MLP, GRU vertex updates and a sum readout.
//! * [`Pgnn`] — Power GNN (the multi-hop convolution component of the Line
//!   GNN of Chen et al.), operating on adjacency powers.
//!
//! These implementations serve two purposes: they are the *semantics* the
//! cycle-level accelerator simulation is verified against (bit-for-bit on
//! small graphs), and their operation counts drive the analytic CPU/GPU
//! baseline models.
//!
//! # Example
//!
//! ```
//! use gnna_graph::datasets;
//! use gnna_models::Gcn;
//!
//! # fn main() -> Result<(), gnna_models::ModelError> {
//! let d = datasets::cora_scaled(64, 32, 7, 1)?;
//! let gcn = Gcn::for_dataset(32, 16, 7, 99)?;
//! let inst = &d.instances[0];
//! let y = gcn.forward(&inst.graph, &inst.x)?;
//! assert_eq!(y.shape(), (64, 7));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gat;
mod gcn;
pub mod init;
mod mlp;
mod mpnn;
mod pgnn;
pub mod workload;

pub use error::ModelError;
pub use gat::{Gat, GatLayer};
pub use gcn::{Gcn, GcnLayer, GcnNorm};
pub use mlp::Mlp;
pub use mpnn::{MessageFunction, Mpnn};
pub use pgnn::{Pgnn, PgnnLayer};

/// The four benchmark model families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Graph Convolutional Network.
    Gcn,
    /// Graph Attention Network (unnormalised attention).
    Gat,
    /// Message Passing Neural Network.
    Mpnn,
    /// Power GNN (multi-hop convolution).
    Pgnn,
}

impl ModelKind {
    /// The model called `name` on the command line or the wire: `gcn`,
    /// `gat`, `mpnn` or `pgnn` (any case).
    ///
    /// # Errors
    ///
    /// Names the unknown model and lists the accepted ones.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "gcn" => Ok(ModelKind::Gcn),
            "gat" => Ok(ModelKind::Gat),
            "mpnn" => Ok(ModelKind::Mpnn),
            "pgnn" => Ok(ModelKind::Pgnn),
            other => Err(format!("unknown model {other} (gcn|gat|mpnn|pgnn)")),
        }
    }

    /// The paper's name for this model.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Gat => "GAT",
            ModelKind::Mpnn => "MPNN",
            ModelKind::Pgnn => "PGNN",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The six benchmark/input pairs evaluated in the paper (Table VII rows).
pub const BENCHMARK_PAIRS: [(ModelKind, &str); 6] = [
    (ModelKind::Gcn, "Cora"),
    (ModelKind::Gcn, "Citeseer"),
    (ModelKind::Gcn, "Pubmed"),
    (ModelKind::Gat, "Cora"),
    (ModelKind::Mpnn, "QM9_1000"),
    (ModelKind::Pgnn, "DBLP_1"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Gcn.name(), "GCN");
        assert_eq!(ModelKind::Pgnn.to_string(), "PGNN");
        assert_eq!(ModelKind::parse("GAT"), Ok(ModelKind::Gat));
        assert_eq!(ModelKind::parse("mpnn"), Ok(ModelKind::Mpnn));
        assert!(ModelKind::parse("cnn").is_err());
    }

    #[test]
    fn benchmark_pairs_match_table_vii() {
        assert_eq!(BENCHMARK_PAIRS.len(), 6);
        assert_eq!(BENCHMARK_PAIRS[2], (ModelKind::Gcn, "Pubmed"));
        assert_eq!(BENCHMARK_PAIRS[5], (ModelKind::Pgnn, "DBLP_1"));
    }
}
