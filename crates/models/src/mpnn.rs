use crate::init::{glorot, subseed};
use crate::{Mlp, ModelError};
use gnna_graph::{CsrGraph, GraphInstance};
use gnna_tensor::ops::{Activation, GruCell};
use gnna_tensor::Matrix;
use gnna_tensor::TensorError;

/// A Message Passing Neural Network (Gilmer et al. 2017) — benchmark C.
///
/// The model processes each molecular graph independently:
///
/// 1. **Embed** atom features into a hidden state (`in → hidden`).
/// 2. For `steps` message-passing iterations: every stored edge `(v, u)`
///    produces a message `edge_mlp([h_u ‖ e_vu])`; messages are summed per
///    destination vertex and fed to a GRU vertex update.
/// 3. **Readout**: hidden states are summed over the graph and passed
///    through an output MLP.
///
/// Two message functions are supported (see [`MessageFunction`]): the
/// benchmark uses Gilmer et al.'s edge network (a per-edge matrix from
/// the bond features — [`Mpnn::for_dataset_gilmer`]); a lighter
/// edge-conditioned MLP variant is available for fast tests
/// ([`Mpnn::for_dataset`]).
///
/// # Example
///
/// ```
/// use gnna_graph::datasets;
/// use gnna_models::Mpnn;
///
/// # fn main() -> Result<(), gnna_models::ModelError> {
/// let d = datasets::qm9_scaled(4, 1)?;
/// let mpnn = Mpnn::for_dataset(13, 5, 64, 73, 3, 7)?;
/// let y = mpnn.forward_dataset(&d.instances)?;
/// assert_eq!(y.shape(), (4, 73));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mpnn {
    embed: Matrix,
    message: MessageFunction,
    gru: GruCell,
    readout: Mlp,
    steps: usize,
    hidden: usize,
    edge_dim: usize,
}

/// The per-edge message function variants.
#[derive(Debug, Clone, PartialEq)]
pub enum MessageFunction {
    /// An edge-conditioned MLP on the concatenation `[h_u ‖ e_uv]`
    /// producing the message directly (the lighter variant).
    Mlp(Mlp),
    /// Gilmer et al.'s *edge network*: an MLP maps the edge features to
    /// an `hidden × hidden` matrix `A(e_uv)`, and the message is
    /// `A(e_uv) · h_u`. This is the variant the QM9 reference
    /// implementation uses and the one the paper benchmarks.
    EdgeNetwork(Mlp),
}

impl MessageFunction {
    /// MACs one edge message costs.
    pub fn macs_per_edge(&self, hidden: usize) -> u64 {
        match self {
            MessageFunction::Mlp(mlp) => mlp.macs_per_row(),
            MessageFunction::EdgeNetwork(net) => net.macs_per_row() + (hidden * hidden) as u64,
        }
    }

    /// Weight parameters of the message function.
    pub fn num_params(&self) -> u64 {
        match self {
            MessageFunction::Mlp(mlp) | MessageFunction::EdgeNetwork(mlp) => mlp.num_params(),
        }
    }

    /// Computes one message from `h_u` and `e` (may be empty).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the inner MLP.
    pub fn message(&self, h_u: &[f32], e: &[f32]) -> Result<Vec<f32>, ModelError> {
        match self {
            MessageFunction::Mlp(mlp) => {
                let mut input = Vec::with_capacity(h_u.len() + e.len());
                input.extend_from_slice(h_u);
                input.extend_from_slice(e);
                let x = Matrix::from_vec(1, input.len(), input)?;
                Ok(mlp.forward(&x)?.into_vec())
            }
            MessageFunction::EdgeNetwork(net) => {
                let hidden = h_u.len();
                let x = Matrix::from_vec(1, e.len(), e.to_vec())?;
                let a = net.forward(&x)?;
                if a.cols() != hidden * hidden {
                    return Err(ModelError::Tensor(TensorError::ShapeMismatch {
                        op: "edge network output",
                        lhs: (1, a.cols()),
                        rhs: (hidden, hidden),
                    }));
                }
                let a = a.row(0);
                let mut out = vec![0.0f32; hidden];
                for (i, o) in out.iter_mut().enumerate() {
                    let row = &a[i * hidden..(i + 1) * hidden];
                    *o = row.iter().zip(h_u).map(|(w, h)| w * h).sum();
                }
                Ok(out)
            }
        }
    }
}

impl Mpnn {
    /// Builds the QM9-style MPNN: `in_features`-wide atom features,
    /// `edge_features`-wide bond features, `hidden` state width, `steps`
    /// message-passing iterations, and an `out_features`-wide graph-level
    /// readout.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for zero widths or steps.
    pub fn for_dataset(
        in_features: usize,
        edge_features: usize,
        hidden: usize,
        out_features: usize,
        steps: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        if in_features == 0 || hidden == 0 || out_features == 0 || steps == 0 {
            return Err(ModelError::InvalidConfig {
                reason: "MPNN widths and steps must be non-zero".into(),
            });
        }
        let embed = glorot(in_features, hidden, subseed(seed, 0));
        let message = MessageFunction::Mlp(Mlp::new(
            &[hidden + edge_features, hidden, hidden],
            Activation::Relu,
            subseed(seed, 1),
        )?);
        let mut gru = GruCell::with_constant(hidden, hidden, 0.0);
        gru.w_r = glorot(hidden, hidden, subseed(seed, 2));
        gru.w_z = glorot(hidden, hidden, subseed(seed, 3));
        gru.w_h = glorot(hidden, hidden, subseed(seed, 4));
        gru.u_r = glorot(hidden, hidden, subseed(seed, 5));
        gru.u_z = glorot(hidden, hidden, subseed(seed, 6));
        gru.u_h = glorot(hidden, hidden, subseed(seed, 7));
        let readout = Mlp::new(
            &[hidden, 2 * hidden, out_features],
            Activation::Relu,
            subseed(seed, 8),
        )?;
        Ok(Mpnn {
            embed,
            message,
            gru,
            readout,
            steps,
            hidden,
            edge_dim: edge_features,
        })
    }

    /// Builds the Gilmer-faithful MPNN whose message function is an
    /// *edge network* producing an `hidden × hidden` matrix from the bond
    /// features — the heavier variant the paper's QM9 reference uses.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for zero widths/steps or
    /// `edge_features == 0` (the edge network needs bond features).
    pub fn for_dataset_gilmer(
        in_features: usize,
        edge_features: usize,
        hidden: usize,
        out_features: usize,
        steps: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        if edge_features == 0 {
            return Err(ModelError::InvalidConfig {
                reason: "the edge network needs edge features".into(),
            });
        }
        let mut m = Self::for_dataset(
            in_features,
            edge_features,
            hidden,
            out_features,
            steps,
            seed,
        )?;
        m.message = MessageFunction::EdgeNetwork(Mlp::new(
            &[edge_features, hidden * hidden],
            Activation::None,
            subseed(seed, 9),
        )?);
        Ok(m)
    }

    /// Hidden state width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Atom (vertex) feature width the model expects.
    pub fn input_dim(&self) -> usize {
        self.embed.rows()
    }

    /// Bond (edge) feature width the model expects.
    pub fn edge_dim(&self) -> usize {
        self.edge_dim
    }

    /// Graph-level output width.
    pub fn output_dim(&self) -> usize {
        self.readout.output_dim()
    }

    /// Number of message-passing iterations.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The per-edge message function.
    pub fn message_function(&self) -> &MessageFunction {
        &self.message
    }

    /// The GRU vertex-update cell.
    pub fn gru(&self) -> &GruCell {
        &self.gru
    }

    /// The graph-level readout MLP.
    pub fn readout(&self) -> &Mlp {
        &self.readout
    }

    /// The atom-embedding weights (`in × hidden`).
    pub fn embed(&self) -> &Matrix {
        &self.embed
    }

    /// Forward pass on a single graph; returns the `1 × out` graph-level
    /// prediction.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DimensionMismatch`] for inconsistent feature
    /// widths, and [`ModelError::MissingInput`] if `edge_features` is
    /// `None` while the model expects a non-zero edge width.
    pub fn forward_graph(
        &self,
        graph: &CsrGraph,
        x: &Matrix,
        edge_features: Option<&Matrix>,
    ) -> Result<Matrix, ModelError> {
        if x.cols() != self.input_dim() {
            return Err(ModelError::DimensionMismatch {
                context: "mpnn atom features",
                expected: self.input_dim(),
                found: x.cols(),
            });
        }
        if x.rows() != graph.num_nodes() {
            return Err(ModelError::DimensionMismatch {
                context: "mpnn atom rows",
                expected: graph.num_nodes(),
                found: x.rows(),
            });
        }
        let e_dim = self.edge_dim();
        let ef = match (edge_features, e_dim) {
            (Some(ef), d) if d > 0 => {
                if ef.cols() != d {
                    return Err(ModelError::DimensionMismatch {
                        context: "mpnn edge features",
                        expected: d,
                        found: ef.cols(),
                    });
                }
                if ef.rows() != graph.num_stored_edges() {
                    return Err(ModelError::DimensionMismatch {
                        context: "mpnn edge rows",
                        expected: graph.num_stored_edges(),
                        found: ef.rows(),
                    });
                }
                Some(ef)
            }
            (None, d) if d > 0 => {
                return Err(ModelError::MissingInput {
                    input: "edge_features",
                })
            }
            _ => None,
        };

        let n = graph.num_nodes();
        let hidden = self.hidden_dim();
        let empty: [f32; 0] = [];
        let mut h = x.matmul(&self.embed)?;
        for _ in 0..self.steps {
            // One message per stored edge (v, u), summed per destination.
            let mut m = Matrix::zeros(n, hidden);
            for (eid, v, u) in graph.iter_edges() {
                let e: &[f32] = match ef {
                    Some(ef) => ef.row(eid),
                    None => &empty,
                };
                let msg = self.message.message(h.row(u), e)?;
                let dst = m.row_mut(v);
                for (d, s) in dst.iter_mut().zip(&msg) {
                    *d += s;
                }
            }
            h = self.gru.step(&m, &h)?;
        }
        // Sum readout then output MLP.
        let pooled = h.col_sums();
        self.readout.forward(&pooled)
    }

    /// Forward pass over a dataset of graphs; row `i` of the result is the
    /// prediction for `instances[i]`.
    ///
    /// # Errors
    ///
    /// Propagates the first per-graph error encountered.
    pub fn forward_dataset(&self, instances: &[GraphInstance]) -> Result<Matrix, ModelError> {
        let mut out = Matrix::zeros(instances.len(), self.output_dim());
        for (i, inst) in instances.iter().enumerate() {
            let y = self.forward_graph(&inst.graph, &inst.x, inst.edge_features.as_ref())?;
            out.row_mut(i).copy_from_slice(y.row(0));
        }
        Ok(out)
    }

    /// Multiply–accumulate count of one inference on `graph`.
    pub fn inference_macs(&self, graph: &CsrGraph) -> u64 {
        let n = graph.num_nodes() as u64;
        let m = graph.num_stored_edges() as u64;
        let embed = n * self.input_dim() as u64 * self.hidden_dim() as u64;
        let per_step = m * self.message.macs_per_edge(self.hidden) + n * self.gru.macs_per_row();
        embed + self.steps as u64 * per_step + self.readout.macs_per_row()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnna_graph::datasets::qm9_scaled;

    fn small_model() -> Mpnn {
        Mpnn::for_dataset(13, 5, 16, 7, 2, 3).unwrap()
    }

    #[test]
    fn dims_accessors() {
        let m = small_model();
        assert_eq!(m.input_dim(), 13);
        assert_eq!(m.edge_dim(), 5);
        assert_eq!(m.hidden_dim(), 16);
        assert_eq!(m.output_dim(), 7);
        assert_eq!(m.steps(), 2);
    }

    #[test]
    fn forward_graph_shape() {
        let d = qm9_scaled(3, 1).unwrap();
        let m = small_model();
        let inst = &d.instances[0];
        let y = m
            .forward_graph(&inst.graph, &inst.x, inst.edge_features.as_ref())
            .unwrap();
        assert_eq!(y.shape(), (1, 7));
    }

    #[test]
    fn forward_dataset_rows_match_graph_count() {
        let d = qm9_scaled(5, 2).unwrap();
        let m = small_model();
        let y = m.forward_dataset(&d.instances).unwrap();
        assert_eq!(y.shape(), (5, 7));
    }

    #[test]
    fn missing_edge_features_rejected() {
        let d = qm9_scaled(1, 1).unwrap();
        let m = small_model();
        let inst = &d.instances[0];
        assert!(matches!(
            m.forward_graph(&inst.graph, &inst.x, None),
            Err(ModelError::MissingInput { .. })
        ));
    }

    #[test]
    fn wrong_edge_width_rejected() {
        let d = qm9_scaled(1, 1).unwrap();
        let m = small_model();
        let inst = &d.instances[0];
        let bad = Matrix::zeros(inst.graph.num_stored_edges(), 4);
        assert!(m.forward_graph(&inst.graph, &inst.x, Some(&bad)).is_err());
    }

    #[test]
    fn zero_edge_width_model_needs_no_edge_features() {
        let m = Mpnn::for_dataset(4, 0, 8, 3, 1, 1).unwrap();
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let x = Matrix::filled(3, 4, 0.5);
        let y = m.forward_graph(&g, &x, None).unwrap();
        assert_eq!(y.shape(), (1, 3));
    }

    #[test]
    fn deterministic_per_seed() {
        let d = qm9_scaled(2, 9).unwrap();
        let a = Mpnn::for_dataset(13, 5, 16, 7, 2, 3)
            .unwrap()
            .forward_dataset(&d.instances)
            .unwrap();
        let b = small_model().forward_dataset(&d.instances).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn macs_grow_with_steps() {
        let d = qm9_scaled(1, 1).unwrap();
        let g = &d.instances[0].graph;
        let m2 = small_model();
        let m4 = Mpnn::for_dataset(13, 5, 16, 7, 4, 3).unwrap();
        assert!(m4.inference_macs(g) > m2.inference_macs(g));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Mpnn::for_dataset(0, 5, 16, 7, 2, 1).is_err());
        assert!(Mpnn::for_dataset(13, 5, 0, 7, 2, 1).is_err());
        assert!(Mpnn::for_dataset(13, 5, 16, 7, 0, 1).is_err());
    }

    #[test]
    fn message_passing_spreads_information() {
        // A vertex's final state must depend on features 2 hops away when
        // steps >= 2: perturb a far vertex and observe the change.
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let m = Mpnn::for_dataset(2, 0, 8, 3, 2, 5).unwrap();
        let x1 = Matrix::filled(3, 2, 0.5);
        let mut x2 = x1.clone();
        x2.set(2, 0, 5.0); // perturb vertex 2; vertex 0 is 2 hops away
        let y1 = m.forward_graph(&g, &x1, None).unwrap();
        let y2 = m.forward_graph(&g, &x2, None).unwrap();
        assert!(y1.max_abs_diff(&y2).unwrap() > 1e-6);
    }

    use gnna_graph::CsrGraph;
}
