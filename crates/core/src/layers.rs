//! Compiled accelerator programs: layers, vertex programs, and the
//! per-model compilers.
//!
//! §IV: *"The GNN Accelerator program describes a GNN model as an ordered
//! sequence of layers. Each layer takes as input a graph on which it
//! performs a vertex program to produce an output graph."* A
//! [`CompiledProgram`] is that sequence plus the buffers the layers read
//! and write; each [`Layer`] carries its system configuration (DNQ entry
//! sizes, AGG entry size, DNA kernels — the `CONFIG(layer.config)` of
//! Algorithm 1) and the [`VertexProgram`] the GPEs execute per vertex.
//!
//! Four compilers map the benchmark models onto the machine:
//!
//! * [`compile_gcn`] — per GCN layer, a *project* pass (DNQ→DNA) then a
//!   *mean-aggregate* pass (memory→AGG with divide-by-count and the
//!   layer activation at finalisation). Project-then-propagate is the
//!   mathematically identical dataflow that moves the narrow projected
//!   features instead of the wide inputs.
//! * [`compile_gat`] — per GAT layer, a projection pass computing
//!   `[z ‖ s ‖ t]` per vertex, then an attention-aggregate pass where the
//!   GPE computes `LeakyReLU(s_v + t_u)` per head and ships per-head
//!   scaled contributions to the AGG.
//! * [`compile_mpnn`] — embed, `T` message-passing steps (edge MLP on DNQ
//!   queue 0, GRU on queue 1 — the dual-queue feature of §III), then a
//!   per-graph sum readout through the readout MLP.
//! * [`compile_pgnn`] — one layer per PGNN layer: multi-hop gather per
//!   adjacency power, per-power projection kernels, and a cross-power
//!   accumulation slot at the AGG.

use crate::agg::{AggFinalize, AggOp};
use crate::dna::DnaKernel;
use crate::layout::{BufferSpec, Rows};
use crate::CoreError;
use gnna_models::{Gat, Gcn, MessageFunction, Mpnn, Pgnn};
use gnna_tensor::ops::Activation;
use std::sync::Arc;

/// Index of a buffer in the program's buffer list.
pub type BufferId = usize;

/// What a GPE does for each vertex of a layer.
#[derive(Debug, Clone, PartialEq)]
pub enum VertexProgram {
    /// Stage the vertex's `src` row into DNQ queue 0 for DNA kernel 0 and
    /// write the result to the vertex's `dst` row.
    Project {
        /// Input buffer.
        src: BufferId,
        /// Output buffer.
        dst: BufferId,
    },
    /// Aggregate neighbor rows of `src` (optionally including the vertex
    /// itself) at the AGG and write the finalised result to `dst`.
    Aggregate {
        /// Input buffer.
        src: BufferId,
        /// Output buffer.
        dst: BufferId,
        /// Include the vertex's own row (the `+I` of GCN).
        include_self: bool,
        /// Combine operation.
        op: AggOp,
        /// Finalisation (divide-by-count for mean aggregation).
        finalize: AggFinalize,
        /// Activation applied to the finalised value.
        activation: Activation,
    },
    /// GAT attention aggregation over a `[z ‖ s ‖ t]` buffer produced by
    /// a projection pass with a [`DnaKernel::GatProject`] kernel.
    AttentionAggregate {
        /// The `[z ‖ s ‖ t]` buffer.
        z: BufferId,
        /// Head count.
        heads: usize,
        /// Per-head feature width.
        head_dim: usize,
        /// Output buffer (rows of `heads × head_dim`).
        dst: BufferId,
        /// Activation applied at AGG finalisation.
        activation: Activation,
    },
    /// One MPNN message-passing step: per-edge messages through DNA
    /// kernel 0 (queue 0), summed at the AGG, then the GRU update through
    /// DNA kernel 1 (queue 1).
    MpnnStep {
        /// Current hidden-state buffer.
        h: BufferId,
        /// Edge-feature buffer (`None` when the model has no edge
        /// features).
        edge: Option<BufferId>,
        /// Next hidden-state buffer.
        dst: BufferId,
    },
    /// Per-graph sum readout: each vertex contributes its `h` row to its
    /// graph's aggregation; the pooled vector runs through DNA kernel 0
    /// and lands in the graph's `dst` row.
    Readout {
        /// Hidden-state buffer.
        h: BufferId,
        /// Per-graph output buffer.
        dst: BufferId,
    },
    /// PGNN multi-hop layer: for each adjacency power `k`, gather the
    /// vertex's (deduplicated) `k`-hop neighborhood of `src` rows at the
    /// AGG, project through DNA kernel `k_idx`, and accumulate the
    /// per-power results in a second AGG slot written to `dst`.
    PowerGather {
        /// Input buffer.
        src: BufferId,
        /// Output buffer.
        dst: BufferId,
        /// The adjacency powers (e.g. `[0, 1, 2]`).
        powers: Vec<u8>,
        /// Activation applied to the accumulated output.
        activation: Activation,
    },
}

impl VertexProgram {
    /// Whether the prologue must fetch the vertex's neighbor list.
    pub fn needs_structure(&self) -> bool {
        !matches!(
            self,
            VertexProgram::Project { .. } | VertexProgram::Readout { .. }
        )
    }
}

/// One accelerator layer: the §IV `CONFIG` plus the vertex program.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Display name (e.g. `"gcn0.project"`).
    pub name: String,
    /// The per-vertex program.
    pub program: VertexProgram,
    /// DNA kernels, indexed by the kernel ids the program references.
    pub kernels: Vec<DnaKernel>,
    /// DNQ entry words for queues 0 and 1 (0 = queue unused).
    pub dnq_entry_words: [usize; 2],
    /// AGG entry words (0 = AGG unused).
    pub agg_entry_words: usize,
}

impl Layer {
    /// Total DNA weight words (CONFIG broadcast traffic).
    pub fn weight_words(&self) -> u64 {
        self.kernels.iter().map(DnaKernel::weight_words).sum()
    }
}

/// A model compiled to buffers and layers.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// Buffer declarations; buffer 0 is always the vertex-feature input.
    pub buffers: Vec<BufferSpec>,
    /// The edge-feature buffer, if the model uses one.
    pub edge_buffer: Option<BufferId>,
    /// The buffer holding the final output (per-vertex or per-graph).
    pub output_buffer: BufferId,
    /// The ordered layers, shared with the simulator's modules rather
    /// than copied into them.
    pub layers: Vec<Arc<Layer>>,
}

impl CompiledProgram {
    /// Validates internal consistency (buffer ids in range, kernel widths
    /// matching entry sizes).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CompileError`] describing the first
    /// inconsistency.
    pub fn validate(&self) -> Result<(), CoreError> {
        let nbuf = self.buffers.len();
        let check = |id: BufferId, what: &str| -> Result<(), CoreError> {
            if id >= nbuf {
                Err(CoreError::CompileError {
                    reason: format!("{what} buffer id {id} out of range ({nbuf} buffers)"),
                })
            } else {
                Ok(())
            }
        };
        check(self.output_buffer, "output")?;
        if let Some(e) = self.edge_buffer {
            check(e, "edge")?;
        }
        for layer in &self.layers {
            match &layer.program {
                VertexProgram::Project { src, dst } => {
                    check(*src, "src")?;
                    check(*dst, "dst")?;
                    let k = layer
                        .kernels
                        .first()
                        .ok_or_else(|| CoreError::CompileError {
                            reason: format!("{}: project layer needs kernel 0", layer.name),
                        })?;
                    if k.input_words() != self.buffers[*src].row_words
                        || k.output_words() != self.buffers[*dst].row_words
                    {
                        return Err(CoreError::CompileError {
                            reason: format!("{}: kernel width mismatch", layer.name),
                        });
                    }
                }
                VertexProgram::Aggregate { src, dst, .. } => {
                    check(*src, "src")?;
                    check(*dst, "dst")?;
                    if self.buffers[*src].row_words != self.buffers[*dst].row_words {
                        return Err(CoreError::CompileError {
                            reason: format!("{}: aggregate width mismatch", layer.name),
                        });
                    }
                }
                VertexProgram::AttentionAggregate {
                    z,
                    heads,
                    head_dim,
                    dst,
                    ..
                } => {
                    check(*z, "z")?;
                    check(*dst, "dst")?;
                    if self.buffers[*z].row_words != heads * (head_dim + 2) {
                        return Err(CoreError::CompileError {
                            reason: format!("{}: z buffer layout mismatch", layer.name),
                        });
                    }
                    if self.buffers[*dst].row_words != heads * head_dim {
                        return Err(CoreError::CompileError {
                            reason: format!("{}: attention dst width mismatch", layer.name),
                        });
                    }
                }
                VertexProgram::MpnnStep { h, edge, dst } => {
                    check(*h, "h")?;
                    check(*dst, "dst")?;
                    if let Some(e) = edge {
                        check(*e, "edge")?;
                    }
                    if layer.kernels.len() < 2 {
                        return Err(CoreError::CompileError {
                            reason: format!("{}: MPNN step needs 2 kernels", layer.name),
                        });
                    }
                }
                VertexProgram::Readout { h, dst } => {
                    check(*h, "h")?;
                    check(*dst, "dst")?;
                }
                VertexProgram::PowerGather {
                    src, dst, powers, ..
                } => {
                    check(*src, "src")?;
                    check(*dst, "dst")?;
                    if layer.kernels.len() != powers.len() {
                        return Err(CoreError::CompileError {
                            reason: format!("{}: one kernel per power required", layer.name),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Compiles a GCN (must use [`gnna_models::GcnNorm::Mean`] to match the
/// AGG's divide-by-count — the accelerator-mapped variant; see
/// `DESIGN.md` §2).
///
/// # Errors
///
/// Returns [`CoreError::CompileError`] if the model uses symmetric
/// normalisation (which the AGG datapath cannot express).
pub fn compile_gcn(gcn: &Gcn) -> Result<CompiledProgram, CoreError> {
    if gcn.norm() != gnna_models::GcnNorm::Mean {
        return Err(CoreError::CompileError {
            reason:
                "the accelerator maps GCN with mean aggregation; use .with_norm(GcnNorm::Mean) \
                     (see DESIGN.md §2)"
                    .into(),
        });
    }
    let mut buffers = vec![BufferSpec {
        rows: Rows::PerVertex,
        row_words: gcn.input_dim(),
    }];
    let mut layers = Vec::new();
    let mut src = 0;
    for (i, l) in gcn.layers().iter().enumerate() {
        // Projected buffer then aggregated buffer.
        buffers.push(BufferSpec {
            rows: Rows::PerVertex,
            row_words: l.output_dim(),
        });
        let projected = buffers.len() - 1;
        buffers.push(BufferSpec {
            rows: Rows::PerVertex,
            row_words: l.output_dim(),
        });
        let aggregated = buffers.len() - 1;
        layers.push(Layer {
            name: format!("gcn{i}.project"),
            program: VertexProgram::Project {
                src,
                dst: projected,
            },
            kernels: vec![DnaKernel::Linear {
                w: l.weight.clone(),
                bias: None,
                act: Activation::None,
            }],
            dnq_entry_words: [l.input_dim(), 0],
            agg_entry_words: 0,
        });
        layers.push(Layer {
            name: format!("gcn{i}.aggregate"),
            program: VertexProgram::Aggregate {
                src: projected,
                dst: aggregated,
                include_self: true,
                op: AggOp::Sum,
                finalize: AggFinalize::DivideByCount,
                activation: l.activation,
            },
            kernels: vec![],
            dnq_entry_words: [0, 0],
            agg_entry_words: l.output_dim(),
        });
        src = aggregated;
    }
    let p = CompiledProgram {
        buffers,
        edge_buffer: None,
        output_buffer: src,
        layers: layers.into_iter().map(Arc::new).collect(),
    };
    p.validate()?;
    Ok(p)
}

/// Compiles a GAT.
///
/// # Errors
///
/// Returns [`CoreError::CompileError`] for head-averaging layers with
/// more than one head (the benchmark's output layer has a single head).
pub fn compile_gat(gat: &Gat) -> Result<CompiledProgram, CoreError> {
    let mut buffers = vec![BufferSpec {
        rows: Rows::PerVertex,
        row_words: gat.input_dim(),
    }];
    let mut layers = Vec::new();
    let mut src = 0;
    for (i, l) in gat.layers().iter().enumerate() {
        if !l.concat && l.heads() > 1 {
            return Err(CoreError::CompileError {
                reason: format!(
                    "gat layer {i}: head averaging with {} heads is not mapped",
                    l.heads()
                ),
            });
        }
        let heads = l.heads();
        let d = l.head_dim();
        buffers.push(BufferSpec {
            rows: Rows::PerVertex,
            row_words: heads * (d + 2),
        });
        let z = buffers.len() - 1;
        buffers.push(BufferSpec {
            rows: Rows::PerVertex,
            row_words: heads * d,
        });
        let out = buffers.len() - 1;
        layers.push(Layer {
            name: format!("gat{i}.project"),
            program: VertexProgram::Project { src, dst: z },
            kernels: vec![DnaKernel::GatProject { layer: l.clone() }],
            dnq_entry_words: [l.input_dim(), 0],
            agg_entry_words: 0,
        });
        layers.push(Layer {
            name: format!("gat{i}.attend"),
            program: VertexProgram::AttentionAggregate {
                z,
                heads,
                head_dim: d,
                dst: out,
                activation: l.activation,
            },
            kernels: vec![],
            dnq_entry_words: [0, 0],
            agg_entry_words: heads * d,
        });
        src = out;
    }
    let p = CompiledProgram {
        buffers,
        edge_buffer: None,
        output_buffer: src,
        layers: layers.into_iter().map(Arc::new).collect(),
    };
    p.validate()?;
    Ok(p)
}

/// Compiles an MPNN.
///
/// # Errors
///
/// Returns [`CoreError::CompileError`] if validation fails (cannot happen
/// for models built by [`Mpnn::for_dataset`]).
pub fn compile_mpnn(mpnn: &Mpnn) -> Result<CompiledProgram, CoreError> {
    let hidden = mpnn.hidden_dim();
    let e_dim = mpnn.edge_dim();
    let mut buffers = vec![BufferSpec {
        rows: Rows::PerVertex,
        row_words: mpnn.input_dim(),
    }];
    let edge_buffer = if e_dim > 0 {
        buffers.push(BufferSpec {
            rows: Rows::PerEdge,
            row_words: e_dim,
        });
        Some(buffers.len() - 1)
    } else {
        None
    };
    // Ping-pong hidden-state buffers.
    buffers.push(BufferSpec {
        rows: Rows::PerVertex,
        row_words: hidden,
    });
    let h_a = buffers.len() - 1;
    buffers.push(BufferSpec {
        rows: Rows::PerVertex,
        row_words: hidden,
    });
    let h_b = buffers.len() - 1;
    buffers.push(BufferSpec {
        rows: Rows::PerGraph,
        row_words: mpnn.output_dim(),
    });
    let out = buffers.len() - 1;

    let mut layers = vec![Layer {
        name: "mpnn.embed".into(),
        program: VertexProgram::Project { src: 0, dst: h_a },
        kernels: vec![DnaKernel::Linear {
            w: mpnn.embed().clone(),
            bias: None,
            act: Activation::None,
        }],
        dnq_entry_words: [mpnn.input_dim(), 0],
        agg_entry_words: 0,
    }];
    let mut cur = h_a;
    let mut nxt = h_b;
    for t in 0..mpnn.steps() {
        layers.push(Layer {
            name: format!("mpnn.step{t}"),
            program: VertexProgram::MpnnStep {
                h: cur,
                edge: edge_buffer,
                dst: nxt,
            },
            kernels: vec![
                match mpnn.message_function() {
                    MessageFunction::Mlp(mlp) => DnaKernel::Mlp(mlp.clone()),
                    MessageFunction::EdgeNetwork(net) => DnaKernel::EdgeNetwork {
                        net: net.clone(),
                        hidden,
                    },
                },
                DnaKernel::Gru {
                    cell: mpnn.gru().clone(),
                },
            ],
            dnq_entry_words: [hidden + e_dim, 2 * hidden],
            agg_entry_words: hidden,
        });
        std::mem::swap(&mut cur, &mut nxt);
    }
    layers.push(Layer {
        name: "mpnn.readout".into(),
        program: VertexProgram::Readout { h: cur, dst: out },
        kernels: vec![DnaKernel::Mlp(mpnn.readout().clone())],
        dnq_entry_words: [hidden, 0],
        agg_entry_words: hidden,
    });
    let p = CompiledProgram {
        buffers,
        edge_buffer,
        output_buffer: out,
        layers: layers.into_iter().map(Arc::new).collect(),
    };
    p.validate()?;
    Ok(p)
}

/// Compiles a PGNN.
///
/// # Errors
///
/// Returns [`CoreError::CompileError`] if a power exceeds `u8::MAX` or
/// validation fails.
pub fn compile_pgnn(pgnn: &Pgnn) -> Result<CompiledProgram, CoreError> {
    let powers: Vec<u8> = pgnn
        .powers()
        .iter()
        .map(|&k| {
            u8::try_from(k).map_err(|_| CoreError::CompileError {
                reason: format!("adjacency power {k} too large"),
            })
        })
        .collect::<Result<_, _>>()?;
    let mut buffers = vec![BufferSpec {
        rows: Rows::PerVertex,
        row_words: pgnn.input_dim(),
    }];
    let mut layers = Vec::new();
    let mut src = 0;
    for (i, l) in pgnn.layers().iter().enumerate() {
        buffers.push(BufferSpec {
            rows: Rows::PerVertex,
            row_words: l.output_dim(),
        });
        let dst = buffers.len() - 1;
        layers.push(Layer {
            name: format!("pgnn{i}.powers"),
            program: VertexProgram::PowerGather {
                src,
                dst,
                powers: powers.clone(),
                activation: l.activation,
            },
            kernels: l
                .weights
                .iter()
                .map(|w| DnaKernel::Linear {
                    w: w.clone(),
                    bias: None,
                    act: Activation::None,
                })
                .collect(),
            dnq_entry_words: [l.input_dim(), 0],
            agg_entry_words: l.input_dim().max(l.output_dim()),
        });
        src = dst;
    }
    let p = CompiledProgram {
        buffers,
        edge_buffer: None,
        output_buffer: src,
        layers: layers.into_iter().map(Arc::new).collect(),
    };
    p.validate()?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnna_models::GcnNorm;

    #[test]
    fn gcn_compiles_to_project_aggregate_pairs() {
        let gcn = Gcn::for_dataset(8, 4, 3, 1)
            .unwrap()
            .with_norm(GcnNorm::Mean);
        let p = compile_gcn(&gcn).unwrap();
        assert_eq!(p.layers.len(), 4);
        assert!(p.layers[0].name.ends_with("project"));
        assert!(p.layers[1].name.ends_with("aggregate"));
        assert_eq!(p.buffers[p.output_buffer].row_words, 3);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn gcn_symmetric_norm_rejected() {
        let gcn = Gcn::for_dataset(8, 4, 3, 1).unwrap();
        assert!(matches!(
            compile_gcn(&gcn),
            Err(CoreError::CompileError { .. })
        ));
    }

    #[test]
    fn gat_buffer_layout() {
        let gat = Gat::for_dataset(12, 5, 1).unwrap();
        let p = compile_gat(&gat).unwrap();
        // Layer 1: 8 heads × 8 dim → z rows 8*(8+2) = 80 words.
        assert_eq!(p.buffers[1].row_words, 80);
        assert_eq!(p.buffers[2].row_words, 64);
        // Output layer: 1 head × 5.
        assert_eq!(p.buffers[p.output_buffer].row_words, 5);
    }

    #[test]
    fn mpnn_ping_pongs_hidden_buffers() {
        let m = Mpnn::for_dataset(13, 5, 16, 7, 3, 1).unwrap();
        let p = compile_mpnn(&m).unwrap();
        assert_eq!(p.layers.len(), 1 + 3 + 1);
        // Steps alternate h buffers.
        let VertexProgram::MpnnStep { h: h0, dst: d0, .. } = &p.layers[1].program else {
            panic!("expected step");
        };
        let VertexProgram::MpnnStep { h: h1, dst: d1, .. } = &p.layers[2].program else {
            panic!("expected step");
        };
        assert_eq!(*h1, *d0);
        assert_eq!(*d1, *h0);
        // Readout reads the final hidden buffer.
        let VertexProgram::Readout { h, .. } = &p.layers[4].program else {
            panic!("expected readout");
        };
        // 3 steps: h_a -> h_b -> h_a -> h_b.
        assert_eq!(*h, *d0);
        assert!(p.edge_buffer.is_some());
        assert_eq!(p.layers[1].dnq_entry_words, [16 + 5, 32]);
    }

    #[test]
    fn mpnn_without_edge_features() {
        let m = Mpnn::for_dataset(4, 0, 8, 3, 1, 1).unwrap();
        let p = compile_mpnn(&m).unwrap();
        assert!(p.edge_buffer.is_none());
        assert_eq!(p.layers[1].dnq_entry_words[0], 8);
    }

    #[test]
    fn pgnn_one_kernel_per_power() {
        let m = Pgnn::for_dataset(1, 16, 3, 1).unwrap();
        let p = compile_pgnn(&m).unwrap();
        assert_eq!(p.layers.len(), 2);
        assert_eq!(p.layers[0].kernels.len(), 3);
        let VertexProgram::PowerGather { powers, .. } = &p.layers[0].program else {
            panic!("expected power gather");
        };
        assert_eq!(powers, &[0, 1, 2]);
    }

    #[test]
    fn validation_catches_bad_buffer_ids() {
        let gcn = Gcn::for_dataset(4, 2, 2, 1)
            .unwrap()
            .with_norm(GcnNorm::Mean);
        let mut p = compile_gcn(&gcn).unwrap();
        p.output_buffer = 99;
        assert!(p.validate().is_err());
    }

    #[test]
    fn weight_words_counted() {
        let gcn = Gcn::for_dataset(8, 4, 3, 1)
            .unwrap()
            .with_norm(GcnNorm::Mean);
        let p = compile_gcn(&gcn).unwrap();
        assert_eq!(p.layers[0].weight_words(), 32);
        assert_eq!(p.layers[1].weight_words(), 0);
    }

    #[test]
    fn needs_structure_flags() {
        assert!(!VertexProgram::Project { src: 0, dst: 1 }.needs_structure());
        assert!(!VertexProgram::Readout { h: 0, dst: 1 }.needs_structure());
        assert!(VertexProgram::Aggregate {
            src: 0,
            dst: 1,
            include_self: true,
            op: AggOp::Sum,
            finalize: AggFinalize::None,
            activation: Activation::None,
        }
        .needs_structure());
    }
}
