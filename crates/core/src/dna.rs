//! The DNN Accelerator (DNA) module — §III, Figure 5.
//!
//! The DNA executes the dense per-vertex kernels of a GNN layer. Per the
//! paper it is "modeled using a latency-throughput model similar to the
//! memory controllers", with the internal spatial array sized per Table I
//! and mapped by NN-Dataflow. Here, each dequeued DNQ entry occupies the
//! array for `ceil(MACs / (PEs × utilisation))` core cycles, with the
//! utilisation taken from the `gnna-dnn` mapper evaluated on the layer's
//! batched shape. Outputs are computed *functionally* (real values), so
//! the simulation is verifiable against the reference models.

use crate::layers::Layer;
use crate::msg::Dest;
use gnna_dnn::{mapper, EyerissConfig, MatmulShape};
use gnna_faults::{FaultCounters, FaultPlan, FaultSite, SiteInjector};
use gnna_models::{GatLayer, Mlp};
use gnna_telemetry::ModuleProbe;
use gnna_tensor::ops::{Activation, GruCell};
use gnna_tensor::Matrix;
use std::sync::Arc;

/// A dense kernel the DNA can execute on one DNQ entry.
#[derive(Debug, Clone, PartialEq)]
pub enum DnaKernel {
    /// A single fully-connected layer `act(x · w + b)`.
    Linear {
        /// Weights, `in × out`.
        w: Matrix,
        /// Optional bias of length `out`.
        bias: Option<Vec<f32>>,
        /// Activation.
        act: Activation,
    },
    /// A multi-layer perceptron.
    Mlp(Mlp),
    /// A GRU step on a concatenated `[m ‖ h]` input (each `hidden` wide).
    Gru {
        /// The cell.
        cell: GruCell,
    },
    /// The GAT projection pass: per head, project and compute the two
    /// attention dot products; output is `[z_0..z_H | s_0..s_H | t_0..t_H]`.
    GatProject {
        /// The attention layer whose projections to run.
        layer: GatLayer,
    },
    /// Gilmer et al.'s MPNN edge network: `net` maps the edge features
    /// to an `hidden × hidden` matrix applied to the neighbor state.
    /// Input layout is `[h_u ‖ e_uv]`.
    EdgeNetwork {
        /// The matrix-producing MLP (`e_dim → hidden²`).
        net: Mlp,
        /// Hidden-state width.
        hidden: usize,
    },
}

impl DnaKernel {
    /// Input width in words.
    pub fn input_words(&self) -> usize {
        match self {
            DnaKernel::Linear { w, .. } => w.rows(),
            DnaKernel::Mlp(mlp) => mlp.input_dim(),
            DnaKernel::Gru { cell } => 2 * cell.hidden_dim(),
            DnaKernel::GatProject { layer } => layer.input_dim(),
            DnaKernel::EdgeNetwork { net, hidden } => hidden + net.input_dim(),
        }
    }

    /// Output width in words.
    pub fn output_words(&self) -> usize {
        match self {
            DnaKernel::Linear { w, .. } => w.cols(),
            DnaKernel::Mlp(mlp) => mlp.output_dim(),
            DnaKernel::Gru { cell } => cell.hidden_dim(),
            DnaKernel::GatProject { layer } => layer.heads() * (layer.head_dim() + 2),
            DnaKernel::EdgeNetwork { hidden, .. } => *hidden,
        }
    }

    /// Multiply–accumulates per entry.
    pub fn macs(&self) -> u64 {
        match self {
            DnaKernel::Linear { w, .. } => (w.rows() * w.cols()) as u64,
            DnaKernel::Mlp(mlp) => mlp.macs_per_row(),
            DnaKernel::Gru { cell } => cell.macs_per_row(),
            DnaKernel::GatProject { layer } => {
                let d = layer.head_dim() as u64;
                layer.heads() as u64 * (layer.input_dim() as u64 * d + 2 * d)
            }
            DnaKernel::EdgeNetwork { net, hidden } => {
                net.macs_per_row() + (*hidden as u64) * (*hidden as u64)
            }
        }
    }

    /// Words of weight state the kernel occupies (loaded at CONFIG time).
    pub fn weight_words(&self) -> u64 {
        match self {
            DnaKernel::Linear { w, bias, .. } => {
                (w.rows() * w.cols()) as u64 + bias.as_ref().map_or(0, |b| b.len() as u64)
            }
            DnaKernel::Mlp(mlp) => mlp.num_params(),
            DnaKernel::Gru { cell } => 6 * (cell.hidden_dim() * cell.hidden_dim()) as u64,
            DnaKernel::GatProject { layer } => {
                layer.heads() as u64
                    * (layer.input_dim() as u64 * layer.head_dim() as u64
                        + 2 * layer.head_dim() as u64)
            }
            DnaKernel::EdgeNetwork { net, .. } => net.num_params(),
        }
    }

    /// Executes the kernel functionally on one entry.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_words()` — entries are sized by the
    /// compiler, so a mismatch is a compiler bug.
    pub fn compute(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(
            input.len(),
            self.input_words(),
            "DNA entry width mismatch for {self:?}"
        );
        match self {
            DnaKernel::Linear { w, bias, act } => {
                let x = Matrix::from_vec(1, input.len(), input.to_vec()).expect("sized");
                let mut y = x.matmul(w).expect("shape checked");
                if let Some(b) = bias {
                    y.add_row_bias(b).expect("bias width");
                }
                act.apply_inplace(&mut y);
                y.into_vec()
            }
            DnaKernel::Mlp(mlp) => {
                let x = Matrix::from_vec(1, input.len(), input.to_vec()).expect("sized");
                mlp.forward(&x).expect("shape checked").into_vec()
            }
            DnaKernel::Gru { cell } => {
                let h_dim = cell.hidden_dim();
                let m = Matrix::from_vec(1, h_dim, input[..h_dim].to_vec()).expect("sized");
                let h = Matrix::from_vec(1, h_dim, input[h_dim..].to_vec()).expect("sized");
                cell.step(&m, &h).expect("shape checked").into_vec()
            }
            DnaKernel::GatProject { layer } => {
                let x = Matrix::from_vec(1, input.len(), input.to_vec()).expect("sized");
                let heads = layer.heads();
                let d = layer.head_dim();
                let mut z = Vec::with_capacity(heads * d);
                let mut s = Vec::with_capacity(heads);
                let mut t = Vec::with_capacity(heads);
                for h in 0..heads {
                    let zh = x.matmul(&layer.head_weights[h]).expect("shape checked");
                    let dot = |vec: &[f32]| -> f32 {
                        zh.row(0).iter().zip(vec).map(|(a, b)| a * b).sum()
                    };
                    s.push(dot(&layer.attn_self[h]));
                    t.push(dot(&layer.attn_neigh[h]));
                    z.extend_from_slice(zh.row(0));
                }
                z.extend(s);
                z.extend(t);
                z
            }
            DnaKernel::EdgeNetwork { net, hidden } => {
                let h = *hidden;
                let h_u = &input[..h];
                let e = &input[h..];
                let x = Matrix::from_vec(1, e.len(), e.to_vec()).expect("sized");
                let a = net.forward(&x).expect("shape checked");
                let a = a.row(0);
                (0..h)
                    .map(|i| {
                        a[i * h..(i + 1) * h]
                            .iter()
                            .zip(h_u)
                            .map(|(w, v)| w * v)
                            .sum()
                    })
                    .collect()
            }
        }
    }
}

/// Deterministic stall-bubble injection state for one DNA array.
///
/// An injected fault models a transient pipeline hazard (e.g. a parity
/// retry inside the spatial array): the job's completion is pushed back
/// by `bubble_cycles` but the computed output is untouched, so bubbles
/// are pure latency — every injection is immediately `corrected` and the
/// functional result stays bit-exact.
#[derive(Debug)]
pub struct DnaFaultState {
    injector: SiteInjector,
    bubble_cycles: u64,
    counters: FaultCounters,
}

impl DnaFaultState {
    /// Builds the per-instance injection state from a fault plan.
    /// `instance` is the tile index, so every tile draws an independent
    /// deterministic stream.
    pub fn from_plan(plan: &FaultPlan, instance: u64) -> Self {
        DnaFaultState {
            injector: SiteInjector::new(plan.seed, FaultSite::DnaStall, instance, plan.stall_rate),
            bubble_cycles: plan.dna_bubble_cycles,
            counters: FaultCounters::default(),
        }
    }

    /// Fault outcome counters observed so far.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }
}

/// A job occupying the DNA array.
#[derive(Debug)]
struct Job {
    done_at: u64, // core cycle
    output: Vec<f32>,
    dest: Dest,
}

/// The DNA module: one kernel set per layer, a single-occupancy array
/// with a fixed pipeline-fill latency, and an output staging slot.
#[derive(Debug)]
pub struct Dna {
    config: EyerissConfig,
    /// The configured layer, whose kernels the array runs (shared with
    /// the compiled program, not copied per tile).
    layer: Option<Arc<Layer>>,
    /// Effective MACs per core cycle per kernel (PEs × mapper utilisation).
    throughput: Vec<f64>,
    job: Option<Job>,
    /// Completed output waiting for the NoC (bounded staging of one).
    pending_output: Option<(Dest, Vec<f32>)>,
    busy_cycles: u64,
    idle_cycles: u64,
    output_stall_cycles: u64,
    entries_processed: u64,
    macs_executed: u64,
    probe: Option<ModuleProbe>,
    fault: Option<DnaFaultState>,
}

/// Fixed pipeline-fill latency added to every entry (array fill/drain).
const PIPELINE_LATENCY: u64 = 8;

impl Dna {
    /// Creates an idle DNA with no kernels configured.
    pub fn new(config: EyerissConfig) -> Self {
        Dna {
            config,
            layer: None,
            throughput: Vec::new(),
            job: None,
            pending_output: None,
            busy_cycles: 0,
            idle_cycles: 0,
            output_stall_cycles: 0,
            entries_processed: 0,
            macs_executed: 0,
            probe: None,
            fault: None,
        }
    }

    /// Attaches deterministic stall-bubble injection. Zero-cost (and
    /// absent from the RNG stream) when never called.
    pub fn attach_faults(&mut self, state: DnaFaultState) {
        self.fault = Some(state);
    }

    /// Fault outcome counters (`None` when injection is not attached).
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.fault.as_ref().map(DnaFaultState::counters)
    }

    /// Attaches a telemetry probe; job occupancy spans are emitted
    /// through it. No-op cost when never called.
    pub fn attach_probe(&mut self, probe: ModuleProbe) {
        self.probe = Some(probe);
    }

    /// Configures `layer`'s kernels. `batch_hint` is the number of
    /// entries this layer will process on this tile — the mapper uses it
    /// to estimate the batched utilisation the array achieves.
    pub fn configure(&mut self, layer: Arc<Layer>, batch_hint: usize) {
        self.throughput = layer
            .kernels
            .iter()
            .map(|k| {
                let shape = MatmulShape {
                    m: batch_hint.max(1),
                    k: k.input_words().max(1),
                    n: k.output_words().max(1),
                };
                let util = mapper::map_matmul(&self.config, shape).pe_utilization;
                (self.config.num_pes as f64 * util).max(1.0)
            })
            .collect();
        self.layer = Some(layer);
    }

    /// Discards the in-flight job and any staged output while keeping
    /// accumulated statistics, configuration, and the fault-injection
    /// stream position. Used by checkpoint rollback.
    pub(crate) fn reset_for_replay(&mut self) {
        self.job = None;
        self.pending_output = None;
    }

    /// The configured kernels.
    pub fn kernels(&self) -> &[DnaKernel] {
        self.layer.as_deref().map_or(&[], |l| &l.kernels)
    }

    /// Whether the array can accept a new entry this cycle.
    pub fn can_accept(&self) -> bool {
        self.job.is_none() && !self.kernels().is_empty()
    }

    /// Whether the array is executing a job.
    pub fn is_busy(&self) -> bool {
        self.job.is_some()
    }

    /// The core cycle the current job completes (`None` when idle).
    pub(crate) fn done_at(&self) -> Option<u64> {
        self.job.as_ref().map(|j| j.done_at)
    }

    /// Whether the module is fully drained (no job, no pending output).
    pub fn is_idle(&self) -> bool {
        self.job.is_none() && self.pending_output.is_none()
    }

    /// Accepts one DNQ entry for kernel `kernel` at core cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the array is busy ([`Dna::can_accept`] was false) or the
    /// kernel index is out of range.
    pub fn accept(&mut self, kernel: u8, input: &[f32], dest: Dest, now: u64) {
        assert!(self.can_accept(), "DNA busy");
        let k = &self.kernels()[kernel as usize];
        let output = k.compute(input);
        let macs = k.macs();
        let occupancy = (macs as f64 / self.throughput[kernel as usize]).ceil() as u64;
        self.macs_executed += macs;
        // Deterministic transient-stall injection: a fired fault inserts
        // a pipeline bubble (latency only, output untouched → corrected).
        let mut bubble = 0;
        if let Some(fs) = self.fault.as_mut() {
            if fs.injector.fire() {
                bubble = fs.bubble_cycles;
                fs.counters.injected += 1;
                fs.counters.corrected += 1;
                fs.counters.retry_cycles += bubble;
                if let Some(p) = &self.probe {
                    p.instant("dna_fault_bubble");
                }
            }
        }
        if let Some(p) = &self.probe {
            p.begin("dna_job");
        }
        self.job = Some(Job {
            done_at: now + PIPELINE_LATENCY + occupancy.max(1) + bubble,
            output,
            dest,
        });
    }

    /// Advances one core cycle; returns a completed output (at most one)
    /// ready for injection into the NoC. The output must be consumed
    /// (injected or buffered) by the caller; until then
    /// [`Dna::is_idle`] stays false and no new job completes delivery.
    pub fn tick(&mut self, now: u64) -> Option<(Dest, Vec<f32>)> {
        if self.job.is_some() {
            self.busy_cycles += 1;
        } else if !self.kernels().is_empty() {
            // Configured but unoccupied: the array is waiting on the DNQ.
            self.idle_cycles += 1;
        }
        if self.pending_output.is_none() {
            if let Some(job) = &self.job {
                if job.done_at <= now {
                    let job = self.job.take().expect("checked");
                    self.entries_processed += 1;
                    if let Some(p) = &self.probe {
                        p.end("dna_job");
                    }
                    self.pending_output = Some((job.dest, job.output));
                }
            }
        }
        self.pending_output.take()
    }

    /// Re-stages an output the caller could not inject this cycle.
    pub fn stall_output(&mut self, dest: Dest, data: Vec<f32>) {
        debug_assert!(self.pending_output.is_none());
        self.output_stall_cycles += 1;
        self.pending_output = Some((dest, data));
    }

    /// Core cycles the array spent occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Core cycles the configured array sat unoccupied (starved by the
    /// DNQ or out of work).
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// Batch-equivalent of the `n` [`Dna::tick`]s at core cycles
    /// `first..first + n`, all before the current job completes (or
    /// with no job at all): busy cycles during a job, the
    /// configured-but-unoccupied idle attribution otherwise. Settled in
    /// bulk by the system's event wheel.
    pub(crate) fn note_ticks(&mut self, first: u64, n: u64) {
        debug_assert!(
            self.pending_output.is_none(),
            "batch accounting with output staged"
        );
        match self.done_at() {
            Some(done_at) => {
                debug_assert!(first + n <= done_at, "batch accounting past a job's end");
                self.busy_cycles += n;
            }
            None if !self.kernels().is_empty() => self.idle_cycles += n,
            None => {}
        }
    }

    /// Cycles a completed output was re-staged because the NoC could not
    /// take it (injection backpressure on the result path).
    pub fn output_stall_cycles(&self) -> u64 {
        self.output_stall_cycles
    }

    /// Entries completed.
    pub fn entries_processed(&self) -> u64 {
        self.entries_processed
    }

    /// Total MACs executed.
    pub fn macs_executed(&self) -> u64 {
        self.macs_executed
    }

    /// Total weight words across configured kernels (CONFIG traffic).
    pub fn weight_words(&self) -> u64 {
        self.kernels().iter().map(DnaKernel::weight_words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnna_models::init::glorot;

    fn linear_kernel(inw: usize, outw: usize) -> DnaKernel {
        DnaKernel::Linear {
            w: glorot(inw, outw, 7),
            bias: None,
            act: Activation::None,
        }
    }

    /// A layer running `kernels`, for configuring a bare DNA.
    fn layer_of(kernels: Vec<DnaKernel>) -> Arc<Layer> {
        Arc::new(Layer {
            name: "test.dna".into(),
            program: crate::layers::VertexProgram::Project { src: 0, dst: 1 },
            kernels,
            dnq_entry_words: [0, 0],
            agg_entry_words: 0,
        })
    }

    #[test]
    fn kernel_dims_and_macs() {
        let k = linear_kernel(8, 4);
        assert_eq!(k.input_words(), 8);
        assert_eq!(k.output_words(), 4);
        assert_eq!(k.macs(), 32);
        assert_eq!(k.weight_words(), 32);
        let g = DnaKernel::Gru {
            cell: GruCell::with_constant(4, 4, 0.1),
        };
        assert_eq!(g.input_words(), 8);
        assert_eq!(g.output_words(), 4);
    }

    #[test]
    fn linear_compute_matches_matmul() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap();
        let k = DnaKernel::Linear {
            w,
            bias: Some(vec![0.5, -0.5]),
            act: Activation::Relu,
        };
        assert_eq!(k.compute(&[3.0, 1.0]), vec![3.5, 1.5]);
        assert_eq!(k.compute(&[0.0, -1.0]), vec![0.5, 0.0]); // relu clips
    }

    #[test]
    fn gat_project_layout() {
        let layer = GatLayer::new(6, 4, 2, true, Activation::None, 3).unwrap();
        let k = DnaKernel::GatProject {
            layer: layer.clone(),
        };
        assert_eq!(k.output_words(), 2 * 4 + 2 + 2);
        let x = vec![0.3; 6];
        let out = k.compute(&x);
        // z blocks then s then t; verify s_0 equals dot(z_0, a_self_0).
        let z0 = &out[..4];
        let s0 = out[8];
        let manual: f32 = z0.iter().zip(&layer.attn_self[0]).map(|(a, b)| a * b).sum();
        assert!((s0 - manual).abs() < 1e-6);
    }

    #[test]
    fn occupancy_scales_with_macs() {
        let cfg = EyerissConfig::default();
        let mut dna = Dna::new(cfg);
        dna.configure(
            layer_of(vec![linear_kernel(1024, 64), linear_kernel(8, 4)]),
            1000,
        );
        assert!(dna.can_accept());
        dna.accept(0, &vec![0.1; 1024], Dest::Mem { addr: 0 }, 0);
        let mut done_big = None;
        for c in 1..100_000 {
            if let Some(out) = dna.tick(c) {
                done_big = Some(c);
                assert_eq!(out.1.len(), 64);
                break;
            }
        }
        let big = done_big.expect("completes");
        let mut dna2 = Dna::new(cfg);
        dna2.configure(layer_of(vec![linear_kernel(8, 4)]), 1000);
        dna2.accept(0, &[0.1; 8], Dest::Mem { addr: 0 }, 0);
        let mut done_small = None;
        for c in 1..100_000 {
            if dna2.tick(c).is_some() {
                done_small = Some(c);
                break;
            }
        }
        assert!(big > done_small.expect("completes"));
    }

    #[test]
    fn busy_until_done() {
        let mut dna = Dna::new(EyerissConfig::default());
        dna.configure(layer_of(vec![linear_kernel(182, 182)]), 182);
        dna.accept(0, &vec![1.0; 182], Dest::Mem { addr: 0 }, 0);
        assert!(!dna.can_accept());
        let mut cycle = 0;
        loop {
            cycle += 1;
            if dna.tick(cycle).is_some() {
                break;
            }
            assert!(cycle < 10_000, "never completed");
        }
        assert!(dna.can_accept());
        assert_eq!(dna.entries_processed(), 1);
        assert!(dna.busy_cycles() > 0);
    }

    #[test]
    fn stall_output_redelivers() {
        let mut dna = Dna::new(EyerissConfig::default());
        dna.configure(layer_of(vec![linear_kernel(4, 2)]), 4);
        dna.accept(0, &[1.0; 4], Dest::Mem { addr: 64 }, 0);
        let mut out = None;
        for c in 1..1000 {
            if let Some(o) = dna.tick(c) {
                out = Some((c, o));
                break;
            }
        }
        let (c, o) = out.unwrap();
        dna.stall_output(o.0, o.1.clone());
        let again = dna.tick(c + 1).expect("redelivered");
        assert_eq!(again.1, o.1);
        assert!(dna.is_idle());
        assert_eq!(dna.output_stall_cycles(), 1);
        assert!(dna.idle_cycles() > 0, "post-completion ticks counted idle");
    }

    /// One `note_ticks` over the ticks before a job completes leaves
    /// the same state as ticking through them, and so does one over a
    /// drained, configured array.
    #[test]
    fn note_ticks_matches_single_ticks() {
        let busy = || {
            let mut dna = Dna::new(EyerissConfig::default());
            dna.configure(layer_of(vec![linear_kernel(64, 64)]), 64);
            dna.accept(0, &[1.0; 64], Dest::Mem { addr: 0 }, 3);
            dna
        };
        let done_at = busy().done_at().expect("job accepted");
        assert!(done_at > 12, "countdown too short to split: {done_at}");
        for (first, n) in [(4, 1), (4, 7), (9, done_at - 9), (4, done_at - 4)] {
            let mut one = busy();
            let mut batch = busy();
            for now in first..first + n {
                assert!(one.tick(now).is_none(), "completed early at {now}");
            }
            batch.note_ticks(first, n);
            assert_eq!(format!("{one:?}"), format!("{batch:?}"), "{first}+{n}");
            assert_eq!(batch.busy_cycles(), n);
        }
        let mut one = Dna::new(EyerissConfig::default());
        one.configure(layer_of(vec![linear_kernel(4, 2)]), 4);
        let mut batch = Dna::new(EyerissConfig::default());
        batch.configure(layer_of(vec![linear_kernel(4, 2)]), 4);
        for now in 0..9 {
            assert!(one.tick(now).is_none());
        }
        batch.note_ticks(0, 9);
        assert_eq!(format!("{one:?}"), format!("{batch:?}"));
        assert_eq!(batch.idle_cycles(), 9);
    }

    #[test]
    #[should_panic(expected = "DNA busy")]
    fn accept_while_busy_panics() {
        let mut dna = Dna::new(EyerissConfig::default());
        dna.configure(layer_of(vec![linear_kernel(4, 2)]), 4);
        dna.accept(0, &[1.0; 4], Dest::Mem { addr: 0 }, 0);
        dna.accept(0, &[1.0; 4], Dest::Mem { addr: 0 }, 0);
    }

    #[test]
    fn fault_bubble_delays_but_preserves_output() {
        let run = |rate: f64| {
            let mut dna = Dna::new(EyerissConfig::default());
            dna.configure(layer_of(vec![linear_kernel(4, 2)]), 4);
            if rate > 0.0 {
                let plan = FaultPlan::new(7).with_stall_rate(rate);
                dna.attach_faults(DnaFaultState::from_plan(&plan, 0));
            }
            dna.accept(0, &[1.0; 4], Dest::Mem { addr: 0 }, 0);
            for c in 1..10_000 {
                if let Some((_, out)) = dna.tick(c) {
                    let counters = dna.fault_counters().copied().unwrap_or_default();
                    return (c, out, counters);
                }
            }
            panic!("never completed");
        };
        let (clean_cycle, clean_out, clean_counters) = run(0.0);
        assert!(!clean_counters.any());
        let (fault_cycle, fault_out, counters) = run(1.0);
        // Bubble is pure latency: identical output, later completion.
        assert_eq!(fault_out, clean_out);
        assert_eq!(
            fault_cycle,
            clean_cycle + FaultPlan::new(7).dna_bubble_cycles
        );
        assert_eq!(counters.injected, 1);
        assert_eq!(counters.corrected, 1);
        assert!(counters.partition_holds());
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let counters = |seed: u64| {
            let mut dna = Dna::new(EyerissConfig::default());
            dna.configure(layer_of(vec![linear_kernel(4, 2)]), 4);
            let plan = FaultPlan::new(seed).with_stall_rate(0.5);
            dna.attach_faults(DnaFaultState::from_plan(&plan, 3));
            let mut cycle = 0;
            for _ in 0..32 {
                dna.accept(0, &[1.0; 4], Dest::Mem { addr: 0 }, cycle);
                loop {
                    cycle += 1;
                    if dna.tick(cycle).is_some() {
                        break;
                    }
                }
            }
            dna.fault_counters().copied().expect("attached")
        };
        assert_eq!(counters(11), counters(11));
        assert!(counters(11).injected > 0);
        assert_ne!(counters(11), counters(12));
    }

    #[test]
    fn gru_kernel_matches_cell() {
        let cell = GruCell::with_constant(3, 3, 0.2);
        let k = DnaKernel::Gru { cell: cell.clone() };
        let m = [0.1, 0.2, 0.3];
        let h = [0.4, 0.5, 0.6];
        let input: Vec<f32> = m.iter().chain(h.iter()).copied().collect();
        let out = k.compute(&input);
        let expect = cell
            .step(
                &Matrix::from_vec(1, 3, m.to_vec()).unwrap(),
                &Matrix::from_vec(1, 3, h.to_vec()).unwrap(),
            )
            .unwrap();
        assert_eq!(out, expect.into_vec());
    }
}
