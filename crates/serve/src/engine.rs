//! Batch execution: turns a popped batch into per-job outcomes.
//!
//! One batch = one compiled program over one union graph. Functional
//! jobs answer straight from the `gnna-models` reference rows (cached
//! per dataset, computed per inline graph), so their responses are
//! bit-exact however they were batched. A named functional job builds
//! no graph instance and copies no rows: its rows are rendered once per
//! dataset instance, the first time a functional job asks for them, and
//! every later reply copies that rendering. Cycle-accurate jobs share a
//! single `System` built over every graph instance in the batch — the
//! config/layout/issue fixed cost is paid once, which is where the
//! batching throughput win on a serving workload comes from — and get
//! per-job telemetry: batch cycles, an exact largest-remainder energy
//! split, a stall-cause summary, and an accuracy grade against the
//! reference (NoC arrival order perturbs FP aggregation order, so
//! simulated rows are graded, not promised bit-equal).
//!
//! Per-job response assembly (accuracy comparison + row serialization)
//! fans out on the shared [`gnna_executor::Executor`], whose in-order
//! emission keeps outcome order aligned with batch order.

use crate::protocol::{error_body, push_rows};
use crate::protocol::{ExecMode, InlineGraph, JobInput, JobRequest};
use crate::queue::{BatchKey, Job, JobOutcome};
use crate::trace::{format_span_id, JobSpan, SpanTracer};
use gnna_bench::accuracy::compare_rows;
use gnna_bench::{build_case, BenchCase, Scale, MODEL_SEED};
use gnna_core::config::AcceleratorConfig;
use gnna_core::energy::EnergyModel;
use gnna_core::layers::{compile_gat, compile_gcn, CompiledProgram};
use gnna_core::stats::{SimReport, StallCause};
use gnna_core::system::System;
use gnna_executor::Executor;
use gnna_graph::datasets::GraphInstance;
use gnna_graph::CsrGraph;
use gnna_models::{Gat, Gcn, GcnNorm, ModelKind};
use gnna_telemetry::json;
use gnna_tensor::Matrix;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A cached named-dataset case: the benchmark pair plus the reference
/// row range of every dataset instance.
struct NamedCase {
    case: BenchCase,
    /// Each instance's rows of `case.reference`.
    ranges: Vec<Range<usize>>,
    /// Each instance's reference rows as [`push_rows`] renders them,
    /// made the first time a functional job asks: most instances of a
    /// large dataset are never asked for.
    rendered: Vec<OnceLock<String>>,
}

impl NamedCase {
    /// The wire rendering of `instance`'s reference rows.
    fn rendered_rows(&self, instance: usize) -> &str {
        self.rendered[instance].get_or_init(|| {
            let mut out = String::new();
            push_rows(
                &mut out,
                &self.case.reference[self.ranges[instance].clone()],
            );
            out
        })
    }
}

/// Most inline-graph models the engine keeps. Every distinct
/// `(model, in, out)` width pair builds one; past this many, a new
/// pair's model is built for its batch and not cached, so clients
/// cycling through widths cannot grow the daemon without bound.
const MAX_INLINE_MODELS: usize = 64;

/// A cached inline-graph model (one per `(model, in, out)` width pair):
/// the functional model and its compiled program.
struct InlineCase {
    model: InlineModel,
    program: CompiledProgram,
}

enum InlineModel {
    Gcn(Gcn),
    Gat(Gat),
}

impl InlineModel {
    fn forward(&self, graph: &CsrGraph, x: &Matrix) -> Result<Matrix, String> {
        match self {
            InlineModel::Gcn(m) => m.forward(graph, x).map_err(|e| e.to_string()),
            InlineModel::Gat(m) => m.forward(graph, x).map_err(|e| e.to_string()),
        }
    }
}

/// Splits `total` across `weights` exactly (largest-remainder method):
/// the parts sum to `total`, and a job's share is proportional to its
/// weight to within one unit. Zero total weight splits evenly.
pub fn split_exact(total: u64, weights: &[u64]) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let wsum: u64 = weights.iter().sum();
    let weights: Vec<u64> = if wsum == 0 {
        vec![1; weights.len()]
    } else {
        weights.to_vec()
    };
    let wsum: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut parts: Vec<u64> = Vec::with_capacity(weights.len());
    let mut rems: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let num = total as u128 * w as u128;
        let part = (num / wsum) as u64;
        parts.push(part);
        assigned += part;
        rems.push((num % wsum, i));
    }
    // Hand the leftover units to the largest remainders (index order
    // breaks ties, so the split is deterministic).
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = total - assigned;
    for &(_, i) in &rems {
        if leftover == 0 {
            break;
        }
        parts[i] += 1;
        leftover -= 1;
    }
    parts
}

/// Sums per-tile GPE stall counters by cause across the whole report.
fn stall_totals(report: &SimReport) -> [u64; StallCause::COUNT] {
    let mut totals = [0u64; StallCause::COUNT];
    for tile in &report.per_tile {
        for (t, s) in totals.iter_mut().zip(tile.gpe_stall_by_cause.iter()) {
            *t += s;
        }
    }
    totals
}

/// The execution engine: case caches plus the shared executor.
pub struct Engine {
    config: AcceleratorConfig,
    scale: Scale,
    executor: Executor,
    tracer: Option<Arc<SpanTracer>>,
    named: Mutex<HashMap<(ModelKind, &'static str), Arc<NamedCase>>>,
    inline: Mutex<HashMap<(ModelKind, usize, usize), Arc<InlineCase>>>,
}

/// Everything known about one job after execution, before serialization.
struct Slot {
    request: JobRequest,
    span_id: u64,
    enqueued: Instant,
    batched: Instant,
    queue_us: u64,
    coalesce_us: u64,
    /// Simulated rows; empty for functional jobs.
    rows: Vec<Vec<f32>>,
    /// The job's functional reference rows within the batch's
    /// reference (the named case's, or the batch's inline rows).
    reference: Range<usize>,
    energy_pj: u64,
    /// The degrade watermark flipped this cycle job to functional
    /// execution; the response is flagged `"degraded":true`.
    degraded: bool,
}

impl Engine {
    /// An engine simulating on `config` at `scale`, assembling responses
    /// on `executor`.
    pub fn new(config: AcceleratorConfig, scale: Scale, executor: Executor) -> Self {
        Engine {
            config,
            scale,
            executor,
            tracer: None,
            named: Mutex::new(HashMap::new()),
            inline: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches a request-span tracer: every executed batch records a
    /// batch span plus per-job stage spans. `None` (the default) keeps
    /// the execution path free of tracer locks.
    pub fn with_tracer(mut self, tracer: Option<Arc<SpanTracer>>) -> Self {
        self.tracer = tracer;
        self
    }

    /// The accelerator configuration jobs simulate on.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    fn named_case(&self, model: ModelKind, input: &'static str) -> Result<Arc<NamedCase>, String> {
        if let Some(c) = self
            .named
            .lock()
            .expect("cache poisoned")
            .get(&(model, input))
        {
            return Ok(Arc::clone(c));
        }
        // Built outside the lock: dataset + model construction can take
        // a while and other keys shouldn't wait on it.
        let case = build_case(model, input, self.scale).map_err(|e| e.to_string())?;
        let mut ranges = Vec::with_capacity(case.dataset.instances.len());
        let mut start = 0usize;
        for inst in &case.dataset.instances {
            let len = if model == ModelKind::Mpnn {
                1 // graph-readout model: one row per instance
            } else {
                inst.x.rows()
            };
            ranges.push(start..start + len);
            start += len;
        }
        let rendered = ranges.iter().map(|_| OnceLock::new()).collect();
        let entry = Arc::new(NamedCase {
            case,
            ranges,
            rendered,
        });
        let mut cache = self.named.lock().expect("cache poisoned");
        Ok(Arc::clone(cache.entry((model, input)).or_insert(entry)))
    }

    fn inline_case(
        &self,
        model: ModelKind,
        in_features: usize,
        out_features: usize,
    ) -> Result<Arc<InlineCase>, String> {
        let key = (model, in_features, out_features);
        if let Some(c) = self.inline.lock().expect("cache poisoned").get(&key) {
            return Ok(Arc::clone(c));
        }
        // Same hyper-parameters and seed as the benchmark models, so an
        // inline Cora-shaped graph answers exactly like the named one.
        let entry = match model {
            ModelKind::Gcn => {
                let m = Gcn::for_dataset(in_features, 16, out_features, MODEL_SEED)
                    .map_err(|e| e.to_string())?
                    .with_norm(GcnNorm::Mean);
                let program = compile_gcn(&m).map_err(|e| e.to_string())?;
                InlineCase {
                    model: InlineModel::Gcn(m),
                    program,
                }
            }
            ModelKind::Gat => {
                let m = Gat::for_dataset(in_features, out_features, MODEL_SEED)
                    .map_err(|e| e.to_string())?;
                let program = compile_gat(&m).map_err(|e| e.to_string())?;
                InlineCase {
                    model: InlineModel::Gat(m),
                    program,
                }
            }
            other => return Err(format!("inline graphs do not support {}", other.name())),
        };
        let entry = Arc::new(entry);
        let mut cache = self.inline.lock().expect("cache poisoned");
        if cache.len() >= MAX_INLINE_MODELS && !cache.contains_key(&key) {
            return Ok(entry);
        }
        Ok(Arc::clone(cache.entry(key).or_insert(entry)))
    }

    fn inline_instance(g: &InlineGraph) -> Result<GraphInstance, String> {
        let graph =
            CsrGraph::from_undirected_edges(g.num_vertices, &g.edges).map_err(|e| e.to_string())?;
        let rows: Vec<&[f32]> = g.features.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&rows).map_err(|e| e.to_string())?;
        Ok(GraphInstance {
            graph,
            x,
            edge_features: None,
        })
    }

    /// Executes one batch (all jobs share a [`BatchKey`]) on accelerator
    /// `instance` and sends each job its outcome over its response
    /// channel.
    pub fn execute_batch(&self, instance: usize, batch: Vec<Job>) {
        if batch.is_empty() {
            return;
        }
        let exec_start = Instant::now();
        // The batch shares an *effective* key: a degraded cycle job
        // batches — and executes — as a functional one.
        let key = BatchKey::effective(&batch[0]);
        let mode = match key {
            BatchKey::Named(.., m) | BatchKey::Inline(.., m) => m,
        };
        debug_assert!(batch.iter().all(|j| BatchKey::effective(j) == key));

        // Resolve the shared case; a failure here fails the whole batch.
        enum Case {
            Named(Arc<NamedCase>),
            Inline(Arc<InlineCase>),
        }
        let case = match key {
            BatchKey::Named(model, input, _) => self.named_case(model, input).map(Case::Named),
            BatchKey::Inline(model, f, out, _) => self.inline_case(model, f, out).map(Case::Inline),
        };
        let case = match case {
            Ok(c) => c,
            Err(msg) => {
                let body = error_body(&msg);
                for job in batch {
                    let _ = job.respond.send(JobOutcome {
                        status: 400,
                        body: body.clone(),
                    });
                }
                return;
            }
        };

        // Admit each job into a slot: find its functional reference and,
        // for a cycle batch, build its graph instance. Invalid jobs
        // answer 400 immediately and drop out of the batch.
        let cycle = mode == ExecMode::CycleAccurate;
        let mut slots: Vec<Slot> = Vec::with_capacity(batch.len());
        let mut responders = Vec::with_capacity(batch.len());
        let mut instances: Vec<GraphInstance> = Vec::new();
        let mut inline_reference: Vec<Vec<f32>> = Vec::new();
        for job in batch {
            // Stage boundaries: queue wait ends when the worker adopted
            // the job into the batch; the coalesce window runs from
            // there to execution start.
            let batched = job.batched.unwrap_or(exec_start);
            let queue_us = batched.duration_since(job.enqueued).as_micros() as u64;
            let coalesce_us = exec_start.saturating_duration_since(batched).as_micros() as u64;
            let prepared = match (&case, &job.request.input) {
                (Case::Named(nc), JobInput::Named { instance, .. }) => {
                    match nc.ranges.get(*instance) {
                        Some(range) => Ok((
                            cycle.then(|| nc.case.dataset.instances[*instance].clone()),
                            range.clone(),
                        )),
                        None => Err(format!(
                            "instance {instance} out of range ({} available)",
                            nc.ranges.len()
                        )),
                    }
                }
                (Case::Inline(ic), JobInput::Inline(g)) => {
                    Self::inline_instance(g).and_then(|inst| {
                        let r = ic.model.forward(&inst.graph, &inst.x)?;
                        let start = inline_reference.len();
                        inline_reference.extend((0..r.rows()).map(|i| r.row(i).to_vec()));
                        Ok((cycle.then_some(inst), start..inline_reference.len()))
                    })
                }
                // BatchKey::of puts named inputs in named batches and
                // inline inputs in inline batches.
                _ => Err("job input does not match its batch key".to_string()),
            };
            match prepared {
                Ok((inst, reference)) => {
                    instances.extend(inst);
                    responders.push(job.respond);
                    slots.push(Slot {
                        request: job.request,
                        span_id: job.span_id,
                        enqueued: job.enqueued,
                        batched,
                        queue_us,
                        coalesce_us,
                        rows: Vec::new(),
                        reference,
                        energy_pj: 0,
                        degraded: job.degraded,
                    });
                }
                Err(msg) => {
                    let _ = job.respond.send(JobOutcome {
                        status: 400,
                        body: error_body(&msg),
                    });
                }
            }
        }
        if slots.is_empty() {
            return;
        }
        let batch_size = slots.len();

        // Execute. Functional mode answers from the reference as it
        // stands; cycle mode runs one union simulation for the whole
        // batch.
        let mut report: Option<SimReport> = None;
        if cycle {
            let program = match &case {
                Case::Named(nc) => nc.case.program.clone(),
                Case::Inline(ic) => ic.program.clone(),
            };
            let run = System::new(&self.config, &instances, program)
                .and_then(|mut sys| sys.run().map(|r| (sys, r)));
            match run {
                Ok((sys, r)) => {
                    let mut extract_err = None;
                    for (i, slot) in slots.iter_mut().enumerate() {
                        match sys.output_matrix(i) {
                            Ok(m) => {
                                slot.rows = (0..m.rows()).map(|j| m.row(j).to_vec()).collect();
                            }
                            Err(e) => {
                                extract_err = Some(e.to_string());
                                break;
                            }
                        }
                    }
                    if let Some(msg) = extract_err {
                        let body = error_body(&msg);
                        for tx in responders {
                            let _ = tx.send(JobOutcome {
                                status: 500,
                                body: body.clone(),
                            });
                        }
                        return;
                    }
                    // Exact energy attribution: per-job shares sum
                    // to the batch total, weighted by output size.
                    let total_pj = EnergyModel::default().total_pj(&r);
                    let weights: Vec<u64> = slots
                        .iter()
                        .map(|s| s.rows.iter().map(|row| row.len() as u64).sum::<u64>())
                        .collect();
                    for (slot, pj) in slots.iter_mut().zip(split_exact(total_pj, &weights)) {
                        slot.energy_pj = pj;
                    }
                    report = Some(r);
                }
                Err(e) => {
                    let body = error_body(&e.to_string());
                    for tx in responders {
                        let _ = tx.send(JobOutcome {
                            status: 500,
                            body: body.clone(),
                        });
                    }
                    return;
                }
            }
        }

        let sim_done = Instant::now();
        let exec_us = sim_done.duration_since(exec_start).as_micros() as u64;
        let stalls = report.as_ref().map(stall_totals);
        let (total_cycles, config_cycles) = report
            .as_ref()
            .map_or((0, 0), |r| (r.total_cycles, r.config_cycles));

        let batch_reference: &[Vec<f32>] = match &case {
            Case::Named(nc) => &nc.case.reference,
            Case::Inline(_) => &inline_reference,
        };

        // Fan response assembly (accuracy grading + serialization) out
        // on the shared executor; in-order emission keeps slot order.
        let assembled = self.executor.map_ordered(slots.len(), |i| {
            let slot = &slots[i];
            let reference = &batch_reference[slot.reference.clone()];
            let rendered = match (&case, &slot.request.input, mode) {
                (Case::Named(nc), JobInput::Named { instance, .. }, ExecMode::Functional) => {
                    Some(nc.rendered_rows(*instance))
                }
                _ => None,
            };
            let rows = if cycle { &slot.rows[..] } else { reference };
            let mut body = String::with_capacity(256 + rendered.map_or(rows.len() * 64, str::len));
            body.push_str("{\"id\":\"");
            json::escape_into(&mut body, &slot.request.id);
            body.push_str("\",\"status\":\"ok\",\"model\":\"");
            body.push_str(slot.request.model.name());
            body.push_str("\",\"input\":\"");
            match &slot.request.input {
                JobInput::Named { input, instance } => {
                    body.push_str(input);
                    body.push_str(&format!("\",\"instance\":{instance},"));
                }
                JobInput::Inline(_) => body.push_str("inline\","),
            }
            // A degraded job reports the mode it actually executed in
            // (functional) and is flagged; every other job's body is
            // byte-identical to the pre-degradation wire format.
            body.push_str("\"mode\":\"");
            body.push_str(mode.as_str());
            body.push('"');
            if slot.degraded {
                body.push_str(",\"degraded\":true");
            }
            body.push_str(",\"rows\":");
            match rendered {
                Some(r) => body.push_str(r),
                None => push_rows(&mut body, rows),
            }
            // A cycle batch holds no degraded jobs: they batch as
            // functional ones.
            let accuracy = if cycle {
                let acc = compare_rows(reference, &slot.rows).map_err(|e| e.to_string())?;
                Some(format!(
                    ",\"accuracy\":{{\"max_rel_err\":{},\"mean_rel_err\":{},\
                     \"label_flips\":{},\"nonfinite\":{}}}",
                    json::number(acc.max_rel_err),
                    json::number(acc.mean_rel_err),
                    acc.label_flips,
                    acc.nonfinite
                ))
            } else {
                None
            };
            // The respond stage covers serializing the rows and grading
            // them, so it is stamped once both are done.
            let respond_us = sim_done.elapsed().as_micros() as u64;
            body.push_str(&format!(
                ",\"telemetry\":{{\"batch_size\":{batch_size},\"span_id\":\"{}\",\
                 \"queue_us\":{},\"coalesce_us\":{},\"simulate_us\":{exec_us},\
                 \"respond_us\":{respond_us},\"exec_us\":{exec_us},\
                 \"total_cycles\":{total_cycles},\"config_cycles\":{config_cycles},\"energy_pj\":{}",
                format_span_id(slot.span_id),
                slot.queue_us,
                slot.coalesce_us,
                slot.energy_pj
            ));
            if let Some(stalls) = &stalls {
                body.push_str(",\"stalls\":{");
                for (i, cause) in StallCause::ALL.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(&format!("\"{}\":{}", cause.as_str(), stalls[cause.index()]));
                }
                body.push('}');
            }
            body.push('}');
            if let Some(accuracy) = accuracy {
                body.push_str(&accuracy);
            }
            body.push('}');
            Ok::<_, String>(body)
        });

        match assembled {
            Ok(bodies) => {
                for (tx, body) in responders.into_iter().zip(bodies) {
                    let _ = tx.send(JobOutcome { status: 200, body });
                }
            }
            Err(e) => {
                let body = error_body(&e.to_string());
                for tx in responders {
                    let _ = tx.send(JobOutcome {
                        status: 500,
                        body: body.clone(),
                    });
                }
            }
        }

        if let Some(tracer) = &self.tracer {
            let responded = Instant::now();
            let spans: Vec<JobSpan> = slots
                .iter()
                .map(|s| JobSpan {
                    span_id: s.span_id,
                    enqueued: s.enqueued,
                    batched: s.batched,
                    exec_start,
                    sim_done,
                    responded,
                })
                .collect();
            tracer.record_batch(instance, exec_start, responded, &spans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_exact_sums_and_tracks_weights() {
        assert_eq!(split_exact(10, &[1, 1, 1]).iter().sum::<u64>(), 10);
        assert_eq!(split_exact(10, &[1, 1]), vec![5, 5]);
        assert_eq!(split_exact(7, &[0, 0]), vec![4, 3]); // zero weights → even-ish
        let parts = split_exact(1_000_001, &[3, 1, 1]);
        assert_eq!(parts.iter().sum::<u64>(), 1_000_001);
        assert!(parts[0] > parts[1]);
        assert_eq!(split_exact(5, &[]), Vec::<u64>::new());
        // Deterministic: same inputs, same split.
        assert_eq!(split_exact(97, &[2, 3, 5]), split_exact(97, &[2, 3, 5]));
    }

    #[test]
    fn inline_model_cache_stops_growing_at_its_cap() {
        let engine = Engine::new(
            AcceleratorConfig::cpu_iso_bandwidth(),
            Scale::Smoke,
            Executor::new(1),
        );
        for width in 1..=MAX_INLINE_MODELS + 8 {
            let features = vec![format!("[{}]", vec!["0.5"; width].join(",")); 2].join(",");
            let body = format!(
                r#"{{"id":"w{width}","model":"gcn","graph":{{"num_vertices":2,"edges":[[0,1]],"features":[{features}],"out_features":2}}}}"#
            );
            let request = crate::protocol::parse_job(&body).unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            engine.execute_batch(0, vec![Job::new(request, tx, width as u64)]);
            let outcome = rx.recv().unwrap();
            assert_eq!(outcome.status, 200, "width {width}: {}", outcome.body);
            assert!(
                outcome.body.contains("\"rows\""),
                "width {width}: {}",
                outcome.body
            );
        }
        assert_eq!(engine.inline.lock().unwrap().len(), MAX_INLINE_MODELS);
    }
}
