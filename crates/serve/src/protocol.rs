//! The job wire protocol: JSON request parsing and response
//! serialization.
//!
//! A job names either a built-in benchmark graph (`"input"` +
//! `"instance"`) or carries an inline graph (`"graph"`), picks a model
//! family and an execution mode, and comes back as output rows plus
//! per-job telemetry. Floats are serialized with Rust's shortest
//! round-trip formatting, so functional-mode responses are bit-exact
//! reproductions of the `gnna-models` reference — the property the
//! load harness and CI verify.

use gnna_graph::datasets;
use gnna_models::ModelKind;
use gnna_telemetry::json::{self, JsonValue};
use std::fmt::Write as _;

/// Execution mode of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// `gnna-models` forward pass only: exact reference rows, no cycles.
    Functional,
    /// Full cycle-accurate simulation: rows from the simulated
    /// accelerator plus cycles/energy/stall telemetry and an accuracy
    /// grade against the functional reference.
    CycleAccurate,
}

impl ExecMode {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Functional => "functional",
            ExecMode::CycleAccurate => "cycle",
        }
    }

    /// Parses a wire/CLI mode name.
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "functional" => Some(ExecMode::Functional),
            "cycle" | "cycle-accurate" => Some(ExecMode::CycleAccurate),
            _ => None,
        }
    }
}

/// An inline graph shipped with the job instead of a dataset name.
/// Undirected edges; vertex features as dense rows.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineGraph {
    /// Vertex count.
    pub num_vertices: usize,
    /// Undirected edge list.
    pub edges: Vec<(usize, usize)>,
    /// Dense feature rows, `num_vertices × F` (F uniform).
    pub features: Vec<Vec<f32>>,
    /// Output feature width the model head should produce.
    pub out_features: usize,
}

/// What the job runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum JobInput {
    /// A built-in benchmark dataset (Table V name) and the instance
    /// index inside it (always 0 for single-graph datasets; a molecule
    /// index for QM9).
    Named {
        /// Canonical dataset name (`"Cora"`, `"QM9_1000"`, ...).
        input: &'static str,
        /// Instance index within the dataset.
        instance: usize,
    },
    /// An inline graph from the request body.
    Inline(InlineGraph),
}

/// One parsed inference job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen job id, echoed back in the response.
    pub id: String,
    /// Model family.
    pub model: ModelKind,
    /// Graph input.
    pub input: JobInput,
    /// Execution mode.
    pub mode: ExecMode,
    /// Tenant the job is billed to (admission quota + scheduling lane);
    /// `"default"` when the request carries no `"tenant"` field.
    pub tenant: String,
    /// Optional client deadline in milliseconds: the job is shed at
    /// admission when the queue's wait estimate already exceeds it.
    pub deadline_ms: Option<u64>,
}

/// Widest inline feature row and output width. The model's weight
/// matrices are sized from both, so an unchecked width lets one request
/// ask for terabytes and abort the daemon on the failed allocation; the
/// widest benchmark dataset (Citeseer) has 3703 features.
const MAX_INLINE_WIDTH: usize = 4096;

fn parse_inline_graph(v: &JsonValue) -> Result<InlineGraph, String> {
    let num_vertices = v
        .get("num_vertices")
        .and_then(JsonValue::as_u64)
        .ok_or("graph.num_vertices must be a number")? as usize;
    if num_vertices == 0 {
        return Err("graph.num_vertices must be positive".into());
    }
    let mut edges = Vec::new();
    for (i, e) in v
        .get("edges")
        .and_then(JsonValue::as_array)
        .ok_or("graph.edges must be an array of [u, v] pairs")?
        .iter()
        .enumerate()
    {
        let pair = e
            .as_array()
            .ok_or_else(|| format!("graph.edges[{i}] must be a pair"))?;
        if pair.len() != 2 {
            return Err(format!("graph.edges[{i}] must have exactly two endpoints"));
        }
        let u = pair[0]
            .as_u64()
            .ok_or_else(|| format!("graph.edges[{i}][0] must be a number"))?;
        let v2 = pair[1]
            .as_u64()
            .ok_or_else(|| format!("graph.edges[{i}][1] must be a number"))?;
        if u as usize >= num_vertices || v2 as usize >= num_vertices {
            return Err(format!("graph.edges[{i}] endpoint out of range"));
        }
        edges.push((u as usize, v2 as usize));
    }
    let feat_rows = v
        .get("features")
        .and_then(JsonValue::as_array)
        .ok_or("graph.features must be an array of rows")?;
    if feat_rows.len() != num_vertices {
        return Err(format!(
            "graph.features has {} rows for {num_vertices} vertices",
            feat_rows.len()
        ));
    }
    let mut features = Vec::with_capacity(feat_rows.len());
    let mut width = None;
    for (i, row) in feat_rows.iter().enumerate() {
        let row = row
            .as_array()
            .ok_or_else(|| format!("graph.features[{i}] must be an array"))?;
        let parsed: Option<Vec<f32>> = row.iter().map(|x| x.as_f64().map(|f| f as f32)).collect();
        let parsed = parsed.ok_or_else(|| format!("graph.features[{i}] holds a non-number"))?;
        match width {
            None => width = Some(parsed.len()),
            Some(w) if w != parsed.len() => {
                return Err(format!("graph.features[{i}] width {} != {w}", parsed.len()))
            }
            _ => {}
        }
        features.push(parsed);
    }
    if width == Some(0) {
        return Err("graph.features rows must be non-empty".into());
    }
    if width.is_some_and(|w| w > MAX_INLINE_WIDTH) {
        return Err(format!(
            "graph.features rows are wider than {MAX_INLINE_WIDTH}"
        ));
    }
    let out_features = v
        .get("out_features")
        .and_then(JsonValue::as_u64)
        .ok_or("graph.out_features must be a number")? as usize;
    if !(1..=MAX_INLINE_WIDTH).contains(&out_features) {
        return Err(format!("graph.out_features must be 1..={MAX_INLINE_WIDTH}"));
    }
    Ok(InlineGraph {
        num_vertices,
        edges,
        features,
        out_features,
    })
}

/// Parses one job request body.
///
/// # Errors
///
/// A human-readable description of the first problem (returned to the
/// client as an HTTP 400).
pub fn parse_job(body: &str) -> Result<JobRequest, String> {
    let v = json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let model = ModelKind::parse(
        v.get("model")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"model\"")?,
    )?;
    let mode = match v.get("mode").and_then(JsonValue::as_str) {
        None => ExecMode::Functional,
        Some(s) => {
            ExecMode::parse(s).ok_or_else(|| format!("unknown mode {s:?} (functional|cycle)"))?
        }
    };
    let id = v
        .get("id")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    let tenant = match v.get("tenant") {
        None => "default".to_string(),
        Some(t) => {
            let t = t.as_str().ok_or("\"tenant\" must be a string")?;
            if t.is_empty() || t.len() > 64 {
                return Err("\"tenant\" must be 1..=64 characters".into());
            }
            t.to_string()
        }
    };
    let deadline_ms = v
        .get("deadline_ms")
        .map(|d| d.as_u64().ok_or("\"deadline_ms\" must be a number"))
        .transpose()?;
    if deadline_ms == Some(0) {
        return Err("\"deadline_ms\" must be positive".into());
    }
    let input = match (v.get("input"), v.get("graph")) {
        (Some(_), Some(_)) => return Err("give \"input\" or \"graph\", not both".into()),
        (Some(name), None) => {
            let name = name.as_str().ok_or("\"input\" must be a string")?;
            let instance = v
                .get("instance")
                .map(|i| i.as_u64().ok_or("\"instance\" must be a number"))
                .transpose()?
                .unwrap_or(0) as usize;
            JobInput::Named {
                input: datasets::parse_name(name)?,
                instance,
            }
        }
        (None, Some(g)) => {
            if !matches!(model, ModelKind::Gcn | ModelKind::Gat) {
                return Err(format!(
                    "inline graphs support gcn and gat only (got {})",
                    model.name().to_ascii_lowercase()
                ));
            }
            JobInput::Inline(parse_inline_graph(g)?)
        }
        (None, None) => return Err("missing \"input\" (dataset name) or \"graph\"".into()),
    };
    Ok(JobRequest {
        id,
        model,
        input,
        mode,
        tenant,
        deadline_ms,
    })
}

/// Serializes an `f32` for the wire with shortest round-trip formatting
/// (bit-exact on parse-back; non-finite values become `null`, which the
/// reference never produces).
pub fn push_f32(out: &mut String, v: f32) {
    if v.is_finite() {
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Serializes output rows as a JSON array of arrays.
pub fn push_rows(out: &mut String, rows: &[Vec<f32>]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_f32(out, v);
        }
        out.push(']');
    }
    out.push(']');
}

/// Renders the standard error body.
pub fn error_body(message: &str) -> String {
    let mut out = String::from("{\"status\":\"error\",\"error\":\"");
    json::escape_into(&mut out, message);
    out.push_str("\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_named_job() {
        let j =
            parse_job(r#"{"id":"a1","model":"gcn","input":"cora","mode":"cycle","instance":0}"#)
                .unwrap();
        assert_eq!(j.id, "a1");
        assert_eq!(j.model, ModelKind::Gcn);
        assert_eq!(j.mode, ExecMode::CycleAccurate);
        assert_eq!(
            j.input,
            JobInput::Named {
                input: "Cora",
                instance: 0
            }
        );
    }

    #[test]
    fn mode_defaults_to_functional() {
        let j = parse_job(r#"{"model":"mpnn","input":"qm9","instance":3}"#).unwrap();
        assert_eq!(j.mode, ExecMode::Functional);
        assert_eq!(
            j.input,
            JobInput::Named {
                input: "QM9_1000",
                instance: 3
            }
        );
    }

    #[test]
    fn parses_inline_graph_job() {
        let j = parse_job(
            r#"{"model":"gcn","mode":"functional","graph":{
                "num_vertices":3,"edges":[[0,1],[1,2]],
                "features":[[1,0],[0,1],[1,1]],"out_features":2}}"#,
        )
        .unwrap();
        match j.input {
            JobInput::Inline(g) => {
                assert_eq!(g.num_vertices, 3);
                assert_eq!(g.edges, vec![(0, 1), (1, 2)]);
                assert_eq!(g.features.len(), 3);
                assert_eq!(g.out_features, 2);
            }
            other => panic!("expected inline input, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_jobs() {
        assert!(parse_job("not json").is_err());
        assert!(parse_job(r#"{"input":"cora"}"#).is_err()); // no model
        assert!(parse_job(r#"{"model":"vgg","input":"cora"}"#).is_err());
        assert!(parse_job(r#"{"model":"gcn"}"#).is_err()); // no input
        assert!(parse_job(r#"{"model":"gcn","input":"cora","mode":"warp"}"#).is_err());
        // Inline graphs are vertex-output models only.
        assert!(parse_job(
            r#"{"model":"mpnn","graph":{"num_vertices":1,"edges":[],"features":[[1]],"out_features":1}}"#
        )
        .is_err());
        // Edge endpoint out of range.
        assert!(parse_job(
            r#"{"model":"gcn","graph":{"num_vertices":2,"edges":[[0,5]],"features":[[1],[1]],"out_features":1}}"#
        )
        .is_err());
        // Widths that would size the weights past any memory.
        let graph = |row: &str, out: &str| {
            format!(
                r#"{{"model":"gat","graph":{{"num_vertices":1,"edges":[],"features":[{row}],"out_features":{out}}}}}"#
            )
        };
        let wide = format!("[{}]", vec!["0"; MAX_INLINE_WIDTH + 1].join(","));
        let widest = format!("[{}]", vec!["0"; MAX_INLINE_WIDTH].join(","));
        assert!(parse_job(&graph(&wide, "1")).is_err());
        assert!(parse_job(&graph("[1]", "1000000000000")).is_err());
        assert!(parse_job(&graph(&widest, &MAX_INLINE_WIDTH.to_string())).is_ok());
    }

    #[test]
    fn tenant_and_deadline_parse_with_defaults() {
        let j = parse_job(r#"{"model":"gcn","input":"cora"}"#).unwrap();
        assert_eq!(j.tenant, "default");
        assert_eq!(j.deadline_ms, None);
        let j = parse_job(r#"{"model":"gcn","input":"cora","tenant":"acme","deadline_ms":250}"#)
            .unwrap();
        assert_eq!(j.tenant, "acme");
        assert_eq!(j.deadline_ms, Some(250));
        // Invalid forms are client errors, not silently defaulted.
        assert!(parse_job(r#"{"model":"gcn","input":"cora","tenant":""}"#).is_err());
        assert!(parse_job(r#"{"model":"gcn","input":"cora","tenant":7}"#).is_err());
        assert!(parse_job(r#"{"model":"gcn","input":"cora","deadline_ms":0}"#).is_err());
        assert!(parse_job(r#"{"model":"gcn","input":"cora","deadline_ms":"soon"}"#).is_err());
        let long = "x".repeat(65);
        assert!(parse_job(&format!(
            r#"{{"model":"gcn","input":"cora","tenant":"{long}"}}"#
        ))
        .is_err());
    }

    #[test]
    fn f32_serialization_round_trips_bits() {
        for v in [1.0f32, 0.1, -3.25e-7, f32::MIN_POSITIVE, 16_777_217.0] {
            let mut s = String::new();
            push_f32(&mut s, v);
            let back: f32 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s}");
        }
        let mut s = String::new();
        push_f32(&mut s, f32::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn push_f32_writes_the_display_bytes() {
        // Each value is pushed after a prefix, as into a reply body, so
        // the test also sees that push_f32 appends.
        let smallest_subnormal = f32::from_bits(1);
        for v in [
            0.1f32,
            -0.0,
            1.0,
            123_456.79,
            smallest_subnormal,
            f32::MIN_POSITIVE,
            f32::MAX,
        ] {
            let mut s = String::from("[");
            push_f32(&mut s, v);
            assert_eq!(s, format!("[{v}"), "{v:e}");
        }
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut s = String::from("[");
            push_f32(&mut s, v);
            assert_eq!(s, "[null", "{v}");
        }
    }
}
