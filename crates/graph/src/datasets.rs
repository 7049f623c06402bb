//! The five benchmark datasets of the paper (Table V), as seeded synthetic
//! stand-ins, plus scaled-down variants for fast tests.
//!
//! | Dataset  | Graphs | Nodes | Edges | Vertex feat. | Edge feat. | Output |
//! |----------|-------:|------:|------:|-------------:|-----------:|-------:|
//! | Cora     | 1      | 2708  | 5429  | 1433         | 0          | 7      |
//! | Citeseer | 1      | 3327  | 4732  | 3703         | 0          | 6      |
//! | Pubmed   | 1      | 19717 | 44338 | 500          | 0          | 3      |
//! | QM9_1000 | 1000   | 12314 | 12080 | 13           | 5          | 73     |
//! | DBLP_1   | 1      | 547   | 2654  | 1            | 0          | 3      |

use crate::generate::{
    community_graph, degree_features, molecule_graphs, power_law_graph, random_features,
};
use crate::{CsrGraph, GraphError};
use gnna_tensor::Matrix;

/// One input graph together with its vertex (and optional edge) features.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphInstance {
    /// The adjacency structure.
    pub graph: CsrGraph,
    /// Vertex features, `num_nodes × vertex_features`.
    pub x: Matrix,
    /// Edge features, `num_stored_edges × edge_features`, indexed by CSR
    /// edge id. `None` when the dataset has no edge features.
    pub edge_features: Option<Matrix>,
}

/// The published statistics of one dataset (one row of Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name as it appears in the paper.
    pub name: &'static str,
    /// Number of independent graphs.
    pub graphs: usize,
    /// Total vertex count across all graphs.
    pub total_nodes: usize,
    /// Total *undirected* edge count across all graphs.
    pub total_edges: usize,
    /// Vertex feature width.
    pub vertex_features: usize,
    /// Edge feature width (0 if none).
    pub edge_features: usize,
    /// Output feature width (class count or regression targets).
    pub output_features: usize,
}

/// Table V of the paper, verbatim.
pub const TABLE_V: [DatasetSpec; 5] = [
    DatasetSpec {
        name: "Cora",
        graphs: 1,
        total_nodes: 2708,
        total_edges: 5429,
        vertex_features: 1433,
        edge_features: 0,
        output_features: 7,
    },
    DatasetSpec {
        name: "Citeseer",
        graphs: 1,
        total_nodes: 3327,
        total_edges: 4732,
        vertex_features: 3703,
        edge_features: 0,
        output_features: 6,
    },
    DatasetSpec {
        name: "Pubmed",
        graphs: 1,
        total_nodes: 19717,
        total_edges: 44338,
        vertex_features: 500,
        edge_features: 0,
        output_features: 3,
    },
    DatasetSpec {
        name: "QM9_1000",
        graphs: 1000,
        total_nodes: 12314,
        total_edges: 12080,
        vertex_features: 13,
        edge_features: 5,
        output_features: 73,
    },
    DatasetSpec {
        name: "DBLP_1",
        graphs: 1,
        total_nodes: 547,
        total_edges: 2654,
        vertex_features: 1,
        edge_features: 0,
        output_features: 3,
    },
];

/// Looks up a [`DatasetSpec`] from [`TABLE_V`] by (case-insensitive) name.
pub fn spec_by_name(name: &str) -> Option<&'static DatasetSpec> {
    TABLE_V.iter().find(|s| s.name.eq_ignore_ascii_case(name))
}

/// The canonical [`TABLE_V`] name of the dataset called `name` on the
/// command line or the wire: any case of a Table V name, plus the short
/// aliases `qm9` and `dblp`.
///
/// # Errors
///
/// Names the unknown input and lists the accepted ones.
pub fn parse_name(name: &str) -> Result<&'static str, String> {
    let lower = name.to_ascii_lowercase();
    let full = match lower.as_str() {
        "qm9" => "qm9_1000",
        "dblp" => "dblp_1",
        other => other,
    };
    spec_by_name(full)
        .map(|spec| spec.name)
        .ok_or_else(|| format!("unknown input {lower} (cora|citeseer|pubmed|qm9|dblp)"))
}

/// A named collection of [`GraphInstance`]s with a common output width.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset name (matches the paper's Table V where applicable).
    pub name: String,
    /// The graphs with their features.
    pub instances: Vec<GraphInstance>,
    /// Output feature width of the inference task.
    pub output_features: usize,
}

impl Dataset {
    /// Total vertex count across all instances.
    pub fn total_nodes(&self) -> usize {
        self.instances.iter().map(|i| i.graph.num_nodes()).sum()
    }

    /// Total undirected edge count across all instances.
    pub fn total_edges(&self) -> usize {
        self.instances
            .iter()
            .map(|i| i.graph.num_undirected_edges())
            .sum()
    }

    /// Vertex feature width (taken from the first instance; all instances
    /// of a dataset share it).
    pub fn vertex_features(&self) -> usize {
        self.instances.first().map_or(0, |i| i.x.cols())
    }

    /// Edge feature width, or 0 when the dataset has no edge features.
    pub fn edge_features(&self) -> usize {
        self.instances
            .first()
            .and_then(|i| i.edge_features.as_ref())
            .map_or(0, Matrix::cols)
    }
}

fn citation_dataset(spec: &DatasetSpec, seed: u64) -> Result<Dataset, GraphError> {
    let graph = power_law_graph(spec.total_nodes, spec.total_edges, seed)?;
    let x = random_features(spec.total_nodes, spec.vertex_features, seed ^ 0xfeed);
    Ok(Dataset {
        name: spec.name.to_string(),
        instances: vec![GraphInstance {
            graph,
            x,
            edge_features: None,
        }],
        output_features: spec.output_features,
    })
}

/// The Cora stand-in (2708 nodes, 5429 edges, 1433 features, 7 classes).
///
/// # Errors
///
/// Propagates [`GraphError`] from generation (cannot happen for this spec).
pub fn cora(seed: u64) -> Result<Dataset, GraphError> {
    citation_dataset(&TABLE_V[0], seed)
}

/// The Citeseer stand-in (3327 nodes, 4732 edges, 3703 features, 6 classes).
///
/// # Errors
///
/// Propagates [`GraphError`] from generation (cannot happen for this spec).
pub fn citeseer(seed: u64) -> Result<Dataset, GraphError> {
    citation_dataset(&TABLE_V[1], seed)
}

/// The Pubmed stand-in (19717 nodes, 44338 edges, 500 features, 3 classes).
///
/// # Errors
///
/// Propagates [`GraphError`] from generation (cannot happen for this spec).
pub fn pubmed(seed: u64) -> Result<Dataset, GraphError> {
    citation_dataset(&TABLE_V[2], seed)
}

/// The QM9_1000 stand-in: 1000 molecules, 12314 total nodes, 12080 total
/// edges, 13 vertex features, 5 edge features, 73 output features.
///
/// # Errors
///
/// Propagates [`GraphError`] from generation (cannot happen for this spec).
pub fn qm9_1000(seed: u64) -> Result<Dataset, GraphError> {
    let spec = &TABLE_V[3];
    let graphs = molecule_graphs(spec.graphs, spec.total_nodes, spec.total_edges, seed)?;
    let instances = graphs
        .into_iter()
        .enumerate()
        .map(|(i, graph)| {
            let x = random_features(
                graph.num_nodes(),
                spec.vertex_features,
                seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15),
            );
            let ef = random_features(
                graph.num_stored_edges(),
                spec.edge_features,
                seed ^ (i as u64).wrapping_mul(0xda942042e4dd58b5),
            );
            GraphInstance {
                graph,
                x,
                edge_features: Some(ef),
            }
        })
        .collect();
    Ok(Dataset {
        name: spec.name.to_string(),
        instances,
        output_features: spec.output_features,
    })
}

/// The DBLP_1 stand-in: 547 nodes, 2654 edges, vertex degree as the single
/// vertex feature (as the paper's PGNN reference does), 3 communities.
///
/// # Errors
///
/// Propagates [`GraphError`] from generation (cannot happen for this spec).
pub fn dblp_1(seed: u64) -> Result<Dataset, GraphError> {
    let spec = &TABLE_V[4];
    let graph = community_graph(
        spec.total_nodes,
        spec.total_edges,
        spec.output_features,
        seed,
    )?;
    let x = degree_features(&graph);
    Ok(Dataset {
        name: spec.name.to_string(),
        instances: vec![GraphInstance {
            graph,
            x,
            edge_features: None,
        }],
        output_features: spec.output_features,
    })
}

/// Generates all five Table V datasets with a common seed.
///
/// # Errors
///
/// Propagates any [`GraphError`] from the individual generators.
pub fn all_table_v(seed: u64) -> Result<Vec<Dataset>, GraphError> {
    Ok(vec![
        cora(seed)?,
        citeseer(seed)?,
        pubmed(seed)?,
        qm9_1000(seed)?,
        dblp_1(seed)?,
    ])
}

/// A scaled-down Cora-like citation dataset for fast tests and examples:
/// `nodes` vertices, `2 * nodes` edges, `features` vertex features and
/// `classes` outputs.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSpec`] for degenerate sizes (fewer than 2
/// nodes).
pub fn cora_scaled(
    nodes: usize,
    features: usize,
    classes: usize,
    seed: u64,
) -> Result<Dataset, GraphError> {
    let edges = (2 * nodes).min(nodes * nodes.saturating_sub(1) / 2);
    let graph = power_law_graph(nodes, edges, seed)?;
    let x = random_features(nodes, features, seed ^ 0xfeed);
    Ok(Dataset {
        name: format!("Cora-scaled-{nodes}"),
        instances: vec![GraphInstance {
            graph,
            x,
            edge_features: None,
        }],
        output_features: classes,
    })
}

/// A scaled-down QM9-like molecular dataset for fast tests: `count` graphs
/// averaging ~12 atoms.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSpec`] for degenerate sizes.
pub fn qm9_scaled(count: usize, seed: u64) -> Result<Dataset, GraphError> {
    let total_nodes = count * 12;
    let total_edges = total_nodes - count + count / 4;
    let graphs = molecule_graphs(count, total_nodes, total_edges, seed)?;
    let instances = graphs
        .into_iter()
        .enumerate()
        .map(|(i, graph)| {
            let x = random_features(graph.num_nodes(), 13, seed ^ i as u64);
            let ef = random_features(graph.num_stored_edges(), 5, seed ^ (i as u64) << 8);
            GraphInstance {
                graph,
                x,
                edge_features: Some(ef),
            }
        })
        .collect();
    Ok(Dataset {
        name: format!("QM9-scaled-{count}"),
        instances,
        output_features: 73,
    })
}

/// A scaled-down DBLP-like community dataset for fast tests.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSpec`] for degenerate sizes.
pub fn dblp_scaled(nodes: usize, seed: u64) -> Result<Dataset, GraphError> {
    let edges = (5 * nodes).min(nodes * nodes.saturating_sub(1) / 2);
    let graph = community_graph(nodes, edges, 3, seed)?;
    let x = degree_features(&graph);
    Ok(Dataset {
        name: format!("DBLP-scaled-{nodes}"),
        instances: vec![GraphInstance {
            graph,
            x,
            edge_features: None,
        }],
        output_features: 3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_lookup() {
        assert_eq!(spec_by_name("cora").unwrap().total_nodes, 2708);
        assert_eq!(spec_by_name("QM9_1000").unwrap().graphs, 1000);
        assert!(spec_by_name("imagenet").is_none());
        assert_eq!(parse_name("Citeseer"), Ok("Citeseer"));
        assert_eq!(parse_name("qm9"), Ok("QM9_1000"));
        assert_eq!(parse_name("DBLP_1"), Ok("DBLP_1"));
        assert!(parse_name("imagenet").is_err());
    }

    #[test]
    fn cora_matches_table_v() {
        let d = cora(1).unwrap();
        let spec = &TABLE_V[0];
        assert_eq!(d.total_nodes(), spec.total_nodes);
        assert_eq!(d.total_edges(), spec.total_edges);
        assert_eq!(d.vertex_features(), spec.vertex_features);
        assert_eq!(d.output_features, spec.output_features);
        assert_eq!(d.edge_features(), 0);
    }

    #[test]
    fn dblp_matches_table_v_and_uses_degree_features() {
        let d = dblp_1(1).unwrap();
        let spec = &TABLE_V[4];
        assert_eq!(d.total_nodes(), spec.total_nodes);
        assert_eq!(d.total_edges(), spec.total_edges);
        assert_eq!(d.vertex_features(), 1);
        let inst = &d.instances[0];
        for v in 0..5 {
            assert_eq!(inst.x.get(v, 0), inst.graph.degree(v) as f32);
        }
    }

    #[test]
    fn qm9_scaled_has_edge_features() {
        let d = qm9_scaled(10, 3).unwrap();
        assert_eq!(d.instances.len(), 10);
        for inst in &d.instances {
            let ef = inst.edge_features.as_ref().unwrap();
            assert_eq!(ef.rows(), inst.graph.num_stored_edges());
            assert_eq!(ef.cols(), 5);
        }
    }

    #[test]
    fn scaled_variants_are_consistent() {
        let d = cora_scaled(50, 16, 7, 2).unwrap();
        assert_eq!(d.total_nodes(), 50);
        assert_eq!(d.vertex_features(), 16);
        let d = dblp_scaled(40, 2).unwrap();
        assert_eq!(d.total_nodes(), 40);
        assert_eq!(d.vertex_features(), 1);
    }

    #[test]
    fn datasets_are_deterministic_per_seed() {
        assert_eq!(
            cora_scaled(30, 8, 7, 5).unwrap(),
            cora_scaled(30, 8, 7, 5).unwrap()
        );
        assert_ne!(
            cora_scaled(30, 8, 7, 5).unwrap(),
            cora_scaled(30, 8, 7, 6).unwrap()
        );
    }

    // Full-size Pubmed/QM9/Citeseer generation is exercised by the
    // (release-mode) benchmark harness and the stats integration test; the
    // unit suite sticks to Cora/DBLP-scale inputs to stay fast.
}
