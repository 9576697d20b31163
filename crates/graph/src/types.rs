//! Core graph storage: a directed, attributed graph in struct-of-arrays
//! layout.
//!
//! Node indices are `u32` (the scaled-down reproduction never exceeds a few
//! ten-million nodes; the paper's own ids are 64-bit, and the inference
//! backends re-expand to `u64` ids on the wire where shadow-node mirrors
//! need tag bits).

use inferturbo_common::{Error, Result};

/// Node labels: single-label classification (Products/MAG240M-style) or
/// multi-label (PPI-style, 121 independent binary targets).
#[derive(Debug, Clone, PartialEq)]
pub enum Labels {
    /// `y[v]` is the class of node `v`; `classes` is the number of classes.
    Single { classes: u32, y: Vec<u32> },
    /// `y[v * classes + c] != 0` iff node `v` carries label `c`.
    Multi { classes: u32, y: Vec<u8> },
    /// No labels (pure-structure graphs used by the strategy ablations).
    None,
}

impl Labels {
    /// Number of target classes (0 when unlabelled).
    pub fn num_classes(&self) -> u32 {
        match self {
            Labels::Single { classes, .. } | Labels::Multi { classes, .. } => *classes,
            Labels::None => 0,
        }
    }

    /// True if this is a multi-label task.
    pub fn is_multilabel(&self) -> bool {
        matches!(self, Labels::Multi { .. })
    }

    /// Single-label class of `v`; panics for other variants (call sites know
    /// the task type from the dataset).
    pub fn class_of(&self, v: u32) -> u32 {
        match self {
            Labels::Single { y, .. } => y[v as usize],
            // itlint::allow(panic-in-lib): documented accessor contract — call sites select by dataset task type, like Index
            _ => panic!("class_of on non-single-label graph"),
        }
    }

    /// Multi-label row of `v` as `f32` targets.
    pub fn multilabel_row(&self, v: u32) -> Vec<f32> {
        match self {
            Labels::Multi { classes, y } => {
                let c = *classes as usize;
                y[v as usize * c..(v as usize + 1) * c]
                    .iter()
                    .map(|&b| if b != 0 { 1.0 } else { 0.0 })
                    .collect()
            }
            // itlint::allow(panic-in-lib): documented accessor contract — call sites select by dataset task type, like Index
            _ => panic!("multilabel_row on non-multi-label graph"),
        }
    }
}

/// Directed attributed graph in struct-of-arrays layout.
///
/// Edges are stored as parallel `src`/`dst` arrays in insertion order; use
/// [`crate::csr::Csr`] to build adjacency indexes for traversal.
#[derive(Debug, Clone)]
pub struct Graph {
    n_nodes: usize,
    src: Vec<u32>,
    dst: Vec<u32>,
    node_feat_dim: usize,
    node_feats: Vec<f32>,
    labels: Labels,
}

impl Graph {
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    pub fn n_edges(&self) -> usize {
        self.src.len()
    }

    pub fn src(&self) -> &[u32] {
        &self.src
    }

    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Endpoints of edge `e`.
    #[inline]
    pub fn edge(&self, e: usize) -> (u32, u32) {
        (self.src[e], self.dst[e])
    }

    pub fn node_feat_dim(&self) -> usize {
        self.node_feat_dim
    }

    /// Feature row of node `v`.
    #[inline]
    pub fn node_feat(&self, v: u32) -> &[f32] {
        let d = self.node_feat_dim;
        &self.node_feats[v as usize * d..(v as usize + 1) * d]
    }

    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// Out-degree of every node (one `O(E)` pass; cached by callers).
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n_nodes];
        for &s in &self.src {
            deg[s as usize] += 1;
        }
        deg
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n_nodes];
        for &d in &self.dst {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Maximum in- and out-degree — the "hub" statistics the power-law
    /// strategies key off.
    pub fn max_degrees(&self) -> (u32, u32) {
        (
            self.in_degrees().iter().copied().max().unwrap_or(0),
            self.out_degrees().iter().copied().max().unwrap_or(0),
        )
    }

    /// Validate internal consistency (index bounds, feature array lengths).
    pub fn validate(&self) -> Result<()> {
        for (&s, &d) in self.src.iter().zip(&self.dst) {
            if s as usize >= self.n_nodes || d as usize >= self.n_nodes {
                return Err(Error::InvalidGraph(format!(
                    "edge ({s},{d}) out of bounds for {} nodes",
                    self.n_nodes
                )));
            }
        }
        if self.node_feats.len() != self.n_nodes * self.node_feat_dim {
            return Err(Error::InvalidGraph("node feature length mismatch".into()));
        }
        match &self.labels {
            Labels::Single { classes, y } => {
                if y.len() != self.n_nodes {
                    return Err(Error::InvalidGraph("label length mismatch".into()));
                }
                if let Some(&bad) = y.iter().find(|&&c| c >= *classes) {
                    return Err(Error::InvalidGraph(format!(
                        "label {bad} out of {classes} classes"
                    )));
                }
            }
            Labels::Multi { classes, y } => {
                if y.len() != self.n_nodes * *classes as usize {
                    return Err(Error::InvalidGraph("multilabel length mismatch".into()));
                }
            }
            Labels::None => {}
        }
        Ok(())
    }
}

/// Incremental [`Graph`] construction.
pub struct GraphBuilder {
    n_nodes: usize,
    src: Vec<u32>,
    dst: Vec<u32>,
    node_feat_dim: usize,
    node_feats: Vec<f32>,
    labels: Labels,
}

impl GraphBuilder {
    /// Start a graph with `n_nodes` nodes and `node_feat_dim`-dimensional
    /// node features (initialised to zero).
    pub fn new(n_nodes: usize, node_feat_dim: usize) -> Self {
        GraphBuilder {
            n_nodes,
            src: Vec::new(),
            dst: Vec::new(),
            node_feat_dim,
            node_feats: vec![0.0; n_nodes * node_feat_dim],
            labels: Labels::None,
        }
    }

    /// Reserve edge capacity up front (generators know |E| in advance).
    pub fn reserve_edges(&mut self, n: usize) {
        self.src.reserve(n);
        self.dst.reserve(n);
    }

    /// Append an edge `src -> dst`.
    pub fn add_edge(&mut self, src: u32, dst: u32) {
        debug_assert!((src as usize) < self.n_nodes && (dst as usize) < self.n_nodes);
        self.src.push(src);
        self.dst.push(dst);
    }

    /// Overwrite the feature row of node `v`.
    pub fn set_node_feat(&mut self, v: u32, feat: &[f32]) {
        assert_eq!(feat.len(), self.node_feat_dim, "node feature dim");
        let d = self.node_feat_dim;
        self.node_feats[v as usize * d..(v as usize + 1) * d].copy_from_slice(feat);
    }

    /// Mutable access to the feature row of node `v` (generators fill these
    /// in place to avoid temporaries).
    pub fn node_feat_mut(&mut self, v: u32) -> &mut [f32] {
        let d = self.node_feat_dim;
        &mut self.node_feats[v as usize * d..(v as usize + 1) * d]
    }

    /// Attach labels.
    pub fn set_labels(&mut self, labels: Labels) {
        self.labels = labels;
    }

    /// Current edge count (generators use this for progress/threshold math).
    pub fn n_edges(&self) -> usize {
        self.src.len()
    }

    /// Finish and validate.
    pub fn build(self) -> Result<Graph> {
        let g = Graph {
            n_nodes: self.n_nodes,
            src: self.src,
            dst: self.dst,
            node_feat_dim: self.node_feat_dim,
            node_feats: self.node_feats,
            labels: self.labels,
        };
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4, 2);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.set_node_feat(0, &[1.0, 2.0]);
        b.set_node_feat(3, &[3.0, 4.0]);
        b.set_labels(Labels::Single {
            classes: 2,
            y: vec![0, 1, 0, 1],
        });
        b.build().unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let g = diamond();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.edge(0), (0, 1));
        assert_eq!(g.node_feat(0), &[1.0, 2.0]);
        assert_eq!(g.node_feat(1), &[0.0, 0.0]);
        assert_eq!(g.labels().class_of(3), 1);
    }

    #[test]
    fn degree_computation() {
        let g = diamond();
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
        assert_eq!(g.max_degrees(), (2, 2));
    }

    #[test]
    fn validate_rejects_out_of_bounds_edges() {
        let g = Graph {
            n_nodes: 2,
            src: vec![0],
            dst: vec![5],
            node_feat_dim: 0,
            node_feats: vec![],
            labels: Labels::None,
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_labels() {
        let mut b = GraphBuilder::new(2, 0);
        b.add_edge(0, 1);
        b.set_labels(Labels::Single {
            classes: 2,
            y: vec![0, 7],
        });
        assert!(b.build().is_err());
    }

    #[test]
    fn multilabel_rows() {
        let labels = Labels::Multi {
            classes: 3,
            y: vec![1, 0, 1, 0, 0, 0],
        };
        assert_eq!(labels.multilabel_row(0), vec![1.0, 0.0, 1.0]);
        assert_eq!(labels.multilabel_row(1), vec![0.0, 0.0, 0.0]);
        assert!(labels.is_multilabel());
        assert_eq!(labels.num_classes(), 3);
    }
}
