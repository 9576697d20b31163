//! Vectorised training forward on the autograd tape — the paper's Fig. 3.
//!
//! Training operates on k-hop subgraph batches: node states as a dense
//! matrix, edges as `src_index`/`dst_index` arrays, Gather as segment ops,
//! attention as segment softmax. The parameters are the same `ParamSet` the
//! per-vertex inference kernels read, so a model trained here *is* the
//! model the backends deploy.

use super::{GnnModel, LayerKind, PoolOp};
use crate::models::gas_impl::GAT_LEAKY_SLOPE;
use inferturbo_graph::{Graph, Subgraph};
use inferturbo_tensor::nn::Activation;
use inferturbo_tensor::{Matrix, Tape, Var};
use std::rc::Rc;

/// A dense batch view of a subgraph (or the whole graph), ready for the
/// tape forward.
pub struct SubgraphBatch {
    pub n_nodes: usize,
    /// `[n_nodes, in_dim]` node features in local order.
    pub feats: Matrix,
    /// Local edge endpoints, message direction `src → dst`.
    pub src_idx: Rc<Vec<u32>>,
    pub dst_idx: Rc<Vec<u32>>,
    /// GCN per-edge source normalisation `1/sqrt(out_deg(src)+1)` using
    /// **global** degrees, so sampled-subgraph training and full-graph
    /// inference share constants.
    pub edge_src_norm: Vec<f32>,
    /// GCN per-node `1/sqrt(in_deg+1)`.
    pub node_in_norm: Vec<f32>,
    /// GCN per-node self-loop scale `1/(sqrt(in_deg+1)·sqrt(out_deg+1))`.
    pub node_self_norm: Vec<f32>,
}

impl SubgraphBatch {
    /// Build from an extracted subgraph plus the full graph's degree
    /// arrays.
    pub fn from_subgraph(
        g: &Graph,
        sub: &Subgraph,
        in_deg: &[u32],
        out_deg: &[u32],
    ) -> SubgraphBatch {
        let d = g.node_feat_dim();
        let feats = Matrix::from_vec(sub.n_nodes(), d, sub.gather_features(g));
        let edge_src_norm = sub
            .edges_src
            .iter()
            .map(|&s_local| {
                let global = sub.nodes[s_local as usize];
                1.0 / ((out_deg[global as usize] + 1) as f32).sqrt()
            })
            .collect();
        let node_in_norm = sub
            .nodes
            .iter()
            .map(|&v| 1.0 / ((in_deg[v as usize] + 1) as f32).sqrt())
            .collect();
        let node_self_norm = sub
            .nodes
            .iter()
            .map(|&v| {
                1.0 / (((in_deg[v as usize] + 1) as f32).sqrt()
                    * ((out_deg[v as usize] + 1) as f32).sqrt())
            })
            .collect();
        SubgraphBatch {
            n_nodes: sub.n_nodes(),
            feats,
            src_idx: Rc::new(sub.edges_src.clone()),
            dst_idx: Rc::new(sub.edges_dst.clone()),
            edge_src_norm,
            node_in_norm,
            node_self_norm,
        }
    }

    /// The whole graph as a single batch — used by tests and the
    /// tape-based reference forward.
    pub fn full_graph(g: &Graph) -> SubgraphBatch {
        let n = g.n_nodes();
        let d = g.node_feat_dim();
        let mut feats = Vec::with_capacity(n * d);
        for v in 0..n as u32 {
            feats.extend_from_slice(g.node_feat(v));
        }
        let in_deg = g.in_degrees();
        let out_deg = g.out_degrees();
        let edge_src_norm = g
            .src()
            .iter()
            .map(|&s| 1.0 / ((out_deg[s as usize] + 1) as f32).sqrt())
            .collect();
        let node_in_norm = (0..n)
            .map(|v| 1.0 / ((in_deg[v] + 1) as f32).sqrt())
            .collect();
        let node_self_norm = (0..n)
            .map(|v| 1.0 / (((in_deg[v] + 1) as f32).sqrt() * ((out_deg[v] + 1) as f32).sqrt()))
            .collect();
        SubgraphBatch {
            n_nodes: n,
            feats: Matrix::from_vec(n, d, feats),
            src_idx: Rc::new(g.src().to_vec()),
            dst_idx: Rc::new(g.dst().to_vec()),
            edge_src_norm,
            node_in_norm,
            node_self_norm,
        }
    }

    pub fn n_edges(&self) -> usize {
        self.src_idx.len()
    }
}

/// Result of a tape forward: the logits node and the `(param index, Var)`
/// pairs whose gradients the optimizer reads back.
pub struct TapeForward {
    pub logits: Var,
    pub param_vars: Vec<(usize, Var)>,
}

impl GnnModel {
    /// Record the full model forward on `tape`. With `trainable = true`
    /// parameters are registered as gradient-carrying leaves.
    pub fn forward_tape(
        &self,
        t: &mut Tape,
        batch: &SubgraphBatch,
        trainable: bool,
    ) -> TapeForward {
        // Register every parameter once, in ParamSet order.
        let param_vars: Vec<(usize, Var)> = (0..self.params.len())
            .map(|i| {
                let m = self.params.get(i).clone();
                let v = if trainable { t.param(m) } else { t.leaf(m) };
                (i, v)
            })
            .collect();
        let pv = |i: usize| param_vars[i].1;

        let mut h = t.leaf(batch.feats.clone());
        let n = batch.n_nodes;
        for lp in &self.layers {
            let msgs = t.gather_rows(h, Rc::clone(&batch.src_idx));
            h = match lp.kind {
                LayerKind::Gcn => {
                    let e_norm = t.leaf(Matrix::from_vec(
                        batch.n_edges(),
                        1,
                        batch.edge_src_norm.clone(),
                    ));
                    let scaled = t.mul_col_broadcast(msgs, e_norm);
                    let agg = t.segment_sum(scaled, Rc::clone(&batch.dst_idx), n);
                    let in_norm = t.leaf(Matrix::from_vec(n, 1, batch.node_in_norm.clone()));
                    let aggn = t.mul_col_broadcast(agg, in_norm);
                    let self_norm = t.leaf(Matrix::from_vec(n, 1, batch.node_self_norm.clone()));
                    let selfn = t.mul_col_broadcast(h, self_norm);
                    let comb = t.add(aggn, selfn);
                    let z = t.matmul(comb, pv(lp.w));
                    let z = t.add_bias(z, pv(lp.bias));
                    t.activation(z, lp.act)
                }
                LayerKind::Sage(pool) => {
                    let agg = match pool {
                        PoolOp::Sum => t.segment_sum(msgs, Rc::clone(&batch.dst_idx), n),
                        PoolOp::Mean => t.segment_mean(msgs, Rc::clone(&batch.dst_idx), n),
                        PoolOp::Max => t.segment_max(msgs, Rc::clone(&batch.dst_idx), n),
                    };
                    // itlint::allow(panic-in-lib): Sage layer constructors always populate w_self
                    let z_self = t.matmul(h, pv(lp.w_self.expect("SAGE w_self")));
                    let z_nb = t.matmul(agg, pv(lp.w));
                    let z = t.add(z_self, z_nb);
                    let z = t.add_bias(z, pv(lp.bias));
                    t.activation(z, lp.act)
                }
                LayerKind::Gat { heads } => {
                    let wh = t.matmul(h, pv(lp.w));
                    // itlint::allow(panic-in-lib): Gat layer constructors always populate a_src
                    let src_attn = t.headwise_dot(wh, pv(lp.a_src.expect("a_src")), heads);
                    // itlint::allow(panic-in-lib): Gat layer constructors always populate a_dst
                    let dst_attn = t.headwise_dot(wh, pv(lp.a_dst.expect("a_dst")), heads);
                    let e_src = t.gather_rows(src_attn, Rc::clone(&batch.src_idx));
                    let e_dst = t.gather_rows(dst_attn, Rc::clone(&batch.dst_idx));
                    let e = t.add(e_src, e_dst);
                    let e = t.activation(e, Activation::LeakyRelu(GAT_LEAKY_SLOPE));
                    let alpha = t.segment_softmax(e, Rc::clone(&batch.dst_idx), n);
                    let msg_wh = t.gather_rows(wh, Rc::clone(&batch.src_idx));
                    let weighted = t.mul_head_broadcast(msg_wh, alpha, heads);
                    let agg = t.segment_sum(weighted, Rc::clone(&batch.dst_idx), n);
                    let z = t.add_bias(agg, pv(lp.bias));
                    t.activation(z, lp.act)
                }
            };
        }
        let logits = t.matmul(h, pv(self.head.w));
        let logits = t.add_bias(logits, pv(self.head.bias));
        TapeForward { logits, param_vars }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};
    use inferturbo_graph::Csr;

    fn small_graph() -> Graph {
        generate(&GenConfig {
            n_nodes: 40,
            n_edges: 160,
            feat_dim: 6,
            classes: 3,
            skew: DegreeSkew::In,
            homophily: 0.5,
            seed: 123,
            ..GenConfig::default()
        })
    }

    /// The central unification claim: the vectorised training forward and
    /// the per-vertex inference kernels — `Backend::Reference`, the oracle
    /// every engine is held to — compute the same function.
    fn assert_tape_matches_pernode(model: &GnnModel, g: &Graph) {
        let batch = SubgraphBatch::full_graph(g);
        let mut tape = Tape::new();
        let fwd = model.forward_tape(&mut tape, &batch, false);
        let tape_logits = tape.value(fwd.logits);
        let pernode = crate::infer::infer_reference(model, g).expect("reference");
        for (v, row) in pernode.iter().enumerate() {
            for (c, &b) in row.iter().enumerate() {
                let a = tape_logits.get(v, c);
                assert!(
                    (a - b).abs() < 2e-3,
                    "node {v} class {c}: tape {a} vs per-node {b}"
                );
            }
        }
    }

    #[test]
    fn sage_mean_tape_equals_pernode() {
        let g = small_graph();
        let m = GnnModel::sage(6, 8, 2, 3, false, PoolOp::Mean, 7);
        assert_tape_matches_pernode(&m, &g);
    }

    #[test]
    fn sage_sum_and_max_tape_equals_pernode() {
        let g = small_graph();
        for pool in [PoolOp::Sum, PoolOp::Max] {
            let m = GnnModel::sage(6, 8, 2, 3, false, pool, 8);
            assert_tape_matches_pernode(&m, &g);
        }
    }

    #[test]
    fn gcn_tape_equals_pernode() {
        let g = small_graph();
        let m = GnnModel::gcn(6, 8, 2, 3, false, 9);
        assert_tape_matches_pernode(&m, &g);
    }

    #[test]
    fn gat_tape_equals_pernode() {
        let g = small_graph();
        let m = GnnModel::gat(6, 8, 2, 2, 3, false, 10);
        assert_tape_matches_pernode(&m, &g);
    }

    #[test]
    fn gat_single_head_tape_equals_pernode() {
        let g = small_graph();
        let m = GnnModel::gat(6, 8, 1, 1, 3, false, 12);
        assert_tape_matches_pernode(&m, &g);
    }

    #[test]
    fn full_graph_batch_shapes() {
        let g = small_graph();
        let b = SubgraphBatch::full_graph(&g);
        assert_eq!(b.n_nodes, 40);
        assert_eq!(b.n_edges(), 160);
        assert_eq!(b.feats.shape(), (40, 6));
        assert_eq!(b.edge_src_norm.len(), 160);
        assert_eq!(b.node_in_norm.len(), 40);
    }

    #[test]
    fn subgraph_batch_uses_global_degrees() {
        use inferturbo_graph::Subgraph;
        let g = small_graph();
        let in_csr = Csr::in_of(&g);
        let in_deg = g.in_degrees();
        let out_deg = g.out_degrees();
        let sub = Subgraph::extract(&in_csr, &[0, 1], 1, None, None);
        let batch = SubgraphBatch::from_subgraph(&g, &sub, &in_deg, &out_deg);
        // norms must reflect full-graph degrees of the mapped nodes
        for (i, &v) in sub.nodes.iter().enumerate() {
            let want = 1.0 / ((in_deg[v as usize] + 1) as f32).sqrt();
            assert_eq!(batch.node_in_norm[i], want);
        }
    }

    #[test]
    fn trainable_forward_yields_gradients() {
        use std::rc::Rc;
        let g = small_graph();
        let m = GnnModel::sage(6, 8, 1, 3, false, PoolOp::Mean, 1);
        let batch = SubgraphBatch::full_graph(&g);
        let mut tape = Tape::new();
        let fwd = m.forward_tape(&mut tape, &batch, true);
        let labels = Rc::new(vec![0u32; g.n_nodes()]);
        let mask = Rc::new(vec![true; g.n_nodes()]);
        let loss = tape.softmax_xent(fwd.logits, labels, mask);
        tape.backward(loss);
        // every registered parameter must receive a gradient
        for (idx, var) in &fwd.param_vars {
            assert!(
                tape.grad(*var).is_some(),
                "param {} got no gradient",
                m.params.name(*idx)
            );
        }
    }
}
