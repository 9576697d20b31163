//! GNN models in the GAS abstraction.
//!
//! A [`GnnModel`] is a stack of [`LayerParams`] plus a linear prediction
//! head, all of whose weights live in one shared
//! [`inferturbo_tensor::optim::ParamSet`]. Two execution paths read the
//! *same* parameters:
//!
//! - [`tape`] builds the vectorised training forward of the paper's Fig. 3
//!   (mini-batch, k-hop subgraphs, autograd);
//! - [`gas_impl`] exposes each layer as a [`crate::gas::GasLayer`] — the
//!   per-vertex computation flow the inference backends run.
//!
//! This shared-parameter design is the paper's C1 answer: train mini-batch,
//! infer full-graph, one model.

pub mod gas_impl;
pub mod tape;

use inferturbo_common::rows::AggKind;
use inferturbo_common::Xoshiro256;
use inferturbo_tensor::nn::{Activation, Init};
use inferturbo_tensor::optim::ParamSet;
use inferturbo_tensor::Matrix;

/// Pooling operator for commutative/associative aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolOp {
    Sum,
    Mean,
    Max,
}

impl PoolOp {
    pub fn tag(&self) -> u8 {
        match self {
            PoolOp::Sum => 0,
            PoolOp::Mean => 1,
            PoolOp::Max => 2,
        }
    }

    pub fn from_tag(t: u8) -> Option<PoolOp> {
        match t {
            0 => Some(PoolOp::Sum),
            1 => Some(PoolOp::Mean),
            2 => Some(PoolOp::Max),
            _ => None,
        }
    }

    /// The lane-wise fold that pools rows on the engines' fused planes: a
    /// sum for sum and mean (the mean divides at `apply_node` by the
    /// engine-tracked count), a max for max. Each is bit-identical to the
    /// row kernel the gather folds with (`row_axpy(.., 1.0)`, `row_max`;
    /// see [`AggKind`]), so a sender-side partial folds exactly as the
    /// receiver's gather would have folded the raw messages.
    pub fn agg_kind(self) -> AggKind {
        match self {
            PoolOp::Sum | PoolOp::Mean => AggKind::Sum,
            PoolOp::Max => AggKind::Max,
        }
    }
}

/// Layer architecture variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Graph convolution with symmetric-ish degree normalisation
    /// (`1/sqrt(out_deg(u)+1)` at the edge, `1/sqrt(in_deg(v)+1)` at the
    /// node, self-loop folded in).
    Gcn,
    /// GraphSAGE: `act(W_self·h + W_nb·pool(msgs) + b)`.
    Sage(PoolOp),
    /// Multi-head graph attention; heads are concatenated (`out_dim =
    /// heads · head_dim`).
    Gat { heads: usize },
}

/// One layer: hyper-parameters plus indices into the shared [`ParamSet`].
#[derive(Debug, Clone)]
pub struct LayerParams {
    pub kind: LayerKind,
    pub act: Activation,
    pub in_dim: usize,
    pub out_dim: usize,
    /// Main weight `[in_dim, out_dim]` (SAGE: the neighbour weight).
    pub w: usize,
    /// SAGE self weight `[in_dim, out_dim]`.
    pub w_self: Option<usize>,
    /// Bias `[1, out_dim]`.
    pub bias: usize,
    /// GAT source-attention vector `[1, out_dim]`.
    pub a_src: Option<usize>,
    /// GAT destination-attention vector `[1, out_dim]`.
    pub a_dst: Option<usize>,
}

/// Prediction head: a linear map from the last embedding to class logits.
#[derive(Debug, Clone)]
pub struct HeadParams {
    pub w: usize,
    pub bias: usize,
    pub classes: usize,
}

/// A complete GNN: layers + head + shared parameters.
#[derive(Debug, Clone)]
pub struct GnnModel {
    pub params: ParamSet,
    pub layers: Vec<LayerParams>,
    pub head: HeadParams,
    /// Multi-label task (sigmoid head) vs single-label (softmax head).
    pub multilabel: bool,
}

impl GnnModel {
    /// GraphSAGE stack: `n_layers` of `in_dim→hidden→…→hidden`, ReLU, then
    /// a linear head to `classes`.
    pub fn sage(
        in_dim: usize,
        hidden: usize,
        n_layers: usize,
        classes: usize,
        multilabel: bool,
        pool: PoolOp,
        seed: u64,
    ) -> GnnModel {
        assert!(n_layers >= 1);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let mut layers = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            let din = if l == 0 { in_dim } else { hidden };
            let w = params.add(
                format!("layer{l}/w_nb"),
                Init::XavierUniform.init(din, hidden, &mut rng),
            );
            let w_self = params.add(
                format!("layer{l}/w_self"),
                Init::XavierUniform.init(din, hidden, &mut rng),
            );
            let bias = params.add(format!("layer{l}/b"), Matrix::zeros(1, hidden));
            layers.push(LayerParams {
                kind: LayerKind::Sage(pool),
                act: Activation::Relu,
                in_dim: din,
                out_dim: hidden,
                w,
                w_self: Some(w_self),
                bias,
                a_src: None,
                a_dst: None,
            });
        }
        let head = Self::make_head(&mut params, hidden, classes, &mut rng);
        GnnModel {
            params,
            layers,
            head,
            multilabel,
        }
    }

    /// GCN stack.
    pub fn gcn(
        in_dim: usize,
        hidden: usize,
        n_layers: usize,
        classes: usize,
        multilabel: bool,
        seed: u64,
    ) -> GnnModel {
        assert!(n_layers >= 1);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let mut layers = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            let din = if l == 0 { in_dim } else { hidden };
            let w = params.add(
                format!("layer{l}/w"),
                Init::XavierUniform.init(din, hidden, &mut rng),
            );
            let bias = params.add(format!("layer{l}/b"), Matrix::zeros(1, hidden));
            layers.push(LayerParams {
                kind: LayerKind::Gcn,
                act: Activation::Relu,
                in_dim: din,
                out_dim: hidden,
                w,
                w_self: None,
                bias,
                a_src: None,
                a_dst: None,
            });
        }
        let head = Self::make_head(&mut params, hidden, classes, &mut rng);
        GnnModel {
            params,
            layers,
            head,
            multilabel,
        }
    }

    /// GAT stack with `heads` attention heads per layer (concatenated, so
    /// `hidden` must be divisible by `heads`).
    pub fn gat(
        in_dim: usize,
        hidden: usize,
        heads: usize,
        n_layers: usize,
        classes: usize,
        multilabel: bool,
        seed: u64,
    ) -> GnnModel {
        assert!(n_layers >= 1);
        assert!(
            heads >= 1 && hidden.is_multiple_of(heads),
            "hidden must split into heads"
        );
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let mut layers = Vec::with_capacity(n_layers);
        for l in 0..n_layers {
            let din = if l == 0 { in_dim } else { hidden };
            let w = params.add(
                format!("layer{l}/w"),
                Init::XavierUniform.init(din, hidden, &mut rng),
            );
            let a_src = params.add(
                format!("layer{l}/a_src"),
                Init::XavierUniform.init(1, hidden, &mut rng),
            );
            let a_dst = params.add(
                format!("layer{l}/a_dst"),
                Init::XavierUniform.init(1, hidden, &mut rng),
            );
            let bias = params.add(format!("layer{l}/b"), Matrix::zeros(1, hidden));
            layers.push(LayerParams {
                kind: LayerKind::Gat { heads },
                act: Activation::Relu,
                in_dim: din,
                out_dim: hidden,
                w,
                w_self: None,
                bias,
                a_src: Some(a_src),
                a_dst: Some(a_dst),
            });
        }
        let head = Self::make_head(&mut params, hidden, classes, &mut rng);
        GnnModel {
            params,
            layers,
            head,
            multilabel,
        }
    }

    fn make_head(
        params: &mut ParamSet,
        hidden: usize,
        classes: usize,
        rng: &mut Xoshiro256,
    ) -> HeadParams {
        let w = params.add("head/w", Init::XavierUniform.init(hidden, classes, rng));
        let bias = params.add("head/b", Matrix::zeros(1, classes));
        HeadParams { w, bias, classes }
    }

    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature dimensionality expected by the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    pub fn classes(&self) -> usize {
        self.head.classes
    }

    /// Apply the prediction head to one embedding (per-vertex inference
    /// path — the paper attaches this to the last superstep / reduce).
    pub fn apply_head(&self, h: &[f32]) -> Vec<f32> {
        let w = self.params.get(self.head.w);
        let b = self.params.get(self.head.bias);
        let mut out = b.row(0).to_vec();
        matvec_acc(w, h, &mut out);
        out
    }

    /// FLOPs of one head application (cost model).
    pub fn flops_head(&self) -> f64 {
        let w = self.params.get(self.head.w);
        (2 * w.rows() * w.cols()) as f64
    }

    /// Predicted class of one logits vector (single-label tasks).
    pub fn predict_class(logits: &[f32]) -> u32 {
        let mut best = 0usize;
        for (i, &x) in logits.iter().enumerate() {
            if x > logits[best] {
                best = i;
            }
        }
        best as u32
    }
}

/// `out += x @ W` for a single row `x`; `W` is `[len(x), len(out)]`.
/// The per-vertex workhorse of the inference path, and the frozen name of
/// [`inferturbo_tensor::row_matvec_acc`] at scale `1.0` — the one matvec
/// kernel in the tree, register-blocked over output lanes; its docs carry
/// the measured table (scalar zip → blocked: 64×64 with half the lanes
/// zero 520 → 270 ns, dense 410 → 245 ns, the 64→4 head 170 → 40 ns) and
/// the reason blocking wins: the zip re-loaded and re-stored all of `out`
/// once per input lane and mispredicted its zero-skip on every ReLU
/// output, so it was never bound by vector width. Panics when `x` or
/// `out` does not match `W`'s shape.
#[inline]
pub fn matvec_acc(w: &Matrix, x: &[f32], out: &mut [f32]) {
    inferturbo_tensor::row_matvec_acc(w, x, 1.0, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_wire_dimensions() {
        let m = GnnModel::sage(16, 8, 2, 4, false, PoolOp::Mean, 1);
        assert_eq!(m.n_layers(), 2);
        assert_eq!(m.in_dim(), 16);
        assert_eq!(m.layers[0].in_dim, 16);
        assert_eq!(m.layers[0].out_dim, 8);
        assert_eq!(m.layers[1].in_dim, 8);
        assert_eq!(m.classes(), 4);
        // params: 2 layers × (w_nb, w_self, b) + head (w, b)
        assert_eq!(m.params.len(), 8);
        assert_eq!(m.params.get(m.layers[0].w).shape(), (16, 8));
        assert_eq!(m.params.get(m.head.w).shape(), (8, 4));
    }

    #[test]
    fn gat_requires_divisible_heads() {
        let m = GnnModel::gat(10, 8, 4, 2, 3, false, 0);
        assert_eq!(m.layers[0].out_dim, 8);
        matches!(m.layers[0].kind, LayerKind::Gat { heads: 4 });
    }

    #[test]
    #[should_panic(expected = "hidden must split into heads")]
    fn gat_rejects_indivisible_heads() {
        let _ = GnnModel::gat(10, 10, 4, 1, 3, false, 0);
    }

    #[test]
    fn matvec_matches_matrix_multiply() {
        let w = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let x = [1.0f32, -2.0, 0.5];
        let mut out = vec![0.0f32; 4];
        matvec_acc(&w, &x, &mut out);
        let want = Matrix::row_vector(&x).matmul(&w);
        for (a, b) in out.iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn head_is_linear_in_input() {
        let m = GnnModel::gcn(4, 4, 1, 3, false, 7);
        let zero = m.apply_head(&[0.0; 4]);
        let b = m.params.get(m.head.bias);
        assert_eq!(zero, b.row(0));
        let h = [1.0f32, 2.0, 3.0, 4.0];
        let got = m.apply_head(&h);
        let want = Matrix::row_vector(&h)
            .matmul(m.params.get(m.head.w))
            .add_row_broadcast(b);
        for (a, b) in got.iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn predict_class_takes_argmax() {
        assert_eq!(GnnModel::predict_class(&[0.1, 0.9, -0.5]), 1);
        assert_eq!(GnnModel::predict_class(&[2.0]), 0);
    }

    #[test]
    fn same_seed_same_weights() {
        let a = GnnModel::gat(8, 8, 2, 2, 4, false, 42);
        let b = GnnModel::gat(8, 8, 2, 2, 4, false, 42);
        assert_eq!(
            a.params.get(a.layers[0].w).data(),
            b.params.get(b.layers[0].w).data()
        );
        let c = GnnModel::gat(8, 8, 2, 2, 4, false, 43);
        assert_ne!(
            a.params.get(a.layers[0].w).data(),
            c.params.get(c.layers[0].w).data()
        );
    }

    #[test]
    fn pool_op_tag_roundtrip() {
        for op in [PoolOp::Sum, PoolOp::Mean, PoolOp::Max] {
            assert_eq!(PoolOp::from_tag(op.tag()), Some(op));
        }
        assert_eq!(PoolOp::from_tag(9), None);
    }
}
