//! Per-vertex inference kernels: each model layer as a [`GasLayer`].
//!
//! [`LayerView`] borrows a layer's parameters from the model's shared
//! `ParamSet` and implements the three computation-flow stages. The same
//! code runs on the Pregel backend, the MapReduce backend, and the
//! single-machine reference — backend equivalence tests in
//! `crate::infer` lean on exactly this sharing.

use super::{matvec_acc, GnnModel, LayerKind, LayerParams, PoolOp};
use crate::gas::{pooled_fold, AggState, GasLayer, GnnMessage, LayerAnnotations, NodeCtx};
use inferturbo_common::{Error, Result};
use inferturbo_pregel::{AggKind, BroadcastLookup, RowsIn};
use inferturbo_tensor::row_matvec_acc;
use std::borrow::Cow;

/// GAT attention slope — fixed constant, must match the tape builder.
pub const GAT_LEAKY_SLOPE: f32 = 0.2;

/// A borrowed view of one layer, implementing the inference computation
/// flow.
pub struct LayerView<'m> {
    model: &'m GnnModel,
    idx: usize,
}

impl GnnModel {
    /// Inference view of layer `idx`.
    pub fn layer_view(&self, idx: usize) -> LayerView<'_> {
        assert!(idx < self.layers.len(), "layer {idx} out of range");
        LayerView { model: self, idx }
    }
}

impl<'m> LayerView<'m> {
    fn lp(&self) -> &'m LayerParams {
        &self.model.layers[self.idx]
    }

    /// Pooling operator for combinable layers; `None` for union layers.
    pub fn pool_op(&self) -> Option<PoolOp> {
        match self.lp().kind {
            LayerKind::Gcn => Some(PoolOp::Sum),
            LayerKind::Sage(p) => Some(p),
            LayerKind::Gat { .. } => None,
        }
    }

    /// The fold implementing partial-gather for this layer, if its
    /// aggregate is commutative/associative: both engines' sender-side
    /// combiner and reduce-side merge run it ([`PoolOp::agg_kind`]).
    pub fn row_aggregator(&self) -> Option<AggKind> {
        self.pool_op().map(PoolOp::agg_kind)
    }

    /// Message width on the wire: the length of an `apply_edge` output.
    fn msg_dim(&self) -> usize {
        let lp = self.lp();
        match lp.kind {
            LayerKind::Gcn | LayerKind::Sage(_) => lp.in_dim,
            // GAT ships the source-side projection W·h.
            LayerKind::Gat { .. } => lp.out_dim,
        }
    }

    /// Fold one row — a partial aggregate over `count` raw messages, or a
    /// raw message when `count == 1` — into the gather aggregate. A pooled
    /// aggregate takes its first row as it comes (a borrowed row is lent,
    /// an owned one moved in) and folds the rest; a union appends it as an
    /// entry of its own, lent or owned as it came.
    fn gather<'a>(&self, agg: &mut AggState<'a>, row: Cow<'a, [f32]>, count: u32) {
        match (self.pool_op(), agg) {
            (Some(op), AggState::Pooled { acc, count: c }) => pooled_fold(op, acc, c, row, count),
            (None, AggState::Union { dim, rows }) => {
                debug_assert_eq!(count, 1, "union layers never see partial rows");
                debug_assert_eq!(row.len(), *dim, "union row width mismatch");
                rows.push(row);
            }
            _ => debug_assert!(false, "gather on mismatched AggState"),
        }
    }

    /// Fold one columnar row into the gather aggregate, by borrow: see
    /// [`AggState::Pooled`] for when it is copied.
    pub fn gather_row<'a>(&self, agg: &mut AggState<'a>, row: &'a [f32], count: u32) {
        self.gather(agg, Cow::Borrowed(row), count);
    }

    /// Fold lent rows into the gather aggregate — a Pregel vertex's inbox
    /// rows or a MapReduce reducer's key group, both lent out of a sealed
    /// inbox: a union takes each lent row as an entry of its own, a pooled
    /// aggregate folds them one by one in delivery order; a fused
    /// accumulator — the engine's merged row, already the gather result
    /// when nothing else arrives — is one pre-reduced partial, read where
    /// it lies.
    pub fn gather_rows<'a>(&self, agg: &mut AggState<'a>, rows: RowsIn<'a>) {
        match (rows, agg) {
            (RowsIn::None, _) => {}
            (RowsIn::Rows(lent), AggState::Union { dim, rows }) => {
                debug_assert!(lent.is_empty() || lent.dim() == *dim, "union row width");
                rows.extend(lent.iter().map(Cow::Borrowed));
            }
            (RowsIn::Rows(rows), agg) => {
                for row in rows.iter() {
                    self.gather_row(agg, row, 1);
                }
            }
            (RowsIn::Fused { acc, count, .. }, agg) => {
                if count > 0 {
                    self.gather_row(agg, acc, count);
                }
            }
        }
    }

    /// Wrap a raw `apply_edge` output for the wire. With partial-gather
    /// enabled (and annotated), messages travel as one-element partial
    /// aggregates so senders can fold them.
    pub fn make_wire(&self, raw: Vec<f32>, partial_enabled: bool) -> GnnMessage {
        if partial_enabled && self.annotations().partial_gather {
            GnnMessage::Partial { acc: raw, count: 1 }
        } else {
            GnnMessage::Embedding(raw)
        }
    }

    /// Fold one wire message into the gather aggregate, resolving broadcast
    /// references through `lookup` — by borrow: a hub's payload is folded
    /// straight out of the broadcast table, never copied per ref.
    pub fn gather_wire<'a>(
        &self,
        agg: &mut AggState<'a>,
        msg: &'a GnnMessage,
        lookup: &BroadcastLookup<'a, GnnMessage>,
    ) -> Result<()> {
        match msg {
            GnnMessage::Partial { acc, count } => {
                // An empty partial is the identity, whatever its count.
                if !acc.is_empty() {
                    self.gather_row(agg, acc, *count);
                }
                Ok(())
            }
            GnnMessage::Embedding(v) => {
                self.gather_row(agg, v, 1);
                Ok(())
            }
            GnnMessage::Ref(src) => {
                let resolved = lookup(*src).ok_or_else(|| {
                    Error::InvalidGraph(format!("dangling broadcast ref to {src}"))
                })?;
                if matches!(resolved, GnnMessage::Ref(_)) {
                    return Err(Error::InvalidGraph("broadcast ref to a ref".into()));
                }
                self.gather_wire(agg, resolved, lookup)
            }
        }
    }
}

impl GasLayer for LayerView<'_> {
    fn annotations(&self) -> LayerAnnotations {
        let lp = self.lp();
        LayerAnnotations {
            partial_gather: self.pool_op().is_some(),
            in_dim: lp.in_dim,
            out_dim: lp.out_dim,
            msg_dim: self.msg_dim(),
            reads_own_msg: matches!(lp.kind, LayerKind::Gat { .. }),
        }
    }

    fn init_agg<'a>(&self, n_msgs: usize) -> AggState<'a> {
        match self.pool_op() {
            Some(_) => AggState::Pooled {
                acc: Cow::Borrowed(&[]),
                count: 0,
            },
            None => AggState::Union {
                dim: self.msg_dim(),
                rows: Vec::with_capacity(n_msgs),
            },
        }
    }

    fn aggregate(&self, acc: &mut AggState<'_>, msg: Vec<f32>) {
        self.gather(acc, Cow::Owned(msg), 1);
    }

    fn merge_agg<'a>(&self, acc: &mut AggState<'a>, other: AggState<'a>) {
        match (acc, other) {
            (acc @ AggState::Pooled { .. }, AggState::Pooled { acc: other, count }) => {
                // An empty partial is the identity, whatever its count.
                if !other.is_empty() {
                    self.gather(acc, other, count);
                }
            }
            (AggState::Union { rows, .. }, AggState::Union { rows: other, .. }) => {
                rows.extend(other)
            }
            _ => debug_assert!(false, "merge_agg on mismatched AggState"),
        }
    }

    fn apply_node(&self, node: &NodeCtx<'_>, agg: AggState<'_>, out: &mut Vec<f32>) {
        let lp = self.lp();
        let params = &self.model.params;
        out.clear();
        out.extend_from_slice(params.get(lp.bias).row(0));
        match lp.kind {
            LayerKind::Gcn => {
                let mut combined = match agg {
                    AggState::Pooled { acc, .. } if !acc.is_empty() => acc.into_owned(),
                    _ => vec![0.0; lp.in_dim],
                };
                let s_in = 1.0 / ((node.in_degree + 1) as f32).sqrt();
                for v in &mut combined {
                    *v *= s_in;
                }
                let s_self = s_in / ((node.out_degree + 1) as f32).sqrt();
                for (c, &x) in combined.iter_mut().zip(node.state) {
                    *c += x * s_self;
                }
                matvec_acc(params.get(lp.w), &combined, out);
            }
            LayerKind::Sage(pool) => {
                let (acc, count) = match agg {
                    AggState::Pooled { acc, count } => (acc, count),
                    #[expect(
                        clippy::unreachable,
                        reason = "init_agg and apply_node dispatch on the same LayerView, so the agg variant always matches the layer kind"
                    )]
                    AggState::Union { .. } => unreachable!("SAGE aggregates pooled"),
                };
                matvec_acc(
                    #[expect(
                        clippy::expect_used,
                        reason = "Sage layer constructors always populate w_self"
                    )]
                    params.get(lp.w_self.expect("SAGE has w_self")),
                    node.state,
                    out,
                );
                // The aggregate is read where it lies — for a vertex with
                // only fused in-rows that is the engine's accumulator —
                // with mean's 1/count applied as each lane is read. The
                // identity aggregate (no in-message) contributes nothing.
                if !acc.is_empty() {
                    let scale = match pool {
                        PoolOp::Mean if count > 0 => 1.0 / count as f32,
                        _ => 1.0,
                    };
                    row_matvec_acc(params.get(lp.w), &acc, scale, out);
                }
            }
            LayerKind::Gat { heads } => {
                // Gathered rows are `apply_edge` outputs: already W·h_src,
                // one entry per message, walked where they lie.
                let rows = match agg {
                    AggState::Union { dim, rows } => {
                        debug_assert_eq!(dim, lp.out_dim, "GAT gathers projected rows");
                        rows
                    }
                    #[expect(
                        clippy::unreachable,
                        reason = "init_agg and apply_node dispatch on the same LayerView, so the agg variant always matches the layer kind"
                    )]
                    AggState::Pooled { .. } => unreachable!("GAT aggregates by union"),
                };
                if !rows.is_empty() && lp.out_dim > 0 {
                    GAT_SCRATCH.with(|cell| {
                        let (weights, wh_self) = &mut *cell.borrow_mut();
                        gat_attention(self, node, heads, &rows, weights, wh_self, out);
                    });
                }
            }
        }
        lp.act.apply_slice(out);
    }

    fn edge_row<'s>(
        &self,
        state: &'s [f32],
        src_out_degree: u32,
        buf: &'s mut Vec<f32>,
    ) -> &'s [f32] {
        let lp = self.lp();
        match lp.kind {
            LayerKind::Gcn => {
                let s = 1.0 / ((src_out_degree + 1) as f32).sqrt();
                buf.clear();
                buf.extend(state.iter().map(|&x| x * s));
                buf
            }
            // SAGE ships the raw embedding.
            LayerKind::Sage(_) => state,
            // GAT ships the projection W·h, computed here once per source
            // instead of once per in-message at every receiver.
            LayerKind::Gat { .. } => {
                buf.clear();
                buf.resize(lp.out_dim, 0.0);
                matvec_acc(self.model.params.get(lp.w), state, buf);
                buf
            }
        }
    }

    fn flops_apply_node(&self, n_messages: usize) -> f64 {
        let lp = self.lp();
        let (din, dout) = (lp.in_dim as f64, lp.out_dim as f64);
        match lp.kind {
            LayerKind::Gcn => 2.0 * din * dout + 3.0 * din,
            LayerKind::Sage(_) => 4.0 * din * dout + din,
            LayerKind::Gat { heads } => {
                // Messages arrive projected; only attention is per message.
                let per_msg = 2.0 * dout + 4.0 * heads as f64;
                n_messages as f64 * per_msg + 2.0 * din * dout + 2.0 * dout
            }
        }
    }

    fn flops_aggregate_per_message(&self) -> f64 {
        self.msg_dim() as f64
    }

    fn flops_apply_edge(&self) -> f64 {
        let lp = self.lp();
        match lp.kind {
            LayerKind::Gcn | LayerKind::Sage(_) => lp.in_dim as f64,
            LayerKind::Gat { .. } => 2.0 * lp.in_dim as f64 * lp.out_dim as f64,
        }
    }
}

std::thread_local! {
    /// GAT attention scratch reused across vertices and layers: one head's
    /// logits, overwritten by their softmax weights, and the node's own
    /// `W·h` for a node no backend lends it to (a hub, whose message went
    /// out as a broadcast; a node with no out-edges; every node off the
    /// Pregel backend). Sized by the largest
    /// in-degree and the widest layer a thread has seen, so a warm vertex
    /// step allocates nothing here.
    static GAT_SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// GAT attention over the gathered projected rows `whs` (at least one),
/// added onto `out` (which holds the bias): per head, the destination
/// attention `a_dst · W·h_self`, every message's leaky logit, the softmax
/// written over the logits in `weights`, then the weighted sum. Heads are
/// independent, so walking them one at a time keeps every lane's
/// operations, and their order, those of computing all logits first.
fn gat_attention(
    layer: &LayerView<'_>,
    node: &NodeCtx<'_>,
    heads: usize,
    whs: &[Cow<'_, [f32]>],
    weights: &mut Vec<f32>,
    wh_self: &mut Vec<f32>,
    out: &mut [f32],
) {
    let lp = layer.lp();
    let params = &layer.model.params;
    #[expect(
        clippy::expect_used,
        reason = "Gat layer constructors always populate a_src"
    )]
    let a_src = params.get(lp.a_src.expect("GAT has a_src")).row(0);
    #[expect(
        clippy::expect_used,
        reason = "Gat layer constructors always populate a_dst"
    )]
    let a_dst = params.get(lp.a_dst.expect("GAT has a_dst")).row(0);
    let dh = lp.out_dim / heads;
    // dst attention from the node's own transformed state: the row it
    // shipped, when the backend lends it back
    let own = if node.own_msg.is_empty() {
        wh_self.clear();
        wh_self.resize(lp.out_dim, 0.0);
        matvec_acc(params.get(lp.w), node.state, wh_self);
        &wh_self[..]
    } else {
        debug_assert_eq!(node.own_msg.len(), lp.out_dim, "own message width");
        node.own_msg
    };
    for h in 0..heads {
        let lo = h * dh;
        let d_attn: f32 = own[lo..lo + dh]
            .iter()
            .zip(&a_dst[lo..lo + dh])
            .map(|(x, a)| x * a)
            .sum();
        weights.clear();
        weights.extend(whs.iter().map(|wh| {
            let src_attn: f32 = wh[lo..lo + dh]
                .iter()
                .zip(&a_src[lo..lo + dh])
                .map(|(x, a)| x * a)
                .sum();
            let e = src_attn + d_attn;
            if e >= 0.0 {
                e
            } else {
                GAT_LEAKY_SLOPE * e
            }
        }));
        // softmax over in-messages, each logit overwritten by its weight
        // exp(l − max) / denom, then the weighted sum
        let max = weights.iter().fold(f32::NEG_INFINITY, |m, &l| m.max(l));
        let mut denom = 0.0f32;
        for a in weights.iter_mut() {
            *a = (*a - max).exp();
            denom += *a;
        }
        for a in weights.iter_mut() {
            *a /= denom;
        }
        attend(&mut out[lo..lo + dh], lo, whs, weights);
    }
}

/// One GAT head's weighted sum, `out[k] += alphas[i] · whs[i][lo + k]`
/// over the messages in delivery order: the head's output lanes are held in
/// locals, a block at a time, across every message, so each lane sees
/// exactly the scalar loop's additions in the scalar loop's order.
fn attend(out: &mut [f32], lo: usize, whs: &[Cow<'_, [f32]>], alphas: &[f32]) {
    let k = attend_blocks::<32>(out, lo, whs, alphas, 0);
    let k = attend_blocks::<16>(out, lo, whs, alphas, k);
    let k = attend_blocks::<8>(out, lo, whs, alphas, k);
    let k = attend_blocks::<4>(out, lo, whs, alphas, k);
    attend_blocks::<1>(out, lo, whs, alphas, k);
}

/// Output lanes `from..` of [`attend`] in blocks of `B`, as many as fit;
/// returns the first lane not covered.
#[inline(always)]
fn attend_blocks<const B: usize>(
    out: &mut [f32],
    lo: usize,
    whs: &[Cow<'_, [f32]>],
    alphas: &[f32],
    from: usize,
) -> usize {
    let mut k = from;
    while k + B <= out.len() {
        let mut acc = [0.0f32; B];
        acc.copy_from_slice(&out[k..k + B]);
        for (wh, &alpha) in whs.iter().zip(alphas) {
            for (a, &x) in acc.iter_mut().zip(&wh[lo + k..lo + k + B]) {
                *a += alpha * x;
            }
        }
        out[k..k + B].copy_from_slice(&acc);
        k += B;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_pregel::LentRows;
    use proptest::prelude::*;

    fn sage_model() -> GnnModel {
        GnnModel::sage(4, 6, 2, 3, false, PoolOp::Mean, 11)
    }

    #[test]
    fn annotations_follow_the_rule() {
        let sage = sage_model();
        assert!(sage.layer_view(0).annotations().partial_gather);
        let gat = GnnModel::gat(4, 6, 2, 1, 3, false, 1);
        assert!(!gat.layer_view(0).annotations().partial_gather);
        let gcn = GnnModel::gcn(4, 6, 1, 3, false, 2);
        assert!(gcn.layer_view(0).annotations().partial_gather);
    }

    #[test]
    fn sage_mean_aggregation_matches_hand_computation() {
        let m = sage_model();
        let layer = m.layer_view(0);
        let mut agg = layer.init_agg(0);
        layer.aggregate(&mut agg, vec![1.0, 2.0, 3.0, 4.0]);
        layer.aggregate(&mut agg, vec![3.0, 2.0, 1.0, 0.0]);
        let node = NodeCtx {
            id: 0,
            state: &[0.5, -0.5, 0.25, 0.0],
            in_degree: 2,
            out_degree: 1,
            own_msg: &[],
        };
        let mut out = Vec::new();
        layer.apply_node(&node, agg, &mut out);
        // hand-compute: mean = [2,2,2,2]
        let w_self = m.params.get(m.layers[0].w_self.unwrap());
        let w_nb = m.params.get(m.layers[0].w);
        let b = m.params.get(m.layers[0].bias);
        let mut want = b.row(0).to_vec();
        matvec_acc(w_self, node.state, &mut want);
        matvec_acc(w_nb, &[2.0, 2.0, 2.0, 2.0], &mut want);
        for v in &mut want {
            *v = v.max(0.0);
        }
        assert_eq!(out, want);
    }

    #[test]
    fn a_lone_partial_is_lent_and_a_second_one_folds_into_a_copy() {
        let m = sage_model();
        let layer = m.layer_view(0);
        let merged = [4.0f32, 8.0, -2.0, 0.0];
        let fused = RowsIn::Fused {
            dim: 4,
            acc: &merged,
            count: 4,
        };
        let node = NodeCtx {
            id: 0,
            state: &[0.5, -0.5, 0.25, 0.0],
            in_degree: 4,
            out_degree: 1,
            own_msg: &[],
        };

        // The engine's merged accumulator is the aggregate: read in place,
        // mean's 1/count applied as the kernel reads each lane.
        let mut agg = layer.init_agg(0);
        layer.gather_rows(&mut agg, fused);
        assert!(matches!(
            &agg,
            AggState::Pooled { acc: Cow::Borrowed(a), count: 4 } if a.as_ptr() == merged.as_ptr()
        ));
        let mut lent = Vec::new();
        layer.apply_node(&node, agg, &mut lent);
        // ... to the bits of scaling an owned copy first.
        let mut want = m.params.get(m.layers[0].bias).row(0).to_vec();
        matvec_acc(
            m.params.get(m.layers[0].w_self.unwrap()),
            node.state,
            &mut want,
        );
        matvec_acc(
            m.params.get(m.layers[0].w),
            &[1.0, 2.0, -0.5, 0.0],
            &mut want,
        );
        m.layers[0].act.apply_slice(&mut want);
        assert_eq!(lent, want);

        // A typed partial beside it folds into an owned copy; the lender
        // keeps its lanes.
        let extra = GnnMessage::Partial {
            acc: vec![1.0; 4],
            count: 2,
        };
        let mut agg = layer.init_agg(0);
        layer.gather_rows(&mut agg, fused);
        layer.gather_wire(&mut agg, &extra, &|_| None).unwrap();
        assert_eq!(
            agg,
            AggState::Pooled {
                acc: Cow::Owned(vec![5.0, 9.0, -1.0, 1.0]),
                count: 6
            }
        );
        assert_eq!(merged, [4.0, 8.0, -2.0, 0.0]);
    }

    #[test]
    fn partial_merge_equals_sequential_aggregation() {
        let m = sage_model();
        let layer = m.layer_view(0);
        let msgs: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f32 * 0.37).sin()).collect())
            .collect();
        // sequential
        let mut seq = layer.init_agg(0);
        for msg in &msgs {
            layer.aggregate(&mut seq, msg.clone());
        }
        // split into two partials and merge
        let mut p1 = layer.init_agg(0);
        let mut p2 = layer.init_agg(0);
        for msg in &msgs[..3] {
            layer.aggregate(&mut p1, msg.clone());
        }
        for msg in &msgs[3..] {
            layer.aggregate(&mut p2, msg.clone());
        }
        layer.merge_agg(&mut p1, p2);
        match (&seq, &p1) {
            (AggState::Pooled { acc: a, count: c }, AggState::Pooled { acc: b, count: c2 }) => {
                assert_eq!(c, c2);
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!((x - y).abs() < 1e-5);
                }
            }
            _ => panic!("expected pooled"),
        }
    }

    #[test]
    fn empty_aggregate_yields_bias_activation_for_gat() {
        let m = GnnModel::gat(4, 6, 2, 1, 3, false, 5);
        let layer = m.layer_view(0);
        let node = NodeCtx {
            id: 9,
            state: &[1.0, 1.0, 1.0, 1.0],
            in_degree: 0,
            out_degree: 0,
            own_msg: &[],
        };
        // A stale buffer is overwritten, not appended to.
        let mut out = vec![9.0; 2];
        layer.apply_node(&node, layer.init_agg(0), &mut out);
        let mut want = m.params.get(m.layers[0].bias).row(0).to_vec();
        m.layers[0].act.apply_slice(&mut want);
        assert_eq!(out, want);
    }

    #[test]
    fn gat_attention_weights_sum_to_one_effect() {
        // With two identical messages, attention must average them —
        // i.e. the output equals the single-message output.
        let m = GnnModel::gat(4, 8, 2, 1, 3, false, 6);
        let layer = m.layer_view(0);
        let node = NodeCtx {
            id: 0,
            state: &[0.2, -0.1, 0.4, 0.3],
            in_degree: 2,
            out_degree: 0,
            own_msg: &[],
        };
        let msg = layer.apply_edge(&[0.7, -0.3, 0.9, 0.1], 2);
        let mut one = layer.init_agg(1);
        layer.aggregate(&mut one, msg.clone());
        let (mut out_one, mut out_two) = (Vec::new(), Vec::new());
        layer.apply_node(&node, one, &mut out_one);
        let mut two = layer.init_agg(2);
        layer.aggregate(&mut two, msg.clone());
        layer.aggregate(&mut two, msg.clone());
        layer.apply_node(&node, two, &mut out_two);
        for (a, b) in out_one.iter().zip(&out_two) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn a_union_sized_by_init_agg_gathers_without_regrowing() {
        let m = GnnModel::gat(3, 4, 2, 1, 3, false, 7);
        let layer = m.layer_view(0);
        let row = |k: usize| -> Vec<f32> { (0..4).map(|c| (k * 4 + c) as f32).collect() };
        let inbox: Vec<f32> = (0..3).flat_map(row).collect();
        let table = row(3);
        let wire = GnnMessage::Embedding(row(4));
        // Every way a row reaches a union: three lent inbox rows, a lent
        // table row, a typed message, two handed over and one merged in.
        let n = 3 + 1 + 1 + 2 + 1;
        let list = |agg: &AggState<'_>| match agg {
            AggState::Union { rows, .. } => (rows.as_ptr() as usize, rows.capacity()),
            AggState::Pooled { .. } => panic!("GAT gathers a union"),
        };
        let mut agg = layer.init_agg(n);
        let sized = list(&agg);
        assert_eq!(sized.1, n);
        layer.gather_rows(&mut agg, RowsIn::Rows(LentRows::flat(4, &inbox)));
        layer.gather_row(&mut agg, &table, 1);
        layer.gather_wire(&mut agg, &wire, &|_| None).unwrap();
        assert_eq!(list(&agg), sized);
        layer.aggregate(&mut agg, row(5));
        layer.aggregate(&mut agg, row(6));
        let mut other = layer.init_agg(1);
        layer.aggregate(&mut other, row(7));
        layer.merge_agg(&mut agg, other);
        assert_eq!(list(&agg), sized);
        assert_eq!(agg.count() as usize, n);
    }

    proptest! {
        /// `edge_row`'s contract over random states: its lanes, and
        /// `apply_edge`'s, are the message formula's bit for bit (GCN
        /// `state · 1/sqrt(deg + 1)`, SAGE `state`, GAT `W·state` from a
        /// zeroed row) whatever the buffer held before; SAGE lends `state`
        /// itself and leaves the buffer alone; GCN and GAT write into the
        /// buffer given, keeping its allocation when its capacity suffices.
        #[test]
        fn prop_edge_row_lends_the_state_or_writes_in_place(
            seed in any::<u64>(),
            in_dim in 1usize..12,
            heads in 1usize..4,
            state in proptest::collection::vec(-8.0f32..8.0, 12),
            stale in proptest::collection::vec(-1e3f32..1e3, 0..24),
            src_out_degree in 0u32..100,
        ) {
            let state = &state[..in_dim];
            let hidden = 4 * heads;
            let models = [
                ("gcn", GnnModel::gcn(in_dim, hidden, 1, 3, false, seed)),
                ("sage", GnnModel::sage(in_dim, hidden, 1, 3, false, PoolOp::Max, seed)),
                ("gat", GnnModel::gat(in_dim, hidden, heads, 1, 3, false, seed)),
            ];
            for (name, m) in &models {
                let layer = m.layer_view(0);
                let lp = &m.layers[0];
                let formula: Vec<f32> = match lp.kind {
                    LayerKind::Gcn => {
                        let s = 1.0 / ((src_out_degree + 1) as f32).sqrt();
                        state.iter().map(|&x| x * s).collect()
                    }
                    LayerKind::Sage(_) => state.to_vec(),
                    LayerKind::Gat { .. } => {
                        let mut wh = vec![0.0; lp.out_dim];
                        matvec_acc(m.params.get(lp.w), state, &mut wh);
                        wh
                    }
                };
                let want: Vec<u32> = formula.iter().map(|x| x.to_bits()).collect();
                let provided: Vec<u32> = layer.apply_edge(state, src_out_degree).iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&provided, &want, "{} apply_edge lanes", name);
                let mut buf = stale.clone();
                buf.reserve(want.len());
                let (ptr, cap) = (buf.as_ptr(), buf.capacity());
                let row = layer.edge_row(state, src_out_degree, &mut buf);
                let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
                let (lent, row_ptr) = (std::ptr::eq(row, state), row.as_ptr());
                prop_assert_eq!(&got, &want, "{} lanes", name);
                if *name == "sage" {
                    prop_assert!(lent, "SAGE lends the state");
                    prop_assert_eq!(&buf, &stale, "SAGE leaves the buffer alone");
                } else {
                    prop_assert_eq!(row_ptr, ptr, "{} writes into the buffer", name);
                    prop_assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap), "{} keeps it", name);
                }
            }
        }
    }

    #[test]
    fn gcn_edge_normalisation() {
        let m = GnnModel::gcn(2, 2, 1, 2, false, 3);
        let layer = m.layer_view(0);
        let msg = layer.apply_edge(&[2.0, 4.0], 3);
        assert_eq!(msg, vec![1.0, 2.0]); // 1/sqrt(4) = 0.5
    }

    #[test]
    fn gather_wire_resolves_refs() {
        let m = sage_model();
        let layer = m.layer_view(0);
        let payload = GnnMessage::Partial {
            acc: vec![1.0, 2.0, 3.0, 4.0],
            count: 1,
        };
        let nested = GnnMessage::Ref(42);
        let lookup = |src: u64| match src {
            42 => Some(&payload),
            7 => Some(&nested),
            _ => None,
        };
        let mut agg = layer.init_agg(0);
        layer
            .gather_wire(&mut agg, &GnnMessage::Ref(42), &lookup)
            .unwrap();
        assert_eq!(agg.count(), 1);
        let err = layer
            .gather_wire(&mut agg, &GnnMessage::Ref(99), &lookup)
            .unwrap_err();
        assert!(err.to_string().contains("dangling broadcast ref to 99"));
        let err = layer
            .gather_wire(&mut agg, &GnnMessage::Ref(7), &lookup)
            .unwrap_err();
        assert!(err.to_string().contains("broadcast ref to a ref"));
    }

    #[test]
    fn make_wire_respects_annotations_and_strategy() {
        let sage = sage_model();
        let gat = GnnModel::gat(4, 6, 2, 1, 3, false, 1);
        let raw = vec![1.0, 2.0];
        assert!(matches!(
            sage.layer_view(0).make_wire(raw.clone(), true),
            GnnMessage::Partial { .. }
        ));
        assert!(matches!(
            sage.layer_view(0).make_wire(raw.clone(), false),
            GnnMessage::Embedding(_)
        ));
        // GAT never partials, even with the strategy enabled.
        assert!(matches!(
            gat.layer_view(0).make_wire(raw, true),
            GnnMessage::Embedding(_)
        ));
    }
}
