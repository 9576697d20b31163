//! The InferTurbo GAS-like abstraction (paper §IV-B).
//!
//! A GNN layer is described by five stages. Two are **data flow** and are
//! built into the backends, exactly as the paper prescribes:
//!
//! - `gather_nbrs` — receive messages via in-edges and vectorise them;
//! - `scatter_nbrs` — send messages via out-edges.
//!
//! Three are **computation flow** and are implemented per layer through the
//! [`GasLayer`] trait:
//!
//! - `aggregate` — pre-reduce incoming messages. The paper's rule: the
//!   computation placed here must obey the commutative and associative
//!   laws (sum/mean/max/min/union); anything else belongs in `apply_node`.
//!   The [`LayerAnnotations::partial_gather`] flag is the machine-readable
//!   form of the `@Gather(partial=...)` decorator, and it is what licenses
//!   sender-side combining (the partial-gather strategy).
//! - `apply_node` — update the node state from its previous state and the
//!   gathered aggregate.
//! - `apply_edge` — turn the updated state into the message for an
//!   out-edge.
//!
//! A **message is an `apply_edge` output**, and it is a function of the
//! source alone: its updated state and its logical out-degree. The paper's
//! schema lets `apply_edge` mix in edge features; no layer here has any,
//! and the engines depend on their absence. Because a node's message is
//! the same on every one of its out-edges, both backends call
//! [`GasLayer::edge_row`] once per *node* and ship that row to every
//! out-edge, and the broadcast strategy (one payload per worker, a
//! reference per edge) applies to every layer without asking it. Whatever
//! can be computed from the source is computed there: the paper's vertex
//! "forwards the associated layer … and then sends the updated
//! information via out-edges". For GAT that is the projection `W·h_src`,
//! so the receiver never re-projects. Nor, on the Pregel backend, does
//! the node itself: GAT's destination attention needs the node's own
//! `W·h`, which is the row it scattered one step earlier, lent back to
//! `apply_node` as [`NodeCtx::own_msg`] from where the engine wrote it. The receiver gathers
//! its rows where they lie ([`AggState::Union`] is a list of rows, one
//! per message, each lent where it lies unless its caller handed it
//! over).
//! `Backend::Reference` deliberately keeps calling `apply_edge` once per
//! *edge*: it is the oracle the backends are compared against, so it
//! shares the kernels but none of the once-per-node data flow.
//!
//! [`GnnMessage`] is the on-the-wire envelope: a partially-aggregated
//! payload, an unreduced message row (union-aggregated layers such as
//! GAT), or a reference to a broadcast payload (the large-out-degree
//! strategy).

use inferturbo_common::codec::{f32_slice_len, varint_len, Decode, Encode, WireReader, WireWriter};
use inferturbo_common::{Error, Result};
use std::borrow::Cow;

/// Machine-readable layer annotations — the paper's decorator metadata,
/// persisted into model signatures so inference needs no manual config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerAnnotations {
    /// `@Gather(partial=true)`: `aggregate` is commutative + associative,
    /// so partial aggregates may be computed sender-side and merged in any
    /// grouping.
    pub partial_gather: bool,
    /// Input embedding width.
    pub in_dim: usize,
    /// Output embedding width.
    pub out_dim: usize,
    /// Message width on the wire: the length of an `apply_edge` output.
    /// `in_dim` where the layer ships the embedding itself (GCN, SAGE),
    /// `out_dim` where it ships the source-side projection (GAT).
    pub msg_dim: usize,
    /// `apply_node` reads the node's own message ([`NodeCtx::own_msg`]):
    /// GAT's destination attention is `a_dst · W·h_self`, the very `W·h`
    /// the node ships. A backend still holding the node's `apply_edge`
    /// output for the layer may lend it instead of letting the layer
    /// recompute it.
    pub reads_own_msg: bool,
}

/// Node-side context available to `apply_node`.
///
/// Degrees are **logical** (whole-graph) degrees: graph transforms such as
/// shadow-nodes change a node's physical adjacency but must not change its
/// mathematics, so normalisations read these fields, never the physical
/// edge lists.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    pub id: u64,
    /// Current (pre-update) embedding of the node.
    pub state: &'a [f32],
    pub in_degree: u32,
    pub out_degree: u32,
    /// The node's own `apply_edge` output for this layer (the message it
    /// sent one step earlier, from `state`), when the backend still holds
    /// it — the Pregel backend lends the row the node sent on the
    /// materialized row plane, out of its worker's row table. Empty
    /// otherwise (a hub's broadcast, a node with no out-edges, the other
    /// backends), and a layer that needs it computes it from `state`: bit
    /// for bit the same.
    pub own_msg: &'a [f32],
}

/// Gather-stage accumulator.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState<'a> {
    /// Element-wise pooled aggregate. `acc` empty means "identity element"
    /// (no message folded yet); `count` tracks contributions for mean
    /// normalisation. Sum/mean/max all share this shape — the layer's
    /// `merge_agg` knows which fold applies.
    ///
    /// The first partial is *lent*: a vertex whose whole neighbourhood
    /// arrived as one row — the engine's merged fused accumulator, a lone
    /// broadcast payload — aggregates and applies without that row ever
    /// being copied. `acc` becomes owned only when a second partial has
    /// to fold into it (materialized rows, typed refs beside the rows):
    /// under partial-gather both engines lend one folded row per vertex.
    Pooled { acc: Cow<'a, [f32]>, count: u32 },
    /// Unreduced union of messages in delivery order (layers whose reduce
    /// breaks the commutative/associative rule, e.g. GAT attention): one
    /// entry per message, each a `dim`-wide `apply_edge` output — for GAT
    /// the already-projected `W·h_src`. Nothing is copied to gather: a
    /// materialized inbox row, a broadcast ref's payload in the broadcast
    /// table, a MapReduce shuffle row are each lent where they lie; a row
    /// is owned only when its caller handed the message over
    /// ([`GasLayer::aggregate`]). The list is sized once, to the message
    /// count the caller passes [`GasLayer::init_agg`].
    Union {
        dim: usize,
        rows: Vec<Cow<'a, [f32]>>,
    },
}

impl AggState<'_> {
    /// Number of messages folded into this aggregate.
    pub fn count(&self) -> u32 {
        match self {
            AggState::Pooled { count, .. } => *count,
            // Zero-width rows carry nothing to count.
            AggState::Union { dim: 0, .. } => 0,
            AggState::Union { rows, .. } => rows.len() as u32,
        }
    }
}

/// A GNN layer's computation flow in the GAS abstraction. One
/// implementation serves both backends; the training path shares the same
/// parameters through the tape builders in [`crate::models`].
pub trait GasLayer {
    fn annotations(&self) -> LayerAnnotations;

    /// The identity aggregate, for a gather of `n_msgs` messages — the
    /// count the caller already knows (the inbox's length, the shuffle
    /// group's size, the in-degree). A union reserves exactly that many
    /// rows, so gathering them never regrows its list; a pooled aggregate
    /// ignores it.
    fn init_agg<'a>(&self, n_msgs: usize) -> AggState<'a>;

    /// Fold one raw message (an `apply_edge` output) into the aggregate.
    fn aggregate(&self, acc: &mut AggState<'_>, msg: Vec<f32>);

    /// Merge a partial aggregate produced elsewhere (sender-side combining
    /// or another worker). Only called when `partial_gather` is annotated.
    fn merge_agg<'a>(&self, acc: &mut AggState<'a>, other: AggState<'a>);

    /// Update the node embedding from its previous state and the gathered
    /// aggregate, into `out` (cleared first): the caller hands in a buffer
    /// it already owns — a vertex's retired row, a worker's spare — so a
    /// vertex step allocates no embedding of its own.
    fn apply_node(&self, node: &NodeCtx<'_>, agg: AggState<'_>, out: &mut Vec<f32>);

    /// Produce the message a node sends along each of its out-edges from
    /// the updated state and its logical out-degree (GCN's normalisation
    /// reads it), as a buffer of its own: [`GasLayer::edge_row`] on a fresh
    /// buffer, which is handed over as written (a lent `state` is copied).
    fn apply_edge(&self, state: &[f32], src_out_degree: u32) -> Vec<f32> {
        let mut buf = Vec::new();
        let row = self.edge_row(state, src_out_degree, &mut buf);
        if std::ptr::eq(row, state) {
            return state.to_vec();
        }
        buf
    }

    /// The message sent along each out-edge from the updated state, for a
    /// caller that only reads it (a scatter sending it as a row)
    /// or keeps it where it chooses: a layer whose message *is* the state
    /// lends `state`; any other writes it into `buf` (cleared first) and
    /// lends that — a caller that hands in the same buffer every step, such
    /// as a worker's spare row, allocates once.
    fn edge_row<'s>(
        &self,
        state: &'s [f32],
        src_out_degree: u32,
        buf: &'s mut Vec<f32>,
    ) -> &'s [f32];

    /// Cost-model estimate: FLOPs for one `apply_node` given the number of
    /// gathered messages.
    fn flops_apply_node(&self, n_messages: usize) -> f64;

    /// Cost-model estimate: FLOPs to fold one message in `aggregate`.
    fn flops_aggregate_per_message(&self) -> f64;

    /// Cost-model estimate: FLOPs for one `apply_edge`.
    fn flops_apply_edge(&self) -> f64;
}

/// On-the-wire message envelope exchanged between vertices.
#[derive(Debug, Clone, PartialEq)]
pub enum GnnMessage {
    /// Partially aggregated payload (partial-gather path). `count` carries
    /// the number of folded raw messages so mean aggregation stays exact.
    Partial { acc: Vec<f32>, count: u32 },
    /// One unreduced `apply_edge` output (union-aggregated layers, or
    /// partial-gather disabled).
    Embedding(Vec<f32>),
    /// Reference to a broadcast payload published by vertex `0`'s wire id —
    /// the large-out-degree strategy sends one payload per worker plus one
    /// of these per edge.
    Ref(u64),
}

impl GnnMessage {
    /// Payload width in f32 lanes (0 for refs).
    pub fn width(&self) -> usize {
        match self {
            GnnMessage::Partial { acc, .. } => acc.len(),
            GnnMessage::Embedding(v) => v.len(),
            GnnMessage::Ref(_) => 0,
        }
    }
}

const TAG_PARTIAL: u8 = 1;
const TAG_EMBEDDING: u8 = 2;
const TAG_REF: u8 = 3;

impl Encode for GnnMessage {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            GnnMessage::Partial { acc, count } => {
                w.put_u8(TAG_PARTIAL);
                w.put_varint(*count as u64);
                w.put_f32_slice(acc);
            }
            GnnMessage::Embedding(v) => {
                w.put_u8(TAG_EMBEDDING);
                w.put_f32_slice(v);
            }
            GnnMessage::Ref(src) => {
                w.put_u8(TAG_REF);
                w.put_varint(*src);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            GnnMessage::Partial { acc, count } => {
                varint_len(*count as u64) + f32_slice_len(acc.len())
            }
            GnnMessage::Embedding(v) => f32_slice_len(v.len()),
            GnnMessage::Ref(src) => varint_len(*src),
        }
    }
}

impl Decode for GnnMessage {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            TAG_PARTIAL => {
                let count = r.get_varint_u32()?;
                let acc = r.get_f32_vec()?;
                Ok(GnnMessage::Partial { acc, count })
            }
            TAG_EMBEDDING => Ok(GnnMessage::Embedding(r.get_f32_vec()?)),
            TAG_REF => Ok(GnnMessage::Ref(r.get_varint()?)),
            tag => Err(Error::Codec(format!("unknown GnnMessage tag {tag}"))),
        }
    }
}

/// Element-wise fold used by pooled aggregates; shared by layer impls
/// and the fused row aggregator so the two can never disagree. The first
/// message becomes the accumulator as it is — borrowed or owned, never
/// copied; a later one makes the accumulator owned and folds through the
/// 8-wide-unrolled row kernels (`row_axpy` / `row_max`), which are
/// bit-identical to the scalar loops — lanes are independent.
pub fn pooled_fold<'a>(
    op: crate::models::PoolOp,
    acc: &mut Cow<'a, [f32]>,
    count: &mut u32,
    msg: Cow<'a, [f32]>,
    msg_count: u32,
) {
    use crate::models::PoolOp;
    if acc.is_empty() {
        *acc = msg;
        *count = msg_count;
        return;
    }
    debug_assert_eq!(acc.len(), msg.len(), "pooled fold width mismatch");
    match op {
        PoolOp::Sum | PoolOp::Mean => inferturbo_tensor::row_axpy(acc.to_mut(), &msg, 1.0),
        PoolOp::Max => inferturbo_tensor::row_max(acc.to_mut(), &msg),
    }
    *count += msg_count;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PoolOp;
    use proptest::prelude::*;

    #[test]
    fn message_roundtrip() {
        let msgs = vec![
            GnnMessage::Partial {
                acc: vec![1.0, -2.5],
                count: 7,
            },
            GnnMessage::Embedding(vec![0.5; 9]),
            GnnMessage::Ref(u64::MAX),
            GnnMessage::Embedding(vec![]),
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(bytes.len(), m.encoded_len(), "encoded_len exact for {m:?}");
            assert_eq!(GnnMessage::from_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn message_decode_rejects_garbage() {
        assert!(GnnMessage::from_bytes(&[9, 1, 2]).is_err());
        assert!(GnnMessage::from_bytes(&[]).is_err());
    }

    #[test]
    fn ref_is_tiny_on_the_wire() {
        let embedding = GnnMessage::Embedding(vec![0.0; 64]);
        let r = GnnMessage::Ref(123456);
        assert!(r.encoded_len() * 10 < embedding.encoded_len());
    }

    #[test]
    fn pooled_fold_sum_and_max() {
        let first = [1.0, 2.0];
        let (mut acc, mut count) = (Cow::Borrowed(&[][..]), 0u32);
        pooled_fold(PoolOp::Sum, &mut acc, &mut count, Cow::Borrowed(&first), 1);
        // The first partial is lent, not copied ...
        assert!(matches!(acc, Cow::Borrowed(_)));
        pooled_fold(PoolOp::Sum, &mut acc, &mut count, vec![3.0, -1.0].into(), 2);
        // ... and the lender is untouched when a second one folds.
        assert_eq!(acc, vec![4.0, 1.0]);
        assert_eq!(first, [1.0, 2.0]);
        assert_eq!(count, 3);

        let (mut acc, mut count) = (Cow::Borrowed(&[][..]), 0u32);
        pooled_fold(PoolOp::Max, &mut acc, &mut count, vec![1.0, 5.0].into(), 1);
        pooled_fold(PoolOp::Max, &mut acc, &mut count, vec![3.0, -1.0].into(), 1);
        assert_eq!(acc, vec![3.0, 5.0]);
        assert_eq!(count, 2);
    }

    proptest! {
        /// The annotation contract: pooled folds must be commutative and
        /// associative up to float tolerance — fold order must not change
        /// the aggregate materially.
        #[test]
        fn prop_pooled_fold_order_independent(
            msgs in proptest::collection::vec(
                proptest::collection::vec(-10.0f32..10.0, 4), 1..8),
            op_sel in 0u8..3,
        ) {
            let op = match op_sel { 0 => PoolOp::Sum, 1 => PoolOp::Mean, _ => PoolOp::Max };
            let fold_all = |order: &[usize]| {
                let (mut acc, mut count) = (Cow::Borrowed(&[][..]), 0u32);
                for &i in order {
                    pooled_fold(op, &mut acc, &mut count, Cow::Borrowed(&msgs[i]), 1);
                }
                (acc, count)
            };
            let fwd: Vec<usize> = (0..msgs.len()).collect();
            let rev: Vec<usize> = (0..msgs.len()).rev().collect();
            let (a1, c1) = fold_all(&fwd);
            let (a2, c2) = fold_all(&rev);
            prop_assert_eq!(c1, c2);
            for (x, y) in a1.iter().zip(a2.iter()) {
                prop_assert!((x - y).abs() < 1e-4, "fold order changed result: {} vs {}", x, y);
            }
        }

        #[test]
        fn prop_message_roundtrip(v in proptest::collection::vec(-1e3f32..1e3, 0..64), c in 0u32..1000) {
            let m = GnnMessage::Partial { acc: v, count: c };
            prop_assert_eq!(GnnMessage::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }
}
