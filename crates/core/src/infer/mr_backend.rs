//! The MapReduce backend (paper §IV-C-2).
//!
//! No state lives in worker memory between rounds: the Map phase computes
//! initial embeddings and fans them out, and each Reduce round `r`
//! performs layer `r-1` for every node, re-emitting the node's own updated
//! state as a **self-message** alongside the messages for its out-edge
//! neighbours. The shuffle therefore carries three record kinds per key
//! (self state, in-messages, broadcast-table entries), mirroring the
//! paper's "three kinds of information for each node".
//!
//! Broadcast tables ride reserved low keys (one per worker, routed by a
//! custom partition function); because reducers stream keys in ascending
//! order and node wire-ids carry the high [`NODE_FLAG`] bit, each worker's
//! table group arrives before any of its node groups in the same round.

use crate::gas::{GasLayer, GnnMessage, NodeCtx};
use crate::models::gas_impl::PoolRowAggregator;
use crate::models::GnnModel;
use crate::plan::{InferencePlan, Loadable};
use crate::strategy::{base_of, mirror_of, NodeRecord, StrategyConfig, NODE_FLAG};
use inferturbo_batch::{BatchEngine, KeyedData, PhaseCtx, RowSink, RowsView};
use inferturbo_common::codec::{
    f32_slice_len, varint_len, varint_seq_len, Decode, Encode, WireReader, WireWriter,
};
use inferturbo_common::hash::partition_of;
use inferturbo_common::rows::FusedAggregator;
use inferturbo_common::{Error, FxHashMap, Result};
use inferturbo_obs::TraceHandle;
use std::sync::Arc;

use super::InferenceOutput;

/// Shuffle record kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum MrRecord {
    /// The node's own state travelling to the next round. The out-edge
    /// table is behind an `Arc`: within a round it is re-emitted by handle
    /// (zero-copy plan reload); only the wire codec materialises it.
    SelfState {
        h: Vec<f32>,
        out_targets: Arc<[u64]>,
        in_deg: u32,
        out_deg: u32,
    },
    /// A message arriving via an in-edge.
    InMsg(GnnMessage),
    /// A broadcast-table entry for the destination worker.
    Bcast { src: u64, msg: GnnMessage },
    /// Final prediction logits (last round only).
    Output(Vec<f32>),
}

const TAG_SELF: u8 = 1;
const TAG_INMSG: u8 = 2;
const TAG_BCAST: u8 = 3;
const TAG_OUTPUT: u8 = 4;

impl Encode for MrRecord {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            MrRecord::SelfState {
                h,
                out_targets,
                in_deg,
                out_deg,
            } => {
                w.put_u8(TAG_SELF);
                w.put_f32_slice(h);
                w.put_varint(out_targets.len() as u64);
                for &t in out_targets.iter() {
                    w.put_varint(t);
                }
                w.put_varint(*in_deg as u64);
                w.put_varint(*out_deg as u64);
            }
            MrRecord::InMsg(m) => {
                w.put_u8(TAG_INMSG);
                m.encode(w);
            }
            MrRecord::Bcast { src, msg } => {
                w.put_u8(TAG_BCAST);
                w.put_varint(*src);
                msg.encode(w);
            }
            MrRecord::Output(l) => {
                w.put_u8(TAG_OUTPUT);
                w.put_f32_slice(l);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            MrRecord::SelfState {
                h,
                out_targets,
                in_deg,
                out_deg,
            } => {
                f32_slice_len(h.len())
                    + varint_seq_len(out_targets)
                    + varint_len(*in_deg as u64)
                    + varint_len(*out_deg as u64)
            }
            MrRecord::InMsg(m) => m.encoded_len(),
            MrRecord::Bcast { src, msg } => varint_len(*src) + msg.encoded_len(),
            MrRecord::Output(l) => f32_slice_len(l.len()),
        }
    }
}

impl Decode for MrRecord {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            TAG_SELF => {
                let h = r.get_f32_vec()?;
                let n = r.get_varint()? as usize;
                let mut out_targets = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    out_targets.push(r.get_varint()?);
                }
                let in_deg = r.get_varint_u32()?;
                let out_deg = r.get_varint_u32()?;
                Ok(MrRecord::SelfState {
                    h,
                    out_targets: out_targets.into(),
                    in_deg,
                    out_deg,
                })
            }
            TAG_INMSG => Ok(MrRecord::InMsg(GnnMessage::decode(r)?)),
            TAG_BCAST => Ok(MrRecord::Bcast {
                src: r.get_varint()?,
                msg: GnnMessage::decode(r)?,
            }),
            TAG_OUTPUT => Ok(MrRecord::Output(r.get_f32_vec()?)),
            tag => Err(Error::Codec(format!("unknown MrRecord tag {tag}"))),
        }
    }
}

/// Route reserved broadcast keys (no [`NODE_FLAG`]) to their literal
/// worker; hash everything else.
fn mr_partition(key: u64, n: usize) -> usize {
    if key & NODE_FLAG == 0 {
        (key as usize) % n
    } else {
        partition_of(key, n)
    }
}

/// Emit the scatter of `wire` for the layer `layer_idx` gather: non-hub
/// messages ride the batch engine's columnar plane as fixed-width rows (one
/// `memcpy` per edge, fused into per-key partials at the sender when the
/// layer's aggregate is associative). Hub broadcasts and their refs ride
/// the typed record plane — they are variable-width control traffic. A
/// layer that writes its message writes it into `buf`, the worker's spare.
#[allow(clippy::too_many_arguments)]
fn scatter_rows(
    model: &GnnModel,
    strategy: &StrategyConfig,
    bc_threshold: u64,
    workers: usize,
    layer_idx: usize,
    wire: u64,
    h: &[f32],
    out_targets: &[u64],
    out_deg: u32,
    ctx: &mut PhaseCtx,
    emit: &mut Vec<(u64, MrRecord)>,
    sink: &mut RowSink<'_>,
    buf: &mut Vec<f32>,
) {
    if out_targets.is_empty() {
        return;
    }
    let layer = model.layer_view(layer_idx);
    let raw = layer.edge_row(h, out_deg, buf);
    ctx.add_flops(layer.flops_apply_edge());
    if strategy.broadcasts(out_deg, bc_threshold) {
        let msg = layer.make_wire(raw.to_vec(), strategy.partial_gather);
        for w in 0..workers {
            emit.push((
                w as u64,
                MrRecord::Bcast {
                    src: wire,
                    msg: msg.clone(),
                },
            ));
        }
        for &t in out_targets {
            emit.push((t, MrRecord::InMsg(GnnMessage::Ref(wire))));
        }
    } else {
        for &t in out_targets {
            sink.send_row(t, raw);
        }
    }
}

/// Collect `Output` records from the final round into per-node logits.
/// Exactly one per node: a missing or a second `Output` is an invalid run.
fn harvest_logits(n_nodes: usize, data: KeyedData<MrRecord>) -> Result<Vec<Vec<f32>>> {
    let mut logits: Vec<Option<Vec<f32>>> = vec![None; n_nodes];
    for (key, rec) in data {
        if key & NODE_FLAG == 0 || mirror_of(key) != 0 {
            continue;
        }
        let MrRecord::Output(l) = rec else {
            return Err(Error::InvalidGraph(format!(
                "expected Output at {key}, got {rec:?}"
            )));
        };
        let node = base_of(key);
        let slot = logits
            .get_mut(node as usize)
            .ok_or_else(|| Error::InvalidGraph(format!("Output for unknown node {node}")))?;
        if slot.replace(l).is_some() {
            return Err(Error::InvalidGraph(format!(
                "node {node} has a second Output record"
            )));
        }
    }
    logits
        .into_iter()
        .enumerate()
        .map(|(v, l)| l.ok_or_else(|| Error::InvalidGraph(format!("node {v} missing logits"))))
        .collect::<Result<_>>()
}

/// Execute one planned MapReduce run over pre-built node records (the
/// execution stage of the session pipeline; planning already happened).
/// `features`, when given, replaces each record's raw input row. Records
/// are shuffled by reference — nothing is cloned per run beyond what the
/// rounds themselves emit.
///
/// Self-state, broadcast-table, and output records ride the typed record
/// plane; every per-edge GNN message is a fixed-width row on the columnar
/// plane, fused into per-key partial rows at the sender whenever the
/// layer's aggregate is annotated commutative/associative (the paper's
/// partial-aggregation strategy, executed without a single per-message
/// heap object); the reducer combines a key's partials with the same fold
/// before its kernel gathers them.
pub(crate) fn run_planned(
    plan: &InferencePlan<'_>,
    features: Option<&[Vec<f32>]>,
    trace: TraceHandle,
) -> Result<InferenceOutput> {
    let Loadable::MapReduce(records) = &plan.loadable else {
        return Err(Error::Internal(
            "a MapReduce plan is built with its records".into(),
        ));
    };
    let model = plan.model;
    let strategy = plan.strategy;
    let bc_threshold = plan.bc_threshold;
    let k = model.n_layers();
    let workers = plan.mapreduce_spec.workers;
    let mut eng = BatchEngine::new(plan.mapreduce_spec)
        .with_partition_fn(mr_partition)
        .with_trace(trace)
        .with_transport(Arc::clone(&plan.transport))
        .with_fault_injector(plan.faults.clone());
    let inputs = eng.scatter_inputs(records.iter().collect());

    let row_aggs: Vec<Option<PoolRowAggregator>> = (0..k)
        .map(|l| {
            if strategy.partial_gather {
                model.layer_view(l).row_aggregator()
            } else {
                None
            }
        })
        .collect();
    let agg_for = |l: usize| -> Option<&dyn FusedAggregator> {
        row_aggs.get(l)?.as_ref().map(|a| a as &dyn FusedAggregator)
    };
    let dim_of = |l: usize| model.layer_view(l).annotations().msg_dim;

    // --- Map: initial embeddings + layer-0 scatter ------------------------
    let (mut data, mut rows) = eng.map_phase(
        "map-init",
        &inputs,
        dim_of(0),
        |_w| {
            // The worker's spare message row.
            let mut buf = Vec::new();
            move |ctx: &mut PhaseCtx,
                  rec: &&NodeRecord,
                  sink: &mut RowSink<'_>,
                  emit: &mut Vec<(u64, MrRecord)>| {
                // h⁰ = raw features (initialisation step), or the fresh
                // features a serving caller handed to this run.
                let h0 = match features {
                    Some(f) => f[rec.base as usize].clone(),
                    None => rec.raw.clone(),
                };
                scatter_rows(
                    model,
                    &strategy,
                    bc_threshold,
                    workers,
                    0,
                    rec.wire,
                    &h0,
                    &rec.out_targets,
                    rec.out_deg,
                    ctx,
                    emit,
                    sink,
                    &mut buf,
                );
                emit.push((
                    rec.wire,
                    MrRecord::SelfState {
                        h: h0,
                        out_targets: rec.out_targets.clone(),
                        in_deg: rec.in_deg,
                        out_deg: rec.out_deg,
                    },
                ));
                Ok(())
            }
        },
        agg_for(0),
    )?;

    // --- k reduce rounds ----------------------------------------------------
    for r in 1..=k {
        let layer_idx = r - 1;
        let out_dim = if r == k { 0 } else { dim_of(r) };
        // Each worker's kernel owns a broadcast table for refs arriving
        // THIS round; reducers stream keys ascending, and bcast keys sort
        // before node keys, so the table fills before any node group.
        let make_reduce = |_w: usize| {
            let mut table: FxHashMap<u64, GnnMessage> = FxHashMap::default();
            // The worker's spare embedding row: `apply_node` writes into
            // it, then it trades places with the key's retired `h`.
            let mut spare: Vec<f32> = Vec::new();
            // The worker's spare message row, for layers that write one.
            let mut msg_buf: Vec<f32> = Vec::new();
            move |ctx: &mut PhaseCtx,
                  key: u64,
                  values: &mut Vec<MrRecord>,
                  view: RowsView<'_>,
                  sink: &mut RowSink<'_>,
                  emit: &mut Vec<(u64, MrRecord)>|
                  -> Result<()> {
                if key & NODE_FLAG == 0 {
                    // broadcast-table group for this worker
                    table.clear();
                    for v in values.drain(..) {
                        if let MrRecord::Bcast { src, msg } = v {
                            table.insert(src, msg);
                        }
                    }
                    debug_assert!(view.is_empty(), "rows never target control keys");
                    return Ok(());
                }
                let layer = model.layer_view(layer_idx);
                // A union takes one entry per row and per record but the
                // self-state: its list is sized once, one slot to spare.
                let mut agg = layer.init_agg(view.n_rows() + values.len());
                let mut self_at = None;
                // Columnar half first: rows fold with their counts — under
                // partial-gather the engine has already combined the key's
                // partials into one row. Rows and records are gathered
                // where they lie — the aggregate borrows `view`, `values`
                // and the table. Every shuffled partial counts as a message.
                let mut n_msgs = view.records;
                for i in 0..view.n_rows() {
                    layer.gather_row(&mut agg, view.row(i), view.counts[i]);
                }
                let lookup = |src: u64| table.get(&src);
                for (i, v) in values.iter().enumerate() {
                    match v {
                        MrRecord::SelfState { .. } => self_at = Some(i),
                        MrRecord::InMsg(m) => {
                            n_msgs += 1;
                            layer.gather_wire(&mut agg, m, &lookup)?;
                        }
                        other => {
                            return Err(Error::InvalidGraph(format!(
                                "unexpected record {other:?} at key {key}"
                            )));
                        }
                    }
                }
                let Some(MrRecord::SelfState {
                    h, in_deg, out_deg, ..
                }) = self_at.map(|i| &values[i])
                else {
                    return Err(Error::InvalidGraph(format!(
                        "node {key} lost its self-state record"
                    )));
                };
                let (in_deg, out_deg) = (*in_deg, *out_deg);
                let gathered = agg.count() as usize;
                let ctx_node = NodeCtx {
                    id: key,
                    state: h,
                    in_degree: in_deg,
                    out_degree: out_deg,
                    own_msg: &[],
                };
                layer.apply_node(&ctx_node, agg, &mut spare);
                ctx.add_flops(
                    layer.flops_apply_node(gathered)
                        + n_msgs as f64 * layer.flops_aggregate_per_message(),
                );
                if r == k {
                    ctx.add_flops(model.flops_head());
                    emit.push((key, MrRecord::Output(model.apply_head(&spare))));
                } else {
                    // The gather is done with `values`: the self-state
                    // moves out whole, its `h` in as the next spare.
                    let Some(MrRecord::SelfState { h, out_targets, .. }) =
                        self_at.map(|i| values.swap_remove(i))
                    else {
                        return Err(Error::Internal("the self-state record moved".into()));
                    };
                    let h_new = std::mem::replace(&mut spare, h);
                    scatter_rows(
                        model,
                        &strategy,
                        bc_threshold,
                        workers,
                        r,
                        key,
                        &h_new,
                        &out_targets,
                        out_deg,
                        ctx,
                        emit,
                        sink,
                        &mut msg_buf,
                    );
                    emit.push((
                        key,
                        MrRecord::SelfState {
                            h: h_new,
                            out_targets,
                            in_deg,
                            out_deg,
                        },
                    ));
                }
                Ok(())
            }
        };
        let next_agg = if r == k { None } else { agg_for(r) };
        (data, rows) = eng.reduce_phase(
            format!("reduce-{r}"),
            data,
            rows,
            out_dim,
            make_reduce,
            next_agg,
        )?;
    }
    debug_assert!(rows.is_empty(), "last round emits no rows");

    let logits = harvest_logits(plan.graph.n_nodes(), data)?;
    Ok(InferenceOutput {
        logits,
        report: eng.into_report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PoolOp;
    use crate::session::{Backend, InferenceSession};
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};

    /// The zero-copy plan reload contract on MapReduce: repeated runs ship
    /// every planned record's self-state with the record's own adjacency
    /// `Arc` — nothing re-clones the O(V+E) target lists per run, and no
    /// run keeps a handle alive after it returns.
    #[test]
    fn plan_runs_share_the_same_out_targets_arc() {
        let g = generate(&GenConfig {
            n_nodes: 120,
            n_edges: 700,
            feat_dim: 5,
            classes: 3,
            skew: DegreeSkew::Out,
            seed: 77,
            ..GenConfig::default()
        });
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 2);
        let plan = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .strategy(StrategyConfig::all().with_threshold(5))
            .backend(Backend::MapReduce)
            .plan()
            .unwrap();
        let Loadable::MapReduce(records) = &plan.loadable else {
            panic!("a MapReduce plan holds its records");
        };
        // Hold independent handles to every record's adjacency before any
        // run.
        let before: Vec<Arc<[u64]>> = records.iter().map(|r| Arc::clone(&r.out_targets)).collect();
        assert!(before.len() > g.n_nodes(), "mirrors must engage");
        let a = plan.run().unwrap();
        let b = plan.run().unwrap();
        assert_eq!(a.logits, b.logits);
        // Two runs later the plan still holds the very same allocations...
        for (h, rec) in before.iter().zip(records) {
            assert!(
                Arc::ptr_eq(h, &rec.out_targets),
                "run must not replace the adjacency Arc"
            );
        }
        // ...and nothing else kept a clone alive: each Arc has exactly our
        // probe handle plus the record's own.
        for h in &before {
            assert_eq!(
                Arc::strong_count(h),
                2,
                "a run leaked or deep-copied an adjacency Arc"
            );
        }
    }

    #[test]
    fn mr_record_codec_roundtrip() {
        let records = vec![
            MrRecord::SelfState {
                h: vec![1.0, 2.0],
                out_targets: vec![NODE_FLAG | 5, NODE_FLAG | 9].into(),
                in_deg: 3,
                out_deg: 2,
            },
            MrRecord::InMsg(GnnMessage::Embedding(vec![0.5])),
            MrRecord::Bcast {
                src: NODE_FLAG | 1,
                msg: GnnMessage::Partial {
                    acc: vec![1.0],
                    count: 4,
                },
            },
            MrRecord::Output(vec![0.1, 0.9]),
        ];
        for r in records {
            assert_eq!(MrRecord::from_bytes(&r.to_bytes()).unwrap(), r);
        }
        assert!(MrRecord::from_bytes(&[99]).is_err());
    }

    #[test]
    fn self_state_decode_rejects_degrees_beyond_u32() {
        let frame = |in_deg: u64, out_deg: u64| {
            let mut w = WireWriter::new();
            w.put_u8(TAG_SELF);
            w.put_f32_slice(&[1.0]);
            w.put_varint(0);
            w.put_varint(in_deg);
            w.put_varint(out_deg);
            w.into_bytes()
        };
        assert!(matches!(
            MrRecord::from_bytes(&frame(u32::MAX as u64, 0)).unwrap(),
            MrRecord::SelfState {
                in_deg: u32::MAX,
                out_deg: 0,
                ..
            }
        ));
        // Under an `as u32` cast 2^32 would silently decode as 0.
        for bytes in [frame(1 << 32, 0), frame(0, 1 << 32), frame(u64::MAX, 0)] {
            let err = MrRecord::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "{err:?}");
        }
    }

    #[test]
    fn harvest_rejects_a_second_output_for_one_node() {
        let outputs = |copies: usize| {
            let mut eng = BatchEngine::new(inferturbo_cluster::ClusterSpec::test_spec(2));
            let parts = eng.scatter_inputs(vec![NODE_FLAG; copies]);
            let make = |_w| {
                |_: &mut PhaseCtx,
                 &key: &u64,
                 _: &mut RowSink<'_>,
                 out: &mut Vec<(u64, MrRecord)>| {
                    out.push((key, MrRecord::Output(vec![1.0])));
                    Ok(())
                }
            };
            eng.map_phase("out", &parts, 0, make, None).unwrap().0
        };
        assert_eq!(harvest_logits(1, outputs(1)).unwrap(), vec![vec![1.0]]);
        let err = harvest_logits(1, outputs(2)).unwrap_err();
        assert!(matches!(err, Error::InvalidGraph(_)), "{err:?}");
        assert!(err.to_string().contains("second Output"), "{err}");
    }

    #[test]
    fn partition_routes_bcast_keys_literally() {
        for w in 0..8u64 {
            assert_eq!(mr_partition(w, 8), w as usize);
        }
        // node keys use the hash route
        let k = NODE_FLAG | 12345;
        assert_eq!(mr_partition(k, 8), partition_of(k, 8));
    }
}
