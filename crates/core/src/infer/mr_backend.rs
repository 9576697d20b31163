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
//! Where the graph lives: a MapReduce plan holds the graph as a Pregel
//! plan does — the shared [`Layout`] (placement, the id index, every
//! out-target resolved to a [`Route`]), its cell counts and each node's
//! logical degrees — plus what only this backend counts (`MapSplit`):
//! the map phase's cells, every task's typed output and each vertex's
//! target-list wire length. The layout is read-only plan data, like the
//! graph, so the stateless rounds stand: the shuffle still carries every
//! self-state every round. The map task for load position `p` runs on
//! mapper `p % workers` and reads the vertex's raw features where they lie,
//! in the graph or the serving caller's matrix.
//!
//! Keys: a message row is bound for its destination's route, so it lands
//! in that reducer's shard under the destination's slot, and reducers group
//! rows by slot with the Pregel backend's destination merge (see
//! [`inferturbo_batch`]). Partial-gather is one strategy on both backends:
//! a layer's fold is its [`crate::models::PoolOp::agg_kind`], which the
//! mappers and reducers of one round run exactly as Pregel's senders and
//! destinations do. The typed plane keeps wire-id
//! keys: a self-state is keyed by its vertex's id and holds a [`Span`], a
//! handle to the vertex's routes in the layout, which encodes as the
//! vertex's target ids. The byte accounting charges what a deployment
//! ships: a row its destination's wire id as its key, a self-state its
//! target ids, from the per-vertex length the plan counted once.
//!
//! Broadcast tables ride reserved low keys (one per worker, routed by a
//! custom partition function); because reducers stream keys in ascending
//! order and node wire-ids carry the high [`NODE_FLAG`] bit, each worker's
//! table group arrives before any of its node groups in the same round.

use crate::gas::{GasLayer, GnnMessage, NodeCtx};
use crate::models::GnnModel;
use crate::plan::{InferencePlan, Laid, Loadable};
use crate::strategy::{base_of, mirror_of, StrategyConfig, NODE_FLAG};
use inferturbo_batch::{BatchEngine, KeyedData, PhaseCtx, RowSink, RowsIn, Shuffled, Sizes};
use inferturbo_common::codec::{f32_slice_len, varint_len, Encode, WireReader, WireWriter};
use inferturbo_common::hash::partition_of;
use inferturbo_common::layout::{CellCounts, Layout, Route};
use inferturbo_common::{Error, FxHashMap, Result};
use inferturbo_graph::Graph;
use inferturbo_obs::TraceHandle;
use std::borrow::Cow;
use std::sync::Arc;

use super::InferenceOutput;

/// What a MapReduce plan counts once beside the layout, so that every
/// buffer of a run is reserved exactly.
pub(crate) struct MapSplit {
    /// Where each vertex lives, by load position: the map task for
    /// position `p` runs on mapper `p % workers`.
    placed: Vec<Route>,
    /// The map phase's row cells, its senders the mappers.
    pub(crate) cells: CellCounts,
    /// Typed records each mapper emits.
    pub(crate) typed_map: Vec<usize>,
    /// Typed records each reducer emits in a round that scatters.
    pub(crate) typed_reduce: Vec<usize>,
    /// Typed records each reducer emits in the last round: one output per
    /// vertex it holds.
    pub(crate) outputs: Vec<usize>,
    /// Per load position: the wire bytes of the vertex's target ids, count
    /// varint included — what its input record and every self-state it
    /// ships are charged for them.
    pub(crate) target_lens: Vec<u32>,
}

impl MapSplit {
    /// Count a MapReduce run's buffers from `layout` under the hub rule,
    /// `hub(p)` telling whether the vertex loaded at `p` broadcasts.
    pub(crate) fn plan(layout: &Layout, hub: impl Fn(usize) -> bool) -> Result<Self> {
        let n = layout.n_workers();
        let mut typed_map = vec![0usize; n];
        let mut typed_reduce = vec![0usize; n];
        let placed = layout.placements();
        let mut target_lens = Vec::with_capacity(placed.len());
        for (p, &route) in placed.iter().enumerate() {
            let edges = layout.edges(route);
            // A self-state, and from a hub that scatters one broadcast
            // entry per worker plus one ref per edge.
            let typed = 1 + if !edges.is_empty() && hub(p) {
                n + edges.len()
            } else {
                0
            };
            typed_map[p % n] += typed;
            typed_reduce[layout.unpack(route).0] += typed;
            target_lens.push(Span::new(layout, route)?.wire_len);
        }
        Ok(MapSplit {
            cells: layout.split_cell_counts(&placed, &hub),
            placed,
            typed_map,
            typed_reduce,
            outputs: (0..n).map(|w| layout.n_slots(w)).collect(),
            target_lens,
        })
    }
}

/// A self-state's out-edges: the layout's own span of routes for its
/// vertex, lent for the run, and the wire bytes its target ids encode to.
/// On the wire it is the target list a deployment ships — a count, then
/// every target's id — and it decodes back into the same span.
#[derive(Clone, Copy)]
pub struct Span<'l> {
    layout: &'l Layout,
    edges: &'l [Route],
    wire_len: u32,
}

impl<'l> Span<'l> {
    /// The span of the vertex `route` leads to, its wire length counted.
    pub fn new(layout: &'l Layout, route: Route) -> Result<Self> {
        let edges = layout.edges(route);
        let len = varint_len(edges.len() as u64)
            + edges
                .iter()
                .map(|&t| varint_len(layout.id_of(t)))
                .sum::<usize>();
        let wire_len = u32::try_from(len)
            .map_err(|_| Error::Capacity(format!("{len} bytes of target ids for one vertex")))?;
        Ok(Span {
            layout,
            edges,
            wire_len,
        })
    }

    /// The vertex's planned out-edges, as the layout holds them.
    pub fn edges(&self) -> &'l [Route] {
        self.edges
    }

    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.edges.len() as u64);
        for &t in self.edges {
            w.put_varint(self.layout.id_of(t));
        }
    }

    /// Read the target list of `key`'s self-state back into its span: it
    /// must name exactly the targets the layout plans for the vertex.
    fn decode(key: u64, r: &mut WireReader<'_>, layout: &'l Layout) -> Result<Self> {
        let mismatch = || Error::Codec(format!("self-state of {key} does not match the layout"));
        let edges = layout.edges(layout.resolve(key).ok_or_else(mismatch)?);
        let before = r.remaining();
        if r.get_varint()? != edges.len() as u64 {
            return Err(mismatch());
        }
        for &t in edges {
            if r.get_varint()? != layout.id_of(t) {
                return Err(mismatch());
            }
        }
        Ok(Span {
            layout,
            edges,
            wire_len: u32::try_from(before - r.remaining()).map_err(|_| mismatch())?,
        })
    }
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("edges", &self.edges.len())
            .field("wire_len", &self.wire_len)
            .finish()
    }
}

impl PartialEq for Span<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.layout, other.layout)
            && self.edges == other.edges
            && self.wire_len == other.wire_len
    }
}

/// Shuffle record kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum MrRecord<'l> {
    /// The node's own state travelling to the next round: its embedding —
    /// the raw features lent in place for the map round's `h⁰` — and its
    /// out-edges, by handle into the layout.
    SelfState {
        h: Cow<'l, [f32]>,
        span: Span<'l>,
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

impl Encode for MrRecord<'_> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            MrRecord::SelfState {
                h,
                span,
                in_deg,
                out_deg,
            } => {
                w.put_u8(TAG_SELF);
                w.put_f32_slice(h);
                span.encode(w);
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
                span,
                in_deg,
                out_deg,
            } => {
                f32_slice_len(h.len())
                    + span.wire_len as usize
                    + varint_len(*in_deg as u64)
                    + varint_len(*out_deg as u64)
            }
            MrRecord::InMsg(m) => m.encoded_len(),
            MrRecord::Bcast { src, msg } => varint_len(*src) + msg.encoded_len(),
            MrRecord::Output(l) => f32_slice_len(l.len()),
        }
    }
}

impl<'l> Shuffled<'l> for MrRecord<'l> {
    fn decode_keyed(key: u64, r: &mut WireReader<'_>, layout: &'l Layout) -> Result<Self> {
        use inferturbo_common::codec::Decode;
        match r.get_u8()? {
            TAG_SELF => {
                let h = r.get_f32_vec()?;
                let span = Span::decode(key, r, layout)?;
                let in_deg = r.get_varint_u32()?;
                let out_deg = r.get_varint_u32()?;
                Ok(MrRecord::SelfState {
                    h: Cow::Owned(h),
                    span,
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
/// worker; hash everything else — node ids to the worker the layout
/// places them on.
fn mr_partition(key: u64, n: usize) -> usize {
    if key & NODE_FLAG == 0 {
        (key as usize) % n
    } else {
        partition_of(key, n)
    }
}

/// What one run reads its vertices from: the plan's layout and degrees,
/// and the raw features where they lie.
struct Loaded<'l> {
    graph: &'l Graph,
    features: Option<&'l [Vec<f32>]>,
    laid: &'l Laid,
    split: &'l MapSplit,
}

/// The vertex loaded at one position, as its map task reads it.
struct MapInput<'l> {
    id: u64,
    raw: &'l [f32],
    span: Span<'l>,
    in_deg: u32,
    out_deg: u32,
}

impl<'l> Loaded<'l> {
    fn vertex(&self, position: usize) -> MapInput<'l> {
        let layout: &'l Layout = &self.laid.layout;
        let route = self.split.placed[position];
        let id = layout.id_of(route);
        let base = base_of(id) as usize;
        MapInput {
            id,
            raw: match self.features {
                Some(f) => &f[base],
                None => self.graph.node_feat(base as u32),
            },
            span: Span {
                layout,
                edges: layout.edges(route),
                wire_len: self.split.target_lens[position],
            },
            in_deg: self.laid.in_deg[base],
            out_deg: self.laid.out_deg[base],
        }
    }
}

impl MapInput<'_> {
    /// The encoded bytes of the vertex's input record: its id, node, raw
    /// features, target ids and degrees.
    fn record_len(&self, feat_dim: usize) -> u64 {
        (varint_len(self.id)
            + varint_len(base_of(self.id) as u64)
            + f32_slice_len(feat_dim)
            + self.span.wire_len as usize
            + varint_len(self.in_deg as u64)
            + varint_len(self.out_deg as u64)) as u64
    }
}

/// Emit the scatter of `wire` for the layer `layer_idx` gather: non-hub
/// messages ride the batch engine's columnar plane as fixed-width rows,
/// scattered over the vertex's span of routes (fused into per-slot
/// partials at the sender when the layer's aggregate is associative). Hub
/// broadcasts and their refs ride the typed record plane, keyed by wire id
/// — they are variable-width control traffic. A layer that writes its
/// message writes it into `buf`, the worker's spare.
#[expect(
    clippy::too_many_arguments,
    reason = "one vertex's scatter reads the plan, the vertex and both output planes"
)]
fn scatter_rows(
    model: &GnnModel,
    strategy: &StrategyConfig,
    bc_threshold: u64,
    layout: &Layout,
    layer_idx: usize,
    wire: u64,
    h: &[f32],
    edges: &[Route],
    out_deg: u32,
    ctx: &mut PhaseCtx,
    emit: &mut Vec<(u64, MrRecord<'_>)>,
    sink: &mut RowSink<'_>,
    buf: &mut Vec<f32>,
) {
    if edges.is_empty() {
        return;
    }
    let layer = model.layer_view(layer_idx);
    let raw = layer.edge_row(h, out_deg, buf);
    ctx.add_flops(layer.flops_apply_edge());
    if strategy.broadcasts(out_deg, bc_threshold) {
        let msg = layer.make_wire(raw.to_vec(), strategy.partial_gather);
        for w in 0..layout.n_workers() {
            emit.push((
                w as u64,
                MrRecord::Bcast {
                    src: wire,
                    msg: msg.clone(),
                },
            ));
        }
        for &t in edges {
            emit.push((layout.id_of(t), MrRecord::InMsg(GnnMessage::Ref(wire))));
        }
    } else {
        sink.scatter_row(edges, raw);
    }
}

/// Collect `Output` records from the final round into per-node logits.
/// Exactly one per node: a missing or a second `Output` is an invalid run.
fn harvest_logits(n_nodes: usize, data: KeyedData<MrRecord<'_>>) -> Result<Vec<Vec<f32>>> {
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

/// What a run loads from a MapReduce plan, or the typed error a plan of
/// another backend gets.
fn loaded<'l>(plan: &'l InferencePlan<'_>, features: Option<&'l [Vec<f32>]>) -> Result<Loaded<'l>> {
    let Loadable::MapReduce(laid, split) = &plan.loadable else {
        return Err(Error::Internal(
            "a MapReduce plan is built with its layout".into(),
        ));
    };
    Ok(Loaded {
        graph: plan.graph,
        features,
        laid,
        split,
    })
}

/// Execute one planned MapReduce run over the plan's layout (the
/// execution stage of the session pipeline; planning already happened).
/// `features`, when given, replaces each node's raw input row. Nothing of
/// the graph is cloned per run: map tasks read features and routes where
/// they lie, and every buffer is reserved from the plan's counts.
///
/// Self-state, broadcast-table, and output records ride the typed record
/// plane; every per-edge GNN message is a fixed-width row on the columnar
/// plane, fused into per-slot partial rows at the sender whenever the
/// layer's aggregate is annotated commutative/associative (the paper's
/// partial-aggregation strategy, executed without a single per-message
/// heap object); the reducer merges a key's partials with the same fold,
/// in ascending mapper order, before its kernel gathers them.
pub(crate) fn run_planned<'p>(
    plan: &'p InferencePlan<'_>,
    features: Option<&'p [Vec<f32>]>,
    trace: TraceHandle,
) -> Result<InferenceOutput> {
    let loaded = loaded(plan, features)?;
    let (laid, split) = (loaded.laid, loaded.split);
    let layout: &Layout = &laid.layout;
    let model = plan.model;
    let strategy = plan.strategy;
    let bc_threshold = plan.bc_threshold;
    let feat_dim = plan.graph.node_feat_dim();
    let k = model.n_layers();
    let mut eng = BatchEngine::new(plan.mapreduce_spec, layout)
        .with_partition_fn(mr_partition)
        .with_trace(trace)
        .with_transport(Arc::clone(&plan.transport))
        .with_fault_injector(plan.faults.clone());

    let agg_for = |l: usize| {
        let view = model.layer_view(l);
        view.row_aggregator().filter(|_| strategy.partial_gather)
    };
    let dim_of = |l: usize| model.layer_view(l).annotations().msg_dim;

    // --- Map: initial embeddings + layer-0 scatter ------------------------
    let (mut data, mut rows) = eng.map_phase(
        "map-init",
        layout.n_vertices(),
        dim_of(0),
        |_w| {
            // The worker's spare message row.
            let mut buf = Vec::new();
            let loaded = &loaded;
            move |ctx: &mut PhaseCtx,
                  position: usize,
                  sink: &mut RowSink<'_>,
                  emit: &mut Vec<(u64, MrRecord<'p>)>| {
                // h⁰ = raw features (initialisation step), or the fresh
                // features a serving caller handed to this run, read in
                // place.
                let v = loaded.vertex(position);
                ctx.read(v.record_len(feat_dim));
                scatter_rows(
                    model,
                    &strategy,
                    bc_threshold,
                    layout,
                    0,
                    v.id,
                    v.raw,
                    v.span.edges,
                    v.out_deg,
                    ctx,
                    emit,
                    sink,
                    &mut buf,
                );
                emit.push((
                    v.id,
                    MrRecord::SelfState {
                        h: Cow::Borrowed(v.raw),
                        span: v.span,
                        in_deg: v.in_deg,
                        out_deg: v.out_deg,
                    },
                ));
                Ok(())
            }
        },
        agg_for(0),
        Sizes {
            cells: Some(&split.cells),
            typed: Some(&split.typed_map),
        },
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
                  values: &mut Vec<MrRecord<'p>>,
                  rows: RowsIn<'_>,
                  sink: &mut RowSink<'_>,
                  emit: &mut Vec<(u64, MrRecord<'p>)>|
                  -> Result<()> {
                if key & NODE_FLAG == 0 {
                    // broadcast-table group for this worker
                    table.clear();
                    for v in values.drain(..) {
                        if let MrRecord::Bcast { src, msg } = v {
                            table.insert(src, msg);
                        }
                    }
                    debug_assert_eq!(rows.count(), 0, "rows never target control keys");
                    return Ok(());
                }
                let layer = model.layer_view(layer_idx);
                // A union takes one entry per row and per record but the
                // self-state: its list is sized once, one slot to spare.
                let mut agg = layer.init_agg(rows.count() + values.len());
                let mut self_at = None;
                // Columnar half first, as a Pregel vertex gathers it: under
                // partial-gather the engine has already combined the key's
                // partials into one row. Rows and records are gathered
                // where they lie — the aggregate borrows `rows`, `values`
                // and the table. Every shuffled partial counts as a message.
                let mut n_msgs = ctx.records();
                layer.gather_rows(&mut agg, rows);
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
                    // moves out whole, its owned `h` in as the next spare
                    // (a lent `h⁰` leaves none).
                    let Some(MrRecord::SelfState { h, span, .. }) =
                        self_at.map(|i| values.swap_remove(i))
                    else {
                        return Err(Error::Internal("the self-state record moved".into()));
                    };
                    let h_new = match h {
                        Cow::Owned(h) => std::mem::replace(&mut spare, h),
                        Cow::Borrowed(_) => std::mem::take(&mut spare),
                    };
                    scatter_rows(
                        model,
                        &strategy,
                        bc_threshold,
                        layout,
                        r,
                        key,
                        &h_new,
                        span.edges,
                        out_deg,
                        ctx,
                        emit,
                        sink,
                        &mut msg_buf,
                    );
                    emit.push((
                        key,
                        MrRecord::SelfState {
                            h: Cow::Owned(h_new),
                            span,
                            in_deg,
                            out_deg,
                        },
                    ));
                }
                Ok(())
            }
        };
        let next_agg = if r == k { None } else { agg_for(r) };
        let sizes = Sizes {
            cells: (r < k).then_some(&laid.cells),
            typed: Some(if r == k {
                &split.outputs
            } else {
                &split.typed_reduce
            }),
        };
        (data, rows) = eng.reduce_phase(
            format!("reduce-{r}"),
            data,
            rows,
            out_dim,
            make_reduce,
            next_agg,
            sizes,
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
    use crate::strategy::wire_id;
    use inferturbo_cluster::ClusterSpec;
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};

    /// The zero-copy plan reload contract on MapReduce: a plan holds the
    /// graph once, as the layout, and every run reads it by handle — each
    /// map task's raw row is its node's row of the graph's features (or of
    /// the caller's matrix), mirrors included, and each self-state's span
    /// is the layout's own routes for its vertex. Runs borrow the layout
    /// and leave no handle to it behind.
    #[test]
    fn a_mapreduce_run_reads_its_graph_by_handle() {
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
        assert!(plan.summary().mirrors > 0, "mirrors must engage");
        let Loadable::MapReduce(laid, _) = &plan.loadable else {
            panic!("a MapReduce plan holds its layout");
        };
        let layout = &laid.layout;
        let probe = Arc::clone(layout);
        let features: Vec<Vec<f32>> = (0..g.n_nodes() as u32)
            .map(|v| g.node_feat(v).iter().map(|x| x + 1.0).collect())
            .collect();
        for fresh in [None, Some(&features[..])] {
            let loaded = loaded(&plan, fresh).unwrap();
            for p in 0..layout.n_vertices() {
                let v = loaded.vertex(p);
                let base = base_of(v.id);
                let row = match fresh {
                    Some(f) => f[base as usize].as_slice(),
                    None => g.node_feat(base),
                };
                assert!(std::ptr::eq(v.raw, row), "vertex {} copied its row", v.id);
                let route = layout.resolve(v.id).unwrap();
                assert!(
                    std::ptr::eq(v.span.edges(), layout.edges(route)),
                    "vertex {} copied its routes",
                    v.id
                );
                assert_eq!(v.span, Span::new(layout, route).unwrap());
            }
        }
        let a = plan.run().unwrap();
        let b = plan.run_with_features(&features).unwrap();
        assert_ne!(a.logits, b.logits);
        assert_eq!(plan.run().unwrap().logits, a.logits);
        let Loadable::MapReduce(laid, _) = &plan.loadable else {
            unreachable!()
        };
        assert!(
            Arc::ptr_eq(&probe, &laid.layout),
            "a run replaced the layout"
        );
        assert_eq!(
            Arc::strong_count(&probe),
            2,
            "a run kept a handle to the layout"
        );
    }

    /// A layout over three vertices: `wire_id(5, 0)` scatters to the other
    /// two, `wire_id(9, 1)` to none.
    fn small_layout() -> Layout {
        let (a, b, c) = (wire_id(5, 0), wire_id(9, 1), wire_id(2, 0));
        let targets = [b, c];
        Layout::planned(
            2,
            [(a, &targets[..]), (b, &[][..]), (c, &[][..])].into_iter(),
        )
        .unwrap()
    }

    fn decode<'l>(key: u64, bytes: &[u8], layout: &'l Layout) -> Result<MrRecord<'l>> {
        let mut r = WireReader::new(bytes);
        let rec = MrRecord::decode_keyed(key, &mut r, layout)?;
        assert!(r.is_empty(), "trailing bytes");
        Ok(rec)
    }

    #[test]
    fn mr_record_codec_roundtrip() {
        let layout = small_layout();
        let key = wire_id(5, 0);
        let span = Span::new(&layout, layout.resolve(key).unwrap()).unwrap();
        let records = vec![
            MrRecord::SelfState {
                h: Cow::Owned(vec![1.0, 2.0]),
                span,
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
            assert_eq!(decode(key, &r.to_bytes(), &layout).unwrap(), r);
        }
        // The self-state ships its targets' ids: a count, then each id.
        let mut w = WireWriter::new();
        w.put_varint(2);
        w.put_varint(wire_id(9, 1));
        w.put_varint(wire_id(2, 0));
        let ids = w.into_bytes();
        let MrRecord::SelfState { h, .. } = &decode(
            key,
            &MrRecord::SelfState {
                h: Cow::Owned(vec![]),
                span,
                in_deg: 0,
                out_deg: 0,
            }
            .to_bytes(),
            &layout,
        )
        .unwrap() else {
            panic!("a self-state decodes as one");
        };
        assert!(h.is_empty());
        let mut frame = vec![TAG_SELF];
        frame.extend(Vec::<f32>::new().to_bytes());
        frame.extend(&ids);
        frame.extend([0, 0]);
        assert!(decode(key, &frame, &layout).is_ok());
        assert!(decode(key, &[99], &layout).is_err());
        // A target list the layout does not plan, or a vertex it does not
        // place, is a codec error.
        let mut wrong = frame.clone();
        wrong[frame.len() - 3] ^= 1;
        assert!(matches!(decode(key, &wrong, &layout), Err(Error::Codec(_))));
        assert!(matches!(
            decode(wire_id(77, 0), &frame, &layout),
            Err(Error::Codec(_))
        ));
    }

    #[test]
    fn self_state_decode_rejects_degrees_beyond_u32() {
        let layout = small_layout();
        let key = wire_id(9, 1);
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
            decode(key, &frame(u32::MAX as u64, 0), &layout).unwrap(),
            MrRecord::SelfState {
                in_deg: u32::MAX,
                out_deg: 0,
                ..
            }
        ));
        // Under an `as u32` cast 2^32 would silently decode as 0.
        for bytes in [frame(1 << 32, 0), frame(0, 1 << 32), frame(u64::MAX, 0)] {
            let err = decode(key, &bytes, &layout).unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "{err:?}");
        }
    }

    #[test]
    fn harvest_rejects_a_second_output_for_one_node() {
        let layout = Layout::planned(2, std::iter::empty()).unwrap();
        let outputs = |copies: usize| {
            let mut eng = BatchEngine::new(ClusterSpec::test_spec(2), &layout);
            let make = |_w| {
                |_: &mut PhaseCtx,
                 _: usize,
                 _: &mut RowSink<'_>,
                 out: &mut Vec<(u64, MrRecord<'_>)>| {
                    out.push((NODE_FLAG, MrRecord::Output(vec![1.0])));
                    Ok(())
                }
            };
            eng.map_phase("out", copies, 0, make, None, Sizes::default())
                .unwrap()
                .0
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
