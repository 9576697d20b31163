//! The Pregel backend (paper §IV-C-1).
//!
//! One superstep per GNN layer plus an initialisation superstep:
//!
//! - superstep 0 turns raw features into the initial embedding and calls
//!   Scatter;
//! - superstep `s ∈ [1, k]` gathers layer `s-1`'s messages, applies the
//!   layer, and (except at `s = k`) scatters layer `s`'s messages;
//! - the prediction head is fused into the last superstep, exactly as the
//!   paper attaches the "prediction slice" to the final apply.
//!
//! Strategy mapping: partial-gather rides the engine's fused
//! scatter-aggregation on the columnar plane; broadcast rides the
//! engine's broadcast tables; shadow-nodes arrive pre-applied in the
//! plan's layout, one vertex per mirror.
//!
//! Message placement: every GNN payload is a fixed-width `f32` row (a
//! layer's `apply_edge` output, `msg_dim` wide — for GAT the source-side
//! projection `W·h`), computed — or, where the message is the embedding
//! itself, borrowed ([`GasLayer::edge_row`]) — once per vertex in
//! `scatter` and sent once, with the vertex's span of pre-resolved routes
//! ([`Outbox::scatter_row`]). The send does the per-edge work where it is
//! called: a fused layer folds the row straight into each destination's
//! partial (no copy of the row per edge at all); a materialized layer
//! (GAT) writes the row once into its sender worker's row table and gives
//! each edge an 8-byte `(slot, table row)` reference; neither looks an id
//! up. Broadcast refs are variable-length control messages and ride the
//! typed plane, addressed by route the same way: a hub sends one ref to
//! its span of routes ([`Outbox::scatter`]), which stores it once in the
//! worker's typed table and gives each edge an 8-byte
//! `(slot, table index)` reference to it, and each destination is lent the
//! ref where it was stored — the row plane's shape, so a hub's message is
//! held once per worker (in the broadcast table) and its ref once per
//! sender, never once per edge. The program's one kernel
//! ([`VertexProgram::compute`]) reads both halves of a vertex's [`Inbox`]
//! and gathers them with the same [`GasLayer`] kernels where they lie — a
//! union layer takes each inbox row, lent from its sender's table, and
//! each ref's payload, lent from the broadcast table, as one entry of a
//! list sized once to the inbox's message count; a ref that resolves to
//! nothing fails the superstep with the same [`Error::InvalidGraph`] the
//! MapReduce reducer returns. A layer whose `apply_node` reads the node's
//! own message (GAT's destination attention) is lent the row the vertex
//! sent one step earlier, where its worker's row table holds it
//! ([`Inbox::own_row`]), instead of recomputing it; only a hub (its
//! message went out as a broadcast) or a vertex with no out-edges
//! recomputes. No vertex keeps a message buffer: a scatter writes its
//! message into the worker's spare row, and the send copies it into the
//! table.
//!
//! Where the graph lives: the plan lays the shadow-transformed adjacency
//! out as a [`Layout`](inferturbo_common::Layout) once, at
//! plan time — placement, the id index, and every out-target resolved to a
//! route — and keeps nothing else of the graph but each node's logical
//! degrees. A run borrows it: a vertex
//! state is a handle to its raw features in the graph itself (or in the
//! serving caller's matrix) and to its routes in the layout, plus its
//! node's degrees, so loading a run is one pass that copies O(V) pointers
//! and hashes nothing, and the engine is built over the plan's layout
//! ([`PregelEngine::with_layout`], its one constructor).

use crate::gas::{GasLayer, GnnMessage, NodeCtx};
use crate::models::GnnModel;
use crate::plan::{InferencePlan, Laid, Loadable};
use crate::strategy::{base_of, mirror_of, StrategyConfig};
use inferturbo_common::layout::Route;
use inferturbo_common::{Error, Result};
use inferturbo_obs::TraceHandle;
use inferturbo_pregel::{
    AggKind, Inbox, MessageLayout, Outbox, PregelConfig, PregelEngine, ScratchPool, VertexProgram,
};
use std::sync::Arc;

use super::InferenceOutput;

/// Per-vertex state held in worker memory between supersteps.
///
/// The load phase is zero-copy: `raw` borrows the node's input features
/// from the graph itself (or from the caller's fresh feature matrix; a
/// mirror reads its node's row) and `edges` the plan layout's pre-resolved
/// routes, so building a run's vertex states from an
/// [`crate::InferencePlan`] costs O(V) handle copies instead of re-cloning
/// O(V·d + E) floats and ids per run.
///
/// `Clone` is the engine's checkpoint requirement: recovery snapshots
/// clone states at the superstep barrier (cheap here — every borrowed
/// slice is a handle copy).
#[derive(Clone)]
pub struct GnnVertexState<'g> {
    raw: &'g [f32],
    /// The embedding once a layer has been applied; empty before that —
    /// `h⁰` is `raw` itself, read in place (see
    /// [`GnnVertexState::embedding`]).
    h: Vec<f32>,
    kept: Kept,
    /// Where this record's out-edges lead, resolved at plan time.
    edges: &'g [Route],
    in_deg: u32,
    out_deg: u32,
}

/// What a vertex keeps from one step for a later one, besides its
/// embedding. The two never coexist — a message is read back at the next
/// apply, logits exist only after the last — so they share one slot.
#[derive(Clone, Default)]
enum Kept {
    #[default]
    Nothing,
    /// The vertex's latest scatter sent a message, `lanes` wide, that its
    /// next apply reads back ([`crate::LayerAnnotations::reads_own_msg`]).
    /// The state holds no copy: the engine lends the row out of its
    /// worker's row table, and a hub recomputes it. Only the memory model
    /// reads this — it charges the lanes as held beside the state.
    OwnRow { lanes: usize },
    /// The prediction head's output, after the last layer.
    Logits(Vec<f32>),
}

impl Kept {
    fn lanes(&self) -> usize {
        match self {
            Kept::Nothing => 0,
            Kept::OwnRow { lanes } => *lanes,
            Kept::Logits(v) => v.len(),
        }
    }
}

impl GnnVertexState<'_> {
    /// The current embedding: `raw` until the first layer is applied.
    fn embedding(&self) -> &[f32] {
        if self.h.is_empty() {
            self.raw
        } else {
            &self.h
        }
    }
}

/// The layer-wise GNN vertex program.
pub struct GnnVertexProgram<'m> {
    model: &'m GnnModel,
    strategy: StrategyConfig,
    /// Hub threshold for the broadcast strategy (logical out-degree).
    bc_threshold: u64,
    k: usize,
}

impl<'m> GnnVertexProgram<'m> {
    /// Scatter layer `layer_idx`'s message from the vertex's current
    /// embedding. A layer that writes its message does so into the
    /// worker's spare row, borrowed for the send and handed back, so no
    /// vertex allocates one.
    fn scatter(
        &self,
        layer_idx: usize,
        vertex: u64,
        state: &mut GnnVertexState<'_>,
        out: &mut Outbox<GnnMessage>,
    ) {
        state.kept = Kept::Nothing;
        if state.edges.is_empty() {
            return;
        }
        let layer = self.model.layer_view(layer_idx);
        let mut buf = std::mem::take(out.spare_row());
        let row = layer.edge_row(state.embedding(), state.out_deg, &mut buf);
        let lanes = row.len();
        out.add_flops(layer.flops_apply_edge());
        if self.strategy.broadcasts(state.out_deg, self.bc_threshold) {
            // Hub path: one payload per worker on the typed plane, one
            // 8-byte ref per edge — stored once for the span of routes.
            out.broadcast(layer.make_wire(row.to_vec(), self.strategy.partial_gather));
            out.scatter(state.edges, GnnMessage::Ref(vertex));
        } else {
            // Columnar plane: the row is sent once, to the vertex's whole
            // span of routes.
            out.scatter_row(state.edges, row);
        }
        *out.spare_row() = buf;
        if layer.annotations().reads_own_msg {
            state.kept = Kept::OwnRow { lanes };
        }
    }
}

impl<'m> VertexProgram for GnnVertexProgram<'m> {
    type State = GnnVertexState<'m>;
    type Msg = GnnMessage;

    fn compute(
        &self,
        step: usize,
        vertex: u64,
        state: &mut GnnVertexState<'m>,
        inbox: Inbox<'_, GnnMessage>,
        out: &mut Outbox<GnnMessage>,
    ) -> Result<()> {
        if step == 0 {
            // Initialisation superstep: raw features are h⁰, scattered
            // from where they lie.
            self.scatter(0, vertex, state, out);
            return Ok(());
        }
        debug_assert!(step <= self.k, "superstep beyond layer count");
        let layer = self.model.layer_view(step - 1);
        let n_msgs = inbox.messages.len() + inbox.rows.count();
        let mut agg = layer.init_agg(n_msgs);
        layer.gather_rows(&mut agg, inbox.rows);
        for msg in inbox.messages {
            layer.gather_wire(&mut agg, msg, inbox.broadcast)?;
        }
        let gathered = agg.count() as usize;
        // The message this vertex sent last step, lent by the engine: this
        // layer's `apply_edge` output from `state`, or empty.
        let ctx = NodeCtx {
            id: vertex,
            state: state.embedding(),
            in_degree: state.in_deg,
            out_degree: state.out_deg,
            own_msg: inbox.own_row,
        };
        // The new embedding is written into the worker's spare row, which
        // then trades places with the old one: past the first layer a
        // vertex step allocates no embedding.
        layer.apply_node(&ctx, agg, out.spare_row());
        std::mem::swap(&mut state.h, out.spare_row());
        out.add_flops(
            layer.flops_apply_node(gathered) + n_msgs as f64 * layer.flops_aggregate_per_message(),
        );
        if step == self.k {
            state.kept = Kept::Logits(self.model.apply_head(&state.h));
            out.add_flops(self.model.flops_head());
        } else {
            self.scatter(step, vertex, state, out);
        }
        Ok(())
    }

    fn message_layout(&self, step: usize) -> Option<MessageLayout> {
        // Messages emitted at step `s` belong to layer `s`; nothing is
        // emitted at the final superstep. The layout applies regardless of
        // pooling — even union-aggregated layers (GAT) ship fixed-width
        // rows — only *fusion* additionally requires associativity.
        if step < self.k {
            Some(MessageLayout {
                dim: self.model.layer_view(step).annotations().msg_dim,
            })
        } else {
            None
        }
    }

    fn fused_aggregator(&self, step: usize) -> Option<AggKind> {
        if !self.strategy.partial_gather || step >= self.k {
            return None;
        }
        self.model.layer_view(step).row_aggregator()
    }

    fn state_bytes(&self, state: &GnnVertexState<'_>) -> u64 {
        // The model charges the deployment's residency: features and the
        // current embedding are separate buffers there, so h⁰ counts even
        // while this process reads it out of `raw`, an out-edge is the
        // 8-byte wire id it is shipped as, and a message read back at the
        // next apply or a logits row is held.
        ((state.raw.len() + state.embedding().len() + state.kept.lanes()) * 4
            + state.edges.len() * 8
            + 64) as u64
    }
}

/// Execute one planned Pregel run over the plan's layout.
///
/// This is the execution stage of the session pipeline: all planning work
/// (CSR builds, degree arrays, shadow-mirror expansion, hub thresholds,
/// the engine layout) happened at plan time. `features`, when given, replaces
/// each node's raw input row (same node, fresh features — the serving
/// path); `scratch` is the plan's pooled per-worker engine scratch,
/// returned after the run so the next run skips the per-superstep
/// allocations. On error the pool is dropped; the next run starts from a
/// fresh one, sized from the plan's cell counts like the first.
/// The plan's spill policy, when set, puts each worker's columnar inboxes
/// under the out-of-core byte budget (bit-identical results, reduced
/// residency).
pub(crate) fn run_planned<'g>(
    plan: &'g InferencePlan<'_>,
    features: Option<&'g [Vec<f32>]>,
    trace: TraceHandle,
    scratch: Option<ScratchPool>,
) -> Result<(InferenceOutput, ScratchPool)> {
    let k = plan.model.n_layers();
    let mut engine = engine_for(plan, features, trace, std::convert::identity)?;
    if let Some(pool) = scratch {
        engine.set_scratch(pool);
    }
    engine.run(k + 1)?;
    let scratch = engine.take_scratch();

    let mut logits: Vec<Option<Vec<f32>>> = vec![None; plan.graph.n_nodes()];
    let report = engine.finish(|id, state| {
        if let (0, Kept::Logits(l)) = (mirror_of(id), state.kept) {
            logits[base_of(id) as usize] = Some(l);
        }
    });
    let logits: Vec<Vec<f32>> = logits
        .into_iter()
        .enumerate()
        .map(|(v, l)| l.ok_or_else(|| Error::InvalidGraph(format!("node {v} missing logits"))))
        .collect::<Result<_>>()?;
    Ok((InferenceOutput { logits, report }, scratch))
}

/// The engine for one planned run, every vertex loaded and nothing run,
/// over a fresh scratch pool sized from the plan's cell counts. `program`
/// wraps the GNN program — the identity for a run, or a probe that
/// observes its computes.
fn engine_for<'g, P>(
    plan: &'g InferencePlan<'_>,
    features: Option<&'g [Vec<f32>]>,
    trace: TraceHandle,
    program: impl FnOnce(GnnVertexProgram<'g>) -> P,
) -> Result<PregelEngine<P>>
where
    P: VertexProgram<State = GnnVertexState<'g>>,
{
    let Loadable::Pregel(Laid {
        layout,
        cells,
        in_deg,
        out_deg,
    }) = &plan.loadable
    else {
        return Err(Error::Internal(
            "a Pregel plan is built with its layout".into(),
        ));
    };
    let model = plan.model;
    let graph = plan.graph;
    let k = model.n_layers();
    let gnn = GnnVertexProgram {
        model,
        strategy: plan.strategy,
        bc_threshold: plan.bc_threshold,
        k,
    };
    let config = PregelConfig {
        spill: plan.spill.clone(),
        faults: plan.faults.clone(),
        recovery: plan.recovery,
        trace,
        transport: Arc::clone(&plan.transport),
        ..PregelConfig::new(plan.pregel_spec)
    };
    // Zero-copy load: every state is handles into the graph and the plan.
    let states = layout.vertices().map(|v| {
        let base = base_of(v.id);
        GnnVertexState {
            raw: match features {
                Some(f) => &f[base as usize],
                None => graph.node_feat(base),
            },
            h: Vec::new(),
            kept: Kept::Nothing,
            edges: v.edges,
            in_deg: in_deg[base as usize],
            out_deg: out_deg[base as usize],
        }
    });
    let layout = Arc::clone(layout);
    let mut engine = PregelEngine::with_layout(program(gnn), config, layout, states)?;
    engine.set_scratch(ScratchPool::planned(cells.clone()));
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PoolOp;
    use crate::session::{Backend, InferenceSession};
    use inferturbo_cluster::ClusterSpec;
    use inferturbo_common::FxHashMap;
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};
    use inferturbo_pregel::CellKind;
    use std::sync::Mutex;

    /// The zero-copy plan reload contract on Pregel: a plan holds the
    /// graph once, as its layout, and every run loads its vertex states by
    /// handle — each state's `raw` is its node's row of the graph's
    /// features (or of the caller's matrix), mirrors included, and its
    /// `edges` are the layout's own routes. Runs share the layout `Arc`
    /// and leave no further clone of it behind.
    #[test]
    fn a_pregel_run_loads_its_states_by_handle_into_the_graph_and_the_layout() {
        let graph = generate(&GenConfig {
            n_nodes: 120,
            n_edges: 700,
            feat_dim: 5,
            classes: 3,
            skew: DegreeSkew::Out,
            seed: 77,
            ..GenConfig::default()
        });
        let model = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 2);
        let plan = InferenceSession::builder()
            .model(&model)
            .graph(&graph)
            .workers(4)
            .strategy(StrategyConfig::all().with_threshold(5))
            .backend(Backend::Pregel)
            .plan()
            .unwrap();
        assert!(plan.summary().mirrors > 0, "mirrors must engage");
        let Loadable::Pregel(Laid { layout, .. }) = &plan.loadable else {
            panic!("a Pregel plan holds its layout");
        };
        let probe = Arc::clone(layout);
        let routes: FxHashMap<u64, *const Route> = layout
            .vertices()
            .map(|v| (v.id, v.edges.as_ptr()))
            .collect();
        let features: Vec<Vec<f32>> = (0..graph.n_nodes() as u32)
            .map(|v| graph.node_feat(v).iter().map(|x| x + 1.0).collect())
            .collect();
        for fresh in [None, Some(&features[..])] {
            let engine = engine_for(
                &plan,
                fresh,
                TraceHandle::disabled(),
                std::convert::identity,
            )
            .unwrap();
            let mut loaded = 0;
            engine.for_each_state(|id, state| {
                let base = base_of(id);
                let row = match fresh {
                    Some(f) => f[base as usize].as_slice(),
                    None => graph.node_feat(base),
                };
                assert!(
                    std::ptr::eq(state.raw, row),
                    "vertex {id} copied its features"
                );
                assert_eq!(
                    state.edges.as_ptr(),
                    routes[&id],
                    "vertex {id} copied its routes"
                );
                loaded += 1;
            });
            assert_eq!(loaded, layout.n_vertices());
        }
        // The first run leaves the plan's pooled scratch holding the
        // layout; later runs reuse those handles and add none.
        let a = plan.run().unwrap();
        let held = Arc::strong_count(&probe);
        let b = plan.run_with_features(&features).unwrap();
        assert_ne!(a.logits, b.logits);
        assert_eq!(plan.run().unwrap().logits, a.logits);
        let Loadable::Pregel(Laid { layout, .. }) = &plan.loadable else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&probe, layout), "a run replaced the layout");
        assert_eq!(
            Arc::strong_count(&probe),
            held,
            "a run leaked a handle to the layout"
        );
    }

    /// One own row an apply was lent, as [`OwnRowProbe`] saw it.
    struct Lent {
        step: usize,
        vertex: u64,
        addr: usize,
        lanes: usize,
        /// Its bits are the `W·h` the layer computes from the embedding.
        is_own_wh: bool,
    }

    /// The GNN program, recording the own row each apply past the first
    /// superstep is lent.
    struct OwnRowProbe<'m> {
        gnn: GnnVertexProgram<'m>,
        lent: Arc<Mutex<Vec<Lent>>>,
    }

    impl<'m> VertexProgram for OwnRowProbe<'m> {
        type State = GnnVertexState<'m>;
        type Msg = GnnMessage;

        fn compute(
            &self,
            step: usize,
            vertex: u64,
            state: &mut GnnVertexState<'m>,
            inbox: Inbox<'_, GnnMessage>,
            out: &mut Outbox<GnnMessage>,
        ) -> Result<()> {
            if step > 0 {
                let own = inbox.own_row;
                let layer = self.gnn.model.layer_view(step - 1);
                let mut wh = Vec::new();
                let wh = layer.edge_row(state.embedding(), state.out_deg, &mut wh);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                self.lent.lock().unwrap().push(Lent {
                    step,
                    vertex,
                    addr: own.as_ptr() as usize,
                    lanes: own.len(),
                    is_own_wh: bits(own) == bits(wh),
                });
            }
            self.gnn.compute(step, vertex, state, inbox, out)
        }

        fn message_layout(&self, step: usize) -> Option<MessageLayout> {
            self.gnn.message_layout(step)
        }

        fn fused_aggregator(&self, step: usize) -> Option<AggKind> {
            self.gnn.fused_aggregator(step)
        }

        fn state_bytes(&self, state: &GnnVertexState<'_>) -> u64 {
            self.gnn.state_bytes(state)
        }
    }

    /// GAT's destination attention reads the node's own `W·h` where its
    /// worker's row table holds it: at every layer each row-plane sender is
    /// lent its own projection, bit for bit, from inside one of its
    /// worker's tables; hubs and mirrors (their message went out as a
    /// broadcast) and vertices with no out-edges are lent nothing and
    /// recompute; and no state holds a message buffer.
    #[test]
    fn a_gat_vertex_reads_its_own_row_where_its_worker_wrote_it() {
        let graph = generate(&GenConfig {
            n_nodes: 80,
            n_edges: 400,
            feat_dim: 5,
            classes: 3,
            skew: DegreeSkew::Out,
            seed: 31,
            ..GenConfig::default()
        });
        let model = GnnModel::gat(5, 8, 2, 3, 3, false, 4);
        let plan = InferenceSession::builder()
            .model(&model)
            .graph(&graph)
            .pregel_spec(ClusterSpec::pregel_cluster(4))
            .strategy(StrategyConfig::all().with_threshold(5))
            .backend(Backend::Pregel)
            .plan()
            .unwrap();
        let summary = plan.summary();
        assert!(summary.hubs > 0 && summary.mirrors > 0, "{summary}");
        let lent = Arc::new(Mutex::new(Vec::new()));
        let probe = |gnn| OwnRowProbe {
            gnn,
            lent: Arc::clone(&lent),
        };
        let mut engine = engine_for(&plan, None, TraceHandle::disabled(), probe).unwrap();
        let Loadable::Pregel(Laid {
            layout, out_deg, ..
        }) = &plan.loadable
        else {
            panic!("a Pregel plan holds its layout");
        };
        let sends: FxHashMap<u64, bool> = layout
            .vertices()
            .map(|v| (v.id, !v.edges.is_empty()))
            .collect();
        let hub = |id: u64| {
            let out_deg = out_deg[base_of(id) as usize];
            plan.strategy.broadcasts(out_deg, plan.bc_threshold)
        };
        // Superstep 0 scatters layer 0's message; supersteps 1 and 2 apply
        // a layer and scatter the next; superstep 3 keeps logits.
        for step in 0..4 {
            engine.run(1).unwrap();
            engine.for_each_state(|id, state| match (&state.kept, step) {
                (Kept::OwnRow { lanes: 8 }, 0..3) => assert!(sends[&id]),
                (Kept::Nothing, 0..3) => assert!(!sends[&id], "vertex {id}"),
                (Kept::Logits(l), 3) => assert_eq!(l.len(), 3),
                _ => panic!("vertex {id} keeps something else after step {step}"),
            });
        }
        let tables: Vec<(usize, std::ops::Range<usize>)> = (engine.take_scratch().cells())
            .into_iter()
            .filter(|c| c.kind == CellKind::Table)
            .map(|c| (c.sender, c.addr..c.addr + c.capacity * 4))
            .collect();
        let lent = std::mem::take(&mut *lent.lock().unwrap());
        assert_eq!(lent.len(), 3 * layout.n_vertices());
        let (mut from_tables, mut recomputed, mut mirrors) = (0, 0, 0);
        for l in &lent {
            let what = format!("vertex {} at step {}", l.vertex, l.step);
            if sends[&l.vertex] && !hub(l.vertex) {
                let (w, _) = layout.unpack(layout.resolve(l.vertex).unwrap());
                let inside = |(sender, lanes): &(usize, std::ops::Range<usize>)| {
                    *sender == w && lanes.start <= l.addr && l.addr + 8 * 4 <= lanes.end
                };
                assert_eq!(l.lanes, 8, "{what}");
                assert!(
                    tables.iter().any(inside),
                    "{what}: not in a table of worker {w}"
                );
                assert!(l.is_own_wh, "{what}: lent a row that is not its W·h");
                from_tables += 1;
            } else {
                assert_eq!(l.lanes, 0, "{what}: a hub or a vertex with no out-edges");
                recomputed += 1;
                mirrors += usize::from(mirror_of(l.vertex) > 0);
            }
        }
        assert!(from_tables > 0 && recomputed > 0 && mirrors > 0);
    }
}
