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
//! engine's broadcast tables;
//! shadow-nodes arrive pre-applied in the
//! [`crate::strategy::NodeRecord`]s.
//!
//! Message placement: every GNN payload is a fixed-width `f32` row (a
//! layer's `apply_edge` output, `msg_dim` wide — for GAT the source-side
//! projection `W·h`), computed — or, where the message is the embedding
//! itself, borrowed ([`GasLayer::edge_row`]) — once per vertex in
//! `scatter` and handed to the engine once, with the vertex's span of
//! pre-resolved routes ([`Outbox::scatter_row`]). The engine's routing
//! loop then does the per-edge work: a fused layer folds the row straight
//! into each destination's accumulator (no copy of the row per edge at
//! all); a materialized layer (GAT) writes the row once per span into its
//! sender worker's row table and gives each edge an 8-byte
//! `(slot, table row)` reference; neither looks an id up. Broadcast refs
//! are 8-byte variable-length control messages and ride the typed plane,
//! addressed by route the same way: a hub spools one ref with its span of
//! routes ([`Outbox::scatter`]). The program's one kernel
//! ([`VertexProgram::compute`]) reads both halves of a vertex's [`Inbox`]
//! and gathers them with the same [`GasLayer`] kernels where they lie — a
//! union layer takes each inbox row, lent from its sender's table, and
//! each ref's payload, lent from the broadcast table, as one entry of a
//! list sized once to the inbox's message count; a ref that resolves to
//! nothing fails the superstep with the same [`Error::InvalidGraph`] the
//! MapReduce reducer returns. A layer whose `apply_node` reads the node's
//! own message (GAT's destination attention) gets back the row the vertex
//! scattered one step earlier instead of recomputing it, and the next
//! scatter writes the new message into that same buffer.
//!
//! Where the graph lives: `plan_layout` turns the planned records into a
//! [`PregelLayout`] once, at plan time — placement, the id index, and
//! every out-target resolved to a route. A run borrows it: vertex states
//! are handles into the plan's records and the layout's routes, so loading
//! a run is one pass that copies O(V) pointers and hashes nothing, and
//! the engine is built over the plan's layout
//! ([`PregelEngine::with_layout`], its one constructor).

use crate::gas::{EdgeCtx, GasLayer, GnnMessage, NodeCtx};
use crate::models::gas_impl::PoolRowAggregator;
use crate::models::GnnModel;
use crate::plan::InferencePlan;
use crate::strategy::{base_of, mirror_of, NodeRecord, StrategyConfig};
use inferturbo_common::{Error, Result};
use inferturbo_obs::TraceHandle;
use inferturbo_pregel::{
    FusedAggregator, Inbox, MessageLayout, Outbox, PregelConfig, PregelEngine, PregelLayout, Route,
    ScratchPool, VertexProgram,
};
use std::sync::Arc;

use super::InferenceOutput;

/// Per-vertex state held in worker memory between supersteps.
///
/// The load phase is zero-copy: `raw` borrows the planned record's input
/// features (or the caller's fresh feature matrix) and `edges` the plan
/// layout's pre-resolved routes, so building a run's vertex states from an
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
/// embedding. The two never coexist — the message is read back at the
/// next apply, logits exist only after the last — so they share one slot.
#[derive(Clone, Default)]
enum Kept {
    #[default]
    Nothing,
    /// The message the vertex scattered in its latest step — its own
    /// `apply_edge` output, lent back as [`NodeCtx::own_msg`] at the next
    /// apply — for layers that read it
    /// ([`crate::LayerAnnotations::reads_own_msg`]). Once read, the buffer
    /// is where the next scatter writes the vertex's next message, so a
    /// vertex allocates it once per run.
    OwnMsg(Vec<f32>),
    /// The prediction head's output, after the last layer.
    Logits(Vec<f32>),
}

impl Kept {
    fn lanes(&self) -> usize {
        match self {
            Kept::Nothing => 0,
            Kept::OwnMsg(v) | Kept::Logits(v) => v.len(),
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
    /// Per-feeding-step fused row aggregators (index = superstep that
    /// emits).
    row_aggs: Vec<Option<PoolRowAggregator>>,
    k: usize,
}

impl<'m> GnnVertexProgram<'m> {
    /// Scatter layer `layer_idx`'s message from the vertex's current
    /// embedding. A layer that writes its message does so into `own` — the
    /// buffer the vertex's previous message was kept in, empty at first —
    /// and a layer that reads its own message keeps it there.
    fn scatter(
        &self,
        layer_idx: usize,
        vertex: u64,
        state: &mut GnnVertexState<'_>,
        out: &mut Outbox<GnnMessage>,
        mut own: Vec<f32>,
    ) {
        if state.edges.is_empty() {
            return;
        }
        let layer = self.model.layer_view(layer_idx);
        let annotations = layer.annotations();
        let row = layer.edge_row(
            state.embedding(),
            &EdgeCtx {
                src_out_degree: state.out_deg,
                edge_feat: &[],
            },
            &mut own,
        );
        out.add_flops(layer.flops_apply_edge());
        let hub = self.strategy.broadcast
            && state.out_deg as u64 > self.bc_threshold
            && annotations.uniform_message;
        if hub {
            // Hub path: one payload per worker on the typed plane, one
            // 8-byte ref per edge — spooled once with the span of routes.
            out.broadcast(layer.make_wire(row.to_vec(), self.strategy.partial_gather));
            out.scatter(state.edges, GnnMessage::Ref(vertex));
        } else {
            // Columnar plane: the row enters the spool once, with the
            // vertex's whole span of routes.
            out.scatter_row(state.edges, row);
        }
        if annotations.reads_own_msg {
            state.kept = Kept::OwnMsg(own);
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
            self.scatter(0, vertex, state, out, Vec::new());
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
        // Last step's message is read here for the last time: the next
        // scatter (if any) writes its own into the same buffer.
        let own = match std::mem::take(&mut state.kept) {
            Kept::OwnMsg(own) => own,
            _ => Vec::new(),
        };
        let ctx = NodeCtx {
            id: vertex,
            state: state.embedding(),
            in_degree: state.in_deg,
            out_degree: state.out_deg,
            own_msg: &own,
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
            self.scatter(step, vertex, state, out, own);
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

    fn fused_aggregator(&self, step: usize) -> Option<&dyn FusedAggregator> {
        if !self.strategy.partial_gather {
            return None;
        }
        self.row_aggs
            .get(step)?
            .as_ref()
            .map(|a| a as &dyn FusedAggregator)
    }

    fn state_bytes(&self, state: &GnnVertexState<'_>) -> u64 {
        // The model charges the deployment's residency: features and the
        // current embedding are separate buffers there, so h⁰ counts even
        // while this process reads it out of `raw`, an out-edge is the
        // 8-byte wire id it is shipped as, and a kept message or logits row
        // is held.
        ((state.raw.len() + state.embedding().len() + state.kept.lanes()) * 4
            + state.edges.len() * 8
            + 64) as u64
    }
}

/// Lay the planned records out for the engine: place every record on its
/// worker and resolve every out-target to a route, once per plan. A target
/// that names no record is an [`Error::InvalidGraph`] here — at plan time
/// — rather than a failed superstep.
pub(crate) fn plan_layout(records: &[NodeRecord], workers: usize) -> Result<PregelLayout> {
    PregelLayout::planned(workers, records.iter().map(|r| (r.wire, &*r.out_targets)))
}

/// Execute one planned Pregel run over pre-built node records.
///
/// This is the execution stage of the session pipeline: all planning work
/// (CSR builds, degree arrays, shadow-mirror expansion, hub thresholds,
/// the engine layout) happened at plan time. `features`, when given, replaces
/// each record's raw input row (same node, fresh features — the serving
/// path); `scratch` is the plan's pooled per-worker engine scratch,
/// returned after the run so the next run skips the per-superstep
/// allocations. On error the pool is dropped; the next run starts fresh.
/// The plan's spill policy, when set, puts each worker's columnar inboxes
/// under the out-of-core byte budget (bit-identical results, reduced
/// residency).
pub(crate) fn run_planned<'g>(
    plan: &'g InferencePlan<'_>,
    features: Option<&'g [Vec<f32>]>,
    trace: TraceHandle,
    scratch: ScratchPool<GnnMessage>,
) -> Result<(InferenceOutput, ScratchPool<GnnMessage>)> {
    let k = plan.model.n_layers();
    let mut engine = engine_for(plan, features, trace)?;
    engine.set_scratch(scratch);
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

/// The engine for one planned run, every vertex loaded and nothing run.
fn engine_for<'g>(
    plan: &'g InferencePlan<'_>,
    features: Option<&'g [Vec<f32>]>,
    trace: TraceHandle,
) -> Result<PregelEngine<GnnVertexProgram<'g>>> {
    let layout = plan
        .layout
        .as_ref()
        .ok_or_else(|| Error::Internal("a Pregel plan is built with its layout".into()))?;
    let model = plan.model;
    let records = &plan.records;
    let k = model.n_layers();
    let row_aggs: Vec<Option<PoolRowAggregator>> = (0..k)
        .map(|l| model.layer_view(l).row_aggregator())
        .collect();
    let program = GnnVertexProgram {
        model,
        strategy: plan.strategy,
        bc_threshold: plan.bc_threshold,
        row_aggs,
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
    // Zero-copy load: every state is handles into the plan.
    let states = layout.vertices().map(|v| {
        let rec = &records[v.position];
        GnnVertexState {
            raw: match features {
                Some(f) => &f[rec.base as usize],
                None => &rec.raw,
            },
            h: Vec::new(),
            kept: Kept::Nothing,
            edges: v.edges,
            in_deg: rec.in_deg,
            out_deg: rec.out_deg,
        }
    });
    PregelEngine::with_layout(program, config, Arc::clone(layout), states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Backend, InferenceSession};
    use inferturbo_cluster::ClusterSpec;
    use inferturbo_graph::gen::{generate, GenConfig};

    /// A GAT vertex writes each layer's `W·h` into the buffer its previous
    /// one was kept in: across the three layers of a plan, every kept own
    /// message stays at the address its first scatter allocated.
    #[test]
    fn a_gat_vertex_keeps_one_own_message_buffer_across_layers() {
        let graph = generate(&GenConfig {
            n_nodes: 80,
            n_edges: 400,
            feat_dim: 5,
            classes: 3,
            seed: 31,
            ..GenConfig::default()
        });
        let model = GnnModel::gat(5, 8, 2, 3, 3, false, 4);
        let plan = InferenceSession::builder()
            .model(&model)
            .graph(&graph)
            .pregel_spec(ClusterSpec::pregel_cluster(4))
            .strategy(StrategyConfig::none())
            .backend(Backend::Pregel)
            .plan()
            .unwrap();
        let mut engine = engine_for(&plan, None, TraceHandle::disabled()).unwrap();
        let kept = |engine: &PregelEngine<GnnVertexProgram<'_>>| {
            let mut own = Vec::new();
            engine.for_each_state(|id, state| {
                if let Kept::OwnMsg(v) = &state.kept {
                    assert_eq!(v.len(), 8, "vertex {id} keeps one W·h");
                    own.push((id, v.as_ptr()));
                }
            });
            own
        };
        // Superstep 0 scatters layer 0's message from every vertex with
        // out-edges; supersteps 1 and 2 apply a layer and scatter the next.
        engine.run(1).unwrap();
        let first = kept(&engine);
        let senders = plan.records.iter().filter(|r| !r.out_targets.is_empty());
        assert_eq!(first.len(), senders.count());
        for step in 1..3 {
            engine.run(1).unwrap();
            assert_eq!(kept(&engine), first, "superstep {step}");
        }
        // The last superstep keeps logits in the slot instead.
        engine.run(1).unwrap();
        assert!(kept(&engine).is_empty());
    }
}
