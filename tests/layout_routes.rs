//! The plan-resident Pregel layout (ISSUE 17): a planned run scatters one
//! spooled row per vertex over pre-resolved routes, and none of that may
//! move a bit.
//!
//! (a) Routed scatter equals a serial oracle written here, by hand, from
//!     the fold-order contract — per sender worker ascending, a worker's
//!     vertices in load order, a vertex's out-edges in emission order,
//!     copy-on-first, partials merged in ascending sender order. The oracle
//!     shares the model's `GasLayer` kernels (what a message *is*) and
//!     nothing of the engine (how it travels). Checked on both row planes
//!     for SAGE mean/max/sum, GCN and GAT, at every worker count × thread
//!     budget × transport × spill setting: logit bits, columnar bytes,
//!     records sent, and — within a spill setting — trace bytes.
//! (b) A plan is not consumed by running it: repeated `run()` /
//!     `run_with_features()` calls, one of them through a worker loss and
//!     checkpoint replay, give identical bits.
//! (c) `send_row(dst, row)` is `scatter_row` over the one route that
//!     resolves `dst`: a program may use either, or mix them, and the
//!     destination sees the same rows in the same order.

use std::collections::BTreeMap;
use std::sync::Arc;

mod common;
use common::worker_bin;

use inferturbo::cluster::{
    ClusterSpec, FaultPlan, InProcess, RecoveryPolicy, Transport, WorkerProcess,
};
use inferturbo::common::codec::varint_len;
use inferturbo::common::hash::partition_of;
use inferturbo::common::layout::{Layout, Route};
use inferturbo::common::rows::row_payload_len;
use inferturbo::common::{AggKind, Parallelism, Result};
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::{build_node_records, mirror_of, StrategyConfig};
use inferturbo::core::{GasLayer, NodeCtx};
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::obs::TraceHandle;
use inferturbo::pregel::{
    Inbox, LentRows, MessageLayout, Outbox, PregelConfig, PregelEngine, RowsIn, VertexProgram,
};

fn graph(skew: DegreeSkew) -> Graph {
    generate(&GenConfig {
        n_nodes: 120,
        n_edges: 900,
        feat_dim: 6,
        classes: 3,
        skew,
        seed: 53,
        ..GenConfig::default()
    })
}

fn models() -> Vec<(&'static str, GnnModel)> {
    vec![
        (
            "sage-mean",
            GnnModel::sage(6, 8, 2, 3, false, PoolOp::Mean, 5),
        ),
        (
            "sage-max",
            GnnModel::sage(6, 8, 2, 3, false, PoolOp::Max, 5),
        ),
        (
            "sage-sum",
            GnnModel::sage(6, 8, 2, 3, false, PoolOp::Sum, 5),
        ),
        ("gcn", GnnModel::gcn(6, 8, 2, 3, false, 5)),
        ("gat", GnnModel::gat(6, 8, 2, 2, 3, false, 5)),
    ]
}

fn bits(logits: &[Vec<f32>]) -> Vec<Vec<u32>> {
    logits
        .iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

// ---- (a) the serial oracle ------------------------------------------------

struct Expected {
    logits: Vec<Vec<u32>>,
    columnar_bytes: u64,
    records_out: u64,
}

/// Lane-wise fold, copy-on-first, scalar: `+` for sum and mean (the mean
/// divides later, by the raw count), keep-the-larger for max.
fn fold(op: PoolOp, acc: &mut Vec<f32>, row: &[f32]) {
    if acc.is_empty() {
        acc.extend_from_slice(row);
        return;
    }
    for (a, &b) in acc.iter_mut().zip(row) {
        match op {
            PoolOp::Sum | PoolOp::Mean => *a += b,
            PoolOp::Max => {
                if b > *a {
                    *a = b
                }
            }
        }
    }
}

/// Layer-as-superstep inference over the planned records, serially, in
/// the order the contract prescribes. No hubs broadcast here (the
/// strategies under test leave `broadcast` off), so every message is a
/// row.
fn oracle(model: &GnnModel, g: &Graph, strategy: StrategyConfig, workers: usize) -> Expected {
    let records = build_node_records(g, &strategy, workers).expect("records");
    let at: BTreeMap<u64, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.wire, i))
        .collect();
    let home: Vec<usize> = records
        .iter()
        .map(|r| partition_of(r.wire, workers))
        .collect();
    let n = records.len();
    let mut h: Vec<Vec<f32>> = records.iter().map(|r| r.raw.clone()).collect();
    let (mut columnar_bytes, mut records_out) = (0u64, 0u64);
    for l in 0..model.n_layers() {
        let layer = model.layer_view(l);
        let dim = layer.annotations().msg_dim;
        let pool = layer.pool_op().filter(|_| strategy.partial_gather);
        // What each record's gather will see: one merged accumulator and
        // raw count (fused), or every row in delivery order (materialized).
        let mut merged: Vec<(Vec<f32>, u32)> = vec![(Vec::new(), 0); n];
        let mut delivered: Vec<Vec<f32>> = vec![Vec::new(); n];
        for w in 0..workers {
            let mut partial: Vec<(Vec<f32>, u32)> = vec![(Vec::new(), 0); n];
            for (i, rec) in records.iter().enumerate() {
                if home[i] != w || rec.out_targets.is_empty() {
                    continue;
                }
                let row = layer.apply_edge(&h[i], rec.out_deg);
                for &t in rec.out_targets.iter() {
                    let j = at[&t];
                    match pool {
                        Some(op) => {
                            fold(op, &mut partial[j].0, &row);
                            partial[j].1 += 1;
                        }
                        None => {
                            delivered[j].extend_from_slice(&row);
                            columnar_bytes += (row_payload_len(dim, None) + varint_len(t)) as u64;
                            records_out += (home[j] != w) as u64;
                        }
                    }
                }
            }
            // Barrier: sender w's partials merge after those of senders
            // below it, one fold per partial; each is one record.
            if let Some(op) = pool {
                for (j, (acc, count)) in partial.iter().enumerate() {
                    if *count > 0 {
                        fold(op, &mut merged[j].0, acc);
                        merged[j].1 += count;
                        columnar_bytes += (row_payload_len(dim, Some(*count))
                            + varint_len(records[j].wire))
                            as u64;
                        records_out += (home[j] != w) as u64;
                    }
                }
            }
        }
        h = records
            .iter()
            .enumerate()
            .map(|(i, rec)| {
                let inbox = match pool {
                    Some(_) => RowsIn::Fused {
                        dim,
                        acc: &merged[i].0,
                        count: merged[i].1,
                    },
                    None => RowsIn::Rows(LentRows::flat(dim, &delivered[i])),
                };
                let mut agg = layer.init_agg(inbox.count());
                layer.gather_rows(&mut agg, inbox);
                let ctx = NodeCtx {
                    id: rec.wire,
                    state: &h[i],
                    in_degree: rec.in_deg,
                    out_degree: rec.out_deg,
                    own_msg: &[],
                };
                let mut updated = Vec::new();
                layer.apply_node(&ctx, agg, &mut updated);
                updated
            })
            .collect();
    }
    let mut logits = vec![Vec::new(); g.n_nodes()];
    for (rec, h) in records.iter().zip(&h) {
        if mirror_of(rec.wire) == 0 {
            logits[rec.base as usize] = model.apply_head(h);
        }
    }
    Expected {
        logits: bits(&logits),
        columnar_bytes,
        records_out,
    }
}

struct Observed {
    logits: Vec<Vec<u32>>,
    columnar_bytes: u64,
    legacy_bytes: u64,
    records_out: u64,
    spilled_bytes: u64,
    trace: String,
}

fn run_session(
    model: &GnnModel,
    g: &Graph,
    strategy: StrategyConfig,
    workers: usize,
    transport: &Arc<dyn Transport>,
    spill: Option<u64>,
) -> Observed {
    let trace = TraceHandle::recording();
    let mut builder = InferenceSession::builder()
        .model(model)
        .graph(g)
        .workers(workers)
        .strategy(strategy)
        .backend(Backend::Pregel)
        .transport(Arc::clone(transport))
        .trace(trace.clone());
    if let Some(bytes) = spill {
        builder = builder
            .spill_budget(bytes)
            .spill_dir(std::env::temp_dir().join("inferturbo-layout-tests"));
    }
    let out = builder.plan().expect("plan").run().expect("run");
    let report = &out.report;
    Observed {
        logits: bits(&out.logits),
        columnar_bytes: report.message_bytes.columnar,
        legacy_bytes: report.message_bytes.legacy,
        records_out: report
            .phases
            .iter()
            .flat_map(|p| &p.per_worker)
            .map(|w| w.records_out)
            .sum(),
        spilled_bytes: report.spilled_bytes,
        trace: trace.render(),
    }
}

#[test]
fn routed_scatter_matches_the_serial_fold_oracle() {
    // Out-degree skew with a low threshold, so shadow mirrors are among
    // the records being routed to.
    let g = graph(DegreeSkew::Out);
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    let shadowed = StrategyConfig::none()
        .with_shadow_nodes(true)
        .with_threshold(12);
    let planes = [
        ("fused", shadowed.with_partial_gather(true)),
        ("materialized", shadowed),
    ];
    assert!(
        build_node_records(&g, &shadowed, 4).expect("records").len() > g.n_nodes(),
        "the threshold must mirror some hub"
    );
    for (name, model) in &models() {
        for (plane, strategy) in planes {
            for workers in [1usize, 4, 7] {
                let what = format!("{name} {plane} at {workers} workers");
                let want = oracle(model, &g, strategy, workers);
                for spill in [None, Some(256u64)] {
                    let mut first_trace: Option<String> = None;
                    for threads in [1usize, 2, 4] {
                        for (tname, transport) in [("in-process", &local), ("process", &procs)] {
                            let got = Parallelism::with(threads, || {
                                run_session(model, &g, strategy, workers, transport, spill)
                            });
                            let how =
                                format!("{what}, {threads} threads, {tname}, spill {spill:?}");
                            assert_eq!(got.logits, want.logits, "logits: {how}");
                            assert_eq!(got.columnar_bytes, want.columnar_bytes, "bytes: {how}");
                            assert_eq!(got.legacy_bytes, 0, "no typed traffic here: {how}");
                            assert_eq!(got.records_out, want.records_out, "records: {how}");
                            assert_eq!(
                                got.spilled_bytes > 0,
                                spill.is_some(),
                                "256 B pages every inbox: {how}"
                            );
                            let trace = first_trace.get_or_insert_with(|| got.trace.clone());
                            assert_eq!(&got.trace, trace, "trace bytes: {how}");
                        }
                    }
                }
            }
        }
    }
}

// ---- (b) a run never mutates the plan ---------------------------------------

#[test]
fn repeated_runs_over_one_layout_are_bit_identical() {
    let g = graph(DegreeSkew::Out);
    let features: Vec<Vec<f32>> = (0..g.n_nodes() as u32)
        .map(|v| g.node_feat(v).to_vec())
        .collect();
    for (name, model) in &models() {
        let plan = |faulted: bool| {
            let mut builder = InferenceSession::builder()
                .model(model)
                .graph(&g)
                .workers(4)
                .strategy(StrategyConfig::all().with_threshold(12))
                .backend(Backend::Pregel)
                .trace(TraceHandle::disabled());
            builder = if faulted {
                builder
                    .fault_plan(FaultPlan::parse("worker:1@step:1").expect("fault spec"))
                    .recovery(RecoveryPolicy::new(1, 3))
            } else {
                builder.fault_plan(FaultPlan::new())
            };
            builder.plan().expect("plan")
        };
        let clean = plan(false);
        let want = bits(&clean.run().expect("clean run").logits);

        // The schedule's one fault fires in the first run (which replays
        // superstep 1 from its checkpoint); the plan's layout, scratch and
        // records serve every later run unchanged.
        let faulted = plan(true);
        let recovered = faulted.run().expect("recovered run");
        assert_eq!(recovered.report.retries, 1, "{name}: the fault must fire");
        assert_eq!(bits(&recovered.logits), want, "{name}: recovered run");
        for round in 0..3 {
            let again = faulted.run().expect("run");
            assert_eq!(again.report.retries, 0, "{name}: fault budget is spent");
            assert_eq!(bits(&again.logits), want, "{name}: run {round}");
            let fresh = faulted.run_with_features(&features).expect("run");
            assert_eq!(bits(&fresh.logits), want, "{name}: features run {round}");
            let clean_again = clean.run_with_features(&features).expect("run");
            assert_eq!(bits(&clean_again.logits), want, "{name}: clean {round}");
        }
    }
}

// ---- (c) send_row == scatter_row over one route ------------------------------

const DIM: usize = 3;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Emit {
    /// `send_row(id, row)` per out-edge.
    ById,
    /// `scatter_row(&edges[i..=i], row)` per out-edge.
    OneEdgeSpans,
    /// One `scatter_row(edges, row)`.
    WholeSpan,
    /// First edge by id, the rest as one span, then a second row the other
    /// way round: both forms in one compute, interleaved.
    Mixed,
}

struct Probe<'l> {
    layout: &'l Layout,
    emit: Emit,
    fused: bool,
}

#[derive(Clone)]
struct ProbeState<'l> {
    feat: [f32; DIM],
    edges: &'l [Route],
    /// Step 1: everything received, flat, in delivery order (materialized)
    /// or the merged accumulator (fused), plus the raw count.
    got: Vec<u32>,
    count: u32,
}

impl<'l> VertexProgram for Probe<'l> {
    type State = ProbeState<'l>;
    type Msg = f32;

    fn compute(
        &self,
        step: usize,
        _vertex: u64,
        state: &mut ProbeState<'l>,
        inbox: Inbox<'_, f32>,
        out: &mut Outbox<f32>,
    ) -> Result<()> {
        if step == 1 {
            let (lanes, count) = match inbox.rows {
                RowsIn::Rows(rows) => (rows.to_vec(), rows.len() as u32),
                RowsIn::Fused { acc, count, .. } if count > 0 => (acc.to_vec(), count),
                _ => (Vec::new(), 0),
            };
            state.got = lanes.iter().map(|x| x.to_bits()).collect();
            state.count = count;
            return Ok(());
        }
        let (edges, row) = (state.edges, &state.feat);
        let twice = row.map(|x| x * 2.0);
        match self.emit {
            Emit::ById => {
                for &e in edges {
                    out.send_row(self.layout.id_of(e), row);
                }
            }
            Emit::OneEdgeSpans => {
                for i in 0..edges.len() {
                    out.scatter_row(&edges[i..=i], row);
                }
            }
            Emit::WholeSpan => out.scatter_row(edges, row),
            Emit::Mixed => {
                if let Some((&first, rest)) = edges.split_first() {
                    out.send_row(self.layout.id_of(first), row);
                    out.scatter_row(rest, row);
                    out.scatter_row(&[first], &twice);
                    for &e in rest {
                        out.send_row(self.layout.id_of(e), &twice);
                    }
                }
            }
        }
        Ok(())
    }

    fn message_layout(&self, step: usize) -> Option<MessageLayout> {
        (step == 0).then_some(MessageLayout { dim: DIM })
    }

    fn fused_aggregator(&self, step: usize) -> Option<AggKind> {
        (self.fused && step == 0).then_some(AggKind::Sum)
    }
}

/// Out-targets per vertex, in edge order.
fn probe_adjacency() -> Vec<Vec<u64>> {
    let g = graph(DegreeSkew::In);
    let mut adjacency: Vec<Vec<u64>> = vec![Vec::new(); g.n_nodes()];
    for (&src, &dst) in g.src().iter().zip(g.dst()) {
        adjacency[src as usize].push(dst as u64);
    }
    adjacency
}

/// What one two-superstep probe run leaves behind: per vertex (by id) the
/// lanes it received and their raw count, the report's columnar bytes, and
/// the rendered trace.
#[derive(Debug, PartialEq)]
struct ProbeRun {
    received: Vec<(u64, Vec<u32>, u32)>,
    columnar_bytes: u64,
    trace: String,
}

fn run_probe(emit: Emit, fused: bool, workers: usize) -> ProbeRun {
    let adjacency = probe_adjacency();
    let layout = Arc::new(
        Layout::planned(
            workers,
            adjacency
                .iter()
                .enumerate()
                .map(|(v, nbrs)| (v as u64, nbrs.as_slice())),
        )
        .expect("layout"),
    );
    let trace = TraceHandle::recording();
    let config = PregelConfig::new(ClusterSpec::test_spec(workers)).with_trace(trace.clone());
    let program = Probe {
        layout: &layout,
        emit,
        fused,
    };
    let states = layout.vertices().map(|v| ProbeState {
        feat: [v.id as f32 * 0.25 + 1.0, -(v.id as f32), 0.5],
        edges: v.edges,
        got: Vec::new(),
        count: 0,
    });
    let mut engine =
        PregelEngine::with_layout(program, config, Arc::clone(&layout), states).expect("engine");
    engine.run(2).expect("run");
    let mut received = Vec::new();
    let report = engine.finish(|id, s| received.push((id, s.got, s.count)));
    received.sort_by_key(|s| s.0);
    ProbeRun {
        received,
        columnar_bytes: report.message_bytes.columnar,
        trace: trace.render(),
    }
}

#[test]
fn send_row_is_scatter_row_over_one_route() {
    for fused in [true, false] {
        for workers in [1usize, 3, 5] {
            let by_id = run_probe(Emit::ById, fused, workers);
            assert!(
                by_id.received.iter().any(|(_, got, _)| !got.is_empty()),
                "rows must flow"
            );
            for emit in [Emit::OneEdgeSpans, Emit::WholeSpan] {
                let got = run_probe(emit, fused, workers);
                assert_eq!(
                    got, by_id,
                    "{emit:?} vs send_row (fused={fused}, {workers} workers)"
                );
            }
        }
    }
}

#[test]
fn mixed_send_row_and_scatter_row_deliver_in_call_order() {
    // Materialized rows expose delivery order directly: per sender, the
    // plain row reaches a destination before the doubled one, whichever
    // form carried each, and a sender's edges keep their order.
    let states = run_probe(Emit::Mixed, false, 3).received;
    let adjacency = probe_adjacency();
    let feat = |v: u64| [v as f32 * 0.25 + 1.0, -(v as f32), 0.5];
    let mut want: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for w in 0..3 {
        for v in (0..adjacency.len() as u64).filter(|&v| partition_of(v, 3) == w) {
            // Call order: first edge plain, rest plain, first edge doubled,
            // rest doubled.
            for scale in [1.0f32, 2.0] {
                for &t in &adjacency[v as usize] {
                    want.entry(t)
                        .or_default()
                        .extend(feat(v).iter().map(|x| (x * scale).to_bits()));
                }
            }
        }
    }
    for (id, got, _) in states {
        assert_eq!(
            got,
            want.remove(&id).unwrap_or_default(),
            "delivery order at vertex {id}"
        );
    }
}
