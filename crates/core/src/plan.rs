//! The reusable inference plan: output of the session pipeline's planning
//! stage (see [`crate::session`] for the full pipeline contract).
//!
//! An [`InferencePlan`] owns every piece of one-time work a run would
//! otherwise redo:
//!
//! - the graph with the shadow-nodes transform applied, held once: the
//!   transform is one pass from the out-CSR into a flat adjacency (degree
//!   arrays and hub-threshold grouping included), which a cluster plan
//!   lays out and then drops;
//! - the resolved hub threshold and hub/mirror counts;
//! - a [`PlanEstimate`] predicting per-layer shuffle bytes by message
//!   plane and peak per-worker memory for both backends, derived from the
//!   same cost-model units as [`inferturbo_cluster::RunReport`];
//! - the resolved backend (auto-selection happens at plan time);
//! - for either cluster backend, the engines' shared [`Layout`]: every
//!   record placed on its worker, the `id → (worker, slot)` index, and
//!   every out-target resolved to a route — the graph is laid out once
//!   here, a run borrows it (behind an `Arc`, never written). From it the
//!   plan counts, once, how many rows each (sender, destination) cell of a
//!   round takes ([`CellCounts`]): Pregel's estimate charges their sum, not
//!   a bound. Beside them the plan keeps only each node's logical degrees
//!   (a run reads raw features from the graph itself) and, for MapReduce,
//!   the counts only that backend reads (`MapSplit`);
//! - the pooled per-worker Pregel engine scratch ([`ScratchPool`]), each
//!   grid cell reserved exactly from those counts, so repeated runs
//!   neither reallocate nor regrow it. A MapReduce run reserves each of its
//!   buffers from the same counts instead, and keeps none between rounds.
//!
//! Plans are inspectable ([`InferencePlan::summary`]) and reusable:
//! repeated [`InferencePlan::run`] calls are bit-identical to each other
//! and to a fresh plan of the same configuration, while skipping all
//! planning work. [`InferencePlan::run_with_features`] reruns the same plan with a
//! fresh feature matrix — the serving path for periodically refreshed
//! embeddings over a stable graph.

use crate::infer::mr_backend::{self, MapSplit};
use crate::infer::{pregel_backend, reference_logits, InferenceOutput};
use crate::models::GnnModel;
use crate::session::{Backend, SessionBuilder};
use crate::strategy::{ShadowAdjacency, StrategyConfig};
use inferturbo_cluster::{
    ClusterSpec, FaultInjector, InProcess, LayerEstimate, PlanEstimate, RecoveryPolicy, RunReport,
    Transport,
};
use inferturbo_common::codec::varint_len;
use inferturbo_common::hash::partition_of;
use inferturbo_common::layout::{CellCounts, Layout};
use inferturbo_common::rows::{row_payload_len, SpillPolicy};
use inferturbo_common::{Error, Result};
use inferturbo_graph::Graph;
use inferturbo_obs::{MetricsRegistry, TraceHandle};
use inferturbo_pregel::ScratchPool;
use std::sync::{Arc, Mutex};

use crate::gas::GasLayer;

/// A planned, reusable inference pipeline over one (model, graph,
/// strategy, cluster) configuration. Built by
/// [`SessionBuilder::plan`](crate::session::SessionBuilder::plan).
pub struct InferencePlan<'a> {
    pub(crate) model: &'a GnnModel,
    pub(crate) graph: &'a Graph,
    pub(crate) strategy: StrategyConfig,
    /// The backend requested by the builder (possibly `Auto`).
    pub(crate) requested: Backend,
    /// The concrete backend runs execute on (never `Auto`).
    pub(crate) backend: Backend,
    pub(crate) pregel_spec: ClusterSpec,
    pub(crate) mapreduce_spec: ClusterSpec,
    /// Per-worker memory budget `Backend::Auto` compared against.
    pub(crate) memory_budget: u64,
    /// Out-of-core policy for the Pregel backend's columnar inboxes (see
    /// `SessionBuilder::spill_budget`). Shapes the estimate — the resident
    /// peak counts only the bounded window — and is handed to the engine
    /// at run time.
    pub(crate) spill: Option<SpillPolicy>,
    /// Planning worker count (the chosen backend's cluster size).
    pub(crate) workers: usize,
    /// Deterministic fault schedule, armed **once** at plan time: the
    /// injector's per-site fire budgets are shared by every run of this
    /// plan, modeling a schedule of cluster events — a fault consumed by
    /// one run (or absorbed by its recovery) does not re-fire in the next,
    /// which is what makes a serve-layer re-run after a transient failure
    /// able to succeed. `None` means no faults.
    pub(crate) faults: Option<FaultInjector>,
    /// Checkpoint/recovery policy for the Pregel backend. `None` means
    /// fail-fast.
    pub(crate) recovery: Option<RecoveryPolicy>,
    /// Flight-recorder handle shared by every run of this plan. Each run
    /// executes under its own trace epoch ([`TraceHandle::next_epoch`]),
    /// so repeated runs append distinguishable event groups to one sink.
    pub(crate) trace: TraceHandle,
    /// Shuffle transport both backends exchange sealed shards through
    /// (in-process unless the builder set one). Bit-identical by contract,
    /// so it never feeds the estimate or backend auto-selection — only
    /// `RunReport::wire_bytes` differs.
    pub(crate) transport: Arc<dyn Transport>,
    /// The planned graph, in the form the backend's runs load.
    pub(crate) loadable: Loadable,
    pub(crate) bc_threshold: u64,
    pub(crate) hubs: usize,
    pub(crate) mirrors: usize,
    pub(crate) estimate: PlanEstimate,
    /// Pooled Pregel engine scratch, carried across runs. `None` until the
    /// first Pregel run returns it (or after a failed run dropped it).
    scratch: Mutex<Option<ScratchPool>>,
}

/// The shadow-transformed graph as a plan holds it: once, laid out for
/// the engines, or not at all.
pub(crate) enum Loadable {
    /// `Backend::Reference` reads `(model, graph)` and plans nothing.
    Nothing,
    /// The graph a Pregel run loads its vertex states from.
    Pregel(Laid),
    /// The same graph a MapReduce run's map tasks read, plus the counts
    /// only that backend sizes its buffers from.
    MapReduce(Laid, Box<MapSplit>),
}

/// The engines' layout of every record (placement, id index, pre-resolved
/// routes), shared by every run, the rows each (sender, destination) cell
/// of a round takes under the hub rule (buffers are reserved from them),
/// and each node's logical degrees, which its mirrors share. A run reads
/// raw features from the graph (or the caller's matrix), so no record is
/// built.
pub(crate) struct Laid {
    pub(crate) layout: Arc<Layout>,
    pub(crate) cells: CellCounts,
    pub(crate) in_deg: Vec<u32>,
    pub(crate) out_deg: Vec<u32>,
}

impl Loadable {
    /// Loadable records (nodes + mirrors).
    fn records(&self) -> usize {
        match self {
            Loadable::Nothing => 0,
            Loadable::Pregel(laid) | Loadable::MapReduce(laid, _) => laid.layout.n_vertices(),
        }
    }
}

impl std::fmt::Debug for InferencePlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferencePlan")
            .field("backend", &self.backend)
            .field("workers", &self.workers)
            .field("records", &self.loadable.records())
            .field("mirrors", &self.mirrors)
            .field("hubs", &self.hubs)
            .field("bc_threshold", &self.bc_threshold)
            .finish_non_exhaustive()
    }
}

impl<'a> InferencePlan<'a> {
    /// Planning stage: validate the builder's configuration, resolve its
    /// defaults (an unset knob is off — see [`SessionBuilder`]), apply the
    /// graph transforms and build the cost estimate.
    pub(crate) fn build(b: SessionBuilder<'a>) -> Result<InferencePlan<'a>> {
        let model = b
            .model
            .ok_or_else(|| Error::InvalidConfig("session needs a model".into()))?;
        let graph = b
            .graph
            .ok_or_else(|| Error::InvalidConfig("session needs a graph".into()))?;
        if graph.node_feat_dim() != model.in_dim() {
            return Err(Error::InvalidConfig(format!(
                "graph features ({}) do not match model input ({})",
                graph.node_feat_dim(),
                model.in_dim()
            )));
        }
        let strategy = b.strategy;
        let requested = b.backend;
        let pregel_spec = b
            .pregel_spec
            .unwrap_or_else(|| ClusterSpec::pregel_cluster(b.workers));
        let mapreduce_spec = b
            .mapreduce_spec
            .unwrap_or_else(|| ClusterSpec::mapreduce_cluster(b.workers));
        // The planning worker count drives the hub threshold and the
        // shadow transform, so it must be the cluster the run actually
        // lands on.
        let workers = match requested {
            Backend::Pregel | Backend::Reference => pregel_spec.workers,
            Backend::MapReduce => mapreduce_spec.workers,
            Backend::Auto => {
                if pregel_spec.workers != mapreduce_spec.workers {
                    return Err(Error::InvalidConfig(format!(
                        "Backend::Auto needs matching worker counts to plan \
                         (pregel {}, mapreduce {}); set .workers(..) or force a backend",
                        pregel_spec.workers, mapreduce_spec.workers
                    )));
                }
                pregel_spec.workers
            }
        };
        if workers == 0 {
            return Err(Error::InvalidConfig(
                "cluster needs at least one worker".into(),
            ));
        }
        let memory_budget = b.memory_budget.unwrap_or(pregel_spec.memory_bytes);
        let spill = b
            .spill_budget
            .map(|bytes| SpillPolicy::new(b.spill_dir.unwrap_or_else(std::env::temp_dir), bytes));
        // Broadcast pays one payload per worker instead of one per
        // out-edge, so it only wins when out-degree exceeds the worker
        // count; at the paper's scale (λ·|E|/W = 100k ≫ W = 1000) the
        // heuristic threshold implies this, but scaled-down graphs need
        // the guard made explicit.
        let bc_threshold = strategy
            .threshold(graph.n_edges(), workers)
            .max(workers as u64);
        // The reference path reads only (model, graph): skip the cluster
        // transforms so `infer_reference` in training/eval loops stays a
        // plain forward pass. Its plan reports zero records/estimate.
        let adjacency = if requested == Backend::Reference {
            ShadowAdjacency::default()
        } else {
            ShadowAdjacency::build(graph, &strategy, workers)
        };
        let mirrors = adjacency.len().saturating_sub(graph.n_nodes());
        let hubs = adjacency
            .out_deg
            .iter()
            .filter(|&&d| d as u64 > bc_threshold)
            .count();
        // Both cluster backends run over a layout. Placing every record
        // and resolving every target to a route happens here, so a target
        // that names no record is an `Error::InvalidGraph` at plan time
        // rather than a failed round.
        let layout = match requested {
            Backend::Reference => None,
            _ => Some(Layout::planned(workers, adjacency.records())?),
        };
        // Every cell of a round, counted once under the engines' hub rule:
        // a hub broadcasts, so it sends a typed ref per edge, not a row.
        let hub = |at: usize| strategy.broadcasts(adjacency.degrees(at).1, bc_threshold);
        let cells = layout.as_ref().map(|layout| layout.cell_counts(hub));
        // A plan asked for MapReduce keeps the estimate's workers × records
        // bound on fused rows: counting them from the cells changes that
        // backend's prediction, a change of its own.
        let estimate = build_estimate(
            model,
            &adjacency,
            cells.as_ref().filter(|_| requested != Backend::MapReduce),
            &strategy,
            workers,
            bc_threshold,
            spill.as_ref().map(|p| p.budget_bytes),
        );
        let backend = match requested {
            Backend::Auto => {
                // The paper's §IV-A trade-off, encoded: Pregel keeps state
                // resident and wins when it fits; MapReduce streams and is
                // the fallback when it does not.
                if estimate.pregel_fits(memory_budget) {
                    Backend::Pregel
                } else {
                    Backend::MapReduce
                }
            }
            b => b,
        };
        // Keep the layout and the degrees; the flat adjacency goes.
        let loadable = match layout.zip(cells) {
            Some((layout, cells)) => {
                let split = match backend {
                    Backend::MapReduce => Some(Box::new(MapSplit::plan(&layout, hub)?)),
                    _ => None,
                };
                let laid = Laid {
                    layout: Arc::new(layout),
                    cells,
                    in_deg: adjacency.in_deg,
                    out_deg: adjacency.out_deg,
                };
                match split {
                    Some(split) => Loadable::MapReduce(laid, split),
                    None => Loadable::Pregel(laid),
                }
            }
            None => Loadable::Nothing,
        };
        Ok(InferencePlan {
            model,
            graph,
            strategy,
            requested,
            backend,
            pregel_spec,
            mapreduce_spec,
            memory_budget,
            spill,
            workers,
            faults: b.fault_plan.filter(|p| !p.is_empty()).map(|p| p.injector()),
            recovery: b.recovery,
            trace: b.trace,
            transport: b.transport.unwrap_or_else(|| Arc::new(InProcess)),
            loadable,
            bc_threshold,
            hubs,
            mirrors,
            estimate,
            scratch: Mutex::new(None),
        })
    }

    /// The concrete backend this plan executes on (auto-selection already
    /// resolved; never [`Backend::Auto`]).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The plan's predicted cost profile (per-layer bytes by plane, peak
    /// per-worker memory for both backends).
    pub fn estimate(&self) -> &PlanEstimate {
        &self.estimate
    }

    /// The resolved hub threshold (logical out-degree above which a node
    /// broadcasts / is mirrored).
    pub fn hub_threshold(&self) -> u64 {
        self.bc_threshold
    }

    /// The strategy configuration this plan was built with.
    pub fn strategy(&self) -> StrategyConfig {
        self.strategy
    }

    /// Planning worker count (the chosen backend's cluster size).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The per-worker memory budget auto-selection compared against.
    pub fn memory_budget(&self) -> u64 {
        self.memory_budget
    }

    /// The out-of-core spill policy the Pregel backend runs under, if one
    /// was configured.
    pub fn spill(&self) -> Option<&SpillPolicy> {
        self.spill.as_ref()
    }

    /// One-page inspection of everything planning decided.
    pub fn summary(&self) -> PlanSummary {
        PlanSummary {
            backend: self.backend,
            requested: self.requested,
            workers: self.workers,
            n_nodes: self.graph.n_nodes(),
            n_edges: self.graph.n_edges(),
            records: self.loadable.records(),
            mirrors: self.mirrors,
            hubs: self.hubs,
            hub_threshold: self.bc_threshold,
            memory_budget: self.memory_budget,
            spill_budget: self.spill.as_ref().map(|p| p.budget_bytes),
            estimate: self.estimate.clone(),
        }
    }

    /// Execute the plan. Repeated calls are bit-identical to each other
    /// and to a fresh plan of the same configuration; all planning work is
    /// skipped.
    pub fn run(&self) -> Result<InferenceOutput> {
        self.run_inner(None)
    }

    /// Execute the plan with a fresh feature matrix (row `v` replaces node
    /// `v`'s raw features). The graph structure, strategy transforms, and
    /// backend choice are reused as planned.
    pub fn run_with_features(&self, features: &[Vec<f32>]) -> Result<InferenceOutput> {
        if features.len() != self.graph.n_nodes() {
            return Err(Error::InvalidConfig(format!(
                "feature matrix has {} rows for {} nodes",
                features.len(),
                self.graph.n_nodes()
            )));
        }
        if let Some(bad) = features.iter().find(|f| f.len() != self.model.in_dim()) {
            return Err(Error::InvalidConfig(format!(
                "feature row width {} does not match model input ({})",
                bad.len(),
                self.model.in_dim()
            )));
        }
        self.run_inner(Some(features))
    }

    fn run_inner(&self, features: Option<&[Vec<f32>]>) -> Result<InferenceOutput> {
        // Every run gets its own epoch so traces of repeated runs over one
        // plan (the serving path) stay separable and byte-stable.
        let trace = self.trace.next_epoch();
        match self.backend {
            Backend::Pregel => {
                // Poison recovery: the pool is plain reusable buffers with no
                // cross-field invariants, so a panicked holder leaves it
                // usable — recover the guard rather than propagate the abort.
                let pool = self
                    .scratch
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .take();
                let (out, pool) = pregel_backend::run_planned(self, features, trace, pool)?;
                *self
                    .scratch
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(pool);
                Ok(out)
            }
            Backend::MapReduce => mr_backend::run_planned(self, features, trace),
            Backend::Reference => Ok(InferenceOutput {
                logits: reference_logits(self.model, self.graph, features),
                // The reference path models no cluster: an empty report on
                // a single fat worker.
                report: RunReport::new(ClusterSpec::pregel_cluster(1)),
            }),
            Backend::Auto => Err(Error::Internal(
                "Backend::Auto must be resolved at plan time".into(),
            )),
        }
    }
}

/// Everything [`InferencePlan::summary`] exposes, with a human-readable
/// `Display`.
#[derive(Debug, Clone)]
pub struct PlanSummary {
    pub backend: Backend,
    pub requested: Backend,
    pub workers: usize,
    pub n_nodes: usize,
    pub n_edges: usize,
    /// Loadable records (nodes + mirrors).
    pub records: usize,
    /// Shadow mirrors created beyond the original nodes.
    pub mirrors: usize,
    /// Nodes whose logical out-degree exceeds the hub threshold.
    pub hubs: usize,
    pub hub_threshold: u64,
    /// Per-worker memory budget auto-selection compared against.
    pub memory_budget: u64,
    /// Out-of-core spill budget per worker, when configured (see
    /// `SessionBuilder::spill_budget`).
    pub spill_budget: Option<u64>,
    pub estimate: PlanEstimate,
}

impl PlanSummary {
    /// Convert into the unified metrics registry (see
    /// [`inferturbo_obs::MetricsRegistry`]). `Display` renders this.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.section("plan");
        reg.counter("plan.workers", self.workers as u64)
            .label("backend", format!("{:?}", self.backend))
            .label("requested", format!("{:?}", self.requested));
        reg.section("graph");
        reg.counter("graph.nodes", self.n_nodes as u64)
            .counter("graph.edges", self.n_edges as u64)
            .counter("graph.records", self.records as u64)
            .counter("graph.mirrors", self.mirrors as u64)
            .counter("graph.hubs", self.hubs as u64)
            .counter("graph.hub_threshold", self.hub_threshold);
        reg.section("memory");
        reg.counter("memory.budget_bytes", self.memory_budget)
            .counter(
                "memory.pregel_peak_worker_bytes",
                self.estimate.pregel_peak_worker_bytes,
            )
            .counter(
                "memory.mapreduce_peak_worker_bytes",
                self.estimate.mapreduce_peak_worker_bytes,
            );
        if let Some(budget) = self.spill_budget {
            reg.section("spill");
            reg.counter("spill.resident_window_bytes", budget).counter(
                "spill.paged_at_peak_bytes",
                self.estimate.pregel_spilled_worker_bytes,
            );
        }
        for l in &self.estimate.layers {
            reg.section(format!("layer {}", l.layer));
            let tag = l.layer.to_string();
            reg.counter("layer.msg_dim", l.msg_dim as u64)
                .label("layer", tag.clone());
            reg.counter("layer.columnar_bytes", l.columnar_bytes)
                .label("layer", tag.clone());
            reg.counter("layer.legacy_bytes", l.legacy_bytes)
                .label("layer", tag.clone());
            reg.counter(
                "layer.mapreduce_selfstate_bytes",
                l.mapreduce_selfstate_bytes,
            )
            .label("layer", tag);
        }
        reg.section("totals");
        reg.counter(
            "totals.pregel_total_bytes",
            self.estimate.pregel_total_bytes(),
        )
        .counter(
            "totals.mapreduce_total_bytes",
            self.estimate.mapreduce_total_bytes(),
        )
        .counter(
            "totals.pregel_wire_bytes",
            self.estimate.pregel_wire_bytes(self.workers),
        )
        .counter(
            "totals.mapreduce_wire_bytes",
            self.estimate.mapreduce_wire_bytes(self.workers),
        );
        reg
    }
}

impl std::fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.metrics().render_text().trim_end())
    }
}

/// Varint length of a wire id: every id carries `NODE_FLAG` (bit 63), so
/// it always encodes in exactly 10 bytes.
const WIRE_ID_LEN: u64 = 10;

/// Build the plan's cost estimate from the shadow-transformed adjacency and
/// the planned layout's cell counts. All quantities are *predictions* in
/// the same units the engines measure: close enough to steer backend
/// choice and to sanity-check a run's report, not byte-exact — except the
/// row *record* count, which is the sum of `cells` when the plan has them
/// (the Pregel backend) and is then exactly what a run reports. Under
/// `spill_budget`, a layer's columnar inbox counts only its bounded
/// resident window toward the Pregel peak — the remainder is reported on
/// the spilled plane.
fn build_estimate(
    model: &GnnModel,
    adjacency: &ShadowAdjacency,
    cells: Option<&CellCounts>,
    strategy: &StrategyConfig,
    workers: usize,
    bc_threshold: u64,
    spill_budget: Option<u64>,
) -> PlanEstimate {
    let k = model.n_layers();
    let n_w = workers.max(1);
    let in_dim = model.in_dim();
    let max_out = (0..k)
        .map(|l| model.layer_view(l).annotations().out_dim)
        .max()
        .unwrap_or(0);
    let logits_len = model.classes();

    // Per-worker residency, using the engines' own hash partitioning and
    // the same per-vertex accounting as the Pregel program's state_bytes.
    let mut state_bytes = vec![0u64; n_w];
    let mut slots = vec![0u64; n_w];
    let mut in_rows = vec![0u64; n_w];
    let mut max_in = vec![0u64; n_w];
    let mut max_group_floats = 0u64;
    // Per-layer traffic is split hub vs non-hub by the engines' hub rule.
    // A message depends on its source alone, so the split is the same on
    // every layer.
    let (mut hub_records, mut hub_edges) = (0u64, 0u64);
    for (i, (wire, targets)) in adjacency.records().enumerate() {
        let w = partition_of(wire, n_w);
        let n_targets = targets.len();
        let (in_deg, out_deg) = adjacency.degrees(i);
        state_bytes[w] += ((in_dim + max_out + logits_len) * 4 + n_targets * 8 + 64) as u64;
        slots[w] += 1;
        in_rows[w] += in_deg as u64;
        max_in[w] = max_in[w].max(in_deg as u64);
        max_group_floats = max_group_floats.max(in_deg as u64 + 1);
        if strategy.broadcasts(out_deg, bc_threshold) {
            hub_records += 1;
            hub_edges += n_targets as u64;
        }
    }
    let n_records = adjacency.len() as u64;
    let total_targets = adjacency.n_targets() as u64;
    let row_edges = total_targets - hub_edges;
    let mut layers = Vec::with_capacity(k);
    let mut max_inbox = 0u64;
    let mut max_spilled = 0u64;
    for l in 0..k {
        let view = model.layer_view(l);
        let d = view.annotations().msg_dim;
        let fused = strategy.partial_gather && view.row_aggregator().is_some();

        // Row traffic: one row per non-hub edge, or — fused — one partial
        // per distinct (sender worker, destination) pair: the grid's cells
        // summed, or without them bounded by workers × records.
        let row_records = match (fused, cells) {
            (false, Some(cells)) => cells.total_refs(),
            (false, None) => row_edges,
            (true, Some(cells)) => cells.total_partials(),
            (true, None) => row_edges.min(n_w as u64 * n_records),
        };
        let row_len = row_payload_len(d, fused.then_some(1)) as u64 + WIRE_ID_LEN;
        let row_bytes = row_records * row_len;
        // Hub traffic: one payload per worker plus an 8-byte ref per edge
        // (both on the typed plane).
        let payload_len = row_payload_len(d, None) as u64 + varint_len(0) as u64;
        let hub_bytes =
            hub_records * (n_w as u64) * payload_len + hub_edges * (1 + 2 * WIRE_ID_LEN);

        // MapReduce re-shuffles every record's self-state each round: the
        // current embedding plus the out-edge table.
        let h_dim = if l == 0 {
            in_dim
        } else {
            model.layer_view(l - 1).annotations().out_dim
        };
        let selfstate_bytes =
            n_records * (WIRE_ID_LEN + 4 * h_dim as u64 + 8) + WIRE_ID_LEN * total_targets;

        // Pregel inbox residency for this layer's gather: row data (the
        // dense fused accumulators, or the materialized per-edge rows)
        // plus the always-resident metadata (counts / offsets). Under a
        // spill budget the row data caps at the resident window; the rest
        // is the spilled plane.
        let (inbox, spilled) = (0..n_w)
            .map(|w| {
                // Window floor: the fattest single read the drain issues —
                // one hub slot's materialized rows, or one accumulator row
                // fused — matching the engine's seal-time charge (the
                // budget is a soft target).
                let (row_data, meta, min_window) = if fused {
                    (slots[w] * d as u64 * 4, slots[w] * 4, d as u64 * 4)
                } else {
                    (
                        in_rows[w] * d as u64 * 4,
                        slots[w] * 4,
                        max_in[w] * d as u64 * 4,
                    )
                };
                match spill_budget {
                    Some(b) if row_data > b => {
                        let window = b.max(min_window).min(row_data);
                        (window + meta, row_data - window)
                    }
                    _ => (row_data + meta, 0),
                }
            })
            .fold((0u64, 0u64), |(ri, sp), (i, s)| (ri.max(i), sp.max(s)));
        max_inbox = max_inbox.max(inbox);
        max_spilled = max_spilled.max(spilled);

        layers.push(LayerEstimate {
            layer: l,
            msg_dim: d,
            columnar_bytes: row_bytes,
            legacy_bytes: hub_bytes,
            mapreduce_selfstate_bytes: selfstate_bytes,
        });
    }

    let pregel_peak = state_bytes
        .iter()
        .max()
        .copied()
        .unwrap_or(0)
        .saturating_add(max_inbox);
    // A reducer streams one key group at a time: self-state + gathered
    // rows of the widest gather.
    let max_dim = (0..k)
        .map(|l| model.layer_view(l).annotations().msg_dim)
        .max()
        .unwrap_or(0)
        .max(in_dim);
    let mapreduce_peak = max_group_floats * max_dim as u64 * 4 + 256;

    PlanEstimate {
        layers,
        pregel_peak_worker_bytes: pregel_peak,
        pregel_spilled_worker_bytes: max_spilled,
        mapreduce_peak_worker_bytes: mapreduce_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PoolOp;
    use crate::session::InferenceSession;
    use crate::strategy::NodeRecord;
    use inferturbo_common::codec::varint_seq_len;
    use inferturbo_common::layout::Route;
    use inferturbo_common::Parallelism;
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};
    use inferturbo_obs::Payload;
    use inferturbo_pregel::CellKind;
    use proptest::prelude::*;

    fn graph() -> Graph {
        generate(&GenConfig {
            n_nodes: 200,
            n_edges: 1_500,
            feat_dim: 6,
            classes: 3,
            skew: DegreeSkew::Out,
            seed: 21,
            ..GenConfig::default()
        })
    }

    #[test]
    fn summary_reports_mirrors_hubs_and_bytes() {
        let g = graph();
        let m = GnnModel::sage(6, 8, 2, 3, false, PoolOp::Mean, 3);
        let plan = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .strategy(StrategyConfig::all().with_threshold(8))
            .backend(Backend::Pregel)
            .plan()
            .unwrap();
        let s = plan.summary();
        assert_eq!(s.n_nodes, 200);
        assert!(s.mirrors > 0, "out-skewed graph must mirror hubs");
        assert!(s.hubs > 0);
        assert_eq!(s.records, 200 + s.mirrors);
        assert_eq!(s.estimate.layers.len(), 2);
        for l in &s.estimate.layers {
            assert!(l.pregel_bytes() > 0);
            assert!(l.mapreduce_bytes() > l.pregel_bytes());
        }
        let text = s.to_string();
        assert!(text.contains("mirrors"), "{text}");
        assert!(text.contains("layer 0"), "{text}");
    }

    #[test]
    fn fused_estimate_is_below_materialized() {
        // Fusion caps the columnar plane at one partial per
        // (sender worker, destination slot); the prediction only drops
        // below the per-edge count when avg degree ≫ workers, so use the
        // dense shape the measured O(V·d) test uses.
        let g = generate(&GenConfig {
            n_nodes: 150,
            n_edges: 6_000,
            feat_dim: 6,
            classes: 3,
            skew: DegreeSkew::In,
            seed: 13,
            ..GenConfig::default()
        });
        let m = GnnModel::sage(6, 8, 2, 3, false, PoolOp::Mean, 3);
        let fused = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .strategy(StrategyConfig::all())
            .backend(Backend::Pregel)
            .plan()
            .unwrap();
        let mat = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .strategy(StrategyConfig::all().with_partial_gather(false))
            .backend(Backend::Pregel)
            .plan()
            .unwrap();
        assert!(
            fused.estimate().pregel_total_bytes() < mat.estimate().pregel_total_bytes(),
            "fusion must shrink the predicted columnar volume"
        );
    }

    #[test]
    fn an_out_target_naming_no_record_fails_at_plan_time() {
        // The shadow transform never produces one, so corrupt the flat
        // adjacency on its way into the layout stage of `plan()`, which
        // must refuse it, typed, before any superstep exists to fail.
        let g = graph();
        let adjacency = ShadowAdjacency::build(&g, &StrategyConfig::all(), 4);
        let victim = (0..adjacency.len())
            .find(|&i| !adjacency.targets(i).is_empty())
            .unwrap();
        let unknown = [crate::strategy::wire_id(9_999, 0)];
        let corrupted = adjacency
            .records()
            .enumerate()
            .map(|(i, (wire, targets))| (wire, if i == victim { &unknown[..] } else { targets }));
        let err = Layout::planned(4, corrupted).unwrap_err();
        assert!(matches!(err, Error::InvalidGraph(_)), "{err}");
        assert!(
            err.to_string().contains("message to unknown vertex"),
            "{err}"
        );
        // Same for a record loaded twice.
        let twice = adjacency.records().chain(adjacency.records().take(1));
        let err = Layout::planned(4, twice).unwrap_err();
        assert!(matches!(err, Error::InvalidGraph(_)), "{err}");
        assert!(err.to_string().contains("duplicate vertex id"), "{err}");
    }

    /// The records the shadow transform produced before it became one pass
    /// over a flat adjacency: per-node mirror counts, then one target list
    /// per record grown edge by edge in out-CSR order. The oracle
    /// `prop_one_pass_plans_the_layout_the_records_did` holds the one-pass
    /// transform to.
    fn records_by_two_walks(
        g: &Graph,
        strategy: &StrategyConfig,
        workers: usize,
    ) -> Vec<NodeRecord> {
        use crate::strategy::wire_id;
        let (in_deg, out_deg) = (g.in_degrees(), g.out_degrees());
        let threshold = strategy.threshold(g.n_edges(), workers);
        let groups: Vec<u32> = out_deg
            .iter()
            .map(|&d| {
                if strategy.shadow_nodes && d as u64 > threshold {
                    (d as u64).div_ceil(threshold) as u32
                } else {
                    1
                }
            })
            .collect();
        let out_csr = inferturbo_graph::Csr::out_of(g);
        let mut records = Vec::new();
        for v in 0..g.n_nodes() as u32 {
            let g_v = groups[v as usize];
            let mut targets = vec![Vec::new(); g_v as usize];
            for (j, &u) in out_csr.neighbors(v).iter().enumerate() {
                for mu in 0..groups[u as usize] {
                    targets[j % g_v as usize].push(wire_id(u, mu));
                }
            }
            for (m, t) in targets.into_iter().enumerate() {
                records.push(NodeRecord {
                    wire: wire_id(v, m as u32),
                    base: v,
                    raw: g.node_feat(v).to_vec(),
                    out_targets: t.into(),
                    in_deg: in_deg[v as usize],
                    out_deg: out_deg[v as usize],
                });
            }
        }
        records
    }

    /// A layout as its public surface shows it: every worker's slot table,
    /// then every vertex's id, load position and routes in engine order.
    type LayoutImage = (Vec<Vec<u64>>, Vec<(u64, usize, Vec<Route>)>);

    fn layout_image(layout: &Layout) -> LayoutImage {
        let slots = (0..layout.n_workers())
            .map(|w| layout.ids(w).to_vec())
            .collect();
        let vertices = layout
            .vertices()
            .map(|v| (v.id, v.position, v.edges.to_vec()))
            .collect();
        (slots, vertices)
    }

    #[test]
    fn estimate_tracks_measured_peak_within_a_small_factor() {
        // The prediction feeds a go/no-go memory decision; it must land in
        // the same ballpark as the engine's measured residency.
        let g = graph();
        let m = GnnModel::sage(6, 8, 2, 3, false, PoolOp::Mean, 3);
        let plan = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .strategy(StrategyConfig::all())
            .backend(Backend::Pregel)
            .plan()
            .unwrap();
        let predicted = plan.estimate().pregel_peak_worker_bytes;
        let measured = plan.run().unwrap().report.max_mem_peak();
        assert!(
            predicted >= measured / 4 && predicted <= measured.saturating_mul(4),
            "predicted {predicted} vs measured {measured}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The one-pass shadow transform plans what the records did: every
        /// cluster plan's layout — Pregel, MapReduce, or whichever `Auto`
        /// picks — has the slot tables and per-vertex routes
        /// `Layout::planned` lays out over the two-walk records, its
        /// degrees are theirs, and a MapReduce plan charges each record's
        /// targets the bytes the record encodes them in; and every record
        /// `build_node_records` returns is its slice of the flat adjacency.
        /// Thresholds go low enough to mirror most nodes, graphs down to
        /// no edges, and workers past the node count.
        #[test]
        fn prop_one_pass_plans_the_layout_the_records_did(
            n in 1usize..60,
            degree in 0usize..7,
            skew_sel in 0u8..3,
            workers in 1usize..10,
            shadow_sel in 0u8..4,
            threshold in 1u32..6,
            backend_sel in 0u8..3,
            seed in 0u64..1_000_000,
        ) {
            let g = generate(&GenConfig {
                n_nodes: n,
                n_edges: n * degree,
                feat_dim: 3,
                classes: 2,
                skew: [DegreeSkew::In, DegreeSkew::Out, DegreeSkew::None][skew_sel as usize],
                seed,
                ..GenConfig::default()
            });
            let strategy = StrategyConfig::all()
                .with_shadow_nodes(shadow_sel != 0)
                .with_threshold(threshold);
            let expected = records_by_two_walks(&g, &strategy, workers);
            let adjacency = ShadowAdjacency::build(&g, &strategy, workers);
            let records = crate::strategy::build_node_records(&g, &strategy, workers).unwrap();
            prop_assert_eq!(&records, &expected);
            prop_assert_eq!(adjacency.len(), records.len());
            for (i, ((wire, targets), rec)) in adjacency.records().zip(&records).enumerate() {
                prop_assert_eq!(wire, rec.wire);
                prop_assert_eq!(targets, &*rec.out_targets);
                prop_assert_eq!(adjacency.degrees(i), (rec.in_deg, rec.out_deg));
            }

            let m = GnnModel::sage(3, 4, 2, 2, false, PoolOp::Mean, seed);
            let backend = [Backend::Pregel, Backend::Auto, Backend::MapReduce][backend_sel as usize];
            let plan = InferenceSession::builder()
                .model(&m)
                .graph(&g)
                .workers(workers)
                .strategy(strategy)
                .backend(backend)
                .plan()
                .unwrap();
            prop_assert_eq!(plan.summary().records, expected.len());
            let (laid, split) = match &plan.loadable {
                Loadable::Pregel(laid) => (laid, None),
                Loadable::MapReduce(laid, split) => (laid, Some(split)),
                Loadable::Nothing => panic!("a cluster plan holds its graph"),
            };
            prop_assert_eq!(split.is_some(), plan.backend() == Backend::MapReduce);
            prop_assert!(backend != Backend::MapReduce || split.is_some());
            let oracle = Layout::planned(
                workers,
                expected.iter().map(|r| (r.wire, &*r.out_targets)),
            )
            .unwrap();
            prop_assert_eq!(layout_image(&laid.layout), layout_image(&oracle));
            for (p, rec) in expected.iter().enumerate() {
                let base = rec.base as usize;
                prop_assert_eq!(
                    (laid.in_deg[base], laid.out_deg[base]),
                    (rec.in_deg, rec.out_deg)
                );
                // A MapReduce plan charges each record's targets what the
                // record's own encoding takes for them.
                if let Some(split) = split {
                    prop_assert_eq!(
                        split.target_lens[p] as usize,
                        varint_seq_len(&rec.out_targets)
                    );
                }
            }
        }

        /// A Pregel plan sizes every cell of a superstep's shard grid once,
        /// from its layout under the hub rule, and a run writes exactly
        /// that: per layer the cell counts sum to the estimate's row
        /// records and to the rows the run's exchange carries, and the
        /// typed references to the typed messages it seals; every
        /// pooled cell is reserved at its count (times the widest row the
        /// run declares on its plane; a fused wave slot at the largest
        /// count of the senders it hosts), so none grew while it was
        /// written; and a second run of the plan reallocates no cell at
        /// all.
        ///
        /// A MapReduce plan of the same configuration counts its buffers
        /// from the same layout: every mapper's and reducer's row cells and
        /// typed output vector, and every reducer's row groups. A debug
        /// build's engine checks each buffer against its count as it is
        /// finished (it holds exactly its planned count at its reserved
        /// capacity), and here each round's records sum to the counts: the
        /// typed records planned plus the cells' rows, fused partials or
        /// references.
        /// Thresholds go low enough to force hubs and mirrors, graphs down
        /// to no edges, and workers past the node count.
        #[test]
        fn prop_planned_cells_hold_what_a_run_writes(
            n in 2usize..60,
            degree in 0usize..8,
            skew_sel in 0u8..3,
            model_sel in 0u8..3,
            workers in 1usize..10,
            toggles in 0u8..8,
            threshold in 1u32..6,
            threads_sel in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let g = generate(&GenConfig {
                n_nodes: n,
                n_edges: n * degree,
                feat_dim: 4,
                classes: 3,
                skew: [DegreeSkew::In, DegreeSkew::Out, DegreeSkew::None][skew_sel as usize],
                seed,
                ..GenConfig::default()
            });
            let m = match model_sel {
                0 => GnnModel::sage(4, 6, 2, 3, false, PoolOp::Mean, seed),
                1 => GnnModel::gcn(4, 6, 2, 3, false, seed),
                _ => GnnModel::gat(4, 6, 2, 2, 3, false, seed),
            };
            let strategy = StrategyConfig::none()
                .with_partial_gather(toggles & 1 != 0)
                .with_broadcast(toggles & 2 != 0)
                .with_shadow_nodes(toggles & 4 != 0)
                .with_threshold(threshold);
            let trace = TraceHandle::recording();
            let plan = InferenceSession::builder()
                .model(&m)
                .graph(&g)
                .workers(workers)
                .strategy(strategy)
                .backend(Backend::Pregel)
                .trace(trace.clone())
                .plan()
                .unwrap();
            let Loadable::Pregel(Laid { layout, cells, .. }) = &plan.loadable else {
                panic!("a Pregel plan holds its layout");
            };
            let threads = [1usize, 2, 3, 4][threads_sel];
            Parallelism::with(threads, || plan.run()).unwrap();
            let (carried, typed): (Vec<u64>, Vec<u64>) = trace
                .events()
                .iter()
                .filter_map(|e| match &e.payload {
                    Payload::Transport { rows, legacy_records, .. } => Some((*rows, *legacy_records)),
                    _ => None,
                })
                .unzip();
            let n = layout.n_workers();
            let typed_refs: usize = (0..n * n).map(|c| cells.typed_refs(c / n, c % n)).sum();
            let (mut widest_rows, mut widest_fused) = (0, 0);
            for (l, est) in plan.estimate().layers.iter().enumerate() {
                let fused = strategy.partial_gather && m.layer_view(l).row_aggregator().is_some();
                let (widest, summed) = if fused {
                    (&mut widest_fused, cells.total_partials())
                } else {
                    (&mut widest_rows, cells.total_refs())
                };
                *widest = est.msg_dim.max(*widest);
                let row_len = row_payload_len(est.msg_dim, fused.then_some(1)) as u64 + WIRE_ID_LEN;
                prop_assert_eq!(est.columnar_bytes, summed * row_len, "layer {}", l);
                prop_assert_eq!(summed, carried[l], "layer {} carried", l);
                prop_assert_eq!(typed_refs as u64, typed[l], "layer {} typed", l);
            }
            let pooled = || {
                let pool = plan.scratch.lock().unwrap();
                let mut cells = pool.as_ref().expect("a run returns its pool").cells();
                cells.sort_by_key(|c| (format!("{:?}", c.kind), c.sender, c.addr));
                cells
            };
            let first = pooled();
            // In process a fused grid computes in waves of `threads`
            // senders: its row `w` is a wave slot, reserved for the largest
            // of the senders it hosts.
            let wave = threads.min(n);
            let partials = |w: usize, w2: usize| {
                (w..n).step_by(wave).map(|s| cells.partials(s, w2)).max().unwrap_or(0)
            };
            for c in &first {
                let w = c.sender;
                let planned = match c.kind {
                    CellKind::Table => cells.table_rows(w) * widest_rows,
                    CellKind::Refs(w2) => cells.refs(w, w2),
                    CellKind::Keys(w2) | CellKind::Counts(w2) => partials(w, w2),
                    CellKind::Lanes(w2) => partials(w, w2) * widest_fused,
                    CellKind::TypedRefs(w2) => cells.typed_refs(w, w2),
                    CellKind::Sent => layout.n_slots(w),
                };
                prop_assert_eq!(c.capacity, planned, "{:?}", c);
            }
            Parallelism::with(threads, || plan.run()).unwrap();
            prop_assert_eq!(pooled(), first, "a second run reallocated a cell");

            let plan = InferenceSession::builder()
                .model(&m)
                .graph(&g)
                .workers(workers)
                .strategy(strategy)
                .backend(Backend::MapReduce)
                .plan()
                .unwrap();
            let Loadable::MapReduce(laid, split) = &plan.loadable else {
                panic!("a MapReduce plan holds its layout");
            };
            // The engine's check panics; the case that breaks it is
            // reported with its inputs.
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Parallelism::with(threads, || plan.run())
            }));
            prop_assert!(run.is_ok(), "a MapReduce buffer broke its planned count");
            let out = run.unwrap().unwrap();
            let k = m.n_layers();
            for (r, phase) in out.report.phases.iter().enumerate() {
                let fused = r < k && strategy.partial_gather && m.layer_view(r).row_aggregator().is_some();
                let rows = |cells: &CellCounts| if fused { cells.total_partials() } else { cells.total_refs() };
                let (typed, rows) = match r {
                    0 => (&split.typed_map, rows(&split.cells)),
                    r if r < k => (&split.typed_reduce, rows(&laid.cells)),
                    _ => (&split.outputs, 0),
                };
                let records: u64 = phase.per_worker.iter().map(|p| p.records_out).sum();
                prop_assert_eq!(
                    records,
                    typed.iter().sum::<usize>() as u64 + rows,
                    "round {}", r
                );
            }
        }

        /// A Pregel plan predicts its row traffic from its own layout, so
        /// the prediction is not a bound but the count: for every layer,
        /// on every model and strategy, the rows the estimate charges are
        /// the rows the run's exchange carries — fused partials (one per
        /// distinct sender worker × destination) or one row per non-hub
        /// edge. Bytes then differ only by the fold-count varint. The
        /// estimate and the run classify hubs by the same rule, so the
        /// estimate charges typed-plane bytes exactly when the run ships
        /// some.
        #[test]
        fn prop_predicted_row_records_equal_the_runs(
            n in 8usize..70,
            degree in 1usize..9,
            skew_sel in 0u8..3,
            model_sel in 0u8..3,
            workers in 1usize..7,
            toggles in 0u8..8,
            threshold in 2u32..12,
            seed in 0u64..1_000_000,
        ) {
            let g = generate(&GenConfig {
                n_nodes: n,
                n_edges: n * degree,
                feat_dim: 4,
                classes: 3,
                skew: [DegreeSkew::In, DegreeSkew::Out, DegreeSkew::None][skew_sel as usize],
                seed,
                ..GenConfig::default()
            });
            let m = match model_sel {
                0 => GnnModel::sage(4, 6, 2, 3, false, PoolOp::Mean, seed),
                1 => GnnModel::gcn(4, 6, 2, 3, false, seed),
                _ => GnnModel::gat(4, 6, 2, 2, 3, false, seed),
            };
            let strategy = StrategyConfig::none()
                .with_partial_gather(toggles & 1 != 0)
                .with_broadcast(toggles & 2 != 0)
                .with_shadow_nodes(toggles & 4 != 0)
                .with_threshold(threshold);
            let trace = TraceHandle::recording();
            let plan = InferenceSession::builder()
                .model(&m)
                .graph(&g)
                .workers(workers)
                .strategy(strategy)
                .backend(Backend::Pregel)
                .trace(trace.clone())
                .plan()
                .unwrap();
            let report = plan.run().unwrap().report;
            let carried: Vec<u64> = trace
                .events()
                .iter()
                .filter_map(|e| match &e.payload {
                    Payload::Transport { rows, .. } => Some(*rows),
                    _ => None,
                })
                .collect();
            let mut predicted_bytes = 0u64;
            for (l, est) in plan.estimate().layers.iter().enumerate() {
                let view = m.layer_view(l);
                let fused = strategy.partial_gather && view.row_aggregator().is_some();
                let row_len = row_payload_len(est.msg_dim, fused.then_some(1)) as u64 + WIRE_ID_LEN;
                prop_assert_eq!(est.columnar_bytes % row_len, 0);
                prop_assert_eq!(
                    est.columnar_bytes / row_len,
                    carried[l],
                    "layer {} rows (fused = {})", l, fused
                );
                predicted_bytes += est.columnar_bytes;
            }
            let measured = report.message_bytes.columnar;
            prop_assert!(
                predicted_bytes.abs_diff(measured) * 20 <= measured,
                "columnar bytes: predicted {} vs measured {}", predicted_bytes, measured
            );
            let predicted_legacy: u64 = plan.estimate().layers.iter().map(|e| e.legacy_bytes).sum();
            prop_assert_eq!(
                predicted_legacy == 0,
                report.message_bytes.legacy == 0,
                "hub bytes: predicted {} vs measured {}", predicted_legacy, report.message_bytes.legacy
            );
        }
    }
}
