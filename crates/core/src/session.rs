//! The session API: **plan once, run many** full-graph inference.
//!
//! The paper's pipeline is explicitly staged — load and transform the
//! graph (hub classification, shadow-node mirroring), pick a backend
//! (Pregel while state fits in memory, MapReduce when it does not), then
//! run layer-as-superstep inference. This module exposes those stages as
//! a three-step API — the one front door to both engines:
//!
//! ```text
//! InferenceSession::builder()          // 1. configure
//!     .model(&model).graph(&graph)
//!     .workers(8)
//!     .strategy(StrategyConfig::all())
//!     .backend(Backend::Auto)
//!     .plan()?                         // 2. plan: one-time work
//!     .run()?                          // 3. execute (repeatable)
//! ```
//!
//! # Pipeline stages
//!
//! 1. **Configure** ([`SessionBuilder`]): model, graph, strategy toggles,
//!    cluster shapes, backend request, memory budget.
//! 2. **Plan** ([`SessionBuilder::plan`] → [`InferencePlan`]): builds the
//!    loadable node records (shadow mirrors applied, hub threshold
//!    resolved), predicts per-layer shuffle bytes and peak per-worker
//!    memory for both backends
//!    ([`PlanEstimate`](inferturbo_cluster::PlanEstimate)), and — for
//!    [`Backend::Auto`] — picks the backend by comparing the predicted
//!    Pregel residency against the memory budget (the paper's §IV-A
//!    trade-off, encoded instead of hand-chosen). A Pregel plan also lays
//!    the graph out for the engine — placement, the id index, every
//!    out-edge resolved to a route — and owns the pooled per-worker engine
//!    scratch, so repeated runs neither re-derive the layout nor pay the
//!    per-superstep O(workers·V) slot-index allocations.
//! 3. **Execute** ([`InferencePlan::run`] /
//!    [`InferencePlan::run_with_features`]): the layer-as-superstep run
//!    itself, returning an [`InferenceOutput`](crate::InferenceOutput).
//!
//! # Determinism contract
//!
//! Planning is pure: the same configuration always produces the same
//! plan. Execution inherits the engines' determinism guarantees and adds
//! the session's own:
//!
//! - repeated [`InferencePlan::run`] calls on one plan are **bit-identical**
//!   to each other and to a fresh plan of the same configuration — pooled
//!   scratch and pre-built records are observably invisible;
//! - results are independent of the thread budget
//!   (`INFERTURBO_THREADS` / `Parallelism`), per the workspace-wide
//!   contract in `inferturbo_common::par`;
//! - [`InferencePlan::run_with_features`] over the graph's own features
//!   is bit-identical to [`InferencePlan::run`].
//!
//! The suites `tests/session_plan.rs` and the equivalence tests in
//! `crate::infer` enforce all three.
//!
//! # Out-of-core spilling
//!
//! [`SessionBuilder::spill_budget`] (with an optional
//! [`SessionBuilder::spill_dir`]) puts the Pregel backend's columnar
//! inter-superstep inboxes under a per-worker byte budget: inbox rows
//! beyond it page to disk at the seal barrier and stream back through a
//! bounded window at apply time (see the spill contract in
//! `inferturbo_common::rows`). The knob changes the *residency model
//! only* — the plan's [`PlanEstimate`](inferturbo_cluster::PlanEstimate)
//! counts the resident window toward
//! `pregel_peak_worker_bytes` and reports the paged remainder on the
//! separate `pregel_spilled_worker_bytes` plane, so [`Backend::Auto`] can
//! keep a graph on the fast Pregel backend that would otherwise be forced
//! onto the MapReduce fallback. Results are bit-identical with or without
//! a spill budget, for every budget value and thread count (enforced by
//! the spill sections of `tests/parallel_matches_serial.rs` and
//! `tests/columnar_fused.rs`).

use crate::models::GnnModel;
use crate::plan::InferencePlan;
use crate::strategy::StrategyConfig;
use inferturbo_cluster::{ClusterSpec, FaultPlan, RecoveryPolicy, Transport};
use inferturbo_common::Result;
use inferturbo_graph::Graph;
use inferturbo_obs::TraceHandle;
use std::path::PathBuf;

/// Which execution backend a session runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Decide at plan time: Pregel when the predicted peak per-worker
    /// residency fits the memory budget, MapReduce otherwise (the paper's
    /// §IV-A trade-off).
    Auto,
    /// The Pregel backend: state resident in worker memory, one superstep
    /// per layer. Fast, memory-hungry, reserved workers.
    Pregel,
    /// The MapReduce backend: nothing resident between rounds, everything
    /// travels through the shuffle. Slower, elastic, survives tiny
    /// workers.
    ///
    /// What "slower" costs when [`Backend::Auto`] lands here on memory
    /// grounds is the stateless design itself: every round re-ships each
    /// node's embedding and out-edge table as a self-state record, and
    /// every reducer re-groups its partition — it walks its rows once,
    /// combines each key's partials, and merge-joins the groups with its
    /// key-sorted typed records — where Pregel keeps vertex state resident
    /// and only moves messages. It is not byte accounting: record sizes are
    /// closed-form (see `inferturbo_common::codec`). The measured gap is
    /// the `mapreduce_sage_inhub` against `pregel_sage_inhub` workloads of
    /// the repository's benchmark (`BENCHMARK.json`); paired records of
    /// both live under `docs/perf/`.
    MapReduce,
    /// The single-machine reference loop (ground truth for equivalence
    /// tests; no cluster simulation, empty report).
    Reference,
}

/// Entry point of the session API. See the module docs for the pipeline.
pub struct InferenceSession;

impl InferenceSession {
    /// Start configuring a session.
    pub fn builder<'a>() -> SessionBuilder<'a> {
        SessionBuilder {
            model: None,
            graph: None,
            workers: 8,
            strategy: StrategyConfig::all(),
            backend: Backend::Auto,
            pregel_spec: None,
            mapreduce_spec: None,
            memory_budget: None,
            spill_dir: None,
            spill_budget: None,
            fault_plan: None,
            recovery: None,
            trace: TraceHandle::disabled(),
            transport: None,
        }
    }
}

/// Stage 1 of the pipeline: session configuration. Finish with
/// [`SessionBuilder::plan`].
///
/// Everything that shapes a run is set here and nowhere else — the library
/// reads no ambient configuration. A knob nobody set is **off**: no fault
/// schedule, no recovery (fail-fast), a disabled trace, the in-process
/// transport.
#[derive(Debug, Clone)]
pub struct SessionBuilder<'a> {
    pub(crate) model: Option<&'a GnnModel>,
    pub(crate) graph: Option<&'a Graph>,
    pub(crate) workers: usize,
    pub(crate) strategy: StrategyConfig,
    pub(crate) backend: Backend,
    pub(crate) pregel_spec: Option<ClusterSpec>,
    pub(crate) mapreduce_spec: Option<ClusterSpec>,
    pub(crate) memory_budget: Option<u64>,
    pub(crate) spill_dir: Option<PathBuf>,
    pub(crate) spill_budget: Option<u64>,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) recovery: Option<RecoveryPolicy>,
    pub(crate) trace: TraceHandle,
    pub(crate) transport: Option<std::sync::Arc<dyn Transport>>,
}

impl<'a> SessionBuilder<'a> {
    /// The trained model to run (required).
    pub fn model(mut self, model: &'a GnnModel) -> Self {
        self.model = Some(model);
        self
    }

    /// The graph to infer over (required).
    pub fn graph(mut self, graph: &'a Graph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Cluster size for the default cluster shapes (default 8). Ignored
    /// for a backend whose spec was set explicitly.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Power-law strategy toggles (default: all on, the production
    /// configuration).
    pub fn strategy(mut self, strategy: StrategyConfig) -> Self {
        self.strategy = strategy;
        self
    }

    /// Backend request (default [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Explicit Pregel cluster shape (default
    /// [`ClusterSpec::pregel_cluster`] at the builder's worker count).
    pub fn pregel_spec(mut self, spec: ClusterSpec) -> Self {
        self.pregel_spec = Some(spec);
        self
    }

    /// Explicit MapReduce cluster shape (default
    /// [`ClusterSpec::mapreduce_cluster`] at the builder's worker count).
    pub fn mapreduce_spec(mut self, spec: ClusterSpec) -> Self {
        self.mapreduce_spec = Some(spec);
        self
    }

    /// Per-worker memory budget [`Backend::Auto`] compares the predicted
    /// Pregel residency against (default: the Pregel spec's memory cap).
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Enable out-of-core spilling of the Pregel backend's columnar
    /// inboxes: each worker keeps at most `bytes` of inbox row data
    /// resident and pages the rest to disk (see the module docs). Bit-wise
    /// results are unaffected; only the residency model changes.
    pub fn spill_budget(mut self, bytes: u64) -> Self {
        self.spill_budget = Some(bytes);
        self
    }

    /// Directory spill files are written to (default: the OS temp dir).
    /// Only meaningful together with [`SessionBuilder::spill_budget`].
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Inject a deterministic fault schedule into the plan's runs (see
    /// [`inferturbo_cluster::fault`]). The schedule is armed **once** at
    /// plan time and its per-site fire budgets are shared across repeated
    /// [`InferencePlan::run`] calls: a fault consumed (or absorbed by
    /// recovery) in one run does not re-fire in the next, modelling a
    /// timeline of cluster events rather than a per-run replay — which is
    /// what makes serve-layer retries meaningful. Whether a fired fault
    /// is absorbed is [`SessionBuilder::recovery`]'s call alone.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Checkpoint/recovery policy for the Pregel backend: snapshot at the
    /// configured superstep cadence and replay transient failures from the
    /// last checkpoint (see [`RecoveryPolicy`]). A recovered run is
    /// bit-identical to a fault-free run. Unset, a transient failure
    /// surfaces to the caller (the MapReduce backend's bounded task retry
    /// is the engine's own and always on).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Attach a flight-recorder handle (see [`inferturbo_obs`]): the
    /// plan's engines emit structured events at their single-threaded
    /// barriers, byte-identical for every thread budget and across
    /// checkpoint-recovery replays. Unset, the handle is the zero-cost
    /// [`TraceHandle::disabled`].
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Pin the shuffle transport both backends exchange sealed shards
    /// through: [`InProcess`](inferturbo_cluster::InProcess) (the
    /// zero-copy default) or
    /// [`WorkerProcess`](inferturbo_cluster::WorkerProcess) (spawned
    /// worker children, each on one Unix socket pair). Every backend is bit-identical —
    /// logits, traces and modelled byte accounting do not depend on this
    /// choice; only `RunReport::wire_bytes` does. Unset means in-process.
    pub fn transport(mut self, transport: std::sync::Arc<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Stage 2 of the pipeline: validate the configuration and do the
    /// one-time planning work. See [`InferencePlan`] for what the plan
    /// owns and what repeated runs skip.
    pub fn plan(self) -> Result<InferencePlan<'a>> {
        InferencePlan::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PoolOp;
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};

    fn graph() -> Graph {
        generate(&GenConfig {
            n_nodes: 150,
            n_edges: 900,
            feat_dim: 5,
            classes: 3,
            skew: DegreeSkew::In,
            seed: 9,
            ..GenConfig::default()
        })
    }

    #[test]
    fn builder_rejects_missing_pieces_and_bad_dims() {
        let g = graph();
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 1);
        assert!(InferenceSession::builder().graph(&g).plan().is_err());
        assert!(InferenceSession::builder().model(&m).plan().is_err());
        let wrong = GnnModel::sage(7, 8, 2, 3, false, PoolOp::Mean, 1);
        let err = InferenceSession::builder()
            .model(&wrong)
            .graph(&g)
            .plan()
            .unwrap_err();
        assert!(
            err.to_string().contains("do not match model input"),
            "{err}"
        );
    }

    #[test]
    fn auto_rejects_mismatched_worker_counts() {
        let g = graph();
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 1);
        let err = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .pregel_spec(ClusterSpec::pregel_cluster(4))
            .mapreduce_spec(ClusterSpec::mapreduce_cluster(8))
            .plan()
            .unwrap_err();
        assert!(err.to_string().contains("matching worker counts"), "{err}");
    }

    #[test]
    fn auto_picks_pregel_when_it_fits_and_mapreduce_when_not() {
        let g = graph();
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 1);
        let fits = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .plan()
            .unwrap();
        assert_eq!(
            fits.backend(),
            Backend::Pregel,
            "10 GB budget fits a toy graph"
        );
        let boundary = fits.estimate().pregel_peak_worker_bytes;
        let squeezed = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .memory_budget(boundary - 1)
            .plan()
            .unwrap();
        assert_eq!(squeezed.backend(), Backend::MapReduce);
        let exact = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(4)
            .memory_budget(boundary)
            .plan()
            .unwrap();
        assert_eq!(exact.backend(), Backend::Pregel, "budget is inclusive");
    }
}
