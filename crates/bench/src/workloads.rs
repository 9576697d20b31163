//! Shared workload builders for the strategy/scalability experiments.

use crate::ExpCtx;
use inferturbo_cluster::ClusterSpec;
use inferturbo_common::Result;
use inferturbo_core::models::{GnnModel, PoolOp};
use inferturbo_core::plan::InferencePlan;
use inferturbo_core::session::{Backend, InferenceSession};
use inferturbo_core::strategy::StrategyConfig;
use inferturbo_graph::gen::DegreeSkew;
use inferturbo_graph::Dataset;
use inferturbo_graph::Graph;

/// Worker fleet for the strategy figures (9–13).
pub const STRATEGY_WORKERS: usize = 100;

/// The Fig. 9–13 power-law graph: paper uses ~100M nodes / 1.4B edges;
/// ours is scaled 10³× to 100k / 1.4M (quick mode: 10k / 140k).
pub fn strategy_graph(ctx: &ExpCtx, skew: DegreeSkew) -> Dataset {
    let n = ctx.scaled(100_000);
    let e = ctx.scaled(1_400_000);
    Dataset::power_law(n, e, skew, ctx.seed)
}

/// The 2-layer GraphSAGE used by the strategy figures (embedding 64, as in
/// the paper's strategy analysis). Weights untrained: cost profiles do not
/// depend on weight values.
pub fn strategy_model(feat_dim: usize) -> GnnModel {
    GnnModel::sage(feat_dim, 64, 2, 2, false, PoolOp::Mean, 7)
}

/// Per-worker busy seconds of the whole run, from a run report.
pub fn worker_busy_secs(report: &inferturbo_cluster::RunReport) -> Vec<f64> {
    report.worker_totals().iter().map(|t| t.busy_secs).collect()
}

/// Plan a single-configuration session on a forced backend — the bench
/// drivers' entry into the plan → execute pipeline. Planning happens here,
/// outside any measured region; only execution is ever repeated.
pub fn plan_session<'a>(
    model: &'a GnnModel,
    graph: &'a Graph,
    backend: Backend,
    spec: ClusterSpec,
    strategy: StrategyConfig,
) -> Result<InferencePlan<'a>> {
    let builder = InferenceSession::builder()
        .model(model)
        .graph(graph)
        .strategy(strategy)
        .backend(backend);
    let builder = match backend {
        Backend::MapReduce => builder.mapreduce_spec(spec),
        _ => builder.pregel_spec(spec),
    };
    builder.plan()
}

/// One configuration's run as Figs. 9–11 read it: per worker, the shuffle
/// records and bytes it read and its busy seconds. The counts are exact;
/// the seconds are *modelled* (the cluster spec's cost model over those
/// bytes and the kernels' flops), not a clock.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLoads {
    pub config: &'static str,
    pub records_in: Vec<u64>,
    pub bytes_in: Vec<u64>,
    pub busy_secs: Vec<f64>,
}

impl WorkerLoads {
    /// Run `strategy` over `graph` on a MapReduce cluster `spec` and read
    /// every worker's totals off the report.
    pub fn run(
        config: &'static str,
        model: &GnnModel,
        graph: &Graph,
        spec: ClusterSpec,
        strategy: StrategyConfig,
    ) -> Result<Self> {
        let report = plan_session(model, graph, Backend::MapReduce, spec, strategy)?
            .run()?
            .report;
        let totals = report.worker_totals();
        Ok(WorkerLoads {
            config,
            records_in: totals.iter().map(|t| t.records_in).collect(),
            bytes_in: totals.iter().map(|t| t.bytes_in).collect(),
            busy_secs: worker_busy_secs(&report),
        })
    }

    /// Input bytes per worker, as floats for the stats helpers.
    pub fn bytes_in_f64(&self) -> Vec<f64> {
        self.bytes_in.iter().map(|&b| b as f64).collect()
    }

    /// Modelled busy seconds of the slowest worker over the mean.
    pub fn max_over_mean(&self) -> f64 {
        let mean = inferturbo_common::stats::mean(&self.busy_secs);
        if mean > 0.0 {
            inferturbo_common::stats::max(&self.busy_secs) / mean
        } else {
            0.0
        }
    }
}
