//! Table IV — time & resource vs hop count (1/2/3): fanout-sampled
//! traditional pipelines grow exponentially (nbr10000 eventually OOMs),
//! InferTurbo grows linearly. Every time and resource figure is
//! *modelled*: the baselines' by [`estimate_full_inference`], ours by the
//! cluster spec's cost model over the run's counted bytes and flops.

use crate::report::{f, Table};
use crate::table3::{scaled_baseline, OURS_WORKERS};
use crate::workloads::plan_session;
use crate::ExpCtx;
use inferturbo_cluster::{ClusterSpec, RunReport};
use inferturbo_common::Result;
use inferturbo_core::baseline::estimate_full_inference;
use inferturbo_core::models::{GnnModel, PoolOp};
use inferturbo_core::session::Backend;
use inferturbo_core::strategy::StrategyConfig;
use inferturbo_graph::Graph;

/// The sampled baselines: name and fan-out cap.
pub const BASELINES: [(&str, usize); 2] = [("nbr50", 50), ("nbr10000", 10_000)];

/// One pipeline at one hop count. `visits` is the pipeline's work count:
/// a baseline's expected node forwards over every target's sampled
/// neighbourhood, ours the records its workers read over the run's
/// rounds (every node's self-state and in-messages, once per hop).
#[derive(Debug, Clone, PartialEq)]
pub struct Cost {
    pub visits: f64,
    /// Modelled wall seconds.
    pub modelled_secs: f64,
    /// Modelled CPU-minutes reserved.
    pub modelled_cpu_min: f64,
    /// A baseline's largest batch overflows its worker's memory; the
    /// modelled time and resource then mean nothing.
    pub oom: Option<u64>,
}

/// Every pipeline at one hop count: the [`BASELINES`] in order, then ours.
#[derive(Debug, Clone, PartialEq)]
pub struct HopPoint {
    pub hops: usize,
    pub baselines: Vec<Cost>,
    pub ours: Cost,
}

/// Ours' visits, read off a run's report: the records every worker read
/// over every phase.
pub fn visits(report: &RunReport) -> u64 {
    report
        .phases
        .iter()
        .flat_map(|p| &p.per_worker)
        .map(|w| w.records_in)
        .sum()
}

/// The table's pipelines over `graph` at 1..=`max_hops` hops: a fresh
/// `hops`-layer SAGE each (cost profiles do not depend on trained weight
/// values), ours on the MapReduce cluster `mr_spec` with every strategy
/// on.
pub fn points(graph: &Graph, max_hops: usize, mr_spec: ClusterSpec) -> Result<Vec<HopPoint>> {
    let feat = graph.node_feat_dim();
    let classes = graph.labels().num_classes() as usize;
    (1..=max_hops)
        .map(|hops| {
            let model = GnnModel::sage(feat, 64, hops, classes, false, PoolOp::Mean, 1);
            let baselines = BASELINES
                .iter()
                .map(|&(_, fanout)| {
                    let est = estimate_full_inference(
                        &model,
                        graph,
                        &scaled_baseline(hops, Some(fanout)),
                    );
                    Cost {
                        visits: est.total_node_visits,
                        modelled_secs: est.wall_secs,
                        modelled_cpu_min: est.resource_cpu_min,
                        oom: est.oom.then_some(est.peak_batch_bytes),
                    }
                })
                .collect();
            let plan = plan_session(
                &model,
                graph,
                Backend::MapReduce,
                mr_spec,
                StrategyConfig::all(),
            )?;
            let report = plan.run()?.report;
            let ours = Cost {
                visits: visits(&report) as f64,
                modelled_secs: report.total_wall_secs(),
                modelled_cpu_min: report.resource_cpu_min(),
                oom: None,
            };
            Ok(HopPoint {
                hops,
                baselines,
                ours,
            })
        })
        .collect()
}

pub fn run(ctx: &ExpCtx) -> Result<()> {
    let d = crate::table2::mag_like(ctx);
    let mut mr_spec = ctx.mr_spec(OURS_WORKERS);
    mr_spec.phase_overhead_secs = 0.5;
    let mut t = Table::new(
        "Table IV: modelled time (s) and resource (cpu*min) vs hops — SAGE",
        &[
            "pipeline",
            "hops",
            "time (s, modelled)",
            "resource (cpu*min, modelled)",
            "note",
        ],
    );
    for p in points(&d.graph, 3, mr_spec)? {
        let names = BASELINES.iter().map(|(name, _)| *name);
        for (name, cost) in names
            .chain(["ours (On-MR)"])
            .zip(p.baselines.iter().chain([&p.ours]))
        {
            let (time, resource, note) = match cost.oom {
                Some(peak) => (
                    "-".into(),
                    "-".into(),
                    format!("OOM (peak batch {})", f(peak as f64)),
                ),
                None => (
                    f(cost.modelled_secs),
                    f(cost.modelled_cpu_min),
                    format!("visits {:.2e}", cost.visits),
                ),
            };
            t.rowv(vec![name.into(), p.hops.to_string(), time, resource, note]);
        }
    }
    t.print();
    println!("shape check: baseline visits grow ~exponentially in hops; ours grow linearly.\n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_graph::Dataset;

    /// The paper's Table IV shape at a size a debug build runs in
    /// seconds: the mag-like graph at its floor (1,000 nodes, 21,666
    /// edges), ours on 50 MapReduce workers. Ours' visits are read off
    /// each run's report and are exactly linear in hops: every hop adds
    /// the same records (one more round of self-states and in-messages)
    /// to what one hop reads. Each baseline's visits grow by at
    /// least r = 2 per hop — stated before the first run: every hop
    /// expands each frontier node by its (capped) in-degree, 21.7 on
    /// average here, so 2 leaves room for the in-skew (most nodes have
    /// few in-neighbours). Visits are counts, pinned; times are modelled
    /// and only printed.
    #[test]
    fn baseline_visits_grow_geometrically_in_hops_and_ours_linearly() {
        let d = Dataset::mag240m_like_scaled(42, 120);
        let points = points(&d.graph, 3, ClusterSpec::mapreduce_cluster(50)).unwrap();
        for p in &points {
            println!("{p:?}");
        }
        let ours: Vec<f64> = points.iter().map(|p| p.ours.visits).collect();
        assert_eq!(ours, [16_696.0, 31_725.0, 46_754.0]);
        let per_hop = ours[1] - ours[0];
        for (h, v) in ours.iter().enumerate() {
            assert_eq!(*v, ours[0] + h as f64 * per_hop, "ours at {} hops", h + 1);
        }
        let r = 2.0;
        for (b, (name, _)) in BASELINES.iter().enumerate() {
            for pair in points.windows(2) {
                let (lo, hi) = (&pair[0].baselines[b], &pair[1].baselines[b]);
                assert!(
                    hi.visits >= r * lo.visits,
                    "{name} from {} to {} hops: {} -> {}",
                    pair[0].hops,
                    pair[1].hops,
                    lo.visits,
                    hi.visits
                );
            }
        }
    }
}
