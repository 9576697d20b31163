//! Fig. 10 — variance of per-worker time for the large-out-degree
//! strategies: Base, shadow-nodes (SN), broadcast (BC), SN+BC, on an
//! out-degree-skewed power-law graph.

use crate::ctx::write_csv;
use crate::report::{f, Table};
use crate::workloads::{strategy_graph, strategy_model, WorkerLoads, STRATEGY_WORKERS};
use crate::ExpCtx;
use inferturbo_cluster::ClusterSpec;
use inferturbo_common::{stats, Result};
use inferturbo_core::strategy::StrategyConfig;
use inferturbo_graph::gen::DegreeSkew;
use inferturbo_graph::Graph;

/// The figure's four MapReduce runs over `graph` on `spec`, in order:
/// Base, SN, BC, SN+BC.
pub fn points(graph: &Graph, spec: ClusterSpec) -> Result<Vec<WorkerLoads>> {
    let model = strategy_model(graph.node_feat_dim());
    let none = StrategyConfig::none();
    [
        ("Base", none),
        ("SN", none.with_shadow_nodes(true)),
        ("BC", none.with_broadcast(true)),
        ("SN+BC", none.with_shadow_nodes(true).with_broadcast(true)),
    ]
    .into_iter()
    .map(|(config, strategy)| WorkerLoads::run(config, &model, graph, spec, strategy))
    .collect()
}

pub fn run(ctx: &ExpCtx) -> Result<()> {
    let d = strategy_graph(ctx, DegreeSkew::Out);
    let runs = points(&d.graph, ctx.mr_spec(STRATEGY_WORKERS))?;
    let mut t = Table::new(
        "Fig 10: per-worker time variance for out-degree strategies",
        &["strategy", "variance", "std dev", "max (s)", "mean (s)"],
    );
    let mut csv = Vec::new();
    for run in &runs {
        let times = &run.busy_secs;
        let var = stats::variance(times);
        t.rowv(vec![
            run.config.into(),
            format!("{var:.3e}"),
            f(stats::std_dev(times)),
            f(stats::max(times)),
            f(stats::mean(times)),
        ]);
        csv.push(format!("{},{var}", run.config));
    }
    t.print();
    println!(
        "shape check: SN and BC both cut the Base variance; combining them is best for SAGE.\n"
    );
    write_csv(
        &ctx.csv_path("fig10_variance.csv"),
        "strategy,variance",
        &csv,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_graph::Dataset;

    /// The paper's Fig. 10 claim, asserted at a size a debug build runs in
    /// seconds: the out-skewed power-law graph at 5,000 nodes and 70,000
    /// edges on 50 MapReduce workers (`--quick`'s per-worker edge share).
    /// Shadow nodes and broadcast each cut the variance of the workers'
    /// *modelled* busy time below Base's, and the two combined cut it
    /// most. Record and byte counts are deterministic, so every run's
    /// totals are pinned.
    #[test]
    fn shadow_nodes_and_broadcast_each_cut_the_variance_and_combined_most() {
        let d = Dataset::power_law(5_000, 70_000, DegreeSkew::Out, 42);
        let runs = points(&d.graph, ClusterSpec::mapreduce_cluster(50)).unwrap();
        let totals: Vec<(&str, u64, u64)> = runs
            .iter()
            .map(|r| {
                (
                    r.config,
                    r.records_in.iter().sum::<u64>(),
                    r.bytes_in.iter().sum::<u64>(),
                )
            })
            .collect();
        assert_eq!(
            totals,
            [
                ("Base", 155_000, 33_900_202),
                ("SN", 164_502, 35_978_539),
                ("BC", 160_500, 17_663_228),
                ("SN+BC", 201_802, 25_469_879),
            ]
        );
        let var: Vec<f64> = runs.iter().map(|r| stats::variance(&r.busy_secs)).collect();
        println!("modelled busy-time variance (Base, SN, BC, SN+BC): {var:?}");
        let [base, sn, bc, both] = var[..] else {
            panic!("four runs");
        };
        assert!(sn < base, "SN does not cut Base's variance");
        assert!(bc < base, "BC does not cut Base's variance");
        assert!(both < sn && both < bc, "SN+BC is not the lowest");
    }
}
