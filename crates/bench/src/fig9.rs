//! Fig. 9 — per-worker latency vs in-edge load, with and without
//! partial-gather, on an in-degree-skewed power-law graph.

use crate::ctx::write_csv;
use crate::report::{f, Table};
use crate::workloads::{strategy_graph, strategy_model, WorkerLoads, STRATEGY_WORKERS};
use crate::ExpCtx;
use inferturbo_cluster::ClusterSpec;
use inferturbo_common::{stats, Result};
use inferturbo_core::strategy::StrategyConfig;
use inferturbo_graph::gen::DegreeSkew;
use inferturbo_graph::Graph;

/// The figure's two MapReduce runs over `graph` on `spec`: the base, then
/// partial-gather. Fig. 11 reads the same two runs.
pub fn points(graph: &Graph, spec: ClusterSpec) -> Result<[WorkerLoads; 2]> {
    let model = strategy_model(graph.node_feat_dim());
    Ok([
        WorkerLoads::run("base", &model, graph, spec, StrategyConfig::none())?,
        WorkerLoads::run(
            "partial-gather",
            &model,
            graph,
            spec,
            StrategyConfig::none().with_partial_gather(true),
        )?,
    ])
}

pub fn run(ctx: &ExpCtx) -> Result<()> {
    let d = strategy_graph(ctx, DegreeSkew::In);
    let [base, pg] = points(&d.graph, ctx.mr_spec(STRATEGY_WORKERS))?;

    let rows: Vec<String> = (0..STRATEGY_WORKERS)
        .map(|w| {
            format!(
                "{w},{},{},{}",
                base.records_in[w], base.busy_secs[w], pg.busy_secs[w]
            )
        })
        .collect();
    write_csv(
        &ctx.csv_path("fig9_partial_gather_latency.csv"),
        "worker,original_input_records,base_time_s,partial_gather_time_s",
        &rows,
    )?;

    let mut t = Table::new(
        "Fig 9: worker latency spread, base vs partial-gather (in-skew)",
        &["config", "mean (s)", "max (s)", "std dev", "max/mean"],
    );
    for run in [&base, &pg] {
        let times = &run.busy_secs;
        t.rowv(vec![
            run.config.into(),
            f(stats::mean(times)),
            f(stats::max(times)),
            f(stats::std_dev(times)),
            format!("{:.2}x", run.max_over_mean()),
        ]);
    }
    t.print();
    println!("shape check: partial-gather pulls the straggler tail toward the mean.\n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_graph::Dataset;

    /// The paper's Fig. 9 claim, asserted at a size a debug build runs in
    /// seconds: the in-skewed power-law graph at 5,000 nodes and 70,000
    /// edges on 50 MapReduce workers (`--quick`'s per-worker edge share).
    /// Partial-gather lowers both the slowest worker's *modelled* busy
    /// time over the mean and the spread (std dev) of every worker's.
    /// Record and byte counts are deterministic, so every run's totals are
    /// pinned.
    #[test]
    fn partial_gather_pulls_the_busy_time_tail_toward_the_mean() {
        let d = Dataset::power_law(5_000, 70_000, DegreeSkew::In, 42);
        let [base, pg] = points(&d.graph, ClusterSpec::mapreduce_cluster(50)).unwrap();
        let totals = |r: &WorkerLoads| {
            (
                r.records_in.iter().sum::<u64>(),
                r.bytes_in.iter().sum::<u64>(),
                *r.records_in.iter().max().unwrap(),
                *r.bytes_in.iter().max().unwrap(),
            )
        };
        assert_eq!(totals(&base), (155_000, 33_900_037, 24_160, 5_029_211));
        assert_eq!(totals(&pg), (54_774, 13_210_467, 1_432, 338_513));
        let (base_std, pg_std) = (
            stats::std_dev(&base.busy_secs),
            stats::std_dev(&pg.busy_secs),
        );
        println!(
            "modelled busy time: max/mean {:.2}x -> {:.2}x, std dev {base_std:.4} s -> {pg_std:.4} s",
            base.max_over_mean(),
            pg.max_over_mean()
        );
        assert!(pg.max_over_mean() < base.max_over_mean());
        assert!(pg_std < base_std);
    }
}
