//! Fig. 7 — consistency: number of distinct classes a node is predicted
//! into over 10 runs of the sampled pipeline, per fanout; InferTurbo's
//! full-graph inference is perfectly stable.

use crate::ctx::write_csv;
use crate::report::Table;
use crate::table2::models_for;
use crate::ExpCtx;
use inferturbo_common::{Error, Result};
use inferturbo_core::consistency::{audit_full_graph, audit_sampling, ConsistencyReport};
use inferturbo_core::models::GnnModel;
use inferturbo_core::session::{Backend, InferenceSession};
use inferturbo_graph::{Graph, Split};

/// The sampled pipeline's fan-outs, smallest first.
pub const FANOUTS: [usize; 4] = [10, 50, 100, 1000];

/// Runs per audit, as in the paper.
pub const RUNS: usize = 10;

/// The figure's readings: one histogram per [`FANOUTS`] entry, then
/// full-graph inference's over three reruns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stability {
    pub sampled: Vec<ConsistencyReport>,
    pub full: ConsistencyReport,
}

/// Audit `model`'s predictions for `targets`: the sampled pipeline
/// [`RUNS`] times per fan-out, then full-graph inference three times.
pub fn points(model: &GnnModel, graph: &Graph, targets: &[u32], seed: u64) -> Result<Stability> {
    let sampled = FANOUTS
        .iter()
        .map(|&fanout| audit_sampling(model, graph, targets, fanout, RUNS, seed))
        .collect::<Result<_>>()?;
    let plan = InferenceSession::builder()
        .model(model)
        .graph(graph)
        .backend(Backend::Reference)
        .plan()?;
    let full = audit_full_graph(3, targets.len(), |_| {
        let logits = plan.run()?.logits;
        Ok(targets
            .iter()
            .map(|&v| GnnModel::predict_class(&logits[v as usize]))
            .collect())
    })?;
    Ok(Stability { sampled, full })
}

pub fn run(ctx: &ExpCtx) -> Result<()> {
    let d = crate::table2::mag_like(ctx);
    // Reuse the Table II trained SAGE (same cache tag).
    let (_, model) = models_for(ctx, &d, &d.name)?.swap_remove(0);
    let mut targets = d.nodes_in(Split::Test);
    targets.truncate(if ctx.quick { 150 } else { 600 });
    let Stability { sampled, full } = points(&model, &d.graph, &targets, ctx.seed)?;

    let mut t = Table::new(
        "Fig 7: nodes by number of distinct predicted classes over 10 runs",
        &["pipeline", "1 class", "2", "3", "4", "5+", "unstable %"],
    );
    let mut csv_rows = Vec::new();
    for (fanout, rep) in FANOUTS.iter().zip(&sampled) {
        t.rowv(vec![
            format!("sampled nbr{fanout}"),
            rep.hist[0].to_string(),
            rep.hist[1].to_string(),
            rep.hist[2].to_string(),
            rep.hist[3].to_string(),
            rep.hist[4].to_string(),
            format!("{:.2}%", rep.unstable_fraction() * 100.0),
        ]);
        csv_rows.push(format!(
            "nbr{fanout},{},{},{},{},{}",
            rep.hist[0], rep.hist[1], rep.hist[2], rep.hist[3], rep.hist[4]
        ));
    }
    // Ours: the histogram must collapse to the 1-class bucket.
    if !full.is_consistent() {
        return Err(Error::InvalidConfig(
            "full-graph inference must be stable".into(),
        ));
    }
    t.rowv(vec![
        "ours (full-graph)".into(),
        full.hist[0].to_string(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        "0.00%".into(),
    ]);
    csv_rows.push(format!("ours,{},0,0,0,0", full.hist[0]));
    t.print();
    write_csv(
        &ctx.csv_path("fig7_consistency.csv"),
        "pipeline,classes1,classes2,classes3,classes4,classes5plus",
        &csv_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table2::tests::small_trained;

    /// The paper's Fig. 7 claim at a size a debug build runs in seconds:
    /// Table II's SAGE trained on `small_trained`'s 500-node mag-like
    /// graph, 40 test targets. The sampled pipeline's unstable share
    /// never rises with fan-out and is strictly lower at fan-out 1000 than
    /// at 10; full-graph inference puts every target in one class.
    /// Sampling is seeded, so every histogram is pinned.
    #[test]
    fn sampling_flips_predictions_less_as_fanout_grows_and_full_graph_never() {
        let (d, models) = small_trained();
        let mut targets = d.nodes_in(Split::Test);
        targets.truncate(40);
        let s = points(&models[0].1, &d.graph, &targets, 42).unwrap();
        let hists: Vec<[u64; 5]> = s.sampled.iter().map(|r| r.hist).collect();
        println!("sampled histograms by fan-out {FANOUTS:?}: {hists:?}");
        assert_eq!(
            hists,
            [
                [8, 15, 12, 5, 0],
                [39, 1, 0, 0, 0],
                [40, 0, 0, 0, 0],
                [40, 0, 0, 0, 0],
            ]
        );
        let unstable: Vec<f64> = s.sampled.iter().map(|r| r.unstable_fraction()).collect();
        for pair in unstable.windows(2) {
            assert!(pair[1] <= pair[0], "unstable share rose: {unstable:?}");
        }
        assert!(unstable[3] < unstable[0], "{unstable:?}");
        assert!(s.full.is_consistent());
        assert_eq!(s.full.hist, [targets.len() as u64, 0, 0, 0, 0]);
    }
}
