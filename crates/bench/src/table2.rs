//! Table II — effectiveness: accuracy/micro-F1 parity between the
//! traditional sampled pipeline ("PyG"/"DGL" stand-ins) and InferTurbo.
//!
//! The PyG and DGL columns run the k-hop pipeline with fanout-50 sampling
//! under two different seeds (two independent deployments of the same
//! stochastic method). The Ours column is full-graph inference; for the
//! small/medium datasets it is produced by the actual Pregel backend, for
//! the large one by the single-machine reference (same kernels; the
//! backend-equivalence tests in `inferturbo-core` cover the identity).

use crate::report::Table;
use crate::ExpCtx;
use inferturbo_common::Result;
use inferturbo_core::baseline::predict_with_sampling;
use inferturbo_core::models::{GnnModel, PoolOp};
use inferturbo_core::plan::InferencePlan;
use inferturbo_core::session::{Backend, InferenceSession};
use inferturbo_core::strategy::StrategyConfig;
use inferturbo_core::train::TrainConfig;
use inferturbo_graph::{Dataset, Split};
use inferturbo_tensor::Matrix;

struct EvalSet {
    targets: Vec<u32>,
}

impl EvalSet {
    fn new(ctx: &ExpCtx, d: &Dataset) -> EvalSet {
        let mut targets = d.nodes_in(Split::Test);
        targets.truncate(if ctx.quick { 400 } else { 2000 });
        EvalSet { targets }
    }

    /// Accuracy (single-label) or micro-F1 (multi-label) of per-target
    /// logits.
    fn score(&self, d: &Dataset, logits: &[Vec<f32>]) -> f64 {
        let labels = d.graph.labels();
        if labels.is_multilabel() {
            let c = labels.num_classes() as usize;
            let mut flat = Matrix::zeros(self.targets.len(), c);
            let mut truth = Matrix::zeros(self.targets.len(), c);
            for (i, &t) in self.targets.iter().enumerate() {
                flat.row_mut(i).copy_from_slice(&logits[i]);
                truth.row_mut(i).copy_from_slice(&labels.multilabel_row(t));
            }
            inferturbo_tensor::loss::micro_f1(&flat, &truth, &vec![true; self.targets.len()])
        } else {
            let correct = self
                .targets
                .iter()
                .enumerate()
                .filter(|(i, &t)| GnnModel::predict_class(&logits[*i]) == labels.class_of(t))
                .count();
            correct as f64 / self.targets.len().max(1) as f64
        }
    }
}

fn train_cfg(ctx: &ExpCtx) -> TrainConfig {
    TrainConfig {
        steps: if ctx.quick { 40 } else { 150 },
        batch_size: 64,
        fanout: Some(10),
        lr: 5e-3,
        weight_decay: 1e-5,
        clip_norm: 5.0,
        seed: ctx.seed,
    }
}

pub fn models_for(ctx: &ExpCtx, d: &Dataset, tag_prefix: &str) -> Result<Vec<(String, GnnModel)>> {
    let cfg = train_cfg(ctx);
    untrained(d)
        .into_iter()
        .map(|(name, model)| {
            let tag = format!("{tag_prefix}-{}", name.to_lowercase());
            Ok((name, ctx.trained_model(&tag, d, || model, &cfg)?))
        })
        .collect()
}

/// The table's two models for `d`'s features and labels, before training:
/// a 2-layer mean-pool SAGE and a 2-layer 4-head GAT, both 64 wide.
fn untrained(d: &Dataset) -> Vec<(String, GnnModel)> {
    let feat = d.graph.node_feat_dim();
    let classes = d.graph.labels().num_classes() as usize;
    let ml = d.graph.labels().is_multilabel();
    vec![
        (
            "SAGE".into(),
            GnnModel::sage(feat, 64, 2, classes, ml, PoolOp::Mean, 1),
        ),
        ("GAT".into(), GnnModel::gat(feat, 64, 4, 2, classes, ml, 2)),
    ]
}

/// One row of the table: the score of each pipeline over the same
/// targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scores {
    pub pyg: f64,
    pub dgl: f64,
    pub ours: f64,
}

/// Score `model` on `targets`: the k-hop pipeline at fan-out 50 under
/// two sampling seeds (the PyG-like and DGL-like deployments), and full
/// graph inference through `plan`'s logits.
pub fn scores(
    d: &Dataset,
    model: &GnnModel,
    targets: &[u32],
    plan: &InferencePlan<'_>,
) -> Result<Scores> {
    let eval = EvalSet {
        targets: targets.to_vec(),
    };
    let pyg = predict_with_sampling(model, &d.graph, targets, Some(50), 512, 101)?;
    let dgl = predict_with_sampling(model, &d.graph, targets, Some(50), 512, 202)?;
    let ours_all = plan.run()?.logits;
    let ours: Vec<Vec<f32>> = targets
        .iter()
        .map(|&v| ours_all[v as usize].clone())
        .collect();
    Ok(Scores {
        pyg: eval.score(d, &pyg),
        dgl: eval.score(d, &dgl),
        ours: eval.score(d, &ours),
    })
}

/// The Pregel rows' cluster: 8 workers and a hub threshold of 16, the
/// configuration the Table II check runs. `plan()` raises a threshold to
/// at least the worker count, and these graphs' out-degrees stay below
/// 100 (ppi-like's largest is 32, products-like's 49), so on a 100-worker
/// cluster no vertex would be a hub and GAT's rows would never take the
/// broadcast path.
const PREGEL_WORKERS: usize = 8;
const HUB_THRESHOLD: u32 = 16;

/// The mag240m-like graph, shrunk 10x in quick mode.
pub fn mag_like(ctx: &ExpCtx) -> Dataset {
    Dataset::mag240m_like_scaled(ctx.seed, if ctx.quick { 10 } else { 1 })
}

pub fn run(ctx: &ExpCtx) -> Result<()> {
    let datasets: Vec<(Dataset, bool)> = vec![
        (Dataset::ppi_like(ctx.seed), true), // true = run real Pregel backend
        (Dataset::products_like(ctx.seed), true),
        (mag_like(ctx), false),
    ];
    let mut t = Table::new(
        "Table II: prediction performance (accuracy / micro-F1)",
        &[
            "model", "dataset", "PyG-like", "DGL-like", "Ours", "hubs", "mirrors",
        ],
    );
    for (d, use_backend) in &datasets {
        let eval = EvalSet::new(ctx, d);
        for (mname, model) in models_for(ctx, d, &d.name)? {
            let builder = InferenceSession::builder().model(&model).graph(&d.graph);
            let plan = if *use_backend {
                builder
                    .strategy(StrategyConfig::all().with_threshold(HUB_THRESHOLD))
                    .pregel_spec(ctx.pregel_spec(PREGEL_WORKERS))
                    .backend(Backend::Pregel)
            } else {
                builder
                    .strategy(StrategyConfig::all())
                    .backend(Backend::Reference)
            }
            .plan()?;
            let s = scores(d, &model, &eval.targets, &plan)?;
            let summary = plan.summary();
            let shape = |n: usize| match use_backend {
                true => n.to_string(),
                false => "-".into(),
            };
            t.rowv(vec![
                mname.clone(),
                d.name.clone(),
                format!("{:.3}", s.pyg),
                format!("{:.3}", s.dgl),
                format!("{:.3}", s.ours),
                shape(summary.hubs),
                shape(summary.mirrors),
            ]);
        }
    }
    t.print();
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use inferturbo_graph::gen::{generate, GenConfig};
    use std::sync::OnceLock;

    /// The mag-like generator's graph (in-skew, α 0.6, 32 classes, its
    /// homophily, signal and noise) at 500 nodes, 5,000 edges and 32
    /// features, every tenth node a training node and the rest test
    /// nodes, and the table's two models trained on it with `--quick`'s
    /// settings but 10 steps. This is a sizing decision: the generator's
    /// floor (1,000 nodes, 128 features) costs ~0.35 s per forward pass in
    /// a debug build, and Fig. 7 alone makes 43 of them. The Fig. 7 and
    /// Table II checks share it, trained once per test binary.
    pub(crate) fn small_trained() -> &'static (Dataset, Vec<(String, GnnModel)>) {
        static TRAINED: OnceLock<(Dataset, Vec<(String, GnnModel)>)> = OnceLock::new();
        TRAINED.get_or_init(|| {
            let cfg = GenConfig {
                n_nodes: 500,
                n_edges: 5_000,
                feat_dim: 32,
                ..Dataset::mag240m_like_config(42, 1)
            };
            let d = Dataset {
                name: "mag240m-like-500".into(),
                graph: generate(&cfg),
                split: (0..cfg.n_nodes)
                    .map(|v| {
                        if v % 10 == 0 {
                            Split::Train
                        } else {
                            Split::Test
                        }
                    })
                    .collect(),
                paper_nodes: 120_000_000,
                paper_edges: 2_600_000_000,
            };
            let train_cfg = TrainConfig {
                steps: 10,
                ..train_cfg(&ExpCtx {
                    out_dir: std::path::PathBuf::new(),
                    quick: true,
                    seed: 42,
                })
            };
            let models = untrained(&d)
                .into_iter()
                .map(|(name, mut model)| {
                    inferturbo_core::train::train(&mut model, &d, &train_cfg).unwrap();
                    (name, model)
                })
                .collect();
            (d, models)
        })
    }

    /// The paper's Table II claim: full-graph inference scores what the
    /// sampled k-hop pipelines score. Asserted on `small_trained`'s graph
    /// and models over 400 test targets, ours run by the Pregel backend
    /// on the table's Pregel cluster ([`PREGEL_WORKERS`], every strategy
    /// on). The hub threshold is fixed at [`HUB_THRESHOLD`] (λ's would be
    /// 62, above every out-degree of this in-skewed graph), so GAT's hub
    /// messages take the broadcast path.
    ///
    /// ε = 1/√N = 0.05 for N = 400 targets: twice the largest binomial
    /// standard error of an accuracy read over N targets (0.5/√N). At
    /// `--quick` the widest gap read was 0.019 (SAGE on mag-like: 0.268
    /// against 0.282 / 0.287).
    #[test]
    fn full_graph_scores_within_epsilon_of_the_sampled_pipelines() {
        let (d, models) = small_trained();
        let mut targets = d.nodes_in(Split::Test);
        targets.truncate(400);
        assert_eq!(targets.len(), 400);
        let epsilon = 1.0 / (targets.len() as f64).sqrt();
        for (name, model) in models {
            let plan = InferenceSession::builder()
                .model(model)
                .graph(&d.graph)
                .workers(PREGEL_WORKERS)
                .strategy(StrategyConfig::all().with_threshold(HUB_THRESHOLD))
                .backend(Backend::Pregel)
                .plan()
                .unwrap();
            assert!(
                plan.summary().hubs > 0,
                "no hub: the broadcast path is idle"
            );
            let s = scores(d, model, &targets, &plan).unwrap();
            println!("{name}: {s:?}, epsilon {epsilon}");
            assert!((s.ours - s.pyg).abs() <= epsilon, "{name}: {s:?}");
            assert!((s.ours - s.dgl).abs() <= epsilon, "{name}: {s:?}");
        }
    }
}
