//! Prediction-stability audit (paper Fig. 7).
//!
//! The paper reruns sampled inference 10 times and counts, per node, how
//! many distinct classes it gets predicted into: with fanout 10 about 30%
//! of nodes flip at least once; even fanout 1000 leaves ~0.1% unstable —
//! "unacceptable in financial applications". Full-graph inference is
//! sampling-free, so every node lands in exactly one class across runs.

use crate::baseline::predict_with_sampling;
use crate::models::GnnModel;
use inferturbo_common::Result;
use inferturbo_graph::Graph;

/// Histogram of per-node distinct-class counts over repeated runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyReport {
    pub fanout: Option<usize>,
    pub runs: usize,
    pub targets: usize,
    /// `hist[0]` = nodes with 1 stable class, …, `hist[3]` = 4 classes,
    /// `hist[4]` = 5 or more.
    pub hist: [u64; 5],
}

impl ConsistencyReport {
    /// Fraction of audited nodes predicted into ≥2 classes.
    pub fn unstable_fraction(&self) -> f64 {
        let unstable: u64 = self.hist[1..].iter().sum();
        if self.targets == 0 {
            0.0
        } else {
            unstable as f64 / self.targets as f64
        }
    }

    /// True when every node was perfectly stable.
    pub fn is_consistent(&self) -> bool {
        self.hist[1..].iter().all(|&c| c == 0)
    }
}

/// Count distinct predictions per node across runs and bucket them.
pub fn histogram_distinct(preds_per_run: &[Vec<u32>]) -> [u64; 5] {
    assert!(!preds_per_run.is_empty());
    let n = preds_per_run[0].len();
    let mut hist = [0u64; 5];
    let mut classes: Vec<u32> = Vec::with_capacity(preds_per_run.len());
    for v in 0..n {
        classes.clear();
        classes.extend(preds_per_run.iter().map(|run| run[v]));
        classes.sort_unstable();
        classes.dedup();
        let bucket = classes.len().min(5) - 1;
        hist[bucket] += 1;
    }
    hist
}

/// Audit the traditional sampled pipeline: `runs` repetitions with
/// different sampling seeds over the same targets and model.
pub fn audit_sampling(
    model: &GnnModel,
    graph: &Graph,
    targets: &[u32],
    fanout: usize,
    runs: usize,
    seed: u64,
) -> Result<ConsistencyReport> {
    let mut preds: Vec<Vec<u32>> = Vec::with_capacity(runs);
    for r in 0..runs {
        let logits = predict_with_sampling(
            model,
            graph,
            targets,
            Some(fanout),
            512,
            seed.wrapping_add(r as u64 * 7919),
        )?;
        preds.push(logits.iter().map(|l| GnnModel::predict_class(l)).collect());
    }
    Ok(ConsistencyReport {
        fanout: Some(fanout),
        runs,
        targets: targets.len(),
        hist: histogram_distinct(&preds),
    })
}

/// Audit full-graph inference by rerunning it and comparing predictions.
/// `infer` is any of the backend drivers; the report must be all-stable.
pub fn audit_full_graph(
    runs: usize,
    targets: usize,
    mut infer: impl FnMut(usize) -> Result<Vec<u32>>,
) -> Result<ConsistencyReport> {
    let mut preds = Vec::with_capacity(runs);
    for r in 0..runs {
        preds.push(infer(r)?);
    }
    Ok(ConsistencyReport {
        fanout: None,
        runs,
        targets,
        hist: histogram_distinct(&preds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_reference, run_once};
    use crate::models::PoolOp;
    use crate::session::Backend;
    use crate::strategy::StrategyConfig;
    use inferturbo_cluster::ClusterSpec;
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};

    fn graph() -> Graph {
        generate(&GenConfig {
            n_nodes: 250,
            n_edges: 2500,
            feat_dim: 6,
            classes: 4,
            // weak signal so sampling noise actually flips predictions
            signal: 0.4,
            noise: 1.2,
            homophily: 0.5,
            skew: DegreeSkew::In,
            seed: 31,
            ..GenConfig::default()
        })
    }

    #[test]
    fn histogram_buckets_distinct_counts() {
        let runs = vec![
            vec![0, 1, 2, 3, 0],
            vec![0, 1, 2, 4, 1],
            vec![0, 2, 2, 5, 2],
            vec![0, 3, 2, 6, 3],
            vec![0, 4, 2, 7, 4],
        ];
        let hist = histogram_distinct(&runs);
        // node0: 1 class; node2: 1 class; node1: 4; node3: 5; node4: 5
        assert_eq!(hist, [2, 0, 0, 1, 2]);
    }

    #[test]
    fn tight_sampling_is_unstable_full_graph_is_not() {
        let g = graph();
        let m = GnnModel::sage(6, 8, 2, 4, false, PoolOp::Mean, 3);
        let targets: Vec<u32> = (0..120).collect();
        let sampled = audit_sampling(&m, &g, &targets, 2, 6, 0).unwrap();
        assert!(
            sampled.unstable_fraction() > 0.05,
            "fanout-2 sampling should flip some nodes, got {}",
            sampled.unstable_fraction()
        );
        assert!(!sampled.is_consistent());

        let full = audit_full_graph(3, targets.len(), |_| {
            let out = run_once(
                Backend::Pregel,
                &m,
                &g,
                ClusterSpec::pregel_cluster(4),
                StrategyConfig::all().with_threshold(10),
            )?;
            Ok(targets
                .iter()
                .map(|&t| GnnModel::predict_class(&out.logits[t as usize]))
                .collect())
        })
        .unwrap();
        assert!(full.is_consistent());
        assert_eq!(full.hist[0], targets.len() as u64);
    }

    #[test]
    fn larger_fanout_is_more_stable() {
        let g = graph();
        let m = GnnModel::sage(6, 8, 2, 4, false, PoolOp::Mean, 3);
        let targets: Vec<u32> = (0..120).collect();
        let tight = audit_sampling(&m, &g, &targets, 2, 6, 0).unwrap();
        let loose = audit_sampling(&m, &g, &targets, 50, 6, 0).unwrap();
        assert!(
            loose.unstable_fraction() <= tight.unstable_fraction(),
            "fanout 50 ({}) should be no less stable than fanout 2 ({})",
            loose.unstable_fraction(),
            tight.unstable_fraction()
        );
    }

    #[test]
    fn reference_predictions_are_stable_by_construction() {
        let g = graph();
        let m = GnnModel::gcn(6, 8, 2, 4, false, 5);
        let a: Vec<u32> = infer_reference(&m, &g)
            .expect("reference")
            .iter()
            .map(|l| GnnModel::predict_class(l))
            .collect();
        let b: Vec<u32> = infer_reference(&m, &g)
            .expect("reference")
            .iter()
            .map(|l| GnnModel::predict_class(l))
            .collect();
        assert_eq!(a, b);
    }
}
