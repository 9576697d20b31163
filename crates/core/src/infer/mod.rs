//! Full-graph, layer-wise inference execution (paper §IV-C).
//!
//! Three interchangeable execution paths over the same
//! [`crate::gas::GasLayer`] kernels, each the execution stage a session
//! plan ([`crate::session`]) dispatches to for its backend:
//!
//! - [`pregel_backend`] — state in worker memory, one superstep per layer,
//!   fused row aggregation for partial-gather, engine broadcast for the
//!   large-out-degree strategy;
//! - [`mr_backend`] — the MapReduce backend: no resident state, everything
//!   (self state, out-edge tables, messages) travels through the shuffle
//!   each round;
//! - [`infer_reference`] — a single-machine, single-"fat-worker" loop used
//!   as ground truth in equivalence tests and for fast accuracy evaluation.
//!
//! All three produce logits for **every** node — no sampling anywhere, so
//! repeated runs are bit-identical (the paper's consistency property,
//! asserted by `crate::consistency`).

pub mod mr_backend;
pub mod pregel_backend;

use crate::gas::{GasLayer, NodeCtx};
use crate::models::GnnModel;
use inferturbo_cluster::RunReport;
use inferturbo_common::Result;
use inferturbo_graph::{Csr, Graph};

/// Result of a full-graph inference run.
#[derive(Debug)]
pub struct InferenceOutput {
    /// Per-node class logits, indexed by original node id.
    pub logits: Vec<Vec<f32>>,
    /// Cost-model report of the run (phases, bytes, worker times).
    pub report: RunReport,
}

impl InferenceOutput {
    /// Hard single-label predictions.
    pub fn predictions(&self) -> Vec<u32> {
        self.logits
            .iter()
            .map(|l| GnnModel::predict_class(l))
            .collect()
    }
}

/// Single-machine reference forward: exact same kernels, trivial data flow
/// — the oracle, as one call: a single-use session on
/// [`crate::session::Backend::Reference`]. Errors on a model/graph
/// feature-dimension mismatch, exactly like any other session.
pub fn infer_reference(model: &GnnModel, graph: &Graph) -> Result<Vec<Vec<f32>>> {
    Ok(crate::session::InferenceSession::builder()
        .model(model)
        .graph(graph)
        .backend(crate::session::Backend::Reference)
        .plan()
        .and_then(|plan| plan.run())?
        .logits)
}

/// The reference forward proper (the execution stage the session
/// dispatches to). `features`, when given, replaces the graph's node
/// features row-for-row.
pub(crate) fn reference_logits(
    model: &GnnModel,
    graph: &Graph,
    features: Option<&[Vec<f32>]>,
) -> Vec<Vec<f32>> {
    let in_csr = Csr::in_of(graph);
    let in_deg = graph.in_degrees();
    let out_deg = graph.out_degrees();
    let n = graph.n_nodes();
    let mut h: Vec<Vec<f32>> = (0..n as u32)
        .map(|v| match features {
            Some(f) => f[v as usize].clone(),
            None => graph.node_feat(v).to_vec(),
        })
        .collect();
    for l in 0..model.n_layers() {
        let layer = model.layer_view(l);
        let mut next = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let mut agg = layer.init_agg(in_deg[v as usize] as usize);
            for &u in in_csr.neighbors(v) {
                let msg = layer.apply_edge(&h[u as usize], out_deg[u as usize]);
                layer.aggregate(&mut agg, msg);
            }
            let ctx = NodeCtx {
                id: v as u64,
                state: &h[v as usize],
                in_degree: in_deg[v as usize],
                out_degree: out_deg[v as usize],
                own_msg: &[],
            };
            let mut updated = Vec::new();
            layer.apply_node(&ctx, agg, &mut updated);
            next.push(updated);
        }
        h = next;
    }
    h.iter().map(|hv| model.apply_head(hv)).collect()
}

/// Plan once and run once on `backend`, over `spec` whichever engine that
/// is: what this crate's own suites drive the two engines through.
#[cfg(test)]
pub(crate) fn run_once(
    backend: crate::session::Backend,
    model: &GnnModel,
    graph: &Graph,
    spec: inferturbo_cluster::ClusterSpec,
    strategy: crate::strategy::StrategyConfig,
) -> Result<InferenceOutput> {
    crate::session::InferenceSession::builder()
        .model(model)
        .graph(graph)
        .pregel_spec(spec)
        .mapreduce_spec(spec)
        .strategy(strategy)
        .backend(backend)
        .plan()?
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PoolOp;
    use crate::session::Backend;
    use crate::strategy::StrategyConfig;
    use inferturbo_cluster::ClusterSpec;
    use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};

    fn test_graph(skew: DegreeSkew) -> Graph {
        generate(&GenConfig {
            n_nodes: 120,
            n_edges: 700,
            feat_dim: 5,
            classes: 3,
            skew,
            alpha: 1.3,
            homophily: 0.4,
            seed: 77,
            ..GenConfig::default()
        })
    }

    fn models() -> Vec<(&'static str, GnnModel)> {
        vec![
            (
                "sage-mean",
                GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 1),
            ),
            (
                "sage-max",
                GnnModel::sage(5, 8, 2, 3, false, PoolOp::Max, 2),
            ),
            ("gcn", GnnModel::gcn(5, 8, 2, 3, false, 3)),
            ("gat", GnnModel::gat(5, 8, 2, 2, 3, false, 4)),
        ]
    }

    fn assert_logits_close(name: &str, a: &[Vec<f32>], b: &[Vec<f32>], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (v, (x, y)) in a.iter().zip(b).enumerate() {
            for (c, (xa, yb)) in x.iter().zip(y).enumerate() {
                assert!(
                    (xa - yb).abs() < tol,
                    "{name}: node {v} class {c}: {xa} vs {yb}"
                );
            }
        }
    }

    #[test]
    fn pregel_matches_reference_no_strategies() {
        let g = test_graph(DegreeSkew::In);
        for (name, m) in models() {
            let want = infer_reference(&m, &g).expect("reference");
            let out = run_once(
                Backend::Pregel,
                &m,
                &g,
                ClusterSpec::pregel_cluster(8),
                StrategyConfig::none(),
            )
            .unwrap();
            assert_logits_close(name, &out.logits, &want, 1e-4);
        }
    }

    #[test]
    fn mapreduce_matches_reference_no_strategies() {
        let g = test_graph(DegreeSkew::In);
        for (name, m) in models() {
            let want = infer_reference(&m, &g).expect("reference");
            let out = run_once(
                Backend::MapReduce,
                &m,
                &g,
                ClusterSpec::mapreduce_cluster(8),
                StrategyConfig::none(),
            )
            .unwrap();
            assert_logits_close(name, &out.logits, &want, 1e-4);
        }
    }

    #[test]
    fn every_strategy_combination_preserves_predictions() {
        // The paper's central strategy claim: partial-gather, broadcast and
        // shadow-nodes change the cost profile, never the math.
        let g = test_graph(DegreeSkew::Out);
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 9);
        let want = infer_reference(&m, &g).expect("reference");
        let spec = ClusterSpec::pregel_cluster(8);
        for pg in [false, true] {
            for bc in [false, true] {
                for sn in [false, true] {
                    let strat = StrategyConfig::none()
                        .with_partial_gather(pg)
                        .with_broadcast(bc)
                        .with_shadow_nodes(sn)
                        .with_threshold(5);
                    let out = run_once(Backend::Pregel, &m, &g, spec, strat).unwrap();
                    assert_logits_close(
                        &format!("pregel pg={pg} bc={bc} sn={sn}"),
                        &out.logits,
                        &want,
                        1e-3,
                    );
                    let out = run_once(
                        Backend::MapReduce,
                        &m,
                        &g,
                        ClusterSpec::mapreduce_cluster(8),
                        strat,
                    )
                    .unwrap();
                    assert_logits_close(
                        &format!("mr pg={pg} bc={bc} sn={sn}"),
                        &out.logits,
                        &want,
                        1e-3,
                    );
                }
            }
        }
    }

    #[test]
    fn gat_with_strategies_matches_reference() {
        // GAT must ignore partial-gather (annotation rule) but may still
        // use broadcast and shadow-nodes.
        let g = test_graph(DegreeSkew::Out);
        let m = GnnModel::gat(5, 8, 2, 2, 3, false, 5);
        let want = infer_reference(&m, &g).expect("reference");
        let strat = StrategyConfig::all().with_threshold(5);
        let pregel = run_once(
            Backend::Pregel,
            &m,
            &g,
            ClusterSpec::pregel_cluster(8),
            strat,
        )
        .unwrap();
        assert_logits_close("gat-pregel", &pregel.logits, &want, 1e-3);
        let mr = run_once(
            Backend::MapReduce,
            &m,
            &g,
            ClusterSpec::mapreduce_cluster(8),
            strat,
        )
        .unwrap();
        assert_logits_close("gat-mr", &mr.logits, &want, 1e-3);
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let g = test_graph(DegreeSkew::In);
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
        let strat = StrategyConfig::all().with_threshold(8);
        for (backend, spec) in [
            (Backend::Pregel, ClusterSpec::pregel_cluster(4)),
            (Backend::MapReduce, ClusterSpec::mapreduce_cluster(4)),
        ] {
            let run = || run_once(backend, &m, &g, spec, strat).unwrap();
            assert_eq!(run().logits, run().logits, "{backend:?} must be bit-stable");
        }
    }

    #[test]
    fn partial_gather_reduces_bytes_on_in_skewed_graphs() {
        let g = test_graph(DegreeSkew::In);
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
        let spec = ClusterSpec::pregel_cluster(8);
        let base = run_once(Backend::Pregel, &m, &g, spec, StrategyConfig::none()).unwrap();
        let pg = run_once(
            Backend::Pregel,
            &m,
            &g,
            spec,
            StrategyConfig::none().with_partial_gather(true),
        )
        .unwrap();
        assert!(
            pg.report.total_bytes() < base.report.total_bytes(),
            "partial-gather must shrink traffic: {} vs {}",
            pg.report.total_bytes(),
            base.report.total_bytes()
        );
    }

    #[test]
    fn broadcast_reduces_bytes_on_out_skewed_graphs() {
        let g = test_graph(DegreeSkew::Out);
        let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
        let spec = ClusterSpec::pregel_cluster(8);
        let base = run_once(Backend::Pregel, &m, &g, spec, StrategyConfig::none()).unwrap();
        let bc = run_once(
            Backend::Pregel,
            &m,
            &g,
            spec,
            StrategyConfig::none()
                .with_broadcast(true)
                .with_threshold(10),
        )
        .unwrap();
        assert!(
            bc.report.total_bytes() < base.report.total_bytes(),
            "broadcast must shrink traffic: {} vs {}",
            bc.report.total_bytes(),
            base.report.total_bytes()
        );
    }

    #[test]
    fn fused_columnar_shuffle_is_vertex_bound_not_edge_bound() {
        // Dense graph (avg degree ~40 >> 4 workers): with fusion, the
        // columnar plane carries at most workers x V partial rows per
        // layer instead of E rows -- O(V*d), not O(E*d).
        let g = generate(&GenConfig {
            n_nodes: 150,
            n_edges: 6000,
            feat_dim: 8,
            classes: 3,
            skew: DegreeSkew::In,
            seed: 13,
            ..GenConfig::default()
        });
        let m = GnnModel::sage(8, 8, 2, 3, false, PoolOp::Sum, 4);
        let spec = ClusterSpec::pregel_cluster(4);
        let fused = run_once(Backend::Pregel, &m, &g, spec, StrategyConfig::all()).unwrap();
        let materialized = run_once(
            Backend::Pregel,
            &m,
            &g,
            spec,
            StrategyConfig::all().with_partial_gather(false),
        )
        .unwrap();
        let fb = fused.report.message_bytes.columnar;
        let mb = materialized.report.message_bytes.columnar;
        assert!(
            fb * 3 < mb,
            "fusion should collapse per-edge rows into per-(worker,vertex) \
             partials: fused {fb} vs materialized {mb}"
        );
        // Hard bound: per layer the fused plane carries at most
        // workers x V partial rows of (dim*4 + framing<=25) bytes.
        let layers = 2u64;
        let bound = layers * 4 * 150 * (8 * 4 + 25);
        assert!(
            fb <= bound,
            "fused plane exceeded its O(V*d) bound: {fb} > {bound}"
        );
        // And the math is untouched.
        for (a, b) in fused.logits.iter().zip(&materialized.logits) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-4 * x.abs().max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn multilabel_logits_have_label_width() {
        let g = test_graph(DegreeSkew::In);
        let m = GnnModel::sage(5, 8, 1, 7, true, PoolOp::Mean, 2);
        let out = run_once(
            Backend::Pregel,
            &m,
            &g,
            ClusterSpec::pregel_cluster(4),
            StrategyConfig::none(),
        )
        .unwrap();
        assert!(out.logits.iter().all(|l| l.len() == 7));
    }
}
