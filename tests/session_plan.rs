//! Session-pipeline contract tests (see `inferturbo_core::session`):
//!
//! 1. **Plan reuse**: one plan, many `.run()` calls, across thread budgets
//!    — every run bit-identical to a fresh one-shot run. Thread budgets
//!    are driven through `Parallelism::with`, the programmatic equivalent
//!    of the `INFERTURBO_THREADS` environment override (the env var is
//!    read once per process, so tests must use the override API).
//! 2. **Wrapper equivalence**: a single-use plan (`common::run_once`) is
//!    pinned bit-identical to a reused plan's runs for every model ×
//!    strategy combination of the equivalence suite.
//! 3. **Backend auto-selection**: `Backend::Auto` flips from Pregel to
//!    MapReduce exactly when the memory budget drops below the plan's
//!    resident-state estimate.
//! 4. **Fresh features**: `run_with_features` with the graph's own
//!    features is bit-identical to `run`; with different features it
//!    matches a reference forward over those features.

mod common;
use common::run_once;

use inferturbo::cluster::ClusterSpec;
use inferturbo::common::Parallelism;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;

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

fn bits(logits: &[Vec<f32>]) -> Vec<Vec<u32>> {
    logits
        .iter()
        .map(|l| l.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn one_plan_many_runs_bit_identical_across_thread_counts() {
    let g = test_graph(DegreeSkew::Out);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 9);
    let strat = StrategyConfig::all().with_threshold(5);
    for (backend, spec) in [
        (Backend::Pregel, ClusterSpec::pregel_cluster(8)),
        (Backend::MapReduce, ClusterSpec::mapreduce_cluster(8)),
    ] {
        let plan = InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(8)
            .strategy(strat)
            .backend(backend)
            .plan()
            .unwrap();
        // Fresh one-shot baseline at the serial budget.
        let want = Parallelism::with(1, || run_once(backend, &m, &g, spec, strat).unwrap());
        let want_bits = bits(&want.logits);
        // One plan, repeated runs, different thread budgets each time —
        // including re-running at an already-used budget to exercise the
        // pooled (warm) scratch path.
        for threads in [1usize, 2, 4, 1, 4] {
            let out = Parallelism::with(threads, || plan.run().unwrap());
            assert_eq!(
                bits(&out.logits),
                want_bits,
                "{backend:?} diverged at {threads} threads"
            );
            assert_eq!(
                out.report.total_bytes(),
                want.report.total_bytes(),
                "{backend:?} byte accounting diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn wrappers_pin_bit_identical_to_session_path_for_every_combo() {
    let g = test_graph(DegreeSkew::Out);
    for (name, m) in models() {
        for pg in [false, true] {
            for sn in [false, true] {
                let strat = StrategyConfig::none()
                    .with_partial_gather(pg)
                    .with_broadcast(true)
                    .with_shadow_nodes(sn)
                    .with_threshold(5);
                for (backend, spec) in [
                    (Backend::Pregel, ClusterSpec::pregel_cluster(8)),
                    (Backend::MapReduce, ClusterSpec::mapreduce_cluster(8)),
                ] {
                    let wrapper = run_once(backend, &m, &g, spec, strat).unwrap();
                    let session = InferenceSession::builder()
                        .model(&m)
                        .graph(&g)
                        .pregel_spec(spec)
                        .mapreduce_spec(spec)
                        .strategy(strat)
                        .backend(backend)
                        .plan()
                        .unwrap();
                    let a = session.run().unwrap();
                    let b = session.run().unwrap();
                    assert_eq!(
                        bits(&wrapper.logits),
                        bits(&a.logits),
                        "{name} {backend:?} wrapper vs session (pg={pg} sn={sn})"
                    );
                    assert_eq!(bits(&a.logits), bits(&b.logits), "{name} {backend:?} rerun");
                }
            }
        }
    }
}

#[test]
fn auto_backend_flips_on_the_memory_budget() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
    let probe = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .workers(4)
        .plan()
        .unwrap();
    let resident = probe.estimate().pregel_peak_worker_bytes;
    assert!(resident > 0);

    let roomy = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .workers(4)
        .memory_budget(resident)
        .plan()
        .unwrap();
    assert_eq!(roomy.backend(), Backend::Pregel);
    let squeezed = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .workers(4)
        .memory_budget(resident - 1)
        .plan()
        .unwrap();
    assert_eq!(squeezed.backend(), Backend::MapReduce);
    // Both plans still run and agree on predictions.
    let a = roomy.run().unwrap();
    let b = squeezed.run().unwrap();
    assert_eq!(a.predictions(), b.predictions());
}

#[test]
fn run_with_features_matches_run_and_reference() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
    let plan = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .workers(4)
        .strategy(StrategyConfig::all().with_threshold(8))
        .backend(Backend::Pregel)
        .plan()
        .unwrap();

    // Same features => bit-identical to the plain run.
    let own: Vec<Vec<f32>> = (0..g.n_nodes() as u32)
        .map(|v| g.node_feat(v).to_vec())
        .collect();
    let base = plan.run().unwrap();
    let same = plan.run_with_features(&own).unwrap();
    assert_eq!(bits(&base.logits), bits(&same.logits));

    // Fresh features => matches the reference forward over them.
    let fresh: Vec<Vec<f32>> = own
        .iter()
        .enumerate()
        .map(|(v, f)| f.iter().map(|x| x * 0.5 + v as f32 * 1e-3).collect())
        .collect();
    let out = plan.run_with_features(&fresh).unwrap();
    assert_ne!(bits(&base.logits), bits(&out.logits));
    let reference = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .backend(Backend::Reference)
        .plan()
        .unwrap()
        .run_with_features(&fresh)
        .unwrap();
    for (v, (a, b)) in out.logits.iter().zip(&reference.logits).enumerate() {
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x - y).abs() < 1e-3,
                "node {v}: pregel {x} vs reference {y}"
            );
        }
    }

    // Shape validation.
    assert!(plan.run_with_features(&own[1..]).is_err());
    let mut ragged = own.clone();
    ragged[3].push(0.0);
    assert!(plan.run_with_features(&ragged).is_err());
}
