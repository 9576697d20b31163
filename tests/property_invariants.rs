//! Property-based cross-crate invariants: for randomly generated graphs
//! and model shapes, the backends must agree with the reference and the
//! strategies must be cost-only transformations.

mod common;
use common::run_once;

use inferturbo::cluster::ClusterSpec;
use inferturbo::core::infer_reference;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::Backend;
use inferturbo::core::strategy::{build_node_records, StrategyConfig};
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn backends_match_reference_on_random_graphs(
        seed in 0u64..1000,
        n_nodes in 30usize..120,
        avg_deg in 1usize..8,
        skew_sel in 0u8..3,
        model_sel in 0u8..3,
        workers in 1usize..9,
        threshold in 2u32..30,
    ) {
        let skew = match skew_sel {
            0 => DegreeSkew::In,
            1 => DegreeSkew::Out,
            _ => DegreeSkew::None,
        };
        let g = generate(&GenConfig {
            n_nodes,
            n_edges: n_nodes * avg_deg,
            feat_dim: 5,
            classes: 3,
            skew,
            seed,
            ..GenConfig::default()
        });
        let model = match model_sel {
            0 => GnnModel::sage(5, 6, 2, 3, false, PoolOp::Mean, seed),
            1 => GnnModel::gcn(5, 6, 2, 3, false, seed),
            _ => GnnModel::gat(5, 6, 2, 2, 3, false, seed),
        };
        let want = infer_reference(&model, &g).expect("reference");
        let strat = StrategyConfig::all().with_threshold(threshold);
        let pregel = run_once(Backend::Pregel, &model, &g, ClusterSpec::pregel_cluster(workers), strat)
            .unwrap();
        let mr = run_once(Backend::MapReduce, &model, &g, ClusterSpec::mapreduce_cluster(workers), strat)
            .unwrap();
        for (v, want_row) in want.iter().enumerate() {
            for (c, &wv) in want_row.iter().enumerate() {
                prop_assert!((pregel.logits[v][c] - wv).abs() < 2e-3,
                    "pregel v={} c={}: {} vs {}", v, c, pregel.logits[v][c], wv);
                prop_assert!((mr.logits[v][c] - wv).abs() < 2e-3,
                    "mr v={} c={}: {} vs {}", v, c, mr.logits[v][c], wv);
            }
        }
    }

    #[test]
    fn shadow_transform_conserves_edges_and_degrees(
        seed in 0u64..1000,
        n_nodes in 20usize..100,
        avg_deg in 1usize..10,
        threshold in 1u32..20,
    ) {
        let g = generate(&GenConfig {
            n_nodes,
            n_edges: n_nodes * avg_deg,
            feat_dim: 2,
            classes: 2,
            skew: DegreeSkew::Out,
            seed,
            ..GenConfig::default()
        });
        let strat = StrategyConfig::none().with_shadow_nodes(true).with_threshold(threshold);
        let records = build_node_records(&g, &strat, 4).expect("records");
        let out_deg = g.out_degrees();
        // every original node appears as mirror 0
        let mirror0 = records.iter()
            .filter(|r| inferturbo::core::strategy::mirror_of(r.wire) == 0)
            .count();
        prop_assert_eq!(mirror0, n_nodes);
        // logical degrees preserved on every mirror
        for r in &records {
            prop_assert_eq!(r.out_deg, out_deg[r.base as usize]);
        }
        // each original edge delivered exactly once per destination mirror:
        // total targets = sum over edges of (#mirrors of dst)
        let groups: Vec<u32> = (0..n_nodes as u32).map(|v| {
            if out_deg[v as usize] > threshold {
                out_deg[v as usize].div_ceil(threshold)
            } else { 1 }
        }).collect();
        let expected: usize = g.dst().iter().map(|&d| groups[d as usize] as usize).sum();
        let total: usize = records.iter().map(|r| r.out_targets.len()).sum();
        prop_assert_eq!(total, expected);
        // no mirror's physical out-share exceeds threshold unless unsplit
        for r in &records {
            if out_deg[r.base as usize] > threshold {
                let per_mirror_share = r.out_targets.iter()
                    .map(|&t| 1.0 / groups[inferturbo::core::strategy::base_of(t) as usize] as f64)
                    .sum::<f64>();
                prop_assert!(per_mirror_share <= threshold as f64 + 1e-6,
                    "mirror of {} carries {} original edges (threshold {})",
                    r.base, per_mirror_share, threshold);
            }
        }
    }

    #[test]
    fn strategy_threshold_formula(edges in 1usize..10_000_000, workers in 1usize..5000) {
        let s = StrategyConfig::all();
        let t = s.threshold(edges, workers);
        prop_assert!(t >= 1);
        let expect = (0.1 * edges as f64 / workers as f64) as u64;
        prop_assert!(t == expect.max(1));
    }
}
