//! "Bits equal to the parent" as a tier-1 fact.
//!
//! Every kernel change so far proved bit-identity with a scratch script
//! that hashed logits at two commits. This file is that script, kept: an
//! FNV-1a hash of the logit bit patterns of SAGE-mean, SAGE-max and GCN on
//! each backend, over one in-hub and one out-hub generated graph with every
//! strategy on. The constants were recorded at the commit *before* the
//! register-blocked `matvec_acc` landed (PR 24's parent), so a kernel that
//! reorders a single lane's accumulation, or a gather that rounds once
//! more or once less, fails here by name. The three layer kinds use only
//! `+`, `×`, `1/√` and `max`, which IEEE-754 pins; the generated features
//! go through the host's `ln` / `cos` / `pow` once, in `f64`, before they
//! are rounded to `f32`.
//!
//! GAT's softmax calls the host's `exp` per edge, so an absolute constant
//! would pin the libm rather than the kernels: it is held backend against
//! backend instead.
//!
//! To re-record after an *intended* numeric change, run the suite and copy
//! the table the failing assertion prints.

mod common;
use common::run_once;

use inferturbo::cluster::ClusterSpec;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::Backend;
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;

const FEAT: usize = 12;
const HIDDEN: usize = 40;
const CLASSES: usize = 5;
const WORKERS: usize = 3;

const BACKENDS: [Backend; 3] = [Backend::Pregel, Backend::MapReduce, Backend::Reference];
const SKEWS: [DegreeSkew; 2] = [DegreeSkew::In, DegreeSkew::Out];
const MODELS: [&str; 3] = ["sage-mean", "sage-max", "gcn"];

/// `GOLDEN[graph][model][backend]`, in the order of the arrays above.
const GOLDEN: [[[u64; 3]; 3]; 2] = [
    [
        [0xf618a3ca9e7aea18, 0xca0ca6c46337a394, 0x01a610e239415bd8],
        [0x25e7735deff7bb4a, 0x25e7735deff7bb4a, 0x25e7735deff7bb4a],
        [0xc4debbac5597d161, 0xcb6d33229082b524, 0x0a42740adb28f4ca],
    ],
    [
        [0xc6cdca8edc935229, 0x71d09d2e0c671b49, 0xc74f3c6ce7cd0c2c],
        [0x510e28d9c53d68c8, 0x510e28d9c53d68c8, 0x510e28d9c53d68c8],
        [0x6233f9f8dc71d1a0, 0x85cfe3e77c1c84cb, 0x7dd3e06a0138ed31],
    ],
];

fn graph(skew: DegreeSkew) -> Graph {
    generate(&GenConfig {
        n_nodes: 500,
        n_edges: 6000,
        alpha: 1.2,
        skew,
        feat_dim: FEAT,
        classes: CLASSES as u32,
        seed: 2024,
        ..GenConfig::default()
    })
}

fn model(name: &str) -> GnnModel {
    match name {
        "sage-mean" => GnnModel::sage(FEAT, HIDDEN, 2, CLASSES, false, PoolOp::Mean, 31),
        "sage-max" => GnnModel::sage(FEAT, HIDDEN, 2, CLASSES, false, PoolOp::Max, 32),
        "gcn" => GnnModel::gcn(FEAT, HIDDEN, 2, CLASSES, false, 33),
        "gat" => GnnModel::gat(FEAT, HIDDEN, 4, 2, CLASSES, false, 34),
        other => panic!("no model named {other}"),
    }
}

fn logits(backend: Backend, model: &GnnModel, graph: &Graph) -> Vec<Vec<f32>> {
    let spec = match backend {
        Backend::MapReduce => ClusterSpec::mapreduce_cluster(WORKERS),
        _ => ClusterSpec::pregel_cluster(WORKERS),
    };
    run_once(backend, model, graph, spec, StrategyConfig::all())
        .expect("run")
        .logits
}

/// FNV-1a over every logit's bit pattern, little-endian, in node order.
fn fnv(logits: &[Vec<f32>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in logits
        .iter()
        .flatten()
        .flat_map(|x| x.to_bits().to_le_bytes())
    {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn pooled_layers_keep_the_bits_recorded_at_pr24s_parent() {
    let mut got = [[[0u64; 3]; 3]; 2];
    for (g, &skew) in SKEWS.iter().enumerate() {
        let graph = graph(skew);
        for (m, name) in MODELS.iter().enumerate() {
            let model = model(name);
            for (b, &backend) in BACKENDS.iter().enumerate() {
                let out = logits(backend, &model, &graph);
                assert_eq!(out.len(), graph.n_nodes());
                assert!(out.iter().flatten().all(|x| x.is_finite()));
                got[g][m][b] = fnv(&out);
            }
        }
    }
    let table: Vec<String> = got
        .iter()
        .map(|per_graph| {
            let rows: Vec<String> = per_graph
                .iter()
                .map(|r| format!("        [{:#018x}, {:#018x}, {:#018x}],", r[0], r[1], r[2]))
                .collect();
            format!("    [\n{}\n    ],", rows.join("\n"))
        })
        .collect();
    assert!(
        got == GOLDEN,
        "logit bits moved; the table now reads\n[\n{}\n]",
        table.join("\n")
    );
}

#[test]
fn the_graphs_engage_every_strategy() {
    // The constants above mean little if no hub is split or broadcast:
    // hold the two graphs to the shape they were chosen for.
    for (skew, wants_mirrors) in [(DegreeSkew::In, false), (DegreeSkew::Out, true)] {
        let graph = graph(skew);
        let (max_in, max_out) = graph.max_degrees();
        let model = model("sage-mean");
        let report = run_once(
            Backend::Pregel,
            &model,
            &graph,
            ClusterSpec::pregel_cluster(WORKERS),
            StrategyConfig::all(),
        )
        .expect("run")
        .report;
        if wants_mirrors {
            assert!(max_out > 100, "out-hub graph has a hub: {max_out}");
            assert!(
                report.message_bytes.legacy > 0,
                "an out-hub broadcasts: refs ride the typed plane"
            );
        } else {
            assert!(max_in > 100, "in-hub graph has a hub: {max_in}");
            assert_eq!(report.message_bytes.legacy, 0, "no out-hub, no refs");
        }
    }
}

#[test]
fn gat_agrees_backend_against_backend() {
    for &skew in &SKEWS {
        let graph = graph(skew);
        let model = model("gat");
        let reference = logits(Backend::Reference, &model, &graph);
        for backend in [Backend::Pregel, Backend::MapReduce] {
            let out = logits(backend, &model, &graph);
            assert_eq!(out.len(), reference.len());
            for (v, (a, b)) in out.iter().zip(&reference).enumerate() {
                for (x, y) in a.iter().zip(b) {
                    assert!(
                        (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                        "{backend:?} vs Reference at node {v}: {x} vs {y}"
                    );
                }
            }
        }
    }
}
