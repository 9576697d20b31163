//! MapReduce's accounting as a tier-1 fact.
//!
//! `golden_bits` pins the logits; this file pins what a MapReduce run
//! *reports*: an FNV-1a hash of the `RunReport`'s `Debug` rendering (every
//! phase's per-worker records, bytes, flops and modelled memory, the
//! message planes, retries and wire bytes) and of the rendered flight
//! recorder trace, for SAGE-mean, SAGE-max, GCN and GAT with partial-gather
//! on and off, in process and across worker processes, over
//! `golden_bits`'s in-hub and out-hub graphs. Neither the report nor the
//! trace holds a logit, so GAT's host `exp` cannot move them: every model
//! is held to an absolute constant.
//!
//! Every case runs at 1, 2 and 3 threads over its 3 workers: the row
//! barrier computes a fused plane in waves of as many senders as there
//! are threads, so that is three waves, a full wave and a short one, and
//! one wave. Each must report and trace the same bytes.
//!
//! A change to the shuffle that charges a record once more or once less,
//! or models a fused partial's residency differently, fails here by name;
//! the order a reducer combines in shows in the logits, which
//! `golden_bits` holds. To re-record after an *intended* accounting change,
//! run the suite and copy the table the failing assertion prints.

mod common;
use common::worker_bin;

use inferturbo::cluster::{ClusterSpec, InProcess, Transport, WorkerProcess};
use inferturbo::common::Parallelism;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::obs::TraceHandle;
use std::sync::Arc;

const FEAT: usize = 12;
const HIDDEN: usize = 40;
const CLASSES: usize = 5;
const WORKERS: usize = 3;

const SKEWS: [DegreeSkew; 2] = [DegreeSkew::In, DegreeSkew::Out];
const MODELS: [&str; 4] = ["sage-mean", "sage-max", "gcn", "gat"];
const PARTIAL_GATHER: [bool; 2] = [true, false];
/// Thread budgets: waves of one sender, of two (a full wave and a short
/// one) and of all three.
const THREADS: [usize; 3] = [1, 2, 3];

/// `(report, trace)` hashes per transport: `InProcess`, then
/// `WorkerProcess`.
type PerTransport = [(u64, u64); 2];

/// `PINS[graph][model][partial_gather]`, in the order of the arrays above.
const PINS: [[[PerTransport; 2]; 4]; 2] = [
    [
        [
            [
                (0x83be22b1ebe17d3c, 0x5de0e0a74b57fe8b),
                (0x3d84adf6f615f1ca, 0x5de0e0a74b57fe8b),
            ],
            [
                (0xda8e0c2e3de916ee, 0xb66bea9b4a445d73),
                (0x133f5c97b653f50b, 0xb66bea9b4a445d73),
            ],
        ],
        [
            [
                (0x83be22b1ebe17d3c, 0x5de0e0a74b57fe8b),
                (0x3d84adf6f615f1ca, 0x5de0e0a74b57fe8b),
            ],
            [
                (0xda8e0c2e3de916ee, 0xb66bea9b4a445d73),
                (0x133f5c97b653f50b, 0xb66bea9b4a445d73),
            ],
        ],
        [
            [
                (0x47792082b71a451e, 0x3c16348c8ad418f6),
                (0x31aca258e3c997f8, 0x3c16348c8ad418f6),
            ],
            [
                (0x3abbf26746483a49, 0x2f08ea3456c904de),
                (0xea68a14e7a28dac8, 0x2f08ea3456c904de),
            ],
        ],
        [
            [
                (0x9b9ae862c13b5b6b, 0x9b86c7df3b5b21c6),
                (0x5cf74f4521c7d1e9, 0x9b86c7df3b5b21c6),
            ],
            [
                (0x9b9ae862c13b5b6b, 0x9b86c7df3b5b21c6),
                (0x5cf74f4521c7d1e9, 0x9b86c7df3b5b21c6),
            ],
        ],
    ],
    [
        [
            [
                (0x7f9b29ff5bf89b8d, 0x6e1000685f568101),
                (0xd986ce545a026d16, 0x6e1000685f568101),
            ],
            [
                (0x3802457495e7feee, 0xac0d2d74731c6e7f),
                (0xe4ea7490f7ac4895, 0xac0d2d74731c6e7f),
            ],
        ],
        [
            [
                (0x7f9b29ff5bf89b8d, 0x6e1000685f568101),
                (0xd986ce545a026d16, 0x6e1000685f568101),
            ],
            [
                (0x3802457495e7feee, 0xac0d2d74731c6e7f),
                (0xe4ea7490f7ac4895, 0xac0d2d74731c6e7f),
            ],
        ],
        [
            [
                (0xa24081756631c9fe, 0x7040200feb7f7ae5),
                (0x82ff48ee2313e935, 0x7040200feb7f7ae5),
            ],
            [
                (0x0035b1b0be4cd095, 0x01babcef839d693d),
                (0x7b0d9de677632206, 0x01babcef839d693d),
            ],
        ],
        [
            [
                (0xd2f63c66693bda66, 0x96ce13494c3f58d6),
                (0x84a3f7dd5d4458fa, 0x96ce13494c3f58d6),
            ],
            [
                (0xd2f63c66693bda66, 0x96ce13494c3f58d6),
                (0x84a3f7dd5d4458fa, 0x96ce13494c3f58d6),
            ],
        ],
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

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One traced MapReduce run: the hashes of its report and its trace.
fn pins(
    model: &GnnModel,
    graph: &Graph,
    partial_gather: bool,
    transport: &Arc<dyn Transport>,
) -> (u64, u64) {
    let trace = TraceHandle::recording();
    let out = InferenceSession::builder()
        .model(model)
        .graph(graph)
        .mapreduce_spec(ClusterSpec::mapreduce_cluster(WORKERS))
        .strategy(StrategyConfig::all().with_partial_gather(partial_gather))
        .backend(Backend::MapReduce)
        .transport(Arc::clone(transport))
        .trace(trace.clone())
        .plan()
        .expect("plan")
        .run()
        .expect("run");
    assert_eq!(out.logits.len(), graph.n_nodes());
    (
        fnv(format!("{:?}", out.report).as_bytes()),
        fnv(trace.render().as_bytes()),
    )
}

#[test]
fn mapreduce_reports_and_traces_keep_their_pinned_bytes() {
    let transports: [Arc<dyn Transport>; 2] = [
        Arc::new(InProcess),
        Arc::new(WorkerProcess::with_bin(worker_bin())),
    ];
    let graphs: Vec<Graph> = SKEWS.iter().map(|&skew| graph(skew)).collect();
    for threads in THREADS {
        let mut got: [[[PerTransport; 2]; 4]; 2] = [[[[(0, 0); 2]; 2]; 4]; 2];
        for (g, graph) in graphs.iter().enumerate() {
            for (m, name) in MODELS.iter().enumerate() {
                let model = model(name);
                for (p, &partial_gather) in PARTIAL_GATHER.iter().enumerate() {
                    for (t, transport) in transports.iter().enumerate() {
                        got[g][m][p][t] = Parallelism::with(threads, || {
                            pins(&model, graph, partial_gather, transport)
                        });
                    }
                }
            }
        }
        assert!(
            got == PINS,
            "MapReduce accounting moved at {threads} threads; the table now reads\n[\n{}\n]",
            render(&got)
        );
    }
}

/// `got` in the layout of [`PINS`], to paste over it.
fn render(got: &[[[PerTransport; 2]; 4]; 2]) -> String {
    let pair = |(r, t): (u64, u64)| format!("                ({r:#018x}, {t:#018x}),");
    let table: Vec<String> = got
        .iter()
        .map(|per_graph| {
            let models: Vec<String> = per_graph
                .iter()
                .map(|per_model| {
                    let rows: Vec<String> = per_model
                        .iter()
                        .map(|r| {
                            format!(
                                "            [\n{}\n{}\n            ],",
                                pair(r[0]),
                                pair(r[1])
                            )
                        })
                        .collect();
                    format!("        [\n{}\n        ],", rows.join("\n"))
                })
                .collect();
            format!("    [\n{}\n    ],", models.join("\n"))
        })
        .collect();
    table.join("\n")
}
