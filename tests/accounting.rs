//! Both engines' accounting as a tier-1 fact.
//!
//! `golden_bits` pins the logits; this file pins what a run *reports*: an
//! FNV-1a hash of the `RunReport`'s `Debug` rendering (every phase's
//! per-worker records, bytes, flops and modelled memory, the message
//! planes, retries and wire bytes) and of the rendered flight recorder
//! trace, on MapReduce and on Pregel, for SAGE-mean, SAGE-max, GCN and GAT
//! with partial-gather on and off, in process and across worker
//! processes, over `golden_bits`'s in-hub and out-hub graphs. Neither the
//! report nor the trace holds a logit, so GAT's host `exp` cannot move
//! them: every model is held to an absolute constant.
//!
//! Every case runs at 1, 2 and 3 threads over its 3 workers: the row
//! barrier computes a fused plane in waves of as many senders as there
//! are threads, so that is three waves, a full wave and a short one, and
//! one wave. Each must report and trace the same bytes.
//!
//! A change to the shuffle or to a Pregel send that charges a record once
//! more or once less, or models a fused partial's residency differently,
//! fails here by name; the order a destination combines in shows in the
//! logits, which `golden_bits` holds. To re-record after an *intended*
//! accounting change, run the suite and copy the table the failing
//! assertion prints.

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

/// `[graph][model][partial_gather]`, in the order of the arrays above.
type Pins = [[[PerTransport; 2]; 4]; 2];

/// The backends, each with its pins.
const BACKENDS: [(Backend, &Pins); 2] =
    [(Backend::MapReduce, &MAPREDUCE), (Backend::Pregel, &PREGEL)];

const MAPREDUCE: Pins = [
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

const PREGEL: Pins = [
    [
        [
            [
                (0x47de156d3c9f8f24, 0x4a4571c56e3e8b00),
                (0x4d19d69dfb18cad2, 0x4a4571c56e3e8b00),
            ],
            [
                (0xa23172410fd2e099, 0xace5e57216379293),
                (0x87e122c60fa11a91, 0xace5e57216379293),
            ],
        ],
        [
            [
                (0x47de156d3c9f8f24, 0x4a4571c56e3e8b00),
                (0x4d19d69dfb18cad2, 0x4a4571c56e3e8b00),
            ],
            [
                (0xa23172410fd2e099, 0xace5e57216379293),
                (0x87e122c60fa11a91, 0xace5e57216379293),
            ],
        ],
        [
            [
                (0x5a6adcb2ca510d3c, 0xaf777232ea233e4b),
                (0x6a04760750b64d8a, 0xaf777232ea233e4b),
            ],
            [
                (0x38b4acd024cd5b09, 0xe21cae294839f7a4),
                (0xeb0fa12e111306c1, 0xe21cae294839f7a4),
            ],
        ],
        [
            [
                (0xc711e85356700d2f, 0x75e9af51da98ed6f),
                (0x15c9fe6eed125b99, 0x75e9af51da98ed6f),
            ],
            [
                (0xc711e85356700d2f, 0x75e9af51da98ed6f),
                (0x15c9fe6eed125b99, 0x75e9af51da98ed6f),
            ],
        ],
    ],
    [
        [
            [
                (0xa2fcb5e2d22c05e9, 0x767d016ad186848f),
                (0xa478d4254d97ddef, 0x767d016ad186848f),
            ],
            [
                (0xe56684809af52e54, 0x80c0337505dbae23),
                (0xfa08837f54a43174, 0x80c0337505dbae23),
            ],
        ],
        [
            [
                (0xa2fcb5e2d22c05e9, 0x767d016ad186848f),
                (0xa478d4254d97ddef, 0x767d016ad186848f),
            ],
            [
                (0xe56684809af52e54, 0x80c0337505dbae23),
                (0xfa08837f54a43174, 0x80c0337505dbae23),
            ],
        ],
        [
            [
                (0x5a4427681f59e243, 0x44d7692eb7611281),
                (0xe6975ddaea6f7a3d, 0x44d7692eb7611281),
            ],
            [
                (0x1ebef5a58fa597c2, 0x222302709d4abe49),
                (0xad581c2f70f93302, 0x222302709d4abe49),
            ],
        ],
        [
            [
                (0x522a47ecda8a9d6c, 0x9b2cf4a09ada4a2f),
                (0xd98991dd0a8b6c53, 0x9b2cf4a09ada4a2f),
            ],
            [
                (0x522a47ecda8a9d6c, 0x9b2cf4a09ada4a2f),
                (0xd98991dd0a8b6c53, 0x9b2cf4a09ada4a2f),
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

/// One traced run: the hashes of its report and its trace.
fn pins(
    backend: Backend,
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
        .pregel_spec(ClusterSpec::pregel_cluster(WORKERS))
        .strategy(StrategyConfig::all().with_partial_gather(partial_gather))
        .backend(backend)
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
fn reports_and_traces_keep_their_pinned_bytes() {
    let transports: [Arc<dyn Transport>; 2] = [
        Arc::new(InProcess),
        Arc::new(WorkerProcess::with_bin(worker_bin())),
    ];
    let graphs: Vec<Graph> = SKEWS.iter().map(|&skew| graph(skew)).collect();
    for (backend, pinned) in BACKENDS {
        for threads in THREADS {
            let mut got: Pins = [[[[(0, 0); 2]; 2]; 4]; 2];
            for (g, graph) in graphs.iter().enumerate() {
                for (m, name) in MODELS.iter().enumerate() {
                    let model = model(name);
                    for (p, &partial_gather) in PARTIAL_GATHER.iter().enumerate() {
                        for (t, transport) in transports.iter().enumerate() {
                            got[g][m][p][t] = Parallelism::with(threads, || {
                                pins(backend, &model, graph, partial_gather, transport)
                            });
                        }
                    }
                }
            }
            assert!(
                got == *pinned,
                "{backend:?} accounting moved at {threads} threads; the table now reads\n[\n{}\n]",
                render(&got)
            );
        }
    }
}

/// `got` in the layout of a backend's pins, to paste over them.
fn render(got: &Pins) -> String {
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
