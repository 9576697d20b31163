//! The determinism contract of `inferturbo_common::par`, enforced
//! end-to-end: `Parallelism(1)` and `Parallelism(N)` must produce the same
//! results everywhere — Pregel vertex states, MapReduce outputs, full GNN
//! inference on both backends, and every tensor kernel. Exact (bitwise) for
//! the engines and the segment reductions; 1e-5 relative for the blocked
//! GEMM, whose panel blocking is allowed (but not currently required) to
//! regroup accumulation.

mod common;
use common::{id_addressed_engine, run_once};

use inferturbo::cluster::ClusterSpec;
use inferturbo::common::{Parallelism, Result, SpillPolicy, Xoshiro256};
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::pregel::{
    AggKind, FusedAggregator, Inbox, MessageLayout, Outbox, PregelConfig, RowsIn, VertexProgram,
};
use inferturbo::tensor::Matrix;

const PAR_THREADS: usize = 4;

fn test_graph(seed: u64, n_nodes: usize, n_edges: usize) -> Graph {
    generate(&GenConfig {
        n_nodes,
        n_edges,
        feat_dim: 8,
        classes: 3,
        skew: DegreeSkew::In,
        seed,
        ..GenConfig::default()
    })
}

// ---- Pregel vertex states -------------------------------------------------

/// PageRank over the generated graph's adjacency: enough supersteps and
/// typed-plane message traffic to exercise shard merging and the arena.
struct PageRank {
    n: f64,
}

#[derive(Clone)]
struct PrState {
    rank: f64,
    nbrs: Vec<u64>,
}

impl VertexProgram for PageRank {
    type State = PrState;
    type Msg = f32;

    fn compute(
        &self,
        step: usize,
        _vertex: u64,
        state: &mut PrState,
        inbox: Inbox<'_, f32>,
        out: &mut Outbox<f32>,
    ) -> Result<()> {
        if step > 0 {
            let sum: f64 = inbox.messages.iter().map(|&m| m as f64).sum();
            state.rank = 0.15 / self.n + 0.85 * sum;
        }
        if !state.nbrs.is_empty() {
            let share = (state.rank / state.nbrs.len() as f64) as f32;
            for &nb in &state.nbrs {
                out.send(nb, share);
            }
        }
        Ok(())
    }
}

fn pagerank_states(g: &Graph, workers: usize, supersteps: usize) -> (Vec<u64>, u64) {
    let n = g.n_nodes();
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (&s, &d) in g.src().iter().zip(g.dst()) {
        adj[s as usize].push(d as u64);
    }
    let cfg = PregelConfig::new(ClusterSpec::test_spec(workers));
    let states = |v: usize| PrState {
        rank: 1.0 / n as f64,
        nbrs: adj[v].clone(),
    };
    let mut eng = id_addressed_engine(PageRank { n: n as f64 }, cfg, n, states);
    eng.run(supersteps).unwrap();
    let mut ranks = vec![0u64; n];
    eng.for_each_state(|id, st| ranks[id as usize] = st.rank.to_bits());
    (ranks, eng.report().total_bytes())
}

#[test]
fn pregel_states_bitwise_identical_across_thread_counts() {
    let g = test_graph(11, 400, 2400);
    for workers in [1usize, 3, 8] {
        let serial = Parallelism::with(1, || pagerank_states(&g, workers, 8));
        let parallel = Parallelism::with(PAR_THREADS, || pagerank_states(&g, workers, 8));
        assert_eq!(serial.0, parallel.0, "states diverged at {workers} workers");
        assert_eq!(
            serial.1, parallel.1,
            "byte accounting diverged at {workers} workers"
        );
    }
}

// ---- Columnar-plane Pregel states ------------------------------------------

/// Feature sum over the columnar plane: step 0 scatters each vertex's
/// dim-4 feature row (fused when `fused`), step 1 stores the aggregate.
struct ColSum {
    fused: bool,
    agg: AggKind,
}

#[derive(Clone)]
struct ColState {
    feat: Vec<f32>,
    nbrs: Vec<u64>,
    agg: Vec<f32>,
}

impl VertexProgram for ColSum {
    type State = ColState;
    type Msg = f32; // typed plane unused

    fn compute(
        &self,
        step: usize,
        _vertex: u64,
        state: &mut ColState,
        inbox: Inbox<'_, f32>,
        out: &mut Outbox<f32>,
    ) -> Result<()> {
        if step == 0 {
            for &nb in &state.nbrs {
                out.send_row(nb, &state.feat);
            }
            return Ok(());
        }
        let mut acc: Vec<f32> = Vec::new();
        match inbox.rows {
            RowsIn::Rows(rows) => {
                for chunk in rows.iter() {
                    if acc.is_empty() {
                        acc.extend_from_slice(chunk);
                    } else {
                        self.agg.accumulate(&mut acc, chunk);
                    }
                }
            }
            RowsIn::Fused {
                acc: facc, count, ..
            } if count > 0 => acc = facc.to_vec(),
            _ => {}
        }
        state.agg = acc;
        Ok(())
    }

    fn message_layout(&self, step: usize) -> Option<MessageLayout> {
        (step == 0).then_some(MessageLayout { dim: 4 })
    }

    fn fused_aggregator(&self, step: usize) -> Option<AggKind> {
        (self.fused && step == 0).then_some(self.agg)
    }
}

fn columnar_states(
    g: &Graph,
    workers: usize,
    fused: bool,
    spill: Option<SpillPolicy>,
) -> (Vec<Vec<u32>>, u64, u64) {
    let n = g.n_nodes();
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (&s, &d) in g.src().iter().zip(g.dst()) {
        adj[s as usize].push(d as u64);
    }
    let cfg = PregelConfig::new(ClusterSpec::test_spec(workers)).with_spill(spill);
    let program = ColSum {
        fused,
        agg: PoolOp::Sum.agg_kind(),
    };
    let states = |v: usize| ColState {
        feat: (0..4)
            .map(|j| ((v as f32 + 1.0) * 0.13 + j as f32 * 0.41).sin())
            .collect(),
        nbrs: adj[v].clone(),
        agg: Vec::new(),
    };
    let mut eng = id_addressed_engine(program, cfg, n, states);
    eng.run(2).unwrap();
    let mut states = vec![Vec::new(); n];
    eng.for_each_state(|id, st| {
        states[id as usize] = st.agg.iter().map(|x| x.to_bits()).collect();
    });
    let mb = eng.report().message_bytes;
    (states, eng.report().total_bytes(), mb.columnar)
}

#[test]
fn columnar_pregel_states_bitwise_identical_across_thread_counts() {
    let g = test_graph(17, 400, 2400);
    for workers in [1usize, 3, 8] {
        for fused in [false, true] {
            let serial = Parallelism::with(1, || columnar_states(&g, workers, fused, None));
            let parallel =
                Parallelism::with(PAR_THREADS, || columnar_states(&g, workers, fused, None));
            assert_eq!(
                serial, parallel,
                "columnar states diverged at {workers} workers (fused={fused})"
            );
            assert!(serial.2 > 0, "columnar plane must carry the rows");
        }
    }
}

#[test]
fn spill_forced_columnar_states_bitwise_identical_for_every_thread_count() {
    // A 64-byte budget forces every columnar inbox — fused accumulators
    // and materialized arenas alike — through the disk path. States, byte
    // accounting, and the columnar plane totals must not move a bit
    // relative to the unconstrained in-memory run, at any thread budget.
    let g = test_graph(17, 400, 2400);
    let spill = SpillPolicy::new(std::env::temp_dir().join("inferturbo-spill-tests"), 64);
    for workers in [1usize, 3, 8] {
        for fused in [false, true] {
            let in_memory = Parallelism::with(1, || columnar_states(&g, workers, fused, None));
            for threads in [1usize, 2, PAR_THREADS] {
                let spilled = Parallelism::with(threads, || {
                    columnar_states(&g, workers, fused, Some(spill.clone()))
                });
                assert_eq!(
                    in_memory, spilled,
                    "spill diverged at {workers} workers, {threads} threads (fused={fused})"
                );
            }
        }
    }
}

// ---- Full inference on both backends --------------------------------------

fn logits_bits(out: &inferturbo::core::infer::InferenceOutput) -> Vec<Vec<u32>> {
    out.logits
        .iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn pregel_inference_bitwise_identical_across_thread_counts() {
    let g = test_graph(23, 300, 1800);
    let model = GnnModel::sage(8, 12, 2, 3, false, PoolOp::Mean, 7);
    let strat = StrategyConfig::all().with_threshold(8);
    for workers in [1usize, 4, 7] {
        let serial = Parallelism::with(1, || {
            run_once(
                Backend::Pregel,
                &model,
                &g,
                ClusterSpec::pregel_cluster(workers),
                strat,
            )
            .unwrap()
        });
        let parallel = Parallelism::with(PAR_THREADS, || {
            run_once(
                Backend::Pregel,
                &model,
                &g,
                ClusterSpec::pregel_cluster(workers),
                strat,
            )
            .unwrap()
        });
        assert_eq!(
            logits_bits(&serial),
            logits_bits(&parallel),
            "pregel logits diverged at {workers} workers"
        );
        assert_eq!(
            serial.report.total_bytes(),
            parallel.report.total_bytes(),
            "pregel bytes diverged at {workers} workers"
        );
        assert_eq!(
            serial.report.message_bytes, parallel.report.message_bytes,
            "pregel plane accounting diverged at {workers} workers"
        );
    }
}

/// The out-of-core acceptance criterion: a Pregel plan whose in-memory
/// peak residency exceeds the worker memory cap OOMs without a spill
/// budget, runs to completion with one, and the spilled run's logits are
/// bit-identical to the unconstrained in-memory run at every thread
/// count. `plan.summary()` and the `RunReport` expose resident vs spilled
/// bytes as separate planes.
#[test]
fn spill_budget_lifts_the_memory_cap_with_bit_identical_logits() {
    let g = test_graph(43, 300, 2400);
    let model = GnnModel::sage(8, 12, 2, 3, false, PoolOp::Mean, 7);
    // Materialized columnar rows (no partial gather): the O(E·d) inbox
    // dominates residency, the shape that forces the paper's MR fallback.
    let strat = StrategyConfig::all().with_partial_gather(false);
    let plan = |spec: ClusterSpec, spill: Option<u64>| {
        let mut b = InferenceSession::builder()
            .model(&model)
            .graph(&g)
            .pregel_spec(spec)
            .strategy(strat)
            .backend(Backend::Pregel)
            .spill_dir(std::env::temp_dir().join("inferturbo-spill-tests"));
        if let Some(bytes) = spill {
            b = b.spill_budget(bytes);
        }
        b.plan().unwrap()
    };

    // Unconstrained ground truth + its measured peak residency.
    let roomy = ClusterSpec::pregel_cluster(2);
    let unconstrained = plan(roomy, None);
    let want = Parallelism::with(1, || unconstrained.run().unwrap());
    let peak = want.report.max_mem_peak();
    assert_eq!(want.report.spilled_bytes, 0);

    // One byte under the measured peak: the in-memory plan must OOM...
    let tight = roomy.with_memory(peak - 1);
    let err = plan(tight, None).run().unwrap_err();
    assert!(err.is_oom(), "expected OOM under the tightened cap: {err}");

    // ...while a spill budget pages the inbox out and completes, at
    // bit-identical logits, for every thread budget.
    let spilling = plan(tight, Some(2048));
    assert!(
        spilling.estimate().pregel_spilled_worker_bytes > 0,
        "estimate must predict the spilled plane"
    );
    assert!(
        spilling.estimate().pregel_peak_worker_bytes
            < unconstrained.estimate().pregel_peak_worker_bytes,
        "spilling must shrink the predicted resident peak"
    );
    let summary = spilling.summary().to_string();
    assert!(summary.contains("[spill]"), "{summary}");
    assert!(summary.contains("spill.paged_at_peak_bytes"), "{summary}");
    for threads in [1usize, 2, PAR_THREADS] {
        let got = Parallelism::with(threads, || spilling.run().unwrap());
        assert_eq!(
            logits_bits(&want),
            logits_bits(&got),
            "spilled logits diverged at {threads} threads"
        );
        assert!(got.report.spilled_bytes > 0, "disk plane must be exercised");
        assert!(
            got.report.max_mem_peak() < peak,
            "resident peak must fit under the cap"
        );
    }
}

#[test]
fn mapreduce_inference_bitwise_identical_across_thread_counts() {
    let g = test_graph(37, 300, 1800);
    let model = GnnModel::sage(8, 12, 2, 3, false, PoolOp::Mean, 9);
    let strat = StrategyConfig::all().with_threshold(8);
    for workers in [1usize, 4, 7] {
        let serial = Parallelism::with(1, || {
            run_once(
                Backend::MapReduce,
                &model,
                &g,
                ClusterSpec::mapreduce_cluster(workers),
                strat,
            )
            .unwrap()
        });
        let parallel = Parallelism::with(PAR_THREADS, || {
            run_once(
                Backend::MapReduce,
                &model,
                &g,
                ClusterSpec::mapreduce_cluster(workers),
                strat,
            )
            .unwrap()
        });
        assert_eq!(
            logits_bits(&serial),
            logits_bits(&parallel),
            "mapreduce logits diverged at {workers} workers"
        );
        assert_eq!(
            serial.report.total_bytes(),
            parallel.report.total_bytes(),
            "mapreduce bytes diverged at {workers} workers"
        );
        assert_eq!(
            serial.report.message_bytes, parallel.report.message_bytes,
            "mapreduce plane accounting diverged at {workers} workers"
        );
    }
}

// ---- Tensor kernels --------------------------------------------------------

fn random_matrix(rng: &mut Xoshiro256, rows: usize, cols: usize, sparsity: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if sparsity > 0 && rng.below(sparsity) == 0 {
            0.0
        } else {
            rng.next_f32() * 2.0 - 1.0
        }
    })
}

#[test]
fn gemm_kernels_match_across_thread_counts() {
    let mut rng = Xoshiro256::seed_from_u64(99);
    // Outputs exceed the kernels' parallel threshold and straddle several
    // row-block boundaries.
    let a = random_matrix(&mut rng, 300, 140, 3);
    let b = random_matrix(&mut rng, 140, 130, 0);
    let c = random_matrix(&mut rng, 300, 130, 4);
    let d = random_matrix(&mut rng, 70, 140, 0);
    let serial = Parallelism::with(1, || (a.matmul(&b), a.matmul_tn(&c), a.matmul_nt(&d)));
    let parallel = Parallelism::with(PAR_THREADS, || {
        (a.matmul(&b), a.matmul_tn(&c), a.matmul_nt(&d))
    });
    // 1e-5 relative tolerance: blocked GEMM may regroup accumulation.
    for (which, (s, p)) in [
        ("matmul", (&serial.0, &parallel.0)),
        ("matmul_tn", (&serial.1, &parallel.1)),
        ("matmul_nt", (&serial.2, &parallel.2)),
    ] {
        assert_eq!(s.shape(), p.shape());
        for (x, y) in s.data().iter().zip(p.data()) {
            assert!(
                (x - y).abs() <= 1e-5 * x.abs().max(1.0),
                "{which}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn segment_kernels_exact_across_thread_counts() {
    // Segments come from a generated graph's destination index — the real
    // Gather shape of the paper's Fig. 3.
    let g = test_graph(51, 600, 9000);
    let n = g.n_nodes();
    let mut rng = Xoshiro256::seed_from_u64(7);
    let msgs = random_matrix(&mut rng, g.n_edges(), 16, 5);
    let seg: Vec<u32> = g.dst().to_vec();
    let serial = Parallelism::with(1, || {
        (
            msgs.segment_sum(&seg, n),
            msgs.segment_mean(&seg, n),
            msgs.segment_max(&seg, n),
        )
    });
    let parallel = Parallelism::with(PAR_THREADS, || {
        (
            msgs.segment_sum(&seg, n),
            msgs.segment_mean(&seg, n),
            msgs.segment_max(&seg, n),
        )
    });
    // Exact for sum/mean/max: per-segment accumulation order is identical.
    assert_eq!(serial.0.data(), parallel.0.data(), "segment_sum");
    assert_eq!(serial.1.data(), parallel.1.data(), "segment_mean");
    assert_eq!(
        serial.2 .0.data(),
        parallel.2 .0.data(),
        "segment_max values"
    );
    assert_eq!(serial.2 .1, parallel.2 .1, "segment_max argmax");
}
