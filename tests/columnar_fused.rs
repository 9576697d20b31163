//! Property tests for the columnar message plane's fused
//! scatter-aggregation (ISSUE 2): across random graphs, feature dims,
//! worker counts, thread counts, and pool operators, the engine-fused path
//! must be **bit-identical** to its two reference semantics:
//!
//! 1. the legacy per-object combiner path (`with_columnar(false)`) — both
//!    fold per (sender, destination) in emission order with copy-on-first,
//!    then merge partials in ascending sender order, so every f32 op runs
//!    in the same sequence;
//! 2. materialize-then-`segment_sum`/`segment_mean`/`segment_max` over the
//!    raw message rows in delivery order — exact whenever the whole fold
//!    happens inside one sender (single worker), and exact for max at any
//!    worker count (max of floats returns one of its inputs, so regrouping
//!    cannot perturb bits).
//!
//! Both properties additionally pin the out-of-core path: a tiny spill
//! budget (16 B) pages every merged accumulator set to disk and back, and
//! the bits must still match — spilling is storage placement, never
//! arithmetic.

use inferturbo::cluster::ClusterSpec;
use inferturbo::common::{Parallelism, SpillPolicy, Xoshiro256};
use inferturbo::core::models::gas_impl::PoolRowAggregator;
use inferturbo::core::models::PoolOp;
use inferturbo::pregel::{
    ActivationPolicy, BroadcastLookup, Combiner, FusedAggregator, MessageLayout, Outbox,
    PregelConfig, PregelEngine, RowsIn, VertexProgram,
};
use inferturbo::tensor::Matrix;
use proptest::prelude::*;

/// Scatter-then-aggregate over one superstep pair: step 0 sends each
/// vertex's feature row along its out-edges; step 1 stores the pooled
/// aggregate. Runs on the fused columnar plane, the materialized columnar
/// plane, or (columnar disabled) the legacy combiner plane — whichever the
/// engine offers.
struct PoolProg {
    dim: usize,
    op: PoolOp,
    agg: PoolRowAggregator,
    comb: VecPool,
}

#[derive(Clone)]
struct PoolState {
    feat: Vec<f32>,
    nbrs: Vec<u64>,
    agg: Vec<f32>,
    count: u32,
}

/// Legacy-plane combiner matching [`PoolRowAggregator`] fold-for-fold.
/// Legacy messages carry `dim` payload lanes plus one count lane (the
/// role `GnnMessage::Partial`'s count plays on the real wire): payload
/// lanes fold through the aggregator, count lanes add.
struct VecPool {
    op: PoolOp,
}

impl Combiner<Vec<f32>> for VecPool {
    fn combine(&self, acc: &mut Vec<f32>, msg: Vec<f32>) -> Option<Vec<f32>> {
        let dim = acc.len() - 1;
        PoolRowAggregator { op: self.op }.accumulate(&mut acc[..dim], &msg[..dim]);
        acc[dim] += msg[dim];
        None
    }
}

impl PoolProg {
    fn fold(&self, acc: &mut Vec<f32>, row: &[f32]) {
        if acc.is_empty() {
            acc.extend_from_slice(row);
        } else {
            self.agg.accumulate(acc, row);
        }
    }

    /// The layer's post-gather step: mean divides by the raw count, and an
    /// empty aggregate becomes a zero row — exactly the conventions of
    /// `segment_mean` / `segment_max` / `segment_sum` for empty segments.
    fn finish(&self, mut acc: Vec<f32>, count: u32) -> Vec<f32> {
        if count == 0 {
            return vec![0.0; self.dim];
        }
        if self.op == PoolOp::Mean {
            let inv = 1.0 / count as f32;
            for x in &mut acc {
                *x *= inv;
            }
        }
        acc
    }
}

impl VertexProgram for PoolProg {
    type State = PoolState;
    type Msg = Vec<f32>;

    fn compute(
        &self,
        step: usize,
        vertex: u64,
        state: &mut PoolState,
        messages: Vec<Vec<f32>>,
        lookup: &BroadcastLookup<'_, Vec<f32>>,
        out: &mut Outbox<Vec<f32>>,
    ) {
        self.compute_columnar(step, vertex, state, RowsIn::None, messages, lookup, out);
    }

    fn compute_columnar(
        &self,
        step: usize,
        _vertex: u64,
        state: &mut PoolState,
        rows: RowsIn<'_>,
        messages: Vec<Vec<f32>>,
        _lookup: &BroadcastLookup<'_, Vec<f32>>,
        out: &mut Outbox<Vec<f32>>,
    ) {
        if step == 0 {
            if out.row_dim().is_some() {
                for &nb in &state.nbrs {
                    out.send_row(nb, &state.feat);
                }
            } else {
                // Legacy wire: payload + a count lane (initially 1 raw
                // message), like `GnnMessage::Partial`.
                for &nb in &state.nbrs {
                    let mut m = state.feat.clone();
                    m.push(1.0);
                    out.send(nb, m);
                }
            }
            return;
        }
        let mut acc: Vec<f32> = Vec::new();
        let mut count = 0u32;
        match rows {
            RowsIn::None => {}
            RowsIn::Rows { dim, data } => {
                for chunk in data.chunks_exact(dim) {
                    self.fold(&mut acc, chunk);
                    count += 1;
                }
            }
            RowsIn::Fused {
                acc: facc,
                count: c,
                ..
            } => {
                if c > 0 {
                    acc = facc.to_vec();
                    count = c;
                }
            }
        }
        for m in messages {
            self.fold(&mut acc, &m[..self.dim]);
            count += m[self.dim] as u32;
        }
        state.agg = self.finish(acc, count);
        state.count = count;
    }

    fn message_layout(&self, step: usize) -> Option<MessageLayout> {
        (step == 0).then_some(MessageLayout { dim: self.dim })
    }

    fn fused_aggregator(&self, step: usize) -> Option<&dyn FusedAggregator> {
        (step == 0).then_some(&self.agg as &dyn FusedAggregator)
    }

    fn combiner(&self, _step: usize) -> Option<&dyn Combiner<Vec<f32>>> {
        // The legacy plane gets the equivalent per-object combiner, so
        // disabling the columnar plane reproduces the pre-columnar engine.
        Some(&self.comb)
    }

    fn state_bytes(&self, _s: &PoolState) -> u64 {
        0
    }
}

struct Case {
    n: usize,
    dim: usize,
    op: PoolOp,
    feats: Vec<Vec<f32>>,
    /// Out-adjacency per vertex, in emission order.
    nbrs: Vec<Vec<u64>>,
}

fn build_case(n: usize, e: usize, dim: usize, op: PoolOp, seed: u64) -> Case {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let feats: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f32() * 8.0 - 4.0).collect())
        .collect();
    let mut nbrs: Vec<Vec<u64>> = vec![Vec::new(); n];
    for _ in 0..e {
        let s = rng.below(n as u64) as usize;
        let d = rng.below(n as u64);
        nbrs[s].push(d);
    }
    Case {
        n,
        dim,
        op,
        feats,
        nbrs,
    }
}

/// Run the program over `case` and return each vertex's finished
/// aggregate as bit patterns (plus the raw-message count). `spill_budget`
/// puts the columnar inboxes under an out-of-core byte budget.
fn run_case(
    case: &Case,
    workers: usize,
    columnar: bool,
    threads: usize,
    spill_budget: Option<u64>,
) -> Vec<(Vec<u32>, u32)> {
    Parallelism::with(threads, || {
        let spill = spill_budget.map(|bytes| {
            SpillPolicy::new(std::env::temp_dir().join("inferturbo-fused-tests"), bytes)
        });
        let cfg = PregelConfig::new(ClusterSpec::test_spec(workers))
            .with_activation(ActivationPolicy::AlwaysActive)
            .with_columnar(columnar)
            .with_spill(spill);
        let prog = PoolProg {
            dim: case.dim,
            op: case.op,
            agg: PoolRowAggregator { op: case.op },
            comb: VecPool { op: case.op },
        };
        let mut eng = PregelEngine::new(prog, cfg);
        for v in 0..case.n {
            eng.add_vertex(
                v as u64,
                PoolState {
                    feat: case.feats[v].clone(),
                    nbrs: case.nbrs[v].clone(),
                    agg: Vec::new(),
                    count: 0,
                },
            );
        }
        eng.run(2).unwrap();
        let mut out = vec![(Vec::new(), 0u32); case.n];
        eng.for_each_state(|id, st| {
            out[id as usize] = (st.agg.iter().map(|x| x.to_bits()).collect(), st.count);
        });
        out
    })
}

/// Materialize-then-reduce reference: raw message rows in single-worker
/// delivery order (vertex order, out-edge order), reduced by the tensor
/// segment kernels.
fn segment_reference(case: &Case) -> Vec<Vec<u32>> {
    let mut rows: Vec<f32> = Vec::new();
    let mut seg: Vec<u32> = Vec::new();
    for v in 0..case.n {
        for &d in &case.nbrs[v] {
            rows.extend_from_slice(&case.feats[v]);
            seg.push(d as u32);
        }
    }
    let m = Matrix::from_vec(seg.len(), case.dim, rows);
    let reduced = match case.op {
        PoolOp::Sum => m.segment_sum(&seg, case.n),
        PoolOp::Mean => m.segment_mean(&seg, case.n),
        PoolOp::Max => m.segment_max(&seg, case.n).0,
    };
    (0..case.n)
        .map(|v| reduced.row(v).iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn op_of(sel: u8) -> PoolOp {
    match sel {
        0 => PoolOp::Sum,
        1 => PoolOp::Mean,
        _ => PoolOp::Max,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fused scatter-aggregation == the legacy combiner path, bit for bit,
    /// for every pool op, worker count, and thread count.
    #[test]
    fn prop_fused_bit_identical_to_legacy_combiner(
        n in 2usize..24,
        e in 0usize..160,
        dim in 1usize..8,
        workers in 1usize..6,
        op_sel in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let case = build_case(n, e, dim, op_of(op_sel), seed);
        let fused = run_case(&case, workers, true, 1, None);
        let legacy = run_case(&case, workers, false, 1, None);
        prop_assert_eq!(&fused, &legacy, "fused vs legacy at {} workers", workers);
        // Thread budget must not change a single bit either.
        let fused_mt = run_case(&case, workers, true, 4, None);
        prop_assert_eq!(&fused, &fused_mt, "thread count changed fused bits");
        // Nor must paging the inboxes out of core: a tiny budget forces
        // every accumulator set through the disk path.
        let fused_spill = run_case(&case, workers, true, 2, Some(16));
        prop_assert_eq!(&fused, &fused_spill, "spilling changed fused bits");
    }

    /// Fused scatter-aggregation == materialize-then-segment_{sum,mean,max}
    /// over the raw rows: exact with a single worker (one fold sequence),
    /// and exact for max at any worker count (regrouping a max cannot
    /// change which input wins).
    #[test]
    fn prop_fused_bit_identical_to_segment_kernels(
        n in 2usize..24,
        e in 0usize..160,
        dim in 1usize..8,
        workers in 1usize..6,
        op_sel in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let op = op_of(op_sel);
        let case = build_case(n, e, dim, op, seed);
        let reference = segment_reference(&case);
        let w = if op == PoolOp::Max { workers } else { 1 };
        let fused = run_case(&case, w, true, 2, Some(16));
        for (v, ((bits, _), want)) in fused.iter().zip(&reference).enumerate() {
            prop_assert_eq!(bits, want, "vertex {} diverged from segment kernel", v);
        }
    }
}
