//! Property tests for the columnar message plane's fused
//! scatter-aggregation (ISSUE 2): across random graphs, feature dims,
//! worker counts, thread counts, and pool operators, the engine-fused path
//! must be **bit-identical** to its two reference semantics:
//!
//! 1. the engine's fold-order contract written out as a serial loop in this
//!    file ([`fold_order_oracle`]): each sender worker, ascending, folds its
//!    rows per destination in emission order with copy-on-first, then the
//!    per-worker partials merge in that same ascending order, copy-on-first,
//!    one lane-wise fold per partial — so every f32 op runs in the same
//!    sequence;
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

mod common;

use inferturbo::cluster::ClusterSpec;
use inferturbo::common::hash::partition_of;
use inferturbo::common::{Parallelism, Result, SpillPolicy, Xoshiro256};
use inferturbo::core::models::PoolOp;
use inferturbo::pregel::{
    AggKind, FusedAggregator, Inbox, MessageLayout, Outbox, PregelConfig, RowsIn, VertexProgram,
};
use inferturbo::tensor::Matrix;
use proptest::prelude::*;

/// Scatter-then-aggregate over one superstep pair: step 0 sends each
/// vertex's feature row along its out-edges; step 1 stores the pooled
/// aggregate, on the fused columnar plane.
struct PoolProg {
    dim: usize,
    op: PoolOp,
    agg: AggKind,
}

#[derive(Clone)]
struct PoolState {
    feat: Vec<f32>,
    nbrs: Vec<u64>,
    agg: Vec<f32>,
    count: u32,
}

impl PoolProg {
    fn fold(&self, acc: &mut Vec<f32>, row: &[f32]) {
        if acc.is_empty() {
            acc.extend_from_slice(row);
        } else {
            self.agg.accumulate(acc, row);
        }
    }
}

/// The layer's post-gather step: mean divides by the raw count, and an
/// empty aggregate becomes a zero row — exactly the conventions of
/// `segment_mean` / `segment_max` / `segment_sum` for empty segments.
fn finish(op: PoolOp, dim: usize, mut acc: Vec<f32>, count: u32) -> Vec<f32> {
    if count == 0 {
        return vec![0.0; dim];
    }
    if op == PoolOp::Mean {
        let inv = 1.0 / count as f32;
        for x in &mut acc {
            *x *= inv;
        }
    }
    acc
}

impl VertexProgram for PoolProg {
    type State = PoolState;
    type Msg = Vec<f32>;

    fn compute(
        &self,
        step: usize,
        _vertex: u64,
        state: &mut PoolState,
        inbox: Inbox<'_, Vec<f32>>,
        out: &mut Outbox<Vec<f32>>,
    ) -> Result<()> {
        if step == 0 {
            for &nb in &state.nbrs {
                out.send_row(nb, &state.feat);
            }
            return Ok(());
        }
        let mut acc: Vec<f32> = Vec::new();
        let mut count = 0u32;
        match inbox.rows {
            RowsIn::None => {}
            RowsIn::Rows(rows) => {
                for chunk in rows.iter() {
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
        state.agg = finish(self.op, self.dim, acc, count);
        state.count = count;
        Ok(())
    }

    fn message_layout(&self, step: usize) -> Option<MessageLayout> {
        (step == 0).then_some(MessageLayout { dim: self.dim })
    }

    fn fused_aggregator(&self, step: usize) -> Option<AggKind> {
        (step == 0).then_some(self.agg)
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
    threads: usize,
    spill_budget: Option<u64>,
) -> Vec<(Vec<u32>, u32)> {
    Parallelism::with(threads, || {
        let spill = spill_budget.map(|bytes| {
            SpillPolicy::new(std::env::temp_dir().join("inferturbo-fused-tests"), bytes)
        });
        let cfg = PregelConfig::new(ClusterSpec::test_spec(workers)).with_spill(spill);
        let prog = PoolProg {
            dim: case.dim,
            op: case.op,
            agg: case.op.agg_kind(),
        };
        let mut eng = common::id_addressed_engine(prog, cfg, case.n, |v| PoolState {
            feat: case.feats[v].clone(),
            nbrs: case.nbrs[v].clone(),
            agg: Vec::new(),
            count: 0,
        });
        eng.run(2).unwrap();
        let mut out = vec![(Vec::new(), 0u32); case.n];
        eng.for_each_state(|id, st| {
            out[id as usize] = (st.agg.iter().map(|x| x.to_bits()).collect(), st.count);
        });
        out
    })
}

/// The fused plane's fold-order contract as a serial loop that shares no
/// code with the engine: scalar lanes, explicit worker assignment. Vertices
/// register in id order, so a worker's emission order is ascending vertex
/// id, then out-edge order.
fn fold_order_oracle(case: &Case, workers: usize) -> Vec<(Vec<u32>, u32)> {
    let fold = |acc: &mut Vec<f32>, row: &[f32]| {
        if acc.is_empty() {
            // Copy-on-first: the first row is taken verbatim.
            acc.extend_from_slice(row);
            return;
        }
        for (a, &b) in acc.iter_mut().zip(row) {
            match case.op {
                PoolOp::Sum | PoolOp::Mean => *a += b,
                PoolOp::Max => {
                    if b > *a {
                        *a = b
                    }
                }
            }
        }
    };
    let mut merged: Vec<(Vec<f32>, u32)> = vec![(Vec::new(), 0); case.n];
    for w in 0..workers {
        // Sender side: one partial per destination, in emission order.
        let mut partial: Vec<Vec<f32>> = vec![Vec::new(); case.n];
        for v in (0..case.n).filter(|&v| partition_of(v as u64, workers) == w) {
            for &d in &case.nbrs[v] {
                fold(&mut partial[d as usize], &case.feats[v]);
                merged[d as usize].1 += 1;
            }
        }
        // Barrier: sender w's partials merge after those of senders < w,
        // one lane-wise fold per partial.
        for (d, p) in partial.iter().enumerate() {
            if !p.is_empty() {
                fold(&mut merged[d].0, p);
            }
        }
    }
    merged
        .into_iter()
        .map(|(acc, count)| {
            let done = finish(case.op, case.dim, acc, count);
            (done.iter().map(|x| x.to_bits()).collect(), count)
        })
        .collect()
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

    /// Fused scatter-aggregation == the serial fold-order oracle, bit for
    /// bit, for every pool op, worker count, and thread count.
    #[test]
    fn prop_fused_bit_identical_to_serial_fold_oracle(
        n in 2usize..24,
        e in 0usize..160,
        dim in 1usize..8,
        workers in 1usize..6,
        op_sel in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let case = build_case(n, e, dim, op_of(op_sel), seed);
        let fused = run_case(&case, workers, 1, None);
        let oracle = fold_order_oracle(&case, workers);
        prop_assert_eq!(&fused, &oracle, "fused vs oracle at {} workers", workers);
        // Thread budget must not change a single bit either.
        let fused_mt = run_case(&case, workers, 4, None);
        prop_assert_eq!(&fused, &fused_mt, "thread count changed fused bits");
        // Nor must paging the inboxes out of core: a tiny budget forces
        // every accumulator set through the disk path.
        let fused_spill = run_case(&case, workers, 2, Some(16));
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
        let fused = run_case(&case, w, 2, Some(16));
        for (v, ((bits, _), want)) in fused.iter().zip(&reference).enumerate() {
            prop_assert_eq!(bits, want, "vertex {} diverged from segment kernel", v);
        }
    }
}
