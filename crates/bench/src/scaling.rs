//! Thread-scaling experiment (not from the paper): wall-clock speedup of
//! the multi-core execution layer as the `Parallelism` budget grows.
//!
//! The paper scales *out* across workers; this experiment shows the same
//! partitioning scaling *up* across cores of one host — the per-layer hot
//! paths (Pregel supersteps, MR shuffle, dense kernels) at 1, 2, 4, …
//! threads up to the host's parallelism.
//!
//! Determinism note: outputs are identical at every thread count (the
//! `parallel_matches_serial` suite enforces it); only wall-clock may
//! change, so speedups are honest.

use crate::ctx::write_csv;
use crate::report::{f, Table};
use crate::ExpCtx;
use inferturbo_cluster::ClusterSpec;
use inferturbo_common::{Parallelism, Result, Xoshiro256};
use inferturbo_core::models::{GnnModel, PoolOp};
use inferturbo_core::session::{Backend, InferenceSession};
use inferturbo_core::strategy::StrategyConfig;
use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo_graph::Graph;
use inferturbo_tensor::Matrix;
use std::time::Instant;

fn workload(ctx: &ExpCtx) -> Graph {
    generate(&GenConfig {
        n_nodes: ctx.scaled(3_000),
        n_edges: ctx.scaled(30_000),
        feat_dim: 16,
        classes: 4,
        skew: DegreeSkew::In,
        seed: ctx.seed,
        ..GenConfig::default()
    })
}

fn spec(workers: usize, pregel: bool) -> ClusterSpec {
    let mut s = if pregel {
        ClusterSpec::pregel_cluster(workers)
    } else {
        ClusterSpec::mapreduce_cluster(workers)
    };
    s.phase_overhead_secs = 0.0;
    s
}

/// Median-of-3 wall-clock seconds for `f` (after one warmup call). A
/// workload error aborts the sweep instead of poisoning the medians.
fn time_secs(mut f: impl FnMut() -> Result<()>) -> Result<f64> {
    f()?;
    let mut samples = Vec::with_capacity(3);
    for _ in 0..3 {
        let t0 = Instant::now();
        f()?;
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    Ok(samples[1])
}

/// The thread budgets to sweep: 1, 2, 4, ... up to the host parallelism
/// (always including the host max itself).
pub fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut sweep = vec![1usize];
    let mut t = 2;
    while t < max {
        sweep.push(t);
        t *= 2;
    }
    if max > 1 {
        sweep.push(max);
    }
    sweep
}

pub fn run(ctx: &ExpCtx) -> Result<()> {
    let g = workload(ctx);
    let model = GnnModel::sage(16, 32, 2, 4, false, PoolOp::Mean, 1);
    let mut rng = Xoshiro256::seed_from_u64(ctx.seed);
    let gemm_n = if ctx.quick { 96 } else { 192 };
    let a = Matrix::from_fn(gemm_n, gemm_n, |_, _| rng.next_f32() * 2.0 - 1.0);
    let b = Matrix::from_fn(gemm_n, gemm_n, |_, _| rng.next_f32() * 2.0 - 1.0);
    let seg_rows = ctx.scaled(50_000);
    let msgs = Matrix::from_fn(seg_rows, 32, |_, _| rng.next_f32());
    let seg: Vec<u32> = (0..seg_rows).map(|_| rng.below(5_000) as u32).collect();

    let mut t = Table::new(
        "Thread scaling: wall-clock speedup vs Parallelism(1)",
        &[
            "threads",
            "pregel s",
            "speedup",
            "mapreduce s",
            "speedup",
            "gemm s",
            "speedup",
            "segsum s",
            "speedup",
        ],
    );
    let mut csv_rows = Vec::new();
    let mut base: Option<[f64; 4]> = None;
    // Sessions are planned once, outside every timed region: the sweep
    // measures execution scaling, not repeated re-planning.
    let plan_for = |backend: Backend| {
        InferenceSession::builder()
            .model(&model)
            .graph(&g)
            .pregel_spec(spec(16, true))
            .mapreduce_spec(spec(16, false))
            .strategy(StrategyConfig::all())
            .backend(backend)
            .plan()
    };
    let pregel_plan = plan_for(Backend::Pregel)?;
    let mr_plan = plan_for(Backend::MapReduce)?;
    for threads in thread_sweep() {
        let secs: [f64; 4] = Parallelism::with(threads, || -> Result<[f64; 4]> {
            Ok([
                time_secs(|| {
                    pregel_plan.run()?;
                    Ok(())
                })?,
                time_secs(|| {
                    mr_plan.run()?;
                    Ok(())
                })?,
                time_secs(|| {
                    std::hint::black_box(a.matmul(&b));
                    Ok(())
                })?,
                time_secs(|| {
                    std::hint::black_box(msgs.segment_sum(&seg, 5_000));
                    Ok(())
                })?,
            ])
        })?;
        let base = base.get_or_insert(secs);
        let sp: Vec<f64> = base.iter().zip(&secs).map(|(b, s)| b / s).collect();
        t.rowv(vec![
            threads.to_string(),
            f(secs[0]),
            format!("{:.2}x", sp[0]),
            f(secs[1]),
            format!("{:.2}x", sp[1]),
            f(secs[2]),
            format!("{:.2}x", sp[2]),
            f(secs[3]),
            format!("{:.2}x", sp[3]),
        ]);
        csv_rows.push(format!(
            "{threads},{:.6},{:.6},{:.6},{:.6},{:.3},{:.3},{:.3},{:.3}",
            secs[0], secs[1], secs[2], secs[3], sp[0], sp[1], sp[2], sp[3]
        ));
    }
    t.print();
    write_csv(
        &ctx.csv_path("scaling_threads.csv"),
        "threads,pregel_s,mapreduce_s,gemm_s,segsum_s,pregel_speedup,mapreduce_speedup,gemm_speedup,segsum_speedup",
        &csv_rows,
    )?;

    // Shuffle volume by message plane — the paper's headline metric. With
    // fusion (partial-gather annotated) the columnar plane carries one
    // partial row per (worker, destination) instead of one row per edge:
    // O(V·d) instead of O(E·d).
    let mut mb = Table::new(
        "Message bytes by plane (columnar vs legacy)",
        &["backend", "config", "columnar B", "legacy B", "total B"],
    );
    let mut mb_csv = Vec::new();
    let configs = [
        ("fused", StrategyConfig::all()),
        (
            "materialized",
            StrategyConfig::all().with_partial_gather(false),
        ),
    ];
    for (cfg_name, strat) in configs {
        let session = |backend| {
            InferenceSession::builder()
                .model(&model)
                .graph(&g)
                .pregel_spec(spec(16, true))
                .mapreduce_spec(spec(16, false))
                .strategy(strat)
                .backend(backend)
                .plan()
        };
        let p = session(Backend::Pregel)?.run()?;
        let m = session(Backend::MapReduce)?.run()?;
        for (backend, report) in [("pregel", &p.report), ("mapreduce", &m.report)] {
            let b = report.message_bytes;
            mb.rowv(vec![
                backend.to_string(),
                cfg_name.to_string(),
                b.columnar.to_string(),
                b.legacy.to_string(),
                b.total().to_string(),
            ]);
            mb_csv.push(format!(
                "{backend},{cfg_name},{},{},{}",
                b.columnar,
                b.legacy,
                b.total()
            ));
        }
    }
    mb.print();
    write_csv(
        &ctx.csv_path("scaling_message_bytes.csv"),
        "backend,config,columnar_bytes,legacy_bytes,total_bytes",
        &mb_csv,
    )
}
