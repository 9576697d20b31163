//! The transport acceptance bar: the spawned-worker-process shuffle
//! backend must be **bit-identical** to the in-process default —
//! logits, byte accounting, and rendered trace bytes — at every worker
//! count, on both engines, under forced spill, and through fault
//! recovery. The only quantity allowed to differ is
//! `RunReport::wire_bytes` (zero for in-process moves, request +
//! response frames for the pipes).

use std::sync::Arc;

mod common;
use common::worker_bin;

use inferturbo::cluster::{FaultPlan, InProcess, RecoveryPolicy, Transport, WorkerProcess};
use inferturbo::common::Parallelism;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::obs::TraceHandle;

fn test_graph() -> Graph {
    generate(&GenConfig {
        n_nodes: 200,
        n_edges: 1200,
        feat_dim: 8,
        classes: 3,
        skew: DegreeSkew::In,
        seed: 61,
        ..GenConfig::default()
    })
}

fn model() -> GnnModel {
    GnnModel::sage(8, 12, 2, 3, false, PoolOp::Mean, 13)
}

/// One run under `transport`: returns (logit bits, rendered trace bytes,
/// total report bytes, wire bytes, spilled bytes).
#[allow(clippy::too_many_arguments)]
fn run(
    graph: &Graph,
    model: &GnnModel,
    workers: usize,
    backend: Backend,
    transport: &Arc<dyn Transport>,
    spill_budget: Option<u64>,
    faults: Option<&str>,
) -> (Vec<Vec<u32>>, String, u64, u64, u64) {
    // Under a budget: materialized columnar inboxes (no partial gather) —
    // the O(E·d) inbox dominates residency, so a 4 KiB window actually
    // pages.
    let strategy = spill_budget.map(|_| StrategyConfig::all().with_partial_gather(false));
    run_with(
        graph,
        model,
        workers,
        backend,
        transport,
        strategy,
        spill_budget,
        faults,
    )
}

/// [`run`] with the strategy spelled out (`None`: the session default).
#[allow(clippy::too_many_arguments)]
fn run_with(
    graph: &Graph,
    model: &GnnModel,
    workers: usize,
    backend: Backend,
    transport: &Arc<dyn Transport>,
    strategy: Option<StrategyConfig>,
    spill_budget: Option<u64>,
    faults: Option<&str>,
) -> (Vec<Vec<u32>>, String, u64, u64, u64) {
    let trace = TraceHandle::recording();
    let mut builder = InferenceSession::builder()
        .model(model)
        .graph(graph)
        .workers(workers)
        .backend(backend)
        .transport(Arc::clone(transport))
        .trace(trace.clone());
    if let Some(strategy) = strategy {
        builder = builder.strategy(strategy);
    }
    if let Some(bytes) = spill_budget {
        builder = builder
            .spill_budget(bytes)
            .spill_dir(std::env::temp_dir().join("inferturbo-transport-tests"));
    }
    if let Some(spec) = faults {
        builder = builder
            .fault_plan(FaultPlan::parse(spec).expect("fault spec"))
            .recovery(RecoveryPolicy::new(1, 3));
    }
    let plan = builder.plan().expect("plan");
    let out = plan.run().expect("run");
    let bits = out
        .logits
        .iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect();
    (
        bits,
        trace.render(),
        out.report.total_bytes(),
        out.report.wire_bytes,
        out.report.spilled_bytes,
    )
}

#[test]
fn process_transport_is_bit_identical_on_both_backends() {
    let g = test_graph();
    let m = model();
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    // One pooled child set reused across every plan in this test.
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    for backend in [Backend::Pregel, Backend::MapReduce] {
        for workers in [1usize, 2, 4] {
            let want = run(&g, &m, workers, backend, &local, None, None);
            let got = run(&g, &m, workers, backend, &procs, None, None);
            assert_eq!(
                want.0, got.0,
                "{backend:?} logits diverged at {workers} workers"
            );
            assert_eq!(
                want.1, got.1,
                "{backend:?} trace bytes diverged at {workers} workers"
            );
            assert_eq!(
                want.2, got.2,
                "{backend:?} modelled byte accounting diverged at {workers} workers"
            );
            assert_eq!(want.3, 0, "in-process moves never touch the wire");
            assert!(
                got.3 > 0,
                "{backend:?} process exchange must report wire bytes at {workers} workers"
            );
        }
    }
}

#[test]
fn process_transport_is_thread_count_invariant() {
    // The determinism spine crossed with the process boundary: the same
    // worker-process run must not move a bit under different host thread
    // budgets.
    let g = test_graph();
    let m = model();
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    let want = Parallelism::with(1, || run(&g, &m, 4, Backend::Pregel, &procs, None, None));
    for threads in [2usize, 4] {
        let got = Parallelism::with(threads, || {
            run(&g, &m, 4, Backend::Pregel, &procs, None, None)
        });
        assert_eq!(
            (&want.0, &want.1, want.2),
            (&got.0, &got.1, got.2),
            "process-backed run diverged at {threads} threads"
        );
    }
}

#[test]
fn forced_spill_crosses_the_process_boundary_bit_identically() {
    // A 4 KiB budget pages every merged inbox through disk. The spill
    // decision is the parent's (children merge resident and ship parts
    // back), so the spilled plane must match the in-process run exactly.
    let g = test_graph();
    let m = model();
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    for workers in [2usize, 4] {
        let want = run(&g, &m, workers, Backend::Pregel, &local, Some(4096), None);
        let got = run(&g, &m, workers, Backend::Pregel, &procs, Some(4096), None);
        assert!(
            want.4 > 0,
            "4 KiB budget must actually page inbox rows at {workers} workers"
        );
        assert_eq!(
            (&want.0, &want.1, want.2, want.4),
            (&got.0, &got.1, got.2, got.4),
            "spilled run diverged at {workers} workers"
        );
    }
}

#[test]
fn fault_recovery_replays_identically_over_the_process_transport() {
    // A worker loss at superstep 1 forces a checkpoint restore and replay.
    // Seal faults fire *inside* the exchange on both backends, so the
    // recovery path — and the recovered trace — must be byte-identical.
    let g = test_graph();
    let m = model();
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    for spec in ["worker:1@step:1", "seal:1@step:1"] {
        let want = run(&g, &m, 4, Backend::Pregel, &local, None, Some(spec));
        let got = run(&g, &m, 4, Backend::Pregel, &procs, None, Some(spec));
        assert!(
            want.1.contains("site=recovery"),
            "fault {spec} must engage recovery: {}",
            want.1
        );
        assert_eq!(want.0, got.0, "recovered logits diverged under {spec}");
        assert_eq!(want.1, got.1, "recovered trace diverged under {spec}");
    }
}

/// Out-degree hubs engage refs, broadcast payloads and shadow mirrors. For
/// every strategy, every composition of transport, spill and recovery must
/// reproduce the backend's in-process run bit for bit, and both backends the
/// per-edge reference within 1e-3.
fn out_hubs_compose(name: &str, m: &GnnModel, strategies: &[StrategyConfig], spill_budget: u64) {
    let g = generate(&GenConfig {
        n_nodes: 200,
        n_edges: 1600,
        feat_dim: 8,
        classes: 3,
        skew: DegreeSkew::Out,
        seed: 67,
        ..GenConfig::default()
    });
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    let reference = InferenceSession::builder()
        .model(m)
        .graph(&g)
        .backend(Backend::Reference)
        .plan()
        .expect("reference plan")
        .run()
        .expect("reference run")
        .logits;

    for &strategy in strategies {
        let plan = InferenceSession::builder()
            .model(m)
            .graph(&g)
            .workers(4)
            .strategy(strategy)
            .backend(Backend::Pregel)
            .plan()
            .expect("plan");
        let summary = plan.summary();
        assert!(
            summary.hubs > 0 && summary.mirrors > 0,
            "out-degree hubs must engage refs and mirrors: {summary}"
        );
        assert!(
            plan.run().expect("run").report.message_bytes.legacy > 0,
            "{name}: hub refs must flow on the typed plane"
        );

        let near_reference = |backend: &str, bits: &[Vec<u32>]| {
            for (x, y) in bits.iter().flatten().zip(reference.iter().flatten()) {
                let x = f32::from_bits(*x);
                assert!(
                    (x - y).abs() < 1e-3,
                    "{name} {backend} {x} vs reference {y}"
                );
            }
        };
        let s = Some(strategy);
        let want = run_with(&g, m, 4, Backend::Pregel, &local, s, None, None);
        near_reference("pregel", &want.0);
        // Typed refs, rows and a broadcast in one step, all three halves
        // read back through the one kernel: every thread budget, both sides
        // of the process boundary.
        for threads in [1usize, 2, 4] {
            for transport in [&local, &procs] {
                let got = Parallelism::with(threads, || {
                    run_with(&g, m, 4, Backend::Pregel, transport, s, None, None)
                });
                assert_eq!(want.0, got.0, "{name} diverged at {threads} threads");
            }
        }

        let xproc = run_with(&g, m, 4, Backend::Pregel, &procs, s, None, None);
        assert_eq!(
            (&want.0, &want.1, want.2),
            (&xproc.0, &xproc.1, xproc.2),
            "{name} diverged across the process boundary"
        );
        assert!(xproc.3 > 0, "{name}: rows must cross a real pipe");

        for transport in [&local, &procs] {
            let budget = Some(spill_budget);
            let spilled = run_with(&g, m, 4, Backend::Pregel, transport, s, budget, None);
            assert!(spilled.4 > 0, "{name}: the budget must page inbox rows");
            assert_eq!(want.0, spilled.0, "{name} diverged under forced spill");

            let fault = Some("worker:1@step:1");
            let recovered = run_with(&g, m, 4, Backend::Pregel, transport, s, None, fault);
            assert!(recovered.1.contains("site=recovery"), "{}", recovered.1);
            assert_eq!(want.0, recovered.0, "{name} diverged through recovery");
        }

        // The two engines deliver a vertex's in-messages in different
        // orders, so float sums differ in the last bits: MapReduce is
        // pinned across its own transports and against the reference.
        let mr = run_with(&g, m, 4, Backend::MapReduce, &local, s, None, None);
        near_reference("mapreduce", &mr.0);
        let mr_xproc = run_with(&g, m, 4, Backend::MapReduce, &procs, s, None, None);
        assert_eq!(
            (&mr.0, &mr.1, mr.2),
            (&mr_xproc.0, &mr_xproc.1, mr_xproc.2),
            "{name} MapReduce diverged across the process boundary"
        );
    }
}

#[test]
fn gat_with_out_hubs_composes_bit_identically_and_matches_the_reference() {
    // Attention cannot partial-gather, so GAT's projected `W·h` rows cross
    // every boundary unreduced, beside the hub refs and their broadcast
    // payloads. Expanding first layer (8 → 12), so the projected rows are
    // the wider.
    let strategies = [
        StrategyConfig::all().with_threshold(8),
        StrategyConfig::all()
            .with_threshold(8)
            .with_partial_gather(false),
    ];
    let gat = GnnModel::gat(8, 12, 2, 2, 3, false, 17);
    out_hubs_compose("GAT", &gat, &strategies, 4096);
}

#[test]
fn pooled_layers_with_out_hubs_compose_bit_identically_and_match_the_reference() {
    // Partial-gather + broadcast on a pooled layer: fused rows and hub refs
    // reach the same destinations, and with a threshold this low several
    // hubs on one sender worker share destinations — their refs must
    // arrive in emission order through every composition.
    let strategies = [StrategyConfig::all().with_threshold(8)];
    let sage = GnnModel::sage(8, 12, 2, 3, false, PoolOp::Mean, 13);
    out_hubs_compose("SAGE", &sage, &strategies, 256);
    let gcn = GnnModel::gcn(8, 12, 2, 3, false, 19);
    out_hubs_compose("GCN", &gcn, &strategies, 256);
}
