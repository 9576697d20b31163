//! The flight recorder's golden-trace contract, end to end: a traced run
//! renders the **same bytes** at every thread count, because emission
//! happens only at single-threaded barriers in logical time — never from
//! inside worker tasks. The contract extends across backends, across the
//! out-of-core spill path, and across checkpoint-recovery replays: a
//! faulted-and-recovered run's trace equals the clean run's trace plus a
//! separable `site=recovery` plane.

use inferturbo::cluster::{FaultPlan, RecoveryPolicy};
use inferturbo::common::Parallelism;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::obs::{inspect, Payload, TraceHandle};

const THREADS: &[usize] = &[1, 2, 4];

fn test_graph() -> Graph {
    generate(&GenConfig {
        n_nodes: 200,
        n_edges: 1200,
        feat_dim: 8,
        classes: 3,
        skew: DegreeSkew::Out,
        seed: 11,
        ..GenConfig::default()
    })
}

fn model() -> GnnModel {
    GnnModel::sage(8, 12, 2, 3, false, PoolOp::Mean, 7)
}

/// One traced run under `threads`, returning the rendered trace bytes.
fn traced_run(
    graph: &Graph,
    model: &GnnModel,
    threads: usize,
    backend: Backend,
    spill_budget: Option<u64>,
    faults: Option<&str>,
) -> String {
    Parallelism::with(threads, || {
        let trace = TraceHandle::recording();
        let mut builder = InferenceSession::builder()
            .model(model)
            .graph(graph)
            .workers(4)
            .backend(backend)
            .trace(trace.clone());
        if let Some(bytes) = spill_budget {
            // Materialized columnar inboxes (no partial gather): the
            // O(E·d) inbox dominates residency, so a 4 KiB window pages.
            builder = builder
                .strategy(StrategyConfig::all().with_partial_gather(false))
                .spill_budget(bytes);
        }
        if let Some(spec) = faults {
            builder = builder
                .fault_plan(FaultPlan::parse(spec).expect("fault spec"))
                .recovery(RecoveryPolicy::new(1, 3));
        }
        let plan = builder.plan().expect("plan");
        plan.run().expect("run");
        trace.render()
    })
}

/// Drop the durable recovery plane (`site=recovery` lines) from a trace.
fn strip_recovery(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| !l.contains(" site=recovery "))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn pregel_trace_is_byte_identical_across_thread_counts() {
    let g = test_graph();
    let m = model();
    let want = traced_run(&g, &m, 1, Backend::Pregel, None, None);
    assert!(!want.is_empty(), "traced run must record events");
    assert!(want.contains("kind=superstep"), "{want}");
    assert!(want.contains("site=worker:3"), "{want}");
    for &t in THREADS {
        let got = traced_run(&g, &m, t, Backend::Pregel, None, None);
        assert_eq!(want, got, "trace bytes diverged at {t} threads");
    }
}

#[test]
fn mapreduce_trace_is_byte_identical_across_thread_counts() {
    let g = test_graph();
    let m = model();
    let want = traced_run(&g, &m, 1, Backend::MapReduce, None, None);
    assert!(want.contains("kind=round"), "{want}");
    assert!(want.contains("round_kind=map"), "{want}");
    assert!(want.contains("round_kind=reduce"), "{want}");
    for &t in THREADS {
        let got = traced_run(&g, &m, t, Backend::MapReduce, None, None);
        assert_eq!(want, got, "trace bytes diverged at {t} threads");
    }
}

#[test]
fn spilled_trace_is_byte_identical_and_reports_the_spill_plane() {
    let g = test_graph();
    let m = model();
    let want = traced_run(&g, &m, 1, Backend::Pregel, Some(4096), None);
    // The spill plane must actually engage and surface in the trace.
    let events = inspect::parse_trace(&want).expect("well-formed trace");
    let spilled: u64 = events
        .iter()
        .filter_map(|e| match &e.payload {
            Payload::Superstep { spilled_bytes, .. } => Some(*spilled_bytes),
            _ => None,
        })
        .sum();
    assert!(spilled > 0, "4 KiB budget must page inbox rows: {want}");
    for &t in THREADS {
        let got = traced_run(&g, &m, t, Backend::Pregel, Some(4096), None);
        assert_eq!(want, got, "spilled trace diverged at {t} threads");
    }
}

#[test]
fn recovered_trace_is_identical_across_threads_and_separable() {
    let g = test_graph();
    let m = model();
    let faulted = traced_run(&g, &m, 1, Backend::Pregel, None, Some("worker:1@step:1"));
    assert!(faulted.contains("site=recovery"), "{faulted}");
    assert!(faulted.contains("kind=retry"), "{faulted}");
    for &t in THREADS {
        let got = traced_run(&g, &m, t, Backend::Pregel, None, Some("worker:1@step:1"));
        assert_eq!(faulted, got, "recovered trace diverged at {t} threads");
    }
    // Stripping the durable recovery plane must yield exactly the clean
    // run's trace: the replayed supersteps rewound their events, so the
    // core plane never shows the failed attempt.
    let clean = traced_run(&g, &m, 1, Backend::Pregel, None, None);
    assert_eq!(strip_recovery(&faulted), clean);
}

#[test]
fn traces_round_trip_through_the_inspector() {
    let g = test_graph();
    let m = model();
    for backend in [Backend::Pregel, Backend::MapReduce] {
        let rendered = traced_run(&g, &m, 2, backend, None, None);
        let events = inspect::parse_trace(&rendered).expect("well-formed trace");
        let rerendered: String = events.iter().map(|e| format!("{e}\n")).collect();
        assert_eq!(rendered, rerendered, "parse → render must be lossless");
    }
}
