//! Failure-path integration: OOM boundaries, configuration mismatches,
//! and corrupted signatures must surface as typed errors, never panics —
//! Table IV's "OOM" cell is a *result* in this system.
//!
//! The second half drills *injected* failures end-to-end: a session plan
//! carrying a deterministic [`FaultPlan`] must recover bit-identically
//! under a [`RecoveryPolicy`], and the serving layer must retry,
//! contain, and quarantine failing plans without poisoning healthy work.

mod common;
use common::run_once;

use std::sync::Arc;

use inferturbo::cluster::{
    ClusterSpec, FaultPlan, FaultSite, RecoveryPolicy, RunReport, WorkerPhase,
};
use inferturbo::common::{Error, Parallelism};
use inferturbo::core::baseline::{estimate_full_inference, BaselineConfig};
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::signature;
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::graph::gen::DegreeSkew;
use inferturbo::graph::{Dataset, Graph};
use inferturbo::serve::{FeatureSnapshot, GnnServer, ScoreRequest, ScoreStatus, ServeConfig};

fn dataset() -> Dataset {
    Dataset::power_law(600, 3600, DegreeSkew::In, 5)
}

fn model(feat: usize) -> GnnModel {
    GnnModel::sage(feat, 16, 2, 2, false, PoolOp::Mean, 1)
}

fn bits(logits: &[Vec<f32>]) -> Vec<Vec<u32>> {
    logits
        .iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn snapshot(g: &Graph, scale: f32) -> FeatureSnapshot {
    Arc::new(
        (0..g.n_nodes() as u32)
            .map(|v| g.node_feat(v).iter().map(|x| x * scale).collect())
            .collect(),
    )
}

#[test]
fn pregel_oom_reports_worker_and_phase() {
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let spec = ClusterSpec::pregel_cluster(4).with_memory(1 << 10); // 1 KB
    let err = run_once(Backend::Pregel, &m, &d.graph, spec, StrategyConfig::none()).unwrap_err();
    assert!(err.is_oom(), "expected OOM, got {err}");
    assert!(err.to_string().contains("superstep"), "{err}");
}

#[test]
fn mapreduce_survives_memory_that_kills_pregel() {
    // The batch backend streams per-key groups, so its peak residency sits
    // far below the state-resident Pregel backend's — the paper's
    // scalability argument for the MR backend. Measure both peaks, then
    // verify behaviour at a cap between them.
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let pregel_ok = run_once(
        Backend::Pregel,
        &m,
        &d.graph,
        ClusterSpec::pregel_cluster(4),
        StrategyConfig::none(),
    )
    .unwrap();
    let mr_ok = run_once(
        Backend::MapReduce,
        &m,
        &d.graph,
        ClusterSpec::mapreduce_cluster(4),
        StrategyConfig::none(),
    )
    .unwrap();
    let pregel_peak = pregel_ok.report.max_mem_peak();
    let mr_peak = mr_ok.report.max_mem_peak();
    assert!(
        mr_peak * 2 < pregel_peak,
        "streaming reducers should need far less memory: mr {mr_peak} vs pregel {pregel_peak}"
    );
    let cap = (mr_peak + pregel_peak) / 2;
    let pregel = run_once(
        Backend::Pregel,
        &m,
        &d.graph,
        ClusterSpec::pregel_cluster(4).with_memory(cap),
        StrategyConfig::none(),
    );
    let mr = run_once(
        Backend::MapReduce,
        &m,
        &d.graph,
        ClusterSpec::mapreduce_cluster(4).with_memory(cap),
        StrategyConfig::none(),
    );
    assert!(pregel.is_err() && pregel.unwrap_err().is_oom());
    assert!(mr.is_ok(), "MR should stream through the same cap");
}

#[test]
fn mapreduce_oom_on_truly_tiny_memory() {
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let err = run_once(
        Backend::MapReduce,
        &m,
        &d.graph,
        ClusterSpec::mapreduce_cluster(4).with_memory(256),
        StrategyConfig::none(),
    )
    .unwrap_err();
    assert!(err.is_oom(), "expected OOM, got {err}");
}

#[test]
fn feature_dimension_mismatch_is_config_error() {
    let d = dataset();
    let wrong = model(d.graph.node_feat_dim() + 3);
    for (backend, spec) in [
        (Backend::Pregel, ClusterSpec::pregel_cluster(2)),
        (Backend::MapReduce, ClusterSpec::mapreduce_cluster(2)),
    ] {
        let err = run_once(backend, &wrong, &d.graph, spec, StrategyConfig::none()).unwrap_err();
        assert!(
            err.to_string().contains("do not match"),
            "unexpected error: {err}"
        );
    }
}

#[test]
fn corrupted_signature_rejected_not_loaded() {
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let path = std::env::temp_dir().join("inferturbo-corrupt.itsig");
    signature::save(&m, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // flip bytes in the middle of the parameter block
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    bytes.truncate(bytes.len() - 7);
    std::fs::write(&path, &bytes).unwrap();
    assert!(signature::load(&path).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn baseline_oom_flag_tracks_memory_cap() {
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let mut cfg = BaselineConfig::traditional(3, Some(10_000));
    cfg.spec = cfg.spec.with_memory(1 << 14);
    assert!(estimate_full_inference(&m, &d.graph, &cfg).oom);
    cfg.spec = cfg.spec.with_memory(1 << 42);
    assert!(!estimate_full_inference(&m, &d.graph, &cfg).oom);
}

#[test]
fn strategies_do_not_mask_oom_errors() {
    // Shadow-nodes duplicates in-edges; with a hostile memory cap the OOM
    // must still be typed, not a panic.
    let d = Dataset::power_law(600, 3600, DegreeSkew::Out, 5);
    let m = model(d.graph.node_feat_dim());
    let spec = ClusterSpec::pregel_cluster(4).with_memory(1 << 10);
    let err = run_once(
        Backend::Pregel,
        &m,
        &d.graph,
        spec,
        StrategyConfig::all().with_threshold(8),
    )
    .unwrap_err();
    assert!(err.is_oom());
}

// ---------------------------------------------------------------------------
// Injected faults through the session API
// ---------------------------------------------------------------------------

#[test]
fn session_recovery_is_bit_identical_for_both_planes_at_every_thread_count() {
    // THE recovery contract, end-to-end: a worker lost mid-run and
    // replayed from checkpoint must be observably invisible — logits
    // bit-identical to a fault-free run — on the fused and materialized
    // columnar planes alike, at every thread budget.
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    for fused in [true, false] {
        let strategy = if fused {
            StrategyConfig::all()
        } else {
            StrategyConfig::all().with_partial_gather(false)
        };
        let clean = InferenceSession::builder()
            .model(&m)
            .graph(&d.graph)
            .workers(4)
            .strategy(strategy)
            .backend(Backend::Pregel)
            .plan()
            .unwrap()
            .run()
            .unwrap();
        let want = bits(&clean.logits);
        for threads in [1usize, 2, 4] {
            Parallelism::with(threads, || {
                let plan = InferenceSession::builder()
                    .model(&m)
                    .graph(&d.graph)
                    .workers(4)
                    .strategy(strategy)
                    .backend(Backend::Pregel)
                    .fault_plan(
                        FaultPlan::new().and_fail(FaultSite::WorkerCompute { worker: 1, step: 1 }),
                    )
                    .recovery(RecoveryPolicy::new(1, 3))
                    .plan()
                    .unwrap();
                let out = plan.run().unwrap();
                assert_eq!(
                    bits(&out.logits),
                    want,
                    "fused={fused} threads={threads}: recovered run must be bit-identical"
                );
                assert_eq!(out.report.retries, 1, "fused={fused} threads={threads}");
                assert!(out.report.checkpoints >= 1);
                assert_eq!(out.report.recovered_supersteps, 1);
                // The plan's fault budgets are shared across runs: the
                // event already happened, so a re-run sails through.
                let again = plan.run().unwrap();
                assert_eq!(bits(&again.logits), want);
                assert_eq!(again.report.retries, 0, "budget drained by the first run");
            });
        }
    }
}

#[test]
fn gat_recovery_over_shared_row_tables_is_bit_identical() {
    // GAT ships materialized rows: in process every inbox lends from the
    // senders' row tables, and a checkpoint shares those tables instead of
    // copying them. A seal fault at step 1 and a lost worker at step 2,
    // each replayed from an every-step checkpoint, must leave no trace in
    // logits or counters — resident or paging through a spill file.
    let d = Dataset::power_law(600, 3600, DegreeSkew::Out, 5);
    let m = GnnModel::gat(d.graph.node_feat_dim(), 16, 2, 2, 2, false, 3);
    let dir = std::env::temp_dir().join("inferturbo-gat-recovery-tests");
    let schedule = FaultPlan::new()
        .and_fail(FaultSite::SealBarrier { worker: 2, step: 1 })
        .and_fail(FaultSite::WorkerCompute { worker: 1, step: 2 });
    for spill in [None, Some(64u64)] {
        let plan = |faults: Option<FaultPlan>| {
            let mut b = InferenceSession::builder()
                .model(&m)
                .graph(&d.graph)
                .workers(4)
                .strategy(StrategyConfig::all().with_threshold(20))
                .backend(Backend::Pregel)
                .spill_dir(&dir);
            if let Some(budget) = spill {
                b = b.spill_budget(budget);
            }
            b = match faults {
                Some(f) => b.fault_plan(f).recovery(RecoveryPolicy::new(1, 3)),
                None => b.fault_plan(FaultPlan::new()),
            };
            b.plan().unwrap()
        };
        let clean = plan(None).run().unwrap();
        assert!(clean.report.message_bytes.columnar > 0);
        assert_eq!(clean.report.spilled_bytes > 0, spill.is_some());
        for threads in [1usize, 2, 4] {
            let out = Parallelism::with(threads, || plan(Some(schedule.clone())).run()).unwrap();
            let how = format!("spill {spill:?}, {threads} threads");
            assert_eq!(bits(&out.logits), bits(&clean.logits), "{how}");
            assert_eq!(out.report.retries, 2, "{how}: both faults fired");
            assert_eq!(out.report.checkpoints, 3, "{how}: one per superstep");
            assert_eq!(
                out.report.message_bytes, clean.report.message_bytes,
                "{how}"
            );
            assert_eq!(
                out.report.spilled_bytes, clean.report.spilled_bytes,
                "{how}"
            );
            let workers = |r: &RunReport| -> Vec<WorkerPhase> {
                r.phases.iter().flat_map(|p| p.per_worker.clone()).collect()
            };
            assert_eq!(workers(&out.report), workers(&clean.report), "{how}");
        }
    }
}

#[test]
fn session_retry_exhaustion_surfaces_the_typed_error() {
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let schedule =
        FaultPlan::new().and_fail_times(FaultSite::WorkerCompute { worker: 0, step: 1 }, 10);
    let plan = InferenceSession::builder()
        .model(&m)
        .graph(&d.graph)
        .workers(4)
        .backend(Backend::Pregel)
        .fault_plan(schedule.clone())
        .recovery(RecoveryPolicy::new(1, 2))
        .plan()
        .unwrap();
    let err = plan.run().unwrap_err();
    assert!(err.is_transient(), "{err}");
    assert!(err.to_string().contains("superstep 1"), "{err}");
    // A schedule with no recovery fails fast.
    let plan = InferenceSession::builder()
        .model(&m)
        .graph(&d.graph)
        .workers(4)
        .backend(Backend::Pregel)
        .fault_plan(schedule)
        .plan()
        .unwrap();
    let err = plan.run().unwrap_err();
    assert!(err.to_string().contains("superstep 1"), "{err}");
}

#[test]
fn session_mapreduce_task_retries_are_idempotent_and_bounded() {
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let clean = InferenceSession::builder()
        .model(&m)
        .graph(&d.graph)
        .workers(4)
        .backend(Backend::MapReduce)
        .plan()
        .unwrap()
        .run()
        .unwrap();
    // Two injected map-task failures are absorbed by idempotent
    // re-launches; the output does not change by a bit.
    let absorbed = InferenceSession::builder()
        .model(&m)
        .graph(&d.graph)
        .workers(4)
        .backend(Backend::MapReduce)
        .fault_plan(FaultPlan::new().and_fail_times(
            FaultSite::MapTask {
                worker: 0,
                round: 0,
            },
            2,
        ))
        .plan()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(bits(&absorbed.logits), bits(&clean.logits));
    assert_eq!(absorbed.report.retries, 2);
    // Past the per-task attempt bound the job fails with the typed
    // lost-worker error.
    let err = InferenceSession::builder()
        .model(&m)
        .graph(&d.graph)
        .workers(4)
        .backend(Backend::MapReduce)
        .fault_plan(FaultPlan::new().and_fail_times(
            FaultSite::MapTask {
                worker: 0,
                round: 0,
            },
            10,
        ))
        .plan()
        .unwrap()
        .run()
        .unwrap_err();
    assert!(err.is_transient(), "{err}");
    assert!(err.to_string().contains("map task"), "{err}");
}

// ---------------------------------------------------------------------------
// Injected faults through the serving layer
// ---------------------------------------------------------------------------

#[test]
fn serve_failed_batch_does_not_poison_the_next_batch() {
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let mut server = GnnServer::new(ServeConfig {
        max_batch: 1,
        max_run_retries: 0,
        quarantine_after: 0,
        fault_plan: Some(
            FaultPlan::new().and_fail(FaultSite::WorkerCompute { worker: 0, step: 1 }),
        ),
        recovery: None,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &d.graph).unwrap();
    let req = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_backend(Backend::Pregel)
        .with_targets(vec![0]);
    let t1 = server.submit(req.clone()).unwrap();
    let r1 = server.take(t1).expect("failed response must be ready");
    match &r1.status {
        ScoreStatus::Failed(err) => assert!(err.to_string().contains("worker"), "{err}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    assert!(
        server.take(t1).is_none(),
        "take consumes: a second take of a failed ticket is None"
    );
    // Same plan, next batch: the scheduled event already fired, and the
    // failed run left no residue behind it.
    let t2 = server.submit(req).unwrap();
    assert!(matches!(
        server.take(t2).unwrap().status,
        ScoreStatus::Served(_)
    ));
    assert_eq!(server.stats().failed, 1);
    assert_eq!(server.stats().served, 1);
    assert_eq!(
        server.stats().plans_built,
        1,
        "one plan serves both batches"
    );
    assert_eq!(server.quarantined_plans(), 0);
}

#[test]
fn serve_retry_absorbs_a_transient_failure_bit_identically() {
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let want = bits(
        &InferenceSession::builder()
            .model(&m)
            .graph(&d.graph)
            .workers(4)
            .backend(Backend::Pregel)
            .plan()
            .unwrap()
            .run()
            .unwrap()
            .logits,
    );
    let mut server = GnnServer::new(ServeConfig {
        max_batch: 1,
        max_run_retries: 1,
        fault_plan: Some(
            FaultPlan::new().and_fail(FaultSite::WorkerCompute { worker: 0, step: 1 }),
        ),
        recovery: None,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &d.graph).unwrap();
    let t = server
        .submit(
            ScoreRequest::new(1, 1)
                .with_workers(4)
                .with_backend(Backend::Pregel),
        )
        .unwrap();
    let resp = server.take(t).expect("response ready");
    let logits = resp.logits().expect("retry must absorb the failure");
    assert_eq!(bits(logits), want, "the re-run is bit-identical");
    assert_eq!(server.stats().run_retries, 1);
    assert_eq!(server.stats().served, 1);
    assert_eq!(
        server.stats().failed,
        0,
        "the caller never sees the failure"
    );
}

#[test]
fn serve_quarantine_trips_after_threshold_and_fast_rejects() {
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let mut server = GnnServer::new(ServeConfig {
        max_batch: 1,
        max_run_retries: 0,
        quarantine_after: 2,
        fault_plan: Some(
            FaultPlan::new().and_fail_times(FaultSite::WorkerCompute { worker: 0, step: 1 }, 2),
        ),
        recovery: None,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &d.graph).unwrap();
    let req = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_backend(Backend::Pregel)
        .with_targets(vec![0]);
    for _ in 0..2 {
        let t = server.submit(req.clone()).unwrap();
        assert!(matches!(
            server.take(t).unwrap().status,
            ScoreStatus::Failed(_)
        ));
    }
    assert_eq!(
        server.stats().quarantined,
        1,
        "streak of 2 trips quarantine"
    );
    assert_eq!(server.quarantined_plans(), 1);
    let err = server.submit(req).unwrap_err();
    assert!(err.to_string().contains("quarantined"), "{err}");
    assert_eq!(server.stats().quarantine_rejections, 1);
    assert_eq!(
        server.stats().submitted,
        2,
        "a fast-rejected submit never enqueues"
    );
}

#[test]
fn serve_quarantine_lifts_when_pending_work_succeeds() {
    // Three groups are queued before the failure streak plays out: the
    // first two runs consume the scheduled faults and trip quarantine,
    // the third succeeds and lifts it — the plan serves again.
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let mut server = GnnServer::new(ServeConfig {
        max_batch: 100,
        max_wait: 0,
        max_run_retries: 0,
        quarantine_after: 2,
        fault_plan: Some(
            FaultPlan::new().and_fail_times(FaultSite::WorkerCompute { worker: 0, step: 1 }, 2),
        ),
        recovery: None,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &d.graph).unwrap();
    let base = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_backend(Backend::Pregel)
        .with_targets(vec![0]);
    // Distinct snapshots open distinct groups on one plan (they cannot
    // coalesce), so one drain executes three separate runs in order.
    let t1 = server
        .submit(base.clone().with_snapshot(snapshot(&d.graph, 1.0)))
        .unwrap();
    let t2 = server
        .submit(base.clone().with_snapshot(snapshot(&d.graph, 0.5)))
        .unwrap();
    let t3 = server
        .submit(base.clone().with_snapshot(snapshot(&d.graph, 0.25)))
        .unwrap();
    server.drain();
    assert!(matches!(
        server.take(t1).unwrap().status,
        ScoreStatus::Failed(_)
    ));
    assert!(matches!(
        server.take(t2).unwrap().status,
        ScoreStatus::Failed(_)
    ));
    assert!(matches!(
        server.take(t3).unwrap().status,
        ScoreStatus::Served(_)
    ));
    assert_eq!(
        server.stats().quarantined,
        1,
        "the streak tripped mid-drain"
    );
    assert_eq!(
        server.quarantined_plans(),
        0,
        "the successful third run lifted the quarantine"
    );
    // New submissions flow again.
    let t4 = server.submit(base).unwrap();
    server.drain();
    assert!(matches!(
        server.take(t4).unwrap().status,
        ScoreStatus::Served(_)
    ));
}

#[test]
fn deadline_exceeded_is_never_transient_and_never_retried() {
    // Classification: a missed deadline is a permanent, caller-owned
    // outcome — retrying cannot un-miss it — unlike the lost-worker
    // family the retry loop exists for.
    let miss = Error::DeadlineExceeded { deadline: 3 };
    assert!(!miss.is_transient());
    assert!(Error::WorkerLost {
        worker: 0,
        detail: "compute fault".into()
    }
    .is_transient());

    // End-to-end: an expired request resolves without the engine ever
    // running — no batch, no retry, even with a generous retry budget.
    let d = dataset();
    let m = model(d.graph.node_feat_dim());
    let mut server = GnnServer::new(ServeConfig {
        max_batch: 8,
        max_wait: 10,
        max_run_retries: 3,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &d.graph).unwrap();
    let t = server
        .submit(
            ScoreRequest::new(1, 1)
                .with_workers(4)
                .with_deadline(0)
                .with_targets(vec![7]),
        )
        .unwrap();
    server.tick();
    let resp = server.take(t).unwrap();
    assert_eq!(resp.status, ScoreStatus::DeadlineExceeded { deadline: 0 });
    assert!(!resp.as_result().unwrap_err().is_transient());
    assert_eq!(server.stats().batches, 0, "the engine never ran");
    assert_eq!(server.stats().run_retries, 0, "nothing to retry");
    assert_eq!(server.stats().overload.deadline_exceeded, 1);
}
