//! Serving-layer contract tests (see `inferturbo_serve`):
//!
//! 1. **Batching is invisible**: the logits a batched request receives are
//!    bit-identical to calling `run_with_features` sequentially, once per
//!    coalesced group, for every model × strategy combination and every
//!    thread budget.
//! 2. **Admission is inclusive at the boundary**, matching
//!    `Backend::Auto`'s `pregel_fits` semantics: a fleet whose summed peak
//!    residency equals the budget is admitted; one byte over is rejected
//!    (or shed, under `ShedOldest`).
//! 3. **FIFO response ordering under coalescing**: responses for one plan
//!    become ready in submission order even when a later-submitted group
//!    executes first.
//! 4. **Zero-copy plan reload** is pinned beside the plan internals it
//!    reads, in `inferturbo-core`'s backend unit tests: a Pregel run loads
//!    its states by handle into the graph's features and the plan's layout,
//!    and a MapReduce run shares each record's adjacency `Arc`.
//! 5. **Out-of-core admission**: a spill budget shrinks a plan's
//!    spill-aware `PlanEstimate`, so a configuration the fleet rejected
//!    at its in-memory residency admits — and serves bit-identically —
//!    once it pages its inboxes to disk.
//! 6. **Overload resolves, it never drops**: under a mixed
//!    deadline/throttle/breaker/stale trace every submitted request
//!    reaches exactly one terminal `ScoreStatus`, the whole pipeline
//!    replays identically at every thread count, and a `ServedStale`
//!    answer is bit-identical to the fresh run that populated the cache.

use std::collections::BTreeMap;
use std::sync::Arc;

use inferturbo::cluster::{FaultPlan, FaultSite};
use inferturbo::common::Parallelism;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo::graph::Graph;
use inferturbo::obs::{Payload, Site, TraceHandle};
use inferturbo::serve::{
    AdmissionPolicy, BreakerConfig, FeatureSnapshot, GnnServer, RateLimitConfig, ScoreRequest,
    ScoreStatus, ServeConfig, ServerStats,
};

fn test_graph(skew: DegreeSkew) -> Graph {
    generate(&GenConfig {
        n_nodes: 120,
        n_edges: 700,
        feat_dim: 5,
        classes: 3,
        skew,
        alpha: 1.3,
        homophily: 0.4,
        seed: 77,
        ..GenConfig::default()
    })
}

fn models() -> Vec<(&'static str, GnnModel)> {
    vec![
        (
            "sage-mean",
            GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 1),
        ),
        (
            "sage-max",
            GnnModel::sage(5, 8, 2, 3, false, PoolOp::Max, 2),
        ),
        ("gcn", GnnModel::gcn(5, 8, 2, 3, false, 3)),
        ("gat", GnnModel::gat(5, 8, 2, 2, 3, false, 4)),
    ]
}

fn bits(logits: &[Vec<f32>]) -> Vec<Vec<u32>> {
    logits
        .iter()
        .map(|l| l.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn snapshot_scaled(g: &Graph, scale: f32) -> FeatureSnapshot {
    Arc::new(
        (0..g.n_nodes() as u32)
            .map(|v| g.node_feat(v).iter().map(|x| x * scale).collect())
            .collect(),
    )
}

/// The acceptance-criterion suite: for every model × strategy combo and
/// several thread budgets, a server batch over two snapshots plus the
/// graph's own features must be bit-identical to sequential
/// `run_with_features` calls per coalesced group.
#[test]
fn batched_serving_bit_identical_to_sequential_for_every_combo() {
    let g = test_graph(DegreeSkew::Out);
    let snap_a = snapshot_scaled(&g, 0.9);
    let snap_b = snapshot_scaled(&g, 1.1);
    for (name, m) in models() {
        for pg in [false, true] {
            for sn in [false, true] {
                let strat = StrategyConfig::none()
                    .with_partial_gather(pg)
                    .with_broadcast(true)
                    .with_shadow_nodes(sn)
                    .with_threshold(5);
                // Sequential ground truth: one plan, one run per group, at
                // the serial budget.
                let plan = InferenceSession::builder()
                    .model(&m)
                    .graph(&g)
                    .workers(8)
                    .strategy(strat)
                    .backend(Backend::Pregel)
                    .plan()
                    .unwrap();
                let (want_own, want_a, want_b) = Parallelism::with(1, || {
                    (
                        bits(&plan.run().unwrap().logits),
                        bits(&plan.run_with_features(&snap_a).unwrap().logits),
                        bits(&plan.run_with_features(&snap_b).unwrap().logits),
                    )
                });

                for threads in [1usize, 2, 4] {
                    let mut server = GnnServer::new(ServeConfig {
                        max_batch: 16,
                        max_wait: 0,
                        ..ServeConfig::default()
                    });
                    server.register_model(1, &m).unwrap();
                    server.register_graph(1, &g).unwrap();
                    let base = ScoreRequest::new(1, 1)
                        .with_workers(8)
                        .with_strategy(strat)
                        .with_backend(Backend::Pregel);
                    // Interleave submissions across the three groups, with
                    // per-request target subsets, then serve everything at
                    // this thread budget.
                    let responses = Parallelism::with(threads, || {
                        let mut tickets = Vec::new();
                        for i in 0..6u32 {
                            let req = match i % 3 {
                                0 => base.clone(),
                                1 => base.clone().with_snapshot(Arc::clone(&snap_a)),
                                _ => base.clone().with_snapshot(Arc::clone(&snap_b)),
                            };
                            let req = if i < 3 {
                                req // full logits
                            } else {
                                req.with_targets(vec![i, i * 7 % 120, 119])
                            };
                            tickets.push((i, server.submit(req).unwrap()));
                        }
                        server.tick();
                        tickets
                            .into_iter()
                            .map(|(i, t)| (i, server.take(t).expect("response ready")))
                            .collect::<Vec<_>>()
                    });
                    assert_eq!(server.stats().batches, 3, "{name}: one run per group");
                    assert_eq!(server.stats().served, 6);
                    for (i, resp) in responses {
                        let want = match i % 3 {
                            0 => &want_own,
                            1 => &want_a,
                            _ => &want_b,
                        };
                        let got = resp.logits().expect("served");
                        if i < 3 {
                            assert_eq!(
                                bits(got),
                                *want,
                                "{name} pg={pg} sn={sn} t={threads}: full logits diverged"
                            );
                        } else {
                            let targets = [i, i * 7 % 120, 119];
                            for (j, &v) in targets.iter().enumerate() {
                                assert_eq!(
                                    bits(std::slice::from_ref(&got[j])),
                                    vec![want[v as usize].clone()],
                                    "{name} pg={pg} sn={sn} t={threads}: node {v} diverged"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Admission applies the §IV-A comparison fleet-wide and inclusively:
/// exactly at the budget the plan is admitted, one byte under it is
/// rejected.
#[test]
fn admission_rejects_exactly_at_the_budget_boundary() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
    // Probe the plan's residency once.
    let probe = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .workers(4)
        .backend(Backend::Pregel)
        .plan()
        .unwrap();
    let resident = probe.estimate().pregel_peak_worker_bytes;
    assert!(resident > 0);

    // Budget == residency: admitted (inclusive, like Backend::Auto).
    let mut server = GnnServer::new(ServeConfig {
        memory_budget: resident,
        policy: AdmissionPolicy::Reject,
        max_batch: 1,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &g).unwrap();
    let req = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_backend(Backend::Pregel)
        .with_targets(vec![0]);
    let t = server.submit(req.clone()).unwrap();
    assert!(matches!(
        server.take(t).unwrap().status,
        ScoreStatus::Served(_)
    ));
    assert_eq!(server.admission().remaining(), 0);

    // A second distinct plan (different worker count) no longer fits.
    let err = server
        .submit(req.clone().with_workers(8))
        .expect_err("fleet budget exhausted");
    assert!(err.to_string().contains("admission denied"), "{err}");
    assert_eq!(server.stats().rejected, 1);
    // The admitted plan keeps serving.
    let t = server.submit(req).unwrap();
    assert!(server.take(t).is_some());

    // Budget one byte short: the same plan is rejected outright.
    let mut tight = GnnServer::new(ServeConfig {
        memory_budget: resident - 1,
        policy: AdmissionPolicy::Reject,
        max_batch: 1,
        ..ServeConfig::default()
    });
    tight.register_model(1, &m).unwrap();
    tight.register_graph(1, &g).unwrap();
    let err = tight
        .submit(
            ScoreRequest::new(1, 1)
                .with_workers(4)
                .with_backend(Backend::Pregel),
        )
        .expect_err("one byte under the boundary");
    assert!(err.to_string().contains("admission denied"), "{err}");
}

/// The out-of-core admission path: a plan the fleet just rejected at its
/// in-memory residency admits once a spill budget shrinks its
/// `PlanEstimate` — and serves bit-identical logits, with the disk plane
/// visible in `ServerStats`.
#[test]
fn spill_budget_admits_a_plan_the_fleet_just_rejected() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
    // Materialized columnar rows: the O(E·d) inbox dominates the plan's
    // residency, so spilling it moves real bytes off the resident plane.
    let strat = StrategyConfig::none().with_partial_gather(false);
    let probe = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .workers(4)
        .strategy(strat)
        .backend(Backend::Pregel)
        .plan()
        .unwrap();
    let resident = probe.estimate().pregel_peak_worker_bytes;
    let want = bits(&probe.run().unwrap().logits);

    // Budget one byte short of the in-memory residency: rejected.
    let mut server = GnnServer::new(ServeConfig {
        memory_budget: resident - 1,
        max_batch: 1,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &g).unwrap();
    let req = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_strategy(strat)
        .with_backend(Backend::Pregel);
    let err = server
        .submit(req.clone())
        .expect_err("must not fit in memory");
    assert!(err.to_string().contains("admission denied"), "{err}");
    assert_eq!(server.stats().rejected, 1);

    // The same configuration under a 512-byte spill window now fits the
    // very fleet that rejected it, serves bit-identically, and reports
    // the spilled plane.
    let t = server.submit(req.with_spill_budget(512)).unwrap();
    let resp = server.take(t).expect("response ready");
    assert_eq!(bits(resp.logits().expect("served")), want);
    assert_eq!(server.stats().plans_built, 1);
    assert!(
        server.admission().resident_bytes() < resident,
        "admission must charge the reduced (spill-aware) residency"
    );
    assert!(
        server.stats().spilled_bytes > 0,
        "the run must actually have paged inbox rows to disk"
    );
}

/// Under `ShedOldest`, a newcomer that does not fit evicts the oldest
/// admitted plan; the evicted plan's pending requests complete with
/// `Shed`, in FIFO order, and its budget is released.
#[test]
fn shed_oldest_evicts_the_oldest_plan_and_sheds_its_queue() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
    let probe = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .workers(4)
        .backend(Backend::Pregel)
        .plan()
        .unwrap();
    let resident = probe.estimate().pregel_peak_worker_bytes;

    // Budget fits one 4-worker plan but not two plans at once.
    let mut server = GnnServer::new(ServeConfig {
        memory_budget: resident + resident / 2,
        policy: AdmissionPolicy::ShedOldest,
        max_batch: 100,
        max_wait: 100, // nothing flushes on its own
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &g).unwrap();
    let old = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_backend(Backend::Pregel)
        .with_targets(vec![3]);
    let t1 = server.submit(old.clone()).unwrap();
    let t2 = server.submit(old).unwrap();
    assert_eq!(server.pending(), 2);

    // A second plan arrives and forces the first out.
    let newcomer = ScoreRequest::new(1, 1)
        .with_workers(8)
        .with_backend(Backend::Pregel)
        .with_targets(vec![3]);
    let t3 = server.submit(newcomer).unwrap();
    assert_eq!(server.stats().shed, 2);
    assert_eq!(server.cached_plans(), 1, "old plan evicted");
    // Shed responses are ready immediately, in submission order.
    let shed: Vec<_> = server.drain_ready();
    assert_eq!(shed.len(), 2);
    assert_eq!(shed[0].ticket, t1);
    assert_eq!(shed[1].ticket, t2);
    assert!(shed.iter().all(|r| r.status == ScoreStatus::Shed));
    // A drained (or taken) shed ticket is consumed: a later take is a
    // well-defined None, never a panic or a stale response.
    assert!(server.take(t1).is_none());
    assert!(server.take(t2).is_none());
    // The newcomer still serves.
    server.drain();
    assert!(matches!(
        server.take(t3).unwrap().status,
        ScoreStatus::Served(_)
    ));
}

/// Eviction answers from the response cache: an evicted plan's pending
/// request whose rows are all cached resolves `ServedStale` (bit-identical
/// to the run that cached them), one with a miss resolves `Shed`, both
/// leave through the plan's FIFO gate in ticket order, and each ticket
/// gets exactly one terminal trace event.
#[test]
fn eviction_serves_cached_rows_stale_and_sheds_the_rest() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
    let probe = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .workers(4)
        .backend(Backend::Pregel)
        .plan()
        .unwrap();
    let resident = probe.estimate().pregel_peak_worker_bytes;

    let trace = TraceHandle::recording();
    let mut server = GnnServer::new(ServeConfig {
        memory_budget: resident + resident / 2,
        policy: AdmissionPolicy::ShedOldest,
        max_batch: 100,
        max_wait: 100,
        trace: trace.clone(),
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &g).unwrap();
    let old = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_backend(Backend::Pregel);
    // Prime the response cache: one run of the old plan on the graph's
    // own features caches every node's row.
    let t_prime = server.submit(old.clone()).unwrap();
    server.drain();
    let primed = bits(server.take(t_prime).unwrap().logits().unwrap());

    // Two pending requests: a snapshot the cache has never seen (a miss),
    // then graph-feature targets whose rows are all cached.
    let t_miss = server
        .submit(
            old.clone()
                .with_snapshot(snapshot_scaled(&g, 0.5))
                .with_targets(vec![3]),
        )
        .unwrap();
    let t_hit = server.submit(old.with_targets(vec![3, 7])).unwrap();
    assert_eq!(server.pending(), 2);

    // A second plan arrives and forces the first out.
    let t_new = server
        .submit(
            ScoreRequest::new(1, 1)
                .with_workers(8)
                .with_backend(Backend::Pregel)
                .with_targets(vec![3]),
        )
        .unwrap();
    assert_eq!(server.cached_plans(), 1, "old plan evicted");
    assert_eq!(server.pending(), 1, "only the newcomer is queued");
    let evicted = server.drain_ready();
    let tickets: Vec<_> = evicted.iter().map(|r| r.ticket).collect();
    assert_eq!(tickets, vec![t_miss, t_hit], "released in ticket order");
    assert_eq!(evicted[0].status, ScoreStatus::Shed);
    assert!(evicted[1].is_stale());
    assert_eq!(
        bits(evicted[1].logits().unwrap()),
        vec![primed[3].clone(), primed[7].clone()],
        "stale rows == the priming run's rows"
    );
    let stats = server.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.overload.served_stale, 1);
    assert_eq!(stats.overload.cache_hits, 1);
    assert_eq!(stats.overload.cache_misses, 1);

    server.drain();
    assert!(matches!(
        server.take(t_new).unwrap().status,
        ScoreStatus::Served(_)
    ));
    let mut terminals: BTreeMap<u64, u32> = BTreeMap::new();
    for e in trace.events() {
        if let (Site::Ticket(t), Payload::Terminal { .. }) = (e.site, &e.payload) {
            *terminals.entry(t).or_default() += 1;
        }
    }
    let want: BTreeMap<u64, u32> = [t_prime, t_miss, t_hit, t_new]
        .iter()
        .map(|t| (t.0, 1))
        .collect();
    assert_eq!(terminals, want, "one terminal event per ticket");
}

/// Under `ShedOldest`, a `Backend::Auto` plan resolves its backend
/// against the FULL fleet budget (admission will evict older plans to
/// make room), not just the unclaimed remainder — otherwise the shedding
/// policy could never help a newcomer run resident.
#[test]
fn shed_oldest_lets_auto_plans_claim_the_full_budget() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 6);
    let probe = |workers: usize| {
        InferenceSession::builder()
            .model(&m)
            .graph(&g)
            .workers(workers)
            .backend(Backend::Pregel)
            .plan()
            .unwrap()
            .estimate()
            .pregel_peak_worker_bytes
    };
    let (r4, r8) = (probe(4), probe(8));
    assert!(r8 < r4, "8 workers spread state thinner per worker");

    // Budget exactly fits the 4-worker Pregel plan; an 8-worker plan
    // occupies part of it first.
    let mut server = GnnServer::new(ServeConfig {
        memory_budget: r4,
        policy: AdmissionPolicy::ShedOldest,
        max_batch: 1,
        max_wait: 0,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &g).unwrap();
    server
        .submit(
            ScoreRequest::new(1, 1)
                .with_workers(8)
                .with_backend(Backend::Pregel)
                .with_targets(vec![0]),
        )
        .unwrap();
    assert_eq!(server.admission().resident_bytes(), r8);

    // The Auto newcomer must still resolve to Pregel (full budget r4
    // available via shedding), evicting the 8-worker plan — not degrade
    // to MapReduce against the r4 - r8 remainder.
    let t = server
        .submit(
            ScoreRequest::new(1, 1)
                .with_workers(4)
                .with_backend(Backend::Auto)
                .with_targets(vec![0]),
        )
        .unwrap();
    assert!(matches!(
        server.take(t).unwrap().status,
        ScoreStatus::Served(_)
    ));
    assert_eq!(
        server.admission().resident_bytes(),
        r4,
        "Auto resolved to resident Pregel at the full budget"
    );
    assert_eq!(server.cached_plans(), 1, "the older plan was shed");
}

/// A later-submitted group can execute first (it fills `max_batch`), but
/// responses still become ready in submission order within the plan.
#[test]
fn fifo_response_ordering_under_coalescing() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 1);
    let snap = snapshot_scaled(&g, 0.8);
    let mut server = GnnServer::new(ServeConfig {
        max_batch: 3,
        max_wait: 5,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &g).unwrap();
    let base = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_targets(vec![7]);

    // Ticket 0 opens the graph-features group; tickets 1..=3 fill the
    // snapshot group, which flushes first (max_batch = 3).
    let t0 = server.submit(base.clone()).unwrap();
    let mut snap_tickets = Vec::new();
    for _ in 0..3 {
        snap_tickets.push(
            server
                .submit(base.clone().with_snapshot(Arc::clone(&snap)))
                .unwrap(),
        );
    }
    assert_eq!(
        server.stats().batches,
        1,
        "snapshot group executed at max_batch"
    );
    // ...but nothing is ready: ticket 0's group has not run, and FIFO
    // holds later responses behind it.
    assert_eq!(server.ready_len(), 0, "FIFO gate holds out-of-order batch");
    assert_eq!(server.pending(), 1);

    // Age the remaining group out (max_wait full ticks + the partial one
    // the submit landed in); everything releases in ticket order.
    for _ in 0..6 {
        server.tick();
    }
    let ready = server.drain_ready();
    assert_eq!(ready.len(), 4);
    assert_eq!(ready[0].ticket, t0);
    for (i, t) in snap_tickets.iter().enumerate() {
        assert_eq!(ready[i + 1].ticket, *t);
    }
    // And the FIFO gate never changed the answers: group membership
    // decides values, not execution order.
    let own = bits(&[ready[0].logits().unwrap()[0].clone()]);
    let refreshed = bits(&[ready[1].logits().unwrap()[0].clone()]);
    assert_ne!(own, refreshed, "distinct snapshots produce distinct logits");
    for r in &ready[2..] {
        assert_eq!(bits(&[r.logits().unwrap()[0].clone()]), refreshed);
    }
}

/// Serving through MapReduce plans works identically (the batcher is
/// backend-agnostic) and admission accounts their streamed residency.
#[test]
fn mapreduce_plans_serve_and_account() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 4);
    let plan = InferenceSession::builder()
        .model(&m)
        .graph(&g)
        .workers(4)
        .backend(Backend::MapReduce)
        .plan()
        .unwrap();
    let want = bits(&plan.run().unwrap().logits);
    let mr_resident = plan.estimate().mapreduce_peak_worker_bytes;

    let mut server = GnnServer::new(ServeConfig {
        max_batch: 2,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &g).unwrap();
    let req = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_backend(Backend::MapReduce);
    let t1 = server.submit(req.clone()).unwrap();
    let t2 = server.submit(req).unwrap();
    assert_eq!(server.admission().resident_bytes(), mr_resident);
    assert_eq!(server.stats().batches, 1);
    for t in [t1, t2] {
        assert_eq!(bits(server.take(t).unwrap().logits().unwrap()), want);
    }
}

// ---------------------------------------------------------------------------
// Overload resilience: deadlines, rate limits, breakers, stale service
// ---------------------------------------------------------------------------

/// The overload pipeline's knobs:
/// a 2-token Degrade-policy bucket, a 2-run/50% breaker with a 2-tick
/// cooldown, no serve retries and no quarantine — the breaker is the only
/// containment actor — and a fault schedule that fails exactly the first
/// two runs.
fn overload_trace_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_wait: 10,
        max_run_retries: 0,
        quarantine_after: 0,
        fault_plan: Some(
            FaultPlan::new().and_fail_times(FaultSite::WorkerCompute { worker: 0, step: 1 }, 2),
        ),
        recovery: None,
        rate_limit: Some(RateLimitConfig::degrade(2, 1)),
        breaker: Some(BreakerConfig {
            window_ticks: 8,
            min_runs: 2,
            trip_pct: 50,
            cooldown_ticks: 2,
        }),
        response_cache: 4096,
        deadline_clamp: None,
        ..ServeConfig::default()
    }
}

/// Replay the mixed overload trace once: two failing runs trip the
/// breaker, an open-breaker submit fast-fails, the cooldown probe
/// recovers and fills the response cache, a tenant burst throttles into
/// stale service, a deadline expires, and an uncached-snapshot throttle
/// resolves `Throttled` — every stage of the pipeline in one script.
///
/// Returns the final [`ServerStats`] and every response as
/// `(ticket, status kind, logits bits)`, and asserts the terminal-status
/// invariant inline: the response set is exactly the ticket set (no
/// request lost, none resolved twice).
#[allow(clippy::type_complexity)]
fn run_overload_trace(
    g: &Graph,
    m: &GnnModel,
) -> (ServerStats, Vec<(u64, &'static str, Option<Vec<Vec<u32>>>)>) {
    let mut server = GnnServer::new(overload_trace_config());
    server.register_model(1, m).unwrap();
    server.register_graph(1, g).unwrap();
    let base = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_backend(Backend::Pregel);
    let mut tickets = Vec::new();

    // Phase 1 — the armed fault fails the first two runs; the breaker's
    // 2-run window hits 100% failure on the second and opens.
    for _ in 0..2 {
        tickets.push(
            server
                .submit(base.clone().with_targets(vec![0, 1]))
                .unwrap(),
        );
        server.drain();
    }
    // Phase 2 — breaker open, response cache still empty: fast-fail.
    let err = server
        .submit(base.clone().with_targets(vec![0, 1]))
        .unwrap_err();
    assert!(err.to_string().contains("circuit breaker open"), "{err}");
    // Phase 3 — the 2-tick cooldown elapses; the next batch is the
    // HalfOpen probe. It succeeds (the fault budget is drained),
    // re-closes the breaker, and fills the cache with every node's row.
    for _ in 0..3 {
        server.tick();
    }
    tickets.push(server.submit(base.clone()).unwrap());
    server.drain();
    // Phase 4 — tenant burst: the 2-token bucket admits two fresh
    // requests; the overflow degrades and now finds cached rows.
    for _ in 0..4 {
        tickets.push(
            server
                .submit(base.clone().with_tenant(9).with_targets(vec![1]))
                .unwrap(),
        );
    }
    server.drain();
    // Phase 5 — deadlines: a 0-tick budget expires at the next tick; a
    // 5-tick budget survives to the drain and serves.
    tickets.push(
        server
            .submit(base.clone().with_deadline(0).with_targets(vec![2]))
            .unwrap(),
    );
    tickets.push(
        server
            .submit(base.clone().with_deadline(5).with_targets(vec![2]))
            .unwrap(),
    );
    server.tick();
    server.drain();
    // Phase 6 — a throttled request naming a snapshot the cache has never
    // seen cannot be served stale: it resolves `Throttled`.
    let snap = snapshot_scaled(g, 0.7);
    tickets.push(
        server
            .submit(
                base.clone()
                    .with_tenant(9)
                    .with_snapshot(Arc::clone(&snap))
                    .with_targets(vec![0]),
            )
            .unwrap(),
    );
    tickets.push(
        server
            .submit(
                base.clone()
                    .with_tenant(9)
                    .with_snapshot(Arc::clone(&snap))
                    .with_targets(vec![0]),
            )
            .unwrap(),
    );
    server.drain();

    let responses: Vec<(u64, &'static str, Option<Vec<Vec<u32>>>)> = server
        .drain_ready()
        .into_iter()
        .map(|r| {
            let kind = match &r.status {
                ScoreStatus::Served(_) => "served",
                ScoreStatus::ServedStale(_) => "stale",
                ScoreStatus::Shed => "shed",
                ScoreStatus::DeadlineExceeded { .. } => "deadline",
                ScoreStatus::Throttled => "throttled",
                ScoreStatus::Failed(_) => "failed",
            };
            let b = r.logits().map(bits);
            (r.ticket.0, kind, b)
        })
        .collect();

    // ACCEPTANCE: every submitted request reached exactly one terminal
    // status — the response set is exactly the ticket set.
    let mut got: Vec<u64> = responses.iter().map(|r| r.0).collect();
    got.sort_unstable();
    let mut want: Vec<u64> = tickets.iter().map(|t| t.0).collect();
    want.sort_unstable();
    assert_eq!(got, want, "no request lost, none resolved twice");
    assert_eq!(server.pending(), 0);
    assert_eq!(server.ready_len(), 0);
    for t in tickets {
        assert!(
            server.take(t).is_none(),
            "tickets are consumed exactly once"
        );
    }
    (server.stats().clone(), responses)
}

#[test]
fn overload_trace_resolves_every_request_and_counts_every_stage() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 5);
    let (stats, responses) = run_overload_trace(&g, &m);

    let count = |kind: &str| responses.iter().filter(|r| r.1 == kind).count() as u64;
    assert_eq!(count("failed"), 2, "two faulted runs");
    assert_eq!(
        count("served"),
        5,
        "probe + 2 fresh tenant + deadline-5 + snapshot"
    );
    assert_eq!(count("stale"), 2, "the tenant burst's overflow");
    assert_eq!(count("deadline"), 1);
    assert_eq!(count("throttled"), 1, "uncached snapshot overflow");
    assert_eq!(count("shed"), 0);

    assert_eq!(stats.submitted, 11);
    assert_eq!(stats.served, 5);
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.overload.served_stale, 2);
    assert_eq!(stats.overload.throttled, 1);
    assert_eq!(stats.overload.deadline_exceeded, 1);
    assert_eq!(stats.overload.breaker_opens, 1);
    assert_eq!(stats.overload.breaker_rejections, 1);
    assert_eq!(stats.overload.cache_hits, 2);
    assert_eq!(
        stats.overload.cache_misses, 2,
        "open-breaker miss + snapshot miss"
    );
    assert_eq!(
        stats.batches, 6,
        "expired and degraded work never bought a run"
    );

    // The stale answers are bit-identical to the probe run's rows: both
    // tenant-overflow responses asked for node 1, and the probe response
    // carried every node.
    let probe = responses
        .iter()
        .find(|r| r.1 == "served")
        .and_then(|r| r.2.clone())
        .expect("probe served full logits");
    for r in responses.iter().filter(|r| r.1 == "stale") {
        assert_eq!(
            r.2.as_deref(),
            Some(&[probe[1].clone()][..]),
            "stale row == populating run's row"
        );
    }
}

/// Same trace + same config => identical stats and bit-identical
/// responses at every thread budget: the whole overload pipeline (token
/// buckets, breaker windows, expiry, cache contents) lives on the logical
/// clock, so parallelism cannot perturb it.
#[test]
fn overload_trace_is_deterministic_across_thread_counts() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 5);
    let baseline = Parallelism::with(1, || run_overload_trace(&g, &m));
    for threads in [2usize, 4] {
        let got = Parallelism::with(threads, || run_overload_trace(&g, &m));
        assert_eq!(
            got.0, baseline.0,
            "ServerStats diverged at {threads} threads"
        );
        assert_eq!(got.1, baseline.1, "responses diverged at {threads} threads");
    }
}

/// ACCEPTANCE: a `ServedStale` response is bit-identical to the fresh run
/// that populated the cache — full-logits answers and target slices both.
#[test]
fn served_stale_is_bit_identical_to_the_populating_run() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 9);
    let mut server = GnnServer::new(ServeConfig {
        max_batch: 1,
        // One token, never refilled: the second tenant request degrades.
        rate_limit: Some(RateLimitConfig::degrade(1, 0)),
        deadline_clamp: None,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &g).unwrap();
    let base = ScoreRequest::new(1, 1).with_workers(4);
    // Fresh untenanted full-logits run populates the cache.
    let t_fresh = server.submit(base.clone()).unwrap();
    let fresh = server.take(t_fresh).unwrap();
    assert!(!fresh.is_stale());
    let fresh_bits = bits(fresh.logits().unwrap());
    // Tenant 3 burns its only token on a fresh request...
    server
        .submit(base.clone().with_tenant(3).with_targets(vec![5]))
        .unwrap();
    // ...so its next full-logits request is served from the cache.
    let t_stale = server.submit(base.clone().with_tenant(3)).unwrap();
    let stale = server.take(t_stale).unwrap();
    assert!(stale.is_stale());
    assert_eq!(
        bits(stale.logits().unwrap()),
        fresh_bits,
        "stale full-logits answer == populating run"
    );
    // Target slices come from the same rows.
    let t_slice = server
        .submit(base.clone().with_tenant(3).with_targets(vec![5, 17]))
        .unwrap();
    let slice = server.take(t_slice).unwrap();
    assert!(slice.is_stale());
    assert_eq!(
        bits(slice.logits().unwrap()),
        vec![fresh_bits[5].clone(), fresh_bits[17].clone()]
    );
    assert_eq!(server.stats().overload.served_stale, 2);
    let overload = server.stats().overload;
    let lookups = overload.cache_hits + overload.cache_misses;
    assert!(overload.cache_hits as f64 / lookups as f64 > 0.99);
}

/// Deadline expiry is ordered before aging inside a tick: a request whose
/// deadline and group age fire on the same tick resolves
/// `DeadlineExceeded` and never occupies a slot in the batch that flushes.
#[test]
fn deadline_expiry_runs_before_aging_and_frees_the_batch_slot() {
    let g = test_graph(DegreeSkew::In);
    let m = GnnModel::sage(5, 8, 2, 3, false, PoolOp::Mean, 9);
    let mut server = GnnServer::new(ServeConfig {
        max_batch: 100,
        max_wait: 0,
        deadline_clamp: None,
        ..ServeConfig::default()
    });
    server.register_model(1, &m).unwrap();
    server.register_graph(1, &g).unwrap();
    let base = ScoreRequest::new(1, 1)
        .with_workers(4)
        .with_targets(vec![0]);
    // Same group: D (deadline 0) and K (no deadline), both due next tick.
    let t_d = server.submit(base.clone().with_deadline(0)).unwrap();
    let t_k = server.submit(base).unwrap();
    assert_eq!(server.tick(), 2, "both resolve on the tick");
    let d = server.take(t_d).unwrap();
    assert_eq!(d.status, ScoreStatus::DeadlineExceeded { deadline: 0 });
    let d_err = d.as_result().unwrap_err();
    assert!(!d_err.is_transient(), "missed deadlines are never retried");
    assert!(matches!(
        server.take(t_k).unwrap().status,
        ScoreStatus::Served(_)
    ));
    assert_eq!(server.stats().overload.deadline_exceeded, 1);
    assert_eq!(server.stats().served, 1);
    assert_eq!(
        server.stats().batches,
        1,
        "the expired request bought no run"
    );
}
