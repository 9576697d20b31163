//! Serving fraud scores from a long-lived GNN server — the traffic-facing
//! layer the paper's production deployment implies.
//!
//! A payments graph is scored continuously: feature snapshots refresh
//! periodically (account activity aggregates), and downstream systems fire
//! small "score these accounts" requests against the newest snapshot. This
//! example replays a deterministic traffic trace through
//! [`inferturbo::serve::GnnServer`] and prints the server report: how far
//! micro-batching compressed requests into runs, what planning was
//! amortised, and what admission control did when an oversized plan
//! arrived.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::sync::Arc;

use inferturbo::common::Xoshiro256;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::core::train::{train, TrainConfig};
use inferturbo::graph::gen::DegreeSkew;
use inferturbo::graph::Dataset;
use inferturbo::obs::{inspect, TraceHandle};
use inferturbo::serve::{
    AdmissionPolicy, FeatureSnapshot, GnnServer, RateLimitConfig, ScoreRequest, ServeConfig,
};

fn main() {
    // 1. A transaction graph with hub accounts and a quickly-trained
    //    2-class (fraud / legit) GraphSAGE model.
    let dataset = Dataset::power_law(8_000, 60_000, DegreeSkew::Out, 42);
    println!("{}", dataset.summary());
    let feat = dataset.graph.node_feat_dim();
    let mut model = GnnModel::sage(feat, 32, 2, 2, false, PoolOp::Mean, 5);
    train(
        &mut model,
        &dataset,
        &TrainConfig {
            steps: 40,
            batch_size: 32,
            fanout: Some(10),
            ..TrainConfig::default()
        },
    )
    .expect("training");

    // 2. Size the fleet budget around the production plan so the admission
    //    demo below is meaningful: room for the 16-worker plan, not for a
    //    fat 2-worker one.
    let probe = InferenceSession::builder()
        .model(&model)
        .graph(&dataset.graph)
        .workers(16)
        .plan()
        .expect("probe plan");
    let budget = probe.estimate().pregel_peak_worker_bytes * 3 / 2;

    // The flight recorder: every request's path through admission, the
    // limiter, the batcher and the engine lands in one deterministic
    // trace, summarised per tenant in step 9.
    let trace = TraceHandle::recording();
    let mut server = GnnServer::new(ServeConfig {
        max_batch: 8,
        max_wait: 2,
        memory_budget: budget,
        policy: AdmissionPolicy::Reject,
        // Overload plane (step 7): tenanted bursts pay a 4-token bucket
        // refilling 1/tick and degrade to cached rows when it runs dry;
        // untenanted trace traffic never touches the limiter. The cache
        // keeps two full refreshes of this 8k-node graph resident.
        rate_limit: Some(RateLimitConfig::degrade(4, 1)),
        response_cache: 16 * 1024,
        trace: trace.clone(),
        // Shuffle transport for every plan this server builds. Backends
        // are bit-identical, so swapping in `WorkerProcess` here changes
        // no response byte — only `RunReport::wire_bytes`.
        transport: Some(std::sync::Arc::new(inferturbo::core::InProcess)),
        ..ServeConfig::default()
    });
    server.register_model(1, &model).unwrap();
    server.register_graph(1, &dataset.graph).unwrap();

    // 3. Three feature refreshes (e.g. hourly activity aggregates): one
    //    shared snapshot Arc each — requests naming the same snapshot
    //    coalesce into one full-graph run.
    let n = dataset.graph.n_nodes();
    let snapshots: Vec<FeatureSnapshot> = (0..3)
        .map(|epoch| {
            let drift = 1.0 - 0.04 * epoch as f32;
            Arc::new(
                (0..n as u32)
                    .map(|v| {
                        dataset
                            .graph
                            .node_feat(v)
                            .iter()
                            .map(|x| x * drift)
                            .collect()
                    })
                    .collect(),
            )
        })
        .collect();

    // 4. Replay a deterministic trace: 30 logical ticks, a burst of
    //    scoring requests per tick, always against the newest snapshot.
    let mut rng = Xoshiro256::seed_from_u64(7);
    let base = ScoreRequest::new(1, 1).with_workers(16);
    let mut tickets = Vec::new();
    for tick in 0..30usize {
        let snapshot = &snapshots[tick / 10];
        for _ in 0..(1 + rng.below(5)) {
            let targets: Vec<u32> = (0..(1 + rng.below(4)))
                .map(|_| rng.below(n as u64) as u32)
                .collect();
            let req = base
                .clone()
                .with_snapshot(Arc::clone(snapshot))
                .with_targets(targets);
            tickets.push(server.submit(req).expect("submit"));
        }
        server.tick();
    }
    server.drain();

    // 5. Collect responses (FIFO order) and count flagged accounts.
    let responses = server.drain_ready();
    assert_eq!(responses.len(), tickets.len());
    let mut scored = 0usize;
    let mut flagged = 0usize;
    for resp in &responses {
        let logits = resp.logits().expect("served");
        scored += logits.len();
        flagged += logits
            .iter()
            .filter(|l| GnnModel::predict_class(l) == 1)
            .count();
    }
    println!(
        "\ntrace: {} requests scored {} accounts, {} flagged as fraud",
        responses.len(),
        scored,
        flagged
    );

    // 6. Admission control: a 2-worker plan concentrates the whole graph
    //    on two fat workers; its peak residency does not fit what is left
    //    of the fleet budget, so it is rejected while the admitted plan
    //    keeps serving.
    let oversized = ScoreRequest::new(1, 1)
        .with_workers(2)
        .with_backend(Backend::Pregel)
        .with_targets(vec![0]);
    match server.submit(oversized.clone()) {
        Err(e) => println!("\noversized plan: {e}"),
        Ok(_) => panic!("oversized plan unexpectedly admitted"),
    }

    // 6b. Out-of-core rescue: a materialized-gather plan (sender-side
    //     fusion off) hauls an O(E·d) inbox, so its in-memory residency is
    //     inbox-dominated and also fails admission — but an 8 KiB spill
    //     window pages that inbox to disk, shrinking the resident estimate
    //     below what is left of the fleet budget. Same graph, same model,
    //     bit-identical scores; only the residency model moved.
    let materialized = ScoreRequest::new(1, 1)
        .with_workers(32)
        .with_strategy(StrategyConfig::all().with_partial_gather(false))
        .with_backend(Backend::Pregel)
        .with_targets(vec![0]);
    match server.submit(materialized.clone()) {
        Err(e) => println!("materialized in-memory plan: {e}"),
        Ok(_) => panic!("materialized in-memory plan unexpectedly admitted"),
    }
    let spill_budget = 8 * 1024;
    match server.submit(materialized.with_spill_budget(spill_budget)) {
        Ok(t) => {
            server.drain();
            let served = server.take(t).is_some_and(|r| r.logits().is_some());
            println!(
                "spilled plan ({spill_budget} B resident window): admitted, served = {served}"
            );
            assert!(served, "spilled plan admitted but not served");
        }
        Err(e) => panic!("spilled plan unexpectedly rejected: {e}"),
    }

    // 7. Overload drill: a noisy downstream tenant fires a burst against a
    //    4-token bucket under the Degrade policy. The cache already holds
    //    every scored row from the trace's runs, so the overflow is served
    //    stale — bit-identical to the fresh rows — instead of being
    //    dropped; a 0-tick deadline request expires before buying a batch
    //    slot.
    let burst_snapshot = &snapshots[2];
    let noisy = base
        .clone()
        .with_tenant(42)
        .with_snapshot(Arc::clone(burst_snapshot));
    let mut burst = Vec::new();
    for i in 0..8u32 {
        burst.push(
            server
                .submit(noisy.clone().with_targets(vec![i]))
                .expect("degrade policy always resolves"),
        );
    }
    burst.push(
        server
            .submit(
                base.clone()
                    .with_snapshot(Arc::clone(burst_snapshot))
                    .with_deadline(0)
                    .with_targets(vec![0]),
            )
            .expect("submit"),
    );
    server.tick();
    server.drain();
    let (mut fresh, mut stale, mut expired) = (0, 0, 0);
    for t in burst {
        let resp = server.take(t).expect("overload resolves, it never drops");
        match () {
            _ if resp.is_stale() => stale += 1,
            _ if resp.logits().is_some() => fresh += 1,
            _ => expired += 1,
        }
    }
    println!(
        "\noverload burst: {fresh} served fresh, {stale} served stale from the \
         response cache, {expired} deadline-expired"
    );

    // 8. The server report.
    println!("\n{}", server.stats());
    println!(
        "admission: {} plan(s) resident, ~{} of {} B budget in use",
        server.admission().plans(),
        server.admission().resident_bytes(),
        server.admission().budget()
    );

    // 9. The per-tenant trace summary (the same view `itrace --tenants`
    //    renders from a saved trace file): the untenanted replay traffic
    //    and tenant 42's degraded burst, each tracked submit → terminal.
    println!(
        "
{}",
        inspect::render_tenant_summary(&trace.events())
    );
}
