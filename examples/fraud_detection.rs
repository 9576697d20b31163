//! Fraud detection over a transaction graph with extreme hubs — the
//! paper's motivating financial scenario.
//!
//! A payments graph has hub accounts (merchants, mule accounts) with huge
//! degree. This example shows (a) why sampling is unacceptable here —
//! the same account can flip between "fraud" and "legit" across runs —
//! and (b) how the power-law strategies keep full-graph inference balanced.
//!
//! ```sh
//! cargo run --release --example fraud_detection
//! ```

use inferturbo::cluster::ClusterSpec;
use inferturbo::common::stats;
use inferturbo::core::consistency::audit_sampling;
use inferturbo::core::models::{GnnModel, PoolOp};
use inferturbo::core::session::{Backend, InferenceSession};
use inferturbo::core::strategy::StrategyConfig;
use inferturbo::core::train::{train, TrainConfig};
use inferturbo::graph::gen::DegreeSkew;
use inferturbo::graph::Dataset;

fn main() {
    // Transaction graph: out-degree skewed (hub accounts fan out to many
    // counterparties), 2 classes: fraud / legit.
    let dataset = Dataset::power_law(30_000, 400_000, DegreeSkew::Out, 99);
    let (max_in, max_out) = dataset.graph.max_degrees();
    println!("{}", dataset.summary());
    println!("hub accounts: max in-degree {max_in}, max out-degree {max_out}");

    let feat = dataset.graph.node_feat_dim();
    let mut model = GnnModel::sage(feat, 32, 2, 2, false, PoolOp::Mean, 5);
    train(
        &mut model,
        &dataset,
        &TrainConfig {
            steps: 80,
            batch_size: 48,
            fanout: Some(10),
            ..TrainConfig::default()
        },
    )
    .expect("training");

    // --- why sampling is disqualified for risk scoring -------------------
    let audit_targets: Vec<u32> = (0..1500).collect();
    let audit = audit_sampling(&model, &dataset.graph, &audit_targets, 10, 8, 0).expect("audit");
    println!(
        "\nsampled inference (fanout 10, 8 runs): {:.1}% of accounts change class between runs",
        audit.unstable_fraction() * 100.0
    );
    println!("histogram by #distinct classes: {:?}", audit.hist);

    // --- full-graph inference: strategies vs stragglers -------------------
    let spec = ClusterSpec::mapreduce_cluster(64);
    for (name, strat) in [
        ("no strategies ", StrategyConfig::none()),
        ("all strategies", StrategyConfig::all()),
    ] {
        let out = InferenceSession::builder()
            .model(&model)
            .graph(&dataset.graph)
            .mapreduce_spec(spec)
            .strategy(strat)
            .backend(Backend::MapReduce)
            .plan()
            .and_then(|plan| plan.run())
            .expect("inference");
        let times: Vec<f64> = out
            .report
            .worker_totals()
            .iter()
            .map(|t| t.busy_secs)
            .collect();
        let frauds = out.predictions().iter().filter(|&&c| c == 1).count();
        println!(
            "{name}: flagged {frauds} accounts; worker time max/mean {:.2}x, bytes {}",
            stats::max(&times) / stats::mean(&times).max(1e-12),
            stats::human_bytes(out.report.total_bytes() as f64),
        );
    }
    println!("\nsame predictions, flatter workers, less traffic — no information dropped.");
}
