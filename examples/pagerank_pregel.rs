//! The Pregel engine is a general graph-processing system, not a GNN
//! one-trick: this example runs PageRank on it, each rank share a 1-wide
//! row the engine sums sender-side (`AggKind::Sum` is the combiner),
//! mirroring the paper's lineage from Pregel/PowerGraph. The graph is laid
//! out once (`Layout::planned`): a vertex scatters its share to its
//! pre-resolved routes, so no iteration looks a vertex id up.
//!
//! ```sh
//! cargo run --release --example pagerank_pregel
//! ```

use inferturbo::cluster::ClusterSpec;
use inferturbo::common::layout::{Layout, Route};
use inferturbo::common::rows::AggKind;
use inferturbo::common::Result;
use inferturbo::graph::gen::DegreeSkew;
use inferturbo::graph::{Csr, Dataset};
use inferturbo::pregel::{
    Inbox, MessageLayout, Outbox, PregelConfig, PregelEngine, RowsIn, VertexProgram,
};
use std::sync::Arc;

struct PageRank {
    n: f64,
    damping: f64,
}

#[derive(Clone)]
struct State {
    rank: f64,
    /// Where the vertex's out-edges lead, as the layout resolved them.
    edges: Vec<Route>,
}

impl VertexProgram for PageRank {
    type State = State;
    type Msg = f32;

    fn compute(
        &self,
        step: usize,
        _vertex: u64,
        state: &mut State,
        inbox: Inbox<'_, f32>,
        out: &mut Outbox<f32>,
    ) -> Result<()> {
        if step > 0 {
            // The engine already summed the in-shares: one accumulator lane.
            let sum = match inbox.rows {
                RowsIn::Fused { acc, count, .. } if count > 0 => acc[0] as f64,
                _ => 0.0,
            };
            state.rank = (1.0 - self.damping) / self.n + self.damping * sum;
        }
        if !state.edges.is_empty() {
            let share = (state.rank / state.edges.len() as f64) as f32;
            out.scatter_row(&state.edges, &[share]);
        }
        out.add_flops(inbox.rows.count() as f64 + 2.0);
        Ok(())
    }

    fn message_layout(&self, _step: usize) -> Option<MessageLayout> {
        Some(MessageLayout { dim: 1 })
    }

    fn fused_aggregator(&self, _step: usize) -> Option<AggKind> {
        Some(AggKind::Sum)
    }
}

fn main() {
    let dataset = Dataset::power_law(50_000, 500_000, DegreeSkew::In, 3);
    let g = &dataset.graph;
    println!("{}", dataset.summary());

    let out_csr = Csr::out_of(g);
    let program = PageRank {
        n: g.n_nodes() as f64,
        damping: 0.85,
    };
    let spec = ClusterSpec::pregel_cluster(16);
    let adjacency: Vec<Vec<u64>> = (0..g.n_nodes() as u32)
        .map(|v| out_csr.neighbors(v).iter().map(|&u| u as u64).collect())
        .collect();
    let layout = Layout::planned(
        spec.workers,
        adjacency
            .iter()
            .enumerate()
            .map(|(v, nbrs)| (v as u64, nbrs.as_slice())),
    )
    .expect("every edge ends at a node of the graph");
    let states: Vec<State> = layout
        .vertices()
        .map(|v| State {
            rank: 1.0 / g.n_nodes() as f64,
            edges: v.edges.to_vec(),
        })
        .collect();
    let mut engine =
        PregelEngine::with_layout(program, PregelConfig::new(spec), Arc::new(layout), states)
            .expect("one state per laid-out vertex");
    engine.run(21).expect("pagerank run");

    let mut ranks: Vec<(u64, f64)> = Vec::with_capacity(g.n_nodes());
    engine.for_each_state(|id, s| ranks.push((id, s.rank)));
    ranks.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop 10 nodes by PageRank (hubs of the power-law graph):");
    let in_deg = g.in_degrees();
    for (id, rank) in ranks.iter().take(10) {
        println!(
            "  node {id:>6}  rank {rank:.6}  in-degree {}",
            in_deg[*id as usize]
        );
    }
    let report = engine.report();
    println!(
        "\n20 iterations, modelled wall {:.2}s, total shuffle {}",
        report.total_wall_secs(),
        inferturbo::common::stats::human_bytes(report.total_bytes() as f64)
    );
}
