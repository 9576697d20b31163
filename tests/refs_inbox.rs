//! The materialized row plane's delivery contract, held by an engine whose
//! in-process inboxes are references into the senders' row tables.
//!
//! A sender writes each spooled row once into its row table; in process
//! every edge carries only a `(slot, table row)` reference, and a
//! byte-moving transport gets the rows packed at the boundary. Whichever
//! way a row travels — and whether the sealed inbox lends it from a table,
//! from a flat buffer that came back over the wire, or through a spill
//! window — a slot must see exactly the rows a serial sender loop would
//! hand it: senders ascending (worker, then slot), each sender's calls in
//! call order, each call's routes in order.

use std::sync::Arc;

mod common;
use common::worker_bin;

use inferturbo::cluster::{ClusterSpec, InProcess, Transport, WorkerProcess};
use inferturbo::common::layout::{Layout, Route};
use inferturbo::common::rows::SpillPolicy;
use inferturbo::common::{Parallelism, Result};
use inferturbo::pregel::{
    Inbox, MessageLayout, Outbox, PregelConfig, PregelEngine, RowsIn, VertexProgram,
};

const N: u64 = 24;
const DIM: usize = 4;

/// Vertex `v`'s out-targets, in edge order: a repeated target, a
/// self-edge, and enough spread that a worker receives several of them.
fn targets(v: u64) -> Vec<u64> {
    match v % 6 {
        5 => Vec::new(),
        _ => vec![(v + 1) % N, (v + 5) % N, (v + 1) % N, (v * 7 + 3) % N, v],
    }
}

/// The `k`-th distinct row vertex `v` sends.
fn row(v: u64, k: u64) -> [f32; DIM] {
    [
        (v * 10 + k) as f32,
        -(v as f32),
        k as f32 * 0.5,
        1.0 / (v + 1) as f32,
    ]
}

/// Step 0 mixes both row sends: one row fanned out over every out-edge,
/// then a second and a third row to the first target — by id, then by
/// route. Step 1 records every row a vertex was lent, in order.
struct Sender;

#[derive(Clone)]
struct Slot {
    edges: Vec<Route>,
    targets: Vec<u64>,
    got: Vec<Vec<u32>>,
}

impl VertexProgram for Sender {
    type State = Slot;
    type Msg = f32;

    fn compute(
        &self,
        step: usize,
        vertex: u64,
        state: &mut Slot,
        inbox: Inbox<'_, f32>,
        out: &mut Outbox<f32>,
    ) -> Result<()> {
        if step == 1 {
            if let RowsIn::Rows(rows) = inbox.rows {
                state.got = rows
                    .iter()
                    .map(|r| r.iter().map(|x| x.to_bits()).collect())
                    .collect();
            }
            return Ok(());
        }
        let Some(&first) = state.targets.first() else {
            return Ok(());
        };
        out.scatter_row(&state.edges, &row(vertex, 0));
        out.send_row(first, &row(vertex, 1));
        out.scatter_row(&state.edges[..1], &row(vertex, 2));
        Ok(())
    }

    fn message_layout(&self, step: usize) -> Option<MessageLayout> {
        (step == 0).then_some(MessageLayout { dim: DIM })
    }
}

fn layout(workers: usize) -> Layout {
    let adjacency: Vec<Vec<u64>> = (0..N).map(targets).collect();
    let ids = adjacency
        .iter()
        .enumerate()
        .map(|(v, t)| (v as u64, &t[..]));
    Layout::planned(workers, ids).expect("layout")
}

/// Per vertex, the rows a serial sender loop delivers: senders by worker
/// ascending, slot order within a worker, each compute's sends in call
/// order.
fn oracle(layout: &Layout) -> Vec<Vec<Vec<u32>>> {
    let mut want = vec![Vec::new(); N as usize];
    let bits = |r: [f32; DIM]| r.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for w in 0..layout.n_workers() {
        for &v in layout.ids(w) {
            let targets = targets(v);
            let Some(&first) = targets.first() else {
                continue;
            };
            for &t in &targets {
                want[t as usize].push(bits(row(v, 0)));
            }
            want[first as usize].push(bits(row(v, 1)));
            want[first as usize].push(bits(row(v, 2)));
        }
    }
    want
}

#[test]
fn every_slot_is_lent_the_serial_oracles_rows() {
    let local: Arc<dyn Transport> = Arc::new(InProcess);
    let procs: Arc<dyn Transport> = Arc::new(WorkerProcess::with_bin(worker_bin()));
    let dir = std::env::temp_dir().join("inferturbo-refs-inbox-tests");
    for workers in [1usize, 3, 4] {
        let layout = Arc::new(layout(workers));
        let want = oracle(&layout);
        for spill in [None, Some(SpillPolicy::new(&dir, 16))] {
            for (tname, transport) in [("in-process", &local), ("process", &procs)] {
                for threads in [1usize, 2, 4] {
                    let how = format!(
                        "{workers} workers, {tname}, {threads} threads, spill {}",
                        spill.is_some()
                    );
                    let config = PregelConfig::new(ClusterSpec::test_spec(workers))
                        .with_spill(spill.clone())
                        .with_transport(Arc::clone(transport));
                    let states = layout.vertices().map(|v| Slot {
                        edges: v.edges.to_vec(),
                        targets: targets(v.id),
                        got: Vec::new(),
                    });
                    let mut engine =
                        PregelEngine::with_layout(Sender, config, Arc::clone(&layout), states)
                            .expect("engine");
                    Parallelism::with(threads, || engine.run(2)).expect("run");
                    let mut got = vec![Vec::new(); N as usize];
                    let report = engine.finish(|id, s| got[id as usize] = s.got);
                    for v in 0..N as usize {
                        assert_eq!(got[v], want[v], "vertex {v}: {how}");
                    }
                    assert_eq!(report.spilled_bytes > 0, spill.is_some(), "{how}");
                    assert_eq!(report.wire_bytes > 0, tname == "process", "{how}");
                }
            }
        }
    }
}
