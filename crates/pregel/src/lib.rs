//! Pregel-style BSP graph-processing engine.
//!
//! A faithful, from-scratch implementation of the "think-like-a-vertex"
//! model the paper builds its first backend on (§IV-C-1): a graph is laid
//! out once ([`PregelLayout::planned`]), an engine is built over that
//! layout ([`PregelEngine::with_layout`]), vertices hold state, a superstep
//! delivers last round's messages — typed and columnar — to each vertex's
//! one kernel ([`VertexProgram::compute`]) as its [`Inbox`], outgoing
//! messages are routed by a partitioner, an optional
//! **fused aggregator** folds fixed-width rows destined for the same vertex
//! on the sender side (the mechanism behind the paper's partial-gather
//! strategy), and a **broadcast** primitive delivers one payload per worker
//! (the mechanism behind the broadcast strategy for large out-degree hubs).
//!
//! The engine executes workers in-process but partitions state and accounts
//! network bytes exactly as a distributed deployment would: a message
//! between vertices on the same worker is free; a remote message costs its
//! wire-format size (see `inferturbo_common::codec`) on both the sending
//! and receiving worker. Per-worker memory residency (state + inbox) is
//! checked against the cluster spec's cap each superstep, so OOM is a
//! first-class, catchable outcome.
//!
//! General graph algorithms fit the same API — the test suite runs PageRank
//! and SSSP to demonstrate the engine is not GNN-specific, mirroring the
//! paper's lineage from graph-processing systems. A program that addresses
//! messages by vertex id rather than by planned route lays its vertices
//! out with empty target lists and sends with `Outbox::send` / `send_row`.

#![forbid(unsafe_code)]

pub mod engine;
pub mod layout;
pub mod vertex;

pub use engine::{PregelConfig, PregelEngine, ScratchPool};
pub use layout::{PlacedVertex, PregelLayout, Route};
pub use vertex::{
    ActivationPolicy, BroadcastLookup, FusedAggregator, Inbox, LentRows, MessageLayout, Outbox,
    RowsIn, VertexProgram,
};
