//! Pregel-style BSP graph-processing engine.
//!
//! A faithful, from-scratch implementation of the "think-like-a-vertex"
//! model the paper builds its first backend on (§IV-C-1): vertices hold
//! state, a superstep delivers last round's messages to each vertex's
//! `compute`, outgoing messages are routed by a partitioner, an optional
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
//! paper's lineage from graph-processing systems.

pub mod engine;
pub mod layout;
pub mod vertex;

pub use engine::{PregelConfig, PregelEngine, ScratchPool};
pub use layout::{PlacedVertex, PregelLayout, Route};
pub use vertex::{
    ActivationPolicy, BroadcastLookup, FusedAggregator, MessageLayout, Outbox, RowsIn,
    VertexProgram,
};
