//! MapReduce-style batch engine — the paper's second backend (§IV-C-2).
//!
//! A chain of *phases* moves keyed records between workers:
//!
//! - [`BatchEngine::map_phase`] turns partitioned input records into routed
//!   `(key, value)` pairs and fixed-width rows (the paper's Map step:
//!   initial embeddings fanned out to out-edge neighbours plus
//!   self-messages);
//! - [`BatchEngine::reduce_phase`] groups each worker's pairs and rows by
//!   key, runs the reduce kernel per group (one GNN layer), and routes what
//!   it emits onward for the next round.
//!
//! Unlike the Pregel backend, **no state lives in worker memory between
//! phases**: everything — node state, out-edge tables, intermediate
//! embeddings — travels through the shuffle as messages, which is exactly
//! the trade-off the paper describes (more bytes moved, far smaller memory
//! footprint, elastic workers). The memory model follows suit: a reducer
//! streams its groups from external storage, so its modelled peak memory is
//! the *largest single group* plus the sink's fused accumulators, not the
//! whole partition. A hub node whose in-edge group outgrows the worker's RAM is
//! therefore an OOM — precisely the failure the partial-gather strategy
//! prevents.
//!
//! Combining: a phase given a `FusedAggregator` folds same-key rows into
//! per-key accumulators as its kernels emit them, before they are counted
//! as shuffle output (Hadoop-style in-mapper combining), implementing the
//! paper's partial-gather on this backend. The consuming reducer folds the
//! partials that land on it with the same aggregator, in arrival order
//! (reduce-side combining), so its kernel sees one row per key.
//!
//! Within one process the shuffle copies no row: rows stay in the spool
//! their task wrote, and a reducer reads them by index. See the
//! [`engine`] module docs for the execution model and the two shuffle
//! planes.

#![forbid(unsafe_code)]

pub mod engine;

pub use engine::{BatchEngine, KeyedData, KeyedRows, PhaseCtx, RowSink, RowsView};
