//! MapReduce-style batch engine — the paper's second backend (§IV-C-2).
//!
//! A chain of *phases* moves keyed records between workers over one
//! [`inferturbo_common::Layout`], the plan's placement of every vertex:
//!
//! - [`BatchEngine::map_phase`] turns round-robin input splits into routed
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
//! footprint, elastic workers). The layout is read-only plan data, like
//! the graph. The memory model follows suit: a reducer streams its groups
//! from external storage, so its modelled peak memory is the *largest
//! single group* plus the sink's fused accumulators, not the whole
//! partition. A hub node whose in-edge group outgrows the worker's RAM is
//! therefore an OOM — precisely the failure the partial-gather strategy
//! prevents.
//!
//! Combining: a phase given a fold (`AggKind`) folds rows bound for one
//! destination slot into one partial as its kernels emit them, before
//! they are counted as shuffle output (Hadoop-style in-mapper combining),
//! implementing the paper's partial-gather on this backend; the partials
//! that land on a reducer fold with the same fold, in arrival order
//! (reduce-side combining), so its kernel sees one row per key. Both
//! halves are the Pregel backend's: the two engines shuffle their rows
//! through one barrier, `inferturbo_cluster::barrier::RowBarrier`.
//!
//! Within one process the shuffle copies no row on the way: a row stays
//! where its task wrote it until the reducer reads it. Given the plan's
//! counts ([`Sizes`]), every buffer is reserved exactly. See the
//! [`engine`] module docs for the execution model and the two shuffle
//! planes.

#![forbid(unsafe_code)]

pub mod engine;

pub use engine::{BatchEngine, KeyedData, KeyedRows, PhaseCtx, RowSink, Shuffled, Sizes};
pub use inferturbo_cluster::transport::RowsIn;
