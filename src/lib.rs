//! # inferturbo
//!
//! Umbrella crate for the InferTurbo reproduction: a scalable full-graph GNN
//! inference system in the spirit of *"InferTurbo: A Scalable System for
//! Boosting Full-graph Inference of Graph Neural Network over Huge Graphs"*
//! (ICDE 2023).
//!
//! This crate re-exports the public API of every subsystem so that examples
//! and downstream users need a single dependency:
//!
//! - [`common`] — deterministic RNG, hashing, wire codec;
//! - [`tensor`] — dense kernels, tape autograd, NN layers for training;
//! - [`graph`] — graph storage, partitioning, generators, datasets;
//! - [`cluster`] — the simulated distributed runtime and cost model;
//! - [`batch`] — the MapReduce backend engine;
//! - [`pregel`] — the Pregel backend engine;
//! - [`core`] — the GAS abstraction, GNN models, training and the
//!   full-graph inference drivers (the paper's contribution);
//! - [`serve`] — the batching, admission-controlled serving layer over
//!   inference sessions (plan caching, micro-batching, fleet-wide memory
//!   admission);
//! - [`obs`] — the deterministic flight recorder: structured event
//!   tracing (byte-identical at every thread count and across recovery
//!   replays) and the metrics registry behind the plan and server
//!   reports.

#![forbid(unsafe_code)]

pub use inferturbo_batch as batch;
pub use inferturbo_cluster as cluster;
pub use inferturbo_common as common;
pub use inferturbo_core as core;
pub use inferturbo_graph as graph;
pub use inferturbo_obs as obs;
pub use inferturbo_pregel as pregel;
pub use inferturbo_serve as serve;
pub use inferturbo_tensor as tensor;
