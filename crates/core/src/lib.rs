//! # InferTurbo core
//!
//! The paper's contribution: a GAS-like abstraction that unifies mini-batch
//! GNN **training** with layer-wise full-graph **inference**, deployable on
//! either a Pregel-style graph-processing backend or a MapReduce-style batch
//! backend, with three sampling-free strategies for power-law graphs.
//!
//! Module map (paper section in parentheses):
//!
//! - [`gas`] (§IV-B) — the five-stage abstraction: `gather_nbrs` /
//!   `aggregate` / `apply_node` / `apply_edge` / `scatter_nbrs`, with
//!   [`gas::LayerAnnotations`] encoding the commutative/associative
//!   `partial` contract and message uniformity;
//! - [`models`] (§II-B, Fig. 3) — GCN, GraphSAGE and GAT expressed in the
//!   abstraction, with a shared parameter store driving both the training
//!   tape and the per-vertex inference kernels;
//! - [`signature`] (§IV-B-1) — layer-wise model signatures: weights plus
//!   annotations exported at save time so the inference backends can
//!   re-assemble the computation flow without manual configuration;
//! - [`mod@train`] (§IV-B-1) — mini-batch training on (optionally sampled)
//!   k-hop neighbourhoods;
//! - [`session`] / [`plan`] — the plan → execute pipeline: a
//!   [`SessionBuilder`] turns one-time planning work (records, hub sets,
//!   cost estimate, backend auto-selection) into a reusable
//!   [`InferencePlan`] whose repeated runs skip all of it;
//! - [`infer`] (§IV-C) — full-graph inference execution for the Pregel and
//!   MapReduce backends plus a single-machine reference implementation;
//! - [`strategy`] (§IV-D) — partial-gather, broadcast and shadow-nodes,
//!   with the `λ·|E|/workers` activation threshold;
//! - [`baseline`] (§V-B) — the traditional k-hop inference pipeline
//!   (PyG/DGL-style) in both measured and estimated modes;
//! - [`consistency`] (§V-B, Fig. 7) — the multi-run prediction-stability
//!   audit.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod consistency;
pub mod gas;
pub mod infer;
pub mod models;
pub mod plan;
pub mod session;
pub mod signature;
pub mod strategy;
pub mod train;

pub use gas::{AggState, EdgeCtx, GasLayer, GnnMessage, LayerAnnotations, NodeCtx};
pub use infer::{infer_reference, InferenceOutput};
pub use inferturbo_cluster::{InProcess, Transport, WorkerProcess};
pub use models::{GnnModel, LayerKind, PoolOp};
pub use plan::{InferencePlan, PlanSummary};
pub use session::{Backend, InferenceSession, SessionBuilder};
pub use strategy::{StrategyConfig, StrategyKey};
pub use train::{train, TrainConfig, TrainStats};
