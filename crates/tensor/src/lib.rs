//! Dense tensor substrate for InferTurbo.
//!
//! The paper trains GNNs mini-batch on k-hop neighbourhoods with TensorFlow
//! and then runs the *same* computation flow layer-wise at inference time.
//! This crate supplies the training half from scratch:
//!
//! - [`matrix`] — a row-major `f32` matrix with the kernels GNNs need
//!   (GEMM, segment-sum/mean/max over edge→node indices, segment softmax);
//! - [`autograd`] — a tape-based reverse-mode automatic differentiation
//!   engine over those kernels, sufficient to train GCN / GraphSAGE / GAT;
//! - [`nn`] — parameter initialisation and activation functions;
//! - [`optim`] — Adam over a named [`optim::ParamSet`];
//! - [`loss`] — masked softmax cross-entropy (single-label) and masked
//!   binary cross-entropy with logits (multi-label, for the PPI-like task),
//!   plus the evaluation metrics the paper reports (accuracy, micro-F1).
//!
//! Inference backends do **not** depend on the tape: they use the plain
//! [`matrix::Matrix`] kernels, which keeps the inference path allocation-lean
//! and mirrors the paper's separation between training and inference data
//! flows.

#![forbid(unsafe_code)]

pub mod autograd;
pub mod loss;
pub mod matrix;
pub mod nn;
pub mod optim;

pub use autograd::{Tape, Var};
pub use matrix::{row_axpy, row_matvec_acc, row_max, Matrix};
pub use nn::{Activation, Init};
pub use optim::{Adam, Optimizer};
