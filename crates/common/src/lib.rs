//! Shared primitives for the InferTurbo workspace.
//!
//! This crate deliberately has no heavyweight dependencies: the deterministic
//! RNG, the hasher, and the wire codec live here so that every other crate —
//! engines, graph generators, inference backends — agrees on byte layouts and
//! random sequences. Determinism is a core requirement of the reproduction:
//! the paper's headline consistency guarantee ("the same prediction at every
//! run") is only testable if the rest of the system is bit-reproducible too.

#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod group;
pub mod hash;
pub mod layout;
pub mod par;
pub mod rng;
pub mod rows;
pub mod stats;

pub use codec::{Decode, Encode, WireReader, WireWriter};
pub use error::{Error, Result};
pub use hash::{FxBuildHasher, FxHashMap};
pub use layout::{CellCounts, Layout, PlacedVertex, Route};
pub use par::{
    par_chunks_mut, par_map, par_map_workers, Parallelism, ReorderBuffer, Ticket, TicketLine,
};
pub use rng::{SplitMix64, Xoshiro256};
pub use rows::{AggKind, FusedAggregator, MessageLayout, SpillPolicy, SpillableRows};
