//! Graph substrate: storage, adjacency indexes, partitioning, synthetic
//! dataset generators, and k-hop neighbourhood extraction.
//!
//! The paper's preliminaries (§II-A) define the graph model this crate
//! implements: a directed, weighted, attributed graph `G = {V, E, X, E}`
//! with node features, optional edge features, and labels on a (small)
//! training subset. Messages flow along edge direction (`src → dst`), so a
//! node *gathers* over its in-edges and *scatters* over its out-edges —
//! every API here is explicit about which adjacency it exposes.
//!
//! Because the paper's datasets are proprietary or too large for a
//! single-machine reproduction (MAG240M, the 10¹⁰-node Power-Law graph),
//! [`datasets`] generates synthetic stand-ins with matched shape statistics
//! and a planted generative model that GNNs genuinely learn; see DESIGN.md
//! for the substitution argument.

#![forbid(unsafe_code)]

pub mod csr;
pub mod datasets;
pub mod gen;
pub mod khop;
pub mod partition;
pub mod types;

pub use csr::Csr;
pub use datasets::{Dataset, Split};
pub use khop::Subgraph;
pub use partition::{HashPartitioner, ModPartitioner, Partitioner};
pub use types::{Graph, GraphBuilder, Labels};
