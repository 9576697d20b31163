//! Compressed sparse row adjacency over a [`crate::types::Graph`].
//!
//! Both orientations matter: the Gather stage walks **in**-edges, the
//! Scatter stage walks **out**-edges. `Csr::out_of` groups by source;
//! `Csr::in_of` groups by destination. Within a node, neighbours keep the
//! graph's edge insertion order (the grouping is a stable counting sort).

use crate::types::Graph;
use inferturbo_common::group::group_by_key;

/// One adjacency orientation in CSR form.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u32>,
    /// Neighbour node id per slot.
    targets: Vec<u32>,
}

impl Csr {
    fn group_by(n_nodes: usize, keys: &[u32], values: &[u32]) -> Csr {
        debug_assert_eq!(keys.len(), values.len());
        // The shared counting sort builds offsets with no cloned cursor
        // array; its `order` permutation is the original edge index per
        // slot, needed only to read each slot's neighbour.
        let (order, offsets) = group_by_key(keys, n_nodes);
        let targets: Vec<u32> = order.iter().map(|&e| values[e as usize]).collect();
        Csr { offsets, targets }
    }

    /// Group by source: `neighbors(v)` are the heads of `v`'s out-edges.
    pub fn out_of(g: &Graph) -> Csr {
        Csr::group_by(g.n_nodes(), g.src(), g.dst())
    }

    /// Group by destination: `neighbors(v)` are the tails of `v`'s in-edges.
    pub fn in_of(g: &Graph) -> Csr {
        Csr::group_by(g.n_nodes(), g.dst(), g.src())
    }

    /// Number of nodes indexed.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total adjacency slots (== edge count of the underlying graph).
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    /// Degree of `v` in this orientation.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbour ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::GraphBuilder;

    fn sample() -> Graph {
        // edges: 0->1 (e0), 0->2 (e1), 2->1 (e2), 1->0 (e3), 2->0 (e4)
        let mut b = GraphBuilder::new(3, 0);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(2, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 0);
        b.build().unwrap()
    }

    #[test]
    fn out_adjacency() {
        let g = sample();
        let out = Csr::out_of(&g);
        assert_eq!(out.n_nodes(), 3);
        assert_eq!(out.n_edges(), 5);
        assert_eq!(out.neighbors(0), &[1, 2]);
        assert_eq!(out.neighbors(1), &[0]);
        assert_eq!(out.neighbors(2), &[1, 0]);
        assert_eq!(out.degree(0), 2);
    }

    #[test]
    fn in_adjacency() {
        let g = sample();
        let inc = Csr::in_of(&g);
        assert_eq!(inc.neighbors(0), &[1, 2]); // from edges e3, e4
        assert_eq!(inc.neighbors(1), &[0, 2]); // e0, e2
        assert_eq!(inc.neighbors(2), &[0]); // e1
        assert_eq!(inc.degree(1), 2);
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let b = GraphBuilder::new(3, 0);
        let g = b.build().unwrap();
        let out = Csr::out_of(&g);
        for v in 0..3 {
            assert_eq!(out.neighbors(v), &[] as &[u32]);
            assert_eq!(out.degree(v), 0);
        }
    }

    #[test]
    fn csr_conserves_edges() {
        let g = sample();
        let out = Csr::out_of(&g);
        let inc = Csr::in_of(&g);
        let total_out: u32 = (0..3).map(|v| out.degree(v)).sum();
        let total_in: u32 = (0..3).map(|v| inc.degree(v)).sum();
        assert_eq!(total_out as usize, g.n_edges());
        assert_eq!(total_in as usize, g.n_edges());
    }
}
