//! K-hop neighbourhood extraction — the training-side data flow.
//!
//! The paper trains mini-batch on k-hop neighbourhoods (§II-A): the k-hop
//! subgraph of a root set contains every node within distance `k` along
//! **in**-edges and every edge `(u → v)` whose head `v` lies within distance
//! `k-1`. That edge set is information-complete for a k-layer GNN (AGL's
//! theorem, cited by the paper), so running all `k` layers over the union
//! subgraph yields exactly the full-graph embeddings for the roots.
//!
//! With `fanout = Some(f)` each discovered node keeps at most `f` sampled
//! in-edges — the neighbour-sampling acceleration whose run-to-run
//! instability the paper's Fig. 7 quantifies (and which InferTurbo's
//! full-graph inference eliminates).

use crate::csr::Csr;
use crate::types::Graph;
use inferturbo_common::{FxHashMap, Xoshiro256};

/// An extracted k-hop subgraph with local (dense) node indexing.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// Global node ids; the first `n_roots` entries are the roots in their
    /// original order.
    pub nodes: Vec<u32>,
    pub n_roots: usize,
    /// Edge list in local indices (`src → dst` message direction).
    pub edges_src: Vec<u32>,
    pub edges_dst: Vec<u32>,
}

impl Subgraph {
    /// Extract the (optionally fanout-sampled) k-hop subgraph of `roots`.
    ///
    /// `in_csr` must be [`Csr::in_of`] the same graph. When `fanout` is
    /// `Some(f)`, a node's in-edges are subsampled to `f` using `rng`
    /// (required in that case).
    pub fn extract(
        in_csr: &Csr,
        roots: &[u32],
        k: usize,
        fanout: Option<usize>,
        mut rng: Option<&mut Xoshiro256>,
    ) -> Subgraph {
        assert!(
            fanout.is_none() || rng.is_some(),
            "sampling requires an RNG"
        );
        let mut local: FxHashMap<u32, u32> = FxHashMap::default();
        let mut nodes: Vec<u32> = Vec::with_capacity(roots.len() * 4);
        for &r in roots {
            if let std::collections::hash_map::Entry::Vacant(slot) = local.entry(r) {
                slot.insert(nodes.len() as u32);
                nodes.push(r);
            }
        }
        let n_roots = nodes.len();

        let mut edges_src = Vec::new();
        let mut edges_dst = Vec::new();

        // Frontier of locally-new nodes discovered in the previous hop.
        let mut frontier: Vec<u32> = nodes.clone();
        let mut scratch: Vec<usize> = Vec::new();
        for _hop in 0..k {
            let mut next: Vec<u32> = Vec::new();
            for &v in &frontier {
                let v_local = local[&v];
                let nbrs = in_csr.neighbors(v);
                let take: &[usize] = match (fanout, rng.as_deref_mut()) {
                    // The entry assert pins `fanout.is_some() => rng.is_some()`,
                    // so pairing the options here loses no cases.
                    (Some(f), Some(r)) if nbrs.len() > f => {
                        scratch = r.sample_indices(nbrs.len(), f);
                        &scratch
                    }
                    _ => {
                        scratch.clear();
                        scratch.extend(0..nbrs.len());
                        &scratch
                    }
                };
                for &slot in take {
                    let u = nbrs[slot];
                    let u_local = *local.entry(u).or_insert_with(|| {
                        nodes.push(u);
                        next.push(u);
                        (nodes.len() - 1) as u32
                    });
                    edges_src.push(u_local);
                    edges_dst.push(v_local);
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }

        Subgraph {
            nodes,
            n_roots,
            edges_src,
            edges_dst,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn n_edges(&self) -> usize {
        self.edges_src.len()
    }

    /// Gather node features into a dense row-major buffer
    /// (`n_nodes x feat_dim`) in local node order.
    pub fn gather_features(&self, g: &Graph) -> Vec<f32> {
        let d = g.node_feat_dim();
        let mut out = Vec::with_capacity(self.nodes.len() * d);
        for &v in &self.nodes {
            out.extend_from_slice(g.node_feat(v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::GraphBuilder;

    /// chain: 0 -> 1 -> 2 -> 3 (messages flow toward 3)
    fn chain() -> Graph {
        let mut b = GraphBuilder::new(4, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        for v in 0..4u32 {
            b.set_node_feat(v, &[v as f32]);
        }
        b.build().unwrap()
    }

    #[test]
    fn two_hop_of_chain_tail() {
        let g = chain();
        let in_csr = Csr::in_of(&g);
        let sub = Subgraph::extract(&in_csr, &[3], 2, None, None);
        // distance ≤ 2 along in-edges from 3: {3, 2, 1}
        assert_eq!(sub.nodes, vec![3, 2, 1]);
        assert_eq!(sub.n_roots, 1);
        // edges into nodes at distance ≤ 1: (2->3), (1->2)
        assert_eq!(sub.n_edges(), 2);
        let pairs: Vec<(u32, u32)> = sub
            .edges_src
            .iter()
            .zip(&sub.edges_dst)
            .map(|(&s, &d)| (sub.nodes[s as usize], sub.nodes[d as usize]))
            .collect();
        assert!(pairs.contains(&(2, 3)));
        assert!(pairs.contains(&(1, 2)));
    }

    #[test]
    fn roots_are_deduplicated_but_order_preserved() {
        let g = chain();
        let in_csr = Csr::in_of(&g);
        let sub = Subgraph::extract(&in_csr, &[2, 3, 2], 1, None, None);
        assert_eq!(&sub.nodes[..2], &[2, 3]);
        assert_eq!(sub.n_roots, 2);
    }

    #[test]
    fn zero_hop_is_just_roots() {
        let g = chain();
        let in_csr = Csr::in_of(&g);
        let sub = Subgraph::extract(&in_csr, &[1, 3], 0, None, None);
        assert_eq!(sub.nodes, vec![1, 3]);
        assert_eq!(sub.n_edges(), 0);
    }

    #[test]
    fn features_gathered_in_local_order() {
        let g = chain();
        let in_csr = Csr::in_of(&g);
        let sub = Subgraph::extract(&in_csr, &[3], 2, None, None);
        assert_eq!(sub.gather_features(&g), vec![3.0, 2.0, 1.0]);
    }

    /// star: many spokes -> hub (node 0)
    fn star(spokes: usize) -> Graph {
        let mut b = GraphBuilder::new(spokes + 1, 0);
        for s in 1..=spokes as u32 {
            b.add_edge(s, 0);
        }
        b.build().unwrap()
    }

    #[test]
    fn fanout_caps_neighbours() {
        let g = star(100);
        let in_csr = Csr::in_of(&g);
        let mut rng = Xoshiro256::seed_from_u64(1);
        let sub = Subgraph::extract(&in_csr, &[0], 1, Some(10), Some(&mut rng));
        assert_eq!(sub.n_edges(), 10);
        assert_eq!(sub.n_nodes(), 11);
        // full extraction grabs everything
        let full = Subgraph::extract(&in_csr, &[0], 1, None, None);
        assert_eq!(full.n_edges(), 100);
    }

    #[test]
    fn sampling_is_seed_dependent() {
        let g = star(100);
        let in_csr = Csr::in_of(&g);
        let mut r1 = Xoshiro256::seed_from_u64(1);
        let mut r2 = Xoshiro256::seed_from_u64(2);
        let s1 = Subgraph::extract(&in_csr, &[0], 1, Some(5), Some(&mut r1));
        let s2 = Subgraph::extract(&in_csr, &[0], 1, Some(5), Some(&mut r2));
        let mut n1 = s1.nodes.clone();
        let mut n2 = s2.nodes.clone();
        n1.sort_unstable();
        n2.sort_unstable();
        assert_ne!(n1, n2, "different seeds should sample different spokes");
        // same seed reproduces exactly
        let mut r1b = Xoshiro256::seed_from_u64(1);
        let s1b = Subgraph::extract(&in_csr, &[0], 1, Some(5), Some(&mut r1b));
        assert_eq!(s1.nodes, s1b.nodes);
    }
}
