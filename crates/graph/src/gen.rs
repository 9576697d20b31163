//! Synthetic graph generators.
//!
//! Two jobs:
//!
//! 1. **Planted-model attributed graphs** that GNNs genuinely learn: nodes
//!    get a latent class, features are a noisy class centroid, and edges
//!    prefer same-class endpoints (homophily). Neighbourhood aggregation
//!    then denoises the features, so a trained GNN beats a featureless
//!    guess and Table II is a real measurement rather than theatre.
//! 2. **Power-law degree sequences** (paper §V-A): the skewed endpoint of
//!    every edge is drawn from a bounded Zipf over node ranks, giving the
//!    hub-dominated graphs that drive the straggler/IO experiments. The
//!    skew can be placed on in-degree or out-degree independently, which
//!    the paper needs "for variable-controlling purposes".

use crate::types::{Graph, GraphBuilder, Labels};
use inferturbo_common::Xoshiro256;

/// Which endpoint of each generated edge follows the Zipf distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeSkew {
    /// Hubs accumulate **in**-edges (drives the partial-gather ablations).
    In,
    /// Hubs accumulate **out**-edges (drives broadcast / shadow-nodes).
    Out,
    /// Both endpoints uniform (Erdős–Rényi-like control).
    None,
}

/// Full generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    pub n_nodes: usize,
    pub n_edges: usize,
    /// Zipf exponent for the skewed endpoint; ~1.1–1.3 reproduces the
    /// "few hubs, long tail" shape of natural graphs.
    pub alpha: f64,
    pub skew: DegreeSkew,
    pub feat_dim: usize,
    /// Latent classes for the planted model.
    pub classes: u32,
    /// Probability that an edge's non-skewed endpoint is drawn from the
    /// same latent class (homophily). 0.0 disables community structure.
    pub homophily: f64,
    /// Feature signal-to-noise: features = signal·centroid + noise·N(0,1).
    pub signal: f32,
    pub noise: f32,
    /// Multi-label output: if `Some(l)`, emit `l` binary labels derived
    /// from the latent class instead of the class itself.
    pub multilabel: Option<u32>,
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            n_nodes: 1000,
            n_edges: 5000,
            alpha: 1.1,
            skew: DegreeSkew::In,
            feat_dim: 16,
            classes: 4,
            homophily: 0.7,
            signal: 1.0,
            noise: 1.0,
            multilabel: None,
            seed: 0,
        }
    }
}

/// Latent class of node `v` under the round-robin planted assignment.
///
/// Keeping the assignment arithmetic (rather than stored) lets the edge
/// generator draw same-class partners in O(1) without per-class node lists.
#[inline]
pub fn planted_class(v: u32, classes: u32) -> u32 {
    v % classes
}

/// Draw a uniform node of class `c` (requires `classes <= n_nodes`).
#[inline]
fn random_node_of_class(rng: &mut Xoshiro256, n_nodes: usize, classes: u32, c: u32) -> u32 {
    let per_class = (n_nodes as u64 - c as u64).div_ceil(classes as u64);
    let k = rng.below(per_class);
    (c as u64 + k * classes as u64) as u32
}

/// Generate a planted-model graph per `cfg`. Deterministic in `cfg.seed`.
#[expect(
    clippy::expect_used,
    reason = "synthetic output is valid by construction — a build failure here is a bug in the generator itself, not caller input"
)]
pub fn generate(cfg: &GenConfig) -> Graph {
    assert!(cfg.n_nodes > 1, "need at least two nodes");
    assert!(cfg.classes >= 1 && (cfg.classes as usize) <= cfg.n_nodes);
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let mut feat_rng = rng.fork(1);
    let mut edge_rng = rng.fork(2);
    let mut label_rng = rng.fork(3);

    let mut b = GraphBuilder::new(cfg.n_nodes, cfg.feat_dim);
    b.reserve_edges(cfg.n_edges);

    // -- features: signal * centroid(class) + noise * N(0,1) --------------
    // Centroids are random ±1 sign patterns: cheap, well separated, and
    // dimension-independent.
    let mut centroids = vec![0.0f32; cfg.classes as usize * cfg.feat_dim];
    for x in &mut centroids {
        *x = if feat_rng.chance(0.5) { 1.0 } else { -1.0 };
    }
    for v in 0..cfg.n_nodes as u32 {
        let c = planted_class(v, cfg.classes) as usize;
        let row = b.node_feat_mut(v);
        for (j, x) in row.iter_mut().enumerate() {
            *x = cfg.signal * centroids[c * cfg.feat_dim + j]
                + cfg.noise * feat_rng.gaussian_f32(0.0, 1.0);
        }
    }

    // -- edges --------------------------------------------------------------
    let n = cfg.n_nodes as u64;
    for _ in 0..cfg.n_edges {
        let hub = match cfg.skew {
            DegreeSkew::None => edge_rng.below(n) as u32,
            _ => edge_rng.zipf(n, cfg.alpha) as u32,
        };
        let partner_class = if cfg.homophily > 0.0 && edge_rng.chance(cfg.homophily) {
            planted_class(hub, cfg.classes)
        } else {
            edge_rng.below(cfg.classes as u64) as u32
        };
        let mut partner =
            random_node_of_class(&mut edge_rng, cfg.n_nodes, cfg.classes, partner_class);
        // Avoid self-loops with a couple of retries; give up gracefully on
        // pathological configs (1-node classes) by shifting.
        let mut tries = 0;
        while partner == hub && tries < 4 {
            partner = random_node_of_class(&mut edge_rng, cfg.n_nodes, cfg.classes, partner_class);
            tries += 1;
        }
        if partner == hub {
            partner = (hub + 1) % cfg.n_nodes as u32;
        }
        let (src, dst) = match cfg.skew {
            DegreeSkew::In => (partner, hub),  // hub collects in-edges
            DegreeSkew::Out => (hub, partner), // hub sprays out-edges
            DegreeSkew::None => (hub, partner),
        };
        b.add_edge(src, dst);
    }

    // -- labels ---------------------------------------------------------------
    let labels = match cfg.multilabel {
        None => Labels::Single {
            classes: cfg.classes,
            y: (0..cfg.n_nodes as u32)
                .map(|v| planted_class(v, cfg.classes))
                .collect(),
        },
        Some(l) => {
            // Each latent class owns a random bitmap over `l` labels; nodes
            // inherit their class bitmap with a small per-node flip rate, so
            // the multi-label task is learnable but not trivially so.
            let mut class_bitmaps = vec![0u8; cfg.classes as usize * l as usize];
            for x in &mut class_bitmaps {
                *x = label_rng.chance(0.3) as u8;
            }
            let mut y = vec![0u8; cfg.n_nodes * l as usize];
            for v in 0..cfg.n_nodes {
                let c = planted_class(v as u32, cfg.classes) as usize;
                for j in 0..l as usize {
                    let mut bit = class_bitmaps[c * l as usize + j];
                    if label_rng.chance(0.02) {
                        bit ^= 1;
                    }
                    y[v * l as usize + j] = bit;
                }
            }
            Labels::Multi { classes: l, y }
        }
    };
    b.set_labels(labels);

    b.build().expect("generator produced invalid graph")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let g1 = generate(&cfg);
        let g2 = generate(&cfg);
        assert_eq!(g1.src(), g2.src());
        assert_eq!(g1.dst(), g2.dst());
        assert_eq!(g1.node_feat(17), g2.node_feat(17));
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = generate(&GenConfig::default());
        let g2 = generate(&GenConfig {
            seed: 99,
            ..GenConfig::default()
        });
        assert_ne!(g1.src(), g2.src());
    }

    #[test]
    fn shape_matches_config() {
        let cfg = GenConfig {
            n_nodes: 500,
            n_edges: 2500,
            feat_dim: 8,
            ..GenConfig::default()
        };
        let g = generate(&cfg);
        assert_eq!(g.n_nodes(), 500);
        assert_eq!(g.n_edges(), 2500);
        assert_eq!(g.node_feat_dim(), 8);
        g.validate().unwrap();
    }

    #[test]
    fn in_skew_concentrates_in_degree() {
        let cfg = GenConfig {
            n_nodes: 5000,
            n_edges: 50_000,
            alpha: 1.2,
            skew: DegreeSkew::In,
            homophily: 0.0,
            ..GenConfig::default()
        };
        let g = generate(&cfg);
        let (max_in, max_out) = g.max_degrees();
        // The hubbiest receiver should dwarf the hubbiest sender.
        assert!(
            max_in > 4 * max_out,
            "max_in {max_in} should dominate max_out {max_out}"
        );
    }

    #[test]
    fn out_skew_concentrates_out_degree() {
        let cfg = GenConfig {
            n_nodes: 5000,
            n_edges: 50_000,
            alpha: 1.2,
            skew: DegreeSkew::Out,
            homophily: 0.0,
            ..GenConfig::default()
        };
        let g = generate(&cfg);
        let (max_in, max_out) = g.max_degrees();
        assert!(
            max_out > 4 * max_in,
            "max_out {max_out} should dominate max_in {max_in}"
        );
    }

    #[test]
    fn no_skew_is_balanced() {
        let cfg = GenConfig {
            n_nodes: 5000,
            n_edges: 50_000,
            skew: DegreeSkew::None,
            homophily: 0.0,
            ..GenConfig::default()
        };
        let g = generate(&cfg);
        let (max_in, max_out) = g.max_degrees();
        // Poisson-ish max degrees for mean 10: both small and similar.
        assert!(max_in < 60 && max_out < 60, "{max_in} {max_out}");
    }

    #[test]
    fn no_self_loops() {
        let g = generate(&GenConfig {
            n_nodes: 200,
            n_edges: 5000,
            ..GenConfig::default()
        });
        assert!(g.src().iter().zip(g.dst()).all(|(s, d)| s != d));
    }

    #[test]
    fn homophily_biases_edge_classes() {
        let mk = |h: f64| {
            let g = generate(&GenConfig {
                n_nodes: 4000,
                n_edges: 40_000,
                homophily: h,
                classes: 4,
                ..GenConfig::default()
            });
            let same = g
                .src()
                .iter()
                .zip(g.dst())
                .filter(|(&s, &d)| planted_class(s, 4) == planted_class(d, 4))
                .count();
            same as f64 / g.n_edges() as f64
        };
        let high = mk(0.9);
        let low = mk(0.0);
        assert!(high > 0.8, "high homophily fraction {high}");
        assert!(low < 0.4, "no-homophily fraction {low}");
    }

    #[test]
    fn features_carry_class_signal() {
        let cfg = GenConfig {
            n_nodes: 2000,
            n_edges: 2000,
            classes: 2,
            signal: 1.0,
            noise: 0.5,
            feat_dim: 32,
            ..GenConfig::default()
        };
        let g = generate(&cfg);
        // Mean feature vectors of the two classes should be far apart
        // relative to noise.
        let mut mean0 = vec![0.0f64; 32];
        let mut mean1 = vec![0.0f64; 32];
        let (mut n0, mut n1) = (0usize, 0usize);
        for v in 0..2000u32 {
            let f = g.node_feat(v);
            if planted_class(v, 2) == 0 {
                n0 += 1;
                for (m, &x) in mean0.iter_mut().zip(f) {
                    *m += x as f64;
                }
            } else {
                n1 += 1;
                for (m, &x) in mean1.iter_mut().zip(f) {
                    *m += x as f64;
                }
            }
        }
        let dist: f64 = mean0
            .iter()
            .zip(&mean1)
            .map(|(a, b)| {
                let d = a / n0 as f64 - b / n1 as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt();
        assert!(dist > 3.0, "class centroid distance {dist}");
    }

    #[test]
    fn multilabel_generation() {
        let cfg = GenConfig {
            n_nodes: 300,
            n_edges: 900,
            classes: 5,
            multilabel: Some(20),
            ..GenConfig::default()
        };
        let g = generate(&cfg);
        assert!(g.labels().is_multilabel());
        assert_eq!(g.labels().num_classes(), 20);
        // some labels must be positive somewhere
        let total: f32 = (0..300u32)
            .map(|v| g.labels().multilabel_row(v).iter().sum::<f32>())
            .sum();
        assert!(total > 0.0);
    }
}
