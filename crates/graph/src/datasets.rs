//! Synthetic stand-ins for the paper's four evaluation datasets (Table I).
//!
//! | paper dataset | paper size            | stand-in size (scale)    |
//! |---------------|-----------------------|--------------------------|
//! | PPI           | 57k nodes / 819k edges| 5.7k / 82k   (~1/10)     |
//! | OGB-Products  | 2.4M / 61.9M          | 24k / 619k   (~1/100)    |
//! | MAG240M (used)| 1.2·10⁸ / 2.6·10⁹     | 120k / 2.6M  (~1/1000)   |
//! | Power-Law     | up to 10¹⁰ / 10¹¹     | parametric   (~1/10⁴)    |
//!
//! Feature dims and class counts are scaled alongside node counts where the
//! originals would dominate single-core runtime (MAG240M: 768→128 features,
//! 153→32 classes). PPI keeps its 50 features / 121 multi-labels exactly,
//! since they are cheap. All graphs come from the planted model in
//! [`crate::gen`], so trained GNN accuracy is a real signal.

use crate::gen::{generate, DegreeSkew, GenConfig};
use crate::types::Graph;
use inferturbo_common::Xoshiro256;

/// Train/validation/test membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    Train,
    Val,
    Test,
}

/// A graph plus its split assignment and Table-I bookkeeping.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: String,
    pub graph: Graph,
    pub split: Vec<Split>,
    /// The paper's dataset size, for the Table I comparison printout.
    pub paper_nodes: u64,
    pub paper_edges: u64,
}

impl Dataset {
    fn assign_splits(n: usize, train: f64, val: f64, seed: u64) -> Vec<Split> {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5CA1AB1E);
        (0..n)
            .map(|_| {
                let x = rng.next_f64();
                if x < train {
                    Split::Train
                } else if x < train + val {
                    Split::Val
                } else {
                    Split::Test
                }
            })
            .collect()
    }

    /// PPI-like: small, dense, multi-label (121 binary targets).
    pub fn ppi_like(seed: u64) -> Dataset {
        let cfg = GenConfig {
            n_nodes: 5_694,
            n_edges: 81_871,
            alpha: 0.5,
            skew: DegreeSkew::In,
            feat_dim: 50,
            classes: 12,
            homophily: 0.7,
            signal: 0.8,
            noise: 1.4,
            multilabel: Some(121),
            seed,
        };
        Dataset {
            name: "ppi-like".into(),
            graph: generate(&cfg),
            split: Self::assign_splits(cfg.n_nodes, 0.60, 0.20, seed),
            paper_nodes: 56_944,
            paper_edges: 818_716,
        }
    }

    /// OGB-Products-like: medium, 47 classes, sparse labels.
    pub fn products_like(seed: u64) -> Dataset {
        let cfg = GenConfig {
            n_nodes: 24_490,
            n_edges: 618_591,
            alpha: 0.7,
            skew: DegreeSkew::In,
            feat_dim: 100,
            classes: 47,
            homophily: 0.6,
            signal: 0.75,
            noise: 2.1,
            multilabel: None,
            seed: seed.wrapping_add(1),
        };
        Dataset {
            name: "products-like".into(),
            graph: generate(&cfg),
            split: Self::assign_splits(cfg.n_nodes, 0.08, 0.02, seed),
            paper_nodes: 2_449_029,
            paper_edges: 61_859_140,
        }
    }

    /// MAG240M-like: the paper's "large" real-world graph, scaled ~1/1000.
    pub fn mag240m_like(seed: u64) -> Dataset {
        Self::mag240m_like_scaled(seed, 1)
    }

    /// MAG240M-like shrunk by a further `div` factor (quick/smoke runs).
    pub fn mag240m_like_scaled(seed: u64, div: usize) -> Dataset {
        let cfg = Self::mag240m_like_config(seed, div);
        Dataset {
            name: "mag240m-like".into(),
            graph: generate(&cfg),
            split: Self::assign_splits(cfg.n_nodes, 0.01, 0.005, seed),
            paper_nodes: 120_000_000,
            paper_edges: 2_600_000_000,
        }
    }

    /// The generator settings behind [`Dataset::mag240m_like_scaled`].
    pub fn mag240m_like_config(seed: u64, div: usize) -> GenConfig {
        let div = div.max(1);
        GenConfig {
            n_nodes: (120_000 / div).max(1_000),
            n_edges: (2_600_000 / div).max(10_000),
            alpha: 0.6,
            skew: DegreeSkew::In,
            feat_dim: 128,
            classes: 32,
            homophily: 0.55,
            signal: 0.7,
            noise: 2.3,
            multilabel: None,
            seed: seed.wrapping_add(2),
        }
    }

    /// Power-Law: parametric scale for the scalability and strategy
    /// experiments (paper synthesises in-skew and out-skew variants
    /// separately "for variable-controlling purposes").
    ///
    /// Only a millesimal of nodes are labelled for training, matching §V-A.
    pub fn power_law(n_nodes: usize, n_edges: usize, skew: DegreeSkew, seed: u64) -> Dataset {
        let cfg = GenConfig {
            n_nodes,
            n_edges,
            alpha: 1.2,
            skew,
            feat_dim: 32,
            classes: 2,
            homophily: 0.6,
            signal: 1.0,
            noise: 1.0,
            multilabel: None,
            seed: seed.wrapping_add(3),
        };
        Dataset {
            name: format!("power-law-{n_nodes}n-{n_edges}e"),
            graph: generate(&cfg),
            split: Self::assign_splits(n_nodes, 0.001, 0.0005, seed),
            paper_nodes: 10_000_000_000,
            paper_edges: 100_000_000_000,
        }
    }

    /// Node ids belonging to `split`.
    pub fn nodes_in(&self, split: Split) -> Vec<u32> {
        self.split
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == split)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Table-I style summary row.
    pub fn summary(&self) -> String {
        format!(
            "{:<16} nodes={:<9} edges={:<9} feat={:<4} classes={:<4} (paper: {} nodes, {} edges)",
            self.name,
            self.graph.n_nodes(),
            self.graph.n_edges(),
            self.graph.node_feat_dim(),
            self.graph.labels().num_classes(),
            self.paper_nodes,
            self.paper_edges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppi_like_shape() {
        let d = Dataset::ppi_like(7);
        assert_eq!(d.graph.n_nodes(), 5_694);
        assert_eq!(d.graph.n_edges(), 81_871);
        assert_eq!(d.graph.node_feat_dim(), 50);
        assert!(d.graph.labels().is_multilabel());
        assert_eq!(d.graph.labels().num_classes(), 121);
        d.graph.validate().unwrap();
    }

    #[test]
    fn splits_partition_all_nodes() {
        let d = Dataset::ppi_like(7);
        let train = d.nodes_in(Split::Train).len();
        let val = d.nodes_in(Split::Val).len();
        let test = d.nodes_in(Split::Test).len();
        assert_eq!(train + val + test, d.graph.n_nodes());
        // 60/20/20 within tolerance
        let n = d.graph.n_nodes() as f64;
        assert!((train as f64 / n - 0.60).abs() < 0.03);
        assert!((test as f64 / n - 0.20).abs() < 0.03);
    }

    #[test]
    fn power_law_train_fraction_is_millesimal() {
        let d = Dataset::power_law(50_000, 200_000, DegreeSkew::In, 1);
        let train = d.nodes_in(Split::Train).len();
        // 0.1% of 50k = 50 expected; allow wide tolerance for the small count
        assert!(
            (10..=120).contains(&train),
            "train count {train} should be ~50"
        );
    }

    #[test]
    fn datasets_are_deterministic_per_seed() {
        let a = Dataset::products_like(3);
        let b = Dataset::products_like(3);
        assert_eq!(a.graph.src(), b.graph.src());
        assert_eq!(a.split.len(), b.split.len());
        assert!(a.split.iter().zip(&b.split).all(|(x, y)| x == y));
    }

    #[test]
    fn summary_mentions_paper_scale() {
        let d = Dataset::power_law(1000, 5000, DegreeSkew::Out, 0);
        let s = d.summary();
        assert!(s.contains("10000000000"));
        assert!(s.contains("nodes=1000"));
    }
}
