//! Inputs made from `--seed`: graphs, models, arrival schedules, target
//! streams and feature snapshots. The program under test sees only these.

use inferturbo_core::models::{GnnModel, PoolOp};
use inferturbo_core::session::Backend;
use inferturbo_graph::gen::{generate, DegreeSkew, GenConfig};
use inferturbo_graph::Graph;
use std::sync::Arc;

pub const FEAT_DIM: usize = 16;
pub const HIDDEN: usize = 64;
pub const CLASSES: usize = 4;
pub const LAYERS: usize = 2;
/// Logical workers of every plan.
pub const WORKERS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    Sage,
    Gat,
}

/// One engine configuration: what a workload plans and runs.
#[derive(Debug, Clone, Copy)]
pub struct EngineCfg {
    pub model: ModelKind,
    pub skew: DegreeSkew,
    pub backend: Backend,
    /// Exchange through `itworker` children instead of in-process moves.
    pub xproc: bool,
    /// Page inboxes through disk under [`Sizes::spill_budget`].
    pub spill: bool,
}

impl EngineCfg {
    pub const fn new(model: ModelKind, skew: DegreeSkew, backend: Backend) -> Self {
        EngineCfg {
            model,
            skew,
            backend,
            xproc: false,
            spill: false,
        }
    }
}

/// The engine workloads by name.
pub fn engine_cfg(workload: &str) -> Option<EngineCfg> {
    let sage_in = EngineCfg::new(ModelKind::Sage, DegreeSkew::In, Backend::Pregel);
    match workload {
        "pregel_sage_inhub" => Some(sage_in),
        "pregel_gat_outhub" => Some(EngineCfg::new(
            ModelKind::Gat,
            DegreeSkew::Out,
            Backend::Pregel,
        )),
        "mapreduce_sage_inhub" => Some(EngineCfg {
            backend: Backend::MapReduce,
            ..sage_in
        }),
        "pregel_sage_xproc_spill" => Some(EngineCfg {
            xproc: true,
            spill: true,
            ..sage_in
        }),
        _ => None,
    }
}

/// Graph sizes: the stated ones, or tiny ones under `--smoke` (same code
/// paths and checks, about a second per workload).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub engine_nodes: usize,
    pub serve_nodes: usize,
    /// The `scale.*` ladder, smallest first.
    pub ladder: [usize; 3],
    /// Per-worker resident inbox budget of the spill workload, bytes: well
    /// under one worker's inbox, so every superstep pages.
    pub spill_budget: u64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        engine_nodes: 50_000,
        serve_nodes: 10_000,
        ladder: [5_000, 50_000, 500_000],
        spill_budget: 64 * 1024,
    };
    pub const SMOKE: Sizes = Sizes {
        engine_nodes: 2_000,
        serve_nodes: 1_000,
        ladder: [500, 1_000, 2_000],
        spill_budget: 4 * 1024,
    };
}

/// Edges per node of every generated graph.
pub const DEGREE: usize = 10;

pub fn graph(nodes: usize, skew: DegreeSkew, seed: u64) -> Graph {
    generate(&GenConfig {
        n_nodes: nodes,
        n_edges: nodes * DEGREE,
        feat_dim: FEAT_DIM,
        classes: CLASSES as u32,
        skew,
        seed,
        ..GenConfig::default()
    })
}

pub fn model(kind: ModelKind, seed: u64) -> GnnModel {
    match kind {
        ModelKind::Sage => {
            GnnModel::sage(FEAT_DIM, HIDDEN, LAYERS, CLASSES, false, PoolOp::Mean, seed)
        }
        ModelKind::Gat => GnnModel::gat(FEAT_DIM, HIDDEN, 4, LAYERS, CLASSES, false, seed),
    }
}

/// SplitMix64: this benchmark's own generator for schedules and targets,
/// so a change to the repository's generators cannot move its traffic.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// `stream` separates the uses of one `--seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so its logarithm is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// Due times, seconds from the phase start, of Poisson arrivals at `rate`
/// per second over `duration` seconds. `slice` separates the schedules one
/// run draws at one rate.
pub fn poisson_schedule(seed: u64, slice: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x5C4E_D01E ^ rate.to_bits() ^ slice);
    let mut due = Vec::with_capacity((rate * duration * 1.1) as usize + 8);
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= duration {
            return due;
        }
        due.push(t);
    }
}

/// Nodes each request asks logits for.
pub const TARGETS_PER_REQUEST: usize = 3;

/// The target choice of the `i`-th request of a phase: a pure function of
/// (seed, phase, i), so open- and closed-loop phases need no shared cursor.
pub fn targets(seed: u64, phase: u64, i: u64, n_nodes: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, 0x7A26_E700 ^ (phase << 40) ^ i);
    (0..TARGETS_PER_REQUEST)
        .map(|_| rng.below(n_nodes as u64) as u32)
        .collect()
}

/// A pool of feature snapshots the serve phases rotate through: the
/// graph's own rows, each scaled per snapshot so that no two snapshots
/// score alike.
pub fn snapshots(graph: &Graph, seed: u64, count: usize) -> Vec<Arc<Vec<Vec<f32>>>> {
    let mut rng = Rng::new(seed, 0x54A9_5407);
    (0..count)
        .map(|_| {
            let scale = 0.5 + rng.unit() as f32;
            Arc::new(
                (0..graph.n_nodes() as u32)
                    .map(|v| graph.node_feat(v).iter().map(|x| x * scale).collect())
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(11, 0, 300.0, 2.0);
        assert_eq!(a, poisson_schedule(11, 0, 300.0, 2.0));
        assert_ne!(a, poisson_schedule(12, 0, 300.0, 2.0));
        assert_ne!(a, poisson_schedule(11, 1, 300.0, 2.0));
        assert_ne!(a, poisson_schedule(11, 0, 150.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        assert!(a.iter().all(|&t| t > 0.0 && t < 2.0));
        // 600 expected arrivals, standard deviation ~24.5.
        assert!((450..750).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn target_stream_is_a_function_of_seed_phase_and_index() {
        let t = targets(11, 1, 42, 10_000);
        assert_eq!(t, targets(11, 1, 42, 10_000));
        assert_eq!(t.len(), TARGETS_PER_REQUEST);
        assert!(t.iter().all(|&v| v < 10_000));
        assert_ne!(t, targets(12, 1, 42, 10_000));
        assert_ne!(t, targets(11, 2, 42, 10_000));
        assert_ne!(t, targets(11, 1, 43, 10_000));
    }

    #[test]
    fn snapshots_are_seeded_and_distinct() {
        let g = graph(200, DegreeSkew::In, 5);
        let a = snapshots(&g, 11, 3);
        let b = snapshots(&g, 11, 3);
        assert_eq!(a.len(), 3);
        assert_eq!(*a[0], *b[0]);
        assert_ne!(*a[0], *a[1]);
        assert_eq!(a[0].len(), 200);
        assert_eq!(a[0][0].len(), FEAT_DIM);
    }

    #[test]
    fn every_engine_workload_has_a_configuration() {
        for (name, _) in crate::metrics::WORKLOADS {
            assert_eq!(
                engine_cfg(name).is_none(),
                *name == "serve_open_loop",
                "{name}"
            );
        }
    }
}
