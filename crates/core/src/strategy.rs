//! Power-law mitigation strategies (paper §IV-D) and the graph-loading
//! transform that applies them.
//!
//! Three strategies, all information-preserving (no sampling, bit-stable
//! predictions):
//!
//! - **partial-gather** — fold messages sender-side per destination; legal
//!   exactly when the layer's `aggregate` is annotated
//!   commutative/associative. Implemented by the engines' fused row
//!   aggregation (`AggKind`); this module only carries the toggle.
//! - **broadcast** — a node with many out-edges publishes its message (the
//!   same on every out-edge) once per worker plus an 8-byte reference per
//!   edge.
//! - **shadow-nodes** — a node with many out-edges is split into mirrors,
//!   each holding *all* in-edges and an even share of out-edges. Mirrors
//!   hash to different workers, spreading the scatter load; every sender to
//!   a mirrored node duplicates its message to each mirror (the documented
//!   memory overhead).
//!
//! The activation threshold follows the paper's heuristic
//! `threshold = λ · |E| / workers` with λ = 0.1.

use inferturbo_common::codec::{
    f32_slice_len, varint_len, varint_seq_len, Decode, Encode, WireReader, WireWriter,
};
use inferturbo_common::Result;
use inferturbo_graph::{Csr, Graph};
use std::sync::Arc;

/// Strategy toggles + threshold policy. The default enables nothing —
/// every experiment states its configuration explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyConfig {
    pub partial_gather: bool,
    pub broadcast: bool,
    pub shadow_nodes: bool,
    /// The paper's λ (fraction of per-worker edges above which a node is a
    /// "hub").
    pub lambda: f64,
    /// Fixed threshold overriding the heuristic (used by the Fig. 12/13
    /// threshold sweeps).
    pub threshold_override: Option<u32>,
}

impl Default for StrategyConfig {
    fn default() -> Self {
        StrategyConfig::none()
    }
}

impl StrategyConfig {
    /// All strategies off (the experiments' "Base").
    pub fn none() -> Self {
        StrategyConfig {
            partial_gather: false,
            broadcast: false,
            shadow_nodes: false,
            lambda: 0.1,
            threshold_override: None,
        }
    }

    /// All strategies on — the production configuration.
    pub fn all() -> Self {
        StrategyConfig {
            partial_gather: true,
            broadcast: true,
            shadow_nodes: true,
            lambda: 0.1,
            threshold_override: None,
        }
    }

    pub fn with_partial_gather(mut self, on: bool) -> Self {
        self.partial_gather = on;
        self
    }

    pub fn with_broadcast(mut self, on: bool) -> Self {
        self.broadcast = on;
        self
    }

    pub fn with_shadow_nodes(mut self, on: bool) -> Self {
        self.shadow_nodes = on;
        self
    }

    pub fn with_threshold(mut self, t: u32) -> Self {
        self.threshold_override = Some(t);
        self
    }

    /// A hashable canonical form of this configuration, usable as (part
    /// of) a plan-cache key. Two configurations with equal keys plan and
    /// execute identically; `lambda` is compared by bit pattern, so keys
    /// distinguish every representable threshold heuristic.
    ///
    /// The bit pattern is taken over a *normalised* lambda: `-0.0`
    /// canonicalises to `+0.0` and every NaN payload to the one canonical
    /// NaN. Those values are numerically indistinguishable to
    /// [`StrategyConfig::threshold`], so raw `to_bits()` would mint
    /// distinct keys for identical strategies — a serving plan cache would
    /// plan (and admit, double-counting fleet residency) the same
    /// configuration twice.
    pub fn key(&self) -> StrategyKey {
        let lambda_bits = if self.lambda.is_nan() {
            f64::NAN.to_bits()
        } else if self.lambda == 0.0 {
            0.0f64.to_bits()
        } else {
            self.lambda.to_bits()
        };
        StrategyKey {
            partial_gather: self.partial_gather,
            broadcast: self.broadcast,
            shadow_nodes: self.shadow_nodes,
            lambda_bits,
            threshold_override: self.threshold_override,
        }
    }

    /// The hub threshold: `max(1, λ·|E|/workers)` or the override.
    /// With 10⁹ edges on 1000 workers and λ = 0.1 this is the paper's
    /// 100,000.
    ///
    /// Returns `u64`: at paper scale the heuristic can exceed `u32::MAX`
    /// (≥ ~4.3e12·workers/λ edges), and the old `as u32` cast silently
    /// truncated there, turning every node into a hub. The `as u64` float
    /// cast saturates, so absurdly large products degrade to "no hubs"
    /// instead of wrapping.
    pub fn threshold(&self, n_edges: usize, workers: usize) -> u64 {
        if let Some(t) = self.threshold_override {
            return (t as u64).max(1);
        }
        let t = (self.lambda * n_edges as f64 / workers.max(1) as f64) as u64;
        t.max(1)
    }

    /// The hub rule: a node of logical out-degree `out_deg` broadcasts its
    /// message instead of shipping a row per edge when broadcast is on and
    /// its out-degree is strictly above `bc_threshold` (the plan's
    /// [`StrategyConfig::threshold`]). Both engines and the plan's traffic
    /// estimate ask this one function, so the estimate describes the run.
    pub(crate) fn broadcasts(&self, out_deg: u32, bc_threshold: u64) -> bool {
        self.broadcast && out_deg as u64 > bc_threshold
    }
}

/// The `Eq + Hash` image of a [`StrategyConfig`] (see
/// [`StrategyConfig::key`]). Serving-layer plan caches key on this
/// alongside model/graph identity and the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrategyKey {
    pub partial_gather: bool,
    pub broadcast: bool,
    pub shadow_nodes: bool,
    /// `StrategyConfig::lambda` as its IEEE-754 bit pattern.
    pub lambda_bits: u64,
    pub threshold_override: Option<u32>,
}

// --- wire-id scheme ---------------------------------------------------------
//
// Vertex ids on the wire are u64 with the top bit set, so that the
// MapReduce backend can reserve small ids for per-worker broadcast tables.
// Bits [32..63) carry the shadow-mirror index, bits [0..32) the original
// node id.

/// Flag bit distinguishing node ids from reserved control keys.
pub const NODE_FLAG: u64 = 1 << 63;

/// Wire id of mirror `mirror` of node `node`.
#[inline]
pub fn wire_id(node: u32, mirror: u32) -> u64 {
    debug_assert!(mirror < (1 << 31));
    NODE_FLAG | ((mirror as u64) << 32) | node as u64
}

/// Original node id of a wire id.
#[inline]
pub fn base_of(wire: u64) -> u32 {
    (wire & 0xFFFF_FFFF) as u32
}

/// Mirror index of a wire id.
#[inline]
pub fn mirror_of(wire: u64) -> u32 {
    ((wire >> 32) & 0x7FFF_FFFF) as u32
}

/// One vertex record, materialized: the shadow-nodes transform's output
/// for one node or mirror, with its features and target ids copied out.
/// No plan builds one — both backends run over the shared layout and read
/// features from the graph — it is what [`build_node_records`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    pub wire: u64,
    /// Original node id (mirrors share it).
    pub base: u32,
    /// Raw input features (replicated across mirrors).
    pub raw: Vec<f32>,
    /// Wire ids this record scatters to (its share of out-edges, expanded
    /// to every mirror of each destination).
    pub out_targets: Arc<[u64]>,
    /// Logical (whole-graph) degrees — normalisations read these, never
    /// the physical adjacency.
    pub in_deg: u32,
    pub out_deg: u32,
}

impl Encode for NodeRecord {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.wire);
        w.put_varint(self.base as u64);
        w.put_f32_slice(&self.raw);
        w.put_varint(self.out_targets.len() as u64);
        for &t in self.out_targets.iter() {
            w.put_varint(t);
        }
        w.put_varint(self.in_deg as u64);
        w.put_varint(self.out_deg as u64);
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.wire)
            + varint_len(self.base as u64)
            + f32_slice_len(self.raw.len())
            + varint_seq_len(&self.out_targets)
            + varint_len(self.in_deg as u64)
            + varint_len(self.out_deg as u64)
    }
}

impl Decode for NodeRecord {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let wire = r.get_varint()?;
        let base = r.get_varint_u32()?;
        let raw = r.get_f32_vec()?;
        let n = r.get_varint()? as usize;
        let mut out_targets = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out_targets.push(r.get_varint()?);
        }
        let in_deg = r.get_varint_u32()?;
        let out_deg = r.get_varint_u32()?;
        Ok(NodeRecord {
            wire,
            base,
            raw,
            out_targets: out_targets.into(),
            in_deg,
            out_deg,
        })
    }
}

/// The shadow-nodes transform's output, flat: every record's wire id in
/// load order (node ascending, mirror ascending), every record's scatter
/// targets as one slice of a single exact-size array, and every node's
/// logical degrees. Both backends start from it: a plan lays it out
/// ([`inferturbo_common::Layout::planned`]) and keeps only the degrees;
/// [`build_node_records`] materializes it into [`NodeRecord`]s
/// ([`ShadowAdjacency::node_records`]).
#[derive(Debug, Default)]
pub(crate) struct ShadowAdjacency {
    /// Record `i`'s wire id.
    wires: Vec<u64>,
    /// Record `i` scatters to `targets[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    targets: Vec<u64>,
    /// Logical (whole-graph) degrees per node, shared by its mirrors —
    /// normalisations read these, never the physical adjacency.
    pub(crate) in_deg: Vec<u32>,
    pub(crate) out_deg: Vec<u32>,
}

impl ShadowAdjacency {
    /// Apply the shadow-nodes transform (when enabled) in one pass over
    /// `graph`'s out-CSR.
    ///
    /// A node whose out-degree exceeds the threshold is split into
    /// `ceil(out_deg / threshold)` mirrors; out-edges are dealt round-robin
    /// so groups are even (paper: "divided into n groups evenly"): mirror
    /// `m` of a node with `g` mirrors takes its out-edges `m, m + g, ...`.
    /// Every scatter target expands to all mirrors of the destination,
    /// because each mirror must hold all in-edges — so the target count is
    /// known before the pass, as each node's in-degree times its mirror
    /// count, and the records fill one array front to back.
    pub(crate) fn build(graph: &Graph, strategy: &StrategyConfig, workers: usize) -> Self {
        let out_csr = Csr::out_of(graph);
        let n = graph.n_nodes() as u32;
        let out_deg: Vec<u32> = (0..n).map(|v| out_csr.degree(v)).collect();
        let in_deg = graph.in_degrees();
        let threshold = strategy.threshold(graph.n_edges(), workers);
        let groups: Vec<u32> = out_deg
            .iter()
            .map(|&d| {
                if strategy.shadow_nodes && d as u64 > threshold {
                    // ≤ out_deg (threshold ≥ 1), so the cast back is lossless.
                    (d as u64).div_ceil(threshold) as u32
                } else {
                    1
                }
            })
            .collect();
        let n_records: usize = groups.iter().map(|&g| g as usize).sum();
        let n_targets: usize = in_deg
            .iter()
            .zip(&groups)
            .map(|(&d, &g)| d as usize * g as usize)
            .sum();
        let mut wires = Vec::with_capacity(n_records);
        let mut offsets = Vec::with_capacity(n_records + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(n_targets);
        for v in 0..n {
            let g = groups[v as usize];
            let out = out_csr.neighbors(v);
            for m in 0..g {
                for &u in out.iter().skip(m as usize).step_by(g as usize) {
                    targets.extend((0..groups[u as usize]).map(|mu| wire_id(u, mu)));
                }
                wires.push(wire_id(v, m));
                offsets.push(targets.len());
            }
        }
        debug_assert_eq!(targets.len(), n_targets);
        ShadowAdjacency {
            wires,
            offsets,
            targets,
            in_deg,
            out_deg,
        }
    }

    /// Number of records (nodes plus mirrors).
    pub(crate) fn len(&self) -> usize {
        self.wires.len()
    }

    /// Total scatter targets over all records.
    pub(crate) fn n_targets(&self) -> usize {
        self.targets.len()
    }

    /// Record `i`'s scatter targets.
    pub(crate) fn targets(&self, i: usize) -> &[u64] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Record `i`'s logical (in, out) degrees.
    pub(crate) fn degrees(&self, i: usize) -> (u32, u32) {
        let base = base_of(self.wires[i]) as usize;
        (self.in_deg[base], self.out_deg[base])
    }

    /// Every record's wire id and scatter targets, in load order — the
    /// shape [`inferturbo_common::Layout::planned`] takes.
    pub(crate) fn records(&self) -> impl Iterator<Item = (u64, &[u64])> + Clone {
        (0..self.len()).map(|i| (self.wires[i], self.targets(i)))
    }

    /// Materialize one [`NodeRecord`] per record, its features copied from
    /// `graph` and its targets from the flat array.
    pub(crate) fn node_records(&self, graph: &Graph) -> Vec<NodeRecord> {
        self.records()
            .enumerate()
            .map(|(i, (wire, targets))| {
                let base = base_of(wire);
                let (in_deg, out_deg) = self.degrees(i);
                NodeRecord {
                    wire,
                    base,
                    raw: graph.node_feat(base).to_vec(),
                    out_targets: targets.into(),
                    in_deg,
                    out_deg,
                }
            })
            .collect()
    }
}

/// Build the vertex records for `graph`, applying the shadow-nodes
/// transform when enabled: a node whose out-degree exceeds the threshold
/// is split into `ceil(out_deg / threshold)` mirrors, its out-edges dealt
/// round-robin, and every scatter target expands to all mirrors of the
/// destination. Planning runs the same transform (without the records);
/// this materialized form remains for callers that time or inspect it.
pub fn build_node_records(
    graph: &Graph,
    strategy: &StrategyConfig,
    workers: usize,
) -> Result<Vec<NodeRecord>> {
    Ok(ShadowAdjacency::build(graph, strategy, workers).node_records(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_common::Error;
    use inferturbo_graph::types::GraphBuilder;

    #[test]
    fn threshold_matches_paper_example() {
        let s = StrategyConfig::all();
        // 1 billion edges, 1000 workers, λ=0.1 → 100,000 (paper §V-B-2)
        assert_eq!(s.threshold(1_000_000_000, 1000), 100_000);
        // override wins
        assert_eq!(s.with_threshold(7).threshold(1_000_000_000, 1000), 7);
        // floor at 1
        assert_eq!(s.threshold(5, 1000), 1);
    }

    #[test]
    fn a_hub_broadcasts_strictly_above_the_threshold_and_only_with_broadcast_on() {
        let on = StrategyConfig::none().with_broadcast(true);
        assert!(
            !on.broadcasts(7, 7),
            "out-degree at the threshold ships rows"
        );
        assert!(on.broadcasts(8, 7), "threshold + 1 broadcasts");
        let off = StrategyConfig::all().with_broadcast(false);
        assert!(
            !off.broadcasts(u32::MAX, 1),
            "broadcast off never broadcasts"
        );
    }

    #[test]
    fn threshold_survives_u32_overflow() {
        // λ·|E|/W above u32::MAX used to truncate (every node became a
        // hub); the u64 widening must carry the true value through.
        let s = StrategyConfig::all();
        let t = s.threshold(usize::MAX, 1);
        assert!(t > u32::MAX as u64, "threshold truncated: {t}");
        // The float→int cast saturates rather than wrapping.
        let mut huge = StrategyConfig::all();
        huge.lambda = f64::MAX;
        assert_eq!(huge.threshold(usize::MAX, 1), u64::MAX);
    }

    /// Hand-encode a `NodeRecord` frame with arbitrary (possibly out of
    /// range) varints where the `u32` fields go.
    fn node_record_frame(base: u64, in_deg: u64, out_deg: u64) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_varint(wire_id(1, 0));
        w.put_varint(base);
        w.put_f32_slice(&[0.5, 1.5]);
        w.put_varint(1);
        w.put_varint(wire_id(2, 0));
        w.put_varint(in_deg);
        w.put_varint(out_deg);
        w.into_bytes()
    }

    #[test]
    fn node_record_decode_rejects_values_beyond_u32() {
        let ok = NodeRecord::from_bytes(&node_record_frame(1, u32::MAX as u64, 3)).unwrap();
        assert_eq!((ok.base, ok.in_deg, ok.out_deg), (1, u32::MAX, 3));
        // Under an `as u32` cast 2^32 would silently decode as 0.
        let wide = 1u64 << 32;
        for frame in [
            node_record_frame(wide, 1, 1),
            node_record_frame(1, wide, 1),
            node_record_frame(1, 1, wide),
            node_record_frame(1, 1, u64::MAX),
        ] {
            let err = NodeRecord::from_bytes(&frame).unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "{err:?}");
        }
    }

    #[test]
    fn wire_id_roundtrip() {
        for (node, mirror) in [(0u32, 0u32), (42, 3), (u32::MAX, 7), (9, 0)] {
            let w = wire_id(node, mirror);
            assert_eq!(base_of(w), node);
            assert_eq!(mirror_of(w), mirror);
            assert!(w & NODE_FLAG != 0);
        }
    }

    #[test]
    fn record_clone_shares_adjacency() {
        // Cloning a record shares its target list's allocation, never
        // copies it.
        let rec = NodeRecord {
            wire: wire_id(1, 0),
            base: 1,
            raw: vec![1.0],
            out_targets: vec![wire_id(2, 0), wire_id(3, 0)].into(),
            in_deg: 0,
            out_deg: 2,
        };
        let cloned = rec.clone();
        assert!(Arc::ptr_eq(&rec.out_targets, &cloned.out_targets));
    }

    #[test]
    fn strategy_key_distinguishes_configurations() {
        let base = StrategyConfig::all();
        assert_eq!(base.key(), StrategyConfig::all().key());
        assert_ne!(base.key(), base.with_partial_gather(false).key());
        assert_ne!(
            StrategyConfig::all().key(),
            StrategyConfig::all().with_threshold(7).key()
        );
        let mut tweaked = StrategyConfig::all();
        tweaked.lambda = 0.2;
        assert_ne!(StrategyConfig::all().key(), tweaked.key());
    }

    #[test]
    fn strategy_key_canonicalises_equal_lambdas() {
        // 0.0 and -0.0 compute identical thresholds; their keys must
        // collide or a plan cache plans the same configuration twice.
        let mut pos = StrategyConfig::all();
        pos.lambda = 0.0;
        let mut neg = StrategyConfig::all();
        neg.lambda = -0.0;
        assert_ne!(pos.lambda.to_bits(), neg.lambda.to_bits());
        assert_eq!(pos.key(), neg.key());
        // Every NaN payload canonicalises to one key (NaN lambdas are
        // degenerate but must not explode the key space).
        let mut nan_a = StrategyConfig::all();
        nan_a.lambda = f64::NAN;
        let mut nan_b = StrategyConfig::all();
        nan_b.lambda = f64::from_bits(f64::NAN.to_bits() | 1);
        assert!(nan_b.lambda.is_nan());
        assert_eq!(nan_a.key(), nan_b.key());
        // Distinct non-zero lambdas still get distinct keys.
        let mut other = StrategyConfig::all();
        other.lambda = 0.30000000000000004;
        let mut close = StrategyConfig::all();
        close.lambda = 0.3;
        assert_ne!(other.key(), close.key());
    }

    #[test]
    fn node_record_codec_roundtrip() {
        let rec = NodeRecord {
            wire: wire_id(5, 1),
            base: 5,
            raw: vec![0.5, -1.5],
            out_targets: vec![wire_id(1, 0), wire_id(2, 0), wire_id(2, 1)].into(),
            in_deg: 3,
            out_deg: 9,
        };
        let got = NodeRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(got, rec);
    }

    /// hub (node 0) has 6 out-edges to nodes 1..=6; node 1 also points at
    /// the hub so the hub has an in-edge.
    fn hub_graph() -> Graph {
        let mut b = GraphBuilder::new(7, 1);
        for u in 1..=6u32 {
            b.add_edge(0, u);
        }
        b.add_edge(1, 0);
        b.build().unwrap()
    }

    #[test]
    fn no_shadow_when_disabled() {
        let g = hub_graph();
        let recs =
            build_node_records(&g, &StrategyConfig::none().with_threshold(2), 2).expect("records");
        assert_eq!(recs.len(), 7); // one record per node
        let hub = recs.iter().find(|r| r.base == 0).unwrap();
        assert_eq!(hub.out_targets.len(), 6);
    }

    #[test]
    fn shadow_splits_hub_evenly() {
        let g = hub_graph();
        let strat = StrategyConfig::none()
            .with_shadow_nodes(true)
            .with_threshold(2);
        let recs = build_node_records(&g, &strat, 2).expect("records");
        // hub out_deg 6 > 2 → ceil(6/2)=3 mirrors; others 1 each → 9 records
        assert_eq!(recs.len(), 9);
        let mirrors: Vec<&NodeRecord> = recs.iter().filter(|r| r.base == 0).collect();
        assert_eq!(mirrors.len(), 3);
        for m in &mirrors {
            assert_eq!(m.out_targets.len(), 2, "round-robin even split");
            assert_eq!(m.out_deg, 6, "logical degree preserved");
            assert_eq!(m.in_deg, 1);
            assert_eq!(m.raw, vec![0.0]);
        }
        // union of mirror targets == original out-edges
        let mut all: Vec<u32> = mirrors
            .iter()
            .flat_map(|m| m.out_targets.iter().map(|&t| base_of(t)))
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn senders_duplicate_to_every_mirror() {
        let g = hub_graph();
        let strat = StrategyConfig::none()
            .with_shadow_nodes(true)
            .with_threshold(2);
        let recs = build_node_records(&g, &strat, 2).expect("records");
        // node 1 points at the hub, which has 3 mirrors → its single
        // out-edge expands to 3 targets
        let n1 = recs.iter().find(|r| r.base == 1).unwrap();
        assert_eq!(n1.out_targets.len(), 3);
        let mirrors: Vec<u32> = n1.out_targets.iter().map(|&t| mirror_of(t)).collect();
        assert_eq!(mirrors, vec![0, 1, 2]);
        assert!(n1.out_targets.iter().all(|&t| base_of(t) == 0));
    }

    #[test]
    fn total_scatter_targets_account_for_duplication() {
        let g = hub_graph();
        let strat = StrategyConfig::none()
            .with_shadow_nodes(true)
            .with_threshold(2);
        let recs = build_node_records(&g, &strat, 2).expect("records");
        let total: usize = recs.iter().map(|r| r.out_targets.len()).sum();
        // 6 hub out-edges (targets unmirrored) + 1 edge into hub × 3 mirrors
        assert_eq!(total, 9);
    }

    #[test]
    fn exact_multiple_of_threshold_is_not_split() {
        // out_deg == threshold must NOT trigger (strictly greater).
        let mut b = GraphBuilder::new(4, 0);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        let g = b.build().unwrap();
        let strat = StrategyConfig::none()
            .with_shadow_nodes(true)
            .with_threshold(3);
        let recs = build_node_records(&g, &strat, 1).expect("records");
        assert_eq!(recs.len(), 4);
    }
}
