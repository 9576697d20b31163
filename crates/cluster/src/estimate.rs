//! Plan-time cost estimation — the predictive counterpart of
//! [`crate::metrics::RunReport`].
//!
//! A [`RunReport`](crate::RunReport) is filled with *measured* quantities
//! after an engine has run; a [`PlanEstimate`] is filled with *predicted*
//! quantities before any execution, from nothing but the planned graph
//! layout (records, degrees, hub sets) and the model's layer shapes. Both
//! speak the same units and planes: predicted bytes split columnar vs
//! legacy exactly like [`MessagePlaneBytes`](crate::MessagePlaneBytes),
//! and the peak-memory prediction is checked against the same
//! `memory_bytes` cap the engines enforce at runtime.
//!
//! The estimate's headline consumer is backend auto-selection (the paper's
//! §IV-A trade-off): the Pregel backend keeps vertex state and inboxes
//! resident, so it is only viable when
//! [`PlanEstimate::pregel_peak_worker_bytes`] fits the per-worker memory
//! budget; the MapReduce backend streams everything through the shuffle
//! and survives far smaller workers at a latency cost. `Backend::Auto`
//! (in `inferturbo-core`) encodes exactly this comparison instead of
//! leaving the choice to the caller.

use crate::spec::ClusterSpec;

/// Predicted traffic for one GNN layer, split by message plane. The
/// per-edge GNN traffic (columnar + legacy) is common to both backends;
/// MapReduce additionally re-shuffles every node's self-state each round
/// because nothing stays resident between rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerEstimate {
    /// Layer index (messages feeding this layer's gather).
    pub layer: usize,
    /// Message row width in `f32` lanes.
    pub msg_dim: usize,
    /// Predicted columnar-plane bytes: fixed-width rows, or fused partial
    /// rows when the layer's aggregate is annotated associative.
    pub columnar_bytes: u64,
    /// Predicted typed-plane bytes: hub broadcast payloads and their
    /// per-edge references.
    pub legacy_bytes: u64,
    /// Extra bytes the MapReduce backend shuffles this round: one
    /// self-state record per node record (embedding + out-edge table).
    pub mapreduce_selfstate_bytes: u64,
}

impl LayerEstimate {
    /// Predicted message bytes on the Pregel backend for this layer.
    pub fn pregel_bytes(&self) -> u64 {
        self.columnar_bytes + self.legacy_bytes
    }

    /// Predicted message bytes on the MapReduce backend for this layer.
    pub fn mapreduce_bytes(&self) -> u64 {
        self.pregel_bytes() + self.mapreduce_selfstate_bytes
    }

    /// Predicted *wire* bytes for this layer on the Pregel backend under a
    /// byte-moving transport (`Transport::needs_bytes()`): the share of the
    /// shuffle whose sender and destination land on different workers.
    /// Under uniform hash partitioning that is `(W-1)/W` of the plane
    /// total; the remaining `1/W` is worker-local and never needs to leave
    /// the worker on a multi-host deployment. The in-process transport
    /// moves everything by reference and reports 0 — this predicts the
    /// cross-worker floor, the number the
    /// [`RunReport::wire_bytes`](crate::RunReport) counter converges
    /// toward as framing overhead amortises.
    pub fn pregel_wire_bytes(&self, workers: usize) -> u64 {
        cross_worker_share(self.pregel_bytes(), workers)
    }

    /// Predicted wire bytes for this layer on the MapReduce backend (same
    /// `(W-1)/W` cross-worker share, over the round shuffle including the
    /// re-shipped self-states).
    pub fn mapreduce_wire_bytes(&self, workers: usize) -> u64 {
        cross_worker_share(self.mapreduce_bytes(), workers)
    }
}

/// The `(W-1)/W` share of `bytes` that crosses a worker boundary under
/// uniform hash partitioning. 0 for a single worker (everything is local).
fn cross_worker_share(bytes: u64, workers: usize) -> u64 {
    let w = workers.max(1) as u64;
    bytes / w * (w - 1) + bytes % w * (w - 1) / w
}

/// A plan's predicted cost profile. Produced once at plan time; see the
/// module docs for the relationship to [`crate::RunReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEstimate {
    /// Per-layer predicted shuffle volume.
    pub layers: Vec<LayerEstimate>,
    /// Estimated peak per-worker resident bytes on the Pregel backend
    /// (vertex states + the largest inter-superstep inbox). This is the
    /// number backend auto-selection compares against the memory budget.
    ///
    /// **Spill-aware**: when the plan carries an out-of-core spill budget,
    /// the inbox term counts only the bounded resident window plus the
    /// always-resident offsets/counts — the bytes the spill files absorb
    /// move to [`PlanEstimate::pregel_spilled_worker_bytes`] instead, so a
    /// plan that spills can fit a budget its unconstrained residency would
    /// blow.
    pub pregel_peak_worker_bytes: u64,
    /// Estimated peak per-worker bytes paged to disk by the Pregel
    /// backend's columnar inboxes under the plan's spill budget — the
    /// out-of-core plane of the residency model, reported alongside (never
    /// inside) the resident peak. 0 when the plan has no spill budget.
    pub pregel_spilled_worker_bytes: u64,
    /// Estimated peak per-worker resident bytes on the MapReduce backend
    /// (the largest single streamed key group — reducers never hold their
    /// whole partition).
    pub mapreduce_peak_worker_bytes: u64,
}

impl PlanEstimate {
    /// Total predicted shuffle bytes for a whole run on the Pregel
    /// backend.
    pub fn pregel_total_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.pregel_bytes()).sum()
    }

    /// Total predicted shuffle bytes for a whole run on the MapReduce
    /// backend.
    pub fn mapreduce_total_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.mapreduce_bytes()).sum()
    }

    /// Whether the Pregel backend's predicted resident state fits a
    /// per-worker memory budget — the auto-selection predicate.
    pub fn pregel_fits(&self, budget_bytes: u64) -> bool {
        self.pregel_peak_worker_bytes <= budget_bytes
    }

    /// Total predicted cross-worker wire bytes for a whole run on the
    /// Pregel backend (see [`LayerEstimate::pregel_wire_bytes`]).
    pub fn pregel_wire_bytes(&self, workers: usize) -> u64 {
        self.layers
            .iter()
            .map(|l| l.pregel_wire_bytes(workers))
            .sum()
    }

    /// Total predicted cross-worker wire bytes for a whole run on the
    /// MapReduce backend.
    pub fn mapreduce_wire_bytes(&self, workers: usize) -> u64 {
        self.layers
            .iter()
            .map(|l| l.mapreduce_wire_bytes(workers))
            .sum()
    }

    /// Modelled communication wall-clock lower bound for the whole run on
    /// `spec`, using the same constants as
    /// [`PhaseReport::seal`](crate::PhaseReport::seal): per phase, the
    /// predicted bytes spread evenly across workers over the full-duplex
    /// NIC, plus the per-phase scheduling overhead. Real runs are slower
    /// (compute, stragglers); the bound is for backend comparison, not
    /// absolute prediction.
    pub fn comm_wall_secs(
        &self,
        spec: &ClusterSpec,
        bytes_per_layer: impl Fn(&LayerEstimate) -> u64,
    ) -> f64 {
        let w = spec.workers.max(1) as f64;
        self.layers
            .iter()
            .map(|l| {
                bytes_per_layer(l) as f64 / w / spec.bandwidth_bytes + spec.phase_overhead_secs
            })
            .sum()
    }
}

/// Aggregate residency across the admitted plans of a serving fleet — the
/// paper's §IV-A memory trade-off applied fleet-wide instead of per run.
///
/// A single plan's [`PlanEstimate::pregel_fits`] asks "does *this* plan's
/// resident state fit one worker's memory?"; a serving layer that keeps
/// many plans alive concurrently must ask the same question about their
/// *sum*, because admitted plans hold their vertex states and pooled
/// scratch simultaneously. `FleetEstimate` tracks that sum. Admission is
/// **inclusive at the boundary**, exactly like `Backend::Auto`'s
/// `pregel_fits`: a fleet whose total equals the budget still fits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetEstimate {
    plans: usize,
    total_peak_worker_bytes: u64,
}

impl FleetEstimate {
    pub fn new() -> Self {
        FleetEstimate::default()
    }

    /// Number of admitted plans.
    pub fn plans(&self) -> usize {
        self.plans
    }

    /// Summed predicted peak per-worker residency of every admitted plan.
    pub fn total_peak_worker_bytes(&self) -> u64 {
        self.total_peak_worker_bytes
    }

    /// Whether a plan with `extra_bytes` peak residency fits alongside the
    /// already-admitted fleet under `budget_bytes` (inclusive, matching
    /// [`PlanEstimate::pregel_fits`]).
    pub fn fits(&self, extra_bytes: u64, budget_bytes: u64) -> bool {
        self.total_peak_worker_bytes.saturating_add(extra_bytes) <= budget_bytes
    }

    /// Budget left under `budget_bytes` (0 when over).
    pub fn remaining(&self, budget_bytes: u64) -> u64 {
        budget_bytes.saturating_sub(self.total_peak_worker_bytes)
    }

    /// Record an admitted plan's peak residency.
    pub fn admit(&mut self, peak_worker_bytes: u64) {
        self.plans += 1;
        self.total_peak_worker_bytes = self
            .total_peak_worker_bytes
            .saturating_add(peak_worker_bytes);
    }

    /// Release a previously admitted plan's residency (eviction /
    /// shutdown). Must be called with the same bytes that were admitted.
    pub fn release(&mut self, peak_worker_bytes: u64) {
        debug_assert!(self.plans > 0, "release without admit");
        debug_assert!(self.total_peak_worker_bytes >= peak_worker_bytes);
        self.plans = self.plans.saturating_sub(1);
        self.total_peak_worker_bytes = self
            .total_peak_worker_bytes
            .saturating_sub(peak_worker_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate() -> PlanEstimate {
        PlanEstimate {
            layers: vec![
                LayerEstimate {
                    layer: 0,
                    msg_dim: 8,
                    columnar_bytes: 800,
                    legacy_bytes: 200,
                    mapreduce_selfstate_bytes: 2_000,
                },
                LayerEstimate {
                    layer: 1,
                    msg_dim: 4,
                    columnar_bytes: 500,
                    legacy_bytes: 0,
                    mapreduce_selfstate_bytes: 1_000,
                },
            ],
            pregel_peak_worker_bytes: 4_096,
            pregel_spilled_worker_bytes: 0,
            mapreduce_peak_worker_bytes: 512,
        }
    }

    #[test]
    fn totals_sum_layers_and_planes() {
        let e = estimate();
        assert_eq!(e.layers[0].pregel_bytes(), 1_000);
        assert_eq!(e.layers[0].mapreduce_bytes(), 3_000);
        assert_eq!(e.pregel_total_bytes(), 1_500);
        assert_eq!(e.mapreduce_total_bytes(), 4_500);
    }

    #[test]
    fn wire_share_is_the_cross_worker_fraction() {
        let e = estimate();
        // One worker: every byte is local, nothing crosses the wire.
        assert_eq!(e.pregel_wire_bytes(1), 0);
        assert_eq!(e.mapreduce_wire_bytes(1), 0);
        // Four workers: 3/4 of each layer's plane total crosses.
        assert_eq!(e.layers[0].pregel_wire_bytes(4), 750);
        assert_eq!(e.layers[0].mapreduce_wire_bytes(4), 2_250);
        assert_eq!(e.pregel_wire_bytes(4), 750 + 375);
        assert_eq!(e.mapreduce_wire_bytes(4), 2_250 + 1_125);
        // The share never exceeds the total and grows with W.
        assert!(e.pregel_wire_bytes(1_000) < e.pregel_total_bytes());
        assert!(e.pregel_wire_bytes(1_000) > e.pregel_wire_bytes(4));
    }

    #[test]
    fn fits_is_inclusive_at_the_boundary() {
        let e = estimate();
        assert!(e.pregel_fits(4_096));
        assert!(!e.pregel_fits(4_095));
    }

    #[test]
    fn fleet_admission_is_inclusive_like_auto_selection() {
        let mut fleet = FleetEstimate::new();
        assert!(fleet.fits(1_000, 1_000), "boundary is inclusive");
        fleet.admit(600);
        assert!(fleet.fits(400, 1_000), "sum at the boundary still fits");
        assert!(!fleet.fits(401, 1_000));
        assert_eq!(fleet.remaining(1_000), 400);
        fleet.admit(400);
        assert_eq!(fleet.plans(), 2);
        assert_eq!(fleet.remaining(1_000), 0);
        fleet.release(600);
        assert_eq!(fleet.plans(), 1);
        assert!(fleet.fits(600, 1_000));
        // Saturating arithmetic: absurd residencies degrade to "never
        // fits a finite budget", not to wraparound.
        fleet.admit(u64::MAX);
        assert!(!fleet.fits(0, u64::MAX - 1));
        assert!(!fleet.fits(1, 1_000));
        assert_eq!(fleet.remaining(1_000), 0);
    }

    #[test]
    fn comm_bound_uses_spec_rates() {
        let e = estimate();
        // test_spec: 1e6 B/s, zero overhead, 1 worker.
        let spec = ClusterSpec::test_spec(1);
        let secs = e.comm_wall_secs(&spec, LayerEstimate::pregel_bytes);
        assert!((secs - 1_500.0 / 1.0e6).abs() < 1e-12);
        // Overhead is charged once per phase.
        let mut spec2 = spec;
        spec2.phase_overhead_secs = 2.0;
        let secs2 = e.comm_wall_secs(&spec2, LayerEstimate::pregel_bytes);
        assert!((secs2 - (secs + 4.0)).abs() < 1e-12);
    }
}
