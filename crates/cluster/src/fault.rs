//! Deterministic fault injection and the recovery policy.
//!
//! A real InferTurbo deployment rides Pregel/MapReduce infrastructure whose
//! fault tolerance comes from the platform: tasks are retried, supersteps
//! replay from checkpoints. This module gives the in-process reproduction
//! the same failure surface — *deterministically*. A [`FaultPlan`] is an
//! explicit, reproducible schedule of failure points ([`FaultSite`]); each
//! engine run arms a fresh [`FaultInjector`] from it, and the injector
//! fires each scheduled fault exactly its budgeted number of times, no
//! matter the thread count. Zero-cost when absent: engines carry an
//! `Option<FaultInjector>` and skip every check when it is `None`.
//!
//! [`RecoveryPolicy`] is the companion knob: how often the Pregel engine
//! checkpoints (vertex state + sealed inboxes at the seal barrier) and how
//! many times it may replay from the last checkpoint before giving up and
//! surfacing the original error.

use inferturbo_common::{Error, Result};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One injectable failure point. `step` counts Pregel supersteps from 0;
/// `round` counts MapReduce phases from 0 in execution order (the map of
/// round *r* and the reduce of round *r* are addressed separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Worker `worker` dies while computing Pregel superstep `step`.
    WorkerCompute { worker: usize, step: usize },
    /// Worker `worker`'s seal barrier fails at superstep `step`.
    SealBarrier { worker: usize, step: usize },
    /// The spill-file write-out of worker `worker`'s inbox fails at the
    /// seal barrier of superstep `step`.
    SpillWrite { worker: usize, step: usize },
    /// A windowed spill read-back on worker `worker` fails while applying
    /// the inbox sealed at superstep `step`.
    SpillRead { worker: usize, step: usize },
    /// The map task of worker `worker` in MapReduce round `round` fails.
    MapTask { worker: usize, round: usize },
    /// The reduce task of worker `worker` in MapReduce round `round` fails.
    ReduceTask { worker: usize, round: usize },
}

/// A reproducible schedule of faults: each site fires `budget` times (once
/// by default) per armed [`FaultInjector`]. Plans are plain data — clone
/// them freely; arm one injector per engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(FaultSite, u32)>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `site` to fire once.
    pub fn and_fail(self, site: FaultSite) -> Self {
        self.and_fail_times(site, 1)
    }

    /// Schedule `site` to fire `times` times before going quiet.
    pub fn and_fail_times(mut self, site: FaultSite, times: u32) -> Self {
        self.faults.push((site, times));
        self
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse a schedule from its string form: comma-separated specs, each
    /// `kind:worker@{step|round}:n` with an optional `xN` repeat budget
    /// (`N >= 1`; a budget of zero could never fire and is rejected).
    /// Kinds: `worker` (compute), `seal`, `spill-write`, `spill-read` (all
    /// `@step:`), `map`, `reduce` (both `@round:`).
    ///
    /// ```
    /// use inferturbo_cluster::fault::{FaultPlan, FaultSite};
    /// let plan = FaultPlan::parse("worker:1@step:1,map:0@round:2x3").unwrap();
    /// assert!(!plan.is_empty());
    /// ```
    pub fn parse(s: &str) -> Result<FaultPlan> {
        let mut plan = FaultPlan::new();
        for spec in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let bad = || Error::InvalidConfig(format!("bad fault spec `{spec}`"));
            let (head, budget) = match spec.rsplit_once('x') {
                Some((h, n)) if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => {
                    match n.parse::<u32>() {
                        Ok(budget) if budget > 0 => (h, budget),
                        _ => return Err(bad()),
                    }
                }
                _ => (spec, 1),
            };
            let (kind_worker, at) = head.split_once('@').ok_or_else(bad)?;
            let (kind, worker) = kind_worker.split_once(':').ok_or_else(bad)?;
            let worker: usize = worker.parse().map_err(|_| bad())?;
            let (axis, n) = at.split_once(':').ok_or_else(bad)?;
            let n: usize = n.parse().map_err(|_| bad())?;
            let site = match (kind, axis) {
                ("worker", "step") => FaultSite::WorkerCompute { worker, step: n },
                ("seal", "step") => FaultSite::SealBarrier { worker, step: n },
                ("spill-write", "step") => FaultSite::SpillWrite { worker, step: n },
                ("spill-read", "step") => FaultSite::SpillRead { worker, step: n },
                ("map", "round") => FaultSite::MapTask { worker, round: n },
                ("reduce", "round") => FaultSite::ReduceTask { worker, round: n },
                _ => return Err(bad()),
            };
            plan = plan.and_fail_times(site, budget);
        }
        Ok(plan)
    }

    /// Arm a fresh injector: every site's fire budget is reset.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            cells: Arc::new(
                self.faults
                    .iter()
                    .map(|&(site, budget)| Cell {
                        site,
                        remaining: AtomicU32::new(budget),
                    })
                    .collect(),
            ),
        }
    }
}

#[derive(Debug)]
struct Cell {
    site: FaultSite,
    remaining: AtomicU32,
}

/// An armed fault schedule, shared across an engine's worker threads.
/// Each check compares the call site against the schedule and, on a match
/// with budget left, consumes one firing and synthesizes the typed error a
/// real failure of that kind would produce. Clones share the budgets (a
/// fault fires its budgeted count per *run*, not per handle).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cells: Arc<Vec<Cell>>,
}

impl FaultInjector {
    fn fire(&self, site: FaultSite) -> bool {
        self.cells.iter().any(|c| {
            c.site == site
                && c.remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
        })
    }

    /// Injected worker death during compute of `step`.
    pub fn worker_compute(&self, worker: usize, step: usize) -> Option<Error> {
        self.fire(FaultSite::WorkerCompute { worker, step })
            .then(|| Error::WorkerLost {
                worker,
                detail: format!("injected compute failure at superstep {step}"),
            })
    }

    /// Injected seal-barrier failure at `step`.
    pub fn seal(&self, worker: usize, step: usize) -> Option<Error> {
        self.fire(FaultSite::SealBarrier { worker, step })
            .then(|| Error::WorkerLost {
                worker,
                detail: format!("injected seal-barrier failure at superstep {step}"),
            })
    }

    /// Injected spill write-out failure at the seal barrier of `step`.
    /// `dir` is the spill directory the lost file would have landed in.
    pub fn spill_write(&self, worker: usize, step: usize, dir: &Path) -> Option<Error> {
        self.fire(FaultSite::SpillWrite { worker, step }).then(|| {
            Error::Io(format!(
                "injected spill write-out failure under {} (worker {worker}, superstep {step})",
                dir.display()
            ))
        })
    }

    /// Injected windowed read-back failure while draining the inbox sealed
    /// at `step`.
    pub fn spill_read(&self, worker: usize, step: usize, dir: &Path) -> Option<Error> {
        self.fire(FaultSite::SpillRead { worker, step }).then(|| {
            Error::Io(format!(
                "injected spill windowed read-back failure under {} \
                 (worker {worker}, superstep {step})",
                dir.display()
            ))
        })
    }

    /// Injected map-task failure in MapReduce round `round`.
    pub fn map_task(&self, worker: usize, round: usize) -> Option<Error> {
        self.fire(FaultSite::MapTask { worker, round })
            .then(|| Error::WorkerLost {
                worker,
                detail: format!("injected map task failure in round {round}"),
            })
    }

    /// Injected reduce-task failure in MapReduce round `round`.
    pub fn reduce_task(&self, worker: usize, round: usize) -> Option<Error> {
        self.fire(FaultSite::ReduceTask { worker, round })
            .then(|| Error::WorkerLost {
                worker,
                detail: format!("injected reduce task failure in round {round}"),
            })
    }
}

/// Superstep checkpoint/recovery knobs for the Pregel engine (and the
/// task-retry bound for the MapReduce engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Checkpoint vertex state + sealed inboxes at the start of every
    /// `checkpoint_every`-th superstep (1 = every superstep; 0 is treated
    /// as 1).
    pub checkpoint_every: usize,
    /// How many times a run may replay from its last checkpoint (Pregel)
    /// or re-run a failed task (MapReduce) before the original transient
    /// error surfaces.
    pub max_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: 1,
            max_retries: 3,
        }
    }
}

impl RecoveryPolicy {
    pub fn new(checkpoint_every: usize, max_retries: u32) -> Self {
        RecoveryPolicy {
            checkpoint_every,
            max_retries,
        }
    }

    /// True when superstep `step` is due a checkpoint under this policy.
    pub fn due(&self, step: usize) -> bool {
        step.is_multiple_of(self.checkpoint_every.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_fires_each_site_its_budgeted_count() {
        let plan = FaultPlan::new()
            .and_fail(FaultSite::WorkerCompute { worker: 1, step: 2 })
            .and_fail_times(
                FaultSite::MapTask {
                    worker: 0,
                    round: 1,
                },
                2,
            );
        let inj = plan.injector();
        assert!(inj.worker_compute(0, 2).is_none(), "wrong worker");
        assert!(inj.worker_compute(1, 1).is_none(), "wrong step");
        let err = inj.worker_compute(1, 2).expect("scheduled fault");
        assert!(err.is_transient(), "{err}");
        assert!(err.to_string().contains("superstep 2"), "{err}");
        assert!(inj.worker_compute(1, 2).is_none(), "budget consumed");
        assert!(inj.map_task(0, 1).is_some());
        assert!(inj.map_task(0, 1).is_some(), "budget of 2");
        assert!(inj.map_task(0, 1).is_none());
        // A re-armed injector resets every budget.
        assert!(plan.injector().worker_compute(1, 2).is_some());
    }

    #[test]
    fn clones_share_the_budget() {
        let inj = FaultPlan::new()
            .and_fail(FaultSite::SealBarrier { worker: 0, step: 0 })
            .injector();
        let other = inj.clone();
        assert!(inj.seal(0, 0).is_some());
        assert!(
            other.seal(0, 0).is_none(),
            "clone must see the spent budget"
        );
    }

    #[test]
    fn spill_faults_are_io_errors_with_path_and_operation() {
        let inj = FaultPlan::new()
            .and_fail(FaultSite::SpillWrite { worker: 3, step: 1 })
            .and_fail(FaultSite::SpillRead { worker: 3, step: 1 })
            .injector();
        let dir = Path::new("/tmp/spill-dir");
        let w = inj.spill_write(3, 1, dir).expect("write fault");
        assert!(w.is_transient());
        let msg = w.to_string();
        assert!(
            msg.contains("write-out") && msg.contains("/tmp/spill-dir"),
            "{msg}"
        );
        let r = inj.spill_read(3, 1, dir).expect("read fault");
        let msg = r.to_string();
        assert!(
            msg.contains("read-back") && msg.contains("/tmp/spill-dir"),
            "{msg}"
        );
    }

    #[test]
    fn parse_round_trips_every_kind() {
        let plan = FaultPlan::parse(
            "worker:1@step:1, seal:0@step:2, spill-write:2@step:0, \
             spill-read:2@step:1, map:0@round:1, reduce:3@round:2x4",
        )
        .unwrap();
        let inj = plan.injector();
        assert!(inj.worker_compute(1, 1).is_some());
        assert!(inj.seal(0, 2).is_some());
        assert!(inj.spill_write(2, 0, Path::new("d")).is_some());
        assert!(inj.spill_read(2, 1, Path::new("d")).is_some());
        assert!(inj.map_task(0, 1).is_some());
        for _ in 0..4 {
            assert!(inj.reduce_task(3, 2).is_some());
        }
        assert!(inj.reduce_task(3, 2).is_none());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "worker:1",
            "worker:1@round:1",
            "bogus:1@step:1",
            "worker:x@step:1",
            // A zero budget can never fire: a drill that tests nothing.
            "worker:1@step:1x0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn recovery_policy_checkpoint_cadence() {
        let p = RecoveryPolicy::new(2, 1);
        assert!(p.due(0) && !p.due(1) && p.due(2));
        // 0 is treated as "every superstep", never divides-by-zero.
        assert!(RecoveryPolicy::new(0, 1).due(7));
        assert_eq!(RecoveryPolicy::default().max_retries, 3);
    }
}
