//! Fleet-wide admission control (paper §IV-A, applied across plans).
//!
//! A single plan decides Pregel vs MapReduce by comparing its own
//! predicted peak per-worker residency against a memory budget. A serving
//! fleet keeps many plans resident at once — each holds vertex states and
//! pooled engine scratch between requests — so the same comparison must be
//! made against the **sum**: a new plan is only admitted while
//! `Σ admitted residency + its residency ≤ budget` (inclusive, matching
//! `Backend::Auto`'s `pregel_fits`; the sum saturates, so an absurd
//! residency never wraps into fitting). Over budget, the configured
//! [`AdmissionPolicy`] decides: reject the newcomer, or shed the oldest
//! admitted plans until it fits.

use crate::cache::PlanKey;

/// What to do when a new plan does not fit the remaining fleet budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse the new plan; admitted plans keep serving.
    Reject,
    /// Evict admitted plans oldest-first until the newcomer fits. Pending
    /// requests of an evicted plan complete with
    /// [`ScoreStatus::Shed`](crate::ScoreStatus::Shed).
    ShedOldest,
}

/// Outcome of [`AdmissionController::try_admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission<T> {
    /// Admitted within the remaining budget.
    Admitted,
    /// Admitted after evicting these plans (admission order, oldest
    /// first), each handed back whole with its key: the caller resolves
    /// their pending requests.
    AdmittedAfterShedding(Vec<(PlanKey, T)>),
    /// Does not fit and the policy forbids (or shedding cannot free
    /// enough). Nothing changed; the offered record is dropped.
    Rejected,
}

/// The admission ledger: the fleet budget, the policy, and every admitted
/// plan in admission order (oldest first), each with its residency and
/// the record its owner keeps for it. The [`GnnServer`](crate::GnnServer)
/// keeps a plan's whole serving state here, so this one order is both
/// what shedding evicts from and what the server's flushes walk.
pub struct AdmissionController<T> {
    budget: u64,
    policy: AdmissionPolicy,
    admitted: Vec<(PlanKey, u64, T)>,
}

impl<T> AdmissionController<T> {
    pub fn new(budget: u64, policy: AdmissionPolicy) -> Self {
        AdmissionController {
            budget,
            policy,
            admitted: Vec::new(),
        }
    }

    /// The global budget the fleet is gated on.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Budget not yet claimed by admitted plans (0 when over).
    pub fn remaining(&self) -> u64 {
        self.budget.saturating_sub(self.resident_bytes())
    }

    /// Summed residency of the admitted fleet (saturating).
    pub fn resident_bytes(&self) -> u64 {
        self.admitted
            .iter()
            .fold(0, |sum, &(_, bytes, _)| sum.saturating_add(bytes))
    }

    /// Number of admitted plans.
    pub fn plans(&self) -> usize {
        self.admitted.len()
    }

    /// Where `key`'s plan sits in admission order, if it is admitted.
    pub fn position(&self, key: &PlanKey) -> Option<usize> {
        self.admitted.iter().position(|(k, _, _)| k == key)
    }

    /// The record kept for `key`'s plan, if it is admitted.
    pub fn get(&self, key: &PlanKey) -> Option<&T> {
        self.position(key).map(|at| &self.admitted[at].2)
    }

    pub fn get_mut(&mut self, key: &PlanKey) -> Option<&mut T> {
        self.position(key).map(|at| &mut self.admitted[at].2)
    }

    /// The `at`-th oldest admitted plan's key and record (`at <
    /// plans()`).
    pub fn at_mut(&mut self, at: usize) -> (&PlanKey, &mut T) {
        let (key, _, record) = &mut self.admitted[at];
        (key, record)
    }

    /// Every admitted plan's key and record, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&PlanKey, &T)> {
        self.admitted.iter().map(|(key, _, record)| (key, record))
    }

    /// Try to admit the plan `key` with `bytes` predicted peak residency,
    /// keeping `record` for it. An admitted plan becomes the newest. A key
    /// is admitted at most once; admitting it again is a caller logic
    /// error.
    pub fn try_admit(&mut self, key: PlanKey, bytes: u64, record: T) -> Admission<T> {
        assert!(
            self.position(&key).is_none(),
            "plan {key:?} already admitted"
        );
        let fits = |resident: u64| resident.saturating_add(bytes) <= self.budget;
        let mut resident = self.resident_bytes();
        let mut shed = 0;
        if !fits(resident) {
            // A plan larger than the whole budget can never fit; don't
            // shed a working fleet for it.
            if self.policy == AdmissionPolicy::Reject || bytes > self.budget {
                return Admission::Rejected;
            }
            while !fits(resident) {
                resident = resident.saturating_sub(self.admitted[shed].1);
                shed += 1;
            }
        }
        let shed: Vec<(PlanKey, T)> = self
            .admitted
            .drain(..shed)
            .map(|(key, _, record)| (key, record))
            .collect();
        self.admitted.push((key, bytes, record));
        if shed.is_empty() {
            Admission::Admitted
        } else {
            Admission::AdmittedAfterShedding(shed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_core::session::Backend;
    use inferturbo_core::StrategyConfig;

    fn key(id: u64) -> PlanKey {
        PlanKey {
            model: id,
            graph: id,
            strategy: StrategyConfig::all().key(),
            workers: 4,
            backend: Backend::Auto,
            spill_budget: None,
        }
    }

    #[test]
    fn reject_policy_is_inclusive_at_the_boundary() {
        let mut ac = AdmissionController::new(1_000, AdmissionPolicy::Reject);
        assert_eq!(ac.try_admit(key(1), 1_000, ()), Admission::Admitted);
        assert_eq!(ac.try_admit(key(2), 1, ()), Admission::Rejected);
        assert_eq!(ac.plans(), 1);
        assert_eq!(ac.remaining(), 0);
    }

    #[test]
    fn shed_oldest_evicts_in_admission_order() {
        let mut ac = AdmissionController::new(1_000, AdmissionPolicy::ShedOldest);
        assert_eq!(ac.try_admit(key(1), 400, "one"), Admission::Admitted);
        assert_eq!(ac.try_admit(key(2), 400, "two"), Admission::Admitted);
        // 300 needs 100 freed; only key(1) goes, handed back whole.
        assert_eq!(
            ac.try_admit(key(3), 300, "three"),
            Admission::AdmittedAfterShedding(vec![(key(1), "one")])
        );
        assert_eq!(ac.plans(), 2);
        assert_eq!(ac.resident_bytes(), 700);
        assert_eq!(ac.get(&key(1)), None);
        assert_eq!(ac.get(&key(2)), Some(&"two"));
        assert_eq!(ac.position(&key(3)), Some(1), "the newcomer is newest");
        // Larger than the whole budget: rejected without touching the
        // fleet.
        assert_eq!(ac.try_admit(key(4), 1_001, "four"), Admission::Rejected);
        assert_eq!(ac.plans(), 2);
        assert_eq!(ac.get(&key(4)), None);
    }

    #[test]
    fn fleet_admission_is_inclusive_like_auto_selection() {
        let mut ac = AdmissionController::new(1_000, AdmissionPolicy::Reject);
        assert_eq!(ac.try_admit(key(1), 600, ()), Admission::Admitted);
        assert_eq!(ac.remaining(), 400);
        assert_eq!(ac.try_admit(key(2), 401, ()), Admission::Rejected);
        assert_eq!(
            ac.try_admit(key(2), 400, ()),
            Admission::Admitted,
            "sum at the boundary still fits"
        );
        assert_eq!(ac.plans(), 2);
        assert_eq!(ac.remaining(), 0);

        // Saturating arithmetic: an absurd residency degrades to "never
        // fits a finite budget". Wrapping would read 600 + u64::MAX as
        // 599 and admit it.
        let mut ac = AdmissionController::new(u64::MAX - 1, AdmissionPolicy::Reject);
        assert_eq!(ac.try_admit(key(1), 600, ()), Admission::Admitted);
        assert_eq!(ac.try_admit(key(2), u64::MAX, ()), Admission::Rejected);

        // Under an unbounded budget the same pair is admitted: the sum
        // pins at u64::MAX instead of wrapping, the fleet is over its
        // budget, and nothing remains.
        let mut ac = AdmissionController::new(u64::MAX, AdmissionPolicy::Reject);
        assert_eq!(ac.try_admit(key(1), 600, ()), Admission::Admitted);
        assert_eq!(ac.try_admit(key(2), u64::MAX, ()), Admission::Admitted);
        assert_eq!(ac.resident_bytes(), u64::MAX);
        assert_eq!(ac.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "already admitted")]
    fn double_admit_is_a_logic_error() {
        let mut ac = AdmissionController::new(1_000, AdmissionPolicy::Reject);
        ac.try_admit(key(1), 100, ());
        ac.try_admit(key(1), 100, ());
    }
}
