//! Plan identity and the degraded-mode response cache.
//!
//! A [`PlanKey`] names one serving configuration. Planning is the
//! expensive, pure half of the session pipeline (record builds, shadow
//! mirroring, hub sets, cost estimation); the JIT-style amortisation
//! argument for long-lived GNN services is exactly that this work happens
//! **once per configuration**, not once per request. The key is the full
//! planning input — model and graph identity, [`StrategyKey`], worker
//! count, backend request, spill budget — so two keys that compare equal
//! are guaranteed to plan identically (planning is pure; see
//! `inferturbo_core::session`). The [`GnnServer`](crate::GnnServer) keeps
//! each planned configuration in its admission ledger
//! ([`AdmissionController`](crate::AdmissionController)) under this key,
//! from the submit that plans it until admission sheds it.
//!
//! The [`ResponseCache`] keeps the last known logits per node, backing
//! degraded-mode [`ServedStale`](crate::ScoreStatus::ServedStale) answers
//! under overload.

use crate::server::FeatureSnapshot;
use inferturbo_common::FxHashMap;
use inferturbo_core::session::Backend;
use inferturbo_core::StrategyKey;
use std::collections::VecDeque;
use std::sync::Arc;

/// Identity of one planned serving configuration. `model` and `graph` are
/// caller-assigned registry ids (see
/// [`GnnServer::register_model`](crate::GnnServer::register_model)); the
/// rest is the planning input itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub model: u64,
    pub graph: u64,
    pub strategy: StrategyKey,
    pub workers: usize,
    /// The *requested* backend (possibly `Auto`); the resolved backend is
    /// a plan property, not a key property.
    pub backend: Backend,
    /// Out-of-core spill budget the request planned under (`None` = no
    /// spilling). Part of the key because it shapes the plan's estimate,
    /// residency, and `Auto` backend resolution.
    pub spill_budget: Option<u64>,
}

/// Identity of the feature matrix a cached response was computed against.
///
/// Coalescing (and therefore response identity) is by `Arc` pointer, not
/// value equality, so the cache key uses the snapshot's allocation address
/// — with `0` as the sentinel for "the graph's own features" (`None`;
/// graph identity is already part of the [`PlanKey`]). The cache **pins**
/// the `Arc` of every snapshot it holds rows for, so an address can never
/// be recycled for a different snapshot while rows keyed by it are alive
/// (the ABA hazard of raw-pointer keys).
fn snapshot_ident(features: &Option<FeatureSnapshot>) -> usize {
    match features {
        None => 0,
        Some(snap) => Arc::as_ptr(snap) as usize,
    }
}

type ResponseKey = (PlanKey, usize, u32);

/// The degraded-mode response cache: the last known logits row per
/// `(plan, feature snapshot, node)`.
///
/// Fresh successful runs populate it; requests refused by the rate
/// limiter, a tripped circuit breaker, or an admission eviction are
/// answered [`ServedStale`](crate::ScoreStatus::ServedStale) from it when
/// every requested node hits — stale-but-instant beats failed, which is
/// exactly the serving trade "Efficient GNN Inference at Large Scale"
/// argues for repeated scores of unchanged nodes. Rows survive plan
/// eviction on purpose: serving stale while the plan is gone is the whole
/// point of a degraded mode.
///
/// Bounded by a row capacity with FIFO eviction — insertion order is
/// deterministic (run completion order × node order), so the cache's
/// contents replay bit-identically with the rest of the server.
pub struct ResponseCache {
    rows: FxHashMap<ResponseKey, Vec<f32>>,
    /// Insertion order of live keys (FIFO eviction).
    order: VecDeque<ResponseKey>,
    capacity: usize,
    /// Snapshot pins: `ident -> (the Arc, live-row refcount)`. Dropped at
    /// zero — safe, because with no rows left under an ident a recycled
    /// address can only ever be observed by *new* rows of the new
    /// snapshot.
    pins: FxHashMap<usize, (FeatureSnapshot, usize)>,
}

impl ResponseCache {
    /// A cache holding at most `capacity` logits rows (`0` disables it).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            rows: FxHashMap::default(),
            order: VecDeque::new(),
            capacity,
            pins: FxHashMap::default(),
        }
    }

    /// Record node `node`'s logits row from a fresh run of `plan` against
    /// `features`. Overwrites in place (runs are deterministic, so the row
    /// is bit-identical anyway) without disturbing eviction order.
    pub fn insert(
        &mut self,
        plan: PlanKey,
        features: &Option<FeatureSnapshot>,
        node: u32,
        row: Vec<f32>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let key = (plan, snapshot_ident(features), node);
        if let Some(existing) = self.rows.get_mut(&key) {
            *existing = row;
            return;
        }
        while self.rows.len() >= self.capacity {
            // rows and order move in lockstep; if they ever diverge, stop
            // evicting rather than loop on an empty queue.
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.rows.remove(&oldest);
            self.unpin(oldest.1);
        }
        if let Some(snap) = features {
            self.pins
                .entry(key.1)
                .or_insert_with(|| (Arc::clone(snap), 0))
                .1 += 1;
        }
        self.rows.insert(key, row);
        self.order.push_back(key);
    }

    /// Record a fresh run of `plan` against `features`: node `v`'s logits
    /// row is `logits[v]`. The cache is left exactly as [`insert`]ing each
    /// row in node order would leave it — contents, FIFO order and
    /// snapshot pins — but a row that loop would insert and then evict
    /// again is never cloned or inserted. With more nodes than capacity,
    /// that is most of them.
    ///
    /// The loop is replayed on counts: the queue is the live keys, then
    /// the run's pushes; a node whose key is still live at its turn is
    /// overwritten in place, any other is pushed, after evicting from the
    /// front until it fits.
    ///
    /// [`insert`]: ResponseCache::insert
    pub fn insert_run(
        &mut self,
        plan: PlanKey,
        features: &Option<FeatureSnapshot>,
        logits: &[Vec<f32>],
    ) {
        if self.capacity == 0 {
            return;
        }
        let ident = snapshot_ident(features);
        // Queue position of each node's key already live.
        let mut live = vec![usize::MAX; logits.len()];
        for (at, &(p, i, node)) in self.order.iter().enumerate() {
            if (p, i) == (plan, ident) && (node as usize) < logits.len() {
                live[node as usize] = at;
            }
        }
        let old = self.order.len();
        let (mut len, mut evicted) = (old, 0);
        let mut pushed = Vec::new();
        for (node, &at) in live.iter().enumerate() {
            if at != usize::MAX && at >= evicted {
                continue;
            }
            while len >= self.capacity {
                evicted += 1;
                len -= 1;
            }
            pushed.push(node as u32);
            len += 1;
        }
        for _ in 0..evicted.min(old) {
            if let Some(oldest) = self.order.pop_front() {
                self.rows.remove(&oldest);
                self.unpin(oldest.1);
            }
        }
        // Live keys that survive were overwritten with the run's row.
        for &(p, i, node) in &self.order {
            if (p, i) == (plan, ident) && (node as usize) < logits.len() {
                if let Some(row) = self.rows.get_mut(&(p, i, node)) {
                    row.clone_from(&logits[node as usize]);
                }
            }
        }
        let surviving = &pushed[evicted.saturating_sub(old)..];
        if let (Some(snap), false) = (features, surviving.is_empty()) {
            let pin = self.pins.entry(ident);
            pin.or_insert_with(|| (Arc::clone(snap), 0)).1 += surviving.len();
        }
        for &node in surviving {
            let key = (plan, ident, node);
            self.rows.insert(key, logits[node as usize].clone());
            self.order.push_back(key);
        }
    }

    /// The cached logits row for `(plan, features, node)`, if present.
    pub fn get(
        &self,
        plan: &PlanKey,
        features: &Option<FeatureSnapshot>,
        node: u32,
    ) -> Option<&[f32]> {
        self.rows
            .get(&(*plan, snapshot_ident(features), node))
            .map(Vec::as_slice)
    }

    /// Live cached rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn unpin(&mut self, ident: usize) {
        if ident == 0 {
            return;
        }
        if let Some(entry) = self.pins.get_mut(&ident) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.pins.remove(&ident);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_core::StrategyConfig;

    fn rkey(model: u64) -> PlanKey {
        PlanKey {
            model,
            graph: 1,
            strategy: StrategyConfig::all().key(),
            workers: 4,
            backend: Backend::Pregel,
            spill_budget: None,
        }
    }

    #[test]
    fn response_cache_keys_by_plan_snapshot_and_node() {
        let mut c = ResponseCache::new(16);
        let snap: FeatureSnapshot = Arc::new(vec![vec![0.0; 4]; 8]);
        c.insert(rkey(1), &None, 3, vec![1.0, 2.0]);
        c.insert(rkey(1), &Some(Arc::clone(&snap)), 3, vec![9.0, 9.0]);
        // Same plan + node, different snapshot identity: distinct rows.
        assert_eq!(c.get(&rkey(1), &None, 3), Some(&[1.0, 2.0][..]));
        assert_eq!(c.get(&rkey(1), &Some(snap), 3), Some(&[9.0, 9.0][..]));
        // Other plan / other node: misses.
        assert_eq!(c.get(&rkey(2), &None, 3), None);
        assert_eq!(c.get(&rkey(1), &None, 4), None);
        // A fresh re-run overwrites in place (no growth).
        c.insert(rkey(1), &None, 3, vec![5.0, 5.0]);
        assert_eq!(c.get(&rkey(1), &None, 3), Some(&[5.0, 5.0][..]));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn response_cache_evicts_fifo_at_capacity() {
        let mut c = ResponseCache::new(2);
        c.insert(rkey(1), &None, 0, vec![0.0]);
        c.insert(rkey(1), &None, 1, vec![1.0]);
        c.insert(rkey(1), &None, 2, vec![2.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&rkey(1), &None, 0), None, "oldest row evicted");
        assert!(c.get(&rkey(1), &None, 1).is_some());
        assert!(c.get(&rkey(1), &None, 2).is_some());
    }

    #[test]
    fn response_cache_capacity_zero_disables_caching() {
        let mut c = ResponseCache::new(0);
        c.insert(rkey(1), &None, 0, vec![0.0]);
        assert!(c.is_empty());
        assert_eq!(c.get(&rkey(1), &None, 0), None);
    }

    /// Everything a cache holds, in eviction order: each key with its
    /// row's bits, then each pin's snapshot address and count.
    type Image = (Vec<(ResponseKey, Vec<u32>)>, Vec<(usize, usize, usize)>);

    fn image(c: &ResponseCache) -> Image {
        let rows = c.order.iter().map(|k| {
            let row = c.rows[k].iter().map(|x| x.to_bits()).collect();
            (*k, row)
        });
        let mut pins: Vec<_> = c
            .pins
            .iter()
            .map(|(&ident, (snap, n))| (ident, Arc::as_ptr(snap) as usize, *n))
            .collect();
        pins.sort_unstable();
        (rows.collect(), pins)
    }

    /// `insert_run` leaves the cache byte-equal to the loop it replaces —
    /// `insert` of every row in node order — on random capacities, node
    /// counts and histories: keys already cached under the same plan and
    /// snapshot (some live at their turn, some evicted before it), under
    /// other snapshots and other plans, and runs repeated back to back.
    #[test]
    fn insert_run_leaves_what_inserting_every_row_in_order_leaves() {
        let snaps: Vec<Option<FeatureSnapshot>> = vec![
            None,
            Some(Arc::new(vec![vec![0.0; 2]; 3])),
            Some(Arc::new(vec![vec![1.0; 2]; 3])),
        ];
        let mut rng = inferturbo_common::Xoshiro256::seed_from_u64(91);
        for case in 0..600 {
            let capacity = rng.below(14) as usize;
            let (mut fast, mut oracle) =
                (ResponseCache::new(capacity), ResponseCache::new(capacity));
            for step in 0..1 + rng.below(4) {
                let plan = rkey(1 + rng.below(2));
                let snap = &snaps[rng.below(3) as usize];
                if rng.below(2) == 0 {
                    // A single row, as any earlier caller left it.
                    let node = rng.below(20) as u32;
                    let row = vec![rng.below(100) as f32];
                    fast.insert(plan, snap, node, row.clone());
                    oracle.insert(plan, snap, node, row);
                } else {
                    let logits: Vec<Vec<f32>> = (0..rng.below(20))
                        .map(|v| vec![v as f32, (case * 7 + step) as f32])
                        .collect();
                    fast.insert_run(plan, snap, &logits);
                    for (v, row) in logits.iter().enumerate() {
                        oracle.insert(plan, snap, v as u32, row.clone());
                    }
                }
                assert_eq!(image(&fast), image(&oracle), "case {case}, step {step}");
            }
        }
    }

    #[test]
    fn response_cache_pins_snapshots_against_address_reuse() {
        let mut c = ResponseCache::new(4);
        let snap: FeatureSnapshot = Arc::new(vec![vec![0.0; 4]; 8]);
        let weak = Arc::downgrade(&snap);
        c.insert(rkey(1), &Some(Arc::clone(&snap)), 0, vec![7.0]);
        drop(snap);
        // The cache's pin keeps the snapshot allocation alive, so its
        // address cannot be recycled into a colliding key.
        assert!(weak.upgrade().is_some(), "cache pins the snapshot Arc");
        // Evicting the last row under the snapshot releases the pin.
        for node in 1..=4 {
            c.insert(rkey(1), &None, node, vec![0.0]);
        }
        assert!(weak.upgrade().is_none(), "last row out = pin released");
    }
}
