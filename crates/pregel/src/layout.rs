//! The resident vertex layout: where every vertex lives and where each of
//! its out-edges leads, decided once and shared by every run.
//!
//! A [`PregelLayout`] is the engine's placement made explicit, built in
//! one go by [`PregelLayout::planned`]. Per worker it holds the **slot
//! table** (vertex ids in slot order), for the whole cluster the one
//! `id → (worker, slot)` index, and every vertex's out-edges as
//! pre-resolved [`Route`]s in one flat CSR per worker (four bytes an
//! edge), so a scatter names its destinations by position and the engine's
//! routing loop never hashes an id. A program that addresses messages by
//! vertex id instead lays out with empty target lists. A layout is
//! immutable once built — the engine holds it behind an `Arc`, and a
//! session plan keeps the same `Arc` alive across runs, which is what
//! makes "load the graph once" literal.

use inferturbo_common::hash::partition_of;
use inferturbo_common::{Error, FxHashMap, Result};
use std::collections::hash_map::Entry;

/// A pre-resolved message destination: the worker a vertex lives on and
/// its slot there, packed into four bytes (worker in the high bits, slot
/// in the low ones; the split is the layout's, fixed by its worker count —
/// see [`PregelLayout::unpack`]). Routes are handed out by the
/// [`PregelLayout`] that placed the vertex and are only meaningful on
/// that layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route(u32);

/// One worker's share of the layout.
#[derive(Debug, Clone)]
struct WorkerLayout {
    /// Slot → vertex id.
    ids: Vec<u64>,
    /// Slot → load position (the vertex's index in the order the layout
    /// was given its vertices).
    positions: Vec<u32>,
    /// Slot `s`'s planned out-edges are `routes[offsets[s]..offsets[s+1]]`.
    offsets: Vec<u32>,
    routes: Vec<Route>,
}

impl WorkerLayout {
    fn new() -> Self {
        WorkerLayout {
            ids: Vec::new(),
            positions: Vec::new(),
            offsets: vec![0],
            routes: Vec::new(),
        }
    }

    fn edges(&self, slot: usize) -> &[Route] {
        &self.routes[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }
}

/// One vertex of a layout, as [`PregelLayout::vertices`] yields it.
#[derive(Debug, Clone, Copy)]
pub struct PlacedVertex<'l> {
    pub id: u64,
    /// Index of this vertex in the order the layout was given its
    /// vertices (for a planned layout: the index of its record).
    pub position: usize,
    /// The vertex's planned out-edges, in the order they were given.
    pub edges: &'l [Route],
}

/// See the module docs.
#[derive(Debug, Clone)]
pub struct PregelLayout {
    workers: Vec<WorkerLayout>,
    index: FxHashMap<u64, Route>,
    /// Low bits of a [`Route`] that hold the slot: 32 minus what it takes
    /// to number the workers.
    slot_bits: u32,
}

impl PregelLayout {
    /// An empty layout over `workers` workers, for
    /// [`PregelLayout::planned`] to fill.
    fn new(workers: usize) -> Self {
        let worker_bits = usize::BITS - workers.saturating_sub(1).leading_zeros();
        PregelLayout {
            workers: (0..workers).map(|_| WorkerLayout::new()).collect(),
            index: FxHashMap::default(),
            slot_bits: 32u32.saturating_sub(worker_bits),
        }
    }

    /// The (worker, slot) a route names. Workers × slots share 32 bits:
    /// with `W` workers a worker holds up to `2^(32 - ⌈log2 W⌉)` slots —
    /// about 2^32 vertices in all under hash partitioning, the same bound
    /// the engine's `u32` slots and arena offsets already set.
    #[inline]
    pub fn unpack(&self, route: Route) -> (usize, u32) {
        let packed = route.0 as u64;
        (
            (packed >> self.slot_bits) as usize,
            (packed & ((1u64 << self.slot_bits) - 1)) as u32,
        )
    }

    /// Place one more vertex: hash-partitioned to its worker, appended to
    /// that worker's slot table. Ids must be unique.
    fn add_vertex(&mut self, id: u64) -> Result<Route> {
        if self.workers.is_empty() {
            return Err(Error::InvalidConfig(
                "a layout needs at least one worker".into(),
            ));
        }
        let w = partition_of(id, self.workers.len());
        let position = u32::try_from(self.index.len())
            .map_err(|_| Error::Capacity("more than u32::MAX vertices in one layout".into()))?;
        let worker = &mut self.workers[w];
        let (wide_w, slot) = (w as u64, worker.ids.len() as u64);
        if slot >> self.slot_bits != 0 || (wide_w << self.slot_bits) >> 32 != 0 {
            return Err(Error::Capacity(format!(
                "worker {w} is full: {slot} slots is all a route can address \
                 across {} workers",
                self.workers.len()
            )));
        }
        let route = Route(((wide_w << self.slot_bits) | slot) as u32);
        match self.index.entry(id) {
            Entry::Occupied(_) => {
                return Err(Error::InvalidGraph(format!("duplicate vertex id {id}")));
            }
            Entry::Vacant(e) => e.insert(route),
        };
        worker.ids.push(id);
        worker.positions.push(position);
        worker.offsets.push(worker.routes.len() as u32);
        Ok(route)
    }

    /// Lay out a whole graph at once: `vertices` yields each vertex's id
    /// and out-target ids in load order (ids must be unique; a vertex whose
    /// program addresses by id passes no targets); every target is
    /// resolved to a [`Route`] here, so a target that names no vertex is a
    /// typed [`Error::InvalidGraph`] now instead of a failed superstep
    /// later. Resolution is one lookup in the layout's own id index per
    /// edge, paid once. (A hash-free variant — callers with dense ids
    /// guessing a target's load position, verified against the id loaded
    /// there — was measured slower: two dependent array reads lose to one
    /// FxHash probe.)
    pub fn planned<'a, I>(workers: usize, vertices: I) -> Result<Self>
    where
        I: Iterator<Item = (u64, &'a [u64])> + Clone,
    {
        let mut layout = PregelLayout::new(workers);
        let n = vertices.size_hint().0;
        layout.index.reserve(n);
        // Where each vertex landed, in load order, and each worker's
        // out-edge total so its CSR is allocated once, exactly.
        let mut placed = Vec::with_capacity(n);
        let mut n_routes = vec![0usize; workers];
        for (id, targets) in vertices.clone() {
            let route = layout.add_vertex(id)?;
            let at = layout.unpack(route);
            n_routes[at.0] += targets.len();
            placed.push(at);
        }
        for (worker, &n) in layout.workers.iter_mut().zip(&n_routes) {
            if u32::try_from(n).is_err() {
                return Err(Error::Capacity(format!(
                    "{n} planned out-edges on one worker exceed its u32 offsets"
                )));
            }
            worker.routes.reserve_exact(n);
        }
        let PregelLayout { workers, index, .. } = &mut layout;
        for ((w, slot), (_, targets)) in placed.into_iter().zip(vertices) {
            let worker = &mut workers[w];
            for &t in targets {
                let route = index
                    .get(&t)
                    .ok_or_else(|| Error::InvalidGraph(format!("message to unknown vertex {t}")))?;
                worker.routes.push(*route);
            }
            // Vertices of one worker arrive in slot order, so its CSR
            // closes one slot at a time.
            worker.offsets[slot as usize + 1] = worker.routes.len() as u32;
        }
        Ok(layout)
    }

    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    pub fn n_vertices(&self) -> usize {
        self.index.len()
    }

    /// Number of slots on worker `w`.
    pub fn n_slots(&self, w: usize) -> usize {
        self.workers[w].ids.len()
    }

    /// Worker `w`'s slot table: vertex ids in slot order.
    pub fn ids(&self, w: usize) -> &[u64] {
        &self.workers[w].ids
    }

    /// The id of the vertex a route leads to.
    pub fn id_of(&self, route: Route) -> u64 {
        let (w, slot) = self.unpack(route);
        self.workers[w].ids[slot as usize]
    }

    /// Where vertex `id` lives, if it is in the layout.
    pub fn resolve(&self, id: u64) -> Option<Route> {
        self.index.get(&id).copied()
    }

    /// Every vertex in engine order: worker ascending, slot ascending —
    /// the order [`crate::PregelEngine::with_layout`] takes its states in.
    pub fn vertices(&self) -> impl Iterator<Item = PlacedVertex<'_>> {
        self.workers.iter().flat_map(|worker| {
            (0..worker.ids.len()).map(move |s| PlacedVertex {
                id: worker.ids[s],
                position: worker.positions[s] as usize,
                edges: worker.edges(s),
            })
        })
    }

    /// How many fused partial rows one scatter over the planned edges
    /// produces: the number of distinct (sender worker, destination
    /// vertex) pairs among the out-edges of every vertex `sends` admits
    /// (by load position). One O(E) pass over a last-seen-sender array.
    pub fn fused_partials(&self, sends: impl Fn(usize) -> bool) -> u64 {
        let mut base = Vec::with_capacity(self.workers.len());
        let mut total = 0usize;
        for worker in &self.workers {
            base.push(total);
            total += worker.ids.len();
        }
        let mut last_sender = vec![u32::MAX; total];
        let mut partials = 0u64;
        for (w, worker) in self.workers.iter().enumerate() {
            for (s, &position) in worker.positions.iter().enumerate() {
                if !sends(position as usize) {
                    continue;
                }
                for &r in worker.edges(s) {
                    let (w2, slot) = self.unpack(r);
                    let seen = &mut last_sender[base[w2] + slot as usize];
                    if *seen != w as u32 {
                        *seen = w as u32;
                        partials += 1;
                    }
                }
            }
        }
        partials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adjacency() -> Vec<(u64, Vec<u64>)> {
        vec![
            (10, vec![11, 12, 11]),
            (11, vec![]),
            (12, vec![10]),
            (13, vec![12, 10, 11]),
        ]
    }

    fn plan(workers: usize, adj: &[(u64, Vec<u64>)]) -> Result<PregelLayout> {
        PregelLayout::planned(workers, adj.iter().map(|(id, t)| (*id, t.as_slice())))
    }

    #[test]
    fn planned_routes_name_the_targets_in_order() {
        for workers in [1usize, 2, 3] {
            let adj = adjacency();
            let layout = plan(workers, &adj).unwrap();
            assert_eq!(layout.n_vertices(), 4);
            let mut seen = 0;
            for v in layout.vertices() {
                let (id, targets) = &adj[v.position];
                assert_eq!(v.id, *id);
                let named: Vec<u64> = v.edges.iter().map(|&r| layout.id_of(r)).collect();
                assert_eq!(&named, targets, "vertex {id} at {workers} workers");
                let (w, _) = layout.unpack(layout.resolve(*id).unwrap());
                assert_eq!(w, partition_of(*id, workers));
                seen += 1;
            }
            assert_eq!(seen, 4);
        }
    }

    #[test]
    fn duplicate_vertex_is_a_typed_error() {
        let err = plan(2, &[(5, vec![]), (6, vec![5]), (5, vec![])]).unwrap_err();
        assert!(matches!(err, Error::InvalidGraph(_)), "{err}");
        assert!(err.to_string().contains("duplicate vertex id 5"), "{err}");
    }

    #[test]
    fn unknown_target_fails_the_build() {
        let mut adj = adjacency();
        adj[2].1.push(999);
        let err = plan(2, &adj).unwrap_err();
        assert!(matches!(err, Error::InvalidGraph(_)), "{err}");
        assert!(err.to_string().contains("unknown vertex 999"), "{err}");
    }

    #[test]
    fn fused_partials_counts_distinct_sender_destination_pairs() {
        let adj = adjacency();
        for workers in [1usize, 2, 4] {
            let layout = plan(workers, &adj).unwrap();
            let mut pairs = std::collections::BTreeSet::new();
            for (id, targets) in &adj {
                for t in targets {
                    pairs.insert((partition_of(*id, workers), *t));
                }
            }
            assert_eq!(layout.fused_partials(|_| true), pairs.len() as u64);
            // Excluding vertex 13 (position 3) drops only its pairs.
            let mut kept = std::collections::BTreeSet::new();
            for (id, targets) in adj.iter().filter(|(id, _)| *id != 13) {
                for t in targets {
                    kept.insert((partition_of(*id, workers), *t));
                }
            }
            assert_eq!(layout.fused_partials(|p| p != 3), kept.len() as u64);
        }
    }
}
