//! The resident vertex layout: where every vertex lives and where each of
//! its out-edges leads, decided once and shared by every run of both
//! engines.
//!
//! A [`Layout`] is the engines' placement made explicit, built in one go
//! by [`Layout::planned`]. Per worker it holds the **slot table** (vertex
//! ids in slot order), for the whole cluster the one `id → (worker, slot)`
//! index, and every vertex's out-edges as pre-resolved [`Route`]s in one
//! flat CSR per worker (four bytes an edge), so a scatter names its
//! destinations by position and no routing loop hashes an id. A program that addresses messages by vertex
//! id instead lays out with empty target lists. A layout is immutable once
//! built — a session plan keeps it behind an `Arc` across runs, which is
//! what makes "load the graph once" literal: the Pregel engine holds a
//! clone of that `Arc`, the batch engine borrows it.
use crate::hash::partition_of;
use crate::{Error, FxHashMap, Result};
use std::collections::hash_map::Entry;
use std::sync::OnceLock;

/// A pre-resolved message destination: the worker a vertex lives on and
/// its slot there, packed into four bytes (worker in the high bits, slot
/// in the low ones; the split is the layout's, fixed by its worker count —
/// see [`Layout::unpack`]). Routes are handed out by the
/// [`Layout`] that placed the vertex and are only meaningful on
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

/// One vertex of a layout, as [`Layout::vertices`] yields it.
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
pub struct Layout {
    workers: Vec<WorkerLayout>,
    index: FxHashMap<u64, Route>,
    /// Per worker, its slots in ascending id order where mirrors
    /// interleave the ids (empty where slot order already is), counted
    /// on first use — only a reducer that visits keys by id asks.
    by_id: OnceLock<Vec<Vec<u32>>>,
    /// Low bits of a [`Route`] that hold the slot: 32 minus what it takes
    /// to number the workers.
    slot_bits: u32,
}

impl Layout {
    /// An empty layout over `workers` workers, for
    /// [`Layout::planned`] to fill.
    fn new(workers: usize) -> Self {
        let worker_bits = usize::BITS - workers.saturating_sub(1).leading_zeros();
        Layout {
            workers: (0..workers).map(|_| WorkerLayout::new()).collect(),
            index: FxHashMap::default(),
            by_id: OnceLock::new(),
            slot_bits: 32u32.saturating_sub(worker_bits),
        }
    }

    /// The (worker, slot) a route names. Workers × slots share 32 bits:
    /// with `W` workers a worker holds up to `2^(32 - ⌈log2 W⌉)` slots —
    /// about 2^32 vertices in all under hash partitioning, the same bound
    /// the engines' `u32` slots and arena offsets already set.
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
        let mut layout = Layout::new(workers);
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
        let Layout { workers, index, .. } = &mut layout;
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

    /// Where each vertex lives, by load position.
    pub fn placements(&self) -> Vec<Route> {
        let mut placed = vec![Route(0); self.n_vertices()];
        for (w, worker) in self.workers.iter().enumerate() {
            for (slot, &position) in worker.positions.iter().enumerate() {
                placed[position as usize] =
                    Route(((w as u64) << self.slot_bits | slot as u64) as u32);
            }
        }
        placed
    }

    /// The planned out-edges of the vertex a route leads to.
    pub fn edges(&self, route: Route) -> &[Route] {
        let (w, slot) = self.unpack(route);
        self.workers[w].edges(slot as usize)
    }

    /// Worker `w`'s slots in ascending vertex-id order: slot order itself
    /// unless mirrors interleave the ids, then a permutation the layout
    /// sorts once, on the first call, and keeps.
    pub fn slots_by_id(&self, w: usize) -> impl Iterator<Item = u32> + '_ {
        let by_id = self.by_id.get_or_init(|| {
            let sorted = |ids: &[u64]| {
                let mut by_id: Vec<u32> = (0..ids.len() as u32).collect();
                by_id.sort_unstable_by_key(|&s| ids[s as usize]);
                by_id
            };
            self.workers
                .iter()
                .map(|worker| match worker.ids.is_sorted() {
                    true => Vec::new(),
                    false => sorted(&worker.ids),
                })
                .collect()
        });
        let order = &by_id[w];
        (0..self.n_slots(w) as u32).map(move |s| order.get(s as usize).copied().unwrap_or(s))
    }

    /// Every vertex in engine order: worker ascending, slot ascending —
    /// the order the Pregel engine takes its states in.
    pub fn vertices(&self) -> impl Iterator<Item = PlacedVertex<'_>> {
        self.workers.iter().flat_map(|worker| {
            (0..worker.ids.len()).map(move |s| PlacedVertex {
                id: worker.ids[s],
                position: worker.positions[s] as usize,
                edges: worker.edges(s),
            })
        })
    }

    /// How many rows and typed messages each cell of a superstep's shard
    /// grid takes when every vertex sends one message over all its planned
    /// out-edges from the worker it lives on: a row, or — when `hub` admits
    /// it (by load position) — one typed message. Per sender worker that
    /// is the rows its table takes and the messages its typed table takes;
    /// per (sender, destination worker) the row and typed references it
    /// sends and the distinct destination slots its rows fold into; and
    /// per destination the distinct slots any sender's rows reach. One
    /// O(E) pass over a last-seen-sender array.
    pub fn cell_counts(&self, hub: impl Fn(usize) -> bool) -> CellCounts {
        let senders = self.workers.iter().enumerate().flat_map(|(w, worker)| {
            (0..worker.ids.len()).map(move |s| (w, worker.positions[s] as usize, worker.edges(s)))
        });
        self.count_cells(senders, hub)
    }

    /// [`Layout::cell_counts`] for a round-robin split of the vertices
    /// instead: the vertex loaded at position `p` (where `placed[p]`,
    /// from [`Layout::placements`]) scatters from worker `p % workers`,
    /// the order a map phase's input splits take.
    pub fn split_cell_counts(&self, placed: &[Route], hub: impl Fn(usize) -> bool) -> CellCounts {
        let n = self.workers.len();
        let senders = (0..n).flat_map(|m| {
            (m..placed.len())
                .step_by(n.max(1))
                .map(move |p| (m, p, self.edges(placed[p])))
        });
        self.count_cells(senders, hub)
    }

    /// The counting pass behind both: `senders` yields `(sender worker,
    /// load position, out-edges)` with each sender's vertices together.
    fn count_cells<'l>(
        &self,
        senders: impl Iterator<Item = (usize, usize, &'l [Route])>,
        hub: impl Fn(usize) -> bool,
    ) -> CellCounts {
        let n = self.workers.len();
        let mut base = Vec::with_capacity(n);
        let mut total = 0usize;
        for worker in &self.workers {
            base.push(total);
            total += worker.ids.len();
        }
        let mut counts = CellCounts {
            workers: n,
            table_rows: vec![0; n],
            refs: vec![0; n * n],
            partials: vec![0; n * n],
            receivers: vec![0; n],
            typed_table: vec![0; n],
            typed_refs: vec![0; n * n],
        };
        let mut last_sender = vec![u32::MAX; total];
        for (w, position, edges) in senders {
            if edges.is_empty() {
                continue;
            }
            if hub(position) {
                counts.typed_table[w] += 1;
                for &r in edges {
                    counts.typed_refs[w * n + self.unpack(r).0] += 1;
                }
                continue;
            }
            counts.table_rows[w] += 1;
            for &r in edges {
                let (w2, slot) = self.unpack(r);
                counts.refs[w * n + w2] += 1;
                let seen = &mut last_sender[base[w2] + slot as usize];
                if *seen != w as u32 {
                    if *seen == u32::MAX {
                        counts.receivers[w2] += 1;
                    }
                    *seen = w as u32;
                    counts.partials[w * n + w2] += 1;
                }
            }
        }
        counts
    }
}

/// The size of every cell of a superstep's shard grid, counted once from a
/// layout ([`Layout::cell_counts`]) so an engine can reserve each
/// pooled cell exactly instead of growing it. The default counts nothing:
/// every cell then grows as it is written.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellCounts {
    workers: usize,
    /// Per sender worker: rows its table takes.
    table_rows: Vec<usize>,
    /// `[sender * workers + destination]`: references sent.
    refs: Vec<usize>,
    /// `[sender * workers + destination]`: distinct destination slots.
    partials: Vec<usize>,
    /// Per destination worker: distinct slots any sender reaches.
    receivers: Vec<usize>,
    /// Per sender worker: typed messages its typed table takes.
    typed_table: Vec<usize>,
    /// `[sender * workers + destination]`: typed references sent.
    typed_refs: Vec<usize>,
}

impl CellCounts {
    /// Rows sender `w`'s table takes (0 past the counted workers).
    pub fn table_rows(&self, w: usize) -> usize {
        self.table_rows.get(w).copied().unwrap_or(0)
    }

    /// References sender `w` sends to worker `w2`.
    pub fn refs(&self, w: usize, w2: usize) -> usize {
        self.cell(&self.refs, w, w2)
    }

    /// Distinct slots of worker `w2` sender `w` folds into: its fused
    /// partials bound there.
    pub fn partials(&self, w: usize, w2: usize) -> usize {
        self.cell(&self.partials, w, w2)
    }

    /// Typed messages sender `w`'s typed table takes.
    pub fn typed_table(&self, w: usize) -> usize {
        self.typed_table.get(w).copied().unwrap_or(0)
    }

    /// Typed references sender `w` sends to worker `w2`.
    pub fn typed_refs(&self, w: usize, w2: usize) -> usize {
        self.cell(&self.typed_refs, w, w2)
    }

    /// Distinct slots of worker `w2` that receive any row.
    pub fn receivers(&self, w2: usize) -> usize {
        self.receivers.get(w2).copied().unwrap_or(0)
    }

    fn cell(&self, cells: &[usize], w: usize, w2: usize) -> usize {
        if w2 < self.workers {
            cells.get(w * self.workers + w2).copied().unwrap_or(0)
        } else {
            0
        }
    }

    /// References over the whole grid: one per edge of an admitted sender.
    pub fn total_refs(&self) -> u64 {
        self.refs.iter().sum::<usize>() as u64
    }

    /// Fused partials over the whole grid: one per distinct (sender
    /// worker, destination vertex) pair.
    pub fn total_partials(&self) -> u64 {
        self.partials.iter().sum::<usize>() as u64
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

    fn plan(workers: usize, adj: &[(u64, Vec<u64>)]) -> Result<Layout> {
        Layout::planned(workers, adj.iter().map(|(id, t)| (*id, t.as_slice())))
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
                assert_eq!(
                    layout.placements()[v.position],
                    layout.resolve(*id).unwrap()
                );
                seen += 1;
            }
            assert_eq!(seen, 4);
            for w in 0..workers {
                let by_id: Vec<u64> = layout
                    .slots_by_id(w)
                    .map(|s| layout.ids(w)[s as usize])
                    .collect();
                let mut sorted = layout.ids(w).to_vec();
                sorted.sort_unstable();
                assert_eq!(by_id, sorted, "worker {w} of {workers}");
            }
        }
        // Ids loaded out of order (as mirrors interleave them) are
        // visited ascending all the same.
        let shuffled = Layout::planned(1, [5u64, 3, 9, 1].iter().map(|&id| (id, &[][..]))).unwrap();
        let by_id: Vec<u64> = shuffled
            .slots_by_id(0)
            .map(|s| shuffled.ids(0)[s as usize])
            .collect();
        assert_eq!(by_id, [1, 3, 5, 9]);
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
    fn cell_counts_count_each_senders_rows_refs_and_distinct_slots() {
        let adj = adjacency();
        for workers in [1usize, 2, 4] {
            let layout = plan(workers, &adj).unwrap();
            // Vertex 13 (position 3) as a hub moves its cells' share from
            // the rows to the typed plane.
            for hub in [None, Some(3usize)] {
                let counts = layout.cell_counts(|p| Some(p) == hub);
                let (mut rows, mut refs) = (vec![0; workers], vec![0; workers * workers]);
                let (mut typed, mut typed_refs) = (vec![0; workers], vec![0; workers * workers]);
                let mut pairs = std::collections::BTreeSet::new();
                for (p, (id, targets)) in adj.iter().enumerate() {
                    if targets.is_empty() {
                        continue;
                    }
                    let w = partition_of(*id, workers);
                    if Some(p) == hub {
                        typed[w] += 1;
                        for t in targets {
                            typed_refs[w * workers + partition_of(*t, workers)] += 1;
                        }
                        continue;
                    }
                    rows[w] += 1;
                    for t in targets {
                        refs[w * workers + partition_of(*t, workers)] += 1;
                        pairs.insert((w, partition_of(*t, workers), *t));
                    }
                }
                for w in 0..workers {
                    assert_eq!(counts.table_rows(w), rows[w]);
                    assert_eq!(counts.typed_table(w), typed[w]);
                    for w2 in 0..workers {
                        assert_eq!(counts.refs(w, w2), refs[w * workers + w2]);
                        assert_eq!(counts.typed_refs(w, w2), typed_refs[w * workers + w2]);
                        let distinct = pairs.iter().filter(|p| (p.0, p.1) == (w, w2));
                        assert_eq!(counts.partials(w, w2), distinct.count());
                    }
                }
                assert_eq!(counts.total_refs(), refs.iter().sum::<usize>() as u64);
                assert_eq!(counts.total_partials(), pairs.len() as u64);
                for w2 in 0..workers {
                    let reached: std::collections::BTreeSet<u64> =
                        pairs.iter().filter(|p| p.1 == w2).map(|p| p.2).collect();
                    assert_eq!(counts.receivers(w2), reached.len());
                }
                // Split round-robin by load position instead, the same
                // edges count the same references and receivers.
                let split = layout.split_cell_counts(&layout.placements(), |p| Some(p) == hub);
                assert_eq!(split.total_refs(), counts.total_refs());
                for w2 in 0..workers {
                    assert_eq!(split.receivers(w2), counts.receivers(w2));
                    let by_mapper: usize = (0..workers).map(|m| split.refs(m, w2)).sum();
                    let by_worker: usize = (0..workers).map(|w| counts.refs(w, w2)).sum();
                    assert_eq!(by_mapper, by_worker);
                }
            }
            // Past the counted workers every cell is empty.
            let counts = layout.cell_counts(|_| false);
            assert_eq!(
                (counts.table_rows(workers), counts.refs(0, workers)),
                (0, 0)
            );
            assert_eq!(
                (counts.typed_table(workers), counts.typed_refs(0, workers)),
                (0, 0)
            );
            assert_eq!(CellCounts::default().partials(0, 0), 0);
        }
    }
}
