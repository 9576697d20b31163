//! Scoped fork-join parallelism for the workspace's hot paths.
//!
//! Every engine in this repo simulates a *distributed* cluster, but until
//! this module existed the simulation itself ran on one OS thread. `par`
//! turns the logical worker partitioning (`partition_fn`,
//! `ClusterSpec::workers`) into real multi-core execution without taking a
//! dependency on rayon: plain `std::thread::scope` fork-join with
//! contiguous chunk assignment.
//!
//! # Determinism contract
//!
//! Parallel execution must be **observably identical** to serial execution
//! — same outputs, same bytes on the wire, same report metrics — for every
//! thread count. Callers uphold this by construction, not by locking:
//!
//! 1. **Disjoint writes.** Each task owns a disjoint slice of the output
//!    (a worker's vertex states, a row-chunk of a matrix, a segment range).
//!    Nothing is shared mutably, so no locks and no interleaving.
//! 2. **Ordered merges.** Anything that crosses tasks (outbox shards,
//!    routed shuffle records, metric deltas) is buffered per
//!    (task × destination) and merged *after* the join in ascending task
//!    index — the exact order the serial loop would have produced.
//! 3. **Fixed reduction shapes.** Floating-point accumulation orders never
//!    depend on the thread count: a task always processes its items in
//!    input order, and chunk boundaries are functions of the data (worker
//!    id, fixed block size), never of `Parallelism`. `Parallelism(1)`
//!    therefore produces bit-identical results to `Parallelism(N)`.
//!
//! The `parallel_matches_serial` suite in the workspace root enforces this
//! contract across the Pregel engine, the MapReduce engine, and every
//! tensor kernel.
//!
//! # Configuration
//!
//! The global thread budget comes from, in priority order:
//! 1. [`Parallelism::set`] (programmatic override);
//! 2. the `INFERTURBO_THREADS` environment variable;
//! 3. `std::thread::available_parallelism()`.
//!
//! A budget of `1` runs every helper inline on the calling thread — no
//! threads are spawned, giving exactly the pre-parallelism serial
//! behavior.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// 0 = "not resolved yet"; resolved lazily on first read.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Serializes tests that temporarily change the global budget.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Global thread-budget configuration.
pub struct Parallelism;

impl Parallelism {
    /// The current thread budget (≥ 1).
    #[expect(
        clippy::disallowed_methods,
        reason = "INFERTURBO_THREADS is a deployment setting: the thread budget never changes what a run computes"
    )]
    pub fn get() -> usize {
        let t = THREADS.load(Ordering::Relaxed);
        if t != 0 {
            return t;
        }
        let resolved = std::env::var("INFERTURBO_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        THREADS.store(resolved, Ordering::Relaxed);
        resolved
    }

    /// Set the global thread budget. `n` is clamped to at least 1.
    pub fn set(n: usize) {
        THREADS.store(n.max(1), Ordering::Relaxed);
    }

    /// Run `f` with the budget temporarily set to `n`, restoring the
    /// previous value afterwards (also on panic).
    ///
    /// **Not reentrant**: the global lock below is a plain `Mutex`, so
    /// calling `with` from inside another `with` on the same thread
    /// deadlocks. Use [`Parallelism::set`] inside an outer `with` if a
    /// nested override is ever needed.
    ///
    /// Holds a global lock so concurrent `with` calls (e.g. from the test
    /// harness's thread pool) serialize instead of clobbering each other.
    /// Code that merely *reads* the budget concurrently may observe the
    /// override — harmless, because the determinism contract makes results
    /// independent of the thread count.
    pub fn with<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard: MutexGuard<'_, ()> = OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let prev = Parallelism::get();
        Parallelism::set(n);
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                Parallelism::set(self.0);
            }
        }
        let _restore = Restore(prev);
        f()
    }
}

/// Fork-join map over owned items: `f(index, item)` for every item, results
/// returned in input order.
///
/// Items are split into one contiguous chunk per thread (at most
/// `Parallelism::get()` threads); each thread processes its chunk in input
/// order. With a budget of 1 (or a single item) everything runs inline on
/// the calling thread.
///
/// Panics in `f` propagate to the caller after all threads finish.
#[expect(
    clippy::disallowed_methods,
    reason = "the fork-join substrate: the workspace's one thread-creation site, bounded by the Parallelism budget"
)]
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = Parallelism::get().min(n);
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let chunk = n.div_ceil(threads);
    let mut iter = items.into_iter();
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut taken = 0;
    while taken < n {
        let take = chunk.min(n - taken);
        chunks.push(iter.by_ref().take(take).collect());
        taken += take;
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(ci, chunk_items)| {
                s.spawn(move || {
                    chunk_items
                        .into_iter()
                        .enumerate()
                        .map(|(j, t)| f(ci * chunk + j, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            // Re-raise with the original payload so a kernel's assertion
            // message survives the thread boundary.
            match h.join() {
                Ok(results) => out.extend(results),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Fork-join over worker indices `0..n`: the cluster-engine work-horse.
pub fn par_map_workers<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map((0..n).collect(), |_, w| f(w))
}

/// Fork-join over mutable chunks of a slice: splits `data` into pieces of
/// `chunk_len` (the last may be shorter) and calls `f(chunk_index, chunk)`
/// on each, in parallel. Chunk boundaries depend only on `chunk_len`, never
/// on the thread budget, preserving the determinism contract.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let chunks: Vec<&mut [T]> = data.chunks_mut(chunk_len).collect();
    par_map(chunks, f);
}

// --- deterministic ticketing -----------------------------------------------
//
// Concurrency-adjacent subsystems (the serving layer's micro-batcher, any
// future async shuffle) need a total order over work items that does not
// depend on thread scheduling or wall clock. These primitives provide it:
// tickets are issued by a plain counter, and a `ReorderBuffer` turns
// out-of-order completions back into issue order. Both are trivially
// deterministic — that is the point — and live here next to the fork-join
// helpers because they are the ordering half of the same contract: work may
// *execute* in any interleaving, but everything observable is merged back
// in a fixed order.

/// A position in a [`TicketLine`]'s total order. Smaller tickets were
/// issued earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// Issues monotonically increasing [`Ticket`]s, starting at 0. The
/// issue order *is* the FIFO contract consumers like the serving layer's
/// response path promise.
#[derive(Debug, Clone, Default)]
pub struct TicketLine {
    next: u64,
}

impl TicketLine {
    pub fn new() -> Self {
        TicketLine::default()
    }

    /// Issue the next ticket.
    pub fn issue(&mut self) -> Ticket {
        let t = Ticket(self.next);
        self.next += 1;
        t
    }

    /// Total tickets issued so far.
    pub fn issued(&self) -> u64 {
        self.next
    }
}

/// Turns out-of-order completions back into ticket order: values pushed
/// with any issued ticket are released strictly in issue order, and a value
/// is only released once every earlier ticket's value has been released
/// before it. The FIFO gate behind the serving layer's response ordering.
#[derive(Debug, Clone)]
pub struct ReorderBuffer<T> {
    /// Next ticket eligible for release.
    head: u64,
    pending: BTreeMap<u64, T>,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        ReorderBuffer {
            head: 0,
            pending: BTreeMap::new(),
        }
    }
}

impl<T> ReorderBuffer<T> {
    pub fn new() -> Self {
        ReorderBuffer::default()
    }

    /// Register `ticket`'s completion value. Panics on a duplicate or
    /// already-released ticket — both are caller logic errors.
    pub fn push(&mut self, ticket: Ticket, value: T) {
        assert!(ticket.0 >= self.head, "ticket {ticket:?} already released");
        let prev = self.pending.insert(ticket.0, value);
        assert!(prev.is_none(), "duplicate completion for {ticket:?}");
    }

    /// Release the head-of-line value, if its ticket has completed.
    pub fn pop_ready(&mut self) -> Option<T> {
        let v = self.pending.remove(&self.head)?;
        self.head += 1;
        Some(v)
    }

    /// Release every contiguously-completed value from the head, in ticket
    /// order.
    pub fn drain_ready(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = self.pop_ready() {
            out.push(v);
        }
        out
    }

    /// Completions buffered behind the head-of-line gap. Counts only
    /// values actually pushed — tickets issued but not yet completed do
    /// not appear, so `is_empty()` cannot tell "fully drained" from
    /// "still owed completions"; only the issuer knows what is
    /// outstanding.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let got = Parallelism::with(4, || par_map((0..1000).collect(), |i, x: i32| (i, x * 2)));
        for (i, &(idx, v)) in got.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(v, i as i32 * 2);
        }
    }

    #[test]
    fn par_map_serial_budget_runs_inline() {
        let tid = std::thread::current().id();
        let ids = Parallelism::with(1, || {
            par_map(vec![(); 8], |_, _| std::thread::current().id())
        });
        assert!(ids.iter().all(|&id| id == tid));
    }

    #[test]
    fn par_map_workers_covers_all_indices() {
        let got = Parallelism::with(3, || par_map_workers(10, |w| w * w));
        assert_eq!(got, (0..10).map(|w| w * w).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_ranges() {
        let mut data = vec![0u32; 103];
        Parallelism::with(4, || {
            par_chunks_mut(&mut data, 10, |ci, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (ci * 10 + j) as u32;
                }
            })
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u32);
        }
    }

    #[test]
    fn with_restores_previous_budget() {
        let before = Parallelism::get();
        Parallelism::with(7, || assert_eq!(Parallelism::get(), 7));
        assert_eq!(Parallelism::get(), before);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u8> = par_map(Vec::<u8>::new(), |_, x| x);
        assert!(got.is_empty());
        par_chunks_mut(&mut [] as &mut [u8], 4, |_, _| {});
    }

    #[test]
    fn tickets_are_monotonic() {
        let mut line = TicketLine::new();
        let a = line.issue();
        let b = line.issue();
        assert!(a < b);
        assert_eq!(a, Ticket(0));
        assert_eq!(line.issued(), 2);
    }

    #[test]
    fn reorder_buffer_releases_in_issue_order() {
        let mut line = TicketLine::new();
        let t: Vec<Ticket> = (0..4).map(|_| line.issue()).collect();
        let mut buf = ReorderBuffer::new();
        // Complete out of order: 2, 0, 3, 1.
        buf.push(t[2], "c");
        assert!(buf.pop_ready().is_none(), "head-of-line gap must block");
        buf.push(t[0], "a");
        assert_eq!(buf.drain_ready(), vec!["a"], "stops at the gap");
        buf.push(t[3], "d");
        buf.push(t[1], "b");
        assert_eq!(buf.drain_ready(), vec!["b", "c", "d"]);
        assert!(buf.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate completion")]
    fn reorder_buffer_rejects_duplicate_tickets() {
        let mut buf = ReorderBuffer::new();
        buf.push(Ticket(5), ());
        buf.push(Ticket(5), ());
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn reorder_buffer_rejects_released_tickets() {
        let mut buf = ReorderBuffer::new();
        buf.push(Ticket(0), ());
        buf.pop_ready();
        buf.push(Ticket(0), ());
    }
}
