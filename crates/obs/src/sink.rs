//! Trace sinks and the cheap clonable [`TraceHandle`] threaded through
//! the engines.
//!
//! # Determinism contract
//!
//! A sealed trace is **bit-identical at every thread count and across
//! fault-recovery replays**. Two mechanisms deliver that:
//!
//! 1. **Emission only at deterministic points.** Engines never emit from
//!    inside worker tasks — only at barriers (the Pregel seal barrier,
//!    the MapReduce phase merge, the single-threaded serving loop), where
//!    iteration order is ascending worker / submission order regardless
//!    of the thread budget. The per-(time, site) `seq` is therefore just
//!    emission rank, assigned when the trace is sealed.
//! 2. **Mark/rewind under recovery.** The Pregel engine snapshots the
//!    sink position inside every checkpoint ([`TraceHandle::mark`]) and
//!    truncates back to it on restore ([`TraceHandle::rewind`]) — the
//!    replayed supersteps re-emit bit-identical records, so a recovered
//!    trace equals the fault-free one. Recovery-plane records
//!    (checkpoint / retry) are **durable**: they live outside the rewind
//!    window at [`Site::Recovery`], so they both survive replay and can
//!    be stripped to recover the fault-free bytes exactly.

use std::sync::{Arc, Mutex, PoisonError};

use crate::event::{Event, LogicalTime, Payload, Site};

/// Where emitted records go. The default methods make a disabled or
/// minimal sink trivial to write; [`RecordingSink`] implements the full
/// surface.
pub trait TraceSink: Send {
    /// Store one record (rewound by trace recovery).
    fn record(&mut self, time: LogicalTime, site: Site, payload: Payload);

    /// Store one durable record (survives [`TraceSink::rewind`]).
    fn record_durable(&mut self, time: LogicalTime, site: Site, payload: Payload) {
        self.record(time, site, payload);
    }

    /// Opaque position for [`TraceSink::rewind`].
    fn mark(&self) -> usize {
        0
    }

    /// Truncate non-durable records back to `mark`.
    fn rewind(&mut self, _mark: usize) {}

    /// Allocate the next engine-run epoch (monotone per sink).
    fn next_epoch(&mut self) -> u64 {
        0
    }

    /// Seal and copy out the trace: merged, sorted, `seq`-assigned.
    fn snapshot(&self) -> Vec<Event> {
        Vec::new()
    }

    /// Seal and drain the trace (bounded memory across bench iterations).
    fn take(&mut self) -> Vec<Event> {
        Vec::new()
    }
}

/// The zero-cost disabled sink: every method is a no-op. A disabled
/// [`TraceHandle`] never even reaches it — the handle's `Option` check
/// short-circuits first — so the untraced hot path costs one branch.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _time: LogicalTime, _site: Site, _payload: Payload) {}
}

/// In-memory recording sink. Records are kept in emission order; sealing
/// stable-sorts by `(time, site)` and numbers each group, so the output
/// order — and the rendered bytes — are a pure function of the workload.
#[derive(Debug, Default)]
pub struct RecordingSink {
    core: Vec<(LogicalTime, Site, Payload)>,
    durable: Vec<(LogicalTime, Site, Payload)>,
    epochs: u64,
}

impl RecordingSink {
    pub fn new() -> Self {
        RecordingSink::default()
    }

    fn seal(rows: Vec<(LogicalTime, Site, Payload)>) -> Vec<Event> {
        let mut rows = rows;
        rows.sort_by_key(|(t, s, _)| (*t, *s));
        let mut out = Vec::with_capacity(rows.len());
        let mut seq = 0u32;
        let mut prev: Option<(LogicalTime, Site)> = None;
        for (time, site, payload) in rows {
            seq = match prev {
                Some(p) if p == (time, site) => seq + 1,
                _ => 0,
            };
            prev = Some((time, site));
            out.push(Event {
                time,
                site,
                seq,
                payload,
            });
        }
        out
    }

    fn sealed(&self) -> Vec<Event> {
        let mut rows = self.core.clone();
        rows.extend(self.durable.iter().cloned());
        RecordingSink::seal(rows)
    }
}

impl TraceSink for RecordingSink {
    fn record(&mut self, time: LogicalTime, site: Site, payload: Payload) {
        self.core.push((time, site, payload));
    }

    fn record_durable(&mut self, time: LogicalTime, site: Site, payload: Payload) {
        self.durable.push((time, site, payload));
    }

    fn mark(&self) -> usize {
        self.core.len()
    }

    fn rewind(&mut self, mark: usize) {
        self.core.truncate(mark);
    }

    fn next_epoch(&mut self) -> u64 {
        let e = self.epochs;
        self.epochs += 1;
        e
    }

    fn snapshot(&self) -> Vec<Event> {
        self.sealed()
    }

    fn take(&mut self) -> Vec<Event> {
        let mut rows = std::mem::take(&mut self.core);
        rows.append(&mut self.durable);
        RecordingSink::seal(rows)
    }
}

/// Opaque rewind token handed to engine checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMark(usize);

/// Cheap clonable handle the engines carry. Disabled by default
/// ([`TraceHandle::disabled`]): one `Option` test per would-be emission,
/// no allocation, no lock. An enabled handle shares one sink across every
/// clone; `epoch` scopes a clone to one engine run so repeated runs of a
/// reused plan don't collide in logical time.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<Mutex<dyn TraceSink>>>,
    epoch: u64,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.enabled())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl TraceHandle {
    /// The zero-cost default: nothing is recorded.
    pub fn disabled() -> Self {
        TraceHandle::default()
    }

    /// A handle over a fresh in-memory [`RecordingSink`].
    pub fn recording() -> Self {
        TraceHandle::from_sink(RecordingSink::new())
    }

    /// A handle over a custom sink.
    pub fn from_sink(sink: impl TraceSink + 'static) -> Self {
        TraceHandle {
            sink: Some(Arc::new(Mutex::new(sink))),
            epoch: 0,
        }
    }

    /// Fast emission guard. Engines may skip payload construction when
    /// this is false.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The epoch this handle stamps on emitted records.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A clone scoped to epoch `e` (same sink).
    pub fn at_epoch(&self, e: u64) -> Self {
        TraceHandle {
            sink: self.sink.clone(),
            epoch: e,
        }
    }

    /// Allocate the sink's next run epoch and return a handle scoped to
    /// it. Runs are sequential, so the allocation is deterministic.
    pub fn next_epoch(&self) -> Self {
        let e = match &self.sink {
            Some(s) => s
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .next_epoch(),
            None => 0,
        };
        self.at_epoch(e)
    }

    /// Emit one record at `(self.epoch, step)`.
    pub fn emit(&self, step: u64, site: Site, payload: Payload) {
        if let Some(s) = &self.sink {
            s.lock().unwrap_or_else(PoisonError::into_inner).record(
                LogicalTime::new(self.epoch, step),
                site,
                payload,
            );
        }
    }

    /// Emit one durable record (survives [`TraceHandle::rewind`]).
    pub fn emit_durable(&self, step: u64, site: Site, payload: Payload) {
        if let Some(s) = &self.sink {
            s.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_durable(LogicalTime::new(self.epoch, step), site, payload);
        }
    }

    /// Snapshot the sink position (stored in engine checkpoints).
    pub fn mark(&self) -> TraceMark {
        TraceMark(match &self.sink {
            Some(s) => s.lock().unwrap_or_else(PoisonError::into_inner).mark(),
            None => 0,
        })
    }

    /// Truncate non-durable records back to `mark` (engine restore).
    pub fn rewind(&self, mark: TraceMark) {
        if let Some(s) = &self.sink {
            s.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .rewind(mark.0);
        }
    }

    /// Seal and copy out the trace (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        match &self.sink {
            Some(s) => s.lock().unwrap_or_else(PoisonError::into_inner).snapshot(),
            None => Vec::new(),
        }
    }

    /// Seal and drain the trace (empty when disabled).
    pub fn take_events(&self) -> Vec<Event> {
        match &self.sink {
            Some(s) => s.lock().unwrap_or_else(PoisonError::into_inner).take(),
            None => Vec::new(),
        }
    }

    /// Render the sealed trace as the canonical line format: one event
    /// per line, sorted by `(logical time, site, seq)`, trailing newline.
    /// These are the bytes the determinism contract covers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

/// Logical duration source for span-style accounting. The workspace bans
/// wall clocks in library code (clippy's `disallowed_methods`); the one
/// sanctioned real-time implementation lives behind the bench-only door
/// (`inferturbo_bench`). Everything in this crate uses logical ticks.
pub trait ClockSource {
    /// Current logical instant (monotone, unitless).
    fn now(&self) -> u64;
}

/// The default clock: a counter advanced by [`LogicalClock::advance`].
#[derive(Debug, Default)]
pub struct LogicalClock(std::cell::Cell<u64>);

impl LogicalClock {
    pub fn new() -> Self {
        LogicalClock::default()
    }

    pub fn advance(&self, ticks: u64) {
        self.0.set(self.0.get() + ticks);
    }
}

impl ClockSource for LogicalClock {
    fn now(&self) -> u64 {
        self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(phase: &str) -> Payload {
        Payload::WorkerPhase {
            phase: phase.to_string(),
            records_in: 1,
            records_out: 1,
            bytes_in: 8,
            bytes_out: 8,
            flops: 1.0,
            mem_peak: 64,
        }
    }

    #[test]
    fn disabled_handle_records_nothing_and_renders_empty() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        h.emit(0, Site::Engine, wp("s"));
        h.emit_durable(0, Site::Recovery, Payload::Checkpoint { step: 0 });
        assert!(h.events().is_empty());
        assert_eq!(h.render(), "");
    }

    #[test]
    fn seal_sorts_by_time_then_site_and_numbers_groups() {
        let h = TraceHandle::recording();
        // Emit out of site order within one step, then an earlier step.
        h.emit(1, Site::Worker(1), wp("b"));
        h.emit(1, Site::Engine, wp("b"));
        h.emit(1, Site::Engine, wp("b2"));
        h.emit(0, Site::Worker(0), wp("a"));
        let ev = h.events();
        let key: Vec<(u64, Site, u32)> = ev.iter().map(|e| (e.time.step, e.site, e.seq)).collect();
        assert_eq!(
            key,
            vec![
                (0, Site::Worker(0), 0),
                (1, Site::Engine, 0),
                (1, Site::Engine, 1),
                (1, Site::Worker(1), 0),
            ]
        );
    }

    #[test]
    fn rewind_truncates_core_but_keeps_durable_records() {
        let h = TraceHandle::recording();
        h.emit(0, Site::Engine, wp("s0"));
        let mark = h.mark();
        h.emit_durable(1, Site::Recovery, Payload::Checkpoint { step: 1 });
        h.emit(1, Site::Engine, wp("s1-failed-attempt"));
        h.rewind(mark);
        h.emit(1, Site::Engine, wp("s1-replayed"));
        let lines = h.render();
        assert!(lines.contains("s1-replayed"));
        assert!(!lines.contains("failed-attempt"));
        assert!(lines.contains("kind=checkpoint"));
    }

    #[test]
    fn replayed_emission_reproduces_identical_bytes() {
        // The fault-free reference.
        let clean = TraceHandle::recording();
        clean.emit(0, Site::Engine, wp("s0"));
        clean.emit(1, Site::Engine, wp("s1"));

        // A faulted run: s1 partially emits, rewinds, replays.
        let faulted = TraceHandle::recording();
        faulted.emit(0, Site::Engine, wp("s0"));
        let mark = faulted.mark();
        faulted.emit_durable(
            1,
            Site::Recovery,
            Payload::Retry {
                failed_step: 1,
                resume_step: 1,
            },
        );
        faulted.emit(1, Site::Engine, wp("s1"));
        faulted.rewind(mark);
        faulted.emit(1, Site::Engine, wp("s1"));

        // Stripping the durable recovery plane recovers the clean bytes.
        let stripped: String = faulted
            .render()
            .lines()
            .filter(|l| !l.contains("site=recovery"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, clean.render());
    }

    #[test]
    fn take_drains_the_sink() {
        let h = TraceHandle::recording();
        h.emit(0, Site::Engine, wp("s0"));
        assert_eq!(h.take_events().len(), 1);
        assert!(h.events().is_empty());
    }

    #[test]
    fn epochs_are_monotone_per_sink_and_scope_clones() {
        let h = TraceHandle::recording();
        let r0 = h.next_epoch();
        let r1 = h.next_epoch();
        assert_eq!((r0.epoch(), r1.epoch()), (0, 1));
        r0.emit(0, Site::Engine, wp("a"));
        r1.emit(0, Site::Engine, wp("b"));
        let ev = h.events();
        assert_eq!(ev.len(), 2);
        assert_eq!((ev[0].time.epoch, ev[1].time.epoch), (0, 1));
    }

    #[test]
    fn logical_clock_is_the_default_clock_source() {
        let c = LogicalClock::new();
        assert_eq!(c.now(), 0);
        c.advance(3);
        assert_eq!(c.now(), 3);
    }
}
