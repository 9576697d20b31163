//! The bench-only wall-clock door for the flight recorder.
//!
//! Library code is barred from reading real time (the wall-clock entries
//! of the workspace clippy.toml), so `inferturbo_obs` ships only the logical tick counter. The
//! bench harness is the one sanctioned wall-clock owner, and this module
//! is where the sanction meets the trace layer: a [`ClockSource`] backed
//! by `std::time::Instant`, for span-style accounting in benches only.
//! Nothing outside `crates/bench` should implement `ClockSource` over
//! real time.

use inferturbo_obs::ClockSource;
use std::time::Instant;

/// Real-time [`ClockSource`]: microseconds elapsed since construction.
///
/// Monotone (backed by `Instant`), unitless at the trait boundary — the
/// consumer decides what a tick means, exactly as with `LogicalClock`.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::start()
    }
}

impl ClockSource for WallClock {
    fn now(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::start();
        let a = c.now();
        let b = c.now();
        assert!(b >= a, "Instant-backed clock must never run backwards");
    }
}
