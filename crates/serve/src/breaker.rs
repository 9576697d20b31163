//! Per-plan circuit breakers: stop feeding an engine that keeps failing.
//!
//! PR 6's quarantine is the *hard* containment tier: it trips on
//! consecutive lost runs and stays down until pending work happens to
//! succeed. A production front door also needs a *soft* tier that reacts
//! to a failure **rate** — a plan failing half its runs is burning
//! cluster time even if successes keep resetting the consecutive streak —
//! and that re-probes on its own instead of waiting for luck. That is the
//! classic circuit breaker, restated on the server's logical clock:
//!
//! - **Closed** (healthy): every run outcome lands in a sliding window of
//!   per-tick buckets. When a *failure* lands while the window holds at
//!   least [`BreakerConfig::min_runs`] outcomes and the failure share
//!   reaches [`BreakerConfig::trip_pct`], the breaker opens.
//! - **Open**: submits against the plan fast-fail (or are served stale
//!   from the response cache — see the server's degraded path) and no
//!   run executes, for [`BreakerConfig::cooldown_ticks`] full ticks.
//! - **HalfOpen**: after the cooldown, the next flushed batch is the
//!   *probe*. Its success closes the breaker and clears the window; its
//!   failure re-opens it for another cooldown.
//!
//! Everything is integer arithmetic on tick counts, so a replayed trace
//! trips, cools and re-closes at exactly the same points every time.

use std::collections::VecDeque;

/// Failure-rate thresholds and cooldown, all in logical ticks / integer
/// percentages — no wall clock, no floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Sliding window length in ticks: outcomes older than this no longer
    /// count against the plan.
    pub window_ticks: u64,
    /// Minimum outcomes inside the window before the rate is judged — a
    /// single failed run out of one must not open the breaker.
    pub min_runs: u64,
    /// Open once a **failure** lands with `failures * 100 >= trip_pct *
    /// total` within the window. The rate is only judged when a failure
    /// arrives — a success can push the window's share *to* the threshold
    /// but never trips the breaker itself.
    pub trip_pct: u64,
    /// Full ticks an open breaker holds before admitting a probe batch.
    pub cooldown_ticks: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window_ticks: 8,
            min_runs: 4,
            trip_pct: 50,
            cooldown_ticks: 4,
        }
    }
}

/// Observable breaker state (see the module docs for the lifecycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// One plan's breaker. The server keeps one in each live plan's record.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    /// Tick the breaker last opened at (meaningful in Open/HalfOpen).
    opened_at: u64,
    /// Per-tick outcome buckets inside the sliding window, oldest first:
    /// `(tick, successes, failures)`.
    window: VecDeque<(u64, u64, u64)>,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new()
    }
}

impl CircuitBreaker {
    pub fn new() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            opened_at: 0,
            window: VecDeque::new(),
        }
    }

    /// Current state at logical time `now`, applying the Open→HalfOpen
    /// transition once the cooldown has elapsed (`now - opened_at >
    /// cooldown_ticks`: the partial tick the breaker opened in does not
    /// count, mirroring `max_wait` aging).
    pub fn state(&mut self, cfg: &BreakerConfig, now: u64) -> BreakerState {
        if self.state == BreakerState::Open
            && now.saturating_sub(self.opened_at) > cfg.cooldown_ticks
        {
            self.state = BreakerState::HalfOpen;
        }
        self.state
    }

    /// Record one run outcome at `now`. Returns `true` when this outcome
    /// *opened* the breaker (Closed→Open on rate, or the HalfOpen probe
    /// failing) so the caller can count `breaker_opens`.
    pub fn record(&mut self, cfg: &BreakerConfig, now: u64, ok: bool) -> bool {
        match self.state(cfg, now) {
            BreakerState::HalfOpen => {
                if ok {
                    // Probe succeeded: the plan demonstrably serves again.
                    // Start from a clean window so the pre-open failures
                    // cannot immediately re-trip it.
                    self.state = BreakerState::Closed;
                    self.window.clear();
                    false
                } else {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    true
                }
            }
            // A run that was already in flight when the breaker opened may
            // still report; it neither closes nor re-times an open breaker.
            BreakerState::Open => false,
            BreakerState::Closed => {
                self.push(cfg, now, ok);
                if ok {
                    // Successes never trip: a healthy outcome must not be
                    // the event that opens the breaker, even if it drags
                    // the window's share onto the threshold.
                    return false;
                }
                let (oks, fails) = self
                    .window
                    .iter()
                    .fold((0u64, 0u64), |(s, f), &(_, o, x)| (s + o, f + x));
                let total = oks + fails;
                if total >= cfg.min_runs && fails * 100 >= cfg.trip_pct * total {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn push(&mut self, cfg: &BreakerConfig, now: u64, ok: bool) {
        while let Some(&(tick, _, _)) = self.window.front() {
            if now.saturating_sub(tick) >= cfg.window_ticks {
                self.window.pop_front();
            } else {
                break;
            }
        }
        match self.window.back_mut() {
            Some(bucket) if bucket.0 == now => {
                if ok {
                    bucket.1 += 1;
                } else {
                    bucket.2 += 1;
                }
            }
            _ => self.window.push_back((now, u64::from(ok), u64::from(!ok))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window_ticks: 4,
            min_runs: 4,
            trip_pct: 50,
            cooldown_ticks: 2,
        }
    }

    #[test]
    fn opens_at_the_failure_rate_threshold_not_before() {
        let cfg = cfg();
        let mut b = CircuitBreaker::new();
        // 3 outcomes < min_runs: even 100% failures hold the breaker.
        assert!(!b.record(&cfg, 0, false));
        assert!(!b.record(&cfg, 0, false));
        assert!(!b.record(&cfg, 0, false));
        assert_eq!(b.state(&cfg, 0), BreakerState::Closed);
        // A success is never the tripping event, even at 3/4 failures.
        assert!(!b.record(&cfg, 0, true));
        assert_eq!(b.state(&cfg, 0), BreakerState::Closed);
        // A failure with min_runs met and 4/5 >= 50% — opens, and
        // record() reports the trip for the breaker_opens counter.
        assert!(b.record(&cfg, 0, false));
        assert_eq!(b.state(&cfg, 0), BreakerState::Open);
    }

    #[test]
    fn below_rate_stays_closed() {
        let cfg = cfg();
        let mut b = CircuitBreaker::new();
        // 1 failure out of 4 = 25% < 50%: closed.
        assert!(!b.record(&cfg, 0, false));
        for _ in 0..3 {
            assert!(!b.record(&cfg, 0, true));
        }
        assert_eq!(b.state(&cfg, 0), BreakerState::Closed);
    }

    #[test]
    fn cooldown_then_probe_success_closes_with_a_clean_window() {
        let cfg = cfg();
        let mut b = CircuitBreaker::new();
        for _ in 0..4 {
            b.record(&cfg, 1, false);
        }
        assert_eq!(b.state(&cfg, 1), BreakerState::Open);
        // Cooldown counts full ticks: still open at opened_at + cooldown.
        assert_eq!(b.state(&cfg, 3), BreakerState::Open);
        assert_eq!(b.state(&cfg, 4), BreakerState::HalfOpen);
        // Probe succeeds: closed, and the old failures are forgotten — a
        // single new failure must not re-trip against the stale window.
        assert!(!b.record(&cfg, 4, true));
        assert_eq!(b.state(&cfg, 4), BreakerState::Closed);
        assert!(!b.record(&cfg, 4, false));
        assert_eq!(b.state(&cfg, 4), BreakerState::Closed);
    }

    #[test]
    fn probe_failure_reopens_and_retimes_the_cooldown() {
        let cfg = cfg();
        let mut b = CircuitBreaker::new();
        for _ in 0..4 {
            b.record(&cfg, 0, false);
        }
        assert_eq!(b.state(&cfg, 3), BreakerState::HalfOpen);
        assert!(b.record(&cfg, 3, false), "failed probe re-opens");
        assert_eq!(b.state(&cfg, 5), BreakerState::Open, "cooldown restarted");
        assert_eq!(b.state(&cfg, 6), BreakerState::HalfOpen);
    }

    #[test]
    fn old_outcomes_age_out_of_the_window() {
        let cfg = cfg();
        let mut b = CircuitBreaker::new();
        // 3 failures at tick 0 — not yet judged (min_runs).
        for _ in 0..3 {
            b.record(&cfg, 0, false);
        }
        // At tick 4 the window (4 ticks) has dropped them: one success is
        // the only outcome and the breaker stays closed.
        assert!(!b.record(&cfg, 4, true));
        assert_eq!(b.state(&cfg, 4), BreakerState::Closed);
        // Three more successes: 4/4 ok, well under the rate.
        for _ in 0..3 {
            assert!(!b.record(&cfg, 4, true));
        }
        assert_eq!(b.state(&cfg, 4), BreakerState::Closed);
    }
}
