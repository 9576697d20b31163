//! Server-lifetime counters — the serving analogue of
//! [`inferturbo_cluster::RunReport`].
//!
//! A `RunReport` describes one run; [`ServerStats`] describes a server's
//! whole life: how many requests arrived, how far batching compressed them
//! into runs (the coalescing ratio), what admission did, how deep the
//! queue got, and the accumulated per-plane message volume of every run
//! executed on the server's behalf.

use inferturbo_cluster::{MessagePlaneBytes, OverloadCounters};
use inferturbo_obs::MetricsRegistry;

/// Counters accumulated by a [`GnnServer`](crate::GnnServer). Cheap to
/// copy out; `Display` prints the one-page operator view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Tickets issued: requests queued, plus those the limiter's degraded
    /// path and an open breaker's stale answer resolve at once. A refused
    /// submit (invalid, quarantined, throttled under `Reject`, denied
    /// admission, breaker fast-fail) issues none.
    pub submitted: u64,
    /// Requests answered with logits.
    pub served: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Pending requests completed with `Shed` when their plan was evicted.
    pub shed: u64,
    /// Requests whose batch run failed (e.g. a simulated worker OOM).
    pub failed: u64,
    /// Serve-level re-runs of a transiently-failed batch (bounded by
    /// `ServeConfig::max_run_retries`). Each retry re-executes the whole
    /// coalesced group's run; absorbed retries never surface to callers.
    pub run_retries: u64,
    /// Failures absorbed *inside* runs by the engines — Pregel superstep
    /// replays and MapReduce task re-launches — summed over every executed
    /// run (`RunReport::retries`).
    pub engine_retries: u64,
    /// Pregel recovery checkpoints taken across every executed run
    /// (`RunReport::checkpoints`).
    pub checkpoints: u64,
    /// Times a plan was quarantined after
    /// `ServeConfig::quarantine_after` consecutive failed runs.
    pub quarantined: u64,
    /// Submissions fast-rejected because their plan was quarantined.
    pub quarantine_rejections: u64,
    /// Batched runs executed (each serves one coalesced group).
    pub batches: u64,
    /// Plans built (plan-cache misses).
    pub plans_built: u64,
    /// Requests that found their plan already cached.
    pub plan_cache_hits: u64,
    /// Most requests ever pending at once.
    pub queue_depth_high_water: usize,
    /// The overload plane: deadline expiries, throttling, stale service,
    /// breaker activity and response-cache hit/miss counts (see
    /// [`inferturbo_cluster::OverloadCounters`]).
    pub overload: OverloadCounters,
    /// Message volume by plane, summed over every executed run.
    pub message_bytes: MessagePlaneBytes,
    /// Columnar inbox bytes paged to disk (the out-of-core plane), summed
    /// over every executed run. 0 unless requests plan with a spill
    /// budget.
    pub spilled_bytes: u64,
    /// Modelled cluster wall-clock of every executed run, summed.
    pub modelled_run_secs: f64,
}

impl ServerStats {
    /// Convert into the unified metrics registry (see
    /// [`inferturbo_obs::MetricsRegistry`]). `Display` renders this. All
    /// ratios are denominator-guarded — a zero-traffic server renders
    /// `n/a`, never a NaN. `batches.coalescing` (requests served per
    /// executed run) is the batching win: 1.0 means no coalescing
    /// happened, and `max_batch` is the ceiling.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.section("serve");
        reg.counter("serve.submitted", self.submitted)
            .counter("serve.served", self.served)
            .counter("serve.rejected", self.rejected)
            .counter("serve.shed", self.shed)
            .counter("serve.failed", self.failed);
        reg.section("batches");
        reg.counter("batches.runs", self.batches)
            .ratio(
                "batches.coalescing",
                self.served as f64,
                self.batches as f64,
            )
            .counter(
                "batches.queue_depth_high_water",
                self.queue_depth_high_water as u64,
            );
        reg.section("plans");
        reg.counter("plans.built", self.plans_built)
            .counter("plans.cache_hits", self.plan_cache_hits);
        reg.section("resilience");
        reg.counter("resilience.run_retries", self.run_retries)
            .counter("resilience.engine_retries", self.engine_retries)
            .counter("resilience.checkpoints", self.checkpoints)
            .counter("resilience.quarantined", self.quarantined)
            .counter(
                "resilience.quarantine_rejections",
                self.quarantine_rejections,
            );
        reg.section("overload");
        reg.counter(
            "overload.deadline_exceeded",
            self.overload.deadline_exceeded,
        )
        .counter("overload.throttled", self.overload.throttled)
        .counter("overload.served_stale", self.overload.served_stale)
        .counter("overload.breaker_opens", self.overload.breaker_opens)
        .counter(
            "overload.breaker_fast_fails",
            self.overload.breaker_rejections,
        )
        .ratio(
            "overload.cache_hit",
            self.overload.cache_hits as f64,
            (self.overload.cache_hits + self.overload.cache_misses) as f64,
        );
        reg.section("traffic");
        reg.counter("traffic.columnar_bytes", self.message_bytes.columnar)
            .counter("traffic.legacy_bytes", self.message_bytes.legacy)
            .counter("traffic.spilled_bytes", self.spilled_bytes)
            .gauge("traffic.modelled_run_secs", self.modelled_run_secs);
        reg
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.metrics().render_text().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inferturbo_obs::MetricValue;

    #[test]
    fn coalescing_ratio_handles_zero_batches() {
        let coalescing = |s: &ServerStats| s.metrics().get("batches.coalescing").cloned();
        let ratio = |num, den| Some(MetricValue::Ratio { num, den });
        let mut s = ServerStats::default();
        assert_eq!(coalescing(&s), ratio(0.0, 0.0));
        s.served = 12;
        s.batches = 4;
        assert_eq!(coalescing(&s), ratio(12.0, 4.0));
        assert!((s.served as f64 / s.batches as f64 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_one_page_and_informative() {
        let s = ServerStats {
            submitted: 10,
            served: 8,
            rejected: 1,
            shed: 1,
            batches: 2,
            queue_depth_high_water: 5,
            ..ServerStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("serve.submitted = 10"), "{text}");
        assert!(text.contains("batches.coalescing = 4.00 (8/2)"), "{text}");
        assert!(
            text.contains("batches.queue_depth_high_water = 5"),
            "{text}"
        );
    }

    #[test]
    fn display_surfaces_the_overload_plane() {
        let s = ServerStats {
            overload: OverloadCounters {
                deadline_exceeded: 4,
                throttled: 3,
                served_stale: 2,
                breaker_opens: 1,
                breaker_rejections: 5,
                cache_hits: 2,
                cache_misses: 2,
            },
            ..ServerStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("overload.deadline_exceeded = 4"), "{text}");
        assert!(text.contains("overload.throttled = 3"), "{text}");
        assert!(text.contains("overload.served_stale = 2"), "{text}");
        assert!(text.contains("overload.breaker_opens = 1"), "{text}");
        assert!(text.contains("overload.breaker_fast_fails = 5"), "{text}");
        assert!(text.contains("overload.cache_hit = 0.50 (2/4)"), "{text}");
    }

    #[test]
    fn display_surfaces_resilience_counters() {
        let s = ServerStats {
            run_retries: 2,
            engine_retries: 5,
            checkpoints: 7,
            quarantined: 1,
            quarantine_rejections: 3,
            ..ServerStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("resilience.run_retries = 2"), "{text}");
        assert!(text.contains("resilience.engine_retries = 5"), "{text}");
        assert!(text.contains("resilience.checkpoints = 7"), "{text}");
        assert!(text.contains("resilience.quarantined = 1"), "{text}");
        assert!(
            text.contains("resilience.quarantine_rejections = 3"),
            "{text}"
        );
    }

    /// The zero-traffic case the hand-rolled `Display` paths used to
    /// mishandle: every ratio must render guarded, never a NaN.
    #[test]
    fn zero_traffic_display_renders_guarded_ratios() {
        let text = ServerStats::default().to_string();
        assert!(text.contains("batches.coalescing = n/a (0/0)"), "{text}");
        assert!(text.contains("overload.cache_hit = n/a (0/0)"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
        assert!(!text.contains("inf"), "{text}");
    }
}
