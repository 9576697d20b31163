//! What one benchmark process is asked to do and what it reports.

use crate::inputs::Sizes;
use crate::json::Json;
use crate::metrics::MetricDef;
use crate::stats::{summarize, Summary};
use std::path::PathBuf;

/// Errors are reported, never unwrapped: a message for the operator.
pub type Res<T> = Result<T, String>;

pub fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Everything a run is configured by. All of it comes from arguments: no
/// environment variable changes what is measured.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    pub threads: usize,
    pub smoke: bool,
    pub sizes: Sizes,
    /// Spill pages, span files and result details go here.
    pub out_dir: PathBuf,
    /// The `itworker` binary the process transport spawns.
    pub worker_bin: PathBuf,
}

impl Ctx {
    /// `full` runs, or `smoke` under `--smoke`.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Fewest slices the timed window of an end-to-end pass is cut into.
pub const MIN_CYCLES: usize = 5;
const MAX_CYCLES: usize = 12;
/// Share of the window that fresh set-ups may take.
const SETUP_SHARE: f64 = 0.25;

/// How many slices to cut a window of `seconds` into, each opened by a
/// fresh set-up, once the first set-up is known to take `first_setup`
/// seconds: at least [`MIN_CYCLES`], and more (up to 12) while all of them
/// fit in a quarter of the window. A median of five set-up times is at the
/// mercy of the host; cheap set-ups can afford more samples.
pub fn cycles_for(seconds: f64, first_setup: f64) -> usize {
    let affordable = (SETUP_SHARE * seconds / first_setup.max(1e-9)) as usize;
    affordable.clamp(MIN_CYCLES, MAX_CYCLES)
}

/// The result of one run: operation counts, output checks, metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks and engagement asserts, each with whether it held.
    pub checks: Vec<(String, bool)>,
    values: Vec<(String, f64)>,
    summaries: Vec<(String, Summary)>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Report the median of a timing sample, keeping its count and
    /// quartiles for the detail record.
    pub fn set_median(&mut self, name: impl Into<String>, samples: &[f64]) {
        let name = name.into();
        let s = summarize(samples);
        self.set(name.clone(), s.median);
        self.summaries.push((name, s));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// One operation attempted; `ok` false counts it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// An output check or engagement assert. A failed one also counts as a
    /// failed operation, so it shows in the failed share.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.op(ok);
        self.checks.push((what.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result object the contract fixes: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding every metric
    /// of `defs` (a layer that did no work reads 0). A value that is not a
    /// finite number makes the run incorrect.
    pub fn result_json(&mut self, defs: &[MetricDef]) -> Json {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self.get(d.name);
            if !v.is_finite() {
                self.check(format!("{} is a finite number", d.name), false);
            }
            metrics.push((
                d.name,
                Json::obj(vec![
                    ("value", Json::Num(if v.is_finite() { v } else { 0.0 })),
                    ("unit", Json::str(d.unit)),
                ]),
            ));
        }
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Sample count and quartiles of every metric reported as a median.
    pub fn samples_json(&self) -> Json {
        Json::obj(
            self.summaries
                .iter()
                .map(|(name, s)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("n", Json::Num(s.n as f64)),
                            ("q1", Json::Num(s.q1)),
                            ("median", Json::Num(s.median)),
                            ("q3", Json::Num(s.q3)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn summary_of(&self, name: &str) -> Option<Summary> {
        self.summaries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB. One process per
/// workload keeps it attributable.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(msg)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// FNV-1a over the bit patterns of every logit: equal hashes stand for
/// bit-identical outputs.
pub fn logits_hash(logits: &[Vec<f32>]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for row in logits {
        for x in row {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// Largest absolute difference between two logit matrices of one shape;
/// infinite when the shapes differ.
pub fn max_abs_diff(a: &[Vec<f32>], b: &[Vec<f32>]) -> f64 {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.len() != y.len()) {
        return f64::INFINITY;
    }
    a.iter()
        .flatten()
        .zip(b.iter().flatten())
        .map(|(x, y)| f64::from((x - y).abs()))
        .fold(0.0, |m, d| if d > m || d.is_nan() { d } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Better, END_TO_END};

    #[test]
    fn result_has_exactly_the_contract_keys_and_every_metric() {
        let mut o = Outcome::default();
        o.op(true);
        o.set_median("run_s", &[0.3, 0.1, 0.2]);
        o.set("setup_s", 1.25);
        let j = o.result_json(END_TO_END);
        let keys: Vec<&str> = j.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = j.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), END_TO_END.len());
        let run = metrics.get("run_s").unwrap();
        assert_eq!(run.get("value"), Some(&Json::Num(0.2)));
        assert_eq!(run.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        // The line round-trips.
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        let s = o.summary_of("run_s").unwrap();
        assert_eq!((s.n, s.median), (3, 0.2));
        assert_eq!(
            o.samples_json().get("run_s").and_then(|s| s.get("n")),
            Some(&Json::Num(3.0))
        );
    }

    #[test]
    fn a_failed_check_or_a_nan_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check("engaged", false);
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (1, 1));

        let mut o = Outcome::default();
        o.set("x", f64::NAN);
        let defs = [MetricDef {
            name: "x",
            unit: "s",
            better: Better::Lower,
            bound: 0.1,
        }];
        let j = o.result_json(&defs);
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert!(Json::parse(&j.render()).is_ok());
    }

    #[test]
    fn logit_hash_sees_single_bit_changes() {
        let a = vec![vec![1.0f32, -0.0], vec![2.5, 3.0]];
        let mut b = a.clone();
        assert_eq!(logits_hash(&a), logits_hash(&b));
        b[0][1] = 0.0;
        assert_ne!(logits_hash(&a), logits_hash(&b));
        assert_eq!(max_abs_diff(&a, &b), 0.0);
        b[1][0] = 2.0;
        assert_eq!(max_abs_diff(&a, &b), 0.5);
        assert_eq!(max_abs_diff(&a, &b[..1]), f64::INFINITY);
    }

    #[test]
    fn cheap_setups_get_more_slices_within_limits() {
        assert_eq!(cycles_for(24.0, 1.0), 6);
        assert_eq!(cycles_for(24.0, 5.0), MIN_CYCLES);
        assert_eq!(cycles_for(24.0, 0.05), MAX_CYCLES);
        assert_eq!(cycles_for(1.0, 0.0), MAX_CYCLES);
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
