//! `itbench compare A.jsonl B.jsonl`: is B (the change) worse than A (the
//! parent) on any end-to-end metric of any workload?
//!
//! Each file holds the records `run --record` appended, any number of runs
//! per workload; run the two sides in alternating pairs so that the i-th
//! record of a workload in A pairs with the i-th in B. Each metric's own
//! bound decides, with the paired-runs rule of the choosing-metrics guide.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::outcome::{msg, Res};
use crate::stats::{median, quartiles, sorted};
use std::path::Path;

/// A gain is claimed only over at least this many pairs.
const MIN_PAIRS_FOR_GAIN: usize = 10;
/// ... and only when the change wins this share of them, ties counting
/// for neither side.
const WIN_SHARE: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The parent's own spread is wider than the bound: the runs cannot
    /// tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub verdict: Verdict,
    /// Share of the parent's median by which the change's median is worse
    /// (negative: better).
    pub worse_by: f64,
    /// Parent's interquartile range as a share of its median.
    pub spread: f64,
    pub wins: usize,
    pub pairs: usize,
}

/// `a` are the parent's runs and `b` the change's, each in run order.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    // Orient so that larger is worse.
    let sign = match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (sa, sb) = (sorted(a.to_vec()), sorted(b.to_vec()));
    let (ma, mb) = (median(&sa), median(&sb));
    let worse_by = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let [q1, _, q3] = quartiles(&sa);
    let iqr = q3 - q1;
    let spread = if ma == 0.0 { 0.0 } else { iqr / ma.abs() };
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| sign * (**y - **x) < 0.0)
        .count();
    let every = |pred: fn(f64) -> bool| {
        !a.is_empty() && !b.is_empty() && a.iter().all(|x| b.iter().all(|y| pred(sign * (*y - *x))))
    };
    let noisy = spread > def.bound;
    let verdict = if worse_by > def.bound {
        if noisy && !every(|d| d > 0.0) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if noisy && !every(|d| d < 0.0) {
        Verdict::Unresolved
    } else if worse_by < 0.0
        && pairs >= MIN_PAIRS_FOR_GAIN
        && wins as f64 >= WIN_SHARE * pairs as f64
        && (mb - ma).abs() > iqr
    {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    Row {
        verdict,
        worse_by,
        spread,
        wins,
        pairs,
    }
}

/// One side's untraced records: per workload, per metric, values in run
/// order; and the most operations any run failed.
struct Side {
    records: Vec<(String, Json)>,
}

impl Side {
    fn load(path: &Path) -> Res<Side> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut records = Vec::new();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let j = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            if j.get("trace").and_then(Json::as_f64) != Some(0.0) {
                continue;
            }
            let workload = j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}:{}: no workload", path.display(), i + 1))?
                .to_string();
            records.push((workload, j));
        }
        Ok(Side { records })
    }

    fn of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a Json> {
        self.records
            .iter()
            .filter(move |(w, _)| w == workload)
            .map(|(_, j)| j)
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.of(workload)
            .filter_map(|j| j.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    /// Largest failed share of any run of the workload, and whether every
    /// run's outputs were correct.
    fn health(&self, workload: &str) -> (f64, bool) {
        self.of(workload).fold((0.0, true), |(share, ok), j| {
            let num = |k| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            (
                f64::max(share, num("failed") / num("attempted").max(1.0)),
                ok && j.get("correct").and_then(Json::as_bool) == Some(true),
            )
        })
    }
}

/// Prints one row per workload and metric; `Ok(false)` on a regression.
pub fn compare_files(a: &Path, b: &Path) -> Res<bool> {
    let (a, b) = (Side::load(a)?, Side::load(b)?);
    println!(
        "{:<24} {:<12} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse%", "bound%", "iqr%", "wins"
    );
    let mut regressed = false;
    let mut compared = 0;
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (va, vb) = (a.values(workload, def.name), b.values(workload, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            compared += 1;
            let row = judge(def, &va, &vb);
            regressed |= row.verdict == Verdict::Worse;
            println!(
                "{:<24} {:<12} {:>12.5} {:>12.5} {:>+8.2} {:>7.1} {:>7.2} {:>3}/{:<2}  {}",
                workload,
                def.name,
                median(&sorted(va)),
                median(&sorted(vb)),
                row.worse_by * 100.0,
                def.bound * 100.0,
                row.spread * 100.0,
                row.wins,
                row.pairs,
                row.verdict.label()
            );
        }
        let ((fa, _), (fb, ok)) = (a.health(workload), b.health(workload));
        if b.of(workload).next().is_some() && (!ok || fb > fa) {
            regressed = true;
            println!(
                "{workload:<24} failed_share {fa:>12.5} {fb:>12.5}  WORSE (outputs correct: {ok})"
            );
        }
    }
    if compared == 0 {
        return Err(msg(
            "the two files share no untraced record of any workload",
        ));
    }
    println!(
        "{}",
        if regressed {
            "REGRESSION: at least one row is worse"
        } else {
            "no row is worse"
        }
    );
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.07,
    };
    const HIGHER: MetricDef = MetricDef {
        name: "sat_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.08,
    };

    fn steady(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * (i % 5) as f64))
            .collect()
    }

    #[test]
    fn single_runs_within_the_bound_are_unchanged_and_beyond_it_worse() {
        assert_eq!(judge(&LOWER, &[1.0], &[1.05]).verdict, Verdict::Unchanged);
        assert_eq!(judge(&LOWER, &[1.0], &[1.08]).verdict, Verdict::Worse);
        assert_eq!(judge(&LOWER, &[1.0], &[0.5]).verdict, Verdict::Unchanged);
        assert_eq!(judge(&HIGHER, &[100.0], &[91.0]).verdict, Verdict::Worse);
        assert_eq!(
            judge(&HIGHER, &[100.0], &[93.0]).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread() {
        let a = steady(1.0, 10);
        let b = steady(0.8, 10);
        let row = judge(&LOWER, &a, &b);
        assert_eq!(
            (row.verdict, row.wins, row.pairs),
            (Verdict::Better, 10, 10)
        );
        // Nine pairs are not enough.
        assert_eq!(judge(&LOWER, &a[..9], &b[..9]).verdict, Verdict::Unchanged);
        // Two losses in ten are too many.
        let mut mixed = b.clone();
        mixed[0] = 1.02;
        mixed[1] = 1.02;
        assert_eq!(judge(&LOWER, &a, &mixed).verdict, Verdict::Unchanged);
        // Higher-is-better metrics win by being larger.
        let row = judge(&HIGHER, &steady(100.0, 10), &steady(120.0, 10));
        assert_eq!(row.verdict, Verdict::Better);
        assert!(row.worse_by < 0.0);
    }

    #[test]
    fn a_noisy_parent_leaves_the_row_unresolved() {
        // Parent spread ~40% of its median, bound 7%.
        let a = [0.8, 1.0, 1.2, 0.7, 1.3, 0.9, 1.1, 1.0, 0.75, 1.25];
        let b = [1.0, 1.1, 1.2, 1.1, 1.0, 1.2, 1.1, 1.15, 1.05, 1.1];
        assert!(judge(&LOWER, &a, &b).spread > LOWER.bound);
        assert_eq!(judge(&LOWER, &a, &b).verdict, Verdict::Unresolved);
        // ... unless every run of the change is worse than every parent run.
        let slow = [2.0, 2.1, 2.2, 2.0, 2.1, 2.2, 2.0, 2.1, 2.2, 2.0];
        assert_eq!(judge(&LOWER, &a, &slow).verdict, Verdict::Worse);
        // ... or better than every parent run.
        let fast = [0.5; 10];
        assert_ne!(judge(&LOWER, &a, &fast).verdict, Verdict::Unresolved);
    }

    #[test]
    fn records_are_read_back_by_workload_and_metric() {
        let dir = std::env::temp_dir().join(format!("itbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |run_s: f64, trace: u8| {
            format!(
                "{{\"workload\": \"pregel_sage_inhub\", \"trace\": {trace}, \"correct\": true, \
                 \"attempted\": 10, \"failed\": 0, \"metrics\": {{\"run_s\": {{\"value\": \
                 {run_s}, \"unit\": \"s\"}}}}}}\n"
            )
        };
        let (pa, pb) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        std::fs::write(&pa, line(1.0, 0) + &line(9.0, 1) + &line(1.02, 0)).unwrap();
        std::fs::write(&pb, line(1.5, 0)).unwrap();
        let a = Side::load(&pa).unwrap();
        assert_eq!(a.values("pregel_sage_inhub", "run_s"), vec![1.0, 1.02]);
        assert_eq!(a.health("pregel_sage_inhub"), (0.0, true));
        assert_eq!(compare_files(&pa, &pa), Ok(true));
        assert_eq!(compare_files(&pa, &pb), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
