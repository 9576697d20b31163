//! Order statistics over timing samples.

/// Sort a sample ascending. Timings are finite by construction; a NaN
/// would sort last and surface in the output check on metric values.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` of the sample at or below it. 0.0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of an unsorted sample.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples.to_vec()))
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so a spread computed here reads the same as the one the driver computes.
/// A sample of one has no spread: all three are that value.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    match n {
        0 => return [0.0; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let num = (i + 1) * m;
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Sample count and quartiles of one timing sample, as written next to
/// each reported median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples.to_vec());
    let [q1, _, q3] = quartiles(&s);
    Summary {
        n: s.len(),
        q1,
        median: median(&s),
        q3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 5, 9], n=4) == [3.0, 5.0, 9.0]
        assert_eq!(quartiles(&[3.0, 5.0, 9.0]), [3.0, 5.0, 9.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn summarize_sorts_first() {
        let s = summarize(&[9.0, 3.0, 5.0]);
        assert_eq!(
            s,
            Summary {
                n: 3,
                q1: 3.0,
                median: 5.0,
                q3: 9.0
            }
        );
    }
}
