//! Small statistics helpers for the experiment harness (spread of
//! per-worker times for Figs. 9–10, the tail sum of Fig. 12, byte counts
//! for table output).

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Maximum; 0.0 for empty input.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(0.0f64, f64::max)
}

/// Sum of the top `frac` fraction of values (e.g. the "last 10% of workers"
/// tail cost the paper reports for Figs. 11–13).
pub fn tail_sum(xs: &[f64], frac: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = ((xs.len() as f64 * frac).ceil() as usize).clamp(1, xs.len());
    sorted[..k].iter().sum()
}

/// Render a byte count with binary-ish units for table output.
pub fn human_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{:.0}{}", v, UNITS[u])
    } else {
        format!("{:.2}{}", v, UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert_eq!(tail_sum(&[], 0.1), 0.0);
    }

    #[test]
    fn tail_sum_takes_largest() {
        let xs = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0, 5.0, 50.0];
        // top 10% of 10 values = 1 value = 50
        assert!((tail_sum(&xs, 0.1) - 50.0).abs() < 1e-12);
        // top 30% = 3 values = 50+40+30
        assert!((tail_sum(&xs, 0.3) - 120.0).abs() < 1e-12);
    }

    #[test]
    fn human_formats() {
        assert_eq!(human_bytes(512.0), "512B");
        assert_eq!(human_bytes(2048.0), "2.00KB");
    }
}
