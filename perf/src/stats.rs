//! Order statistics for the benchmark's reported numbers.
//!
//! A repeated timing (rounds, set-ups) is reported as its fastest
//! repetition ([`steady`]) with the inter-quartile spread beside it;
//! latency tails
//! use the highest percentile that still has at least ten samples beyond
//! it, so a tail is never read off one or two outliers.

/// Quantile of `values` at `p` in `[0, 1]`, by linear interpolation
/// between closest ranks (the same definition as NumPy's default and
/// Python's `statistics.quantiles(..., method="inclusive")`). `None` for
/// an empty slice.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// First and third quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    Some((quantile(values, 0.25)?, quantile(values, 0.75)?))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread printed beside every timed metric. 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if values.len() > 1 && m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The highest percentile among 50, 75, 90, 95, 99 and 99.9 that has at
/// least ten samples strictly beyond it, as `(percentile, value)`. With
/// fewer than 20 samples not even the median qualifies, and the median
/// is returned as the only honest summary.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let p = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0);
    Some((p, quantile(values, p / 100.0)?))
}

/// The point estimate of a repeated fixed-size timing: its fastest
/// repetition.
///
/// The benchmark's host shares its CPUs with other machines, and that
/// contention mostly slows rounds down, in phases lasting seconds to
/// minutes. Over ten 10-second `fleet` runs on a 2-vCPU host, the
/// run-to-run spread (inter-quartile distance over median) of the
/// fastest round was 0.09, of the 10th percentile 0.22 and of the median
/// 0.38: the fastest round tracks the code's own cost, the median tracks
/// the neighbours. Work per round is fixed, so a round cannot be fast by
/// doing less.
pub fn steady(values: &[f64]) -> Option<f64> {
    quantile(values, 0.0)
}

/// Throughput of fixed-size rounds: `units` over the [`steady`] round
/// time.
pub fn round_rate(units: f64, round_secs: &[f64]) -> Option<f64> {
    steady(round_secs).map(|s| units / s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        // 1..=9: positions 2 and 6 of the sorted values.
        let v: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((3.0, 7.0)));
        // 1..=4: positions 0.75 and 2.25.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.75, 3.25)));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&[10.0, 10.0, 10.0]), 0.0);
        let s = spread(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s - 1.5 / 2.5).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };
        assert_eq!(tail(&v(19)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&v(20)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&v(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&v(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&v(160)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&v(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&v(1000)).map(|t| t.0), Some(99.0));
        // The 90th percentile of 0..100 interpolates at rank 89.1.
        let (_, value) = tail(&v(100)).unwrap();
        assert!((value - 89.1).abs() < 1e-9, "{value}");
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn round_rate_uses_the_fastest_round() {
        let secs = [1.5, 1.25, 2.0, 1.25, 4.0];
        assert_eq!(steady(&secs), Some(1.25));
        assert_eq!(round_rate(100.0, &secs), Some(80.0));
        // Slowed-down rounds do not move it.
        let mut slowed = secs.to_vec();
        slowed.extend([9.0, 9.0]);
        assert_eq!(steady(&slowed), Some(1.25));
        assert_eq!(round_rate(1.0, &[]), None);
    }
}
