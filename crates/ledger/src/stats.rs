//! Order statistics the ledger reports: medians, the tail-percentile
//! rule, geometric means, and the quartile spread `--compare` judges
//! repeatability with.

/// Sort ascending. Every sample is a measured duration or count, so a
/// NaN here is a bug in the ledger, not an input to tolerate.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("ledger samples are finite"));
}

/// Median of an unsorted sample; the mean of the two middle values for
/// an even count. Panics on an empty sample: every metric the ledger
/// declares must have been measured at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank index of a percentile given in hundredths of a percent
/// (`9990` is p99.9). Integer arithmetic, so `p99` of 1000 samples is
/// the 990th and never the 991st through float rounding.
fn rank(n: usize, per_10k: usize) -> usize {
    (n * per_10k).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample; `per_10k` as in
/// hundredths of a percent (`5000` is the median, `9900` is p99).
pub fn percentile_sorted(sorted: &[f64], per_10k: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), per_10k) - 1]
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: the highest percentile of the ladder 50, 90, 99,
/// 99.9, 99.99 that still has at least [`TAIL_BEYOND`] samples beyond
/// it, as `(percentile, value)`. `None` below 20 samples, where even
/// the median has fewer than ten samples above it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    const LADDER: [usize; 5] = [5000, 9000, 9900, 9990, 9999];
    LADDER
        .iter()
        .rev()
        .find(|&&p| !sorted.is_empty() && sorted.len() - rank(sorted.len(), p) >= TAIL_BEYOND)
        .map(|&p| (p as f64 / 100.0, percentile_sorted(sorted, p)))
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so the spread `--compare` prints
/// is the one the benchmark contract is judged by. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let m = xs.len();
    if m < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; 0 for a single run.
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) => (q3 - q1).abs() / median(xs).abs(),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 has exactly 10 beyond, p90 only 2.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 100 samples: p90 has exactly 10 beyond, p99 only 1.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&ramp(100_000)).map(|t| t.0), Some(99.99));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[1.0]), 0.0);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
