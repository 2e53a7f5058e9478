//! Order statistics used for every reported number.

/// Median of `xs` (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default
/// "exclusive" method), so spreads printed here match the ones an
/// outside script derives from the same values.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// The `q`-quantile (0 < q < 1) of `xs` by nearest rank, provided at
/// least ten samples lie beyond it; otherwise `None`. A tail percentile
/// with fewer samples behind it is one or two outliers, not a tail.
pub fn supported_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    if rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    Some(d[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_is_order_insensitive() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert!((relative_spread(&[1.0, 2.0, 3.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly 10 beyond it.
        assert_eq!(supported_percentile(&xs, 0.90), Some(90.0));
        // p99 would rest on a single sample.
        assert_eq!(supported_percentile(&xs, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&many, 0.99), Some(990.0));
        assert_eq!(supported_percentile(&many, 0.995), None);
        assert_eq!(supported_percentile(&[1.0; 5], 0.5), None);
    }
}
