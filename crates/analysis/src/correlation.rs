//! Correlation and lag analysis between measurement channels.
//!
//! Fig. 3's qualitative story — "the inside temperature follows the outside
//! temperature, damped and delayed by the tent" — becomes quantitative
//! here: Pearson correlation between the aligned channels, and the lag at
//! which the cross-correlation peaks (the tent's effective thermal delay).

/// Pearson correlation coefficient of two equal-length slices.
///
/// Returns `None` for fewer than two points or zero variance.
fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "pearson needs aligned samples");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Cross-correlation of `ys` against `xs` shifted by `lag` samples
/// (positive lag: `ys` lags behind `xs`).
fn correlation_at_lag(xs: &[f64], ys: &[f64], lag: usize) -> Option<f64> {
    if lag >= xs.len() || lag >= ys.len() {
        return None;
    }
    pearson(&xs[..xs.len() - lag], &ys[lag..])
}

/// The lag (in samples, 0..=`max_lag`) at which `ys` best correlates with
/// `xs`, and the correlation there. `ys` is the *response* channel (inside
/// temperature), `xs` the driver (outside).
pub fn best_lag(xs: &[f64], ys: &[f64], max_lag: usize) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for lag in 0..=max_lag {
        if let Some(r) = correlation_at_lag(xs, ys, lag) {
            if best.map(|(_, b)| r > b).unwrap_or(true) {
                best = Some((lag, r));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_correlation() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_noise_near_zero() {
        // Deterministic pseudo-noise pair.
        let xs: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 997) as f64).collect();
        let ys: Vec<f64> = (0..2000).map(|i| ((i * 104729) % 1009) as f64).collect();
        let r = pearson(&xs, &ys).unwrap();
        assert!(r.abs() < 0.1, "r = {r}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None); // zero variance
        assert_eq!(correlation_at_lag(&[1.0, 2.0], &[1.0, 2.0], 5), None);
    }

    #[test]
    fn lag_detection() {
        // ys is xs delayed by 7 samples (a sine so the overlap correlates).
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 / 20.0).sin()).collect();
        let ys: Vec<f64> = (0..500)
            .map(|i| {
                if i >= 7 {
                    ((i - 7) as f64 / 20.0).sin()
                } else {
                    0.0
                }
            })
            .collect();
        let (lag, r) = best_lag(&xs, &ys, 30).unwrap();
        assert_eq!(lag, 7);
        assert!(r > 0.99);
    }

    #[test]
    fn zero_lag_beats_wrong_lag_for_aligned_signals() {
        let xs: Vec<f64> = (0..300).map(|i| (i as f64 / 11.0).cos()).collect();
        let (lag, r) = best_lag(&xs, &xs, 20).unwrap();
        assert_eq!(lag, 0);
        assert!((r - 1.0).abs() < 1e-12);
    }
}
