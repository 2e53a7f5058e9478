//! Outlier removal for the published series.
//!
//! Fig. 3/4's caption work: "we have been forced to remove a number of
//! outliers in the measurements caused by removing the data logger and
//! carrying it indoors. These outliers have been removed from the graphs."
//!
//! The indoor excursions look like step spikes: a handful of consecutive
//! samples ~25 K above the surrounding trace. A robust spike filter —
//! deviation from the rolling median, thresholded in MAD units — flags
//! them without touching genuine weather fronts (which move a few K per
//! hour, not 25 K in five minutes).

use crate::series::TimeSeries;

/// Configuration for the median/MAD spike filter.
#[derive(Debug, Clone)]
pub struct SpikeFilter {
    /// Half-width of the rolling window, in samples.
    pub half_window: usize,
    /// Flag samples deviating more than this many MADs from the local
    /// median.
    pub mad_threshold: f64,
    /// Absolute minimum deviation to flag (guards near-constant traces,
    /// where MAD collapses to ~0), in the series' units.
    pub min_deviation: f64,
}

impl Default for SpikeFilter {
    fn default() -> Self {
        SpikeFilter {
            half_window: 12,
            mad_threshold: 6.0,
            min_deviation: 5.0,
        }
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

impl SpikeFilter {
    /// Return a boolean mask: `true` = outlier.
    fn mask(&self, series: &TimeSeries) -> Vec<bool> {
        let pts = series.points();
        let n = pts.len();
        let mut mask = vec![false; n];
        if n < 3 {
            return mask;
        }
        for i in 0..n {
            let lo = i.saturating_sub(self.half_window);
            let hi = (i + self.half_window + 1).min(n);
            let mut window: Vec<f64> = pts[lo..hi].iter().map(|&(_, v)| v).collect();
            let med = median(&mut window);
            let mut devs: Vec<f64> = window.iter().map(|v| (v - med).abs()).collect();
            let mad = median(&mut devs).max(1e-9);
            let dev = (pts[i].1 - med).abs();
            if dev > self.mad_threshold * mad && dev > self.min_deviation {
                mask[i] = true;
            }
        }
        mask
    }

    /// Remove flagged samples, returning the cleaned series and the number
    /// of samples removed.
    pub fn clean(&self, series: &TimeSeries) -> (TimeSeries, usize) {
        let mask = self.mask(series);
        let removed = mask.iter().filter(|&&m| m).count();
        let cleaned = TimeSeries::from_points(
            series
                .points()
                .iter()
                .zip(&mask)
                .filter(|(_, &is_outlier)| !is_outlier)
                .map(|(&p, _)| p),
        );
        (cleaned, removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_simkern::time::SimTime;

    fn t(i: i64) -> SimTime {
        SimTime::from_secs(i * 300)
    }

    /// A tent trace at ≈ −5 °C with an indoor excursion at samples 50–56.
    fn trace_with_excursion() -> TimeSeries {
        TimeSeries::from_points((0..120i64).map(|i| {
            let v = if (50..=56).contains(&i) {
                21.5
            } else {
                -5.0 + (i as f64 / 10.0).sin()
            };
            (t(i), v)
        }))
    }

    #[test]
    fn excursion_flagged_exactly() {
        let s = trace_with_excursion();
        let mask = SpikeFilter::default().mask(&s);
        for (i, &m) in mask.iter().enumerate() {
            let expect = (50..=56).contains(&(i as i64));
            assert_eq!(m, expect, "sample {i}");
        }
    }

    #[test]
    fn clean_removes_only_the_spike() {
        let s = trace_with_excursion();
        let (cleaned, removed) = SpikeFilter::default().clean(&s);
        assert_eq!(removed, 7);
        assert_eq!(cleaned.len(), 113);
        assert!(cleaned.max().unwrap() < 0.0, "no indoor samples survive");
    }

    #[test]
    fn genuine_weather_front_not_flagged() {
        // A warm front: +8 K over 4 hours (48 samples) — steep but real.
        let s = TimeSeries::from_points((0..200i64).map(|i| {
            let v = if i < 100 {
                -10.0
            } else {
                -10.0 + 8.0 * ((i - 100) as f64 / 48.0).min(1.0)
            };
            (t(i), v + 0.2 * (i as f64).sin())
        }));
        let mask = SpikeFilter::default().mask(&s);
        let flagged = mask.iter().filter(|&&m| m).count();
        assert_eq!(flagged, 0, "weather fronts must survive the filter");
    }

    #[test]
    fn short_series_untouched() {
        let s = TimeSeries::from_points([(t(0), 1.0), (t(1), 100.0)]);
        let mask = SpikeFilter::default().mask(&s);
        assert_eq!(mask, vec![false, false]);
    }

    #[test]
    fn constant_series_not_flagged() {
        let s = TimeSeries::from_points((0..50i64).map(|i| (t(i), 4.0)));
        let (cleaned, removed) = SpikeFilter::default().clean(&s);
        assert_eq!(removed, 0);
        assert_eq!(cleaned.len(), 50);
    }
}
