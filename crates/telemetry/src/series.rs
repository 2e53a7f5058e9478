//! A minimal time-series container.
//!
//! Timestamps must be strictly increasing — the instruments all sample
//! forward in time, and the figure code depends on ordering. Values are
//! `f64`; gaps are represented by absent samples (and can be *detected*,
//! which the Fig. 3/4 code uses to draw the Lascar's missing early weeks).

use frostlab_simkern::time::{SimDuration, SimTime};

/// Errors from series construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesError {
    /// A sample's timestamp was not strictly after the previous one.
    NonMonotonic {
        /// The rejected sample's timestamp.
        t: SimTime,
        /// The series' current last timestamp.
        last: SimTime,
    },
}

impl std::fmt::Display for SeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesError::NonMonotonic { t, last } => {
                write!(f, "non-monotonic sample at {t:?} after {last:?}")
            }
        }
    }
}

impl std::error::Error for SeriesError {}

/// One sampled channel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample, rejecting out-of-order timestamps.
    pub fn try_push(&mut self, t: SimTime, value: f64) -> Result<(), SeriesError> {
        if let Some(&(last, _)) = self.points.last() {
            if t <= last {
                return Err(SeriesError::NonMonotonic { t, last });
            }
        }
        self.points.push((t, value));
        Ok(())
    }

    /// Append a sample.
    ///
    /// # Panics
    /// Panics if `t` is not strictly after the previous sample.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.try_push(t, value).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// First sample time.
    pub fn start(&self) -> Option<SimTime> {
        self.points.first().map(|&(t, _)| t)
    }

    /// Minimum value (None when empty).
    pub fn min(&self) -> Option<f64> {
        self.values()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum value.
    pub fn max(&self) -> Option<f64> {
        self.values()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.values().sum::<f64>() / self.len() as f64)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        if self.len() < 2 {
            return None;
        }
        let mean = self.mean()?;
        let var = self.values().map(|v| (v - mean).powi(2)).sum::<f64>() / (self.len() - 1) as f64;
        Some(var.sqrt())
    }

    /// Sub-series within `[from, to]` inclusive.
    pub fn window(&self, from: SimTime, to: SimTime) -> TimeSeries {
        TimeSeries {
            points: self
                .points
                .iter()
                .filter(|&&(t, _)| t >= from && t <= to)
                .copied()
                .collect(),
        }
    }

    /// Gaps longer than `min_gap` between consecutive samples:
    /// `(gap_start, gap_end)` pairs.
    pub fn gaps(&self, min_gap: SimDuration) -> Vec<(SimTime, SimTime)> {
        self.points
            .windows(2)
            .filter(|w| w[1].0 - w[0].0 > min_gap)
            .map(|w| (w[0].0, w[1].0))
            .collect()
    }

    /// Build from an iterator of points, rejecting out-of-order timestamps.
    fn try_from_points(
        points: impl IntoIterator<Item = (SimTime, f64)>,
    ) -> Result<TimeSeries, SeriesError> {
        let mut s = TimeSeries::new();
        for (t, v) in points {
            s.try_push(t, v)?;
        }
        Ok(s)
    }

    /// Build from an iterator of points (must be strictly increasing).
    ///
    /// # Panics
    /// Panics if any timestamp is not strictly after its predecessor.
    pub fn from_points(points: impl IntoIterator<Item = (SimTime, f64)>) -> TimeSeries {
        Self::try_from_points(points).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: i64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn sample() -> TimeSeries {
        TimeSeries::from_points((0..10).map(|i| (t(i * 600), i as f64)))
    }

    #[test]
    fn basic_stats() {
        let s = sample();
        assert_eq!(s.len(), 10);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.mean(), Some(4.5));
        assert!((s.std_dev().unwrap() - 3.0276).abs() < 1e-3);
        assert_eq!(s.start(), Some(t(0)));
    }

    #[test]
    fn empty_stats() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.std_dev(), None);
    }

    #[test]
    #[should_panic(expected = "non-monotonic")]
    fn non_monotonic_rejected() {
        let mut s = TimeSeries::new();
        s.push(t(100), 1.0);
        s.push(t(100), 2.0);
    }

    #[test]
    fn try_push_reports_the_offending_timestamps() {
        let mut s = TimeSeries::new();
        assert_eq!(s.try_push(t(100), 1.0), Ok(()));
        assert_eq!(
            s.try_push(t(50), 2.0),
            Err(SeriesError::NonMonotonic {
                t: t(50),
                last: t(100)
            })
        );
        // The failed push left the series untouched.
        assert_eq!(s.len(), 1);
        let msg = s.try_push(t(100), 2.0).unwrap_err().to_string();
        assert!(msg.contains("non-monotonic"), "{msg}");
    }

    #[test]
    fn try_from_points_surfaces_the_first_bad_sample() {
        let err =
            TimeSeries::try_from_points([(t(0), 1.0), (t(600), 2.0), (t(300), 3.0)]).unwrap_err();
        assert_eq!(
            err,
            SeriesError::NonMonotonic {
                t: t(300),
                last: t(600)
            }
        );
    }

    #[test]
    fn window_slicing() {
        let s = sample();
        let w = s.window(t(600), t(1800));
        assert_eq!(w.len(), 3);
        assert_eq!(w.values().collect::<Vec<_>>(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn gap_detection() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(600), 1.0);
        s.push(t(7200), 1.0); // 110-minute gap
        s.push(t(7800), 1.0);
        let gaps = s.gaps(SimDuration::minutes(30));
        assert_eq!(gaps, vec![(t(600), t(7200))]);
    }
}
