//! Weather-station sampling: the SMEAR III surrogate.
//!
//! The paper's *outside* series (Fig. 3/4) comes from the SMEAR III station
//! operated by the Department of Physics together with the Finnish
//! Meteorological Institute. A station is not the atmosphere: it samples on
//! a fixed cadence and through imperfect instruments. [`WeatherStation`]
//! wraps a [`WeatherModel`] with exactly that — a sampling interval and
//! per-channel Gaussian instrument noise — and produces the observation
//! stream the rest of the platform consumes as the "outside" reference.

use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};

use crate::math::clamp;
use crate::weather::{WeatherModel, WeatherSample};

/// Configuration of a station's sampling behaviour.
#[derive(Debug, Clone)]
pub struct StationConfig {
    /// Station name for reports.
    pub name: &'static str,
    /// Sampling interval (SMEAR III publishes minutely means; we default to
    /// 10 minutes, matching the resolution the paper's figures use).
    pub interval: SimDuration,
    /// 1-σ temperature instrument error, K.
    pub temp_noise_k: f64,
    /// 1-σ relative-humidity instrument error, percentage points.
    pub rh_noise_pct: f64,
    /// 1-σ wind-speed instrument error, m/s.
    pub wind_noise_ms: f64,
}

impl Default for StationConfig {
    fn default() -> Self {
        StationConfig {
            name: "SMEAR III",
            interval: SimDuration::minutes(10),
            temp_noise_k: 0.1,
            rh_noise_pct: 1.0,
            wind_noise_ms: 0.2,
        }
    }
}

/// A single station observation (what gets logged and plotted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherObservation {
    /// Observation timestamp.
    pub t: SimTime,
    /// Observed air temperature, °C.
    pub temp_c: f64,
    /// Observed relative humidity, %.
    pub rh_pct: f64,
    /// Observed wind speed, m/s.
    pub wind_ms: f64,
    /// Observed global irradiance, W/m².
    pub solar_w_m2: f64,
}

/// A weather station: samples a [`WeatherModel`] on a fixed cadence with
/// instrument noise.
pub struct WeatherStation {
    config: StationConfig,
    rng: Rng,
    next_due: SimTime,
}

impl WeatherStation {
    /// Create a station that starts observing at `start`.
    pub fn new(config: StationConfig, start: SimTime, seed_rng: &Rng) -> Self {
        WeatherStation {
            rng: seed_rng.derive("station"),
            next_due: start,
            config,
        }
    }

    /// Take one observation of `truth` (does not advance the schedule —
    /// useful for ad-hoc reads).
    pub fn observe(&mut self, truth: &WeatherSample) -> WeatherObservation {
        WeatherObservation {
            t: truth.t,
            temp_c: truth.temp_c + self.rng.normal(0.0, self.config.temp_noise_k),
            rh_pct: clamp(
                truth.rh_pct + self.rng.normal(0.0, self.config.rh_noise_pct),
                0.0,
                100.0,
            ),
            wind_ms: (truth.wind_ms + self.rng.normal(0.0, self.config.wind_noise_ms)).max(0.0),
            solar_w_m2: truth.solar_w_m2,
        }
    }

    /// If an observation is due at or before `t`, take it from the model and
    /// advance the schedule. Returns `None` when not yet due.
    pub fn poll(&mut self, model: &mut WeatherModel, t: SimTime) -> Option<WeatherObservation> {
        if t < self.next_due {
            return None;
        }
        let truth = model.sample_at(self.next_due);
        let obs = self.observe(&truth);
        self.next_due += self.config.interval;
        Some(obs)
    }

    /// If an observation is due exactly at `truth.t`, observe the given
    /// sample and advance the schedule. The campaign tick grid aligns with
    /// the station cadence, so the weather phase can hand the station the
    /// sample it just produced instead of paying for a second identical
    /// model sample (same RNG draws, same observation as [`Self::poll`]).
    pub fn poll_at(&mut self, truth: &WeatherSample) -> Option<WeatherObservation> {
        if truth.t != self.next_due {
            return None;
        }
        let obs = self.observe(truth);
        self.next_due += self.config.interval;
        Some(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn setup() -> (WeatherModel, WeatherStation) {
        let model = WeatherModel::new(presets::helsinki_winter_2010(), 31);
        let station = WeatherStation::new(
            StationConfig::default(),
            SimTime::from_date(2010, 2, 1),
            &Rng::new(31),
        );
        (model, station)
    }

    /// Every observation due up to `end`.
    fn record_window(
        st: &mut WeatherStation,
        model: &mut WeatherModel,
        end: SimTime,
    ) -> Vec<WeatherObservation> {
        std::iter::from_fn(|| st.poll(model, end)).collect()
    }

    #[test]
    fn poll_respects_cadence() {
        let (mut model, mut st) = setup();
        let t0 = SimTime::from_date(2010, 2, 1);
        assert!(st.poll(&mut model, t0 - SimDuration::secs(1)).is_none());
        let o1 = st.poll(&mut model, t0).unwrap();
        assert_eq!(o1.t, t0);
        // Not due again until +10 min.
        assert!(st.poll(&mut model, t0 + SimDuration::minutes(9)).is_none());
        let o2 = st.poll(&mut model, t0 + SimDuration::minutes(10)).unwrap();
        assert_eq!(o2.t, t0 + SimDuration::minutes(10));
    }

    #[test]
    fn record_window_counts() {
        let (mut model, mut st) = setup();
        let end = SimTime::from_date(2010, 2, 1) + SimDuration::hours(2);
        let obs = record_window(&mut st, &mut model, end);
        assert_eq!(obs.len(), 13); // 0..=120 min every 10 min
    }

    #[test]
    fn observations_track_truth() {
        let (mut model, mut st) = setup();
        let end = SimTime::from_date(2010, 2, 3);
        let obs = record_window(&mut st, &mut model, end);
        // Instrument noise is small: successive obs shouldn't stray far from
        // a fresh model's truth at the same instants (same seed ⇒ same truth).
        let mut model2 = WeatherModel::new(presets::helsinki_winter_2010(), 31);
        for o in &obs {
            let truth = model2.sample_at(o.t);
            assert!((o.temp_c - truth.temp_c).abs() < 0.6, "noise too large");
            assert!((0.0..=100.0).contains(&o.rh_pct));
            assert!(o.wind_ms >= 0.0);
        }
    }

    #[test]
    fn deterministic_observations() {
        let run = || {
            let (mut model, mut st) = setup();
            record_window(&mut st, &mut model, SimTime::from_date(2010, 2, 2))
        };
        assert_eq!(run(), run());
    }
}
