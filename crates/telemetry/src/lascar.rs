//! The Lascar EL-USB-2-LCD temperature/RH data logger.
//!
//! §3.3: "Measurement error for the unit is ±0.5 °C, ±3.0 % RH typically
//! and ±2 °C, ±6.0 % RH maximum. … The advantage of the data logger is that
//! it is machine readable, although only by manually inserting the device
//! into an USB port. Due to this, we have been forced to remove a number of
//! outliers in the measurements caused by removing the data logger and
//! carrying it indoors."
//!
//! So the model includes, deliberately:
//!
//! * instrument error as slowly drifting calibration bias (OU, ~12 h) at
//!   the *typical* spec plus a small white component, clamped to the
//!   *maximum* spec — hygrometer error is autocorrelated, not white;
//! * 0.5-unit quantization (the EL-USB-2's resolution);
//! * a finite sample memory (16 382 readings per channel on the real unit);
//! * a deployment date — the unit "arrived late", leaving the early weeks
//!   of the campaign unlogged;
//! * **readout excursions**: while being carried indoors and read over USB
//!   the logger keeps sampling, recording office air instead of tent air.

use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};

use crate::series::{SeriesError, TimeSeries};

/// Datasheet-derived configuration.
#[derive(Debug, Clone)]
pub struct LascarConfig {
    /// Sampling interval (configurable on the unit; 5 min here).
    pub interval: SimDuration,
    /// Typical (1-σ) temperature error, K.
    pub temp_err_typ_k: f64,
    /// Maximum temperature error (hard clamp), K.
    pub temp_err_max_k: f64,
    /// Typical (1-σ) RH error, percentage points.
    pub rh_err_typ_pct: f64,
    /// Maximum RH error, percentage points.
    pub rh_err_max_pct: f64,
    /// Quantization step for both channels.
    pub resolution: f64,
    /// Per-channel sample memory.
    pub capacity: usize,
}

impl Default for LascarConfig {
    fn default() -> Self {
        LascarConfig {
            interval: SimDuration::minutes(5),
            temp_err_typ_k: 0.5,
            temp_err_max_k: 2.0,
            rh_err_typ_pct: 3.0,
            rh_err_max_pct: 6.0,
            resolution: 0.5,
            capacity: 16_382,
        }
    }
}

/// The logger.
#[derive(Debug, Clone)]
pub struct LascarLogger {
    config: LascarConfig,
    rng: Rng,
    next_due: SimTime,
    temp: TimeSeries,
    rh: TimeSeries,
    /// Samples taken since the last USB readout (readouts download and
    /// clear the device memory, freeing capacity).
    since_readout: usize,
    /// Slowly drifting calibration bias of the temperature channel, K.
    /// Instrument error on these hygrometer/thermistor loggers is dominated
    /// by calibration drift (strongly autocorrelated), not white noise —
    /// modelled as an OU process with a half-day relaxation time.
    temp_bias_k: f64,
    /// Slowly drifting bias of the RH channel, percentage points.
    rh_bias_pct: f64,
    /// Active indoor excursion, if any: `(start, end)`.
    excursion: Option<(SimTime, SimTime)>,
}

/// Office conditions the logger sees while being read out indoors.
const INDOOR_TEMP_C: f64 = 21.5;
const INDOOR_RH_PCT: f64 = 35.0;

impl LascarLogger {
    /// Deploy the logger at `deployed_at` (§3.3: it arrived late — the
    /// scripted scenario deploys it weeks after the experiment started).
    pub fn new(config: LascarConfig, deployed_at: SimTime, seed_rng: &Rng) -> Self {
        LascarLogger {
            rng: seed_rng.derive("lascar"),
            next_due: deployed_at,
            temp: TimeSeries::new(),
            rh: TimeSeries::new(),
            since_readout: 0,
            temp_bias_k: 0.0,
            rh_bias_pct: 0.0,
            excursion: None,
            config,
        }
    }

    /// Begin a manual USB readout: the logger goes indoors for `duration`,
    /// its memory is downloaded and cleared (capacity resets).
    pub fn begin_readout(&mut self, at: SimTime, duration: SimDuration) {
        let window = (at, at + duration);
        self.excursion = Some(window);
        self.since_readout = 0;
    }

    fn quantize(&self, v: f64) -> f64 {
        (v / self.config.resolution).round() * self.config.resolution
    }

    /// Advance an OU-modelled calibration bias one sample interval.
    /// Stationary sd = `typ`; relaxation time ≈ 12 h.
    fn step_bias(&mut self, bias: f64, typ: f64) -> f64 {
        let dt_h = self.config.interval.as_secs() as f64 / 3600.0;
        let a = (-dt_h / 12.0).exp();
        a * bias + typ * (1.0 - a * a).sqrt() * self.rng.standard_normal()
    }

    fn noisy(&mut self, truth: f64, bias: f64, typ: f64, max: f64) -> f64 {
        // Bias (drift) plus a tiny white repeatability component; the sum
        // clamps at the datasheet maximum. The ±typ figure is *accuracy*
        // (absolute); sample-to-sample repeatability on these units is
        // sub-quantization (~0.1 unit), so the 0.5-step quantizer is the
        // dominant short-term artifact.
        let err = (bias + self.rng.normal(0.0, typ / 30.0)).clamp(-max, max);
        self.quantize(truth + err)
    }

    /// If a sample is due at or before `t`, record it. `tent_temp`/`tent_rh`
    /// are the enclosure's current true air state. Returns whether a sample
    /// was taken; surfaces the series' ordering error instead of panicking
    /// (the logger's own clock only moves forward, so an error here means a
    /// caller rewound time on a shared series).
    fn try_poll(&mut self, t: SimTime, tent_temp: f64, tent_rh: f64) -> Result<bool, SeriesError> {
        if t < self.next_due || self.since_readout >= self.config.capacity {
            return Ok(false);
        }
        self.since_readout += 1;
        let sample_t = self.next_due;
        self.next_due += self.config.interval;
        let indoors = self
            .excursion
            .map(|(s, e)| sample_t >= s && sample_t <= e)
            .unwrap_or(false);
        if let Some((_, e)) = self.excursion {
            if sample_t > e {
                self.excursion = None;
            }
        }
        let (true_t, true_rh) = if indoors {
            (INDOOR_TEMP_C, INDOOR_RH_PCT)
        } else {
            (tent_temp, tent_rh)
        };
        self.temp_bias_k = self.step_bias(self.temp_bias_k, self.config.temp_err_typ_k);
        self.rh_bias_pct = self.step_bias(self.rh_bias_pct, self.config.rh_err_typ_pct);
        let temp = self.noisy(
            true_t,
            self.temp_bias_k,
            self.config.temp_err_typ_k,
            self.config.temp_err_max_k,
        );
        let rh = self
            .noisy(
                true_rh,
                self.rh_bias_pct,
                self.config.rh_err_typ_pct,
                self.config.rh_err_max_pct,
            )
            .clamp(0.0, 100.0);
        self.temp.try_push(sample_t, temp)?;
        self.rh.try_push(sample_t, rh)?;
        Ok(true)
    }

    /// If a sample is due at or before `t`, record it. `tent_temp`/`tent_rh`
    /// are the enclosure's current true air state. Returns whether a sample
    /// was taken.
    ///
    /// # Panics
    /// Panics if a caller rewound time on a shared series.
    pub fn poll(&mut self, t: SimTime, tent_temp: f64, tent_rh: f64) -> bool {
        self.try_poll(t, tent_temp, tent_rh)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The logged temperature series (what the USB readout produces).
    pub fn temperature(&self) -> &TimeSeries {
        &self.temp
    }

    /// The logged RH series.
    pub fn humidity(&self) -> &TimeSeries {
        &self.rh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logger(deploy_secs: i64) -> LascarLogger {
        LascarLogger::new(
            LascarConfig::default(),
            SimTime::from_secs(deploy_secs),
            &Rng::new(33),
        )
    }

    #[test]
    fn no_data_before_deployment() {
        let mut l = logger(86_400); // deployed on day 2
        assert!(!l.poll(SimTime::from_secs(1000), -5.0, 60.0));
        assert!(l.temperature().is_empty());
        assert!(l.poll(SimTime::from_secs(86_400), -5.0, 60.0));
        assert_eq!(l.temperature().len(), 1);
        assert_eq!(l.temperature().start(), Some(SimTime::from_secs(86_400)));
    }

    #[test]
    fn five_minute_cadence() {
        let mut l = logger(0);
        for s in 0..3600 {
            l.poll(SimTime::from_secs(s), 0.0, 80.0);
        }
        assert_eq!(l.temperature().len(), 12); // 0,5,...,55 min
    }

    #[test]
    fn noise_within_max_spec_and_quantized() {
        let mut l = logger(0);
        for i in 0..5_000i64 {
            l.poll(SimTime::from_secs(i * 300), -10.0, 85.0);
        }
        for (_, v) in l.temperature().points() {
            assert!(
                (v + 10.0).abs() <= 2.0 + 0.25,
                "temp error beyond max spec: {v}"
            );
            let q = v / 0.5;
            assert!((q - q.round()).abs() < 1e-9, "not quantized: {v}");
        }
        for (_, v) in l.humidity().points() {
            assert!(
                (v - 85.0).abs() <= 6.0 + 0.25,
                "rh error beyond max spec: {v}"
            );
        }
        // Typical error: std of temp channel ≈ 0.5.
        let sd = l.temperature().std_dev().unwrap();
        assert!((0.3..0.8).contains(&sd), "temperature noise sd {sd}");
    }

    #[test]
    fn readout_excursion_records_indoor_air() {
        let mut l = logger(0);
        // One hour of tent air at −8 °C.
        for i in 0..12i64 {
            l.poll(SimTime::from_secs(i * 300), -8.0, 80.0);
        }
        // Carried indoors for 30 min.
        l.begin_readout(SimTime::from_secs(3600), SimDuration::minutes(30));
        for i in 12..24i64 {
            l.poll(SimTime::from_secs(i * 300), -8.0, 80.0);
        }
        let temps: Vec<f64> = l.temperature().values().collect();
        // Samples at 60, 65, ..., 90 min should be ≈ 21.5 °C.
        let indoor: Vec<f64> = temps[12..=18].to_vec();
        assert!(
            indoor.iter().all(|&t| t > 15.0),
            "indoor samples {indoor:?}"
        );
        // Before and after: tent air.
        assert!(temps[..12].iter().all(|&t| t < 0.0));
        assert!(temps[20..].iter().all(|&t| t < 0.0));
    }

    #[test]
    fn capacity_limit() {
        let mut l = LascarLogger::new(
            LascarConfig {
                capacity: 10,
                ..LascarConfig::default()
            },
            SimTime::ZERO,
            &Rng::new(1),
        );
        for i in 0..100i64 {
            l.poll(SimTime::from_secs(i * 300), 0.0, 50.0);
        }
        assert_eq!(l.temperature().len(), 10);
    }

    #[test]
    fn try_poll_mirrors_poll() {
        let mut l = logger(0);
        assert_eq!(l.try_poll(SimTime::from_secs(0), -5.0, 60.0), Ok(true));
        // Not due again for 5 minutes.
        assert_eq!(l.try_poll(SimTime::from_secs(60), -5.0, 60.0), Ok(false));
        assert_eq!(l.temperature().len(), 1);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut l = logger(0);
            for i in 0..100i64 {
                l.poll(SimTime::from_secs(i * 300), -3.0, 75.0);
            }
            l.temperature().values().collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
