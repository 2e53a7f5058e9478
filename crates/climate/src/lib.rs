//! # frostlab-climate
//!
//! Synthetic weather substrate for the zero-degrees experiment.
//!
//! The original study consumed real meteorology: the SMEAR III station next
//! to the Kumpula campus (co-operated with the Finnish Meteorological
//! Institute) supplied outside temperature, humidity, wind and radiation.
//! That archive is not available here, so this crate implements a calibrated
//! stochastic generator that reproduces the *distributional* features the
//! experiment depends on:
//!
//! * Helsinki winter 2009–2010 temperature statistics — February means around
//!   −8 °C, a season minimum near the paper's reported −22 °C, the prototype
//!   weekend (Feb 12–15) averaging ≈ −9.2 °C with a −10.2 °C minimum;
//! * the strong winter humidity regime (RH mostly 75–95 %) and its
//!   anticorrelation with cold snaps;
//! * realistic temporal structure: a seasonal cycle, multi-day synoptic
//!   excursions (Ornstein–Uhlenbeck), a solar-driven diurnal cycle and
//!   high-frequency noise;
//! * wind with a Weibull marginal but OU temporal correlation;
//! * solar elevation/irradiance for 60.2 °N (drives tent solar gain).
//!
//! Everything is deterministic given a seed: the model is a pure function of
//! `(params, seed, t)` thanks to fixed-step state advancement.
//!
//! ```
//! use frostlab_climate::{presets, WeatherModel};
//! use frostlab_simkern::time::{SimTime, SimDuration};
//!
//! let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), 42);
//! let t = SimTime::from_date(2010, 2, 12);
//! let s = wx.sample_at(t);
//! assert!(s.temp_c < 10.0 && s.temp_c > -40.0);
//! assert!((0.0..=100.0).contains(&s.rh_pct));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fastmath;
pub mod math;
pub mod presets;
pub mod psychro;
pub mod solar;
pub mod station;
pub mod weather;

pub use psychro::{dew_point_c, rel_humidity_from_dew_point};
pub use station::{StationConfig, WeatherObservation, WeatherStation};
pub use weather::{ClimateParams, WeatherModel, WeatherSample};
