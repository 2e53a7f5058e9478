//! The control-group environment: the department's basement shelter.
//!
//! Per §3.4 the basement doubles as a civil-protection shelter and runs
//! "stable, office-type air conditioning", i.e. conditions well within
//! equipment specifications. We model a setpoint-tracking HVAC loop with a
//! small dead band, a mild sensitivity to the IT load (nine machines warm
//! the room slightly between compressor cycles), and essentially no coupling
//! to outside weather.

use frostlab_climate::weather::WeatherSample;

use crate::enclosure::{Enclosure, EnclosureState};

/// The basement control environment.
#[derive(Debug, Clone)]
pub struct Basement {
    /// HVAC setpoint, °C.
    setpoint_c: f64,
    /// Controlled RH level, %.
    rh_setpoint_pct: f64,
    air_temp_c: f64,
    rh_pct: f64,
    /// Proportional gain of the HVAC loop toward the setpoint, 1/s.
    hvac_gain: f64,
    /// Temperature rise per watt of IT load between HVAC corrections, K/W.
    load_sensitivity_k_w: f64,
    /// Phase accumulator for the slow compressor-cycle wobble.
    phase: f64,
}

impl Basement {
    /// Standard office conditioning: 21 °C, 40 % RH.
    pub fn new() -> Self {
        Basement {
            setpoint_c: 21.0,
            rh_setpoint_pct: 40.0,
            air_temp_c: 21.0,
            rh_pct: 40.0,
            hvac_gain: 1.0 / 900.0,
            load_sensitivity_k_w: 0.001,
            phase: 0.0,
        }
    }
}

impl Default for Basement {
    fn default() -> Self {
        Self::new()
    }
}

impl Enclosure for Basement {
    fn step(&mut self, dt_secs: f64, _outside: &WeatherSample, it_power_w: f64) {
        // Compressor cycling: a slow ±0.4 K wobble around the setpoint.
        self.phase = (self.phase + dt_secs / 1800.0) % std::f64::consts::TAU;
        let wobble = 0.4 * self.phase.sin();
        let target = self.setpoint_c + wobble + it_power_w * self.load_sensitivity_k_w;
        let k = (-dt_secs * self.hvac_gain * 60.0).exp();
        self.air_temp_c = target + (self.air_temp_c - target) * k;
        // RH is held with similar stability.
        let rh_target = self.rh_setpoint_pct + 1.0 * self.phase.cos();
        self.rh_pct = rh_target + (self.rh_pct - rh_target) * k;
    }

    fn state(&self) -> EnclosureState {
        EnclosureState {
            air_temp_c: self.air_temp_c,
            air_rh_pct: self.rh_pct,
        }
    }

    fn name(&self) -> &'static str {
        "basement"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_simkern::time::SimTime;

    fn outside_blizzard() -> WeatherSample {
        WeatherSample {
            t: SimTime::ZERO,
            temp_c: -25.0,
            rh_pct: 85.0,
            wind_ms: 12.0,
            solar_w_m2: 0.0,
            cloud: 1.0,
        }
    }

    #[test]
    fn basement_ignores_weather() {
        let mut b = Basement::new();
        for _ in 0..1_000 {
            b.step(60.0, &outside_blizzard(), 900.0);
        }
        let s = b.state();
        assert!((s.air_temp_c - 21.0).abs() < 1.5, "temp {}", s.air_temp_c);
        assert!((s.air_rh_pct - 40.0).abs() < 3.0, "rh {}", s.air_rh_pct);
    }

    #[test]
    fn basement_stays_in_spec_band() {
        let mut b = Basement::new();
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for _ in 0..5_000 {
            b.step(60.0, &outside_blizzard(), 900.0);
            min = min.min(b.state().air_temp_c);
            max = max.max(b.state().air_temp_c);
        }
        // ASHRAE-recommended envelope is 18–27 °C; the shelter sits well inside.
        assert!(min > 18.0 && max < 27.0, "band [{min}, {max}]");
        // And it is *stable*: total swing under 2 K.
        assert!(max - min < 2.0, "swing {}", max - min);
    }
}
