//! The Technoline Cost Control wall-plug energy meter.
//!
//! §3.3: "in order to gauge the amount of heat generated by the hardware we
//! used a Technoline Cost Control unit. It has recently been tested \[4\] by
//! local colleagues and found to perform very admirably given its price."
//! The cited comparison (Liikkanen & Nieminen 2009) found consumer meters
//! of this class accurate to a few percent at PC-scale loads but markedly
//! worse below ~10 W — so the model uses a relative error plus a low-load
//! floor error.

use frostlab_simkern::rng::Rng;

/// The plug meter.
#[derive(Debug, Clone)]
pub struct CostControlMeter {
    rng: Rng,
    /// Relative (1-σ) error at healthy loads.
    pub relative_err: f64,
    /// Absolute error floor, W (dominates at tiny loads).
    pub floor_err_w: f64,
    /// Display resolution, W.
    pub resolution_w: f64,
    /// Accumulated energy, Wh (the cumulative kWh display).
    energy_wh: f64,
}

impl CostControlMeter {
    /// New meter with the tested accuracy profile.
    pub fn new(seed_rng: &Rng) -> Self {
        CostControlMeter {
            rng: seed_rng.derive("technoline"),
            relative_err: 0.02,
            floor_err_w: 1.5,
            resolution_w: 1.0,
            energy_wh: 0.0,
        }
    }

    /// Read the instantaneous-power display for a true draw of `true_w`.
    fn read_power_w(&mut self, true_w: f64) -> f64 {
        let sigma = (true_w * self.relative_err).max(self.floor_err_w * 0.5);
        let noisy = (true_w + self.rng.normal(0.0, sigma)).max(0.0);
        (noisy / self.resolution_w).round() * self.resolution_w
    }

    /// Integrate energy over `dt_hours` at a true draw of `true_w`.
    /// Returns the increment in Wh as the meter counted it.
    pub fn integrate(&mut self, true_w: f64, dt_hours: f64) -> f64 {
        let measured = self.read_power_w(true_w);
        let inc = measured * dt_hours;
        self.energy_wh += inc;
        inc
    }

    /// Cumulative energy display, kWh (rounded to 0.01 like the device).
    pub fn energy_kwh(&self) -> f64 {
        (self.energy_wh / 10.0).round() / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_tracks_truth_within_percent_scale() {
        let mut m = CostControlMeter::new(&Rng::new(3));
        let readings: Vec<f64> = (0..1000).map(|_| m.read_power_w(120.0)).collect();
        let mean = readings.iter().sum::<f64>() / readings.len() as f64;
        assert!((mean - 120.0).abs() < 1.0, "mean reading {mean}");
        assert!(readings.iter().all(|&r| (r - 120.0).abs() < 15.0));
    }

    #[test]
    fn low_load_is_relatively_worse() {
        let mut m = CostControlMeter::new(&Rng::new(4));
        let rel_spread = |true_w: f64, m: &mut CostControlMeter| {
            let rs: Vec<f64> = (0..2000).map(|_| m.read_power_w(true_w)).collect();
            let mean = rs.iter().sum::<f64>() / rs.len() as f64;
            let sd = (rs.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rs.len() as f64).sqrt();
            sd / true_w
        };
        let low = rel_spread(3.0, &mut m);
        let high = rel_spread(200.0, &mut m);
        assert!(low > 2.0 * high, "low-load relative error {low} vs {high}");
    }

    #[test]
    fn energy_integration() {
        let mut m = CostControlMeter::new(&Rng::new(5));
        // 100 W for 100 hours ≈ 10 kWh.
        for _ in 0..100 {
            m.integrate(100.0, 1.0);
        }
        let kwh = m.energy_kwh();
        assert!((kwh - 10.0).abs() < 0.5, "energy {kwh}");
    }

    #[test]
    fn readings_never_negative() {
        let mut m = CostControlMeter::new(&Rng::new(6));
        for _ in 0..1000 {
            assert!(m.read_power_w(0.5) >= 0.0);
        }
    }

    #[test]
    fn integer_display_resolution() {
        let mut m = CostControlMeter::new(&Rng::new(7));
        for _ in 0..100 {
            let r = m.read_power_w(77.7);
            assert_eq!(r, r.round());
        }
    }
}
