//! The tent: a three-person camping tent on the roof terrace.
//!
//! Physics (single lumped air node, exponential-Euler stepping):
//!
//! ```text
//! C·dT/dt = P_it + Q_solar − UA_total·(T_in − T_out)
//!
//! Q_solar  = α·A_proj·GHI                (α drops when the foil goes on)
//! UA_total = UA_fabric + ṁ·c_p           (fabric conduction + ventilation)
//! ṁ        = ρ·(A_vent·k_wind·v + V̇_fan) + ρ·A_vent·k_stack·√max(ΔT,0)
//! ```
//!
//! The paper's four interventions map onto parameters:
//!
//! | mark | intervention                       | effect                                   |
//! |------|------------------------------------|------------------------------------------|
//! | R    | reflective rescue-foil cover       | solar absorptance α: 0.65 → 0.25          |
//! | I    | inner tent cut open / removed      | fabric conductance up (one layer less)    |
//! | B    | bottom tarpaulin partially removed | ventilation opening area up (floor flow)  |
//! | F    | tabletop motorized fan installed   | constant forced volume flow added         |
//!
//! plus the half-open front door, which the authors settled on as the normal
//! operating position late in the campaign.
//!
//! Internal relative humidity follows from psychrometrics: the tent is
//! ventilated with outside air whose absolute moisture content is unchanged,
//! so RH inside is the outside vapor pressure referred to the warmer inside
//! temperature, low-pass filtered by the tent's air-exchange time. This is
//! exactly the behaviour in Fig. 4 — the tent "has been able to retain more
//! stable relative humidities than outside air", with variance growing as
//! the airflow modifications landed.

use frostlab_climate::psychro;
use frostlab_climate::weather::WeatherSample;

use crate::enclosure::{Enclosure, EnclosureState};

/// Which of the paper's modifications are currently applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TentConfig {
    /// R — reflective foil cover installed.
    pub foil: bool,
    /// I — inner tent removed.
    pub inner_removed: bool,
    /// B — bottom tarpaulin partially removed.
    pub tarpaulin_removed: bool,
    /// Front outer door left half-open.
    pub door_half_open: bool,
    /// F — tabletop fan running.
    pub fan: bool,
}

impl TentConfig {
    /// The configuration at the start of the normal phase (everything
    /// closed, no foil).
    pub fn initial() -> Self {
        TentConfig::default()
    }

    /// The final operating configuration (all interventions applied).
    pub fn fully_modified() -> Self {
        TentConfig {
            foil: true,
            inner_removed: true,
            tarpaulin_removed: true,
            door_half_open: true,
            fan: true,
        }
    }
}

/// Physical parameters of the tent model.
#[derive(Debug, Clone)]
pub struct TentParams {
    /// Thermal capacity of the tent air + light contents, J/K.
    pub capacity_j_k: f64,
    /// Fabric conductance with the inner tent in place, W/K.
    pub ua_fabric_double_w_k: f64,
    /// Fabric conductance with the inner tent removed, W/K.
    pub ua_fabric_single_w_k: f64,
    /// Projected fabric area facing the sun, m².
    pub solar_area_m2: f64,
    /// Solar absorptance of the bare fabric.
    pub absorptance_bare: f64,
    /// Solar absorptance with the reflective foil cover.
    pub absorptance_foil: f64,
    /// Leakage opening area with everything closed, m².
    pub vent_area_closed_m2: f64,
    /// Additional opening area once the tarpaulin is (partially) removed, m².
    pub vent_area_tarpaulin_m2: f64,
    /// Additional opening area from the half-open front door, m².
    pub vent_area_door_m2: f64,
    /// Wind-to-through-flow coupling coefficient (dimensionless).
    pub wind_coupling: f64,
    /// Stack (buoyancy) ventilation coefficient, (m/s)/√K.
    pub stack_coupling: f64,
    /// Effective volume flow of the desk fan, m³/s.
    pub fan_flow_m3_s: f64,
}

impl Default for TentParams {
    fn default() -> Self {
        TentParams {
            capacity_j_k: 150_000.0,
            ua_fabric_double_w_k: 35.0,
            ua_fabric_single_w_k: 52.0,
            solar_area_m2: 2.5,
            absorptance_bare: 0.65,
            absorptance_foil: 0.25,
            vent_area_closed_m2: 0.006,
            vent_area_tarpaulin_m2: 0.06,
            vent_area_door_m2: 0.04,
            wind_coupling: 0.35,
            stack_coupling: 0.10,
            fan_flow_m3_s: 0.055,
        }
    }
}

/// Air density (kg/m³) and heat capacity (J/(kg·K)) used in the flow terms.
const RHO_AIR: f64 = 1.27; // at ~0 °C
const CP_AIR: f64 = 1005.0;

/// The tent enclosure model. See module docs.
#[derive(Debug, Clone)]
pub struct Tent {
    params: TentParams,
    config: TentConfig,
    air_temp_c: f64,
    rh_pct: f64,
}

impl Tent {
    /// Erect the tent with the given parameters, initialized to the outside
    /// state (it starts empty and cold).
    pub fn new(params: TentParams, config: TentConfig, initial: &WeatherSample) -> Self {
        Tent {
            params,
            config,
            air_temp_c: initial.temp_c,
            rh_pct: initial.rh_pct,
        }
    }

    /// Current modification state.
    pub fn config(&self) -> TentConfig {
        self.config
    }

    /// Apply or change modifications (the R/I/B/F events).
    pub fn set_config(&mut self, config: TentConfig) {
        self.config = config;
    }

    /// Total open ventilation area for the current configuration, m².
    fn vent_area(&self) -> f64 {
        let p = &self.params;
        let mut a = p.vent_area_closed_m2;
        if self.config.tarpaulin_removed {
            a += p.vent_area_tarpaulin_m2;
        }
        if self.config.door_half_open {
            a += p.vent_area_door_m2;
        }
        a
    }

    /// Total loss conductance UA (W/K) for the given outside conditions.
    fn ua_total(&self, wind_ms: f64, delta_t_k: f64) -> f64 {
        let p = &self.params;
        let fabric = if self.config.inner_removed {
            p.ua_fabric_single_w_k
        } else {
            p.ua_fabric_double_w_k
        };
        let area = self.vent_area();
        let wind_flow = area * p.wind_coupling * wind_ms.max(0.0);
        let stack_flow = area * p.stack_coupling * delta_t_k.max(0.0).sqrt();
        let fan_flow = if self.config.fan {
            p.fan_flow_m3_s
        } else {
            0.0
        };
        fabric + RHO_AIR * CP_AIR * (wind_flow + stack_flow + fan_flow)
    }

    /// Solar heat input (W) for the given irradiance.
    fn solar_gain_w(&self, ghi_w_m2: f64) -> f64 {
        let alpha = if self.config.foil {
            self.params.absorptance_foil
        } else {
            self.params.absorptance_bare
        };
        alpha * self.params.solar_area_m2 * ghi_w_m2
    }

    /// Air-exchange low-pass time constant for humidity, s.
    fn rh_tau(&self, ua: f64) -> f64 {
        // More ventilation ⇒ faster RH tracking. Map UA (W/K) to a time
        // constant between ~25 min (closed) and ~4 min (fully open).
        let vent = (ua - self.params.ua_fabric_double_w_k).max(1.0);
        (150_000.0 / (vent * 100.0)).clamp(240.0, 1500.0)
    }
}

impl Enclosure for Tent {
    fn step(&mut self, dt_secs: f64, outside: &WeatherSample, it_power_w: f64) {
        let dt_k = self.air_temp_c - outside.temp_c;
        let ua = self.ua_total(outside.wind_ms, dt_k);
        let q = it_power_w + self.solar_gain_w(outside.solar_w_m2);
        let t_inf = outside.temp_c + q / ua;
        let k = (-dt_secs * ua / self.params.capacity_j_k).exp();
        self.air_temp_c = t_inf + (self.air_temp_c - t_inf) * k;

        // Humidity: ventilation brings in outside moisture; referred to the
        // inside temperature, then low-pass filtered by air exchange.
        let rh_target = psychro::rh_after_heating(outside.temp_c, outside.rh_pct, self.air_temp_c);
        let kr = (-dt_secs / self.rh_tau(ua)).exp();
        self.rh_pct = rh_target + (self.rh_pct - rh_target) * kr;
    }

    fn state(&self) -> EnclosureState {
        EnclosureState {
            air_temp_c: self.air_temp_c,
            air_rh_pct: self.rh_pct,
        }
    }

    fn name(&self) -> &'static str {
        "tent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_simkern::time::SimTime;

    fn wx(temp_c: f64, rh: f64, wind: f64, solar: f64) -> WeatherSample {
        WeatherSample {
            t: SimTime::ZERO,
            temp_c,
            rh_pct: rh,
            wind_ms: wind,
            solar_w_m2: solar,
            cloud: 0.5,
        }
    }

    fn settle(tent: &mut Tent, out: &WeatherSample, power: f64) -> f64 {
        for _ in 0..2_000 {
            tent.step(60.0, out, power);
        }
        tent.state().air_temp_c
    }

    #[test]
    fn closed_tent_retains_heat() {
        // 9 machines ≈ 1 kW, everything closed, moderate wind: the tent
        // should run far above ambient (the authors' "surprisingly good at
        // retaining heat").
        let out = wx(-10.0, 88.0, 4.0, 0.0);
        let mut tent = Tent::new(TentParams::default(), TentConfig::initial(), &out);
        let t = settle(&mut tent, &out, 1000.0);
        let dt = t - out.temp_c;
        assert!((12.0..30.0).contains(&dt), "closed-tent excess {dt} K");
    }

    #[test]
    fn fully_modified_tent_runs_cool() {
        let out = wx(-10.0, 88.0, 4.0, 0.0);
        let mut tent = Tent::new(TentParams::default(), TentConfig::fully_modified(), &out);
        let t = settle(&mut tent, &out, 1000.0);
        let dt = t - out.temp_c;
        assert!((1.0..8.0).contains(&dt), "modified-tent excess {dt} K");
    }

    #[test]
    fn each_modification_lowers_temperature() {
        let out = wx(-8.0, 85.0, 3.5, 150.0);
        let configs = [
            TentConfig::initial(),
            TentConfig {
                foil: true,
                ..TentConfig::initial()
            },
            TentConfig {
                foil: true,
                inner_removed: true,
                ..TentConfig::initial()
            },
            TentConfig {
                foil: true,
                inner_removed: true,
                tarpaulin_removed: true,
                ..TentConfig::initial()
            },
            TentConfig {
                foil: true,
                inner_removed: true,
                tarpaulin_removed: true,
                door_half_open: true,
                fan: false,
            },
            TentConfig::fully_modified(),
        ];
        let mut prev = f64::INFINITY;
        for (i, cfg) in configs.iter().enumerate() {
            let mut tent = Tent::new(TentParams::default(), *cfg, &out);
            let t = settle(&mut tent, &out, 1000.0);
            assert!(
                t < prev,
                "config {i} did not lower temperature: {t} vs {prev}"
            );
            prev = t;
        }
    }

    #[test]
    fn foil_cuts_solar_gain() {
        let out = wx(-5.0, 80.0, 3.0, 300.0);
        let mut bare = Tent::new(TentParams::default(), TentConfig::initial(), &out);
        let mut foiled = Tent::new(
            TentParams::default(),
            TentConfig {
                foil: true,
                ..TentConfig::initial()
            },
            &out,
        );
        let t_bare = settle(&mut bare, &out, 1000.0);
        let t_foil = settle(&mut foiled, &out, 1000.0);
        assert!(
            t_bare - t_foil > 2.0,
            "foil should measurably decrease internal temperature ({t_bare} vs {t_foil})"
        );
    }

    #[test]
    fn wind_increases_cooling_when_open() {
        let calm = wx(-8.0, 85.0, 0.5, 0.0);
        let windy = wx(-8.0, 85.0, 8.0, 0.0);
        let mk = || {
            Tent::new(
                TentParams::default(),
                TentConfig {
                    tarpaulin_removed: true,
                    door_half_open: true,
                    ..Default::default()
                },
                &calm,
            )
        };
        let t_calm = settle(&mut mk(), &calm, 1000.0);
        let t_windy = settle(&mut mk(), &windy, 1000.0);
        assert!(t_calm - t_windy > 3.0, "calm {t_calm} windy {t_windy}");
    }

    #[test]
    fn inside_rh_lower_and_tracks_heating() {
        let out = wx(-10.0, 90.0, 4.0, 0.0);
        let mut tent = Tent::new(TentParams::default(), TentConfig::initial(), &out);
        settle(&mut tent, &out, 1000.0);
        let s = tent.state();
        // Much warmer inside ⇒ much lower RH inside.
        assert!(s.air_rh_pct < 50.0, "inside RH {}", s.air_rh_pct);
        assert!(s.air_rh_pct > 5.0);
    }

    #[test]
    fn rh_smoother_than_outside() {
        // Feed an oscillating outside RH; the closed tent's inside RH should
        // have smaller swing amplitude relative to its own mean trend.
        let mut tent = Tent::new(
            TentParams::default(),
            TentConfig::initial(),
            &wx(-5.0, 85.0, 3.0, 0.0),
        );
        // Spin up.
        for _ in 0..500 {
            tent.step(60.0, &wx(-5.0, 85.0, 3.0, 0.0), 800.0);
        }
        let mut inside = Vec::new();
        let mut outside = Vec::new();
        for i in 0..600 {
            let phase = (i as f64 / 30.0) * std::f64::consts::TAU;
            let rh_out = 85.0 + 10.0 * phase.sin();
            tent.step(60.0, &wx(-5.0, rh_out, 3.0, 0.0), 800.0);
            inside.push(tent.state().air_rh_pct);
            outside.push(rh_out);
        }
        let swing = |xs: &[f64]| {
            let max = xs.iter().cloned().fold(f64::MIN, f64::max);
            let min = xs.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(
            swing(&inside) < 0.7 * swing(&outside),
            "inside swing {} vs outside {}",
            swing(&inside),
            swing(&outside)
        );
    }

    #[test]
    fn no_power_no_sun_tracks_ambient() {
        let out = wx(-12.0, 85.0, 3.0, 0.0);
        let mut tent = Tent::new(TentParams::default(), TentConfig::initial(), &out);
        let t = settle(&mut tent, &out, 0.0);
        assert!((t - out.temp_c).abs() < 0.2, "{t}");
    }
}
