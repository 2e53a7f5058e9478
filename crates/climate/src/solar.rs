//! Solar geometry and clear-sky irradiance.
//!
//! The tent's biggest uncontrolled heat input was direct sunlight on the
//! fabric — the paper's "R" intervention (reflective rescue-foil cover)
//! exists precisely because of it. To reproduce Fig. 3's daytime bumps the
//! thermal model needs a solar forcing term, which this module supplies from
//! first principles: solar declination (Cooper's formula), hour angle,
//! elevation for an arbitrary latitude, and a simple clear-sky global
//! horizontal irradiance with an atmospheric-transmission term.
//!
//! Helsinki (60.2 °N) in February: the sun rises ~8 h, peaks at ~14–17°
//! elevation — weak, but a dark tent fabric still absorbs a few hundred W.

/// Latitude of the Kumpula campus roof terrace, degrees north.
pub const HELSINKI_LAT_DEG: f64 = 60.2;

/// Solar constant, W/m².
const SOLAR_CONSTANT: f64 = 1361.0;

/// Solar declination in degrees for a given day of year (Cooper 1969).
fn declination_deg(day_of_year: u32) -> f64 {
    23.45
        * ((360.0 / 365.0) * (284.0 + day_of_year as f64))
            .to_radians()
            .sin()
}

/// Hour angle in degrees at local solar hour `h` (0–24, 12 = solar noon).
fn hour_angle_deg(hour_of_day: f64) -> f64 {
    15.0 * (hour_of_day - 12.0)
}

/// The solar geometry of one latitude and day of year: the pieces of the
/// elevation formula that depend only on those, hoisted into a per-day
/// value so the weather kernel's skeleton build pays one cosine and one
/// arcsine per tick instead of five trigonometric calls.
#[derive(Debug, Clone, Copy)]
pub struct SolarDayGeom {
    /// `sin(lat)·sin(dec)`.
    sin_lat_sin_dec: f64,
    /// `cos(lat)·cos(dec)`.
    cos_lat_cos_dec: f64,
}

impl SolarDayGeom {
    /// Geometry at `latitude_deg` for the given day of year.
    pub fn new(latitude_deg: f64, day_of_year: u32) -> Self {
        let lat = latitude_deg.to_radians();
        let dec = declination_deg(day_of_year).to_radians();
        SolarDayGeom {
            sin_lat_sin_dec: lat.sin() * dec.sin(),
            cos_lat_cos_dec: lat.cos() * dec.cos(),
        }
    }

    /// Solar elevation in degrees at local solar hour `hour_of_day`.
    pub fn elevation_deg(&self, hour_of_day: f64) -> f64 {
        let ha = hour_angle_deg(hour_of_day).to_radians();
        (self.sin_lat_sin_dec + self.cos_lat_cos_dec * crate::fastmath::cos(ha))
            .asin()
            .to_degrees()
    }

    /// Clear-sky GHI in W/m² at local solar hour `hour_of_day`.
    ///
    /// The sine of the elevation comes straight out of the hour-angle
    /// formula, so night (the common case at 60 °N in winter) costs one
    /// cosine and a compare; only daylight entries pay the `asin` and the
    /// air-mass attenuation.
    pub fn clear_sky_w_m2(&self, hour_of_day: f64) -> f64 {
        let ha = hour_angle_deg(hour_of_day).to_radians();
        let sin_elev = self.sin_lat_sin_dec + self.cos_lat_cos_dec * crate::fastmath::cos(ha);
        if sin_elev <= 0.0 {
            return 0.0;
        }
        clear_sky_from_sin_elevation(sin_elev, sin_elev.asin().to_degrees())
    }
}

/// `ln 0.7` — the bulk-transmittance attenuation exponent, precomputed.
const LN_0_7: f64 = -0.356_674_943_938_732_45;

/// Clear-sky global horizontal irradiance in W/m² at a positive elevation,
/// given with its sine.
///
/// Uses a simple air-mass attenuation (Kasten–Young air mass, bulk
/// transmittance 0.7) — adequate for forcing a lumped thermal model.
/// `sin(elevation)` doubles as `cos(zenith)` in the Kasten–Young air-mass
/// denominator and as the horizontal projection, and the `0.7^(am^0.678)`
/// attenuation runs fused in log space (one `ln`, two `exp` instead of two
/// `powf`).
fn clear_sky_from_sin_elevation(sin_elev: f64, elevation_deg: f64) -> f64 {
    let zen = 90.0 - elevation_deg;
    // Kasten & Young (1989) relative air mass.
    let am = 1.0
        / (sin_elev
            + 0.50572 * crate::fastmath::exp(-1.6364 * crate::fastmath::ln(96.07995 - zen)));
    let direct = SOLAR_CONSTANT
        * crate::fastmath::exp(LN_0_7 * crate::fastmath::exp(0.678 * crate::fastmath::ln(am)));
    // Horizontal projection plus a small diffuse fraction.
    let ghi = direct * sin_elev + 0.1 * direct;
    ghi.max(0.0)
}

/// Cloud attenuation factor for fractional cover `cloud ∈ [0, 1]`
/// (0 = clear). Follows the common `1 − 0.75·c³·⁴` fit (Kasten & Czeplak
/// 1980). The weather kernel scales each sample's clear-sky irradiance by
/// it.
pub fn cloud_attenuation(cloud: f64) -> f64 {
    let c = cloud.clamp(0.0, 1.0);
    1.0 - 0.75 * crate::fastmath::powf(c, 3.4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_simkern::time::SimTime;

    /// Clear-sky irradiance at Helsinki at `t` under cloud cover `cloud`,
    /// as the weather kernel computes it.
    fn irradiance(t: SimTime, cloud: f64) -> f64 {
        let day = SolarDayGeom::new(HELSINKI_LAT_DEG, t.day_of_year());
        day.clear_sky_w_m2(t.hour_of_day_f64()) * cloud_attenuation(cloud)
    }

    /// Hours the sun is above the horizon, counted minute by minute.
    fn day_length_hours(latitude_deg: f64, day_of_year: u32) -> f64 {
        let day = SolarDayGeom::new(latitude_deg, day_of_year);
        (0..1440)
            .filter(|&m| day.elevation_deg(f64::from(m) / 60.0) > 0.0)
            .count() as f64
            / 60.0
    }

    #[test]
    fn declination_extremes() {
        // Summer solstice ≈ +23.45°, winter ≈ −23.45°, equinox ≈ 0.
        assert!((declination_deg(172) - 23.45).abs() < 0.5);
        assert!((declination_deg(355) + 23.45).abs() < 0.5);
        assert!(declination_deg(81).abs() < 1.5);
    }

    #[test]
    fn helsinki_february_sun_is_low() {
        // Feb 15 (day 46), solar noon: elevation should be ~15–19°.
        let day = SolarDayGeom::new(HELSINKI_LAT_DEG, 46);
        let e = day.elevation_deg(12.0);
        assert!((12.0..22.0).contains(&e), "{e}");
        // Midnight: far below horizon.
        assert!(day.elevation_deg(0.0) < -30.0);
    }

    #[test]
    fn day_length_winter_vs_summer() {
        let feb = day_length_hours(HELSINKI_LAT_DEG, 46);
        let jun = day_length_hours(HELSINKI_LAT_DEG, 172);
        assert!((8.0..11.0).contains(&feb), "feb {feb}");
        assert!((17.0..20.5).contains(&jun), "jun {jun}");
        assert!(jun > feb);
    }

    #[test]
    fn polar_night_and_midnight_sun() {
        // 80 °N mid-winter: no day; mid-summer: 24 h.
        assert_eq!(day_length_hours(80.0, 355), 0.0);
        assert_eq!(day_length_hours(80.0, 172), 24.0);
    }

    #[test]
    fn irradiance_zero_at_night_positive_at_noon() {
        let night = SimTime::from_ymd_hms(2010, 2, 15, 1, 0, 0);
        let noon = SimTime::from_ymd_hms(2010, 2, 15, 12, 0, 0);
        assert_eq!(irradiance(night, 0.0), 0.0);
        let g = irradiance(noon, 0.0);
        assert!((100.0..500.0).contains(&g), "{g}");
    }

    #[test]
    fn clouds_attenuate() {
        let noon = SimTime::from_ymd_hms(2010, 3, 15, 12, 0, 0);
        let clear = irradiance(noon, 0.0);
        let overcast = irradiance(noon, 1.0);
        assert!(overcast < 0.35 * clear);
        assert!(overcast > 0.0);
    }

    #[test]
    fn clear_sky_monotone_in_elevation() {
        let mut prev = 0.0;
        for e in 1..=90 {
            let e = f64::from(e);
            let g = clear_sky_from_sin_elevation(e.to_radians().sin(), e);
            assert!(g >= prev, "elevation {e}");
            prev = g;
        }
        assert!(prev < SOLAR_CONSTANT);
    }

    #[test]
    fn spring_noon_brighter_than_winter_noon() {
        let feb = irradiance(SimTime::from_ymd_hms(2010, 2, 15, 12, 0, 0), 0.0);
        let may = irradiance(SimTime::from_ymd_hms(2010, 5, 10, 12, 0, 0), 0.0);
        assert!(may > 1.5 * feb, "feb {feb} may {may}");
    }
}
