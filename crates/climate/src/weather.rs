//! Stochastic multi-timescale weather generator.
//!
//! The generator composes four processes, mirroring how mid-latitude weather
//! actually decomposes:
//!
//! * a deterministic **seasonal** sinusoid (annual mean, amplitude, phase);
//! * a **synoptic** Ornstein–Uhlenbeck anomaly (high/low-pressure systems,
//!   relaxation time ≈ 3 days) — this is what produces multi-day cold snaps;
//! * a faster **mesoscale** OU anomaly (hours);
//! * a solar-locked **diurnal** cycle whose amplitude grows from winter to
//!   summer and is damped by cloud cover.
//!
//! Cloud cover, relative humidity and wind are correlated companion
//! processes: humidity rides on its own OU anomaly but is pushed *up* by
//! synoptic warming in winter (warm Atlantic air is moist air in Helsinki)
//! and *down* during the afternoon temperature peak; wind has a Weibull
//! marginal distribution obtained by probability-integral transform of an OU
//! Gaussian, so it keeps realistic gust persistence.
//!
//! **Historical anchors** let a scenario pin windows of the trace to the
//! statistics the paper reports (e.g. the prototype weekend mean of −9.2 °C)
//! while the texture stays stochastic. Anchors blend the synoptic state
//! toward a target mean with a smooth ramp, so the trace stays continuous.
//!
//! The model is advanced on a fixed internal step (60 s) and sampled
//! monotonically; identical `(params, seed)` always yields the identical
//! trace.
//!
//! # The two-part kernel
//!
//! Sampling splits into a **deterministic skeleton** and a **stochastic
//! residual**, because nothing in the deterministic part depends on the
//! seed:
//!
//! * The skeleton — seasonal mean, diurnal amplitude and phase cosine,
//!   RH/cloud seasonal means, the dew-point spread target, clear-sky solar
//!   irradiance, and the anchor blend — is a pure function of `(params, t)`.
//!   It is tabulated once per simulated day on the 60-s tick grid
//!   (`SkeletonEntry`, built lazily in day chunks with a small rolling
//!   cache so year-long campaigns stay O(1) in memory), so the per-sample
//!   cost collapses to one table lookup. Off-grid sample times fall back to
//!   computing the same entry directly — identical values, just not cached.
//! * The residual advances all five OU processes for a tick in one batched
//!   pass with the per-tick `exp(−Δt/τ)` decay and `√(1−a²)` noise gain
//!   precomputed at construction (the internal step is fixed), then
//!   assembles the sample with [`crate::fastmath`] bounded-error
//!   approximations for the few remaining per-sample transcendentals
//!   (Magnus `exp`, `erf`, Weibull `ln`/`powf`, cloud `powf`).
//!
//! The split is exact for the OU batching (same arithmetic, same RNG
//! streams); the fast-math approximations shift low-order bits, which is
//! why the golden hashes were re-pinned in the same change (cutover
//! documented in DESIGN.md §“Weather kernel”).

use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};

use crate::math::{clamp, lerp, smoothstep};
use crate::{fastmath, solar};

/// Internal state-advancement step for the OU processes.
const STEP: SimDuration = SimDuration::secs(60);
/// [`STEP`] in seconds, as the float the OU arithmetic uses.
const STEP_SECS_F: f64 = 60.0;

/// A window during which the temperature trace is blended toward a target
/// mean — used to reproduce documented episodes (prototype weekend, the
/// −22 °C cold snap) without giving up stochastic texture.
#[derive(Debug, Clone)]
pub struct Anchor {
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// Target mean temperature during the window, °C.
    pub target_mean_c: f64,
    /// Blend weight in `(0, 1]`; 1 pins the synoptic mean exactly.
    pub weight: f64,
}

/// Parameters describing one climate. Constructors for the three climates
/// used in the study live in [`crate::presets`].
#[derive(Debug, Clone)]
pub struct ClimateParams {
    /// Human-readable name ("Helsinki", …).
    pub name: &'static str,
    /// Site latitude (degrees north) — drives solar geometry.
    pub latitude_deg: f64,
    /// Annual mean temperature, °C.
    pub t_annual_mean_c: f64,
    /// Half peak-to-trough seasonal swing, K.
    pub t_seasonal_amplitude_k: f64,
    /// Day of year of the climatological temperature minimum.
    pub coldest_day_of_year: f64,
    /// Standard deviation of the synoptic anomaly, K.
    pub synoptic_sd_k: f64,
    /// Relaxation time of the synoptic anomaly, hours.
    pub synoptic_tau_hours: f64,
    /// Standard deviation of the mesoscale anomaly, K.
    pub meso_sd_k: f64,
    /// Relaxation time of the mesoscale anomaly, hours.
    pub meso_tau_hours: f64,
    /// Diurnal half-swing in mid-winter, K.
    pub diurnal_amp_winter_k: f64,
    /// Diurnal half-swing in mid-summer, K.
    pub diurnal_amp_summer_k: f64,
    /// Mean relative humidity in mid-winter, %.
    pub rh_mean_winter: f64,
    /// Mean relative humidity in mid-summer, %.
    pub rh_mean_summer: f64,
    /// Standard deviation of the RH anomaly, percentage points.
    pub rh_sd: f64,
    /// Relaxation time of the RH anomaly, hours.
    pub rh_tau_hours: f64,
    /// RH response to synoptic temperature anomaly, %-points per K
    /// (positive in maritime winter climates: warm advection is moist).
    pub rh_temp_coupling: f64,
    /// Weibull scale of the wind-speed marginal, m/s.
    pub wind_weibull_scale: f64,
    /// Weibull shape of the wind-speed marginal.
    pub wind_weibull_shape: f64,
    /// Relaxation time of the wind process, hours.
    pub wind_tau_hours: f64,
    /// Mean fractional cloud cover in mid-winter.
    pub cloud_mean_winter: f64,
    /// Mean fractional cloud cover in mid-summer.
    pub cloud_mean_summer: f64,
    /// Relaxation time of the cloud process, hours.
    pub cloud_tau_hours: f64,
    /// Historical anchors (may be empty).
    pub anchors: Vec<Anchor>,
}

impl ClimateParams {
    /// Seasonal-mean temperature on day `doy` (fractional days allowed).
    pub fn seasonal_mean_c(&self, doy: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (doy - self.coldest_day_of_year) / 365.25;
        self.t_annual_mean_c - self.t_seasonal_amplitude_k * phase.cos()
    }

    /// All deterministic per-tick quantities in one pass — the unit of the
    /// precomputed skeleton. One seasonal-phase cosine serves the seasonal
    /// mean and every `summerness`-interpolated field, and the dew-point
    /// spread target is inverted analytically from the Magnus relation
    /// instead of bisected.
    fn skeleton_entry(&self, t: SimTime) -> SkeletonEntry {
        let day = t.day_of_year();
        let geom = solar::SolarDayGeom::new(self.latitude_deg, day);
        self.skeleton_entry_in_day(t, day, &geom)
    }

    /// [`Self::skeleton_entry`] with the per-day pieces (integer day of
    /// year, solar geometry) hoisted: a skeleton chunk spans exactly one
    /// UTC day, so the chunk builder computes them once per 1440 entries.
    fn skeleton_entry_in_day(
        &self,
        t: SimTime,
        day_of_year: u32,
        geom: &solar::SolarDayGeom,
    ) -> SkeletonEntry {
        let h = t.hour_of_day_f64();
        let doy = day_of_year as f64 + h / 24.0;
        let phase = 2.0 * std::f64::consts::PI * (doy - self.coldest_day_of_year) / 365.25;
        let cphase = fastmath::cos(phase);
        let seasonal_c = self.t_annual_mean_c - self.t_seasonal_amplitude_k * cphase;
        let summerness = 0.5 * (1.0 - cphase);
        let rh_mean = lerp(self.rh_mean_winter, self.rh_mean_summer, summerness);
        // Dew-point spread (K) that yields the seasonal-mean RH at the
        // seasonal-mean temperature: the exact inverse of
        // `rel_humidity_from_dew_point(t, t − spread) = rh`, replacing the
        // 40-step bisection the pre-kernel generator ran per sample.
        let rh_target = clamp(rh_mean, 5.0, 100.0);
        let spread_target_k =
            (seasonal_c - crate::psychro::dew_point_fast_c(seasonal_c, rh_target)).clamp(0.0, 40.0);
        let (anchor_target_c, anchor_weight) = self.anchor_at(t).unwrap_or((0.0, 0.0));
        SkeletonEntry {
            seasonal_c,
            diurnal_amp_k: lerp(
                self.diurnal_amp_winter_k,
                self.diurnal_amp_summer_k,
                summerness,
            ),
            cloud_mean: lerp(self.cloud_mean_winter, self.cloud_mean_summer, summerness),
            spread_target_k,
            diurnal_cos: fastmath::cos(2.0 * std::f64::consts::PI * (h - 15.0) / 24.0),
            clear_sky_w_m2: geom.clear_sky_w_m2(h),
            anchor_target_c,
            anchor_weight,
        }
    }

    /// Anchor adjustment at `t`: `(target_offset, weight)` where weight
    /// ramps smoothly over 6 h at the window edges.
    fn anchor_at(&self, t: SimTime) -> Option<(f64, f64)> {
        let ramp = 6.0 * 3600.0;
        for a in &self.anchors {
            if t >= a.start - SimDuration::hours(6) && t <= a.end + SimDuration::hours(6) {
                let ts = t.as_secs() as f64;
                let up = smoothstep(
                    a.start.as_secs() as f64 - ramp,
                    a.start.as_secs() as f64,
                    ts,
                );
                let down =
                    1.0 - smoothstep(a.end.as_secs() as f64, a.end.as_secs() as f64 + ramp, ts);
                let w = a.weight * up.min(down);
                if w > 0.0 {
                    return Some((a.target_mean_c, w));
                }
            }
        }
        None
    }
}

/// One instantaneous weather state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherSample {
    /// Timestamp of the sample.
    pub t: SimTime,
    /// 2-m air temperature, °C.
    pub temp_c: f64,
    /// Relative humidity, %.
    pub rh_pct: f64,
    /// 10-min mean wind speed, m/s.
    pub wind_ms: f64,
    /// Global horizontal irradiance, W/m².
    pub solar_w_m2: f64,
    /// Fractional cloud cover, 0–1.
    pub cloud: f64,
}

/// One row of the precomputed deterministic skeleton: everything about a
/// sample instant that does not depend on the seed.
#[derive(Debug, Clone, Copy)]
struct SkeletonEntry {
    /// Seasonal-mean temperature, °C.
    seasonal_c: f64,
    /// Diurnal half-swing before cloud damping, K.
    diurnal_amp_k: f64,
    /// Seasonal-mean fractional cloud cover.
    cloud_mean: f64,
    /// Dew-point spread matching the seasonal RH target, K.
    spread_target_k: f64,
    /// `cos(2π(h − 15)/24)` — the diurnal phase factor.
    diurnal_cos: f64,
    /// Clear-sky global horizontal irradiance, W/m².
    clear_sky_w_m2: f64,
    /// Anchor target mean, °C (meaningful when `anchor_weight > 0`).
    anchor_target_c: f64,
    /// Anchor blend weight; 0 ⇒ no anchor active at this instant.
    anchor_weight: f64,
}

/// Ticks per skeleton chunk: one simulated day on the 60-s grid.
const CHUNK_TICKS: i64 = 1440;
/// Chunks kept resident when building lazily. Sampling is monotone, so a
/// small rolling window keeps even year-long campaigns at O(1) skeleton
/// memory.
const MIN_CHUNKS: usize = 4;
/// Upper bound on chunks built eagerly by [`Skeleton::prewarm`] (~3 MB);
/// campaigns longer than this fall back to rolling lazy builds past the
/// prewarmed window.
const PREWARM_MAX_CHUNKS: usize = 32;

/// Day-chunked table of [`SkeletonEntry`] on the tick grid: prewarmed for
/// the campaign window at construction, built lazily past it.
#[derive(Debug, Clone)]
struct Skeleton {
    /// `(chunk index, entries)` in build order; oldest evicted first.
    chunks: Vec<(i64, Box<[SkeletonEntry]>)>,
    /// Resident-chunk cap; [`Skeleton::prewarm`] raises it so an eagerly
    /// built campaign window is not evicted by its own construction.
    capacity: usize,
}

impl Default for Skeleton {
    fn default() -> Self {
        Skeleton {
            chunks: Vec::new(),
            capacity: MIN_CHUNKS,
        }
    }
}

impl Skeleton {
    /// Build one day chunk. A chunk spans exactly one UTC day (1440
    /// one-minute ticks from midnight), so the day of year and solar
    /// geometry are loop invariants of the build.
    fn build_chunk(params: &ClimateParams, chunk_idx: i64) -> Box<[SkeletonEntry]> {
        let base_tick = chunk_idx * CHUNK_TICKS;
        let day = SimTime::from_secs(base_tick * 60).day_of_year();
        let geom = solar::SolarDayGeom::new(params.latitude_deg, day);
        (0..CHUNK_TICKS)
            .map(|i| {
                params.skeleton_entry_in_day(SimTime::from_secs((base_tick + i) * 60), day, &geom)
            })
            .collect()
    }

    /// Insert a chunk, evicting the oldest beyond capacity.
    fn insert(&mut self, chunk_idx: i64, entries: Box<[SkeletonEntry]>) {
        if self.chunks.len() >= self.capacity {
            self.chunks.remove(0);
        }
        self.chunks.push((chunk_idx, entries));
    }

    /// Eagerly tabulate every chunk covering `[start, end]` (bounded by
    /// [`PREWARM_MAX_CHUNKS`]) so the sampling hot loop pays table lookups
    /// only. Idempotent; already-resident chunks are kept.
    fn prewarm(&mut self, params: &ClimateParams, start: SimTime, end: SimTime) {
        if end < start {
            return;
        }
        let first = start.as_secs().div_euclid(60 * CHUNK_TICKS);
        let last = end.as_secs().div_euclid(60 * CHUNK_TICKS);
        let count = ((last - first + 1) as usize).min(PREWARM_MAX_CHUNKS);
        self.capacity = self.capacity.max(count);
        for chunk_idx in first..first + count as i64 {
            if self.chunks.iter().any(|(idx, _)| *idx == chunk_idx) {
                continue;
            }
            let entries = Skeleton::build_chunk(params, chunk_idx);
            self.insert(chunk_idx, entries);
        }
    }

    /// Entry for `t`: cached when `t` lies on the 60-s tick grid, computed
    /// directly (same arithmetic) otherwise.
    fn entry(&mut self, params: &ClimateParams, t: SimTime) -> SkeletonEntry {
        let secs = t.as_secs();
        if secs % 60 != 0 {
            return params.skeleton_entry(t);
        }
        let tick = secs / 60;
        let chunk_idx = tick.div_euclid(CHUNK_TICKS);
        let offset = tick.rem_euclid(CHUNK_TICKS) as usize;
        if let Some((_, entries)) = self.chunks.iter().find(|(idx, _)| *idx == chunk_idx) {
            return entries[offset];
        }
        let entries = Skeleton::build_chunk(params, chunk_idx);
        let entry = entries[offset];
        self.insert(chunk_idx, entries);
        entry
    }
}

/// Ornstein–Uhlenbeck state in standard-normal units, with the whole-step
/// decay/noise coefficients precomputed (the internal step is fixed at
/// [`STEP`], so `exp(−Δt/τ)` is a per-process constant).
#[derive(Debug, Clone, Copy)]
struct Ou {
    z: f64,
    tau_secs: f64,
    /// `exp(−STEP/τ)`.
    step_decay: f64,
    /// `√(1 − step_decay²)`.
    step_noise: f64,
}

impl Ou {
    fn new(tau_hours: f64) -> Self {
        let tau_secs = tau_hours * 3600.0;
        let step_decay = (-STEP_SECS_F / tau_secs).exp();
        Ou {
            z: 0.0,
            tau_secs,
            step_decay,
            step_noise: (1.0 - step_decay * step_decay).sqrt(),
        }
    }

    /// Advance `n` whole internal steps in one batched pass.
    fn advance(&mut self, n: i64, rng: &mut Rng) {
        let (a, b) = (self.step_decay, self.step_noise);
        let mut z = self.z;
        for _ in 0..n {
            z = a * z + b * rng.standard_normal();
        }
        self.z = z;
    }

    /// Advance one partial step of `dt_secs < STEP` (grid-unaligned sample
    /// times only).
    fn step_partial(&mut self, dt_secs: f64, rng: &mut Rng) {
        let a = (-dt_secs / self.tau_secs).exp();
        self.z = a * self.z + (1.0 - a * a).sqrt() * rng.standard_normal();
    }
}

/// The stochastic weather generator. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct WeatherModel {
    params: ClimateParams,
    now: SimTime,
    skeleton: Skeleton,
    synoptic: Ou,
    meso: Ou,
    rh: Ou,
    wind: Ou,
    cloud: Ou,
    rng_synoptic: Rng,
    rng_meso: Rng,
    rng_rh: Rng,
    rng_wind: Rng,
    rng_cloud: Rng,
}

impl WeatherModel {
    /// Create a model; the internal state is spun up for 30 simulated days
    /// before the epoch so the OU processes start in their stationary
    /// distribution.
    pub fn new(params: ClimateParams, seed: u64) -> Self {
        let root = Rng::new(seed).derive("climate");
        let mut m = WeatherModel {
            skeleton: Skeleton::default(),
            synoptic: Ou::new(params.synoptic_tau_hours),
            meso: Ou::new(params.meso_tau_hours),
            rh: Ou::new(params.rh_tau_hours),
            wind: Ou::new(params.wind_tau_hours),
            cloud: Ou::new(params.cloud_tau_hours),
            rng_synoptic: root.derive("synoptic"),
            rng_meso: root.derive("meso"),
            rng_rh: root.derive("rh"),
            rng_wind: root.derive("wind"),
            rng_cloud: root.derive("cloud"),
            now: SimTime::ZERO - SimDuration::days(30),
            params,
        };
        // Spin-up: advance the OU states to stationarity before the epoch.
        m.advance_to(SimTime::ZERO);
        m
    }

    /// Precompute the per-campaign state so the sampling hot loop runs pure
    /// table lookups plus one OU tick: tabulates the deterministic skeleton
    /// for `[start, end]` and advances the OU residuals from the epoch to
    /// `start` (otherwise the first sample pays the whole epoch→start
    /// catch-up). Draw-for-draw identical to sampling without it — the
    /// catch-up consumes exactly the draws the first sample would have —
    /// just not charged to the hot phase. Optional and idempotent.
    pub fn prewarm(&mut self, start: SimTime, end: SimTime) {
        self.skeleton.prewarm(&self.params, start, end);
        self.advance_to(start);
    }

    /// Internal-state clock (last advanced instant).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the OU residuals to `t`: all whole internal steps for each
    /// process in one batched pass (precomputed decay, no per-step
    /// transcendentals), then at most one partial step. Each process owns
    /// its RNG stream, so batching per process draws the exact sequence the
    /// old per-substep interleaving did.
    fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        let total_secs = (t - self.now).as_secs();
        let whole = total_secs / STEP.as_secs();
        let rem = (total_secs % STEP.as_secs()) as f64;
        self.synoptic.advance(whole, &mut self.rng_synoptic);
        self.meso.advance(whole, &mut self.rng_meso);
        self.rh.advance(whole, &mut self.rng_rh);
        self.wind.advance(whole, &mut self.rng_wind);
        self.cloud.advance(whole, &mut self.rng_cloud);
        if rem > 0.0 {
            self.synoptic.step_partial(rem, &mut self.rng_synoptic);
            self.meso.step_partial(rem, &mut self.rng_meso);
            self.rh.step_partial(rem, &mut self.rng_rh);
            self.wind.step_partial(rem, &mut self.rng_wind);
            self.cloud.step_partial(rem, &mut self.rng_cloud);
        }
        self.now = t;
    }

    /// Sample the weather at `t`.
    ///
    /// # Panics
    /// Panics if `t` is earlier than a previously sampled instant (the model
    /// is a forward-only stochastic process).
    pub fn sample_at(&mut self, t: SimTime) -> WeatherSample {
        assert!(
            t >= self.now,
            "weather sampled backwards: {t:?} < {:?}",
            self.now
        );
        self.advance_to(t);
        self.assemble(t)
    }

    /// Batched equivalent of `n` successive [`Self::sample_at`] calls at
    /// `start, start + 60 s, …` — draw-for-draw and bit-for-bit identical
    /// (it runs the same advance and assembly per tick). The point is
    /// locality: one call per simulated day keeps the whole weather working
    /// set (skeleton chunk, OU and RNG state) hot instead of re-faulting it
    /// from cache every campaign tick.
    ///
    /// # Panics
    /// Panics if `start` is earlier than a previously sampled instant.
    pub fn sample_ticks(&mut self, start: SimTime, n: usize) -> Vec<WeatherSample> {
        assert!(
            start >= self.now,
            "weather sampled backwards: {start:?} < {:?}",
            self.now
        );
        let mut out = Vec::with_capacity(n);
        for i in 0..n as i64 {
            let t = start + SimDuration::secs(i * STEP.as_secs());
            self.advance_to(t);
            out.push(self.assemble(t));
        }
        out
    }

    /// Assemble the sample at `t` from the skeleton entry and the current
    /// OU residual states. Caller must have advanced the residuals to `t`.
    fn assemble(&mut self, t: SimTime) -> WeatherSample {
        let p = &self.params;
        // All deterministic per-instant quantities come from the skeleton
        // table (one lookup on the tick grid); only the OU residual
        // assembly below runs per sample.
        let e = self.skeleton.entry(&self.params, t);

        // --- cloud ---
        let cloud = clamp(e.cloud_mean + 0.35 * self.cloud.z, 0.0, 1.0);

        // --- temperature ---
        let synoptic_k = p.synoptic_sd_k * self.synoptic.z;
        let meso_k = p.meso_sd_k * self.meso.z;
        let mut base = e.seasonal_c + synoptic_k;
        if e.anchor_weight > 0.0 {
            base = lerp(base, e.anchor_target_c, e.anchor_weight);
        }
        // Diurnal cycle peaks mid-afternoon (≈ 15:00 local); clear skies
        // amplify it, overcast damps it.
        let diurnal = e.diurnal_amp_k * (1.0 - 0.6 * cloud) * e.diurnal_cos;
        let temp_c = base + meso_k + diurnal;

        // --- relative humidity, via the dew-point spread ---
        // The physically conserved short-term quantity is the air mass's
        // moisture content (dew point), not RH. We generate a *smooth*
        // dew-point spread (T − T_d) — seasonal target + slow OU anomaly +
        // synoptic coupling — and derive RH from it. Fast temperature
        // wiggles then anticorrelate with RH automatically, exactly as in
        // real traces, and downstream consumers (the tent) see a smooth
        // vapor-pressure signal.
        //
        // Map the configured RH variability (pp) into spread units (K):
        // d(RH)/d(spread) ≈ −6 pp/K in the relevant range.
        let spread = (e.spread_target_k + (p.rh_sd / 6.0) * self.rh.z
            - (p.rh_temp_coupling / 6.0) * synoptic_k)
            .max(0.05);
        // Dew point rides the *slow* temperature components only (seasonal
        // + synoptic, i.e. `base`): mesoscale and diurnal temperature
        // swings happen at constant moisture, so they show up as RH
        // variation — the anticorrelation real traces exhibit.
        let dew_point = (base - spread).min(temp_c);
        let rh_pct = clamp(
            crate::psychro::rel_humidity_from_dew_point(temp_c, dew_point),
            5.0,
            100.0,
        );

        // --- wind ---
        let u = fastmath::norm_cdf(self.wind.z).clamp(1e-9, 1.0 - 1e-9);
        let wind_ms = fastmath::weibull_quantile(u, p.wind_weibull_scale, p.wind_weibull_shape);

        // --- solar ---
        // Night (most winter ticks at 60 °N) skips the attenuation powf:
        // zero stays zero under any cloud factor.
        let solar_w_m2 = if e.clear_sky_w_m2 > 0.0 {
            e.clear_sky_w_m2 * solar::cloud_attenuation(cloud)
        } else {
            0.0
        };

        WeatherSample {
            t,
            temp_c,
            rh_pct,
            wind_ms,
            solar_w_m2,
            cloud,
        }
    }

    /// Generate a regularly sampled series over `[start, end]` inclusive.
    pub fn series(
        &mut self,
        start: SimTime,
        end: SimTime,
        step: SimDuration,
    ) -> Vec<WeatherSample> {
        assert!(step.as_secs() > 0, "step must be positive");
        let mut out = Vec::new();
        let mut t = start;
        while t <= end {
            out.push(self.sample_at(t));
            t += step;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn february_series(seed: u64) -> Vec<WeatherSample> {
        let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), seed);
        wx.series(
            SimTime::from_date(2010, 2, 1),
            SimTime::from_date(2010, 3, 1),
            SimDuration::minutes(30),
        )
    }

    #[test]
    fn deterministic_given_seed() {
        let a = february_series(7);
        let b = february_series(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.temp_c, y.temp_c);
            assert_eq!(x.rh_pct, y.rh_pct);
            assert_eq!(x.wind_ms, y.wind_ms);
        }
    }

    #[test]
    fn seeds_differ() {
        let a = february_series(1);
        let b = february_series(2);
        let identical = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.temp_c == y.temp_c)
            .count();
        assert!(identical < a.len() / 10);
    }

    #[test]
    fn february_mean_in_band() {
        // Winter 2009–2010 was harsh: Feb means around −7…−11 °C.
        for seed in [1, 2, 3, 4, 5] {
            let s = february_series(seed);
            let mean = s.iter().map(|x| x.temp_c).sum::<f64>() / s.len() as f64;
            assert!(
                (-13.0..=-4.0).contains(&mean),
                "seed {seed}: Feb mean {mean}"
            );
        }
    }

    #[test]
    fn winter_minimum_reaches_deep_cold() {
        // Season minimum (Jan–Mar) should land near the paper's −22 °C.
        for seed in [1, 2, 3] {
            let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), seed);
            let s = wx.series(
                SimTime::from_date(2010, 1, 5),
                SimTime::from_date(2010, 3, 31),
                SimDuration::minutes(30),
            );
            let min = s.iter().map(|x| x.temp_c).fold(f64::INFINITY, f64::min);
            assert!(
                (-30.0..=-15.0).contains(&min),
                "seed {seed}: winter min {min}"
            );
        }
    }

    #[test]
    fn rh_stays_in_range_and_high_in_winter() {
        let s = february_series(3);
        for x in &s {
            assert!((5.0..=100.0).contains(&x.rh_pct));
        }
        let mean_rh = s.iter().map(|x| x.rh_pct).sum::<f64>() / s.len() as f64;
        assert!((70.0..=95.0).contains(&mean_rh), "mean RH {mean_rh}");
    }

    #[test]
    fn wind_nonnegative_with_plausible_mean() {
        let s = february_series(4);
        assert!(s.iter().all(|x| x.wind_ms >= 0.0));
        let mean = s.iter().map(|x| x.wind_ms).sum::<f64>() / s.len() as f64;
        assert!((1.5..=8.0).contains(&mean), "mean wind {mean}");
    }

    #[test]
    fn solar_zero_at_night() {
        let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), 5);
        let night = wx.sample_at(SimTime::from_ymd_hms(2010, 2, 20, 2, 0, 0));
        assert_eq!(night.solar_w_m2, 0.0);
    }

    #[test]
    fn spring_is_warmer_than_winter() {
        let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), 6);
        let feb = wx.series(
            SimTime::from_date(2010, 2, 10),
            SimTime::from_date(2010, 2, 24),
            SimDuration::hours(1),
        );
        let may = wx.series(
            SimTime::from_date(2010, 5, 1),
            SimTime::from_date(2010, 5, 14),
            SimDuration::hours(1),
        );
        let m_feb = feb.iter().map(|x| x.temp_c).sum::<f64>() / feb.len() as f64;
        let m_may = may.iter().map(|x| x.temp_c).sum::<f64>() / may.len() as f64;
        assert!(m_may > m_feb + 8.0, "feb {m_feb} may {m_may}");
    }

    #[test]
    fn prototype_weekend_anchor_holds() {
        // The preset anchors Feb 12–15 to ≈ −9.2 °C (paper, Section 3.1).
        for seed in [1, 9, 42] {
            let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), seed);
            let s = wx.series(
                SimTime::from_date(2010, 2, 12),
                SimTime::from_date(2010, 2, 15),
                SimDuration::minutes(10),
            );
            let mean = s.iter().map(|x| x.temp_c).sum::<f64>() / s.len() as f64;
            assert!(
                (-12.0..=-6.5).contains(&mean),
                "seed {seed}: weekend mean {mean}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn sampling_backwards_panics() {
        let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), 1);
        wx.sample_at(SimTime::from_date(2010, 3, 1));
        wx.sample_at(SimTime::from_date(2010, 2, 1));
    }

    #[test]
    fn series_length() {
        let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), 1);
        let s = wx.series(
            SimTime::from_date(2010, 2, 1),
            SimTime::from_date(2010, 2, 2),
            SimDuration::hours(6),
        );
        assert_eq!(s.len(), 5); // 0, 6, 12, 18, 24 h
    }

    #[test]
    fn temperature_has_no_teleports() {
        // Consecutive 10-min samples should differ by well under 3 K.
        let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), 8);
        let s = wx.series(
            SimTime::from_date(2010, 2, 5),
            SimTime::from_date(2010, 2, 12),
            SimDuration::minutes(10),
        );
        for w in s.windows(2) {
            let d = (w[1].temp_c - w[0].temp_c).abs();
            assert!(d < 3.0, "jump of {d} K between consecutive samples");
        }
    }
}
