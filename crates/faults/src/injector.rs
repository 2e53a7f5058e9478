//! Stochastic fault injection.
//!
//! Each host owns a [`HostFaults`] sampler: a private, label-derived RNG
//! stream and its fatigue state, over hazard models that every host of its
//! series shares, polled once per simulation step with the current
//! environment. The per-host streams mean the draws for host #3
//! never change when host #7 is added to the fleet — scenario edits don't
//! scramble previously observed histories.

use std::sync::Arc;

use frostlab_simkern::rng::Rng;

use crate::hazard::{CyclingFatigue, EnvHazard};
use crate::types::{FaultKind, HostId};

/// Cold-exposure fault model for the motherboard sensor chip (§4.2.1).
///
/// The chip misbehaved only on the host that saw the deepest cold. Model:
/// while the CPU reads below `threshold_c`, the chip faults at a constant
/// rate — i.e. exposure time in deep cold is what matters.
#[derive(Debug, Clone)]
pub struct SensorColdFault {
    /// CPU temperature below which the chip is at risk, °C.
    pub threshold_c: f64,
    /// Fault rate while below threshold, per hour.
    pub rate_per_hour: f64,
}

impl Default for SensorColdFault {
    fn default() -> Self {
        SensorColdFault {
            threshold_c: -2.0,
            rate_per_hour: 1.0 / 60.0, // ~1 fault per 60 h of deep-cold CPU time
        }
    }
}

/// Conversion from accumulated Coffin–Manson damage to hang probability:
/// each reference-cycle (20 K) unit of fatigue adds this failure
/// probability. Solder-joint N_f at ΔT = 20 K is of order 10⁵–10⁶ cycles,
/// so the per-cycle probability must be ~10⁻⁶ — the workload's 10-minute
/// CPU micro-cycles (≈50 damage units/day) then cost ≈0.5 % per host over
/// a three-month campaign, while sustained deep thermal cycling still
/// registers in long ablations.
const FATIGUE_PROB_PER_UNIT: f64 = 2.0e-6;

/// The window of CPU temperatures, °C, in which a poll draws first.
///
/// Every [`EnvHazard`] rate is nondecreasing in temperature and in RH, and
/// RH is clamped to [1, 100] % (NaN to 1 %). So over the window a hazard's
/// rate lies between its rate at (`lo`, 1 %) and at (`hi`, 100 %).
const DRAW_FIRST_C: (f64, f64) = (-100.0, 150.0);

/// The least `λ·dt` a poll trusts to give `1 − exp(−λ·dt) > 0`, which
/// holds from about 2⁻⁵⁴ up; the margin absorbs rounding in the rate.
const MIN_EXACT_EXPOSURE: f64 = 1.0 / (1u64 << 50) as f64;

/// A bound on `1 − exp(−λ·dt)` for every rate λ in `[floor, top]`, which
/// also lies above 0; infinite when the floor cannot promise the latter.
/// `1 − exp(−x) ≤ x`, and the factor 2 covers rounding.
fn exposure_ceiling(floor: f64, top: f64, dt_hours: f64) -> f64 {
    if floor * dt_hours > MIN_EXACT_EXPOSURE {
        2.0 * top * dt_hours
    } else {
        f64::INFINITY
    }
}

/// An environmental hazard with the least and the largest value of its
/// rate per hour over [`DRAW_FIRST_C`].
#[derive(Debug)]
struct BoundedHazard {
    hazard: EnvHazard,
    floor: f64,
    top: f64,
}

impl BoundedHazard {
    fn new(hazard: EnvHazard) -> BoundedHazard {
        let (lo, hi) = DRAW_FIRST_C;
        BoundedHazard {
            floor: hazard.rate_per_hour(lo, 1.0),
            top: hazard.rate_per_hour(hi, 100.0),
            hazard,
        }
    }

    /// A ceiling on the failure probability over `dt_hours` at
    /// `cpu_temp_c` and any RH; infinite outside the window.
    fn ceiling(&self, cpu_temp_c: f64, dt_hours: f64) -> f64 {
        let (lo, hi) = DRAW_FIRST_C;
        if (lo..=hi).contains(&cpu_temp_c) {
            exposure_ceiling(self.floor, self.top, dt_hours)
        } else {
            f64::INFINITY
        }
    }
}

/// The hazards every host of one series shares, bounded so that a poll can
/// skip evaluating them.
#[derive(Debug)]
struct HazardSet {
    transient: BoundedHazard,
    disk: BoundedHazard,
    psu: BoundedHazard,
    sensor_cold: SensorColdFault,
}

impl HazardSet {
    fn new(defective_series: bool) -> HazardSet {
        HazardSet {
            transient: BoundedHazard::new(EnvHazard::transient_system_failure(defective_series)),
            disk: BoundedHazard::new(EnvHazard::disk_media_fault()),
            psu: BoundedHazard::new(EnvHazard::psu_failure()),
            sensor_cold: SensorColdFault::default(),
        }
    }
}

/// `rng.chance(p())`, drawing first and evaluating `p` only when the draw
/// lands under `ceiling`. Exact when `ceiling < 1` and `0 < p() ≤ ceiling`:
/// `chance` then draws once and returns `u < p`. Any other ceiling (≥ 1,
/// ∞, NaN) takes `chance` itself.
fn chance_under(rng: &mut Rng, ceiling: f64, p: impl FnOnce() -> f64) -> bool {
    if ceiling < 1.0 {
        let u = rng.f64();
        #[cfg(test)]
        if u < ceiling {
            tests::EXACT_HITS.with(|hits| hits.set(hits.get() + 1));
        }
        u < ceiling && u < p()
    } else {
        rng.chance(p())
    }
}

/// Per-host fault sampler.
#[derive(Debug, Clone)]
pub struct HostFaults {
    /// Which host this sampler belongs to.
    pub host: HostId,
    rng: Rng,
    hazards: Arc<HazardSet>,
    fatigue: CyclingFatigue,
    fatigue_billed: f64,
    /// The last Poisson mean's bits and its `exp(−mean)`.
    poisson_limit: (u64, f64),
    /// Memory bit-flip rate per page operation.
    pub mem_flip_rate_per_page_op: f64,
}

/// Summary of one poll step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PollOutcome {
    /// Faults other than memory flips, in occurrence order.
    pub faults: Vec<FaultKind>,
    /// Number of memory bit flips this step.
    pub memory_flips: u32,
}

impl HostFaults {
    /// Poll all stochastic fault processes over `dt_hours`.
    ///
    /// * `cpu_temp_c` — physical CPU temperature (drives Arrhenius, the
    ///   sensor cold fault and fatigue observation);
    /// * `ambient_rh_pct` — RH around the machine (drives Peck);
    /// * `page_ops` — memory page operations performed this step.
    ///
    /// While the CPU reads between −100 and 150 °C, each hazard draws
    /// first and is evaluated only when the draw lands under its ceiling
    /// (DESIGN §4); the draws and outcomes are those of evaluating every
    /// hazard.
    pub fn poll(
        &mut self,
        dt_hours: f64,
        cpu_temp_c: f64,
        ambient_rh_pct: f64,
        page_ops: u64,
    ) -> PollOutcome {
        let mut out = PollOutcome::default();
        let fatigue_p = self.bill_fatigue(cpu_temp_c);
        let set = &*self.hazards;
        let rng = &mut self.rng;
        let p = |h: &BoundedHazard| {
            h.hazard
                .failure_probability(cpu_temp_c, ambient_rh_pct, dt_hours)
        };

        // Transient system failure: environmental + fatigue. A fatigue
        // share that is not a number ≥ 0 could make p ≤ 0, so it takes
        // `chance` itself.
        let transient_ceiling = if fatigue_p >= 0.0 {
            set.transient.ceiling(cpu_temp_c, dt_hours) + 2.0 * fatigue_p
        } else {
            f64::INFINITY
        };
        if chance_under(rng, transient_ceiling, || p(&set.transient) + fatigue_p) {
            out.faults.push(FaultKind::TransientSystemFailure);
        }

        // Sensor chip cold fault: a constant chance below the threshold.
        let cold = &set.sensor_cold;
        if cpu_temp_c < cold.threshold_c
            && chance_under(
                rng,
                exposure_ceiling(cold.rate_per_hour, cold.rate_per_hour, dt_hours),
                || 1.0 - (-cold.rate_per_hour * dt_hours).exp(),
            )
        {
            out.faults.push(FaultKind::SensorChipErratic);
        }

        if chance_under(rng, set.disk.ceiling(cpu_temp_c, dt_hours), || p(&set.disk)) {
            out.faults.push(FaultKind::DiskPendingSector);
        }
        if chance_under(rng, set.psu.ceiling(cpu_temp_c, dt_hours), || p(&set.psu)) {
            out.faults.push(FaultKind::PsuFailure);
        }

        // Memory bit flips: Poisson in exposure. A host's page operations
        // per poll take a handful of values, so the limit is kept.
        if page_ops > 0 && self.mem_flip_rate_per_page_op > 0.0 {
            let mean = page_ops as f64 * self.mem_flip_rate_per_page_op;
            let flips = if mean > 0.0 && mean < 30.0 {
                if mean.to_bits() != self.poisson_limit.0 {
                    self.poisson_limit = (mean.to_bits(), (-mean).exp());
                }
                self.rng.poisson_with_limit(self.poisson_limit.1)
            } else {
                self.rng.poisson(mean)
            };
            out.memory_flips = flips as u32;
        }

        out
    }

    /// Observe a CPU temperature for thermal-cycling fatigue, and return
    /// the failure probability of the damage done since the last poll.
    fn bill_fatigue(&mut self, cpu_temp_c: f64) -> f64 {
        self.fatigue.observe(cpu_temp_c);
        let unbilled = self.fatigue.damage() - self.fatigue_billed;
        self.fatigue_billed = self.fatigue.damage();
        unbilled * FATIGUE_PROB_PER_UNIT
    }

    /// Accumulated thermal-cycling damage (diagnostics).
    pub fn fatigue_damage(&self) -> f64 {
        self.fatigue.damage()
    }
}

/// Factory for per-host samplers, all derived from one experiment seed.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    root: Rng,
    /// The hazards of ordinary and of defective-series hosts.
    hazards: [Arc<HazardSet>; 2],
    /// Memory flip rate applied to non-ECC hosts (paper estimate:
    /// ~1 / 570 M page ops).
    pub mem_flip_rate_per_page_op: f64,
}

impl FaultInjector {
    /// Create an injector; `seed_rng` is usually `Rng::new(seed)`.
    pub fn new(seed_rng: &Rng) -> Self {
        FaultInjector {
            root: seed_rng.derive("faults"),
            hazards: [false, true].map(|defective| Arc::new(HazardSet::new(defective))),
            mem_flip_rate_per_page_op: frostlab_hardware::memory::PAPER_FLIPS_PER_PAGE_OP,
        }
    }

    /// Build the sampler for one host.
    pub fn host(&self, host: HostId, defective_series: bool) -> HostFaults {
        let label = format!("host/{}", host.0);
        HostFaults {
            host,
            rng: self.root.derive(&label),
            hazards: Arc::clone(&self.hazards[usize::from(defective_series)]),
            fatigue: CyclingFatigue::solder_joint(),
            fatigue_billed: 0.0,
            poisson_limit: (0.0f64.to_bits(), 1.0),
            mem_flip_rate_per_page_op: self.mem_flip_rate_per_page_op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Draws that landed under their ceiling, so the hazard was evaluated.
        pub(super) static EXACT_HITS: Cell<u64> = const { Cell::new(0) };
    }

    /// The campaign's poll interval, 5 minutes, in hours.
    const POLL_HOURS: f64 = 5.0 / 60.0;

    fn injector(seed: u64) -> FaultInjector {
        FaultInjector::new(&Rng::new(seed))
    }

    impl HostFaults {
        /// The poll that evaluates every hazard before its draw: the
        /// reference for [`HostFaults::poll`].
        fn poll_reference(
            &mut self,
            dt_hours: f64,
            cpu_temp_c: f64,
            ambient_rh_pct: f64,
            page_ops: u64,
        ) -> PollOutcome {
            let mut out = PollOutcome::default();
            let fatigue_p = self.bill_fatigue(cpu_temp_c);
            let set = Arc::clone(&self.hazards);
            let p_env =
                set.transient
                    .hazard
                    .failure_probability(cpu_temp_c, ambient_rh_pct, dt_hours);
            if self.rng.chance(p_env + fatigue_p) {
                out.faults.push(FaultKind::TransientSystemFailure);
            }
            if cpu_temp_c < set.sensor_cold.threshold_c
                && self
                    .rng
                    .chance(1.0 - (-set.sensor_cold.rate_per_hour * dt_hours).exp())
            {
                out.faults.push(FaultKind::SensorChipErratic);
            }
            if self.rng.chance(set.disk.hazard.failure_probability(
                cpu_temp_c,
                ambient_rh_pct,
                dt_hours,
            )) {
                out.faults.push(FaultKind::DiskPendingSector);
            }
            if self.rng.chance(set.psu.hazard.failure_probability(
                cpu_temp_c,
                ambient_rh_pct,
                dt_hours,
            )) {
                out.faults.push(FaultKind::PsuFailure);
            }
            if page_ops > 0 && self.mem_flip_rate_per_page_op > 0.0 {
                let mean = page_ops as f64 * self.mem_flip_rate_per_page_op;
                out.memory_flips = self.rng.poisson(mean) as u32;
            }
            out
        }
    }

    /// A CPU temperature from a selector and a uniform `x` in [0, 1):
    /// mostly inside the draw-first window, else its edges, the far
    /// outside (swings that bill a fatigue share near 1), the cold
    /// threshold or a non-finite value.
    fn temp_c(pick: u8, x: f64) -> f64 {
        let (lo, hi) = DRAW_FIRST_C;
        match pick {
            0..=7 => lo + x * (hi - lo),
            8 => 60_000.0 * x - 30_000.0,
            9 => lo,
            10 => hi,
            11 => lo.next_up(),
            12 => hi.next_up(),
            13 => -2.0,
            14 => f64::NAN,
            15 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        }
    }

    /// An RH, %: mostly in [1, 100], else outside it or NaN.
    fn rh_pct(pick: u8, x: f64) -> f64 {
        match pick {
            0..=4 => 1.0 + 99.0 * x,
            5 => 250.0 * x - 50.0,
            _ => f64::NAN,
        }
    }

    /// A poll interval, hours: the campaign's, longer ones, one long
    /// enough that every ceiling reaches 1, and ones too short to trust.
    fn dt_hours(pick: u8) -> f64 {
        [POLL_HOURS, 1.0 / 60.0, 1.0, 4.0, 50.0, 1e-20, 0.0][usize::from(pick % 7)]
    }

    /// Page operations: none, up to a few jobs' worth, or enough for the
    /// Poisson sampler's normal branch.
    fn page_ops(pick: u8, n: u64) -> u64 {
        match pick {
            0 => 0,
            1 => 60_000_000_000,
            2 => u64::MAX,
            _ => n,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn draw_first_poll_equals_the_reference(
            seed in any::<u64>(),
            defective in any::<bool>(),
            steps in proptest::collection::vec(
                ((0u8..7, 0u8..17), 0.0..1.0f64, (0u8..7, 0.0..1.0f64), (0u8..6, 0u64..2_000_000)),
                1..200,
            ),
        ) {
            let mut fast = injector(seed).host(HostId(1), defective);
            let mut reference = fast.clone();
            for ((dt, t), x, (rh, y), (ops, n)) in steps {
                let (dt, t) = (dt_hours(dt), temp_c(t, x));
                let (rh, ops) = (rh_pct(rh, y), page_ops(ops, n));
                prop_assert_eq!(
                    fast.poll(dt, t, rh, ops),
                    reference.poll_reference(dt, t, rh, ops),
                    "at {} h, {} °C, {} %, {} ops", dt, t, rh, ops
                );
                prop_assert_eq!(fast.rng.clone().next_u64(), reference.rng.clone().next_u64());
            }
        }

        #[test]
        fn rates_are_nondecreasing_across_the_window(
            t in DRAW_FIRST_C.0..DRAW_FIRST_C.1,
            dtemp in 0.0..1.0f64,
            rh in 1.0..100.0f64,
            drh in 0.0..1.0f64,
        ) {
            // The ceilings assume each rate is largest at the window's hot,
            // wet corner and smallest at its cold, dry one.
            let t2 = (t + dtemp).min(DRAW_FIRST_C.1);
            let rh2 = (rh + drh).min(100.0);
            for defective in [false, true] {
                let set = HazardSet::new(defective);
                for h in [&set.transient.hazard, &set.disk.hazard, &set.psu.hazard] {
                    let r = h.rate_per_hour(t, rh);
                    prop_assert!(h.rate_per_hour(t2, rh) >= r.next_down(), "{:?} at {} °C", h, t);
                    prop_assert!(h.rate_per_hour(t, rh2) >= r.next_down(), "{:?} at {} %", h, rh);
                }
            }
        }
    }

    #[test]
    fn ceilings_stay_below_one_and_floors_above_rounding_at_the_poll_interval() {
        for defective in [false, true] {
            let set = HazardSet::new(defective);
            for h in [&set.transient, &set.disk, &set.psu] {
                assert!(h.ceiling(20.0, POLL_HOURS) < 1.0, "{h:?}");
                assert!(h.floor * POLL_HOURS > 2f64.powi(-52), "{h:?}");
                assert!(h.floor <= h.top, "{h:?}");
            }
            let cold = set.sensor_cold.rate_per_hour;
            assert!(exposure_ceiling(cold, cold, POLL_HOURS) < 1.0);
        }
    }

    #[test]
    fn exact_path_runs_and_matches_over_a_million_polls() {
        // Tent-like CPU temperatures, some below the cold threshold, and
        // one job's page operations now and then.
        let inj = injector(12);
        let mut fast = inj.host(HostId(4), true);
        let mut reference = fast.clone();
        EXACT_HITS.with(|hits| hits.set(0));
        let mut faults = 0;
        for i in 0..1_000_000u64 {
            let t = -6.0 + (i % 97) as f64 * 0.25;
            let rh = 40.0 + (i % 61) as f64;
            let ops = if i % 2 == 0 { 400_000 } else { 0 };
            let out = fast.poll(POLL_HOURS, t, rh, ops);
            assert_eq!(
                out,
                reference.poll_reference(POLL_HOURS, t, rh, ops),
                "poll {i}"
            );
            faults += out.faults.len();
        }
        assert_eq!(fast.rng.next_u64(), reference.rng.next_u64());
        let hits = EXACT_HITS.with(Cell::get);
        assert!(hits > 0, "no draw landed under a ceiling");
        assert!(hits < 10_000, "{hits} of 1 M polls took the exact path");
        assert!(faults > 0);
    }

    #[test]
    fn hosts_of_a_series_share_one_hazard_set() {
        let inj = injector(13);
        let (a, b) = (inj.host(HostId(1), false), inj.host(HostId(2), false));
        assert!(Arc::ptr_eq(&a.hazards, &b.hazards));
        assert!(!Arc::ptr_eq(&a.hazards, &inj.host(HostId(3), true).hazards));
    }

    #[test]
    fn deterministic_per_host_streams() {
        let inj = injector(5);
        let mut a1 = inj.host(HostId(3), false);
        let mut a2 = inj.host(HostId(3), false);
        for _ in 0..200 {
            assert_eq!(
                a1.poll(1.0, 5.0, 70.0, 1_000_000),
                a2.poll(1.0, 5.0, 70.0, 1_000_000)
            );
        }
    }

    #[test]
    fn hosts_are_independent_streams() {
        let inj = injector(6);
        let mut h3 = inj.host(HostId(3), false);
        let mut h7 = inj.host(HostId(7), false);
        let mut diff = false;
        for _ in 0..500 {
            // Large memory exposure makes the Poisson draws informative.
            let a = h3.poll(2.0, 30.0, 80.0, 2_000_000_000);
            let b = h7.poll(2.0, 30.0, 80.0, 2_000_000_000);
            if a != b {
                diff = true;
            }
        }
        assert!(
            diff,
            "independent hosts should not produce identical fault trains"
        );
    }

    #[test]
    fn memory_flip_rate_matches_paper_estimate() {
        let inj = injector(7);
        let mut h = inj.host(HostId(1), false);
        // 10^10 page ops in chunks → expect ≈ 17.5 flips at 1/570e6.
        let mut flips = 0u64;
        for _ in 0..10_000 {
            let o = h.poll(0.2, 21.0, 40.0, 1_000_000);
            flips += u64::from(o.memory_flips);
        }
        // Total exposure 10^10 ops; mean 17.5, sd ~4.2.
        assert!((4..=40).contains(&flips), "flips {flips}");
    }

    #[test]
    fn deep_cold_exposure_triggers_sensor_faults() {
        let inj = injector(8);
        let mut h = inj.host(HostId(1), false);
        let mut sensor_faults = 0;
        // 600 hours of CPU below −4 °C: expect ~10 cold faults at 1/60 h.
        for _ in 0..600 {
            let o = h.poll(1.0, -4.5, 85.0, 0);
            sensor_faults += o
                .faults
                .iter()
                .filter(|f| **f == FaultKind::SensorChipErratic)
                .count();
        }
        assert!(sensor_faults >= 2, "got {sensor_faults}");
        // And none when warm.
        let mut h2 = inj.host(HostId(2), false);
        let mut warm_faults = 0;
        for _ in 0..600 {
            let o = h2.poll(1.0, 10.0, 85.0, 0);
            warm_faults += o
                .faults
                .iter()
                .filter(|f| **f == FaultKind::SensorChipErratic)
                .count();
        }
        assert_eq!(warm_faults, 0);
    }

    #[test]
    fn defective_series_hangs_more() {
        // Count hangs across many host-campaigns for both series.
        let inj = injector(9);
        let count_hangs = |defective: bool, id_base: u32| {
            let mut hangs = 0;
            for i in 0..60 {
                let mut h = inj.host(HostId(id_base + i), defective);
                for _ in 0..(12 * 7 * 24 / 4) {
                    // 12 weeks in 4-hour steps
                    let o = h.poll(4.0, 2.0, 70.0, 0);
                    hangs += o
                        .faults
                        .iter()
                        .filter(|f| **f == FaultKind::TransientSystemFailure)
                        .count();
                }
            }
            hangs
        };
        let good = count_hangs(false, 1000);
        let bad = count_hangs(true, 2000);
        assert!(
            bad > 3 * good.max(1),
            "defective series should hang much more: {bad} vs {good}"
        );
    }

    #[test]
    fn fatigue_contributes_after_big_swings() {
        let inj = injector(10);
        let mut h = inj.host(HostId(1), false);
        for i in 0..2_000 {
            let t = if i % 2 == 0 { -10.0 } else { 40.0 };
            h.poll(1.0, t, 50.0, 0);
        }
        assert!(h.fatigue_damage() > 100.0, "damage {}", h.fatigue_damage());
    }

    #[test]
    fn zero_exposure_zero_flips() {
        let inj = injector(11);
        let mut h = inj.host(HostId(1), false);
        for _ in 0..100 {
            assert_eq!(h.poll(1.0, 21.0, 40.0, 0).memory_flips, 0);
        }
    }
}
