//! Struct-of-arrays host hardware.
//!
//! [`HostBank`] is frostlab's one model of a live host: power state, the
//! linear power model, PSU, motherboard sensor chip, memory exposure
//! counters and drive health, held in parallel flat arrays indexed by a
//! dense host index. Each method is a column kernel over one row, so the
//! prototype's single PC and a 10,000-host fleet step through the same code.
//!
//! Drives are modelled only as far as a campaign observes them: a campaign
//! injects pending sectors and runs long self-tests, and injection always
//! hits every drive of a host at once, so one flag per host carries the
//! S.M.A.R.T. verdict for all its drives.
//!
//! Column ownership: the bank owns everything whose per-tick update is a
//! pure function of (own row, scalar inputs). State machines with
//! cross-host coupling (job runners, schedules, fault samplers, repair
//! records, monitored file stores) stay as per-host objects in the fleet
//! layer.

use crate::memory::FlipOutcome;
use crate::sensors::{SensorState, ERRATIC_READING_C};
use crate::server::{PowerState, ServerSpec};

/// Dense-index struct-of-arrays state for every host's hardware.
#[derive(Debug, Clone, Default)]
pub struct HostBank {
    // --- server run state ---
    power_state: Vec<PowerState>,
    // --- linear power model constants ---
    dc_idle_w: Vec<f64>,
    dc_load_w: Vec<f64>,
    cpu_idle_w: Vec<f64>,
    cpu_load_w: Vec<f64>,
    // --- PSU ---
    psu_rated_w: Vec<f64>,
    psu_efficiency: Vec<f64>,
    psu_failed: Vec<bool>,
    // --- motherboard sensor chip ---
    sensor_state: Vec<SensorState>,
    sensor_min_seen_c: Vec<f64>,
    sensor_erratic_count: Vec<u64>,
    // --- memory exposure counters ---
    ecc: Vec<bool>,
    page_ops: Vec<u64>,
    silent_corruptions: Vec<u64>,
    // --- drives: a pending sector at block 0 on every drive ---
    disks_pending: Vec<bool>,
}

impl HostBank {
    /// An empty bank.
    pub fn new() -> Self {
        HostBank::default()
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.power_state.len()
    }

    /// Whether the bank holds no hosts.
    pub fn is_empty(&self) -> bool {
        self.power_state.is_empty()
    }

    /// Add one host assembled from `spec`, returning its dense index: running,
    /// with a working PSU, a pristine sensor chip and counters, and clean
    /// drives.
    pub fn push_host(&mut self, spec: &ServerSpec) -> usize {
        let idx = self.power_state.len();
        self.power_state.push(PowerState::Running);
        self.dc_idle_w.push(spec.idle_power_w);
        self.dc_load_w.push(spec.load_power_w);
        self.cpu_idle_w.push(spec.cpu_idle_w);
        self.cpu_load_w.push(spec.cpu_load_w);
        self.psu_rated_w.push(spec.psu_rated_w);
        self.psu_efficiency.push(spec.psu_efficiency);
        self.psu_failed.push(false);
        self.sensor_state.push(SensorState::Ok);
        self.sensor_min_seen_c.push(f64::INFINITY);
        self.sensor_erratic_count.push(0);
        self.ecc.push(spec.ecc);
        self.page_ops.push(0);
        self.silent_corruptions.push(0);
        self.disks_pending.push(false);
        idx
    }

    // --- run state ---

    /// Current power state of host `i`.
    pub fn power_state(&self, i: usize) -> PowerState {
        self.power_state[i]
    }

    /// True if host `i` is executing its workload.
    pub fn is_running(&self, i: usize) -> bool {
        self.power_state[i] == PowerState::Running
    }

    /// Hang host `i` (transient system failure); only a running machine
    /// can hang.
    pub fn hang(&mut self, i: usize) {
        if self.power_state[i] == PowerState::Running {
            self.power_state[i] = PowerState::Hung;
        }
    }

    /// Reset host `i`: resume running and warm-reboot the sensor chip
    /// (which is what recovers it, per §4.2.1).
    pub fn reset(&mut self, i: usize) {
        self.power_state[i] = PowerState::Running;
        self.sensor_warm_reboot(i);
    }

    /// Power host `i` down (taken indoors / decommissioned).
    pub fn power_off(&mut self, i: usize) {
        self.power_state[i] = PowerState::Off;
    }

    // --- power model and PSU ---

    /// DC power draw of host `i` at `utilization` (0 = idle, 1 = full).
    pub fn dc_power_w(&self, i: usize, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.dc_idle_w[i] + u * (self.dc_load_w[i] - self.dc_idle_w[i])
    }

    /// CPU package power of host `i` at `utilization`.
    pub fn cpu_power_w(&self, i: usize, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.cpu_idle_w[i] + u * (self.cpu_load_w[i] - self.cpu_idle_w[i])
    }

    /// Wall power of host `i` at `utilization`: 0 when off; a hung machine
    /// idles; the PSU delivers at most its rating, loses `1 − η` of the
    /// input, and draws nothing once failed.
    pub fn wall_power_w(&self, i: usize, utilization: f64) -> f64 {
        let dc = match self.power_state[i] {
            PowerState::Off => return 0.0,
            PowerState::Hung => self.dc_idle_w[i],
            PowerState::Running => self.dc_power_w(i, utilization),
        };
        if self.psu_failed[i] {
            0.0
        } else {
            dc.min(self.psu_rated_w[i]) / self.psu_efficiency[i]
        }
    }

    /// Fail the PSU of host `i`.
    pub fn psu_fail(&mut self, i: usize) {
        self.psu_failed[i] = true;
    }

    // --- sensor chip ---

    /// Read the CPU temperature through host `i`'s sensor chip: the true
    /// value while OK (tracking the campaign minimum), the erratic marker
    /// while faulted, nothing once undetected.
    pub fn sensor_read_cpu_temp(&mut self, i: usize, actual_c: f64) -> Option<f64> {
        match self.sensor_state[i] {
            SensorState::Ok => {
                self.sensor_min_seen_c[i] = self.sensor_min_seen_c[i].min(actual_c);
                Some(actual_c)
            }
            SensorState::Erratic => {
                self.sensor_erratic_count[i] += 1;
                Some(ERRATIC_READING_C)
            }
            SensorState::Undetected => None,
        }
    }

    /// Cold-fault host `i`'s sensor chip (only an OK chip goes erratic).
    pub fn sensor_inject_cold_fault(&mut self, i: usize) {
        if self.sensor_state[i] == SensorState::Ok {
            self.sensor_state[i] = SensorState::Erratic;
        }
    }

    /// Driver re-detect attempt: an erratic chip drops off the bus.
    pub fn sensor_attempt_redetect(&mut self, i: usize) {
        if self.sensor_state[i] == SensorState::Erratic {
            self.sensor_state[i] = SensorState::Undetected;
        }
    }

    /// Warm reboot recovers the chip unconditionally.
    pub fn sensor_warm_reboot(&mut self, i: usize) {
        self.sensor_state[i] = SensorState::Ok;
    }

    /// Minimum CPU temperature host `i`'s chip has truthfully reported.
    pub fn sensor_min_seen_c(&self, i: usize) -> f64 {
        self.sensor_min_seen_c[i]
    }

    /// Number of erratic (−111 °C) readings host `i` produced.
    pub fn sensor_erratic_count(&self, i: usize) -> u64 {
        self.sensor_erratic_count[i]
    }

    // --- memory exposure ---

    /// Record `n` page operations against host `i`.
    pub fn memory_record_page_ops(&mut self, i: usize, n: u64) {
        self.page_ops[i] = self.page_ops[i].saturating_add(n);
    }

    /// Apply one bit flip to host `i`: ECC corrects it, otherwise it is a
    /// silent corruption.
    pub fn memory_apply_bit_flip(&mut self, i: usize) -> FlipOutcome {
        if self.ecc[i] {
            FlipOutcome::CorrectedByEcc
        } else {
            self.silent_corruptions[i] += 1;
            FlipOutcome::SilentCorruption
        }
    }

    /// Lifetime page operations of host `i`.
    pub fn memory_page_ops(&self, i: usize) -> u64 {
        self.page_ops[i]
    }

    /// Silent corruptions accumulated by host `i`.
    pub fn memory_silent_corruptions(&self, i: usize) -> u64 {
        self.silent_corruptions[i]
    }

    // --- disks ---

    /// Inject a pending sector at block 0 of every drive in host `i`
    /// (idempotent).
    pub fn disks_inject_pending_sector0(&mut self, i: usize) {
        self.disks_pending[i] = true;
    }

    /// All of host `i`'s drives pass their long self-tests? A drive with a
    /// pending sector fails.
    pub fn disks_all_long_tests_pass(&self, i: usize) -> bool {
        !self.disks_pending[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> [ServerSpec; 3] {
        [
            ServerSpec::vendor_a(),
            ServerSpec::vendor_b(true),
            ServerSpec::vendor_c(),
        ]
    }

    fn one_host(spec: &ServerSpec) -> HostBank {
        let mut bank = HostBank::new();
        bank.push_host(spec);
        bank
    }

    #[test]
    fn paper_sensor_fault_chain() {
        let mut bank = one_host(&ServerSpec::vendor_a());
        // Normal cold operation: truthful readings down to −4 °C.
        assert_eq!(bank.sensor_read_cpu_temp(0, -4.0), Some(-4.0));
        assert_eq!(bank.sensor_min_seen_c(0), -4.0);

        // Deep-cold fault: erroneous −111 °C readings.
        bank.sensor_inject_cold_fault(0);
        assert_eq!(bank.sensor_read_cpu_temp(0, -2.0), Some(ERRATIC_READING_C));
        assert_eq!(bank.sensor_state[0], SensorState::Erratic);

        // Re-detection makes it worse: chip vanishes.
        bank.sensor_attempt_redetect(0);
        assert_eq!(bank.sensor_read_cpu_temp(0, 0.0), None);
        assert_eq!(bank.sensor_state[0], SensorState::Undetected);

        // A warm reboot restores it; no further problems.
        bank.sensor_warm_reboot(0);
        assert_eq!(bank.sensor_read_cpu_temp(0, 3.5), Some(3.5));
        assert_eq!(bank.sensor_state[0], SensorState::Ok);
    }

    #[test]
    fn redetect_on_healthy_chip_is_harmless() {
        let mut bank = one_host(&ServerSpec::vendor_a());
        bank.sensor_attempt_redetect(0);
        assert_eq!(bank.sensor_state[0], SensorState::Ok);
        assert_eq!(bank.sensor_read_cpu_temp(0, 10.0), Some(10.0));
    }

    #[test]
    fn cold_fault_on_undetected_chip_is_noop() {
        let mut bank = one_host(&ServerSpec::vendor_a());
        bank.sensor_inject_cold_fault(0);
        bank.sensor_attempt_redetect(0);
        bank.sensor_inject_cold_fault(0);
        assert_eq!(bank.sensor_state[0], SensorState::Undetected);
    }

    #[test]
    fn erratic_count_accumulates() {
        let mut bank = one_host(&ServerSpec::vendor_a());
        bank.sensor_inject_cold_fault(0);
        for _ in 0..5 {
            bank.sensor_read_cpu_temp(0, 1.0);
        }
        assert_eq!(bank.sensor_erratic_count(0), 5);
    }

    #[test]
    fn min_seen_only_tracks_truthful_readings() {
        let mut bank = one_host(&ServerSpec::vendor_a());
        bank.sensor_read_cpu_temp(0, 5.0);
        bank.sensor_inject_cold_fault(0);
        bank.sensor_read_cpu_temp(0, -50.0); // erratic, must not pollute min
        assert_eq!(bank.sensor_min_seen_c(0), 5.0);
    }

    #[test]
    fn wall_power_includes_psu_losses() {
        let spec = ServerSpec::vendor_b(false);
        let bank = one_host(&spec);
        assert_eq!(
            bank.wall_power_w(0, 1.0).to_bits(),
            (spec.load_power_w / spec.psu_efficiency).to_bits()
        );
        assert!(bank.wall_power_w(0, 1.0) > spec.load_power_w);
    }

    #[test]
    fn psu_output_capped_at_rating() {
        let bank = one_host(&ServerSpec {
            psu_rated_w: 60.0,
            ..ServerSpec::vendor_b(false)
        });
        assert!((bank.wall_power_w(0, 1.0) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn failed_psu_draws_nothing() {
        let mut bank = one_host(&ServerSpec::vendor_c());
        bank.psu_fail(0);
        assert_eq!(bank.wall_power_w(0, 1.0), 0.0);
        bank.hang(0);
        assert_eq!(bank.wall_power_w(0, 1.0), 0.0);
    }

    #[test]
    fn wall_power_by_state() {
        let mut bank = one_host(&ServerSpec::vendor_b(false));
        let running = bank.wall_power_w(0, 1.0);
        bank.hang(0);
        let hung = bank.wall_power_w(0, 1.0);
        assert!(hung < running && hung > 0.0);
        assert_eq!(hung, bank.wall_power_w(0, 0.0), "a hung host idles");
        bank.power_off(0);
        assert_eq!(bank.wall_power_w(0, 1.0), 0.0);
        assert_eq!(bank.power_state(0), PowerState::Off);
    }

    #[test]
    fn hang_and_reset_cycle() {
        let mut bank = one_host(&ServerSpec::vendor_b(true));
        bank.hang(0);
        assert!(!bank.is_running(0));
        assert_eq!(bank.power_state(0), PowerState::Hung);
        bank.reset(0);
        assert!(bank.is_running(0));
        // Only a running machine hangs.
        bank.power_off(0);
        bank.hang(0);
        assert_eq!(bank.power_state(0), PowerState::Off);
    }

    #[test]
    fn reset_recovers_sensor_chip() {
        let mut bank = one_host(&ServerSpec::vendor_a());
        bank.sensor_inject_cold_fault(0);
        bank.sensor_attempt_redetect(0);
        assert!(bank.sensor_read_cpu_temp(0, 0.0).is_none());
        bank.reset(0);
        assert_eq!(bank.sensor_read_cpu_temp(0, 1.0), Some(1.0));
    }

    #[test]
    fn ecc_split_matches_vendor_specs() {
        let mut bank = HostBank::new();
        for spec in specs() {
            bank.push_host(&spec);
        }
        assert_eq!(bank.memory_apply_bit_flip(0), FlipOutcome::SilentCorruption);
        assert_eq!(bank.memory_apply_bit_flip(1), FlipOutcome::SilentCorruption);
        assert_eq!(bank.memory_apply_bit_flip(2), FlipOutcome::CorrectedByEcc);
        assert_eq!(bank.memory_silent_corruptions(0), 1);
        assert_eq!(bank.memory_silent_corruptions(1), 1);
        assert_eq!(bank.memory_silent_corruptions(2), 0);
    }

    #[test]
    fn page_ops_saturate() {
        let mut bank = one_host(&ServerSpec::vendor_a());
        bank.memory_record_page_ops(0, 1000);
        assert_eq!(bank.memory_page_ops(0), 1000);
        bank.memory_record_page_ops(0, u64::MAX);
        bank.memory_record_page_ops(0, 10);
        assert_eq!(bank.memory_page_ops(0), u64::MAX);
    }

    #[test]
    fn power_model_interpolates() {
        let bank = one_host(&ServerSpec::vendor_a());
        assert_eq!(bank.dc_power_w(0, 0.0), 70.0);
        assert_eq!(bank.dc_power_w(0, 1.0), 125.0);
        assert!((bank.dc_power_w(0, 0.5) - 97.5).abs() < 1e-9);
        assert!(bank.cpu_power_w(0, 1.0) > bank.cpu_power_w(0, 0.0));
        // Clamping.
        assert_eq!(bank.dc_power_w(0, 2.0), 125.0);
        assert_eq!(bank.dc_power_w(0, -1.0), 70.0);
        assert_eq!(bank.cpu_power_w(0, 2.0), bank.cpu_power_w(0, 1.0));
    }

    #[test]
    fn pending_sector_fails_long_tests_on_every_vendor() {
        let mut bank = HostBank::new();
        for spec in specs() {
            bank.push_host(&spec);
        }
        for i in 0..bank.len() {
            assert!(bank.disks_all_long_tests_pass(i), "fresh drives pass");
            bank.disks_inject_pending_sector0(i);
            bank.disks_inject_pending_sector0(i);
            assert!(!bank.disks_all_long_tests_pass(i));
        }
    }
}
