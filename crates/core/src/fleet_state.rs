//! Struct-of-arrays fleet state: every per-host column the campaign steps.
//!
//! The campaign used to carry a `Vec<HostSim>` of fat per-host objects; at
//! 19 hosts that was fine, at 10,000 the pointer-chasing and per-host
//! allocations dominated. [`FleetState`] flattens the hot state into
//! parallel arrays indexed by a dense host index:
//!
//! * **hot columns** (`install_at`, `busy_until`, `last_wall_w`, …) — plain
//!   scalars read/written every tick, one cache line streams many hosts;
//! * **kernel banks** — chassis thermals in a [`CaseBank`] and hardware
//!   state in a [`HostBank`], the one model of each (the prototype weekend
//!   runs one-row banks);
//! * **cold objects** (`jobs`, `schedules`, `faults`, `records`, `stores`)
//!   — stateful machines touched at event cadence (10-minute runs, 5-minute
//!   fault polls, 20-minute collections), kept as parallel object vectors.
//!
//! ## Column ownership
//!
//! A column lives in a bank when its per-tick update is a pure function of
//! its own row plus scalar inputs; it stays an object when it owns RNG
//! streams or cross-host protocol state. Phases may borrow disjoint columns
//! simultaneously — the whole point of the layout is that the host-step
//! loop destructures [`FleetState`] once and walks flat slices.
//!
//! ## Determinism contract at scale
//!
//! Per-host randomness derives from labels (`host/{id}`, then `store`,
//! `job-corruption`, …) off the experiment seed, so a host's streams are
//! identical whether the fleet has 19 hosts or 10,000. Hosts are pushed in
//! fleet-plan order; the dense index is therefore reproducible, and the
//! golden-hash tests pin the 19-host paper fleet byte-for-byte.

use std::collections::BTreeMap;

use frostlab_faults::injector::HostFaults;
use frostlab_faults::repair::HostRecord;
use frostlab_faults::types::HostId;
use frostlab_hardware::columns::HostBank;
use frostlab_hardware::server::{ServerSpec, Vendor};
use frostlab_netsim::collector::MonitoredHost;
use frostlab_simkern::time::SimTime;
use frostlab_thermal::bank::CaseBank;
use frostlab_thermal::bank::ServerThermalParams;
use frostlab_workload::job::JobRunner;
use frostlab_workload::schedule::LoadSchedule;
use frostlab_workload::stats::Placement;

use crate::fleet::HostPlan;

/// Every machine starts its life at the February install temperature.
const INITIAL_CHASSIS_C: f64 = 18.0;

/// The chassis thermal parameters for a vendor's form factor.
fn thermal_params(vendor: Vendor) -> ServerThermalParams {
    match vendor {
        Vendor::A => ServerThermalParams::vendor_a_tower(),
        Vendor::B => ServerThermalParams::vendor_b_sff(),
        Vendor::C => ServerThermalParams::vendor_c_2u(),
    }
}

/// The hardware spec a plan's machine ships with.
pub fn spec_for(plan: &HostPlan) -> ServerSpec {
    match plan.vendor {
        Vendor::A => ServerSpec::vendor_a(),
        Vendor::B => ServerSpec::vendor_b(plan.defective),
        Vendor::C => ServerSpec::vendor_c(),
    }
}

/// Struct-of-arrays state for the whole fleet, indexed by dense host index.
#[derive(Debug, Default)]
pub struct FleetState {
    /// Static plans in push order (id, vendor, placement, install date…).
    pub plans: Vec<HostPlan>,
    /// Paper host id → dense index.
    idx_of: BTreeMap<u32, usize>,

    // --- hot columns, one scalar per host ---
    /// Install (power-on) time, copied from the plan for flat access.
    pub install_at: Vec<SimTime>,
    /// Tent or basement, copied from the plan for flat access.
    pub placement: Vec<Placement>,
    /// Enclosure zone within the placement kind, from the plan.
    pub zone: Vec<u32>,
    /// Permanently withdrawn (taken indoors)?
    pub withdrawn: Vec<bool>,
    /// End of the current run's CPU-busy window.
    pub busy_until: Vec<SimTime>,
    /// Next scheduled run start.
    pub next_run_at: Vec<SimTime>,
    /// Next sensor-log append.
    pub next_sensor_log: Vec<SimTime>,
    /// Pending staff inspection after a hang.
    pub inspection_due: Vec<Option<SimTime>>,
    /// Bit flips queued for the next pack-verify run.
    pub pending_flips: Vec<u32>,
    /// Page ops accumulated since the last fault poll.
    pub page_ops_since_poll: Vec<u64>,
    /// Wall power drawn during the previous tick, W.
    pub last_wall_w: Vec<f64>,
    /// Physical CPU temperature, °C.
    pub cpu_temp_c: Vec<f64>,
    /// Outcome of the indoor Memtest diagnosis, if one ran.
    pub memtest_failed: Vec<Option<bool>>,

    // --- kernel banks ---
    /// Chassis thermal chains (case + CPU RC network), flat.
    pub thermal: CaseBank,
    /// Hardware state machines (power, PSU, sensors, memory, disks), flat.
    pub hw: HostBank,

    // --- cold per-host objects, touched at event cadence ---
    /// Pack-verify job runners (own the corruption RNG stream).
    pub jobs: Vec<JobRunner>,
    /// Jittered 10-minute schedules.
    pub schedules: Vec<LoadSchedule>,
    /// Stochastic fault samplers.
    pub faults: Vec<HostFaults>,
    /// Repair-workflow histories.
    pub records: Vec<HostRecord>,
    /// Collectable log stores: a byte count per daily file.
    pub stores: Vec<MonitoredHost>,
}

impl FleetState {
    /// An empty fleet.
    pub fn new() -> FleetState {
        FleetState::default()
    }

    /// An empty fleet with room for `n` hosts.
    pub fn with_capacity(n: usize) -> FleetState {
        let mut f = FleetState::new();
        f.plans.reserve(n);
        f.install_at.reserve(n);
        f.placement.reserve(n);
        f.zone.reserve(n);
        f.withdrawn.reserve(n);
        f.busy_until.reserve(n);
        f.next_run_at.reserve(n);
        f.next_sensor_log.reserve(n);
        f.inspection_due.reserve(n);
        f.pending_flips.reserve(n);
        f.page_ops_since_poll.reserve(n);
        f.last_wall_w.reserve(n);
        f.cpu_temp_c.reserve(n);
        f.memtest_failed.reserve(n);
        f.jobs.reserve(n);
        f.schedules.reserve(n);
        f.faults.reserve(n);
        f.records.reserve(n);
        f.stores.reserve(n);
        f
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the fleet holds no hosts.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Dense index of paper host `id`, if present.
    pub fn index_of(&self, id: u32) -> Option<usize> {
        self.idx_of.get(&id).copied()
    }

    /// Is host `i` on site and not withdrawn at time `t`?
    pub fn installed(&self, i: usize, t: SimTime) -> bool {
        t >= self.install_at[i] && !self.withdrawn[i]
    }

    /// Add one host in fleet-plan order, returning its dense index. The
    /// machine comes up exactly like the old `HostSim` literal did: running,
    /// chassis at 18 °C, first run and sensor log due at its
    /// install time.
    pub fn push_host(
        &mut self,
        plan: HostPlan,
        spec: &ServerSpec,
        job: JobRunner,
        schedule: LoadSchedule,
        faults: HostFaults,
        store: MonitoredHost,
    ) -> usize {
        let idx = self.plans.len();
        self.idx_of.insert(plan.id, idx);
        self.install_at.push(plan.install_at);
        self.placement.push(plan.placement);
        self.zone.push(plan.zone);
        self.withdrawn.push(false);
        self.busy_until.push(plan.install_at);
        self.next_run_at.push(plan.install_at);
        self.next_sensor_log.push(plan.install_at);
        self.inspection_due.push(None);
        self.pending_flips.push(0);
        self.page_ops_since_poll.push(0);
        self.last_wall_w.push(0.0);
        self.cpu_temp_c.push(INITIAL_CHASSIS_C);
        self.memtest_failed.push(None);
        self.thermal
            .push(&thermal_params(plan.vendor), INITIAL_CHASSIS_C);
        self.hw.push_host(spec);
        self.jobs.push(job);
        self.schedules.push(schedule);
        self.faults.push(faults);
        self.records.push(HostRecord::new(HostId(plan.id)));
        self.stores.push(store);
        self.plans.push(plan);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::paper_fleet;
    use frostlab_simkern::rng::Rng;
    use frostlab_workload::job::{JobConfig, JobTemplate};

    fn build_paper_fleet_state() -> FleetState {
        let root = Rng::new(7);
        let injector = frostlab_faults::injector::FaultInjector::new(&root);
        let template = JobTemplate::build(JobConfig::default());
        let plans = paper_fleet();
        let mut fleet = FleetState::with_capacity(plans.len());
        for plan in plans {
            let host_rng = root.derive(&format!("host/{}", plan.id));
            let store = MonitoredHost::new(plan.id);
            let spec = spec_for(&plan);
            fleet.push_host(
                plan.clone(),
                &spec,
                JobRunner::from_template(&template, &host_rng),
                LoadSchedule::new(plan.install_at, &host_rng),
                injector.host(HostId(plan.id), plan.defective),
                store,
            );
        }
        fleet
    }

    #[test]
    fn columns_stay_parallel() {
        let fleet = build_paper_fleet_state();
        let n = fleet.len();
        assert_eq!(n, 19);
        assert_eq!(fleet.install_at.len(), n);
        assert_eq!(fleet.busy_until.len(), n);
        assert_eq!(fleet.thermal.len(), n);
        assert_eq!(fleet.hw.len(), n);
        assert_eq!(fleet.jobs.len(), n);
        assert_eq!(fleet.stores.len(), n);
        for i in 0..n {
            assert_eq!(fleet.install_at[i], fleet.plans[i].install_at);
            assert_eq!(fleet.placement[i], fleet.plans[i].placement);
            assert_eq!(fleet.index_of(fleet.plans[i].id), Some(i));
        }
        assert_eq!(fleet.index_of(999), None);
    }

    #[test]
    fn fresh_hosts_match_hostsim_initial_state() {
        let fleet = build_paper_fleet_state();
        for i in 0..fleet.len() {
            assert!(fleet.hw.is_running(i));
            assert_eq!(fleet.cpu_temp_c[i], INITIAL_CHASSIS_C);
            assert_eq!(fleet.thermal.cpu_temp_c(i), INITIAL_CHASSIS_C);
            assert_eq!(fleet.busy_until[i], fleet.plans[i].install_at);
            assert_eq!(fleet.next_run_at[i], fleet.plans[i].install_at);
            assert_eq!(fleet.next_sensor_log[i], fleet.plans[i].install_at);
            assert_eq!(fleet.last_wall_w[i], 0.0);
            assert!(!fleet.withdrawn[i]);
            assert_eq!(fleet.memtest_failed[i], None);
            let before = fleet.plans[i].install_at - frostlab_simkern::time::SimDuration::secs(1);
            assert!(!fleet.installed(i, before));
            assert!(fleet.installed(i, fleet.plans[i].install_at));
        }
    }

    #[test]
    fn vendor_ecc_flows_into_the_bank() {
        let fleet = build_paper_fleet_state();
        for i in 0..fleet.len() {
            let expect_ecc = fleet.plans[i].vendor == Vendor::C;
            let outcome_is_corrected = {
                let mut f = build_paper_fleet_state();
                f.hw.memory_apply_bit_flip(i)
                    == frostlab_hardware::memory::FlipOutcome::CorrectedByEcc
            };
            assert_eq!(
                outcome_is_corrected, expect_ecc,
                "host {}",
                fleet.plans[i].id
            );
        }
    }
}
