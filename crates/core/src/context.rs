//! The shared per-tick campaign state that every [`crate::phases::TickPhase`]
//! steps over.
//!
//! [`CampaignCtx`] owns everything the campaign touches — the clock, the
//! RNG lane root, the weather models, the enclosures, the fleet, the
//! instruments, the collection network, the watchdog and every accumulator
//! that ends up in [`ExperimentResults`]. Phases receive `&mut CampaignCtx`
//! and communicate with each other exclusively through it: the weather
//! phase writes [`CampaignCtx::weather`], the enclosure phase writes
//! [`CampaignCtx::tent_zone_states`] and [`CampaignCtx::tent_power_w`], the
//! power phase integrates what the enclosure phase computed, and so on.
//!
//! Per-host state lives in [`FleetState`] — struct-of-arrays columns the
//! host-step phase walks in bulk. The paper's fleet shares one tent and
//! one basement; generated fleets spread over many nine-host *zones*, each
//! with its own enclosure RC network ([`CampaignCtx::tents`] /
//! [`CampaignCtx::basements`]), so the thermal model stays physical at
//! 10,000 hosts. Zone 0 is always the instrumented primary pair — the
//! Lascar, the truth series and the power meter keep watching it.
//!
//! Cross-cutting fault plumbing (hangs, scripted events, chaos events, the
//! indoor-diagnosis workflow) lives here as methods so that any phase —
//! stock or user-written — can trigger them consistently.

use std::collections::BTreeMap;

use frostlab_climate::station::{StationConfig, WeatherObservation, WeatherStation};
use frostlab_climate::weather::{WeatherModel, WeatherSample};
use frostlab_faults::chaos::{ChaosEngine, ChaosEvent};
use frostlab_faults::injector::FaultInjector;
use frostlab_faults::repair::{Disposition, HostRecord, RepairPolicy};
use frostlab_faults::types::{FaultEvent, FaultKind, HostId};
use frostlab_netsim::collector::{Collector, MonitoredHost};
use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};
use frostlab_telemetry::lascar::{LascarConfig, LascarLogger};
use frostlab_telemetry::outlier::SpikeFilter;
use frostlab_telemetry::series::TimeSeries;
use frostlab_telemetry::technoline::CostControlMeter;
use frostlab_thermal::basement::Basement;
use frostlab_thermal::enclosure::{Enclosure, EnclosureState};
use frostlab_thermal::tent::{Tent, TentConfig};
use frostlab_trace::Tracer;
use frostlab_workload::job::{JobRunner, JobTemplate};
use frostlab_workload::schedule::LoadSchedule;
use frostlab_workload::stats::{Placement, WorkloadStats};

use crate::config::{ExperimentConfig, FaultMode, TICK};
use crate::fleet::{switch_assignment, FleetBuilder, SwitchFailoverPolicy};
use crate::fleet_state::{spec_for, FleetState};
use crate::results::{ExperimentResults, HostSummary, StoredArchive};
use crate::scripted::ScriptedEvent;
use crate::watchdog::{IncidentKind, Watchdog};

/// Live chaos-injection state (stochastic mode with `cfg.chaos` set).
pub struct ChaosState {
    /// The pre-generated chaos event schedule.
    pub engine: ChaosEngine,
    /// Per-attempt loss draws during a link-loss burst.
    pub draws: Rng,
    /// End of the current link-loss burst.
    pub loss_until: SimTime,
    /// Per-attempt drop probability during the burst.
    pub loss_prob: f64,
}

/// All campaign state, shared across phases through `&mut`.
pub struct CampaignCtx {
    /// The campaign configuration.
    pub cfg: ExperimentConfig,
    /// The clock: the tick currently being simulated.
    pub now: SimTime,
    /// RNG lane root. [`Rng::derive`] new labelled streams from it; adding
    /// a consumer never perturbs existing streams.
    pub root: Rng,
    /// The synthetic winter.
    pub wx: WeatherModel,
    /// The SMEAR III surrogate observing it.
    pub station: WeatherStation,
    /// Current-tick weather sample (written by the weather phase).
    pub weather: WeatherSample,
    /// One tent per tent zone; zone 0 is the instrumented tent on the
    /// roof terrace (the paper's fleet has no other).
    pub tents: Vec<Tent>,
    /// One basement room per basement zone; zone 0 is the control group's.
    pub basements: Vec<Basement>,
    /// Per-zone tent air states this tick (written by the enclosure phase).
    pub tent_zone_states: Vec<EnclosureState>,
    /// Per-zone basement air states this tick (written by the enclosure
    /// phase).
    pub basement_zone_states: Vec<EnclosureState>,
    /// Zone-0 tent-group wall power this tick, W (written by the enclosure
    /// phase from the *previous* tick's per-host draw, read by the power
    /// phase — the meter hangs off the instrumented tent's feed).
    pub tent_power_w: f64,
    /// The Lascar USB logger in the tent.
    pub lascar: LascarLogger,
    /// The Technoline wall-power meter on the tent feed.
    pub meter: CostControlMeter,
    /// The monitoring host's collection pipeline.
    pub collector: Collector,
    /// The fleet, as struct-of-arrays columns.
    pub fleet: FleetState,
    /// Which of the two tent switches are up.
    pub switch_up: [bool; 2],
    /// Incident bookkeeping.
    pub watchdog: Watchdog,
    /// Spare-switch repair policy (stochastic/chaos mode).
    pub failover: SwitchFailoverPolicy,
    /// Escalation policy for the Monday repair visits.
    pub repair_policy: RepairPolicy,
    /// Chaos-injection state (`None` outside chaos mode).
    pub chaos: Option<ChaosState>,
    /// Chaos-mode switch repairs scheduled by the failover policy.
    pub pending_switch_restores: Vec<(SimTime, usize)>,
    /// Workload bookkeeping accumulator.
    pub workload: WorkloadStats,
    /// Every fault event so far.
    pub fault_events: Vec<FaultEvent>,
    /// Wrong-hash archives kept for forensics.
    pub stored_archives: Vec<StoredArchive>,
    /// Tent air temperature truth series (10-min cadence).
    pub tent_temp_truth: TimeSeries,
    /// Tent air RH truth series.
    pub tent_rh_truth: TimeSeries,
    /// Basement air temperature truth series.
    pub basement_temp: TimeSeries,
    /// The station's outside observations.
    pub outside: Vec<WeatherObservation>,
    /// True tent-group energy integral, Wh.
    pub energy_true_wh: f64,
    /// The campaign's trace handle. Disabled (a no-op) by default;
    /// [`crate::scenario::ScenarioBuilder::with_tracing`] arms it. Draws
    /// no randomness, so arming it never perturbs any RNG stream.
    pub tracer: Tracer,
    /// The fleet health observatory (rollups, SLO burn-rate alerting,
    /// flight recorder). `None` by default — one branch per tick;
    /// [`crate::scenario::ScenarioBuilder::with_observability`] arms it.
    /// Boxed so the disabled campaign carries a single pointer. Like the
    /// tracer, it draws no randomness and no wall-clock.
    pub obs: Option<Box<frostlab_obs::ObsState>>,
}

impl CampaignCtx {
    /// Build the campaign state: fleet, instruments, network, chaos.
    ///
    /// Construction order (and every `derive` label) is part of the
    /// determinism contract: the golden-hash tests pin the resulting
    /// streams, so keep it stable.
    ///
    /// # Panics
    ///
    /// If `cfg.start` is off the [`TICK`] grid.
    pub fn new(cfg: ExperimentConfig) -> CampaignCtx {
        assert!(
            cfg.start.as_secs() % TICK.as_secs() == 0,
            "campaign start {} is off the {}-s tick grid",
            cfg.start.datetime(),
            TICK.as_secs()
        );
        let root = Rng::new(cfg.seed);
        let mut wx = WeatherModel::new(cfg.climate.clone(), cfg.seed);
        // Tabulate the deterministic weather skeleton for the campaign
        // window up front, so the weather phase pays table lookups only.
        wx.prewarm(cfg.start, cfg.end);
        let station = WeatherStation::new(StationConfig::default(), cfg.start, &root);
        let boot_weather = WeatherSample {
            t: cfg.start,
            temp_c: cfg.climate.seasonal_mean_c(cfg.start.day_of_year() as f64),
            rh_pct: 85.0,
            wind_ms: 3.0,
            solar_w_m2: 0.0,
            cloud: 0.7,
        };
        let injector = FaultInjector::new(&root);
        let template = JobTemplate::build(cfg.job.clone());
        let collector = Collector::new(&root.derive("collector"));

        let plans = FleetBuilder::from_spec(cfg.fleet).plans(cfg.start);
        let mut fleet = FleetState::with_capacity(plans.len());
        for plan in plans {
            let host_rng = root.derive(&format!("host/{}", plan.id));
            let store = MonitoredHost::new(plan.id);
            let mut spec = spec_for(&plan);
            if cfg.force_ecc {
                spec.ecc = true;
            }
            let job = JobRunner::from_template(&template, &host_rng);
            let schedule = LoadSchedule::new(plan.install_at, &host_rng);
            let faults = injector.host(HostId(plan.id), plan.defective);
            fleet.push_host(plan, &spec, job, schedule, faults, store);
        }

        let lascar = LascarLogger::new(LascarConfig::default(), cfg.lascar_deployed_at, &root);
        let meter = CostControlMeter::new(&root);

        // Chaos injection only exists in stochastic mode; scripted mode
        // replays the paper's history verbatim. The engine and its draw
        // stream come from `derive`, so enabling/disabling chaos never
        // shifts any other consumer's randomness.
        let chaos = match (&cfg.fault_mode, &cfg.chaos) {
            (FaultMode::Stochastic, Some(chaos_cfg)) => {
                let host_ids: Vec<u32> = fleet.plans.iter().map(|p| p.id).collect();
                Some(ChaosState {
                    engine: ChaosEngine::generate(
                        chaos_cfg,
                        (cfg.start, cfg.end),
                        &host_ids,
                        2,
                        &root,
                    ),
                    draws: root.derive("chaos-draws"),
                    loss_until: cfg.start,
                    loss_prob: 0.0,
                })
            }
            _ => None,
        };

        // One enclosure per zone. `Tent::new` and `Basement::new` draw no
        // randomness, so building them here is RNG-neutral; the paper fleet
        // (all zone 0) builds one of each.
        let (mut tent_zones, mut basement_zones) = (1usize, 1usize);
        for (i, p) in fleet.plans.iter().enumerate() {
            let z = fleet.zone[i] as usize + 1;
            match p.placement {
                Placement::Tent => tent_zones = tent_zones.max(z),
                Placement::Basement => basement_zones = basement_zones.max(z),
            }
        }
        let tents: Vec<Tent> = (0..tent_zones)
            .map(|_| Tent::new(cfg.tent.clone(), TentConfig::initial(), &boot_weather))
            .collect();
        let basements: Vec<Basement> = (0..basement_zones).map(|_| Basement::new()).collect();
        let tent_zone_states = tents.iter().map(Enclosure::state).collect();
        let basement_zone_states = basements.iter().map(Enclosure::state).collect();
        CampaignCtx {
            now: cfg.start,
            root,
            station,
            wx,
            weather: boot_weather,
            tents,
            basements,
            tent_zone_states,
            basement_zone_states,
            tent_power_w: 0.0,
            lascar,
            meter,
            collector,
            fleet,
            switch_up: [true, true],
            watchdog: Watchdog::new(),
            failover: SwitchFailoverPolicy::default(),
            repair_policy: RepairPolicy::default(),
            chaos,
            pending_switch_restores: Vec::new(),
            workload: WorkloadStats::new(),
            fault_events: Vec::new(),
            stored_archives: Vec::new(),
            tent_temp_truth: TimeSeries::new(),
            tent_rh_truth: TimeSeries::new(),
            basement_temp: TimeSeries::new(),
            outside: Vec::new(),
            energy_true_wh: 0.0,
            tracer: Tracer::disabled(),
            obs: None,
            cfg,
        }
    }

    /// Is host `idx`'s collection path up?
    pub fn reachable(&self, idx: usize) -> bool {
        if !self.fleet.hw.is_running(idx) {
            return false;
        }
        match self.fleet.placement[idx] {
            Placement::Basement => true,
            Placement::Tent => self.switch_up[switch_assignment(self.fleet.plans[idx].id)],
        }
    }

    /// Append a fault event to the campaign ledger.
    pub fn record_fault(&mut self, at: SimTime, host: u32, kind: FaultKind) {
        self.fault_events.push(FaultEvent {
            at,
            host: HostId(host),
            kind,
        });
    }

    /// Hang host `idx`: stop the box, open an incident, schedule the next
    /// staff inspection.
    pub fn apply_hang(&mut self, idx: usize, at: SimTime) {
        let due = HostRecord::next_inspection(at);
        if !self.fleet.hw.is_running(idx) {
            return;
        }
        self.fleet.hw.hang(idx);
        self.fleet.records[idx].record_failure(at);
        self.fleet.inspection_due[idx] = Some(due);
        let id = self.fleet.plans[idx].id;
        self.watchdog
            .open(IncidentKind::HostHang, &format!("host-{id}"), at);
        self.record_fault(at, id, FaultKind::TransientSystemFailure);
    }

    /// Apply one scripted event.
    pub fn handle_scripted(&mut self, at: SimTime, ev: ScriptedEvent) {
        match ev {
            ScriptedEvent::TentReconfig { config, .. } => {
                // Operators reconfigure every tent the same way — zone 0's
                // airflow mods applied fleet-wide.
                for tent in &mut self.tents {
                    tent.set_config(config);
                }
            }
            ScriptedEvent::HostHang { host } => {
                if let Some(idx) = self.fleet.index_of(host) {
                    self.apply_hang(idx, at);
                }
            }
            ScriptedEvent::SensorColdFault { host } => {
                if let Some(idx) = self.fleet.index_of(host) {
                    self.fleet.hw.sensor_inject_cold_fault(idx);
                }
                self.watchdog.open(
                    IncidentKind::SensorFault,
                    &format!("host-{host}/sensor"),
                    at,
                );
                self.record_fault(at, host, FaultKind::SensorChipErratic);
            }
            ScriptedEvent::SensorRedetect { host } => {
                if let Some(idx) = self.fleet.index_of(host) {
                    self.fleet.hw.sensor_attempt_redetect(idx);
                }
            }
            ScriptedEvent::SensorWarmReboot { host } => {
                if let Some(idx) = self.fleet.index_of(host) {
                    self.fleet.hw.sensor_warm_reboot(idx);
                }
                self.watchdog.resolve(
                    &format!("host-{host}/sensor"),
                    at,
                    "sensor chip warm-rebooted",
                );
            }
            ScriptedEvent::SwitchDown { switch } => {
                self.switch_up[switch] = false;
                self.watchdog
                    .open(IncidentKind::SwitchFailure, &format!("switch-{switch}"), at);
                self.record_fault(at, 101 + switch as u32, FaultKind::SwitchFailure);
            }
            ScriptedEvent::SwitchRestored { switch } => {
                self.switch_up[switch] = true;
                self.watchdog
                    .resolve(&format!("switch-{switch}"), at, "spare switch swapped in");
            }
            ScriptedEvent::FlipNextRun { host } => {
                if let Some(idx) = self.fleet.index_of(host) {
                    self.fleet.pending_flips[idx] += 1;
                    self.fleet.hw.memory_apply_bit_flip(idx);
                }
                self.record_fault(at, host, FaultKind::MemoryBitFlip);
            }
        }
    }

    /// The repair-workflow escalation after repeat failures: reset fails in
    /// outside conditions, the host goes indoors, gets the Memtest86+
    /// treatment (a real pattern run over a DRAM model carrying the defects
    /// a repeatedly-hanging machine plausibly has), and stays out of the
    /// campaign — the paper's host #15 path.
    pub fn take_indoors(&mut self, idx: usize) {
        self.fleet.records[idx].replace(); // replaced-in-slot bookkeeping happens via #19
        self.fleet.withdrawn[idx] = true;
        self.fleet.hw.power_off(idx);
        let id = self.fleet.plans[idx].id;
        // Indoor diagnosis: a machine that hung repeatedly gets a marginal
        // DIMM model — an intermittent cell whose period comes from the
        // host's own RNG stream — and the real tester runs over it.
        let mut dram = frostlab_hardware::memtest::DramArray::new(2048);
        let mut diag_rng = Rng::new(self.cfg.seed).derive(&format!("memtest/{id}"));
        let word = diag_rng.below(2048) as usize;
        let bit = diag_rng.below(64) as u8;
        let period = 3 + diag_rng.below(40) as u32;
        dram.inject_intermittent(word, 1u64 << bit, period);
        let report = frostlab_hardware::memtest::run_memtest(&mut dram, 8, self.cfg.seed);
        self.fleet.memtest_failed[idx] = Some(!report.passed());
        self.collector.abandon(id);
    }

    /// Apply one chaos event (stochastic mode only).
    pub fn handle_chaos(&mut self, at: SimTime, ev: ChaosEvent) {
        match ev {
            ChaosEvent::LinkLossBurst { loss, duration } => {
                if let Some(chaos) = self.chaos.as_mut() {
                    chaos.loss_until = at + duration;
                    chaos.loss_prob = loss;
                }
            }
            // Jitter only delays delivery, and the 20-minute cadence dwarfs
            // any per-hop delay, so a jitter burst changes nothing a campaign
            // records. The chaos engine still draws it, so the events after
            // it keep their place in the schedule.
            ChaosEvent::JitterBurst { .. } => {}
            ChaosEvent::SwitchDeath { switch } => {
                if !self.switch_up[switch] {
                    return; // already dead
                }
                self.switch_up[switch] = false;
                self.watchdog
                    .open(IncidentKind::SwitchFailure, &format!("switch-{switch}"), at);
                self.record_fault(at, 101 + switch as u32, FaultKind::SwitchFailure);
                // The spare-swap repair workflow bounds the outage — while
                // spares last.
                if let Some(restore_at) = self.failover.take_spare(at) {
                    self.pending_switch_restores.push((restore_at, switch));
                }
            }
            ChaosEvent::HostHang { host } => {
                if let Some(idx) = self.fleet.index_of(host) {
                    if self.fleet.installed(idx, at) {
                        self.apply_hang(idx, at);
                    }
                }
            }
            ChaosEvent::HostReboot { host } => {
                // Transient: the box comes straight back without operator
                // attention; only the in-flight run is lost.
                if let Some(idx) = self.fleet.index_of(host) {
                    if self.fleet.installed(idx, at) && self.fleet.hw.is_running(idx) {
                        self.fleet.hw.reset(idx);
                        self.fleet.schedules[idx].resume_at(at);
                        self.fleet.next_run_at[idx] = self.fleet.schedules[idx].next_run();
                        self.record_fault(at, host, FaultKind::TransientSystemFailure);
                    }
                }
            }
            ChaosEvent::SensorFreeze { host } => {
                if let Some(idx) = self.fleet.index_of(host) {
                    if self.fleet.installed(idx, at) {
                        self.fleet.hw.sensor_inject_cold_fault(idx);
                        self.watchdog.open(
                            IncidentKind::SensorFault,
                            &format!("host-{host}/sensor"),
                            at,
                        );
                        self.record_fault(at, host, FaultKind::SensorChipErratic);
                    }
                }
            }
        }
    }

    /// Does the chaos link-loss burst eat this collection attempt?
    pub fn chaos_drops_attempt(&mut self, t: SimTime) -> bool {
        match self.chaos.as_mut() {
            Some(chaos) if t < chaos.loss_until => chaos.draws.chance(chaos.loss_prob),
            _ => false,
        }
    }

    /// Freeze the campaign into [`ExperimentResults`].
    pub fn finish(self) -> ExperimentResults {
        // The observatory flushes its rollup summary gauges into the
        // tracer's labeled metric families, so it must freeze first.
        let mut tracer = self.tracer;
        let obs = self.obs.map(|o| o.finish(&mut tracer));

        // Clean the Lascar channels the way the authors did.
        let filter = SpikeFilter::default();
        let (lascar_temp, removed_t) = filter.clean(self.lascar.temperature());
        let (lascar_rh, removed_rh) = filter.clean(self.lascar.humidity());

        let fleet = &self.fleet;
        let mut hosts = BTreeMap::new();
        for (i, plan) in fleet.plans.iter().enumerate() {
            let disposition = fleet.records[i].disposition();
            hosts.insert(
                plan.id,
                HostSummary {
                    id: plan.id,
                    vendor: plan.vendor,
                    placement: plan.placement,
                    defective: plan.defective,
                    installed_at: plan.install_at,
                    failures: fleet.records[i].failures().to_vec(),
                    resets: fleet.records[i].reset_count(),
                    disposition: if fleet.withdrawn[i] {
                        Disposition::TakenIndoors
                    } else {
                        disposition
                    },
                    min_cpu_c: fleet.hw.sensor_min_seen_c(i),
                    sensor_erratic_reads: fleet.hw.sensor_erratic_count(i),
                    page_ops: fleet.hw.memory_page_ops(i),
                    silent_corruptions: fleet.hw.memory_silent_corruptions(i),
                    disks_pass_long_test: fleet.hw.disks_all_long_tests_pass(i),
                    memtest_failed: fleet.memtest_failed[i],
                },
            );
        }

        let (collection, collection_gaps) = self.collector.into_ledger();
        ExperimentResults {
            seed: self.cfg.seed,
            window: (self.cfg.start, self.cfg.end),
            outside: self.outside,
            tent_temp_truth: self.tent_temp_truth,
            tent_rh_truth: self.tent_rh_truth,
            basement_temp: self.basement_temp,
            lascar_temp_raw: self.lascar.temperature().clone(),
            lascar_rh_raw: self.lascar.humidity().clone(),
            lascar_temp,
            lascar_rh,
            lascar_outliers_removed: removed_t + removed_rh,
            workload: self.workload,
            fault_events: self.fault_events,
            hosts,
            collection,
            collection_gaps,
            incidents: self.watchdog.into_incidents(),
            stored_archives: self.stored_archives,
            tent_energy_metered_kwh: self.meter.energy_kwh(),
            tent_energy_true_kwh: self.energy_true_wh / 1000.0,
            trace: tracer.finish(),
            obs,
        }
    }
}

/// The next Monday at 10:00 at or after `t` (staff-visit cadence).
pub(crate) fn next_monday_morning(t: SimTime) -> SimTime {
    let mut date = t.date();
    loop {
        if date.weekday_index() == 0 {
            let candidate = date.to_sim_time() + SimDuration::hours(10);
            if candidate >= t {
                return candidate;
            }
        }
        date = date.succ();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{paper_fleet, FleetSpec};

    #[test]
    fn next_monday_morning_lands_on_monday_ten_am() {
        // Feb 12 2010 is a Friday; the next Monday is Feb 15.
        let t = next_monday_morning(SimTime::from_date(2010, 2, 12));
        assert_eq!(t, SimTime::from_ymd_hms(2010, 2, 15, 10, 0, 0));
        // A Monday 09:00 resolves to the same day at 10:00.
        let mon9 = SimTime::from_ymd_hms(2010, 2, 15, 9, 0, 0);
        assert_eq!(
            next_monday_morning(mon9),
            SimTime::from_ymd_hms(2010, 2, 15, 10, 0, 0)
        );
        // A Monday 11:00 resolves to the following Monday.
        let mon11 = SimTime::from_ymd_hms(2010, 2, 15, 11, 0, 0);
        assert_eq!(
            next_monday_morning(mon11),
            SimTime::from_ymd_hms(2010, 2, 22, 10, 0, 0)
        );
    }

    #[test]
    fn fresh_ctx_matches_config_window() {
        let ctx = CampaignCtx::new(ExperimentConfig::short(1, 3));
        assert_eq!(ctx.now, ctx.cfg.start);
        assert_eq!(ctx.fleet.len(), paper_fleet().len());
        assert!(ctx.switch_up.iter().all(|&up| up));
        assert!(ctx.chaos.is_none(), "scripted mode never builds chaos");
        // The paper fleet shares one tent and one basement.
        assert_eq!(ctx.tents.len(), 1);
        assert_eq!(ctx.basements.len(), 1);
        assert_eq!(ctx.tent_zone_states.len(), 1);
        assert_eq!(ctx.basement_zone_states.len(), 1);
    }

    #[test]
    fn generated_fleet_builds_zone_enclosures() {
        let mut cfg = ExperimentConfig::short(1, 1);
        cfg.fleet = FleetSpec::VendorMix { hosts: 100 };
        let ctx = CampaignCtx::new(cfg);
        assert_eq!(ctx.fleet.len(), 100);
        // 50 tent hosts over 9-host zones ⇒ 6 zones.
        assert_eq!(ctx.tent_zone_states.len(), 6);
        assert_eq!(ctx.tents.len(), 6);
        assert_eq!(ctx.basement_zone_states.len(), 6);
        assert_eq!(ctx.basements.len(), 6);
    }

    #[test]
    #[should_panic(expected = "off the 60-s tick grid")]
    fn start_off_the_tick_grid_is_rejected() {
        let cfg = ExperimentConfig::short(1, 1);
        CampaignCtx::new(ExperimentConfig {
            start: cfg.start + SimDuration::secs(30),
            ..cfg
        });
    }
}
