//! The per-tick substrate phases of the campaign kernel.
//!
//! Each phase is one step of the paper's per-minute tick sequence, ported
//! verbatim from the old monolithic orchestrator and pinned byte-identical
//! by the golden-hash tests:
//!
//! 1. [`WeatherPhase`] — advance the synthetic winter, let the SMEAR III
//!    surrogate observe it;
//! 2. [`EnclosureThermalPhase`] — step tent and basement with the groups'
//!    previous-tick wall power;
//! 3. [`LoggerPollPhase`] — Lascar readout/poll and the 10-minute truth
//!    series;
//! 4. [`ScriptPhase`] — scripted events, chaos events, pending switch
//!    repairs;
//! 5. [`HostStepPhase`] — chassis thermals, sensors, stochastic faults,
//!    the synthetic load, repair visits;
//! 6. [`CollectionPhase`] — the 20-minute collection round, staleness
//!    sweep, and backoff retries;
//! 7. [`PowerIntegrationPhase`] — the Technoline meter over the tent feed.
//!
//! Phases communicate only through [`CampaignCtx`]; the
//! [`crate::scenario::ScenarioBuilder`] composes them (and anything
//! user-written that implements [`TickPhase`]) into a runnable scenario.

use std::time::Instant;

use frostlab_faults::repair::RepairAction;
use frostlab_faults::types::{FaultEvent, FaultKind, HostId};
use frostlab_netsim::collector::Log;
use frostlab_simkern::time::{SimDuration, SimTime};
use frostlab_trace::FieldValue;
use frostlab_workload::stats::Placement;

use crate::config::{
    ExperimentConfig, FaultMode, FAULT_POLL_INTERVAL, SENSOR_LOG_INTERVAL, TICK_HOURS, TICK_SECS,
};
use crate::context::{next_monday_morning, CampaignCtx};
use crate::fleet::switch_assignment;
use crate::results::StoredArchive;
use crate::scripted::{paper_script, ScriptedEvent};
use crate::watchdog::Subject;

/// One substrate step of the per-tick pipeline.
///
/// A phase owns its private schedule state (next due times, event cursors)
/// and reads/writes shared campaign state through [`CampaignCtx`]. The
/// scenario steps every phase once per tick, in pipeline order.
pub trait TickPhase {
    /// Stable phase name, used by the builder to address phases for
    /// `insert_after`/`replace`/`remove`.
    fn name(&self) -> &str;

    /// Advance this substrate by one tick at `ctx.now`.
    fn step(&mut self, ctx: &mut CampaignCtx);

    /// Wall-clock accounting, if this phase collects any (see
    /// [`TimingProbe`]). Stock phases return `None`.
    fn timing(&self) -> Option<PhaseTiming> {
        None
    }
}

/// Accumulated wall-clock cost of one phase across a whole campaign.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseTiming {
    /// The wrapped phase's name.
    pub phase: String,
    /// Total wall-clock spent inside `step`, milliseconds.
    pub total_ms: f64,
    /// Number of `step` invocations.
    pub calls: u64,
}

/// Wraps any phase and meters the wall-clock its `step` consumes.
///
/// Installed across the whole pipeline by
/// [`crate::scenario::ScenarioBuilder::with_timing`], or around a single
/// phase via `wrap`.
pub struct TimingProbe {
    inner: Box<dyn TickPhase>,
    total: std::time::Duration,
    calls: u64,
}

impl TimingProbe {
    /// Meter `inner`.
    pub fn new(inner: Box<dyn TickPhase>) -> TimingProbe {
        TimingProbe {
            inner,
            total: std::time::Duration::ZERO,
            calls: 0,
        }
    }
}

impl TickPhase for TimingProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let started = Instant::now();
        self.inner.step(ctx);
        self.total += started.elapsed();
        self.calls += 1;
    }

    fn timing(&self) -> Option<PhaseTiming> {
        // If the wrapped phase already meters itself (a nested probe, or a
        // tracing probe around one), its numbers are authoritative: the
        // innermost probe excludes every wrapper's own overhead, and
        // reporting both would double-count the phase under one name.
        if let Some(inner) = self.inner.timing() {
            return Some(inner);
        }
        Some(PhaseTiming {
            phase: self.inner.name().to_string(),
            total_ms: self.total.as_secs_f64() * 1e3,
            calls: self.calls,
        })
    }
}

/// Ticks per weather batch: one simulated day on the model's 60-s grid,
/// matching the skeleton chunk size. The final refill of a campaign may
/// generate up to a day past the end — the surplus samples are discarded
/// and the surplus RNG draws are private to the model.
const WEATHER_BATCH_TICKS: usize = 1440;

/// Step 1: advance the weather model and poll the station.
///
/// The campaign tick is the weather model's 60-s grid, the campaign starts
/// on it ([`CampaignCtx::new`] checks), and the station polls every 10
/// minutes from the start, so every instant the model is sampled at lies
/// on the grid. Samples are served from a day-sized batch produced by
/// [`WeatherModel::sample_ticks`](frostlab_climate::WeatherModel::sample_ticks)
/// — bit-identical to per-tick sampling, but the weather working set is
/// traversed once per simulated day instead of being re-faulted from cache
/// on every tick.
#[derive(Debug, Default)]
pub struct WeatherPhase {
    /// Batched samples; `buf[i]` is the sample at `buf_t0 + i·60 s`.
    buf: Vec<frostlab_climate::weather::WeatherSample>,
    /// Instant of `buf[0]`.
    buf_t0: SimTime,
}

impl WeatherPhase {
    /// Stock weather phase.
    pub fn new() -> WeatherPhase {
        WeatherPhase::default()
    }
}

impl TickPhase for WeatherPhase {
    fn name(&self) -> &str {
        "weather"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let t = ctx.now;
        let idx = (t.as_secs() - self.buf_t0.as_secs()) / 60;
        let sample = if self.buf.is_empty() || idx < 0 || idx as usize >= self.buf.len() {
            self.buf = ctx.wx.sample_ticks(t, WEATHER_BATCH_TICKS);
            self.buf_t0 = t;
            self.buf[0]
        } else {
            self.buf[idx as usize]
        };
        // One model sample serves both the tick and, when the 10-minute
        // station cadence lands on this tick, the station observation —
        // the pre-kernel phase sampled the model twice at those instants.
        if let Some(obs) = ctx.station.poll_at(&sample) {
            ctx.outside.push(obs);
        }
        ctx.weather = sample;
    }
}

/// Step 2: step every tent and basement zone, driven by the previous
/// tick's per-host wall power. Publishes zone 0's tent power draw for the
/// power-integration phase — the meter sees the same watts that heated
/// the instrumented tent.
///
/// Per-zone power accumulates in one pass over the fleet in host-index
/// order; for the paper's single-zone fleet each accumulator receives its
/// adds in exactly the order the old filtered sums did, so the result is
/// byte-identical. The scratch vectors are phase-owned and sized once —
/// no per-tick allocation.
#[derive(Debug, Default)]
pub struct EnclosureThermalPhase {
    tent_power: Vec<f64>,
    basement_power: Vec<f64>,
}

impl EnclosureThermalPhase {
    /// Stock enclosure phase.
    pub fn new() -> EnclosureThermalPhase {
        EnclosureThermalPhase::default()
    }
}

impl TickPhase for EnclosureThermalPhase {
    fn name(&self) -> &str {
        "enclosure-thermal"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        use frostlab_thermal::enclosure::Enclosure;
        let t = ctx.now;
        self.tent_power.resize(ctx.tent_zone_states.len(), 0.0);
        self.tent_power.fill(0.0);
        self.basement_power
            .resize(ctx.basement_zone_states.len(), 0.0);
        self.basement_power.fill(0.0);
        let fleet = &ctx.fleet;
        for i in 0..fleet.len() {
            if !fleet.installed(i, t) {
                continue;
            }
            let z = fleet.zone[i] as usize;
            match fleet.placement[i] {
                Placement::Tent => self.tent_power[z] += fleet.last_wall_w[i],
                Placement::Basement => self.basement_power[z] += fleet.last_wall_w[i],
            }
        }
        for (z, tent) in ctx.tents.iter_mut().enumerate() {
            tent.step(TICK_SECS, &ctx.weather, self.tent_power[z]);
            ctx.tent_zone_states[z] = tent.state();
        }
        for (z, room) in ctx.basements.iter_mut().enumerate() {
            room.step(TICK_SECS, &ctx.weather, self.basement_power[z]);
            ctx.basement_zone_states[z] = room.state();
        }
        ctx.tent_power_w = self.tent_power[0];
    }
}

/// Step 3: the Lascar logger — including the weekly Monday USB readout
/// that downloads the memory and drags the unit indoors for half an hour
/// (the outlier source the paper mentions) — plus the 10-minute truth
/// series the figures are drawn from.
#[derive(Debug)]
pub struct LoggerPollPhase {
    next_readout: SimTime,
    next_truth_sample: SimTime,
}

impl LoggerPollPhase {
    /// Stock logger phase scheduled from the campaign config.
    pub fn new(cfg: &ExperimentConfig) -> LoggerPollPhase {
        LoggerPollPhase {
            next_readout: next_monday_morning(cfg.lascar_deployed_at),
            next_truth_sample: cfg.start,
        }
    }
}

impl TickPhase for LoggerPollPhase {
    fn name(&self) -> &str {
        "logger-poll"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let t = ctx.now;
        let (tent, basement) = (ctx.tent_zone_states[0], ctx.basement_zone_states[0]);
        if t >= self.next_readout {
            ctx.lascar.begin_readout(t, SimDuration::minutes(30));
            self.next_readout = t + SimDuration::days(7);
        }
        ctx.lascar.poll(t, tent.air_temp_c, tent.air_rh_pct);

        if t >= self.next_truth_sample {
            ctx.tent_temp_truth.push(t, tent.air_temp_c);
            ctx.tent_rh_truth.push(t, tent.air_rh_pct);
            ctx.basement_temp.push(t, basement.air_temp_c);
            self.next_truth_sample = t + SimDuration::minutes(10);
        }
    }
}

/// Step 4: fire scripted events that came due, then chaos events, then
/// any failover-scheduled switch repairs.
#[derive(Debug)]
pub struct ScriptPhase {
    events: Vec<(SimTime, ScriptedEvent)>,
    next: usize,
}

impl ScriptPhase {
    /// The paper's event history, filtered by fault mode: scripted mode
    /// replays everything; stochastic mode draws *faults* from the hazard
    /// models but keeps the operators' physical interventions (the R/I/B/F
    /// tent modifications) and the infrastructure history (the defective
    /// switches' deaths and replacement), which happened regardless.
    pub fn from_config(cfg: &ExperimentConfig) -> ScriptPhase {
        let events = match cfg.fault_mode {
            FaultMode::Scripted => paper_script(),
            FaultMode::Stochastic => paper_script()
                .into_iter()
                .filter(|(_, ev)| {
                    matches!(
                        ev,
                        ScriptedEvent::TentReconfig { .. }
                            | ScriptedEvent::SwitchDown { .. }
                            | ScriptedEvent::SwitchRestored { .. }
                    )
                })
                .collect(),
        };
        ScriptPhase::with_events(events)
    }

    /// A custom script. Events must be sorted by due time; each fires on
    /// the first tick at or after it.
    fn with_events(events: Vec<(SimTime, ScriptedEvent)>) -> ScriptPhase {
        ScriptPhase { events, next: 0 }
    }
}

impl TickPhase for ScriptPhase {
    fn name(&self) -> &str {
        "script"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let t = ctx.now;
        while self.next < self.events.len() && self.events[self.next].0 <= t {
            let (at, ev) = self.events[self.next].clone();
            self.next += 1;
            ctx.handle_scripted(at, ev);
        }

        let chaos_due = match ctx.chaos.as_mut() {
            Some(chaos) => chaos.engine.pop_due(t),
            None => Vec::new(),
        };
        for (at, ev) in chaos_due {
            ctx.handle_chaos(at, ev);
        }
        while let Some(pos) = ctx
            .pending_switch_restores
            .iter()
            .position(|(due, _)| *due <= t)
        {
            let (at, switch) = ctx.pending_switch_restores.remove(pos);
            ctx.switch_up[switch] = true;
            ctx.watchdog
                .resolve(&format!("switch-{switch}"), at, "spare switch swapped in");
        }
    }
}

/// Step 5: per installed host — chassis thermal chain, sensor chip,
/// S.M.A.R.T. ticks, stochastic fault polls, the jittered 10-minute
/// synthetic load, and repair-workflow visits. Hangs and withdrawals are
/// applied after the fleet loop, matching the monolith's ordering.
///
/// The loop destructures [`CampaignCtx`] and
/// [`crate::fleet_state::FleetState`] once into disjoint column borrows and
/// walks the flat arrays — O(hosts) per tick, no indexed re-borrow per
/// field access. All scratch (the deferred hang/withdrawal lists, the
/// tick's timestamp) is phase-owned and reused, so the hot loop performs
/// zero heap allocations per tick and formats the tick's date-time once,
/// not once per line.
///
/// The host store keeps only each log line's length, in the file of the
/// tick's day, so lines are counted, not formatted: a sensor line's length
/// follows from its numbers' signs and integer digits (`fixed_len`), an
/// md5sums line's from the stamp and the hash. Debug builds also format
/// every line and check its length.
#[derive(Debug)]
pub struct HostStepPhase {
    next_fault_poll: SimTime,
    hangs: Vec<(usize, SimTime)>,
    withdrawals: Vec<usize>,
    stamp: String,
    #[cfg(any(test, debug_assertions))]
    line_buf: String,
    /// Every line appended, as (host index, log, line), for unit tests.
    #[cfg(test)]
    logged: Vec<(usize, Log, String)>,
}

impl HostStepPhase {
    /// Stock host phase scheduled from the campaign config.
    pub fn new(cfg: &ExperimentConfig) -> HostStepPhase {
        HostStepPhase {
            next_fault_poll: cfg.start + FAULT_POLL_INTERVAL,
            hangs: Vec::new(),
            withdrawals: Vec::new(),
            stamp: String::new(),
            #[cfg(any(test, debug_assertions))]
            line_buf: String::new(),
            #[cfg(test)]
            logged: Vec::new(),
        }
    }

    /// Format the line of `host` that was counted as `len` bytes: the
    /// tick's stamp, then `rest`. Checks the count; tests keep the line.
    #[cfg(any(test, debug_assertions))]
    #[cfg_attr(not(test), allow(unused_variables))]
    fn check_line(&mut self, host: usize, log: Log, len: usize, rest: std::fmt::Arguments) {
        use frostlab_netsim::collector::log_line_len;
        use std::fmt::Write as _;
        self.line_buf.clear();
        self.line_buf.push_str(&self.stamp);
        let _ = self.line_buf.write_fmt(rest);
        let line = &self.line_buf;
        assert_eq!(log_line_len(line), len, "counted length of {line:?}");
        #[cfg(test)]
        self.logged.push((host, log, self.line_buf.clone()));
    }
}

/// Bytes of `format!("{v:.1$}", decimals)` for `decimals` 0 or 1.
///
/// The text is a `-` if the sign bit is set (so also `-0.0`), the integer
/// digits of |v| after rounding, and a point with the decimals. Rounding
/// moves |v| up by at most half a unit of the last place, so it can add a
/// digit only within that below a power of ten. There, and for values that
/// are not finite or not below 10⁹, the text is formatted and counted.
fn fixed_len(v: f64, decimals: usize) -> usize {
    debug_assert!(decimals <= 1, "{decimals} decimals");
    let carry_zone = if decimals == 0 { 0.6 } else { 0.06 };
    let a = v.abs();
    let (mut digits, mut next) = (1, 10.0);
    while next <= a && next < 1e9 {
        digits += 1;
        next *= 10.0;
    }
    if a < next - carry_zone {
        let point = if decimals == 0 { 0 } else { 1 + decimals };
        usize::from(v.is_sign_negative()) + digits + point
    } else {
        struct Count(usize);
        impl std::fmt::Write for Count {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut count = Count(0);
        let _ = std::fmt::Write::write_fmt(&mut count, format_args!("{v:.decimals$}"));
        count.0
    }
}

/// Bytes of the sensor line `{stamp} cpu={v:.1} rh={rh:.0}\n`, with
/// `cpu=n/a` when the chip gives no reading.
fn sensor_line_len(stamp_len: usize, reading: Option<f64>, rh_pct: f64) -> usize {
    let cpu = reading.map_or("n/a".len(), |v| fixed_len(v, 1));
    stamp_len + " cpu=".len() + cpu + " rh=".len() + fixed_len(rh_pct, 0) + "\n".len()
}

impl TickPhase for HostStepPhase {
    fn name(&self) -> &str {
        "host-step"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        use std::fmt::Write as _;
        let t = ctx.now;
        let fault_poll_due = t >= self.next_fault_poll;
        let stochastic = ctx.cfg.fault_mode == FaultMode::Stochastic;
        let poll_hours = FAULT_POLL_INTERVAL.as_secs() as f64 / 3600.0;
        // The hosts rotate their logs at midnight: every line this tick
        // goes to the file of this day.
        let day = t.date().days_since_epoch();
        // Every log line this tick starts with the same date-time.
        self.stamp.clear();
        let _ = write!(self.stamp, "{}", t.datetime());

        // Borrow the context once into disjoint pieces; the fleet columns
        // split again so every per-host field is a flat slice access.
        let CampaignCtx {
            fleet,
            tent_zone_states,
            basement_zone_states,
            fault_events,
            workload,
            stored_archives,
            tracer,
            watchdog,
            repair_policy,
            ..
        } = ctx;
        let crate::fleet_state::FleetState {
            plans,
            install_at,
            placement,
            zone,
            withdrawn,
            busy_until,
            next_run_at,
            next_sensor_log,
            inspection_due,
            pending_flips,
            page_ops_since_poll,
            last_wall_w,
            cpu_temp_c,
            thermal,
            hw,
            jobs,
            schedules,
            faults,
            records,
            stores,
            ..
        } = fleet;

        for i in 0..plans.len() {
            if t < install_at[i] || withdrawn[i] {
                continue;
            }
            let encl = match placement[i] {
                Placement::Tent => tent_zone_states[zone[i] as usize],
                Placement::Basement => basement_zone_states[zone[i] as usize],
            };
            let util = if hw.is_running(i) && t < busy_until[i] {
                1.0
            } else {
                0.0
            };
            let cpu_w = hw.cpu_power_w(i, util);
            let dc_w = hw.dc_power_w(i, util);
            thermal.step_one(i, TICK_SECS, encl.air_temp_c, cpu_w, dc_w);
            cpu_temp_c[i] = thermal.cpu_temp_c(i);
            last_wall_w[i] = hw.wall_power_w(i, util);
            let sensor_reading = hw.sensor_read_cpu_temp(i, cpu_temp_c[i]);

            // Sensor log.
            if t >= next_sensor_log[i] {
                let rh = encl.air_rh_pct;
                let len = sensor_line_len(self.stamp.len(), sensor_reading, rh);
                #[cfg(any(test, debug_assertions))]
                match sensor_reading {
                    Some(v) => self.check_line(
                        i,
                        Log::Sensors,
                        len,
                        format_args!(" cpu={v:.1} rh={rh:.0}\n"),
                    ),
                    None => {
                        self.check_line(i, Log::Sensors, len, format_args!(" cpu=n/a rh={rh:.0}\n"))
                    }
                }
                stores[i].append(Log::Sensors, day, len);
                next_sensor_log[i] = t + SENSOR_LOG_INTERVAL;
            }

            // Stochastic faults.
            if stochastic && fault_poll_due && hw.is_running(i) {
                let page_ops = std::mem::take(&mut page_ops_since_poll[i]);
                let outcome = faults[i].poll(poll_hours, cpu_temp_c[i], encl.air_rh_pct, page_ops);
                for kind in &outcome.faults {
                    match kind {
                        FaultKind::TransientSystemFailure => self.hangs.push((i, t)),
                        FaultKind::SensorChipErratic => {
                            hw.sensor_inject_cold_fault(i);
                            fault_events.push(FaultEvent {
                                at: t,
                                host: HostId(plans[i].id),
                                kind: *kind,
                            });
                        }
                        FaultKind::DiskPendingSector => {
                            hw.disks_inject_pending_sector0(i);
                            fault_events.push(FaultEvent {
                                at: t,
                                host: HostId(plans[i].id),
                                kind: *kind,
                            });
                        }
                        FaultKind::PsuFailure => {
                            hw.psu_fail(i);
                            self.hangs.push((i, t));
                        }
                        _ => {}
                    }
                }
                if outcome.memory_flips > 0 {
                    for _ in 0..outcome.memory_flips {
                        if hw.memory_apply_bit_flip(i)
                            == frostlab_hardware::memory::FlipOutcome::SilentCorruption
                        {
                            pending_flips[i] += 1;
                        }
                        fault_events.push(FaultEvent {
                            at: t,
                            host: HostId(plans[i].id),
                            kind: FaultKind::MemoryBitFlip,
                        });
                    }
                }
            }

            // Workload.
            if hw.is_running(i) && t >= next_run_at[i] {
                let flips = std::mem::take(&mut pending_flips[i]);
                let outcome = jobs[i].run(flips);
                busy_until[i] = t + SimDuration::secs(outcome.duration_secs as i64);
                page_ops_since_poll[i] += outcome.page_ops;
                hw.memory_record_page_ops(i, outcome.page_ops);
                workload.record_run(outcome.page_ops);
                if tracer.events_enabled() {
                    tracer.span(
                        &format!("host/{}", plans[i].id),
                        "job-run",
                        t,
                        busy_until[i],
                        &[
                            ("page_ops", FieldValue::U64(outcome.page_ops)),
                            ("hash_ok", FieldValue::Bool(outcome.hash_ok)),
                            ("flips", FieldValue::U64(u64::from(flips))),
                        ],
                    );
                }
                let len = self.stamp.len() + " ".len() + outcome.hash.len() + " run\n".len();
                #[cfg(any(test, debug_assertions))]
                self.check_line(
                    i,
                    Log::Md5sums,
                    len,
                    format_args!(" {} run\n", outcome.hash),
                );
                stores[i].append(Log::Md5sums, day, len);
                if !outcome.hash_ok {
                    workload.record_hash_error(plans[i].id, placement[i], t);
                    if let Some(archive) = outcome.stored_archive {
                        stored_archives.push(StoredArchive {
                            host: plans[i].id,
                            at: t,
                            archive,
                        });
                    }
                }
                schedules[i].resume_at(t);
                next_run_at[i] = schedules[i].next_run();
            }

            // Repair visit.
            if let Some(due) = inspection_due[i] {
                if t >= due {
                    inspection_due[i] = None;
                    match records[i].inspect(repair_policy) {
                        RepairAction::ResetInPlace => {
                            hw.reset(i);
                            schedules[i].resume_at(t);
                            next_run_at[i] = schedules[i].next_run();
                            watchdog.resolve(&format!("host-{}", plans[i].id), t, "reset in place");
                        }
                        RepairAction::TakeIndoors => self.withdrawals.push(i),
                    }
                }
            }
        }
        for (idx, at) in self.hangs.drain(..) {
            ctx.apply_hang(idx, at);
        }
        for idx in self.withdrawals.drain(..) {
            let id = ctx.fleet.plans[idx].id;
            ctx.take_indoors(idx);
            ctx.watchdog
                .resolve(&format!("host-{id}"), t, "taken indoors (memtest)");
        }
        if fault_poll_due {
            self.next_fault_poll = t + FAULT_POLL_INTERVAL;
        }
    }
}

/// Step 6: the scheduled collection round with the watchdog's staleness
/// sweep, then catch-up retries with backoff for hosts whose mirror is
/// stale.
#[derive(Debug)]
pub struct CollectionPhase {
    next_round: SimTime,
}

impl CollectionPhase {
    /// Stock collection phase scheduled from the campaign config.
    pub fn new(cfg: &ExperimentConfig) -> CollectionPhase {
        CollectionPhase {
            next_round: cfg.start + cfg.collection_interval,
        }
    }
}

impl TickPhase for CollectionPhase {
    fn name(&self) -> &str {
        "collection"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let t = ctx.now;
        ctx.collector.clear_tick();
        if t >= self.next_round {
            for idx in 0..ctx.fleet.len() {
                if !ctx.fleet.installed(idx, t) {
                    continue;
                }
                // `&&` short-circuits: the chaos draw is only consumed for
                // hosts that are reachable in the first place.
                let reachable = ctx.reachable(idx) && !ctx.chaos_drops_attempt(t);
                ctx.collector
                    .collect(&mut ctx.fleet.stores[idx], reachable, t);
                // Staleness check: alarm only when nothing else (an open
                // switch or host incident) already explains the gap.
                let id = ctx.fleet.plans[idx].id;
                let host = Subject::new("host-", id, "");
                let explained = ctx.watchdog.is_open(host.as_str())
                    || (ctx.fleet.placement[idx] == Placement::Tent && {
                        let switch = Subject::new("switch-", switch_assignment(id) as u32, "");
                        ctx.watchdog.is_open(switch.as_str())
                    });
                let staleness = ctx.fleet.stores[idx].staleness(t);
                ctx.watchdog.observe_staleness(id, staleness, explained, t);
            }
            self.next_round = t + ctx.cfg.collection_interval;
        }

        // Catch-up retries with backoff for hosts whose mirror is stale. A
        // scheduled failure at this same tick has already pushed the host's
        // next attempt into the future, so a host is never tried twice in
        // one tick.
        for id in ctx.collector.due_retries(t) {
            let Some(idx) = ctx.fleet.index_of(id) else {
                continue;
            };
            if !ctx.fleet.installed(idx, t) {
                continue;
            }
            let reachable = ctx.reachable(idx) && !ctx.chaos_drops_attempt(t);
            ctx.collector
                .retry_collect(&mut ctx.fleet.stores[idx], reachable, t);
        }
    }
}

/// Step 7: integrate the tent group's wall power — the true integral and
/// the Technoline Cost Control meter's imperfect view of it. Reads the
/// power the enclosure phase published this tick, so the meter and the
/// tent physics always agree on the watts.
#[derive(Debug, Default)]
pub struct PowerIntegrationPhase;

impl PowerIntegrationPhase {
    /// Stock power-integration phase.
    pub fn new() -> PowerIntegrationPhase {
        PowerIntegrationPhase
    }
}

impl TickPhase for PowerIntegrationPhase {
    fn name(&self) -> &str {
        "power-integration"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        ctx.energy_true_wh += ctx.tent_power_w * TICK_HOURS;
        ctx.meter.integrate(ctx.tent_power_w, TICK_HOURS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, TICK};
    use frostlab_netsim::collector::CollectOutcome;
    use frostlab_thermal::tent::TentConfig;

    fn ctx_at(cfg: ExperimentConfig) -> CampaignCtx {
        CampaignCtx::new(cfg)
    }

    fn assert_fixed_len_formats(v: f64) {
        for decimals in [0, 1] {
            let text = format!("{v:.decimals$}");
            assert_eq!(fixed_len(v, decimals), text.len(), "{v:?} as {text:?}");
        }
    }

    #[test]
    fn fixed_len_counts_rounding_carries_signs_and_non_finite_values() {
        // Each value and its neighbours sits where rounding to 0 or 1
        // decimal may carry into a new digit.
        for edge in [0.05f64, 0.5, 9.5, 9.95, 99.5, 99.95, 999.95, 1e9, 1e12] {
            for v in [edge, edge.next_up(), edge.next_down()] {
                assert_fixed_len_formats(v);
                assert_fixed_len_formats(-v);
            }
        }
        for v in [
            0.0,
            -0.0,
            -0.04,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ] {
            assert_fixed_len_formats(v);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2_000))]

        #[test]
        fn fixed_len_equals_the_formatted_length(
            x in -1.0..1.0f64,
            scale in 0i32..8,
            units in -1_000_000i64..1_000_000,
        ) {
            // Arbitrary values across magnitudes, and values on the
            // decimal grid, where ties round.
            assert_fixed_len_formats(x * 10f64.powi(scale));
            assert_fixed_len_formats(units as f64 / 20.0);
        }
    }

    #[test]
    fn sensor_line_len_counts_the_formatted_line() {
        let stamp = "2010-02-19 12:00:00";
        for (reading, rh) in [
            (Some(-4.96), 99.5),
            (Some(23.04), 9.4),
            (None, 100.0),
            (Some(-0.0), 0.2),
        ] {
            let cpu = reading.map_or("n/a".to_string(), |v| format!("{v:.1}"));
            let line = format!("{stamp} cpu={cpu} rh={rh:.0}\n");
            assert_eq!(
                sensor_line_len(stamp.len(), reading, rh),
                line.len(),
                "{line:?}"
            );
        }
    }

    #[test]
    fn scripted_event_exactly_on_tick_boundary_fires_that_tick() {
        let cfg = ExperimentConfig::short(1, 3);
        let start = cfg.start;
        let mut ctx = ctx_at(cfg);
        let mut phase =
            ScriptPhase::with_events(vec![(start, ScriptedEvent::SwitchDown { switch: 0 })]);
        ctx.now = start;
        phase.step(&mut ctx);
        assert!(!ctx.switch_up[0], "event due exactly at the tick must fire");
        assert!(ctx.watchdog.is_open("switch-0"));
    }

    #[test]
    fn scripted_event_between_ticks_fires_on_next_tick_with_original_due_time() {
        let cfg = ExperimentConfig::short(1, 3);
        let start = cfg.start;
        let mut ctx = ctx_at(cfg);
        // Due 1 s after the first tick: must NOT fire at `start`, must fire
        // at `start + tick`, and the incident keeps the scripted due time,
        // not the tick time.
        let due = start + SimDuration::secs(1);
        let mut phase =
            ScriptPhase::with_events(vec![(due, ScriptedEvent::SwitchDown { switch: 1 })]);
        ctx.now = start;
        phase.step(&mut ctx);
        assert!(ctx.switch_up[1], "not due yet");
        ctx.now = start + TICK;
        phase.step(&mut ctx);
        assert!(!ctx.switch_up[1]);
        let incident = ctx
            .watchdog
            .incidents()
            .iter()
            .find(|i| i.subject == "switch-1")
            .expect("incident opened");
        assert_eq!(incident.started, due, "incident stamped with due time");
    }

    #[test]
    fn multiple_due_events_fire_in_script_order_within_one_tick() {
        let cfg = ExperimentConfig::short(1, 3);
        let start = cfg.start;
        let mut ctx = ctx_at(cfg);
        // Both come due within one tick window; down-then-restore must
        // leave the switch up (the reverse order would leave it down).
        let mut phase = ScriptPhase::with_events(vec![
            (
                start + SimDuration::secs(10),
                ScriptedEvent::SwitchDown { switch: 0 },
            ),
            (
                start + SimDuration::secs(20),
                ScriptedEvent::SwitchRestored { switch: 0 },
            ),
        ]);
        ctx.now = start + TICK;
        phase.step(&mut ctx);
        assert!(ctx.switch_up[0], "down then restore, in order");
        assert!(!ctx.watchdog.is_open("switch-0"));
    }

    #[test]
    fn script_event_at_campaign_end_still_fires_on_final_tick() {
        let cfg = ExperimentConfig::short(1, 3);
        let end = cfg.end;
        let mut ctx = ctx_at(cfg);
        let mut phase = ScriptPhase::with_events(vec![(
            end,
            ScriptedEvent::TentReconfig {
                mark: 'R',
                config: TentConfig::initial(),
            },
        )]);
        ctx.now = end;
        phase.step(&mut ctx);
        // No panic, event consumed: a second step must not re-fire it.
        phase.step(&mut ctx);
    }

    /// Bytes host `i` has logged to the day's file of each log, indexed
    /// by [`Log`].
    fn log_lens(ctx: &CampaignCtx, i: usize, day: i64) -> [usize; 2] {
        [Log::Sensors, Log::Md5sums].map(|log| ctx.fleet.stores[i].log_len(log, day).unwrap_or(0))
    }

    #[test]
    fn host_step_stamps_every_log_line_with_its_own_tick() {
        // The goldens pin line lengths, not which tick a stamp came from:
        // check each new line against the tick that wrote it, and that the
        // host store counted exactly the lines logged.
        let cfg = ExperimentConfig::short(1, 3);
        let mut phase = HostStepPhase::new(&cfg);
        let mut ctx = ctx_at(cfg);
        ctx.now = *ctx.fleet.install_at.iter().min().expect("a fleet");
        let (mut md5_ticks, mut sensor_ticks) = (Vec::new(), Vec::new());
        for _ in 0..30 {
            let t = ctx.now;
            let day = t.date().days_since_epoch();
            let mut grown: Vec<_> = (0..ctx.fleet.len())
                .map(|i| log_lens(&ctx, i, day))
                .collect();
            phase.step(&mut ctx);
            let stamp = t.datetime().to_string();
            for (i, log, line) in phase.logged.drain(..) {
                match log {
                    Log::Md5sums => {
                        let golden =
                            format!("{} {} run\n", t.datetime(), ctx.fleet.jobs[i].golden_hash());
                        assert_eq!(line, golden, "md5sums line of host {i} at {stamp}");
                        md5_ticks.push(t);
                    }
                    Log::Sensors => {
                        assert!(
                            line.starts_with(&stamp) && line.ends_with('\n'),
                            "sensors line of host {i} at {stamp}: {line}"
                        );
                        sensor_ticks.push(t);
                    }
                }
                grown[i][log as usize] += line.len();
            }
            for (i, &lens) in grown.iter().enumerate() {
                assert_eq!(log_lens(&ctx, i, day), lens, "logs of host {i}");
            }
            ctx.now += TICK;
        }
        // Lines came from more than one tick, so a stale stamp would show.
        md5_ticks.dedup();
        sensor_ticks.dedup();
        assert!(md5_ticks.len() >= 2, "md5sums lines at {md5_ticks:?}");
        assert!(sensor_ticks.len() >= 2, "sensors lines at {sensor_ticks:?}");
    }

    #[test]
    fn a_year_later_the_same_date_starts_fresh_files() {
        // File names carry no year (`md5sums-MMDD.log`), but the store
        // rotates by day number: the files of 2011-02-19 start from zero
        // instead of reopening those of 2010-02-19, and the round after
        // ships exactly the 2011 lines.
        let cfg = ExperimentConfig::short(1, 3);
        let mut phase = HostStepPhase::new(&cfg);
        let mut ctx = ctx_at(cfg);
        for t in [
            SimTime::from_ymd_hms(2010, 2, 19, 12, 0, 0),
            SimTime::from_ymd_hms(2011, 2, 19, 12, 0, 0),
        ] {
            ctx.now = t;
            phase.step(&mut ctx);
            let day = t.date().days_since_epoch();
            let mut logged = vec![[0, 0]; ctx.fleet.len()];
            for (i, log, line) in phase.logged.drain(..) {
                logged[i][log as usize] += line.len();
            }
            let mut shipped = 0;
            for (i, &lens) in logged.iter().enumerate() {
                assert_eq!(log_lens(&ctx, i, day), lens, "logs of host {i} at {t:?}");
                let outcome = ctx.collector.collect(&mut ctx.fleet.stores[i], true, t);
                let CollectOutcome::Success { literal_bytes, .. } = outcome else {
                    panic!("host {i} at {t:?}: {outcome:?}");
                };
                assert_eq!(literal_bytes, lens[0] + lens[1], "host {i} at {t:?}");
                shipped += literal_bytes;
            }
            assert!(shipped > 0, "nothing logged at {t:?}");
        }
    }

    #[test]
    fn timing_probe_counts_calls_and_preserves_name() {
        let cfg = ExperimentConfig::short(1, 3);
        let mut ctx = ctx_at(cfg);
        let mut probe = TimingProbe::new(Box::new(WeatherPhase::new()));
        assert_eq!(probe.name(), "weather");
        for _ in 0..5 {
            probe.step(&mut ctx);
            ctx.now += SimDuration::minutes(1);
        }
        let timing = probe.timing().expect("probe measures");
        assert_eq!(timing.phase, "weather");
        assert_eq!(timing.calls, 5);
        assert!(timing.total_ms >= 0.0);
    }

    #[test]
    fn stock_phases_report_no_timing() {
        assert!(WeatherPhase::new().timing().is_none());
        assert!(PowerIntegrationPhase::new().timing().is_none());
    }

    #[test]
    fn nested_timing_probes_keep_the_inner_name_and_do_not_double_count() {
        let cfg = ExperimentConfig::short(1, 3);
        let mut ctx = ctx_at(cfg);
        let inner = TimingProbe::new(Box::new(WeatherPhase::new()));
        let mut outer = TimingProbe::new(Box::new(inner));
        assert_eq!(outer.name(), "weather");
        for _ in 0..3 {
            outer.step(&mut ctx);
            ctx.now += SimDuration::minutes(1);
        }
        let timing = outer.timing().expect("probe measures");
        assert_eq!(timing.phase, "weather", "inner phase name survives");
        assert_eq!(timing.calls, 3, "one count per step, not two");
    }
}
