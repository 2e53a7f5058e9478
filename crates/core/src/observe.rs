//! Observability instrumentation for the phase pipeline.
//!
//! [`ObservePhase`] is the one sampling phase, installed by
//! [`crate::scenario::ScenarioBuilder::with_tracing`] and
//! [`crate::scenario::ScenarioBuilder::with_observability`]. Each tick it
//! makes one O(hosts) pass over the fleet and
//!
//! * samples the campaign state into the tracer's metrics registry
//!   (gauges at tick boundaries, counters by delta) while draining the
//!   campaign's ledgers — this tick's collection attempts, and via cursors
//!   the append-only healed gaps, fault events and watchdog incidents —
//!   into trace events;
//! * feeds the fleet health observatory in [`frostlab_obs::ObsState`]:
//!   the dimensional rollups, the SLO burn-rate engine and the incident
//!   flight recorder. SLO fires/resolves are mirrored into the watchdog
//!   ledger as [`IncidentKind::SloBreach`] incidents, so the alert
//!   timeline rides the same deterministic bookkeeping as every other
//!   incident.
//!
//! Everything here reads state the campaign already maintains; nothing
//! draws randomness or wall-clock, so arming tracing or observability
//! cannot perturb a single RNG stream or artifact byte (the golden-hash
//! tests pin this).

use std::collections::BTreeMap;

use frostlab_netsim::collector::{AttemptKind, CollectOutcome};
use frostlab_obs::{FleetRollup, RollupDim, SloFeed};
use frostlab_trace::FieldValue;
use frostlab_workload::stats::Placement;

use crate::context::CampaignCtx;
use crate::phases::TickPhase;
use crate::watchdog::IncidentKind;

/// The trace-sampling half of [`ObservePhase`]: gauge snapshots, counter
/// deltas, and the cursors that drain the campaign's append-only ledgers
/// into trace events exactly once each. Collection attempts need no
/// cursor: the collector keeps only the current tick's, which the
/// collection phase clears before it runs.
///
/// Gauges snapshot the current tick (`tent.temp_c`, `tent.power_w`,
/// `collector.gaps_open`, `fleet.hosts_up`, …); counters advance by delta
/// against the campaign's own accumulators (`workload.runs_total`,
/// `collector.attempts_total`, `faults.events_total`, …); collection
/// attempts, healed-gap spans and fault and incident instants are
/// emitted only while the tracer keeps events.
///
/// `netsim.retransmits` counts the collector's backoff-driven catch-up
/// attempts — the campaign-level analog of transport retransmission,
/// since the collection pipeline models loss at attempt granularity
/// rather than per frame.
struct TraceCursors {
    gap_cursor: usize,
    fault_cursor: usize,
    incident_cursor: usize,
    resolve_emitted: Vec<bool>,
    registered: bool,
}

impl TraceCursors {
    fn new() -> TraceCursors {
        TraceCursors {
            gap_cursor: 0,
            fault_cursor: 0,
            incident_cursor: 0,
            resolve_emitted: Vec::new(),
            registered: false,
        }
    }

    /// Sample one tick into the tracer. `hosts_up` and the workload
    /// deltas are what the caller already computed for this tick. No-op
    /// while the tracer is disabled.
    fn sample(&mut self, ctx: &mut CampaignCtx, hosts_up: usize, runs: u64, wrong_hashes: u64) {
        if !ctx.tracer.is_enabled() {
            return;
        }
        if !self.registered {
            ctx.tracer
                .register_histogram("tent.temp_c_dist", -40.0, 1.0, 80);
            ctx.tracer
                .register_histogram("tent.power_w_dist", 0.0, 25.0, 80);
            self.registered = true;
        }

        // Environment and fleet gauges, at the tick boundary.
        ctx.tracer
            .gauge_set("tent.temp_c", ctx.tent_zone_states[0].air_temp_c);
        ctx.tracer
            .gauge_set("tent.rh_pct", ctx.tent_zone_states[0].air_rh_pct);
        ctx.tracer
            .gauge_set("basement.temp_c", ctx.basement_zone_states[0].air_temp_c);
        ctx.tracer.gauge_set("outside.temp_c", ctx.weather.temp_c);
        ctx.tracer.gauge_set("tent.power_w", ctx.tent_power_w);
        ctx.tracer
            .gauge_set("collector.gaps_open", ctx.collector.open_retries() as f64);
        ctx.tracer
            .gauge_set("watchdog.open_incidents", ctx.watchdog.open_count() as f64);
        ctx.tracer.gauge_set("fleet.hosts_up", hosts_up as f64);
        ctx.tracer
            .gauge_set("workload.archives_stored", ctx.stored_archives.len() as f64);
        ctx.tracer
            .observe("tent.temp_c_dist", ctx.tent_zone_states[0].air_temp_c);
        ctx.tracer.observe("tent.power_w_dist", ctx.tent_power_w);

        // Workload counters, by delta against the stats accumulator.
        ctx.tracer.counter_add("workload.runs_total", runs);
        ctx.tracer
            .counter_add("workload.wrong_hashes_total", wrong_hashes);

        // This tick's collection attempts.
        let emit_events = ctx.tracer.events_enabled();
        for rec in ctx.collector.tick_records() {
            ctx.tracer.counter_add("collector.attempts_total", 1);
            if rec.kind == AttemptKind::Retry {
                ctx.tracer.counter_add("netsim.retransmits", 1);
            }
            let (outcome, files, bytes) = match &rec.outcome {
                CollectOutcome::Success {
                    files_updated,
                    literal_bytes,
                } => {
                    ctx.tracer.counter_add("collector.success_total", 1);
                    ("success", *files_updated as u64, *literal_bytes as u64)
                }
                CollectOutcome::Unreachable { .. } => {
                    ctx.tracer.counter_add("collector.unreachable_total", 1);
                    ("unreachable", 0, 0)
                }
            };
            if emit_events {
                let kind = match rec.kind {
                    AttemptKind::Scheduled => "scheduled",
                    AttemptKind::Retry => "retry",
                };
                ctx.tracer.instant(
                    "collector",
                    "attempt",
                    rec.at,
                    &[
                        ("host", FieldValue::U64(u64::from(rec.host))),
                        ("kind", FieldValue::Str(kind.to_string())),
                        ("outcome", FieldValue::Str(outcome.to_string())),
                        ("files_updated", FieldValue::U64(files)),
                        ("literal_bytes", FieldValue::U64(bytes)),
                    ],
                );
            }
        }

        // Gaps healed since the last tick — each becomes a span on the
        // affected host's track, covering the whole outage.
        let gaps = ctx.collector.gaps();
        for gap in &gaps[self.gap_cursor..] {
            ctx.tracer.counter_add("collector.gaps_healed_total", 1);
            if emit_events {
                ctx.tracer.span(
                    &format!("host/{}", gap.host),
                    "collection-gap",
                    gap.start,
                    gap.end,
                    &[(
                        "failed_attempts",
                        FieldValue::U64(u64::from(gap.failed_attempts)),
                    )],
                );
            }
        }
        self.gap_cursor = gaps.len();

        // Fault events since the last tick.
        let faults = &ctx.fault_events;
        for ev in &faults[self.fault_cursor..] {
            ctx.tracer.counter_add("faults.events_total", 1);
            if emit_events {
                ctx.tracer.instant(
                    "faults",
                    "fault",
                    ev.at,
                    &[
                        ("host", FieldValue::U64(u64::from(ev.host.0))),
                        ("kind", FieldValue::Str(format!("{:?}", ev.kind))),
                    ],
                );
            }
        }
        self.fault_cursor = faults.len();

        // Watchdog incidents: opens are append-only (cursor); resolves
        // mutate in place, so track emission per incident index.
        let incidents = ctx.watchdog.incidents();
        self.resolve_emitted.resize(incidents.len(), false);
        for inc in &incidents[self.incident_cursor..] {
            ctx.tracer.counter_add("watchdog.incidents_opened", 1);
            if emit_events {
                ctx.tracer.instant(
                    "watchdog",
                    "incident-open",
                    inc.started,
                    &[
                        ("kind", FieldValue::Str(inc.kind.name().to_string())),
                        ("subject", FieldValue::Str(inc.subject.clone())),
                    ],
                );
            }
        }
        self.incident_cursor = incidents.len();
        for (i, inc) in incidents.iter().enumerate() {
            if self.resolve_emitted[i] {
                continue;
            }
            if let Some(resolved) = inc.resolved {
                self.resolve_emitted[i] = true;
                ctx.tracer.counter_add("watchdog.incidents_resolved", 1);
                if emit_events {
                    ctx.tracer.instant(
                        "watchdog",
                        "incident-resolve",
                        resolved,
                        &[("subject", FieldValue::Str(inc.subject.clone()))],
                    );
                }
            }
        }
    }
}

/// Cached per-host dense bucket indices for the three rollup dimensions.
/// Built once on the observatory's first armed tick; the hot loop then
/// pushes plain `usize`s — no string hashing per host per tick, keeping
/// rollup memory and per-tick work O(label cardinality) + O(hosts).
struct RollupCaches {
    zone_bucket: Vec<u32>,
    vendor_bucket: Vec<u8>,
    placement_bucket: Vec<u8>,
}

impl RollupCaches {
    /// Derive the label universe from the fleet and build the index
    /// caches plus the matching [`FleetRollup`] dimensions.
    ///
    /// Zone labels incorporate placement (`tent-0`, `basement-2`) since
    /// tent zone 0 and basement zone 0 are distinct enclosures sharing a
    /// zone number. Vendor labels are the paper's `A`/`B`/`C`; placement
    /// labels are `tent`/`basement`.
    fn build(ctx: &CampaignCtx) -> (RollupCaches, FleetRollup) {
        let fleet = &ctx.fleet;
        // Dense zone bucket ids in label order: BTreeMap gives a stable,
        // deterministic ordering over (placement, zone).
        let mut zone_ids: BTreeMap<(u8, u32), u32> = BTreeMap::new();
        for i in 0..fleet.len() {
            let key = (placement_bucket(fleet.placement[i]), fleet.zone[i]);
            let next = zone_ids.len() as u32;
            zone_ids.entry(key).or_insert(next);
        }
        let mut zone_labels = vec![String::new(); zone_ids.len()];
        for (&(p, z), &idx) in &zone_ids {
            let place = if p == 0 { "tent" } else { "basement" };
            zone_labels[idx as usize] = format!("{place}-{z}");
        }

        let mut caches = RollupCaches {
            zone_bucket: Vec::with_capacity(fleet.len()),
            vendor_bucket: Vec::with_capacity(fleet.len()),
            placement_bucket: Vec::with_capacity(fleet.len()),
        };
        for i in 0..fleet.len() {
            let key = (placement_bucket(fleet.placement[i]), fleet.zone[i]);
            caches.zone_bucket.push(zone_ids[&key]);
            caches.vendor_bucket.push(match fleet.plans[i].vendor {
                frostlab_hardware::server::Vendor::A => 0,
                frostlab_hardware::server::Vendor::B => 1,
                frostlab_hardware::server::Vendor::C => 2,
            });
            caches
                .placement_bucket
                .push(placement_bucket(fleet.placement[i]));
        }

        let rollup = FleetRollup::new(vec![
            RollupDim::new("zone", zone_labels),
            RollupDim::new(
                "vendor",
                vec!["A".to_string(), "B".to_string(), "C".to_string()],
            ),
            RollupDim::new(
                "placement",
                vec!["tent".to_string(), "basement".to_string()],
            ),
        ]);
        (caches, rollup)
    }
}

fn placement_bucket(p: Placement) -> u8 {
    match p {
        Placement::Tent => 0,
        Placement::Basement => 1,
    }
}

/// The sampling phase: one O(hosts) fleet scan per tick that feeds the
/// tracer's metric registry, the dimensional rollups, the SLO burn-rate
/// engine and the incident flight recorder.
///
/// A pipeline carries at most one: `with_tracing` and
/// `with_observability` each add it only if it is missing, so the
/// campaign never samples twice. Inert (one branch) when neither the
/// tracer nor the observatory is armed.
pub struct ObservePhase {
    cursors: TraceCursors,
    caches: Option<RollupCaches>,
    runs_seen: u64,
    hash_errors_seen: usize,
    resets_seen: u64,
    flight_incident_cursor: usize,
}

impl ObservePhase {
    /// A fresh observer (all cursors at zero, caches unbuilt).
    pub fn new() -> ObservePhase {
        ObservePhase {
            cursors: TraceCursors::new(),
            caches: None,
            runs_seen: 0,
            hash_errors_seen: 0,
            resets_seen: 0,
            flight_incident_cursor: 0,
        }
    }
}

impl Default for ObservePhase {
    fn default() -> Self {
        ObservePhase::new()
    }
}

impl TickPhase for ObservePhase {
    fn name(&self) -> &str {
        "observe"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        if !ctx.tracer.is_enabled() && ctx.obs.is_none() {
            return;
        }
        // Take the observatory out of the context so the scan below can
        // borrow fleet columns and the tracer disjointly; restored at the
        // end of the step.
        let mut obs = ctx.obs.take();
        let t = ctx.now;

        if let Some(o) = obs.as_deref_mut() {
            if self.caches.is_none() {
                let (caches, rollup) = RollupCaches::build(ctx);
                o.init_rollup(rollup);
                self.caches = Some(caches);
            }
        }

        // The single O(hosts) pass: hosts-up census, reset totals, and
        // the per-host rollup pushes through the cached bucket indices.
        let mut hosts_up = 0usize;
        let mut resets_total = 0u64;
        let mut rollup = obs
            .as_deref_mut()
            .and_then(|o| o.rollup_mut())
            .zip(self.caches.as_ref());
        for i in 0..ctx.fleet.len() {
            resets_total += u64::from(ctx.fleet.records[i].reset_count());
            if !(ctx.fleet.installed(i, t) && ctx.fleet.hw.is_running(i)) {
                continue;
            }
            hosts_up += 1;
            if let Some((rollup, caches)) = rollup.as_mut() {
                let temp = ctx.fleet.cpu_temp_c[i];
                let power = ctx.fleet.last_wall_w[i];
                rollup.dims[0].push(caches.zone_bucket[i] as usize, temp, power);
                rollup.dims[1].push(usize::from(caches.vendor_bucket[i]), temp, power);
                rollup.dims[2].push(usize::from(caches.placement_bucket[i]), temp, power);
            }
        }

        // Workload progress since the last tick, for both consumers.
        let runs = ctx.workload.total_runs();
        let hash_errors = ctx.workload.hash_errors().len();
        let runs_delta = runs - self.runs_seen;
        let bad_hash_delta = (hash_errors - self.hash_errors_seen) as u64;
        self.runs_seen = runs;
        self.hash_errors_seen = hash_errors;

        // Trace sampling (gauges, counters, ledger cursors).
        self.cursors
            .sample(ctx, hosts_up, runs_delta, bad_hash_delta);

        if let Some(o) = obs.as_deref_mut() {
            // Feed this tick's observations into the SLO engine.
            let feed = SloFeed {
                runs_delta,
                bad_hash_delta,
                open_gaps: ctx.collector.open_retries() as f64,
                dew_margin_min_c: dew_margin_min_c(ctx),
                resets_delta: resets_total - self.resets_seen,
            };
            self.resets_seen = resets_total;
            let events = o.slo_step(t, &feed);

            // Mirror fires/resolves into the watchdog incident ledger —
            // the alert timeline rides the same deterministic
            // bookkeeping as every other incident.
            for ev in &events {
                let subject = format!("slo/{}", ev.slo);
                if ev.fired {
                    ctx.watchdog.open(IncidentKind::SloBreach, &subject, ev.at);
                } else {
                    ctx.watchdog.resolve(&subject, ev.at, "burn rate recovered");
                }
            }

            // Flight recorder: tail the trace buffer first so this
            // tick's events are in the rings, then snapshot for every
            // non-SLO incident opened since last tick and every alert
            // fire (SLO incidents are skipped to avoid double dumps).
            o.flight_mut().ingest(ctx.tracer.events());
            let incidents = ctx.watchdog.incidents();
            for inc in &incidents[self.flight_incident_cursor..] {
                if !matches!(inc.kind, IncidentKind::SloBreach) {
                    o.flight_mut().snapshot(
                        &format!("incident/{}/{}", inc.kind.name(), inc.subject),
                        inc.started,
                    );
                }
            }
            self.flight_incident_cursor = incidents.len();
            for ev in &events {
                if ev.fired {
                    o.flight_mut().snapshot(&format!("alert/{}", ev.slo), ev.at);
                }
            }
        }

        ctx.obs = obs;
    }
}

/// Minimum (air temperature − dew point) across the tent zones, °C —
/// the condensation guard the `dew-point-margin` SLO watches.
/// `f64::INFINITY` when there are no tent zones.
fn dew_margin_min_c(ctx: &CampaignCtx) -> f64 {
    let mut min = f64::INFINITY;
    for s in &ctx.tent_zone_states {
        let margin =
            s.air_temp_c - frostlab_climate::psychro::dew_point_c(s.air_temp_c, s.air_rh_pct);
        if margin < min {
            min = margin;
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, TICK};
    use frostlab_obs::{ObsConfig, ObsState};
    use frostlab_simkern::time::SimDuration;
    use frostlab_trace::{TraceConfig, Tracer};

    #[test]
    fn observe_phase_samples_the_tracer_without_an_observatory() {
        let cfg = ExperimentConfig::short(1, 2);
        let start = cfg.start;
        let mut ctx = CampaignCtx::new(cfg);
        ctx.tracer = Tracer::enabled(TraceConfig::default(), start);
        let mut phase = ObservePhase::new();
        phase.step(&mut ctx);
        assert!(ctx.obs.is_none());
        let trace = ctx.tracer.finish().expect("enabled");
        assert_eq!(
            trace.metrics.gauge("tent.temp_c"),
            Some(ctx.tent_zone_states[0].air_temp_c)
        );
        assert!(trace.metrics.gauge("fleet.hosts_up").is_some());
        assert!(trace.metrics.gauge("collector.gaps_open").is_some());
    }

    #[test]
    fn observe_phase_is_inert_when_nothing_is_armed() {
        let cfg = ExperimentConfig::short(1, 2);
        let mut ctx = CampaignCtx::new(cfg);
        let mut phase = ObservePhase::new();
        phase.step(&mut ctx);
        assert_eq!(ctx.tracer.events_recorded(), 0);
        assert!(ctx.obs.is_none());
    }

    #[test]
    fn observe_phase_builds_rollup_dims_from_the_fleet() {
        let cfg = ExperimentConfig::short(1, 2);
        let mut ctx = CampaignCtx::new(cfg);
        ctx.obs = Some(Box::new(ObsState::new(&ObsConfig::default(), TICK)));
        let mut phase = ObservePhase::new();
        phase.step(&mut ctx);
        let mut tracer = Tracer::disabled();
        let obs = ctx.obs.take().expect("restored").finish(&mut tracer);
        let rollup = obs.rollup.expect("rollups default on");
        let dims: Vec<&str> = rollup.dims.iter().map(|d| d.dim.as_str()).collect();
        assert_eq!(dims, ["zone", "vendor", "placement"]);
        // The paper fleet: one tent zone, one basement zone.
        let zone_labels: Vec<&str> = rollup.dims[0]
            .buckets
            .iter()
            .map(|b| b.label.as_str())
            .collect();
        assert_eq!(zone_labels, ["tent-0", "basement-0"]);
        let vendor_labels: Vec<&str> = rollup.dims[1]
            .buckets
            .iter()
            .map(|b| b.label.as_str())
            .collect();
        assert_eq!(vendor_labels, ["A", "B", "C"]);
        // No host has booted yet (no host-step phase ran), so every
        // bucket exists but none has folded a sample.
        assert!(rollup.dims[2].buckets.iter().all(|b| b.samples == 0));
    }

    #[test]
    fn arming_the_observatory_leaves_trace_sampling_unchanged() {
        // The observatory shares the phase's fleet scan; it must not
        // change a single sampled metric.
        let run = |observed: bool| {
            let cfg = ExperimentConfig::short(1, 2);
            let start = cfg.start;
            let mut ctx = CampaignCtx::new(cfg);
            ctx.tracer = Tracer::enabled(TraceConfig::default(), start);
            if observed {
                ctx.obs = Some(Box::new(ObsState::new(&ObsConfig::default(), TICK)));
            }
            let mut phase = ObservePhase::new();
            for _ in 0..5 {
                phase.step(&mut ctx);
                ctx.now += SimDuration::minutes(1);
            }
            let trace = ctx.tracer.finish().expect("enabled");
            frostlab_trace::export::to_prometheus(&trace.metrics)
        };
        assert_eq!(run(false), run(true));
    }
}
