//! # frostlab-obs
//!
//! The fleet health observatory: dimensional rollups, a sliding-window
//! SLO engine with multi-window burn-rate alerting, and an incident
//! flight recorder. The paper is a monitoring study — its findings are
//! temperature traces, fault timelines and a corruption rate (5 bad
//! hashes in 27,627 runs); this crate turns the digital twin's raw
//! per-tick state into the same kind of operator-facing signals.
//!
//! Three pieces, all deterministic functions of sim-time and seed:
//!
//! * [`rollup`] — labeled metric families (per zone, vendor, placement)
//!   folded with the streaming [`frostlab_analysis::stats`] machinery.
//!   Memory is **O(label cardinality)**, never O(hosts × ticks): each
//!   bucket holds a Welford mean/variance, a min/max and a sample count,
//!   and the hot loop indexes dense bucket vectors — no string keys.
//! * [`slo`] — declarative [`slo::SloSpec`]s evaluated every tick over
//!   ring-buffered windows. An alert fires when **both** the fast and
//!   the slow window burn their threshold (the classic multi-window
//!   burn-rate rule: fast to catch, slow to confirm) and resolves when
//!   the fast window is clean again. Every fire/resolve is a sim-time
//!   [`slo::AlertEvent`] — byte-identical at any thread count.
//! * [`flight`] — a bounded ring of recent trace events per track,
//!   snapshotted whenever an alert fires or a watchdog incident opens,
//!   so every incident ships its surrounding context as a content-named
//!   `flightrec/*.jsonl` dump.
//!
//! The crate rides on `frostlab-trace` for event/metric plumbing and is
//! itself fed by `frostlab-core`'s observe phase, which scans the fleet
//! columns in its existing O(hosts) pass. Like the tracer, the whole
//! observatory is zero-cost when disabled: a campaign without an
//! [`ObsConfig`] carries a `None` and pays one branch per tick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod flight;
pub mod rollup;
pub mod slo;

use frostlab_simkern::time::{SimDuration, SimTime};
use frostlab_trace::Tracer;

pub use digest::{HealthDigest, HotBucket};
pub use flight::{FlightConfig, FlightDump, FlightRecorder};
pub use rollup::{BucketSummary, DimReport, FleetRollup, RollupDim, RollupReport};
pub use slo::{AlertEvent, AlertRecord, SloAttainment, SloEngine, SloFeed, SloKind, SloSpec};

/// What the observatory watches beyond its always-on per-zone, vendor
/// and placement rollups. The default is the paper's monitoring posture:
/// the four paper SLOs and a modest flight recorder.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// SLOs to evaluate each tick.
    pub slos: Vec<SloSpec>,
    /// Flight-recorder ring sizing.
    pub flight: FlightConfig,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            slos: SloSpec::paper_defaults(),
            flight: FlightConfig::default(),
        }
    }
}

/// Live observatory state, owned by the campaign context next to the
/// tracer. Built by [`ObsState::new`] when a scenario arms
/// observability; frozen into a [`CampaignObs`] by [`ObsState::finish`].
#[derive(Debug)]
pub struct ObsState {
    rollup: Option<FleetRollup>,
    slo: SloEngine,
    flight: FlightRecorder,
}

impl ObsState {
    /// Build the observatory for a campaign ticking every `tick`.
    pub fn new(cfg: &ObsConfig, tick: SimDuration) -> ObsState {
        ObsState {
            rollup: None,
            slo: SloEngine::new(&cfg.slos, tick),
            flight: FlightRecorder::new(cfg.flight),
        }
    }

    /// Install the rollup dimensions on first tick (the observe phase
    /// knows the fleet's zones/vendors; this crate does not).
    pub fn init_rollup(&mut self, rollup: FleetRollup) {
        if self.rollup.is_none() {
            self.rollup = Some(rollup);
        }
    }

    /// The live rollup, once initialised.
    pub fn rollup_mut(&mut self) -> Option<&mut FleetRollup> {
        self.rollup.as_mut()
    }

    /// Evaluate every SLO against this tick's feed. Returned events are
    /// in spec order; the caller mirrors them into the watchdog ledger
    /// and triggers flight-recorder snapshots.
    pub fn slo_step(&mut self, now: SimTime, feed: &SloFeed) -> Vec<AlertEvent> {
        self.slo.step(now, feed)
    }

    /// The flight recorder (tail trace events in, snapshots out).
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// Freeze into the campaign's observability record. Rollup summary
    /// gauges are flushed into `tracer` (as labeled families) first, so
    /// callers must invoke this **before** `tracer.finish()`.
    pub fn finish(self, tracer: &mut Tracer) -> CampaignObs {
        let rollup = self.rollup.map(|r| {
            r.flush_into(tracer);
            r.report()
        });
        let (alerts, attainment) = self.slo.finish();
        CampaignObs {
            alerts,
            slos: attainment,
            rollup,
            flights: self.flight.into_dumps(),
        }
    }
}

/// A finished campaign's frozen observability record: the alert
/// timeline, per-SLO attainment, rollup report and flight dumps.
/// Everything here is a pure function of (config, seed), so it is safe
/// to compare byte-for-byte across thread counts and repeated runs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignObs {
    /// Every alert fire/resolve, in sim-time order.
    pub alerts: Vec<AlertRecord>,
    /// End-of-campaign attainment per SLO, in spec order.
    pub slos: Vec<SloAttainment>,
    /// Dimensional rollup report (absent when the campaign never ticked
    /// its observe phase).
    pub rollup: Option<RollupReport>,
    /// Flight-recorder snapshots taken when alerts fired or incidents
    /// opened.
    pub flights: Vec<FlightDump>,
}

impl CampaignObs {
    /// The alert timeline as deterministic JSON lines (one record per
    /// line) — the unit of the 1-vs-4-thread byte-diff in CI.
    pub fn alert_timeline(&self) -> String {
        let mut out = String::new();
        for a in &self.alerts {
            out.push_str(&serde_json::to_string(a).expect("plain data"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_carries_the_paper_slos() {
        let cfg = ObsConfig::default();
        let names: Vec<&str> = cfg.slos.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "corruption-rate",
                "collection-staleness",
                "dew-point-margin",
                "host-reset-rate"
            ]
        );
    }

    #[test]
    fn finish_before_tracer_flushes_labeled_gauges() {
        let mut state = ObsState::new(&ObsConfig::default(), SimDuration::minutes(1));
        let mut rollup = FleetRollup::new(vec![RollupDim::new(
            "zone",
            vec!["z0".to_string(), "z1".to_string()],
        )]);
        rollup.dims[0].push(0, -5.0, 40.0);
        rollup.dims[0].push(1, 2.0, 55.0);
        state.init_rollup(rollup);
        let mut tracer =
            Tracer::enabled(frostlab_trace::TraceConfig::metrics_only(), SimTime::ZERO);
        let obs = state.finish(&mut tracer);
        assert!(obs.rollup.is_some());
        let trace = tracer.finish().expect("enabled");
        assert_eq!(
            trace
                .metrics
                .gauge_labeled("zone.temp_mean_c", &[("zone", "z0")]),
            Some(-5.0)
        );
        assert_eq!(
            trace
                .metrics
                .gauge_labeled("zone.power_mean_w", &[("zone", "z1")]),
            Some(55.0)
        );
    }

    #[test]
    fn alert_timeline_is_deterministic_json_lines() {
        let obs = CampaignObs {
            alerts: vec![AlertRecord {
                slo: "corruption-rate".to_string(),
                action: "fire".to_string(),
                at: "2010-01-02 03:04:00".to_string(),
                at_s: 97440,
                fast_burn: 9.5,
                slow_burn: 2.5,
            }],
            slos: Vec::new(),
            rollup: None,
            flights: Vec::new(),
        };
        let a = obs.alert_timeline();
        assert_eq!(a, obs.alert_timeline());
        assert!(a.starts_with("{\"slo\":\"corruption-rate\",\"action\":\"fire\""));
        assert_eq!(a.lines().count(), 1);
    }
}
