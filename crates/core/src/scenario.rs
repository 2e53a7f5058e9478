//! Composing campaigns out of [`TickPhase`]s.
//!
//! [`ScenarioBuilder::paper`] assembles the stock seven-phase pipeline
//! that reproduces the paper's campaign; `push` / `insert_after` /
//! `replace` / `remove` then let a what-if study restructure the pipeline
//! without forking the orchestrator:
//!
//! ```no_run
//! use frostlab_core::config::ExperimentConfig;
//! use frostlab_core::scenario::ScenarioBuilder;
//!
//! // The paper's campaign, with per-phase wall-clock metering.
//! let (results, timings) = ScenarioBuilder::paper(ExperimentConfig::paper_scripted(42))
//!     .with_timing()
//!     .build()
//!     .run_with_timings();
//! println!("runs: {}", results.workload.total_runs());
//! for t in timings {
//!     println!("{:>20}: {:.1} ms over {} calls", t.phase, t.total_ms, t.calls);
//! }
//! ```
//!
//! The stock phase names, in pipeline order: `weather`,
//! `enclosure-thermal`, `logger-poll`, `script`, `host-step`,
//! `collection`, `power-integration`.

use frostlab_obs::{ObsConfig, ObsState};
use frostlab_trace::{TraceConfig, Tracer};

use crate::config::{ExperimentConfig, TICK};
use crate::context::CampaignCtx;
use crate::observe::ObservePhase;
use crate::phases::{
    CollectionPhase, EnclosureThermalPhase, HostStepPhase, LoggerPollPhase, PhaseTiming,
    PowerIntegrationPhase, ScriptPhase, TickPhase, TimingProbe, WeatherPhase,
};
use crate::results::ExperimentResults;

/// Builds a [`Scenario`] by composing [`TickPhase`]s over a fresh
/// [`CampaignCtx`].
pub struct ScenarioBuilder {
    ctx: CampaignCtx,
    phases: Vec<Box<dyn TickPhase>>,
}

impl ScenarioBuilder {
    /// The stock pipeline reproducing the paper's campaign — the seven
    /// phases in the order the old monolithic orchestrator ran them.
    pub fn paper(cfg: ExperimentConfig) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::empty(cfg);
        let cfg = &b.ctx.cfg;
        let phases: Vec<Box<dyn TickPhase>> = vec![
            Box::new(WeatherPhase::new()),
            Box::new(EnclosureThermalPhase::new()),
            Box::new(LoggerPollPhase::new(cfg)),
            Box::new(ScriptPhase::from_config(cfg)),
            Box::new(HostStepPhase::new(cfg)),
            Box::new(CollectionPhase::new(cfg)),
            Box::new(PowerIntegrationPhase::new()),
        ];
        b.phases = phases;
        b
    }

    /// A pipeline with no phases — the campaign state exists but nothing
    /// steps it. Push phases to build a scenario from scratch.
    fn empty(cfg: ExperimentConfig) -> ScenarioBuilder {
        ScenarioBuilder {
            ctx: CampaignCtx::new(cfg),
            phases: Vec::new(),
        }
    }

    /// The campaign config this scenario was built from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.ctx.cfg
    }

    /// Current phase names, in pipeline order.
    fn phase_names(&self) -> Vec<String> {
        self.phases.iter().map(|p| p.name().to_string()).collect()
    }

    /// Append a phase at the end of the pipeline.
    pub fn push(mut self, phase: Box<dyn TickPhase>) -> ScenarioBuilder {
        self.phases.push(phase);
        self
    }

    /// Insert a phase immediately after the named one.
    ///
    /// # Panics
    /// Panics if no phase has that name.
    pub fn insert_after(mut self, name: &str, phase: Box<dyn TickPhase>) -> ScenarioBuilder {
        let idx = self.index_of(name);
        self.phases.insert(idx + 1, phase);
        self
    }

    /// Swap the named phase for a replacement (e.g. a replayed-trace
    /// weather phase in place of the synthetic one).
    ///
    /// # Panics
    /// Panics if no phase has that name.
    pub fn replace(mut self, name: &str, phase: Box<dyn TickPhase>) -> ScenarioBuilder {
        let idx = self.index_of(name);
        self.phases[idx] = phase;
        self
    }

    /// Drop the named phase from the pipeline.
    ///
    /// # Panics
    /// Panics if no phase has that name.
    pub fn remove(mut self, name: &str) -> ScenarioBuilder {
        let idx = self.index_of(name);
        self.phases.remove(idx);
        self
    }

    /// Wrap *every* phase in a [`TimingProbe`] so
    /// [`Scenario::run_with_timings`] can report the per-phase wall-clock
    /// breakdown.
    ///
    /// Phases that already report a timing (e.g. a [`TimingProbe`] put in
    /// by hand with [`ScenarioBuilder::replace`]) are left alone, so the
    /// phase is metered exactly once under its own name.
    pub fn with_timing(mut self) -> ScenarioBuilder {
        self.phases = self
            .phases
            .into_iter()
            .map(|p| {
                if p.timing().is_some() {
                    p
                } else {
                    Box::new(TimingProbe::new(p)) as Box<dyn TickPhase>
                }
            })
            .collect();
        self
    }

    /// Arm the campaign's tracer. The pipeline gains an [`ObservePhase`]
    /// (unless it already has one) that samples metrics and drains the
    /// campaign's ledgers into trace events at each tick boundary. The
    /// finished run carries the frozen trace in
    /// [`ExperimentResults::trace`].
    ///
    /// Tracing draws no randomness and no wall-clock, so results stay
    /// byte-identical to an untraced run and the exported trace is
    /// byte-identical across runs and ensemble thread counts.
    pub fn with_tracing(mut self, cfg: TraceConfig) -> ScenarioBuilder {
        self.ctx.tracer = Tracer::enabled(cfg, self.ctx.cfg.start);
        self.with_observe_phase()
    }

    /// Arm the fleet health observatory: dimensional rollups, SLO
    /// burn-rate alerting and the incident flight recorder (see
    /// [`frostlab_obs::ObsConfig`]). The pipeline gains an
    /// [`ObservePhase`] unless it already has one, and the finished run
    /// carries the frozen record in [`ExperimentResults::obs`].
    ///
    /// Composes with [`ScenarioBuilder::with_tracing`] in either order;
    /// call it *before* [`ScenarioBuilder::with_timing`] so the observe
    /// phase is metered too. Like tracing, observability draws no
    /// randomness and no wall-clock, so the campaign's physics and every
    /// golden artifact stay byte-identical.
    pub fn with_observability(mut self, cfg: ObsConfig) -> ScenarioBuilder {
        self.ctx.obs = Some(Box::new(ObsState::new(&cfg, TICK)));
        self.with_observe_phase()
    }

    /// Append the one [`ObservePhase`] a pipeline may carry.
    fn with_observe_phase(mut self) -> ScenarioBuilder {
        if !self.phases.iter().any(|p| p.name() == "observe") {
            self.phases.push(Box::new(ObservePhase::new()));
        }
        self
    }

    /// Finish composition.
    pub fn build(self) -> Scenario {
        Scenario {
            ctx: self.ctx,
            phases: self.phases,
        }
    }

    fn index_of(&self, name: &str) -> usize {
        self.phases
            .iter()
            .position(|p| p.name() == name)
            .unwrap_or_else(|| {
                panic!(
                    "no phase named {name:?} in pipeline {:?}",
                    self.phase_names()
                )
            })
    }
}

/// A runnable campaign: a phase pipeline over a [`CampaignCtx`].
pub struct Scenario {
    ctx: CampaignCtx,
    phases: Vec<Box<dyn TickPhase>>,
}

impl Scenario {
    /// Run the campaign to completion.
    pub fn run(self) -> ExperimentResults {
        self.run_with_timings().0
    }

    /// Run the campaign and also return whatever per-phase wall-clock
    /// accounting the pipeline collected (empty unless phases were wrapped
    /// in [`TimingProbe`]s, e.g. via [`ScenarioBuilder::with_timing`]).
    pub fn run_with_timings(mut self) -> (ExperimentResults, Vec<PhaseTiming>) {
        while self.ctx.now <= self.ctx.cfg.end {
            for phase in &mut self.phases {
                phase.step(&mut self.ctx);
            }
            self.ctx.now += TICK;
        }
        let timings = self.phases.iter().filter_map(|p| p.timing()).collect();
        (self.ctx.finish(), timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultMode;
    use crate::phases::PhaseTiming;
    use frostlab_simkern::time::{SimDuration, SimTime};

    /// The stock paper campaign, run to completion.
    fn paper(cfg: ExperimentConfig) -> ExperimentResults {
        ScenarioBuilder::paper(cfg).build().run()
    }

    const STOCK: [&str; 7] = [
        "weather",
        "enclosure-thermal",
        "logger-poll",
        "script",
        "host-step",
        "collection",
        "power-integration",
    ];

    /// A phase that counts its own steps — for composition tests.
    struct CountingPhase {
        name: &'static str,
        steps: u64,
    }

    impl TickPhase for CountingPhase {
        fn name(&self) -> &str {
            self.name
        }
        fn step(&mut self, _ctx: &mut CampaignCtx) {
            self.steps += 1;
        }
    }

    #[test]
    fn paper_pipeline_has_the_stock_phases_in_order() {
        let b = ScenarioBuilder::paper(ExperimentConfig::short(1, 3));
        assert_eq!(b.phase_names(), STOCK);
    }

    #[test]
    fn builder_edits_address_phases_by_name() {
        let b = ScenarioBuilder::paper(ExperimentConfig::short(1, 3))
            .insert_after(
                "script",
                Box::new(CountingPhase {
                    name: "pre-host",
                    steps: 0,
                }),
            )
            .insert_after(
                "power-integration",
                Box::new(CountingPhase {
                    name: "post-power",
                    steps: 0,
                }),
            )
            .remove("collection")
            .replace(
                "script",
                Box::new(CountingPhase {
                    name: "no-script",
                    steps: 0,
                }),
            );
        assert_eq!(
            b.phase_names(),
            vec![
                "weather",
                "enclosure-thermal",
                "logger-poll",
                "no-script",
                "pre-host",
                "host-step",
                "power-integration",
                "post-power",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "no phase named")]
    fn misaddressed_edit_panics() {
        let _ = ScenarioBuilder::paper(ExperimentConfig::short(1, 3)).remove("no-such-phase");
    }

    #[test]
    fn with_timing_meters_every_phase_without_changing_results() {
        let plain = ScenarioBuilder::paper(ExperimentConfig::short(3, 5))
            .build()
            .run();
        let (timed, timings) = ScenarioBuilder::paper(ExperimentConfig::short(3, 5))
            .with_timing()
            .build()
            .run_with_timings();
        assert_eq!(plain.workload.total_runs(), timed.workload.total_runs());
        assert_eq!(plain.tent_temp_truth, timed.tent_temp_truth);
        let names: Vec<&str> = timings.iter().map(|t| t.phase.as_str()).collect();
        assert_eq!(names, STOCK);
        // 5 days of 1-minute ticks, inclusive window.
        let expected_ticks = 5 * 24 * 60 + 1;
        for t in &timings {
            assert_eq!(t.calls, expected_ticks, "{}", t.phase);
        }
    }

    #[test]
    fn with_timing_after_manual_wrap_does_not_double_count() {
        // The collection phase is already probed by hand; `with_timing`
        // must leave it alone instead of nesting a second probe that
        // would report the phase twice (or double its wall-clock).
        let cfg = ExperimentConfig::short(4, 2);
        let probed = TimingProbe::new(Box::new(CollectionPhase::new(&cfg)));
        let (_, timings) = ScenarioBuilder::paper(cfg)
            .replace("collection", Box::new(probed))
            .with_timing()
            .build()
            .run_with_timings();
        let names: Vec<&str> = timings.iter().map(|t| t.phase.as_str()).collect();
        assert_eq!(names, STOCK, "each phase metered exactly once");
        let expected_ticks = 2 * 24 * 60 + 1;
        for t in &timings {
            assert_eq!(t.calls, expected_ticks, "{}", t.phase);
        }
    }

    #[test]
    fn with_tracing_records_a_trace_without_changing_results() {
        use frostlab_trace::TraceConfig;
        // Nine days from Feb 12 reach the Feb 19 installs, so hosts run
        // jobs and get collected — there are events to trace.
        let plain = paper(ExperimentConfig::short(3, 9));
        let traced = ScenarioBuilder::paper(ExperimentConfig::short(3, 9))
            .with_tracing(TraceConfig::default())
            .build()
            .run();
        assert!(plain.trace.is_none(), "tracing is off by default");
        assert_eq!(plain.workload.total_runs(), traced.workload.total_runs());
        assert_eq!(plain.tent_temp_truth, traced.tent_temp_truth);
        assert_eq!(plain.incidents, traced.incidents);
        let trace = traced.trace.expect("tracing was armed");
        assert!(!trace.events.is_empty());
        assert!(
            trace.events.iter().all(|e| !e.track.starts_with("phase/")),
            "phase steps are pure schedule and are not traced"
        );
        // Zero-delta ticks never create a counter, so a window with no
        // runs leaves it absent rather than zero.
        assert_eq!(
            trace.metrics.counter("workload.runs_total").unwrap_or(0),
            traced.workload.total_runs(),
            "the runs counter tracks the workload accumulator"
        );
        assert!(trace.metrics.gauge("tent.temp_c").is_some());
    }

    #[test]
    fn tracing_composes_with_timing() {
        use frostlab_trace::TraceConfig;
        let (results, timings) = ScenarioBuilder::paper(ExperimentConfig::short(5, 1))
            .with_tracing(TraceConfig::default())
            .with_timing()
            .build()
            .run_with_timings();
        assert!(results.trace.is_some());
        // Tracing adds the observe phase, so it is metered too; the seven
        // substrate phases are metered under their own names.
        let names: Vec<&str> = timings.iter().map(|t| t.phase.as_str()).collect();
        let mut expected: Vec<&str> = STOCK.to_vec();
        expected.push("observe");
        assert_eq!(names, expected);
    }

    #[test]
    fn with_observability_records_obs_without_changing_physics() {
        use frostlab_obs::ObsConfig;
        let plain = ScenarioBuilder::paper(ExperimentConfig::short(3, 2))
            .build()
            .run();
        let observed = ScenarioBuilder::paper(ExperimentConfig::short(3, 2))
            .with_observability(ObsConfig::default())
            .build()
            .run();
        assert!(plain.obs.is_none(), "observability is off by default");
        let obs = observed.obs.expect("observatory was armed");
        assert_eq!(plain.workload.total_runs(), observed.workload.total_runs());
        assert_eq!(plain.tent_temp_truth, observed.tent_temp_truth);
        assert_eq!(plain.tent_energy_true_kwh, observed.tent_energy_true_kwh);
        // The paper's four SLOs were evaluated, in spec order.
        let slos: Vec<&str> = obs.slos.iter().map(|s| s.slo.as_str()).collect();
        assert_eq!(
            slos,
            [
                "corruption-rate",
                "collection-staleness",
                "dew-point-margin",
                "host-reset-rate"
            ]
        );
        // Rollups cover the fleet's three dimensions.
        let rollup = obs.rollup.expect("rollups default on");
        assert_eq!(rollup.dims.len(), 3);
        // The incident ledger may gain slo-breach mirrors; everything
        // else must match the plain run exactly.
        let non_slo: Vec<_> = observed
            .incidents
            .iter()
            .filter(|i| !matches!(i.kind, crate::watchdog::IncidentKind::SloBreach))
            .cloned()
            .collect();
        assert_eq!(non_slo, plain.incidents);
        // Every alert fire in the timeline has a matching slo/ incident.
        for a in obs.alerts.iter().filter(|a| a.action == "fire") {
            assert!(
                observed
                    .incidents
                    .iter()
                    .any(|i| i.subject == format!("slo/{}", a.slo)),
                "alert {} missing from the watchdog ledger",
                a.slo
            );
        }
    }

    #[test]
    fn observability_composes_with_tracing_in_either_order() {
        use frostlab_obs::ObsConfig;
        use frostlab_trace::TraceConfig;
        let obs_then_trace = ScenarioBuilder::paper(ExperimentConfig::short(5, 1))
            .with_observability(ObsConfig::default())
            .with_tracing(TraceConfig::default());
        let trace_then_obs = ScenarioBuilder::paper(ExperimentConfig::short(5, 1))
            .with_tracing(TraceConfig::default())
            .with_observability(ObsConfig::default());
        for b in [&obs_then_trace, &trace_then_obs] {
            let names = b.phase_names();
            assert_eq!(
                names.iter().filter(|n| n.as_str() == "observe").count(),
                1,
                "{names:?}"
            );
        }
        // Both orders produce identical traces and obs records.
        let a = obs_then_trace.build().run();
        let b = trace_then_obs.build().run();
        assert_eq!(a.obs, b.obs);
        let (ta, tb) = (a.trace.expect("traced"), b.trace.expect("traced"));
        assert_eq!(
            frostlab_trace::export::to_prometheus(&ta.metrics),
            frostlab_trace::export::to_prometheus(&tb.metrics)
        );
    }

    #[test]
    fn removing_host_step_stops_the_workload_but_weather_continues() {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(2, 10))
            .remove("host-step")
            .build()
            .run();
        assert_eq!(results.workload.total_runs(), 0);
        assert!(results.outside.len() > 400);
        assert!(results.tent_temp_truth.len() > 400);
    }

    #[test]
    fn empty_pipeline_runs_and_finishes() {
        let results = ScenarioBuilder::empty(ExperimentConfig::short(1, 2))
            .build()
            .run();
        assert_eq!(results.workload.total_runs(), 0);
        assert!(results.outside.is_empty());
    }

    #[test]
    fn phase_timing_serializes_round_trip() {
        let t = PhaseTiming {
            phase: "collection".to_string(),
            total_ms: 12.5,
            calls: 7,
        };
        let json = serde_json::to_string(&t).expect("plain data");
        let back: PhaseTiming = serde_json::from_str(&json).expect("valid");
        assert_eq!(back, t);
    }

    #[test]
    fn short_campaign_runs_and_accumulates() {
        let results = paper(ExperimentConfig::short(1, 3));
        // 3 days, first three tent hosts + twins installed at start+... —
        // nobody is installed before Feb 19 in the paper fleet, so the
        // short window Feb 12–15 has zero runs but full weather capture.
        assert!(
            results.outside.len() > 400,
            "outside obs {}",
            results.outside.len()
        );
        assert!(results.tent_temp_truth.len() > 400);
        assert_eq!(results.workload.total_runs(), 0);
    }

    #[test]
    fn ten_day_campaign_produces_runs_and_power() {
        let results = paper(ExperimentConfig::short(2, 10));
        // Hosts 1,2,3 (+ twins) install Feb 19 11:00; window ends Feb 22.
        let runs = results.workload.total_runs();
        // 6 machines × ~3 days × 144 runs/day ≈ 2400.
        assert!((1500..3500).contains(&runs), "runs {runs}");
        assert!(
            results.tent_energy_true_kwh > 1.0,
            "energy {}",
            results.tent_energy_true_kwh
        );
        let mean_w = results.tent_mean_power_w();
        assert!(mean_w > 0.0 && mean_w < 2000.0, "mean tent power {mean_w}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = paper(ExperimentConfig::short(7, 9));
        let b = paper(ExperimentConfig::short(7, 9));
        assert_eq!(a.workload.total_runs(), b.workload.total_runs());
        assert_eq!(a.tent_temp_truth, b.tent_temp_truth);
        assert_eq!(a.fault_events.len(), b.fault_events.len());
        assert_eq!(a.tent_energy_true_kwh, b.tent_energy_true_kwh);
    }

    #[test]
    fn summary_json_roundtrips() {
        let results = paper(ExperimentConfig::short(11, 8));
        let summary = results.summary();
        let json = summary.to_json().expect("plain data serializes");
        assert!(json.contains("\"total_runs\""));
        let back: crate::results::CampaignSummary =
            serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(back, summary);
        assert_eq!(back.seed, 11);
        assert!(back.collection_availability > 0.0);
    }

    #[test]
    fn watchdog_logs_the_switch_outage_with_recovery() -> Result<(), serde_json::Error> {
        // 20 days from Feb 12 cover both §4.2.1 switch deaths (Feb 26 and
        // Feb 28) and the Mar 1 restoration.
        let results = paper(ExperimentConfig::short(5, 20));
        let switch_incidents: Vec<_> = results
            .incidents
            .iter()
            .filter(|i| i.kind == crate::watchdog::IncidentKind::SwitchFailure)
            .collect();
        assert_eq!(switch_incidents.len(), 2, "{:?}", results.incidents);
        let restored = SimTime::from_ymd_hms(2010, 3, 1, 11, 30, 0);
        for i in &switch_incidents {
            assert_eq!(i.resolved, Some(restored), "{i:?}");
            assert_eq!(i.resolution.as_deref(), Some("spare switch swapped in"));
        }
        assert_eq!(
            switch_incidents[0].started,
            SimTime::from_ymd_hms(2010, 2, 26, 9, 0, 0)
        );
        // Stale tent mirrors during the outage are explained by the open
        // switch incidents — no spurious staleness alarms.
        assert!(
            !results
                .incidents
                .iter()
                .any(|i| i.kind == crate::watchdog::IncidentKind::CollectionStale),
            "{:?}",
            results.incidents
        );
        // The log round-trips as machine-readable JSON; a serializer error
        // propagates as a test failure instead of a panic.
        let json = results.incident_log_json()?;
        assert!(json.contains("switch-0") && json.contains("switch-1"));
        Ok(())
    }

    #[test]
    fn retries_heal_the_switch_outage_gap() {
        let results = paper(ExperimentConfig::short(5, 20));
        // Retry attempts were made during the outage…
        assert!(
            results.collection.retries > 0,
            "no catch-up retries recorded"
        );
        // …and every tent host's gap healed shortly after the Mar 1 repair:
        // the backoff cap is 20 minutes, so recovery lands within ~25 min
        // of the restoration instead of waiting for the 2 h scheduled round.
        let restored = SimTime::from_ymd_hms(2010, 3, 1, 11, 30, 0);
        assert!(!results.collection_gaps.is_empty());
        for gap in &results.collection_gaps {
            assert!(gap.failed_attempts > 0);
            assert!(gap.end > restored, "{gap:?}");
            assert!(
                gap.end - restored < SimDuration::minutes(30),
                "recovery should ride a capped retry, not the next scheduled round: {gap:?}"
            );
        }
        // Availability still measures the scheduled cadence only.
        let avail = results.collection_availability();
        assert!(avail < 1.0 && avail > 0.5, "availability {avail}");
    }

    #[test]
    fn chaos_campaign_runs_deterministically() {
        let cfg = || ExperimentConfig {
            chaos: Some(frostlab_faults::chaos::ChaosConfig::paper_like()),
            fault_mode: FaultMode::Stochastic,
            ..ExperimentConfig::short(13, 20)
        };
        let a = paper(cfg());
        let b = paper(cfg());
        assert_eq!(a.workload.total_runs(), b.workload.total_runs());
        assert_eq!(a.collection, b.collection);
        assert_eq!(a.incidents, b.incidents);
        // 20 hostile days should produce injected events beyond the two
        // scripted switch deaths.
        assert!(
            a.fault_events.len() > 2,
            "chaos injected nothing: {:?}",
            a.fault_events
        );
    }

    #[test]
    fn chaos_off_stochastic_matches_plain_stochastic() {
        // `chaos: None` must be bit-identical to a build that never had
        // chaos at all — same seed, same stochastic draws, same outputs.
        let plain = paper(ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            ..ExperimentConfig::short(17, 15)
        });
        let with_none = paper(ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            chaos: None,
            ..ExperimentConfig::short(17, 15)
        });
        assert_eq!(plain.workload.total_runs(), with_none.workload.total_runs());
        assert_eq!(plain.tent_temp_truth, with_none.tent_temp_truth);
        assert_eq!(plain.collection, with_none.collection);
        assert_eq!(plain.tent_energy_true_kwh, with_none.tent_energy_true_kwh);
    }

    #[test]
    fn tent_is_warmer_than_outside_and_cooler_than_basement() {
        let results = paper(ExperimentConfig::short(3, 12));
        let out_mean: f64 =
            results.outside.iter().map(|o| o.temp_c).sum::<f64>() / results.outside.len() as f64;
        // Compare over the loaded window (after first installs).
        let loaded_from = SimTime::from_date(2010, 2, 20);
        let tent_mean = results
            .tent_temp_truth
            .window(loaded_from, results.window.1)
            .mean()
            .unwrap();
        let basement_mean = results.basement_temp.mean().unwrap();
        assert!(
            tent_mean > out_mean,
            "tent {tent_mean} vs outside {out_mean}"
        );
        assert!(
            basement_mean > tent_mean,
            "basement {basement_mean} vs tent {tent_mean}"
        );
        assert!((18.0..24.0).contains(&basement_mean));
    }
}
