//! The one campaign sweep: project each campaign on its worker, fold the
//! projections in index order.
//!
//! Every consumer of many campaigns — [`sweep`] and [`run_matrix_sweep`]
//! in process, the farm's merge over its result store, the service's
//! matrix execution over its cache — reduces one [`ExperimentResults`]
//! to a [`CampaignProjection`] and folds the projections through a
//! [`SweepFold`]. So the summary and alert reports have one producer, and
//! the same campaigns folded in the same order give the same bytes
//! whichever path ran them. The farm's workers and the service's
//! executor also run each single job the same way, through [`run_job`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use frostlab_core::results::{CampaignSummary, ExperimentResults};
use frostlab_core::spec::{JobSpec, MatrixSpec, SpecError};
use frostlab_core::Scenario;
use frostlab_trace::{MetricsSnapshot, TraceConfig};

use crate::aggregate::{CampaignAggregate, EnsembleSummary};
use crate::alerts::{EnsembleAlerts, SeedAlerts};
use crate::engine::Ensemble;
use crate::metrics::{EnsembleMetrics, MetricsAggregate};

/// What a sweep keeps of one campaign: the summary, plus the metric
/// snapshot of a traced campaign and the alert view of an observed one.
#[derive(Debug, Clone)]
pub struct CampaignProjection {
    /// The campaign's compact summary.
    pub summary: CampaignSummary,
    /// Final metrics (traced campaigns only).
    pub metrics: Option<MetricsSnapshot>,
    /// Alert timeline and SLO attainment (observed campaigns only).
    pub alerts: Option<SeedAlerts>,
}

impl CampaignProjection {
    /// Project a finished campaign. The event buffer, flight dumps and
    /// rollup report are left behind with the full results.
    pub fn of(results: &ExperimentResults) -> CampaignProjection {
        CampaignProjection {
            summary: results.summary(),
            metrics: results.trace.as_ref().map(|t| t.metrics.clone()),
            alerts: results
                .obs
                .as_ref()
                .map(|o| SeedAlerts::from_obs(results.seed, o)),
        }
    }
}

/// Order-sensitive fold of [`CampaignProjection`]s. Feed it in job order;
/// the frozen [`Sweep`] is then byte-identical for any thread or worker
/// count.
#[derive(Debug, Clone)]
pub struct SweepFold {
    seed_start: u64,
    summary: CampaignAggregate,
    metrics: Option<MetricsAggregate>,
    alerts: Option<EnsembleAlerts>,
}

impl SweepFold {
    /// An empty fold for a sweep whose first seed is `seed_start`.
    pub fn new(seed_start: u64) -> SweepFold {
        SweepFold {
            seed_start,
            summary: CampaignAggregate::new(),
            metrics: None,
            alerts: None,
        }
    }

    /// Fold the next campaign in.
    pub fn absorb(&mut self, p: CampaignProjection) {
        self.summary.absorb(&p.summary);
        if let Some(m) = &p.metrics {
            self.metrics
                .get_or_insert_with(MetricsAggregate::new)
                .absorb(m);
        }
        if let Some(a) = p.alerts {
            let seed_start = self.seed_start;
            self.alerts
                .get_or_insert_with(|| EnsembleAlerts::new(seed_start))
                .absorb(a);
        }
    }

    /// Freeze the reports. `threads` is recorded in the summary's
    /// informational `threads_used` field only.
    pub fn finish(self, threads: usize) -> Sweep {
        Sweep {
            summary: self.summary.finish(self.seed_start, threads),
            metrics: self.metrics.map(|m| m.finish(self.seed_start)),
            alerts: self.alerts,
        }
    }
}

/// The frozen reports of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Streaming summary over every campaign.
    pub summary: EnsembleSummary,
    /// Metrics folded over the traced campaigns (`None` if none was).
    pub metrics: Option<EnsembleMetrics>,
    /// Per-seed alerts of the observed campaigns (`None` if none was).
    pub alerts: Option<EnsembleAlerts>,
}

/// Run `campaigns` campaigns on `threads` workers (`0` = all cores) and
/// fold them in index order. Campaign `i` is `make_scenario(seed_start +
/// i)`, built and run on a worker and projected there, so the full
/// results are dropped before the worker starts its next campaign.
///
/// Arm tracing or observability in `make_scenario` to get the metrics or
/// alerts report. The thread count never changes a reported byte, only
/// the wall-clock.
pub fn sweep<B>(seed_start: u64, campaigns: u64, threads: usize, make_scenario: B) -> Sweep
where
    B: Fn(u64) -> Scenario + Sync,
{
    let ensemble = Ensemble::new(campaigns).threads(threads);
    let mut fold = SweepFold::new(seed_start);
    ensemble.run_scenarios(
        |i| make_scenario(seed_start + i),
        CampaignProjection::of,
        |_, p| fold.absorb(p),
    );
    fold.finish(ensemble.effective_threads())
}

/// Run every job of a [`MatrixSpec`] — scenario-major, seed-minor, the
/// matrix's canonical expansion order — in one [`sweep`] and return its
/// summary.
///
/// This is the single-process reference a `frostlab-farm` sweep of the
/// same matrix is byte-compared against: the farm folds the same per-job
/// projections in the same order, so the two
/// [`EnsembleSummary::invariant_json`] renderings must be identical at
/// any thread/worker count and across any number of kill/resume cycles.
pub fn run_matrix_sweep(matrix: &MatrixSpec, threads: usize) -> Result<EnsembleSummary, SpecError> {
    matrix.validate()?;
    let jobs = matrix.expand();
    let start = matrix.seed_start;
    let swept = sweep(start, jobs.len() as u64, threads, |s| {
        let job = &jobs[(s - start) as usize];
        job.scenario
            .build(job.seed)
            .expect("matrix validated before expansion")
    });
    Ok(swept.summary)
}

/// Why [`run_job`] produced no results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunFailure {
    /// The spec does not describe a runnable campaign.
    Spec(SpecError),
    /// The campaign panicked; the payload rendered to text.
    Panic(String),
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Spec(e) => write!(f, "spec error: {e}"),
            RunFailure::Panic(m) => write!(f, "panic: {m}"),
        }
    }
}

/// Build `job`'s campaign — with the tracer armed
/// ([`TraceConfig::default`]) when `traced` — and run it with panics
/// caught, so one poison job fails typed instead of taking its worker
/// down.
pub fn run_job(job: &JobSpec, traced: bool) -> Result<ExperimentResults, RunFailure> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut builder = job.scenario.builder(job.seed).map_err(RunFailure::Spec)?;
        if traced {
            builder = builder.with_tracing(TraceConfig::default());
        }
        Ok(builder.build().run())
    }))
    .unwrap_or_else(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(RunFailure::Panic(text))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_core::config::ExperimentConfig;
    use frostlab_core::{ScenarioBuilder, ScenarioSpec};
    use frostlab_obs::ObsConfig;
    use frostlab_trace::TraceConfig;

    #[test]
    fn reports_appear_only_for_armed_campaigns() {
        let plain = sweep(0, 1, 1, |s| {
            ScenarioBuilder::paper(ExperimentConfig::short(s, 1)).build()
        });
        assert_eq!(plain.summary.campaigns, 1);
        assert!(plain.metrics.is_none() && plain.alerts.is_none());

        let observed = sweep(5, 2, 2, |s| {
            ScenarioBuilder::paper(ExperimentConfig::short(s, 1))
                .with_tracing(TraceConfig::metrics_only())
                .with_observability(ObsConfig::default())
                .build()
        });
        let metrics = observed.metrics.expect("traced campaigns fold metrics");
        let alerts = observed.alerts.expect("observed campaigns fold alerts");
        assert_eq!((metrics.campaigns, metrics.seed_start), (2, 5));
        assert_eq!((alerts.campaigns, alerts.seed_start), (2, 5));
        let seeds: Vec<u64> = alerts.per_seed.iter().map(|a| a.seed).collect();
        assert_eq!(seeds, [5, 6]);
        assert_eq!(observed.summary.threads_used, 2);
    }

    #[test]
    fn run_job_fails_typed_on_bad_specs_and_panics() {
        let job = |scenario| JobSpec { scenario, seed: 0 };
        let bad = job(ScenarioSpec::new("x", 1, "atlantis"));
        assert!(matches!(run_job(&bad, false), Err(RunFailure::Spec(_))));

        let mut poison = ScenarioSpec::new("p", 1, "helsinki");
        poison.poison = true;
        let err = run_job(&job(poison), false).expect_err("poison panics");
        assert!(err.to_string().starts_with("panic: poison phase detonated"));

        let traced = run_job(&job(ScenarioSpec::new("t", 1, "helsinki")), true).expect("runs");
        assert!(traced.trace.is_some());
    }
}
