//! # frostlab-ensemble
//!
//! Deterministic parallel ensemble engine with streaming aggregation.
//!
//! The paper ran its winter exactly once; this crate is how the digital
//! twin re-runs it hundreds of times. Four pieces:
//!
//! * [`engine::Ensemble`] — a work-stealing scoped-thread runner whose
//!   merge step is **thread-count invariant**: results are folded in job
//!   (seed) order regardless of completion order, so a 1-thread and a
//!   16-thread sweep of the same seed range produce byte-identical
//!   output. That property is enforced in CI by diffing the summary JSON
//!   across `--threads` values.
//! * [`sweep()`] — the one campaign sweep: each campaign is projected on
//!   its worker into a [`CampaignProjection`] and folded through a
//!   [`SweepFold`] into a [`Sweep`]: the summary, plus a metrics report
//!   when the campaigns were traced and an alerts report when they were
//!   observed. The farm and the service fold through the same types,
//!   and run each job through the same guarded [`run_job`].
//! * [`aggregate::CampaignAggregate`] — streaming Welford / min-max /
//!   histogram aggregation of compact [`CampaignSummary`](frostlab_core::results::CampaignSummary)
//!   projections, so memory stays O(1) in the number of campaigns
//!   instead of O(N)·sizeof([`ExperimentResults`](frostlab_core::results::ExperimentResults)).
//! * [`report`] — canned ensemble studies (the Monte-Carlo failure sweep)
//!   rendered to strings, shared by `examples/` and the determinism tests.
//!
//! ```no_run
//! use frostlab_core::config::ExperimentConfig;
//! use frostlab_core::ScenarioBuilder;
//! use frostlab_ensemble::sweep;
//!
//! // 32 stochastic winters, all cores, O(1) memory:
//! let swept = sweep(0, 32, 0, |seed| {
//!     ScenarioBuilder::paper(ExperimentConfig::paper_stochastic(seed)).build()
//! });
//! println!("{}", swept.summary.to_json().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod alerts;
pub mod engine;
pub mod metrics;
pub mod report;
mod sweep;

pub use aggregate::{CampaignAggregate, EnsembleSummary};
pub use alerts::{EnsembleAlerts, SeedAlerts};
pub use engine::Ensemble;
pub use metrics::{EnsembleMetrics, GaugeAggregate, MetricsAggregate};
pub use sweep::{
    run_job, run_matrix_sweep, sweep, CampaignProjection, RunFailure, Sweep, SweepFold,
};
