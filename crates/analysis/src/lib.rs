//! # frostlab-analysis
//!
//! Statistics and reporting: the numbers the paper actually states, derived
//! honestly from simulation output.
//!
//! * [`stats`] — descriptive statistics, percentiles, histograms, and the
//!   Wilson score interval (the right tool for "1 failing host out of 18":
//!   tiny-n proportions where the normal approximation lies);
//! * [`failure`] — the T1 comparison: this experiment's failure rate vs.
//!   Intel's 4.46 % economizer result, with interval overlap as the
//!   "comparable rate" criterion;
//! * [`memory_est`] — the T3 derivation: page-operation exposure → the
//!   "one in 570 million" fault ratio;
//! * [`correlation`] — Pearson and lagged cross-correlation (how closely,
//!   and how late, the tent follows the sky);
//! * [`report`] — plain-text tables for the reproduction binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod failure;
pub mod memory_est;
pub mod report;
pub mod stats;

pub use report::Table;
pub use stats::{mean, percentile, std_dev, wilson_interval, Histogram, MinMax, Welford};
