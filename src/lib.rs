//! # frostlab
//!
//! A digital twin of **“Running Servers around Zero Degrees”** (Pervilä &
//! Kangasharju, ACM GreenNetworking 2010): the experiment that ran
//! commodity servers in a tent on a Helsinki roof terrace through Finnish
//! winter, cooled by nothing but outside air.
//!
//! The original study is a measurement campaign, so this crate family
//! rebuilds everything the campaign *used* — the winter, the tent, the
//! machines, the instruments, the monitoring network, the repair crew — as
//! deterministic simulation substrates, and then re-runs the campaign:
//!
//! | crate | what it models |
//! |---|---|
//! | [`simkern`] | simulation time, deterministic PRNG |
//! | [`climate`] | Helsinki winter 2010 (and the Intel/HP comparison climates) |
//! | [`thermal`] | the tent (R/I/B/F mods), the basement, server chassis |
//! | [`hardware`] | vendors A/B/C, sensors, non-ECC DIMMs, PSUs, S.M.A.R.T., Memtest86+ |
//! | [`faults`] | Arrhenius/Peck/Coffin–Manson hazards, injection, repair policy |
//! | [`compress`] | tar, bzip2-style block compression, MD5, `bzip2recover` |
//! | [`workload`] | the 10-minute pack-verify load with 0–119 s jitter |
//! | [`netsim`] | the 20-minute collection round: rsync deltas, gaps, catch-up retries |
//! | [`telemetry`] | Lascar logger, Technoline meter, outlier removal |
//! | [`energy`] | CRAC/HVAC plant, PUE, air-economizer comparison |
//! | [`analysis`] | Wilson intervals, exposure estimates, report tables |
//! | [`trace`] | deterministic sim-time tracing, metrics registry, Perfetto/JSONL/Prometheus export |
//! | [`obs`] | fleet health observatory: dimensional rollups, SLO burn-rate alerts, flight recorder |
//! | [`core`] | the orchestrated campaign (scripted + stochastic modes) |
//! | [`ensemble`] | deterministic parallel campaign sweeps with streaming aggregation |
//! | [`farm`] | crash-resumable durable job farm: WAL queue, result cache, supervised workers |
//! | [`service`] | `frostlabd`: scenario-serving HTTP API with content-hash caching and bounded admission |
//!
//! ## Quickstart
//!
//! ```no_run
//! use frostlab::core::{ExperimentConfig, ScenarioBuilder};
//!
//! // Re-run the paper's campaign with its documented fault history.
//! let results = ScenarioBuilder::paper(ExperimentConfig::paper_scripted(42))
//!     .build()
//!     .run();
//! assert_eq!(results.workload.hash_errors().len(), 5);
//! println!("fleet failure rate: {:.1} %", 100.0 * results.failure_comparison().fleet().rate);
//! ```
//!
//! See `examples/` for the campaign reproduction, the forensic pipeline,
//! the economizer sizing study and a Monte-Carlo failure sweep, and
//! `crates/bench` for one reproduction binary per figure/table in the
//! paper (run `cargo run -p frostlab-bench --bin repro_all --release`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use frostlab_analysis as analysis;
pub use frostlab_climate as climate;
pub use frostlab_compress as compress;
pub use frostlab_core as core;
pub use frostlab_energy as energy;
pub use frostlab_ensemble as ensemble;
pub use frostlab_farm as farm;
pub use frostlab_faults as faults;
pub use frostlab_hardware as hardware;
pub use frostlab_netsim as netsim;
pub use frostlab_obs as obs;
pub use frostlab_service as service;
pub use frostlab_simkern as simkern;
pub use frostlab_telemetry as telemetry;
pub use frostlab_thermal as thermal;
pub use frostlab_trace as trace;
pub use frostlab_workload as workload;
