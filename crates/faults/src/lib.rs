//! # frostlab-faults
//!
//! Reliability substrate: hazard models, fault injection, repair policy and
//! chaos injection.
//!
//! The paper's research questions (§3) are reliability questions:
//!
//! 1. is unconditioned outside air feasible at all?
//! 2. does it raise the equipment failure rate (compare: Intel's economizer
//!    PoC saw 4.46 %, this experiment 1/18 ≈ 5.6 %)?
//! 3. do specific components fail first — detectable as *common-cause*
//!    failures hitting multiple hosts nearly simultaneously?
//! 4. does the cold help the known-bad vendor-B series?
//!
//! The crate provides:
//!
//! * [`hazard`] — time-varying failure-rate models: a base exponential rate
//!   accelerated by temperature (Arrhenius), humidity (Peck) and thermal
//!   cycling (Coffin–Manson fatigue accumulation);
//! * [`injector`] — turns hazard rates into concrete fault events on a
//!   deterministic RNG stream, plus a scripted mode replaying the paper's
//!   documented faults;
//! * [`repair`] — the operators' observed repair policy (inspect on the next
//!   visit, reset once, take indoors after a repeat failure, replace);
//! * [`chaos`] — a reproducible schedule of adverse events (link-loss
//!   bursts, switch deaths, host hangs and reboots, sensor freezes) for
//!   the collection pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod hazard;
pub mod injector;
pub mod repair;
pub mod types;

pub use hazard::EnvHazard;
pub use injector::FaultInjector;
pub use types::{FaultEvent, FaultKind};
