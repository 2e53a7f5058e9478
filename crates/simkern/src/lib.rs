//! # frostlab-simkern
//!
//! Deterministic time and randomness for the frostlab workspace.
//!
//! Campaigns are tick-driven: the core crate steps a fixed cadence and each
//! phase reads the clock, so the kernel needs no event queue. It is small
//! and synchronous: no async runtime, no background threads, and no hidden
//! allocation on the hot path. Two pillars:
//!
//! * [`time`] — simulation time as integer seconds since the experiment epoch
//!   (2010-01-01 00:00 local), with full civil-calendar conversion so scenario
//!   code can speak in the paper's own dates ("host #15 failed Mar 7, 04:40").
//! * [`rng`] — a self-contained xoshiro256++ PRNG with SplitMix64 seeding and
//!   labelled stream derivation, plus the distribution samplers the substrates
//!   need (normal, exponential, lognormal, Poisson). Implemented here rather
//!   than via the `rand` crate so that every figure in EXPERIMENTS.md stays
//!   bit-for-bit reproducible regardless of dependency versions. It also
//!   holds the workspace's one FNV-1a hash, [`fnv1a_from`]: with the
//!   standard prime ([`fnv1a`]) it names content-addressed results, and
//!   with [`PINNED_PRIME`] it derives stream labels and backs the
//!   golden-hash gates.
//!
//! ## Example
//!
//! ```
//! use frostlab_simkern::rng::Rng;
//! use frostlab_simkern::time::{SimDuration, SimTime};
//!
//! let t = SimTime::ZERO + SimDuration::minutes(20);
//! assert_eq!(t.as_secs(), 1200);
//! let (mut a, mut b) = (Rng::new(7).derive("collector"), Rng::new(7).derive("collector"));
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod time;

pub use rng::{fnv1a, fnv1a_from, Rng, FNV_OFFSET, PINNED_PRIME};
pub use time::{Date, DateTime, SimDuration, SimTime, TimeError};
