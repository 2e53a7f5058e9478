//! # frostlab-energy
//!
//! Facility-scale energy models: the §5 discussion made quantitative.
//!
//! The paper closes with the department's own retrofit: a 75 kW cluster
//! cooled by three new CRAC units (6.9 kW total), a chilled-water HVAC unit
//! (44.7 kW) and a roof liquid cooler (3.8 kW) — "if we could just sum
//! those figures up, the new cluster's PUE rating would be a rather
//! efficient 1.74. Unfortunately … our existing CRACs take care of some of
//! the thermal load", so the honest PUE is worse. And the motivation
//! numbers from the introduction: outside-air cooling can save 40 % (HP) to
//! 67 % (Intel) of cooling energy.
//!
//! * [`plant`] — CRAC/chiller/HVAC units and the department's §5 plant;
//! * [`pue`](mod@pue) — PUE arithmetic, including the legacy-load correction;
//! * [`economizer`] — an air-side economizer model driven by the
//!   `frostlab-climate` generators, reproducing the 40–67 % savings band
//!   across the three study climates (T6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod economizer;
pub mod plant;
pub mod pue;

pub use economizer::{EconomizerConfig, EconomizerReport};
pub use plant::{CoolingPlant, CracUnit};
pub use pue::pue;
