//! # frostlab-thermal
//!
//! Thermal substrate: the physics between the weather and the silicon.
//!
//! The paper's Fig. 3 is, at heart, a two-trace plot: outside air temperature
//! (SMEAR III) and tent-internal temperature (Lascar logger), with the tent
//! trace stepping downward as the authors fought the tent's surprising
//! ability to retain heat (reflective foil **R**, inner-tent removal **I**,
//! bottom-tarpaulin removal **B**, a desk fan **F**). This crate reproduces
//! that physics with lumped-capacitance (RC) models:
//!
//! * [`network`] — a small generic RC thermal-network solver with
//!   unconditionally stable exponential-Euler stepping;
//! * [`tent`] — the tent enclosure: fabric conductance, solar gain on the
//!   fabric (with/without foil), wind-driven ventilation through the modified
//!   openings, and the four documented modifications as config switches;
//! * [`basement`] — the control group's conditioned shelter (stable,
//!   office-type air, per §3.4);
//! * [`enclosure`] — the trait the experiment uses to treat tent, basement
//!   and the prototype's plastic boxes uniformly;
//! * [`bank`] — the in-chassis chain: enclosure air → case air → CPU and
//!   disks. This is what turns "−10 °C outside" into the paper's "CPU at
//!   −4 °C" reading. Every host's chassis, from the prototype's one PC to a
//!   10,000-host fleet, is a row of flat columns stepped with zero per-tick
//!   allocations by a closed-form kernel that reproduces the [`network`]
//!   solver bit for bit.
//!
//! All temperatures °C, powers W, conductances W/K, capacities J/K.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod basement;
pub mod enclosure;
pub mod network;
pub mod tent;

pub use bank::{CaseBank, ServerThermalParams};
pub use basement::Basement;
pub use enclosure::{Enclosure, EnclosureState, PlasticBoxes};
pub use network::RcNetwork;
pub use tent::{Tent, TentConfig, TentParams};
