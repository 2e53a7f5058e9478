//! # frostlab-hardware
//!
//! Component-level models of the 19 machines the study ran.
//!
//! The paper's §3.4 describes three form factors:
//!
//! * **Vendor A** — small-shop "cloned" desktops in medium towers, two hard
//!   drives in a Linux `md` software mirror (RAID1);
//! * **Vendor B** — mass-manufactured small-form-factor workstations, single
//!   drive, from a series *known to be unreliable* (bad airflow);
//! * **Vendor C** — 2U rack servers, five drives: a hardware mirror (2) plus
//!   a three-drive stripe set with parity (RAID5).
//!
//! What the experiment observes is component *phenomenology* — an lm-sensors
//! chip that reads −111 °C after deep cold and vanishes on re-detection
//! (§4.2.1), non-ECC DIMMs that flip a bit every ~570 million page
//! operations (§4.2.2), disks that keep passing their S.M.A.R.T. long tests,
//! power supplies that die. One model carries all of it:
//!
//! * [`server`] — vendor specs, the vendors and the run state;
//! * [`columns`] — every host's live hardware as flat struct-of-arrays
//!   columns ([`columns::HostBank`]): power state, the linear power model,
//!   PSU, sensor chip, memory exposure and drive health, from the
//!   prototype's one PC to a 10,000-host fleet;
//! * [`sensors`] — the sensor chip's states and its −111 °C reading;
//! * [`memory`] — bit-flip outcomes and the paper's flip rate;
//! * [`memtest`] — a Memtest86+-style tester with injectable DRAM defects
//!   (the indoor diagnosis that condemned host #15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
pub mod memory;
pub mod memtest;
pub mod sensors;
pub mod server;

pub use server::{ServerSpec, Vendor};
