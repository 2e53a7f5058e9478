//! # frostlab-hardware
//!
//! Component-level models of the 19 machines (and 3 switches) the study ran.
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
//! switches with a cosmetic whine that die identically whether or not they
//! ever saw the tent. Each of those behaviours is a state machine here:
//!
//! * [`sensors`] — the motherboard sensor chip and its cold-fault saga;
//! * [`memory`] — DIMMs with/without ECC and bit-flip accounting;
//! * [`disk`] + [`raid`] — block devices with S.M.A.R.T. state, and real
//!   block-level RAID1/RAID5 with reconstruction;
//! * [`memtest`] — a Memtest86+-style tester with injectable DRAM defects
//!   (the indoor diagnosis that condemned host #15);
//! * [`psu`] — the power supply, a supporting component with a health state;
//! * [`switch`] — the whiny 8-port switches;
//! * [`server`] — vendor specs and the assembled machine;
//! * [`columns`] — the same campaign-relevant state as flat
//!   struct-of-arrays columns ([`columns::HostBank`]) for fleet-scale
//!   bulk stepping, behavior-identical to the object model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
pub mod component;
pub mod disk;
pub mod memory;
pub mod memtest;
pub mod psu;
pub mod raid;
pub mod sensors;
pub mod server;
pub mod switch;

pub use component::ComponentHealth;
pub use server::{Server, ServerSpec, Vendor};
