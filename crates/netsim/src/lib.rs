//! # frostlab-netsim
//!
//! The monitoring host's collection pipeline.
//!
//! §3.5: a monitoring host recovers all md5sums and sensor data every 20
//! minutes over an OpenSSH tunnel with public-key authentication, new files
//! transferred by rsync; §4.2.1: connectivity ran through two 8-port
//! switches from a whiny, defective batch, both of which died mid-campaign.
//! A session is modelled by its outcome: every host accepts the collector's
//! key, so reachability alone decides whether a round syncs.
//! Campaigns are tick-driven: each collection tick asks the campaign
//! whether a host is reachable (running, and its switch up), then runs one
//! round of this pipeline against it:
//!
//! * [`rsyncp`] — the actual rsync algorithm: rolling weak checksum + MD5
//!   strong checksum signatures, delta computation and application. It is
//!   the reference the collector's closed form is tested against;
//! * [`collector`] — the 20-minute collection round: account what rsync
//!   ships for each grown log of a reachable host. The logs are stamped and
//!   append-only, so a round's transfer follows from two lengths per file
//!   ([`collector::log_delta`]). A host keeps a fixed-size record, not the
//!   bytes: today's two counts for each of its two daily logs, the running
//!   sums for files rotated out unsynced, and when its mirror was last
//!   fresh. The collector keeps running counts of its attempts, not a
//!   record of each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod rsyncp;
