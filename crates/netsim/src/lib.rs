//! # frostlab-netsim
//!
//! The monitoring host's collection pipeline.
//!
//! §3.5: a monitoring host recovers all md5sums and sensor data every 20
//! minutes over an OpenSSH tunnel with public-key authentication, new files
//! transferred by rsync; §4.2.1: connectivity ran through two 8-port
//! switches from a whiny, defective batch, both of which died mid-campaign.
//! Campaigns are tick-driven: each collection tick asks the campaign
//! whether a host is reachable (running, and its switch up), then runs one
//! round of this pipeline against it:
//!
//! * [`rsyncp`] — the actual rsync algorithm: rolling weak checksum + MD5
//!   strong checksum signatures, delta computation and application, and
//!   `AppendSync`, the receiver's block index over an append-only log;
//! * [`auth`] — a toy Diffie–Hellman-flavoured handshake modelling the
//!   OpenSSH public-key session setup (NOT cryptography; a protocol-flow
//!   model, clearly labelled);
//! * [`collector`] — the 20-minute collection round: authenticate, exchange
//!   signatures, ship deltas, mirror the fleet's logs (each mirror is the
//!   synced prefix of the host's own log).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod collector;
pub mod rsyncp;
