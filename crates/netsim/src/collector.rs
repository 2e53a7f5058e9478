//! The monitoring host's 20-minute collection round, with catch-up retries.
//!
//! §3.5: "Some load is additionally generated by the monitoring host, which
//! recovers all calculated md5sums and data gathered from the local sensors
//! every 20 minutes. The transfer is done using public-key authentication
//! through an OpenSSH tunnel, and new files are transferred by the rsync
//! program."
//!
//! [`Collector`] mirrors each host's little log directory. A round against
//! one host: authenticate ([`crate::auth`]), then rsync every file that
//! grew since the last round and account the literal bytes that crossed
//! the wire. The hosts' logs are stamped and append-only, so what rsync
//! ships depends only on two lengths per file ([`log_delta`]). A host
//! therefore keeps one length per daily file, not the bytes, and the
//! collector's mirror of a file is just how much of it has been synced.
//!
//! When a host cannot be reached (§4.2.1's switch deaths, a hung machine)
//! the round records an [`CollectOutcome::Unreachable`] outcome carrying the
//! **gap duration** — how stale that host's mirror has become — and the
//! collector schedules a *catch-up retry* with exponential backoff and
//! deterministic jitter drawn from its own derived RNG stream (see
//! [`RetryPolicy`]). Retries are recorded with [`AttemptKind::Retry`] so the
//! scheduled 20-minute cadence accounting (availability, the paper's
//! numbers) is unaffected by how aggressively the collector chases a gap.
//! When contact resumes, the mirror resynchronizes in one round (rsync's
//! delta transfer ships everything missed) and the healed gap is logged as a
//! [`CollectionGap`].

use std::collections::BTreeMap;

use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};

use crate::auth::{handshake, Acceptor, HandshakeResult, KeyPair};

/// Block size used for rsync signatures.
pub const RSYNC_BLOCK: usize = 512;

/// The longest line a host may log, newline included: at most
/// `(RSYNC_BLOCK − 1) / 2` bytes, so that any `RSYNC_BLOCK − 1` bytes of a
/// log hold one whole line (the premise of [`log_delta`]).
pub const MAX_LINE: usize = (RSYNC_BLOCK - 1) / 2;

/// What one rsync round ships for a file that grew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogDelta {
    /// Literal bytes on the wire.
    pub literal_bytes: usize,
    /// Copy instructions: blocks the receiver already has.
    pub copies: usize,
}

/// The delta rsync ships when a log grows from `synced` to `len` bytes
/// (`len > synced`): one copy per full synced block, and every byte from
/// the last full-block boundary on as a literal.
///
/// This is what [`crate::rsyncp::sync`] of `log[..synced]` against
/// `log[..len]` yields, in literal bytes and copy count, when every line is
/// at most [`MAX_LINE`] bytes and starts with a stamp that occurs nowhere
/// else in the file. Then every piece the sender's scan compares past the
/// boundary holds a whole stamp, which no synced block can hold at the
/// same offset (DESIGN §4 gives the proof).
pub fn log_delta(synced: usize, len: usize) -> LogDelta {
    debug_assert!(len > synced, "a changed log grows");
    let copies = synced / RSYNC_BLOCK;
    LogDelta {
        literal_bytes: len - copies * RSYNC_BLOCK,
        copies,
    }
}

/// One daily log file: the bytes the host has logged to it, and how many
/// of them the collector has synced.
#[derive(Debug, Clone)]
struct LogFile {
    len: usize,
    synced: usize,
}

/// A monitored host's log store plus its SSH acceptor.
///
/// The store counts bytes: each file is its length and its synced length,
/// in a slot table indexed by name. The logs only grow, and
/// [`MonitoredHost::append`] is the only writer, so it also lists the
/// slots that grew since the last sync: a round visits those, not every
/// file the host has ever written.
#[derive(Debug, Clone)]
pub struct MonitoredHost {
    /// Paper host number.
    pub id: u32,
    slots: BTreeMap<String, usize>,
    files: Vec<LogFile>,
    /// Slots with `len != synced`, each once, in first-append order.
    grown: Vec<usize>,
    acceptor: Acceptor,
}

impl MonitoredHost {
    /// New host with an empty store; `authorized` is the collector's public
    /// key (its entry in `authorized_keys`).
    pub fn new(id: u32, rng: &mut Rng, authorized: Vec<u64>) -> Self {
        MonitoredHost {
            id,
            slots: BTreeMap::new(),
            files: Vec::new(),
            grown: Vec::new(),
            acceptor: Acceptor::new(rng, authorized),
        }
    }

    /// Append one line, ending in its only `\n` and at most [`MAX_LINE`]
    /// bytes long, to a log file (md5sum log, sensor log, …).
    pub fn append(&mut self, file: &str, line: &str) {
        debug_assert!(
            line.len() <= MAX_LINE && line.find('\n') == Some(line.len() - 1),
            "not one log line of at most {MAX_LINE} bytes: {line:?}"
        );
        // Look up before inserting: the common case is an existing file,
        // and `entry` would allocate a key String on every append.
        let slot = match self.slots.get(file) {
            Some(&slot) => slot,
            None => {
                let slot = self.files.len();
                self.files.push(LogFile { len: 0, synced: 0 });
                self.slots.insert(file.to_string(), slot);
                slot
            }
        };
        let log = &mut self.files[slot];
        if log.len == log.synced {
            self.grown.push(slot);
        }
        log.len += line.len();
    }

    /// Bytes logged to a file so far.
    pub fn log_len(&self, file: &str) -> Option<usize> {
        self.slots.get(file).map(|&slot| self.files[slot].len)
    }

    /// Bytes of a file the collector has synced: its mirror is the file's
    /// first `synced_len` bytes.
    pub fn synced_len(&self, file: &str) -> Option<usize> {
        self.slots.get(file).map(|&slot| self.files[slot].synced)
    }

    /// Sync every file that grew since the last sync: the number of files
    /// and the literal bytes rsync ships for them.
    fn sync_grown(&mut self) -> (usize, usize) {
        let files_updated = self.grown.len();
        let mut literal_bytes = 0usize;
        for slot in self.grown.drain(..) {
            let log = &mut self.files[slot];
            literal_bytes += log_delta(log.synced, log.len).literal_bytes;
            log.synced = log.len;
        }
        (files_updated, literal_bytes)
    }
}

/// Outcome of one collection attempt against one host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectOutcome {
    /// Round completed.
    Success {
        /// Files whose mirror changed.
        files_updated: usize,
        /// Literal bytes shipped by rsync (the real transfer volume).
        literal_bytes: usize,
    },
    /// Collection path down (switch failure, hung host): nothing transferred.
    Unreachable {
        /// How stale this host's mirror is — time since the last successful
        /// round (zero if the host has never been reached).
        gap: SimDuration,
    },
    /// Handshake rejected.
    AuthFailed(HandshakeResult),
}

/// Was an attempt part of the scheduled cadence or a backoff-driven retry?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptKind {
    /// The regular 20-minute round.
    Scheduled,
    /// A catch-up attempt scheduled by the retry policy.
    Retry,
}

/// A record of one attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectRecord {
    /// Host attempted.
    pub host: u32,
    /// When.
    pub at: SimTime,
    /// Scheduled round or catch-up retry.
    pub kind: AttemptKind,
    /// What happened.
    pub outcome: CollectOutcome,
}

/// A healed collection outage for one host: from the last good round before
/// the outage to the round that resynchronized the mirror.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionGap {
    /// Host affected.
    pub host: u32,
    /// Last successful contact before the outage (or the first attempt, if
    /// the host was never reached before).
    pub start: SimTime,
    /// The successful round that closed the gap.
    pub end: SimTime,
    /// Attempts (scheduled + retry) that failed inside the gap.
    pub failed_attempts: u32,
}

impl CollectionGap {
    /// Gap length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Exponential-backoff retry schedule for catch-up rounds.
///
/// After the n-th consecutive failure against a host the next retry is due
/// in `min(cap, base · 2ⁿ⁻¹)`, jittered by ±`jitter_frac` with draws from a
/// per-host RNG stream derived from the collector's seed — deterministic
/// across runs, decorrelated across hosts (no thundering herd when a switch
/// comes back).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// First-retry delay.
    pub base: SimDuration,
    /// Backoff ceiling (the paper's cadence: there is no point retrying
    /// less often than the scheduled round).
    pub cap: SimDuration,
    /// Jitter as a fraction of the delay (0.25 ⇒ ±25 %).
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::minutes(2),
            cap: SimDuration::minutes(20),
            jitter_frac: 0.25,
        }
    }
}

impl RetryPolicy {
    /// Raw (unjittered) delay after `failures` consecutive failures (≥ 1).
    pub fn delay(&self, failures: u32) -> SimDuration {
        let shift = failures.saturating_sub(1).min(16);
        let raw = self.base.as_secs().saturating_mul(1 << shift);
        SimDuration::secs(raw.min(self.cap.as_secs()))
    }
}

/// Per-host backoff bookkeeping while a gap is open.
#[derive(Debug)]
struct RetryState {
    /// Consecutive failed attempts.
    failures: u32,
    /// When the next catch-up attempt is due.
    next_attempt: SimTime,
    /// This host's jitter stream.
    rng: Rng,
}

/// The monitoring host.
#[derive(Debug)]
pub struct Collector {
    /// The collector's SSH identity.
    pub key: KeyPair,
    /// Collection cadence (paper: 20 minutes).
    pub interval: SimDuration,
    /// Catch-up retry schedule.
    pub retry: RetryPolicy,
    history: Vec<CollectRecord>,
    /// Root of the per-host jitter streams (derived, so creating it does not
    /// perturb the caller's RNG draws).
    retry_rng: Rng,
    retries: BTreeMap<u32, RetryState>,
    last_success: BTreeMap<u32, SimTime>,
    first_attempt: BTreeMap<u32, SimTime>,
    gaps: Vec<CollectionGap>,
}

impl Collector {
    /// New collector with its own keypair.
    pub fn new(rng: &mut Rng) -> Self {
        let retry_rng = rng.derive("retry");
        Collector {
            key: KeyPair::generate(rng),
            interval: SimDuration::minutes(20),
            retry: RetryPolicy::default(),
            history: Vec::new(),
            retry_rng,
            retries: BTreeMap::new(),
            last_success: BTreeMap::new(),
            first_attempt: BTreeMap::new(),
            gaps: Vec::new(),
        }
    }

    /// All attempts so far.
    pub fn history(&self) -> &[CollectRecord] {
        &self.history
    }

    /// Healed outages so far.
    pub fn gaps(&self) -> &[CollectionGap] {
        &self.gaps
    }

    /// The attempt history and the healed outages, moved out.
    pub fn into_history(self) -> (Vec<CollectRecord>, Vec<CollectionGap>) {
        (self.history, self.gaps)
    }

    /// How stale this host's mirror is. `None` until the first attempt.
    pub fn staleness(&self, host: u32, now: SimTime) -> Option<SimDuration> {
        let reference = self
            .last_success
            .get(&host)
            .or_else(|| self.first_attempt.get(&host))?;
        Some(now - *reference)
    }

    /// Last successful round against this host.
    pub fn last_success(&self, host: u32) -> Option<SimTime> {
        self.last_success.get(&host).copied()
    }

    /// When the next catch-up retry is due for this host (if a gap is open).
    pub fn next_retry(&self, host: u32) -> Option<SimTime> {
        self.retries.get(&host).map(|s| s.next_attempt)
    }

    /// Stop chasing a host (it was decommissioned / taken indoors). Drops
    /// any open retry state without recording a gap — the outage never
    /// heals, it just stops mattering.
    pub fn abandon(&mut self, host: u32) {
        self.retries.remove(&host);
    }

    /// Number of hosts with an open (still being chased) collection gap —
    /// the `collector.gaps_open` gauge in a traced campaign.
    pub fn open_retries(&self) -> usize {
        self.retries.len()
    }

    /// Hosts whose catch-up retry is due at `now`.
    pub fn due_retries(&self, now: SimTime) -> Vec<u32> {
        self.retries
            .iter()
            .filter(|(_, s)| s.next_attempt <= now)
            .map(|(&h, _)| h)
            .collect()
    }

    /// Attempt one *scheduled* collection round against `host`. `reachable`
    /// reflects the switch fabric's current state (decided by the
    /// orchestrator).
    pub fn collect(
        &mut self,
        host: &mut MonitoredHost,
        reachable: bool,
        at: SimTime,
    ) -> CollectOutcome {
        self.attempt(host, reachable, at, AttemptKind::Scheduled)
    }

    /// Attempt a backoff-driven catch-up round (see [`Collector::due_retries`]).
    pub fn retry_collect(
        &mut self,
        host: &mut MonitoredHost,
        reachable: bool,
        at: SimTime,
    ) -> CollectOutcome {
        self.attempt(host, reachable, at, AttemptKind::Retry)
    }

    fn attempt(
        &mut self,
        host: &mut MonitoredHost,
        reachable: bool,
        at: SimTime,
        kind: AttemptKind,
    ) -> CollectOutcome {
        self.first_attempt.entry(host.id).or_insert(at);
        let outcome = if !reachable {
            let gap = self.staleness(host.id, at).unwrap_or(SimDuration::ZERO);
            CollectOutcome::Unreachable { gap }
        } else {
            match handshake(&self.key, &mut host.acceptor) {
                HandshakeResult::Accepted => {
                    // rsync's quick check skips files whose size matches
                    // the mirror (the hosts' logs are append-only, so a
                    // same-size file is an unchanged file); the host's
                    // list of grown files is exactly the rest.
                    let (files_updated, literal_bytes) = host.sync_grown();
                    CollectOutcome::Success {
                        files_updated,
                        literal_bytes,
                    }
                }
                other => CollectOutcome::AuthFailed(other),
            }
        };
        match &outcome {
            CollectOutcome::Success { .. } => {
                if let Some(state) = self.retries.remove(&host.id) {
                    let start = self
                        .last_success
                        .get(&host.id)
                        .or_else(|| self.first_attempt.get(&host.id))
                        .copied()
                        .unwrap_or(at);
                    self.gaps.push(CollectionGap {
                        host: host.id,
                        start,
                        end: at,
                        failed_attempts: state.failures,
                    });
                }
                self.last_success.insert(host.id, at);
            }
            CollectOutcome::Unreachable { .. } | CollectOutcome::AuthFailed(_) => {
                let retry_root = &self.retry_rng;
                let state = self.retries.entry(host.id).or_insert_with(|| RetryState {
                    failures: 0,
                    next_attempt: at,
                    rng: retry_root.derive(&format!("host/{}", host.id)),
                });
                state.failures += 1;
                let delay = self.retry.delay(state.failures).as_secs();
                let span = (delay as f64 * self.retry.jitter_frac) as i64;
                let jitter = if span > 0 {
                    state.rng.range_i64(-span, span + 1)
                } else {
                    0
                };
                state.next_attempt = at + SimDuration::secs((delay + jitter).max(1));
            }
        }
        self.history.push(CollectRecord {
            host: host.id,
            at,
            kind,
            outcome: outcome.clone(),
        });
        outcome
    }

    /// Fraction of *scheduled* attempts that succeeded (collection
    /// availability). Catch-up retries are excluded so availability measures
    /// the paper's 20-minute cadence, not the retry policy's persistence.
    pub fn availability(&self) -> f64 {
        let scheduled = self
            .history
            .iter()
            .filter(|r| r.kind == AttemptKind::Scheduled);
        let (mut ok, mut total) = (0usize, 0usize);
        for r in scheduled {
            total += 1;
            if matches!(r.outcome, CollectOutcome::Success { .. }) {
                ok += 1;
            }
        }
        if total == 0 {
            return 1.0;
        }
        ok as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Collector, MonitoredHost) {
        let mut rng = Rng::new(20);
        let collector = Collector::new(&mut rng);
        let host = MonitoredHost::new(15, &mut rng, vec![collector.key.public]);
        (collector, host)
    }

    /// A stamped md5sums line, as the campaign hosts log them.
    fn md5_line(i: u32) -> String {
        format!(
            "2010-03-07 {:02}:{:02}:00 {:032x} run\n",
            i / 60,
            i % 60,
            31 * i
        )
    }

    #[test]
    fn first_round_ships_everything() {
        // A single sub-block line, and a 200-line log spanning many blocks.
        for lines in [1, 200] {
            let (mut c, mut h) = setup();
            let len: usize = (0..lines)
                .map(|i| {
                    let line = md5_line(i);
                    h.append("md5sums.log", &line);
                    line.len()
                })
                .sum();
            assert!(lines == 1 || len > 16 * RSYNC_BLOCK);
            let out = c.collect(&mut h, true, SimTime::from_secs(1200));
            match out {
                CollectOutcome::Success {
                    files_updated,
                    literal_bytes,
                } => {
                    assert_eq!(files_updated, 1);
                    assert_eq!(literal_bytes, len);
                }
                other => panic!("{other:?}"),
            }
            assert_eq!(h.synced_len("md5sums.log"), Some(len));
            assert_eq!(h.log_len("md5sums.log"), Some(len));
        }
    }

    #[test]
    fn unchanged_files_cost_nothing() {
        let (mut c, mut h) = setup();
        for _ in 0..50 {
            h.append("sensors.log", "temp=-4.0 rh=35\n");
        }
        c.collect(&mut h, true, SimTime::from_secs(1200));
        let out = c.collect(&mut h, true, SimTime::from_secs(2400));
        assert_eq!(
            out,
            CollectOutcome::Success {
                files_updated: 0,
                literal_bytes: 0
            }
        );
    }

    #[test]
    fn appended_lines_ship_small_deltas() {
        let (mut c, mut h) = setup();
        for i in 0..100 {
            h.append("md5sums.log", &md5_line(i));
        }
        let old = h.log_len("md5sums.log").unwrap();
        assert!(old > 4096);
        c.collect(&mut h, true, SimTime::from_secs(1200));
        h.append("md5sums.log", &md5_line(100));
        let out = c.collect(&mut h, true, SimTime::from_secs(2400));
        match out {
            CollectOutcome::Success { literal_bytes, .. } => {
                assert!(
                    literal_bytes <= 2 * RSYNC_BLOCK,
                    "append should be cheap, shipped {literal_bytes}"
                );
                // From the last full synced block on, and nothing before.
                let new = h.log_len("md5sums.log").unwrap();
                assert_eq!(literal_bytes, new - old / RSYNC_BLOCK * RSYNC_BLOCK);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn log_delta_copies_every_full_synced_block() {
        let d = |synced, len| {
            let d = log_delta(synced, len);
            (d.literal_bytes, d.copies)
        };
        assert_eq!(d(0, 40), (40, 0));
        assert_eq!(d(511, 600), (600, 0));
        assert_eq!(d(512, 600), (88, 1));
        assert_eq!(d(1100, 1150), (126, 2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not one log line")]
    fn append_rejects_a_line_longer_than_max_line() {
        let (_, mut h) = setup();
        h.append("md5sums.log", &format!("{}\n", "x".repeat(MAX_LINE)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not one log line")]
    fn append_rejects_two_lines_at_once() {
        let (_, mut h) = setup();
        h.append("md5sums.log", "one\ntwo\n");
    }

    #[test]
    fn unreachable_leaves_mirror_stale_and_reports_gap() {
        let (mut c, mut h) = setup();
        h.append("md5sums.log", "before-failure\n");
        c.collect(&mut h, true, SimTime::from_secs(1200));
        h.append("md5sums.log", "during-switch-outage\n");
        let out = c.collect(&mut h, false, SimTime::from_secs(2400));
        assert_eq!(
            out,
            CollectOutcome::Unreachable {
                gap: SimDuration::secs(1200)
            },
            "gap measured from the last good round"
        );
        assert_eq!(h.synced_len("md5sums.log"), Some("before-failure\n".len()));
        assert_eq!(
            c.staleness(15, SimTime::from_secs(3000)),
            Some(SimDuration::secs(1800))
        );
        // Once the path recovers, the round catches up.
        let out = c.collect(&mut h, true, SimTime::from_secs(3600));
        assert!(matches!(
            out,
            CollectOutcome::Success {
                files_updated: 1,
                ..
            }
        ));
        assert_eq!(
            h.synced_len("md5sums.log"),
            Some("before-failure\nduring-switch-outage\n".len())
        );
        // …and the healed outage is on the books.
        assert_eq!(c.gaps().len(), 1);
        let gap = &c.gaps()[0];
        assert_eq!(gap.host, 15);
        assert_eq!(gap.start, SimTime::from_secs(1200));
        assert_eq!(gap.end, SimTime::from_secs(3600));
        assert_eq!(gap.failed_attempts, 1);
        assert_eq!(gap.duration(), SimDuration::secs(2400));
    }

    #[test]
    fn retries_back_off_exponentially_with_jitter() {
        let (mut c, mut h) = setup();
        h.append("f", "x\n");
        let mut at = SimTime::from_secs(0);
        let mut delays = Vec::new();
        for _ in 0..6 {
            c.collect(&mut h, false, at);
            let next = c.next_retry(15).expect("retry scheduled");
            delays.push((next - at).as_secs());
            at = next;
        }
        // Nominal schedule 120/240/480/960/1200/1200 s, each jittered ±25 %.
        let nominal = [120i64, 240, 480, 960, 1200, 1200];
        for (i, (&d, &n)) in delays.iter().zip(nominal.iter()).enumerate() {
            let lo = n - n / 4;
            let hi = n + n / 4;
            assert!(
                (lo..=hi).contains(&d),
                "retry {i}: delay {d}s outside [{lo}, {hi}]"
            );
        }
        // Jitter must actually perturb at least one delay off the nominal.
        assert!(
            delays.iter().zip(nominal.iter()).any(|(&d, &n)| d != n),
            "jitter never fired: {delays:?}"
        );
    }

    #[test]
    fn retry_jitter_is_deterministic_and_per_host() {
        let run = || {
            let (mut c, mut h) = setup();
            let mut h2 = {
                let mut rng = Rng::new(33);
                MonitoredHost::new(3, &mut rng, vec![c.key.public])
            };
            c.collect(&mut h, false, SimTime::from_secs(0));
            c.collect(&mut h2, false, SimTime::from_secs(0));
            (c.next_retry(15).unwrap(), c.next_retry(3).unwrap())
        };
        let (a15, a3) = run();
        let (b15, b3) = run();
        assert_eq!(a15, b15, "same seed ⇒ same schedule");
        assert_eq!(a3, b3);
        assert_ne!(a15, a3, "hosts draw from decorrelated jitter streams");
    }

    #[test]
    fn successful_retry_clears_backoff_state() {
        let (mut c, mut h) = setup();
        h.append("f", "x\n");
        c.collect(&mut h, false, SimTime::from_secs(0));
        assert_eq!(c.due_retries(SimTime::from_secs(600)), vec![15]);
        let out = c.retry_collect(&mut h, true, SimTime::from_secs(600));
        assert!(matches!(out, CollectOutcome::Success { .. }));
        assert!(c.next_retry(15).is_none(), "state cleared after recovery");
        assert!(c.due_retries(SimTime::from_secs(9999)).is_empty());
        assert_eq!(c.last_success(15), Some(SimTime::from_secs(600)));
        // The retry record is marked as such.
        let last = c.history().last().unwrap();
        assert_eq!(last.kind, AttemptKind::Retry);
    }

    #[test]
    fn unauthorized_collector_rejected() {
        let mut rng = Rng::new(21);
        let mut c = Collector::new(&mut rng);
        // Host authorizes some other key.
        let mut h = MonitoredHost::new(3, &mut rng, vec![12345]);
        h.append("f", "data\n");
        let out = c.collect(&mut h, true, SimTime::from_secs(0));
        assert_eq!(out, CollectOutcome::AuthFailed(HandshakeResult::UnknownKey));
        assert_eq!(h.synced_len("f"), Some(0), "nothing synced");
        // Auth failures also enter the retry schedule (the operators would
        // investigate, but the collector keeps knocking).
        assert!(c.next_retry(3).is_some());
    }

    #[test]
    fn availability_counts_scheduled_rounds_only() {
        let (mut c, mut h) = setup();
        h.append("f", "x\n");
        c.collect(&mut h, true, SimTime::from_secs(0));
        c.collect(&mut h, false, SimTime::from_secs(1200));
        // A failed catch-up retry must not dilute cadence availability.
        c.retry_collect(&mut h, false, SimTime::from_secs(1320));
        c.collect(&mut h, false, SimTime::from_secs(2400));
        c.collect(&mut h, true, SimTime::from_secs(3600));
        assert!((c.availability() - 0.5).abs() < 1e-12);
        assert_eq!(c.history().len(), 5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn grown_list_equals_a_full_scan(
            rounds in proptest::collection::vec(
                (
                    0u8..4,
                    proptest::collection::vec((0usize..2, 0u32..3, 1usize..MAX_LINE + 1), 0..6),
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<bool>(),
                    1i64..1800,
                ),
                1..48,
            ),
        ) {
            // A host appends lines to today's two daily files (and now and
            // then to an earlier day's), the day rolls over now and then,
            // and rounds are scheduled or catch-up retries, reachable or
            // not. Every round must ship what rsync's quick check over
            // every file finds: the oracle below keeps each file's two
            // lengths and scans them all.
            let (mut c, mut h) = setup();
            let mut oracle: BTreeMap<String, (usize, usize)> = BTreeMap::new();
            let (mut day, mut t) = (0u32, SimTime::from_secs(0));
            for (roll, appends, reachable, retry, dt) in rounds {
                if roll == 0 {
                    day += 1;
                }
                for (kind, days_back, len) in appends {
                    let name = ["sensors", "md5sums"][kind];
                    let file = format!("{name}-{}.log", day.saturating_sub(days_back));
                    let line = format!("{}\n", "x".repeat(len - 1));
                    h.append(&file, &line);
                    oracle.entry(file).or_default().0 += len;
                }
                t += SimDuration::secs(dt);
                let out = if retry {
                    c.retry_collect(&mut h, reachable, t)
                } else {
                    c.collect(&mut h, reachable, t)
                };
                if reachable {
                    let (mut files_updated, mut literal_bytes) = (0, 0);
                    for (len, synced) in oracle.values_mut().filter(|(len, synced)| synced != len) {
                        literal_bytes += log_delta(*synced, *len).literal_bytes;
                        *synced = *len;
                        files_updated += 1;
                    }
                    proptest::prop_assert_eq!(
                        out,
                        CollectOutcome::Success { files_updated, literal_bytes }
                    );
                } else {
                    let unreachable = matches!(out, CollectOutcome::Unreachable { .. });
                    proptest::prop_assert!(unreachable, "{:?}", out);
                }
                for (file, &(len, synced)) in &oracle {
                    proptest::prop_assert_eq!(h.log_len(file), Some(len));
                    proptest::prop_assert_eq!(h.synced_len(file), Some(synced));
                }
            }
        }
    }

    #[test]
    fn multiple_files_and_hosts() {
        let mut rng = Rng::new(22);
        let mut c = Collector::new(&mut rng);
        let mut h1 = MonitoredHost::new(1, &mut rng, vec![c.key.public]);
        let mut h2 = MonitoredHost::new(2, &mut rng, vec![c.key.public]);
        h1.append("md5sums.log", "aaa\n");
        h1.append("sensors.log", "t=-5\n");
        h2.append("md5sums.log", "bbbb\n");
        c.collect(&mut h1, true, SimTime::from_secs(0));
        c.collect(&mut h2, true, SimTime::from_secs(0));
        assert_eq!(h1.synced_len("md5sums.log"), Some(4));
        assert_eq!(h1.synced_len("sensors.log"), Some(5));
        assert_eq!(h2.synced_len("md5sums.log"), Some(5));
        assert_eq!(h2.synced_len("sensors.log"), None);
    }
}
