//! The monitoring host's 20-minute collection round, with catch-up retries.
//!
//! §3.5: "Some load is additionally generated by the monitoring host, which
//! recovers all calculated md5sums and data gathered from the local sensors
//! every 20 minutes. The transfer is done using public-key authentication
//! through an OpenSSH tunnel, and new files are transferred by the rsync
//! program."
//!
//! [`Collector`] mirrors each host's little log directory. A session is
//! modelled by its outcome: every host accepts the collector's key, so a
//! round against a reachable host rsyncs every file that grew since the
//! last round and accounts the literal bytes that crossed the wire. The
//! hosts' logs are stamped and append-only, so what rsync ships depends
//! only on two lengths per file ([`log_delta`]). A host therefore keeps
//! today's length and synced length of each of its two daily [`Log`]s, not
//! the bytes, and the collector's mirror of a file is just how much of it
//! has been synced.
//!
//! When a host cannot be reached (§4.2.1's switch deaths, a hung machine)
//! the round records an [`CollectOutcome::Unreachable`] outcome carrying the
//! **gap duration** — how stale that host's mirror has become — and the
//! collector schedules a *catch-up retry* with exponential backoff and
//! deterministic jitter drawn from its own derived RNG stream (2 minutes
//! doubling to a 20-minute cap, each delay ±25 %). Retries are recorded
//! with [`AttemptKind::Retry`] so the scheduled 20-minute cadence
//! accounting (availability, the paper's numbers) is unaffected by how
//! aggressively the collector chases a gap.
//! When contact resumes, the mirror resynchronizes in one round (rsync's
//! delta transfer ships everything missed) and the healed gap is logged as a
//! [`CollectionGap`].
//!
//! The collector keeps a ledger, not a history: running
//! [`CollectionCounts`] over every attempt, the current tick's
//! [`CollectRecord`]s (cleared by [`Collector::clear_tick`]) and the healed
//! gaps, which grow with outages rather than with campaign days.

use std::collections::BTreeMap;

use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};

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

/// The length of `line`, which must be one log line: at most [`MAX_LINE`]
/// bytes, ending in its only `\n`.
///
/// # Panics
/// Panics if `line` is not one such line.
pub fn log_line_len(line: &str) -> usize {
    assert!(
        line.len() <= MAX_LINE && line.find('\n') == Some(line.len() - 1),
        "not one log line of at most {MAX_LINE} bytes: {line:?}"
    );
    line.len()
}

/// The two logs every host rotates daily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Log {
    /// The sensor log (`sensors-MMDD.log`).
    Sensors,
    /// The workload's md5sum log (`md5sums-MMDD.log`).
    Md5sums,
}

/// One day's file of a log: the bytes the host has logged to it, and how
/// many of them the collector has synced.
#[derive(Debug, Clone, Copy)]
struct DailyFile {
    /// Days since the epoch of the file's date.
    day: i64,
    len: usize,
    synced: usize,
}

/// A monitored host's log store.
///
/// The store counts bytes, and only of today's file of each [`Log`]: a
/// file never grows once its day is over, so what rsync will ship for a
/// file rotated out unsynced is fixed when it rotates, and the store adds
/// it to a running count. The record is the same size on day one and on
/// day 366.
#[derive(Debug, Clone)]
pub struct MonitoredHost {
    /// Paper host number.
    pub id: u32,
    /// Today's file of each log, indexed by [`Log`].
    today: [Option<DailyFile>; 2],
    /// Files rotated out with unsynced bytes since the last sync, and the
    /// literal bytes rsync will ship for them.
    rotated: (usize, usize),
    /// The last successful round, or the first attempt if none succeeded
    /// yet: the mirror is as fresh as this.
    fresh_since: Option<SimTime>,
}

impl MonitoredHost {
    /// New host with an empty store.
    pub fn new(id: u32) -> Self {
        MonitoredHost {
            id,
            today: [None; 2],
            rotated: (0, 0),
            fresh_since: None,
        }
    }

    /// Append one line of `len` bytes, newline included (see
    /// [`log_line_len`]), to the file of `log` dated `day` (days since the
    /// epoch, `t.date().days_since_epoch()`). A new day rotates the log.
    pub fn append(&mut self, log: Log, day: i64, len: usize) {
        debug_assert!(
            (1..=MAX_LINE).contains(&len),
            "not one log line of at most {MAX_LINE} bytes: {len} bytes"
        );
        let file = &mut self.today[log as usize];
        match file {
            Some(f) if f.day == day => f.len += len,
            _ => {
                debug_assert!(file.is_none_or(|old| day > old.day), "logs rotate forward");
                if let Some(old) = file.filter(|old| old.len != old.synced) {
                    self.rotated.0 += 1;
                    self.rotated.1 += log_delta(old.synced, old.len).literal_bytes;
                }
                *file = Some(DailyFile {
                    day,
                    len,
                    synced: 0,
                });
            }
        }
    }

    /// Bytes logged to the file of `log` dated `day`, while it is today's.
    pub fn log_len(&self, log: Log, day: i64) -> Option<usize> {
        self.today[log as usize]
            .filter(|f| f.day == day)
            .map(|f| f.len)
    }

    /// How stale this host's mirror is. `None` until the first attempt.
    pub fn staleness(&self, now: SimTime) -> Option<SimDuration> {
        self.fresh_since.map(|since| now - since)
    }

    /// Sync every file that grew since the last sync: the number of files
    /// and the literal bytes rsync ships for them.
    fn sync(&mut self) -> (usize, usize) {
        let (mut files_updated, mut literal_bytes) = std::mem::take(&mut self.rotated);
        for f in self.today.iter_mut().flatten() {
            if f.len != f.synced {
                files_updated += 1;
                literal_bytes += log_delta(f.synced, f.len).literal_bytes;
                f.synced = f.len;
            }
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

/// Running totals over every collection attempt of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionCounts {
    /// Scheduled 20-minute rounds attempted.
    pub scheduled: u64,
    /// Scheduled rounds that succeeded.
    pub scheduled_ok: u64,
    /// Catch-up retries attempted.
    pub retries: u64,
    /// Attempts, of either kind, that found the host unreachable.
    pub unreachable: u64,
    /// Files updated by successful attempts.
    pub files: u64,
    /// Literal bytes shipped by successful attempts.
    pub literal_bytes: u64,
}

impl CollectionCounts {
    fn record(&mut self, kind: AttemptKind, outcome: &CollectOutcome) {
        match kind {
            AttemptKind::Scheduled => self.scheduled += 1,
            AttemptKind::Retry => self.retries += 1,
        }
        match outcome {
            CollectOutcome::Success {
                files_updated,
                literal_bytes,
            } => {
                if kind == AttemptKind::Scheduled {
                    self.scheduled_ok += 1;
                }
                self.files += *files_updated as u64;
                self.literal_bytes += *literal_bytes as u64;
            }
            CollectOutcome::Unreachable { .. } => self.unreachable += 1,
        }
    }

    /// Fraction of *scheduled* attempts that succeeded (collection
    /// availability); 1 before any was made. Catch-up retries are excluded
    /// so availability measures the paper's 20-minute cadence, not the
    /// retry policy's persistence.
    pub fn availability(&self) -> f64 {
        if self.scheduled == 0 {
            return 1.0;
        }
        self.scheduled_ok as f64 / self.scheduled as f64
    }
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

/// First catch-up retry delay.
const RETRY_BASE: SimDuration = SimDuration::minutes(2);
/// Backoff ceiling (the paper's cadence: there is no point retrying less
/// often than the scheduled round).
const RETRY_CAP: SimDuration = SimDuration::minutes(20);
/// Retry jitter as a fraction of the delay (±25 %).
const RETRY_JITTER_FRAC: f64 = 0.25;

/// Raw (unjittered) catch-up delay after `failures` consecutive failures
/// (≥ 1): `min(RETRY_CAP, RETRY_BASE · 2ⁿ⁻¹)`. Each delay is jittered by
/// ±`RETRY_JITTER_FRAC` with draws from a per-host RNG stream derived from
/// the collector's seed — deterministic across runs, decorrelated across
/// hosts (no thundering herd when a switch comes back).
fn retry_delay(failures: u32) -> SimDuration {
    let shift = failures.saturating_sub(1).min(16);
    let raw = RETRY_BASE.as_secs().saturating_mul(1 << shift);
    SimDuration::secs(raw.min(RETRY_CAP.as_secs()))
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
    counts: CollectionCounts,
    /// Attempts since the last [`Collector::clear_tick`].
    tick: Vec<CollectRecord>,
    /// Root of the per-host jitter streams.
    retry_rng: Rng,
    retries: BTreeMap<u32, RetryState>,
    gaps: Vec<CollectionGap>,
}

impl Collector {
    /// New collector; its retry jitter streams derive from `rng`'s identity.
    pub fn new(rng: &Rng) -> Self {
        Collector {
            counts: CollectionCounts::default(),
            tick: Vec::new(),
            retry_rng: rng.derive("retry"),
            retries: BTreeMap::new(),
            gaps: Vec::new(),
        }
    }

    /// The attempts made since the last [`Collector::clear_tick`], in order.
    pub fn tick_records(&self) -> &[CollectRecord] {
        &self.tick
    }

    /// Forget the previous tick's attempt records; the counts keep them.
    pub fn clear_tick(&mut self) {
        self.tick.clear();
    }

    /// Healed outages so far.
    pub fn gaps(&self) -> &[CollectionGap] {
        &self.gaps
    }

    /// The running totals and the healed outages, moved out.
    pub fn into_ledger(self) -> (CollectionCounts, Vec<CollectionGap>) {
        (self.counts, self.gaps)
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
        let fresh_since = *host.fresh_since.get_or_insert(at);
        let outcome = if reachable {
            if let Some(state) = self.retries.remove(&host.id) {
                self.gaps.push(CollectionGap {
                    host: host.id,
                    start: fresh_since,
                    end: at,
                    failed_attempts: state.failures,
                });
            }
            host.fresh_since = Some(at);
            // rsync's quick check skips files whose size matches the mirror
            // (the hosts' logs are append-only, so a same-size file is an
            // unchanged file); the host's store ships exactly the rest.
            let (files_updated, literal_bytes) = host.sync();
            CollectOutcome::Success {
                files_updated,
                literal_bytes,
            }
        } else {
            let retry_root = &self.retry_rng;
            let state = self.retries.entry(host.id).or_insert_with(|| RetryState {
                failures: 0,
                next_attempt: at,
                rng: retry_root.derive(&format!("host/{}", host.id)),
            });
            state.failures += 1;
            let delay = retry_delay(state.failures).as_secs();
            let span = (delay as f64 * RETRY_JITTER_FRAC) as i64;
            let jitter = if span > 0 {
                state.rng.range_i64(-span, span + 1)
            } else {
                0
            };
            state.next_attempt = at + SimDuration::secs((delay + jitter).max(1));
            CollectOutcome::Unreachable {
                gap: at - fresh_since,
            }
        };
        self.counts.record(kind, &outcome);
        self.tick.push(CollectRecord {
            host: host.id,
            at,
            kind,
            outcome: outcome.clone(),
        });
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes of the file of `log` dated `day` the collector has synced,
    /// while it is today's: its mirror is the file's first `synced_len`
    /// bytes.
    fn synced_len(h: &MonitoredHost, log: Log, day: i64) -> Option<usize> {
        h.today[log as usize]
            .filter(|f| f.day == day)
            .map(|f| f.synced)
    }

    /// When the next catch-up retry is due for `host` (if a gap is open).
    fn next_retry(c: &Collector, host: u32) -> Option<SimTime> {
        c.retries.get(&host).map(|s| s.next_attempt)
    }

    fn setup() -> (Collector, MonitoredHost) {
        (Collector::new(&Rng::new(20)), MonitoredHost::new(15))
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
                    h.append(Log::Md5sums, 0, log_line_len(&line));
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
            assert_eq!(synced_len(&h, Log::Md5sums, 0), Some(len));
            assert_eq!(h.log_len(Log::Md5sums, 0), Some(len));
        }
    }

    #[test]
    fn unchanged_files_cost_nothing() {
        let (mut c, mut h) = setup();
        for _ in 0..50 {
            h.append(Log::Sensors, 0, log_line_len("temp=-4.0 rh=35\n"));
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
            h.append(Log::Md5sums, 0, log_line_len(&md5_line(i)));
        }
        let old = h.log_len(Log::Md5sums, 0).unwrap();
        assert!(old > 4096);
        c.collect(&mut h, true, SimTime::from_secs(1200));
        h.append(Log::Md5sums, 0, log_line_len(&md5_line(100)));
        let out = c.collect(&mut h, true, SimTime::from_secs(2400));
        match out {
            CollectOutcome::Success { literal_bytes, .. } => {
                assert!(
                    literal_bytes <= 2 * RSYNC_BLOCK,
                    "append should be cheap, shipped {literal_bytes}"
                );
                // From the last full synced block on, and nothing before.
                let new = h.log_len(Log::Md5sums, 0).unwrap();
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
        h.append(Log::Md5sums, 0, MAX_LINE + 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not one log line")]
    fn append_rejects_two_lines_at_once() {
        let (_, mut h) = setup();
        h.append(Log::Md5sums, 0, log_line_len("one\ntwo\n"));
    }

    #[test]
    fn unreachable_leaves_mirror_stale_and_reports_gap() {
        let (mut c, mut h) = setup();
        h.append(Log::Md5sums, 0, log_line_len("before-failure\n"));
        c.collect(&mut h, true, SimTime::from_secs(1200));
        h.append(Log::Md5sums, 0, log_line_len("during-switch-outage\n"));
        let out = c.collect(&mut h, false, SimTime::from_secs(2400));
        assert_eq!(
            out,
            CollectOutcome::Unreachable {
                gap: SimDuration::secs(1200)
            },
            "gap measured from the last good round"
        );
        assert_eq!(
            synced_len(&h, Log::Md5sums, 0),
            Some("before-failure\n".len())
        );
        assert_eq!(
            h.staleness(SimTime::from_secs(3000)),
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
            synced_len(&h, Log::Md5sums, 0),
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
        h.append(Log::Md5sums, 0, log_line_len("x\n"));
        let mut at = SimTime::from_secs(0);
        let mut delays = Vec::new();
        for _ in 0..6 {
            c.collect(&mut h, false, at);
            let next = next_retry(&c, 15).expect("retry scheduled");
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
            let mut h2 = MonitoredHost::new(3);
            c.collect(&mut h, false, SimTime::from_secs(0));
            c.collect(&mut h2, false, SimTime::from_secs(0));
            (next_retry(&c, 15).unwrap(), next_retry(&c, 3).unwrap())
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
        h.append(Log::Md5sums, 0, log_line_len("x\n"));
        c.collect(&mut h, false, SimTime::from_secs(0));
        assert_eq!(c.due_retries(SimTime::from_secs(600)), vec![15]);
        let out = c.retry_collect(&mut h, true, SimTime::from_secs(600));
        assert!(matches!(out, CollectOutcome::Success { .. }));
        assert!(next_retry(&c, 15).is_none(), "state cleared after recovery");
        assert!(c.due_retries(SimTime::from_secs(9999)).is_empty());
        assert_eq!(
            h.staleness(SimTime::from_secs(900)),
            Some(SimDuration::secs(300)),
            "fresh from the successful retry"
        );
        // The retry record is marked as such.
        let last = c.tick_records().last().unwrap();
        assert_eq!(last.kind, AttemptKind::Retry);
    }

    #[test]
    fn availability_counts_scheduled_rounds_only() {
        let (mut c, mut h) = setup();
        h.append(Log::Md5sums, 0, log_line_len("x\n"));
        c.collect(&mut h, true, SimTime::from_secs(0));
        c.collect(&mut h, false, SimTime::from_secs(1200));
        // A failed catch-up retry must not dilute cadence availability.
        c.retry_collect(&mut h, false, SimTime::from_secs(1320));
        c.collect(&mut h, false, SimTime::from_secs(2400));
        c.collect(&mut h, true, SimTime::from_secs(3600));
        let counts = c.counts;
        assert!((counts.availability() - 0.5).abs() < 1e-12);
        assert_eq!((counts.scheduled, counts.scheduled_ok), (4, 2));
        assert_eq!((counts.retries, counts.unreachable), (1, 3));
        assert_eq!(c.tick_records().len(), 5);
        // A new tick forgets the records; the counts keep them.
        c.clear_tick();
        assert!(c.tick_records().is_empty());
        assert_eq!(c.counts, counts);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "logs rotate forward")]
    fn append_rejects_an_earlier_day() {
        let (_, mut h) = setup();
        h.append(Log::Md5sums, 5, log_line_len("today\n"));
        h.append(Log::Md5sums, 4, log_line_len("yesterday\n"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn store_equals_a_full_scan(
            rounds in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::collection::vec((0usize..2, 1usize..MAX_LINE + 1), 0..6),
                    proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<bool>(),
                    1i64..1800,
                ),
                1..48,
            ),
        ) {
            // A host appends lines to today's two daily files, the day
            // rolls over now and then (also while the host is unreachable,
            // so one round can ship several rotated-out files), and rounds
            // are scheduled or catch-up retries, reachable or not. Every
            // round must ship what rsync's quick check over every file
            // finds: the oracle below keeps every file's two lengths,
            // keyed by (day, log), and scans them all. The collector's
            // running counts must add up every round the same way.
            let (mut c, mut h) = setup();
            let mut oracle: BTreeMap<(i64, usize), (usize, usize)> = BTreeMap::new();
            let (mut day, mut t) = (0i64, SimTime::from_secs(0));
            let mut want = CollectionCounts::default();
            for (roll, appends, reachable, retry, dt) in rounds {
                if roll == 0 {
                    day += 1;
                }
                for (kind, len) in appends {
                    let log = [Log::Sensors, Log::Md5sums][kind];
                    h.append(log, day, len);
                    oracle.entry((day, kind)).or_default().0 += len;
                }
                t += SimDuration::secs(dt);
                let out = if retry {
                    want.retries += 1;
                    c.retry_collect(&mut h, reachable, t)
                } else {
                    want.scheduled += 1;
                    want.scheduled_ok += u64::from(reachable);
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
                    want.files += files_updated as u64;
                    want.literal_bytes += literal_bytes as u64;
                } else {
                    let unreachable = matches!(out, CollectOutcome::Unreachable { .. });
                    proptest::prop_assert!(unreachable, "{:?}", out);
                    want.unreachable += 1;
                }
                proptest::prop_assert_eq!(c.counts, want);
                // The store reports each log's latest file, and no
                // earlier day's.
                for (&(file_day, kind), &(len, synced)) in &oracle {
                    let log = [Log::Sensors, Log::Md5sums][kind];
                    let latest = oracle.keys().filter(|k| k.1 == kind).map(|k| k.0).max();
                    let want = (Some(file_day) == latest).then_some((len, synced));
                    let got = h.log_len(log, file_day).zip(synced_len(&h, log, file_day));
                    proptest::prop_assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn multiple_files_and_hosts() {
        let mut c = Collector::new(&Rng::new(22));
        let mut h1 = MonitoredHost::new(1);
        let mut h2 = MonitoredHost::new(2);
        h1.append(Log::Md5sums, 0, log_line_len("aaa\n"));
        h1.append(Log::Sensors, 0, log_line_len("t=-5\n"));
        h2.append(Log::Md5sums, 0, log_line_len("bbbb\n"));
        c.collect(&mut h1, true, SimTime::from_secs(0));
        c.collect(&mut h2, true, SimTime::from_secs(0));
        assert_eq!(synced_len(&h1, Log::Md5sums, 0), Some(4));
        assert_eq!(synced_len(&h1, Log::Sensors, 0), Some(5));
        assert_eq!(synced_len(&h2, Log::Md5sums, 0), Some(5));
        assert_eq!(synced_len(&h2, Log::Sensors, 0), None);
    }
}
