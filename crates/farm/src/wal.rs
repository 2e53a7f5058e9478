//! The append-only, checksummed write-ahead log.
//!
//! Every queue transition (epoch start, lease, completion, failure,
//! requeue, quarantine, drain) is one framed record:
//!
//! ```text
//! ┌──────────────┬──────────────┬───────────────────┐
//! │ len: u32 LE  │ crc32: u32   │ payload (JSON)    │
//! └──────────────┴──────────────┴───────────────────┘
//! ```
//!
//! preceded once by the 8-byte file magic `FLFARMW1`. The CRC-32 (IEEE,
//! via [`frostlab_compress::crc32`]) covers the payload, so a record cut
//! short by a crash — or half-flushed page cache — fails verification and
//! **replay stops at the last intact frame**. [`Wal::open`] then
//! truncates the torn tail before appending, which is what makes a kill
//! at any instant recoverable: the WAL's committed prefix is always a
//! valid history, and re-applying it is idempotent (see
//! [`crate::state::FarmState`]).
//!
//! Records carry a wall-clock stamp for the operational narrative; the
//! stamp never feeds the simulation, so it cannot perturb determinism.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use frostlab_compress::crc32::crc32;

use crate::error::FarmError;

/// File magic: identifies a farm WAL, version 1.
pub const MAGIC: &[u8; 8] = b"FLFARMW1";

/// Sanity cap on a single record's payload — anything larger is treated
/// as a torn/garbage frame, not a record.
const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Record kinds (the `kind` field of [`WalRecord`]).
pub mod kind {
    /// A `run`/`resume` invocation began; defines a new lease epoch.
    pub const START: &str = "start";
    /// A worker took a job.
    pub const LEASE: &str = "lease";
    /// A job finished; `cached` says whether the result store served it.
    pub const COMPLETE: &str = "complete";
    /// An attempt failed; the job is pending until its worker retries it.
    pub const FAIL: &str = "fail";
    /// A lease was declared orphaned (dead worker / stale epoch) and the
    /// job returned to the queue.
    pub const REQUEUE: &str = "requeue";
    /// A job exhausted its retry budget and left the queue for good.
    pub const QUARANTINE: &str = "quarantine";
    /// The farm drained gracefully (SIGINT) with work still pending.
    pub const DRAIN: &str = "drain";
}

/// One WAL record. A flat struct (rather than a data-carrying enum) so
/// the vendored mini-serde can derive it; unused fields stay at their
/// zero values for kinds that don't need them.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WalRecord {
    /// One of the [`kind`] constants.
    pub kind: String,
    /// Lease epoch the record belongs to (monotonic per `run` invocation).
    pub epoch: u64,
    /// Worker that wrote the record. Replay never reads it, and the
    /// supervisor, whose pool does not name its threads, writes 0.
    pub worker: u64,
    /// Job index into the manifest's expanded job list.
    pub job: u64,
    /// For [`kind::COMPLETE`]: result came from the content-hash cache.
    pub cached: bool,
    /// For [`kind::FAIL`]/[`kind::QUARANTINE`]: attempt count after this
    /// event.
    pub attempt: u64,
    /// Free-form note (panic message, requeue reason).
    pub note: String,
    /// Wall-clock stamp, milliseconds since the Unix epoch. Operational
    /// metadata only — never feeds the simulation.
    pub unix_ms: u64,
}

/// Current wall-clock in milliseconds since the Unix epoch.
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl WalRecord {
    fn base(kind: &str, epoch: u64) -> WalRecord {
        WalRecord {
            kind: kind.to_string(),
            epoch,
            worker: 0,
            job: 0,
            cached: false,
            attempt: 0,
            note: String::new(),
            unix_ms: now_unix_ms(),
        }
    }

    /// A new run/resume epoch begins.
    pub fn start(epoch: u64) -> WalRecord {
        WalRecord::base(kind::START, epoch)
    }

    /// Worker `worker` leased `job`.
    pub fn lease(epoch: u64, worker: u64, job: u64) -> WalRecord {
        WalRecord {
            worker,
            job,
            ..WalRecord::base(kind::LEASE, epoch)
        }
    }

    /// `job` finished (`cached` = served from the result store).
    pub fn complete(epoch: u64, worker: u64, job: u64, cached: bool) -> WalRecord {
        WalRecord {
            worker,
            job,
            cached,
            ..WalRecord::base(kind::COMPLETE, epoch)
        }
    }

    /// `job`'s attempt number `attempt` failed with `note`.
    pub fn fail(epoch: u64, worker: u64, job: u64, attempt: u64, note: &str) -> WalRecord {
        WalRecord {
            worker,
            job,
            attempt,
            note: note.to_string(),
            ..WalRecord::base(kind::FAIL, epoch)
        }
    }

    /// `job`'s lease was orphaned and the job returned to the queue.
    pub fn requeue(epoch: u64, job: u64, note: &str) -> WalRecord {
        WalRecord {
            job,
            note: note.to_string(),
            ..WalRecord::base(kind::REQUEUE, epoch)
        }
    }

    /// `job` was quarantined after `attempt` failed attempts.
    pub fn quarantine(epoch: u64, job: u64, attempt: u64, note: &str) -> WalRecord {
        WalRecord {
            job,
            attempt,
            note: note.to_string(),
            ..WalRecord::base(kind::QUARANTINE, epoch)
        }
    }

    /// The farm drained gracefully with work still pending.
    pub fn drain(epoch: u64) -> WalRecord {
        WalRecord::base(kind::DRAIN, epoch)
    }
}

/// What a replay saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Intact records decoded.
    pub records: usize,
    /// Byte offset of the end of the last intact frame (including the
    /// magic). Everything past this is torn tail.
    pub clean_bytes: u64,
    /// True if trailing bytes failed to decode (torn final record —
    /// the signature of a crash mid-append).
    pub torn: bool,
}

/// Decode a WAL image: every intact frame in order, stopping at the
/// first torn/invalid frame. Pure function of the bytes — calling it
/// twice (or concatenating a replayed prefix with itself and rebuilding
/// state; see [`crate::state`]) changes nothing.
pub fn replay_bytes(bytes: &[u8]) -> Result<(Vec<WalRecord>, ReplayReport), FarmError> {
    if bytes.len() < MAGIC.len() {
        // Crash before the magic finished writing: an empty history.
        return Ok((
            Vec::new(),
            ReplayReport {
                records: 0,
                clean_bytes: 0,
                torn: !bytes.is_empty(),
            },
        ));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(FarmError::Corrupt(format!(
            "WAL magic mismatch (got {:02x?})",
            &bytes[..MAGIC.len()]
        )));
    }

    let mut records = Vec::new();
    let mut off = MAGIC.len();
    let torn;
    loop {
        let Some(header) = bytes.get(off..off + 8) else {
            torn = off < bytes.len();
            break;
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_RECORD_BYTES {
            torn = true;
            break;
        }
        let Some(payload) = bytes.get(off + 8..off + 8 + len as usize) else {
            torn = true;
            break;
        };
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            torn = true;
            break;
        };
        let Ok(record) = serde_json::from_str::<WalRecord>(text) else {
            torn = true;
            break;
        };
        records.push(record);
        off += 8 + len as usize;
    }
    let report = ReplayReport {
        records: records.len(),
        clean_bytes: off as u64,
        torn,
    };
    Ok((records, report))
}

/// An open WAL, positioned for appending past the last intact record.
#[derive(Debug)]
pub struct Wal {
    file: File,
}

impl Wal {
    /// Create a fresh WAL (truncating any existing file) and write the
    /// magic.
    pub fn create(path: &Path) -> Result<Wal, FarmError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(MAGIC)?;
        file.sync_data()?;
        Ok(Wal { file })
    }

    /// Open an existing WAL (or create one if the file is missing),
    /// replay its intact prefix, truncate any torn tail, and position for
    /// append. Returns the decoded history alongside the handle.
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalRecord>, ReplayReport), FarmError> {
        if !path.exists() {
            let wal = Wal::create(path)?;
            return Ok((
                wal,
                Vec::new(),
                ReplayReport {
                    records: 0,
                    clean_bytes: MAGIC.len() as u64,
                    torn: false,
                },
            ));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, report) = replay_bytes(&bytes)?;
        if report.clean_bytes < MAGIC.len() as u64 {
            // Crash before the magic landed: restart the file.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
        } else if report.torn {
            // Drop the torn tail so future appends extend a valid prefix
            // (appending after garbage would hide every later record from
            // replay).
            file.set_len(report.clean_bytes)?;
            file.seek(SeekFrom::Start(report.clean_bytes))?;
        } else {
            file.seek(SeekFrom::End(0))?;
        }
        file.sync_data()?;
        Ok((Wal { file }, records, report))
    }

    /// Append one record: frame, flush, and fsync. On return the record
    /// is durable.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), FarmError> {
        let payload = serde_json::to_string(record)?;
        let payload = payload.as_bytes();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_image(records: &[WalRecord]) -> Vec<u8> {
        // Parallel tests can call this within one millisecond; the
        // sequence number keeps their directories apart.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "frostlab-wal-test-{}-{}-{seq}",
            std::process::id(),
            now_unix_ms()
        ));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path).expect("create");
        for r in records {
            wal.append(r).expect("append");
        }
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_dir_all(&dir).ok();
        bytes
    }

    fn sample() -> Vec<WalRecord> {
        vec![
            WalRecord::start(1),
            WalRecord::lease(1, 0, 0),
            WalRecord::complete(1, 0, 0, false),
            WalRecord::lease(1, 1, 1),
            WalRecord::fail(1, 1, 1, 1, "poison phase detonated"),
            WalRecord::requeue(2, 1, "orphan lease from epoch 1"),
            WalRecord::quarantine(2, 1, 3, "poison phase detonated"),
            WalRecord::drain(2),
        ]
    }

    #[test]
    fn round_trips_every_record_kind() {
        let records = sample();
        let (back, report) = replay_bytes(&wal_image(&records)).expect("valid image");
        assert_eq!(back, records);
        assert!(!report.torn);
        assert_eq!(report.records, records.len());
    }

    #[test]
    fn torn_final_record_is_dropped_not_fatal() {
        let records = sample();
        let image = wal_image(&records);
        // Chop the image mid-way through the final frame.
        let truncated = &image[..image.len() - 3];
        let (back, report) = replay_bytes(truncated).expect("torn is recoverable");
        assert_eq!(back, records[..records.len() - 1]);
        assert!(report.torn);
    }

    #[test]
    fn corrupted_payload_fails_crc_and_ends_replay() {
        let records = sample();
        let mut image = wal_image(&records);
        let n = image.len();
        image[n - 4] ^= 0xff; // flip a byte inside the last payload
        let (back, report) = replay_bytes(&image).expect("corruption is a torn tail");
        assert_eq!(back, records[..records.len() - 1]);
        assert!(report.torn);
    }

    #[test]
    fn wrong_magic_is_corrupt_not_torn() {
        let mut image = wal_image(&sample());
        image[0] = b'X';
        assert!(matches!(replay_bytes(&image), Err(FarmError::Corrupt(_))));
    }

    #[test]
    fn empty_and_sub_magic_files_replay_to_nothing() {
        let (r, rep) = replay_bytes(&[]).expect("empty ok");
        assert!(r.is_empty());
        assert!(!rep.torn);
        let (r, rep) = replay_bytes(b"FLF").expect("partial magic ok");
        assert!(r.is_empty());
        assert!(rep.torn);
    }

    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let dir = std::env::temp_dir().join(format!(
            "frostlab-wal-open-{}-{}",
            std::process::id(),
            now_unix_ms()
        ));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::create(&path).expect("create");
            wal.append(&WalRecord::start(1)).expect("append");
            wal.append(&WalRecord::lease(1, 0, 0)).expect("append");
        }
        // Simulate a crash mid-append: add garbage half-frame.
        let mut bytes = std::fs::read(&path).expect("read");
        let clean = bytes.len();
        bytes.extend_from_slice(&[0x55; 7]);
        std::fs::write(&path, &bytes).expect("write torn");

        let (mut wal, records, report) = Wal::open(&path).expect("open heals");
        assert_eq!(records.len(), 2);
        assert!(report.torn);
        assert_eq!(report.clean_bytes as usize, clean);
        wal.append(&WalRecord::complete(1, 0, 0, false))
            .expect("append after heal");
        drop(wal);

        let (records, report) = replay_bytes(&std::fs::read(&path).expect("read")).expect("valid");
        assert_eq!(records.len(), 3, "post-heal append is visible to replay");
        assert!(!report.torn);
        std::fs::remove_dir_all(&dir).ok();
    }
}
