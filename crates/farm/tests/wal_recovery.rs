//! Property tests for WAL recovery (ISSUE 6 satellite).
//!
//! Two invariants carry the farm's whole crash-safety story:
//!
//! 1. **Any byte prefix of a valid WAL replays cleanly** — cutting the
//!    image at an arbitrary offset (mid-magic, mid-header, mid-payload,
//!    or exactly on a frame boundary) never errors, yields a *record*
//!    prefix of the full history, and rebuilds the same [`FarmState`]
//!    as folding that record prefix directly.
//! 2. **Replay is idempotent** — folding a history twice produces
//!    exactly the state of folding it once, so a resume that re-reads
//!    an already-applied WAL cannot drift.
//!
//! Images are framed in-memory against the *documented* format (magic,
//! then `[u32 LE len][u32 LE crc32(payload)][JSON payload]`) rather
//! than through [`frostlab_farm::Wal`], so these tests double as a
//! format-compatibility check: an independent writer following
//! `wal.rs`'s module docs must produce replayable logs.

use frostlab_compress::crc32::crc32;
use frostlab_farm::wal::{self, replay_bytes, WalRecord};
use frostlab_farm::FarmState;
use proptest::collection;
use proptest::prelude::*;

/// Number of job slots the generated histories address.
const JOBS: usize = 6;

/// Materialize one record from a generated tuple.
fn record_from(kind_idx: u8, epoch: u64, worker: u64, job: u64, attempt: u64) -> WalRecord {
    match kind_idx % 8 {
        0 => WalRecord::start(epoch),
        1 => WalRecord::lease(epoch, worker, job),
        // A legacy kind older farms wrote; replay ignores it.
        2 => WalRecord {
            kind: "heartbeat".to_string(),
            ..WalRecord::lease(epoch, worker, job)
        },
        3 => WalRecord::complete(epoch, worker, job, attempt.is_multiple_of(2)),
        4 => WalRecord::fail(epoch, worker, job, attempt, "generated failure"),
        5 => WalRecord::requeue(epoch, job, "generated orphan sweep"),
        6 => WalRecord::quarantine(epoch, job, attempt, "generated poison"),
        _ => WalRecord::drain(epoch),
    }
}

/// Frame a history exactly as `wal.rs` documents, without going through
/// `Wal` (no filesystem, and an independent check of the format).
fn frame(records: &[WalRecord]) -> Vec<u8> {
    let mut image = wal::MAGIC.to_vec();
    for record in records {
        let payload = serde_json::to_string(record).expect("record serializes");
        let payload = payload.as_bytes();
        image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        image.extend_from_slice(&crc32(payload).to_le_bytes());
        image.extend_from_slice(payload);
    }
    image
}

/// The generated-history strategy: up to 24 records over a small job
/// space so leases, completions, failures and quarantines collide often.
fn history() -> impl Strategy<Value = Vec<(u8, u64, u64, u64, u64)>> {
    collection::vec((0..8u8, 1..4u64, 0..3u64, 0..JOBS as u64, 0..4u64), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_prefix_of_a_valid_wal_replays_to_a_consistent_queue(
        raw in history(),
        cut_seed in any::<u64>(),
    ) {
        let records: Vec<WalRecord> = raw
            .iter()
            .map(|&(k, e, w, j, a)| record_from(k, e, w, j, a))
            .collect();
        let image = frame(&records);

        // Cut anywhere from the empty file to the full image, inclusive.
        let cut = (cut_seed % (image.len() as u64 + 1)) as usize;
        let (replayed, report) = match replay_bytes(&image[..cut]) {
            Ok(ok) => ok,
            Err(e) => return Err(TestCaseError::Fail(format!(
                "prefix cut at {cut}/{} must never error: {e}",
                image.len()
            ))),
        };

        // The decoded history is a record prefix of the full history…
        prop_assert!(replayed.len() <= records.len());
        prop_assert_eq!(&replayed[..], &records[..replayed.len()]);
        // …every byte up to the cut is accounted for (clean or torn)…
        prop_assert!(report.clean_bytes as usize <= cut);
        prop_assert_eq!(report.torn, (report.clean_bytes as usize) < cut);
        // …and a cut exactly on a frame boundary loses nothing.
        if cut == image.len() {
            prop_assert_eq!(replayed.len(), records.len());
            prop_assert!(!report.torn);
        }

        // State rebuilt from the byte prefix == state folded from the
        // record prefix: truncation can only forget a suffix, never
        // invent or reorder transitions.
        let from_bytes = FarmState::replay(JOBS, &replayed);
        let from_records = FarmState::replay(JOBS, &records[..replayed.len()]);
        prop_assert_eq!(from_bytes, from_records);
    }

    #[test]
    fn torn_final_record_drops_exactly_one_record(
        raw in history(),
        bite in 1..16u64,
    ) {
        let mut records: Vec<WalRecord> = raw
            .iter()
            .map(|&(k, e, w, j, a)| record_from(k, e, w, j, a))
            .collect();
        // Ensure there is a final record to tear.
        records.push(WalRecord::complete(1, 0, 0, false));
        let image = frame(&records);

        // Tear strictly inside the final frame: the frame is 8 bytes of
        // header plus a >16-byte JSON payload, so chopping 1..=15 bytes
        // always lands mid-frame.
        let cut = image.len() - bite as usize;
        let (replayed, report) = replay_bytes(&image[..cut])
            .map_err(|e| TestCaseError::Fail(format!("torn tail must not error: {e}")))?;
        prop_assert_eq!(replayed.len(), records.len() - 1);
        prop_assert!(report.torn);
        prop_assert_eq!(&replayed[..], &records[..records.len() - 1]);
    }

    #[test]
    fn replay_is_idempotent(raw in history()) {
        let records: Vec<WalRecord> = raw
            .iter()
            .map(|&(k, e, w, j, a)| record_from(k, e, w, j, a))
            .collect();
        let once = FarmState::replay(JOBS, &records);
        let twice = FarmState::replay(JOBS, records.iter().chain(records.iter()));
        prop_assert_eq!(once, twice);

        // Incremental equivalence: folding the history one record at a
        // time through `apply` matches the batch replay (no hidden
        // cross-record coupling).
        let mut step = FarmState::new(JOBS);
        for r in &records {
            step.apply(r);
        }
        prop_assert_eq!(step, FarmState::replay(JOBS, &records));
    }
}
