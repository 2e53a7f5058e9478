//! Graceful drain: a drain request stops the farm between jobs, leaves a
//! clean `drain` record at the WAL tail, and a resume finishes the sweep
//! with the same bytes as an uninterrupted run.
//!
//! Its own test binary because the drain flag is process-global: a drain
//! requested here must not stop the runs of `farm_resume.rs`, whose tests
//! share one process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use frostlab_core::{MatrixSpec, ScenarioSpec};
use frostlab_ensemble::run_matrix_sweep;
use frostlab_farm::supervisor::{MERGED_FILE, STORE_DIR, WAL_FILE};
use frostlab_farm::wal::{kind, replay_bytes};
use frostlab_farm::{signal, Farm, FarmError, ResultStore, RunOptions};

#[test]
fn drained_run_stops_cleanly_and_resumes_to_the_same_bytes() -> Result<(), FarmError> {
    let matrix = MatrixSpec {
        scenarios: vec![ScenarioSpec::new("helsinki", 2, "helsinki")],
        seed_start: 0,
        seeds: 8,
    };
    let dir = std::env::temp_dir().join(format!("frostlab-farm-drain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut farm = Farm::submit(&dir, &matrix)?;
    let one_worker = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };

    // Request the drain once the first result has landed, the way a
    // Ctrl-C during a real run would.
    let store = ResultStore::open(&dir.join(STORE_DIR))?;
    let finished = AtomicBool::new(false);
    let outcome = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !finished.load(Ordering::SeqCst) {
                if !store.is_empty().unwrap_or(true) {
                    signal::request_drain();
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let outcome = farm.run(one_worker);
        finished.store(true, Ordering::SeqCst);
        outcome
    })?;
    assert!(outcome.drained);
    assert!(!outcome.settled, "the drain must stop the run early");
    let (records, _) = replay_bytes(&std::fs::read(dir.join(WAL_FILE))?)?;
    assert_eq!(records.last().map(|r| r.kind.as_str()), Some(kind::DRAIN));
    assert!(farm.status().pending > 0, "{:?}", farm.status());
    drop(farm);

    // A resume finishes the queue; the merge is byte-identical to the
    // single-process sweep (plus the CLI's trailing newline).
    let mut farm = Farm::open(&dir)?;
    let resumed = farm.run(one_worker)?;
    assert!(resumed.settled && !resumed.drained);
    let expected = format!("{}\n", run_matrix_sweep(&matrix, 1)?.invariant_json()?);
    assert_eq!(std::fs::read_to_string(dir.join(MERGED_FILE))?, expected);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
