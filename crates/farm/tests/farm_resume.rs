//! End-to-end farm integration tests: determinism across worker counts,
//! crash/resume with zero re-simulation, poison-job quarantine, and the
//! orphan-lease sweep. These are the in-process siblings of the CI
//! crash-resume gate (which kills a real `farm` process with SIGKILL).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use frostlab_core::watchdog::IncidentRecord;
use frostlab_core::{MatrixSpec, ScenarioSpec};
use frostlab_ensemble::{run_matrix_sweep, EnsembleAlerts};
use frostlab_farm::supervisor::{ALERTS_FILE, INCIDENTS_FILE, MERGED_FILE, STORE_DIR, WAL_FILE};
use frostlab_farm::wal::{replay_bytes, MAGIC};
use frostlab_farm::{Farm, FarmError, RunOptions, Wal, WalRecord};

/// Fresh scratch directory per test (unique across parallel test threads).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "frostlab-farm-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst),
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A small but non-trivial matrix: 2 scenarios × 3 seeds = 6 jobs.
fn small_matrix() -> MatrixSpec {
    let mut chaotic = ScenarioSpec::new("helsinki+chaos", 2, "helsinki");
    chaotic.chaos = true;
    MatrixSpec {
        scenarios: vec![ScenarioSpec::new("helsinki", 2, "helsinki"), chaotic],
        seed_start: 7,
        seeds: 3,
    }
}

fn quiet(workers: usize) -> RunOptions {
    RunOptions {
        workers,
        ..RunOptions::default()
    }
}

#[test]
fn merge_is_byte_identical_across_worker_counts() -> Result<(), FarmError> {
    let matrix = small_matrix();
    // The single-process reference the farm must reproduce byte-for-byte
    // (invariant form masks thread count; trailing newline matches the
    // `ensemble --matrix --invariant` stdout the CI gate diffs against).
    let reference = run_matrix_sweep(&matrix, 1)?;
    let expected = format!("{}\n", reference.invariant_json()?);

    for workers in [1usize, 3] {
        let dir = scratch(&format!("workers{workers}"));
        let mut farm = Farm::submit(&dir, &matrix)?;
        let outcome = farm.run(quiet(workers))?;
        assert!(outcome.settled, "workers={workers} must settle");
        assert_eq!(outcome.jobs_run, 6, "workers={workers} runs every job");
        assert_eq!(outcome.jobs_cached, 0);
        let merged = std::fs::read_to_string(dir.join(MERGED_FILE))?;
        assert_eq!(
            merged, expected,
            "workers={workers} merged.json must be byte-identical to the ensemble run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}

#[test]
fn resume_after_wal_loss_is_served_entirely_from_cache() -> Result<(), FarmError> {
    let matrix = small_matrix();
    let dir = scratch("cache");
    let mut farm = Farm::submit(&dir, &matrix)?;
    assert!(farm.run(quiet(2))?.settled);
    let merged_first = std::fs::read(dir.join(MERGED_FILE))?;
    drop(farm);

    // Worst-case crash model: the whole WAL history is lost (rewound to
    // bare magic) but the result store survived. Every job must be a
    // cache hit — the `jobs_cached` counter certifying zero
    // re-simulation is the ISSUE's acceptance criterion.
    std::fs::write(dir.join(WAL_FILE), MAGIC)?;
    let mut farm = Farm::open(&dir)?;
    assert_eq!(farm.status().pending, 6, "lost WAL means all-pending");
    let outcome = farm.run(quiet(2))?;
    assert!(outcome.settled);
    assert_eq!(outcome.jobs_run, 0, "no completed job may re-simulate");
    assert_eq!(outcome.jobs_cached, 6);
    assert_eq!(
        std::fs::read(dir.join(MERGED_FILE))?,
        merged_first,
        "cache-served merge must be byte-identical"
    );
    drop(farm);

    // Partial store loss: one result deleted, WAL rewound again. Exactly
    // that one job re-runs; the rest stay cache hits.
    let victim = farm_first_store_file(&dir);
    std::fs::remove_file(&victim)?;
    std::fs::write(dir.join(WAL_FILE), MAGIC)?;
    let mut farm = Farm::open(&dir)?;
    let outcome = farm.run(quiet(2))?;
    assert!(outcome.settled);
    assert_eq!(outcome.jobs_run, 1, "only the evicted job re-simulates");
    assert_eq!(outcome.jobs_cached, 5);
    assert_eq!(std::fs::read(dir.join(MERGED_FILE))?, merged_first);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn farm_first_store_file(dir: &std::path::Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir.join(STORE_DIR))
        .expect("store dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    entries.into_iter().next().expect("store is non-empty")
}

#[test]
fn poison_jobs_are_quarantined_without_wedging_the_queue() -> Result<(), FarmError> {
    let mut poison = ScenarioSpec::new("poison", 2, "helsinki");
    poison.poison = true;
    let matrix = MatrixSpec {
        scenarios: vec![ScenarioSpec::new("helsinki", 2, "helsinki"), poison],
        seed_start: 0,
        seeds: 2,
    };
    for workers in [1usize, 2] {
        let dir = scratch(&format!("poison{workers}"));
        let mut farm = Farm::submit(&dir, &matrix)?;
        let outcome = farm.run(quiet(workers))?;

        assert!(outcome.settled, "poison must not wedge the queue");
        assert_eq!(outcome.jobs_quarantined, 2, "both poison seeds quarantine");
        assert_eq!(outcome.jobs_run, 2, "healthy jobs still complete");
        let status = farm.status();
        assert_eq!(status.quarantined, 2);
        assert_eq!(status.done, 2);

        // Each poison job (manifest indices 2 and 3) is retried in place
        // by its worker until the third failure quarantines it.
        let (records, _) = replay_bytes(&std::fs::read(dir.join(WAL_FILE))?)?;
        assert!(records.iter().all(|r| r.kind != "heartbeat"));
        for job in [2u64, 3] {
            let trail: Vec<(&str, u64)> = records
                .iter()
                .filter(|r| r.job == job)
                .map(|r| (r.kind.as_str(), r.attempt))
                .collect();
            assert_eq!(
                trail,
                [
                    ("lease", 0),
                    ("fail", 1),
                    ("lease", 0),
                    ("fail", 2),
                    ("lease", 0),
                    ("quarantine", 3)
                ],
                "job {job}, workers={workers}"
            );
        }

        // Quarantine leaves an incident ledger naming the job and its
        // panic, in manifest order at any worker count.
        let text = std::fs::read_to_string(dir.join(INCIDENTS_FILE))?;
        assert!(text.contains("job-quarantine"), "{text}");
        assert!(text.contains("quarantined after 3 attempts"), "{text}");
        assert!(text.contains("poison phase detonated"), "{text}");
        let incidents: Vec<IncidentRecord> = serde_json::from_str(&text)?;
        let subjects: Vec<&str> = incidents.iter().map(|i| i.subject.as_str()).collect();
        assert_eq!(subjects.len(), 2, "{text}");
        assert!(subjects[0].ends_with("(poison @ seed 0)"), "{text}");
        assert!(subjects[1].ends_with("(poison @ seed 1)"), "{text}");

        // The merge still lands: quarantined jobs are excluded, visibly.
        let merged = std::fs::read_to_string(dir.join(MERGED_FILE))?;
        assert!(merged.contains("\"campaigns\": 2"), "{merged}");

        // A resume is a no-op: quarantine is terminal, nothing re-runs.
        let again = farm.run(quiet(1))?;
        assert_eq!(again.jobs_run, 0);
        assert_eq!(again.jobs_quarantined, 0);
        assert!(again.settled);
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}

#[test]
fn observed_jobs_write_alert_sidecars_and_a_merged_report() -> Result<(), FarmError> {
    let mut observed = ScenarioSpec::new("helsinki+obs", 2, "helsinki");
    observed.observe = true;
    let matrix = MatrixSpec {
        scenarios: vec![ScenarioSpec::new("helsinki", 2, "helsinki"), observed],
        seed_start: 0,
        seeds: 2,
    };

    let mut merged_alerts: Vec<String> = Vec::new();
    for workers in [1usize, 2] {
        let dir = scratch(&format!("obs{workers}"));
        let mut farm = Farm::submit(&dir, &matrix)?;
        assert!(farm.run(quiet(workers))?.settled);

        // Only the observed scenario's jobs carry sidecars; the merged
        // report folds exactly those, in manifest job (seed) order.
        let sidecars = std::fs::read_dir(dir.join(STORE_DIR))?
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".alerts.json")
            })
            .count();
        assert_eq!(sidecars, 2, "one sidecar per observed job");
        let text = std::fs::read_to_string(dir.join(ALERTS_FILE))?;
        let report: EnsembleAlerts = serde_json::from_str(&text).expect("valid report");
        assert_eq!(report.campaigns, 2);
        let seeds: Vec<u64> = report.per_seed.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![0, 1]);
        assert!(
            report.per_seed.iter().all(|s| s.slos.len() == 4),
            "every observed seed reports the four paper SLOs"
        );
        merged_alerts.push(text);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        merged_alerts[0], merged_alerts[1],
        "alerts.json must be byte-identical across worker counts"
    );

    // A deleted sidecar is a healed wound, not a silent hole: exactly
    // that job re-runs on resume and the report comes back identical.
    let dir = scratch("obs-heal");
    let mut farm = Farm::submit(&dir, &matrix)?;
    assert!(farm.run(quiet(2))?.settled);
    drop(farm);
    let victim = std::fs::read_dir(dir.join(STORE_DIR))?
        .map(|e| e.expect("entry").path())
        .find(|p| p.to_string_lossy().ends_with(".alerts.json"))
        .expect("a sidecar exists");
    std::fs::remove_file(&victim)?;
    let mut farm = Farm::open(&dir)?;
    let outcome = farm.run(quiet(2))?;
    assert!(outcome.settled);
    assert_eq!(outcome.jobs_run, 1, "only the wounded observed job re-runs");
    assert_eq!(outcome.jobs_cached, 0);
    assert_eq!(
        std::fs::read_to_string(dir.join(ALERTS_FILE))?,
        merged_alerts[0],
        "healed alerts.json must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn workers_are_capped_at_the_jobs_left_to_run() -> Result<(), FarmError> {
    let matrix = MatrixSpec {
        scenarios: vec![ScenarioSpec::new("helsinki", 1, "helsinki")],
        seed_start: 0,
        seeds: 2,
    };
    let dir = scratch("cap");
    let mut farm = Farm::submit(&dir, &matrix)?;
    let outcome = farm.run(quiet(8))?;
    assert_eq!(outcome.workers, 2, "no idle workers beyond the job count");
    assert_eq!(outcome.jobs_run, 2);
    // A settled farm has nothing left to run.
    assert_eq!(farm.run(quiet(8))?.workers, 1);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn orphaned_leases_are_requeued_on_resume() -> Result<(), FarmError> {
    let matrix = MatrixSpec {
        scenarios: vec![ScenarioSpec::new("helsinki", 2, "helsinki")],
        seed_start: 0,
        seeds: 2,
    };
    let dir = scratch("orphan");
    drop(Farm::submit(&dir, &matrix)?);

    // Forge the WAL a killed worker leaves behind: an epoch started, a
    // job leased, and then silence — no completion. The `heartbeat`
    // record older farms wrote after a lease still replays (ignored).
    {
        let (mut wal, _, _) = Wal::open(&dir.join(WAL_FILE))?;
        wal.append(&WalRecord::start(1))?;
        wal.append(&WalRecord::lease(1, 0, 0))?;
        wal.append(&WalRecord {
            kind: "heartbeat".to_string(),
            ..WalRecord::lease(1, 0, 0)
        })?;
    }

    let mut farm = Farm::open(&dir)?;
    let status = farm.status();
    assert_eq!(status.leased, 1, "the dead worker's lease is visible");
    assert_eq!(status.pending, 1);

    let outcome = farm.run(quiet(1))?;
    assert_eq!(outcome.orphans_requeued, 1, "stale-epoch lease is swept");
    assert_eq!(outcome.jobs_run, 2, "the orphaned job actually runs");
    assert!(outcome.settled);
    assert_eq!(farm.status().done, 2);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
