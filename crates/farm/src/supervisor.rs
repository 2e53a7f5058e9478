//! The farm supervisor: directory layout, worker pool, retry/quarantine
//! policy, and the deterministic merge.
//!
//! A farm is a directory:
//!
//! ```text
//! farm-dir/
//! ├── manifest.json    # the submitted MatrixSpec (immutable after submit)
//! ├── wal.log          # append-only, checksummed queue history
//! ├── store/           # content-addressed results: <fnv1a-key>.json
//! │                    #   (+ <key>.alerts.json sidecars for observed jobs)
//! ├── merged.json      # invariant-form EnsembleSummary (once settled)
//! ├── alerts.json      # merged EnsembleAlerts (once settled, observed jobs only)
//! └── incidents.json   # quarantine incident records (if any)
//! ```
//!
//! The crash-safety contract hinges on one ordering rule: a worker
//! writes the result into the store (atomic rename) **before** appending
//! the WAL `complete` record. Kill the process between the two and the
//! next run replays a WAL without the completion, finds the store entry
//! by content key, and serves it as a cache hit — a completed simulation
//! is never re-run, which is what the `jobs_cached` counter certifies in
//! the CI crash-resume gate.
//!
//! Determinism contract: the merge folds per-job
//! [`CampaignProjection`]s read back from the store through the
//! ensemble's [`SweepFold`] in **manifest job order** (scenario-major,
//! seed-minor — the same order [`frostlab_ensemble::run_matrix_sweep`]
//! uses), so `merged.json` and `alerts.json` are byte-identical to a
//! single-process [`frostlab_ensemble::sweep`] of the same matrix at any
//! worker count and across any number of kill/resume cycles.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use frostlab_core::watchdog::{IncidentKind, IncidentRecord};
use frostlab_core::{JobSpec, MatrixSpec};
use frostlab_ensemble::{run_job, CampaignProjection, Ensemble, EnsembleSummary, Sweep, SweepFold};
use frostlab_trace::export::to_prometheus;
use frostlab_trace::MetricsRegistry;

use crate::error::FarmError;
use crate::signal;
use crate::state::{FarmState, JobStatus};
use crate::store::ResultStore;
use crate::wal::{now_unix_ms, ReplayReport, Wal, WalRecord};

/// File name of the submitted matrix inside a farm directory.
pub const MANIFEST_FILE: &str = "manifest.json";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "wal.log";
/// Subdirectory holding the content-addressed result store.
pub const STORE_DIR: &str = "store";
/// File name of the merged, invariant-form ensemble summary.
pub const MERGED_FILE: &str = "merged.json";
/// File name of the merged per-seed alert report (observed jobs only).
pub const ALERTS_FILE: &str = "alerts.json";
/// File name of the quarantine incident log.
pub const INCIDENTS_FILE: &str = "incidents.json";

/// Sentinel for "worker is idle" in the busy-job table.
const IDLE: u64 = u64::MAX;

/// Knobs for one `run`/`resume` invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads; `0` means all available cores.
    pub workers: usize,
    /// Attempts before a failing job is quarantined.
    pub max_attempts: u64,
    /// Base of the exponential retry backoff (doubles per attempt).
    pub backoff_base_ms: u64,
    /// Interval between heartbeat records for busy workers.
    pub heartbeat_ms: u64,
    /// Install the SIGINT graceful-drain handler (bins want this; tests
    /// and library embedders usually don't).
    pub handle_sigint: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            workers: 0,
            max_attempts: 3,
            backoff_base_ms: 25,
            heartbeat_ms: 1000,
            handle_sigint: false,
        }
    }
}

/// What one `run` invocation did.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Jobs actually simulated this invocation.
    pub jobs_run: u64,
    /// Jobs served from the result store without simulation.
    pub jobs_cached: u64,
    /// Jobs quarantined this invocation.
    pub jobs_quarantined: u64,
    /// Orphaned leases swept back into the queue at start.
    pub orphans_requeued: u64,
    /// Worker threads used.
    pub workers: usize,
    /// True if a drain request (SIGINT) stopped the run early.
    pub drained: bool,
    /// True if every job is now terminal (done or quarantined).
    pub settled: bool,
    /// Prometheus text rendering of the farm counters.
    pub prometheus: String,
}

/// Queue census for `farm status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmStatus {
    /// Jobs in the manifest.
    pub total: usize,
    /// Jobs waiting in the queue.
    pub pending: usize,
    /// Jobs under a (possibly orphaned) lease.
    pub leased: usize,
    /// Jobs completed.
    pub done: usize,
    /// Completed jobs whose recorded completion was cache-served.
    pub cached: usize,
    /// Jobs quarantined.
    pub quarantined: usize,
    /// Highest lease epoch seen.
    pub epoch: u64,
    /// Intact WAL records replayed.
    pub wal_records: usize,
    /// True if the last open had to truncate a torn WAL tail.
    pub torn_tail_recovered: bool,
}

/// Mutable queue shared by the worker pool.
struct SharedQueue {
    queue: VecDeque<u64>,
    attempts: Vec<u64>,
    incidents: Vec<IncidentRecord>,
}

/// An open farm directory.
#[derive(Debug)]
pub struct Farm {
    dir: PathBuf,
    matrix: MatrixSpec,
    jobs: Vec<JobSpec>,
    keys: Vec<String>,
    wal: Mutex<Wal>,
    state: FarmState,
    store: ResultStore,
    replay: ReplayReport,
}

impl Farm {
    /// Submit `matrix` into `dir`, creating the farm layout. Fails if the
    /// directory already holds a manifest.
    pub fn submit(dir: &Path, matrix: &MatrixSpec) -> Result<Farm, FarmError> {
        matrix.validate()?;
        fs::create_dir_all(dir)?;
        let manifest = dir.join(MANIFEST_FILE);
        if manifest.exists() {
            return Err(FarmError::AlreadySubmitted(dir.to_path_buf()));
        }
        fs::write(&manifest, matrix.to_json()?)?;
        let wal = Wal::create(&dir.join(WAL_FILE))?;
        let store = ResultStore::open(&dir.join(STORE_DIR))?;
        let jobs = matrix.expand();
        let keys = job_keys(&jobs)?;
        let state = FarmState::new(jobs.len());
        Ok(Farm {
            dir: dir.to_path_buf(),
            matrix: matrix.clone(),
            jobs,
            keys,
            wal: Mutex::new(wal),
            state,
            store,
            replay: ReplayReport {
                records: 0,
                clean_bytes: 0,
                torn: false,
            },
        })
    }

    /// Open a previously submitted farm: parse the manifest, replay the
    /// WAL (healing any torn tail), and rebuild the queue state.
    pub fn open(dir: &Path) -> Result<Farm, FarmError> {
        let manifest = dir.join(MANIFEST_FILE);
        if !manifest.exists() {
            return Err(FarmError::NotSubmitted(dir.to_path_buf()));
        }
        let matrix = MatrixSpec::from_json(&fs::read_to_string(&manifest)?)?;
        matrix.validate()?;
        let (wal, records, replay) = Wal::open(&dir.join(WAL_FILE))?;
        let store = ResultStore::open(&dir.join(STORE_DIR))?;
        let jobs = matrix.expand();
        let keys = job_keys(&jobs)?;
        let state = FarmState::replay(jobs.len(), &records);
        Ok(Farm {
            dir: dir.to_path_buf(),
            matrix,
            jobs,
            keys,
            wal: Mutex::new(wal),
            state,
            store,
            replay,
        })
    }

    /// The farm directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The submitted matrix.
    pub fn matrix(&self) -> &MatrixSpec {
        &self.matrix
    }

    /// The expanded job list, in manifest (merge) order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Queue census.
    pub fn status(&self) -> FarmStatus {
        FarmStatus {
            total: self.jobs.len(),
            pending: self.state.count(JobStatus::Pending),
            leased: self.state.count(JobStatus::Leased),
            done: self.state.count(JobStatus::Done),
            cached: self
                .state
                .jobs
                .iter()
                .filter(|j| j.status == JobStatus::Done && j.cached)
                .count(),
            quarantined: self.state.count(JobStatus::Quarantined),
            epoch: self.state.epoch,
            wal_records: self.replay.records,
            torn_tail_recovered: self.replay.torn,
        }
    }

    /// Run the worker pool until the queue settles, a drain is requested,
    /// or an unrecoverable error occurs. Safe to call repeatedly; each
    /// call is a new lease epoch.
    pub fn run(&mut self, opts: RunOptions) -> Result<RunOutcome, FarmError> {
        signal::reset_drain();
        if opts.handle_sigint {
            signal::install_sigint_handler();
        }
        let max_attempts = opts.max_attempts.max(1);

        // New epoch: every lease left over from an earlier run is, by
        // construction, held by a process that no longer exists.
        let epoch = self.state.epoch + 1;
        self.append_and_apply(&WalRecord::start(epoch))?;
        let orphans = self.state.requeue_orphans(epoch);
        for &job in &orphans {
            let rec = WalRecord::requeue(epoch, job, "orphan lease from earlier epoch");
            self.wal_append(&rec)?;
        }
        // Self-heal the inverse crash window: a WAL `complete` whose store
        // entry vanished. Should not happen (store lands first), but a
        // deleted store file must re-queue, not wedge the merge. An
        // observed job with its summary intact but its alerts sidecar
        // gone is the same wound: the merged alert report would silently
        // lose a seed, so it re-runs too.
        for idx in 0..self.jobs.len() {
            if self.state.jobs[idx].status != JobStatus::Done {
                continue;
            }
            let reason = if !self.store.contains(&self.keys[idx]) {
                Some("completed result missing from store")
            } else if self.jobs[idx].scenario.observe
                && self.store.get_alerts(&self.keys[idx]).is_none()
            {
                Some("observed job missing its alerts sidecar")
            } else {
                None
            };
            if let Some(reason) = reason {
                self.state.jobs[idx].status = JobStatus::Pending;
                let rec = WalRecord::requeue(epoch, idx as u64, reason);
                self.wal_append(&rec)?;
            }
        }

        let pending: VecDeque<u64> = (0..self.jobs.len() as u64)
            .filter(|&i| self.state.jobs[i as usize].status == JobStatus::Pending)
            .collect();
        // Resolved like the ensemble's threads: auto-detect, then never
        // more workers than jobs left to run.
        let workers = Ensemble::new(pending.len() as u64)
            .threads(opts.workers)
            .effective_threads();
        let shared = Mutex::new(SharedQueue {
            queue: pending,
            attempts: self.state.jobs.iter().map(|j| j.attempts).collect(),
            incidents: Vec::new(),
        });
        let jobs_run = AtomicU64::new(0);
        let jobs_cached = AtomicU64::new(0);
        let jobs_quarantined = AtomicU64::new(0);
        let in_flight = AtomicU64::new(0);
        let finished_workers = AtomicU64::new(0);
        let fatal = AtomicBool::new(false);
        let first_error: Mutex<Option<FarmError>> = Mutex::new(None);
        let busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(IDLE)).collect();

        let jobs = &self.jobs;
        let keys = &self.keys;
        let store = &self.store;
        let wal = &self.wal;

        let fail_fatally = |err: FarmError| {
            let mut slot = lock(&first_error);
            if slot.is_none() {
                *slot = Some(err);
            }
            fatal.store(true, Ordering::SeqCst);
        };

        std::thread::scope(|scope| {
            for w in 0..workers as u64 {
                let shared = &shared;
                let jobs_run = &jobs_run;
                let jobs_cached = &jobs_cached;
                let jobs_quarantined = &jobs_quarantined;
                let in_flight = &in_flight;
                let finished_workers = &finished_workers;
                let fatal = &fatal;
                let fail_fatally = &fail_fatally;
                let busy = &busy;
                scope.spawn(move || {
                    loop {
                        if signal::drain_requested() || fatal.load(Ordering::SeqCst) {
                            break;
                        }
                        let job = {
                            let mut s = lock(shared);
                            let job = s.queue.pop_front();
                            if job.is_some() {
                                in_flight.fetch_add(1, Ordering::SeqCst);
                            }
                            job
                        };
                        let Some(job) = job else {
                            if in_flight.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                            continue;
                        };
                        busy[w as usize].store(job, Ordering::SeqCst);
                        let step = process_job(
                            epoch,
                            w,
                            job,
                            &jobs[job as usize],
                            &keys[job as usize],
                            store,
                            wal,
                            shared,
                            max_attempts,
                            opts.backoff_base_ms,
                        );
                        busy[w as usize].store(IDLE, Ordering::SeqCst);
                        match step {
                            Ok(JobOutcome::Ran) => {
                                jobs_run.fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(JobOutcome::Cached) => {
                                jobs_cached.fetch_add(1, Ordering::SeqCst);
                            }
                            Ok(JobOutcome::Requeued) => {}
                            Ok(JobOutcome::Quarantined) => {
                                jobs_quarantined.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(err) => fail_fatally(err),
                        }
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                    finished_workers.fetch_add(1, Ordering::SeqCst);
                });
            }

            // The calling thread doubles as the heartbeat monitor: every
            // heartbeat interval it records which jobs the live workers
            // hold, so a later `status`/`resume` on a killed farm can see
            // how far activity got.
            let mut last_beat = now_unix_ms();
            while finished_workers.load(Ordering::SeqCst) < workers as u64 {
                std::thread::sleep(Duration::from_millis(10));
                let now = now_unix_ms();
                if now.saturating_sub(last_beat) < opts.heartbeat_ms {
                    continue;
                }
                last_beat = now;
                for (w, slot) in busy.iter().enumerate() {
                    let job = slot.load(Ordering::SeqCst);
                    if job != IDLE {
                        let rec = WalRecord::heartbeat(epoch, w as u64, job);
                        if let Err(err) = lock(wal).append(&rec) {
                            fail_fatally(err);
                        }
                    }
                }
            }
        });

        if let Some(err) = lock(&first_error).take() {
            return Err(err);
        }

        // Rebuild state from the WAL the run just wrote — the same code
        // path a resume takes, so what we report is what a replay sees.
        let bytes = fs::read(self.dir.join(WAL_FILE))?;
        let (records, replay) = crate::wal::replay_bytes(&bytes)?;
        self.state = FarmState::replay(self.jobs.len(), &records);
        self.replay = replay;

        let drained = signal::drain_requested();
        if drained && !self.state.settled() {
            self.wal_append(&WalRecord::drain(epoch))?;
        }

        let incidents = {
            let s = lock(&shared);
            s.incidents.clone()
        };
        if !incidents.is_empty() {
            self.append_incidents(&incidents)?;
        }

        let settled = self.state.settled();
        if settled {
            let merged = self.fold(workers)?;
            // Trailing newline matches `ensemble --matrix --invariant`'s
            // stdout so the CI gate can `diff` the two files directly.
            fs::write(
                self.dir.join(MERGED_FILE),
                format!("{}\n", merged.summary.invariant_json()?),
            )?;
            if let Some(alerts) = merged.alerts {
                fs::write(self.dir.join(ALERTS_FILE), alerts.to_json()?)?;
            }
        }

        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("farm.jobs.run", jobs_run.load(Ordering::SeqCst));
        metrics.counter_add("farm.jobs.cached", jobs_cached.load(Ordering::SeqCst));
        metrics.counter_add(
            "farm.jobs.quarantined",
            jobs_quarantined.load(Ordering::SeqCst),
        );
        metrics.counter_add("farm.orphans.requeued", orphans.len() as u64);
        metrics.counter_add("farm.wal.records", self.replay.records as u64);

        Ok(RunOutcome {
            jobs_run: jobs_run.load(Ordering::SeqCst),
            jobs_cached: jobs_cached.load(Ordering::SeqCst),
            jobs_quarantined: jobs_quarantined.load(Ordering::SeqCst),
            orphans_requeued: orphans.len() as u64,
            workers,
            drained,
            settled,
            prometheus: to_prometheus(&metrics.snapshot()),
        })
    }

    /// Fold every completed job's stored summary, in manifest job order,
    /// into one [`EnsembleSummary`]. Quarantined jobs are excluded (and
    /// leave `campaigns` short of the matrix size — visible in the
    /// output, never silent). Reads the same store entries, alerts
    /// sidecars included, as the settle-time merge.
    pub fn merge(&self, workers: usize) -> Result<EnsembleSummary, FarmError> {
        Ok(self.fold(workers)?.summary)
    }

    /// Read every completed job's projection back from the store — its
    /// summary, plus the alerts sidecar of an observed job — and fold
    /// them in manifest job order. Non-terminal jobs are an error, and
    /// so is an observed `Done` job missing its sidecar (the run-time
    /// self-heal re-queues that wound before a settled run gets here).
    fn fold(&self, workers: usize) -> Result<Sweep, FarmError> {
        let mut fold = SweepFold::new(self.matrix.seed_start);
        for (idx, key) in self.keys.iter().enumerate() {
            match self.state.jobs[idx].status {
                JobStatus::Done => {
                    let missing = |what: &str| FarmError::MissingResult(format!("{key}{what}"));
                    let summary = self.store.get(key).ok_or_else(|| missing(""))?;
                    let alerts = if self.jobs[idx].scenario.observe {
                        Some(
                            self.store
                                .get_alerts(key)
                                .ok_or_else(|| missing(" (alerts)"))?,
                        )
                    } else {
                        None
                    };
                    fold.absorb(CampaignProjection {
                        summary,
                        metrics: None,
                        alerts,
                    });
                }
                JobStatus::Quarantined => {}
                JobStatus::Pending | JobStatus::Leased => {
                    return Err(FarmError::MissingResult(format!(
                        "job {idx} ({key}) is not terminal; run the farm to completion first"
                    )));
                }
            }
        }
        Ok(fold.finish(workers))
    }

    fn wal_append(&self, record: &WalRecord) -> Result<(), FarmError> {
        lock(&self.wal).append(record)
    }

    fn append_and_apply(&mut self, record: &WalRecord) -> Result<(), FarmError> {
        self.wal_append(record)?;
        self.state.apply(record);
        Ok(())
    }

    /// Append quarantine incidents to `incidents.json` (merging with any
    /// records from earlier runs).
    fn append_incidents(&self, fresh: &[IncidentRecord]) -> Result<(), FarmError> {
        let path = self.dir.join(INCIDENTS_FILE);
        let mut all: Vec<IncidentRecord> = match fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text)?,
            Err(_) => Vec::new(),
        };
        all.extend(fresh.iter().cloned());
        fs::write(&path, serde_json::to_string_pretty(&all)?)?;
        Ok(())
    }
}

/// What processing one job amounted to.
enum JobOutcome {
    Ran,
    Cached,
    Requeued,
    Quarantined,
}

/// Lease, run (or cache-serve), and record one job. Store writes happen
/// strictly before the WAL `complete` append — the crash-safety pivot —
/// and for an observed job the alerts sidecar lands strictly before the
/// summary, so a visible summary always has its alerts alongside it.
#[allow(clippy::too_many_arguments)]
fn process_job(
    epoch: u64,
    worker: u64,
    job: u64,
    spec: &JobSpec,
    key: &str,
    store: &ResultStore,
    wal: &Mutex<Wal>,
    shared: &Mutex<SharedQueue>,
    max_attempts: u64,
    backoff_base_ms: u64,
) -> Result<JobOutcome, FarmError> {
    lock(wal).append(&WalRecord::lease(epoch, worker, job))?;

    let cache_complete =
        store.contains(key) && (!spec.scenario.observe || store.get_alerts(key).is_some());
    if cache_complete {
        lock(wal).append(&WalRecord::complete(epoch, worker, job, true))?;
        return Ok(JobOutcome::Cached);
    }

    let note = match run_job(spec, false) {
        Ok(results) => {
            let projection = CampaignProjection::of(&results);
            if let Some(alerts) = &projection.alerts {
                store.put_alerts(key, worker, alerts)?;
            }
            store.put(key, worker, &projection.summary)?;
            lock(wal).append(&WalRecord::complete(epoch, worker, job, false))?;
            return Ok(JobOutcome::Ran);
        }
        Err(failure) => failure.to_string(),
    };

    let attempts = {
        let mut s = lock(shared);
        s.attempts[job as usize] += 1;
        s.attempts[job as usize]
    };
    if attempts >= max_attempts {
        lock(wal).append(&WalRecord::quarantine(epoch, job, attempts, &note))?;
        let mut s = lock(shared);
        s.incidents
            .push(quarantine_incident(spec, key, attempts, &note));
        return Ok(JobOutcome::Quarantined);
    }
    lock(wal).append(&WalRecord::fail(epoch, worker, job, attempts, &note))?;
    // Exponential backoff, capped so a poison job can't stall a drain.
    let backoff = backoff_base_ms
        .saturating_mul(1 << (attempts - 1).min(8))
        .min(2_000);
    std::thread::sleep(Duration::from_millis(backoff));
    lock(shared).queue.push_back(job);
    Ok(JobOutcome::Requeued)
}

/// The serializable incident a quarantine produces — the farm-side
/// sibling of the in-campaign watchdog incident log.
fn quarantine_incident(spec: &JobSpec, key: &str, attempts: u64, note: &str) -> IncidentRecord {
    IncidentRecord {
        kind: IncidentKind::JobQuarantine.name().to_string(),
        subject: format!("job {key} ({} @ seed {})", spec.scenario.name, spec.seed),
        started: format!("unix_ms:{}", now_unix_ms()),
        resolved: Some(format!("unix_ms:{}", now_unix_ms())),
        resolution: Some(format!("quarantined after {attempts} attempts: {note}")),
    }
}

/// Content keys for an expanded job list, in manifest order.
fn job_keys(jobs: &[JobSpec]) -> Result<Vec<String>, FarmError> {
    jobs.iter()
        .map(|j| j.key().map_err(FarmError::from))
        .collect()
}

/// Lock a mutex, riding through poisoning: farm state transitions are
/// WAL-journaled, so a panicking worker can't leave the in-memory view
/// in a state the next replay wouldn't reproduce.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
