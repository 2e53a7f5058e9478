//! The farm supervisor: directory layout, the run loop on the ensemble's
//! worker pool, in-place retry/quarantine policy, and the deterministic
//! merge.
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

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use frostlab_core::watchdog::{IncidentKind, IncidentRecord};
use frostlab_core::{JobSpec, MatrixSpec};
use frostlab_ensemble::{run_job, CampaignProjection, Ensemble, EnsembleSummary, Sweep, SweepFold};
use frostlab_trace::export::to_prometheus;
use frostlab_trace::MetricsRegistry;

use crate::error::FarmError;
use crate::signal;
use crate::state::{FarmState, JobStatus};
use crate::store::{write_atomic, ResultStore};
use crate::wal::{now_unix_ms, ReplayReport, Wal, WalRecord};

/// File name of the submitted matrix inside a farm directory.
const MANIFEST_FILE: &str = "manifest.json";
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

/// Sleep after a job's first failed attempt; it doubles per failure.
const FIRST_BACKOFF_MS: u64 = 25;
/// Cap on one backoff sleep, so a poison job can't stall a drain.
const BACKOFF_CAP_MS: u64 = 2_000;
/// The `worker` field of the records this supervisor writes. The
/// ensemble pool does not name its threads, and no reader needs them.
const WORKER: u64 = 0;

/// Knobs for one `run`/`resume` invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads; `0` means all available cores.
    pub workers: usize,
    /// Attempts before a failing job is quarantined. A worker retries
    /// its job in place, sleeping 25 ms after the first failure and
    /// doubling per failure after that (at most 2 s).
    pub max_attempts: u64,
    /// Install the SIGINT graceful-drain handler (bins want this; tests
    /// and library embedders usually don't).
    pub handle_sigint: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            workers: 0,
            max_attempts: 3,
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
        write_atomic(&manifest, 0, matrix.to_json()?)?;
        Wal::create(&dir.join(WAL_FILE))?;
        Farm::open(dir)
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

    /// Run the pending jobs on the ensemble's worker pool until the queue
    /// settles, a drain is requested, or an unrecoverable error occurs.
    /// Safe to call repeatedly; each call is a new lease epoch.
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
        // observed job whose alerts sidecar is gone is the same wound:
        // the merged alert report would silently lose a seed.
        for idx in 0..self.jobs.len() {
            if self.state.jobs[idx].status == JobStatus::Done && self.stored(idx).is_none() {
                self.state.jobs[idx].status = JobStatus::Pending;
                let rec =
                    WalRecord::requeue(epoch, idx as u64, "completed result missing from store");
                self.wal_append(&rec)?;
            }
        }

        let pending: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| self.state.jobs[i].status == JobStatus::Pending)
            .collect();
        // Auto-detected like the ensemble's threads, and never more
        // workers than jobs left to run.
        let pool = Ensemble::new(pending.len() as u64).threads(opts.workers);
        let workers = pool.effective_threads();
        let stop = AtomicBool::new(false);
        let (mut jobs_run, mut jobs_cached) = (0u64, 0u64);
        let mut incidents = Vec::new();
        let mut first_error = None;
        pool.run_map(
            |i| {
                let step = self.process_job(epoch, pending[i as usize], max_attempts, &stop);
                if step.is_err() {
                    stop.store(true, Ordering::SeqCst);
                }
                step
            },
            |_, step| match step {
                Ok(JobOutcome::Ran) => jobs_run += 1,
                Ok(JobOutcome::Cached) => jobs_cached += 1,
                Ok(JobOutcome::Quarantined(incident)) => incidents.push(incident),
                Ok(JobOutcome::Stopped) => {}
                Err(err) => {
                    first_error.get_or_insert(err);
                }
            },
        );
        if let Some(err) = first_error {
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

        if !incidents.is_empty() {
            self.append_incidents(&incidents)?;
        }

        let settled = self.state.settled();
        if settled {
            let merged = self.fold(workers)?;
            // Trailing newline matches `ensemble --matrix --invariant`'s
            // stdout so the CI gate can `diff` the two files directly.
            let text = format!("{}\n", merged.summary.invariant_json()?);
            write_atomic(&self.dir.join(MERGED_FILE), 0, text)?;
            if let Some(alerts) = merged.alerts {
                write_atomic(&self.dir.join(ALERTS_FILE), 0, alerts.to_json()?)?;
            }
        }

        let jobs_quarantined = incidents.len() as u64;
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add("farm.jobs.run", jobs_run);
        metrics.counter_add("farm.jobs.cached", jobs_cached);
        metrics.counter_add("farm.jobs.quarantined", jobs_quarantined);
        metrics.counter_add("farm.orphans.requeued", orphans.len() as u64);
        metrics.counter_add("farm.wal.records", self.replay.records as u64);

        Ok(RunOutcome {
            jobs_run,
            jobs_cached,
            jobs_quarantined,
            orphans_requeued: orphans.len() as u64,
            workers,
            drained,
            settled,
            prometheus: to_prometheus(&metrics.snapshot()),
        })
    }

    /// Lease, run (or cache-serve) and record job `idx`, retrying it in
    /// place with capped exponential backoff until it completes or is
    /// quarantined. A stop or drain request is honoured before each
    /// attempt and leaves the job pending for the next run.
    ///
    /// Store writes happen strictly before the WAL `complete` append —
    /// the crash-safety pivot — and for an observed job the alerts
    /// sidecar lands strictly before the summary, so a visible summary
    /// always has its alerts alongside it.
    fn process_job(
        &self,
        epoch: u64,
        idx: usize,
        max_attempts: u64,
        stop: &AtomicBool,
    ) -> Result<JobOutcome, FarmError> {
        let (job, key, spec) = (idx as u64, &self.keys[idx], &self.jobs[idx]);
        let mut attempts = self.state.jobs[idx].attempts;
        loop {
            if stop.load(Ordering::SeqCst) || signal::drain_requested() {
                return Ok(JobOutcome::Stopped);
            }
            self.wal_append(&WalRecord::lease(epoch, WORKER, job))?;
            if self.stored(idx).is_some() {
                self.wal_append(&WalRecord::complete(epoch, WORKER, job, true))?;
                return Ok(JobOutcome::Cached);
            }
            let note = match run_job(spec, false) {
                Ok(results) => {
                    let projection = CampaignProjection::of(&results);
                    if let Some(alerts) = &projection.alerts {
                        self.store.put_alerts(key, job, alerts)?;
                    }
                    self.store.put(key, job, &projection.summary)?;
                    self.wal_append(&WalRecord::complete(epoch, WORKER, job, false))?;
                    return Ok(JobOutcome::Ran);
                }
                Err(failure) => failure.to_string(),
            };
            attempts += 1;
            if attempts >= max_attempts {
                self.wal_append(&WalRecord::quarantine(epoch, job, attempts, &note))?;
                let incident = quarantine_incident(spec, key, attempts, &note);
                return Ok(JobOutcome::Quarantined(incident));
            }
            self.wal_append(&WalRecord::fail(epoch, WORKER, job, attempts, &note))?;
            let backoff = FIRST_BACKOFF_MS.saturating_mul(1 << (attempts - 1).min(8));
            std::thread::sleep(Duration::from_millis(backoff.min(BACKOFF_CAP_MS)));
        }
    }

    /// The stored result of job `idx`: its summary, plus the alerts
    /// sidecar when the job is observed. `None` if either is missing or
    /// unreadable.
    fn stored(&self, idx: usize) -> Option<CampaignProjection> {
        let key = &self.keys[idx];
        let alerts = if self.jobs[idx].scenario.observe {
            Some(self.store.get_alerts(key)?)
        } else {
            None
        };
        Some(CampaignProjection {
            summary: self.store.get(key)?,
            metrics: None,
            alerts,
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

    /// Fold every completed job's stored projection in manifest job
    /// order. Non-terminal jobs are an error, and so is a `Done` job
    /// whose stored result is incomplete (the run-time self-heal
    /// re-queues that wound before a settled run gets here).
    fn fold(&self, workers: usize) -> Result<Sweep, FarmError> {
        let mut fold = SweepFold::new(self.matrix.seed_start);
        for (idx, key) in self.keys.iter().enumerate() {
            match self.state.jobs[idx].status {
                JobStatus::Done => fold.absorb(
                    self.stored(idx)
                        .ok_or_else(|| FarmError::MissingResult(key.clone()))?,
                ),
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

    /// Append one record. Rides through lock poisoning: farm state
    /// transitions are WAL-journaled, so a panicking worker can't leave
    /// the in-memory view in a state the next replay wouldn't reproduce.
    fn wal_append(&self, record: &WalRecord) -> Result<(), FarmError> {
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        wal.append(record)
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
        write_atomic(&path, 0, serde_json::to_string_pretty(&all)?)
    }
}

/// What processing one job amounted to.
enum JobOutcome {
    Ran,
    Cached,
    Quarantined(IncidentRecord),
    /// A stop or drain request came first; the job stays pending.
    Stopped,
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
