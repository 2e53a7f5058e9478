//! The job table: every submitted matrix, its lifecycle, its frozen
//! artifacts, and the admission queue that feeds the simulation workers.
//!
//! A job's id is the FNV-1a content hash of its canonical (compact)
//! matrix JSON — the same digest discipline as
//! [`JobSpec::key`](frostlab_core::JobSpec::key) — so resubmitting an
//! identical matrix *is* the original job.
//!
//! One mutex guards the job map, the FIFO of queued ids, the count of
//! running jobs and the `closed` flag. [`JobRegistry::submit`] makes the
//! dedup (any phase, even with the queue full), shed and enqueue
//! decisions in one critical section, so a shed submission is never
//! registered; [`JobRegistry::next_job`] pops the FIFO and marks the job
//! `Running` in one step. The shed hint is coarse: (queued + running) ×
//! a per-job pace, clamped to `1..=60` seconds. The queue is bounded;
//! the map is not — it keeps every admitted matrix and its artifacts.
//!
//! Status watchers (`GET /v1/jobs/{id}?wait_s=N`) block on a condvar
//! notified on every state transition; idle workers block on a second
//! one, notified when a job is queued or the table closes.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use frostlab_core::spec::fnv1a;
use frostlab_core::MatrixSpec;

use crate::api::JobPhase;

/// Rough seconds a queued matrix takes to drain — used only to scale the
/// `Retry-After` hint, never to schedule anything.
const PACE_S_PER_JOB: u64 = 2;

/// The servable outputs of a finished job, frozen as bytes at completion
/// time so every later `GET` returns identical responses.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// Invariant-form `EnsembleSummary` JSON — byte-identical to
    /// `ensemble --matrix --invariant` for the same matrix.
    pub summary_json: String,
    /// JSONL event log of the representative (first) campaign.
    pub trace_jsonl: String,
    /// Chrome trace-event JSON of the representative campaign.
    pub perfetto_json: String,
    /// Merged `EnsembleAlerts` JSON; `None` when no scenario in the
    /// matrix armed observability.
    pub alerts_json: Option<String>,
}

/// One registered job.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// The submitted matrix (canonical form).
    pub matrix: MatrixSpec,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Campaigns the matrix expands to.
    pub jobs_total: u64,
    /// Campaigns finished so far.
    pub jobs_done: u64,
    /// Campaigns served from the content-hash cache.
    pub cache_hits: u64,
    /// Failure explanation (failed jobs only).
    pub error: Option<String>,
    /// Frozen outputs (done jobs only), shared so a snapshot copies a
    /// pointer, not the artifact bytes.
    pub artifacts: Option<Arc<Artifacts>>,
}

/// Compute a job id: `{:016x}` FNV-1a of the canonical compact matrix
/// JSON. Whitespace or key-order differences in the submitted text do
/// not change the id because the matrix is re-serialized first.
pub fn job_id(matrix: &MatrixSpec) -> Result<String, serde_json::Error> {
    Ok(format!(
        "{:016x}",
        fnv1a(serde_json::to_string(matrix)?.as_bytes())
    ))
}

/// What [`JobRegistry::submit`] decided.
#[derive(Debug, Clone)]
pub enum Admission {
    /// Registered and queued for a worker.
    New,
    /// The id was already registered (any phase); a snapshot of it.
    Deduplicated(JobEntry),
    /// The queue was full or the table closed; nothing was registered.
    Shed {
        /// Suggested client back-off, seconds (the `Retry-After` header).
        retry_after_s: u64,
    },
}

#[derive(Debug, Default)]
struct Table {
    jobs: HashMap<String, JobEntry>,
    queue: VecDeque<String>,
    running: usize,
    closed: bool,
}

/// Thread-safe job table with a bounded admission queue.
#[derive(Debug)]
pub struct JobRegistry {
    table: Mutex<Table>,
    /// Notified on every job state transition (long-poll watchers).
    changed: Condvar,
    /// Notified when a job is queued or the table closes (workers).
    ready: Condvar,
    capacity: usize,
}

impl JobRegistry {
    /// An empty table admitting at most `capacity` queued jobs (≥ 1).
    pub fn new(capacity: usize) -> JobRegistry {
        JobRegistry {
            table: Mutex::new(Table::default()),
            changed: Condvar::new(),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admit a submission: deduplicate on the content-hash id, else shed
    /// when closed or full, else register it and queue it. Never blocks.
    pub fn submit(&self, id: &str, matrix: &MatrixSpec) -> Admission {
        let mut t = self.lock();
        if let Some(entry) = t.jobs.get(id) {
            return Admission::Deduplicated(entry.clone());
        }
        if t.closed {
            return Admission::Shed { retry_after_s: 1 };
        }
        if t.queue.len() >= self.capacity {
            let backlog = (t.queue.len() + t.running) as u64;
            return Admission::Shed {
                retry_after_s: (backlog * PACE_S_PER_JOB).clamp(1, 60),
            };
        }
        t.jobs.insert(
            id.to_string(),
            JobEntry {
                matrix: matrix.clone(),
                phase: JobPhase::Queued,
                jobs_total: matrix.jobs(),
                jobs_done: 0,
                cache_hits: 0,
                error: None,
                artifacts: None,
            },
        );
        t.queue.push_back(id.to_string());
        drop(t);
        self.ready.notify_one();
        Admission::New
    }

    /// Worker side: block until a job is queued, mark it `Running` and
    /// return its id and matrix. `None` once the table is closed and the
    /// queue is empty — the worker should exit.
    pub fn next_job(&self) -> Option<(String, MatrixSpec)> {
        let mut t = self.lock();
        loop {
            if let Some(id) = t.queue.pop_front() {
                t.running += 1;
                let entry = t.jobs.get_mut(&id).expect("queued ids are registered");
                entry.phase = JobPhase::Running;
                let matrix = entry.matrix.clone();
                drop(t);
                self.changed.notify_all();
                return Some((id, matrix));
            }
            if t.closed {
                return None;
            }
            t = self.ready.wait(t).expect("registry lock");
        }
    }

    /// Close the table: queued jobs still drain, new submissions shed
    /// and idle workers wake up and exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Jobs waiting in the queue and jobs held by workers, in one view.
    pub fn load(&self) -> (usize, usize) {
        let t = self.lock();
        (t.queue.len(), t.running)
    }

    /// Snapshot one job.
    pub fn get(&self, id: &str) -> Option<JobEntry> {
        self.lock().jobs.get(id).cloned()
    }

    /// Record one finished campaign (optionally a cache hit).
    pub fn record_campaign(&self, id: &str, cache_hit: bool) {
        self.update(id, |e| {
            e.jobs_done += 1;
            if cache_hit {
                e.cache_hits += 1;
            }
        });
    }

    /// Freeze a finished job's artifacts and mark it `Done`.
    pub fn mark_done(&self, id: &str, artifacts: Artifacts) {
        let artifacts = Arc::new(artifacts);
        self.update(id, |e| {
            e.phase = JobPhase::Done;
            e.artifacts = Some(artifacts);
        });
    }

    /// Mark a job `Failed` with an explanation.
    pub fn mark_failed(&self, id: &str, error: String) {
        self.update(id, |e| {
            e.phase = JobPhase::Failed;
            e.error = Some(error);
        });
    }

    /// Block until the job reaches a terminal phase or `timeout` passes;
    /// returns the latest snapshot either way (`None` for unknown ids).
    pub fn wait_terminal(&self, id: &str, timeout: Duration) -> Option<JobEntry> {
        let deadline = Instant::now() + timeout;
        let mut t = self.lock();
        loop {
            match t.jobs.get(id) {
                None => return None,
                Some(e) if e.phase.is_terminal() => return Some(e.clone()),
                Some(e) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Some(e.clone());
                    }
                    let (guard, _) = self
                        .changed
                        .wait_timeout(t, deadline - now)
                        .expect("registry lock");
                    t = guard;
                }
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table> {
        self.table.lock().expect("registry lock")
    }

    /// Apply a transition; a running job that turns terminal releases
    /// its running slot.
    fn update(&self, id: &str, f: impl FnOnce(&mut JobEntry)) {
        {
            let mut guard = self.lock();
            let t = &mut *guard;
            if let Some(entry) = t.jobs.get_mut(id) {
                let was_running = entry.phase == JobPhase::Running;
                f(entry);
                if was_running && entry.phase.is_terminal() {
                    t.running -= 1;
                }
            }
        }
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_core::ScenarioSpec;

    fn matrix() -> MatrixSpec {
        MatrixSpec {
            scenarios: vec![ScenarioSpec::new("t", 1, "helsinki")],
            seed_start: 0,
            seeds: 2,
        }
    }

    fn shed_hint(admission: Admission) -> u64 {
        match admission {
            Admission::Shed { retry_after_s } => retry_after_s,
            other => panic!("expected Shed, got {other:?}"),
        }
    }

    fn next_id(reg: &JobRegistry) -> Option<String> {
        reg.next_job().map(|(id, _)| id)
    }

    #[test]
    fn job_id_is_whitespace_insensitive_and_stable() {
        let m = matrix();
        let id = job_id(&m).expect("hashes");
        assert_eq!(id.len(), 16);
        // Round-tripping through pretty JSON does not change the id.
        let reparsed = MatrixSpec::from_json(&m.to_json().expect("serializes")).expect("parses");
        assert_eq!(job_id(&reparsed).expect("hashes"), id);
        // A different matrix gets a different id.
        let mut other = matrix();
        other.seeds = 3;
        assert_ne!(job_id(&other).expect("hashes"), id);
    }

    #[test]
    fn lifecycle_updates_are_visible() {
        let reg = JobRegistry::new(4);
        reg.submit("a", &matrix());
        let (id, m) = reg.next_job().expect("queued");
        assert_eq!((id.as_str(), m.jobs(), reg.load()), ("a", 2, (0, 1)));
        reg.record_campaign("a", false);
        reg.record_campaign("a", true);
        let e = reg.get("a").expect("present");
        assert_eq!(
            (e.phase, e.jobs_done, e.cache_hits),
            (JobPhase::Running, 2, 1)
        );
        reg.mark_done("a", Artifacts::default());
        let done = reg.get("a").expect("present");
        assert_eq!((done.phase, reg.load()), (JobPhase::Done, (0, 0)));
        // Snapshots share the frozen artifacts rather than copying them.
        let again = reg.get("a").and_then(|e| e.artifacts).expect("done");
        assert!(Arc::ptr_eq(&done.artifacts.expect("done"), &again));
    }

    #[test]
    fn sheds_above_capacity_with_backoff_hint_but_still_deduplicates() {
        let reg = JobRegistry::new(2);
        let m = matrix();
        assert!(matches!(reg.submit("a", &m), Admission::New));
        assert!(matches!(reg.submit("b", &m), Admission::New));
        assert!(shed_hint(reg.submit("c", &m)) >= 1);
        assert_eq!(reg.load(), (2, 0));
        assert!(reg.get("c").is_none(), "a shed job is never registered");
        match reg.submit("a", &m) {
            Admission::Deduplicated(e) => {
                assert_eq!((e.phase, e.jobs_total), (JobPhase::Queued, 2))
            }
            other => panic!("expected Deduplicated, got {other:?}"),
        }
        // Dequeuing one admits one more.
        assert_eq!(next_id(&reg).as_deref(), Some("a"));
        assert!(matches!(reg.submit("c", &m), Admission::New));
        reg.mark_failed("a", "boom".into());
        assert_eq!(reg.load(), (2, 0));
    }

    #[test]
    fn retry_after_grows_with_backlog_and_clamps() {
        let reg = JobRegistry::new(1);
        let m = matrix();
        reg.submit("a", &m);
        let one = shed_hint(reg.submit("x", &m));
        // Pull the job to running; backlog (1 queued + 1 running) after refill.
        next_id(&reg).expect("job");
        reg.submit("b", &m);
        assert_eq!((one, shed_hint(reg.submit("x", &m))), (2, 4));
        let deep = JobRegistry::new(40);
        for i in 0..40 {
            deep.submit(&format!("j{i}"), &m);
        }
        assert_eq!(shed_hint(deep.submit("x", &m)), 60);
    }

    #[test]
    fn fifo_order_and_close_wakes_workers() {
        let reg = Arc::new(JobRegistry::new(8));
        let m = matrix();
        reg.submit("a", &m);
        reg.submit("b", &m);
        assert_eq!(next_id(&reg).as_deref(), Some("a"));
        // A blocked worker exits when the table closes, but queued jobs
        // drain first.
        let worker = {
            let reg = reg.clone();
            std::thread::spawn(move || (next_id(&reg), next_id(&reg)))
        };
        std::thread::sleep(Duration::from_millis(20));
        reg.close();
        assert_eq!(worker.join().expect("worker"), (Some("b".into()), None));
        // A closed table sheds new work with a 1 s hint, but still
        // deduplicates known ids.
        assert_eq!(shed_hint(reg.submit("c", &m)), 1);
        assert!(reg.get("c").is_none());
        assert!(matches!(reg.submit("a", &m), Admission::Deduplicated(_)));
    }

    #[test]
    fn concurrent_identical_submissions_agree_on_one_outcome() {
        let reg = JobRegistry::new(1);
        let m = matrix();
        reg.submit("filler", &m);
        let race = |id: &str| -> Vec<Admission> {
            std::thread::scope(|s| {
                let racers: Vec<_> = (0..8).map(|_| s.spawn(|| reg.submit(id, &m))).collect();
                racers
                    .into_iter()
                    .map(|h| h.join().expect("racer"))
                    .collect()
            })
        };

        // Queue full: every racer is shed and nothing is left behind.
        let shed = race("x");
        assert!(shed.iter().all(|a| matches!(a, Admission::Shed { .. })));
        assert!(reg.get("x").is_none());

        // One slot free: exactly one racer registers, the rest see it
        // queued.
        next_id(&reg).expect("filler");
        let raced = race("y");
        let new = raced.iter().filter(|a| matches!(a, Admission::New));
        let deduped = raced
            .iter()
            .filter(|a| matches!(a, Admission::Deduplicated(e) if e.phase == JobPhase::Queued));
        assert_eq!((new.count(), deduped.count()), (1, 7));
        assert!(reg.get("y").is_some());
    }

    #[test]
    fn wait_terminal_returns_on_completion_and_on_timeout() {
        let reg = Arc::new(JobRegistry::new(4));
        reg.submit("a", &matrix());
        // Timeout path: still queued after 10 ms.
        let e = reg
            .wait_terminal("a", Duration::from_millis(10))
            .expect("present");
        assert_eq!(e.phase, JobPhase::Queued);
        // Completion path: a thread finishes the job while we wait.
        let bg = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                reg.mark_failed("a", "boom".into());
            })
        };
        let e = reg
            .wait_terminal("a", Duration::from_secs(5))
            .expect("present");
        assert_eq!(e.phase, JobPhase::Failed);
        assert_eq!(e.error.as_deref(), Some("boom"));
        bg.join().expect("bg");
        // Unknown id.
        assert!(reg.wait_terminal("zz", Duration::from_millis(1)).is_none());
    }
}
