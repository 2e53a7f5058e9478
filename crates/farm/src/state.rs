//! Queue state rebuilt from a WAL replay.
//!
//! [`FarmState::apply`] folds one [`WalRecord`] into the per-job table.
//! The fold is **idempotent and monotone**: terminal states
//! ([`JobStatus::Done`], [`JobStatus::Quarantined`]) absorb everything,
//! failure counts take the max of what's recorded, and lease epochs only
//! move forward. Replaying a WAL prefix twice therefore yields exactly
//! the state of replaying it once — the property the recovery proptests
//! in `tests/wal_recovery.rs` pin down.

use crate::wal::{kind, WalRecord};

/// Where one job sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Pending,
    /// Leased by a worker (possibly a dead one — see
    /// [`FarmState::requeue_orphans`]).
    Leased,
    /// Finished; a result with the job's content key exists in the store.
    Done,
    /// Exhausted its retry budget; removed from the queue permanently.
    Quarantined,
}

/// Rebuilt per-job bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobState {
    /// Current lifecycle position.
    pub status: JobStatus,
    /// Failed attempts recorded so far.
    pub attempts: u64,
    /// Epoch of the most recent lease (0 = never leased).
    pub lease_epoch: u64,
    /// For `Done`: whether the recorded completion was cache-served.
    pub cached: bool,
}

impl JobState {
    fn fresh() -> JobState {
        JobState {
            status: JobStatus::Pending,
            attempts: 0,
            lease_epoch: 0,
            cached: false,
        }
    }

    fn terminal(&self) -> bool {
        matches!(self.status, JobStatus::Done | JobStatus::Quarantined)
    }
}

/// Whole-queue state: one slot per manifest job, plus the epoch counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmState {
    /// Per-job states, indexed by manifest job index.
    pub jobs: Vec<JobState>,
    /// Highest epoch seen in any record (0 = no run has started).
    pub epoch: u64,
}

impl FarmState {
    /// A fresh queue of `len` pending jobs.
    pub fn new(len: usize) -> FarmState {
        FarmState {
            jobs: vec![JobState::fresh(); len],
            epoch: 0,
        }
    }

    /// Rebuild state by folding a replayed record sequence.
    pub fn replay<'a>(len: usize, records: impl IntoIterator<Item = &'a WalRecord>) -> FarmState {
        let mut state = FarmState::new(len);
        for record in records {
            state.apply(record);
        }
        state
    }

    /// Fold one record into the state. Records referencing jobs outside
    /// the manifest (possible only if the manifest and WAL disagree,
    /// which [`crate::supervisor::Farm`] rejects earlier) are ignored
    /// rather than panicking.
    pub fn apply(&mut self, record: &WalRecord) {
        self.epoch = self.epoch.max(record.epoch);
        let Some(job) = self.jobs.get_mut(record.job as usize) else {
            return;
        };
        match record.kind.as_str() {
            kind::LEASE if !job.terminal() => {
                job.status = JobStatus::Leased;
                job.lease_epoch = job.lease_epoch.max(record.epoch);
            }
            kind::COMPLETE if job.status != JobStatus::Quarantined => {
                job.status = JobStatus::Done;
                job.cached = record.cached;
            }
            kind::FAIL if !job.terminal() => {
                job.status = JobStatus::Pending;
                job.attempts = job.attempts.max(record.attempt);
            }
            kind::REQUEUE if !job.terminal() => {
                job.status = JobStatus::Pending;
            }
            kind::QUARANTINE if job.status != JobStatus::Done => {
                job.status = JobStatus::Quarantined;
                job.attempts = job.attempts.max(record.attempt);
            }
            // START and DRAIN only move the epoch watermark; guarded-out
            // records are absorbed by a terminal state. Unknown kinds, such
            // as the `heartbeat` records older farms wrote, are ignored.
            _ => {}
        }
    }

    /// Return every job still leased under an epoch older than
    /// `current_epoch` to the queue — the dead-worker sweep a `resume`
    /// performs before handing out new leases. Returns the requeued job
    /// indices in ascending order.
    pub fn requeue_orphans(&mut self, current_epoch: u64) -> Vec<u64> {
        let mut orphans = Vec::new();
        for (idx, job) in self.jobs.iter_mut().enumerate() {
            if job.status == JobStatus::Leased && job.lease_epoch < current_epoch {
                job.status = JobStatus::Pending;
                orphans.push(idx as u64);
            }
        }
        orphans
    }

    /// Count of jobs in `status`.
    pub fn count(&self, status: JobStatus) -> usize {
        self.jobs.iter().filter(|j| j.status == status).count()
    }

    /// True when no job is pending or leased.
    pub fn settled(&self) -> bool {
        self.jobs.iter().all(JobState::terminal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_all_pending() {
        let state = FarmState::new(3);
        assert_eq!(state.count(JobStatus::Pending), 3);
        assert_eq!(state.epoch, 0);
        assert!(!state.settled());
    }

    #[test]
    fn lease_then_complete_is_done() {
        let records = [
            WalRecord::start(1),
            WalRecord::lease(1, 0, 1),
            WalRecord::complete(1, 0, 1, true),
        ];
        let state = FarmState::replay(2, &records);
        assert_eq!(state.jobs[1].status, JobStatus::Done);
        assert!(state.jobs[1].cached);
        assert_eq!(state.jobs[0].status, JobStatus::Pending);
        assert_eq!(state.epoch, 1);
    }

    #[test]
    fn fail_returns_job_to_queue_with_attempt_count() {
        let records = [
            WalRecord::start(1),
            WalRecord::lease(1, 0, 0),
            WalRecord::fail(1, 0, 0, 1, "boom"),
            WalRecord::lease(1, 0, 0),
            WalRecord::fail(1, 0, 0, 2, "boom"),
        ];
        let state = FarmState::replay(1, &records);
        assert_eq!(state.jobs[0].status, JobStatus::Pending);
        assert_eq!(state.jobs[0].attempts, 2);
    }

    #[test]
    fn quarantine_is_terminal_against_later_leases() {
        let records = [
            WalRecord::quarantine(1, 0, 3, "poison"),
            WalRecord::lease(2, 0, 0),
            WalRecord::fail(2, 0, 0, 1, "boom"),
        ];
        let state = FarmState::replay(1, &records);
        assert_eq!(state.jobs[0].status, JobStatus::Quarantined);
        assert_eq!(state.jobs[0].attempts, 3);
    }

    #[test]
    fn done_is_terminal_against_later_records() {
        let records = [
            WalRecord::complete(1, 0, 0, false),
            WalRecord::lease(2, 0, 0),
            WalRecord::requeue(2, 0, "spurious"),
        ];
        let state = FarmState::replay(1, &records);
        assert_eq!(state.jobs[0].status, JobStatus::Done);
    }

    #[test]
    fn replay_twice_equals_replay_once() {
        let records = [
            WalRecord::start(1),
            WalRecord::lease(1, 0, 0),
            WalRecord::fail(1, 0, 0, 1, "x"),
            WalRecord::lease(1, 1, 1),
            WalRecord::complete(1, 1, 1, false),
            WalRecord::start(2),
            WalRecord::requeue(2, 0, "orphan"),
        ];
        let once = FarmState::replay(3, &records);
        let twice = FarmState::replay(3, records.iter().chain(records.iter()));
        assert_eq!(once, twice);
    }

    #[test]
    fn orphan_sweep_requeues_only_stale_epochs() {
        let records = [
            WalRecord::start(1),
            WalRecord::lease(1, 0, 0),
            WalRecord::start(2),
            WalRecord::lease(2, 0, 1),
        ];
        let mut state = FarmState::replay(3, &records);
        let orphans = state.requeue_orphans(2);
        assert_eq!(orphans, vec![0]);
        assert_eq!(state.jobs[0].status, JobStatus::Pending);
        assert_eq!(state.jobs[1].status, JobStatus::Leased);
    }

    #[test]
    fn out_of_range_job_indices_are_ignored() {
        let records = [WalRecord::lease(1, 0, 99)];
        let state = FarmState::replay(2, &records);
        assert_eq!(state.count(JobStatus::Pending), 2);
        assert_eq!(state.epoch, 1);
    }
}
