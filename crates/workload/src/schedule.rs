//! The 10-minute load cadence with desynchronization jitter.
//!
//! §3.5: every host runs the load every 10 minutes, sleeping 0–119 seconds
//! first so the fleet does not hammer the network (and the shared switch
//! uplink) in lockstep. [`LoadSchedule`] produces each host's next start
//! time from its own derived RNG stream.

use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};

/// Jitter bound from the paper: 0–119 seconds.
const MAX_JITTER_SECS: i64 = 119;

/// The periodic schedule of one host's synthetic load.
#[derive(Debug, Clone)]
pub struct LoadSchedule {
    /// Cycle period (paper: 10 minutes).
    pub period: SimDuration,
    rng: Rng,
    /// Cycle boundary the next run belongs to.
    next_cycle_start: SimTime,
}

impl LoadSchedule {
    /// Create a schedule starting from the host's install time.
    pub fn new(install_at: SimTime, host_seed_rng: &Rng) -> Self {
        LoadSchedule {
            period: SimDuration::minutes(10),
            rng: host_seed_rng.derive("load-schedule"),
            next_cycle_start: install_at,
        }
    }

    /// The start time of the next run: cycle boundary + fresh jitter.
    /// Advances the schedule by one period.
    pub fn next_run(&mut self) -> SimTime {
        let jitter = SimDuration::secs(self.rng.range_i64(0, MAX_JITTER_SECS));
        let start = self.next_cycle_start + jitter;
        self.next_cycle_start += self.period;
        start
    }

    /// Skip cycles while the host is hung/off; resumes at the first cycle
    /// boundary at or after `t`.
    pub fn resume_at(&mut self, t: SimTime) {
        while self.next_cycle_start < t {
            self.next_cycle_start += self.period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> LoadSchedule {
        LoadSchedule::new(SimTime::from_date(2010, 2, 19), &Rng::new(seed))
    }

    #[test]
    fn runs_every_ten_minutes_with_jitter() {
        let mut s = schedule(1);
        let t0 = SimTime::from_date(2010, 2, 19);
        for i in 0..100 {
            let run = s.next_run();
            let boundary = t0 + SimDuration::minutes(10 * i);
            let offset = (run - boundary).as_secs();
            assert!(
                (0..=MAX_JITTER_SECS).contains(&offset),
                "cycle {i}: jitter {offset}"
            );
        }
    }

    #[test]
    fn jitter_varies_between_cycles() {
        let mut s = schedule(2);
        let t0 = SimTime::from_date(2010, 2, 19);
        let offsets: Vec<i64> = (0..50)
            .map(|i| (s.next_run() - (t0 + SimDuration::minutes(10 * i))).as_secs())
            .collect();
        let distinct: std::collections::BTreeSet<i64> = offsets.iter().copied().collect();
        assert!(distinct.len() > 10, "jitter should vary, got {distinct:?}");
    }

    #[test]
    fn hosts_desynchronized() {
        let mut a = schedule(1);
        let mut b = LoadSchedule::new(
            SimTime::from_date(2010, 2, 19),
            &Rng::new(1).derive("host2"),
        );
        let same = (0..100).filter(|_| a.next_run() == b.next_run()).count();
        assert!(same < 10, "{same} collisions in 100 cycles");
    }

    #[test]
    fn resume_skips_hung_cycles() {
        let mut s = schedule(3);
        let _ = s.next_run();
        // Host hangs for three hours.
        let resume = SimTime::from_date(2010, 2, 19) + SimDuration::hours(3);
        s.resume_at(resume);
        let next = s.next_run();
        assert!(next >= resume);
        assert!(next - resume < SimDuration::minutes(10) + SimDuration::secs(MAX_JITTER_SECS));
    }

    #[test]
    fn deterministic() {
        let runs = |seed| {
            let mut s = schedule(seed);
            (0..20).map(|_| s.next_run()).collect::<Vec<_>>()
        };
        assert_eq!(runs(7), runs(7));
        assert_ne!(runs(7), runs(8));
    }

    #[test]
    fn about_144_runs_per_day() {
        let mut s = schedule(4);
        let day_end = SimTime::from_date(2010, 2, 20);
        let mut count = 0;
        loop {
            let run = s.next_run();
            if run >= day_end {
                break;
            }
            count += 1;
        }
        assert_eq!(count, 144);
    }
}
