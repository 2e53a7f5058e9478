//! Deterministic chaos injection for the collection pipeline.
//!
//! §4.2.1 happened to the authors once; this module makes it happen to the
//! simulated pipeline on demand, and reproducibly. A [`ChaosEngine`]
//! pre-generates a schedule of adverse events — link-loss bursts, switch
//! deaths, host hangs and reboots, sensor freezes — by
//! drawing exponential interarrival times on **per-fault-class RNG streams**
//! derived from the campaign seed. Because each class draws from its own
//! stream ([`frostlab_simkern::rng::Rng::derive`] is draw-count
//! independent), changing the rate of one fault class does not shift the
//! timing of any other: experiments stay comparable across chaos settings.
//!
//! The engine is pure data + RNG; *applying* the events (taking a switch
//! down, hanging a host) is the orchestrator's job. A class whose rate is
//! zero draws nothing and schedules nothing, and a campaign without a
//! [`ChaosConfig`] builds no engine at all, so it is bit-identical to one
//! built before this module existed.

use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};

/// Mean intervals between injected events, per fault class. A zero interval
/// disables the class entirely (no RNG draws, no events).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Mean time between link-loss bursts on the monitoring fabric.
    pub link_loss_every: SimDuration,
    /// How long a link-loss burst lasts.
    pub link_loss_burst: SimDuration,
    /// Probability a collection attempt fails during a loss burst.
    pub link_loss_prob: f64,
    /// Mean time between switch deaths.
    pub switch_death_every: SimDuration,
    /// Mean time between host hangs (per fleet, not per host).
    pub host_hang_every: SimDuration,
    /// Mean time between spontaneous host reboots.
    pub host_reboot_every: SimDuration,
    /// Mean time between sensor-chip freezes (the −111 °C cold fault).
    pub sensor_freeze_every: SimDuration,
}

impl ChaosConfig {
    /// A mildly hostile campaign: a few bursts a week, roughly one switch
    /// death a month, occasional host trouble — §4.2.1 levels of adversity.
    pub fn paper_like() -> Self {
        ChaosConfig {
            link_loss_every: SimDuration::days(2),
            link_loss_burst: SimDuration::hours(2),
            link_loss_prob: 0.6,
            switch_death_every: SimDuration::days(30),
            host_hang_every: SimDuration::days(20),
            host_reboot_every: SimDuration::days(25),
            sensor_freeze_every: SimDuration::days(40),
        }
    }
}

/// One injected adverse event.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// The fabric starts dropping collection traffic.
    LinkLossBurst {
        /// Per-attempt failure probability while the burst lasts.
        loss: f64,
        /// Burst length.
        duration: SimDuration,
    },
    /// A monitoring switch dies (the §4.2.1 failure mode).
    SwitchDeath {
        /// Which switch.
        switch: usize,
    },
    /// A host hangs hard enough to need operator attention.
    HostHang {
        /// Which host.
        host: u32,
    },
    /// A host spontaneously reboots (transient; no operator needed).
    HostReboot {
        /// Which host.
        host: u32,
    },
    /// A host's sensor chip freezes into the −111 °C cold fault.
    SensorFreeze {
        /// Which host.
        host: u32,
    },
}

/// A pre-generated, time-sorted schedule of chaos events.
#[derive(Debug)]
pub struct ChaosEngine {
    schedule: Vec<(SimTime, ChaosEvent)>,
    next: usize,
}

impl ChaosEngine {
    /// Generate the schedule for one campaign window.
    ///
    /// `hosts` are the candidate victims for host-level faults; `switches`
    /// is the fabric size. `rng` is borrowed only to derive per-class
    /// streams — the caller's draw position is unaffected.
    pub fn generate(
        cfg: &ChaosConfig,
        window: (SimTime, SimTime),
        hosts: &[u32],
        switches: usize,
        rng: &Rng,
    ) -> Self {
        let root = rng.derive("chaos");
        let mut schedule: Vec<(SimTime, ChaosEvent)> = Vec::new();

        // One sweep per fault class, each on its own derived stream.
        let sweep = |label: &str,
                     every: SimDuration,
                     schedule: &mut Vec<(SimTime, ChaosEvent)>,
                     make: &mut dyn FnMut(&mut Rng) -> Option<ChaosEvent>| {
            if every <= SimDuration::ZERO {
                return;
            }
            let mut stream = root.derive(label);
            let lambda = 1.0 / every.as_secs() as f64;
            let mut at = window.0;
            loop {
                let dt = stream.exponential(lambda).max(1.0);
                at += SimDuration::secs(dt as i64 + 1);
                if at >= window.1 {
                    break;
                }
                if let Some(ev) = make(&mut stream) {
                    schedule.push((at, ev));
                }
            }
        };

        sweep("link-loss", cfg.link_loss_every, &mut schedule, &mut |_| {
            Some(ChaosEvent::LinkLossBurst {
                loss: cfg.link_loss_prob,
                duration: cfg.link_loss_burst,
            })
        });
        sweep(
            "switch-death",
            cfg.switch_death_every,
            &mut schedule,
            &mut |s| {
                if switches == 0 {
                    return None;
                }
                Some(ChaosEvent::SwitchDeath {
                    switch: s.below(switches as u64) as usize,
                })
            },
        );
        sweep("host-hang", cfg.host_hang_every, &mut schedule, &mut |s| {
            if hosts.is_empty() {
                return None;
            }
            Some(ChaosEvent::HostHang {
                host: *s.choose(hosts),
            })
        });
        sweep(
            "host-reboot",
            cfg.host_reboot_every,
            &mut schedule,
            &mut |s| {
                if hosts.is_empty() {
                    return None;
                }
                Some(ChaosEvent::HostReboot {
                    host: *s.choose(hosts),
                })
            },
        );
        sweep(
            "sensor-freeze",
            cfg.sensor_freeze_every,
            &mut schedule,
            &mut |s| {
                if hosts.is_empty() {
                    return None;
                }
                Some(ChaosEvent::SensorFreeze {
                    host: *s.choose(hosts),
                })
            },
        );

        schedule.sort_by_key(|(at, _)| *at);
        ChaosEngine { schedule, next: 0 }
    }

    /// Events due at or before `now`, in time order. Each event is returned
    /// exactly once.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<(SimTime, ChaosEvent)> {
        let start = self.next;
        while self.next < self.schedule.len() && self.schedule[self.next].0 <= now {
            self.next += 1;
        }
        self.schedule[start..self.next].to_vec()
    }

    /// Total events scheduled for the window.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// True when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The full schedule (for inspection and tests).
    pub fn schedule(&self) -> &[(SimTime, ChaosEvent)] {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> (SimTime, SimTime) {
        let start = SimTime::from_date(2010, 2, 19);
        (start, start + SimDuration::days(90))
    }

    #[test]
    fn paper_like_config_populates_every_class() {
        let rng = Rng::new(7);
        let engine = ChaosEngine::generate(
            &ChaosConfig::paper_like(),
            window(),
            &[1, 2, 3, 15],
            2,
            &rng,
        );
        assert!(engine.len() > 10, "90 hostile days should be eventful");
        let has = |f: &dyn Fn(&ChaosEvent) -> bool| engine.schedule().iter().any(|(_, e)| f(e));
        assert!(has(&|e| matches!(e, ChaosEvent::LinkLossBurst { .. })));
        assert!(has(&|e| matches!(e, ChaosEvent::SwitchDeath { .. })));
        assert!(has(&|e| matches!(e, ChaosEvent::HostHang { .. })));
        assert!(has(&|e| matches!(e, ChaosEvent::SensorFreeze { .. })));
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let make = || {
            let rng = Rng::new(42);
            ChaosEngine::generate(&ChaosConfig::paper_like(), window(), &[1, 2], 2, &rng)
        };
        let a = make();
        let b = make();
        assert_eq!(a.schedule(), b.schedule());
        assert!(a.schedule().windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn class_rates_are_independent_streams() {
        // Turning one class off must not move any other class's events.
        let rng = Rng::new(42);
        let full = ChaosEngine::generate(&ChaosConfig::paper_like(), window(), &[1, 2], 2, &rng);
        let mut cfg = ChaosConfig::paper_like();
        cfg.link_loss_every = SimDuration::ZERO;
        let partial = ChaosEngine::generate(&cfg, window(), &[1, 2], 2, &rng);
        let deaths = |e: &ChaosEngine| {
            e.schedule()
                .iter()
                .filter(|(_, ev)| matches!(ev, ChaosEvent::SwitchDeath { .. }))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(deaths(&full), deaths(&partial));
    }

    #[test]
    fn generate_does_not_disturb_the_caller_rng() {
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        let _ = ChaosEngine::generate(&ChaosConfig::paper_like(), window(), &[1], 1, &a);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn pop_due_returns_each_event_once_in_order() {
        let rng = Rng::new(7);
        let mut engine =
            ChaosEngine::generate(&ChaosConfig::paper_like(), window(), &[1, 2, 3], 2, &rng);
        let total = engine.len();
        let (start, end) = window();
        let mut seen = 0;
        let mut t = start;
        while t <= end {
            seen += engine.pop_due(t).len();
            t += SimDuration::hours(6);
        }
        assert_eq!(seen, total);
        assert!(engine.pop_due(end).is_empty(), "nothing left");
    }

    #[test]
    fn events_fall_inside_the_window() {
        let rng = Rng::new(11);
        let engine =
            ChaosEngine::generate(&ChaosConfig::paper_like(), window(), &[1, 2, 3], 2, &rng);
        let (start, end) = window();
        for (at, _) in engine.schedule() {
            assert!(*at > start && *at < end);
        }
    }
}
