//! The documented event history, as a replayable script.
//!
//! Everything §3–4 pins to a date goes here:
//!
//! * the tent modifications, in order of appearance **R** (reflective foil),
//!   **I** (inner tent removed), **B** (bottom tarpaulin partially removed,
//!   front door half-open) and **F** (desk fan) — Fig. 3's letter marks;
//! * the sensor-chip saga on the longest-running host (#1): deep-cold fault
//!   after the −22 °C snap, the re-detection attempt that made the chip
//!   vanish, and the warm reboot a week later that fixed it;
//! * host #15's two failures (Mar 7 04:40 and Mar 17 12:20), its removal
//!   indoors and its replacement by machine #19;
//! * the two switch failures after ≈ a week of tent operation and the
//!   service restoration;
//! * the five wrong md5sums: one each on two tent hosts, three on one
//!   basement host (§4.2.2).
//!
//! Exact dates the paper does not state (tent-mod days, wrong-hash days)
//! are placed consistently with the figure and the narrative; they are
//! constants here so EXPERIMENTS.md can cite them.

use frostlab_simkern::time::SimTime;
use frostlab_thermal::tent::TentConfig;

/// One scripted occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptedEvent {
    /// Change the tent's modification state (the R/I/B/F steps).
    TentReconfig {
        /// Figure-3 letter for this step.
        mark: char,
        /// The new configuration.
        config: TentConfig,
    },
    /// A transient system failure (hang) on a host.
    HostHang {
        /// Host number.
        host: u32,
    },
    /// The sensor chip on `host` goes erratic (−111 °C readings).
    SensorColdFault {
        /// Host number.
        host: u32,
    },
    /// Staff try to re-detect the chip (it vanishes instead).
    SensorRedetect {
        /// Host number.
        host: u32,
    },
    /// The risked warm reboot that brought the chip back.
    SensorWarmReboot {
        /// Host number.
        host: u32,
    },
    /// A tent switch dies.
    SwitchDown {
        /// Switch index (0 or 1).
        switch: usize,
    },
    /// The switch is back in service (replacement unit installed).
    SwitchRestored {
        /// Switch index.
        switch: usize,
    },
    /// Corrupt the host's next pack-verify run with one bit flip.
    FlipNextRun {
        /// Host number.
        host: u32,
    },
}

/// The full scripted history, time-ordered.
pub fn paper_script() -> Vec<(SimTime, ScriptedEvent)> {
    use ScriptedEvent::*;
    let t = SimTime::from_ymd_hms;
    let mut ev = vec![
        // --- tent modifications (Fig. 3 marks, in order R, I, B, F) ---
        (
            t(2010, 2, 26, 12, 0, 0),
            TentReconfig {
                mark: 'R',
                config: TentConfig {
                    foil: true,
                    ..TentConfig::initial()
                },
            },
        ),
        (
            t(2010, 3, 6, 12, 0, 0),
            TentReconfig {
                mark: 'I',
                config: TentConfig {
                    foil: true,
                    inner_removed: true,
                    ..TentConfig::initial()
                },
            },
        ),
        (
            t(2010, 3, 16, 12, 0, 0),
            TentReconfig {
                mark: 'B',
                config: TentConfig {
                    foil: true,
                    inner_removed: true,
                    tarpaulin_removed: true,
                    door_half_open: true,
                    fan: false,
                },
            },
        ),
        (
            t(2010, 3, 31, 12, 0, 0),
            TentReconfig {
                mark: 'F',
                config: TentConfig::fully_modified(),
            },
        ),
        // --- sensor-chip saga on host #1 (§4.2.1) ---
        (t(2010, 2, 25, 5, 0, 0), SensorColdFault { host: 1 }),
        (t(2010, 3, 1, 11, 0, 0), SensorRedetect { host: 1 }),
        (t(2010, 3, 8, 11, 0, 0), SensorWarmReboot { host: 1 }),
        // --- host #15 (§4.2.1) ---
        (t(2010, 3, 7, 4, 40, 0), HostHang { host: 15 }),
        (t(2010, 3, 17, 12, 20, 0), HostHang { host: 15 }),
        // --- switches (§4.2.1): both died after ≈ a week in the tent ---
        (t(2010, 2, 26, 9, 0, 0), SwitchDown { switch: 0 }),
        (t(2010, 2, 28, 14, 0, 0), SwitchDown { switch: 1 }),
        (t(2010, 3, 1, 11, 30, 0), SwitchRestored { switch: 0 }),
        (t(2010, 3, 1, 11, 30, 0), SwitchRestored { switch: 1 }),
        // --- the five wrong hashes (§4.2.2) ---
        (t(2010, 3, 12, 14, 0, 0), FlipNextRun { host: 3 }),
        (t(2010, 4, 2, 9, 0, 0), FlipNextRun { host: 10 }),
        (t(2010, 3, 20, 7, 0, 0), FlipNextRun { host: 9 }),
        (t(2010, 4, 10, 16, 0, 0), FlipNextRun { host: 9 }),
        (t(2010, 4, 28, 2, 0, 0), FlipNextRun { host: 9 }),
    ];
    ev.sort_by_key(|(at, _)| *at);
    ev
}

/// The Fig. 3 letter marks: `(letter, time)` in order of appearance.
pub fn tent_mod_marks() -> Vec<(char, SimTime)> {
    paper_script()
        .into_iter()
        .filter_map(|(at, ev)| match ev {
            ScriptedEvent::TentReconfig { mark, .. } => Some((mark, at)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_time_ordered() {
        let s = paper_script();
        for w in s.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn marks_in_paper_order() {
        let marks: Vec<char> = tent_mod_marks().iter().map(|&(m, _)| m).collect();
        assert_eq!(
            marks,
            vec!['R', 'I', 'B', 'F'],
            "order of appearance per §4.1"
        );
    }

    #[test]
    fn host15_failure_times_match_paper() {
        let s = paper_script();
        let hangs: Vec<SimTime> = s
            .iter()
            .filter_map(|(at, ev)| match ev {
                ScriptedEvent::HostHang { host: 15 } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(hangs.len(), 2);
        assert_eq!(hangs[0], SimTime::from_ymd_hms(2010, 3, 7, 4, 40, 0));
        assert_eq!(hangs[1], SimTime::from_ymd_hms(2010, 3, 17, 12, 20, 0));
    }

    #[test]
    fn five_wrong_hashes_two_tent_three_basement() {
        let s = paper_script();
        let flips: Vec<u32> = s
            .iter()
            .filter_map(|(_, ev)| match ev {
                ScriptedEvent::FlipNextRun { host } => Some(*host),
                _ => None,
            })
            .collect();
        assert_eq!(flips.len(), 5);
        // Hosts 3 and 10 are tent hosts; host 9 is a basement twin.
        assert_eq!(flips.iter().filter(|&&h| h == 9).count(), 3);
        assert!(flips.contains(&3) && flips.contains(&10));
    }

    #[test]
    fn switches_fail_about_a_week_in() {
        let start = SimTime::from_date(2010, 2, 19);
        for (at, ev) in paper_script() {
            if let ScriptedEvent::SwitchDown { .. } = ev {
                let days = (at - start).as_days_f64();
                assert!((5.0..12.0).contains(&days), "switch died {days} days in");
            }
        }
    }
}
