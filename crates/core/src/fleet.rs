//! The fleet: 19 machines, pairwise placement, and the Fig. 2 timeline.
//!
//! §3.4: ten hosts from vendor A, four from vendor B (the known-unreliable
//! SFF series) and four from vendor C (2U servers) — eighteen machines
//! installed pairwise, nine in the tent and nine in the basement, plus a
//! nineteenth that replaced host #15 after its second failure.
//!
//! The paper's Fig. 2 shows tent-host install dates between Feb 19 and
//! Mar 26 (with "the last of the hosts … installed March 13th" per §4 and
//! the #15 replacement as the final event). The exact per-host dates are
//! only partially legible from the figure; the timeline below follows its
//! tick marks (Feb 19, Feb 24/25, Mar 05, Mar 10, Mar 17, Mar 26) and the
//! constraints in the text (e.g. #15 was running in the tent before its
//! Mar 7 failure).

use frostlab_faults::repair::HostRecord;
use frostlab_hardware::server::Vendor;
use frostlab_simkern::time::{SimDuration, SimTime};
use frostlab_workload::stats::Placement;

/// One machine's static plan.
#[derive(Debug, Clone)]
pub struct HostPlan {
    /// Paper host number (tent hosts use the Fig. 2 numbers).
    pub id: u32,
    /// Vendor.
    pub vendor: Vendor,
    /// From the known-defective vendor-B series?
    pub defective: bool,
    /// Tent or basement.
    pub placement: Placement,
    /// Install (power-on) time.
    pub install_at: SimTime,
    /// The identical twin in the other group (pairwise installation).
    pub pair: u32,
    /// True for machine #19, the spare that replaced #15.
    pub is_replacement: bool,
    /// Enclosure zone index within the placement kind. The paper's fleet
    /// shares one tent and one basement room, so every host is zone 0;
    /// generated fleets spread over many tents/rooms so the thermal model
    /// stays physical at scale.
    pub zone: u32,
}

/// The paper's fleet. Tent hosts carry the Fig. 2 numbers
/// (01 02 03 06 10 11 14 15 18); their basement twins take the remaining
/// numbers; #19 is the replacement spare (installed only in scripted runs
/// after #15 is withdrawn).
pub fn paper_fleet() -> Vec<HostPlan> {
    let d = |y: i32, m: u32, day: u32| {
        SimTime::from_date(y, m, day) + frostlab_simkern::time::SimDuration::hours(11)
    };
    let mut fleet = Vec::new();
    // (tent_id, twin_id, vendor, defective, install_date)
    let rows: [(u32, u32, Vendor, bool, SimTime); 9] = [
        (1, 4, Vendor::A, false, d(2010, 2, 19)),
        (2, 5, Vendor::A, false, d(2010, 2, 19)),
        (3, 7, Vendor::A, false, d(2010, 2, 19)),
        (6, 8, Vendor::A, false, d(2010, 2, 24)),
        (10, 9, Vendor::A, false, d(2010, 2, 25)),
        (11, 12, Vendor::B, true, d(2010, 3, 5)),
        (15, 16, Vendor::B, true, d(2010, 3, 5)),
        (14, 13, Vendor::C, false, d(2010, 3, 10)),
        (18, 17, Vendor::C, false, d(2010, 3, 13)),
    ];
    for (tent_id, twin_id, vendor, defective, at) in rows {
        fleet.push(HostPlan {
            id: tent_id,
            vendor,
            defective,
            placement: Placement::Tent,
            install_at: at,
            pair: twin_id,
            is_replacement: false,
            zone: 0,
        });
        fleet.push(HostPlan {
            id: twin_id,
            vendor,
            defective,
            placement: Placement::Basement,
            install_at: at,
            pair: tent_id,
            is_replacement: false,
            zone: 0,
        });
    }
    // #19: the spare that replaced #15 in the tent (same vendor-B series).
    fleet.push(HostPlan {
        id: 19,
        vendor: Vendor::B,
        defective: false, // the replacement "has not failed" — a sound unit
        placement: Placement::Tent,
        install_at: d(2010, 3, 26),
        pair: 16,
        is_replacement: true,
        zone: 0,
    });
    fleet.sort_by_key(|h| h.id);
    fleet
}

/// Which fleet a campaign simulates.
///
/// This is the determinism boundary for scale: per-host randomness is
/// derived from the label `host/{id}` off the experiment seed, so host #3's
/// fault train, job-corruption stream and store keys are identical whether
/// the fleet has 19 hosts or 10,000 — growing a fleet appends streams, it
/// never reshuffles existing ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FleetSpec {
    /// The paper's 19 machines with the Fig. 2 install timeline.
    #[default]
    Paper,
    /// A generated vendor-mix fleet of `hosts` machines, installed at
    /// campaign start and spread over many tent/basement zones.
    VendorMix {
        /// Total number of machines.
        hosts: u32,
    },
}

/// Hosts per enclosure zone in generated fleets — the paper's tent held
/// nine machines, so generated tents and basement rooms do too.
const HOSTS_PER_ZONE: u32 = 9;

/// Emits host plans for a [`FleetSpec`].
///
/// The paper preset delegates to [`paper_fleet`] unchanged; the vendor-mix
/// generator repeats the paper's 19-host composition (ten vendor A, five
/// vendor B — the defective SFF series — and four vendor C) across the
/// fleet, installs everything at campaign start, places odd ids in tents
/// and even ids in basement rooms (pairwise twins like the paper), and
/// assigns nine machines per thermal zone. No randomness is
/// drawn: the roster is a pure function of the spec.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    spec: FleetSpec,
}

impl FleetBuilder {
    /// Builder for an arbitrary spec.
    pub fn from_spec(spec: FleetSpec) -> Self {
        FleetBuilder { spec }
    }

    /// Emit the host plans. `start` is the campaign start (generated
    /// fleets power on at start; the paper preset keeps its Fig. 2 dates).
    pub fn plans(&self, start: SimTime) -> Vec<HostPlan> {
        match self.spec {
            FleetSpec::Paper => paper_fleet(),
            FleetSpec::VendorMix { hosts } => {
                let mut fleet = Vec::with_capacity(hosts as usize);
                let mut tent_seq = 0u32;
                let mut basement_seq = 0u32;
                for id in 1..=hosts {
                    // Repeat the paper's 19-host vendor composition.
                    let r = (id - 1) % 19;
                    let vendor = if r < 10 {
                        Vendor::A
                    } else if r < 15 {
                        Vendor::B
                    } else {
                        Vendor::C
                    };
                    let placement = if id % 2 == 1 {
                        Placement::Tent
                    } else {
                        Placement::Basement
                    };
                    let zone = match placement {
                        Placement::Tent => {
                            tent_seq += 1;
                            (tent_seq - 1) / HOSTS_PER_ZONE
                        }
                        Placement::Basement => {
                            basement_seq += 1;
                            (basement_seq - 1) / HOSTS_PER_ZONE
                        }
                    };
                    // Pairwise twins: 1↔2, 3↔4, …; a trailing odd host
                    // without a twin pairs with itself.
                    let pair = if id % 2 == 1 {
                        (id + 1).min(hosts)
                    } else {
                        id - 1
                    };
                    fleet.push(HostPlan {
                        id,
                        vendor,
                        // The paper's vendor-B series was the unreliable
                        // one; generated fleets model every B unit that way.
                        defective: vendor == Vendor::B,
                        placement,
                        install_at: start,
                        pair,
                        is_replacement: false,
                        zone,
                    });
                }
                fleet
            }
        }
    }
}

/// Host ids assigned to each of the two tent switches (daisy-chained
/// 8-port units; the monitoring uplink hangs off switch 2).
pub fn switch_assignment(host: u32) -> usize {
    // First six tent installs on switch 0, later arrivals on switch 1.
    match host {
        1 | 2 | 3 | 6 | 10 | 11 => 0,
        _ => 1,
    }
}

/// The spare-switch swap repair policy for the monitoring fabric.
///
/// §4.2.1: the switches came from a defective batch and two of them died
/// during the campaign; each was replaced with a spare unit on the next
/// visit to the roof. The policy models that workflow: a dead switch waits
/// for the next operator inspection window (working days, 10:00 — the same
/// cadence host repairs use) and then takes a fixed swap time to re-cable
/// and power the spare. While spares remain, every switch death has a
/// bounded repair window; once the spares run out the outage lasts until
/// campaign end.
#[derive(Debug, Clone)]
pub struct SwitchFailoverPolicy {
    /// Spare units on the shelf (the paper's batch left a couple unused).
    pub spares: u32,
    /// Hands-on time to swap the spare in once the operator is on site.
    pub swap_time: SimDuration,
}

impl Default for SwitchFailoverPolicy {
    fn default() -> Self {
        SwitchFailoverPolicy {
            spares: 2,
            swap_time: SimDuration::minutes(90),
        }
    }
}

impl SwitchFailoverPolicy {
    /// When a switch that died at `failed_at` comes back, if a spare is
    /// available: the next operator inspection window plus the swap time.
    fn restore_time(&self, failed_at: SimTime) -> SimTime {
        HostRecord::next_inspection(failed_at) + self.swap_time
    }

    /// Consume a spare for one swap. Returns `None` (no restore possible)
    /// when the shelf is empty, otherwise the restore time.
    pub fn take_spare(&mut self, failed_at: SimTime) -> Option<SimTime> {
        if self.spares == 0 {
            return None;
        }
        self.spares -= 1;
        Some(self.restore_time(failed_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_simkern::time::Date;

    #[test]
    fn fleet_composition_matches_paper() {
        let fleet = paper_fleet();
        assert_eq!(fleet.len(), 19);
        let count = |v: Vendor| {
            fleet
                .iter()
                .filter(|h| h.vendor == v && !h.is_replacement)
                .count()
        };
        assert_eq!(count(Vendor::A), 10, "ten hosts from vendor A");
        assert_eq!(count(Vendor::B), 4, "four from B");
        assert_eq!(count(Vendor::C), 4, "four from C");
        let tent = fleet
            .iter()
            .filter(|h| h.placement == Placement::Tent && !h.is_replacement)
            .count();
        let basement = fleet
            .iter()
            .filter(|h| h.placement == Placement::Basement)
            .count();
        assert_eq!(tent, 9, "nine in the tent");
        assert_eq!(basement, 9, "nine in the basement");
    }

    #[test]
    fn pairwise_symmetry() {
        let fleet = paper_fleet();
        let by_id = |id: u32| fleet.iter().find(|h| h.id == id).expect("id present");
        for h in fleet.iter().filter(|h| !h.is_replacement) {
            let twin = by_id(h.pair);
            assert_eq!(twin.vendor, h.vendor, "pair {}/{} vendor", h.id, h.pair);
            assert_ne!(twin.placement, h.placement, "pairs straddle the groups");
            assert_eq!(twin.install_at, h.install_at, "pairs installed together");
        }
    }

    #[test]
    fn timeline_constraints_from_text() {
        let fleet = paper_fleet();
        let by_id = |id: u32| fleet.iter().find(|h| h.id == id).expect("id present");
        // Testing starts Feb 19.
        let first = fleet.iter().map(|h| h.install_at).min().unwrap();
        assert_eq!(first.date(), Date::new(2010, 2, 19).unwrap());
        // #15 installed before its Mar 7 failure.
        assert!(by_id(15).install_at < SimTime::from_ymd_hms(2010, 3, 7, 4, 40, 0));
        // Last initial host on Mar 13 (§4).
        let last_initial = fleet
            .iter()
            .filter(|h| !h.is_replacement)
            .map(|h| h.install_at)
            .max()
            .unwrap();
        assert_eq!(last_initial.date(), Date::new(2010, 3, 13).unwrap());
        // Replacement lands Mar 26 (Fig. 2's final tick).
        assert_eq!(by_id(19).install_at.date(), Date::new(2010, 3, 26).unwrap());
    }

    #[test]
    fn host15_is_defective_vendor_b() {
        let fleet = paper_fleet();
        let h15 = fleet.iter().find(|h| h.id == 15).unwrap();
        assert_eq!(h15.vendor, Vendor::B);
        assert!(h15.defective);
        assert_eq!(h15.placement, Placement::Tent);
    }

    #[test]
    fn switch_assignment_covers_tent() {
        let fleet = paper_fleet();
        for h in fleet.iter().filter(|h| h.placement == Placement::Tent) {
            let sw = switch_assignment(h.id);
            assert!(sw < 2, "host {} on switch {sw}", h.id);
        }
    }

    #[test]
    fn failover_policy_matches_scripted_restores() {
        // Both §4.2.1 switch deaths (Fri Feb 26 09:00 and Sun Feb 28 14:00)
        // wait for the Monday-morning inspection and come back after the
        // 90-minute swap — exactly the paper script's restore events.
        let policy = SwitchFailoverPolicy::default();
        let restored = SimTime::from_ymd_hms(2010, 3, 1, 11, 30, 0);
        assert_eq!(
            policy.restore_time(SimTime::from_ymd_hms(2010, 2, 26, 9, 0, 0)),
            restored
        );
        assert_eq!(
            policy.restore_time(SimTime::from_ymd_hms(2010, 2, 28, 14, 0, 0)),
            restored
        );
    }

    #[test]
    fn spare_shelf_is_finite() {
        let mut policy = SwitchFailoverPolicy::default();
        let at = SimTime::from_ymd_hms(2010, 3, 3, 9, 0, 0);
        let first = policy.take_spare(at);
        assert!(first.is_some());
        assert!(first.unwrap() > at, "repair takes time");
        assert!(policy.take_spare(at).is_some());
        assert_eq!(policy.take_spare(at), None, "shelf empty after two swaps");
    }

    #[test]
    fn ids_unique() {
        let fleet = paper_fleet();
        let mut ids: Vec<u32> = fleet.iter().map(|h| h.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 19);
    }

    /// Pin every install date host-by-host so the `FleetBuilder` refactor
    /// (or any future one) can't silently drift the Fig. 2 timeline.
    #[test]
    fn install_dates_pinned_per_host() {
        let fleet = paper_fleet();
        let date_of = |id: u32| {
            fleet
                .iter()
                .find(|h| h.id == id)
                .expect("id present")
                .install_at
                .date()
        };
        let d = |m: u32, day: u32| Date::new(2010, m, day).unwrap();
        let expected: [(u32, u32, u32); 19] = [
            (1, 2, 19),
            (2, 2, 19),
            (3, 2, 19),
            (4, 2, 19),
            (5, 2, 19),
            (6, 2, 24),
            (7, 2, 19),
            (8, 2, 24),
            (9, 2, 25),
            (10, 2, 25),
            (11, 3, 5),
            (12, 3, 5),
            (13, 3, 10),
            (14, 3, 10),
            (15, 3, 5),
            (16, 3, 5),
            (17, 3, 13),
            (18, 3, 13),
            (19, 3, 26),
        ];
        for (id, m, day) in expected {
            assert_eq!(date_of(id), d(m, day), "host {id} install date");
        }
        // All installs land at the 11:00 site visit.
        for h in &fleet {
            assert_eq!(h.install_at.datetime().hour, 11, "host {} hour", h.id);
        }
    }

    /// The #15 → #19 spare-swap semantics: #19 is the only replacement, a
    /// *sound* vendor-B unit, in the tent, paired with #15's twin (#16),
    /// and the last machine to arrive.
    #[test]
    fn spare_swap_replacement_semantics() {
        let fleet = paper_fleet();
        let replacements: Vec<&HostPlan> = fleet.iter().filter(|h| h.is_replacement).collect();
        assert_eq!(replacements.len(), 1, "exactly one spare swap");
        let h19 = replacements[0];
        assert_eq!(h19.id, 19);
        assert_eq!(h19.vendor, Vendor::B);
        assert!(!h19.defective, "the spare had not failed — a sound unit");
        assert_eq!(h19.placement, Placement::Tent);
        assert_eq!(h19.pair, 16, "inherits #15's basement twin");
        let latest = fleet.iter().map(|h| h.install_at).max().unwrap();
        assert_eq!(h19.install_at, latest, "the final Fig. 2 event");
        // #15 itself stays in the roster (it ran until withdrawn).
        assert!(fleet.iter().any(|h| h.id == 15 && !h.is_replacement));
    }

    /// Vendor-B defective flags, unit by unit: the four original SFF
    /// machines carry the flag, the spare does not, nobody else does.
    #[test]
    fn vendor_b_defective_flags_pinned() {
        let fleet = paper_fleet();
        for h in &fleet {
            let expected = matches!(h.id, 11 | 12 | 15 | 16);
            assert_eq!(h.defective, expected, "host {} defective flag", h.id);
            if h.defective {
                assert_eq!(h.vendor, Vendor::B, "only B units are defective");
            }
        }
    }

    #[test]
    fn paper_builder_is_byte_identical_to_paper_fleet() {
        let via_builder =
            FleetBuilder::from_spec(FleetSpec::Paper).plans(SimTime::from_date(2010, 2, 12));
        let direct = paper_fleet();
        assert_eq!(via_builder.len(), direct.len());
        for (a, b) in via_builder.iter().zip(&direct) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.vendor, b.vendor);
            assert_eq!(a.defective, b.defective);
            assert_eq!(a.placement, b.placement);
            assert_eq!(a.install_at, b.install_at);
            assert_eq!(a.pair, b.pair);
            assert_eq!(a.is_replacement, b.is_replacement);
            assert_eq!(a.zone, 0, "the paper fleet shares one tent/basement");
        }
    }

    #[test]
    fn vendor_mix_fleet_shape() {
        let start = SimTime::from_date(2010, 2, 12);
        let fleet = FleetBuilder::from_spec(FleetSpec::VendorMix { hosts: 1000 }).plans(start);
        assert_eq!(fleet.len(), 1000);
        // Composition repeats the paper's 10:5:4 vendor split.
        let count = |v: Vendor| fleet.iter().filter(|h| h.vendor == v).count();
        assert!(count(Vendor::A) >= 500 && count(Vendor::A) <= 540);
        assert!(count(Vendor::B) >= 240 && count(Vendor::B) <= 280);
        assert!(count(Vendor::C) >= 190 && count(Vendor::C) <= 230);
        for h in &fleet {
            assert_eq!(h.install_at, start, "generated fleets power on at start");
            assert!(!h.is_replacement);
            assert_eq!(h.defective, h.vendor == Vendor::B);
            // Twins straddle the groups (except a trailing self-pair).
            if h.pair != h.id {
                let twin = fleet.iter().find(|t| t.id == h.pair).unwrap();
                assert_ne!(twin.placement, h.placement, "pair {}/{}", h.id, h.pair);
            }
        }
        // Zones fill in nine-host rooms, densely from zero.
        let tent_zones: Vec<u32> = fleet
            .iter()
            .filter(|h| h.placement == Placement::Tent)
            .map(|h| h.zone)
            .collect();
        assert_eq!(tent_zones.iter().filter(|&&z| z == 0).count(), 9);
        let max_zone = *tent_zones.iter().max().unwrap();
        assert_eq!(max_zone, (500 - 1) / HOSTS_PER_ZONE, "500 tent hosts");
    }

    #[test]
    fn vendor_mix_is_deterministic_and_prefix_stable() {
        let start = SimTime::from_date(2010, 2, 12);
        let small = FleetBuilder::from_spec(FleetSpec::VendorMix { hosts: 100 }).plans(start);
        let large = FleetBuilder::from_spec(FleetSpec::VendorMix { hosts: 200 }).plans(start);
        for (a, b) in small.iter().zip(&large) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.vendor, b.vendor);
            assert_eq!(a.placement, b.placement);
            assert_eq!(a.zone, b.zone);
            // Only the trailing self-pair may differ between sizes.
            if a.pair != a.id {
                assert_eq!(a.pair, b.pair);
            }
        }
    }
}
