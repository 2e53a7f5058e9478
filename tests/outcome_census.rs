//! Outcome census: which variants of the campaign's outcome enums the
//! campaigns under golden pins actually reach.
//!
//! A variant nothing reaches is either a mechanism whose outcome never
//! varies (it becomes its outcome, and the variant goes) or one that is
//! reached elsewhere or kept for a stated reason. DESIGN §10 records that
//! decision for every variant missing from [`REACHED`]. When a change makes
//! a campaign reach a new variant, or stop reaching one, this test fails
//! until the table and DESIGN §10 change with it.

mod support;

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::rc::Rc;

use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::fleet::FleetSpec;
use frostlab::core::{CampaignCtx, ScenarioBuilder, TickPhase};
use frostlab::faults::chaos::ChaosConfig;
use frostlab::simkern::time::SimDuration;

/// Every variant the three campaigns below reach, by enum. DESIGN §10
/// gives the same table and a decision for each variant not in it.
const REACHED: &[&str] = &[
    "AttemptKind: Retry Scheduled",
    "ChaosEvent: HostHang HostReboot LinkLossBurst SensorFreeze SwitchDeath",
    "CollectOutcome: Success Unreachable",
    "FaultKind: DiskPendingSector MemoryBitFlip SensorChipErratic SwitchFailure TransientSystemFailure",
    "IncidentKind: CollectionStale HostHang SensorFault SwitchFailure",
];

/// The `Enum::Variant` names reached so far.
type Census = Rc<RefCell<BTreeSet<String>>>;

/// Add `value`'s variant, read off its `Debug` text.
fn tally(census: &Census, enum_name: &str, value: &impl Debug) {
    let text = format!("{value:?}");
    let variant = text.split(|c: char| !c.is_alphanumeric()).next();
    census
        .borrow_mut()
        .insert(format!("{enum_name}::{}", variant.unwrap_or_default()));
}

/// Tallies each chaos event once the script phase has delivered it, that
/// is once the clock reaches its time.
struct ChaosTap {
    census: Census,
    delivered: usize,
}

impl TickPhase for ChaosTap {
    fn name(&self) -> &str {
        "chaos-tap"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let Some(chaos) = &ctx.chaos else { return };
        let schedule = &chaos.engine.schedule()[self.delivered..];
        for (_, ev) in schedule.iter().take_while(|(at, _)| *at <= ctx.now) {
            tally(&self.census, "ChaosEvent", ev);
            self.delivered += 1;
        }
    }
}

#[test]
fn campaigns_reach_exactly_the_census_table() {
    let hot_chaos = ChaosConfig {
        link_loss_every: SimDuration::days(2),
        link_loss_burst: SimDuration::hours(2),
        link_loss_prob: 0.7,
        switch_death_every: SimDuration::days(8),
        host_hang_every: SimDuration::days(10),
        host_reboot_every: SimDuration::days(10),
        sensor_freeze_every: SimDuration::days(12),
    };
    let campaigns = [
        // The scripted paper campaign that `golden_hash` pins.
        ExperimentConfig::paper_scripted(42),
        // One chaos-mode seed, in the resilience suite's hot 25-day
        // window, where every chaos class fires.
        ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            chaos: Some(hot_chaos),
            ..ExperimentConfig::short(99, 25)
        },
        // The vendor-mix fleet day that `fleet_scale` pins.
        ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            fleet: FleetSpec::VendorMix { hosts: 1_000 },
            ..ExperimentConfig::short(42, 1)
        },
    ];
    let census = Census::default();
    for cfg in campaigns {
        let tap = ChaosTap {
            census: Rc::clone(&census),
            delivered: 0,
        };
        let builder = ScenarioBuilder::paper(cfg).insert_after("script", Box::new(tap));
        let records = Rc::clone(&census);
        let results = support::tap_collection(builder, move |tick| {
            for r in tick {
                tally(&records, "CollectOutcome", &r.outcome);
                tally(&records, "AttemptKind", &r.kind);
            }
        })
        .build()
        .run();
        for f in &results.fault_events {
            tally(&census, "FaultKind", &f.kind);
        }
        for i in &results.incidents {
            tally(&census, "IncidentKind", &i.kind);
        }
    }
    let want: BTreeSet<String> = REACHED
        .iter()
        .flat_map(|row| {
            let (name, variants) = row.split_once(": ").expect("`Enum: Variants`");
            variants
                .split_whitespace()
                .map(move |v| format!("{name}::{v}"))
        })
        .collect();
    assert_eq!(census.take(), want);
}
