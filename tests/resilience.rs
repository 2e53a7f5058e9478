//! Resilience integration tests: the collection pipeline under injected
//! chaos, and the bounded-repair guarantees of the failover machinery.
//!
//! The scripted replay (see `scripted_campaign.rs`) checks that the paper's
//! §4.2.1 history is reproduced faithfully; this suite checks the parts the
//! paper could not test — that the pipeline survives *arbitrary* adversity
//! drawn from the chaos engine, that every spare-backed switch death heals
//! within the modeled repair window, and that the retrying collector turns
//! outages into bounded, well-documented gaps instead of silent data loss.

mod support;

use std::cell::RefCell;
use std::rc::Rc;

use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::watchdog::IncidentKind;
use frostlab::core::ScenarioBuilder;
use frostlab::faults::chaos::{ChaosConfig, ChaosEngine, ChaosEvent};
use frostlab::netsim::collector::{AttemptKind, CollectOutcome};
use frostlab::simkern::rng::Rng;
use frostlab::simkern::time::{SimDuration, SimTime};

/// A 25-day stochastic window with §4.2.1-grade chaos, hot enough that the
/// fault classes all fire but short enough for a debug-mode test.
fn chaos_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        fault_mode: FaultMode::Stochastic,
        chaos: Some(ChaosConfig {
            link_loss_every: SimDuration::days(2),
            link_loss_burst: SimDuration::hours(2),
            link_loss_prob: 0.7,
            switch_death_every: SimDuration::days(8),
            host_hang_every: SimDuration::days(10),
            host_reboot_every: SimDuration::days(10),
            sensor_freeze_every: SimDuration::days(12),
            ..ChaosConfig::paper_like()
        }),
        ..ExperimentConfig::short(seed, 25)
    }
}

fn run_chaos(seed: u64) -> frostlab::core::ExperimentResults {
    ScenarioBuilder::paper(chaos_config(seed)).build().run()
}

#[test]
fn chaos_campaign_survives_and_documents_its_outages() {
    let results = run_chaos(99);

    // The campaign itself must remain healthy: the fleet keeps running the
    // synthetic load and the collector keeps (eventually) collecting.
    assert!(results.workload.total_runs() > 0);
    let avail = results.collection_availability();
    assert!(avail > 0.0 && avail <= 1.0, "availability {avail}");

    // Whatever went wrong is in the incident ledger, machine-readable.
    let json = results.incident_log_json().expect("plain data");
    assert!(
        json.starts_with('['),
        "incident log is a JSON array: {json}"
    );

    // Every healed collection gap is documented with its failed attempts.
    for gap in &results.collection_gaps {
        assert!(gap.failed_attempts > 0, "{gap:?}");
        assert!(gap.end > gap.start, "{gap:?}");
    }
}

#[test]
fn spare_backed_switch_deaths_heal_within_the_repair_window() {
    // The failover policy: dead switch → next working-day inspection
    // (Mon–Fri 10:00) → 90-minute swap. Worst case is a death just after
    // Friday's window closes, repaired Monday 11:30 — under four days.
    let results = run_chaos(7);
    let switch_incidents: Vec<_> = results
        .incidents
        .iter()
        .filter(|i| i.kind == IncidentKind::SwitchFailure)
        .collect();
    // Two scripted deaths (kept in stochastic mode) plus whatever chaos
    // injected inside the 25-day window.
    assert!(switch_incidents.len() >= 2, "{switch_incidents:?}");
    let campaign_end = results.window.1;
    for (n, incident) in switch_incidents.iter().enumerate() {
        // The two spares cover the two scripted deaths; chaos deaths beyond
        // the shelf stay open until campaign end — that is the modeled
        // reality, not a bug. Spare-backed ones must resolve in bounds.
        if let Some(resolved) = incident.resolved {
            let outage = resolved - incident.started;
            assert!(
                outage < SimDuration::days(4),
                "incident {n} outage {:.1} days exceeds the repair window: {incident:?}",
                outage.as_days_f64()
            );
            assert!(resolved <= campaign_end);
        }
    }
}

#[test]
fn chaos_campaigns_are_reproducible_and_seed_sensitive() {
    let a = run_chaos(33);
    let b = run_chaos(33);
    assert_eq!(a.incidents, b.incidents, "same seed, same incident ledger");
    assert_eq!(a.collection, b.collection);
    assert_eq!(a.workload.total_runs(), b.workload.total_runs());

    let c = run_chaos(34);
    // A different seed must reshuffle the chaos schedule (the engine draws
    // event times from seed-derived streams).
    let attempts =
        |r: &frostlab::core::ExperimentResults| r.collection.scheduled + r.collection.retries;
    assert!(
        a.incidents != c.incidents || attempts(&a) != attempts(&c),
        "seeds 33 and 34 produced identical campaigns"
    );
}

#[test]
fn retries_are_bookkept_separately_from_the_cadence() {
    // Recount every attempt from the records a tap sees: `(scheduled,
    // scheduled successes, retries, literal bytes)`.
    let recount = Rc::new(RefCell::new((0u64, 0u64, 0u64, 0u64)));
    let tap = Rc::clone(&recount);
    let builder = ScenarioBuilder::paper(chaos_config(55));
    let results = support::tap_collection(builder, move |records| {
        let (scheduled, ok, retries, bytes) = &mut *tap.borrow_mut();
        for r in records {
            let success = match r.outcome {
                CollectOutcome::Success { literal_bytes, .. } => {
                    *bytes += literal_bytes as u64;
                    true
                }
                _ => false,
            };
            match r.kind {
                AttemptKind::Scheduled => {
                    *scheduled += 1;
                    *ok += u64::from(success);
                }
                AttemptKind::Retry => *retries += 1,
            }
        }
    })
    .build()
    .run();
    let (scheduled, ok, retries, bytes) = recount.take();
    assert!(scheduled > 0);
    assert!(retries > 0, "this much chaos must trigger catch-up retries");
    // The campaign's running counts agree with the records exactly.
    let counts = results.collection;
    assert_eq!(
        (counts.scheduled, counts.scheduled_ok, counts.retries),
        (scheduled, ok, retries)
    );
    assert_eq!(results.collection_literal_bytes(), bytes);
    // Availability is computed over the scheduled cadence only: recomputing
    // it from scratch over scheduled records must agree exactly.
    let expect = ok as f64 / scheduled as f64;
    assert!((results.collection_availability() - expect).abs() < 1e-12);
}

#[test]
fn chaos_engine_schedule_is_stable_across_identical_runs() {
    // Belt-and-braces determinism check at the engine level, with the same
    // window the experiment uses.
    let cfg = ChaosConfig::paper_like();
    let window = (
        SimTime::from_date(2010, 2, 12),
        SimTime::from_date(2010, 5, 13),
    );
    let hosts: Vec<u32> = (1..=19).collect();
    let a = ChaosEngine::generate(&cfg, window, &hosts, 2, &Rng::new(42));
    let b = ChaosEngine::generate(&cfg, window, &hosts, 2, &Rng::new(42));
    assert_eq!(a.schedule(), b.schedule());
    assert!(a.len() > 20, "a three-month hostile campaign is eventful");
    // Sanity: all victims are real hosts / switches.
    for (_, ev) in a.schedule() {
        match ev {
            ChaosEvent::SwitchDeath { switch } => assert!(*switch < 2),
            ChaosEvent::HostHang { host }
            | ChaosEvent::HostReboot { host }
            | ChaosEvent::SensorFreeze { host } => assert!((1..=19).contains(host)),
            ChaosEvent::LinkLossBurst { loss, duration } => {
                assert!((0.0..=1.0).contains(loss));
                assert!(*duration > SimDuration::ZERO);
            }
            ChaosEvent::JitterBurst { .. } => {}
        }
    }
}
