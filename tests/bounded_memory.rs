//! What a campaign retains does not grow with campaign days.
//!
//! One small generated fleet runs for 1 and for 8 days. The work grows
//! eightfold; the state kept for it must not: the collector keeps one
//! tick's attempt records, a stored archive keeps the flips a run made in
//! the shared clean bytes, and the results carry counts, not attempts.
//! Nothing here samples RSS, so the verdict is deterministic.

mod support;

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::fleet::FleetSpec;
use frostlab::core::results::ExperimentResults;
use frostlab::core::ScenarioBuilder;
use frostlab::netsim::collector::CollectionCounts;

const HOSTS: u32 = 76;

/// A finished campaign, with the collector's attempt records as the last
/// tick left them and the most any tick held.
struct Run {
    results: ExperimentResults,
    last_tick_records: usize,
    max_tick_records: usize,
}

fn run(days: i64) -> Run {
    let retained = Rc::new(Cell::new((0, 0)));
    let tap = Rc::clone(&retained);
    let builder = ScenarioBuilder::paper(ExperimentConfig {
        fault_mode: FaultMode::Stochastic,
        fleet: FleetSpec::VendorMix { hosts: HOSTS },
        ..ExperimentConfig::short(7, days)
    });
    let results = support::tap_collection(builder, move |records| {
        let (_, max) = tap.get();
        tap.set((records.len(), records.len().max(max)));
    })
    .build()
    .run();
    let (last_tick_records, max_tick_records) = retained.get();
    Run {
        results,
        last_tick_records,
        max_tick_records,
    }
}

#[test]
fn retained_state_does_not_grow_with_campaign_days() {
    let (one, eight) = (run(1), run(8));

    // Eight times the collection rounds…
    let (c1, c8) = (one.results.collection, eight.results.collection);
    assert!(c1.scheduled > 0);
    assert!(c8.scheduled >= 8 * c1.scheduled, "{c1:?} vs {c8:?}");

    // …but the collector still holds one tick's records at the end, and
    // never more than one attempt per host.
    assert_eq!(one.last_tick_records, eight.last_tick_records);
    assert!(eight.last_tick_records > 0, "the final tick runs a round");
    assert!(eight.max_tick_records <= HOSTS as usize);

    // Every stored archive is a recipe over the campaign's one clean
    // buffer: no archive holds bytes of its own, and the flips it keeps
    // are at most the silent corruptions the fleet suffered.
    for r in [&one.results, &eight.results] {
        let flips: usize = r
            .stored_archives
            .iter()
            .map(|s| s.archive.flips().len())
            .sum();
        let silent: u64 = r.hosts.values().map(|h| h.silent_corruptions).sum();
        assert!(
            flips as u64 <= silent,
            "{flips} flips kept, {silent} corruptions"
        );
        if let Some(first) = r.stored_archives.first() {
            for s in &r.stored_archives {
                assert!(!s.archive.flips().is_empty());
                assert!(Arc::ptr_eq(s.archive.clean(), first.archive.clean()));
            }
        }
    }
    assert!(
        eight.results.stored_archives.len() >= 2,
        "too few wrong hashes to compare: {}",
        eight.results.stored_archives.len()
    );

    // The results carry the collection as counts. Naming every field
    // makes a new one a compile error here, so a per-attempt `Vec` cannot
    // join them unseen. What does grow with days is the figures'
    // 10-minute samples and the per-event ledgers (faults, incidents,
    // healed gaps, wrong hashes).
    let ExperimentResults {
        seed: _,
        window: _,
        outside: _,
        tent_temp_truth: _,
        tent_rh_truth: _,
        basement_temp: _,
        lascar_temp_raw: _,
        lascar_rh_raw: _,
        lascar_temp: _,
        lascar_rh: _,
        lascar_outliers_removed: _,
        workload: _,
        fault_events: _,
        hosts: _,
        collection,
        collection_gaps: _,
        incidents: _,
        stored_archives: _,
        tent_energy_metered_kwh: _,
        tent_energy_true_kwh: _,
        trace: _,
        obs: _,
    } = eight.results;
    let _: CollectionCounts = collection;
}
