//! Fleet-scale determinism gate.
//!
//! The struct-of-arrays fleet engine must produce the same bytes for a
//! generated 1,000-host campaign regardless of how many ensemble worker
//! threads ran it — and those bytes are pinned here so the vendor-mix
//! fleet generator, the zone layout, and the bulk host stepper cannot
//! drift silently. Recapture (own commit, with the reason) via:
//!
//! ```sh
//! GOLDEN_PRINT=1 cargo test --release --test fleet_scale -- --nocapture
//! ```

use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::fleet::FleetSpec;
use frostlab::core::results::ExperimentResults;
use frostlab::core::ScenarioBuilder;
use frostlab::ensemble::sweep;

/// FNV-1a 64-bit over the artifact bytes (same gate as `golden_hash`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Golden hash of a single 1,000-host, one-day stochastic campaign's
/// summary JSON at seed 42.
const KILOHOST_SUMMARY_GOLDEN: u64 = 0x40a96efb7dc2ec4e;

/// Golden hash of the same campaign's collection stream: every attempt
/// record, one per line, then every healed gap.
const KILOHOST_COLLECTION_GOLDEN: u64 = 0xea02dc5262840495;

/// Golden hash of the 1,000-host ensemble invariant summary (2 seeds,
/// one day each) — identical at 1 and 4 threads.
const KILOHOST_ENSEMBLE_GOLDEN: u64 = 0xb38f13e9b3615230;

/// The collection stream: every attempt record (host, time, kind, and the
/// outcome with its files updated and literal bytes), one per line, then
/// every healed gap.
fn collection_records(results: &ExperimentResults) -> String {
    let records = results.collection.iter().map(|r| format!("{r:?}\n"));
    let gaps = results.collection_gaps.iter().map(|g| format!("{g:?}\n"));
    records.chain(gaps).collect()
}

fn kilohost_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        fault_mode: FaultMode::Stochastic,
        fleet: FleetSpec::VendorMix { hosts: 1_000 },
        ..ExperimentConfig::short(seed, 1)
    }
}

#[test]
fn kilohost_campaign_matches_golden() {
    let results = ScenarioBuilder::paper(kilohost_config(42)).build().run();
    assert_eq!(results.hosts.len(), 1_000, "fleet size");
    let summary = results.summary().to_json().expect("summary serializes");
    let collection = collection_records(&results);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!(
            "KILOHOST_SUMMARY_GOLDEN = {:#018x}",
            fnv1a(summary.as_bytes())
        );
        println!(
            "KILOHOST_COLLECTION_GOLDEN = {:#018x}",
            fnv1a(collection.as_bytes())
        );
        return;
    }
    assert_eq!(
        fnv1a(summary.as_bytes()),
        KILOHOST_SUMMARY_GOLDEN,
        "1,000-host campaign summary drifted:\n{}",
        &summary[..summary.len().min(400)]
    );
    assert_eq!(
        fnv1a(collection.as_bytes()),
        KILOHOST_COLLECTION_GOLDEN,
        "1,000-host collection stream drifted (first 400 chars):\n{}",
        &collection[..collection.len().min(400)]
    );
}

#[test]
fn kilohost_ensemble_is_thread_count_invariant() {
    let sweep = |threads| {
        sweep(0, 2, threads, |seed| {
            ScenarioBuilder::paper(kilohost_config(seed)).build()
        })
        .summary
        .invariant_json()
        .expect("invariant summary serializes")
    };
    let t1 = sweep(1);
    let t4 = sweep(4);
    assert_eq!(t1, t4, "thread-count invariance violated at 1,000 hosts");
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("KILOHOST_ENSEMBLE_GOLDEN = {:#018x}", fnv1a(t1.as_bytes()));
        return;
    }
    assert_eq!(
        fnv1a(t1.as_bytes()),
        KILOHOST_ENSEMBLE_GOLDEN,
        "1,000-host ensemble invariant summary drifted:\n{t1}"
    );
}
