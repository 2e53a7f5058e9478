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

mod support;

use std::cell::RefCell;
use std::rc::Rc;

use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::fleet::FleetSpec;
use frostlab::core::results::ExperimentResults;
use frostlab::core::ScenarioBuilder;
use frostlab::ensemble::sweep;
use frostlab::simkern::{fnv1a_from, FNV_OFFSET, PINNED_PRIME};

/// The golden gates' digest: FNV-1a with the pinned multiplier, the hash
/// every RNG stream label uses too.
fn digest(bytes: &[u8]) -> u64 {
    fnv1a_from(PINNED_PRIME, FNV_OFFSET, bytes)
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

/// Run `builder`, hashing its collection stream: every attempt record
/// (host, time, kind, and the outcome with its files updated and literal
/// bytes), one per line, then every healed gap. The campaign keeps no
/// per-attempt records, so a tap folds each tick's lines as they are made.
/// Returns the results, the stream's FNV-1a and its first 400 bytes.
fn run_hashing_collection(builder: ScenarioBuilder) -> (ExperimentResults, u64, String) {
    let stream = Rc::new(RefCell::new((FNV_OFFSET, String::new())));
    let tap = Rc::clone(&stream);
    let results = support::tap_collection(builder, move |records| {
        let (h, head) = &mut *tap.borrow_mut();
        for r in records {
            let line = format!("{r:?}\n");
            *h = fnv1a_from(PINNED_PRIME, *h, line.as_bytes());
            if head.len() < 400 {
                head.push_str(&line);
            }
        }
    })
    .build()
    .run();
    let (records_hash, head) = stream.take();
    let hash = results.collection_gaps.iter().fold(records_hash, |h, g| {
        fnv1a_from(PINNED_PRIME, h, format!("{g:?}\n").as_bytes())
    });
    (results, hash, head)
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
    let (results, collection_hash, collection_head) =
        run_hashing_collection(ScenarioBuilder::paper(kilohost_config(42)));
    assert_eq!(results.hosts.len(), 1_000, "fleet size");
    let summary = results.summary().to_json().expect("summary serializes");
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!(
            "KILOHOST_SUMMARY_GOLDEN = {:#018x}",
            digest(summary.as_bytes())
        );
        println!("KILOHOST_COLLECTION_GOLDEN = {collection_hash:#018x}");
        return;
    }
    assert_eq!(
        digest(summary.as_bytes()),
        KILOHOST_SUMMARY_GOLDEN,
        "1,000-host campaign summary drifted:\n{}",
        &summary[..summary.len().min(400)]
    );
    assert_eq!(
        collection_hash, KILOHOST_COLLECTION_GOLDEN,
        "1,000-host collection stream drifted (its head):\n{collection_head}"
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
        println!("KILOHOST_ENSEMBLE_GOLDEN = {:#018x}", digest(t1.as_bytes()));
        return;
    }
    assert_eq!(
        digest(t1.as_bytes()),
        KILOHOST_ENSEMBLE_GOLDEN,
        "1,000-host ensemble invariant summary drifted:\n{t1}"
    );
}
