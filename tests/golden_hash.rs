//! Golden-hash determinism gate for the paper scenario.
//!
//! The phase-pipeline refactor (and any future reshuffling of the campaign
//! kernel) must keep the paper scenario **byte-identical**: every figure,
//! table and summary artifact hashed here was captured from the
//! pre-refactor monolithic orchestrator and must never drift. If a change
//! legitimately alters the outputs (a new physical model, a config
//! change), recapture with:
//!
//! ```sh
//! GOLDEN_PRINT=1 cargo test --release --test golden_hash -- --nocapture
//! ```
//!
//! and update the constants — in its own commit, with the reason.

mod support;

use std::cell::RefCell;
use std::rc::Rc;

use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::results::ExperimentResults;
use frostlab::core::{figures, tables, ScenarioBuilder};
use frostlab::ensemble::sweep;

/// FNV-1a 64-bit over the artifact bytes: stable, dependency-free, and
/// plenty to detect any byte-level drift.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from state `h`: the hash of a concatenation is this
/// fold over its parts, so a stream can be hashed as it is made.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// `(artifact name, golden FNV-1a hash)` captured from the pre-refactor
/// monolithic campaign orchestrator at seed 42.
const PAPER_GOLDEN: &[(&str, u64)] = &[
    ("t1_failures", 0x26d729ad6efcd424),
    ("t2_hashes", 0xa6903c344ff84b49),
    ("t3_memory", 0x09fef8574ce50302),
    ("fig2_render", 0x7fdea2307b720f2a),
    ("fig3_csv", 0x74508fe42e23a23a),
    ("fig3_summary", 0xb64f7b1cbabf4938),
    ("fig4_csv", 0xc4d7ea4ab894c60a),
    ("fig4_summary", 0x5757649f6cc34f04),
    ("summary_json", 0x530e6fadd626f22f),
    ("incident_log_json", 0xd5724a97f91eb2df),
    ("collection_records", 0xaa3a5d127cdbe97f),
];

/// Golden hash of the ensemble invariant summary (6 stochastic 5-day
/// campaigns, seeds 0..6) — identical at 1 and 4 threads.
const ENSEMBLE_GOLDEN: u64 = 0xa635290fa36c7ef4;

/// Run `builder`, hashing its collection stream: every attempt record
/// (host, time, kind, and the outcome with its files updated and literal
/// bytes), one per line, then every healed gap. The campaign keeps no
/// per-attempt records, so a tap folds each tick's lines as they are made.
/// Returns the results, the stream's FNV-1a and its first 400 bytes.
fn run_hashing_collection(builder: ScenarioBuilder) -> (ExperimentResults, u64, String) {
    let stream = Rc::new(RefCell::new((fnv1a(b""), String::new())));
    let tap = Rc::clone(&stream);
    let results = support::tap_collection(builder, move |records| {
        let (h, head) = &mut *tap.borrow_mut();
        for r in records {
            let line = format!("{r:?}\n");
            *h = fnv1a_from(*h, line.as_bytes());
            if head.len() < 400 {
                head.push_str(&line);
            }
        }
    })
    .build()
    .run();
    let (records_hash, head) = stream.take();
    let hash = results.collection_gaps.iter().fold(records_hash, |h, g| {
        fnv1a_from(h, format!("{g:?}\n").as_bytes())
    });
    (results, hash, head)
}

/// Each artifact's name, FNV-1a and the text a drift report shows (the
/// whole artifact, or the collection stream's head).
fn paper_artifacts() -> Vec<(&'static str, u64, String)> {
    let (results, collection_hash, collection_head) =
        run_hashing_collection(ScenarioBuilder::paper(ExperimentConfig::paper_scripted(42)));
    let f3 = figures::fig3_temperature(&results);
    let f4 = figures::fig4_humidity(&results);
    let artifacts = vec![
        ("t1_failures", tables::t1_failures(&results).to_string()),
        ("t2_hashes", tables::t2_hashes(&results).to_string()),
        ("t3_memory", tables::t3_memory(&results).to_string()),
        ("fig2_render", figures::fig2_render(results.window.1)),
        ("fig3_csv", f3.csv),
        ("fig3_summary", f3.summary),
        ("fig4_csv", f4.csv),
        ("fig4_summary", f4.summary),
        (
            "summary_json",
            results.summary().to_json().expect("summary serializes"),
        ),
        (
            "incident_log_json",
            results.incident_log_json().expect("ledger serializes"),
        ),
    ];
    let mut hashed: Vec<_> = artifacts
        .into_iter()
        .map(|(name, body)| (name, fnv1a(body.as_bytes()), body))
        .collect();
    hashed.push(("collection_records", collection_hash, collection_head));
    hashed
}

fn ensemble_invariant(threads: usize) -> String {
    sweep(0, 6, threads, |seed| {
        ScenarioBuilder::paper(ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            ..ExperimentConfig::short(seed, 5)
        })
        .build()
    })
    .summary
    .invariant_json()
    .expect("invariant summary serializes")
}

#[test]
fn paper_scenario_outputs_match_pre_refactor_golden_hashes() {
    let artifacts = paper_artifacts();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (name, hash, _) in &artifacts {
            println!("(\"{name}\", {hash:#018x}),");
        }
        return;
    }
    assert_eq!(artifacts.len(), PAPER_GOLDEN.len());
    for ((name, hash, body), (gname, golden)) in artifacts.iter().zip(PAPER_GOLDEN) {
        assert_eq!(name, gname);
        assert_eq!(
            *hash,
            *golden,
            "artifact {name} drifted from the pre-refactor monolith \
             (first 300 chars):\n{}",
            &body[..body.len().min(300)]
        );
    }
}

#[test]
fn ensemble_sweep_matches_golden_at_one_and_four_threads() {
    let t1 = ensemble_invariant(1);
    let t4 = ensemble_invariant(4);
    assert_eq!(t1, t4, "thread-count invariance violated");
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("ENSEMBLE_GOLDEN = {:#018x}", fnv1a(t1.as_bytes()));
        return;
    }
    assert_eq!(
        fnv1a(t1.as_bytes()),
        ENSEMBLE_GOLDEN,
        "ensemble invariant summary drifted:\n{t1}"
    );
}
