//! A stochastic campaign with the chaos engine switched on, reported
//! through the watchdog's incident ledger.
//!
//! This is the resilience story end to end: link-loss bursts, extra switch
//! deaths, host hangs and sensor freezes are overlaid on the hazard models;
//! the retrying collector chases every outage with backoff; and whatever
//! happened comes back as a machine-readable incident log plus the healed
//! collection gaps.
//!
//! ```sh
//! cargo run --release --example chaos_campaign [seed]
//! ```

use frostlab::core::{ExperimentConfig, ScenarioBuilder};

fn main() {
    let seed = match std::env::args().nth(1) {
        None => 42,
        Some(s) => s.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("usage: chaos_campaign [seed]  (seed must be a u64, got {s:?})");
            std::process::exit(2);
        }),
    };
    println!("chaos campaign — seed {seed}, §4.2.1-grade adversity overlaid\n");

    let results = ScenarioBuilder::paper(ExperimentConfig::paper_chaos(seed))
        .build()
        .run();

    let counts = results.collection;
    println!(
        "collection: {} scheduled rounds ({:.2} % available), {} catch-up retries",
        counts.scheduled,
        100.0 * results.collection_availability(),
        counts.retries
    );

    println!("\nhealed collection gaps (worst five):");
    let mut gaps = results.collection_gaps.clone();
    gaps.sort_by_key(|g| std::cmp::Reverse(g.duration()));
    for g in gaps.iter().take(5) {
        println!(
            "  host {:>2}: stale {:>5.1} h, {} failed attempts, healed {}",
            g.host,
            g.duration().as_secs() as f64 / 3600.0,
            g.failed_attempts,
            g.end.datetime()
        );
    }

    println!("\nincident ledger ({} incidents):", results.incidents.len());
    for i in &results.incidents {
        let end = match i.resolved {
            Some(t) => format!(
                "resolved {} ({})",
                t.datetime(),
                i.resolution.as_deref().unwrap_or("-")
            ),
            None => "still open at campaign end".to_string(),
        };
        println!(
            "  [{}] {} opened {} — {end}",
            i.kind.name(),
            i.subject,
            i.started.datetime()
        );
    }

    println!("\nmachine-readable incident log:");
    match results.incident_log_json() {
        Ok(json) => println!("{json}"),
        Err(e) => eprintln!("serialization failed: {e}"),
    }
}
