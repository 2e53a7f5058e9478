//! Scaling the fleet: the same campaign physics from 19 hosts to 10,000.
//!
//! ```sh
//! cargo run --release --example fleet_scale
//! ```
//!
//! The paper ran 19 machines. The struct-of-arrays fleet engine runs the
//! identical per-host models over generated vendor-mix fleets of any
//! size: hot per-host state lives in flat columns stepped in one pass per
//! tick, hosts spread over enclosure zones of nine (each zone its own
//! tent or basement room sharing the RC thermal network), and every
//! host's randomness derives from the label `host/{id}` so growing the
//! fleet appends streams without reshuffling existing ones.
//!
//! This example times a one-day stochastic campaign at three fleet sizes
//! and prints per-fleet summaries — the informal companion to
//! `bench_report`'s `hosts_scaling` section.

use std::time::Instant;

use frostlab::core::config::{ExperimentConfig, FaultMode, TICK};
use frostlab::core::fleet::FleetSpec;
use frostlab::core::ScenarioBuilder;

fn main() {
    println!("frostlab fleet scaling — one simulated day per fleet size\n");
    println!(
        "{:>7}  {:>9}  {:>9}  {:>11}  {:>9}  {:>11}",
        "hosts", "wall ms", "runs", "runs/host", "failures", "ticks/sec"
    );

    for &hosts in &[0u32, 1_000, 10_000] {
        let fleet = match hosts {
            0 => FleetSpec::Paper,
            n => FleetSpec::VendorMix { hosts: n },
        };
        let cfg = ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            fleet,
            ..ExperimentConfig::short(42, 1)
        };
        let ticks = (cfg.duration().as_secs() / TICK.as_secs()) as f64;
        let label = if hosts == 0 { 19 } else { hosts };

        let t0 = Instant::now();
        let results = ScenarioBuilder::paper(cfg).build().run();
        let wall = t0.elapsed();

        let runs = results.workload.total_runs();
        let failures: usize = results.hosts.values().map(|h| h.failures.len()).sum();
        println!(
            "{:>7}  {:>9.0}  {:>9}  {:>11.1}  {:>9}  {:>11.0}",
            label,
            wall.as_secs_f64() * 1e3,
            runs,
            runs as f64 / f64::from(label),
            failures,
            ticks / wall.as_secs_f64()
        );
    }

    println!(
        "\nHost #3's fault train and job stream are identical in every row:\n\
         per-host randomness derives from `host/{{id}}`, so a bigger fleet\n\
         appends new streams instead of reshuffling the old ones."
    );
}
