//! The paper's future work, §5/§6: "As the spring is now approaching,
//! conditions are likely to shift rapidly. It is certainly still possible
//! that within the next months of operation, some components may start to
//! regularly fail." — so: run the continuation the authors never published.
//!
//! This example extends the campaign through a full Helsinki summer in
//! stochastic mode, compares failure intensities by season (Arrhenius says
//! summer should be *worse* than winter for the tent group), and reports
//! how much of the year an air-side economizer runs free.
//!
//! ```sh
//! cargo run --release --example summer_outlook [campaigns]
//! ```

use frostlab::analysis::report::Table;
use frostlab::climate::presets;
use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::ScenarioBuilder;
use frostlab::energy::economizer::{simulate_year, EconomizerConfig};
use frostlab::faults::types::FaultKind;
use frostlab::simkern::time::SimTime;

fn main() {
    let campaigns: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    println!(
        "summer outlook — extending the campaign through August, {campaigns} stochastic runs\n"
    );

    let mut winter_hangs = 0usize; // Feb 19 – May 13 (the paper's window)
    let mut summer_hangs = 0usize; // May 13 – Aug 31 (the continuation)
    let boundary = SimTime::from_date(2010, 5, 13);
    let summer_end = SimTime::from_date(2010, 8, 31);

    for seed in 0..campaigns {
        let cfg = ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            end: summer_end,
            ..ExperimentConfig::paper_stochastic(seed)
        };
        let r = ScenarioBuilder::paper(cfg).build().run();
        for ev in &r.fault_events {
            if ev.kind == FaultKind::TransientSystemFailure {
                if ev.at < boundary {
                    winter_hangs += 1;
                } else {
                    summer_hangs += 1;
                }
            }
        }
    }

    let winter_days = 83.0;
    let summer_days = 110.0;
    let mut t = Table::new(
        "transient failures by season (tent + control, all campaigns)",
        &["season", "hangs", "hangs / fleet-month"],
    );
    let per_month = |hangs: usize, days: f64| hangs as f64 / (campaigns as f64 * days / 30.44);
    t.row(&[
        "winter+spring (Feb 19 – May 13)".into(),
        winter_hangs.to_string(),
        format!("{:.2}", per_month(winter_hangs, winter_days)),
    ]);
    t.row(&[
        "summer (May 13 – Aug 31)".into(),
        summer_hangs.to_string(),
        format!("{:.2}", per_month(summer_hangs, summer_days)),
    ]);
    println!("{t}");

    // Air-side economizer feasibility across the whole year.
    let mut t = Table::new(
        "economizer feasibility, full year in Helsinki",
        &["technology", "free-cooling %", "savings vs mechanical"],
    );
    let air = simulate_year(
        presets::helsinki_winter_2010(),
        &EconomizerConfig::default(),
        3,
    );
    t.row(&[
        "air-side (the tent, scaled up)".into(),
        format!("{:.1} %", 100.0 * air.free_fraction()),
        format!("{:.1} %", 100.0 * air.savings()),
    ]);
    println!("{t}");
    println!("reading: in Helsinki the dry-bulb is cold enough that plain outside air");
    println!("covers most of the year.");
}
