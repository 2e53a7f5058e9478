//! Composing what-if scenarios from pipeline phases — no forked
//! orchestrator required.
//!
//! Three compositions over the same 10-day window:
//!
//! 1. the stock paper pipeline (the reference);
//! 2. `replace("weather", …)` — the §4.1 cold snap never relents: a
//!    custom phase pins the outside air at −22 °C for the whole window;
//! 3. `insert_after("enclosure-thermal", …)` — a custom observer phase
//!    counts how long the tent spends below freezing, and
//!    `wrap`/`with_timing` meter where the wall-clock goes.
//!
//! ```sh
//! cargo run --release --example scenario_compose [seed]
//! ```

use frostlab::climate::weather::WeatherSample;
use frostlab::core::config::ExperimentConfig;
use frostlab::core::phases::{TickPhase, TimingProbe};
use frostlab::core::{CampaignCtx, ScenarioBuilder};

/// A weather phase that holds the outside air at a fixed deep-cold sample
/// instead of advancing the synthetic winter — the "what if the −22 °C
/// snap lasted the whole campaign" study. No station observations are
/// produced; the tent physics read [`CampaignCtx::weather`] directly.
struct PermanentColdSnap {
    temp_c: f64,
}

impl TickPhase for PermanentColdSnap {
    fn name(&self) -> &str {
        "weather"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        ctx.weather = WeatherSample {
            t: ctx.now,
            temp_c: self.temp_c,
            rh_pct: 85.0,
            wind_ms: 5.0,
            solar_w_m2: 0.0,
            cloud: 1.0,
        };
    }
}

/// An observer phase: counts ticks the tent air spends below 0 °C.
/// Inserted after `enclosure-thermal` so it sees the state of the current
/// tick.
struct FreezingTicks {
    below_zero: u64,
    total: u64,
}

impl TickPhase for FreezingTicks {
    fn name(&self) -> &str {
        "freezing-ticks"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        self.total += 1;
        if ctx.tent_zone_states[0].air_temp_c < 0.0 {
            self.below_zero += 1;
        }
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let cfg = || ExperimentConfig::short(seed, 10);

    println!("scenario composition — seed {seed}, 10-day window\n");

    // 1. The stock paper pipeline.
    let reference = ScenarioBuilder::paper(cfg()).build().run();
    println!(
        "stock pipeline     : tent mean {:>6.2} °C, min {:>6.2} °C, {} runs",
        reference.tent_temp_truth.mean().unwrap_or(f64::NAN),
        reference.tent_temp_truth.min().unwrap_or(f64::NAN),
        reference.workload.total_runs()
    );

    // 2. Swap the weather phase: the cold snap never ends.
    let frozen = ScenarioBuilder::paper(cfg())
        .replace("weather", Box::new(PermanentColdSnap { temp_c: -22.0 }))
        .build()
        .run();
    println!(
        "permanent −22 °C   : tent mean {:>6.2} °C, min {:>6.2} °C, {} runs",
        frozen.tent_temp_truth.mean().unwrap_or(f64::NAN),
        frozen.tent_temp_truth.min().unwrap_or(f64::NAN),
        frozen.workload.total_runs()
    );

    // 3. Observe and meter: an inserted observer phase plus per-phase
    // wall-clock probes over the whole pipeline.
    let (timed, timings) = ScenarioBuilder::paper(cfg())
        .insert_after(
            "enclosure-thermal",
            Box::new(TimingProbe::new(Box::new(FreezingTicks {
                below_zero: 0,
                total: 0,
            }))),
        )
        .with_timing()
        .build()
        .run_with_timings();
    // (The observer's counters live inside the pipeline; its tick count
    // comes back through the timing probe wrapped around it.)
    let observer = timings
        .iter()
        .find(|t| t.phase == "freezing-ticks")
        .expect("observer phase metered");
    println!(
        "observer pipeline  : tent mean {:>6.2} °C over {} observed ticks\n",
        timed.tent_temp_truth.mean().unwrap_or(f64::NAN),
        observer.calls
    );

    println!("per-phase wall-clock (10 simulated days):");
    for t in &timings {
        println!(
            "  {:>18}: {:>8.1} ms  ({} calls)",
            t.phase, t.total_ms, t.calls
        );
    }
}
