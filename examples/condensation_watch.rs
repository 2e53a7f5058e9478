//! The §5 condensation question, answered quantitatively.
//!
//! "A central question concerns whether water can condense in the hardware
//! … Our current knowledge is that water has few possibilities to condense
//! in the equipment, as this would require the outside air to suddenly
//! become warmer than the computer cases."
//!
//! This example scans a simulated winter minute-by-minute and tracks the
//! dew-point margin for (a) a powered server case in the tent and (b) a
//! powered-off (cold-soaked) chassis — the dangerous scenario the authors
//! identify. It reports the worst margins and any actual condensation
//! events.
//!
//! ```sh
//! cargo run --release --example condensation_watch [seed]
//! ```

use frostlab::climate::presets;
use frostlab::climate::psychro::condensation_risk;
use frostlab::climate::weather::WeatherModel;
use frostlab::simkern::time::{SimDuration, SimTime};
use frostlab::thermal::bank::{CaseBank, ServerThermalParams};
use frostlab::thermal::enclosure::Enclosure;
use frostlab::thermal::tent::{Tent, TentConfig, TentParams};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    println!("condensation watch — Feb 19 … May 13, seed {seed}\n");

    let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), seed);
    let start = SimTime::from_date(2010, 2, 19);
    let end = SimTime::from_date(2010, 5, 13);
    let first = wx.sample_at(start);
    let mut tent = Tent::new(TentParams::default(), TentConfig::fully_modified(), &first);
    let mut cases = CaseBank::new();
    let powered = cases.push(&ServerThermalParams::vendor_a_tower(), first.temp_c);
    // The dead chassis: no fans (natural convection only, ~2 W/K) and the
    // full metal mass (~20 kJ/K) ⇒ a multi-hour lag behind the air — this
    // is what makes a cold-soaked machine dangerous when a warm front hits.
    let dead = cases.push(
        &ServerThermalParams {
            case_airflow_w_k: 2.0,
            case_capacity_j_k: 20_000.0,
            ..ServerThermalParams::vendor_a_tower()
        },
        first.temp_c,
    );

    let mut worst_powered = f64::INFINITY;
    let mut worst_dead = f64::INFINITY;
    let mut powered_events = 0u32;
    let mut dead_events = 0u32;
    let mut dead_event_example: Option<(SimTime, f64)> = None;
    let mut t = start;
    while t <= end {
        let w = wx.sample_at(t);
        tent.step(60.0, &w, 1000.0);
        let air = tent.state();
        cases.step_one(powered, 60.0, air.air_temp_c, 18.0, 85.0);
        cases.step_one(dead, 60.0, air.air_temp_c, 0.0, 0.0);

        let rp = condensation_risk(air.air_temp_c, air.air_rh_pct, cases.case_temp_c(powered));
        let rd = condensation_risk(air.air_temp_c, air.air_rh_pct, cases.case_temp_c(dead));
        worst_powered = worst_powered.min(rp.margin_k);
        worst_dead = worst_dead.min(rd.margin_k);
        if rp.condenses {
            powered_events += 1;
        }
        if rd.condenses {
            dead_events += 1;
            if dead_event_example.is_none() {
                dead_event_example = Some((t, rd.margin_k));
            }
        }
        t += SimDuration::minutes(1);
    }

    println!("powered case (85 W):");
    println!("  worst dew-point margin : {worst_powered:+.1} K");
    println!("  condensation minutes   : {powered_events}");
    println!("\npowered-off chassis (cold-soaked):");
    println!("  worst dew-point margin : {worst_dead:+.1} K");
    println!("  condensation minutes   : {dead_events}");
    if let Some((at, margin)) = dead_event_example {
        println!(
            "  first event            : {} (margin {margin:+.1} K)",
            at.datetime()
        );
    }

    println!("\nreading: the paper's reasoning holds — internal power keeps a running");
    println!("case above the dew point the whole winter. The risk concentrates on");
    println!("*dead* hardware when warm, humid fronts arrive (spring), which is when a");
    println!("failed machine should be taken indoors rather than left in the tent.");
}
