//! The prototype weekend (T5).
//!
//! §3.1: Friday Feb 12 → Monday Feb 15, one generic PC sandwiched between
//! two plastic boxes on the terrace, S.M.A.R.T. and lm-sensors monitored
//! throughout. The local weather unit recorded a minimum of −10.2 °C and a
//! mean of −9.2 °C; lm-sensors showed the CPU down to −4 °C; the machine
//! survived the whole weekend and the test was declared a success.

use frostlab_climate::station::{StationConfig, WeatherStation};
use frostlab_climate::weather::WeatherModel;
use frostlab_hardware::columns::HostBank;
use frostlab_hardware::server::ServerSpec;
use frostlab_simkern::rng::Rng;
use frostlab_simkern::time::{SimDuration, SimTime};
use frostlab_thermal::bank::{CaseBank, ServerThermalParams};
use frostlab_thermal::enclosure::{Enclosure, PlasticBoxes};

use crate::config::ExperimentConfig;

/// What the weekend produced.
#[derive(Debug, Clone)]
pub struct PrototypeReport {
    /// Minimum outside temperature observed, °C (paper: −10.2).
    pub outside_min_c: f64,
    /// Mean outside temperature, °C (paper: −9.2).
    pub outside_mean_c: f64,
    /// Minimum CPU temperature reported by lm-sensors, °C (paper: −4).
    pub cpu_min_c: f64,
    /// Did the machine stay operational the whole weekend?
    pub survived: bool,
    /// Did the drives pass their self-tests afterwards?
    pub smart_ok: bool,
}

/// Run the prototype weekend under the given experiment configuration
/// (uses its climate and seed; ignores the fleet).
pub fn run_prototype(cfg: &ExperimentConfig) -> PrototypeReport {
    let root = Rng::new(cfg.seed);
    let mut wx = WeatherModel::new(cfg.climate.clone(), cfg.seed);
    let start = SimTime::from_date(2010, 2, 12) + SimDuration::hours(16);
    let end = SimTime::from_date(2010, 2, 15) + SimDuration::hours(10);
    let mut station = WeatherStation::new(StationConfig::default(), start, &root);

    let first = wx.sample_at(start);
    let mut boxes = PlasticBoxes::new(&first);
    let spec = ServerSpec::vendor_a();
    let mut server = HostBank::new();
    let host = server.push_host(&spec);
    let mut thermal = CaseBank::new();
    thermal.push(&ServerThermalParams::vendor_a_tower(), first.temp_c);

    let mut outside_min = f64::INFINITY;
    let mut outside_sum = 0.0;
    let mut outside_n = 0u64;
    let mut t = start;
    let tick = SimDuration::minutes(1);
    while t <= end {
        if let Some(obs) = station.poll(&mut wx, t) {
            outside_min = outside_min.min(obs.temp_c);
            outside_sum += obs.temp_c;
            outside_n += 1;
        }
        let weather = wx.sample_at(t);
        // The prototype idled (no synthetic load yet): ~idle power.
        boxes.step(60.0, &weather, spec.idle_power_w);
        let state = boxes.state();
        thermal.step_one(
            host,
            60.0,
            state.air_temp_c,
            spec.cpu_idle_w,
            spec.idle_power_w,
        );
        server.sensor_read_cpu_temp(host, thermal.cpu_temp_c(host));
        t += tick;
    }

    PrototypeReport {
        outside_min_c: outside_min,
        outside_mean_c: outside_sum / outside_n.max(1) as f64,
        cpu_min_c: server.sensor_min_seen_c(host),
        survived: server.is_running(host),
        smart_ok: server.disks_all_long_tests_pass(host),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    #[test]
    fn prototype_matches_paper_shape() {
        // Thanks to the climate anchor the weekend statistics land near the
        // paper's reported values for any seed.
        for seed in [1, 42, 2010] {
            let report = run_prototype(&ExperimentConfig::paper_scripted(seed));
            assert!(report.survived, "seed {seed}: prototype must survive");
            assert!(report.smart_ok);
            assert!(
                (-13.0..=-6.0).contains(&report.outside_mean_c),
                "seed {seed}: mean {} (paper −9.2)",
                report.outside_mean_c
            );
            assert!(
                (-16.0..=-8.0).contains(&report.outside_min_c),
                "seed {seed}: min {} (paper −10.2)",
                report.outside_min_c
            );
            assert!(
                report.outside_min_c < report.outside_mean_c,
                "min below mean"
            );
            // CPU runs a few kelvin above ambient at idle: paper saw −4 °C.
            assert!(
                (-9.0..=0.0).contains(&report.cpu_min_c),
                "seed {seed}: CPU min {} (paper −4)",
                report.cpu_min_c
            );
            assert!(report.cpu_min_c > report.outside_min_c);
        }
    }

    /// Exact T5 outputs for two seeds: any drift in the weekend's physics,
    /// sensor or disk model — down to one ulp — fails here.
    #[test]
    fn prototype_report_is_pinned() {
        let pins: [(u64, u64, u64, u64); 2] = [
            (
                42,
                0xc027_fe7f_1e8c_2301,
                0xc020_4746_9e64_884f,
                0xc015_37d7_6644_b69c,
            ),
            (
                2010,
                0xc025_7a28_7866_7356,
                0xc01e_b289_566c_9c7d,
                0xc018_a2d6_d3bd_7a0d,
            ),
        ];
        for (seed, outside_min, outside_mean, cpu_min) in pins {
            let report = run_prototype(&ExperimentConfig::paper_scripted(seed));
            assert_eq!(report.outside_min_c.to_bits(), outside_min, "seed {seed}");
            assert_eq!(report.outside_mean_c.to_bits(), outside_mean, "seed {seed}");
            assert_eq!(report.cpu_min_c.to_bits(), cpu_min, "seed {seed}");
            assert!(report.survived, "seed {seed}");
            assert!(report.smart_ok, "seed {seed}");
        }
    }

    #[test]
    fn deterministic() {
        let a = run_prototype(&ExperimentConfig::paper_scripted(5));
        let b = run_prototype(&ExperimentConfig::paper_scripted(5));
        assert_eq!(a.outside_min_c, b.outside_min_c);
        assert_eq!(a.cpu_min_c, b.cpu_min_c);
    }
}
