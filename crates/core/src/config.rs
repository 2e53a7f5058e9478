//! Experiment configuration.

use frostlab_climate::presets;
use frostlab_climate::weather::ClimateParams;
use frostlab_faults::chaos::ChaosConfig;
use frostlab_simkern::time::{SimDuration, SimTime};
use frostlab_thermal::tent::TentParams;
use frostlab_workload::job::JobConfig;

use crate::fleet::FleetSpec;

/// The simulation tick. Every campaign steps on this grid, and its start
/// must lie on it.
pub const TICK: SimDuration = SimDuration::minutes(1);
/// [`TICK`] in seconds.
pub const TICK_SECS: f64 = TICK.as_secs() as f64;
/// [`TICK`] in hours.
pub const TICK_HOURS: f64 = TICK_SECS / 3600.0;
/// Interval between fault-model polls.
pub const FAULT_POLL_INTERVAL: SimDuration = SimDuration::minutes(5);
/// Sensor-log append cadence (bounds log sizes).
pub const SENSOR_LOG_INTERVAL: SimDuration = SimDuration::minutes(20);

/// How faults enter the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Replay the paper's documented fault history exactly (figures and
    /// tables match the publication).
    Scripted,
    /// Draw every fault from the hazard models (Monte-Carlo mode).
    Stochastic,
}

/// Full configuration of one campaign.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Root seed; everything stochastic derives from it.
    pub seed: u64,
    /// Fault mode.
    pub fault_mode: FaultMode,
    /// Campaign start (the paper's normal phase began Feb 19; the weather
    /// and station trace start earlier for context in Fig. 3). Must lie on
    /// the [`TICK`] grid.
    pub start: SimTime,
    /// Campaign end ("three months" from the first install ⇒ mid-May).
    pub end: SimTime,
    /// Climate parameters (Helsinki by default; swap for what-if studies).
    pub climate: ClimateParams,
    /// Tent physical parameters.
    pub tent: TentParams,
    /// Workload pipeline configuration.
    pub job: JobConfig,
    /// Collection cadence (paper: 20 minutes).
    pub collection_interval: SimDuration,
    /// When the Lascar logger finally arrives on site (it was late).
    pub lascar_deployed_at: SimTime,
    /// Ablation: pretend every DIMM in the fleet is ECC (the what-if the
    /// paper's §4.2.2 implies — ECC would have corrected all five flips).
    pub force_ecc: bool,
    /// Chaos injection for resilience studies (`None` = off). Ignored in
    /// scripted mode — the paper's history is replayed verbatim there.
    pub chaos: Option<ChaosConfig>,
    /// Which fleet to simulate (the paper's 19 machines by default; a
    /// generated vendor-mix fleet for datacenter-scale studies).
    pub fleet: FleetSpec,
}

impl ExperimentConfig {
    /// The paper's campaign with scripted fault history.
    pub fn paper_scripted(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            fault_mode: FaultMode::Scripted,
            start: SimTime::from_date(2010, 2, 12),
            end: SimTime::from_date(2010, 5, 13),
            climate: presets::helsinki_winter_2010(),
            tent: TentParams::default(),
            job: JobConfig::default(),
            collection_interval: SimDuration::minutes(20),
            lascar_deployed_at: SimTime::from_date(2010, 3, 5),
            force_ecc: false,
            chaos: None,
            fleet: FleetSpec::Paper,
        }
    }

    /// Stochastic campaign with §4.2.1-grade chaos injection enabled.
    pub fn paper_chaos(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            chaos: Some(ChaosConfig::paper_like()),
            ..ExperimentConfig::paper_stochastic(seed)
        }
    }

    /// Same campaign, faults drawn stochastically.
    pub fn paper_stochastic(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            ..ExperimentConfig::paper_scripted(seed)
        }
    }

    /// A short window for tests: `days` days starting at the normal phase,
    /// with coarser bookkeeping so debug-mode tests stay fast.
    pub fn short(seed: u64, days: i64) -> ExperimentConfig {
        ExperimentConfig {
            start: SimTime::from_date(2010, 2, 12),
            end: SimTime::from_date(2010, 2, 12) + SimDuration::days(days),
            collection_interval: SimDuration::hours(2),
            lascar_deployed_at: SimTime::from_date(2010, 2, 12),
            ..ExperimentConfig::paper_scripted(seed)
        }
    }

    /// Campaign length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_campaign_spans_three_months() {
        let c = ExperimentConfig::paper_scripted(1);
        let days = c.duration().as_days_f64();
        assert!((85.0..95.0).contains(&days), "campaign days {days}");
        assert_eq!(c.fault_mode, FaultMode::Scripted);
    }

    #[test]
    fn stochastic_variant() {
        let c = ExperimentConfig::paper_stochastic(1);
        assert_eq!(c.fault_mode, FaultMode::Stochastic);
        assert_eq!(c.start, ExperimentConfig::paper_scripted(1).start);
    }

    #[test]
    fn lascar_arrives_late_in_paper_config() {
        let c = ExperimentConfig::paper_scripted(1);
        assert!(c.lascar_deployed_at > c.start + SimDuration::days(14));
    }

    #[test]
    fn short_config_is_short() {
        let c = ExperimentConfig::short(1, 3);
        assert_eq!(c.duration().as_days_f64(), 3.0);
    }
}
