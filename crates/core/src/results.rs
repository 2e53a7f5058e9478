//! Everything a campaign measures.

use std::collections::BTreeMap;

use frostlab_analysis::failure::FailureComparison;
use frostlab_climate::station::WeatherObservation;
use frostlab_faults::repair::Disposition;
use frostlab_faults::types::FaultEvent;
use frostlab_hardware::server::Vendor;
use frostlab_netsim::collector::{CollectionCounts, CollectionGap};
use frostlab_obs::CampaignObs;
use frostlab_simkern::time::SimTime;
use frostlab_trace::CampaignTrace;

use crate::watchdog::{Incident, IncidentRecord};
use frostlab_telemetry::series::TimeSeries;
use frostlab_workload::job::CorruptedArchive;
use frostlab_workload::stats::{Placement, WorkloadStats};

/// Per-host outcome summary.
#[derive(Debug, Clone)]
pub struct HostSummary {
    /// Paper host number.
    pub id: u32,
    /// Vendor letter.
    pub vendor: Vendor,
    /// Placement group.
    pub placement: Placement,
    /// Known-defective series?
    pub defective: bool,
    /// Install time.
    pub installed_at: SimTime,
    /// Timestamps of transient system failures.
    pub failures: Vec<SimTime>,
    /// In-place resets performed.
    pub resets: u32,
    /// Final repair-workflow disposition.
    pub disposition: Disposition,
    /// Lowest CPU temperature truthfully reported, °C.
    pub min_cpu_c: f64,
    /// Number of −111 °C erratic sensor readings produced.
    pub sensor_erratic_reads: u64,
    /// Memory page operations accumulated.
    pub page_ops: u64,
    /// Silent memory corruptions suffered (non-ECC flips).
    pub silent_corruptions: u64,
    /// All drives passing their long self-tests at campaign end?
    pub disks_pass_long_test: bool,
    /// Outcome of the indoor Memtest86+ diagnosis, if the host was taken
    /// indoors (`Some(true)` = the DIMM was condemned, like host #15's).
    pub memtest_failed: Option<bool>,
}

/// A stored (wrong-hash) archive kept for forensics.
#[derive(Debug, Clone)]
pub struct StoredArchive {
    /// Host that produced it.
    pub host: u32,
    /// Completion time of the offending run.
    pub at: SimTime,
    /// The corrupted compressed tarball, kept as its recipe
    /// ([`CorruptedArchive::bytes`] rebuilds it).
    pub archive: CorruptedArchive,
}

/// Full results of one campaign.
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    /// Root seed the campaign ran with.
    pub seed: u64,
    /// Campaign window.
    pub window: (SimTime, SimTime),
    /// The SMEAR III surrogate's outside observations.
    pub outside: Vec<WeatherObservation>,
    /// Tent air temperature (model truth, 10-min cadence).
    pub tent_temp_truth: TimeSeries,
    /// Tent air RH (model truth).
    pub tent_rh_truth: TimeSeries,
    /// Basement air temperature (model truth).
    pub basement_temp: TimeSeries,
    /// Lascar logger temperature, raw (with indoor excursions).
    pub lascar_temp_raw: TimeSeries,
    /// Lascar RH, raw.
    pub lascar_rh_raw: TimeSeries,
    /// Lascar temperature after outlier removal (the published series).
    pub lascar_temp: TimeSeries,
    /// Lascar RH after outlier removal.
    pub lascar_rh: TimeSeries,
    /// Outlier samples removed from the Lascar channels.
    pub lascar_outliers_removed: usize,
    /// Workload bookkeeping.
    pub workload: WorkloadStats,
    /// Every fault event that occurred.
    pub fault_events: Vec<FaultEvent>,
    /// Per-host summaries.
    pub hosts: BTreeMap<u32, HostSummary>,
    /// Collector attempt counts (scheduled rounds and catch-up retries).
    pub collection: CollectionCounts,
    /// Healed collection outages, per host (start, end, failed attempts).
    pub collection_gaps: Vec<CollectionGap>,
    /// The watchdog's incident ledger: switch deaths, host hangs, sensor
    /// faults and unexplained staleness, with resolution timestamps.
    pub incidents: Vec<Incident>,
    /// Wrong-hash archives kept for forensics.
    pub stored_archives: Vec<StoredArchive>,
    /// Tent-group energy as the Technoline counted it, kWh.
    pub tent_energy_metered_kwh: f64,
    /// Tent-group energy, true, kWh.
    pub tent_energy_true_kwh: f64,
    /// The campaign's frozen trace, if the scenario enabled tracing
    /// (`None` for the default no-op tracer).
    pub trace: Option<CampaignTrace>,
    /// The campaign's frozen observability record — alert timeline,
    /// SLO attainment, rollup report and flight dumps — if the scenario
    /// armed the observatory (`None` otherwise).
    pub obs: Option<CampaignObs>,
}

impl ExperimentResults {
    /// Hosts that suffered at least one transient system failure, per group
    /// — the T1 numbers. Denominators are the *initially installed* hosts
    /// (the paper's "of the eighteen hosts installed initially").
    pub fn failure_comparison(&self) -> FailureComparison {
        let count = |p: Placement| {
            self.hosts
                .values()
                .filter(|h| h.placement == p && !h.failures.is_empty())
                .count() as u64
        };
        let initial = |p: Placement| {
            self.hosts
                .values()
                .filter(|h| h.placement == p && h.id != 19)
                .count() as u64
        };
        FailureComparison::new(
            count(Placement::Tent),
            initial(Placement::Tent),
            count(Placement::Basement),
            initial(Placement::Basement),
        )
    }

    /// Collection availability over the campaign: the fraction of
    /// *scheduled* 20-minute rounds that succeeded. Backoff-driven catch-up
    /// retries are excluded so the retry policy's persistence cannot
    /// flatter (or dilute) the cadence the paper reports on.
    pub fn collection_availability(&self) -> f64 {
        self.collection.availability()
    }

    /// The incident ledger in its machine-readable form.
    pub fn incident_log(&self) -> Vec<IncidentRecord> {
        self.incidents.iter().map(IncidentRecord::from).collect()
    }

    /// The incident ledger as pretty JSON.
    pub fn incident_log_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(&self.incident_log())
    }

    /// Literal bytes the rsync collection actually moved over the wire
    /// across the campaign (copy tokens excluded).
    pub fn collection_literal_bytes(&self) -> u64 {
        self.collection.literal_bytes
    }

    /// Mean tent-group power over the campaign, W.
    pub fn tent_mean_power_w(&self) -> f64 {
        let hours = (self.window.1 - self.window.0).as_hours_f64();
        if hours <= 0.0 {
            0.0
        } else {
            self.tent_energy_true_kwh * 1000.0 / hours
        }
    }

    /// The lowest CPU temperature any host truthfully reported — the
    /// paper's "CPU had been operating in temperatures as low as −4 °C"
    /// claim generalized to the fleet.
    pub fn fleet_min_cpu_c(&self) -> f64 {
        self.hosts
            .values()
            .map(|h| h.min_cpu_c)
            .fold(f64::INFINITY, f64::min)
    }

    /// Condensed, machine-readable summary for dashboards / EXPERIMENTS.md
    /// evidence — and the per-run projection the ensemble engine streams,
    /// so an N-campaign sweep retains O(1) memory instead of N full
    /// [`ExperimentResults`]. Every field is a cheap fold over data the
    /// campaign already collected; nothing here re-simulates.
    pub fn summary(&self) -> CampaignSummary {
        let cmp = self.failure_comparison();
        let finite = |x: Option<f64>| x.unwrap_or(f64::NAN);
        // Empty min-folds yield +inf; normalize to NaN so "no sample" has
        // one canonical encoding. JSON maps every non-finite float to
        // null, so a summary that round-trips through a result store
        // (frostlab-farm) must decode null to a value downstream
        // aggregation treats exactly like the in-process one — and
        // min/max trackers ignore NaN but would absorb ±inf.
        let or_nan = |x: f64| if x.is_finite() { x } else { f64::NAN };
        CampaignSummary {
            seed: self.seed,
            start: self.window.0.to_string(),
            end: self.window.1.to_string(),
            total_runs: self.workload.total_runs(),
            wrong_hashes: self.workload.hash_errors().len(),
            wrong_hashes_tent: self.workload.hash_errors_by_placement().0,
            silent_corruptions: self.hosts.values().map(|h| h.silent_corruptions).sum(),
            stored_archives: self.stored_archives.len(),
            failed_hosts_tent: cmp.outside.failed_hosts,
            failed_hosts_control: cmp.control.failed_hosts,
            host_resets: self.hosts.values().map(|h| u64::from(h.resets)).sum(),
            fleet_failure_rate: cmp.fleet().rate,
            comparable_with_intel: cmp.comparable_with_intel(),
            outside_min_c: or_nan(
                self.outside
                    .iter()
                    .map(|o| o.temp_c)
                    .fold(f64::INFINITY, f64::min),
            ),
            tent_temp_min_c: finite(self.tent_temp_truth.min()),
            tent_temp_max_c: finite(self.tent_temp_truth.max()),
            tent_rh_max_pct: finite(self.tent_rh_truth.max()),
            fleet_min_cpu_c: or_nan(self.fleet_min_cpu_c()),
            collection_availability: self.collection_availability(),
            tent_energy_kwh: self.tent_energy_true_kwh,
            lascar_outliers_removed: self.lascar_outliers_removed,
            total_page_ops: self.workload.total_page_ops(),
        }
    }
}

/// Flat, serializable campaign summary (see [`ExperimentResults::summary`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignSummary {
    /// Root seed.
    pub seed: u64,
    /// Window start (ISO-ish datetime).
    pub start: String,
    /// Window end.
    pub end: String,
    /// Synthetic-load runs executed.
    pub total_runs: u64,
    /// Wrong md5sums observed.
    pub wrong_hashes: usize,
    /// Wrong md5sums from tent hosts.
    pub wrong_hashes_tent: usize,
    /// Silent (non-ECC) memory corruptions across the fleet.
    pub silent_corruptions: u64,
    /// Wrong-hash archives kept for forensics.
    pub stored_archives: usize,
    /// Tent hosts with ≥1 transient failure.
    pub failed_hosts_tent: u64,
    /// Control hosts with ≥1 transient failure.
    pub failed_hosts_control: u64,
    /// In-place resets performed across the fleet.
    pub host_resets: u64,
    /// Whole-fleet host failure rate.
    pub fleet_failure_rate: f64,
    /// Does the Wilson interval cover Intel's 4.46 %?
    pub comparable_with_intel: bool,
    /// Campaign minimum outside temperature, °C.
    pub outside_min_c: f64,
    /// Tent air temperature minimum (model truth), °C.
    pub tent_temp_min_c: f64,
    /// Tent air temperature maximum (model truth), °C.
    pub tent_temp_max_c: f64,
    /// Tent relative-humidity maximum (model truth), %.
    pub tent_rh_max_pct: f64,
    /// Lowest truthful CPU reading in the fleet, °C.
    pub fleet_min_cpu_c: f64,
    /// Fraction of collection rounds that succeeded.
    pub collection_availability: f64,
    /// Tent-group energy, kWh.
    pub tent_energy_kwh: f64,
    /// Lascar samples removed as indoor-excursion outliers.
    pub lascar_outliers_removed: usize,
    /// Total memory page operations (exposure).
    pub total_page_ops: u64,
}

impl CampaignSummary {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}
