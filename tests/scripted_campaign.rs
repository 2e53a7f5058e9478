//! The flagship integration test: run the full scripted campaign once and
//! check every headline number the paper reports.
//!
//! This is the one deliberately long test in the suite (~45 s debug): it
//! exercises every crate in the workspace end to end.

mod support;

use std::cell::RefCell;
use std::rc::Rc;

use frostlab::compress::recover::recover;
use frostlab::core::{tables, ExperimentConfig, ScenarioBuilder};
use frostlab::faults::repair::Disposition;
use frostlab::faults::types::FaultKind;
use frostlab::netsim::collector::CollectOutcome;
use frostlab::simkern::time::{SimDuration, SimTime};

/// The campaign's results, and its unreachable collection attempts as
/// `(host, at, gap)`.
fn campaign() -> (
    frostlab::core::ExperimentResults,
    Vec<(u32, SimTime, SimDuration)>,
) {
    let unreachable = Rc::new(RefCell::new(Vec::new()));
    let tap = Rc::clone(&unreachable);
    let builder = ScenarioBuilder::paper(ExperimentConfig::paper_scripted(42));
    let results = support::tap_collection(builder, move |records| {
        for r in records {
            if let CollectOutcome::Unreachable { gap } = r.outcome {
                tap.borrow_mut().push((r.host, r.at, gap));
            }
        }
    })
    .build()
    .run();
    (results, unreachable.take())
}

#[test]
fn full_scripted_campaign_reproduces_the_paper() {
    let (results, unreachable) = campaign();

    // --- T1: failure rate 1/18 = 5.6 %, comparable to Intel's 4.46 % ---
    let cmp = results.failure_comparison();
    assert_eq!(
        cmp.outside.failed_hosts, 1,
        "exactly one failing host (tent)"
    );
    assert_eq!(cmp.control.failed_hosts, 0, "control group clean");
    assert!((cmp.fleet().rate - 1.0 / 18.0).abs() < 1e-12);
    assert!(cmp.comparable_with_intel());

    // --- host #15's saga ---
    let h15 = &results.hosts[&15];
    assert_eq!(h15.failures.len(), 2, "two transient failures");
    assert_eq!(h15.failures[0], SimTime::from_ymd_hms(2010, 3, 7, 4, 40, 0));
    assert_eq!(
        h15.failures[1],
        SimTime::from_ymd_hms(2010, 3, 17, 12, 20, 0)
    );
    assert_eq!(h15.resets, 1, "one in-place reset (the Monday visit)");
    assert_eq!(h15.disposition, Disposition::TakenIndoors);
    assert_eq!(
        h15.memtest_failed,
        Some(true),
        "the indoor Memtest86+ run condemned host #15's DIMM"
    );
    // The replacement (#19) ran and stayed healthy.
    let h19 = &results.hosts[&19];
    assert!(h19.failures.is_empty());

    // --- T2: five wrong hashes, 2 tent / 3 basement, host 9 three times ---
    assert_eq!(results.workload.hash_errors().len(), 5);
    assert_eq!(results.workload.hash_errors_by_placement(), (2, 3));
    let per_host = results.workload.hash_errors_by_host();
    assert_eq!(per_host[&9], 3);
    assert_eq!(per_host[&3], 1);
    assert_eq!(per_host[&10], 1);

    // --- §4.2.2 forensics: stored archives, single-block damage ---
    assert_eq!(results.stored_archives.len(), 5);
    for stored in &results.stored_archives {
        let report = recover(&stored.archive.bytes());
        assert!(
            report.total_blocks() >= 300,
            "block count {} should be near the paper's 396",
            report.total_blocks()
        );
        assert!(
            report.corrupted_count() <= 1,
            "one flipped bit damages at most one block"
        );
    }

    // --- sensor-chip saga: host #1 produced −111 °C readings and healed ---
    let h1 = &results.hosts[&1];
    assert!(h1.sensor_erratic_reads > 0, "erratic reads recorded");
    assert!(
        results
            .fault_events
            .iter()
            .any(|e| e.host.0 == 1 && e.kind == FaultKind::SensorChipErratic),
        "sensor fault event recorded"
    );

    // --- sub-zero CPUs, disks fine ---
    assert!(results.fleet_min_cpu_c() < 0.0, "CPUs ran below freezing");
    assert!(results.fleet_min_cpu_c() > -15.0, "but not absurdly so");
    for h in results.hosts.values() {
        assert!(
            h.disks_pass_long_test,
            "host {} disks must pass (paper: S.M.A.R.T. clean)",
            h.id
        );
    }

    // --- switch deaths show up as collection unavailability ---
    let avail = results.collection_availability();
    assert!(avail < 1.0, "switch outage must cost some rounds");
    assert!(avail > 0.9, "but only a few days' worth: {avail}");
    assert!(
        results
            .fault_events
            .iter()
            .filter(|e| e.kind == FaultKind::SwitchFailure)
            .count()
            == 2
    );

    // --- the Lascar: late start, readout outliers removed ---
    assert!(
        results.lascar_temp.start().expect("lascar has data") >= SimTime::from_date(2010, 3, 5),
        "no inside data before the logger arrived"
    );
    assert!(
        results.lascar_outliers_removed > 0,
        "indoor excursions cleaned"
    );
    assert!(
        results.lascar_temp_raw.len() > results.lascar_temp.len(),
        "cleaning removed samples"
    );

    // --- physics sanity across the campaign ---
    let out_min = results
        .outside
        .iter()
        .map(|o| o.temp_c)
        .fold(f64::INFINITY, f64::min);
    assert!(
        (-30.0..-12.0).contains(&out_min),
        "deep cold happened: {out_min}"
    );
    let tent_min = results.tent_temp_truth.min().expect("tent data");
    assert!(
        tent_min > out_min,
        "tent stays above outside at the minimum"
    );
    let basement_band = (
        results.basement_temp.min().expect("data"),
        results.basement_temp.max().expect("data"),
    );
    assert!(
        basement_band.0 > 18.0 && basement_band.1 < 25.0,
        "control in spec {basement_band:?}"
    );

    // --- energy ---
    assert!(results.tent_energy_true_kwh > 500.0);
    assert!(
        (results.tent_energy_metered_kwh - results.tent_energy_true_kwh).abs()
            < 0.05 * results.tent_energy_true_kwh,
        "the Technoline is accurate to a few percent"
    );

    // --- every table renders against these results ---
    for table in [
        tables::t1_failures(&results).to_string(),
        tables::t2_hashes(&results).to_string(),
        tables::t3_memory(&results).to_string(),
        tables::t4_pue().to_string(),
        tables::t6_savings(42).to_string(),
    ] {
        assert!(table.lines().count() >= 4, "table too small:\n{table}");
    }

    // --- collection traffic is rsync-efficient ---
    let literal = results.collection_literal_bytes();
    // Every byte appended to logs crosses once (plus block-rounding); the
    // fleet appends ~10 KB/host/day ⇒ total literal transfer should be of
    // that order, far below a naive full-file-every-20-min scheme.
    assert!(literal > 1_000_000, "some bytes must move: {literal}");
    assert!(
        literal < 200_000_000,
        "delta sync must not ship whole files every round: {literal}"
    );

    // --- collection gap during the switch outage (Feb 26 – Mar 1) ---
    let outage_start = SimTime::from_ymd_hms(2010, 2, 28, 14, 0, 0);
    let outage_end = outage_start + SimDuration::hours(12);
    let failed_rounds = unreachable
        .iter()
        .filter(|&&(_, at, _)| at >= outage_start && at <= outage_end)
        .count();
    assert!(
        failed_rounds > 0,
        "tent hosts unreachable during the outage"
    );

    // --- unreachable rounds carry the gap duration, growing monotonically
    // per host while the outage lasts ---
    let mut host_gaps: std::collections::BTreeMap<u32, Vec<SimDuration>> =
        std::collections::BTreeMap::new();
    for &(host, _, gap) in &unreachable {
        host_gaps.entry(host).or_default().push(gap);
    }
    assert!(!host_gaps.is_empty());
    let long_gaps = host_gaps
        .values()
        .flatten()
        .filter(|g| **g > SimDuration::days(2))
        .count();
    assert!(
        long_gaps > 0,
        "the weekend outage produced multi-day staleness"
    );

    // --- the retrying collector healed the outage right after the repair ---
    let restored = SimTime::from_ymd_hms(2010, 3, 1, 11, 30, 0);
    assert!(!results.collection_gaps.is_empty());
    let outage_heals = results
        .collection_gaps
        .iter()
        .filter(|g| g.end > restored && g.end - restored < SimDuration::minutes(30))
        .count();
    // Five tent hosts (1, 2, 3, 6, 10) were installed before the outage;
    // each should recover within one capped retry (≤ 20 min + jitter)
    // instead of waiting for the next scheduled round.
    assert!(
        outage_heals >= 5,
        "every installed tent host should recover within one capped retry: {:?}",
        results.collection_gaps
    );

    // --- the watchdog's incident log covers the whole §4.2.1 story ---
    use frostlab::core::watchdog::IncidentKind;
    let switch_incidents: Vec<_> = results
        .incidents
        .iter()
        .filter(|i| i.kind == IncidentKind::SwitchFailure)
        .collect();
    assert_eq!(switch_incidents.len(), 2, "{:?}", results.incidents);
    for i in &switch_incidents {
        assert_eq!(i.resolved, Some(restored), "{i:?}");
        assert_eq!(i.resolution.as_deref(), Some("spare switch swapped in"));
    }
    let h15_incidents: Vec<_> = results
        .incidents
        .iter()
        .filter(|i| i.kind == IncidentKind::HostHang && i.subject == "host-15")
        .collect();
    assert_eq!(
        h15_incidents.len(),
        2,
        "both hangs logged: {:?}",
        results.incidents
    );
    assert_eq!(
        h15_incidents[0].resolution.as_deref(),
        Some("reset in place"),
        "first hang ends with the Monday reset"
    );
    assert_eq!(
        h15_incidents[1].resolution.as_deref(),
        Some("taken indoors (memtest)"),
        "second hang ends the host's campaign"
    );
    let sensor_incidents = results
        .incidents
        .iter()
        .filter(|i| i.kind == IncidentKind::SensorFault && i.subject == "host-1/sensor")
        .count();
    assert!(sensor_incidents >= 1, "the sensor saga is on the books");
    // No unexplained staleness alarms in the faithful replay: every stale
    // mirror traces back to a switch death or a hung host.
    assert!(
        !results
            .incidents
            .iter()
            .any(|i| i.kind == IncidentKind::CollectionStale),
        "{:?}",
        results.incidents
    );
    // And the whole ledger serializes for dashboards.
    let json = results.incident_log_json().expect("plain data");
    assert!(json.contains("\"switch-0\"") && json.contains("\"host-15\""));
}
