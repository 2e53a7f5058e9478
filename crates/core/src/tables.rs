//! Table reproductions T1–T6 (the paper's in-text numeric results).

use frostlab_analysis::memory_est::{estimate, ExposureInputs};
use frostlab_analysis::report::{one_in, pct, Table};
use frostlab_compress::recover::recover;
use frostlab_energy::economizer::{simulate_year, EconomizerConfig};
use frostlab_energy::plant::CoolingPlant;
use frostlab_energy::pue::{naive_plant_pue, pue_with_legacy};
use frostlab_workload::stats::Placement;

use crate::prototype::PrototypeReport;
use crate::results::ExperimentResults;

/// T1 — failure rates: this experiment vs. Intel's economizer PoC.
pub fn t1_failures(results: &ExperimentResults) -> Table {
    let cmp = results.failure_comparison();
    let fleet = cmp.fleet();
    let mut t = Table::new(
        "T1 — transient system failures (hosts affected)",
        &["group", "failed/total", "rate", "95% Wilson"],
    );
    let fmt_rate = |r: &frostlab_analysis::failure::FailureRate| {
        vec![
            format!("{}/{}", r.failed_hosts, r.total_hosts),
            pct(r.rate),
            format!("[{}, {}]", pct(r.interval.0), pct(r.interval.1)),
        ]
    };
    let mut row = vec!["tent (outside)".to_string()];
    row.extend(fmt_rate(&cmp.outside));
    t.row(&row);
    let mut row = vec!["basement (control)".to_string()];
    row.extend(fmt_rate(&cmp.control));
    t.row(&row);
    let mut row = vec!["fleet (paper: 5.6 %)".to_string()];
    row.extend(fmt_rate(&fleet));
    t.row(&row);
    t.row(&[
        "Intel PoC [1] (paper: comparable)".to_string(),
        "—".to_string(),
        pct(cmp.intel_rate),
        if cmp.comparable_with_intel() {
            "covered by fleet interval".to_string()
        } else {
            "NOT covered".to_string()
        },
    ]);
    t
}

/// T2 — wrong hashes and the bzip2recover forensics.
pub fn t2_hashes(results: &ExperimentResults) -> Table {
    let (tent, basement) = results.workload.hash_errors_by_placement();
    let mut t = Table::new(
        "T2 — wrong md5sums (paper: 5 of 27 627 runs; 2 tent hosts x1, 1 basement host x3; 1 bad block of 396)",
        &["metric", "value"],
    );
    t.row(&[
        "total runs".to_string(),
        results.workload.total_runs().to_string(),
    ]);
    t.row(&[
        "wrong hashes".to_string(),
        results.workload.hash_errors().len().to_string(),
    ]);
    t.row(&["wrong hashes (tent)".to_string(), tent.to_string()]);
    t.row(&["wrong hashes (basement)".to_string(), basement.to_string()]);
    for (host, n) in results.workload.hash_errors_by_host() {
        let placement = results
            .hosts
            .get(&host)
            .map(|h| h.placement)
            .unwrap_or(Placement::Tent);
        t.row(&[format!("  host #{host:02} ({placement})"), format!("{n}")]);
    }
    // Forensics on the most recent stored archive, like §4.2.2.
    if let Some(stored) = results.stored_archives.last() {
        let report = recover(&stored.archive.bytes());
        t.row(&[
            "recovered archive: blocks".to_string(),
            report.total_blocks().to_string(),
        ]);
        t.row(&[
            "recovered archive: corrupted blocks".to_string(),
            report.corrupted_count().to_string(),
        ]);
        t.row(&[
            "corrupted block indices".to_string(),
            format!("{:?}", report.corrupted_indices()),
        ]);
    } else {
        t.row(&["recovered archive".to_string(), "none stored".to_string()]);
    }
    t
}

/// T3 — the memory-exposure estimate.
pub fn t3_memory(results: &ExperimentResults) -> Table {
    let mut t = Table::new(
        "T3 — memory-fault exposure (paper: ~3.2e9 page ops, ~1 in 570 million)",
        &["metric", "value"],
    );
    let measured_ops = results.workload.total_page_ops();
    let errors = results.workload.hash_errors().len() as u64;
    t.row(&[
        "page ops (measured)".to_string(),
        format!("{measured_ops:.3e}", measured_ops = measured_ops as f64),
    ]);
    t.row(&["faulty archives (measured)".to_string(), errors.to_string()]);
    let ratio = if errors > 0 {
        measured_ops as f64 / errors as f64
    } else {
        f64::INFINITY
    };
    t.row(&["fault ratio (full campaign)".to_string(), one_in(ratio)]);
    // The paper's 27 627 runs is a snapshot at writing time (~Mar 26);
    // report how many of the measured errors had landed by then.
    let snapshot = frostlab_simkern::time::SimTime::from_date(2010, 3, 26);
    let errors_by_snapshot = results
        .workload
        .hash_errors()
        .iter()
        .filter(|e| e.at <= snapshot)
        .count();
    t.row(&[
        "errors by the paper's writing time (Mar 26)".to_string(),
        errors_by_snapshot.to_string(),
    ]);
    // The paper's own back-of-envelope, reproduced as computation.
    let paper = estimate(&ExposureInputs::paper_ballpark(), 6);
    t.row(&[
        "paper ballpark: page ops".to_string(),
        format!("{:.2e}", paper.page_ops as f64),
    ]);
    t.row(&[
        "paper ballpark: fault ratio".to_string(),
        one_in(paper.ops_per_fault),
    ]);
    t
}

/// T4 — the §5 PUE calculation.
pub fn t4_pue() -> Table {
    let plant = CoolingPlant::department_retrofit();
    let mut t = Table::new(
        "T4 — new cluster PUE (paper: 75 kW IT; 6.9 + 44.7 + 3.8 kW cooling; PUE 1.74)",
        &["item", "kW"],
    );
    let crac: f64 = plant.cracs.iter().map(|c| c.power_draw_kw).sum();
    t.row(&["IT load (peak)".to_string(), "75.0".to_string()]);
    t.row(&["3 new CRAC units".to_string(), format!("{crac:.1}")]);
    t.row(&[
        "chilled-water HVAC unit".to_string(),
        format!("{:.1}", plant.hvac_unit_kw),
    ]);
    t.row(&[
        "roof liquid cooler".to_string(),
        format!("{:.1}", plant.roof_cooler_kw),
    ]);
    t.row(&[
        "naive PUE (sum of figures)".to_string(),
        format!("{:.2}", naive_plant_pue(75.0, &plant)),
    ]);
    t.row(&[
        "with legacy CRAC share (25 % @ 0.5 kW/kW)".to_string(),
        format!("{:.2}", pue_with_legacy(75.0, &plant, 0.25, 0.5)),
    ]);
    t
}

/// T5 — the prototype weekend.
pub fn t5_prototype(report: &PrototypeReport) -> Table {
    let mut t = Table::new(
        "T5 — prototype weekend Feb 12–15 (paper: min −10.2 °C, mean −9.2 °C, CPU to −4 °C, survived)",
        &["metric", "measured", "paper"],
    );
    t.row(&[
        "outside min".to_string(),
        format!("{:.1} °C", report.outside_min_c),
        "−10.2 °C".to_string(),
    ]);
    t.row(&[
        "outside mean".to_string(),
        format!("{:.1} °C", report.outside_mean_c),
        "−9.2 °C".to_string(),
    ]);
    t.row(&[
        "CPU minimum".to_string(),
        format!("{:.1} °C", report.cpu_min_c),
        "−4 °C".to_string(),
    ]);
    t.row(&[
        "survived weekend".to_string(),
        report.survived.to_string(),
        "yes".to_string(),
    ]);
    t.row(&[
        "S.M.A.R.T. clean".to_string(),
        report.smart_ok.to_string(),
        "yes".to_string(),
    ]);
    t
}

/// T6 — economizer savings across the three study climates.
pub fn t6_savings(seed: u64) -> Table {
    let mut t = Table::new(
        "T6 — air-economizer cooling-energy savings (paper context: 40 % HP … 67 % Intel)",
        &[
            "climate",
            "free-cooling hours",
            "free %",
            "savings vs mechanical",
            "effective PUE",
        ],
    );
    for climate in [
        frostlab_climate::presets::helsinki_winter_2010(),
        frostlab_climate::presets::north_east_england(),
        frostlab_climate::presets::new_mexico(),
    ] {
        let r = simulate_year(climate, &EconomizerConfig::default(), seed);
        t.row(&[
            r.climate.to_string(),
            format!("{:.0}", r.free_hours),
            pct(r.free_fraction()),
            pct(r.savings()),
            format!("{:.2}", r.effective_pue()),
        ]);
    }
    t.row(&[
        "published baselines".to_string(),
        "—".to_string(),
        "—".to_string(),
        "40 % (HP Wynyard) – 67 % (Intel NM)".to_string(),
        "—".to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::prototype::run_prototype;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn t4_is_config_free_and_matches_paper() {
        let t = t4_pue();
        let s = t.to_string();
        assert!(s.contains("1.74"), "{s}");
    }

    #[test]
    fn t5_renders() {
        let report = run_prototype(&ExperimentConfig::paper_scripted(1));
        let s = t5_prototype(&report).to_string();
        assert!(s.contains("outside min"));
        assert!(s.contains("−10.2 °C"));
    }

    #[test]
    fn t6_renders_three_climates() {
        let t = t6_savings(9);
        assert_eq!(t.len(), 4);
        let s = t.to_string();
        assert!(s.contains("Helsinki") && s.contains("New Mexico") && s.contains("NE England"));
    }

    #[test]
    fn campaign_tables_render() {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(5, 10))
            .build()
            .run();
        let t1 = t1_failures(&results).to_string();
        assert!(t1.contains("tent (outside)"));
        assert!(t1.contains("4.5 %"), "intel row: {t1}");
        let t2 = t2_hashes(&results).to_string();
        assert!(t2.contains("total runs"));
        let t3 = t3_memory(&results).to_string();
        assert!(
            t3.contains("570 million") || t3.contains("paper ballpark"),
            "{t3}"
        );
    }
}
