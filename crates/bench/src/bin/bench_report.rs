//! Machine-readable performance report — the repo's perf trajectory.
//!
//! Times three things and writes `BENCH_ensemble.json`:
//!
//! 1. `campaign_week_ms` — one week of the full scripted campaign;
//! 2. `ensemble_serial_ms` — N one-week stochastic campaigns on 1 thread;
//! 3. `ensemble_parallel_ms` — the same seed range on all cores (or
//!    `--threads`), plus the resulting `speedup`;
//! 4. `hosts_scaling` — one-day stochastic campaigns at 19, 1,000 and
//!    10,000 hosts (informational: reported, never checked against the
//!    baseline — fleet-size scaling is a trajectory to watch, not a gate).
//!
//! While it's at it, it asserts the serial and parallel sweeps produced
//! byte-identical invariant summaries — a free determinism check on every
//! benchmark run.
//!
//! The campaign-week numbers are trustworthy, not just fast to produce:
//! `--warmup` probe-free runs (default 1) absorb cold-start effects (page
//! faults, lazy relocation, branch-predictor training — the first run of a
//! week campaign measures 50–100 % high on this workload), then the
//! per-phase breakdown and `campaign_week_ms` are each the **median of
//! `--reps` runs** (default 3). The ensemble sweeps stay single-pass: at 32
//! campaigns apiece they are already self-averaging.
//!
//! `--check BASELINE.json` compares wall-clock against a committed
//! baseline with a ±`--tolerance` band (default 0.25) and exits 1 on
//! regression — the CI `bench-regression` gate. When
//! the baseline carries a `phase_budget_ms` object (hand-maintained, e.g.
//! `"phase_budget_ms": {"weather": 4.8}`), each named phase's median
//! wall-clock is additionally checked against its budget with the same
//! ±tolerance mechanics and a per-phase diff line; a budgeted phase
//! missing from the run is itself a failure.
//!
//! ```sh
//! bench_report [--jobs N] [--days D] [--threads T] [--out PATH]
//!              [--reps N] [--warmup N]
//!              [--check BASELINE.json] [--tolerance 0.25]
//! ```

use std::time::Instant;

use frostlab_core::config::{ExperimentConfig, FaultMode};
use frostlab_core::fleet::FleetSpec;
use frostlab_core::phases::PhaseTiming;
use frostlab_core::ScenarioBuilder;
use frostlab_ensemble::sweep;
use frostlab_obs::ObsConfig;

/// Schema tag for the benchmark JSON.
const SCHEMA: &str = "frostlab-bench-ensemble/v1";

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct BenchReport {
    schema: String,
    /// Campaigns in the ensemble.
    jobs: u64,
    /// Simulated days per campaign.
    days: i64,
    /// Worker threads the parallel sweep used.
    threads: usize,
    /// One week of the full scripted campaign, ms.
    campaign_week_ms: f64,
    /// Serial (1-thread) ensemble wall-clock, ms.
    ensemble_serial_ms: f64,
    /// Parallel ensemble wall-clock, ms.
    ensemble_parallel_ms: f64,
    /// Serial ms per campaign.
    per_campaign_ms: f64,
    /// ensemble_serial_ms / ensemble_parallel_ms.
    speedup: f64,
    /// Per-phase wall-clock breakdown of the instrumented campaign-week
    /// runs: per phase, the median `total_ms` across `--reps` warm runs
    /// (pipeline order). Checked against the baseline's `phase_budget_ms`
    /// map when one is present.
    phase_breakdown: Vec<PhaseTiming>,
    /// One-day stochastic campaigns at growing fleet sizes (informational;
    /// never compared against the baseline).
    hosts_scaling: Vec<HostsScaling>,
}

/// One row of the fleet-size scaling sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct HostsScaling {
    /// Fleet size (19 = the paper's own fleet).
    hosts: u32,
    /// Wall-clock of one simulated day, ms (single run — at 10,000 hosts
    /// a rep loop would dominate the whole report's runtime). The run is
    /// instrumented (per-phase probes + the observatory armed), so this
    /// is the *observed* campaign's wall-clock.
    campaign_day_ms: f64,
    /// The observe phase's share of that day, ms. At 10,000 hosts this is
    /// checked against the baseline's `observe_budget_10k_ms` — the
    /// observatory must stay a footnote of the fleet scan, not a second
    /// host-step.
    observe_ms: f64,
    /// Pack-verify runs the fleet completed in that day.
    total_runs: u64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// Median with a total order on floats (NaN sorts last and cannot win
/// unless every sample is NaN).
fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Per-phase median across several instrumented runs. Phase order and call
/// counts come from the first run (every run executes the same pipeline).
fn median_breakdown(runs: &[Vec<PhaseTiming>]) -> Vec<PhaseTiming> {
    let first = match runs.first() {
        Some(first) => first,
        None => return Vec::new(),
    };
    first
        .iter()
        .map(|p| PhaseTiming {
            phase: p.phase.clone(),
            total_ms: median(
                runs.iter()
                    .flat_map(|run| run.iter().filter(|q| q.phase == p.phase))
                    .map(|q| q.total_ms)
                    .collect(),
            ),
            calls: p.calls,
        })
        .collect()
}

/// The baseline's hand-maintained `phase_budget_ms` object, as
/// `(phase, budget_ms)` pairs in file order. Absent or malformed ⇒ empty
/// (old baselines predate per-phase budgets).
fn phase_budgets(baseline: &serde::Value) -> Vec<(String, f64)> {
    match baseline.get("phase_budget_ms") {
        Some(serde::Value::Object(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|b| (k.clone(), b)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Evaluate each phase budget against the measured breakdown: one
/// human-readable diff line per budget, plus whether anything regressed.
/// Same ±tolerance mechanics as the top-level wall-clock metrics; a
/// budgeted phase missing from the breakdown is a regression (a renamed or
/// dropped phase must be re-budgeted deliberately, not silently pass).
fn phase_budget_verdicts(
    budgets: &[(String, f64)],
    breakdown: &[PhaseTiming],
    tolerance: f64,
) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut regressed = false;
    for (phase, budget) in budgets {
        let Some(timing) = breakdown.iter().find(|p| &p.phase == phase) else {
            regressed = true;
            lines.push(format!(
                "phase {phase}: budgeted at {budget:.1} ms but missing from this \
                 run's phase breakdown — REGRESSION"
            ));
            continue;
        };
        let ratio = timing.total_ms / budget.max(1e-9);
        let verdict = if ratio > 1.0 + tolerance {
            regressed = true;
            "REGRESSION"
        } else if ratio < 1.0 - tolerance {
            "improved (consider tightening the budget)"
        } else {
            "ok"
        };
        lines.push(format!(
            "phase {phase}: {:.2} ms vs budget {budget:.2} ms ({ratio:.2}×) — {verdict}",
            timing.total_ms
        ));
    }
    (lines, regressed)
}

/// Pull one wall-clock metric out of a baseline parsed as a plain JSON
/// value. Field-by-field extraction tolerates older baseline shapes —
/// e.g. a `BENCH_baseline.json` written before `phase_breakdown` existed
/// — which a typed parse would reject for the missing field.
fn baseline_metric(baseline: &serde::Value, name: &str) -> Option<f64> {
    baseline.get(name).and_then(|v| v.as_f64())
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_report [--jobs N] [--days D] [--threads T] [--out PATH] \
         [--reps N] [--warmup N] [--check BASELINE.json] [--tolerance F]"
    );
    std::process::exit(2);
}

fn main() {
    let mut jobs: u64 = 32;
    let mut days: i64 = 7;
    let mut threads: usize = 0;
    let mut out = String::from("BENCH_ensemble.json");
    let mut reps: usize = 3;
    let mut warmup: usize = 1;
    let mut check: Option<String> = None;
    let mut tolerance: f64 = 0.25;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--jobs" => jobs = val("--jobs").parse().unwrap_or_else(|_| usage()),
            "--days" => days = val("--days").parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--out" => out = val("--out"),
            "--reps" => reps = val("--reps").parse().unwrap_or_else(|_| usage()),
            "--warmup" => warmup = val("--warmup").parse().unwrap_or_else(|_| usage()),
            "--check" => check = Some(val("--check")),
            "--tolerance" => tolerance = val("--tolerance").parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    let stochastic_week = |seed: u64| {
        ScenarioBuilder::paper(ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            ..ExperimentConfig::short(seed, days)
        })
        .build()
    };

    let reps = reps.max(1);
    eprintln!(
        "bench_report: campaign_week ({warmup} warmup + {reps} instrumented + {reps} timed, \
         medians) …"
    );
    // Cold-start effects (page faults, lazy relocation, predictor training)
    // inflate the first week campaign by 50–100 %, so warm up probe-free
    // first; an early version of this tool let the instrumented run double
    // as the warmup and its breakdown read roughly 2× high.
    for _ in 0..warmup {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(1, 7))
            .build()
            .run();
        std::hint::black_box(results.workload.total_runs());
    }
    // Instrumented reps: every phase wrapped in a timing probe yields the
    // per-phase breakdown (median per phase). The timed reps below stay
    // probe-free so `campaign_week_ms` is comparable with pre-pipeline
    // baselines.
    // The observatory is armed for the instrumented reps (only), so the
    // `observe` phase shows up in the breakdown and can carry its own
    // `phase_budget_ms` entry; the timed reps stay bare.
    let mut breakdown_runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (results, timings) = ScenarioBuilder::paper(ExperimentConfig::short(1, 7))
            .with_observability(ObsConfig::default())
            .with_timing()
            .build()
            .run_with_timings();
        std::hint::black_box(results.workload.total_runs());
        breakdown_runs.push(timings);
    }
    let phase_breakdown = median_breakdown(&breakdown_runs);
    let mut week_runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let results = ScenarioBuilder::paper(ExperimentConfig::short(1, 7))
            .build()
            .run();
        std::hint::black_box(results.workload.total_runs());
        week_runs.push(ms(t));
    }
    let campaign_week_ms = median(week_runs);

    eprintln!("bench_report: serial ensemble ({jobs} × {days}-day campaigns) …");
    let t = Instant::now();
    let serial = sweep(0, jobs, 1, stochastic_week).summary;
    let ensemble_serial_ms = ms(t);

    let used = frostlab_ensemble::Ensemble::new(jobs)
        .threads(threads)
        .effective_threads();
    eprintln!("bench_report: parallel ensemble ({used} threads) …");
    let t = Instant::now();
    let parallel = sweep(0, jobs, threads, stochastic_week).summary;
    let ensemble_parallel_ms = ms(t);

    assert_eq!(
        serial.invariant_json().expect("serial summary serializes"),
        parallel
            .invariant_json()
            .expect("parallel summary serializes"),
        "thread-count invariance violated: serial and parallel sweeps disagree"
    );

    eprintln!("bench_report: hosts_scaling (one-day campaigns at 19 / 1,000 / 10,000 hosts) …");
    let hosts_scaling = [0u32, 1_000, 10_000]
        .iter()
        .map(|&hosts| {
            let fleet = match hosts {
                0 => FleetSpec::Paper,
                n => FleetSpec::VendorMix { hosts: n },
            };
            let cfg = ExperimentConfig {
                fault_mode: FaultMode::Stochastic,
                fleet,
                ..ExperimentConfig::short(42, 1)
            };
            let t = Instant::now();
            let (results, timings) = ScenarioBuilder::paper(cfg)
                .with_observability(ObsConfig::default())
                .with_timing()
                .build()
                .run_with_timings();
            HostsScaling {
                hosts: if hosts == 0 { 19 } else { hosts },
                campaign_day_ms: ms(t),
                observe_ms: timings
                    .iter()
                    .find(|p| p.phase == "observe")
                    .map_or(f64::NAN, |p| p.total_ms),
                total_runs: results.workload.total_runs(),
            }
        })
        .collect();

    let report = BenchReport {
        schema: SCHEMA.to_string(),
        jobs,
        days,
        threads: used,
        campaign_week_ms,
        ensemble_serial_ms,
        ensemble_parallel_ms,
        per_campaign_ms: ensemble_serial_ms / jobs.max(1) as f64,
        speedup: ensemble_serial_ms / ensemble_parallel_ms.max(1e-9),
        phase_breakdown,
        hosts_scaling,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, format!("{json}\n")).expect("write benchmark JSON");
    println!("{json}");
    eprintln!("bench_report: wrote {out}");

    if let Some(baseline_path) = check {
        let baseline_json = std::fs::read_to_string(&baseline_path).expect("read baseline JSON");
        let baseline: serde::Value =
            serde_json::from_str(&baseline_json).expect("parse baseline JSON");
        let metric_or_die = |name: &str| {
            baseline_metric(&baseline, name)
                .unwrap_or_else(|| panic!("baseline {baseline_path} has no numeric {name:?}"))
        };
        // A baseline recorded at a different thread count measures a
        // different machine shape: its parallel wall-clock (and therefore
        // speedup) is not comparable with this run's. Warn loudly rather
        // than fail — the serial metrics are still meaningful — but any
        // parallel-metric verdict below should be read with suspicion.
        match baseline_metric(&baseline, "threads") {
            Some(base_threads) if base_threads as usize != report.threads => {
                eprintln!(
                    "bench_report: WARNING: baseline {baseline_path} was recorded with \
                     {base_threads:.0} thread(s) but this run used {}; \
                     ensemble_parallel_ms and speedup are not comparable — \
                     re-record the baseline at the current thread count",
                    report.threads
                );
            }
            None => {
                eprintln!(
                    "bench_report: WARNING: baseline {baseline_path} records no thread \
                     count; cannot verify parallel metrics are comparable"
                );
            }
            _ => {}
        }
        let mut regressed = false;
        for (metric, fresh, base) in [
            (
                "campaign_week_ms",
                report.campaign_week_ms,
                metric_or_die("campaign_week_ms"),
            ),
            (
                "ensemble_serial_ms",
                report.ensemble_serial_ms,
                metric_or_die("ensemble_serial_ms"),
            ),
            (
                "ensemble_parallel_ms",
                report.ensemble_parallel_ms,
                metric_or_die("ensemble_parallel_ms"),
            ),
        ] {
            let ratio = fresh / base.max(1e-9);
            let verdict = if ratio > 1.0 + tolerance {
                regressed = true;
                "REGRESSION"
            } else if ratio < 1.0 - tolerance {
                "improved (consider refreshing the baseline)"
            } else {
                "ok"
            };
            eprintln!(
                "bench_report: {metric}: {fresh:.1} ms vs baseline {base:.1} ms \
                 ({ratio:.2}×) — {verdict}"
            );
        }
        // Per-phase budgets: the committed baseline may carry a
        // hand-maintained `phase_budget_ms` object gating individual
        // phases (the `bench-regression` CI job leans on the `weather` entry).
        let budgets = phase_budgets(&baseline);
        let (lines, phases_regressed) =
            phase_budget_verdicts(&budgets, &report.phase_breakdown, tolerance);
        for line in &lines {
            eprintln!("bench_report: {line}");
        }
        // The observatory's scaling gate: at 10,000 hosts the observe
        // phase must stay within its own committed budget. Baselines
        // predating the observatory carry no `observe_budget_10k_ms` and
        // skip the check.
        let mut observe_regressed = false;
        if let Some(budget) = baseline_metric(&baseline, "observe_budget_10k_ms") {
            let measured = report
                .hosts_scaling
                .iter()
                .find(|row| row.hosts == 10_000)
                .map_or(f64::NAN, |row| row.observe_ms);
            let ratio = measured / budget.max(1e-9);
            let verdict = if !ratio.is_finite() || ratio > 1.0 + tolerance {
                observe_regressed = true;
                "REGRESSION"
            } else if ratio < 1.0 - tolerance {
                "improved (consider tightening the budget)"
            } else {
                "ok"
            };
            eprintln!(
                "bench_report: observe@10k hosts: {measured:.2} ms vs budget \
                 {budget:.2} ms ({ratio:.2}×) — {verdict}"
            );
        }
        if regressed || phases_regressed || observe_regressed {
            eprintln!(
                "bench_report: wall-clock regressed beyond ±{:.0}% of {baseline_path}",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_report: within ±{:.0}% of {baseline_path}",
            tolerance * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_metrics_survive_a_pre_phase_breakdown_shape() {
        // The exact shape bench_report wrote before phase_breakdown (and
        // any later field) existed; a typed parse would reject it.
        let old = r#"{
            "schema": "frostlab-bench-ensemble/v1",
            "jobs": 32,
            "days": 7,
            "threads": 8,
            "campaign_week_ms": 1200.5,
            "ensemble_serial_ms": 9000,
            "ensemble_parallel_ms": 1500.25,
            "per_campaign_ms": 281.3,
            "speedup": 6.0
        }"#;
        let v: serde::Value = serde_json::from_str(old).expect("valid JSON");
        assert_eq!(baseline_metric(&v, "campaign_week_ms"), Some(1200.5));
        // Integer-shaped numbers widen to f64.
        assert_eq!(baseline_metric(&v, "ensemble_serial_ms"), Some(9000.0));
        assert_eq!(baseline_metric(&v, "ensemble_parallel_ms"), Some(1500.25));
        assert_eq!(baseline_metric(&v, "phase_breakdown"), None);
        assert_eq!(
            baseline_metric(&v, "schema"),
            None,
            "strings are not metrics"
        );
    }

    #[test]
    fn median_is_order_insensitive_and_interpolates() {
        assert_eq!(median(vec![3.0]), 3.0);
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(vec![4.0, 1.0]), 2.5);
        // NaN sorts last under total_cmp and cannot displace a real median.
        assert_eq!(median(vec![f64::NAN, 2.0, 1.0]), 2.0);
    }

    #[test]
    fn median_breakdown_takes_per_phase_medians() {
        let run = |w: f64, t: f64| {
            vec![
                PhaseTiming {
                    phase: "weather".into(),
                    total_ms: w,
                    calls: 10081,
                },
                PhaseTiming {
                    phase: "enclosure-thermal".into(),
                    total_ms: t,
                    calls: 10081,
                },
            ]
        };
        let merged = median_breakdown(&[run(9.0, 2.0), run(4.0, 1.0), run(5.0, 3.0)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].phase, "weather");
        assert_eq!(merged[0].total_ms, 5.0);
        assert_eq!(merged[0].calls, 10081);
        assert_eq!(merged[1].total_ms, 2.0);
        assert!(median_breakdown(&[]).is_empty());
    }

    #[test]
    fn phase_budgets_parse_from_baseline_and_tolerate_absence() {
        let with = r#"{"phase_budget_ms": {"weather": 4.8, "collection": 1.0}}"#;
        let v: serde::Value = serde_json::from_str(with).expect("valid JSON");
        assert_eq!(
            phase_budgets(&v),
            vec![
                ("weather".to_string(), 4.8),
                ("collection".to_string(), 1.0)
            ]
        );
        let without = r#"{"campaign_week_ms": 50.0}"#;
        let v: serde::Value = serde_json::from_str(without).expect("valid JSON");
        assert!(phase_budgets(&v).is_empty());
    }

    #[test]
    fn phase_budget_verdicts_flag_overruns_and_missing_phases() {
        let breakdown = vec![
            PhaseTiming {
                phase: "weather".into(),
                total_ms: 4.5,
                calls: 10081,
            },
            PhaseTiming {
                phase: "script".into(),
                total_ms: 2.0,
                calls: 10081,
            },
        ];
        // Within band: ok.
        let (lines, bad) = phase_budget_verdicts(&[("weather".into(), 4.8)], &breakdown, 0.25);
        assert!(!bad, "{lines:?}");
        assert!(lines[0].contains("ok"), "{lines:?}");
        // Over budget beyond tolerance: regression.
        let (lines, bad) = phase_budget_verdicts(&[("script".into(), 1.0)], &breakdown, 0.25);
        assert!(bad);
        assert!(lines[0].contains("REGRESSION"), "{lines:?}");
        // Well under budget: improvement hint, not a failure.
        let (lines, bad) = phase_budget_verdicts(&[("weather".into(), 30.0)], &breakdown, 0.25);
        assert!(!bad);
        assert!(lines[0].contains("improved"), "{lines:?}");
        // Budgeted phase absent from the run: fails loudly.
        let (lines, bad) = phase_budget_verdicts(&[("ghost".into(), 1.0)], &breakdown, 0.25);
        assert!(bad);
        assert!(lines[0].contains("missing"), "{lines:?}");
        // No budgets: nothing to report.
        let (lines, bad) = phase_budget_verdicts(&[], &breakdown, 0.25);
        assert!(lines.is_empty() && !bad);
    }
}
