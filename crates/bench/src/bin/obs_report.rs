//! Fleet health digest CLI — observed campaigns, operator-facing output.
//!
//! Runs one or more campaigns with the observatory (and tracer) armed
//! and writes the health artifacts next to each other:
//!
//! * `digest.json` — per-campaign [`HealthDigest`]s, in seed order;
//! * `alerts.json` — the folded [`EnsembleAlerts`] report;
//! * `alerts.jsonl` — the sweep's alert timeline, one tagged JSON
//!   object per line (the unit CI byte-diffs across thread counts);
//! * `flightrec/seed-<S>/<fnv1a>.jsonl` — content-named flight-recorder
//!   dumps snapshotted when alerts fired or incidents opened.
//!
//! Every byte of every artifact is a pure function of the flags: no
//! wall-clock, no thread IDs, no map iteration order leaks in. The
//! `thread-invariance (obs)` CI job runs this binary at `--threads 1` and
//! `--threads 4` and `diff`s the output directories.
//!
//! ```sh
//! obs_report [--seed S] [--seeds N] [--threads T] [--days D]
//!            [--hosts H] [--out-dir DIR] [--top-k K]
//! ```
//!
//! `--days 0` runs the full scripted Feb 12 – May 13 paper campaign; at
//! seed 42 (the golden seed) the binary then additionally gates on the
//! paper's corruption tally — the `corruption-rate` SLO must report
//! exactly the paper's 5 bad hashes and stay within its 5/27,627
//! budget (the paper's runs count is a snapshot at writing time; the
//! full campaign accumulates more runs, so the *ratio* is the
//! invariant), or the exit code is 1.

use frostlab_core::config::ExperimentConfig;
use frostlab_core::fleet::FleetSpec;
use frostlab_core::ScenarioBuilder;
use frostlab_ensemble::{Ensemble, EnsembleAlerts, SeedAlerts};
use frostlab_obs::{CampaignObs, HealthDigest, ObsConfig};
use frostlab_trace::TraceConfig;

/// The paper's corruption tally: 5 wrong md5sums, budgeted against the
/// 27,627 runs the paper had counted at writing time.
const PAPER_BAD_HASHES: u64 = 5;
const PAPER_BUDGET: f64 = 5.0 / 27_627.0;

fn usage() -> ! {
    eprintln!(
        "usage: obs_report [--seed S] [--seeds N] [--threads T] [--days D] \
         [--hosts H] [--out-dir DIR] [--top-k K]"
    );
    std::process::exit(2);
}

fn main() {
    let mut seed: u64 = 42;
    let mut seeds: u64 = 1;
    let mut threads: usize = 0;
    let mut days: i64 = 7;
    let mut hosts: u32 = 0;
    let mut out_dir = String::from("obs-out");
    let mut top_k: usize = 5;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--seeds" => seeds = val("--seeds").parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--days" => days = val("--days").parse().unwrap_or_else(|_| usage()),
            "--hosts" => hosts = val("--hosts").parse().unwrap_or_else(|_| usage()),
            "--out-dir" => out_dir = val("--out-dir"),
            "--top-k" => top_k = val("--top-k").parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if seeds == 0 {
        usage();
    }

    let campaign_name = match (days > 0, hosts) {
        (true, 0) => format!("short-{days}d"),
        (true, n) => format!("short-{days}d-{n}h"),
        (false, 0) => "paper-scripted".to_string(),
        (false, n) => format!("paper-scripted-{n}h"),
    };
    let make_config = |s: u64| {
        let mut cfg = if days > 0 {
            ExperimentConfig::short(s, days)
        } else {
            ExperimentConfig::paper_scripted(s)
        };
        if hosts > 0 {
            cfg.fleet = FleetSpec::VendorMix { hosts };
        }
        cfg
    };

    eprintln!("obs_report: observing {seeds} campaign(s) of {campaign_name:?} from seed {seed} …");
    // The engine's ordered sink folds per-seed records in seed order on
    // this thread, so every artifact below is thread-count invariant.
    let mut observed: Vec<(u64, CampaignObs)> = Vec::with_capacity(seeds as usize);
    Ensemble::new(seeds).threads(threads).run_scenarios(
        |i| {
            ScenarioBuilder::paper(make_config(seed + i))
                .with_tracing(TraceConfig::default())
                .with_observability(ObsConfig::default())
                .build()
        },
        |r| {
            (
                r.seed,
                r.obs
                    .clone()
                    .expect("with_observability arms the observatory"),
            )
        },
        |_, rec| observed.push(rec),
    );

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let mut alerts = EnsembleAlerts::new(seed);
    let mut digests: Vec<HealthDigest> = Vec::with_capacity(observed.len());
    let mut flight_files = 0usize;
    for (s, obs) in &observed {
        alerts.absorb(SeedAlerts::from_obs(*s, obs));
        let digest = HealthDigest::from_obs(&campaign_name, *s, obs, top_k);
        println!("{}", digest.render());
        digests.push(digest);
        if !obs.flights.is_empty() {
            let dir = format!("{out_dir}/flightrec/seed-{s}");
            std::fs::create_dir_all(&dir).expect("create flightrec directory");
            for dump in &obs.flights {
                std::fs::write(format!("{}/{}", dir, dump.file_name()), dump.to_jsonl())
                    .expect("write flight dump");
                flight_files += 1;
            }
        }
    }

    let write = |name: &str, body: String| {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, body).expect("write artifact");
        eprintln!("obs_report: wrote {path}");
    };
    write(
        "digest.json",
        format!(
            "{}\n",
            serde_json::to_string_pretty(&digests).expect("digests serialize")
        ),
    );
    write("alerts.json", alerts.to_json().expect("report serializes"));
    write("alerts.jsonl", alerts.timeline_jsonl());
    eprintln!(
        "obs_report: {} alert event(s), {} flight dump(s) across {} campaign(s)",
        alerts.total_alerts(),
        flight_files,
        observed.len()
    );

    // The paper gate: the scripted campaign at the golden seed must
    // reproduce the published corruption tally — exactly 5 bad hashes,
    // and a campaign ratio inside the paper's 5/27,627 budget (the SLO
    // spec's own target).
    if days <= 0 && hosts == 0 {
        for (s, obs) in &observed {
            if *s != 42 {
                continue;
            }
            let slo = obs
                .slos
                .iter()
                .find(|a| a.slo == "corruption-rate")
                .expect("paper defaults carry the corruption-rate SLO");
            let target_ok = (slo.target - PAPER_BUDGET).abs() < 1e-12;
            if slo.bad != PAPER_BAD_HASHES || !slo.attained || !target_ok {
                eprintln!(
                    "obs_report: PAPER GATE FAILED: corruption-rate saw {}/{} \
                     against target {:.6e}, attained={} (expected exactly \
                     {PAPER_BAD_HASHES} bad hashes within the 5/27,627 budget)",
                    slo.bad, slo.total, slo.target, slo.attained
                );
                std::process::exit(1);
            }
            eprintln!(
                "obs_report: paper gate ok — corruption-rate {}/{} (ratio {:.3e}) \
                 within the paper's 5/27,627 budget",
                slo.bad, slo.total, slo.ratio
            );
        }
    }
}
