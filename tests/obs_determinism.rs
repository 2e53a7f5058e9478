//! The observatory's contracts, enforced end to end:
//!
//! 1. **Observation is free of side effects** — an observed campaign
//!    produces exactly the results of an unobserved one (the observatory
//!    draws no randomness, so the golden hashes never move).
//! 2. **Alerting is deterministic** — the alert timeline and the health
//!    digest are pure functions of the config: identical across repeated
//!    runs and across worker-thread counts.
//! 3. **The paper gate** — the scripted campaign's `corruption-rate` SLO
//!    sees exactly the paper's 5 bad hashes within its 5/27,627 budget.
//! 4. **One alerts rendering** — an observed matrix's `alerts.json` is
//!    the same bytes from the in-process sweep, the farm and `frostlabd`.
//!
//! The `determinism` (paper gate) and `thread-invariance (obs)` CI jobs
//! re-check the same properties on the built `obs_report` binary; this
//! test keeps them enforced by plain `cargo test`.

use std::time::Duration;

use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::{MatrixSpec, ScenarioBuilder, ScenarioSpec};
use frostlab::ensemble::sweep;
use frostlab::farm::supervisor::ALERTS_FILE;
use frostlab::farm::{Farm, RunOptions};
use frostlab::obs::{HealthDigest, ObsConfig};
use frostlab::service::client::{get, post_json};
use frostlab::service::{Server, ServerConfig};
use frostlab::trace::TraceConfig;

fn stochastic(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        fault_mode: FaultMode::Stochastic,
        ..ExperimentConfig::short(seed, 3)
    }
}

#[test]
fn observation_does_not_perturb_the_campaign() {
    let cfg = ExperimentConfig::short(11, 5);
    let plain = ScenarioBuilder::paper(cfg.clone()).build().run();
    let observed = ScenarioBuilder::paper(cfg)
        .with_tracing(TraceConfig::metrics_only())
        .with_observability(ObsConfig::default())
        .build()
        .run();

    assert_eq!(plain.workload.total_runs(), observed.workload.total_runs());
    assert_eq!(
        plain.workload.hash_errors().len(),
        observed.workload.hash_errors().len()
    );
    assert_eq!(plain.tent_energy_true_kwh, observed.tent_energy_true_kwh);
    assert_eq!(
        plain.tent_temp_truth.points(),
        observed.tent_temp_truth.points()
    );
    // The one deliberate side channel: SLO fires are mirrored into the
    // watchdog ledger as `slo-breach` incidents. Everything else in the
    // ledger must be untouched.
    let non_slo: Vec<_> = observed
        .incidents
        .iter()
        .filter(|i| i.kind.name() != "slo-breach")
        .collect();
    assert_eq!(plain.incidents.len(), non_slo.len());
    assert!(plain
        .incidents
        .iter()
        .all(|i| i.kind.name() != "slo-breach"));
    assert!(plain.obs.is_none(), "unobserved runs carry no observatory");
    assert!(observed.obs.is_some());
}

#[test]
fn alert_timeline_and_digest_are_thread_count_invariant() {
    let observed = |threads: usize| {
        let swept = sweep(7, 4, threads, |seed| {
            ScenarioBuilder::paper(stochastic(seed))
                .with_tracing(TraceConfig::metrics_only())
                .with_observability(ObsConfig::default())
                .build()
        });
        (
            swept.metrics.expect("traced campaigns fold metrics"),
            swept.alerts.expect("observed campaigns fold alerts"),
        )
    };
    let (metrics_a, alerts_a) = observed(1);
    let (metrics_b, alerts_b) = observed(4);
    assert_eq!(
        alerts_a.timeline_jsonl(),
        alerts_b.timeline_jsonl(),
        "alert timeline differs between 1 and 4 worker threads"
    );
    assert_eq!(
        alerts_a.to_json().expect("report serializes"),
        alerts_b.to_json().expect("report serializes"),
        "alerts report differs between 1 and 4 worker threads"
    );
    assert_eq!(
        metrics_a.to_json().expect("report serializes"),
        metrics_b.to_json().expect("report serializes"),
        "labeled metrics report differs between 1 and 4 worker threads"
    );
    assert_eq!(alerts_a.campaigns, 4);
    assert_eq!(alerts_a.seed_start, 7);
}

#[test]
fn observed_matrix_alerts_are_byte_identical_from_sweep_farm_and_daemon() {
    let observed = |name: &str, climate: &str| ScenarioSpec {
        observe: true,
        ..ScenarioSpec::new(name, 1, climate)
    };
    let matrix = MatrixSpec {
        scenarios: vec![
            observed("helsinki", "helsinki"),
            observed("new-mexico", "new-mexico"),
        ],
        seed_start: 4,
        seeds: 2,
    };
    let jobs = matrix.expand();

    let in_process = sweep(matrix.seed_start, jobs.len() as u64, 2, |s| {
        let job = &jobs[(s - matrix.seed_start) as usize];
        job.scenario.build(job.seed).expect("valid matrix")
    })
    .alerts
    .expect("observed campaigns fold alerts")
    .to_json()
    .expect("report serializes");
    assert!(
        in_process.ends_with("}\n"),
        "the artifact ends with a newline"
    );

    let dir = std::env::temp_dir().join(format!("frostlab-alerts-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut farm = Farm::submit(&dir, &matrix).expect("submit");
    let outcome = farm
        .run(RunOptions {
            workers: 2,
            ..RunOptions::default()
        })
        .expect("farm runs");
    assert!(outcome.settled);
    let from_farm = std::fs::read_to_string(dir.join(ALERTS_FILE)).expect("alerts.json");
    std::fs::remove_dir_all(&dir).ok();

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let timeout = Duration::from_secs(60);
    let body = matrix.to_json().expect("matrix serializes");
    let submitted = post_json(server.addr(), "/v1/scenarios", &body, timeout).expect("submit");
    assert_eq!(submitted.status, 202, "{}", submitted.text());
    let id = submitted
        .text()
        .split("\"job_id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("job_id")
        .to_string();
    let status = get(server.addr(), &format!("/v1/jobs/{id}?wait_s=30"), timeout).expect("poll");
    assert!(
        status.text().contains("\"status\":\"done\""),
        "{}",
        status.text()
    );
    let served = get(
        server.addr(),
        &format!("/v1/jobs/{id}/alerts.json"),
        timeout,
    )
    .expect("alerts");
    assert_eq!(served.status, 200, "{}", served.text());
    let from_daemon = served.text().to_string();
    server.shutdown();

    assert_eq!(
        in_process, from_farm,
        "farm alerts.json differs from the sweep"
    );
    assert_eq!(
        in_process, from_daemon,
        "served alerts.json differs from the sweep"
    );
}

#[test]
fn repeated_observed_runs_emit_identical_bytes() {
    let digest = || {
        let results = ScenarioBuilder::paper(stochastic(3))
            .with_tracing(TraceConfig::metrics_only())
            .with_observability(ObsConfig::default())
            .build()
            .run();
        let obs = results
            .obs
            .expect("with_observability arms the observatory");
        let digest = HealthDigest::from_obs("short-3d", 3, &obs, 5);
        (obs.alert_timeline(), digest.render())
    };
    let (timeline_a, rendered_a) = digest();
    let (timeline_b, rendered_b) = digest();
    assert_eq!(timeline_a, timeline_b, "alert timeline is not reproducible");
    assert_eq!(rendered_a, rendered_b, "health digest is not reproducible");
}

/// The full scripted campaign reproduces the paper's corruption tally
/// through the SLO engine: exactly 5 bad md5sums, inside the 5/27,627
/// budget. Expensive (the whole Feb 12 – May 13 campaign), so release
/// builds only — the `determinism` CI job runs it, and the same gate via
/// `obs_report`.
#[test]
#[cfg_attr(debug_assertions, ignore = "full campaign; run with --release")]
fn scripted_campaign_attains_the_paper_corruption_slo() {
    let results = ScenarioBuilder::paper(ExperimentConfig::paper_scripted(42))
        .with_tracing(TraceConfig::metrics_only())
        .with_observability(ObsConfig::default())
        .build()
        .run();
    let obs = results
        .obs
        .expect("with_observability arms the observatory");
    let slo = obs
        .slos
        .iter()
        .find(|a| a.slo == "corruption-rate")
        .expect("paper defaults carry the corruption-rate SLO");
    assert_eq!(slo.bad, 5, "paper's corruption tally moved");
    assert!(slo.attained, "corruption-rate SLO breached its budget");
    assert!((slo.target - 5.0 / 27_627.0).abs() < 1e-12);
}
