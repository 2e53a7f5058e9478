//! End-to-end tests of the `frostlabd` HTTP surface: real sockets, real
//! simulations, byte-level artifact checks.
//!
//! The two headline behaviours the ISSUE gates live here:
//!
//! - **Determinism through the cache:** two identical submissions cost
//!   one simulation, and every byte served for either matches the
//!   in-process `run_matrix_sweep` reference.
//! - **Backpressure:** a saturated admission gate sheds with `429` +
//!   `Retry-After` while already-admitted jobs run to completion.
//! - **Concurrent clients:** status polls, summary fetches and
//!   deduplicated resubmissions from several threads all succeed and
//!   serve the same bytes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use frostlab_core::{MatrixSpec, ScenarioSpec};
use frostlab_ensemble::run_matrix_sweep;
use frostlab_service::client::{get, post_json, ClientResponse};
use frostlab_service::{Server, ServerConfig};
use frostlab_trace::export::validate_prometheus;

const TIMEOUT: Duration = Duration::from_secs(30);

fn start(sim_workers: usize, queue_capacity: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sim_workers,
        queue_capacity,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

fn matrix(name: &str, days: i64, seeds: u64) -> MatrixSpec {
    MatrixSpec {
        scenarios: vec![ScenarioSpec::new(name, days, "helsinki")],
        seed_start: 0,
        seeds,
    }
}

/// Extract a JSON string field without a typed parse — keeps the test
/// honest about what is actually on the wire.
fn json_str_field<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    body.split(&format!("\"{field}\""))
        .nth(1)?
        .split('"')
        .nth(1)
}

fn submit(server: &Server, m: &MatrixSpec) -> (u16, String) {
    let body = m.to_json().expect("matrix serializes");
    let r = post_json(server.addr(), "/v1/scenarios", &body, TIMEOUT).expect("submit");
    (r.status, r.text().to_string())
}

fn wait_done(server: &Server, id: &str) -> ClientResponse {
    let r = get(server.addr(), &format!("/v1/jobs/{id}?wait_s=30"), TIMEOUT).expect("poll");
    assert_eq!(r.status, 200, "poll failed: {}", r.text());
    r
}

#[test]
fn identical_submissions_share_one_simulation_and_identical_bytes() {
    let server = start(2, 8);
    let m = matrix("api-dedup", 1, 2);

    // First submission: admitted and (eventually) done.
    let (status, body) = submit(&server, &m);
    assert_eq!(status, 202, "first submit: {body}");
    assert!(body.contains("\"deduplicated\":false"), "{body}");
    let id = json_str_field(&body, "job_id").expect("job_id").to_string();
    let done = wait_done(&server, &id);
    assert!(
        done.text().contains("\"status\":\"done\""),
        "{}",
        done.text()
    );

    // Second, byte-different but semantically identical submission
    // (pretty-printed vs whatever whitespace): deduplicates, 200.
    let (status2, body2) = submit(&server, &m);
    assert_eq!(status2, 200, "dedup submit: {body2}");
    assert!(body2.contains("\"deduplicated\":true"), "{body2}");
    assert_eq!(json_str_field(&body2, "job_id"), Some(id.as_str()));

    // Both submissions serve the same frozen bytes, and those bytes are
    // the in-process ensemble reference, byte for byte.
    let reference = format!(
        "{}\n",
        run_matrix_sweep(&m, 1)
            .expect("reference sweep")
            .invariant_json()
            .expect("reference serializes")
    );
    let summary = get(server.addr(), &format!("/v1/jobs/{id}/summary"), TIMEOUT).expect("summary");
    assert_eq!(summary.status, 200);
    assert_eq!(summary.text(), reference);
    let again = get(server.addr(), &format!("/v1/jobs/{id}/summary"), TIMEOUT).expect("summary");
    assert_eq!(again.text(), reference);

    // The trace artifacts exist and carry their format tags.
    let trace = get(
        server.addr(),
        &format!("/v1/jobs/{id}/trace.jsonl"),
        TIMEOUT,
    )
    .expect("trace");
    assert_eq!(trace.status, 200);
    assert!(trace.text().contains("frostlab-trace/v1"));
    let perfetto = get(
        server.addr(),
        &format!("/v1/jobs/{id}/perfetto.json"),
        TIMEOUT,
    )
    .expect("perfetto");
    assert_eq!(perfetto.status, 200);
    assert!(perfetto.text().contains("traceEvents"));

    // No observed scenario ⇒ the alerts artifact 404s with its code.
    let alerts = get(
        server.addr(),
        &format!("/v1/jobs/{id}/alerts.json"),
        TIMEOUT,
    )
    .expect("alerts");
    assert_eq!(alerts.status, 404);
    assert!(alerts.text().contains("no-alerts"));

    // An overlapping (superset-seed) matrix reuses cached campaigns:
    // its status must report cache hits without disturbing its bytes.
    let wider = matrix("api-dedup", 1, 3);
    let (status3, body3) = submit(&server, &wider);
    assert_eq!(status3, 202, "{body3}");
    let wid = json_str_field(&body3, "job_id")
        .expect("job_id")
        .to_string();
    let wdone = wait_done(&server, &wid);
    assert!(
        wdone.text().contains("\"status\":\"done\""),
        "{}",
        wdone.text()
    );
    assert!(
        !wdone.text().contains("\"cache_hits\":0"),
        "expected cache hits in {}",
        wdone.text()
    );
    let wref = format!(
        "{}\n",
        run_matrix_sweep(&wider, 1)
            .expect("reference sweep")
            .invariant_json()
            .expect("reference serializes")
    );
    let wsummary =
        get(server.addr(), &format!("/v1/jobs/{wid}/summary"), TIMEOUT).expect("summary");
    assert_eq!(wsummary.text(), wref);

    server.shutdown();
}

#[test]
fn saturated_gate_sheds_with_429_while_admitted_jobs_complete() {
    // One worker, one queue slot: the third distinct submission sheds.
    let server = start(1, 1);
    let first = matrix("api-sat-a", 2, 6);
    let second = matrix("api-sat-b", 2, 6);
    let third = matrix("api-sat-c", 1, 1);

    let (s1, b1) = submit(&server, &first);
    assert_eq!(s1, 202, "{b1}");
    let id1 = json_str_field(&b1, "job_id").expect("job_id").to_string();
    let (s2, b2) = submit(&server, &second);
    assert_eq!(s2, 202, "{b2}");
    let id2 = json_str_field(&b2, "job_id").expect("job_id").to_string();

    // Gate full (1 running or queued + 1 queued): shed with the contract.
    let body3 = third.to_json().expect("serializes");
    let shed = post_json(server.addr(), "/v1/scenarios", &body3, TIMEOUT).expect("shed submit");
    assert_eq!(shed.status, 429, "expected shed: {}", shed.text());
    let retry_after: u64 = shed
        .header("retry-after")
        .expect("Retry-After header on 429")
        .parse()
        .expect("Retry-After is seconds");
    assert!((1..=60).contains(&retry_after));
    assert!(
        shed.text().contains("\"error\":\"queue-full\""),
        "{}",
        shed.text()
    );
    assert!(shed.text().contains("\"retry_after_s\""), "{}", shed.text());

    // The in-flight and queued jobs still complete, untouched by the shed.
    for id in [&id1, &id2] {
        let done = wait_done(&server, id);
        assert!(
            done.text().contains("\"status\":\"done\""),
            "job {id}: {}",
            done.text()
        );
    }

    // With the gate drained, the previously-shed matrix is admittable.
    let (s3, b3) = submit(&server, &third);
    assert_eq!(s3, 202, "post-drain submit: {b3}");

    // And the shed earlier did not leave a phantom registry entry: the
    // fresh submission was New, not deduplicated.
    assert!(b3.contains("\"deduplicated\":false"), "{b3}");

    server.shutdown();
}

#[test]
fn observed_matrix_serves_alerts_and_failed_poison_reports_409() {
    let server = start(2, 8);

    // Observed matrix: alerts.json is servable.
    let mut spec = ScenarioSpec::new("api-obs", 1, "helsinki");
    spec.observe = true;
    let observed = MatrixSpec {
        scenarios: vec![spec],
        seed_start: 0,
        seeds: 2,
    };
    let (status, body) = submit(&server, &observed);
    assert_eq!(status, 202, "{body}");
    let id = json_str_field(&body, "job_id").expect("job_id").to_string();
    wait_done(&server, &id);
    let alerts = get(
        server.addr(),
        &format!("/v1/jobs/{id}/alerts.json"),
        TIMEOUT,
    )
    .expect("alerts");
    assert_eq!(alerts.status, 200, "{}", alerts.text());
    assert!(alerts.text().contains("frostlab-ensemble-alerts/v1"));

    // Poison matrix: the job fails terminally, status carries the error,
    // artifacts answer 409 job-failed.
    let mut poison = ScenarioSpec::new("api-poison", 1, "helsinki");
    poison.poison = true;
    let poisoned = MatrixSpec {
        scenarios: vec![poison],
        seed_start: 0,
        seeds: 1,
    };
    let (status, body) = submit(&server, &poisoned);
    assert_eq!(status, 202, "{body}");
    let pid = json_str_field(&body, "job_id").expect("job_id").to_string();
    let failed = wait_done(&server, &pid);
    assert!(
        failed.text().contains("\"status\":\"failed\""),
        "{}",
        failed.text()
    );
    assert!(failed.text().contains("poison"), "{}", failed.text());
    let artifact = get(server.addr(), &format!("/v1/jobs/{pid}/summary"), TIMEOUT).expect("get");
    assert_eq!(artifact.status, 409);
    assert!(
        artifact.text().contains("job-failed"),
        "{}",
        artifact.text()
    );

    server.shutdown();
}

#[test]
fn error_paths_are_typed_and_metrics_scrape_as_prometheus() {
    let server = start(1, 4);

    // Liveness.
    let health = get(server.addr(), "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"ok\":true"));

    // Malformed JSON body.
    let bad = post_json(server.addr(), "/v1/scenarios", "{nope", TIMEOUT).expect("bad json");
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("bad-json"), "{}", bad.text());

    // Well-formed JSON, invalid spec.
    let invalid = matrix("api-bad-climate", 1, 1);
    let mut invalid = invalid;
    invalid.scenarios[0].climate = "atlantis".to_string();
    let body = invalid.to_json().expect("serializes");
    let r = post_json(server.addr(), "/v1/scenarios", &body, TIMEOUT).expect("invalid spec");
    assert_eq!(r.status, 400);
    assert!(r.text().contains("invalid-spec"), "{}", r.text());

    // Unknown job, unknown artifact, unknown route, wrong method.
    let r = get(server.addr(), "/v1/jobs/doesnotexist", TIMEOUT).expect("unknown job");
    assert_eq!(r.status, 404);
    assert!(r.text().contains("unknown-job"), "{}", r.text());
    let r = get(server.addr(), "/v1/nowhere", TIMEOUT).expect("unknown route");
    assert_eq!(r.status, 404);
    assert!(r.text().contains("not-found"), "{}", r.text());
    let r = post_json(server.addr(), "/healthz", "{}", TIMEOUT).expect("wrong method");
    assert_eq!(r.status, 405);
    assert!(r.text().contains("method-not-allowed"), "{}", r.text());

    // The metrics scrape is valid Prometheus exposition and carries the
    // server-level counters the handlers ticked above.
    let metrics = get(server.addr(), "/metrics", TIMEOUT).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = metrics.text();
    let lint = validate_prometheus(text);
    assert!(lint.is_empty(), "invalid exposition: {lint:?}\n{text}");
    assert!(text.contains("frostlab_http_requests_total"), "{text}");
    assert!(text.contains("frostlab_http_responses_total"), "{text}");
    assert!(text.contains("frostlab_queue_depth"), "{text}");

    server.shutdown();
}

#[test]
fn oversized_bodies_are_rejected_with_413() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sim_workers: 1,
        queue_capacity: 1,
        max_body_bytes: 64,
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let big = matrix("a-scenario-name-well-past-sixty-four-bytes-of-json", 1, 1)
        .to_json()
        .expect("serializes");
    assert!(big.len() > 64);
    let r = post_json(server.addr(), "/v1/scenarios", &big, TIMEOUT).expect("oversized");
    assert_eq!(r.status, 413, "{}", r.text());
    assert!(r.text().contains("body-too-large"), "{}", r.text());
    server.shutdown();
}

#[test]
fn concurrent_polls_summaries_and_resubmissions_all_succeed() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_ROUTE: usize = 2_000;
    let server = start(2, 8);
    let addr = server.addr();

    // Warm-up: one matrix, run to completion, its summary as reference.
    let m = matrix("api-load", 1, 2);
    let body = m.to_json().expect("matrix serializes");
    let (status, submitted) = submit(&server, &m);
    assert_eq!(status, 202, "{submitted}");
    let id = json_str_field(&submitted, "job_id").expect("job_id");
    wait_done(&server, id);
    let status_path = format!("/v1/jobs/{id}");
    let summary_path = format!("/v1/jobs/{id}/summary");
    let warm = get(addr, &summary_path, TIMEOUT).expect("summary");
    assert_eq!(warm.status, 200, "{}", warm.text());

    // Request n goes to route n % 3, so every client interleaves all
    // three; the barrier releases all clients at once.
    let next = AtomicUsize::new(0);
    let start_line = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                start_line.wait();
                loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= 3 * REQUESTS_PER_ROUTE {
                        break;
                    }
                    let r = match n % 3 {
                        0 => get(addr, &status_path, TIMEOUT),
                        1 => get(addr, &summary_path, TIMEOUT),
                        _ => post_json(addr, "/v1/scenarios", &body, TIMEOUT),
                    }
                    .unwrap_or_else(|e| panic!("request {n}: {e}"));
                    assert!(
                        (200..300).contains(&r.status),
                        "request {n}: {} {}",
                        r.status,
                        r.text()
                    );
                    match n % 3 {
                        1 => assert!(r.body == warm.body, "request {n}: summary bytes moved"),
                        2 => assert!(
                            r.text().contains("\"deduplicated\":true"),
                            "request {n}: {}",
                            r.text()
                        ),
                        _ => {}
                    }
                }
            });
        }
    });

    server.shutdown();
}
