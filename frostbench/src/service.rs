//! The `service-mixed` workload: reads and fresh submissions against a
//! `frostlabd` child process, from two client threads.
//!
//! - The **reader** loops status poll, summary fetch and deduplicated
//!   resubmission (1:1:1) of a warm-up matrix, one connection at a time.
//! - The **submitter** makes a fixed number of fresh submissions (one
//!   day, helsinki, two seeds, seed ranges that never overlap); each is a
//!   POST, long-polls until done, then a summary fetch.
//!
//! The reader stops when the submitter finishes. The submission count is
//! fixed for a given `--seconds`, so the daemon retains the same artifacts
//! (~2 MB per job) on every commit, however fast it runs.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use frostlab_core::{MatrixSpec, ScenarioSpec};
use frostlab_ensemble::run_matrix_sweep;
use frostlab_service::{exec, job_id, JobPhase, JobStatusBody, ResultCache, SubmitResponse};

use crate::http::{self, Exchange};
use crate::report::{unit_for, Record};
use crate::sim::{traced_campaign, Totals};
use crate::stats::{median, supported_percentile};
use crate::sys::{cpu_seconds, host_speed, peak_rss_mib};
use crate::trace::{Span, Spans};

pub const NAME: &str = "service-mixed";

/// Fresh submissions per second of `--seconds`: at about 140 ms a
/// result on a 2-CPU machine, the run takes about 3/4 of `--seconds` and
/// the daemon ends it holding roughly 0.5 GB of artifacts.
const SUBMISSIONS_PER_SECOND: f64 = 5.0;
/// Daemon start-ups timed for `setup_s`; the median is reported.
const SETUP_SPAWNS: usize = 5;
/// Seeds per submitted matrix.
const SEEDS: u64 = 2;
/// Host-days one submitted matrix simulates: 19 hosts × 1 day × 2 seeds.
const HOST_DAYS_PER_JOB: f64 = 19.0 * SEEDS as f64;
const READ_ROUTES: [&str; 3] = ["status", "summary", "submit"];

/// The warm-up matrix every read targets.
fn warm_matrix(seed: u64) -> MatrixSpec {
    matrix("frostbench-read", seed * 100_000)
}

/// The `i`-th fresh submission: a seed range no other submission uses.
fn fresh_matrix(seed: u64, i: u64) -> MatrixSpec {
    matrix("frostbench-fresh", seed * 100_000 + SEEDS * (i + 1))
}

fn matrix(name: &str, seed_start: u64) -> MatrixSpec {
    MatrixSpec {
        scenarios: vec![ScenarioSpec::new(name, 1, "helsinki")],
        seed_start,
        seeds: SEEDS,
    }
}

/// Check that `body` is what `GET /v1/jobs/{id}/summary` must serve for
/// `m`: the in-process sweep's invariant JSON and its trailing newline.
fn check_summary(record: &mut Record, what: &str, m: &MatrixSpec, body: &[u8]) {
    let summary = run_matrix_sweep(m, 1).expect("benchmark matrices are valid");
    let want = format!(
        "{}\n",
        summary.invariant_json().expect("summary serializes")
    );
    record.check(body == want.as_bytes(), || {
        format!("{what} summary differs from run_matrix_sweep")
    });
}

/// A `frostlabd` child: `frostbench daemon`, which serves with the
/// daemon's default config on an ephemeral loop-back port until its
/// stdin closes.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| e.to_string())?;
        daemon.addr = line
            .trim()
            .parse()
            .map_err(|_| format!("daemon announced {line:?}, not an address"))?;
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Closing stdin asks the daemon to exit; kill it if it lingers.
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Serve until stdin closes: the body of `frostbench daemon`.
pub fn serve() -> Result<(), String> {
    use std::io::Write;
    let server = frostlab_service::Server::start(frostlab_service::ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..frostlab_service::ServerConfig::default()
    })
    .map_err(|e| format!("bind failed: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "{}", server.addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    // Handler threads may be mid-request; the process exit ends them.
    std::process::exit(0)
}

/// The exchanges of one submission, in order, each named by its step.
type Exchanges = Vec<(&'static str, Exchange)>;

/// Submit `m` and wait until it is done. Returns the job id and the
/// exchanges made.
fn submit_and_wait(addr: SocketAddr, m: &MatrixSpec) -> Result<(String, Exchanges), String> {
    let body = m.to_json().map_err(|e| e.to_string())?;
    let mut exchanges = Vec::new();
    let post = http::post(addr, "/v1/scenarios", &body).map_err(|e| e.to_string())?;
    if post.status != 202 {
        return Err(format!("submit answered {}: {}", post.status, post.text()));
    }
    let id = serde_json::from_str::<SubmitResponse>(post.text())
        .map_err(|e| e.to_string())?
        .job_id;
    exchanges.push(("post", post));
    loop {
        let poll =
            http::get(addr, &format!("/v1/jobs/{id}?wait_s=30")).map_err(|e| e.to_string())?;
        let status =
            serde_json::from_str::<JobStatusBody>(poll.text()).map_err(|e| e.to_string())?;
        exchanges.push(("poll", poll));
        match status.status {
            JobPhase::Done => break,
            JobPhase::Failed => return Err(format!("job {id} failed: {:?}", status.error)),
            JobPhase::Queued | JobPhase::Running => {}
        }
    }
    let summary = http::get(addr, &format!("/v1/jobs/{id}/summary")).map_err(|e| e.to_string())?;
    if summary.status != 200 {
        return Err(format!("summary answered {}", summary.status));
    }
    exchanges.push(("summary", summary));
    Ok((id, exchanges))
}

/// Start a daemon and bring it to serving the warm-up matrix. Returns
/// the daemon, the warm-up job id and its summary bytes.
fn start(seed: u64) -> Result<(Daemon, String, Vec<u8>), String> {
    let daemon = Daemon::spawn()?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while !http::get(daemon.addr, "/healthz").is_ok_and(|r| r.status == 200) {
        if Instant::now() > deadline {
            return Err("daemon never became healthy".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (id, mut exchanges) = submit_and_wait(daemon.addr, &warm_matrix(seed))?;
    let summary = exchanges.pop().expect("a summary exchange").1.body;
    Ok((daemon, id, summary))
}

#[derive(Default)]
struct Reads {
    latencies_ms: Vec<f64>,
    /// Per route: connect, ttfb and body times, µs.
    parts: [Vec<[f64; 3]>; 3],
    /// Traced runs only: latencies of reads whose spans were kept, and
    /// of those whose spans were not.
    kept_ms: Vec<f64>,
    unkept_ms: Vec<f64>,
    elapsed_s: f64,
    failures: Vec<String>,
    attempted: u64,
}

fn reader(
    addr: SocketAddr,
    warm_id: &str,
    warm_summary: &[u8],
    warm_body: &str,
    stop: &AtomicBool,
    spans: &mut Spans,
    traced: bool,
) -> Reads {
    let mut reads = Reads::default();
    let start = Instant::now();
    let targets = [
        format!("/v1/jobs/{warm_id}"),
        format!("/v1/jobs/{warm_id}/summary"),
    ];
    let mut i = 0usize;
    while !stop.load(Ordering::SeqCst) {
        let route = i % 3;
        // Traced runs keep the spans of every other read, so the other
        // half measures what keeping them costs.
        spans.keep = traced && (i / 3) % 2 == 1;
        let open = spans.open(0, 0);
        let result = match route {
            2 => http::post(addr, "/v1/scenarios", warm_body),
            r => http::get(addr, &targets[r]),
        };
        let ms = spans.close(open, &format!("read.{}", READ_ROUTES[route]));
        reads.attempted += 1;
        i += 1;
        let ex = match result {
            Ok(ex) => ex,
            Err(e) => {
                reads
                    .failures
                    .push(format!("{} read failed: {e}", READ_ROUTES[route]));
                continue;
            }
        };
        spans.sequence(
            &open,
            &[
                ("connect", ex.connect_us),
                ("ttfb", ex.ttfb_us),
                ("body", ex.body_us),
            ],
        );
        let ok = ex.status == 200
            && match route {
                0 => ex.text().contains("\"done\""),
                1 => ex.body == warm_summary,
                _ => ex.text().contains("\"deduplicated\":true"),
            };
        if !ok {
            reads.failures.push(format!(
                "{} read answered {}: {:.120}",
                READ_ROUTES[route],
                ex.status,
                ex.text()
            ));
            continue;
        }
        reads.latencies_ms.push(ms);
        reads.parts[route].push([ex.connect_us, ex.ttfb_us, ex.body_us]);
        if spans.keep {
            reads.kept_ms.push(ms);
        } else if traced {
            reads.unkept_ms.push(ms);
        }
    }
    spans.keep = traced;
    reads.elapsed_s = start.elapsed().as_secs_f64();
    reads
}

#[derive(Default)]
struct Submissions {
    latencies_ms: Vec<f64>,
    /// Share of each submission's wall time outside its HTTP exchanges.
    residual: Vec<f64>,
    /// `(index, summary bytes)` of the first two and last two.
    kept: Vec<(u64, Vec<u8>)>,
    elapsed_s: f64,
    failures: Vec<String>,
}

fn submitter(addr: SocketAddr, seed: u64, count: u64, spans: &mut Spans) -> Submissions {
    let mut subs = Submissions::default();
    let start = Instant::now();
    for i in 0..count {
        let open = spans.open(0, 0);
        let result = submit_and_wait(addr, &fresh_matrix(seed, i));
        let ms = spans.close(open, "submission");
        match result {
            Ok((_, exchanges)) => {
                let parts: Vec<(&str, f64)> = exchanges
                    .iter()
                    .map(|(name, ex)| (*name, ex.total_ms() * 1000.0))
                    .collect();
                spans.sequence(&open, &parts);
                let in_http: f64 = exchanges.iter().map(|(_, ex)| ex.total_ms()).sum();
                subs.residual.push((ms - in_http) / ms);
                subs.latencies_ms.push(ms);
                if i < 2 || i + 2 >= count {
                    let body = exchanges.into_iter().last().expect("a summary").1.body;
                    subs.kept.push((i, body));
                }
            }
            Err(e) => subs.failures.push(format!("submission {i}: {e}")),
        }
    }
    subs.elapsed_s = start.elapsed().as_secs_f64();
    subs
}

/// Sets the flag when dropped, so the reader stops even if the
/// submitter panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<(Record, Vec<Span>), String> {
    let mut record = Record::new(NAME, seed, traced);
    let origin = Instant::now();

    // Host speed is sampled before each start-up and after the load,
    // never during it: the load itself would slow the kernel down.
    let (mut setup, mut speeds) = (Vec::new(), Vec::new());
    let mut started = None;
    for _ in 0..SETUP_SPAWNS {
        drop(started.take());
        let speed = host_speed();
        speeds.push(speed);
        let t = Instant::now();
        started = Some(start(seed)?);
        setup.push(t.elapsed().as_secs_f64() * speed);
    }
    let (daemon, warm_id, warm_summary) = started.expect("at least one start");
    record.set("setup_s", median(&setup), "s", setup.len() as u64);

    let count = ((seconds * SUBMISSIONS_PER_SECOND).round() as u64).max(4);
    let warm_body = warm_matrix(seed).to_json().map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    let cpu_before = cpu_seconds(daemon.pid());
    let mut read_spans = Spans::new(origin, 1, traced);
    let mut submit_spans = Spans::new(origin, 2, traced);
    let (reads, subs) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            reader(
                daemon.addr,
                &warm_id,
                &warm_summary,
                &warm_body,
                &stop,
                &mut read_spans,
                traced,
            )
        });
        let submitter = s.spawn(|| {
            let _stop = StopOnDrop(&stop);
            submitter(daemon.addr, seed, count, &mut submit_spans)
        });
        (
            reader.join().expect("reader thread"),
            submitter.join().expect("submitter thread"),
        )
    });
    let cpu_s = cpu_seconds(daemon.pid()) - cpu_before;
    let metrics_text = http::get(daemon.addr, "/metrics").map(|r| r.text().to_string());
    record.set("peak_rss_mib", peak_rss_mib(Some(daemon.pid())), "MiB", 1);
    drop(daemon);
    speeds.extend([host_speed(), host_speed()]);
    let speed = median(&speeds);

    // Checks: every read and submission, then the bytes served against
    // in-process runs of the same matrices.
    record.attempted += reads.attempted + count;
    record.failed += (reads.failures.len() + subs.failures.len()) as u64;
    for f in reads.failures.iter().chain(&subs.failures).take(20) {
        eprintln!("frostbench: {NAME}: check failed: {f}");
        record.failures.push(f.clone());
    }
    check_summary(&mut record, "warm-up", &warm_matrix(seed), &warm_summary);
    for (i, body) in &subs.kept {
        check_summary(
            &mut record,
            &format!("submission {i}"),
            &fresh_matrix(seed, *i),
            body,
        );
    }

    if subs.latencies_ms.is_empty() || reads.latencies_ms.is_empty() {
        return Err("no submission or read succeeded".into());
    }
    let n_results = subs.latencies_ms.len() as u64;
    let result_p50 = median(&subs.latencies_ms);
    record.set("result_p50_ms", result_p50 * speed, "ms", n_results);
    record.set(
        "sim_host_days_per_s",
        HOST_DAYS_PER_JOB * n_results as f64 / (subs.elapsed_s * speed),
        "host-days/s",
        n_results,
    );
    record.set("wall.result_p50_ms", result_p50, "ms", n_results);
    record.set("host.speed", speed, "ratio", speeds.len() as u64);
    let n_reads = reads.latencies_ms.len() as u64;
    record.set(
        "service.read_p50_ms",
        median(&reads.latencies_ms),
        "ms",
        n_reads,
    );
    if let Some(p99) = supported_percentile(&reads.latencies_ms, 0.99) {
        record.set("service.read_p99_ms", p99, "ms", n_reads);
    }
    if let Some(p90) = supported_percentile(&subs.latencies_ms, 0.90) {
        record.set("service.result_p90_ms", p90, "ms", n_results);
    }
    record.set(
        "service.read_rps",
        n_reads as f64 / reads.elapsed_s,
        "1/s",
        n_reads,
    );

    let mut spans = Vec::new();
    if traced {
        for (route, parts) in READ_ROUTES.iter().zip(&reads.parts) {
            for (k, part) in ["connect_us", "ttfb_us", "body_us"].iter().enumerate() {
                let values: Vec<f64> = parts.iter().map(|p| p[k]).collect();
                if !values.is_empty() {
                    let name = format!("http.{route}.{part}");
                    record.set(&name, median(&values), unit_for(&name), values.len() as u64);
                }
            }
        }
        record.set("service.cpu_s", cpu_s, "s", 1);
        if let Ok(text) = metrics_text {
            let hits = prometheus_value(&text, "campaigns_total{kind=\"cache-hit\"}");
            let simulated = prometheus_value(&text, "campaigns_total{kind=\"simulated\"}");
            record.set(
                "service.cache_hit_ratio",
                hits / (hits + simulated).max(1.0),
                "ratio",
                1,
            );
        }
        record.set("residual.frac", median(&subs.residual), "ratio", n_results);
        if !reads.kept_ms.is_empty() && !reads.unkept_ms.is_empty() {
            let overhead = median(&reads.kept_ms) / median(&reads.unkept_ms) - 1.0;
            record.set("trace.overhead_frac", overhead, "ratio", n_reads);
        }
        in_process_layers(&mut record, seed, count, result_p50, &mut submit_spans);
        spans.extend(read_spans.spans);
        spans.extend(submit_spans.spans);
    }
    Ok((record, spans))
}

/// The daemon's per-submission work, called in process after the load
/// stops: content hashing, a cold and a cached `execute_matrix`, and one
/// matrix's campaigns a layer at a time.
fn in_process_layers(
    record: &mut Record,
    seed: u64,
    count: u64,
    result_p50: f64,
    spans: &mut Spans,
) {
    let warm = warm_matrix(seed);
    let t = Instant::now();
    let calls = 2000;
    for _ in 0..calls {
        std::hint::black_box(job_id(std::hint::black_box(&warm)).expect("matrices serialize"));
    }
    record.set(
        "service.job_id_us",
        t.elapsed().as_secs_f64() * 1e6 / calls as f64,
        "us",
        calls,
    );

    let (mut cold, mut cached) = (Vec::new(), Vec::new());
    for k in 0..3 {
        let m = fresh_matrix(seed, count + k);
        let cache = ResultCache::new();
        for times in [&mut cold, &mut cached] {
            let ((), ms) = spans.time("exec.execute_matrix", 0, 0, || {
                exec::execute_matrix(&m, &cache, &|_| {}).expect("benchmark matrices run");
            });
            times.push(ms);
        }
    }
    let exec_ms = median(&cold);
    record.set("service.exec_ms", exec_ms, "ms", cold.len() as u64);
    record.set(
        "service.exec_cached_ms",
        median(&cached),
        "ms",
        cached.len() as u64,
    );
    record.set("service.queue_wait_ms", result_p50 - exec_ms, "ms", 1);

    let mut totals = Totals::new();
    let job = spans.open(0, 0);
    for j in fresh_matrix(seed, count + 3).expand() {
        let cfg = j
            .scenario
            .to_config(j.seed)
            .expect("benchmark matrices are valid");
        traced_campaign(&cfg, false, spans, job.id(), job.id(), &mut totals);
    }
    spans.close(job, "matrix.campaigns");
    for (name, v) in totals {
        let unit = unit_for(&name);
        record.set(&name, v, unit, 1);
    }
}

/// The value of the sample line starting with `series` in Prometheus
/// text, or 0 when absent.
fn prometheus_value(text: &str, series: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(series))
        .find_map(|rest| rest.trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_submissions_never_share_seeds_with_each_other_or_the_reads() {
        let seeds = |m: MatrixSpec| m.seed_start..m.seed_start + m.seeds;
        let mut taken: Vec<u64> = seeds(warm_matrix(3)).collect();
        for i in 0..500 {
            for s in seeds(fresh_matrix(3, i)) {
                assert!(!taken.contains(&s), "seed {s} reused");
                taken.push(s);
            }
        }
        assert!(taken.iter().all(|s| *s >= 300_000 && *s < 400_000));
    }

    #[test]
    fn a_summary_that_differs_from_the_in_process_sweep_is_a_counted_failure() {
        let m = fresh_matrix(0, 0);
        let (artifacts, _) = exec::execute_matrix(&m, &ResultCache::new(), &|_| {}).expect("runs");
        let mut record = Record::new(NAME, 0, false);
        check_summary(&mut record, "served", &m, artifacts.summary_json.as_bytes());
        assert_eq!((record.attempted, record.failed), (1, 0));
        let tampered = artifacts.summary_json.replacen('1', "2", 1);
        check_summary(&mut record, "tampered", &m, tampered.as_bytes());
        assert_eq!((record.attempted, record.failed), (2, 1));
        assert!(!record.correct());
    }

    #[test]
    fn prometheus_samples_are_read_by_series() {
        let text = "# TYPE campaigns_total counter\n\
                    campaigns_total{kind=\"cache-hit\"} 3\n\
                    campaigns_total{kind=\"simulated\"} 9\n";
        assert_eq!(
            prometheus_value(text, "campaigns_total{kind=\"cache-hit\"}"),
            3.0
        );
        assert_eq!(
            prometheus_value(text, "campaigns_total{kind=\"simulated\"}"),
            9.0
        );
        assert_eq!(prometheus_value(text, "absent"), 0.0);
    }
}
