//! Trace exporter CLI — one traced campaign, three export formats.
//!
//! Runs a single campaign with the tracer armed and writes the exports
//! next to each other:
//!
//! * `trace.jsonl` — the line-delimited event log ([`to_jsonl`]);
//! * `trace_perfetto.json` — Chrome trace-event JSON, loadable in
//!   Perfetto / `chrome://tracing` ([`to_chrome_trace`]);
//! * `metrics.prom` — final metric values in Prometheus text exposition
//!   format ([`to_prometheus`]).
//!
//! Every byte of every export is a pure function of `(--seed, --days,
//! --metrics-only)`: no wall-clock, no thread IDs, no map iteration
//! order leaks in. The `determinism` CI job runs this binary twice and
//! `diff`s the output directories.
//!
//! ```sh
//! trace_report [--seed S] [--days D] [--out-dir DIR] [--metrics-only]
//! ```
//!
//! `--days 0` (default 7) runs the full Feb 12 – May 13 campaign;
//! `--metrics-only` skips event buffering (empty jsonl/perfetto event
//! lists, full metrics).

use frostlab_core::config::ExperimentConfig;
use frostlab_core::ScenarioBuilder;
use frostlab_trace::export::{to_chrome_trace, to_jsonl, to_prometheus};
use frostlab_trace::TraceConfig;

fn usage() -> ! {
    eprintln!("usage: trace_report [--seed S] [--days D] [--out-dir DIR] [--metrics-only]");
    std::process::exit(2);
}

fn main() {
    let mut seed: u64 = 42;
    let mut days: i64 = 7;
    let mut out_dir = String::from("trace-out");
    let mut metrics_only = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--days" => days = val("--days").parse().unwrap_or_else(|_| usage()),
            "--out-dir" => out_dir = val("--out-dir"),
            "--metrics-only" => metrics_only = true,
            _ => usage(),
        }
    }

    let cfg = if days > 0 {
        ExperimentConfig::short(seed, days)
    } else {
        ExperimentConfig::paper_scripted(seed)
    };
    let trace_cfg = if metrics_only {
        TraceConfig::metrics_only()
    } else {
        TraceConfig::default()
    };

    eprintln!("trace_report: tracing seed {seed} for {days} day(s) …");
    let results = ScenarioBuilder::paper(cfg)
        .with_tracing(trace_cfg)
        .build()
        .run();
    let trace = results
        .trace
        .as_ref()
        .expect("with_tracing arms the tracer");
    eprintln!(
        "trace_report: {} events recorded ({} dropped), {} runs simulated",
        trace.events.len(),
        trace.dropped_events,
        results.workload.total_runs()
    );
    if trace.dropped_events > 0 {
        eprintln!(
            "trace_report: WARNING: {} event(s) were dropped at the ring \
             capacity — the jsonl/perfetto exports are incomplete (the \
             `trace.dropped_events` counter in metrics.prom records the \
             same tally); raise TraceConfig::max_events or pass \
             --metrics-only if only the metrics matter",
            trace.dropped_events
        );
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let write = |name: &str, body: String| {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, body).expect("write export");
        eprintln!("trace_report: wrote {path}");
    };
    write("trace.jsonl", to_jsonl(trace).expect("trace serializes"));
    write(
        "trace_perfetto.json",
        to_chrome_trace(trace).expect("trace serializes"),
    );
    write("metrics.prom", to_prometheus(&trace.metrics));
}
