//! frostbench: frostlab's end-to-end benchmark.
//!
//! ```sh
//! # one workload, one JSON result line on stdout (the form BENCHMARK.json runs)
//! frostbench --workload sweep-week --seed 0 --seconds 20 --trace 0
//! # every workload, each in its own process; writes target/frostbench/run.json
//! frostbench run --all --seed 0 [--runs K] [--seconds S] [--traced] [--out PATH]
//! # medians, quartiles and verdicts of B against A; exits 1 on a regression
//! frostbench compare A.json B.json
//! ```
//!
//! Run it from the repository root: every file it writes goes under
//! `target/frostbench/`. See README.md for the workloads and metrics.

mod compare;
mod http;
mod report;
mod service;
mod sim;
mod spec;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::{Command, Stdio};

use report::{out_path, Record, RunFile, OUT_DIR};
use sim::Sim;
use spec::BenchSpec;
use stats::median;
use trace::Span;

/// `residual.frac` above this on `sweep-week` means the traced layers no
/// longer add up to the rep.
const MAX_SWEEP_RESIDUAL: f64 = 0.05;

fn usage() -> ! {
    eprintln!(
        "usage: frostbench --workload NAME --seed N --seconds S --trace 0|1\n       \
         frostbench run (--all | --workload NAME) [--seed N] [--seconds S] [--runs K] \
         [--traced] [--out PATH]\n       \
         frostbench compare A.json B.json"
    );
    std::process::exit(2);
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    runs: usize,
    traced: bool,
    out: Option<String>,
}

fn parse(args: &[String], spec: &BenchSpec) -> Args {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: spec.run_seconds,
        runs: 1,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--all" => parsed.workloads = spec.workloads.clone(),
            "--workload" => parsed.workloads.push(value()),
            "--seed" => parsed.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => parsed.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--runs" => parsed.runs = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => parsed.traced = value() == "1",
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = Some(value()),
            _ => usage(),
        }
    }
    for w in &parsed.workloads {
        if !spec.workloads.contains(w) {
            eprintln!(
                "frostbench: unknown workload {w:?} (known: {})",
                spec.workloads.join(", ")
            );
            std::process::exit(2);
        }
    }
    if parsed.workloads.is_empty() || parsed.runs == 0 || parsed.seconds == 0 {
        usage();
    }
    parsed
}

fn main() {
    let spec = BenchSpec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("daemon") => match service::serve() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("frostbench daemon: {e}");
                1
            }
        },
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(&spec, a, b),
            _ => usage(),
        },
        Some("run") => run_all(&spec, &parse(&args[1..], &spec)),
        _ => {
            let args = parse(&args, &spec);
            if args.workloads.len() != 1 {
                usage();
            }
            measure_one(
                &spec,
                &args.workloads[0],
                args.seed,
                args.seconds,
                args.traced,
            )
        }
    };
    std::process::exit(code);
}

/// Run one workload in this process, write its files and print the
/// result line last on stdout.
fn measure_one(spec: &BenchSpec, workload: &str, seed: u64, seconds: u64, traced: bool) -> i32 {
    let scratch = PathBuf::from(OUT_DIR)
        .join("tmp")
        .join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("frostbench: cannot create {}: {e}", scratch.display());
        return 1;
    }
    let seconds = seconds as f64;
    let result: Result<(Record, Vec<Span>), String> = match workload {
        "sweep-week" => Ok(sim::run(Sim::SweepWeek, seed, seconds, traced, &scratch)),
        "fleet-10k-day" => Ok(sim::run(Sim::FleetDay, seed, seconds, traced, &scratch)),
        "season-paper" => Ok(sim::run(Sim::SeasonPaper, seed, seconds, traced, &scratch)),
        service::NAME => service::run(seed, seconds, traced),
        other => Err(format!("no workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (record, spans) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("frostbench: {workload}: {e}");
            return 1;
        }
    };
    let missing: Vec<&str> = spec
        .end_to_end
        .iter()
        .filter(|m| !record.metrics.contains_key(&m.name))
        .map(|m| m.name.as_str())
        .collect();
    if !traced && !missing.is_empty() {
        eprintln!("frostbench: {workload}: measured no {}", missing.join(", "));
        return 1;
    }
    let json = serde_json::to_string_pretty(&record.to_value()).expect("plain data serializes");
    let written = if traced {
        std::fs::write(out_path(&format!("{workload}.layers.json")), json + "\n").and_then(|()| {
            std::fs::write(
                out_path(&format!("{workload}.spans.json")),
                trace::chrome_trace(&spans),
            )
        })
    } else {
        std::fs::write(out_path(&format!("{workload}.json")), json + "\n")
    };
    if let Err(e) = written {
        eprintln!("frostbench: cannot write results under {OUT_DIR}: {e}");
        return 1;
    }
    for (name, m) in &record.metrics {
        eprintln!(
            "  {workload:<14} {name:<32} {:>14.4} {:<12} n={}",
            m.value, m.unit, m.samples
        );
    }
    println!("{}", record.result_line(spec));
    0
}

/// Run the workloads `runs` times, each in a process of its own so peak
/// RSS is per workload, and write the run file.
fn run_all(spec: &BenchSpec, args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("frostbench: {e}");
            return 1;
        }
    };
    let mut file = RunFile::default();
    let mut bad = false;
    for run in 0..args.runs {
        for w in &args.workloads {
            eprintln!("frostbench: run {}/{} of {w} …", run + 1, args.runs);
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .stdout(Stdio::null())
                .status();
            let file_name = format!("{w}{}.json", if args.traced { ".layers" } else { "" });
            let record = std::fs::read_to_string(out_path(&file_name))
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
                .and_then(|v| Record::from_value(&v));
            match (status, record) {
                (Ok(s), Ok(record)) if s.success() => file.push(record),
                (status, record) => {
                    eprintln!(
                        "frostbench: {w} did not finish: {status:?} {:?}",
                        record.err()
                    );
                    bad = true;
                }
            }
        }
    }
    let out = args.out.clone().unwrap_or_else(|| {
        let name = if args.traced {
            "run-traced.json"
        } else {
            "run.json"
        };
        out_path(name).display().to_string()
    });
    if let Err(e) = std::fs::write(&out, file.to_json() + "\n") {
        eprintln!("frostbench: cannot write {out}: {e}");
        return 1;
    }

    println!(
        "{:<15} {:<28} {:>14} {:<12} samples",
        "workload", "metric", "median", "unit"
    );
    for w in &file.workloads {
        let mut names: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let extra: Vec<&str> = w.runs[0]
            .metrics
            .keys()
            .map(String::as_str)
            .filter(|n| !names.contains(n) && (args.traced || n.starts_with("service.")))
            .collect();
        names.extend(extra);
        for name in names {
            let values = w.values(name);
            if values.is_empty() {
                continue;
            }
            let m = &w.runs[0].metrics[name];
            let samples: u64 = w
                .runs
                .iter()
                .filter_map(|r| r.metrics.get(name))
                .map(|m| m.samples)
                .sum();
            println!(
                "{:<15} {name:<28} {:>14.4} {:<12} {samples}",
                w.name,
                median(&values),
                m.unit
            );
        }
        let failed: u64 = w.runs.iter().map(|r| r.failed).sum();
        let attempted: u64 = w.runs.iter().map(|r| r.attempted).sum();
        println!(
            "{:<15} {:<28} {:>14.6} {:<12} {failed}/{attempted} failed",
            w.name,
            "error_rate",
            w.error_rate(),
            "ratio"
        );
        for r in &w.runs {
            for f in &r.failures {
                println!("{:<15} check failed: {f}", w.name);
            }
        }
        bad |= failed > 0;
        if args.traced && w.name == "sweep-week" {
            let residual = median(&w.values("residual.frac"));
            if residual > MAX_SWEEP_RESIDUAL {
                println!(
                    "sweep-week residual.frac {residual:.4} > {MAX_SWEEP_RESIDUAL}: \
                     the traced layers do not add up to the rep"
                );
                bad = true;
            }
        }
    }
    eprintln!("frostbench: wrote {out}");
    i32::from(bad)
}

fn compare_files(spec: &BenchSpec, a: &str, b: &str) -> i32 {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| RunFile::from_json(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => i32::from(compare::compare(spec, &a, &b)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("frostbench compare: {e}");
            2
        }
    }
}
