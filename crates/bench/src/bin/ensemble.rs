//! Ensemble sweep CLI — the determinism gate's workhorse.
//!
//! Runs a contiguous seed range of stochastic campaigns on the parallel
//! ensemble engine and prints the streaming [`EnsembleSummary`](frostlab_ensemble::EnsembleSummary) as JSON.
//! Because the engine merges in seed order regardless of completion
//! order, the `--invariant` output is byte-identical for any `--threads`
//! value — CI runs it at 1 and 4 threads and `diff`s the files.
//!
//! `--traced` arms every campaign's tracer in metrics-only mode and
//! prints the [`EnsembleMetrics`](frostlab_ensemble::EnsembleMetrics) report instead of the summary. That
//! report carries no execution metadata, so it too must be byte-identical
//! across `--threads` values — the `thread-invariance (traced)` CI job
//! diffs it.
//!
//! `--matrix FILE` switches to matrix mode: FILE is a `MatrixSpec` JSON
//! manifest (the same format `farm submit` writes) and the sweep runs
//! every job of the matrix in its canonical scenario-major, seed-minor
//! order — the single-process reference a farm run of the same matrix is
//! byte-compared against in the crash-resume CI gate.
//!
//! ```sh
//! ensemble [--seeds N] [--start-seed S] [--threads T] [--days D]
//!          [--hosts H] [--matrix FILE] [--invariant] [--traced]
//! ```
//!
//! `--days 0` (default 7) runs the full Feb 12 – May 13 campaign.
//! `--hosts 0` (default) runs the paper's 19 machines; any other value
//! runs a generated vendor-mix fleet of that size (the CI
//! `thread-invariance (fleet)` job sweeps a 1,000-host campaign at 1 and
//! 4 threads and diffs the invariant output).

use frostlab_core::config::{ExperimentConfig, FaultMode};
use frostlab_core::fleet::FleetSpec;
use frostlab_core::{MatrixSpec, ScenarioBuilder};
use frostlab_ensemble::{run_matrix_sweep, sweep, MetricsAggregate};
use frostlab_trace::TraceConfig;

fn usage() -> ! {
    eprintln!(
        "usage: ensemble [--seeds N] [--start-seed S] [--threads T] [--days D] \
         [--hosts H] [--matrix FILE] [--invariant] [--traced]"
    );
    std::process::exit(2);
}

fn main() {
    let mut seeds: u64 = 32;
    let mut start_seed: u64 = 0;
    let mut threads: usize = 0;
    let mut days: i64 = 7;
    let mut hosts: u32 = 0;
    let mut matrix_file: Option<String> = None;
    let mut invariant = false;
    let mut traced = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => seeds = val("--seeds").parse().unwrap_or_else(|_| usage()),
            "--start-seed" => start_seed = val("--start-seed").parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--days" => days = val("--days").parse().unwrap_or_else(|_| usage()),
            "--hosts" => hosts = val("--hosts").parse().unwrap_or_else(|_| usage()),
            "--matrix" => matrix_file = Some(val("--matrix")),
            "--invariant" => invariant = true,
            "--traced" => traced = true,
            _ => usage(),
        }
    }

    if let Some(path) = matrix_file {
        if traced {
            eprintln!("--matrix and --traced are mutually exclusive");
            std::process::exit(2);
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read matrix manifest {path}: {e}"));
        let matrix = MatrixSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("invalid matrix manifest {path}: {e}"));
        let summary = run_matrix_sweep(&matrix, threads)
            .unwrap_or_else(|e| panic!("invalid matrix {path}: {e}"));
        let json = if invariant {
            summary.invariant_json()
        } else {
            summary.to_json()
        };
        println!("{}", json.expect("summary serializes"));
        return;
    }

    let fleet = match hosts {
        0 => FleetSpec::Paper,
        n => FleetSpec::VendorMix { hosts: n },
    };
    let make_config = move |seed: u64| {
        if days > 0 {
            ExperimentConfig {
                fault_mode: FaultMode::Stochastic,
                fleet,
                ..ExperimentConfig::short(seed, days)
            }
        } else {
            ExperimentConfig {
                fleet,
                ..ExperimentConfig::paper_stochastic(seed)
            }
        }
    };

    let swept = sweep(start_seed, seeds, threads, |seed| {
        let b = ScenarioBuilder::paper(make_config(seed));
        if traced {
            b.with_tracing(TraceConfig::metrics_only()).build()
        } else {
            b.build()
        }
    });
    if traced {
        // An empty sweep traced nothing; it still reports (empty) metrics.
        let metrics = swept
            .metrics
            .unwrap_or_else(|| MetricsAggregate::new().finish(start_seed));
        println!("{}", metrics.to_json().expect("metrics serialize"));
        return;
    }

    let summary = swept.summary;

    let json = if invariant {
        summary.invariant_json()
    } else {
        summary.to_json()
    };
    println!("{}", json.expect("summary serializes"));
}
