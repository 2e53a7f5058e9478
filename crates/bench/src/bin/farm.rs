//! Campaign farm CLI — submit, run, resume, and inspect a durable,
//! crash-resumable sweep.
//!
//! ```sh
//! # Expand a climate × chaos × seed matrix into a farm directory:
//! farm submit --dir sweep --climates helsinki,new-mexico --days 7 \
//!      --seeds 8 [--start-seed 0] [--chaos both] [--poison N]
//!
//! # Work the queue (safe to kill -9 at any instant):
//! farm run --dir sweep --workers 4
//!
//! # Pick up where a killed run left off (completed jobs become cache
//! # hits; orphaned leases are requeued; output bytes are unchanged):
//! farm resume --dir sweep --workers 2
//!
//! # Queue census:
//! farm status --dir sweep
//! ```
//!
//! `--chaos` takes `off` (default), `on`, or `both` (each climate twice,
//! with and without §4.2.1-grade chaos injection). `--poison N` appends N
//! deliberately panicking scenarios to exercise retry + quarantine.
//!
//! Once every job is terminal, the farm writes `merged.json` — the
//! invariant-form ensemble summary, byte-identical to
//! `ensemble --matrix manifest.json --invariant` at any worker count and
//! across any number of kill/resume cycles.

use frostlab_core::spec::CLIMATE_PRESETS;
use frostlab_core::{MatrixSpec, ScenarioSpec};
use frostlab_farm::{Farm, FarmError, RunOptions};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: farm <submit|run|resume|status> --dir DIR [options]\n\
         \n\
         submit: --climates a,b,.. [--days D] [--seeds N] [--start-seed S]\n\
         \x20       [--chaos off|on|both] [--force-ecc] [--poison N]\n\
         \x20       (climates: {})\n\
         run/resume: [--workers N] [--max-attempts N]\n\
         status: no extra options",
        CLIMATE_PRESETS.join(", ")
    );
    std::process::exit(2);
}

struct Cli {
    dir: PathBuf,
    climates: Vec<String>,
    days: i64,
    seeds: u64,
    start_seed: u64,
    chaos: String,
    force_ecc: bool,
    poison: u64,
    workers: usize,
    max_attempts: u64,
}

fn parse_cli(mut args: std::env::Args) -> (String, Cli) {
    let Some(command) = args.next() else { usage() };
    let mut cli = Cli {
        dir: PathBuf::new(),
        climates: Vec::new(),
        days: 7,
        seeds: 8,
        start_seed: 0,
        chaos: "off".to_string(),
        force_ecc: false,
        poison: 0,
        workers: 0,
        max_attempts: 3,
    };
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--dir" => cli.dir = PathBuf::from(val("--dir")),
            "--climates" => {
                cli.climates = val("--climates").split(',').map(str::to_string).collect();
            }
            "--days" => cli.days = val("--days").parse().unwrap_or_else(|_| usage()),
            "--seeds" => cli.seeds = val("--seeds").parse().unwrap_or_else(|_| usage()),
            "--start-seed" => {
                cli.start_seed = val("--start-seed").parse().unwrap_or_else(|_| usage())
            }
            "--chaos" => cli.chaos = val("--chaos"),
            "--force-ecc" => cli.force_ecc = true,
            "--poison" => cli.poison = val("--poison").parse().unwrap_or_else(|_| usage()),
            "--workers" => cli.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--max-attempts" => {
                cli.max_attempts = val("--max-attempts").parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }
    if cli.dir.as_os_str().is_empty() {
        usage();
    }
    (command, cli)
}

/// Expand the CLI axes into a matrix: climate-major, chaos variants
/// after their plain siblings, poison scenarios last.
fn build_matrix(cli: &Cli) -> MatrixSpec {
    let chaos_variants: &[bool] = match cli.chaos.as_str() {
        "off" => &[false],
        "on" => &[true],
        "both" => &[false, true],
        other => {
            eprintln!("unknown --chaos value {other:?} (want off|on|both)");
            std::process::exit(2);
        }
    };
    let mut scenarios = Vec::new();
    for climate in &cli.climates {
        for &chaos in chaos_variants {
            let name = if chaos {
                format!("{climate}+chaos")
            } else {
                climate.clone()
            };
            let mut spec = ScenarioSpec::new(&name, cli.days, climate);
            spec.chaos = chaos;
            spec.force_ecc = cli.force_ecc;
            scenarios.push(spec);
        }
    }
    for i in 0..cli.poison {
        let climate = cli
            .climates
            .first()
            .map(String::as_str)
            .unwrap_or("helsinki");
        let mut spec = ScenarioSpec::new(&format!("poison-{i}"), cli.days, climate);
        spec.poison = true;
        scenarios.push(spec);
    }
    MatrixSpec {
        scenarios,
        seed_start: cli.start_seed,
        seeds: cli.seeds,
    }
}

fn run(resume: bool, cli: &Cli) -> Result<(), FarmError> {
    let mut farm = Farm::open(&cli.dir)?;
    let before = farm.status();
    if resume && before.torn_tail_recovered {
        eprintln!(
            "recovered torn WAL tail ({} intact records)",
            before.wal_records
        );
    }
    let outcome = farm.run(RunOptions {
        workers: cli.workers,
        max_attempts: cli.max_attempts,
        handle_sigint: true,
    })?;
    eprintln!(
        "workers={} ran={} cached={} quarantined={} orphans-requeued={} drained={} settled={}",
        outcome.workers,
        outcome.jobs_run,
        outcome.jobs_cached,
        outcome.jobs_quarantined,
        outcome.orphans_requeued,
        outcome.drained,
        outcome.settled,
    );
    print!("{}", outcome.prometheus);
    if outcome.settled {
        eprintln!("merged summary: {}", cli.dir.join("merged.json").display());
    }
    Ok(())
}

fn main() {
    let mut args = std::env::args();
    args.next(); // binary name
    let (command, cli) = parse_cli(args);

    let result = match command.as_str() {
        "submit" => {
            if cli.climates.is_empty() {
                usage();
            }
            let matrix = build_matrix(&cli);
            Farm::submit(&cli.dir, &matrix).map(|farm| {
                eprintln!(
                    "submitted {} jobs ({} scenarios x {} seeds) to {}",
                    matrix.jobs(),
                    matrix.scenarios.len(),
                    matrix.seeds,
                    farm.dir().display()
                );
            })
        }
        "run" => run(false, &cli),
        "resume" => run(true, &cli),
        "status" => Farm::open(&cli.dir).map(|farm| {
            let s = farm.status();
            println!(
                "total={} pending={} leased={} done={} cached={} quarantined={} \
                 epoch={} wal-records={} torn-tail-recovered={}",
                s.total,
                s.pending,
                s.leased,
                s.done,
                s.cached,
                s.quarantined,
                s.epoch,
                s.wal_records,
                s.torn_tail_recovered,
            );
        }),
        _ => usage(),
    };

    if let Err(err) = result {
        eprintln!("farm {command}: {err}");
        std::process::exit(1);
    }
}
