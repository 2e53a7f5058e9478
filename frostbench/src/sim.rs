//! The three simulation workloads: `sweep-week`, `fleet-10k-day` and
//! `season-paper`.
//!
//! An untraced rep times the work as a user runs it. A traced rep runs the
//! same work through the same public calls one layer at a time, timing
//! each call: the setup parts (`WeatherModel::prewarm`,
//! `JobTemplate::build`, `FleetBuilder::plans`) as standalone probes whose
//! time is left out of the rep, then `ScenarioBuilder::build`,
//! `run_with_timings`, `summary` and, for the sweep, the farm's store and
//! WAL calls.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use frostlab_climate::weather::WeatherModel;
use frostlab_core::config::{ExperimentConfig, FaultMode};
use frostlab_core::fleet::{FleetBuilder, FleetSpec};
use frostlab_core::results::CampaignSummary;
use frostlab_core::{MatrixSpec, ScenarioBuilder, ScenarioSpec};
use frostlab_farm::supervisor::{MERGED_FILE, STORE_DIR, WAL_FILE};
use frostlab_farm::{Farm, ResultStore, RunOptions, Wal, WalRecord};
use frostlab_obs::ObsConfig;
use frostlab_workload::job::JobTemplate;

use crate::report::{unit_for, Record};
use crate::stats::median;
use crate::sys::{host_speed, peak_rss_mib, reps_within};
use crate::trace::{Span, Spans};

/// Layer totals of one rep, by metric name.
pub type Totals = BTreeMap<String, f64>;

fn add(totals: &mut Totals, name: &str, v: f64) {
    *totals.entry(name.to_string()).or_insert(0.0) += v;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    /// A 192-job matrix through the durable farm with two workers.
    SweepWeek,
    /// One 10,000-host day with the observatory armed.
    FleetDay,
    /// The paper's scripted campaign, Feb 12 – May 13.
    SeasonPaper,
}

/// Seeds per climate in the sweep: 2 × 96 = 192 jobs.
const SWEEP_SEEDS: u64 = 96;
const FLEET_HOSTS: u32 = 10_000;
/// Scenario builds timed for `setup_s` before each rep; the median over
/// the run is reported.
const SETUP_BUILDS_PER_REP: usize = 2;

impl Sim {
    pub fn name(self) -> &'static str {
        match self {
            Sim::SweepWeek => "sweep-week",
            Sim::FleetDay => "fleet-10k-day",
            Sim::SeasonPaper => "season-paper",
        }
    }

    /// [`digest`] of the workload's output at seed 0: `merged.json` for the
    /// sweep, the campaign summary JSON otherwise. The season's pin is
    /// the golden `summary_json` of the paper scenario.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Sim::SweepWeek => 0xa0d5_0b11_fa04_c769,
            Sim::FleetDay => 0xe136_6edc_1b60_c293,
            Sim::SeasonPaper => 0x530e_6fad_d626_f22f,
        }
    }

    fn observe(self) -> bool {
        self == Sim::FleetDay
    }

    /// Every campaign config one rep runs, in run order.
    fn configs(self, seed: u64) -> Vec<ExperimentConfig> {
        match self {
            Sim::SweepWeek => sweep_matrix(seed)
                .expand()
                .iter()
                .map(|job| {
                    job.scenario
                        .to_config(job.seed)
                        .expect("the sweep's scenarios are valid")
                })
                .collect(),
            Sim::FleetDay => vec![ExperimentConfig {
                fault_mode: FaultMode::Stochastic,
                fleet: FleetSpec::VendorMix { hosts: FLEET_HOSTS },
                ..ExperimentConfig::short(42 + seed, 1)
            }],
            Sim::SeasonPaper => vec![ExperimentConfig::paper_scripted(42 + seed)],
        }
    }
}

fn builder(cfg: ExperimentConfig, observe: bool) -> ScenarioBuilder {
    let b = ScenarioBuilder::paper(cfg);
    if observe {
        b.with_observability(ObsConfig::default())
    } else {
        b
    }
}

/// The sweep's matrix: helsinki and new-mexico weeks × 96 seeds.
pub fn sweep_matrix(seed: u64) -> MatrixSpec {
    MatrixSpec {
        scenarios: vec![
            ScenarioSpec::new("helsinki", 7, "helsinki"),
            ScenarioSpec::new("new-mexico", 7, "new-mexico"),
        ],
        seed_start: seed * SWEEP_SEEDS,
        seeds: SWEEP_SEEDS,
    }
}

/// The 64-bit FNV-1a variant the paper scenario's golden hashes use
/// (`tests/golden_hash.rs`, multiplier `0x1_0000_0000_01b3`), so the
/// season's pin is the golden `summary_json` value itself.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3)
    })
}

/// Simulated host-days in one campaign: fleet size × window length.
pub fn host_days(cfg: &ExperimentConfig) -> f64 {
    FleetBuilder::from_spec(cfg.fleet).plans(cfg.start).len() as f64 * cfg.duration().as_days_f64()
}

/// What one rep produced.
struct Rep {
    /// Wall time of the rep, probes excluded.
    ms: f64,
    /// The bytes whose digest is checked.
    output: String,
    /// Wrong hashes the campaign saw (0 for a sweep).
    wrong_hashes: usize,
}

/// Run `sim` for `seconds` at `seed`; traced runs also return spans.
pub fn run(sim: Sim, seed: u64, seconds: f64, traced: bool, scratch: &Path) -> (Record, Vec<Span>) {
    let mut record = Record::new(sim.name(), seed, traced);
    let mut spans = Spans::new(Instant::now(), 1, traced);
    let configs = sim.configs(seed);
    let host_days: f64 = configs.iter().map(host_days).sum();

    // Set-up is timed before every rep, not once, so a burst of load
    // from elsewhere on the machine cannot sway all of its samples.
    let mut setup = Vec::new();
    let mut time_setup = |speed: f64| {
        for _ in 0..SETUP_BUILDS_PER_REP {
            let t = Instant::now();
            let scenario = builder(configs[0].clone(), sim.observe()).build();
            setup.push(t.elapsed().as_secs_f64() * speed);
            drop(black_box(scenario));
        }
    };

    let matrix = sweep_matrix(seed);
    let mut checks = RepCheck {
        sim,
        expected: (seed == 0).then(|| sim.pinned_digest()),
        jobs: matrix.jobs(),
    };
    // Rep times scaled to the reference machine's speed, and as measured.
    let (mut plain_ms, mut wall_ms, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    let mut outcomes = Vec::new();
    let plain_budget = if traced { seconds / 2.0 } else { seconds };
    let mut rep_no = 0;
    reps_within(plain_budget, if traced { 1 } else { 3 }, || {
        rep_no += 1;
        let before = host_speed();
        time_setup(before);
        let rep = match sim {
            Sim::SweepWeek => {
                let dir = scratch.join(format!("rep-{rep_no}"));
                // Traced runs compare against one worker, as the traced
                // rep runs the per-job sequence on one thread.
                let result = sweep_rep(&matrix, &dir, if traced { 1 } else { 2 });
                if rep_no == 1 && result.is_ok() {
                    spot_check_store(&mut record, &matrix, &dir);
                }
                let _ = std::fs::remove_dir_all(&dir);
                match result {
                    Ok((rep, ran, cached)) => {
                        outcomes.push((ran, cached));
                        checks.farm_counts(&mut record, ran, cached);
                        rep
                    }
                    Err(e) => {
                        record.check(false, || format!("farm failed: {e}"));
                        return;
                    }
                }
            }
            _ => campaign_rep(sim, &configs[0]),
        };
        checks.output(&mut record, &rep);
        // A rep lasts seconds, so take the host's speed on both sides.
        let speed = (before * host_speed()).sqrt();
        speeds.push(speed);
        plain_ms.push(rep.ms * speed);
        wall_ms.push(rep.ms);
    });

    let mut traced_reps: Vec<(f64, Totals)> = Vec::new();
    if traced {
        reps_within(seconds / 2.0, 1, || {
            rep_no += 1;
            let before = host_speed();
            let dir = scratch.join(format!("rep-{rep_no}"));
            let result = traced_rep(sim, &matrix, &configs, &dir, &mut spans);
            let _ = std::fs::remove_dir_all(&dir);
            let speed = (before * host_speed()).sqrt();
            match result {
                Ok((rep, totals)) => {
                    checks.output(&mut record, &rep);
                    traced_reps.push((rep.ms * speed, totals));
                }
                Err(e) => record.check(false, || format!("traced rep failed: {e}")),
            }
        });
    }

    record.set("setup_s", median(&setup), "s", setup.len() as u64);
    if !plain_ms.is_empty() {
        let p50 = median(&plain_ms);
        let n = plain_ms.len() as u64;
        record.set("result_p50_ms", p50, "ms", n);
        record.set(
            "sim_host_days_per_s",
            host_days / (p50 / 1000.0),
            "host-days/s",
            n,
        );
        record.set("wall.result_p50_ms", median(&wall_ms), "ms", n);
        record.set("host.speed", median(&speeds), "ratio", n);
    }
    record.set("peak_rss_mib", peak_rss_mib(None), "MiB", 1);

    if !traced_reps.is_empty() {
        fold_layers(&mut record, &traced_reps);
        if !plain_ms.is_empty() {
            let traced_ms: Vec<f64> = traced_reps.iter().map(|(ms, _)| *ms).collect();
            let overhead = median(&traced_ms) / median(&plain_ms) - 1.0;
            record.set(
                "trace.overhead_frac",
                overhead,
                "ratio",
                traced_ms.len() as u64,
            );
        }
        if let Some(&(ran, cached)) = outcomes.last() {
            record.set("farm.jobs_run", ran as f64, "count", 1);
            record.set("farm.jobs_cached", cached as f64, "count", 1);
        }
    }
    (record, spans.spans)
}

/// The checks every rep must pass.
struct RepCheck {
    sim: Sim,
    /// The digest every rep's output must have: the pin at seed 0, else
    /// the first rep's, so reps at any seed must agree.
    expected: Option<u64>,
    /// Jobs the sweep's farm must simulate, none served from its store.
    jobs: u64,
}

impl RepCheck {
    fn output(&mut self, record: &mut Record, rep: &Rep) {
        let got = digest(rep.output.as_bytes());
        let want = *self.expected.get_or_insert(got);
        record.check(got == want, || {
            format!("output digest {got:#018x}, expected {want:#018x}")
        });
        if self.sim == Sim::SeasonPaper {
            let wrong = rep.wrong_hashes;
            record.check(wrong == 5, || {
                format!("{wrong} wrong hashes, the paper saw 5")
            });
        }
    }

    fn farm_counts(&self, record: &mut Record, ran: u64, cached: u64) {
        let jobs = self.jobs;
        record.check(ran == jobs && cached == 0, || {
            format!("farm ran {ran} and served {cached} from its store, expected {jobs} and 0")
        });
    }
}

/// Per layer, the median over traced reps of its per-rep total.
fn fold_layers(record: &mut Record, reps: &[(f64, Totals)]) {
    let names: Vec<String> = reps[0].1.keys().cloned().collect();
    for name in names {
        let values: Vec<f64> = reps
            .iter()
            .map(|(_, t)| t.get(&name).copied().unwrap_or(0.0))
            .collect();
        record.set(&name, median(&values), unit_for(&name), values.len() as u64);
    }
}

/// One untraced campaign: build, run and summarize.
fn campaign_rep(sim: Sim, cfg: &ExperimentConfig) -> Rep {
    let t = Instant::now();
    let results = builder(cfg.clone(), sim.observe()).build().run();
    let summary = results.summary();
    let ms = t.elapsed().as_secs_f64() * 1000.0;
    drop(results);
    Rep {
        ms,
        output: summary.to_json().expect("summary serializes"),
        wrong_hashes: summary.wrong_hashes,
    }
}

/// One untraced sweep: submit, run with `workers` workers, merge. Returns
/// the rep and the farm's counts of jobs run and served from its store.
fn sweep_rep(matrix: &MatrixSpec, dir: &Path, workers: usize) -> Result<(Rep, u64, u64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let mut farm = Farm::submit(dir, matrix).map_err(|e| e.to_string())?;
    let outcome = farm
        .run(RunOptions {
            workers,
            ..RunOptions::default()
        })
        .map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1000.0;
    let output = std::fs::read_to_string(dir.join(MERGED_FILE)).map_err(|e| e.to_string())?;
    let rep = Rep {
        ms,
        output,
        wrong_hashes: 0,
    };
    Ok((rep, outcome.jobs_run, outcome.jobs_cached))
}

/// One traced rep. The sweep runs as one worker doing the farm's per-job
/// sequence (key, lease, build, run, summary, put, complete), then
/// reopens the farm and merges, so its layers add up to the rep.
fn traced_rep(
    sim: Sim,
    matrix: &MatrixSpec,
    configs: &[ExperimentConfig],
    dir: &Path,
    spans: &mut Spans,
) -> Result<(Rep, Totals), String> {
    let mut totals = Totals::new();
    let rep = spans.open(0, 0);
    let (root, group) = (rep.id(), rep.id());
    let mut probes_ms = 0.0;
    let mut wrong_hashes = 0;

    let output = if sim == Sim::SweepWeek {
        let _ = std::fs::remove_dir_all(dir);
        let (farm, ms) = spans.time("farm.submit", root, group, || Farm::submit(dir, matrix));
        drop(farm.map_err(|e| e.to_string())?);
        add(&mut totals, "farm.submit_ms", ms);
        let ((wal, store), ms) = spans.time("farm.open", root, group, || {
            (
                Wal::open(&dir.join(WAL_FILE)),
                ResultStore::open(&dir.join(STORE_DIR)),
            )
        });
        add(&mut totals, "farm.open_ms", ms);
        let (mut wal, _, _) = wal.map_err(|e| e.to_string())?;
        let store = store.map_err(|e| e.to_string())?;
        let mut append =
            |spans: &mut Spans, totals: &mut Totals, record: WalRecord, parent: u64| {
                let (r, ms) = spans.time("farm.wal_append", parent, group, || wal.append(&record));
                add(totals, "farm.wal_append_ms", ms);
                add(totals, "farm.wal_appends", 1.0);
                r.map_err(|e| e.to_string())
            };
        append(spans, &mut totals, WalRecord::start(1), root)?;
        for (idx, (job, cfg)) in matrix.expand().iter().zip(configs).enumerate() {
            let job_span = spans.open(root, group);
            let (key, ms) = spans.time("farm.key", job_span.id(), group, || job.key());
            add(&mut totals, "farm.key_ms", ms);
            let key = key.map_err(|e| e.to_string())?;
            append(
                spans,
                &mut totals,
                WalRecord::lease(1, 0, idx as u64),
                job_span.id(),
            )?;
            let (summary, probe) =
                traced_campaign(cfg, sim.observe(), spans, job_span.id(), group, &mut totals);
            probes_ms += probe;
            let (r, ms) = spans.time("farm.store_put", job_span.id(), group, || {
                store.put(&key, 0, &summary)
            });
            add(&mut totals, "farm.store_put_ms", ms);
            r.map_err(|e| e.to_string())?;
            append(
                spans,
                &mut totals,
                WalRecord::complete(1, 0, idx as u64, false),
                job_span.id(),
            )?;
            spans.close(job_span, "job");
        }
        drop(wal);
        let (farm, ms) = spans.time("farm.open", root, group, || Farm::open(dir));
        add(&mut totals, "farm.open_ms", ms);
        let farm = farm.map_err(|e| e.to_string())?;
        let (merged, ms) = spans.time("farm.merge", root, group, || farm.merge(1));
        add(&mut totals, "farm.merge_ms", ms);
        let merged = merged.map_err(|e| e.to_string())?;
        format!("{}\n", merged.invariant_json().map_err(|e| e.to_string())?)
    } else {
        let (summary, probe) =
            traced_campaign(&configs[0], sim.observe(), spans, root, group, &mut totals);
        probes_ms += probe;
        wrong_hashes = summary.wrong_hashes;
        summary.to_json().expect("summary serializes")
    };
    let ms = spans.close(rep, sim.name()) - probes_ms;

    let layered: f64 = totals
        .iter()
        .filter(|(name, _)| inside_rep(name))
        .map(|(_, v)| v)
        .sum();
    totals.insert("residual.frac".into(), (ms - layered) / ms);
    Ok((
        Rep {
            ms,
            output,
            wrong_hashes,
        },
        totals,
    ))
}

/// True for the layer totals that partition a traced rep's wall time:
/// the setup parts are probes outside it and `setup.build_ms` covers them.
fn inside_rep(name: &str) -> bool {
    matches!(name, "setup.build_ms" | "finish.ms" | "summary.ms")
        || (name.starts_with("phase.") && name.ends_with(".ms"))
        || (name.starts_with("farm.") && name.ends_with("_ms"))
}

/// Build, run and summarize one campaign a layer at a time. Returns the
/// summary and the time spent in the standalone setup probes.
pub fn traced_campaign(
    cfg: &ExperimentConfig,
    observe: bool,
    spans: &mut Spans,
    parent: u64,
    group: u64,
    totals: &mut Totals,
) -> (CampaignSummary, f64) {
    let probes = Instant::now();
    let (wx, prewarm) = spans.time("setup.prewarm", parent, group, || {
        let mut wx = WeatherModel::new(cfg.climate.clone(), cfg.seed);
        wx.prewarm(cfg.start, cfg.end);
        wx
    });
    let (template, template_ms) = spans.time("setup.template", parent, group, || {
        JobTemplate::build(cfg.job.clone())
    });
    let (plans, plan_ms) = spans.time("setup.fleet_plan", parent, group, || {
        FleetBuilder::from_spec(cfg.fleet).plans(cfg.start)
    });
    drop(black_box((wx, template, plans)));
    let probes_ms = probes.elapsed().as_secs_f64() * 1000.0;

    let (scenario, build) = spans.time("setup.build", parent, group, || {
        builder(cfg.clone(), observe).with_timing().build()
    });
    let ((results, phases), run) = spans.time("run", parent, group, || scenario.run_with_timings());
    let (summary, summary_ms) = spans.time("summary", parent, group, || results.summary());
    drop(results);

    add(totals, "setup.prewarm_ms", prewarm);
    add(totals, "setup.template_ms", template_ms);
    add(totals, "setup.fleet_plan_ms", plan_ms);
    add(totals, "setup.build_ms", build);
    add(
        totals,
        "setup.other_ms",
        build - prewarm - template_ms - plan_ms,
    );
    let mut phase_sum = 0.0;
    for p in &phases {
        add(totals, &format!("phase.{}.ms", p.phase), p.total_ms);
        add(totals, &format!("phase.{}.calls", p.phase), p.calls as f64);
        phase_sum += p.total_ms;
    }
    add(totals, "finish.ms", run - phase_sum);
    add(totals, "summary.ms", summary_ms);
    add(totals, "sim.pack_runs", summary.total_runs as f64);
    add(
        totals,
        "sim.ticks",
        phases.first().map_or(0, |p| p.calls) as f64,
    );
    (summary, probes_ms)
}

/// A farm that writes the same wrong result every time passes the
/// rep-agreement check, so compare the store entries of the first and
/// last job in the finished farm `dir` against in-process campaigns.
fn spot_check_store(record: &mut Record, matrix: &MatrixSpec, dir: &Path) {
    let jobs = matrix.expand();
    let store = ResultStore::open(&dir.join(STORE_DIR));
    for job in [&jobs[0], &jobs[jobs.len() - 1]] {
        let key = job.key().expect("job specs serialize");
        let stored = store
            .as_ref()
            .ok()
            .and_then(|s| s.get(&key))
            .map(|s| serde_json::to_string(&s));
        let fresh = job
            .scenario
            .build(job.seed)
            .map(|s| serde_json::to_string(&s.run().summary()))
            .expect("the sweep's scenarios are valid");
        record.check(stored.as_ref() == Some(&fresh), || {
            format!("store entry {key} differs from an in-process run")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checked(sim: Sim, pin: u64, rep: &Rep) -> Record {
        let mut record = Record::new(sim.name(), 0, false);
        let mut checks = RepCheck {
            sim,
            expected: Some(pin),
            jobs: 2,
        };
        checks.output(&mut record, rep);
        record
    }

    #[test]
    fn a_wrong_pinned_digest_is_a_counted_failure_in_every_simulation_workload() {
        let dir = std::env::temp_dir().join(format!("frostbench-sim-{}", std::process::id()));
        let tiny = MatrixSpec {
            scenarios: vec![ScenarioSpec::new("helsinki", 1, "helsinki")],
            seed_start: 0,
            seeds: 2,
        };
        let (sweep, ran, cached) = sweep_rep(&tiny, &dir, 2).expect("tiny farm runs");
        let mut record = Record::new("sweep-week", 0, false);
        spot_check_store(&mut record, &tiny, &dir);
        RepCheck {
            sim: Sim::SweepWeek,
            expected: None,
            jobs: 2,
        }
        .farm_counts(&mut record, ran, cached);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            (record.attempted, record.failed),
            (3, 0),
            "{:?}",
            record.failures
        );

        let fleet = campaign_rep(
            Sim::FleetDay,
            &ExperimentConfig {
                fault_mode: FaultMode::Stochastic,
                fleet: FleetSpec::VendorMix { hosts: 40 },
                ..ExperimentConfig::short(1, 1)
            },
        );
        for (sim, rep) in [(Sim::SweepWeek, &sweep), (Sim::FleetDay, &fleet)] {
            let right = digest(rep.output.as_bytes());
            assert!(checked(sim, right, rep).correct());
            let wrong = checked(sim, right ^ 1, rep);
            assert_eq!((wrong.attempted, wrong.failed), (1, 1));
        }

        // A one-day scripted window predates the paper's five wrong
        // hashes, so the season's own rule fails on top of the digest.
        let season = campaign_rep(Sim::SeasonPaper, &ExperimentConfig::short(42, 1));
        let right = digest(season.output.as_bytes());
        assert_eq!(checked(Sim::SeasonPaper, right, &season).failed, 1);
        assert_eq!(checked(Sim::SeasonPaper, right ^ 1, &season).failed, 2);
    }

    #[test]
    fn reps_at_an_unpinned_seed_must_agree_with_the_first() {
        let rep = |output: &str| Rep {
            ms: 1.0,
            output: output.to_string(),
            wrong_hashes: 0,
        };
        let mut record = Record::new("fleet-10k-day", 7, false);
        let mut checks = RepCheck {
            sim: Sim::FleetDay,
            expected: None,
            jobs: 0,
        };
        for output in ["a", "a", "b"] {
            checks.output(&mut record, &rep(output));
        }
        assert_eq!((record.attempted, record.failed), (3, 1));
    }

    #[test]
    fn the_season_pin_is_the_golden_paper_summary_digest() {
        // The paper scenario's golden `summary_json` hash.
        assert_eq!(Sim::SeasonPaper.pinned_digest(), 0x530e_6fad_d626_f22f);
        // The digest is FNV-1a's offset basis on empty input.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
    }
}
