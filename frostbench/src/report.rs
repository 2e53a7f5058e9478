//! What one run measured, and the files it is written to.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::Value;

use crate::spec::BenchSpec;

/// Every file the benchmark writes lives under this directory, relative
/// to the directory it is run from (the repository root).
pub const OUT_DIR: &str = "target/frostbench";

pub fn out_path(name: &str) -> PathBuf {
    Path::new(OUT_DIR).join(name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    /// Samples the value was folded from (reps, requests or calls).
    pub samples: u64,
}

/// The outcome of running one workload once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Checked operations: reps, requests and output comparisons.
    pub attempted: u64,
    /// Operations that failed or whose output did not match.
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// One line per failed check, saying what differed.
    pub failures: Vec<String>,
}

impl Record {
    pub fn new(workload: &str, seed: u64, traced: bool) -> Record {
        Record {
            workload: workload.to_string(),
            seed,
            traced,
            ..Record::default()
        }
    }

    pub fn set(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                samples,
            },
        );
    }

    /// Count one checked operation; a failed one is also described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = what();
            eprintln!("frostbench: {}: check failed: {line}", self.workload);
            self.failures.push(line);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result: the end-to-end metrics of an untraced run, or
    /// the per-layer metrics of a traced one, named and unitted as
    /// `BENCHMARK.json` declares them. A layer the workload never enters
    /// reads 0.
    pub fn result_line(&self, spec: &BenchSpec) -> String {
        let listed = if self.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let metrics = listed
            .iter()
            .map(|m| {
                let value = match self.metrics.get(&m.name) {
                    Some(got) => {
                        debug_assert_eq!(got.unit, m.unit, "unit of {}", m.name);
                        got.value
                    }
                    None if self.traced => 0.0,
                    None => panic!("{} measured no {}", self.workload, m.name),
                };
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", num(value)),
                        ("unit", Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        let line = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("plain data serializes")
    }

    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    obj(vec![
                        ("value", num(m.value)),
                        ("unit", Value::Str(m.unit.clone())),
                        ("samples", Value::UInt(m.samples)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::UInt(self.seed)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Object(metrics)),
            (
                "failures",
                Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Record, String> {
        let uint = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| format!("record field {key} missing"))
        };
        let mut record = Record::new(
            v.get("workload")
                .and_then(|s| s.as_str().ok())
                .ok_or("record has no workload")?,
            uint(v, "seed")?,
            v.get("traced") == Some(&Value::Bool(true)),
        );
        record.attempted = uint(v, "attempted")?;
        record.failed = uint(v, "failed")?;
        if let Some(Value::Object(fields)) = v.get("metrics") {
            for (name, m) in fields {
                let unit = m.get("unit").and_then(|u| u.as_str().ok()).unwrap_or("");
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                record.set(name, value, unit, uint(m, "samples").unwrap_or(1));
            }
        }
        if let Some(Value::Array(lines)) = v.get("failures") {
            record.failures = lines
                .iter()
                .filter_map(|l| l.as_str().ok().map(str::to_string))
                .collect();
        }
        Ok(record)
    }
}

/// Repeated runs of several workloads: what `run` writes and `compare`
/// reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFile {
    pub workloads: Vec<WorkloadRuns>,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    pub name: String,
    pub runs: Vec<Record>,
}

impl WorkloadRuns {
    /// The metric's value in every run that measured it.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.metrics.get(metric).map(|m| m.value))
            .collect()
    }

    pub fn error_rate(&self) -> f64 {
        let attempted: u64 = self.runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = self.runs.iter().map(|r| r.failed).sum();
        failed as f64 / attempted.max(1) as f64
    }
}

impl RunFile {
    pub fn push(&mut self, record: Record) {
        match self
            .workloads
            .iter_mut()
            .find(|w| w.name == record.workload)
        {
            Some(w) => w.runs.push(record),
            None => self.workloads.push(WorkloadRuns {
                name: record.workload.clone(),
                runs: vec![record],
            }),
        }
    }

    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                obj(vec![
                    ("name", Value::Str(w.name.clone())),
                    (
                        "runs",
                        Value::Array(w.runs.iter().map(Record::to_value).collect()),
                    ),
                ])
            })
            .collect();
        let v = obj(vec![
            ("schema", Value::Str("frostbench-run/v1".into())),
            ("machine", machine()),
            ("workloads", Value::Array(workloads)),
        ]);
        serde_json::to_string_pretty(&v).expect("plain data serializes")
    }

    pub fn from_json(text: &str) -> Result<RunFile, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let mut file = RunFile::default();
        let Some(Value::Array(workloads)) = v.get("workloads") else {
            return Err("run file has no workloads".into());
        };
        for w in workloads {
            if let Some(Value::Array(runs)) = w.get("runs") {
                for run in runs {
                    file.push(Record::from_value(run)?);
                }
            }
        }
        Ok(file)
    }
}

/// What the numbers were measured on.
fn machine() -> Value {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_default();
    obj(vec![
        ("cpus", Value::UInt(cpus as u64)),
        ("cpu_model", Value::Str(model)),
    ])
}

/// The unit a metric's name implies by its suffix: the per-layer names
/// all end in their unit.
pub fn unit_for(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.ends_with(".ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_rps") {
        "1/s"
    } else if name.ends_with("frac") || name.ends_with("ratio") {
        "ratio"
    } else {
        "count"
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A finite number; a non-finite one (no samples) is written as 0 so the
/// output stays valid JSON.
pub fn num(x: f64) -> Value {
    Value::Float(if x.is_finite() { x } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        let mut r = Record::new("season-paper", 3, false);
        r.set("setup_s", 0.0412345, "s", 7);
        r.check(true, String::new);
        r.check(false, || "digest differs".into());
        r
    }

    #[test]
    fn records_round_trip_through_a_run_file() {
        let mut file = RunFile::default();
        file.push(record());
        file.push(record());
        let back = RunFile::from_json(&file.to_json()).expect("parses");
        assert_eq!(back, file);
        assert_eq!(back.workloads[0].values("setup_s"), vec![0.0412345; 2]);
        assert_eq!(back.workloads[0].error_rate(), 0.5);
    }

    #[test]
    fn the_result_line_lists_exactly_the_declared_metrics() {
        let spec = BenchSpec::load();
        let mut r = record();
        for m in &spec.end_to_end {
            r.set(&m.name, 1.5, &m.unit, 1);
        }
        let line: Value = serde_json::from_str(&r.result_line(&spec)).expect("json");
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Value::as_f64), Some(2.0));
        let Some(Value::Object(metrics)) = line.get("metrics") else {
            panic!("metrics is an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared);
        // A traced record reports every per-layer metric, 0 where unmeasured.
        r.traced = true;
        let line: Value = serde_json::from_str(&r.result_line(&spec)).expect("json");
        let Some(Value::Object(metrics)) = line.get("metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), spec.per_layer.len());
    }
}
