//! The benchmark's contract, read from the repository's `BENCHMARK.json`.
//!
//! The file is compiled in, so the metric names, units, directions and
//! bounds the program reports and compares against are exactly the ones
//! the file declares: there is no second list to drift.

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// The contract this binary was built against.
    pub fn load() -> BenchSpec {
        BenchSpec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let run_seconds = root
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("run_seconds missing")? as u64;
        let workloads = array(&root, "workloads")?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            array(&root, key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: string(m, "name")?,
                        unit: string(m, "unit")?,
                        better: match string(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("unknown direction {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchSpec {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("{key} is not an array")),
    }
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|s| s.as_str().ok())
        .map(str::to_string)
        .ok_or_else(|| format!("{key} is not a string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_in_contract_parses_and_bounds_every_end_to_end_metric() {
        let spec = BenchSpec::load();
        assert!(spec.workloads.len() >= 2);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
