//! Streaming aggregation of per-campaign metric snapshots.
//!
//! The traced-sweep analog of [`crate::aggregate`]: each campaign's
//! [`MetricsSnapshot`] is absorbed in seed order — counters sum, gauges
//! fold into Welford moments and min/max, histograms merge bin-wise — so
//! an N-campaign sweep keeps O(metrics) state, not O(N) snapshots.
//! Series are keyed by the full [`MetricKey`] (name **and** labels), so
//! an observed sweep's dimensional rollup families (`fleet.cpu_temp_c`
//! per zone/vendor/placement) fold series-wise rather than collapsing
//! into one blurred family. The frozen [`EnsembleMetrics`] is
//! serializable and contains no execution metadata, so its JSON is
//! directly diffable across thread counts.

use std::collections::BTreeMap;

use frostlab_analysis::stats::{Histogram, MinMax, Welford};
use frostlab_trace::{CounterSample, HistogramSample, MetricKey, MetricsSnapshot};

/// Schema tag embedded in every serialized ensemble metrics report.
pub const METRICS_SCHEMA: &str = "frostlab-ensemble-metrics/v1";

#[derive(Debug, Clone)]
struct HistAcc {
    hist: Histogram,
    sum: f64,
    count: u64,
}

/// O(metrics)-memory accumulator over campaign metric snapshots.
#[derive(Debug, Clone, Default)]
pub struct MetricsAggregate {
    n: u64,
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, (Welford, MinMax)>,
    histograms: BTreeMap<MetricKey, HistAcc>,
}

impl MetricsAggregate {
    /// Empty aggregate.
    pub fn new() -> MetricsAggregate {
        MetricsAggregate::default()
    }

    /// Snapshots absorbed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Fold one campaign's final metrics into the running state.
    ///
    /// Histograms merge bin-wise, which requires every campaign to
    /// register the same geometry for a given name — true by construction
    /// when the sweep builds each scenario the same way. A campaign that
    /// never touched a metric simply contributes nothing to it.
    pub fn absorb(&mut self, snapshot: &MetricsSnapshot) {
        self.n += 1;
        let key = |name: &str, labels: &[(String, String)]| MetricKey {
            name: name.to_string(),
            labels: labels.to_vec(),
        };
        for c in &snapshot.counters {
            *self.counters.entry(key(&c.name, &c.labels)).or_insert(0) += c.value;
        }
        for g in &snapshot.gauges {
            let (w, mm) = self.gauges.entry(key(&g.name, &g.labels)).or_default();
            w.push(g.value);
            mm.push(g.value);
        }
        for h in &snapshot.histograms {
            match self.histograms.get_mut(&key(&h.name, &h.labels)) {
                Some(acc) => {
                    acc.hist.merge(&h.to_histogram());
                    acc.sum += h.sum;
                    acc.count += h.count;
                }
                None => {
                    self.histograms.insert(
                        key(&h.name, &h.labels),
                        HistAcc {
                            hist: h.to_histogram(),
                            sum: h.sum,
                            count: h.count,
                        },
                    );
                }
            }
        }
    }

    /// Freeze into the serializable, name-ordered report.
    pub fn finish(&self, seed_start: u64) -> EnsembleMetrics {
        let f = |x: Option<f64>| x.unwrap_or(0.0);
        EnsembleMetrics {
            schema: METRICS_SCHEMA.to_string(),
            campaigns: self.n,
            seed_start,
            counters: self
                .counters
                .iter()
                .map(|(key, &value)| CounterSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(key, (w, mm))| GaugeAggregate {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    mean: f(w.mean()),
                    min: f(mm.min()),
                    max: f(mm.max()),
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(key, acc)| HistogramSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    min: acc.hist.min,
                    width: acc.hist.width,
                    counts: acc.hist.counts.clone(),
                    underflow: acc.hist.underflow,
                    overflow: acc.hist.overflow,
                    sum: acc.sum,
                    count: acc.count,
                })
                .collect(),
        }
    }
}

/// `skip_serializing_if` helper: flat series keep their pre-label JSON.
fn no_labels(labels: &[(String, String)]) -> bool {
    labels.is_empty()
}

/// One gauge folded across an ensemble: mean of the campaigns' final
/// values, plus the range.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GaugeAggregate {
    /// Metric name.
    pub name: String,
    /// Ordered label pairs (empty and unserialized for flat metrics, so
    /// pre-label reports keep their exact JSON bytes).
    #[serde(default, skip_serializing_if = "no_labels")]
    pub labels: Vec<(String, String)>,
    /// Mean of per-campaign final values.
    pub mean: f64,
    /// Smallest per-campaign final value.
    pub min: f64,
    /// Largest per-campaign final value.
    pub max: f64,
}

/// Frozen, serializable metrics view of a whole traced sweep. Contains no
/// execution metadata, so its JSON must be byte-identical across thread
/// counts — the `thread-invariance (traced)` CI job diffs it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnsembleMetrics {
    /// Schema tag ([`METRICS_SCHEMA`]).
    pub schema: String,
    /// Campaigns aggregated.
    pub campaigns: u64,
    /// First seed of the contiguous seed range.
    pub seed_start: u64,
    /// Counters summed over all campaigns, by name.
    pub counters: Vec<CounterSample>,
    /// Gauges folded over all campaigns, by name.
    pub gauges: Vec<GaugeAggregate>,
    /// Histograms merged over all campaigns, by name.
    pub histograms: Vec<HistogramSample>,
}

impl EnsembleMetrics {
    /// Pretty JSON of the report.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_trace::MetricsRegistry;

    fn snapshot(seed: u64) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("collector.attempts_total", 10 + seed);
        reg.gauge_set("tent.temp_c", -5.0 - seed as f64);
        reg.register_histogram("tent.temp_c_dist", -40.0, 1.0, 80);
        reg.observe("tent.temp_c_dist", -5.0 - seed as f64);
        reg.snapshot()
    }

    #[test]
    fn counters_sum_gauges_fold_histograms_merge() {
        let mut agg = MetricsAggregate::new();
        for s in 0..4 {
            agg.absorb(&snapshot(s));
        }
        let frozen = agg.finish(0);
        assert_eq!(frozen.campaigns, 4);
        assert_eq!(frozen.counters[0].name, "collector.attempts_total");
        assert_eq!(frozen.counters[0].value, 10 + 11 + 12 + 13);
        let g = &frozen.gauges[0];
        assert_eq!(g.name, "tent.temp_c");
        assert!((g.mean + 6.5).abs() < 1e-12);
        assert_eq!(g.min, -8.0);
        assert_eq!(g.max, -5.0);
        assert_eq!(frozen.histograms[0].count, 4);
        assert_eq!(frozen.histograms[0].counts.iter().sum::<u64>(), 4);
    }

    #[test]
    fn report_json_roundtrips_and_is_order_independent_of_nothing() {
        let mut agg = MetricsAggregate::new();
        agg.absorb(&snapshot(7));
        let frozen = agg.finish(7);
        let json = frozen.to_json().expect("plain data");
        let back: EnsembleMetrics = serde_json::from_str(&json).expect("valid");
        assert_eq!(back, frozen);
        assert_eq!(back.schema, METRICS_SCHEMA);
    }

    #[test]
    fn labeled_series_fold_per_series_not_per_family() {
        let mut agg = MetricsAggregate::new();
        for s in 0..3u64 {
            let mut reg = MetricsRegistry::new();
            reg.counter_add_labeled("fleet.resets", &[("zone", "0")], 1);
            reg.counter_add_labeled("fleet.resets", &[("zone", "1")], 10);
            reg.gauge_set_labeled("fleet.cpu_temp_c", &[("zone", "0")], -5.0 - s as f64);
            reg.gauge_set_labeled("fleet.cpu_temp_c", &[("zone", "1")], 30.0);
            agg.absorb(&reg.snapshot());
        }
        let frozen = agg.finish(0);
        // Two distinct counter series, each summed across campaigns.
        assert_eq!(frozen.counters.len(), 2);
        assert_eq!(frozen.counters[0].labels, vec![("zone".into(), "0".into())]);
        assert_eq!(frozen.counters[0].value, 3);
        assert_eq!(frozen.counters[1].value, 30);
        // Per-series gauge folds: zone 0 spans its own range, zone 1 is flat.
        assert_eq!(frozen.gauges[0].min, -7.0);
        assert_eq!(frozen.gauges[0].max, -5.0);
        assert_eq!(frozen.gauges[1].min, 30.0);
        assert_eq!(frozen.gauges[1].max, 30.0);
        let json = frozen.to_json().expect("plain data");
        let back: EnsembleMetrics = serde_json::from_str(&json).expect("valid");
        assert_eq!(back, frozen);
    }

    #[test]
    fn flat_report_json_has_no_labels_key() {
        let mut agg = MetricsAggregate::new();
        agg.absorb(&snapshot(0));
        let json = agg.finish(0).to_json().expect("plain data");
        assert!(
            !json.contains("labels"),
            "flat reports keep their pre-label JSON shape"
        );
    }

    #[test]
    fn empty_aggregate_freezes_to_an_empty_report() {
        let frozen = MetricsAggregate::new().finish(0);
        assert_eq!(frozen.campaigns, 0);
        assert!(frozen.counters.is_empty());
        assert!(frozen.to_json().is_ok());
    }
}
