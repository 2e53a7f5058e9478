//! The metrics registry: counters, gauges, fixed-bin histograms — flat
//! or labeled.
//!
//! Metric names are dotted lowercase paths (`collector.gaps_open`,
//! `tent.temp_c`); the Prometheus exporter sanitizes them. A metric may
//! additionally carry a small, ordered label set (`fleet.cpu_temp_c`
//! with `placement="tent", zone="3"`), forming one *family* of series
//! per name — the dimensional rollup surface `frostlab-obs` writes
//! through. Everything is stored in `BTreeMap`s keyed by
//! `(name, labels)` so a [`MetricsSnapshot`] always lists series in
//! (name, label) order — part of the byte-identical export contract.

use std::collections::BTreeMap;

use frostlab_analysis::stats::Histogram;

/// A metric series key: the family name plus its ordered label pairs.
///
/// Labels are kept exactly as written (no sorting): callers pass them in
/// a fixed order, which then *is* the canonical order for that series.
/// The derived `Ord` sorts first by name, then by label pairs, so every
/// series of one family is contiguous in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Family name (dotted path).
    pub name: String,
    /// Ordered `(key, value)` label pairs; empty for flat metrics.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// A flat (unlabeled) key.
    fn flat(name: &str) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: Vec::new(),
        }
    }

    /// A labeled key.
    fn labeled(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// Live metric state while a campaign runs.
///
/// Counters are monotonic `u64`s, gauges are last-write-wins `f64`s, and
/// histograms must be registered (geometry up front) before
/// [`MetricsRegistry::observe`] feeds them — an observation against an
/// unregistered name is silently dropped, so optional instrumentation
/// can't poison a run with an implicit geometry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, HistState>,
}

#[derive(Debug, Clone)]
struct HistState {
    hist: Histogram,
    sum: f64,
    count: u64,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a (monotonic) counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(MetricKey::flat(name)).or_insert(0) += delta;
    }

    /// Add `delta` to a labeled counter series.
    pub fn counter_add_labeled(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self
            .counters
            .entry(MetricKey::labeled(name, labels))
            .or_insert(0) += delta;
    }

    /// Set a gauge to its latest value, creating it on first write.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(MetricKey::flat(name), value);
    }

    /// Set a labeled gauge series to its latest value.
    pub fn gauge_set_labeled(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(MetricKey::labeled(name, labels), value);
    }

    /// Register a fixed-bin histogram over `[min, min + width·bins)`.
    /// Re-registering an existing name keeps the original state.
    ///
    /// # Panics
    /// Panics if `width <= 0` or `bins == 0` (bad geometry is a
    /// scenario-definition bug).
    pub fn register_histogram(&mut self, name: &str, min: f64, width: f64, bins: usize) {
        self.register_histogram_keyed(MetricKey::flat(name), min, width, bins);
    }

    /// Register a labeled histogram series (same rules as
    /// [`MetricsRegistry::register_histogram`]).
    pub fn register_histogram_labeled(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        min: f64,
        width: f64,
        bins: usize,
    ) {
        self.register_histogram_keyed(MetricKey::labeled(name, labels), min, width, bins);
    }

    fn register_histogram_keyed(&mut self, key: MetricKey, min: f64, width: f64, bins: usize) {
        self.histograms.entry(key).or_insert_with(|| HistState {
            hist: Histogram::new(min, width, bins),
            sum: 0.0,
            count: 0,
        });
    }

    /// Feed one sample into a registered histogram. Unregistered names
    /// and NaN samples are ignored.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.observe_keyed(&MetricKey::flat(name), value);
    }

    /// Feed one sample into a registered labeled histogram series.
    pub fn observe_labeled(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.observe_keyed(&MetricKey::labeled(name, labels), value);
    }

    fn observe_keyed(&mut self, key: &MetricKey, value: f64) {
        if value.is_nan() {
            return;
        }
        if let Some(state) = self.histograms.get_mut(key) {
            state.hist.push(value);
            state.sum += value;
            state.count += 1;
        }
    }

    /// Current value of a (flat) counter (`None` until first increment).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(&MetricKey::flat(name)).copied()
    }

    /// Current value of a (flat) gauge (`None` until first write).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(&MetricKey::flat(name)).copied()
    }

    /// Freeze the registry into a serializable, key-ordered snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
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
                .map(|(key, &value)| GaugeSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(key, state)| HistogramSample {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    min: state.hist.min,
                    width: state.hist.width,
                    counts: state.hist.counts.clone(),
                    underflow: state.hist.underflow,
                    overflow: state.hist.overflow,
                    sum: state.sum,
                    count: state.count,
                })
                .collect(),
        }
    }
}

/// `skip_serializing_if` helper: flat series keep their pre-label JSON.
fn no_labels(labels: &[(String, String)]) -> bool {
    labels.is_empty()
}

/// One counter series' frozen value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CounterSample {
    /// Metric family name.
    pub name: String,
    /// Ordered label pairs (empty and unserialized for flat metrics, so
    /// pre-label snapshots keep their exact JSON bytes).
    #[serde(default, skip_serializing_if = "no_labels")]
    pub labels: Vec<(String, String)>,
    /// Monotonic count.
    pub value: u64,
}

/// One gauge series' frozen value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GaugeSample {
    /// Metric family name.
    pub name: String,
    /// Ordered label pairs (empty for flat metrics).
    #[serde(default, skip_serializing_if = "no_labels")]
    pub labels: Vec<(String, String)>,
    /// Last value written.
    pub value: f64,
}

/// One histogram series' frozen state (geometry + counts + sum).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSample {
    /// Metric family name.
    pub name: String,
    /// Ordered label pairs (empty for flat metrics).
    #[serde(default, skip_serializing_if = "no_labels")]
    pub labels: Vec<(String, String)>,
    /// Left edge of the first bin.
    pub min: f64,
    /// Bin width.
    pub width: f64,
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Samples below `min`.
    pub underflow: u64,
    /// Samples at or above the last edge.
    pub overflow: u64,
    /// Sum of all observed samples.
    pub sum: f64,
    /// Number of observed samples.
    pub count: u64,
}

impl HistogramSample {
    /// Rehydrate the [`Histogram`] for merging or percentile queries.
    pub fn to_histogram(&self) -> Histogram {
        Histogram {
            min: self.min,
            width: self.width,
            counts: self.counts.clone(),
            underflow: self.underflow,
            overflow: self.overflow,
        }
    }
}

/// Key-ordered, serializable snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// All counter series, by (name, labels).
    pub counters: Vec<CounterSample>,
    /// All gauge series, by (name, labels).
    pub gauges: Vec<GaugeSample>,
    /// All histogram series, by (name, labels).
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Look up a flat counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels.is_empty())
            .map(|c| c.value)
    }

    /// Look up a flat gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.labels.is_empty())
            .map(|g| g.value)
    }

    /// Look up a labeled gauge series.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| {
                g.name == name
                    && g.labels.len() == labels.len()
                    && g.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .map(|g| g.value)
    }

    /// Pretty JSON of the snapshot.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("collector.attempts_total", 3);
        reg.counter_add("collector.attempts_total", 2);
        reg.gauge_set("tent.temp_c", -12.0);
        reg.gauge_set("tent.temp_c", -9.5);
        assert_eq!(reg.counter("collector.attempts_total"), Some(5));
        assert_eq!(reg.gauge("tent.temp_c"), Some(-9.5));
        assert_eq!(reg.counter("nope"), None);
        assert_eq!(reg.gauge("nope"), None);
    }

    #[test]
    fn labeled_series_are_distinct_from_flat_and_from_each_other() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("runs", 1);
        reg.counter_add_labeled("runs", &[("zone", "0")], 2);
        reg.counter_add_labeled("runs", &[("zone", "1")], 3);
        reg.counter_add_labeled("runs", &[("zone", "0")], 4);
        assert_eq!(reg.counter("runs"), Some(1));
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 3);
        // Flat sorts before labeled; label values order the rest.
        assert!(snap.counters[0].labels.is_empty());
        assert_eq!(snap.counters[1].labels, vec![("zone".into(), "0".into())]);
        assert_eq!(snap.counters[1].value, 6);
        assert_eq!(snap.counters[2].value, 3);
    }

    #[test]
    fn labeled_gauges_and_histograms_round_trip() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set_labeled(
            "fleet.cpu_temp_c",
            &[("placement", "tent"), ("zone", "2")],
            -3.5,
        );
        reg.register_histogram_labeled("fleet.temp_dist", &[("vendor", "A")], -40.0, 1.0, 80);
        reg.observe_labeled("fleet.temp_dist", &[("vendor", "A")], -5.0);
        reg.observe_labeled("fleet.temp_dist", &[("vendor", "B")], -5.0); // unregistered series
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauge_labeled("fleet.cpu_temp_c", &[("placement", "tent"), ("zone", "2")]),
            Some(-3.5)
        );
        assert_eq!(snap.gauge("fleet.cpu_temp_c"), None, "flat lookup misses");
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 1);
        let json = snap.to_json().expect("plain data");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("valid");
        assert_eq!(back, snap);
    }

    #[test]
    fn flat_sample_json_has_no_labels_key() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("alpha", 1);
        let json = reg.snapshot().to_json().expect("plain data");
        assert!(
            !json.contains("labels"),
            "flat snapshots keep their pre-label JSON shape"
        );
    }

    #[test]
    fn histograms_require_registration() {
        let mut reg = MetricsRegistry::new();
        reg.observe("tent.temp_c_dist", -5.0); // dropped: not registered
        reg.register_histogram("tent.temp_c_dist", -40.0, 1.0, 80);
        reg.observe("tent.temp_c_dist", -5.0);
        reg.observe("tent.temp_c_dist", -5.5);
        reg.observe("tent.temp_c_dist", f64::NAN); // ignored
        let snap = reg.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 2);
        assert!((h.sum + 10.5).abs() < 1e-12);
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
        assert_eq!(h.to_histogram().total(), 2);
    }

    #[test]
    fn reregistering_keeps_state() {
        let mut reg = MetricsRegistry::new();
        reg.register_histogram("d", 0.0, 1.0, 4);
        reg.observe("d", 2.5);
        reg.register_histogram("d", 0.0, 10.0, 2); // ignored
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].width, 1.0);
        assert_eq!(snap.histograms[0].count, 1);
    }

    #[test]
    fn snapshot_is_name_ordered_and_roundtrips() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("zeta", 1);
        reg.counter_add("alpha", 2);
        reg.gauge_set("mid", 0.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(snap.counter("alpha"), Some(2));
        assert_eq!(snap.gauge("mid"), Some(0.5));
        let json = snap.to_json().expect("plain data");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("valid");
        assert_eq!(back, snap);
    }
}
