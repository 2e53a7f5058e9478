//! The [`Tracer`] handle and its configuration.
//!
//! ## Ownership rules
//!
//! Exactly one `Tracer` exists per campaign, owned by the campaign
//! context. Phases and context methods record through `&mut` access; at
//! campaign end the context calls [`Tracer::finish`], which yields the
//! frozen [`CampaignTrace`] (or `None` for the default disabled tracer).
//! The ensemble engine builds and runs each seed's scenario on one worker
//! thread, so per-seed buffers never need locks.
//!
//! ## Zero cost when disabled
//!
//! [`Tracer::disabled`] holds no buffer; every record method starts with
//! a `None` check and returns. Call sites that would allocate to build an
//! event (e.g. `format!` a track name) guard on [`Tracer::events_enabled`]
//! first.

use frostlab_simkern::time::SimTime;

use crate::event::{FieldValue, TraceEvent};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// How much event stream a tracer keeps. Metrics are always collected
/// when the tracer is enabled; events are recorded only while
/// `max_events > 0`, so an ensemble sweep can run metrics-only buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Hard cap on buffered events; once reached, further events are
    /// counted in [`CampaignTrace::dropped_events`] instead of stored.
    /// `0` records no events at all. The cap is part of the determinism
    /// contract (same cap, same drops), never a race.
    pub max_events: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            max_events: 1 << 22,
        }
    }
}

impl TraceConfig {
    /// Metrics only: no event stream at all. The right shape for large
    /// ensemble sweeps, where per-seed event buffers would dominate
    /// memory but aggregated metric snapshots are wanted.
    pub fn metrics_only() -> TraceConfig {
        TraceConfig { max_events: 0 }
    }
}

#[derive(Debug)]
struct TraceBuffer {
    cfg: TraceConfig,
    base: SimTime,
    events: Vec<TraceEvent>,
    seq: u64,
    dropped: u64,
    metrics: MetricsRegistry,
}

impl TraceBuffer {
    fn record(
        &mut self,
        track: &str,
        name: &str,
        start: SimTime,
        end: Option<SimTime>,
        fields: &[(&str, FieldValue)],
    ) {
        if self.events.len() >= self.cfg.max_events {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            seq: self.seq,
            track: track.to_string(),
            name: name.to_string(),
            start,
            end,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
        self.seq += 1;
    }
}

/// The per-campaign trace handle. See the module docs for ownership and
/// cost rules.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Option<Box<TraceBuffer>>,
}

impl Tracer {
    /// The no-op tracer — the campaign default. Records nothing, costs a
    /// `None` check per call, and [`Tracer::finish`]es to `None`.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A live tracer. `base` anchors exported timestamps (the campaign
    /// start); every event is stamped with absolute sim-time regardless.
    pub fn enabled(cfg: TraceConfig, base: SimTime) -> Tracer {
        Tracer {
            inner: Some(Box::new(TraceBuffer {
                cfg,
                base,
                events: Vec::new(),
                seq: 0,
                dropped: 0,
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// Is this tracer recording at all?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Should callers build and emit events (spans and instants)?
    pub fn events_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|b| b.cfg.max_events > 0)
    }

    /// Record a completed sim-time span on `track`.
    pub fn span(
        &mut self,
        track: &str,
        name: &str,
        start: SimTime,
        end: SimTime,
        fields: &[(&str, FieldValue)],
    ) {
        if let Some(buf) = self.inner.as_mut() {
            buf.record(track, name, start, Some(end), fields);
        }
    }

    /// Record an instant event on `track`.
    pub fn instant(&mut self, track: &str, name: &str, at: SimTime, fields: &[(&str, FieldValue)]) {
        if let Some(buf) = self.inner.as_mut() {
            buf.record(track, name, at, None, fields);
        }
    }

    /// Add to a counter metric (no-op when disabled or `delta == 0`).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        if let Some(buf) = self.inner.as_mut() {
            buf.metrics.counter_add(name, delta);
        }
    }

    /// Add to a labeled counter series (no-op when disabled or `delta == 0`).
    pub fn counter_add_labeled(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if delta == 0 {
            return;
        }
        if let Some(buf) = self.inner.as_mut() {
            buf.metrics.counter_add_labeled(name, labels, delta);
        }
    }

    /// Set a gauge metric (no-op when disabled).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(buf) = self.inner.as_mut() {
            buf.metrics.gauge_set(name, value);
        }
    }

    /// Set a labeled gauge series (no-op when disabled).
    pub fn gauge_set_labeled(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(buf) = self.inner.as_mut() {
            buf.metrics.gauge_set_labeled(name, labels, value);
        }
    }

    /// Register a histogram metric (no-op when disabled).
    pub fn register_histogram(&mut self, name: &str, min: f64, width: f64, bins: usize) {
        if let Some(buf) = self.inner.as_mut() {
            buf.metrics.register_histogram(name, min, width, bins);
        }
    }

    /// Register a labeled histogram series (no-op when disabled).
    pub fn register_histogram_labeled(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        min: f64,
        width: f64,
        bins: usize,
    ) {
        if let Some(buf) = self.inner.as_mut() {
            buf.metrics
                .register_histogram_labeled(name, labels, min, width, bins);
        }
    }

    /// Feed a registered histogram (no-op when disabled or unregistered).
    pub fn observe(&mut self, name: &str, value: f64) {
        if let Some(buf) = self.inner.as_mut() {
            buf.metrics.observe(name, value);
        }
    }

    /// Feed a registered labeled histogram series (no-op when disabled
    /// or unregistered).
    pub fn observe_labeled(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(buf) = self.inner.as_mut() {
            buf.metrics.observe_labeled(name, labels, value);
        }
    }

    /// Events buffered so far (0 when disabled).
    pub fn events_recorded(&self) -> usize {
        self.inner.as_ref().map_or(0, |b| b.events.len())
    }

    /// The buffered event stream, in emission order (empty when
    /// disabled). The flight recorder tails this with a cursor each tick.
    pub fn events(&self) -> &[TraceEvent] {
        self.inner.as_ref().map_or(&[], |b| &b.events)
    }

    /// Freeze into the campaign's trace. `None` for the disabled tracer.
    /// If the event cap dropped anything, the loss is surfaced as a
    /// `trace.dropped_events` counter so scrapes and reports can warn.
    pub fn finish(self) -> Option<CampaignTrace> {
        self.inner.map(|mut buf| {
            if buf.dropped > 0 {
                buf.metrics.counter_add("trace.dropped_events", buf.dropped);
            }
            CampaignTrace {
                base: buf.base,
                metrics: buf.metrics.snapshot(),
                dropped_events: buf.dropped,
                events: buf.events,
            }
        })
    }
}

/// A finished campaign's frozen trace: the event stream plus the final
/// metrics snapshot, all in sim-time.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignTrace {
    /// Timestamp anchor (the campaign start) for relative exports.
    pub base: SimTime,
    /// Every recorded event, in emission (`seq`) order.
    pub events: Vec<TraceEvent>,
    /// Events discarded after [`TraceConfig::max_events`] was reached.
    pub dropped_events: u64,
    /// The metrics registry's end-of-campaign snapshot.
    pub metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_simkern::time::SimDuration;

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn disabled_tracer_records_nothing_and_finishes_to_none() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.events_enabled());
        t.span("host/0", "job-run", T0, T0 + SimDuration::secs(60), &[]);
        t.instant("watchdog", "incident-open", T0, &[]);
        t.counter_add("c", 1);
        t.gauge_set("g", 1.0);
        t.register_histogram("h", 0.0, 1.0, 4);
        t.observe("h", 0.5);
        assert_eq!(t.events_recorded(), 0);
        assert!(t.finish().is_none());
    }

    #[test]
    fn enabled_tracer_buffers_events_in_sequence() {
        let mut t = Tracer::enabled(TraceConfig::default(), T0);
        assert!(t.is_enabled() && t.events_enabled());
        t.span(
            "host/0",
            "job-run",
            T0,
            T0 + SimDuration::secs(60),
            &[("tick", FieldValue::U64(0))],
        );
        t.instant("watchdog", "incident-open", T0, &[]);
        let trace = t.finish().expect("enabled");
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].seq, 0);
        assert_eq!(trace.events[1].seq, 1);
        assert_eq!(trace.events[1].end, None);
        assert_eq!(trace.dropped_events, 0);
        assert_eq!(trace.base, T0);
    }

    #[test]
    fn metrics_only_config_gates_all_events() {
        let cfg = TraceConfig::metrics_only();
        let mut t = Tracer::enabled(cfg, T0);
        assert!(t.is_enabled());
        assert!(!t.events_enabled());
        // max_events = 0: even direct records are counted as dropped.
        t.instant("x", "y", T0, &[]);
        t.counter_add("c", 2);
        let trace = t.finish().expect("enabled");
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped_events, 1);
        assert_eq!(trace.metrics.counter("c"), Some(2));
    }

    #[test]
    fn event_cap_drops_deterministically() {
        let cfg = TraceConfig { max_events: 2 };
        let mut t = Tracer::enabled(cfg, T0);
        for i in 0..5 {
            t.instant("x", "y", T0 + SimDuration::secs(i), &[]);
        }
        let trace = t.finish().expect("enabled");
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped_events, 3);
    }

    #[test]
    fn dropped_events_surface_as_a_counter_metric() {
        let cfg = TraceConfig { max_events: 1 };
        let mut t = Tracer::enabled(cfg, T0);
        for i in 0..4 {
            t.instant("x", "y", T0 + SimDuration::secs(i), &[]);
        }
        let trace = t.finish().expect("enabled");
        assert_eq!(trace.dropped_events, 3);
        assert_eq!(trace.metrics.counter("trace.dropped_events"), Some(3));

        // And a trace that dropped nothing does not grow the counter.
        let mut clean = Tracer::enabled(TraceConfig::default(), T0);
        clean.instant("x", "y", T0, &[]);
        let trace = clean.finish().expect("enabled");
        assert_eq!(trace.metrics.counter("trace.dropped_events"), None);
    }

    #[test]
    fn labeled_metrics_pass_through_and_events_are_tailable() {
        let mut t = Tracer::enabled(TraceConfig::default(), T0);
        t.counter_add_labeled("resets", &[("zone", "z1")], 2);
        t.gauge_set_labeled("temp", &[("zone", "z1")], -3.5);
        t.register_histogram_labeled("dist", &[("zone", "z1")], 0.0, 1.0, 4);
        t.observe_labeled("dist", &[("zone", "z1")], 1.5);
        assert!(t.events().is_empty());
        t.instant("watchdog", "incident-open", T0, &[]);
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].name, "incident-open");
        let trace = t.finish().expect("enabled");
        assert_eq!(trace.metrics.counters.len(), 1);
        assert_eq!(
            trace.metrics.counters[0].labels,
            vec![("zone".to_string(), "z1".to_string())]
        );
        assert_eq!(
            trace.metrics.gauge_labeled("temp", &[("zone", "z1")]),
            Some(-3.5)
        );
        assert_eq!(trace.metrics.histograms.len(), 1);
        assert_eq!(trace.metrics.histograms[0].count, 1);
    }

    #[test]
    fn disabled_tracer_labeled_calls_are_inert() {
        let mut t = Tracer::disabled();
        t.counter_add_labeled("c", &[("k", "v")], 1);
        t.gauge_set_labeled("g", &[("k", "v")], 1.0);
        t.register_histogram_labeled("h", &[("k", "v")], 0.0, 1.0, 4);
        t.observe_labeled("h", &[("k", "v")], 0.5);
        assert!(t.events().is_empty());
        assert!(t.finish().is_none());
    }
}
