//! Sliding-window SLO evaluation with multi-window burn-rate alerting.
//!
//! Every SLO is declared as an [`SloSpec`]: what to watch (an
//! [`SloSource`] channel of the per-tick [`SloFeed`]), how to judge it
//! (an [`SloKind`]), and two windows with burn thresholds. Each tick the
//! engine folds the feed into both ring-buffered windows and applies the
//! classic multi-window rule — **fire** when the fast *and* the slow
//! window both exceed their thresholds (fast catches, slow confirms),
//! **resolve** when the fast window is clean again.
//!
//! Determinism: the rings hold plain numbers updated in spec order by
//! one thread per campaign; every fire/resolve is stamped with sim-time
//! only. Window sums are sums of small integers (counts and 0/1
//! indicators) stored as `f64`, so eviction arithmetic is exact and the
//! alert timeline is byte-identical across runs and thread counts.

use frostlab_simkern::time::{SimDuration, SimTime};

/// Which channel of the per-tick [`SloFeed`] a spec consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloSource {
    /// Wrong-hash results per job run (`bad_hash_delta` / `runs_delta`).
    CorruptionRate,
    /// Open collection gaps (`open_gaps`).
    OpenGaps,
    /// Minimum tent dew-point margin (`dew_margin_min_c`).
    DewPointMargin,
    /// Host watchdog resets (`resets_delta`).
    HostResets,
}

/// How a spec judges its channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloKind {
    /// Bad/total ratio against an error budget; window burn is
    /// `(bad/total) / budget`.
    RatioBudget {
        /// Allowed bad/total ratio (the SLO's error budget).
        budget: f64,
    },
    /// Value must stay at or below `limit`; window metric is the
    /// fraction of ticks in violation.
    ValueAbove {
        /// Violation threshold (value strictly above it violates).
        limit: f64,
    },
    /// Value must stay at or above `limit`; window metric is the
    /// fraction of ticks in violation.
    ValueBelow {
        /// Violation threshold (value strictly below it violates).
        limit: f64,
    },
    /// Event rate must stay at or below `max_per_hour`; window burn is
    /// `rate / max_per_hour`.
    RateAbove {
        /// Allowed events per hour.
        max_per_hour: f64,
    },
}

/// A declarative SLO: source, judgement, and the two burn windows.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Stable name — becomes the watchdog subject `slo/<name>`.
    pub name: String,
    /// Feed channel.
    pub source: SloSource,
    /// Judgement rule.
    pub kind: SloKind,
    /// Fast (detection) window.
    pub fast_window: SimDuration,
    /// Slow (confirmation) window.
    pub slow_window: SimDuration,
    /// Fast-window burn/fraction threshold.
    pub fast_threshold: f64,
    /// Slow-window burn/fraction threshold.
    pub slow_threshold: f64,
}

impl SloSpec {
    /// The paper's monitoring posture, in evaluation order:
    ///
    /// * `corruption-rate` — wrong-hash ratio against the paper's
    ///   measured budget of 5 bad hashes in 27,627 runs. The fast/slow
    ///   thresholds are tuned so a single bad hash at 19-host scale
    ///   burns both windows — every corruption event pages, exactly as
    ///   a 1.8×10⁻⁴ budget demands.
    /// * `collection-staleness` — fraction of ticks with any collection
    ///   gap open.
    /// * `dew-point-margin` — tent air must stay ≥ 1 °C above the dew
    ///   point (the paper's condensation guard).
    /// * `host-reset-rate` — watchdog resets per hour across the fleet.
    pub fn paper_defaults() -> Vec<SloSpec> {
        vec![
            SloSpec {
                name: "corruption-rate".to_string(),
                source: SloSource::CorruptionRate,
                kind: SloKind::RatioBudget {
                    budget: 5.0 / 27627.0,
                },
                fast_window: SimDuration::hours(6),
                slow_window: SimDuration::hours(24),
                fast_threshold: 4.0,
                slow_threshold: 1.5,
            },
            SloSpec {
                name: "collection-staleness".to_string(),
                source: SloSource::OpenGaps,
                kind: SloKind::ValueAbove { limit: 0.5 },
                fast_window: SimDuration::hours(6),
                slow_window: SimDuration::hours(24),
                fast_threshold: 0.5,
                slow_threshold: 0.25,
            },
            SloSpec {
                name: "dew-point-margin".to_string(),
                source: SloSource::DewPointMargin,
                kind: SloKind::ValueBelow { limit: 1.0 },
                fast_window: SimDuration::hours(3),
                slow_window: SimDuration::hours(12),
                fast_threshold: 0.5,
                slow_threshold: 0.25,
            },
            SloSpec {
                name: "host-reset-rate".to_string(),
                source: SloSource::HostResets,
                kind: SloKind::RateAbove { max_per_hour: 2.0 },
                fast_window: SimDuration::hours(6),
                slow_window: SimDuration::hours(24),
                fast_threshold: 1.0,
                slow_threshold: 0.5,
            },
        ]
    }
}

/// One tick's worth of raw observations, produced by the observe phase
/// in its O(hosts) fleet scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloFeed {
    /// Job runs completed this tick.
    pub runs_delta: u64,
    /// Wrong-hash results this tick.
    pub bad_hash_delta: u64,
    /// Collection gaps currently open.
    pub open_gaps: f64,
    /// Minimum (tent temperature − dew point) across tent zones, °C.
    /// `f64::INFINITY` when no tent sensor reported.
    pub dew_margin_min_c: f64,
    /// Host watchdog resets this tick.
    pub resets_delta: u64,
}

/// A fire or resolve, stamped with sim-time.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// The spec's name.
    pub slo: String,
    /// `true` = fire, `false` = resolve.
    pub fired: bool,
    /// When it happened (sim-time).
    pub at: SimTime,
    /// Fast-window burn/fraction at the transition.
    pub fast: f64,
    /// Slow-window burn/fraction at the transition.
    pub slow: f64,
}

impl AlertEvent {
    /// Project into the serializable timeline record.
    pub fn record(&self) -> AlertRecord {
        AlertRecord {
            slo: self.slo.clone(),
            action: if self.fired { "fire" } else { "resolve" }.to_string(),
            at: self.at.to_string(),
            at_s: self.at.as_secs(),
            fast_burn: self.fast,
            slow_burn: self.slow,
        }
    }
}

/// Serializable alert-timeline record.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AlertRecord {
    /// SLO name.
    pub slo: String,
    /// `"fire"` or `"resolve"`.
    pub action: String,
    /// Civil sim-time of the transition.
    pub at: String,
    /// Sim-seconds since the epoch.
    pub at_s: i64,
    /// Fast-window burn at the transition.
    pub fast_burn: f64,
    /// Slow-window burn at the transition.
    pub slow_burn: f64,
}

/// End-of-campaign attainment for one SLO.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SloAttainment {
    /// SLO name.
    pub slo: String,
    /// Bad units over the whole campaign (bad hashes, violating ticks,
    /// reset events — per the spec's kind).
    pub bad: u64,
    /// Total units over the whole campaign (runs, ticks).
    pub total: u64,
    /// Campaign-wide ratio (bad/total, or events/hour for rate SLOs).
    pub ratio: f64,
    /// The target the ratio is judged against (budget, fraction
    /// threshold, or max events/hour).
    pub target: f64,
    /// Did the campaign stay within target?
    pub attained: bool,
    /// Alert fires over the campaign.
    pub fires: u64,
}

/// Fixed-capacity window over (a, b) tick samples with running sums.
#[derive(Debug, Clone)]
struct WindowRing {
    cap: usize,
    buf: Vec<(f64, f64)>,
    next: usize,
    sum_a: f64,
    sum_b: f64,
}

impl WindowRing {
    fn new(cap: usize) -> WindowRing {
        WindowRing {
            cap: cap.max(1),
            buf: Vec::new(),
            next: 0,
            sum_a: 0.0,
            sum_b: 0.0,
        }
    }

    fn push(&mut self, a: f64, b: f64) {
        if self.buf.len() < self.cap {
            self.buf.push((a, b));
        } else {
            let (oa, ob) = self.buf[self.next];
            self.sum_a -= oa;
            self.sum_b -= ob;
            self.buf[self.next] = (a, b);
        }
        self.next = (self.next + 1) % self.cap;
        self.sum_a += a;
        self.sum_b += b;
    }

    fn len(&self) -> usize {
        self.buf.len()
    }
}

#[derive(Debug)]
struct SloTracker {
    spec: SloSpec,
    fast: WindowRing,
    slow: WindowRing,
    firing: bool,
    total_a: u64,
    total_b: u64,
    fires: u64,
}

/// The per-campaign SLO evaluator.
#[derive(Debug)]
pub struct SloEngine {
    trackers: Vec<SloTracker>,
    tick_hours: f64,
    ticks: u64,
    alerts: Vec<AlertRecord>,
}

impl SloEngine {
    /// Build trackers for `specs`, sizing each ring to its window in
    /// ticks.
    pub fn new(specs: &[SloSpec], tick: SimDuration) -> SloEngine {
        let tick_secs = tick.as_secs().max(1);
        let trackers = specs
            .iter()
            .map(|spec| SloTracker {
                fast: WindowRing::new((spec.fast_window.as_secs() / tick_secs) as usize),
                slow: WindowRing::new((spec.slow_window.as_secs() / tick_secs) as usize),
                spec: spec.clone(),
                firing: false,
                total_a: 0,
                total_b: 0,
                fires: 0,
            })
            .collect();
        SloEngine {
            trackers,
            tick_hours: tick_secs as f64 / 3600.0,
            ticks: 0,
            alerts: Vec::new(),
        }
    }

    /// Fold one tick of observations; returns transitions in spec order.
    pub fn step(&mut self, now: SimTime, feed: &SloFeed) -> Vec<AlertEvent> {
        self.ticks += 1;
        let mut events = Vec::new();
        for t in &mut self.trackers {
            let (a, b) = sample(&t.spec, feed);
            t.total_a += a as u64;
            t.total_b += b as u64;
            t.fast.push(a, b);
            t.slow.push(a, b);
            let fast = window_metric(&t.spec.kind, &t.fast, self.tick_hours);
            let slow = window_metric(&t.spec.kind, &t.slow, self.tick_hours);
            if !t.firing && fast > t.spec.fast_threshold && slow > t.spec.slow_threshold {
                t.firing = true;
                t.fires += 1;
                let ev = AlertEvent {
                    slo: t.spec.name.clone(),
                    fired: true,
                    at: now,
                    fast,
                    slow,
                };
                self.alerts.push(ev.record());
                events.push(ev);
            } else if t.firing && fast <= t.spec.fast_threshold {
                t.firing = false;
                let ev = AlertEvent {
                    slo: t.spec.name.clone(),
                    fired: false,
                    at: now,
                    fast,
                    slow,
                };
                self.alerts.push(ev.record());
                events.push(ev);
            }
        }
        events
    }

    /// Freeze into (alert timeline, per-SLO attainment).
    pub fn finish(self) -> (Vec<AlertRecord>, Vec<SloAttainment>) {
        let campaign_hours = self.ticks as f64 * self.tick_hours;
        let attainment = self
            .trackers
            .iter()
            .map(|t| {
                let (ratio, target) = match t.spec.kind {
                    SloKind::RatioBudget { budget } => (
                        if t.total_b == 0 {
                            0.0
                        } else {
                            t.total_a as f64 / t.total_b as f64
                        },
                        budget,
                    ),
                    SloKind::ValueAbove { .. } | SloKind::ValueBelow { .. } => (
                        if t.total_b == 0 {
                            0.0
                        } else {
                            t.total_a as f64 / t.total_b as f64
                        },
                        t.spec.slow_threshold,
                    ),
                    SloKind::RateAbove { max_per_hour } => (
                        if campaign_hours == 0.0 {
                            0.0
                        } else {
                            t.total_a as f64 / campaign_hours
                        },
                        max_per_hour,
                    ),
                };
                SloAttainment {
                    slo: t.spec.name.clone(),
                    bad: t.total_a,
                    total: t.total_b,
                    ratio,
                    target,
                    attained: ratio <= target,
                    fires: t.fires,
                }
            })
            .collect();
        (self.alerts, attainment)
    }
}

/// Map a feed onto a spec's (a, b) tick sample: `a` = bad units, `b` =
/// total units. Every value is a small integer count or 0/1 indicator,
/// so window sums stay exact under eviction.
fn sample(spec: &SloSpec, feed: &SloFeed) -> (f64, f64) {
    let value = match spec.source {
        SloSource::CorruptionRate => {
            return (feed.bad_hash_delta as f64, feed.runs_delta as f64);
        }
        SloSource::OpenGaps => feed.open_gaps,
        SloSource::DewPointMargin => feed.dew_margin_min_c,
        SloSource::HostResets => {
            return (feed.resets_delta as f64, 1.0);
        }
    };
    let violated = match spec.kind {
        SloKind::ValueAbove { limit } => value > limit,
        SloKind::ValueBelow { limit } => value < limit,
        _ => false,
    };
    (if violated { 1.0 } else { 0.0 }, 1.0)
}

/// A window's burn rate (ratio/rate kinds) or violation fraction
/// (value kinds).
fn window_metric(kind: &SloKind, ring: &WindowRing, tick_hours: f64) -> f64 {
    match *kind {
        SloKind::RatioBudget { budget } => {
            if ring.sum_b <= 0.0 {
                0.0
            } else {
                (ring.sum_a / ring.sum_b) / budget
            }
        }
        SloKind::ValueAbove { .. } | SloKind::ValueBelow { .. } => {
            if ring.len() == 0 {
                0.0
            } else {
                ring.sum_a / ring.len() as f64
            }
        }
        SloKind::RateAbove { max_per_hour } => {
            let hours = ring.len() as f64 * tick_hours;
            if hours == 0.0 {
                0.0
            } else {
                (ring.sum_a / hours) / max_per_hour
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: SimDuration = SimDuration::minutes(1);

    fn corruption_spec() -> SloSpec {
        SloSpec {
            name: "corruption-rate".to_string(),
            source: SloSource::CorruptionRate,
            kind: SloKind::RatioBudget {
                budget: 5.0 / 27627.0,
            },
            fast_window: SimDuration::hours(6),
            slow_window: SimDuration::hours(24),
            fast_threshold: 4.0,
            slow_threshold: 1.5,
        }
    }

    fn at(tick: i64) -> SimTime {
        SimTime::ZERO + SimDuration::minutes(tick)
    }

    #[test]
    fn one_bad_hash_fires_and_window_rollout_resolves() {
        let mut eng = SloEngine::new(&[corruption_spec()], TICK);
        // Paper-ish load: one run every 5th tick, all good.
        let mut tick = 0;
        for _ in 0..1440 {
            let feed = SloFeed {
                runs_delta: if tick % 5 == 0 { 1 } else { 0 },
                ..SloFeed::default()
            };
            assert!(eng.step(at(tick), &feed).is_empty());
            tick += 1;
        }
        // One corrupted run.
        let feed = SloFeed {
            runs_delta: 1,
            bad_hash_delta: 1,
            ..SloFeed::default()
        };
        let events = eng.step(at(tick), &feed);
        tick += 1;
        assert_eq!(events.len(), 1);
        assert!(events[0].fired);
        assert!(events[0].fast > 4.0 && events[0].slow > 1.5);
        // Clean ticks: the fast window (6 h = 360 ticks) eventually
        // evicts the bad hash and the alert resolves.
        let mut resolved_at = None;
        for _ in 0..400 {
            let feed = SloFeed {
                runs_delta: if tick % 5 == 0 { 1 } else { 0 },
                ..SloFeed::default()
            };
            let events = eng.step(at(tick), &feed);
            if let Some(ev) = events.first() {
                assert!(!ev.fired);
                resolved_at = Some(tick);
                break;
            }
            tick += 1;
        }
        assert!(resolved_at.is_some(), "alert never resolved");
        let (alerts, attainment) = eng.finish();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].action, "fire");
        assert_eq!(alerts[1].action, "resolve");
        assert_eq!(attainment[0].bad, 1);
        assert_eq!(attainment[0].fires, 1);
        // 1 bad hash in ~370 runs blows a 5/27627 budget.
        assert!(!attainment[0].attained);
    }

    #[test]
    fn value_below_watches_dew_margin_fraction() {
        let spec = SloSpec {
            name: "dew-point-margin".to_string(),
            source: SloSource::DewPointMargin,
            kind: SloKind::ValueBelow { limit: 1.0 },
            fast_window: SimDuration::minutes(4),
            slow_window: SimDuration::minutes(8),
            fast_threshold: 0.5,
            slow_threshold: 0.25,
        };
        let mut eng = SloEngine::new(&[spec], TICK);
        let dry = SloFeed {
            dew_margin_min_c: 5.0,
            ..SloFeed::default()
        };
        let wet = SloFeed {
            dew_margin_min_c: 0.2,
            ..SloFeed::default()
        };
        for i in 0..8 {
            assert!(eng.step(at(i), &dry).is_empty());
        }
        // 3 wet ticks: fast fraction 3/4 > 0.5, slow 3/8 > 0.25 → fire.
        assert!(eng.step(at(8), &wet).is_empty());
        assert!(eng.step(at(9), &wet).is_empty());
        let events = eng.step(at(10), &wet);
        assert_eq!(events.len(), 1);
        assert!(events[0].fired);
        // Dry again: fast window drains below 0.5 → resolve.
        let mut saw_resolve = false;
        for i in 11..20 {
            if let Some(ev) = eng.step(at(i), &dry).first() {
                assert!(!ev.fired);
                saw_resolve = true;
                break;
            }
        }
        assert!(saw_resolve);
    }

    #[test]
    fn rate_above_judges_events_per_hour() {
        let spec = SloSpec {
            name: "host-reset-rate".to_string(),
            source: SloSource::HostResets,
            kind: SloKind::RateAbove { max_per_hour: 2.0 },
            fast_window: SimDuration::hours(1),
            slow_window: SimDuration::hours(2),
            fast_threshold: 1.0,
            slow_threshold: 0.5,
        };
        let mut eng = SloEngine::new(&[spec], TICK);
        let mut fired = false;
        // A reset every 10 minutes = 6/h = burn 3 on the fast window.
        for i in 0..240 {
            let feed = SloFeed {
                resets_delta: if i % 10 == 0 { 1 } else { 0 },
                ..SloFeed::default()
            };
            if eng.step(at(i), &feed).first().is_some_and(|e| e.fired) {
                fired = true;
                break;
            }
        }
        assert!(fired, "6 resets/hour must breach a 2/hour SLO");
    }

    #[test]
    fn engine_is_deterministic_across_reruns() {
        let run = || {
            let mut eng = SloEngine::new(&SloSpec::paper_defaults(), TICK);
            for i in 0..2000 {
                let feed = SloFeed {
                    runs_delta: 1,
                    bad_hash_delta: u64::from(i % 700 == 0),
                    open_gaps: f64::from(u8::from(i % 13 == 0)),
                    dew_margin_min_c: if i % 17 < 3 { 0.5 } else { 4.0 },
                    resets_delta: u64::from(i % 40 == 0),
                };
                eng.step(at(i as i64), &feed);
            }
            let (alerts, attainment) = eng.finish();
            (
                serde_json::to_string(&alerts).expect("plain data"),
                serde_json::to_string(&attainment).expect("plain data"),
            )
        };
        assert_eq!(run(), run());
        let (alerts, _) = run();
        assert!(alerts.contains("\"fire\""), "exercise must produce alerts");
    }

    #[test]
    fn paper_attainment_reproduces_the_measured_ratio() {
        let mut eng = SloEngine::new(&[corruption_spec()], TICK);
        // Feed exactly the paper's totals: 27,627 runs, 5 bad hashes,
        // spread so no window ever concentrates two bad hashes.
        let mut bad_left = 5;
        let mut runs_left = 27627u64;
        let mut i = 0i64;
        while runs_left > 0 {
            let bad = bad_left > 0 && i % 5525 == 5000;
            if bad {
                bad_left -= 1;
            }
            eng.step(
                at(i),
                &SloFeed {
                    runs_delta: 1,
                    bad_hash_delta: u64::from(bad),
                    ..SloFeed::default()
                },
            );
            runs_left -= 1;
            i += 1;
        }
        let (_, attainment) = eng.finish();
        let a = &attainment[0];
        assert_eq!((a.bad, a.total), (5, 27627));
        assert!(a.attained, "exactly on budget counts as attained");
        assert_eq!(a.fires, 5, "each isolated bad hash pages once");
    }
}
